//! Low-level helpers on little-endian limb buffers, and the small-buffer
//! storage they live in.
//!
//! A limb buffer represents an unsigned integer as base-2^64 digits stored
//! least-significant first. The [`super::BigFloat`] mantissa is such a buffer
//! normalized so that the most-significant bit of the last limb is set.
//!
//! Storage is the [`SmallBuf`] type: up to `N` limbs live inline on the
//! stack, longer buffers fall back to the heap. Two instantiations are used:
//!
//! * [`Limbs`] (`N = 6`) holds stored mantissas — precisions up to 384 bits
//!   never touch the allocator, covering the default 256 plus the widened
//!   working precision (`prec + 64`) the transcendental kernels run at;
//! * [`Scratch`] (`N = 20`) holds the working windows of the arithmetic
//!   kernels — the widened addition window (`limbs + 1`), the full product
//!   (`a.len() + b.len()`), and the Newton division/sqrt windows stay on
//!   the stack for operands up to the 384-bit inline mantissa width.
//!
//! All kernels operate in place on `&mut [u64]` slices so the same code
//! serves both representations; none of them allocate.

use std::ops::{Deref, DerefMut};

/// Number of limbs stored inline in a mantissa: 6 limbs = 384 bits, the
/// default shadow precision (256) plus the `prec + 64` guard width the
/// transcendental kernels work at.
pub(crate) const INLINE_LIMBS: usize = 6;

/// Number of limbs stored inline in a scratch window (covers the addition
/// window, the double-width product, and the Newton division/sqrt windows
/// up to the 384-bit inline mantissa width; the square root's widest
/// window there is 20 limbs).
pub(crate) const SCRATCH_LIMBS: usize = 20;

/// A limb buffer with inline storage for up to `N` limbs and heap fallback
/// above.
#[derive(Clone)]
pub(crate) enum SmallBuf<const N: usize> {
    /// `len` limbs stored inline; only `buf[..len]` is meaningful.
    Inline { len: u8, buf: [u64; N] },
    /// Heap fallback for buffers longer than `N` limbs.
    Heap(Vec<u64>),
}

/// Stored mantissa limbs: inline for precisions up to 384 bits.
pub(crate) type Limbs = SmallBuf<INLINE_LIMBS>;

/// Scratch working window for the arithmetic kernels.
pub(crate) type Scratch = SmallBuf<SCRATCH_LIMBS>;

/// Test-support switch (debug builds only): force every new buffer onto the
/// heap so the inline and heap code paths can be compared bit for bit at the
/// same precision. See [`super::set_force_heap_limbs`].
#[cfg(debug_assertions)]
pub(crate) static FORCE_HEAP: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

#[inline]
fn use_heap(len: usize, inline_capacity: usize) -> bool {
    #[cfg(debug_assertions)]
    if FORCE_HEAP.load(std::sync::atomic::Ordering::Relaxed) {
        return true;
    }
    len > inline_capacity
}

impl<const N: usize> SmallBuf<N> {
    /// A zero-filled buffer of `len` limbs.
    #[inline]
    pub(crate) fn zeroed(len: usize) -> Self {
        if use_heap(len, N) {
            SmallBuf::Heap(vec![0u64; len])
        } else {
            SmallBuf::Inline {
                len: len as u8,
                buf: [0u64; N],
            }
        }
    }

    /// A buffer holding a copy of `src`.
    #[inline]
    pub(crate) fn from_slice(src: &[u64]) -> Self {
        let mut out = Self::zeroed(src.len());
        out.as_mut_slice().copy_from_slice(src);
        out
    }

    /// The limbs as a slice, least-significant first.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u64] {
        match self {
            SmallBuf::Inline { len, buf } => &buf[..*len as usize],
            SmallBuf::Heap(v) => v,
        }
    }

    /// The limbs as a mutable slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            SmallBuf::Inline { len, buf } => &mut buf[..*len as usize],
            SmallBuf::Heap(v) => v,
        }
    }

    /// True if this buffer lives on the heap (used by the representation
    /// tests; sharing the name with `Vec` would be misleading).
    #[cfg(test)]
    pub(crate) fn is_heap(&self) -> bool {
        matches!(self, SmallBuf::Heap(_))
    }
}

impl<const N: usize> Deref for SmallBuf<N> {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl<const N: usize> DerefMut for SmallBuf<N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl<const N: usize> std::fmt::Debug for SmallBuf<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render as the bare limb list so `Finite`'s debug output is
        // representation-independent (inline and heap print identically).
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// Compares two equal-length limb slices as unsigned integers.
#[inline]
pub(crate) fn cmp(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

/// Compares two top-aligned fraction buffers of possibly different lengths:
/// both are normalized mantissas (value = 0.limbs), so the comparison walks
/// from the most-significant limb down, treating missing low limbs as zero.
#[inline]
pub(crate) fn cmp_top_aligned(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    let n = a.len().max(b.len());
    for i in 0..n {
        let ai = if i < a.len() { a[a.len() - 1 - i] } else { 0 };
        let bi = if i < b.len() { b[b.len() - 1 - i] } else { 0 };
        match ai.cmp(&bi) {
            std::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

/// Adds `b` into `a` in place; both must have the same length. Returns the
/// carry out of the top limb. (The addition kernel now uses the fused
/// [`add_shifted_into`]; this remains as the reference implementation the
/// unit tests check the fused pass against.)
#[cfg(test)]
pub(crate) fn add_in_place(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = false;
    for i in 0..a.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        a[i] = s2;
        carry = c1 || c2;
    }
    carry
}

/// Subtracts `b` from `a` in place (`a >= b` as integers); both must have the
/// same length.
#[inline]
pub(crate) fn sub_in_place(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_ne!(cmp(a, b), std::cmp::Ordering::Less);
    let mut borrow = false;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        a[i] = d2;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow);
}

/// Adds `1 << bit` to the buffer in place; returns the carry out of the top.
#[inline]
pub(crate) fn add_bit_in_place(a: &mut [u64], bit: u32) -> bool {
    let limb = (bit / 64) as usize;
    let offset = bit % 64;
    if limb >= a.len() {
        return false;
    }
    let (s, mut carry) = a[limb].overflowing_add(1u64 << offset);
    a[limb] = s;
    let mut i = limb + 1;
    while carry && i < a.len() {
        let (s, c) = a[i].overflowing_add(1);
        a[i] = s;
        carry = c;
        i += 1;
    }
    carry
}

/// Shifts the buffer right by `bits` in place (towards less significant),
/// returning `true` if any nonzero bit was shifted out.
#[inline]
pub(crate) fn shr_in_place(a: &mut [u64], bits: u64) -> bool {
    let len = a.len();
    if bits == 0 {
        return false;
    }
    if bits >= (len as u64) * 64 {
        let sticky = a.iter().any(|&l| l != 0);
        a.iter_mut().for_each(|l| *l = 0);
        return sticky;
    }
    let limb_shift = (bits / 64) as usize;
    let bit_shift = (bits % 64) as u32;
    let mut sticky = a[..limb_shift].iter().any(|&l| l != 0);
    if bit_shift > 0 {
        sticky |= limb_shift < len && (a[limb_shift] << (64 - bit_shift)) != 0;
    }
    for i in 0..len {
        let src = i + limb_shift;
        let low = if src < len { a[src] } else { 0 };
        let high = if src + 1 < len { a[src + 1] } else { 0 };
        a[i] = if bit_shift == 0 {
            low
        } else {
            (low >> bit_shift) | (high << (64 - bit_shift))
        };
    }
    sticky
}

/// Shifts the buffer left by `bits` in place (towards more significant). The
/// caller must guarantee that no set bit is shifted out the top.
#[inline]
pub(crate) fn shl_in_place(a: &mut [u64], bits: u64) {
    let len = a.len();
    if bits == 0 || len == 0 {
        return;
    }
    debug_assert!(bits < (len as u64) * 64 || a.iter().all(|&l| l == 0));
    let limb_shift = (bits / 64) as usize;
    let bit_shift = (bits % 64) as u32;
    for i in (0..len).rev() {
        let src = i as isize - limb_shift as isize;
        let low = if src >= 0 { a[src as usize] } else { 0 };
        let lower = if src >= 1 { a[(src - 1) as usize] } else { 0 };
        a[i] = if bit_shift == 0 {
            low
        } else {
            (low << bit_shift) | (lower >> (64 - bit_shift))
        };
    }
}

/// Number of leading zero bits, counting from the most-significant bit of the
/// last limb. Returns `len * 64` for an all-zero buffer.
#[inline]
pub(crate) fn leading_zeros(a: &[u64]) -> u64 {
    let mut zeros = 0u64;
    for &limb in a.iter().rev() {
        if limb == 0 {
            zeros += 64;
        } else {
            zeros += limb.leading_zeros() as u64;
            break;
        }
    }
    zeros
}

/// True if every limb is zero.
#[inline]
pub(crate) fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Adds `src` — top-aligned to the `dst` window and shifted right by `bits` —
/// into `dst` in place, fusing the widen/shift/add passes of the addition
/// kernel into one loop. Returns `(sticky, carry)`: `sticky` is true if any
/// nonzero bit was shifted out the bottom of the window, `carry` is the carry
/// out of the top limb.
#[inline]
pub(crate) fn add_shifted_into(dst: &mut [u64], src: &[u64], bits: u64) -> (bool, bool) {
    let wl = dst.len();
    debug_assert!(src.len() <= wl);
    let off = wl - src.len();
    // Window-limb accessor for the top-aligned source (low limbs are zero).
    let sw = |j: usize| -> u64 {
        if j >= off && j < wl {
            src[j - off]
        } else {
            0
        }
    };
    if bits >= (wl as u64) * 64 {
        return (!is_zero(src), false);
    }
    let limb_shift = (bits / 64) as usize;
    let bit_shift = (bits % 64) as u32;
    let mut sticky = (0..limb_shift).any(|j| sw(j) != 0);
    if bit_shift > 0 {
        sticky |= sw(limb_shift) << (64 - bit_shift) != 0;
    }
    let mut carry = false;
    for (i, d) in dst.iter_mut().enumerate() {
        let shifted = if bit_shift == 0 {
            sw(i + limb_shift)
        } else {
            (sw(i + limb_shift) >> bit_shift) | (sw(i + limb_shift + 1) << (64 - bit_shift))
        };
        let (s1, c1) = d.overflowing_add(shifted);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *d = s2;
        carry = c1 || c2;
    }
    (sticky, carry)
}

/// Two's-complement negation in place:
/// `a = (2^(64·len) − a) mod 2^(64·len)`.
#[inline]
pub(crate) fn negate_in_place(a: &mut [u64]) {
    let mut carry = true;
    for limb in a.iter_mut() {
        let (v, c) = (!*limb).overflowing_add(carry as u64);
        *limb = v;
        carry = c;
    }
}

/// Adds `src` into `dst` starting at limb `offset`, propagating the carry
/// through the rest of `dst`. Returns the carry out of the top (callers on
/// two's-complement buffers let it wrap; others assert it clear).
#[inline]
pub(crate) fn add_at(dst: &mut [u64], src: &[u64], offset: usize) -> bool {
    debug_assert!(offset + src.len() <= dst.len());
    let mut carry = false;
    for (d, &s) in dst[offset..].iter_mut().zip(src) {
        let (v1, c1) = d.overflowing_add(s);
        let (v2, c2) = v1.overflowing_add(carry as u64);
        *d = v2;
        carry = c1 || c2;
    }
    for d in dst[offset + src.len()..].iter_mut() {
        if !carry {
            break;
        }
        let (v, c) = d.overflowing_add(1);
        *d = v;
        carry = c;
    }
    carry
}

/// Subtracts `src` from `dst` starting at limb `offset`, propagating the
/// borrow through the rest of `dst`. Returns the borrow out of the top
/// (on two's-complement buffers a set borrow just wraps the sign).
#[inline]
pub(crate) fn sub_at(dst: &mut [u64], src: &[u64], offset: usize) -> bool {
    debug_assert!(offset + src.len() <= dst.len());
    let mut borrow = false;
    for (d, &s) in dst[offset..].iter_mut().zip(src) {
        let (v1, b1) = d.overflowing_sub(s);
        let (v2, b2) = v1.overflowing_sub(borrow as u64);
        *d = v2;
        borrow = b1 || b2;
    }
    for d in dst[offset + src.len()..].iter_mut() {
        if !borrow {
            break;
        }
        let (v, b) = d.overflowing_sub(1);
        *d = v;
        borrow = b;
    }
    borrow
}

/// Subtracts `q · src` from `acc` limb-wise (`acc.len() == src.len()`),
/// returning the borrow word out of the top — the schoolbook division
/// inner step. The borrow word cannot overflow: the per-limb high product
/// is at most 2^64 − 2, leaving room for the subtraction borrow.
#[inline]
pub(crate) fn submul_1(acc: &mut [u64], src: &[u64], q: u64) -> u64 {
    debug_assert_eq!(acc.len(), src.len());
    let mut borrow = 0u64;
    for (a, &s) in acc.iter_mut().zip(src) {
        let p = (q as u128) * (s as u128) + borrow as u128;
        let (v, under) = a.overflowing_sub(p as u64);
        *a = v;
        borrow = (p >> 64) as u64 + under as u64;
    }
    borrow
}

/// Shifts left by `bits` (must be < 64) in place, discarding anything
/// shifted out the top — unlike [`shl_in_place`], which forbids overflow.
/// Used on fraction windows where the integer part is dropped by design.
#[inline]
pub(crate) fn shl_small_wrapping(a: &mut [u64], bits: u32) {
    debug_assert!(bits < 64);
    if bits == 0 {
        return;
    }
    let mut carry = 0u64;
    for limb in a.iter_mut() {
        let new = (*limb << bits) | carry;
        carry = *limb >> (64 - bits);
        *limb = new;
    }
}

/// Full product of two limb buffers, written into `out`, which must be
/// exactly `a.len() + b.len()` limbs long. Column-wise (comba) accumulation:
/// each output limb is written exactly once, and carries propagate through a
/// 192-bit running accumulator instead of per-row read-modify-write sweeps.
///
/// Small square operand counts — covering the default 256-bit mantissas
/// and the widened `prec + 64` working precision of the transcendental
/// kernels — are dispatched to const-size instantiations the compiler
/// fully unrolls.
#[inline]
pub(crate) fn mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    if a.len() == b.len() {
        match a.len() {
            1 => return mul_comba::<1>(out, a, b),
            2 => return mul_comba::<2>(out, a, b),
            3 => return mul_comba::<3>(out, a, b),
            4 => return mul_comba::<4>(out, a, b),
            5 => return mul_comba::<5>(out, a, b),
            6 => return mul_comba::<6>(out, a, b),
            _ => {}
        }
    }
    mul_comba_dyn(out, a, b);
}

/// Truncated product: computes only the comba columns `cut ..
/// a.len() + b.len()` of `a × b`, writing them into `out` (which must be
/// exactly `a.len() + b.len() - cut` limbs). Partial products entirely
/// below column `cut` are skipped, so the result can fall short of the
/// true top columns by up to `min(a.len(), b.len()) + 1` units of column
/// `cut` (the carries the skipped columns would have propagated up).
/// Callers keep ≥ 2 guard limbs below the bits they consume, which makes
/// the shortfall irrelevant next to their own fixup step.
#[inline]
pub(crate) fn mul_trunc_into(out: &mut [u64], a: &[u64], b: &[u64], cut: usize) {
    debug_assert_eq!(out.len() + cut, a.len() + b.len());
    let mut acc_lo: u128 = 0;
    let mut acc_hi: u64 = 0;
    for (o, col) in out.iter_mut().zip(cut..) {
        let i_min = col.saturating_sub(b.len() - 1);
        let i_max = (col + 1).min(a.len());
        for i in i_min..i_max {
            let p = (a[i] as u128) * (b[col - i] as u128);
            let (sum, overflowed) = acc_lo.overflowing_add(p);
            acc_lo = sum;
            acc_hi += overflowed as u64;
        }
        *o = acc_lo as u64;
        acc_lo = (acc_lo >> 64) | ((acc_hi as u128) << 64);
        acc_hi = 0;
    }
}

/// Comba multiplication with a compile-time operand size (both operands `N`
/// limbs); bit-identical to [`mul_comba_dyn`].
#[inline]
pub(crate) fn mul_comba<const N: usize>(out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), 2 * N);
    let a: &[u64; N] = a.try_into().expect("operand size");
    let b: &[u64; N] = b.try_into().expect("operand size");
    let mut acc_lo: u128 = 0;
    let mut acc_hi: u64 = 0;
    for col in 0..2 * N {
        let i_min = col.saturating_sub(N - 1);
        let i_max = (col + 1).min(N);
        for i in i_min..i_max {
            let p = (a[i] as u128) * (b[col - i] as u128);
            let (sum, overflowed) = acc_lo.overflowing_add(p);
            acc_lo = sum;
            acc_hi += overflowed as u64;
        }
        out[col] = acc_lo as u64;
        acc_lo = (acc_lo >> 64) | ((acc_hi as u128) << 64);
        acc_hi = 0;
    }
    debug_assert_eq!(acc_lo, 0);
}

#[inline]
fn mul_comba_dyn(out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    // Row-major schoolbook: each a-limb row is multiply-accumulated into
    // `out` with a single carry word. Shorter dependency chains than a
    // column-comba accumulator for the small asymmetric shapes the
    // Newton kernels produce.
    let (row0, rest) = out.split_at_mut(b.len());
    let mut carry = 0u64;
    let a0 = a[0];
    for (o, &bj) in row0.iter_mut().zip(b) {
        let p = (a0 as u128) * (bj as u128) + carry as u128;
        *o = p as u64;
        carry = (p >> 64) as u64;
    }
    rest[0] = carry;
    for (i, &ai) in a.iter().enumerate().skip(1) {
        let mut carry = 0u64;
        let row = &mut out[i..i + b.len() + 1];
        let (acc, top) = row.split_at_mut(b.len());
        for (o, &bj) in acc.iter_mut().zip(b) {
            let p = (ai as u128) * (bj as u128) + *o as u128 + carry as u128;
            *o = p as u64;
            carry = (p >> 64) as u64;
        }
        top[0] = carry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        mul_into(&mut out, a, b);
        out
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = vec![u64::MAX, 1, 7];
        let b = vec![3, u64::MAX, 0];
        let mut s = a.clone();
        let carry = add_in_place(&mut s, &b);
        assert!(!carry);
        sub_in_place(&mut s, &b);
        assert_eq!(s, a);
    }

    #[test]
    fn add_produces_carry_out() {
        let mut a = vec![u64::MAX, u64::MAX];
        let carry = add_in_place(&mut a, &[1, 0]);
        assert!(carry);
        assert_eq!(a, vec![0, 0]);
    }

    #[test]
    fn shift_right_collects_sticky() {
        let mut a = vec![0b1011u64, 0];
        let sticky = shr_in_place(&mut a, 2);
        assert!(sticky);
        assert_eq!(a[0], 0b10);
        let mut b = vec![0b1000u64, 0];
        let sticky = shr_in_place(&mut b, 2);
        assert!(!sticky);
        assert_eq!(b[0], 0b10);
    }

    #[test]
    fn shift_right_by_more_than_width_zeroes_vector() {
        let mut a = vec![5u64, 9];
        let sticky = shr_in_place(&mut a, 1000);
        assert!(sticky);
        assert!(is_zero(&a));
    }

    #[test]
    fn shift_left_then_right_roundtrips() {
        let original = vec![0xDEAD_BEEFu64, 0x1234, 0];
        let mut a = original.clone();
        shl_in_place(&mut a, 70);
        let sticky = shr_in_place(&mut a, 70);
        assert!(!sticky);
        assert_eq!(a, original);
    }

    #[test]
    fn leading_zeros_counts_from_top() {
        assert_eq!(leading_zeros(&[0, 0]), 128);
        assert_eq!(leading_zeros(&[1, 0]), 127);
        assert_eq!(leading_zeros(&[0, 1u64 << 63]), 0);
        assert_eq!(leading_zeros(&[0, 1]), 63);
    }

    #[test]
    fn schoolbook_multiplication_matches_u128() {
        let a = 0xFFFF_FFFF_FFFF_FFFFu64;
        let b = 0x1234_5678_9ABC_DEF0u64;
        let prod = mul(&[a], &[b]);
        let expect = (a as u128) * (b as u128);
        assert_eq!(prod[0], expect as u64);
        assert_eq!(prod[1], (expect >> 64) as u64);
    }

    #[test]
    fn add_bit_carries_through() {
        let mut a = vec![u64::MAX, 0];
        let carry = add_bit_in_place(&mut a, 0);
        assert!(!carry);
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn compare_orders_by_most_significant_limb() {
        assert_eq!(cmp(&[5, 1], &[9, 0]), std::cmp::Ordering::Greater);
        assert_eq!(cmp(&[5, 1], &[5, 1]), std::cmp::Ordering::Equal);
        assert_eq!(cmp(&[0, 1], &[1, 1]), std::cmp::Ordering::Less);
    }

    #[test]
    fn top_aligned_compare_pads_the_low_side() {
        // [hi] vs [lo, hi]: equal tops, the longer buffer has a nonzero low
        // limb, so it is greater.
        assert_eq!(
            cmp_top_aligned(&[1u64 << 63], &[7, 1u64 << 63]),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            cmp_top_aligned(&[0, 1u64 << 63], &[1u64 << 63]),
            std::cmp::Ordering::Equal
        );
        assert_eq!(
            cmp_top_aligned(&[3, 2], &[4, 1]),
            std::cmp::Ordering::Greater
        );
    }

    #[test]
    fn small_buf_switches_to_heap_above_capacity() {
        let inline = Limbs::zeroed(INLINE_LIMBS);
        assert!(!inline.is_heap());
        assert_eq!(inline.len(), INLINE_LIMBS);
        let heap = Limbs::zeroed(INLINE_LIMBS + 1);
        assert!(heap.is_heap());
        assert_eq!(heap.len(), INLINE_LIMBS + 1);
        let copied = Limbs::from_slice(&[1, 2, 3]);
        assert_eq!(copied.as_slice(), &[1, 2, 3]);
        assert!(!copied.is_heap());
    }

    #[test]
    fn small_buf_debug_is_representation_independent() {
        let inline = Limbs::from_slice(&[1, 2]);
        let heap = Limbs::Heap(vec![1, 2]);
        assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
    }
}
