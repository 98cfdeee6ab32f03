//! Newton–Raphson division and square root on raw limb windows.
//!
//! The seed-era kernels ran division as a chain of whole-`BigFloat`
//! operations (a reciprocal refined by `x += x·(1 − a·x)` at full working
//! precision), paying a full-width multiply, round, and allocation per
//! Newton step. This module reformulates both operations as *integer*
//! problems on stack scratch windows:
//!
//! * division computes `Q = floor(Dividend / B)` where `Dividend = A·2^s`
//!   is the dividend mantissa scaled so `Q` has exactly `64·qn` bits
//!   (`qn = limbs_for(prec) + 1`, one guard limb below the target
//!   precision);
//! * square root computes `S = isqrt(floor(g·2^(128·qn)))` for the
//!   exponent-adjusted fraction `g ∈ [0.25, 1)`.
//!
//! Both run a precision-doubling Newton iteration on a reciprocal
//! (`z ≈ 1/(2d)` resp. `y ≈ 1/(2√g)`) seeded from the top limbs, where
//! each stage works only on the limb window that carries new information:
//! the residual `e = 1 − 2dz` (resp. `1 − 4gy²`) is tiny, so its sign
//! bits are sliced off and the correction product runs at the width of
//! the bits being gained, not the full precision. The estimate is then
//! finished with an **exact** fixup — the true remainder
//! `Dividend − Q̂·B` (resp. `Gbig − S²`) is computed and the estimate
//! stepped until the remainder is in range — so correct rounding never
//! depends on the Newton error analysis being tight, and the remainder
//! doubles as an exact sticky bit for [`Finite::round`].
//!
//! Divisors with a single significant limb (which includes every small
//! integer constant, and every power of two) skip Newton entirely for a
//! word-at-a-time short division with a precomputed Möller–Granlund
//! reciprocal; the fixed-point series accumulator (`series.rs`) divides
//! its terms by their integer coefficients with the same two helpers.
//!
//! The seed-era semantics are pinned by retained reference kernels —
//! bit-serial restoring long division and two-bits-per-step restoring
//! square root — selected by the debug-only `set_disable_fast_paths`
//! hook and compared bit for bit by the `newton_props` proptest suite.

use super::limbs::{self, Scratch};
use super::{fast_paths_enabled, limbs_for, Finite, Repr};
use std::cmp::Ordering;

/// Correctly-rounded division of finite nonzero mantissas: returns
/// `round(|a| / |b|)` at `prec` bits with sign `sign`.
pub(crate) fn div_finite(a: &Finite, b: &Finite, prec: u32, sign: bool) -> Repr {
    let na = a.limbs.len();
    let nb = b.limbs.len();
    let qn = limbs_for(prec) + 1;
    // ge = 1 when fa ≥ fb, so the quotient fraction (fa/fb)·2^(−ge) is in
    // [0.5, 1) — strictly: fa < fb and both in [0.5, 1) force fa/fb > 0.5.
    let ge = (limbs::cmp_top_aligned(&a.limbs, &b.limbs) != Ordering::Less) as i64;
    let exp_q = a.exp - b.exp + ge;
    let wd = qn + nb;
    // Dividend = floor(A · 2^s), scaled so Q = floor(Dividend / B) has
    // exactly 64·qn bits. A negative s (a wide dividend mantissa divided at
    // a narrow target precision) drops bits into the sticky flag; nested
    // floors leave the quotient unchanged.
    let s = 64 * (wd as i64 - na as i64) - ge;
    let (mut dbuf, pre_sticky) = build_shifted(&a.limbs, s, wd);
    let dividend = &mut dbuf[..wd];
    let mut q = Scratch::zeroed(qn + 1);
    let rem_sticky = if !fast_paths_enabled() {
        telemetry::BIGFLOAT_DIV_SCHOOLBOOK.incr();
        div_core_long(dividend, &b.limbs, qn, &mut q)
    } else if limbs::is_zero(&b.limbs[..nb - 1]) {
        telemetry::BIGFLOAT_DIV_WORD.incr();
        div_core_word(dividend, b.limbs[nb - 1], nb, qn, &mut q)
    } else if nb <= MG_THRESHOLD {
        telemetry::BIGFLOAT_DIV_SCHOOLBOOK.incr();
        div_core_mg(dividend, &b.limbs, qn, &mut q)
    } else {
        telemetry::BIGFLOAT_DIV_NEWTON.incr();
        div_core_newton(dividend, &b.limbs, qn, &mut q)
    };
    debug_assert_eq!(q[qn], 0);
    debug_assert_eq!(q[qn - 1] >> 63, 1);
    Finite::round(sign, &q[..qn], exp_q, prec, rem_sticky || pre_sticky)
}

/// Correctly-rounded square root of a positive finite mantissa at `prec`
/// bits.
pub(crate) fn sqrt_finite(f: &Finite, prec: u32) -> Repr {
    let na = f.limbs.len();
    let qn = limbs_for(prec) + 1;
    // a = g·2^(2·e2) with g ∈ [0.25, 1): odd exponents fold a halving into
    // the fraction, so √a = √g·2^e2 with √g ∈ [0.5, 1).
    let t = f.exp.div_euclid(2);
    let (e2, r1) = if f.exp.rem_euclid(2) == 1 {
        (t + 1, 1i64)
    } else {
        (t, 0i64)
    };
    let wg = 2 * qn;
    // Gbig = floor(g · 2^(128·qn)); S = isqrt(Gbig) then has 64·qn bits.
    let sh = 64 * (wg as i64 - na as i64) - r1;
    let (gbuf, pre_sticky) = build_shifted(&f.limbs, sh, wg);
    let gbig = &gbuf[..wg];
    let mut s = Scratch::zeroed(qn + 1);
    let pow2 = f.limbs[na - 1] == 1 << 63 && limbs::is_zero(&f.limbs[..na - 1]);
    let rem_sticky = if !fast_paths_enabled() {
        sqrt_core_digit(gbig, qn, &mut s)
    } else if pow2 && r1 == 1 {
        // g = 1/4 exactly (the one case where 1/(2√g) hits 1.0, outside
        // the Newton iterate's open interval): the root is 2^(N−1).
        s[qn - 1] = 1 << 63;
        false
    } else {
        match sqrt_core_newton(gbig, qn, &mut s) {
            Some(sticky) => sticky,
            None => {
                s.iter_mut().for_each(|l| *l = 0);
                sqrt_core_digit(gbig, qn, &mut s)
            }
        }
    };
    debug_assert_eq!(s[qn], 0);
    debug_assert_eq!(s[qn - 1] >> 63, 1);
    Finite::round(false, &s[..qn], e2, prec, rem_sticky || pre_sticky)
}

/// Copies `src` into a window of at least `width` limbs and shifts it by
/// `sh` bits (left for positive `sh`); a right shift returns the dropped
/// bits as a sticky flag.
fn build_shifted(src: &[u64], sh: i64, width: usize) -> (Scratch, bool) {
    let mut buf = Scratch::zeroed(width.max(src.len()));
    buf[..src.len()].copy_from_slice(src);
    if sh >= 0 {
        limbs::shl_in_place(&mut buf, sh as u64);
        (buf, false)
    } else {
        let sticky = limbs::shr_in_place(&mut buf, (-sh) as u64);
        (buf, sticky)
    }
}

// ----- retained reference kernels (debug-only dispatch + proptest pin) -----

/// Restoring long division, one quotient bit per step. This is the
/// semantics oracle the Newton path is pinned against; it also serves as
/// the release-mode safety net should the fixup ever fail to converge.
fn div_core_long(dividend: &[u64], b: &[u64], qn: usize, q: &mut [u64]) -> bool {
    let nb = b.len();
    debug_assert_eq!(dividend.len(), qn + nb);
    // rem = Dividend >> 64·qn, which the scaling guarantees is < B.
    let mut rem = Scratch::zeroed(nb + 1);
    rem[..nb].copy_from_slice(&dividend[qn..]);
    debug_assert!(limbs::cmp(&rem[..nb], b) == Ordering::Less);
    for bit in (0..64 * qn).rev() {
        // rem = 2·rem + next dividend bit; rem < B keeps it in nb+1 limbs.
        let mut carry = (dividend[bit / 64] >> (bit % 64)) & 1;
        for l in rem.iter_mut() {
            let new = (*l << 1) | carry;
            carry = *l >> 63;
            *l = new;
        }
        debug_assert_eq!(carry, 0);
        if rem[nb] != 0 || limbs::cmp(&rem[..nb], b) != Ordering::Less {
            limbs::sub_at(&mut rem, b, 0);
            q[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    !limbs::is_zero(&rem)
}

/// Restoring square root, two bits per step: the integer-root analogue of
/// [`div_core_long`], with the invariant `Gbig_high = root² + rem`,
/// `rem ≤ 2·root`.
fn sqrt_core_digit(gbig: &[u64], qn: usize, s: &mut [u64]) -> bool {
    debug_assert_eq!(gbig.len(), 2 * qn);
    let mut rem = Scratch::zeroed(qn + 2);
    let mut root = Scratch::zeroed(qn + 2);
    let mut t = Scratch::zeroed(qn + 2);
    for step in (0..64 * qn).rev() {
        // rem = 4·rem + next two bits of Gbig (rem ≤ 2·root < 2^(N+1)
        // keeps this in qn+2 limbs).
        let mut carry = (gbig[(2 * step) / 64] >> ((2 * step) % 64)) & 0b11;
        for l in rem.iter_mut() {
            let new = (*l << 2) | carry;
            carry = *l >> 62;
            *l = new;
        }
        debug_assert_eq!(carry, 0);
        // Trial subtrahend 4·root + 1: accepting appends a 1-bit to root.
        t.copy_from_slice(&root);
        limbs::shl_small_wrapping(&mut t, 2);
        t[0] |= 1;
        limbs::shl_small_wrapping(&mut root, 1);
        if limbs::cmp(&rem, &t) != Ordering::Less {
            limbs::sub_at(&mut rem, &t, 0);
            root[0] |= 1;
        }
    }
    s.copy_from_slice(&root[..s.len()]);
    !limbs::is_zero(&rem)
}

// ----- short path: single-significant-limb divisors -----

/// Möller–Granlund reciprocal of a normalized (top-bit-set) word:
/// `v = floor((2^128 − 1) / d) − 2^64`.
pub(super) fn reciprocal_word(d: u64) -> u64 {
    debug_assert_eq!(d >> 63, 1);
    ((u128::MAX / d as u128) - (1u128 << 64)) as u64
}

/// One step of schoolbook division by a normalized word using the
/// precomputed reciprocal: returns `(q, r)` with
/// `u1·2^64 + u0 = q·d + r`, requiring `u1 < d`.
#[inline]
pub(super) fn div_2by1(u1: u64, u0: u64, d: u64, v: u64) -> (u64, u64) {
    debug_assert!(u1 < d);
    let t = (v as u128) * (u1 as u128) + (((u1 as u128) << 64) | u0 as u128);
    let mut q1 = (t >> 64) as u64;
    let q0 = t as u64;
    q1 = q1.wrapping_add(1);
    let mut r = u0.wrapping_sub(q1.wrapping_mul(d));
    if r > q0 {
        q1 = q1.wrapping_sub(1);
        r = r.wrapping_add(d);
    }
    if r >= d {
        q1 = q1.wrapping_add(1);
        r -= d;
    }
    (q1, r)
}

/// Division by a divisor whose mantissa has a single significant limb
/// (`B = b1·2^(64(nb−1))`, covering every small-integer series divisor and
/// every power of two): word-at-a-time short division.
fn div_core_word(dividend: &[u64], b1: u64, nb: usize, qn: usize, q: &mut [u64]) -> bool {
    // floor(Dividend / B) = floor((Dividend >> 64(nb−1)) / b1); the
    // dropped low limbs only feed sticky.
    let u = &dividend[nb - 1..];
    debug_assert_eq!(u.len(), qn + 1);
    let v = reciprocal_word(b1);
    let mut rem = u[qn];
    debug_assert!(rem < b1);
    for i in (0..qn).rev() {
        let (qd, r) = div_2by1(rem, u[i], b1, v);
        q[i] = qd;
        rem = r;
    }
    rem != 0 || !limbs::is_zero(&dividend[..nb - 1])
}

// ----- short path: few-limb divisors (Möller–Granlund 3-by-2 schoolbook) -----

/// Divisor width (in limbs) up to which schoolbook division with a
/// precomputed 3-by-2 word reciprocal beats the Newton iteration: with a
/// quadratic base multiply the Newton path only amortizes its window
/// bookkeeping once the per-step `submul` rows are long enough.
const MG_THRESHOLD: usize = 8;

/// Möller–Granlund reciprocal of a normalized two-limb divisor
/// `D = d1·2^64 + d0` (top bit of `d1` set):
/// `v = floor((2^192 − 1) / D) − 2^64`.
fn reciprocal_3by2(d1: u64, d0: u64) -> u64 {
    let mut v = reciprocal_word(d1);
    let mut p = d1.wrapping_mul(v).wrapping_add(d0);
    if p < d0 {
        v = v.wrapping_sub(1);
        if p >= d1 {
            v = v.wrapping_sub(1);
            p = p.wrapping_sub(d1);
        }
        p = p.wrapping_sub(d1);
    }
    let t = (v as u128) * (d0 as u128);
    let t1 = (t >> 64) as u64;
    let p2 = p.wrapping_add(t1);
    if p2 < t1 {
        v = v.wrapping_sub(1);
        if p2 > d1 || (p2 == d1 && (t as u64) >= d0) {
            v = v.wrapping_sub(1);
        }
    }
    v
}

/// One step of schoolbook division by a normalized two-limb divisor:
/// returns `(q, r1, r0)` with `(u2, u1, u0) = q·(d1, d0) + (r1, r0)`,
/// requiring `(u2, u1) < (d1, d0)`.
#[inline]
fn div_3by2(u2: u64, u1: u64, u0: u64, d1: u64, d0: u64, v: u64) -> (u64, u64, u64) {
    let q = (v as u128) * (u2 as u128) + (((u2 as u128) << 64) | u1 as u128);
    let mut q1 = (q >> 64) as u64;
    let q0 = q as u64;
    let r1 = u1.wrapping_sub(q1.wrapping_mul(d1));
    let d = ((d1 as u128) << 64) | d0 as u128;
    let t = (d0 as u128) * (q1 as u128);
    let mut r = (((r1 as u128) << 64) | u0 as u128)
        .wrapping_sub(t)
        .wrapping_sub(d);
    q1 = q1.wrapping_add(1);
    if (r >> 64) as u64 >= q0 {
        q1 = q1.wrapping_sub(1);
        r = r.wrapping_add(d);
    }
    if r >= d {
        q1 = q1.wrapping_add(1);
        r = r.wrapping_sub(d);
    }
    ((q1), (r >> 64) as u64, r as u64)
}

/// Knuth Algorithm D with Möller–Granlund 3-by-2 quotient digits: exact
/// word-at-a-time long division for divisors of up to [`MG_THRESHOLD`]
/// limbs. Unlike the Newton path there is no estimate/fixup phase — each
/// digit is final after at most one add-back — and the remainder falls out
/// of the loop, so sticky is a plain zero test.
fn div_core_mg(dividend: &mut [u64], b: &[u64], qn: usize, q: &mut [u64]) -> bool {
    let nb = b.len();
    debug_assert!(nb >= 2);
    debug_assert_eq!(dividend.len(), qn + nb);
    // The scaling in `div_finite` guarantees the top nb limbs (the initial
    // partial remainder) are < B, so the quotient fits qn limbs exactly.
    debug_assert!(limbs::cmp(&dividend[qn..], b) == Ordering::Less);
    let d1 = b[nb - 1];
    let d0 = b[nb - 2];
    let v = reciprocal_3by2(d1, d0);
    let u = dividend;
    for j in (0..qn).rev() {
        // Invariant: the remainder so far sits in u[..=j+nb] and is
        // < B·2^(64(j+1)), so (u[j+nb], u[j+nb−1]) ≤ (d1, d0).
        let u2 = u[j + nb];
        let u1 = u[j + nb - 1];
        let mut qhat = if u2 == d1 && u1 == d0 {
            // div_3by2 needs a strictly smaller top pair; the saturated
            // digit is correct here up to the shared add-back below.
            u64::MAX
        } else {
            div_3by2(u2, u1, u[j + nb - 2], d1, d0, v).0
        };
        let borrow = limbs::submul_1(&mut u[j..j + nb], b, qhat);
        if u2 < borrow {
            // qhat was one too large (3-by-2 digits overshoot by at most
            // one): add the divisor back.
            qhat -= 1;
            let carry = limbs::add_at(&mut u[j..j + nb], b, 0);
            u[j + nb] = u2.wrapping_sub(borrow).wrapping_add(carry as u64);
        } else {
            u[j + nb] = u2 - borrow;
        }
        debug_assert_eq!(u[j + nb], 0);
        q[j] = qhat;
    }
    !limbs::is_zero(&u[..nb])
}

// ----- Newton reciprocal iteration -----

/// Newton–Raphson reciprocal: for the divisor fraction `d = B/2^(64·nb)`
/// in (0.5, 1) — top bit set, more than one significant limb, so the word
/// path has already peeled off the `d = 0.5` boundary — computes
/// `z ≈ 1/(2d) ∈ (0.5, 1)` to `zn` limbs (`z = Z/2^(64·zn)`).
fn recip_limbs(b: &[u64], zn: usize) -> Scratch {
    let nb = b.len();
    let mut z = Scratch::zeroed(zn);
    // Seed from the top divisor limb: ~62 correct bits.
    // (2^128 − 1)/b1 ∈ [2^64, 2^65), halved into [2^63, 2^64).
    z[zn - 1] = ((u128::MAX / b[nb - 1] as u128) >> 1) as u64;
    // Stage scratch, allocated once and re-sliced per stage (every mul
    // kernel fully overwrites its output window, so no re-zeroing).
    let mut pb = Scratch::zeroed((zn + 1).min(nb) + zn);
    let mut esb = Scratch::zeroed(zn + 3);
    let mut dzb = Scratch::zeroed(2 * zn + 4);
    let mut w = 1usize;
    while w < zn {
        let w2 = (2 * w).min(zn);
        // d' = top db limbs of B, one guard limb past the target width.
        let db = (w2 + 1).min(nb);
        let l = db + w;
        let p = &mut pb[..l];
        limbs::mul_into(p, &b[nb - db..], &z[zn - w..]);
        // e = 1 − 2·d'·z': d'z' ∈ (0.25, 0.5]·(1 ± ε), so shifting the
        // product up one bit and negating mod 1 leaves the residual as a
        // small signed two's-complement fraction.
        limbs::shl_small_wrapping(p, 1);
        limbs::negate_in_place(p);
        // z += z·e
        apply_correction(&mut z, &pb[..l], w, w2, 0, &mut esb, &mut dzb);
        // Clear everything below the refined window: the correction may
        // deposit extra low bits the next stage's truncated products will
        // not see, and leaving them would freeze them in as error. The
        // buffer must always equal its own truncation exactly.
        for l in z[..zn - w2].iter_mut() {
            *l = 0;
        }
        w = w2;
    }
    z
}

/// Applies the Newton update `z += z·e·2^(−extra_shift)` where `e` is a
/// signed two's-complement fraction `E/2^(64·len)` (the stage residual),
/// refining `z` to `w2` correct limbs. The window of `e` that enters the
/// correction product is found by *scanning* for its actual top
/// significant limb rather than trusting the nominal ladder position:
/// the f64/word seeds start below 64 correct bits, so the true error can
/// sit a limb or two above where a `w`-limbs-correct ladder would put
/// it, and a window keyed to the claim would drop those bits as sign
/// extension and never correct them.
/// `esb`/`dzb` are caller-owned scratch for the |e| window and the
/// correction product, at least `w2 + 2` and `zn + w2 + 2` limbs.
fn apply_correction(
    z: &mut Scratch,
    e: &[u64],
    w: usize,
    w2: usize,
    extra_shift: u32,
    esb: &mut [u64],
    dzb: &mut [u64],
) {
    let zn = z.len();
    let l = e.len();
    let e_neg = e[l - 1] >> 63 == 1;
    let fill = if e_neg { u64::MAX } else { 0 };
    // Top significant limb of |e| (sign-fill limbs above it carry no
    // information; one is kept in the window for the boundary carry).
    let top = match e.iter().rposition(|&limb| limb != fill) {
        Some(t) => t,
        None => return, // e ∈ {0, −2^(−64·l)}: below every guard width
    };
    // Window bottom sits at the stage's absolute target depth
    // 2^(−64(w2+2)) — limbs below it are beyond the guard width of the
    // precision being gained, wherever the top happens to be.
    let hi = (top + 2).min(l);
    let bot = l as i64 - w2 as i64 - 2;
    if (hi as i64) <= bot {
        return; // |e| already below the target depth
    }
    let lo = bot.max(0) as usize;
    let es = &mut esb[..hi - lo];
    es.copy_from_slice(&e[lo..hi]);
    if e_neg {
        // |e| = ¬E + 1 over the full width; the +1 reaches limb `lo` only
        // if every dropped low limb is zero.
        for limb in es.iter_mut() {
            *limb = !*limb;
        }
        if limbs::is_zero(&e[..lo]) {
            let carry = limbs::add_at(es, &[1], 0);
            debug_assert!(!carry);
        }
    }
    // dz = ztop·|e|: enough top limbs of z that the truncation error
    // |e|·2^(−64m) clears the target depth. l − top ≈ how many limbs
    // down |e| starts, so m grows automatically when the error is
    // running behind the ladder; it is capped at z's significant width
    // `w` — limbs below that window are exact zeros and multiplying by
    // them gains nothing.
    let m = (w2 + 3).saturating_sub(l - top).clamp(1, w.min(zn));
    let dz = &mut dzb[..m + (hi - lo)];
    limbs::mul_into(dz, &z[zn - m..], es);
    if extra_shift > 0 {
        limbs::shr_in_place(dz, extra_shift as u64);
    }
    // Alignment: dz = DZ·2^(64(lo − l − m)), applied in z's units of
    // 2^(−64·zn); a negative limb offset truncates dz from below.
    let offset = zn as i64 - m as i64 + lo as i64 - l as i64;
    let (dz_slice, off) = if offset >= 0 {
        (&dz[..], offset as usize)
    } else {
        let drop = (-offset) as usize;
        if drop >= dz.len() {
            return;
        }
        (&dz[drop..], 0)
    };
    // Saturate on overflow in either direction: the true iterate lives in
    // (0.5, 1), but a correction computed while the estimate is still
    // coarse can overshoot the buffer's range; clamping keeps the next
    // residual meaningful and the exact fixup guarantees the result.
    if e_neg {
        if limbs::sub_at(z, dz_slice, off) {
            z.iter_mut().for_each(|limb| *limb = 0);
            z[zn - 1] = 1 << 63;
        }
    } else if limbs::add_at(z, dz_slice, off) {
        z.iter_mut().for_each(|limb| *limb = u64::MAX);
    }
}

/// Newton division: estimate `Q̂ = Dividend·2z·2^(−64·nb)` from a
/// truncated top product, then fix up exactly.
fn div_core_newton(dividend: &[u64], b: &[u64], qn: usize, q: &mut [u64]) -> bool {
    let wd = dividend.len();
    let zn = qn + 1;
    let z = recip_limbs(b, zn);
    // Truncated product of the top dividend limbs with z: keep the top
    // qn+2 comba columns (two guard limbs below the quotient's lsb).
    let ma = (zn + 1).min(wd);
    let cut = ma + zn - (qn + 2);
    let mut pp = Scratch::zeroed(qn + 2);
    limbs::mul_trunc_into(&mut pp, &dividend[wd - ma..], &z, cut);
    // Q̂ = PP_hi·2^(1−128).
    limbs::shr_in_place(&mut pp, 127);
    q[..qn + 1].copy_from_slice(&pp[..qn + 1]);
    match correct_quotient(q, dividend, b) {
        Some(sticky) => sticky,
        None => {
            // The estimate was too far off to fix up (never observed;
            // asserted against in debug builds). Fall back to the exact
            // reference kernel rather than risk a wrong quotient.
            q.iter_mut().for_each(|l| *l = 0);
            div_core_long(dividend, b, qn, q)
        }
    }
}

/// Exact division fixup: computes the true remainder
/// `R = Dividend − Q̂·B` and steps `Q̂` until `0 ≤ R < B`, so the result
/// is `floor(Dividend/B)` regardless of the estimate's error. Returns
/// `Some(R ≠ 0)`, or `None` if the estimate is implausibly far off.
fn correct_quotient(q: &mut [u64], dividend: &[u64], b: &[u64]) -> Option<bool> {
    let nb = b.len();
    let wd = dividend.len();
    let wr = wd + 1;
    let mut t = Scratch::zeroed(q.len() + nb);
    limbs::mul_into(&mut t, q, b);
    debug_assert_eq!(t.len(), wr);
    // R = Dividend − Q̂·B, two's complement over wr limbs.
    let mut r = Scratch::zeroed(wr);
    r[..wd].copy_from_slice(dividend);
    limbs::sub_at(&mut r, &t, 0);
    let mut m = Scratch::zeroed(wr);
    let mut cb = Scratch::zeroed(nb + 1);
    for iter in 0..64 {
        debug_assert!(iter < 32, "division fixup drifting: bad Newton estimate");
        let neg = r[wr - 1] >> 63 == 1;
        m.copy_from_slice(&r);
        if neg {
            limbs::negate_in_place(&mut m);
        }
        let h = match m.iter().rposition(|&l| l != 0) {
            None => return Some(false), // exact
            Some(h) => h,
        };
        if !neg && (h < nb - 1 || (h == nb - 1 && limbs::cmp(&m[..nb], b) == Ordering::Less)) {
            return Some(true); // 0 < R < B
        }
        // Single-word correction c·2^(64·off) ≤ |R|/B (floor'd numerator,
        // ceil'd denominator keep it an underestimate, so each side
        // converges monotonically), clamped up to 1 to guarantee progress.
        let (c, off) = if h >= nb {
            let num = ((m[h] as u128) << 64) | m[h - 1] as u128;
            let c128 = num / (b[nb - 1] as u128 + 1);
            if c128 >> 64 != 0 {
                ((c128 >> 64) as u64, h - nb + 1)
            } else {
                ((c128 as u64).max(1), h - nb)
            }
        } else {
            (1u64, 0usize)
        };
        if off + nb + 1 > wr || off >= q.len() {
            return None;
        }
        mul_word_into(&mut cb, b, c);
        if neg {
            limbs::sub_at(q, &[c], off);
            limbs::add_at(&mut r, &cb, off);
        } else {
            limbs::add_at(q, &[c], off);
            limbs::sub_at(&mut r, &cb, off);
        }
    }
    None
}

/// `out = a · w` (one extra limb for the carry).
fn mul_word_into(out: &mut [u64], a: &[u64], w: u64) {
    debug_assert_eq!(out.len(), a.len() + 1);
    let mut carry = 0u64;
    for (o, &x) in out.iter_mut().zip(a) {
        let p = (x as u128) * (w as u128) + carry as u128;
        *o = p as u64;
        carry = (p >> 64) as u64;
    }
    out[a.len()] = carry;
}

/// Newton square root via the reciprocal root: `y ≈ 1/(2√g) ∈ (0.5, 1)`
/// (the `g = 1/4` boundary is special-cased by the caller), refined by
/// `y += y·(1 − 4gy²)/2`, then `S = 2·g·y` with an exact fixup. Returns
/// `Some(remainder ≠ 0)`, or `None` to fall back to the digit kernel.
fn sqrt_core_newton(gbig: &[u64], qn: usize, s: &mut [u64]) -> Option<bool> {
    let wg = 2 * qn;
    let zn = qn + 1;
    let mut y = Scratch::zeroed(zn);
    // f64 seed from the top 128 bits of g: ~50 correct bits.
    let gf = (gbig[wg - 1] as f64) * 2f64.powi(-64) + (gbig[wg - 2] as f64) * 2f64.powi(-128);
    let y0f = 0.5 / gf.sqrt();
    let y0 = if y0f >= 1.0 {
        u64::MAX
    } else {
        ((y0f * 18446744073709551616.0) as u64) | (1 << 63)
    };
    // One word-width Newton step lifts the ~48-bit f64 seed to ~60 bits,
    // keeping the ladder's doubled precision from falling behind the limb
    // window when the stage count is a power of two (where the final
    // stage is a full doubling with no truncation slack to regenerate).
    let y2 = ((y0 as u128 * y0 as u128) >> 64) as u64;
    let gy2 = ((gbig[wg - 1] as u128 * y2 as u128) >> 64) as i128;
    let e0 = (1i128 << 62) - gy2;
    let y1 = y0 as i128 + ((y0 as i128 * e0) >> 63);
    y[zn - 1] = y1.clamp(1i128 << 63, u64::MAX as i128) as u64;
    // Stage scratch, allocated once and re-sliced per stage.
    let mut ysqb = Scratch::zeroed(2 * zn);
    let mut pb = Scratch::zeroed((zn + 2).min(wg) + zn + 1);
    let mut esb = Scratch::zeroed(zn + 3);
    let mut dzb = Scratch::zeroed(2 * zn + 4);
    let mut w = 1usize;
    while w < zn {
        let w2 = (2 * w).min(zn);
        // y'² from the top w limbs, truncated to one guard limb past the
        // target width.
        let ysq = &mut ysqb[..2 * w];
        limbs::mul_into(ysq, &y[zn - w..], &y[zn - w..]);
        let ts = (w2 + 1).min(2 * w);
        let db = (w2 + 2).min(wg);
        let l = db + ts;
        let p = &mut pb[..l];
        limbs::mul_into(p, &gbig[wg - db..], &ysq[2 * w - ts..]);
        // e = 1 − 4·g·y²: two bits up, negate mod 1.
        limbs::shl_small_wrapping(p, 2);
        limbs::negate_in_place(p);
        // y += y·e/2
        apply_correction(&mut y, &pb[..l], w, w2, 1, &mut esb, &mut dzb);
        // Keep the buffer equal to its own truncation (see recip_limbs).
        for l in y[..zn - w2].iter_mut() {
            *l = 0;
        }
        w = w2;
    }
    // S = 2·g·y = √g, truncated top product, same layout as division.
    let ma = zn + 1;
    let cut = ma + zn - (qn + 2);
    let mut pp = Scratch::zeroed(qn + 2);
    limbs::mul_trunc_into(&mut pp, &gbig[wg - ma..], &y, cut);
    limbs::shr_in_place(&mut pp, 127);
    s[..qn + 1].copy_from_slice(&pp[..qn + 1]);
    correct_sqrt(s, gbig, qn)
}

/// Exact square-root fixup: computes `R = Gbig − S²` and steps `S` until
/// `0 ≤ R ≤ 2S` (the defining window of the integer root). A multi-word
/// remainder is absorbed with a single-word correction `c ≈ |R|/(2S)`
/// followed by a full residual recompute (mirroring the division fixup);
/// the ±1 endgame then lands exactly. Returns `Some(R ≠ 0)`, or `None`
/// if the estimate is implausibly far off.
fn correct_sqrt(s: &mut [u64], gbig: &[u64], qn: usize) -> Option<bool> {
    let wr = 2 * qn + 2;
    let mut sq = Scratch::zeroed(2 * (qn + 1));
    let mut r = Scratch::zeroed(wr);
    let mut m = Scratch::zeroed(wr);
    let mut t = Scratch::zeroed(qn + 2);
    let mut recompute = true;
    for iter in 0..64 {
        debug_assert!(iter < 32, "sqrt fixup drifting: bad Newton estimate");
        if recompute {
            // R = Gbig − S², two's complement over wr limbs.
            sq.iter_mut().for_each(|l| *l = 0);
            limbs::mul_into(&mut sq, s, s);
            debug_assert_eq!(sq.len(), wr);
            r.iter_mut().for_each(|l| *l = 0);
            r[..2 * qn].copy_from_slice(gbig);
            limbs::sub_at(&mut r, &sq, 0);
            recompute = false;
        }
        let neg = r[wr - 1] >> 63 == 1;
        // t = 2S + 1, the increment of S² for a unit step of S.
        t.iter_mut().for_each(|l| *l = 0);
        t[..s.len()].copy_from_slice(s);
        limbs::shl_small_wrapping(&mut t, 1);
        t[0] |= 1;
        if !neg && limbs::is_zero(&r[qn + 2..]) && limbs::cmp(&r[..qn + 2], &t) == Ordering::Less {
            return Some(!limbs::is_zero(&r));
        }
        m.copy_from_slice(&r);
        if neg {
            limbs::negate_in_place(&mut m);
        }
        let h = match m.iter().rposition(|&l| l != 0) {
            None => return Some(false), // exact
            Some(h) => h,
        };
        if h > qn || (h == qn && m[qn] >= 4) {
            // |R| spans multiple words of slack: apply c·2^(64·off) ≈
            // |R|/(2S) to S (floor'd numerator over ceil'd denominator
            // keeps it an underestimate) and recompute R exactly.
            let num = ((m[h] as u128) << 64) | m[h - 1] as u128;
            let den = (((t[qn] as u128) << 64) | t[qn - 1] as u128).saturating_add(1);
            let c128 = num / den;
            let (c, off) = if c128 >> 64 != 0 {
                ((c128 >> 64) as u64, h - qn + 1)
            } else {
                ((c128 as u64).max(1), h - qn)
            };
            if off >= s.len() {
                return None;
            }
            if neg {
                limbs::sub_at(s, &[c], off);
            } else {
                limbs::add_at(s, &[c], off);
            }
            recompute = true;
        } else if neg {
            // S too big: step down. With S' = S − 1 the remainder gains
            // 2S' + 1 = t − 2.
            limbs::sub_at(s, &[1], 0);
            limbs::sub_at(&mut t, &[2], 0);
            limbs::add_at(&mut r, &t, 0);
        } else {
            // R > 2S: the next root up still fits. R loses 2S + 1.
            limbs::sub_at(&mut r, &t, 0);
            limbs::add_at(s, &[1], 0);
        }
    }
    None
}
