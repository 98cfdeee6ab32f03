//! Fixed-point summation of the elementary-function series.
//!
//! Every series in `functions.rs` is summed here, on a fixed-point limb
//! accumulator, and rounded to a [`BigFloat`] once. A term of a series
//! summed in `BigFloat` costs three or four full operations that each
//! normalize and round; on the accumulator a term is one truncating
//! multiply, one short division by a word and one addition, with no
//! exponent handling at all.
//!
//! **The accumulator.** A value is an integer `X` over `m` limbs, read as
//! the fraction `X·2^−F` with `F = 64m`. [`eval`] picks `F` from the
//! caller's working precision `work` as the next multiple of 64 at or
//! above `work + 32` (plus `s` for the exponential, see below). The series
//! argument `u` and the terms are non-negative fractions; the sum is kept
//! as its tail `T = S − 1`, a two's-complement fraction with |T| < ½,
//! because every series here starts at 1. A term's leading zero limbs are
//! tracked, and the multiply and division skip them: late terms are short.
//! The two series with coefficients `1/(2k + 1)` (atan, atanh) split their
//! terms by parity around the powers of `v = u²`, so one multiply serves
//! two terms.
//!
//! **Error argument.** Every operation truncates, and the bound is counted
//! in units of `2^−F`:
//! * a multiply skips the partial products below column `m − 1` and drops
//!   the low word of that column, which loses less than `m` units
//!   (`mul`); a short division loses less than one unit; additions are
//!   exact; loading the argument truncates it by less than one unit, and
//!   squaring it adds less than `m + 2`;
//! * a term of a series whose argument `u` is at most ½ therefore carries
//!   less than `2m + 2` units of error, because an error inherited from
//!   the previous term is scaled by `u` or by `u/d` and never grows;
//! * so a `K`-term sum is off by less than `(K + 1)·(2m + 2)` units, and
//!   halving it for the result adds one more. At the largest precision
//!   (`m` ≈ 260, `K` below 7000) that is under 2^22 units, 10 bits inside
//!   the 32 guard bits, so the sum (a value near 1) is within
//!   2^−(work + 10) relative of the series, and the one rounding to `work`
//!   bits keeps the faithful rounding that `cert`'s `round_eps` assumes;
//! * the exponential's `s` squarings each at most double the relative
//!   error (and add under `2m` units), which its `s` extra fraction bits
//!   absorb.
//!
//! Argument reduction keeps `u` at most ½ everywhere but the sine and
//! cosine, where `u = r² ≤ (π/4)² < 0.62` is divided by `2k(2k + 1)` ≥ 6
//! (or `(2k − 1)2k` ≥ 2) in every term, which keeps the inherited error
//! shrinking there too.
//!
//! **Ratio forms.** The sums are sin x/x, sinh x/x, atan t/t, atanh t/t
//! and (e^x − 1)/x, which stay near 1 however small the argument is; the
//! caller restores the scale with one `BigFloat` multiply, so tiny
//! arguments keep full relative accuracy.
//!
//! **One engine, two storages.** The limb loops are written once, over
//! slices. [`eval`] runs them on const-size stack arrays for the one width
//! a 256-bit shadow uses (six limbs: 320-bit working precision plus
//! guard), where the lengths are compile-time constants, and on heap
//! vectors at every other width or when `set_disable_fast_paths` is on;
//! the two are bit-identical (`tests/limb_repr_props.rs`).

use super::newton::{div_2by1, reciprocal_word};
use super::{fast_paths_enabled, limbs, BigFloat, Finite, Repr, MAX_PRECISION};

/// A series [`eval`] sums: `Σ (±u)^k·c_k` with `c_0 = 1`.
#[derive(Clone, Copy, Debug)]
pub(super) enum Series {
    /// e^x = Σ x^k/k!, summed on x/2^s and squared `halvings` = s times.
    Exp { halvings: u32 },
    /// (e^x − 1)/x = Σ x^k/(k + 1)!.
    Expm1,
    /// sin x / x = Σ (−x²)^k/(2k + 1)!.
    Sin,
    /// sinh x / x = Σ x^(2k)/(2k + 1)!.
    Sinh,
    /// cos x = Σ (−x²)^k/(2k)!.
    Cos,
    /// atan t / t = Σ (−t²)^k/(2k + 1).
    Atan,
    /// atanh t / t = Σ t^(2k)/(2k + 1).
    Atanh,
}

impl Series {
    /// The exponential's squaring count (0 for every other series).
    fn halvings(self) -> u32 {
        match self {
            Series::Exp { halvings } => halvings,
            _ => 0,
        }
    }

    /// True if the argument enters squared (`u = x²`).
    fn squared(self) -> bool {
        !matches!(self, Series::Exp { .. } | Series::Expm1)
    }

    /// True for the series whose coefficients are `1/(2k + 1)`: their
    /// powers of `u` recur and each is divided by its own coefficient.
    /// Every other series recurs on the term itself, `t_k = t_(k−1)·u/d_k`.
    fn harmonic(self) -> bool {
        matches!(self, Series::Atan | Series::Atanh)
    }

    /// The divisor `d_k` of term `k ≥ 1` of a recurring-term series.
    fn divisor(self, k: u64) -> u64 {
        match self {
            Series::Exp { .. } => k,
            Series::Expm1 => k + 1,
            Series::Sin | Series::Sinh => 2 * k * (2 * k + 1),
            Series::Cos => (2 * k - 1) * (2 * k),
            Series::Atan | Series::Atanh => unreachable!("harmonic series"),
        }
    }
}

/// Limb storage for one accumulator value.
trait Buf: AsRef<[u64]> + AsMut<[u64]> {
    fn zeroed(len: usize) -> Self;
}

impl<const N: usize> Buf for [u64; N] {
    #[inline(always)]
    fn zeroed(len: usize) -> Self {
        debug_assert_eq!(len, N);
        [0; N]
    }
}

impl Buf for Vec<u64> {
    fn zeroed(len: usize) -> Self {
        vec![0; len]
    }
}

/// The series `series` of the finite `x` (or zero), summed in fixed point
/// and rounded once to `work` bits. `x` must keep `u` (|x|, or x² for the
/// squared series, over 2^s for the exponential) below 1; the argument
/// reductions in `functions.rs` keep it far smaller.
pub(super) fn eval(series: Series, x: &BigFloat, work: u32) -> BigFloat {
    let m = ((work + 32 + series.halvings()) as usize).div_ceil(64);
    if m == 6 && fast_paths_enabled() {
        eval_in::<[u64; 6]>(m, series, x, work)
    } else {
        eval_in::<Vec<u64>>(m, series, x, work)
    }
}

/// [`eval`] on `m`-limb fractions stored in `B`.
#[inline(always)]
fn eval_in<B: Buf>(m: usize, series: Series, x: &BigFloat, work: u32) -> BigFloat {
    let mut u = B::zeroed(m);
    let mut scratch = B::zeroed(m);
    if series.squared() {
        load(scratch.as_mut(), x, 0);
        mul(u.as_mut(), scratch.as_ref(), scratch.as_ref(), m);
    } else {
        load(u.as_mut(), x, -(series.halvings() as i64));
    }
    // The odd terms of a series in −u, or in x = −u, subtract.
    let alternate = match series {
        Series::Exp { .. } | Series::Expm1 => x.is_negative(),
        Series::Sinh | Series::Atanh => false,
        Series::Sin | Series::Cos | Series::Atan => true,
    };
    let mut tail = B::zeroed(m);
    let mut term = B::zeroed(m);
    let mut contrib = B::zeroed(m);
    if series.harmonic() {
        // Split by the parity of k around the powers of v = u²:
        // T = E ± u·(1/3 + O) with E = Σ v^j/(4j + 1) and
        // O = Σ v^j/(4j + 3), one multiply for every two terms.
        mul(term.as_mut(), u.as_ref(), u.as_ref(), m);
        let mut v = B::zeroed(m);
        v.as_mut().copy_from_slice(term.as_ref());
        let mut odd = B::zeroed(m);
        let mut top = m;
        for j in 1u64.. {
            if j > 1 {
                mul(scratch.as_mut(), term.as_ref(), v.as_ref(), top);
                std::mem::swap(&mut term, &mut scratch);
            }
            top = significant(term.as_ref(), top);
            if top == 0 {
                break;
            }
            for (sum, d) in [(&mut tail, 4 * j + 1), (&mut odd, 4 * j + 3)] {
                contrib.as_mut().copy_from_slice(term.as_ref());
                div_word(contrib.as_mut(), d, top);
                limbs::add_at(sum.as_mut(), contrib.as_ref(), 0);
            }
        }
        // ⌊2^F/3⌋ is 0x5555… in every limb.
        contrib.as_mut().fill(0x5555_5555_5555_5555);
        limbs::add_at(odd.as_mut(), contrib.as_ref(), 0);
        mul(scratch.as_mut(), odd.as_ref(), u.as_ref(), m);
        if alternate {
            limbs::sub_at(tail.as_mut(), scratch.as_ref(), 0);
        } else {
            limbs::add_at(tail.as_mut(), scratch.as_ref(), 0);
        }
    } else {
        term.as_mut().copy_from_slice(u.as_ref());
        let mut top = m;
        for k in 1u64.. {
            if k > 1 {
                mul(scratch.as_mut(), term.as_ref(), u.as_ref(), top);
                std::mem::swap(&mut term, &mut scratch);
            }
            top = significant(term.as_ref(), top);
            if top == 0 {
                break;
            }
            div_word(term.as_mut(), series.divisor(k), top);
            if alternate && k % 2 == 1 {
                limbs::sub_at(tail.as_mut(), term.as_ref(), 0);
            } else {
                limbs::add_at(tail.as_mut(), term.as_ref(), 0);
            }
        }
    }
    // h = S/2 = (1 + T)/2 ∈ (¼, ¾): an arithmetic halving of the tail,
    // plus one half.
    let mut h = tail;
    let t = h.as_mut();
    let sign = t[m - 1] & (1 << 63);
    limbs::shr_in_place(t, 1);
    t[m - 1] |= sign;
    t[m - 1] = t[m - 1].wrapping_add(1 << 63);
    // The exponential squares S = 2h into 2h² = S²/2: every h stays below
    // the last one, e^r/2, which is below 1 because the reduced r < ln 2.
    for _ in 0..series.halvings() {
        mul(scratch.as_mut(), h.as_ref(), h.as_ref(), m);
        std::mem::swap(&mut h, &mut scratch);
        limbs::shl_small_wrapping(h.as_mut(), 1);
    }
    let prec = work.min(MAX_PRECISION);
    BigFloat {
        repr: Finite::normalize_and_round(false, h.as_mut(), 1, prec, false),
    }
}

/// The number of limbs of `v` below its leading zero limbs, counting down
/// from `top` (the limbs above `top` are known to be zero).
#[inline(always)]
fn significant(v: &[u64], mut top: usize) -> usize {
    while top > 0 && v[top - 1] == 0 {
        top -= 1;
    }
    top
}

/// Writes `⌊|x|·2^(scale + F)⌋` into `out`, `F = 64·out.len()`. Requires
/// `|x|·2^scale < 1` (finite `x` or zero).
#[inline(always)]
fn load(out: &mut [u64], x: &BigFloat, scale: i64) {
    out.fill(0);
    let f = match &x.repr {
        Repr::Finite(f) => f,
        _ => return,
    };
    debug_assert!(f.exp + scale <= 0);
    let m: &[u64] = &f.limbs;
    // |x| = M·2^(exp − 64·len(M)), so X = M·2^sh.
    let sh = f.exp + scale + 64 * (out.len() as i64 - m.len() as i64);
    let limb = |j: i64| {
        usize::try_from(j)
            .ok()
            .and_then(|j| m.get(j))
            .copied()
            .unwrap_or(0)
    };
    for (i, o) in out.iter_mut().enumerate() {
        // The 64 bits of M from bit 64i − sh up.
        let pos = 64 * i as i64 - sh;
        let (q, r) = (pos.div_euclid(64), pos.rem_euclid(64) as u32);
        *o = if r == 0 {
            limb(q)
        } else {
            (limb(q) >> r) | (limb(q + 1) << (64 - r))
        };
    }
}

/// `out = a·b·2^−F` for `a` with `top` significant limbs, truncated: the
/// partial products below column `m − 1` are skipped and the low word of
/// column `m − 1` is dropped. The skipped columns are worth less than
/// `m − 1` units and the dropped word less than one, so the result is low
/// by less than `m` units.
#[inline(always)]
fn mul(out: &mut [u64], a: &[u64], b: &[u64], top: usize) {
    let m = a.len();
    debug_assert!(b.len() == m && out.len() == m && (1..=m).contains(&top));
    let (mut lo, mut hi) = (0u128, 0u64);
    for col in m - 1..2 * m - 1 {
        for i in col + 1 - m..col.min(top - 1) + 1 {
            let (s, carry) = lo.overflowing_add(a[i] as u128 * b[col - i] as u128);
            lo = s;
            hi += carry as u64;
        }
        if col >= m {
            out[col - m] = lo as u64;
        }
        lo = (lo >> 64) | ((hi as u128) << 64);
        hi = 0;
    }
    out[m - 1] = lo as u64;
}

/// `v = ⌊v/d⌋` for a fraction `v` with `top` significant limbs and
/// `0 < d`: short division by the normalized divisor `d·2^s` through its
/// Möller–Granlund reciprocal, on the dividend shifted by the same `s`.
#[inline(always)]
fn div_word(v: &mut [u64], d: u64, top: usize) {
    let s = d.leading_zeros();
    let dn = d << s;
    let inv = reciprocal_word(dn);
    let high = |w: u64| if s == 0 { 0 } else { w >> (64 - s) };
    let mut rem = high(v[top - 1]);
    for i in (0..top).rev() {
        let below = if i == 0 { 0 } else { high(v[i - 1]) };
        let (q, r) = div_2by1(rem, (v[i] << s) | below, dn, inv);
        v[i] = q;
        rem = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x` as an `m`-limb fraction.
    fn fraction(x: f64, m: usize) -> Vec<u64> {
        let mut v = vec![0; m];
        load(&mut v, &BigFloat::from_f64(x), 0);
        v
    }

    #[test]
    fn load_places_the_binary_point() {
        assert_eq!(fraction(0.5, 3), [0, 0, 1 << 63]);
        assert_eq!(fraction(0.75 * 2f64.powi(-64), 3), [0, 3 << 62, 0]);
        assert_eq!(fraction(2f64.powi(-192), 3), [1, 0, 0]);
        assert_eq!(fraction(2f64.powi(-193), 3), [0, 0, 0]);
        assert_eq!(fraction(0.0, 2), [0, 0]);
    }

    #[test]
    fn truncated_multiply_stays_within_its_bound() {
        // Dense operands: the skipped columns are as large as they get.
        let m = 6;
        let a: Vec<u64> = (0..m as u64).map(|i| u64::MAX - i).collect();
        let mut out = vec![0; m];
        mul(&mut out, &a, &a, m);
        let mut full = vec![0; 2 * m];
        limbs::mul_into(&mut full, &a, &a);
        // The exact product's top m limbs are the value in units; the
        // truncated one is low by less than m.
        let mut diff = full[m..].to_vec();
        limbs::sub_at(&mut diff, &out, 0);
        assert!(
            diff[1..].iter().all(|&l| l == 0) && diff[0] < m as u64,
            "{diff:?}"
        );
        // Leading zero limbs of `a` change nothing.
        let mut short = a.clone();
        short[m - 1] = 0;
        short[m - 2] = 0;
        let (mut skipped, mut all) = (vec![0; m], vec![0; m]);
        mul(&mut skipped, &short, &a, m - 2);
        mul(&mut all, &short, &a, m);
        assert_eq!(skipped, all);
    }

    #[test]
    fn short_division_floors() {
        let mut v = fraction(0.5, 4);
        div_word(&mut v, 3, 4);
        // ⌊2^255/3⌋ = 0x2AAA…A.
        let a = 0xAAAA_AAAA_AAAA_AAAA;
        assert_eq!(v, [a, a, a, a >> 2]);
        let mut w = vec![7, 0, 0];
        div_word(&mut w, 2, 1);
        assert_eq!(w, [3, 0, 0]);
    }

    #[test]
    fn series_match_libm() {
        for x in [0.3f64, -0.3, 1e-12, -0.7] {
            let b = BigFloat::from_f64(x);
            let s = |series| eval(series, &b, 320).to_f64();
            let close = |got: f64, want: f64| (got - want).abs() <= 4.0 * f64::EPSILON * want.abs();
            assert!(close(s(Series::Exp { halvings: 3 }), x.exp()));
            assert!(close(s(Series::Expm1) * x, x.exp_m1()));
            assert!(close(s(Series::Sin) * x, x.sin()));
            assert!(close(s(Series::Sinh) * x, x.sinh()));
            assert!(close(s(Series::Cos), x.cos()));
            assert!(close(s(Series::Atan) * x, x.atan()));
            assert!(close(s(Series::Atanh) * x, x.atanh()));
        }
    }
}
