//! Ulp-certificates for the tiered adaptive-precision analysis.
//!
//! The tiered analysis wants to run the cheap [`DoubleDouble`] shadow and
//! fall back to the expensive [`crate::BigFloat`] shadow only where the two
//! could *observably* differ. Every analysis observable funnels through two
//! decisions per computed shadow value: how it **rounds to a double**
//! (operand roundings and `to_f64` feed `bits_error`), and how it
//! **compares** against another shadow value (branch agreement,
//! compensation detection). This module maintains, per shadow value, a
//! conservative absolute error bound `E` with the invariant
//!
//! > |value(dd) − value(BigFloat shadow at the configured precision)| ≤ E,
//!
//! where `value(dd) = hi + lo` exactly. `E == 0` additionally asserts the
//! two shadows are *equal as reals*. [`propagate`] grows `E` across each
//! operation (returning `+∞` when no certificate applies — unsupported
//! operation, domain edge, special values), [`rounding_certified`] checks
//! that every real in `[dd − κE, dd + κE]` rounds to the same double `hi`
//! (κ = [`WIDENING`], the explicit widening margin), and
//! [`compare_certified`] checks that a comparison decision is forced. When
//! any certificate fails, the tiered driver re-runs that input on the
//! all-BigFloat shadow — so these bounds only need to be *sound*, never
//! tight.
//!
//! Soundness leans on two verified properties: BigFloat rounds to nearest
//! (ties to even) both per-operation and in `to_f64`, exactly like the
//! double-double invariant `hi = RN(hi + lo)`; and the double-double
//! elementary kernels in [`crate::dd_math`] are accurate to better than
//! [`TRANS_EPS`] inside the certificate domains.

use crate::dd::{two_sum, DoubleDouble};
use crate::real::RealOp;

type Dd = DoubleDouble;

/// Minimum BigFloat shadow precision for which the certificates are valid:
/// below this the "fits exactly in BigFloat" span check would be vacuous
/// and the dd kernels could out-resolve the reference they certify against.
pub const MIN_TIER_PRECISION: u32 = 212;

/// The explicit widening margin κ applied to `E` in the rounding and
/// comparison certificates (dd's ~106 bits under-measure near decision
/// boundaries; the margin absorbs the slack in every propagation bound).
pub const WIDENING: f64 = 4.0;

/// Relative error claim of the accurate [`crate::dd_math`] kernels inside
/// their certificate domains. Their tests pin each kernel, on single-double
/// and on wide operands, below 2^-102 (`exp`, `exp2`, `log`, `sin`, `cos`,
/// `atan`), 2^-101 (`expm1`, `tan`, `asin`, `acos`, `atan2`, `cbrt`) and
/// 2^-98 (`pow`), and `log1p`, which rounds `1 + a` before its `log`, below
/// 2^-92; the gap is additional margin.
pub const TRANS_EPS: f64 = 2.5849394142282115e-26; // 2^-85

/// Absolute floor added to every propagated bound; swallows subnormal
/// residuals the relative terms cannot see. Any value this close to the
/// subnormal range fails the rounding certificate anyway.
pub const TINY: f64 = 1e-320;

/// Relative error of one sloppy double-double hardware operation, with
/// margin (the kernels guarantee ~2^-105 of the largest participating
/// magnitude).
const DD_EPS: f64 = 7.888609052210118e-31; // 2^-100

/// Magnitude floor for the error-free-transform exactness arguments
/// (`two_prod` residuals must not underflow).
const EFT_FLOOR: f64 = 1e-280;

/// Precision-derived certificate parameters.
#[derive(Clone, Copy, Debug)]
pub struct CertParams {
    /// One BigFloat rounding, with margin: `2^-(prec − 6)`.
    round_eps: f64,
    /// `lo/hi` magnitude ratio below which an exact dd pair may still not
    /// fit in `prec` bits: `2^-(prec − 56)`.
    fits_eps: f64,
}

impl CertParams {
    /// Builds parameters for a BigFloat shadow of `prec` mantissa bits;
    /// `None` if the precision is too low for tiering to be sound.
    pub fn new(prec: u32) -> Option<CertParams> {
        if prec < MIN_TIER_PRECISION {
            return None;
        }
        Some(CertParams {
            round_eps: 2f64.powi(-((prec as i32) - 6)),
            fits_eps: 2f64.powi(-((prec as i32) - 56)),
        })
    }

    /// True if the exact real `hi + lo` is representable in the BigFloat
    /// precision (the two words span at most `prec` mantissa bits).
    fn fits_exactly(&self, v: &Dd) -> bool {
        v.lo() == 0.0 || v.lo().abs() >= v.hi().abs() * self.fits_eps
    }

    /// The bound for an exact dd result: zero if BigFloat holds it exactly,
    /// one BigFloat rounding otherwise.
    fn exact_or_round(&self, v: &Dd) -> f64 {
        if self.fits_exactly(v) {
            0.0
        } else {
            self.round_eps * v.hi().abs()
        }
    }
}

/// The certificate failure value.
const FAIL: f64 = f64::INFINITY;

#[inline]
fn pure(v: &Dd) -> bool {
    v.lo() == 0.0
}

/// A-posteriori proof that a dd addition was error-free: verifies
/// `a ± b − r == 0` *as reals* by folding all six components into a
/// `two_sum` expansion. Every grow and renormalization step is an error-free
/// transform (the expansion's exact sum never changes), so if every
/// component collapses to literal zero the identity holds exactly. A `false`
/// here is merely conservative — the caller falls back to the hardware
/// bound — but `true` is sound.
///
/// This is what keeps loop accumulators certified: `t = t + c` leaves `t`
/// with a nonzero `lo` word after a few iterations, which disqualifies the
/// single-double fast path, yet the sloppy dd add usually *is* exact there
/// (its only roundings are in the low-order `e + lo + lo` adds). Without
/// this check the accumulated `DD_EPS` slack makes any accumulator value
/// that lands on a rounding tie (e.g. `5 × 0.2 = 1 + 2⁻⁵⁴`) uncertifiable.
fn sum_is_exact(a: &Dd, b: &Dd, negate_b: bool, r: &Dd) -> bool {
    let sign = if negate_b { -1.0 } else { 1.0 };
    expansion_is_zero(&[
        a.hi(),
        a.lo(),
        sign * b.hi(),
        sign * b.lo(),
        -r.hi(),
        -r.lo(),
    ])
}

/// A-posteriori proof that a dd multiplication was error-free, for the
/// one-sided case: one operand is a single double `s` and both partial
/// products `w.hi · s`, `w.lo · s` are themselves exact (fma residual
/// zero) — e.g. scaling by a power of two, or by a small integer that
/// leaves mantissa headroom. The true product is then `p1 + p2` exactly,
/// and the expansion check verifies the dd result equals it. Overflow and
/// underflow make the fma residuals nonzero (or NaN), so they never pass.
fn prod_is_exact(a: &Dd, b: &Dd, r: &Dd) -> bool {
    let (w, s) = if pure(b) {
        (a, b.hi())
    } else if pure(a) {
        (b, a.hi())
    } else {
        return false;
    };
    let p1 = w.hi() * s;
    let p2 = w.lo() * s;
    if f64::mul_add(w.hi(), s, -p1) != 0.0 || f64::mul_add(w.lo(), s, -p2) != 0.0 {
        return false;
    }
    expansion_is_zero(&[p1, p2, -r.hi(), -r.lo()])
}

/// Error-free zero test for a sum of up to six doubles: folds the terms
/// into a `two_sum` expansion (each grow and renormalization step preserves
/// the exact total), then demands every component be literal zero. `true`
/// is sound — an all-zero expansion sums to exactly zero — while a `false`
/// is merely conservative. Non-finite terms yield NaN components and never
/// pass.
fn expansion_is_zero(terms: &[f64]) -> bool {
    debug_assert!(terms.len() <= 6);
    let mut exp = [0.0f64; 6];
    let len = terms.len();
    for (i, &t) in terms.iter().enumerate() {
        let mut q = t;
        for slot in exp.iter_mut().take(i) {
            let (s, e) = two_sum(q, *slot);
            *slot = e;
            q = s;
        }
        exp[i] = q;
    }
    // One bottom-up renormalization sweep concentrates any residue upward so
    // that an exactly-zero total reliably reads as all-zero components.
    for i in 0..len - 1 {
        let (s, e) = two_sum(exp[i + 1], exp[i]);
        exp[i + 1] = s;
        exp[i] = e;
    }
    exp[..len].iter().all(|&c| c == 0.0)
}

/// Propagates the absolute error bound across one shadow operation.
///
/// `args` pairs each double-double operand with its current bound;
/// `result` is the double-double the shadow computed for this operation.
/// Returns the bound for `result`, or `+∞` when no certificate applies.
pub fn propagate(op: RealOp, args: &[(&Dd, f64)], result: &Dd, params: &CertParams) -> f64 {
    // Uncertified inputs poison the output.
    if args.iter().any(|(_, e)| !e.is_finite()) {
        return FAIL;
    }
    if args.iter().any(|(a, _)| !a.hi().is_finite()) {
        // Double-double does not track IEEE special semantics (e.g. its
        // two_sum residual for inf + inf is inf - inf = NaN while BigFloat
        // keeps inf), so any special operand forfeits the certificate.
        return FAIL;
    }

    let e = propagate_finite(op, args, result, params);
    if e.is_nan() {
        return FAIL;
    }
    if !result.hi().is_finite() {
        // A non-finite result from finite operands (overflow, domain error)
        // is only certifiable where propagate_finite returned an exact
        // certified NaN; those paths return 0 before reaching here.
        if e == 0.0 {
            return 0.0;
        }
        return FAIL;
    }
    e
}

/// [`propagate`] for finite operands with finite bounds.
fn propagate_finite(op: RealOp, args: &[(&Dd, f64)], r: &Dd, p: &CertParams) -> f64 {
    use RealOp::*;
    let rh = r.hi().abs();
    let big_round = p.round_eps * rh;
    match (op, args) {
        (Neg | Fabs, [(_, ea)]) => *ea,
        (Add | Sub, [(a, ea), (b, eb)]) => {
            if *ea == 0.0 && *eb == 0.0 {
                // two_sum + quick_two_sum are error-free on single-double
                // operands; for wider operands the a-posteriori expansion
                // check proves exactness after the fact. Either way the dd
                // result IS the exact sum.
                if (pure(a) && pure(b)) || sum_is_exact(a, b, matches!(op, Sub), r) {
                    return p.exact_or_round(r);
                }
            }
            ea + eb + DD_EPS * a.hi().abs().max(b.hi().abs()).max(rh) + big_round + TINY
        }
        (Mul, [(a, ea), (b, eb)]) => {
            if *ea == 0.0 && *eb == 0.0 {
                // two_prod is exact while its residual stays normal; wider
                // operands can still be proven exact a posteriori (scaling).
                if pure(a) && pure(b) && (rh >= EFT_FLOOR || r.hi() == 0.0) {
                    return p.exact_or_round(r);
                }
                if prod_is_exact(a, b, r) {
                    return p.exact_or_round(r);
                }
            }
            ea * (b.hi().abs() + eb) + eb * a.hi().abs() + DD_EPS * rh + big_round + TINY
        }
        (Div, [(a, ea), (b, eb)]) => {
            let bh = b.hi().abs();
            if *eb != 0.0 && *eb >= bh * 0.25 {
                return FAIL; // denominator interval reaches zero
            }
            if b.is_zero() {
                return FAIL; // division by exact zero: special results
            }
            if *ea == 0.0
                && *eb == 0.0
                && pure(a)
                && pure(b)
                && pure(r)
                && rh >= EFT_FLOOR
                && f64::mul_add(r.hi(), b.hi(), -a.hi()) == 0.0
            {
                return 0.0; // exact quotient, single double, fits
            }
            // Divide before multiplying: eb·rh can underflow to zero for
            // tiny operands while eb·rh/bh is still large.
            (ea / bh + eb / bh * rh) * 2.0 + DD_EPS * rh + big_round + TINY
        }
        (Sqrt, [(a, ea)]) => {
            if a.is_zero() && *ea == 0.0 {
                return 0.0; // ±0 → ±0 exactly on both shadows
            }
            if a.hi() < 0.0 {
                // Interval strictly negative: NaN on both shadows.
                return if *ea < -a.hi() * 0.25 { 0.0 } else { FAIL };
            }
            if *ea >= a.hi() * 0.25 {
                return FAIL; // straddles zero
            }
            if *ea == 0.0
                && pure(a)
                && pure(r)
                && rh >= EFT_FLOOR
                && f64::mul_add(r.hi(), r.hi(), -a.hi()) == 0.0
            {
                return 0.0; // exact square root
            }
            ea / rh.max(TINY) + DD_EPS * rh + big_round + TINY
        }
        (Fma, [(a, ea), (b, eb), (_c, ec)]) => {
            ea * (b.hi().abs() + eb)
                + eb * a.hi().abs()
                + ec
                + DD_EPS * ((a.hi() * b.hi()).abs() + rh)
                + big_round
                + TINY
        }
        (Exp, [(a, ea)]) => {
            if a.hi().abs() > 650.0 || *ea > 9.765625e-4 {
                return FAIL;
            }
            rh * (2.0 * ea + TRANS_EPS) + big_round + TINY
        }
        (Exp2, [(a, ea)]) => {
            if a.hi().abs() > 900.0 || *ea > 9.765625e-4 {
                return FAIL;
            }
            rh * (2.0 * ea + TRANS_EPS) + big_round + TINY
        }
        (Expm1, [(a, ea)]) => {
            if a.hi() > 650.0 || *ea > 9.765625e-4 {
                return FAIL;
            }
            2.0 * ea * (rh + 1.0) + TRANS_EPS * (rh + 1.0) + big_round + TINY
        }
        (Log | Log2 | Log10, [(a, ea)]) => {
            if a.hi() < 0.0 {
                // Interval strictly negative: NaN on both shadows.
                return if *ea < -a.hi() * 0.25 { 0.0 } else { FAIL };
            }
            if a.hi() == 0.0 || *ea >= a.hi() * 0.25 {
                return FAIL;
            }
            3.0 * ea / a.hi() + 2.0 * TRANS_EPS * (rh + 1.0) + big_round + TINY
        }
        (Log1p, [(a, ea)]) => {
            let one_plus = 1.0 + a.hi();
            if one_plus <= 0.001 || *ea >= one_plus * 0.25 {
                return FAIL;
            }
            3.0 * ea / one_plus + 2.0 * TRANS_EPS * (rh + 1.0) + big_round + TINY
        }
        (Pow, [(a, ea), (b, eb)]) => {
            // Operands are finite here (propagate screens specials), so
            // `<= 0` is exactly "not strictly positive".
            if a.hi() <= 0.0 || *ea >= a.hi() * 0.25 {
                return FAIL;
            }
            let ln_a = a.hi().ln();
            let t = b.hi() * ln_a;
            if !t.is_finite() || t.abs() > 650.0 || *eb > 9.765625e-4 * (ln_a.abs() + 1.0).recip() {
                return FAIL;
            }
            // ea/a first: |b|·ea underflows for tiny operands.
            let rel_a = 2.0 * b.hi().abs() * (ea / a.hi());
            if rel_a > 9.765625e-4 {
                return FAIL;
            }
            rh * (rel_a + 2.0 * eb * (ln_a.abs() + 1.0) + TRANS_EPS) + big_round + TINY
        }
        (Sin | Cos, [(a, ea)]) => {
            if a.hi().abs() > 1.073741824e9 || *ea > 0.1 {
                return FAIL;
            }
            ea + TRANS_EPS + a.hi().abs() * 2f64.powi(-95) + p.round_eps + TINY
        }
        (Tan, [(a, ea)]) => {
            if a.hi().abs() > 1.073741824e9 || *ea > 0.1 {
                return FAIL;
            }
            let slope = 1.0 + r.hi() * r.hi();
            (ea + TRANS_EPS + a.hi().abs() * 2f64.powi(-95)) * slope * 2.0
                + TRANS_EPS * (rh + 1.0)
                + big_round
                + TINY
        }
        (Asin | Acos, [(a, ea)]) => {
            if a.hi().abs() > 0.999 || *ea > 2.44140625e-4 {
                return FAIL;
            }
            2.0 * ea / (1.0 - a.hi() * a.hi()).sqrt() + 2.0 * TRANS_EPS + 4.0 * p.round_eps + TINY
        }
        (Atan, [(_a, ea)]) => ea + TRANS_EPS * (rh + 1.0) + big_round + TINY,
        (Atan2, [(y, ey), (x, ex)]) => {
            let (xh, yh) = (x.hi(), y.hi());
            if xh <= 0.0 || *ex >= xh * 0.25 {
                return FAIL; // certified only in the right half-plane
            }
            if !(1e-150..1e150).contains(&xh) || yh.abs() > 1e150 {
                return FAIL;
            }
            // Each term's quotient first: ey·xh underflows for tiny operands.
            let den = xh * xh + yh * yh;
            2.0 * (ey * (xh / den) + ex * (yh.abs() / den))
                + 2.0 * TRANS_EPS
                + 4.0 * p.round_eps
                + TINY
        }
        (Cbrt, [(a, ea)]) => {
            if a.is_zero() && *ea == 0.0 {
                return 0.0;
            }
            if *ea >= a.hi().abs() * 0.25 {
                return FAIL;
            }
            // ea/|a| first: ea·rh underflows for tiny operands.
            ea / a.hi().abs() * rh + TRANS_EPS * rh + big_round + TINY
        }
        // Hyperbolics, hypot, fmin/fmax, fdim, fmod, the rounding family,
        // copysign: no accurate dd kernel — never certified.
        _ => FAIL,
    }
}

/// Half the distance from `x` to its nearest double neighbor (the rounding
/// decision radius). Zero at the edges of the finite range, which makes the
/// certificate fail there — intended.
fn half_gap(x: f64) -> f64 {
    let up = next_after_up(x) - x;
    let down = x - next_after_down(x);
    up.min(down) * 0.5
}

fn next_after_up(x: f64) -> f64 {
    let bits = x.to_bits();
    if x.is_sign_negative() {
        if x == 0.0 {
            return f64::from_bits(1); // -0 → smallest positive subnormal
        }
        f64::from_bits(bits - 1)
    } else {
        f64::from_bits(bits + 1)
    }
}

fn next_after_down(x: f64) -> f64 {
    let bits = x.to_bits();
    if x.is_sign_negative() {
        f64::from_bits(bits + 1)
    } else {
        if x == 0.0 {
            return -f64::from_bits(1);
        }
        f64::from_bits(bits - 1)
    }
}

/// True if every real within `WIDENING · e` of the double-double value is
/// guaranteed to round (nearest-even) to the same double the BigFloat
/// shadow would produce — i.e. the `to_f64` observable is certified.
pub fn rounding_certified(v: &Dd, e: f64) -> bool {
    if e == 0.0 {
        // Exact: both shadows hold the same real, both round nearest-even.
        return true;
    }
    if !e.is_finite() || !v.hi().is_finite() {
        return false;
    }
    v.lo().abs() + WIDENING * e + TINY < half_gap(v.hi())
}

/// True if the ordering decision between two bounded shadow values is
/// forced: either both are exact (dd's normalized lexicographic comparison
/// then equals BigFloat's real comparison, NaN included), or the two
/// widened intervals are strictly disjoint (so the strict ordering of the
/// `hi` words is the ordering of both shadows).
pub fn compare_certified(a: &Dd, ea: f64, b: &Dd, eb: f64) -> bool {
    if ea == 0.0 && eb == 0.0 {
        return true;
    }
    if !ea.is_finite() || !eb.is_finite() || a.is_nan() || b.is_nan() {
        return false;
    }
    let diff = (a.hi() - b.hi()).abs();
    diff > WIDENING * (ea + eb) + 2f64.powi(-50) * (a.hi().abs() + b.hi().abs()) + TINY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BigFloat, Real};

    fn params() -> CertParams {
        CertParams::new(256).unwrap()
    }

    fn dd(x: f64) -> Dd {
        Dd::from_f64(x)
    }

    /// Applies one op on dd and Big in lockstep and checks the propagated
    /// bound actually covers the observed deviation (with a margin).
    fn check_bound(op: RealOp, args: &[f64]) -> f64 {
        check_bound_dd(op, &args.iter().map(|&a| dd(a)).collect::<Vec<_>>())
    }

    /// [`check_bound`] on double-double operands, which the BigFloat side
    /// holds exactly as `hi + lo`.
    fn check_bound_dd(op: RealOp, dd_args: &[Dd]) -> f64 {
        let p = params();
        let big_args: Vec<BigFloat> = dd_args
            .iter()
            .map(|a| BigFloat::from_f64(a.hi()).add(&BigFloat::from_f64(a.lo())))
            .collect();
        let r = Dd::apply(op, dd_args);
        let b = BigFloat::apply(op, &big_args);
        let pairs: Vec<(&Dd, f64)> = dd_args.iter().map(|a| (a, 0.0)).collect();
        let e = propagate(op, &pairs, &r, &p);
        if e.is_finite() && !r.is_nan() {
            let got = BigFloat::from_f64(r.hi()).add(&BigFloat::from_f64(r.lo()));
            let dev = got.sub(&b).abs().to_f64();
            assert!(
                dev <= e,
                "{op} on {dd_args:?}: observed |dd - big| = {dev:e} > bound {e:e}"
            );
        }
        e
    }

    #[test]
    fn precision_gate() {
        assert!(CertParams::new(53).is_none());
        assert!(CertParams::new(211).is_none());
        assert!(CertParams::new(212).is_some());
        assert!(CertParams::new(256).is_some());
    }

    #[test]
    fn integer_arithmetic_stays_exact() {
        let p = params();
        // i + 1 on a loop counter: exact, certified, and comparable.
        let i = dd(41.0);
        let one = Dd::ONE;
        let r = i.add(&one);
        let e = propagate(RealOp::Add, &[(&i, 0.0), (&one, 0.0)], &r, &p);
        assert_eq!(e, 0.0);
        assert!(rounding_certified(&r, e));
        assert!(compare_certified(&r, e, &dd(100.0), 0.0));
    }

    #[test]
    fn accumulator_adds_stay_exact_through_a_rounding_tie() {
        // t = t + 0.2 five times lands exactly on 1 + 2⁻⁵⁴ — the rounding
        // tie of 1.0. The accumulator's nonzero lo word disqualifies the
        // single-double fast path, but the a-posteriori expansion check must
        // keep E = 0 so the tie stays certified (both shadows hold the same
        // real and round it nearest-even identically).
        let p = params();
        let step = dd(0.2);
        let mut t = Dd::ZERO;
        let mut e = 0.0;
        for _ in 0..5 {
            let r = t.add(&step);
            e = propagate(RealOp::Add, &[(&t, e), (&step, 0.0)], &r, &p);
            assert_eq!(e, 0.0, "accumulator add must certify as exact");
            t = r;
        }
        assert_eq!(t.hi(), 1.0);
        assert_eq!(t.lo(), 2f64.powi(-54));
        assert!(rounding_certified(&t, e));
    }

    #[test]
    fn scaling_a_wide_value_stays_exact() {
        // Newton iterations halve a wide accumulator: 0.5 · x is an exact
        // scaling even when x carries a nonzero lo word, and must keep
        // E = 0 (the pure×pure fast path does not apply).
        let p = params();
        let x = Dd::from_parts(2.997724956857091, 2.220446049250313e-16);
        let half = dd(0.5);
        let r = half.mul(&x);
        let e = propagate(RealOp::Mul, &[(&half, 0.0), (&x, 0.0)], &r, &p);
        assert_eq!(e, 0.0, "power-of-two scaling must certify as exact");
        assert!(rounding_certified(&r, e));
        // A wide × wide product is not covered: hardware bound.
        let e2 = propagate(RealOp::Mul, &[(&x, 0.0), (&x, 0.0)], &x.mul(&x), &p);
        assert!(e2 > 0.0 && e2.is_finite());
    }

    #[test]
    fn inexact_wide_adds_fall_back_to_the_hardware_bound() {
        // The low-order add `e + a.lo` inside dd's sloppy addition rounds
        // here: 3·2⁻⁵⁵ + (2⁻⁵⁴ + 2⁻¹⁰⁶) spans 54 significand bits with the
        // trailing bit exactly at the rounding tie, so the dd result drops
        // 2⁻¹⁰⁶ and the expansion check must say "inexact" (its error-free
        // sweeps make a false "exact" impossible: all-zero components imply
        // a zero residual).
        let p = params();
        let a = Dd::from_parts(1.0, 2f64.powi(-54) + 2f64.powi(-106));
        let b = dd(3.0 * 2f64.powi(-55));
        let r = a.add(&b);
        assert!(!super::sum_is_exact(&a, &b, false, &r));
        let e = propagate(RealOp::Add, &[(&a, 0.0), (&b, 0.0)], &r, &p);
        assert!(e > 0.0 && e.is_finite(), "e = {e:e}");
    }

    #[test]
    fn exact_sum_that_exceeds_big_precision_gets_rounding_bound() {
        let p = params();
        let a = dd(2f64.powi(300));
        let b = dd(2f64.powi(-300));
        let r = a.add(&b); // exact in dd (600-bit span), not in 256-bit Big
        let e = propagate(RealOp::Add, &[(&a, 0.0), (&b, 0.0)], &r, &p);
        assert!(e > 0.0 && e.is_finite(), "e = {e:e}");
        // Still certifies the rounding: the deviation is far below half an
        // ulp of 2^300.
        assert!(rounding_certified(&r, e));
    }

    #[test]
    fn hardware_bounds_cover_observed_deviation() {
        for op in [RealOp::Add, RealOp::Sub, RealOp::Mul, RealOp::Div] {
            for args in [[0.1, 0.3], [1e16, -1.0], [2.5, 3.0], [1.0, 3.0]] {
                check_bound(op, &args);
            }
        }
        check_bound(RealOp::Sqrt, &[2.0]);
        check_bound(RealOp::Sqrt, &[0.1]);
        check_bound(RealOp::Fma, &[0.1, 0.3, -0.02]);
    }

    #[test]
    fn library_bounds_cover_observed_deviation() {
        // Seeded points across each kernel's certificate domain, on
        // single-double operands and on wide ones (a nonzero low word): the
        // bound must certify every point and cover its deviation.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        type Domain = fn(f64, f64) -> (f64, f64);
        let log_domain: Domain = |a, _| (10f64.powf(600.0 * a - 300.0), 0.0);
        let cases: [(RealOp, Domain); 22] = [
            (RealOp::Exp, |a, _| (1300.0 * a - 650.0, 0.0)),
            (RealOp::Exp, |a, _| (4.0 * a - 2.0, 0.0)),
            (RealOp::Exp2, |a, _| (80.0 * a - 40.0, 0.0)),
            (RealOp::Expm1, |a, _| (a - 0.5, 0.0)),
            (RealOp::Expm1, |a, _| (100.0 * a - 50.0, 0.0)),
            (RealOp::Log, log_domain),
            (RealOp::Log, |a, _| (0.5 + a, 0.0)),
            (RealOp::Log2, log_domain),
            (RealOp::Log10, log_domain),
            (RealOp::Log1p, |a, _| (a - 0.5, 0.0)),
            (RealOp::Log1p, |a, _| (10f64.powf(20.0 * a - 10.0), 0.0)),
            (RealOp::Sin, |a, _| (200.0 * a - 100.0, 0.0)),
            (RealOp::Cos, |a, _| (200.0 * a - 100.0, 0.0)),
            (RealOp::Tan, |a, _| (3.0 * a - 1.5, 0.0)),
            (RealOp::Atan, |a, _| (10f64.powf(20.0 * a - 10.0), 0.0)),
            (RealOp::Atan, |a, _| (4.0 * a - 2.0, 0.0)),
            (RealOp::Asin, |a, _| (1.998 * a - 0.999, 0.0)),
            (RealOp::Acos, |a, _| (1.998 * a - 0.999, 0.0)),
            (RealOp::Atan2, |a, b| (10.0 * b - 5.0, 0.01 + 10.0 * a)),
            (RealOp::Cbrt, log_domain),
            (RealOp::Pow, |a, b| (0.1 + 10.0 * a, 20.0 * b - 10.0)),
            (RealOp::Pow, |a, b| (0.5 + a, 1000.0 * b - 500.0)),
        ];
        let wide = |x: f64, u: f64| Dd::from_parts(x, x * 2f64.powi(-54) * (u - 0.5));
        for (op, domain) in cases {
            for _ in 0..100 {
                let (x, y) = domain(next(), next());
                let (u, v) = (next(), next());
                for args in [[dd(x), dd(y)], [wide(x, u), wide(y, v)]] {
                    let args = &args[..op.arity()];
                    let e = check_bound_dd(op, args);
                    assert!(e.is_finite(), "{op}{args:?} unexpectedly failed");
                }
            }
        }
    }

    #[test]
    fn tiny_operands_keep_their_propagated_bounds() {
        // Each operand carries a bound whose product with a tiny result
        // underflows, so a bound computed as that product over the operand
        // collapses to the absolute floor while the BigFloat shadow (which
        // may hold any real within the bound) still deviates by far more.
        let p = params();
        let a = 1e-300;
        let cases: [(RealOp, [f64; 2], [f64; 2]); 4] = [
            (RealOp::Cbrt, [a, 0.0], [2f64.powi(-53) * a, 0.0]),
            (RealOp::Div, [1e-309, 1e-6], [0.0, 1e-21]),
            (RealOp::Pow, [a, 1e-9], [2f64.powi(-53) * a, 0.0]),
            (RealOp::Atan2, [1e-158, 1e-150], [2e-174, 0.0]),
        ];
        for (op, args, bounds) in cases {
            let n = op.arity();
            let dd_args: Vec<Dd> = args[..n].iter().map(|&x| dd(x)).collect();
            let r = Dd::apply(op, &dd_args);
            let pairs: Vec<(&Dd, f64)> = dd_args.iter().zip(bounds).collect();
            let e = propagate(op, &pairs, &r, &p);
            assert!(e.is_finite(), "{op}: no certificate");
            let perturbed: Vec<BigFloat> = args[..n]
                .iter()
                .zip(bounds)
                .map(|(&x, b)| BigFloat::from_f64(x).add(&BigFloat::from_f64(b)))
                .collect();
            let big = BigFloat::apply(op, &perturbed);
            let got = BigFloat::from_f64(r.hi()).add(&BigFloat::from_f64(r.lo()));
            let dev = got.sub(&big).abs().to_f64();
            assert!(dev <= e, "{op}{args:?}: |dd − big| = {dev:e} > bound {e:e}");
        }
    }

    #[test]
    fn unsupported_and_out_of_domain_operations_fail() {
        let p = params();
        let x = dd(0.5);
        for op in [
            RealOp::Sinh,
            RealOp::Tanh,
            RealOp::Floor,
            RealOp::Round,
            RealOp::Fmod,
        ] {
            let args: Vec<(&Dd, f64)> = (0..op.arity()).map(|_| (&x, 0.0)).collect();
            let r = Dd::apply(op, &vec![x; op.arity()]);
            assert_eq!(propagate(op, &args, &r, &p), FAIL, "{op}");
        }
        // Trig far outside the reduction range.
        let huge = dd(1e12);
        let r = crate::dd_math::sin(&huge);
        assert_eq!(propagate(RealOp::Sin, &[(&huge, 0.0)], &r, &p), FAIL);
        // Interval straddling a domain edge.
        let near_zero = dd(1e-10);
        let r = crate::dd_math::log(&near_zero);
        assert_eq!(propagate(RealOp::Log, &[(&near_zero, 1e-10)], &r, &p), FAIL);
    }

    #[test]
    fn certified_domain_violation_nans() {
        let p = params();
        let neg = dd(-4.0);
        let r = neg.sqrt();
        assert!(r.is_nan());
        assert_eq!(propagate(RealOp::Sqrt, &[(&neg, 1e-10)], &r, &p), 0.0);
        let r = crate::dd_math::log(&neg);
        assert!(r.is_nan());
        assert_eq!(propagate(RealOp::Log, &[(&neg, 1e-10)], &r, &p), 0.0);
        // Both shadows produce NaN for these.
        assert!(BigFloat::from_f64(-4.0).sqrt().is_nan());
        assert!(BigFloat::from_f64(-4.0).ln().is_nan());
    }

    #[test]
    fn special_operands_always_fail() {
        // dd's two_sum residual for inf + inf is NaN while BigFloat keeps
        // inf — IEEE specials are not modeled, so they must never certify.
        let p = params();
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let s = dd(x);
            for op in [RealOp::Add, RealOp::Mul, RealOp::Neg, RealOp::Exp] {
                let args: Vec<Dd> = (0..op.arity())
                    .map(|i| if i == 0 { s } else { dd(1.0) })
                    .collect();
                let r = Dd::apply(op, &args);
                let pairs: Vec<(&Dd, f64)> = args.iter().map(|a| (a, 0.0)).collect();
                assert_eq!(propagate(op, &pairs, &r, &p), FAIL, "{op}({x})");
            }
        }
    }

    #[test]
    fn overflow_from_finite_operands_fails() {
        let p = params();
        let big = dd(1e308);
        let r = big.add(&big);
        assert!(!r.hi().is_finite());
        assert_eq!(
            propagate(RealOp::Add, &[(&big, 1.0), (&big, 1.0)], &r, &p),
            FAIL
        );
        // Exact operands overflowing must fail too (BigFloat stays finite).
        let r2 = big.mul(&big);
        assert_eq!(
            propagate(RealOp::Mul, &[(&big, 0.0), (&big, 0.0)], &r2, &p),
            FAIL
        );
    }

    #[test]
    fn rounding_certificate_boundaries() {
        // A bound far smaller than the half-gap certifies.
        assert!(rounding_certified(&dd(1.0), 1e-30));
        // A bound near the half-ulp of 1.0 (~1.1e-16) must not certify.
        assert!(!rounding_certified(&dd(1.0), 1e-16));
        assert!(!rounding_certified(&dd(1.0), 3e-17)); // κ = 4 widening
                                                       // lo sitting near the rounding boundary eats the budget.
        let near_tie = Dd::from_parts(1.0, 1.1e-16 * 0.999);
        assert!(!rounding_certified(&near_tie, 1e-18));
        // Exact values always certify, even NaN / infinity.
        assert!(rounding_certified(&dd(f64::NAN), 0.0));
        assert!(rounding_certified(&dd(f64::INFINITY), 0.0));
        // Subnormal-range values fail any inexact certificate.
        assert!(!rounding_certified(&dd(1e-320), 1e-321));
        // An uncertified value stays uncertified.
        assert!(!rounding_certified(&dd(1.0), FAIL));
    }

    #[test]
    fn compare_certificate_boundaries() {
        // Exact pair: always certified, NaN included.
        assert!(compare_certified(&dd(1.0), 0.0, &dd(1.0), 0.0));
        assert!(compare_certified(&dd(f64::NAN), 0.0, &dd(1.0), 0.0));
        // Disjoint intervals certify; overlapping do not.
        assert!(compare_certified(&dd(1.0), 1e-3, &dd(2.0), 1e-3));
        assert!(!compare_certified(&dd(1.0), 0.3, &dd(2.0), 0.3));
        // NaN with a nonzero bound is unknown.
        assert!(!compare_certified(&dd(f64::NAN), 1e-30, &dd(1.0), 0.0));
        // Equal his with inexact bounds cannot be ordered.
        assert!(!compare_certified(&dd(1.0), 1e-30, &dd(1.0), 1e-30));
    }

    #[test]
    fn transcendental_chain_certifies_realistic_values() {
        // sqrt(x+1) - sqrt(x): the standard cancellation example, one input.
        let p = params();
        let x = dd(1e10);
        let xp1 = x.add(&Dd::ONE);
        let e1 = propagate(RealOp::Add, &[(&x, 0.0), (&Dd::ONE, 0.0)], &xp1, &p);
        let s1 = xp1.sqrt();
        let e2 = propagate(RealOp::Sqrt, &[(&xp1, e1)], &s1, &p);
        let s0 = x.sqrt();
        let e3 = propagate(RealOp::Sqrt, &[(&x, 0.0)], &s0, &p);
        let d = s1.sub(&s0);
        let e4 = propagate(RealOp::Sub, &[(&s1, e2), (&s0, e3)], &d, &p);
        assert!(e4.is_finite());
        // The difference ~5e-6 carries ~1e-21 of bound: certifiable.
        assert!(rounding_certified(&d, e4), "e4 = {e4:e}");
        // And a transcendental on top stays certified.
        let l = crate::dd_math::log(&d);
        let e5 = propagate(RealOp::Log, &[(&d, e4)], &l, &p);
        assert!(rounding_certified(&l, e5), "e5 = {e5:e}");
    }
}
