//! Double-double elementary functions.
//!
//! The [`DoubleDouble`] shadow originally evaluated library calls by rounding
//! its operands to `f64` and calling libm (~53 accurate bits). That is far
//! too coarse for the tiered analysis, whose ulp-certificates must prove
//! that a double-double result rounds to the *same* double as the 256-bit
//! [`crate::BigFloat`] result. This module provides double-double-accurate
//! kernels (relative error within a few units of `2^-106` inside the
//! certificate domains; the unit tests pin each kernel's bound) for the
//! transcendental operations the certificates cover.
//!
//! The kernels are table-driven in the style of Tang (ACM TOMS 15(2), 1989)
//! and follow the QD recipes of Hida, Li and Bailey (ARITH 2001):
//!
//! - `exp` and `exp2` reduce to `2^(k/64) · e^r`, `|r| ≤ ln2/128`, with a
//!   Cody–Waite split of `ln2/64` and a 64-entry `2^(j/64)` table;
//! - `log` reduces to `e·ln2 + ln c + 2·atanh((m − c)/(m + c))` around the
//!   nearest `c = j/128`, with a table of `ln c`;
//! - `sin` and `cos` reduce by chunks of `π/2` and sum only the one series
//!   the quadrant needs.
//!
//! Every series is a Horner evaluation over reciprocal constants (`1/n!`,
//! `1/(2n + 1)`), double-double for the leading terms and plain doubles for
//! the terms below `2^-53` of the sum; no series divides. The tables and
//! constants are derived once from the `BigFloat` oracle at 400 bits, each
//! entry the nearest-double split of its value.
//!
//! Operations without an accurate kernel here (`fmod`, the rounding family,
//! hyperbolics, …) keep the historical libm-on-`hi` fallback; the tiered
//! certificates simply refuse to certify them, so inputs that reach them
//! escalate to the `BigFloat` shadow.
//!
//! Every kernel is a pure scalar function; the lane-vectorized
//! [`crate::dd_batch`] fallback calls the same kernel per lane, so scalar
//! and batched evaluation stay bit-identical by construction.

use crate::dd::{quick_two_sum, two_prod, two_sum, DoubleDouble};
use crate::real::{apply_f64, RealOp};
use crate::BigFloat;
use std::sync::OnceLock;

type Dd = DoubleDouble;

/// π as a double-double (QD's `_pi`: the rounded double plus its
/// correction word; validated against `BigFloat` in tests).
pub const PI: Dd = Dd::const_parts(std::f64::consts::PI, 1.2246467991473532e-16);
/// π/2 as a double-double.
pub const FRAC_PI_2: Dd = Dd::const_parts(std::f64::consts::FRAC_PI_2, 6.123233995736766e-17);
/// ln 2 as a double-double.
pub const LN_2: Dd = Dd::const_parts(std::f64::consts::LN_2, 2.3190468138462996e-17);
/// ln 10 as a double-double.
pub const LN_10: Dd = Dd::const_parts(std::f64::consts::LN_10, -2.1707562233822494e-16);

/// Precision of the `BigFloat` evaluations the tables are derived from.
const ORACLE_BITS: u32 = 400;

/// Exact scaling by a power of two (no rounding while both components stay
/// in range, which the kernels' domain guards ensure).
#[inline]
fn mul_pwr2(a: &Dd, p: f64) -> Dd {
    Dd::raw(a.hi() * p, a.lo() * p)
}

/// `2^m` for `m ∈ [−1022, 1023]`, assembled from its exponent bits.
#[inline]
fn pow2(m: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&m));
    f64::from_bits(((m + 1023) as u64) << 52)
}

#[inline]
fn dd(x: f64) -> Dd {
    Dd::from_f64(x)
}

/// Knuth-style accurate double-double addition. Unlike [`DoubleDouble::add`]
/// (the fast "sloppy" kernel used by the shadow arithmetic itself), its
/// error stays a couple of ulps *of the result* even under catastrophic
/// cancellation — which the trig argument reduction relies on.
fn add_accurate(a: &Dd, b: &Dd) -> Dd {
    let (s1, e1) = two_sum(a.hi(), b.hi());
    let (s2, e2) = two_sum(a.lo(), b.lo());
    let (s1, e1) = quick_two_sum(s1, e1 + s2);
    let (hi, lo) = quick_two_sum(s1, e1 + e2);
    Dd::raw(hi, lo)
}

/// Runs a one-time `BigFloat` derivation without recording telemetry: the
/// first kernel call may land inside any sweep's capture, and the oracle's
/// own operations are not that sweep's work.
fn derive<T>(work: impl FnOnce() -> T) -> T {
    telemetry::shard(false, work).0
}

/// The nearest-double split `(hi, lo)` of `v`: `hi = RN(v)`,
/// `lo = RN(v − hi)`.
fn split(v: &BigFloat) -> Dd {
    let hi = v.to_f64();
    Dd::raw(hi, v.sub(&BigFloat::from_f64(hi)).to_f64())
}

/// `x` with its significand cut to its leading 36 bits, so that a product
/// with any integer below `2^17` is exact.
fn leading_36_bits(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & !((1u64 << 17) - 1))
}

/// The first `j` of the `ln(j/128)` table: `m ∈ [√½, √2)` rounds to
/// `j = round(128·m) ∈ [91, 181]`.
const LN_FIRST: usize = 91;
/// Entries of the `ln(j/128)` table.
const LN_ENTRIES: usize = 181 - LN_FIRST + 1;

/// The reduction tables and series coefficients, each entry the
/// nearest-double split of its [`ORACLE_BITS`]-bit value.
struct Tables {
    /// `2^(j/64)`, `j = 0..64`.
    exp2_64: [Dd; 64],
    /// `ln(j/128)`, `j = LN_FIRST..LN_FIRST + LN_ENTRIES`.
    ln_128: [Dd; LN_ENTRIES],
    /// `1/n!`, `n = 0..=28`.
    inv_fact: [Dd; 29],
    /// `1/(2n + 1)`, `n = 0..=8`.
    inv_odd: [Dd; 9],
    /// `ln2/64 = c1 + c2 + c3` (Cody–Waite): `c1` and `c2` keep 36
    /// significant bits, so `k·c1` and `k·c2` are exact for `|k| < 2^17`;
    /// `c3` is the nearest double to the rest.
    ln2_64: [f64; 3],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        derive(|| {
            let big = |x: f64| BigFloat::from_f64_prec(x, ORACLE_BITS);
            let one = big(1.0);
            let mut fact = big(1.0);
            let inv_fact = std::array::from_fn(|n| {
                if n > 0 {
                    fact = fact.mul(&big(n as f64));
                }
                split(&one.div(&fact))
            });
            let ln2_64 = big(2.0).ln().mul(&big(1.0 / 64.0));
            let c1 = leading_36_bits(ln2_64.to_f64());
            let rest = ln2_64.sub(&big(c1));
            let c2 = leading_36_bits(rest.to_f64());
            let c3 = rest.sub(&big(c2)).to_f64();
            Tables {
                exp2_64: std::array::from_fn(|j| split(&big(j as f64 / 64.0).exp2())),
                ln_128: std::array::from_fn(|i| split(&big((LN_FIRST + i) as f64 / 128.0).ln())),
                inv_fact,
                inv_odd: std::array::from_fn(|n| split(&one.div(&big((2 * n + 1) as f64)))),
                ln2_64: [c1, c2, c3],
            }
        })
    })
}

/// π/2 as five non-overlapping doubles (successive nearest-double roundings
/// of the 384-bit value, ~265 significant bits in total). The trig argument
/// reduction subtracts `k · chunk` products, each exact as a double-double
/// via `two_prod`, so the reduced argument keeps double-double accuracy for
/// quotients as large as the reduction limit allows.
fn pi_2_chunks() -> &'static [f64; 5] {
    static CHUNKS: OnceLock<[f64; 5]> = OnceLock::new();
    CHUNKS.get_or_init(|| {
        derive(|| {
            // π/2 = 2·atan(1), derived from the BigFloat oracle rather than
            // hand-transcribed digits.
            let mut v = BigFloat::from_f64_prec(1.0, 384)
                .atan()
                .mul(&BigFloat::from_f64_prec(2.0, 384));
            std::array::from_fn(|_| {
                let c = v.to_f64();
                v = v.sub(&BigFloat::from_f64(c));
                c
            })
        })
    })
}

/// `Σ_{n < len} (±1)^n · c(n) · u^n` by Horner's rule, with `−` on the odd
/// terms when `alternate`. The terms from `split` on, each below `2^-53` of
/// the sum, run in plain doubles on `u.hi()`; the leading ones run in
/// double-double on the full `u`.
#[inline]
fn series(u: &Dd, c: impl Fn(usize) -> Dd, alternate: bool, split: usize, len: usize) -> Dd {
    let term = |n: usize| {
        if alternate && n % 2 == 1 {
            c(n).neg()
        } else {
            c(n)
        }
    };
    let mut tail = 0.0;
    for n in (split..len).rev() {
        tail = tail * u.hi() + term(n).hi();
    }
    let mut sum = dd(tail);
    for n in (0..split).rev() {
        sum = sum.mul(u).add(&term(n));
    }
    sum
}

/// `2^(k/64) · e^r` for `|r| ≤ ln2/128 (1 + 2^-30)` and `k/64` inside the
/// normal exponent range: `T[k mod 64] · (1 + expm1(r))` scaled by
/// `2^⌊k/64⌋`.
fn exp_core(k: i32, r: &Dd) -> Dd {
    let t = tables();
    // expm1(r) = r·Σ r^n/(n+1)!: the terms from r⁶/6! on are below 2^-54.
    let expm1 = r.mul(&series(r, |n| t.inv_fact[n + 1], false, 5, 11));
    let table = &t.exp2_64[(k & 63) as usize];
    let result = table.add(&table.mul(&expm1));
    mul_pwr2(&result, pow2(k >> 6))
}

/// `exp`, accurate to a few units of `2^-106` for `hi ∈ [−708, 709]`; libm
/// fallback outside (overflow, deep underflow, non-finite). Below ~`−670`
/// the scaled low word goes subnormal and accuracy degrades gradually toward
/// plain double; the certificate domain stops well above that.
pub fn exp(a: &Dd) -> Dd {
    const INV_LN2_64: f64 = 64.0 / std::f64::consts::LN_2;
    let x = a.hi();
    if !x.is_finite() || !(-708.0..=709.0).contains(&x) {
        return dd(x.exp());
    }
    // r = a − k·ln2/64 with |k| < 2^17: k·c1 and k·c2 are exact, and
    // x − k·c1 is exact because it cancels (Sterbenz).
    let k = (x * INV_LN2_64).round();
    let [c1, c2, c3] = tables().ln2_64;
    let (s, e) = two_sum(x - k * c1, -k * c2);
    let (p, pe) = two_prod(-k, c3);
    let r = Dd::raw(s, e).add(&dd(a.lo())).add(&Dd::raw(p, pe));
    exp_core(k as i32, &r)
}

/// `exp2`, on the same core as [`exp`]; exact on integer arguments, whose
/// reduced argument is exactly zero.
pub fn exp2(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || !(-1021.0..=1022.0).contains(&x) {
        return dd(x.exp2());
    }
    // a = k/64 + (x − k/64) + lo, where x − k/64 is exact.
    let k = (x * 64.0).round();
    let (s, e) = two_sum(x - k / 64.0, a.lo());
    exp_core(k as i32, &Dd::raw(s, e).mul(&LN_2))
}

/// `expm1`, cancellation-free for small arguments.
pub fn expm1(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x > 700.0 {
        return dd(x.exp_m1());
    }
    if a.is_zero() {
        // Preserve the sign of zero like libm.
        return Dd::raw(x, 0.0);
    }
    if x.abs() > 0.34 {
        // No cancellation once |e^x − 1| is comparable to max(e^x, 1).
        return exp(a).sub(&Dd::ONE);
    }
    // a·Σ a^n/(n+1)!: the terms from a¹³/14! on are below 2^-56 of the sum.
    let t = tables();
    a.mul(&series(a, |n| t.inv_fact[n + 1], false, 13, 23))
}

/// `2·atanh(t) = ln((1 + t)/(1 − t))` for `|t| ≤ 2^-8.5`: the terms from
/// `t⁷/7` on are below `2^-53` of the sum.
fn atanh_twice(t: &Dd) -> Dd {
    let odd = &tables().inv_odd;
    mul_pwr2(&t.mul(&series(&t.mul(t), |n| odd[n], false, 3, 7)), 2.0)
}

/// `ln`, as `e·ln2 + ln c + 2·atanh((m − c)/(m + c))` for `a = 2^e·m`,
/// `m ∈ [√½, √2)`, and `c = j/128` the nearest table point to `m`.
pub fn log(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x <= 0.0 {
        return dd(x.ln());
    }
    if !(1e-290..1e290).contains(&x) {
        // Rescale by an exact power of two so the reduction's scale factor
        // and the low word stay normal.
        let half_scale = dd(512.0).mul(&LN_2);
        return if x >= 1e290 {
            log(&mul_pwr2(a, 2f64.powi(-512))).add(&half_scale)
        } else {
            log(&mul_pwr2(a, 2f64.powi(512))).sub(&half_scale)
        };
    }
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let mut m = f64::from_bits((bits & ((1u64 << 52) - 1)) | (1023u64 << 52));
    if m >= std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let m_lo = a.lo() * pow2(-e);
    let j = (m * 128.0).round();
    let c = j / 128.0;
    // m − c is exact (Sterbenz), so t carries the low word in full.
    let (d, d_lo) = two_sum(m - c, m_lo);
    let (s, s_lo) = two_sum(m, c);
    let t = Dd::raw(d, d_lo).div(&Dd::from_parts(s, s_lo + m_lo));
    let mut sum = atanh_twice(&t);
    if j != 128.0 {
        sum = tables().ln_128[j as usize - LN_FIRST].add(&sum);
    }
    if e != 0 {
        sum = LN_2.mul(&dd(e as f64)).add(&sum);
    }
    sum
}

/// `log1p`, relatively accurate down to tiny arguments.
pub fn log1p(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x <= -1.0 {
        return dd(x.ln_1p());
    }
    if a.is_zero() {
        return Dd::raw(x, 0.0);
    }
    if x.abs() < 2f64.powi(-10) {
        // ln(1 + a) = 2·atanh(a/(2 + a)).
        return atanh_twice(&a.div(&dd(2.0).add(a)));
    }
    log(&Dd::ONE.add(a))
}

/// `log2 = ln(x)/ln 2`.
pub fn log2(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x <= 0.0 {
        return dd(x.log2());
    }
    log(a).div(&LN_2)
}

/// `log10 = ln(x)/ln 10`.
pub fn log10(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x <= 0.0 {
        return dd(x.log10());
    }
    log(a).div(&LN_10)
}

/// `pow(a, b) = exp(b·ln a)` for strictly positive finite `a`; libm
/// fallback for every other case (negative bases, zeros, specials) and for
/// overflowing exponents.
pub fn pow(a: &Dd, b: &Dd) -> Dd {
    // `<= 0` plus the finiteness screen covers NaN bases too (NaN fails
    // both comparisons but not `is_finite`).
    if a.hi() <= 0.0 || !a.hi().is_finite() || !b.hi().is_finite() || b.is_zero() {
        return dd(a.hi().powf(b.hi()));
    }
    let t = b.mul(&log(a));
    if !t.hi().is_finite() || t.hi().abs() > 705.0 {
        return dd(a.hi().powf(b.hi()));
    }
    exp(&t)
}

/// Largest `|x|` the trig argument reduction accepts; the quotient
/// `round(x/(π/2))` stays an exact small integer below it.
const TRIG_REDUCE_LIMIT: f64 = 1.073741824e9; // 2^30

/// The chunked `π/2` reduction: `(t, q)` with `a = t + k·π/2`,
/// `|t| ≤ π/4 + ε` and `q = k mod 4`; `None` when the argument is outside
/// the reduction range (callers fall back to libm).
fn reduce_half_pi(a: &Dd) -> Option<(Dd, u8)> {
    let x = a.hi();
    if !x.is_finite() || x.abs() > TRIG_REDUCE_LIMIT {
        return None;
    }
    let k = (x / std::f64::consts::FRAC_PI_2).round();
    let mut t = *a;
    if k != 0.0 {
        // t = a − k·(π/2): each k·chunk product is exact as a double-double,
        // and the accurate addition keeps the cancelling remainder's
        // relative error at the double-double level.
        let neg_k = dd(-k);
        for &chunk in pi_2_chunks() {
            t = add_accurate(&t, &dd(chunk).mul(&neg_k));
        }
    }
    Some((t, (k as i64).rem_euclid(4) as u8))
}

/// `sin t` for `|t| ≤ π/4 + ε`: `t·Σ (−1)^n t^(2n)/(2n+1)!` to `n = 13`,
/// the terms from `t¹⁷/17!` on below `2^-53` of the sum.
fn sin_reduced(t: &Dd) -> Dd {
    let f = &tables().inv_fact;
    t.mul(&series(&t.mul(t), |n| f[2 * n + 1], true, 8, 14))
}

/// `cos t` for `|t| ≤ π/4 + ε`: `Σ (−1)^n t^(2n)/(2n)!` to `n = 14`, the
/// terms from `t¹⁸/18!` on below `2^-53` of the sum.
fn cos_reduced(t: &Dd) -> Dd {
    let f = &tables().inv_fact;
    series(&t.mul(t), |n| f[2 * n], true, 9, 15)
}

/// (sin x, cos x) from one reduction, for the kernels that need both.
fn sin_cos(a: &Dd) -> Option<(Dd, Dd)> {
    let (t, q) = reduce_half_pi(a)?;
    let (s, c) = (sin_reduced(&t), cos_reduced(&t));
    Some(match q {
        0 => (s, c),
        1 => (c, s.neg()),
        2 => (s.neg(), c.neg()),
        _ => (c.neg(), s),
    })
}

/// `sin`, summing only the series its quadrant needs.
pub fn sin(a: &Dd) -> Dd {
    match reduce_half_pi(a) {
        Some((t, 0)) => sin_reduced(&t),
        Some((t, 1)) => cos_reduced(&t),
        Some((t, 2)) => sin_reduced(&t).neg(),
        Some((t, _)) => cos_reduced(&t).neg(),
        None => dd(a.hi().sin()),
    }
}

/// `cos`, summing only the series its quadrant needs.
pub fn cos(a: &Dd) -> Dd {
    match reduce_half_pi(a) {
        Some((t, 0)) => cos_reduced(&t),
        Some((t, 1)) => sin_reduced(&t).neg(),
        Some((t, 2)) => cos_reduced(&t).neg(),
        Some((t, _)) => sin_reduced(&t),
        None => dd(a.hi().cos()),
    }
}

/// `tan = sin/cos` from one shared reduction.
pub fn tan(a: &Dd) -> Dd {
    match sin_cos(a) {
        Some((s, c)) => s.div(&c),
        None => dd(a.hi().tan()),
    }
}

/// `atan`, by series for small arguments and one Newton-style correction of
/// the libm seed otherwise: `atan(a) ≈ z₀ + (a·cos z₀ − sin z₀)·cos z₀`.
pub fn atan(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() {
        return dd(x.atan());
    }
    if x.abs() > 1.0 {
        // The Newton correction linearizes around the seed, which breaks
        // down as tan becomes steep; fold onto [−1, 1] first.
        let r = atan(&Dd::ONE.div(a));
        return if x > 0.0 {
            FRAC_PI_2.sub(&r)
        } else {
            FRAC_PI_2.neg().sub(&r)
        };
    }
    if x.abs() < 0.015625 {
        // atan a = a·Σ (−1)^n a^(2n)/(2n+1), relatively accurate for small
        // a: the terms from a¹⁰/11 on are below 2^-63 of the sum.
        let odd = &tables().inv_odd;
        return a.mul(&series(&a.mul(a), |n| odd[n], true, 5, 9));
    }
    let z0 = x.atan();
    let (s, c) = sin_cos(&dd(z0)).expect("atan seed is finite and small");
    dd(z0).add(&a.mul(&c).sub(&s).mul(&c))
}

/// `atan2` for finite operands off the axes, with quadrant handling; libm
/// fallback on the axes and specials.
pub fn atan2(y: &Dd, x: &Dd) -> Dd {
    if !x.hi().is_finite() || !y.hi().is_finite() || x.is_zero() || y.hi() == 0.0 {
        return dd(y.hi().atan2(x.hi()));
    }
    let r = atan(&y.div(x));
    if x.hi() > 0.0 {
        r
    } else if y.hi() > 0.0 {
        r.add(&PI)
    } else {
        r.sub(&PI)
    }
}

/// `asin(a) = atan2(a, √((1−a)(1+a)))`.
pub fn asin(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x.abs() > 1.0 {
        return dd(x.asin());
    }
    if x.abs() == 1.0 && a.lo() == 0.0 {
        return if x > 0.0 { FRAC_PI_2 } else { FRAC_PI_2.neg() };
    }
    let cos = Dd::ONE.sub(a).mul(&Dd::ONE.add(a)).sqrt();
    atan2(a, &cos)
}

/// `acos(a) = atan2(√((1−a)(1+a)), a)`.
pub fn acos(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || x.abs() > 1.0 {
        return dd(x.acos());
    }
    if x == 1.0 && a.lo() == 0.0 {
        return Dd::ZERO;
    }
    if x == -1.0 && a.lo() == 0.0 {
        return PI;
    }
    let sin = Dd::ONE.sub(a).mul(&Dd::ONE.add(a)).sqrt();
    atan2(&sin, a)
}

/// `cbrt`, one Newton step on the libm seed: `x·(1 + (a/x³ − 1)/3)`.
pub fn cbrt(a: &Dd) -> Dd {
    let x = a.hi();
    if !x.is_finite() || a.is_zero() {
        return Dd::raw(x.cbrt(), 0.0);
    }
    if !(1e-250..1e250).contains(&x.abs()) {
        // Keep z³ and its two_prod residuals in normal range: rescale by an
        // exact power of 2³ (528 = 3 · 176).
        return if x.abs() >= 1e250 {
            mul_pwr2(&cbrt(&mul_pwr2(a, 2f64.powi(-528))), 2f64.powi(176))
        } else {
            mul_pwr2(&cbrt(&mul_pwr2(a, 2f64.powi(528))), 2f64.powi(-176))
        };
    }
    let z = dd(x.cbrt());
    let r = a.div(&z.mul(&z).mul(&z));
    z.add(&z.mul(&r.sub(&Dd::ONE)).div(&dd(3.0)))
}

/// Evaluates a library-call operation (everything outside the hardware set
/// `+ − × ÷ neg |·| √ fma`) on double-double operands: the accurate kernels
/// above where available, the historical libm-on-`hi` fallback otherwise.
///
/// # Panics
///
/// Panics if `args.len() != op.arity()`.
pub fn apply_library(op: RealOp, args: &[&Dd]) -> Dd {
    assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
    match op {
        RealOp::Exp => exp(args[0]),
        RealOp::Exp2 => exp2(args[0]),
        RealOp::Expm1 => expm1(args[0]),
        RealOp::Log => log(args[0]),
        RealOp::Log2 => log2(args[0]),
        RealOp::Log10 => log10(args[0]),
        RealOp::Log1p => log1p(args[0]),
        RealOp::Pow => pow(args[0], args[1]),
        RealOp::Sin => sin(args[0]),
        RealOp::Cos => cos(args[0]),
        RealOp::Tan => tan(args[0]),
        RealOp::Asin => asin(args[0]),
        RealOp::Acos => acos(args[0]),
        RealOp::Atan => atan(args[0]),
        RealOp::Atan2 => atan2(args[0], args[1]),
        RealOp::Cbrt => cbrt(args[0]),
        _ => {
            // Documented accuracy limitation of the fast shadow for the
            // remaining library calls (~53 bits); the tiered certificates
            // never certify these, so they always escalate to BigFloat.
            let mut buf = [0.0f64; crate::real::MAX_ARITY];
            for (slot, a) in buf.iter_mut().zip(args) {
                *slot = a.to_f64();
            }
            dd(apply_f64(op, &buf[..args.len()]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Real;

    /// Relative error of a dd value against the 256-bit BigFloat oracle.
    fn rel_err_vs_big(got: &Dd, op: RealOp, args: &[f64]) -> f64 {
        let big_args: Vec<BigFloat> = args.iter().map(|&a| BigFloat::from_f64(a)).collect();
        let want = BigFloat::apply(op, &big_args);
        if want.is_nan() || got.is_nan() {
            assert_eq!(want.is_nan(), got.is_nan(), "{op} on {args:?}");
            return 0.0;
        }
        let got_big = BigFloat::from_f64(got.hi()).add(&BigFloat::from_f64(got.lo()));
        let diff = got_big.sub(&want).abs();
        if want.to_f64() == 0.0 {
            return diff.to_f64();
        }
        diff.div(&want.abs()).to_f64()
    }

    /// Asserts that `c` is the nearest-double split of `v`.
    fn assert_nearest_split(c: &Dd, v: &BigFloat, what: &str) {
        let hi = v.to_f64();
        let lo = v.sub(&BigFloat::from_f64(hi)).to_f64();
        assert_eq!((c.hi(), c.lo()), (hi, lo), "{what}");
    }

    #[test]
    fn constants_match_bigfloat() {
        let pi = BigFloat::from_f64(1.0).atan().mul(&BigFloat::from_f64(4.0));
        let half_pi = BigFloat::from_f64(1.0).atan().mul(&BigFloat::from_f64(2.0));
        for (c, big) in [
            (PI, pi),
            (FRAC_PI_2, half_pi),
            (LN_2, BigFloat::from_f64(2.0).ln()),
            (LN_10, BigFloat::from_f64(10.0).ln()),
        ] {
            let got = BigFloat::from_f64(c.hi()).add(&BigFloat::from_f64(c.lo()));
            let err = got.sub(&big).abs().div(&big.abs()).to_f64();
            assert!(err < 2f64.powi(-104), "constant off by {err:e}");
        }
        // Every table entry, against its value derived along another route
        // at the oracle's precision.
        let big = |x: f64| BigFloat::from_f64_prec(x, ORACLE_BITS);
        let t = tables();
        let ln2 = big(2.0).ln();
        for (j, c) in t.exp2_64.iter().enumerate() {
            let v = big(j as f64).mul(&ln2).div(&big(64.0)).exp();
            assert_nearest_split(c, &v, &format!("2^({j}/64)"));
        }
        for (i, c) in t.ln_128.iter().enumerate() {
            let j = LN_FIRST + i;
            let v = big(j as f64).ln().sub(&big(7.0).mul(&ln2));
            assert_nearest_split(c, &v, &format!("ln({j}/128)"));
        }
        let mut inv_fact = big(1.0);
        for (n, c) in t.inv_fact.iter().enumerate() {
            if n > 0 {
                inv_fact = inv_fact.div(&big(n as f64));
            }
            assert_nearest_split(c, &inv_fact, &format!("1/{n}!"));
        }
        for (n, c) in t.inv_odd.iter().enumerate() {
            let v = big(1.0).div(&big((2 * n + 1) as f64));
            assert_nearest_split(c, &v, &format!("1/{}", 2 * n + 1));
        }
        // Cody–Waite: c1 and c2 keep at most 36 significant bits, so k·c1
        // and k·c2 are exact for |k| < 2^17; each part lies below the
        // previous one's last bit, and c3 is the nearest double to the rest.
        let [c1, c2, c3] = t.ln2_64;
        for c in [c1, c2] {
            assert_eq!(c.to_bits() & ((1 << 17) - 1), 0, "{c:e} has over 36 bits");
        }
        assert!(c2.abs() < c1.abs() * 2f64.powi(-35), "{c1:e} {c2:e}");
        assert!(c3.abs() < c2.abs() * 2f64.powi(-35), "{c2:e} {c3:e}");
        let rest = ln2.div(&big(64.0)).sub(&big(c1)).sub(&big(c2));
        assert_eq!(c3, rest.to_f64(), "ln2/64 − c1 − c2");
    }

    #[test]
    fn pi_2_chunks_are_nonoverlapping_and_sum_to_half_pi() {
        let chunks = pi_2_chunks();
        assert_eq!(chunks[0], std::f64::consts::FRAC_PI_2);
        for w in chunks.windows(2) {
            assert!(w[1].abs() <= w[0].abs() * 2f64.powi(-52), "{w:?}");
        }
        let mut sum = BigFloat::from_f64_prec(0.0, 384);
        for &c in chunks {
            sum = sum.add(&BigFloat::from_f64(c));
        }
        let half_pi = BigFloat::from_f64_prec(1.0, 384)
            .atan()
            .mul(&BigFloat::from_f64_prec(2.0, 384));
        let err = sum.sub(&half_pi).abs().to_f64();
        assert!(err < 2f64.powi(-250), "chunk sum off by {err:e}");
    }

    #[test]
    fn unary_kernels_track_bigfloat_to_85_bits() {
        let tol = 2f64.powi(-85);
        let grid: Vec<f64> = vec![
            1e-30,
            1e-9,
            0.001,
            0.0625,
            0.24,
            0.5,
            0.75,
            1.0,
            1.0 + 1e-14,
            1.5,
            2.0,
            std::f64::consts::E,
            10.0,
            100.5,
            1e4,
            1e8,
            444.0,
            700.0,
            1e300,
            1e-300,
        ];
        for &x in &grid {
            for (op, dom) in [
                (RealOp::Exp, x <= 700.0),
                (RealOp::Expm1, x <= 700.0),
                (RealOp::Exp2, x.abs() <= 1000.0),
                (RealOp::Log, x > 0.0),
                (RealOp::Log2, x > 0.0),
                (RealOp::Log10, x > 0.0),
                (RealOp::Log1p, true),
                (RealOp::Sin, x.abs() < TRIG_REDUCE_LIMIT),
                (RealOp::Cos, x.abs() < TRIG_REDUCE_LIMIT),
                (RealOp::Tan, x.abs() < TRIG_REDUCE_LIMIT),
                (RealOp::Atan, true),
                (RealOp::Asin, x.abs() <= 1.0),
                (RealOp::Acos, x.abs() <= 1.0),
                (RealOp::Cbrt, true),
            ] {
                if !dom {
                    continue;
                }
                for &signed in &[x, -x] {
                    if matches!(op, RealOp::Log | RealOp::Log2 | RealOp::Log10) && signed <= 0.0 {
                        continue;
                    }
                    if op == RealOp::Log1p && signed <= -1.0 {
                        continue;
                    }
                    if matches!(op, RealOp::Asin | RealOp::Acos) && signed.abs() > 1.0 {
                        continue;
                    }
                    // The scaled-down low word of exp goes subnormal below
                    // ~e^-670; accuracy there is documented as degraded.
                    if matches!(op, RealOp::Exp | RealOp::Expm1) && signed < -670.0 {
                        continue;
                    }
                    let got = apply_library(op, &[&dd(signed)]);
                    let err = rel_err_vs_big(&got, op, &[signed]);
                    assert!(err < tol, "{op}({signed}) rel err {err:e}");
                }
            }
        }
    }

    #[test]
    fn binary_kernels_track_bigfloat_to_85_bits() {
        let tol = 2f64.powi(-85);
        let pairs = [
            (2.0, 0.5),
            (0.3, 7.0),
            (10.0, -3.25),
            (1.5, 100.0),
            (0.9999, 250.0),
            (3.0, 0.0),
        ];
        for &(a, b) in &pairs {
            let got = pow(&dd(a), &dd(b));
            let err = rel_err_vs_big(&got, RealOp::Pow, &[a, b]);
            assert!(err < tol, "pow({a},{b}) rel err {err:e}");
        }
        let quads = [
            (1.0, 2.0),
            (-1.0, 2.0),
            (3.0, -4.0),
            (-0.5, -0.25),
            (1e-8, 1.0),
        ];
        for &(y, x) in &quads {
            let got = atan2(&dd(y), &dd(x));
            let err = rel_err_vs_big(&got, RealOp::Atan2, &[y, x]);
            assert!(err < tol, "atan2({y},{x}) rel err {err:e}");
        }
    }

    #[test]
    fn kernels_preserve_low_order_operand_bits() {
        // The point of the accurate kernels: a perturbation far below f64
        // precision must move the result by its first-order change, which
        // the old libm-on-hi fallback lost entirely.
        type Kernel = fn(&Dd) -> Dd;
        let cases: [(&str, Kernel, f64, f64); 3] = [
            ("exp", exp, 1.0, std::f64::consts::E),
            ("log", log, 2.0, 0.5),
            ("sin", sin, 1.0, 1f64.cos()),
        ];
        for (name, kernel, x, slope) in cases {
            let a = dd(x).add(&dd(1e-25));
            let diff = kernel(&a).sub(&kernel(&dd(x)));
            assert!(
                (diff.to_f64() - slope * 1e-25).abs() < 1e-28,
                "{name} ignored the low word: {diff:?}"
            );
        }
    }

    #[test]
    fn special_values_follow_libm() {
        assert!(log(&dd(-1.0)).is_nan());
        assert_eq!(log(&dd(0.0)).hi(), f64::NEG_INFINITY);
        assert_eq!(exp(&dd(f64::NEG_INFINITY)).hi(), 0.0);
        assert_eq!(exp(&dd(f64::INFINITY)).hi(), f64::INFINITY);
        assert!(sin(&dd(f64::INFINITY)).is_nan());
        assert!(asin(&dd(1.5)).is_nan());
        assert!(pow(&dd(f64::NAN), &dd(2.0)).is_nan());
        assert_eq!(expm1(&dd(-0.0)).hi().to_bits(), (-0.0f64).to_bits());
        assert_eq!(atan2(&dd(0.0), &dd(1.0)).hi(), 0.0);
        assert_eq!(cbrt(&dd(-8.0)).to_f64(), -2.0);
        assert_eq!(asin(&dd(1.0)).to_f64(), std::f64::consts::FRAC_PI_2);
        assert_eq!(acos(&dd(-1.0)).to_f64(), std::f64::consts::PI);
        assert_eq!(exp2(&dd(10.0)).to_f64(), 1024.0);
        assert_eq!(exp2(&dd(10.0)).lo(), 0.0);
    }
}
