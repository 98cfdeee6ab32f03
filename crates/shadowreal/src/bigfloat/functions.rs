//! Elementary functions on [`BigFloat`].
//!
//! Herbgrind wraps calls to the math library (`sin`, `exp`, ...) and
//! evaluates them directly on the shadow reals (§5.3 of the paper). This
//! module provides those evaluations, faithfully rounded to the operand
//! precision `p`.
//!
//! **One guard width per call.** Every public function picks one working
//! precision `work = p + 64`, computes at it, and rounds once. The kernels
//! other functions build on (`exp_at`, `expm1_at`, `ln_at`, `log1p_at`,
//! `atan_at`) take `work` as a parameter and add no guard bits of their
//! own, so `pow`, `cbrt`, `tanh` and friends never stack a second 64 bits
//! on top of the first.
//!
//! **Series.** Every power series is summed by the fixed-point accumulator
//! in `series.rs` and rounded to `work` bits once; the sums are ratio forms
//! (sin x/x, atan t/t, ...) that one `BigFloat` multiply scales back.
//!
//! **Reductions.**
//! * `exp`: x = n·ln 2 + r, then r is halved `s` times until
//!   |r/2^s| < 2^−K (K ≈ √work, so `s` is 0 when r is already tiny); the
//!   Taylor series runs on r/2^s and the sum is squared `s` times, with `s`
//!   more fraction bits absorbing the error each squaring doubles.
//! * `ln`: x = m·2^k with m ∈ [√½, √2), then ln m = ln c + 2·atanh(t)
//!   around the nearest c = j/2048, with t = (m − c)/(m + c) and
//!   |t| ≤ 2^−12.5: about 15 series terms at 320 bits. j = 2048 skips the
//!   table, which keeps full relative accuracy near 1.
//! * `cbrt`: Newton's iteration y ← y + (m/y² − y)/3 from the `f64` cube
//!   root, doubling the precision at each step.
//! * `tan`: one sine series, with cos = √(1 − sin²) (well conditioned,
//!   because the reduced argument keeps cos ≥ 0.707).
//! * `sin`, `cos`: the remainder of x modulo π/2 (Payne–Hanek for huge
//!   arguments) with |r| ≲ π/4, then the sine or cosine series by quadrant.
//! * `atan`: |t| ≤ 1 (else π/2 − atan(1/t)), then
//!   atan t = atan c + atan((t − c)/(1 + t·c)) around the nearest
//!   c = j/64, leaving a series argument of at most 2^−7.
//!
//! Both `exp` and the moderate trig reduction read the multiple n from an
//! `f64` product below 2^30, where it is exact enough (a neighbour of the
//! nearest multiple only widens the remainder a little), and divide at the
//! working precision above.
//!
//! **Constants.** π, ln 2, ln 10, 2/π and the ln(j/2048) and atan(j/64)
//! tables are computed on first use and cached per precision in one shared
//! table ([`cached`]). Every entry is a deterministic function of its key,
//! so cache state never changes a result.
//!
//! Allocation audit (this module is part of the shadow hot path): with the
//! inline-limb mantissa representation every `BigFloat` temporary at or
//! below 384 bits (six limbs) lives on the stack, and a 256-bit shadow's
//! series run on the accumulator's six-limb stack arrays. So once the
//! constant caches and tables are warm the 256-bit kernels do not allocate
//! (the Payne–Hanek window for huge trig arguments aside); other widths
//! run the series on heap buffers.

use super::series::{self, Series};
use super::{fast_paths_enabled, BigFloat, Finite, Repr, MAX_PRECISION, MIN_PRECISION};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A constant in the shared per-precision cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Constant {
    Pi,
    Ln2,
    Ln10,
    TwoOverPi,
    /// ln(j/[`LN_TABLE`]), the logarithm's reduction table.
    LnTable(u16),
    /// atan(j/[`ATAN_TABLE`]), the arctangent's reduction table.
    AtanTable(u8),
}

/// `key` at `prec` bits, computed by `compute` on first use and cached.
///
/// The cache recovers from lock poisoning instead of propagating it:
/// entries are idempotent inserts of deterministic values, so a cache
/// abandoned mid-update by a panicking run is still valid, and one
/// quarantined input must not poison the shadow arithmetic for the rest of
/// a fault-isolated sweep. The lock is not held while `compute` runs,
/// because one constant may be computed from another.
fn cached(key: Constant, prec: u32, compute: impl FnOnce() -> BigFloat) -> BigFloat {
    static CACHE: OnceLock<Mutex<HashMap<(Constant, u32), BigFloat>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    if let Some(v) = cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&(key, prec))
    {
        telemetry::BIGFLOAT_CONST_CACHE_HITS.incr();
        return v.clone();
    }
    telemetry::BIGFLOAT_CONST_CACHE_MISSES.incr();
    let v = compute();
    cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert((key, prec), v.clone());
    v
}

/// Denominator of the logarithm's table points c = j/2048.
const LN_TABLE: i64 = 2048;

/// Denominator of the arctangent's table points c = j/64.
const ATAN_TABLE: i64 = 64;

/// 2/π at the given precision (cached): the Payne–Hanek trig reduction
/// reads a bit window out of it for every large argument.
fn two_over_pi(prec: u32) -> BigFloat {
    cached(Constant::TwoOverPi, prec, || {
        BigFloat::from_i64(2)
            .with_precision(prec)
            .div(&BigFloat::pi(prec))
    })
}

/// ln 10 at the given precision (cached), for `log10`.
fn ln10(prec: u32) -> BigFloat {
    cached(Constant::Ln10, prec, || {
        let work = prec + 32;
        BigFloat::from_i64(10).ln_at(work).with_precision(prec)
    })
}

/// ln(j/2048) at the given precision (cached), as 2·atanh(t) with
/// t = (j − 2048)/(j + 2048), |t| ≤ 0.17 for the j the reduction produces.
fn ln_table(j: i64, prec: u32) -> BigFloat {
    cached(Constant::LnTable(j as u16), prec, || {
        let work = prec + 32;
        small_int(j - LN_TABLE)
            .with_precision(work)
            .div(&small_int(j + LN_TABLE))
            .atanh_small(work)
            .scale_exp(1)
            .with_precision(prec)
    })
}

/// atan(j/64) for 1 ≤ j ≤ 64 at the given precision (cached). One halving,
/// atan c = 2·atan(c/(1 + √(1 + c²))), brings the series argument down to
/// at most tan(π/8) < 0.42.
fn atan_table(j: i64, prec: u32) -> BigFloat {
    cached(Constant::AtanTable(j as u8), prec, || {
        let work = prec + 32;
        let c = small_int(j)
            .with_precision(work)
            .div(&small_int(ATAN_TABLE));
        let one = small_int(1);
        c.div(&one.add(&one.add(&c.mul(&c)).sqrt()))
            .atan_small(work)
            .scale_exp(1)
            .with_precision(prec)
    })
}

/// The integer nearest x/c. Below 2^30 it comes from the `f64` product
/// with `inv_c` ≈ 1/c, which can only land on a neighbour of the nearest
/// multiple, and so only widens the remainder a little; above, the
/// product's rounding could miss by many multiples, so it divides at the
/// working precision instead.
fn nearest_multiple(x: &BigFloat, c: &BigFloat, inv_c: f64) -> BigFloat {
    if x.exponent().is_none_or(|e| e <= 30) {
        BigFloat::from_f64_prec((x.to_f64() * inv_c).round(), MIN_PRECISION)
    } else {
        x.div(c).round_nearest()
    }
}

/// The quadrant `n mod 4` (in 0..=3) of an integer-valued reduction
/// multiple. Below 2^53, `n` converts to `f64` exactly, which skips the
/// wide `fmod`.
fn quadrant(n: &BigFloat) -> u8 {
    let q = if n.exponent().is_none_or(|e| e <= 53) {
        n.to_f64() as i64
    } else {
        n.fmod(&BigFloat::from_i64(4)).to_f64() as i64
    };
    q.rem_euclid(4) as u8
}

/// cbrt(m) at `p` bits, for m in [0.5, 4), by Newton's iteration
/// y ← y + (m/y² − y)/3. Each step squares the relative error, so the step
/// at `p` bits starts from a root good to about p/2 bits: the ladder halves
/// down to the `f64` seed, which is good to ~51 bits.
fn cbrt_newton(m: &BigFloat, p: u32) -> BigFloat {
    let half = p / 2 + 4;
    let y = if half <= 48 {
        BigFloat::from_f64_prec(m.to_f64().cbrt(), MIN_PRECISION)
    } else {
        cbrt_newton(m, half)
    }
    .with_precision(p);
    let residual = m.with_precision(p).div(&y.mul(&y)).sub(&y);
    y.add(&residual.div(&small_int(3)))
}

/// A small exact integer at the narrowest precision, so it never widens
/// the operation it takes part in.
fn small_int(k: i64) -> BigFloat {
    BigFloat::from_f64_prec(k as f64, MIN_PRECISION)
}

impl BigFloat {
    /// π at the given precision (cached).
    pub fn pi(prec: u32) -> BigFloat {
        let prec = prec.min(MAX_PRECISION);
        cached(Constant::Pi, prec, || {
            // Machin's formula: π = 16·atan(1/5) − 4·atan(1/239).
            let work = prec + 32;
            let atan_recip = |x: i64| {
                small_int(1)
                    .with_precision(work)
                    .div(&small_int(x))
                    .atan_small(work)
            };
            atan_recip(5)
                .scale_exp(4)
                .sub(&atan_recip(239).scale_exp(2))
                .with_precision(prec)
        })
    }

    /// ln 2 at the given precision (cached).
    pub fn ln2(prec: u32) -> BigFloat {
        let prec = prec.min(MAX_PRECISION);
        cached(Constant::Ln2, prec, || {
            // ln 2 = 2·atanh(1/3).
            let work = prec + 32;
            small_int(1)
                .with_precision(work)
                .div(&small_int(3))
                .atanh_small(work)
                .scale_exp(1)
                .with_precision(prec)
        })
    }

    /// Euler's number e at the given precision.
    pub fn e(prec: u32) -> BigFloat {
        BigFloat::one().with_precision(prec).exp()
    }

    fn work_prec(&self) -> u32 {
        (self.precision() + 64).min(MAX_PRECISION)
    }

    /// The value of an integer-valued `self` with |self| < 2^63 (0 for
    /// non-finite values). Exact where `to_f64` rounds above 2^53.
    fn to_i64(&self) -> i64 {
        match &self.repr {
            Repr::Finite(f) => {
                debug_assert!((1..=63).contains(&f.exp));
                let mag = (f.limbs[f.limbs.len() - 1] >> (64 - f.exp)) as i64;
                if f.neg {
                    -mag
                } else {
                    mag
                }
            }
            _ => 0,
        }
    }

    /// Adds `delta` to the binary exponent (multiplies by 2^delta).
    fn scale_exp(&self, delta: i64) -> BigFloat {
        match &self.repr {
            Repr::Finite(f) => BigFloat {
                repr: Repr::Finite(Finite {
                    exp: f.exp.saturating_add(delta),
                    ..f.clone()
                }),
            },
            _ => self.clone(),
        }
    }

    /// e^self at `work` bits, adding no guard bits of its own.
    fn exp_at(&self, work: u32) -> BigFloat {
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(work),
            Repr::Zero { .. } => BigFloat::one().with_precision(work),
            Repr::Inf { neg: false, .. } => BigFloat::inf_at(false, work),
            Repr::Inf { neg: true, .. } => BigFloat::zero_at(false, work),
            Repr::Finite(f) => {
                // Guard against astronomically large arguments whose result
                // exponent would not fit in an i64.
                if f.exp > 62 {
                    return if f.neg {
                        BigFloat::zero_at(false, work)
                    } else {
                        BigFloat::inf_at(false, work)
                    };
                }
                let ln2 = BigFloat::ln2(work);
                let x = self.with_precision(work);
                let n = nearest_multiple(&x, &ln2, std::f64::consts::LOG2_E);
                let r = x.sub(&n.mul(&ln2));
                // exp(r) = exp(r/2^s)^(2^s), with s just large enough that
                // |r/2^s| < 2^−⌊√work⌋, which balances series terms against
                // squarings (s = 0 when r is already that small).
                let s = r
                    .exponent()
                    .map_or(0, |e| (e + work.isqrt() as i64).max(0) as u32);
                series::eval(Series::Exp { halvings: s }, &r, work).scale_exp(n.to_i64())
            }
        }
    }

    /// The exponential function e^x.
    pub fn exp(&self) -> BigFloat {
        self.exp_at(self.work_prec())
            .with_precision(self.precision())
    }

    /// ln(self) at `work` bits, adding no guard bits of its own.
    fn ln_at(&self, work: u32) -> BigFloat {
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(work),
            Repr::Zero { .. } => BigFloat::inf_at(true, work),
            Repr::Inf { neg: false, .. } => BigFloat::inf_at(false, work),
            Repr::Inf { neg: true, .. } => BigFloat::nan_at(work),
            Repr::Finite(f) if f.neg => BigFloat::nan_at(work),
            Repr::Finite(f) => {
                // Reduce to m·2^k with m in [√½, √2). The split only decides
                // which side of the table m lands on, so an f64 comparison
                // is exact enough.
                let mut k = f.exp;
                let mut m = self.with_precision(work).scale_exp(-f.exp);
                if m.to_f64() < std::f64::consts::FRAC_1_SQRT_2 {
                    m = m.scale_exp(1);
                    k -= 1;
                }
                // ln m = ln c + 2·atanh(t), t = (m − c)/(m + c), around the
                // nearest c = j/2048: |t| ≤ 2^−12.5. m − c is exact.
                let j = (m.to_f64() * LN_TABLE as f64).round() as i64;
                let c = BigFloat::from_f64_prec(j as f64 / LN_TABLE as f64, work);
                let t = m.sub(&c).div(&m.add(&c));
                let mut ln_m = t.atanh_small(work).scale_exp(1);
                if j != LN_TABLE {
                    ln_m = ln_table(j, work).add(&ln_m);
                }
                if k == 0 {
                    return ln_m;
                }
                // k fits one limb, which keeps the product's multiply short.
                BigFloat::from_i64(k)
                    .with_precision(MIN_PRECISION)
                    .mul(&BigFloat::ln2(work))
                    .add(&ln_m)
            }
        }
    }

    /// The natural logarithm ln(x); NaN for negative input, −∞ at zero.
    pub fn ln(&self) -> BigFloat {
        self.ln_at(self.work_prec())
            .with_precision(self.precision())
    }

    /// Base-2 logarithm.
    pub fn log2(&self) -> BigFloat {
        let work = self.work_prec();
        self.ln_at(work)
            .div(&BigFloat::ln2(work))
            .with_precision(self.precision())
    }

    /// Base-10 logarithm.
    pub fn log10(&self) -> BigFloat {
        let work = self.work_prec();
        self.ln_at(work)
            .div(&ln10(work))
            .with_precision(self.precision())
    }

    /// 2^x.
    pub fn exp2(&self) -> BigFloat {
        let work = self.work_prec();
        self.with_precision(work)
            .mul(&BigFloat::ln2(work))
            .exp_at(work)
            .with_precision(self.precision())
    }

    /// e^self − 1 at `work` bits, adding no guard bits of its own.
    fn expm1_at(&self, work: u32) -> BigFloat {
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(work),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, work),
            Repr::Inf { neg: false, .. } => BigFloat::inf_at(false, work),
            Repr::Inf { neg: true, .. } => small_int(-1).with_precision(work),
            Repr::Finite(f) if f.exp < -4 => {
                // The series of (e^x − 1)/x avoids the cancellation.
                let x = self.with_precision(work);
                x.mul(&series::eval(Series::Expm1, &x, work))
            }
            // |x| ≥ 2^−5: the subtraction cancels at most a few bits of
            // the guard width.
            Repr::Finite(_) => self.exp_at(work).sub(&small_int(1)),
        }
    }

    /// e^x − 1, accurate for small x.
    pub fn expm1(&self) -> BigFloat {
        self.expm1_at(self.work_prec())
            .with_precision(self.precision())
    }

    /// ln(1 + self) at `work` bits, adding no guard bits of its own.
    fn log1p_at(&self, work: u32) -> BigFloat {
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(work),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, work),
            Repr::Finite(f) if f.exp < -4 => {
                // ln(1+x) = 2·atanh(x / (2+x)).
                let x = self.with_precision(work);
                let t = x.div(&x.add(&small_int(2)));
                t.atanh_small(work).scale_exp(1)
            }
            _ => self.with_precision(work).add(&small_int(1)).ln_at(work),
        }
    }

    /// ln(1 + x), accurate for small x.
    pub fn log1p(&self) -> BigFloat {
        self.log1p_at(self.work_prec())
            .with_precision(self.precision())
    }

    /// atanh(self) = self·(atanh t/t) by its series; |self| ≤ 1/3.
    fn atanh_small(&self, work: u32) -> BigFloat {
        self.mul(&series::eval(Series::Atanh, self, work))
    }

    /// atan(self) = self·(atan t/t) by its series; |self| < 0.42.
    fn atan_small(&self, work: u32) -> BigFloat {
        self.mul(&series::eval(Series::Atan, self, work))
    }

    /// sin(self) = self·(sin x/x) by its series; |self| ≲ π/4.
    fn sin_small(&self, work: u32) -> BigFloat {
        self.mul(&series::eval(Series::Sin, self, work))
    }

    /// cos(self) by its series; |self| ≲ π/4.
    fn cos_small(&self, work: u32) -> BigFloat {
        series::eval(Series::Cos, self, work)
    }

    /// Reduces the argument modulo π/2, returning the remainder (|r| ≲ π/4:
    /// a neighbouring multiple can widen it a little) and the quadrant
    /// (0..=3).
    fn trig_reduce(&self, work: u32) -> (BigFloat, u8) {
        if let Some(red) = self.trig_reduce_payne_hanek(work) {
            return red;
        }
        let exp_extra = self.exponent().unwrap_or(0).max(0) as u32;
        let red_work = (work + exp_extra + 16).min(MAX_PRECISION);
        let half_pi = BigFloat::pi(red_work).scale_exp(-1);
        let x = self.with_precision(red_work);
        let n = nearest_multiple(&x, &half_pi, std::f64::consts::FRAC_2_PI);
        let r = x.sub(&n.mul(&half_pi)).with_precision(work);
        (r, quadrant(&n))
    }

    /// Payne–Hanek reduction for large arguments: instead of dividing by
    /// π/2 at `work + exponent` bits, reads a fixed-width window out of a
    /// cached 2/π.
    ///
    /// Writing `x = f·2^e` with an `mb`-bit mantissa, every bit of 2/π of
    /// weight `2^−j` with `j ≤ e − mb − 2` multiplies `x` into an exact
    /// multiple of 4 — irrelevant to both the quadrant (`n mod 4`) and the
    /// remainder. Only a window of `mb + work + O(guard)` bits of 2/π below
    /// that line ever matters, so the reduction cost stops growing with the
    /// exponent. Returns `None` (falling back to the plain reduction) for
    /// small arguments, where the window would not drop anything, and for
    /// exponents so large the cached constant cannot cover the window.
    fn trig_reduce_payne_hanek(&self, work: u32) -> Option<(BigFloat, u8)> {
        if !fast_paths_enabled() {
            return None;
        }
        let f = match &self.repr {
            Repr::Finite(f) => f,
            _ => return None,
        };
        let mb = 64 * f.limbs.len() as i64;
        // High bits of 2/π with weight ≥ 2^−drop contribute multiples of 4.
        let drop = f.exp - mb - 2;
        if drop < 1 {
            return None;
        }
        let window = (mb as u32 + work + 160).min(MAX_PRECISION);
        // Round the constant's precision up to a coarse grid so repeated
        // reductions at nearby exponents share a cache entry.
        let cprec = (drop as u64 + window as u64).next_multiple_of(2048);
        if cprec > MAX_PRECISION as u64 {
            return None;
        }
        let c = two_over_pi(cprec as u32);
        // m = 2/π with the irrelevant high bits sliced off: frac(2/π·2^drop)
        // rescaled, then narrowed to the window.
        let shifted = c.scale_exp(drop);
        let m = shifted
            .sub(&shifted.trunc())
            .scale_exp(-drop)
            .with_precision(window);
        // p = x·m carries n mod 4 in its integer part (|p| < 2^(mb+3)) and
        // the reduced fraction below the point.
        let p = self.with_precision(window).mul(&m);
        let n = p.round_nearest();
        let frac = p.sub(&n).with_precision((work + 32).min(MAX_PRECISION));
        let half_pi = BigFloat::pi((work + 32).min(MAX_PRECISION)).scale_exp(-1);
        let r = frac.mul(&half_pi).with_precision(work);
        Some((r, quadrant(&n)))
    }

    /// Sine.
    pub fn sin(&self) -> BigFloat {
        let prec = self.precision();
        match &self.repr {
            Repr::Nan { .. } | Repr::Inf { .. } => BigFloat::nan_at(prec),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, prec),
            Repr::Finite(_) => {
                let work = self.work_prec();
                let (r, q) = self.trig_reduce(work);
                let v = match q {
                    0 => r.sin_small(work),
                    1 => r.cos_small(work),
                    2 => r.sin_small(work).neg(),
                    _ => r.cos_small(work).neg(),
                };
                v.with_precision(prec)
            }
        }
    }

    /// Cosine.
    pub fn cos(&self) -> BigFloat {
        let prec = self.precision();
        match &self.repr {
            Repr::Nan { .. } | Repr::Inf { .. } => BigFloat::nan_at(prec),
            Repr::Zero { .. } => BigFloat::one().with_precision(prec),
            Repr::Finite(_) => {
                let work = self.work_prec();
                let (r, q) = self.trig_reduce(work);
                let v = match q {
                    0 => r.cos_small(work),
                    1 => r.sin_small(work).neg(),
                    2 => r.cos_small(work).neg(),
                    _ => r.sin_small(work),
                };
                v.with_precision(prec)
            }
        }
    }

    /// Tangent.
    pub fn tan(&self) -> BigFloat {
        let prec = self.precision();
        match &self.repr {
            Repr::Nan { .. } | Repr::Inf { .. } => BigFloat::nan_at(prec),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, prec),
            Repr::Finite(_) => {
                let work = self.work_prec();
                let (r, q) = self.trig_reduce(work);
                // |r| ≲ π/4 keeps sin² ≲ ½, so 1 − sin² cancels about one
                // bit and its square root is the (positive) cosine.
                let s = r.sin_small(work);
                let c = small_int(1).sub(&s.mul(&s)).sqrt();
                let v = match q {
                    0 | 2 => s.div(&c),
                    _ => c.div(&s).neg(),
                };
                v.with_precision(prec)
            }
        }
    }

    /// atan(self) at `work` bits, adding no guard bits of its own.
    fn atan_at(&self, work: u32) -> BigFloat {
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(work),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, work),
            Repr::Inf { neg, .. } => {
                let v = BigFloat::pi(work).scale_exp(-1);
                if *neg {
                    v.neg()
                } else {
                    v
                }
            }
            Repr::Finite(f) => {
                let neg = f.neg;
                let t = self.abs().with_precision(work);
                let one = BigFloat::one().with_precision(work);
                let (t, invert) = if t.partial_cmp(&one) == Some(std::cmp::Ordering::Greater) {
                    (one.div(&t), true)
                } else {
                    (t, false)
                };
                // atan t = atan c + atan δ, δ = (t − c)/(1 + t·c), around
                // the nearest c = j/64: |δ| ≤ 2^−7, and t − c is exact.
                // j = 0 keeps full relative accuracy for tiny t.
                let j = (t.to_f64() * ATAN_TABLE as f64).round() as i64;
                let mut result = if j == 0 {
                    t.atan_small(work)
                } else {
                    let c = small_int(j).div(&small_int(ATAN_TABLE));
                    let delta = t.sub(&c).div(&t.mul(&c).add(&one));
                    atan_table(j, work).add(&delta.atan_small(work))
                };
                if invert {
                    result = BigFloat::pi(work).scale_exp(-1).sub(&result);
                }
                if neg {
                    result = result.neg();
                }
                result
            }
        }
    }

    /// Arctangent.
    pub fn atan(&self) -> BigFloat {
        self.atan_at(self.work_prec())
            .with_precision(self.precision())
    }

    /// Two-argument arctangent atan2(self, x) where `self` is y.
    pub fn atan2(&self, x: &BigFloat) -> BigFloat {
        let prec = self.precision().max(x.precision());
        let y = self;
        if y.is_nan() || x.is_nan() {
            return BigFloat::nan_at(prec);
        }
        let work = (prec + 64).min(MAX_PRECISION);
        let pi = BigFloat::pi(work);
        let result = if x.is_zero() && y.is_zero() {
            // atan2(±0, +0) = ±0; atan2(±0, −0) = ±π.
            if x.is_negative() {
                pi.clone()
            } else {
                BigFloat::zero()
            }
        } else if x.is_zero() {
            pi.scale_exp(-1)
        } else if y.is_zero() {
            if x.is_negative() {
                pi.clone()
            } else {
                BigFloat::zero()
            }
        } else if x.is_infinite() || y.is_infinite() {
            match (x.is_infinite(), y.is_infinite(), x.is_negative()) {
                (true, true, false) => pi.scale_exp(-2),
                (true, true, true) => pi.mul(&BigFloat::from_i64(3)).scale_exp(-2),
                (true, false, false) => BigFloat::zero(),
                (true, false, true) => pi.clone(),
                _ => pi.scale_exp(-1),
            }
        } else {
            let base = y.abs().with_precision(work).div(&x.abs()).atan_at(work);
            if x.is_negative() {
                pi.sub(&base)
            } else {
                base
            }
        };
        let result = result.with_precision(prec);
        if y.is_negative() && !result.is_zero() {
            result.neg()
        } else if y.is_negative() {
            BigFloat::from_f64_prec(-0.0, prec)
        } else {
            result
        }
    }

    /// Arcsine; NaN outside [−1, 1].
    pub fn asin(&self) -> BigFloat {
        let prec = self.precision();
        if self.is_nan() {
            return BigFloat::nan_at(prec);
        }
        let one = BigFloat::one();
        let a = self.abs();
        match a.partial_cmp(&one) {
            Some(std::cmp::Ordering::Greater) | None => BigFloat::nan_at(prec),
            Some(std::cmp::Ordering::Equal) => {
                let v = BigFloat::pi(prec).scale_exp(-1);
                if self.is_negative() {
                    v.neg()
                } else {
                    v
                }
            }
            Some(std::cmp::Ordering::Less) => {
                // asin x = atan(x/√((1 − |x|)(1 + |x|))); 1 − |x| is exact.
                let work = self.work_prec();
                let a = a.with_precision(work);
                let one = small_int(1);
                let denom = one.sub(&a).mul(&one.add(&a)).sqrt();
                self.with_precision(work)
                    .div(&denom)
                    .atan_at(work)
                    .with_precision(prec)
            }
        }
    }

    /// Arccosine; NaN outside [−1, 1].
    pub fn acos(&self) -> BigFloat {
        // acos x = 2·atan(√((1 − x)/(1 + x))): no cancellation near ±1,
        // and NaN outside [−1, 1] through the square root.
        let work = self.work_prec();
        let x = self.with_precision(work);
        let one = small_int(1);
        one.sub(&x)
            .div(&one.add(&x))
            .sqrt()
            .atan_at(work)
            .scale_exp(1)
            .with_precision(self.precision())
    }

    /// Hyperbolic sine.
    pub fn sinh(&self) -> BigFloat {
        let prec = self.precision();
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(prec),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, prec),
            Repr::Inf { neg, .. } => BigFloat::inf_at(*neg, prec),
            Repr::Finite(f) => {
                let work = self.work_prec();
                if f.exp < -8 {
                    // The series of sinh x/x avoids the cancellation.
                    let x = self.with_precision(work);
                    return x
                        .mul(&series::eval(Series::Sinh, &x, work))
                        .with_precision(prec);
                }
                let e = self.exp_at(work);
                let ei = small_int(1).div(&e);
                e.sub(&ei).scale_exp(-1).with_precision(prec)
            }
        }
    }

    /// Hyperbolic cosine.
    pub fn cosh(&self) -> BigFloat {
        let prec = self.precision();
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(prec),
            Repr::Zero { .. } => BigFloat::one().with_precision(prec),
            Repr::Inf { .. } => BigFloat::inf_at(false, prec),
            Repr::Finite(_) => {
                let work = self.work_prec();
                let e = self.exp_at(work);
                let ei = small_int(1).div(&e);
                e.add(&ei).scale_exp(-1).with_precision(prec)
            }
        }
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> BigFloat {
        let prec = self.precision();
        match &self.repr {
            Repr::Nan { .. } => BigFloat::nan_at(prec),
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, prec),
            Repr::Inf { neg, .. } => {
                let one = BigFloat::one().with_precision(prec);
                if *neg {
                    one.neg()
                } else {
                    one
                }
            }
            Repr::Finite(f) => {
                // tanh|x| = −m/(m + 2) with m = e^(−2|x|) − 1 ∈ (−1, 0]: one
                // exponential, no overflow, and full relative accuracy for
                // small |x| through expm1's series.
                let work = self.work_prec();
                let m = self.abs().scale_exp(1).neg().expm1_at(work);
                let t = m.div(&m.add(&small_int(2))).neg();
                let t = if f.neg { t.neg() } else { t };
                t.with_precision(prec)
            }
        }
    }

    /// Inverse hyperbolic sine.
    pub fn asinh(&self) -> BigFloat {
        let prec = self.precision();
        if self.is_nan() || self.is_zero() || self.is_infinite() {
            return self.clone();
        }
        // asinh|x| = log1p(|x| + x²/(1 + √(1 + x²))): no cancellation, and
        // log1p keeps full relative accuracy for tiny |x|.
        let work = self.work_prec();
        let a = self.abs().with_precision(work);
        let a2 = a.mul(&a);
        let one = small_int(1);
        let r = a
            .add(&a2.div(&one.add(&one.add(&a2).sqrt())))
            .log1p_at(work)
            .with_precision(prec);
        if self.is_negative() {
            r.neg()
        } else {
            r
        }
    }

    /// Inverse hyperbolic cosine; NaN below 1.
    pub fn acosh(&self) -> BigFloat {
        let prec = self.precision();
        let one = BigFloat::one();
        match self.partial_cmp(&one) {
            None => BigFloat::nan_at(prec),
            Some(std::cmp::Ordering::Less) => BigFloat::nan_at(prec),
            Some(std::cmp::Ordering::Equal) => BigFloat::zero_at(false, prec),
            Some(std::cmp::Ordering::Greater) => {
                if self.is_infinite() {
                    return BigFloat::inf_at(false, prec);
                }
                // acosh x = log1p(t + √(t·(t + 2))) with t = x − 1 exact.
                let work = self.work_prec();
                let t = self.with_precision(work).sub(&small_int(1));
                t.add(&t.mul(&t.add(&small_int(2))).sqrt())
                    .log1p_at(work)
                    .with_precision(prec)
            }
        }
    }

    /// Inverse hyperbolic tangent; NaN outside (−1, 1), ±∞ at ±1.
    pub fn atanh(&self) -> BigFloat {
        let prec = self.precision();
        if self.is_nan() {
            return BigFloat::nan_at(prec);
        }
        let one = BigFloat::one();
        let a = self.abs();
        match a.partial_cmp(&one) {
            Some(std::cmp::Ordering::Greater) | None => BigFloat::nan_at(prec),
            Some(std::cmp::Ordering::Equal) => BigFloat::inf_at(self.is_negative(), prec),
            Some(std::cmp::Ordering::Less) => {
                // atanh|x| = ½·log1p(2|x|/(1 − |x|)); 1 − |x| is exact and
                // the log1p argument is positive, so nothing cancels.
                let work = self.work_prec();
                let a = a.with_precision(work);
                let r = a
                    .scale_exp(1)
                    .div(&small_int(1).sub(&a))
                    .log1p_at(work)
                    .scale_exp(-1)
                    .with_precision(prec);
                if self.is_negative() {
                    r.neg()
                } else {
                    r
                }
            }
        }
    }

    /// x raised to the power y.
    pub fn pow(&self, y: &BigFloat) -> BigFloat {
        let prec = self.precision().max(y.precision());
        if y.is_zero() {
            return BigFloat::one().with_precision(prec);
        }
        if self.is_nan() || y.is_nan() {
            return BigFloat::nan_at(prec);
        }
        if self.eq_value(&BigFloat::one()) {
            return BigFloat::one().with_precision(prec);
        }
        if self.is_zero() {
            return if y.is_negative() {
                BigFloat::inf_at(false, prec)
            } else {
                BigFloat::zero_at(false, prec)
            };
        }
        if self.is_infinite() {
            return if y.is_negative() {
                BigFloat::zero_at(false, prec)
            } else if self.is_negative()
                && y.is_integer()
                && y.fmod(&BigFloat::from_i64(2))
                    .abs()
                    .eq_value(&BigFloat::one())
            {
                BigFloat::inf_at(true, prec)
            } else {
                BigFloat::inf_at(false, prec)
            };
        }
        if self.is_negative() {
            if !y.is_integer() {
                return BigFloat::nan_at(prec);
            }
            let odd = y
                .fmod(&BigFloat::from_i64(2))
                .abs()
                .eq_value(&BigFloat::one());
            let mag = self.abs().pow(y);
            return if odd { mag.neg() } else { mag };
        }
        let work = (prec + 64).min(MAX_PRECISION);
        y.with_precision(work)
            .mul(&self.ln_at(work))
            .exp_at(work)
            .with_precision(prec)
    }

    /// Cube root, defined for negative inputs.
    pub fn cbrt(&self) -> BigFloat {
        let prec = self.precision();
        let f = match &self.repr {
            Repr::Finite(f) => f,
            _ => return self.clone(),
        };
        let work = self.work_prec();
        // |x| = m·2^(3q) with m in [0.5, 4), so cbrt|x| = cbrt(m)·2^q.
        let q = f.exp.div_euclid(3);
        let m = self.abs().with_precision(work).scale_exp(-3 * q);
        let mag = cbrt_newton(&m, work).scale_exp(q).with_precision(prec);
        if f.neg {
            mag.neg()
        } else {
            mag
        }
    }

    /// √(x² + y²) without intermediate overflow concerns.
    pub fn hypot(&self, other: &BigFloat) -> BigFloat {
        let prec = self.precision().max(other.precision());
        if self.is_infinite() || other.is_infinite() {
            return BigFloat::inf_at(false, prec);
        }
        if self.is_nan() || other.is_nan() {
            return BigFloat::nan_at(prec);
        }
        let work = (prec + 64).min(MAX_PRECISION);
        let a = self.with_precision(work);
        let b = other.with_precision(work);
        a.mul(&a).add(&b.mul(&b)).sqrt().with_precision(prec)
    }

    /// Fused multiply-add: self·b + c with a single rounding (to working
    /// precision).
    pub fn fma(&self, b: &BigFloat, c: &BigFloat) -> BigFloat {
        let prec = self.precision().max(b.precision()).max(c.precision());
        let work = (2 * prec + 64).min(MAX_PRECISION);
        self.with_precision(work)
            .mul(&b.with_precision(work))
            .add(&c.with_precision(work))
            .with_precision(prec)
    }

    /// Positive difference: max(self − other, 0).
    pub fn fdim(&self, other: &BigFloat) -> BigFloat {
        let prec = self.precision().max(other.precision());
        if self.is_nan() || other.is_nan() {
            return BigFloat::nan_at(prec);
        }
        let d = self.sub(other);
        if d.is_negative() {
            BigFloat::zero_at(false, prec)
        } else {
            d
        }
    }

    /// Minimum, ignoring NaN when the other operand is a number.
    pub fn fmin(&self, other: &BigFloat) -> BigFloat {
        if self.is_nan() {
            return other.clone();
        }
        if other.is_nan() {
            return self.clone();
        }
        if self.partial_cmp(other) == Some(std::cmp::Ordering::Greater) {
            other.clone()
        } else {
            self.clone()
        }
    }

    /// Maximum, ignoring NaN when the other operand is a number.
    pub fn fmax(&self, other: &BigFloat) -> BigFloat {
        if self.is_nan() {
            return other.clone();
        }
        if other.is_nan() {
            return self.clone();
        }
        if self.partial_cmp(other) == Some(std::cmp::Ordering::Less) {
            other.clone()
        } else {
            self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest acceptable relative error against the f64 libm reference for a
    /// well-conditioned point: a few ulps of double precision.
    const RTOL: f64 = 1e-13;

    fn close(a: f64, b: f64) -> bool {
        if a.is_nan() {
            return b.is_nan();
        }
        if a.is_infinite() || b.is_infinite() {
            return a == b;
        }
        let scale = a.abs().max(b.abs()).max(1e-300);
        (a - b).abs() / scale < RTOL
    }

    #[test]
    fn pi_matches_known_digits() {
        let pi = BigFloat::pi(256);
        assert!(close(pi.to_f64(), std::f64::consts::PI));
        // And the error versus the f64 constant should be at the f64 level,
        // not the BigFloat level (i.e. our pi is more precise).
        let diff = pi.sub(&BigFloat::from_f64(std::f64::consts::PI)).abs();
        assert!(diff.to_f64() < 1e-15);
        assert!(diff.to_f64() > 0.0);
    }

    #[test]
    fn ln2_matches_f64_constant() {
        assert!(close(BigFloat::ln2(256).to_f64(), std::f64::consts::LN_2));
    }

    #[test]
    fn exp_matches_libm_on_grid() {
        for &x in &[
            -50.0, -3.2, -1.0, -1e-8, 0.0, 1e-8, 0.5, 1.0, 2.0, 10.0, 100.0, 700.0,
        ] {
            let got = BigFloat::from_f64(x).exp().to_f64();
            assert!(close(got, x.exp()), "exp({x}) = {got} vs {}", x.exp());
        }
    }

    #[test]
    fn exp_reduces_arguments_past_the_f64_shortcut() {
        // Above 2^30 the multiple n of ln 2 comes from a division, and
        // above 2^53 it no longer fits an f64 exactly: the remainder must
        // still be below ln 2. ln is independent of exp's reduction.
        for x in [1e10, -1e10, 34359738368.3, 1e18, -1e18, 4.1e18] {
            let b = BigFloat::from_f64(x);
            let back = b.exp().ln();
            let rel = back.sub(&b).abs().div(&b.abs()).to_f64();
            assert!(rel < 1e-70, "ln(exp({x:e})) off by {rel:e}");
        }
    }

    #[test]
    fn exp_overflow_and_underflow() {
        assert!(
            BigFloat::from_f64(1e300).exp().is_infinite()
                || BigFloat::from_f64(1e300).exp().to_f64().is_infinite()
        );
        let tiny = BigFloat::from_f64(-1e300).exp();
        assert!(tiny.is_zero() || tiny.to_f64() == 0.0);
    }

    #[test]
    fn ln_matches_libm_on_grid() {
        for &x in &[1e-300, 1e-8, 0.5, 1.0, 1.5, 2.0, 10.0, 1e8, 1e300] {
            let got = BigFloat::from_f64(x).ln().to_f64();
            assert!(close(got, x.ln()), "ln({x}) = {got} vs {}", x.ln());
        }
        assert!(BigFloat::from_f64(-1.0).ln().is_nan());
        assert!(BigFloat::zero().ln().is_infinite());
    }

    #[test]
    fn exp_ln_roundtrip_is_tight() {
        let x = BigFloat::from_f64(7.25);
        let roundtrip = x.exp().ln();
        let err = roundtrip.sub(&x).abs().to_f64();
        assert!(err < 1e-60, "roundtrip error {err}");
    }

    #[test]
    #[allow(clippy::approx_constant)] // near-π grid points, deliberately inexact
    fn trig_matches_libm_on_grid() {
        for &x in &[
            -10.0, -1.5, -0.7, -1e-9, 0.0, 1e-9, 0.5, 1.0, 1.5707, 3.0, 6.28, 100.0,
        ] {
            let b = BigFloat::from_f64(x);
            assert!(close(b.sin().to_f64(), x.sin()), "sin({x})");
            assert!(close(b.cos().to_f64(), x.cos()), "cos({x})");
            assert!(close(b.tan().to_f64(), x.tan()), "tan({x})");
        }
    }

    #[test]
    fn trig_handles_large_arguments() {
        // Argument reduction must stay accurate for large inputs.
        for &x in &[1e10, 1e15, 1e20] {
            let got = BigFloat::from_f64(x).sin().to_f64();
            let expect = x.sin();
            assert!(close(got, expect), "sin({x}) = {got} vs {expect}");
        }
    }

    #[test]
    fn inverse_trig_matches_libm() {
        for &x in &[-0.99, -0.5, -1e-8, 0.0, 1e-8, 0.3, 0.7, 0.99, 1.0] {
            let b = BigFloat::from_f64(x);
            assert!(close(b.asin().to_f64(), x.asin()), "asin({x})");
            assert!(close(b.acos().to_f64(), x.acos()), "acos({x})");
        }
        for &x in &[-1e6, -3.0, -1.0, 0.0, 0.5, 1.0, 3.0, 1e6] {
            assert!(
                close(BigFloat::from_f64(x).atan().to_f64(), x.atan()),
                "atan({x})"
            );
        }
        assert!(BigFloat::from_f64(1.5).asin().is_nan());
    }

    #[test]
    fn atan2_quadrants() {
        let cases = [
            (1.0, 1.0),
            (1.0, -1.0),
            (-1.0, 1.0),
            (-1.0, -1.0),
            (0.0, 1.0),
            (0.0, -1.0),
            (1.0, 0.0),
            (-1.0, 0.0),
            (2.5, -3.5),
        ];
        for (y, x) in cases {
            let got = BigFloat::from_f64(y).atan2(&BigFloat::from_f64(x)).to_f64();
            let expect = y.atan2(x);
            assert!(close(got, expect), "atan2({y},{x}) = {got} vs {expect}");
        }
    }

    #[test]
    fn hyperbolic_matches_libm() {
        for &x in &[-5.0, -1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 5.0, 20.0] {
            let b = BigFloat::from_f64(x);
            assert!(close(b.sinh().to_f64(), x.sinh()), "sinh({x})");
            assert!(close(b.cosh().to_f64(), x.cosh()), "cosh({x})");
            assert!(close(b.tanh().to_f64(), x.tanh()), "tanh({x})");
        }
        for &x in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!(
                close(BigFloat::from_f64(x).asinh().to_f64(), x.asinh()),
                "asinh({x})"
            );
        }
        for &x in &[1.0, 1.5, 10.0] {
            assert!(
                close(BigFloat::from_f64(x).acosh().to_f64(), x.acosh()),
                "acosh({x})"
            );
        }
        for &x in &[-0.9, -0.5, 0.0, 0.5, 0.9] {
            assert!(
                close(BigFloat::from_f64(x).atanh().to_f64(), x.atanh()),
                "atanh({x})"
            );
        }
    }

    #[test]
    fn pow_matches_libm() {
        let cases = [
            (2.0, 10.0),
            (2.0, -3.0),
            (10.0, 0.5),
            (0.5, 100.0),
            (3.7, 2.2),
            (-2.0, 3.0),
            (-2.0, 2.0),
            (7.0, 0.0),
        ];
        for (x, y) in cases {
            let got = BigFloat::from_f64(x).pow(&BigFloat::from_f64(y)).to_f64();
            let expect = x.powf(y);
            assert!(close(got, expect), "pow({x},{y}) = {got} vs {expect}");
        }
        assert!(BigFloat::from_f64(-2.0)
            .pow(&BigFloat::from_f64(0.5))
            .is_nan());
    }

    #[test]
    fn expm1_and_log1p_accurate_for_tiny_arguments() {
        let x = 1e-20;
        let em = BigFloat::from_f64(x).expm1();
        assert!(close(em.to_f64(), x), "expm1 tiny");
        let lp = BigFloat::from_f64(x).log1p();
        assert!(close(lp.to_f64(), x), "log1p tiny");
        // And reasonable at moderate arguments too.
        assert!(close(
            BigFloat::from_f64(1.5).expm1().to_f64(),
            1.5f64.exp_m1()
        ));
        assert!(close(
            BigFloat::from_f64(1.5).log1p().to_f64(),
            1.5f64.ln_1p()
        ));
    }

    #[test]
    fn cancellation_prone_kernels_are_faithful() {
        // Each argument makes a naive formula cancel at 256 bits: rounding
        // e^x before subtracting 1 (8–16 ulps), rounding (1 + x)/(1 − x)
        // before the logarithm (~2^30 ulps), and ln(x + √(x² + 1)) for tiny
        // x (4–8 ulps).
        for (name, x) in [
            ("expm1", 2f64.powi(-5)),
            ("atanh", 1e-30),
            ("atanh", -1e-30),
            ("asinh", 1e-20),
        ] {
            let eval = |prec: u32| {
                let b = BigFloat::from_f64_prec(x, prec);
                match name {
                    "expm1" => b.expm1(),
                    "atanh" => b.atanh(),
                    _ => b.asinh(),
                }
            };
            let got = eval(256);
            let want = eval(1024).with_precision(256);
            let ulp = BigFloat::from_f64_prec(1.0, 64).scale_exp(want.exponent().unwrap() - 256);
            assert!(
                got.sub(&want).abs().partial_cmp(&ulp) != Some(std::cmp::Ordering::Greater),
                "{name}({x:e}) at 256 bits: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn cbrt_hypot_fdim() {
        assert!(close(BigFloat::from_f64(27.0).cbrt().to_f64(), 3.0));
        assert!(close(BigFloat::from_f64(-27.0).cbrt().to_f64(), -3.0));
        assert!(close(
            BigFloat::from_f64(3.0)
                .hypot(&BigFloat::from_f64(4.0))
                .to_f64(),
            5.0
        ));
        assert!(close(
            BigFloat::from_f64(1e300)
                .hypot(&BigFloat::from_f64(1e300))
                .to_f64(),
            (2.0f64).sqrt() * 1e300
        ));
        assert_eq!(
            BigFloat::from_f64(3.0)
                .fdim(&BigFloat::from_f64(5.0))
                .to_f64(),
            0.0
        );
        assert_eq!(
            BigFloat::from_f64(5.0)
                .fdim(&BigFloat::from_f64(3.0))
                .to_f64(),
            2.0
        );
    }

    #[test]
    fn fma_is_single_rounded() {
        // fma(1 + 2^-52, 1 + 2^-52, -1) exercises the extra intermediate bits.
        let a = 1.0 + f64::EPSILON;
        let got = BigFloat::from_f64(a)
            .fma(&BigFloat::from_f64(a), &BigFloat::from_f64(-1.0))
            .to_f64();
        let expect = f64::mul_add(a, a, -1.0);
        assert!(close(got, expect), "fma: {got} vs {expect}");
    }

    #[test]
    fn fmin_fmax_ignore_nan() {
        let nan = BigFloat::nan();
        let one = BigFloat::one();
        assert_eq!(nan.fmin(&one).to_f64(), 1.0);
        assert_eq!(one.fmax(&nan).to_f64(), 1.0);
        assert_eq!(
            BigFloat::from_f64(2.0)
                .fmin(&BigFloat::from_f64(-3.0))
                .to_f64(),
            -3.0
        );
    }

    #[test]
    fn exp2_log2_log10() {
        assert!(close(BigFloat::from_f64(10.0).exp2().to_f64(), 1024.0));
        assert!(close(BigFloat::from_f64(1024.0).log2().to_f64(), 10.0));
        assert!(close(BigFloat::from_f64(1000.0).log10().to_f64(), 3.0));
    }
}
