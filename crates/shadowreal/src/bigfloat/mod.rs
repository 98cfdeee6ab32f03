//! Arbitrary-precision binary floating point, the shadow-real substrate.
//!
//! [`BigFloat`] plays the role of MPFR in the original Herbgrind: every
//! double in the client program is shadowed by a `BigFloat` with a much wider
//! mantissa (256 bits by default, configurable via
//! [`set_default_precision`]), so that rounding error in the client is
//! visible as a difference between the client value and the rounded shadow.
//!
//! The implementation is self-contained (no external bignum dependency). A
//! finite value is `(-1)^sign * f * 2^exp` with the fraction `f` in
//! `[0.5, 1)` stored as a little-endian limb buffer whose top bit is set.
//! Mantissas up to four limbs (256 bits, the default precision) are stored
//! inline — no heap allocation — with a heap fallback for wider precisions;
//! the arithmetic kernels work in place on fixed-size stack scratch windows,
//! so steady-state add/sub/mul/round at default precision never allocates
//! (see `limbs::SmallBuf` and the allocation-counting integration test).
//! Arithmetic is *faithfully* rounded: results are within one unit in the
//! last place of the working precision, which is orders of magnitude more
//! accurate than required to measure error in double-precision clients.

mod functions;
mod limbs;
mod newton;

use limbs::{Limbs, Scratch};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

/// The default mantissa precision, in bits, for newly created values.
static DEFAULT_PRECISION: AtomicU32 = AtomicU32::new(256);

/// Smallest supported mantissa precision in bits.
pub const MIN_PRECISION: u32 = 64;
/// Largest supported mantissa precision in bits.
pub const MAX_PRECISION: u32 = 16384;

/// Sets the default mantissa precision (in bits) used by [`BigFloat::from_f64`]
/// and friends. Clamped to `[MIN_PRECISION, MAX_PRECISION]`.
///
/// This mirrors Herbgrind's `--precision` flag (default 1000 bits in the
/// paper; 256 here, which is ample for measuring error in 53-bit clients).
pub fn set_default_precision(bits: u32) {
    let clamped = bits.clamp(MIN_PRECISION, MAX_PRECISION);
    DEFAULT_PRECISION.store(clamped, AtomicOrdering::Relaxed);
}

/// Returns the current default mantissa precision in bits.
pub fn default_precision() -> u32 {
    DEFAULT_PRECISION.load(AtomicOrdering::Relaxed)
}

/// Test support (debug builds only): forces every newly created limb buffer
/// onto the heap, so the inline (≤ 256-bit) and heap-fallback code paths can
/// be compared bit for bit at the same precision. Not compiled into release
/// builds; has no effect on values created before the switch.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn set_force_heap_limbs(on: bool) {
    limbs::FORCE_HEAP.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Test support (debug builds only): routes every operation through the
/// general kernels, bypassing the unrolled 256-bit fast paths, so the two
/// can be compared bit for bit. Not compiled into release builds.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn set_disable_fast_paths(on: bool) {
    DISABLE_FAST_PATHS.store(on, std::sync::atomic::Ordering::Relaxed);
}

#[cfg(debug_assertions)]
static DISABLE_FAST_PATHS: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

#[inline]
fn fast_paths_enabled() -> bool {
    #[cfg(debug_assertions)]
    {
        !DISABLE_FAST_PATHS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        true
    }
}

/// An arbitrary-precision binary floating-point number.
///
/// See the [module documentation](self) for the representation. All
/// operations are non-destructive and return new values; the result precision
/// of a binary operation is the larger of the operand precisions.
#[derive(Clone, Debug)]
pub struct BigFloat {
    repr: Repr,
}

/// Internal representation. Zeros, infinities and NaN carry no mantissa, but
/// they do carry the precision they were created at: an analysis that threads
/// a non-default `shadow_precision` through its leaves must see that
/// precision propagate through special-value chains (`exp(0)`, `atan(∞)`, …)
/// exactly like finite ones, without consulting the process-global default.
#[derive(Clone, Debug)]
enum Repr {
    Zero { neg: bool, prec: u32 },
    Finite(Finite),
    Inf { neg: bool, prec: u32 },
    Nan { prec: u32 },
}

#[derive(Clone, Debug)]
struct Finite {
    neg: bool,
    /// Binary exponent: the value is `fraction * 2^exp` with fraction in [0.5, 1).
    exp: i64,
    /// Little-endian limbs of the fraction; the top bit of the last limb is
    /// set. Inline storage for precisions up to 256 bits ([`limbs::Limbs`]).
    limbs: Limbs,
    /// Mantissa precision in bits.
    prec: u32,
}

fn limbs_for(prec: u32) -> usize {
    (prec as usize).div_ceil(64)
}

impl Finite {
    /// Rounds a (normalized, top-bit-set) limb buffer to `prec` bits using
    /// round-to-nearest-even with a sticky flag for already-dropped bits.
    ///
    /// The source slice is read in place (it is a scratch window or another
    /// mantissa); the only storage created is the kept mantissa itself, which
    /// is inline for precisions up to 256 bits.
    #[inline]
    fn round(neg: bool, src: &[u64], mut exp: i64, prec: u32, mut sticky: bool) -> Repr {
        debug_assert!(!src.is_empty());
        debug_assert!(src.last().map(|l| l >> 63 == 1).unwrap_or(false));
        let nl = limbs_for(prec);
        let extra_low_bits = (nl as u32) * 64 - prec;
        // Copy the top `nl` limbs of `src` into the kept mantissa; a shorter
        // source is top-aligned with zero-filled low limbs.
        let mut kept = Limbs::zeroed(nl);
        if src.len() >= nl {
            kept.as_mut_slice().copy_from_slice(&src[src.len() - nl..]);
        } else {
            kept.as_mut_slice()[nl - src.len()..].copy_from_slice(src);
        }
        let drop_limbs = src.len().saturating_sub(nl);
        // Total number of low bits that must be cleared/dropped. The dropped
        // bits live in `src` when it is longer than the target, otherwise in
        // the (not yet masked) low bits of the kept copy.
        let p = (drop_limbs as u64) * 64 + extra_low_bits as u64;
        let mut round_bit = false;
        if p > 0 {
            let view: &[u64] = if src.len() >= nl { src } else { &kept };
            let rb_index = p - 1;
            let rb_limb = (rb_index / 64) as usize;
            let rb_off = (rb_index % 64) as u32;
            round_bit = (view[rb_limb] >> rb_off) & 1 == 1;
            // Sticky: any set bit strictly below the round bit.
            'outer: for (i, &l) in view.iter().enumerate().take(rb_limb + 1) {
                let masked = if i == rb_limb {
                    if rb_off == 0 {
                        0
                    } else {
                        l & ((1u64 << rb_off) - 1)
                    }
                } else {
                    l
                };
                if masked != 0 {
                    sticky = true;
                    break 'outer;
                }
            }
        }
        let k = kept.as_mut_slice();
        if extra_low_bits > 0 {
            k[0] &= !((1u64 << extra_low_bits) - 1);
        }
        // Round to nearest, ties to even.
        let lsb_set = (k[0] >> extra_low_bits) & 1 == 1;
        if round_bit && (sticky || lsb_set) {
            let carry = limbs::add_bit_in_place(k, extra_low_bits);
            if carry {
                // Mantissa overflowed to 1.0: renormalize to 0.5 * 2^(exp+1).
                for l in k.iter_mut() {
                    *l = 0;
                }
                k[nl - 1] = 1u64 << 63;
                exp += 1;
            }
        }
        if limbs::is_zero(&kept) {
            return Repr::Zero { neg, prec };
        }
        Repr::Finite(Finite {
            neg,
            exp,
            limbs: kept,
            prec,
        })
    }

    /// Normalizes a possibly denormalized limb buffer (top bit not set) by
    /// shifting left in place and adjusting the exponent, then rounds.
    #[inline]
    fn normalize_and_round(
        neg: bool,
        buf: &mut [u64],
        mut exp: i64,
        prec: u32,
        sticky: bool,
    ) -> Repr {
        if limbs::is_zero(buf) {
            return Repr::Zero { neg, prec };
        }
        let lz = limbs::leading_zeros(buf);
        if lz > 0 {
            limbs::shl_in_place(buf, lz);
            exp -= lz as i64;
        }
        Finite::round(neg, buf, exp, prec, sticky)
    }
}

impl BigFloat {
    // ----- constructors -----

    /// Creates a value from a double, exactly, at the default precision.
    pub fn from_f64(x: f64) -> Self {
        Self::from_f64_prec(x, default_precision())
    }

    /// Creates a value from a double, exactly, at the given precision.
    pub fn from_f64_prec(x: f64, prec: u32) -> Self {
        let prec = prec.clamp(MIN_PRECISION, MAX_PRECISION);
        if x.is_nan() {
            return BigFloat {
                repr: Repr::Nan { prec },
            };
        }
        if x.is_infinite() {
            return BigFloat {
                repr: Repr::Inf { neg: x < 0.0, prec },
            };
        }
        if x == 0.0 {
            return BigFloat {
                repr: Repr::Zero {
                    neg: x.is_sign_negative(),
                    prec,
                },
            };
        }
        let bits = x.to_bits();
        let neg = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & 0x000f_ffff_ffff_ffff;
        let (sig, pow): (u64, i64) = if biased == 0 {
            // Subnormal: value = frac * 2^-1074
            (frac, -1074)
        } else {
            ((1u64 << 52) | frac, biased - 1075)
        };
        // value = sig * 2^pow; normalize so fraction is in [0.5, 1).
        let sig_bits = 64 - sig.leading_zeros() as i64;
        let exp = pow + sig_bits;
        let mut limbs = Limbs::zeroed(limbs_for(prec));
        let top = limbs.len() - 1;
        limbs[top] = sig << (64 - sig_bits);
        BigFloat {
            repr: Repr::Finite(Finite {
                neg,
                exp,
                limbs,
                prec,
            }),
        }
    }

    /// Creates a value from a signed 64-bit integer, exactly (precision is at
    /// least the default, widened if needed to hold the integer).
    pub fn from_i64(x: i64) -> Self {
        let prec = default_precision().max(64);
        if x == i64::MIN {
            // Avoid overflow on abs(): -2^63 is exactly representable in f64.
            return Self::from_f64_prec(x as f64, prec);
        }
        let neg = x < 0;
        let mag = x.unsigned_abs();
        if mag == 0 {
            return BigFloat {
                repr: Repr::Zero { neg: false, prec },
            };
        }
        let bits = 64 - mag.leading_zeros() as i64;
        let mut limbs = Limbs::zeroed(limbs_for(prec));
        let top = limbs.len() - 1;
        limbs[top] = mag << (64 - bits);
        BigFloat {
            repr: Repr::Finite(Finite {
                neg,
                exp: bits,
                limbs,
                prec,
            }),
        }
    }

    /// Positive zero at the default precision.
    pub fn zero() -> Self {
        BigFloat::zero_at(false, default_precision())
    }

    /// The value one at the default precision.
    pub fn one() -> Self {
        Self::from_i64(1)
    }

    /// Not-a-number.
    pub fn nan() -> Self {
        BigFloat::nan_at(default_precision())
    }

    /// Positive or negative infinity.
    pub fn infinity(negative: bool) -> Self {
        BigFloat::inf_at(negative, default_precision())
    }

    /// NaN carrying an explicit precision: operations stamp their result
    /// precision on special values exactly as they do on finite ones, so a
    /// threaded (non-default) shadow precision survives special-value chains.
    fn nan_at(prec: u32) -> Self {
        BigFloat {
            repr: Repr::Nan { prec },
        }
    }

    /// Zero of the given sign carrying an explicit precision.
    fn zero_at(neg: bool, prec: u32) -> Self {
        BigFloat {
            repr: Repr::Zero { neg, prec },
        }
    }

    /// Infinity of the given sign carrying an explicit precision.
    fn inf_at(neg: bool, prec: u32) -> Self {
        BigFloat {
            repr: Repr::Inf { neg, prec },
        }
    }

    // ----- accessors and classification -----

    /// The mantissa precision of this value in bits (the default precision
    /// for zeros, infinities and NaN).
    pub fn precision(&self) -> u32 {
        match &self.repr {
            Repr::Finite(f) => f.prec,
            Repr::Zero { prec, .. } | Repr::Inf { prec, .. } | Repr::Nan { prec } => *prec,
        }
    }

    /// Re-rounds this value to the given precision.
    pub fn with_precision(&self, prec: u32) -> Self {
        let prec = prec.clamp(MIN_PRECISION, MAX_PRECISION);
        match &self.repr {
            Repr::Finite(f) => BigFloat {
                repr: Finite::round(f.neg, &f.limbs, f.exp, prec, false),
            },
            Repr::Zero { neg, .. } => BigFloat::zero_at(*neg, prec),
            Repr::Inf { neg, .. } => BigFloat::inf_at(*neg, prec),
            Repr::Nan { .. } => BigFloat::nan_at(prec),
        }
    }

    /// True if this value is NaN.
    pub fn is_nan(&self) -> bool {
        matches!(self.repr, Repr::Nan { .. })
    }

    /// True if this value is +∞ or -∞.
    pub fn is_infinite(&self) -> bool {
        matches!(self.repr, Repr::Inf { .. })
    }

    /// True if this value is finite (zero or a finite nonzero number).
    pub fn is_finite(&self) -> bool {
        matches!(self.repr, Repr::Zero { .. } | Repr::Finite(_))
    }

    /// True if this value is exactly zero (of either sign).
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Zero { .. })
    }

    /// True if the value is negative (including -0 and -∞); false for NaN.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Zero { neg, .. } | Repr::Inf { neg, .. } => *neg,
            Repr::Finite(f) => f.neg,
            Repr::Nan { .. } => false,
        }
    }

    /// The binary exponent of a finite nonzero value (value = f * 2^exp with
    /// f in [0.5, 1)); `None` otherwise.
    pub fn exponent(&self) -> Option<i64> {
        match &self.repr {
            Repr::Finite(f) => Some(f.exp),
            _ => None,
        }
    }

    // ----- conversion to f64 -----

    /// Rounds to the nearest double (round-to-nearest, ties-to-even).
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Nan { .. } => f64::NAN,
            Repr::Inf { neg, .. } => {
                if *neg {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            Repr::Zero { neg, .. } => {
                if *neg {
                    -0.0
                } else {
                    0.0
                }
            }
            Repr::Finite(f) => {
                let sign = if f.neg { -1.0 } else { 1.0 };
                if f.exp > 1024 {
                    return sign * f64::INFINITY;
                }
                if f.exp < -1100 {
                    return sign * 0.0;
                }
                // Extract the top 53 bits of the mantissa plus round/sticky.
                let total_bits = (f.limbs.len() as u64) * 64;
                let keep: u64 = 53;
                let top_limb = f.limbs[f.limbs.len() - 1];
                let mut m53: u64;
                let mut round = false;
                let mut sticky = false;
                if total_bits <= keep {
                    m53 = top_limb >> (64 - total_bits);
                    m53 <<= keep - total_bits;
                } else {
                    // Gather the top 53 bits across (at most) the top two limbs.
                    m53 = top_limb >> (64 - keep);
                    let drop = total_bits - keep;
                    // Round bit is the next bit below the kept ones.
                    let rb_index = drop - 1;
                    let rb_limb = (rb_index / 64) as usize;
                    let rb_off = (rb_index % 64) as u32;
                    round = (f.limbs[rb_limb] >> rb_off) & 1 == 1;
                    for (i, &l) in f.limbs.iter().enumerate().take(rb_limb + 1) {
                        let masked = if i == rb_limb {
                            if rb_off == 0 {
                                0
                            } else {
                                l & ((1u64 << rb_off) - 1)
                            }
                        } else {
                            l
                        };
                        if masked != 0 {
                            sticky = true;
                            break;
                        }
                    }
                }
                let mut exp = f.exp;
                // Subnormal target: fewer than 53 bits available below the
                // exponent floor. Shift m53 right accordingly.
                if exp < -1021 {
                    let shift = (-1021 - exp) as u64;
                    if shift >= 54 {
                        return sign * 0.0;
                    }
                    let lost_mask = (1u64 << shift) - 1;
                    let lost = m53 & lost_mask;
                    if lost != 0 {
                        // Fold previously computed round bit into sticky.
                        sticky = sticky || round || (lost & !(1 << (shift - 1))) != 0;
                        round = (lost >> (shift - 1)) & 1 == 1;
                    } else {
                        sticky = sticky || round;
                        round = false;
                    }
                    m53 >>= shift;
                    exp += shift as i64;
                }
                if round && (sticky || m53 & 1 == 1) {
                    m53 += 1;
                    if m53 == 1u64 << 53 {
                        m53 >>= 1;
                        exp += 1;
                        if exp > 1024 {
                            return sign * f64::INFINITY;
                        }
                    }
                }
                // value = m53 * 2^(exp - 53); both factors exact in f64.
                let scale = exp - 53;
                let result = if (-1022..=1023).contains(&scale) {
                    (m53 as f64) * f64::from_bits(((scale + 1023) as u64) << 52)
                } else {
                    // Extreme scale: split the scaling in two exact halves.
                    let half = scale / 2;
                    let rest = scale - half;
                    (m53 as f64) * pow2(half) * pow2(rest)
                };
                sign * result
            }
        }
    }

    // ----- sign operations -----

    /// Negation.
    pub fn neg(&self) -> Self {
        let repr = match &self.repr {
            Repr::Nan { prec } => Repr::Nan { prec: *prec },
            Repr::Inf { neg, prec } => Repr::Inf {
                neg: !neg,
                prec: *prec,
            },
            Repr::Zero { neg, prec } => Repr::Zero {
                neg: !neg,
                prec: *prec,
            },
            Repr::Finite(f) => Repr::Finite(Finite {
                neg: !f.neg,
                ..f.clone()
            }),
        };
        BigFloat { repr }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        if self.is_negative() {
            self.neg()
        } else {
            self.clone()
        }
    }

    /// Returns a value with the magnitude of `self` and the sign of `sign`.
    pub fn copysign(&self, sign: &Self) -> Self {
        if self.is_negative() == sign.is_negative() {
            self.clone()
        } else {
            self.neg()
        }
    }

    // ----- comparison -----

    /// Compares magnitudes of two finite nonzero values.
    fn cmp_abs_finite(a: &Finite, b: &Finite) -> Ordering {
        match a.exp.cmp(&b.exp) {
            Ordering::Equal => {
                // Both mantissas are top-aligned fractions in [0.5, 1);
                // compare from the most-significant limb down, padding the
                // shorter one with zero low limbs.
                limbs::cmp_top_aligned(&a.limbs, &b.limbs)
            }
            ord => ord,
        }
    }

    /// IEEE-style partial comparison; `None` if either operand is NaN.
    pub fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        use Repr::*;
        match (&self.repr, &other.repr) {
            (Nan { .. }, _) | (_, Nan { .. }) => None,
            (Zero { .. }, Zero { .. }) => Some(Ordering::Equal),
            (Inf { neg: a, .. }, Inf { neg: b, .. }) => Some(if a == b {
                Ordering::Equal
            } else if *a {
                Ordering::Less
            } else {
                Ordering::Greater
            }),
            (Inf { neg, .. }, _) => Some(if *neg {
                Ordering::Less
            } else {
                Ordering::Greater
            }),
            (_, Inf { neg, .. }) => Some(if *neg {
                Ordering::Greater
            } else {
                Ordering::Less
            }),
            (Zero { .. }, Finite(f)) => Some(if f.neg {
                Ordering::Greater
            } else {
                Ordering::Less
            }),
            (Finite(f), Zero { .. }) => Some(if f.neg {
                Ordering::Less
            } else {
                Ordering::Greater
            }),
            (Finite(a), Finite(b)) => {
                if a.neg != b.neg {
                    return Some(if a.neg {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    });
                }
                let mag = Self::cmp_abs_finite(a, b);
                Some(if a.neg { mag.reverse() } else { mag })
            }
        }
    }

    /// Numeric equality (`-0 == +0`, NaN never equal).
    pub fn eq_value(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }

    // ----- arithmetic -----

    /// Addition.
    pub fn add(&self, other: &Self) -> Self {
        use Repr::*;
        let prec = self.precision().max(other.precision());
        match (&self.repr, &other.repr) {
            (Nan { .. }, _) | (_, Nan { .. }) => BigFloat::nan_at(prec),
            (Inf { neg: a, .. }, Inf { neg: b, .. }) => {
                if a == b {
                    BigFloat::inf_at(*a, prec)
                } else {
                    BigFloat::nan_at(prec)
                }
            }
            (Inf { neg, .. }, _) | (_, Inf { neg, .. }) => BigFloat::inf_at(*neg, prec),
            (Zero { neg: a, .. }, Zero { neg: b, .. }) => BigFloat::zero_at(*a && *b, prec),
            (Zero { .. }, _) => other.with_precision(prec),
            (_, Zero { .. }) => self.with_precision(prec),
            (Finite(a), Finite(b)) => BigFloat {
                repr: Self::add_finite(a, b, prec),
            },
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    fn add_finite(a: &Finite, b: &Finite, prec: u32) -> Repr {
        let nl = a.limbs.len();
        if nl == b.limbs.len() && prec as usize == nl * 64 && fast_paths_enabled() {
            // Whole-limb precisions up to the default 256 bits take the
            // unrolled const-size window (NL limbs plus one guard limb).
            match nl {
                1 => return Self::add_finite_fast::<1, 2>(a, b),
                2 => return Self::add_finite_fast::<2, 3>(a, b),
                3 => return Self::add_finite_fast::<3, 4>(a, b),
                4 => return Self::add_finite_fast::<4, 5>(a, b),
                _ => {}
            }
        }
        // Working window: target precision plus one guard limb. The windows
        // are stack scratch buffers; nothing in this kernel allocates at
        // default precision.
        let wl = limbs_for(prec) + 1;
        // Ensure a is the operand with the larger exponent.
        let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
        let diff = (hi.exp - lo.exp) as u64;

        // Top-align: copy the source limbs into the top of the window.
        let widen_into = |dst: &mut [u64], src: &[u64]| {
            let offset = dst.len() - src.len().min(dst.len());
            let start = src.len().saturating_sub(dst.len());
            dst[offset..].copy_from_slice(&src[start..]);
        };

        let mut acc = Scratch::zeroed(wl);
        widen_into(&mut acc, &hi.limbs);

        if hi.neg == lo.neg {
            // Magnitude addition: fold the aligned low operand into the
            // window in a single fused pass.
            let (mut sticky, carry) = limbs::add_shifted_into(&mut acc, &lo.limbs, diff);
            let mut exp = hi.exp;
            if carry {
                sticky |= limbs::shr_in_place(&mut acc, 1);
                let top = acc.len() - 1;
                acc[top] |= 1u64 << 63;
                exp += 1;
            }
            Finite::normalize_and_round(hi.neg, &mut acc, exp, prec, sticky)
        } else {
            let mut small = Scratch::zeroed(wl);
            widen_into(&mut small, &lo.limbs);
            let sticky = limbs::shr_in_place(&mut small, diff);
            // Magnitude subtraction: result sign follows the larger
            // magnitude. An exponent gap of one or more means the shifted low
            // operand is strictly below 0.5 while the high one is at least
            // 0.5, so the compare is only needed for equal exponents.
            let ord = if diff == 0 {
                limbs::cmp(&acc, &small)
            } else {
                Ordering::Greater
            };
            match ord {
                Ordering::Equal => {
                    if sticky {
                        // acc - (small + epsilon) is a tiny negative-of-lo-sign value,
                        // far below working precision; approximate with signed zero.
                        Repr::Zero { neg: lo.neg, prec }
                    } else {
                        Repr::Zero { neg: false, prec }
                    }
                }
                Ordering::Greater => {
                    limbs::sub_in_place(&mut acc, &small);
                    Finite::normalize_and_round(hi.neg, &mut acc, hi.exp, prec, sticky)
                }
                Ordering::Less => {
                    limbs::sub_in_place(&mut small, &acc);
                    Finite::normalize_and_round(lo.neg, &mut small, hi.exp, prec, sticky)
                }
            }
        }
    }

    /// Multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        use Repr::*;
        let prec = self.precision().max(other.precision());
        let sign = self.is_negative() != other.is_negative();
        match (&self.repr, &other.repr) {
            (Nan { .. }, _) | (_, Nan { .. }) => BigFloat::nan_at(prec),
            (Inf { .. }, Zero { .. }) | (Zero { .. }, Inf { .. }) => BigFloat::nan_at(prec),
            (Inf { .. }, _) | (_, Inf { .. }) => BigFloat::inf_at(sign, prec),
            (Zero { .. }, _) | (_, Zero { .. }) => BigFloat::zero_at(sign, prec),
            (Finite(a), Finite(b)) => {
                let nl = a.limbs.len();
                if nl == b.limbs.len() && prec as usize == nl * 64 && fast_paths_enabled() {
                    let fast = match nl {
                        1 => Some(Self::mul_finite_fast::<1, 2>(a, b, sign)),
                        2 => Some(Self::mul_finite_fast::<2, 4>(a, b, sign)),
                        3 => Some(Self::mul_finite_fast::<3, 6>(a, b, sign)),
                        4 => Some(Self::mul_finite_fast::<4, 8>(a, b, sign)),
                        _ => None,
                    };
                    if let Some(repr) = fast {
                        return BigFloat { repr };
                    }
                }
                // The double-width product lives in a stack scratch window.
                let mut product = Scratch::zeroed(a.limbs.len() + b.limbs.len());
                limbs::mul_into(&mut product, &a.limbs, &b.limbs);
                let exp = a.exp + b.exp;
                BigFloat {
                    repr: crate::bigfloat::Finite::normalize_and_round(
                        sign,
                        &mut product,
                        exp,
                        prec,
                        false,
                    ),
                }
            }
        }
    }

    /// Division.
    pub fn div(&self, other: &Self) -> Self {
        use Repr::*;
        let prec = self.precision().max(other.precision());
        let sign = self.is_negative() != other.is_negative();
        match (&self.repr, &other.repr) {
            (Nan { .. }, _) | (_, Nan { .. }) => BigFloat::nan_at(prec),
            (Inf { .. }, Inf { .. }) => BigFloat::nan_at(prec),
            (Zero { .. }, Zero { .. }) => BigFloat::nan_at(prec),
            (Inf { .. }, _) => BigFloat::inf_at(sign, prec),
            (_, Inf { .. }) => BigFloat::zero_at(sign, prec),
            (Zero { .. }, _) => BigFloat::zero_at(sign, prec),
            (_, Zero { .. }) => BigFloat::inf_at(sign, prec),
            (Finite(a), Finite(b)) => BigFloat {
                repr: newton::div_finite(a, b, prec, sign),
            },
        }
    }

    /// Addition fast path for whole-limb precisions: both operands carry
    /// exactly `NL` limbs and the result precision is `64·NL` bits, so the
    /// working window is an `NL + 1`-limb stack array whose length the
    /// compiler sees, letting it unroll the shift/add/round loops. (`WL`
    /// must be `NL + 1`; stable const generics cannot express the sum.)
    /// The logic is the general `add_finite` body verbatim; bit-identical
    /// results are pinned by the fast-path proptests
    /// (`set_disable_fast_paths`).
    fn add_finite_fast<const NL: usize, const WL: usize>(a: &Finite, b: &Finite) -> Repr {
        debug_assert!(a.limbs.len() == NL && b.limbs.len() == NL && WL == NL + 1);
        let prec = (NL * 64) as u32;
        let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
        let diff = (hi.exp - lo.exp) as u64;
        let mut acc = [0u64; WL];
        acc[1..].copy_from_slice(&hi.limbs);

        if hi.neg == lo.neg {
            // Magnitude addition: the top bit of the window stays set (the
            // high operand is normalized and magnitudes only grow), so the
            // normalize/round tail collapses to dropping the one guard limb.
            let (mut sticky, carry) = limbs::add_shifted_into(&mut acc, &lo.limbs, diff);
            let mut exp = hi.exp;
            if carry {
                sticky |= acc[0] & 1 == 1;
                for i in 0..NL {
                    acc[i] = (acc[i] >> 1) | (acc[i + 1] << 63);
                }
                acc[NL] = (acc[NL] >> 1) | (1u64 << 63);
                exp += 1;
            }
            let round_bit = acc[0] >> 63 == 1;
            let sticky = sticky || (acc[0] << 1) != 0;
            let mut kept = Limbs::zeroed(NL);
            let k = kept.as_mut_slice();
            k.copy_from_slice(&acc[1..]);
            if round_bit && (sticky || k[0] & 1 == 1) {
                let carry = limbs::add_bit_in_place(k, 0);
                if carry {
                    // Mantissa overflowed to 1.0: renormalize.
                    k[NL - 1] = 1u64 << 63;
                    exp += 1;
                }
            }
            Repr::Finite(Finite {
                neg: hi.neg,
                exp,
                limbs: kept,
                prec,
            })
        } else {
            let mut small = [0u64; WL];
            small[1..].copy_from_slice(&lo.limbs);
            let sticky = limbs::shr_in_place(&mut small, diff);
            let ord = if diff == 0 {
                limbs::cmp(&acc, &small)
            } else {
                Ordering::Greater
            };
            match ord {
                Ordering::Equal => {
                    if sticky {
                        Repr::Zero { neg: lo.neg, prec }
                    } else {
                        Repr::Zero { neg: false, prec }
                    }
                }
                Ordering::Greater => {
                    limbs::sub_in_place(&mut acc, &small);
                    Finite::normalize_and_round(hi.neg, &mut acc, hi.exp, prec, sticky)
                }
                Ordering::Less => {
                    limbs::sub_in_place(&mut small, &acc);
                    Finite::normalize_and_round(lo.neg, &mut small, hi.exp, prec, sticky)
                }
            }
        }
    }

    /// Multiplication fast path for whole-limb precisions: both operands
    /// carry exactly `NL` limbs and the result precision is `64·NL` bits,
    /// so the product is `TW = 2·NL` limbs, the leading-zero count is 0 or
    /// 1, and no partial low limb exists. Bit-identical to the general
    /// `mul_into`/`normalize_and_round` pipeline (checked by the
    /// `mul_fast_path_matches_general_pipeline` test); fully unrolled, no
    /// scratch window.
    fn mul_finite_fast<const NL: usize, const TW: usize>(
        a: &Finite,
        b: &Finite,
        sign: bool,
    ) -> Repr {
        debug_assert!(a.limbs.len() == NL && b.limbs.len() == NL && TW == 2 * NL);
        let prec = (NL * 64) as u32;
        let mut out = [0u64; TW];
        limbs::mul_comba::<NL>(&mut out, &a.limbs, &b.limbs);
        let mut exp = a.exp + b.exp;
        // Both fractions are in [0.5, 1), so the product is in [0.25, 1):
        // at most one normalization shift.
        if out[TW - 1] >> 63 == 0 {
            for i in (1..TW).rev() {
                out[i] = (out[i] << 1) | (out[i - 1] >> 63);
            }
            out[0] <<= 1;
            exp -= 1;
        }
        // Round to nearest, ties to even, dropping the low NL limbs.
        let round_bit = out[NL - 1] >> 63 == 1;
        let sticky = (out[NL - 1] << 1) != 0 || out[..NL - 1].iter().any(|&l| l != 0);
        let mut kept = Limbs::zeroed(NL);
        let k = kept.as_mut_slice();
        k.copy_from_slice(&out[NL..]);
        if round_bit && (sticky || k[0] & 1 == 1) {
            let carry = limbs::add_bit_in_place(k, 0);
            if carry {
                // Mantissa overflowed to 1.0: renormalize to 0.5 * 2^(exp+1).
                k[NL - 1] = 1u64 << 63;
                exp += 1;
            }
        }
        // The product of nonzero mantissas keeps its top bit after rounding,
        // so the zero case of the general path cannot occur here.
        Repr::Finite(Finite {
            neg: sign,
            exp,
            limbs: kept,
            prec,
        })
    }

    /// Square root (NaN for negative inputs, following IEEE 754).
    pub fn sqrt(&self) -> Self {
        use Repr::*;
        let prec = self.precision();
        match &self.repr {
            Nan { .. } => BigFloat::nan_at(prec),
            Zero { neg, .. } => BigFloat::zero_at(*neg, prec),
            Inf { neg: false, .. } => self.clone(),
            Inf { neg: true, .. } => BigFloat::nan_at(prec),
            Finite(f) if f.neg => BigFloat::nan_at(prec),
            Finite(f) => BigFloat {
                repr: newton::sqrt_finite(f, prec),
            },
        }
    }

    // ----- integer-related helpers -----

    /// Truncates toward zero to an integer-valued `BigFloat`.
    pub fn trunc(&self) -> Self {
        match &self.repr {
            Repr::Finite(f) => {
                if f.exp <= 0 {
                    return BigFloat::zero_at(f.neg, f.prec);
                }
                let total_bits = (f.limbs.len() as i64) * 64;
                if f.exp >= total_bits {
                    return self.clone();
                }
                // Clear all bits below the binary point (weight < 1), working
                // on a stack scratch copy of the mantissa.
                let frac_bits = (total_bits - f.exp) as u64;
                let mut limbs = Scratch::from_slice(&f.limbs);
                let whole_limbs = (frac_bits / 64) as usize;
                let rem = (frac_bits % 64) as u32;
                for l in limbs.iter_mut().take(whole_limbs) {
                    *l = 0;
                }
                if rem > 0 && whole_limbs < limbs.len() {
                    limbs[whole_limbs] &= !((1u64 << rem) - 1);
                }
                BigFloat {
                    repr: Finite::normalize_and_round(f.neg, &mut limbs, f.exp, f.prec, false),
                }
            }
            _ => self.clone(),
        }
    }

    /// Largest integer less than or equal to the value.
    pub fn floor(&self) -> Self {
        let t = self.trunc();
        if !self.is_negative() || t.eq_value(self) || !self.is_finite() {
            t
        } else {
            t.sub(&BigFloat::one())
        }
    }

    /// Smallest integer greater than or equal to the value.
    pub fn ceil(&self) -> Self {
        let t = self.trunc();
        if self.is_negative() || t.eq_value(self) || !self.is_finite() {
            t
        } else {
            t.add(&BigFloat::one())
        }
    }

    /// Rounds to the nearest integer, ties away from zero (like `f64::round`).
    pub fn round_nearest(&self) -> Self {
        if !self.is_finite() {
            return self.clone();
        }
        let half = BigFloat::from_f64_prec(0.5, self.precision());
        if self.is_negative() {
            self.sub(&half).ceil()
        } else {
            self.add(&half).floor()
        }
    }

    /// True if the value is a (mathematical) integer.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Zero { .. } => true,
            Repr::Finite(_) => self.trunc().eq_value(self),
            _ => false,
        }
    }

    /// Floating-point remainder with the sign of the dividend (like `fmod`).
    pub fn fmod(&self, other: &Self) -> Self {
        let prec = self.precision().max(other.precision());
        if self.is_nan() || other.is_nan() || other.is_zero() || self.is_infinite() {
            return BigFloat::nan_at(prec);
        }
        if other.is_infinite() || self.is_zero() {
            return self.clone();
        }
        // Work at enough precision to represent the (possibly huge) quotient.
        let extra = match (self.exponent(), other.exponent()) {
            (Some(ea), Some(eb)) if ea > eb => (ea - eb) as u32 + 64,
            _ => 64,
        };
        let work = (self.precision() + extra).min(MAX_PRECISION);
        let a = self.with_precision(work);
        let b = other.with_precision(work);
        let q = a.div(&b).trunc();
        a.sub(&q.mul(&b)).with_precision(self.precision())
    }
}

/// An exact power of two as a double (for scaling during conversion); the
/// exponent is clamped to the representable double range.
fn pow2(e: i64) -> f64 {
    if e >= 1024 {
        f64::INFINITY
    } else if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else {
        0.0
    }
}

impl PartialEq for BigFloat {
    fn eq(&self, other: &Self) -> bool {
        self.eq_value(other)
    }
}

impl Default for BigFloat {
    fn default() -> Self {
        BigFloat::zero()
    }
}

impl std::fmt::Display for BigFloat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:e}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(x: f64) {
        let b = BigFloat::from_f64(x);
        let back = b.to_f64();
        if x.is_nan() {
            assert!(back.is_nan());
        } else {
            assert_eq!(back.to_bits(), x.to_bits(), "roundtrip of {x:e}");
        }
    }

    #[test]
    fn f64_roundtrip_exact() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            std::f64::consts::PI,
            1e-300,
            1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0 + f64::EPSILON,
        ] {
            roundtrip(x);
        }
    }

    #[test]
    fn addition_matches_f64_when_exact() {
        let cases = [(1.0, 2.0), (0.5, 0.25), (3.0, -8.0), (1e10, 1e-3)];
        for (a, b) in cases {
            let s = BigFloat::from_f64(a).add(&BigFloat::from_f64(b));
            let expected = a + b;
            // Exactly representable sums must round back exactly.
            if (a + b) - a == b {
                assert_eq!(s.to_f64(), expected);
            } else {
                assert!((s.to_f64() - expected).abs() <= expected.abs() * 1e-15);
            }
        }
    }

    #[test]
    fn cancellation_is_exact_at_high_precision() {
        let x = BigFloat::from_f64(1.0e16);
        let one = BigFloat::one();
        let r = x.add(&one).sub(&x);
        assert_eq!(r.to_f64(), 1.0);
    }

    #[test]
    fn multiplication_matches_integers() {
        let a = BigFloat::from_i64(123456789);
        let b = BigFloat::from_i64(987654321);
        assert_eq!(a.mul(&b).to_f64(), 123456789.0 * 987654321.0);
    }

    #[test]
    fn division_accuracy() {
        let one = BigFloat::one();
        let three = BigFloat::from_i64(3);
        let third = one.div(&three);
        // 1/3 rounded back to double must equal the double division.
        assert_eq!(third.to_f64(), 1.0 / 3.0);
        // And multiplying back must be far closer to 1 than doubles can say.
        let back = third.mul(&three);
        assert!(back.sub(&one).abs().to_f64().abs() < 1e-60);
    }

    #[test]
    fn division_special_cases() {
        assert!(BigFloat::one().div(&BigFloat::zero()).is_infinite());
        assert!(BigFloat::zero().div(&BigFloat::zero()).is_nan());
        assert!(BigFloat::from_f64(-1.0)
            .div(&BigFloat::zero())
            .is_negative());
        assert!(BigFloat::zero().div(&BigFloat::one()).is_zero());
    }

    #[test]
    fn sqrt_accuracy() {
        let two = BigFloat::from_i64(2);
        let r = two.sqrt();
        assert_eq!(r.to_f64(), 2.0_f64.sqrt());
        let back = r.mul(&r).sub(&two).abs();
        assert!(back.to_f64() < 1e-70);
        assert!(BigFloat::from_f64(-4.0).sqrt().is_nan());
        assert_eq!(BigFloat::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert_eq!(BigFloat::from_f64(1e300).sqrt().to_f64(), 1e150);
    }

    #[test]
    fn mul_fast_path_matches_general_pipeline() {
        // Dense 256-bit mantissas (division and square-root results) exercise
        // the round-bit/sticky logic; the reference result is computed
        // through the general pipeline: the 512-bit product is exact, so
        // rounding it to 256 bits once is exactly what `mul` must produce.
        let mut vals = vec![
            BigFloat::one().div(&BigFloat::from_i64(3)),
            BigFloat::from_i64(2).sqrt(),
            BigFloat::from_i64(10).div(&BigFloat::from_i64(7)).neg(),
            BigFloat::from_f64(1.0 + f64::EPSILON),
            BigFloat::from_f64(1e300),
            BigFloat::from_f64(5e-324),
            BigFloat::from_f64(-0.7),
        ];
        let seed = BigFloat::from_i64(97).sqrt();
        for k in 1..8 {
            vals.push(seed.div(&BigFloat::from_i64(k)));
        }
        for a in &vals {
            for b in &vals {
                let fast = a.mul(b);
                let exact = a.with_precision(512).mul(&b.with_precision(512));
                let general = exact.with_precision(256);
                assert_eq!(fast.precision(), 256);
                assert!(
                    fast.eq_value(&general),
                    "mantissa mismatch: {} * {}",
                    a.to_f64(),
                    b.to_f64()
                );
                assert_eq!(fast.exponent(), general.exponent());
                assert_eq!(fast.to_f64().to_bits(), general.to_f64().to_bits());
            }
        }
    }

    #[test]
    fn comparison_ordering() {
        let vals = [-1e300, -2.0, -1e-300, 0.0, 1e-300, 1.0, 1e300];
        for (i, &a) in vals.iter().enumerate() {
            for (j, &b) in vals.iter().enumerate() {
                let ba = BigFloat::from_f64(a);
                let bb = BigFloat::from_f64(b);
                assert_eq!(
                    ba.partial_cmp(&bb),
                    a.partial_cmp(&b),
                    "compare {a} vs {b} ({i},{j})"
                );
            }
        }
        assert_eq!(BigFloat::nan().partial_cmp(&BigFloat::one()), None);
    }

    #[test]
    fn trunc_floor_ceil_round() {
        let check = |x: f64| {
            let b = BigFloat::from_f64(x);
            assert_eq!(b.trunc().to_f64(), x.trunc(), "trunc {x}");
            assert_eq!(b.floor().to_f64(), x.floor(), "floor {x}");
            assert_eq!(b.ceil().to_f64(), x.ceil(), "ceil {x}");
            assert_eq!(b.round_nearest().to_f64(), x.round(), "round {x}");
        };
        for x in [
            0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.5, -0.3, -0.5, -1.5, -2.5, 123456.789, -99999.999,
        ] {
            check(x);
        }
    }

    #[test]
    fn fmod_matches_f64() {
        let cases = [
            (7.5, 2.0),
            (-7.5, 2.0),
            (10.0, 3.0),
            (1e10, 7.0),
            (0.7, 0.2),
        ];
        for (a, b) in cases {
            let r = BigFloat::from_f64(a).fmod(&BigFloat::from_f64(b));
            let expect = a % b;
            assert!(
                (r.to_f64() - expect).abs() < 1e-9,
                "fmod({a},{b}) = {} expected {expect}",
                r.to_f64()
            );
        }
    }

    #[test]
    fn subnormal_conversion() {
        let tiny = 5e-324;
        assert_eq!(BigFloat::from_f64(tiny).to_f64(), tiny);
        let sub = 1.2e-310;
        assert_eq!(BigFloat::from_f64(sub).to_f64(), sub);
    }

    #[test]
    fn is_integer_detection() {
        assert!(BigFloat::from_f64(5.0).is_integer());
        assert!(BigFloat::from_f64(-3.0).is_integer());
        assert!(BigFloat::zero().is_integer());
        assert!(!BigFloat::from_f64(0.5).is_integer());
        assert!(!BigFloat::nan().is_integer());
        assert!(!BigFloat::infinity(false).is_integer());
    }

    #[test]
    fn precision_widening_and_narrowing() {
        let x = BigFloat::from_f64_prec(1.0 / 3.0, 128);
        assert_eq!(x.precision(), 128);
        let wide = x.with_precision(512);
        assert_eq!(wide.precision(), 512);
        assert_eq!(wide.to_f64(), 1.0 / 3.0);
    }

    #[test]
    fn default_precision_is_configurable() {
        let before = default_precision();
        set_default_precision(512);
        assert_eq!(default_precision(), 512);
        assert_eq!(BigFloat::from_f64(2.0).precision(), 512);
        set_default_precision(before);
    }

    #[test]
    fn special_values_carry_their_precision() {
        // Zeros, infinities and NaN remember the precision they were created
        // at, and operations stamp their result precision on special results
        // — so a threaded (non-default) shadow precision survives
        // special-value chains instead of falling back to the global default.
        let zero = BigFloat::from_f64_prec(0.0, 1024);
        assert_eq!(zero.precision(), 1024);
        assert_eq!(zero.exp().precision(), 1024); // exp(0) = 1 @ 1024 bits
        assert_eq!(zero.exp().sin().precision(), 1024);
        let inf = BigFloat::from_f64_prec(f64::INFINITY, 512);
        assert_eq!(inf.precision(), 512);
        assert_eq!(inf.atan().precision(), 512); // atan(∞) = π/2 @ 512 bits
        assert_eq!(BigFloat::from_f64_prec(f64::NAN, 512).precision(), 512);
        // Binary operations propagate the larger operand precision through
        // special results exactly like finite ones.
        let wide_finite = BigFloat::from_f64_prec(1.5, 320);
        assert_eq!(wide_finite.mul(&zero).precision(), 1024);
        assert_eq!(wide_finite.div(&zero).precision(), 1024);
        // Re-rounding stamps specials too.
        assert_eq!(zero.with_precision(128).precision(), 128);
        assert_eq!(inf.neg().precision(), 512);
        // Functions that *produce* specials stamp the operand precision.
        assert_eq!(BigFloat::from_f64_prec(1.0, 512).atanh().precision(), 512);
        assert_eq!(BigFloat::from_f64_prec(0.0, 512).ln().precision(), 512);
    }

    #[test]
    fn signed_zero_behaviour() {
        let nz = BigFloat::from_f64(-0.0);
        assert!(nz.is_zero());
        assert!(nz.is_negative());
        assert!(nz.eq_value(&BigFloat::zero()));
        assert_eq!(nz.to_f64().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn infinity_arithmetic() {
        let inf = BigFloat::infinity(false);
        assert!(inf.add(&BigFloat::one()).is_infinite());
        assert!(inf.sub(&inf).is_nan());
        assert!(inf.mul(&BigFloat::zero()).is_nan());
        assert!(BigFloat::one().div(&inf).is_zero());
    }
}
