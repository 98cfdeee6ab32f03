//! The abstract value domain: an outward-rounded interval paired with a
//! relative-drift bound and exactness flags.
//!
//! Every memory address of the abstract machine is mapped to an [`AbsVal`]:
//!
//! * `[lo, hi]` — an interval guaranteed to contain both the *client* double
//!   and the *exact* real value at that address, for every in-range input
//!   and every loop iteration (endpoints are widened outward after every
//!   transfer, so double rounding cannot escape the box);
//! * `may_nan` — whether the value can be NaN (fail-closed: any operation
//!   whose domain edge cannot be excluded sets it);
//! * `err` — an upper bound on the *relative* drift `|client − exact| /
//!   |exact|` accumulated along the dataflow ([`AbsVal::UNKNOWN_ERR`] when
//!   no bound is known);
//! * `exact` — the client double *equals* the exact real (no rounding has
//!   occurred anywhere in its history);
//! * `int` — the value is additionally an integer (loop counters), which
//!   lets increments stay exact below 2⁵³.

/// The unit roundoff of IEEE double precision, `2⁻⁵³`.
pub const UNIT_ROUNDOFF: f64 = 1.1102230246251565e-16;

/// Largest magnitude for which `x ± 1` is still exact in double precision.
pub const EXACT_INT_LIMIT: f64 = 9007199254740992.0; // 2^53

/// Nudges a finite double one representable value toward `-∞`.
pub fn down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x > 0.0 {
        bits - 1
    } else if bits == 0 {
        // +0.0 → smallest negative subnormal.
        0x8000_0000_0000_0001
    } else {
        bits + 1
    };
    f64::from_bits(next)
}

/// Nudges a finite double one representable value toward `+∞`.
pub fn up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if bits == 0x8000_0000_0000_0000 {
        // -0.0 → smallest positive subnormal.
        1
    } else if x < 0.0 {
        bits - 1
    } else {
        bits + 1
    };
    f64::from_bits(next)
}

/// Nudges `n` values down (used to widen transcendental endpoint
/// evaluations whose libm rounding is not certified).
pub fn down_n(mut x: f64, n: u32) -> f64 {
    for _ in 0..n {
        x = down(x);
    }
    x
}

/// Nudges `n` values up.
pub fn up_n(mut x: f64, n: u32) -> f64 {
    for _ in 0..n {
        x = up(x);
    }
    x
}

/// An abstract value: interval × NaN flag × relative drift × exactness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbsVal {
    /// Lower interval endpoint (may be `-∞`).
    pub lo: f64,
    /// Upper interval endpoint (may be `+∞`).
    pub hi: f64,
    /// The value may be NaN.
    pub may_nan: bool,
    /// Upper bound on relative drift vs the exact real
    /// ([`AbsVal::UNKNOWN_ERR`] = no bound).
    pub err: f64,
    /// The client double equals the exact real.
    pub exact: bool,
    /// The value is an integer.
    pub int: bool,
}

impl AbsVal {
    /// Sentinel drift meaning "no bound known".
    pub const UNKNOWN_ERR: f64 = f64::INFINITY;

    /// The top element: anything at all.
    pub fn top() -> AbsVal {
        AbsVal {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            may_nan: true,
            err: Self::UNKNOWN_ERR,
            exact: false,
            int: false,
        }
    }

    /// An exact point value (a constant the client holds bit-for-bit).
    pub fn exact_point(x: f64) -> AbsVal {
        if x.is_nan() {
            return AbsVal {
                lo: f64::NAN,
                hi: f64::NAN,
                may_nan: true,
                err: 0.0,
                exact: true,
                int: false,
            };
        }
        AbsVal {
            lo: x,
            hi: x,
            may_nan: false,
            err: 0.0,
            exact: true,
            int: x.fract() == 0.0 && x.abs() <= EXACT_INT_LIMIT,
        }
    }

    /// An exact integer point value.
    pub fn exact_int(i: i64) -> AbsVal {
        let x = i as f64;
        AbsVal {
            lo: x,
            hi: x,
            may_nan: false,
            err: 0.0,
            exact: (i as f64 as i64) == i,
            int: true,
        }
    }

    /// An input known to lie in `[lo, hi]` (an exact double supplied by the
    /// client, so drift is zero).
    pub fn range(lo: f64, hi: f64) -> AbsVal {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return AbsVal::top();
        }
        AbsVal {
            lo,
            hi,
            may_nan: false,
            err: 0.0,
            exact: true,
            int: false,
        }
    }

    /// True when the interval excludes zero (strictly positive or strictly
    /// negative) and cannot be NaN.
    pub fn excludes_zero(&self) -> bool {
        !self.may_nan && (self.lo > 0.0 || self.hi < 0.0)
    }

    /// True when every value in the interval is finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite() && !self.lo.is_nan() && !self.hi.is_nan()
    }

    /// Largest absolute value in the interval.
    pub fn max_abs(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Smallest absolute value in the interval (0 when it straddles zero).
    pub fn min_abs(&self) -> f64 {
        if self.lo <= 0.0 && self.hi >= 0.0 {
            0.0
        } else {
            self.lo.abs().min(self.hi.abs())
        }
    }

    /// A bound on the drift known (finite) or not.
    pub fn has_err_bound(&self) -> bool {
        self.err.is_finite()
    }

    /// The least upper bound of two abstract values (interval hull, flag
    /// disjunction, drift maximum, exactness conjunction).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            may_nan: self.may_nan || other.may_nan,
            err: self.err.max(other.err),
            exact: self.exact && other.exact,
            int: self.int && other.int,
        }
    }

    /// True when `other` adds nothing to `self` (used to detect fixpoints).
    pub fn subsumes(&self, other: &AbsVal) -> bool {
        let lo_ok = self.lo <= other.lo || (self.lo.is_nan() && other.lo.is_nan());
        let hi_ok = self.hi >= other.hi || (self.hi.is_nan() && other.hi.is_nan());
        lo_ok
            && hi_ok
            && (self.may_nan || !other.may_nan)
            && (self.err >= other.err || (self.err.is_nan() && other.err.is_nan()))
            && (!self.exact || other.exact)
            && (!self.int || other.int)
    }

    /// Widens `self` so that repeated joins converge quickly: each unstable
    /// endpoint jumps outward to the next rung of a fixed ladder, drift
    /// becomes unknown unless both sides already agree, and exactness is
    /// kept only when both sides are exact integers inside `±2⁵³` (the loop
    /// counter case — a counter that has been joined over several
    /// iterations still steps exactly, so widening must not poison it).
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        let joined = self.join(next);
        let lo = if joined.lo < self.lo {
            widen_down(joined.lo)
        } else {
            joined.lo
        };
        let hi = if joined.hi > self.hi {
            widen_up(joined.hi)
        } else {
            joined.hi
        };
        let exact = joined.exact && joined.int && lo >= -EXACT_INT_LIMIT && hi <= EXACT_INT_LIMIT;
        AbsVal {
            lo,
            hi,
            may_nan: joined.may_nan,
            err: if joined.err == self.err {
                joined.err
            } else {
                Self::UNKNOWN_ERR
            },
            exact,
            int: joined.int,
        }
    }
}

/// The widening ladder: symmetric magnitude rungs including exactly `2⁵³`
/// (so integer loop counters widen to a box that still certifies exact
/// increments) and infinity as the final rung.
const LADDER: [f64; 10] = [
    0.0,
    1.0,
    16.0,
    1024.0,
    1048576.0,              // 2^20
    4294967296.0,           // 2^32
    EXACT_INT_LIMIT,        // 2^53
    1.3407807929942597e154, // 2^512
    8.98846567431158e307,   // ~2^1023
    f64::INFINITY,
];

fn widen_up(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    for rung in LADDER {
        if x <= rung {
            return rung;
        }
    }
    f64::INFINITY
}

fn widen_down(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    for rung in LADDER {
        if x >= -rung {
            return -rung;
        }
    }
    f64::NEG_INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nudges_are_one_ulp_and_directed() {
        assert!(down(1.0) < 1.0);
        assert!(up(1.0) > 1.0);
        assert_eq!(up(down(1.0)), 1.0);
        assert!(up(0.0) > 0.0);
        assert!(down(0.0) < 0.0);
        assert!(up(-0.0) > 0.0);
        assert_eq!(up(f64::INFINITY), f64::INFINITY);
        assert_eq!(down(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn exact_point_flags() {
        let v = AbsVal::exact_point(3.0);
        assert!(v.exact && v.int && !v.may_nan);
        let w = AbsVal::exact_point(0.5);
        assert!(w.exact && !w.int);
        assert!(AbsVal::exact_point(f64::NAN).may_nan);
    }

    #[test]
    fn join_is_hull_and_conjunction() {
        let a = AbsVal::exact_point(1.0);
        let b = AbsVal::range(2.0, 3.0);
        let j = a.join(&b);
        assert_eq!((j.lo, j.hi), (1.0, 3.0));
        assert!(j.exact); // both sides exact
        assert!(!j.int); // range is not known integral
        assert!(j.subsumes(&a) && j.subsumes(&b));
    }

    #[test]
    fn widening_reaches_a_ladder_rung_and_keeps_counter_exactness() {
        let a = AbsVal::exact_int(1);
        let b = AbsVal::exact_int(2);
        let w = a.widen(&b);
        assert!(w.hi >= 2.0 && w.hi <= 16.0);
        assert!(w.exact && w.int, "loop counters must stay exact: {w:?}");
        // A float range widens without exactness.
        let c = AbsVal::range(0.0, 1.0);
        let d = AbsVal::range(0.0, 2.0e160);
        let w2 = c.widen(&d);
        assert!(w2.hi >= 2.0e160);
        assert!(!w2.exact);
    }

    #[test]
    fn widening_is_monotone_and_terminates() {
        let mut v = AbsVal::exact_point(0.0);
        for i in 0..200 {
            let next = AbsVal::range(-(i as f64) * 1e3, (i as f64) * 1e307);
            let w = v.widen(&next);
            assert!(w.subsumes(&v) && w.subsumes(&next));
            if w == v {
                break;
            }
            v = w;
        }
        // After enough rounds the ladder tops out (the final finite rung
        // subsumes every later input, so the loop reaches a fixpoint there).
        assert!(v.hi >= 8.9e307, "ladder should top out, got {}", v.hi);
    }

    #[test]
    fn min_max_abs() {
        let v = AbsVal::range(-2.0, 8.0);
        assert_eq!(v.max_abs(), 8.0);
        assert_eq!(v.min_abs(), 0.0);
        let w = AbsVal::range(3.0, 5.0);
        assert_eq!(w.min_abs(), 3.0);
        assert!(w.excludes_zero());
        assert!(!v.excludes_zero());
    }
}
