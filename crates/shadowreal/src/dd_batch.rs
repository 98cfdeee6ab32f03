//! Lane-vectorized [`DoubleDouble`] arithmetic.
//!
//! The analysis's lane-parallel local-error probe evaluates a whole lane
//! group's shadow operation in one call. [`DdLanes`] holds a group of
//! double-doubles struct-of-arrays (`hi` and `lo` lane arrays), and the
//! kernels here apply the error-free transformations elementwise over those
//! arrays — plain contiguous loops of branch-free float arithmetic that the
//! compiler auto-vectorizes.
//!
//! **Every kernel is bit-identical, per lane, to the scalar
//! [`DoubleDouble`] operation**: it executes exactly the same floating-point
//! operation sequence, and the branchy special cases of division and square
//! root (non-finite quotients, negative radicands, zero) are reproduced by
//! computing the branch-free main path for all lanes and then patching the
//! special lanes with the scalar path's exact results. The agreement tests
//! below pin this down over the full operation set, and the analysis relies
//! on it: the probe's lane values must be exactly the ones the full
//! `DoubleDouble` analysis computes with the scalar kernels.

// The kernels below intentionally index several lane arrays with one loop
// variable: each iteration is one lane of a lockstep SIMD operation, and the
// index-parallel form keeps the loops in the shape the auto-vectorizer
// recognizes while mirroring the scalar operation sequence line for line.
#![allow(clippy::needless_range_loop)]

use crate::dd::{quick_two_sum, two_prod, two_sum};
use crate::{DoubleDouble, RealOp, MAX_ARITY};

/// A lane group of double-doubles, struct-of-arrays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DdLanes<const W: usize> {
    /// The leading components, one per lane.
    pub hi: [f64; W],
    /// The correction components, one per lane.
    pub lo: [f64; W],
}

impl<const W: usize> Default for DdLanes<W> {
    fn default() -> Self {
        DdLanes {
            hi: [0.0; W],
            lo: [0.0; W],
        }
    }
}

impl<const W: usize> DdLanes<W> {
    /// All lanes zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Broadcasts one double-double to every lane.
    pub fn splat(value: DoubleDouble) -> Self {
        DdLanes {
            hi: [value.hi(); W],
            lo: [value.lo(); W],
        }
    }

    /// Builds a lane group from exact doubles (`lo = 0`).
    pub fn from_f64_lanes(values: &[f64; W]) -> Self {
        DdLanes {
            hi: *values,
            lo: [0.0; W],
        }
    }

    /// Gathers a lane group from scalar double-doubles.
    pub fn from_scalars(values: &[DoubleDouble; W]) -> Self {
        let mut lanes = Self::zero();
        for (l, v) in values.iter().enumerate() {
            lanes.hi[l] = v.hi();
            lanes.lo[l] = v.lo();
        }
        lanes
    }

    /// The scalar double-double in lane `l`.
    #[inline]
    pub fn get(&self, l: usize) -> DoubleDouble {
        DoubleDouble::raw(self.hi[l], self.lo[l])
    }

    /// Stores a scalar double-double into lane `l`.
    #[inline]
    pub fn set(&mut self, l: usize, value: DoubleDouble) {
        self.hi[l] = value.hi();
        self.lo[l] = value.lo();
    }

    /// Scatters the lanes to scalar double-doubles.
    pub fn to_scalars(&self) -> [DoubleDouble; W] {
        std::array::from_fn(|l| self.get(l))
    }
}

/// Lane-wise addition (the scalar `add` per lane).
pub fn add<const W: usize>(a: &DdLanes<W>, b: &DdLanes<W>) -> DdLanes<W> {
    let mut out = DdLanes::zero();
    for l in 0..W {
        let (s, e) = two_sum(a.hi[l], b.hi[l]);
        let e = e + a.lo[l] + b.lo[l];
        let (hi, lo) = quick_two_sum(s, e);
        out.hi[l] = hi;
        out.lo[l] = lo;
    }
    out
}

/// Lane-wise negation.
pub fn neg<const W: usize>(a: &DdLanes<W>) -> DdLanes<W> {
    let mut out = DdLanes::zero();
    for l in 0..W {
        out.hi[l] = -a.hi[l];
        out.lo[l] = -a.lo[l];
    }
    out
}

/// Lane-wise subtraction (the scalar `sub` is `add` of the negation).
pub fn sub<const W: usize>(a: &DdLanes<W>, b: &DdLanes<W>) -> DdLanes<W> {
    add(a, &neg(b))
}

/// Lane-wise absolute value (the scalar sign test per lane).
pub fn abs<const W: usize>(a: &DdLanes<W>) -> DdLanes<W> {
    let mut out = *a;
    for l in 0..W {
        if a.hi[l] < 0.0 || (a.hi[l] == 0.0 && a.lo[l] < 0.0) {
            out.hi[l] = -a.hi[l];
            out.lo[l] = -a.lo[l];
        }
    }
    out
}

/// Lane-wise multiplication (the scalar `mul` per lane).
pub fn mul<const W: usize>(a: &DdLanes<W>, b: &DdLanes<W>) -> DdLanes<W> {
    let mut out = DdLanes::zero();
    for l in 0..W {
        let (p, e) = two_prod(a.hi[l], b.hi[l]);
        let e = e + a.hi[l] * b.lo[l] + a.lo[l] * b.hi[l];
        let (hi, lo) = quick_two_sum(p, e);
        out.hi[l] = hi;
        out.lo[l] = lo;
    }
    out
}

/// Lane-wise division: the scalar three-quotient refinement is computed
/// branch-free for every lane, then lanes whose first quotient is
/// non-finite are patched with the scalar early return (`from_f64(q1)`).
pub fn div<const W: usize>(a: &DdLanes<W>, b: &DdLanes<W>) -> DdLanes<W> {
    let mut q1 = [0.0f64; W];
    for l in 0..W {
        q1[l] = a.hi[l] / b.hi[l];
    }
    // r = a - q1 * b; q2 = r.hi / b.hi; r2 = r - q2 * b; q3 = r2.hi / b.hi —
    // built from the lane kernels above, so each lane performs exactly the
    // scalar operation sequence.
    let q1_dd = DdLanes {
        hi: q1,
        lo: [0.0; W],
    };
    let r = sub(a, &mul(b, &q1_dd));
    let mut q2 = [0.0f64; W];
    for l in 0..W {
        q2[l] = r.hi[l] / b.hi[l];
    }
    let q2_dd = DdLanes {
        hi: q2,
        lo: [0.0; W],
    };
    let r2 = sub(&r, &mul(b, &q2_dd));
    let mut out = DdLanes::zero();
    for l in 0..W {
        let q3 = r2.hi[l] / b.hi[l];
        let (hi, lo) = quick_two_sum(q1[l], q2[l]);
        let (s, e) = two_sum(hi, lo + q3);
        out.hi[l] = s;
        out.lo[l] = e;
    }
    for l in 0..W {
        if !q1[l].is_finite() {
            out.hi[l] = q1[l];
            out.lo[l] = 0.0;
        }
    }
    out
}

/// Lane-wise square root: one Newton step on the double approximation for
/// every lane, then the scalar special cases (non-finite approximation,
/// negative radicand, exact zero) patched in the scalar path's order.
pub fn sqrt<const W: usize>(a: &DdLanes<W>) -> DdLanes<W> {
    let mut approx = [0.0f64; W];
    for l in 0..W {
        approx[l] = a.hi[l].sqrt();
    }
    let x = DdLanes {
        hi: approx,
        lo: [0.0; W],
    };
    let diff = sub(a, &mul(&x, &x));
    let mut twice = [0.0f64; W];
    for l in 0..W {
        twice[l] = 2.0 * approx[l];
    }
    let correction = div(
        &diff,
        &DdLanes {
            hi: twice,
            lo: [0.0; W],
        },
    );
    let mut out = add(&x, &correction);
    for l in 0..W {
        if !approx[l].is_finite() {
            out.hi[l] = approx[l];
            out.lo[l] = 0.0;
        }
        if a.hi[l] < 0.0 {
            out.hi[l] = f64::NAN;
            out.lo[l] = 0.0;
        }
        if a.hi[l] == 0.0 && a.lo[l] == 0.0 {
            out.hi[l] = 0.0;
            out.lo[l] = 0.0;
        }
    }
    out
}

/// Evaluates any [`RealOp`] lane-wise, exactly as the scalar
/// `DoubleDouble::apply_ref` does per lane: native double-double kernels for
/// the hardware operations, and the documented double-precision fallback for
/// library calls.
pub fn apply<const W: usize>(op: RealOp, args: &[DdLanes<W>]) -> DdLanes<W> {
    assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
    match (op, args) {
        (RealOp::Add, [a, b]) => add(a, b),
        (RealOp::Sub, [a, b]) => sub(a, b),
        (RealOp::Mul, [a, b]) => mul(a, b),
        (RealOp::Div, [a, b]) => div(a, b),
        (RealOp::Neg, [a]) => neg(a),
        (RealOp::Fabs, [a]) => abs(a),
        (RealOp::Sqrt, [a]) => sqrt(a),
        (RealOp::Fma, [a, b, c]) => add(&mul(a, b), c),
        _ => {
            // Library calls loop the scalar double-double kernel per lane —
            // the same function the scalar `apply_ref` fallback calls, so
            // per-lane bit-identity holds by construction.
            let mut out = DdLanes::zero();
            let mut lane_args = [DoubleDouble::ZERO; MAX_ARITY];
            for l in 0..W {
                for (slot, lanes) in lane_args.iter_mut().zip(args) {
                    *slot = lanes.get(l);
                }
                let refs: [&DoubleDouble; MAX_ARITY] =
                    [&lane_args[0], &lane_args[1], &lane_args[2]];
                out.set(l, crate::dd_math::apply_library(op, &refs[..args.len()]));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Real;

    const W: usize = 8;

    /// Per-lane operand sets that hit ordinary values, cancellation,
    /// non-finite quotients, negative radicands, signed zeros, and NaN.
    fn operand_grid() -> Vec<DoubleDouble> {
        let mut values = vec![
            DoubleDouble::ZERO,
            DoubleDouble::from_f64(-0.0),
            DoubleDouble::ONE,
            DoubleDouble::from_f64(-1.0),
            DoubleDouble::from_f64(3.5),
            DoubleDouble::from_f64(1.0e16).add(&DoubleDouble::ONE),
            DoubleDouble::from_f64(1.0e-300),
            DoubleDouble::from_f64(f64::INFINITY),
            DoubleDouble::from_f64(f64::NEG_INFINITY),
            DoubleDouble::from_f64(f64::NAN),
            DoubleDouble::from_f64(1.0).div(&DoubleDouble::from_f64(3.0)),
            DoubleDouble::from_parts(2.0, -1.1e-17),
        ];
        for i in 1..6 {
            values.push(DoubleDouble::from_f64(0.1 * i as f64));
            values.push(DoubleDouble::from_f64(-7.3 * i as f64));
        }
        values
    }

    fn assert_lane_bits(expected: DoubleDouble, got: DoubleDouble, what: &str) {
        assert_eq!(
            (expected.hi().to_bits(), expected.lo().to_bits()),
            (got.hi().to_bits(), got.lo().to_bits()),
            "{what}: scalar {expected:?} vs lanes {got:?}"
        );
    }

    #[test]
    fn every_op_is_bit_identical_to_scalar_per_lane() {
        let grid = operand_grid();
        for &op in RealOp::all() {
            // Slide a window over the grid so every lane sees different
            // operands, including the special values.
            for offset in 0..grid.len() {
                let pick = |k: usize, l: usize| grid[(offset + k * 3 + l) % grid.len()];
                let args: Vec<[DoubleDouble; W]> = (0..op.arity())
                    .map(|k| std::array::from_fn(|l| pick(k, l)))
                    .collect();
                let lanes_args: Vec<DdLanes<W>> = args.iter().map(DdLanes::from_scalars).collect();
                let got = apply(op, &lanes_args);
                for l in 0..W {
                    let scalar_args: Vec<DoubleDouble> = args.iter().map(|a| a[l]).collect();
                    let expected = DoubleDouble::apply(op, &scalar_args);
                    let got_l = got.get(l);
                    if expected.is_nan() {
                        assert!(got_l.is_nan(), "{op} lane {l}: {expected:?} vs {got_l:?}");
                    } else {
                        assert_lane_bits(expected, got_l, &format!("{op} lane {l}"));
                    }
                }
            }
        }
    }

    #[test]
    fn division_special_lanes_match_scalar_early_returns() {
        // Lane 0: ordinary, lane 1: divide by zero, lane 2: NaN numerator,
        // lane 3: infinite denominator.
        let a = DdLanes::<4>::from_scalars(&[
            DoubleDouble::ONE,
            DoubleDouble::ONE,
            DoubleDouble::from_f64(f64::NAN),
            DoubleDouble::from_f64(5.0),
        ]);
        let b = DdLanes::<4>::from_scalars(&[
            DoubleDouble::from_f64(3.0),
            DoubleDouble::ZERO,
            DoubleDouble::ONE,
            DoubleDouble::from_f64(f64::INFINITY),
        ]);
        let q = div(&a, &b);
        assert_eq!(q.get(0).to_f64(), 1.0 / 3.0);
        assert!(q.get(1).hi().is_infinite());
        assert!(q.get(2).is_nan());
        // A finite value over infinity takes the scalar's *full* path (the
        // first quotient 0.0 is finite), so the lane must reproduce whatever
        // the scalar refinement produces — not a patched early return.
        let scalar = DoubleDouble::from_f64(5.0).div(&DoubleDouble::from_f64(f64::INFINITY));
        if scalar.is_nan() {
            assert!(q.get(3).is_nan());
        } else {
            assert_lane_bits(scalar, q.get(3), "5/inf");
        }
    }

    #[test]
    fn sqrt_special_lanes_match_scalar() {
        let a = DdLanes::<4>::from_scalars(&[
            DoubleDouble::from_f64(2.0),
            DoubleDouble::ZERO,
            DoubleDouble::from_f64(-4.0),
            DoubleDouble::from_f64(f64::INFINITY),
        ]);
        let r = sqrt(&a);
        assert_lane_bits(DoubleDouble::from_f64(2.0).sqrt(), r.get(0), "sqrt(2)");
        assert_eq!((r.get(1).hi(), r.get(1).lo()), (0.0, 0.0));
        assert!(r.get(2).is_nan());
        assert!(r.get(3).hi().is_infinite());
    }

    #[test]
    fn soa_gather_scatter_roundtrips() {
        let values: [DoubleDouble; 3] = [
            DoubleDouble::from_parts(1.0, 1e-20),
            DoubleDouble::from_f64(-2.5),
            DoubleDouble::ZERO,
        ];
        let lanes = DdLanes::from_scalars(&values);
        assert_eq!(lanes.to_scalars(), values);
        let mut other = DdLanes::<3>::splat(DoubleDouble::ONE);
        other.set(1, values[0]);
        assert_eq!(other.get(0), DoubleDouble::ONE);
        assert_eq!(other.get(1), values[0]);
        assert_eq!(
            DdLanes::<2>::from_f64_lanes(&[4.0, 9.0]).get(1).to_f64(),
            9.0
        );
    }

    #[test]
    fn vectorized_lanes_capture_cancellation() {
        // (1e16 + 1) - 1e16 == 1 in every lane.
        let big = DdLanes::<W>::splat(DoubleDouble::from_f64(1.0e16));
        let one = DdLanes::<W>::splat(DoubleDouble::ONE);
        let r = sub(&add(&big, &one), &big);
        for l in 0..W {
            assert_eq!(r.get(l).to_f64(), 1.0, "lane {l}");
        }
    }
}
