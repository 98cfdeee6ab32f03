//! The abstract shadow-real interface.
//!
//! Herbgrind's analysis is defined over an abstract real-number data type
//! (§5.1 of the paper: "Herbgrind treats real computation as an abstract data
//! type and alternate strategies could easily be substituted in"). The
//! [`Real`] trait captures that interface; the analysis is generic over it so
//! that the arbitrary-precision [`crate::BigFloat`], the fast
//! [`crate::DoubleDouble`] and the trivial `f64` shadow can all be used.

use crate::{BigFloat, DoubleDouble};
use std::cmp::Ordering;
use std::fmt::Debug;

/// The widest [`RealOp`] arity. Hot paths throughout the workspace size
/// their stack operand buffers with this constant (the interpreter's inline
/// argument arrays, the analysis's borrowed-operand arrays, trace-interner
/// keys); a wider operation must bump it, which
/// [`RealOp::all`]-based tests pin.
pub const MAX_ARITY: usize = 3;

/// Identifies a floating-point operation evaluated by the shadow execution.
///
/// The set matches the FPCore operator vocabulary (which is also the set of
/// operations Herbgrind's library wrapping recognizes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum RealOp {
    // Arithmetic
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Fabs,
    Sqrt,
    Cbrt,
    Fma,
    // Exponential / logarithmic
    Exp,
    Exp2,
    Expm1,
    Log,
    Log2,
    Log10,
    Log1p,
    Pow,
    // Trigonometric
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Atan2,
    // Hyperbolic
    Sinh,
    Cosh,
    Tanh,
    Asinh,
    Acosh,
    Atanh,
    // Combining / rounding
    Hypot,
    Fmin,
    Fmax,
    Fdim,
    Fmod,
    Floor,
    Ceil,
    Trunc,
    Round,
    Copysign,
}

impl RealOp {
    /// The number of operands the operation takes.
    pub fn arity(self) -> usize {
        use RealOp::*;
        match self {
            Neg | Fabs | Sqrt | Cbrt | Exp | Exp2 | Expm1 | Log | Log2 | Log10 | Log1p | Sin
            | Cos | Tan | Asin | Acos | Atan | Sinh | Cosh | Tanh | Asinh | Acosh | Atanh
            | Floor | Ceil | Trunc | Round => 1,
            Add | Sub | Mul | Div | Pow | Atan2 | Hypot | Fmin | Fmax | Fdim | Fmod | Copysign => 2,
            Fma => 3,
        }
    }

    /// The FPCore / C name of the operation (used in reports).
    pub fn name(self) -> &'static str {
        use RealOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Neg => "neg",
            Fabs => "fabs",
            Sqrt => "sqrt",
            Cbrt => "cbrt",
            Fma => "fma",
            Exp => "exp",
            Exp2 => "exp2",
            Expm1 => "expm1",
            Log => "log",
            Log2 => "log2",
            Log10 => "log10",
            Log1p => "log1p",
            Pow => "pow",
            Sin => "sin",
            Cos => "cos",
            Tan => "tan",
            Asin => "asin",
            Acos => "acos",
            Atan => "atan",
            Atan2 => "atan2",
            Sinh => "sinh",
            Cosh => "cosh",
            Tanh => "tanh",
            Asinh => "asinh",
            Acosh => "acosh",
            Atanh => "atanh",
            Hypot => "hypot",
            Fmin => "fmin",
            Fmax => "fmax",
            Fdim => "fdim",
            Fmod => "fmod",
            Floor => "floor",
            Ceil => "ceil",
            Trunc => "trunc",
            Round => "round",
            Copysign => "copysign",
        }
    }

    /// True for operations normally provided by the math library rather than
    /// by a hardware instruction (these are the operations Herbgrind wraps,
    /// §5.3).
    pub fn is_library_call(self) -> bool {
        use RealOp::*;
        !matches!(self, Add | Sub | Mul | Div | Neg | Fabs | Sqrt | Fma)
    }

    /// All operations, useful for exhaustive testing.
    pub fn all() -> &'static [RealOp] {
        use RealOp::*;
        &[
            Add, Sub, Mul, Div, Neg, Fabs, Sqrt, Cbrt, Fma, Exp, Exp2, Expm1, Log, Log2, Log10,
            Log1p, Pow, Sin, Cos, Tan, Asin, Acos, Atan, Atan2, Sinh, Cosh, Tanh, Asinh, Acosh,
            Atanh, Hypot, Fmin, Fmax, Fdim, Fmod, Floor, Ceil, Trunc, Round, Copysign,
        ]
    }
}

impl std::fmt::Display for RealOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A real-number shadow value.
///
/// Implementations must be able to round-trip doubles exactly and evaluate
/// every [`RealOp`]; the precision of that evaluation determines how much
/// client error the analysis can measure.
pub trait Real: Clone + Debug + Sized {
    /// Converts a double exactly into a shadow value.
    fn from_f64(x: f64) -> Self;
    /// Converts a double exactly into a shadow value carrying the given
    /// mantissa precision in bits.
    ///
    /// This is how an analysis threads its configured shadow precision
    /// through to every value it creates, instead of mutating process-global
    /// state: binary operations propagate the larger operand precision, so
    /// seeding the leaves is enough. Representations with a fixed precision
    /// (`f64`, [`DoubleDouble`]) ignore the argument.
    fn from_f64_prec(x: f64, prec: u32) -> Self {
        let _ = prec;
        Self::from_f64(x)
    }
    /// Rounds the shadow value to the nearest double.
    fn to_f64(&self) -> f64;
    /// True if the value is NaN.
    fn is_nan(&self) -> bool;
    /// Numeric comparison (None if either side is NaN).
    fn compare(&self, other: &Self) -> Option<Ordering>;
    /// Evaluates `op` on the given arguments.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != op.arity()`.
    fn apply(op: RealOp, args: &[Self]) -> Self;

    /// Evaluates `op` on borrowed arguments.
    ///
    /// The analysis hot loop holds its operands by reference (they live in
    /// the shadow slot table); this entry point lets implementations evaluate
    /// without cloning each operand first. The default clones and defers to
    /// [`Real::apply`]; the provided shadow types override it.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != op.arity()`.
    fn apply_ref(op: RealOp, args: &[&Self]) -> Self {
        let owned: Vec<Self> = args.iter().map(|a| (*a).clone()).collect();
        Self::apply(op, &owned)
    }

    /// Numeric equality through [`Real::compare`].
    fn eq_value(&self, other: &Self) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// Stable short name of this shadow representation, used to attribute
    /// telemetry op counts ("f64", "dd", "bigfloat").
    fn kind_name() -> &'static str {
        "shadow"
    }
}

impl Real for f64 {
    fn from_f64(x: f64) -> Self {
        x
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn is_nan(&self) -> bool {
        f64::is_nan(*self)
    }
    fn compare(&self, other: &Self) -> Option<Ordering> {
        self.partial_cmp(other)
    }
    fn apply(op: RealOp, args: &[Self]) -> Self {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
        apply_f64(op, args)
    }
    fn kind_name() -> &'static str {
        "f64"
    }
    fn apply_ref(op: RealOp, args: &[&Self]) -> Self {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
        let mut buf = [0.0f64; MAX_ARITY];
        for (slot, &&a) in buf.iter_mut().zip(args) {
            *slot = a;
        }
        apply_f64(op, &buf[..args.len()])
    }
}

/// Evaluates an operation elementwise over `[f64; W]` lane arrays — the
/// lane-parallel form of `apply_f64`, used both by the batched machine
/// interpreter (client semantics) and by the analysis's lane-vectorized
/// local-error probe (the float side of local error). The
/// hardware operations are specialized to contiguous lane loops that the
/// compiler auto-vectorizes; library calls fall back to a per-lane scalar
/// loop. Every lane is computed; per lane the result is bit-identical to
/// the scalar evaluation.
///
/// # Panics
///
/// Panics if `args.len() != op.arity()`.
pub fn apply_f64_lanes<const W: usize>(op: RealOp, args: &[[f64; W]]) -> [f64; W] {
    assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
    let mut out = [0.0f64; W];
    match (op, args) {
        (RealOp::Add, [a, b]) => {
            for l in 0..W {
                out[l] = a[l] + b[l];
            }
        }
        (RealOp::Sub, [a, b]) => {
            for l in 0..W {
                out[l] = a[l] - b[l];
            }
        }
        (RealOp::Mul, [a, b]) => {
            for l in 0..W {
                out[l] = a[l] * b[l];
            }
        }
        (RealOp::Div, [a, b]) => {
            for l in 0..W {
                out[l] = a[l] / b[l];
            }
        }
        (RealOp::Neg, [a]) => {
            for l in 0..W {
                out[l] = -a[l];
            }
        }
        (RealOp::Fabs, [a]) => {
            for l in 0..W {
                out[l] = a[l].abs();
            }
        }
        (RealOp::Sqrt, [a]) => {
            for l in 0..W {
                out[l] = a[l].sqrt();
            }
        }
        (RealOp::Fma, [a, b, c]) => {
            for l in 0..W {
                out[l] = f64::mul_add(a[l], b[l], c[l]);
            }
        }
        _ => {
            let mut lane_args = [0.0f64; MAX_ARITY];
            for (l, slot) in out.iter_mut().enumerate() {
                for (dst, lanes) in lane_args.iter_mut().zip(args) {
                    *dst = lanes[l];
                }
                *slot = apply_f64(op, &lane_args[..args.len()]);
            }
        }
    }
    out
}

/// Evaluates an operation directly in double precision (the client
/// semantics). This is also used by the interpreter for the un-instrumented
/// native execution.
pub(crate) fn apply_f64(op: RealOp, args: &[f64]) -> f64 {
    use RealOp::*;
    match op {
        Add => args[0] + args[1],
        Sub => args[0] - args[1],
        Mul => args[0] * args[1],
        Div => args[0] / args[1],
        Neg => -args[0],
        Fabs => args[0].abs(),
        Sqrt => args[0].sqrt(),
        Cbrt => args[0].cbrt(),
        Fma => f64::mul_add(args[0], args[1], args[2]),
        Exp => args[0].exp(),
        Exp2 => args[0].exp2(),
        Expm1 => args[0].exp_m1(),
        Log => args[0].ln(),
        Log2 => args[0].log2(),
        Log10 => args[0].log10(),
        Log1p => args[0].ln_1p(),
        Pow => args[0].powf(args[1]),
        Sin => args[0].sin(),
        Cos => args[0].cos(),
        Tan => args[0].tan(),
        Asin => args[0].asin(),
        Acos => args[0].acos(),
        Atan => args[0].atan(),
        Atan2 => args[0].atan2(args[1]),
        Sinh => args[0].sinh(),
        Cosh => args[0].cosh(),
        Tanh => args[0].tanh(),
        Asinh => args[0].asinh(),
        Acosh => args[0].acosh(),
        Atanh => args[0].atanh(),
        Hypot => args[0].hypot(args[1]),
        Fmin => args[0].min(args[1]),
        Fmax => args[0].max(args[1]),
        Fdim => (args[0] - args[1]).max(0.0),
        Fmod => args[0] % args[1],
        Floor => args[0].floor(),
        Ceil => args[0].ceil(),
        Trunc => args[0].trunc(),
        Round => args[0].round(),
        Copysign => args[0].copysign(args[1]),
    }
}

impl Real for BigFloat {
    fn from_f64(x: f64) -> Self {
        BigFloat::from_f64(x)
    }
    fn from_f64_prec(x: f64, prec: u32) -> Self {
        BigFloat::from_f64_prec(x, prec)
    }
    fn to_f64(&self) -> f64 {
        BigFloat::to_f64(self)
    }
    fn is_nan(&self) -> bool {
        BigFloat::is_nan(self)
    }
    fn compare(&self, other: &Self) -> Option<Ordering> {
        BigFloat::partial_cmp(self, other)
    }
    fn kind_name() -> &'static str {
        "bigfloat"
    }
    fn apply(op: RealOp, args: &[Self]) -> Self {
        assert!(!args.is_empty(), "arity mismatch for {op}");
        let mut refs: [&Self; MAX_ARITY] = [&args[0]; MAX_ARITY];
        for (slot, a) in refs.iter_mut().zip(args) {
            *slot = a;
        }
        Self::apply_ref(op, &refs[..args.len()])
    }
    fn apply_ref(op: RealOp, args: &[&Self]) -> Self {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
        telemetry::BIGFLOAT_APPLY_OPS.incr();
        use RealOp::*;
        match op {
            Add => args[0].add(args[1]),
            Sub => args[0].sub(args[1]),
            Mul => args[0].mul(args[1]),
            Div => args[0].div(args[1]),
            Neg => args[0].neg(),
            Fabs => args[0].abs(),
            Sqrt => args[0].sqrt(),
            Cbrt => args[0].cbrt(),
            Fma => args[0].fma(args[1], args[2]),
            Exp => args[0].exp(),
            Exp2 => args[0].exp2(),
            Expm1 => args[0].expm1(),
            Log => args[0].ln(),
            Log2 => args[0].log2(),
            Log10 => args[0].log10(),
            Log1p => args[0].log1p(),
            Pow => args[0].pow(args[1]),
            Sin => args[0].sin(),
            Cos => args[0].cos(),
            Tan => args[0].tan(),
            Asin => args[0].asin(),
            Acos => args[0].acos(),
            Atan => args[0].atan(),
            Atan2 => args[0].atan2(args[1]),
            Sinh => args[0].sinh(),
            Cosh => args[0].cosh(),
            Tanh => args[0].tanh(),
            Asinh => args[0].asinh(),
            Acosh => args[0].acosh(),
            Atanh => args[0].atanh(),
            Hypot => args[0].hypot(args[1]),
            Fmin => args[0].fmin(args[1]),
            Fmax => args[0].fmax(args[1]),
            Fdim => args[0].fdim(args[1]),
            Fmod => args[0].fmod(args[1]),
            Floor => args[0].floor(),
            Ceil => args[0].ceil(),
            Trunc => args[0].trunc(),
            Round => args[0].round_nearest(),
            Copysign => args[0].copysign(args[1]),
        }
    }
}

impl Real for DoubleDouble {
    fn from_f64(x: f64) -> Self {
        DoubleDouble::from_f64(x)
    }
    fn to_f64(&self) -> f64 {
        DoubleDouble::to_f64(self)
    }
    fn is_nan(&self) -> bool {
        DoubleDouble::is_nan(self)
    }
    fn compare(&self, other: &Self) -> Option<Ordering> {
        DoubleDouble::compare(self, other)
    }
    fn apply(op: RealOp, args: &[Self]) -> Self {
        assert!(!args.is_empty(), "arity mismatch for {op}");
        let mut refs: [&Self; MAX_ARITY] = [&args[0]; MAX_ARITY];
        for (slot, a) in refs.iter_mut().zip(args) {
            *slot = a;
        }
        Self::apply_ref(op, &refs[..args.len()])
    }
    fn kind_name() -> &'static str {
        "dd"
    }
    fn apply_ref(op: RealOp, args: &[&Self]) -> Self {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
        use RealOp::*;
        match op {
            Add => args[0].add(args[1]),
            Sub => args[0].sub(args[1]),
            Mul => args[0].mul(args[1]),
            Div => args[0].div(args[1]),
            Neg => args[0].neg(),
            Fabs => args[0].abs(),
            Sqrt => args[0].sqrt(),
            Fma => args[0].mul(args[1]).add(args[2]),
            // Library calls go through the double-double elementary kernels:
            // accurate (≲ 2^-85 relative) for the transcendental set the
            // tiered certificates cover, the documented double-precision
            // fallback for the rest.
            _ => crate::dd_math::apply_library(op, args),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_argument_shape() {
        for &op in RealOp::all() {
            assert!(op.arity() >= 1 && op.arity() <= MAX_ARITY, "{op}");
        }
        assert_eq!(RealOp::Add.arity(), 2);
        assert_eq!(RealOp::Sqrt.arity(), 1);
        assert_eq!(RealOp::Fma.arity(), 3);
        // MAX_ARITY sizes fixed operand buffers across the workspace
        // (interpreter tape, analysis operand arrays, trace-interner keys);
        // adding a wider operation must bump it, and this pin makes that
        // failure loud.
        assert_eq!(
            RealOp::all().iter().map(|op| op.arity()).max(),
            Some(MAX_ARITY)
        );
    }

    #[test]
    fn f64_real_is_identity_shadow() {
        let x = <f64 as Real>::from_f64(2.5);
        assert_eq!(x.to_f64(), 2.5);
        let sum = f64::apply(RealOp::Add, &[2.0, 3.0]);
        assert_eq!(sum, 5.0);
    }

    #[test]
    fn bigfloat_agrees_with_f64_on_exact_ops() {
        let ops_and_args: Vec<(RealOp, Vec<f64>)> = vec![
            (RealOp::Add, vec![1.5, 2.25]),
            (RealOp::Sub, vec![10.0, 3.0]),
            (RealOp::Mul, vec![3.0, 7.0]),
            (RealOp::Div, vec![1.0, 4.0]),
            (RealOp::Sqrt, vec![9.0]),
            (RealOp::Fabs, vec![-8.0]),
            (RealOp::Neg, vec![5.5]),
            (RealOp::Floor, vec![2.7]),
            (RealOp::Ceil, vec![2.2]),
            (RealOp::Fmax, vec![1.0, -2.0]),
        ];
        for (op, args) in ops_and_args {
            let expect = f64::apply(op, &args);
            let big_args: Vec<BigFloat> = args.iter().map(|&a| BigFloat::from_f64(a)).collect();
            let got = BigFloat::apply(op, &big_args).to_f64();
            assert_eq!(got, expect, "{op} on {args:?}");
        }
    }

    #[test]
    fn bigfloat_is_more_accurate_than_f64_on_cancellation() {
        // exp(1e-15) - 1 computed naively in doubles loses accuracy; the
        // shadow real keeps it.
        let x = 1e-15_f64;
        let naive = f64::apply(RealOp::Sub, &[f64::apply(RealOp::Exp, &[x]), 1.0]);
        let shadow = BigFloat::apply(
            RealOp::Sub,
            &[
                BigFloat::apply(RealOp::Exp, &[BigFloat::from_f64(x)]),
                BigFloat::from_f64(1.0),
            ],
        );
        let reference = x.exp_m1();
        let naive_err = (naive - reference).abs();
        let shadow_err = (shadow.to_f64() - reference).abs();
        assert!(shadow_err <= naive_err);
        assert!(shadow_err / reference < 1e-15);
    }

    #[test]
    fn precision_threads_through_the_trait() {
        let wide = <BigFloat as Real>::from_f64_prec(0.1, 512);
        assert_eq!(wide.precision(), 512);
        assert_eq!(wide.to_f64(), 0.1);
        // Binary operations propagate the larger operand precision, so
        // seeding the leaves determines the working precision everywhere.
        let sum = BigFloat::apply(RealOp::Add, &[wide, BigFloat::from_f64_prec(1.0, 512)]);
        assert_eq!(sum.precision(), 512);
        // Fixed-precision shadows accept and ignore the parameter.
        assert_eq!(<f64 as Real>::from_f64_prec(0.25, 512), 0.25);
        assert_eq!(DoubleDouble::from_f64_prec(0.25, 512).to_f64(), 0.25);
    }

    #[test]
    fn apply_ref_matches_apply_on_every_op() {
        for &op in RealOp::all() {
            let args_f: Vec<f64> = (0..op.arity()).map(|i| 0.5 + i as f64 * 0.25).collect();
            let by_ref = f64::apply_ref(op, &args_f.iter().collect::<Vec<_>>());
            assert_eq!(by_ref.to_bits(), f64::apply(op, &args_f).to_bits(), "{op}");

            let big: Vec<BigFloat> = args_f.iter().map(|&a| BigFloat::from_f64(a)).collect();
            let owned = BigFloat::apply(op, &big);
            let by_ref = BigFloat::apply_ref(op, &big.iter().collect::<Vec<_>>());
            assert_eq!(format!("{owned:?}"), format!("{by_ref:?}"), "{op}");

            let dd: Vec<DoubleDouble> = args_f.iter().map(|&a| DoubleDouble::from_f64(a)).collect();
            let owned = DoubleDouble::apply(op, &dd);
            let by_ref = DoubleDouble::apply_ref(op, &dd.iter().collect::<Vec<_>>());
            assert_eq!(format!("{owned:?}"), format!("{by_ref:?}"), "{op}");
        }
    }

    #[test]
    fn library_call_classification() {
        assert!(!RealOp::Add.is_library_call());
        assert!(!RealOp::Sqrt.is_library_call());
        assert!(RealOp::Sin.is_library_call());
        assert!(RealOp::Pow.is_library_call());
    }

    #[test]
    fn doubledouble_shadow_handles_basic_ops() {
        let a = DoubleDouble::from_f64(1.0e16);
        let b = DoubleDouble::from_f64(1.0);
        let r = DoubleDouble::apply(RealOp::Sub, &[DoubleDouble::apply(RealOp::Add, &[a, b]), a]);
        assert_eq!(r.to_f64(), 1.0);
    }

    #[test]
    fn nan_detection_through_trait() {
        assert!(<f64 as Real>::is_nan(&f64::NAN));
        assert!(BigFloat::apply(RealOp::Sqrt, &[BigFloat::from_f64(-1.0)]).is_nan());
        assert!(DoubleDouble::apply(RealOp::Sqrt, &[DoubleDouble::from_f64(-1.0)]).is_nan());
    }

    #[test]
    fn every_op_evaluates_on_all_three_shadows() {
        for &op in RealOp::all() {
            let args_f: Vec<f64> = (0..op.arity()).map(|i| 0.5 + i as f64 * 0.25).collect();
            let f = f64::apply(op, &args_f);
            let b = BigFloat::apply(
                op,
                &args_f
                    .iter()
                    .map(|&a| BigFloat::from_f64(a))
                    .collect::<Vec<_>>(),
            );
            let d = DoubleDouble::apply(
                op,
                &args_f
                    .iter()
                    .map(|&a| DoubleDouble::from_f64(a))
                    .collect::<Vec<_>>(),
            );
            // All three shadows must agree to double accuracy on these
            // well-conditioned arguments.
            if f.is_nan() {
                assert!(b.is_nan() && d.is_nan(), "{op}");
            } else {
                assert!(
                    (b.to_f64() - f).abs() <= f.abs() * 1e-12 + 1e-300,
                    "{op}: {} vs {f}",
                    b.to_f64()
                );
                assert!(
                    (d.to_f64() - f).abs() <= f.abs() * 1e-12 + 1e-300,
                    "{op}: {} vs {f}",
                    d.to_f64()
                );
            }
        }
    }
}
