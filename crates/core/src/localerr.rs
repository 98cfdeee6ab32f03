//! Local error (§4.2, Figure 4).
//!
//! *Local error* measures the error an operation introduces by itself: the
//! operation is evaluated (a) exactly, on the exact (shadow) inputs, and then
//! rounded to a double, and (b) in double precision on the exact inputs
//! rounded to doubles. The distance between the two, in bits, is the
//! operation's local error. Using local error — rather than the difference
//! between the client value and the shadow — avoids blaming an operation for
//! error that its operands already carried (the paper's "avoid blaming
//! innocent operations for erroneous operands").

use shadowreal::{bits_error, Real, RealOp, MAX_ARITY};

/// The operand list passed to [`local_error`] was empty.
///
/// Every float operation has at least one operand (the machine validates
/// arity before tracing), so this indicates a malformed caller, not a
/// property of the analyzed program — it is reported as a typed error
/// rather than a panic so that release builds embedding the analysis
/// degrade gracefully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoOperands(
    /// The operation that was invoked without operands.
    pub RealOp,
);

impl std::fmt::Display for NoOperands {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no operands for {}", self.0)
    }
}

impl std::error::Error for NoOperands {}

/// Computes the local error, in bits, of applying `op` to operands whose
/// exact values are `exact_args`.
///
/// Returns the local error together with the exact result (so the caller does
/// not need to recompute it for the shadow update).
///
/// # Errors
///
/// Returns [`NoOperands`] when `exact_args` is empty — every real operation
/// has at least one operand, so this only happens on a malformed call.
pub fn local_error<R: Real>(op: RealOp, exact_args: &[R]) -> Result<(f64, R), NoOperands> {
    let Some(first) = exact_args.first() else {
        return Err(NoOperands(op));
    };
    let mut refs: [&R; MAX_ARITY] = [first; MAX_ARITY];
    for (slot, arg) in refs.iter_mut().zip(exact_args) {
        *slot = arg;
    }
    Ok(local_error_ref(op, &refs[..exact_args.len()]))
}

/// Computes the local error like [`local_error`], with the operands passed
/// by reference — the form the analysis hot loop uses, so that shadow values
/// never leave the slot table (no per-operand clone) and the rounded
/// operands live on the stack (no per-op allocation).
///
/// `exact_args` must be non-empty (checked with a `debug_assert`; the
/// machine validates operation arity before any tracer callback fires, so
/// the hot path does not re-check in release builds).
pub fn local_error_ref<R: Real>(op: RealOp, exact_args: &[&R]) -> (f64, R) {
    debug_assert!(!exact_args.is_empty(), "no operands for {op}");
    let exact_result = R::apply_ref(op, exact_args);
    let exact_rounded = exact_result.to_f64();
    let mut rounded = [0.0f64; MAX_ARITY];
    for (slot, arg) in rounded.iter_mut().zip(exact_args) {
        *slot = arg.to_f64();
    }
    let float_result = <f64 as Real>::apply(op, &rounded[..exact_args.len()]);
    (bits_error(float_result, exact_rounded), exact_result)
}

/// Computes the total error, in bits, between a client-computed double and
/// the exact shadow value.
pub fn total_error<R: Real>(client: f64, shadow: &R) -> f64 {
    bits_error(client, shadow.to_f64())
}

/// The analysis's local-error decision (`bits_error(float, exact) > T`,
/// Figure 4) made in integer ulps on `DoubleDouble` shadows: the test the
/// lane local-error probe counts with, and the one the serial certify probe
/// builds a tiered sweep's demand set from. `tests/probe_agreement.rs` pins
/// it to the analysis's bits test on every execution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UlpsThreshold {
    threshold_ulps: u64,
    /// True for negative thresholds, which every execution exceeds — `ulps >
    /// threshold_ulps` cannot express "including zero ulps" in a `u64`.
    flag_all: bool,
}

impl UlpsThreshold {
    /// The test for local error above `threshold_bits` — by the *same
    /// decision* the full analysis makes (`bits_error(float, exact) > T`),
    /// converted to an integer ulps bound.
    ///
    /// In exact arithmetic `bits > T ⟺ ulps > 2^T − 1`, but the analysis
    /// computes bits as the **rounded** `log2(ulps + 1)`, so the naive
    /// conversion misclassifies ulps counts near the boundary (for example
    /// `ulps = 2^60` at `T = 60`: `log2` rounds to exactly `60.0`, which
    /// does not exceed the threshold, while `2^60 > 2^60 − 1` does). The
    /// bound is therefore taken directly from the analysis's own formula:
    /// the largest ulps count whose rounded bits do not exceed the
    /// threshold, located by binary search over the monotone `log2` (with a
    /// local fix-up so faithful-but-not-correct rounding cannot shift the
    /// boundary). Thresholds at or above [`shadowreal::MAX_ERROR_BITS`] (or
    /// NaN) flag nothing, exactly like the analysis, whose bits are clamped
    /// to that maximum; negative thresholds flag every execution.
    pub(crate) fn new(threshold_bits: f64) -> Self {
        let exceeds = |ulps: u64| bits_of_ulps(ulps) > threshold_bits;
        let threshold_ulps =
            if threshold_bits.is_nan() || threshold_bits >= shadowreal::MAX_ERROR_BITS {
                // T >= 64 bits, or NaN: bits are clamped to 64, so nothing can
                // exceed the threshold — not even the saturated NaN distance.
                u64::MAX
            } else if threshold_bits < 0.0 {
                // Every execution exceeds a negative threshold; `ulps >= 0 > -1`
                // has no u64 encoding, so flag through the zero-included path.
                0
            } else {
                // Largest `u` with bits(u) <= T; erroneous ⟺ ulps > u.
                let (mut lo, mut hi) = (0u64, u64::MAX - 1);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2 + 1;
                    if exceeds(mid) {
                        hi = mid - 1;
                    } else {
                        lo = mid;
                    }
                }
                while lo < u64::MAX - 1 && !exceeds(lo + 1) {
                    lo += 1;
                }
                while lo > 0 && exceeds(lo) {
                    lo -= 1;
                }
                lo
            };
        UlpsThreshold {
            threshold_ulps,
            flag_all: threshold_bits < 0.0,
        }
    }

    /// True when `ulps` of local error exceed the threshold: the analysis
    /// would count the execution as erroneous.
    #[inline]
    pub(crate) fn exceeded_by(&self, ulps: u64) -> bool {
        self.flag_all || ulps > self.threshold_ulps
    }
}

/// The bits-of-error the analysis computes for a ulps distance: exactly
/// [`shadowreal::bits_error`]'s arithmetic, expressed over the integer
/// distance [`UlpsThreshold`] counts in.
pub(crate) fn bits_of_ulps(ulps: u64) -> f64 {
    if ulps == u64::MAX {
        return shadowreal::MAX_ERROR_BITS;
    }
    (((ulps as f64) + 1.0).log2()).min(shadowreal::MAX_ERROR_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowreal::BigFloat;

    fn big(values: &[f64]) -> Vec<BigFloat> {
        values.iter().map(|&v| BigFloat::from_f64(v)).collect()
    }

    fn local_error<R: Real>(op: RealOp, exact_args: &[R]) -> (f64, R) {
        super::local_error(op, exact_args).expect("operands provided")
    }

    #[test]
    fn empty_operands_are_a_typed_error_not_a_panic() {
        let err = super::local_error::<BigFloat>(RealOp::Add, &[]).unwrap_err();
        assert_eq!(err, NoOperands(RealOp::Add));
        assert_eq!(err.to_string(), "no operands for +");
    }

    #[test]
    fn exact_operations_have_no_local_error() {
        let (err, result) = local_error(RealOp::Add, &big(&[1.0, 2.0]));
        assert_eq!(err, 0.0);
        assert_eq!(result.to_f64(), 3.0);
        let (err, _) = local_error(RealOp::Mul, &big(&[1.5, 4.0]));
        assert_eq!(err, 0.0);
    }

    #[test]
    fn correctly_rounded_operations_have_tiny_local_error() {
        // 1/3 is inexact but correctly rounded: local error below one bit.
        let (err, _) = local_error(RealOp::Div, &big(&[1.0, 3.0]));
        assert!(err <= 1.0, "got {err}");
        let (err, _) = local_error(RealOp::Sqrt, &big(&[2.0]));
        assert!(err <= 1.0, "got {err}");
    }

    #[test]
    fn catastrophic_cancellation_has_high_local_error() {
        // Subtracting two nearly equal values: the operands are exact, yet the
        // float subtraction of their roundings loses everything relative to
        // the exact subtraction.
        let a = BigFloat::from_f64(1.0).add(&BigFloat::from_f64(1e-17));
        let b = BigFloat::from_f64(1.0);
        let (err, exact) = local_error(RealOp::Sub, &[a, b]);
        assert!(err > 40.0, "got {err}");
        assert!(exact.to_f64() > 0.0);
    }

    #[test]
    fn erroneous_inputs_do_not_create_local_error() {
        // The key property: an operation on operands that are *already wrong*
        // (exact values differ from what the client has) is not blamed as
        // long as the operation itself is benign. Local error only looks at
        // the exact inputs.
        // Exact input happens to be 1 + 2^-60 (client would have rounded to 1).
        let exact_in = BigFloat::from_f64(1.0).add(&BigFloat::from_f64(2.0_f64.powi(-60)));
        let (err, _) = local_error(RealOp::Mul, &[exact_in, BigFloat::from_f64(8.0)]);
        assert!(err <= 1.0, "multiplication blamed unfairly: {err}");
    }

    #[test]
    fn underflowed_exact_inputs_register_local_error() {
        // The exact operand is a tiny nonzero value that rounds to 0.0 in
        // doubles: the float log explodes to -inf while the exact log is a
        // modest finite number, so the operation has large local error.
        let tiny = BigFloat::from_f64(1e-300).mul(&BigFloat::from_f64(1e-300));
        let (err, _) = local_error(RealOp::Log, &[tiny]);
        assert!(err > 50.0, "got {err}");
    }

    #[test]
    fn total_error_compares_client_to_shadow() {
        let shadow = BigFloat::from_f64(1.0);
        assert_eq!(total_error(1.0, &shadow), 0.0);
        assert!(total_error(0.0, &shadow) > 50.0);
    }

    #[test]
    fn library_calls_measure_against_exact_evaluation() {
        // sin evaluated at a double is correctly rounded by libm to within a
        // few ulps; local error must be small.
        let (err, _) = local_error(RealOp::Sin, &big(&[1.0]));
        assert!(err <= 2.0, "got {err}");
        let (err, _) = local_error(RealOp::Atan2, &big(&[1.0, -2.0]));
        assert!(err <= 2.0, "got {err}");
    }

    #[test]
    fn probe_threshold_matches_the_analysis_decision_boundary() {
        // The probe's integer ulps bound must sit exactly where the
        // analysis's rounded `log2(ulps + 1) > T` decision flips — including
        // thresholds where the naive `2^T - 1` conversion misclassifies
        // (T = 60: log2(2^60 + 1) rounds to exactly 60.0).
        for threshold in [0.0f64, 0.3, 0.5, 1.0, 4.5, 5.0, 20.0, 32.3, 60.0, 63.9] {
            let test = UlpsThreshold::new(threshold);
            let t = test.threshold_ulps;
            assert!(!test.flag_all);
            assert!(
                bits_of_ulps(t) <= threshold,
                "T={threshold}: bits({t}) must not exceed the threshold"
            );
            assert!(
                bits_of_ulps(t + 1) > threshold,
                "T={threshold}: bits({}) must exceed the threshold",
                t + 1
            );
        }
        // T = 60 regression: 2^60 ulps is *not* erroneous (its rounded bits
        // are exactly 60.0), though the naive conversion flags it.
        assert!(UlpsThreshold::new(60.0).threshold_ulps >= 1u64 << 60);
        // At or above the maximum (or NaN), nothing is flagged — not even
        // the saturated NaN distance, whose bits are clamped to the maximum.
        for threshold in [shadowreal::MAX_ERROR_BITS, 100.0, f64::NAN] {
            let test = UlpsThreshold::new(threshold);
            assert_eq!(test.threshold_ulps, u64::MAX, "T={threshold}");
            assert!(!test.flag_all);
        }
        // Negative thresholds flag everything, zero ulps included.
        let test = UlpsThreshold::new(-1.0);
        assert!(test.flag_all && test.exceeded_by(0));
    }
}
