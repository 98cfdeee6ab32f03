//! Property tests for the small-limb BigFloat representation: the inline
//! (≤ 256-bit) and heap-fallback storage paths must agree bit for bit, and
//! behaviour must be continuous across the precision boundary
//! (64 / 256 / 320 / 1024 bits).
//!
//! In debug builds the `set_force_heap_limbs` test hook reruns the exact
//! same computation with every buffer forced onto the heap, which pins the
//! two storage paths to each other directly; the cross-precision properties
//! run in every build.
//!
//! The elementary functions are checked three independent ways: each
//! kernel against its own evaluation at `2p + 64` bits, kernels against
//! each other through identities at `2p + 64` bits (which catch a mistake
//! both precisions of one kernel share, such as a table entry, a sign or a
//! ratio form), and against the separately written `dd_math` kernels.

use proptest::prelude::*;
use shadowreal::{dd_math, BigFloat, DoubleDouble, Real, RealOp};

/// The precisions the representation must agree across: both inline sizes,
/// the first heap size, and a deep heap size.
const PRECISIONS: [u32; 4] = [64, 256, 320, 1024];

/// Finite, not-too-extreme doubles for arithmetic properties.
fn reasonable_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e12f64..1e12,
        -1e3f64..1e3,
        -1.0f64..1.0,
        Just(0.0),
        Just(1.0),
        Just(-1.0),
        Just(1.0 + f64::EPSILON),
    ]
}

/// Asserts that two same-precision BigFloats are bit-identical: equal as
/// values, with equal exponents, precisions, and f64 roundings (for
/// normalized finite values of one precision, value equality is mantissa
/// equality).
fn assert_bit_identical(a: &BigFloat, b: &BigFloat, context: &str) {
    assert_eq!(a.precision(), b.precision(), "precision: {context}");
    if a.is_nan() || b.is_nan() {
        assert_eq!(a.is_nan(), b.is_nan(), "NaN-ness: {context}");
        return;
    }
    assert!(a.eq_value(b), "value: {context}");
    assert_eq!(a.exponent(), b.exponent(), "exponent: {context}");
    assert_eq!(a.is_negative(), b.is_negative(), "sign: {context}");
    assert_eq!(
        a.to_f64().to_bits(),
        b.to_f64().to_bits(),
        "f64 rounding: {context}"
    );
}

/// One mixed workload at a given precision: leaves, arithmetic, rounding.
/// Returns every intermediate so representation comparisons see more than
/// the final value.
fn workload(x: f64, y: f64, prec: u32) -> Vec<BigFloat> {
    let a = BigFloat::from_f64_prec(x, prec);
    let b = BigFloat::from_f64_prec(y, prec);
    let sum = a.add(&b);
    let diff = a.sub(&b);
    let prod = a.mul(&b);
    let quot = if b.is_zero() { b.clone() } else { a.div(&b) };
    let root = a.abs().sqrt();
    let rounded = prod.round_nearest();
    let rere = sum.with_precision(prec);
    vec![a, b, sum, diff, prod, quot, root, rounded, rere]
}

/// Every rewritten elementary kernel, with its arguments derived from one
/// sampled `x ∈ [0.01, 100)` (and `y ∈ [−5, 5]`) so each stays inside its
/// domain and its result inside a moderate range.
fn kernel_cases(x: f64, y: f64) -> Vec<(&'static str, f64, f64)> {
    let tiny = (x - 50.0) * 2f64.powi(-36);
    vec![
        ("exp", x / 4.0 - 12.5, 0.0),
        ("ln", x, 0.0),
        ("pow", x, y),
        ("cbrt", x, 0.0),
        ("cbrt", -x / 7.0, 0.0),
        ("tan", x, 0.0),
        ("expm1", x / 100.0 - 0.5, 0.0),
        ("expm1", x / 4.0, 0.0),
        ("log1p", x, 0.0),
        ("log1p", x / 100.0 - 0.5, 0.0),
        ("log2", x, 0.0),
        ("log10", x, 0.0),
        ("exp2", x / 4.0 - 12.5, 0.0),
        ("sinh", x / 10.0 - 5.0, 0.0),
        ("cosh", x / 10.0 - 5.0, 0.0),
        ("tanh", x / 10.0 - 5.0, 0.0),
        ("asinh", x - 50.0, 0.0),
        ("acosh", 1.0 + x, 0.0),
        ("atanh", x / 100.5 - 0.5, 0.0),
        ("atanh", x / 100.5, 0.0),
        ("asin", x / 50.25 - 1.0, 0.0),
        ("acos", x / 50.25 - 1.0, 0.0),
        ("atan2", y, x - 50.0),
        ("sin", x, 0.0),
        ("cos", x, 0.0),
        ("atan", x * y, 0.0),
        ("atan", y / 5.0, 0.0),
        // Small arguments, |a| ≤ 2^−30, where the ratio forms must keep
        // full relative accuracy.
        ("exp", tiny, 0.0),
        ("sin", tiny, 0.0),
        ("atan", tiny, 0.0),
        ("expm1", tiny, 0.0),
        ("ln", 1.0 + 2f64.powi(-40), 0.0),
        ("ln", 1.0 - 2f64.powi(-40), 0.0),
    ]
}

/// Evaluates the named kernel (`b` is the second operand of the binary
/// ones).
fn apply_kernel(name: &str, a: &BigFloat, b: &BigFloat) -> BigFloat {
    match name {
        "exp" => a.exp(),
        "ln" => a.ln(),
        "pow" => a.pow(b),
        "cbrt" => a.cbrt(),
        "tan" => a.tan(),
        "expm1" => a.expm1(),
        "log1p" => a.log1p(),
        "log2" => a.log2(),
        "log10" => a.log10(),
        "exp2" => a.exp2(),
        "sinh" => a.sinh(),
        "cosh" => a.cosh(),
        "tanh" => a.tanh(),
        "asinh" => a.asinh(),
        "acosh" => a.acosh(),
        "atanh" => a.atanh(),
        "asin" => a.asin(),
        "acos" => a.acos(),
        "atan2" => a.atan2(b),
        "sin" => a.sin(),
        "cos" => a.cos(),
        "atan" => a.atan(),
        _ => unreachable!("unknown kernel {name}"),
    }
}

/// Asserts that `got` is within one ulp (at its own precision) of
/// `expect`, a same-precision rounding of a much wider evaluation.
fn assert_within_one_ulp(got: &BigFloat, expect: &BigFloat, context: &str) {
    assert_eq!(got.precision(), expect.precision(), "precision: {context}");
    if !got.is_finite() || !expect.is_finite() || expect.is_zero() {
        assert!(
            got.eq_value(expect) || (got.is_nan() && expect.is_nan()),
            "special value: {context}: {got} vs {expect}"
        );
        return;
    }
    let diff = got.sub(expect);
    if diff.is_zero() {
        return;
    }
    // With value = f·2^e, f ∈ [0.5, 1), one ulp at precision p is 2^(e − p)
    // (the coarser ulp when the two straddle a power of two).
    let e = got
        .exponent()
        .max(expect.exponent())
        .expect("finite nonzero");
    let ulp_exp = e - got.precision() as i64;
    assert!(
        (-1000..1000).contains(&ulp_exp),
        "ulp out of f64 range: {context}"
    );
    let ulp = BigFloat::from_f64_prec(2f64.powi(ulp_exp as i32), 64);
    assert!(
        diff.abs().partial_cmp(&ulp) != Some(std::cmp::Ordering::Greater),
        "more than one ulp apart: {context}: {got:?} vs {expect:?}"
    );
}

/// Asserts `|got − want| ≤ tol·2^−q·|want|`, `q` the precision of the
/// operands: a relative bound in units of the last place at `q` bits.
fn assert_close(got: &BigFloat, want: &BigFloat, tol: f64, context: &str) {
    let q = want.precision() as i32;
    let bound = want
        .abs()
        .mul(&BigFloat::from_f64_prec(tol * 2f64.powi(-q), 64));
    assert!(
        got.sub(want).abs().partial_cmp(&bound) != Some(std::cmp::Ordering::Greater),
        "{context} at {q} bits: {got:?} vs {want:?}"
    );
}

/// The kernels the const-size and heap accumulator paths are compared on,
/// at `prec` bits, with arguments from one sampled `x ∈ [0.01, 100)`.
fn series_kernels(x: f64, prec: u32) -> Vec<BigFloat> {
    let big = |v: f64| BigFloat::from_f64_prec(v, prec);
    let small = big(x * 2f64.powi(-12));
    vec![
        big(x / 8.0 - 6.0).exp(),
        big(x).ln(),
        big(x).sin(),
        big(x).cos(),
        big(x).tan(),
        big(x - 50.0).atan(),
        big(x / 100.0).asin(),
        big(x / 100.0).acos(),
        small.expm1(),
        small.sinh(),
        small.log1p(),
        big(x).pow(&big(x / 40.0 - 1.0)),
        big(x - 50.0).atan2(&big(x / 3.0)),
    ]
}

proptest! {
    /// Exact roundtrip at every precision: 64-bit mantissas already hold any
    /// double exactly, so the boundary cannot change constructed values.
    #[test]
    fn doubles_roundtrip_at_every_precision(x in any::<f64>()) {
        for prec in PRECISIONS {
            let b = BigFloat::from_f64_prec(x, prec);
            if x.is_nan() {
                prop_assert!(b.to_f64().is_nan());
            } else {
                prop_assert_eq!(b.to_f64().to_bits(), x.to_bits(), "prec {}", prec);
            }
        }
    }

    /// Operations on exactly representable operands are exact at every
    /// precision, so all four precisions must produce the same double — the
    /// inline and heap paths cannot disagree on them.
    #[test]
    fn exact_arithmetic_agrees_across_the_boundary(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
    ) {
        let expect_sum = (a + b) as f64;
        let expect_prod = (a as f64) * (b as f64);
        for prec in PRECISIONS {
            let ba = BigFloat::from_f64_prec(a as f64, prec);
            let bb = BigFloat::from_f64_prec(b as f64, prec);
            prop_assert_eq!(ba.add(&bb).to_f64(), expect_sum, "add at {}", prec);
            prop_assert_eq!(ba.mul(&bb).to_f64(), expect_prod, "mul at {}", prec);
        }
    }

    /// Widening is exact and narrowing a widened value is the identity, in
    /// both directions across the inline/heap boundary.
    #[test]
    fn widening_roundtrips_across_the_boundary(x in reasonable_f64()) {
        for (lo, hi) in [(64u32, 320u32), (256, 320), (256, 1024), (64, 1024)] {
            let narrow = BigFloat::from_f64_prec(x, lo);
            let widened = narrow.with_precision(hi);
            prop_assert!(narrow.eq_value(&widened), "widening {} -> {} changed the value", lo, hi);
            let back = widened.with_precision(lo);
            assert_bit_identical(&narrow, &back, &format!("roundtrip {lo} -> {hi} -> {lo} of {x}"));
        }
    }

    /// The inline and forced-heap storage paths produce bit-identical
    /// results for the same workload at the same precision (debug builds;
    /// the hook is compiled out of release builds).
    #[test]
    fn inline_and_heap_paths_agree_bit_for_bit(
        x in reasonable_f64(),
        y in reasonable_f64(),
    ) {
        #[cfg(debug_assertions)]
        {
            for prec in PRECISIONS {
                let inline = workload(x, y, prec);
                shadowreal::bigfloat::set_force_heap_limbs(true);
                let heap = workload(x, y, prec);
                shadowreal::bigfloat::set_force_heap_limbs(false);
                for (i, (a, b)) in inline.iter().zip(&heap).enumerate() {
                    assert_bit_identical(
                        a,
                        b,
                        &format!("workload step {i} at {prec} bits on ({x}, {y})"),
                    );
                }
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (x, y);
        }
    }

    /// The unrolled add/mul fast paths are bit-identical to the general
    /// kernels on the same inputs, at the default 256 bits and at the 320-
    /// and 384-bit working precisions of a 256-bit shadow's elementary
    /// functions (debug builds; the kill switch is compiled out of release
    /// builds). Dense mantissas and a wide exponent spread exercise
    /// alignment, sticky collection, rounding carries, and the cancellation
    /// paths.
    #[test]
    fn fast_paths_match_general_kernels(
        x in reasonable_f64(),
        y in reasonable_f64(),
        scale in -80i32..80,
    ) {
        #[cfg(debug_assertions)]
        {
            prop_assume!(x != 0.0 && y != 0.0);
            for prec in [256u32, 320, 384] {
                let a = BigFloat::from_f64_prec(x, prec).div(&BigFloat::from_f64_prec(7.0, prec));
                let b = BigFloat::from_f64_prec(y * 2f64.powi(scale), prec)
                    .div(&BigFloat::from_f64_prec(3.0, prec));
                let fast = [a.add(&b), a.sub(&b), a.mul(&b), b.sub(&a)];
                shadowreal::bigfloat::set_disable_fast_paths(true);
                let general = [a.add(&b), a.sub(&b), a.mul(&b), b.sub(&a)];
                shadowreal::bigfloat::set_disable_fast_paths(false);
                for (i, (f, g)) in fast.iter().zip(&general).enumerate() {
                    if f.is_zero() && g.is_zero() {
                        assert_eq!(f.is_negative(), g.is_negative(), "zero sign at step {i}");
                        continue;
                    }
                    assert_bit_identical(
                        f,
                        g,
                        &format!("fast-path step {i} at {prec} bits on ({x}, {y}, {scale})"),
                    );
                }
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (x, y, scale);
        }
    }

    /// Elementary functions agree with libm at every precision — the
    /// boundary introduces no accuracy cliff — and every rewritten kernel is
    /// faithful: within one ulp of its own evaluation at `2p + 64` bits
    /// rounded to `p`. Each case checks faithfulness at one of 64, 256 and
    /// 320 bits (the 1024-bit reference would dominate the test's run
    /// time, so 1024 bits is covered by the libm check only).
    #[test]
    fn functions_stay_faithful_across_the_boundary(x in 0.01f64..100.0, pick in 0usize..3) {
        for prec in PRECISIONS {
            let b = BigFloat::from_f64_prec(x, prec);
            for (name, got, expect) in [
                ("exp", b.exp().to_f64(), x.exp()),
                ("ln", b.ln().to_f64(), x.ln()),
                ("sin", b.sin().to_f64(), x.sin()),
                ("sqrt", b.sqrt().to_f64(), x.sqrt()),
            ] {
                if expect.is_infinite() {
                    prop_assert!(got.is_infinite(), "{} at {}", name, prec);
                } else {
                    let scale = expect.abs().max(1e-300);
                    prop_assert!(
                        ((got - expect) / scale).abs() < 1e-12,
                        "{}({}) at {} bits: {} vs {}",
                        name, x, prec, got, expect
                    );
                }
            }
        }
        let prec = [64u32, 256, 320][pick];
        let reference = 2 * prec + 64;
        // A second operand for the binary kernels, spread over [−5, 5].
        let y = 5.0 * (3.0 * x).sin();
        for (name, a, b) in kernel_cases(x, y) {
            let got = apply_kernel(name, &BigFloat::from_f64_prec(a, prec), &BigFloat::from_f64_prec(b, prec));
            let wide = apply_kernel(
                name,
                &BigFloat::from_f64_prec(a, reference),
                &BigFloat::from_f64_prec(b, reference),
            );
            assert_within_one_ulp(&got, &wide.with_precision(prec), &format!("{name}({a}, {b}) at {prec} bits"));
        }
    }

    /// Identities between different kernels, each side at `2p + 64` bits:
    /// sin² + cos² = 1, tan = sin/cos, atan(tan r) = r on the reduced range,
    /// exp(ln x) = x and pow(x, y) = exp(y·ln x). The tolerances add up the
    /// faithful roundings on both sides (and, for the last two, the error
    /// the exponential's argument carries into its result).
    #[test]
    fn kernels_satisfy_cross_path_identities(
        x in 0.01f64..100.0,
        y in -5.0f64..5.0,
        pick in 0usize..3,
    ) {
        let q = 2 * [64u32, 256, 320][pick] + 64;
        let big = |v: f64| BigFloat::from_f64_prec(v, q);
        let (s, c) = (big(x).sin(), big(x).cos());
        assert_close(&s.mul(&s).add(&c.mul(&c)), &big(1.0), 16.0, &format!("sin² + cos² of {x}"));
        assert_close(&big(x).tan(), &s.div(&c), 16.0, &format!("tan = sin/cos of {x}"));
        let r = (x / 100.0 - 0.5) * 3.0;
        assert_close(&big(r).tan().atan(), &big(r), 16.0, &format!("atan(tan {r})"));
        assert_close(&big(x).ln().exp(), &big(x), 16.0, &format!("exp(ln {x})"));
        let y_ln_x = big(y).mul(&big(x).ln());
        let tol = 4.0 * y_ln_x.to_f64().abs() + 8.0;
        assert_close(&big(x).pow(&big(y)), &y_ln_x.exp(), tol, &format!("pow({x}, {y})"));
    }

    /// The series accumulator's const-size stack path (the width a 256-bit
    /// shadow uses) and its heap path are bit-identical, at 256 bits and at
    /// 320 bits, whose series always take the heap (debug builds; the kill
    /// switch is compiled out of release builds).
    #[test]
    fn series_storage_paths_agree_bit_for_bit(x in 0.01f64..100.0) {
        #[cfg(debug_assertions)]
        {
            for prec in [256u32, 320] {
                let fast = series_kernels(x, prec);
                shadowreal::bigfloat::set_disable_fast_paths(true);
                let heap = series_kernels(x, prec);
                shadowreal::bigfloat::set_disable_fast_paths(false);
                for (i, (f, h)) in fast.iter().zip(&heap).enumerate() {
                    assert_bit_identical(f, h, &format!("kernel {i} at {prec} bits on {x}"));
                }
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = x;
        }
    }

    /// The shadow-precision parameter threads through the `Real` trait: each
    /// precision stands alone, and mixed-precision operations resolve to the
    /// wider operand exactly as documented.
    #[test]
    fn trait_level_precision_is_per_value(x in reasonable_f64()) {
        // Zeros (and infinities/NaN) carry no mantissa, so they report the
        // process default precision; the property is about finite values.
        prop_assume!(x != 0.0);
        let narrow = <BigFloat as Real>::from_f64_prec(x, 64);
        let wide = <BigFloat as Real>::from_f64_prec(x, 1024);
        prop_assert_eq!(narrow.precision(), 64);
        prop_assert_eq!(wide.precision(), 1024);
        let mixed = BigFloat::apply(RealOp::Add, &[narrow, wide]);
        prop_assert_eq!(mixed.precision(), 1024);
    }
}

/// Exact cases the rewritten kernels must reproduce exactly at every
/// precision: a faithful kernel may round either way, but not away from a
/// representable true result.
#[test]
fn rewritten_kernels_are_exact_on_exact_cases() {
    for prec in PRECISIONS {
        let big = |x: f64| BigFloat::from_f64_prec(x, prec);
        for (name, got, want) in [
            ("cbrt(27)", big(27.0).cbrt(), 3.0),
            ("cbrt(-27)", big(-27.0).cbrt(), -3.0),
            ("pow(4, 0.5)", big(4.0).pow(&big(0.5)), 2.0),
            ("pow(2, 10)", big(2.0).pow(&big(10.0)), 1024.0),
            ("exp(0)", big(0.0).exp(), 1.0),
            ("ln(1)", big(1.0).ln(), 0.0),
        ] {
            assert!(got.eq_value(&big(want)), "{name} at {prec} bits: {got:?}");
            assert_eq!(got.precision(), prec, "{name} precision");
        }
        let ln1 = big(1.0).ln();
        assert!(
            ln1.is_zero() && !ln1.is_negative(),
            "ln(1) = {ln1:?} at {prec} bits, not +0"
        );
    }
}

/// The `BigFloat` kernels agree with the separately written `dd_math`
/// kernels across the `dd_math` certificate domains, to within the
/// accuracy each double-double kernel reaches there (its error dominates:
/// the 256-bit side is faithful). Each case runs on single-double operands
/// and again on wide ones, `hi + lo` with a nonzero low word that the
/// `BigFloat` operand holds exactly. Each bound sits at least 2 bits above
/// the worst deviation seen over 2000 points per case and operand kind, far
/// inside the 2^−85 the certificates claim; the points are a fixed
/// pseudo-random sample, so the check is deterministic.
#[test]
fn kernels_agree_with_the_double_double_kernels() {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    type Domain = fn(f64, f64) -> (f64, f64);
    // (kernel, domain, log2 of the relative bound)
    let cases: [(RealOp, Domain, i32); 21] = [
        (RealOp::Exp, |a, _| (1300.0 * a - 650.0, 0.0), -102),
        (RealOp::Exp, |a, _| (4.0 * a - 2.0, 0.0), -102),
        (RealOp::Exp2, |a, _| (80.0 * a - 40.0, 0.0), -102),
        (RealOp::Expm1, |a, _| (a - 0.5, 0.0), -101),
        (RealOp::Expm1, |a, _| (100.0 * a - 50.0, 0.0), -101),
        (
            RealOp::Log,
            |a, _| (10f64.powf(600.0 * a - 300.0), 0.0),
            -102,
        ),
        (RealOp::Log, |a, _| (0.5 + a, 0.0), -102),
        // log1p rounds 1 + a before its log, so a wide operand's low word
        // is cut to the sum's precision: these bounds stay where they were.
        (RealOp::Log1p, |a, _| (a - 0.5, 0.0), -93),
        (
            RealOp::Log1p,
            |a, _| (10f64.powf(20.0 * a - 10.0), 0.0),
            -92,
        ),
        (RealOp::Sin, |a, _| (200.0 * a - 100.0, 0.0), -102),
        (RealOp::Sin, |a, _| (1.5 * a - 0.75, 0.0), -102),
        (RealOp::Cos, |a, _| (200.0 * a - 100.0, 0.0), -102),
        (RealOp::Cos, |a, _| (1.5 * a - 0.75, 0.0), -102),
        (RealOp::Tan, |a, _| (3.0 * a - 1.5, 0.0), -101),
        (
            RealOp::Atan,
            |a, _| (10f64.powf(20.0 * a - 10.0), 0.0),
            -102,
        ),
        (RealOp::Atan, |a, _| (4.0 * a - 2.0, 0.0), -102),
        (RealOp::Asin, |a, _| (1.998 * a - 0.999, 0.0), -101),
        (RealOp::Acos, |a, _| (1.998 * a - 0.999, 0.0), -101),
        (
            RealOp::Atan2,
            |a, b| (10.0 * b - 5.0, 0.01 + 10.0 * a),
            -101,
        ),
        (
            RealOp::Cbrt,
            |a, _| (10f64.powf(600.0 * a - 300.0), 0.0),
            -101,
        ),
        (RealOp::Pow, |a, b| (0.1 + 10.0 * a, 20.0 * b - 10.0), -98),
    ];
    // A wide operand: `x` plus a low word x·2^−54·u, u ∈ (−½, ½).
    let wide = |x: f64, u: f64| DoubleDouble::from_parts(x, x * 2f64.powi(-54) * (u - 0.5));
    for (op, domain, log2_tol) in cases {
        for _ in 0..100 {
            let (x, y) = domain(next(), next());
            let (u, v) = (next(), next());
            let pure = [x, y].map(DoubleDouble::from_f64);
            for operands in [pure, [wide(x, u), wide(y, v)]] {
                let dd = &operands[..op.arity()];
                let got = dd_math::apply_library(op, &dd.iter().collect::<Vec<_>>());
                let big: Vec<BigFloat> = dd
                    .iter()
                    .map(|v| BigFloat::from_f64(v.hi()).add(&BigFloat::from_f64(v.lo())))
                    .collect();
                let want = BigFloat::apply(op, &big);
                let got = BigFloat::from_f64(got.hi()).add(&BigFloat::from_f64(got.lo()));
                let rel = got.sub(&want).abs().div(&want.abs()).to_f64();
                assert!(
                    rel <= 2f64.powi(log2_tol),
                    "{op}{dd:?}: relative deviation 2^{:.1} above 2^{log2_tol}",
                    rel.log2()
                );
            }
        }
    }
}
