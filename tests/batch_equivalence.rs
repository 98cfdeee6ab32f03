//! Batch-equivalence suite: `analyze_batched` must be interchangeable with
//! serial `analyze` — **bit-identical reports** — for every batch width,
//! every shadow representation, divergent control flow included.
//!
//! The batched engine replays each lane's serial statement sequence (the
//! lane-mask scheduler only changes the interleaving *between* lanes), each
//! lane owns a full analysis shard, and lane shards merge in contiguous
//! input order — so equivalence reduces to the same merge theorem the
//! parallel engine relies on, plus the bit-identity contract of the
//! lane-vectorized shadow kernels. This suite pins all of it end to end:
//! fixed programs chosen for divergence and special cases, the benchmark
//! suite, random programs over random sweeps, every configuration knob, and
//! the vectorized `DoubleDouble` kernels against their scalar versions.

use fpcore::Expr;
use fpvm::compile_core;
use herbgrind::{analyze, analyze_batched, analyze_batched_with_shadow, analyze_parallel};
use herbgrind::{analyze_with_shadow, AnalysisConfig, RangeKind};
use proptest::prelude::*;
use shadowreal::{dd_batch, DdLanes, DoubleDouble, Real, RealOp};

/// The widths the acceptance contract calls out: every supported power of
/// two (16 included — the widest compiled engine, which stresses the
/// group-shared trace layer's stack buffers and mask handling hardest),
/// plus a prime width whose uneven chunking exercises remainder lanes.
const WIDTHS: [usize; 6] = [1, 2, 4, 8, 13, 16];

fn assert_batched_matches_serial(
    program: &fpvm::Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    context: &str,
) {
    let serial = analyze(program, inputs, &config.clone().with_threads(1));
    for width in WIDTHS {
        let batched = analyze_batched(
            program,
            inputs,
            &config.clone().with_threads(1).with_batch_width(width),
        );
        match (&serial, &batched) {
            (Ok(serial), Ok(batched)) => {
                assert_eq!(
                    format!("{serial:?}"),
                    format!("{batched:?}"),
                    "reports diverged: {context}, width {width}"
                );
                assert_eq!(
                    serial.to_text(),
                    batched.to_text(),
                    "rendered reports diverged: {context}, width {width}"
                );
            }
            (serial, batched) => {
                assert_eq!(
                    format!("{:?}", serial.as_ref().err()),
                    format!("{:?}", batched.as_ref().err()),
                    "errors diverged: {context}, width {width}"
                );
            }
        }
    }
}

fn compile(src: &str) -> fpvm::Program {
    compile_core(&fpcore::parse_core(src).unwrap(), Default::default()).unwrap()
}

#[test]
fn batched_matches_serial_on_divergence_heavy_programs() {
    // Loop trip counts that differ per lane, data-dependent if/else arms,
    // branch divergence between float and shadow control flow, NaN
    // outputs, and Kahan-style compensation — the cases where per-lane
    // state could plausibly bleed across lanes.
    let cases: &[(&str, Vec<Vec<f64>>)] = &[
        (
            "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))",
            (0..30).map(|i| vec![10f64.powi(i)]).collect(),
        ),
        (
            "(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))",
            (0..17).map(|i| vec![(i * 7 % 40) as f64]).collect(),
        ),
        (
            "(FPCore (x) (if (< x 0) (sqrt (- 0 x)) (- (sqrt (+ x 1)) (sqrt x))))",
            (-12..12i32)
                .map(|i| vec![f64::from(i) * 10f64.powi(i.abs())])
                .collect(),
        ),
        (
            // The PID-controller pattern: the shadow disagrees with the
            // float loop exit, so branch divergences must accumulate
            // identically per lane.
            "(FPCore (n) (while (< t n) ((t 0 (+ t 0.2)) (c 0 (+ c 1))) c))",
            (1..9).map(|i| vec![i as f64 * 2.5]).collect(),
        ),
        (
            "(FPCore (x) (sqrt x))",
            vec![vec![-1.0], vec![4.0], vec![-9.0], vec![2.0], vec![0.0]],
        ),
        (
            // Fast2Sum compensation: detection must fire in the same lanes.
            "(FPCore (a b)
               (let* ((s (+ a b)) (t (- s a)) (e (- b t)) (r (+ s e))
                      (bad (- (+ a 1) a)))
                 (* r bad)))",
            (0..20)
                .map(|i| vec![10f64.powi(i), 1.0 + (i as f64) * 0.125])
                .collect(),
        ),
    ];
    for (src, inputs) in cases {
        let program = compile(src);
        assert_batched_matches_serial(&program, inputs, &AnalysisConfig::default(), src);
        let sensitive = AnalysisConfig::default().with_local_error_threshold(1.0);
        assert_batched_matches_serial(&program, inputs, &sensitive, src);
    }
}

#[test]
fn batched_matches_serial_for_every_shadow_representation() {
    let program = compile("(FPCore (x) (- (+ x 1) x))");
    let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![10f64.powi(i)]).collect();
    for width in WIDTHS {
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_batch_width(width);
        let dd_serial = analyze_with_shadow::<DoubleDouble>(&program, &inputs, &config).unwrap();
        let dd_batched =
            analyze_batched_with_shadow::<DoubleDouble>(&program, &inputs, &config).unwrap();
        assert_eq!(
            format!("{dd_serial:?}"),
            format!("{dd_batched:?}"),
            "DoubleDouble, width {width}"
        );
        let f_serial = analyze_with_shadow::<f64>(&program, &inputs, &config).unwrap();
        let f_batched = analyze_batched_with_shadow::<f64>(&program, &inputs, &config).unwrap();
        assert_eq!(
            format!("{f_serial:?}"),
            format!("{f_batched:?}"),
            "f64, width {width}"
        );
    }
}

#[test]
fn batched_matches_serial_for_every_configuration_knob() {
    let powers: (fpvm::Program, Vec<Vec<f64>>) = (
        compile("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))"),
        (0..20).map(|i| vec![10f64.powi(i)]).collect(),
    );
    // The same kernel as "NMSE example 3.1", on its sampled sweep.
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let sampled = fpbench::prepare(&core, 32, 7).expect("prepare");
    let sampled = (sampled.program, sampled.inputs);
    let cases = [
        (AnalysisConfig::fpdebug_like(), &powers),
        (
            AnalysisConfig::default().with_local_error_threshold(1.0),
            &powers,
        ),
        (
            AnalysisConfig::default().with_max_expression_depth(1),
            &powers,
        ),
        (
            AnalysisConfig::default().with_max_expression_depth(3),
            &powers,
        ),
        (
            AnalysisConfig::default().with_range_kind(RangeKind::Single),
            &powers,
        ),
        (
            AnalysisConfig::default().with_range_kind(RangeKind::None),
            &powers,
        ),
        (
            AnalysisConfig::default().with_compensation_detection(false),
            &powers,
        ),
        (
            AnalysisConfig {
                shadow_precision: 64,
                ..AnalysisConfig::default()
            },
            &powers,
        ),
        // Every input fits this trace budget alone, but a lane group shares
        // one interner and overflows it: the batched driver must re-run the
        // group's lanes one input at a time and succeed like serial.
        (
            AnalysisConfig::default().with_trace_node_budget(16),
            &sampled,
        ),
    ];
    for (i, (config, (program, inputs))) in cases.iter().enumerate() {
        assert_batched_matches_serial(program, inputs, config, &format!("config {i}"));
    }
    analyze(&sampled.0, &sampled.1, &cases[cases.len() - 1].0).expect("budget fits every input");
}

#[test]
fn batched_matches_serial_on_the_benchmark_suite() {
    for core in fpbench::subset(8) {
        let name = core.display_name().to_string();
        let prepared = fpbench::prepare(&core, 26, 2024).expect("prepare");
        let config = AnalysisConfig::default().with_threads(1);
        let serial = analyze(&prepared.program, &prepared.inputs, &config).unwrap();
        for width in [4usize, 13] {
            let batched = analyze_batched(
                &prepared.program,
                &prepared.inputs,
                &config.clone().with_batch_width(width),
            )
            .unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{batched:?}"),
                "{name}, width {width}"
            );
        }
    }
}

#[test]
fn all_three_drivers_are_interchangeable() {
    // analyze / analyze_parallel / analyze_batched on the same sweep, all
    // bit-identical; `analyze_batched` ignores the thread count.
    let program = compile("(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))");
    let inputs: Vec<Vec<f64>> = (1..50)
        .map(|i| vec![0.25 / i as f64, 1e-9 / i as f64])
        .collect();
    let serial = analyze(
        &program,
        &inputs,
        &AnalysisConfig::default().with_threads(1),
    )
    .unwrap();
    let parallel = analyze_parallel(
        &program,
        &inputs,
        &AnalysisConfig::default().with_threads(4),
    )
    .unwrap();
    let batched_threaded = analyze_batched(
        &program,
        &inputs,
        &AnalysisConfig::default()
            .with_threads(4)
            .with_batch_width(8),
    )
    .unwrap();
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    assert_eq!(format!("{serial:?}"), format!("{batched_threaded:?}"));
}

#[test]
fn batched_lane_passes_do_not_depend_on_the_thread_count() {
    // `analyze_batched` sweeps every input as one chunk: 32 inputs at width
    // 8 are 4 lane passes at any thread count, where thread shards of 11,
    // 11 and 10 inputs would take 2 passes each.
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
    let serial = analyze(
        &prepared.program,
        &prepared.inputs,
        &AnalysisConfig::default(),
    )
    .unwrap();
    let passes = |threads: usize| {
        let config = AnalysisConfig::default()
            .with_threads(threads)
            .with_batch_width(8);
        let capture = herbgrind::SweepCapture::begin(herbgrind::TelemetryMode::On);
        let batched = analyze_batched(&prepared.program, &prepared.inputs, &config).unwrap();
        let telemetry = capture.finish();
        assert_eq!(
            format!("{serial:?}"),
            format!("{batched:?}"),
            "threads={threads}"
        );
        telemetry.counter("fpvm.batch_passes")
    };
    assert_eq!(passes(1), 4);
    assert_eq!(passes(3), 4);
}

#[test]
fn width_plus_one_sweeps_stay_bit_identical_and_fill_lanes() {
    // Chunking regression: a sweep of W+1 inputs used to ceil-chunk into
    // fewer chunks than lanes (idling some entirely); the balanced partition
    // must keep the report bit-identical while giving every lane work. The
    // divergent-loop program makes per-lane state (and any cross-lane bleed)
    // visible in the report.
    let program = compile("(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))");
    for width in WIDTHS {
        let inputs: Vec<Vec<f64>> = (0..=width as i32)
            .map(|i| vec![f64::from(i * 7 % 23)])
            .collect();
        assert_batched_matches_serial(
            &program,
            &inputs,
            &AnalysisConfig::default(),
            &format!("{} inputs at width {width}", width + 1),
        );
    }
    // The thread count does not reach the lanes: 9 inputs at 8 threads run
    // as one 4-wide lane sweep.
    let inputs: Vec<Vec<f64>> = (0..9).map(|i| vec![f64::from(i * 5 % 17)]).collect();
    let serial = analyze(
        &program,
        &inputs,
        &AnalysisConfig::default().with_threads(1),
    )
    .unwrap();
    let sharded = analyze_batched(
        &program,
        &inputs,
        &AnalysisConfig::default()
            .with_threads(8)
            .with_batch_width(4),
    )
    .unwrap();
    assert_eq!(format!("{serial:?}"), format!("{sharded:?}"));
}

#[test]
fn unsupported_widths_fall_back_without_changing_reports() {
    let program = compile("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
    let inputs: Vec<Vec<f64>> = (0..15).map(|i| vec![10f64.powi(i)]).collect();
    let serial = analyze(
        &program,
        &inputs,
        &AnalysisConfig::default().with_threads(1),
    )
    .unwrap();
    for width in [0usize, 3, 5, 11, 12, 64, 1000] {
        let batched = analyze_batched(
            &program,
            &inputs,
            &AnalysisConfig::default()
                .with_threads(1)
                .with_batch_width(width),
        )
        .unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{batched:?}"),
            "width {width}"
        );
    }
}

/// A strategy producing well-formed numeric expressions over variables `a`
/// and `b`, including data-dependent branches so lane groups split.
fn arb_expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100.0f64..100.0).prop_map(|v| Expr::Number((v * 8.0).round() / 8.0)),
        Just(Expr::Number(0.0)),
        Just(Expr::Number(1.0)),
        Just(Expr::var("a")),
        Just(Expr::var("b")),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::op(RealOp::Add, vec![x, y])),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::op(RealOp::Sub, vec![x, y])),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::op(RealOp::Mul, vec![x, y])),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::op(RealOp::Div, vec![x, y])),
            inner.clone().prop_map(|x| Expr::op(RealOp::Sqrt, vec![x])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If {
                cond: Box::new(Expr::Cmp(fpcore::CmpOp::Lt, vec![Expr::var("a"), c])),
                then: Box::new(t),
                otherwise: Box::new(e),
            }),
        ]
    })
}

fn input_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e12f64..1e12,
        -1.0f64..1.0,
        Just(0.0),
        Just(1.0),
        Just(1e16),
        Just(-1e-300),
    ]
}

proptest! {
    /// Batched and serial analyses produce bit-identical reports on random
    /// (possibly branching) programs over random input sweeps, at a random
    /// supported or unsupported width.
    #[test]
    fn batched_matches_serial_on_random_programs(
        expr in arb_expr(3),
        inputs in proptest::collection::vec((input_value(), input_value()), 1..10),
        width in prop_oneof![Just(1usize), Just(2), Just(4), Just(7), Just(8), Just(13)],
    ) {
        let core = fpcore::FPCore {
            arguments: vec!["a".to_string(), "b".to_string()],
            name: None,
            pre: None,
            properties: Default::default(),
            body: expr,
        };
        let program = compile_core(&core, Default::default()).expect("compiles");
        let sweep: Vec<Vec<f64>> = inputs.iter().map(|&(a, b)| vec![a, b]).collect();
        let config = AnalysisConfig::default().with_threads(1).with_batch_width(width);
        let serial = analyze(&program, &sweep, &config).expect("serial analysis");
        let batched = analyze_batched(&program, &sweep, &config).expect("batched analysis");
        prop_assert_eq!(format!("{serial:?}"), format!("{batched:?}"), "width {}", width);
    }

    /// The lane-vectorized `DoubleDouble` kernels agree bit for bit with the
    /// scalar operations on random (including denormal/huge) operands.
    #[test]
    fn dd_batch_kernels_match_scalar_on_random_lanes(
        values in proptest::collection::vec((any::<f64>(), any::<f64>(), any::<f64>()), 4..5),
    ) {
        const W: usize = 4;
        let lanes: Vec<[DoubleDouble; W]> = (0..3)
            .map(|k| {
                std::array::from_fn(|l| {
                    let (a, b, c) = values[l];
                    match k {
                        0 => DoubleDouble::from_f64(a),
                        1 => DoubleDouble::from_f64(b).add(&DoubleDouble::from_f64(c * 1e-20)),
                        _ => DoubleDouble::from_f64(c),
                    }
                })
            })
            .collect();
        for &op in RealOp::all() {
            let args: Vec<DdLanes<W>> = lanes[..op.arity()]
                .iter()
                .map(DdLanes::from_scalars)
                .collect();
            let batch = dd_batch::apply(op, &args);
            for l in 0..W {
                let scalar_args: Vec<DoubleDouble> =
                    lanes[..op.arity()].iter().map(|lane| lane[l]).collect();
                let scalar = DoubleDouble::apply(op, &scalar_args);
                if scalar.is_nan() {
                    prop_assert!(batch.get(l).is_nan(), "{} lane {}", op, l);
                } else {
                    prop_assert_eq!(
                        (scalar.hi().to_bits(), scalar.lo().to_bits()),
                        (batch.get(l).hi().to_bits(), batch.get(l).lo().to_bits()),
                        "{} lane {}: {:?} vs {:?}",
                        op, l, scalar, batch.get(l)
                    );
                }
            }
        }
    }
}
