//! Sweep telemetry snapshots from every driver family: the same golden
//! sweep run through the serial, parallel, batched, and tiered drivers
//! (plus the tiered fault-isolated driver), and a second sweep whose
//! verdicts mix the two shadow tiers run through the serial and tiered
//! drivers, each inside its own [`SweepCapture`] on its own thread, all
//! seven at the same time. It prints the human-readable snapshot for the
//! tiered sweep and the stable JSON rendering for all of them, in a fixed
//! order, between machine-parseable markers — CI runs this example,
//! schema-validates every JSON block, and checks that the order-independent
//! metrics agree across drivers, which would fail if one capture's events
//! leaked into another's.
//!
//! Run with `cargo run --release --example telemetry_snapshot`.

use fpcore::parse_core;
use fpvm::{compile_core, Program};
use herbgrind::{
    analyze, analyze_batched, analyze_parallel, analyze_tiered, analyze_tiered_isolated,
    AnalysisConfig, Report, SweepCapture, SweepTelemetry, TelemetryMode,
};

/// The captured sweeps, in the order their snapshots are printed: the
/// driver families on the golden sweep, then the serial and tiered drivers
/// on the mixed-verdict sweep.
const DRIVERS: [&str; 7] = [
    "serial",
    "parallel",
    "batched",
    "tiered",
    "tiered_isolated",
    "serial_mixed",
    "tiered_mixed",
];

/// A program and the inputs it is swept over.
type Sweep = (Program, Vec<Vec<f64>>);

/// Runs one captured sweep to its report; the fail-fast drivers must
/// succeed.
fn run(driver: &str, golden: &Sweep, mixed: &Sweep, config: &AnalysisConfig) -> Report {
    let ((program, inputs), (mixed_program, mixed_inputs)) = (golden, mixed);
    let report = match driver {
        "serial" => analyze(program, inputs, config),
        "parallel" => analyze_parallel(program, inputs, config),
        "batched" => analyze_batched(program, inputs, config),
        "tiered" => analyze_tiered(program, inputs, config),
        "tiered_isolated" => return analyze_tiered_isolated(program, inputs, config),
        "serial_mixed" => analyze(mixed_program, mixed_inputs, config),
        // The tiered engine ignores the thread count and sweeps every input
        // as one chunk; CI checks that it runs one certify pass here.
        "tiered_mixed" => {
            analyze_tiered(mixed_program, mixed_inputs, &config.clone().with_threads(2))
        }
        other => unreachable!("unknown driver {other}"),
    };
    report.expect(driver)
}

/// Compiles an FPCore source that is known to be valid.
fn compile(source: &str) -> Program {
    compile_core(
        &parse_core(source).expect("valid FPCore"),
        Default::default(),
    )
    .expect("compiles")
}

/// Runs `sweep` inside a telemetry capture and pairs its result with the
/// snapshot.
fn captured<T>(sweep: impl FnOnce() -> T) -> (T, SweepTelemetry) {
    let capture = SweepCapture::begin(TelemetryMode::On);
    let out = sweep();
    (out, capture.finish())
}

fn main() {
    // The §3 complex-plotter kernel: sqrt(x² + y²) − x cancels for small y.
    let golden = (
        compile("(FPCore (x y) :name \"plotter\" (- (sqrt (+ (* x x) (* y y))) x))"),
        (1..200)
            .map(|i| vec![0.25 / f64::from(i), 1e-9 / f64::from(i)])
            .collect(),
    );
    // A sweep whose verdicts interleave: x = 1 + i certifies for the
    // DoubleDouble tier, and every third input, x = 10^(15+i), cancels past
    // the certificate and escalates to BigFloat.
    let mixed = (
        compile("(FPCore (x) :name \"mixed tiers\" (- (sqrt (+ x 1)) (sqrt x)))"),
        (0..24)
            .map(|i| match i % 3 {
                2 => vec![10f64.powi(15 + i)],
                _ => vec![1.0 + f64::from(i)],
            })
            .collect(),
    );
    let config = AnalysisConfig::default();

    // All seven captures are open at once, one per thread.
    let (golden, mixed, config) = (&golden, &mixed, &config);
    let runs: Vec<(&str, Report, SweepTelemetry)> = std::thread::scope(|scope| {
        let sweeps = DRIVERS
            .map(|driver| scope.spawn(move || captured(|| run(driver, golden, mixed, config))));
        let snapshots = sweeps.map(|sweep| sweep.join().expect("driver thread"));
        DRIVERS
            .into_iter()
            .zip(snapshots)
            .map(|(driver, (report, tel))| (driver, report, tel))
            .collect()
    });
    // Each sweep's reports equal its serial driver's.
    for (driver, report, _) in &runs {
        assert!(report.quarantined.is_empty(), "{driver}");
        let serial = if driver.ends_with("_mixed") {
            &runs[5].1
        } else {
            &runs[0].1
        };
        assert_eq!(format!("{serial:?}"), format!("{report:?}"), "{driver}");
    }

    // Human-readable snapshot for one driver; the report's summary footer
    // rides along via the tier split captured in the snapshot.
    println!("{}", runs[3].2.to_text());
    println!(
        "lane utilization (batched driver): {:?}",
        runs[2].2.lane_utilization()
    );

    // Stable JSON between markers, one block per driver, for CI to extract
    // and schema-validate.
    for (driver, _, tel) in &runs {
        println!("--- TELEMETRY JSON BEGIN {driver} ---");
        println!("{}", tel.to_json());
        println!("--- TELEMETRY JSON END {driver} ---");
    }
}
