//! Sweep telemetry snapshots from every driver family: the same golden
//! sweep run through the serial, parallel, batched, and tiered drivers
//! (plus the tiered fault-isolated driver), each inside its own
//! [`SweepCapture`] on its own thread, all five at the same time. It prints
//! the human-readable snapshot for the tiered sweep and the stable JSON
//! rendering for all of them, in a fixed order, between machine-parseable
//! markers — CI runs this example, schema-validates every JSON block, and
//! checks that the order-independent metrics agree across drivers, which
//! would fail if one capture's events leaked into another's.
//!
//! Run with `cargo run --release --example telemetry_snapshot`.

use fpcore::parse_core;
use fpvm::{compile_core, Program};
use herbgrind::{
    analyze, analyze_batched, analyze_parallel, analyze_tiered, analyze_tiered_isolated,
    AnalysisConfig, Report, SweepCapture, SweepTelemetry, TelemetryMode,
};

/// The driver families, in the order their snapshots are printed.
const DRIVERS: [&str; 5] = ["serial", "parallel", "batched", "tiered", "tiered_isolated"];

/// Runs one driver family to its report; the fail-fast drivers must succeed.
fn run(driver: &str, program: &Program, inputs: &[Vec<f64>], config: &AnalysisConfig) -> Report {
    let report = match driver {
        "serial" => analyze(program, inputs, config),
        "parallel" => analyze_parallel(program, inputs, config),
        "batched" => analyze_batched(program, inputs, config),
        "tiered" => analyze_tiered(program, inputs, config),
        "tiered_isolated" => return analyze_tiered_isolated(program, inputs, config),
        other => unreachable!("unknown driver {other}"),
    };
    report.expect(driver)
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
    let source = "(FPCore (x y) :name \"plotter\" (- (sqrt (+ (* x x) (* y y))) x))";
    let core = parse_core(source).expect("valid FPCore");
    let program = compile_core(&core, Default::default()).expect("compiles");
    let inputs: Vec<Vec<f64>> = (1..200)
        .map(|i| vec![0.25 / f64::from(i), 1e-9 / f64::from(i)])
        .collect();
    let config = AnalysisConfig::default();

    // All five captures are open at once, one per thread.
    let (program, inputs, config) = (&program, &inputs, &config);
    let runs: Vec<(&str, Report, SweepTelemetry)> = std::thread::scope(|scope| {
        let sweeps = DRIVERS
            .map(|driver| scope.spawn(move || captured(|| run(driver, program, inputs, config))));
        let snapshots = sweeps.map(|sweep| sweep.join().expect("driver thread"));
        DRIVERS
            .into_iter()
            .zip(snapshots)
            .map(|(driver, (report, tel))| (driver, report, tel))
            .collect()
    });
    let serial_report = &runs[0].1;
    for (driver, report, _) in &runs {
        assert!(report.quarantined.is_empty(), "{driver}");
        assert_eq!(
            format!("{serial_report:?}"),
            format!("{report:?}"),
            "{driver}"
        );
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
