//! Sweep telemetry snapshots from every driver family: the same golden
//! sweep run through the serial, parallel, batched, and tiered drivers
//! (plus the tiered fault-isolated driver), each inside its own
//! [`SweepCapture`], printing the human-readable snapshot for the tiered
//! sweep and the stable JSON rendering for all of them between
//! machine-parseable markers — CI runs this example and schema-validates
//! every JSON block.
//!
//! Run with `cargo run --release --example telemetry_snapshot`.

use fpcore::parse_core;
use fpvm::compile_core;
use herbgrind::{
    analyze, analyze_batched, analyze_parallel, analyze_tiered, analyze_tiered_isolated,
    telemetry_to_json, AnalysisConfig, SweepCapture, SweepTelemetry, TelemetryMode,
};

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

    let mut snapshots: Vec<(&str, SweepTelemetry)> = Vec::new();

    let (serial_report, tel) = captured(|| analyze(&program, &inputs, &config));
    let serial_report = serial_report.expect("serial");
    snapshots.push(("serial", tel));
    let drivers: [(&str, fn(_, _, _) -> _); 3] = [
        ("parallel", analyze_parallel),
        ("batched", analyze_batched),
        ("tiered", analyze_tiered),
    ];
    for (driver, run) in drivers {
        let (report, tel) = captured(|| run(&program, &inputs, &config));
        let report = report.expect(driver);
        assert_eq!(format!("{serial_report:?}"), format!("{report:?}"));
        snapshots.push((driver, tel));
    }
    let (report, tel) = captured(|| analyze_tiered_isolated(&program, &inputs, &config));
    assert!(report.quarantined.is_empty());
    snapshots.push(("tiered_isolated", tel));

    // Human-readable snapshot for one driver; the report's summary footer
    // rides along via the tier split captured in the snapshot.
    let tiered = &snapshots[3].1;
    println!("{}", tiered.to_text());
    println!(
        "lane utilization (batched driver): {:?}",
        snapshots[2].1.lane_utilization()
    );

    // Stable JSON between markers, one block per driver, for CI to extract
    // and schema-validate.
    for (driver, tel) in &snapshots {
        println!("--- TELEMETRY JSON BEGIN {driver} ---");
        println!("{}", telemetry_to_json(tel));
        println!("--- TELEMETRY JSON END {driver} ---");
    }
}
