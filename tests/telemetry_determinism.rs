//! Determinism contracts of the sweep telemetry layer:
//!
//! 1. **Order-independent metrics are execution-plan-invariant** — every
//!    counter the registry marks *stable* (machine steps, shadow op counts
//!    by kind, `BigFloat` division dispatch, tier verdicts and escalation
//!    causes, the demand set and its counts-only record updates,
//!    quarantine totals) is identical across thread counts and batch
//!    widths. Width-dependent metrics (pass counts, divergence
//!    events, interner traffic, cache hits) are deliberately excluded from
//!    the stable set.
//! 2. **Telemetry never feeds back into analysis** — the report is
//!    bit-identical with telemetry on and off, for all four driver
//!    families, and a driver run inside an off-mode capture returns the
//!    same report as the bare driver.
//! 3. **A capture records its own sweep only** — uncaptured sweeps running
//!    on other threads at the same time do not leak into the snapshot, a
//!    capture overlapping another capture on another thread sees only its
//!    own sweep, and a capture nested inside another on one thread sees its
//!    own sweep while the enclosing one sees both.
//! 4. **The JSON rendering is schema-stable** — fixed schema name and
//!    version, every registered metric present.
//! 5. **The interner peak sees every run** — the last run of a serial
//!    sweep, of each thread shard and of each batched pass included.

use fpbench::PreparedBenchmark;
use fpvm::{MachineError, Program};
use herbgrind::telemetry::Phase;
use herbgrind::{
    analyze, analyze_batched, analyze_parallel, analyze_tiered, analyze_tiered_isolated,
    analyze_tiered_with_stats, AnalysisConfig, Report, SweepCapture, SweepTelemetry, TelemetryMode,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `sweep` inside a capture in `mode` and pairs its result with the
/// snapshot.
fn captured<T>(mode: TelemetryMode, sweep: impl FnOnce() -> T) -> (T, SweepTelemetry) {
    let capture = SweepCapture::begin(mode);
    let out = sweep();
    (out, capture.finish())
}

fn assert_reports_identical(a: &Report, b: &Report, context: &str) {
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "structural mismatch: {context}"
    );
    assert_eq!(a.to_text(), b.to_text(), "rendered mismatch: {context}");
}

fn assert_stable_counters_match(a: &SweepTelemetry, b: &SweepTelemetry, context: &str) {
    assert_eq!(
        a.stable_counters(),
        b.stable_counters(),
        "stable counters diverge: {context}"
    );
}

#[test]
fn stable_counters_are_thread_count_invariant() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
    let sweep = |threads: usize| {
        let config = AnalysisConfig::default().with_threads(threads);
        let (report, tel) = captured(TelemetryMode::On, || {
            analyze_parallel(&prepared.program, &prepared.inputs, &config)
        });
        report.unwrap_or_else(|e| panic!("threads={threads}: {e:?}"));
        tel
    };
    let baseline = sweep(1);
    assert!(baseline.counter("fpvm.steps") > 0);
    for threads in [2usize, 4] {
        let tel = sweep(threads);
        assert_stable_counters_match(&baseline, &tel, &format!("{threads} threads vs 1"));
    }
}

#[test]
fn stable_counters_are_batch_width_invariant() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
    let sweep = |width: usize| {
        let config = AnalysisConfig::default().with_batch_width(width);
        let (report, tel) = captured(TelemetryMode::On, || {
            analyze_batched(&prepared.program, &prepared.inputs, &config)
        });
        report.unwrap_or_else(|e| panic!("width={width}: {e:?}"));
        tel
    };
    let baseline = sweep(1);
    assert!(baseline.counter("fpvm.steps") > 0);
    for width in [4usize, 8] {
        let tel = sweep(width);
        assert_stable_counters_match(&baseline, &tel, &format!("width {width} vs 1"));
    }
}

#[test]
fn tiered_stable_counters_are_batch_width_invariant() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
    let mut snapshots = Vec::new();
    for width in [1usize, 4, 8] {
        let config = AnalysisConfig::default().with_batch_width(width);
        let (report, tel) = captured(TelemetryMode::On, || {
            analyze_tiered(&prepared.program, &prepared.inputs, &config)
        });
        report.unwrap_or_else(|e| panic!("width={width}: {e:?}"));
        snapshots.push((width, tel));
    }
    let (_, baseline) = &snapshots[0];
    let total =
        baseline.counter("tiered.inputs_certified") + baseline.counter("tiered.inputs_escalated");
    assert_eq!(total, prepared.inputs.len() as u64, "tier verdict totals");
    for (width, tel) in &snapshots[1..] {
        assert_stable_counters_match(baseline, tel, &format!("tiered width {width} vs 1"));
    }
}

#[test]
fn tiered_stable_counters_are_thread_count_invariant() {
    // The tiered engine sweeps every input as one chunk whatever the thread
    // count, so the demand set's size and the record updates it keeps
    // counts-only do not depend on the thread count either.
    for name in ["NMSE example 3.1", "naive variance accumulation"] {
        let core = fpbench::by_name(name).expect("benchmark present");
        let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
        let sweep = |threads: usize| {
            let config = AnalysisConfig::default().with_threads(threads);
            let (report, tel) = captured(TelemetryMode::On, || {
                analyze_tiered(&prepared.program, &prepared.inputs, &config)
            });
            report.unwrap_or_else(|e| panic!("{name}, threads={threads}: {e:?}"));
            tel
        };
        let baseline = sweep(1);
        assert!(baseline.counter("tiered.demand_statements") > 0, "{name}");
        assert!(
            baseline.counter("analysis.counts_only_updates") > 0,
            "{name}"
        );
        for threads in [2usize, 3, 4] {
            let tel = sweep(threads);
            let context = format!("{name}, tiered {threads} threads vs 1");
            assert_stable_counters_match(&baseline, &tel, &context);
        }
    }
}

#[test]
fn reports_are_bit_identical_with_telemetry_on_and_off() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 24, 7).expect("prepare");
    let (program, inputs) = (&prepared.program, &prepared.inputs);
    let config = AnalysisConfig::default();
    let drivers: [(&str, fn(_, _, _) -> _); 4] = [
        ("serial", analyze),
        ("parallel", analyze_parallel),
        ("batched", analyze_batched),
        ("tiered", analyze_tiered),
    ];
    let plain = analyze(program, inputs, &config).expect("serial");
    for (name, driver) in drivers {
        let bare = driver(program, inputs, &config).expect(name);
        let (off, tel_off) = captured(TelemetryMode::Off, || driver(program, inputs, &config));
        let (on, tel_on) = captured(TelemetryMode::On, || driver(program, inputs, &config));
        assert!(!tel_off.enabled, "{name}");
        assert!(tel_on.enabled, "{name}");
        let (off, on) = (off.expect(name), on.expect(name));
        assert_reports_identical(&bare, &off, &format!("{name} off capture vs bare"));
        assert_reports_identical(&off, &on, &format!("{name} on vs off"));
        assert_reports_identical(&plain, &on, &format!("{name} vs serial"));
    }
}

#[test]
fn isolated_driver_reports_are_bit_identical_with_telemetry_on_and_off() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 24, 7).expect("prepare");
    let config = AnalysisConfig::default();
    let sweep = || analyze_tiered_isolated(&prepared.program, &prepared.inputs, &config);
    let (report_off, tel_off) = captured(TelemetryMode::Off, sweep);
    let (report_on, tel_on) = captured(TelemetryMode::On, sweep);
    assert!(!tel_off.enabled);
    assert!(tel_on.enabled);
    assert_reports_identical(&report_off, &report_on, "tiered isolated on vs off");
    assert_eq!(
        tel_on.counter("tiered.inputs_certified") + tel_on.counter("tiered.inputs_escalated"),
        prepared.inputs.len() as u64
    );
}

#[test]
fn off_capture_returns_a_disabled_snapshot() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 16, 7).expect("prepare");
    let config = AnalysisConfig::default();
    let (report, tel) = captured(TelemetryMode::Off, || {
        analyze(&prepared.program, &prepared.inputs, &config)
    });
    assert!(report.expect("serial").total_runs > 0);
    assert!(!tel.enabled);
    assert_eq!(tel.counter("fpvm.steps"), 0);
}

#[test]
fn on_capture_counts_steps_ops_and_one_sweep_phase() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 16, 7).expect("prepare");
    let config = AnalysisConfig::default().with_threads(2);
    let (report, tel) = captured(TelemetryMode::On, || {
        analyze_parallel(&prepared.program, &prepared.inputs, &config)
    });
    report.expect("parallel");
    assert!(tel.enabled);
    assert!(tel.counter("fpvm.steps") > 0);
    assert!(tel.counter("shadow.bigfloat_ops") > 0);
    assert_eq!(tel.phase(herbgrind::telemetry::Phase::Sweep).count, 1);
}

#[test]
fn tiered_snapshot_subsumes_tier_stats() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 16, 7).expect("prepare");
    let config = AnalysisConfig::default();
    let (result, tel) = captured(TelemetryMode::On, || {
        analyze_tiered_with_stats(&prepared.program, &prepared.inputs, &config)
    });
    let (_, stats) = result.expect("tiered");
    assert_eq!(
        tel.counter("tiered.inputs_certified"),
        stats.certified_inputs as u64
    );
    assert_eq!(
        tel.counter("tiered.inputs_escalated"),
        stats.escalated_inputs() as u64
    );
}

#[test]
fn capture_disables_recording_after_finish() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 16, 7).expect("prepare");
    let config = AnalysisConfig::default();
    let (report, _) = captured(TelemetryMode::On, || {
        analyze_batched(&prepared.program, &prepared.inputs, &config)
    });
    report.expect("batched");
    assert!(!herbgrind::telemetry::enabled());
}

#[test]
fn uncaptured_sweeps_on_other_threads_do_not_leak_into_a_capture() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
    let config = AnalysisConfig::default().with_threads(2);
    let capture = || {
        let (report, tel) = captured(TelemetryMode::On, || {
            analyze_parallel(&prepared.program, &prepared.inputs, &config)
        });
        report.expect("captured sweep");
        tel
    };
    let alone = capture();
    let (stop, background_sweeps) = (AtomicBool::new(false), AtomicUsize::new(0));
    let concurrent = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                analyze(&prepared.program, &prepared.inputs, &config).expect("background");
                background_sweeps.fetch_add(1, Ordering::Relaxed);
            }
        });
        while background_sweeps.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let tel = capture();
        stop.store(true, Ordering::Relaxed);
        tel
    });
    assert_stable_counters_match(&alone, &concurrent, "capture alone vs beside uncaptured");
}

/// Benchmark `name` with 32 inputs at seed 2026, and the snapshot of its
/// sweep captured alone ([`sweep_in_capture`]).
fn parallel_capture(name: &str) -> (PreparedBenchmark, SweepTelemetry) {
    let core = fpbench::by_name(name).expect("benchmark present");
    let prepared = fpbench::prepare(&core, 32, 2026).expect("prepare");
    let tel = sweep_in_capture(&prepared);
    (prepared, tel)
}

/// Sweeps `prepared` with the parallel driver at 2 threads inside an on-mode
/// capture.
fn sweep_in_capture(prepared: &PreparedBenchmark) -> SweepTelemetry {
    let config = AnalysisConfig::default().with_threads(2);
    let (report, tel) = captured(TelemetryMode::On, || {
        analyze_parallel(&prepared.program, &prepared.inputs, &config)
    });
    report.expect("captured sweep");
    tel
}

#[test]
fn overlapping_captures_on_two_threads_each_see_their_own_sweep() {
    let (first, first_alone) = parallel_capture("NMSE example 3.1");
    let (second, second_alone) = parallel_capture("harmonic sum loop");
    let (opened, open) = mpsc::channel();
    let (finished, done) = mpsc::channel();
    let (first_tel, second_tel) = std::thread::scope(|scope| {
        let (first, second) = (&first, &second);
        let first_thread = scope.spawn(move || {
            let capture = SweepCapture::begin(TelemetryMode::On);
            opened.send(()).expect("second thread waiting");
            let config = AnalysisConfig::default().with_threads(2);
            analyze_parallel(&first.program, &first.inputs, &config).expect("first sweep");
            // Hold this capture open until the other thread has begun,
            // swept and finished a capture of its own.
            done.recv_timeout(Duration::from_secs(60))
                .expect("a second capture completes while the first is open");
            capture.finish()
        });
        let second_thread = scope.spawn(move || {
            open.recv().expect("first capture opened");
            let tel = sweep_in_capture(second);
            finished.send(()).expect("first thread waiting");
            tel
        });
        let second_tel = second_thread.join().expect("second thread");
        (first_thread.join().expect("first thread"), second_tel)
    });
    assert_stable_counters_match(&first_alone, &first_tel, "first capture, overlapped");
    assert_stable_counters_match(&second_alone, &second_tel, "second capture, overlapped");
}

#[test]
fn nested_capture_sees_its_own_sweep_and_the_outer_sees_both() {
    let (outer_bench, outer_alone) = parallel_capture("NMSE example 3.1");
    let (inner_bench, inner_alone) = parallel_capture("harmonic sum loop");
    let outer = SweepCapture::begin(TelemetryMode::On);
    let config = AnalysisConfig::default().with_threads(2);
    analyze_parallel(&outer_bench.program, &outer_bench.inputs, &config).expect("outer");
    let inner = sweep_in_capture(&inner_bench);
    let outer = outer.finish();
    assert_stable_counters_match(&inner_alone, &inner, "inner capture vs alone");
    let both: Vec<(&str, u64)> = outer_alone
        .stable_counters()
        .into_iter()
        .zip(inner_alone.stable_counters())
        .map(|((name, a), (_, b))| (name, a + b))
        .collect();
    assert_eq!(
        outer.stable_counters(),
        both,
        "outer capture vs both sweeps"
    );
    assert_eq!(outer.phase(Phase::Sweep).count, 2);
}

#[test]
fn interner_peak_counts_the_last_run_of_every_shard_and_pass() {
    type Driver = fn(&Program, &[Vec<f64>], &AnalysisConfig) -> Result<Report, MachineError>;
    let core = fpcore::parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").expect("parses");
    let program = fpvm::compile_core(&core, Default::default()).expect("compiles");
    let peak = |driver: Driver, inputs: &[Vec<f64>], config: AnalysisConfig| {
        let (report, tel) = captured(TelemetryMode::On, || driver(&program, inputs, &config));
        report.expect("sweep");
        tel.gauge("interner.peak_nodes")
    };
    let serial = AnalysisConfig::default();
    assert!(
        peak(analyze, &[vec![1.0e6]], serial.clone()) > 0,
        "one serial run"
    );
    let two = [vec![1.0e6], vec![3.0e12]];
    let serial_peak = peak(analyze, &two, serial.clone());
    let parallel = serial.clone().with_threads(2);
    assert_eq!(
        peak(analyze_parallel, &two, parallel),
        serial_peak,
        "2 threads vs serial"
    );
    let batched = serial.with_batch_width(8);
    assert!(peak(analyze_batched, &two, batched) > 0, "one batched pass");
}

#[test]
fn json_rendering_is_schema_stable() {
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 16, 7).expect("prepare");
    let config = AnalysisConfig::default();
    let (report, tel) = captured(TelemetryMode::On, || {
        analyze_tiered(&prepared.program, &prepared.inputs, &config)
    });
    report.expect("tiered");
    let json = tel.to_json();
    assert!(
        json.contains("\"schema\": \"herbgrind-sweep-telemetry\""),
        "{json}"
    );
    assert!(json.contains("\"version\": 1"), "{json}");
    assert!(json.contains("\"enabled\": true"), "{json}");
    for (name, _) in tel.counters() {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "missing counter {name}"
        );
    }
    for name in ["sweep", "certify", "tier_dd", "tier_bigfloat", "report"] {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "missing phase {name}"
        );
    }
    // A disabled snapshot renders the same schema with enabled: false.
    let disabled = SweepTelemetry::disabled().to_json();
    assert!(disabled.contains("\"schema\": \"herbgrind-sweep-telemetry\""));
    assert!(disabled.contains("\"enabled\": false"));
}
