//! `batch_sweep`: throughput of the batched lane-parallel execution engine
//! against the serial drivers, in analyzed ops per second.
//!
//! Two measurement modes over the same kernels and inputs:
//!
//! * `full-report` — the complete Herbgrind analysis
//!   (`herbgrind::analyze_batched` vs serial `analyze_with_shadow`): every
//!   lane keeps its full record shard (traces, anti-unification, input
//!   characteristics), so the batch amortizes dispatch and vectorizes the
//!   shadow arithmetic and local-error computation but not the per-lane
//!   record keeping. Reports are bit-identical to serial, which is asserted
//!   in-run.
//! * `shadow-error` — the lane-vectorized `DoubleDouble` local-error probe
//!   (`herbgrind::probe_local_error`): struct-of-arrays shadow planes,
//!   vectorized `dd_batch` kernels, integer-ulps error counters per
//!   statement — the FpDebug-style detection layer, showing what the
//!   engine delivers once per-lane bookkeeping is off the per-op path.
//!   Width 1 is the serial-equivalent baseline (same engine, one lane).
//!
//! Both modes run at lane widths 1, 4, and 8 with the `f64` (engine
//! overhead only) and `DoubleDouble` shadows. Two extra `full-report` rows
//! re-run the batched W=8 dd sweep inside a telemetry capture
//! (`telemetry-off` / `telemetry-on` engines): the off row documents the
//! zero-cost-when-off contract (within 2% of the plain row, asserted on
//! the committed baseline), the on row the full recording cost.
//! Output is human-readable rows
//! plus machine-readable JSON between `BATCH_SWEEP_JSON_BEGIN`/`END`
//! markers; `BATCH_SWEEP_JSON=path` also writes the JSON to a file (the
//! committed `BENCH_batch_sweep.json` baseline is produced that way), and
//! `BENCH_SMOKE=1` switches to one short iteration per measurement for CI.

use fpvm::Program;
use herbgrind::{
    analyze_batched_with_shadow, analyze_with_shadow, probe_local_error, AnalysisConfig,
};
use herbgrind_bench::{analyzed_ops, kernel, measure, SweepKernel};
use shadowreal::DoubleDouble;
use std::hint::black_box;

struct Row {
    mode: &'static str,
    shadow: &'static str,
    engine: &'static str,
    width: usize,
    ns_per_op: f64,
}

impl Row {
    fn ops_per_sec(&self) -> f64 {
        1e9 / self.ns_per_op
    }
}

/// The `analysis_sweep` kernel mix, split by lane-coherence: straight-line
/// cancellation and polynomial kernels (the common full-batch case), a
/// lane-*coherent* loop (every input runs the same trip count, so batches
/// never diverge — the dot-product/stencil shape of the paper's Table 1
/// programs), a lane-*divergent* loop whose trip counts span 16x (the
/// engine's worst case: groups thin out as lanes exit), and one libm call
/// for coverage.
fn sweep_kernels(smoke: bool) -> Vec<SweepKernel> {
    let n = if smoke { 4 } else { 400 };
    let loop_n = if smoke { 2 } else { 40 };
    let divergent_n = if smoke { 2 } else { 16 };
    vec![
        kernel(
            "(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))",
            (1..=n).map(|i| vec![0.25 / i as f64, 1e-9 / i as f64]).collect(),
        ),
        kernel(
            "(FPCore (x) (+ (* x (+ (* x (+ (* x (+ (* x (+ (* x (+ (* x 1.0) 2.0)) 3.0)) 4.0)) 5.0)) 6.0)) 7.0))",
            (1..=n).map(|i| vec![i as f64 * 0.017]).collect(),
        ),
        // Coherent loop: geometric-series accumulation, 300 iterations for
        // every input.
        kernel(
            "(FPCore (q) (while (< i 300) ((s 0 (+ (* s q) 1)) (i 0 (+ i 1))) s))",
            (1..=loop_n).map(|i| vec![0.5 + i as f64 * 0.01]).collect(),
        ),
        // Divergent loop: harmonic sum with per-input trip counts 20..320.
        kernel(
            "(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))",
            (1..=divergent_n).map(|i| vec![(i * 20) as f64]).collect(),
        ),
        kernel(
            "(FPCore (x) (sin x))",
            (1..=loop_n).map(|i| vec![i as f64 * 0.17]).collect(),
        ),
    ]
}

fn probe_at_width(width: usize, program: &Program, inputs: &[Vec<f64>], threshold: f64) {
    let summary = match width {
        1 => probe_local_error::<1>(program, inputs, threshold),
        4 => probe_local_error::<4>(program, inputs, threshold),
        8 => probe_local_error::<8>(program, inputs, threshold),
        _ => unreachable!("bench widths"),
    };
    black_box(summary.expect("probe sweep"));
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let reps = if smoke { 1 } else { 9 };
    let prepared = sweep_kernels(smoke);
    let widths = [1usize, 4, 8];

    let total_ops: u64 = prepared
        .iter()
        .map(|p| analyzed_ops(&p.program, &p.inputs))
        .sum();

    let mut rows: Vec<Row> = Vec::new();

    // --- full-report mode: serial baselines and batched widths ------------
    // One analysis thread throughout: this bench measures the lane engine,
    // not sweep parallelism.
    let base = AnalysisConfig::default().with_threads(1);
    let full_serial_f64 = measure(total_ops, reps, || {
        for p in &prepared {
            black_box(analyze_with_shadow::<f64>(&p.program, &p.inputs, &base).expect("serial"));
        }
    });
    rows.push(Row {
        mode: "full-report",
        shadow: "f64",
        engine: "serial",
        width: 0,
        ns_per_op: full_serial_f64,
    });
    let full_serial_dd = measure(total_ops, reps, || {
        for p in &prepared {
            black_box(
                analyze_with_shadow::<DoubleDouble>(&p.program, &p.inputs, &base).expect("serial"),
            );
        }
    });
    rows.push(Row {
        mode: "full-report",
        shadow: "dd",
        engine: "serial",
        width: 0,
        ns_per_op: full_serial_dd,
    });
    // Fault-isolated serial driver on the same clean sweep: the per-input
    // catch_unwind + quarantine bookkeeping must be almost free when nothing
    // faults (the committed baseline asserts the fast path stays within 2%
    // of the plain driver).
    let full_isolated_dd = measure(total_ops, reps, || {
        for p in &prepared {
            black_box(herbgrind::analyze_isolated_with_shadow::<DoubleDouble>(
                &p.program, &p.inputs, &base,
            ));
        }
    });
    rows.push(Row {
        mode: "full-report",
        shadow: "dd",
        engine: "isolated",
        width: 0,
        ns_per_op: full_isolated_dd,
    });
    for &width in &widths {
        let config = base.clone().with_batch_width(width);
        let ns = measure(total_ops, reps, || {
            for p in &prepared {
                black_box(
                    analyze_batched_with_shadow::<f64>(&p.program, &p.inputs, &config)
                        .expect("batched"),
                );
            }
        });
        rows.push(Row {
            mode: "full-report",
            shadow: "f64",
            engine: "batched",
            width,
            ns_per_op: ns,
        });
        let ns = measure(total_ops, reps, || {
            for p in &prepared {
                black_box(
                    analyze_batched_with_shadow::<DoubleDouble>(&p.program, &p.inputs, &config)
                        .expect("batched"),
                );
            }
        });
        rows.push(Row {
            mode: "full-report",
            shadow: "dd",
            engine: "batched",
            width,
            ns_per_op: ns,
        });
    }

    // --- telemetry capture overhead on the batched dd sweep ---------------
    // Same sweep as the batched w=8 row, run through a telemetry capture:
    // `Off` (the default) must cost nothing measurable — every recording
    // site in the pipeline reduces to one thread-local load and a branch —
    // and `On` shows the full-recording cost for reference. The committed baseline
    // asserts the off-mode row stays within 2% of the plain batched row.
    let config_w8 = base.clone().with_batch_width(8);
    for (engine, mode) in [
        ("telemetry-off", herbgrind::TelemetryMode::Off),
        ("telemetry-on", herbgrind::TelemetryMode::On),
    ] {
        let ns = measure(total_ops, reps, || {
            for p in &prepared {
                let capture = herbgrind::SweepCapture::begin(mode);
                black_box(
                    analyze_batched_with_shadow::<DoubleDouble>(&p.program, &p.inputs, &config_w8)
                        .expect("batched"),
                );
                black_box(capture.finish());
            }
        });
        rows.push(Row {
            mode: "full-report",
            shadow: "dd",
            engine,
            width: 8,
            ns_per_op: ns,
        });
    }

    // --- shadow-error mode: the vectorized DoubleDouble probe -------------
    let threshold = base.local_error_threshold;
    for &width in &widths {
        let ns = measure(total_ops, reps, || {
            for p in &prepared {
                probe_at_width(width, &p.program, &p.inputs, threshold);
            }
        });
        rows.push(Row {
            mode: "shadow-error",
            shadow: "dd",
            engine: "batched",
            width,
            ns_per_op: ns,
        });
    }

    // Batched and serial full analyses must agree bit for bit even while
    // being timed.
    for p in &prepared {
        let serial =
            analyze_with_shadow::<DoubleDouble>(&p.program, &p.inputs, &base).expect("serial");
        let batched = analyze_batched_with_shadow::<DoubleDouble>(
            &p.program,
            &p.inputs,
            &base.clone().with_batch_width(8),
        )
        .expect("batched");
        assert_eq!(
            format!("{serial:?}"),
            format!("{batched:?}"),
            "batched report diverged from serial"
        );
        let isolated =
            herbgrind::analyze_isolated_with_shadow::<DoubleDouble>(&p.program, &p.inputs, &base);
        assert!(
            isolated.quarantined.is_empty(),
            "clean benchmark sweep must not quarantine"
        );
        assert_eq!(
            format!("{serial:?}"),
            format!("{isolated:?}"),
            "fault-isolated report diverged from serial"
        );
    }

    // --- Report -----------------------------------------------------------
    let find = |mode: &str, shadow: &str, engine: &str, width: usize| {
        rows.iter()
            .find(|r| {
                r.mode == mode && r.shadow == shadow && r.engine == engine && r.width == width
            })
            .expect("row present")
            .ns_per_op
    };
    for row in &rows {
        println!(
            "bench batch_sweep/{}/{}/{}{}: {:.1} ns/op  ({:.2e} analyzed ops/s)",
            row.mode,
            row.shadow,
            row.engine,
            if row.width == 0 {
                String::new()
            } else {
                format!("/w{}", row.width)
            },
            row.ns_per_op,
            row.ops_per_sec()
        );
    }
    let probe_w8_vs_w1 =
        find("shadow-error", "dd", "batched", 1) / find("shadow-error", "dd", "batched", 8);
    let full_dd_w8_vs_w1 =
        find("full-report", "dd", "batched", 1) / find("full-report", "dd", "batched", 8);
    let full_f64_w8_vs_w1 =
        find("full-report", "f64", "batched", 1) / find("full-report", "f64", "batched", 8);
    let full_dd_w8_vs_serial =
        find("full-report", "dd", "serial", 0) / find("full-report", "dd", "batched", 8);
    let isolated_vs_serial =
        find("full-report", "dd", "serial", 0) / find("full-report", "dd", "isolated", 0);
    let telemetry_off_vs_plain =
        find("full-report", "dd", "batched", 8) / find("full-report", "dd", "telemetry-off", 8);
    let telemetry_on_vs_off = find("full-report", "dd", "telemetry-off", 8)
        / find("full-report", "dd", "telemetry-on", 8);
    println!(
        "bench batch_sweep: DoubleDouble W=8 vs W=1: {probe_w8_vs_w1:.2}x shadow-error, {full_dd_w8_vs_w1:.2}x full-report ({full_dd_w8_vs_serial:.2}x vs serial; f64 full-report {full_f64_w8_vs_w1:.2}x; fault-isolated serial {isolated_vs_serial:.2}x vs plain; telemetry off-wrapper {telemetry_off_vs_plain:.2}x vs plain, on {telemetry_on_vs_off:.2}x vs off; {total_ops} analyzed ops per sweep)"
    );

    let mut json = String::from("{\n  \"bench\": \"batch_sweep\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"shadow\": \"{}\", \"engine\": \"{}\", \"width\": {}, \"ns_per_op\": {:.2}, \"ops_per_sec\": {:.0}}}{}\n",
            row.mode,
            row.shadow,
            row.engine,
            row.width,
            row.ns_per_op,
            row.ops_per_sec(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"analyzed_ops_per_sweep\": {total_ops},\n  \"speedup\": {{\"dd_shadow_error_w8_vs_w1\": {probe_w8_vs_w1:.2}, \"dd_full_report_w8_vs_w1\": {full_dd_w8_vs_w1:.2}, \"f64_full_report_w8_vs_w1\": {full_f64_w8_vs_w1:.2}, \"dd_full_report_w8_vs_serial\": {full_dd_w8_vs_serial:.2}, \"dd_full_report_isolated_vs_serial\": {isolated_vs_serial:.2}, \"dd_full_report_w8_telemetry_off_vs_plain\": {telemetry_off_vs_plain:.2}, \"dd_full_report_w8_telemetry_on_vs_off\": {telemetry_on_vs_off:.2}}}\n}}\n"
    ));
    println!("BATCH_SWEEP_JSON_BEGIN");
    print!("{json}");
    println!("BATCH_SWEEP_JSON_END");
    if let Some(path) = std::env::var_os("BATCH_SWEEP_JSON") {
        std::fs::write(&path, json).expect("write BATCH_SWEEP_JSON file");
    }
}
