//! `analysis_sweep`: end-to-end throughput of the full analysis over an
//! input sweep — the Table 1 overhead analogue for the per-operation
//! bookkeeping around the shadow arithmetic.
//!
//! Three configurations run over the same benchmark slice and inputs:
//!
//! * `native` — the uninstrumented interpreter (`NullTracer`), the
//!   overhead-factor baseline;
//! * `flat` — the production analysis (`herbgrind::analyze_with_shadow`):
//!   flat generation-stamped shadow slots, pc-indexed record slots,
//!   clone-free operand handling, pre-decoded execution tape;
//! * `reference` — the retained map-based path
//!   (`herbgrind::reference::analyze_with_shadow_reference`): `HashMap`
//!   shadow memory, `BTreeMap` records, per-operand `Shadow::clone`,
//!   per-event `SourceLoc` clone, per-op `AnalysisConfig` clone.
//!
//! The analysis paths run at 64- and 256-bit shadow precision, so the
//! speedup of the flat layout is visible both when shadow arithmetic is
//! cheap and when it dominates.
//!
//! The kernel slice mirrors where analysis time goes in real programs:
//! hardware-arithmetic kernels and a loop kernel dominate the executed-op
//! count (as they do in the paper's Table 1 programs), plus one libm kernel
//! for coverage — the per-call cost of shadow transcendentals is the same
//! on both paths and is measured separately by `shadow_ops`.
//!
//! Output is human-readable rows plus a machine-readable JSON document
//! between `ANALYSIS_SWEEP_JSON_BEGIN`/`END` markers; set
//! `ANALYSIS_SWEEP_JSON=path` to also write the JSON to a file (the
//! committed `BENCH_analysis_sweep.json` baseline is produced that way).
//! `BENCH_SMOKE=1` switches to one short iteration per measurement for CI
//! smoke coverage.

use fpvm::Machine;
#[cfg(feature = "reference-analysis")]
use herbgrind::reference::analyze_with_shadow_reference;
use herbgrind::{analyze_with_shadow, AnalysisConfig};
use herbgrind_bench::{analyzed_ops, kernel, measure, SweepKernel};
use shadowreal::BigFloat;
use std::hint::black_box;

/// One measured configuration.
struct Row {
    path: &'static str,
    bits: u32,
    ns_per_op: f64,
    overhead_x: f64,
}

impl Row {
    fn ops_per_sec(&self) -> f64 {
        1e9 / self.ns_per_op
    }
}

/// The kernels of the sweep, each with the name the (feature-gated)
/// agreement check reports.
fn sweep_kernels(smoke: bool) -> Vec<(&'static str, SweepKernel)> {
    let n = if smoke { 4 } else { 200 };
    let loop_n = if smoke { 2 } else { 20 };
    vec![
        // The §3 complex-plotter kernel: straight-line hardware arithmetic
        // with a genuine cancellation (erroneous records and influences).
        (
            "plotter",
            kernel(
            "(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))",
            (1..=n).map(|i| vec![0.25 / i as f64, 1e-9 / i as f64]).collect(),
            ),
        ),
        // Horner-form polynomial: the add/mul-dominated steady state.
        (
            "poly",
            kernel(
            "(FPCore (x) (+ (* x (+ (* x (+ (* x (+ (* x (+ (* x (+ (* x 1.0) 2.0)) 3.0)) 4.0)) 5.0)) 6.0)) 7.0))",
            (1..=n).map(|i| vec![i as f64 * 0.017]).collect(),
            ),
        ),
        // Loop-carried accumulation: deep traces, the truncation-heavy case.
        (
            "harmonic_loop",
            kernel(
            "(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))",
            (1..=loop_n).map(|i| vec![(i * 20) as f64]).collect(),
            ),
        ),
        // One libm kernel for coverage (identical shadow-evaluation cost on
        // both paths; see `shadow_ops` for the per-call numbers).
        (
            "sine",
            kernel(
            "(FPCore (x) (sin x))",
            (1..=loop_n).map(|i| vec![i as f64 * 0.17]).collect(),
            ),
        ),
    ]
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let reps = if smoke { 1 } else { 5 };
    let prepared = sweep_kernels(smoke);

    // The per-op denominator: every configuration executes the same client
    // operations on the same inputs.
    let total_ops: u64 = prepared
        .iter()
        .map(|(_, p)| analyzed_ops(&p.program, &p.inputs))
        .sum();

    let mut rows: Vec<Row> = Vec::new();

    // --- Native baseline (uninstrumented interpretation) ------------------
    // Reuses the machine-memory buffer across runs, exactly as the analysis
    // paths do, so the overhead factor compares like against like.
    let machines: Vec<Machine<'_>> = prepared
        .iter()
        .map(|(_, p)| Machine::new(&p.program))
        .collect();
    let mut memory = Vec::new();
    let native_ns = measure(total_ops, reps, || {
        for ((_, p), machine) in prepared.iter().zip(&machines) {
            for input in &p.inputs {
                black_box(
                    machine
                        .run_traced_reusing(input, &mut fpvm::NullTracer, &mut memory)
                        .expect("native"),
                );
            }
        }
    });
    rows.push(Row {
        path: "native",
        bits: 0,
        ns_per_op: native_ns,
        overhead_x: 1.0,
    });

    // --- Flat and reference analysis paths at both precisions -------------
    // One analysis thread: this bench measures per-op overhead, not sweep
    // parallelism (`parallel_scaling` covers that).
    for bits in [64u32, 256] {
        let config = AnalysisConfig {
            shadow_precision: bits,
            ..AnalysisConfig::default().with_threads(1)
        };
        let flat_ns = measure(total_ops, reps, || {
            for (_, p) in &prepared {
                black_box(
                    analyze_with_shadow::<BigFloat>(&p.program, &p.inputs, &config)
                        .expect("flat analysis"),
                );
            }
        });
        rows.push(Row {
            path: "flat",
            bits,
            ns_per_op: flat_ns,
            overhead_x: flat_ns / native_ns,
        });
        #[cfg(feature = "reference-analysis")]
        {
            let reference_ns = measure(total_ops, reps, || {
                for (_, p) in &prepared {
                    black_box(
                        analyze_with_shadow_reference::<BigFloat>(&p.program, &p.inputs, &config)
                            .expect("reference analysis"),
                    );
                }
            });
            rows.push(Row {
                path: "reference",
                bits,
                ns_per_op: reference_ns,
                overhead_x: reference_ns / native_ns,
            });
        }
    }

    // The two paths must agree bit for bit even while being timed.
    #[cfg(feature = "reference-analysis")]
    for (name, p) in &prepared {
        let config = AnalysisConfig::default().with_threads(1);
        let flat = analyze_with_shadow::<BigFloat>(&p.program, &p.inputs, &config).unwrap();
        let reference =
            analyze_with_shadow_reference::<BigFloat>(&p.program, &p.inputs, &config).unwrap();
        assert_eq!(
            format!("{flat:?}"),
            format!("{reference:?}"),
            "flat and reference reports diverged on {name}"
        );
    }

    // --- Report -----------------------------------------------------------
    for row in &rows {
        println!(
            "bench analysis_sweep/{}/{}: {:.1} ns/op  ({:.2e} analyzed ops/s, {:.1}x native)",
            row.path,
            row.bits,
            row.ns_per_op,
            row.ops_per_sec(),
            row.overhead_x
        );
    }
    let speedups = if cfg!(feature = "reference-analysis") {
        let find = |path: &str, bits: u32| {
            rows.iter()
                .find(|r| r.path == path && r.bits == bits)
                .expect("row present")
                .ns_per_op
        };
        let speedup_64 = find("reference", 64) / find("flat", 64);
        let speedup_256 = find("reference", 256) / find("flat", 256);
        println!(
            "bench analysis_sweep: flat vs reference: {speedup_64:.2}x at 64 bits, {speedup_256:.2}x at 256 bits ({total_ops} analyzed ops per sweep)"
        );
        Some((speedup_64, speedup_256))
    } else {
        println!(
            "bench analysis_sweep: reference rows skipped (built without the `reference-analysis` feature; {total_ops} analyzed ops per sweep)"
        );
        None
    };

    let mut json = String::from("{\n  \"bench\": \"analysis_sweep\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"bits\": {}, \"ns_per_op\": {:.2}, \"ops_per_sec\": {:.0}, \"overhead_x\": {:.2}}}{}\n",
            row.path,
            row.bits,
            row.ns_per_op,
            row.ops_per_sec(),
            row.overhead_x,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    match speedups {
        Some((speedup_64, speedup_256)) => json.push_str(&format!(
            "  \"analyzed_ops_per_sweep\": {total_ops},\n  \"speedup_vs_reference\": {{\"p64\": {speedup_64:.2}, \"p256\": {speedup_256:.2}}}\n}}\n"
        )),
        None => json.push_str(&format!("  \"analyzed_ops_per_sweep\": {total_ops}\n}}\n")),
    }
    println!("ANALYSIS_SWEEP_JSON_BEGIN");
    print!("{json}");
    println!("ANALYSIS_SWEEP_JSON_END");
    if let Some(path) = std::env::var_os("ANALYSIS_SWEEP_JSON") {
        std::fs::write(&path, json).expect("write ANALYSIS_SWEEP_JSON file");
    }
}
