//! Budget exhaustion mid-sweep under the fault-isolated drivers: an input
//! that exhausts its per-run budget (steps, wall-clock, or trace memory) is
//! quarantined while the other inputs' records survive untouched, the
//! degraded report is bit-identical to analyzing the survivors alone, and
//! the quarantine list is deterministic across thread counts and batch
//! widths.
//!
//! These tests exercise *real* budget faults (a runaway loop, a heavy
//! branch) with no injection; the `fault-injection` suite in
//! `tests/fault_isolation.rs` covers the forced-failure matrix.

use fpcore::parse_core;
use fpvm::{compile_core, MachineError, Program};
use herbgrind::{
    analyze, analyze_batched_isolated, analyze_isolated, analyze_parallel_isolated,
    analyze_tiered_isolated, AnalysisConfig, QuarantinedInput, Report, SweepFault, SweepStage,
};

/// `n` iterations of a compensated product — cost proportional to the
/// input, so one input can blow a step budget the rest stay far under.
const LOOP_SRC: &str = "(FPCore (n)
  (while (< i n) ([i 0 (+ i 1)] [acc 1 (* acc 1.0000001)]) acc))";

fn loop_program() -> Program {
    let core = parse_core(LOOP_SRC).expect("loop benchmark parses");
    compile_core(&core, Default::default()).expect("loop benchmark compiles")
}

/// Negative inputs evaluate a deep Horner chain whose many distinct
/// constants intern far more trace nodes than the two-op positive branch —
/// a per-input-deterministic trace-memory workload.
fn branchy_program() -> Program {
    let mut big = "x".to_string();
    for k in 0..80 {
        big = format!("(+ {}.5 (* x {big}))", k + 1);
    }
    let src = format!("(FPCore (x) (if (< x 0) {big} (+ x 1)))");
    let core = parse_core(&src).expect("branchy benchmark parses");
    compile_core(&core, Default::default()).expect("branchy benchmark compiles")
}

/// The degraded report must equal the plain serial analysis of the
/// survivors, bit for bit, once its quarantine list (which the plain driver
/// cannot produce) is set aside.
fn assert_degraded_matches_survivors(degraded: &Report, survivors: &Report, context: &str) {
    let mut cleared = degraded.clone();
    cleared.quarantined.clear();
    assert_eq!(
        format!("{cleared:?}"),
        format!("{survivors:?}"),
        "structural mismatch: {context}"
    );
    assert_eq!(
        cleared.to_text(),
        survivors.to_text(),
        "rendered mismatch: {context}"
    );
}

fn surviving_inputs(inputs: &[Vec<f64>], quarantined: &[QuarantinedInput]) -> Vec<Vec<f64>> {
    inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| !quarantined.iter().any(|q| q.input_index == *i))
        .map(|(_, input)| input.clone())
        .collect()
}

#[test]
fn step_budget_mid_sweep_quarantines_only_the_runaway_input() {
    let program = loop_program();
    // Input 5 of 12 exhausts the step budget; everything else is tiny.
    let iters = [
        5.0, 8.0, 3.0, 6.0, 2.0, 10_000.0, 4.0, 7.0, 1.0, 9.0, 2.0, 5.0,
    ];
    let inputs: Vec<Vec<f64>> = iters.iter().map(|&n| vec![n]).collect();
    let config = AnalysisConfig::default().with_step_limit(500);
    let expected_error = SweepFault::Machine(MachineError::StepBudgetExceeded { limit: 500 });

    // The plain driver aborts the whole sweep on the same fault.
    assert_eq!(
        analyze(&program, &inputs, &config).err(),
        Some(MachineError::StepBudgetExceeded { limit: 500 })
    );

    let reference = analyze_isolated(&program, &inputs, &config);
    assert_eq!(
        reference.quarantined,
        vec![QuarantinedInput {
            input_index: 5,
            stage: SweepStage::Serial,
            error: expected_error.clone(),
        }]
    );
    let survivors = analyze(
        &program,
        &surviving_inputs(&inputs, &reference.quarantined),
        &config,
    )
    .expect("survivors analyze cleanly");
    assert_eq!(survivors.total_runs, 11);
    assert_degraded_matches_survivors(&reference, &survivors, "serial isolated");

    for threads in [1usize, 2, 5, 8] {
        let config = config.clone().with_threads(threads);
        let report = analyze_parallel_isolated(&program, &inputs, &config);
        assert_eq!(
            report.quarantined,
            vec![QuarantinedInput {
                input_index: 5,
                stage: SweepStage::ParallelShard,
                error: expected_error.clone(),
            }],
            "parallel threads={threads}"
        );
        assert_degraded_matches_survivors(&report, &survivors, &format!("parallel t={threads}"));
    }

    for width in [1usize, 2, 8] {
        for threads in [1usize, 2] {
            let config = config.clone().with_batch_width(width).with_threads(threads);
            let report = analyze_batched_isolated(&program, &inputs, &config);
            assert_eq!(
                report.quarantined,
                vec![QuarantinedInput {
                    input_index: 5,
                    stage: SweepStage::BatchedLane,
                    error: expected_error.clone(),
                }],
                "batched width={width} threads={threads}"
            );
            assert_degraded_matches_survivors(
                &report,
                &survivors,
                &format!("batched w={width} t={threads}"),
            );
        }
    }

    for width in [1usize, 8] {
        let config = config.clone().with_batch_width(width);
        let report = analyze_tiered_isolated(&program, &inputs, &config);
        // The certify probe fails on the runaway too, so it lands in the
        // BigFloat tier, whose serial re-run of the faulted pass decides.
        assert_eq!(
            report.quarantined,
            vec![QuarantinedInput {
                input_index: 5,
                stage: SweepStage::TieredBigFloat,
                error: expected_error.clone(),
            }],
            "tiered width={width}"
        );
        assert_degraded_matches_survivors(&report, &survivors, &format!("tiered w={width}"));
    }
}

#[test]
fn deadline_mid_sweep_quarantines_the_runaway_input() {
    let program = loop_program();
    // Input 3 of 6 loops effectively forever: the interpreter's coarse
    // deadline check (every 1024 steps) is the only thing that stops it
    // before the (large) step-budget backstop, while the tiny inputs halt
    // in well under 1024 steps and therefore can never observe the
    // deadline at all.
    let iters = [4.0, 7.0, 2.0, 1.0e15, 5.0, 3.0];
    let inputs: Vec<Vec<f64>> = iters.iter().map(|&n| vec![n]).collect();
    let config = AnalysisConfig::default()
        .with_step_limit(100_000_000)
        .with_deadline_millis(100);
    let expected = QuarantinedInput {
        input_index: 3,
        stage: SweepStage::Serial,
        error: SweepFault::Machine(MachineError::DeadlineExceeded { millis: 100 }),
    };

    let reference = analyze_isolated(&program, &inputs, &config);
    assert_eq!(reference.quarantined, vec![expected.clone()]);
    let survivors = analyze(
        &program,
        &surviving_inputs(&inputs, &reference.quarantined),
        &config,
    )
    .expect("survivors analyze cleanly");
    assert_eq!(survivors.total_runs, 5);
    assert_degraded_matches_survivors(&reference, &survivors, "serial isolated, deadline");

    let parallel = analyze_parallel_isolated(&program, &inputs, &config.clone().with_threads(2));
    assert_eq!(
        parallel.quarantined,
        vec![QuarantinedInput {
            stage: SweepStage::ParallelShard,
            ..expected.clone()
        }]
    );
    assert_degraded_matches_survivors(&parallel, &survivors, "parallel isolated, deadline");

    // In a batched pass the deadline faults every still-running lane of the
    // pass; the serial re-run of the chunk heals the innocent inputs, so
    // only the runaway input is quarantined regardless of lane grouping.
    let batched = analyze_batched_isolated(
        &program,
        &inputs,
        &config.clone().with_batch_width(4).with_threads(1),
    );
    assert_eq!(
        batched.quarantined,
        vec![QuarantinedInput {
            stage: SweepStage::BatchedLane,
            ..expected
        }]
    );
    assert_degraded_matches_survivors(&batched, &survivors, "batched isolated, deadline");
}

#[test]
fn trace_budget_mid_sweep_quarantines_heavy_trace_inputs_across_widths() {
    let program = branchy_program();
    // Inputs 1 and 4 take the deep branch (~50+ interned nodes); the rest
    // stay under 20. Budget 40 separates them deterministically.
    let points = [2.0, -2.0, 3.0, 1.5, -1.0, 4.0];
    let inputs: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
    let config = AnalysisConfig::default().with_trace_node_budget(40);
    let expected_error = SweepFault::Machine(MachineError::TraceBudgetExceeded { limit: 40 });
    let expect_for = |stage: SweepStage| {
        vec![
            QuarantinedInput {
                input_index: 1,
                stage,
                error: expected_error.clone(),
            },
            QuarantinedInput {
                input_index: 4,
                stage,
                error: expected_error.clone(),
            },
        ]
    };

    assert_eq!(
        analyze(&program, &inputs, &config).err(),
        Some(MachineError::TraceBudgetExceeded { limit: 40 })
    );

    let reference = analyze_isolated(&program, &inputs, &config);
    assert_eq!(reference.quarantined, expect_for(SweepStage::Serial));
    let survivors = analyze(
        &program,
        &surviving_inputs(&inputs, &reference.quarantined),
        &config,
    )
    .expect("survivors analyze cleanly");
    assert_eq!(survivors.total_runs, 4);
    assert_degraded_matches_survivors(&reference, &survivors, "serial isolated, trace budget");

    for threads in [1usize, 2, 4] {
        let report =
            analyze_parallel_isolated(&program, &inputs, &config.clone().with_threads(threads));
        assert_eq!(
            report.quarantined,
            expect_for(SweepStage::ParallelShard),
            "parallel threads={threads}"
        );
        assert_degraded_matches_survivors(&report, &survivors, &format!("parallel t={threads}"));
    }

    // The batched group interner is shared by a whole lane group, so at
    // wide widths the budget faults the *group* — the serial re-run of the
    // chunk then heals the light-trace inputs, leaving a quarantine list
    // independent of the width the fault surfaced at.
    for width in [1usize, 2, 8] {
        let report = analyze_batched_isolated(
            &program,
            &inputs,
            &config.clone().with_batch_width(width).with_threads(1),
        );
        assert_eq!(
            report.quarantined,
            expect_for(SweepStage::BatchedLane),
            "batched width={width}"
        );
        assert_degraded_matches_survivors(&report, &survivors, &format!("batched w={width}"));
    }

    for width in [1usize, 8] {
        let report = analyze_tiered_isolated(
            &program,
            &inputs,
            &config.clone().with_batch_width(width).with_threads(1),
        );
        assert_eq!(
            report.quarantined,
            expect_for(SweepStage::TieredBigFloat),
            "tiered width={width}"
        );
        assert_degraded_matches_survivors(&report, &survivors, &format!("tiered w={width}"));
    }
}

#[test]
fn quarantine_section_is_rendered_in_the_text_report() {
    let program = loop_program();
    let inputs = vec![vec![3.0], vec![50_000.0], vec![4.0]];
    let config = AnalysisConfig::default().with_step_limit(500);
    let report = analyze_isolated(&program, &inputs, &config);
    let text = report.to_text();
    assert!(
        text.contains("1 input(s) quarantined"),
        "missing quarantine header in:\n{text}"
    );
    assert!(
        text.contains("input 1 (serial sweep): execution exceeded the 500-step budget"),
        "missing quarantine line in:\n{text}"
    );
    // The summary footer counts the survivors the report covers plus the
    // quarantined inputs.
    assert!(
        text.contains("summary: 2 input(s) analyzed, 1 quarantined"),
        "missing summary footer in:\n{text}"
    );
    // A clean sweep renders no quarantine section at all (only the "0
    // quarantined" summary footer), keeping golden reports stable.
    let clean = analyze_isolated(&program, &[vec![3.0]], &config);
    let clean_text = clean.to_text();
    assert!(!clean_text.contains("quarantined; the report covers the survivors"));
    assert!(
        clean_text.contains("summary: 1 input(s) analyzed, 0 quarantined"),
        "missing summary footer in:\n{clean_text}"
    );
}
