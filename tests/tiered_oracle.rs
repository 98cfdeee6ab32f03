//! Differential oracle for the tiered adaptive-precision driver: over the
//! embedded FPBench suite, [`herbgrind::analyze_tiered`] must produce
//! reports **bit-identical** to the all-`BigFloat` analyses — the flat
//! driver and the retained map-based reference implementation — while
//! actually exercising both tiers. The oracle compares reports, not
//! certificates: a probe bug that over-certifies would surface here as a
//! report divergence, not hide behind its own machinery.

use herbgrind::reference::analyze_with_shadow_reference;
use herbgrind::{
    analyze, analyze_tiered, analyze_tiered_isolated, analyze_tiered_with_stats, AnalysisConfig,
    TierStats,
};
use shadowreal::BigFloat;

fn assert_tiered_matches_oracles(
    program: &fpvm::Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    context: &str,
) -> TierStats {
    let tiered = analyze_tiered_with_stats(program, inputs, config);
    let flat = analyze(program, inputs, config);
    let reference = analyze_with_shadow_reference::<BigFloat>(program, inputs, config);
    match (tiered, flat, reference) {
        (Ok((tiered, stats)), Ok(flat), Ok(reference)) => {
            assert_eq!(
                format!("{tiered:?}"),
                format!("{flat:?}"),
                "tiered vs flat diverged: {context}"
            );
            assert_eq!(
                format!("{tiered:?}"),
                format!("{reference:?}"),
                "tiered vs reference diverged: {context}"
            );
            assert_eq!(
                tiered.to_text(),
                reference.to_text(),
                "rendered reports diverged: {context}"
            );
            assert_eq!(stats.total_inputs, inputs.len(), "{context}");
            stats
        }
        (tiered, flat, _) => {
            assert_eq!(
                format!("{:?}", tiered.as_ref().err()),
                format!("{:?}", flat.err()),
                "errors diverged: {context}"
            );
            TierStats::default()
        }
    }
}

#[test]
fn tiered_matches_the_reference_on_the_benchmark_suite() {
    // One and two threads: the tiered engine sweeps every input as one
    // chunk, so its certify pass names one demand set for the whole sweep
    // whatever the thread count.
    for threads in [1, 2] {
        let config = AnalysisConfig::default().with_threads(threads);
        let mut totals = TierStats::default();
        let (mut empty_demand, mut counts_only) = (0, 0);
        for core in fpbench::suite() {
            let name = core.display_name().to_string();
            let prepared = fpbench::prepare(&core, 12, 2024).expect("prepare");
            let context = format!("{name}, threads={threads}");
            let capture = herbgrind::SweepCapture::begin(herbgrind::TelemetryMode::On);
            let stats = assert_tiered_matches_oracles(
                &prepared.program,
                &prepared.inputs,
                &config,
                &context,
            );
            let telemetry = capture.finish();
            totals.total_inputs += stats.total_inputs;
            totals.certified_inputs += stats.certified_inputs;
            empty_demand += usize::from(telemetry.counter("tiered.demand_statements") == 0);
            counts_only += telemetry.counter("analysis.counts_only_updates");
        }
        // Both tiers must actually run across the suite: a probe that
        // certifies nothing degenerates to the plain analysis, one that
        // certifies everything is not being conservative about specials and
        // domain edges. (The whole suite is the honest denominator here —
        // the NMSE kernels at the front are cancellation stress tests where
        // escalation is the *correct* verdict, and a subset-only rate would
        // hide a probe that stopped certifying the accumulation and
        // polynomial benchmarks.)
        assert!(
            totals.certified_inputs * 2 > totals.total_inputs,
            "suite should be mostly certified at {threads} threads: {totals:?}"
        );
        assert!(
            totals.certified_inputs < totals.total_inputs,
            "suite should escalate somewhere at {threads} threads: {totals:?}"
        );
        // The demand set is not vacuous: records were kept counts-only, and
        // some sweep needed no full record at all.
        assert!(
            counts_only > 0,
            "no record update was counts-only at {threads} threads"
        );
        assert!(
            empty_demand > 0,
            "no sweep had an empty demand set at {threads} threads"
        );
    }
}

#[test]
fn tier0_armed_tiered_matches_the_oracles_on_the_whole_suite() {
    // Tier 0: arming the static prune mask via the benchmark's declared
    // sampling region must leave every report bit-identical to the unpruned
    // tiered run AND to the flat/reference analyses, while actually pruning
    // a meaningful share of the suite's shadow work.
    let capture = herbgrind::SweepCapture::begin(herbgrind::TelemetryMode::On);
    for core in fpbench::suite() {
        let name = core.display_name().to_string();
        let prepared = fpbench::prepare(&core, 12, 2024).expect("prepare");
        let region = fpbench::sampling_region(&core);
        let config = AnalysisConfig::default().with_input_ranges(region);
        // The oracle helper runs flat + reference with the same config:
        // input_ranges must be inert everywhere except the tiered driver.
        assert_tiered_matches_oracles(&prepared.program, &prepared.inputs, &config, &name);
    }
    let telemetry = capture.finish();
    assert!(
        telemetry.counter("tier0.statements_pruned") > 0,
        "tier 0 never pruned anything across the whole suite"
    );
    assert!(
        telemetry.counter("tier0.pruned_executions") > 0,
        "tier 0 masks exist but no execution ever skipped shadowing"
    );
}

#[test]
fn demand_set_spans_every_thread_shard() {
    // A statement erroneous only on the second half of the inputs: a demand
    // set named from the first half alone would keep it counts-only. The
    // sweep runs as one chunk at both thread counts.
    let core = fpcore::parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
    let program = fpvm::compile_core(&core, Default::default()).unwrap();
    let inputs: Vec<Vec<f64>> = (0..12)
        .map(|i| match i {
            0..=5 => vec![1.5 + f64::from(i)],
            _ => vec![10f64.powi(2 + i)],
        })
        .collect();
    for threads in [1, 2] {
        let config = AnalysisConfig::default().with_threads(threads);
        let context = format!("second-shard error, threads={threads}");
        assert_tiered_matches_oracles(&program, &inputs, &config, &context);
    }
}

#[test]
fn one_thread_tiered_sweeps_are_exact_on_short_loop_runs() {
    // Short loop runs are where a shard merge can lose input-range
    // contributions (DESIGN.md, "Known exception: short loop runs"). A
    // tiered sweep merges nothing: every input runs on the serial engine
    // with one record state, at every batch width.
    for name in [
        "naive variance accumulation",
        "compensation-free running sum",
    ] {
        let core = fpbench::by_name(name).expect("benchmark present");
        for (samples, seed) in [(48, 3), (64, 7)] {
            let prepared = fpbench::prepare(&core, samples, seed).expect("prepare");
            for width in [1, 8] {
                let config = AnalysisConfig::default()
                    .with_threads(1)
                    .with_batch_width(width);
                let context = format!("{name}, {samples} inputs, seed {seed}, width={width}");
                assert_tiered_matches_oracles(
                    &prepared.program,
                    &prepared.inputs,
                    &config,
                    &context,
                );
            }
        }
    }
}

#[test]
fn tiered_reports_do_not_depend_on_the_thread_count() {
    // The two programs whose short loop runs lose input-range contributions
    // in a thread-shard merge, at the sample size and seed of the suite
    // digests and at DESIGN.md's repro. The tiered engine sweeps every input
    // as one chunk, so with and without tier 0, plain and isolated, every
    // thread count gives serial `analyze`'s report.
    for name in [
        "naive variance accumulation",
        "compensation-free running sum",
    ] {
        let core = fpbench::by_name(name).expect("benchmark present");
        let region = fpbench::sampling_region(&core);
        for (samples, seed) in [(40, 2024), (48, 3)] {
            let prepared = fpbench::prepare(&core, samples, seed).expect("prepare");
            let (program, inputs) = (&prepared.program, &prepared.inputs);
            let serial = analyze(program, inputs, &AnalysisConfig::default().with_threads(1))
                .expect("serial");
            let serial = format!("{serial:?}");
            for threads in [1, 2, 3, 5, 6, 0] {
                let config = AnalysisConfig::default().with_threads(threads);
                let ranged = config.clone().with_input_ranges(region.clone());
                let context = format!("{name}, {samples} inputs, seed {seed}, threads={threads}");
                let tiered = analyze_tiered(program, inputs, &config).expect("tiered");
                assert_eq!(format!("{tiered:?}"), serial, "tiered: {context}");
                let tiered = analyze_tiered(program, inputs, &ranged).expect("tier 0");
                assert_eq!(format!("{tiered:?}"), serial, "tier 0: {context}");
                let isolated = analyze_tiered_isolated(program, inputs, &config);
                assert_eq!(format!("{isolated:?}"), serial, "isolated: {context}");
            }
        }
    }
}

#[test]
fn demand_set_is_the_flagged_set_on_fully_certified_sweeps() {
    // Tightness. With compensation detection off, a sweep whose every input
    // certifies puts in demand only the statements the analysis flags. The
    // flat comparison shows the demand set holds every flagged statement (a
    // flagged statement outside it would change the report), so equal sizes
    // mean equal sets. A demand set grown to every statement would keep
    // every report right and lose the whole saving; only this test sees it.
    let config = AnalysisConfig::default().with_compensation_detection(false);
    let (mut exact, mut with_flags, mut empty) = (0, 0, 0);
    for core in fpbench::suite() {
        let name = core.display_name().to_string();
        let prepared = fpbench::prepare(&core, 12, 2024).expect("prepare");
        let capture = herbgrind::SweepCapture::begin(herbgrind::TelemetryMode::On);
        let tiered = analyze_tiered_with_stats(&prepared.program, &prepared.inputs, &config);
        let telemetry = capture.finish();
        let flat = analyze(&prepared.program, &prepared.inputs, &config);
        let (report, stats) = match (tiered, flat) {
            (Ok((report, stats)), Ok(flat)) => {
                assert_eq!(format!("{report:?}"), format!("{flat:?}"), "{name}");
                (report, stats)
            }
            (tiered, flat) => {
                assert_eq!(
                    format!("{:?}", tiered.err()),
                    format!("{:?}", flat.err()),
                    "{name}"
                );
                continue;
            }
        };
        if stats.escalated_inputs() > 0 {
            continue;
        }
        let demand = telemetry.counter("tiered.demand_statements");
        assert_eq!(demand, report.flagged_operations as u64, "{name}");
        exact += 1;
        with_flags += usize::from(report.flagged_operations > 0);
        empty += usize::from(report.flagged_operations == 0);
    }
    assert!(
        with_flags > 0 && empty > 0,
        "{exact} fully certified sweeps: {with_flags} with flagged operations, {empty} without"
    );
}

#[test]
fn tiered_matches_on_lowered_library_calls() {
    // The lowered programs (§8.2) replace library calls with polynomial
    // kernels: long add/mul chains with different certificate profiles.
    for core in fpbench::subset(6) {
        let name = core.display_name().to_string();
        let prepared = fpbench::prepare(&core, 12, 2024).expect("prepare");
        assert_tiered_matches_oracles(
            &prepared.program_lowered,
            &prepared.inputs,
            &AnalysisConfig::default(),
            &format!("{name} (lowered)"),
        );
    }
}

#[test]
fn tiered_matches_across_configuration_knobs() {
    let core = fpcore::parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
    let powers: (fpvm::Program, Vec<Vec<f64>>) = (
        fpvm::compile_core(&core, Default::default()).unwrap(),
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
            AnalysisConfig::default().with_compensation_detection(false),
            &powers,
        ),
        (
            AnalysisConfig::default()
                .with_threads(3)
                .with_batch_width(4),
            &powers,
        ),
        // Below the tier threshold: the precision gate escalates everything.
        (
            AnalysisConfig {
                shadow_precision: 64,
                ..AnalysisConfig::default()
            },
            &powers,
        ),
        // Above the default: certificates retune to the wider rounding.
        (
            AnalysisConfig {
                shadow_precision: 512,
                ..AnalysisConfig::default()
            },
            &powers,
        ),
        // Every input fits this trace budget alone, where a lane group
        // sharing one interner would overflow it: the tiered driver runs
        // every input with its own per-run interner and must succeed like
        // the flat analysis.
        (
            AnalysisConfig::default()
                .with_threads(1)
                .with_trace_node_budget(16),
            &sampled,
        ),
    ];
    for (i, (config, (program, inputs))) in cases.iter().enumerate() {
        assert_tiered_matches_oracles(program, inputs, config, &format!("config {i}"));
    }
    analyze(&sampled.0, &sampled.1, &cases[cases.len() - 1].0).expect("budget fits every input");
}

/// `(- (sqrt (+ x 1)) (sqrt x))` over 24 inputs with interleaved verdicts:
/// `x = 1 + i` certifies, while every third input, `x = 10^(15+i)`,
/// cancels past what the certificate can vouch for.
fn mixed_sweep() -> (fpvm::Program, Vec<Vec<f64>>) {
    let core = fpcore::parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
    let inputs = (0..24)
        .map(|i| match i % 3 {
            2 => vec![10f64.powi(15 + i)],
            _ => vec![1.0 + f64::from(i)],
        })
        .collect();
    (
        fpvm::compile_core(&core, Default::default()).unwrap(),
        inputs,
    )
}

/// Checks a mixed-verdict sweep against the oracles at threads {1, 2, 3} ×
/// widths {1, 8}: both tiers run, and the verdicts are the ones each input
/// gets when certified alone.
fn assert_mixed_sweep_matches_the_oracles(
    label: &str,
    program: &fpvm::Program,
    inputs: &[Vec<f64>],
) {
    let certified_alone: usize = inputs
        .iter()
        .map(|input| {
            let one = std::slice::from_ref(input);
            let (_, stats) =
                analyze_tiered_with_stats(program, one, &AnalysisConfig::default()).unwrap();
            stats.certified_inputs
        })
        .sum();
    assert!(0 < certified_alone && certified_alone < inputs.len());
    for threads in [1, 2, 3] {
        for width in [1, 8] {
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_batch_width(width);
            let context = format!("{label}, threads={threads} width={width}");
            let stats = assert_tiered_matches_oracles(program, inputs, &config, &context);
            assert_eq!(stats.certified_inputs, certified_alone, "{context}");
        }
    }
}

#[test]
fn mixed_verdicts_match_the_oracles_at_every_split() {
    // The sweep mixes verdicts at every thread count, so its records come
    // from the serial engine handing one state between the tiers.
    let (program, inputs) = mixed_sweep();
    assert_mixed_sweep_matches_the_oracles("mixed sweep", &program, &inputs);
}

/// A hand-built program over the statements the FPCore compiler never
/// emits: an integer store read as a float operand, a float→int cast whose
/// integer is copied, compared and output, and a read of a cell nothing
/// wrote. Each integer supplies the `1` of one `sqrt(x + 1) - sqrt(x)`, so a
/// wrong integer leaf in the certify probe would cancel to an uncertifiable
/// zero; a large `x` escalates.
fn integer_cells_program() -> fpvm::Program {
    use fpvm::{Pred, SourceLoc, Statement};
    use shadowreal::RealOp::{Add, Div, Sqrt, Sub};
    let compute = |dest, op, args: &[usize]| Statement::Compute {
        dest,
        op,
        args: args.to_vec(),
    };
    let statements = vec![
        Statement::ConstI { dest: 1, value: 1 },
        compute(2, Add, &[0, 1]),
        compute(3, Sqrt, &[2]),
        compute(4, Sqrt, &[0]),
        compute(5, Sub, &[3, 4]),
        compute(6, Div, &[0, 0]),
        Statement::CastToInt { dest: 7, src: 6 },
        Statement::Copy { dest: 8, src: 7 },
        // Cell 10 is never written: it reads as the machine's initial 0.
        compute(9, Add, &[8, 10]),
        compute(11, Add, &[0, 9]),
        compute(12, Sqrt, &[11]),
        compute(13, Sub, &[12, 4]),
        compute(14, Add, &[5, 13]),
        Statement::Branch {
            pred: Pred::Cmp(fpcore::CmpOp::Lt, 8, 0),
            target: 15,
        },
        Statement::Output { src: 8 },
        Statement::Output { src: 14 },
        Statement::Halt,
    ];
    let locations = (1..=statements.len() as u32)
        .map(|line| SourceLoc::new("cells.c", line, "cells"))
        .collect();
    let program = fpvm::Program {
        name: "integer cells".into(),
        statements,
        locations,
        num_addrs: 15,
        arg_addrs: vec![0],
    };
    program.validate().unwrap();
    program
}

#[test]
fn integer_and_unwritten_cells_match_the_oracles() {
    let (_, inputs) = mixed_sweep();
    let program = integer_cells_program();
    assert_mixed_sweep_matches_the_oracles("integer cells", &program, &inputs);
}
