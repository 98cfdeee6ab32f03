//! Deterministic fault injection against the fault-isolated drivers
//! (enabled with `--features fault-injection`).
//!
//! The contract under test, over real FPBench benchmarks:
//!
//! 1. **No loss** — no fault configuration loses a non-faulted input's
//!    records: the degraded report is bit-identical to the plain serial
//!    analysis of the surviving inputs alone.
//! 2. **Determinism** — quarantine lists are identical across thread
//!    counts and batch widths, and the `(input, error)` pairs are identical
//!    across all four drivers.
//! 3. **Typed faults** — injected budget faults surface as the same typed
//!    [`MachineError`] the real budget produces.
//! 4. **Serial recovery** — a faulted batched or tiered pass re-runs its
//!    chunk on the serial engine, whose per-input verdicts decide; an input
//!    the `DoubleDouble` tier faults on is demoted to the `BigFloat` tier,
//!    so tier-scoped faults heal, and faults the `BigFloat` tier also hits
//!    quarantine at that stage.
#![cfg(feature = "fault-injection")]

use fpvm::MachineError;
use herbgrind::faultinject::{self, FaultPlan, FaultSpec, InjectKind, InjectStage, SeededFaults};
use herbgrind::{
    analyze, analyze_batched_isolated, analyze_isolated, analyze_parallel_isolated,
    analyze_tiered_isolated, analyze_tiered_isolated_with_stats, AnalysisConfig, QuarantinedInput,
    Report, SweepStage,
};

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

/// Runs every isolated driver (serial; parallel ×2 thread counts; batched
/// ×3 widths; tiered ×2 widths) and asserts the full contract: expected
/// quarantine indices, per-driver deterministic stages, cross-driver
/// identical `(index, error)` pairs, and survivor bit-identity.
fn assert_isolation_contract(
    program: &fpvm::Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    expected_indices: &[usize],
    context: &str,
) {
    let reference = analyze_isolated(program, inputs, config);
    let got: Vec<usize> = reference
        .quarantined
        .iter()
        .map(|q| q.input_index)
        .collect();
    assert_eq!(got, expected_indices, "serial quarantine set: {context}");
    assert!(
        reference
            .quarantined
            .iter()
            .all(|q| q.stage == SweepStage::Serial),
        "serial stages: {context}"
    );
    // The cross-driver invariant: same inputs quarantined for the same
    // faults; only the recorded pipeline stage differs by driver.
    let keys: Vec<(usize, herbgrind::SweepFault)> = reference
        .quarantined
        .iter()
        .map(|q| (q.input_index, q.error.clone()))
        .collect();
    // The plain drivers never consult the plan, so the survivors oracle is
    // uninjected even while the plan is installed.
    let survivors = analyze(
        program,
        &surviving_inputs(inputs, &reference.quarantined),
        config,
    )
    .unwrap_or_else(|e| panic!("survivors oracle failed ({context}): {e:?}"));
    assert_eq!(
        survivors.total_runs as usize,
        inputs.len() - expected_indices.len()
    );
    assert_degraded_matches_survivors(&reference, &survivors, &format!("serial: {context}"));

    for threads in [2usize, 8] {
        let report =
            analyze_parallel_isolated(program, inputs, &config.clone().with_threads(threads));
        let pairs: Vec<_> = report
            .quarantined
            .iter()
            .map(|q| (q.input_index, q.error.clone()))
            .collect();
        assert_eq!(pairs, keys, "parallel t={threads}: {context}");
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.stage == SweepStage::ParallelShard));
        assert_degraded_matches_survivors(
            &report,
            &survivors,
            &format!("parallel t={threads}: {context}"),
        );
    }

    for width in [1usize, 4, 8] {
        let report = analyze_batched_isolated(
            program,
            inputs,
            &config.clone().with_batch_width(width).with_threads(2),
        );
        let pairs: Vec<_> = report
            .quarantined
            .iter()
            .map(|q| (q.input_index, q.error.clone()))
            .collect();
        assert_eq!(pairs, keys, "batched w={width}: {context}");
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.stage == SweepStage::BatchedLane));
        assert_degraded_matches_survivors(
            &report,
            &survivors,
            &format!("batched w={width}: {context}"),
        );
    }

    for width in [1usize, 8] {
        let report =
            analyze_tiered_isolated(program, inputs, &config.clone().with_batch_width(width));
        let pairs: Vec<_> = report
            .quarantined
            .iter()
            .map(|q| (q.input_index, q.error.clone()))
            .collect();
        assert_eq!(pairs, keys, "tiered w={width}: {context}");
        assert_degraded_matches_survivors(
            &report,
            &survivors,
            &format!("tiered w={width}: {context}"),
        );
    }
}

#[test]
fn injected_panic_quarantines_only_that_input_across_drivers() {
    // A stage-agnostic panic at input 7: every driver (and every serial
    // re-run of a faulted lane pass) re-observes it, so exactly input 7 is
    // quarantined everywhere.
    let _guard = faultinject::install(FaultPlan::sites(vec![FaultSpec::input(
        7,
        InjectKind::Panic,
    )]));
    for core in fpbench::subset(4) {
        let name = core.display_name().to_string();
        let prepared = fpbench::prepare(&core, 20, 2026).expect("prepare");
        assert_isolation_contract(
            &prepared.program,
            &prepared.inputs,
            &AnalysisConfig::default(),
            &[7],
            &format!("panic at 7, {name}"),
        );
    }
}

#[test]
fn injected_budget_faults_are_typed_and_deterministic() {
    // Step-budget fault at input 3, trace-budget fault at input 11: the
    // quarantine records carry the same typed errors the real budgets
    // produce, with the configured limits.
    let _guard = faultinject::install(FaultPlan::sites(vec![
        FaultSpec::input(3, InjectKind::StepBudget),
        FaultSpec::input(11, InjectKind::TraceBudget),
    ]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 18, 7).expect("prepare");
    let config = AnalysisConfig::default()
        .with_step_limit(123_456)
        .with_trace_node_budget(777);
    assert_isolation_contract(
        &prepared.program,
        &prepared.inputs,
        &config,
        &[3, 11],
        "injected budgets",
    );
    let report = analyze_isolated(&prepared.program, &prepared.inputs, &config);
    assert_eq!(
        report.quarantined[0].error,
        herbgrind::SweepFault::Machine(MachineError::StepBudgetExceeded { limit: 123_456 })
    );
    assert_eq!(
        report.quarantined[1].error,
        herbgrind::SweepFault::Machine(MachineError::TraceBudgetExceeded { limit: 777 })
    );
}

#[test]
fn seeded_background_faults_lose_no_surviving_records() {
    // Pseudo-random panics keyed only on (input, pc): the same fault set
    // reproduces on every driver, thread count, and width, and the
    // survivors' records are never lost.
    let _guard = faultinject::install(FaultPlan {
        specs: vec![],
        seeded: Some(SeededFaults {
            seed: 0xA5A5,
            one_in: 40,
            kind: InjectKind::Panic,
            stage: None,
        }),
    });
    for core in fpbench::subset(3) {
        let name = core.display_name().to_string();
        let prepared = fpbench::prepare(&core, 16, 99).expect("prepare");
        let config = AnalysisConfig::default();
        // Discover the seeded quarantine set from the serial driver, then
        // hold every other driver to exactly that set.
        let reference = analyze_isolated(&prepared.program, &prepared.inputs, &config);
        let expected: Vec<usize> = reference
            .quarantined
            .iter()
            .map(|q| q.input_index)
            .collect();
        assert!(
            expected.len() < prepared.inputs.len(),
            "seeded plan must leave survivors ({name})"
        );
        assert_isolation_contract(
            &prepared.program,
            &prepared.inputs,
            &config,
            &expected,
            &format!("seeded faults, {name}"),
        );
    }
}

#[test]
fn tier_escalation_exercises_the_full_retry_ladder() {
    // A TierEscalation fault at input 5: the certify probe forces it out of
    // the certified tier, and the BigFloat tier, which runs on the serial
    // engine, panics on it, so it is quarantined with the TieredBigFloat
    // stage. Every other input's records survive.
    let _guard = faultinject::install(FaultPlan::sites(vec![FaultSpec::input(
        5,
        InjectKind::TierEscalation,
    )]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 14, 3).expect("prepare");
    let config = AnalysisConfig::default();
    let survivors_inputs: Vec<Vec<f64>> = prepared
        .inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 5)
        .map(|(_, input)| input.clone())
        .collect();
    let survivors = analyze(&prepared.program, &survivors_inputs, &config).expect("oracle");
    for width in [1usize, 4, 8] {
        let report = analyze_tiered_isolated(
            &prepared.program,
            &prepared.inputs,
            &config.clone().with_batch_width(width),
        );
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|q| (q.input_index, q.stage))
                .collect::<Vec<_>>(),
            vec![(5, SweepStage::TieredBigFloat)],
            "width={width}"
        );
        assert!(matches!(
            report.quarantined[0].error,
            herbgrind::SweepFault::Panic(_)
        ));
        assert_degraded_matches_survivors(&report, &survivors, &format!("escalation w={width}"));
    }
    // The other drivers never reach a tier stage, so the same plan is a
    // no-op for them: nothing quarantined, full report.
    let serial = analyze_isolated(&prepared.program, &prepared.inputs, &config);
    assert!(serial.quarantined.is_empty());
    let full = analyze(&prepared.program, &prepared.inputs, &config).expect("full oracle");
    assert_degraded_matches_survivors(&serial, &full, "escalation is tier-scoped");
}

#[test]
fn stage_scoped_faults_heal_through_the_retry_ladder() {
    // A panic scoped to the DoubleDouble tier only: the input's DoubleDouble
    // run fails on the serial engine, which demotes the input to the
    // BigFloat tier, where it runs clean. The input *heals* — nothing is
    // quarantined, and the report equals the plain analysis of every input
    // (sound because certified inputs have identical DoubleDouble and
    // BigFloat records).
    let _guard = faultinject::install(FaultPlan::sites(vec![FaultSpec::input(
        2,
        InjectKind::Panic,
    )
    .in_stage(InjectStage::TieredDoubleDouble)]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 12, 5).expect("prepare");
    let config = AnalysisConfig::default();
    let full = analyze(&prepared.program, &prepared.inputs, &config).expect("full oracle");
    for width in [1usize, 8] {
        let report = analyze_tiered_isolated(
            &prepared.program,
            &prepared.inputs,
            &config.clone().with_batch_width(width),
        );
        assert!(
            report.quarantined.is_empty(),
            "dd-scoped fault must heal at the BigFloat rung (width={width}): {:?}",
            report.quarantined
        );
        assert_degraded_matches_survivors(&report, &full, &format!("healed ladder w={width}"));
    }
}

#[test]
fn nan_poison_is_absorbed_without_quarantine() {
    // NaN poisoning models a corrupted shadow value rather than a crashed
    // run: the analysis must absorb it (fail-closed error kernels) without
    // quarantining or panicking, and every input must still be analyzed.
    let _guard = faultinject::install(FaultPlan::sites(vec![FaultSpec::input(
        4,
        InjectKind::NanPoison,
    )
    .in_stage(InjectStage::Serial)]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 10, 13).expect("prepare");
    let config = AnalysisConfig::default();
    let report = analyze_isolated(&prepared.program, &prepared.inputs, &config);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.total_runs, 10);
    // The poisoned input's error is pinned to the fail-closed maximum, so
    // the report must flag significant error somewhere.
    assert!(report.has_significant_error());
}

#[test]
fn fired_sites_match_the_installed_plan() {
    // The harness audits which faults actually landed: the distinct fired
    // inputs must be exactly the planned inputs, each with the planned
    // kind, and the telemetry fire counter must cover every distinct site.
    let _guard = faultinject::install(FaultPlan::sites(vec![
        FaultSpec::input(3, InjectKind::Panic),
        FaultSpec::input(5, InjectKind::StepBudget),
    ]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 12, 7).expect("prepare");
    let config = AnalysisConfig::default();
    let capture = herbgrind::SweepCapture::begin(herbgrind::TelemetryMode::On);
    let report = analyze_isolated(&prepared.program, &prepared.inputs, &config);
    let tel = capture.finish();
    let indices: Vec<usize> = report.quarantined.iter().map(|q| q.input_index).collect();
    assert_eq!(indices, vec![3, 5]);

    let sites = faultinject::fired_sites();
    assert!(!sites.is_empty());
    for site in &sites {
        match site.input_index {
            3 => assert_eq!(site.kind, InjectKind::Panic, "site {site:?}"),
            5 => assert_eq!(site.kind, InjectKind::StepBudget, "site {site:?}"),
            other => panic!("fault fired at unplanned input {other}: {site:?}"),
        }
    }
    let fired_inputs: std::collections::BTreeSet<usize> =
        sites.iter().map(|s| s.input_index).collect();
    assert_eq!(fired_inputs.into_iter().collect::<Vec<_>>(), vec![3, 5]);
    assert!(
        tel.counter("faultinject.fired") >= sites.len() as u64,
        "fire counter {} below distinct-site count {}",
        tel.counter("faultinject.fired"),
        sites.len()
    );
}

#[test]
fn stage_scoped_plan_fires_only_in_that_stage() {
    // A serial-stage-only fault plan must never fire while the batched or
    // tiered drivers run, and the fired-site audit proves it.
    let _guard = faultinject::install(FaultPlan::sites(vec![FaultSpec::input(
        2,
        InjectKind::Panic,
    )
    .in_stage(InjectStage::Serial)]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 8, 3).expect("prepare");
    let config = AnalysisConfig::default();
    let batched = analyze_batched_isolated(&prepared.program, &prepared.inputs, &config);
    assert!(batched.quarantined.is_empty());
    assert!(
        faultinject::fired_sites().is_empty(),
        "serial-stage plan fired during a batched sweep: {:?}",
        faultinject::fired_sites()
    );
}

#[test]
fn nan_poison_stays_out_of_serial_recovery() {
    // NaN poisoning is defined for the serial stages only. A panic at input
    // 5 sends its batched chunk back through the serial engine at the
    // batched stage, and that re-run must not poison input 2: the report
    // must equal the plain analysis of the survivors at every width.
    let _guard = faultinject::install(FaultPlan::sites(vec![
        FaultSpec::input(2, InjectKind::NanPoison),
        FaultSpec::input(5, InjectKind::Panic),
    ]));
    let core = fpbench::by_name("NMSE example 3.1").expect("benchmark present");
    let prepared = fpbench::prepare(&core, 12, 7).expect("prepare");
    let config = AnalysisConfig::default().with_threads(1);
    let survivors_inputs: Vec<Vec<f64>> = prepared
        .inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 5)
        .map(|(_, input)| input.clone())
        .collect();
    let survivors = analyze(&prepared.program, &survivors_inputs, &config).expect("oracle");
    for width in [1usize, 8] {
        let report = analyze_batched_isolated(
            &prepared.program,
            &prepared.inputs,
            &config.clone().with_batch_width(width),
        );
        let indices: Vec<usize> = report.quarantined.iter().map(|q| q.input_index).collect();
        assert_eq!(indices, vec![5], "width={width}");
        assert_degraded_matches_survivors(&report, &survivors, &format!("poison w={width}"));
    }
}

#[test]
fn tiered_verdicts_do_not_depend_on_grouping() {
    // Every input certifies. Input 5's DoubleDouble-scoped panic demotes it
    // alone to the BigFloat tier; input 4 stays in the DoubleDouble tier and
    // never meets its BigFloat-scoped panic. Were a faulted certified group
    // to fall back to BigFloat as a whole, input 4 would be quarantined.
    let _guard = faultinject::install(FaultPlan::sites(vec![
        FaultSpec::input(4, InjectKind::Panic).in_stage(InjectStage::TieredBigFloat),
        FaultSpec::input(5, InjectKind::Panic).in_stage(InjectStage::TieredDoubleDouble),
    ]));
    let core = fpcore::parse_core("(FPCore (x) (+ (* x x) (+ x 2)))").expect("parses");
    let program = fpvm::compile_core(&core, Default::default()).expect("compiles");
    let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![1.0 + 0.25 * f64::from(i)]).collect();
    let full = analyze(&program, &inputs, &AnalysisConfig::default()).expect("full oracle");
    for (threads, width) in [(1usize, 1usize), (1, 8), (2, 4)] {
        let config = AnalysisConfig::default()
            .with_threads(threads)
            .with_batch_width(width);
        let (report, stats) = analyze_tiered_isolated_with_stats(&program, &inputs, &config);
        assert_eq!(
            stats.certified_inputs, 12,
            "threads={threads} width={width}"
        );
        assert!(
            report.quarantined.is_empty(),
            "threads={threads} width={width}: {:?}",
            report.quarantined
        );
        assert_degraded_matches_survivors(&report, &full, &format!("tiered t={threads} w={width}"));
    }
}

/// `(- (sqrt (+ x 1)) (sqrt x))` over 24 inputs with interleaved verdicts:
/// `x = 1 + i` certifies, while every third input, `x = 10^(15+i)`,
/// cancels past what the certificate can vouch for, so every thread shard
/// mixes verdicts and runs on the serial engine.
fn mixed_sweep() -> (fpvm::Program, Vec<Vec<f64>>) {
    let core = fpcore::parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").expect("parses");
    let inputs = (0..24)
        .map(|i| match i % 3 {
            2 => vec![10f64.powi(15 + i)],
            _ => vec![1.0 + f64::from(i)],
        })
        .collect();
    let program = fpvm::compile_core(&core, Default::default()).expect("compiles");
    (program, inputs)
}

#[test]
fn doubledouble_faults_on_a_mixed_sweep_demote_and_heal() {
    // Input 3 certifies. The serial engine runs it on the DoubleDouble
    // shadow, a fault scoped to that tier demotes it, and the rebuilt pass
    // runs it on BigFloat, clean: nothing is quarantined.
    let (program, inputs) = mixed_sweep();
    let full = analyze(&program, &inputs, &AnalysisConfig::default()).expect("full oracle");
    for kind in [InjectKind::Panic, InjectKind::StepBudget] {
        let _guard = faultinject::install(FaultPlan::sites(vec![
            FaultSpec::input(3, kind).in_stage(InjectStage::TieredDoubleDouble)
        ]));
        for (threads, width) in [(1usize, 1usize), (1, 8), (2, 1), (2, 8)] {
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_batch_width(width);
            let context = format!("{kind:?} threads={threads} width={width}");
            let report = analyze_tiered_isolated(&program, &inputs, &config);
            assert!(
                report.quarantined.is_empty(),
                "{context}: {:?}",
                report.quarantined
            );
            assert_degraded_matches_survivors(&report, &full, &context);
        }
        let fired = faultinject::fired_sites();
        assert!(
            fired
                .iter()
                .any(|site| site.input_index == 3 && site.stage == InjectStage::TieredDoubleDouble),
            "{kind:?} never fired: {fired:?}"
        );
    }
}

#[test]
fn tier_escalation_on_a_mixed_sweep_quarantines_only_that_input() {
    // Input 4 certifies; the injected escalation takes it out of the
    // certified tier, and the BigFloat tier panics on it on the serial
    // engine. Only input 4 is quarantined, at the BigFloat stage.
    let (program, inputs) = mixed_sweep();
    let survivors_inputs: Vec<Vec<f64>> = inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 4)
        .map(|(_, input)| input.clone())
        .collect();
    let config = AnalysisConfig::default();
    let survivors = analyze(&program, &survivors_inputs, &config).expect("oracle");
    let (_, uninjected) =
        herbgrind::analyze_tiered_with_stats(&program, &inputs, &config).expect("plain tiered");
    let _guard = faultinject::install(FaultPlan::sites(vec![FaultSpec::input(
        4,
        InjectKind::TierEscalation,
    )]));
    for (threads, width) in [(1usize, 1usize), (1, 8), (2, 8)] {
        let config = config.clone().with_threads(threads).with_batch_width(width);
        let context = format!("threads={threads} width={width}");
        let (report, stats) = analyze_tiered_isolated_with_stats(&program, &inputs, &config);
        assert_eq!(
            stats.certified_inputs + 1,
            uninjected.certified_inputs,
            "{context}"
        );
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|q| (q.input_index, q.stage))
                .collect::<Vec<_>>(),
            vec![(4, SweepStage::TieredBigFloat)],
            "{context}"
        );
        assert_degraded_matches_survivors(&report, &survivors, &context);
    }
}
