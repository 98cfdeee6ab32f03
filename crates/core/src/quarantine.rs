//! The sweep engines — one per driver family (serial and thread-sharded,
//! batched, tiered) — with per-input quarantine, budgets, and degraded
//! partial reports.
//!
//! Every driver runs its family's engine from this module. The `*_isolated`
//! drivers return what the engine produces: one pathological input (a
//! runaway loop hitting the step budget, a trace that outgrows memory, a
//! crashing shadow op) should not cost the results of the other ten
//! thousand, so the engine *quarantines* the offending input and finishes
//! the sweep. The plain drivers ([`analyze`](crate::analysis::analyze),
//! [`analyze_parallel`](crate::analysis::analyze_parallel),
//! [`analyze_batched`](crate::batched::analyze_batched),
//! [`analyze_tiered`](crate::tiered::analyze_tiered)) run the same engine
//! without fault injection and turn the lowest-index quarantined input into
//! their `Err` — the error a serial sweep stops at — or re-raise it when it
//! was a panic. So one engine decides, for both views, which inputs fail and
//! what the survivors' report is:
//!
//! * Every isolated driver always returns a [`Report`]. Failed inputs appear
//!   in [`Report::quarantined`], in input order, each carrying the input's
//!   sweep-global index, the deciding fault, and the pipeline stage that
//!   decided it.
//! * The degraded report is **bit-identical** to analyzing the surviving
//!   inputs alone: a faulted run's partial records never leak into the
//!   report. This falls out of the merge laws the sharded engines are built
//!   on — contiguous chunks of a sweep merge to the same result as one
//!   continuous sweep — so the engine can discard fault-contaminated state
//!   and rebuild from clean per-chunk states.
//! * Quarantine lists are deterministic across thread counts and batch
//!   widths for every per-input-deterministic fault (step budgets,
//!   trace-memory budgets, injected faults). Wall-clock deadlines
//!   ([`crate::AnalysisConfig::deadline_millis`]) are inherently
//!   load-dependent; the drivers quarantine deadline victims all the same,
//!   but reproducible sweeps should express budgets in steps or nodes.
//!
//! # How isolation works
//!
//! Only the serial family's parallel form shards a sweep: one private helper
//! splits it into balanced contiguous chunks, runs each on its own thread,
//! and folds the chunk outcomes in input order; it is the only place a
//! sweep spawns threads. The batched and tiered engines sweep all their
//! inputs as one chunk, so [`AnalysisConfig::threads`] does not reach them.
//!
//! Machine faults are *per-input deterministic* here: the serial analysis
//! clears its expression interner per run, so step budgets, trace budgets
//! and injected faults depend only on the input — not on which other inputs
//! ran before it. The serial engine exploits this with an *optimistic
//! collect*: it sweeps all live inputs once, records every machine fault as
//! a final verdict, then — only if something faulted — rebuilds the
//! analysis state from scratch over the survivors. The fault-free fast path
//! is exactly one plain sweep plus a per-run `catch_unwind` frame.
//!
//! The batched engine recovers through the serial engine. It runs one lane
//! sweep of its inputs; when no lane faults, that state is the sweep's
//! outcome. A lane group cannot be trusted to name a culprit — it shares one
//! expression interner, so a trace-budget fault is attributed to *all*
//! active lanes, and a panic anywhere in a group callback belongs to no lane
//! — so any fault discards the lane sweep and re-runs the inputs on the
//! serial engine at the same stage. Its per-input-deterministic verdicts
//! decide the quarantine, which is what makes quarantine lists — and the
//! plain drivers' errors — independent of the batch width the fault
//! happened to occur at.
//!
//! The tiered engine runs in two passes over all its inputs, both on the
//! serial machine, so it runs no lane pass. The certify pass runs first, one
//! run per input, and yields per-input verdicts and the sweep's demand set.
//! Then the escalate pass runs the inputs on the serial engine with the
//! sweep's statement mask. The serial engine picks each input's shadow and
//! hands one record state between the two analyses. Only the `BigFloat`
//! tier quarantines: the serial engine demotes an input the `DoubleDouble`
//! tier faults on, so a fault scoped to that tier heals, and one the
//! `BigFloat` tier also hits is quarantined at [`SweepStage::TieredBigFloat`].
//! A certify pass that panics escalates every input and puts every statement
//! in demand.
//!
//! Panics unwind out of the *analysis observer* (the machine itself never
//! panics on user input): the serial engine catches them per input, the
//! batched engine per pass, re-running its inputs serially. Either way only
//! the offending input is quarantined — the sweep or shard is rebuilt
//! without it.

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::analysis::{balanced_chunks, AnalysisState, Herbgrind, StatementMask};
use crate::batched::{batched_sweep_collect, effective_batch_width, with_lane_width};
use crate::config::AnalysisConfig;
use crate::report::Report;
use crate::tiered::{arm_tier0, certify_inputs, statement_mask, Certified, TierStats};
use fpvm::{Machine, MachineError, Program};
use shadowreal::cert::CertParams;
use shadowreal::{BigFloat, DoubleDouble, Real};

#[cfg(feature = "fault-injection")]
use crate::faultinject::InjectStage;

/// The pipeline stage whose verdict quarantined an input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepStage {
    /// The serial driver's sweep loop.
    Serial,
    /// A thread shard of the parallel driver.
    ParallelShard,
    /// The batched driver (a lane pass, or the serial re-run of a faulted
    /// one — the re-run is part of the same pipeline stage).
    BatchedLane,
    /// The tiered driver's certified `DoubleDouble` tier. It never
    /// quarantines (a fault there demotes the input to the `BigFloat` tier);
    /// it is the stage `DoubleDouble` runs inject faults at.
    TieredDoubleDouble,
    /// The tiered driver's `BigFloat` tier — the only tier that
    /// quarantines, so tiered quarantines report this stage.
    TieredBigFloat,
}

impl std::fmt::Display for SweepStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            SweepStage::Serial => "serial sweep",
            SweepStage::ParallelShard => "parallel shard",
            SweepStage::BatchedLane => "batched lane",
            SweepStage::TieredDoubleDouble => "tiered double-double tier",
            SweepStage::TieredBigFloat => "tiered bigfloat tier",
        };
        f.write_str(label)
    }
}

/// The fault that quarantined an input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepFault {
    /// The run failed with a machine error (budget exhaustion, arity
    /// mismatch, runaway program counter).
    Machine(MachineError),
    /// The analysis observer panicked; the payload's message, when it was a
    /// string.
    Panic(String),
}

impl std::fmt::Display for SweepFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepFault::Machine(error) => write!(f, "{error}"),
            SweepFault::Panic(message) => write!(f, "analysis panicked: {message}"),
        }
    }
}

/// One quarantined input of a fault-isolated sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedInput {
    /// Sweep-global index of the input (position in the `inputs` slice).
    pub input_index: usize,
    /// The pipeline stage whose verdict decided the quarantine.
    pub stage: SweepStage,
    /// The deciding fault.
    pub error: SweepFault,
}

impl std::fmt::Display for QuarantinedInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "input {} ({}): {}",
            self.input_index, self.stage, self.error
        )
    }
}

impl SweepStage {
    /// The telemetry phase that times runs at this stage: each tier's own,
    /// none outside tiered sweeps.
    fn phase(self) -> Option<telemetry::Phase> {
        match self {
            SweepStage::TieredDoubleDouble => Some(telemetry::Phase::TierDoubleDouble),
            SweepStage::TieredBigFloat => Some(telemetry::Phase::TierBigFloat),
            _ => None,
        }
    }

    /// The fault-injection stage a run at this pipeline stage is armed with.
    #[cfg(feature = "fault-injection")]
    fn inject(self) -> InjectStage {
        match self {
            SweepStage::Serial => InjectStage::Serial,
            SweepStage::ParallelShard => InjectStage::Parallel,
            SweepStage::BatchedLane => InjectStage::Batched,
            SweepStage::TieredDoubleDouble => InjectStage::TieredDoubleDouble,
            SweepStage::TieredBigFloat => InjectStage::TieredBigFloat,
        }
    }
}

/// Renders a panic payload's message, when it carried one.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What every engine of one sweep reads: the machine, decoded once and
/// shared by every shard of a parallel sweep, the normalized configuration,
/// the statement mask, and whether runs consult the installed fault plan.
struct Sweep<'p> {
    machine: Machine<'p>,
    config: AnalysisConfig,
    /// The statement mask every run of the sweep consults: tier 0's prune
    /// mask and the demand set. Set only by tiered sweeps
    /// ([`statement_mask`]).
    mask: Option<Arc<StatementMask>>,
    /// Set only by the `*_isolated` drivers. The plain drivers never consult
    /// an installed fault plan, so they stay the uninjected oracle the
    /// fault-injection suite compares against.
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    armed: bool,
}

impl<'p> Sweep<'p> {
    fn new(program: &'p Program, config: &AnalysisConfig, armed: bool) -> Sweep<'p> {
        let config = config.normalize();
        let machine = Machine::new(program)
            .with_step_limit(config.step_limit)
            .with_deadline_millis(config.deadline_millis);
        Sweep {
            machine,
            config,
            mask: None,
            armed,
        }
    }

    /// The stage an armed sweep injects faults at, `None` when unarmed.
    #[cfg(feature = "fault-injection")]
    fn inject(&self, stage: SweepStage) -> Option<InjectStage> {
        self.armed.then(|| stage.inject())
    }

    /// One run of `input` (sweep-global index `global`) under `analysis`,
    /// with observer panics caught and typed, timed as its stage's phase.
    fn run<R: Real>(
        &self,
        analysis: &mut Herbgrind<R>,
        memory: &mut Vec<fpvm::Value>,
        input: &[f64],
        global: usize,
        stage: SweepStage,
    ) -> Result<(), SweepFault> {
        let _tier_span = stage.phase().map(telemetry::span);
        #[cfg(feature = "fault-injection")]
        analysis.arm_injection(self.inject(stage).map(|inject| (global, inject)));
        #[cfg(not(feature = "fault-injection"))]
        let _ = global;
        match catch_unwind(AssertUnwindSafe(|| {
            self.machine.run_traced_reusing(input, analysis, memory)
        })) {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(error)) => Err(SweepFault::Machine(error)),
            Err(payload) => Err(SweepFault::Panic(panic_message(payload))),
        }
    }
}

/// A contiguous chunk's survivor state plus its quarantine records.
struct ChunkOutcome {
    state: AnalysisState,
    quarantined: Vec<QuarantinedInput>,
}

impl ChunkOutcome {
    fn new(state: AnalysisState, quarantined: Vec<QuarantinedInput>) -> ChunkOutcome {
        ChunkOutcome { state, quarantined }
    }

    /// Folds the outcome of the next chunk (in input order) into this one.
    fn absorb(&mut self, next: ChunkOutcome) {
        self.state.merge(next.state);
        self.quarantined.extend(next.quarantined);
    }
}

/// Runs the serial isolating engine over one contiguous input chunk whose
/// first input has sweep-global index `index_base` (0 unless the chunk is a
/// shard of a parallel sweep): a `certified` input on the `DoubleDouble`
/// shadow at [`SweepStage::TieredDoubleDouble`], borrowing the chunk's one
/// record state for the run (an O(1) swap), every other input on the `R`
/// shadow at `stage`.
///
/// Optimistic collect: one accumulating pass over the live inputs records
/// every machine fault as a final verdict (faults are per-input
/// deterministic — the interner is per-run). A panic stops the pass, since
/// a half-observed run leaves the tracer in an untrusted state. If anything
/// faulted, the contaminated state is discarded and the pass rebuilt over
/// the survivors. A `DoubleDouble` fault instead demotes its input to the
/// `R` shadow (sound: certified inputs record the same under both). Each
/// rebuild quarantines or demotes one more input at least, so the loop ends,
/// after exactly one pass when nothing faults.
fn serial_engine<R: Real>(
    sweep: &Sweep<'_>,
    inputs: &[Vec<f64>],
    index_base: usize,
    stage: SweepStage,
    mut certified: Vec<bool>,
) -> ChunkOutcome {
    let mut quarantined: Vec<QuarantinedInput> = Vec::new();
    loop {
        let mut analysis = Herbgrind::<R>::new(sweep.config.clone());
        let mut certified_tier = Herbgrind::<DoubleDouble>::new(sweep.config.clone());
        analysis.set_mask(sweep.mask.clone());
        certified_tier.set_mask(sweep.mask.clone());
        let mut memory = Vec::new();
        let (mut faults, mut demoted) = (Vec::new(), false);
        for (offset, input) in inputs.iter().enumerate() {
            let global = index_base + offset;
            if quarantined.iter().any(|q| q.input_index == global) {
                continue;
            }
            let run = if certified[offset] {
                let dd_stage = SweepStage::TieredDoubleDouble;
                analysis.swap_state(&mut certified_tier);
                let run = sweep.run(&mut certified_tier, &mut memory, input, global, dd_stage);
                analysis.swap_state(&mut certified_tier);
                run
            } else {
                sweep.run(&mut analysis, &mut memory, input, global, stage)
            };
            let Err(error) = run else { continue };
            let panicked = matches!(error, SweepFault::Panic(_));
            if certified[offset] {
                certified[offset] = false;
                demoted = true;
            } else {
                faults.push(QuarantinedInput {
                    input_index: global,
                    stage,
                    error,
                });
            }
            if panicked {
                break;
            }
        }
        if faults.is_empty() && !demoted {
            quarantined.sort_by_key(|q| q.input_index);
            return ChunkOutcome::new(analysis.into_state(), quarantined);
        }
        quarantined.extend(faults);
    }
}

/// Runs the batched isolating engine over all of a sweep's `inputs`: one
/// lane pass on the `R` shadow at [`SweepStage::BatchedLane`].
///
/// When no lane faults, the pass's state is the sweep's outcome. A faulted
/// pass cannot be trusted to name its culprit — the pass's trace interner is
/// shared by every lane, so a trace-budget fault is collective, and a panic
/// belongs to no lane — so the engine discards the pass and the serial
/// engine re-runs the inputs and decides them. Serial verdicts are per-input
/// deterministic, which keeps quarantine lists (and the plain drivers'
/// errors) independent of the batch width the fault surfaced at.
fn batched_engine<R: Real>(sweep: &Sweep<'_>, width: usize, inputs: &[Vec<f64>]) -> ChunkOutcome {
    let stage = SweepStage::BatchedLane;
    let swept = catch_unwind(AssertUnwindSafe(|| {
        with_lane_width!(width, W => batched_sweep_collect::<R, W>(
            &sweep.machine,
            inputs,
            &sweep.config,
            #[cfg(feature = "fault-injection")]
            sweep.inject(stage),
        ))
    }));
    if let Ok(Some(state)) = swept {
        return ChunkOutcome::new(state, Vec::new());
    }
    let _ladder_span = telemetry::span(telemetry::Phase::Ladder);
    let outcome = serial_engine::<R>(sweep, inputs, 0, stage, vec![false; inputs.len()]);
    telemetry::QUARANTINE_LADDER_ATTEMPTS.add(inputs.len() as u64);
    telemetry::QUARANTINE_LADDER_HEALS.add((inputs.len() - outcome.quarantined.len()) as u64);
    outcome
}

/// Runs the certify pass over all of a sweep's `inputs`, timed as the
/// certify phase.
///
/// The probe is already fault-tolerant (a failed or injected run is simply
/// uncertified, and each run meets the sweep's deadline on its own); a
/// *panicking* pass fails closed by escalating every input to the `BigFloat`
/// tier and putting every statement in demand.
fn certify_chunk(sweep: &Sweep<'_>, inputs: &[Vec<f64>], params: &CertParams) -> Certified {
    let _certify_span = telemetry::span(telemetry::Phase::Certify);
    catch_unwind(AssertUnwindSafe(|| {
        certify_inputs(
            &sweep.machine,
            inputs,
            params,
            &sweep.config,
            #[cfg(feature = "fault-injection")]
            sweep.armed,
        )
    }))
    .unwrap_or_else(|_| Certified::escalate_all(inputs.len()))
}

/// Runs the serial engine at `stage` over at most `threads` balanced
/// contiguous chunks of `inputs`, one thread per chunk, and folds the chunk
/// outcomes in input order — by the merge laws, the outcome of one
/// continuous sweep. This is the only place a sweep spawns threads; each
/// shard thread records telemetry exactly when the calling thread does, into
/// a tally folded into the calling thread's at join. The engine catches
/// panics, so a shard thread dying is out of model (a panic while panicking,
/// say); it fails closed by quarantining its whole chunk at `stage`, and its
/// tally is lost.
fn sharded_analysis<R: Real>(
    sweep: &Sweep<'_>,
    inputs: &[Vec<f64>],
    threads: usize,
    stage: SweepStage,
) -> ChunkOutcome {
    let engine = |start, chunk: &[Vec<f64>]| {
        serial_engine::<R>(sweep, chunk, start, stage, vec![false; chunk.len()])
    };
    let chunks = balanced_chunks(inputs, threads);
    if chunks.len() == 1 {
        return engine(0, inputs);
    }
    let recording = telemetry::enabled();
    let engine = &engine;
    std::thread::scope(|scope| {
        let mut start = 0;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let first = start;
                start += chunk.len();
                let handle =
                    scope.spawn(move || telemetry::shard(recording, || engine(first, chunk)));
                (first..start, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(indices, handle)| match handle.join() {
                Ok((outcome, tally)) => {
                    telemetry::absorb(&tally);
                    outcome
                }
                Err(payload) => {
                    let message = panic_message(payload);
                    let lost = indices
                        .map(|input_index| QuarantinedInput {
                            input_index,
                            stage,
                            error: SweepFault::Panic(message.clone()),
                        })
                        .collect();
                    ChunkOutcome::new(AnalysisState::empty(sweep.config.clone()), lost)
                }
            })
            .reduce(|mut folded, next| {
                folded.absorb(next);
                folded
            })
            .expect("at least one chunk")
    })
}

/// The telemetry fault-table cell for one quarantine record: the final
/// records are counted (not intermediate candidates), so the stage × kind
/// table is deterministic across thread counts and batch widths, exactly
/// like the quarantine list itself.
fn record_quarantine_telemetry(record: &QuarantinedInput) {
    let stage = match record.stage {
        SweepStage::Serial => telemetry::FaultStage::Serial,
        SweepStage::ParallelShard => telemetry::FaultStage::ParallelShard,
        SweepStage::BatchedLane => telemetry::FaultStage::BatchedLane,
        SweepStage::TieredDoubleDouble => telemetry::FaultStage::TieredDoubleDouble,
        SweepStage::TieredBigFloat => telemetry::FaultStage::TieredBigFloat,
    };
    let kind = match &record.error {
        SweepFault::Panic(_) => telemetry::FaultKind::Panic,
        SweepFault::Machine(MachineError::StepBudgetExceeded { .. }) => {
            telemetry::FaultKind::StepBudget
        }
        SweepFault::Machine(MachineError::DeadlineExceeded { .. }) => {
            telemetry::FaultKind::Deadline
        }
        SweepFault::Machine(MachineError::TraceBudgetExceeded { .. }) => {
            telemetry::FaultKind::TraceBudget
        }
        SweepFault::Machine(_) => telemetry::FaultKind::Other,
    };
    telemetry::record_fault(stage, kind);
}

/// Turns a sweep's folded outcome into its degraded report.
fn assemble(outcome: ChunkOutcome) -> Report {
    let _report_span = telemetry::span(telemetry::Phase::Report);
    let ChunkOutcome {
        state,
        mut quarantined,
        ..
    } = outcome;
    quarantined.sort_by_key(|q| q.input_index);
    if telemetry::enabled() {
        telemetry::QUARANTINE_INPUTS.add(quarantined.len() as u64);
        for record in &quarantined {
            record_quarantine_telemetry(record);
        }
    }
    let mut report = state.report();
    report.quarantined = quarantined;
    report
}

/// The fail-fast view of an isolating sweep: the report when nothing was
/// quarantined, otherwise the fault of the lowest-index quarantined input —
/// the error a serial sweep stops at, or its panic re-raised.
pub(crate) fn fail_fast(report: Report) -> Result<Report, MachineError> {
    match report.quarantined.first().map(|q| &q.error) {
        None => Ok(report),
        Some(SweepFault::Machine(error)) => Err(error.clone()),
        Some(SweepFault::Panic(message)) => resume_unwind(Box::new(message.clone())),
    }
}

/// The serial family's sweep: one chunk at [`SweepStage::Serial`], or
/// [`AnalysisConfig::effective_threads`] shards at
/// [`SweepStage::ParallelShard`].
pub(crate) fn serial_family<R: Real>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    stage: SweepStage,
    armed: bool,
) -> Report {
    let sweep = Sweep::new(program, config, armed);
    let threads = match stage {
        SweepStage::ParallelShard => sweep.config.effective_threads(inputs.len()),
        _ => 1,
    };
    assemble(sharded_analysis::<R>(&sweep, inputs, threads, stage))
}

/// The batched family's sweep on the `R` shadow: one lane sweep of every
/// input at [`AnalysisConfig::batch_width`].
pub(crate) fn batched_family<R: Real>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    armed: bool,
) -> Report {
    let sweep = Sweep::new(program, config, armed);
    let width = effective_batch_width(sweep.config.batch_width);
    assemble(batched_engine::<R>(&sweep, width, inputs))
}

/// The tiered family's sweep: tier 0 once per sweep (when
/// [`AnalysisConfig::input_ranges`] is declared and covers every input),
/// then the certify pass over every input, then the escalate pass over every
/// input on the serial engine.
///
/// The escalate pass waits for the whole certify pass because its
/// statement mask holds the sweep's demand set ([`statement_mask`]).
/// [`TierStats`] counts the verdicts.
pub(crate) fn tiered_family(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    armed: bool,
) -> (Report, TierStats) {
    let mut sweep = Sweep::new(program, config, armed);
    let prune = arm_tier0(program, &sweep.config, inputs);
    let certified = match CertParams::new(sweep.config.shadow_precision) {
        Some(params) => certify_chunk(&sweep, inputs, &params),
        // Precision gate: below the tier threshold everything escalates.
        None => {
            telemetry::TIERED_ESCALATE_PRECISION_GATE.add(inputs.len() as u64);
            Certified::escalate_all(inputs.len())
        }
    };
    let tiers = TierStats {
        total_inputs: inputs.len(),
        certified_inputs: certified.verdicts.iter().filter(|&&c| c).count(),
    };
    telemetry::TIERED_INPUTS_CERTIFIED.add(tiers.certified_inputs as u64);
    telemetry::TIERED_INPUTS_ESCALATED.add(tiers.escalated_inputs() as u64);
    if telemetry::enabled() {
        telemetry::TIERED_DEMAND_STATEMENTS.add(certified.demand.computes(program) as u64);
    }
    sweep.mask = statement_mask(program, prune.as_ref(), &certified.demand, &sweep.config);
    let stage = SweepStage::TieredBigFloat;
    let outcome = serial_engine::<BigFloat>(&sweep, inputs, 0, stage, certified.verdicts);
    (assemble(outcome), tiers)
}

/// Fault-isolated serial sweep with the default [`BigFloat`] shadow: the
/// isolating counterpart of [`analyze`](crate::analysis::analyze). Always
/// returns a report; failed inputs are quarantined
/// ([`Report::quarantined`]) and the report body covers exactly the
/// survivors, bit-identical to analyzing them alone.
pub fn analyze_isolated(program: &Program, inputs: &[Vec<f64>], config: &AnalysisConfig) -> Report {
    analyze_isolated_with_shadow::<BigFloat>(program, inputs, config)
}

/// [`analyze_isolated`] with an explicit shadow-real type.
pub fn analyze_isolated_with_shadow<R: Real>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Report {
    serial_family::<R>(program, inputs, config, SweepStage::Serial, true)
}

/// Fault-isolated thread-sharded sweep: the isolating counterpart of
/// [`analyze_parallel`](crate::analysis::analyze_parallel). Each shard runs
/// the serial isolation engine over its contiguous chunk, so a fault (or a
/// panicking shadow op) quarantines only its own input while the shard
/// rebuilds and finishes; shard states and quarantine lists merge in input
/// order. Quarantine lists are identical for every thread count, and so is
/// the report, with the shard-merge exception described at
/// [`analyze_parallel`](crate::analysis::analyze_parallel).
pub fn analyze_parallel_isolated(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Report {
    serial_family::<BigFloat>(program, inputs, config, SweepStage::ParallelShard, true)
}

/// Fault-isolated batched sweep: the isolating counterpart of
/// [`analyze_batched`](crate::batched::analyze_batched). A lane sweep that
/// faults or panics is re-run on the serial engine, whose
/// per-input-deterministic verdicts decide the quarantine — which is what
/// keeps quarantine lists identical across batch widths.
pub fn analyze_batched_isolated(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Report {
    batched_family::<BigFloat>(program, inputs, config, true)
}

/// Fault-isolated tiered adaptive-precision sweep: the isolating
/// counterpart of [`analyze_tiered`](crate::tiered::analyze_tiered); see
/// how the tiered engine recovers in the module documentation.
pub fn analyze_tiered_isolated(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Report {
    analyze_tiered_isolated_with_stats(program, inputs, config).0
}

/// [`analyze_tiered_isolated`] with the tier split: how many inputs the
/// probe certified into the cheap `DoubleDouble` tier versus escalated to
/// `BigFloat` — the same [`TierStats`] the plain driver exposes through
/// [`analyze_tiered_with_stats`](crate::tiered::analyze_tiered_with_stats).
pub fn analyze_tiered_isolated_with_stats(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> (Report, TierStats) {
    tiered_family(program, inputs, config, true)
}
