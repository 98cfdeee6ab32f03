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
//! One private helper splits a sweep into balanced contiguous chunks, runs
//! each on its own thread, and folds the chunk outcomes in input order; it
//! is the only place any driver spawns threads.
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
//! The batched engine needs one more mechanism: a lane group shares its
//! expression interner, so a trace-budget fault is attributed to *all*
//! active lanes of the group, and a panic in a lane-vectorized shadow op
//! cannot be attributed to any single lane. Fault candidates from a batched
//! pass are therefore re-tried on a *serial probe ladder* — a fresh
//! single-input serial run (then, for the tiered driver's certified tier, a
//! `BigFloat`-tier probe) whose verdict is canonical because it is
//! per-input deterministic. A candidate whose probe succeeds is *healed*:
//! its probe state is cached and merged back in input order, and the input
//! is demoted out of batched execution so the group fault cannot recur. A
//! candidate that fails every rung is quarantined with the last rung's
//! fault and stage. Probing is what makes quarantine lists — and the plain
//! drivers' errors — independent of the batch width the group fault
//! happened to occur at.
//!
//! The tiered engine certifies each shard's inputs, splits them into
//! contiguous groups of equal verdict (and, with tier 0 armed, equal
//! declared-region membership), and runs every group through the batched
//! engine on its tier's shadow.
//!
//! Panics unwind out of the *analysis observer* (the machine itself never
//! panics on user input): the serial engines catch them per input, the
//! batched engine catches them per pass and probes every input of the pass.
//! Either way only the offending input is quarantined — the shard or lane
//! group is rebuilt without it.

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::analysis::{balanced_chunks, AnalysisState, Herbgrind};
use crate::batched::{dispatch_sweep_collect, effective_batch_width};
use crate::config::AnalysisConfig;
use crate::report::Report;
use crate::tiered::{arm_tier0, certify_dispatch, input_in_region, Tier0, TierStats};
use fpvm::{Machine, MachineError, Program};
use shadowreal::cert::CertParams;
use shadowreal::{BatchReal, BigFloat, DoubleDouble, Real};

#[cfg(feature = "fault-injection")]
use crate::faultinject::InjectStage;

/// The pipeline stage whose verdict quarantined an input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepStage {
    /// The serial driver's sweep loop.
    Serial,
    /// A thread shard of the parallel driver.
    ParallelShard,
    /// The batched driver (lane-group pass or its serial retry probe — the
    /// probe is part of the same pipeline stage).
    BatchedLane,
    /// The tiered driver's certified `DoubleDouble` tier.
    TieredDoubleDouble,
    /// The tiered driver's `BigFloat` tier — the last rung of the tiered
    /// retry ladder, so tiered quarantines report this stage.
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

#[cfg(feature = "fault-injection")]
impl SweepStage {
    /// The fault-injection stage a run at this pipeline stage is armed with.
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
/// shared by every shard, the normalized configuration, and whether runs
/// consult the installed fault plan.
struct Sweep<'p> {
    machine: Machine<'p>,
    config: AnalysisConfig,
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
            armed,
        }
    }

    /// The stage an armed sweep injects faults at, `None` when unarmed.
    #[cfg(feature = "fault-injection")]
    fn inject(&self, stage: SweepStage) -> Option<InjectStage> {
        self.armed.then(|| stage.inject())
    }

    /// One run of `input` (sweep-global index `global`) under `analysis`,
    /// with observer panics caught and typed.
    fn run<R: Real>(
        &self,
        analysis: &mut Herbgrind<R>,
        memory: &mut Vec<fpvm::Value>,
        input: &[f64],
        global: usize,
        stage: SweepStage,
    ) -> Result<(), SweepFault> {
        #[cfg(feature = "fault-injection")]
        if let Some(inject) = self.inject(stage) {
            analysis.arm_injection(global, inject);
        }
        #[cfg(not(feature = "fault-injection"))]
        let _ = (global, stage);
        match catch_unwind(AssertUnwindSafe(|| {
            self.machine.run_traced_reusing(input, analysis, memory)
        })) {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(error)) => Err(SweepFault::Machine(error)),
            Err(payload) => Err(SweepFault::Panic(panic_message(payload))),
        }
    }
}

/// A contiguous chunk's survivor state plus its quarantine records (and,
/// for tiered chunks, the tier split).
struct ChunkOutcome {
    state: AnalysisState,
    quarantined: Vec<QuarantinedInput>,
    tiers: TierStats,
}

impl ChunkOutcome {
    fn new(state: AnalysisState, quarantined: Vec<QuarantinedInput>) -> ChunkOutcome {
        ChunkOutcome {
            state,
            quarantined,
            tiers: TierStats::default(),
        }
    }

    /// Folds the outcome of the next chunk (in input order) into this one.
    fn absorb(&mut self, next: ChunkOutcome) {
        self.state.merge(next.state);
        self.quarantined.extend(next.quarantined);
        self.tiers.absorb(next.tiers);
    }
}

/// Runs the serial isolating engine over one contiguous input chunk whose
/// first input has sweep-global index `index_base`.
///
/// Optimistic collect: one accumulating pass over the live inputs records
/// every machine fault as a final verdict (faults are per-input
/// deterministic — the interner is per-run). A panic stops the pass, since
/// a half-observed run leaves the tracer in an untrusted state. If anything
/// faulted, the contaminated state is discarded and the pass rebuilt over
/// the survivors; each rebuild quarantines at least one more input, so the
/// loop runs at most `inputs.len() + 1` passes and exactly one pass when
/// nothing faults.
fn serial_engine<R: Real>(
    sweep: &Sweep<'_>,
    inputs: &[Vec<f64>],
    index_base: usize,
    stage: SweepStage,
) -> ChunkOutcome {
    let mut quarantined: Vec<QuarantinedInput> = Vec::new();
    loop {
        let mut analysis = Herbgrind::<R>::new(sweep.config.clone());
        let mut memory = Vec::new();
        let mut faults: Vec<QuarantinedInput> = Vec::new();
        for (offset, input) in inputs.iter().enumerate() {
            let global = index_base + offset;
            if quarantined.iter().any(|q| q.input_index == global) {
                continue;
            }
            if let Err(error) = sweep.run(&mut analysis, &mut memory, input, global, stage) {
                let panicked = matches!(error, SweepFault::Panic(_));
                faults.push(QuarantinedInput {
                    input_index: global,
                    stage,
                    error,
                });
                if panicked {
                    break;
                }
            }
        }
        if faults.is_empty() {
            quarantined.sort_by_key(|q| q.input_index);
            return ChunkOutcome::new(analysis.into_state(), quarantined);
        }
        quarantined.extend(faults);
    }
}

/// One rung of the batched engine's serial retry ladder: a fresh
/// single-input serial run on one shadow type, at one pipeline stage.
#[derive(Clone, Copy)]
struct LadderRung {
    probe: fn(&Sweep<'_>, &[f64], usize, SweepStage) -> Result<AnalysisState, SweepFault>,
    stage: SweepStage,
}

impl LadderRung {
    /// The rung probing with the `R` shadow.
    fn on<R: Real>(stage: SweepStage) -> LadderRung {
        LadderRung {
            probe: probe_with::<R>,
            stage,
        }
    }
}

/// A fresh single-input serial run: the canonical per-input verdict for a
/// batched fault candidate, and (on success) the cached state that replaces
/// the input's batched execution.
fn probe_with<R: Real>(
    sweep: &Sweep<'_>,
    input: &[f64],
    global: usize,
    stage: SweepStage,
) -> Result<AnalysisState, SweepFault> {
    let mut analysis = Herbgrind::<R>::new(sweep.config.clone());
    sweep.run(&mut analysis, &mut Vec::new(), input, global, stage)?;
    Ok(analysis.into_state())
}

/// Walks a fault candidate down the serial retry ladder. The first rung
/// that runs clean heals the input (its state is merged back in input
/// order); if every rung fails, the input is quarantined with the *last*
/// rung's fault and stage — the deciding rung — which keeps the record
/// independent of the batch width or thread count the original fault
/// surfaced at.
fn run_ladder(
    sweep: &Sweep<'_>,
    input: &[f64],
    global: usize,
    rungs: &[LadderRung],
) -> Result<AnalysisState, QuarantinedInput> {
    let _ladder_span = telemetry::span(telemetry::Phase::Ladder);
    let mut last: Option<QuarantinedInput> = None;
    for rung in rungs {
        telemetry::QUARANTINE_LADDER_ATTEMPTS.incr();
        match (rung.probe)(sweep, input, global, rung.stage) {
            Ok(state) => {
                telemetry::QUARANTINE_LADDER_HEALS.incr();
                return Ok(state);
            }
            Err(error) => {
                last = Some(QuarantinedInput {
                    input_index: global,
                    stage: rung.stage,
                    error,
                });
            }
        }
    }
    Err(last.unwrap_or(QuarantinedInput {
        input_index: global,
        stage: SweepStage::Serial,
        error: SweepFault::Panic("empty retry ladder".to_string()),
    }))
}

/// How each input of a batched chunk is currently executed.
enum Mode {
    /// Runs in the lane-parallel batched pass (the fast path).
    Batched,
    /// Healed by a ladder probe: the cached single-input state replaces the
    /// input's batched execution, merged back in input order.
    Probed(Option<AnalysisState>),
    /// Quarantined; excluded from the sweep.
    Quarantined(Option<QuarantinedInput>),
}

/// Runs the batched isolating engine over one contiguous input chunk whose
/// first input has sweep-global index `index_base`, its passes at `stage`
/// and with tier-0 mask `prune` (`None` outside the tiered driver's
/// in-region groups).
///
/// Each iteration partitions the chunk's live batched-mode inputs into
/// maximal contiguous runs, executes each run with the fault-collecting
/// batched sweep, and resolves every fault candidate through the serial
/// retry ladder: healed candidates demote to [`Mode::Probed`] (so a
/// group-attributed fault cannot recur), failed candidates to
/// [`Mode::Quarantined`]. A panic in a pass cannot be attributed to a lane,
/// so every input of the panicking run becomes a candidate and the probes
/// sort the guilty from the innocent. Every iteration with candidates
/// resolves at least one input, bounding the loop; a fault-free chunk costs
/// exactly one batched sweep.
fn batched_engine<R: BatchReal>(
    sweep: &Sweep<'_>,
    width: usize,
    inputs: &[Vec<f64>],
    index_base: usize,
    stage: SweepStage,
    rungs: &[LadderRung],
    prune: Option<&Arc<staticerr::PruneMask>>,
) -> ChunkOutcome {
    #[cfg(not(feature = "fault-injection"))]
    let _ = stage;
    let mut modes: Vec<Mode> = (0..inputs.len()).map(|_| Mode::Batched).collect();
    loop {
        // Maximal contiguous runs of batched-mode inputs, by local offset.
        let mut segments: Vec<(usize, usize)> = Vec::new();
        let mut cursor = 0;
        while cursor < inputs.len() {
            if matches!(modes[cursor], Mode::Batched) {
                let start = cursor;
                while cursor < inputs.len() && matches!(modes[cursor], Mode::Batched) {
                    cursor += 1;
                }
                segments.push((start, cursor));
            } else {
                cursor += 1;
            }
        }
        let mut states: Vec<AnalysisState> = Vec::new();
        let mut candidates: Vec<usize> = Vec::new();
        for &(start, end) in &segments {
            let swept = catch_unwind(AssertUnwindSafe(|| {
                dispatch_sweep_collect::<R>(
                    &sweep.machine,
                    width,
                    &inputs[start..end],
                    index_base + start,
                    &sweep.config,
                    prune,
                    #[cfg(feature = "fault-injection")]
                    sweep.inject(stage),
                )
            }));
            match swept {
                Ok(Ok(state)) => states.push(state),
                Ok(Err(faults)) => {
                    candidates.extend(faults.into_iter().map(|(global, _)| global));
                }
                // The pass panicked: no lane can be blamed, so every input
                // of the run is probed and the ladder decides.
                Err(_) => candidates.extend((start..end).map(|offset| index_base + offset)),
            }
        }
        if candidates.is_empty() {
            // Assemble: merge segment states and cached probe states in
            // input order — contiguous chunks, so the merge laws make the
            // result bit-identical to one continuous sweep of the
            // survivors.
            let mut state = AnalysisState::empty(sweep.config.clone());
            let mut quarantined = Vec::new();
            let mut next_segment = states.into_iter();
            let mut position = 0;
            while position < inputs.len() {
                match &mut modes[position] {
                    Mode::Batched => {
                        if let Some(segment_state) = next_segment.next() {
                            state.merge(segment_state);
                        }
                        while position < inputs.len() && matches!(modes[position], Mode::Batched) {
                            position += 1;
                        }
                    }
                    Mode::Probed(cached) => {
                        if let Some(cached) = cached.take() {
                            state.merge(cached);
                        }
                        position += 1;
                    }
                    Mode::Quarantined(record) => {
                        if let Some(record) = record.take() {
                            quarantined.push(record);
                        }
                        position += 1;
                    }
                }
            }
            return ChunkOutcome::new(state, quarantined);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for global in candidates {
            let offset = global - index_base;
            match run_ladder(sweep, &inputs[offset], global, rungs) {
                Ok(state) => modes[offset] = Mode::Probed(Some(state)),
                Err(record) => modes[offset] = Mode::Quarantined(Some(record)),
            }
        }
    }
}

/// Runs the tiered isolating engine over one contiguous input chunk whose
/// first input has sweep-global index `index_base`: certify, partition into
/// contiguous groups of equal verdict and tier-0 region membership, run
/// each group through the batched engine on its tier's shadow.
///
/// The certification probe is already fault-tolerant (a failed or injected
/// run is simply uncertified); a *panicking* certify pass fails closed by
/// escalating every input to the `BigFloat` tier. Certified groups retry
/// faulting inputs on two rungs — a serial `DoubleDouble` probe, then a
/// serial `BigFloat` probe (sound for certified inputs, whose `DoubleDouble`
/// and `BigFloat` records agree by construction) — so an input is
/// quarantined only when even the reference tier fails it. Uncertified
/// groups run on the `BigFloat` shadow directly.
fn tiered_engine(
    sweep: &Sweep<'_>,
    width: usize,
    inputs: &[Vec<f64>],
    index_base: usize,
    params: Option<&CertParams>,
    tier0: Option<&Tier0>,
) -> ChunkOutcome {
    let certified: Vec<bool> = match params {
        Some(params) => {
            let _certify_span = telemetry::span(telemetry::Phase::Certify);
            catch_unwind(AssertUnwindSafe(|| {
                certify_dispatch(
                    &sweep.machine,
                    width,
                    inputs,
                    params,
                    sweep.config.detect_compensation,
                    #[cfg(feature = "fault-injection")]
                    sweep.armed.then_some(index_base),
                )
            }))
            .unwrap_or_else(|_| vec![false; inputs.len()])
        }
        // Precision gate: below the tier threshold everything escalates.
        None => {
            telemetry::TIERED_ESCALATE_PRECISION_GATE.add(inputs.len() as u64);
            vec![false; inputs.len()]
        }
    };
    let tiers = TierStats {
        total_inputs: inputs.len(),
        certified_inputs: certified.iter().filter(|&&c| c).count(),
    };
    telemetry::TIERED_INPUTS_CERTIFIED.add(tiers.certified_inputs as u64);
    telemetry::TIERED_INPUTS_ESCALATED.add(tiers.escalated_inputs() as u64);
    // Tier 0 applies per input: only inputs inside the statically declared
    // region may use the prune mask. Out-of-region inputs sweep unpruned,
    // so a wrong `input_ranges` declaration costs throughput, never report
    // fidelity.
    let in_region: Vec<bool> = match tier0 {
        Some(t) => inputs
            .iter()
            .map(|input| input_in_region(input, &t.ranges))
            .collect(),
        None => vec![false; inputs.len()],
    };
    let dd_rungs = [
        LadderRung::on::<DoubleDouble>(SweepStage::TieredDoubleDouble),
        LadderRung::on::<BigFloat>(SweepStage::TieredBigFloat),
    ];
    let big_rungs = [LadderRung::on::<BigFloat>(SweepStage::TieredBigFloat)];
    let mut outcome = ChunkOutcome {
        tiers,
        ..ChunkOutcome::new(AnalysisState::empty(sweep.config.clone()), Vec::new())
    };
    let mut start = 0;
    while start < inputs.len() {
        let (verdict, region) = (certified[start], in_region[start]);
        let mut end = start + 1;
        while end < inputs.len() && certified[end] == verdict && in_region[end] == region {
            end += 1;
        }
        let (group, base) = (&inputs[start..end], index_base + start);
        let prune = tier0.filter(|_| region).map(|t| &t.mask);
        let group_outcome = if verdict {
            let _tier_span = telemetry::span(telemetry::Phase::TierDoubleDouble);
            let stage = SweepStage::TieredDoubleDouble;
            batched_engine::<DoubleDouble>(sweep, width, group, base, stage, &dd_rungs, prune)
        } else {
            let _tier_span = telemetry::span(telemetry::Phase::TierBigFloat);
            let stage = SweepStage::TieredBigFloat;
            batched_engine::<BigFloat>(sweep, width, group, base, stage, &big_rungs, prune)
        };
        outcome.absorb(group_outcome);
        start = end;
    }
    outcome
}

/// Runs `engine` over at most `threads` balanced contiguous chunks of
/// `inputs`, one thread per chunk, and folds the chunk outcomes in input
/// order — by the merge laws, the outcome of one continuous sweep. This is
/// the only place a sweep spawns threads; each shard thread records
/// telemetry exactly when the calling thread does. The engines catch panics
/// per input, so a shard thread dying is out of model (a panic while
/// panicking, say); it fails closed by quarantining its whole chunk at
/// `stage`.
fn sharded(
    inputs: &[Vec<f64>],
    threads: usize,
    config: &AnalysisConfig,
    stage: SweepStage,
    engine: impl Fn(usize, &[Vec<f64>]) -> ChunkOutcome + Sync,
) -> ChunkOutcome {
    let chunks = balanced_chunks(inputs, threads);
    if chunks.len() == 1 {
        return engine(0, inputs);
    }
    let recording = telemetry::enabled();
    let engine = &engine;
    let outcomes: Vec<ChunkOutcome> = std::thread::scope(|scope| {
        let mut start = 0;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let first = start;
                start += chunk.len();
                let handle = scope.spawn(move || {
                    telemetry::set_thread_enabled(recording);
                    engine(first, chunk)
                });
                (first..start, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(indices, handle)| {
                handle.join().unwrap_or_else(|payload| {
                    let message = panic_message(payload);
                    let lost = indices
                        .map(|input_index| QuarantinedInput {
                            input_index,
                            stage,
                            error: SweepFault::Panic(message.clone()),
                        })
                        .collect();
                    ChunkOutcome::new(AnalysisState::empty(config.clone()), lost)
                })
            })
            .collect()
    });
    let mut folded = ChunkOutcome::new(AnalysisState::empty(config.clone()), Vec::new());
    for outcome in outcomes {
        folded.absorb(outcome);
    }
    folded
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
    assemble(sharded(
        inputs,
        threads,
        &sweep.config,
        stage,
        |start, chunk| serial_engine::<R>(&sweep, chunk, start, stage),
    ))
}

/// The batched family's sweep on the `R` shadow, threads composed with
/// lanes.
pub(crate) fn batched_family<R: BatchReal>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    armed: bool,
) -> Report {
    let sweep = Sweep::new(program, config, armed);
    let width = effective_batch_width(sweep.config.batch_width);
    let threads = sweep.config.effective_threads(inputs.len());
    let stage = SweepStage::BatchedLane;
    let rungs = [LadderRung::on::<R>(stage)];
    assemble(sharded(
        inputs,
        threads,
        &sweep.config,
        stage,
        |start, chunk| batched_engine::<R>(&sweep, width, chunk, start, stage, &rungs, None),
    ))
}

/// The tiered family's sweep: tier 0 once per sweep (when
/// [`AnalysisConfig::input_ranges`] is declared), then the tiered engine per
/// thread shard.
pub(crate) fn tiered_family(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    armed: bool,
) -> (Report, TierStats) {
    let sweep = Sweep::new(program, config, armed);
    let width = effective_batch_width(sweep.config.batch_width);
    let threads = sweep.config.effective_threads(inputs.len());
    let params = CertParams::new(sweep.config.shadow_precision);
    let tier0 = arm_tier0(program, &sweep.config);
    let outcome = sharded(
        inputs,
        threads,
        &sweep.config,
        SweepStage::TieredBigFloat,
        |start, chunk| tiered_engine(&sweep, width, chunk, start, params.as_ref(), tier0.as_ref()),
    );
    let tiers = outcome.tiers;
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
/// [`analyze_batched`](crate::batched::analyze_batched). Lane-group faults
/// and pass panics are re-tried on a serial probe per input — the probe's
/// per-input-deterministic verdict decides the quarantine, which is what
/// keeps quarantine lists identical across batch widths and thread counts.
pub fn analyze_batched_isolated(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Report {
    batched_family::<BigFloat>(program, inputs, config, true)
}

/// Fault-isolated tiered adaptive-precision sweep: the isolating
/// counterpart of [`analyze_tiered`](crate::tiered::analyze_tiered); see
/// the tiered engine's retry ladder in the module documentation.
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
