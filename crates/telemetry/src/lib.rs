//! Zero-cost-when-off sweep telemetry.
//!
//! Counters, max gauges, coarse log2-bucket histograms, and RAII
//! phase-timing spans that every layer of the analysis pipeline reports
//! into: the `fpvm` interpreters, the batched engine, the tiered driver,
//! `shadowreal`, the expression interner, and the quarantine machinery. The
//! crate holds no process-global state: every metric lands in a tally that
//! belongs to the capture wrapping the sweep.
//!
//! # Cost model
//!
//! Each thread has two thread-locals: a recording flag and a tally (a
//! [`SweepTelemetry`]). A metric handle such as [`FPVM_STEPS`] is a `const`
//! index into the tally. Every recording site checks [`enabled`], which
//! reads the calling thread's flag: while no capture is active (the
//! default) a site costs one thread-local load and one predictable branch.
//! While recording, a site does a plain add into its own thread's tally — no
//! atomics, and no cache lines shared with other threads. The hot
//! interpreter loops batch their counts into plain locals that are flushed
//! once per run or per batch pass, so the off-mode overhead is not visible
//! on the committed `batch_sweep` baseline (CI asserts ≤2%).
//!
//! # How a capture works
//!
//! A capture records the sweep it wraps and nothing else.
//! [`SweepCapture::begin`] with [`TelemetryMode::On`] sets the calling
//! thread's flag, swaps a fresh tally in, keeps the flag and tally it
//! replaced, and starts timing [`Phase::Sweep`]; [`SweepCapture::finish`]
//! stops the timer, swaps the kept flag and tally back, and returns the
//! capture's tally as the snapshot. So:
//!
//! * Captures on different threads neither wait for each other nor share a
//!   cell, and uncaptured sweeps on other threads record nothing.
//! * Captures on one thread nest. The inner snapshot holds the inner sweep
//!   alone; `finish` also folds it into the enclosing capture's tally.
//! * A driver that shards a sweep across threads runs each shard thread
//!   under [`shard`], which gives it the caller's flag and a fresh tally,
//!   and folds each returned tally into the caller's with [`absorb`] at
//!   join. Counters, histograms, phases and faults add, and gauges keep the
//!   maximum; both commute, so the fold order cannot change a snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::time::Instant;

/// Whether a sweep records telemetry. The default is [`TelemetryMode::Off`],
/// under which every recording site reduces to one thread-local load and a
/// predictable branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No recording; [`SweepCapture::finish`] returns a disabled snapshot.
    #[default]
    Off,
    /// Record all metrics for the duration of the capture.
    On,
}

thread_local! {
    /// This thread's recording flag: the gate [`enabled`] reads.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// This thread's tally: where its recording sites add.
    static TALLY: RefCell<SweepTelemetry> = const { RefCell::new(SweepTelemetry::disabled()) };
}

/// True while this thread records: inside a [`SweepCapture`] with
/// [`TelemetryMode::On`], or in a [`shard`] of the captured sweep.
///
/// This is the single gate every recording site checks: one load of the
/// thread's own flag, so the off path stays branch-predictable.
#[inline(always)]
pub fn enabled() -> bool {
    RECORDING.with(Cell::get)
}

/// Applies `update` to this thread's tally if this thread records.
#[inline(always)]
fn with_tally(update: impl FnOnce(&mut SweepTelemetry)) {
    if enabled() {
        TALLY.with(|tally| update(&mut tally.borrow_mut()));
    }
}

/// A monotonically increasing `u64` counter (also used as a sum gauge): a
/// handle to one cell of the recording thread's tally.
pub struct Counter(usize);

impl Counter {
    /// Add `n` if telemetry is enabled. Call sites that already batched into a
    /// local should use this once per run/pass rather than per event.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        with_tally(|tally| tally.counters[self.0] += n);
    }

    /// Increment by one if telemetry is enabled.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A gauge that keeps the maximum value observed during the capture.
pub struct MaxGauge(usize);

impl MaxGauge {
    /// Record `v`, keeping the capture-wide maximum, if telemetry is enabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        with_tally(|tally| tally.gauges[self.0] = tally.gauges[self.0].max(v));
    }
}

/// Number of log2 buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 32;

/// Bucket index for a value: 0 holds zero, bucket `k` (1..=30) holds values in
/// `[2^(k-1), 2^k)`, and bucket 31 holds everything `>= 2^30`.
#[inline]
pub fn hist_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// A coarse log2-bucket histogram with total count and sum.
pub struct Histogram(usize);

impl Histogram {
    /// Record one observation if telemetry is enabled.
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        with_tally(|tally| {
            let h = &mut tally.histograms[self.0];
            h.buckets[hist_bucket(v)] += 1;
            h.count += 1;
            h.sum += v;
        });
    }
}

/// The observations one [`Histogram`] recorded during a capture.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observation counts by [`hist_bucket`].
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of the observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    const EMPTY: HistogramSnapshot = HistogramSnapshot {
        buckets: [0; HIST_BUCKETS],
        count: 0,
        sum: 0,
    };

    /// Mean of the observed values, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count != 0).then(|| self.sum as f64 / self.count as f64)
    }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

macro_rules! declare_counters {
    ($( ($ident:ident, $name:literal, $stable:literal, $doc:literal) ),* $(,)?) => {
        /// Tally positions of the counters, in registry order.
        #[allow(non_camel_case_types)]
        enum CounterIndex { $($ident),* }

        $(
            #[doc = $doc]
            pub const $ident: Counter = Counter(CounterIndex::$ident as usize);
        )*

        /// Names of every registered counter, in registry order. This order is
        /// part of the stable JSON schema.
        pub const COUNTER_NAMES: &[&str] = &[ $($name),* ];

        /// For each counter (registry order), whether its value is
        /// order-independent: deterministic for a given driver + program +
        /// inputs regardless of thread count and lane width. Unstable metrics
        /// (schedule-, width-, or clock-dependent) are excluded from the
        /// determinism contract.
        pub const COUNTER_STABLE: &[bool] = &[ $($stable),* ];
    };
}

declare_counters! {
    // fpvm: serial + batched interpreters.
    (FPVM_STEPS, "fpvm.steps", true,
     "Instructions executed across all runs (per active lane in batch mode)."),
    (FPVM_BUDGET_CHECKS, "fpvm.budget_checks", false,
     "Step-budget and deadline checks performed by the interpreters."),
    (FPVM_BATCH_PASSES, "fpvm.batch_passes", false,
     "Batched interpreter passes (one per lane group per program run)."),
    (FPVM_BATCH_DISPATCHES, "fpvm.batch_dispatches", false,
     "Scheduler iterations in the batched interpreter (one group-instruction dispatch each)."),
    (FPVM_BATCH_ACTIVE_LANE_SLOTS, "fpvm.batch_active_lane_slots", false,
     "Sum of active lanes over all batch dispatches (utilization numerator)."),
    (FPVM_BRANCH_DIVERGENCE, "fpvm.branch_divergence", false,
     "Lane-group splits at data-dependent branches in the batched interpreter."),
    (FPVM_BRANCH_RECONVERGE, "fpvm.branch_reconverge", false,
     "Lane-group merges when a parked group rejoined at the scheduler's current pc."),
    // Batched analysis engine (cross-lane sharing of deep trace nodes).
    (BATCH_GROUP_SHARED_NODES, "batch.group_shared_nodes", false,
     "Deep trace nodes (past the interning depth bound) a lane took from an earlier lane of its group."),
    (BATCH_GROUP_SPLIT_NODES, "batch.group_split_nodes", false,
     "Deep trace nodes (past the interning depth bound) a lane built itself."),
    // Analysis record layer.
    (ANALYSIS_COUNTS_ONLY_UPDATES, "analysis.counts_only_updates", true,
     "Operation-record updates that kept only counts: statements outside a tiered sweep's demand set."),
    // Shadow op counts attributed by Real::kind_name().
    (SHADOW_F64_OPS, "shadow.f64_ops", true,
     "Analyzed operations executed under the f64 reference shadow."),
    (SHADOW_DD_OPS, "shadow.dd_ops", true,
     "Analyzed operations executed under the DoubleDouble shadow."),
    (SHADOW_BIGFLOAT_OPS, "shadow.bigfloat_ops", true,
     "Analyzed operations executed under the BigFloat shadow."),
    // shadowreal internals.
    (BIGFLOAT_APPLY_OPS, "bigfloat.apply_ops", true,
     "BigFloat operations dispatched through the shadowreal Real boundary."),
    (BIGFLOAT_DIV_WORD, "bigfloat.div_word", true,
     "BigFloat divisions served by the single-limb schoolbook kernel."),
    (BIGFLOAT_DIV_SCHOOLBOOK, "bigfloat.div_schoolbook", true,
     "BigFloat divisions served by the multi-limb schoolbook kernel."),
    (BIGFLOAT_DIV_NEWTON, "bigfloat.div_newton", true,
     "BigFloat divisions served by the Newton reciprocal kernel."),
    (BIGFLOAT_CONST_CACHE_HITS, "bigfloat.const_cache_hits", false,
     "Transcendental constant-cache lookups served from cache (process-lifetime warm)."),
    (BIGFLOAT_CONST_CACHE_MISSES, "bigfloat.const_cache_misses", false,
     "Transcendental constant-cache lookups that had to compute the constant."),
    // Expression interner.
    (INTERNER_PROBE_HITS, "interner.probe_hits", false,
     "Interner table probes that found an existing node."),
    (INTERNER_PROBE_MISSES, "interner.probe_misses", false,
     "Interner table probes that allocated a new node."),
    (INTERNER_POOL_RECYCLES, "interner.pool_recycles", false,
     "Node allocations served by recycling a pooled allocation."),
    // Tiered driver.
    (TIERED_INPUTS_CERTIFIED, "tiered.inputs_certified", true,
     "Inputs whose probe pass certified the cheap DoubleDouble tier."),
    (TIERED_INPUTS_ESCALATED, "tiered.inputs_escalated", true,
     "Inputs escalated to the BigFloat tier."),
    (TIERED_ESCALATE_ROUNDING, "tiered.escalate_rounding", true,
     "Escalations first caused by a rounding certificate failure."),
    (TIERED_ESCALATE_COMPENSATION, "tiered.escalate_compensation", true,
     "Escalations first caused by a compensation-comparison certificate failure."),
    (TIERED_ESCALATE_BRANCH, "tiered.escalate_branch", true,
     "Escalations first caused by a branch-comparison certificate failure."),
    (TIERED_ESCALATE_MACHINE_FAULT, "tiered.escalate_machine_fault", true,
     "Escalations caused by a machine fault (budget/deadline) during the probe run."),
    (TIERED_ESCALATE_PRECISION_GATE, "tiered.escalate_precision_gate", true,
     "Inputs escalated wholesale because the shadow precision has no certificate parameters."),
    (TIERED_ESCALATE_INJECTED, "tiered.escalate_injected", true,
     "Escalations forced by the fault-injection harness."),
    (TIERED_DEMAND_STATEMENTS, "tiered.demand_statements", true,
     "Compute statements in a tiered sweep's demand set (those that can be erroneous), summed over sweeps."),
    // Static tier 0 (error-dataflow certification over the tape).
    (TIER0_STATEMENTS_CERTIFIED, "tier0.statements_certified", true,
     "Compute statements the static tier-0 pass certified stable."),
    (TIER0_STATEMENTS_PRUNED, "tier0.statements_pruned", true,
     "Compute statements in the tier-0 prune mask (certified, non-compensating, clean destination)."),
    (TIER0_PRUNED_EXECUTIONS, "tier0.pruned_executions", true,
     "Dynamic compute executions that skipped shadowing because the statement was statically pruned."),
    // Quarantine.
    (QUARANTINE_INPUTS, "quarantine.inputs_quarantined", true,
     "Inputs quarantined in the final report."),
    (QUARANTINE_LADDER_ATTEMPTS, "quarantine.ladder_attempts", false,
     "Inputs the serial engine re-ran after a faulted batched lane pass."),
    (QUARANTINE_LADDER_HEALS, "quarantine.ladder_heals", false,
     "Serially re-run inputs that came back clean (not quarantined)."),
    // Fault injection (test harness).
    (FAULTINJECT_FIRED, "faultinject.fired", false,
     "Injected fault sites that actually fired."),
}

/// Declares the max gauges or the histograms: a `const` handle per entry,
/// indexing the tally in registry order, and the name table.
macro_rules! declare_metrics {
    ($handle:ident, $index:ident, $names:ident, $names_doc:literal,
     $( ($ident:ident, $name:literal, $doc:literal) ),* $(,)?) => {
        #[allow(non_camel_case_types)]
        enum $index { $($ident),* }
        $(
            #[doc = $doc]
            pub const $ident: $handle = $handle($index::$ident as usize);
        )*
        #[doc = $names_doc]
        pub const $names: &[&str] = &[ $($name),* ];
    };
}

declare_metrics! {
    MaxGauge, GaugeIndex, GAUGE_NAMES,
    "Names of every registered max gauge, in registry order.",
    (INTERNER_PEAK_NODES, "interner.peak_nodes",
     "Largest interned-node count observed in any single run or batched lane pass."),
    (INTERNER_NODE_BUDGET, "interner.node_budget",
     "Configured trace-node budget (0 = unlimited); headroom = budget - peak."),
}

declare_metrics! {
    Histogram, HistogramIndex, HISTOGRAM_NAMES,
    "Names of every registered histogram, in registry order.",
    (HIST_RUN_STEPS, "hist.run_steps",
     "Steps per completed interpreter run (per lane in batch mode)."),
    (HIST_BATCH_GROUP_SIZE, "hist.batch_group_size",
     "Active-lane count of each batched pass's initial lane group."),
}

// ---------------------------------------------------------------------------
// Phase timing
// ---------------------------------------------------------------------------

/// Coarse pipeline phases timed by [`span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Whole-sweep wall time: one span per [`SweepCapture`], from `begin` to
    /// `finish`.
    Sweep,
    /// Tiered driver: DoubleDouble certify-probe pass.
    Certify,
    /// Tiered driver: certified DoubleDouble runs, one span each.
    TierDoubleDouble,
    /// Tiered driver: escalated BigFloat runs, one span each.
    TierBigFloat,
    /// Serial re-runs of faulted batched lane passes.
    Ladder,
    /// Report assembly and merging.
    Report,
    /// Tiered driver: tier-0 static error-dataflow pass over the tape.
    Tier0Static,
}

/// All phases, in registry order (part of the stable JSON schema).
pub const PHASES: &[Phase] = &[
    Phase::Sweep,
    Phase::Certify,
    Phase::TierDoubleDouble,
    Phase::TierBigFloat,
    Phase::Ladder,
    Phase::Report,
    Phase::Tier0Static,
];

/// Stable snake_case name for each phase.
pub const PHASE_NAMES: &[&str] = &[
    "sweep",
    "certify",
    "tier_dd",
    "tier_bigfloat",
    "ladder",
    "report",
    "tier0_static",
];

/// RAII span that records one entry and its wall-clock duration for a phase.
/// Inert (no clock read) when telemetry is disabled at construction time.
pub struct PhaseSpan {
    start: Option<(Phase, Instant)>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some((phase, start)) = self.start.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            with_tally(|tally| {
                let cell = &mut tally.phases[phase as usize];
                cell.count += 1;
                cell.nanos += nanos;
            });
        }
    }
}

/// Start timing `phase`; the span records on drop. When telemetry is off this
/// returns an inert span without touching the clock.
#[inline]
pub fn span(phase: Phase) -> PhaseSpan {
    PhaseSpan {
        start: enabled().then(|| (phase, Instant::now())),
    }
}

/// Timing snapshot for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSnapshot {
    /// Number of spans recorded for this phase.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub nanos: u64,
}

// ---------------------------------------------------------------------------
// Quarantine fault table (stage x kind)
// ---------------------------------------------------------------------------

/// Sweep stage a quarantine fault was attributed to (rows of the fault table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// The serial driver's sweep loop.
    Serial,
    /// A thread shard of the parallel driver.
    ParallelShard,
    /// The batched driver's lane passes and their serial re-runs.
    BatchedLane,
    /// The tiered driver's certified `DoubleDouble` tier.
    TieredDoubleDouble,
    /// The tiered driver's `BigFloat` tier.
    TieredBigFloat,
}

/// Stable names for [`FaultStage`], in discriminant order.
pub const FAULT_STAGE_NAMES: &[&str] = &[
    "serial",
    "parallel_shard",
    "batched_lane",
    "tiered_dd",
    "tiered_bigfloat",
];

/// Kind of quarantine fault (columns of the fault table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The analysis observer panicked.
    Panic,
    /// The run exhausted its step budget.
    StepBudget,
    /// The run passed its wall-clock deadline.
    Deadline,
    /// The run outgrew its trace-node budget.
    TraceBudget,
    /// Any other machine error.
    Other,
}

/// Stable names for [`FaultKind`], in discriminant order.
pub const FAULT_KIND_NAMES: &[&str] =
    &["panic", "step_budget", "deadline", "trace_budget", "other"];

const FAULT_STAGES: usize = FAULT_STAGE_NAMES.len();
const FAULT_KINDS: usize = FAULT_KIND_NAMES.len();

/// Count one quarantined fault at `stage` of `kind` (if telemetry is enabled).
#[inline]
pub fn record_fault(stage: FaultStage, kind: FaultKind) {
    with_tally(|tally| tally.faults[stage as usize][kind as usize] += 1);
}

// ---------------------------------------------------------------------------
// Capture & snapshot
// ---------------------------------------------------------------------------

/// Sets this thread's recording flag and tally, returning the ones they
/// replace: a capture or a shard swaps its own in, and back out when done.
fn swap_in(recording: bool, tally: SweepTelemetry) -> (bool, SweepTelemetry) {
    (RECORDING.replace(recording), TALLY.replace(tally))
}

/// Runs `work` as one shard of a sweep on this thread, recording exactly when
/// `recording` — the spawning thread's [`enabled`] — is set, into a fresh
/// tally. Returns the result and the shard's tally, which the spawning
/// thread folds into its own with [`absorb`].
pub fn shard<T>(recording: bool, work: impl FnOnce() -> T) -> (T, SweepTelemetry) {
    let (outer_recording, outer) = swap_in(recording, SweepTelemetry::fresh(recording));
    let out = work();
    (out, swap_in(outer_recording, outer).1)
}

/// Folds `part` — a tally returned by [`shard`] or a finished inner capture —
/// into this thread's tally, if this thread records. Counters, histograms,
/// phases and faults add; gauges keep the maximum.
pub fn absorb(part: &SweepTelemetry) {
    with_tally(|tally| tally.fold(part));
}

/// Telemetry capture around one sweep, owning the sweep's tally.
///
/// `begin(TelemetryMode::On)` swaps a fresh tally in on the calling thread,
/// enables recording there, and starts the [`Phase::Sweep`] timer;
/// [`SweepCapture::finish`] stops the timer, restores the thread's previous
/// flag and tally, folds the snapshot into that tally if it was recording
/// (an enclosing capture), and returns the snapshot. Dropping an unfinished
/// capture restores the same way. Captures on one thread nest; finish them
/// in reverse order of `begin`. A capture stays on the thread that began it
/// (it is not `Send`). `begin(TelemetryMode::Off)` is free: it touches
/// nothing, and `finish` returns a disabled snapshot.
pub struct SweepCapture {
    /// The flag and tally `begin` replaced, and the running sweep timer;
    /// `None` when off.
    active: Option<(bool, SweepTelemetry, PhaseSpan)>,
    /// Keeps the capture on the thread whose tally it installed.
    _not_send: PhantomData<*const ()>,
}

impl SweepCapture {
    /// Start a capture. With [`TelemetryMode::Off`] this is a no-op handle.
    pub fn begin(mode: TelemetryMode) -> Self {
        let active = (mode == TelemetryMode::On).then(|| {
            let (recording, outer) = swap_in(true, SweepTelemetry::fresh(true));
            (recording, outer, span(Phase::Sweep))
        });
        SweepCapture {
            active,
            _not_send: PhantomData,
        }
    }

    /// Stop recording and return the snapshot accumulated since `begin`.
    pub fn finish(mut self) -> SweepTelemetry {
        self.stop().unwrap_or_else(SweepTelemetry::disabled)
    }

    /// Stops the sweep timer, restores what `begin` replaced, and folds the
    /// snapshot into an enclosing capture; `None` for an off-mode capture.
    fn stop(&mut self) -> Option<SweepTelemetry> {
        let (recording, outer, sweep) = self.active.take()?;
        drop(sweep);
        let (_, snapshot) = swap_in(recording, outer);
        absorb(&snapshot);
        Some(snapshot)
    }
}

impl Drop for SweepCapture {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Every metric of one sweep: the tally a capture records into, and the
/// snapshot it returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTelemetry {
    /// Whether recording was enabled; a disabled snapshot is all zeros.
    pub enabled: bool,
    counters: [u64; COUNTER_NAMES.len()],
    gauges: [u64; GAUGE_NAMES.len()],
    histograms: [HistogramSnapshot; HISTOGRAM_NAMES.len()],
    phases: [PhaseSnapshot; PHASES.len()],
    faults: [[u64; FAULT_KINDS]; FAULT_STAGES],
}

impl SweepTelemetry {
    /// The snapshot returned when telemetry was off: all zeros, `enabled: false`.
    pub const fn disabled() -> Self {
        SweepTelemetry::fresh(false)
    }

    /// An all-zero tally.
    const fn fresh(enabled: bool) -> Self {
        SweepTelemetry {
            enabled,
            counters: [0; COUNTER_NAMES.len()],
            gauges: [0; GAUGE_NAMES.len()],
            histograms: [HistogramSnapshot::EMPTY; HISTOGRAM_NAMES.len()],
            phases: [PhaseSnapshot { count: 0, nanos: 0 }; PHASES.len()],
            faults: [[0; FAULT_KINDS]; FAULT_STAGES],
        }
    }

    /// Adds `part` into this tally: gauges keep the maximum, everything else
    /// adds.
    fn fold(&mut self, part: &SweepTelemetry) {
        fn add(totals: &mut [u64], part: &[u64]) {
            totals
                .iter_mut()
                .zip(part)
                .for_each(|(total, n)| *total += n);
        }
        add(&mut self.counters, &part.counters);
        for (peak, v) in self.gauges.iter_mut().zip(part.gauges) {
            *peak = (*peak).max(v);
        }
        for (h, p) in self.histograms.iter_mut().zip(&part.histograms) {
            add(&mut h.buckets, &p.buckets);
            h.count += p.count;
            h.sum += p.sum;
        }
        for (cell, p) in self.phases.iter_mut().zip(part.phases) {
            cell.count += p.count;
            cell.nanos += p.nanos;
        }
        add(self.faults.as_flattened_mut(), part.faults.as_flattened());
    }

    /// Value of the counter with this registry name. Panics on unknown names
    /// (they indicate a typo in test or tooling code, not runtime state).
    pub fn counter(&self, name: &str) -> u64 {
        match COUNTER_NAMES.iter().position(|n| *n == name) {
            Some(i) => self.counters[i],
            None => panic!("unknown telemetry counter {name:?}"),
        }
    }

    /// Value of the max gauge with this registry name.
    pub fn gauge(&self, name: &str) -> u64 {
        match GAUGE_NAMES.iter().position(|n| *n == name) {
            Some(i) => self.gauges[i],
            None => panic!("unknown telemetry gauge {name:?}"),
        }
    }

    /// Snapshot of the histogram with this registry name.
    pub fn histogram(&self, name: &str) -> &HistogramSnapshot {
        match HISTOGRAM_NAMES.iter().position(|n| *n == name) {
            Some(i) => &self.histograms[i],
            None => panic!("unknown telemetry histogram {name:?}"),
        }
    }

    /// Timing snapshot for a phase.
    pub fn phase(&self, phase: Phase) -> PhaseSnapshot {
        self.phases[phase as usize]
    }

    /// Quarantine fault count for one stage x kind cell.
    pub fn fault(&self, stage: FaultStage, kind: FaultKind) -> u64 {
        self.faults[stage as usize][kind as usize]
    }

    /// Total quarantine faults across the whole table.
    pub fn fault_total(&self) -> u64 {
        self.faults.iter().flatten().sum()
    }

    /// `(name, value)` pairs for every counter, in registry order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
    }

    /// `(name, value)` pairs for the order-independent counters only: the
    /// subset guaranteed identical across thread counts and lane widths for a
    /// given driver, program, and inputs.
    pub fn stable_counters(&self) -> Vec<(&'static str, u64)> {
        COUNTER_NAMES
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
            .zip(COUNTER_STABLE.iter().copied())
            .filter_map(|(pair, stable)| stable.then_some(pair))
            .collect()
    }

    /// Mean active lanes per dispatched batch instruction, if any batch passes
    /// ran. (A per-width utilization fraction is not recoverable once mixed
    /// widths run in one sweep, so the mean active-lane count is reported.)
    pub fn lane_utilization(&self) -> Option<f64> {
        let dispatches = self.counter("fpvm.batch_dispatches");
        let active = self.counter("fpvm.batch_active_lane_slots");
        (dispatches != 0).then(|| active as f64 / dispatches as f64)
    }

    /// Render the snapshot as an indented human-readable text section.
    /// Zero-valued metrics are omitted; a disabled snapshot says so.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("--- sweep telemetry ---\n");
        if !self.enabled {
            out.push_str("telemetry disabled (TelemetryMode::Off)\n");
            return out;
        }
        for (name, v) in self.counters() {
            if v != 0 {
                out.push_str(&format!("{name}: {v}\n"));
            }
        }
        for (name, v) in GAUGE_NAMES.iter().zip(self.gauges.iter()) {
            if *v != 0 {
                out.push_str(&format!("{name}: {v} (max)\n"));
            }
        }
        if let Some(mean_active) = self.lane_utilization() {
            out.push_str(&format!(
                "fpvm.mean_active_lanes_per_dispatch: {mean_active:.2}\n"
            ));
        }
        for (name, h) in HISTOGRAM_NAMES.iter().zip(self.histograms.iter()) {
            if h.count != 0 {
                let mean = h.mean().unwrap_or(0.0);
                out.push_str(&format!(
                    "{name}: count={} sum={} mean={mean:.1}\n",
                    h.count, h.sum
                ));
            }
        }
        for (name, p) in PHASE_NAMES.iter().zip(self.phases.iter()) {
            if p.count != 0 {
                out.push_str(&format!(
                    "phase.{name}: count={} total={:.3}ms\n",
                    p.count,
                    p.nanos as f64 / 1.0e6
                ));
            }
        }
        for (stage, row) in FAULT_STAGE_NAMES.iter().zip(self.faults.iter()) {
            for (kind, v) in FAULT_KIND_NAMES.iter().zip(row.iter()) {
                if *v != 0 {
                    out.push_str(&format!("quarantine.fault.{stage}.{kind}: {v}\n"));
                }
            }
        }
        out
    }

    /// Render the snapshot as the stable `herbgrind-sweep-telemetry` v1 JSON
    /// artifact: fixed key order (registry order), all metrics present even
    /// when zero, integers only. This is the schema CI validates.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"herbgrind-sweep-telemetry\",\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in GAUGE_NAMES.iter().zip(self.gauges.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {v}"));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in HISTOGRAM_NAMES
            .iter()
            .zip(self.histograms.iter())
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                h.count,
                h.sum,
                buckets.join(", ")
            ));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"phases\": {");
        for (i, (name, p)) in PHASE_NAMES.iter().zip(self.phases.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{name}\": {{\"count\": {}, \"nanos\": {}}}",
                p.count, p.nanos
            ));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"quarantine_faults\": {");
        for (i, (stage, row)) in FAULT_STAGE_NAMES.iter().zip(self.faults.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{stage}\": {{"));
            for (j, (kind, v)) in FAULT_KIND_NAMES.iter().zip(row.iter()).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{kind}\": {v}"));
            }
            out.push('}');
        }
        out.push_str("\n  }\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test that enables recording holds a SweepCapture on its own test
    // thread, so no two tests ever share a tally.

    #[test]
    fn disabled_by_default_and_sites_are_inert() {
        assert!(!enabled());
        FPVM_STEPS.add(17);
        INTERNER_PEAK_NODES.record(99);
        HIST_RUN_STEPS.observe(5);
        record_fault(FaultStage::Serial, FaultKind::Panic);
        let cap = SweepCapture::begin(TelemetryMode::On);
        let snap = cap.finish();
        assert_eq!(snap.counter("fpvm.steps"), 0);
        assert_eq!(snap.gauge("interner.peak_nodes"), 0);
        assert_eq!(snap.histogram("hist.run_steps").count, 0);
        assert_eq!(snap.fault_total(), 0);
    }

    #[test]
    fn capture_records_and_resets() {
        let cap = SweepCapture::begin(TelemetryMode::On);
        FPVM_STEPS.add(10);
        FPVM_STEPS.incr();
        SHADOW_DD_OPS.add(3);
        INTERNER_PEAK_NODES.record(7);
        INTERNER_PEAK_NODES.record(4);
        HIST_BATCH_GROUP_SIZE.observe(8);
        HIST_BATCH_GROUP_SIZE.observe(1);
        record_fault(FaultStage::BatchedLane, FaultKind::TraceBudget);
        {
            let _span = span(Phase::Certify);
        }
        let snap = cap.finish();
        assert!(snap.enabled);
        assert_eq!(snap.counter("fpvm.steps"), 11);
        assert_eq!(snap.counter("shadow.dd_ops"), 3);
        assert_eq!(snap.gauge("interner.peak_nodes"), 7);
        let h = snap.histogram("hist.batch_group_size");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 9);
        assert_eq!(h.buckets[hist_bucket(8)], 1);
        assert_eq!(h.buckets[hist_bucket(1)], 1);
        assert_eq!(
            snap.fault(FaultStage::BatchedLane, FaultKind::TraceBudget),
            1
        );
        assert_eq!(snap.fault_total(), 1);
        assert_eq!(snap.phase(Phase::Certify).count, 1);
        assert!(!enabled());

        // A fresh capture starts from zero.
        let cap = SweepCapture::begin(TelemetryMode::On);
        let snap = cap.finish();
        assert_eq!(snap.counter("fpvm.steps"), 0);
        assert_eq!(snap.fault_total(), 0);
    }

    #[test]
    fn off_capture_is_free_and_disabled_snapshot_is_zero() {
        let cap = SweepCapture::begin(TelemetryMode::Off);
        FPVM_STEPS.add(10_000);
        let snap = cap.finish();
        assert!(!snap.enabled);
        assert_eq!(snap.counter("fpvm.steps"), 0);
        assert_eq!(snap, SweepTelemetry::disabled());
    }

    #[test]
    fn nested_capture_folds_into_the_enclosing_one() {
        let outer = SweepCapture::begin(TelemetryMode::On);
        FPVM_STEPS.add(2);
        INTERNER_PEAK_NODES.record(3);
        let inner = SweepCapture::begin(TelemetryMode::On);
        FPVM_STEPS.add(5);
        INTERNER_PEAK_NODES.record(9);
        record_fault(FaultStage::Serial, FaultKind::Deadline);
        let inner = inner.finish();
        assert!(enabled());
        let outer = outer.finish();
        assert!(!enabled());
        assert_eq!(inner.counter("fpvm.steps"), 5);
        assert_eq!(inner.gauge("interner.peak_nodes"), 9);
        assert_eq!(outer.counter("fpvm.steps"), 7);
        assert_eq!(outer.gauge("interner.peak_nodes"), 9);
        assert_eq!(outer.fault(FaultStage::Serial, FaultKind::Deadline), 1);
        assert_eq!(inner.phase(Phase::Sweep).count, 1);
        assert_eq!(outer.phase(Phase::Sweep).count, 2);
    }

    #[test]
    fn shard_tallies_fold_into_the_spawning_capture() {
        let cap = SweepCapture::begin(TelemetryMode::On);
        FPVM_STEPS.add(1);
        let recording = enabled();
        let tallies: Vec<SweepTelemetry> = std::thread::scope(|scope| {
            let shards: Vec<_> = [4u64, 6]
                .into_iter()
                .map(|n| {
                    scope.spawn(move || {
                        shard(recording, || {
                            FPVM_STEPS.add(n);
                            INTERNER_PEAK_NODES.record(n);
                            HIST_RUN_STEPS.observe(n);
                        })
                        .1
                    })
                })
                .collect();
            shards.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(tallies[0].counter("fpvm.steps"), 4);
        for tally in &tallies {
            absorb(tally);
        }
        let snap = cap.finish();
        assert_eq!(snap.counter("fpvm.steps"), 11);
        assert_eq!(snap.gauge("interner.peak_nodes"), 6);
        assert_eq!(snap.histogram("hist.run_steps").sum, 10);

        // Outside a capture, a shard records nothing and absorbing is inert.
        let ((), idle) = shard(enabled(), || FPVM_STEPS.add(3));
        assert_eq!(idle, SweepTelemetry::disabled());
        absorb(&snap);
        TALLY.with(|tally| assert_eq!(*tally.borrow(), SweepTelemetry::disabled()));
    }

    #[test]
    fn hist_buckets_cover_ranges() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn registry_tables_line_up() {
        assert_eq!(COUNTER_NAMES.len(), COUNTER_STABLE.len());
        assert_eq!(PHASES.len(), PHASE_NAMES.len());
        // Names must be unique (they key the JSON objects).
        for names in [COUNTER_NAMES, GAUGE_NAMES, HISTOGRAM_NAMES, PHASE_NAMES] {
            let mut sorted: Vec<&str> = names.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len());
        }
    }

    #[test]
    fn json_contains_every_metric_and_schema_header() {
        let cap = SweepCapture::begin(TelemetryMode::On);
        FPVM_STEPS.add(42);
        let snap = cap.finish();
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"herbgrind-sweep-telemetry\""));
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"fpvm.steps\": 42"));
        for name in COUNTER_NAMES
            .iter()
            .chain(GAUGE_NAMES)
            .chain(HISTOGRAM_NAMES)
        {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
        for name in PHASE_NAMES
            .iter()
            .chain(FAULT_STAGE_NAMES)
            .chain(FAULT_KIND_NAMES)
        {
            assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
        }
    }

    #[test]
    fn stable_counters_subset_matches_flags() {
        let cap = SweepCapture::begin(TelemetryMode::On);
        let snap = cap.finish();
        let stable = snap.stable_counters();
        assert_eq!(stable.len(), COUNTER_STABLE.iter().filter(|s| **s).count());
        assert!(stable.iter().any(|(n, _)| *n == "fpvm.steps"));
        assert!(stable.iter().all(|(n, _)| *n != "fpvm.batch_passes"));
    }
}
