//! Zero-cost-when-off sweep telemetry.
//!
//! A dependency-free registry of atomic counters, max gauges, and coarse
//! log2-bucket histograms, plus RAII phase-timing spans, that every layer of
//! the analysis pipeline reports into: the `fpvm` interpreters, the batched
//! engine, the tiered driver, `shadowreal`, the expression interner, and the
//! quarantine machinery.
//!
//! # Cost model
//!
//! All metrics live in process-global statics. Recording is gated behind
//! [`enabled`]; while no capture is active (the default) every recording
//! site is one relaxed atomic load and one predictable branch, and the hot
//! interpreter loops batch their counts into plain locals that are flushed
//! once per run or per batch pass, so the off-mode overhead is not visible
//! on the committed `batch_sweep` baseline (CI asserts ≤2%).
//!
//! # Capture discipline
//!
//! A capture records the sweep it wraps and nothing else.
//! [`SweepCapture::begin`] with [`TelemetryMode::On`] takes a global lock,
//! zeroes every metric, starts timing [`Phase::Sweep`], and sets the
//! recording flag of the *calling thread*; [`SweepCapture::finish`] reads
//! everything into an owned [`SweepTelemetry`] snapshot and clears the flag.
//! Concurrent captures serialize on the lock. A driver that shards a sweep
//! across threads copies the flag into each ([`set_thread_enabled`]), so the
//! capture sees the whole sweep, while uncaptured sweeps on other threads
//! record nothing into it.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Whether a sweep records telemetry. The default is [`TelemetryMode::Off`],
/// under which every recording site reduces to one relaxed load and a
/// predictable branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No recording; [`SweepCapture::finish`] returns a disabled snapshot.
    #[default]
    Off,
    /// Record all metrics for the duration of the capture.
    On,
}

/// True while some thread holds an on-mode [`SweepCapture`].
static CAPTURING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// True while this thread records: inside a [`SweepCapture`] with
/// [`TelemetryMode::On`], or on a shard thread of the captured sweep.
///
/// This is the single gate every recording site checks. Outside captures it
/// is one relaxed load of a global (the thread's own flag is read only while
/// a capture is active), so the off path stays branch-predictable.
#[inline(always)]
pub fn enabled() -> bool {
    CAPTURING.load(Ordering::Relaxed) && RECORDING.with(Cell::get)
}

/// Sets this thread's recording flag: a sweep driver passes the spawning
/// thread's [`enabled`] to each shard thread it spawns.
pub fn set_thread_enabled(on: bool) {
    RECORDING.with(|flag| flag.set(on));
}

/// A monotonically increasing `u64` counter (also used as a sum gauge).
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` if telemetry is enabled. Call sites that already batched into a
    /// local should use this once per run/pass rather than per event.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() && n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one if telemetry is enabled.
    #[inline(always)]
    pub fn incr(&self) {
        if enabled() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A gauge that keeps the maximum value observed during the capture.
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    pub const fn new() -> Self {
        MaxGauge(AtomicU64::new(0))
    }

    /// Record `v`, keeping the capture-wide maximum, if telemetry is enabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for MaxGauge {
    fn default() -> Self {
        MaxGauge::new()
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
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation if telemetry is enabled.
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
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
        $(
            #[doc = $doc]
            pub static $ident: Counter = Counter::new();
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

        fn counter_refs() -> [&'static Counter; COUNTER_NAMES.len()] {
            [ $( &$ident ),* ]
        }
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
     "Inputs the serial engine re-ran after a faulted batched or tiered pass."),
    (QUARANTINE_LADDER_HEALS, "quarantine.ladder_heals", false,
     "Serially re-run inputs that came back clean (not quarantined)."),
    // Fault injection (test harness).
    (FAULTINJECT_FIRED, "faultinject.fired", false,
     "Injected fault sites that actually fired."),
}

macro_rules! declare_gauges {
    ($( ($ident:ident, $name:literal, $doc:literal) ),* $(,)?) => {
        $(
            #[doc = $doc]
            pub static $ident: MaxGauge = MaxGauge::new();
        )*
        /// Names of every registered max gauge, in registry order.
        pub const GAUGE_NAMES: &[&str] = &[ $($name),* ];
        fn gauge_refs() -> [&'static MaxGauge; GAUGE_NAMES.len()] {
            [ $( &$ident ),* ]
        }
    };
}

declare_gauges! {
    (INTERNER_PEAK_NODES, "interner.peak_nodes",
     "Largest interned-node count observed in any single analysis run."),
    (INTERNER_NODE_BUDGET, "interner.node_budget",
     "Configured trace-node budget (0 = unlimited); headroom = budget - peak."),
}

macro_rules! declare_histograms {
    ($( ($ident:ident, $name:literal, $doc:literal) ),* $(,)?) => {
        $(
            #[doc = $doc]
            pub static $ident: Histogram = Histogram::new();
        )*
        /// Names of every registered histogram, in registry order.
        pub const HISTOGRAM_NAMES: &[&str] = &[ $($name),* ];
        fn histogram_refs() -> [&'static Histogram; HISTOGRAM_NAMES.len()] {
            [ $( &$ident ),* ]
        }
    };
}

declare_histograms! {
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
    /// Tiered driver: certified DoubleDouble sweep segments.
    TierDoubleDouble,
    /// Tiered driver: escalated BigFloat sweep segments.
    TierBigFloat,
    /// Serial re-runs of faulted batched or tiered passes.
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

struct PhaseCell {
    count: Counter,
    nanos: Counter,
}

static PHASE_CELLS: [PhaseCell; 7] = [const {
    PhaseCell {
        count: Counter::new(),
        nanos: Counter::new(),
    }
}; 7];

/// RAII span that records one entry and its wall-clock duration for a phase.
/// Inert (no clock read) when telemetry is disabled at construction time.
pub struct PhaseSpan {
    start: Option<(Phase, Instant)>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some((phase, start)) = self.start.take() {
            let cell = &PHASE_CELLS[phase as usize];
            cell.count.add(1);
            cell.nanos.add(start.elapsed().as_nanos() as u64);
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
    Serial,
    ParallelShard,
    BatchedLane,
    TieredDoubleDouble,
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
    Panic,
    StepBudget,
    Deadline,
    TraceBudget,
    Other,
}

/// Stable names for [`FaultKind`], in discriminant order.
pub const FAULT_KIND_NAMES: &[&str] =
    &["panic", "step_budget", "deadline", "trace_budget", "other"];

const FAULT_STAGES: usize = FAULT_STAGE_NAMES.len();
const FAULT_KINDS: usize = FAULT_KIND_NAMES.len();

static FAULT_TABLE: [[Counter; FAULT_KINDS]; FAULT_STAGES] =
    [const { [const { Counter::new() }; FAULT_KINDS] }; FAULT_STAGES];

/// Count one quarantined fault at `stage` of `kind` (if telemetry is enabled).
#[inline]
pub fn record_fault(stage: FaultStage, kind: FaultKind) {
    FAULT_TABLE[stage as usize][kind as usize].incr();
}

// ---------------------------------------------------------------------------
// Capture & snapshot
// ---------------------------------------------------------------------------

static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

fn reset_all() {
    for c in counter_refs() {
        c.reset();
    }
    for g in gauge_refs() {
        g.reset();
    }
    for h in histogram_refs() {
        h.reset();
    }
    for cell in &PHASE_CELLS {
        cell.count.reset();
        cell.nanos.reset();
    }
    for row in &FAULT_TABLE {
        for c in row {
            c.reset();
        }
    }
}

/// Exclusive telemetry capture around one sweep.
///
/// `begin(TelemetryMode::On)` acquires the process-global capture lock, zeroes
/// the registry, starts the [`Phase::Sweep`] timer, and enables recording on
/// the calling thread; [`SweepCapture::finish`] stops the timer, snapshots the
/// registry into a [`SweepTelemetry`], and disables recording. Dropping an
/// unfinished capture also disables recording. `begin(TelemetryMode::Off)` is
/// free: no lock, no reset, and `finish` returns a disabled snapshot.
pub struct SweepCapture {
    /// The capture lock and the running sweep timer; `None` when off.
    active: Option<(MutexGuard<'static, ()>, PhaseSpan)>,
}

impl SweepCapture {
    /// Start a capture. With [`TelemetryMode::Off`] this is a no-op handle.
    pub fn begin(mode: TelemetryMode) -> Self {
        if mode == TelemetryMode::Off {
            return SweepCapture { active: None };
        }
        let guard = CAPTURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset_all();
        CAPTURING.store(true, Ordering::SeqCst);
        set_thread_enabled(true);
        SweepCapture {
            active: Some((guard, span(Phase::Sweep))),
        }
    }

    /// Stop recording and return the snapshot accumulated since `begin`.
    pub fn finish(mut self) -> SweepTelemetry {
        self.stop().unwrap_or_else(SweepTelemetry::disabled)
    }

    /// Stops the sweep timer and recording, and reads the registry before
    /// releasing the capture lock; `None` for an off-mode capture.
    fn stop(&mut self) -> Option<SweepTelemetry> {
        let (guard, sweep) = self.active.take()?;
        drop(sweep);
        set_thread_enabled(false);
        CAPTURING.store(false, Ordering::SeqCst);
        let snap = SweepTelemetry::read_registry();
        drop(guard);
        Some(snap)
    }
}

impl Drop for SweepCapture {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Owned snapshot of the full metric registry for one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTelemetry {
    /// Whether recording was enabled; a disabled snapshot is all zeros.
    pub enabled: bool,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    histograms: Vec<HistogramSnapshot>,
    phases: Vec<PhaseSnapshot>,
    faults: Vec<Vec<u64>>,
}

impl SweepTelemetry {
    /// The snapshot returned when telemetry was off: all zeros, `enabled: false`.
    pub fn disabled() -> Self {
        SweepTelemetry {
            enabled: false,
            counters: vec![0; COUNTER_NAMES.len()],
            gauges: vec![0; GAUGE_NAMES.len()],
            histograms: vec![HistogramSnapshot::default(); HISTOGRAM_NAMES.len()],
            phases: vec![PhaseSnapshot::default(); PHASE_NAMES.len()],
            faults: vec![vec![0; FAULT_KINDS]; FAULT_STAGES],
        }
    }

    fn read_registry() -> Self {
        SweepTelemetry {
            enabled: true,
            counters: counter_refs().iter().map(|c| c.get()).collect(),
            gauges: gauge_refs().iter().map(|g| g.get()).collect(),
            histograms: histogram_refs().iter().map(|h| h.snapshot()).collect(),
            phases: PHASE_CELLS
                .iter()
                .map(|cell| PhaseSnapshot {
                    count: cell.count.get(),
                    nanos: cell.nanos.get(),
                })
                .collect(),
            faults: FAULT_TABLE
                .iter()
                .map(|row| row.iter().map(|c| c.get()).collect())
                .collect(),
        }
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

    /// Render the snapshot as the stable machine-readable JSON artifact.
    /// See [`telemetry_to_json`].
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

/// Serialize a snapshot as the stable `herbgrind-sweep-telemetry` v1 JSON
/// artifact: fixed key order (registry order), all metrics present even when
/// zero, integers only. This is the schema CI validates.
pub fn telemetry_to_json(snapshot: &SweepTelemetry) -> String {
    snapshot.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test that enables recording must hold a SweepCapture, which
    // serializes them on the capture lock.

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
        assert_eq!(PHASE_CELLS.len(), PHASE_NAMES.len());
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
        let json = telemetry_to_json(&snap);
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
