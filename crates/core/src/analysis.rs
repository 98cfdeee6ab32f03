//! The Herbgrind analysis proper: a [`Tracer`] that maintains the shadow
//! state of Figure 3 and the per-statement records of Figure 4.
//!
//! # Hot-loop layout
//!
//! The per-operation path is deliberately free of hashing, cloning, and map
//! lookups (the dominant bookkeeping costs around the shadow arithmetic):
//!
//! * **Shadow memory** is a flat, address-indexed slot table
//!   (`Vec<ShadowSlot<R>>`) instead of a `HashMap<Addr, Shadow<R>>`. Each
//!   slot carries the run generation it was written in, so the per-run
//!   reset required by the paper's semantics (shadow memory is per-run
//!   state) is a single counter bump.
//! * **Operand shadows are borrowed, never cloned**: the exact values are
//!   passed to the shadow kernels as `&[&R]`
//!   ([`shadowreal::Real::apply_ref`]) and trace/influence data is read in
//!   place via split field borrows. Only the destination shadow is written.
//! * **Records** live in pc-indexed `Vec<Option<OpRecord>>` /
//!   `Vec<Option<SpotRecord>>` slot tables sized once per program, held in
//!   the analysis's [`AnalysisState`]. They are folded into ordered form
//!   only at [`AnalysisState::report`] / [`AnalysisState::merge`] time; since
//!   slot index order *is* ascending pc order, merged reports stay
//!   bit-identical to the serial ones.
//!
//! The retained map-based implementation lives in [`crate::reference`] and
//! is held bit-identical to this one by the equivalence test suite.

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use crate::config::AnalysisConfig;
use crate::localerr::{local_error_ref, total_error};
use crate::quarantine::{fail_fast, serial_family, SweepStage};
use crate::records::{InfluenceSet, OpRecord, SpotKind, SpotRecord};
use crate::report::Report;
use crate::trace::{ConcreteExpr, ExprInterner, TraceChildren};
use fpcore::CmpOp;
use fpvm::{Addr, MachineError, Program, SourceLoc, Tracer, Value, MAX_ARITY};
use shadowreal::{BigFloat, Real, RealOp, MAX_ERROR_BITS};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The shadow of one memory location: its exact value, the concrete
/// expression that produced it, and the candidate root causes that influenced
/// it (the three shadow memories `M_R`, `M_E`, `M_I` of Figure 3).
#[derive(Clone, Debug)]
struct Shadow<R> {
    real: R,
    expr: Arc<ConcreteExpr>,
    influences: InfluenceSet,
}

/// One address's entry in the flat shadow table, stamped with the run
/// generation that wrote it. A slot whose stamp does not match the current
/// generation is stale state from an earlier input and reads as absent;
/// a matching stamp with `shadow: None` records an explicit invalidation
/// (integer constants, float→int destinations).
#[derive(Debug)]
struct ShadowSlot<R> {
    gen: u64,
    shadow: Option<Shadow<R>>,
}

impl<R> Default for ShadowSlot<R> {
    fn default() -> Self {
        ShadowSlot {
            gen: 0,
            shadow: None,
        }
    }
}

/// Reads the shadow for `addr` if the current run wrote one.
fn shadow_at<R>(slots: &[ShadowSlot<R>], gen: u64, addr: Addr) -> Option<&Shadow<R>> {
    slots
        .get(addr)
        .filter(|slot| slot.gen == gen)
        .and_then(|slot| slot.shadow.as_ref())
}

/// Writes (or invalidates, with `None`) the shadow for `addr`, growing the
/// table on the cold path so the analysis stays correct even for statements
/// beyond the address space announced at `on_start`.
fn put_shadow<R>(slots: &mut Vec<ShadowSlot<R>>, gen: u64, addr: Addr, shadow: Option<Shadow<R>>) {
    if addr >= slots.len() {
        slots.resize_with(addr + 1, ShadowSlot::default);
    }
    let slot = &mut slots[addr];
    slot.gen = gen;
    slot.shadow = shadow;
}

/// Makes sure `addr` has a shadow for the current run (the lazy shadowing of
/// §6), creating a leaf shadow through the supplied interner — the caller
/// decides whether that is the shard's own table or a batched group's shared
/// one.
fn ensure_shadow_inner<R: Real>(
    shadow_slots: &mut Vec<ShadowSlot<R>>,
    gen: u64,
    interner: &mut ExprInterner,
    config: &AnalysisConfig,
    addr: Addr,
    client_value: f64,
) {
    if addr >= shadow_slots.len() {
        shadow_slots.resize_with(addr + 1, ShadowSlot::default);
    }
    let slot = &shadow_slots[addr];
    if slot.gen == gen && slot.shadow.is_some() {
        return;
    }
    let fresh = Shadow {
        real: R::from_f64_prec(client_value, config.shadow_precision),
        expr: interner.leaf(client_value),
        influences: InfluenceSet::new(),
    };
    let slot = &mut shadow_slots[addr];
    slot.gen = gen;
    slot.shadow = Some(fresh);
}

/// The traces of the current run's shadows of `args`, in operand order
/// (slots past `args.len()` repeat the first operand). Every operand must
/// already have a shadow ([`Herbgrind::ensure_shadow`]).
fn operand_traces<'a, R>(
    shadow_slots: &'a [ShadowSlot<R>],
    gen: u64,
    args: &[Addr],
) -> [&'a Arc<ConcreteExpr>; MAX_ARITY] {
    let first = shadow_at(shadow_slots, gen, args[0]).expect("operand shadow populated");
    let mut traces = [&first.expr; MAX_ARITY];
    for (slot, &addr) in traces.iter_mut().zip(args) {
        *slot = &shadow_at(shadow_slots, gen, addr)
            .expect("operand shadow populated")
            .expr;
    }
    traces
}

/// Builds the hash-consed concrete expression for one compute result over
/// its operand traces, so repeated subtraces share one allocation.
///
/// Stored traces are depth-bounded with hysteresis: the reported bound is
/// `max_expression_depth` (D), but shadow memory keeps traces up to 4D deep
/// and truncates back to D only when that storage bound overflows.
/// Truncating a deep trace is O(tree) — done per operation (as the reference
/// path does) it dominates loop-carried chains; done on overflow every ≥3D
/// operations it amortizes to O(tree/D) per operation, while memory stays
/// bounded by the 4D storage depth. Records observe the trace through a
/// depth budget ([`OpRecord::record_bounded`]), which reads nodes beyond D
/// as value leaves — bit-identical to truncating first, because truncation
/// preserves every value, operation, and location above the cut.
pub(crate) fn build_compute_trace(
    config: &AnalysisConfig,
    interner: &mut ExprInterner,
    location: &Arc<SourceLoc>,
    pc: usize,
    op: RealOp,
    children: &[&Arc<ConcreteExpr>],
    result: f64,
) -> Arc<ConcreteExpr> {
    let max_depth = config.max_expression_depth;
    let depth = 1 + children.iter().map(|c| c.depth()).max().unwrap_or(0);
    if depth <= intern_depth_bound(config) {
        return interner.node_ref(op, result, children, pc, location);
    }
    let node = ConcreteExpr::node(
        op,
        result,
        TraceChildren::from_refs(children),
        pc,
        Arc::clone(location),
    );
    if depth <= max_depth.saturating_mul(4) {
        node
    } else {
        node.truncate_to_depth(max_depth)
    }
}

/// The depth up to which result nodes are worth hash-consing. A node can
/// only be a table hit when the same statement re-executes with the same
/// value **and** the same operand allocations — repeating, loop-invariant
/// subcomputations, which are structurally shallow. Loop-*carried* chains
/// deepen every iteration with fresh values, so their nodes never hit; the
/// anti-unification's bounded equivalence walks subtrees only to the
/// configured depth anyway, so sharing beyond about twice that bound buys
/// nothing — while hashing, probing, and inserting every chain node was
/// measurable overhead on loop-heavy programs. The bound affects sharing
/// only, never analysis output.
pub(crate) fn intern_depth_bound(config: &AnalysisConfig) -> usize {
    config
        .antiunify_equivalence_depth
        .saturating_mul(2)
        .min(config.max_expression_depth.saturating_mul(4))
}

/// The telemetry counter attributing analyzed operations to this shadow
/// representation ([`Real::kind_name`]). Resolves to a constant reference
/// per monomorphization; any out-of-tree shadow kind counts as BigFloat
/// (the only other in-tree escalation tier).
#[inline]
pub(crate) fn shadow_ops_counter<R: Real>() -> &'static telemetry::Counter {
    match R::kind_name() {
        "f64" => &telemetry::SHADOW_F64_OPS,
        "dd" => &telemetry::SHADOW_DD_OPS,
        _ => &telemetry::SHADOW_BIGFLOAT_OPS,
    }
}

/// Grows a pc-indexed record slot table to cover `pc` and returns the slot
/// (cold path; `on_start` pre-sizes the tables to the program length).
fn record_slot<T>(slots: &mut Vec<Option<T>>, pc: usize) -> &mut Option<T> {
    if pc >= slots.len() {
        slots.resize_with(pc + 1, || None);
    }
    &mut slots[pc]
}

/// Splits `items` into at most `parts` contiguous chunks whose lengths
/// differ by at most one: the first `len % parts` chunks carry the extra
/// element. Every chunk is non-empty (an empty input yields one empty
/// chunk), so every worker (thread shard or SIMD
/// lane) gets work whenever there are at least `parts` items. The previous
/// `chunks(len.div_ceil(parts))` scheme produced *fewer* chunks than workers
/// whenever the length was not a near-multiple of the count — 9 inputs for 8
/// lanes made chunks of `[2, 2, 2, 2, 1]` and idled 3 workers. Chunks stay
/// contiguous and in input order, so merging them in chunk order remains the
/// bit-identical in-input-order merge the drivers rely on.
pub(crate) fn balanced_chunks<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.clamp(1, items.len().max(1));
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        chunks.push(&items[start..start + len]);
        start += len;
    }
    debug_assert_eq!(start, items.len());
    chunks
}

/// Detects a compensating addition or subtraction (§5.3): the operation
/// returns one of its arguments exactly in the reals, and its output has
/// less error than that passed-through argument. Returns the index of the
/// passed-through argument.
fn detect_compensation<R: Real>(
    config: &AnalysisConfig,
    op: RealOp,
    exact_args: &[&R],
    arg_values: &[f64],
    exact_result: &R,
    client_result: f64,
) -> Option<usize> {
    if !config.detect_compensation || !matches!(op, RealOp::Add | RealOp::Sub) {
        return None;
    }
    for (i, exact_arg) in exact_args.iter().enumerate() {
        let passes_through = if op == RealOp::Sub && i == 1 {
            // a - b returns (the negation of) b only when a is zero;
            // treat only the first argument as a pass-through candidate
            // for subtraction.
            false
        } else {
            exact_result.eq_value(exact_arg)
        };
        if !passes_through {
            continue;
        }
        let output_error = total_error(client_result, exact_result);
        let arg_error = total_error(arg_values[i], *exact_arg);
        if output_error <= arg_error {
            return Some(i);
        }
    }
    None
}

/// The Herbgrind dynamic analysis, generic over the shadow-real
/// representation.
///
/// Attach it to a machine run with [`fpvm::Machine::run_traced`], or use the
/// [`analyze`] driver. Records accumulate across runs, so one `Herbgrind`
/// value can observe a whole input sweep; shadow memory is reset per run
/// (by generation stamp, in O(1)). The slot tables and the interner's hash
/// tables are allocated once and reused across the sweep, so an N-input run
/// does O(program) setup rather than O(N × program).
#[derive(Debug)]
pub struct Herbgrind<R: Real> {
    /// The configuration, the per-statement records and the run counters:
    /// everything that outlives shadow memory. Merging and reporting go
    /// through it, so one implementation serves every driver.
    state: AnalysisState,
    shadow_slots: Vec<ShadowSlot<R>>,
    shadow_gen: u64,
    /// Per-shard hash-consing table for trace nodes: repeated subtraces
    /// share one allocation, and anti-unification hits pointer-identity
    /// fast paths. Per-run state like the shadow slots (cleared by
    /// `on_start`).
    interner: ExprInterner,
    /// An analysis-side fault (trace-budget exhaustion, injected failure)
    /// awaiting delivery through the interpreter's per-step
    /// [`Tracer::fault`] poll, which aborts the run with it.
    pending_fault: Option<MachineError>,
    /// Fault-injection context for the current run: the global input index
    /// and the pipeline stage, consulted against the installed
    /// [`crate::faultinject`] plan on every compute observation.
    #[cfg(feature = "fault-injection")]
    inject: Option<(usize, crate::faultinject::InjectStage)>,
    /// Tier-0 static prune mask: compute statements certified stable by the
    /// static error-dataflow pass ([`staticerr`]) skip shadow arithmetic
    /// entirely. Installed only by the tiered driver, and only for sweeps
    /// whose every input lies inside the statically declared region — every
    /// other driver leaves it `None` and behaves exactly as before.
    prune: Option<Arc<staticerr::PruneMask>>,
}

impl<R: Real> Herbgrind<R> {
    /// Creates an analysis with the given configuration. The configuration
    /// is normalized ([`AnalysisConfig::normalize`]) so invariant-violating
    /// struct literals (e.g. `max_expression_depth: 0`, which the builder
    /// clamps but a literal can bypass) cannot reach the analysis.
    pub fn new(config: AnalysisConfig) -> Herbgrind<R> {
        telemetry::INTERNER_NODE_BUDGET.record(config.trace_node_budget as u64);
        Herbgrind {
            state: AnalysisState::empty(config.normalize()),
            shadow_slots: Vec::new(),
            shadow_gen: 0,
            interner: ExprInterner::new(),
            pending_fault: None,
            #[cfg(feature = "fault-injection")]
            inject: None,
            prune: None,
        }
    }

    /// Installs (or clears) the tier-0 static prune mask consulted by every
    /// compute observation. Callers are responsible for only installing a
    /// mask whose declared input region covers the inputs about to run —
    /// the tiered driver arms it only when the region covers its whole
    /// sweep.
    pub(crate) fn set_prune_mask(&mut self, mask: Option<Arc<staticerr::PruneMask>>) {
        self.prune = mask;
    }

    /// Observes a statically pruned compute. The operation record is still
    /// created (report totals count operations by record *existence*, and a
    /// certified statement's record never becomes erroneous, so an empty
    /// record is report-identical to a fully-populated clean one), and the
    /// destination shadow is invalidated so any downstream consumer lazily
    /// recreates a leaf from the client double — the certification margin
    /// guarantees that leaf is within the statically bounded drift of the
    /// exact value, and the prune mask's poison fixpoint guarantees the
    /// substitution is invisible in the report.
    pub(crate) fn on_pruned_compute(&mut self, pc: usize, op: RealOp, dest: Addr) {
        self.state.op_record(pc, op);
        put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, None);
    }

    /// Arms deterministic fault injection for the next run with the
    /// sweep-global index of the input about to run and the pipeline stage
    /// executing it, or disarms it with `None` (an idle batch lane, an
    /// unarmed sweep). Consulted by every compute observation against the
    /// installed [`crate::faultinject`] plan.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn arm_injection(&mut self, site: Option<(usize, crate::faultinject::InjectStage)>) {
        self.inject = site;
    }

    /// Consults the installed fault plan for the current (input, pc, stage)
    /// site. Panics for injected panics, latches budget faults into
    /// [`Herbgrind::pending_fault`], and returns `true` when the exact
    /// shadow result should be NaN-poisoned.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn consult_injection(&mut self, pc: usize) -> bool {
        use crate::faultinject::{self, InjectKind, InjectStage};
        let Some((input_index, stage)) = self.inject else {
            return false;
        };
        match faultinject::query(input_index, pc, stage) {
            Some(InjectKind::Panic) => {
                panic!("injected analysis panic: input {input_index}, pc {pc}")
            }
            Some(InjectKind::StepBudget) => {
                self.pending_fault = Some(MachineError::StepBudgetExceeded {
                    limit: self.state.config.step_limit,
                });
                false
            }
            Some(InjectKind::Deadline) => {
                self.pending_fault = Some(MachineError::DeadlineExceeded {
                    millis: self.state.config.deadline_millis.max(1),
                });
                false
            }
            Some(InjectKind::TraceBudget) => {
                self.pending_fault = Some(MachineError::TraceBudgetExceeded {
                    limit: self.state.config.trace_node_budget.max(1),
                });
                false
            }
            // Poisoning is defined for the serial stages only, like in the
            // batched tracer: a serial re-run of a faulted batched or tiered
            // pass must not poison what the lane pass would not have.
            Some(InjectKind::NanPoison) => {
                matches!(stage, InjectStage::Serial | InjectStage::Parallel)
            }
            Some(InjectKind::TierEscalation) => {
                // Modeled as the escalation tier itself failing: the
                // BigFloat tier panics, so the input is quarantined.
                if stage == InjectStage::TieredBigFloat {
                    panic!("injected tier-escalation failure: input {input_index}, pc {pc}")
                }
                false
            }
            None => false,
        }
    }

    /// Creates a shadow leaf for a client value at the configured shadow
    /// precision. Precision is carried by the analysis, not by process-global
    /// state: binary operations propagate the larger operand precision, so
    /// seeding every leaf is enough, and two concurrent analyses with
    /// different [`AnalysisConfig::shadow_precision`] values cannot corrupt
    /// each other.
    fn shadow_leaf(&self, value: f64) -> R {
        R::from_f64_prec(value, self.state.config.shadow_precision)
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.state.config
    }

    /// The number of runs observed so far.
    pub fn runs(&self) -> u64 {
        self.state.runs
    }

    /// The number of compensating operations whose influence was suppressed
    /// (§5.3 / §8.3).
    pub fn compensations_detected(&self) -> u64 {
        self.state.compensations_detected
    }

    /// The number of control-flow divergences between the float and shadow
    /// executions.
    pub fn branch_divergences(&self) -> u64 {
        self.state.branch_divergences
    }

    /// Per-statement operation records (candidate root causes and their
    /// symbolic expressions), assembled on demand from the pc-indexed slot
    /// table.
    pub fn op_records(&self) -> BTreeMap<usize, &OpRecord> {
        self.state
            .op_slots
            .iter()
            .enumerate()
            .filter_map(|(pc, slot)| slot.as_ref().map(|record| (pc, record)))
            .collect()
    }

    /// Per-statement spot records, assembled on demand from the pc-indexed
    /// slot table.
    pub fn spot_records(&self) -> BTreeMap<usize, &SpotRecord> {
        self.state
            .spot_slots
            .iter()
            .enumerate()
            .filter_map(|(pc, slot)| slot.as_ref().map(|record| (pc, record)))
            .collect()
    }

    /// Makes sure `addr` has a shadow for the current run, creating a leaf
    /// shadow from the client value when the location has never been written
    /// by a tracked float operation (the lazy shadowing of §6). Unlike the
    /// reference implementation's `shadow_of`, nothing is cloned: callers
    /// read the populated slot by reference afterwards.
    pub(crate) fn ensure_shadow(&mut self, addr: Addr, client_value: f64) {
        let Herbgrind {
            state,
            shadow_slots,
            shadow_gen,
            interner,
            ..
        } = self;
        ensure_shadow_inner(
            shadow_slots,
            *shadow_gen,
            interner,
            &state.config,
            addr,
            client_value,
        );
    }

    /// [`Herbgrind::ensure_shadow`] with the leaf interner supplied by the
    /// caller: the batched analysis shares one group-level interner across
    /// all lane shards, so leaves with identical values are pointer-shared
    /// between lanes, and so are the result nodes built over them. (Where a
    /// leaf's allocation comes from is invisible to the analysis output.)
    pub(crate) fn ensure_shadow_in(
        &mut self,
        interner: &mut ExprInterner,
        addr: Addr,
        client_value: f64,
    ) {
        let Herbgrind {
            state,
            shadow_slots,
            shadow_gen,
            ..
        } = self;
        ensure_shadow_inner(
            shadow_slots,
            *shadow_gen,
            interner,
            &state.config,
            addr,
            client_value,
        );
    }

    /// Writes a constant-leaf shadow (the serial `on_const_f` effect) with a
    /// caller-supplied trace leaf — the batched analysis builds the leaf once
    /// per group and shares it across the group's lanes.
    pub(crate) fn set_const_shadow(&mut self, dest: Addr, value: f64, expr: Arc<ConcreteExpr>) {
        let shadow = Shadow {
            real: self.shadow_leaf(value),
            expr,
            influences: InfluenceSet::new(),
        };
        put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, Some(shadow));
    }

    /// The statement's interned source location (for the batched analysis's
    /// group trace construction; identical across lane shards).
    pub(crate) fn location(&self, pc: usize) -> &Arc<SourceLoc> {
        &self.state.locations[pc]
    }

    /// The local error of `op` on the current operand shadows (Figure 4),
    /// with the exact result: [`local_error_ref`] over the populated slots
    /// ([`Herbgrind::ensure_shadow`]).
    pub(crate) fn local_error(&self, op: RealOp, args: &[Addr]) -> (f64, R) {
        let first = shadow_at(&self.shadow_slots, self.shadow_gen, args[0])
            .expect("operand shadow populated");
        let mut exact_refs: [&R; MAX_ARITY] = [&first.real; MAX_ARITY];
        for (slot, &addr) in exact_refs.iter_mut().zip(args) {
            *slot = &shadow_at(&self.shadow_slots, self.shadow_gen, addr)
                .expect("operand shadow populated")
                .real;
        }
        local_error_ref(op, &exact_refs[..args.len()])
    }

    /// The traces of the operands' current shadows, for the batched
    /// analysis's result-node construction (see [`build_compute_trace`]).
    pub(crate) fn operand_traces(&self, args: &[Addr]) -> [&Arc<ConcreteExpr>; MAX_ARITY] {
        operand_traces(&self.shadow_slots, self.shadow_gen, args)
    }

    /// The tail of a compute observation, with the exact evaluation and the
    /// result trace already done: compensation detection (§5.3), influence
    /// propagation, the destination-shadow write and the record update.
    /// The serial `Tracer::on_compute` and the batched analysis's per-lane
    /// step both end here; they differ only in which interner built `node`.
    ///
    /// Every operand must already have a shadow for the current run
    /// ([`Herbgrind::ensure_shadow`]), and `local_err`/`exact_result` must be
    /// exactly what [`Herbgrind::local_error`] computes on those operand
    /// shadows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_compute(
        &mut self,
        pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        arg_values: &[f64],
        result: f64,
        local_err: f64,
        exact_result: R,
        node: Arc<ConcreteExpr>,
    ) {
        shadow_ops_counter::<R>().incr();
        // Split field borrows: operand shadows stay borrowed from the slot
        // table while influences accumulate; only the destination is written.
        let Herbgrind {
            state,
            shadow_slots,
            shadow_gen,
            ..
        } = self;
        let gen = *shadow_gen;
        let n = args.len();

        let first = shadow_at(shadow_slots, gen, args[0]).expect("operand shadow populated");
        let mut exact_refs: [&R; MAX_ARITY] = [&first.real; MAX_ARITY];
        let mut influences = InfluenceSet::new();
        for (i, &addr) in args.iter().enumerate() {
            let shadow = shadow_at(shadow_slots, gen, addr).expect("operand shadow populated");
            exact_refs[i] = &shadow.real;
            influences.union_with(&shadow.influences);
        }
        let erroneous = local_err > state.config.local_error_threshold;

        // Compensation detection (§5.3): the compensating term's influences
        // are not propagated, and the compensated operation is not itself
        // reported as a candidate root cause.
        let compensation = detect_compensation(
            &state.config,
            op,
            &exact_refs[..n],
            arg_values,
            &exact_result,
            result,
        );
        if let Some(passthrough_index) = compensation {
            state.compensations_detected += 1;
            influences.clear();
            let shadow = shadow_at(shadow_slots, gen, args[passthrough_index])
                .expect("operand shadow populated");
            influences.union_with(&shadow.influences);
        } else {
            if erroneous {
                influences.insert(pc);
            }
            let (record, config) = state.op_record(pc, op);
            record.record_bounded(
                &node,
                config.max_expression_depth,
                local_err,
                erroneous,
                config,
            );
        }

        // Update the destination shadow (the only slot written).
        put_shadow(
            shadow_slots,
            gen,
            dest,
            Some(Shadow {
                real: exact_result,
                expr: node,
                influences,
            }),
        );
    }

    /// Merges the state of a later input shard into this one.
    ///
    /// Run sharding is clean because shadow memory is per-run state (reset by
    /// [`Tracer::on_start`]) while the per-statement records accumulate with
    /// counts, exact sums, maxima, set unions, and anti-unification — all of
    /// which combine associatively. Merging the shards of a sweep in input
    /// order ([`AnalysisState::merge`]) therefore reproduces, bit for bit,
    /// the records a single analysis accumulates over the whole sweep.
    pub fn merge(&mut self, other: Herbgrind<R>) {
        // Interners are consulted only mid-run — at merge time both tables
        // are dead weight, so release them instead of unioning shard trace
        // nodes into memory nothing will read. (Interning never affects
        // analysis output, so this cannot perturb the bit-identical merge
        // contract.)
        self.interner.clear();
        self.state.merge(other.state);
    }

    /// Produces the final report ([`AnalysisState::report`]).
    pub fn report(&self) -> Report {
        self.state.report()
    }

    /// Extracts the accumulated analysis results, dropping the shadow-real
    /// state. The returned [`AnalysisState`] carries no trace of which
    /// shadow representation produced it.
    pub fn into_state(self) -> AnalysisState {
        self.state
    }

    /// Exchanges record states with an analysis on another shadow type, in
    /// O(1). The tiered driver ([`crate::tiered::analyze_tiered`]) hands one
    /// sweep's records back and forth this way, so `DoubleDouble`-tier and
    /// `BigFloat`-tier runs accumulate into one state in input order.
    pub(crate) fn swap_state<S: Real>(&mut self, other: &mut Herbgrind<S>) {
        std::mem::swap(&mut self.state, &mut other.state);
    }
}

/// The shadow-type-independent results of an analysis sweep: the
/// per-statement record tables and counters of a [`Herbgrind`], without the
/// shadow memory or the shadow-real type parameter.
///
/// Nothing in it depends on the shadow representation, so one state can
/// accumulate runs on different shadows: the tiered analysis runs certified
/// inputs on the `DoubleDouble` shadow and the rest on [`BigFloat`], handing
/// one state between the two analyses in input order. States of contiguous
/// shards combine associatively and index-wise ([`AnalysisState::merge`]).
#[derive(Debug)]
pub struct AnalysisState {
    config: AnalysisConfig,
    op_slots: Vec<Option<OpRecord>>,
    spot_slots: Vec<Option<SpotRecord>>,
    /// Interned per-statement locations, one per statement of the program
    /// (a statement without one gets the default location): every trace
    /// node built for a statement shares its `Arc` instead of cloning the
    /// location's strings.
    locations: Vec<Arc<SourceLoc>>,
    program_name: String,
    runs: u64,
    compensations_detected: u64,
    branch_divergences: u64,
}

impl AnalysisState {
    /// An empty state (no runs observed), for seeding a merge fold.
    pub fn empty(config: AnalysisConfig) -> AnalysisState {
        AnalysisState {
            config,
            op_slots: Vec::new(),
            spot_slots: Vec::new(),
            locations: Vec::new(),
            program_name: String::new(),
            runs: 0,
            compensations_detected: 0,
            branch_divergences: 0,
        }
    }

    /// The number of runs folded into this state.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The operation record slot for `pc`, created on first use, together
    /// with the configuration records are updated under.
    fn op_record(&mut self, pc: usize, op: RealOp) -> (&mut OpRecord, &AnalysisConfig) {
        let AnalysisState {
            config,
            op_slots,
            locations,
            ..
        } = self;
        let record = record_slot(op_slots, pc)
            .get_or_insert_with(|| OpRecord::new(op, locations[pc].as_ref().clone(), config));
        (record, config)
    }

    /// Merges a later input shard's state into this one. The slot tables are
    /// merged index-wise, which is exactly ascending-pc order, so chaining
    /// per-shard states in input order reproduces the records of one
    /// continuous sweep bit for bit; the parallel, batched and tiered drivers
    /// are built on this, and the determinism suites check it end to end.
    pub fn merge(&mut self, other: AnalysisState) {
        if self.locations.is_empty() {
            self.locations = other.locations;
            self.program_name = other.program_name;
        }
        self.runs += other.runs;
        self.compensations_detected += other.compensations_detected;
        self.branch_divergences += other.branch_divergences;
        let config = &self.config;
        merge_slots(&mut self.op_slots, other.op_slots, |mine, theirs| {
            mine.merge(&theirs, config)
        });
        merge_slots(&mut self.spot_slots, other.spot_slots, |mine, theirs| {
            mine.merge(&theirs)
        });
    }

    /// Produces the final report. The slot tables are folded into ordered
    /// form here — the only place order matters — rather than on every
    /// operation.
    pub fn report(&self) -> Report {
        Report::build(
            &self.program_name,
            &self.config,
            self.op_slots
                .iter()
                .enumerate()
                .filter_map(|(pc, slot)| slot.as_ref().map(|record| (pc, record))),
            self.spot_slots
                .iter()
                .enumerate()
                .filter_map(|(pc, slot)| slot.as_ref().map(|record| (pc, record))),
            self.runs,
            self.compensations_detected,
            self.branch_divergences,
        )
    }
}

/// Folds a later shard's pc-indexed record slots into `slots`, index by
/// index. Into an empty table that fold is the later table itself, so it is
/// adopted without touching its records.
fn merge_slots<T>(slots: &mut Vec<Option<T>>, other: Vec<Option<T>>, merge: impl Fn(&mut T, T)) {
    if slots.is_empty() {
        *slots = other;
        return;
    }
    if slots.len() < other.len() {
        slots.resize_with(other.len(), || None);
    }
    for (slot, record) in slots.iter_mut().zip(other) {
        match (slot.as_mut(), record) {
            (Some(mine), Some(theirs)) => merge(mine, theirs),
            (None, theirs @ Some(_)) => *slot = theirs,
            (_, None) => {}
        }
    }
}

impl<R: Real> Tracer for Herbgrind<R> {
    fn on_start(&mut self, program: &Program, _args: &[f64]) {
        // Shadow memory and the trace interner are per-run (machine memory
        // is reinitialized); the per-statement records persist across runs.
        // The shadow reset is a generation bump — O(1), no drops, no
        // rehashing — and the slot tables keep their allocations across the
        // whole sweep. (Retaining the interner across runs was tried and
        // lost: truncation cycles break pointer-keyed sharing after the
        // first storage-bound overflow, so cross-run hits are rare while
        // every probe walks a colder, ever-growing table.)
        self.shadow_gen += 1;
        if self.shadow_slots.len() < program.num_addrs {
            self.shadow_slots
                .resize_with(program.num_addrs, ShadowSlot::default);
        }
        self.interner.clear();
        self.pending_fault = None;
        let state = &mut self.state;
        if state.op_slots.len() < program.len() {
            state.op_slots.resize_with(program.len(), || None);
        }
        if state.spot_slots.len() < program.len() {
            state.spot_slots.resize_with(program.len(), || None);
        }
        if state.locations.is_empty() {
            state.locations = (0..program.len())
                .map(|pc| Arc::new(program.location(pc).clone()))
                .collect();
            state.program_name = program.name.clone();
        }
        state.runs += 1;
    }

    fn on_const_f(&mut self, _pc: usize, dest: Addr, value: f64) {
        let shadow = Shadow {
            real: self.shadow_leaf(value),
            expr: self.interner.leaf(value),
            influences: InfluenceSet::new(),
        };
        put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, Some(shadow));
    }

    fn on_const_i(&mut self, _pc: usize, dest: Addr, _value: i64) {
        put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, None);
    }

    fn on_copy(&mut self, _pc: usize, dest: Addr, src: Addr, value: Value) {
        // Copies share the shadow value (§6 "Sharing"); copying a location we
        // never shadowed lazily creates a leaf shadow for float values. One
        // construction and at most one clone per copy — the reference path
        // built the leaf, cloned it into the map, and cloned it again.
        if let Some(shadow) = shadow_at(&self.shadow_slots, self.shadow_gen, src) {
            let shared = shadow.clone();
            put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, Some(shared));
        } else if let Value::F(v) = value {
            self.ensure_shadow(src, v);
            let shared = shadow_at(&self.shadow_slots, self.shadow_gen, src)
                .expect("populated above")
                .clone();
            put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, Some(shared));
        } else {
            put_shadow(&mut self.shadow_slots, self.shadow_gen, dest, None);
        }
    }

    fn on_compute(
        &mut self,
        pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        arg_values: &[f64],
        result: f64,
    ) {
        // Deterministic fault injection: consult the installed plan for this
        // (input, pc, stage) site before any analysis work, so an injected
        // panic models a shadow-op failure at exactly this statement.
        #[cfg(feature = "fault-injection")]
        let poison = self.consult_injection(pc);
        // Tier 0: a statement certified stable by the static pass skips
        // shadow arithmetic entirely (after the injection consult, so
        // injected faults still fire at pruned sites).
        if self.prune.as_ref().is_some_and(|m| m.is_pruned(pc)) {
            telemetry::TIER0_PRUNED_EXECUTIONS.incr();
            self.on_pruned_compute(pc, op, dest);
            return;
        }
        // Make sure every operand has a shadow (creating leaf shadows
        // lazily); afterwards the hot path reads them by reference only.
        for (&addr, &value) in args.iter().zip(arg_values) {
            self.ensure_shadow(addr, value);
        }

        // Local error of this operation on exact inputs (Figure 4).
        #[allow(unused_mut)]
        let (mut local_err, mut exact_result) = self.local_error(op, args);
        // NaN poisoning replaces the exact shadow result — modeling a shadow
        // op hitting a domain edge — and must not crash the analysis: the
        // poisoned shadow propagates through the fail-closed shadow kernels
        // and surfaces as maximal error, never as a fault.
        #[cfg(feature = "fault-injection")]
        if poison {
            exact_result = R::from_f64_prec(f64::NAN, self.state.config.shadow_precision);
            local_err = MAX_ERROR_BITS;
        }
        let node = {
            let Herbgrind {
                state,
                shadow_slots,
                shadow_gen,
                interner,
                ..
            } = &mut *self;
            build_compute_trace(
                &state.config,
                interner,
                &state.locations[pc],
                pc,
                op,
                &operand_traces(shadow_slots, *shadow_gen, args)[..args.len()],
                result,
            )
        };
        self.finish_compute(
            pc,
            op,
            dest,
            args,
            arg_values,
            result,
            local_err,
            exact_result,
            node,
        );
        // Trace-memory budget ([`AnalysisConfig::trace_node_budget`]): the
        // per-run interner is the analysis's dominant growing allocation, so
        // its node count is the budget's measure. The fault is delivered
        // through the interpreter's per-step poll, aborting the run before
        // the next statement. (The batched engine interns through its
        // group-level table and performs the equivalent check there.)
        let budget = self.state.config.trace_node_budget;
        if budget != 0 && self.interner.len() >= budget && self.pending_fault.is_none() {
            self.pending_fault = Some(MachineError::TraceBudgetExceeded { limit: budget });
        }
    }

    fn on_cast_to_int(&mut self, pc: usize, dest: Addr, src: Addr, value: f64, result: i64) {
        self.ensure_shadow(src, value);
        let Herbgrind {
            state,
            shadow_slots,
            shadow_gen,
            ..
        } = self;
        let AnalysisState {
            spot_slots,
            locations,
            ..
        } = state;
        let shadow = shadow_at(shadow_slots, *shadow_gen, src).expect("shadow populated");
        let shadow_int = shadow.real.to_f64().trunc();
        let diverged = shadow_int as i64 != result;
        let error = if diverged { MAX_ERROR_BITS } else { 0.0 };
        let record = record_slot(spot_slots, pc).get_or_insert_with(|| {
            SpotRecord::new(SpotKind::FloatToInt, locations[pc].as_ref().clone())
        });
        record.record(error, diverged, &shadow.influences);
        put_shadow(shadow_slots, *shadow_gen, dest, None);
    }

    fn on_branch(
        &mut self,
        pc: usize,
        cmp: CmpOp,
        lhs: Addr,
        rhs: Addr,
        lhs_value: Value,
        rhs_value: Value,
        taken: bool,
    ) {
        self.ensure_shadow(lhs, lhs_value.as_f64());
        self.ensure_shadow(rhs, rhs_value.as_f64());
        let Herbgrind {
            state,
            shadow_slots,
            shadow_gen,
            ..
        } = self;
        let AnalysisState {
            spot_slots,
            locations,
            branch_divergences,
            ..
        } = state;
        let gen = *shadow_gen;
        let lhs_shadow = shadow_at(shadow_slots, gen, lhs).expect("shadow populated");
        let rhs_shadow = shadow_at(shadow_slots, gen, rhs).expect("shadow populated");
        let shadow_taken = cmp.holds(lhs_shadow.real.compare(&rhs_shadow.real));
        let diverged = shadow_taken != taken;
        if diverged {
            *branch_divergences += 1;
        }
        let mut influences = InfluenceSet::new();
        influences.union_with(&lhs_shadow.influences);
        influences.union_with(&rhs_shadow.influences);
        let error = if diverged { MAX_ERROR_BITS } else { 0.0 };
        let record = record_slot(spot_slots, pc).get_or_insert_with(|| {
            SpotRecord::new(SpotKind::Branch, locations[pc].as_ref().clone())
        });
        record.record(error, diverged, &influences);
        // The analysis follows the client's control flow (the divergence is
        // recorded, not acted on), exactly as the paper describes.
    }

    fn on_output(&mut self, pc: usize, src: Addr, value: f64) {
        self.ensure_shadow(src, value);
        let Herbgrind {
            state,
            shadow_slots,
            shadow_gen,
            ..
        } = self;
        let AnalysisState {
            config,
            spot_slots,
            locations,
            ..
        } = state;
        let shadow = shadow_at(shadow_slots, *shadow_gen, src).expect("shadow populated");
        // A NaN reaching an output is always reported with maximal error,
        // matching the paper's Gram-Schmidt case study (a NaN produced by a
        // division by zero is reported as 64 bits of error even though the
        // real-number execution is equally undefined there).
        let error = if value.is_nan() {
            MAX_ERROR_BITS
        } else {
            total_error(value, &shadow.real)
        };
        let erroneous = error > config.output_error_threshold;
        let record = record_slot(spot_slots, pc).get_or_insert_with(|| {
            SpotRecord::new(SpotKind::Output, locations[pc].as_ref().clone())
        });
        record.record(error, erroneous, &shadow.influences);
    }

    fn fault(&mut self) -> Option<MachineError> {
        self.pending_fault.take()
    }

    fn has_fault(&self) -> bool {
        self.pending_fault.is_some()
    }
}

/// Runs a program under the analysis for every input vector, using the
/// default [`BigFloat`] shadow reals, and returns the report.
///
/// The configured [`AnalysisConfig::shadow_precision`] is threaded through
/// the shadow-value constructors — it is carried by the analysis, not by
/// process-global state — so concurrent analyses with different precisions
/// do not interfere.
///
/// # Errors
///
/// Propagates [`MachineError`] from the underlying interpreter (arity
/// mismatches or exhausted step budgets): the error of the earliest failing
/// input.
pub fn analyze(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    analyze_with_shadow::<BigFloat>(program, inputs, config)
}

/// Runs a program under the analysis with an explicit shadow-real type
/// (`BigFloat`, `DoubleDouble`, or `f64` for a no-op shadow).
///
/// This is the fail-fast view of the serial fault-isolating engine
/// ([`analyze_isolated_with_shadow`](crate::quarantine::analyze_isolated_with_shadow)),
/// run without fault injection: the machine (with its pre-decoded execution
/// tape), the machine memory buffer, and the analysis slot tables are set up
/// once and reused across the whole sweep, so per-input work is proportional
/// to the instructions executed, not to sweep setup.
///
/// # Errors
///
/// Propagates [`MachineError`] from the underlying interpreter: the error of
/// the earliest failing input. A panicking analysis observer is re-raised.
pub fn analyze_with_shadow<R: Real>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    fail_fast(serial_family::<R>(
        program,
        inputs,
        config,
        SweepStage::Serial,
        false,
    ))
}

/// Runs a program under the analysis with the input sweep sharded across
/// threads ([`AnalysisConfig::threads`]), using the default [`BigFloat`]
/// shadow reals.
///
/// Inputs are split into contiguous chunks, each chunk is analyzed on its own
/// thread, and the per-shard records are merged in input order
/// ([`AnalysisState::merge`]). The resulting [`Report`] is bit-identical to
/// the serial [`analyze`] for every thread count, with one known exception:
/// a shard whose loop runs are shorter than
/// [`AnalysisConfig::max_expression_depth`] can lose input-range
/// contributions in the merge (DESIGN.md, "Parallel engine").
///
/// # Errors
///
/// Propagates [`MachineError`] from the underlying interpreter. When several
/// shards fail, the error of the earliest failing input is returned — the
/// same error serial analysis stops with.
pub fn analyze_parallel(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    analyze_parallel_with_shadow::<BigFloat>(program, inputs, config)
}

/// Runs the sharded analysis with an explicit shadow-real type; see
/// [`analyze_parallel`]. The fail-fast view of
/// [`analyze_parallel_isolated`](crate::quarantine::analyze_parallel_isolated).
///
/// # Errors
///
/// Propagates [`MachineError`] from the underlying interpreter.
pub fn analyze_parallel_with_shadow<R: Real + Send>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    fail_fast(serial_family::<R>(
        program,
        inputs,
        config,
        SweepStage::ParallelShard,
        false,
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test assertions may unwrap freely

    use super::*;
    use fpcore::parse_core;
    use fpvm::{compile_core, Machine};

    fn run_analysis(src: &str, inputs: &[Vec<f64>]) -> Report {
        let core = parse_core(src).expect("parse");
        let program = compile_core(&core, Default::default()).expect("compile");
        analyze(&program, inputs, &AnalysisConfig::default()).expect("analysis")
    }

    #[test]
    fn accurate_programs_produce_clean_reports() {
        let report = run_analysis(
            "(FPCore (x y) (sqrt (+ (* x x) (* y y))))",
            &[vec![3.0, 4.0], vec![1.0, 1.0], vec![0.5, 0.25]],
        );
        assert!(!report.has_significant_error(), "{}", report.to_text());
    }

    #[test]
    fn cancellation_is_detected_and_attributed() {
        // sqrt(x+1) - sqrt(x) for large x: the subtraction is the root cause.
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![10f64.powi(i)]).collect();
        let report = run_analysis("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))", &inputs);
        assert!(report.has_significant_error());
        let spot = &report.spots[0];
        assert!(spot.erroneous > 0);
        assert!(!spot.root_causes.is_empty());
        let cause = &spot.root_causes[0];
        assert!(
            cause.fpcore.contains("(- (sqrt"),
            "unexpected root cause {}",
            cause.fpcore
        );
    }

    #[test]
    fn influences_flow_through_later_operations() {
        // The error is introduced by the subtraction but observed only after
        // passing through a multiplication; the root cause must still be the
        // subtraction expression.
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![10f64.powi(i), 3.0]).collect();
        let report = run_analysis("(FPCore (x k) (* (- (+ x 1) x) k))", &inputs);
        assert!(report.has_significant_error());
        let cause = &report.spots[0].root_causes[0];
        assert!(cause.fpcore.contains('-'), "{}", cause.fpcore);
    }

    #[test]
    fn branch_divergence_is_a_spot() {
        // The PID-controller pattern: a loop counter incremented by 0.2
        // iterates once too many for some bounds. The branch is a spot and it
        // is influenced by the erroneous increment.
        let core =
            parse_core("(FPCore (n) (while (< t n) ((t 0 (+ t 0.2)) (c 0 (+ c 1))) c))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let config = AnalysisConfig::default().with_local_error_threshold(1.0);
        let report = analyze(&program, &[vec![10.0]], &config).unwrap();
        assert!(report.branch_divergences > 0, "{}", report.to_text());
        let branch_spot = report
            .spots
            .iter()
            .find(|s| s.kind_label == "Compare")
            .expect("branch spot present");
        assert!(branch_spot.erroneous > 0);
    }

    #[test]
    fn nan_outputs_have_maximal_error() {
        // A NaN reaching an output is reported with maximal (64-bit) error
        // even when the shadow execution also produces NaN, as in the
        // paper's Gram-Schmidt case study.
        let report = run_analysis("(FPCore (x) (sqrt x))", &[vec![-1.0]]);
        assert!(report.has_significant_error());
        assert!(report.spots[0].max_error_bits >= 60.0);
        // But a NaN that never reaches a spot (the accurate branch is taken)
        // is not reported.
        let report = run_analysis("(FPCore (x) (if (< x 0) 1 (sqrt x)))", &[vec![4.0]]);
        assert!(!report.has_significant_error());
    }

    #[test]
    fn compensation_is_not_reported_as_a_root_cause() {
        // Fast2Sum: s = a + b; e = b - (s - a); the compensating term e is
        // exactly zero in the reals, so the operations that extract it have
        // huge local error but must not surface as root causes. A genuinely
        // erroneous computation (`bad`) makes the output a real spot so that
        // influences are recorded at all.
        let src = "(FPCore (a b)
            (let* ((s (+ a b)) (t (- s a)) (e (- b t)) (r (+ s e))
                   (bad (- (+ a 1) a)))
              (* r bad)))";
        let core = parse_core(src).unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![10f64.powi(i), 1.0 + (i as f64) * 0.125])
            .collect();
        let with_detection = analyze(&program, &inputs, &AnalysisConfig::default()).unwrap();
        let without_detection = analyze(
            &program,
            &inputs,
            &AnalysisConfig::default().with_compensation_detection(false),
        )
        .unwrap();
        assert!(with_detection.compensations_detected > 0);
        assert!(with_detection.has_significant_error());
        // With detection the compensation machinery does not appear among
        // the root causes; without it, it shows up as extra false positives.
        let clean_causes: usize = with_detection
            .spots
            .iter()
            .map(|s| s.root_causes.len())
            .sum();
        let noisy_causes: usize = without_detection
            .spots
            .iter()
            .map(|s| s.root_causes.len())
            .sum();
        assert!(clean_causes > 0);
        assert!(
            clean_causes < noisy_causes,
            "{clean_causes} vs {noisy_causes}"
        );
    }

    #[test]
    fn fpdebug_configuration_reports_single_operations() {
        let inputs: Vec<Vec<f64>> = (0..25).map(|i| vec![10f64.powi(i)]).collect();
        let core = parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let report = analyze(&program, &inputs, &AnalysisConfig::fpdebug_like()).unwrap();
        assert!(report.has_significant_error());
        let cause = &report.spots[0].root_causes[0];
        // Depth-1 expressions contain exactly one operation.
        assert_eq!(cause.symbolic.operation_count(), 1, "{}", cause.fpcore);
    }

    #[test]
    fn reports_accumulate_across_runs_and_reset_shadows() {
        let core = parse_core("(FPCore (x) (- (+ x 1) x))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let mut analysis = Herbgrind::<BigFloat>::new(AnalysisConfig::default());
        let machine = Machine::new(&program);
        for i in 0..10 {
            machine
                .run_traced(&[10f64.powi(i * 2)], &mut analysis)
                .unwrap();
        }
        assert_eq!(analysis.runs(), 10);
        let report = analysis.report();
        assert_eq!(report.total_runs, 10);
        assert!(report.spots.iter().any(|s| s.total == 10));
    }

    #[test]
    fn concurrent_analyses_with_different_precisions_do_not_interfere() {
        // Regression test for the shadow-precision race: precision used to be
        // set through a process-global atomic, so two concurrent analyses
        // with different `shadow_precision` values corrupted each other.
        // Precision is now threaded through the shadow-value constructors.
        let core = parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![10f64.powi(i)]).collect();
        let lo = AnalysisConfig {
            shadow_precision: 64,
            ..AnalysisConfig::default()
        };
        let hi = AnalysisConfig {
            shadow_precision: 1024,
            ..AnalysisConfig::default()
        };
        let serial_lo = format!("{:?}", analyze(&program, &inputs, &lo).unwrap());
        let serial_hi = format!("{:?}", analyze(&program, &inputs, &hi).unwrap());
        let (runs_lo, runs_hi) = std::thread::scope(|scope| {
            let low = scope.spawn(|| {
                (0..4)
                    .map(|_| format!("{:?}", analyze(&program, &inputs, &lo).unwrap()))
                    .collect::<Vec<_>>()
            });
            let high = scope.spawn(|| {
                (0..4)
                    .map(|_| format!("{:?}", analyze(&program, &inputs, &hi).unwrap()))
                    .collect::<Vec<_>>()
            });
            (low.join().unwrap(), high.join().unwrap())
        });
        for run in runs_lo {
            assert_eq!(run, serial_lo, "low-precision analysis was corrupted");
        }
        for run in runs_hi {
            assert_eq!(run, serial_hi, "high-precision analysis was corrupted");
        }
    }

    #[test]
    fn balanced_chunks_fill_every_worker() {
        // The chunking regression: ceil-division produced fewer chunks than
        // workers for awkward lengths (9 items, 8 workers → 5 chunks).
        for (len, parts) in [(9usize, 8usize), (5, 4), (17, 13), (8, 8), (3, 8), (40, 3)] {
            let items: Vec<usize> = (0..len).collect();
            let chunks = balanced_chunks(&items, parts);
            assert_eq!(chunks.len(), parts.min(len), "{len} items, {parts} parts");
            assert!(chunks.iter().all(|c| !c.is_empty()));
            // Contiguous, in order, lengths within one of each other.
            let flat: Vec<usize> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, items);
            let min = chunks.iter().map(|c| c.len()).min().unwrap();
            let max = chunks.iter().map(|c| c.len()).max().unwrap();
            assert!(max - min <= 1, "{len} items, {parts} parts: {min}..{max}");
            // The longest chunks come first, so chunk 0's length bounds the
            // batched engine's pass count.
            assert_eq!(chunks[0].len(), max);
        }
        assert_eq!(balanced_chunks(&[] as &[u8], 4).len(), 1);
        assert!(balanced_chunks(&[] as &[u8], 4)[0].is_empty());
    }

    #[test]
    fn parallel_analysis_fills_all_threads_at_awkward_lengths() {
        // 9 inputs across 8 threads: every thread gets a shard and the merged
        // report is still bit-identical to serial.
        let core = parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..9).map(|i| vec![10f64.powi(i * 3)]).collect();
        let serial = analyze(
            &program,
            &inputs,
            &AnalysisConfig::default().with_threads(1),
        )
        .unwrap();
        let parallel = analyze_parallel(
            &program,
            &inputs,
            &AnalysisConfig::default().with_threads(8),
        )
        .unwrap();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_serial() {
        let core = parse_core("(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (1..40)
            .map(|i| vec![0.25 / i as f64, 1e-9 / i as f64])
            .collect();
        let serial = analyze(&program, &inputs, &AnalysisConfig::default()).unwrap();
        assert!(serial.has_significant_error());
        for threads in [1usize, 2, 3, 8] {
            let config = AnalysisConfig::default().with_threads(threads);
            let parallel = analyze_parallel(&program, &inputs, &config).unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn merging_shard_analyses_matches_one_sweep() {
        let core = parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![10f64.powi(i)]).collect();
        let config = AnalysisConfig::default();
        let machine = Machine::new(&program);

        let mut whole = Herbgrind::<BigFloat>::new(config.clone());
        for input in &inputs {
            machine.run_traced(input, &mut whole).unwrap();
        }

        let mut merged: Option<Herbgrind<BigFloat>> = None;
        for chunk in inputs.chunks(7) {
            let mut shard = Herbgrind::<BigFloat>::new(config.clone());
            for input in chunk {
                machine.run_traced(input, &mut shard).unwrap();
            }
            match &mut merged {
                Some(acc) => acc.merge(shard),
                None => merged = Some(shard),
            }
        }
        let merged = merged.unwrap();
        assert_eq!(merged.runs(), whole.runs());
        assert_eq!(
            format!("{:?}", merged.report()),
            format!("{:?}", whole.report())
        );
    }

    #[test]
    fn parallel_analysis_propagates_the_earliest_machine_error() {
        // A step budget small enough that every input fails: serial stops at
        // the first input, and the parallel path must surface the same error.
        let core =
            parse_core("(FPCore (n) (while (< t n) ((t 0 (+ t 0.125)) (c 0 (+ c 1))) c))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (1..=8).map(|n| vec![n as f64 * 100.0]).collect();
        let config = AnalysisConfig {
            step_limit: 10,
            ..AnalysisConfig::default()
        };
        let serial_err = analyze(&program, &inputs, &config).unwrap_err();
        let parallel_err =
            analyze_parallel(&program, &inputs, &config.clone().with_threads(4)).unwrap_err();
        assert_eq!(format!("{serial_err:?}"), format!("{parallel_err:?}"));
    }

    #[test]
    fn doubledouble_shadow_detects_the_same_cancellation() {
        let core = parse_core("(FPCore (x) (- (+ x 1) x))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![10f64.powi(i)]).collect();
        let report = analyze_with_shadow::<shadowreal::DoubleDouble>(
            &program,
            &inputs,
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert!(report.has_significant_error());
    }
}
