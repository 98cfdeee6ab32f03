//! The batched analysis mode: Herbgrind over the lane-parallel execution
//! engine ([`fpvm::batch`]).
//!
//! # Architecture
//!
//! [`analyze_batched`] splits the input sweep into `W` contiguous chunks and
//! assigns chunk `l` to lane `l` — the same contiguous-chunk sharding
//! [`analyze_parallel`](crate::analysis::analyze_parallel) uses across
//! threads, but across SIMD lanes of one [`BatchMachine`] pass. Each lane
//! owns a full per-lane [`Herbgrind`] shard (its own shadow slot table,
//! record slots, and trace interner, indexed by lane), and the
//! [`BatchHerbgrind`] tracer fans every per-group callback out to the lanes
//! of the group, so **each lane shard observes exactly the serial callback
//! sequence for its inputs**. Folding the lane shards in lane order is then
//! the same contiguous in-input-order merge the parallel engine performs —
//! which is why the batched report is **bit-identical** to serial
//! [`analyze`](crate::analysis::analyze) for every batch width, divergent
//! control flow included (the engine replays each lane's serial statement
//! sequence regardless of grouping).
//!
//! What the batch amortizes or vectorizes per op group: tape dispatch, the
//! tracer callback, the client `f64` arithmetic, the **exact shadow
//! evaluation** (one [`BatchReal::apply_lanes`] call per group — the
//! vectorized [`shadowreal::dd_batch`] kernels for the `DoubleDouble`
//! shadow), the float side of the local-error computation, and the
//! **group-shared record layer**: operand gathering fused with lazy
//! shadowing (one slot probe per operand per lane), trace nodes interned
//! once per convergent group through a group-level
//! [`ExprInterner::node_group`] (structural key hashed once, lanes split
//! only on value mismatch, value-identical lanes sharing one node), and
//! record updates folded through [`OpRecord::record_bounded_group`] /
//! [`crate::inputs::InputCharacteristics::apply_assignments_group`] in
//! lane order. The anti-unification and characteristics *state* stays
//! per-lane (that is what makes the lane-order merge bit-identical);
//! [`DdErrorProbe`] shows the engine's throughput with all record
//! bookkeeping stripped to FpDebug-style per-statement error counters.
//!
//! Threads compose with lanes: `config.threads` shards the sweep exactly as
//! the parallel engine does, every shard runs the batched engine on the one
//! decoded tape, and shard merges happen in input order. The sweep itself —
//! lane passes, fault collection, the serial retry of lanes that fault —
//! runs on the batched fault-isolating engine in [`crate::quarantine`];
//! [`analyze_batched`] is its fail-fast view.

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use crate::analysis::{balanced_chunks, AnalysisState, Herbgrind};
use crate::config::AnalysisConfig;
use crate::quarantine::{batched_family, fail_fast};
use crate::records::{GroupObservation, OpRecord};
use crate::report::Report;
use crate::trace::{ConcreteExpr, ExprInterner, LaneNode, TraceChildren};
use fpcore::CmpOp;
use fpvm::batch::{full_mask, lane_active, lane_indices, BatchMemory, BatchTracer, LaneMask};
use fpvm::{Addr, Machine, MachineError, Program, Tracer, Value, MAX_ARITY, MAX_LANES};
use shadowreal::{apply_f64_lanes, bits_error, BatchReal, BigFloat, DdLanes, RealOp};
use std::sync::Arc;

/// The lane widths the batched engine is compiled for. Requested widths
/// ([`AnalysisConfig::batch_width`]) outside this menu fall back to the
/// nearest smaller entry; the report is bit-identical either way, so the
/// width only affects throughput. The menu covers the power-of-two widths
/// the vectorized kernels target plus a prime width (13) so non-uniform
/// remainder chunking stays exercised.
pub const SUPPORTED_BATCH_WIDTHS: &[usize] = &[1, 2, 4, 8, 13, 16];

/// The width the engine will actually run for a requested
/// [`AnalysisConfig::batch_width`]: the largest supported width that does
/// not exceed the request (`0` and `1` both select single-lane batches).
pub fn effective_batch_width(requested: usize) -> usize {
    let requested = requested.max(1);
    SUPPORTED_BATCH_WIDTHS
        .iter()
        .copied()
        .filter(|&w| w <= requested)
        .max()
        .unwrap_or(1)
}

/// The Herbgrind analysis attached to a lane batch: one full per-lane
/// analysis shard per lane, driven by per-group callbacks.
///
/// Most events simply fan out to the owning lane's serial [`Tracer`]
/// methods. Compute events run the whole group through the **group-shared
/// record layer**: one lane-vectorized exact evaluation
/// ([`BatchReal::apply_lanes`]), one group-level trace-interning call
/// ([`ExprInterner::node_group`] — the structural key is hashed once per
/// group and split per lane only on value mismatch, so lanes with identical
/// observations share one trace node), and one group-level record fold
/// ([`OpRecord::record_bounded_group`] /
/// [`crate::inputs::InputCharacteristics::apply_assignments_group`]) in
/// lane order. Constant loads intern one leaf per group. All sharing is
/// structural-identity-preserving, so every lane shard still holds exactly
/// the serial per-input state and the lane-order merge stays bit-identical
/// to serial [`analyze`](crate::analysis::analyze).
#[derive(Debug)]
pub struct BatchHerbgrind<R: BatchReal, const W: usize> {
    lanes: Vec<Herbgrind<R>>,
    config: AnalysisConfig,
    /// The group-level trace interner: one hash-consing table shared by all
    /// lane shards, so a convergent group's nodes are interned with one
    /// structural hash and value-identical lanes share allocations (which in
    /// turn keeps operand pointer sets identical across lanes, feeding the
    /// next group's shared-structure fast path and the anti-unification
    /// pointer-identity short-circuits). Per-run state like shadow memory:
    /// cleared at the start of every batch pass.
    interner: ExprInterner,
    /// Reusable per-group output buffer for [`ExprInterner::node_group`].
    node_scratch: Vec<Option<Arc<ConcreteExpr>>>,
    /// Per-lane analysis-side faults (group trace-budget exhaustion,
    /// injected failures) awaiting delivery through the batch scheduler's
    /// per-group [`BatchTracer::lane_fault`] poll, which masks the lane out.
    lane_faults: [Option<MachineError>; MAX_LANES],
    /// Per-lane fault-injection context for the current pass: each lane's
    /// sweep-global input index, plus the pipeline stage.
    #[cfg(feature = "fault-injection")]
    inject_lanes: [Option<usize>; MAX_LANES],
    #[cfg(feature = "fault-injection")]
    inject_stage: crate::faultinject::InjectStage,
    /// Tier-0 static prune mask, shared by all lanes (pruning is a
    /// per-statement decision, identical across lanes). Installed only by
    /// the tiered driver for input groups inside the declared static region.
    prune: Option<Arc<staticerr::PruneMask>>,
}

impl<R: BatchReal, const W: usize> BatchHerbgrind<R, W> {
    /// One analysis shard per lane. The configuration is normalized
    /// ([`AnalysisConfig::normalize`]) like the serial analysis does, so the
    /// group-level record layer and the lane shards agree on every clamped
    /// parameter.
    pub fn new(config: &AnalysisConfig) -> Self {
        let config = config.normalize();
        BatchHerbgrind {
            lanes: (0..W).map(|_| Herbgrind::new(config.clone())).collect(),
            config,
            interner: ExprInterner::new(),
            node_scratch: Vec::new(),
            lane_faults: std::array::from_fn(|_| None),
            #[cfg(feature = "fault-injection")]
            inject_lanes: [None; MAX_LANES],
            #[cfg(feature = "fault-injection")]
            inject_stage: crate::faultinject::InjectStage::Batched,
            prune: None,
        }
    }

    /// Installs (or clears) the tier-0 static prune mask consulted by every
    /// compute group, forwarding it to the lane shards so a lane driven
    /// through its serial [`Tracer`] interface prunes identically. The
    /// caller guarantees every input in the pass lies inside the mask's
    /// declared region.
    pub(crate) fn set_prune_mask(&mut self, mask: Option<Arc<staticerr::PruneMask>>) {
        for lane in &mut self.lanes {
            lane.set_prune_mask(mask.clone());
        }
        self.prune = mask;
    }

    /// Arms deterministic fault injection for the next pass: `lanes[l]` is
    /// lane `l`'s sweep-global input index (`None` for idle lanes), `stage`
    /// the pipeline stage executing the pass.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn arm_lane_injection(
        &mut self,
        lanes: [Option<usize>; MAX_LANES],
        stage: crate::faultinject::InjectStage,
    ) {
        self.inject_lanes = lanes;
        self.inject_stage = stage;
    }

    /// Folds the lane shards in lane order — with contiguous-chunk lane
    /// assignment this is the in-input-order merge whose result is
    /// bit-identical to one serial sweep. The merged analysis can be merged
    /// further (thread shards) before reporting.
    pub fn into_merged(self) -> Herbgrind<R> {
        let mut lanes = self.lanes.into_iter();
        let mut merged = lanes.next().expect("at least one lane");
        for lane in lanes {
            merged.merge(lane);
        }
        merged
    }

    /// Folds the lane shards ([`BatchHerbgrind::into_merged`]) and builds
    /// the report.
    pub fn into_report(self) -> Report {
        self.into_merged().report()
    }
}

impl<R: BatchReal, const W: usize> BatchTracer<W> for BatchHerbgrind<R, W> {
    fn on_start(&mut self, program: &Program, lane_inputs: &[Option<&[f64]>; W], mask: LaneMask) {
        // The group interner is per-pass state, like the serial shard
        // interners are per-run state: a pass is one run per lane.
        self.interner.clear();
        self.lane_faults = std::array::from_fn(|_| None);
        for l in lane_indices(mask) {
            if let Some(args) = lane_inputs[l] {
                self.lanes[l].on_start(program, args);
            }
        }
    }

    fn on_compute(
        &mut self,
        pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        arg_values: &[[f64; W]],
        results: &[f64; W],
        mask: LaneMask,
    ) {
        // Deterministic fault injection, consulted per lane before any
        // analysis work: an injected panic unwinds the whole pass (like a
        // real crashing shadow op would); budget kinds latch into the lane's
        // fault slot, delivered through the scheduler's per-group poll.
        #[cfg(feature = "fault-injection")]
        for l in lane_indices(mask) {
            if let Some(ix) = self.inject_lanes[l] {
                use crate::faultinject::{self, InjectKind, InjectStage};
                match faultinject::query(ix, pc, self.inject_stage) {
                    Some(InjectKind::Panic) => {
                        panic!("injected analysis panic: input {ix}, pc {pc}, lane {l}")
                    }
                    Some(InjectKind::TierEscalation)
                        if self.inject_stage == InjectStage::TieredBigFloat =>
                    {
                        panic!("injected tier-escalation failure: input {ix}, pc {pc}, lane {l}")
                    }
                    Some(InjectKind::StepBudget) => {
                        self.lane_faults[l] = Some(MachineError::StepBudgetExceeded {
                            limit: self.config.step_limit,
                        });
                    }
                    Some(InjectKind::Deadline) => {
                        self.lane_faults[l] = Some(MachineError::DeadlineExceeded {
                            millis: self.config.deadline_millis.max(1),
                        });
                    }
                    Some(InjectKind::TraceBudget) => {
                        self.lane_faults[l] = Some(MachineError::TraceBudgetExceeded {
                            limit: self.config.trace_node_budget.max(1),
                        });
                    }
                    // NaN poisoning targets the serial stages; lane groups
                    // share exact evaluations, so it is a no-op here.
                    Some(InjectKind::NanPoison) | Some(InjectKind::TierEscalation) | None => {}
                }
            }
        }
        // Tier 0: a statically certified statement skips the group's shadow
        // work entirely — each active lane records the op's existence and
        // invalidates the destination shadow, exactly like the serial
        // analysis does for pruned statements (after the injection consult,
        // so injected faults still fire at pruned sites).
        if self.prune.as_ref().is_some_and(|m| m.is_pruned(pc)) {
            telemetry::TIER0_PRUNED_EXECUTIONS.add(u64::from(mask.count_ones()));
            for l in lane_indices(mask) {
                self.lanes[l].on_pruned_compute(pc, op, dest);
            }
            return;
        }
        crate::analysis::shadow_ops_counter::<R>().add(u64::from(mask.count_ones()));
        let n = args.len();
        let BatchHerbgrind {
            lanes,
            config,
            interner,
            node_scratch,
            lane_faults,
            ..
        } = self;
        // One lane-vectorized exact evaluation for the whole group, with the
        // lazy leaf-shadow creation (through the group interner, so lanes
        // observing the same value share one leaf) fused into the operand
        // gather that feeds both the exact kernel and the trace layer: each
        // lane's slot is probed once per operand. The operand shadows stay
        // borrowed in the lane slot tables while the kernel runs;
        // `BatchReal`'s bit-identity contract guarantees each lane gets
        // exactly the serial `apply_ref` result.
        let max_depth = config.max_expression_depth;
        let store_bound = max_depth.saturating_mul(4);
        let intern_bound = crate::analysis::intern_depth_bound(config);
        let mut exact_results: [Option<R>; W] = std::array::from_fn(|_| None);
        let mut local_errs = [0.0f64; W];
        // Placeholder for inactive child-ref slots: the cached process-wide
        // zero leaf (no allocation), never read for lanes outside the mask.
        let zero_leaf = ConcreteExpr::leaf(0.0);
        {
            let mut child_refs = [[&zero_leaf; MAX_ARITY]; W];
            let mut gathered: [[Option<&R>; W]; MAX_ARITY] = [[None; W]; MAX_ARITY];
            let mut location: Option<&Arc<fpvm::SourceLoc>> = None;
            for (l, lane) in lanes.iter_mut().enumerate() {
                if !lane_active(mask, l) {
                    continue;
                }
                for (i, &addr) in args.iter().enumerate() {
                    lane.ensure_shadow_in(interner, addr, arg_values[i][l]);
                }
                // Downgrade this lane's borrow and read the freshly ensured
                // operands in the same pass.
                let lane: &Herbgrind<R> = lane;
                for (i, &addr) in args.iter().enumerate() {
                    let (real, expr) = lane.shadow_parts(addr).expect("operand shadow");
                    gathered[i][l] = Some(real);
                    child_refs[l][i] = expr;
                }
                if location.is_none() {
                    location = Some(lane.location(pc));
                }
            }
            let location = location.expect("non-empty group");
            R::apply_lanes(op, &gathered[..n], mask, &mut exact_results);

            // Local error (Figure 4), with the float re-evaluation of the
            // rounded exact operands done lane-vectorized.
            let mut rounded = [[0.0f64; W]; MAX_ARITY];
            for (rounded_lanes, arg) in rounded.iter_mut().zip(&gathered[..n]) {
                for l in lane_indices(mask) {
                    rounded_lanes[l] = arg[l].expect("operand shadow").to_f64();
                }
            }
            let float_results = apply_f64_lanes(op, &rounded[..n]);
            for l in lane_indices(mask) {
                let exact = exact_results[l].as_ref().expect("lane result");
                local_errs[l] = bits_error(float_results[l], exact.to_f64());
            }

            // Group-shared trace construction: intern the whole group's
            // result nodes in one call — one structural hash for lanes whose
            // operands are pointer-shared, one node per distinct
            // observation. Deep traces take the serial paths (allocated
            // directly past the interning depth bound, truncated past the 4D
            // storage bound), deduplicated within the group so lanes with
            // identical observations still share one node.
            let mut deep_mask: LaneMask = 0;
            let mut depths = [0usize; W];
            let mut reqs: [Option<LaneNode>; W] = std::array::from_fn(|_| None);
            for l in lane_indices(mask) {
                let depth = 1 + child_refs[l][..n]
                    .iter()
                    .map(|c| c.depth())
                    .max()
                    .unwrap_or(0);
                depths[l] = depth;
                if depth <= intern_bound {
                    reqs[l] = Some(LaneNode {
                        value: results[l],
                        children: &child_refs[l][..n],
                    });
                } else {
                    deep_mask |= 1 << l;
                }
            }
            interner.node_group(op, pc, location, &reqs, node_scratch);
            for l in lane_indices(deep_mask) {
                let shared = lane_indices(deep_mask).take_while(|&p| p < l).find(|&p| {
                    results[p].to_bits() == results[l].to_bits()
                        && child_refs[p][..n]
                            .iter()
                            .zip(&child_refs[l][..n])
                            .all(|(a, b)| Arc::ptr_eq(a, b))
                });
                node_scratch[l] = match shared {
                    Some(p) => node_scratch[p].clone(),
                    None => {
                        let node = ConcreteExpr::node(
                            op,
                            results[l],
                            TraceChildren::from_refs(&child_refs[l][..n]),
                            pc,
                            location.clone(),
                        );
                        Some(if depths[l] <= store_bound {
                            node
                        } else {
                            node.truncate_to_depth(max_depth)
                        })
                    }
                };
            }
        }

        // Per-lane shadow tails (influences, compensation, destination
        // write), then one group-level record fold — both in lane order.
        let mut lane_args = [0.0f64; MAX_ARITY];
        let mut recorded: [Option<bool>; W] = [None; W];
        for l in lane_indices(mask) {
            for (slot, lane_values) in lane_args.iter_mut().zip(arg_values) {
                *slot = lane_values[l];
            }
            let exact = exact_results[l].take().expect("lane result");
            let node = Arc::clone(node_scratch[l].as_ref().expect("lane node"));
            recorded[l] = lanes[l].compute_shadow_tail(
                pc,
                op,
                dest,
                args,
                &lane_args[..n],
                results[l],
                local_errs[l],
                exact,
                node,
            );
        }
        OpRecord::record_bounded_group(
            lanes.iter_mut().enumerate().filter_map(|(l, lane)| {
                let erroneous = recorded[l]?;
                let node = node_scratch[l].as_ref().expect("lane node");
                Some((
                    lane.op_record_entry(pc, op),
                    GroupObservation {
                        node,
                        local_error: local_errs[l],
                        erroneous,
                    },
                ))
            }),
            max_depth,
            config,
        );

        // Trace-memory budget on the group interner — the batched
        // counterpart of the serial per-run check. The table is shared by
        // every lane, so attribution is collective: all active lanes fault,
        // and the batched engine's serial retry (per-input interner)
        // decides which inputs genuinely exceed the budget alone.
        let budget = config.trace_node_budget;
        if budget != 0 && interner.len() >= budget {
            for l in lane_indices(mask) {
                if lane_faults[l].is_none() {
                    lane_faults[l] = Some(MachineError::TraceBudgetExceeded { limit: budget });
                }
            }
        }
    }

    fn on_const_f(&mut self, _pc: usize, dest: Addr, value: f64, mask: LaneMask) {
        // One interned leaf per group, shared by every lane's shadow — the
        // serial `on_const_f` effect with the allocation amortized.
        let BatchHerbgrind {
            lanes, interner, ..
        } = self;
        let leaf = interner.leaf(value);
        for l in lane_indices(mask) {
            lanes[l].set_const_shadow(dest, value, Arc::clone(&leaf));
        }
    }

    fn on_const_i(&mut self, pc: usize, dest: Addr, value: i64, mask: LaneMask) {
        for l in lane_indices(mask) {
            self.lanes[l].on_const_i(pc, dest, value);
        }
    }

    fn on_copy(&mut self, pc: usize, dest: Addr, src: Addr, values: &[Value; W], mask: LaneMask) {
        for l in lane_indices(mask) {
            self.lanes[l].on_copy(pc, dest, src, values[l]);
        }
    }

    fn on_cast_to_int(
        &mut self,
        pc: usize,
        dest: Addr,
        src: Addr,
        values: &[f64; W],
        results: &[i64; W],
        mask: LaneMask,
    ) {
        for l in lane_indices(mask) {
            self.lanes[l].on_cast_to_int(pc, dest, src, values[l], results[l]);
        }
    }

    fn on_branch(
        &mut self,
        pc: usize,
        cmp: CmpOp,
        lhs: Addr,
        rhs: Addr,
        lhs_values: &[Value; W],
        rhs_values: &[Value; W],
        taken: LaneMask,
        mask: LaneMask,
    ) {
        for l in lane_indices(mask) {
            self.lanes[l].on_branch(
                pc,
                cmp,
                lhs,
                rhs,
                lhs_values[l],
                rhs_values[l],
                lane_active(taken, l),
            );
        }
    }

    fn on_output(&mut self, pc: usize, src: Addr, values: &[f64; W], mask: LaneMask) {
        for l in lane_indices(mask) {
            self.lanes[l].on_output(pc, src, values[l]);
        }
    }

    fn any_fault(&self) -> bool {
        self.lane_faults.iter().any(Option::is_some)
    }

    fn lane_fault(&mut self, lane: usize) -> Option<MachineError> {
        self.lane_faults[lane].take()
    }
}

/// Runs one batched sweep at compile-time width `W` over contiguous lane
/// chunks, one batch pass per chunk position, collecting faults: every
/// failed run is reported as `(sweep-global input index, error)` —
/// `index_base` is the global index of `inputs[0]` — and the analysis state
/// is returned only when the sweep was fault-free (a faulted lane's partial
/// records make the accumulated state unusable; the isolating engine
/// rebuilds without the faulted inputs). A failed lane stops consuming its
/// chunk, so its tail is left to the caller as unprocessed rather than
/// failed; panics unwind to the caller.
///
/// `prune` is the tier-0 static prune mask — `None` everywhere except the
/// tiered driver's in-region groups — and `inject` (fault-injection builds
/// only) the stage the lanes are armed with, or `None` for unarmed sweeps.
pub(crate) fn batched_sweep_collect<R: BatchReal, const W: usize>(
    machine: &Machine<'_>,
    inputs: &[Vec<f64>],
    index_base: usize,
    config: &AnalysisConfig,
    prune: Option<&Arc<staticerr::PruneMask>>,
    #[cfg(feature = "fault-injection")] inject: Option<crate::faultinject::InjectStage>,
) -> Result<AnalysisState, Vec<(usize, MachineError)>> {
    let lane_count = W.min(inputs.len()).max(1);
    // Balanced contiguous partition: chunk lengths differ by at most one, so
    // a sweep of at least W inputs keeps every lane busy, and chunks are
    // contiguous in input order, so the lane-order merge is the in-order
    // merge.
    let chunks = balanced_chunks(inputs, lane_count);
    let positions = chunks.first().map_or(0, |chunk| chunk.len());
    let mut offsets = Vec::with_capacity(chunks.len());
    let mut start = 0;
    for chunk in &chunks {
        offsets.push(start);
        start += chunk.len();
    }
    let batch = machine.batched::<W>();
    let mut tracer = BatchHerbgrind::<R, W>::new(config);
    tracer.set_prune_mask(prune.map(Arc::clone));
    let mut memory = BatchMemory::new();
    let mut failed = [false; W];
    let mut faults: Vec<(usize, MachineError)> = Vec::new();
    for position in 0..positions {
        let mut lane_inputs: [Option<&[f64]>; W] = [None; W];
        let mut any = false;
        #[cfg(feature = "fault-injection")]
        let mut lane_indices_global = [None; MAX_LANES];
        for (l, chunk) in chunks.iter().enumerate() {
            if !failed[l] {
                if let Some(input) = chunk.get(position) {
                    lane_inputs[l] = Some(input.as_slice());
                    any = true;
                    #[cfg(feature = "fault-injection")]
                    {
                        lane_indices_global[l] = Some(index_base + offsets[l] + position);
                    }
                }
            }
        }
        if !any {
            break;
        }
        #[cfg(feature = "fault-injection")]
        if let Some(stage) = inject {
            tracer.arm_lane_injection(lane_indices_global, stage);
        }
        let outcome = batch.run_batch(&lane_inputs, &mut tracer, &mut memory);
        for (l, error) in outcome.errors.iter().enumerate() {
            if !failed[l] {
                if let Some(error) = error {
                    failed[l] = true;
                    faults.push((index_base + offsets[l] + position, error.clone()));
                }
            }
        }
    }
    if faults.is_empty() {
        Ok(tracer.into_merged().into_state())
    } else {
        faults.sort_by_key(|(index, _)| *index);
        Err(faults)
    }
}

/// [`batched_sweep_collect`] dispatched to the compiled batch width.
pub(crate) fn dispatch_sweep_collect<R: BatchReal>(
    machine: &Machine<'_>,
    width: usize,
    inputs: &[Vec<f64>],
    index_base: usize,
    config: &AnalysisConfig,
    prune: Option<&Arc<staticerr::PruneMask>>,
    #[cfg(feature = "fault-injection")] inject: Option<crate::faultinject::InjectStage>,
) -> Result<AnalysisState, Vec<(usize, MachineError)>> {
    macro_rules! go {
        ($w:literal) => {
            batched_sweep_collect::<R, $w>(
                machine,
                inputs,
                index_base,
                config,
                prune,
                #[cfg(feature = "fault-injection")]
                inject,
            )
        };
    }
    match width {
        2 => go!(2),
        4 => go!(4),
        8 => go!(8),
        13 => go!(13),
        16 => go!(16),
        _ => go!(1),
    }
}

/// Runs a program under the batched analysis for every input vector, using
/// the default [`BigFloat`] shadow reals.
///
/// Interchangeable with [`analyze`](crate::analysis::analyze) and
/// [`analyze_parallel`](crate::analysis::analyze_parallel): the report is
/// bit-identical for every batch width and thread count, enforced by the
/// batch-equivalence test suite — except that, as for the parallel driver,
/// lane or thread shards holding loop runs shorter than
/// [`AnalysisConfig::max_expression_depth`] can lose input-range
/// contributions in the merge (DESIGN.md, "Parallel engine").
///
/// # Errors
///
/// Propagates [`MachineError`] like the serial driver: the error of the
/// earliest failing input is returned.
pub fn analyze_batched(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    analyze_batched_with_shadow::<BigFloat>(program, inputs, config)
}

/// Runs the batched analysis with an explicit shadow-real type. The
/// `DoubleDouble` shadow evaluates through the lane-vectorized
/// [`shadowreal::dd_batch`] kernels; `f64` through vectorized lane loops;
/// [`BigFloat`] falls back to scalar kernels per lane while still amortizing
/// decode and dispatch.
///
/// The fail-fast view of the batched fault-isolating engine
/// ([`analyze_batched_isolated`](crate::quarantine::analyze_batched_isolated)),
/// run without fault injection. A lane group shares one trace interner, so
/// a trace-budget fault is attributed to every active lane; like the
/// isolated driver, this one re-runs such lanes serially and fails only on
/// an input that faults on its own.
///
/// # Errors
///
/// Propagates [`MachineError`] from the underlying interpreter; when several
/// inputs fail, the earliest failing input's error is returned.
pub fn analyze_batched_with_shadow<R: BatchReal + Send>(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    fail_fast(batched_family::<R>(program, inputs, config, false))
}

/// [`shadowreal::ordinal`] without the NaN branch: identical for every
/// non-NaN input (the probe patches NaN lanes through the exact
/// [`shadowreal::ulps_between`] afterwards), and a straight-line
/// bit-manipulation the compiler can keep in vector registers.
#[inline]
fn branchless_ordinal(x: f64) -> i64 {
    let bits = x.to_bits();
    let magnitude = (bits & 0x7fff_ffff_ffff_ffff) as i64;
    if bits >> 63 == 0 {
        magnitude
    } else {
        -magnitude
    }
}

/// Per-statement summary produced by [`DdErrorProbe`]: FpDebug-style
/// local-error counters without traces, influences, or symbolic records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalErrorSummary {
    /// Program counters with at least one execution, ascending.
    pub statements: Vec<LocalErrorRow>,
    /// Total compute operations observed across all lanes and runs.
    pub total_ops: u64,
}

/// One statement's local-error counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalErrorRow {
    /// The statement (program counter).
    pub pc: usize,
    /// Executions across all lanes and runs.
    pub executions: u64,
    /// Executions whose local error exceeded the probe threshold.
    pub erroneous: u64,
    /// Maximum local error observed, in bits (`log2(1 + ulps)`).
    pub max_error_bits: f64,
}

/// A fully lane-vectorized local-error probe over the `DoubleDouble` shadow.
///
/// This is the batched engine with the per-lane record machinery stripped
/// away: shadow memory is a struct-of-arrays [`DdLanes`] plane per address
/// (so operand reads need no gather at all), every compute evaluates the
/// exact operation through the vectorized [`shadowreal::dd_batch`] kernels,
/// and local error is tallied in integer ulps per statement — the
/// `FpDebug`-style detection layer of the analysis at memory-bandwidth
/// speed. It answers "where is local error introduced, how often, how big"
/// without root-cause traces, which is exactly the per-op work the full
/// analysis adds on top.
#[derive(Debug)]
pub struct DdErrorProbe<const W: usize> {
    shadows: Vec<DdLanes<W>>,
    executions: Vec<u64>,
    erroneous: Vec<u64>,
    max_ulps: Vec<u64>,
    threshold_ulps: u64,
    /// True for negative thresholds, which every execution exceeds — `ulps >
    /// threshold_ulps` cannot express "including zero ulps" in a `u64`.
    flag_all: bool,
    total_ops: u64,
}

/// The bits-of-error the analysis computes for a ulps distance: exactly
/// [`shadowreal::bits_error`]'s arithmetic, expressed over the integer
/// distance the probe counts in.
fn bits_of_ulps(ulps: u64) -> f64 {
    if ulps == u64::MAX {
        return shadowreal::MAX_ERROR_BITS;
    }
    (((ulps as f64) + 1.0).log2()).min(shadowreal::MAX_ERROR_BITS)
}

impl<const W: usize> DdErrorProbe<W> {
    /// A probe flagging statements whose local error exceeds
    /// `threshold_bits` — by the *same decision* the full analysis makes
    /// (`bits_error(float, exact) > T`), converted to an integer ulps bound.
    ///
    /// In exact arithmetic `bits > T ⟺ ulps > 2^T − 1`, but the analysis
    /// computes bits as the **rounded** `log2(ulps + 1)`, so the naive
    /// conversion misclassifies ulps counts near the boundary (for example
    /// `ulps = 2^60` at `T = 60`: `log2` rounds to exactly `60.0`, which
    /// does not exceed the threshold, while `2^60 > 2^60 − 1` does). The
    /// bound is therefore taken directly from the analysis's own formula:
    /// the largest ulps count whose rounded bits do not exceed the
    /// threshold, located by binary search over the monotone `log2` (with a
    /// local fix-up so faithful-but-not-correct rounding cannot shift the
    /// boundary). Thresholds at or above [`shadowreal::MAX_ERROR_BITS`] (or
    /// NaN) flag nothing, exactly like the analysis, whose bits are clamped
    /// to that maximum; negative thresholds flag every execution.
    pub fn new(threshold_bits: f64) -> Self {
        let exceeds = |ulps: u64| bits_of_ulps(ulps) > threshold_bits;
        let threshold_ulps =
            if threshold_bits.is_nan() || threshold_bits >= shadowreal::MAX_ERROR_BITS {
                // T >= 64 bits, or NaN: bits are clamped to 64, so nothing can
                // exceed the threshold — not even the saturated NaN distance.
                u64::MAX
            } else if threshold_bits < 0.0 {
                // Every execution exceeds a negative threshold; `ulps >= 0 > -1`
                // has no u64 encoding, so flag through the zero-included path.
                0
            } else {
                // Largest `u` with bits(u) <= T; erroneous ⟺ ulps > u.
                let (mut lo, mut hi) = (0u64, u64::MAX - 1);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2 + 1;
                    if exceeds(mid) {
                        hi = mid - 1;
                    } else {
                        lo = mid;
                    }
                }
                while lo < u64::MAX - 1 && !exceeds(lo + 1) {
                    lo += 1;
                }
                while lo > 0 && exceeds(lo) {
                    lo -= 1;
                }
                lo
            };
        let flag_all = threshold_bits < 0.0;
        DdErrorProbe {
            shadows: Vec::new(),
            executions: Vec::new(),
            erroneous: Vec::new(),
            max_ulps: Vec::new(),
            threshold_ulps,
            flag_all,
            total_ops: 0,
        }
    }

    /// Folds the counters into an ordered summary.
    pub fn summary(&self) -> LocalErrorSummary {
        let statements = self
            .executions
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(pc, &executions)| LocalErrorRow {
                pc,
                executions,
                erroneous: self.erroneous[pc],
                max_error_bits: bits_of_ulps(self.max_ulps[pc]),
            })
            .collect();
        LocalErrorSummary {
            statements,
            total_ops: self.total_ops,
        }
    }

    /// The shadow plane of `addr`, growing the table on the cold path —
    /// mirroring the full analysis's `put_shadow`, which stays correct for
    /// statements addressing beyond the space announced at `on_start`
    /// instead of panicking.
    #[inline]
    fn plane(&mut self, addr: Addr) -> &mut DdLanes<W> {
        if addr >= self.shadows.len() {
            self.shadows.resize(addr + 1, DdLanes::zero());
        }
        &mut self.shadows[addr]
    }

    /// Read form of [`DdErrorProbe::plane`]: unwritten or out-of-range
    /// addresses read as the zero plane, exactly what a freshly grown slot
    /// holds.
    #[inline]
    fn plane_or_zero(&self, addr: Addr) -> DdLanes<W> {
        self.shadows
            .get(addr)
            .copied()
            .unwrap_or_else(DdLanes::zero)
    }

    /// Counter slots for `pc`, growing the tables on the cold path like the
    /// analysis's pc-indexed record slots.
    #[inline]
    fn ensure_pc(&mut self, pc: usize) {
        if pc >= self.executions.len() {
            self.executions.resize(pc + 1, 0);
            self.erroneous.resize(pc + 1, 0);
            self.max_ulps.resize(pc + 1, 0);
        }
    }
}

impl<const W: usize> BatchTracer<W> for DdErrorProbe<W> {
    fn on_start(&mut self, program: &Program, lane_inputs: &[Option<&[f64]>; W], mask: LaneMask) {
        self.shadows.clear();
        self.shadows.resize(program.num_addrs, DdLanes::zero());
        if self.executions.len() < program.len() {
            self.executions.resize(program.len(), 0);
            self.erroneous.resize(program.len(), 0);
            self.max_ulps.resize(program.len(), 0);
        }
        for l in lane_indices(mask) {
            if let Some(args) = lane_inputs[l] {
                for (&addr, &value) in program.arg_addrs.iter().zip(args) {
                    self.shadows[addr].hi[l] = value;
                    self.shadows[addr].lo[l] = 0.0;
                }
            }
        }
    }

    fn on_compute(
        &mut self,
        pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        _arg_values: &[[f64; W]],
        _results: &[f64; W],
        mask: LaneMask,
    ) {
        // Gather-free operand reads: the shadow planes are already lane
        // arrays. Reads beyond the announced address space see the zero
        // plane (what a grown slot would hold), instead of panicking.
        let mut operands = [DdLanes::zero(); MAX_ARITY];
        for (lanes, &addr) in operands.iter_mut().zip(args) {
            *lanes = self.plane_or_zero(addr);
        }
        let exact = shadowreal::dd_batch::apply(op, &operands[..args.len()]);
        // Local error: the rounded exact operands are the hi planes, so the
        // float re-evaluation is one vectorized lane call.
        let mut rounded = [[0.0f64; W]; MAX_ARITY];
        for (lanes, operand) in rounded.iter_mut().zip(&operands[..args.len()]) {
            *lanes = operand.hi;
        }
        let float_results = apply_f64_lanes(op, &rounded[..args.len()]);
        // Branch-free ulps distance per lane, with the (rare) NaN lanes
        // patched afterwards so every lane agrees exactly with
        // `shadowreal::ulps_between`. NaN detection is itself branch-free:
        // `x * 0.0` is NaN iff `x` is non-finite, and a non-finite shadow or
        // float result is exactly the case the slow path must arbitrate.
        let mut ulps = [0u64; W];
        let mut nonfinite_probe = 0.0f64;
        for l in 0..W {
            ulps[l] =
                branchless_ordinal(float_results[l]).abs_diff(branchless_ordinal(exact.hi[l]));
            nonfinite_probe += float_results[l] * 0.0 + exact.hi[l] * 0.0;
        }
        if nonfinite_probe.is_nan() {
            for l in 0..W {
                ulps[l] = shadowreal::ulps_between(float_results[l], exact.hi[l]);
            }
        }
        let mut erroneous = 0u64;
        self.ensure_pc(pc);
        let mut max_ulps = self.max_ulps[pc];
        let full = full_mask(W);
        if mask == full {
            for &u in &ulps {
                erroneous += u64::from(self.flag_all || u > self.threshold_ulps);
                max_ulps = max_ulps.max(u);
            }
        } else {
            for (l, &lane_ulps) in ulps.iter().enumerate() {
                let active = lane_active(mask, l);
                let u = if active { lane_ulps } else { 0 };
                erroneous += u64::from(active && (self.flag_all || u > self.threshold_ulps));
                max_ulps = max_ulps.max(u);
            }
        }
        let active = mask.count_ones() as u64;
        self.executions[pc] += active;
        self.erroneous[pc] += erroneous;
        self.max_ulps[pc] = max_ulps;
        self.total_ops += active;
        // Store of the destination plane, whole-group when convergent.
        let dest_plane = self.plane(dest);
        if mask == full {
            *dest_plane = exact;
        } else {
            for l in 0..W {
                if lane_active(mask, l) {
                    dest_plane.hi[l] = exact.hi[l];
                    dest_plane.lo[l] = exact.lo[l];
                }
            }
        }
    }

    fn on_const_f(&mut self, _pc: usize, dest: Addr, value: f64, mask: LaneMask) {
        let plane = self.plane(dest);
        for l in 0..W {
            if lane_active(mask, l) {
                plane.hi[l] = value;
                plane.lo[l] = 0.0;
            }
        }
    }

    fn on_const_i(&mut self, _pc: usize, dest: Addr, value: i64, mask: LaneMask) {
        let plane = self.plane(dest);
        for l in 0..W {
            if lane_active(mask, l) {
                plane.hi[l] = value as f64;
                plane.lo[l] = 0.0;
            }
        }
    }

    fn on_copy(&mut self, _pc: usize, dest: Addr, src: Addr, _values: &[Value; W], mask: LaneMask) {
        let src_plane = self.plane_or_zero(src);
        let dest_plane = self.plane(dest);
        for l in 0..W {
            if lane_active(mask, l) {
                dest_plane.hi[l] = src_plane.hi[l];
                dest_plane.lo[l] = src_plane.lo[l];
            }
        }
    }

    fn on_cast_to_int(
        &mut self,
        _pc: usize,
        dest: Addr,
        _src: Addr,
        _values: &[f64; W],
        results: &[i64; W],
        mask: LaneMask,
    ) {
        let plane = self.plane(dest);
        for (l, &result) in results.iter().enumerate() {
            if lane_active(mask, l) {
                plane.hi[l] = result as f64;
                plane.lo[l] = 0.0;
            }
        }
    }
}

/// Sweeps `inputs` through the [`DdErrorProbe`] at compile-time width `W`
/// with the same balanced contiguous lane chunking as [`analyze_batched`],
/// and returns the per-statement local-error summary.
///
/// # Errors
///
/// Propagates [`MachineError`] with the same semantics as the analysis
/// drivers: when several inputs fail, the error of the **earliest input** is
/// returned. Under contiguous lane assignment that is the first failure of
/// the lowest failed lane, so a failure stops its own lane *and* every lane
/// above it (their errors can never be the earliest, and any failure
/// discards the summary); only lanes below keep running, since one of them
/// failing would supersede the error.
pub fn probe_local_error<const W: usize>(
    program: &Program,
    inputs: &[Vec<f64>],
    threshold_bits: f64,
) -> Result<LocalErrorSummary, MachineError> {
    let machine = Machine::new(program);
    let batch = machine.batched::<W>();
    let lane_count = W.min(inputs.len()).max(1);
    let chunks = balanced_chunks(inputs, lane_count);
    let positions = chunks.first().map_or(0, |chunk| chunk.len());
    let mut probe = DdErrorProbe::<W>::new(threshold_bits);
    let mut memory = BatchMemory::new();
    let mut failures: [Option<MachineError>; W] = std::array::from_fn(|_| None);
    let mut lowest_failed = W;
    for position in 0..positions {
        let mut lane_inputs: [Option<&[f64]>; W] = [None; W];
        let mut any = false;
        for (l, chunk) in chunks.iter().enumerate().take(lowest_failed) {
            if failures[l].is_none() {
                if let Some(input) = chunk.get(position) {
                    lane_inputs[l] = Some(input.as_slice());
                    any = true;
                }
            }
        }
        if !any {
            break;
        }
        let outcome = batch.run_batch(&lane_inputs, &mut probe, &mut memory);
        for (l, (failure, error)) in failures.iter_mut().zip(&outcome.errors).enumerate() {
            if failure.is_none() {
                if let Some(error) = error {
                    *failure = Some(error.clone());
                    lowest_failed = lowest_failed.min(l);
                }
            }
        }
    }
    if let Some(error) = failures.iter().flatten().next() {
        return Err(error.clone());
    }
    Ok(probe.summary())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test assertions may unwrap freely

    use super::*;
    use crate::analysis::analyze;
    use fpcore::parse_core;
    use fpvm::compile_core;

    fn program(src: &str) -> Program {
        compile_core(&parse_core(src).unwrap(), Default::default()).unwrap()
    }

    #[test]
    fn width_fallback_picks_nearest_smaller_supported() {
        assert_eq!(effective_batch_width(0), 1);
        assert_eq!(effective_batch_width(1), 1);
        assert_eq!(effective_batch_width(3), 2);
        assert_eq!(effective_batch_width(8), 8);
        assert_eq!(effective_batch_width(12), 8);
        assert_eq!(effective_batch_width(13), 13);
        assert_eq!(effective_batch_width(100), 16);
    }

    #[test]
    fn batched_default_width_matches_serial() {
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![10f64.powi(i)]).collect();
        let config = AnalysisConfig::default().with_threads(1);
        let serial = analyze(&p, &inputs, &config).unwrap();
        let batched = analyze_batched(&p, &inputs, &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{batched:?}"));
    }

    #[test]
    fn batched_threads_compose_with_lanes() {
        let p = program("(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))");
        let inputs: Vec<Vec<f64>> = (1..40)
            .map(|i| vec![0.25 / i as f64, 1e-9 / i as f64])
            .collect();
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        let config = AnalysisConfig::default()
            .with_threads(3)
            .with_batch_width(4);
        let batched = analyze_batched(&p, &inputs, &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{batched:?}"));
    }

    #[test]
    fn batched_surfaces_the_earliest_input_error() {
        let p = program("(FPCore (n) (while (< t n) ((t 0 (+ t 0.125)) (c 0 (+ c 1))) c))");
        let inputs: Vec<Vec<f64>> = (1..=8).map(|n| vec![n as f64 * 100.0]).collect();
        let config = AnalysisConfig {
            step_limit: 10,
            ..AnalysisConfig::default().with_threads(1)
        };
        let serial_err = analyze(&p, &inputs, &config).unwrap_err();
        let batched_err = analyze_batched(&p, &inputs, &config).unwrap_err();
        assert_eq!(format!("{serial_err:?}"), format!("{batched_err:?}"));
    }

    #[test]
    fn w_plus_one_inputs_exercise_every_lane() {
        // The chunking regression: 9 inputs at W=8 used to make ceil-division
        // chunks of [2, 2, 2, 2, 1], leaving 3 lanes idle for the whole
        // sweep. The balanced partition hands every lane a chunk, so the
        // first batch pass runs with a full mask.
        const W: usize = 8;
        let inputs: Vec<Vec<f64>> = (0..W as i32 + 1).map(|i| vec![f64::from(i)]).collect();
        let chunks = balanced_chunks(&inputs, W);
        assert_eq!(chunks.len(), W, "one chunk per lane");
        assert!(chunks.iter().all(|chunk| !chunk.is_empty()));
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let machine = Machine::new(&p);
        let mut tracer = BatchHerbgrind::<BigFloat, W>::new(&AnalysisConfig::default());
        let mut memory = BatchMemory::new();
        let lane_inputs: [Option<&[f64]>; W] =
            std::array::from_fn(|l| chunks[l].first().map(|input| input.as_slice()));
        let outcome = machine
            .batched::<W>()
            .run_batch(&lane_inputs, &mut tracer, &mut memory);
        assert!(outcome.errors.iter().all(Option::is_none));
        assert!(
            tracer.lanes.iter().all(|lane| lane.runs() == 1),
            "every lane shard must observe a run in the first pass"
        );
        // And the full sweep is still bit-identical to serial.
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_batch_width(W);
        let serial = analyze(&p, &inputs, &config).unwrap();
        let batched = analyze_batched(&p, &inputs, &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{batched:?}"));
    }

    #[test]
    fn probe_surfaces_the_earliest_input_error() {
        // Lane 1 fails on an earlier *pass* than lane 0, but lane 0's failing
        // input comes earlier in the sweep — the probe must surface the same
        // error the serial drivers stop at (distinguishable here by the
        // reported arity).
        let p = program("(FPCore (x) (+ x 1))");
        let inputs: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![2.0],
            vec![3.0, 3.5, 3.75], // input 2: fails in lane 0 at position 2
            vec![4.0],
            vec![], // input 4: fails in lane 1 at position 1
        ];
        let serial_err =
            analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap_err();
        let probe_err = probe_local_error::<2>(&p, &inputs, 5.0).unwrap_err();
        assert_eq!(format!("{serial_err:?}"), format!("{probe_err:?}"));
        assert!(
            matches!(probe_err, MachineError::ArityMismatch { actual: 3, .. }),
            "{probe_err:?}"
        );
    }

    #[test]
    fn probe_grows_its_shadow_table_like_the_analysis() {
        // A statement addressing beyond the space announced at on_start must
        // grow the probe's planes (mirroring the analysis's `put_shadow`),
        // not panic.
        let p = program("(FPCore (x) (+ x 1))");
        let mut probe = DdErrorProbe::<2>::new(5.0);
        let args = [1.0f64];
        let lane_inputs: [Option<&[f64]>; 2] = [Some(&args), Some(&args)];
        BatchTracer::on_start(&mut probe, &p, &lane_inputs, 0b11);
        let beyond = p.num_addrs + 7;
        probe.on_const_f(0, beyond, 2.0, 0b11);
        probe.on_copy(1, beyond + 1, beyond, &[Value::F(2.0); 2], 0b11);
        probe.on_compute(
            p.len() + 3,
            RealOp::Add,
            beyond + 2,
            &[beyond, beyond + 1],
            &[[2.0; 2], [2.0; 2]],
            &[4.0; 2],
            0b11,
        );
        probe.on_cast_to_int(2, beyond + 3, beyond + 2, &[4.0; 2], &[4; 2], 0b11);
        let summary = probe.summary();
        assert_eq!(summary.total_ops, 2);
        let row = summary
            .statements
            .iter()
            .find(|row| row.pc == p.len() + 3)
            .expect("out-of-range pc counted");
        assert_eq!(row.executions, 2);
        assert_eq!(row.erroneous, 0, "an exact add has no local error");
    }

    #[test]
    fn probe_threshold_matches_the_analysis_decision_boundary() {
        // The probe's integer ulps bound must sit exactly where the
        // analysis's rounded `log2(ulps + 1) > T` decision flips — including
        // thresholds where the naive `2^T - 1` conversion misclassifies
        // (T = 60: log2(2^60 + 1) rounds to exactly 60.0).
        for threshold in [0.0f64, 0.3, 0.5, 1.0, 4.5, 5.0, 20.0, 32.3, 60.0, 63.9] {
            let probe = DdErrorProbe::<1>::new(threshold);
            let t = probe.threshold_ulps;
            assert!(!probe.flag_all);
            assert!(
                bits_of_ulps(t) <= threshold,
                "T={threshold}: bits({t}) must not exceed the threshold"
            );
            assert!(
                bits_of_ulps(t + 1) > threshold,
                "T={threshold}: bits({}) must exceed the threshold",
                t + 1
            );
        }
        // T = 60 regression: 2^60 ulps is *not* erroneous (its rounded bits
        // are exactly 60.0), though the naive conversion flags it.
        assert!(DdErrorProbe::<1>::new(60.0).threshold_ulps >= 1u64 << 60);
        // At or above the maximum (or NaN), nothing is flagged — not even
        // the saturated NaN distance, whose bits are clamped to the maximum.
        for threshold in [shadowreal::MAX_ERROR_BITS, 100.0, f64::NAN] {
            let probe = DdErrorProbe::<1>::new(threshold);
            assert_eq!(probe.threshold_ulps, u64::MAX, "T={threshold}");
            assert!(!probe.flag_all);
        }
        // Negative thresholds flag everything, zero ulps included.
        let probe = DdErrorProbe::<1>::new(-1.0);
        assert!(probe.flag_all);
    }

    #[test]
    fn probe_flags_the_cancellation_site() {
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let inputs: Vec<Vec<f64>> = (0..24).map(|i| vec![10f64.powi(i)]).collect();
        let summary = probe_local_error::<8>(&p, &inputs, 5.0).unwrap();
        assert_eq!(summary.total_ops, 24 * 4);
        assert!(summary.statements.iter().any(|row| row.erroneous > 0));
        let worst = summary
            .statements
            .iter()
            .max_by(|a, b| a.max_error_bits.total_cmp(&b.max_error_bits))
            .unwrap();
        assert!(worst.max_error_bits > 20.0, "{worst:?}");
        // The probe's counters are width-independent.
        let serial_probe = probe_local_error::<1>(&p, &inputs, 5.0).unwrap();
        assert_eq!(summary, serial_probe);
    }

    #[test]
    fn probe_handles_loops_and_divergence() {
        let p = program("(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))");
        let inputs: Vec<Vec<f64>> = (1..14).map(|i| vec![(i * 5) as f64]).collect();
        let wide = probe_local_error::<13>(&p, &inputs, 5.0).unwrap();
        let narrow = probe_local_error::<2>(&p, &inputs, 5.0).unwrap();
        assert_eq!(wide, narrow);
        assert!(wide.total_ops > 0);
    }
}
