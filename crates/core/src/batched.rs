//! The batched analysis mode: Herbgrind over the lane-parallel execution
//! engine ([`fpvm::batch`]).
//!
//! # Architecture
//!
//! [`analyze_batched`] splits the input sweep into `W` contiguous chunks and
//! assigns chunk `l` to lane `l` — the same contiguous-chunk sharding
//! [`analyze_parallel`](crate::analysis::analyze_parallel) uses across
//! threads, but across SIMD lanes of one
//! [`BatchMachine`](fpvm::batch::BatchMachine) pass. Each lane owns a full
//! per-lane [`Herbgrind`] shard (its own shadow slot table and record slots,
//! indexed by lane), and the engine's lane tracer fans every per-group
//! callback out to the lanes of the group, so **each lane shard observes
//! exactly the serial callback sequence for its inputs**. Folding the lane
//! shards in lane order is then the same contiguous in-input-order merge the
//! parallel engine performs — which is why the batched report is
//! **bit-identical** to serial [`analyze`](crate::analysis::analyze) for
//! every batch width, divergent control flow included (the engine replays
//! each lane's serial statement sequence regardless of grouping).
//!
//! A compute group runs the serial per-op steps lane by lane — exact result
//! and local error, result trace, shadow tail and record update — so there
//! is one record path for both engines. What the batch adds is lockstep
//! execution (tape dispatch, the tracer callback and the client `f64`
//! arithmetic once per group) and cross-lane trace sharing: one trace
//! interner per pass instead of one per lane, and deep trace nodes (past the
//! interning depth bound) built once per group for lanes that observed the
//! same value over the same operand traces. [`probe_local_error`] shows
//! the engine's throughput with all record bookkeeping stripped to
//! FpDebug-style per-statement error counters.
//!
//! The sweep runs on the batched fault-isolating engine in
//! [`crate::quarantine`] as one chunk: one lane sweep of every input, whose
//! state is the sweep's outcome when no lane faults. A faulted lane or a
//! panicking pass sends every input back through the serial engine, whose
//! per-input verdicts decide the quarantine. [`AnalysisConfig::threads`] does
//! not reach the engine. [`analyze_batched`] is the engine's fail-fast view.

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use crate::analysis::{build_compute_trace, intern_depth_bound, AnalysisState, Herbgrind};
use crate::config::AnalysisConfig;
use crate::localerr::{bits_of_ulps, UlpsThreshold};
use crate::quarantine::{batched_family, fail_fast};
use crate::report::Report;
use crate::trace::{ConcreteExpr, ExprInterner};
use fpcore::CmpOp;
use fpvm::batch::{full_mask, lane_active, lane_indices, BatchMemory, BatchTracer, LaneMask};
use fpvm::{Addr, Machine, MachineError, Program, Tracer, Value, MAX_ARITY, MAX_LANES};
use shadowreal::{apply_f64_lanes, BigFloat, DdLanes, Real, RealOp};
use std::sync::Arc;

/// The lane widths the batched engine is compiled for. Requested widths
/// ([`AnalysisConfig::batch_width`]) outside this menu fall back to the
/// nearest smaller entry; the report is bit-identical either way, so the
/// width only affects throughput. The menu covers the power-of-two widths
/// the vectorized kernels target plus a prime width (13) so non-uniform
/// remainder chunking stays exercised.
pub const SUPPORTED_BATCH_WIDTHS: &[usize] = &[1, 2, 4, 8, 13, 16];

/// Evaluates `$body` with the const `$W` bound to the compiled lane width
/// for `$width`, an entry of [`SUPPORTED_BATCH_WIDTHS`] (anything else runs
/// single-lane): the one place a runtime width becomes a compile-time one.
macro_rules! with_lane_width {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            2 => {
                const $W: usize = 2;
                $body
            }
            4 => {
                const $W: usize = 4;
                $body
            }
            8 => {
                const $W: usize = 8;
                $body
            }
            13 => {
                const $W: usize = 13;
                $body
            }
            16 => {
                const $W: usize = 16;
                $body
            }
            _ => {
                const $W: usize = 1;
                $body
            }
        }
    };
}
pub(crate) use with_lane_width;

/// The lane schedule of a batched sweep over `len` inputs at width `W`: one
/// item per batch pass, mapping each lane to the index of the input it runs
/// in that pass (`None` once its chunk is used up). Lane `l` walks the
/// `l`-th chunk of [`balanced_chunks`](crate::analysis::balanced_chunks)
/// front to back, so chunk lengths differ by at most one (a sweep of at
/// least `W` inputs keeps every lane busy) and lane order is input order —
/// folding lane shards in lane order is the in-input-order merge.
fn lane_passes<const W: usize>(len: usize) -> impl Iterator<Item = [Option<usize>; W]> {
    let lanes = W.min(len).max(1);
    let (base, extra) = (len / lanes, len % lanes);
    (0..base + usize::from(extra > 0)).map(move |position| {
        std::array::from_fn(|l| {
            let chunk_len = base + usize::from(l < extra);
            (l < lanes && position < chunk_len).then(|| l * base + l.min(extra) + position)
        })
    })
}

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
/// methods. A compute event runs the serial per-op steps for each active
/// lane in lane order: [`crate::localerr::local_error_ref`] for the exact
/// result and local error, the result node through the pass's shared
/// interner ([`ExprInterner::node_ref`]), and the shadow tail with
/// [`OpRecord::record_bounded`](crate::records::OpRecord::record_bounded).
/// Lanes share trace allocations in two ways: leaves and shallow nodes come
/// from the one group interner, and a deep node (too deep to intern) is
/// reused from an earlier lane of the group with the same value bits and
/// pointer-equal operand traces. Constant loads intern one leaf per group.
/// Sharing is invisible to the analysis output, so every lane shard holds
/// exactly the serial per-input state and the lane-order merge stays
/// bit-identical to serial [`analyze`](crate::analysis::analyze).
#[derive(Debug)]
pub(crate) struct BatchHerbgrind<R: Real, const W: usize> {
    lanes: Vec<Herbgrind<R>>,
    config: AnalysisConfig,
    /// The group-level trace interner: one hash-consing table shared by all
    /// lane shards, so value-identical lanes share allocations (which in
    /// turn keeps operand pointers identical across lanes, so the next
    /// statement's nodes are shared too, and the anti-unification hits its
    /// pointer-identity short-circuits). Per-run state like shadow memory:
    /// cleared at the start of every batch pass.
    interner: ExprInterner,
    /// Per-lane analysis-side faults (group trace-budget exhaustion,
    /// injected failures) awaiting delivery through the batch scheduler's
    /// per-group [`BatchTracer::lane_fault`] poll, which masks the lane out.
    lane_faults: [Option<MachineError>; MAX_LANES],
}

impl<R: Real, const W: usize> BatchHerbgrind<R, W> {
    /// One analysis shard per lane. The configuration is normalized
    /// ([`AnalysisConfig::normalize`]) like the serial analysis does, so the
    /// group-level trace construction and the lane shards agree on every
    /// clamped parameter.
    fn new(config: &AnalysisConfig) -> Self {
        let config = config.normalize();
        BatchHerbgrind {
            lanes: (0..W).map(|_| Herbgrind::new(config.clone())).collect(),
            config,
            interner: ExprInterner::new(),
            lane_faults: std::array::from_fn(|_| None),
        }
    }

    /// Folds the lane shards in lane order — with contiguous-chunk lane
    /// assignment this is the in-input-order merge whose result is
    /// bit-identical to one serial sweep.
    fn into_merged(self) -> Herbgrind<R> {
        let mut lanes = self.lanes.into_iter();
        let mut merged = lanes.next().expect("at least one lane");
        for lane in lanes {
            merged.merge(lane);
        }
        merged
    }
}

impl<R: Real, const W: usize> BatchTracer<W> for BatchHerbgrind<R, W> {
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
        // Deterministic fault injection, consulted through each active
        // lane's shard before any analysis work: an injected panic unwinds
        // the whole pass (like a real crashing shadow op would), and a budget
        // fault the shard latches moves to the lane's fault slot, delivered
        // through the scheduler's per-group poll. The shards are armed only
        // at lane stages, where NaN poisoning is a no-op.
        #[cfg(feature = "fault-injection")]
        for l in lane_indices(mask) {
            self.lanes[l].consult_injection(pc);
            if let Some(fault) = self.lanes[l].fault() {
                self.lane_faults[l] = Some(fault);
            }
        }
        let BatchHerbgrind {
            lanes,
            config,
            interner,
            lane_faults,
        } = self;
        let n = args.len();
        let intern_bound = intern_depth_bound(config);
        // Per lane, the serial steps up to the result trace: lazy operand
        // shadows (leaves through the group interner), exact result and local
        // error, and the result node through the group interner. A deep
        // node (past the interning bound, so never in the table) is taken
        // from an earlier lane of the group with the same value bits and the
        // same operand traces. The deep keys hold operand-trace addresses:
        // this loop writes no lane's current-run shadows (lazy leaves fill
        // only empty or stale slots), so every keyed trace stays alive until
        // the shadow tails below.
        let mut steps: [Option<(f64, R, Arc<ConcreteExpr>)>; W] = std::array::from_fn(|_| None);
        let mut deep_keys: [Option<(u64, [usize; MAX_ARITY])>; W] = [None; W];
        for l in lane_indices(mask) {
            let lane = &mut lanes[l];
            for (&addr, values) in args.iter().zip(arg_values) {
                lane.ensure_shadow_in(interner, addr, values[l]);
            }
            let lane: &Herbgrind<R> = lane;
            let (local_err, exact) = lane.local_error(op, args);
            let children = lane.operand_traces(args);
            let children = &children[..n];
            let depth = 1 + children.iter().map(|c| c.depth()).max().unwrap_or(0);
            let shared = if depth > intern_bound {
                let mut ptrs = [0usize; MAX_ARITY];
                for (ptr, child) in ptrs.iter_mut().zip(children) {
                    *ptr = Arc::as_ptr(child) as usize;
                }
                deep_keys[l] = Some((results[l].to_bits(), ptrs));
                let shared = deep_keys[..l].iter().position(|k| *k == deep_keys[l]);
                match shared {
                    Some(_) => telemetry::BATCH_GROUP_SHARED_NODES.incr(),
                    None => telemetry::BATCH_GROUP_SPLIT_NODES.incr(),
                }
                shared
            } else {
                None
            };
            let node = match shared {
                Some(p) => Arc::clone(&steps[p].as_ref().expect("earlier lane step").2),
                None => build_compute_trace(
                    config,
                    interner,
                    lane.location(pc),
                    pc,
                    op,
                    children,
                    results[l],
                ),
            };
            steps[l] = Some((local_err, exact, node));
        }

        // Per lane, the serial tail: influences, compensation, destination
        // write and record update.
        let mut lane_args = [0.0f64; MAX_ARITY];
        for l in lane_indices(mask) {
            for (slot, values) in lane_args.iter_mut().zip(arg_values) {
                *slot = values[l];
            }
            let (local_err, exact, node) = steps[l].take().expect("lane step");
            lanes[l].finish_compute(
                pc,
                op,
                dest,
                args,
                &lane_args[..n],
                results[l],
                local_err,
                exact,
                node,
            );
        }

        // Trace-memory budget on the group interner — the batched
        // counterpart of the serial per-run check. The table is shared by
        // every lane, so attribution is collective: all active lanes fault,
        // and the batched engine's serial re-run (per-input interner)
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

/// Runs one batched sweep at compile-time width `W` over the balanced
/// contiguous lane schedule ([`lane_passes`]) and returns the lane-order
/// merge of its lane shards, or `None` at the first pass in which any lane
/// faults: a faulted run's partial records make the accumulated state
/// unusable, and the isolating engine re-runs the chunk serially. Panics
/// unwind to the caller.
///
/// `inject` (fault-injection builds only) arms the lanes at that pipeline
/// stage, or is `None` for unarmed sweeps; `inputs` is the whole sweep, so
/// an input's index is its sweep-global one.
pub(crate) fn batched_sweep_collect<R: Real, const W: usize>(
    machine: &Machine<'_>,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
    #[cfg(feature = "fault-injection")] inject: Option<crate::faultinject::InjectStage>,
) -> Option<AnalysisState> {
    let batch = machine.batched::<W>();
    let mut tracer = BatchHerbgrind::<R, W>::new(config);
    let mut memory = BatchMemory::new();
    for lanes in lane_passes::<W>(inputs.len()) {
        #[cfg(feature = "fault-injection")]
        if let Some(stage) = inject {
            for (shard, ix) in tracer.lanes.iter_mut().zip(lanes) {
                shard.arm_injection(ix.map(|ix| (ix, stage)));
            }
        }
        let lane_inputs = lanes.map(|ix| ix.map(|ix| inputs[ix].as_slice()));
        let outcome = batch.run_batch(&lane_inputs, &mut tracer, &mut memory);
        if outcome.errors.iter().any(Option::is_some) {
            return None;
        }
    }
    Some(tracer.into_merged().into_state())
}

/// Runs a program under the batched analysis for every input vector, using
/// the default [`BigFloat`] shadow reals.
///
/// Interchangeable with [`analyze`](crate::analysis::analyze) and
/// [`analyze_parallel`](crate::analysis::analyze_parallel): the report is
/// bit-identical for every batch width, enforced by the batch-equivalence
/// test suite — except that, as for the thread shards of `analyze_parallel`,
/// lane shards holding loop runs shorter than
/// [`AnalysisConfig::max_expression_depth`] can lose input-range
/// contributions in the merge (DESIGN.md, "Parallel engine"). The sweep
/// runs as one chunk, so [`AnalysisConfig::threads`] does not reach it.
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

/// Runs the batched analysis with an explicit shadow-real type. Every
/// shadow type evaluates with its scalar kernels lane by lane, exactly as
/// the serial analysis does; the batch amortizes decode and dispatch and
/// shares trace nodes across lanes.
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
pub fn analyze_batched_with_shadow<R: Real + Send>(
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

/// Per-statement summary produced by [`probe_local_error`]: FpDebug-style
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

/// The local error of `op` per lane, in ulps, from the `DoubleDouble`
/// operand planes and the exact result plane: the float re-evaluation on the
/// rounded operands (the hi planes) against the rounded exact result
/// (`exact.hi`), exactly as [`shadowreal::ulps_between`] measures it.
#[inline]
fn local_error_ulps<const W: usize>(
    op: RealOp,
    operands: &[DdLanes<W>],
    exact: &DdLanes<W>,
) -> [u64; W] {
    // The rounded exact operands are the hi planes, so the float
    // re-evaluation is one vectorized lane call.
    let mut rounded = [[0.0f64; W]; MAX_ARITY];
    for (lanes, operand) in rounded.iter_mut().zip(operands) {
        *lanes = operand.hi;
    }
    let float_results = apply_f64_lanes(op, &rounded[..operands.len()]);
    // Branch-free ulps distance per lane, with the (rare) NaN lanes patched
    // afterwards so every lane agrees exactly with
    // `shadowreal::ulps_between`. NaN detection is itself branch-free:
    // `x * 0.0` is NaN iff `x` is non-finite, and a non-finite shadow or
    // float result is exactly the case the slow path must arbitrate.
    let mut ulps = [0u64; W];
    let mut nonfinite_probe = 0.0f64;
    for l in 0..W {
        ulps[l] = branchless_ordinal(float_results[l]).abs_diff(branchless_ordinal(exact.hi[l]));
        nonfinite_probe += float_results[l] * 0.0 + exact.hi[l] * 0.0;
    }
    if nonfinite_probe.is_nan() {
        for l in 0..W {
            ulps[l] = shadowreal::ulps_between(float_results[l], exact.hi[l]);
        }
    }
    ulps
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
pub(crate) struct DdErrorProbe<const W: usize> {
    shadows: Vec<DdLanes<W>>,
    executions: Vec<u64>,
    erroneous: Vec<u64>,
    max_ulps: Vec<u64>,
    threshold: UlpsThreshold,
    total_ops: u64,
}

impl<const W: usize> DdErrorProbe<W> {
    /// A probe flagging statements whose local error exceeds
    /// `threshold_bits` ([`UlpsThreshold`]).
    fn new(threshold_bits: f64) -> Self {
        DdErrorProbe {
            shadows: Vec::new(),
            executions: Vec::new(),
            erroneous: Vec::new(),
            max_ulps: Vec::new(),
            threshold: UlpsThreshold::new(threshold_bits),
            total_ops: 0,
        }
    }

    /// Folds the counters into an ordered summary.
    fn summary(&self) -> LocalErrorSummary {
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
        let ulps = local_error_ulps(op, &operands[..args.len()], &exact);
        let mut erroneous = 0u64;
        self.ensure_pc(pc);
        let mut max_ulps = self.max_ulps[pc];
        let full = full_mask(W);
        if mask == full {
            for &u in &ulps {
                erroneous += u64::from(self.threshold.exceeded_by(u));
                max_ulps = max_ulps.max(u);
            }
        } else {
            for (l, &lane_ulps) in ulps.iter().enumerate() {
                let active = lane_active(mask, l);
                let u = if active { lane_ulps } else { 0 };
                erroneous += u64::from(active && self.threshold.exceeded_by(u));
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

/// Sweeps `inputs` through the lane-vectorized `DoubleDouble` local-error
/// probe at compile-time width `W`, with the same balanced contiguous lane
/// chunking as [`analyze_batched`], and returns the per-statement
/// local-error summary.
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
    let mut probe = DdErrorProbe::<W>::new(threshold_bits);
    let mut memory = BatchMemory::new();
    // The earliest failure so far, by lane: lanes from it upward stop.
    let mut failure: Option<(usize, MachineError)> = None;
    for lanes in lane_passes::<W>(inputs.len()) {
        let live = failure.as_ref().map_or(W, |(lane, _)| *lane);
        let lane_inputs: [Option<&[f64]>; W] = std::array::from_fn(|l| {
            lanes[l]
                .filter(|_| l < live)
                .map(|ix| inputs[ix].as_slice())
        });
        if lane_inputs.iter().all(Option::is_none) {
            break;
        }
        let outcome = batch.run_batch(&lane_inputs, &mut probe, &mut memory);
        if let Some(lane) = (0..live).find(|&l| outcome.errors[l].is_some()) {
            failure = outcome.errors[lane].clone().map(|error| (lane, error));
        }
    }
    match failure {
        Some((_, error)) => Err(error),
        None => Ok(probe.summary()),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test assertions may unwrap freely

    use super::*;
    use crate::analysis::{analyze, balanced_chunks};
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
    fn lane_schedule_is_the_balanced_contiguous_split() {
        for &width in SUPPORTED_BATCH_WIDTHS {
            assert_eq!(
                with_lane_width!(width, W => W),
                width,
                "dispatch of width {width}"
            );
            for len in 0..=40usize {
                let passes: Vec<Vec<Option<usize>>> = with_lane_width!(width, W => lane_passes::<W>(len).map(|p| p.to_vec()).collect());
                let context = format!("width={width} len={len}");
                assert!(
                    passes.iter().all(|p| p.iter().any(Option::is_some)),
                    "{context}"
                );
                // Each lane's inputs, pass by pass: a run of `Some` and then
                // only `None`.
                let lanes: Vec<Vec<usize>> = (0..width)
                    .map(|l| {
                        let run: Vec<usize> = passes.iter().map_while(|p| p[l]).collect();
                        assert!(
                            passes[run.len()..].iter().all(|p| p[l].is_none()),
                            "{context}"
                        );
                        run
                    })
                    .filter(|run| !run.is_empty())
                    .collect();
                // Lanes hold contiguous runs, in input order, visiting every
                // index exactly once...
                let visited: Vec<usize> = lanes.iter().flatten().copied().collect();
                assert_eq!(visited, (0..len).collect::<Vec<_>>(), "{context}");
                // ...and those runs are exactly the balanced chunks.
                let items: Vec<usize> = (0..len).collect();
                let chunks: Vec<&[usize]> = balanced_chunks(&items, width)
                    .into_iter()
                    .filter(|chunk| !chunk.is_empty())
                    .collect();
                let runs: Vec<&[usize]> = lanes.iter().map(Vec::as_slice).collect();
                assert_eq!(runs, chunks, "{context}");
            }
        }
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
    fn batched_reports_ignore_the_thread_count() {
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
    fn lanes_with_one_trip_count_share_deep_trace_nodes() {
        // Every lane counts 40 iterations, well past the interning depth
        // bound, so the counter's deep nodes never enter the interner: only
        // the cross-lane reuse makes the lanes' counter traces one
        // allocation. Reports are the same without the reuse, so this is its
        // only pin besides throughput.
        const W: usize = 8;
        let p = program("(FPCore (n) (while (< i n) ((i 0 (+ i 1)) (c 0 (+ c 1))) c))");
        let inputs: Vec<Vec<f64>> = (0..W).map(|l| vec![39.5 + l as f64 / 32.0]).collect();
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_batch_width(W);
        let counter = p
            .statements
            .iter()
            .find_map(|statement| match statement {
                fpvm::Statement::Output { src } => Some(*src),
                _ => None,
            })
            .unwrap();
        let mut tracer = BatchHerbgrind::<BigFloat, W>::new(&config);
        let lane_inputs: [Option<&[f64]>; W] = std::array::from_fn(|l| Some(inputs[l].as_slice()));
        let outcome = Machine::new(&p).batched::<W>().run_batch(
            &lane_inputs,
            &mut tracer,
            &mut BatchMemory::new(),
        );
        assert!(outcome.errors.iter().all(Option::is_none));
        let traces: Vec<&Arc<ConcreteExpr>> = tracer
            .lanes
            .iter()
            .map(|lane| lane.operand_traces(&[counter])[0])
            .collect();
        assert_eq!(traces[0].depth(), 40);
        assert!(traces[0].depth() > intern_depth_bound(&config));
        assert!(
            traces.iter().all(|trace| Arc::ptr_eq(trace, traces[0])),
            "every lane's counter trace must be the same node"
        );

        let capture = crate::SweepCapture::begin(crate::TelemetryMode::On);
        let batched = analyze_batched(&p, &inputs, &config).unwrap();
        let telemetry = capture.finish();
        assert!(telemetry.counter("batch.group_shared_nodes") > 0);
        let serial = analyze(&p, &inputs, &config).unwrap();
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
