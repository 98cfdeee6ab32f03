//! Batched lane-parallel execution: one pass over the pre-decoded tape
//! drives a SIMD-width batch of inputs.
//!
//! The serial interpreter pays decode, dispatch, and tracer-callback cost
//! once *per input per statement*, even though every input of a sweep walks
//! the same execution tape. [`BatchMachine`] amortizes that: a batch of `W`
//! inputs (*lanes*) executes in lockstep, machine memory is laid out
//! struct-of-arrays (`Vec<[f64; W]>` — one lane array per address, so the
//! per-statement arithmetic is a contiguous lane loop the compiler can
//! vectorize), and a [`BatchTracer`] receives **one callback per statement
//! per convergent lane group**, not one per lane.
//!
//! # Divergence
//!
//! Lanes that disagree on a conditional branch are split into convergent
//! sub-groups tracked by an active-lane bitmask ([`LaneMask`]). The
//! scheduler always advances the group with the smallest program counter,
//! merging groups that meet at the same statement — the classic SIMT
//! reconvergence discipline, which restores full batches at loop exits and
//! `if`/`else` join points of structured programs. Each lane therefore
//! executes exactly the statement sequence the serial interpreter would have
//! executed for its input, in its serial order; only the interleaving
//! *between* disjoint lanes differs, which no per-lane observer can see.
//!
//! Lanes fail individually: a lane that exhausts its step budget (or leaves
//! the program) is masked out and its [`MachineError`] recorded in the
//! [`BatchOutcome`], while the surviving lanes continue — mirroring how the
//! sharded analysis driver treats per-input failures.

use crate::interp::{Inst, Machine, MachineError, RunResult, MAX_ARITY};
use crate::program::{Addr, Program, Value};
use fpcore::CmpOp;
use shadowreal::RealOp;
use std::sync::Arc;

/// A bitmask of active lanes (bit `l` set = lane `l` participates).
pub type LaneMask = u32;

/// The widest supported batch: a [`LaneMask`] must have one bit per lane.
pub const MAX_LANES: usize = 32;

/// Iterates over the lane indices set in a mask, in ascending order.
#[derive(Clone, Copy, Debug)]
pub struct LaneIndices(LaneMask);

impl Iterator for LaneIndices {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// The lanes set in `mask`, ascending.
#[inline]
pub fn lane_indices(mask: LaneMask) -> LaneIndices {
    LaneIndices(mask)
}

/// The mask with the `n` lowest lanes set.
#[inline]
pub fn full_mask(n: usize) -> LaneMask {
    debug_assert!(n <= MAX_LANES);
    if n >= MAX_LANES {
        LaneMask::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// True if lane `l` is set in `mask`.
#[inline]
pub fn lane_active(mask: LaneMask, l: usize) -> bool {
    (mask >> l) & 1 == 1
}

/// A batched execution observer: the lane-parallel analogue of
/// [`Tracer`](crate::Tracer).
///
/// Every hook receives the whole lane group that executed the statement —
/// per-lane values in `[_; W]` arrays plus the group's [`LaneMask`] — in one
/// call. **Entries of lanes outside the mask are unspecified** (they hold
/// whatever the struct-of-arrays memory held); observers must consult the
/// mask. As with `Tracer`, hooks run *after* the statement's effect on
/// machine memory.
#[allow(unused_variables)]
pub trait BatchTracer<const W: usize> {
    /// A batch pass is starting. `lane_inputs[l]` is `Some(args)` for each
    /// participating lane; `mask` has the lanes that passed arity validation.
    fn on_start(&mut self, program: &Program, lane_inputs: &[Option<&[f64]>; W], mask: LaneMask) {}
    /// A floating-point operation executed for a lane group. `arg_values[i]`
    /// holds operand `i` for every lane; `results` the per-lane outcomes.
    #[allow(clippy::too_many_arguments)]
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
    }
    /// A float constant was loaded by a lane group.
    fn on_const_f(&mut self, pc: usize, dest: Addr, value: f64, mask: LaneMask) {}
    /// An integer constant was loaded by a lane group.
    fn on_const_i(&mut self, pc: usize, dest: Addr, value: i64, mask: LaneMask) {}
    /// A value was copied between addresses by a lane group.
    fn on_copy(&mut self, pc: usize, dest: Addr, src: Addr, values: &[Value; W], mask: LaneMask) {}
    /// A float was converted to an integer by a lane group (a spot).
    #[allow(clippy::too_many_arguments)]
    fn on_cast_to_int(
        &mut self,
        pc: usize,
        dest: Addr,
        src: Addr,
        values: &[f64; W],
        results: &[i64; W],
        mask: LaneMask,
    ) {
    }
    /// A conditional branch was evaluated by a lane group (a spot). `taken`
    /// is the sub-mask of lanes whose predicate held; a `taken` that is
    /// neither empty nor the whole group splits the group.
    #[allow(clippy::too_many_arguments)]
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
    }
    /// A value was output by a lane group (a spot).
    fn on_output(&mut self, pc: usize, src: Addr, values: &[f64; W], mask: LaneMask) {}
    /// Cheap pass-level poll, checked once per scheduled lane group: `true`
    /// when at least one lane has a pending fault to report through
    /// [`BatchTracer::lane_fault`]. Must stay `true` until every pending
    /// lane fault has been drained.
    fn any_fault(&self) -> bool {
        false
    }
    /// Reports and clears the pending fault for one lane, if any. Only
    /// called while [`BatchTracer::any_fault`] returns `true`; a faulted
    /// lane is masked out before it executes another statement.
    fn lane_fault(&mut self, lane: usize) -> Option<MachineError> {
        None
    }
}

/// A batch tracer that observes nothing — the uninstrumented baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullBatchTracer;

impl<const W: usize> BatchTracer<W> for NullBatchTracer {}

/// Struct-of-arrays lane memory: one `[_; W]` lane array per address.
///
/// The float plane always mirrors [`Value::as_f64`] of every cell, so
/// numeric reads (compute operands, branch comparisons, outputs) are a
/// single contiguous lane-array load; the integer plane plus a per-address
/// lane bitmask preserve exact integer values and float/int kinds so
/// [`Value`]s can be reconstructed for observers and copies.
#[derive(Clone, Debug, Default)]
pub struct BatchMemory<const W: usize> {
    floats: Vec<[f64; W]>,
    ints: Vec<[i64; W]>,
    int_lanes: Vec<LaneMask>,
}

impl<const W: usize> BatchMemory<W> {
    /// An empty lane memory; [`BatchMachine::run_batch`] sizes it on entry.
    pub fn new() -> Self {
        BatchMemory {
            floats: Vec::new(),
            ints: Vec::new(),
            int_lanes: Vec::new(),
        }
    }

    /// Clears and re-zeroes the memory for `num_addrs` addresses, keeping
    /// the allocations (the serial machine's `Value::F(0.0)` init).
    fn reset(&mut self, num_addrs: usize) {
        self.floats.clear();
        self.floats.resize(num_addrs, [0.0; W]);
        self.ints.clear();
        self.ints.resize(num_addrs, [0; W]);
        self.int_lanes.clear();
        self.int_lanes.resize(num_addrs, 0);
    }

    /// The machine value of `addr` in lane `l`.
    pub fn value(&self, addr: Addr, l: usize) -> Value {
        if lane_active(self.int_lanes[addr], l) {
            Value::I(self.ints[addr][l])
        } else {
            Value::F(self.floats[addr][l])
        }
    }

    /// Reconstructs the per-lane [`Value`]s of one address. All-float
    /// addresses (the overwhelmingly common case — branches and copies hit
    /// this once per loop iteration) take a branch-free lane loop.
    fn values(&self, addr: Addr) -> [Value; W] {
        let ints = self.int_lanes[addr];
        if ints == 0 {
            let floats = &self.floats[addr];
            return std::array::from_fn(|l| Value::F(floats[l]));
        }
        let mut out = [Value::F(0.0); W];
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = if lane_active(ints, l) {
                Value::I(self.ints[addr][l])
            } else {
                Value::F(self.floats[addr][l])
            };
        }
        out
    }
}

/// The observable result of one batch pass: per-lane run results plus
/// per-lane failures. A lane with an error stopped at that error (its
/// outputs so far are kept); lanes that were never supplied an input have a
/// default [`RunResult`] and no error.
#[derive(Clone, Debug)]
pub struct BatchOutcome<const W: usize> {
    /// Per-lane outputs and step counts, exactly what the serial
    /// interpreter's [`RunResult`] would hold for that lane's input.
    pub lanes: [RunResult; W],
    /// Per-lane failures (step budget, control flow leaving the program,
    /// arity mismatches).
    pub errors: [Option<MachineError>; W],
}

impl<const W: usize> BatchOutcome<W> {
    fn new() -> Self {
        BatchOutcome {
            lanes: std::array::from_fn(|_| RunResult::default()),
            errors: std::array::from_fn(|_| None),
        }
    }

    /// The lowest-indexed lane that failed, with its error — under the
    /// contiguous-chunk lane assignment the analysis drivers use, this is
    /// the failure the serial sweep would have stopped at first.
    pub fn first_error(&self) -> Option<(usize, &MachineError)> {
        self.errors
            .iter()
            .enumerate()
            .find_map(|(l, e)| e.as_ref().map(|e| (l, e)))
    }
}

/// One convergent sub-group of lanes: a program counter and the lanes
/// sitting at it.
#[derive(Clone, Copy, Debug)]
struct Group {
    pc: usize,
    mask: LaneMask,
}

/// The batched machine interpreter: the serial [`Machine`]'s tape, walked
/// with a lane mask. Construct via [`Machine::batched`], which shares the
/// already-decoded tape.
#[derive(Clone, Debug)]
pub struct BatchMachine<'p, const W: usize> {
    program: &'p Program,
    tape: Arc<[Inst]>,
    step_limit: u64,
    deadline_millis: Option<u64>,
}

impl<'p> Machine<'p> {
    /// A `W`-lane batched view of this machine, sharing the decoded tape.
    ///
    /// # Panics
    ///
    /// Panics if `W` is zero or exceeds [`MAX_LANES`].
    pub fn batched<const W: usize>(&self) -> BatchMachine<'p, W> {
        assert!(
            W >= 1 && W <= MAX_LANES,
            "batch width {W} outside 1..={MAX_LANES}"
        );
        BatchMachine {
            program: self.program,
            tape: Arc::clone(&self.tape),
            step_limit: self.step_limit,
            deadline_millis: self.deadline_millis,
        }
    }
}

impl<'p, const W: usize> BatchMachine<'p, W> {
    /// The program this machine executes.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Runs one batch pass: every `Some` lane of `lane_inputs` executes the
    /// program on its own arguments, in lockstep groups. `memory` is reset
    /// on entry and reused across passes, so a sweep performs no per-pass
    /// allocation beyond output collection.
    ///
    /// Failures are per-lane (see [`BatchOutcome`]); the pass itself always
    /// completes.
    pub fn run_batch<T: BatchTracer<W> + ?Sized>(
        &self,
        lane_inputs: &[Option<&[f64]>; W],
        tracer: &mut T,
        memory: &mut BatchMemory<W>,
    ) -> BatchOutcome<W> {
        let program = self.program;
        let mut outcome = BatchOutcome::new();
        let mut mask: LaneMask = 0;
        for (l, input) in lane_inputs.iter().enumerate() {
            let Some(args) = input else { continue };
            if args.len() != program.arg_addrs.len() {
                outcome.errors[l] = Some(MachineError::ArityMismatch {
                    expected: program.arg_addrs.len(),
                    actual: args.len(),
                });
            } else {
                mask |= 1 << l;
            }
        }
        memory.reset(program.num_addrs);
        for l in lane_indices(mask) {
            let args = lane_inputs[l].expect("masked lane has input");
            for (&addr, &value) in program.arg_addrs.iter().zip(args) {
                memory.floats[addr][l] = value;
            }
        }
        tracer.on_start(program, lane_inputs, mask);

        let deadline = self.deadline_millis.map(|ms| {
            (
                std::time::Instant::now() + std::time::Duration::from_millis(ms),
                ms,
            )
        });
        let mut ticks = 0u64;
        let mut steps = [0u64; W];
        // Telemetry accumulators: plain locals bumped only on the (rare)
        // split/merge events, flushed once at pass end behind a single
        // `telemetry::enabled()` check — nothing per-instruction.
        let mut divergences = 0u64;
        let mut reconverges = 0u64;
        let mut pending: Vec<Group> = Vec::new();
        if mask != 0 {
            pending.push(Group { pc: 0, mask });
        }

        // Outer scheduling loop: pick the group with the smallest pc (SIMT
        // reconvergence — the trailing group always catches up before the
        // leader moves on).
        'schedule: while let Some(next) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.pc)
            .map(|(i, _)| i)
        {
            let mut cur = pending.swap_remove(next);
            // Smallest pc among the parked groups: the current group runs
            // scan-free until its pc reaches it (between pushes, `cur.pc`
            // only moves by +1 or an already-minimal jump), so convergent
            // stretches pay no per-instruction scheduling cost.
            let mut min_pending = pending.iter().map(|g| g.pc).min().unwrap_or(usize::MAX);
            loop {
                // Merge any group that reached the same statement, and yield
                // to any group that fell behind the current pc.
                if min_pending <= cur.pc {
                    let mut min_other = usize::MAX;
                    pending.retain(|g| {
                        if g.pc == cur.pc {
                            cur.mask |= g.mask;
                            reconverges += 1;
                            false
                        } else {
                            min_other = min_other.min(g.pc);
                            true
                        }
                    });
                    min_pending = min_other;
                    if min_other < cur.pc {
                        pending.push(cur);
                        continue 'schedule;
                    }
                }

                // Per-lane step budget, checked before execution exactly as
                // the serial interpreter does.
                for l in lane_indices(cur.mask) {
                    if steps[l] >= self.step_limit {
                        outcome.errors[l] = Some(MachineError::StepBudgetExceeded {
                            limit: self.step_limit,
                        });
                        cur.mask &= !(1 << l);
                    }
                }
                // Pass-level wall-clock deadline: every still-active lane —
                // the current group and every parked one — fails together,
                // and the pass completes with per-lane errors.
                if ticks & 1023 == 0 {
                    if let Some((at, millis)) = deadline {
                        if std::time::Instant::now() >= at {
                            for l in lane_indices(cur.mask) {
                                outcome.errors[l] = Some(MachineError::DeadlineExceeded { millis });
                            }
                            for g in pending.drain(..) {
                                for l in lane_indices(g.mask) {
                                    outcome.errors[l] =
                                        Some(MachineError::DeadlineExceeded { millis });
                                }
                            }
                            continue 'schedule;
                        }
                    }
                }
                ticks += 1;
                // Tracer faults (analysis-side budgets, injected failures):
                // drained before the lane executes another statement.
                if tracer.any_fault() {
                    for l in lane_indices(cur.mask) {
                        if let Some(err) = tracer.lane_fault(l) {
                            outcome.errors[l] = Some(err);
                            cur.mask &= !(1 << l);
                        }
                    }
                }
                if cur.mask == 0 {
                    continue 'schedule;
                }
                for (l, count) in steps.iter_mut().enumerate() {
                    *count += u64::from((cur.mask >> l) & 1);
                }

                let pc = cur.pc;
                let Some(inst) = self.tape.get(pc) else {
                    for l in lane_indices(cur.mask) {
                        outcome.errors[l] = Some(MachineError::PcOutOfRange { pc });
                    }
                    continue 'schedule;
                };
                match inst {
                    Inst::Halt => continue 'schedule,
                    Inst::ConstF { dest, value } => {
                        let lanes = &mut memory.floats[*dest];
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            if lane_active(cur.mask, l) {
                                *lane = *value;
                            }
                        }
                        memory.int_lanes[*dest] &= !cur.mask;
                        tracer.on_const_f(pc, *dest, *value, cur.mask);
                        cur.pc += 1;
                    }
                    Inst::ConstI { dest, value } => {
                        for l in 0..W {
                            if lane_active(cur.mask, l) {
                                memory.ints[*dest][l] = *value;
                                memory.floats[*dest][l] = *value as f64;
                            }
                        }
                        memory.int_lanes[*dest] |= cur.mask;
                        tracer.on_const_i(pc, *dest, *value, cur.mask);
                        cur.pc += 1;
                    }
                    Inst::Copy { dest, src } => {
                        let src_floats = memory.floats[*src];
                        let src_ints = memory.ints[*src];
                        let src_int_lanes = memory.int_lanes[*src];
                        let values = memory.values(*src);
                        for l in 0..W {
                            if lane_active(cur.mask, l) {
                                memory.floats[*dest][l] = src_floats[l];
                                memory.ints[*dest][l] = src_ints[l];
                            }
                        }
                        memory.int_lanes[*dest] =
                            (memory.int_lanes[*dest] & !cur.mask) | (src_int_lanes & cur.mask);
                        tracer.on_copy(pc, *dest, *src, &values, cur.mask);
                        cur.pc += 1;
                    }
                    Inst::Compute {
                        dest,
                        op,
                        arity,
                        args,
                    } => {
                        let addrs = &args[..*arity as usize];
                        let mut values = [[0.0f64; W]; MAX_ARITY];
                        for (lanes, &addr) in values.iter_mut().zip(addrs) {
                            *lanes = memory.floats[addr];
                        }
                        let results = apply_lanewise_f64(*op, &values[..addrs.len()]);
                        if cur.mask == full_mask(W) {
                            memory.floats[*dest] = results;
                        } else {
                            let lanes = &mut memory.floats[*dest];
                            for l in 0..W {
                                if lane_active(cur.mask, l) {
                                    lanes[l] = results[l];
                                }
                            }
                        }
                        memory.int_lanes[*dest] &= !cur.mask;
                        tracer.on_compute(
                            pc,
                            *op,
                            *dest,
                            addrs,
                            &values[..addrs.len()],
                            &results,
                            cur.mask,
                        );
                        cur.pc += 1;
                    }
                    Inst::CastToInt { dest, src } => {
                        let values = memory.floats[*src];
                        let mut results = [0i64; W];
                        for (r, v) in results.iter_mut().zip(&values) {
                            *r = v.trunc() as i64;
                        }
                        for (l, &result) in results.iter().enumerate() {
                            if lane_active(cur.mask, l) {
                                memory.ints[*dest][l] = result;
                                memory.floats[*dest][l] = result as f64;
                            }
                        }
                        memory.int_lanes[*dest] |= cur.mask;
                        tracer.on_cast_to_int(pc, *dest, *src, &values, &results, cur.mask);
                        cur.pc += 1;
                    }
                    Inst::Jump { target } => {
                        cur.pc = *target;
                    }
                    Inst::BranchCmp {
                        cmp,
                        lhs,
                        rhs,
                        target,
                    } => {
                        let lhs_floats = memory.floats[*lhs];
                        let rhs_floats = memory.floats[*rhs];
                        // Branch-free lane comparison: the IEEE comparison
                        // operators encode exactly `cmp.holds(partial_cmp)`
                        // including the NaN cases (NaN is false for every
                        // operator except `!=`).
                        let mut taken: LaneMask = 0;
                        match cmp {
                            CmpOp::Lt => {
                                for l in 0..W {
                                    taken |= LaneMask::from(lhs_floats[l] < rhs_floats[l]) << l;
                                }
                            }
                            CmpOp::Le => {
                                for l in 0..W {
                                    taken |= LaneMask::from(lhs_floats[l] <= rhs_floats[l]) << l;
                                }
                            }
                            CmpOp::Gt => {
                                for l in 0..W {
                                    taken |= LaneMask::from(lhs_floats[l] > rhs_floats[l]) << l;
                                }
                            }
                            CmpOp::Ge => {
                                for l in 0..W {
                                    taken |= LaneMask::from(lhs_floats[l] >= rhs_floats[l]) << l;
                                }
                            }
                            CmpOp::Eq => {
                                for l in 0..W {
                                    taken |= LaneMask::from(lhs_floats[l] == rhs_floats[l]) << l;
                                }
                            }
                            CmpOp::Ne => {
                                for l in 0..W {
                                    taken |= LaneMask::from(lhs_floats[l] != rhs_floats[l]) << l;
                                }
                            }
                        }
                        taken &= cur.mask;
                        let lhs_values = memory.values(*lhs);
                        let rhs_values = memory.values(*rhs);
                        tracer.on_branch(
                            pc,
                            *cmp,
                            *lhs,
                            *rhs,
                            &lhs_values,
                            &rhs_values,
                            taken,
                            cur.mask,
                        );
                        let fallthrough = cur.mask & !taken;
                        if taken == 0 {
                            cur.pc += 1;
                        } else if fallthrough == 0 {
                            cur.pc = *target;
                        } else {
                            // Divergence: continue with the smaller pc
                            // (min-pc-first), park the other sub-group.
                            let parked = if *target < pc + 1 {
                                cur.pc = *target;
                                cur.mask = taken;
                                Group {
                                    pc: pc + 1,
                                    mask: fallthrough,
                                }
                            } else {
                                cur.pc = pc + 1;
                                cur.mask = fallthrough;
                                Group {
                                    pc: *target,
                                    mask: taken,
                                }
                            };
                            divergences += 1;
                            min_pending = min_pending.min(parked.pc);
                            pending.push(parked);
                        }
                    }
                    Inst::Output { src } => {
                        let values = memory.floats[*src];
                        for l in lane_indices(cur.mask) {
                            outcome.lanes[l].outputs.push(values[l]);
                        }
                        tracer.on_output(pc, *src, &values, cur.mask);
                        cur.pc += 1;
                    }
                }
            }
        }

        for (l, result) in outcome.lanes.iter_mut().enumerate() {
            result.steps = steps[l];
        }
        if telemetry::enabled() {
            let total_steps: u64 = steps.iter().sum();
            telemetry::FPVM_BATCH_PASSES.add(1);
            telemetry::FPVM_BATCH_DISPATCHES.add(ticks);
            telemetry::FPVM_BATCH_ACTIVE_LANE_SLOTS.add(total_steps);
            telemetry::FPVM_STEPS.add(total_steps);
            // The per-lane step-budget check runs once per active lane slot.
            telemetry::FPVM_BUDGET_CHECKS.add(total_steps);
            telemetry::FPVM_BRANCH_DIVERGENCE.add(divergences);
            telemetry::FPVM_BRANCH_RECONVERGE.add(reconverges);
            telemetry::HIST_BATCH_GROUP_SIZE.observe(u64::from(mask.count_ones()));
            for l in lane_indices(mask) {
                telemetry::HIST_RUN_STEPS.observe(steps[l]);
            }
        }
        outcome
    }
}

/// Evaluates `op` elementwise over lane arrays — the batched analogue of the
/// serial interpreter's per-statement `f64` evaluation, delegating to the
/// vectorized lane kernels in `shadowreal`. Every lane is computed, active
/// or not: results of inactive lanes are unspecified garbage that callers
/// must mask.
#[inline]
fn apply_lanewise_f64<const W: usize>(op: RealOp, args: &[[f64; W]]) -> [f64; W] {
    shadowreal::apply_f64_lanes(op, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_core;
    use crate::program::{Pred, SourceLoc, Statement};
    use fpcore::parse_core;

    fn compile(src: &str) -> Program {
        compile_core(&parse_core(src).unwrap(), Default::default()).unwrap()
    }

    /// Runs `inputs` through a `W`-lane batch and checks every lane matches
    /// the serial interpreter bit for bit (outputs and step counts).
    fn assert_lanes_match_serial<const W: usize>(program: &Program, inputs: &[Vec<f64>]) {
        let machine = Machine::new(program);
        let batch = machine.batched::<W>();
        let mut memory = BatchMemory::new();
        for chunk in inputs.chunks(W) {
            let mut lane_inputs: [Option<&[f64]>; W] = [None; W];
            for (l, input) in chunk.iter().enumerate() {
                lane_inputs[l] = Some(input.as_slice());
            }
            let outcome = batch.run_batch(&lane_inputs, &mut NullBatchTracer, &mut memory);
            for (l, input) in chunk.iter().enumerate() {
                let serial = machine.run(input);
                match serial {
                    Ok(expected) => {
                        assert!(
                            outcome.errors[l].is_none(),
                            "lane {l}: {:?}",
                            outcome.errors
                        );
                        assert_eq!(outcome.lanes[l], expected, "lane {l} of {:?}", chunk);
                    }
                    Err(expected) => {
                        assert_eq!(outcome.errors[l].as_ref(), Some(&expected), "lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn straight_line_batches_match_serial() {
        let p = compile("(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))");
        let inputs: Vec<Vec<f64>> = (1..20).map(|i| vec![i as f64, 0.5 / i as f64]).collect();
        assert_lanes_match_serial::<1>(&p, &inputs);
        assert_lanes_match_serial::<4>(&p, &inputs);
        assert_lanes_match_serial::<8>(&p, &inputs);
    }

    #[test]
    fn divergent_loop_trip_counts_match_serial() {
        // Lanes exit the loop after different trip counts, so the batch
        // splits at the loop branch and reconverges at the exit.
        let p = compile("(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))");
        let inputs: Vec<Vec<f64>> = (0..13).map(|i| vec![(i * 3) as f64]).collect();
        assert_lanes_match_serial::<1>(&p, &inputs);
        assert_lanes_match_serial::<2>(&p, &inputs);
        assert_lanes_match_serial::<8>(&p, &inputs);
        assert_lanes_match_serial::<13>(&p, &inputs);
    }

    #[test]
    fn data_dependent_branches_match_serial() {
        let p = compile("(FPCore (x) (if (< x 0) (- 0 x) (sqrt x)))");
        let inputs: Vec<Vec<f64>> = (-8..8).map(|i| vec![i as f64 * 1.5]).collect();
        assert_lanes_match_serial::<4>(&p, &inputs);
        assert_lanes_match_serial::<8>(&p, &inputs);
    }

    #[test]
    fn lane_group_splits_and_reconverges() {
        // Two lanes take the branch, two fall through; the tracer must see
        // one split group per side and a reconverged full group afterwards.
        #[derive(Default)]
        struct Masks {
            compute_masks: Vec<LaneMask>,
            branch_taken: Vec<(LaneMask, LaneMask)>,
        }
        impl BatchTracer<4> for Masks {
            fn on_compute(
                &mut self,
                _pc: usize,
                _op: RealOp,
                _dest: Addr,
                _args: &[Addr],
                _values: &[[f64; 4]],
                _results: &[f64; 4],
                mask: LaneMask,
            ) {
                self.compute_masks.push(mask);
            }
            fn on_branch(
                &mut self,
                _pc: usize,
                _cmp: CmpOp,
                _lhs: Addr,
                _rhs: Addr,
                _l: &[Value; 4],
                _r: &[Value; 4],
                taken: LaneMask,
                mask: LaneMask,
            ) {
                self.branch_taken.push((taken, mask));
            }
        }
        let p = compile("(FPCore (x) (* 2 (if (< x 0) (* x x) (+ x 1))))");
        let machine = Machine::new(&p);
        let mut memory = BatchMemory::new();
        let inputs: Vec<Vec<f64>> = vec![vec![-1.0], vec![2.0], vec![-3.0], vec![4.0]];
        let mut tracer = Masks::default();
        let lane_inputs: [Option<&[f64]>; 4] = std::array::from_fn(|l| Some(inputs[l].as_slice()));
        let outcome = machine
            .batched::<4>()
            .run_batch(&lane_inputs, &mut tracer, &mut memory);
        assert!(outcome.errors.iter().all(Option::is_none));
        // The branch saw the full group, with lanes 0 and 2 (negative)
        // diverging from lanes 1 and 3.
        let (taken, mask) = tracer.branch_taken[0];
        assert_eq!(mask, 0b1111);
        assert_eq!(taken & 0b0101, taken, "negative lanes take the branch");
        // Some compute ran on a sub-group, and the final doubling ran on the
        // reconverged full group.
        assert!(tracer.compute_masks.iter().any(|&m| m != 0b1111));
        assert_eq!(*tracer.compute_masks.last().unwrap(), 0b1111);
    }

    #[test]
    fn per_lane_step_budget_failures_are_isolated() {
        // Lane 1 spins forever; lanes 0 and 2 halt normally and must still
        // produce their outputs.
        let p = compile("(FPCore (n) (while (< i n) ((i 0 (+ i 1))) i))");
        let machine = Machine::new(&p).with_step_limit(200);
        let inputs: Vec<Vec<f64>> = vec![vec![3.0], vec![1e18], vec![5.0]];
        let lane_inputs: [Option<&[f64]>; 4] = [
            Some(inputs[0].as_slice()),
            Some(inputs[1].as_slice()),
            Some(inputs[2].as_slice()),
            None,
        ];
        let mut memory = BatchMemory::new();
        let outcome =
            machine
                .batched::<4>()
                .run_batch(&lane_inputs, &mut NullBatchTracer, &mut memory);
        assert_eq!(outcome.lanes[0].outputs, vec![3.0]);
        assert_eq!(
            outcome.errors[1],
            Some(MachineError::StepBudgetExceeded { limit: 200 })
        );
        assert_eq!(outcome.lanes[2].outputs, vec![5.0]);
        assert!(outcome.errors[3].is_none());
        assert_eq!(outcome.lanes[3].steps, 0);
        assert_eq!(outcome.first_error().unwrap().0, 1);
    }

    #[test]
    fn arity_mismatch_is_per_lane() {
        let p = compile("(FPCore (x y) (+ x y))");
        let machine = Machine::new(&p);
        let good = vec![1.0, 2.0];
        let bad = vec![1.0];
        let lane_inputs: [Option<&[f64]>; 2] = [Some(bad.as_slice()), Some(good.as_slice())];
        let mut memory = BatchMemory::new();
        let outcome =
            machine
                .batched::<2>()
                .run_batch(&lane_inputs, &mut NullBatchTracer, &mut memory);
        assert_eq!(
            outcome.errors[0],
            Some(MachineError::ArityMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(outcome.lanes[1].outputs, vec![3.0]);
    }

    #[test]
    fn integer_values_keep_their_kind_across_lanes() {
        // CastToInt then Output: the float plane must mirror `as_f64` and the
        // tracer must see integer-kinded values for active lanes.
        let p = Program {
            name: "cast".into(),
            statements: vec![
                Statement::CastToInt { dest: 1, src: 0 },
                Statement::Copy { dest: 2, src: 1 },
                Statement::Output { src: 2 },
                Statement::Halt,
            ],
            locations: vec![SourceLoc::default(); 4],
            num_addrs: 3,
            arg_addrs: vec![0],
        };
        #[derive(Default)]
        struct CopiedValues(Vec<[Value; 2]>);
        impl BatchTracer<2> for CopiedValues {
            fn on_copy(
                &mut self,
                _pc: usize,
                _dest: Addr,
                _src: Addr,
                values: &[Value; 2],
                _mask: LaneMask,
            ) {
                self.0.push(*values);
            }
        }
        let machine = Machine::new(&p);
        let a = vec![3.9];
        let b = vec![-2.7];
        let mut tracer = CopiedValues::default();
        let mut memory = BatchMemory::new();
        let outcome = machine.batched::<2>().run_batch(
            &[Some(a.as_slice()), Some(b.as_slice())],
            &mut tracer,
            &mut memory,
        );
        assert_eq!(outcome.lanes[0].outputs, vec![3.0]);
        assert_eq!(outcome.lanes[1].outputs, vec![-2.0]);
        assert_eq!(tracer.0[0], [Value::I(3), Value::I(-2)]);
    }

    #[test]
    fn unconditional_jumps_and_empty_batches() {
        let p = Program {
            name: "jump".into(),
            statements: vec![
                Statement::Branch {
                    pred: Pred::Always,
                    target: 2,
                },
                Statement::Output { src: 0 },
                Statement::Halt,
            ],
            locations: vec![SourceLoc::default(); 3],
            num_addrs: 1,
            arg_addrs: vec![0],
        };
        let machine = Machine::new(&p);
        let mut memory = BatchMemory::new();
        // All-empty batch: no lanes, no errors, nothing executed.
        let outcome =
            machine
                .batched::<2>()
                .run_batch(&[None, None], &mut NullBatchTracer, &mut memory);
        assert!(outcome.errors.iter().all(Option::is_none));
        assert!(outcome.lanes.iter().all(|l| l.steps == 0));
        // The jump skips the output.
        let args = vec![7.0];
        let outcome = machine.batched::<2>().run_batch(
            &[Some(args.as_slice()), None],
            &mut NullBatchTracer,
            &mut memory,
        );
        assert!(outcome.lanes[0].outputs.is_empty());
    }
}
