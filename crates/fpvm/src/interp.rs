//! The machine interpreter and the tracer hook through which analyses
//! observe execution.
//!
//! The interpreter executes the client semantics — plain double precision —
//! exactly as a compiled binary would. Analyses (Herbgrind proper and the
//! baseline tools) are [`Tracer`] implementations: they are invoked after
//! every executed statement with the concrete values involved, which mirrors
//! the way Valgrind instrumentation observes the client without altering it.

use crate::program::{Addr, Pred, Program, Statement, Value};
use fpcore::CmpOp;
use shadowreal::RealOp;
use std::fmt;

/// Errors produced while running a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The supplied argument count does not match the program.
    ArityMismatch {
        /// Number of argument addresses in the program.
        expected: usize,
        /// Number of arguments supplied.
        actual: usize,
    },
    /// Execution exceeded the step budget (runaway loop).
    StepBudgetExceeded {
        /// The configured budget.
        limit: u64,
    },
    /// The program counter left the program without reaching `Halt`.
    PcOutOfRange {
        /// The offending program counter.
        pc: usize,
    },
    /// Execution exceeded the wall-clock deadline
    /// ([`Machine::with_deadline_millis`]).
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        millis: u64,
    },
    /// An attached analysis exhausted its trace-memory budget (interned
    /// expression nodes); surfaced through [`Tracer::fault`].
    TraceBudgetExceeded {
        /// The configured budget, in interned nodes.
        limit: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::ArityMismatch { expected, actual } => {
                write!(f, "program takes {expected} arguments, got {actual}")
            }
            MachineError::StepBudgetExceeded { limit } => {
                write!(f, "execution exceeded the {limit}-step budget")
            }
            MachineError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            MachineError::DeadlineExceeded { millis } => {
                write!(f, "execution exceeded the {millis} ms deadline")
            }
            MachineError::TraceBudgetExceeded { limit } => {
                write!(f, "analysis exceeded the {limit}-node trace budget")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The observable result of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    /// Values printed by `Output` statements, in order.
    pub outputs: Vec<f64>,
    /// Number of statements executed.
    pub steps: u64,
}

/// An execution observer.
///
/// Every method has a default empty implementation so tracers only override
/// what they need. The interpreter calls the hook *after* the statement's
/// effect on machine memory, passing the concrete double values read and
/// written, which is exactly the information a Valgrind tool sees.
#[allow(unused_variables)]
pub trait Tracer {
    /// A floating-point operation was executed.
    fn on_compute(
        &mut self,
        pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        arg_values: &[f64],
        result: f64,
    ) {
    }
    /// A float constant was loaded.
    fn on_const_f(&mut self, pc: usize, dest: Addr, value: f64) {}
    /// An integer constant was loaded.
    fn on_const_i(&mut self, pc: usize, dest: Addr, value: i64) {}
    /// A value was copied between addresses.
    fn on_copy(&mut self, pc: usize, dest: Addr, src: Addr, value: Value) {}
    /// A float was converted to an integer (a spot).
    fn on_cast_to_int(&mut self, pc: usize, dest: Addr, src: Addr, value: f64, result: i64) {}
    /// A conditional branch over floats was evaluated (a spot).
    #[allow(clippy::too_many_arguments)]
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
    }
    /// A value was output (a spot).
    fn on_output(&mut self, pc: usize, src: Addr, value: f64) {}
    /// The program produced its arguments (called once, before execution).
    fn on_start(&mut self, program: &Program, args: &[f64]) {}
    /// Polled once per executed statement: a tracer that has exhausted one
    /// of its own resource budgets (e.g. trace memory) returns the error
    /// here and the interpreter aborts the run with it. Take semantics: the
    /// tracer should clear its pending fault when reporting it.
    fn fault(&mut self) -> Option<MachineError> {
        None
    }
    /// Non-mutating peek, polled by the interpreter before every statement
    /// so the common no-fault case never calls [`Tracer::fault`]. Must agree
    /// with `fault`: `true` iff a fault is pending.
    fn has_fault(&self) -> bool {
        false
    }
}

/// A tracer that observes nothing — the uninstrumented baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {}

/// The widest [`RealOp`] arity (re-exported from `shadowreal`, where the
/// operation set is defined); compute instructions carry their operand
/// addresses inline in an array of this size instead of a heap `Vec`.
pub use shadowreal::MAX_ARITY;

/// A pre-decoded statement: the executable form of one [`Statement`], with
/// operand addresses stored inline and branch predicates split by kind so
/// the dispatch loop does no nested matching and no pointer chasing.
/// Shared with the batched engine ([`crate::batch`]), which walks the same
/// tape with a lane mask instead of a single program counter.
#[derive(Clone, Debug)]
pub(crate) enum Inst {
    ConstF {
        dest: Addr,
        value: f64,
    },
    ConstI {
        dest: Addr,
        value: i64,
    },
    Copy {
        dest: Addr,
        src: Addr,
    },
    Compute {
        dest: Addr,
        op: RealOp,
        arity: u8,
        args: [Addr; MAX_ARITY],
    },
    CastToInt {
        dest: Addr,
        src: Addr,
    },
    Jump {
        target: usize,
    },
    BranchCmp {
        cmp: CmpOp,
        lhs: Addr,
        rhs: Addr,
        target: usize,
    },
    Output {
        src: Addr,
    },
    Halt,
}

/// Decodes a program into its execution tape. Done once per [`Machine`], so
/// an input sweep pays O(program) setup instead of re-interpreting the
/// `Statement` representation (with its heap-allocated operand lists) on
/// every executed instruction.
pub(crate) fn decode(program: &Program) -> Vec<Inst> {
    program
        .statements
        .iter()
        .map(|stmt| match stmt {
            Statement::ConstF { dest, value } => Inst::ConstF {
                dest: *dest,
                value: *value,
            },
            Statement::ConstI { dest, value } => Inst::ConstI {
                dest: *dest,
                value: *value,
            },
            Statement::Copy { dest, src } => Inst::Copy {
                dest: *dest,
                src: *src,
            },
            Statement::Compute { dest, op, args } => {
                assert!(
                    args.len() <= MAX_ARITY,
                    "compute statement has {} operands; RealOp arity is at most {MAX_ARITY}",
                    args.len()
                );
                let mut inline = [0 as Addr; MAX_ARITY];
                inline[..args.len()].copy_from_slice(args);
                Inst::Compute {
                    dest: *dest,
                    op: *op,
                    arity: args.len() as u8,
                    args: inline,
                }
            }
            Statement::CastToInt { dest, src } => Inst::CastToInt {
                dest: *dest,
                src: *src,
            },
            Statement::Branch { pred, target } => match pred {
                Pred::Always => Inst::Jump { target: *target },
                Pred::Cmp(cmp, lhs, rhs) => Inst::BranchCmp {
                    cmp: *cmp,
                    lhs: *lhs,
                    rhs: *rhs,
                    target: *target,
                },
            },
            Statement::Output { src } => Inst::Output { src: *src },
            Statement::Halt => Inst::Halt,
        })
        .collect()
}

/// The machine interpreter.
///
/// Construction pre-decodes the program into an execution tape (see
/// `decode`); running is then a dispatch loop over fixed-size instructions
/// that performs no per-instruction heap allocation. The tape is held behind
/// an [`Arc`](std::sync::Arc), so cloning a machine — one per analysis shard,
/// or to seed a [`crate::batch::BatchMachine`] — shares the decoded tape
/// instead of re-decoding the program.
#[derive(Clone, Debug)]
pub struct Machine<'p> {
    pub(crate) program: &'p Program,
    pub(crate) tape: std::sync::Arc<[Inst]>,
    pub(crate) step_limit: u64,
    pub(crate) deadline_millis: Option<u64>,
}

/// Default step budget per run (generous; FPBench loop benchmarks stay far
/// below this).
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

impl<'p> Machine<'p> {
    /// Creates an interpreter for a program, pre-decoding it into the
    /// execution tape.
    pub fn new(program: &'p Program) -> Machine<'p> {
        Machine {
            program,
            tape: decode(program).into(),
            step_limit: DEFAULT_STEP_LIMIT,
            deadline_millis: None,
        }
    }

    /// Overrides the step budget.
    pub fn with_step_limit(mut self, limit: u64) -> Machine<'p> {
        self.step_limit = limit;
        self
    }

    /// Sets a per-run wall-clock deadline in milliseconds (`0` disables it,
    /// the default). The clock starts when a run begins and is checked every
    /// 1024 steps, so a runaway transcendental-heavy loop is caught within
    /// microseconds of the deadline without a per-step `Instant` read.
    /// Unlike the step budget, where a run trips the deadline is
    /// machine-load-dependent; sweeps that must be reproducible should
    /// prefer [`Machine::with_step_limit`].
    pub fn with_deadline_millis(mut self, millis: u64) -> Machine<'p> {
        self.deadline_millis = if millis == 0 { None } else { Some(millis) };
        self
    }

    /// Runs the program without instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] for argument arity mismatches, runaway
    /// loops, and malformed control flow.
    pub fn run(&self, args: &[f64]) -> Result<RunResult, MachineError> {
        self.run_traced(args, &mut NullTracer)
    }

    /// Runs the program, reporting every executed statement to `tracer`.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] for argument arity mismatches, runaway
    /// loops, and malformed control flow.
    pub fn run_traced<T: Tracer + ?Sized>(
        &self,
        args: &[f64],
        tracer: &mut T,
    ) -> Result<RunResult, MachineError> {
        let mut memory = Vec::new();
        self.run_traced_reusing(args, tracer, &mut memory)
    }

    /// Runs the program like [`Machine::run_traced`], reusing `memory` as the
    /// machine's flat memory so an input sweep performs no per-run
    /// allocation. The buffer is cleared and reinitialized on entry; its
    /// contents afterwards are the final machine memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] for argument arity mismatches, runaway
    /// loops, and malformed control flow.
    pub fn run_traced_reusing<T: Tracer + ?Sized>(
        &self,
        args: &[f64],
        tracer: &mut T,
        memory: &mut Vec<Value>,
    ) -> Result<RunResult, MachineError> {
        let program = self.program;
        if args.len() != program.arg_addrs.len() {
            return Err(MachineError::ArityMismatch {
                expected: program.arg_addrs.len(),
                actual: args.len(),
            });
        }
        memory.clear();
        memory.resize(program.num_addrs, Value::F(0.0));
        for (&addr, &value) in program.arg_addrs.iter().zip(args) {
            memory[addr] = Value::F(value);
        }
        tracer.on_start(program, args);

        let deadline = self.deadline_millis.map(|ms| {
            (
                std::time::Instant::now() + std::time::Duration::from_millis(ms),
                ms,
            )
        });
        let mut result = RunResult::default();
        let mut pc = 0usize;
        loop {
            if result.steps >= self.step_limit {
                flush_run_telemetry(result.steps);
                return Err(MachineError::StepBudgetExceeded {
                    limit: self.step_limit,
                });
            }
            if result.steps & 1023 == 0 {
                if let Some((at, millis)) = deadline {
                    if std::time::Instant::now() >= at {
                        flush_run_telemetry(result.steps);
                        return Err(MachineError::DeadlineExceeded { millis });
                    }
                }
            }
            if tracer.has_fault() {
                if let Some(err) = tracer.fault() {
                    flush_run_telemetry(result.steps);
                    return Err(err);
                }
            }
            result.steps += 1;
            let Some(inst) = self.tape.get(pc) else {
                flush_run_telemetry(result.steps);
                return Err(MachineError::PcOutOfRange { pc });
            };
            match inst {
                Inst::Halt => break,
                Inst::ConstF { dest, value } => {
                    memory[*dest] = Value::F(*value);
                    tracer.on_const_f(pc, *dest, *value);
                    pc += 1;
                }
                Inst::ConstI { dest, value } => {
                    memory[*dest] = Value::I(*value);
                    tracer.on_const_i(pc, *dest, *value);
                    pc += 1;
                }
                Inst::Copy { dest, src } => {
                    let v = memory[*src];
                    memory[*dest] = v;
                    tracer.on_copy(pc, *dest, *src, v);
                    pc += 1;
                }
                Inst::Compute {
                    dest,
                    op,
                    arity,
                    args,
                } => {
                    let addrs = &args[..*arity as usize];
                    let mut values = [0.0f64; MAX_ARITY];
                    for (value, &addr) in values.iter_mut().zip(addrs) {
                        *value = memory[addr].as_f64();
                    }
                    let arg_values = &values[..addrs.len()];
                    let value = <f64 as shadowreal::Real>::apply(*op, arg_values);
                    memory[*dest] = Value::F(value);
                    tracer.on_compute(pc, *op, *dest, addrs, arg_values, value);
                    pc += 1;
                }
                Inst::CastToInt { dest, src } => {
                    let v = memory[*src].as_f64();
                    let as_int = v.trunc() as i64;
                    memory[*dest] = Value::I(as_int);
                    tracer.on_cast_to_int(pc, *dest, *src, v, as_int);
                    pc += 1;
                }
                Inst::Jump { target } => {
                    pc = *target;
                }
                Inst::BranchCmp {
                    cmp,
                    lhs,
                    rhs,
                    target,
                } => {
                    let va = memory[*lhs];
                    let vb = memory[*rhs];
                    let taken = cmp.holds(va.as_f64().partial_cmp(&vb.as_f64()));
                    tracer.on_branch(pc, *cmp, *lhs, *rhs, va, vb, taken);
                    pc = if taken { *target } else { pc + 1 };
                }
                Inst::Output { src } => {
                    let v = memory[*src].as_f64();
                    result.outputs.push(v);
                    tracer.on_output(pc, *src, v);
                    pc += 1;
                }
            }
        }
        flush_run_telemetry(result.steps);
        Ok(result)
    }
}

/// Flush one serial run's step count into the telemetry registry. The hot
/// loop counts into `result.steps` anyway, so off-mode cost is the single
/// gate check inside each `Counter::add`. The step-limit check runs once per
/// iteration, so the budget-check count equals the step count.
#[inline]
fn flush_run_telemetry(steps: u64) {
    telemetry::FPVM_STEPS.add(steps);
    telemetry::FPVM_BUDGET_CHECKS.add(steps);
    telemetry::HIST_RUN_STEPS.observe(steps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SourceLoc;

    fn straight_line_program() -> Program {
        // out (a + b) * a
        Program {
            name: "straight".into(),
            statements: vec![
                Statement::Compute {
                    dest: 2,
                    op: RealOp::Add,
                    args: vec![0, 1],
                },
                Statement::Compute {
                    dest: 3,
                    op: RealOp::Mul,
                    args: vec![2, 0],
                },
                Statement::Output { src: 3 },
                Statement::Halt,
            ],
            locations: vec![SourceLoc::default(); 4],
            num_addrs: 4,
            arg_addrs: vec![0, 1],
        }
    }

    #[test]
    fn executes_straight_line_code() {
        let p = straight_line_program();
        let r = Machine::new(&p).run(&[2.0, 3.0]).unwrap();
        assert_eq!(r.outputs, vec![10.0]);
        assert_eq!(r.steps, 4);
    }

    #[test]
    fn arity_is_checked() {
        let p = straight_line_program();
        assert_eq!(
            Machine::new(&p).run(&[1.0]).unwrap_err(),
            MachineError::ArityMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn branch_and_loop_execution() {
        // Count down from the argument to zero, outputting the final counter.
        let p = Program {
            name: "loop".into(),
            statements: vec![
                // 0: const 0.0 -> addr1
                Statement::ConstF {
                    dest: 1,
                    value: 0.0,
                },
                // 1: const 1.0 -> addr2
                Statement::ConstF {
                    dest: 2,
                    value: 1.0,
                },
                // 2: if arg <= 0 goto 5
                Statement::Branch {
                    pred: Pred::Cmp(CmpOp::Le, 0, 1),
                    target: 5,
                },
                // 3: arg = arg - 1
                Statement::Compute {
                    dest: 0,
                    op: RealOp::Sub,
                    args: vec![0, 2],
                },
                // 4: goto 2
                Statement::Branch {
                    pred: Pred::Always,
                    target: 2,
                },
                // 5: out arg
                Statement::Output { src: 0 },
                Statement::Halt,
            ],
            locations: vec![SourceLoc::default(); 7],
            num_addrs: 3,
            arg_addrs: vec![0],
        };
        p.validate().unwrap();
        let r = Machine::new(&p).run(&[5.0]).unwrap();
        assert_eq!(r.outputs, vec![0.0]);
    }

    #[test]
    fn step_budget_stops_runaway_loops() {
        let p = Program {
            name: "spin".into(),
            statements: vec![Statement::Branch {
                pred: Pred::Always,
                target: 0,
            }],
            locations: vec![SourceLoc::default()],
            num_addrs: 1,
            arg_addrs: vec![],
        };
        let err = Machine::new(&p).with_step_limit(100).run(&[]).unwrap_err();
        assert_eq!(err, MachineError::StepBudgetExceeded { limit: 100 });
    }

    #[test]
    fn cast_to_int_truncates() {
        let p = Program {
            name: "cast".into(),
            statements: vec![
                Statement::CastToInt { dest: 1, src: 0 },
                Statement::Output { src: 1 },
                Statement::Halt,
            ],
            locations: vec![SourceLoc::default(); 3],
            num_addrs: 2,
            arg_addrs: vec![0],
        };
        let r = Machine::new(&p).run(&[3.9]).unwrap();
        assert_eq!(r.outputs, vec![3.0]);
        let r = Machine::new(&p).run(&[-3.9]).unwrap();
        assert_eq!(r.outputs, vec![-3.0]);
    }

    #[test]
    fn tracer_sees_every_compute_and_spot() {
        #[derive(Default)]
        struct Counter {
            computes: usize,
            outputs: usize,
            branches: usize,
        }
        impl Tracer for Counter {
            fn on_compute(&mut self, _: usize, _: RealOp, _: Addr, _: &[Addr], _: &[f64], _: f64) {
                self.computes += 1;
            }
            fn on_output(&mut self, _: usize, _: Addr, _: f64) {
                self.outputs += 1;
            }
            fn on_branch(
                &mut self,
                _: usize,
                _: CmpOp,
                _: Addr,
                _: Addr,
                _: Value,
                _: Value,
                _: bool,
            ) {
                self.branches += 1;
            }
        }
        let p = straight_line_program();
        let mut tracer = Counter::default();
        Machine::new(&p)
            .run_traced(&[1.0, 2.0], &mut tracer)
            .unwrap();
        assert_eq!(tracer.computes, 2);
        assert_eq!(tracer.outputs, 1);
        assert_eq!(tracer.branches, 0);
    }

    #[test]
    fn reused_memory_buffer_matches_fresh_runs() {
        // The same scratch buffer serves runs of different programs and
        // sizes; every run must behave exactly like a fresh allocation.
        let p1 = straight_line_program();
        let p2 = Program {
            name: "cast".into(),
            statements: vec![
                Statement::CastToInt { dest: 1, src: 0 },
                Statement::Output { src: 1 },
                Statement::Halt,
            ],
            locations: vec![SourceLoc::default(); 3],
            num_addrs: 2,
            arg_addrs: vec![0],
        };
        let mut memory = Vec::new();
        let m1 = Machine::new(&p1);
        let m2 = Machine::new(&p2);
        for i in 0..4 {
            let a = 1.0 + i as f64;
            let fresh = m1.run(&[a, 2.0]).unwrap();
            let reused = m1
                .run_traced_reusing(&[a, 2.0], &mut NullTracer, &mut memory)
                .unwrap();
            assert_eq!(fresh, reused);
            let fresh = m2.run(&[a + 0.9]).unwrap();
            let reused = m2
                .run_traced_reusing(&[a + 0.9], &mut NullTracer, &mut memory)
                .unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let p = Program {
            name: "fallthrough".into(),
            statements: vec![Statement::ConstF {
                dest: 0,
                value: 1.0,
            }],
            locations: vec![SourceLoc::default()],
            num_addrs: 1,
            arg_addrs: vec![],
        };
        assert_eq!(
            Machine::new(&p).run(&[]).unwrap_err(),
            MachineError::PcOutOfRange { pc: 1 }
        );
    }
}
