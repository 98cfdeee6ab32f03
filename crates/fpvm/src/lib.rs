//! The abstract float machine of Herbgrind's analysis (Figure 2 of the paper).
//!
//! Herbgrind is a Valgrind tool: it instruments the VEX IR of a compiled
//! binary. This reproduction has no dynamic binary instrumentation framework
//! available, so — per the substitution documented in `DESIGN.md` — it
//! targets the *abstract machine* on which the paper actually defines its
//! analysis (§4.1): a flat memory of floats and integers, a program counter,
//! and three kinds of statements (compute, conditional jump, output), plus
//! float→integer conversions which the paper treats as spots.
//!
//! The crate provides:
//!
//! * [`program`] — the machine program representation,
//! * [`compile`] — a compiler from FPCore benchmarks to machine programs,
//! * [`interp`] — the interpreter, with a [`Tracer`] hook
//!   through which the `herbgrind` crate (and the baseline tools) observe
//!   every executed statement,
//! * [`batch`] — the lane-parallel batched interpreter: one tape pass drives
//!   a SIMD-width batch of inputs with struct-of-arrays lane memory, an
//!   active-lane mask for branch divergence, and a
//!   [`BatchTracer`] hook that observes whole lane
//!   groups,
//! * [`libm_lowering`] — expansion of math-library calls into sequences of
//!   primitive instructions, used to reproduce the library-wrapping ablation
//!   (§8.2).
//!
//! # Example
//!
//! ```
//! use fpcore::parse_core;
//! use fpvm::{compile::compile_core, interp::Machine};
//!
//! let core = parse_core("(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))").unwrap();
//! let program = compile_core(&core, Default::default()).unwrap();
//! let outputs = Machine::new(&program).run(&[3.0, 4.0]).unwrap();
//! assert_eq!(outputs.outputs, vec![2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod compile;
pub mod interp;
pub mod libm_lowering;
pub mod program;

pub use batch::{
    full_mask, lane_active, lane_indices, BatchMachine, BatchMemory, BatchOutcome, BatchTracer,
    LaneMask, LaneTracer, NullBatchTracer, MAX_LANES,
};
pub use compile::{compile_core, CompileError, CompileOptions};
pub use interp::{Machine, MachineError, NullTracer, RunResult, Tracer, MAX_ARITY};
pub use program::{Addr, Pred, Program, SourceLoc, Statement, Value};
