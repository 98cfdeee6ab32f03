//! Herbgrind: finding root causes of floating-point error.
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Finding Root Causes of Floating Point Error", PLDI 2018). It implements
//! the dynamic analysis of §4–§6 over the abstract float machine provided by
//! the [`fpvm`] crate:
//!
//! * **Shadow reals** — every client double is shadowed by a high-precision
//!   value ([`shadowreal::BigFloat`] by default), so rounding error is
//!   observable ([`analysis`]).
//! * **Spots and influences** — program outputs, float-controlled branches
//!   and float→int conversions are *spots*; operations whose *local error*
//!   exceeds a threshold are candidate root causes, and a taint analysis
//!   tracks which candidates influence which spots ([`localerr`],
//!   [`records`]).
//! * **Symbolic expressions** — a concrete expression is recorded for every
//!   float value and generalized across executions by depth-bounded
//!   anti-unification, abstracting over function boundaries and heap
//!   traffic ([`trace`], [`symbolic`]).
//! * **Input characteristics** — for each symbolic expression the analysis
//!   summarizes the inputs it was evaluated on, and separately the inputs
//!   that caused high local error ([`inputs`]).
//! * **Expert-trick handling** — compensating additions/subtractions are
//!   detected so that Kahan-style compensation is not reported as a false
//!   positive ([`analysis`], §5.3).
//!
//! The entry point is [`Herbgrind`], a [`fpvm::Tracer`] that can be attached
//! to any machine run, plus the [`analyze`] convenience function that runs a
//! program over a set of inputs and produces a [`Report`].
//!
//! # Example
//!
//! ```
//! use fpcore::parse_core;
//! use fpvm::compile_core;
//! use herbgrind::{analyze, AnalysisConfig};
//!
//! // sqrt(x+1) - sqrt(x) suffers catastrophic cancellation for large x.
//! let core = parse_core("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
//! let program = compile_core(&core, Default::default()).unwrap();
//! let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![10f64.powi(i / 2)]).collect();
//! let report = analyze(&program, &inputs, &AnalysisConfig::default()).unwrap();
//! assert!(report.has_significant_error());
//! let cause = &report.spots[0].root_causes[0];
//! assert!(cause.fpcore.contains("sqrt"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batched;
pub mod config;
pub mod errsum;
#[cfg(feature = "fault-injection")]
pub mod faultinject;
pub mod inputs;
pub mod localerr;
pub mod quarantine;
pub mod records;
#[cfg(feature = "reference-analysis")]
pub mod reference;
pub mod report;
pub mod symbolic;
pub mod tiered;
pub mod trace;

pub use analysis::AnalysisState;
pub use analysis::{
    analyze, analyze_parallel, analyze_parallel_with_shadow, analyze_with_shadow, Herbgrind,
};
pub use batched::{
    analyze_batched, analyze_batched_with_shadow, probe_local_error, LocalErrorSummary,
    SUPPORTED_BATCH_WIDTHS,
};
pub use config::{AnalysisConfig, RangeKind};
pub use errsum::ErrorBitsSum;
pub use quarantine::{
    analyze_batched_isolated, analyze_isolated, analyze_isolated_with_shadow,
    analyze_parallel_isolated, analyze_tiered_isolated, analyze_tiered_isolated_with_stats,
    QuarantinedInput, SweepFault, SweepStage,
};
pub use report::{Report, RootCauseReport, SpotReport};
pub use symbolic::SymbolicExpr;
pub use tiered::{analyze_tiered, analyze_tiered_with_stats, TierStats};
pub use trace::{ConcreteExpr, ExprInterner};

pub use staticerr;
pub use telemetry;
pub use telemetry::{SweepCapture, SweepTelemetry, TelemetryMode};
