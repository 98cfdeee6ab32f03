//! The FPBench-style benchmark suite and the paper's evaluation experiments.
//!
//! This crate packages three things:
//!
//! * [`suite`](mod@suite) — an embedded corpus of FPCore benchmarks in the style of the
//!   FPBench general-purpose suite used by the paper's evaluation (§8),
//! * [`driver`] — helpers that compile a benchmark, sample inputs from its
//!   precondition, and run it natively or under Herbgrind,
//! * [`experiments`] — drivers that regenerate each evaluation artifact: the
//!   §8.1 improvability numbers, the Figure 5a–5d sweeps, and the §8.2
//!   library-wrapping comparison.
//!
//! The Criterion benches in `crates/bench` and the `examples/` binaries are
//! thin wrappers over these functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod suite;

pub use driver::{prepare, sampling_region, DriverError, PreparedBenchmark};
pub use experiments::{
    depth_sweep, improvability, range_kind_sweep, static_prune_survey, threshold_sweep,
    wrapping_comparison, DepthPoint, ImprovabilityRow, ImprovabilitySummary, RangeKindPoint,
    StaticPruneRow, StaticPruneSurvey, ThresholdPoint, WrappingComparison,
};
pub use suite::{by_name, subset, suite};
