//! Running benchmarks under the analysis: the glue between the suite, the
//! machine, Herbgrind, and the improvement oracle.

use fpcore::FPCore;
use fpvm::{compile_core, CompileOptions, Machine, Program};
use herbgrind::{analyze_parallel, analyze_tiered, staticerr, AnalysisConfig, Report};
use herbie_lite::SampleError;
use std::fmt;

/// The declared per-argument input region of a benchmark, in
/// `core.arguments` order.
///
/// This is the same range extraction the input sampler uses
/// ([`herbie_lite::sampling::ranges_from_precondition`]), so every sampled
/// input lies inside the returned region — exactly the contract the tier-0
/// static pass needs from [`AnalysisConfig::input_ranges`].
pub fn sampling_region(core: &FPCore) -> Vec<(f64, f64)> {
    let ranges = herbie_lite::sampling::ranges_from_precondition(core);
    core.arguments
        .iter()
        .map(|name| {
            let r = ranges.get(name).copied().unwrap_or_default();
            (r.lo, r.hi)
        })
        .collect()
}

/// Errors produced while driving a benchmark through the pipeline.
#[derive(Clone, Debug)]
pub enum DriverError {
    /// The benchmark failed to compile to a machine program.
    Compile(String),
    /// Input sampling failed.
    Sampling(SampleError),
    /// The machine run failed (step budget, arity).
    Machine(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Compile(e) => write!(f, "compile error: {e}"),
            DriverError::Sampling(e) => write!(f, "sampling error: {e}"),
            DriverError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// A benchmark prepared for execution: the parsed core, the compiled
/// program, and sampled inputs.
#[derive(Clone, Debug)]
pub struct PreparedBenchmark {
    /// The source benchmark.
    pub core: FPCore,
    /// The compiled machine program (library calls wrapped).
    pub program: Program,
    /// The compiled machine program with library calls lowered (§8.2).
    pub program_lowered: Program,
    /// Sampled inputs satisfying the precondition.
    pub inputs: Vec<Vec<f64>>,
}

/// Compiles a benchmark and samples `samples` inputs for it.
///
/// # Errors
///
/// Returns a [`DriverError`] if compilation or sampling fails.
pub fn prepare(core: &FPCore, samples: usize, seed: u64) -> Result<PreparedBenchmark, DriverError> {
    let program = compile_core(core, CompileOptions::default())
        .map_err(|e| DriverError::Compile(e.to_string()))?;
    let program_lowered = compile_core(
        core,
        CompileOptions {
            lower_library_calls: true,
            source_file: None,
        },
    )
    .map_err(|e| DriverError::Compile(e.to_string()))?;
    let inputs = herbie_lite::sample_inputs(core, samples, seed).map_err(DriverError::Sampling)?;
    Ok(PreparedBenchmark {
        core: core.clone(),
        program,
        program_lowered,
        inputs,
    })
}

impl PreparedBenchmark {
    /// Runs the benchmark natively (no instrumentation) on all its inputs,
    /// returning the number of statements executed. Used as the baseline for
    /// overhead measurements (Table 1).
    ///
    /// # Errors
    ///
    /// Returns a [`DriverError::Machine`] error if any run fails.
    pub fn run_native(&self) -> Result<u64, DriverError> {
        let machine = Machine::new(&self.program);
        let mut steps = 0;
        for input in &self.inputs {
            steps += machine
                .run(input)
                .map_err(|e| DriverError::Machine(e.to_string()))?
                .steps;
        }
        Ok(steps)
    }

    /// Runs the benchmark under Herbgrind on all its inputs.
    ///
    /// The input sweep is sharded across [`AnalysisConfig::threads`] analysis
    /// threads; the report is bit-identical to a serial sweep regardless of
    /// the thread count, with the one known exception of
    /// [`herbgrind::analyze_parallel`]: a shard whose loop runs are shorter
    /// than [`AnalysisConfig::max_expression_depth`] can lose input-range
    /// contributions in the merge.
    ///
    /// # Errors
    ///
    /// Returns a [`DriverError::Machine`] error if any run fails.
    pub fn run_herbgrind(&self, config: &AnalysisConfig) -> Result<Report, DriverError> {
        analyze_parallel(&self.program, &self.inputs, config)
            .map_err(|e| DriverError::Machine(e.to_string()))
    }

    /// Runs the benchmark under Herbgrind with library calls lowered into
    /// their internal instruction sequences (wrapping disabled, §8.2).
    ///
    /// # Errors
    ///
    /// Returns a [`DriverError::Machine`] error if any run fails.
    pub fn run_herbgrind_unwrapped(&self, config: &AnalysisConfig) -> Result<Report, DriverError> {
        analyze_parallel(&self.program_lowered, &self.inputs, config)
            .map_err(|e| DriverError::Machine(e.to_string()))
    }

    /// Runs the benchmark under the tiered analysis with tier 0 armed: the
    /// static error-dataflow pass certifies statements over the benchmark's
    /// declared [`sampling_region`], and certified statements skip dynamic
    /// shadowing. The report is bit-identical to the unpruned analysis.
    ///
    /// # Errors
    ///
    /// Returns a [`DriverError::Machine`] error if any run fails.
    pub fn run_herbgrind_tier0(&self, config: &AnalysisConfig) -> Result<Report, DriverError> {
        let config = config
            .clone()
            .with_input_ranges(sampling_region(&self.core));
        analyze_tiered(&self.program, &self.inputs, &config)
            .map_err(|e| DriverError::Machine(e.to_string()))
    }

    /// Runs the static error-dataflow pass alone over the benchmark's
    /// declared input region and returns the lint report.
    pub fn static_report(&self, params: &staticerr::StaticParams) -> staticerr::StaticReport {
        let region = sampling_region(&self.core);
        let analysis = staticerr::analyze_program(&self.program, &region, params);
        let mask = staticerr::prune_mask(&self.program, &analysis);
        staticerr::static_report(&self.program, &analysis, &mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::by_name;

    #[test]
    fn prepare_and_run_a_cancellation_benchmark() {
        let core = by_name("NMSE example 3.1").unwrap();
        let prepared = prepare(&core, 30, 7).unwrap();
        assert_eq!(prepared.inputs.len(), 30);
        let report = prepared.run_herbgrind(&AnalysisConfig::default()).unwrap();
        assert!(report.has_significant_error());
        let steps = prepared.run_native().unwrap();
        assert!(steps > 0);
    }

    #[test]
    fn lowered_programs_are_larger() {
        let core = by_name("NMSE section 3.5").unwrap();
        let prepared = prepare(&core, 5, 3).unwrap();
        assert!(prepared.program_lowered.compute_count() > prepared.program.compute_count());
    }

    #[test]
    fn sampling_region_matches_the_precondition_and_covers_samples() {
        let core = by_name("doppler1").unwrap();
        let region = sampling_region(&core);
        assert_eq!(
            region,
            vec![(-100.0, 100.0), (20.0, 20000.0), (-30.0, 50.0)]
        );
        let prepared = prepare(&core, 40, 11).unwrap();
        for input in &prepared.inputs {
            for (x, (lo, hi)) in input.iter().zip(&region) {
                assert!(lo <= x && x <= hi, "sample {x} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn tier0_run_matches_the_untiered_report_and_prunes() {
        // A fully certifiable benchmark: tier 0 prunes every compute, and
        // the report still comes out bit-identical to the plain analysis.
        let core = by_name("rms of three").unwrap();
        let prepared = prepare(&core, 24, 9).unwrap();
        let config = AnalysisConfig::default();
        let plain = prepared.run_herbgrind(&config).unwrap();
        let (tier0, telemetry) = {
            let capture = herbgrind::SweepCapture::begin(herbgrind::TelemetryMode::On);
            let report = prepared.run_herbgrind_tier0(&config).unwrap();
            (report, capture.finish())
        };
        assert_eq!(format!("{plain:?}"), format!("{tier0:?}"));
        assert!(telemetry.counter("tier0.statements_pruned") > 0);
        assert!(telemetry.counter("tier0.pruned_executions") > 0);
    }

    #[test]
    fn static_report_flags_a_cancellation_benchmark() {
        let core = by_name("difference of squares").unwrap();
        let prepared = prepare(&core, 1, 3).unwrap();
        let report = prepared.static_report(&Default::default());
        assert!(!report.lints.is_empty());
        assert!(report.to_json().contains("difference-of-squares"));
    }
}
