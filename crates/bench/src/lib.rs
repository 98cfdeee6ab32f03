//! Shared helpers for the Criterion benches that regenerate the paper's
//! tables and figures.
//!
//! Each bench in `benches/` corresponds to one evaluation artifact (see
//! `DESIGN.md` for the experiment index) and prints the regenerated
//! rows/series alongside Criterion's timing output, so running
//! `cargo bench --workspace` reproduces both the overhead numbers and the
//! analysis-quality numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fpbench::PreparedBenchmark;
use fpcore::FPCore;
use fpvm::{Addr, Machine, Program, Tracer};
use shadowreal::RealOp;
use std::time::Instant;

/// The benchmarks used by the timing-oriented benches: a slice of the suite
/// that exercises arithmetic, libm calls, and loops, kept small enough for
/// Criterion's repeated measurement.
pub fn timing_benchmarks() -> Vec<FPCore> {
    [
        "NMSE example 3.1",
        "doppler1",
        "verhulst",
        "sine",
        "NMSE problem 3.3.6",
        "harmonic sum loop",
    ]
    .iter()
    .filter_map(|name| fpbench::by_name(name))
    .collect()
}

/// The benchmarks used by the quality-oriented benches (improvability,
/// threshold/depth/range sweeps): a broader slice of the suite with a mix of
/// erroneous and accurate kernels.
pub fn quality_benchmarks(limit: usize) -> Vec<FPCore> {
    fpbench::subset(limit)
}

/// Prepares the timing benchmarks with a fixed sample count and seed.
pub fn prepared_timing_benchmarks(samples: usize) -> Vec<PreparedBenchmark> {
    timing_benchmarks()
        .iter()
        .filter_map(|core| fpbench::prepare(core, samples, 2024).ok())
        .collect()
}

/// A compiled bench kernel and the inputs it is swept over.
pub struct SweepKernel {
    /// The compiled program.
    pub program: Program,
    /// One input per run.
    pub inputs: Vec<Vec<f64>>,
}

/// Compiles the FPCore `src` into a kernel swept over `inputs`.
///
/// # Panics
///
/// Panics if `src` does not parse or compile.
pub fn kernel(src: &str, inputs: Vec<Vec<f64>>) -> SweepKernel {
    let core = fpcore::parse_core(src).expect("kernel parses");
    let program = fpvm::compile_core(&core, Default::default()).expect("kernel compiles");
    SweepKernel { program, inputs }
}

/// The floating-point operations one sweep of `inputs` through `program`
/// executes: the denominator of every ops/s figure, identical across
/// engines because the analysis follows the client's control flow.
///
/// # Panics
///
/// Panics if a run fails.
pub fn analyzed_ops(program: &Program, inputs: &[Vec<f64>]) -> u64 {
    struct OpCounter(u64);
    impl Tracer for OpCounter {
        fn on_compute(&mut self, _: usize, _: RealOp, _: Addr, _: &[Addr], _: &[f64], _: f64) {
            self.0 += 1;
        }
    }
    let machine = Machine::new(program);
    let mut counter = OpCounter(0);
    for input in inputs {
        machine
            .run_traced(input, &mut counter)
            .expect("benchmark runs");
    }
    counter.0
}

/// The best of `reps` runs of `f`, in ns per op of the `total_ops` ops one
/// run executes.
pub fn measure(total_ops: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64 / total_ops as f64);
    }
    best
}

/// Times `modes` round-robin: each of `rounds` rounds runs every mode once,
/// starting one mode later than the round before, so a slow spell on a
/// shared machine costs every mode alike. Returns each mode's wall times in
/// seconds, in round order.
pub fn round_robin(rounds: usize, modes: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let mut secs = vec![Vec::with_capacity(rounds); modes.len()];
    for round in 0..rounds {
        for k in 0..modes.len() {
            let mode = (round + k) % modes.len();
            let start = Instant::now();
            modes[mode]();
            secs[mode].push(start.elapsed().as_secs_f64());
        }
    }
    secs
}

/// The lower quartile, median and upper quartile of `values` (nearest
/// rank).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// The quartiles of the per-round ratios `numerator[r] / denominator[r]`
/// of two [`round_robin`] modes: how many times faster the denominator's
/// mode ran, round by round.
pub fn ratio_quartiles(numerator: &[f64], denominator: &[f64]) -> [f64; 3] {
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .map(|(n, d)| n / d)
        .collect();
    quartiles(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_benchmarks_are_available() {
        assert_eq!(timing_benchmarks().len(), 6);
        assert!(!prepared_timing_benchmarks(5).is_empty());
    }

    #[test]
    fn round_robin_times_every_mode_each_round() {
        let (mut a, mut b) = (0, 0);
        let secs = round_robin(3, &mut [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b), (3, 3));
        assert!(secs.iter().all(|mode| mode.len() == 3));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(
            ratio_quartiles(&[2.0, 6.0, 3.0], &[1.0, 2.0, 3.0]),
            [2.0, 2.0, 3.0]
        );
    }

    #[test]
    fn kernels_count_their_analyzed_ops() {
        let p = kernel("(FPCore (x) (+ (* x x) 1))", vec![vec![1.0], vec![2.0]]);
        assert_eq!(analyzed_ops(&p.program, &p.inputs), 4);
        let mut runs = 0;
        assert!(measure(4, 3, || runs += 1) >= 0.0);
        assert_eq!(runs, 3);
    }

    #[test]
    fn quality_benchmarks_respect_the_limit() {
        assert_eq!(quality_benchmarks(10).len(), 10);
    }
}
