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
    fn quality_benchmarks_respect_the_limit() {
        assert_eq!(quality_benchmarks(10).len(), 10);
    }
}
