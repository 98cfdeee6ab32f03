//! Whole-suite benchmark of every Herbgrind report engine.
//!
//! A run sets up one workload drawn from the embedded suite
//! ([`workload`]), checks every engine's reports ([`gate`]), and then either
//! times one full sweep per engine with tracing off ([`engines`]), or, in
//! the traced run, splits the cost of an analyzed op into its layers
//! ([`layers`]) with spans recorded from outside ([`spans`]).

pub mod engines;
pub mod gate;
pub mod json;
pub mod layers;
pub mod spans;
pub mod workload;

/// The median and quartiles of `values`, by linear interpolation between
/// order statistics; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (!sorted.is_empty()).then(|| [at(0.25), at(0.5), at(0.75)])
}

/// Given repeated timings of the same parts (`repeats[k][p]` is part `p`
/// in repeat `k`), the sum over parts of each part's fastest repeat.
///
/// Load from outside only ever slows a part down, and on a shared machine
/// it comes and goes over seconds, slowing whole repeats, so the median of
/// repeat totals moves with it. Each part's fastest repeat is the one least
/// disturbed.
pub fn sum_of_minima(repeats: &[Vec<f64>]) -> f64 {
    let parts = repeats.first().map_or(0, Vec::len);
    (0..parts)
        .map(|p| repeats.iter().map(|r| r[p]).fold(f64::INFINITY, f64::min))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::{quartiles, sum_of_minima};

    #[test]
    fn sum_of_minima_takes_each_part_separately() {
        let repeats = vec![vec![1.0, 10.0], vec![9.0, 2.0], vec![2.0, 3.0]];
        assert_eq!(sum_of_minima(&repeats), 1.0 + 2.0);
        assert_eq!(sum_of_minima(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0, 5.0]), Some([2.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([1.25, 1.5, 1.75]));
    }
}
