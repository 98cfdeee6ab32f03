//! `tiered_sweep`: throughput of the tiered adaptive-precision driver
//! (`herbgrind::analyze_tiered`) against the all-`BigFloat` full-report
//! analysis it is bit-identical to, in analyzed ops per second.
//!
//! The kernels are transcendental-heavy — `sin`/`cos` products, `exp`
//! decay, `log` ratios, a Gaussian exponent — because that is where the
//! tiers matter most: the BigFloat shadow pays a software multiprecision
//! libm call per operation, while the certify probe proves (for the vast
//! majority of these inputs) that the `DoubleDouble` shadow's decisions are
//! identical, so the full record-keeping pass runs on the cheap tier.
//! Inputs sit inside the certificate domains; the in-run `TierStats`
//! assertion keeps the kernels honest about that, and the in-run report
//! comparison keeps the speedup honest about bit-identity.
//!
//! Three measurement modes over the same kernels and inputs, all at one
//! analysis thread (this bench measures the tiering, not sweep
//! parallelism):
//!
//! * `full-report` — `herbgrind::analyze`: the complete analysis on the
//!   `BigFloat` shadow for every input (what the tiered driver replaces).
//! * `tiered` — `herbgrind::analyze_tiered`: the certify probe, one serial
//!   run per input, then the full analysis on `DoubleDouble` for certified
//!   inputs and on `BigFloat` for the escalated remainder.
//! * `dd-full` — `analyze_with_shadow::<DoubleDouble>`: the (uncertified)
//!   all-dd analysis, as context for how much of the remaining gap is
//!   probe overhead vs. shadow arithmetic.
//!
//! The modes are timed round-robin (`herbgrind_bench::round_robin`): each
//! round sweeps every mode once, in rotating order, so a slow spell on a
//! shared machine costs every mode alike. A row's ns/op is its median over
//! the rounds, and each speedup is the median of the per-round ratios,
//! reported with its quartiles and the round count.
//!
//! Output is human-readable rows plus machine-readable JSON between
//! `TIERED_SWEEP_JSON_BEGIN`/`END` markers; `TIERED_SWEEP_JSON=path` also
//! writes the JSON to a file (the committed `BENCH_tiered_sweep.json`
//! baseline is produced that way), and `BENCH_SMOKE=1` switches to one
//! short round for CI.

use herbgrind::{
    analyze, analyze_tiered, analyze_tiered_with_stats, analyze_with_shadow, AnalysisConfig,
};
use herbgrind_bench::{analyzed_ops, kernel, quartiles, ratio_quartiles, round_robin, SweepKernel};
use shadowreal::DoubleDouble;
use std::hint::black_box;

/// Transcendental-heavy kernels whose inputs stay inside the certificate
/// domains (arguments well within the trig reduction range, `exp` inputs
/// far from overflow, `log` arguments bounded away from zero), so the
/// probe certifies nearly every input and the sweep's speedup reflects the
/// dd tier doing the work.
fn sweep_kernels(smoke: bool) -> Vec<SweepKernel> {
    let n = if smoke { 4 } else { 200 };
    vec![
        // sin/cos product with a polynomial correction.
        kernel(
            "(FPCore (x) (+ (* (sin x) (cos x)) (* 0.5 (* x x))))",
            (1..=n).map(|i| vec![i as f64 * 0.011]).collect(),
        ),
        // Exponential decay times a shifted log.
        kernel(
            "(FPCore (x) (* (exp (* x -0.5)) (log (+ x 2))))",
            (1..=n).map(|i| vec![i as f64 * 0.03]).collect(),
        ),
        // Logit on mid-range probabilities.
        kernel(
            "(FPCore (p) (log (/ p (- 1 p))))",
            (1..=n)
                .map(|i| vec![0.2 + 0.55 * (i as f64 / n as f64)])
                .collect(),
        ),
        // Gaussian exponent: square, scale, exp.
        kernel(
            "(FPCore (x m s) (exp (- (/ (* (- x m) (- x m)) (* 2 (* s s))))))",
            (1..=n).map(|i| vec![i as f64 * 0.013, 1.25, 0.8]).collect(),
        ),
        // atan of a quotient in the right half-plane.
        kernel(
            "(FPCore (y x) (atan (/ y x)))",
            (1..=n).map(|i| vec![i as f64 * 0.07, 2.5]).collect(),
        ),
    ]
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let rounds = if smoke { 1 } else { 101 };
    let prepared = sweep_kernels(smoke);
    // One analysis thread throughout: this bench measures the tiering.
    let config = AnalysisConfig::default().with_threads(1);

    let total_ops: u64 = prepared
        .iter()
        .map(|p| analyzed_ops(&p.program, &p.inputs))
        .sum();

    // The speedup claim rests on two in-run facts: the tiered report is
    // bit-identical to the full BigFloat report, and the probe actually
    // certifies (almost) the whole sweep onto the dd tier.
    let mut total_inputs = 0usize;
    let mut certified_inputs = 0usize;
    for p in &prepared {
        let full = analyze(&p.program, &p.inputs, &config).expect("full-report");
        let (tiered, stats) =
            analyze_tiered_with_stats(&p.program, &p.inputs, &config).expect("tiered");
        assert_eq!(
            format!("{tiered:?}"),
            format!("{full:?}"),
            "tiered report diverged from the all-BigFloat analysis"
        );
        total_inputs += stats.total_inputs;
        certified_inputs += stats.certified_inputs;
    }
    assert!(
        certified_inputs * 10 >= total_inputs * 8,
        "kernels drifted out of the certificate domains: {certified_inputs}/{total_inputs} certified"
    );

    let modes = ["full-report", "tiered", "dd-full"];
    let secs = round_robin(
        rounds,
        &mut [
            &mut || {
                for p in &prepared {
                    black_box(analyze(&p.program, &p.inputs, &config).expect("full-report"));
                }
            },
            &mut || {
                for p in &prepared {
                    black_box(analyze_tiered(&p.program, &p.inputs, &config).expect("tiered"));
                }
            },
            &mut || {
                for p in &prepared {
                    black_box(
                        analyze_with_shadow::<DoubleDouble>(&p.program, &p.inputs, &config)
                            .expect("dd-full"),
                    );
                }
            },
        ],
    );

    // --- Report -----------------------------------------------------------
    let ns_per_op: Vec<f64> = secs
        .iter()
        .map(|mode| quartiles(mode)[1] * 1e9 / total_ops as f64)
        .collect();
    for (mode, ns) in modes.iter().zip(&ns_per_op) {
        println!(
            "bench tiered_sweep/{mode}: {ns:.1} ns/op  ({:.2e} analyzed ops/s)",
            1e9 / ns
        );
    }
    let [tiered_q1, tiered_vs_full, tiered_q3] = ratio_quartiles(&secs[0], &secs[1]);
    let [dd_q1, dd_vs_full, dd_q3] = ratio_quartiles(&secs[0], &secs[2]);
    println!(
        "bench tiered_sweep: tiered vs full-report: {tiered_vs_full:.2}x \
         [{tiered_q1:.2}, {tiered_q3:.2}] (uncertified all-dd context: {dd_vs_full:.2}x; \
         medians and quartiles of {rounds} round-robin rounds; \
         {certified_inputs}/{total_inputs} inputs certified; \
         {total_ops} analyzed ops per sweep)"
    );

    let mut json = String::from("{\n  \"bench\": \"tiered_sweep\",\n  \"rows\": [\n");
    for (i, (mode, ns)) in modes.iter().zip(&ns_per_op).enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{mode}\", \"ns_per_op\": {ns:.2}, \"ops_per_sec\": {:.0}}}{}\n",
            1e9 / ns,
            if i + 1 == modes.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"analyzed_ops_per_sweep\": {total_ops},\n  \"total_inputs\": {total_inputs},\n  \"certified_inputs\": {certified_inputs},\n  \"rounds\": {rounds},\n  \"speedup\": {{\"tiered_vs_full_report\": {tiered_vs_full:.2}, \"dd_full_vs_full_report\": {dd_vs_full:.2}}},\n  \"speedup_quartiles\": {{\"tiered_vs_full_report\": [{tiered_q1:.2}, {tiered_q3:.2}], \"dd_full_vs_full_report\": [{dd_q1:.2}, {dd_q3:.2}]}}\n}}\n"
    ));
    println!("TIERED_SWEEP_JSON_BEGIN");
    print!("{json}");
    println!("TIERED_SWEEP_JSON_END");
    if let Some(path) = std::env::var_os("TIERED_SWEEP_JSON") {
        std::fs::write(&path, json).expect("write TIERED_SWEEP_JSON file");
    }
}
