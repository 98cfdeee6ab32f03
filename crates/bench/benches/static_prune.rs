//! `static_prune`: the tier-0 static error-dataflow pass over the full
//! embedded FPBench suite.
//!
//! Two measurements share one run:
//!
//! * **Survey** — `fpbench::static_prune_survey` over every suite benchmark:
//!   how many compute statements the abstract interpretation certifies
//!   stable, how many land in the prune mask (certified *and* whole forward
//!   cone certified), and how many static lints fire. This is pure static
//!   analysis — no inputs execute.
//! * **Sweep** — `herbgrind::analyze_tiered` over sampled inputs for every
//!   benchmark, once with the default config and once with the benchmark's
//!   declared sampling region armed (`with_input_ranges`), which switches
//!   tier 0 on. The armed report must be bit-identical to the plain one for
//!   every benchmark (asserted in-run), the telemetry must show executions
//!   actually skipping shadow work, and no statement the dynamic analysis
//!   flags as erroneous may carry the `CertifiedStable` verdict (the
//!   suite-wide soundness count, reported as `unsound_certifications`).
//!
//! The two sweep modes are timed round-robin
//! (`herbgrind_bench::round_robin`): each round sweeps both, in alternating
//! order, so a slow spell on a shared machine costs both alike. A row's
//! ns/op is its median over the rounds, and the speedup is the median of
//! the per-round ratios, reported with its quartiles and the round count.
//!
//! Output is human-readable rows plus machine-readable JSON between
//! `STATIC_PRUNE_JSON_BEGIN`/`END` markers; `STATIC_PRUNE_JSON=path` also
//! writes the JSON to a file (the committed `BENCH_static_prune.json`
//! baseline is produced that way), and `BENCH_SMOKE=1` switches to a few
//! samples and one round for CI.

use fpvm::Program;
use herbgrind::staticerr::{analyze_program, StaticParams, StaticVerdict};
use herbgrind::{analyze_tiered, AnalysisConfig, SweepCapture, TelemetryMode};
use herbgrind_bench::{analyzed_ops, quartiles, ratio_quartiles, round_robin};
use std::hint::black_box;

struct PreparedSweep {
    program: Program,
    inputs: Vec<Vec<f64>>,
    region: Vec<(f64, f64)>,
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let rounds = if smoke { 1 } else { 41 };
    let samples = if smoke { 4 } else { 24 };
    let suite = fpbench::suite();

    // --- Survey (static only, whole suite) --------------------------------
    let survey = fpbench::static_prune_survey(&suite, &StaticParams::default());
    assert_eq!(survey.skipped, 0, "every suite benchmark must compile");
    assert!(
        survey.prune_rate() > 0.20,
        "suite prune rate fell below the 20% floor: {}",
        survey.to_text()
    );

    // --- Prepare the dynamic sweep ----------------------------------------
    let prepared: Vec<PreparedSweep> = suite
        .iter()
        .filter_map(|core| {
            let p = fpbench::prepare(core, samples, 2024).ok()?;
            Some(PreparedSweep {
                region: fpbench::sampling_region(core),
                program: p.program,
                inputs: p.inputs,
            })
        })
        .collect();
    // One analysis thread throughout: this bench measures the pruning.
    let plain = AnalysisConfig::default().with_threads(1);

    let mut total_ops = 0u64;
    let mut total_inputs = 0usize;
    for p in &prepared {
        total_ops += analyzed_ops(&p.program, &p.inputs);
        total_inputs += p.inputs.len();
    }

    // The speedup claim rests on three in-run facts: the tier-0-armed report
    // is bit-identical to the plain tiered one on every benchmark, the prune
    // mask actually removes shadow work, and no dynamically-erroneous
    // statement is ever statically certified.
    let capture = SweepCapture::begin(TelemetryMode::On);
    let mut unsound_certifications = 0usize;
    for p in &prepared {
        let armed_config = plain.clone().with_input_ranges(p.region.clone());
        let flat = analyze_tiered(&p.program, &p.inputs, &plain);
        let armed = analyze_tiered(&p.program, &p.inputs, &armed_config);
        match (flat, armed) {
            (Ok(flat), Ok(armed)) => {
                assert_eq!(
                    format!("{armed:?}"),
                    format!("{flat:?}"),
                    "tier-0-armed report diverged from the plain tiered analysis"
                );
                let analysis = analyze_program(&p.program, &p.region, &StaticParams::default());
                for spot in &flat.spots {
                    if spot.erroneous > 0
                        && analysis.verdict(spot.pc) == StaticVerdict::CertifiedStable
                    {
                        unsound_certifications += 1;
                    }
                    for cause in &spot.root_causes {
                        if cause.erroneous_count > 0
                            && analysis.verdict(cause.pc) == StaticVerdict::CertifiedStable
                        {
                            unsound_certifications += 1;
                        }
                    }
                }
            }
            (flat, armed) => {
                assert_eq!(
                    format!("{:?}", flat.err()),
                    format!("{:?}", armed.err()),
                    "errors diverged between plain and tier-0-armed runs"
                );
            }
        }
    }
    let telemetry = capture.finish();
    let pruned_executions = telemetry.counter("tier0.pruned_executions");
    assert!(
        pruned_executions > 0,
        "tier 0 never skipped shadowing across the whole suite"
    );
    assert_eq!(
        unsound_certifications, 0,
        "dynamically erroneous statements were statically certified"
    );

    // --- Measure ----------------------------------------------------------
    let armed_configs: Vec<AnalysisConfig> = prepared
        .iter()
        .map(|p| plain.clone().with_input_ranges(p.region.clone()))
        .collect();
    let modes = ["tiered", "tiered+tier0"];
    let secs = round_robin(
        rounds,
        &mut [
            &mut || {
                for p in &prepared {
                    black_box(analyze_tiered(&p.program, &p.inputs, &plain).ok());
                }
            },
            &mut || {
                for (p, config) in prepared.iter().zip(&armed_configs) {
                    black_box(analyze_tiered(&p.program, &p.inputs, config).ok());
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
            "bench static_prune/{mode}: {ns:.1} ns/op  ({:.2e} analyzed ops/s)",
            1e9 / ns
        );
    }
    let [q1, speedup, q3] = ratio_quartiles(&secs[0], &secs[1]);
    println!(
        "bench static_prune: tier-0-armed vs plain tiered: {speedup:.2}x [{q1:.2}, {q3:.2}] \
         (median and quartiles of {rounds} round-robin rounds; {}; \
         {pruned_executions} pruned statement-executions over {total_inputs} inputs; \
         {total_ops} analyzed ops per sweep)",
        survey.to_text()
    );

    let mut json = String::from("{\n  \"bench\": \"static_prune\",\n  \"rows\": [\n");
    for (i, (mode, ns)) in modes.iter().zip(&ns_per_op).enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{mode}\", \"ns_per_op\": {ns:.2}, \"ops_per_sec\": {:.0}}}{}\n",
            1e9 / ns,
            if i + 1 == modes.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"analyzed_ops_per_sweep\": {total_ops},\n  \"total_inputs\": {total_inputs},\n  \"pruned_executions\": {pruned_executions},\n  \"unsound_certifications\": {unsound_certifications},\n  \"rounds\": {rounds},\n  \"speedup\": {{\"tier0_armed_vs_plain\": {speedup:.2}}},\n  \"speedup_quartiles\": {{\"tier0_armed_vs_plain\": [{q1:.2}, {q3:.2}]}},\n"
    ));
    // The survey JSON is itself schema-stable (`herbgrind-static-prune` v1);
    // embed it verbatim as the `survey` member.
    json.push_str("  \"survey\": ");
    json.push_str(survey.to_json().trim_end());
    json.push_str("\n}\n");
    println!("STATIC_PRUNE_JSON_BEGIN");
    print!("{json}");
    println!("STATIC_PRUNE_JSON_END");
    if let Some(path) = std::env::var_os("STATIC_PRUNE_JSON") {
        std::fs::write(&path, json).expect("write STATIC_PRUNE_JSON file");
    }
}
