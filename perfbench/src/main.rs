//! `perfbench --workload <straight|loops|libm> --seed <n> --seconds <s> --trace <0|1>
//!  [--commit <id>] [--crates-hash <hash>] [--spans <file>]`
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with tracing
//! off; with `--trace 1` the per-layer metrics of a separate traced run.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::engines::{self, Engine};
use perfbench::gate::{self, Gate};
use perfbench::layers;
use perfbench::spans::Spans;
use perfbench::workload::{self, Kind, Workload};
use perfbench::{json, quartiles, sum_of_minima};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed rounds made at least, however long they take.
const MIN_ROUNDS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    crates_hash: String,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut commit, mut crates_hash, mut spans) =
        ("unknown".to_string(), "unknown".to_string(), None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => trace = Some(value != "0"),
            "--commit" => commit = value,
            "--crates-hash" => crates_hash = value,
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
        crates_hash,
        spans,
    })
}

/// Collects metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(*value),
                    json::string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn provenance(args: &Args) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, \"crates_hash\": {}, \"nproc\": {}}}",
        json::string(args.kind.name()),
        args.seed,
        args.trace,
        json::string(&args.commit),
        json::string(&args.crates_hash),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
}

fn membership(w: &Workload) -> String {
    format!(
        "{{\"suite_programs\": {}, \"with_while\": {}, \"loop_free\": {}, \"members\": {}, \"inputs\": {}, \"ops\": {}, \"names\": {}}}",
        w.suite_programs,
        w.with_while,
        w.suite_programs - w.with_while,
        w.members.len(),
        w.inputs(),
        w.ops(),
        json::strings(w.members.iter().map(|m| m.core.display_name()))
    )
}

/// Peak resident set of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn set_up(args: &Args, spans: &mut Spans) -> Result<Workload, String> {
    workload::setup(args.kind, args.seed, args.kind.inputs_per_program(), spans)
}

/// Per-program seconds of every repeat (`[repeat][program]`).
type Repeats = Vec<Vec<f64>>;

/// Runs rounds for at least `seconds` and [`MIN_ROUNDS`] rounds. A round
/// sets the workload up again, then sweeps every engine in turn, rotating
/// which goes first, so set-up and every engine are sampled across the
/// whole run. Every rendered report is checked against the gate's after the
/// clock stops. Returns the set-up repeats, and each engine's sweeps in
/// [`Engine::ALL`] order.
fn timed_rounds(
    args: &Args,
    w: &Workload,
    gate: &mut Gate,
    spans: &mut Spans,
) -> Result<(Repeats, Vec<Repeats>), String> {
    let mut setups = vec![w.program_setup_s.clone()];
    let mut sweeps = vec![Vec::new(); Engine::ALL.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        setups.push(set_up(args, spans)?.program_setup_s);
        for k in 0..Engine::ALL.len() {
            let e = (round + k) % Engine::ALL.len();
            let sweep = engines::sweep(Engine::ALL[e], w, spans);
            gate.check_sweep(Engine::ALL[e], w, sweep.texts);
            sweeps[e].push(sweep.program_s);
        }
        round += 1;
    }
    Ok((setups, sweeps))
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(f64::NAN, |[_, m, _]| m)
}

/// `{"repeats", "q1_s", "median_s", "q3_s"}` of whole-repeat totals.
fn totals_json(repeats: &[Vec<f64>]) -> String {
    let totals: Vec<f64> = repeats.iter().map(|r| r.iter().sum()).collect();
    let [q1, q2, q3] = quartiles(&totals).unwrap_or([f64::NAN; 3]);
    format!(
        "{{\"repeats\": {}, \"q1_s\": {}, \"median_s\": {}, \"q3_s\": {}}}",
        totals.len(),
        json::number(q1),
        json::number(q2),
        json::number(q3)
    )
}

fn end_to_end(args: &Args) -> Result<(Gate, Metrics, String), String> {
    let mut spans = Spans::off();
    let w = set_up(args, &mut spans)?;
    let mut gate = gate::check(&w, &mut spans);
    let (setups, sweeps) = timed_rounds(args, &w, &mut gate, &mut spans)?;

    let mut metrics = Metrics::default();
    metrics.add("setup_s", sum_of_minima(&setups), "s");
    for (engine, sweeps) in Engine::ALL.iter().zip(&sweeps) {
        metrics.add(
            engine.metric(),
            w.ops() as f64 / sum_of_minima(sweeps),
            "ops/s",
        );
    }
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    let totals: Vec<String> = Engine::ALL
        .iter()
        .zip(&sweeps)
        .map(|(engine, sweeps)| format!("{}: {}", json::string(engine.name()), totals_json(sweeps)))
        .collect();
    let details = format!(
        "\"membership\": {}, \"setup\": {}, \"sweeps\": {{{}}}",
        membership(&w),
        totals_json(&setups),
        totals.join(", ")
    );
    Ok((gate, metrics, details))
}

fn traced(args: &Args) -> Result<(Gate, Metrics, String), String> {
    let mut spans = Spans::on();
    spans.enter("workload", None);
    let w = set_up(args, &mut spans)?;
    let mut gate = gate::check(&w, &mut spans);
    let counts = layers::exact_counts(&w, &mut spans)?;
    let certified = (counts.certified_share * w.inputs() as f64).round() as u64;
    gate.expect(
        format!(
            "tiered verdicts alone ({}) match the sweep's ({certified})",
            counts.certified_alone
        ),
        counts.certified_alone == certified,
    );
    let streams = layers::record_streams(&w).map_err(|e| e.to_string())?;

    // Half the time splits the op cost into layers; the other half compares
    // traced with untraced sweeps of every engine.
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let deadline = Instant::now() + half;
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        layers::decompose(&w, &streams, &mut spans)?;
        passes += 1;
    }
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + half;
    while traced_s.is_empty() || Instant::now() < deadline {
        for (on, times) in [(true, &mut traced_s), (false, &mut untraced_s)] {
            spans.set_enabled(on);
            spans.enter("sweeps", None);
            let mut round = 0.0;
            for engine in Engine::ALL {
                let sweep = engines::sweep(engine, &w, &mut spans);
                round += sweep.seconds();
                gate.check_sweep(engine, &w, sweep.texts);
            }
            spans.exit();
            times.push(round);
        }
    }
    spans.set_enabled(true);
    spans.exit();

    let members = w.members.len().max(1) as f64;
    let ops = w.ops().max(1) as f64;
    let per_program_us = |name: &str| {
        let t = spans.layer(name);
        t.total_ns as f64 / t.count.max(1) as f64 / 1e3
    };
    // Each pass visits every member once, so a layer's passes are its span
    // count over the member count.
    let ns_per_op = |name: &str| {
        let t = spans.layer(name);
        t.total_ns as f64 / (ops * (t.count as f64 / members).max(1.0))
    };
    let mut m = Metrics::default();
    m.add("fpcore.parse_us", per_program_us("fpcore.parse"), "us");
    m.add("fpvm.compile_us", per_program_us("fpvm.compile"), "us");
    m.add(
        "herbie-lite.sample_us",
        per_program_us("herbie-lite.sample"),
        "us",
    );
    m.add("fpvm.ops", counts.ops as f64, "count");
    m.add("fpvm.libm_share", counts.libm_share, "ratio");
    m.add("fpvm.native_ns_per_op", ns_per_op("fpvm.native"), "ns");
    m.add("fpvm.traced_ns_per_op", ns_per_op("fpvm.traced"), "ns");
    m.add("fpvm.lane_occupancy", counts.lane_occupancy, "ratio");
    m.add(
        "shadowreal.bigfloat_ns_per_op",
        ns_per_op("shadowreal.bigfloat"),
        "ns",
    );
    m.add("shadowreal.dd_ns_per_op", ns_per_op("shadowreal.dd"), "ns");
    m.add("localerr.ns_per_op", ns_per_op("localerr"), "ns");
    m.add("analysis.run_ns_per_op", ns_per_op("analysis.run"), "ns");
    m.add(
        "analysis.record_ns_per_op",
        ns_per_op("analysis.run") - ns_per_op("fpvm.traced") - ns_per_op("localerr"),
        "ns",
    );
    m.add(
        "analysis.report_us",
        per_program_us("analysis.report"),
        "us",
    );
    m.add("batched.probe_ns_per_op", ns_per_op("batched.probe"), "ns");
    m.add("batched.erroneous_share", counts.erroneous_share, "ratio");
    m.add("tiered.certified_share", counts.certified_share, "ratio");
    m.add(
        "tiered.verdict_groups",
        counts.verdict_groups as f64,
        "count",
    );
    m.add(
        "staticerr.analyze_us",
        per_program_us("staticerr.analyze"),
        "us",
    );
    m.add("staticerr.pruned_share", counts.pruned_share, "ratio");
    m.add(
        "quarantine.isolated_ns_per_op",
        ns_per_op("quarantine.isolated"),
        "ns",
    );
    m.add("report.render_us", per_program_us("report.render"), "us");
    m.add("report.root_causes", counts.root_causes as f64, "count");
    m.add(
        "bench.trace_overhead",
        median(&traced_s) / median(&untraced_s) - 1.0,
        "ratio",
    );

    let self_ms: Vec<String> = spans
        .layer_times()
        .iter()
        .map(|(name, t)| {
            format!(
                "{}: {}",
                json::string(name),
                json::number(t.self_ns as f64 / 1e6)
            )
        })
        .collect();
    let details = format!(
        "\"membership\": {}, \"decompose_passes\": {passes}, \"overhead_rounds\": {}, \"self_ms\": {{{}}}",
        membership(&w),
        traced_s.len(),
        self_ms.join(", ")
    );
    if let Some(path) = &args.spans {
        let header = format!(
            "{{\"provenance\": {}, \"membership\": {}}}",
            provenance(args),
            membership(&w)
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
        }
        std::fs::write(path, spans.to_json(&header)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok((gate, m, details))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let (gate, metrics, details) = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for failure in &gate.failures {
        println!("FAILED {failure}");
    }
    println!(
        "{{\"perfbench\": {{\"provenance\": {}, \"failed_share\": {}, {details}}}}}",
        provenance(&args),
        json::number(gate.failed as f64 / gate.attempted.max(1) as f64)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
