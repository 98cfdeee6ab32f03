//! Parallel analysis scaling, in two parts.
//!
//! **Loop kernels.** The suite's `while` programs at 48 inputs each, every
//! input running at least `max_expression_depth` (16) loop iterations —
//! the inputs of perfbench's `loops` workload at seed 1, where the per-op
//! record path dominates. Four rows, each timed once per repetition with
//! the order rotated between repetitions:
//!
//! * `serial` — one `analyze` sweep on this thread;
//! * `parallel` — one `analyze_parallel` sweep at 2 threads (its reports
//!   are asserted bit-identical to `serial`'s in-run);
//! * `concurrent` — two independent `analyze` sweeps at the same time, one
//!   per thread. Its wall time over `serial`'s is the contention ratio:
//!   near 1 when the two sweeps share nothing they write per op, near 2
//!   when they serialize (two process-wide reference counts on the per-op
//!   path read 1.4–1.7 on a 2-vCPU machine);
//! * `control` — a pure-arithmetic loop on two threads against the same
//!   loop on one, which reads whether a second core was free at all while
//!   the rows ran. A shared machine's control swings, so read the other
//!   ratios against it. It also keeps both cores busy between the other
//!   rows: on a virtual machine that, after single-threaded stretches,
//!   keeps new threads on one vCPU, the analysis rows then measure the
//!   engines rather than the placement.
//!
//! The ratios are medians of per-repetition ratios. Output is
//! human-readable rows plus JSON between `PARALLEL_SCALING_JSON_BEGIN`/`END`
//! markers; `PARALLEL_SCALING_JSON=path` also writes the JSON to a file
//! (the committed `BENCH_parallel_scaling.json` is produced that way), and
//! `BENCH_SMOKE=1` runs one repetition over 4 inputs per program.
//!
//! **Improvability sweep.** The improvability experiment with 1 analysis
//! thread vs all available cores, printed as a wall-clock speedup and
//! timed as a Criterion group. Both configurations produce bit-identical
//! reports; only the wall clock differs, and the speedup depends on how
//! many cores are free (the figure is printed with the core count).

use criterion::{criterion_group, Criterion};
use fpcore::Expr;
use fpvm::{Machine, Program, Tracer, Value};
use herbgrind::{analyze, analyze_parallel, AnalysisConfig};
use herbgrind_bench::{quality_benchmarks, quartiles, ratio_quartiles};
use shadowreal::RealOp;
use std::hint::black_box;
use std::time::Instant;

/// Inputs per loop program, as in perfbench's `loops` workload.
const LOOP_INPUTS: usize = 48;

/// Loop inputs are drawn from this many times `LOOP_INPUTS` samples.
const LOOP_OVERSAMPLE: usize = 16;

/// The workload seed; each program samples with it mixed with the
/// program's suite position, as perfbench does, so the inputs are those of
/// `perfbench/run.py --workload loops --seed 1`.
const LOOP_SEED: u64 = 1;

/// Threads of the `parallel`, `concurrent` and `control` rows.
const THREADS: usize = 2;

/// Iterations of the control's arithmetic loop per thread: about 0.3 s on
/// one core, as long as a `serial` sweep.
const CONTROL_ITERATIONS: u64 = 1 << 27;

/// Whether an expression contains a `while` loop.
fn has_while(expr: &Expr) -> bool {
    match expr {
        Expr::Number(_) | Expr::Const(_) | Expr::Var(_) => false,
        Expr::Op(_, args) | Expr::Cmp(_, args) | Expr::And(args) | Expr::Or(args) => {
            args.iter().any(has_while)
        }
        Expr::Not(e) => has_while(e),
        Expr::If {
            cond,
            then,
            otherwise,
        } => has_while(cond) || has_while(then) || has_while(otherwise),
        Expr::Let { bindings, body, .. } => {
            bindings.iter().any(|(_, e)| has_while(e)) || has_while(body)
        }
        Expr::While { .. } => true,
    }
}

/// Counts executed compute statements and float branches (a `while`
/// evaluates one branch per iteration, and one more to leave).
#[derive(Default)]
struct Counter {
    ops: u64,
    branches: u64,
}

impl Tracer for Counter {
    fn on_compute(&mut self, _: usize, _: RealOp, _: usize, _: &[usize], _: &[f64], _: f64) {
        self.ops += 1;
    }

    fn on_branch(
        &mut self,
        _: usize,
        _: fpcore::CmpOp,
        _: usize,
        _: usize,
        _: Value,
        _: Value,
        _: bool,
    ) {
        self.branches += 1;
    }
}

/// A compiled program and the inputs it is swept over.
type Kernel = (Program, Vec<Vec<f64>>);

/// The suite's `while` programs, each with its first `inputs` sampled
/// inputs that run at least `max_expression_depth` iterations (shorter runs
/// hit the known shard-merge exception, DESIGN.md "Parallel analysis
/// engine"), and the compute statements they execute in total.
fn loop_kernels(inputs: usize) -> (Vec<Kernel>, u64) {
    let min_iterations = AnalysisConfig::default().max_expression_depth as u64;
    let mut total_ops = 0;
    let kernels = fpbench::suite()
        .iter()
        .enumerate()
        .filter(|(_, core)| has_while(&core.body))
        .map(|(index, core)| {
            let seed = LOOP_SEED ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let prepared = fpbench::prepare(core, inputs * LOOP_OVERSAMPLE, seed)
                .expect("loop kernel prepares");
            let machine = Machine::new(&prepared.program);
            let mut kept = Vec::with_capacity(inputs);
            for input in prepared.inputs {
                let mut counter = Counter::default();
                machine
                    .run_traced(&input, &mut counter)
                    .expect("loop kernel runs");
                if counter.branches > min_iterations {
                    total_ops += counter.ops;
                    kept.push(input);
                    if kept.len() == inputs {
                        break;
                    }
                }
            }
            assert_eq!(
                kept.len(),
                inputs,
                "{}: too few long runs",
                core.display_name()
            );
            (prepared.program, kept)
        })
        .collect();
    (kernels, total_ops)
}

/// A dependent xorshift chain: integer arithmetic on registers only.
fn spin(iterations: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Runs `work` on `THREADS` threads at once (this one included) and
/// returns the wall time until all finish.
fn concurrently(work: impl Fn() + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..THREADS {
            scope.spawn(&work);
        }
        work();
    });
    start.elapsed().as_secs_f64()
}

fn timed(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_secs_f64()
}

fn loop_scaling() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let (reps, inputs) = if smoke { (1, 4) } else { (11, LOOP_INPUTS) };
    let control_iterations = if smoke {
        CONTROL_ITERATIONS >> 6
    } else {
        CONTROL_ITERATIONS
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (kernels, total_ops) = loop_kernels(inputs);
    let serial = AnalysisConfig::default().with_threads(1);
    let parallel = AnalysisConfig::default().with_threads(THREADS);

    for (program, inputs) in &kernels {
        let one = analyze(program, inputs, &serial).expect("serial sweep");
        let sharded = analyze_parallel(program, inputs, &parallel).expect("parallel sweep");
        assert_eq!(
            format!("{one:?}"),
            format!("{sharded:?}"),
            "{}: parallel report diverged from serial",
            program.name
        );
    }
    let sweep = || {
        for (program, inputs) in &kernels {
            black_box(analyze(program, inputs, &serial).expect("serial sweep"));
        }
    };
    let parallel_sweep = || {
        for (program, inputs) in &kernels {
            black_box(analyze_parallel(program, inputs, &parallel).expect("parallel sweep"));
        }
    };
    let control = || {
        black_box(spin(control_iterations));
    };
    // Each row: its name, threads, analysis sweeps per timing and timing.
    // The control's one-thread baseline rides along as a fifth row.
    let rows: [(&str, usize, u64, &dyn Fn() -> f64); 5] = [
        ("serial", 1, 1, &|| timed(sweep)),
        ("parallel", THREADS, 1, &|| timed(parallel_sweep)),
        ("concurrent", THREADS, THREADS as u64, &|| {
            concurrently(sweep)
        }),
        ("control", THREADS, 0, &|| concurrently(control)),
        ("control_one", 1, 0, &|| timed(control)),
    ];
    let mut secs = vec![Vec::with_capacity(reps); rows.len()];
    for rep in 0..reps {
        for k in 0..rows.len() {
            let row = (rep + k) % rows.len();
            secs[row].push(rows[row].3());
        }
    }
    let ratio = |num: usize, den: usize| ratio_quartiles(&secs[num], &secs[den])[1];
    let parallel_speedup = ratio(0, 1);
    let concurrent_slowdown = ratio(2, 0);
    let control_slowdown = ratio(3, 4);

    let mut json = String::from("{\n  \"bench\": \"parallel_scaling\",\n");
    json.push_str(&format!(
        "  \"workload\": {{\"programs\": {}, \"inputs_per_program\": {inputs}, \"analyzed_ops_per_sweep\": {total_ops}}},\n  \"cores\": {cores},\n  \"reps\": {reps},\n  \"rows\": [\n",
        kernels.len()
    ));
    for (row, &(name, threads, sweeps, _)) in rows.iter().enumerate().take(4) {
        let [q1, med, q3] = quartiles(&secs[row]);
        let work = if sweeps == 0 {
            format!("\"one_thread_median_s\": {:.4}", quartiles(&secs[4])[1])
        } else {
            format!("\"ops_per_sec\": {:.0}", (sweeps * total_ops) as f64 / med)
        };
        println!(
            "bench parallel_scaling/loops/{name}: {med:.3}s median wall ({q1:.3}–{q3:.3}s), {work}"
        );
        json.push_str(&format!(
            "    {{\"row\": \"{name}\", \"threads\": {threads}, \"median_s\": {med:.4}, \"q1_s\": {q1:.4}, \"q3_s\": {q3:.4}, {work}}}{}\n",
            if row == 3 { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"ratios\": {{\"parallel_vs_serial\": {parallel_speedup:.3}, \"concurrent_vs_serial\": {concurrent_slowdown:.3}, \"control_two_vs_one\": {control_slowdown:.3}}}\n}}\n"
    ));
    println!(
        "bench parallel_scaling/loops: parallel {parallel_speedup:.2}x serial; two concurrent sweeps take {concurrent_slowdown:.2}x one (control {control_slowdown:.2}x; {cores} cores, {reps} reps, {total_ops} analyzed ops per sweep)"
    );
    println!("PARALLEL_SCALING_JSON_BEGIN");
    print!("{json}");
    println!("PARALLEL_SCALING_JSON_END");
    if let Some(path) = std::env::var_os("PARALLEL_SCALING_JSON") {
        std::fs::write(&path, json).expect("write PARALLEL_SCALING_JSON file");
    }
}

fn improvability_scaling(c: &mut Criterion) {
    let suite = quality_benchmarks(12);
    let serial = AnalysisConfig::default().with_threads(1);
    let parallel = AnalysisConfig::default().with_threads(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One timed pass of each configuration for the headline speedup number.
    let start = Instant::now();
    black_box(fpbench::improvability(&suite, 60, 2024, &serial));
    let serial_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(fpbench::improvability(&suite, 60, 2024, &parallel));
    let parallel_secs = start.elapsed().as_secs_f64();
    println!(
        "[parallel scaling] improvability sweep: {serial_secs:.2}s serial, \
         {parallel_secs:.2}s on {cores} threads ({:.2}x speedup)",
        serial_secs / parallel_secs
    );

    let small = quality_benchmarks(8);
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.bench_function("threads_1", |b| {
        b.iter(|| black_box(fpbench::improvability(&small, 40, 2024, &serial)))
    });
    group.bench_function(format!("threads_{cores}"), |b| {
        b.iter(|| black_box(fpbench::improvability(&small, 40, 2024, &parallel)))
    });
    group.finish();
}

criterion_group!(benches, improvability_scaling);

fn main() {
    loop_scaling();
    benches();
}
