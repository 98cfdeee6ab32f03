//! The three workloads, drawn from the embedded suite by property, and their
//! set-up through the public front end: `parse_cores` → `compile_core` →
//! `sample_inputs`.

use crate::spans::Spans;
use fpcore::{Expr, FPCore};
use fpvm::{compile_core, CompileOptions, Machine, Program, Tracer, Value};
use shadowreal::RealOp;
use std::time::Instant;

/// A loop-free program joins `libm` when at least this share of its executed
/// operations are library calls.
pub const LIBM_SHARE: f64 = 0.30;

/// A `loops` input is kept only when its loop runs at least this many
/// iterations: the analysis's default expression depth. Below it, a
/// loop-carried trace has not reached the depth bound, and merging the
/// analyses of input shards that hold such runs loses input-range
/// contributions, so `batched`, `exact` and `parallel` reports stop matching
/// serial `analyze` (on "naive variance accumulation" and
/// "compensation-free running sum"). The workload avoids that defect
/// rather than failing on it every run; see the notes.
pub const MIN_ITERATIONS: usize = 16;

/// `loops` samples this many times its input count, then keeps the first
/// inputs that run [`MIN_ITERATIONS`] iterations.
const LOOP_OVERSAMPLE: usize = 16;

/// Which suite programs a run sweeps, and how many inputs each gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every loop-free program: short runs, so per-input and per-program
    /// fixed costs dominate.
    Straight,
    /// Every program with a `while`: long runs, so the per-op hot path
    /// dominates.
    Loops,
    /// Loop-free programs with a library-call share of at least
    /// [`LIBM_SHARE`]: shadow kernels, certification and escalation
    /// dominate.
    Libm,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Straight, Kind::Loops, Kind::Libm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Straight => "straight",
            Kind::Loops => "loops",
            Kind::Libm => "libm",
        }
    }

    /// The workload with the given name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Inputs sampled per program in a benchmark run.
    pub fn inputs_per_program(self) -> usize {
        match self {
            Kind::Straight => 128,
            Kind::Loops => 48,
            Kind::Libm => 512,
        }
    }
}

/// One suite program, ready to sweep.
#[derive(Clone, Debug)]
pub struct Member {
    /// Position in the suite.
    pub index: usize,
    /// The parsed benchmark.
    pub core: FPCore,
    /// The compiled program (library calls wrapped).
    pub program: Program,
    /// The declared input region (tier 0 of the `exact` engine).
    pub region: Vec<(f64, f64)>,
    /// The sampled inputs.
    pub inputs: Vec<Vec<f64>>,
    /// Compute statements executed over all inputs.
    pub ops: u64,
    /// The library calls among them.
    pub libm_ops: u64,
}

/// A workload after set-up.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Programs in the suite.
    pub suite_programs: usize,
    /// Suite programs with a `while` (the `loops` membership).
    pub with_while: usize,
    /// The programs swept, in suite order.
    pub members: Vec<Member>,
    /// Seconds spent setting up each suite program, member or not.
    pub program_setup_s: Vec<f64>,
}

impl Workload {
    /// Analyzed ops: compute statements executed across all members.
    pub fn ops(&self) -> u64 {
        self.members.iter().map(|m| m.ops).sum()
    }

    /// Share of the analyzed ops that are library calls.
    pub fn libm_share(&self) -> f64 {
        let libm: u64 = self.members.iter().map(|m| m.libm_ops).sum();
        libm as f64 / self.ops().max(1) as f64
    }

    /// Inputs across all members.
    pub fn inputs(&self) -> usize {
        self.members.iter().map(|m| m.inputs.len()).sum()
    }
}

/// Counts executed compute statements, library calls and branches.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounter {
    /// Compute statements executed.
    pub ops: u64,
    /// Library calls among them.
    pub libm_ops: u64,
    /// Float branches evaluated; a `while` evaluates one per iteration, and
    /// one more to leave.
    pub branches: u64,
}

impl Tracer for OpCounter {
    fn on_compute(&mut self, _: usize, op: RealOp, _: usize, _: &[usize], _: &[f64], _: f64) {
        self.ops += 1;
        self.libm_ops += u64::from(op.is_library_call());
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

/// The suite source split into one text per top-level form, so that each
/// program is parsed on its own.
pub fn program_texts(source: &str) -> Vec<&str> {
    let mut texts = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_string, mut in_comment, mut escaped) = (false, false, false);
    for (i, c) in source.char_indices() {
        if in_comment {
            in_comment = c != '\n';
        } else if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else {
            match c {
                ';' => in_comment = true,
                '"' => in_string = true,
                '(' => {
                    if depth == 0 {
                        start = i;
                    }
                    depth += 1;
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        texts.push(&source[start..=i]);
                    }
                }
                _ => {}
            }
        }
    }
    texts
}

/// Whether an expression contains a `while` loop.
pub fn has_while(expr: &Expr) -> bool {
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

/// The sampling seed of one program: the workload seed mixed with the
/// program's suite position, so programs of equal arity get distinct inputs.
fn program_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Sets up a workload: parses every suite program, selects the members by
/// property, and compiles, samples and counts each candidate.
///
/// # Errors
///
/// Describes the first program that fails to parse, compile, sample or run.
pub fn setup(
    kind: Kind,
    seed: u64,
    inputs_per_program: usize,
    spans: &mut Spans,
) -> Result<Workload, String> {
    spans.enter("setup", None);
    let result = setup_members(kind, seed, inputs_per_program, spans);
    spans.exit();
    result
}

fn setup_members(
    kind: Kind,
    seed: u64,
    inputs_per_program: usize,
    spans: &mut Spans,
) -> Result<Workload, String> {
    let texts = program_texts(fpbench::suite::SUITE_SOURCE);
    let mut members = Vec::new();
    let mut with_while = 0;
    let mut program_setup_s = Vec::with_capacity(texts.len());
    for (index, text) in texts.iter().enumerate() {
        let start = Instant::now();
        spans.enter("program", Some(index));
        let member = setup_program(kind, seed, inputs_per_program, index, text, spans);
        spans.exit();
        program_setup_s.push(start.elapsed().as_secs_f64());
        let (looped, member) = member?;
        with_while += usize::from(looped);
        members.extend(member);
    }
    Ok(Workload {
        suite_programs: texts.len(),
        with_while,
        members,
        program_setup_s,
    })
}

/// Parses one program and, when it is a candidate for `kind`, compiles,
/// samples and counts it. Returns whether it has a `while`, and the member
/// when it belongs to the workload.
fn setup_program(
    kind: Kind,
    seed: u64,
    inputs_per_program: usize,
    index: usize,
    text: &str,
    spans: &mut Spans,
) -> Result<(bool, Option<Member>), String> {
    let core = spans
        .time("fpcore.parse", Some(index), || fpcore::parse_cores(text))
        .map_err(|e| format!("suite program {index}: {e}"))?;
    let [core] = <[FPCore; 1]>::try_from(core)
        .map_err(|_| format!("suite program {index}: not one FPCore"))?;
    let looped = has_while(&core.body);
    if looped != (kind == Kind::Loops) {
        return Ok((looped, None));
    }
    let name = core.display_name().to_string();
    let program = spans
        .time("fpvm.compile", Some(index), || {
            compile_core(&core, CompileOptions::default())
        })
        .map_err(|e| format!("{name}: {e}"))?;
    let samples = if looped {
        inputs_per_program * LOOP_OVERSAMPLE
    } else {
        inputs_per_program
    };
    let mut inputs = spans
        .time("herbie-lite.sample", Some(index), || {
            herbie_lite::sample_inputs(&core, samples, program_seed(seed, index))
        })
        .map_err(|e| format!("{name}: {e}"))?;
    if looped {
        inputs = spans
            .time("fpvm.count", Some(index), || {
                long_runs(&program, inputs, inputs_per_program)
            })
            .map_err(|e| format!("{name}: {e}"))?;
    }
    let counter = spans
        .time("fpvm.count", Some(index), || count_ops(&program, &inputs))
        .map_err(|e| format!("{name}: {e}"))?;
    if kind == Kind::Libm && (counter.libm_ops as f64) < LIBM_SHARE * counter.ops as f64 {
        return Ok((looped, None));
    }
    Ok((
        looped,
        Some(Member {
            index,
            region: fpbench::sampling_region(&core),
            core,
            program,
            inputs,
            ops: counter.ops,
            libm_ops: counter.libm_ops,
        }),
    ))
}

/// The first `count` inputs whose loop runs at least [`MIN_ITERATIONS`]
/// times.
///
/// # Errors
///
/// A machine error, or too few such inputs.
fn long_runs(
    program: &Program,
    inputs: Vec<Vec<f64>>,
    count: usize,
) -> Result<Vec<Vec<f64>>, String> {
    let mut kept = Vec::with_capacity(count);
    for input in inputs {
        if kept.len() == count {
            break;
        }
        let counter =
            count_ops(program, std::slice::from_ref(&input)).map_err(|e| e.to_string())?;
        if counter.branches > MIN_ITERATIONS as u64 {
            kept.push(input);
        }
    }
    if kept.len() < count {
        return Err(format!(
            "only {} inputs run {MIN_ITERATIONS} iterations",
            kept.len()
        ));
    }
    Ok(kept)
}

/// Runs every input under the counting tracer.
///
/// # Errors
///
/// The first machine error.
pub fn count_ops(program: &Program, inputs: &[Vec<f64>]) -> Result<OpCounter, fpvm::MachineError> {
    let machine = Machine::new(program);
    let mut counter = OpCounter::default();
    for input in inputs {
        machine.run_traced(input, &mut counter)?;
    }
    Ok(counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_split_suite_parses_to_the_whole_suite() {
        let texts = program_texts(fpbench::suite::SUITE_SOURCE);
        let whole = fpbench::suite();
        assert_eq!(texts.len(), whole.len());
        for (text, core) in texts.iter().zip(&whole) {
            assert_eq!(&fpcore::parse_core(text).unwrap(), core);
        }
    }

    #[test]
    fn splitting_skips_comments_and_strings() {
        let texts = program_texts(";; (not a form)\n(a \"(\" b) ; )\n(c (d))");
        assert_eq!(texts, vec!["(a \"(\" b)", "(c (d))"]);
    }

    #[test]
    fn loop_inputs_reach_the_default_expression_depth() {
        let depth = herbgrind::AnalysisConfig::default().max_expression_depth;
        assert_eq!(MIN_ITERATIONS, depth);
    }
}
