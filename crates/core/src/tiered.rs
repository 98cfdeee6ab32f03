//! Tiered adaptive-precision analysis: probe → escalate → certify.
//!
//! # Architecture
//!
//! [`analyze_tiered`] runs the input sweep in two passes:
//!
//! 1. **Certify pass.** Every input runs once on the serial machine under
//!    the certify probe — a `DoubleDouble` shadow plus a per-value
//!    certificate bound `E` with the invariant `|value_dd − value_big| ≤ E`
//!    ([`shadowreal::cert`]). Its slots start zeroed every run, like
//!    machine memory, so a location nothing wrote already holds the leaf
//!    the analysis would lazily shadow. At every point where the full
//!    analysis makes a *decision* from a shadow value — the double rounding
//!    feeding local and total error, the compensation equality test (§5.3),
//!    a branch comparison — the probe checks that the widened bound cannot
//!    flip the decision. An input where any check fails is marked
//!    uncertified. The pass also names the *demand set*: the statements that
//!    can be erroneous under `BigFloat`.
//!
//! 2. **Escalate pass.** Every input runs the full record-keeping analysis
//!    on the shadow its verdict picks, in input order: certified inputs on
//!    the `DoubleDouble` shadow, uncertified ones escalated to the
//!    `BigFloat` shadow. Every chunk runs on the serial engine, where the
//!    two analyses hand one [`AnalysisState`](crate::AnalysisState) back
//!    and forth, so its records accumulate in input order with no merge
//!    between tiers or inputs. Statements outside the demand set keep only
//!    their records' counts, and a sweep whose demand set is empty builds no
//!    traces.
//!
//! Both passes sweep every input as one chunk, on the tiered fault-isolating
//! engine in [`crate::quarantine`]; [`analyze_tiered`] is its fail-fast
//! view. [`AnalysisConfig::threads`] and [`AnalysisConfig::batch_width`] do
//! not reach them, so nothing merges and the report never depends on either.
//!
//! # Why the report is bit-identical to the all-`BigFloat` analysis
//!
//! Everything the analysis *records* is derived from doubles: client values,
//! rounded shadow values (`to_f64`), error bits, and boolean decisions.
//! The certificate machinery guarantees that for a certified input every one
//! of those doubles is the same under both shadows:
//!
//! - every computed shadow value has a certified rounding
//!   ([`cert::rounding_certified`]), so `to_f64` agrees — covering the
//!   rounded operands and result of the local-error computation (Figure 4),
//!   the total error at outputs, and the truncation at float→int casts;
//! - leaf shadows (arguments, constants, lazily shadowed locations) are
//!   created from the same double in both tiers, so they are exactly equal
//!   (`E = 0`);
//! - every comparison decision — branch predicates and the compensation
//!   pass-through equality — is certified separation-or-exactness
//!   ([`cert::compare_certified`]), so the `Ordering` agrees.
//!
//! Identical doubles and identical decisions mean a certified run
//! accumulates identical records under either shadow, so one record state
//! that runs each input on its own tier, in input order, reproduces one
//! serial `BigFloat` sweep bit for bit. The probe is **conservative**: every bound
//! carries the explicit widening margin [`cert::WIDENING`], and anything the
//! certificate cannot prove (IEEE specials, out-of-domain library calls,
//! unsupported operations, values near a rounding boundary) fails closed
//! into the `BigFloat` tier. The differential suite checks the identity
//! end to end; a probe bug can cost throughput, never correctness of this
//! contract's *enforcement* — the oracle compares reports, not certificates.
//!
//! Precision is tiered too: below [`cert::MIN_TIER_PRECISION`] bits of
//! requested shadow precision the `DoubleDouble` tier cannot promise
//! anything (its own ~106-bit significand stops dominating the BigFloat
//! rounding terms), so the driver skips the probe and runs the whole sweep
//! in the `BigFloat` tier.
//!
//! # Why counts-only records leave the report unchanged
//!
//! A report reads an operation record's symbolic expression, input ranges
//! and example only when the record was erroneous at least once, and
//! influence sets hold only erroneous statements. A statement outside the
//! demand set is never erroneous, so its record needs only the counts that
//! `total_operations` and the averages read. The probe puts a statement in
//! demand when its local error on a still-certified run exceeds the
//! threshold — on such a run the rounded operands and result are
//! `BigFloat`'s, so the decision is too — and whenever the run's certificate
//! fails at or before the statement. A deadline fault, a panicking pass or
//! the precision gate puts every statement in demand. Compensated
//! executions only make the set larger. When no statement is in demand, no
//! record reads a trace, so compute results carry the interner's kept `0.0`
//! leaf; a trace budget is defined over the full traces, so a budgeted sweep
//! keeps them. DESIGN.md, "Demand set", gives the whole argument.

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use crate::analysis::{Observe, StatementMask};
use crate::config::AnalysisConfig;
use crate::localerr::UlpsThreshold;
use crate::quarantine::{fail_fast, tiered_family};
use crate::report::Report;
use fpcore::CmpOp;
use fpvm::{Addr, Machine, MachineError, Program, Statement, Tracer, Value, MAX_ARITY};
use shadowreal::cert::{self, CertParams};
use shadowreal::{ulps_between, DoubleDouble, Real, RealOp};
use std::sync::Arc;

/// How a tiered sweep split its inputs between the shadow tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Inputs analyzed (both tiers together).
    pub total_inputs: usize,
    /// Inputs whose probe pass certified the `DoubleDouble` tier.
    pub certified_inputs: usize,
}

impl TierStats {
    /// Inputs escalated to the `BigFloat` tier.
    pub fn escalated_inputs(&self) -> usize {
        self.total_inputs - self.certified_inputs
    }
}

/// Which certificate check first failed a certify run — the telemetry
/// attribution for an escalation ("escalation causes by `cert` failure
/// kind"). Each input is one run of its own, so the first failing check per
/// input is deterministic across thread counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CertFailKind {
    /// [`cert::rounding_certified`] could not pin the rounded result.
    Rounding,
    /// A §5.3 compensation pass-through equality was not certified.
    Compensation,
    /// A branch comparison was not certified separated-or-exact.
    Branch,
}

/// The demand set D of a tiered sweep: the compute statements whose local
/// error can exceed the threshold under the `BigFloat` shadow on some input
/// of the sweep. Every other statement is never erroneous, so its records
/// keep only their counts ([`Observe::Counts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Demand {
    /// Every statement: the certify pass could not bound what `BigFloat`
    /// decides (a deadline fault, a panic, the precision gate).
    Every,
    /// The marked statements, by pc; statements past the end are unmarked.
    Marked(Vec<bool>),
}

impl Demand {
    /// Whether statement `pc` is in the set.
    pub(crate) fn contains(&self, pc: usize) -> bool {
        match self {
            Demand::Every => true,
            Demand::Marked(marked) => marked.get(pc).copied().unwrap_or(false),
        }
    }

    /// How many of `program`'s compute statements are in the set.
    pub(crate) fn computes(&self, program: &Program) -> usize {
        let computes = program.statements.iter().enumerate();
        computes
            .filter(|&(pc, statement)| {
                matches!(statement, Statement::Compute { .. }) && self.contains(pc)
            })
            .count()
    }
}

/// What the certify pass decided for a sweep: the per-input verdicts, in
/// input order, and the sweep's demand set.
#[derive(Debug)]
pub(crate) struct Certified {
    pub(crate) verdicts: Vec<bool>,
    pub(crate) demand: Demand,
}

impl Certified {
    /// The fail-closed outcome for `len` inputs the pass could not decide:
    /// every input escalates, and every statement is in demand.
    pub(crate) fn escalate_all(len: usize) -> Certified {
        Certified {
            verdicts: vec![false; len],
            demand: Demand::Every,
        }
    }
}

/// The certify-pass tracer: a `DoubleDouble` shadow execution of one input
/// at a time that carries a certificate bound per shadow value and a sticky
/// verdict per run.
///
/// Its shadow memory follows the local-error probe's rule: the slots are
/// zeroed at the start of every run, leaves (arguments, constants, integer
/// stores and float→int casts) write the exact double, a copy copies the
/// value and its bound, and a read past the table reads an exact zero.
/// Machine memory starts at `0.0` too and changes only through those
/// statements and computes, so a slot nothing wrote holds exactly the double
/// the full analysis would lazily shadow
/// ([`Herbgrind`](crate::analysis::Herbgrind), §6), and an integer's slot
/// holds the `i as f64` leaf the analysis makes when it reads it. Computes
/// evaluate [`DoubleDouble::apply_ref`], the scalar kernel the full
/// `DoubleDouble` analysis runs. The certificate layer rides on top: leaves
/// are exact (`E = 0`), computes propagate bounds through
/// [`cert::propagate`] and certify the result's rounding, and every
/// comparison decision the full analysis would make is certified or the
/// run's verdict drops.
#[derive(Debug)]
pub(crate) struct CertifyProbe {
    /// The `DoubleDouble` shadow of each address with its certificate bound
    /// `E`: `|dd − big| ≤ E`.
    slots: Vec<(DoubleDouble, f64)>,
    /// The check that dropped the current run's verdict; `None` while the
    /// run is certified. Sticky until the next run.
    failed: Option<CertFailKind>,
    params: CertParams,
    /// Whether the full analysis will run compensation detection (§5.3),
    /// whose pass-through equality tests must then be certified too.
    detect_compensation: bool,
    /// The analysis's local-error test, made on certified runs for the
    /// demand set.
    threshold: UlpsThreshold,
    /// The demand set so far, by pc: statements that can be erroneous under
    /// `BigFloat` on some input of the sweep. Accumulates across runs.
    demand: Vec<bool>,
}

impl CertifyProbe {
    /// A probe certifying against `params`, mirroring an analysis configured
    /// like `config`.
    fn new(params: CertParams, config: &AnalysisConfig) -> Self {
        CertifyProbe {
            slots: Vec::new(),
            failed: None,
            params,
            detect_compensation: config.detect_compensation,
            threshold: UlpsThreshold::new(config.local_error_threshold),
            demand: Vec::new(),
        }
    }

    /// Whether statement `pc` is in the demand set already.
    #[inline]
    fn demanded(&self, pc: usize) -> bool {
        self.demand.get(pc).copied().unwrap_or(false)
    }

    /// Puts statement `pc` in the demand set.
    fn demand(&mut self, pc: usize) {
        if pc >= self.demand.len() {
            self.demand.resize(pc + 1, false);
        }
        self.demand[pc] = true;
    }

    /// The shadow of `addr` and its bound; past the table, an exact zero,
    /// which is what a grown slot holds.
    #[inline]
    fn read(&self, addr: Addr) -> (DoubleDouble, f64) {
        self.slots
            .get(addr)
            .copied()
            .unwrap_or((DoubleDouble::ZERO, 0.0))
    }

    /// Writes `addr`, growing the slots on the cold path like the analysis's
    /// `put_shadow` (statements may address beyond the space announced at
    /// `on_start`).
    #[inline]
    fn write(&mut self, addr: Addr, value: DoubleDouble, err: f64) {
        if addr >= self.slots.len() {
            self.slots.resize(addr + 1, (DoubleDouble::ZERO, 0.0));
        }
        self.slots[addr] = (value, err);
    }

    /// Writes the exact leaf `value` (`E = 0`) to `dest`: both tiers shadow
    /// the same double exactly.
    #[inline]
    fn write_leaf(&mut self, dest: Addr, value: f64) {
        self.write(dest, DoubleDouble::from_f64(value), 0.0);
    }
}

impl Tracer for CertifyProbe {
    fn on_start(&mut self, program: &Program, args: &[f64]) {
        self.slots.clear();
        self.slots
            .resize(program.num_addrs, (DoubleDouble::ZERO, 0.0));
        self.failed = None;
        for (&addr, &value) in program.arg_addrs.iter().zip(args) {
            self.write_leaf(addr, value);
        }
    }

    fn on_compute(
        &mut self,
        pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        _arg_values: &[f64],
        _result: f64,
    ) {
        // The demand set. A run whose certificate failed decides nothing
        // after the failure, so it puts every statement it reaches in demand.
        if self.failed.is_some() {
            self.demand(pc);
            return;
        }
        let n = args.len();
        let mut operands = [(DoubleDouble::ZERO, 0.0); MAX_ARITY];
        for (operand, &addr) in operands.iter_mut().zip(args) {
            *operand = self.read(addr);
        }
        let mut values = [&DoubleDouble::ZERO; MAX_ARITY];
        let mut pairs = [(&DoubleDouble::ZERO, 0.0); MAX_ARITY];
        for (i, (value, err)) in operands[..n].iter().enumerate() {
            values[i] = value;
            pairs[i] = (value, *err);
        }
        let exact = DoubleDouble::apply_ref(op, &values[..n]);
        let e = cert::propagate(op, &pairs[..n], &exact, &self.params);
        // The rounded result feeds the local error of this very operation
        // (and, downstream, total error and casts), so an uncertifiable
        // rounding fails the run immediately.
        if !cert::rounding_certified(&exact, e) {
            self.failed = Some(CertFailKind::Rounding);
        } else if self.detect_compensation && matches!(op, RealOp::Add | RealOp::Sub) {
            // §5.3 pass-through tests: `exact_result.eq_value(arg)` for every
            // candidate argument (subtraction never passes its second
            // argument through). The subsequent error comparison only
            // consumes certified roundings, so certifying the equality
            // decisions certifies the whole detection.
            let candidates = if op == RealOp::Sub { 1 } else { n };
            let certified =
                |&(arg, err): &(&DoubleDouble, f64)| cert::compare_certified(&exact, e, arg, err);
            if !pairs[..candidates].iter().all(certified) {
                self.failed = Some(CertFailKind::Compensation);
            }
        }
        if self.failed.is_some() {
            self.demand(pc);
            return;
        }
        // On a certified run the rounded operands and result are
        // `BigFloat`'s, so the local-error test on them is `BigFloat`'s
        // decision. A statement in demand already needs no test.
        if !self.demanded(pc) {
            let rounded: [f64; MAX_ARITY] = std::array::from_fn(|i| values[i].hi());
            let float = f64::apply(op, &rounded[..n]);
            if self.threshold.exceeded_by(ulps_between(float, exact.hi())) {
                self.demand(pc);
            }
        }
        self.write(dest, exact, e);
    }

    fn on_const_f(&mut self, _pc: usize, dest: Addr, value: f64) {
        self.write_leaf(dest, value);
    }

    fn on_const_i(&mut self, _pc: usize, dest: Addr, value: i64) {
        self.write_leaf(dest, value as f64);
    }

    fn on_copy(&mut self, _pc: usize, dest: Addr, src: Addr, _value: Value) {
        let (value, err) = self.read(src);
        self.write(dest, value, err);
    }

    fn on_cast_to_int(&mut self, _pc: usize, dest: Addr, _src: Addr, _value: f64, result: i64) {
        // The divergence decision truncates `shadow.to_f64()`, whose
        // rounding was certified where the shadow was defined (leaves are
        // exact); nothing further to check.
        self.write_leaf(dest, result as f64);
    }

    fn on_branch(
        &mut self,
        _pc: usize,
        _cmp: CmpOp,
        lhs: Addr,
        rhs: Addr,
        _lhs_value: Value,
        _rhs_value: Value,
        _taken: bool,
    ) {
        // The analysis compares the shadows with full `Real::compare`
        // semantics to detect divergence; certified separation (or joint
        // exactness) makes the `Ordering` agree across tiers for every
        // comparison operator.
        let ((lhs, lhs_err), (rhs, rhs_err)) = (self.read(lhs), self.read(rhs));
        if self.failed.is_none() && !cert::compare_certified(&lhs, lhs_err, &rhs, rhs_err) {
            self.failed = Some(CertFailKind::Branch);
        }
    }
}

/// Runs the certify pass over `inputs`, one run per input on `machine`, and
/// returns the per-input verdicts, in input order, with the inputs' demand
/// set.
///
/// Inputs whose run fails with a [`MachineError`] are marked uncertified:
/// the escalate pass reruns them in the `BigFloat` tier. A deadline fault
/// also puts every statement in demand, because a deadline depends on load
/// and can stop the probe's run before the `BigFloat` run of the same input
/// stops. Every other machine error depends only on the program, the input
/// and the config, so the `BigFloat` run of that input faults at the same
/// step or earlier and is quarantined (or becomes a fail-fast driver's
/// error), and none of its records reach a report; the demand set keeps
/// what the probe marked. Unlike the analysis sweeps, the probe must
/// classify *every* input, so a failed run does not stop the pass.
/// `armed` (fault-injection builds only) applies the installed plan's
/// injected certification verdicts; `inputs` is the whole sweep, so an
/// input's index is its sweep-global one.
pub(crate) fn certify_inputs(
    machine: &Machine<'_>,
    inputs: &[Vec<f64>],
    params: &CertParams,
    config: &AnalysisConfig,
    #[cfg(feature = "fault-injection")] armed: bool,
) -> Certified {
    let mut probe = CertifyProbe::new(*params, config);
    let mut memory = Vec::new();
    let mut deadline_fault = false;
    #[allow(unused_mut)]
    let mut verdicts: Vec<bool> = inputs
        .iter()
        .map(|input| {
            let run = machine.run_traced_reusing(input, &mut probe, &mut memory);
            deadline_fault |= matches!(run, Err(MachineError::DeadlineExceeded { .. }));
            let verdict = probe.failed.is_none() && run.is_ok();
            if telemetry::enabled() && !verdict {
                // Escalation cause: the first failing certificate check, or
                // a machine fault when every check passed.
                match probe.failed {
                    Some(CertFailKind::Rounding) => telemetry::TIERED_ESCALATE_ROUNDING.incr(),
                    Some(CertFailKind::Compensation) => {
                        telemetry::TIERED_ESCALATE_COMPENSATION.incr()
                    }
                    Some(CertFailKind::Branch) => telemetry::TIERED_ESCALATE_BRANCH.incr(),
                    None => telemetry::TIERED_ESCALATE_MACHINE_FAULT.incr(),
                }
            }
            verdict
        })
        .collect();
    // An injected tier-escalation failure forces the input out of the
    // certified tier at verdict time, so the escalation tier (where the same
    // injection panics) is exercised. Armed only by the fault-isolated
    // driver.
    #[cfg(feature = "fault-injection")]
    if armed {
        use crate::faultinject::{self, InjectKind, InjectStage};
        for (index, verdict) in verdicts.iter_mut().enumerate() {
            if faultinject::query(index, 0, InjectStage::TieredCertify)
                == Some(InjectKind::TierEscalation)
            {
                if *verdict {
                    telemetry::TIERED_ESCALATE_INJECTED.incr();
                }
                *verdict = false;
            }
        }
    }
    let demand = if deadline_fault {
        Demand::Every
    } else {
        Demand::Marked(probe.demand)
    };
    Certified { verdicts, demand }
}

/// Arms tier 0 for a tiered sweep: the static prune mask of the program
/// over the declared [`AnalysisConfig::input_ranges`].
///
/// Tier 0 runs *before any input executes*: [`staticerr::analyze_program`]
/// abstractly interprets the compiled tape over the declared region and
/// certifies statements whose dynamic error can never trip the thresholds
/// for any in-region input. Certified statements (filtered to the
/// report-invisible subset by [`staticerr::prune_mask`]) skip dynamic
/// shadowing in **both** dynamic tiers — the certificate bounds the exact
/// value, not a particular shadow, so it holds under `DoubleDouble` and
/// `BigFloat` alike.
///
/// The mask is armed per sweep: only when every swept input lies inside the
/// region (NaN coordinates never do). Otherwise the whole sweep runs
/// unpruned and the static pass is skipped, so the bit-identity contract
/// holds even when the declared ranges are wrong. Returns `None` as well
/// when no ranges are declared, when they do not match the program's arity
/// (fail closed), when nothing prunable was certified, or when the sweep
/// has a trace budget: the budget is defined over the full traces, and a
/// pruned statement builds none, so an input that exhausts the budget
/// unpruned could pass it pruned.
pub(crate) fn arm_tier0(
    program: &Program,
    config: &AnalysisConfig,
    inputs: &[Vec<f64>],
) -> Option<staticerr::PruneMask> {
    let ranges = config.input_ranges.as_ref()?;
    if config.trace_node_budget != 0 {
        return None;
    }
    let inside = |input: &Vec<f64>| {
        input.len() == ranges.len()
            && input
                .iter()
                .zip(ranges)
                .all(|(&x, &(lo, hi))| lo <= x && x <= hi)
    };
    if ranges.len() != program.arg_addrs.len() || !inputs.iter().all(inside) {
        return None;
    }
    let _span = telemetry::span(telemetry::Phase::Tier0Static);
    let params = staticerr::StaticParams {
        local_error_threshold: config.local_error_threshold,
        output_error_threshold: config.output_error_threshold,
        detect_compensation: config.detect_compensation,
    };
    let analysis = staticerr::analyze_program(program, ranges, &params);
    let mask = staticerr::prune_mask(program, &analysis);
    telemetry::TIER0_STATEMENTS_CERTIFIED.add(analysis.certified_computes as u64);
    telemetry::TIER0_STATEMENTS_PRUNED.add(mask.pruned_computes() as u64);
    (!mask.is_empty()).then_some(mask)
}

/// The statement mask of a tiered sweep's escalate pass: tier 0's pruned
/// statements ([`arm_tier0`]), the statements outside the sweep's demand
/// set, and whether compute results need traces. `None` when it would
/// change nothing: no statement is pruned and every statement is in demand.
pub(crate) fn statement_mask(
    program: &Program,
    prune: Option<&staticerr::PruneMask>,
    demand: &Demand,
    config: &AnalysisConfig,
) -> Option<Arc<StatementMask>> {
    if prune.is_none() && *demand == Demand::Every {
        return None;
    }
    let observe: Vec<Observe> = (0..program.len())
        .map(|pc| {
            if prune.is_some_and(|mask| mask.is_pruned(pc)) {
                Observe::Pruned
            } else if demand.contains(pc) {
                Observe::Full
            } else {
                Observe::Counts
            }
        })
        .collect();
    let traces = config.trace_node_budget != 0 || observe.contains(&Observe::Full);
    Some(Arc::new(StatementMask::new(observe, traces)))
}

/// Runs the tiered adaptive-precision analysis and returns the report
/// together with the tier split.
///
/// Interchangeable with [`analyze`](crate::analysis::analyze): the report
/// is bit-identical — certified inputs merely run in the cheaper
/// `DoubleDouble` tier. Both passes sweep every input as one chunk, so
/// nothing merges, and [`AnalysisConfig::threads`] and
/// [`AnalysisConfig::batch_width`] do not change the report. With
/// [`AnalysisConfig::input_ranges`] set and every input inside the declared
/// region, tier 0 runs first and the sweep skips shadowing for statically
/// certified statements. This is the fail-fast view of
/// [`analyze_tiered_isolated_with_stats`](crate::quarantine::analyze_tiered_isolated_with_stats),
/// run without fault injection.
///
/// # Errors
///
/// Propagates [`MachineError`] like every driver: the error of the earliest
/// failing input is returned.
pub fn analyze_tiered_with_stats(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<(Report, TierStats), MachineError> {
    let (report, stats) = tiered_family(program, inputs, config, false);
    Ok((fail_fast(report)?, stats))
}

/// [`analyze_tiered_with_stats`] without the tier split.
///
/// # Errors
///
/// Propagates [`MachineError`]; the earliest failing input's error.
pub fn analyze_tiered(
    program: &Program,
    inputs: &[Vec<f64>],
    config: &AnalysisConfig,
) -> Result<Report, MachineError> {
    analyze_tiered_with_stats(program, inputs, config).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test assertions may unwrap freely

    use super::*;
    use crate::analysis::analyze;
    use crate::quarantine::{
        analyze_isolated, analyze_tiered_isolated, analyze_tiered_isolated_with_stats, SweepFault,
        SweepStage,
    };
    use fpcore::parse_core;
    use fpvm::compile_core;

    fn program(src: &str) -> Program {
        compile_core(&parse_core(src).unwrap(), Default::default()).unwrap()
    }

    fn assert_tiered_identical(
        p: &Program,
        inputs: &[Vec<f64>],
        config: &AnalysisConfig,
    ) -> TierStats {
        let serial = analyze(p, inputs, &config.clone().with_threads(1)).unwrap();
        let (tiered, stats) = analyze_tiered_with_stats(p, inputs, config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{tiered:?}"));
        assert_eq!(stats.total_inputs, inputs.len());
        stats
    }

    #[test]
    fn cancellation_sweep_is_identical_and_mostly_certified() {
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![10f64.powi(i)]).collect();
        let config = AnalysisConfig::default().with_threads(1);
        let stats = assert_tiered_identical(&p, &inputs, &config);
        // Small inputs certify; large ones cancel away most of the
        // DoubleDouble's 106 bits and legitimately escalate — the split
        // itself is what the tiered driver is for.
        assert!(stats.certified_inputs >= 10, "{stats:?}");
        assert!(stats.escalated_inputs() >= 10, "{stats:?}");
    }

    #[test]
    fn transcendental_sweep_is_identical_and_certifies() {
        let p = program("(FPCore (x) (/ (- (exp x) 1) (log (+ 1 (sin x)))))");
        let inputs: Vec<Vec<f64>> = (1..40).map(|i| vec![f64::from(i) * 0.11]).collect();
        let config = AnalysisConfig::default().with_threads(1);
        let stats = assert_tiered_identical(&p, &inputs, &config);
        assert!(stats.certified_inputs > 0, "{stats:?}");
    }

    #[test]
    fn specials_escalate_but_stay_identical() {
        // Division by an exact zero manufactures inf/NaN mid-run; the dd
        // shadow does not model IEEE special semantics, so those inputs must
        // fail certification — and the report must still match.
        let p = program("(FPCore (x) (/ 1 (- x x)))");
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i)]).collect();
        let config = AnalysisConfig::default().with_threads(1);
        let stats = assert_tiered_identical(&p, &inputs, &config);
        assert_eq!(stats.certified_inputs, 0, "{stats:?}");
    }

    #[test]
    fn compensation_decisions_are_certified_or_escalated() {
        // Fast2Sum: the compensation detector's pass-through equality tests
        // fire on every add/sub; mixed benign and cancelling inputs.
        let p = program("(FPCore (a b) (- b (- (- (+ a b) a) b)))");
        let mut inputs: Vec<Vec<f64>> = (1..20)
            .map(|i| vec![f64::from(i) * 1e9, 1.0 / f64::from(i)])
            .collect();
        inputs.push(vec![1.0, -1.0]);
        inputs.push(vec![1e300, -1e300]);
        let config = AnalysisConfig::default().with_threads(1);
        let stats = assert_tiered_identical(&p, &inputs, &config);
        assert!(stats.certified_inputs > 0, "{stats:?}");
    }

    #[test]
    fn precision_gate_escalates_everything() {
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![10f64.powi(i)]).collect();
        let config = AnalysisConfig {
            shadow_precision: 128,
            ..AnalysisConfig::default().with_threads(1)
        };
        let stats = assert_tiered_identical(&p, &inputs, &config);
        assert_eq!(stats.certified_inputs, 0, "below the tier threshold");
    }

    #[test]
    fn threads_and_widths_do_not_change_the_report() {
        let p = program("(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))");
        let inputs: Vec<Vec<f64>> = (1..23).map(|i| vec![f64::from(i * 3)]).collect();
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        for (threads, width) in [(1, 1), (3, 4), (2, 13), (4, 16)] {
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_batch_width(width);
            let (tiered, stats) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{tiered:?}"),
                "threads={threads} width={width}"
            );
            assert_eq!(stats.total_inputs, inputs.len());
        }
    }

    /// `(- (sqrt (+ x 1)) (sqrt x))` over 24 inputs with interleaved
    /// verdicts: `x = 1 + i` certifies, while every third input,
    /// `x = 10^(15+i)`, cancels past what the certificate can vouch for.
    fn mixed_sweep() -> (Program, Vec<Vec<f64>>) {
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let inputs = (0..24)
            .map(|i| match i % 3 {
                2 => vec![10f64.powi(15 + i)],
                _ => vec![1.0 + f64::from(i)],
            })
            .collect();
        (p, inputs)
    }

    /// Sweeps `inputs` through serial `analyze` and one-thread tiered sweeps
    /// at widths {1, 8}, which the tiered engine ignores. Whatever its
    /// verdicts, a chunk runs on the serial engine, which hands one record
    /// state between the tiers: each input is one run on its tier's shadow,
    /// timed as one span of that tier; no interner is shared across inputs,
    /// so the peak is the serial one; and no chunk is re-run as a recovery.
    /// The certify pass runs on the serial machine too, so the sweep runs no
    /// lane pass at all. `check` adds the sweep's own assertions on each
    /// tiered run's stats and telemetry.
    fn assert_chunks_run_on_the_serial_engine(
        p: &Program,
        inputs: &[Vec<f64>],
        config: &AnalysisConfig,
        check: impl Fn(&TierStats, &telemetry::SweepTelemetry, &str),
    ) {
        let config = config.clone().with_threads(1);
        let peak = |snap: &telemetry::SweepTelemetry| snap.gauge("interner.peak_nodes");
        let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
        let serial = analyze(p, inputs, &config).unwrap();
        let serial_peak = peak(&capture.finish());
        assert!(serial_peak > 0);
        for width in [1, 8] {
            let config = config.clone().with_batch_width(width);
            let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
            let (tiered, stats) = analyze_tiered_with_stats(p, inputs, &config).unwrap();
            let snap = capture.finish();
            let context = format!("width={width}: {stats:?}");
            assert_eq!(format!("{serial:?}"), format!("{tiered:?}"), "{context}");
            check(&stats, &snap, &context);
            assert_eq!(peak(&snap), serial_peak, "{context}");
            assert_eq!(snap.counter("quarantine.ladder_attempts"), 0, "{context}");
            assert_eq!(snap.counter("fpvm.batch_passes"), 0, "{context}");
            let phase = |phase| snap.phase(phase).count as usize;
            let dd_runs = phase(telemetry::Phase::TierDoubleDouble);
            assert_eq!(dd_runs, stats.certified_inputs, "{context}");
            let bigfloat_runs = phase(telemetry::Phase::TierBigFloat);
            assert_eq!(bigfloat_runs, stats.escalated_inputs(), "{context}");
        }
    }

    #[test]
    fn certified_chunks_run_on_the_serial_engine() {
        // At x near 1e6 the subtraction cancels about 20 of the `DoubleDouble`
        // tier's 106 bits, so every input certifies and the demand set holds
        // the subtraction: its traces are built and its peak is comparable
        // with serial's.
        let (p, _) = mixed_sweep();
        let inputs: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![1e6 * (1.0 + f64::from(i) / 7.0)])
            .collect();
        let config = AnalysisConfig::default();
        assert_chunks_run_on_the_serial_engine(&p, &inputs, &config, |stats, snap, context| {
            assert_eq!(stats.escalated_inputs(), 0, "{context}");
            assert!(snap.counter("tiered.demand_statements") > 0, "{context}");
        });
    }

    #[test]
    fn mixed_chunks_run_on_the_serial_engine() {
        let (p, inputs) = mixed_sweep();
        let config = AnalysisConfig::default();
        assert_chunks_run_on_the_serial_engine(&p, &inputs, &config, |stats, _, context| {
            assert!(stats.certified_inputs > 0, "{context}");
            assert!(stats.escalated_inputs() > 0, "{context}");
        });
    }

    #[test]
    fn all_escalated_chunks_run_on_the_serial_engine() {
        // Below the tier threshold the precision gate escalates every input.
        let (p, inputs) = mixed_sweep();
        let config = AnalysisConfig {
            shadow_precision: 128,
            ..AnalysisConfig::default()
        };
        assert_chunks_run_on_the_serial_engine(&p, &inputs, &config, |stats, _, context| {
            assert_eq!(stats.certified_inputs, 0, "{context}");
        });
    }

    #[test]
    fn surfaces_the_earliest_input_error() {
        let p = program("(FPCore (n) (while (< t n) ((t 0 (+ t 0.125)) (c 0 (+ c 1))) c))");
        let inputs: Vec<Vec<f64>> = (1..=8).map(|n| vec![f64::from(n) * 100.0]).collect();
        let config = AnalysisConfig {
            step_limit: 10,
            ..AnalysisConfig::default().with_threads(1)
        };
        let serial_err = analyze(&p, &inputs, &config).unwrap_err();
        let tiered_err = analyze_tiered(&p, &inputs, &config).unwrap_err();
        assert_eq!(format!("{serial_err:?}"), format!("{tiered_err:?}"));
    }

    #[test]
    fn empty_sweep_matches_the_other_drivers() {
        let p = program("(FPCore (x) (+ x 1))");
        let config = AnalysisConfig::default();
        let serial = analyze(&p, &[], &config).unwrap();
        let (tiered, stats) = analyze_tiered_with_stats(&p, &[], &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{tiered:?}"));
        assert_eq!(stats, TierStats::default());
    }

    #[test]
    fn tier0_prunes_and_stays_identical() {
        // Well-conditioned polynomial over a declared region: the static
        // pass certifies the whole dataflow, so tier 0 prunes shadow work
        // while the report must stay bit-identical to the unpruned serial
        // analysis.
        let p = program("(FPCore (x) (+ (* x x) (+ x 2)))");
        let inputs: Vec<Vec<f64>> = (0..24).map(|i| vec![1.0 + f64::from(i) * 0.5]).collect();
        for (threads, width) in [(1, 1), (1, 8), (3, 4)] {
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_batch_width(width)
                .with_input_ranges(vec![(1.0, 16.0)]);
            let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
            let (tiered, _) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
            let snap = capture.finish();
            let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
            assert_eq!(
                format!("{serial:?}"),
                format!("{tiered:?}"),
                "threads={threads} width={width}"
            );
            assert!(
                snap.counter("tier0.statements_pruned") > 0,
                "static pass should prune this program: {snap:?}"
            );
            assert!(
                snap.counter("tier0.pruned_executions") > 0,
                "pruned statements should actually skip executions"
            );
        }
    }

    #[test]
    fn tier0_out_of_region_inputs_sweep_unpruned_and_identical() {
        // The declared region covers only part of the sweep (one input lies
        // far outside, where the certificate would be meaningless): tier 0
        // disarms for the whole sweep, which runs unpruned, and the report
        // must still be bit-identical.
        let p = program("(FPCore (x) (+ (* x x) (+ x 2)))");
        let mut inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0 + f64::from(i)]).collect();
        inputs.push(vec![1e200]);
        inputs.push(vec![3.5]);
        inputs.push(vec![-50.0]);
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_input_ranges(vec![(1.0, 16.0)]);
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
        let (tiered, _) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
        let snap = capture.finish();
        assert_eq!(format!("{serial:?}"), format!("{tiered:?}"));
        assert_eq!(snap.counter("tier0.pruned_executions"), 0, "{snap:?}");
    }

    #[test]
    fn tier0_budgeted_sweeps_run_unpruned_and_identical() {
        // A trace budget counts the nodes of the full traces, which pruned
        // statements do not build: pruned, every input would pass a budget
        // that quarantines it unpruned.
        let p = program("(FPCore (x) (+ (* x x) (+ x 2)))");
        let inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![1.0 + f64::from(i)]).collect();
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_trace_node_budget(2);
        let plain = analyze_tiered_isolated(&p, &inputs, &config);
        assert_eq!(plain.quarantined.len(), inputs.len());
        let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
        let armed =
            analyze_tiered_isolated(&p, &inputs, &config.with_input_ranges(vec![(1.0, 16.0)]));
        let snap = capture.finish();
        assert_eq!(format!("{plain:?}"), format!("{armed:?}"));
        assert_eq!(snap.counter("tier0.pruned_executions"), 0, "{snap:?}");
    }

    #[test]
    fn tier0_arity_mismatch_fails_closed() {
        let p = program("(FPCore (x y) (+ x y))");
        let inputs: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i), 2.0]).collect();
        // Wrong arity in the declared ranges: tier 0 must disarm, not prune.
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_input_ranges(vec![(0.0, 8.0)]);
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        let (tiered, _) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{tiered:?}"));
    }

    #[test]
    fn tier0_unstable_programs_are_never_pruned_into_silence() {
        // Catastrophic cancellation inside the declared region: the static
        // pass must not certify the cancelling subtraction, and the report
        // must keep flagging it.
        let p = program("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))");
        let inputs: Vec<Vec<f64>> = (0..24).map(|i| vec![10f64.powi(i)]).collect();
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_input_ranges(vec![(1.0, 1e24)]);
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        let (tiered, _) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{tiered:?}"));
        assert!(tiered.has_significant_error());
    }

    /// The certify pass of `config`'s sweep over `inputs`, on its own
    /// machine.
    fn certify_with(p: &Program, inputs: &[Vec<f64>], config: &AnalysisConfig) -> Certified {
        let params = CertParams::new(config.shadow_precision).unwrap();
        let machine = Machine::new(p)
            .with_step_limit(config.step_limit)
            .with_deadline_millis(config.deadline_millis);
        certify_inputs(
            &machine,
            inputs,
            &params,
            config,
            #[cfg(feature = "fault-injection")]
            false,
        )
    }

    /// A loop of `n` iterations whose statements are never erroneous: its
    /// accumulators stay exact.
    const EXACT_LOOP: &str = "(FPCore (n) (while (< t n) ((t 0 (+ t 0.125)) (c 0 (+ c 1))) c))";

    #[test]
    fn faulted_certify_runs_demand_every_statement() {
        // A deadline depends on load, so a run the certify pass cannot
        // finish in time decides nothing about what the `BigFloat` run of
        // the same input does after the fault: the whole sweep keeps full
        // records. The second input runs 8·10⁹ iterations, far past the
        // 1 ms deadline and far below the step limit; the first runs fewer
        // steps than the machine's deadline check interval.
        let p = program(EXACT_LOOP);
        let inputs: Vec<Vec<f64>> = vec![vec![1.0], vec![1e9]];
        let config = AnalysisConfig {
            step_limit: 1 << 40,
            deadline_millis: 1,
            ..AnalysisConfig::default()
        }
        .normalize();
        let certified = certify_with(&p, &inputs, &config);
        assert_eq!(certified.verdicts, [true, false]);
        assert_eq!(certified.demand, Demand::Every);
        assert!(statement_mask(&p, None, &certified.demand, &config).is_none());
        let clean = certify_with(&p, &inputs[..1], &config);
        assert_eq!(clean.demand.computes(&p), 0);
        let mask = statement_mask(&p, None, &clean.demand, &config).unwrap();
        assert!(!mask.traces());
        // A trace budget is defined over the full traces, so it keeps them.
        let budgeted = config.clone().with_trace_node_budget(1 << 20);
        assert!(statement_mask(&p, None, &clean.demand, &budgeted)
            .unwrap()
            .traces());
    }

    #[test]
    fn deterministic_certify_faults_keep_the_marked_demand() {
        // The step limit depends only on the program, the input and the
        // config: the `BigFloat` run of the faulted input stops at the same
        // step and is quarantined, so none of its records reach a report,
        // and the demand set stays what the probe marked.
        let p = program(EXACT_LOOP);
        let inputs: Vec<Vec<f64>> = vec![vec![1.0], vec![800.0]];
        let config = AnalysisConfig {
            step_limit: 100,
            ..AnalysisConfig::default()
        }
        .normalize();
        let certified = certify_with(&p, &inputs, &config);
        assert_eq!(certified.verdicts, [true, false]);
        assert!(matches!(certified.demand, Demand::Marked(_)));
        assert_eq!(certified.demand.computes(&p), 0);
        let mask = statement_mask(&p, None, &certified.demand, &config).unwrap();
        assert!(!mask.traces());
    }

    #[test]
    fn a_runaway_input_keeps_the_sweeps_counts_only_records() {
        // One runaway input of the harmonic loop exhausts the step limit in
        // the certify pass and again in the `BigFloat` tier, which
        // quarantines it; the other inputs keep the demand set, the
        // counts-only records and the report they have without it.
        let p = program("(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))");
        let mut inputs: Vec<Vec<f64>> = (1..=23).map(|i| vec![f64::from(i * 3)]).collect();
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_step_limit(2000);
        let demand_and_updates = |inputs: &[Vec<f64>]| {
            let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
            let (report, _) = analyze_tiered_isolated_with_stats(&p, inputs, &config);
            let snap = capture.finish();
            let counts = (
                snap.counter("tiered.demand_statements"),
                snap.counter("analysis.counts_only_updates"),
            );
            (report, counts)
        };
        let (_, (clean_demand, _)) = demand_and_updates(&inputs);
        inputs.push(vec![1e9]);
        let (report, (demand, counts_only)) = demand_and_updates(&inputs);
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        let runaway = &report.quarantined[0];
        assert_eq!(runaway.input_index, inputs.len() - 1);
        assert_eq!(runaway.stage, SweepStage::TieredBigFloat);
        assert!(matches!(
            runaway.error,
            SweepFault::Machine(MachineError::StepBudgetExceeded { .. })
        ));
        assert_eq!(demand, clean_demand);
        assert_eq!(demand, 0);
        assert!(counts_only > 0);
        // The serial driver quarantines at its own stage.
        let mut isolated = analyze_isolated(&p, &inputs, &config);
        for quarantined in &mut isolated.quarantined {
            assert_eq!(quarantined.stage, SweepStage::Serial);
            quarantined.stage = SweepStage::TieredBigFloat;
        }
        assert_eq!(format!("{isolated:?}"), format!("{report:?}"));
    }

    #[test]
    fn empty_demand_sets_skip_record_summaries_and_traces() {
        // Every input certifies and nothing is erroneous: the tiered sweep
        // keeps only counts and builds no result node, and its report is
        // still the serial one.
        let p = program("(FPCore (n) (while (< i n) ((s 0 (+ s (/ 1 i))) (i 1 (+ i 1))) s))");
        let inputs: Vec<Vec<f64>> = (1..23).map(|i| vec![f64::from(i * 3)]).collect();
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        for (threads, width) in [(1, 1), (1, 8), (2, 4)] {
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_batch_width(width);
            let capture = telemetry::SweepCapture::begin(telemetry::TelemetryMode::On);
            let (tiered, stats) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
            let snap = capture.finish();
            let context = format!("threads={threads} width={width}");
            assert_eq!(format!("{serial:?}"), format!("{tiered:?}"), "{context}");
            assert_eq!(stats.escalated_inputs(), 0, "{context}");
            assert_eq!(snap.counter("tiered.demand_statements"), 0, "{context}");
            // Every analyzed op updates counts only, except the detected
            // compensations, which update no record at all.
            assert_eq!(
                snap.counter("analysis.counts_only_updates") + tiered.compensations_detected,
                snap.counter("shadow.dd_ops"),
                "{context}"
            );
            let nodes = snap.counter("interner.probe_hits") + snap.counter("interner.probe_misses");
            assert_eq!(nodes, 0, "{context}");
        }
    }
}
