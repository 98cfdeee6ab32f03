//! The abstract interpreter over the compiled tape: a worklist fixpoint
//! with a bounded widening ladder, per-statement verdicts, and the tier-0
//! prune mask.
//!
//! ## Fixpoint
//!
//! Every statement is a CFG node with an entry state (one [`AbsVal`] per
//! machine address). States flow along the tape edges; conditional-branch
//! edges refine the compared operands (with drift slack, so the refined
//! box still contains both the client and the exact value on that path).
//! Entry states at targets of back edges are widened after a few joins
//! (`WIDEN_AFTER`), driving loops to a fixpoint along the domain's
//! finite ladder.
//!
//! ## Certification
//!
//! A compute statement is `CertifiedStable` when the static bound on its
//! *measured local error* — the Figure-4 quantity the dynamic analysis
//! compares against `local_error_threshold` — stays at or below the ulp
//! count where the threshold flips. The bound is
//!
//! ```text
//! ulps ≤ round + Σᵢ κᵢ·(1 + 2·Eᵢ/u) + SLACK_ULPS
//! ```
//!
//! where `round` is the operation's own rounding, `κᵢ` the operand
//! condition numbers, `Eᵢ` the operands' accumulated relative drift and
//! `u = 2⁻⁵³`. The `2·Eᵢ/u` term makes the bound hold for *any* shadow
//! value within `Eᵢ` of the exact real — in particular both for the full
//! shadow chain and for the client-value leaves that replace it when an
//! upstream statement is pruned, which is what keeps tier-0 pruned reports
//! bit-identical. Exact operands (client double = exact real) contribute
//! nothing regardless of κ. `SLACK_ULPS` absorbs the finite precision of
//! the dynamic shadow measurement itself.

use crate::domain::{down, up, AbsVal, UNIT_ROUNDOFF};
use crate::transfer::{transfer, OpFlow, KAPPA_PAD};
use fpcore::CmpOp;
use fpvm::{Pred, Program, Statement};
use shadowreal::{RealOp, MAX_ARITY};

/// Joins at a back-edge target before widening kicks in.
const WIDEN_AFTER: u32 = 3;

/// Flat ulp slack added to every certification bound, absorbing the
/// dynamic measurement's own shadow rounding and ulp discreteness.
const SLACK_ULPS: f64 = 4.0;

/// Bound (in ulps) beyond which a statement is reported as statically
/// *unstable* rather than merely uncertified.
const UNSTABLE_ULPS: f64 = 4096.0;

/// Worklist safety valve: if the fixpoint has not stabilized after this
/// many node visits per statement, the analysis bails to "nothing
/// certified" (sound, never wrong — just useless).
const MAX_VISITS_PER_STMT: usize = 256;

/// Parameters the verdicts depend on, mirrored from the dynamic analysis
/// configuration.
#[derive(Clone, Copy, Debug)]
pub struct StaticParams {
    /// Bits of local error above which the dynamic analysis flags a
    /// computation (`AnalysisConfig::local_error_threshold`).
    pub local_error_threshold: f64,
    /// Bits of output error above which an output spot is flagged.
    pub output_error_threshold: f64,
    /// Whether the dynamic analysis detects compensating additions
    /// (`AnalysisConfig::detect_compensation`); pruning must keep every
    /// potential compensation site live when it does.
    pub detect_compensation: bool,
}

impl Default for StaticParams {
    fn default() -> StaticParams {
        StaticParams {
            local_error_threshold: 5.0,
            output_error_threshold: 5.0,
            detect_compensation: true,
        }
    }
}

/// The per-statement classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaticVerdict {
    /// The statement cannot trip its dynamic threshold for any in-range
    /// input: its dynamic shadowing is redundant.
    CertifiedStable,
    /// No certificate, but no static evidence of instability either.
    MayErr,
    /// The static error bound is unbounded or enormous: a root-cause
    /// candidate before any input runs.
    StaticallyUnstable,
}

/// The dominating term of a statement's static error bound — the
/// root-cause hint attached to uncertified verdicts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DominantTerm {
    /// The operation's own rounding dominates.
    OpRounding,
    /// Amplification of one operand's incoming error dominates.
    OperandAmplification {
        /// Which operand (0-based).
        operand: usize,
        /// The condition-number bound doing the amplifying.
        kappa: f64,
    },
    /// A domain edge (possible NaN / fail-closed operand box).
    DomainEdge,
    /// An operand's accumulated drift is unbounded.
    UnknownOperandDrift {
        /// Which operand (0-based).
        operand: usize,
    },
}

/// Static facts about one tape statement.
#[derive(Clone, Debug)]
pub struct StatementInfo {
    /// The verdict.
    pub verdict: StaticVerdict,
    /// Bound on the measured local error in ulps (`f64::INFINITY` when no
    /// bound was established). Zero for non-compute statements.
    pub ulps_bound: f64,
    /// The dominating term of the bound (computes only).
    pub dominant: Option<DominantTerm>,
    /// The result abstract value (computes and casts).
    pub out: Option<AbsVal>,
    /// Whether a compensating add/sub could fire here.
    pub compensation_possible: bool,
    /// Whether the statement is reachable from entry.
    pub reachable: bool,
}

/// The result of statically analyzing a program over an input region.
#[derive(Clone, Debug)]
pub struct StaticAnalysis {
    /// One entry per tape statement.
    pub statements: Vec<StatementInfo>,
    /// Fixpoint entry state per statement (`None` = unreachable), kept for
    /// the lint layer and soundness tests.
    pub entries: Vec<Option<Box<[AbsVal]>>>,
    /// Number of `Compute` statements.
    pub total_computes: usize,
    /// Number of `Compute` statements certified stable.
    pub certified_computes: usize,
    /// The parameters the verdicts were formed under.
    pub params: StaticParams,
}

impl StaticAnalysis {
    /// The verdict for a statement (trivially stable out of range).
    pub fn verdict(&self, pc: usize) -> StaticVerdict {
        self.statements
            .get(pc)
            .map_or(StaticVerdict::CertifiedStable, |s| s.verdict)
    }

    /// Fraction of compute statements certified stable.
    pub fn certified_fraction(&self) -> f64 {
        if self.total_computes == 0 {
            1.0
        } else {
            self.certified_computes as f64 / self.total_computes as f64
        }
    }
}

/// Which statements the tiered driver may skip dynamic shadowing for.
///
/// A statement is pruned only when it is certified stable, provably
/// non-compensating, and its value never reaches (through the shadow
/// dataflow) a statement whose report-visible behaviour could depend on
/// the shape of the shadow it sees — so pruning is invisible in the
/// report, bit for bit.
#[derive(Clone, Debug, Default)]
pub struct PruneMask {
    bits: Vec<bool>,
    pruned_computes: usize,
    total_computes: usize,
}

impl PruneMask {
    /// True when the statement's dynamic shadowing can be skipped.
    #[inline]
    pub fn is_pruned(&self, pc: usize) -> bool {
        self.bits.get(pc).copied().unwrap_or(false)
    }

    /// Number of pruned compute statements.
    pub fn pruned_computes(&self) -> usize {
        self.pruned_computes
    }

    /// Total compute statements in the program.
    pub fn total_computes(&self) -> usize {
        self.total_computes
    }

    /// Pruned fraction over compute statements.
    pub fn prune_rate(&self) -> f64 {
        if self.total_computes == 0 {
            0.0
        } else {
            self.pruned_computes as f64 / self.total_computes as f64
        }
    }

    /// True when nothing is pruned.
    pub fn is_empty(&self) -> bool {
        self.pruned_computes == 0
    }
}

/// The highest measured-ulp count that still stays at or under `bits` of
/// error: `bits_error` reports `log2(ulps + 1)`.
fn threshold_ulps(bits: f64) -> f64 {
    (bits.exp2() - 1.0).floor().max(0.0)
}

/// Successor list of a statement.
fn successors(stmt: &Statement, pc: usize, len: usize) -> Vec<usize> {
    match stmt {
        Statement::Halt => vec![],
        Statement::Branch {
            pred: Pred::Always,
            target,
        } => vec![*target],
        Statement::Branch {
            pred: Pred::Cmp(..),
            target,
        } => vec![*target, pc + 1],
        _ => vec![pc + 1],
    }
    .into_iter()
    .filter(|&s| s < len)
    .collect()
}

/// Absolute drift slack for a value: how far the client double can sit
/// from the exact real. `None` when unbounded.
fn drift_slack(v: &AbsVal) -> Option<f64> {
    if v.exact {
        Some(0.0)
    } else if v.has_err_bound() && v.is_finite() {
        Some(up(v.err * v.max_abs() * 2.0))
    } else {
        None
    }
}

/// Refines `state` along a comparison edge. Returns `false` when the path
/// is infeasible (empty refined interval).
fn refine_cmp(state: &mut [AbsVal], op: CmpOp, a: usize, b: usize, taken: bool) -> bool {
    // Only ordering comparisons refine; Eq/Ne carry little interval
    // information.
    let (lt_like, le_like) = match (op, taken) {
        (CmpOp::Lt, true) | (CmpOp::Ge, false) => (true, false), // a < b
        (CmpOp::Le, true) | (CmpOp::Gt, false) => (true, true),  // a ≤ b
        (CmpOp::Gt, true) | (CmpOp::Le, false) => (false, false), // a > b
        (CmpOp::Ge, true) | (CmpOp::Lt, false) => (false, true), // a ≥ b
        _ => return true,
    };
    let _ = le_like;
    // On a *taken* ordering edge neither operand was NaN; on a fall-through
    // edge NaN operands also fall through, so the NaN flag must stay.
    let nan_cleared = taken && matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
    if !nan_cleared && (state[a].may_nan || state[b].may_nan) {
        return true;
    }
    let (da, db) = match (drift_slack(&state[a]), drift_slack(&state[b])) {
        (Some(da), Some(db)) => (da, db),
        _ => {
            if nan_cleared {
                state[a].may_nan = false;
                state[b].may_nan = false;
            }
            return true;
        }
    };
    // `lt_like`: client(a) ≤ client(b) held, so a's values (client, and
    // exact within da) are bounded by b.hi plus slack; mirrored for b.
    let (lo_idx, hi_idx, d_lo, d_hi) = if lt_like {
        (a, b, da, db)
    } else {
        (b, a, db, da)
    };
    let hi_cap = up(state[hi_idx].hi + d_lo);
    let lo_cap = down(state[lo_idx].lo - d_hi);
    if hi_cap < state[lo_idx].hi {
        state[lo_idx].hi = hi_cap;
    }
    if lo_cap > state[hi_idx].lo {
        state[hi_idx].lo = lo_cap;
    }
    if nan_cleared {
        state[a].may_nan = false;
        state[b].may_nan = false;
    }
    state[a].lo <= state[a].hi && state[b].lo <= state[b].hi
}

/// Applies one statement to a state, returning the flow of a compute for
/// reuse by the verdict pass.
fn apply_statement(stmt: &Statement, state: &mut [AbsVal]) -> Option<OpFlow> {
    match stmt {
        Statement::ConstF { dest, value } => {
            state[*dest] = AbsVal::exact_point(*value);
            None
        }
        Statement::ConstI { dest, value } => {
            state[*dest] = AbsVal::exact_int(*value);
            None
        }
        Statement::Copy { dest, src } => {
            state[*dest] = state[*src];
            None
        }
        Statement::Compute { dest, op, args } => {
            let mut argv = [AbsVal::top(); MAX_ARITY];
            for (i, &a) in args.iter().enumerate() {
                argv[i] = state[a];
            }
            let flow = transfer(*op, &argv[..args.len()]);
            state[*dest] = flow.val;
            Some(flow)
        }
        Statement::CastToInt { dest, src } => {
            let v = state[*src];
            state[*dest] = cast_to_int_val(&v);
            None
        }
        Statement::Branch { .. } | Statement::Output { .. } | Statement::Halt => None,
    }
}

/// Abstract value of a float→int truncation.
fn cast_to_int_val(v: &AbsVal) -> AbsVal {
    const CAST_LIMIT: f64 = 4.611686018427388e18; // 2^62
    if v.exact && !v.may_nan && v.is_finite() && v.max_abs() <= CAST_LIMIT {
        AbsVal {
            lo: v.lo.trunc(),
            hi: v.hi.trunc(),
            may_nan: false,
            err: 0.0,
            exact: true,
            int: true,
        }
    } else {
        AbsVal::top()
    }
}

/// True when a compensating add/sub (§5.3) could fire at this operation
/// over the operand boxes. The dynamic detector triggers when the result
/// equals an operand *in the shadow representation* — which happens not
/// only for an exactly-zero other operand but whenever that operand
/// vanishes relative to the result at the shadow precision (e.g.
/// `1 + exp(-x)` for large `x`). Every supported shadow carries well over
/// 53 fraction bits, so a magnitude gap that can reach 2⁻⁵⁰ is flagged as
/// possibly compensating (the extra bits are margin for rounding at the
/// detection boundary).
fn compensation_possible(op: RealOp, args: &[AbsVal], detect: bool) -> bool {
    if !detect {
        return false;
    }
    const VANISH_RATIO: f64 = 8.881784197001252e-16; // 2^-50
    let may_vanish = |small: &AbsVal, big: &AbsVal| {
        !small.excludes_zero() || small.min_abs() <= big.max_abs() * VANISH_RATIO
    };
    match op {
        RealOp::Add => may_vanish(&args[0], &args[1]) || may_vanish(&args[1], &args[0]),
        RealOp::Sub => may_vanish(&args[1], &args[0]),
        _ => false,
    }
}

/// The certification bound for a compute: measured-local-error ulps plus
/// the dominating term.
fn local_bound(flow: &OpFlow, args: &[AbsVal]) -> (f64, DominantTerm) {
    if flow.val.exact {
        return (0.0, DominantTerm::OpRounding);
    }
    let mut bound = flow.round_ulps + SLACK_ULPS;
    let mut dom = DominantTerm::OpRounding;
    let mut dom_weight = flow.round_ulps;
    for (i, arg) in args.iter().enumerate() {
        if arg.exact {
            continue; // rd(shadow) = shadow = client: no operand rounding
        }
        let term = if arg.has_err_bound() {
            flow.kappa[i] * KAPPA_PAD * (1.0 + 2.0 * arg.err / UNIT_ROUNDOFF)
        } else {
            f64::INFINITY
        };
        if !(term.is_finite()) {
            let dom = if arg.has_err_bound() {
                DominantTerm::OperandAmplification {
                    operand: i,
                    kappa: flow.kappa[i],
                }
            } else {
                DominantTerm::UnknownOperandDrift { operand: i }
            };
            return (f64::INFINITY, dom);
        }
        if term > dom_weight {
            dom_weight = term;
            dom = DominantTerm::OperandAmplification {
                operand: i,
                kappa: flow.kappa[i],
            };
        }
        bound += term;
    }
    (bound, dom)
}

/// Runs the abstract interpretation of `program` over the declared input
/// region and classifies every statement.
///
/// `input_ranges` pairs up positionally with `program.arg_addrs`; missing
/// ranges leave that argument unconstrained (top), which simply certifies
/// less.
pub fn analyze_program(
    program: &Program,
    input_ranges: &[(f64, f64)],
    params: &StaticParams,
) -> StaticAnalysis {
    let len = program.statements.len();
    let num_addrs = program.num_addrs;
    let mut entries: Vec<Option<Box<[AbsVal]>>> = vec![None; len];
    let mut joins: Vec<u32> = vec![0; len];

    // Back-edge targets get widened.
    let mut widen_point = vec![false; len];
    for (pc, stmt) in program.statements.iter().enumerate() {
        if let Statement::Branch { target, .. } = stmt {
            if *target <= pc && *target < len {
                widen_point[*target] = true;
            }
        }
    }

    // Entry state: machine memory is zero-initialized, arguments carry the
    // declared region (client inputs are exact by definition).
    let mut init = vec![AbsVal::exact_point(0.0); num_addrs];
    for (i, &addr) in program.arg_addrs.iter().enumerate() {
        init[addr] = match input_ranges.get(i) {
            Some(&(lo, hi)) => AbsVal::range(lo, hi),
            None => AbsVal::top(),
        };
    }

    let mut worklist: Vec<(usize, Box<[AbsVal]>)> = Vec::new();
    if len > 0 {
        worklist.push((0, init.into_boxed_slice()));
    }
    let mut visits = 0usize;
    let budget = len.saturating_mul(MAX_VISITS_PER_STMT).max(1024);
    let mut bailed = false;

    while let Some((pc, incoming)) = worklist.pop() {
        visits += 1;
        if visits > budget {
            bailed = true;
            break;
        }
        // Join (or widen) the incoming state into the entry state.
        let entry = match &mut entries[pc] {
            slot @ None => {
                *slot = Some(incoming);
                joins[pc] = 1;
                slot.as_ref().expect("just set").clone()
            }
            Some(old) => {
                let mut changed = false;
                let widen = widen_point[pc] && joins[pc] >= WIDEN_AFTER;
                for (o, n) in old.iter_mut().zip(incoming.iter()) {
                    if !o.subsumes(n) {
                        *o = if widen { o.widen(n) } else { o.join(n) };
                        changed = true;
                    }
                }
                if !changed {
                    continue;
                }
                joins[pc] += 1;
                old.clone()
            }
        };

        // Transfer through the statement and propagate to successors.
        let stmt = &program.statements[pc];
        match stmt {
            Statement::Branch {
                pred: Pred::Cmp(op, a, b),
                target,
            } => {
                for (succ, taken) in [(*target, true), (pc + 1, false)] {
                    if succ >= len {
                        continue;
                    }
                    let mut out = entry.clone();
                    if refine_cmp(&mut out, *op, *a, *b, taken) {
                        worklist.push((succ, out));
                    }
                }
            }
            _ => {
                let mut out = entry.clone();
                apply_statement(stmt, &mut out);
                for succ in successors(stmt, pc, len) {
                    worklist.push((succ, out.clone()));
                }
            }
        }
    }

    // Verdict pass over the fixpoint entry states.
    let local_limit = threshold_ulps(params.local_error_threshold);
    let output_limit = threshold_ulps(params.output_error_threshold);
    let mut statements = Vec::with_capacity(len);
    let mut total_computes = 0usize;
    let mut certified_computes = 0usize;
    for (pc, stmt) in program.statements.iter().enumerate() {
        let entry = entries[pc].as_deref();
        let reachable = entry.is_some() && !bailed;
        let info = match (stmt, entry) {
            (Statement::Compute { op, args, .. }, Some(state)) if !bailed => {
                total_computes += 1;
                let argv: Vec<AbsVal> = args.iter().map(|&a| state[a]).collect();
                let flow = transfer(*op, &argv);
                let (ulps_bound, dominant) = local_bound(&flow, &argv);
                let args_clean = argv.iter().all(|a| !a.may_nan);
                // With all-exact operands the local error is the op's own
                // rounding, which libm quotes directly in ulps — no
                // relative-to-ulps conversion is needed, so the result may
                // straddle zero (log across 1) and still certify.
                let all_exact_args = argv.iter().all(|a| a.exact);
                let certified = args_clean
                    && !flow.val.may_nan
                    && ulps_bound <= local_limit
                    && (flow.val.exact || all_exact_args || flow.val.err.is_finite());
                if certified {
                    certified_computes += 1;
                }
                let verdict = if certified {
                    StaticVerdict::CertifiedStable
                } else if !args_clean || flow.val.may_nan || ulps_bound > UNSTABLE_ULPS {
                    StaticVerdict::StaticallyUnstable
                } else {
                    StaticVerdict::MayErr
                };
                let dominant = if certified {
                    None
                } else if !args_clean || flow.val.may_nan {
                    Some(DominantTerm::DomainEdge)
                } else {
                    Some(dominant)
                };
                StatementInfo {
                    verdict,
                    ulps_bound,
                    dominant,
                    out: Some(flow.val),
                    compensation_possible: compensation_possible(
                        *op,
                        &argv,
                        params.detect_compensation,
                    ),
                    reachable,
                }
            }
            (Statement::Compute { .. }, _) => {
                total_computes += 1;
                let (verdict, comp) = if bailed {
                    (StaticVerdict::MayErr, true)
                } else {
                    // Unreachable: never executes, trivially stable.
                    certified_computes += 1;
                    (StaticVerdict::CertifiedStable, false)
                };
                StatementInfo {
                    verdict,
                    ulps_bound: if bailed { f64::INFINITY } else { 0.0 },
                    dominant: None,
                    out: None,
                    compensation_possible: comp,
                    reachable,
                }
            }
            (Statement::Output { src }, Some(state)) if !bailed => {
                let v = state[*src];
                let certified = !v.may_nan
                    && (v.exact
                        || (v.err.is_finite()
                            && 2.0 * v.err / UNIT_ROUNDOFF + SLACK_ULPS <= output_limit));
                let verdict = if certified {
                    StaticVerdict::CertifiedStable
                } else if v.has_err_bound() {
                    StaticVerdict::MayErr
                } else {
                    StaticVerdict::StaticallyUnstable
                };
                StatementInfo {
                    verdict,
                    ulps_bound: if v.exact {
                        0.0
                    } else {
                        2.0 * v.err / UNIT_ROUNDOFF + SLACK_ULPS
                    },
                    dominant: None,
                    out: Some(v),
                    compensation_possible: false,
                    reachable,
                }
            }
            (
                Statement::Branch {
                    pred: Pred::Cmp(_, a, b),
                    ..
                },
                Some(state),
            ) if !bailed => {
                let (va, vb) = (state[*a], state[*b]);
                let both_exact = va.exact && vb.exact && !va.may_nan && !vb.may_nan;
                let separated = match (drift_slack(&va), drift_slack(&vb)) {
                    (Some(da), Some(db)) if !va.may_nan && !vb.may_nan => {
                        let d = da + db;
                        va.hi + d < vb.lo || vb.hi + d < va.lo
                    }
                    _ => false,
                };
                let certified = both_exact || separated;
                StatementInfo {
                    verdict: if certified {
                        StaticVerdict::CertifiedStable
                    } else {
                        StaticVerdict::MayErr
                    },
                    ulps_bound: if certified { 0.0 } else { f64::INFINITY },
                    dominant: None,
                    out: None,
                    compensation_possible: false,
                    reachable,
                }
            }
            (Statement::CastToInt { src, .. }, Some(state)) if !bailed => {
                let v = state[*src];
                let out = cast_to_int_val(&v);
                let certified = out.exact;
                StatementInfo {
                    verdict: if certified {
                        StaticVerdict::CertifiedStable
                    } else {
                        StaticVerdict::MayErr
                    },
                    ulps_bound: if certified { 0.0 } else { f64::INFINITY },
                    dominant: None,
                    out: Some(out),
                    compensation_possible: false,
                    reachable,
                }
            }
            (Statement::Output { .. } | Statement::CastToInt { .. }, _)
            | (
                Statement::Branch {
                    pred: Pred::Cmp(..),
                    ..
                },
                _,
            ) => StatementInfo {
                verdict: if bailed {
                    StaticVerdict::MayErr
                } else {
                    StaticVerdict::CertifiedStable
                },
                ulps_bound: if bailed { f64::INFINITY } else { 0.0 },
                dominant: None,
                out: None,
                compensation_possible: false,
                reachable,
            },
            // Constants, copies, jumps, halt: no floating-point rounding.
            _ => StatementInfo {
                verdict: StaticVerdict::CertifiedStable,
                ulps_bound: 0.0,
                dominant: None,
                out: None,
                compensation_possible: false,
                reachable,
            },
        };
        statements.push(info);
    }

    StaticAnalysis {
        statements,
        entries,
        total_computes,
        certified_computes,
        params: *params,
    }
}

/// Computes the tier-0 prune mask from a static analysis: the backward
/// "poison" fixpoint described in the crate docs. An address is *dirty*
/// when a divergence in the shadow value or shadow trace stored there
/// could become report-visible; a compute is pruned only when it is
/// certified, provably non-compensating, and its destination is clean.
pub fn prune_mask(program: &Program, analysis: &StaticAnalysis) -> PruneMask {
    let len = program.statements.len();
    let mut dirty = vec![false; program.num_addrs];
    let certified = |pc: usize| analysis.verdict(pc) == StaticVerdict::CertifiedStable;

    // Backward fixpoint over the flow-insensitive def-use graph.
    loop {
        let mut changed = false;
        let mark = |addr: usize, dirty: &mut Vec<bool>, changed: &mut bool| {
            if !dirty[addr] {
                dirty[addr] = true;
                *changed = true;
            }
        };
        for (pc, stmt) in program.statements.iter().enumerate() {
            match stmt {
                Statement::Compute { dest, args, .. } => {
                    let transparent = certified(pc)
                        && !analysis
                            .statements
                            .get(pc)
                            .is_some_and(|s| s.compensation_possible);
                    if !transparent || dirty[*dest] {
                        for &a in args {
                            mark(a, &mut dirty, &mut changed);
                        }
                    }
                }
                Statement::Copy { dest, src } if dirty[*dest] => {
                    mark(*src, &mut dirty, &mut changed);
                }
                Statement::CastToInt { dest, src } if !certified(pc) || dirty[*dest] => {
                    mark(*src, &mut dirty, &mut changed);
                }
                Statement::Branch {
                    pred: Pred::Cmp(_, a, b),
                    ..
                } if !certified(pc) => {
                    mark(*a, &mut dirty, &mut changed);
                    mark(*b, &mut dirty, &mut changed);
                }
                Statement::Output { src } if !certified(pc) => {
                    mark(*src, &mut dirty, &mut changed);
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    let mut bits = vec![false; len];
    let mut pruned_computes = 0usize;
    let mut total_computes = 0usize;
    for (pc, stmt) in program.statements.iter().enumerate() {
        if let Statement::Compute { dest, .. } = stmt {
            total_computes += 1;
            let info = &analysis.statements[pc];
            if info.verdict == StaticVerdict::CertifiedStable
                && !info.compensation_possible
                && !dirty[*dest]
            {
                bits[pc] = true;
                pruned_computes += 1;
            }
        }
    }
    PruneMask {
        bits,
        pruned_computes,
        total_computes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::parse_core;
    use fpvm::compile_core;

    fn analyze_src(src: &str, ranges: &[(f64, f64)]) -> (Program, StaticAnalysis) {
        let core = parse_core(src).expect("parse");
        let program = compile_core(&core, Default::default()).expect("compile");
        let analysis = analyze_program(&program, ranges, &StaticParams::default());
        (program, analysis)
    }

    #[test]
    fn well_conditioned_program_certifies_fully() {
        let (_, analysis) = analyze_src(
            "(FPCore (x y) (+ (* x x) (* y y)))",
            &[(1.0, 2.0), (1.0, 2.0)],
        );
        assert_eq!(
            analysis.certified_computes, analysis.total_computes,
            "{:#?}",
            analysis.statements
        );
    }

    #[test]
    fn catastrophic_cancellation_is_not_certified() {
        // sqrt(x+1) - sqrt(x) at large x: the subtraction must not certify.
        let (program, analysis) =
            analyze_src("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))", &[(1e10, 1e15)]);
        let mut saw_uncertified_sub = false;
        for (pc, stmt) in program.statements.iter().enumerate() {
            if let Statement::Compute {
                op: RealOp::Sub, ..
            } = stmt
            {
                assert_ne!(
                    analysis.verdict(pc),
                    StaticVerdict::CertifiedStable,
                    "cancellation certified at pc {pc}"
                );
                saw_uncertified_sub = true;
            }
        }
        assert!(saw_uncertified_sub);
    }

    #[test]
    fn loop_counters_reach_a_fixpoint_and_stay_exact() {
        let (program, analysis) = analyze_src(
            "(FPCore (n) :pre (<= 1 n 100) (while (<= i n) ((i 1 (+ i 1)) (s 0 (+ s 2))) s))",
            &[(1.0, 100.0)],
        );
        // The counter increment `i + 1` is bounded by the loop guard
        // (branch refinement caps `i` at `n`), stays an exact small
        // integer through widening, and certifies. The accumulator
        // `s + 2` is NOT bounded by the guard, widens to infinity, and
        // must fail closed — certifying it would be unsound for inputs
        // that iterate past 2⁵³.
        assert_eq!(analysis.total_computes, 2);
        assert_eq!(analysis.certified_computes, 1, "{:#?}", analysis.statements);
        let counter_certified = program.statements.iter().enumerate().any(|(pc, stmt)| {
            matches!(
                stmt,
                Statement::Compute {
                    op: RealOp::Add,
                    ..
                }
            ) && analysis.verdict(pc) == StaticVerdict::CertifiedStable
                && analysis.statements[pc]
                    .out
                    .map(|v| v.exact && v.int)
                    .unwrap_or(false)
        });
        assert!(counter_certified, "{:#?}", analysis.statements);
    }

    #[test]
    fn prune_mask_respects_poisoned_consumers() {
        // x*x is certified, but it feeds a cancellation-prone subtraction
        // (uncertified), so it must not be pruned.
        let (program, analysis) = analyze_src(
            "(FPCore (x y) (- (* x x) (* y y)))",
            &[(1.0, 2.0), (1.0, 2.0)],
        );
        let mask = prune_mask(&program, &analysis);
        for (pc, stmt) in program.statements.iter().enumerate() {
            if matches!(
                stmt,
                Statement::Compute {
                    op: RealOp::Mul,
                    ..
                }
            ) {
                assert!(
                    !mask.is_pruned(pc),
                    "multiply feeding a cancellation was pruned"
                );
            }
        }
    }

    #[test]
    fn prune_mask_prunes_clean_chains() {
        // A benign chain flowing only into a certified output.
        let (program, analysis) = analyze_src("(FPCore (x) (* 2 (+ x 10)))", &[(1.0, 2.0)]);
        let mask = prune_mask(&program, &analysis);
        assert!(
            mask.pruned_computes() > 0,
            "expected pruning on a benign chain: {:#?}",
            analysis.statements
        );
    }

    #[test]
    fn unconstrained_inputs_certify_little() {
        let (_, analysis) = analyze_src("(FPCore (x) (/ 1 x))", &[]);
        assert_eq!(analysis.certified_computes, 0);
    }

    #[test]
    fn threshold_ulps_matches_bits_error_flip() {
        assert_eq!(threshold_ulps(5.0), 31.0);
        assert_eq!(threshold_ulps(0.0), 0.0);
        // bits_error(x, x ± 31 ulps) = log2(32) = 5 exactly: not > 5.
        let x = 1.0f64;
        let mut y = x;
        for _ in 0..31 {
            y = f64::from_bits(y.to_bits() + 1);
        }
        assert!(shadowreal::bits_error(x, y) <= 5.0);
    }
}
