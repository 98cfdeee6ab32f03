//! Tiered adaptive-precision analysis: probe → escalate → certify.
//!
//! # Architecture
//!
//! [`analyze_tiered`] runs the input sweep in two passes:
//!
//! 1. **Certify pass.** Every input runs once under [`CertifyProbe`] — the
//!    lane-parallel engine with a `DoubleDouble` shadow plane plus a
//!    per-value certificate bound `E` with the invariant
//!    `|value_dd − value_big| ≤ E` ([`shadowreal::cert`]). At every point
//!    where the full analysis makes a *decision* from a shadow value — the
//!    double rounding feeding local and total error, the compensation
//!    equality test (§5.3), a branch comparison — the probe checks that the
//!    widened bound cannot flip the decision. A lane where any check fails
//!    is marked uncertified for that input.
//!
//! 2. **Escalate pass.** Inputs are partitioned, in input order, into
//!    maximal contiguous groups of equal certification. Certified groups run
//!    the full record-keeping analysis with the `DoubleDouble` shadow;
//!    uncertified groups escalate to the `BigFloat` shadow. The per-group
//!    [`AnalysisState`](crate::AnalysisState)s are folded in input order —
//!    the same contiguous in-order merge the parallel and batched drivers
//!    use.
//!
//! Both passes run per thread shard on the tiered fault-isolating engine in
//! [`crate::quarantine`], every group through the batched engine;
//! [`analyze_tiered`] is its fail-fast view.
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
//! Identical doubles and identical decisions mean each lane shard of the
//! full analysis accumulates identical records under either shadow, and the
//! in-order merge of the two passes' groups reproduces one serial
//! `BigFloat` sweep bit for bit. The probe is **conservative**: every bound
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

// Quarantine semantics depend on faults being *typed*: a stray `.unwrap()`
// in driver code turns a recoverable per-input fault into a sweep-wide
// panic, so bare unwraps are denied here (tests opt back in locally).
#![deny(clippy::unwrap_used)]

use crate::analysis::balanced_chunks;
use crate::config::AnalysisConfig;
use crate::quarantine::{fail_fast, tiered_family};
use crate::report::Report;
use fpcore::CmpOp;
use fpvm::batch::{lane_active, lane_indices, BatchMemory, BatchTracer, LaneMask};
use fpvm::{Addr, Machine, MachineError, Program, Value, MAX_ARITY};
use shadowreal::cert::{self, CertParams};
use shadowreal::{dd_batch, DdLanes, DoubleDouble, RealOp};
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

    pub(crate) fn absorb(&mut self, other: TierStats) {
        self.total_inputs += other.total_inputs;
        self.certified_inputs += other.certified_inputs;
    }
}

/// Which certificate check first failed a probe lane — the telemetry
/// attribution for an escalation ("escalation causes by `cert` failure
/// kind"). Lane execution is bit-identical to serial, so the first failing
/// check per input is deterministic across lane widths and thread counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CertFailKind {
    /// [`cert::rounding_certified`] could not pin the rounded result.
    Rounding,
    /// A §5.3 compensation pass-through equality was not certified.
    Compensation,
    /// A branch comparison was not certified separated-or-exact.
    Branch,
}

/// The certify-pass tracer: a lane-parallel `DoubleDouble` shadow execution
/// that carries a certificate bound per shadow value and a sticky per-lane
/// verdict per run.
///
/// The shadow semantics mirror the full analysis exactly — the same lazy
/// leaf creation ([`Herbgrind::ensure_shadow`](crate::analysis::Herbgrind)
/// creates a leaf from the client double the first time an unshadowed
/// location is read), the same copy sharing, the same clearing on integer
/// stores — evaluated through the vectorized [`shadowreal::dd_batch`]
/// kernels, which are bit-identical per lane to the scalar kernels the full
/// `DoubleDouble` analysis uses. The certificate layer rides on top:
/// leaves are exact (`E = 0`), computes propagate bounds through
/// [`cert::propagate`] and certify the result's rounding, and every
/// comparison decision the full analysis would make is certified or the
/// lane's verdict drops.
#[derive(Debug)]
pub struct CertifyProbe<const W: usize> {
    /// `DoubleDouble` shadow planes, one per address (struct-of-arrays).
    values: Vec<DdLanes<W>>,
    /// Certificate bound per address per lane: `|dd − big| ≤ errs[a][l]`.
    errs: Vec<[f64; W]>,
    /// Which lanes of each address hold a shadow — the plane analogue of the
    /// slot table's `Some`/`None`, so lazy leaf creation mirrors the
    /// analysis exactly.
    written: Vec<LaneMask>,
    /// Per-lane verdict for the current run; sticky until the next pass.
    certified: [bool; W],
    /// The check that first dropped each lane's verdict this run (telemetry
    /// attribution only; never read by the verdict logic).
    fail_kinds: [Option<CertFailKind>; W],
    params: CertParams,
    /// Whether the full analysis will run compensation detection (§5.3),
    /// whose pass-through equality tests must then be certified too.
    detect_compensation: bool,
}

impl<const W: usize> CertifyProbe<W> {
    /// A probe certifying against `params`, mirroring an analysis configured
    /// with `detect_compensation`.
    pub fn new(params: CertParams, detect_compensation: bool) -> Self {
        CertifyProbe {
            values: Vec::new(),
            errs: Vec::new(),
            written: Vec::new(),
            certified: [true; W],
            fail_kinds: [None; W],
            params,
            detect_compensation,
        }
    }

    /// The verdict for lane `l` of the last batch pass: true when every
    /// decision of that lane's run was certified.
    pub fn lane_certified(&self, l: usize) -> bool {
        self.certified[l]
    }

    /// The certificate check that first failed lane `l` this run, if any.
    fn lane_fail_kind(&self, l: usize) -> Option<CertFailKind> {
        self.fail_kinds[l]
    }

    /// Grows the planes on the cold path, like the analysis's `put_shadow` —
    /// statements may address beyond the space announced at `on_start`.
    #[inline]
    fn grow(&mut self, addr: Addr) {
        if addr >= self.values.len() {
            self.values.resize(addr + 1, DdLanes::zero());
            self.errs.resize(addr + 1, [0.0; W]);
            self.written.resize(addr + 1, 0);
        }
    }

    /// Installs an exact leaf shadow (the client double, `E = 0`).
    #[inline]
    fn seed(&mut self, addr: Addr, l: usize, value: f64) {
        self.values[addr].set(l, DoubleDouble::from_f64(value));
        self.errs[addr][l] = 0.0;
        self.written[addr] |= 1 << l;
    }

    /// Lazy leaf creation: the probe's `ensure_shadow`. Exact both tiers
    /// (same double), so no certificate check is needed.
    #[inline]
    fn ensure(&mut self, addr: Addr, l: usize, value: f64) {
        if !lane_active(self.written[addr], l) {
            self.seed(addr, l, value);
        }
    }
}

impl<const W: usize> BatchTracer<W> for CertifyProbe<W> {
    fn on_start(&mut self, program: &Program, lane_inputs: &[Option<&[f64]>; W], mask: LaneMask) {
        self.values.clear();
        self.values.resize(program.num_addrs, DdLanes::zero());
        self.errs.clear();
        self.errs.resize(program.num_addrs, [0.0; W]);
        self.written.clear();
        self.written.resize(program.num_addrs, 0);
        self.certified = [true; W];
        self.fail_kinds = [None; W];
        for l in lane_indices(mask) {
            if let Some(args) = lane_inputs[l] {
                for (&addr, &value) in program.arg_addrs.iter().zip(args) {
                    self.seed(addr, l, value);
                }
            }
        }
    }

    fn on_compute(
        &mut self,
        _pc: usize,
        op: RealOp,
        dest: Addr,
        args: &[Addr],
        arg_values: &[[f64; W]],
        _results: &[f64; W],
        mask: LaneMask,
    ) {
        let n = args.len();
        for (i, &addr) in args.iter().enumerate() {
            self.grow(addr);
            for l in lane_indices(mask) {
                self.ensure(addr, l, arg_values[i][l]);
            }
        }
        // One vectorized exact evaluation for the group: `dd_batch` is
        // pinned bit-identical, lane by lane, to the scalar kernels the full
        // DoubleDouble tier runs.
        let mut operands = [DdLanes::zero(); MAX_ARITY];
        let mut operand_errs = [[0.0f64; W]; MAX_ARITY];
        for (i, &addr) in args.iter().enumerate() {
            operands[i] = self.values[addr];
            operand_errs[i] = self.errs[addr];
        }
        let exact = dd_batch::apply(op, &operands[..n]);
        let mut result_errs = [f64::INFINITY; W];
        for l in lane_indices(mask) {
            if !self.certified[l] {
                continue;
            }
            let lane_args: [DoubleDouble; MAX_ARITY] = std::array::from_fn(|i| operands[i].get(l));
            let mut pairs: [(&DoubleDouble, f64); MAX_ARITY] = [(&lane_args[0], 0.0); MAX_ARITY];
            for (pair, (arg, errs)) in pairs.iter_mut().zip(lane_args.iter().zip(&operand_errs)) {
                *pair = (arg, errs[l]);
            }
            let result = exact.get(l);
            let e = cert::propagate(op, &pairs[..n], &result, &self.params);
            // The rounded result feeds the local error of this very
            // operation (and, downstream, total error and casts), so an
            // uncertifiable rounding fails the lane immediately.
            let mut ok = cert::rounding_certified(&result, e);
            let mut fail_kind = CertFailKind::Rounding;
            if ok && self.detect_compensation && matches!(op, RealOp::Add | RealOp::Sub) {
                // §5.3 pass-through tests: `exact_result.eq_value(arg)` for
                // every candidate argument (subtraction never passes its
                // second argument through). The subsequent error comparison
                // only consumes certified roundings, so certifying the
                // equality decisions certifies the whole detection.
                for (i, (arg, errs)) in lane_args[..n].iter().zip(&operand_errs).enumerate() {
                    if op == RealOp::Sub && i == 1 {
                        continue;
                    }
                    if !cert::compare_certified(&result, e, arg, errs[l]) {
                        ok = false;
                        fail_kind = CertFailKind::Compensation;
                        break;
                    }
                }
            }
            if ok {
                result_errs[l] = e;
            } else {
                self.certified[l] = false;
                self.fail_kinds[l].get_or_insert(fail_kind);
            }
        }
        self.grow(dest);
        for l in lane_indices(mask) {
            self.values[dest].set(l, exact.get(l));
            self.errs[dest][l] = result_errs[l];
            self.written[dest] |= 1 << l;
        }
    }

    fn on_const_f(&mut self, _pc: usize, dest: Addr, value: f64, mask: LaneMask) {
        self.grow(dest);
        for l in lane_indices(mask) {
            self.seed(dest, l, value);
        }
    }

    fn on_const_i(&mut self, _pc: usize, dest: Addr, _value: i64, mask: LaneMask) {
        // The analysis clears the shadow: an integer store's consumer will
        // lazily shadow the client value, which the probe mirrors through
        // the written bit.
        self.grow(dest);
        for l in lane_indices(mask) {
            self.written[dest] &= !(1 << l);
        }
    }

    fn on_copy(&mut self, _pc: usize, dest: Addr, src: Addr, values: &[Value; W], mask: LaneMask) {
        self.grow(src.max(dest));
        for l in lane_indices(mask) {
            if !lane_active(self.written[src], l) {
                if let Value::F(v) = values[l] {
                    self.seed(src, l, v);
                } else {
                    self.written[dest] &= !(1 << l);
                    continue;
                }
            }
            let value = self.values[src].get(l);
            self.values[dest].set(l, value);
            self.errs[dest][l] = self.errs[src][l];
            self.written[dest] |= 1 << l;
        }
    }

    fn on_cast_to_int(
        &mut self,
        _pc: usize,
        dest: Addr,
        src: Addr,
        values: &[f64; W],
        _results: &[i64; W],
        mask: LaneMask,
    ) {
        // The divergence decision truncates `shadow.to_f64()`, whose
        // rounding was certified where the shadow was defined (leaves are
        // exact); nothing further to check. The destination shadow is
        // cleared, like the analysis.
        self.grow(src.max(dest));
        for l in lane_indices(mask) {
            self.ensure(src, l, values[l]);
            self.written[dest] &= !(1 << l);
        }
    }

    fn on_branch(
        &mut self,
        _pc: usize,
        _cmp: CmpOp,
        lhs: Addr,
        rhs: Addr,
        lhs_values: &[Value; W],
        rhs_values: &[Value; W],
        _taken: LaneMask,
        mask: LaneMask,
    ) {
        self.grow(lhs.max(rhs));
        for l in lane_indices(mask) {
            self.ensure(lhs, l, lhs_values[l].as_f64());
            self.ensure(rhs, l, rhs_values[l].as_f64());
            if !self.certified[l] {
                continue;
            }
            // The analysis compares the shadows with full `Real::compare`
            // semantics to detect divergence; certified separation (or joint
            // exactness) makes the `Ordering` agree across tiers for every
            // comparison operator.
            let lv = self.values[lhs].get(l);
            let rv = self.values[rhs].get(l);
            if !cert::compare_certified(&lv, self.errs[lhs][l], &rv, self.errs[rhs][l]) {
                self.certified[l] = false;
                self.fail_kinds[l].get_or_insert(CertFailKind::Branch);
            }
        }
    }

    fn on_output(&mut self, _pc: usize, src: Addr, values: &[f64; W], mask: LaneMask) {
        // Total error at the output rounds the shadow (`to_f64`), certified
        // at its definition; a never-shadowed output lazily becomes an exact
        // leaf in both tiers. Mirror the lazy creation so later statements
        // agree on what is shadowed.
        self.grow(src);
        for l in lane_indices(mask) {
            self.ensure(src, l, values[l]);
        }
    }
}

/// Runs the certify pass at compile-time width `W` and returns the per-input
/// verdicts, in input order.
///
/// Inputs whose run fails with a [`MachineError`] are marked uncertified —
/// the escalate pass reruns them in the `BigFloat` tier, which quarantines
/// them with the same error a plain sweep stops at. The failing lane keeps
/// consuming its chunk: unlike the analysis sweeps, the probe must classify
/// *every* input.
fn certify_inputs<const W: usize>(
    machine: &Machine<'_>,
    inputs: &[Vec<f64>],
    params: &CertParams,
    detect_compensation: bool,
    #[cfg(feature = "fault-injection")] inject_base: Option<usize>,
) -> Vec<bool> {
    let lane_count = W.min(inputs.len()).max(1);
    let chunks = balanced_chunks(inputs, lane_count);
    let positions = chunks.first().map_or(0, |chunk| chunk.len());
    // Chunk `l` starts at input index `offsets[l]` (chunks are contiguous).
    let mut offsets = Vec::with_capacity(chunks.len());
    let mut start = 0;
    for chunk in &chunks {
        offsets.push(start);
        start += chunk.len();
    }
    let batch = machine.batched::<W>();
    let mut probe = CertifyProbe::<W>::new(*params, detect_compensation);
    let mut memory = BatchMemory::new();
    let mut certified = vec![false; inputs.len()];
    for position in 0..positions {
        let mut lane_inputs: [Option<&[f64]>; W] = [None; W];
        let mut any = false;
        for (l, chunk) in chunks.iter().enumerate() {
            if let Some(input) = chunk.get(position) {
                lane_inputs[l] = Some(input.as_slice());
                any = true;
            }
        }
        if !any {
            break;
        }
        let outcome = batch.run_batch(&lane_inputs, &mut probe, &mut memory);
        for (l, chunk) in chunks.iter().enumerate() {
            if chunk.get(position).is_some() {
                let index = offsets[l] + position;
                #[allow(unused_mut)]
                let mut verdict = probe.lane_certified(l) && outcome.errors[l].is_none();
                if telemetry::enabled() && !verdict {
                    // Escalation cause: the first failing certificate check,
                    // or a machine fault when every check passed.
                    if !probe.lane_certified(l) {
                        match probe.lane_fail_kind(l) {
                            Some(CertFailKind::Rounding) => {
                                telemetry::TIERED_ESCALATE_ROUNDING.incr()
                            }
                            Some(CertFailKind::Compensation) => {
                                telemetry::TIERED_ESCALATE_COMPENSATION.incr()
                            }
                            Some(CertFailKind::Branch) => telemetry::TIERED_ESCALATE_BRANCH.incr(),
                            None => {}
                        }
                    } else {
                        telemetry::TIERED_ESCALATE_MACHINE_FAULT.incr();
                    }
                }
                // An injected tier-escalation failure forces the input out of
                // the certified tier at verdict time, so the escalation tier
                // (where the same injection panics) is exercised. Armed only
                // by the fault-isolated driver.
                #[cfg(feature = "fault-injection")]
                if let Some(base) = inject_base {
                    use crate::faultinject::{self, InjectKind, InjectStage};
                    if faultinject::query(base + index, 0, InjectStage::TieredCertify)
                        == Some(InjectKind::TierEscalation)
                    {
                        if verdict {
                            telemetry::TIERED_ESCALATE_INJECTED.incr();
                        }
                        verdict = false;
                    }
                }
                certified[index] = verdict;
            }
        }
    }
    certified
}

/// [`certify_inputs`] dispatched to the compiled batch width. `inject_base`
/// (fault-injection builds only) arms injected certification verdicts with
/// the sweep-global index of `inputs[0]`; unarmed sweeps pass `None`.
pub(crate) fn certify_dispatch(
    machine: &Machine<'_>,
    width: usize,
    inputs: &[Vec<f64>],
    params: &CertParams,
    detect_compensation: bool,
    #[cfg(feature = "fault-injection")] inject_base: Option<usize>,
) -> Vec<bool> {
    macro_rules! go {
        ($w:literal) => {
            certify_inputs::<$w>(
                machine,
                inputs,
                params,
                detect_compensation,
                #[cfg(feature = "fault-injection")]
                inject_base,
            )
        };
    }
    match width {
        2 => go!(2),
        4 => go!(4),
        8 => go!(8),
        13 => go!(13),
        16 => go!(16),
        _ => go!(1),
    }
}

/// The armed tier 0 of a tiered sweep: the static prune mask plus the
/// declared input region it is valid for.
///
/// Tier 0 runs *before any input executes*: [`staticerr::analyze_program`]
/// abstractly interprets the compiled tape over
/// [`AnalysisConfig::input_ranges`] and certifies statements whose dynamic
/// error can never trip the thresholds for any in-region input. Certified
/// statements (filtered to the report-invisible subset by
/// [`staticerr::prune_mask`]) skip dynamic shadowing in **both** dynamic
/// tiers — the certificate bounds the exact value, not a particular shadow,
/// so it holds under `DoubleDouble` and `BigFloat` alike. The driver checks
/// every input against the declared region and sweeps out-of-region inputs
/// unpruned, so the bit-identity contract holds unconditionally even when
/// the declared ranges are wrong.
pub(crate) struct Tier0 {
    pub(crate) mask: Arc<staticerr::PruneMask>,
    pub(crate) ranges: Vec<(f64, f64)>,
}

/// Runs the static tier-0 pass when the configuration declares input
/// ranges. Returns `None` when disarmed (`input_ranges: None`), when the
/// declared ranges do not match the program's arity (fail closed: no
/// pruning), or when nothing prunable was certified.
pub(crate) fn arm_tier0(program: &Program, config: &AnalysisConfig) -> Option<Tier0> {
    let ranges = config.input_ranges.as_ref()?;
    if ranges.len() != program.arg_addrs.len() {
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
    if mask.is_empty() {
        return None;
    }
    Some(Tier0 {
        mask: Arc::new(mask),
        ranges: ranges.clone(),
    })
}

/// Whether an input vector lies inside the declared tier-0 region (NaN
/// coordinates are never in range).
pub(crate) fn input_in_region(input: &[f64], ranges: &[(f64, f64)]) -> bool {
    input.len() == ranges.len()
        && input
            .iter()
            .zip(ranges)
            .all(|(&x, &(lo, hi))| lo <= x && x <= hi)
}

/// Runs the tiered adaptive-precision analysis and returns the report
/// together with the tier split.
///
/// Interchangeable with [`analyze`](crate::analysis::analyze) and the other
/// drivers: the report is bit-identical for every batch width and thread
/// count — certified inputs merely run in the cheaper `DoubleDouble` tier —
/// with the shard-merge exception the batched and parallel drivers share
/// (DESIGN.md, "Parallel engine"). With [`AnalysisConfig::input_ranges`]
/// set, tier 0 runs first and in-region inputs skip shadowing for
/// statically certified statements. This is the fail-fast view of
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
    fn threads_and_widths_compose() {
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
        // The declared region covers only part of the sweep: out-of-region
        // inputs (including one far outside, where the certificate would be
        // meaningless) must run unpruned and the merged report must still be
        // bit-identical.
        let p = program("(FPCore (x) (+ (* x x) (+ x 2)))");
        let mut inputs: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0 + f64::from(i)]).collect();
        inputs.push(vec![1e200]);
        inputs.push(vec![3.5]);
        inputs.push(vec![-50.0]);
        let config = AnalysisConfig::default()
            .with_threads(1)
            .with_input_ranges(vec![(1.0, 16.0)]);
        let serial = analyze(&p, &inputs, &AnalysisConfig::default().with_threads(1)).unwrap();
        let (tiered, _) = analyze_tiered_with_stats(&p, &inputs, &config).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{tiered:?}"));
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
}
