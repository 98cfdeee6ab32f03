//! Analysis configuration: the tunable parameters explored in §8.2.

/// Which kind of input-range characteristic to compute (Figure 5b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeKind {
    /// Do not track ranges (only a representative example input).
    None,
    /// Track a single `[min, max]` range per variable.
    Single,
    /// Track separate ranges for negative and positive values of each
    /// variable.
    SignSplit,
}

/// Configuration for a Herbgrind analysis run.
///
/// The defaults correspond to the paper's default configuration; each field
/// maps to one of the knobs varied in the evaluation (§8).
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Local-error threshold `Tℓ` in bits: operations whose local error
    /// exceeds this are candidate root causes (Figure 5a varies this).
    pub local_error_threshold: f64,
    /// Output-error threshold `Tm` in bits: spots whose error exceeds this
    /// report their influences.
    pub output_error_threshold: f64,
    /// Maximum depth of tracked concrete/symbolic expressions (Figures 5c and
    /// 5d vary this); depth 1 reports only the erroneous operation itself,
    /// like FpDebug.
    pub max_expression_depth: usize,
    /// Depth to which subtree equivalence is computed during
    /// anti-unification (§6.1; default 5).
    pub antiunify_equivalence_depth: usize,
    /// Which input-range characteristics to compute (Figure 5b).
    pub range_kind: RangeKind,
    /// Whether compensating additions/subtractions are detected and their
    /// influence suppressed (§5.3 / §8.3).
    pub detect_compensation: bool,
    /// Mantissa precision, in bits, of the shadow reals (the paper's
    /// `--precision`, default 1000 there; 256 here is ample for doubles).
    pub shadow_precision: u32,
    /// Step budget per machine run.
    pub step_limit: u64,
    /// Wall-clock deadline per machine run, in milliseconds; `0` (the
    /// default) disables it. Unlike the step budget the deadline is
    /// machine-load-dependent, so which run trips it is not reproducible —
    /// the fault-isolated drivers quarantine the input either way, but
    /// sweeps that must be bit-reproducible should prefer
    /// [`AnalysisConfig::step_limit`].
    pub deadline_millis: u64,
    /// Trace-memory budget per machine run, in interned expression nodes
    /// (leaves + interior nodes, see
    /// [`ExprInterner::len`](crate::trace::ExprInterner::len)); `0` (the
    /// default) disables it. A run whose recorded concrete expressions
    /// outgrow the budget faults with
    /// [`fpvm::MachineError::TraceBudgetExceeded`], which the fault-isolated
    /// drivers turn into a quarantine entry.
    pub trace_node_budget: usize,
    /// Number of analysis threads of
    /// [`analyze_parallel`](crate::analysis::analyze_parallel), its
    /// `_with_shadow` form and
    /// [`analyze_parallel_isolated`](crate::quarantine::analyze_parallel_isolated):
    /// the input sweep is split into this many contiguous shards, analyzed
    /// independently, and merged deterministically. `0` means one thread per
    /// available core; `1` runs one shard, so nothing merges. The report is
    /// bit-identical for every setting, up to the shard-merge exception
    /// documented at [`analyze_parallel`](crate::analysis::analyze_parallel).
    /// Every other entry point (serial, batched, tiered) ignores it: it
    /// sweeps every input as one chunk.
    pub threads: usize,
    /// Lane width of [`analyze_batched`](crate::batched::analyze_batched)
    /// and [`analyze_batched_isolated`](crate::quarantine::analyze_batched_isolated):
    /// how many inputs one batched tape pass executes in lockstep. No other
    /// driver reads it; [`probe_local_error`](crate::batched::probe_local_error)
    /// takes its width as a const parameter. Widths outside the engine's
    /// supported menu fall back to the nearest smaller supported width
    /// ([`crate::batched::SUPPORTED_BATCH_WIDTHS`]); `0` and `1` run
    /// single-lane batches. The report is bit-identical for every setting,
    /// up to the lane-merge exception documented at
    /// [`analyze_batched`](crate::batched::analyze_batched).
    pub batch_width: usize,
    /// Declared input region for tier 0 of the tiered analysis
    /// ([`analyze_tiered`](crate::tiered::analyze_tiered)): one `(lo, hi)`
    /// interval per program argument, in argument order. When set, the
    /// tiered driver runs the static error-dataflow pass
    /// ([`staticerr::analyze_program`]) over the compiled tape before any
    /// input executes and skips dynamic shadowing for statements it
    /// certifies stable. The driver arms tier 0 per sweep: only when every
    /// swept input lies inside the declared region. A sweep with any
    /// out-of-region input skips the static pass and runs unpruned, so the
    /// report stays bit-identical even when the declaration is wrong. `None`
    /// (the default) disables tier 0 everywhere; the serial and reference
    /// analyses never consult it.
    pub input_ranges: Option<Vec<(f64, f64)>>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            local_error_threshold: 5.0,
            output_error_threshold: 5.0,
            max_expression_depth: 16,
            antiunify_equivalence_depth: 5,
            range_kind: RangeKind::SignSplit,
            detect_compensation: true,
            shadow_precision: 256,
            step_limit: 50_000_000,
            deadline_millis: 0,
            trace_node_budget: 0,
            threads: 0,
            batch_width: 8,
            input_ranges: None,
        }
    }
}

impl AnalysisConfig {
    /// A configuration that mimics FpDebug: only the operation where error
    /// appears is reported (expression depth 1), no ranges, and no
    /// compensation detection — FpDebug has no analogue of §5.3, so a
    /// baseline comparison against it must not quietly keep Herbgrind's
    /// expert-trick suppression switched on.
    pub fn fpdebug_like() -> AnalysisConfig {
        AnalysisConfig {
            max_expression_depth: 1,
            range_kind: RangeKind::None,
            detect_compensation: false,
            ..AnalysisConfig::default()
        }
    }

    /// Returns the configuration with every cross-field invariant enforced:
    ///
    /// * `max_expression_depth >= 1` — depth 0 would record no expression at
    ///   all and break the depth-bounded trace machinery, which is why
    ///   [`AnalysisConfig::with_max_expression_depth`] clamps it; a struct
    ///   literal can bypass the builder, so every analysis entry point
    ///   normalizes instead of trusting the construction path.
    /// * `antiunify_equivalence_depth >= 1` — anti-unification must compare
    ///   at least the node itself.
    /// * `shadow_precision >= 53` — a shadow less precise than the doubles
    ///   it shadows cannot measure their error.
    ///
    /// Normalization is idempotent, and configurations built through
    /// [`Default`] or the builders are already normal.
    pub fn normalize(&self) -> AnalysisConfig {
        AnalysisConfig {
            max_expression_depth: self.max_expression_depth.max(1),
            antiunify_equivalence_depth: self.antiunify_equivalence_depth.max(1),
            shadow_precision: self.shadow_precision.max(53),
            ..self.clone()
        }
    }

    /// Sets the local-error threshold (builder style).
    pub fn with_local_error_threshold(mut self, bits: f64) -> Self {
        self.local_error_threshold = bits;
        self
    }

    /// Sets the maximum expression depth (builder style).
    pub fn with_max_expression_depth(mut self, depth: usize) -> Self {
        self.max_expression_depth = depth.max(1);
        self
    }

    /// Sets the range kind (builder style).
    pub fn with_range_kind(mut self, kind: RangeKind) -> Self {
        self.range_kind = kind;
        self
    }

    /// Enables or disables compensation detection (builder style).
    pub fn with_compensation_detection(mut self, enabled: bool) -> Self {
        self.detect_compensation = enabled;
        self
    }

    /// Sets the analysis thread count (builder style); `0` selects one
    /// thread per available core.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the batched-execution lane width (builder style); see
    /// [`AnalysisConfig::batch_width`].
    pub fn with_batch_width(mut self, width: usize) -> Self {
        self.batch_width = width;
        self
    }

    /// Declares the input region for static tier-0 certification (builder
    /// style); see [`AnalysisConfig::input_ranges`].
    pub fn with_input_ranges(mut self, ranges: Vec<(f64, f64)>) -> Self {
        self.input_ranges = Some(ranges);
        self
    }

    /// Sets the per-run step budget (builder style).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Sets the per-run wall-clock deadline in milliseconds (builder style);
    /// `0` disables it. See [`AnalysisConfig::deadline_millis`].
    pub fn with_deadline_millis(mut self, millis: u64) -> Self {
        self.deadline_millis = millis;
        self
    }

    /// Sets the per-run trace-memory budget in interned nodes (builder
    /// style); `0` disables it. See [`AnalysisConfig::trace_node_budget`].
    pub fn with_trace_node_budget(mut self, nodes: usize) -> Self {
        self.trace_node_budget = nodes;
        self
    }

    /// The thread count
    /// [`analyze_parallel`](crate::analysis::analyze_parallel) and its forms
    /// ([`AnalysisConfig::threads`]) actually use for a sweep of
    /// `input_count` inputs: the configured count (or the available
    /// parallelism when 0), never more than one thread per input.
    pub fn effective_threads(&self, input_count: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        configured.clamp(1, input_count.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = AnalysisConfig::default();
        assert_eq!(c.antiunify_equivalence_depth, 5);
        assert_eq!(c.range_kind, RangeKind::SignSplit);
        assert!(c.detect_compensation);
        assert!(c.local_error_threshold > 0.0);
    }

    #[test]
    fn fpdebug_configuration_disables_expressions() {
        let c = AnalysisConfig::fpdebug_like();
        assert_eq!(c.max_expression_depth, 1);
        assert_eq!(c.range_kind, RangeKind::None);
    }

    #[test]
    fn builders_compose() {
        let c = AnalysisConfig::default()
            .with_local_error_threshold(16.0)
            .with_max_expression_depth(3)
            .with_range_kind(RangeKind::Single)
            .with_compensation_detection(false);
        assert_eq!(c.local_error_threshold, 16.0);
        assert_eq!(c.max_expression_depth, 3);
        assert_eq!(c.range_kind, RangeKind::Single);
        assert!(!c.detect_compensation);
    }

    #[test]
    fn depth_is_clamped_to_at_least_one() {
        let c = AnalysisConfig::default().with_max_expression_depth(0);
        assert_eq!(c.max_expression_depth, 1);
    }

    #[test]
    fn fpdebug_configuration_disables_compensation_detection() {
        // FpDebug has no compensation detection (§5.3 is Herbgrind's
        // contribution); the baseline configuration must not keep it on.
        assert!(!AnalysisConfig::fpdebug_like().detect_compensation);
    }

    #[test]
    fn normalize_enforces_invariants_bypassed_by_struct_literals() {
        // A struct literal can skip the builder's clamp; normalization at
        // the analysis entry points must restore every invariant.
        let raw = AnalysisConfig {
            max_expression_depth: 0,
            antiunify_equivalence_depth: 0,
            shadow_precision: 8,
            ..AnalysisConfig::default()
        };
        let normal = raw.normalize();
        assert_eq!(normal.max_expression_depth, 1);
        assert_eq!(normal.antiunify_equivalence_depth, 1);
        assert_eq!(normal.shadow_precision, 53);
        // Untouched fields pass through, and normalization is idempotent.
        assert_eq!(normal.batch_width, raw.batch_width);
        assert_eq!(normal.threads, raw.threads);
        let again = normal.normalize();
        assert_eq!(again.max_expression_depth, normal.max_expression_depth);
        assert_eq!(again.shadow_precision, normal.shadow_precision);
    }

    #[test]
    fn default_and_builder_configurations_are_already_normal() {
        for config in [
            AnalysisConfig::default(),
            AnalysisConfig::fpdebug_like(),
            AnalysisConfig::default().with_max_expression_depth(3),
        ] {
            let normal = config.normalize();
            assert_eq!(normal.max_expression_depth, config.max_expression_depth);
            assert_eq!(normal.shadow_precision, config.shadow_precision);
            assert_eq!(normal.detect_compensation, config.detect_compensation);
        }
    }
}
