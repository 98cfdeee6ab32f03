//! The report engines, each called from exactly one place: [`Engine::run`].
//! When the engines fold into one sweep entry point, only that call site
//! changes and the metric names stay.

use crate::spans::Spans;
use crate::workload::{Member, Workload};
use fpvm::MachineError;
use herbgrind::{AnalysisConfig, Report};
use shadowreal::DoubleDouble;
use std::time::Instant;

/// Lane width of the `batched` engine.
pub const BATCH_WIDTH: usize = 8;

/// Thread count of the `parallel` engine. Fixed rather than "one per core"
/// so the figure means the same on every machine.
pub const PARALLEL_THREADS: usize = 2;

/// The configuration every engine starts from: the paper's defaults on one
/// thread.
pub fn serial_config() -> AnalysisConfig {
    AnalysisConfig::default().with_threads(1)
}

/// A report engine the benchmark times end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `analyze_tiered` with tier 0 armed from the sampling region: the
    /// fastest path to the report that is bit-identical to BigFloat-256.
    Exact,
    /// Serial `analyze`: the paper's analysis, and the escalation tier.
    BigFloat,
    /// `analyze_batched` at [`BATCH_WIDTH`] lanes.
    Batched,
    /// `analyze_parallel` at [`PARALLEL_THREADS`] threads, the path
    /// `fpbench::driver` uses.
    Parallel,
    /// `analyze_with_shadow::<DoubleDouble>`: the cheap tier, and the
    /// ceiling `exact` is judged against.
    Dd,
}

impl Engine {
    /// Every engine, in reporting order.
    pub const ALL: [Engine; 5] = [
        Engine::Exact,
        Engine::BigFloat,
        Engine::Batched,
        Engine::Parallel,
        Engine::Dd,
    ];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Exact => "exact",
            Engine::BigFloat => "bigfloat",
            Engine::Batched => "batched",
            Engine::Parallel => "parallel",
            Engine::Dd => "dd",
        }
    }

    /// The end-to-end throughput metric.
    pub fn metric(self) -> &'static str {
        match self {
            Engine::Exact => "exact_ops_per_s",
            Engine::BigFloat => "bigfloat_ops_per_s",
            Engine::Batched => "batched_ops_per_s",
            Engine::Parallel => "parallel_ops_per_s",
            Engine::Dd => "dd_ops_per_s",
        }
    }

    /// The span around one call of the engine.
    pub fn span(self) -> &'static str {
        match self {
            Engine::Exact => "sweep.exact",
            Engine::BigFloat => "sweep.bigfloat",
            Engine::Batched => "sweep.batched",
            Engine::Parallel => "sweep.parallel",
            Engine::Dd => "sweep.dd",
        }
    }

    /// Whether the engine's report must be bit-identical to BigFloat-256.
    pub fn is_exact(self) -> bool {
        self != Engine::Dd
    }

    /// Analyzes one program on its inputs.
    ///
    /// # Errors
    ///
    /// The engine's machine error.
    pub fn run(self, member: &Member) -> Result<Report, MachineError> {
        let (program, inputs) = (&member.program, member.inputs.as_slice());
        let config = serial_config();
        match self {
            Engine::Exact => {
                let config = config.with_input_ranges(member.region.clone());
                herbgrind::analyze_tiered(program, inputs, &config)
            }
            Engine::BigFloat => herbgrind::analyze(program, inputs, &config),
            Engine::Batched => {
                herbgrind::analyze_batched(program, inputs, &config.with_batch_width(BATCH_WIDTH))
            }
            Engine::Parallel => {
                herbgrind::analyze_parallel(program, inputs, &config.with_threads(PARALLEL_THREADS))
            }
            Engine::Dd => herbgrind::analyze_with_shadow::<DoubleDouble>(program, inputs, &config),
        }
    }
}

/// One full sweep of a workload.
#[derive(Debug)]
pub struct Sweep {
    /// Seconds spent on each member: analysis plus rendering.
    pub program_s: Vec<f64>,
    /// Each member's rendered report.
    pub texts: Vec<Result<String, MachineError>>,
}

impl Sweep {
    /// Seconds spent on the whole sweep.
    pub fn seconds(&self) -> f64 {
        self.program_s.iter().sum()
    }
}

/// One full sweep of a workload: every member analyzed and its report
/// rendered.
pub fn sweep(engine: Engine, workload: &Workload, spans: &mut Spans) -> Sweep {
    let mut program_s = Vec::with_capacity(workload.members.len());
    let mut texts = Vec::with_capacity(workload.members.len());
    for member in &workload.members {
        let start = Instant::now();
        spans.enter("program", Some(member.index));
        let report = spans.time(engine.span(), Some(member.index), || engine.run(member));
        texts.push(report.map(|r| spans.time("report.render", Some(member.index), || r.to_text())));
        spans.exit();
        program_s.push(start.elapsed().as_secs_f64());
    }
    Sweep { program_s, texts }
}
