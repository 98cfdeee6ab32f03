//! The report-correctness gate, run once per process outside the timed
//! region. Every BigFloat-exact engine must render the same report, bit for
//! bit (`{:?}`), as serial `analyze`; serial `analyze` must match the
//! retained independent reference analysis; and the `dd` engine must match
//! the batched DoubleDouble analysis.

use crate::engines::{serial_config, Engine, BATCH_WIDTH};
use crate::spans::Spans;
use crate::workload::{Member, Workload};
use fpvm::MachineError;
use herbgrind::Report;
use shadowreal::DoubleDouble;

/// What the gate found, and the rendered reports timed sweeps must repeat.
#[derive(Debug, Default)]
pub struct Gate {
    /// (program, engine) sweeps checked.
    pub attempted: u64,
    /// Sweeps that returned an error or a mismatching report.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Per member: the rendered BigFloat-exact report, and the rendered
    /// `dd` report (`None` where the sweep failed).
    pub expected: Vec<[Option<String>; 2]>,
}

impl Gate {
    /// Counts one sweep, failed when it errs or differs from `expected`.
    fn check<T: PartialEq>(
        &mut self,
        what: String,
        got: Result<T, MachineError>,
        expected: Option<&T>,
    ) {
        self.attempted += 1;
        let failure = match (got, expected) {
            (Err(e), _) => Some(format!("{what}: {e}")),
            (Ok(_), None) => Some(format!("{what}: nothing to compare against")),
            (Ok(got), Some(expected)) if got != *expected => {
                Some(format!("{what}: report differs"))
            }
            _ => None,
        };
        if let Some(failure) = failure {
            self.failed += 1;
            self.failures.push(failure);
        }
    }

    /// Counts a consistency check of the benchmark's own, failed unless `ok`.
    pub fn expect(&mut self, what: String, ok: bool) {
        self.check(what, Ok(ok), Some(&true));
    }

    /// Counts a timed sweep, and checks each rendered report against the
    /// gate's.
    pub fn check_sweep(
        &mut self,
        engine: Engine,
        workload: &Workload,
        texts: Vec<Result<String, MachineError>>,
    ) {
        let expected = std::mem::take(&mut self.expected);
        for ((member, text), want) in workload.members.iter().zip(texts).zip(&expected) {
            let what = format!("{} timed {}", member.core.display_name(), engine.name());
            self.check(what, text, want[usize::from(!engine.is_exact())].as_ref());
        }
        self.expected = expected;
    }
}

fn debug(report: Result<Report, MachineError>) -> Result<String, MachineError> {
    report.map(|r| format!("{r:?}"))
}

/// Runs the gate over every member.
pub fn check(workload: &Workload, spans: &mut Spans) -> Gate {
    spans.enter("gate", None);
    let mut gate = Gate::default();
    for member in &workload.members {
        spans.enter("program", Some(member.index));
        check_member(&mut gate, member);
        spans.exit();
    }
    spans.exit();
    gate
}

fn check_member(gate: &mut Gate, member: &Member) {
    let name = member.core.display_name();
    let (program, inputs) = (&member.program, member.inputs.as_slice());
    let config = serial_config();

    let serial = Engine::BigFloat.run(member);
    let serial_debug = serial.as_ref().ok().map(|r| format!("{r:?}"));
    let serial_text = serial.as_ref().ok().map(Report::to_text);
    gate.check(format!("{name} bigfloat"), serial.map(|_| ()), Some(&()));
    gate.check(
        format!("{name} reference"),
        debug(herbgrind::reference::analyze_reference(
            program, inputs, &config,
        )),
        serial_debug.as_ref(),
    );
    for engine in [Engine::Exact, Engine::Batched, Engine::Parallel] {
        gate.check(
            format!("{name} {}", engine.name()),
            debug(engine.run(member)),
            serial_debug.as_ref(),
        );
    }
    gate.check(
        format!("{name} quarantine"),
        Ok(format!(
            "{:?}",
            herbgrind::analyze_isolated(program, inputs, &config)
        )),
        serial_debug.as_ref(),
    );

    let dd = Engine::Dd.run(member);
    let dd_text = dd.as_ref().ok().map(Report::to_text);
    let batched_dd = herbgrind::analyze_batched_with_shadow::<DoubleDouble>(
        program,
        inputs,
        &config.with_batch_width(BATCH_WIDTH),
    );
    let batched_dd_debug = batched_dd.as_ref().ok().map(|r| format!("{r:?}"));
    gate.check(format!("{name} dd"), debug(dd), batched_dd_debug.as_ref());
    gate.expected.push([serial_text, dd_text]);
}
