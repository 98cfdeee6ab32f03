//! The traced run's per-layer measurements. Each layer is timed from
//! outside, by spans around calls into its module's public functions, and
//! every count comes from the benchmark's own tracers, `TierStats` and
//! `LocalErrorSummary`.

use crate::engines::{serial_config, BATCH_WIDTH};
use crate::spans::Spans;
use crate::workload::{Member, OpCounter, Workload};
use fpvm::batch::{BatchMemory, BatchTracer, LaneMask};
use fpvm::{Machine, MachineError, NullTracer, Program, Tracer, Value};
use herbgrind::staticerr::{self, StaticParams};
use herbgrind::{AnalysisConfig, Herbgrind};
use shadowreal::{BigFloat, DoubleDouble, Real, RealOp};

/// Counts that must repeat exactly for the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExactCounts {
    /// Analyzed ops.
    pub ops: u64,
    /// Library-call share of the analyzed ops.
    pub libm_share: f64,
    /// Inputs the certify pass kept in the DoubleDouble tier ÷ inputs.
    pub certified_share: f64,
    /// Maximal runs of consecutive inputs with the same tier verdict.
    pub verdict_groups: u64,
    /// Inputs certified when each is swept alone (must equal the sweep's).
    pub certified_alone: u64,
    /// Erroneous executions ÷ executions, from the batched probe.
    pub erroneous_share: f64,
    /// Statically pruned ÷ compute statements.
    pub pruned_share: f64,
    /// Root causes across every report.
    pub root_causes: u64,
    /// Active lanes ÷ (lane width × group callbacks) on the batched machine.
    pub lane_occupancy: f64,
}

/// The configuration of the `exact` engine for one member.
fn exact_config(member: &Member) -> AnalysisConfig {
    serial_config().with_input_ranges(member.region.clone())
}

/// Computes the exact counts, recording spans around the static pass, the
/// probe, the tiered sweep and the per-input verdicts.
///
/// # Errors
///
/// The first machine error, named by program.
pub fn exact_counts(workload: &Workload, spans: &mut Spans) -> Result<ExactCounts, String> {
    let config = serial_config();
    let params = StaticParams {
        local_error_threshold: config.local_error_threshold,
        output_error_threshold: config.output_error_threshold,
        detect_compensation: config.detect_compensation,
    };
    let (mut pruned, mut computes) = (0usize, 0usize);
    let (mut erroneous, mut executions) = (0u64, 0u64);
    let (mut certified, mut certified_alone, mut groups, mut root_causes) =
        (0usize, 0u64, 0u64, 0u64);
    let mut lanes = LaneCounter::default();
    spans.enter("counts", None);
    for member in &workload.members {
        let (index, program, inputs) = (Some(member.index), &member.program, &member.inputs);
        let named = |e: MachineError| format!("{}: {e}", member.core.display_name());
        spans.enter("program", index);
        let mask = spans.time("staticerr.analyze", index, || {
            staticerr::prune_mask(
                program,
                &staticerr::analyze_program(program, &member.region, &params),
            )
        });
        pruned += mask.pruned_computes();
        computes += mask.total_computes();
        let summary = spans
            .time("batched.probe", index, || {
                herbgrind::probe_local_error::<BATCH_WIDTH>(
                    program,
                    inputs,
                    config.local_error_threshold,
                )
            })
            .map_err(named)?;
        erroneous += summary.statements.iter().map(|s| s.erroneous).sum::<u64>();
        executions += summary.statements.iter().map(|s| s.executions).sum::<u64>();
        let (report, stats) = spans
            .time("sweep.exact", index, || {
                herbgrind::analyze_tiered_with_stats(program, inputs, &exact_config(member))
            })
            .map_err(named)?;
        certified += stats.certified_inputs;
        root_causes += report.all_root_causes().len() as u64;
        let verdicts = spans
            .time("tiered.verdicts", index, || verdicts(member))
            .map_err(named)?;
        certified_alone += verdicts.iter().filter(|&&v| v).count() as u64;
        groups += verdict_groups(&verdicts);
        spans
            .time("fpvm.lanes", index, || lanes.sweep(program, inputs))
            .map_err(named)?;
        spans.exit();
    }
    spans.exit();
    Ok(ExactCounts {
        ops: workload.ops(),
        libm_share: workload.libm_share(),
        certified_share: certified as f64 / workload.inputs().max(1) as f64,
        verdict_groups: groups,
        certified_alone,
        erroneous_share: erroneous as f64 / executions.max(1) as f64,
        pruned_share: pruned as f64 / computes.max(1) as f64,
        root_causes,
        lane_occupancy: lanes.occupancy(),
    })
}

/// Each input's tier verdict, from one-input tiered sweeps.
fn verdicts(member: &Member) -> Result<Vec<bool>, MachineError> {
    let config = exact_config(member);
    member
        .inputs
        .iter()
        .map(|input| {
            herbgrind::analyze_tiered_with_stats(
                &member.program,
                std::slice::from_ref(input),
                &config,
            )
            .map(|(_, stats)| stats.certified_inputs == 1)
        })
        .collect()
}

/// The number of maximal runs of equal verdicts.
pub fn verdict_groups(verdicts: &[bool]) -> u64 {
    let changes = verdicts.windows(2).filter(|w| w[0] != w[1]).count();
    (changes + usize::from(!verdicts.is_empty())) as u64
}

/// Counts lane-group callbacks and the lanes active in each.
#[derive(Clone, Copy, Debug, Default)]
struct LaneCounter {
    callbacks: u64,
    lanes: u64,
}

impl LaneCounter {
    fn group(&mut self, mask: LaneMask) {
        self.callbacks += 1;
        self.lanes += u64::from(mask.count_ones());
    }

    fn occupancy(&self) -> f64 {
        self.lanes as f64 / (BATCH_WIDTH as u64 * self.callbacks).max(1) as f64
    }

    /// Runs the inputs on the batched machine with the batched engine's
    /// lane assignment: balanced contiguous chunks, one per lane.
    fn sweep(&mut self, program: &Program, inputs: &[Vec<f64>]) -> Result<(), MachineError> {
        let machine = Machine::new(program);
        let batch = machine.batched::<BATCH_WIDTH>();
        let lanes = BATCH_WIDTH.min(inputs.len()).max(1);
        let (base, extra) = (inputs.len() / lanes, inputs.len() % lanes);
        let mut chunks = Vec::with_capacity(lanes);
        let mut start = 0;
        for l in 0..lanes {
            let len = base + usize::from(l < extra);
            chunks.push(&inputs[start..start + len]);
            start += len;
        }
        let mut memory = BatchMemory::new();
        for position in 0..base + usize::from(extra > 0) {
            let mut lane_inputs: [Option<&[f64]>; BATCH_WIDTH] = [None; BATCH_WIDTH];
            for (slot, chunk) in lane_inputs.iter_mut().zip(&chunks) {
                *slot = chunk.get(position).map(Vec::as_slice);
            }
            let outcome = batch.run_batch(&lane_inputs, self, &mut memory);
            if let Some((_, error)) = outcome.first_error() {
                return Err(error.clone());
            }
        }
        Ok(())
    }
}

impl<const W: usize> BatchTracer<W> for LaneCounter {
    fn on_compute(
        &mut self,
        _: usize,
        _: RealOp,
        _: usize,
        _: &[usize],
        _: &[[f64; W]],
        _: &[f64; W],
        mask: LaneMask,
    ) {
        self.group(mask);
    }
    fn on_const_f(&mut self, _: usize, _: usize, _: f64, mask: LaneMask) {
        self.group(mask);
    }
    fn on_const_i(&mut self, _: usize, _: usize, _: i64, mask: LaneMask) {
        self.group(mask);
    }
    fn on_copy(&mut self, _: usize, _: usize, _: usize, _: &[Value; W], mask: LaneMask) {
        self.group(mask);
    }
    fn on_cast_to_int(
        &mut self,
        _: usize,
        _: usize,
        _: usize,
        _: &[f64; W],
        _: &[i64; W],
        mask: LaneMask,
    ) {
        self.group(mask);
    }
    fn on_branch(
        &mut self,
        _: usize,
        _: fpcore::CmpOp,
        _: usize,
        _: usize,
        _: &[Value; W],
        _: &[Value; W],
        _: LaneMask,
        mask: LaneMask,
    ) {
        self.group(mask);
    }
    fn on_output(&mut self, _: usize, _: usize, _: &[f64; W], mask: LaneMask) {
        self.group(mask);
    }
}

/// A member's compute stream: each executed operation with its operands as
/// the client computed them.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    ops: Vec<RealOp>,
    args: Vec<f64>,
}

impl Tracer for Stream {
    fn on_compute(
        &mut self,
        _: usize,
        op: RealOp,
        _: usize,
        _: &[usize],
        arg_values: &[f64],
        _: f64,
    ) {
        self.ops.push(op);
        self.args.extend_from_slice(arg_values);
    }
}

/// Records every member's compute stream.
///
/// # Errors
///
/// The first machine error.
pub fn record_streams(workload: &Workload) -> Result<Vec<Stream>, MachineError> {
    workload
        .members
        .iter()
        .map(|member| {
            let machine = Machine::new(&member.program);
            let mut stream = Stream::default();
            for input in &member.inputs {
                machine.run_traced(input, &mut stream)?;
            }
            Ok(stream)
        })
        .collect()
}

/// Applies every operation of `stream` to shadow operands of type `R`
/// created from the recorded doubles before timing starts.
fn replay<R: Real>(
    stream: &Stream,
    make: impl Fn(f64) -> R,
    spans: &mut Spans,
    name: &'static str,
    index: Option<usize>,
    apply: impl Fn(RealOp, &[R]),
) {
    let args: Vec<R> = stream.args.iter().map(|&x| make(x)).collect();
    spans.time(name, index, || {
        let mut at = 0;
        for &op in &stream.ops {
            let arity = op.arity();
            apply(op, &args[at..at + arity]);
            at += arity;
        }
    });
}

/// One decomposition pass: every member through each layer in turn.
///
/// # Errors
///
/// The first machine error, named by program.
pub fn decompose(workload: &Workload, streams: &[Stream], spans: &mut Spans) -> Result<(), String> {
    let config = serial_config();
    let prec = config.shadow_precision;
    spans.enter("decompose", None);
    for (member, stream) in workload.members.iter().zip(streams) {
        let (index, program, inputs) = (Some(member.index), &member.program, &member.inputs);
        let named = |e: MachineError| format!("{}: {e}", member.core.display_name());
        spans.enter("program", index);
        let machine = Machine::new(program);
        let mut memory = Vec::new();
        spans
            .time("fpvm.native", index, || {
                inputs.iter().try_for_each(|input| {
                    machine
                        .run_traced_reusing(input, &mut NullTracer, &mut memory)
                        .map(drop)
                })
            })
            .map_err(named)?;
        let mut counter = OpCounter::default();
        spans
            .time("fpvm.traced", index, || {
                inputs.iter().try_for_each(|input| {
                    machine
                        .run_traced_reusing(input, &mut counter, &mut memory)
                        .map(drop)
                })
            })
            .map_err(named)?;
        replay(
            stream,
            |x| BigFloat::from_f64_prec(x, prec),
            spans,
            "shadowreal.bigfloat",
            index,
            |op, args| {
                std::hint::black_box(BigFloat::apply(op, args));
            },
        );
        replay(
            stream,
            DoubleDouble::from_f64,
            spans,
            "shadowreal.dd",
            index,
            |op, args| {
                std::hint::black_box(DoubleDouble::apply(op, args));
            },
        );
        replay(
            stream,
            |x| BigFloat::from_f64_prec(x, prec),
            spans,
            "localerr",
            index,
            |op, args| {
                std::hint::black_box(
                    herbgrind::localerr::local_error(op, args).expect("operations have operands"),
                );
            },
        );
        let mut analysis = Herbgrind::<BigFloat>::new(config.clone());
        spans
            .time("analysis.run", index, || {
                inputs.iter().try_for_each(|input| {
                    machine
                        .run_traced_reusing(input, &mut analysis, &mut memory)
                        .map(drop)
                })
            })
            .map_err(named)?;
        std::hint::black_box(spans.time("analysis.report", index, || analysis.report()));
        spans
            .time("batched.probe", index, || {
                herbgrind::probe_local_error::<BATCH_WIDTH>(
                    program,
                    inputs,
                    config.local_error_threshold,
                )
            })
            .map_err(named)?;
        std::hint::black_box(spans.time("quarantine.isolated", index, || {
            herbgrind::analyze_isolated(program, inputs, &config)
        }));
        spans.exit();
    }
    spans.exit();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_groups_count_maximal_runs() {
        assert_eq!(verdict_groups(&[]), 0);
        assert_eq!(verdict_groups(&[true]), 1);
        assert_eq!(verdict_groups(&[true, true, false, false, true]), 3);
    }
}
