//! A Bao & Zhang-style detector: cheap heuristic monitoring of "discrete
//! factors".
//!
//! The original tool watches instructions whose results feed into discrete
//! decisions (branches, integer conversions) and flags the ones whose
//! operands are so close that a rounding-error-sized relative perturbation
//! could change the outcome. It uses no shadow values, so its overhead is
//! tiny — and its false-positive rate is high (the paper quotes 80–90%).

use fpcore::CmpOp;
use fpvm::{Addr, Machine, MachineError, Program, Tracer, Value};
use std::collections::BTreeMap;

/// The report of the discrete-factor heuristic.
#[derive(Clone, Debug, Default)]
pub struct BzReport {
    /// For each branch statement: (evaluations, flagged evaluations).
    pub per_branch: BTreeMap<usize, (u64, u64)>,
    /// For each float→int conversion: (evaluations, flagged evaluations).
    pub per_conversion: BTreeMap<usize, (u64, u64)>,
}

impl BzReport {
    /// Total number of flagged evaluations.
    pub fn flagged_evaluations(&self) -> u64 {
        self.per_branch
            .values()
            .chain(self.per_conversion.values())
            .map(|(_, f)| f)
            .sum()
    }
}

/// The detector itself: a [`Tracer`] with no shadow state.
#[derive(Clone, Debug)]
pub struct BzDetector {
    /// Relative closeness below which a comparison is considered at risk.
    pub relative_tolerance: f64,
    report: BzReport,
}

impl Default for BzDetector {
    fn default() -> Self {
        BzDetector {
            // A deliberately generous tolerance: the tool is meant to
            // over-approximate so that a high-precision re-run can confirm.
            relative_tolerance: 1e-10,
            report: BzReport::default(),
        }
    }
}

impl BzDetector {
    /// Creates a detector with the default tolerance.
    pub fn new() -> BzDetector {
        BzDetector::default()
    }

    /// The accumulated report.
    pub fn report(&self) -> &BzReport {
        &self.report
    }

    /// Runs a program over a set of inputs and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn analyze(program: &Program, inputs: &[Vec<f64>]) -> Result<BzReport, MachineError> {
        let mut detector = BzDetector::new();
        let machine = Machine::new(program);
        for input in inputs {
            machine.run_traced(input, &mut detector)?;
        }
        Ok(detector.report.clone())
    }
}

impl Tracer for BzDetector {
    fn on_branch(
        &mut self,
        pc: usize,
        _cmp: CmpOp,
        _lhs: Addr,
        _rhs: Addr,
        lhs_value: Value,
        rhs_value: Value,
        _taken: bool,
    ) {
        let a = lhs_value.as_f64();
        let b = rhs_value.as_f64();
        let scale = a.abs().max(b.abs());
        let close = scale > 0.0 && (a - b).abs() <= scale * self.relative_tolerance;
        let entry = self.report.per_branch.entry(pc).or_insert((0, 0));
        entry.0 += 1;
        if close {
            entry.1 += 1;
        }
    }

    fn on_cast_to_int(&mut self, pc: usize, _dest: Addr, _src: Addr, value: f64, result: i64) {
        // Flag conversions whose input sits within a rounding error of the
        // next integer boundary.
        let distance = (value - result as f64)
            .abs()
            .min((value - (result + value.signum() as i64) as f64).abs());
        let close = distance <= value.abs().max(1.0) * self.relative_tolerance;
        let entry = self.report.per_conversion.entry(pc).or_insert((0, 0));
        entry.0 += 1;
        if close {
            entry.1 += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::parse_core;
    use fpvm::compile_core;

    #[test]
    fn near_boundary_branches_are_flagged() {
        // The PID-controller loop compares an accumulated 0.2-increment
        // counter with the bound; near the bound the operands are within
        // rounding distance.
        let core = parse_core("(FPCore (n) (while (< t n) ((t 0 (+ t 0.2))) t))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let report = BzDetector::analyze(&program, &[vec![10.0]]).unwrap();
        assert!(report.flagged_evaluations() > 0, "{report:?}");
    }

    #[test]
    fn well_separated_branches_are_not_flagged() {
        let core = parse_core("(FPCore (x) (if (< x 100) 1 2))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let report = BzDetector::analyze(&program, &[vec![3.0], vec![200.0]]).unwrap();
        assert_eq!(report.flagged_evaluations(), 0);
    }

    #[test]
    fn heuristic_produces_false_positives() {
        // Two exactly equal computed values compare equal reliably — there is
        // no actual instability — yet the heuristic flags the comparison.
        let core = parse_core("(FPCore (x) (if (== (* x 2) (+ x x)) 1 2))").unwrap();
        let program = compile_core(&core, Default::default()).unwrap();
        let report = BzDetector::analyze(&program, &[vec![1.5]]).unwrap();
        assert!(report.flagged_evaluations() > 0);
    }
}
