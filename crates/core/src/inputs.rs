//! Input characteristics (§4.4).
//!
//! For every symbolic expression, the analysis summarizes the values its
//! variables took: once over *all* executions of the operation, and once over
//! only the executions whose local error exceeded the threshold. The summary
//! is modular; the three kinds shipped with Herbgrind are reproduced here as
//! [`RangeKind`] configurations of a single incremental [`VariableSummary`].

use crate::config::RangeKind;
use crate::symbolic::{MergeAssignment, MergeOrigin, VarAssignment, VarOrigin};
use std::collections::BTreeMap;

/// An incrementally maintained summary of the values one variable has taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VariableSummary {
    /// Number of recorded values.
    pub count: u64,
    /// A representative example value (the first one recorded).
    pub example: Option<f64>,
    /// Minimum over all values (when ranges are tracked).
    pub min: Option<f64>,
    /// Maximum over all values (when ranges are tracked).
    pub max: Option<f64>,
    /// Minimum over negative values only (when sign-split ranges are tracked).
    pub neg_min: Option<f64>,
    /// Maximum over negative values only.
    pub neg_max: Option<f64>,
    /// Minimum over positive values only.
    pub pos_min: Option<f64>,
    /// Maximum over positive values only.
    pub pos_max: Option<f64>,
}

fn merge_min(slot: &mut Option<f64>, value: f64) {
    *slot = Some(match *slot {
        Some(cur) => cur.min(value),
        None => value,
    });
}

fn merge_max(slot: &mut Option<f64>, value: f64) {
    *slot = Some(match *slot {
        Some(cur) => cur.max(value),
        None => value,
    });
}

impl VariableSummary {
    /// Records one observed value.
    pub fn record(&mut self, value: f64, kind: RangeKind) {
        self.count += 1;
        if self.example.is_none() {
            self.example = Some(value);
        }
        if value.is_nan() {
            return;
        }
        match kind {
            RangeKind::None => {}
            RangeKind::Single => {
                merge_min(&mut self.min, value);
                merge_max(&mut self.max, value);
            }
            RangeKind::SignSplit => {
                merge_min(&mut self.min, value);
                merge_max(&mut self.max, value);
                if value < 0.0 {
                    merge_min(&mut self.neg_min, value);
                    merge_max(&mut self.neg_max, value);
                } else {
                    merge_min(&mut self.pos_min, value);
                    merge_max(&mut self.pos_max, value);
                }
            }
        }
    }

    /// Merges another summary into this one (used when a variable inherits
    /// the history of the variable or constant it generalized).
    pub fn merge(&mut self, other: &VariableSummary) {
        self.count += other.count;
        if self.example.is_none() {
            self.example = other.example;
        }
        for (mine, theirs) in [
            (&mut self.min, other.min),
            (&mut self.neg_min, other.neg_min),
            (&mut self.pos_min, other.pos_min),
        ] {
            if let Some(v) = theirs {
                merge_min(mine, v);
            }
        }
        for (mine, theirs) in [
            (&mut self.max, other.max),
            (&mut self.neg_max, other.neg_max),
            (&mut self.pos_max, other.pos_max),
        ] {
            if let Some(v) = theirs {
                merge_max(mine, v);
            }
        }
    }

    /// The precondition clauses this summary contributes for a variable named
    /// `name`, as FPCore text fragments (used in the `:pre` of reports).
    pub fn precondition_clauses(&self, name: &str, kind: RangeKind) -> Vec<String> {
        match kind {
            RangeKind::None => Vec::new(),
            RangeKind::Single => match (self.min, self.max) {
                (Some(lo), Some(hi)) => vec![format!("(<= {lo:e} {name} {hi:e})")],
                _ => Vec::new(),
            },
            RangeKind::SignSplit => {
                let mut clauses = Vec::new();
                if let (Some(lo), Some(hi)) = (self.neg_min, self.neg_max) {
                    clauses.push(format!("(<= {lo:e} {name} {hi:e})"));
                }
                if let (Some(lo), Some(hi)) = (self.pos_min, self.pos_max) {
                    clauses.push(format!("(<= {lo:e} {name} {hi:e})"));
                }
                if clauses.len() == 2 {
                    // Negative and positive bands are alternatives.
                    vec![format!("(or {} {})", clauses[0], clauses[1])]
                } else if clauses.len() == 1 {
                    clauses
                } else if let (Some(lo), Some(hi)) = (self.min, self.max) {
                    vec![format!("(<= {lo:e} {name} {hi:e})")]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

/// The per-expression input characteristics: one summary per variable, for
/// all executions and for high-local-error executions separately (§4.4: "one
/// for all inputs that the expression is called on, and one for all inputs
/// that it has high error on").
#[derive(Clone, Debug, Default)]
pub struct InputCharacteristics {
    /// Summaries over every execution.
    pub total: BTreeMap<usize, VariableSummary>,
    /// Summaries over the executions with local error above the threshold.
    pub problematic: BTreeMap<usize, VariableSummary>,
}

impl InputCharacteristics {
    /// Rewires the summaries after an anti-unification pass: each variable of
    /// the new symbolic expression inherits the summary of its origin, then
    /// records the newly observed value.
    ///
    /// `erroneous` is whether the current execution exceeded the local-error
    /// threshold; `had_prior_erroneous` is whether *any earlier* execution of
    /// the operation did. The latter governs whether a constant position that
    /// just generalized contributes its constant to the problematic summary:
    /// the constant was the value at every earlier execution, so it belongs
    /// there exactly when one of those executions was erroneous. (Defining it
    /// this way — rather than by the erroneousness of the generalizing
    /// execution — is what makes the problematic ranges exactly mergeable
    /// across input shards; see [`InputCharacteristics::merged`].)
    pub fn apply_assignments(
        &mut self,
        assignments: &[VarAssignment],
        kind: RangeKind,
        erroneous: bool,
        had_prior_erroneous: bool,
    ) {
        if assignments.is_empty() {
            return;
        }
        if self.try_apply_in_place(assignments, kind, erroneous) {
            return;
        }
        let mut total = BTreeMap::new();
        let mut problematic = BTreeMap::new();
        for a in assignments {
            let mut summary = match &a.origin {
                VarOrigin::FromVar(prev) => self.total.get(prev).cloned().unwrap_or_default(),
                VarOrigin::FromConst(c) => {
                    let mut s = VariableSummary::default();
                    s.record(*c, kind);
                    s
                }
            };
            summary.record(a.value, kind);
            total.insert(a.var, summary);

            let mut prob = match &a.origin {
                VarOrigin::FromVar(prev) => self.problematic.get(prev).cloned(),
                VarOrigin::FromConst(c) if had_prior_erroneous => {
                    let mut s = VariableSummary::default();
                    s.record(*c, kind);
                    Some(s)
                }
                VarOrigin::FromConst(_) => None,
            };
            if erroneous {
                prob.get_or_insert_with(VariableSummary::default)
                    .record(a.value, kind);
            }
            if let Some(prob) = prob {
                problematic.insert(a.var, prob);
            }
        }
        self.total = total;
        self.problematic = problematic;
    }

    /// The steady-state fast path of
    /// [`InputCharacteristics::apply_assignments`]: once a generalization has
    /// saturated, every assignment keeps its variable (`FromVar(v)` with the
    /// same index `v`) and the assignment set covers exactly the tracked
    /// variables. Inheriting summaries is then the identity rewiring, so the
    /// new values can be recorded in place — no map rebuild, no summary
    /// clones, no allocation. Bit-identical to the rebuild: the inherited
    /// summaries are the existing entries, recording mutates them exactly as
    /// the rebuild records into their clones, and the key sets are unchanged
    /// (`problematic ⊆ total` is an invariant, so no stale problematic entry
    /// can survive that the rebuild would have dropped).
    ///
    /// Returns false (without touching anything) when any variable
    /// generalized this round, leaving the rebuild to handle inheritance.
    fn try_apply_in_place(
        &mut self,
        assignments: &[VarAssignment],
        kind: RangeKind,
        erroneous: bool,
    ) -> bool {
        if assignments.len() != self.total.len() {
            return false;
        }
        for a in assignments {
            match a.origin {
                VarOrigin::FromVar(prev) if prev == a.var => {}
                _ => return false,
            }
            if !self.total.contains_key(&a.var) {
                return false;
            }
        }
        for a in assignments {
            self.total
                .get_mut(&a.var)
                .expect("checked above")
                .record(a.value, kind);
            if erroneous {
                self.problematic
                    .entry(a.var)
                    .or_default()
                    .record(a.value, kind);
            }
        }
        true
    }

    /// Combines the characteristics of two input shards whose generalizers
    /// were just merged; `assignments` comes from
    /// [`crate::symbolic::Generalizer::merge`] and maps every variable of the
    /// merged symbolic expression to its origin on each side.
    ///
    /// `left_had_erroneous` / `right_had_erroneous` say whether the
    /// respective shard observed any erroneous execution of the operation:
    /// a position that stayed constant within a shard belongs in the merged
    /// problematic summary exactly when that shard had erroneous executions
    /// (its constant was the value at every one of them). The reported
    /// quantities — range endpoints and the example value — come out
    /// identical to what a single sequential pass over the concatenated
    /// inputs produces.
    pub fn merged(
        left: &InputCharacteristics,
        right: &InputCharacteristics,
        assignments: &[MergeAssignment],
        kind: RangeKind,
        left_had_erroneous: bool,
        right_had_erroneous: bool,
    ) -> InputCharacteristics {
        let mut out = InputCharacteristics::default();
        for a in assignments {
            let combine = |maps: [(&BTreeMap<usize, VariableSummary>, MergeOrigin, bool); 2]| {
                let mut summary: Option<VariableSummary> = None;
                for (map, origin, include_const) in maps {
                    let contribution = match origin {
                        MergeOrigin::Var(v) => map.get(&v).cloned(),
                        MergeOrigin::Const(c) if include_const => {
                            let mut s = VariableSummary::default();
                            s.record(c, kind);
                            Some(s)
                        }
                        MergeOrigin::Const(_) | MergeOrigin::Opaque | MergeOrigin::Absent => None,
                    };
                    if let Some(contribution) = contribution {
                        match &mut summary {
                            Some(s) => s.merge(&contribution),
                            None => summary = Some(contribution),
                        }
                    }
                }
                summary
            };
            if let Some(total) =
                combine([(&left.total, a.left, true), (&right.total, a.right, true)])
            {
                out.total.insert(a.var, total);
            }
            if let Some(problematic) = combine([
                (&left.problematic, a.left, left_had_erroneous),
                (&right.problematic, a.right, right_had_erroneous),
            ]) {
                out.problematic.insert(a.var, problematic);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_kind_tracks_only_examples() {
        let mut s = VariableSummary::default();
        s.record(3.0, RangeKind::None);
        s.record(-5.0, RangeKind::None);
        assert_eq!(s.example, Some(3.0));
        assert_eq!(s.count, 2);
        assert_eq!(s.min, None);
        assert!(s.precondition_clauses("x", RangeKind::None).is_empty());
    }

    #[test]
    fn single_range_tracks_min_and_max() {
        let mut s = VariableSummary::default();
        for v in [2.0, -7.0, 9.5, 0.0] {
            s.record(v, RangeKind::Single);
        }
        assert_eq!(s.min, Some(-7.0));
        assert_eq!(s.max, Some(9.5));
        let clauses = s.precondition_clauses("x", RangeKind::Single);
        assert_eq!(clauses.len(), 1);
        assert!(clauses[0].contains("x"));
    }

    #[test]
    fn sign_split_separates_bands() {
        let mut s = VariableSummary::default();
        for v in [2.0, -7.0, 9.5, -0.25] {
            s.record(v, RangeKind::SignSplit);
        }
        assert_eq!(s.neg_min, Some(-7.0));
        assert_eq!(s.neg_max, Some(-0.25));
        assert_eq!(s.pos_min, Some(2.0));
        assert_eq!(s.pos_max, Some(9.5));
        let clauses = s.precondition_clauses("x", RangeKind::SignSplit);
        assert_eq!(clauses.len(), 1);
        assert!(clauses[0].starts_with("(or "));
    }

    #[test]
    fn nan_values_do_not_poison_ranges() {
        let mut s = VariableSummary::default();
        s.record(f64::NAN, RangeKind::SignSplit);
        s.record(1.0, RangeKind::SignSplit);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.count, 2);
    }

    #[test]
    fn merge_combines_ranges() {
        let mut a = VariableSummary::default();
        a.record(1.0, RangeKind::Single);
        let mut b = VariableSummary::default();
        b.record(-4.0, RangeKind::Single);
        a.merge(&b);
        assert_eq!(a.min, Some(-4.0));
        assert_eq!(a.max, Some(1.0));
        assert_eq!(a.count, 2);
    }

    #[test]
    fn assignments_inherit_histories() {
        use crate::symbolic::{VarAssignment, VarOrigin};
        let mut chars = InputCharacteristics::default();
        // First generalization: a constant 3.0 position becomes variable 0
        // with new value 5.0. The earlier executions (which all held 3.0)
        // included an erroneous one, so 3.0 belongs in the problematic
        // summary alongside the new erroneous value.
        chars.apply_assignments(
            &[VarAssignment {
                var: 0,
                origin: VarOrigin::FromConst(3.0),
                value: 5.0,
            }],
            RangeKind::Single,
            true,
            true,
        );
        assert_eq!(chars.total[&0].min, Some(3.0));
        assert_eq!(chars.total[&0].max, Some(5.0));
        assert_eq!(chars.problematic[&0].count, 2);
        // Second pass: variable 0 persists with a new value 7.0, not erroneous.
        chars.apply_assignments(
            &[VarAssignment {
                var: 0,
                origin: VarOrigin::FromVar(0),
                value: 7.0,
            }],
            RangeKind::Single,
            false,
            true,
        );
        assert_eq!(chars.total[&0].max, Some(7.0));
        // The problematic summary did not absorb the non-erroneous value.
        assert_eq!(chars.problematic[&0].max, Some(5.0));
    }

    #[test]
    fn clean_history_constants_stay_out_of_problematic_summaries() {
        use crate::symbolic::{VarAssignment, VarOrigin};
        let mut chars = InputCharacteristics::default();
        // The constant 3.0 generalizes on an erroneous execution, but none of
        // the earlier executions (which held 3.0) were erroneous: only the
        // new value belongs in the problematic summary.
        chars.apply_assignments(
            &[VarAssignment {
                var: 0,
                origin: VarOrigin::FromConst(3.0),
                value: 5.0,
            }],
            RangeKind::Single,
            true,
            false,
        );
        assert_eq!(chars.total[&0].count, 2);
        assert_eq!(chars.problematic[&0].count, 1);
        assert_eq!(chars.problematic[&0].example, Some(5.0));
    }

    #[test]
    fn merged_characteristics_union_ranges_with_left_precedence() {
        use crate::symbolic::{MergeAssignment, MergeOrigin};
        // Left shard: variable 0 saw [1, 4] overall, [4, 4] on erroneous
        // executions. Right shard kept the position constant at 9.0 and had
        // erroneous executions.
        let mut left = InputCharacteristics::default();
        let mut l = VariableSummary::default();
        l.record(1.0, RangeKind::Single);
        l.record(4.0, RangeKind::Single);
        left.total.insert(0, l);
        let mut lp = VariableSummary::default();
        lp.record(4.0, RangeKind::Single);
        left.problematic.insert(0, lp);
        let right = InputCharacteristics::default();
        let merged = InputCharacteristics::merged(
            &left,
            &right,
            &[MergeAssignment {
                var: 0,
                left: MergeOrigin::Var(0),
                right: MergeOrigin::Const(9.0),
            }],
            RangeKind::Single,
            true,
            true,
        );
        assert_eq!(merged.total[&0].min, Some(1.0));
        assert_eq!(merged.total[&0].max, Some(9.0));
        assert_eq!(merged.total[&0].example, Some(1.0));
        assert_eq!(merged.problematic[&0].min, Some(4.0));
        assert_eq!(merged.problematic[&0].max, Some(9.0));
        // A right shard with no erroneous executions keeps its constant out
        // of the problematic summary.
        let clean = InputCharacteristics::merged(
            &left,
            &right,
            &[MergeAssignment {
                var: 0,
                left: MergeOrigin::Var(0),
                right: MergeOrigin::Const(9.0),
            }],
            RangeKind::Single,
            true,
            false,
        );
        assert_eq!(clean.problematic[&0].max, Some(4.0));
    }
}
