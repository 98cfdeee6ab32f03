//! Per-statement analysis records: operation entries and spot entries
//! (Figure 3 of the paper: `ops[pc]` and `spots[pc]`).

use crate::config::AnalysisConfig;
use crate::errsum::ErrorBitsSum;
use crate::inputs::InputCharacteristics;
use crate::symbolic::Generalizer;
use crate::trace::ConcreteExpr;
use fpvm::SourceLoc;
use shadowreal::RealOp;
use std::sync::Arc;

/// How many influences an [`InfluenceSet`] holds inline before spilling to
/// the heap. Most shadow values are influenced by zero or a handful of
/// candidate root causes, so the per-op union/propagation traffic stays
/// allocation-free and branch-cheap.
const INLINE_INFLUENCES: usize = 8;

/// The set of candidate-root-cause statements (program counters) that
/// influence a value — the "taint" of the influences analysis (§4.2).
///
/// Stored as a sorted, deduplicated sequence with small-vector storage: up
/// to `INLINE_INFLUENCES` entries live inline (no allocation — the common
/// case on the per-op propagation path), larger sets spill to a heap
/// vector. Iteration order is ascending, exactly the order the previous
/// `BTreeSet` representation produced, so record merges and reports are
/// bit-identical to it.
///
/// The spill vector sits behind an `Arc` with copy-on-write mutation, so
/// cloning a spilled set — the `on_copy` path shares whole shadows per
/// client copy instruction — is a reference-count bump, not a heap copy.
/// Mutations detach ([`Arc::make_mut`]) only when the storage is actually
/// shared.
///
/// An inline set owns no `Arc` at all (`spill` is `None`, which costs no
/// space: the `Option` uses the pointer's niche), so creating, cloning,
/// clearing and dropping it is plain memory traffic. The per-op path builds
/// and drops several sets per analyzed op, and a reference count shared
/// between sets of different thread shards would bounce one cache line
/// between their cores on every one of them.
#[derive(Clone)]
pub struct InfluenceSet {
    /// Number of inline entries; meaningful only while the set has not
    /// spilled.
    len: usize,
    inline: [usize; INLINE_INFLUENCES],
    /// Heap storage: non-empty iff the set has spilled. An exclusively
    /// owned buffer stays here, empty, across `clear`, so a reused set
    /// spills again without reallocating.
    spill: Option<Arc<Vec<usize>>>,
}

impl InfluenceSet {
    /// Creates an empty set.
    pub fn new() -> InfluenceSet {
        InfluenceSet {
            len: 0,
            inline: [0; INLINE_INFLUENCES],
            spill: None,
        }
    }

    /// The influences as a sorted, deduplicated slice.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        match &self.spill {
            Some(spill) if !spill.is_empty() => spill,
            _ => &self.inline[..self.len],
        }
    }

    /// True once the entries live in the spill vector.
    fn has_spilled(&self) -> bool {
        self.spill.as_ref().is_some_and(|spill| !spill.is_empty())
    }

    /// Number of influences in the set.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True if `value` is in the set.
    pub fn contains(&self, value: &usize) -> bool {
        self.as_slice().binary_search(value).is_ok()
    }

    /// Iterates the influences in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, usize> {
        self.as_slice().iter()
    }

    /// Inserts `value`, keeping the storage sorted and deduplicated.
    /// Returns true if the value was not present.
    pub fn insert(&mut self, value: usize) -> bool {
        if !self.has_spilled() {
            match self.inline[..self.len].binary_search(&value) {
                Ok(_) => false,
                Err(pos) => {
                    if self.len < INLINE_INFLUENCES {
                        self.inline.copy_within(pos..self.len, pos + 1);
                        self.inline[pos] = value;
                        self.len += 1;
                    } else {
                        // Spill: move the inline entries to the heap (an
                        // exclusively-owned buffer's capacity survives
                        // `clear`, so a reused set spills without
                        // reallocating).
                        let spill = spill_mut(&mut self.spill);
                        spill.extend_from_slice(&self.inline);
                        spill.insert(pos, value);
                        self.len = 0;
                    }
                    true
                }
            }
        } else {
            match self.as_slice().binary_search(&value) {
                Ok(_) => false,
                Err(pos) => {
                    spill_mut(&mut self.spill).insert(pos, value);
                    true
                }
            }
        }
    }

    /// Empties the set, keeping exclusively-owned heap capacity for reuse;
    /// shared spill storage is released to its other owners instead.
    pub fn clear(&mut self) {
        self.len = 0;
        if let Some(spill) = &mut self.spill {
            match Arc::get_mut(spill) {
                Some(vec) => vec.clear(),
                None => self.spill = None,
            }
        }
    }

    /// Unions another set into this one with a single linear merge of the
    /// two sorted sequences — the hot influence-propagation path unions
    /// whole sets per operand, where per-element insertion would shift the
    /// storage once per element.
    pub fn union_with(&mut self, other: &InfluenceSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        let b = other.as_slice();
        // Fast path: `other` extends strictly beyond our maximum (common
        // when influences accumulate from monotonically increasing pcs).
        let a_last = *self.as_slice().last().expect("non-empty");
        if b[0] > a_last {
            if !self.has_spilled() && self.len + b.len() <= INLINE_INFLUENCES {
                self.inline[self.len..self.len + b.len()].copy_from_slice(b);
                self.len += b.len();
            } else {
                let spill = spill_mut(&mut self.spill);
                if spill.is_empty() {
                    spill.extend_from_slice(&self.inline[..self.len]);
                    self.len = 0;
                }
                spill.extend_from_slice(b);
            }
            return;
        }
        let a_inline = self.inline;
        let a_vec = self.spill.take();
        let a = match &a_vec {
            Some(spill) if !spill.is_empty() => &spill[..],
            _ => &a_inline[..self.len],
        };
        if a.len() + b.len() <= INLINE_INFLUENCES {
            let mut out = [0usize; INLINE_INFLUENCES];
            self.len = merge_sorted_dedup(a, b, |n, v| out[n] = v);
            self.inline = out;
        } else {
            let mut out = Vec::with_capacity(a.len() + b.len());
            merge_sorted_dedup(a, b, |_, v| out.push(v));
            self.len = 0;
            self.spill = Some(Arc::new(out));
        }
    }
}

/// A set's spill vector for writing: created on the first spill, and
/// detached from its other owners ([`Arc::make_mut`]) before the write.
fn spill_mut(spill: &mut Option<Arc<Vec<usize>>>) -> &mut Vec<usize> {
    Arc::make_mut(spill.get_or_insert_with(Default::default))
}

/// Merges two sorted, deduplicated slices, emitting each element once in
/// ascending order through `emit(index, value)`; returns the merged length.
fn merge_sorted_dedup(a: &[usize], b: &[usize], mut emit: impl FnMut(usize, usize)) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let value = match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                let v = a[i];
                i += 1;
                v
            }
            std::cmp::Ordering::Greater => {
                let v = b[j];
                j += 1;
                v
            }
            std::cmp::Ordering::Equal => {
                let v = a[i];
                i += 1;
                j += 1;
                v
            }
        };
        emit(n, value);
        n += 1;
    }
    for &v in &a[i..] {
        emit(n, v);
        n += 1;
    }
    for &v in &b[j..] {
        emit(n, v);
        n += 1;
    }
    n
}

impl Default for InfluenceSet {
    fn default() -> Self {
        InfluenceSet::new()
    }
}

impl PartialEq for InfluenceSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for InfluenceSet {}

impl std::fmt::Debug for InfluenceSet {
    /// Renders like the set it is (`{3, 7}`), matching the previous
    /// `BTreeSet` representation's output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for InfluenceSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for value in iter {
            self.insert(value);
        }
    }
}

impl<const N: usize> From<[usize; N]> for InfluenceSet {
    fn from(values: [usize; N]) -> Self {
        let mut set = InfluenceSet::new();
        set.extend(values);
        set
    }
}

impl<'a> IntoIterator for &'a InfluenceSet {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The kind of a spot (§4.2): a place where floating-point error becomes
/// observable program behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpotKind {
    /// A program output.
    Output,
    /// A conditional branch whose predicate reads floating-point values.
    Branch,
    /// A conversion from a floating-point value to an integer.
    FloatToInt,
}

impl SpotKind {
    /// The label used in reports ("Output", "Compare", "Convert"), matching
    /// the paper's report format.
    pub fn label(self) -> &'static str {
        match self {
            SpotKind::Output => "Output",
            SpotKind::Branch => "Compare",
            SpotKind::FloatToInt => "Convert",
        }
    }
}

/// The accumulated record for one spot.
#[derive(Clone, Debug)]
pub struct SpotRecord {
    /// What kind of spot this is.
    pub kind: SpotKind,
    /// Source location of the statement.
    pub location: SourceLoc,
    /// Number of times the spot executed.
    pub total: u64,
    /// Number of executions on which the spot was erroneous: output error
    /// above the threshold, branch divergence, or integer divergence.
    pub erroneous: u64,
    /// Maximum error observed (bits, for outputs; divergences count as the
    /// maximum error for branches/conversions).
    pub max_error: f64,
    /// Sum of observed errors (for the average), accumulated exactly so that
    /// shard-merged records equal serially accumulated ones bit for bit.
    pub total_error: ErrorBitsSum,
    /// Candidate root causes whose influence reached this spot on an
    /// erroneous execution.
    pub influences: InfluenceSet,
}

impl SpotRecord {
    /// Creates an empty record.
    pub fn new(kind: SpotKind, location: SourceLoc) -> SpotRecord {
        SpotRecord {
            kind,
            location,
            total: 0,
            erroneous: 0,
            max_error: 0.0,
            total_error: ErrorBitsSum::new(),
            influences: InfluenceSet::new(),
        }
    }

    /// Records one execution of the spot.
    pub fn record(&mut self, error_bits: f64, erroneous: bool, influences: &InfluenceSet) {
        self.total += 1;
        self.total_error.add(error_bits);
        if error_bits > self.max_error {
            self.max_error = error_bits;
        }
        if erroneous {
            self.erroneous += 1;
            self.influences.union_with(influences);
        }
    }

    /// Merges the record of a later input shard into this one. The combined
    /// record is identical to what serial accumulation over the concatenated
    /// inputs produces: every field is a count, an exact sum, a maximum, or a
    /// set union.
    pub fn merge(&mut self, other: &SpotRecord) {
        debug_assert_eq!(self.kind, other.kind, "merging records of different spots");
        self.total += other.total;
        self.erroneous += other.erroneous;
        self.total_error.merge(&other.total_error);
        if other.max_error > self.max_error {
            self.max_error = other.max_error;
        }
        self.influences.union_with(&other.influences);
    }

    /// The average error over all executions, in bits.
    pub fn average_error(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.total_error.total_bits() / self.total as f64
        }
    }
}

/// The accumulated record for one floating-point operation statement.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The operation.
    pub op: RealOp,
    /// Source location of the statement.
    pub location: SourceLoc,
    /// Number of times the operation executed.
    pub total: u64,
    /// Number of executions whose local error exceeded the threshold.
    pub erroneous: u64,
    /// Maximum local error observed, in bits.
    pub max_local_error: f64,
    /// Sum of local errors (for the average), accumulated exactly so that
    /// shard-merged records equal serially accumulated ones bit for bit.
    pub total_local_error: ErrorBitsSum,
    /// The incremental anti-unification state producing the symbolic
    /// expression for this operation.
    pub generalizer: Generalizer,
    /// Input characteristics for the symbolic expression's variables.
    pub characteristics: InputCharacteristics,
    /// An example concrete expression observed with high local error, kept
    /// for its leaf values ("Example problematic input" in reports).
    pub example_problematic: Option<Arc<ConcreteExpr>>,
}

impl OpRecord {
    /// Creates an empty record.
    pub fn new(op: RealOp, location: SourceLoc, config: &AnalysisConfig) -> OpRecord {
        OpRecord {
            op,
            location,
            total: 0,
            erroneous: 0,
            max_local_error: 0.0,
            total_local_error: ErrorBitsSum::new(),
            generalizer: Generalizer::new(config.antiunify_equivalence_depth),
            characteristics: InputCharacteristics::default(),
            example_problematic: None,
        }
    }

    /// Records one execution of the operation.
    pub fn record(
        &mut self,
        concrete: &Arc<ConcreteExpr>,
        local_error: f64,
        erroneous: bool,
        config: &AnalysisConfig,
    ) {
        self.record_bounded(concrete, usize::MAX, local_error, erroneous, config);
    }

    /// Records one execution of the operation with the concrete trace viewed
    /// through a depth budget: equivalent to
    /// `record(&concrete.truncate_to_depth(max_depth), ...)` without
    /// materializing the truncation on the hot path. The flat analysis keeps
    /// deeper-than-reported traces in shadow memory (truncating only when
    /// its storage bound overflows) and records through this entry point;
    /// the truncated trace is only built when a problematic example is
    /// actually kept.
    pub fn record_bounded(
        &mut self,
        concrete: &Arc<ConcreteExpr>,
        max_depth: usize,
        local_error: f64,
        erroneous: bool,
        config: &AnalysisConfig,
    ) {
        let had_prior_erroneous = self.erroneous > 0;
        self.record_counts(local_error);
        if erroneous {
            self.erroneous += 1;
            if self.example_problematic.is_none() {
                self.example_problematic = Some(concrete.truncate_to_depth(max_depth));
            }
        }
        let assignments = self
            .generalizer
            .observe_bounded_scratch(concrete, max_depth);
        self.characteristics.apply_assignments(
            assignments,
            config.range_kind,
            erroneous,
            had_prior_erroneous,
        );
    }

    /// Records one execution that was not erroneous, updating only its
    /// counts: the execution count, the local-error sum and the maximum.
    ///
    /// A report reads a record's symbolic expression, input ranges and
    /// example only once the statement was erroneous, so a tiered sweep
    /// records the statements that cannot be erroneous this way and skips
    /// their anti-unification and input summaries.
    pub(crate) fn record_counts(&mut self, local_error: f64) {
        self.total += 1;
        self.total_local_error.add(local_error);
        if local_error > self.max_local_error {
            self.max_local_error = local_error;
        }
    }

    /// Merges the record of a later input shard into this one: counts, exact
    /// sums, maxima, and the example are combined directly; the two symbolic
    /// expressions are anti-unified ([`Generalizer::merge`]) and the input
    /// characteristics rewired along the merged variables
    /// ([`InputCharacteristics::merged`]). The result matches what serial
    /// accumulation over the concatenated input sweep produces.
    pub fn merge(&mut self, other: &OpRecord, config: &AnalysisConfig) {
        debug_assert_eq!(self.op, other.op, "merging records of different operations");
        let left_had_erroneous = self.erroneous > 0;
        let right_had_erroneous = other.erroneous > 0;
        self.total += other.total;
        self.erroneous += other.erroneous;
        self.total_local_error.merge(&other.total_local_error);
        if other.max_local_error > self.max_local_error {
            self.max_local_error = other.max_local_error;
        }
        if self.example_problematic.is_none() {
            self.example_problematic = other.example_problematic.clone();
        }
        let assignments = self.generalizer.merge(&other.generalizer);
        self.characteristics = InputCharacteristics::merged(
            &self.characteristics,
            &other.characteristics,
            &assignments,
            config.range_kind,
            left_had_erroneous,
            right_had_erroneous,
        );
    }

    /// The average local error over all executions, in bits.
    pub fn average_local_error(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.total_local_error.total_bits() / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;

    #[test]
    fn influence_set_stays_sorted_through_spill_and_clear() {
        let mut set = InfluenceSet::new();
        // Descending inserts up to the inline capacity stay sorted.
        for pc in (0..INLINE_INFLUENCES).rev() {
            assert!(set.insert(pc * 2));
            assert!(!set.insert(pc * 2), "duplicate insert must be rejected");
        }
        assert_eq!(set.len(), INLINE_INFLUENCES);
        assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]));
        // The spilling insert and further growth keep order and dedup.
        assert!(set.insert(1));
        assert!(set.insert(1000));
        assert!(!set.insert(1000));
        assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(set.len(), INLINE_INFLUENCES + 2);
        assert!(set.contains(&1) && set.contains(&1000) && !set.contains(&3));
        // Clearing returns to inline mode.
        set.clear();
        assert!(set.is_empty());
        set.insert(5);
        assert_eq!(set.as_slice(), &[5]);
        // Equality and Debug go through the logical contents.
        assert_eq!(set, InfluenceSet::from([5usize]));
        assert_eq!(format!("{set:?}"), "{5}");
    }

    /// The spill vector of a set that has spilled.
    fn spill_of(set: &InfluenceSet) -> &Arc<Vec<usize>> {
        set.spill.as_ref().expect("set should have spilled")
    }

    #[test]
    fn cloned_spilled_sets_share_storage_until_mutated() {
        let mut set = InfluenceSet::new();
        for pc in 0..2 * INLINE_INFLUENCES {
            set.insert(pc);
        }
        assert!(!spill_of(&set).is_empty(), "set should have spilled");
        // The clone is a reference-count bump on the same spill vector.
        let mut copy = set.clone();
        assert!(Arc::ptr_eq(spill_of(&set), spill_of(&copy)));
        assert_eq!(set, copy);
        // Mutating the clone detaches it (copy-on-write) without touching
        // the original.
        copy.insert(1_000);
        assert!(!Arc::ptr_eq(spill_of(&set), spill_of(&copy)));
        assert!(copy.contains(&1_000) && !set.contains(&1_000));
        assert_eq!(set.len(), 2 * INLINE_INFLUENCES);
        // Clearing a still-shared set releases the storage to the other
        // owner rather than wiping it.
        let third = set.clone();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(third.len(), 2 * INLINE_INFLUENCES);
    }

    #[test]
    fn inline_sets_own_no_shared_storage() {
        // The `Option` costs no space: it uses the pointer's niche.
        assert_eq!(
            std::mem::size_of::<Option<Arc<Vec<usize>>>>(),
            std::mem::size_of::<Arc<Vec<usize>>>()
        );
        let mut set = InfluenceSet::new();
        assert!(set.spill.is_none(), "new");
        set.extend([3, 9]);
        assert!(set.clone().spill.is_none(), "clone");
        // Unions that fit inline: into an empty set, the append fast path,
        // and the merge path.
        let mut union = InfluenceSet::new();
        union.union_with(&set);
        assert!(union.spill.is_none(), "union into an empty set");
        union.union_with(&InfluenceSet::from([10usize, 11]));
        assert!(union.spill.is_none(), "appending union");
        union.union_with(&InfluenceSet::from([1usize, 4, 5, 12]));
        assert_eq!(union.len(), INLINE_INFLUENCES);
        assert!(union.spill.is_none(), "merging union");
        union.clear();
        assert!(union.is_empty() && union.spill.is_none(), "clear");

        // Clearing a shared spilled set releases the storage to its other
        // owner.
        let mut spilled = InfluenceSet::new();
        spilled.extend(0..2 * INLINE_INFLUENCES);
        let owner = spilled.clone();
        spilled.clear();
        assert!(spilled.is_empty() && spilled.spill.is_none());
        assert_eq!(owner.len(), 2 * INLINE_INFLUENCES);
        // Clearing an exclusively owned one keeps its buffer and capacity,
        // so the set spills into it again without reallocating.
        let mut owned = owner;
        let buffer = Arc::as_ptr(spill_of(&owned));
        owned.clear();
        assert!(owned.is_empty());
        assert!(spill_of(&owned).capacity() >= 2 * INLINE_INFLUENCES);
        owned.extend(0..2 * INLINE_INFLUENCES);
        assert_eq!(Arc::as_ptr(spill_of(&owned)), buffer);
        assert_eq!(owned.len(), 2 * INLINE_INFLUENCES);
    }

    #[test]
    fn union_with_matches_per_element_insertion() {
        // Exercise every storage combination: inline/inline fitting inline,
        // inline/inline spilling, spilled/inline, overlapping, disjoint,
        // append-beyond-max fast path, and empty operands.
        let cases: &[(&[usize], &[usize])] = &[
            (&[], &[1, 5]),
            (&[1, 5], &[]),
            (&[1, 3, 5], &[2, 3, 8]),
            (&[1, 2, 3], &[7, 8, 9]),
            (&[1, 2, 3, 4, 5, 6], &[4, 5, 6, 7, 8, 9, 10]),
            (&[10, 20, 30, 40, 50, 60, 70, 80], &[5, 35, 85, 90, 95]),
            (&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], &[2, 4, 6, 8, 10, 12]),
        ];
        for &(a, b) in cases {
            let mut merged = InfluenceSet::new();
            merged.extend(a.iter().copied());
            let mut by_insert = merged.clone();
            let mut other = InfluenceSet::new();
            other.extend(b.iter().copied());
            merged.union_with(&other);
            by_insert.extend(b.iter().copied());
            assert_eq!(merged, by_insert, "{a:?} ∪ {b:?}");
            assert!(merged.as_slice().windows(2).all(|w| w[0] < w[1]));
            // The union must stay usable afterwards (invariants intact).
            merged.insert(0);
            assert_eq!(merged.as_slice()[0], 0);
        }
    }

    #[test]
    fn spot_record_accumulates_errors_and_influences() {
        let mut s = SpotRecord::new(SpotKind::Output, SourceLoc::default());
        let mut inf = InfluenceSet::new();
        inf.insert(7);
        s.record(10.0, true, &inf);
        s.record(0.0, false, &InfluenceSet::from([3usize]));
        assert_eq!(s.total, 2);
        assert_eq!(s.erroneous, 1);
        assert_eq!(s.max_error, 10.0);
        assert_eq!(s.average_error(), 5.0);
        // Influences from non-erroneous executions are not recorded.
        assert!(s.influences.contains(&7));
        assert!(!s.influences.contains(&3));
    }

    #[test]
    fn spot_kind_labels_match_report_format() {
        assert_eq!(SpotKind::Output.label(), "Output");
        assert_eq!(SpotKind::Branch.label(), "Compare");
        assert_eq!(SpotKind::FloatToInt.label(), "Convert");
    }

    #[test]
    fn op_record_builds_symbolic_expression_over_executions() {
        let config = AnalysisConfig::default();
        let mut rec = OpRecord::new(RealOp::Sub, SourceLoc::default(), &config);
        for x in [1.0_f64, 2.0, 3.0] {
            let leaf = ConcreteExpr::leaf(x);
            let one = ConcreteExpr::leaf(1.0);
            let node = ConcreteExpr::node(
                RealOp::Sub,
                x - 1.0,
                vec![leaf, one],
                0,
                SourceLoc::default(),
            );
            rec.record(&node, if x == 3.0 { 20.0 } else { 0.0 }, x == 3.0, &config);
        }
        assert_eq!(rec.total, 3);
        assert_eq!(rec.erroneous, 1);
        assert_eq!(rec.max_local_error, 20.0);
        let sym = rec.generalizer.current().unwrap();
        assert_eq!(sym.variable_count(), 1);
        assert!(rec.example_problematic.is_some());
        // Characteristics recorded both total and problematic values.
        assert_eq!(rec.characteristics.total.len(), 1);
    }

    #[test]
    fn op_record_average_local_error() {
        let config = AnalysisConfig::default();
        let mut rec = OpRecord::new(RealOp::Add, SourceLoc::default(), &config);
        let node = ConcreteExpr::node(
            RealOp::Add,
            2.0,
            vec![ConcreteExpr::leaf(1.0), ConcreteExpr::leaf(1.0)],
            0,
            SourceLoc::default(),
        );
        rec.record(&node, 4.0, false, &config);
        rec.record(&node, 8.0, true, &config);
        assert_eq!(rec.average_local_error(), 6.0);
    }
}
