//! Concrete expression traces (§4.3).
//!
//! Every floating-point value carries a *concrete expression*: the tree of
//! floating-point operations that produced it, with copies through memory
//! and data structures elided. Nodes are reference-counted and shared
//! between shadow values, exactly as the paper's implementation shares trace
//! nodes between copies (§6 "Sharing").
//!
//! Two layers of sharing keep the tracing hot path cheap:
//!
//! * the most common constant leaves (`0.0`, `1.0`, `-1.0`, `2.0`) are
//!   process-wide statics, so constant-heavy programs never allocate for
//!   them;
//! * an [`ExprInterner`] hash-conses nodes per analysis shard, so repeated
//!   subtraces share one allocation and structural comparison can use
//!   pointer-identity fast paths before walking subtrees.

use fpvm::SourceLoc;
use shadowreal::{RealOp, MAX_ARITY};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A node in a concrete expression trace.
#[derive(Clone, Debug)]
pub enum ConcreteExpr {
    /// A value that was not produced by a tracked floating-point operation:
    /// a program input, a constant, or an integer-derived value.
    Leaf {
        /// The double value observed.
        value: f64,
    },
    /// A floating-point operation.
    Node {
        /// The operation.
        op: RealOp,
        /// The double value the client computed here.
        value: f64,
        /// The operand traces, stored inline (arity is bounded by
        /// [`MAX_ARITY`], so a heap vector per node — one node per executed
        /// operation — would be pure allocator traffic).
        children: TraceChildren,
        /// The statement (program counter) that executed the operation.
        pc: usize,
        /// The source location of that statement, reference-counted: one
        /// trace node is built per executed operation, and cloning the
        /// location's strings into every node used to be the single largest
        /// allocation source on the tracing hot path (two heap strings per
        /// node, again on every truncation). The analysis interns each
        /// statement's location once and nodes share it.
        loc: Arc<SourceLoc>,
        /// Cached depth in operation nodes (`1 + max(children)`), stored at
        /// construction so depth-bounded truncation is O(1) per node instead
        /// of a repeated walk — which is exponential on traces with heavy
        /// sharing.
        depth: usize,
    },
}

/// A node's operand traces, stored inline. [`RealOp`] arity is bounded by
/// [`MAX_ARITY`] (3), so the operands fit in the node itself; the previous
/// `Vec` representation cost one heap allocation per traced operation.
/// Dereferences to `[Arc<ConcreteExpr>]`, so all slice operations work
/// directly.
#[derive(Clone, Debug)]
pub enum TraceChildren {
    /// No operands (not produced by any current operation; kept for
    /// totality).
    Zero,
    /// A unary operation's operand.
    One([Arc<ConcreteExpr>; 1]),
    /// A binary operation's operands.
    Two([Arc<ConcreteExpr>; 2]),
    /// A ternary operation's operands (`fma`).
    Three([Arc<ConcreteExpr>; 3]),
}

impl TraceChildren {
    /// Builds the inline operand storage from borrowed operand traces — the
    /// hot-path constructor, cloning each `Arc` straight into place with no
    /// intermediate vector.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_ARITY`] operands are supplied.
    pub fn from_refs(children: &[&Arc<ConcreteExpr>]) -> TraceChildren {
        match children {
            [] => TraceChildren::Zero,
            [a] => TraceChildren::One([Arc::clone(a)]),
            [a, b] => TraceChildren::Two([Arc::clone(a), Arc::clone(b)]),
            [a, b, c] => TraceChildren::Three([Arc::clone(a), Arc::clone(b), Arc::clone(c)]),
            _ => panic!("operation arity exceeds MAX_ARITY"),
        }
    }
}

impl std::ops::Deref for TraceChildren {
    type Target = [Arc<ConcreteExpr>];
    fn deref(&self) -> &[Arc<ConcreteExpr>] {
        match self {
            TraceChildren::Zero => &[],
            TraceChildren::One(children) => children,
            TraceChildren::Two(children) => children,
            TraceChildren::Three(children) => children,
        }
    }
}

impl FromIterator<Arc<ConcreteExpr>> for TraceChildren {
    fn from_iter<I: IntoIterator<Item = Arc<ConcreteExpr>>>(iter: I) -> TraceChildren {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next(), iter.next()) {
            (None, _, _) => TraceChildren::Zero,
            (Some(a), None, _) => TraceChildren::One([a]),
            (Some(a), Some(b), None) => TraceChildren::Two([a, b]),
            (Some(a), Some(b), Some(c)) => {
                assert!(iter.next().is_none(), "operation arity exceeds MAX_ARITY");
                TraceChildren::Three([a, b, c])
            }
        }
    }
}

impl From<Vec<Arc<ConcreteExpr>>> for TraceChildren {
    fn from(children: Vec<Arc<ConcreteExpr>>) -> TraceChildren {
        children.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a TraceChildren {
    type Item = &'a Arc<ConcreteExpr>;
    type IntoIter = std::slice::Iter<'a, Arc<ConcreteExpr>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The four constant leaves worth caching process-wide: loop counters,
/// comparisons and polynomial evaluation make `0.0`, `1.0`, `-1.0` and `2.0`
/// by far the most common constants in traced programs.
fn cached_constant(bits: u64) -> Option<&'static Arc<ConcreteExpr>> {
    static CACHE: OnceLock<[(u64, Arc<ConcreteExpr>); 4]> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        [0.0f64, 1.0, -1.0, 2.0]
            .map(|value| (value.to_bits(), Arc::new(ConcreteExpr::Leaf { value })))
    });
    cache.iter().find(|(b, _)| *b == bits).map(|(_, leaf)| leaf)
}

impl ConcreteExpr {
    /// Creates a leaf node. The common constants (`0.0`, `1.0`, `-1.0`,
    /// `2.0`) are served from a process-wide cache and never allocate.
    pub fn leaf(value: f64) -> Arc<ConcreteExpr> {
        if let Some(cached) = cached_constant(value.to_bits()) {
            return Arc::clone(cached);
        }
        Arc::new(ConcreteExpr::Leaf { value })
    }

    /// Creates an operation node. The location is accepted as either an
    /// owned [`SourceLoc`] (wrapped once) or an already-shared
    /// `Arc<SourceLoc>` (the allocation-free hot path).
    pub fn node(
        op: RealOp,
        value: f64,
        children: impl Into<TraceChildren>,
        pc: usize,
        loc: impl Into<Arc<SourceLoc>>,
    ) -> Arc<ConcreteExpr> {
        Arc::new(ConcreteExpr::node_value(
            op,
            value,
            children.into(),
            pc,
            loc.into(),
        ))
    }

    /// Builds the node value itself (depth included) without boxing it into
    /// an `Arc`, so [`ExprInterner`] can place it into a recycled allocation.
    fn node_value(
        op: RealOp,
        value: f64,
        children: TraceChildren,
        pc: usize,
        loc: Arc<SourceLoc>,
    ) -> ConcreteExpr {
        let depth = 1 + children.iter().map(|c| c.depth()).max().unwrap_or(0);
        ConcreteExpr::Node {
            op,
            value,
            children,
            pc,
            loc,
            depth,
        }
    }

    /// The double value at this node.
    pub fn value(&self) -> f64 {
        match self {
            ConcreteExpr::Leaf { value } | ConcreteExpr::Node { value, .. } => *value,
        }
    }

    /// True if this is a leaf (input/constant) node.
    pub fn is_leaf(&self) -> bool {
        matches!(self, ConcreteExpr::Leaf { .. })
    }

    /// The depth of the trace in operation nodes (a leaf has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            ConcreteExpr::Leaf { .. } => 0,
            ConcreteExpr::Node { depth, .. } => *depth,
        }
    }

    /// The number of operation nodes in the trace.
    pub fn operation_count(&self) -> usize {
        match self {
            ConcreteExpr::Leaf { .. } => 0,
            ConcreteExpr::Node { children, .. } => {
                1 + children.iter().map(|c| c.operation_count()).sum::<usize>()
            }
        }
    }

    /// Returns a copy of the trace truncated to at most `max_depth` levels of
    /// operations; subtrees below the cut become leaves holding their value.
    ///
    /// This implements the maximum-expression-depth knob of Figures 5c/5d: a
    /// depth of 1 keeps only the top operation.
    pub fn truncate_to_depth(self: &Arc<ConcreteExpr>, max_depth: usize) -> Arc<ConcreteExpr> {
        if max_depth == 0 {
            return ConcreteExpr::leaf(self.value());
        }
        match self.as_ref() {
            ConcreteExpr::Leaf { .. } => Arc::clone(self),
            ConcreteExpr::Node {
                op,
                value,
                children,
                pc,
                loc,
                depth,
            } => {
                if *depth <= max_depth {
                    return Arc::clone(self);
                }
                let truncated: TraceChildren = children
                    .iter()
                    .map(|c| c.truncate_to_depth(max_depth - 1))
                    .collect();
                ConcreteExpr::node(*op, *value, truncated, *pc, Arc::clone(loc))
            }
        }
    }

    /// Structural equality bounded to `depth` levels (used by the
    /// approximate anti-unification of §6.1). Values are compared by bit
    /// pattern so that NaNs compare equal to themselves.
    ///
    /// Pointer-identical nodes — the common case once traces are
    /// hash-consed — short-circuit to `true` without walking the subtree.
    pub fn equivalent_to_depth(&self, other: &ConcreteExpr, depth: usize) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        if depth == 0 {
            return true;
        }
        match (self, other) {
            (ConcreteExpr::Leaf { value: a }, ConcreteExpr::Leaf { value: b }) => {
                a.to_bits() == b.to_bits()
            }
            (
                ConcreteExpr::Node {
                    op: op_a,
                    children: ch_a,
                    ..
                },
                ConcreteExpr::Node {
                    op: op_b,
                    children: ch_b,
                    ..
                },
            ) => {
                op_a == op_b
                    && ch_a.len() == ch_b.len()
                    && ch_a
                        .iter()
                        .zip(ch_b)
                        .all(|(a, b)| a.equivalent_to_depth(b, depth - 1))
            }
            _ => false,
        }
    }

    /// The source locations of every operation node, outermost first (the
    /// paper notes Herbgrind can provide source locations for each node of
    /// the extracted expression).
    pub fn locations(&self) -> Vec<SourceLoc> {
        let mut out = Vec::new();
        self.collect_locations(&mut out);
        out
    }

    fn collect_locations(&self, out: &mut Vec<SourceLoc>) {
        if let ConcreteExpr::Node { loc, children, .. } = self {
            out.push((**loc).clone());
            for c in children {
                c.collect_locations(out);
            }
        }
    }
}

/// Identity of an interned node: the operation, the observed value, the
/// statement, and the identities of the children. Children are keyed by
/// pointer — sound because the interner keeps every interned node (and
/// therefore every child an entry references) alive, so a keyed address can
/// never be reused while the table exists. Arity is bounded by
/// [`MAX_ARITY`] ([`RealOp`] has no wider operation), so the key is a
/// fixed-size, allocation-free value.
///
/// The key carries its hash, computed once at construction, so the `Hash`
/// impl only has to feed the cached word to the table's hasher.
#[derive(Debug)]
struct NodeKey {
    hash: u64,
    op: RealOp,
    value_bits: u64,
    pc: usize,
    arity: u8,
    children: [usize; MAX_ARITY],
}

/// One multiply-rotate mixing step (an FxHash-style combiner): cheap,
/// deterministic, and good enough for a table whose keys are pointer sets.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

impl NodeKey {
    fn new<'a>(
        op: RealOp,
        value: f64,
        pc: usize,
        children: impl Iterator<Item = &'a Arc<ConcreteExpr>>,
    ) -> NodeKey {
        let mut ptrs = [0usize; MAX_ARITY];
        let mut arity = 0u8;
        for child in children {
            assert!(
                (arity as usize) < MAX_ARITY,
                "RealOp arity exceeds key capacity"
            );
            ptrs[arity as usize] = Arc::as_ptr(child) as usize;
            arity += 1;
        }
        let value_bits = value.to_bits();
        let mut hash = mix(0, op as u64);
        hash = mix(hash, pc as u64);
        hash = mix(hash, u64::from(arity));
        for &child in &ptrs {
            hash = mix(hash, child as u64);
        }
        NodeKey {
            hash: mix(hash, value_bits),
            op,
            value_bits,
            pc,
            arity,
            children: ptrs,
        }
    }
}

impl PartialEq for NodeKey {
    fn eq(&self, other: &Self) -> bool {
        // The cached hash is a function of the other fields, so it carries no
        // extra information; comparing it first just rejects non-matches
        // cheaply.
        self.hash == other.hash
            && self.op == other.op
            && self.value_bits == other.value_bits
            && self.pc == other.pc
            && self.arity == other.arity
            && self.children == other.children
    }
}

impl Eq for NodeKey {}

impl Hash for NodeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A hash-consing table for [`ConcreteExpr`] nodes.
///
/// Tracing allocates one node per executed operation, and loops or repeated
/// subcomputations produce many structurally identical subtraces. The
/// interner returns the existing `Arc` when a node it already built is
/// requested again, so repeated subtraces share one allocation and the
/// anti-unification in [`crate::symbolic`] hits its pointer-identity fast
/// path instead of walking subtrees.
///
/// Each serial analysis shard owns one interner (per-run state like shadow
/// memory, cleared at the start of every run); the batched analysis owns
/// one **group-level** interner shared by all its lane shards, so lanes
/// with identical observations share nodes. Interning affects only
/// allocation sharing, never analysis output, so shard-merged reports stay
/// bit-identical to serial ones regardless of which table a node came from;
/// interners are simply dropped when shards merge.
///
/// The table keeps every interned node alive until the run ends, so growth
/// is bounded two ways: callers skip interning for nodes that cannot be
/// shared (the analysis bypasses traces deeper than its tracking bound),
/// and the table itself stops inserting past `MAX_INTERNED` entries —
/// lookups still succeed, later misses just allocate unshared nodes.
#[derive(Debug, Default)]
pub struct ExprInterner {
    leaves: HashMap<u64, Arc<ConcreteExpr>, Prehashed>,
    nodes: HashMap<NodeKey, Arc<ConcreteExpr>, Prehashed>,
    /// Recycled node allocations: `Arc`s whose contents died with the
    /// previous run ([`ExprInterner::clear`]) and whose heap blocks can be
    /// rewritten in place for this run's nodes. Every entry is uniquely
    /// owned (checked with [`Arc::get_mut`] before pooling), so overwriting
    /// it is invisible to the rest of the analysis.
    pool: Vec<Arc<ConcreteExpr>>,
}

/// Hash builder for the interner tables: every key either is a single word
/// (leaf value bits) or carries a precomputed FxHash-mixed word
/// ([`NodeKey`]), so the default SipHash would only add latency to every
/// probe and insert on the tracing hot path. One extra [`mix`] round is kept
/// so raw leaf bits still spread across buckets.
#[derive(Clone, Debug, Default)]
struct Prehashed;

#[derive(Clone, Default)]
struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("interner keys hash through write_u64");
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl BuildHasher for Prehashed {
    type Hasher = PrehashedHasher;
    fn build_hasher(&self) -> PrehashedHasher {
        PrehashedHasher(0)
    }
}

/// Per-table entry cap (leaves and nodes counted separately): a backstop so
/// a single pathological run — millions of distinct shallow subtraces —
/// cannot pin unbounded memory in exchange for a near-zero hit rate.
const MAX_INTERNED: usize = 1 << 20;

/// Cap on recycled node allocations kept across [`ExprInterner::clear`]:
/// enough to cover the per-run working set of a sweep input without pinning
/// a pathological run's worth of dead blocks.
const POOL_CAP: usize = 4096;

impl ExprInterner {
    /// Creates an empty interner.
    pub fn new() -> ExprInterner {
        ExprInterner::default()
    }

    /// An interned leaf node for `value`.
    pub fn leaf(&mut self, value: f64) -> Arc<ConcreteExpr> {
        let bits = value.to_bits();
        if let Some(cached) = cached_constant(bits) {
            return Arc::clone(cached);
        }
        if let Some(existing) = self.leaves.get(&bits) {
            return Arc::clone(existing);
        }
        let leaf = Arc::new(ConcreteExpr::Leaf { value });
        if self.leaves.len() < MAX_INTERNED {
            self.leaves.insert(bits, Arc::clone(&leaf));
        }
        leaf
    }

    /// An interned operation node; returns the existing node when the same
    /// `(op, value, pc, children)` combination was interned before.
    pub fn node(
        &mut self,
        op: RealOp,
        value: f64,
        children: Vec<Arc<ConcreteExpr>>,
        pc: usize,
        loc: impl Into<Arc<SourceLoc>>,
    ) -> Arc<ConcreteExpr> {
        let key = NodeKey::new(op, value, pc, children.iter());
        if let Some(existing) = self.nodes.get(&key) {
            telemetry::INTERNER_PROBE_HITS.incr();
            return Arc::clone(existing);
        }
        telemetry::INTERNER_PROBE_MISSES.incr();
        let node = self.alloc_node(ConcreteExpr::node_value(
            op,
            value,
            children.into(),
            pc,
            loc.into(),
        ));
        if self.nodes.len() < MAX_INTERNED {
            self.nodes.insert(key, Arc::clone(&node));
        }
        node
    }

    /// Like [`ExprInterner::node`], with the children and location passed by
    /// reference: on a table hit (the common case inside loops) nothing is
    /// cloned or allocated — the child `Arc`s are only cloned into a fresh
    /// `Vec` when the node is genuinely new. This is the entry point the
    /// analysis hot loop uses.
    pub fn node_ref(
        &mut self,
        op: RealOp,
        value: f64,
        children: &[&Arc<ConcreteExpr>],
        pc: usize,
        loc: &Arc<SourceLoc>,
    ) -> Arc<ConcreteExpr> {
        let key = NodeKey::new(op, value, pc, children.iter().copied());
        if let Some(existing) = self.nodes.get(&key) {
            telemetry::INTERNER_PROBE_HITS.incr();
            return Arc::clone(existing);
        }
        telemetry::INTERNER_PROBE_MISSES.incr();
        let node = self.alloc_node(ConcreteExpr::node_value(
            op,
            value,
            TraceChildren::from_refs(children),
            pc,
            Arc::clone(loc),
        ));
        if self.nodes.len() < MAX_INTERNED {
            self.nodes.insert(key, Arc::clone(&node));
        }
        node
    }

    /// Boxes a freshly built node, reusing a recycled allocation from the
    /// previous run when one is available — the steady-state sweep path
    /// allocates trace nodes only while a run's working set outgrows every
    /// prior run's.
    fn alloc_node(&mut self, node: ConcreteExpr) -> Arc<ConcreteExpr> {
        while let Some(mut recycled) = self.pool.pop() {
            if let Some(slot) = Arc::get_mut(&mut recycled) {
                *slot = node;
                telemetry::INTERNER_POOL_RECYCLES.incr();
                return recycled;
            }
        }
        Arc::new(node)
    }

    /// Drops all interned nodes (per-run state, like shadow memory).
    ///
    /// Node allocations whose only owner is the table are not returned to
    /// the system: their contents are replaced with an inert leaf — which
    /// releases child subtrees and locations immediately, exactly like
    /// dropping — and the empty blocks are kept (up to `POOL_CAP`) for
    /// the next run's nodes to be written into.
    pub fn clear(&mut self) {
        telemetry::INTERNER_PEAK_NODES.record(self.len() as u64);
        let ExprInterner {
            leaves,
            nodes,
            pool,
        } = self;
        leaves.clear();
        for (_, mut node) in nodes.drain() {
            if pool.len() >= POOL_CAP {
                continue;
            }
            if let Some(slot) = Arc::get_mut(&mut node) {
                *slot = ConcreteExpr::Leaf { value: 0.0 };
                pool.push(node);
            }
        }
    }

    /// The number of distinct interned nodes (leaves plus operations).
    pub fn len(&self) -> usize {
        self.leaves.len() + self.nodes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty() && self.nodes.is_empty()
    }
}

impl Drop for ExprInterner {
    /// A run's last table is never cleared, so the peak gauge reads it here.
    fn drop(&mut self) {
        telemetry::INTERNER_PEAK_NODES.record(self.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Arc<ConcreteExpr> {
        // (sqrt(x*x + y*y)) - x  with x=3, y=4
        let x = ConcreteExpr::leaf(3.0);
        let y = ConcreteExpr::leaf(4.0);
        let xx = ConcreteExpr::node(
            RealOp::Mul,
            9.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        let yy = ConcreteExpr::node(
            RealOp::Mul,
            16.0,
            vec![y.clone(), y],
            1,
            SourceLoc::default(),
        );
        let sum = ConcreteExpr::node(RealOp::Add, 25.0, vec![xx, yy], 2, SourceLoc::default());
        let root = ConcreteExpr::node(RealOp::Sqrt, 5.0, vec![sum], 3, SourceLoc::default());
        ConcreteExpr::node(RealOp::Sub, 2.0, vec![root, x], 4, SourceLoc::default())
    }

    #[test]
    fn depth_and_operation_count() {
        let t = sample_trace();
        assert_eq!(t.depth(), 4);
        assert_eq!(t.operation_count(), 5);
        assert_eq!(t.value(), 2.0);
    }

    #[test]
    fn truncation_limits_depth() {
        let t = sample_trace();
        let shallow = t.truncate_to_depth(1);
        assert_eq!(shallow.depth(), 1);
        assert_eq!(shallow.value(), 2.0);
        // Children of the truncated node are leaves carrying the observed values.
        if let ConcreteExpr::Node { children, .. } = shallow.as_ref() {
            assert!(children.iter().all(|c| c.is_leaf()));
            assert_eq!(children[0].value(), 5.0);
            assert_eq!(children[1].value(), 3.0);
        } else {
            panic!("expected a node");
        }
        // Truncating deeper than the trace is the identity (same allocation).
        let same = t.truncate_to_depth(10);
        assert!(Arc::ptr_eq(&t, &same));
    }

    #[test]
    fn bounded_equivalence() {
        let a = sample_trace();
        let b = sample_trace();
        assert!(a.equivalent_to_depth(&b, 10));
        // A trace with a different leaf value differs at depth 5 but is
        // indistinguishable at depth 1 (same top operation).
        let x = ConcreteExpr::leaf(3.0);
        let different = ConcreteExpr::node(
            RealOp::Sub,
            2.0,
            vec![ConcreteExpr::leaf(5.0), x],
            4,
            SourceLoc::default(),
        );
        assert!(a.equivalent_to_depth(&different, 1));
        assert!(!a.equivalent_to_depth(&different, 2));
    }

    #[test]
    fn nan_leaves_compare_equal_to_themselves() {
        let a = ConcreteExpr::leaf(f64::NAN);
        let b = ConcreteExpr::leaf(f64::NAN);
        assert!(a.equivalent_to_depth(&b, 3));
    }

    #[test]
    fn sharing_is_by_reference() {
        let x = ConcreteExpr::leaf(1.5);
        let node = ConcreteExpr::node(
            RealOp::Add,
            3.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        if let ConcreteExpr::Node { children, .. } = node.as_ref() {
            assert!(Arc::ptr_eq(&children[0], &children[1]));
        }
    }

    #[test]
    fn locations_are_collected_outermost_first() {
        let t = sample_trace();
        let locs = t.locations();
        assert_eq!(locs.len(), 5);
    }

    #[test]
    fn common_constant_leaves_are_shared_process_wide() {
        for value in [0.0f64, 1.0, -1.0, 2.0] {
            let a = ConcreteExpr::leaf(value);
            let b = ConcreteExpr::leaf(value);
            assert!(Arc::ptr_eq(&a, &b), "constant {value} not cached");
            assert_eq!(a.value().to_bits(), value.to_bits());
        }
        // Negative zero has different bits and is not the cached 0.0.
        let nz = ConcreteExpr::leaf(-0.0);
        assert_eq!(nz.value().to_bits(), (-0.0f64).to_bits());
        // Uncached constants still get fresh allocations.
        let a = ConcreteExpr::leaf(3.25);
        let b = ConcreteExpr::leaf(3.25);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn interner_shares_repeated_subtraces() {
        let mut interner = ExprInterner::new();
        let x = interner.leaf(7.0);
        let a = interner.node(
            RealOp::Mul,
            49.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        let b = interner.node(
            RealOp::Mul,
            49.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        assert!(Arc::ptr_eq(&a, &b), "same identity must intern to one node");
        assert_eq!(interner.len(), 2); // one leaf, one node
                                       // A different value, pc, or child set is a different node.
        let c = interner.node(
            RealOp::Mul,
            50.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        assert!(!Arc::ptr_eq(&a, &c));
        let d = interner.node(
            RealOp::Mul,
            49.0,
            vec![x.clone(), x],
            1,
            SourceLoc::default(),
        );
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(interner.len(), 4);
    }

    #[test]
    fn clear_recycles_exclusively_owned_node_allocations() {
        let mut interner = ExprInterner::new();
        let x = interner.leaf(7.0);
        let first = interner.node(
            RealOp::Mul,
            49.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        let recycled_block = Arc::as_ptr(&first);
        // Keeping an outside owner across `clear` pins the allocation: the
        // interner must not hand it out to the next run.
        let pinned = interner.node(
            RealOp::Add,
            14.0,
            vec![x.clone(), x],
            1,
            SourceLoc::default(),
        );
        drop(first);
        interner.clear();
        assert!(interner.is_empty());
        let y = interner.leaf(9.0);
        let reused = interner.node(
            RealOp::Sub,
            2.0,
            vec![y.clone(), y.clone()],
            2,
            SourceLoc::default(),
        );
        // The sole-owner node's heap block was rewritten in place for the
        // new run's node; the pinned node's block was not.
        assert_eq!(Arc::as_ptr(&reused), recycled_block);
        assert_ne!(Arc::as_ptr(&reused), Arc::as_ptr(&pinned));
        assert_eq!(reused.value(), 2.0);
        assert_eq!(reused.depth(), 1);
        // The pinned node still reads back its original contents.
        assert_eq!(pinned.value(), 14.0);
        assert_eq!(pinned.operation_count(), 1);
    }

    #[test]
    fn node_ref_interns_to_the_same_entry_as_node() {
        let mut interner = ExprInterner::new();
        let x = interner.leaf(7.0);
        let owned = interner.node(
            RealOp::Mul,
            49.0,
            vec![x.clone(), x.clone()],
            0,
            SourceLoc::default(),
        );
        let by_ref = interner.node_ref(
            RealOp::Mul,
            49.0,
            &[&x, &x],
            0,
            &Arc::new(SourceLoc::default()),
        );
        assert!(Arc::ptr_eq(&owned, &by_ref));
        // A genuinely new identity through node_ref is interned for reuse.
        let fresh = interner.node_ref(
            RealOp::Add,
            14.0,
            &[&x, &x],
            1,
            &Arc::new(SourceLoc::default()),
        );
        let again = interner.node_ref(
            RealOp::Add,
            14.0,
            &[&x, &x],
            1,
            &Arc::new(SourceLoc::default()),
        );
        assert!(Arc::ptr_eq(&fresh, &again));
    }

    #[test]
    fn interner_leaves_are_shared_within_a_shard() {
        let mut interner = ExprInterner::new();
        let a = interner.leaf(0.1);
        let b = interner.leaf(0.1);
        assert!(Arc::ptr_eq(&a, &b));
        // The process-wide constants bypass the per-shard table.
        let one = interner.leaf(1.0);
        assert!(Arc::ptr_eq(&one, &ConcreteExpr::leaf(1.0)));
        assert_eq!(interner.len(), 1);
        interner.clear();
        assert!(interner.is_empty());
    }

    #[test]
    fn interned_nodes_hit_the_pointer_equality_fast_path() {
        let mut interner = ExprInterner::new();
        let x = interner.leaf(3.0);
        let deep = |interner: &mut ExprInterner| {
            let mut node = interner.leaf(3.0);
            for pc in 0..64 {
                node = interner.node(RealOp::Sqrt, 3.0, vec![node], pc, SourceLoc::default());
            }
            node
        };
        let a = deep(&mut interner);
        let b = deep(&mut interner);
        assert!(Arc::ptr_eq(&a, &b));
        // Equivalence on shared traces is O(1), not a 64-level walk; this
        // would still pass without the fast path, but exercises it.
        assert!(a.equivalent_to_depth(&b, usize::MAX >> 1));
        drop(x);
    }
}
