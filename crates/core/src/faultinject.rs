//! Deterministic fault injection for the fault-isolated drivers.
//!
//! Compiled in only under the `fault-injection` cargo feature, this module
//! lets tests force failures at chosen sites — keyed on sweep-global input
//! index × statement pc × pipeline stage — and prove the isolation layer's
//! guarantees: no fault configuration loses a non-faulted input's records,
//! quarantine lists are deterministic across thread counts and batch
//! widths, and degraded reports are bit-identical to analyzing the
//! surviving inputs alone.
//!
//! A plan is installed process-globally through [`install`], which returns a
//! guard serializing injection tests against each other; the isolated
//! drivers arm each run with its input index and stage, and every compute
//! observation consults the plan through [`query`]. Only the fault-isolated
//! drivers arm injection — the plain drivers run the same engines unarmed
//! and never consult the plan, so the oracle sweeps the suites compare
//! against stay uninjected even while a plan is installed.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, RwLock};

/// What an injected fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum InjectKind {
    /// Panic in the analysis observer, modeling a crashing shadow op.
    Panic,
    /// Latch a [`fpvm::MachineError::StepBudgetExceeded`] fault.
    StepBudget,
    /// Latch a [`fpvm::MachineError::DeadlineExceeded`] fault.
    Deadline,
    /// Latch a [`fpvm::MachineError::TraceBudgetExceeded`] fault.
    TraceBudget,
    /// Replace the exact shadow result with NaN (the serial and parallel
    /// stages only; a no-op elsewhere): the analysis must absorb the poison
    /// without crashing or quarantining.
    NanPoison,
    /// Force the input out of the certified tier at certify time, then fail
    /// the `BigFloat` escalation tier itself (a panic at the injection
    /// site), so every `BigFloat` run of the input fails and it ends up
    /// quarantined.
    TierEscalation,
}

/// The pipeline stage a run executes in, armed per run by the isolated
/// drivers and matched against [`FaultSpec::stage`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum InjectStage {
    /// The serial driver's sweep loop.
    Serial,
    /// A thread shard of the parallel driver (serial execution per shard).
    Parallel,
    /// A batched lane group of the batched driver.
    Batched,
    /// The tiered driver's certification probe (verdict time).
    TieredCertify,
    /// The tiered driver's certified (`DoubleDouble`) tier.
    TieredDoubleDouble,
    /// The tiered driver's escalation (`BigFloat`) tier.
    TieredBigFloat,
}

/// One injection site: all `None` filters match everything.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Sweep-global input index to fault, or `None` for every input.
    pub input_index: Option<usize>,
    /// Statement pc to fault at, or `None` for every statement.
    pub pc: Option<usize>,
    /// Pipeline stage filter, or `None` for every stage.
    pub stage: Option<InjectStage>,
    /// What the fault does.
    pub kind: InjectKind,
}

impl FaultSpec {
    /// A spec faulting one input at every pc and stage.
    pub fn input(input_index: usize, kind: InjectKind) -> FaultSpec {
        FaultSpec {
            input_index: Some(input_index),
            pc: None,
            stage: None,
            kind,
        }
    }

    /// Narrows the spec to one statement pc.
    pub fn at_pc(mut self, pc: usize) -> FaultSpec {
        self.pc = Some(pc);
        self
    }

    /// Narrows the spec to one pipeline stage.
    pub fn in_stage(mut self, stage: InjectStage) -> FaultSpec {
        self.stage = Some(stage);
        self
    }

    fn matches(&self, input_index: usize, pc: usize, stage: InjectStage) -> bool {
        self.input_index.is_none_or(|ix| ix == input_index)
            && self.pc.is_none_or(|p| p == pc)
            && self.stage.is_none_or(|s| s == stage)
    }
}

/// Seeded pseudo-random injection: the fault fires at sites where a
/// deterministic hash of `(seed, input_index, pc)` lands below the rate.
/// The same seed reproduces the same fault set on every machine, thread
/// count, and batch width — the decision depends only on the keyed site.
#[derive(Clone, Debug)]
pub struct SeededFaults {
    /// Hash seed.
    pub seed: u64,
    /// Fire at roughly one in `one_in` (input, pc) sites; `0` never fires.
    pub one_in: u32,
    /// What the fault does.
    pub kind: InjectKind,
    /// Optional stage filter.
    pub stage: Option<InjectStage>,
}

impl SeededFaults {
    fn query(&self, input_index: usize, pc: usize, stage: InjectStage) -> Option<InjectKind> {
        if self.one_in == 0 || self.stage.is_some_and(|s| s != stage) {
            return None;
        }
        let key = self
            .seed
            .wrapping_add((input_index as u64) << 32)
            .wrapping_add(pc as u64);
        splitmix64(key)
            .is_multiple_of(u64::from(self.one_in))
            .then_some(self.kind)
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed deterministic hash with no
/// external dependency.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A full injection plan: explicit site specs (first match wins) plus an
/// optional seeded background.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Explicit injection sites, consulted in order.
    pub specs: Vec<FaultSpec>,
    /// Seeded pseudo-random background faults.
    pub seeded: Option<SeededFaults>,
}

impl FaultPlan {
    /// A plan with the given explicit sites and no seeded background.
    pub fn sites(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan {
            specs,
            seeded: None,
        }
    }
}

/// One fault site at which an installed plan actually fired: the query key
/// plus the kind it resolved to. Sites are deduplicated — a fault that fires
/// repeatedly at the same `(input, pc, stage)` (a lane pass and its serial
/// re-run, a serial rebuild) records one entry — so the set depends only on
/// the plan and the input sweep, not on thread count or batch width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiredSite {
    /// Sweep-global input index the fault fired for.
    pub input_index: usize,
    /// Statement pc the fault fired at.
    pub pc: usize,
    /// Pipeline stage the faulted run was armed with.
    pub stage: InjectStage,
    /// What the fault did.
    pub kind: InjectKind,
}

static EXCLUSIVE: Mutex<()> = Mutex::new(());
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
static FIRED: Mutex<BTreeSet<FiredSite>> = Mutex::new(BTreeSet::new());

/// Keeps the installed plan alive; uninstalls it (and releases the
/// test-serialization lock) on drop.
#[derive(Debug)]
pub struct FaultGuard {
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Installs a plan process-globally. The returned guard serializes
/// injection tests: a second `install` blocks until the first guard drops,
/// so concurrently running `#[test]`s cannot observe each other's plans.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    FIRED.lock().unwrap_or_else(|e| e.into_inner()).clear();
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    FaultGuard {
        _exclusive: exclusive,
    }
}

/// The distinct sites at which the installed plan has fired since the last
/// [`install`], in sorted (deterministic) order. The set survives the
/// [`FaultGuard`] drop so a test can uninstall the plan before auditing which
/// faults actually landed.
pub fn fired_sites() -> Vec<FiredSite> {
    FIRED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .copied()
        .collect()
}

/// Consults the installed plan for one site. Returns the first matching
/// explicit spec's kind, then the seeded background's verdict.
pub(crate) fn query(input_index: usize, pc: usize, stage: InjectStage) -> Option<InjectKind> {
    let kind = {
        let plan = PLAN.read().unwrap_or_else(|e| e.into_inner());
        let plan = plan.as_ref()?;
        plan.specs
            .iter()
            .find(|spec| spec.matches(input_index, pc, stage))
            .map(|spec| spec.kind)
            .or_else(|| {
                plan.seeded
                    .as_ref()
                    .and_then(|seeded| seeded.query(input_index, pc, stage))
            })
    };
    if let Some(kind) = kind {
        telemetry::FAULTINJECT_FIRED.incr();
        FIRED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(FiredSite {
                input_index,
                pc,
                stage,
                kind,
            });
    }
    kind
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_filter_on_every_key() {
        let _guard = install(FaultPlan::sites(vec![FaultSpec::input(
            3,
            InjectKind::Panic,
        )
        .at_pc(7)
        .in_stage(InjectStage::Batched)]));
        assert_eq!(query(3, 7, InjectStage::Batched), Some(InjectKind::Panic));
        assert_eq!(query(3, 7, InjectStage::Serial), None);
        assert_eq!(query(3, 8, InjectStage::Batched), None);
        assert_eq!(query(2, 7, InjectStage::Batched), None);
    }

    #[test]
    fn seeded_faults_are_reproducible_and_site_keyed() {
        let seeded = SeededFaults {
            seed: 42,
            one_in: 4,
            kind: InjectKind::StepBudget,
            stage: None,
        };
        let first: Vec<_> = (0..64)
            .map(|ix| seeded.query(ix, ix * 3, InjectStage::Serial))
            .collect();
        let second: Vec<_> = (0..64)
            .map(|ix| seeded.query(ix, ix * 3, InjectStage::Serial))
            .collect();
        assert_eq!(first, second);
        assert!(first.iter().any(Option::is_some), "rate 1/4 over 64 sites");
        assert!(first.iter().any(Option::is_none));
    }

    #[test]
    fn fired_sites_deduplicate_and_survive_guard_drop() {
        let guard = install(FaultPlan::sites(vec![FaultSpec::input(
            3,
            InjectKind::Panic,
        )]));
        assert!(fired_sites().is_empty(), "install clears prior fires");
        query(3, 7, InjectStage::Batched);
        query(3, 7, InjectStage::Batched);
        query(2, 7, InjectStage::Batched);
        assert_eq!(
            fired_sites(),
            vec![FiredSite {
                input_index: 3,
                pc: 7,
                stage: InjectStage::Batched,
                kind: InjectKind::Panic,
            }]
        );
        drop(guard);
        assert_eq!(fired_sites().len(), 1, "sites outlive the guard");
    }

    #[test]
    fn uninstalling_clears_the_plan() {
        {
            let _guard = install(FaultPlan::sites(vec![FaultSpec::input(
                0,
                InjectKind::Panic,
            )]));
            assert!(query(0, 0, InjectStage::Serial).is_some());
        }
        assert!(query(0, 0, InjectStage::Serial).is_none());
    }
}
