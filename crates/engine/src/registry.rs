//! The artifact registry: a bounded LRU store of typed artifacts keyed on
//! kind-salted fingerprints, compiling CNF circuits on miss.
//!
//! A serving process sees the same formulas again and again; recompiling
//! per request throws away exactly the work knowledge compilation exists to
//! amortize. The registry keeps compiled artifacts hot, bounded not by
//! entry count but by **retained arena nodes** — the unit memory is
//! actually spent in — and evicts least-recently-used artifacts when a new
//! compilation would exceed the budget. Since the roles subsystem, an
//! entry is an [`Artifact`]: a compiled circuit, a learned PSDD, a compiled
//! space, or a compiled classifier, all under one LRU/budget policy.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Arc;

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{FxHashMap, FxHasher};
use trl_prop::Cnf;

use crate::artifact::Artifact;
use crate::prepared::PreparedCircuit;

/// A 64-bit fingerprint of a CNF: its universe size and every clause's
/// literal codes, in clause order. Two structurally identical formulas
/// fingerprint identically; the probability of distinct formulas colliding
/// is the usual ~2⁻⁶⁴ content-hash trade (the same one the compiler's
/// packed component signatures make).
pub fn fingerprint(cnf: &Cnf) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(cnf.num_vars() as u64);
    h.write_u64(cnf.clauses().len() as u64);
    for clause in cnf.clauses() {
        h.write_u32(clause.len() as u32);
        for &l in clause.literals() {
            h.write_u32(l.code());
        }
    }
    h.finish()
}

/// Running counters for a registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that compiled a new artifact.
    pub misses: u64,
    /// Artifacts evicted to stay under the node budget.
    pub evictions: u64,
}

/// A resident artifact with its budget charge and its last-use stamp.
struct Entry {
    artifact: Artifact,
    /// The node cost charged at insert time. The charge is snapshotted
    /// because a [`PreparedCircuit`]'s footprint grows when its first
    /// counting or MPE query builds the evaluation tape; re-reading it at
    /// eviction would debit more than was credited and underflow the
    /// budget.
    charged: usize,
    /// The stamp of the entry's most recent use; the entry's live pair in
    /// the LRU queue carries the same stamp.
    stamp: u64,
}

/// A bounded compile-on-miss store of typed [`Artifact`]s.
///
/// The budget charges each artifact's [`Artifact::retained_nodes`] at
/// insert time. For a circuit compiled on a miss that is its compiled
/// (raw) size only: the evaluation tape its first counting or MPE query
/// builds is not charged. [`Registry::replace`] charges what the swapped
/// artifact holds at the swap, raw arena plus tape for a warmed one.
pub struct Registry {
    compiler: DecisionDnnfCompiler,
    max_retained_nodes: usize,
    entries: FxHashMap<u64, Entry>,
    /// LRU queue of `(stamp, key)` pairs in increasing stamp order, so the
    /// front is coldest. A use pushes a fresh pair and leaves the old one
    /// behind stale (its stamp no longer matches the entry's); eviction
    /// skips stale pairs, and they are swept out once they outnumber the
    /// live ones. Every lookup, insert and eviction is amortized O(1).
    lru: VecDeque<(u64, u64)>,
    next_stamp: u64,
    retained_nodes: usize,
    stats: RegistryStats,
}

impl Registry {
    /// A registry with the default compiler and the given retained-node
    /// budget.
    pub fn new(max_retained_nodes: usize) -> Self {
        Self::with_compiler(max_retained_nodes, DecisionDnnfCompiler::default())
    }

    /// A registry compiling misses with a specific compiler configuration.
    pub fn with_compiler(max_retained_nodes: usize, compiler: DecisionDnnfCompiler) -> Self {
        Registry {
            compiler,
            max_retained_nodes,
            entries: FxHashMap::default(),
            lru: VecDeque::new(),
            next_stamp: 0,
            retained_nodes: 0,
            stats: RegistryStats::default(),
        }
    }

    /// The compiler configuration misses compile with.
    pub fn compiler(&self) -> DecisionDnnfCompiler {
        self.compiler
    }

    /// The circuit for `cnf`, compiling and preparing it on miss. Circuit
    /// keys are unsalted CNF [`fingerprint`]s, so this can never collide
    /// with a role-2/3 artifact (their fingerprints are kind-salted).
    pub fn get_or_compile(&mut self, cnf: &Cnf) -> Arc<PreparedCircuit> {
        let key = fingerprint(cnf);
        if let Some(found) = self.entries.get(&key).and_then(|e| e.artifact.as_circuit()) {
            let found = Arc::clone(found);
            self.touch(key);
            self.stats.hits += 1;
            return found;
        }
        self.stats.misses += 1;
        let prepared = Arc::new(PreparedCircuit::new(self.compiler.compile(cnf)));
        self.insert(key, Artifact::Circuit(Arc::clone(&prepared)));
        prepared
    }

    /// The artifact under a fingerprint, if retained. Touches LRU order.
    pub fn get(&mut self, key: u64) -> Option<Artifact> {
        let found = self.entries.get(&key).map(|e| e.artifact.clone());
        if found.is_some() {
            self.touch(key);
            self.stats.hits += 1;
        }
        found
    }

    /// Records a miss that was served by an out-of-band compilation — used
    /// by callers (the [`crate::Engine`]) that compile outside the registry
    /// lock and then [`Registry::insert`], so the hit/miss counters still
    /// add up to total lookups.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Inserts an externally produced artifact (e.g. one loaded from disk,
    /// or a learned PSDD) under a fingerprint as the hottest entry, then
    /// evicts cold entries down to the budget. The artifact's current
    /// footprint is charged against the budget for the rest of its
    /// residence.
    pub fn insert(&mut self, key: u64, artifact: Artifact) {
        let charged = artifact.retained_nodes();
        let stamp = self.next_stamp();
        let entry = Entry {
            artifact,
            charged,
            stamp,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.retained_nodes -= old.charged;
        }
        self.retained_nodes += charged;
        self.lru.push_back((stamp, key));
        self.evict_to_budget();
        self.sweep_stale();
    }

    /// The artifact under a fingerprint without touching LRU order or the
    /// hit/miss counters — maintenance passes (the optimize job) peek at
    /// entries without pretending to be traffic.
    pub fn peek(&self, key: u64) -> Option<Artifact> {
        self.entries.get(&key).map(|e| e.artifact.clone())
    }

    /// Atomically replaces the artifact under `key`, **re-snapshotting its
    /// budget charge**: a minimized artifact's smaller footprint releases
    /// budget immediately (the insert-time snapshot is otherwise never
    /// revisited), and a grown one triggers eviction as usual. LRU
    /// position is preserved — replacement is maintenance, not traffic.
    /// Returns `false` (storing nothing) if `key` is not resident.
    pub fn replace(&mut self, key: u64, artifact: Artifact) -> bool {
        let charged = artifact.retained_nodes();
        let Some(entry) = self.entries.get_mut(&key) else {
            return false;
        };
        let old_charged = entry.charged;
        entry.artifact = artifact;
        entry.charged = charged;
        self.retained_nodes = self.retained_nodes - old_charged + charged;
        self.evict_to_budget();
        true
    }

    /// Evicts coldest-first until under budget. The hottest entry is never
    /// evicted, even if it alone exceeds the budget — a registry that
    /// cannot hold its current working artifact would thrash forever.
    fn evict_to_budget(&mut self) {
        while self.retained_nodes > self.max_retained_nodes && self.entries.len() > 1 {
            let (stamp, key) = self
                .lru
                .pop_front()
                .expect("every resident entry has a live LRU pair");
            if self.entries.get(&key).is_some_and(|e| e.stamp == stamp) {
                let gone = self.entries.remove(&key).expect("checked above");
                self.retained_nodes -= gone.charged;
                self.stats.evictions += 1;
            }
        }
    }

    fn touch(&mut self, key: u64) {
        let stamp = self.next_stamp();
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.stamp = stamp;
            self.lru.push_back((stamp, key));
            self.sweep_stale();
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Drops stale LRU pairs once they outnumber the live ones, keeping
    /// the queue within twice the resident count (plus slack) at an
    /// amortized O(1) per use.
    fn sweep_stale(&mut self) {
        if self.lru.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.lru
                .retain(|&(stamp, key)| entries.get(&key).is_some_and(|e| e.stamp == stamp));
        }
    }

    /// Number of retained artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total retained arena nodes across artifacts, as charged at their
    /// insert time: the raw circuit, plus its kernel tape only if it had
    /// been built before the insert (it has not for a circuit compiled on
    /// a miss).
    pub fn retained_nodes(&self) -> usize {
        self.retained_nodes
    }

    /// The retained-node budget.
    pub fn max_retained_nodes(&self) -> usize {
        self.max_retained_nodes
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_core::SplitMix64;
    use trl_prop::gen::random_cnf;

    /// A circuit artifact charged exactly `nodes` nodes.
    fn sized(nodes: usize) -> Artifact {
        let mut b = trl_nnf::CircuitBuilder::new(nodes);
        let lits: Vec<_> = (0..nodes as u32)
            .map(|v| b.lit(trl_core::Var(v).positive()))
            .collect();
        let c = b.finish(*lits.last().unwrap());
        Artifact::Circuit(Arc::new(PreparedCircuit::new(c)))
    }

    /// The LRU bookkeeping the stamp queue replaced: a vector in use
    /// order, reordered by linear search on every touch.
    #[derive(Default)]
    struct VecLru {
        order: Vec<u64>,
        charged: FxHashMap<u64, usize>,
        retained: usize,
        evicted: Vec<u64>,
    }

    impl VecLru {
        fn insert(&mut self, key: u64, charge: usize, budget: usize) {
            if let Some(old) = self.charged.insert(key, charge) {
                self.retained -= old;
                self.order.retain(|&k| k != key);
            }
            self.retained += charge;
            self.order.push(key);
            self.evict(budget);
        }

        fn get(&mut self, key: u64) {
            if let Some(at) = self.order.iter().position(|&k| k == key) {
                let k = self.order.remove(at);
                self.order.push(k);
            }
        }

        fn replace(&mut self, key: u64, charge: usize, budget: usize) {
            if let Some(old) = self.charged.get_mut(&key) {
                self.retained = self.retained - *old + charge;
                *old = charge;
                self.evict(budget);
            }
        }

        fn evict(&mut self, budget: usize) {
            while self.retained > budget && self.order.len() > 1 {
                let coldest = self.order.remove(0);
                self.retained -= self.charged.remove(&coldest).unwrap();
                self.evicted.push(coldest);
            }
        }
    }

    #[test]
    fn stamp_lru_evicts_like_the_vector_lru() {
        // A scripted mix of inserts, re-inserts, hits, misses and replaces
        // over a small key space; the stamp queue must keep the same keys
        // resident and evict the same keys in the same order at every step
        // — enough steps for many stale-pair sweeps.
        const BUDGET: usize = 40;
        let mut rng = SplitMix64::new(7);
        let mut r = Registry::new(BUDGET);
        let mut model = VecLru::default();
        for step in 0..5_000 {
            let key = rng.below(16) as u64;
            match rng.below(10) {
                0..=2 => {
                    let charge = 1 + rng.below(12);
                    r.insert(key, sized(charge));
                    model.insert(key, charge, BUDGET);
                }
                3..=8 => {
                    assert_eq!(r.get(key).is_some(), model.charged.contains_key(&key));
                    model.get(key);
                }
                _ => {
                    let charge = 1 + rng.below(12);
                    r.replace(key, sized(charge));
                    model.replace(key, charge, BUDGET);
                }
            }
            let coldest_first: Vec<u64> = r
                .lru
                .iter()
                .filter(|(stamp, key)| r.entries.get(key).is_some_and(|e| e.stamp == *stamp))
                .map(|&(_, key)| key)
                .collect();
            assert_eq!(coldest_first, model.order, "step {step}: LRU order differs");
            assert_eq!(
                r.len(),
                model.order.len(),
                "step {step}: resident keys differ"
            );
            assert_eq!(r.retained_nodes(), model.retained, "step {step}");
            assert_eq!(r.stats().evictions, model.evicted.len() as u64);
            assert!(r.lru.len() <= 2 * r.entries.len() + 64 + 1);
        }
        // Drain both through one oversized insert.
        r.insert(99, sized(BUDGET));
        model.insert(99, BUDGET, BUDGET);
        assert_eq!(r.stats().evictions, model.evicted.len() as u64);
        assert!(model.evicted.len() > 100, "the script must evict often");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn fingerprint_distinguishes_formulas() {
        let a = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let b = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 -3 0\n").unwrap();
        let wider = Cnf::parse_dimacs("p cnf 4 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&wider));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        let first = r.get_or_compile(&cnf);
        let second = r.get_or_compile(&cnf);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            r.stats(),
            RegistryStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.retained_nodes(), first.retained_nodes());
    }

    #[test]
    fn lru_evicts_coldest_by_node_budget() {
        let mut rng = SplitMix64::new(42);
        let cnfs: Vec<Cnf> = (0..4).map(|_| random_cnf(&mut rng, 8, 16, 3)).collect();
        // Budget sized to hold roughly two artifacts.
        let mut probe = Registry::new(usize::MAX);
        let sizes: Vec<usize> = cnfs
            .iter()
            .map(|c| probe.get_or_compile(c).retained_nodes())
            .collect();
        let budget = sizes[0] + sizes[1] + sizes[2] / 2;

        let mut r = Registry::new(budget);
        r.get_or_compile(&cnfs[0]);
        r.get_or_compile(&cnfs[1]);
        // Touch 0 so 1 is coldest when 2 arrives.
        r.get_or_compile(&cnfs[0]);
        r.get_or_compile(&cnfs[2]);
        assert!(r.stats().evictions > 0);
        assert!(r.retained_nodes() <= budget);
        // 1 was evicted; 0 survived.
        let before = r.stats().misses;
        r.get_or_compile(&cnfs[0]);
        assert_eq!(r.stats().misses, before, "cnfs[0] should still be a hit");
        r.get_or_compile(&cnfs[1]);
        assert_eq!(r.stats().misses, before + 1, "cnfs[1] must recompile");
    }

    #[test]
    fn single_oversized_artifact_is_kept() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut r = Registry::new(1); // absurdly small budget
        let a = r.get_or_compile(&cnf);
        assert_eq!(r.len(), 1);
        assert!(r.retained_nodes() >= a.retained_nodes());
        // A second formula displaces it (the new one is the working set).
        let other = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        r.get_or_compile(&other);
        assert_eq!(r.len(), 1);
        assert_eq!(r.stats().evictions, 1);
    }

    #[test]
    fn eviction_balances_even_after_lazy_materialization() {
        // An artifact's footprint grows when its first counting query
        // builds the tape. Eviction must debit the insert-time charge, not
        // the grown footprint — otherwise the running total underflows.
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut r = Registry::new(1); // force eviction on the next insert
        let a = r.get_or_compile(&cnf);
        a.answer(&crate::executor::Query::ModelCount); // grow footprint
        assert!(a.retained_nodes() > a.raw().node_count());
        let other = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        r.get_or_compile(&other); // evicts `a`; must not panic
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_replaces_under_same_key() {
        let cnf = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        let a = r.get_or_compile(&cnf);
        let key = fingerprint(&cnf);
        r.insert(key, Artifact::Circuit(Arc::clone(&a)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.retained_nodes(), a.retained_nodes());
        assert!(r.get(key).is_some());
        assert!(r.get(key ^ 1).is_none());
    }

    #[test]
    fn replace_releases_budget_immediately() {
        // Regression: an optimized artifact's smaller retained-node cost
        // must be reflected in the running budget at swap time — the
        // insert-time snapshot is revisited by `replace`, unlike `insert`
        // which resets LRU position.
        // Hand-built circuit with guaranteed slack: ⊤-padded and-gates that
        // the compact pass always eliminates.
        let mut b = trl_nnf::CircuitBuilder::new(3);
        let tt = b.true_();
        let x0 = b.lit(trl_core::Var(0).positive());
        let x1 = b.lit(trl_core::Var(1).positive());
        let nx0 = b.lit(trl_core::Var(0).negative());
        let x2 = b.lit(trl_core::Var(2).positive());
        let lhs = b.and_raw([x0, tt, x1]);
        let rhs = b.and_raw([nx0, x2, tt]);
        let root = b.or_raw([lhs, rhs]);
        let padded = b.finish(root);

        let mut r = Registry::new(1 << 20);
        let a = Arc::new(crate::prepared::PreparedCircuit::new(padded));
        a.answer(&crate::executor::Query::ModelCount); // materialize tape
        let key = 0xdead_beef_u64;
        r.insert(key, Artifact::Circuit(Arc::clone(&a)));
        let before = r.retained_nodes();
        assert_eq!(before, a.raw().node_count() + a.tape().len());

        // Swap in a strictly smaller artifact under the same key.
        let (small, report) =
            trl_minimize::minimize_circuit(a.raw(), &trl_minimize::MinimizeConfig::default());
        assert!(report.accepted, "padded circuit must have slack");
        let small = Arc::new(crate::prepared::PreparedCircuit::new(small));
        let small_cost = small.retained_nodes();
        assert!(r.replace(key, Artifact::Circuit(small)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.retained_nodes(), small_cost, "budget released at swap");
        assert!(r.retained_nodes() < before);

        // Absent keys are rejected without storing anything.
        let stray = Arc::new(crate::prepared::PreparedCircuit::new(a.raw().clone()));
        assert!(!r.replace(key ^ 1, Artifact::Circuit(stray)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn peek_does_not_touch_lru_or_stats() {
        let cnf = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        r.get_or_compile(&cnf);
        let key = fingerprint(&cnf);
        let stats = r.stats();
        assert!(r.peek(key).is_some());
        assert!(r.peek(key ^ 1).is_none());
        assert_eq!(r.stats(), stats, "peek must not count as traffic");
    }

    #[test]
    fn mixed_kind_artifacts_share_one_lru_budget() {
        use crate::artifact::{classifier_fingerprint, Artifact};
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        let circuit = r.get_or_compile(&cnf);
        let clf = Arc::new(trl_xai::PreparedClassifier::compile(&cnf));
        let clf_key = classifier_fingerprint(&cnf);
        let clf_nodes = clf.node_count();
        r.insert(clf_key, Artifact::Classifier(clf));
        assert_eq!(r.len(), 2, "same CNF, two kinds, two entries");
        assert_eq!(r.retained_nodes(), circuit.retained_nodes() + clf_nodes);
        let got = r.get(clf_key).expect("classifier resident");
        assert!(got.as_circuit().is_none());
        assert_eq!(got.kind().name(), "classifier");
    }
}
