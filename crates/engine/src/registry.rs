//! The artifact registry: a bounded store of typed artifacts keyed on
//! kind-salted fingerprints, evicting by S3-FIFO.
//!
//! It keeps [`Artifact`]s (circuits, PSDDs, spaces, classifiers) hot so
//! no formula is compiled twice while it is popular, under one budget of
//! **retained arena nodes**, the unit memory is spent in. The policy is
//! S3-FIFO (Yang et al., *FIFO queues are all you need for cache
//! eviction*, SOSP 2023): new entries enter a **small** FIFO queue,
//! entries used while in small move to **main**, and a **ghost** queue
//! remembers the keys evicted from small so a returning key goes straight
//! to main. A hit only bumps a 2-bit use counter. A formula seen once thus
//! displaces other one-off entries, never the popular circuits in main.
//! Every operation is amortized O(1): a main rotation spends a use that a
//! hit paid for.

use std::collections::VecDeque;
use std::hash::Hasher;

use trl_compiler::DecisionDnnfCompiler;
use trl_core::{FxHashMap, FxHashSet, FxHasher};
use trl_prop::Cnf;

use crate::artifact::Artifact;

/// Small takes the eviction turn while it holds at least
/// `1 / SMALL_SHARE` of the budget.
const SMALL_SHARE: usize = 10;
/// The ghost keeps at most this many keys per resident entry.
const GHOST_PER_ENTRY: usize = 2;
/// The cap of an entry's use counter.
const MAX_USES: u8 = 3;

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

/// Registers the policy's counters (small-to-main promotions, ghost-to-main
/// readmissions) zero-valued, so they render before the first eviction.
pub fn register_metrics() {
    for name in ["engine.registry.promotions", "engine.registry.readmissions"] {
        trl_obs::counter(name);
    }
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

/// A resident artifact with its budget charge, its queue and its uses.
struct Entry {
    artifact: Artifact,
    /// The node cost charged at insert time: a circuit's footprint grows
    /// when its first query builds the tape, and re-reading it at eviction
    /// would debit more than was credited.
    charged: usize,
    /// Whether the entry sits in main (else in small).
    in_main: bool,
    /// Uses since the entry entered its queue or main last passed it over,
    /// capped at [`MAX_USES`].
    uses: u8,
}

/// A bounded store of typed [`Artifact`]s.
///
/// The budget charges each artifact's [`Artifact::retained_nodes`] at
/// insert time. For a circuit compiled on a miss that is its compiled
/// (raw) size only: the evaluation tape its first counting or MPE query
/// builds is not charged.
pub struct Registry {
    compiler: DecisionDnnfCompiler,
    max_retained_nodes: usize,
    entries: FxHashMap<u64, Entry>,
    /// Keys of the entries in small and in main, oldest at the front.
    small: VecDeque<u64>,
    main: VecDeque<u64>,
    /// Nodes charged to the entries in small.
    small_nodes: usize,
    /// Keys evicted from small, oldest at the front, and the same keys as
    /// a set. Only a key not in the ghost enters small, and only small
    /// pushes to the ghost, so the queue holds no duplicates.
    ghost: VecDeque<u64>,
    ghost_keys: FxHashSet<u64>,
    retained_nodes: usize,
    stats: RegistryStats,
}

impl Registry {
    /// A registry with the default compiler and the given retained-node
    /// budget.
    pub fn new(max_retained_nodes: usize) -> Self {
        Self::with_compiler(max_retained_nodes, DecisionDnnfCompiler::default())
    }

    /// A registry whose misses compile with a specific compiler
    /// configuration (read by [`crate::Engine::compile`]).
    pub fn with_compiler(max_retained_nodes: usize, compiler: DecisionDnnfCompiler) -> Self {
        Registry {
            compiler,
            max_retained_nodes,
            entries: FxHashMap::default(),
            small: VecDeque::new(),
            main: VecDeque::new(),
            small_nodes: 0,
            ghost: VecDeque::new(),
            ghost_keys: FxHashSet::default(),
            retained_nodes: 0,
            stats: RegistryStats::default(),
        }
    }

    /// The compiler configuration misses compile with.
    pub fn compiler(&self) -> DecisionDnnfCompiler {
        self.compiler
    }

    /// The artifact under a fingerprint, if retained. Counts a use; moves
    /// nothing.
    pub fn get(&mut self, key: u64) -> Option<Artifact> {
        let entry = self.entries.get_mut(&key)?;
        entry.uses = (entry.uses + 1).min(MAX_USES);
        self.stats.hits += 1;
        Some(entry.artifact.clone())
    }

    /// Records a miss that was served by an out-of-band compilation — used
    /// by callers (the [`crate::Engine`]) that compile outside the registry
    /// lock and then [`Registry::insert`], so the hit/miss counters still
    /// add up to total lookups.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Inserts an externally produced artifact (one compiled on a miss,
    /// loaded from disk, or learned) under a fingerprint, then evicts down
    /// to the budget, never the entry it inserts: a single oversized
    /// artifact is kept. A new key enters small, or main if the ghost
    /// remembers it. A resident key keeps its queue, is re-charged, and
    /// counts the insert as a use. The artifact's current footprint is
    /// charged against the budget for the rest of its residence.
    pub fn insert(&mut self, key: u64, artifact: Artifact) {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.uses = (entry.uses + 1).min(MAX_USES);
            self.swap(key, artifact);
            self.evict_to_budget(Some(key));
            return;
        }
        let charged = artifact.retained_nodes();
        let in_main = self.ghost_keys.contains(&key);
        if in_main {
            trl_obs::counter!("engine.registry.readmissions").inc();
        }
        let entry = Entry {
            artifact,
            charged,
            in_main,
            uses: 0,
        };
        self.entries.insert(key, entry);
        self.retained_nodes += charged;
        // The new entry joins its queue after the eviction, so it cannot
        // be chosen.
        self.evict_to_budget(None);
        if in_main {
            self.main.push_back(key);
        } else {
            self.small.push_back(key);
            self.small_nodes += charged;
        }
    }

    /// The artifact under a fingerprint without counting a use or a hit.
    pub fn peek(&self, key: u64) -> Option<Artifact> {
        self.entries.get(&key).map(|e| e.artifact.clone())
    }

    /// Swaps a resident entry's artifact and re-snapshots its charge.
    fn swap(&mut self, key: u64, artifact: Artifact) {
        let charged = artifact.retained_nodes();
        let entry = self
            .entries
            .get_mut(&key)
            .expect("swap needs a resident key");
        let old = std::mem::replace(&mut entry.charged, charged);
        entry.artifact = artifact;
        if !entry.in_main {
            self.small_nodes = self.small_nodes - old + charged;
        }
        self.retained_nodes = self.retained_nodes - old + charged;
    }

    /// Pops queue heads until under budget, never evicting the last entry
    /// or `keep`: small's while it holds a tenth of the budget (or main is
    /// empty), main's otherwise. Then trims the ghost to its bound.
    fn evict_to_budget(&mut self, keep: Option<u64>) {
        while self.retained_nodes > self.max_retained_nodes && self.entries.len() > 1 {
            let small_turn = !self.small.is_empty()
                && (self.main.is_empty()
                    || self.small_nodes >= self.max_retained_nodes / SMALL_SHARE);
            if small_turn {
                self.pop_small();
            } else {
                self.pop_main(keep);
            }
        }
        while self.ghost.len() > GHOST_PER_ENTRY * self.entries.len() {
            let key = self.ghost.pop_front().expect("over its bound");
            self.ghost_keys.remove(&key);
        }
    }

    /// Small's oldest entry moves to main if used; unused, it is evicted
    /// into the ghost.
    fn pop_small(&mut self) {
        let key = self.small.pop_front().expect("small's turn needs an entry");
        let entry = self
            .entries
            .get_mut(&key)
            .expect("queued keys are resident");
        self.small_nodes -= entry.charged;
        if entry.uses > 0 {
            entry.in_main = true;
            self.main.push_back(key);
            trl_obs::counter!("engine.registry.promotions").inc();
        } else {
            self.evict(key);
            self.ghost.push_back(key);
            self.ghost_keys.insert(key);
        }
    }

    /// Main's oldest entry goes back to main's head with one use fewer if
    /// it was used, and is evicted otherwise. `keep` goes back unused; if
    /// it is main's only entry, the victim comes from small instead.
    fn pop_main(&mut self, keep: Option<u64>) {
        let key = self.main.pop_front().expect("main's turn needs an entry");
        let entry = self
            .entries
            .get_mut(&key)
            .expect("queued keys are resident");
        if entry.uses > 0 {
            entry.uses -= 1;
            self.main.push_back(key);
        } else if keep == Some(key) {
            self.main.push_back(key);
            if self.main.len() == 1 {
                self.pop_small();
            }
        } else {
            self.evict(key);
        }
    }

    fn evict(&mut self, key: u64) {
        let gone = self.entries.remove(&key).expect("queued keys are resident");
        self.retained_nodes -= gone.charged;
        self.stats.evictions += 1;
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
    /// insert time.
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
    use crate::prepared::PreparedCircuit;
    use std::sync::Arc;
    use trl_core::SplitMix64;

    /// A circuit artifact charged exactly `nodes` nodes.
    fn sized(nodes: usize) -> Artifact {
        let mut b = trl_nnf::CircuitBuilder::new(nodes);
        let lits: Vec<_> = (0..nodes as u32)
            .map(|v| b.lit(trl_core::Var(v).positive()))
            .collect();
        let c = b.finish(*lits.last().unwrap());
        Artifact::Circuit(Arc::new(PreparedCircuit::new(c)))
    }

    /// Compiles `cnf` and inserts it as [`crate::Engine::compile`] does on
    /// a miss.
    fn compile_into(r: &mut Registry, cnf: &Cnf) -> Arc<PreparedCircuit> {
        let circuit = Arc::new(PreparedCircuit::new(r.compiler().compile(cnf)));
        r.note_miss();
        r.insert(fingerprint(cnf), Artifact::Circuit(Arc::clone(&circuit)));
        circuit
    }

    /// A request for `key`: a hit, or a miss that inserts `nodes` nodes.
    fn request(r: &mut Registry, key: u64, nodes: usize) {
        if r.get(key).is_none() {
            r.note_miss();
            r.insert(key, sized(nodes));
        }
    }

    /// S3-FIFO written the plain way: `Vec` queues searched linearly and
    /// every total recomputed from scratch.
    struct VecS3Fifo {
        budget: usize,
        small: Vec<u64>,
        main: Vec<u64>,
        ghost: Vec<u64>,
        charge: FxHashMap<u64, usize>,
        uses: FxHashMap<u64, u8>,
        evicted: Vec<u64>,
        promotions: usize,
        readmissions: usize,
    }

    impl VecS3Fifo {
        fn new(budget: usize) -> Self {
            VecS3Fifo {
                budget,
                small: Vec::new(),
                main: Vec::new(),
                ghost: Vec::new(),
                charge: FxHashMap::default(),
                uses: FxHashMap::default(),
                evicted: Vec::new(),
                promotions: 0,
                readmissions: 0,
            }
        }

        fn retained(&self) -> usize {
            self.charge.values().sum()
        }

        fn small_nodes(&self) -> usize {
            self.small.iter().map(|k| self.charge[k]).sum()
        }

        fn use_once(&mut self, key: u64) -> bool {
            let Some(uses) = self.uses.get_mut(&key) else {
                return false;
            };
            *uses = (*uses + 1).min(3);
            true
        }

        fn insert(&mut self, key: u64, charge: usize) {
            if self.use_once(key) {
                self.charge.insert(key, charge);
                self.evict(Some(key));
                return;
            }
            self.charge.insert(key, charge);
            self.uses.insert(key, 0);
            let to_main = self.ghost.contains(&key);
            self.readmissions += usize::from(to_main);
            self.evict(None);
            if to_main {
                self.main.push(key);
            } else {
                self.small.push(key);
            }
        }

        fn evict(&mut self, keep: Option<u64>) {
            while self.retained() > self.budget && self.charge.len() > 1 {
                let small_turn = !self.small.is_empty()
                    && (self.main.is_empty() || self.small_nodes() >= self.budget / 10);
                if small_turn {
                    self.pop_small();
                    continue;
                }
                let key = self.main.remove(0);
                if self.uses[&key] > 0 {
                    *self.uses.get_mut(&key).unwrap() -= 1;
                    self.main.push(key);
                } else if keep == Some(key) {
                    self.main.push(key);
                    if self.main.len() == 1 {
                        self.pop_small();
                    }
                } else {
                    self.drop_entry(key);
                }
            }
            while self.ghost.len() > 2 * self.charge.len() {
                self.ghost.remove(0);
            }
        }

        fn pop_small(&mut self) {
            let key = self.small.remove(0);
            if self.uses[&key] > 0 {
                self.main.push(key);
                self.promotions += 1;
            } else {
                self.drop_entry(key);
                self.ghost.push(key);
            }
        }

        fn drop_entry(&mut self, key: u64) {
            self.charge.remove(&key);
            self.uses.remove(&key);
            self.evicted.push(key);
        }
    }

    #[test]
    fn s3fifo_matches_the_reference_model() {
        // A scripted mix of inserts, re-inserts, hits, misses and peeks
        // over a small key space; the registry must keep the same
        // queues, uses and charges as the reference at every step.
        const BUDGET: usize = 40;
        let mut rng = SplitMix64::new(7);
        let mut r = Registry::new(BUDGET);
        let mut model = VecS3Fifo::new(BUDGET);
        for step in 0..6_000 {
            let key = rng.below(24) as u64;
            match rng.below(10) {
                0..=2 => {
                    // Now and then a near-budget charge, so a re-insert
                    // must rotate main past the key it keeps.
                    let charge = match rng.below(25) {
                        0 => BUDGET - rng.below(8),
                        _ => 1 + rng.below(12),
                    };
                    r.insert(key, sized(charge));
                    model.insert(key, charge);
                }
                3..=7 => assert_eq!(r.get(key).is_some(), model.use_once(key)),
                _ => assert_eq!(r.peek(key).is_some(), model.charge.contains_key(&key)),
            }
            assert!(r.small.iter().eq(&model.small), "step {step}: small");
            assert!(r.main.iter().eq(&model.main), "step {step}: main");
            assert!(r.ghost.iter().eq(&model.ghost), "step {step}: ghost");
            assert_eq!(r.ghost_keys.len(), r.ghost.len(), "step {step}");
            assert!(r.ghost.len() <= GHOST_PER_ENTRY * r.len(), "step {step}");
            assert_eq!(r.len(), model.charge.len(), "step {step}: residents");
            for (key, entry) in &r.entries {
                assert_eq!(entry.charged, model.charge[key], "step {step}");
                assert_eq!(entry.uses, model.uses[key], "step {step}");
                assert_eq!(entry.in_main, model.main.contains(key), "step {step}");
            }
            assert_eq!(r.retained_nodes(), model.retained(), "step {step}");
            assert_eq!(r.small_nodes, model.small_nodes(), "step {step}");
            assert_eq!(r.stats().evictions, model.evicted.len() as u64);
        }
        assert!(model.evicted.len() > 500, "the script must evict often");
        assert!(model.promotions > 100, "the script must promote often");
        assert!(model.readmissions > 100, "the script must readmit often");
        // Drain both through one oversized insert.
        r.insert(99, sized(BUDGET));
        model.insert(99, BUDGET);
        assert_eq!(r.stats().evictions, model.evicted.len() as u64);
        assert_eq!(r.len(), 1);
        assert!(r.ghost.len() <= GHOST_PER_ENTRY);
    }

    #[test]
    fn a_hot_set_used_once_survives_a_scan_of_one_off_inserts() {
        const BUDGET: usize = 1_000;
        let mut r = Registry::new(BUDGET);
        for key in 0..5 {
            r.insert(key, sized(100));
        }
        for key in 0..5 {
            assert!(r.get(key).is_some());
        }
        // One-off formulas worth twice the budget, each never used again.
        for key in 100..120 {
            r.insert(key, sized(100));
        }
        assert!(r.stats().evictions >= 10);
        for key in 0..5 {
            assert!(r.peek(key).is_some(), "hot key {key} evicted by the scan");
        }
    }

    #[test]
    fn a_new_popular_set_becomes_resident_within_bounded_misses() {
        const BUDGET: usize = 1_000;
        let mut r = Registry::new(BUDGET);
        // The old popular set fills the budget, each entry used thrice.
        for _ in 0..4 {
            for key in 0..10 {
                request(&mut r, key, 100);
            }
        }
        // Popularity moves to a disjoint set of the same size.
        let before = r.stats().misses;
        for _ in 0..6 {
            for key in 100..110 {
                request(&mut r, key, 100);
            }
        }
        let misses = r.stats().misses - before;
        assert!(misses <= 20, "{misses} misses to adopt 10 new keys");
        for key in 100..110 {
            assert!(r.peek(key).is_some(), "new popular key {key} not resident");
        }
    }

    #[test]
    fn the_newest_entry_survives_the_next_insert() {
        // A client that compiles and then queries by key relies on the
        // artifact outliving the next compile, whatever else is resident.
        let mut r = Registry::new(1_000);
        for key in 0..4 {
            request(&mut r, key, 100);
            request(&mut r, key, 100);
        }
        for key in 10..40 {
            r.insert(key, sized(50 + 25 * (key as usize % 4)));
            assert!(r.peek(key).is_some(), "key {key} evicted by its own insert");
            assert!(
                r.peek(key - 1).is_some() || key == 10,
                "key {} evicted",
                key - 1
            );
        }
        assert!(r.stats().evictions > 10);
    }

    #[test]
    fn a_re_insert_never_evicts_the_key_it_inserts() {
        // 1..4 are used more than 0, so main reaches 0 unused while they
        // are still resident.
        let mut r = Registry::new(100);
        for key in 0..4 {
            for _ in 0..if key == 0 { 2 } else { 4 } {
                request(&mut r, key, 20);
            }
        }
        request(&mut r, 4, 20);
        request(&mut r, 5, 20); // moves 0..4 to main, evicts 4
        assert!(r.main.contains(&0));
        r.insert(0, sized(200));
        assert_eq!(r.len(), 1);
        assert!(r.peek(0).is_some());
        assert_eq!(r.retained_nodes(), 200);

        // Kept as main's only entry: the victim comes from a small queue
        // below its share.
        let mut r = Registry::new(100);
        request(&mut r, 0, 50);
        request(&mut r, 0, 50);
        request(&mut r, 1, 50);
        request(&mut r, 2, 5); // moves 0 to main, evicts 1
        assert!(r.main.iter().eq(&[0]) && r.small.iter().eq(&[2]));
        r.insert(0, sized(200));
        assert_eq!(r.len(), 1);
        assert!(r.peek(0).is_some());
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
        let first = compile_into(&mut r, &cnf);
        let second = r.get(fingerprint(&cnf)).expect("resident");
        assert!(Arc::ptr_eq(&first, second.as_circuit().unwrap()));
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
    fn unused_entry_is_evicted_by_node_budget() {
        let mut r = Registry::new(25);
        r.insert(0, sized(10));
        r.insert(1, sized(10));
        // Use 0, so 1 is the unused entry when 2 arrives.
        assert!(r.get(0).is_some());
        r.insert(2, sized(10));
        assert_eq!(r.stats().evictions, 1);
        assert!(r.retained_nodes() <= 25);
        assert!(r.peek(0).is_some(), "the used entry moved to main");
        assert!(r.peek(1).is_none(), "the unused entry was evicted");
        assert!(r.peek(2).is_some());
        // 1's key is remembered: inserted again, it goes straight to main.
        r.insert(1, sized(10));
        assert!(r.main.contains(&1));
        assert!(r.peek(2).is_none(), "2 was the unused entry in small");
    }

    #[test]
    fn single_oversized_artifact_is_kept() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut r = Registry::new(1); // absurdly small budget
        let a = compile_into(&mut r, &cnf);
        assert_eq!(r.len(), 1);
        assert!(r.retained_nodes() >= a.retained_nodes());
        // A second formula displaces it (the new one is the working set).
        let other = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        compile_into(&mut r, &other);
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
        let a = compile_into(&mut r, &cnf);
        a.answer(&crate::executor::Query::ModelCount); // grow footprint
        assert!(a.retained_nodes() > a.raw().node_count());
        let other = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        compile_into(&mut r, &other); // evicts `a`; must not panic
        assert_eq!(r.stats().evictions, 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_replaces_under_same_key() {
        let cnf = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        let a = compile_into(&mut r, &cnf);
        let key = fingerprint(&cnf);
        r.insert(key, Artifact::Circuit(Arc::clone(&a)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.retained_nodes(), a.retained_nodes());
        assert!(r.get(key).is_some());
        assert!(r.get(key ^ 1).is_none());
    }

    #[test]
    fn peek_does_not_touch_lru_or_stats() {
        let cnf = Cnf::parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        compile_into(&mut r, &cnf);
        let key = fingerprint(&cnf);
        let stats = r.stats();
        assert!(r.peek(key).is_some());
        assert!(r.peek(key ^ 1).is_none());
        assert_eq!(r.stats(), stats, "peek must not count as traffic");
        assert_eq!(r.entries[&key].uses, 0, "peek must not count as a use");
    }

    #[test]
    fn mixed_kind_artifacts_share_one_lru_budget() {
        use crate::artifact::classifier_fingerprint;
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut r = Registry::new(1 << 20);
        let circuit = compile_into(&mut r, &cnf);
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
