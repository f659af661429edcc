//! CNF → Decision-DNNF by exhaustive DPLL with component caching.
//!
//! The compiler is the "trace" construction of \[38\]: run a DPLL search that
//! does not stop at the first model, record unit implications as conjoined
//! literals, split the residual CNF into variable-disjoint *components*
//! (conjoined decomposably), branch on a variable (the deterministic
//! decision or-gate `(x ∧ Δ|x) ∨ (¬x ∧ Δ|¬x)`), and cache compiled
//! components so shared subproblems compile once. This is exactly how
//! Dsharp arises from sharpSAT \[56, 88\].
//!
//! The search core uses the machinery of modern model counters:
//!
//! * **Two-watched-literal propagation.** Each clause of length ≥ 2 keeps
//!   two watched literals; assigning a literal only visits the clauses
//!   watching its negation. Watches need no restoration on backtracking.
//!   Global watches are sound under component decomposition: a clause
//!   outside the current component shares no unassigned variable with it,
//!   so it can never become unit while the component is being compiled.
//! * **Packed component signatures.** A component is keyed by its sorted
//!   clause-index list plus a 64-bit hash of its reduced literal content,
//!   computed while the component is discovered — no per-clause
//!   allocation, unlike re-materializing reduced clause sets. Distinct
//!   clause sets never collide (the index list is compared exactly);
//!   distinct reduced contents over the *same* clause set collide with
//!   probability ~2⁻⁶⁴, the standard sharpSAT/Dsharp trade. [`SignatureMode::Exact`] keeps
//!   the allocation-heavy exact keys for ablation, and debug builds
//!   shadow every packed entry with its exact key to detect collisions.
//! * **Dynamic branching.** The default [`Heuristic::Vsads`] scores a
//!   variable by clause activity (bumped on every conflict, periodically
//!   halved) plus its occurrence count in the current component —
//!   sharpSAT's VSADS. The seed's static max-occurrence rule and a naive
//!   first-unassigned rule remain as ablation baselines.
//! * **One-pass component discovery.** Components are found by a single
//!   pass over the parent component's clauses that joins each active
//!   clause's unassigned variables in a union-find, with epoch-stamped
//!   scratch arrays. The same pass records each component's sorted clause
//!   list, its variables with their occurrence counts, and its packed
//!   signature, so neither branching nor the cache probe walks the
//!   clauses again. Components live in flat buffers used as a stack, so
//!   discovery allocates nothing once they have grown.
//!
//! The output [`Circuit`] is decomposable and deterministic **by
//! construction**, so every d-DNNF query of `trl-nnf` applies.

use std::hash::Hasher;
use std::time::{Duration, Instant};

use trl_core::hash::FxHasher;
use trl_core::{FxHashMap, Lit, Var};
use trl_nnf::{Circuit, CircuitBuilder, LitWeights, NnfId};
use trl_prop::Cnf;

/// Component-cache configuration, an ablation knob of `exp15`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// Cache compiled components keyed on their reduced clause sets.
    #[default]
    Components,
    /// No caching: pure search-tree trace (can be exponentially slower).
    None,
}

/// How cached components are keyed, an ablation knob of `exp15`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SignatureMode {
    /// Sorted clause-index list + 64-bit content hash. No per-clause
    /// allocation on probes; collisions are possible but astronomically
    /// unlikely (and checked in debug builds).
    #[default]
    Packed,
    /// The reduced clause sets themselves. Exact, but every probe
    /// materializes the component's clauses.
    Exact,
}

/// Branching heuristic, an ablation knob of `exp15`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Heuristic {
    /// VSADS: conflict-driven variable activity plus the occurrence count
    /// in the current component. Activities are bumped for the variables
    /// of every conflicting clause and halved every 128 conflicts.
    #[default]
    Vsads,
    /// The variable occurring most often in the component (ties broken
    /// toward the lowest index) — the seed compiler's static rule.
    MaxOccurrence,
    /// The lowest-indexed unassigned variable — the naive baseline.
    FirstUnassigned,
}

/// Counters describing one compilation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts hit during unit propagation.
    pub conflicts: u64,
    /// Literals processed by the watched-literal propagator.
    pub propagations: u64,
    /// Component-cache hits.
    pub cache_hits: u64,
    /// Component-cache misses (each miss compiles a component).
    pub cache_misses: u64,
    /// Nodes in the finished circuit.
    pub nodes: usize,
    /// Edges in the finished circuit.
    pub edges: usize,
}

/// CNF → Decision-DNNF compiler.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionDnnfCompiler {
    /// Cache configuration.
    pub cache: CacheMode,
    /// Component-key representation.
    pub signature: SignatureMode,
    /// Branching heuristic.
    pub heuristic: Heuristic,
}

/// Compilations over at least this many variables run on a dedicated
/// big-stack thread: the search recurses once per decision level, and deep
/// instances (e.g. 50k-variable chains) overflow the default stack.
const BIG_INSTANCE_VARS: usize = 5_000;
const COMPILE_STACK_BYTES: usize = 256 * 1024 * 1024;

impl DecisionDnnfCompiler {
    /// Creates a compiler with the given cache mode and default signature
    /// and heuristic.
    pub fn new(cache: CacheMode) -> Self {
        DecisionDnnfCompiler {
            cache,
            ..Self::default()
        }
    }

    /// Sets the component-key representation.
    pub fn with_signature(mut self, signature: SignatureMode) -> Self {
        self.signature = signature;
        self
    }

    /// Sets the branching heuristic.
    pub fn with_heuristic(mut self, heuristic: Heuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Compiles a CNF into a Decision-DNNF circuit over the CNF's variable
    /// universe.
    pub fn compile(&self, cnf: &Cnf) -> Circuit {
        self.compile_with_stats(cnf).0
    }

    /// Compiles and reports search statistics.
    ///
    /// Large instances are compiled on a dedicated thread with a big stack
    /// (the search recurses per decision level), so callers never need to
    /// manage stack size themselves.
    pub fn compile_with_stats(&self, cnf: &Cnf) -> (Circuit, CompileStats) {
        if cnf.num_vars() < BIG_INSTANCE_VARS {
            return self.run(cnf);
        }
        std::thread::scope(|scope| {
            match std::thread::Builder::new()
                .name("ddnnf-compile".into())
                .stack_size(COMPILE_STACK_BYTES)
                .spawn_scoped(scope, || self.run(cnf))
            {
                Ok(handle) => handle.join().expect("compilation thread panicked"),
                // Thread spawn failed (resource limits): degrade to the
                // caller's stack rather than giving up.
                Err(_) => self.run(cnf),
            }
        })
    }

    fn run(&self, cnf: &Cnf) -> (Circuit, CompileStats) {
        // Phase split: setup (occurrence lists, watches), search (the
        // decision/propagation loop), emit (arena finalization). Four
        // clock reads per compilation — noise next to the search itself.
        let phase = Instant::now();
        let mut st = Compilation::new(cnf, *self);
        let setup = phase.elapsed();
        let phase = Instant::now();
        let root = st.compile_root();
        let search = phase.elapsed();
        let mut stats = st.stats;
        let phase = Instant::now();
        let circuit = st.builder.finish(root);
        let emit = phase.elapsed();
        stats.nodes = circuit.node_count();
        stats.edges = circuit.edge_count();
        record_compile_metrics(&stats, setup, search, emit);
        (circuit, stats)
    }
}

/// Publishes one finished compilation to the process-global metrics:
/// search counters accumulated as one batch of adds (the search loop
/// itself stays untouched), arena growth, and per-phase wall time.
fn record_compile_metrics(stats: &CompileStats, setup: Duration, search: Duration, emit: Duration) {
    trl_obs::counter!("compiler.compiles").inc();
    trl_obs::counter!("compiler.decisions").add(stats.decisions);
    trl_obs::counter!("compiler.conflicts").add(stats.conflicts);
    trl_obs::counter!("compiler.propagations").add(stats.propagations);
    trl_obs::counter!("compiler.cache_hits").add(stats.cache_hits);
    trl_obs::counter!("compiler.cache_misses").add(stats.cache_misses);
    trl_obs::counter!("compiler.arena_nodes").add(stats.nodes as u64);
    trl_obs::counter!("compiler.arena_edges").add(stats.edges as u64);
    trl_obs::histogram!("compiler.phase.setup_us").record(setup);
    trl_obs::histogram!("compiler.phase.search_us").record(search);
    trl_obs::histogram!("compiler.phase.emit_us").record(emit);
    trl_obs::histogram!("compiler.compile_us").record(setup + search + emit);
    trl_obs::record_span("compiler.setup", setup);
    trl_obs::record_span("compiler.search", search);
    trl_obs::record_span("compiler.emit", emit);
}

const UNSET: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;

/// `Scratch::clause_owner` entry of a satisfied clause, and the "none
/// yet" value of the other discovery scratch entries.
const NO_OWNER: u32 = u32::MAX;

/// The union-find root of variable `v`, halving the path on the way.
fn find(link: &mut [u32], mut v: u32) -> u32 {
    while link[v as usize] != v {
        let up = link[link[v as usize] as usize];
        link[v as usize] = up;
        v = up;
    }
    v
}

/// Exact component key: the sorted list of reduced clauses.
type ExactKey = Vec<Vec<Lit>>;

/// One packed-cache bucket: entries sharing a content hash, distinguished
/// by their exact clause-index lists.
type PackedBucket = Vec<(Box<[u32]>, NnfId)>;

/// The SplitMix64 finalizer: one literal's term in a content hash.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether some literal of `clause` is true under the literal values
/// `value`.
fn satisfied(clause: &[Lit], value: &[u8]) -> bool {
    // No early exit: clauses are short, and a data-dependent exit costs
    // more in mispredictions than the remaining loads.
    clause
        .iter()
        .fold(false, |sat, &l| sat | (value[l.code() as usize] == TRUE))
}

/// The flat component buffers, used as stacks: each `compile_component`
/// frame appends the components it discovers and truncates back on
/// return, so discovery allocates nothing once they have grown.
#[derive(Default)]
struct ComponentStack {
    /// Clause lists of the components, concatenated.
    clauses: Vec<u32>,
    /// Variable lists of the components, concatenated. Their occurrence
    /// counts stay in `Scratch::var_count` until the component is branched
    /// on: the passes that run in between, inside earlier siblings'
    /// subtrees, touch only those siblings' variables.
    vars: Vec<u32>,
    comps: Vec<Component>,
}

impl ComponentStack {
    /// Buffer lengths to truncate back to.
    fn mark(&self) -> (usize, usize, usize) {
        (self.clauses.len(), self.vars.len(), self.comps.len())
    }

    fn truncate(&mut self, mark: (usize, usize, usize)) {
        self.clauses.truncate(mark.0);
        self.vars.truncate(mark.1);
        self.comps.truncate(mark.2);
    }

    /// Pushes the parent's active clauses, in order, and all touched
    /// variables as one component: the parent did not split.
    fn push_whole(&mut self, parent: std::ops::Range<usize>, scratch: &Scratch) {
        let clause_lo = self.clauses.len() as u32;
        for k in parent {
            let ci = self.clauses[k];
            if scratch.clause_owner[ci as usize] != NO_OWNER {
                self.clauses.push(ci);
            }
        }
        let var_lo = self.vars.len() as u32;
        self.vars.extend_from_slice(&scratch.touched);
        self.comps.push(Component {
            clauses: (clause_lo, self.clauses.len() as u32),
            vars: (var_lo, self.vars.len() as u32),
            sig: 0,
        });
    }

    /// Pushes the components the parent split into, from `comps[first]`
    /// on: numbers them in order of their first clause, then lays out
    /// their clause and variable lists. The parent list is sorted, so
    /// distributing it in order leaves every component's list sorted.
    fn push_split(&mut self, parent: std::ops::Range<usize>, scratch: &mut Scratch) {
        let first = self.comps.len();
        // Pass 2: number the components in order of their first clause
        // and size them.
        for &v in scratch.touched.iter() {
            scratch.var_comp[v as usize] = NO_OWNER;
        }
        let new_comp = |comps: &mut Vec<Component>| {
            comps.push(Component {
                clauses: (0, 0),
                vars: (0, 0),
                sig: 0,
            });
            (comps.len() - 1 - first) as u32
        };
        for k in parent.clone() {
            let ci = self.clauses[k] as usize;
            let owner = match scratch.clause_owner[ci] {
                NO_OWNER => continue,
                rep => {
                    let root = find(&mut scratch.var_link, rep) as usize;
                    if scratch.var_comp[root] == NO_OWNER {
                        scratch.var_comp[root] = new_comp(&mut self.comps);
                    }
                    scratch.var_comp[root]
                }
            };
            scratch.clause_owner[ci] = owner;
            self.comps[first + owner as usize].clauses.1 += 1;
        }
        for &v in scratch.touched.iter() {
            let c = scratch.var_comp[find(&mut scratch.var_link, v) as usize];
            scratch.var_comp[v as usize] = c;
            self.comps[first + c as usize].vars.1 += 1;
        }

        // Pass 3: lay the lists out.
        let mut clause_end = self.clauses.len() as u32;
        let mut var_end = self.vars.len() as u32;
        for comp in &mut self.comps[first..] {
            let (clauses, vars) = (comp.clauses.1, comp.vars.1);
            comp.clauses = (clause_end, clause_end);
            comp.vars = (var_end, var_end);
            clause_end += clauses;
            var_end += vars;
        }
        self.clauses.resize(clause_end as usize, 0);
        self.vars.resize(var_end as usize, 0);
        for k in parent {
            let ci = self.clauses[k];
            let owner = scratch.clause_owner[ci as usize];
            if owner != NO_OWNER {
                let at = &mut self.comps[first + owner as usize].clauses.1;
                self.clauses[*at as usize] = ci;
                *at += 1;
            }
        }
        for &v in scratch.touched.iter() {
            let at = &mut self.comps[first + scratch.var_comp[v as usize] as usize]
                .vars
                .1;
            self.vars[*at as usize] = v;
            *at += 1;
        }
    }
}

/// Per-variable and per-clause scratch of a discovery pass, reused across
/// passes.
struct Scratch {
    /// Epoch counter for `var_mark`; each pass bumps it instead of
    /// clearing the per-variable arrays.
    stamp: u64,
    var_mark: Vec<u64>,
    /// Per variable: its union-find link.
    var_link: Vec<u32>,
    /// Per variable: its literal occurrences in the active clauses of its
    /// component, read when that component is branched on.
    var_count: Vec<u32>,
    /// Per variable: the pass-local index of its component.
    var_comp: Vec<u32>,
    /// The variables the pass met, in order of first occurrence.
    touched: Vec<u32>,
    /// Per clause: its reduced-literal content hash.
    clause_content: Vec<u64>,
    /// Per clause: a representative variable after pass 1, the pass-local
    /// index of its component after pass 2, or [`NO_OWNER`] if satisfied.
    clause_owner: Vec<u32>,
}

/// One connected component found by [`Compilation::discover`]. Its clause
/// and variable lists live in the [`ComponentStack`] buffers.
#[derive(Clone, Copy)]
struct Component {
    /// Range of the component's sorted clause indices in
    /// `ComponentStack::clauses`.
    clauses: (u32, u32),
    /// Range of its unassigned variables in `ComponentStack::vars`.
    vars: (u32, u32),
    /// Packed cache signature; zero unless the packed cache is in use.
    sig: u64,
}

struct Compilation<'a> {
    cnf: &'a Cnf,
    cfg: DecisionDnnfCompiler,
    builder: CircuitBuilder,
    /// Current value of every literal, indexed by literal code
    /// ([`UNSET`] / [`FALSE`] / [`TRUE`]); a literal and its negation are
    /// assigned together.
    value: Vec<u8>,
    /// Assigned literals in assignment order.
    trail: Vec<Lit>,
    /// Flattened clause literals; the slice for clause `ci` is
    /// `lits[clause_start[ci]..clause_start[ci + 1]]`, and for clauses of
    /// length ≥ 2 its first two slots hold the watched literals.
    lits: Vec<Lit>,
    clause_start: Vec<u32>,
    /// Per literal code: indices of clauses watching that literal.
    watchers: Vec<Vec<u32>>,
    initial_units: Vec<Lit>,
    trivially_false: bool,
    /// Per literal code: the literal's term in a clause content hash.
    lit_mix: Vec<u64>,
    /// Discovery scratch, reused across passes.
    scratch: Scratch,
    /// Components discovered along the current search path.
    stack: ComponentStack,
    /// VSADS activity per variable.
    activity: Vec<f64>,
    /// Packed cache: content hash → entries whose clause-index lists are
    /// compared exactly. Probes allocate nothing; inserts clone the
    /// component's index list once.
    packed_cache: FxHashMap<u64, PackedBucket>,
    exact_cache: FxHashMap<ExactKey, NnfId>,
    /// Debug shadow of the packed cache: every packed entry also records
    /// its exact key, so a signature collision trips an assertion instead
    /// of silently reusing the wrong component.
    #[cfg(debug_assertions)]
    shadow: FxHashMap<(u64, Vec<u32>), ExactKey>,
    stats: CompileStats,
}

impl<'a> Compilation<'a> {
    fn new(cnf: &'a Cnf, cfg: DecisionDnnfCompiler) -> Self {
        let n = cnf.num_vars();
        let m = cnf.clauses().len();
        let total: usize = cnf.clauses().iter().map(|c| c.len()).sum();
        let mut lits = Vec::with_capacity(total);
        let mut clause_start = Vec::with_capacity(m + 1);
        clause_start.push(0u32);
        for c in cnf.clauses() {
            lits.extend_from_slice(c.literals());
            clause_start.push(lits.len() as u32);
        }
        let mut watchers = vec![Vec::new(); 2 * n];
        let mut initial_units = Vec::new();
        let mut trivially_false = false;
        for ci in 0..m {
            let s = clause_start[ci] as usize;
            let e = clause_start[ci + 1] as usize;
            match e - s {
                0 => trivially_false = true,
                1 => initial_units.push(lits[s]),
                _ => {
                    watchers[lits[s].code() as usize].push(ci as u32);
                    watchers[lits[s + 1].code() as usize].push(ci as u32);
                }
            }
        }
        Compilation {
            cnf,
            cfg,
            builder: CircuitBuilder::new(n),
            value: vec![UNSET; 2 * n],
            trail: Vec::new(),
            lits,
            clause_start,
            watchers,
            initial_units,
            trivially_false,
            lit_mix: (0..2 * n as u64).map(|code| mix64(code + 1)).collect(),
            scratch: Scratch {
                stamp: 0,
                var_mark: vec![0; n],
                var_link: vec![0; n],
                var_count: vec![0; n],
                var_comp: vec![0; n],
                touched: Vec::new(),
                clause_content: vec![0; m],
                clause_owner: vec![NO_OWNER; m],
            },
            stack: ComponentStack::default(),
            activity: vec![0.0; n],
            packed_cache: FxHashMap::default(),
            exact_cache: FxHashMap::default(),
            #[cfg(debug_assertions)]
            shadow: FxHashMap::default(),
            stats: CompileStats::default(),
        }
    }

    fn lit_value(&self, l: Lit) -> u8 {
        self.value[l.code() as usize]
    }

    fn assign(&mut self, l: Lit) {
        self.value[l.code() as usize] = TRUE;
        self.value[(!l).code() as usize] = FALSE;
        self.trail.push(l);
    }

    fn backtrack_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().unwrap();
            self.value[l.code() as usize] = UNSET;
            self.value[(!l).code() as usize] = UNSET;
        }
    }

    /// Watched-literal propagation of everything on the trail from `from`
    /// onward. Returns `false` on conflict (caller must backtrack).
    fn propagate(&mut self, from: usize) -> bool {
        let mut qhead = from;
        while qhead < self.trail.len() {
            let l = self.trail[qhead];
            qhead += 1;
            self.stats.propagations += 1;
            let fl = !l;
            let fcode = fl.code() as usize;
            let mut i = 0;
            'watch: while i < self.watchers[fcode].len() {
                let ci = self.watchers[fcode][i] as usize;
                let start = self.clause_start[ci] as usize;
                let end = self.clause_start[ci + 1] as usize;
                // Normalize: the falsified watch sits at `start + 1`.
                if self.lits[start] == fl {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                if self.lit_value(first) == TRUE {
                    i += 1;
                    continue;
                }
                for k in (start + 2)..end {
                    let cand = self.lits[k];
                    if self.lit_value(cand) != FALSE {
                        // Move the new watch into position and transfer the
                        // clause to its watch list.
                        self.lits.swap(start + 1, k);
                        self.watchers[cand.code() as usize].push(ci as u32);
                        self.watchers[fcode].swap_remove(i);
                        continue 'watch;
                    }
                }
                // All other literals false: unit on `first`, or conflict.
                match self.lit_value(first) {
                    FALSE => {
                        self.on_conflict(ci);
                        return false;
                    }
                    UNSET => self.assign(first),
                    _ => unreachable!(),
                }
                i += 1;
            }
        }
        true
    }

    fn on_conflict(&mut self, ci: usize) {
        self.stats.conflicts += 1;
        if self.cfg.heuristic != Heuristic::Vsads {
            return;
        }
        let s = self.clause_start[ci] as usize;
        let e = self.clause_start[ci + 1] as usize;
        for k in s..e {
            let vi = self.lits[k].var().index();
            self.activity[vi] += 1.0;
        }
        if self.stats.conflicts.is_multiple_of(128) {
            for a in &mut self.activity {
                *a *= 0.5;
            }
        }
    }

    /// Partitions the still-active clauses of the component `parent` (a
    /// clause range of the component stack) into variable-connected
    /// components, pushing them onto the stack in order of their smallest
    /// clause index.
    ///
    /// Connectivity comes from a union-find over the unassigned variables,
    /// so every clause of `parent` is read once and no other clause is
    /// looked at: a clause outside `parent` that mentions a variable of
    /// `parent` was satisfied when `parent` was discovered (or it would
    /// have joined it), and assignments only grow below that point.
    ///
    /// The same pass records everything the search needs from a component
    /// later: its sorted clause list (canonical for caching), its
    /// unassigned variables with their literal-occurrence counts (the
    /// branching scores), and its packed signature — a 64-bit hash of the
    /// clause indices plus their unassigned literals. Each clause's literal
    /// contribution is a commutative sum of per-literal mixes, because
    /// watch swaps permute the stored literal order between probes of the
    /// same logical component.
    fn discover(&mut self, parent: (u32, u32)) {
        let packed =
            self.cfg.cache == CacheMode::Components && self.cfg.signature == SignatureMode::Packed;
        let Compilation {
            scratch,
            stack,
            lits,
            clause_start,
            value,
            lit_mix,
            ..
        } = self;
        let parent = parent.0 as usize..parent.1 as usize;

        // Pass 1: per active clause, its content hash and a representative
        // variable; its variables are counted and joined into one
        // union-find set.
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.touched.clear();
        let mut sets = 0usize;
        for k in parent.clone() {
            let ci = stack.clauses[k] as usize;
            let clause = &lits[clause_start[ci] as usize..clause_start[ci + 1] as usize];
            if satisfied(clause, value) {
                scratch.clause_owner[ci] = NO_OWNER;
                continue;
            }
            let mut content: u64 = 0;
            let mut rep = NO_OWNER;
            for &l in clause {
                if value[l.code() as usize] != UNSET {
                    continue;
                }
                content = content.wrapping_add(lit_mix[l.code() as usize]);
                let v = l.var().0;
                if scratch.var_mark[v as usize] != stamp {
                    scratch.var_mark[v as usize] = stamp;
                    scratch.var_link[v as usize] = v;
                    scratch.var_count[v as usize] = 0;
                    scratch.touched.push(v);
                    sets += 1;
                }
                scratch.var_count[v as usize] += 1;
                let root = find(&mut scratch.var_link, v);
                if rep == NO_OWNER {
                    rep = root;
                } else if root != rep {
                    scratch.var_link[root as usize] = rep;
                    sets -= 1;
                }
            }
            // Propagation succeeded, so no active clause is all-false.
            debug_assert!(
                rep != NO_OWNER,
                "an active clause has no unassigned literal"
            );
            scratch.clause_content[ci] = content;
            scratch.clause_owner[ci] = rep;
        }

        // Passes 2 and 3: group and lay out.
        let first = stack.comps.len();
        match sets {
            0 => {}
            1 => stack.push_whole(parent, scratch),
            _ => stack.push_split(parent, scratch),
        }
        if packed {
            for comp in &mut stack.comps[first..] {
                let members = &stack.clauses[comp.clauses.0 as usize..comp.clauses.1 as usize];
                let mut h = FxHasher::default();
                h.write_usize(members.len());
                for &ci in members {
                    h.write_u32(ci);
                    h.write_u64(scratch.clause_content[ci as usize]);
                }
                comp.sig = h.finish();
            }
        }
    }

    /// The clause indices of a discovered component.
    fn clauses_of(&self, comp: Component) -> &[u32] {
        &self.stack.clauses[comp.clauses.0 as usize..comp.clauses.1 as usize]
    }

    /// The exact key: the component's reduced clauses, each re-sorted
    /// (watch swaps permute stored literal order), then sorted and deduped.
    fn exact_key(&self, comp: &[u32]) -> ExactKey {
        let mut key: ExactKey = comp
            .iter()
            .map(|&ci| {
                let s = self.clause_start[ci as usize] as usize;
                let e = self.clause_start[ci as usize + 1] as usize;
                let mut reduced: Vec<Lit> = self.lits[s..e]
                    .iter()
                    .copied()
                    .filter(|&l| self.lit_value(l) == UNSET)
                    .collect();
                reduced.sort_unstable();
                reduced
            })
            .collect();
        key.sort();
        key.dedup();
        key
    }

    /// Picks the branching variable for a component according to the
    /// configured heuristic, from the variables and occurrence counts its
    /// discovery recorded. Every rule breaks ties toward the lowest index,
    /// so the choice does not depend on discovery order.
    fn pick_branch(&self, comp: Component) -> Var {
        let vars = &self.stack.vars[comp.vars.0 as usize..comp.vars.1 as usize];
        let count = &self.scratch.var_count;
        debug_assert!(!vars.is_empty(), "component has no unassigned variable");
        let v = match self.cfg.heuristic {
            Heuristic::FirstUnassigned => *vars.iter().min().unwrap(),
            Heuristic::MaxOccurrence => *vars
                .iter()
                .max_by_key(|&&v| (count[v as usize], std::cmp::Reverse(v)))
                .unwrap(),
            Heuristic::Vsads => {
                let mut best_v = u32::MAX;
                let mut best_s = f64::NEG_INFINITY;
                for &v in vars {
                    let s = self.activity[v as usize] + count[v as usize] as f64;
                    if s > best_s || (s == best_s && v < best_v) {
                        best_s = s;
                        best_v = v;
                    }
                }
                best_v
            }
        };
        Var(v)
    }

    fn compile_root(&mut self) -> NnfId {
        if self.trivially_false {
            return self.builder.false_();
        }
        for l in std::mem::take(&mut self.initial_units) {
            match self.lit_value(l) {
                FALSE => return self.builder.false_(),
                TRUE => {}
                _ => self.assign(l),
            }
        }
        let m = self.cnf.clauses().len() as u32;
        self.stack.clauses.extend(0..m);
        self.compile_component((0, m), 0, 0)
    }

    /// Compiles the sub-CNF given by the clause range `comp` of the
    /// component stack under the current partial assignment. `qfrom` is
    /// the trail index of the first literal not yet propagated; `imp_from`
    /// is the trail index from which assignments count as this call's
    /// implied cube (and to which it backtracks).
    fn compile_component(&mut self, comp: (u32, u32), qfrom: usize, imp_from: usize) -> NnfId {
        if !self.propagate(qfrom) {
            self.backtrack_to(imp_from);
            return self.builder.false_();
        }
        let mark = self.stack.mark();
        self.discover(comp);
        let cube = self.builder.cube(self.trail[imp_from..].iter().copied());
        let result = if self.stack.comps.len() == mark.2 {
            cube
        } else {
            let found = mark.2..self.stack.comps.len();
            let mut parts: Vec<NnfId> = Vec::with_capacity(found.len() + 1);
            parts.push(cube);
            let mut failed = false;
            for k in found {
                let sub = self.compile_one(self.stack.comps[k]);
                if self.builder_is_false(sub) {
                    failed = true;
                    break;
                }
                parts.push(sub);
            }
            if failed {
                self.builder.false_()
            } else {
                self.builder.and(parts)
            }
        };
        self.stack.truncate(mark);
        self.backtrack_to(imp_from);
        result
    }

    fn builder_is_false(&mut self, id: NnfId) -> bool {
        id == self.builder.false_()
    }

    /// Compiles a single connected component (no propagation pending).
    fn compile_one(&mut self, comp: Component) -> NnfId {
        let pending = match self.probe_cache(comp) {
            Probe::Hit(id) => return id,
            Probe::Miss(pending) => pending,
        };
        let v = self.pick_branch(comp);
        // The variable list is dead once branched on; when it tops the
        // stack (always for a frame's last component), free it before
        // recursing, so deep single-component recursions keep clause
        // lists only.
        if comp.vars.1 as usize == self.stack.vars.len() {
            self.stack.vars.truncate(comp.vars.0 as usize);
        }
        self.stats.decisions += 1;
        let mark = self.trail.len();

        self.assign(v.positive());
        let pos_body = self.compile_component(comp.clauses, mark, mark + 1);
        self.backtrack_to(mark);

        self.assign(v.negative());
        let neg_body = self.compile_component(comp.clauses, mark, mark + 1);
        self.backtrack_to(mark);

        let pos_lit = self.builder.lit(v.positive());
        let neg_lit = self.builder.lit(v.negative());
        let pos = self.builder.and([pos_lit, pos_body]);
        let neg = self.builder.and([neg_lit, neg_body]);
        let id = self.builder.or([pos, neg]);
        self.store_cache(comp, pending, id);
        id
    }

    fn probe_cache(&mut self, comp: Component) -> Probe {
        if self.cfg.cache != CacheMode::Components {
            return Probe::Miss(PendingKey::None);
        }
        match self.cfg.signature {
            SignatureMode::Packed => {
                let clauses = self.clauses_of(comp);
                let hit = self
                    .packed_cache
                    .get(&comp.sig)
                    .and_then(|bucket| bucket.iter().find(|(cl, _)| &cl[..] == clauses))
                    .map(|&(_, id)| id);
                if let Some(id) = hit {
                    self.stats.cache_hits += 1;
                    #[cfg(debug_assertions)]
                    self.assert_no_collision(comp);
                    return Probe::Hit(id);
                }
                self.stats.cache_misses += 1;
                Probe::Miss(PendingKey::Packed(comp.sig))
            }
            SignatureMode::Exact => {
                let key = self.exact_key(self.clauses_of(comp));
                if let Some(&id) = self.exact_cache.get(&key) {
                    self.stats.cache_hits += 1;
                    return Probe::Hit(id);
                }
                self.stats.cache_misses += 1;
                Probe::Miss(PendingKey::Exact(key))
            }
        }
    }

    fn store_cache(&mut self, comp: Component, pending: PendingKey, id: NnfId) {
        match pending {
            PendingKey::None => {}
            PendingKey::Packed(sig) => {
                let clauses: Box<[u32]> = self.clauses_of(comp).into();
                #[cfg(debug_assertions)]
                self.shadow
                    .insert((sig, clauses.to_vec()), self.exact_key(&clauses));
                self.packed_cache
                    .entry(sig)
                    .or_default()
                    .push((clauses, id));
            }
            PendingKey::Exact(key) => {
                self.exact_cache.insert(key, id);
            }
        }
    }

    /// On a packed-cache hit, verify against the shadow exact key that the
    /// hit is not a content-hash collision.
    #[cfg(debug_assertions)]
    fn assert_no_collision(&self, comp: Component) {
        let clauses = self.clauses_of(comp);
        if let Some(stored) = self.shadow.get(&(comp.sig, clauses.to_vec())) {
            assert_eq!(
                stored,
                &self.exact_key(clauses),
                "packed component signature collision"
            );
        }
    }
}

enum Probe {
    Hit(NnfId),
    Miss(PendingKey),
}

enum PendingKey {
    None,
    Packed(u64),
    Exact(ExactKey),
}

/// A model counter in the compile-then-count architecture the paper
/// describes as the state of the art for (weighted) model counting.
#[derive(Default)]
pub struct ModelCounter {
    compiler: DecisionDnnfCompiler,
}

impl ModelCounter {
    /// A counter using the given compiler configuration.
    pub fn new(compiler: DecisionDnnfCompiler) -> Self {
        ModelCounter { compiler }
    }

    /// #SAT over the CNF's variable universe.
    pub fn count(&self, cnf: &Cnf) -> u128 {
        self.compiler.compile(cnf).model_count()
    }

    /// Weighted model count.
    pub fn wmc(&self, cnf: &Cnf, w: &LitWeights) -> f64 {
        self.compiler.compile(cnf).wmc(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_core::Assignment;
    use trl_nnf::properties;
    use trl_prop::Solver;

    fn lit(i: i32) -> Lit {
        Var(i.unsigned_abs() - 1).literal(i > 0)
    }

    #[test]
    fn compiles_equivalent_circuit() {
        let cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -3 4 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        for code in 0..16u64 {
            let a = Assignment::from_index(code, 4);
            assert_eq!(c.eval(&a), cnf.eval(&a), "at {code:04b}");
        }
    }

    #[test]
    fn output_is_decomposable_and_deterministic() {
        let cnf = Cnf::parse_dimacs("p cnf 5 4\n1 2 0\n-2 3 0\n4 5 0\n-4 -5 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        assert!(properties::is_decomposable(&c));
        assert!(properties::is_deterministic_exhaustive(&c));
    }

    #[test]
    fn counts_match_dpll_baseline() {
        for dimacs in [
            "p cnf 3 2\n1 2 0\n-1 3 0\n",
            "p cnf 4 4\n1 2 0\n-1 -2 0\n3 4 0\n-3 -4 0\n",
            "p cnf 1 2\n1 0\n-1 0\n", // unsat
            "p cnf 3 0\n",            // valid
            "p cnf 6 3\n1 -2 3 0\n2 4 0\n-5 6 0\n",
        ] {
            let cnf = Cnf::parse_dimacs(dimacs).unwrap();
            let expected = Solver::new(&cnf).count_models() as u128;
            for mode in [CacheMode::Components, CacheMode::None] {
                let c = DecisionDnnfCompiler::new(mode).compile(&cnf);
                assert_eq!(c.model_count(), expected, "{dimacs:?} mode {mode:?}");
            }
        }
    }

    #[test]
    fn component_decomposition_produces_and_of_parts() {
        // Two independent blocks: (x0∨x1) and (x2∨x3). The compiler must
        // conjoin two separately compiled components rather than branching
        // across them — observable as a small circuit.
        let cnf = Cnf::parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        assert_eq!(c.model_count(), 9);
        // With components, x0-branching never duplicates the x2/x3 block:
        // node count stays linear in the blocks.
        assert!(c.node_count() <= 14, "got {}", c.node_count());
    }

    #[test]
    fn caching_reuses_shared_components() {
        // A formula whose branches share a residual component.
        let mut cnf = Cnf::new(6);
        cnf.add_clause([lit(1), lit(2)]);
        cnf.add_clause([lit(-1), lit(2)]);
        cnf.add_clause([lit(3), lit(4)]);
        cnf.add_clause([lit(5), lit(6)]);
        let cached = DecisionDnnfCompiler::new(CacheMode::Components).compile(&cnf);
        let uncached = DecisionDnnfCompiler::new(CacheMode::None).compile(&cnf);
        assert_eq!(cached.model_count(), uncached.model_count());
        assert!(cached.node_count() <= uncached.node_count());
    }

    #[test]
    fn weighted_counting_through_the_counter() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut w = LitWeights::unit(3);
        w.set(lit(1), 0.3);
        w.set(lit(-1), 0.7);
        let brute: f64 = (0..8u64)
            .map(|c| Assignment::from_index(c, 3))
            .filter(|a| cnf.eval(a))
            .map(|a| w.weight_of(&a))
            .sum();
        let got = ModelCounter::default().wmc(&cnf, &w);
        assert!((got - brute).abs() < 1e-12);
    }

    #[test]
    fn random_cnfs_agree_with_brute_force() {
        let mut state = 0x2468ace0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let n = 3 + (next() % 5) as usize;
            let m = 2 + (next() % 8) as usize;
            let mut cnf = Cnf::new(n);
            for _ in 0..m {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Var((next() % n as u64) as u32).literal(next() % 2 == 0))
                    .collect();
                cnf.add_clause(lits);
            }
            let brute = (0..1u64 << n)
                .filter(|&c| cnf.eval(&Assignment::from_index(c, n)))
                .count() as u128;
            let circuit = DecisionDnnfCompiler::default().compile(&cnf);
            assert_eq!(circuit.model_count(), brute, "{}", cnf.to_dimacs());
            assert!(properties::is_decomposable(&circuit));
        }
    }

    #[test]
    fn tautological_clauses_are_harmless() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(1), lit(-1)]);
        cnf.add_clause([lit(2)]);
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        assert_eq!(c.model_count(), 2);
    }

    #[test]
    fn signature_modes_agree() {
        let cnf =
            Cnf::parse_dimacs("p cnf 6 5\n1 2 0\n-1 3 0\n-2 -3 4 0\n4 5 0\n-5 6 0\n").unwrap();
        let expected = Solver::new(&cnf).count_models() as u128;
        for sig in [SignatureMode::Packed, SignatureMode::Exact] {
            let c = DecisionDnnfCompiler::default()
                .with_signature(sig)
                .compile(&cnf);
            assert_eq!(c.model_count(), expected, "signature {sig:?}");
        }
    }

    #[test]
    fn heuristics_agree_on_counts() {
        let cnf =
            Cnf::parse_dimacs("p cnf 6 5\n1 2 0\n-1 3 0\n-2 -3 4 0\n4 5 0\n-5 6 0\n").unwrap();
        let expected = Solver::new(&cnf).count_models() as u128;
        for h in [
            Heuristic::Vsads,
            Heuristic::MaxOccurrence,
            Heuristic::FirstUnassigned,
        ] {
            let c = DecisionDnnfCompiler::default()
                .with_heuristic(h)
                .compile(&cnf);
            assert_eq!(c.model_count(), expected, "heuristic {h:?}");
            assert!(properties::is_decomposable(&c), "heuristic {h:?}");
        }
    }

    #[test]
    fn stats_report_search_and_cache_activity() {
        // Branching on x0 implies x1 and x4 either way, so the clause
        // (¬x1∨x2∨x3) reduces to the same component {(x2∨x3)} — with the
        // same clause index — under both branches: a packed-cache hit.
        let cnf = Cnf::parse_dimacs("p cnf 5 5\n-1 2 0\n1 2 0\n-2 3 4 0\n1 5 0\n-1 5 0\n").unwrap();
        let expected = Solver::new(&cnf).count_models() as u128;
        let (circuit, stats) = DecisionDnnfCompiler::default().compile_with_stats(&cnf);
        assert_eq!(circuit.model_count(), expected);
        assert!(stats.decisions > 0);
        assert!(stats.cache_misses > 0);
        assert!(stats.propagations > 0);
        assert_eq!(stats.nodes, circuit.node_count());
        assert_eq!(stats.edges, circuit.edge_count());
        assert!(
            stats.cache_hits > 0,
            "shared component should hit: {stats:?}"
        );
    }

    #[test]
    fn unit_clause_conflicts_compile_to_false() {
        let cnf = Cnf::parse_dimacs("p cnf 2 3\n1 0\n-1 0\n2 0\n").unwrap();
        for mode in [CacheMode::Components, CacheMode::None] {
            let c = DecisionDnnfCompiler::new(mode).compile(&cnf);
            assert_eq!(c.model_count(), 0, "mode {mode:?}");
        }
    }
}
