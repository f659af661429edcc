//! The SDD manager: unique table, apply, negation, conditioning.

use trl_core::{Cube, FxHashMap, Lit, Var};
use trl_prop::{Cnf, Formula};
use trl_vtree::{Vtree, VtreeNodeId};

/// A handle to an SDD owned by an [`SddManager`].
///
/// Handles are canonical within a manager: equal handles ⟺ equal functions
/// (for the manager's vtree).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SddRef {
    /// The constant `⊥`.
    False,
    /// The constant `⊤`.
    True,
    /// A literal (terminal SDD at the variable's vtree leaf).
    Literal(Lit),
    /// A decision node, by index into the manager's node arena.
    Decision(u32),
}

impl SddRef {
    fn key(self) -> u64 {
        match self {
            SddRef::False => 0,
            SddRef::True => 1,
            SddRef::Literal(l) => 2 + l.code() as u64,
            SddRef::Decision(i) => (1 << 40) + i as u64,
        }
    }
}

/// A prime–sub pair: one input of the multiplexer or-gate of Fig. 9.
pub type Element = (SddRef, SddRef);

#[derive(Clone, Debug)]
pub(crate) struct DecisionNode {
    /// The (internal) vtree node this decision is normalized for.
    pub vtree: VtreeNodeId,
    /// The (prime, sub) pairs; primes partition the left-subtree space.
    pub elements: Box<[Element]>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
}

/// Counters and shape of the manager's apply cache.
#[derive(Clone, Copy, Debug)]
pub struct ApplyCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to a fresh apply.
    pub misses: u64,
    /// Current number of slots.
    pub capacity: usize,
    /// Current generation (bumped by [`SddManager::clear_apply_cache`]).
    pub generation: u32,
}

#[derive(Clone, Copy)]
struct ApplyEntry {
    stamp: u32,
    op: Op,
    a: SddRef,
    b: SddRef,
    result: SddRef,
}

const VACANT: ApplyEntry = ApplyEntry {
    stamp: 0,
    op: Op::And,
    a: SddRef::False,
    b: SddRef::False,
    result: SddRef::False,
};

/// Bounded, generation-stamped apply cache.
///
/// Apply results are memoized in a direct-mapped, power-of-two table keyed
/// on the canonicalized `(op, min, max)` operand pair. A colliding insert
/// overwrites its slot — recomputing a lost entry is always sound — so the
/// table never chains or rehashes, and probes are one slot read. Clearing
/// bumps a generation stamp instead of touching memory (stale entries are
/// lazily overwritten). The table doubles whenever the manager's unique
/// table outgrows it — a load-factor-one policy against live decision
/// nodes — and is capped so a pathological apply cannot exhaust memory.
struct ApplyCache {
    entries: Vec<ApplyEntry>,
    stamp: u32,
    hits: u64,
    misses: u64,
}

impl ApplyCache {
    const INITIAL_CAPACITY: usize = 1 << 10;
    const MAX_CAPACITY: usize = 1 << 22;

    fn new() -> Self {
        ApplyCache {
            entries: vec![VACANT; Self::INITIAL_CAPACITY],
            stamp: 1,
            hits: 0,
            misses: 0,
        }
    }

    fn slot(&self, op: Op, a: SddRef, b: SddRef) -> usize {
        fn mix64(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let tag = match op {
            Op::And => 0u64,
            Op::Or => 1u64,
        };
        let x = a.key() ^ b.key().rotate_left(21) ^ (tag << 62);
        mix64(x) as usize & (self.entries.len() - 1)
    }

    fn get(&mut self, op: Op, a: SddRef, b: SddRef) -> Option<SddRef> {
        let e = self.entries[self.slot(op, a, b)];
        if e.stamp == self.stamp && e.op == op && e.a == a && e.b == b {
            self.hits += 1;
            Some(e.result)
        } else {
            self.misses += 1;
            None
        }
    }

    fn insert(&mut self, op: Op, a: SddRef, b: SddRef, result: SddRef) {
        let s = self.slot(op, a, b);
        self.entries[s] = ApplyEntry {
            stamp: self.stamp,
            op,
            a,
            b,
            result,
        };
    }

    /// Doubles the table while the unique table is larger (contents are
    /// discarded; they repopulate on the fly).
    fn sync_capacity(&mut self, live_nodes: usize) {
        let mut cap = self.entries.len();
        while cap < Self::MAX_CAPACITY && live_nodes > cap {
            cap *= 2;
        }
        if cap != self.entries.len() {
            self.entries = vec![VACANT; cap];
        }
    }

    fn clear(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Generation counter wrapped: scrub for real, once per 2³² clears.
            self.entries.fill(VACANT);
            self.stamp = 1;
        }
    }
}

/// An SDD manager over a fixed vtree.
pub struct SddManager {
    vtree: Vtree,
    pub(crate) nodes: Vec<DecisionNode>,
    unique: FxHashMap<(VtreeNodeId, Box<[Element]>), u32>,
    apply_cache: ApplyCache,
    neg_cache: FxHashMap<u32, SddRef>,
}

impl SddManager {
    /// Creates a manager over the given vtree.
    pub fn new(vtree: Vtree) -> Self {
        SddManager {
            vtree,
            nodes: Vec::new(),
            unique: FxHashMap::default(),
            apply_cache: ApplyCache::new(),
            neg_cache: FxHashMap::default(),
        }
    }

    /// A manager over variables `0..n` with a balanced vtree.
    pub fn balanced(n: usize) -> Self {
        SddManager::new(Vtree::balanced(&(0..n as u32).map(Var).collect::<Vec<_>>()))
    }

    /// A manager over variables `0..n` with a right-linear vtree
    /// (SDD ≡ OBDD, Fig. 10c).
    pub fn right_linear(n: usize) -> Self {
        SddManager::new(Vtree::right_linear(
            &(0..n as u32).map(Var).collect::<Vec<_>>(),
        ))
    }

    /// The manager's vtree.
    pub fn vtree(&self) -> &Vtree {
        &self.vtree
    }

    /// The constant of a truth value.
    pub fn constant(&self, value: bool) -> SddRef {
        if value {
            SddRef::True
        } else {
            SddRef::False
        }
    }

    /// The terminal SDD of a literal.
    pub fn literal(&self, lit: Lit) -> SddRef {
        assert!(
            self.vtree.contains_var(lit.var()),
            "{} is not in this manager's vtree",
            lit.var()
        );
        SddRef::Literal(lit)
    }

    /// The vtree node an SDD is normalized for (`None` for constants).
    pub fn vtree_of(&self, f: SddRef) -> Option<VtreeNodeId> {
        match f {
            SddRef::False | SddRef::True => None,
            SddRef::Literal(l) => Some(self.vtree.leaf_of_var(l.var())),
            SddRef::Decision(i) => Some(self.nodes[i as usize].vtree),
        }
    }

    /// The elements of a decision node. Panics on terminals.
    pub fn elements(&self, f: SddRef) -> &[Element] {
        match f {
            SddRef::Decision(i) => &self.nodes[i as usize].elements,
            _ => panic!("not a decision node"),
        }
    }

    /// Whether the handle is a decision node.
    pub fn is_decision(&self, f: SddRef) -> bool {
        matches!(f, SddRef::Decision(_))
    }

    /// Interns a compressed element list as a decision node at `v`,
    /// applying the trimming rules that make SDDs canonical:
    /// `{(⊤, s)} → s` and `{(p, ⊤), (¬p, ⊥)} → p`.
    fn intern(&mut self, v: VtreeNodeId, mut elements: Vec<Element>) -> SddRef {
        debug_assert!(!elements.is_empty());
        // Trim rule 1: a single element has prime ⊤ (primes are exhaustive).
        if elements.len() == 1 {
            debug_assert_eq!(elements[0].0, SddRef::True);
            return elements[0].1;
        }
        // Trim rule 2: {(p, ⊤), (q, ⊥)} with q = ¬p collapses to p.
        if elements.len() == 2 {
            let subs: Vec<SddRef> = elements.iter().map(|e| e.1).collect();
            if subs.contains(&SddRef::True) && subs.contains(&SddRef::False) {
                let p_true = elements.iter().find(|e| e.1 == SddRef::True).unwrap().0;
                return p_true;
            }
        }
        elements.sort_unstable_by_key(|&(p, s)| (p.key(), s.key()));
        let boxed: Box<[Element]> = elements.into_boxed_slice();
        if let Some(&i) = self.unique.get(&(v, boxed.clone())) {
            return SddRef::Decision(i);
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(DecisionNode {
            vtree: v,
            elements: boxed.clone(),
        });
        self.unique.insert((v, boxed), i);
        SddRef::Decision(i)
    }

    /// Negation, in time linear in the SDD \[28\].
    pub fn negate(&mut self, f: SddRef) -> SddRef {
        match f {
            SddRef::False => SddRef::True,
            SddRef::True => SddRef::False,
            SddRef::Literal(l) => SddRef::Literal(!l),
            SddRef::Decision(i) => {
                if let Some(&r) = self.neg_cache.get(&i) {
                    return r;
                }
                let node = self.nodes[i as usize].clone();
                let elements: Vec<Element> = node
                    .elements
                    .iter()
                    .map(|&(p, s)| {
                        let ns = self.negate(s);
                        (p, ns)
                    })
                    .collect();
                let r = self.compress_and_intern(node.vtree, elements);
                self.neg_cache.insert(i, r);
                if let SddRef::Decision(j) = r {
                    self.neg_cache.insert(j, f);
                }
                r
            }
        }
    }

    /// Normalizes `f` to an element list at internal vtree node `v`
    /// (which must be an ancestor of `f`'s vtree node, or `f` constant).
    fn expand(&mut self, f: SddRef, v: VtreeNodeId) -> Vec<Element> {
        match self.vtree_of(f) {
            None => vec![(SddRef::True, f)], // constants live on the sub side
            Some(vf) if vf == v => self.elements(f).to_vec(),
            Some(vf) if self.vtree.in_left_subtree(vf, v) => {
                let nf = self.negate(f);
                vec![(f, SddRef::True), (nf, SddRef::False)]
            }
            Some(vf) => {
                debug_assert!(
                    self.vtree.in_right_subtree(vf, v),
                    "expand target must be an ancestor"
                );
                vec![(SddRef::True, f)]
            }
        }
    }

    /// Compresses (merges elements with equal subs by disjoining their
    /// primes) and interns.
    fn compress_and_intern(&mut self, v: VtreeNodeId, elements: Vec<Element>) -> SddRef {
        let mut by_sub: Vec<(SddRef, SddRef)> = Vec::with_capacity(elements.len());
        'outer: for (p, s) in elements {
            if p == SddRef::False {
                continue;
            }
            for slot in &mut by_sub {
                if slot.1 == s {
                    slot.0 = self.apply(Op::Or, slot.0, p);
                    continue 'outer;
                }
            }
            by_sub.push((p, s));
        }
        self.intern(v, by_sub)
    }

    fn apply(&mut self, op: Op, a: SddRef, b: SddRef) -> SddRef {
        // Terminal shortcuts.
        match op {
            Op::And => {
                if a == SddRef::False || b == SddRef::False {
                    return SddRef::False;
                }
                if a == SddRef::True {
                    return b;
                }
                if b == SddRef::True || a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == SddRef::True || b == SddRef::True {
                    return SddRef::True;
                }
                if a == SddRef::False {
                    return b;
                }
                if b == SddRef::False || a == b {
                    return a;
                }
            }
        }
        // Both literals on the same variable.
        if let (SddRef::Literal(la), SddRef::Literal(lb)) = (a, b) {
            if la.var() == lb.var() {
                // la ≠ lb here (equal handled above), so they are opposite.
                return match op {
                    Op::And => SddRef::False,
                    Op::Or => SddRef::True,
                };
            }
        }
        let (a, b) = if a.key() <= b.key() { (a, b) } else { (b, a) };
        self.apply_cache.sync_capacity(self.nodes.len());
        if let Some(r) = self.apply_cache.get(op, a, b) {
            return r;
        }
        let va = self.vtree_of(a).expect("non-constant");
        let vb = self.vtree_of(b).expect("non-constant");
        let v = if va == vb { va } else { self.vtree.lca(va, vb) };
        // If the lca is a leaf both operands are literals of the same
        // variable — handled above — so `v` is internal here unless the
        // operands equal; normalize to an internal ancestor.
        let v = if self.vtree.is_internal(v) {
            v
        } else {
            self.vtree
                .parent(v)
                .expect("leaf lca implies same variable")
        };
        let ea = self.expand(a, v);
        let eb = self.expand(b, v);
        let mut elements: Vec<Element> = Vec::with_capacity(ea.len() * eb.len());
        for &(pa, sa) in &ea {
            for &(pb, sb) in &eb {
                let p = self.apply(Op::And, pa, pb);
                if p == SddRef::False {
                    continue;
                }
                let s = self.apply(op, sa, sb);
                elements.push((p, s));
            }
        }
        let r = self.compress_and_intern(v, elements);
        self.apply_cache.insert(op, a, b, r);
        r
    }

    /// Apply-cache counters and shape.
    pub fn apply_cache_stats(&self) -> ApplyCacheStats {
        ApplyCacheStats {
            hits: self.apply_cache.hits,
            misses: self.apply_cache.misses,
            capacity: self.apply_cache.entries.len(),
            generation: self.apply_cache.stamp,
        }
    }

    /// Invalidates every apply-cache entry in O(1) by bumping the
    /// generation stamp. Canonicity is untouched: the unique table, which
    /// guarantees equal handles for equal functions, is not a cache.
    pub fn clear_apply_cache(&mut self) {
        self.apply_cache.clear();
    }

    /// Conjunction (polytime apply).
    pub fn and(&mut self, a: SddRef, b: SddRef) -> SddRef {
        self.apply(Op::And, a, b)
    }

    /// Disjunction (polytime apply).
    pub fn or(&mut self, a: SddRef, b: SddRef) -> SddRef {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: SddRef, b: SddRef) -> SddRef {
        let na = self.negate(a);
        let nb = self.negate(b);
        let x = self.and(a, nb);
        let y = self.and(na, b);
        self.or(x, y)
    }

    /// Implication `a ⇒ b`.
    pub fn implies(&mut self, a: SddRef, b: SddRef) -> SddRef {
        let na = self.negate(a);
        self.or(na, b)
    }

    /// Biconditional.
    pub fn iff(&mut self, a: SddRef, b: SddRef) -> SddRef {
        let x = self.xor(a, b);
        self.negate(x)
    }

    /// Conditioning `f | lit`.
    pub fn condition(&mut self, f: SddRef, lit: Lit) -> SddRef {
        let mut memo = FxHashMap::default();
        self.condition_rec(f, lit, &mut memo)
    }

    fn condition_rec(
        &mut self,
        f: SddRef,
        lit: Lit,
        memo: &mut FxHashMap<SddRef, SddRef>,
    ) -> SddRef {
        match f {
            SddRef::False | SddRef::True => f,
            SddRef::Literal(l) => {
                if l.var() == lit.var() {
                    self.constant(l == lit)
                } else {
                    f
                }
            }
            SddRef::Decision(i) => {
                if let Some(&r) = memo.get(&f) {
                    return r;
                }
                let node = self.nodes[i as usize].clone();
                let v = node.vtree;
                let lit_leaf = self.vtree.leaf_of_var(lit.var());
                let r = if !self.vtree.is_ancestor(v, lit_leaf) {
                    f // variable outside this subtree: unchanged
                } else if self.vtree.in_left_subtree(lit_leaf, v) {
                    let mut elements = Vec::with_capacity(node.elements.len());
                    for &(p, s) in node.elements.iter() {
                        let cp = self.condition_rec(p, lit, memo);
                        if cp == SddRef::False {
                            continue;
                        }
                        elements.push((cp, s));
                    }
                    self.compress_and_intern(v, elements)
                } else {
                    let mut elements = Vec::with_capacity(node.elements.len());
                    for &(p, s) in node.elements.iter() {
                        let cs = self.condition_rec(s, lit, memo);
                        elements.push((p, cs));
                    }
                    self.compress_and_intern(v, elements)
                };
                memo.insert(f, r);
                r
            }
        }
    }

    /// Conditioning on a cube.
    pub fn condition_cube(&mut self, f: SddRef, cube: &Cube) -> SddRef {
        let mut acc = f;
        for &l in cube.literals() {
            acc = self.condition(acc, l);
        }
        acc
    }

    /// Existential quantification.
    pub fn exists(&mut self, f: SddRef, var: Var) -> SddRef {
        let hi = self.condition(f, var.positive());
        let lo = self.condition(f, var.negative());
        self.or(hi, lo)
    }

    /// The cube of several literals as an SDD.
    pub fn cube(&mut self, cube: &Cube) -> SddRef {
        let mut acc = SddRef::True;
        for &l in cube.literals() {
            let x = self.literal(l);
            acc = self.and(acc, x);
        }
        acc
    }

    /// Builds the SDD of a formula by structural apply.
    pub fn build_formula(&mut self, f: &Formula) -> SddRef {
        match f {
            Formula::True => SddRef::True,
            Formula::False => SddRef::False,
            Formula::Lit(l) => self.literal(*l),
            Formula::Not(g) => {
                let x = self.build_formula(g);
                self.negate(x)
            }
            Formula::And(gs) => {
                let mut acc = SddRef::True;
                for g in gs {
                    let x = self.build_formula(g);
                    acc = self.and(acc, x);
                }
                acc
            }
            Formula::Or(gs) => {
                let mut acc = SddRef::False;
                for g in gs {
                    let x = self.build_formula(g);
                    acc = self.or(acc, x);
                }
                acc
            }
            Formula::Implies(p, q) => {
                let a = self.build_formula(p);
                let b = self.build_formula(q);
                self.implies(a, b)
            }
            Formula::Iff(p, q) => {
                let a = self.build_formula(p);
                let b = self.build_formula(q);
                self.iff(a, b)
            }
            Formula::Xor(p, q) => {
                let a = self.build_formula(p);
                let b = self.build_formula(q);
                self.xor(a, b)
            }
        }
    }

    /// Builds the SDD of a CNF by conjoining clauses (the bottom-up
    /// compilation route of §3).
    pub fn build_cnf(&mut self, cnf: &Cnf) -> SddRef {
        let mut acc = SddRef::True;
        for c in cnf.clauses() {
            let mut cl = SddRef::False;
            for &l in c.literals() {
                let x = self.literal(l);
                cl = self.or(cl, x);
            }
            acc = self.and(acc, cl);
            if acc == SddRef::False {
                break;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_core::Assignment;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn check_equal_formula(m: &mut SddManager, f: SddRef, formula: &Formula, n: usize) {
        for code in 0..1u64 << n {
            let a = Assignment::from_index(code, n);
            assert_eq!(m.eval(f, &a), formula.eval(&a), "at {code:b}");
        }
    }

    #[test]
    fn literals_and_constants() {
        let mut m = SddManager::balanced(2);
        let x = m.literal(v(0).positive());
        assert_eq!(m.negate(x), m.literal(v(0).negative()));
        assert_eq!(m.and(x, SddRef::True), x);
        assert_eq!(m.and(x, SddRef::False), SddRef::False);
        let nx = m.literal(v(0).negative());
        assert_eq!(m.and(x, nx), SddRef::False);
        assert_eq!(m.or(x, nx), SddRef::True);
    }

    #[test]
    fn apply_matches_semantics_balanced() {
        let mut m = SddManager::balanced(4);
        let f = Formula::var(v(0))
            .iff(Formula::var(v(2)))
            .or(Formula::var(v(1)).and(Formula::var(v(3)).not()));
        let r = m.build_formula(&f);
        check_equal_formula(&mut m, r, &f, 4);
    }

    #[test]
    fn apply_matches_semantics_right_linear() {
        let mut m = SddManager::right_linear(4);
        let f = Formula::var(v(0))
            .xor(Formula::var(v(1)))
            .xor(Formula::var(v(2)))
            .and(Formula::var(v(3)).or(Formula::var(v(0))));
        let r = m.build_formula(&f);
        check_equal_formula(&mut m, r, &f, 4);
    }

    #[test]
    fn canonicity_same_function_same_handle() {
        let mut m = SddManager::balanced(4);
        // Build (x0 ∧ x1) ∨ (x2 ∧ x3) two different ways.
        let f1 = Formula::var(v(0))
            .and(Formula::var(v(1)))
            .or(Formula::var(v(2)).and(Formula::var(v(3))));
        let f2 = Formula::var(v(2))
            .and(Formula::var(v(3)))
            .or(Formula::var(v(1)).and(Formula::var(v(0))));
        let r1 = m.build_formula(&f1);
        let r2 = m.build_formula(&f2);
        assert_eq!(r1, r2);
        // De Morgan via negate.
        let n1 = m.negate(r1);
        let g = Formula::var(v(0))
            .and(Formula::var(v(1)))
            .or(Formula::var(v(2)).and(Formula::var(v(3))))
            .not();
        let n2 = m.build_formula(&g);
        assert_eq!(n1, n2);
    }

    #[test]
    fn double_negation_identity() {
        let mut m = SddManager::balanced(5);
        let f = Formula::var(v(0))
            .or(Formula::var(v(1)).and(Formula::var(v(4))))
            .xor(Formula::var(v(2)).implies(Formula::var(v(3))));
        let r = m.build_formula(&f);
        let nn = m.negate(r);
        let nn = m.negate(nn);
        assert_eq!(nn, r);
    }

    #[test]
    fn primes_partition_left_space() {
        // Structural invariant: for every decision node, primes are
        // pairwise inconsistent and their disjunction is valid.
        let mut m = SddManager::balanced(4);
        let f = Formula::var(v(0))
            .iff(Formula::var(v(1)))
            .or(Formula::var(v(2)).xor(Formula::var(v(3))));
        let _ = m.build_formula(&f);
        for i in 0..m.nodes.len() {
            let elements = m.nodes[i].elements.clone();
            let mut disj = SddRef::False;
            for (k, &(p, _)) in elements.iter().enumerate() {
                assert_ne!(p, SddRef::False, "inconsistent prime");
                for &(q, _) in &elements[k + 1..] {
                    assert_eq!(m.and(p, q), SddRef::False, "overlapping primes");
                }
                disj = m.or(disj, p);
            }
            assert_eq!(disj, SddRef::True, "primes not exhaustive");
        }
    }

    #[test]
    fn compression_keeps_subs_distinct() {
        let mut m = SddManager::balanced(4);
        let f = Formula::var(v(0))
            .or(Formula::var(v(1)))
            .and(Formula::var(v(2)).or(Formula::var(v(3))));
        let _ = m.build_formula(&f);
        for node in &m.nodes {
            let mut subs: Vec<SddRef> = node.elements.iter().map(|e| e.1).collect();
            let len = subs.len();
            subs.sort_unstable();
            subs.dedup();
            assert_eq!(subs.len(), len, "uncompressed node");
        }
    }

    #[test]
    fn condition_fixes_variable() {
        let mut m = SddManager::balanced(4);
        let f = Formula::var(v(0))
            .and(Formula::var(v(1)))
            .or(Formula::var(v(2)).and(Formula::var(v(3))));
        let r = m.build_formula(&f);
        let c = m.condition(r, v(0).positive());
        let expected =
            m.build_formula(&Formula::var(v(1)).or(Formula::var(v(2)).and(Formula::var(v(3)))));
        assert_eq!(c, expected);
        // Conditioning both polarities then disjoining = ∃.
        let e = m.exists(r, v(0));
        let expected =
            m.build_formula(&Formula::var(v(1)).or(Formula::var(v(2)).and(Formula::var(v(3)))));
        assert_eq!(e, expected);
    }

    #[test]
    fn condition_on_cube_and_unsat() {
        let mut m = SddManager::balanced(3);
        let f = Formula::var(v(0)).and(Formula::var(v(1)).not());
        let r = m.build_formula(&f);
        let cube = Cube::from_lits([v(0).positive(), v(1).positive()]);
        assert_eq!(m.condition_cube(r, &cube), SddRef::False);
    }

    #[test]
    fn build_cnf_equals_build_formula() {
        let f = Formula::var(v(0))
            .or(Formula::var(v(1)))
            .and(Formula::var(v(2)).or(Formula::var(v(0)).not()));
        let cnf = f.to_cnf(3);
        let mut m = SddManager::balanced(3);
        let a = m.build_formula(&f);
        let b = m.build_cnf(&cnf);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_cache_hits_and_survives_clearing() {
        let mut m = SddManager::balanced(4);
        let f = Formula::var(v(0))
            .iff(Formula::var(v(2)))
            .or(Formula::var(v(1)).and(Formula::var(v(3)).not()));
        let r1 = m.build_formula(&f);
        let stats = m.apply_cache_stats();
        assert!(stats.misses > 0);
        // Rebuilding replays the same applies: mostly hits now.
        let r2 = m.build_formula(&f);
        assert_eq!(r1, r2);
        assert!(m.apply_cache_stats().hits > stats.hits);
        // Clearing is a generation bump; results stay canonical.
        let gen = m.apply_cache_stats().generation;
        m.clear_apply_cache();
        assert_eq!(m.apply_cache_stats().generation, gen + 1);
        let r3 = m.build_formula(&f);
        assert_eq!(r1, r3);
        check_equal_formula(&mut m, r3, &f, 4);
    }

    #[test]
    fn apply_cache_overwrites_stay_sound_in_shared_manager() {
        // Many formulas through ONE manager, forcing slot collisions and
        // overwrites in the direct-mapped cache; every result must still
        // match semantics (a lost entry may cost time, never correctness).
        let mut state = 0x51f0aa11u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 5;
        let mut m = SddManager::balanced(n);
        for _ in 0..30 {
            let mut fs: Vec<Formula> = (0..n as u32).map(|i| Formula::var(v(i))).collect();
            for _ in 0..8 {
                let i = (next() % fs.len() as u64) as usize;
                let j = (next() % fs.len() as u64) as usize;
                let combined = match next() % 4 {
                    0 => fs[i].clone().and(fs[j].clone()),
                    1 => fs[i].clone().or(fs[j].clone()),
                    2 => fs[i].clone().xor(fs[j].clone()),
                    _ => fs[i].clone().not(),
                };
                fs.push(combined);
            }
            let f = fs.last().unwrap().clone();
            let r = m.build_formula(&f);
            check_equal_formula(&mut m, r, &f, n);
        }
        let stats = m.apply_cache_stats();
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.capacity.is_power_of_two());
    }

    #[test]
    fn apply_with_random_formulas_is_sound() {
        // Structured pseudo-random formulas compared to truth tables,
        // on three vtree shapes.
        let mut state = 0xabcdef12u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let n = 3 + (next() % 4) as usize; // 3..=6
            let mut fs: Vec<Formula> = (0..n as u32).map(|i| Formula::var(v(i))).collect();
            for _ in 0..6 {
                let i = (next() % fs.len() as u64) as usize;
                let j = (next() % fs.len() as u64) as usize;
                let combined = match next() % 4 {
                    0 => fs[i].clone().and(fs[j].clone()),
                    1 => fs[i].clone().or(fs[j].clone()),
                    2 => fs[i].clone().xor(fs[j].clone()),
                    _ => fs[i].clone().not(),
                };
                fs.push(combined);
            }
            let f = fs.last().unwrap().clone();
            let order: Vec<Var> = (0..n as u32).map(Var).collect();
            let vt = match trial % 3 {
                0 => Vtree::balanced(&order),
                1 => Vtree::right_linear(&order),
                _ => Vtree::left_linear(&order),
            };
            let mut m = SddManager::new(vt);
            let r = m.build_formula(&f);
            check_equal_formula(&mut m, r, &f, n);
        }
    }
}
