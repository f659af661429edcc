//! The OBDD manager: unique table, apply algebra, quantification,
//! composition.

use trl_core::{Cube, FxHashMap, Lit, Var};
use trl_prop::{Cnf, Formula};

/// A handle to an OBDD node owned by an [`Obdd`] manager.
///
/// Handles are canonical: within one manager, two handles are equal iff
/// their functions are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BddRef(pub(crate) u32);

impl BddRef {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// Level in the variable order; terminals live at `order.len()`.
    pub level: u32,
    pub low: BddRef,
    pub high: BddRef,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// An OBDD manager over a fixed variable order.
pub struct Obdd {
    order: Vec<Var>,
    /// Level of each variable (indexed by `Var`); `u32::MAX` if absent.
    level_of: Vec<u32>,
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, BddRef, BddRef), BddRef>,
    apply_cache: FxHashMap<(Op, BddRef, BddRef), BddRef>,
    not_cache: FxHashMap<BddRef, BddRef>,
}

impl Obdd {
    /// The constant-false handle.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true handle.
    pub const TRUE: BddRef = BddRef(1);

    /// Creates a manager over the given variable order (first = root level).
    pub fn new(order: Vec<Var>) -> Self {
        let max_var = order.iter().map(|v| v.index()).max().map_or(0, |m| m + 1);
        let mut level_of = vec![u32::MAX; max_var];
        for (i, v) in order.iter().enumerate() {
            assert_eq!(
                level_of[v.index()],
                u32::MAX,
                "variable {v} repeated in order"
            );
            level_of[v.index()] = i as u32;
        }
        let terminal_level = order.len() as u32;
        Obdd {
            order,
            level_of,
            nodes: vec![
                Node {
                    level: terminal_level,
                    low: BddRef(0),
                    high: BddRef(0),
                },
                Node {
                    level: terminal_level,
                    low: BddRef(1),
                    high: BddRef(1),
                },
            ],
            unique: FxHashMap::default(),
            apply_cache: FxHashMap::default(),
            not_cache: FxHashMap::default(),
        }
    }

    /// A manager over variables `0..n` in natural order.
    pub fn with_num_vars(n: usize) -> Self {
        Obdd::new((0..n as u32).map(Var).collect())
    }

    /// The variable order.
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> usize {
        self.order.len()
    }

    /// The level of a variable. Panics if the variable is not in the order.
    pub fn level_of(&self, v: Var) -> u32 {
        let l = self.level_of.get(v.index()).copied().unwrap_or(u32::MAX);
        assert_ne!(l, u32::MAX, "{v} is not in this manager's order");
        l
    }

    /// The variable tested at a level.
    pub fn var_at(&self, level: u32) -> Var {
        self.order[level as usize]
    }

    pub(crate) fn node(&self, r: BddRef) -> Node {
        self.nodes[r.index()]
    }

    /// Whether the handle is a terminal.
    pub fn is_terminal(&self, r: BddRef) -> bool {
        r == Self::FALSE || r == Self::TRUE
    }

    /// The variable tested by a non-terminal node.
    pub fn node_var(&self, r: BddRef) -> Var {
        assert!(!self.is_terminal(r), "terminal tests no variable");
        self.var_at(self.node(r).level)
    }

    /// The low (variable = false) child of a non-terminal node.
    pub fn low(&self, r: BddRef) -> BddRef {
        assert!(!self.is_terminal(r));
        self.node(r).low
    }

    /// The high (variable = true) child of a non-terminal node.
    pub fn high(&self, r: BddRef) -> BddRef {
        assert!(!self.is_terminal(r));
        self.node(r).high
    }

    /// The unique-node constructor (`mk`): reduction happens here —
    /// redundant tests collapse and isomorphic nodes are shared.
    ///
    /// Public so that trace-based compilers (the frontier method in
    /// `trl-spaces`, the threshold DP) can emit diagrams directly. `level`
    /// must be strictly above both children's levels.
    pub fn mk(&mut self, level: u32, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        debug_assert!(level < self.node(low).level && level < self.node(high).level);
        if let Some(&r) = self.unique.get(&(level, low, high)) {
            return r;
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(Node { level, low, high });
        self.unique.insert((level, low, high), r);
        r
    }

    /// The constant of the given truth value.
    pub fn constant(&self, value: bool) -> BddRef {
        if value {
            Self::TRUE
        } else {
            Self::FALSE
        }
    }

    /// The function of a single literal.
    pub fn literal(&mut self, lit: Lit) -> BddRef {
        let level = self.level_of(lit.var());
        if lit.is_positive() {
            self.mk(level, Self::FALSE, Self::TRUE)
        } else {
            self.mk(level, Self::TRUE, Self::FALSE)
        }
    }

    /// The function of a cube (conjunction of literals).
    pub fn cube(&mut self, cube: &Cube) -> BddRef {
        let mut acc = Self::TRUE;
        // Build bottom-up (deepest level first) for linear-size construction.
        let mut lits: Vec<Lit> = cube.literals().to_vec();
        lits.sort_by_key(|l| std::cmp::Reverse(self.level_of(l.var())));
        for l in lits {
            let level = self.level_of(l.var());
            acc = if l.is_positive() {
                self.mk(level, Self::FALSE, acc)
            } else {
                self.mk(level, acc, Self::FALSE)
            };
        }
        acc
    }

    fn apply(&mut self, op: Op, f: BddRef, g: BddRef) -> BddRef {
        // Terminal cases.
        match op {
            Op::And => {
                if f == Self::FALSE || g == Self::FALSE {
                    return Self::FALSE;
                }
                if f == Self::TRUE {
                    return g;
                }
                if g == Self::TRUE || f == g {
                    return f;
                }
            }
            Op::Or => {
                if f == Self::TRUE || g == Self::TRUE {
                    return Self::TRUE;
                }
                if f == Self::FALSE {
                    return g;
                }
                if g == Self::FALSE || f == g {
                    return f;
                }
            }
            Op::Xor => {
                if f == g {
                    return Self::FALSE;
                }
                if f == Self::FALSE {
                    return g;
                }
                if g == Self::FALSE {
                    return f;
                }
                if f == Self::TRUE {
                    return self.not(g);
                }
                if g == Self::TRUE {
                    return self.not(f);
                }
            }
        }
        // Commutative: normalize operand order for the cache.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(&r) = self.apply_cache.get(&(op, f, g)) {
            return r;
        }
        let (nf, ng) = (self.node(f), self.node(g));
        let level = nf.level.min(ng.level);
        let (f0, f1) = if nf.level == level {
            (nf.low, nf.high)
        } else {
            (f, f)
        };
        let (g0, g1) = if ng.level == level {
            (ng.low, ng.high)
        } else {
            (g, g)
        };
        let low = self.apply(op, f0, g0);
        let high = self.apply(op, f1, g1);
        let r = self.mk(level, low, high);
        self.apply_cache.insert((op, f, g), r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::And, f, g)
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.apply(Op::Xor, f, g)
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        if f == Self::TRUE {
            return Self::FALSE;
        }
        if f == Self::FALSE {
            return Self::TRUE;
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let n = self.node(f);
        let low = self.not(n.low);
        let high = self.not(n.high);
        let r = self.mk(n.level, low, high);
        self.not_cache.insert(f, r);
        self.not_cache.insert(r, f);
        r
    }

    /// Implication `f ⇒ g`.
    pub fn implies(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Biconditional `f ⇔ g`.
    pub fn iff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// If-then-else `(f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// Restriction `f | var = value` (cofactor).
    pub fn restrict(&mut self, f: BddRef, var: Var, value: bool) -> BddRef {
        let level = self.level_of(var);
        let mut memo = FxHashMap::default();
        self.restrict_rec(f, level, value, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: BddRef,
        level: u32,
        value: bool,
        memo: &mut FxHashMap<BddRef, BddRef>,
    ) -> BddRef {
        let n = self.node(f);
        if n.level > level {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let r = if n.level == level {
            if value {
                n.high
            } else {
                n.low
            }
        } else {
            let low = self.restrict_rec(n.low, level, value, memo);
            let high = self.restrict_rec(n.high, level, value, memo);
            self.mk(n.level, low, high)
        };
        memo.insert(f, r);
        r
    }

    /// Conditioning on a cube of literals.
    pub fn condition(&mut self, f: BddRef, cube: &Cube) -> BddRef {
        let mut acc = f;
        for &l in cube.literals() {
            acc = self.restrict(acc, l.var(), l.is_positive());
        }
        acc
    }

    /// Existential quantification `∃var. f`.
    pub fn exists(&mut self, f: BddRef, var: Var) -> BddRef {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.or(lo, hi)
    }

    /// Universal quantification `∀var. f`.
    pub fn forall(&mut self, f: BddRef, var: Var) -> BddRef {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.and(lo, hi)
    }

    /// Functional composition: `f` with `var` replaced by the function `g`.
    pub fn compose(&mut self, f: BddRef, var: Var, g: BddRef) -> BddRef {
        let hi = self.restrict(f, var, true);
        let lo = self.restrict(f, var, false);
        self.ite(g, hi, lo)
    }

    /// `f` with variable `var` *flipped* (`f[¬var/var]`): the neighborhood
    /// operator of robustness analysis (§5.2).
    pub fn flip_var(&mut self, f: BddRef, var: Var) -> BddRef {
        let level = self.level_of(var);
        let mut memo = FxHashMap::default();
        self.flip_rec(f, level, &mut memo)
    }

    fn flip_rec(&mut self, f: BddRef, level: u32, memo: &mut FxHashMap<BddRef, BddRef>) -> BddRef {
        let n = self.node(f);
        if n.level > level {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let r = if n.level == level {
            self.mk(level, n.high, n.low)
        } else {
            let low = self.flip_rec(n.low, level, memo);
            let high = self.flip_rec(n.high, level, memo);
            self.mk(n.level, low, high)
        };
        memo.insert(f, r);
        r
    }

    /// Builds the OBDD of an arbitrary formula by structural apply.
    pub fn build_formula(&mut self, f: &Formula) -> BddRef {
        match f {
            Formula::True => Self::TRUE,
            Formula::False => Self::FALSE,
            Formula::Lit(l) => self.literal(*l),
            Formula::Not(g) => {
                let x = self.build_formula(g);
                self.not(x)
            }
            Formula::And(gs) => {
                let mut acc = Self::TRUE;
                for g in gs {
                    let x = self.build_formula(g);
                    acc = self.and(acc, x);
                }
                acc
            }
            Formula::Or(gs) => {
                let mut acc = Self::FALSE;
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

    /// Builds the OBDD of a CNF by conjoining clause functions.
    pub fn build_cnf(&mut self, cnf: &Cnf) -> BddRef {
        let mut acc = Self::TRUE;
        for c in cnf.clauses() {
            let mut cl = Self::FALSE;
            for &l in c.literals() {
                let x = self.literal(l);
                cl = self.or(cl, x);
            }
            acc = self.and(acc, cl);
            if acc == Self::FALSE {
                break;
            }
        }
        acc
    }

    /// Number of nodes reachable from `f`, including terminals — the OBDD
    /// size measure used in the succinctness experiments.
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = trl_core::FxHashSet::default();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) || self.is_terminal(r) {
                continue;
            }
            let n = self.node(r);
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_core::Assignment;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn canonicity_shares_equivalent_functions() {
        let mut m = Obdd::with_num_vars(3);
        // x0 ∧ x1 built two ways.
        let x0 = m.literal(v(0).positive());
        let x1 = m.literal(v(1).positive());
        let a = m.and(x0, x1);
        let b = m.and(x1, x0);
        assert_eq!(a, b);
        // De Morgan: ¬(x0 ∧ x1) == ¬x0 ∨ ¬x1.
        let na = m.not(a);
        let nx0 = m.not(x0);
        let nx1 = m.not(x1);
        let de = m.or(nx0, nx1);
        assert_eq!(na, de);
    }

    #[test]
    fn reduction_removes_redundant_tests() {
        let mut m = Obdd::with_num_vars(2);
        let x1 = m.literal(v(1).positive());
        // mk at level 0 with equal children collapses.
        let r = m.mk(0, x1, x1);
        assert_eq!(r, x1);
    }

    #[test]
    fn eval_agrees_with_formula_semantics() {
        let mut m = Obdd::with_num_vars(3);
        let f = Formula::var(v(0))
            .iff(Formula::var(v(1)))
            .or(Formula::var(v(2)));
        let r = m.build_formula(&f);
        for code in 0..8u64 {
            let a = Assignment::from_index(code, 3);
            assert_eq!(m.eval(r, &a), f.eval(&a), "at {code:03b}");
        }
    }

    #[test]
    fn double_negation_is_identity() {
        let mut m = Obdd::with_num_vars(4);
        let f = Formula::var(v(0))
            .xor(Formula::var(v(1)))
            .and(Formula::var(v(2)).or(Formula::var(v(3))));
        let r = m.build_formula(&f);
        let nn = m.not(r);
        let nn = m.not(nn);
        assert_eq!(nn, r);
    }

    #[test]
    fn restrict_and_quantify() {
        let mut m = Obdd::with_num_vars(2);
        let x0 = m.literal(v(0).positive());
        let x1 = m.literal(v(1).positive());
        let f = m.and(x0, x1);
        assert_eq!(m.restrict(f, v(0), true), x1);
        assert_eq!(m.restrict(f, v(0), false), Obdd::FALSE);
        assert_eq!(m.exists(f, v(0)), x1);
        assert_eq!(m.forall(f, v(0)), Obdd::FALSE);
        let g = m.or(x0, x1);
        assert_eq!(m.forall(g, v(0)), x1);
        assert_eq!(m.exists(g, v(0)), Obdd::TRUE);
    }

    #[test]
    fn compose_substitutes_function() {
        let mut m = Obdd::with_num_vars(3);
        // f = x0 ⇔ x1; compose x1 := x2 → x0 ⇔ x2.
        let x0 = m.literal(v(0).positive());
        let x1 = m.literal(v(1).positive());
        let x2 = m.literal(v(2).positive());
        let f = m.iff(x0, x1);
        let g = m.compose(f, v(1), x2);
        let expected = m.iff(x0, x2);
        assert_eq!(g, expected);
    }

    #[test]
    fn flip_var_swaps_polarity() {
        let mut m = Obdd::with_num_vars(2);
        let f = Formula::var(v(0)).and(Formula::var(v(1)));
        let r = m.build_formula(&f);
        let flipped = m.flip_var(r, v(0));
        // f[¬x0/x0] = ¬x0 ∧ x1
        let g = Formula::var(v(0)).not().and(Formula::var(v(1)));
        let expected = m.build_formula(&g);
        assert_eq!(flipped, expected);
        // Flip twice = identity.
        let back = m.flip_var(flipped, v(0));
        assert_eq!(back, r);
    }

    #[test]
    fn cube_construction_is_linear_and_correct() {
        let mut m = Obdd::with_num_vars(4);
        let c = Cube::from_lits([v(0).positive(), v(2).negative(), v(3).positive()]);
        let r = m.cube(&c);
        assert_eq!(m.size(r), 3 + 2); // 3 decision nodes + 2 terminals
        for code in 0..16u64 {
            let a = Assignment::from_index(code, 4);
            assert_eq!(m.eval(r, &a), c.consistent_with(&a));
        }
    }

    #[test]
    fn condition_on_cube() {
        let mut m = Obdd::with_num_vars(3);
        let f = Formula::var(v(0))
            .and(Formula::var(v(1)))
            .or(Formula::var(v(2)));
        let r = m.build_formula(&f);
        let c = Cube::from_lits([v(0).positive(), v(2).negative()]);
        let cond = m.condition(r, &c);
        let x1 = m.literal(v(1).positive());
        assert_eq!(cond, x1);
    }

    #[test]
    fn build_cnf_matches_eval() {
        let cnf = Cnf::parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").unwrap();
        let mut m = Obdd::with_num_vars(3);
        let r = m.build_cnf(&cnf);
        for code in 0..8u64 {
            let a = Assignment::from_index(code, 3);
            assert_eq!(m.eval(r, &a), cnf.eval(&a));
        }
    }

    #[test]
    fn ite_identity_checks() {
        let mut m = Obdd::with_num_vars(2);
        let x0 = m.literal(v(0).positive());
        let x1 = m.literal(v(1).positive());
        assert_eq!(m.ite(x0, Obdd::TRUE, Obdd::FALSE), x0);
        assert_eq!(m.ite(x0, Obdd::FALSE, Obdd::TRUE), m.not(x0));
        assert_eq!(m.ite(Obdd::TRUE, x0, x1), x0);
        assert_eq!(m.ite(Obdd::FALSE, x0, x1), x1);
    }

    #[test]
    #[should_panic(expected = "not in this manager's order")]
    fn foreign_variable_panics() {
        let mut m = Obdd::with_num_vars(2);
        let _ = m.literal(v(7).positive());
    }
}
