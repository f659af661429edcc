//! Property checks and transforms for NNF circuits.
//!
//! Decomposability and smoothness are *structural* and checked in polytime.
//! Determinism is *semantic* (coNP-hard to verify in general), so this
//! module offers an exhaustive checker for test-sized circuits; the
//! compilers in `trl-compiler` and `trl-sdd` guarantee it by construction.

use crate::circuit::{Circuit, CircuitBuilder, NnfId, NnfNode};
use trl_core::{Assignment, Var, VarSet};
use trl_vtree::Vtree;

/// Whether every and-gate has pairwise variable-disjoint inputs
/// (*decomposability* \[22\], Fig. 6 — the property that makes DNNF
/// satisfiability linear).
pub fn is_decomposable(c: &Circuit) -> bool {
    let scopes = c.scopes();
    for id in c.ids() {
        if let NnfNode::And(xs) = c.node(id) {
            let mut seen = VarSet::new();
            for x in xs {
                if !seen.is_disjoint(&scopes[x.index()]) {
                    return false;
                }
                seen.union_with(&scopes[x.index()]);
            }
        }
    }
    true
}

/// Whether every or-gate has inputs with identical scopes
/// (*smoothness* \[25\]) — the precondition for counting by sum/product
/// propagation (Fig. 8).
pub fn is_smooth(c: &Circuit) -> bool {
    let scopes = c.scopes();
    for id in c.ids() {
        if let NnfNode::Or(xs) = c.node(id) {
            if let Some((first, rest)) = xs.split_first() {
                let s = &scopes[first.index()];
                if rest.iter().any(|x| &scopes[x.index()] != s) {
                    return false;
                }
            }
        }
    }
    true
}

/// Exhaustively checks *determinism* \[23\] (Fig. 7): under every circuit
/// input, each or-gate has at most one high input. Exponential in
/// `num_vars`; intended for tests and small demos.
pub fn is_deterministic_exhaustive(c: &Circuit) -> bool {
    assert!(
        c.num_vars() <= 20,
        "exhaustive determinism check limited to 20 vars"
    );
    for code in 0..1u64 << c.num_vars() {
        let a = Assignment::from_index(code, c.num_vars());
        let mut val = vec![false; c.node_count()];
        for id in c.ids() {
            let i = id.index();
            val[i] = match c.node(id) {
                NnfNode::True => true,
                NnfNode::False => false,
                NnfNode::Lit(l) => a.satisfies(*l),
                NnfNode::And(xs) => xs.iter().all(|x| val[x.index()]),
                NnfNode::Or(xs) => {
                    let high = xs.iter().filter(|x| val[x.index()]).count();
                    if high > 1 {
                        return false;
                    }
                    high == 1
                }
            };
        }
    }
    true
}

/// Whether the circuit is *structured* by the given vtree: every binary
/// and-gate respects some vtree node `v` (left input's scope under
/// `left(v)`, right input's under `right(v)`), per \[66\]. And-gates with
/// other arities fail the check (except empty, which is `⊤`).
pub fn respects_vtree(c: &Circuit, vt: &Vtree) -> bool {
    let scopes = c.scopes();
    for id in c.ids() {
        if let NnfNode::And(xs) = c.node(id) {
            match xs.len() {
                0 => {}
                2 => {
                    let ls = &scopes[xs[0].index()];
                    let rs = &scopes[xs[1].index()];
                    if !respects_some_node(vt, ls, rs) && !respects_some_node(vt, rs, ls) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
    true
}

fn respects_some_node(vt: &Vtree, ls: &VarSet, rs: &VarSet) -> bool {
    // Find the lca of all variables; check left/right split there or above.
    let mut node = None;
    for v in ls.iter().chain(rs.iter()) {
        if !vt.contains_var(v) {
            return false;
        }
        let leaf = vt.leaf_of_var(v);
        node = Some(match node {
            None => leaf,
            Some(n) => vt.lca(n, leaf),
        });
    }
    let Some(n) = node else {
        return true; // no variables at all
    };
    if !vt.is_internal(n) {
        return false;
    }
    let lvars = vt.vars(vt.left(n));
    let rvars = vt.vars(vt.right(n));
    ls.is_subset(lvars) && rs.is_subset(rvars)
}

/// The smoothing transform \[25\]: makes every or-gate smooth by conjoining
/// each input with `(v ∨ ¬v)` gadgets for its missing variables (the
/// trivial gates visible at the bottom of Fig. 7). Quadratic in the worst
/// case; preserves decomposability, determinism, and the function.
///
/// The root is additionally smoothed to mention every variable in
/// `0..num_vars`, so counting needs no final scaling.
///
/// Scopes are kept as bitsets in one flat word array, filled bottom-up
/// alongside the rebuild: each node's scope takes the words up to its
/// highest variable, so a chain over a large universe pays for the
/// variables it mentions, not for the whole universe at every node.
pub fn smooth(c: &Circuit) -> Circuit {
    if !c.ids().any(|id| matches!(c.node(id), NnfNode::Or(_))) {
        return smooth_or_free(c);
    }
    // Normalize first: fold constants out of gates so that every remaining
    // gate input is non-constant and scope bookkeeping below stays exact.
    // A normalized circuit (every builder output) would come back node for
    // node, so only other arenas — loaded ones — are rebuilt.
    let conditioned;
    let c = if c.is_normalized() {
        c
    } else {
        conditioned = c.condition(&trl_core::PartialAssignment::new(c.num_vars()));
        &conditioned
    };
    // Node `i`'s scope is `scopes[scope_start[i]..scope_start[i + 1]]`.
    let mut scopes: Vec<u64> = Vec::with_capacity(c.node_count());
    let mut scope_start: Vec<usize> = Vec::with_capacity(c.node_count() + 1);
    scope_start.push(0);
    // Smoothing adds a fraction of the input's size in gadgets and padded
    // inputs; room for half again avoids most regrowth.
    let mut b = CircuitBuilder::with_capacity(c.num_vars(), c.node_count() * 3 / 2);
    let mut map: Vec<NnfId> = Vec::with_capacity(c.node_count());

    // The gadget `(v ∨ ¬v)` of each variable, built on first use: later
    // uses would only find the same three nodes again.
    let mut gadgets: Vec<Option<NnfId>> = vec![None; c.num_vars()];
    let mut gadget = |b: &mut CircuitBuilder, v: Var| {
        *gadgets[v.index()].get_or_insert_with(|| {
            let pos = b.lit(v.positive());
            let neg = b.lit(v.negative());
            b.or_raw([pos, neg])
        })
    };
    // Conjoins `input` with a gadget for every variable of `target`
    // missing from `scope` (whose words past its end are zero), in
    // increasing variable order.
    let mut parts: Vec<NnfId> = Vec::new();
    let mut pad = |b: &mut CircuitBuilder, input: NnfId, target: &[u64], scope: &[u64]| {
        parts.clear();
        parts.push(input);
        for (w, &t) in target.iter().enumerate() {
            let mut missing = t & !scope.get(w).copied().unwrap_or(0);
            while missing != 0 {
                parts.push(gadget(b, Var((w * 64) as u32 + missing.trailing_zeros())));
                missing &= missing - 1;
            }
        }
        if parts.len() == 1 {
            input
        } else {
            b.and_raw(parts.iter().copied())
        }
    };

    let mut or_inputs: Vec<NnfId> = Vec::new();
    for id in c.ids() {
        let words = match c.node(id) {
            NnfNode::True | NnfNode::False => 0,
            NnfNode::Lit(l) => l.var().index() / 64 + 1,
            NnfNode::And(xs) | NnfNode::Or(xs) => xs
                .iter()
                .map(|x| scope_start[x.index() + 1] - scope_start[x.index()])
                .max()
                .unwrap_or(0),
        };
        let at = scopes.len();
        scopes.resize(at + words, 0);
        scope_start.push(at + words);
        let (below, scope) = scopes.split_at_mut(at);
        let scope_of = |x: &NnfId| &below[scope_start[x.index()]..scope_start[x.index() + 1]];
        let new_id = match c.node(id) {
            NnfNode::True => b.true_(),
            NnfNode::False => b.false_(),
            NnfNode::Lit(l) => {
                let v = l.var().index();
                scope[v / 64] |= 1 << (v % 64);
                b.lit(*l)
            }
            NnfNode::And(xs) => {
                for x in xs {
                    union_words(scope, scope_of(x));
                }
                b.and(xs.iter().map(|x| map[x.index()]))
            }
            NnfNode::Or(xs) => {
                for x in xs {
                    union_words(scope, scope_of(x));
                }
                or_inputs.clear();
                for x in xs {
                    or_inputs.push(pad(&mut b, map[x.index()], scope, scope_of(x)));
                }
                b.or_raw(or_inputs.iter().copied())
            }
        };
        map.push(new_id);
    }

    // Smooth the root up to the full universe.
    let mut root = map[c.root().index()];
    if !matches!(c.node(c.root()), NnfNode::False) {
        let full: Vec<u64> = (0..c.num_vars().div_ceil(64))
            .map(|w| match c.num_vars() - w * 64 {
                rem if rem >= 64 => u64::MAX,
                rem => (1u64 << rem) - 1,
            })
            .collect();
        let r = c.root().index();
        root = pad(
            &mut b,
            root,
            &full,
            &scopes[scope_start[r]..scope_start[r + 1]],
        );
    }
    b.finish(root)
}

/// ORs `from` into the prefix of `into` (never shorter than `from`).
fn union_words(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

/// Smoothing for circuits without or-gates — e.g. the literal cube the
/// compiler emits for a pure-propagation instance. Such circuits are
/// trivially smooth, so only the root-universe gap needs gadgets. Scope
/// bookkeeping shrinks to a single reachability walk with one `VarSet`;
/// the general path's `VarSet` per node costs hundreds of megabytes on a
/// 50k-literal cube.
fn smooth_or_free(c: &Circuit) -> Circuit {
    let mut b = CircuitBuilder::new(c.num_vars());
    let mut map: Vec<NnfId> = Vec::with_capacity(c.node_count());
    for id in c.ids() {
        let new_id = match c.node(id) {
            NnfNode::True => b.true_(),
            NnfNode::False => b.false_(),
            NnfNode::Lit(l) => b.lit(*l),
            NnfNode::And(xs) => {
                let inputs: Vec<NnfId> = xs.iter().map(|x| map[x.index()]).collect();
                b.and(inputs)
            }
            NnfNode::Or(_) => unreachable!("fast path requires an or-free circuit"),
        };
        map.push(new_id);
    }
    let mut root = map[c.root().index()];

    // The root's scope: literals reachable from the (original) root. With
    // no or-gates, any reachable false child folds the rebuilt root to ⊥,
    // so whenever gadgets are actually added below this scope is exact.
    let mut scope = VarSet::new();
    let mut seen = vec![false; c.node_count()];
    let mut stack = vec![c.root()];
    seen[c.root().index()] = true;
    while let Some(id) = stack.pop() {
        match c.node(id) {
            NnfNode::Lit(l) => {
                scope.insert(l.var());
            }
            NnfNode::And(xs) => {
                for x in xs {
                    if !seen[x.index()] {
                        seen[x.index()] = true;
                        stack.push(*x);
                    }
                }
            }
            _ => {}
        }
    }

    let full: VarSet = (0..c.num_vars() as u32).map(Var).collect();
    let missing = full.difference(&scope);
    let false_id = b.false_();
    if !missing.is_empty() && root != false_id {
        let mut parts = vec![root];
        for v in missing.iter() {
            let pos = b.lit(v.positive());
            let neg = b.lit(v.negative());
            let g = b.or_raw([pos, neg]);
            parts.push(g);
        }
        root = b.and_raw(parts);
    }
    b.finish(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_core::Lit;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// x0 ⊕ x1 as a decomposable, deterministic, smooth circuit.
    fn xor_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let nx0 = b.lit(v(0).negative());
        let x1 = b.var(v(1));
        let nx1 = b.lit(v(1).negative());
        let a = b.and([x0, nx1]);
        let c = b.and([nx0, x1]);
        let r = b.or([a, c]);
        b.finish(r)
    }

    #[test]
    fn xor_has_all_three_properties() {
        let c = xor_circuit();
        assert!(is_decomposable(&c));
        assert!(is_smooth(&c));
        assert!(is_deterministic_exhaustive(&c));
    }

    #[test]
    fn non_decomposable_detected() {
        let mut b = CircuitBuilder::new(1);
        let x = b.var(v(0));
        let nx = b.lit(v(0).negative());
        let a = b.and_raw([x, nx]);
        let c = b.finish(a);
        assert!(!is_decomposable(&c));
    }

    #[test]
    fn non_smooth_detected_and_fixed() {
        // x0 ∨ (x0 ∧ x1): or-inputs have scopes {x0} and {x0,x1}.
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let a = b.and([x0, x1]);
        let r = b.or_raw([x0, a]);
        let c = b.finish(r);
        assert!(!is_smooth(&c));
        let s = smooth(&c);
        assert!(is_smooth(&s));
        // Function preserved.
        for code in 0..4u64 {
            let asg = Assignment::from_index(code, 2);
            assert_eq!(c.eval(&asg), s.eval(&asg));
        }
    }

    #[test]
    fn non_deterministic_detected() {
        // x0 ∨ x1 is not deterministic: both high under (1,1).
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let r = b.or([x0, x1]);
        let c = b.finish(r);
        assert!(!is_deterministic_exhaustive(&c));
    }

    #[test]
    fn smoothing_covers_root_gap() {
        // Circuit mentions only x0 out of a 3-variable universe.
        let mut b = CircuitBuilder::new(3);
        let x0 = b.var(v(0));
        let c = b.finish(x0);
        let s = smooth(&c);
        let scopes = s.scopes();
        assert_eq!(scopes[s.root().index()].len(), 3);
        assert!(is_smooth(&s));
    }

    #[test]
    fn smoothing_preserves_decomposability_and_determinism() {
        // Deterministic non-smooth circuit: (x0 ∧ x1) ∨ (¬x0).
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let nx0 = b.lit(Lit::new(v(0), false));
        let x1 = b.var(v(1));
        let a = b.and([x0, x1]);
        let r = b.or_raw([a, nx0]);
        let c = b.finish(r);
        assert!(is_deterministic_exhaustive(&c));
        let s = smooth(&c);
        assert!(is_decomposable(&s));
        assert!(is_smooth(&s));
        assert!(is_deterministic_exhaustive(&s));
    }

    #[test]
    fn vtree_respect_check() {
        // (x0 ∧ x1) respects right-linear vtree over [x0, x1].
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let a = b.and([x0, x1]);
        let c = b.finish(a);
        let vt = Vtree::right_linear(&[v(0), v(1)]);
        assert!(respects_vtree(&c, &vt));
        // A ternary and-gate is not structured.
        let mut b = CircuitBuilder::new(3);
        let xs: Vec<NnfId> = (0..3).map(|i| b.var(v(i))).collect();
        let a = b.and_raw(xs);
        let c = b.finish(a);
        let vt = Vtree::right_linear(&[v(0), v(1), v(2)]);
        assert!(!respects_vtree(&c, &vt));
    }
}
