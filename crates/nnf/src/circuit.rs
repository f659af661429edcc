//! The NNF circuit representation: an arena DAG with structural hashing.

use trl_core::{Assignment, Error, Lit, PartialAssignment, Result, Var, VarSet};

/// Index of a node within a [`Circuit`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NnfId(pub u32);

impl NnfId {
    /// The node's arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One gate of an NNF circuit.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NnfNode {
    /// The constant true (`⊤`).
    True,
    /// The constant false (`⊥`).
    False,
    /// A literal input (inverters feed only from variables, so negation
    /// appears only here).
    Lit(Lit),
    /// An and-gate over the given inputs.
    And(Vec<NnfId>),
    /// An or-gate over the given inputs.
    Or(Vec<NnfId>),
}

/// An NNF circuit: a DAG of [`NnfNode`]s with a designated root, over the
/// variable universe `0..num_vars`.
///
/// Nodes are stored in topological order (inputs before the gates that use
/// them), which every traversal in this crate relies on.
#[derive(Clone, Debug)]
pub struct Circuit {
    nodes: Vec<NnfNode>,
    root: NnfId,
    num_vars: usize,
    /// Whether the arena came out of a [`CircuitBuilder`], whose
    /// structural hashing guarantees that no two nodes are equal. Arenas
    /// built by [`Circuit::from_parts`] make no such promise.
    interned: bool,
}

impl Circuit {
    /// Builds a circuit directly from a raw node arena, validating the
    /// arena invariants that every traversal in this crate relies on:
    /// the root is in range, every gate input strictly precedes the gate
    /// (topological order), and every literal variable lies in the
    /// universe `0..num_vars`.
    ///
    /// This is the entry point for deserializers (`trl-engine`'s binary
    /// and c2d text readers), which must reconstruct circuits
    /// *node-for-node* — going through [`CircuitBuilder`] would simplify
    /// and renumber gates, destroying the on-disk structure (e.g.
    /// smoothing gadgets `(x ∨ ¬x)` would collapse to `⊤`).
    pub fn from_parts(num_vars: usize, nodes: Vec<NnfNode>, root: NnfId) -> Result<Circuit> {
        if root.index() >= nodes.len() {
            return Err(Error::Invalid(format!(
                "root {} out of range for {} nodes",
                root.0,
                nodes.len()
            )));
        }
        for (i, n) in nodes.iter().enumerate() {
            match n {
                NnfNode::True | NnfNode::False => {}
                NnfNode::Lit(l) => {
                    if l.var().index() >= num_vars {
                        return Err(Error::Invalid(format!(
                            "node {i}: literal variable {} out of universe 0..{num_vars}",
                            l.var().index()
                        )));
                    }
                }
                NnfNode::And(xs) | NnfNode::Or(xs) => {
                    for x in xs {
                        if x.index() >= i {
                            return Err(Error::Invalid(format!(
                                "node {i}: input {} violates topological order",
                                x.0
                            )));
                        }
                    }
                }
            }
        }
        Ok(Circuit {
            nodes,
            root,
            num_vars,
            interned: false,
        })
    }

    /// The root node.
    pub fn root(&self) -> NnfId {
        self.root
    }

    /// The variable universe size; queries (counting, enumeration) range
    /// over assignments of `0..num_vars`.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The node behind an id.
    pub fn node(&self, id: NnfId) -> &NnfNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Circuit size: the number of edges (total gate fan-in), the size
    /// measure used throughout the knowledge-compilation literature.
    pub fn edge_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                NnfNode::And(xs) | NnfNode::Or(xs) => xs.len(),
                _ => 0,
            })
            .sum()
    }

    /// All node ids in topological (bottom-up) order.
    pub fn ids(&self) -> impl Iterator<Item = NnfId> {
        (0..self.nodes.len() as u32).map(NnfId)
    }

    /// Evaluates the circuit on a total assignment.
    pub fn eval(&self, a: &Assignment) -> bool {
        let mut val = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            val[i] = match n {
                NnfNode::True => true,
                NnfNode::False => false,
                NnfNode::Lit(l) => a.satisfies(*l),
                NnfNode::And(xs) => xs.iter().all(|x| val[x.index()]),
                NnfNode::Or(xs) => xs.iter().any(|x| val[x.index()]),
            };
        }
        val[self.root.index()]
    }

    /// The scope (mentioned variables) of every node, bottom-up.
    pub fn scopes(&self) -> Vec<VarSet> {
        let mut scopes: Vec<VarSet> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let s = match n {
                NnfNode::True | NnfNode::False => VarSet::new(),
                NnfNode::Lit(l) => {
                    let mut s = VarSet::new();
                    s.insert(l.var());
                    s
                }
                NnfNode::And(xs) | NnfNode::Or(xs) => {
                    let mut s = VarSet::new();
                    for x in xs {
                        s.union_with(&scopes[x.index()]);
                    }
                    s
                }
            };
            scopes.push(s);
        }
        scopes
    }

    /// Whether conditioning on the empty assignment would rebuild this
    /// circuit node for node: the arena holds no two equal nodes, and every
    /// gate has at least two inputs, none constant, in strictly increasing
    /// order. Every [`CircuitBuilder::and`]/[`CircuitBuilder::or`] output
    /// is normalized; raw gates and loaded arenas may not be.
    pub(crate) fn is_normalized(&self) -> bool {
        self.interned
            && self.nodes.iter().all(|n| match n {
                NnfNode::And(xs) | NnfNode::Or(xs) => {
                    xs.len() >= 2
                        && xs.windows(2).all(|w| w[0] < w[1])
                        && xs.iter().all(|x| {
                            !matches!(self.nodes[x.index()], NnfNode::True | NnfNode::False)
                        })
                }
                _ => true,
            })
    }

    /// Conditions the circuit on a partial assignment: literals decided by
    /// `pa` become constants, and the circuit is simplified bottom-up.
    /// The variable universe is unchanged.
    pub fn condition(&self, pa: &PartialAssignment) -> Circuit {
        let mut b = CircuitBuilder::new(self.num_vars);
        let mut map: Vec<NnfId> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let id = match n {
                NnfNode::True => b.true_(),
                NnfNode::False => b.false_(),
                NnfNode::Lit(l) => match pa.eval(*l) {
                    Some(true) => b.true_(),
                    Some(false) => b.false_(),
                    None => b.lit(*l),
                },
                NnfNode::And(xs) => b.and(xs.iter().map(|x| map[x.index()])),
                NnfNode::Or(xs) => b.or(xs.iter().map(|x| map[x.index()])),
            };
            map.push(id);
        }
        b.finish(map[self.root.index()])
    }

    /// Renders a compact textual form, mainly for debugging and docs.
    ///
    /// Iterative (explicit work stack), so arbitrarily deep circuits — e.g.
    /// compiled 50k-variable chains — render without stack overflow.
    pub fn display(&self) -> String {
        enum Item {
            Node(NnfId),
            Text(&'static str),
        }
        let mut out = String::new();
        let mut stack = vec![Item::Node(self.root)];
        while let Some(item) = stack.pop() {
            match item {
                Item::Text(t) => out.push_str(t),
                Item::Node(id) => match self.node(id) {
                    NnfNode::True => out.push('⊤'),
                    NnfNode::False => out.push('⊥'),
                    NnfNode::Lit(l) => out.push_str(&format!("{l}")),
                    NnfNode::And(xs) | NnfNode::Or(xs) => {
                        let sep = if matches!(self.node(id), NnfNode::And(_)) {
                            " ∧ "
                        } else {
                            " ∨ "
                        };
                        out.push('(');
                        stack.push(Item::Text(")"));
                        for (i, x) in xs.iter().enumerate().rev() {
                            stack.push(Item::Node(*x));
                            if i > 0 {
                                stack.push(Item::Text(sep));
                            }
                        }
                    }
                },
            }
        }
        out
    }
}

/// Builds NNF circuits with structural hashing: identical gates share one
/// node, and trivial gates are simplified on the fly
/// (`∧` with a `⊥` input is `⊥`, single-input gates collapse, etc.).
///
/// Deduplication uses an open-addressing table of node ids that compares
/// candidates against the arena, and gate inputs are normalized in a
/// reusable scratch buffer, so a probe that finds an existing gate
/// allocates nothing; only a new gate copies its inputs into the arena —
/// the builder sits on the hot path of every compiler in the workspace.
pub struct CircuitBuilder {
    nodes: Vec<NnfNode>,
    /// Open-addressing dedup table over `nodes`; entries are `id + 1`,
    /// `0` means empty. Capacity is a power of two.
    table: Vec<u32>,
    num_vars: usize,
    /// Scratch buffer for the inputs of the gate being built.
    scratch: Vec<NnfId>,
}

/// Gate kinds, as keys of the dedup table.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    And,
    Or,
}

impl CircuitBuilder {
    /// A builder over the variable universe `0..num_vars`.
    pub fn new(num_vars: usize) -> Self {
        Self::with_capacity(num_vars, 0)
    }

    /// A builder over the variable universe `0..num_vars` with room for
    /// `nodes` nodes before its arena or dedup table must grow. The
    /// capacity changes no node: only how often the table is rehashed.
    pub fn with_capacity(num_vars: usize, nodes: usize) -> Self {
        CircuitBuilder {
            nodes: Vec::with_capacity(nodes),
            table: vec![0; (2 * nodes + 2).next_power_of_two().max(64)],
            num_vars,
            scratch: Vec::new(),
        }
    }

    fn hash_leaf(tag: u64, payload: u32) -> u64 {
        use std::hash::Hasher;
        let mut h = trl_core::FxHasher::default();
        h.write_u64(tag);
        h.write_u32(payload);
        h.finish()
    }

    fn hash_gate(gate: Gate, xs: &[NnfId]) -> u64 {
        use std::hash::Hasher;
        let mut h = trl_core::FxHasher::default();
        h.write_u64(3 + gate as u64);
        h.write_usize(xs.len());
        for x in xs {
            h.write_u32(x.0);
        }
        h.finish()
    }

    fn hash_node(node: &NnfNode) -> u64 {
        match node {
            NnfNode::True => Self::hash_leaf(0, 0),
            NnfNode::False => Self::hash_leaf(1, 0),
            NnfNode::Lit(l) => Self::hash_leaf(2, l.code()),
            NnfNode::And(xs) => Self::hash_gate(Gate::And, xs),
            NnfNode::Or(xs) => Self::hash_gate(Gate::Or, xs),
        }
    }

    /// Finds the node equal to the one `matches` describes (`hash` is its
    /// hash), or appends the node `make` builds.
    fn intern_with(
        &mut self,
        hash: u64,
        matches: impl Fn(&NnfNode) -> bool,
        make: impl FnOnce() -> NnfNode,
    ) -> NnfId {
        let mask = self.table.len() - 1;
        let mut idx = hash as usize & mask;
        loop {
            match self.table[idx] {
                0 => break,
                slot => {
                    let id = NnfId(slot - 1);
                    if matches(&self.nodes[id.index()]) {
                        return id;
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
        let id = NnfId(self.nodes.len() as u32);
        self.nodes.push(make());
        self.table[idx] = id.0 + 1;
        // Keep the load factor below 1/2.
        if (self.nodes.len() + 1) * 2 > self.table.len() {
            self.grow_table();
        }
        id
    }

    fn intern(&mut self, node: NnfNode) -> NnfId {
        let hash = Self::hash_node(&node);
        self.intern_with(hash, |n| *n == node, || node.clone())
    }

    /// Interns the gate over the inputs in the scratch buffer, verbatim.
    fn intern_scratch(&mut self, gate: Gate) -> NnfId {
        let xs = std::mem::take(&mut self.scratch);
        let hash = Self::hash_gate(gate, &xs);
        let id = self.intern_with(
            hash,
            |n| match (gate, n) {
                (Gate::And, NnfNode::And(ys)) | (Gate::Or, NnfNode::Or(ys)) => ys[..] == xs[..],
                _ => false,
            },
            || match gate {
                Gate::And => NnfNode::And(xs.clone()),
                Gate::Or => NnfNode::Or(xs.clone()),
            },
        );
        self.scratch = xs;
        id
    }

    /// Normalizes the scratch inputs of an and-gate (`absorbing` ⊥) or an
    /// or-gate (`absorbing` ⊤): constants folded, sorted, deduplicated,
    /// single inputs collapsed.
    fn normalized_gate(&mut self, gate: Gate) -> NnfId {
        let (unit, absorbing) = match gate {
            Gate::And => (NnfNode::True, NnfNode::False),
            Gate::Or => (NnfNode::False, NnfNode::True),
        };
        let nodes = &self.nodes;
        if self.scratch.iter().any(|x| nodes[x.index()] == absorbing) {
            return self.intern(absorbing);
        }
        self.scratch.retain(|x| nodes[x.index()] != unit);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        match self.scratch.len() {
            0 => self.intern(unit),
            1 => self.scratch[0],
            _ => self.intern_scratch(gate),
        }
    }

    fn grow_table(&mut self) {
        let cap = self.table.len() * 2;
        let mask = cap - 1;
        let mut table = vec![0u32; cap];
        for (i, node) in self.nodes.iter().enumerate() {
            let mut idx = Self::hash_node(node) as usize & mask;
            while table[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            table[idx] = i as u32 + 1;
        }
        self.table = table;
    }

    /// The constant true.
    pub fn true_(&mut self) -> NnfId {
        self.intern(NnfNode::True)
    }

    /// The constant false.
    pub fn false_(&mut self) -> NnfId {
        self.intern(NnfNode::False)
    }

    /// A literal input.
    pub fn lit(&mut self, l: Lit) -> NnfId {
        assert!(
            l.var().index() < self.num_vars,
            "literal variable out of universe"
        );
        self.intern(NnfNode::Lit(l))
    }

    /// A positive literal for `v`.
    pub fn var(&mut self, v: Var) -> NnfId {
        self.lit(v.positive())
    }

    /// An and-gate. Constants are folded; duplicates are removed; a single
    /// input collapses to that input.
    pub fn and(&mut self, inputs: impl IntoIterator<Item = NnfId>) -> NnfId {
        self.scratch.clear();
        self.scratch.extend(inputs);
        self.normalized_gate(Gate::And)
    }

    /// An or-gate, with the dual simplifications of [`CircuitBuilder::and`].
    pub fn or(&mut self, inputs: impl IntoIterator<Item = NnfId>) -> NnfId {
        self.scratch.clear();
        self.scratch.extend(inputs);
        self.normalized_gate(Gate::Or)
    }

    /// An or-gate that preserves its inputs verbatim (no constant folding,
    /// no deduplication, no collapse). Needed when gate *shape* matters —
    /// e.g. smoothing gadgets `(x ∨ ¬x)` must survive even though they are
    /// semantically `⊤`.
    pub fn or_raw(&mut self, inputs: impl IntoIterator<Item = NnfId>) -> NnfId {
        self.scratch.clear();
        self.scratch.extend(inputs);
        self.intern_scratch(Gate::Or)
    }

    /// An and-gate that preserves its inputs verbatim.
    pub fn and_raw(&mut self, inputs: impl IntoIterator<Item = NnfId>) -> NnfId {
        self.scratch.clear();
        self.scratch.extend(inputs);
        self.intern_scratch(Gate::And)
    }

    /// A cube (conjunction of literals).
    pub fn cube(&mut self, lits: impl IntoIterator<Item = Lit>) -> NnfId {
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        for l in lits {
            ids.push(self.lit(l));
        }
        self.scratch = ids;
        self.normalized_gate(Gate::And)
    }

    /// Finalizes the circuit with the given root.
    pub fn finish(self, root: NnfId) -> Circuit {
        assert!(root.index() < self.nodes.len(), "root out of range");
        Circuit {
            nodes: self.nodes,
            root,
            num_vars: self.num_vars,
            interned: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn builder_simplifies_constants() {
        let mut b = CircuitBuilder::new(2);
        let t = b.true_();
        let f = b.false_();
        let x = b.var(v(0));
        assert_eq!(b.and([t, x]), x);
        assert_eq!(b.and([f, x]), f);
        assert_eq!(b.or([f, x]), x);
        assert_eq!(b.or([t, x]), t);
        assert_eq!(b.and([]), t);
        assert_eq!(b.or([]), f);
    }

    #[test]
    fn builder_dedups_structurally() {
        let mut b = CircuitBuilder::new(2);
        let x = b.var(v(0));
        let y = b.var(v(1));
        let a1 = b.and([x, y]);
        let a2 = b.and([y, x]); // sorted → same node
        assert_eq!(a1, a2);
        let c = b.finish(a1);
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn eval_matches_semantics() {
        // (x0 ∧ ¬x1) ∨ x2
        let mut b = CircuitBuilder::new(3);
        let x0 = b.var(v(0));
        let nx1 = b.lit(v(1).negative());
        let x2 = b.var(v(2));
        let a = b.and([x0, nx1]);
        let r = b.or([a, x2]);
        let c = b.finish(r);
        for code in 0..8u64 {
            let asg = Assignment::from_index(code, 3);
            let expected = (asg.value(v(0)) && !asg.value(v(1))) || asg.value(v(2));
            assert_eq!(c.eval(&asg), expected);
        }
    }

    #[test]
    fn scopes_accumulate() {
        let mut b = CircuitBuilder::new(4);
        let x0 = b.var(v(0));
        let x3 = b.lit(v(3).negative());
        let a = b.and([x0, x3]);
        let c = b.finish(a);
        let scopes = c.scopes();
        let s = &scopes[a.index()];
        assert!(s.contains(v(0)) && s.contains(v(3)) && s.len() == 2);
    }

    #[test]
    fn condition_substitutes_and_simplifies() {
        let mut b = CircuitBuilder::new(2);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let a = b.and([x0, x1]);
        let c = b.finish(a);
        let mut pa = PartialAssignment::new(2);
        pa.assign(v(0).positive());
        let cond = c.condition(&pa);
        // x0=1: circuit reduces to x1.
        assert!(matches!(cond.node(cond.root()), NnfNode::Lit(l) if *l == v(1).positive()));
        pa.assign(v(1).negative());
        let cond2 = c.condition(&pa);
        assert!(matches!(cond2.node(cond2.root()), NnfNode::False));
    }

    #[test]
    fn edge_count_counts_fanin() {
        let mut b = CircuitBuilder::new(3);
        let x0 = b.var(v(0));
        let x1 = b.var(v(1));
        let x2 = b.var(v(2));
        let a = b.and([x0, x1, x2]);
        let o = b.or([a, x0]);
        let c = b.finish(o);
        assert_eq!(c.edge_count(), 5);
    }

    #[test]
    fn from_parts_accepts_valid_and_rejects_invalid() {
        // (x0 ∧ x1) built by hand.
        let nodes = vec![
            NnfNode::Lit(v(0).positive()),
            NnfNode::Lit(v(1).positive()),
            NnfNode::And(vec![NnfId(0), NnfId(1)]),
        ];
        let c = Circuit::from_parts(2, nodes.clone(), NnfId(2)).unwrap();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.model_count(), 1);

        // Root out of range.
        assert!(Circuit::from_parts(2, nodes.clone(), NnfId(3)).is_err());
        // Forward edge (topological violation).
        let fwd = vec![NnfNode::And(vec![NnfId(1)]), NnfNode::True];
        assert!(Circuit::from_parts(2, fwd, NnfId(0)).is_err());
        // Self loop.
        let looped = vec![NnfNode::Or(vec![NnfId(0)])];
        assert!(Circuit::from_parts(2, looped, NnfId(0)).is_err());
        // Literal outside the universe.
        let bad_lit = vec![NnfNode::Lit(v(5).positive())];
        assert!(Circuit::from_parts(2, bad_lit, NnfId(0)).is_err());
    }

    #[test]
    fn raw_gates_preserve_shape() {
        let mut b = CircuitBuilder::new(1);
        let x = b.var(v(0));
        let nx = b.lit(v(0).negative());
        let taut = b.or_raw([x, nx]);
        let c = b.finish(taut);
        assert!(matches!(c.node(c.root()), NnfNode::Or(xs) if xs.len() == 2));
    }
}
