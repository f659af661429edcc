//! Vtrees: full binary trees whose leaves are in one-to-one correspondence
//! with circuit variables (Fig. 10 of the paper).
//!
//! A vtree fixes the *structure* dimension of structured-decomposable
//! circuits: every and-gate of a structured DNNF or SDD respects some vtree
//! node, with its two inputs ranging over the node's left and right
//! subtrees. Three shapes matter in the paper:
//!
//! * **right-linear** vtrees (Fig. 10c) — SDDs structured by them *are*
//!   OBDDs;
//! * **balanced / dissection** vtrees — often exponentially smaller SDDs
//!   than any OBDD (Bova's separation, exercised by `exp05_succinctness`);
//! * **constrained** vtrees for `X|Y` (Fig. 10b) — unlock E-MAJSAT and
//!   MAJMAJSAT in linear time on the compiled SDD \[61\].
//!
//! The tree is an immutable arena ([`Vtree`]) with O(1) ancestor tests via
//! in-order leaf intervals and O(depth) LCA.

use trl_core::{Var, VarSet};

/// Index of a node within a [`Vtree`] arena.
pub type VtreeNodeId = usize;

#[derive(Clone, Debug)]
enum Node {
    Leaf(Var),
    Internal {
        left: VtreeNodeId,
        right: VtreeNodeId,
    },
}

/// An immutable vtree over a set of variables.
#[derive(Clone, Debug)]
pub struct Vtree {
    nodes: Vec<Node>,
    parent: Vec<Option<VtreeNodeId>>,
    depth: Vec<u32>,
    /// In-order interval of leaf positions covered by each node.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Leaf node of each variable (indexed by variable).
    leaf_of: Vec<Option<VtreeNodeId>>,
    /// Variables below each node.
    vars: Vec<VarSet>,
    root: VtreeNodeId,
}

impl Vtree {
    /// Builds a right-linear vtree over the given variable order: SDDs
    /// respecting it are OBDDs with that order (Fig. 10c).
    pub fn right_linear(order: &[Var]) -> Vtree {
        assert!(!order.is_empty(), "vtree needs at least one variable");
        Builder::default().build(&Shape::right_linear(order))
    }

    /// Builds a left-linear vtree over the given variable order.
    pub fn left_linear(order: &[Var]) -> Vtree {
        assert!(!order.is_empty(), "vtree needs at least one variable");
        Builder::default().build(&Shape::left_linear(order))
    }

    /// Builds a balanced vtree over the given variable order.
    pub fn balanced(order: &[Var]) -> Vtree {
        assert!(!order.is_empty(), "vtree needs at least one variable");
        Builder::default().build(&Shape::balanced(order))
    }

    /// Builds a constrained vtree for `bottom | top` (paper notation `X|Y`,
    /// Fig. 10b): the `top` variables hang as left leaves along the right
    /// spine, and a balanced subtree over the `bottom` variables terminates
    /// the spine. The terminating node is returned by
    /// [`Vtree::constrained_node`] as the node `u` whose variables are
    /// exactly `bottom`.
    pub fn constrained(top: &[Var], bottom: &[Var]) -> Vtree {
        assert!(
            !bottom.is_empty(),
            "constrained vtree needs bottom variables"
        );
        let mut shape = Shape::balanced(bottom);
        for &v in top.iter().rev() {
            shape = Shape::Internal(Box::new(Shape::Leaf(v)), Box::new(shape));
        }
        Builder::default().build(&shape)
    }

    /// Builds a vtree from an explicit [`Shape`].
    pub fn from_shape(shape: &Shape) -> Vtree {
        Builder::default().build(shape)
    }

    /// The root node.
    pub fn root(&self) -> VtreeNodeId {
        self.root
    }

    /// Number of nodes (leaves + internal).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of variables (= leaves).
    pub fn num_vars(&self) -> usize {
        self.leaf_of.iter().filter(|l| l.is_some()).count()
    }

    /// Whether `node` is a leaf, and if so for which variable.
    pub fn leaf_var(&self, node: VtreeNodeId) -> Option<Var> {
        match self.nodes[node] {
            Node::Leaf(v) => Some(v),
            Node::Internal { .. } => None,
        }
    }

    /// The left child of an internal node.
    pub fn left(&self, node: VtreeNodeId) -> VtreeNodeId {
        match self.nodes[node] {
            Node::Internal { left, .. } => left,
            Node::Leaf(_) => panic!("leaf has no children"),
        }
    }

    /// The right child of an internal node.
    pub fn right(&self, node: VtreeNodeId) -> VtreeNodeId {
        match self.nodes[node] {
            Node::Internal { right, .. } => right,
            Node::Leaf(_) => panic!("leaf has no children"),
        }
    }

    /// Whether the node is internal.
    pub fn is_internal(&self, node: VtreeNodeId) -> bool {
        matches!(self.nodes[node], Node::Internal { .. })
    }

    /// The parent, if any.
    pub fn parent(&self, node: VtreeNodeId) -> Option<VtreeNodeId> {
        self.parent[node]
    }

    /// The leaf node of a variable. Panics if the variable is not in the tree.
    pub fn leaf_of_var(&self, var: Var) -> VtreeNodeId {
        self.leaf_of
            .get(var.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("{var} is not in this vtree"))
    }

    /// Whether the variable appears in this vtree.
    pub fn contains_var(&self, var: Var) -> bool {
        var.index() < self.leaf_of.len() && self.leaf_of[var.index()].is_some()
    }

    /// The variables below `node`.
    pub fn vars(&self, node: VtreeNodeId) -> &VarSet {
        &self.vars[node]
    }

    /// Whether `anc` is an ancestor of `node` (a node is its own ancestor).
    pub fn is_ancestor(&self, anc: VtreeNodeId, node: VtreeNodeId) -> bool {
        self.first[anc] <= self.first[node] && self.last[node] <= self.last[anc]
    }

    /// Whether `anc` is a *strict* ancestor of `node`.
    pub fn is_strict_ancestor(&self, anc: VtreeNodeId, node: VtreeNodeId) -> bool {
        anc != node && self.is_ancestor(anc, node)
    }

    /// The lowest common ancestor of two nodes.
    pub fn lca(&self, mut a: VtreeNodeId, mut b: VtreeNodeId) -> VtreeNodeId {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].unwrap();
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].unwrap();
        }
        while a != b {
            a = self.parent[a].unwrap();
            b = self.parent[b].unwrap();
        }
        a
    }

    /// Whether `node` lies in the left subtree of internal node `of`.
    pub fn in_left_subtree(&self, node: VtreeNodeId, of: VtreeNodeId) -> bool {
        self.is_ancestor(self.left(of), node)
    }

    /// Whether `node` lies in the right subtree of internal node `of`.
    pub fn in_right_subtree(&self, node: VtreeNodeId, of: VtreeNodeId) -> bool {
        self.is_ancestor(self.right(of), node)
    }

    /// For a vtree built by [`Vtree::constrained`], the node `u` of
    /// Fig. 10(b): reached from the root by right children only, whose
    /// variables are exactly `bottom`. Returns the first right-spine node
    /// whose variable set equals `bottom`, if any.
    pub fn constrained_node(&self, bottom: &VarSet) -> Option<VtreeNodeId> {
        let mut n = self.root;
        loop {
            if self.vars(n) == bottom {
                return Some(n);
            }
            if self.is_internal(n) {
                n = self.right(n);
            } else {
                return None;
            }
        }
    }

    /// Nodes in post-order (children before parents).
    pub fn post_order(&self) -> Vec<VtreeNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded || !self.is_internal(n) {
                out.push(n);
            } else {
                stack.push((n, true));
                stack.push((self.right(n), false));
                stack.push((self.left(n), false));
            }
        }
        out
    }

    /// Whether the vtree is right-linear (every left child is a leaf).
    pub fn is_right_linear(&self) -> bool {
        (0..self.nodes.len()).all(|n| !self.is_internal(n) || !self.is_internal(self.left(n)))
    }

    /// The declarative [`Shape`] of this vtree — the inverse of
    /// [`Vtree::from_shape`].
    pub fn to_shape(&self) -> Shape {
        self.shape_of(self.root)
    }

    fn shape_of(&self, node: VtreeNodeId) -> Shape {
        match self.nodes[node] {
            Node::Leaf(v) => Shape::Leaf(v),
            Node::Internal { left, right } => Shape::Internal(
                Box::new(self.shape_of(left)),
                Box::new(self.shape_of(right)),
            ),
        }
    }

    /// The in-order variable sequence (left-to-right leaves). For a
    /// right-linear vtree this is the OBDD variable order.
    pub fn variable_order(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match self.nodes[n] {
                Node::Leaf(v) => out.push(v),
                Node::Internal { left, right } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        out
    }
}

/// A declarative vtree shape, for constructing custom trees.
#[derive(Clone, Debug)]
pub enum Shape {
    /// A leaf holding one variable.
    Leaf(Var),
    /// An internal node with ordered children (left, right).
    Internal(Box<Shape>, Box<Shape>),
}

impl Shape {
    /// Right-linear shape over an order.
    pub fn right_linear(order: &[Var]) -> Shape {
        let (&head, rest) = order.split_first().expect("non-empty order");
        if rest.is_empty() {
            Shape::Leaf(head)
        } else {
            Shape::Internal(
                Box::new(Shape::Leaf(head)),
                Box::new(Shape::right_linear(rest)),
            )
        }
    }

    /// Left-linear shape over an order.
    pub fn left_linear(order: &[Var]) -> Shape {
        let (&tail, rest) = order.split_last().expect("non-empty order");
        if rest.is_empty() {
            Shape::Leaf(tail)
        } else {
            Shape::Internal(
                Box::new(Shape::left_linear(rest)),
                Box::new(Shape::Leaf(tail)),
            )
        }
    }

    /// Balanced shape over an order.
    pub fn balanced(order: &[Var]) -> Shape {
        match order {
            [] => panic!("non-empty order required"),
            [v] => Shape::Leaf(*v),
            _ => {
                let mid = order.len() / 2;
                Shape::Internal(
                    Box::new(Shape::balanced(&order[..mid])),
                    Box::new(Shape::balanced(&order[mid..])),
                )
            }
        }
    }
}

#[derive(Default)]
struct Builder {
    nodes: Vec<Node>,
    parent: Vec<Option<VtreeNodeId>>,
    depth: Vec<u32>,
    first: Vec<u32>,
    last: Vec<u32>,
    vars: Vec<VarSet>,
    leaf_of: Vec<Option<VtreeNodeId>>,
    next_pos: u32,
}

impl Builder {
    fn build(mut self, shape: &Shape) -> Vtree {
        let root = self.add(shape, 0);
        self.parent[root] = None;
        Vtree {
            nodes: self.nodes,
            parent: self.parent,
            depth: self.depth,
            first: self.first,
            last: self.last,
            leaf_of: self.leaf_of,
            vars: self.vars,
            root,
        }
    }

    fn add(&mut self, shape: &Shape, depth: u32) -> VtreeNodeId {
        match shape {
            Shape::Leaf(v) => {
                let id = self.push(Node::Leaf(*v), depth);
                let pos = self.next_pos;
                self.next_pos += 1;
                self.first[id] = pos;
                self.last[id] = pos;
                if v.index() >= self.leaf_of.len() {
                    self.leaf_of.resize(v.index() + 1, None);
                }
                assert!(
                    self.leaf_of[v.index()].is_none(),
                    "variable {v} appears twice in vtree"
                );
                self.leaf_of[v.index()] = Some(id);
                self.vars[id].insert(*v);
                id
            }
            Shape::Internal(l, r) => {
                let left = self.add(l, depth + 1);
                let right = self.add(r, depth + 1);
                let id = self.push(Node::Internal { left, right }, depth);
                self.parent[left] = Some(id);
                self.parent[right] = Some(id);
                self.first[id] = self.first[left];
                self.last[id] = self.last[right];
                let mut vs = self.vars[left].clone();
                vs.union_with(&self.vars[right]);
                self.vars[id] = vs;
                id
            }
        }
    }

    fn push(&mut self, node: Node, depth: u32) -> VtreeNodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.parent.push(None);
        self.depth.push(depth);
        self.first.push(0);
        self.last.push(0);
        self.vars.push(VarSet::new());
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: u32) -> Vec<Var> {
        (0..n).map(Var).collect()
    }

    #[test]
    fn right_linear_structure() {
        let t = Vtree::right_linear(&vars(4));
        assert!(t.is_right_linear());
        assert_eq!(t.num_vars(), 4);
        assert_eq!(t.node_count(), 7);
        assert_eq!(t.variable_order(), vars(4));
        // Root's left child is the leaf of x0.
        assert_eq!(t.leaf_var(t.left(t.root())), Some(Var(0)));
    }

    #[test]
    fn left_linear_and_balanced() {
        let l = Vtree::left_linear(&vars(4));
        assert!(!l.is_right_linear());
        assert_eq!(l.variable_order(), vars(4));
        let b = Vtree::balanced(&vars(4));
        assert_eq!(b.variable_order(), vars(4));
        // Balanced over 4: root splits 2/2.
        assert_eq!(b.vars(b.left(b.root())).len(), 2);
    }

    #[test]
    fn single_variable_tree() {
        let t = Vtree::balanced(&vars(1));
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_var(t.root()), Some(Var(0)));
        assert!(t.is_right_linear());
    }

    #[test]
    fn ancestor_and_lca() {
        let t = Vtree::balanced(&vars(8));
        let root = t.root();
        let l0 = t.leaf_of_var(Var(0));
        let l7 = t.leaf_of_var(Var(7));
        assert!(t.is_ancestor(root, l0));
        assert!(t.is_ancestor(l0, l0));
        assert!(!t.is_strict_ancestor(l0, l0));
        assert!(!t.is_ancestor(l0, root));
        assert_eq!(t.lca(l0, l7), root);
        let l1 = t.leaf_of_var(Var(1));
        let lca01 = t.lca(l0, l1);
        assert!(t.is_strict_ancestor(lca01, l0));
        assert!(t.in_left_subtree(l0, lca01));
        assert!(t.in_right_subtree(l1, lca01));
        assert_ne!(lca01, root);
    }

    #[test]
    fn vars_per_node() {
        let t = Vtree::right_linear(&vars(3));
        let root = t.root();
        assert_eq!(t.vars(root).len(), 3);
        let right = t.right(root);
        assert_eq!(t.vars(right).len(), 2);
        assert!(t.vars(right).contains(Var(1)));
        assert!(!t.vars(right).contains(Var(0)));
    }

    #[test]
    fn constrained_vtree_has_bottom_node_on_right_spine() {
        let top = vars(3);
        let bottom: Vec<Var> = (3..7).map(Var).collect();
        let t = Vtree::constrained(&top, &bottom);
        let bottom_set: VarSet = bottom.iter().copied().collect();
        let u = t.constrained_node(&bottom_set).expect("node u exists");
        assert_eq!(t.vars(u), &bottom_set);
        // u is reached by right children only.
        let mut n = t.root();
        while n != u {
            n = t.right(n);
        }
        // Top variables are left leaves along the spine, in order.
        assert_eq!(t.leaf_var(t.left(t.root())), Some(Var(0)));
    }

    #[test]
    fn post_order_is_children_first() {
        let t = Vtree::balanced(&vars(5));
        let order = t.post_order();
        assert_eq!(order.len(), t.node_count());
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in 0..t.node_count() {
            if t.is_internal(n) {
                assert!(position[&t.left(n)] < position[&n]);
                assert!(position[&t.right(n)] < position[&n]);
            }
        }
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_variable_panics() {
        let shape = Shape::Internal(Box::new(Shape::Leaf(Var(0))), Box::new(Shape::Leaf(Var(0))));
        let _ = Vtree::from_shape(&shape);
    }

    #[test]
    fn to_shape_round_trips() {
        for t in [
            Vtree::balanced(&vars(7)),
            Vtree::right_linear(&vars(5)),
            Vtree::left_linear(&vars(4)),
        ] {
            let rebuilt = Vtree::from_shape(&t.to_shape());
            assert_eq!(rebuilt.node_count(), t.node_count());
            assert_eq!(rebuilt.variable_order(), t.variable_order());
        }
    }

    #[test]
    fn non_contiguous_variables_supported() {
        let t = Vtree::balanced(&[Var(5), Var(2), Var(9)]);
        assert_eq!(t.num_vars(), 3);
        assert!(t.contains_var(Var(9)));
        assert!(!t.contains_var(Var(0)));
        assert_eq!(t.leaf_var(t.leaf_of_var(Var(2))), Some(Var(2)));
    }
}
