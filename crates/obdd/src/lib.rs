//! Reduced Ordered Binary Decision Diagrams (OBDDs).
//!
//! OBDDs \[7\] are the classic tractable circuit: ordered decision graphs
//! where every root-to-leaf path tests variables in a fixed order (Fig. 25
//! of the paper). An OBDD node is exactly the two-prime multiplexer of
//! Fig. 11 — `(x ∧ high) ∨ (¬x ∧ low)` — so every OBDD is a
//! (structured) d-DNNF and, per Fig. 10(c), an SDD over a right-linear
//! vtree.
//!
//! In this workspace OBDDs carry the paper's third role: classifiers are
//! compiled into OBDDs (naive Bayes via [`Obdd::threshold`], networks by
//! composing neuron thresholds), and explanation/robustness queries run on
//! them in time linear in the diagram (see `trl-xai`).
//!
//! The manager ([`Obdd`]) owns a unique table, so diagrams are *canonical*:
//! two equivalent functions (under the same order) are the same node — the
//! input–output equivalence checks of §5 are pointer comparisons.

pub mod convert;
pub mod manager;
pub mod queries;
pub mod threshold;

pub use manager::{BddRef, Obdd};
