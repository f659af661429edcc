//! Shared primitives for the `three-roles` workspace.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Var`] and [`Lit`] — propositional variables and literals with a
//!   compact `u32` representation (literals use the LSB for polarity, the
//!   classic SAT-solver encoding).
//! * [`Assignment`] — a total instantiation of a variable set; and
//!   [`PartialAssignment`] — a three-valued map used by solvers and
//!   conditioning operations.
//! * [`Cube`] — a consistent conjunction of literals (a *term*), the currency
//!   of prime implicants and explanations.
//! * [`VarSet`] — a growable bitset over variables, used for circuit scopes,
//!   decomposability checks, and smoothing gaps.
//! * [`hash`] — an FxHash-style hasher plus `HashMap`/`HashSet` aliases.
//!   Unique tables and apply caches hash tiny integer keys millions of times;
//!   SipHash is measurably the wrong default there (see the workspace
//!   DESIGN.md for the justification).
//! * [`rng`] — a tiny deterministic SplitMix64 stream so randomized tests
//!   and workload generators need no external dependency (the workspace
//!   builds air-gapped).

pub mod bitset;
pub mod error;
pub mod hash;
pub mod lit;
pub mod rng;

pub use bitset::VarSet;
pub use error::{Error, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use lit::{Assignment, Cube, Lit, PartialAssignment, Var};
pub use rng::SplitMix64;
