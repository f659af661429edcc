//! Boolean circuits in Negation Normal Form and their tractable subsets.
//!
//! NNF circuits (Fig. 5 of the paper) have and-gates, or-gates, and
//! inverters that feed only from variables — i.e. the internal nodes are
//! `∧`/`∨` over literals and constants. Plain NNF circuits are intractable;
//! the paper's §3 reviews how imposing properties unlocks the complexity
//! ladder:
//!
//! | property (circuit class)              | unlocked query            | class |
//! |---------------------------------------|---------------------------|-------|
//! | decomposability (DNNF)                | SAT in linear time        | NP    |
//! | + determinism (+smoothness) (d-DNNF)  | #SAT / WMC in linear time | PP    |
//! | + structure + sentential decision     | E-MAJSAT, MAJMAJSAT       | NP^PP, PP^PP (see `trl-sdd`) |
//!
//! This crate provides:
//! * [`Circuit`] — an arena-allocated NNF DAG with structural hashing
//!   ([`CircuitBuilder`]), evaluation, and conditioning;
//! * [`properties`] — polytime structural checks for decomposability,
//!   smoothness and structuredness, exhaustive determinism checking for
//!   test-sized circuits, and the smoothing transform;
//! * [`queries`] — the polytime queries themselves: SAT on DNNF, model
//!   counting (optionally under evidence) / weighted model counting
//!   (Fig. 8) / MPE / all-marginals on smooth d-DNNF, model enumeration,
//!   and minimum cardinality;
//! * [`kernel`] — the serving-grade evaluation kernels: the reachable
//!   arena linearized into a cache-ordered, layer-grouped instruction tape
//!   ([`EvalTape`]), swept by one lane-batched sum-product kernel for
//!   counts, WMC and marginals in any mix ([`LANES`] queries per scan,
//!   dispatched to the widest supported [`LaneBackend`], optionally
//!   layer-parallel on the persistent [`SweepPool`]) and its max-product
//!   twin for MPE — every lane bit-identical to the scalar [`queries`].

pub mod circuit;
pub mod kernel;
pub mod pool;
pub mod properties;
pub mod queries;
pub mod simd;
pub mod taxonomy;

pub use circuit::{Circuit, CircuitBuilder, NnfId, NnfNode};
pub use kernel::{EvalTape, SumProductAnswer, SumProductLane, LANES};
pub use pool::SweepPool;
pub use properties::smooth;
pub use queries::LitWeights;
pub use simd::LaneBackend;
pub use taxonomy::{classify, CircuitClass};
