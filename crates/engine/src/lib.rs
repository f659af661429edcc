//! The compile-once / query-many inference engine.
//!
//! The point of knowledge compilation (§2–3 of the paper) is to pay the
//! compilation cost *once* and then answer many poly-time queries against
//! the compiled circuit. This crate turns the workspace's substrates into a
//! long-lived serving architecture around that contract:
//!
//! * [`binary`] — a versioned, checksummed binary artifact format for
//!   `trl-nnf` circuits, so a compiled d-DNNF outlives the process;
//! * [`text`] — c2d-compatible `.nnf` and SDD-library-compatible `.vtree`
//!   text formats for interop with external compilers;
//! * [`validate`] — load-time re-verification of the tractability
//!   properties (decomposability, determinism) that the poly-time queries
//!   rely on, so a corrupted or foreign artifact is rejected with a typed
//!   [`EngineError`] instead of silently answering wrong;
//! * [`prepared`] — [`PreparedCircuit`]: a compiled circuit plus the
//!   [`trl_nnf::EvalTape`] its smoothed form is linearized into lazily,
//!   **once**, then queried many times through the tape kernels;
//! * [`registry`] — a bounded artifact store keyed on CNF [`fingerprint`],
//!   evicting by retained node count under S3-FIFO, so one-off formulas
//!   never push out popular circuits;
//! * [`artifact`] — [`Artifact`]: the typed registry entry generalizing
//!   "compiled circuit" to the paper's other two roles — learned PSDDs
//!   (role 2), compiled structured spaces (role 2), and compiled
//!   classifiers (role 3) — each with kind-salted fingerprints;
//! * [`executor`] — answers batches on the caller; runs builds on a worker
//!   pool. A batch's compatible [`Query`] values are grouped per circuit
//!   and each group is answered with one lane-batched kernel sweep,
//!   reporting per-query latency;
//! * [`engine`] — [`Engine`]: the registry and executor bundled behind one
//!   `Arc`-shareable handle with a [`StatsSnapshot`] counter surface — what
//!   a serving frontend (`trl-server`) holds.
//!
//! ```
//! use trl_engine::{Engine, Query};
//! use trl_prop::Cnf;
//! use std::sync::Arc;
//!
//! let cnf = Cnf::parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
//! let engine = Engine::new(1 << 20, Some(1));
//! let (_, circuit) = engine.compile(&cnf); // compiles: miss
//! let (_, again) = engine.compile(&cnf);   // hit: same Arc
//! assert!(Arc::ptr_eq(&circuit, &again));
//!
//! let outcomes = engine
//!     .run_batch(&circuit, vec![Query::ModelCount, Query::Sat])
//!     .unwrap();
//! assert_eq!(outcomes[0].answer.model_count(), Some(2));
//! ```

pub mod artifact;
pub mod binary;
pub mod engine;
pub mod error;
pub mod executor;
pub mod prepared;
pub mod registry;
pub mod text;
pub mod validate;

pub use artifact::{
    classifier_fingerprint, psdd_fingerprint, space_fingerprint, Artifact, ArtifactKind,
};
pub use binary::{load_binary, read_binary, save_binary, write_binary, FORMAT_VERSION};
pub use engine::{Engine, StatsSnapshot};
pub use error::EngineError;
pub use executor::{
    Executor, ParallelPolicy, Query, QueryAnswer, QueryOutcome, DEFAULT_LAYERED_MIN_NODES,
    QUERY_KINDS,
};
pub use prepared::PreparedCircuit;
pub use registry::{fingerprint, Registry, RegistryStats};
pub use text::{
    load_nnf, load_vtree, read_nnf, read_vtree, save_nnf, save_vtree, write_nnf, write_vtree,
};
pub use validate::{check_ddnnf, Validation};
