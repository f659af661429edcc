//! # three-roles
//!
//! A Rust reproduction of *Three Modern Roles for Logic in AI*
//! (Adnan Darwiche, PODS 2020): tractable Boolean circuits as a basis for
//! **computation**, for **learning from data and knowledge**, and for
//! **meta-reasoning about machine learning systems**.
//!
//! This crate is the umbrella façade: it re-exports the workspace crates
//! under stable module names so applications can depend on one crate.
//!
//! ```
//! use three_roles::prop::Cnf;
//! use three_roles::compiler::DecisionDnnfCompiler;
//!
//! // (x0 ∨ x1) ∧ (¬x0 ∨ x1): compile once, count models in linear time.
//! let cnf = Cnf::parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
//! let circuit = DecisionDnnfCompiler::default().compile(&cnf);
//! assert_eq!(circuit.model_count(), 2);
//! ```

/// Bayesian networks, their queries, and the reduction to weighted model counting.
pub use trl_bayesnet as bayesnet;
/// Knowledge compilers: CNF → Decision-DNNF / OBDD / SDD, and model counters.
pub use trl_compiler as compiler;
/// Shared primitives: variables, literals, assignments, bitsets, semirings.
pub use trl_core as core;
/// Compile-once/query-many serving: circuit persistence, the artifact
/// registry, and the batched query executor.
pub use trl_engine as engine;
/// NNF circuits, their tractability properties, and their polytime queries.
pub use trl_nnf as nnf;
/// Ordered binary decision diagrams.
pub use trl_obdd as obdd;
/// Observability: process-global counters, gauges, latency histograms,
/// span timers, and their table/Prometheus expositions.
pub use trl_obs as obs;
/// Propositional logic: CNF, DIMACS, SAT, prime implicants.
pub use trl_prop as prop;
/// Probabilistic SDDs: learning distributions from data and symbolic knowledge.
pub use trl_psdd as psdd;
/// Sentential decision diagrams.
pub use trl_sdd as sdd;
/// Network serving: wire protocol, TCP server, and blocking client.
pub use trl_server as server;
/// Combinatorial/structured probability spaces: routes, rankings, hierarchical maps.
pub use trl_spaces as spaces;
/// Vtrees: the structure dimension of SDDs and structured DNNFs.
pub use trl_vtree as vtree;
/// Meta-reasoning: compiling classifiers into circuits; explanations, bias, robustness.
pub use trl_xai as xai;
