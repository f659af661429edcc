//! `trl-server`: a networked serving frontend over [`trl_engine`].
//!
//! The paper's "logic for computation" role is a compile-once/query-many
//! contract; PRs 2–3 built the in-process half (registry, prepared
//! circuits, batched executor, evaluation kernels). This crate puts a real
//! network boundary in front of it, std-only like the rest of the
//! workspace:
//!
//! * [`protocol`] — a length-prefixed, checksummed binary wire protocol
//!   with one version ([`PROTOCOL_VERSION`]). Builds (compile, PSDD
//!   learning, structured spaces, classifiers, optimize), stats, ping and
//!   shutdown each have a frame; every query kind of the three roles —
//!   SAT, model counts, WMC, marginals, MPE; PSDD log-likelihood and
//!   marginals, space count and top; sufficient reasons, robustness and
//!   bias — rides one of two query frames (plain or traced), which carry
//!   a client-chosen id and are answered out of order by id. Corrupt,
//!   truncated, or oversized frames, and frames of any other version,
//!   yield typed [`ProtocolError`]s, never panics, and floats travel as
//!   IEEE-754 bit patterns so served answers are **bit-identical** to
//!   in-process ones;
//! * [`server`] — a readiness-driven multiplexed TCP server whose reactor
//!   threads answer queries themselves and hand builds to the engine's
//!   worker pool, with a bounded connection-acceptance gate,
//!   per-connection stall deadlines, a bounded admission queue that
//!   answers [`WireError::Overloaded`] when full (backpressure instead of
//!   unbounded buffering), and graceful shutdown that stops accepting,
//!   drains in-flight requests, and joins every thread;
//! * [`client`] — a blocking client used by the `three-roles` CLI and
//!   the examples.
//!
//! ```
//! use std::sync::Arc;
//! use trl_engine::{Engine, Query};
//! use trl_prop::Cnf;
//! use trl_server::{Client, Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::new(1 << 20, Some(2)));
//! let handle = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let cnf = Cnf::parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n").unwrap();
//! let compiled = client.compile(&cnf).unwrap();
//! let answer = client.query(compiled.key, Query::ModelCount).unwrap();
//! assert_eq!(answer.model_count(), Some(2));
//!
//! handle.shutdown();
//! ```

pub mod client;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{
    ClassifierSummary, Client, ClientError, CompiledSummary, LearnedSummary, OptimizedSummary,
    SpaceSummary,
};
pub use protocol::{
    read_request, read_response, scan_frame, write_request, write_response, FrameScan,
    ProtocolError, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, MAX_UNIVERSE,
    PROTOCOL_VERSION,
};
pub use reactor::{Event, Reactor, Waker};
pub use server::{Server, ServerConfig, ServerCounters, ServerHandle};
