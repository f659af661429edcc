//! A blocking client for the `trl-server` wire protocol.
//!
//! One [`Client`] wraps one TCP connection. The `pipeline_*` family keeps
//! many query frames in flight on the connection and matches responses
//! by id as they complete; every other method is one frame out, one frame
//! in, and [`Client::query`], [`Client::batch`] and [`Client::trace`] are
//! that pipelined client at depth 1 (they check that the response echoes
//! the id they sent). Server-side failures arrive as [`ClientError::Server`] carrying the
//! typed [`WireError`] — the connection stays usable afterwards (that is
//! how a caller sees and reacts to [`WireError::Overloaded`]
//! backpressure). Protocol-level failures ([`ClientError::Protocol`])
//! mean the stream is broken; reconnect.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_response, write_request, ProtocolError, Request, Response, WireError,
    DEFAULT_MAX_FRAME_LEN,
};
use trl_engine::{Query, QueryAnswer, StatsSnapshot};
use trl_obs::{TraceContext, TraceSpanData};
use trl_prop::Cnf;

/// What a [`Client`] call can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The stream or framing layer failed; the connection is unusable.
    Protocol(ProtocolError),
    /// The server answered with a typed error; the connection is fine.
    Server(WireError),
    /// The server answered with a well-formed frame of the wrong type.
    UnexpectedResponse {
        /// What the call was waiting for.
        expected: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "unexpected response type (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::from(e))
    }
}

/// Convenience alias for client results.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Summary of a compiled artifact, from [`Response::Compiled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledSummary {
    /// Registry key addressing the artifact in query requests.
    pub key: u64,
    /// Variables in the circuit's universe.
    pub num_vars: u32,
    /// Nodes in the compiled circuit.
    pub nodes: u32,
    /// Edges in the compiled circuit.
    pub edges: u32,
}

/// Summary of a learned PSDD, from [`Response::Learned`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LearnedSummary {
    /// Registry key addressing the PSDD in query requests.
    pub key: u64,
    /// Variables in the PSDD's universe.
    pub num_vars: u32,
    /// Nodes in the learned PSDD.
    pub nodes: u32,
    /// Training-set log-likelihood under the learned parameters.
    pub log_likelihood: f64,
}

/// Summary of a compiled structured space, from
/// [`Response::SpaceCompiled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceSummary {
    /// Registry key addressing the space in query requests.
    pub key: u64,
    /// Edge variables in the space's universe.
    pub num_edge_vars: u32,
    /// Nodes in the compiled space.
    pub nodes: u32,
    /// Simple `s`–`t` paths the space contains.
    pub paths: u128,
}

/// Summary of a compiled classifier, from
/// [`Response::ClassifierCompiled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifierSummary {
    /// Registry key addressing the classifier in query requests.
    pub key: u64,
    /// Features in the classifier's universe.
    pub num_vars: u32,
    /// Nodes in the compiled classifier.
    pub nodes: u32,
}

/// Summary of a registry minimization pass, from
/// [`Response::Optimized`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizedSummary {
    /// The key whose artifact was (maybe) minimized; unchanged.
    pub key: u64,
    /// Nodes in the circuit before minimization.
    pub nodes_before: u32,
    /// Nodes in the circuit the key now serves.
    pub nodes_after: u32,
    /// Whether a strictly smaller circuit was swapped in.
    pub swapped: bool,
    /// Wall time the minimization pass took, in microseconds.
    pub wall_us: u64,
}

/// One blocking connection to a `trl-server`. A blocking call reads
/// exactly one response, so it must not be made while pipelined frames
/// are still in flight.
pub struct Client {
    stream: TcpStream,
    /// The id the next depth-1 query frame carries.
    next_id: u64,
}

impl Client {
    /// Connects to `addr` with 30 s read/write timeouts; inbound frames
    /// may carry up to [`DEFAULT_MAX_FRAME_LEN`] payload bytes.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client { stream, next_id: 0 })
    }

    fn call(&mut self, request: &Request) -> Result<Response> {
        write_request(&mut self.stream, request)?;
        let response = read_response(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?;
        if let Response::Error(e) = response {
            return Err(ClientError::Server(e));
        }
        Ok(response)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse { expected: "pong" }),
        }
    }

    /// Compiles (or fetches, if the server already holds it) an artifact
    /// for `cnf`, returning the registry key for query requests.
    pub fn compile(&mut self, cnf: &Cnf) -> Result<CompiledSummary> {
        match self.call(&Request::Compile(cnf.clone()))? {
            Response::Compiled {
                key,
                num_vars,
                nodes,
                edges,
            } => Ok(CompiledSummary {
                key,
                num_vars,
                nodes,
                edges,
            }),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "compiled",
            }),
        }
    }

    /// Learns (or fetches, if the server already holds it) a PSDD over
    /// `cnf`'s support from a weighted complete dataset, returning the registry key for query requests.
    pub fn learn_psdd(
        &mut self,
        cnf: &Cnf,
        data: &[(trl_core::Assignment, f64)],
        alpha: f64,
    ) -> Result<LearnedSummary> {
        match self.call(&Request::LearnPsdd {
            cnf: cnf.clone(),
            alpha,
            data: data.to_vec(),
        })? {
            Response::Learned {
                key,
                num_vars,
                nodes,
                log_likelihood,
            } => Ok(LearnedSummary {
                key,
                num_vars,
                nodes,
                log_likelihood,
            }),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "learned",
            }),
        }
    }

    /// Compiles (or fetches) the structured space of simple `s`–`t` paths
    /// of a graph.
    pub fn compile_space(
        &mut self,
        num_nodes: u32,
        edges: &[(u32, u32)],
        s: u32,
        t: u32,
    ) -> Result<SpaceSummary> {
        match self.call(&Request::CompileSpace {
            num_nodes,
            edges: edges.to_vec(),
            s,
            t,
        })? {
            Response::SpaceCompiled {
                key,
                num_edge_vars,
                nodes,
                paths,
            } => Ok(SpaceSummary {
                key,
                num_edge_vars,
                nodes,
                paths,
            }),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "space compiled",
            }),
        }
    }

    /// Compiles (or fetches) `cnf` as a classifier prepared for
    /// explanation queries.
    pub fn compile_classifier(&mut self, cnf: &Cnf) -> Result<ClassifierSummary> {
        match self.call(&Request::CompileClassifier(cnf.clone()))? {
            Response::ClassifierCompiled {
                key,
                num_vars,
                nodes,
            } => Ok(ClassifierSummary {
                key,
                num_vars,
                nodes,
            }),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "classifier compiled",
            }),
        }
    }

    /// Asks the server to minimize the circuit under `key` and swap in a
    /// strictly smaller bit-identical replacement if one is found. The key
    /// is unchanged either way.
    pub fn optimize(&mut self, key: u64) -> Result<OptimizedSummary> {
        match self.call(&Request::Optimize { key })? {
            Response::Optimized {
                key,
                nodes_before,
                nodes_after,
                swapped,
                wall_us,
            } => Ok(OptimizedSummary {
                key,
                nodes_before,
                nodes_after,
                swapped,
                wall_us,
            }),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "optimized",
            }),
        }
    }

    /// Answers one query against the artifact under `key`.
    pub fn query(&mut self, key: u64, query: Query) -> Result<QueryAnswer> {
        let (mut answers, _) = self.call_queries(key, vec![query], None)?;
        Ok(answers.remove(0))
    }

    /// Answers a batch of queries against the artifact under `key`, in
    /// submission order (grouped into shared kernel sweeps server-side).
    pub fn batch(&mut self, key: u64, queries: Vec<Query>) -> Result<Vec<QueryAnswer>> {
        Ok(self.call_queries(key, queries, None)?.0)
    }

    /// Answers one query like [`Client::query`] — the answer is
    /// bit-identical — but force-traced server-side: returns the trace id
    /// this call generated together with the answer and the server's
    /// collected span tree, whose root parents onto the generated
    /// context's root span.
    pub fn trace(
        &mut self,
        key: u64,
        query: Query,
    ) -> Result<(u64, QueryAnswer, Vec<TraceSpanData>)> {
        let ctx = TraceContext::generate(true);
        let (mut answers, spans) = self.call_queries(key, vec![query], Some(ctx))?;
        Ok((ctx.trace_id, answers.remove(0), spans))
    }

    /// The pipelined client at depth 1: sends one query frame (traced
    /// under `trace`, if given) and reads its response, which must echo
    /// the frame's id and carry one answer per query.
    fn call_queries(
        &mut self,
        key: u64,
        queries: Vec<Query>,
        trace: Option<TraceContext>,
    ) -> Result<(Vec<QueryAnswer>, Vec<TraceSpanData>)> {
        self.next_id = self.next_id.wrapping_add(1);
        let (id, expected) = (self.next_id, queries.len());
        let request = match trace {
            Some(ctx) => Request::Trace {
                id,
                ctx,
                key,
                queries,
            },
            None => Request::PipelinedBatch { id, key, queries },
        };
        let (echoed, result, spans) = match self.call(&request)? {
            Response::PipelinedBatch { id, result } => (id, result, Vec::new()),
            Response::Traced { id, result, spans } => (id, result, spans),
            _ => {
                return Err(ClientError::UnexpectedResponse {
                    expected: "answers",
                })
            }
        };
        if echoed != id {
            return Err(ClientError::UnexpectedResponse {
                expected: "the id of the frame just sent",
            });
        }
        match result.map_err(ClientError::Server)? {
            answers if answers.len() == expected => Ok((answers, spans)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "one answer per query",
            }),
        }
    }

    /// Sends one query frame **without waiting for the response**. The caller picks `id` and must keep it
    /// unique among its in-flight frames; the matching
    /// [`Client::pipeline_recv`] may deliver ids in any order, because the
    /// server answers pipelined frames as they complete.
    pub fn pipeline_send(&mut self, id: u64, key: u64, queries: Vec<Query>) -> Result<()> {
        write_request(
            &mut self.stream,
            &Request::PipelinedBatch { id, key, queries },
        )?;
        Ok(())
    }

    /// Receives the next query-frame response — whichever in-flight frame
    /// completed first. Per-frame failures (overload, unknown key,
    /// invalid queries) arrive as the `Err` half of the returned result
    /// with the id still attached; the connection stays usable.
    pub fn pipeline_recv(
        &mut self,
    ) -> Result<(u64, std::result::Result<Vec<QueryAnswer>, WireError>)> {
        match read_response(&mut self.stream, DEFAULT_MAX_FRAME_LEN)? {
            Response::PipelinedBatch { id, result } => Ok((id, result)),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "pipelined batch",
            }),
        }
    }

    /// Convenience driver: answers every frame in `frames` against `key`,
    /// keeping up to `depth` frames in flight. Returns one result per
    /// frame, in the original frame order (ids are the frame indices).
    /// Individual frames may fail (e.g. [`WireError::Overloaded`]) without
    /// sinking the rest.
    pub fn pipelined(
        &mut self,
        key: u64,
        frames: Vec<Vec<Query>>,
        depth: usize,
    ) -> Result<Vec<std::result::Result<Vec<QueryAnswer>, WireError>>> {
        let depth = depth.max(1);
        let total = frames.len();
        let mut results: Vec<Option<std::result::Result<Vec<QueryAnswer>, WireError>>> =
            (0..total).map(|_| None).collect();
        let mut next = frames.into_iter().enumerate();
        let mut sent = 0usize;
        let mut received = 0usize;
        while received < total {
            while sent < total && sent - received < depth {
                let (id, queries) = next.next().expect("frame count mismatch");
                self.pipeline_send(id as u64, key, queries)?;
                sent += 1;
            }
            let (id, result) = self.pipeline_recv()?;
            let slot = results
                .get_mut(id as usize)
                .ok_or(ClientError::UnexpectedResponse {
                    expected: "a response id that was sent",
                })?;
            if slot.replace(result).is_some() {
                return Err(ClientError::UnexpectedResponse {
                    expected: "each response id exactly once",
                });
            }
            received += 1;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all received"))
            .collect())
    }

    /// Snapshots the server's registry/executor counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::UnexpectedResponse { expected: "stats" }),
        }
    }

    /// Asks the server to shut down gracefully; returns once the server
    /// acknowledges (drain and thread-join happen server-side after the
    /// acknowledgement).
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "shutdown acknowledgement",
            }),
        }
    }
}
