//! The length-prefixed binary wire protocol between a
//! `trl-server` and its clients.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"TRLW"
//!      4     2  protocol version (7)
//!      6     1  frame kind tag (request 0x01..., response 0x81...)
//!      7     1  reserved (0)
//!      8     4  payload length in bytes (u32)
//!     12     8  payload checksum (FxHash-64 of the payload bytes)
//!     20     8  header checksum  (FxHash-64 of bytes 0..20)
//!     28     …  payload (kind-specific encoding, little-endian throughout)
//! ```
//!
//! The discipline matches the engine's artifact format ([`trl_engine::binary`]):
//! checks run magic → header checksum → version → length bound → payload
//! checksum → decode, so a corrupt, truncated, or oversized frame surfaces
//! as a typed [`ProtocolError`] **before** any allocation it would have
//! sized — never a panic, never a half-decoded message. Floating-point
//! values travel as IEEE-754 bit patterns (`f64::to_bits`), so a decoded
//! answer is bit-identical to the served one.
//!
//! Requests are [`Request`]; responses are [`Response`]. Application-level
//! failures (overload, unknown registry key, malformed query) come back as
//! [`Response::Error`] carrying a typed [`WireError`] — a protocol error
//! means the *stream* is unusable, a wire error means the *request* failed.
//!
//! ## Frames
//!
//! There is one protocol version, [`PROTOCOL_VERSION`]; a frame stamped
//! with any other is rejected with [`ProtocolError::UnsupportedVersion`].
//!
//! ```text
//! request                      kind  response                        kind
//! Ping                         0x01  Pong                            0x81
//! Compile                      0x02  Compiled                        0x82
//! Stats                        0x05  Stats                           0x85
//! Shutdown                     0x06  ShuttingDown                    0x86
//! PipelinedBatch {id,key,qs}   0x07  PipelinedBatch {id,result}      0x88
//! LearnPsdd                    0x08  Learned                         0x89
//! CompileSpace                 0x09  SpaceCompiled                   0x8a
//! CompileClassifier            0x0a  ClassifierCompiled              0x8b
//! Optimize                     0x0b  Optimized                       0x8c
//! Trace {id,ctx,key,qs}        0x0c  Traced {id,result,spans}        0x8d
//! (any request that failed)          Error                           0x87
//! ```
//!
//! The two query frames, [`Request::PipelinedBatch`] and
//! [`Request::Trace`], carry a client-chosen id and are answered **out of
//! order by id**: a connection may keep any number in flight, and a query
//! frame never waits behind a build on its connection. A per-frame
//! failure (overload, unknown key, invalid query) comes back as the `Err`
//! half of the frame's `result`, with the id attached. Every other request
//! is answered in arrival order relative to the other non-query requests
//! on its connection.

use std::fmt;
use std::hash::Hasher;
use std::io::{Read, Write};

use trl_core::{Assignment, Cube, FxHasher, Lit, PartialAssignment, Var};
use trl_engine::{Query, QueryAnswer, RegistryStats, StatsSnapshot};
use trl_nnf::LitWeights;
use trl_obs::{HistogramSnapshot, MetricValue, MetricsDump, TraceContext, TraceSpanData};
use trl_prop::Cnf;

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 7;

/// Frame magic: "TRL Wire".
pub const MAGIC: [u8; 4] = *b"TRLW";

/// Bytes in a frame header.
pub const HEADER_LEN: usize = 28;

/// Default ceiling on a frame's payload length. A CNF worth compiling
/// over the wire fits comfortably; anything larger is treated as hostile
/// or corrupt and rejected before allocation.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 << 20;

/// Ceiling on a declared variable universe (vars in a CNF, weight table,
/// or assignment). Caps attacker-controlled allocations that are not
/// otherwise proportional to payload bytes.
pub const MAX_UNIVERSE: u32 = 1 << 24;

const KIND_REQ_PING: u8 = 0x01;
const KIND_REQ_COMPILE: u8 = 0x02;
const KIND_REQ_STATS: u8 = 0x05;
const KIND_REQ_SHUTDOWN: u8 = 0x06;
const KIND_REQ_PIPELINED_BATCH: u8 = 0x07;
const KIND_REQ_LEARN_PSDD: u8 = 0x08;
const KIND_REQ_COMPILE_SPACE: u8 = 0x09;
const KIND_REQ_COMPILE_CLASSIFIER: u8 = 0x0a;
const KIND_REQ_OPTIMIZE: u8 = 0x0b;
const KIND_REQ_TRACE: u8 = 0x0c;

const KIND_RESP_PONG: u8 = 0x81;
const KIND_RESP_COMPILED: u8 = 0x82;
const KIND_RESP_STATS: u8 = 0x85;
const KIND_RESP_SHUTTING_DOWN: u8 = 0x86;
const KIND_RESP_ERROR: u8 = 0x87;
const KIND_RESP_PIPELINED_BATCH: u8 = 0x88;
const KIND_RESP_LEARNED: u8 = 0x89;
const KIND_RESP_SPACE_COMPILED: u8 = 0x8a;
const KIND_RESP_CLASSIFIER_COMPILED: u8 = 0x8b;
const KIND_RESP_OPTIMIZED: u8 = 0x8c;
const KIND_RESP_TRACED: u8 = 0x8d;

/// Errors that make a frame (and usually the stream carrying it)
/// unusable. Application-level failures travel as [`WireError`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// An underlying socket/stream operation failed.
    Io(String),
    /// The peer closed the stream mid-frame.
    Disconnected,
    /// The frame does not start with the protocol magic.
    BadMagic([u8; 4]),
    /// The frame is stamped with a protocol version other than this
    /// build's.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u16,
        /// The one version this build speaks.
        supported: u16,
    },
    /// The frame declares a payload larger than the configured ceiling.
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
        /// The ceiling it exceeded.
        max: u32,
    },
    /// A checksum over the named section did not match its stored value.
    ChecksumMismatch {
        /// Which section failed (`"header"` or `"payload"`).
        section: &'static str,
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// The payload bytes do not decode as the frame kind claims.
    Malformed(String),
    /// A structurally valid frame of the wrong kind (e.g. a request where
    /// a response was expected).
    UnexpectedFrame {
        /// The frame kind tag that arrived.
        kind: u8,
        /// What the caller was decoding.
        expected: &'static str,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(m) => write!(f, "i/o error: {m}"),
            ProtocolError::Disconnected => write!(f, "peer disconnected mid-frame"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported protocol version {found} (this build speaks only version {supported})"
            ),
            ProtocolError::FrameTooLarge { declared, max } => {
                write!(
                    f,
                    "frame payload of {declared} bytes exceeds the {max}-byte limit"
                )
            }
            ProtocolError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "{section} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ProtocolError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
            ProtocolError::UnexpectedFrame { kind, expected } => {
                write!(
                    f,
                    "unexpected frame kind {kind:#04x} while reading {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Disconnected
        } else {
            ProtocolError::Io(e.to_string())
        }
    }
}

/// Convenience alias for protocol results.
pub type Result<T> = std::result::Result<T, ProtocolError>;

/// An application-level failure, carried inside a [`Response::Error`]
/// frame. The stream stays healthy; only this request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The server's bounded submission queue is full; retry later.
    Overloaded {
        /// Queries in flight when the request was rejected.
        queue_depth: u64,
        /// The server's admission capacity.
        capacity: u64,
    },
    /// No artifact is resident under this registry key (evicted or never
    /// compiled here); re-send a compile request.
    UnknownKey(u64),
    /// The request decoded but is not answerable (bad universe, weights
    /// not covering the circuit, …).
    Invalid(String),
    /// The engine failed the request (validation, structure, …).
    Engine(String),
    /// The server is draining for shutdown and no longer admits work.
    ShuttingDown,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "server overloaded ({queue_depth}/{capacity} queries in flight)"
            ),
            WireError::UnknownKey(k) => write!(f, "no artifact under key {k:#018x}"),
            WireError::Invalid(m) => write!(f, "invalid request: {m}"),
            WireError::Engine(m) => write!(f, "engine error: {m}"),
            WireError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for WireError {}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Compile (or fetch, if resident) an artifact for this CNF; answered
    /// with [`Response::Compiled`] carrying the registry key.
    Compile(Cnf),
    /// Snapshot the server's registry/executor counters.
    Stats,
    /// Ask the server to shut down gracefully: stop accepting, drain
    /// in-flight work, join connection threads.
    Shutdown,
    /// A query frame: many queries under one checksummed length prefix,
    /// tagged with a client-chosen request id. A connection may have any
    /// number of these in flight; the server answers each with a
    /// [`Response::PipelinedBatch`] echoing the id, possibly out of
    /// submission order.
    PipelinedBatch {
        /// Client-chosen id echoed in the response; the client's job to
        /// keep unique among its in-flight requests.
        id: u64,
        /// Registry key from a [`Response::Compiled`].
        key: u64,
        /// The queries, answered in submission order within the batch.
        queries: Vec<Query>,
    },
    /// Learn (or fetch, if resident) a PSDD over this CNF
    /// support from a weighted complete dataset; answered with
    /// [`Response::Learned`] carrying the registry key.
    LearnPsdd {
        /// The support constraint the PSDD respects.
        cnf: Cnf,
        /// Laplace smoothing pseudo-count.
        alpha: f64,
        /// Weighted complete examples over the CNF's universe.
        data: Vec<(Assignment, f64)>,
    },
    /// Compile (or fetch) the structured space of simple
    /// `s`–`t` paths of a graph; answered with [`Response::SpaceCompiled`].
    CompileSpace {
        /// Number of graph nodes.
        num_nodes: u32,
        /// Undirected edges as node-index pairs; edge `i` becomes
        /// variable `i` of the space's universe.
        edges: Vec<(u32, u32)>,
        /// Source node.
        s: u32,
        /// Target node.
        t: u32,
    },
    /// Compile (or fetch) a CNF as a classifier prepared
    /// for explanation queries; answered with
    /// [`Response::ClassifierCompiled`].
    CompileClassifier(Cnf),
    /// Minimize the circuit resident under `key` and, if a
    /// strictly smaller bit-identical circuit is found, atomically swap
    /// it in under the same key; answered with [`Response::Optimized`].
    Optimize {
        /// Registry key from a [`Response::Compiled`].
        key: u64,
    },
    /// A force-sampled query frame carrying its trace context: answered
    /// out of order by id like [`Request::PipelinedBatch`] (the answers
    /// are bit-identical to the untraced ones) but with the server-side
    /// span tree attached in a [`Response::Traced`]. The server's root
    /// span parents onto `ctx.span_id`, so the client can splice the
    /// server subtree under its own request span.
    Trace {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The client-generated trace context this request travels under.
        ctx: TraceContext,
        /// Registry key from a [`Response::Compiled`].
        key: u64,
        /// The queries to answer and trace, answered in submission order.
        queries: Vec<Query>,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Compile`].
    Compiled {
        /// Registry key addressing the artifact in later requests.
        key: u64,
        /// Variables in the circuit's universe.
        num_vars: u32,
        /// Nodes in the compiled circuit.
        nodes: u32,
        /// Edges in the compiled circuit.
        edges: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// The request failed; the connection remains usable.
    Error(WireError),
    /// Answer to [`Request::PipelinedBatch`]: the request
    /// id echoed back with either every answer (in submission order) or
    /// the typed failure that rejected the whole batch. The connection
    /// remains usable either way.
    PipelinedBatch {
        /// The id from the request this frame answers.
        id: u64,
        /// Answers in submission order, or the batch's typed failure.
        result: std::result::Result<Vec<QueryAnswer>, WireError>,
    },
    /// Answer to [`Request::LearnPsdd`].
    Learned {
        /// Registry key addressing the learned PSDD in later requests.
        key: u64,
        /// Variables in the PSDD's universe.
        num_vars: u32,
        /// Nodes in the learned PSDD.
        nodes: u32,
        /// Training-set log-likelihood under the learned parameters.
        log_likelihood: f64,
    },
    /// Answer to [`Request::CompileSpace`].
    SpaceCompiled {
        /// Registry key addressing the space in later requests.
        key: u64,
        /// Edge variables in the space's universe.
        num_edge_vars: u32,
        /// Nodes in the compiled space.
        nodes: u32,
        /// Simple `s`–`t` paths the space contains.
        paths: u128,
    },
    /// Answer to [`Request::CompileClassifier`].
    ClassifierCompiled {
        /// Registry key addressing the classifier in later requests.
        key: u64,
        /// Features in the classifier's universe.
        num_vars: u32,
        /// Nodes in the compiled classifier.
        nodes: u32,
    },
    /// Answer to [`Request::Trace`]: the id echoed back with the answers —
    /// bit-identical to what [`Response::PipelinedBatch`] would carry — or
    /// the frame's typed failure, plus the collected server-side spans of
    /// the request's trace, parent-linked and sorted by start time.
    Traced {
        /// The id from the request this frame answers.
        id: u64,
        /// Answers in submission order, or the frame's typed failure.
        result: std::result::Result<Vec<QueryAnswer>, WireError>,
        /// The server-side span tree, flat with parent links.
        spans: Vec<TraceSpanData>,
    },
    /// Answer to [`Request::Optimize`].
    Optimized {
        /// The key whose artifact was (maybe) minimized; unchanged.
        key: u64,
        /// Nodes in the circuit before minimization.
        nodes_before: u32,
        /// Nodes in the circuit the key now serves.
        nodes_after: u32,
        /// Whether a strictly smaller circuit was swapped in; `false`
        /// means the resident circuit was already minimal (or was
        /// evicted mid-pass) and is untouched.
        swapped: bool,
        /// Wall time the minimization pass took, in microseconds.
        wall_us: u64,
    },
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------- framing

/// Writes one frame stamped with [`PROTOCOL_VERSION`]: header (with
/// checksums) followed by the payload.
fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<()> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header.push(kind);
    header.push(0);
    header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    header.extend_from_slice(&checksum(payload).to_le_bytes());
    let hc = checksum(&header);
    header.extend_from_slice(&hc.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Verifies a complete header (magic, header checksum, version, length
/// bound) and returns `(kind, payload_len)`.
fn check_header(header: &[u8], max_frame_len: u32) -> Result<(u8, u32)> {
    if header[0..4] != MAGIC {
        return Err(ProtocolError::BadMagic(header[0..4].try_into().unwrap()));
    }
    let stored_header_sum = u64::from_le_bytes(header[20..28].try_into().unwrap());
    let computed_header_sum = checksum(&header[..20]);
    if stored_header_sum != computed_header_sum {
        return Err(ProtocolError::ChecksumMismatch {
            section: "header",
            stored: stored_header_sum,
            computed: computed_header_sum,
        });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    let kind = header[6];
    let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if payload_len > max_frame_len {
        return Err(ProtocolError::FrameTooLarge {
            declared: payload_len,
            max: max_frame_len,
        });
    }
    Ok((kind, payload_len))
}

/// Verifies a payload checksum stored in `header` against `payload`.
fn check_payload(header: &[u8], payload: &[u8]) -> Result<()> {
    let stored_payload_sum = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let computed_payload_sum = checksum(payload);
    if stored_payload_sum != computed_payload_sum {
        return Err(ProtocolError::ChecksumMismatch {
            section: "payload",
            stored: stored_payload_sum,
            computed: computed_payload_sum,
        });
    }
    Ok(())
}

/// Reads one frame, returning its kind tag and verified payload. Frames
/// declaring more than `max_frame_len` payload bytes are rejected before
/// the payload is allocated.
fn read_frame(r: &mut impl Read, max_frame_len: u32) -> Result<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, payload_len) = check_header(&header, max_frame_len)?;
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    check_payload(&header, &payload)?;
    Ok((kind, payload))
}

/// Outcome of scanning an in-memory byte buffer for one complete frame
/// ([`scan_frame`]): either the buffer needs more bytes, or one verified
/// frame was extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameScan {
    /// The buffer holds no complete frame yet; at least `need` total
    /// bytes (from the buffer's start) are required before the next scan
    /// can make a decision. Header-level validation has already run if a
    /// full header was present.
    Incomplete {
        /// Minimum total buffer length for the next scan to progress.
        need: usize,
    },
    /// One verified frame.
    Frame {
        /// Frame kind tag.
        kind: u8,
        /// Verified payload bytes.
        payload: Vec<u8>,
        /// Bytes the frame occupied; the caller consumes this many.
        consumed: usize,
    },
}

/// Scans the front of a byte buffer for one complete frame without
/// blocking — the entry point for readiness-driven servers that
/// accumulate nonblocking reads into a per-connection buffer and peel
/// frames off as they complete. Validation order matches `read_frame`
/// (magic → header checksum → version → length bound → payload checksum),
/// and header-level errors surface as soon as the 28 header bytes are
/// present, before any payload arrives.
pub fn scan_frame(buf: &[u8], max_frame_len: u32) -> Result<FrameScan> {
    if buf.len() < HEADER_LEN {
        return Ok(FrameScan::Incomplete { need: HEADER_LEN });
    }
    let header = &buf[..HEADER_LEN];
    let (kind, payload_len) = check_header(header, max_frame_len)?;
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Ok(FrameScan::Incomplete { need: total });
    }
    let payload = &buf[HEADER_LEN..total];
    check_payload(header, payload)?;
    Ok(FrameScan::Frame {
        kind,
        payload: payload.to_vec(),
        consumed: total,
    })
}

// ------------------------------------------------------------- encoding

/// Little-endian payload builder.
#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, x: u8) {
        self.0.push(x);
    }
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn u128(&mut self, x: u128) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian payload reader.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ProtocolError::Malformed("payload truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not UTF-8".into()))
    }

    /// Guards a wire-declared element count against the bytes actually
    /// present, so a lying count cannot size a huge allocation.
    fn counted(&self, count: u32, min_bytes_each: usize) -> Result<usize> {
        let count = count as usize;
        if count.saturating_mul(min_bytes_each) > self.remaining() {
            return Err(ProtocolError::Malformed(format!(
                "declared {count} elements but only {} payload bytes remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn check_universe(n: u32) -> Result<usize> {
    if n > MAX_UNIVERSE {
        return Err(ProtocolError::Malformed(format!(
            "universe of {n} variables exceeds the {MAX_UNIVERSE}-variable wire limit"
        )));
    }
    Ok(n as usize)
}

fn decode_lit(code: u32, num_vars: usize) -> Result<Lit> {
    let lit = Lit::from_code(code);
    if lit.var().index() >= num_vars {
        return Err(ProtocolError::Malformed(format!(
            "literal code {code} names variable {} outside the {num_vars}-variable universe",
            lit.var().index()
        )));
    }
    Ok(lit)
}

fn encode_cnf(e: &mut Enc, cnf: &Cnf) {
    e.u32(cnf.num_vars() as u32);
    e.u32(cnf.clauses().len() as u32);
    for clause in cnf.clauses() {
        e.u32(clause.len() as u32);
        for &l in clause.literals() {
            e.u32(l.code());
        }
    }
}

fn decode_cnf(d: &mut Dec) -> Result<Cnf> {
    let num_vars = check_universe(d.u32()?)?;
    let declared_clauses = d.u32()?;
    let num_clauses = d.counted(declared_clauses, 4)?;
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let declared_len = d.u32()?;
        let len = d.counted(declared_len, 4)?;
        let mut lits = Vec::with_capacity(len);
        for _ in 0..len {
            lits.push(decode_lit(d.u32()?, num_vars)?);
        }
        cnf.add_clause(lits);
    }
    Ok(cnf)
}

fn encode_weights(e: &mut Enc, w: &LitWeights) {
    let n = w.num_vars();
    e.u32(n as u32);
    for v in 0..n as u32 {
        e.f64(w.get(Var(v).positive()));
        e.f64(w.get(Var(v).negative()));
    }
}

fn decode_weights(d: &mut Dec) -> Result<LitWeights> {
    let n = check_universe(d.u32()?)?;
    // One bounds check for the whole table: the hot serving path decodes
    // a weight table per WMC/marginals/MPE query, so the per-f64 checked
    // reads add up.
    let bytes = d.take(16 * n)?;
    let mut w = LitWeights::unit(n);
    for (v, pair) in bytes.chunks_exact(16).enumerate() {
        let pos = f64::from_bits(u64::from_le_bytes(pair[..8].try_into().unwrap()));
        let neg = f64::from_bits(u64::from_le_bytes(pair[8..].try_into().unwrap()));
        w.set(Var(v as u32).positive(), pos);
        w.set(Var(v as u32).negative(), neg);
    }
    Ok(w)
}

fn encode_partial(e: &mut Enc, pa: &PartialAssignment) {
    e.u32(pa.len() as u32);
    e.u32(pa.assigned_count() as u32);
    for l in pa.literals() {
        e.u32(l.code());
    }
}

fn decode_partial(d: &mut Dec) -> Result<PartialAssignment> {
    let n = check_universe(d.u32()?)?;
    let declared = d.u32()?;
    let assigned = d.counted(declared, 4)?;
    let mut pa = PartialAssignment::new(n);
    for _ in 0..assigned {
        pa.assign(decode_lit(d.u32()?, n)?);
    }
    Ok(pa)
}

fn encode_assignment(e: &mut Enc, a: &Assignment) {
    e.u32(a.len() as u32);
    let mut byte = 0u8;
    for (i, &v) in a.values().iter().enumerate() {
        if v {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            e.u8(byte);
            byte = 0;
        }
    }
    if !a.len().is_multiple_of(8) {
        e.u8(byte);
    }
}

fn decode_assignment(d: &mut Dec) -> Result<Assignment> {
    let n = check_universe(d.u32()?)?;
    let bytes = d.take(n.div_ceil(8))?;
    let values: Vec<bool> = (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect();
    Ok(Assignment::from_values(&values))
}

fn encode_dataset(e: &mut Enc, data: &[(Assignment, f64)]) {
    e.u32(data.len() as u32);
    for (a, w) in data {
        encode_assignment(e, a);
        e.f64(*w);
    }
}

fn decode_dataset(d: &mut Dec) -> Result<Vec<(Assignment, f64)>> {
    let declared = d.u32()?;
    // Each example carries at least an assignment length (4) and a
    // weight (8).
    let n = d.counted(declared, 12)?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let a = decode_assignment(d)?;
        let w = d.f64()?;
        data.push((a, w));
    }
    Ok(data)
}

fn encode_cube(e: &mut Enc, cube: &Cube) {
    e.u32(cube.len() as u32);
    for &l in cube.literals() {
        e.u32(l.code());
    }
}

fn decode_cube(d: &mut Dec) -> Result<Cube> {
    let declared = d.u32()?;
    let n = d.counted(declared, 4)?;
    let mut lits = Vec::with_capacity(n);
    for _ in 0..n {
        lits.push(decode_lit(d.u32()?, MAX_UNIVERSE as usize)?);
    }
    // `Cube::from_lits` panics on an inconsistent term, so reject one
    // here — a hostile frame must surface as Malformed, never a panic.
    let mut sorted = lits.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.windows(2).any(|w| w[0].var() == w[1].var()) {
        return Err(ProtocolError::Malformed(
            "cube assigns a variable both polarities".into(),
        ));
    }
    Ok(Cube::from_lits(lits))
}

const QUERY_SAT: u8 = 0;
const QUERY_MODEL_COUNT: u8 = 1;
const QUERY_MODEL_COUNT_UNDER: u8 = 2;
const QUERY_WMC: u8 = 3;
const QUERY_MARGINALS: u8 = 4;
const QUERY_MAX_WEIGHT: u8 = 5;
// Version 4: role-2/3 queries against typed artifacts.
const QUERY_PSDD_LOG_LIKELIHOOD: u8 = 6;
const QUERY_PSDD_MARGINAL: u8 = 7;
const QUERY_SPACE_COUNT: u8 = 8;
const QUERY_SPACE_TOP: u8 = 9;
const QUERY_SUFFICIENT_REASON: u8 = 10;
const QUERY_DECISION_ROBUSTNESS: u8 = 11;
const QUERY_CLASSIFIER_BIAS: u8 = 12;

fn encode_query(e: &mut Enc, q: &Query) {
    match q {
        Query::Sat => e.u8(QUERY_SAT),
        Query::ModelCount => e.u8(QUERY_MODEL_COUNT),
        Query::ModelCountUnder(pa) => {
            e.u8(QUERY_MODEL_COUNT_UNDER);
            encode_partial(e, pa);
        }
        Query::Wmc(w) => {
            e.u8(QUERY_WMC);
            encode_weights(e, w);
        }
        Query::Marginals(w) => {
            e.u8(QUERY_MARGINALS);
            encode_weights(e, w);
        }
        Query::MaxWeight(w) => {
            e.u8(QUERY_MAX_WEIGHT);
            encode_weights(e, w);
        }
        Query::PsddLogLikelihood(data) => {
            e.u8(QUERY_PSDD_LOG_LIKELIHOOD);
            encode_dataset(e, data);
        }
        Query::PsddMarginal(pa) => {
            e.u8(QUERY_PSDD_MARGINAL);
            encode_partial(e, pa);
        }
        Query::SpaceCount(pa) => {
            e.u8(QUERY_SPACE_COUNT);
            encode_partial(e, pa);
        }
        Query::SpaceTop(w) => {
            e.u8(QUERY_SPACE_TOP);
            encode_weights(e, w);
        }
        Query::SufficientReason(x) => {
            e.u8(QUERY_SUFFICIENT_REASON);
            encode_assignment(e, x);
        }
        Query::DecisionRobustness(x) => {
            e.u8(QUERY_DECISION_ROBUSTNESS);
            encode_assignment(e, x);
        }
        Query::ClassifierBias(protected) => {
            e.u8(QUERY_CLASSIFIER_BIAS);
            e.u32(protected.len() as u32);
            for v in protected {
                e.u32(v.index() as u32);
            }
        }
    }
}

fn decode_query(d: &mut Dec) -> Result<Query> {
    Ok(match d.u8()? {
        QUERY_SAT => Query::Sat,
        QUERY_MODEL_COUNT => Query::ModelCount,
        QUERY_MODEL_COUNT_UNDER => Query::ModelCountUnder(decode_partial(d)?),
        QUERY_WMC => Query::Wmc(decode_weights(d)?),
        QUERY_MARGINALS => Query::Marginals(decode_weights(d)?),
        QUERY_MAX_WEIGHT => Query::MaxWeight(decode_weights(d)?),
        QUERY_PSDD_LOG_LIKELIHOOD => Query::PsddLogLikelihood(decode_dataset(d)?),
        QUERY_PSDD_MARGINAL => Query::PsddMarginal(decode_partial(d)?),
        QUERY_SPACE_COUNT => Query::SpaceCount(decode_partial(d)?),
        QUERY_SPACE_TOP => Query::SpaceTop(decode_weights(d)?),
        QUERY_SUFFICIENT_REASON => Query::SufficientReason(decode_assignment(d)?),
        QUERY_DECISION_ROBUSTNESS => Query::DecisionRobustness(decode_assignment(d)?),
        QUERY_CLASSIFIER_BIAS => {
            let declared = d.u32()?;
            let n = d.counted(declared, 4)?;
            let mut protected = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = d.u32()?;
                check_universe(idx.saturating_add(1))?;
                protected.push(Var(idx));
            }
            Query::ClassifierBias(protected)
        }
        tag => return Err(ProtocolError::Malformed(format!("unknown query tag {tag}"))),
    })
}

const ANSWER_SAT: u8 = 0;
const ANSWER_MODEL_COUNT: u8 = 1;
const ANSWER_WMC: u8 = 2;
const ANSWER_MARGINALS: u8 = 3;
const ANSWER_MAX_WEIGHT: u8 = 4;
// Version 4: role-2/3 answers.
const ANSWER_LOG_LIKELIHOOD: u8 = 5;
const ANSWER_PROBABILITY: u8 = 6;
const ANSWER_REASON: u8 = 7;
const ANSWER_ROBUSTNESS: u8 = 8;
const ANSWER_BIAS: u8 = 9;

fn encode_answer(e: &mut Enc, a: &QueryAnswer) {
    match a {
        QueryAnswer::Sat(yes) => {
            e.u8(ANSWER_SAT);
            e.u8(u8::from(*yes));
        }
        QueryAnswer::ModelCount(c) => {
            e.u8(ANSWER_MODEL_COUNT);
            e.u128(*c);
        }
        QueryAnswer::Wmc(x) => {
            e.u8(ANSWER_WMC);
            e.f64(*x);
        }
        QueryAnswer::Marginals { wmc, marginals } => {
            e.u8(ANSWER_MARGINALS);
            e.f64(*wmc);
            e.u32(marginals.len() as u32);
            for &(pos, neg) in marginals {
                e.f64(pos);
                e.f64(neg);
            }
        }
        QueryAnswer::MaxWeight(best) => {
            e.u8(ANSWER_MAX_WEIGHT);
            match best {
                None => e.u8(0),
                Some((weight, assignment)) => {
                    e.u8(1);
                    e.f64(*weight);
                    encode_assignment(e, assignment);
                }
            }
        }
        QueryAnswer::LogLikelihood(x) => {
            e.u8(ANSWER_LOG_LIKELIHOOD);
            e.f64(*x);
        }
        QueryAnswer::Probability(x) => {
            e.u8(ANSWER_PROBABILITY);
            e.f64(*x);
        }
        QueryAnswer::Reason { decision, reason } => {
            e.u8(ANSWER_REASON);
            e.u8(u8::from(*decision));
            match reason {
                None => e.u8(0),
                Some(cube) => {
                    e.u8(1);
                    encode_cube(e, cube);
                }
            }
        }
        QueryAnswer::Robustness(flips) => {
            e.u8(ANSWER_ROBUSTNESS);
            match flips {
                None => e.u8(0),
                Some(k) => {
                    e.u8(1);
                    e.u32(*k);
                }
            }
        }
        QueryAnswer::Bias(yes) => {
            e.u8(ANSWER_BIAS);
            e.u8(u8::from(*yes));
        }
    }
}

fn decode_answer(d: &mut Dec) -> Result<QueryAnswer> {
    Ok(match d.u8()? {
        ANSWER_SAT => QueryAnswer::Sat(d.u8()? != 0),
        ANSWER_MODEL_COUNT => QueryAnswer::ModelCount(d.u128()?),
        ANSWER_WMC => QueryAnswer::Wmc(d.f64()?),
        ANSWER_MARGINALS => {
            let wmc = d.f64()?;
            let declared = d.u32()?;
            let n = d.counted(declared, 16)?;
            let mut marginals = Vec::with_capacity(n);
            for _ in 0..n {
                marginals.push((d.f64()?, d.f64()?));
            }
            QueryAnswer::Marginals { wmc, marginals }
        }
        ANSWER_MAX_WEIGHT => match d.u8()? {
            0 => QueryAnswer::MaxWeight(None),
            1 => {
                let weight = d.f64()?;
                let assignment = decode_assignment(d)?;
                QueryAnswer::MaxWeight(Some((weight, assignment)))
            }
            tag => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown max-weight presence tag {tag}"
                )))
            }
        },
        ANSWER_LOG_LIKELIHOOD => QueryAnswer::LogLikelihood(d.f64()?),
        ANSWER_PROBABILITY => QueryAnswer::Probability(d.f64()?),
        ANSWER_REASON => {
            let decision = d.u8()? != 0;
            let reason = match d.u8()? {
                0 => None,
                1 => Some(decode_cube(d)?),
                tag => {
                    return Err(ProtocolError::Malformed(format!(
                        "unknown reason presence tag {tag}"
                    )))
                }
            };
            QueryAnswer::Reason { decision, reason }
        }
        ANSWER_ROBUSTNESS => match d.u8()? {
            0 => QueryAnswer::Robustness(None),
            1 => QueryAnswer::Robustness(Some(d.u32()?)),
            tag => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown robustness presence tag {tag}"
                )))
            }
        },
        ANSWER_BIAS => QueryAnswer::Bias(d.u8()? != 0),
        tag => {
            return Err(ProtocolError::Malformed(format!(
                "unknown answer tag {tag}"
            )))
        }
    })
}

const ERR_OVERLOADED: u8 = 0;
const ERR_UNKNOWN_KEY: u8 = 1;
const ERR_INVALID: u8 = 2;
const ERR_ENGINE: u8 = 3;
const ERR_SHUTTING_DOWN: u8 = 4;

fn encode_wire_error(e: &mut Enc, err: &WireError) {
    match err {
        WireError::Overloaded {
            queue_depth,
            capacity,
        } => {
            e.u8(ERR_OVERLOADED);
            e.u64(*queue_depth);
            e.u64(*capacity);
        }
        WireError::UnknownKey(k) => {
            e.u8(ERR_UNKNOWN_KEY);
            e.u64(*k);
        }
        WireError::Invalid(m) => {
            e.u8(ERR_INVALID);
            e.str(m);
        }
        WireError::Engine(m) => {
            e.u8(ERR_ENGINE);
            e.str(m);
        }
        WireError::ShuttingDown => e.u8(ERR_SHUTTING_DOWN),
    }
}

fn decode_wire_error(d: &mut Dec) -> Result<WireError> {
    Ok(match d.u8()? {
        ERR_OVERLOADED => WireError::Overloaded {
            queue_depth: d.u64()?,
            capacity: d.u64()?,
        },
        ERR_UNKNOWN_KEY => WireError::UnknownKey(d.u64()?),
        ERR_INVALID => WireError::Invalid(d.str()?),
        ERR_ENGINE => WireError::Engine(d.str()?),
        ERR_SHUTTING_DOWN => WireError::ShuttingDown,
        tag => {
            return Err(ProtocolError::Malformed(format!(
                "unknown wire-error tag {tag}"
            )))
        }
    })
}

fn encode_queries(e: &mut Enc, queries: &[Query]) {
    e.u32(queries.len() as u32);
    for q in queries {
        encode_query(e, q);
    }
}

fn decode_queries(d: &mut Dec) -> Result<Vec<Query>> {
    let declared = d.u32()?;
    let n = d.counted(declared, 1)?;
    (0..n).map(|_| decode_query(d)).collect()
}

/// A query frame's result: tag 0 and the answers, or tag 1 and the typed
/// failure.
fn encode_result(e: &mut Enc, result: &std::result::Result<Vec<QueryAnswer>, WireError>) {
    match result {
        Ok(answers) => {
            e.u8(0);
            e.u32(answers.len() as u32);
            for a in answers {
                encode_answer(e, a);
            }
        }
        Err(err) => {
            e.u8(1);
            encode_wire_error(e, err);
        }
    }
}

fn decode_result(d: &mut Dec) -> Result<std::result::Result<Vec<QueryAnswer>, WireError>> {
    match d.u8()? {
        0 => {
            let declared = d.u32()?;
            let n = d.counted(declared, 1)?;
            let answers = (0..n).map(|_| decode_answer(d)).collect::<Result<_>>()?;
            Ok(Ok(answers))
        }
        1 => Ok(Err(decode_wire_error(d)?)),
        tag => Err(ProtocolError::Malformed(format!(
            "unknown query-frame result tag {tag}"
        ))),
    }
}

const METRIC_COUNTER: u8 = 0;
const METRIC_GAUGE: u8 = 1;
const METRIC_HISTOGRAM: u8 = 2;

fn encode_metrics(e: &mut Enc, m: &MetricsDump) {
    e.u32(m.metrics.len() as u32);
    for (name, value) in &m.metrics {
        e.str(name);
        match value {
            MetricValue::Counter(v) => {
                e.u8(METRIC_COUNTER);
                e.u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.u8(METRIC_GAUGE);
                // Gauges are signed; travel as the two's-complement bits.
                e.u64(*v as u64);
            }
            MetricValue::Histogram(h) => {
                e.u8(METRIC_HISTOGRAM);
                e.u64(h.count);
                e.u64(h.sum_us);
                e.u32(h.buckets.len() as u32);
                for &b in &h.buckets {
                    e.u64(b);
                }
            }
        }
    }
}

fn decode_metrics(d: &mut Dec) -> Result<MetricsDump> {
    let declared = d.u32()?;
    // A metric needs at least a name length (4) and a type tag (1).
    let n = d.counted(declared, 5)?;
    let mut metrics = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let value = match d.u8()? {
            METRIC_COUNTER => MetricValue::Counter(d.u64()?),
            METRIC_GAUGE => MetricValue::Gauge(d.u64()? as i64),
            METRIC_HISTOGRAM => {
                let count = d.u64()?;
                let sum_us = d.u64()?;
                let declared_buckets = d.u32()?;
                let num_buckets = d.counted(declared_buckets, 8)?;
                let mut buckets = Vec::with_capacity(num_buckets);
                for _ in 0..num_buckets {
                    buckets.push(d.u64()?);
                }
                MetricValue::Histogram(HistogramSnapshot {
                    buckets,
                    count,
                    sum_us,
                })
            }
            tag => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown metric type tag {tag}"
                )))
            }
        };
        metrics.push((name, value));
    }
    Ok(MetricsDump { metrics })
}

fn encode_stats(e: &mut Enc, s: &StatsSnapshot) {
    e.u64(s.registry.hits);
    e.u64(s.registry.misses);
    e.u64(s.registry.evictions);
    e.u64(s.artifacts as u64);
    e.u64(s.retained_nodes as u64);
    e.u64(s.max_retained_nodes as u64);
    e.u32(s.workers as u32);
    e.u64(s.queue_depth as u64);
    e.u64(s.uptime_ms);
    e.u32(s.requests_served.len() as u32);
    for (kind, count) in &s.requests_served {
        e.str(kind);
        e.u64(*count);
    }
    e.u64(s.connections_accepted);
    e.u64(s.connections_active);
    encode_metrics(e, &s.metrics);
}

fn decode_stats(d: &mut Dec) -> Result<StatsSnapshot> {
    // Struct fields evaluate in source order, which is the wire order.
    Ok(StatsSnapshot {
        registry: RegistryStats {
            hits: d.u64()?,
            misses: d.u64()?,
            evictions: d.u64()?,
        },
        artifacts: d.u64()? as usize,
        retained_nodes: d.u64()? as usize,
        max_retained_nodes: d.u64()? as usize,
        workers: d.u32()? as usize,
        queue_depth: d.u64()? as usize,
        uptime_ms: d.u64()?,
        requests_served: {
            let declared = d.u32()?;
            // Each per-kind entry carries a name length (4) and a count (8).
            let n = d.counted(declared, 12)?;
            (0..n)
                .map(|_| Ok((d.str()?, d.u64()?)))
                .collect::<Result<_>>()?
        },
        connections_accepted: d.u64()?,
        connections_active: d.u64()?,
        metrics: decode_metrics(d)?,
    })
}

// ------------------------------------------------------- public surface

impl Request {
    fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::default();
        let kind = match self {
            Request::Ping => KIND_REQ_PING,
            Request::Compile(cnf) => {
                encode_cnf(&mut e, cnf);
                KIND_REQ_COMPILE
            }
            Request::Stats => KIND_REQ_STATS,
            Request::Shutdown => KIND_REQ_SHUTDOWN,
            Request::PipelinedBatch { id, key, queries } => {
                e.u64(*id);
                e.u64(*key);
                encode_queries(&mut e, queries);
                KIND_REQ_PIPELINED_BATCH
            }
            Request::LearnPsdd { cnf, alpha, data } => {
                encode_cnf(&mut e, cnf);
                e.f64(*alpha);
                encode_dataset(&mut e, data);
                KIND_REQ_LEARN_PSDD
            }
            Request::CompileSpace {
                num_nodes,
                edges,
                s,
                t,
            } => {
                e.u32(*num_nodes);
                e.u32(*s);
                e.u32(*t);
                e.u32(edges.len() as u32);
                for &(a, b) in edges {
                    e.u32(a);
                    e.u32(b);
                }
                KIND_REQ_COMPILE_SPACE
            }
            Request::CompileClassifier(cnf) => {
                encode_cnf(&mut e, cnf);
                KIND_REQ_COMPILE_CLASSIFIER
            }
            Request::Optimize { key } => {
                e.u64(*key);
                KIND_REQ_OPTIMIZE
            }
            Request::Trace {
                id,
                ctx,
                key,
                queries,
            } => {
                e.u64(*id);
                e.u64(ctx.trace_id);
                e.u64(ctx.span_id);
                e.u8(u8::from(ctx.sampled));
                e.u64(*key);
                encode_queries(&mut e, queries);
                KIND_REQ_TRACE
            }
        };
        (kind, e.0)
    }

    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Request> {
        let mut d = Dec::new(payload);
        let req = match kind {
            KIND_REQ_PING => Request::Ping,
            KIND_REQ_COMPILE => Request::Compile(decode_cnf(&mut d)?),
            KIND_REQ_STATS => Request::Stats,
            KIND_REQ_SHUTDOWN => Request::Shutdown,
            KIND_REQ_PIPELINED_BATCH => Request::PipelinedBatch {
                id: d.u64()?,
                key: d.u64()?,
                queries: decode_queries(&mut d)?,
            },
            KIND_REQ_LEARN_PSDD => {
                let cnf = decode_cnf(&mut d)?;
                let alpha = d.f64()?;
                let data = decode_dataset(&mut d)?;
                Request::LearnPsdd { cnf, alpha, data }
            }
            KIND_REQ_COMPILE_SPACE => {
                let num_nodes = check_universe(d.u32()?)? as u32;
                let s = d.u32()?;
                let t = d.u32()?;
                let declared = d.u32()?;
                let n = d.counted(declared, 8)?;
                let mut edges = Vec::with_capacity(n);
                for _ in 0..n {
                    edges.push((d.u32()?, d.u32()?));
                }
                Request::CompileSpace {
                    num_nodes,
                    edges,
                    s,
                    t,
                }
            }
            KIND_REQ_COMPILE_CLASSIFIER => Request::CompileClassifier(decode_cnf(&mut d)?),
            KIND_REQ_OPTIMIZE => Request::Optimize { key: d.u64()? },
            KIND_REQ_TRACE => Request::Trace {
                id: d.u64()?,
                ctx: TraceContext {
                    trace_id: d.u64()?,
                    span_id: d.u64()?,
                    sampled: d.u8()? != 0,
                },
                key: d.u64()?,
                queries: decode_queries(&mut d)?,
            },
            kind => {
                return Err(ProtocolError::UnexpectedFrame {
                    kind,
                    expected: "a request",
                })
            }
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::default();
        let kind = match self {
            Response::Pong => KIND_RESP_PONG,
            Response::Compiled {
                key,
                num_vars,
                nodes,
                edges,
            } => {
                e.u64(*key);
                e.u32(*num_vars);
                e.u32(*nodes);
                e.u32(*edges);
                KIND_RESP_COMPILED
            }
            Response::Stats(s) => {
                encode_stats(&mut e, s);
                KIND_RESP_STATS
            }
            Response::ShuttingDown => KIND_RESP_SHUTTING_DOWN,
            Response::Error(err) => {
                encode_wire_error(&mut e, err);
                KIND_RESP_ERROR
            }
            Response::PipelinedBatch { id, result } => {
                e.u64(*id);
                encode_result(&mut e, result);
                KIND_RESP_PIPELINED_BATCH
            }
            Response::Learned {
                key,
                num_vars,
                nodes,
                log_likelihood,
            } => {
                e.u64(*key);
                e.u32(*num_vars);
                e.u32(*nodes);
                e.f64(*log_likelihood);
                KIND_RESP_LEARNED
            }
            Response::SpaceCompiled {
                key,
                num_edge_vars,
                nodes,
                paths,
            } => {
                e.u64(*key);
                e.u32(*num_edge_vars);
                e.u32(*nodes);
                e.u128(*paths);
                KIND_RESP_SPACE_COMPILED
            }
            Response::ClassifierCompiled {
                key,
                num_vars,
                nodes,
            } => {
                e.u64(*key);
                e.u32(*num_vars);
                e.u32(*nodes);
                KIND_RESP_CLASSIFIER_COMPILED
            }
            Response::Optimized {
                key,
                nodes_before,
                nodes_after,
                swapped,
                wall_us,
            } => {
                e.u64(*key);
                e.u32(*nodes_before);
                e.u32(*nodes_after);
                e.u8(u8::from(*swapped));
                e.u64(*wall_us);
                KIND_RESP_OPTIMIZED
            }
            Response::Traced { id, result, spans } => {
                e.u64(*id);
                encode_result(&mut e, result);
                e.u32(spans.len() as u32);
                for s in spans {
                    e.u64(s.span_id);
                    e.u64(s.parent_id);
                    e.str(&s.name);
                    e.u64(s.start_us);
                    e.u64(s.dur_us);
                }
                KIND_RESP_TRACED
            }
        };
        (kind, e.0)
    }

    pub(crate) fn decode(kind: u8, payload: &[u8]) -> Result<Response> {
        let mut d = Dec::new(payload);
        let resp = match kind {
            KIND_RESP_PONG => Response::Pong,
            KIND_RESP_COMPILED => Response::Compiled {
                key: d.u64()?,
                num_vars: d.u32()?,
                nodes: d.u32()?,
                edges: d.u32()?,
            },
            KIND_RESP_STATS => Response::Stats(decode_stats(&mut d)?),
            KIND_RESP_SHUTTING_DOWN => Response::ShuttingDown,
            KIND_RESP_ERROR => Response::Error(decode_wire_error(&mut d)?),
            KIND_RESP_PIPELINED_BATCH => Response::PipelinedBatch {
                id: d.u64()?,
                result: decode_result(&mut d)?,
            },
            KIND_RESP_LEARNED => Response::Learned {
                key: d.u64()?,
                num_vars: d.u32()?,
                nodes: d.u32()?,
                log_likelihood: d.f64()?,
            },
            KIND_RESP_SPACE_COMPILED => Response::SpaceCompiled {
                key: d.u64()?,
                num_edge_vars: d.u32()?,
                nodes: d.u32()?,
                paths: d.u128()?,
            },
            KIND_RESP_CLASSIFIER_COMPILED => Response::ClassifierCompiled {
                key: d.u64()?,
                num_vars: d.u32()?,
                nodes: d.u32()?,
            },
            KIND_RESP_OPTIMIZED => Response::Optimized {
                key: d.u64()?,
                nodes_before: d.u32()?,
                nodes_after: d.u32()?,
                swapped: d.u8()? != 0,
                wall_us: d.u64()?,
            },
            KIND_RESP_TRACED => {
                let id = d.u64()?;
                let result = decode_result(&mut d)?;
                let declared = d.u32()?;
                let n = d.counted(declared, 36)?;
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    spans.push(TraceSpanData {
                        span_id: d.u64()?,
                        parent_id: d.u64()?,
                        name: d.str()?,
                        start_us: d.u64()?,
                        dur_us: d.u64()?,
                    });
                }
                Response::Traced { id, result, spans }
            }
            kind => {
                return Err(ProtocolError::UnexpectedFrame {
                    kind,
                    expected: "a response",
                })
            }
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Writes one request frame stamped with [`PROTOCOL_VERSION`].
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    let (kind, payload) = req.encode();
    write_frame(w, kind, &payload)
}

/// Reads one request frame, rejecting payloads over `max_frame_len`.
pub fn read_request(r: &mut impl Read, max_frame_len: u32) -> Result<Request> {
    let (kind, payload) = read_frame(r, max_frame_len)?;
    Request::decode(kind, &payload)
}

/// Writes one response frame stamped with [`PROTOCOL_VERSION`].
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    let (kind, payload) = resp.encode();
    write_frame(w, kind, &payload)
}

/// Reads one response frame, rejecting payloads over `max_frame_len`.
pub fn read_response(r: &mut impl Read, max_frame_len: u32) -> Result<Response> {
    let (kind, payload) = read_frame(r, max_frame_len)?;
    Response::decode(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats snapshot exercising every extension shape: per-kind
    /// counts, connection counters, and all three metric variants.
    fn test_stats() -> StatsSnapshot {
        StatsSnapshot {
            registry: RegistryStats {
                hits: 3,
                misses: 2,
                evictions: 1,
            },
            artifacts: 2,
            retained_nodes: 1000,
            max_retained_nodes: 4000,
            workers: 8,
            queue_depth: 5,
            uptime_ms: 123_456,
            requests_served: vec![("sat".into(), 7), ("wmc".into(), 41)],
            connections_accepted: 19,
            connections_active: 3,
            metrics: MetricsDump {
                metrics: vec![
                    ("compiler.decisions".into(), MetricValue::Counter(991)),
                    ("server.connections_active".into(), MetricValue::Gauge(-2)),
                    (
                        "engine.latency.wmc_us".into(),
                        MetricValue::Histogram(HistogramSnapshot {
                            buckets: vec![0, 5, 9, 1],
                            count: 15,
                            sum_us: 801,
                        }),
                    ),
                ],
            },
        }
    }

    fn round_trip_request(req: &Request) -> Request {
        let mut bytes = Vec::new();
        write_request(&mut bytes, req).unwrap();
        read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap()
    }

    fn round_trip_response(resp: &Response) -> Response {
        let mut bytes = Vec::new();
        write_response(&mut bytes, resp).unwrap();
        read_response(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap()
    }

    /// One frame of every request kind; every query tag, and corruption
    /// of every frame, is covered by `tests/protocol_hardening.rs`.
    #[test]
    fn request_frames_round_trip() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        let mut w = LitWeights::unit(3);
        w.set(Var(1).positive(), 0.25);
        let mut pa = PartialAssignment::new(3);
        pa.assign(Var(0).negative());
        for req in [
            Request::Ping,
            Request::Compile(cnf),
            Request::PipelinedBatch {
                id: 1,
                key: 2,
                queries: vec![
                    Query::ModelCountUnder(pa),
                    Query::Wmc(w.clone()),
                    Query::Marginals(w.clone()),
                    Query::MaxWeight(w),
                ],
            },
            Request::Stats,
            Request::Shutdown,
            Request::PipelinedBatch {
                id: 0,
                key: 1,
                queries: Vec::new(),
            },
            Request::LearnPsdd {
                cnf: Cnf::parse_dimacs("p cnf 3 1\n1 2 3 0\n").unwrap(),
                alpha: 0.5,
                data: vec![
                    (Assignment::from_values(&[true, false, true]), 2.0),
                    (Assignment::from_values(&[false, true, false]), 1.5),
                ],
            },
            Request::CompileSpace {
                num_nodes: 4,
                edges: vec![(0, 1), (1, 2), (2, 3), (0, 3)],
                s: 0,
                t: 3,
            },
            Request::CompileClassifier(Cnf::parse_dimacs("p cnf 2 2\n1 0\n-1 2 0\n").unwrap()),
            Request::Optimize { key: 0xfeed_beef },
            Request::Trace {
                id: 4,
                ctx: TraceContext {
                    trace_id: 1,
                    span_id: 2,
                    sampled: false,
                },
                key: 0,
                queries: Vec::new(),
            },
        ] {
            assert_eq!(round_trip_request(&req), req, "{req:?}");
        }
    }

    /// One frame of every response kind, with the extreme values of each
    /// field; every answer tag is covered by `tests/protocol_hardening.rs`.
    #[test]
    fn response_frames_round_trip() {
        let assignment = Assignment::from_values(&[true, false, true, true, false]);
        for resp in [
            Response::Pong,
            Response::Compiled {
                key: 7,
                num_vars: 3,
                nodes: 10,
                edges: 14,
            },
            Response::PipelinedBatch {
                id: 1,
                result: Ok(vec![
                    QueryAnswer::Sat(true),
                    QueryAnswer::ModelCount(u128::MAX - 17),
                    QueryAnswer::Wmc(0.1 + 0.2),
                    QueryAnswer::Marginals {
                        wmc: 1.5,
                        marginals: vec![(0.5, 1.0), (0.25, 1.25)],
                    },
                    QueryAnswer::MaxWeight(None),
                    QueryAnswer::MaxWeight(Some((0.75, assignment))),
                ]),
            },
            Response::Stats(test_stats()),
            Response::ShuttingDown,
            Response::Error(WireError::Overloaded {
                queue_depth: 128,
                capacity: 128,
            }),
            Response::Error(WireError::UnknownKey(99)),
            Response::Error(WireError::Invalid("weights cover 2 vars".into())),
            Response::Error(WireError::Engine("structure".into())),
            Response::Error(WireError::ShuttingDown),
            Response::PipelinedBatch {
                id: 18,
                result: Ok(Vec::new()),
            },
            Response::PipelinedBatch {
                id: 19,
                result: Err(WireError::Overloaded {
                    queue_depth: 10,
                    capacity: 10,
                }),
            },
            Response::Learned {
                key: 21,
                num_vars: 3,
                nodes: 17,
                log_likelihood: -4.25,
            },
            Response::SpaceCompiled {
                key: 22,
                num_edge_vars: 4,
                nodes: 9,
                paths: u128::from(u64::MAX) + 7,
            },
            Response::ClassifierCompiled {
                key: 23,
                num_vars: 2,
                nodes: 5,
            },
            Response::Optimized {
                key: 24,
                nodes_before: 120,
                nodes_after: 95,
                swapped: true,
                wall_us: 1234,
            },
            Response::Traced {
                id: 26,
                result: Ok(vec![QueryAnswer::Wmc(0.625)]),
                spans: vec![TraceSpanData {
                    span_id: 11,
                    parent_id: 10,
                    name: "kernel.sweep.scalar".into(),
                    start_us: u64::MAX,
                    dur_us: 0,
                }],
            },
            Response::Traced {
                id: 27,
                result: Err(WireError::UnknownKey(3)),
                spans: Vec::new(),
            },
        ] {
            assert_eq!(round_trip_response(&resp), resp, "{resp:?}");
        }
    }

    #[test]
    fn inconsistent_cube_is_malformed_not_a_panic() {
        // Hand-craft a Reason answer whose cube assigns x0 both ways;
        // `Cube::from_lits` would panic, so the decoder must reject first.
        let mut e = Enc::default();
        e.u8(ANSWER_REASON);
        e.u8(1); // decision
        e.u8(1); // reason present
        e.u32(2);
        e.u32(Var(0).positive().code());
        e.u32(Var(0).negative().code());
        let mut d = Dec::new(&e.0);
        assert!(matches!(
            decode_answer(&mut d),
            Err(ProtocolError::Malformed(m)) if m.contains("both polarities")
        ));
    }

    #[test]
    fn scan_frame_peels_pipelined_frames_incrementally() {
        let req = Request::PipelinedBatch {
            id: 42,
            key: 7,
            queries: vec![Query::ModelCount, Query::Sat],
        };
        let mut bytes = Vec::new();
        write_request(&mut bytes, &req).unwrap();
        write_request(&mut bytes, &Request::Ping).unwrap();

        // Every proper prefix is Incomplete, never an error.
        for cut in 0..bytes.len() {
            let first_len = {
                let FrameScan::Frame { consumed, .. } =
                    scan_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap()
                else {
                    panic!("full buffer must scan");
                };
                consumed
            };
            if cut >= first_len {
                continue; // prefix already holds a whole first frame
            }
            match scan_frame(&bytes[..cut], DEFAULT_MAX_FRAME_LEN).unwrap() {
                FrameScan::Incomplete { need } => assert!(need > cut),
                other => panic!("cut {cut}: expected Incomplete, got {other:?}"),
            }
        }

        // The full buffer yields both frames back-to-back.
        let FrameScan::Frame {
            kind,
            payload,
            consumed,
        } = scan_frame(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap()
        else {
            panic!("expected a frame");
        };
        assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        let FrameScan::Frame {
            kind: kind2,
            payload: payload2,
            consumed: consumed2,
            ..
        } = scan_frame(&bytes[consumed..], DEFAULT_MAX_FRAME_LEN).unwrap()
        else {
            panic!("expected the second frame");
        };
        assert_eq!(Request::decode(kind2, &payload2).unwrap(), Request::Ping);
        assert_eq!(consumed + consumed2, bytes.len());
    }

    #[test]
    fn scan_frame_rejects_corruption_at_header_time() {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &Request::Ping).unwrap();
        bytes[0] ^= 0xff;
        assert!(matches!(
            scan_frame(&bytes[..HEADER_LEN], DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_metric_tag_is_malformed_not_a_panic() {
        let mut e = Enc::default();
        encode_stats(&mut e, &StatsSnapshot::default());
        // One metric whose type tag (9) no decoder knows.
        let mut payload = e.0;
        payload.truncate(payload.len() - 4); // drop the empty metrics count
        let mut tail = Enc::default();
        tail.u32(1);
        tail.str("mystery");
        tail.u8(9);
        payload.extend_from_slice(&tail.0);
        let mut d = Dec::new(&payload);
        assert!(matches!(
            decode_stats(&mut d),
            Err(ProtocolError::Malformed(m)) if m.contains("metric type tag")
        ));
    }

    #[test]
    fn floats_survive_bit_exactly() {
        for x in [0.1 + 0.2, f64::MIN_POSITIVE, 1e300, -0.0, f64::INFINITY] {
            let resp = Response::PipelinedBatch {
                id: 0,
                result: Ok(vec![QueryAnswer::Wmc(x)]),
            };
            let Response::PipelinedBatch {
                result: Ok(answers),
                ..
            } = round_trip_response(&resp)
            else {
                panic!("wrong frame");
            };
            assert!(
                matches!(answers[..], [QueryAnswer::Wmc(back)] if back.to_bits() == x.to_bits())
            );
        }
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &Request::Ping).unwrap();
        // Declare a 3-GiB payload and restamp the header checksum so the
        // length bound itself is what rejects the frame.
        bytes[8..12].copy_from_slice(&(3u32 << 30).to_le_bytes());
        let sum = checksum(&bytes[..20]);
        bytes[20..28].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::FrameTooLarge { declared, .. }) if declared == 3 << 30
        ));
    }

    #[test]
    fn mid_frame_disconnect_is_typed() {
        let mut bytes = Vec::new();
        write_request(
            &mut bytes,
            &Request::PipelinedBatch {
                id: 1,
                key: 5,
                queries: vec![Query::ModelCount],
            },
        )
        .unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let mut slice = &bytes[..cut];
            assert_eq!(
                read_request(&mut slice, DEFAULT_MAX_FRAME_LEN),
                Err(ProtocolError::Disconnected),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn wrong_direction_frame_is_unexpected() {
        let mut bytes = Vec::new();
        write_response(&mut bytes, &Response::Pong).unwrap();
        assert!(matches!(
            read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::UnexpectedFrame { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &Request::Stats).unwrap();
        // Graft 4 payload bytes on and fix up both checksums.
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        let psum = checksum(&bytes[HEADER_LEN..]);
        bytes[12..20].copy_from_slice(&psum.to_le_bytes());
        let hsum = checksum(&bytes[..20]);
        bytes[20..28].copy_from_slice(&hsum.to_le_bytes());
        assert!(matches!(
            read_request(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
