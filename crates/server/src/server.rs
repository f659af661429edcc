//! The TCP serving frontend: a readiness-driven multiplexed server over
//! nonblocking sockets, with admission control and graceful shutdown.
//!
//! Architecture (all std, no external deps — the workspace builds
//! air-gapped; the epoll wrapper lives in [`crate::reactor`]):
//!
//! * an **accept thread** owns the listener. Before each `accept` it takes
//!   a permit from a bounded connection gate ([`ServerConfig::max_connections`]),
//!   so excess clients queue in the kernel backlog instead of piling into
//!   the reactors — no connection is ever dropped by admission. Accepted
//!   sockets are handed round-robin to the reactors;
//! * **N reactor threads** ([`ServerConfig::reactors`]) each run an epoll
//!   event loop over their shard of connections. Every socket is
//!   nonblocking and registered edge-triggered; a per-connection state
//!   machine accumulates partial frames in a read buffer, peels complete
//!   frames off with [`crate::protocol::scan_frame`], and stages encoded
//!   responses in a write buffer flushed as the socket allows. Idle
//!   connections cost **zero** wakeups; shutdown and finished builds
//!   arrive through a per-reactor eventfd [`crate::reactor::Waker`];
//! * **queries are answered on the reactor thread**: every query frame
//!   ([`Request::PipelinedBatch`] or [`Request::Trace`]) decoded in one
//!   readiness drain is answered at the end of that drain through
//!   [`Engine::run_artifact_batch`], and its response bytes go straight
//!   into the write buffer — no hand-off to a worker and back. The cost:
//!   a long batch holds up the other connections on its reactor, and one
//!   connection's frames are answered one group after another on one
//!   thread instead of fanning out across workers;
//! * **builds run on the engine's workers**: compile, learn, space,
//!   classifier and optimize requests become tasks on the executor's
//!   fixed pool ([`trl_engine::Executor::execute`]), so a slow build never
//!   stalls a reactor and no request spawns a thread. A finished build
//!   returns its response through the reactor's inbox;
//! * **pipelining**: a connection may have any number of frames in
//!   flight. Query frames carry a client-chosen id and are answered out
//!   of order by id, so they never wait behind a build on their
//!   connection. Every other request (ping, stats, shutdown, builds) is
//!   answered in arrival order relative to the others; a reorder buffer
//!   holds such a response while one before it, a build, still runs. All
//!   untraced query frames that arrive in one readiness drain for the
//!   same registry key are **coalesced into a single executor batch**, so
//!   the engine's lane-batched kernels see one big batch instead of many
//!   small ones;
//! * a **bounded admission queue** guards the shared [`Engine`]: each
//!   admitted query holds one unit of [`ServerConfig::queue_capacity`]
//!   until answered, and each build one unit until it finishes. A frame
//!   that would exceed the bound is rejected with a typed
//!   [`WireError::Overloaded`] response — backpressure, not buffering —
//!   and the connection stays usable;
//! * **graceful shutdown** ([`ServerHandle::shutdown`], or a wire
//!   [`Request::Shutdown`]) stops accepting, stops reading, lets every
//!   in-flight build finish and flush its response, then joins the accept
//!   thread and every reactor.
//!
//! Protocol-level failures (corrupt frame, oversized length prefix, a
//! protocol version other than [`crate::protocol::PROTOCOL_VERSION`]) are
//! answered with a typed [`Response::Error`] frame where
//! the stream still permits one, and the connection is closed — a broken
//! framing layer cannot be resynchronized.

use std::collections::BTreeMap;
use std::io;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{
    scan_frame, write_response, FrameScan, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN,
};
use crate::reactor::{Event, Reactor, Waker};
use trl_engine::{Artifact, Engine, EngineError, Query, QueryAnswer};
use trl_obs::{TraceContext, TraceSpanData};

/// Tunables for a [`Server`]. The defaults suit tests and small
/// deployments; serving real traffic wants them set explicitly.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further clients wait in
    /// the kernel accept backlog.
    pub max_connections: usize,
    /// Maximum queries admitted into the engine at once, across all
    /// connections. A request pushing past this is answered with
    /// [`WireError::Overloaded`].
    pub queue_capacity: usize,
    /// Cap on a mid-frame stall: a connection holding a partial frame
    /// longer than this is closed.
    pub read_timeout: Duration,
    /// Cap on a write stall: a connection that cannot absorb its staged
    /// responses for this long is closed.
    pub write_timeout: Duration,
    /// Ceiling on an inbound frame's payload length.
    pub max_frame_len: u32,
    /// Reactor (event-loop) threads the connections are sharded across;
    /// each also answers its own connections' queries. Zero means one per
    /// available hardware thread.
    pub reactors: usize,
    /// When set, any request whose handling time exceeds this threshold
    /// is logged to stderr as one JSON line with its span breakdown.
    pub slow_query: Option<Duration>,
    /// Probability in `[0, 1]` that a request is traced into the flight
    /// recorder (`--trace-sample`). Zero disables sampling; explicit
    /// [`Request::Trace`] frames are always traced regardless.
    pub trace_sample: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            queue_capacity: 1024,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            reactors: 0,
            slow_query: None,
            trace_sample: 0.0,
        }
    }
}

impl ServerConfig {
    /// The reactor count after resolving `0` to one reactor per hardware
    /// thread: reactors answer queries on their own threads, so they are
    /// the query compute, not only I/O multiplexers.
    fn effective_reactors(&self) -> usize {
        if self.reactors > 0 {
            return self.reactors;
        }
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
}

/// Counters the server keeps about its own traffic (monotonic since bind).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    /// Response frames enqueued (answers and typed errors alike).
    pub served: u64,
    /// Requests rejected with [`WireError::Overloaded`].
    pub overloaded: u64,
    /// Connections accepted.
    pub connections: u64,
}

/// A semaphore built from a mutex and condvar (std has no semaphore).
struct Gate {
    held: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            held: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free or `cancel` turns true; returns
    /// whether a permit was taken. Cancellation is wakeup-driven
    /// ([`Gate::cancel_wake`]), not polled.
    fn acquire(&self, max: usize, cancel: &AtomicBool) -> bool {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if cancel.load(Ordering::Acquire) {
                return false;
            }
            if *held < max {
                *held += 1;
                return true;
            }
            held = self.freed.wait(held).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn release(&self) {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        *held = held.saturating_sub(1);
        drop(held);
        self.freed.notify_all();
    }

    /// Wakes every waiter so it can observe a cancellation flag. Taking
    /// the lock first closes the check-then-wait race: a waiter between
    /// its flag check and its park holds the lock, so the notification
    /// cannot slip past it.
    fn cancel_wake(&self) {
        drop(self.held.lock().unwrap_or_else(|p| p.into_inner()));
        self.freed.notify_all();
    }
}

/// A finished build, routed back to the owning reactor through its inbox.
struct Completion {
    /// The connection's registration token; stale tokens (the connection
    /// died first) are dropped.
    token: u64,
    /// The build request's arrival index on its connection.
    seq: u64,
    /// The encoded response frame.
    bytes: Vec<u8>,
}

/// What other threads hand a reactor: fresh connections from the accept
/// thread, finished builds from executor workers.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// The cross-thread half of one reactor: its inbox and the eventfd that
/// interrupts its epoll wait.
struct ReactorShared {
    waker: Waker,
    inbox: Mutex<Inbox>,
}

impl ReactorShared {
    fn push_completion(&self, completion: Completion) {
        let was_empty = {
            let mut inbox = self.inbox.lock().unwrap_or_else(|p| p.into_inner());
            let was_empty = inbox.conns.is_empty() && inbox.completions.is_empty();
            inbox.completions.push(completion);
            was_empty
        };
        // A non-empty inbox already has an undrained wake pending (the
        // reactor drains its eventfd before it empties the inbox), so
        // only the emptiness edge needs the syscall.
        if was_empty {
            self.waker.wake();
        }
    }
}

/// State shared by the accept thread, the reactors, and the
/// [`ServerHandle`].
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Pair used to block [`ServerHandle::wait`] until shutdown.
    shutdown_signal: (Mutex<bool>, Condvar),
    conn_gate: Gate,
    /// Queries admitted into the engine and not yet answered.
    admitted: AtomicUsize,
    reactors: Vec<Arc<ReactorShared>>,
    served: AtomicU64,
    overloaded: AtomicU64,
    connections: AtomicU64,
    /// Connections currently being served (accepted, not yet closed).
    active: AtomicU64,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let (lock, cv) = &self.shutdown_signal;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        // Wake the accept thread if it is parked waiting for a permit…
        self.conn_gate.cancel_wake();
        // …wake every reactor so it starts draining…
        for r in &self.reactors {
            r.waker.wake();
        }
        // …and unblock an accept() parked in the kernel: a throwaway
        // connection to ourselves makes it return, after which it sees
        // the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Admits `n` queries against the bounded submission queue, or reports
    /// the typed overload. Admission is all-or-nothing per frame.
    fn try_admit(&self, n: usize) -> Result<(), WireError> {
        let cap = self.config.queue_capacity;
        let admit = self
            .admitted
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur + n <= cap).then_some(cur + n)
            });
        match admit {
            Ok(_) => Ok(()),
            Err(cur) => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                trl_obs::counter!("server.overloaded").inc();
                Err(WireError::Overloaded {
                    queue_depth: cur as u64,
                    capacity: cap as u64,
                })
            }
        }
    }

    fn release_admitted(&self, n: usize) {
        self.admitted.fetch_sub(n, Ordering::AcqRel);
    }
}

/// A running server. Bind with [`Server::bind`]; the returned
/// [`ServerHandle`] is the only way to address or stop it.
pub struct Server;

/// Handle to a bound, accepting server: its address, a shutdown trigger,
/// and the join points for every thread it spawned.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    reactor_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawns
    /// the reactors and the accept thread, and returns the handle. The
    /// engine is shared — several servers (or in-process callers) may
    /// serve one engine.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Only a nonzero rate touches the process-global sampling knob:
        // a default-config server must not stomp a rate the embedding
        // process (or another server on the same engine) already set.
        if config.trace_sample > 0.0 {
            trl_obs::set_trace_sampling(config.trace_sample);
        }
        let num_reactors = config.effective_reactors();
        let mut reactors = Vec::with_capacity(num_reactors);
        for _ in 0..num_reactors {
            reactors.push(Arc::new(ReactorShared {
                waker: Waker::new()?,
                inbox: Mutex::new(Inbox::default()),
            }));
        }
        let shared = Arc::new(Shared {
            engine,
            config,
            addr,
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            conn_gate: Gate::new(),
            admitted: AtomicUsize::new(0),
            reactors,
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        let mut reactor_threads = Vec::with_capacity(num_reactors);
        for idx in 0..num_reactors {
            let reactor_shared = Arc::clone(&shared);
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("trl-server-reactor-{idx}"))
                    .spawn(move || reactor_loop(idx, &reactor_shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("trl-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            reactor_threads,
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            served: self.shared.served.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        }
    }

    /// Whether shutdown has been triggered (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Triggers graceful shutdown and joins every server thread: stops
    /// accepting, drains in-flight requests, then returns final counters.
    pub fn shutdown(mut self) -> ServerCounters {
        self.shared.begin_shutdown();
        self.join_all()
    }

    /// Blocks until something triggers shutdown (a wire
    /// [`Request::Shutdown`], or [`ServerHandle::shutdown`] from another
    /// thread via a clone — there is none, so in practice the wire), then
    /// joins every server thread.
    pub fn wait(mut self) -> ServerCounters {
        let (lock, cv) = &self.shared.shutdown_signal;
        {
            let mut down = lock.lock().unwrap_or_else(|p| p.into_inner());
            while !*down {
                down = cv.wait(down).unwrap_or_else(|p| p.into_inner());
            }
        }
        self.join_all()
    }

    fn join_all(&mut self) -> ServerCounters {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // A reactor exits only once every connection it owns has drained,
        // in-flight builds included.
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
        self.counters()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle still stops the server; shutdown()/wait() only
        // add the explicit join-and-report path.
        if self.accept_thread.is_some() {
            self.shared.begin_shutdown();
            self.join_all();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_reactor = 0usize;
    loop {
        // Gate wait is the server-side queue delay a connection pays
        // before it can even be accepted — the counterpart of the
        // per-request service time recorded at completion.
        let gate_wait = Instant::now();
        if !shared
            .conn_gate
            .acquire(shared.config.max_connections, &shared.shutdown)
        {
            return; // shutdown while waiting for a permit
        }
        trl_obs::histogram!("server.gate_wait_us").record(gate_wait.elapsed());
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                shared.conn_gate.release();
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            // The wake-up connection from begin_shutdown, or a client that
            // raced shutdown; either way, stop accepting.
            shared.conn_gate.release();
            return;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::Relaxed);
        trl_obs::counter!("server.connections_accepted").inc();
        trl_obs::gauge!("server.connections_active").inc();
        // Shard round-robin: the permit travels with the connection and
        // is released by the owning reactor when it closes.
        let reactor = &shared.reactors[next_reactor % shared.reactors.len()];
        next_reactor = next_reactor.wrapping_add(1);
        let was_empty = {
            let mut inbox = reactor.inbox.lock().unwrap_or_else(|p| p.into_inner());
            let was_empty = inbox.conns.is_empty() && inbox.completions.is_empty();
            inbox.conns.push(stream);
            was_empty
        };
        if was_empty {
            reactor.waker.wake();
        }
    }
}

// ---------------------------------------------------------- reactor side

/// The inbox token reserved for the reactor's own waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Write buffer backlog beyond which the flushed prefix is compacted away
/// instead of waiting for the buffer to drain completely.
const OUTBUF_COMPACT: usize = 64 * 1024;

/// Per-connection state machine: partial-frame read buffer, staged write
/// buffer, pipelining bookkeeping.
struct Conn {
    stream: TcpStream,
    /// Registration token: `generation << 32 | slot`.
    token: u64,
    /// Accumulated inbound bytes; `inpos` marks the consumed prefix.
    inbuf: Vec<u8>,
    inpos: usize,
    /// Staged outbound bytes; `outpos` marks the flushed prefix.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Builds running on the executor's workers, not yet delivered back
    /// as completions.
    in_flight: usize,
    /// Arrival index handed to the next request answered in order (every
    /// request but a query frame).
    next_seq: u64,
    /// The ordered sequence number allowed to enter `outbuf` next.
    next_enqueue: u64,
    /// Ordered responses that completed before their turn.
    held: BTreeMap<u64, Vec<u8>>,
    /// No more requests will be read (peer EOF, protocol error, or
    /// shutdown drain); the connection closes once quiescent.
    read_closed: bool,
    /// Unrecoverable transport failure; close immediately, discarding
    /// any staged output.
    broken: bool,
    /// When the current partial frame started stalling.
    partial_since: Option<Instant>,
    /// When the current write backlog started stalling.
    blocked_since: Option<Instant>,
    /// When the current readiness drain began — the closest observable
    /// proxy for "the request's bytes arrived", and the start instant of a
    /// traced request's root span (so the root duration tracks
    /// client-observed latency).
    drain_start: Instant,
}

impl Conn {
    /// Hands out the next in-order arrival index.
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Stages an ordered response, releasing any held successors that
    /// become eligible.
    fn enqueue_ordered(&mut self, seq: u64, bytes: Vec<u8>) {
        self.held.insert(seq, bytes);
        while let Some(bytes) = self.held.remove(&self.next_enqueue) {
            self.outbuf.extend_from_slice(&bytes);
            self.next_enqueue += 1;
        }
    }

    /// Whether the connection has nothing left to do and can close.
    fn drained(&self) -> bool {
        self.broken
            || (self.read_closed
                && self.in_flight == 0
                && self.held.is_empty()
                && self.outpos == self.outbuf.len())
    }
}

/// One reactor's slab of connections. Tokens carry a generation so a
/// completion for a closed connection can never be misdelivered to the
/// slot's next tenant.
struct Slab {
    slots: Vec<Option<Conn>>,
    generations: Vec<u64>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, make: impl FnOnce(u64) -> Conn) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.generations.push(0);
            self.slots.len() - 1
        });
        let token = (self.generations[slot] << 32) | slot as u64;
        self.slots[slot] = Some(make(token));
        self.live += 1;
        slot
    }

    /// The connection registered under `token`, if it still exists.
    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let slot = (token & 0xffff_ffff) as usize;
        self.slots
            .get_mut(slot)
            .and_then(|s| s.as_mut())
            .filter(|c| c.token == token)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot)?.take()?;
        self.generations[slot] += 1;
        self.free.push(slot);
        self.live -= 1;
        Some(conn)
    }
}

/// Query frames from one readiness drain, staged to be answered as one
/// executor batch at the end of the drain: untraced frames coalesce per
/// registry key, a traced frame is a group of its own.
struct Group {
    key: u64,
    artifact: Artifact,
    /// Every staged frame's queries, in arrival order.
    queries: Vec<Query>,
    reply: Reply,
    /// When the group's first frame was decoded; the wait from here to
    /// the group's turn is its `engine.queue_wait` span.
    decoded: Instant,
}

/// How a staged group's answers go back on the wire: one response per
/// query frame, answered out of order by id.
struct Reply {
    /// `(request id, query count)` per coalesced frame, in arrival order.
    frames: Vec<(u64, usize)>,
    /// The client's trace context when the group is one `Trace` frame,
    /// answered with the server's span tree rooted under the client's span.
    trace: Option<TraceContext>,
}

fn reactor_loop(idx: usize, shared: &Arc<Shared>) {
    let rshared = Arc::clone(&shared.reactors[idx]);
    let reactor = match Reactor::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trl-server: reactor {idx} failed to create epoll instance: {e}");
            return;
        }
    };
    if let Err(e) = reactor.register_read(rshared.waker.raw_fd(), WAKER_TOKEN) {
        eprintln!("trl-server: reactor {idx} failed to register waker: {e}");
        return;
    }
    let conn_gauge = trl_obs::gauge(&format!("server.reactor.{idx}.connections"));
    let mut slab = Slab::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut draining = false;

    loop {
        // 1. Take in what other threads handed over.
        let (new_conns, completions) = {
            let mut inbox = rshared.inbox.lock().unwrap_or_else(|p| p.into_inner());
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
            )
        };
        for stream in new_conns {
            conn_gauge.inc();
            register_conn(
                stream,
                &reactor,
                &mut slab,
                shared,
                &rshared,
                conn_gauge,
                &mut scratch,
            );
        }
        for Completion { token, seq, bytes } in completions {
            let Some(conn) = slab.get_mut(token) else {
                continue; // connection died before its build finished
            };
            conn.in_flight -= 1;
            deliver(conn, shared, Some(seq), bytes);
            flush(conn);
            let slot = (token & 0xffff_ffff) as usize;
            close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
        }

        // 2. Shutdown turns every connection into drain mode: stop
        // reading, finish in-flight builds, flush, close. The sweep runs
        // every iteration while draining so connections that raced the
        // flag (or finished their last completion) are reaped.
        if shared.shutdown.load(Ordering::Acquire) {
            draining = true;
        }
        if draining {
            for slot in 0..slab.slots.len() {
                if let Some(conn) = slab.slots[slot].as_mut() {
                    if !conn.read_closed {
                        conn.read_closed = true;
                    }
                    flush(conn);
                }
                close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
            }
            if slab.live == 0 {
                return;
            }
        }

        // 3. Park. With no deadlines pending the wait is indefinite —
        // idle connections cost zero wakeups; the waker interrupts for
        // new connections, finished builds, and shutdown.
        let has_deadlines = slab
            .slots
            .iter()
            .flatten()
            .any(|c| c.partial_since.is_some() || c.blocked_since.is_some());
        let timeout = if has_deadlines || draining {
            Some(Duration::from_millis(100))
        } else {
            None
        };
        let n = match reactor.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("trl-server: reactor {idx} wait failed: {e}");
                break;
            }
        };
        trl_obs::counter!("server.reactor.wakeups").inc();
        trl_obs::histogram!("server.reactor.ready_events").record_us(n as u64);

        // 4. Service readiness.
        for &event in &events {
            if event.token == WAKER_TOKEN {
                rshared.waker.drain();
                continue;
            }
            let Some(conn) = slab.get_mut(event.token) else {
                continue;
            };
            if event.writable {
                flush(conn);
            }
            if event.readable || event.hangup {
                read_drain(conn, shared, &rshared, &mut scratch);
            }
            let slot = (event.token & 0xffff_ffff) as usize;
            close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
        }

        // 5. Enforce stall deadlines (only armed connections pay).
        if has_deadlines {
            let now = Instant::now();
            for slot in 0..slab.slots.len() {
                if let Some(conn) = slab.slots[slot].as_mut() {
                    let read_stalled = conn
                        .partial_since
                        .is_some_and(|t| now.duration_since(t) > shared.config.read_timeout);
                    let write_stalled = conn
                        .blocked_since
                        .is_some_and(|t| now.duration_since(t) > shared.config.write_timeout);
                    if read_stalled || write_stalled {
                        conn.broken = true;
                    }
                }
                close_if_drained(&mut slab, slot, &reactor, shared, conn_gauge);
            }
        }
    }

    // Abnormal exit (epoll failure): release what we still hold so the
    // accept gate cannot wedge.
    for slot in 0..slab.slots.len() {
        if slab.slots[slot].is_some() {
            if let Some(conn) = slab.remove(slot) {
                let _ = reactor.deregister(conn.stream.as_raw_fd());
                release_conn(shared, conn_gauge);
            }
        }
    }
}

/// Registers a fresh connection with the reactor and performs its initial
/// read/flush (readiness present before registration would otherwise
/// never deliver an edge).
fn register_conn(
    stream: TcpStream,
    reactor: &Reactor,
    slab: &mut Slab,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
    conn_gauge: &'static trl_obs::Gauge,
    scratch: &mut [u8],
) {
    if stream.set_nonblocking(true).is_err() {
        release_conn(shared, conn_gauge);
        return;
    }
    let _ = stream.set_nodelay(true);
    let fd = stream.as_raw_fd();
    let slot = slab.insert(|token| Conn {
        stream,
        token,
        inbuf: Vec::new(),
        inpos: 0,
        outbuf: Vec::new(),
        outpos: 0,
        in_flight: 0,
        next_seq: 0,
        next_enqueue: 0,
        held: BTreeMap::new(),
        read_closed: false,
        broken: false,
        partial_since: None,
        blocked_since: None,
        drain_start: Instant::now(),
    });
    let token = slab.slots[slot].as_ref().map(|c| c.token).unwrap_or(0);
    if reactor.register_edge(fd, token).is_err() {
        slab.remove(slot);
        release_conn(shared, conn_gauge);
        return;
    }
    let conn = slab.slots[slot].as_mut().expect("just inserted");
    if shared.shutdown.load(Ordering::Acquire) {
        conn.read_closed = true;
    } else {
        read_drain(conn, shared, rshared, scratch);
        flush(conn);
    }
}

/// Undoes the accept-side accounting for one connection.
fn release_conn(shared: &Arc<Shared>, conn_gauge: &'static trl_obs::Gauge) {
    conn_gauge.dec();
    shared.active.fetch_sub(1, Ordering::Relaxed);
    trl_obs::gauge!("server.connections_active").dec();
    shared.conn_gate.release();
}

/// Closes the connection in `slot` if it has fully drained.
fn close_if_drained(
    slab: &mut Slab,
    slot: usize,
    reactor: &Reactor,
    shared: &Arc<Shared>,
    conn_gauge: &'static trl_obs::Gauge,
) {
    let done = matches!(
        slab.slots.get(slot),
        Some(Some(conn)) if conn.drained()
    );
    if done {
        if let Some(conn) = slab.remove(slot) {
            let _ = reactor.deregister(conn.stream.as_raw_fd());
            release_conn(shared, conn_gauge);
            // The stream drops (and closes) here; pending completions for
            // this token are dropped by the generation check.
        }
    }
}

/// Drains the socket into the connection's read buffer (edge-triggered
/// discipline: read until `WouldBlock`), then processes every complete
/// frame that arrived.
fn read_drain(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
    scratch: &mut [u8],
) {
    if conn.read_closed || conn.broken {
        return;
    }
    conn.drain_start = Instant::now();
    let mut total = 0u64;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                total += n as u64;
                conn.inbuf.extend_from_slice(&scratch[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                return;
            }
        }
    }
    if total > 0 {
        trl_obs::counter!("server.bytes_read").add(total);
    }
    process_frames(conn, shared, rshared);
}

/// Peels complete frames off the read buffer, dispatches each, and
/// answers the drain's staged query groups.
fn process_frames(conn: &mut Conn, shared: &Arc<Shared>, rshared: &Arc<ReactorShared>) {
    let mut groups: Vec<Group> = Vec::new();
    while !conn.read_closed && !conn.broken {
        match scan_frame(&conn.inbuf[conn.inpos..], shared.config.max_frame_len) {
            Ok(FrameScan::Incomplete { .. }) => break,
            Ok(FrameScan::Frame {
                kind,
                payload,
                consumed,
            }) => {
                conn.inpos += consumed;
                match Request::decode(kind, &payload) {
                    Ok(request) => dispatch(conn, request, &mut groups, shared, rshared),
                    Err(e) => protocol_reject(conn, &e.to_string()),
                }
            }
            Err(e) => {
                protocol_reject(conn, &e.to_string());
                break;
            }
        }
    }
    // Compact the consumed prefix away.
    if conn.inpos == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.inpos = 0;
    } else if conn.inpos > 0 {
        conn.inbuf.drain(..conn.inpos);
        conn.inpos = 0;
    }
    // A leftover partial frame arms the read deadline; an empty buffer
    // (or a closed read side) disarms it.
    conn.partial_since = if conn.inbuf.is_empty() || conn.read_closed {
        None
    } else if conn.partial_since.is_some() {
        conn.partial_since
    } else {
        Some(Instant::now())
    };
    for group in groups {
        answer(conn, group, shared);
    }
    flush(conn);
}

/// Typed rejection, then drain-and-close: framing cannot resync.
fn protocol_reject(conn: &mut Conn, message: &str) {
    let seq = conn.take_seq();
    let resp = Response::Error(WireError::Invalid(message.to_string()));
    conn.enqueue_ordered(seq, encode_response(&resp));
    conn.read_closed = true;
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = write_response(&mut bytes, resp);
    bytes
}

/// Handles one decoded request. Inline kinds (ping, stats, shutdown,
/// rejections) answer immediately; builds go to the executor's workers;
/// query frames are staged into `groups` and answered at the end of the
/// drain.
fn dispatch(
    conn: &mut Conn,
    request: Request,
    groups: &mut Vec<Group>,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
) {
    trl_obs::counter!("server.requests").inc();
    match request {
        Request::Ping => {
            trl_obs::counter!("server.requests.ping").inc();
            respond_inline(conn, shared, &Response::Pong);
        }
        Request::Stats => {
            trl_obs::counter!("server.requests.stats").inc();
            let started = Instant::now();
            // The engine fills everything it can see; the backlog (queries
            // admitted and not yet answered, as `overloaded` reports it)
            // and the connection counters are the server's to overlay.
            let mut snapshot = shared.engine.stats();
            snapshot.queue_depth = shared.admitted.load(Ordering::Relaxed);
            snapshot.connections_accepted = shared.connections.load(Ordering::Relaxed);
            snapshot.connections_active = shared.active.load(Ordering::Relaxed);
            let resp = Response::Stats(snapshot);
            trl_obs::histogram!("server.service_us").record(started.elapsed());
            respond_inline(conn, shared, &resp);
        }
        Request::Shutdown => {
            trl_obs::counter!("server.requests.shutdown").inc();
            respond_inline(conn, shared, &Response::ShuttingDown);
            conn.read_closed = true;
            shared.begin_shutdown();
        }
        Request::PipelinedBatch { id, key, queries } => {
            trl_obs::counter!("server.requests.pipeline").inc();
            trl_obs::histogram!("server.pipeline.batch_size").record_us(queries.len() as u64);
            stage(conn, id, key, queries, None, groups, shared);
        }
        Request::Trace {
            id,
            ctx,
            key,
            queries,
        } => {
            trl_obs::counter!("server.requests.trace").inc();
            stage(conn, id, key, queries, Some(ctx), groups, shared);
        }
        Request::Compile(cnf) => {
            trl_obs::counter!("server.requests.compile").inc();
            start_build(conn, "compile", shared, rshared, move |e| {
                let (key, circuit) = e.compile(&cnf);
                Response::Compiled {
                    key,
                    num_vars: circuit.num_vars() as u32,
                    nodes: circuit.raw().node_count() as u32,
                    edges: circuit.raw().edge_count() as u32,
                }
            });
        }
        // Learning progress is wire-visible through the stats frame: the
        // engine bumps `engine.learn.*` counters as the job runs.
        Request::LearnPsdd { cnf, alpha, data } => {
            trl_obs::counter!("server.requests.learn").inc();
            start_build(conn, "learn", shared, rshared, move |e| {
                match e.learn_psdd(&cnf, &data, alpha) {
                    Ok((key, psdd)) => Response::Learned {
                        key,
                        num_vars: psdd.num_vars() as u32,
                        nodes: psdd.node_count() as u32,
                        log_likelihood: psdd.train_log_likelihood(),
                    },
                    Err(err) => Response::Error(engine_error_to_wire(err)),
                }
            });
        }
        Request::CompileSpace {
            num_nodes,
            edges,
            s,
            t,
        } => {
            trl_obs::counter!("server.requests.space").inc();
            start_build(conn, "space", shared, rshared, move |e| {
                match e.compile_space(num_nodes as usize, &edges, s, t) {
                    Ok((key, space)) => Response::SpaceCompiled {
                        key,
                        num_edge_vars: space.num_edge_vars() as u32,
                        nodes: space.node_count() as u32,
                        paths: space.path_count(),
                    },
                    Err(err) => Response::Error(engine_error_to_wire(err)),
                }
            });
        }
        Request::CompileClassifier(cnf) => {
            trl_obs::counter!("server.requests.classifier").inc();
            start_build(conn, "classifier", shared, rshared, move |e| {
                let (key, clf) = e.compile_classifier(&cnf);
                Response::ClassifierCompiled {
                    key,
                    num_vars: clf.num_vars() as u32,
                    nodes: clf.node_count() as u32,
                }
            });
        }
        // Sifting and vtree search can take the schedule's whole time
        // budget; in-flight queries keep serving from the original circuit
        // throughout.
        Request::Optimize { key } => {
            trl_obs::counter!("server.requests.optimize").inc();
            // Reject an unknown key on the reactor thread: no admission
            // slot or worker for a request that cannot do work.
            if shared.engine.get(key).is_none() {
                respond_inline(conn, shared, &Response::Error(WireError::UnknownKey(key)));
                return;
            }
            start_build(conn, "optimize", shared, rshared, move |e| {
                match e.optimize(key) {
                    Ok(r) => Response::Optimized {
                        key: r.key,
                        nodes_before: r.nodes_before as u32,
                        nodes_after: r.nodes_after as u32,
                        swapped: r.swapped,
                        wall_us: r.wall_us,
                    },
                    Err(err) => Response::Error(engine_error_to_wire(err)),
                }
            });
        }
    }
}

/// Stages an inline (order-preserving) response produced on the reactor
/// thread itself.
fn respond_inline(conn: &mut Conn, shared: &Arc<Shared>, resp: &Response) {
    let seq = conn.take_seq();
    deliver(conn, shared, Some(seq), encode_response(resp));
}

/// Stages one encoded response frame: at its arrival index `seq` for a
/// request answered in order, straight into the write buffer for a query
/// frame.
fn deliver(conn: &mut Conn, shared: &Shared, seq: Option<u64>, bytes: Vec<u8>) {
    shared.served.fetch_add(1, Ordering::Relaxed);
    match seq {
        Some(seq) => conn.enqueue_ordered(seq, bytes),
        None => conn.outbuf.extend_from_slice(&bytes),
    }
}

/// The response to query frame `id`: a `Traced` frame when the request
/// was traced (`spans` is its span tree), a `PipelinedBatch` frame
/// otherwise.
fn query_response(
    id: u64,
    result: Result<Vec<QueryAnswer>, WireError>,
    spans: Option<Vec<TraceSpanData>>,
) -> Response {
    match spans {
        Some(spans) => Response::Traced { id, result, spans },
        None => Response::PipelinedBatch { id, result },
    }
}

/// Answers every frame of `reply` with `result` and no spans: a typed
/// failure, or the empty answer list of an empty frame.
fn reply_all(
    conn: &mut Conn,
    shared: &Shared,
    reply: &Reply,
    result: Result<Vec<QueryAnswer>, WireError>,
) {
    for &(id, _) in &reply.frames {
        let resp = query_response(id, result.clone(), reply.trace.map(|_| Vec::new()));
        deliver(conn, shared, None, encode_response(&resp));
    }
}

/// Admits, validates and stages query frame `id` into this drain's
/// groups: an untraced frame joins an earlier untraced frame's group for
/// the same key, a traced frame starts a group of its own. A failure (or
/// an empty frame) answers the frame at once without touching the rest
/// of the drain.
fn stage(
    conn: &mut Conn,
    id: u64,
    key: u64,
    queries: Vec<Query>,
    trace: Option<TraceContext>,
    groups: &mut Vec<Group>,
    shared: &Shared,
) {
    let n = queries.len();
    let reply = Reply {
        frames: vec![(id, n)],
        trace,
    };
    if n == 0 {
        return reply_all(conn, shared, &reply, Ok(Vec::new()));
    }
    if let Err(e) = shared.try_admit(n) {
        return reply_all(conn, shared, &reply, Err(e));
    }
    let joins = match trace {
        None => groups
            .iter()
            .position(|g| g.key == key && g.reply.trace.is_none()),
        Some(_) => None,
    };
    let artifact = match joins.map(|i| groups[i].artifact.clone()) {
        Some(a) => a,
        None => match shared.engine.get(key) {
            Some(a) => a,
            None => {
                shared.release_admitted(n);
                return reply_all(conn, shared, &reply, Err(WireError::UnknownKey(key)));
            }
        },
    };
    // Per-frame validation up front (kind match and universe cover), so
    // one malformed frame cannot poison the coalesced batch its
    // neighbors ride in.
    if let Err(e) = queries.iter().try_for_each(|q| artifact.validate(q)) {
        shared.release_admitted(n);
        return reply_all(conn, shared, &reply, Err(engine_error_to_wire(e)));
    }
    match joins {
        Some(i) => {
            groups[i].queries.extend(queries);
            groups[i].reply.frames.extend(reply.frames);
        }
        None => groups.push(Group {
            key,
            artifact,
            queries,
            reply,
            decoded: Instant::now(),
        }),
    }
}

fn engine_error_to_wire(e: EngineError) -> WireError {
    match e {
        EngineError::Structure(m) => WireError::Invalid(m),
        other => WireError::Engine(other.to_string()),
    }
}

/// Answers one staged group on this reactor thread — its queries as one
/// executor batch ([`Engine::run_artifact_batch`]) — and stages the
/// response frames, split back per frame.
///
/// A sampled (or, for a `Trace` frame, forced) request records
/// `reactor.drain` (drain start → frame decoded), `engine.queue_wait`
/// (decoded → the group's turn), the executor's `executor.batch` and
/// `kernel.sweep.*` spans (the context is installed around the batch),
/// and `server.write` under one `server.request` root.
fn answer(conn: &mut Conn, group: Group, shared: &Shared) {
    let Group {
        artifact,
        queries,
        reply,
        decoded,
        ..
    } = group;
    let n = queries.len();
    // A trace frame adopts the client's trace id with a fresh root span
    // for the server's subtree, and keeps recording forced until its tree
    // is collected below, whatever the sampling rate.
    let (ctx, _forced) = match reply.trace {
        Some(client) => (
            Some(TraceContext::adopt(client.trace_id)),
            Some(trl_obs::force_tracing()),
        ),
        None => (trl_obs::maybe_sample(), None),
    };
    let drain_start = conn.drain_start;
    if let Some(ctx) = ctx {
        let turn = Instant::now();
        let drained = decoded.duration_since(drain_start);
        trl_obs::record_span_under(ctx, "reactor.drain", drain_start, drained);
        let waited = turn.duration_since(decoded);
        trl_obs::record_span_under(ctx, "engine.queue_wait", decoded, waited);
    }
    let answered =
        trl_obs::with_current_trace(ctx, || shared.engine.run_artifact_batch(&artifact, queries));
    shared.release_admitted(n);
    let outcomes = match answered {
        Ok(outcomes) => outcomes,
        // Unreachable in practice (every frame was validated when staged),
        // but a typed rejection keeps every staged frame answered.
        Err(e) => return reply_all(conn, shared, &reply, Err(engine_error_to_wire(e))),
    };
    let handle_time = decoded.elapsed();
    trl_obs::record_span("server.handle", handle_time);
    let mut answers = outcomes.into_iter().map(|o| o.answer);
    let write_start = Instant::now();
    // A traced response cannot contain the cost of its own final encode,
    // so the first encode carries no spans — what an untraced request
    // would write — and is timed as the `server.write` span.
    let mut responses: Vec<Response> = reply
        .frames
        .iter()
        .map(|&(id, len)| {
            let result = Ok(answers.by_ref().take(len).collect());
            query_response(id, result, reply.trace.map(|_| Vec::new()))
        })
        .collect();
    let mut frames: Vec<Vec<u8>> = responses.iter().map(encode_response).collect();
    if let Some(ctx) = ctx {
        trl_obs::record_span_under(ctx, "server.write", write_start, write_start.elapsed());
        let parent = reply.trace.map_or(0, |client| client.span_id);
        let request_time = drain_start.elapsed();
        trl_obs::record_root_span(ctx, parent, "server.request", drain_start, request_time);
    }
    let slow = shared.config.slow_query.is_some_and(|t| handle_time > t);
    let spans = match ctx {
        Some(ctx) if slow || reply.trace.is_some() => trl_obs::collect_trace(ctx.trace_id),
        _ => Vec::new(),
    };
    if slow {
        let kind = if reply.trace.is_some() {
            "trace"
        } else {
            "pipeline"
        };
        log_slow_query(kind, handle_time, &spans);
    }
    if let [Response::Traced { spans: tree, .. }] = &mut responses[..] {
        *tree = spans;
        frames = vec![encode_response(&responses[0])];
    }
    for bytes in frames {
        trl_obs::histogram!("server.service_us").record(handle_time);
        trl_obs::histogram!("server.request_us").record(handle_time);
        deliver(conn, shared, None, bytes);
    }
}

/// Runs an artifact build (compile, learn, space, classifier, optimize)
/// as a task on the engine's worker pool: a build can take arbitrarily
/// long and must not stall the reactor's event loop. `build` runs on the
/// worker and returns the ordered response, which travels back through
/// the reactor's inbox.
fn start_build<F>(
    conn: &mut Conn,
    kind: &'static str,
    shared: &Arc<Shared>,
    rshared: &Arc<ReactorShared>,
    build: F,
) where
    F: FnOnce(&Engine) -> Response + Send + 'static,
{
    let seq = conn.take_seq();
    if let Err(e) = shared.try_admit(1) {
        deliver(
            conn,
            shared,
            Some(seq),
            encode_response(&Response::Error(e)),
        );
        return;
    }
    conn.in_flight += 1;
    let token = conn.token;
    let task_shared = Arc::clone(shared);
    let task_rshared = Arc::clone(rshared);
    let slow_query = shared.config.slow_query;
    let ctx = trl_obs::maybe_sample();
    shared.engine.executor().execute(move || {
        let started = Instant::now();
        // Installing the sampled context means registry hit/compile and
        // minimize-pass spans inside `build` land in the tree.
        let resp = trl_obs::with_current_trace(ctx, || build(&task_shared.engine));
        task_shared.release_admitted(1);
        let handle_time = started.elapsed();
        trl_obs::record_span("server.handle", handle_time);
        trl_obs::histogram!("server.service_us").record(handle_time);
        trl_obs::histogram!("server.request_us").record(handle_time);
        if let Some(ctx) = ctx {
            trl_obs::record_root_span(ctx, 0, "server.request", started, handle_time);
        }
        if slow_query.is_some_and(|t| handle_time > t) {
            let spans = ctx.map_or_else(Vec::new, |c| trl_obs::collect_trace(c.trace_id));
            log_slow_query(kind, handle_time, &spans);
        }
        task_rshared.push_completion(Completion {
            token,
            seq,
            bytes: encode_response(&resp),
        });
    });
}

/// One JSON line on stderr describing a request that blew the
/// [`ServerConfig::slow_query`] threshold. A sampled request logs its
/// full collected span tree under `"spans"`; an unsampled one logs a
/// synthesized root-only tree so the line's shape is uniform either way.
fn log_slow_query(kind: &'static str, total: Duration, spans: &[TraceSpanData]) {
    let spans_json = if spans.is_empty() {
        trl_obs::tree_json(&[TraceSpanData {
            span_id: 0,
            parent_id: 0,
            name: "server.request".into(),
            start_us: 0,
            dur_us: total.as_micros() as u64,
        }])
    } else {
        trl_obs::tree_json(spans)
    };
    // A failed stderr write has no recovery path worth taking.
    let _ = writeln!(
        io::stderr().lock(),
        "{{\"slow_query\":\"{kind}\",\"total_us\":{},\"spans\":{spans_json}}}",
        total.as_micros(),
    );
}

/// Writes staged response bytes until the socket stops accepting them
/// (edge-triggered discipline).
fn flush(conn: &mut Conn) {
    if conn.broken {
        return;
    }
    let mut total = 0u64;
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => {
                conn.broken = true;
                break;
            }
            Ok(n) => {
                conn.outpos += n;
                total += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                break;
            }
        }
    }
    if total > 0 {
        trl_obs::counter!("server.bytes_written").add(total);
    }
    if conn.outpos == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
        conn.blocked_since = None;
    } else {
        if conn.outpos > OUTBUF_COMPACT {
            conn.outbuf.drain(..conn.outpos);
            conn.outpos = 0;
        }
        if conn.blocked_since.is_none() {
            conn.blocked_since = Some(Instant::now());
        }
    }
}
