//! `trl-server`: the reactor server bound in process, one pipelining
//! client connection, and the wire codec replayed on memory buffers.

use std::sync::Arc;
use std::time::Instant;

use trl_core::Assignment;
use trl_engine::{Engine, Query, QueryAnswer};
use trl_prop::Cnf;
use trl_server::{
    read_request, read_response, write_request, write_response, Client, Request, Response, Server,
    ServerConfig, ServerHandle, DEFAULT_MAX_FRAME_LEN,
};

/// Binds a server for `engine` on an ephemeral loopback port.
pub fn bind(engine: Arc<Engine>, reactors: usize) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        reactors,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, config).map_err(|e| format!("bind: {e}"))
}

/// Requests the server refused as overloaded so far.
pub fn overloaded(handle: &ServerHandle) -> u64 {
    handle.counters().overloaded
}

/// Drains in-flight work and joins every server thread.
pub fn shutdown(handle: ServerHandle) {
    handle.shutdown();
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    /// Connects to the server behind `handle`.
    pub fn connect(handle: &ServerHandle) -> Result<Conn, String> {
        Client::connect(handle.addr())
            .map(Conn)
            .map_err(|e| format!("connect: {e}"))
    }

    /// Compiles `cnf` over the wire; returns the registry key.
    pub fn compile(&mut self, cnf: &Cnf) -> Result<u64, String> {
        self.0
            .compile(cnf)
            .map(|s| s.key)
            .map_err(|e| e.to_string())
    }

    /// Learns a PSDD over the wire; returns the registry key.
    pub fn learn_psdd(
        &mut self,
        cnf: &Cnf,
        data: &[(Assignment, f64)],
        alpha: f64,
    ) -> Result<u64, String> {
        self.0
            .learn_psdd(cnf, data, alpha)
            .map(|s| s.key)
            .map_err(|e| e.to_string())
    }

    /// Compiles a path space over the wire; returns the registry key.
    pub fn compile_space(
        &mut self,
        num_nodes: u32,
        edges: &[(u32, u32)],
        s: u32,
        t: u32,
    ) -> Result<u64, String> {
        self.0
            .compile_space(num_nodes, edges, s, t)
            .map(|s| s.key)
            .map_err(|e| e.to_string())
    }

    /// Compiles a classifier over the wire; returns the registry key.
    pub fn compile_classifier(&mut self, cnf: &Cnf) -> Result<u64, String> {
        self.0
            .compile_classifier(cnf)
            .map(|s| s.key)
            .map_err(|e| e.to_string())
    }

    /// Sends one pipelined batch frame without waiting.
    pub fn send(&mut self, id: u64, key: u64, queries: Vec<Query>) -> Result<(), String> {
        self.0
            .pipeline_send(id, key, queries)
            .map_err(|e| e.to_string())
    }

    /// Receives whichever in-flight frame completes next. The outer error
    /// is a broken connection; the inner one a typed per-frame failure
    /// (overload, unknown key, invalid query).
    pub fn recv(&mut self) -> Result<(u64, Result<Vec<QueryAnswer>, String>), String> {
        self.0
            .pipeline_recv()
            .map(|(id, r)| (id, r.map_err(|e| e.to_string())))
            .map_err(|e| e.to_string())
    }
}

/// What one request/response pair costs the codec, measured on memory
/// buffers.
#[derive(Clone, Copy, Debug)]
pub struct CodecCost {
    /// Encoding the request and the response, µs.
    pub encode_us: f64,
    /// Decoding both back, µs.
    pub decode_us: f64,
    /// Bytes of both frames.
    pub bytes: usize,
}

/// Encodes and decodes the pipelined frame pair that carries `queries`
/// and `answers`; fails if a frame does not decode to what was encoded.
pub fn codec_replay(
    id: u64,
    key: u64,
    queries: &[Query],
    answers: &[QueryAnswer],
) -> Result<CodecCost, String> {
    let request = Request::PipelinedBatch {
        id,
        key,
        queries: queries.to_vec(),
    };
    let response = Response::PipelinedBatch {
        id,
        result: Ok(answers.to_vec()),
    };
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    let t = Instant::now();
    write_request(&mut req_buf, &request).map_err(|e| e.to_string())?;
    write_response(&mut resp_buf, &response).map_err(|e| e.to_string())?;
    let encode_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let req_back =
        read_request(&mut req_buf.as_slice(), DEFAULT_MAX_FRAME_LEN).map_err(|e| e.to_string())?;
    let resp_back = read_response(&mut resp_buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
        .map_err(|e| e.to_string())?;
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    if req_back != request || resp_back != response {
        return Err("codec round trip changed a frame".to_string());
    }
    Ok(CodecCost {
        encode_us,
        decode_us,
        bytes: req_buf.len() + resp_buf.len(),
    })
}
