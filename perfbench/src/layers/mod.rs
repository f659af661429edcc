//! One thin adapter per program layer. Every call the benchmark makes into
//! the program goes through exactly one of these files, so a change to a
//! layer's public interface needs a one-file benchmark update.

pub mod bayesnet;
pub mod compiler;
pub mod engine;
pub mod nnf;
pub mod server;
