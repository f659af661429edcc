//! Shared infrastructure for the experiment binaries (`exp01`–`exp19`).
//!
//! Each binary regenerates one figure-level artifact of the paper; the
//! mapping is the per-experiment index in DESIGN.md, and the measured
//! numbers are recorded against the paper's in EXPERIMENTS.md. Run one with
//! `cargo run --release -p trl-bench --bin exp04_ddnnf_count`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Set by the first failed [`check`]; read by [`exit_code`].
static FAILED: AtomicBool = AtomicBool::new(false);

/// Prints an experiment banner.
pub fn banner(id: &str, figure: &str, claim: &str) {
    println!("================================================================");
    println!("{id} — reproduces {figure}");
    println!("claim: {claim}");
    println!("================================================================");
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints one row of a two-column result table.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("{label:<46} {value}");
}

/// Checks a reproduction criterion and prints PASS/FAIL; returns success.
/// A failure is also recorded for [`exit_code`].
pub fn check(label: &str, ok: bool) -> bool {
    println!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        FAILED.store(true, Ordering::Relaxed);
    }
    ok
}

/// The experiment's exit status: failure if any [`check`] failed.
pub fn exit_code() -> ExitCode {
    if FAILED.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A deterministic xorshift64 stream for workload generation.
pub struct Rng(u64);

impl Rng {
    /// Creates a stream from a nonzero seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Generates a random 3-CNF with `n` variables and `m` clauses.
pub fn random_3cnf(rng: &mut Rng, n: usize, m: usize) -> trl_prop::Cnf {
    use trl_core::{Lit, Var};
    let mut cnf = trl_prop::Cnf::new(n);
    for _ in 0..m {
        let mut lits: Vec<Lit> = Vec::with_capacity(3);
        while lits.len() < 3 {
            let v = Var(rng.below(n) as u32);
            if lits.iter().all(|l| l.var() != v) {
                lits.push(v.literal(rng.next_u64() & 1 == 0));
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

/// Generates a conjunction of `copies` independent random 3-CNF blocks
/// over disjoint variable ranges — the large tier of the kernel timing
/// floors (`tests/kernel_timing_floors.rs` at the repository root): the
/// compiler's component decomposition compiles each block separately,
/// so tape size scales linearly with `copies` while per-block structure
/// stays realistic. Every block carries a planted satisfying assignment
/// (a clause violating it gets one literal flipped to agree), so no block
/// is ever UNSAT — one false block would collapse the whole circuit to
/// `⊥` and the tape to a single node.
pub fn chained_3cnf(rng: &mut Rng, copies: usize, n: usize, m: usize) -> trl_prop::Cnf {
    use trl_core::{Lit, Var};
    let mut cnf = trl_prop::Cnf::new(copies * n);
    for c in 0..copies {
        let base = (c * n) as u32;
        let planted: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 0).collect();
        for _ in 0..m {
            let mut lits: Vec<Lit> = Vec::with_capacity(3);
            while lits.len() < 3 {
                let v = rng.below(n);
                if lits.iter().all(|l| l.var() != Var(base + v as u32)) {
                    lits.push(Var(base + v as u32).literal(rng.next_u64() & 1 == 0));
                }
            }
            if !lits
                .iter()
                .any(|l| l.is_positive() == planted[l.var().index() - base as usize])
            {
                let flip = rng.below(3);
                let v = lits[flip].var();
                lits[flip] = v.literal(planted[v.index() - base as usize]);
            }
            cnf.add_clause(lits);
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_cnf_shape() {
        let mut rng = Rng::new(1);
        let cnf = random_3cnf(&mut rng, 10, 20);
        assert_eq!(cnf.num_vars(), 10);
        assert_eq!(cnf.clauses().len(), 20);
        assert!(cnf.clauses().iter().all(|c| c.len() == 3));
    }

    #[test]
    fn chained_cnf_blocks_are_disjoint_and_satisfiable() {
        let mut rng = Rng::new(5);
        let cnf = chained_3cnf(&mut rng, 4, 6, 10);
        assert_eq!(cnf.num_vars(), 24);
        assert_eq!(cnf.clauses().len(), 40);
        for (i, clause) in cnf.clauses().iter().enumerate() {
            let block = i / 10;
            assert_eq!(clause.len(), 3);
            assert!(clause
                .literals()
                .iter()
                .all(|l| l.var().index() / 6 == block));
        }
        // Every block planted a solution, so the conjunction is SAT.
        let c = trl_compiler::DecisionDnnfCompiler::default().compile(&cnf);
        assert!(c.model_count() > 0);
    }

    #[test]
    fn timed_returns_result() {
        let (x, secs) = timed(|| 21 * 2);
        assert_eq!(x, 42);
        assert!(secs >= 0.0);
    }
}
