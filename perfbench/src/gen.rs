//! Seeded input generation: the benchmark's own random stream, Zipf
//! popularity, random 3-CNF formulas, forward-sampled Bayesian-network
//! evidence, and the digest that pins a request stream to its seed.
//!
//! Only the program's input types (CNF, network, literal) are used here,
//! so a change to the program's algorithms never changes the inputs a
//! seed produces.

use trl_bayesnet::BayesNet;
use trl_core::{Lit, Var};
use trl_prop::Cnf;

/// SplitMix64: a small, well-mixed stream; every workload input derives
/// from one of these seeded by `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream derived from this one's seed and `salt`, so
    /// separate inputs (evidence pools, request order) do not shift when
    /// another one draws more values.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Zipf(s) popularity over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A uniform random 3-CNF over `n` variables with `m` clauses (three
/// distinct variables per clause, random signs).
pub fn random_3cnf(rng: &mut Rng, n: usize, m: usize) -> Cnf {
    let mut cnf = Cnf::new(n);
    for _ in 0..m {
        let mut lits: Vec<Lit> = Vec::with_capacity(3);
        while lits.len() < 3 {
            let v = Var(rng.below(n) as u32);
            if lits.iter().all(|l| l.var() != v) {
                lits.push(v.literal(rng.coin()));
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

/// One complete instantiation of a binary network drawn by ancestral
/// sampling (variables are indexed in topological order).
pub fn forward_sample(bn: &BayesNet, rng: &mut Rng) -> Vec<usize> {
    let mut values = vec![0usize; bn.num_vars()];
    for v in 0..bn.num_vars() {
        let parents: Vec<usize> = bn.parents(v).iter().map(|&p| values[p]).collect();
        let p_true = bn.cpt_entry(v, 1, &parents);
        values[v] = usize::from(rng.uniform() < p_true);
    }
    values
}

/// Evidence on `k` distinct variables of a forward sample: it has positive
/// probability by construction, so Pr(e) > 0 needs no filtering.
pub fn sampled_evidence(bn: &BayesNet, rng: &mut Rng, k: usize) -> Vec<(usize, usize)> {
    let sample = forward_sample(bn, rng);
    let mut vars: Vec<usize> = Vec::with_capacity(k);
    while vars.len() < k.min(bn.num_vars()) {
        let v = rng.below(bn.num_vars());
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.sort_unstable();
    vars.into_iter().map(|v| (v, sample[v])).collect()
}

/// FNV-1a over the words a request stream is made of.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_covers_all() {
        let z = Zipf::new(4, 1.0);
        let mut rng = Rng::new(3);
        let mut hits = [0usize; 4];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[2] && hits[2] > hits[3]);
        assert!(hits[3] > 0);
    }

    #[test]
    fn derived_streams_differ_by_salt() {
        let a = Rng::derive(7, 1).next_u64();
        let b = Rng::derive(7, 2).next_u64();
        assert_ne!(a, b);
    }
}
