//! Circuit-based inference: compile the network's CNF encoding once, then
//! answer MPE/MAR/MAP/SDP queries on the circuit — the reduction route the
//! paper advocates (§2, §3).

use crate::encode::{BnEncoding, EncodingStyle};
use crate::net::BayesNet;
use crate::ve::Evidence;
use std::cell::RefCell;
use trl_compiler::{compile_sdd_constrained, DecisionDnnfCompiler};
use trl_core::{Error, FxHashMap, Result, Var};
use trl_nnf::Circuit;
use trl_sdd::{SddManager, SddRef};

/// A Bayesian network compiled into a Decision-DNNF over its WMC encoding —
/// an arithmetic-circuit-style representation supporting linear-time
/// evidence, marginal, and MPE queries (the AC evaluation of \[25\]).
pub struct CompiledBn {
    bn: BayesNet,
    enc: BnEncoding,
    circuit: Circuit,
}

impl CompiledBn {
    /// Compiles the network with the given encoding style.
    pub fn new(bn: BayesNet, style: EncodingStyle) -> Self {
        let enc = BnEncoding::new(&bn, style);
        let circuit = DecisionDnnfCompiler::default().compile(&enc.cnf);
        CompiledBn { bn, enc, circuit }
    }

    /// The underlying network.
    pub fn network(&self) -> &BayesNet {
        &self.bn
    }

    /// The encoding (for weight manipulation).
    pub fn encoding(&self) -> &BnEncoding {
        &self.enc
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// `Pr(evidence)`: one weighted model count on the circuit.
    pub fn pr_evidence(&self, evidence: &Evidence) -> f64 {
        let w = self.enc.weights_with_evidence(evidence);
        self.circuit.wmc(&w)
    }

    /// All posterior marginals `Pr(var = value | evidence)` in a single
    /// upward + downward pass (the "all marginals in linear time" result
    /// the paper footnotes in §3).
    ///
    /// Evidence of probability zero — say, contradicting a deterministic
    /// CPT entry — is an [`Error::Invalid`]: no posterior exists. The pass
    /// runs in `f64`, so evidence whose probability underflows `f64` (a few
    /// hundred CPT factors on long chains) is reported the same way, as
    /// zero-probability evidence; this does not compute such posteriors.
    pub fn posteriors(&self, evidence: &Evidence) -> Result<Vec<Vec<f64>>> {
        let w = self.enc.weights_with_evidence(evidence);
        let (total, marginals) = self.circuit.wmc_marginals(&w);
        if total <= 0.0 {
            return Err(zero_probability(evidence));
        }
        Ok(self
            .enc
            .indicators
            .iter()
            .map(|ind| ind.iter().map(|v| marginals[v.index()].0 / total).collect())
            .collect())
    }

    /// The posterior of one variable; errors as [`CompiledBn::posteriors`].
    pub fn posterior(&self, var: usize, evidence: &Evidence) -> Result<Vec<f64>> {
        Ok(self.posteriors(evidence)?.swap_remove(var))
    }

    /// MPE by a max-product circuit pass: the most probable complete
    /// instantiation consistent with the evidence and its joint probability.
    ///
    /// Zero-probability evidence — including, as for
    /// [`CompiledBn::posteriors`], evidence whose most probable
    /// instantiation underflows `f64` to zero — is an [`Error::Invalid`].
    pub fn mpe(&self, evidence: &Evidence) -> Result<(Vec<usize>, f64)> {
        let w = self.enc.weights_with_evidence(evidence);
        match self.circuit.max_weight(&w) {
            Some((value, model)) if value > 0.0 => Ok((self.enc.decode(&model), value)),
            _ => Err(zero_probability(evidence)),
        }
    }
}

fn zero_probability(evidence: &Evidence) -> Error {
    Error::Invalid(format!("evidence {evidence:?} has zero probability"))
}

/// MAP by the constrained-vtree SDD route (NP^PP, \[61\]): compiles the
/// encoding with the MAP variables' indicators as the outer block and
/// maximizes over them with weighted counts below. Returns
/// `max_y Pr(y, evidence)`.
pub fn map_value_sdd(bn: &BayesNet, map_vars: &[usize], evidence: &Evidence) -> f64 {
    let enc = BnEncoding::new(bn, EncodingStyle::LocalStructure);
    let top: Vec<Var> = map_vars
        .iter()
        .flat_map(|&v| enc.indicators[v].iter().copied())
        .collect();
    let (m, f, u) = compile_sdd_constrained(&enc.cnf, &top);
    let w = enc.weights_with_evidence(evidence);
    m.spine_max_wmc(f, u, &w)
}

/// Same-decision probability by the constrained-vtree SDD route (PP^PP,
/// \[18, 61\]): the probability that the current threshold decision on
/// `Pr(d = d_val | evidence)` would stick after observing `observables`.
pub fn sdp_sdd(
    bn: &BayesNet,
    d: usize,
    d_val: usize,
    threshold: f64,
    observables: &[usize],
    evidence: &Evidence,
) -> f64 {
    let enc = BnEncoding::new(bn, EncodingStyle::LocalStructure);
    let top: Vec<Var> = observables
        .iter()
        .flat_map(|&v| enc.indicators[v].iter().copied())
        .collect();
    let (m, f, u) = compile_sdd_constrained(&enc.cnf, &top);
    let w = enc.weights_with_evidence(evidence);

    // Numerator weights additionally assert d = d_val.
    let mut w_d = w.clone();
    for (x, &ind) in enc.indicators[d].iter().enumerate() {
        if x != d_val {
            w_d.set(ind.positive(), 0.0);
        }
    }

    let current = {
        let den = m.wmc(f, &w);
        assert!(den > 0.0, "evidence has zero probability");
        m.wmc(f, &w_d) / den >= threshold
    };

    // For each observation class (residual circuit s at node u):
    //   Pr(y, e)        = wmc_z(s) under w
    //   Pr(y, e, d=val) = wmc_z(s) under w_d
    // and the class contributes Pr(y, e) when its decision matches.
    let memo_den = RefCell::new(FxHashMap::default());
    let memo_num = RefCell::new(FxHashMap::default());
    let g = move |m: &SddManager, s: SddRef| {
        let den = m.wmc_in(s, u, &w, &mut memo_den.borrow_mut());
        if den <= 0.0 {
            return 0.0;
        }
        let num = m.wmc_in(s, u, &w_d, &mut memo_num.borrow_mut());
        let decision = num / den >= threshold;
        if decision == current {
            den
        } else {
            0.0
        }
    };
    // Spine weights are unit over indicator variables (their weight is 1),
    // so the expectation sums Pr(y, e) over matching classes.
    let unit = trl_nnf::LitWeights::unit(enc.cnf.num_vars());
    let total = m.spine_expectation(f, u, &unit, &g);
    total / bn.pr_evidence(evidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn pr_evidence_matches_ve() {
        let bn = models::medical();
        let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
        for ev in [
            vec![],
            vec![(2, 1)],
            vec![(2, 1), (3, 0)],
            vec![(4, 1), (0, 0)],
        ] {
            assert!(
                close(compiled.pr_evidence(&ev), bn.pr_evidence(&ev)),
                "evidence {ev:?}"
            );
        }
    }

    #[test]
    fn posteriors_match_ve() {
        let bn = models::medical();
        let compiled = CompiledBn::new(bn.clone(), EncodingStyle::Baseline);
        let ev = vec![(2, 1), (3, 1)]; // both tests positive
        let circuit_post = compiled.posteriors(&ev).unwrap();
        #[allow(clippy::needless_range_loop)] // v indexes parallel per-variable tables
        for v in 0..bn.num_vars() {
            let ve_post = bn.posterior(v, &ev);
            for x in 0..bn.cardinality(v) {
                assert!(
                    close(circuit_post[v][x], ve_post[x]),
                    "var {v} value {x}: circuit {} vs VE {}",
                    circuit_post[v][x],
                    ve_post[x]
                );
            }
        }
    }

    #[test]
    fn mpe_matches_ve() {
        let bn = models::medical();
        let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
        for ev in [vec![], vec![(2, 1)], vec![(0, 0), (3, 1)]] {
            let (inst_c, val_c) = compiled.mpe(&ev).unwrap();
            let (_, val_ve) = bn.mpe(&ev);
            assert!(close(val_c, val_ve), "evidence {ev:?}");
            assert!(close(bn.joint(&inst_c), val_c));
            for &(v, x) in &ev {
                assert_eq!(inst_c[v], x);
            }
        }
    }

    #[test]
    fn contradicted_deterministic_evidence_is_a_typed_error() {
        use models::medical_vars::*;
        // AGREE is deterministic: both tests positive forces AGREE = 1.
        let ev = vec![(T1, 1), (T2, 1), (AGREE, 0)];
        for style in [EncodingStyle::Baseline, EncodingStyle::LocalStructure] {
            let compiled = CompiledBn::new(models::medical(), style);
            assert_eq!(compiled.pr_evidence(&ev), 0.0, "{style:?}");
            for err in [
                compiled.posteriors(&ev).unwrap_err(),
                compiled.posterior(C, &ev).unwrap_err(),
                compiled.mpe(&ev).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, Error::Invalid(m) if m.contains("zero probability")),
                    "{style:?}: {err}"
                );
            }
            // Consistent evidence still answers.
            assert!(compiled.posteriors(&vec![(T1, 1), (AGREE, 1)]).is_ok());
        }
    }

    #[test]
    fn map_sdd_matches_ve() {
        let bn = models::medical();
        for (map_vars, ev) in [
            (vec![0usize, 1], vec![]),
            (vec![1], vec![(2usize, 1usize)]),
            (vec![0, 1], vec![(2, 1), (3, 0)]),
        ] {
            let (_, ve_val) = bn.map(&map_vars, &ev);
            let sdd_val = map_value_sdd(&bn, &map_vars, &ev);
            assert!(
                close(sdd_val, ve_val),
                "map {map_vars:?} ev {ev:?}: sdd {sdd_val} vs ve {ve_val}"
            );
        }
    }

    #[test]
    fn sdp_sdd_matches_enumeration() {
        let bn = models::medical();
        use models::medical_vars::*;
        // The Fig. 2 scenario: operate if Pr(c | tests) ≥ 0.9; what is the
        // probability the current (negative) decision sticks after T1, T2?
        for threshold in [0.9, 0.3, 0.05] {
            let ve = bn.sdp(C, 1, threshold, &[T1, T2], &vec![]);
            let circuit = sdp_sdd(&bn, C, 1, threshold, &[T1, T2], &vec![]);
            assert!(
                close(ve, circuit),
                "threshold {threshold}: ve {ve} vs circuit {circuit}"
            );
        }
        // With evidence.
        let ve = bn.sdp(C, 1, 0.5, &[T1], &vec![(AGREE, 1)]);
        let circuit = sdp_sdd(&bn, C, 1, 0.5, &[T1], &vec![(AGREE, 1)]);
        assert!(close(ve, circuit));
    }

    #[test]
    fn abc_posteriors_both_styles() {
        let bn = models::abc();
        for style in [EncodingStyle::Baseline, EncodingStyle::LocalStructure] {
            let compiled = CompiledBn::new(bn.clone(), style);
            let post = compiled.posterior(0, &vec![(1, 1)]).unwrap();
            let ve = bn.posterior(0, &vec![(1, 1)]);
            assert!(close(post[0], ve[0]) && close(post[1], ve[1]), "{style:?}");
        }
    }
}
