//! `trl-bayesnet`: the synthetic networks, their WMC encoding, and the
//! variable-elimination routines used as answer oracles.

use trl_bayesnet::{BayesNet, BnEncoding, EncodingStyle, Factor};
use trl_core::Assignment;
use trl_nnf::LitWeights;

pub use trl_bayesnet::models::random_network;

/// Evidence: `(variable, value)` pairs.
pub type Evidence = Vec<(usize, usize)>;

/// The local-structure WMC encoding of a network (zero/one parameters
/// folded, equal parameters shared).
pub fn encode(bn: &BayesNet) -> BnEncoding {
    BnEncoding::new(bn, EncodingStyle::LocalStructure)
}

/// Literal weights with the evidence applied, so WMC = Pr(e).
pub fn evidence_weights(enc: &BnEncoding, evidence: &Evidence) -> LitWeights {
    enc.weights_with_evidence(evidence)
}

/// The CNF variable of the indicator `var = value`.
pub fn indicator(enc: &BnEncoding, var: usize, value: usize) -> usize {
    enc.indicator(var, value).var().index()
}

/// The network instantiation a model of the encoding stands for.
pub fn decode(enc: &BnEncoding, model: &Assignment) -> Vec<usize> {
    enc.decode(model)
}

/// Pr(e) by variable elimination.
pub fn ve_pr_evidence(bn: &BayesNet, evidence: &Evidence) -> f64 {
    bn.pr_evidence(evidence)
}

/// Pr(var | e) by variable elimination.
pub fn ve_posterior(bn: &BayesNet, var: usize, evidence: &Evidence) -> Vec<f64> {
    bn.posterior(var, evidence)
}

/// The joint probability of a complete instantiation.
pub fn joint(bn: &BayesNet, instantiation: &[usize]) -> f64 {
    bn.joint(instantiation)
}

/// max over instantiations consistent with `evidence` of the joint
/// probability, by max-product elimination in min-degree order.
///
/// `BayesNet::mpe` eliminates in index order, which on these networks
/// builds factors over most of the network (a 60-variable network took
/// 46 s per query and an 80-variable one failed a 16 GiB allocation), so
/// the MPE oracle is this elimination plus a check that the returned
/// instantiation has exactly the returned probability.
pub fn mpe_value_min_degree(bn: &BayesNet, evidence: &Evidence) -> f64 {
    let mut factors: Vec<Factor> = (0..bn.num_vars())
        .map(|v| cpt_factor(bn, v, evidence))
        .collect();
    let mut remaining: Vec<usize> = (0..bn.num_vars())
        .filter(|v| !evidence.iter().any(|&(u, _)| u == *v))
        .collect();
    while !remaining.is_empty() {
        let (pos, &var) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| {
                let mut scope: Vec<usize> = factors
                    .iter()
                    .filter(|f| f.vars().contains(&v))
                    .flat_map(|f| f.vars().iter().copied())
                    .collect();
                scope.sort_unstable();
                scope.dedup();
                scope.len()
            })
            .expect("non-empty");
        remaining.swap_remove(pos);
        let (involved, rest): (Vec<Factor>, Vec<Factor>) =
            factors.into_iter().partition(|f| f.vars().contains(&var));
        factors = rest;
        if involved.is_empty() {
            continue;
        }
        let product = involved
            .iter()
            .fold(Factor::scalar(1.0), |acc, f| acc.multiply(f));
        factors.push(product.max_out(var));
    }
    factors.iter().map(|f| f.value()).product()
}

/// The CPT of `var` as a factor over its family, restricted by `evidence`.
fn cpt_factor(bn: &BayesNet, var: usize, evidence: &Evidence) -> Factor {
    let mut family: Vec<usize> = bn.parents(var).to_vec();
    family.push(var);
    family.sort_unstable();
    let cards: Vec<usize> = family.iter().map(|&v| bn.cardinality(v)).collect();
    let total: usize = cards.iter().product();
    let mut data = Vec::with_capacity(total);
    let mut values = vec![0usize; family.len()];
    for _ in 0..total {
        let value_of = |v: usize| values[family.iter().position(|&u| u == v).expect("in family")];
        let parents: Vec<usize> = bn.parents(var).iter().map(|&p| value_of(p)).collect();
        data.push(bn.cpt_entry(var, value_of(var), &parents));
        for k in (0..family.len()).rev() {
            values[k] += 1;
            if values[k] < cards[k] {
                break;
            }
            values[k] = 0;
        }
    }
    let mut f = Factor::new(family, cards, data);
    for &(v, val) in evidence {
        if f.vars().contains(&v) {
            f = f.restrict(v, val);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_degree_mpe_matches_brute_force() {
        let bn = random_network(5, 8, 3, 0.3);
        let evidence = vec![(2, 1), (6, 0)];
        let brute = bn
            .instantiations()
            .filter(|i| evidence.iter().all(|&(v, x)| i[v] == x))
            .map(|i| bn.joint(&i))
            .fold(0.0f64, f64::max);
        let got = mpe_value_min_degree(&bn, &evidence);
        assert!((got - brute).abs() <= 1e-12 * brute);
    }
}
