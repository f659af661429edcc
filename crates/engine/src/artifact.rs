//! Typed serving artifacts: one registry, all three roles.
//!
//! The registry historically held only CNF-compiled circuits (role 1). The
//! roles subsystem generalizes the entry to an [`Artifact`]: a compiled
//! circuit, a learned PSDD ([`trl_psdd::PreparedPsdd`], role 2), a compiled
//! structured space ([`trl_spaces::PreparedSpace`], role 2), or a compiled
//! classifier ([`trl_xai::PreparedClassifier`], role 3). Every variant is
//! an `Arc` around an immutable prepared form, so the executor's worker
//! pool answers queries against any of them without locks; the registry
//! evicts every kind by retained nodes under one S3-FIFO policy.
//!
//! Keys stay 64-bit fingerprints, but each artifact kind salts its hash
//! ([`psdd_fingerprint`], [`space_fingerprint`], [`classifier_fingerprint`])
//! so a CNF compiled as a circuit and the same CNF compiled as a classifier
//! are distinct registry entries — a key uniquely determines both content
//! *and* kind, and a query addressed to the wrong kind is a typed
//! [`EngineError::Structure`] rejection, never a misinterpretation.

use std::hash::Hasher;
use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::executor::{Query, QueryAnswer};
use crate::prepared::PreparedCircuit;
use crate::registry::fingerprint;
use trl_core::FxHasher;
use trl_prop::Cnf;
use trl_psdd::learn::Dataset;
use trl_psdd::PreparedPsdd;
use trl_spaces::PreparedSpace;
use trl_xai::PreparedClassifier;

/// What kind of prepared form an [`Artifact`] wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A d-DNNF circuit compiled from CNF (role 1: computation).
    Circuit,
    /// A PSDD learned from knowledge + complete data (role 2: learning).
    Psdd,
    /// A compiled structured space of simple paths (role 2: spaces).
    Space,
    /// A compiled classifier with precomputed negation (role 3: meta).
    Classifier,
}

impl ArtifactKind {
    /// Stable lowercase name for stats rows and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Circuit => "circuit",
            ArtifactKind::Psdd => "psdd",
            ArtifactKind::Space => "space",
            ArtifactKind::Classifier => "classifier",
        }
    }
}

/// One registry entry: an immutable, `Arc`-shareable prepared form.
#[derive(Clone)]
pub enum Artifact {
    /// A prepared d-DNNF circuit.
    Circuit(Arc<PreparedCircuit>),
    /// A learned PSDD.
    Psdd(Arc<PreparedPsdd>),
    /// A compiled space of simple `s`–`t` paths.
    Space(Arc<PreparedSpace>),
    /// A compiled classifier.
    Classifier(Arc<PreparedClassifier>),
}

impl Artifact {
    /// The artifact's kind tag.
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Circuit(_) => ArtifactKind::Circuit,
            Artifact::Psdd(_) => ArtifactKind::Psdd,
            Artifact::Space(_) => ArtifactKind::Space,
            Artifact::Classifier(_) => ArtifactKind::Classifier,
        }
    }

    /// The size of this artifact's variable universe (edge variables for a
    /// space; input features for a classifier).
    pub fn num_vars(&self) -> usize {
        match self {
            Artifact::Circuit(c) => c.num_vars(),
            Artifact::Psdd(p) => p.num_vars(),
            Artifact::Space(s) => s.num_edge_vars(),
            Artifact::Classifier(c) => c.num_vars(),
        }
    }

    /// Nodes charged against the registry's retained-node budget.
    pub fn retained_nodes(&self) -> usize {
        match self {
            Artifact::Circuit(c) => c.retained_nodes(),
            Artifact::Psdd(p) => p.node_count(),
            Artifact::Space(s) => s.node_count(),
            Artifact::Classifier(c) => c.node_count(),
        }
    }

    /// The prepared circuit, when this is a role-1 artifact.
    pub fn as_circuit(&self) -> Option<&Arc<PreparedCircuit>> {
        match self {
            Artifact::Circuit(c) => Some(c),
            _ => None,
        }
    }

    /// Checks that `q` is addressed to this artifact's kind and is
    /// well-formed for its universe.
    pub fn validate(&self, q: &Query) -> Result<()> {
        let want = q.artifact_kind();
        if want != self.kind() {
            return Err(EngineError::Structure(format!(
                "query kind {} runs against a {} artifact, not a {}",
                q.kind(),
                want.name(),
                self.kind().name()
            )));
        }
        q.validate(self.num_vars())
    }

    /// Answers one validated query. Circuit queries go through
    /// [`PreparedCircuit::answer`]; role-2/3 queries dispatch to the
    /// prepared form's `&self` entry points.
    ///
    /// # Panics
    ///
    /// May panic on queries that were not [`Artifact::validate`]d against
    /// this artifact first (kind mismatch or undersized operands).
    pub fn answer(&self, q: &Query) -> QueryAnswer {
        match (self, q) {
            (Artifact::Circuit(c), _) => c.answer(q),
            (Artifact::Psdd(p), Query::PsddLogLikelihood(data)) => {
                QueryAnswer::LogLikelihood(p.log_likelihood(data))
            }
            (Artifact::Psdd(p), Query::PsddMarginal(e)) => QueryAnswer::Probability(p.marginal(e)),
            (Artifact::Space(s), Query::SpaceCount(e)) => QueryAnswer::ModelCount(s.count_under(e)),
            (Artifact::Space(s), Query::SpaceTop(w)) => QueryAnswer::MaxWeight(s.max_weight(w)),
            (Artifact::Classifier(c), Query::SufficientReason(x)) => {
                let (decision, reason) = c.sufficient_reason(x);
                QueryAnswer::Reason { decision, reason }
            }
            (Artifact::Classifier(c), Query::DecisionRobustness(x)) => {
                QueryAnswer::Robustness(c.robustness(x))
            }
            (Artifact::Classifier(c), Query::ClassifierBias(protected)) => {
                QueryAnswer::Bias(c.is_biased(protected))
            }
            _ => panic!(
                "query kind {} dispatched to a {} artifact without validation",
                q.kind(),
                self.kind().name()
            ),
        }
    }
}

/// Kind salts folded into artifact fingerprints so entries of different
/// kinds can never collide on content alone.
const PSDD_SALT: u64 = 0x5053_4444_5053_4444; // "PSDDPSDD"
const SPACE_SALT: u64 = 0x5350_4143_4553_5043; // "SPACESPC"
const CLASSIFIER_SALT: u64 = 0x434c_4153_5346_5253; // "CLASSFRS"

/// Fingerprint of a learn request: the knowledge base, the full weighted
/// dataset, and the smoothing constant. Identical learn requests hit the
/// registry; any changed example, weight, or `alpha` is a new artifact.
pub fn psdd_fingerprint(cnf: &Cnf, data: &Dataset, alpha: f64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(PSDD_SALT);
    h.write_u64(fingerprint(cnf));
    h.write_u64(alpha.to_bits());
    h.write_u64(data.len() as u64);
    for (a, w) in data {
        h.write_u64(a.len() as u64);
        for &v in a.values() {
            h.write_u8(v as u8);
        }
        h.write_u64(w.to_bits());
    }
    h.finish()
}

/// Fingerprint of a space-compilation request: graph shape and endpoints.
pub fn space_fingerprint(num_nodes: usize, edges: &[(u32, u32)], s: u32, t: u32) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(SPACE_SALT);
    h.write_u64(num_nodes as u64);
    h.write_u32(s);
    h.write_u32(t);
    h.write_u64(edges.len() as u64);
    for &(a, b) in edges {
        h.write_u32(a);
        h.write_u32(b);
    }
    h.finish()
}

/// Fingerprint of a classifier-compilation request (salted so the same CNF
/// compiled as a plain circuit is a distinct entry).
pub fn classifier_fingerprint(cnf: &Cnf) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(CLASSIFIER_SALT);
    h.write_u64(fingerprint(cnf));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_core::{Assignment, Lit, Var};

    fn cnf() -> Cnf {
        let mut c = Cnf::new(2);
        c.add_clause([Lit::new(Var(0), true), Lit::new(Var(1), true)]);
        c
    }

    #[test]
    fn fingerprints_are_kind_salted_and_content_sensitive() {
        let c = cnf();
        let data: Dataset = vec![(Assignment::all_false(2), 1.0)];
        assert_ne!(classifier_fingerprint(&c), fingerprint(&c));
        assert_ne!(psdd_fingerprint(&c, &data, 0.0), classifier_fingerprint(&c));
        assert_ne!(
            psdd_fingerprint(&c, &data, 0.0),
            psdd_fingerprint(&c, &data, 0.5)
        );
        let mut data2 = data.clone();
        data2[0].1 = 2.0;
        assert_ne!(
            psdd_fingerprint(&c, &data, 0.0),
            psdd_fingerprint(&c, &data2, 0.0)
        );
        assert_ne!(
            space_fingerprint(3, &[(0, 1), (1, 2)], 0, 2),
            space_fingerprint(3, &[(0, 1), (1, 2)], 0, 1)
        );
        assert_eq!(
            space_fingerprint(3, &[(0, 1), (1, 2)], 0, 2),
            space_fingerprint(3, &[(0, 1), (1, 2)], 0, 2)
        );
    }

    #[test]
    fn kind_mismatch_is_a_typed_rejection() {
        let clf = Artifact::Classifier(Arc::new(PreparedClassifier::compile(&cnf())));
        let err = clf.validate(&Query::ModelCount).unwrap_err();
        assert!(matches!(err, EngineError::Structure(_)));
        assert!(clf
            .validate(&Query::DecisionRobustness(Assignment::all_false(2)))
            .is_ok());
    }
}
