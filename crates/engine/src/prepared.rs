//! A circuit prepared for serving: linearized lazily, once, then queried
//! many times through the evaluation kernels.
//!
//! Every counting-style query in `trl-nnf` (`model_count`, `wmc`,
//! `wmc_marginals`, `max_weight`) smooths the circuit internally — correct,
//! but wasteful when the *same* circuit answers thousands of queries: the
//! smoothing copy dominates the single numeric pass that follows it.
//! [`PreparedCircuit`] hoists that work out of the query path, and does it
//! **lazily**: the first query that needs the [`EvalTape`] smooths the
//! circuit, linearizes the smoothed copy into the tape and drops the copy.
//! A served circuit therefore retains exactly two structures: the compiled
//! arena, which the first SAT query reads once, and the tape, whose two
//! lane-batched kernels answer every other circuit query — one sum-product
//! sweep for counts, WMC and marginals in any mix, one max-product sweep
//! for MPE. A pure SAT workload never builds the tape at all.

use std::sync::OnceLock;

use crate::executor::{Query, QueryAnswer};
use trl_nnf::{smooth, Circuit, EvalTape, LitWeights, SumProductAnswer, SumProductLane};

/// An immutable, shareable serving artifact: the compiled circuit plus its
/// lazily built evaluation tape. Wrap it in an `Arc` and hand it to any
/// number of executor workers.
#[derive(Clone, Debug)]
pub struct PreparedCircuit {
    raw: Circuit,
    /// Whether the circuit is satisfiable, filled by the first SAT query:
    /// a per-circuit constant, so the arena is walked once.
    sat: OnceLock<bool>,
    /// The kernel tape over the smoothed circuit, built by the first query
    /// other than SAT. The smoothed circuit it is linearized from is not
    /// kept.
    tape: OnceLock<EvalTape>,
}

impl PreparedCircuit {
    /// Wraps a compiled circuit for serving. Cheap: smoothing and tape
    /// construction are deferred to the first query that needs them.
    pub fn new(raw: Circuit) -> Self {
        PreparedCircuit {
            raw,
            sat: OnceLock::new(),
            tape: OnceLock::new(),
        }
    }

    /// The circuit as compiled/loaded (not smoothed).
    pub fn raw(&self) -> &Circuit {
        &self.raw
    }

    /// The evaluation tape the kernels sweep, built on first use from a
    /// transient smoothed copy of the circuit.
    pub fn tape(&self) -> &EvalTape {
        self.tape.get_or_init(|| EvalTape::new(&smooth(&self.raw)))
    }

    /// Whether the circuit is satisfiable: linear on DNNF, computed from
    /// the raw arena by the first call and remembered. Never builds the
    /// tape.
    pub fn sat(&self) -> bool {
        *self.sat.get_or_init(|| self.raw.sat_dnnf())
    }

    /// Builds the evaluation tape now instead of on the first query that
    /// needs it. Benchmarks and latency-sensitive deployments call this
    /// before the measurement/serving loop so tape construction is never
    /// billed to an unlucky first query (it showed up as a
    /// millisecond-scale max-latency outlier in `BENCH_eval.json` before
    /// the bench warmed the tape).
    pub fn warm(&self) {
        self.tape();
    }

    /// Whether smoothing has run, i.e. whether the tape it feeds exists (it
    /// stays absent for workloads — SAT — that never need it).
    pub fn smoothing_materialized(&self) -> bool {
        self.tape.get().is_some()
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.raw.num_vars()
    }

    /// Current footprint in arena nodes: the raw circuit plus the kernel
    /// tape once it is built. Grows (once) on the first query that builds
    /// the tape; the registry therefore snapshots this at insert time
    /// rather than re-reading it at eviction. For a circuit compiled on a
    /// registry miss that snapshot is the raw size alone: the tape built
    /// later is not charged against the budget.
    pub fn retained_nodes(&self) -> usize {
        self.raw.node_count() + self.tape.get().map_or(0, EvalTape::len)
    }

    /// Answers one query: a batch of one. Weighted queries require weights
    /// covering the circuit's universe (checked; see [`Query::validate`]).
    pub fn answer(&self, query: &Query) -> QueryAnswer {
        query
            .validate(self.num_vars())
            .expect("query validated against this circuit");
        let mut out = self.answer_batch(std::slice::from_ref(query), 1);
        out.pop().expect("one query in, one answer out")
    }

    /// Answers a group of queries, any mix of circuit kinds, in order. All
    /// counts, WMC and marginals queries share one lane-batched
    /// sum-product sweep ([`EvalTape::sum_product_batch`], one tape scan
    /// per [`trl_nnf::LANES`] queries), all MPE queries one max-product
    /// sweep, and SAT reads the per-circuit constant; a group of one takes
    /// the same kernels. `layer_threads > 1` additionally fans each tape
    /// layer of the sum-product forward sweep out across that many threads
    /// — worth it only for large circuits; the executor decides. MPE runs
    /// on sequential lanes whatever `layer_threads` says. Answers are
    /// bit-identical to the scalar oracles either way.
    pub fn answer_batch(&self, queries: &[Query], layer_threads: usize) -> Vec<QueryAnswer> {
        let mut sum_product: Vec<SumProductLane> = Vec::new();
        let mut mpe: Vec<&LitWeights> = Vec::new();
        for query in queries {
            match query {
                Query::Sat => {}
                Query::ModelCount => sum_product.push(SumProductLane::Count),
                Query::ModelCountUnder(pa) => sum_product.push(SumProductLane::CountUnder(pa)),
                Query::Wmc(w) => sum_product.push(SumProductLane::Wmc(w)),
                Query::Marginals(w) => sum_product.push(SumProductLane::Marginals(w)),
                Query::MaxWeight(w) => mpe.push(w),
                // Role-2/3 queries never reach a circuit: `Query::validate`
                // only checks universes, but the executor's typed-artifact
                // dispatch ([`crate::Artifact::validate`]) rejects the kind
                // mismatch before any answer path runs.
                _ => panic!(
                    "query kind {} requires a {} artifact, not a circuit",
                    query.kind(),
                    query.artifact_kind().name()
                ),
            }
        }
        let mut sum_product = if sum_product.is_empty() {
            Vec::new()
        } else if layer_threads > 1 {
            self.tape()
                .sum_product_batch_layered(&sum_product, layer_threads)
        } else {
            self.tape().sum_product_batch(&sum_product)
        }
        .into_iter();
        let mut mpe = if mpe.is_empty() {
            Vec::new()
        } else {
            self.tape().max_weight_batch(&mpe)
        }
        .into_iter();
        queries
            .iter()
            .map(|query| match query {
                Query::Sat => QueryAnswer::Sat(self.sat()),
                Query::MaxWeight(_) => {
                    QueryAnswer::MaxWeight(mpe.next().expect("one MPE answer per query"))
                }
                _ => match sum_product
                    .next()
                    .expect("one answer per sum-product query")
                {
                    SumProductAnswer::Wmc(x) => QueryAnswer::Wmc(x),
                    SumProductAnswer::Count(n) => QueryAnswer::ModelCount(n),
                    SumProductAnswer::Marginals { wmc, marginals } => {
                        QueryAnswer::Marginals { wmc, marginals }
                    }
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_compiler::DecisionDnnfCompiler;
    use trl_core::PartialAssignment;
    use trl_prop::Cnf;

    #[test]
    fn answers_match_direct_queries() {
        let cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -4 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let mut w = LitWeights::unit(4);
        w.set(trl_core::Var(1).positive(), 0.4);
        w.set(trl_core::Var(1).negative(), 0.6);
        let p = PreparedCircuit::new(c.clone());

        assert_eq!(p.answer(&Query::Sat), QueryAnswer::Sat(true));
        assert_eq!(
            p.answer(&Query::ModelCount),
            QueryAnswer::ModelCount(c.model_count())
        );
        assert_eq!(
            p.answer(&Query::Wmc(w.clone())),
            QueryAnswer::Wmc(c.wmc(&w))
        );
        let (wmc, marginals) = c.wmc_marginals(&w);
        assert_eq!(
            p.answer(&Query::Marginals(w.clone())),
            QueryAnswer::Marginals { wmc, marginals }
        );
        assert_eq!(
            p.answer(&Query::MaxWeight(w.clone())),
            QueryAnswer::MaxWeight(c.max_weight(&w))
        );
        let mut pa = PartialAssignment::new(4);
        pa.assign(trl_core::Var(0).positive());
        assert_eq!(
            p.answer(&Query::ModelCountUnder(pa.clone())),
            QueryAnswer::ModelCount(c.model_count_under(&pa))
        );
    }

    #[test]
    fn tape_is_built_by_the_first_count_or_mpe_query_only() {
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let tape_nodes = EvalTape::new(&smooth(&c)).len();
        let w = LitWeights::unit(3);
        for first in [Query::ModelCount, Query::MaxWeight(w.clone())] {
            let p = PreparedCircuit::new(c.clone());
            assert!(!p.smoothing_materialized());
            assert_eq!(p.retained_nodes(), p.raw().node_count());

            // SAT reads the raw arena once and never builds the tape.
            assert!(p.sat.get().is_none());
            assert_eq!(p.answer(&Query::Sat), QueryAnswer::Sat(true));
            assert_eq!(p.sat.get(), Some(&true), "SAT is remembered");
            assert!(!p.smoothing_materialized());

            // The first count or MPE query builds it, exactly once.
            p.answer(&first);
            assert!(p.smoothing_materialized());
            let built = p.retained_nodes();
            assert_eq!(built, p.raw().node_count() + tape_nodes);
            let tape = p.tape() as *const EvalTape;
            for q in [
                Query::ModelCount,
                Query::MaxWeight(w.clone()),
                Query::Wmc(w.clone()),
            ] {
                p.answer(&q);
            }
            assert_eq!(p.retained_nodes(), built, "the tape is built once");
            assert!(std::ptr::eq(p.tape(), tape), "the tape is built once");
        }
    }

    #[test]
    fn batched_answers_match_per_query_answers() {
        let cnf = Cnf::parse_dimacs("p cnf 5 4\n1 2 0\n-1 3 0\n-2 -4 0\n4 5 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let p = PreparedCircuit::new(c);
        let mut queries = Vec::new();
        for i in 0..13 {
            let mut w = LitWeights::unit(5);
            w.set(trl_core::Var(i % 5).positive(), 0.1 + 0.05 * i as f64);
            queries.push(Query::Wmc(w));
        }
        for layer_threads in [1, 3] {
            let batched = p.answer_batch(&queries, layer_threads);
            for (q, got) in queries.iter().zip(&batched) {
                assert_eq!(*got, p.answer(q), "layer_threads={layer_threads}");
            }
        }

        // Mixed groups share the kernels and answer as the scalar
        // oracles on the raw circuit do.
        let c = p.raw().clone();
        let mut pa = PartialAssignment::new(5);
        pa.assign(trl_core::Var(3).negative());
        let mut w = LitWeights::unit(5);
        w.set(trl_core::Var(2).positive(), 0.3);
        w.set(trl_core::Var(2).negative(), 0.7);
        let mixed = vec![
            Query::Sat,
            Query::ModelCount,
            Query::Wmc(LitWeights::unit(5)),
            Query::MaxWeight(w.clone()),
            Query::ModelCountUnder(pa.clone()),
            Query::Marginals(w.clone()),
            Query::Sat,
        ];
        let (wmc, marginals) = c.wmc_marginals(&w);
        let expect = vec![
            QueryAnswer::Sat(c.sat_dnnf()),
            QueryAnswer::ModelCount(c.model_count()),
            QueryAnswer::Wmc(c.wmc(&LitWeights::unit(5))),
            QueryAnswer::MaxWeight(c.max_weight(&w)),
            QueryAnswer::ModelCount(c.model_count_under(&pa)),
            QueryAnswer::Marginals { wmc, marginals },
            QueryAnswer::Sat(c.sat_dnnf()),
        ];
        for layer_threads in [1, 3] {
            assert_eq!(p.answer_batch(&mixed, layer_threads), expect);
        }
    }
}
