//! Bench: MAR by variable elimination vs the compiled circuit — the
//! dedicated-vs-reduction comparison of §2.

use trl_bayesnet::models::random_network;
use trl_bayesnet::{CompiledBn, EncodingStyle};
use trl_bench::harness::Harness;

fn bench_bayesnet(h: &Harness) {
    let bn = random_network(7, 12, 3, 0.5);
    let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
    let ev = vec![(3usize, 1usize)];
    let mut group = h.group("bayesnet");
    group.bench_function("mar-ve", || bn.posterior(0, &ev));
    group.bench_function("mar-circuit-all-marginals", || {
        compiled
            .posteriors(&ev)
            .expect("evidence has positive probability")
    });
    group.bench_function("mpe-circuit", || {
        compiled
            .mpe(&ev)
            .expect("evidence has positive probability")
    });
    group.bench_function("compile-local-structure", || {
        CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure)
    });
}

fn main() {
    let h = Harness::from_env();
    bench_bayesnet(&h);
}
