//! E04 — Fig. 8: model counting in linear time on (smooth) d-DNNF
//! circuits. The paper's running circuit — the course-prerequisite
//! constraint compiled to an SDD — has 9 satisfying inputs out of 16.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::Var;
use trl_nnf::{properties, LitWeights};
use trl_prop::Formula;
use trl_sdd::SddManager;

fn course_constraint() -> Formula {
    // L=0, K=1, P=2, A=3 (Fig. 15's prerequisites).
    let (l, k, p, a) = (
        Formula::var(Var(0)),
        Formula::var(Var(1)),
        Formula::var(Var(2)),
        Formula::var(Var(3)),
    );
    Formula::conj([
        p.clone().or(l.clone()),
        a.clone().implies(p),
        k.implies(a.or(l)),
    ])
}

fn main() -> ExitCode {
    banner(
        "E04",
        "Figure 8 (linear-time counting on d-DNNF)",
        "propagating 1s for literals, × at and-gates, + at or-gates yields \
         the model count: 9 of 16 for the paper's circuit",
    );
    let mut all_ok = true;

    section("compile the constraint into an SDD, convert to NNF (Figs. 5–9)");
    let mut m = SddManager::balanced(4);
    let r = m.build_formula(&course_constraint());
    let circuit = m.to_nnf(r);
    row("SDD size (elements)", m.size(r));
    row(
        "NNF nodes / edges",
        format!("{} / {}", circuit.node_count(), circuit.edge_count()),
    );
    all_ok &= check(
        "circuit is decomposable",
        properties::is_decomposable(&circuit),
    );
    all_ok &= check(
        "circuit is deterministic",
        properties::is_deterministic_exhaustive(&circuit),
    );

    section("Fig. 8's propagation");
    let count = circuit.model_count();
    row("model count (paper: 9 of 16)", count);
    all_ok &= check("count is 9", count == 9);

    section("weighted model counting (WMC generalizes #SAT, §2.1)");
    let unit = circuit.wmc(&LitWeights::unit(4));
    row("WMC with unit weights", unit);
    all_ok &= check(
        "unit-weight WMC equals the count",
        (unit - 9.0).abs() < 1e-12,
    );
    let mut w = LitWeights::unit(4);
    w.set(Var(0).positive(), 0.7);
    w.set(Var(0).negative(), 0.3);
    w.set(Var(2).positive(), 0.2);
    w.set(Var(2).negative(), 0.8);
    let weighted = circuit.wmc(&w);
    let brute: f64 = (0..16u64)
        .map(|c| trl_core::Assignment::from_index(c, 4))
        .filter(|a| course_constraint().eval(a))
        .map(|a| w.weight_of(&a))
        .sum();
    row(
        "WMC with test weights",
        format!("{weighted:.9} (brute {brute:.9})"),
    );
    all_ok &= check(
        "weighted count matches brute force",
        (weighted - brute).abs() < 1e-12,
    );

    section("smoothness is load-bearing");
    // x0 ∨ (¬x0 ∧ x1): raw sum/product propagation on the unsmoothed
    // circuit would give 2; the true count is 3.
    let mut b = trl_nnf::CircuitBuilder::new(2);
    let x0 = b.var(Var(0));
    let nx0 = b.lit(Var(0).negative());
    let x1 = b.var(Var(1));
    let rhs = b.and([nx0, x1]);
    let root = b.or_raw([x0, rhs]);
    let c = b.finish(root);
    row("is_smooth before transform", properties::is_smooth(&c));
    let smoothed = properties::smooth(&c);
    row(
        "is_smooth after transform",
        properties::is_smooth(&smoothed),
    );
    row("count via smoothing (true count 3)", c.model_count());
    all_ok &= check("smoothing fixes the count", c.model_count() == 3);

    section("all marginals in one extra pass (footnote of §3)");
    let (total, marginals) = circuit.wmc_marginals(&LitWeights::unit(4));
    let mut sums_agree = true;
    for (i, name) in ["L", "K", "P", "A"].iter().enumerate() {
        row(
            &format!("models with {name} / ¬{name}"),
            format!("{} / {}", marginals[i].0, marginals[i].1),
        );
        sums_agree &= (marginals[i].0 + marginals[i].1 - total).abs() < 1e-9;
    }
    all_ok &= check("marginals sum to the total per variable", sums_agree);

    println!();
    check("E04 overall", all_ok);
    exit_code()
}
