//! E06 — Figs. 13–15: learning a distribution from data and symbolic
//! knowledge. The course-prerequisite constraint compiles to an SDD with 9
//! satisfying inputs; maximum-likelihood PSDD parameters are learned from
//! an enrollment table in one pass; the induced distribution normalizes
//! over the valid combinations and vanishes on the invalid ones (Fig. 14).

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::{Assignment, PartialAssignment, Var};
use trl_prop::Formula;
use trl_psdd::Psdd;
use trl_sdd::SddManager;

const L: u32 = 0;
const K: u32 = 1;
const P: u32 = 2;
const A: u32 = 3;

fn constraint() -> Formula {
    Formula::conj([
        Formula::var(Var(P)).or(Formula::var(Var(L))),
        Formula::var(Var(A)).implies(Formula::var(Var(P))),
        Formula::var(Var(K)).implies(Formula::var(Var(A)).or(Formula::var(Var(L)))),
    ])
}

fn main() -> ExitCode {
    banner(
        "E06",
        "Figures 13–15 (PSDD learning from data + knowledge)",
        "compile prerequisites → SDD; learn ML parameters from enrollment \
         counts; Σ Pr = 1 on valid combinations, Pr = 0 on invalid ones",
    );
    let mut all_ok = true;

    section("step 1: compile the prerequisites (P∨L) ∧ (A⇒P) ∧ (K⇒(A∨L))");
    let mut m = SddManager::balanced(4);
    let r = m.build_formula(&constraint());
    row(
        "SDD size / model count",
        format!("{} / {}", m.size(r), m.model_count(r)),
    );
    all_ok &= check(
        "the space has 9 valid course combinations",
        m.model_count(r) == 9,
    );

    section("step 2: the enrollment dataset (synthetic counts; see EXPERIMENTS.md)");
    let mut p = Psdd::from_sdd(&m, r);
    let weights = [30.0, 6.0, 5.0, 10.0, 12.0, 8.0, 4.0, 20.0, 5.0];
    let data: Vec<(Assignment, f64)> = (0..16u64)
        .map(|c| Assignment::from_index(c, 4))
        .filter(|a| p.supports(a))
        .zip(weights)
        .collect();
    let total: f64 = weights.iter().sum();
    println!("  L K P A   students");
    for (a, w) in &data {
        println!(
            "  {} {} {} {}   {w}",
            a.value(Var(L)) as u8,
            a.value(Var(K)) as u8,
            a.value(Var(P)) as u8,
            a.value(Var(A)) as u8
        );
    }
    row("total students", total);

    section("step 3: one-pass maximum-likelihood learning (§4, [44])");
    let ll_uniform = p.log_likelihood(&data);
    let outside = p.learn(&data, 0.0);
    let ll_ml = p.log_likelihood(&data);
    row("examples outside the support", outside);
    row(
        "log-likelihood uniform → ML",
        format!("{ll_uniform:.3} → {ll_ml:.3}"),
    );
    all_ok &= check("ML improves the likelihood", ll_ml > ll_uniform);

    section("step 4: the induced distribution (Fig. 14)");
    println!("  L K P A   Pr");
    let mut sum = 0.0;
    let mut valid_ok = true;
    for code in 0..16u64 {
        let a = Assignment::from_index(code, 4);
        let pr = p.probability(&a);
        sum += pr;
        if p.supports(&a) {
            println!(
                "  {} {} {} {}   {pr:.4}",
                a.value(Var(L)) as u8,
                a.value(Var(K)) as u8,
                a.value(Var(P)) as u8,
                a.value(Var(A)) as u8
            );
            valid_ok &= pr > 0.0;
        } else {
            valid_ok &= pr == 0.0;
        }
    }
    row("Σ Pr over all 16 inputs", format!("{sum:.12}"));
    all_ok &= check("distribution normalizes to 1", (sum - 1.0).abs() < 1e-9);
    all_ok &= check("invalid combinations have probability 0", valid_ok);

    section("step 5: reasoning with the learned distribution (MAR/MPE, §4)");
    let mut e = PartialAssignment::new(4);
    e.assign(Var(K).positive());
    let pr_k = p.marginal(&e);
    row("Pr(KR enrolled)", format!("{pr_k:.4}"));
    let mut q = PartialAssignment::new(4);
    q.assign(Var(A).positive());
    row("Pr(AI | KR)", format!("{:.4}", p.conditional(&q, &e)));
    let (mpe, mpe_p) = p.mpe(&PartialAssignment::new(4));
    row(
        "MPE combination",
        format!(
            "L={} K={} P={} A={} (p = {mpe_p:.4})",
            mpe.value(Var(L)) as u8,
            mpe.value(Var(K)) as u8,
            mpe.value(Var(P)) as u8,
            mpe.value(Var(A)) as u8
        ),
    );
    let brute_best = (0..16u64)
        .map(|c| p.probability(&Assignment::from_index(c, 4)))
        .fold(0.0, f64::max);
    all_ok &= check(
        "MPE matches exhaustive max",
        (mpe_p - brute_best).abs() < 1e-12,
    );

    println!();
    check("E06 overall", all_ok);
    exit_code()
}
