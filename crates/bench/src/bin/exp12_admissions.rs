//! E12 — Fig. 27: explaining admission decisions of an OBDD classifier.
//! One admitted applicant (Robin) has an *unbiased decision* from a
//! *biased classifier*; another (Scott) has a *biased decision* — both
//! verdicts read off reason circuits without enumerating explanations.
//!
//! The paper does not print its classifier's full OBDD, so a documented
//! admissions function with the same qualitative structure is used (see
//! EXPERIMENTS.md): features R (rich hometown — protected), E (entrance
//! exam), G (GPA), W (work experience), V (volunteering);
//! admit ⟺ (E∧G) ∨ (R∧E) ∨ (R∧W) ∨ (E∧W∧V).

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::{Assignment, Var, VarSet};
use trl_obdd::Obdd;
use trl_prop::Formula;
use trl_xai::ReasonCircuit;

const R: u32 = 0;
const E: u32 = 1;
const G: u32 = 2;
const W: u32 = 3;
const V: u32 = 4;

fn admissions() -> Formula {
    let f = |v: u32| Formula::var(Var(v));
    Formula::disj([
        f(E).and(f(G)),
        f(R).and(f(E)),
        f(R).and(f(W)),
        f(E).and(f(W)).and(f(V)),
    ])
}

fn main() -> ExitCode {
    banner(
        "E12",
        "Figure 27 (admission decisions, bias, reason circuits)",
        "Robin: unbiased decision, biased classifier; Scott: biased \
         decision — decided on the reason circuit in polytime",
    );
    let mut all_ok = true;
    let names = ["R", "E", "G", "W", "V"];
    let mut m = Obdd::with_num_vars(5);
    let f = m.build_formula(&admissions());
    let protected: VarSet = [Var(R)].into_iter().collect();
    row("classifier OBDD size", m.size(f));
    row(
        "admitted applicants",
        format!("{} of 32", m.count_models(f)),
    );

    section("Robin: R=1, E=1, G=1, W=1, V=1 — admitted");
    let robin = Assignment::from_values(&[true, true, true, true, true]);
    assert!(m.eval(f, &robin));
    let mut rc = ReasonCircuit::new(&mut m, f, &robin);
    let reasons = rc.sufficient_reasons();
    for r in &reasons {
        let touches = r.value(Var(R)).is_some();
        println!(
            "  sufficient reason: {r}{}",
            if touches { "   (uses protected R)" } else { "" }
        );
    }
    let with_r = reasons.iter().filter(|r| r.value(Var(R)).is_some()).count();
    row(
        "reasons / with protected feature",
        format!("{} / {with_r}", reasons.len()),
    );
    let robin_biased = rc.decision_is_biased(&protected);
    let classifier_biased = rc.some_reason_touches(&protected);
    row("decision biased?", robin_biased);
    row("classifier biased?", classifier_biased);
    all_ok &= check("Robin's decision is NOT biased", !robin_biased);
    all_ok &= check(
        "…but the classifier IS biased (some reason uses R)",
        classifier_biased,
    );
    row("reason circuit size", rc.size());

    section("Scott: R=1, E=1, G=0, W=1, V=0 — admitted");
    let scott = Assignment::from_values(&[true, true, false, true, false]);
    assert!(m.eval(f, &scott));
    let mut rc = ReasonCircuit::new(&mut m, f, &scott);
    let reasons = rc.sufficient_reasons();
    for r in &reasons {
        println!("  sufficient reason: {r}");
    }
    let all_protected = reasons.iter().all(|r| r.value(Var(R)).is_some());
    row(
        "reasons / all touch protected",
        format!("{} / {all_protected}", reasons.len()),
    );
    let scott_biased = rc.decision_is_biased(&protected);
    row("decision biased?", scott_biased);
    all_ok &= check("every reason uses R ⇒ the decision IS biased", scott_biased);
    // The paper's reading: "it will be reversed if Scott were not to come
    // from a rich hometown."
    let flipped = scott.flipped(Var(R));
    all_ok &= check(
        "flipping R alone reverses Scott's admission",
        !m.eval(f, &flipped),
    );
    // Robin survives the same flip.
    all_ok &= check(
        "flipping R alone does not reverse Robin's admission",
        m.eval(f, &robin.flipped(Var(R))),
    );

    section("counterfactual (the 'April' pattern of §5.1)");
    // Robin would still be admitted even without work experience, because
    // of the exam and GPA.
    let mut rc = ReasonCircuit::new(&mut m, f, &robin);
    let no_work: VarSet = [Var(W)].into_iter().collect();
    let because: VarSet = [Var(E), Var(G)].into_iter().collect();
    all_ok &= check(
        "Robin admitted even without work experience, because exam ∧ GPA",
        rc.even_if_because(&no_work, &because),
    );
    let because_weak: VarSet = [Var(V)].into_iter().collect();
    all_ok &= check(
        "…but not 'because of volunteering' alone",
        !rc.even_if_because(&no_work, &because_weak),
    );

    section("classifier-level audit: every instance");
    let mut biased_decisions = 0usize;
    for code in 0..32u64 {
        let x = Assignment::from_index(code, 5);
        let mut rc = ReasonCircuit::new(&mut m, f, &x);
        if rc.decision_is_biased(&protected) {
            biased_decisions += 1;
        }
    }
    row(
        "instances with biased decisions",
        format!("{biased_decisions} of 32"),
    );
    all_ok &= check(
        "the classifier makes at least one biased decision (it is biased)",
        biased_decisions > 0,
    );
    let _ = names;

    println!();
    check("E12 overall", all_ok);
    exit_code()
}
