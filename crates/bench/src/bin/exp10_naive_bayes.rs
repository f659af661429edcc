//! E10 — Fig. 25: compiling a naive Bayes classifier into a symbolic
//! decision graph (an OBDD) with identical input–output behavior, then
//! reading the paper's narrative off the circuit: S=+ suffices, B=+,U=+ is
//! the only other sufficient reason.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::{Assignment, Var, VarSet};
use trl_xai::{NaiveBayes, ReasonCircuit};

fn main() -> ExitCode {
    banner(
        "E10",
        "Figure 25 (naive Bayes → ordered decision diagram, [9])",
        "the compiled diagram decides exactly like the probabilistic \
         classifier on every instance",
    );
    let mut all_ok = true;
    let nb = NaiveBayes::pregnancy();
    let names = ["B", "U", "S"];

    section("the classifier (documented parameters; Fig. 25's P, B, U, S)");
    row("prior Pr(pregnant)", nb.prior);
    for (i, &(p, q)) in nb.likelihoods.iter().enumerate() {
        row(
            &format!("Pr({}=+ | P) / Pr({}=+ | ¬P)", names[i], names[i]),
            format!("{p} / {q}"),
        );
    }
    row("decision threshold", nb.threshold);

    section("compile to an OBDD and verify input–output equivalence");
    let (mut m, f) = nb.compile();
    row("diagram size (nodes incl. terminals)", m.size(f));
    let mut agree = true;
    println!("  B U S   posterior  classifier  circuit");
    for code in 0..8u64 {
        let x = Assignment::from_index(code, 3);
        let c = nb.classify(&x);
        let d = m.eval(f, &x);
        println!(
            "  {} {} {}   {:.4}     {}          {}",
            x.value(Var(0)) as u8,
            x.value(Var(1)) as u8,
            x.value(Var(2)) as u8,
            nb.posterior(&x),
            c as u8,
            d as u8
        );
        agree &= c == d;
    }
    all_ok &= check("all 8 instances agree", agree);

    section("Susan (+,+,+): sufficient reasons (§5.1's narrative)");
    let susan = Assignment::from_values(&[true, true, true]);
    let rc = ReasonCircuit::new(&mut m, f, &susan);
    let reasons = rc.sufficient_reasons();
    for r in &reasons {
        println!("  sufficient reason: {r}");
    }
    all_ok &= check("exactly two sufficient reasons", reasons.len() == 2);
    let has_s_alone = reasons
        .iter()
        .any(|r| r.len() == 1 && r.value(Var(2)) == Some(true));
    let has_bu = reasons
        .iter()
        .any(|r| r.len() == 2 && r.value(Var(0)) == Some(true) && r.value(Var(1)) == Some(true));
    all_ok &= check("S=+ alone is a sufficient reason", has_s_alone);
    all_ok &= check("B=+, U=+ is the other sufficient reason", has_bu);

    section("decision robustness of each instance");
    for code in 0..8u64 {
        let x = Assignment::from_index(code, 3);
        let r = trl_xai::robustness::decision_robustness(&m, f, &x).unwrap();
        row(
            &format!(
                "robustness(B={},U={},S={})",
                x.value(Var(0)) as u8,
                x.value(Var(1)) as u8,
                x.value(Var(2)) as u8
            ),
            r,
        );
    }

    section("a formal property: the classifier is monotone in every test");
    let monotone = trl_xai::robustness::is_monotone(&mut m, f);
    all_ok &= check("positive test results never hurt the diagnosis", monotone);

    // No test is a protected feature here; the reason machinery still
    // verifies the decision is unbiased w.r.t. an arbitrary singleton.
    let mut rc = ReasonCircuit::new(&mut m, f, &susan);
    let protected: VarSet = [Var(0)].into_iter().collect();
    all_ok &= check(
        "Susan's decision is not biased by the blood test alone",
        !rc.decision_is_biased(&protected),
    );

    println!();
    check("E10 overall", all_ok);
    exit_code()
}
