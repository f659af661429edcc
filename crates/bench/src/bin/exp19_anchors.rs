//! E19 — footnote 18 of §5.1 and \[41\]: auditing Anchor-style approximate
//! explanations against exact sufficient reasons. Only the compiled
//! circuit makes the audit possible — the black box alone cannot tell an
//! optimistic anchor from an exact one.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section, Rng};
use trl_core::Assignment;
use trl_xai::anchor::{anchor, audit, AnchorVerdict};
use trl_xai::NaiveBayes;

fn main() -> ExitCode {
    banner(
        "E19",
        "§5.1 footnote 18 / [41] (validating heuristic explanations)",
        "sampling-based anchors audited exactly on the circuit: counted as \
         exact / optimistic / pessimistic",
    );
    let mut all_ok = true;

    // A 6-feature naive Bayes classifier as the black box.
    let likelihoods: Vec<(f64, f64)> = (0..6)
        .map(|i| {
            let p = 0.62 + 0.05 * i as f64;
            (p, 1.0 - p)
        })
        .collect();
    let nb = NaiveBayes::new(0.45, likelihoods, 0.5);
    let (mut m, f) = nb.compile();
    row("classifier circuit size", m.size(f));

    let mut rng = Rng::new(0x19);
    let mut uniform = move || rng.uniform();

    section("audit anchors across all 64 instances, two precision targets");
    for target in [1.0, 0.9] {
        let (mut exact, mut optimistic, mut pessimistic) = (0usize, 0usize, 0usize);
        let mut total_len = 0usize;
        for code in 0..64u64 {
            let x = Assignment::from_index(code, 6);
            let a = anchor(&|y| nb.classify(y), &x, 6, target, 300, &mut uniform);
            total_len += a.len();
            match audit(&mut m, f, &x, &a) {
                AnchorVerdict::Exact => exact += 1,
                AnchorVerdict::Optimistic => optimistic += 1,
                AnchorVerdict::Pessimistic => pessimistic += 1,
            }
        }
        row(
            &format!("precision target {target}"),
            format!(
                "exact {exact}, optimistic {optimistic}, pessimistic {pessimistic} \
                 (mean anchor size {:.2})",
                total_len as f64 / 64.0
            ),
        );
        if target >= 1.0 {
            all_ok &= check(
                "at precision 1.0 with dense sampling, no optimistic anchors",
                optimistic == 0,
            );
        } else {
            all_ok &= check(
                "at precision 0.9 some anchors are not exact (the [41] finding)",
                exact < 64,
            );
        }
    }

    section("why the audit needs the circuit");
    // The audit conditions the compiled function; the black box can only
    // ever sample, which is exactly how optimistic anchors sneak through.
    let x = Assignment::from_index(0b111111, 6);
    let a = anchor(&|y| nb.classify(y), &x, 6, 0.75, 40, &mut uniform);
    let verdict = audit(&mut m, f, &x, &a);
    row(
        "a loosely-sampled anchor on the all-positive instance",
        format!("{} literal(s) → {:?}", a.len(), verdict),
    );
    all_ok &= check("audit yields a definite verdict", true);

    println!();
    check("E19 overall", all_ok);
    exit_code()
}
