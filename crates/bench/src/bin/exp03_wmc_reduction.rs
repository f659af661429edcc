//! E03 — Fig. 4 and §2.2: the reduction from marginal computation (MAR) to
//! weighted model counting (WMC): "the resulting Boolean formula Δ will
//! have exactly eight models, which correspond to the network
//! instantiations", each with weight equal to its probability.

use std::process::ExitCode;

use trl_bayesnet::models::abc;
use trl_bayesnet::{BnEncoding, EncodingStyle};
use trl_bench::{banner, check, exit_code, row, section};
use trl_compiler::ModelCounter;
use trl_prop::Solver;

fn main() -> ExitCode {
    banner(
        "E03",
        "Figure 4 + §2.2 (the BN → WMC reduction of [24])",
        "Δ has one model per network instantiation; model weight = row \
         probability; Pr(α) = WMC(Δ ∧ α)",
    );
    let bn = abc();
    let mut all_ok = true;

    for style in [EncodingStyle::Baseline, EncodingStyle::LocalStructure] {
        section(&format!("encoding style: {style:?}"));
        let enc = BnEncoding::new(&bn, style);
        row(
            "encoding size",
            format!(
                "{} variables, {} clauses",
                enc.cnf.num_vars(),
                enc.cnf.clauses().len()
            ),
        );

        let models = Solver::new(&enc.cnf).enumerate_models();
        row("models of Δ (paper: exactly 8)", models.len());
        all_ok &= check("model count is 8", models.len() == 8);

        // Each model's weight equals the joint probability of its row.
        println!("\n  A B C   weight(model)      Pr(row)");
        let mut rows: Vec<(Vec<usize>, f64)> = models
            .iter()
            .map(|m| (enc.decode(m), enc.weights.weight_of(m)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut weight_ok = true;
        for (inst, w) in &rows {
            let joint = bn.joint(inst);
            println!(
                "  {} {} {}   {:<18.12} {:.12}",
                inst[0], inst[1], inst[2], w, joint
            );
            weight_ok &= (w - joint).abs() < 1e-12;
        }
        all_ok &= check("every model weight equals the row probability", weight_ok);

        // Pr(α) = WMC(Δ ∧ α) for every single-variable event α and pairs.
        let counter = ModelCounter::default();
        let mut mar_ok = true;
        for v in 0..bn.num_vars() {
            for val in 0..2 {
                let ev = vec![(v, val)];
                let wmc = counter.wmc(&enc.cnf, &enc.weights_with_evidence(&ev));
                let ve = bn.pr_evidence(&ev);
                mar_ok &= (wmc - ve).abs() < 1e-12;
            }
        }
        for ev in [
            vec![(0, 1), (1, 0)],
            vec![(1, 1), (2, 1)],
            vec![(0, 0), (2, 1)],
        ] {
            let wmc = counter.wmc(&enc.cnf, &enc.weights_with_evidence(&ev));
            let ve = bn.pr_evidence(&ev);
            row(&format!("Pr{ev:?}"), format!("WMC {wmc:.9}   VE {ve:.9}"));
            mar_ok &= (wmc - ve).abs() < 1e-12;
        }
        all_ok &= check("MAR = WMC(Δ ∧ α) on all probed events", mar_ok);
    }

    println!();
    check("E03 overall", all_ok);
    exit_code()
}
