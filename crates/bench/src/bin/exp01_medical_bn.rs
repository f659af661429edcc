//! E01 — Fig. 2: the medical Bayesian network and the four canonical
//! queries whose decision versions climb NP ⊆ PP ⊆ NP^PP ⊆ PP^PP.
//!
//! Every query is answered twice: by the dedicated algorithm (variable
//! elimination / enumeration) and by the reduction route (compiled
//! circuit), and the two must agree.

use trl_bayesnet::compiled::{map_value_sdd, sdp_sdd};
use trl_bayesnet::models::{medical, medical_vars::*};
use trl_bayesnet::{CompiledBn, EncodingStyle};
use trl_bench::{banner, check, row, section};

fn main() {
    banner(
        "E01",
        "Figure 2 (medical network; MPE/MAR/MAP/SDP ladder)",
        "the four BN queries reduce to circuit queries with identical answers",
    );
    let bn = medical();
    let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
    let mut all_ok = true;

    section("MPE (NP): most probable complete instantiation");
    let evidence = vec![];
    let (inst_ve, val_ve) = bn.mpe(&evidence);
    let (inst_c, val_c) = compiled.mpe(&evidence).expect("empty evidence is possible");
    let names = ["sex", "c", "T1", "T2", "AGREE"];
    let show = |inst: &[usize]| {
        inst.iter()
            .enumerate()
            .map(|(v, &x)| format!("{}={}", names[v], x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    row("VE MPE", format!("{} (p = {val_ve:.6})", show(&inst_ve)));
    row("circuit MPE", format!("{} (p = {val_c:.6})", show(&inst_c)));
    all_ok &= check("MPE values agree", (val_ve - val_c).abs() < 1e-9);

    section("MAR (PP): per-variable marginals, as displayed in Fig. 2");
    let posts = compiled
        .posteriors(&evidence)
        .expect("empty evidence is possible");
    for v in 0..bn.num_vars() {
        let ve = bn.posterior(v, &evidence);
        row(
            &format!("Pr({})", names[v]),
            format!(
                "circuit [{:.4}, {:.4}]   VE [{:.4}, {:.4}]",
                posts[v][0], posts[v][1], ve[0], ve[1]
            ),
        );
        all_ok &= (posts[v][0] - ve[0]).abs() < 1e-9;
    }
    all_ok &= check("all marginals agree (one derivative pass vs VE)", all_ok);

    section("MAR with evidence: both tests positive");
    let ev = vec![(T1, 1), (T2, 1)];
    let pc = compiled
        .posterior(C, &ev)
        .expect("positive tests are possible")[1];
    let pv = bn.posterior(C, &ev)[1];
    row("Pr(c | T1=+, T2=+) circuit", format!("{pc:.6}"));
    row("Pr(c | T1=+, T2=+) VE", format!("{pv:.6}"));
    all_ok &= check("conditional marginal agrees", (pc - pv).abs() < 1e-9);

    section("MAP (NP^PP): most probable (sex, c) given AGREE = 1");
    let ev = vec![(AGREE, 1)];
    let (map_inst, map_ve) = bn.map(&[SEX, C], &ev);
    let map_sdd = map_value_sdd(&bn, &[SEX, C], &ev);
    row(
        "VE MAP over {sex, c}",
        format!("sex={}, c={} (p = {map_ve:.6})", map_inst[0], map_inst[1]),
    );
    row("constrained-vtree SDD MAP value", format!("{map_sdd:.6}"));
    all_ok &= check("MAP values agree", (map_ve - map_sdd).abs() < 1e-9);

    section("SDP (PP^PP): operate if Pr(c | tests) ≥ 0.9 — Fig. 2's scenario");
    for threshold in [0.9, 0.5, 0.1] {
        let ve = bn.sdp(C, 1, threshold, &[T1, T2], &vec![]);
        let circuit = sdp_sdd(&bn, C, 1, threshold, &[T1, T2], &vec![]);
        row(
            &format!("SDP(T={threshold})"),
            format!("circuit {circuit:.6}   enumeration {ve:.6}"),
        );
        all_ok &= (ve - circuit).abs() < 1e-9;
    }
    all_ok &= check("SDP via constrained SDD agrees with enumeration", all_ok);

    println!();
    check("E01 overall", all_ok);
}
