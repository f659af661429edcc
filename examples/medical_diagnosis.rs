//! Role 1 — logic for computation: the medical network of Fig. 2 with all
//! four canonical queries (MPE, MAR, MAP, SDP) answered on compiled
//! circuits.
//!
//! ```sh
//! cargo run --example medical_diagnosis
//! ```

use three_roles::bayesnet::compiled::{map_value_sdd, sdp_sdd};
use three_roles::bayesnet::models::{medical, medical_vars::*};
use three_roles::bayesnet::{CompiledBn, EncodingStyle};

fn main() {
    let bn = medical();
    let names = ["sex", "c", "T1", "T2", "AGREE"];
    println!("network: sex → c → {{T1, T2}} → AGREE (deterministic)");

    // Compile once.
    let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
    println!(
        "compiled circuit: {} nodes over a {}-variable encoding\n",
        compiled.circuit().node_count(),
        compiled.encoding().cnf.num_vars()
    );

    // MAR: the patient tested positive on both tests.
    let ev = vec![(T1, 1), (T2, 1)];
    let posts = compiled
        .posteriors(&ev)
        .expect("positive tests are possible");
    println!("posteriors given T1=+, T2=+:");
    for v in 0..bn.num_vars() {
        println!("  Pr({} = 1 | e) = {:.4}", names[v], posts[v][1]);
    }

    // MPE: single most probable full explanation of the evidence.
    let (inst, p) = compiled.mpe(&ev).expect("positive tests are possible");
    let desc: Vec<String> = inst
        .iter()
        .enumerate()
        .map(|(v, &x)| format!("{}={}", names[v], x))
        .collect();
    println!("\nMPE: {} (joint p = {:.6})", desc.join(", "), p);

    // MAP over {sex, c}: the NP^PP query, via a constrained-vtree SDD.
    let map_p = map_value_sdd(&bn, &[SEX, C], &ev);
    println!("MAP value over {{sex, c}}: {:.6}", map_p);

    // SDP: operate if Pr(c | tests) ≥ 0.9. How stable is today's (negative)
    // decision to actually running the tests? The PP^PP query.
    let sdp = sdp_sdd(&bn, C, 1, 0.9, &[T1, T2], &vec![]);
    println!(
        "\nsame-decision probability for 'operate if Pr(c|tests) ≥ 0.9': {:.4}",
        sdp
    );
    println!("(the current negative decision survives the tests with that probability)");

    // Everything agrees with variable elimination.
    assert!((compiled.pr_evidence(&ev) - bn.pr_evidence(&ev)).abs() < 1e-9);
    println!("\nverified against variable elimination ✓");
}
