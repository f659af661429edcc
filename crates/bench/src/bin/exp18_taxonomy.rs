//! E18 — Fig. 12: the partial taxonomy of NNF circuits, observed on real
//! compilations. Every compiler output lands exactly where the map says it
//! should: OBDD/SDD conversions are structured d-DNNFs, the trace compiler
//! yields d-DNNF, dropping properties walks up the hierarchy.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, random_3cnf, row, section, Rng};
use trl_compiler::{compile_obdd, compile_sdd, DecisionDnnfCompiler};
use trl_core::Var;
use trl_nnf::taxonomy::classify;
use trl_nnf::{properties, CircuitBuilder};

fn main() -> ExitCode {
    banner(
        "E18",
        "Figure 12 (a partial taxonomy of NNF circuits)",
        "compilers land in the classes the knowledge compilation map \
         predicts; NNF ⊇ DNNF ⊇ d-DNNF ⊇ structured d-DNNF",
    );
    let mut all_ok = true;
    let mut rng = Rng::new(0x18);
    let cnf = random_3cnf(&mut rng, 8, 18);

    section("where each compiler's output lands");
    // Decision-DNNF compiler → d-DNNF (not structured: n-ary gates).
    let ddnnf = DecisionDnnfCompiler::default().compile(&cnf);
    let class = classify(&ddnnf, None, true);
    row("trace compiler (Dsharp-style)", class.language());
    all_ok &= check(
        "trace output is d-DNNF",
        class.decomposable && class.deterministic == Some(true),
    );

    // OBDD → NNF: structured d-DNNF over the right-linear vtree.
    let (obdd, oroot) = compile_obdd(&cnf);
    let circuit = obdd.to_nnf(oroot);
    let rl = trl_vtree::Vtree::right_linear(&(0..8u32).map(Var).collect::<Vec<_>>());
    let class = classify(&circuit, Some(&rl), true);
    row("OBDD as NNF (Fig. 11)", class.language());
    all_ok &= check(
        "OBDD is a structured d-DNNF over its right-linear vtree",
        class.structured == Some(true) && class.deterministic == Some(true),
    );

    // SDD → NNF: structured d-DNNF over the balanced vtree.
    let (sdd, sroot) = compile_sdd(&cnf);
    let circuit = sdd.to_nnf(sroot);
    let class = classify(&circuit, Some(sdd.vtree()), true);
    row("SDD as NNF (Fig. 9)", class.language());
    all_ok &= check(
        "SDD is a structured d-DNNF over its own vtree",
        class.structured == Some(true) && class.deterministic == Some(true),
    );

    section("walking up the hierarchy by dropping properties");
    // A DNNF that is not deterministic: disjoin two overlapping cubes.
    let mut b = CircuitBuilder::new(4);
    let c1 = b.cube([Var(0).positive(), Var(1).positive()]);
    let c2 = b.cube([Var(2).positive(), Var(3).positive()]);
    let r = b.or([c1, c2]);
    let dnnf = b.finish(r);
    let class = classify(&dnnf, None, true);
    row("two overlapping cubes disjoined", class.language());
    all_ok &= check(
        "DNNF but not d-DNNF",
        class.decomposable && class.deterministic == Some(false),
    );

    // A non-decomposable NNF: conjoin overlapping subcircuits.
    let mut b = CircuitBuilder::new(2);
    let x0 = b.var(Var(0));
    let x1 = b.var(Var(1));
    let inner = b.and_raw([x0, x1]);
    let outer = b.and_raw([x0, inner]);
    let nnf = b.finish(outer);
    let class = classify(&nnf, None, true);
    row("shared-variable conjunction", class.language());
    all_ok &= check("plain NNF only", !class.decomposable);

    section("the inclusions are strict in practice");
    // The structured circuits are also plain d-DNNFs; the reverse fails
    // because the trace compiler's gates are not binary vtree-shaped.
    let vt = trl_vtree::Vtree::balanced(&(0..8u32).map(Var).collect::<Vec<_>>());
    all_ok &= check(
        "trace output does not respect a balanced vtree (strict inclusion)",
        !properties::respects_vtree(&ddnnf, &vt),
    );

    println!();
    check("E18 overall", all_ok);
    exit_code()
}
