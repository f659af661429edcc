//! E11 — Fig. 26: prime implicants and sufficient reasons for the paper's
//! example f = (A + ¬C)(B + C)(A + B), computed two independent ways:
//! Quine–McCluskey on the truth table, and reason circuits on the OBDD.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::{Assignment, Var};
use trl_obdd::Obdd;
use trl_prop::{prime_implicants, sufficient_reasons, Formula, TruthTable};
use trl_xai::ReasonCircuit;

fn fig26() -> Formula {
    let (a, b, c) = (
        Formula::var(Var(0)),
        Formula::var(Var(1)),
        Formula::var(Var(2)),
    );
    Formula::conj([
        a.clone().or(c.clone().not()),
        b.clone().or(c.clone()),
        a.or(b),
    ])
}

fn main() -> ExitCode {
    banner(
        "E11",
        "Figure 26 (prime implicants of Boolean functions)",
        "PIs of f are {AB, AC, B¬C}; the positive instance AB¬C has \
         sufficient reasons {AB, B¬C}; the negative instance has exactly one",
    );
    let mut all_ok = true;
    let f = fig26();
    let tt = TruthTable::from_formula(&f, 3);

    section("prime implicants of f (paper: AB, AC, B¬C)");
    let pis = prime_implicants(&tt);
    for pi in &pis {
        println!("  {pi}");
    }
    all_ok &= check("three prime implicants", pis.len() == 3);
    let has = |lits: &[(u32, bool)]| {
        let cube = trl_core::Cube::from_lits(lits.iter().map(|&(v, pos)| Var(v).literal(pos)));
        pis.contains(&cube)
    };
    all_ok &= check("AB is prime", has(&[(0, true), (1, true)]));
    all_ok &= check("AC is prime", has(&[(0, true), (2, true)]));
    all_ok &= check("B¬C is prime", has(&[(1, true), (2, false)]));

    section("prime implicants of ¬f");
    let neg_pis = prime_implicants(&tt.complement());
    for pi in &neg_pis {
        println!("  {pi}");
    }
    all_ok &= check(
        "three prime implicants of the complement",
        neg_pis.len() == 3,
    );

    section("sufficient reasons, via both routes");
    let mut m = Obdd::with_num_vars(3);
    let obdd = m.build_formula(&f);
    // Positive instance AB¬C: decision 1, reasons {AB, B¬C} (paper).
    let pos = Assignment::from_values(&[true, true, false]);
    let from_tt = sufficient_reasons(&tt, &pos);
    let from_rc = ReasonCircuit::new(&mut m, obdd, &pos).sufficient_reasons();
    row("instance AB¬C (decision 1)", format!("{from_rc:?}"));
    all_ok &= check("oracle and reason circuit agree", from_tt == from_rc);
    all_ok &= check("two sufficient reasons", from_rc.len() == 2);

    // Negative instance ¬A,B,C: exactly one sufficient reason ¬A∧C
    // (exact computation; the figure's overline placement is ambiguous in
    // the scan — see EXPERIMENTS.md).
    let neg = Assignment::from_values(&[false, true, true]);
    let from_tt = sufficient_reasons(&tt, &neg);
    let from_rc = ReasonCircuit::new(&mut m, obdd, &neg).sufficient_reasons();
    row("instance ¬A,B,C (decision 0)", format!("{from_rc:?}"));
    all_ok &= check("oracle and reason circuit agree", from_tt == from_rc);
    all_ok &= check("exactly one sufficient reason (¬A∧C)", {
        from_rc.len() == 1
            && from_rc[0] == trl_core::Cube::from_lits([Var(0).negative(), Var(2).positive()])
    });

    section("exhaustive agreement across every instance");
    let mut agree = true;
    for code in 0..8u64 {
        let x = Assignment::from_index(code, 3);
        let a = sufficient_reasons(&tt, &x);
        let b = ReasonCircuit::new(&mut m, obdd, &x).sufficient_reasons();
        agree &= a == b;
    }
    all_ok &= check("all 8 instances agree across both routes", agree);

    println!();
    check("E11 overall", all_ok);
    exit_code()
}
