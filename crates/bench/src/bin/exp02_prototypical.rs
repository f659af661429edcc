//! E02 — Fig. 3: the four prototypical problems SAT, MAJSAT, E-MAJSAT,
//! MAJMAJSAT decided systematically by compilation into circuits of
//! increasing tractability, validated against brute force.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, random_3cnf, row, section, Rng};
use trl_compiler::{compile_sdd_constrained, DecisionDnnfCompiler};
use trl_core::{Assignment, Var};
use trl_prop::{Cnf, Solver};

fn brute_emaj(cnf: &Cnf, ny: usize) -> (u128, u128, u128) {
    // (max_y count_z, #y with strict z-majority, total z space)
    let n = cnf.num_vars();
    let nz = n - ny;
    let mut best = 0u128;
    let mut majority_y = 0u128;
    for ycode in 0..1u64 << ny {
        let mut count = 0u128;
        for zcode in 0..1u64 << nz {
            let mut a = Assignment::all_false(n);
            for b in 0..ny {
                a.set(Var(b as u32), ycode >> b & 1 == 1);
            }
            for b in 0..nz {
                a.set(Var((ny + b) as u32), zcode >> b & 1 == 1);
            }
            if cnf.eval(&a) {
                count += 1;
            }
        }
        best = best.max(count);
        if count * 2 > 1u128 << nz {
            majority_y += 1;
        }
    }
    (best, majority_y, 1u128 << nz)
}

fn main() -> ExitCode {
    banner(
        "E02",
        "Figure 3 (SAT / MAJSAT / E-MAJSAT / MAJMAJSAT on a circuit)",
        "compiling into DNNF, d-DNNF, and constrained SDDs decides the \
         prototypical problems of NP, PP, NP^PP, PP^PP",
    );
    let mut rng = Rng::new(0xf1e2);
    let mut all_ok = true;

    for trial in 0..6 {
        let ny = 2 + trial % 3;
        let n = ny + 4 + trial % 2;
        let cnf = random_3cnf(&mut rng, n, n + 3 + trial);
        section(&format!(
            "instance {trial}: {n} variables ({ny} Y + {} Z), {} clauses",
            n - ny,
            cnf.clauses().len()
        ));

        // SAT (NP): decomposability suffices.
        let ddnnf = DecisionDnnfCompiler::default().compile(&cnf);
        let sat_circuit = ddnnf.sat_dnnf();
        let sat_dpll = Solver::new(&cnf).is_sat();
        row("SAT via DNNF / DPLL", format!("{sat_circuit} / {sat_dpll}"));
        all_ok &= sat_circuit == sat_dpll;

        // MAJSAT (PP): + determinism (+ smoothness) → linear counting.
        let count = ddnnf.model_count();
        let brute = Solver::new(&cnf).count_models() as u128;
        let majsat = count * 2 > 1u128 << n;
        row(
            "#SAT via d-DNNF / DPLL",
            format!("{count} / {brute}  (MAJSAT = {majsat})"),
        );
        all_ok &= count == brute;

        // E-MAJSAT and MAJMAJSAT (NP^PP, PP^PP): constrained vtrees.
        let y_vars: Vec<Var> = (0..ny as u32).map(Var).collect();
        let (m, f, u) = compile_sdd_constrained(&cnf, &y_vars);
        let (best_brute, majy_brute, z_total) = brute_emaj(&cnf, ny);
        let best = m.emajsat_count(f, u);
        let emajsat = best * 2 > z_total;
        row(
            "E-MAJSAT: max_y #z circuit / brute",
            format!("{best} / {best_brute}  (decision = {emajsat})"),
        );
        all_ok &= best == best_brute;

        let threshold = z_total / 2 + 1;
        let majy = m.majmajsat_count(f, u, threshold);
        let majmaj = majy * 2 > 1u128 << ny;
        row(
            "MAJMAJSAT: #y with z-majority circuit / brute",
            format!("{majy} / {majy_brute}  (decision = {majmaj})"),
        );
        all_ok &= majy == majy_brute;
        all_ok &= m.emajsat(f, u) == emajsat;
        all_ok &= m.majmajsat(f, u) == majmaj;
    }

    println!();
    check("E02 overall: all four problems decided correctly", all_ok);
    exit_code()
}
