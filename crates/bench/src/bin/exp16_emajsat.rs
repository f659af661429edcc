//! E16 — §3 and \[61\]: constrained vtrees unlock NP^PP and PP^PP.
//! E-MAJSAT and MAJMAJSAT decided by one linear traversal of a
//! constrained-vtree SDD, validated against brute force, with a timing
//! sweep showing the crossover as the brute-force space explodes.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, random_3cnf, row, section, timed, Rng};
use trl_compiler::compile_sdd_constrained;
use trl_core::{Assignment, Var};
use trl_prop::Cnf;

fn brute_best_and_majority(cnf: &Cnf, ny: usize, threshold: u128) -> (u128, u128) {
    let n = cnf.num_vars();
    let nz = n - ny;
    let mut best = 0u128;
    let mut majority = 0u128;
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
        if count >= threshold {
            majority += 1;
        }
    }
    (best, majority)
}

fn main() -> ExitCode {
    banner(
        "E16",
        "§3 / [61] (E-MAJSAT and MAJMAJSAT via constrained vtrees)",
        "one circuit traversal answers the NP^PP / PP^PP queries; brute \
         force pays 2^|Y|·2^|Z| per instance",
    );
    let mut all_ok = true;

    section("correctness: circuit vs brute force");
    let mut rng = Rng::new(0xe16);
    let mut agree = true;
    for trial in 0..6 {
        let ny = 3 + trial % 2;
        let nz = 5 + trial % 3;
        let cnf = random_3cnf(&mut rng, ny + nz, (ny + nz) * 2);
        let y_vars: Vec<Var> = (0..ny as u32).map(Var).collect();
        let (m, f, u) = compile_sdd_constrained(&cnf, &y_vars);
        let threshold = (1u128 << (nz - 1)) + 1;
        let (best_b, maj_b) = brute_best_and_majority(&cnf, ny, threshold);
        agree &= m.emajsat_count(f, u) == best_b;
        agree &= m.majmajsat_count(f, u, threshold) == maj_b;
    }
    all_ok &= check("6/6 instances agree on both queries", agree);

    section("timing sweep: circuit traversal vs brute force");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>12}",
        "|Y|+|Z|", "SDD size", "compile+query", "brute force", "speedup"
    );
    let mut sweep_agree = true;
    for (ny, nz) in [(4usize, 6usize), (5, 8), (6, 10), (7, 12)] {
        let cnf = random_3cnf(&mut Rng::new((ny * nz) as u64), ny + nz, (ny + nz) * 2);
        let y_vars: Vec<Var> = (0..ny as u32).map(Var).collect();
        let ((size, circuit_best), t_circuit) = timed(|| {
            let (m, f, u) = compile_sdd_constrained(&cnf, &y_vars);
            (m.size(f), m.emajsat_count(f, u))
        });
        let ((brute_best, _), t_brute) =
            timed(|| brute_best_and_majority(&cnf, ny, 1u128 << (nz - 1)));
        println!(
            "{:>7}+{:<3} {:>12} {:>13.4}s {:>13.4}s {:>11.1}×",
            ny,
            nz,
            size,
            t_circuit,
            t_brute,
            t_brute / t_circuit.max(1e-9)
        );
        sweep_agree &= circuit_best == brute_best;
    }
    all_ok &= check("every swept instance agrees", sweep_agree);

    section("crossover: brute force doubles per variable; the circuit does not");
    let (ny, nz) = (8usize, 14usize);
    let cnf = random_3cnf(&mut Rng::new(99), ny + nz, (ny + nz) * 2);
    let y_vars: Vec<Var> = (0..ny as u32).map(Var).collect();
    let (_, t_circuit) = timed(|| {
        let (m, f, u) = compile_sdd_constrained(&cnf, &y_vars);
        m.emajsat_count(f, u)
    });
    row(
        &format!("circuit at |Y|+|Z| = {}", ny + nz),
        format!(
            "{t_circuit:.4}s (brute force would enumerate 2^{} pairs)",
            ny + nz
        ),
    );
    all_ok &= check("large instance finishes under a second", t_circuit < 1.0);

    println!();
    check("E16 overall", all_ok);
    exit_code()
}
