//! E17 — §2 and \[32\]: reduction-based inference wins when networks have an
//! abundance of 0/1 parameters and context-specific independence. Sweeps
//! network determinism and compares circuit sizes under the baseline vs
//! local-structure encodings, and circuit query time vs VE.

use trl_bayesnet::models::random_network;
use trl_bayesnet::{BnEncoding, CompiledBn, EncodingStyle};
use trl_bench::{banner, check, row, section, timed};
use trl_compiler::DecisionDnnfCompiler;

fn main() {
    banner(
        "E17",
        "§2 / [32] (reductions win under 0/1 parameters and CSI)",
        "as determinism grows, the local-structure encoding and its \
         compiled circuit shrink; answers stay exact vs VE",
    );
    let mut all_ok = true;

    section("determinism sweep: encoding and circuit sizes (n = 14 variables)");
    println!(
        "{:>12} {:>16} {:>16} {:>16} {:>16}",
        "determinism", "base enc vars", "local enc vars", "base circuit", "local circuit"
    );
    let mut sizes: Vec<(f64, usize, usize)> = Vec::new();
    for det in [0.0, 0.3, 0.6, 0.9] {
        let bn = random_network(421, 14, 3, det);
        let base = BnEncoding::new(&bn, EncodingStyle::Baseline);
        let local = BnEncoding::new(&bn, EncodingStyle::LocalStructure);
        let cbase = DecisionDnnfCompiler::default().compile(&base.cnf);
        let clocal = DecisionDnnfCompiler::default().compile(&local.cnf);
        println!(
            "{:>12.1} {:>16} {:>16} {:>16} {:>16}",
            det,
            base.cnf.num_vars(),
            local.cnf.num_vars(),
            cbase.edge_count(),
            clocal.edge_count()
        );
        sizes.push((det, cbase.edge_count(), clocal.edge_count()));
    }
    let low_ratio = sizes[0].2 as f64 / sizes[0].1 as f64;
    let high_ratio = sizes.last().unwrap().2 as f64 / sizes.last().unwrap().1 as f64;
    row(
        "local/baseline circuit ratio (det 0.0 → 0.9)",
        format!("{low_ratio:.2} → {high_ratio:.2}"),
    );
    all_ok &= check(
        "local-structure advantage grows with determinism",
        high_ratio < low_ratio,
    );
    all_ok &= check(
        "at high determinism the local circuit is ≥ 2× smaller",
        sizes.last().unwrap().1 as f64 >= 2.0 * sizes.last().unwrap().2 as f64,
    );

    section("exactness: circuit posteriors vs VE on a deterministic-heavy net");
    let bn = random_network(99, 10, 3, 0.7);
    let compiled = CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure);
    let mut agree = true;
    let ev = vec![(3usize, 1usize)];
    match compiled.posteriors(&ev) {
        Ok(circuit_posts) => {
            #[allow(clippy::needless_range_loop)] // v indexes parallel per-variable tables
            for v in 0..bn.num_vars() {
                let ve = bn.posterior(v, &ev);
                for val in 0..2 {
                    agree &= (circuit_posts[v][val] - ve[val]).abs() < 1e-9;
                }
            }
        }
        // Zero-probability evidence has no posteriors; VE must agree.
        Err(_) => agree = bn.pr_evidence(&ev) == 0.0,
    }
    all_ok &= check("all posteriors agree with VE", agree);

    section("repeated queries: compiled circuit vs VE (the practical win)");
    let bn = random_network(7, 14, 3, 0.6);
    let (compiled, t_compile) =
        timed(|| CompiledBn::new(bn.clone(), EncodingStyle::LocalStructure));
    let queries: Vec<Vec<(usize, usize)>> =
        (0..40).map(|q| vec![((q * 3 + 1) % 14, q % 2)]).collect();
    let (_, t_circuit) = timed(|| {
        for ev in &queries {
            // Zero-probability evidence is a typed error, not a panic.
            let _ = compiled.posteriors(ev);
        }
    });
    let (_, t_ve) = timed(|| {
        for ev in &queries {
            if bn.pr_evidence(ev) > 0.0 {
                #[allow(clippy::needless_range_loop)] // v indexes parallel per-variable tables
                for v in 0..bn.num_vars() {
                    let _ = bn.posterior(v, ev);
                }
            }
        }
    });
    row("one-time compilation", format!("{t_compile:.4}s"));
    row(
        &format!("{} full posterior sweeps on the circuit", queries.len()),
        format!("{t_circuit:.4}s"),
    );
    row(
        &format!("{} full posterior sweeps with VE", queries.len()),
        format!("{t_ve:.4}s"),
    );
    row(
        "query-time speedup",
        format!("{:.1}×", t_ve / t_circuit.max(1e-9)),
    );
    all_ok &= check("compiled queries are faster than VE", t_circuit < t_ve);

    println!();
    check("E17 overall", all_ok);
}
