//! E15 — §3: compilers as the engine of (weighted) model counting, and
//! Fig. 1's "compile once, query many" amortization. Includes the
//! component-caching ablation called out in DESIGN.md.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, random_3cnf, row, section, timed, Rng};
use trl_compiler::{CacheMode, DecisionDnnfCompiler, Heuristic, SignatureMode};
use trl_core::Var;
use trl_nnf::properties::smooth;
use trl_nnf::LitWeights;
use trl_prop::Solver;

/// A chain-structured CNF (n blocks, loosely coupled): the component
/// machinery's best case.
fn chain_cnf(blocks: usize) -> trl_prop::Cnf {
    let n = blocks * 3;
    let mut cnf = trl_prop::Cnf::new(n);
    for b in 0..blocks {
        let x = |i: usize| Var((b * 3 + i) as u32);
        cnf.add_clause([x(0).positive(), x(1).positive()]);
        cnf.add_clause([x(1).negative(), x(2).positive()]);
        if b + 1 < blocks {
            cnf.add_clause([x(2).negative(), Var((b * 3 + 3) as u32).positive()]);
        }
    }
    cnf
}

fn main() -> ExitCode {
    banner(
        "E15",
        "§3 (compilers for #SAT/WMC) + Fig. 1 (compile once, query many)",
        "compile-then-count matches search-based counting; caching and \
         amortization change the constants dramatically",
    );
    let mut all_ok = true;
    let mut rng = Rng::new(0xbeef);

    section("correctness sweep: compiled counts = DPLL counts (random 3-CNF)");
    let mut agree = true;
    for _ in 0..8 {
        let n = 10 + rng.below(5);
        let m = (n as f64 * 3.5) as usize;
        let cnf = random_3cnf(&mut rng, n, m);
        let circuit = DecisionDnnfCompiler::default().compile(&cnf);
        agree &= circuit.model_count() == Solver::new(&cnf).count_models() as u128;
    }
    all_ok &= check("8/8 random instances agree", agree);

    section("component caching ablation");
    // Structural hashing already merges identical subcircuits, so the
    // *size* of the output matches; the cache's win is avoiding repeated
    // exploration — i.e. compile time.
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "n", "cached time", "uncached time", "count"
    );
    let mut cached_total = 0.0;
    let mut uncached_total = 0.0;
    let mut cache_agree = true;
    for n in [14usize, 16, 18] {
        let cnf = random_3cnf(
            &mut Rng::new(n as u64 * 3 + 1),
            n,
            (n as f64 * 2.2) as usize,
        );
        let (cached, t_cached) =
            timed(|| DecisionDnnfCompiler::new(CacheMode::Components).compile(&cnf));
        let (uncached, t_uncached) =
            timed(|| DecisionDnnfCompiler::new(CacheMode::None).compile(&cnf));
        println!(
            "{:>8} {:>13.4}s {:>13.4}s {:>14}",
            n,
            t_cached,
            t_uncached,
            cached.model_count()
        );
        cache_agree &= cached.model_count() == uncached.model_count();
        cached_total += t_cached;
        uncached_total += t_uncached;
    }
    all_ok &= check(
        "caching does not slow compilation down overall",
        cached_total <= uncached_total * 1.5,
    );
    // Chain CNFs demonstrate the component split itself: counts stay exact.
    for blocks in [8usize, 16] {
        let cnf = chain_cnf(blocks);
        let cached = DecisionDnnfCompiler::new(CacheMode::Components).compile(&cnf);
        let uncached = DecisionDnnfCompiler::new(CacheMode::None).compile(&cnf);
        cache_agree &= cached.model_count() == uncached.model_count();
    }
    all_ok &= check(
        "random and chain-CNF counts agree across cache modes",
        cache_agree,
    );

    section("cache signature ablation: packed (hashed) vs exact keys");
    // The packed signature hashes reduced clause content instead of
    // materializing it; the count must be identical, and probe cost drops.
    let mut sig_agree = true;
    let mut t_packed = 0.0;
    let mut t_exact = 0.0;
    for n in [14usize, 16, 18] {
        let cnf = random_3cnf(
            &mut Rng::new(n as u64 * 5 + 2),
            n,
            (n as f64 * 3.0) as usize,
        );
        let (packed, tp) = timed(|| {
            DecisionDnnfCompiler::default()
                .with_signature(SignatureMode::Packed)
                .compile(&cnf)
        });
        let (exact, te) = timed(|| {
            DecisionDnnfCompiler::default()
                .with_signature(SignatureMode::Exact)
                .compile(&cnf)
        });
        sig_agree &= packed.model_count() == exact.model_count();
        t_packed += tp;
        t_exact += te;
    }
    row("packed signatures total", format!("{t_packed:.4}s"));
    row("exact keys total", format!("{t_exact:.4}s"));
    all_ok &= check("packed and exact signatures count identically", sig_agree);

    section("branching heuristic ablation: VSADS vs static orders");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "n", "vsads", "max-occ", "first-var", "count"
    );
    let mut heur_agree = true;
    for n in [14usize, 16, 18] {
        let cnf = random_3cnf(
            &mut Rng::new(n as u64 * 7 + 3),
            n,
            (n as f64 * 3.0) as usize,
        );
        let (vsads, tv) = timed(|| {
            DecisionDnnfCompiler::default()
                .with_heuristic(Heuristic::Vsads)
                .compile(&cnf)
        });
        let (maxocc, tm) = timed(|| {
            DecisionDnnfCompiler::default()
                .with_heuristic(Heuristic::MaxOccurrence)
                .compile(&cnf)
        });
        let (first, tf) = timed(|| {
            DecisionDnnfCompiler::default()
                .with_heuristic(Heuristic::FirstUnassigned)
                .compile(&cnf)
        });
        let count = vsads.model_count();
        println!("{n:>8} {tv:>11.4}s {tm:>11.4}s {tf:>11.4}s {count:>14}");
        heur_agree &= count == maxocc.model_count() && count == first.model_count();
    }
    all_ok &= check("all heuristics count identically", heur_agree);

    section("amortization: one compilation, many weighted queries (Fig. 1)");
    let n = 14;
    let cnf = random_3cnf(&mut Rng::new(7), n, 40);
    let queries = 200;
    // Route A: compile once, evaluate many WMC queries on the circuit.
    let ((), compile_and_query) = timed(|| {
        let circuit = smooth(&DecisionDnnfCompiler::default().compile(&cnf));
        for q in 0..queries {
            let mut w = LitWeights::unit(n);
            w.set(Var((q % n) as u32).positive(), 0.5);
            let _ = circuit.wmc_presmoothed(&w);
        }
    });
    // Route B: re-run the search-based counter per query (weighted DPLL is
    // approximated by recompiling, the honest search-per-query cost).
    let ((), search_per_query) = timed(|| {
        for q in 0..queries {
            let mut w = LitWeights::unit(n);
            w.set(Var((q % n) as u32).positive(), 0.5);
            let circuit = DecisionDnnfCompiler::default().compile(&cnf);
            let _ = circuit.wmc(&w);
        }
    });
    row(
        &format!("compile-once + {queries} queries"),
        format!("{compile_and_query:.4}s"),
    );
    row(
        &format!("search per query × {queries}"),
        format!("{search_per_query:.4}s"),
    );
    row(
        "speedup",
        format!("{:.1}×", search_per_query / compile_and_query.max(1e-9)),
    );
    all_ok &= check(
        "amortized querying wins by ≥ 5×",
        search_per_query > 5.0 * compile_and_query,
    );

    section("compile+count vs plain DPLL counting (single query)");
    println!("{:>6} {:>14} {:>14}", "n", "compile+count", "DPLL count");
    let mut single_agree = true;
    for n in [12usize, 14, 16] {
        let cnf = random_3cnf(&mut Rng::new(n as u64), n, (n as f64 * 3.0) as usize);
        let (c1, t1) = timed(|| DecisionDnnfCompiler::default().compile(&cnf).model_count());
        let (c2, t2) = timed(|| Solver::new(&cnf).count_models() as u128);
        println!("{n:>6} {t1:>13.4}s {t2:>13.4}s");
        single_agree &= c1 == c2;
    }
    all_ok &= check("single-query counts agree at every size", single_agree);

    println!();
    check("E15 overall", all_ok);
    exit_code()
}
