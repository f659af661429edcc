//! E07 — Fig. 16: distributions over routes. Map edges are Boolean
//! variables; the space of simple s–t paths compiles with the frontier
//! method; PSDD parameters are learned from sampled routes; edge marginals
//! and route probabilities follow by linear-time circuit queries.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section, Rng};
use trl_core::{Assignment, PartialAssignment, Var};
use trl_psdd::Psdd;
use trl_sdd::SddManager;
use trl_spaces::{compile_simple_paths, GridMap};
use trl_vtree::Vtree;

fn main() -> ExitCode {
    banner(
        "E07",
        "Figure 16 (encoding routes using SDDs)",
        "compiled path circuits recognize exactly the valid routes; PSDDs \
         learned from GPS-like data answer route queries",
    );
    let mut all_ok = true;

    section("compile corner-to-corner simple paths of n×n grids");
    println!(
        "{:>6} {:>10} {:>14} {:>12}",
        "grid", "edges", "paths", "OBDD size"
    );
    let mut counts_agree = true;
    for n in 2..=6usize {
        let g = GridMap::new(n, n);
        let (obdd, root) = compile_simple_paths(g.graph(), g.node(0, 0), g.node(n - 1, n - 1));
        println!(
            "{:>4}x{:<1} {:>10} {:>14} {:>12}",
            n,
            n,
            g.graph().num_edges(),
            obdd.count_models(root),
            obdd.size(root)
        );
        if n <= 4 {
            let brute = g
                .graph()
                .enumerate_simple_paths(g.node(0, 0), g.node(n - 1, n - 1))
                .len() as u128;
            counts_agree &= obdd.count_models(root) == brute;
        }
    }
    all_ok &= check(
        "counts verified against DFS enumeration (n ≤ 4)",
        counts_agree,
    );

    section("learn a route distribution on the 3×3 grid");
    let g = GridMap::new(3, 3);
    let (s, t) = (g.node(0, 0), g.node(2, 2));
    let (obdd, root) = compile_simple_paths(g.graph(), s, t);
    let m_edges = g.graph().num_edges();
    let mut sdd = SddManager::new(Vtree::right_linear(
        &(0..m_edges as u32).map(Var).collect::<Vec<_>>(),
    ));
    let support = sdd.from_obdd(&obdd, root);
    let mut psdd = Psdd::from_sdd(&sdd, support);
    row("route space", format!("{} routes", obdd.count_models(root)));
    row("PSDD size", psdd.size());

    // Planted distribution: drivers prefer the "upper" routes — weight a
    // route by 2^(#edges in row 0).
    let paths = g.graph().enumerate_simple_paths(s, t);
    let top_edges: Vec<usize> = (0..m_edges)
        .filter(|&e| {
            let (u, v) = g.graph().edges()[e];
            u < 3 && v < 3
        })
        .collect();
    let mut data: Vec<(Assignment, f64)> = Vec::new();
    let mut rng = Rng::new(77);
    let mut planted: Vec<f64> = paths
        .iter()
        .map(|p| {
            let k = p.iter().filter(|e| top_edges.contains(e)).count();
            (2.0f64).powi(k as i32)
        })
        .collect();
    let z: f64 = planted.iter().sum();
    for w in planted.iter_mut() {
        *w /= z;
    }
    for _ in 0..5000 {
        // Sample a route from the planted distribution.
        let mut r = rng.uniform();
        let mut pick = paths.len() - 1;
        for (i, &w) in planted.iter().enumerate() {
            if r < w {
                pick = i;
                break;
            }
            r -= w;
        }
        data.push((g.graph().assignment_of(&paths[pick]), 1.0));
    }
    let outside = psdd.learn(&data, 0.1);
    row(
        "training routes / outside support",
        format!("{} / {}", data.len(), outside),
    );
    all_ok &= check("all sampled routes are valid", outside == 0.0);

    section("learned vs planted route probabilities");
    let mut max_err: f64 = 0.0;
    for (i, p) in paths.iter().enumerate().take(5) {
        let a = g.graph().assignment_of(p);
        let learned = psdd.probability(&a);
        row(
            &format!("route {i} ({} edges)", p.len()),
            format!("learned {learned:.4}   planted {:.4}", planted[i]),
        );
        max_err = max_err.max((learned - planted[i]).abs());
    }
    for (i, p) in paths.iter().enumerate() {
        let a = g.graph().assignment_of(p);
        max_err = max_err.max((psdd.probability(&a) - planted[i]).abs());
        let _ = i;
    }
    row(
        "max |learned − planted| over all routes",
        format!("{max_err:.4}"),
    );
    all_ok &= check(
        "learned distribution close to planted (< 0.05)",
        max_err < 0.05,
    );

    section("edge marginals (the Fig. 16 usage: how busy is each street?)");
    let mut e0 = PartialAssignment::new(m_edges);
    e0.assign(Var(0).positive());
    let marginal0 = psdd.marginal(&e0);
    let empirical0 =
        data.iter().filter(|(a, _)| a.value(Var(0))).count() as f64 / data.len() as f64;
    row(
        "Pr(edge 0 used) learned / empirical",
        format!("{marginal0:.4} / {empirical0:.4}"),
    );
    all_ok &= check(
        "edge marginal tracks empirical frequency",
        (marginal0 - empirical0).abs() < 0.05,
    );

    println!();
    check("E07 overall", all_ok);
    exit_code()
}
