//! E09 — Figs. 18–22: hierarchical maps, conditional PSDDs, and structured
//! Bayesian networks. Inner navigation becomes independent given the
//! crossing edges; the SBN's region-modular circuits stay small while flat
//! compilation grows with the whole map — the scaling story behind the
//! paper's 8.9M-edge San Francisco PSDD.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section, Rng};
use trl_spaces::hiermap::TwoRegionMap;

fn main() -> ExitCode {
    banner(
        "E09",
        "Figures 18–22 (hierarchical maps, conditional PSDDs, SBNs)",
        "hierarchical (conditional-PSDD) compilation is smaller than flat \
         compilation and supports modular learning and classification",
    );
    let mut all_ok = true;

    section("circuit sizes: flat vs hierarchical, growing maps");
    println!(
        "{:>10} {:>12} {:>14} {:>20}",
        "map", "crossings", "flat circuit", "SBN total circuits"
    );
    let mut last = (0usize, 0usize);
    for (rows, half) in [(2usize, 2usize), (3, 2), (3, 3), (4, 3)] {
        let map = TwoRegionMap::new(rows, half, half);
        let sbn = map.build_sbn();
        let flat = map.flat_circuit_size();
        println!(
            "{:>7}x{:<2} {:>12} {:>14} {:>20}",
            rows,
            2 * half,
            map.crossings().len(),
            flat,
            sbn.total_size()
        );
        last = (flat, sbn.total_size());
    }
    all_ok &= check(
        "hierarchical stays below flat on the largest map",
        last.1 < last.0,
    );

    section("learn the SBN from routes (3x4 map)");
    let map = TwoRegionMap::new(3, 2, 2);
    let mut sbn = map.build_sbn();
    let g = map.full().graph();
    let (s, t) = map.endpoints();
    // All one-crossing routes, with a planted preference for crossing 0.
    let routes: Vec<(usize, Vec<usize>, Vec<usize>)> = g
        .enumerate_simple_paths(s, t)
        .into_iter()
        .filter_map(|p| map.decompose(&p))
        .collect();
    row("one-crossing routes", routes.len());
    let mut rng = Rng::new(31);
    let mut data = Vec::new();
    for _ in 0..4000 {
        // Planted: crossing-0 routes three times as likely.
        let weights: Vec<f64> = routes
            .iter()
            .map(|(c, _, _)| if *c == 0 { 3.0 } else { 1.0 })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut r = rng.uniform() * total;
        let mut pick = routes.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                pick = i;
                break;
            }
            r -= w;
        }
        let (c, l, rr) = &routes[pick];
        data.push((*c, l.clone(), rr.clone(), 1.0));
    }
    sbn.learn(&data, 0.05);

    // Normalization over the one-crossing route space.
    let total: f64 = routes
        .iter()
        .map(|(c, l, r)| sbn.probability(*c, l, r))
        .sum();
    row("Σ Pr over one-crossing routes", format!("{total:.9}"));
    all_ok &= check("SBN distribution normalizes", (total - 1.0).abs() < 1e-6);

    // The planted crossing preference is recovered.
    let pr_c0: f64 = routes
        .iter()
        .filter(|(c, _, _)| *c == 0)
        .map(|(c, l, r)| sbn.probability(*c, l, r))
        .sum();
    let empirical_c0 =
        data.iter().filter(|(c, _, _, _)| *c == 0).count() as f64 / data.len() as f64;
    row(
        "Pr(crossing 0) learned / empirical",
        format!("{pr_c0:.4} / {empirical_c0:.4}"),
    );
    all_ok &= check(
        "crossing preference recovered",
        (pr_c0 - empirical_c0).abs() < 0.02,
    );

    section("classification with the SBN (the task of [79])");
    // Classify which crossing a route used from its left segment only:
    // argmax_c Pr(c) · Pr(left | c).
    let mut correct = 0usize;
    for (c_true, l, _) in &routes {
        let k = map.crossings().len();
        let best = (0..k)
            .map(|c| {
                let mut ca = trl_core::Assignment::all_false(k);
                ca.set(trl_core::Var(c as u32), true);
                let la = {
                    let mut a = trl_core::Assignment::all_false(sbn_left_edges(&map).max(1));
                    for &e in l {
                        a.set(trl_core::Var(e as u32), true);
                    }
                    a
                };
                (
                    c,
                    sbn.top.probability(&ca) * sbn.left.conditional_probability(&la, &ca),
                )
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        if best == *c_true {
            correct += 1;
        }
    }
    let acc = correct as f64 / routes.len() as f64;
    row(
        "crossing prediction accuracy from left segment",
        format!("{acc:.3}"),
    );
    all_ok &= check("left segment is informative (accuracy ≥ 0.9)", acc >= 0.9);

    println!();
    check("E09 overall", all_ok);
    exit_code()
}

fn sbn_left_edges(map: &TwoRegionMap) -> usize {
    // Left-region edge count = full edges minus right edges minus crossings.
    let g = map.full().graph();
    let (_, cols) = map.full().dims();
    let cols_left = cols / 2;
    g.edges()
        .iter()
        .filter(|&&(u, v)| u % cols < cols_left && v % cols < cols_left)
        .count()
}
