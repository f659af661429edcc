//! E05 — Figs. 10–12 and \[5\]: the succinctness separation between SDDs and
//! OBDDs. SDDs subsume OBDDs (right-linear vtree ⟺ OBDD, Fig. 10c) and
//! are exponentially more succinct: for the crossed-equalities family
//! `⋀ᵢ (xᵢ ⇔ yᵢ)` under an interleaving-hostile variable order, a balanced
//! "good" vtree keeps the SDD linear while the OBDD (= right-linear-vtree
//! SDD) grows exponentially.

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::Var;
use trl_obdd::Obdd;
use trl_prop::Formula;
use trl_sdd::SddManager;
use trl_vtree::{Shape, Vtree};

/// ⋀ᵢ (xᵢ ⇔ yᵢ) with x-block variables 0..n and y-block n..2n. The fixed
/// variable order (all x's, then all y's) is hostile to ordered diagrams —
/// the function must remember the whole x-block — but a vtree pairing each
/// xᵢ with its yᵢ keeps every decision local.
fn crossed_equalities(n: usize) -> Formula {
    Formula::conj((0..n as u32).map(|i| Formula::var(Var(i)).iff(Formula::var(Var(i + n as u32)))))
}

fn paired_vtree(n: usize) -> Vtree {
    // Balanced over pair-subtrees {xᵢ, yᵢ}.
    fn balanced(pairs: &[Shape]) -> Shape {
        match pairs {
            [one] => one.clone(),
            _ => {
                let mid = pairs.len() / 2;
                Shape::Internal(
                    Box::new(balanced(&pairs[..mid])),
                    Box::new(balanced(&pairs[mid..])),
                )
            }
        }
    }
    let pairs: Vec<Shape> = (0..n as u32)
        .map(|i| {
            Shape::Internal(
                Box::new(Shape::Leaf(Var(i))),
                Box::new(Shape::Leaf(Var(i + n as u32))),
            )
        })
        .collect();
    Vtree::from_shape(&balanced(&pairs))
}

fn main() -> ExitCode {
    banner(
        "E05",
        "Figures 10–12, claim of [5] (SDDs exponentially more succinct than OBDDs)",
        "OBDD size doubles per pair under the hostile order; a pair-aware \
         vtree keeps the SDD linear; right-linear vtrees reproduce OBDD shape",
    );
    let mut all_ok = true;

    section("size sweep: ⋀ (xᵢ ⇔ yᵢ), order x₁..xₙ y₁..yₙ");
    println!(
        "{:>4} {:>14} {:>20} {:>22}",
        "n", "OBDD nodes", "SDD (pair vtree)", "SDD (right-linear)"
    );
    let mut obdd_sizes = Vec::new();
    let mut sdd_sizes = Vec::new();
    for n in 1..=8 {
        let f = crossed_equalities(n);
        let mut obdd = Obdd::with_num_vars(2 * n);
        let b = obdd.build_formula(&f);
        let obdd_size = obdd.size(b);

        let mut good = SddManager::new(paired_vtree(n));
        let rg = good.build_formula(&f);
        let sdd_good = good.size(rg);

        let mut rl = SddManager::right_linear(2 * n);
        let rr = rl.build_formula(&f);
        let sdd_rl = rl.size(rr);

        println!("{n:>4} {obdd_size:>14} {sdd_good:>20} {sdd_rl:>22}");
        obdd_sizes.push(obdd_size as f64);
        sdd_sizes.push(sdd_good as f64);

        // Correctness guard: same model count everywhere.
        let mc = good.model_count(rg);
        all_ok &= mc == obdd.count_models(b) && mc == rl.model_count(rr);
        all_ok &= mc == 1u128 << n;
    }

    section("shape analysis");
    let obdd_ratio = obdd_sizes.last().unwrap() / obdd_sizes[obdd_sizes.len() - 2];
    let sdd_growth = sdd_sizes.last().unwrap() / sdd_sizes[0];
    row(
        "OBDD growth factor at the last step",
        format!("{obdd_ratio:.2} (≈2 = exponential)"),
    );
    row(
        "SDD total growth over the sweep",
        format!("{sdd_growth:.2}× (linear in n)"),
    );
    all_ok &= check("OBDD grows ~2x per pair (exponential)", obdd_ratio > 1.8);
    all_ok &= check(
        "pair-vtree SDD stays linear (≤ 12·n elements)",
        sdd_sizes
            .iter()
            .enumerate()
            .all(|(i, &s)| s <= 12.0 * (i + 1) as f64),
    );

    section("vtree sensitivity (paper: 'linear to exponential')");
    let n = 6;
    let f = crossed_equalities(n);
    let mut good = SddManager::new(paired_vtree(n));
    let rg = good.build_formula(&f);
    let mut bad = SddManager::right_linear(2 * n);
    let rb = bad.build_formula(&f);
    row("same function, good vtree", good.size(rg));
    row("same function, right-linear vtree", bad.size(rb));
    all_ok &= check(
        "vtree choice changes the size class",
        bad.size(rb) > 4 * good.size(rg),
    );

    println!();
    check("E05 overall", all_ok);
    exit_code()
}
