//! E08 — Fig. 17: distributions over rankings. The n² encoding compiles to
//! a circuit counting exactly n! models; PSDD parameters learned from
//! Mallows-sampled rankings are compared, by exact KL divergence, against
//! the dedicated Mallows MLE baseline (\[17\]'s "competitive with dedicated
//! approaches").

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_core::{Assignment, Var};
use trl_psdd::Psdd;
use trl_sdd::SddManager;
use trl_spaces::mallows::{kendall_tau, Mallows};
use trl_spaces::rankings::RankingSpace;
use trl_vtree::Vtree;

fn main() -> ExitCode {
    banner(
        "E08",
        "Figure 17 (encoding rankings using SDDs) + §4.1, [17]",
        "the compiled ranking space has n! models; a PSDD learned from \
         ranking data approaches the dedicated Mallows baseline",
    );
    let mut all_ok = true;

    section("compile ranking spaces (n² variables, Fig. 17)");
    println!(
        "{:>4} {:>8} {:>12} {:>12}",
        "n", "vars", "models", "OBDD size"
    );
    let mut counts_agree = true;
    for n in 2..=6usize {
        let space = RankingSpace::new(n);
        let (obdd, root) = space.compile();
        let factorial: u128 = (1..=n as u128).product();
        println!(
            "{:>4} {:>8} {:>12} {:>12}",
            n,
            space.num_vars(),
            obdd.count_models(root),
            obdd.size(root)
        );
        counts_agree &= obdd.count_models(root) == factorial;
    }
    all_ok &= check("model counts are n!", counts_agree);

    section("learn a ranking distribution (n = 4, Mallows ground truth)");
    let n = 4usize;
    let space = RankingSpace::new(n);
    let (obdd, root) = space.compile();
    let truth = Mallows::new(vec![0, 1, 2, 3], 1.0);
    let mut state = 0xfeed_f00du64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rankings: Vec<Vec<usize>> = (0..20_000).map(|_| truth.sample(&mut uniform)).collect();

    // PSDD route: encode each ranking over n² variables.
    let mut sdd = SddManager::new(Vtree::right_linear(
        &(0..space.num_vars() as u32).map(Var).collect::<Vec<_>>(),
    ));
    let support = sdd.from_obdd(&obdd, root);
    let mut psdd = Psdd::from_sdd(&sdd, support);
    let data: Vec<(Assignment, f64)> = rankings.iter().map(|r| (space.encode(r), 1.0)).collect();
    let outside = psdd.learn(&data, 0.05);
    row(
        "PSDD size / training examples",
        format!("{} / {}", psdd.size(), data.len()),
    );
    all_ok &= check("every sample is a valid ranking", outside == 0.0);

    // Dedicated baseline: Mallows with fitted center and θ.
    let weighted: Vec<(Vec<usize>, f64)> = rankings.iter().map(|r| (r.clone(), 1.0)).collect();
    let center = Mallows::fit_center(n, &weighted);
    let theta = Mallows::fit_theta(&center, &weighted);
    let fitted = Mallows::new(center.clone(), theta);
    row(
        "Mallows MLE",
        format!("center {center:?}, θ = {theta:.3} (truth 1.0)"),
    );
    all_ok &= check("baseline recovers the center", center == truth.center);
    all_ok &= check("baseline recovers θ within 0.1", (theta - 1.0).abs() < 0.1);

    section("exact KL(model ‖ truth) over all 24 rankings");
    // Truth as a function over assignments.
    let truth_fn = |a: &Assignment| -> f64 {
        match space.decode(a) {
            Some(r) => truth.probability(&r),
            None => 0.0,
        }
    };
    let kl_psdd = psdd.kl_divergence(&truth_fn);
    // KL of the fitted Mallows vs truth, over rankings directly.
    let mut kl_mallows = 0.0;
    let mut stack = vec![vec![]];
    let mut all_rankings: Vec<Vec<usize>> = Vec::new();
    while let Some(prefix) = stack.pop() {
        if prefix.len() == n {
            all_rankings.push(prefix);
            continue;
        }
        for pos in 0..n {
            if !prefix.contains(&pos) {
                let mut next = prefix.clone();
                next.push(pos);
                stack.push(next);
            }
        }
    }
    for r in &all_rankings {
        let p = fitted.probability(r);
        let q = truth.probability(r);
        kl_mallows += p * (p / q).ln();
    }
    row("KL(PSDD ‖ truth)", format!("{kl_psdd:.5}"));
    row("KL(Mallows MLE ‖ truth)", format!("{kl_mallows:.5}"));
    all_ok &= check("PSDD is close to the truth (KL < 0.05)", kl_psdd < 0.05);
    all_ok &= check(
        "PSDD is competitive with the dedicated baseline (within 0.05 nats)",
        kl_psdd < kl_mallows + 0.05,
    );

    section("reasoning the dedicated model cannot do directly: MAR queries");
    // Pr(item 0 ranked first): marginal on one Boolean variable.
    let mut e = trl_core::PartialAssignment::new(space.num_vars());
    e.assign(space.var(0, 0).positive());
    let circuit_marginal = psdd.marginal(&e);
    let empirical = rankings.iter().filter(|r| r[0] == 0).count() as f64 / rankings.len() as f64;
    row(
        "Pr(item 0 in position 0) PSDD / empirical",
        format!("{circuit_marginal:.4} / {empirical:.4}"),
    );
    all_ok &= check(
        "marginal tracks the data",
        (circuit_marginal - empirical).abs() < 0.02,
    );

    let _ = kendall_tau(&[0, 1], &[0, 1]); // keep the helper exercised
    println!();
    check("E08 overall", all_ok);
    exit_code()
}
