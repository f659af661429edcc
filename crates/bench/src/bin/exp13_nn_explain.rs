//! E13 — Fig. 28: explaining the decisions of a neural network. A
//! binarized network trained on synthetic digit images is compiled into an
//! OBDD; a correctly classified image gets a sufficient reason touching
//! only a small fraction of the pixels (the paper: 3 of 256 pixels for a
//! 98.74%-accurate CNN).

use std::process::ExitCode;

use trl_bench::{banner, check, exit_code, row, section};
use trl_xai::images::{digit_dataset, one_prototype, render, PIXELS};
use trl_xai::{Bnn, ReasonCircuit};

fn main() -> ExitCode {
    banner(
        "E13",
        "Figure 28 (explaining the decisions of a neural network)",
        "a few pixels suffice to lock the network's classification, found \
         exactly on the compiled circuit",
    );
    let mut all_ok = true;

    section("train a binarized network on 4×4 digit images");
    let train = digit_dataset(60, 0.08, 2024);
    let test = digit_dataset(40, 0.08, 4048);
    let (net, train_acc) = Bnn::train(PIXELS, 3, &train, 11, 8);
    let test_acc =
        test.iter().filter(|(x, y)| net.classify(x) == *y).count() as f64 / test.len() as f64;
    row(
        "training / test accuracy",
        format!("{train_acc:.4} / {test_acc:.4}"),
    );
    all_ok &= check("the network learned the task (test ≥ 0.9)", test_acc >= 0.9);

    section("compile the network (input–output equivalent circuit)");
    let (mut m, f, layers) = net.compile();
    row("output OBDD size", m.size(f));
    row(
        "hidden-neuron OBDD sizes",
        layers[0]
            .iter()
            .map(|&h| m.size(h).to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    // Spot-check equivalence on the datasets (exhaustive equivalence is
    // guaranteed by construction and tested in the crate's unit tests).
    let spot = train
        .iter()
        .chain(&test)
        .all(|(x, _)| m.eval(f, x) == net.classify(x));
    all_ok &= check("circuit agrees with the network on every sample", spot);

    section("explain a correctly classified 'digit 1' image");
    let image = one_prototype();
    let classified = m.eval(f, &image);
    println!("{}", render(&image));
    row("classified as digit 1", classified);
    let rc = ReasonCircuit::new(&mut m, f, &image);
    let reasons = rc.sufficient_reasons();
    let smallest = reasons
        .iter()
        .min_by_key(|r| r.len())
        .expect("decision has at least one reason");
    row("number of sufficient reasons", reasons.len());
    row(
        "smallest sufficient reason",
        format!("{} of {PIXELS} pixels: {smallest}", smallest.len()),
    );
    all_ok &= check(
        "a small fraction of pixels suffices (≤ 1/2 of them)",
        smallest.len() <= PIXELS / 2,
    );

    // The defining property, verified directly: fixing only those pixels
    // forces the classification regardless of all others.
    let forced = {
        let cube = trl_core::Cube::from_lits(smallest.literals().iter().copied());
        let cond = m.condition(f, &cube);
        if classified {
            cond == trl_obdd::Obdd::TRUE
        } else {
            cond == trl_obdd::Obdd::FALSE
        }
    };
    all_ok &= check(
        "fixing those pixels forces the decision for all 2^k completions",
        forced,
    );

    section("neuron-level interpretation (§5.2)");
    for (j, &h) in layers[0].iter().enumerate() {
        let fires = m.count_models(h);
        let frac = fires as f64 / (1u128 << PIXELS) as f64;
        let p_bar = Bnn::neuron_input_proportion(&m, h, 5); // a bar pixel
        row(
            &format!("hidden neuron {j}"),
            format!(
                "fires on {frac:.3} of inputs; Pr(pixel 5 = 1 | fires) = {}",
                p_bar.map_or("n/a".into(), |p| format!("{p:.3}"))
            ),
        );
    }

    println!();
    check("E13 overall", all_ok);
    exit_code()
}
