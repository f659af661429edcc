//! The repository benchmark: four closed-loop workloads over the
//! three-roles stack (two of them gated by `BENCHMARK.json`), each printing
//! its end-to-end metrics (untraced run) or its per-layer stations (traced
//! run) and checking every answer.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run them.

pub mod gen;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod workloads;

use std::path::Path;

use report::{END_TO_END, PER_LAYER};
use workloads::Opts;

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// Runs the benchmark for `args` (without the program name). Prints the
/// header, the summary and, as the last line, the JSON result.
pub fn main_with_args(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!(
        "perfbench: commit {}, nproc {}, lane backend {}, run mode {} (workload {}, seed {}, {} s)",
        report::commit_of(&root),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        layers::nnf::lane_backend(),
        if opts.traced { "traced" } else { "untraced" },
        opts.workload,
        opts.seed,
        opts.seconds
    );
    let report = workloads::run(&opts)?;
    let catalogue = if opts.traced { PER_LAYER } else { END_TO_END };
    println!("{}", report.json_line(catalogue)?);
    Ok(())
}
