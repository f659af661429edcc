//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! bn-infer --seed 1 --seconds 10 --trace 0`

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = trl_perfbench::main_with_args(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
