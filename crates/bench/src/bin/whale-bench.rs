//! `whale-bench` — the one experiment runner.
//!
//! ```text
//! whale-bench run <name|id|all> [--smoke]   regenerate one experiment, or every one
//! whale-bench list                          the experiment index (DESIGN.md §4)
//! whale-bench check                         committed BENCH_*.json vs a fresh regeneration
//! ```
//!
//! `run` prints each table and writes `results/<id>.{csv,json}`
//! (`WHALE_RESULTS_DIR` overrides). Scale comes from `--smoke` or
//! `WHALE_SCALE=smoke|full`, quick by default. A headline `BENCH_*.json`
//! lands in the working directory only at the quick scale the committed
//! ones were generated at, and beside the tables otherwise;
//! `WHALE_BENCH_DIR` overrides both.

use std::process::ExitCode;
use std::time::Instant;
use whale_bench::experiments::{find, index_table, REGISTRY};
use whale_bench::{check, results_dir, Scale};

const USAGE: &str = "usage: whale-bench run <name|id|all> [--smoke] | list | check";

fn run(key: &str, scale: Scale) -> ExitCode {
    if key == "all" {
        println!("reproducing the Whale (SC'21) evaluation at scale {scale:?}\n");
        for e in REGISTRY {
            println!("──────── {} {} ────────", e.id, e.title);
            let start = Instant::now();
            e.emit(scale);
            println!("({} took {:?})\n", e.name, start.elapsed());
        }
        println!("done — CSVs in {}", results_dir().display());
        return ExitCode::SUCCESS;
    }
    match find(key) {
        Some(e) => {
            e.emit(scale);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("no experiment named {key:?}; `whale-bench list` shows them all");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["run", key] => run(key, Scale::from_env()),
        ["run", key, "--smoke"] | ["run", "--smoke", key] => run(key, Scale::Smoke),
        ["list"] => {
            print!("{}", index_table());
            ExitCode::SUCCESS
        }
        ["check"] => {
            let failures = check::run();
            for failure in &failures {
                eprintln!("FAIL {failure}");
            }
            if failures.is_empty() {
                println!("every committed headline report is current and sound");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
