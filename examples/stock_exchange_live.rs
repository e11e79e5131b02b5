//! The stock exchange application on the live runtime: split →
//! key-grouped sells / broadcast buys → order matching → trading-volume
//! aggregation, over synthetic NASDAQ-style records.
//!
//! Run with:
//! ```text
//! cargo run --release --example stock_exchange_live
//! ```

use whale::apps::stock_exchange;
use whale::dsps::{run_topology, CommMode, FabricKind, LiveConfig};
use whale::workloads::NasdaqConfig;

fn main() {
    let matching_parallelism = 16;
    let machines = 4;
    let records = 50_000;

    println!(
        "stock exchange: {records} records over {} symbols, matching parallelism {matching_parallelism}\n",
        NasdaqConfig::default().symbols
    );

    let topology = stock_exchange::topology(matching_parallelism);
    let operators = stock_exchange::operators(33, NasdaqConfig::default(), records);
    let report = run_topology(
        topology,
        operators,
        LiveConfig {
            machines,
            comm_mode: CommMode::WorkerOriented,
            zero_copy: true,
            // Relay broadcast buys through the non-blocking tree (d* = 2).
            multicast_d_star: Some(2),
            fabric: FabricKind::PerSend,
            ..LiveConfig::default()
        },
    );

    println!("pipeline counts:");
    println!("  source emitted       {}", report.spout_emitted);
    println!("  split (sell side)    {}", report.executed[1]);
    println!("  split (buy side)     {}", report.executed[2]);
    println!("  matching executions  {}", report.executed[3]);
    println!("  trades aggregated    {}", report.executed[4]);
    println!("  wall time            {:?}", report.elapsed);
    println!("  serializations       {}", report.serializations);
    println!(
        "\nBuy orders are broadcast to all {matching_parallelism} matching instances (all \
         grouping);\nsell orders are key-grouped by symbol, so each symbol's book lives on one instance."
    );
}
