//! Trace export and replay: write the synthetic Didi workload to CSV (the
//! stand-in for the paper's published Dataset artifact), read it back, and
//! run the ride-hailing topology from the replayed records instead of the
//! live generator — byte-identical results from a portable file.
//!
//! Run with:
//! ```text
//! cargo run --release --example trace_replay
//! ```

use std::io::BufReader;
use whale::apps::ride_hailing;
use whale::dsps::{run_topology, CommMode, FabricKind, IterSpout, LiveConfig, Operators, Tuple, Value};
use whale::workloads::trace;
use whale::workloads::DidiConfig;

fn main() {
    let seed = 2024;
    let config = DidiConfig::default();
    let locations = 5_000u64;
    let requests = 500u64;

    // 1. Export both streams to CSV (in-memory here; write to disk with a
    //    File in real use).
    let mut loc_csv = Vec::new();
    trace::export_locations(&mut loc_csv, seed, config, locations).unwrap();
    let mut ord_csv = Vec::new();
    trace::export_orders(&mut ord_csv, seed + 5_000, config, requests).unwrap();
    println!(
        "exported traces: locations {} bytes, orders {} bytes",
        loc_csv.len(),
        ord_csv.len()
    );

    // 2. Replay: parse the CSVs back into records...
    let locs = trace::import_locations(BufReader::new(&loc_csv[..])).unwrap();
    let ords = trace::import_orders(BufReader::new(&ord_csv[..])).unwrap();
    println!(
        "replayed {} locations and {} orders",
        locs.len(),
        ords.len()
    );

    // 3. ...and feed them to the topology through iterator spouts with the
    //    same event schema the generator spouts produce.
    let loc_tuples: Vec<Tuple> = locs
        .iter()
        .enumerate()
        .map(|(i, l)| {
            Tuple::with_id(
                i as u64 + 1,
                vec![
                    Value::I64(0), // location tag
                    Value::I64(l.driver_id as i64),
                    Value::F64(l.lat),
                    Value::F64(l.lng),
                    Value::I64(l.ts),
                ],
            )
        })
        .collect();
    let ord_tuples: Vec<Tuple> = ords
        .iter()
        .map(|o| {
            Tuple::with_id(
                1_000_000_000 + o.order_id,
                vec![
                    Value::I64(1), // request tag
                    Value::I64(o.order_id as i64),
                    Value::F64(o.lat),
                    Value::F64(o.lng),
                    Value::I64(o.ts),
                ],
            )
        })
        .collect();

    let operators = Operators::new()
        .spout("locations", move |_| {
            Box::new(IterSpout::new(loc_tuples.clone().into_iter()))
        })
        .spout("requests", move |_| {
            Box::new(IterSpout::new(ord_tuples.clone().into_iter()))
        })
        .bolt("matching", |_| Box::new(ride_hailing::MatchingBolt::new()))
        .bolt("aggregation", |_| {
            Box::new(ride_hailing::AggregationBolt::new())
        });

    let parallelism = 16;
    let report = run_topology(
        ride_hailing::topology(parallelism),
        operators,
        LiveConfig {
            machines: 4,
            comm_mode: CommMode::WorkerOriented,
            zero_copy: true,
            multicast_d_star: Some(2),
            fabric: FabricKind::PerSend,
            ..LiveConfig::default()
        },
    );

    println!(
        "\nreplayed run: matching executed {} tuples ({} locations + {} requests x {} instances)",
        report.executed[2], locations, requests, parallelism
    );
    assert_eq!(
        report.executed[2],
        locations + requests * parallelism as u64
    );
    println!(
        "aggregation received {} candidates; wall time {:?}",
        report.executed[3], report.elapsed
    );
    println!(
        "\nThe same CSV replays identically on any machine — the trace is the experiment input."
    );
}
