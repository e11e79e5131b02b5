//! The on-demand ride-hailing application (Fig 4) on the *live* runtime:
//! real threads, real serialization, real message passing through the
//! in-process fabric — comparing Storm-style instance-oriented messaging
//! against Whale's worker-oriented communication.
//!
//! Run with:
//! ```text
//! cargo run --release --example ride_hailing_live
//! ```

use whale::apps::ride_hailing;
use whale::dsps::{run_topology, CommMode, FabricKind, LiveConfig};
use whale::workloads::DidiConfig;

fn main() {
    let matching_parallelism = 32;
    let machines = 8;
    let locations = 20_000;
    let requests = 2_000;

    println!(
        "ride-hailing: {locations} driver locations (key-grouped) + {requests} requests \
         (broadcast to {matching_parallelism} matching instances) on {machines} machines\n"
    );

    for (name, comm, zero_copy, d_star) in [
        (
            "instance-oriented (Storm)",
            CommMode::InstanceOriented,
            false,
            None,
        ),
        (
            "worker-oriented (Whale-WOC)",
            CommMode::WorkerOriented,
            true,
            None,
        ),
        (
            "worker-oriented + multicast tree d*=2 (Whale)",
            CommMode::WorkerOriented,
            true,
            Some(2),
        ),
    ] {
        let topology = ride_hailing::topology(matching_parallelism);
        let operators = ride_hailing::operators(7, DidiConfig::default(), locations, requests);
        let report = run_topology(
            topology,
            operators,
            LiveConfig {
                machines,
                comm_mode: comm,
                zero_copy,
                multicast_d_star: d_star,
                fabric: FabricKind::PerSend,
                ..LiveConfig::default()
            },
        );
        println!("{name}:");
        println!("  wall time          {:?}", report.elapsed);
        println!("  serializations     {}", report.serializations);
        println!("  fabric messages    {}", report.fabric_messages);
        println!("  relay forwards     {}", report.relay_forwards);
        println!(
            "  delivery latency   mean {:?} / p99 {:?} ({} samples)",
            report.mean_delivery(),
            report.p99_delivery(),
            report.delivery_ns.count()
        );
        println!(
            "  bytes moved        {} copied + {} shared",
            report.copied_bytes, report.shared_bytes
        );
        println!(
            "  matching executed  {} tuples, aggregation: {}\n",
            report.executed[2], report.executed[3]
        );
    }

    println!(
        "Worker-oriented communication serializes the broadcast data item once per tuple\n\
         and sends one message per worker; instance-oriented pays both per instance.\n\
         With the multicast tree, the source sends each broadcast to only d* workers\n\
         and the other workers relay — the remaining frames show up as relay forwards."
    );
}
