//! How many data-plane threads a run starts: one executor per core the
//! process may run on, however many pipelines the run has. A test binary
//! of its own, so no other test's run is alive while it counts.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Barrier};
use whale_dsps::{spawn_topology, Emitter, FnBolt, Grouping, IterSpout, LiveConfig};
use whale_dsps::{Operators, RunOutcome, Schema, TopologyBuilder, Tuple, Value};

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

#[test]
fn a_sixteen_machine_two_shard_run_has_at_most_one_executor_per_core() {
    const TUPLES: u64 = 100;
    const SINKS: u32 = 32;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The spout stops mid-stream until the threads are counted.
    let gate = Arc::new(Barrier::new(2));
    let spout_gate = Arc::clone(&gate);
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", SINKS, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let ops = Operators::new()
        .spout("src", move |_| {
            let gate = Arc::clone(&spout_gate);
            Box::new(IterSpout::new((0..TUPLES).map(move |i| {
                if i == TUPLES / 2 {
                    gate.wait();
                    gate.wait();
                }
                Tuple::with_id(i, vec![Value::I64(i as i64)])
            })))
        })
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_: &Tuple, _: &mut dyn Emitter| {}))
        });
    let config = LiveConfig {
        machines: 16,
        shards: 2,
        ..LiveConfig::default()
    };
    let run = spawn_topology(b.build().unwrap(), ops, config).expect("a runnable config");
    gate.wait();
    let names = thread_names();
    gate.wait();
    let report = run.join();
    assert_eq!(report.outcome, RunOutcome::Clean);
    assert_eq!(report.executed[1], TUPLES * SINKS as u64);
    let executors = names.iter().filter(|n| n.starts_with("executor-")).count();
    assert_eq!(executors, cores.min(16 * 2), "threads: {names:?}");
    assert!(executors <= cores);
    let pipelines = names.iter().filter(|n| n.starts_with("pipeline")).count();
    assert_eq!(pipelines, 0, "no thread per pipeline: {names:?}");
}
