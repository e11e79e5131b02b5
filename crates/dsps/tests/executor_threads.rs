//! How many threads a run starts, and of which kind: one executor per
//! core the process may run on, however many pipelines the run has, and
//! nothing else — the adaptive controller and log replay are steps of
//! an executor. A test binary of its own, with its runs one at a time, so
//! no other run is alive while one counts.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use whale_dsps::{spawn_topology, AckConfig, AdaptiveConfig, Emitter, FnBolt, Grouping};
use whale_dsps::{IterSpout, LiveConfig, LogConfig, Operators, RunOutcome, RunReport, Schema};
use whale_dsps::{TopologyBuilder, Tuple, Value};
use whale_net::{EndpointCrash, EndpointId, EndpointRestart, FaultPlan};

/// Held by each test for its whole run.
fn one_run_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This process's threads: `(thread id, name)`.
fn threads() -> Vec<(String, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let name = |path: std::path::PathBuf| std::fs::read_to_string(path.join("comm")).ok();
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().into_string().ok()?;
            Some((tid, name(task.path())?.trim_end().to_owned()))
        })
        .collect()
}

/// Broadcast `tuples` tuples from one spout to `sinks` sinks under
/// `config`, 100 µs apart, so that a control step ticks between them; the
/// spout stops mid-stream until the threads are counted.
/// Returns the report and the names of the run's own threads: those
/// started after the run began, alive mid-stream and gone once it is
/// joined. (The caller holds [`one_run_at_a_time`]: a test thread that
/// starts meanwhile waits on it, so it outlives the run.)
fn threads_of_run(tuples: u64, sinks: u32, config: LiveConfig) -> (RunReport, Vec<String>) {
    let gate = Arc::new(Barrier::new(2));
    let spout_gate = Arc::clone(&gate);
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", sinks, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let ops = Operators::new()
        .spout("src", move |_| {
            let gate = Arc::clone(&spout_gate);
            Box::new(IterSpout::new((0..tuples).map(move |i| {
                if i == tuples / 2 {
                    gate.wait();
                    gate.wait();
                }
                std::thread::sleep(Duration::from_micros(100));
                Tuple::with_id(i, vec![Value::I64(i as i64)])
            })))
        })
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_: &Tuple, _: &mut dyn Emitter| {}))
        });
    let before = threads();
    let run = spawn_topology(b.build().unwrap(), ops, config).expect("a runnable config");
    gate.wait();
    let during = threads();
    gate.wait();
    let report = run.join();
    let after = threads();
    let run_threads = during
        .into_iter()
        .filter(|t| !before.contains(t) && !after.iter().any(|a| a.0 == t.0))
        .map(|(_, name)| name)
        .collect();
    (report, run_threads)
}

#[test]
fn a_sixteen_machine_two_shard_run_has_at_most_one_executor_per_core() {
    const TUPLES: u64 = 100;
    const SINKS: u32 = 32;
    let _one = one_run_at_a_time();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = LiveConfig {
        machines: 16,
        shards: 2,
        ..LiveConfig::default()
    };
    let (report, names) = threads_of_run(TUPLES, SINKS, config);
    assert_eq!(report.outcome, RunOutcome::Clean);
    assert_eq!(report.executed[1], TUPLES * SINKS as u64);
    let executors = names.iter().filter(|n| n.starts_with("executor-")).count();
    assert_eq!(executors, cores.min(16 * 2), "threads: {names:?}");
    assert!(executors <= cores);
    let pipelines = names.iter().filter(|n| n.starts_with("pipeline")).count();
    assert_eq!(pipelines, 0, "no thread per pipeline: {names:?}");
}

#[test]
fn an_adaptive_run_that_switches_starts_only_executors() {
    const TUPLES: u64 = 100;
    let _one = one_run_at_a_time();
    let config = LiveConfig {
        machines: 8,
        multicast_d_star: Some(1),
        multicast_adaptive: Some(AdaptiveConfig {
            interval: Duration::from_millis(1),
            forced_switches: vec![(30, 4)],
            ..AdaptiveConfig::default()
        }),
        ..LiveConfig::default()
    };
    let (report, threads) = threads_of_run(TUPLES, 16, config);
    assert_eq!(report.outcome, RunOutcome::Clean);
    assert_eq!(report.executed[1], TUPLES * 16);
    assert!(report.relay_switches >= 1, "the forced switch fired");
    assert!(!threads.is_empty());
    assert!(
        threads.iter().all(|name| name.starts_with("executor-")),
        "threads: {threads:?}"
    );
}

#[test]
fn a_logged_run_whose_endpoint_restarts_starts_only_executors() {
    const TUPLES: u64 = 100;
    let endpoint = EndpointId(1);
    let config = LiveConfig {
        machines: 3,
        ack: Some(AckConfig {
            // Past the run: the log, not the acker, heals the outage.
            timeout: Duration::from_secs(10),
            ..AckConfig::default()
        }),
        fault: Some(FaultPlan {
            crashes: vec![EndpointCrash {
                endpoint,
                at_frame: 10,
            }],
            // After the threads are counted: the replay is still to come.
            restarts: vec![EndpointRestart {
                endpoint,
                at_frame: 80,
            }],
            ..FaultPlan::default()
        }),
        log: Some(LogConfig::default()),
        ..LiveConfig::default()
    };
    let _one = one_run_at_a_time();
    let (report, threads) = threads_of_run(TUPLES, 2, config);
    assert_eq!(report.tuples_acked, TUPLES, "every tuple acked");
    assert!(report.log_replayed_records > 0, "the log replayed");
    assert!(!threads.is_empty());
    assert!(
        threads.iter().all(|name| name.starts_with("executor-")),
        "threads: {threads:?}"
    );
}
