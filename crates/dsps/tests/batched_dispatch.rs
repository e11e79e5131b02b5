//! Property test for the batched local hand-off: a tuple reaches the
//! tasks of a pipeline as one queue entry naming all of them, and that
//! must be indistinguishable from handing it to each task on its own.
//! Every run is held to a reference that routes with the public
//! [`GroupingExec`] and delivers task by task: the same tuples at every
//! sink instance, in the same per-(source, sink) order, the same
//! execution counts, and — tracked — every root acked with nothing
//! replayed or deduplicated, whether the tuple was relayed, broadcast
//! directly, key-routed or shuffled, on one, two or four pipelines per
//! worker.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use whale_dsps::{
    run_topology, AckConfig, Emitter, FnBolt, Grouping, GroupingExec, IterSpout, LiveConfig,
    Operators, RunOutcome, Schema, TaskId, TopologyBuilder, Tuple, Value,
};

/// Two source instances, so a sink sees interleaved streams and order is
/// a per-(source, sink) property.
const SOURCES: u32 = 2;
const SINKS: u32 = 8;
const TUPLES: i64 = 40;

#[derive(Clone, Copy, Debug)]
enum Path {
    /// `Grouping::All` through the d* = 2 relay tree.
    Relay,
    /// `Grouping::All`, the source sending to every worker itself.
    DirectAll,
    Fields,
    Shuffle,
}

impl Path {
    fn grouping(self) -> Grouping {
        match self {
            Path::Relay | Path::DirectAll => Grouping::All,
            Path::Fields => Grouping::Fields(2),
            Path::Shuffle => Grouping::Shuffle,
        }
    }
}

/// `[source, sequence number, key]`.
fn tuple(src: u32, seq: i64, base: i64) -> Tuple {
    let id = src as u64 * TUPLES as u64 + seq as u64 + 1;
    let key = base.wrapping_add(seq.wrapping_mul(7));
    Tuple::with_id(
        id,
        vec![Value::I64(src as i64), Value::I64(seq), Value::I64(key)],
    )
}

/// What each sink instance saw, in arrival order: `(source, sequence)`.
type Seen = Vec<Vec<(i64, i64)>>;

fn run(
    path: Path,
    machines: u32,
    shards: u32,
    tracked: bool,
    base: i64,
) -> (whale_dsps::RunReport, Seen) {
    let mut b = TopologyBuilder::new();
    b.spout("src", SOURCES, Schema::new(vec!["src", "seq", "key"]))
        .bolt("sink", SINKS, Schema::new(vec!["src", "seq", "key"]))
        .connect("src", "sink", path.grouping());
    let seen: Arc<Mutex<Seen>> = Arc::new(Mutex::new(vec![Vec::new(); SINKS as usize]));
    let tap = Arc::clone(&seen);
    let ops = Operators::new()
        .spout("src", move |src| {
            Box::new(IterSpout::new(
                (0..TUPLES).map(move |seq| tuple(src, seq, base)),
            ))
        })
        .bolt("sink", move |idx| {
            let seen = Arc::clone(&tap);
            Box::new(FnBolt::new(move |t: &Tuple, _out: &mut dyn Emitter| {
                let field = |i| t.get(i).and_then(Value::as_i64).unwrap();
                seen.lock().unwrap()[idx as usize].push((field(0), field(1)));
            }))
        });
    let report = run_topology(
        b.build().unwrap(),
        ops,
        LiveConfig {
            machines,
            shards,
            multicast_d_star: matches!(path, Path::Relay).then_some(2),
            // Nothing is lost on a fault-free fabric, so nothing needs a
            // short timeout; a replay on a slow host would be legitimate
            // and would still break the exact counters below.
            ack: tracked.then(|| AckConfig {
                timeout: Duration::from_secs(20),
                ..AckConfig::default()
            }),
            run_deadline: Some(Duration::from_secs(30)),
            ..LiveConfig::default()
        },
    );
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (report, seen)
}

/// Route every source's tuples with a plain [`GroupingExec`] and hand
/// them to their destinations one task at a time. Sinks are numbered by
/// instance index. `first_sink[src]` is where that source's shuffle
/// cursor starts (the runtime seeds it per source task; the test reads
/// it off the first tuple).
fn reference(path: Path, base: i64, first_sink: &[u64]) -> Seen {
    let targets: Vec<TaskId> = (0..SINKS).map(TaskId).collect();
    let mut seen = vec![Vec::new(); SINKS as usize];
    for src in 0..SOURCES {
        let seed = first_sink[src as usize];
        let mut exec = GroupingExec::with_rr_seed(path.grouping(), targets.clone(), seed);
        for seq in 0..TUPLES {
            for dst in exec.route(&tuple(src, seq, base), None).unwrap() {
                seen[dst.0 as usize].push((src as i64, seq));
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_dispatch_equals_per_task_dispatch(
        base in -1_000_000i64..1_000_000,
        machines in 1u32..5,
        tracked in any::<bool>(),
    ) {
        for path in [Path::Relay, Path::DirectAll, Path::Fields, Path::Shuffle] {
            for shards in [1u32, 2, 4] {
                let what = format!("{path:?} machines={machines} shards={shards} tracked={tracked}");
                let (r, seen) = run(path, machines, shards, tracked, base);
                prop_assert_eq!(&r.outcome, &RunOutcome::Clean, "{}", what);
                prop_assert_eq!(r.dropped_frames, 0, "{}", what);
                let first_sink: Vec<u64> = (0..SOURCES as i64)
                    .map(|src| seen.iter().position(|s| s.contains(&(src, 0))).unwrap() as u64)
                    .collect();
                let expected = reference(path, base, &first_sink);
                for (idx, (got, want)) in seen.iter().zip(&expected).enumerate() {
                    prop_assert_eq!(got.len(), want.len(), "{} sink {} count", what, idx);
                    for src in 0..SOURCES as i64 {
                        let from = |s: &[(i64, i64)]| -> Vec<i64> {
                            s.iter().filter(|d| d.0 == src).map(|d| d.1).collect()
                        };
                        prop_assert_eq!(
                            from(got), from(want),
                            "{} order of source {} at sink {}", what, src, idx
                        );
                    }
                }
                let deliveries: usize = expected.iter().map(Vec::len).sum();
                prop_assert_eq!(r.executed[1], deliveries as u64, "{}", what);
                // Sources sit on workers 0 and 1 (mod machines), sink i on
                // worker i mod machines; what crosses workers arrives as
                // a lazy view, counted once per task it is for.
                let remote = expected.iter().enumerate().flat_map(|(idx, s)| {
                    s.iter().filter(move |d| d.0 as u32 % machines != idx as u32 % machines)
                });
                prop_assert_eq!(r.wire_tuples_lazy, remote.count() as u64, "{}", what);
                if tracked {
                    prop_assert_eq!(r.tuples_acked, r.spout_emitted, "{}", what);
                    prop_assert_eq!(
                        (r.tuples_failed, r.tuples_replayed, r.dedup_dropped), (0, 0, 0),
                        "{}", what
                    );
                }
            }
        }
    }
}
