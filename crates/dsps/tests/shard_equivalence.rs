//! Property tests for shard-owned pipelines: splitting each worker's
//! tasks across N pipeline threads must be invisible to the data plane.
//! For any tuple set, sharded delivery (shards ∈ {2, 4}) must equal
//! single-dispatcher delivery (shards = 1) — the same dedup'd
//! execution multiset, exactly once per instance, across all three
//! transports (per_send, ring, one_sided).

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use whale_dsps::{
    run_topology, AckConfig, Emitter, FnBolt, Grouping, IterSpout, LiveConfig, Operators,
    RunOutcome, Schema, Tuple, TopologyBuilder, Value,
};
use whale_net::{FabricKind, OneSidedConfig, RingConfig};

const TUPLES: i64 = 40;
const MID_FANOUT: u32 = 4;
const SINK_FANOUT: u32 = 2;

/// Every transport variant the property must hold on.
fn fabric_kinds() -> Vec<(&'static str, FabricKind)> {
    vec![
        ("per_send", FabricKind::PerSend),
        ("ring", FabricKind::Ring(RingConfig::default())),
        (
            "one_sided",
            FabricKind::OneSided(OneSidedConfig { ring_slots: 64 }),
        ),
    ]
}

/// Run src → mid (fields-grouped) → sink (all-grouped) on `shards`
/// pipelines per worker, returning the per-value execution counts at
/// the mid and sink stages. Fields grouping exercises cross-shard hash
/// routing; the all-grouped stage exercises one-to-many fan-out.
fn run_sharded(
    kind: FabricKind,
    shards: u32,
    machines: u32,
    base: i64,
    tracked: bool,
) -> (
    whale_dsps::RunReport,
    HashMap<i64, u64>,
    HashMap<i64, u64>,
) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("mid", MID_FANOUT, Schema::new(vec!["n"]))
        .bolt("sink", SINK_FANOUT, Schema::new(vec!["n"]))
        .connect("src", "mid", Grouping::Fields(0))
        .connect("mid", "sink", Grouping::All);
    let t = b.build().unwrap();

    let mid_seen: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink_seen: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let mid_tap = Arc::clone(&mid_seen);
    let sink_tap = Arc::clone(&sink_seen);
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new((0..TUPLES).map(move |i| {
                Tuple::with_id(i as u64, vec![Value::I64(base + i)])
            })))
        })
        .bolt("mid", move |_| {
            let seen = Arc::clone(&mid_tap);
            Box::new(FnBolt::new(move |t: &Tuple, out: &mut dyn Emitter| {
                if let Some(Value::I64(v)) = t.get(0) {
                    *seen.lock().unwrap().entry(*v).or_insert(0) += 1;
                    out.emit(Tuple::new(vec![Value::I64(*v)]));
                }
            }))
        })
        .bolt("sink", move |_| {
            let seen = Arc::clone(&sink_tap);
            Box::new(FnBolt::new(move |t: &Tuple, _out: &mut dyn Emitter| {
                if let Some(Value::I64(v)) = t.get(0) {
                    *seen.lock().unwrap().entry(*v).or_insert(0) += 1;
                }
            }))
        });

    let report = run_topology(
        t,
        ops,
        LiveConfig {
            machines,
            shards,
            fabric: kind,
            ack: tracked.then(AckConfig::default),
            ..LiveConfig::default()
        },
    );
    let mid = std::mem::take(&mut *mid_seen.lock().unwrap());
    let sink = std::mem::take(&mut *sink_seen.lock().unwrap());
    (report, mid, sink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard-routed delivery ≡ single-dispatcher delivery: identical
    /// per-value execution multisets at every stage, exactly once per
    /// instance, for every (shards, fabric) combination.
    #[test]
    fn sharded_delivery_equals_single_dispatcher(
        base in -1_000_000i64..1_000_000,
        machines in 1u32..4,
        tracked in any::<bool>(),
    ) {
        for (label, kind) in fabric_kinds() {
            let (r1, mid1, sink1) =
                run_sharded(kind, 1, machines, base, tracked);
            prop_assert_eq!(r1.outcome, RunOutcome::Clean, "{}/1", label);
            prop_assert_eq!(mid1.len() as i64, TUPLES, "{}/1 mid set", label);
            for shards in [2u32, 4] {
                let (r, mid, sink) =
                    run_sharded(kind, shards, machines, base, tracked);
                prop_assert_eq!(r.outcome, RunOutcome::Clean, "{}/{}", label, shards);
                prop_assert_eq!(r.shards, shards as u64, "{}/{}", label, shards);
                prop_assert_eq!(
                    r.spout_emitted, r1.spout_emitted,
                    "{}/{}", label, shards
                );
                prop_assert_eq!(
                    &mid, &mid1,
                    "{}/{} mid delivery diverged from single-dispatcher", label, shards
                );
                prop_assert_eq!(
                    &sink, &sink1,
                    "{}/{} sink delivery diverged from single-dispatcher", label, shards
                );
                if tracked {
                    prop_assert_eq!(
                        r.tuples_acked + r.tuples_failed, r.spout_emitted,
                        "{}/{} silent loss", label, shards
                    );
                    prop_assert_eq!(r.tuples_failed, 0, "{}/{}", label, shards);
                }
            }
            // Exactly once per instance, at both stages: each value hits
            // its one fields-grouped mid task once, then every sink.
            for v in base..base + TUPLES {
                prop_assert_eq!(mid1.get(&v).copied(), Some(1), "{} mid {}", label, v);
                prop_assert_eq!(
                    sink1.get(&v).copied(), Some(SINK_FANOUT as u64),
                    "{} sink {}", label, v
                );
            }
        }
    }
}
