//! Property tests for crash recovery through the partition log: for any
//! crash frame and restart gap, a tracked run with [`LiveConfig::log`]
//! enabled must deliver the emitted set exactly once per sink instance —
//! the crashed endpoint's slice is replayed from the log after the
//! restart (never from the acker's replay budget), root-id dedup absorbs
//! the overlap, and nothing is silently lost — across the per-send,
//! ring, and one-sided transports at 1 and 4 pipeline shards.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use whale_dsps::{
    run_topology, AckConfig, Emitter, FnBolt, Grouping, IterSpout, LiveConfig, LogConfig,
    Operators, Schema, Tuple, TopologyBuilder, Value,
};
use whale_net::{
    EndpointCrash, EndpointId, EndpointRestart, FabricKind, FaultPlan, OneSidedConfig, RingConfig,
};

const TUPLES: i64 = 60;
const FANOUT: u32 = 2;

/// Every transport variant the property must hold on.
fn fabric_kinds() -> Vec<(&'static str, FabricKind)> {
    vec![
        ("per_send", FabricKind::PerSend),
        ("ring", FabricKind::Ring(RingConfig::default())),
        (
            "one_sided",
            FabricKind::OneSided(OneSidedConfig {
                ring_slots: 64,
                ..OneSidedConfig::default()
            }),
        ),
    ]
}

/// Run one tracked, logged topology with a crash-then-restart plan and
/// return `(report, per-value execution counts unioned over sinks)`.
fn run_recovery(
    kind: FabricKind,
    shards: u32,
    plan: FaultPlan,
) -> (whale_dsps::RunReport, HashMap<i64, u64>) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", FANOUT, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let t = b.build().unwrap();

    let seen: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink_seen = Arc::clone(&seen);
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new(
                (0..TUPLES).map(|i| Tuple::with_id(i as u64, vec![Value::I64(i)])),
            ))
        })
        .bolt("sink", move |_| {
            let seen = Arc::clone(&sink_seen);
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
            machines: 3,
            shards,
            fabric: kind,
            ack: Some(AckConfig {
                // Long timeout: recovery must come from the log replay,
                // not from acker-timeout replays racing it.
                timeout: Duration::from_secs(10),
                max_replays: 3,
                drain_deadline: Duration::from_secs(30),
                eos_redundancy: 4,
            }),
            fault: Some(plan),
            log: Some(LogConfig::default()),
            run_deadline: Some(Duration::from_secs(20)),
            ..LiveConfig::default()
        },
    );
    let counts = std::mem::take(&mut *seen.lock().unwrap());
    (report, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replayed-from-log ∪ live delivery equals the emitted set exactly
    /// once per sink instance: wherever the crash lands and however long
    /// the outage window is, every tuple acks without spending the
    /// acker's replay budget and without a duplicate surviving dedup.
    #[test]
    fn log_replay_recovers_the_emitted_set_exactly_once(
        crash_at in 3u64..20,
        gap in 1u64..15,
        crashed_worker in 1u32..3,
        shard_pick in 0u32..4,
    ) {
        for shards in [1u32, 4] {
            for (label, kind) in fabric_kinds() {
                // Flat endpoint = worker * shards + shard; workers 1 and
                // 2 receive every emission remotely, so the restart
                // threshold (< 35 addressed frames) is always crossed.
                let endpoint = EndpointId(crashed_worker * shards + shard_pick % shards);
                let plan = FaultPlan {
                    seed: 7,
                    crashes: vec![EndpointCrash { endpoint, at_frame: crash_at }],
                    restarts: vec![EndpointRestart { endpoint, at_frame: crash_at + gap }],
                    ..FaultPlan::default()
                };
                let (r, counts) = run_recovery(kind, shards, plan);

                prop_assert_eq!(r.spout_emitted, TUPLES as u64, "{}/{}", label, shards);
                prop_assert_eq!(
                    r.tuples_acked + r.tuples_failed, r.spout_emitted,
                    "{}/{}: silent loss (acked {} + failed {} != emitted {})",
                    label, shards, r.tuples_acked, r.tuples_failed, r.spout_emitted
                );
                prop_assert_eq!(
                    r.tuples_failed, 0,
                    "{}/{}: log replay must recover every crashed-window tuple", label, shards
                );
                prop_assert_eq!(
                    r.tuples_replayed, 0,
                    "{}/{}: recovery must not spend the acker's replay budget", label, shards
                );
                prop_assert_eq!(r.thread_panics, 0, "{}/{}", label, shards);
                prop_assert!(
                    r.log_appended_records > 0,
                    "{}/{}: sends must write through the log", label, shards
                );
                if r.fault_crashed_sends > 0 {
                    // The crash bit a data frame, so recovery must have
                    // come from the log.
                    prop_assert!(
                        r.log_replayed_records > 0,
                        "{}/{}: rejected sends but no log replay", label, shards
                    );
                }

                // The dedup'd execution multiset: exactly the emitted
                // values, each executed once per sink instance.
                prop_assert_eq!(
                    counts.len() as i64, TUPLES,
                    "{}/{}: value set mismatch", label, shards
                );
                for v in 0..TUPLES {
                    let n = counts.get(&v).copied().unwrap_or(0);
                    prop_assert_eq!(
                        n, FANOUT as u64,
                        "{}/{}: value {} executed {} times, want {}",
                        label, shards, v, n, FANOUT
                    );
                }
            }
        }
    }
}
