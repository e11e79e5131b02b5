//! Property tests for crash recovery through the partition log: for any
//! crash frame and restart gap, a tracked run with [`LiveConfig::log`]
//! enabled must deliver the emitted set exactly once per sink instance —
//! the crashed endpoint's slice is replayed from the log after the
//! restart (never from the acker's replay budget), root-id dedup absorbs
//! the overlap, nothing is silently lost, and the acker's watermark has
//! reclaimed every log byte by the report — across the per-send, ring,
//! and one-sided transports at 1 and 4 pipeline shards, whether the crash
//! rejects runs of one record or of many. Beside it, one
//! fixed outage that certainly rejects sends, run with the log (which
//! alone heals it) and without (where the acker's replay budget does),
//! and the same outage under a second hop: the log holds only what the
//! acker tracks, so it heals the first hop, replays nothing a sink
//! executes twice, and leaves the second hop as an unlogged run does.

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

/// How the spout hands out its tuples.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Pace {
    /// `TUPLES`, each call slower than the runtime lets a step wait on
    /// one: every step emits one tuple, and every run is a run of one — a
    /// frame per tuple and destination, so a crash scheduled in addressed
    /// frames lands among the data.
    Slow,
    /// `SATURATING` tuples, each at once: a spout step emits a batch, and
    /// each worker gets it as one run of many records.
    Saturating,
}

/// Tuples of a [`Pace::Saturating`] spout: steps of 1, 2, 4, … up to a
/// full batch, so every worker is sent at least ten runs.
const SATURATING: i64 = 400;

impl Pace {
    fn tuples(self) -> i64 {
        match self {
            Pace::Slow => TUPLES,
            Pace::Saturating => SATURATING,
        }
    }
}

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

/// The tracked, logged run the property makes over `kind` at `shards`
/// pipelines per worker, under a crash-then-restart `plan`.
fn recovery_config(kind: FabricKind, shards: u32, plan: FaultPlan) -> LiveConfig {
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
    }
}

/// Run one tracked topology at `pace` under `config` and return
/// `(report, per-value execution counts unioned over sinks)`.
fn run_recovery(pace: Pace, config: LiveConfig) -> (whale_dsps::RunReport, HashMap<i64, u64>) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", FANOUT, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let t = b.build().unwrap();

    let seen: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink_seen = Arc::clone(&seen);
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new(paced(pace, pace.tuples())))
        })
        .bolt("sink", move |_| {
            let seen = Arc::clone(&sink_seen);
            Box::new(FnBolt::new(move |t: &Tuple, _out: &mut dyn Emitter| {
                if let Some(Value::I64(v)) = t.get(0) {
                    *seen.lock().unwrap().entry(*v).or_insert(0) += 1;
                }
            }))
        });

    let report = run_topology(t, ops, config);
    let counts = std::mem::take(&mut *seen.lock().unwrap());
    (report, counts)
}

/// Tuples `0..n` with their value as the single field, at `pace`.
fn paced(pace: Pace, n: i64) -> impl Iterator<Item = Tuple> {
    (0..n).map(move |i| {
        if pace == Pace::Slow {
            std::thread::sleep(Duration::from_micros(60));
        }
        Tuple::with_id(i as u64, vec![Value::I64(i)])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replayed-from-log ∪ live delivery equals the emitted set exactly
    /// once per sink instance: wherever the crash lands and however long
    /// the outage window is, every tuple acks without spending the
    /// acker's replay budget and without a duplicate surviving dedup —
    /// whether the sends the crash rejects are runs of one record or of
    /// many.
    #[test]
    fn log_replay_recovers_the_emitted_set_exactly_once(
        crash_at in 3u64..20,
        gap in 1u64..15,
        crashed_worker in 1u32..3,
        shard_pick in 0u32..4,
    ) {
        for (shards, pace) in [1u32, 4]
            .into_iter()
            .flat_map(|shards| [(shards, Pace::Slow), (shards, Pace::Saturating)])
        {
            for (label, kind) in fabric_kinds() {
                let label = format!("{label} {pace:?}");
                let label = label.as_str();
                // Flat endpoint = worker * shards + shard; workers 1 and
                // 2 receive every emission remotely, a data frame per
                // tuple at the slow pace (the restart threshold, < 35
                // addressed frames, is always crossed), and at least ten
                // runs at the saturating one (so its window is drawn in
                // the first eight frames).
                let endpoint = EndpointId(crashed_worker * shards + shard_pick % shards);
                let (crash_at, restart_at) = match pace {
                    Pace::Slow => (crash_at, crash_at + gap),
                    Pace::Saturating => (1 + crash_at % 4, 2 + crash_at % 4 + gap % 4),
                };
                let plan = FaultPlan {
                    seed: 7,
                    crashes: vec![EndpointCrash { endpoint, at_frame: crash_at }],
                    restarts: vec![EndpointRestart { endpoint, at_frame: restart_at }],
                    ..FaultPlan::default()
                };
                let tuples = pace.tuples();
                let (r, counts) = run_recovery(pace, recovery_config(kind, shards, plan));

                prop_assert_eq!(r.spout_emitted, tuples as u64, "{}/{}", label, shards);
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
                prop_assert_eq!(
                    r.log_retained_bytes, 0,
                    "{}/{}: the watermark must reclaim the whole log", label, shards
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
                    counts.len() as i64, tuples,
                    "{}/{}: value set mismatch", label, shards
                );
                for v in 0..tuples {
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

/// The four transport variants the fixed-outage rows run on: every
/// transport, the ring at one and at four pipelines per worker.
fn outage_variants() -> [(&'static str, FabricKind, u32); 4] {
    let ring = FabricKind::Ring(RingConfig::default());
    [
        ("per_send", FabricKind::PerSend, 1),
        ("ring/1", ring, 1),
        ("ring/4", ring, 4),
        (
            "one_sided",
            FabricKind::OneSided(OneSidedConfig { ring_slots: 64 }),
            1,
        ),
    ]
}

/// Every shard endpoint of worker 1 goes dark at its 10th addressed
/// frame and rejoins at its 30th: among the data, for a slow spout that
/// sends a frame per tuple.
fn worker_1_outage(shards: u32) -> FaultPlan {
    let worker_1 = (shards..2 * shards).map(EndpointId);
    FaultPlan {
        seed: 0xE26,
        crashes: worker_1
            .clone()
            .map(|endpoint| EndpointCrash {
                endpoint,
                at_frame: 10,
            })
            .collect(),
        restarts: worker_1
            .map(|endpoint| EndpointRestart {
                endpoint,
                at_frame: 30,
            })
            .collect(),
        ..FaultPlan::default()
    }
}

/// [`worker_1_outage`] with the log on and an acker timeout past the run:
/// the crash certainly rejects sends, so the log certainly replays, and
/// it alone heals the window — every tuple acked once per sink instance,
/// no acker replay spent, every log byte reclaimed.
#[test]
fn with_a_log_a_crash_then_restart_heals_from_the_log_alone() {
    for (label, kind, shards) in outage_variants() {
        let config = recovery_config(kind, shards, worker_1_outage(shards));
        let (r, counts) = run_recovery(Pace::Slow, config);
        assert_eq!(r.spout_emitted, TUPLES as u64, "{label}");
        assert_eq!(r.tuples_acked, r.spout_emitted, "{label}: every tuple acked");
        assert_eq!(r.tuples_failed, 0, "{label}");
        assert!(r.fault_crashed_sends > 0, "{label}: the crash must reject sends");
        assert!(r.log_replayed_records > 0, "{label}: the log must replay");
        assert_eq!(r.tuples_replayed, 0, "{label}: no acker replay spent");
        assert_eq!(r.log_retained_bytes, 0, "{label}: the log drains");
        assert_eq!(r.thread_panics, 0, "{label}");
        assert!(
            (0..TUPLES).all(|v| counts.get(&v) == Some(&(FANOUT as u64))),
            "{label}: each value executed once per sink instance"
        );
    }
}

/// The same outage without a log: with a 40 ms timeout and 20 replays the
/// acker heals the window by replaying — every tuple acked, nothing
/// written through a log.
#[test]
fn without_a_log_the_acker_replays_heal_a_crash_then_restart() {
    for (label, kind, shards) in outage_variants() {
        let config = LiveConfig {
            ack: Some(AckConfig {
                timeout: Duration::from_millis(40),
                max_replays: 20,
                drain_deadline: Duration::from_secs(30),
                eos_redundancy: 4,
            }),
            log: None,
            ..recovery_config(kind, shards, worker_1_outage(shards))
        };
        let (r, _) = run_recovery(Pace::Slow, config);
        assert_eq!(r.spout_emitted, TUPLES as u64, "{label}");
        assert_eq!(
            r.tuples_acked, r.spout_emitted,
            "{label}: every tuple acked"
        );
        assert_eq!(r.tuples_failed, 0, "{label}");
        assert!(
            r.fault_crashed_sends > 0,
            "{label}: the crash must reject sends"
        );
        assert!(
            r.tuples_replayed > 0,
            "{label}: the acker must replay the outage"
        );
        assert_eq!(r.log_appended_records, 0, "{label}: nothing is logged");
        assert_eq!(r.thread_panics, 0, "{label}");
    }
}

/// Values of [`run_two_hops`].
const TWO_HOP_TUPLES: i64 = 200;
/// Sink instances of [`run_two_hops`].
const TWO_HOP_SINKS: u32 = 3;

/// src → 3 `mid` (`Fields`) → 3 `sink` (`All`) under `config`: the
/// report, and how often each sink instance executed each value.
fn run_two_hops(config: LiveConfig) -> (whale_dsps::RunReport, HashMap<(u32, i64), u64>) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("mid", 3, Schema::new(vec!["n"]))
        .bolt("sink", TWO_HOP_SINKS, Schema::new(vec!["n"]))
        .connect("src", "mid", Grouping::Fields(0))
        .connect("mid", "sink", Grouping::All);
    let seen: Arc<Mutex<HashMap<(u32, i64), u64>>> = Arc::default();
    let sink_seen = Arc::clone(&seen);
    let ops = Operators::new()
        .spout("src", |_| {
            Box::new(IterSpout::new(paced(Pace::Slow, TWO_HOP_TUPLES)))
        })
        .bolt("mid", |_| {
            Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                out.emit(t.clone())
            }))
        })
        .bolt("sink", move |idx| {
            let seen = Arc::clone(&sink_seen);
            Box::new(FnBolt::new(move |t: &Tuple, _out: &mut dyn Emitter| {
                if let Some(Value::I64(v)) = t.get(0) {
                    *seen.lock().unwrap().entry((idx, *v)).or_insert(0) += 1;
                }
            }))
        });
    let report = run_topology(b.build().unwrap(), ops, config);
    let counts = std::mem::take(&mut *seen.lock().unwrap());
    (report, counts)
}

/// [`worker_1_outage`] under a second hop, with the log on. The acker
/// tracks only the spout's frames, and only those are logged: the log
/// replays worker 1's `mid` inputs, root dedup absorbs every replayed
/// copy that already ran, and the whole log is reclaimed. A `mid`
/// emission sent into the outage is lost, as it is without a log —
/// at most one value per rejected send — and none runs twice. The spout
/// is slow, one tuple a step, so a `mid` step has one input to emit from
/// and sends runs of one; the rejected sends also count the spout's
/// frames to worker 1, which lose nothing.
#[test]
fn under_a_second_hop_the_log_replays_only_what_dedup_absorbs() {
    for (label, kind, shards) in outage_variants() {
        let config = recovery_config(kind, shards, worker_1_outage(shards));
        let (r, counts) = run_two_hops(config);
        assert_eq!(r.spout_emitted, TWO_HOP_TUPLES as u64, "{label}");
        assert_eq!(
            r.tuples_acked, r.spout_emitted,
            "{label}: every tuple acked"
        );
        assert_eq!(r.thread_panics, 0, "{label}");
        assert!(
            r.fault_crashed_sends > 0,
            "{label}: the crash must reject sends"
        );
        let twice = counts.values().filter(|&&n| n > 1).count();
        assert_eq!(
            twice, 0,
            "{label}: (sink, value) pairs executed more than once"
        );
        assert!(r.log_replayed_records > 0, "{label}: the log must replay");
        assert_eq!(r.log_retained_bytes, 0, "{label}: the log drains");
        let short = (0..TWO_HOP_TUPLES)
            .filter(|&v| (0..TWO_HOP_SINKS).any(|sink| !counts.contains_key(&(sink, v))))
            .count() as u64;
        assert!(
            short <= r.fault_crashed_sends,
            "{label}: {short} values short, {} sends rejected",
            r.fault_crashed_sends
        );
    }
}
