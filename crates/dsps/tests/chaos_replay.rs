//! Property tests for at-least-once delivery under injected faults: for
//! any seeded [`FaultPlan`] with a drop rate below 1.0 and a fan-out of 2
//! or 4, the sink-side dedup'd delivery must equal the emitted set —
//! every spout tuple executed exactly once per sink instance, no silent
//! loss, no duplicate execution surviving the root-id dedup — across the
//! per-send, ring and one-sided transports, the ring at one and at four
//! pipelines per worker (each pipeline drains its own endpoint), the
//! buffered two handing frames over as slices as they do unfaulted —
//! whether a spout step sends a run of many records to each worker or a
//! run of one. Beside it, a worker that crashes and never comes back: the
//! tuples routed at it fail, none is lost silently, and the run ends at
//! its deadline.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use whale_dsps::{
    run_topology, AckConfig, Emitter, FnBolt, Grouping, IterSpout, LiveConfig, Operators, Schema,
    Tuple, TopologyBuilder, Value,
};
use whale_net::{EndpointCrash, EndpointId, FabricKind, FaultPlan, OneSidedConfig, RingConfig};

const TUPLES: i64 = 60;

/// How the spout hands out its tuples.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Pace {
    /// Each call slower than the runtime lets a step wait on one: every
    /// step emits one tuple, and every run is a run of one — a frame per
    /// tuple and destination, which a schedule counted in frames assumes.
    Slow,
    /// Each at once: a spout step emits a batch, and each worker gets it
    /// as one run of many records.
    Saturating,
}

/// Every transport variant the property must hold on, with its
/// pipelines per worker.
fn fabric_kinds() -> Vec<(&'static str, FabricKind, u32)> {
    let ring = FabricKind::Ring(RingConfig::default());
    vec![
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

/// The tracked run the property makes over `kind` at `shards` pipelines
/// per worker, under `plan`.
fn chaos_config(kind: FabricKind, shards: u32, plan: FaultPlan) -> LiveConfig {
    LiveConfig {
        machines: 3,
        shards,
        fabric: kind,
        ack: Some(AckConfig {
            timeout: Duration::from_millis(25),
            max_replays: 20,
            drain_deadline: Duration::from_secs(20),
            eos_redundancy: 4,
        }),
        fault: Some(plan),
        run_deadline: Some(Duration::from_secs(10)),
        ..LiveConfig::default()
    }
}

/// Run `tuples` tracked tuples, each to `fanout` sinks, at `pace` under
/// `config` and return `(report, per-value execution counts unioned over
/// sink instances)`.
fn run_chaos(
    tuples: i64,
    fanout: u32,
    pace: Pace,
    config: LiveConfig,
) -> (whale_dsps::RunReport, HashMap<i64, u64>) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", fanout, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let t = b.build().unwrap();

    let seen: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink_seen = Arc::clone(&seen);
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new((0..tuples).map(move |i| {
                if pace == Pace::Slow {
                    std::thread::sleep(Duration::from_micros(60));
                }
                Tuple::with_id(i as u64, vec![Value::I64(i)])
            })))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Dedup'd delivery equals the emitted set: with a recoverable drop
    /// rate and a sufficient replay budget, every emitted tuple is
    /// acked, executed exactly once by each of the `fanout` sink
    /// instances, and nothing else is executed — at either pace.
    #[test]
    fn dedup_delivery_equals_emitted_set(
        seed in 0u64..u64::MAX,
        drop_pct in 0u32..31,
        fanout in (1u32..3).prop_map(|k| 2 * k),
    ) {
        for ((label, kind, shards), pace) in fabric_kinds()
            .into_iter()
            .flat_map(|kind| [(kind, Pace::Slow), (kind, Pace::Saturating)])
        {
            let plan = FaultPlan::uniform_drops(seed, drop_pct as f64 / 100.0);
            let config = chaos_config(kind, shards, plan);
            let (r, counts) = run_chaos(TUPLES, fanout, pace, config);
            let label = format!("{label} {pace:?}");
            let label = label.as_str();

            prop_assert_eq!(r.spout_emitted, TUPLES as u64, "{}", label);
            prop_assert_eq!(
                r.tuples_acked + r.tuples_failed, r.spout_emitted,
                "{}: silent loss (acked {} + failed {} != emitted {})",
                label, r.tuples_acked, r.tuples_failed, r.spout_emitted
            );
            // 20 replays at ≤30% drop make residual failure chance
            // ~0.3^21 per destination — a failed tuple here means the
            // replay machinery is broken, not bad luck.
            prop_assert_eq!(r.tuples_failed, 0, "{}: replay budget exhausted", label);
            prop_assert_eq!(r.thread_panics, 0, "{}", label);
            if drop_pct > 0 && pace == Pace::Slow {
                // The sweep's whole point: faults were actually injected
                // (into the frame-per-tuple schedule the plan's rates
                // were chosen for; a saturating spout's few runs per
                // worker may all get through a low rate).
                prop_assert!(
                    r.fault_drops > 0 || r.fault_duplicates > 0,
                    "{}: plan injected nothing at drop={}%", label, drop_pct
                );
            }
            // The buffered transports hand lent frames over as slices of
            // one buffer under the plan too, as they do without one.
            prop_assert_eq!(
                r.sliced_frames > 0, !label.starts_with("per_send"),
                "{}: {} frames handed over as slices", label, r.sliced_frames
            );

            // The dedup'd execution multiset: exactly the emitted values,
            // each executed once per sink instance.
            prop_assert_eq!(counts.len() as i64, TUPLES, "{}: value set mismatch", label);
            for v in 0..TUPLES {
                let n = counts.get(&v).copied().unwrap_or(0);
                prop_assert_eq!(
                    n, fanout as u64,
                    "{}: value {} executed {} times, want {}", label, v, n, fanout
                );
            }
        }
    }
}

/// A worker that crashes and never restarts, under 10 % drops: every
/// shard endpoint of worker 1 goes dark at its 10th addressed frame (a
/// slow spout sends a frame per tuple, so that is among the data), and
/// the acker gets a short timeout and a small replay budget. The tuples
/// routed at the dead worker fail, none is lost silently, and the run —
/// whose crashed pipelines wait for an EOS that cannot arrive — returns
/// at its deadline, on every transport at fan-out 2 and 4.
#[test]
fn a_crash_without_restart_fails_its_tuples_and_ends_at_the_deadline() {
    const DEADLINE: Duration = Duration::from_secs(2);
    for (label, kind, shards) in fabric_kinds() {
        for fanout in [2, 4] {
            let mut plan = FaultPlan::uniform_drops(0xC4A0_5000 + u64::from(fanout), 0.10);
            plan.crashes = (shards..2 * shards)
                .map(|endpoint| EndpointCrash {
                    endpoint: EndpointId(endpoint),
                    at_frame: 10,
                })
                .collect();
            let config = LiveConfig {
                machines: 4,
                ack: Some(AckConfig {
                    timeout: Duration::from_millis(40),
                    max_replays: 3,
                    drain_deadline: Duration::from_secs(20),
                    eos_redundancy: 4,
                }),
                run_deadline: Some(DEADLINE),
                ..chaos_config(kind, shards, plan)
            };
            let start = Instant::now();
            let (r, _) = run_chaos(200, fanout, Pace::Slow, config);
            let took = start.elapsed();
            let label = format!("{label} fanout={fanout}");
            assert_eq!(r.spout_emitted, 200, "{label}");
            assert_eq!(
                r.tuples_acked + r.tuples_failed,
                r.spout_emitted,
                "{label}: silent loss"
            );
            assert!(
                r.tuples_failed > 0,
                "{label}: tuples routed at the dead worker must fail"
            );
            assert!(
                r.fault_crashed_sends > 0,
                "{label}: the crash must reject sends"
            );
            assert_eq!(r.thread_panics, 0, "{label}");
            // The deadline, plus the teardown of a run it cut.
            assert!(
                took < DEADLINE + Duration::from_secs(3),
                "{label}: took {took:?}"
            );
        }
    }
}
