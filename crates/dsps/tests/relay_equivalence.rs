//! Property tests for the relay data plane: routing all-grouped
//! broadcasts through a worker-level multicast tree — at any out-degree,
//! across worker counts, with injected drops and a mid-run epoch switch
//! on every transport — must be observationally equivalent to the source sending to every
//! worker directly. The executor-side root-id dedup makes the check
//! sharp: every emitted value executes exactly once per sink instance,
//! so a frame delivered twice (e.g. on a retired epoch *and* via its
//! replay on the new tree) would surface as a count > FANOUT.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use whale_dsps::{
    run_topology, AckConfig, AdaptiveConfig, Emitter, FnBolt, Grouping, IterSpout, LiveConfig,
    Operators, RunReport, Schema, Tuple, TopologyBuilder, Value,
};
use whale_net::{FabricKind, FaultPlan, OneSidedConfig, RingConfig};

const TUPLES: i64 = 50;
const FANOUT: u32 = 4;

/// How the spout hands out its tuples.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Pace {
    /// `TUPLES`, each at once: a spout step emits a batch, and what it
    /// relays leaves as one run of records per tree edge.
    Prompt,
    /// `SATURATING` tuples, each at once: runs of up to a full batch, even
    /// after a call that a busy host made slow (the spout then emits one
    /// tuple a step for a while).
    Saturating,
    /// `TUPLES`, each call slower than the runtime lets a step wait on one:
    /// every step emits one tuple, and every run is a run of one.
    Slow,
}

/// Tuples of a [`Pace::Saturating`] spout.
const SATURATING: i64 = 400;

impl Pace {
    fn tuples(self) -> i64 {
        match self {
            Pace::Saturating => SATURATING,
            Pace::Prompt | Pace::Slow => TUPLES,
        }
    }
}

/// Relay out-degrees the equivalence must hold at.
const DEGREES: [u32; 3] = [1, 2, 4];

/// The transports a switch must hold on.
fn fabrics() -> [FabricKind; 3] {
    [
        FabricKind::PerSend,
        FabricKind::Ring(RingConfig::default()),
        FabricKind::OneSided(OneSidedConfig::default()),
    ]
}

/// Run one tracked all-grouped topology, its spout paced by `pace`, over
/// `fabric` with `shards` pipelines per worker and return `(report,
/// per-value execution counts unioned over sink instances)`.
fn run_cell(
    pace: Pace,
    machines: u32,
    d_star: Option<u32>,
    adaptive: Option<AdaptiveConfig>,
    plan: Option<FaultPlan>,
    (fabric, shards): (FabricKind, u32),
) -> (RunReport, HashMap<i64, u64>) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", FANOUT, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let t = b.build().unwrap();

    let seen: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink_seen = Arc::clone(&seen);
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new((0..pace.tuples()).map(move |i| {
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

    let report = run_topology(
        t,
        ops,
        LiveConfig {
            machines,
            shards,
            fabric,
            multicast_d_star: d_star,
            multicast_adaptive: adaptive,
            ack: Some(AckConfig {
                timeout: Duration::from_millis(40),
                // A replay round at ≤20% drops reaches all FANOUT
                // first-hop subscribers with p ≈ 0.41, so 40 rounds put
                // residual failure odds near 1e-9 per tuple: a failed
                // tuple means broken machinery, not bad luck.
                max_replays: 40,
                drain_deadline: Duration::from_secs(20),
                // Redundant EOS copies survive lossy multi-hop trees.
                eos_redundancy: 8,
            }),
            fault: plan,
            run_deadline: Some(Duration::from_secs(10)),
            ..LiveConfig::default()
        },
    );
    let counts = std::mem::take(&mut *seen.lock().unwrap());
    (report, counts)
}

/// The dedup'd execution multiset must be exactly the `tuples` emitted,
/// executed once per sink instance — the shared oracle for every cell.
fn assert_exact_delivery(label: &str, r: &RunReport, counts: &HashMap<i64, u64>, tuples: i64) {
    assert_eq!(r.spout_emitted, tuples as u64, "{label}: spout must finish");
    assert_eq!(
        r.tuples_acked + r.tuples_failed,
        r.spout_emitted,
        "{label}: silent loss"
    );
    assert_eq!(r.tuples_failed, 0, "{label}: replay budget exhausted");
    assert_eq!(r.thread_panics, 0, "{label}: no thread may panic");
    assert_eq!(counts.len() as i64, tuples, "{label}: value set mismatch");
    for v in 0..tuples {
        let n = counts.get(&v).copied().unwrap_or(0);
        assert_eq!(
            n, FANOUT as u64,
            "{label}: value {v} executed {n} times, want {FANOUT}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Relay ≡ direct: at any out-degree and worker count, with drops
    /// injected, and whether a step relays a run of many records or of
    /// one, the relay tree delivers exactly the multiset the direct
    /// source-to-every-worker plan delivers.
    #[test]
    fn relay_delivery_equals_direct_delivery(
        seed in 0u64..u64::MAX,
        drop_pct in 0u32..21,
        machines in 3u32..8,
        d_idx in 0usize..DEGREES.len(),
        saturating in any::<bool>(),
    ) {
        let d = DEGREES[d_idx];
        let pace = if saturating { Pace::Saturating } else { Pace::Slow };
        let tuples = pace.tuples();
        let plan = |salt: u64| {
            (drop_pct > 0)
                .then(|| FaultPlan::uniform_drops(seed ^ salt, drop_pct as f64 / 100.0))
        };
        let per_send = (FabricKind::PerSend, 1);
        let (direct_r, direct_counts) = run_cell(pace, machines, None, None, plan(0), per_send);
        assert_exact_delivery("direct", &direct_r, &direct_counts, tuples);
        prop_assert_eq!(direct_r.relay_forwards, 0, "direct plan never relays");

        let label = format!("relay d={d} m={machines} drop={drop_pct}% {pace:?}");
        let (relay_r, relay_counts) = run_cell(pace, machines, Some(d), None, plan(1), per_send);
        assert_exact_delivery(&label, &relay_r, &relay_counts, tuples);
        prop_assert_eq!(&relay_counts, &direct_counts, "{}: delivery differs", label);
        // A tree wider than the worker set degenerates to the direct
        // star; otherwise some relay node must have forwarded.
        if machines - 1 > d {
            prop_assert!(relay_r.relay_forwards > 0, "{}: tree unused", label);
        }
        // A tree over the other workers has one edge per worker. Frames
        // of one record each would be at least that many per tuple.
        if pace == Pace::Saturating {
            let edges = u64::from(machines - 1);
            prop_assert!(
                relay_r.fabric_messages < tuples as u64 * edges,
                "{}: {} frames, no runs",
                label,
                relay_r.fabric_messages
            );
        }
    }

    /// A mid-run epoch switch under injected drops loses nothing and
    /// never double-delivers, on every transport at one and two
    /// pipelines per worker: frames caught on the old generation are
    /// flushed out ahead of its end-of-generation markers or dropped as
    /// stale and replayed on the new tree, the root-id dedup keeps every
    /// (instance, value) count at exactly one, and every switch's
    /// generation has retired by the end of the run.
    #[test]
    fn epoch_switch_under_drops_keeps_exact_delivery(
        seed in 0u64..u64::MAX,
        drop_pct in 0u32..21,
        machines in 4u32..8,
        from_idx in 0usize..DEGREES.len(),
        to_idx in 0usize..DEGREES.len(),
        fabric_idx in 0usize..3,
        shards in 1u32..3,
    ) {
        let adaptive = AdaptiveConfig {
            interval: Duration::from_millis(1),
            forced_switches: vec![(TUPLES as u64 / 2, DEGREES[to_idx])],
            ..AdaptiveConfig::default()
        };
        let plan = (drop_pct > 0)
            .then(|| FaultPlan::uniform_drops(seed, drop_pct as f64 / 100.0));
        let fabric = fabrics()[fabric_idx];
        let label = format!(
            "switch d={}→{} m={machines} drop={drop_pct}% {fabric:?} shards={shards}",
            DEGREES[from_idx], DEGREES[to_idx]
        );
        let (r, counts) = run_cell(
            Pace::Prompt,
            machines,
            Some(DEGREES[from_idx]),
            Some(adaptive),
            plan,
            (fabric, shards),
        );
        assert_exact_delivery(&label, &r, &counts, TUPLES);
        if DEGREES[from_idx] != DEGREES[to_idx] {
            prop_assert!(r.relay_switches >= 1, "{}: switch must land", label);
            prop_assert!(r.relay_epoch >= 1, "{}: epoch must advance", label);
        }
        prop_assert_eq!(
            r.relay_retire_ns.len() as u64,
            r.relay_switches,
            "{}: a switch's generation never retired",
            label
        );
    }
}
