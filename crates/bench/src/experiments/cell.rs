//! The live-cell runner: one acceptance cell of the real threaded
//! runtime, written once.
//!
//! Every live experiment (E22–E27) drives the same shape — one spout
//! broadcasting `tuples` tuples to `fanout` sinks ([`fanout_topology`])
//! under some [`LiveConfig`] — and holds the run to the same contract.
//! A [`CellSpec`] names what varies; [`run_cell`] runs it, asserts the
//! shared contract plus the spec's own [`Expect`]ations, and returns a
//! [`CellOutcome`] whose [`field`](CellOutcome::field)s are the
//! run-invariant values a report may carry. Thread scheduling perturbs
//! raw counts (replays, forwards, cross-shard messages), so those
//! surface only as asserted booleans; that is what keeps
//! `results/live_*.json` and `BENCH_*.json` byte-identical across
//! reruns.

use std::time::Duration;
use whale_dsps::{
    run_topology, AckConfig, Emitter, FnBolt, Grouping, IterSpout, LiveConfig, Operators,
    RunOutcome, RunReport, Schema, Topology, TopologyBuilder, Tuple, Value,
};
use whale_net::{FabricKind, LinkFaults, OneSidedConfig, RingConfig};
use whale_sim::JsonValue;

/// All-grouped spout → sink topology: a bare counter, every tuple tracked
/// to `fanout` first-hop subscribers that do nothing with it — the cell
/// measures the path, not the operator. A non-zero `gap` throttles the
/// spout, so a mid-run event (a forced tree switch) lands while the
/// stream is in flight.
pub fn fanout_topology(n: i64, fanout: u32, gap: Duration) -> (Topology, Operators) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", fanout, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let t = b.build().expect("static topology is valid");
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new((0..n).map(move |i| {
                if !gap.is_zero() {
                    std::thread::sleep(gap);
                }
                Tuple::with_id(i as u64, vec![Value::I64(i)])
            })))
        })
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
        });
    (t, ops)
}

/// The XOR-acker settings of a tracked cell: a timeout short enough that
/// a dropped frame replays within the run, a replay budget pure drops
/// never exhaust, and redundant EOS copies riding every relay hop
/// independently, so a lossy deep tree still terminates promptly.
pub fn tracked_ack() -> AckConfig {
    AckConfig {
        timeout: Duration::from_millis(60),
        max_replays: 20,
        drain_deadline: Duration::from_secs(20),
        eos_redundancy: 8,
    }
}

/// The three live transports, at their default configurations.
pub fn fabric_kinds() -> [FabricKind; 3] {
    [
        FabricKind::PerSend,
        FabricKind::Ring(RingConfig::default()),
        FabricKind::OneSided(OneSidedConfig::default()),
    ]
}

/// The label reports file a transport under.
pub fn fabric_name(kind: FabricKind) -> &'static str {
    match kind {
        FabricKind::PerSend => "per_send",
        FabricKind::Ring(_) => "ring",
        FabricKind::OneSided(_) => "one_sided",
    }
}

/// One expectation a cell adds to the shared contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// Tuples rode the relay tree.
    RelayActive,
    /// A tree switch landed mid-stream and the epoch advanced.
    Switched,
    /// The final out-degree widened past 1.
    Widened,
    /// No frame of a retired tree generation was dropped.
    NoStaleDrops,
    /// Fan-out shared wire buffers.
    SharesBuffers,
    /// Every frame was copied, none shared.
    CopiesOnly,
}

impl Expect {
    /// Whether `r` meets the expectation.
    fn holds(self, r: &RunReport) -> bool {
        match self {
            Expect::RelayActive => r.relay_forwards > 0,
            Expect::Switched => r.relay_switches >= 1 && r.relay_epoch >= 1,
            Expect::Widened => r.relay_d_star > 1,
            Expect::NoStaleDrops => r.relay_stale_drops == 0,
            Expect::SharesBuffers => r.shared_bytes > 0,
            Expect::CopiesOnly => r.shared_bytes == 0 && r.copied_bytes > 0,
        }
    }
}

/// One live cell: what runs, under which configuration, and what it
/// must show beyond the shared contract.
#[derive(Clone)]
pub struct CellSpec {
    /// Names the cell in assertion messages and, where a report has
    /// such a column, in its `mode` / `sink` field.
    pub label: String,
    /// Tuples the spout emits.
    pub tuples: i64,
    /// Sink instances each tuple fans out to.
    pub fanout: u32,
    /// Spout throttle (see [`fanout_topology`]).
    pub gap: Duration,
    /// Machines, shards, transport, relay tree, acker, log, fault plan.
    pub config: LiveConfig,
    /// Expectations beyond the shared contract.
    pub expect: Vec<Expect>,
}

impl CellSpec {
    /// The common tracked cell — an unthrottled counter over `machines`
    /// workers, [`tracked_ack`] on, bound to a 10 s run deadline, the
    /// runtime's defaults otherwise — for the caller to vary.
    pub fn tracked(label: impl Into<String>, tuples: i64, fanout: u32, machines: u32) -> Self {
        CellSpec {
            label: label.into(),
            tuples,
            fanout,
            gap: Duration::ZERO,
            config: LiveConfig {
                machines,
                ack: Some(tracked_ack()),
                run_deadline: Some(Duration::from_secs(10)),
                ..LiveConfig::default()
            },
            expect: Vec::new(),
        }
    }
}

/// A finished cell: the coordinates a report echoes and the run's report.
pub struct CellOutcome {
    /// [`CellSpec::label`].
    pub label: String,
    /// Transport label (`per_send`, `ring`, `one_sided`).
    pub fabric: &'static str,
    /// Injected silent-drop probability, in percent.
    pub drop_pct: u32,
    /// [`CellSpec::fanout`].
    pub fanout: u32,
    /// The configuration the cell ran under.
    pub config: LiveConfig,
    /// Everything the runtime counted. Only [`CellOutcome::field`]'s
    /// values are run-invariant.
    pub report: RunReport,
}

/// Run one cell on the real runtime and hold it to the shared contract:
/// the spout finishes, no thread panics, every tracked tuple ends acked
/// or failed (zero silent loss), a plan that injects nothing acks
/// everything and tears down `Clean`, a plan that drops actually does,
/// and a multi-shard run crosses shards.
pub fn run_cell(spec: &CellSpec) -> CellOutcome {
    let label = &spec.label;
    let config = spec.config.clone();
    let fault = config.fault.as_ref();
    let drop_pct = fault.map_or(0, |f| (f.default_link.drop * 100.0).round() as u32);
    let injects_nothing = fault.is_none_or(|f| {
        f.default_link == LinkFaults::default()
            && f.links.is_empty()
            && f.crashes.is_empty()
            && f.partitions.is_empty()
    });

    let (t, ops) = fanout_topology(spec.tuples, spec.fanout, spec.gap);
    let r = run_topology(t, ops, config.clone());

    assert_eq!(
        r.spout_emitted, spec.tuples as u64,
        "{label}: spout must finish"
    );
    assert_eq!(r.thread_panics, 0, "{label}: no thread may panic");
    if config.ack.is_some() {
        assert_eq!(
            r.tuples_acked + r.tuples_failed,
            r.spout_emitted,
            "{label}: silent loss"
        );
    }
    if injects_nothing {
        assert_eq!(
            r.tuples_failed, 0,
            "{label}: clean cell must ack everything"
        );
        assert_eq!(r.outcome, RunOutcome::Clean, "{label}");
    }
    if drop_pct > 0 {
        assert!(r.fault_drops > 0, "{label}: plan must actually drop frames");
    }
    assert_eq!(
        r.shards, config.shards as u64,
        "{label}: report must carry shards"
    );
    if config.shards > 1 {
        assert!(
            r.cross_shard_msgs > 0,
            "{label}: fan-out must cross shard inboxes"
        );
    }
    for e in &spec.expect {
        assert!(e.holds(&r), "{label}: expected {e:?}");
    }

    CellOutcome {
        label: spec.label.clone(),
        fabric: fabric_name(config.fabric),
        drop_pct,
        fanout: spec.fanout,
        config,
        report: r,
    }
}

/// The named fields of each cell: a report's `acceptance_cells`.
pub fn cells_json(cells: &[CellOutcome], keys: &[&str]) -> Vec<JsonValue> {
    cells.iter().map(|c| c.json(keys)).collect()
}

impl CellOutcome {
    /// Emitted tuples with no final verdict (`emitted - acked - failed`).
    /// Identically zero: the at-least-once contract [`run_cell`] asserts.
    pub fn silent_lost(&self) -> u64 {
        self.report.spout_emitted - self.report.tuples_acked - self.report.tuples_failed
    }

    /// One run-invariant report value by its report key. The label
    /// answers to the key each report has always filed it under.
    pub fn field(&self, key: &str) -> JsonValue {
        let r = &self.report;
        match key {
            "mode" | "sink" => JsonValue::str(&self.label),
            "fabric" => JsonValue::str(self.fabric),
            "drop_pct" => JsonValue::UInt(self.drop_pct as u64),
            "fanout" => JsonValue::UInt(self.fanout as u64),
            "machines" => JsonValue::UInt(self.config.machines as u64),
            "shards" => JsonValue::UInt(self.config.shards as u64),
            "zero_copy" => JsonValue::Bool(self.config.zero_copy),
            "emitted" => JsonValue::UInt(r.spout_emitted),
            "silent_lost" => JsonValue::UInt(self.silent_lost()),
            "relay_active" => JsonValue::Bool(r.relay_forwards > 0),
            "switched" => JsonValue::Bool(r.relay_switches >= 1),
            "cross_shard_active" => JsonValue::Bool(r.cross_shard_msgs > 0),
            other => panic!("a live cell reports no field {other:?}"),
        }
    }

    /// The named fields, in order, as one JSON object.
    pub fn json(&self, keys: &[&str]) -> JsonValue {
        JsonValue::Object(
            keys.iter()
                .map(|key| (key.to_string(), self.field(key)))
                .collect(),
        )
    }
}
