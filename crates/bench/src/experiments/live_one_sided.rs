//! E23 — one-sided remote-fetch delivery vs per-send and batched ring.
//!
//! Two layers, one report:
//!
//! * **Model sweep** (deterministic): per-tuple per-destination cost of
//!   the three live transports on the paper's verb cost model, across
//!   message sizes × fan-outs. The per-send path pays a two-sided
//!   SEND/RECV post per message; the ring path amortizes one post over
//!   the `k = MMS / size` messages of a stream-slicing batch; the
//!   one-sided path pays a single sender-side ring publish *shared by
//!   the whole fan-out* plus a receiver-driven RDMA READ (round-trip
//!   latency, `rdma_post_read` CPU) per destination. Batching wins while
//!   `k > 1`; once the message reaches MMS the batch collapses to a
//!   single post and the remote-fetch path is cheaper — the sweep
//!   locates that crossover per fan-out.
//! * **Live acceptance cells**: the real threaded runtime on
//!   `FabricKind::OneSided` with the XOR acker and relay trees on —
//!   clean and 10 %-drop variants. Every cell asserts
//!   `tuples_acked + tuples_failed == spout_emitted`.
//!
//! Thread scheduling perturbs replay/fetch *counts*, so the emitted rows
//! carry only run-invariant fields; `results/live_one_sided.json` and
//! `BENCH_one_sided.json` are byte-identical across same-seed reruns.

use super::cell::{cells_json, run_cell, CellOutcome, CellSpec, Expect};
use super::Output;
use crate::{object, Scale, Table};
use whale_net::{FabricKind, FaultPlan, OneSidedConfig};
use whale_sim::{CostModel, JsonValue, Transport, Verb};

/// Stream-slicing batch ceiling (bytes) the modeled ring path slices
/// against. Held fixed so the crossover is a pure function of message
/// size; E19 measures live batch sizes instead.
pub const MMS: usize = 16 * 1024;

/// Message sizes swept (bytes). The largest equals [`MMS`], where ring
/// batching degenerates to one post per message.
pub const SIZES: [usize; 4] = [64, 512, 2 * 1024, 16 * 1024];

/// Fan-outs swept (destinations per tuple).
pub const FANOUTS: [u32; 3] = [2, 8, 32];

/// One (fan-out, size) cell of the model sweep. Costs are modeled
/// nanoseconds per tuple per destination, end to end (sender CPU + wire
/// + latency + receiver CPU).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ModelPoint {
    /// Destinations per tuple.
    pub fanout: u32,
    /// Message payload size (bytes).
    pub msg_bytes: usize,
    /// Two-sided SEND/RECV, one post per message.
    pub per_send_ns: f64,
    /// Stream-slicing ring, one post per `k`-message batch.
    pub ring_ns: f64,
    /// Remote fetch: shared publish + per-destination RDMA READ.
    pub one_sided_ns: f64,
}

impl ModelPoint {
    /// Cheapest transport at this cell.
    pub fn winner(&self) -> &'static str {
        if self.one_sided_ns <= self.ring_ns && self.one_sided_ns <= self.per_send_ns {
            "one_sided"
        } else if self.ring_ns <= self.per_send_ns {
            "ring"
        } else {
            "per_send"
        }
    }
}

/// Messages per stream-slicing batch at payload size `s`.
fn batch_factor(s: usize) -> f64 {
    ((MMS / s.max(1)).max(1)) as f64
}

/// Price one (fan-out, size) cell on the cost model.
pub fn price(cost: &CostModel, fanout: u32, msg_bytes: usize) -> ModelPoint {
    let ns = |d: whale_sim::SimDuration| d.as_secs_f64() * 1e9;
    let wire = ns(cost.wire_time(Transport::Rdma, msg_bytes));
    let lat = ns(cost.net_latency(Transport::Rdma, 0));
    let mr_op = ns(cost.ring_mr_op);

    // Per-send: every message pays a full two-sided post on both ends.
    let per_send = ns(cost.send_cpu(Transport::Rdma, Verb::SendRecv, msg_bytes))
        + wire
        + lat
        + ns(cost.recv_cpu(Transport::Rdma, Verb::SendRecv));

    // Ring: the SEND/RECV posts amortize over the batch; every message
    // still pays a ring-region reuse on each end plus its wire share.
    let k = batch_factor(msg_bytes);
    let ring = 2.0 * mr_op
        + (ns(cost.send_cpu(Transport::Rdma, Verb::SendRecv, msg_bytes))
            + ns(cost.recv_cpu(Transport::Rdma, Verb::SendRecv)))
            / k
        + wire
        + lat;

    // One-sided: the sender publishes once for the whole fan-out (the
    // outbox slots share one Arc'd payload), then each destination pays
    // a ring bookkeeping op, an RDMA READ round trip, and the
    // receiver-side READ post.
    let one_sided = ns(cost.send_cpu(Transport::Rdma, Verb::Read, msg_bytes)) / fanout as f64
        + mr_op
        + wire
        + 2.0 * lat
        + ns(cost.recv_cpu(Transport::Rdma, Verb::Read));

    ModelPoint {
        fanout,
        msg_bytes,
        per_send_ns: per_send,
        ring_ns: ring,
        one_sided_ns: one_sided,
    }
}

/// The full model sweep: every fan-out × message size.
pub fn model_sweep() -> Vec<ModelPoint> {
    let cost = CostModel::default();
    FANOUTS
        .iter()
        .flat_map(|&fanout| SIZES.iter().map(move |&s| (fanout, s)))
        .map(|(fanout, s)| price(&cost, fanout, s))
        .collect()
}

/// Smallest swept message size at which the remote-fetch path beats the
/// batched ring for this fan-out, or `None` if batching always wins.
pub fn crossover_bytes(points: &[ModelPoint], fanout: u32) -> Option<usize> {
    points
        .iter()
        .filter(|p| p.fanout == fanout && p.one_sided_ns < p.ring_ns)
        .map(|p| p.msg_bytes)
        .min()
}

/// Sender-CPU bypass factor at fan-out `n`: per-send burns one full post
/// per destination; one-sided burns one shared publish plus a ring op
/// per destination.
pub fn sender_bypass_speedup(cost: &CostModel, fanout: u32) -> f64 {
    let n = fanout as f64;
    let per_send = n * cost.send_cpu(Transport::Rdma, Verb::SendRecv, 0).as_secs_f64();
    let one_sided = cost.send_cpu(Transport::Rdma, Verb::Read, 0).as_secs_f64()
        + n * cost.ring_mr_op.as_secs_f64();
    per_send / one_sided
}

/// Run one acked relay cell over `FabricKind::OneSided` and verify
/// acceptance: every emitted tuple ends acked or failed, tuples ride the
/// relay tree, and the fan-out shares buffers.
pub fn measure_live(scale: Scale, mode: &'static str, drop_pct: u32) -> CellOutcome {
    let seed = 0x0515_ED00 + drop_pct as u64 * 31 + mode.len() as u64;
    let mut cell = CellSpec::tracked(mode, scale.pick3(120, 400, 1_500), 16, 8);
    cell.config.multicast_d_star = Some(2);
    cell.config.fabric = FabricKind::OneSided(OneSidedConfig::default());
    cell.config.fault =
        (drop_pct > 0).then(|| FaultPlan::uniform_drops(seed, drop_pct as f64 / 100.0));
    cell.expect = vec![Expect::RelayActive, Expect::SharesBuffers];
    run_cell(&cell)
}

/// Run every live acceptance cell.
pub fn live_cells(scale: Scale) -> Vec<CellOutcome> {
    vec![
        measure_live(scale, "one_sided_clean", 0),
        measure_live(scale, "one_sided_drops", 10),
    ]
}

/// Build the model-sweep result table.
fn table_from_points(points: &[ModelPoint]) -> Table {
    Table::of(
        "live_one_sided",
        "One-sided remote fetch vs per-send and batched ring (modeled ns/tuple/dest)",
        points,
        &[
            ("fanout", |p| p.fanout.to_string()),
            ("msg_bytes", |p| p.msg_bytes.to_string()),
            ("per_send_ns", |p| format!("{:.1}", p.per_send_ns)),
            ("ring_ns", |p| format!("{:.1}", p.ring_ns)),
            ("one_sided_ns", |p| format!("{:.1}", p.one_sided_ns)),
            ("winner", |p| p.winner().to_string()),
        ],
    )
}

/// Headline summary written as the top-level `BENCH_one_sided.json`.
/// Schema-stable and byte-identical across same-scale reruns.
fn summary_json(points: &[ModelPoint], cells: &[CellOutcome]) -> JsonValue {
    let cost = CostModel::default();
    let crossovers: Vec<JsonValue> = FANOUTS
        .iter()
        .map(|&f| {
            object(&[
                ("fanout", &f),
                ("crossover_bytes", &crossover_bytes(points, f)),
                ("sender_bypass_speedup", &sender_bypass_speedup(&cost, f)),
            ])
        })
        .collect();
    let beats_per_send = points.iter().all(|p| p.one_sided_ns < p.per_send_ns);
    let keys = ["mode", "drop_pct", "emitted", "silent_lost", "relay_active"];
    object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"one_sided"),
        ("experiment", &"live_one_sided"),
        ("mms_bytes", &MMS),
        ("sizes_bytes", &SIZES),
        ("fanouts", &FANOUTS),
        ("one_sided_beats_per_send_everywhere", &beats_per_send),
        ("crossovers", &crossovers),
        ("acceptance_cells", &cells_json(cells, &keys)),
    ])
}

/// Run the model sweep, assert the acceptance margins, run the live
/// cells, and return the result table and the headline report.
pub fn run_experiment(scale: Scale) -> Output {
    let points = model_sweep();
    assert!(
        points.iter().all(|p| p.one_sided_ns < p.per_send_ns),
        "remote fetch must beat per-send at every cell"
    );
    for &f in &FANOUTS {
        let cross = crossover_bytes(&points, f)
            .unwrap_or_else(|| panic!("fanout {f}: batching must stop paying at MMS"));
        assert!(
            cross >= 1024,
            "fanout {f}: small messages must still favor batching (crossover {cross}B)"
        );
    }
    Output {
        tables: vec![table_from_points(&points)],
        headline: Some(summary_json(&points, &live_cells(scale))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_fetch_beats_per_send_everywhere() {
        for p in model_sweep() {
            assert!(
                p.one_sided_ns < p.per_send_ns,
                "fanout {} size {}: {:.0} vs {:.0}",
                p.fanout,
                p.msg_bytes,
                p.one_sided_ns,
                p.per_send_ns
            );
        }
    }

    #[test]
    fn batching_wins_small_remote_fetch_wins_at_mms() {
        let points = model_sweep();
        for p in &points {
            if p.msg_bytes <= 512 {
                assert_eq!(p.winner(), "ring", "fanout {} size {}", p.fanout, p.msg_bytes);
            }
            if p.msg_bytes >= MMS {
                assert_eq!(
                    p.winner(),
                    "one_sided",
                    "fanout {} size {}",
                    p.fanout,
                    p.msg_bytes
                );
            }
        }
        for &f in &FANOUTS {
            let cross = crossover_bytes(&points, f).expect("crossover must exist");
            assert!(cross > 512 && cross <= MMS, "fanout {f}: {cross}");
        }
    }

    #[test]
    fn sender_bypass_grows_with_fanout() {
        let cost = CostModel::default();
        let s2 = sender_bypass_speedup(&cost, 2);
        let s32 = sender_bypass_speedup(&cost, 32);
        assert!(s2 > 1.0, "{s2:.1}");
        assert!(s32 > s2, "{s32:.1} vs {s2:.1}");
    }
}
