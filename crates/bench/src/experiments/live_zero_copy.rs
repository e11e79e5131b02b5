//! E20 — live path: clone-per-destination vs serialize-once zero-copy
//! fan-out over the ring.
//!
//! Drives a real [`RingFabric`] in deterministic mode (virtual clock,
//! every endpoint passed on every tick as its reader's own receive would)
//! with a one-to-many workload under both send disciplines:
//!
//! * **clone-per-dest** — every destination gets its own freshly
//!   allocated encode of the frame, posted through the copied (TCP
//!   semantics) path: `fanout` serializations and `fanout` buffers per
//!   tuple.
//! * **shared** — the frame is encoded once into a [`BufferPool`]
//!   scratch buffer, snapshotted into one shared wire buffer, and posted
//!   by reference to every destination: one serialization per tuple and
//!   a pool hit-rate that approaches 1.0 after the first acquire.
//!
//! The measured batch sizes and pool counters, with the message load of
//! the busiest of `shards` modeled drain shards, then price both
//! disciplines on the paper's cost model. Every run is a
//! pure function of the config, so reruns emit byte-identical JSON.

use super::Output;
use crate::{object, Scale, Table};
use bytes::BufMut;
use std::time::Duration;
use whale_dsps::BufferPool;
use whale_net::{BatchConfig, EndpointId, FabricPath, RingConfig, RingFabric};
use whale_sim::{CostModel, JsonValue, Transport};

/// Tuple payload size, matching the Figs 11/12 calibration runs. Public
/// so E19 drives the same frames.
pub const MSG_BYTES: usize = 150;

/// One (fanout, shards) operating point measured under both disciplines.
#[derive(Clone, PartialEq, Debug)]
pub struct ZeroCopyPoint {
    /// Destinations per tuple.
    pub fanout: u32,
    /// Modeled drain shards: the drain stage is priced as this many
    /// drainers in parallel, endpoint `d` on shard `d % shards`.
    pub shards: usize,
    /// Tuples the source emitted (per discipline).
    pub tuples: u64,
    /// Messages delivered per discipline (`tuples × fanout`).
    pub messages: u64,
    /// Bytes physically copied by the clone-per-dest discipline.
    pub clone_bytes: u64,
    /// Bytes passed by reference by the shared discipline.
    pub shared_bytes: u64,
    /// Frames serialized by the clone discipline (`tuples × fanout`).
    pub clone_encodes: u64,
    /// Frames serialized by the shared discipline (`tuples`).
    pub shared_encodes: u64,
    /// Pool hits during the shared run.
    pub pool_hits: u64,
    /// Pool misses during the shared run (1 after warmup).
    pub pool_misses: u64,
    /// Pool hit rate of the shared run (≈ 1.0 after warmup).
    pub pool_hit_rate: f64,
    /// Mean messages per flushed batch (shared run).
    pub mean_batch: f64,
    /// Messages on the most loaded modeled drain shard (drain critical
    /// path).
    pub max_shard_msgs: u64,
    /// Modeled time the shared discipline's sender stage takes (s).
    /// Public, with `drain_s`, so E24 divides it across pipelines.
    pub sender_shared_s: f64,
    /// Modeled time the slowest drain shard takes to drain (s).
    pub drain_s: f64,
    /// Modeled end-to-end capacity of clone-per-dest (tuples/s).
    pub clone_tuples_s: f64,
    /// Modeled end-to-end capacity of shared fan-out (tuples/s).
    pub shared_tuples_s: f64,
}

impl ZeroCopyPoint {
    /// Shared-payload capacity over clone-per-dest capacity.
    pub fn speedup(&self) -> f64 {
        self.shared_tuples_s / self.clone_tuples_s
    }
}

/// Encode the deterministic frame for `seq` into `out`.
fn fill_frame(out: &mut impl BufMut, seq: u64) {
    out.put_u64_le(seq);
    out.put_slice(&[0u8; MSG_BYTES - 8]);
}

/// The ring every live-path sweep (E19, E20, E24) drives: 64 KiB of ring
/// sliced at MMS = 4 KiB / WTL = 1 ms.
pub(super) fn ring_config() -> RingConfig {
    RingConfig {
        ring_capacity: 64 * 1024,
        batch: BatchConfig {
            mms: 4 * 1024,
            wtl: Duration::from_millis(1),
        },
    }
}

/// Run one discipline: emit `tuples` frames to `fanout` destinations,
/// passing every endpoint on every tick, and return the fabric for its
/// counters. `send` posts one frame to all destinations.
pub(super) fn drive(
    config: RingConfig,
    tuples: u64,
    fanout: u32,
    mut send: impl FnMut(&RingFabric, u64),
) -> RingFabric {
    let fabric = RingFabric::new(config);
    let receivers: Vec<_> = (0..fanout)
        .map(|d| {
            fabric
                .register(EndpointId(d + 1))
                .expect("fresh fabric has free endpoints")
        })
        .collect();
    let rate = 50_000.0; // tuples/s — WTL governs, as in the Fig 12 runs
    let gap = Duration::from_secs_f64(1.0 / rate);
    let mut now = Duration::ZERO;
    for seq in 0..tuples {
        send(&fabric, seq);
        fabric.pump(now);
        now += gap;
    }
    fabric.flush_at(now);
    let mut delivered = 0u64;
    for rx in &receivers {
        delivered += std::iter::from_fn(|| rx.try_recv().ok()).count() as u64;
    }
    assert_eq!(
        delivered,
        tuples * fanout as u64,
        "ring delivery must be lossless"
    );
    fabric
}

/// Measure one (fanout, shards) point under both disciplines and price
/// the result on the cost model.
pub fn measure(scale: Scale, fanout: u32, shards: usize) -> ZeroCopyPoint {
    let tuples: u64 = scale.pick3(600, 10_000, 50_000);
    let config = ring_config();
    let source = EndpointId(0);

    // Clone-per-dest: a fresh encode and a physical copy per destination.
    let clone_fabric = drive(config, tuples, fanout, |fabric, seq| {
        for d in 0..fanout {
            let mut frame = Vec::with_capacity(MSG_BYTES);
            fill_frame(&mut frame, seq);
            fabric
                .send_copied(source, EndpointId(d + 1), &frame)
                .expect("ring sized above the workload");
        }
    });

    // Shared: one pooled encode per tuple, one wire buffer shared by
    // reference across every destination.
    let pool = BufferPool::default();
    let shared_fabric = drive(config, tuples, fanout, |fabric, seq| {
        let mut scratch = pool.acquire();
        fill_frame(&mut *scratch, seq);
        let frame = scratch.share();
        for d in 0..fanout {
            fabric
                .send_shared(source, EndpointId(d + 1), std::sync::Arc::clone(&frame))
                .expect("ring sized above the workload");
        }
    });
    let (cloned, shared) = (clone_fabric.stats(), shared_fabric.stats());
    assert_eq!(
        cloned.copied_bytes, shared.shared_bytes,
        "both disciplines deliver the same frames"
    );
    assert_eq!(shared.copied_bytes, 0, "shared run never copies");

    // Drain critical path: the model deals each endpoint to exactly one
    // drain shard, by id, so the slowest shard drains `tuples × (endpoints
    // it owns)` messages.
    let max_shard_msgs = (0..shards)
        .map(|s| {
            let owned = (1..=fanout).filter(|d| *d as usize % shards == s).count() as u64;
            owned * tuples
        })
        .max()
        .unwrap_or(0);

    // Pricing. The sender pays serialization (per destination for the
    // clone discipline, once plus id-pack-sized reference handoffs for
    // the shared one) and a ring-region bookkeeping op per posted
    // message; the drain shards pay one work-request post per batch
    // plus wire time per message, and drain in parallel, so the slowest
    // shard is the drain critical path. Capacity is the slower of the
    // two stages.
    let cost = CostModel::default();
    let ser = cost.serialize(MSG_BYTES).as_secs_f64();
    let id_pack = cost.id_pack.as_secs_f64();
    let mr_op = cost.ring_mr_op.as_secs_f64();
    let post = cost.rdma_post_send.as_secs_f64();
    let wire = cost.wire_time(Transport::Rdma, MSG_BYTES).as_secs_f64();
    let mean_batch = shared.mean_batch_size().max(1.0);
    let drain_per_msg = mr_op + wire + post / mean_batch;
    let drain_time = max_shard_msgs as f64 * drain_per_msg;
    let f = fanout as f64;
    let sender_clone = tuples as f64 * f * (ser + mr_op);
    let sender_shared = tuples as f64 * (ser + f * (id_pack + mr_op));
    ZeroCopyPoint {
        fanout,
        shards,
        tuples,
        messages: shared.messages,
        clone_bytes: cloned.copied_bytes,
        shared_bytes: shared.shared_bytes,
        clone_encodes: tuples * fanout as u64,
        shared_encodes: tuples,
        pool_hits: pool.hits(),
        pool_misses: pool.misses(),
        pool_hit_rate: pool.hit_rate(),
        mean_batch: shared.mean_batch_size(),
        max_shard_msgs,
        sender_shared_s: sender_shared,
        drain_s: drain_time,
        clone_tuples_s: tuples as f64 / sender_clone.max(drain_time),
        shared_tuples_s: tuples as f64 / sender_shared.max(drain_time),
    }
}

/// Fan-outs swept by the experiment.
pub const FANOUTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Modeled drain-shard counts swept by the experiment.
pub const SHARDS: [usize; 3] = [1, 2, 4];

/// Measure every (shards, fanout) point of the sweep, in row order.
pub fn sweep(scale: Scale) -> Vec<ZeroCopyPoint> {
    let mut points = Vec::with_capacity(FANOUTS.len() * SHARDS.len());
    for &shards in &SHARDS {
        for &fanout in &FANOUTS {
            points.push(measure(scale, fanout, shards));
        }
    }
    points
}

/// Build the result table from measured points.
fn table_from_points(points: &[ZeroCopyPoint]) -> Table {
    Table::of(
        "live_zero_copy",
        "Live path: clone-per-dest vs serialize-once shared fan-out (modeled capacity)",
        points,
        &[
            ("fanout", |p| p.fanout.to_string()),
            ("shards", |p| p.shards.to_string()),
            ("messages", |p| p.messages.to_string()),
            ("clone_encodes", |p| p.clone_encodes.to_string()),
            ("shared_encodes", |p| p.shared_encodes.to_string()),
            ("pool_hit_rate", |p| format!("{:.4}", p.pool_hit_rate)),
            ("mean_batch", |p| format!("{:.1}", p.mean_batch)),
            ("max_shard_msgs", |p| p.max_shard_msgs.to_string()),
            ("clone_tuples_s", |p| format!("{:.0}", p.clone_tuples_s)),
            ("shared_tuples_s", |p| format!("{:.0}", p.shared_tuples_s)),
            ("speedup", |p| format!("{:.2}", p.speedup())),
        ],
    )
}

/// Headline summary of the live path, written as the top-level
/// `BENCH_live_path.json`. Schema-stable and byte-identical across
/// same-scale reruns (every field derives from the deterministic sweep).
fn summary_json(points: &[ZeroCopyPoint]) -> JsonValue {
    let f8 = points
        .iter()
        .find(|p| p.fanout == 8 && p.shards == 1)
        .expect("sweep covers the headline points");
    let best = points
        .iter()
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("sweep is non-empty");
    let point_json = |p: &ZeroCopyPoint| {
        object(&[
            ("fanout", &p.fanout),
            ("shards", &p.shards),
            ("speedup", &p.speedup()),
            ("clone_tuples_s", &p.clone_tuples_s),
            ("shared_tuples_s", &p.shared_tuples_s),
            ("pool_hit_rate", &p.pool_hit_rate),
        ])
    };
    let min_hit_rate = points
        .iter()
        .map(|p| p.pool_hit_rate)
        .fold(f64::INFINITY, f64::min);
    object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"live_path"),
        ("experiment", &"live_zero_copy"),
        ("fanout_8", &point_json(f8)),
        ("best", &point_json(best)),
        ("min_pool_hit_rate", &min_hit_rate),
        ("points", &points.len()),
    ])
}

/// Run the fan-out × shards sweep.
pub fn run_experiment(scale: Scale) -> Output {
    let points = sweep(scale);
    Output {
        tables: vec![table_from_points(&points)],
        headline: Some(summary_json(&points)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_beats_clone_at_fanout_8_and_up() {
        for fanout in [8u32, 16] {
            let p = measure(Scale::Smoke, fanout, 1);
            assert!(
                p.shared_tuples_s > p.clone_tuples_s,
                "fanout {fanout}: shared {:.0} ≤ clone {:.0}",
                p.shared_tuples_s,
                p.clone_tuples_s
            );
            assert!(p.speedup() > 1.5, "fanout {fanout}: {:.2}", p.speedup());
        }
    }

    #[test]
    fn pool_hit_rate_approaches_one_after_warmup() {
        let p = measure(Scale::Smoke, 4, 2);
        assert_eq!(p.pool_misses, 1, "only the warmup acquire allocates");
        assert_eq!(p.pool_hits, p.tuples - 1);
        assert!(p.pool_hit_rate > 0.99, "hit rate {:.4}", p.pool_hit_rate);
    }

    #[test]
    fn sharding_widens_the_drain_critical_path() {
        let one = measure(Scale::Smoke, 16, 1);
        let four = measure(Scale::Smoke, 16, 4);
        assert_eq!(one.max_shard_msgs, one.messages);
        assert_eq!(four.max_shard_msgs, four.messages / 4);
        assert!(
            four.shared_tuples_s >= one.shared_tuples_s,
            "more drain shards must never price slower"
        );
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure(Scale::Smoke, 8, 2);
        let b = measure(Scale::Smoke, 8, 2);
        assert_eq!(a, b, "virtual-clock runs must be reproducible");
        assert_eq!(a.messages, a.tuples * 8);
        assert_eq!(a.clone_bytes, a.shared_bytes);
    }

    #[test]
    fn sweep_emits_one_row_per_point() {
        let tables = run_experiment(Scale::Smoke).tables;
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), FANOUTS.len() * SHARDS.len());
    }
}
