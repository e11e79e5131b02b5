//! E19 — live path: batched ring delivery vs synchronous per-send.
//!
//! Drives a real [`whale_net::RingFabric`] in deterministic mode (virtual clock, no
//! reader) with a rate-driven one-to-many workload: one source posting
//! each tuple to `fanout` destination endpoints, every ring passed on
//! every tick as its reader's own receive would. The measured
//! mean batch size then prices both delivery disciplines on the paper's
//! cost model — one work-request post per *message* (the per-send path,
//! what `LiveFabric` does) vs one post per *batch* plus a ring-buffer
//! memory-region reuse per message (stream slicing, §4). Every run is a
//! pure function of the config, so reruns emit byte-identical JSON.

use super::fig11_12_batching::capacity;
use super::live_zero_copy::{drive, ring_config, MSG_BYTES};
use crate::{Scale, Table};
use std::sync::Arc;
use whale_net::{EndpointId, FabricPath};
use whale_sim::CostModel;

/// One fan-out operating point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LivePoint {
    /// Destinations per tuple.
    pub fanout: u32,
    /// Tuples the source emitted.
    pub tuples: u64,
    /// Messages delivered (must equal `tuples × fanout`).
    pub messages: u64,
    /// Batches the ring flushed.
    pub batches: u64,
    /// Mean messages per flushed batch.
    pub mean_batch: f64,
    /// Modeled sender capacity with one post per message (msgs/s).
    pub per_send_msgs_s: f64,
    /// Modeled sender capacity at the measured batch size (msgs/s).
    pub ring_msgs_s: f64,
}

impl LivePoint {
    /// Ring capacity over per-send capacity.
    pub fn speedup(&self) -> f64 {
        self.ring_msgs_s / self.per_send_msgs_s
    }
}

/// Drive E20's deterministic ring workload (every tuple one shared
/// buffer posted to `fanout` endpoints, lossless delivery
/// asserted) for `tuples` tuples, and price the result.
pub fn measure(scale: Scale, fanout: u32) -> LivePoint {
    let tuples: u64 = scale.pick3(2_000, 10_000, 50_000);
    let payload: Arc<[u8]> = Arc::from(vec![0u8; MSG_BYTES].into_boxed_slice());
    let fabric = drive(ring_config(), tuples, fanout, |fabric, _seq| {
        for d in 0..fanout {
            fabric
                .send_shared(EndpointId(0), EndpointId(d + 1), Arc::clone(&payload))
                .expect("ring sized above the workload");
        }
    });

    let cost = CostModel::default();
    let stats = fabric.stats();
    LivePoint {
        fanout,
        tuples,
        messages: stats.messages,
        batches: stats.flushed_batches,
        mean_batch: stats.mean_batch_size(),
        per_send_msgs_s: capacity(1.0, MSG_BYTES, &cost),
        ring_msgs_s: capacity(stats.mean_batch_size().max(1.0), MSG_BYTES, &cost),
    }
}

/// Run the fan-out sweep.
pub fn run_experiment(scale: Scale) -> Vec<Table> {
    let points: Vec<LivePoint> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|fanout| measure(scale, fanout))
        .collect();
    vec![Table::of(
        "live_ring",
        "Live path: batched ring delivery vs per-send (modeled sender capacity)",
        &points,
        &[
            ("fanout", |p| p.fanout.to_string()),
            ("messages", |p| p.messages.to_string()),
            ("batches", |p| p.batches.to_string()),
            ("mean_batch", |p| format!("{:.1}", p.mean_batch)),
            ("per_send_msgs_s", |p| format!("{:.0}", p.per_send_msgs_s)),
            ("ring_msgs_s", |p| format!("{:.0}", p.ring_msgs_s)),
            ("speedup", |p| format!("{:.2}", p.speedup())),
        ],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_at_least_matches_per_send_at_fanout_4_and_up() {
        for fanout in [4u32, 8] {
            let p = measure(Scale::Smoke, fanout);
            assert!(p.mean_batch > 1.0, "fanout {fanout}: {:.2}", p.mean_batch);
            assert!(
                p.ring_msgs_s >= p.per_send_msgs_s,
                "fanout {fanout}: ring {:.0} < per-send {:.0}",
                p.ring_msgs_s,
                p.per_send_msgs_s
            );
        }
    }

    #[test]
    fn delivery_is_lossless_and_deterministic() {
        let a = measure(Scale::Smoke, 4);
        let b = measure(Scale::Smoke, 4);
        assert_eq!(a, b, "virtual-clock runs must be reproducible");
        assert_eq!(a.messages, a.tuples * 4);
        assert!(a.batches > 0);
    }

    #[test]
    fn sweep_emits_one_row_per_fanout() {
        let tables = run_experiment(Scale::Smoke);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 4);
        let json = tables[0].to_json().to_json_string();
        assert!(json.contains("\"schema\":\"whale-bench/v1\""), "{json}");
        assert!(json.contains("\"figure\":\"live_ring\""));
    }
}
