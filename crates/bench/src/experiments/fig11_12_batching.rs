//! E06–E07 — Figs 11/12: calibrating Stream Slicing (MMS and WTL).
//!
//! A dedicated micro-simulation of the sender's transfer buffer: messages
//! arrive at a controlled rate, the [`Batcher`] flushes at MMS bytes or
//! WTL age, each flush costs one work-request post plus the batch's wire
//! time on the 56 Gbps NIC. Reported: sustainable throughput (sender-side
//! capacity) and mean per-message latency.

use crate::{fmt_rate, Scale, Table};
use std::time::Duration;
use whale_net::{BatchConfig, Batcher};
use whale_sim::{CoreClock, CostModel, Nic, SimDuration, SimTime, Transport};

/// Result of one batching operating point.
#[derive(Clone, Copy, Debug)]
pub struct BatchPoint {
    /// Sender-side sustainable messages/s.
    pub capacity: f64,
    /// Mean per-message latency at the driven rate.
    pub mean_latency: SimDuration,
    /// Mean messages per emitted batch.
    pub mean_batch: f64,
}

/// Sender-side capacity: messages per second the post+wire pipeline can
/// sustain when batches reach `batch_n` messages — each flush one
/// work-request post, each message a ring-region reuse plus its wire
/// time.
pub(super) fn capacity(batch_n: f64, msg_bytes: usize, cost: &CostModel) -> f64 {
    let post = cost.rdma_post_send.as_secs_f64();
    let per_msg =
        cost.ring_mr_op.as_secs_f64() + cost.wire_time(Transport::Rdma, msg_bytes).as_secs_f64();
    batch_n / (post + batch_n * per_msg)
}

/// Drive the batcher at `rate` msgs/s for `horizon` and measure latency.
pub fn simulate(config: BatchConfig, msg_bytes: usize, rate: f64, horizon: SimTime) -> BatchPoint {
    let cost = CostModel::default();
    let mut batcher: Batcher<SimTime> = Batcher::new(config);
    let mut nic = Nic::new(Transport::Rdma);
    let mut sender = CoreClock::new();
    let mut total_latency = SimDuration::ZERO;
    let mut delivered: u64 = 0;

    let gap = SimDuration::from_secs_f64(1.0 / rate);
    let mut t = SimTime::ZERO;
    let flush = |batch: whale_net::Batch<SimTime>,
                 at: SimTime,
                 nic: &mut Nic,
                 sender: &mut CoreClock,
                 total: &mut SimDuration,
                 delivered: &mut u64| {
        // One WR post per batch, then the batch crosses the wire.
        let (_, posted) = sender.begin_work(at, cost.rdma_post_send);
        let (_, arrive) = nic.transmit(posted, batch.bytes, 0, &cost);
        for sent_at in batch.items {
            *total += arrive.since(sent_at);
            *delivered += 1;
        }
    };

    while t <= horizon {
        // Timer flushes due before this arrival. The batcher's clock is a
        // `Duration` from the simulation's time zero.
        if let Some(deadline) = batcher.deadline() {
            let at = SimTime::from_nanos(deadline.as_nanos() as u64);
            if at <= t {
                if let Some(batch) = batcher.on_timer(deadline) {
                    flush(
                        batch,
                        at,
                        &mut nic,
                        &mut sender,
                        &mut total_latency,
                        &mut delivered,
                    );
                }
            }
        }
        if let Some(batch) = batcher.offer(Duration::from_nanos(t.as_nanos()), t, msg_bytes) {
            flush(
                batch,
                t,
                &mut nic,
                &mut sender,
                &mut total_latency,
                &mut delivered,
            );
        }
        t += gap;
    }
    if let Some(batch) = batcher.flush() {
        flush(
            batch,
            t,
            &mut nic,
            &mut sender,
            &mut total_latency,
            &mut delivered,
        );
    }

    let batch_n = batcher.mean_batch_size().max(1.0);
    BatchPoint {
        capacity: capacity(batch_n, msg_bytes, &cost),
        mean_latency: if delivered == 0 {
            SimDuration::ZERO
        } else {
            total_latency / delivered
        },
        mean_batch: batch_n,
    }
}

/// Run both sweeps.
pub fn run_experiment(scale: Scale) -> Vec<Table> {
    let msg_bytes = 150;
    let horizon = SimTime::from_millis(scale.pick3(50, 300, 2_000));
    let cost = CostModel::default();

    let mut fig11 = Table::new(
        "fig11",
        "System performance vs Max Memory Size (WTL = 1 ms)",
        &["mms", "capacity_msgs_s", "mean_latency_us", "mean_batch"],
    );
    for &mms in &[
        512usize,
        4 * 1024,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        512 * 1024,
        1024 * 1024,
    ] {
        let config = BatchConfig {
            mms,
            wtl: Duration::from_millis(1),
        };
        // Drive at 80% of this point's fill capacity so batches actually
        // form (the paper saturates the sender the same way).
        let cap_est = capacity((mms as f64 / msg_bytes as f64).max(1.0), msg_bytes, &cost);
        let point = simulate(config, msg_bytes, cap_est * 0.8, horizon);
        fig11.row_strings(vec![
            human_bytes(mms),
            fmt_rate(point.capacity),
            format!("{:.1}", point.mean_latency.as_nanos() as f64 / 1e3),
            format!("{:.1}", point.mean_batch),
        ]);
    }

    let mut fig12 = Table::new(
        "fig12",
        "System performance vs Wait Time Limit (MMS = 256 KB)",
        &["wtl_ms", "capacity_msgs_s", "mean_latency_us", "mean_batch"],
    );
    for &wtl_ms in &[1u64, 2, 5, 10, 20, 30] {
        let config = BatchConfig {
            mms: 256 * 1024,
            wtl: Duration::from_millis(wtl_ms),
        };
        // Moderate rate: the buffer never reaches MMS, so WTL governs.
        let point = simulate(config, msg_bytes, 50_000.0, horizon);
        fig12.row_strings(vec![
            wtl_ms.to_string(),
            fmt_rate(point.capacity),
            format!("{:.1}", point.mean_latency.as_nanos() as f64 / 1e3),
            format!("{:.1}", point.mean_batch),
        ]);
    }
    vec![fig11, fig12]
}

fn human_bytes(b: usize) -> String {
    if b >= 1024 * 1024 {
        format!("{}MB", b / (1024 * 1024))
    } else if b >= 1024 {
        format!("{}KB", b / 1024)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rises_with_batch_size() {
        let cost = CostModel::default();
        let small = capacity(3.0, 150, &cost);
        let big = capacity(1_000.0, 150, &cost);
        assert!(big > 2.0 * small, "small={small:.0} big={big:.0}");
    }

    #[test]
    fn latency_rises_with_wtl() {
        let horizon = SimTime::from_millis(200);
        let lat = |wtl_ms: u64| {
            simulate(
                BatchConfig {
                    mms: 256 * 1024,
                    wtl: Duration::from_millis(wtl_ms),
                },
                150,
                50_000.0,
                horizon,
            )
            .mean_latency
        };
        let l1 = lat(1);
        let l10 = lat(10);
        let l30 = lat(30);
        assert!(l1 < l10 && l10 < l30, "{l1} {l10} {l30}");
    }

    #[test]
    fn fig11_shape_throughput_up() {
        let tables = run_experiment(Scale::Smoke);
        let fig11 = &tables[0];
        assert_eq!(fig11.len(), 7);
    }
}
