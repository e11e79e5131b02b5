//! What a live run reports: the shared [`RunStats`] counters the data
//! plane bumps, the [`RunReport`] assembled from them at teardown, and
//! its [`MetricsRegistry`](whale_sim::MetricsRegistry) export.

use super::config::BuildError;
use super::reliability::splitmix64;
use super::send::Routing;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use whale_net::{FaultFabric, PartitionLog};
use whale_sim::SimTime;

/// Structured shutdown reason of a live run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum RunOutcome {
    /// Every thread completed normally.
    #[default]
    Clean,
    /// The topology never ran: validation failed before any thread was
    /// spawned, and the report carries all-zero counters.
    ConfigError(BuildError),
    /// The run completed and tore down in order, but lost something along
    /// the way: panicking threads, frames whose bounded send retries
    /// exhausted, tuples that ran out of replays, or executors that hit
    /// the run deadline still waiting for traffic. Nothing here is
    /// silent — every loss is counted.
    Degraded {
        /// Number of threads that panicked.
        thread_panics: u64,
        /// Frames dropped after the send policy's deadline exhausted.
        failed_sends: u64,
        /// Tracked tuples that exhausted their replay budget.
        failed_tuples: u64,
        /// Executors that exited on [`super::LiveConfig::run_deadline`].
        deadline_exits: u64,
    },
}

impl RunOutcome {
    /// True only for a fully clean completion.
    pub fn is_clean(&self) -> bool {
        *self == RunOutcome::Clean
    }
}

/// Counters collected during a live run.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Times a data item was serialized.
    pub serializations: AtomicU64,
    /// Wire frames encoded (each a pool acquire + fill). Redundant EOS
    /// copies and relay forwards resend existing bytes, so they grow
    /// fabric messages without growing this.
    pub frames_encoded: AtomicU64,
    /// Tuples executed, indexed by component id (filled at build).
    pub executed: Vec<AtomicU64>,
    /// Tuples emitted by spouts.
    pub spout_emitted: AtomicU64,
    /// Relay forwards performed by non-source workers (multicast tree).
    pub relay_forwards: AtomicU64,
    /// Malformed, truncated, unroutable fabric frames — and tuples whose
    /// grouping could not route them (e.g. a missing key field) —
    /// dropped by the pipelines instead of crashing the worker.
    pub dropped_frames: AtomicU64,
    /// Operator invocations (`next_tuple`/`execute`/`finish`) that
    /// panicked; the owning pipeline poisons the task and keeps running.
    pub op_panics: AtomicU64,
    /// Executor messages that crossed shard pipelines through a bounded
    /// inbox (same-shard deliveries loop back without a channel).
    pub cross_shard_msgs: AtomicU64,
    /// Executor deliveries made as lazy wire views (shared receive
    /// buffer, nothing decoded at dispatch).
    pub wire_tuples_lazy: AtomicU64,
    /// Lazy wire tuples an executor actually materialized (first touch
    /// of a tuple that crossed the operator boundary; fan-out sharing
    /// means this counts decodes, not deliveries).
    pub tuples_materialized: AtomicU64,
    /// Backpressure retries performed under the send policy.
    pub send_retries: AtomicU64,
    /// Frames dropped after the send policy's deadline exhausted.
    pub send_failed: AtomicU64,
    /// Executors that exited on the run deadline instead of EOS.
    pub deadline_exits: AtomicU64,
    /// Idle episodes that outlasted the spin rung and yielded the CPU.
    pub pipeline_yields: AtomicU64,
    /// Blocking waits pipelines entered after spinning and yielding.
    pub pipeline_parks: AtomicU64,
    /// Blocking waits that returned work (a frame or an inbox wake-up)
    /// rather than timing out.
    pub pipeline_wakeups_with_work: AtomicU64,
    /// Spout-to-execute delivery-latency probes of sampled tuples.
    pub(super) delivery: DeliveryProbes,
}

/// Every `LATENCY_SAMPLE`-th tuple id is timed from spout emission to the
/// start of each batch that executes it (wall clock): one clock read per
/// sampled batch, recorded once per executing task, so a bolt's sample
/// does not include the bolts that ran before it in the same batch. Relay
/// forward latency is sampled at the same rate.
pub(super) const LATENCY_SAMPLE: u64 = 8;

/// Emit stamps kept at once: a sampled id's stamp is evicted by the id
/// `EMIT_WINDOW` samples after it, so the table is one fixed allocation
/// however long the run. A delivery that far behind its spout goes
/// untimed.
const EMIT_WINDOW: usize = 8 * 1024;

/// Sampled timings kept for the report, per [`Reservoir`]. Past it the
/// kept values are a uniform sample of every recorded one (algorithm R,
/// seeded by the running count, so a replayed sequence keeps the same
/// values).
const RESERVOIR_CAP: usize = 64 * 1024;

/// Delivery-latency bookkeeping in bounded memory: a fixed window of emit
/// stamps and a fixed-size reservoir of latencies with an exact count.
#[derive(Debug, Default)]
pub(super) struct DeliveryProbes {
    /// `(id, emit instant)` of sampled ids, at slot
    /// `(id / LATENCY_SAMPLE) % EMIT_WINDOW`; allocated on first use.
    stamps: Mutex<Vec<Option<(u64, Instant)>>>,
    latencies: Mutex<Reservoir>,
}

/// Sampled timings in bounded memory: an exact count and at most
/// [`RESERVOIR_CAP`] of the values.
#[derive(Debug, Default)]
pub(super) struct Reservoir {
    kept: Vec<u64>,
    seen: u64,
}

impl Reservoir {
    pub(super) fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR_CAP {
            self.kept.push(ns);
        } else {
            let j = splitmix64(self.seen) % self.seen;
            if let Some(kept) = self.kept.get_mut(j as usize) {
                *kept = ns;
            }
        }
    }

    /// The kept values and the exact number recorded.
    pub(super) fn take(&mut self) -> (Vec<u64>, u64) {
        (std::mem::take(&mut self.kept), self.seen)
    }
}

impl DeliveryProbes {
    fn sampled(id: u64) -> bool {
        id != 0 && id.is_multiple_of(LATENCY_SAMPLE)
    }

    fn slot(id: u64) -> usize {
        (id / LATENCY_SAMPLE) as usize % EMIT_WINDOW
    }

    /// A spout emitted tuple `id`: stamp it if it is a sampled one.
    pub(super) fn on_emit(&self, id: u64) {
        if !Self::sampled(id) {
            return;
        }
        let mut stamps = self.stamps.lock();
        if stamps.is_empty() {
            stamps.resize(EMIT_WINDOW, None);
        }
        stamps[Self::slot(id)] = Some((id, Instant::now()));
    }

    /// When tuple `id` left its spout, if it is a sampled one whose emit
    /// stamp is still in the window — one lock per batch of deliveries;
    /// an unsampled id costs a modulo.
    pub(super) fn emitted_at(&self, id: u64) -> Option<Instant> {
        if !Self::sampled(id) {
            return None;
        }
        let stamp = self.stamps.lock().get(Self::slot(id)).copied().flatten();
        let (_, at) = stamp.filter(|(stamped, _)| *stamped == id)?;
        Some(at)
    }

    /// Record one batch's emit-to-batch-start time once per task that
    /// executed it, under one lock.
    pub(super) fn record(&self, ns: u64, executions: u64) {
        if executions == 0 {
            return;
        }
        let mut r = self.latencies.lock();
        for _ in 0..executions {
            r.record(ns);
        }
    }

    /// The kept latencies and the exact number of sampled deliveries.
    pub(super) fn take(&self) -> (Vec<u64>, u64) {
        self.latencies.lock().take()
    }
}

/// Result of a completed live run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Data-item serializations performed.
    pub serializations: u64,
    /// Tuples executed per component (by component id index).
    pub executed: Vec<u64>,
    /// Tuples emitted by spouts.
    pub spout_emitted: u64,
    /// Network messages through the fabric.
    pub fabric_messages: u64,
    /// Bytes copied (TCP semantics).
    pub copied_bytes: u64,
    /// Bytes shared (RDMA semantics).
    pub shared_bytes: u64,
    /// Relay forwards performed by non-source workers (multicast tree).
    pub relay_forwards: u64,
    /// Wire frames encoded (pool acquire + fill). Redundant EOS copies
    /// and relay forwards resend existing bytes without re-encoding.
    pub frames_encoded: u64,
    /// Wire bytes sent on the relay path (origin sends + forwards); the
    /// remainder of the fabric byte totals moved point-to-point.
    pub relay_bytes: u64,
    /// Relay frames dropped because their tree generation was retired.
    pub relay_stale_drops: u64,
    /// Bytes delivered over rack uplinks — the oversubscribed links a
    /// topology-aware tree economizes (0 unless a topology is
    /// configured).
    pub uplink_bytes: u64,
    /// Delivered bytes per link (`LinkId` rendered, bytes), every link
    /// with traffic. Sums to `copied_bytes + shared_bytes`: each send
    /// traverses exactly one link, so per-link totals tile the wire
    /// total. Empty unless a topology is configured.
    pub link_bytes: Vec<(String, u64)>,
    /// Runtime tree reconfigurations performed.
    pub relay_switches: u64,
    /// Per-instance connection moves across all reconfigurations.
    pub relay_switch_moves: u64,
    /// Final relay tree generation (0 when no switch happened).
    pub relay_epoch: u32,
    /// Final relay out-degree (0 when the relay path was off).
    pub relay_d_star: u32,
    /// Received relay frames by tree depth of the receiving node (last
    /// bucket absorbs deeper hops); empty when the relay path was off.
    pub relay_depths: Vec<u64>,
    /// Sampled per-hop relay forward latencies (receipt to last child
    /// send, ns), unordered; a uniform sample of them once a long run has
    /// taken more than the reservoir holds.
    pub relay_forward_ns: Vec<u64>,
    /// Malformed or unroutable fabric frames (and unroutable tuples)
    /// dropped by the pipelines.
    pub dropped_frames: u64,
    /// Panicked operator invocations plus panicked runtime threads; a
    /// panicking operator poisons its task, and the run still joins
    /// every thread and tears the fabric down in order.
    pub thread_panics: u64,
    /// Pipeline shards per worker the run executed with.
    pub shards: u64,
    /// Executor messages that crossed shard pipelines through bounded
    /// inboxes (0 when every delivery stayed shard-local).
    pub cross_shard_msgs: u64,
    /// Executor deliveries made as lazy wire views — received frames
    /// dispatched without decoding anything.
    pub wire_tuples_lazy: u64,
    /// Lazy wire tuples materialized on first executor touch; the gap to
    /// `wire_tuples_lazy` is decode work the view layer never did.
    pub tuples_materialized: u64,
    /// Sends that failed at the fabric (unknown endpoint, backpressure
    /// that never cleared, or a receiver dropped during teardown). Failed
    /// sends never count toward the byte totals.
    pub send_errors: u64,
    /// Batches the transport flushed (0 on the per-send path).
    pub batches_flushed: u64,
    /// Mean messages per flushed batch (0 on the per-send path).
    pub mean_batch_size: f64,
    /// Encode-buffer pool acquires served from a reused buffer.
    pub pool_hits: u64,
    /// Encode-buffer pool acquires that had to allocate.
    pub pool_misses: u64,
    /// Most encode buffers outstanding at once during the run.
    pub pool_high_watermark: u64,
    /// Pool hits over total acquires (≈ 1.0 once warm: the steady-state
    /// hot path allocates nothing).
    pub pool_hit_rate: f64,
    /// Backpressure retries performed under the send policy.
    pub send_retries: u64,
    /// Frames dropped after the send policy's deadline exhausted (these
    /// degrade the run; teardown races do not).
    pub send_failed: u64,
    /// Executors that exited on [`super::LiveConfig::run_deadline`].
    pub deadline_exits: u64,
    /// Idle episodes that outlasted the spin rung and yielded the CPU
    /// (each then either found work or went on to block).
    pub pipeline_yields: u64,
    /// Blocking waits the pipelines entered (idle after spin and yield).
    /// Scales with how often work arrives at an idle pipeline, not with
    /// run length.
    pub pipeline_parks: u64,
    /// Blocking waits that returned work rather than timing out.
    pub pipeline_wakeups_with_work: u64,
    /// Tracked tuples fully delivered (ack runs only).
    pub tuples_acked: u64,
    /// Tracked tuples given up on after the replay budget (ack runs only).
    pub tuples_failed: u64,
    /// Replay emissions performed (ack runs only).
    pub tuples_replayed: u64,
    /// Duplicate deliveries suppressed at executors by root-id dedup.
    pub dedup_dropped: u64,
    /// The most roots the ledger's window has held at once: the distance
    /// from the oldest unresolved root to the newest, not the length of
    /// the stream.
    pub ack_window_peak: u64,
    /// The most roots any one executor's dedup window has held at once
    /// (it is trimmed to the ledger's watermark).
    pub dedup_window_peak: u64,
    /// Frames silently dropped by injected drop faults.
    pub fault_drops: u64,
    /// Frames duplicated by injected faults.
    pub fault_duplicates: u64,
    /// Frames parked by injected delay faults.
    pub fault_delayed: u64,
    /// Sends rejected by injected `Full` bursts.
    pub fault_full_injected: u64,
    /// Frames lost inside injected partition windows.
    pub fault_partition_drops: u64,
    /// Sends rejected because an injected crash took the destination.
    pub fault_crashed_sends: u64,
    /// Data frames written through the partition log before the fabric
    /// (0 unless [`super::LiveConfig::log`] is set).
    pub log_appended_records: u64,
    /// Payload bytes written through the partition log.
    pub log_appended_bytes: u64,
    /// Frames re-sent from the log after an endpoint restart.
    pub log_replayed_records: u64,
    /// Bytes re-sent from the log after an endpoint restart.
    pub log_replayed_bytes: u64,
    /// Log bytes reclaimed by acker-watermark garbage collection.
    pub log_gcd_bytes: u64,
    /// Highest per-endpoint log GC watermark (sequence number).
    pub log_gc_watermark: u64,
    /// Log bytes still resident at shutdown.
    pub log_retained_bytes: u64,
    /// Torn tails healed when recovering persisted log images.
    pub log_torn_tails: u64,
    /// Periodic counter snapshots (empty unless
    /// [`super::LiveConfig::monitor_interval`] is set).
    pub timeline: Vec<TimelineSample>,
    /// Structured shutdown reason.
    pub outcome: RunOutcome,
    /// Sampled spout-to-execute delivery latencies (ns), unordered; a
    /// uniform sample of them once a long run has taken more than the
    /// reservoir holds.
    pub delivery_ns: Vec<u64>,
    /// Sampled deliveries timed, exact (≥ `delivery_ns.len()`).
    pub delivery_samples: u64,
}

/// One periodic snapshot of a live run's counters (see
/// [`super::LiveConfig::monitor_interval`]).
#[derive(Clone, Copy, Debug)]
pub struct TimelineSample {
    /// Wall-clock offset from run start.
    pub at: Duration,
    /// Tuples emitted by spouts so far.
    pub spout_emitted: u64,
    /// Tuples executed so far (all components).
    pub executed: u64,
    /// Fabric messages delivered so far.
    pub fabric_messages: u64,
    /// Fabric send errors so far (includes injected faults).
    pub send_errors: u64,
    /// Backpressure retries so far.
    pub send_retries: u64,
    /// Tracked tuples acked so far (0 on untracked runs).
    pub acked: u64,
    /// Tracked tuples failed so far (0 on untracked runs).
    pub failed: u64,
    /// Replays performed so far (0 on untracked runs).
    pub replayed: u64,
}

impl RunReport {
    /// Mean sampled delivery latency.
    pub fn mean_delivery(&self) -> Duration {
        if self.delivery_ns.is_empty() {
            return Duration::ZERO;
        }
        let sum: u64 = self.delivery_ns.iter().sum();
        Duration::from_nanos(sum / self.delivery_ns.len() as u64)
    }

    /// p99 sampled delivery latency.
    pub fn p99_delivery(&self) -> Duration {
        if self.delivery_ns.is_empty() {
            return Duration::ZERO;
        }
        let mut v = self.delivery_ns.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * 0.99).round() as usize;
        Duration::from_nanos(v[idx])
    }

    /// Export the run as a [`whale_sim::MetricsRegistry`] snapshot under `dsps.*`:
    /// dispatch/send/relay counters, fabric byte split, and the sampled
    /// delivery-latency distribution as a percentile summary.
    pub fn metrics(&self) -> whale_sim::MetricsRegistry {
        use whale_sim::{Histogram, MetricsRegistry};
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("dsps.elapsed_secs", self.elapsed.as_secs_f64());
        reg.set_counter("dsps.serializations", self.serializations);
        reg.set_counter("dsps.spout_emitted", self.spout_emitted);
        reg.set_counter("dsps.frames_encoded", self.frames_encoded);
        reg.set_counter("dsps.relay_forwards", self.relay_forwards);
        // The relay/direct byte split: what traveled the multicast tree
        // vs point-to-point. (A fault-swallowed relay frame is charged
        // here but never reached the fabric totals, hence saturating.)
        let wire = self.copied_bytes + self.shared_bytes;
        reg.set_counter("dsps.relay.bytes", self.relay_bytes);
        reg.set_counter("dsps.direct_bytes", wire.saturating_sub(self.relay_bytes));
        reg.set_counter("dsps.relay.stale_drops", self.relay_stale_drops);
        reg.set_counter("dsps.links.uplink_bytes", self.uplink_bytes);
        for (link, bytes) in &self.link_bytes {
            reg.set_counter(&format!("dsps.links.bytes.{link}"), *bytes);
        }
        reg.set_counter("dsps.relay.switches", self.relay_switches);
        reg.set_counter("dsps.relay.switch_moves", self.relay_switch_moves);
        reg.set_gauge("dsps.relay.epoch", self.relay_epoch as f64);
        reg.set_gauge("dsps.relay.d_star", self.relay_d_star as f64);
        for (d, &n) in self.relay_depths.iter().enumerate() {
            if n > 0 {
                reg.set_counter(&format!("dsps.relay.depth_{d}"), n);
            }
        }
        if !self.relay_forward_ns.is_empty() {
            let mut h = Histogram::new();
            for &ns in &self.relay_forward_ns {
                h.record(ns);
            }
            reg.set_summary("dsps.relay.forward_ns", &h);
        }
        reg.set_counter("dsps.dropped_frames", self.dropped_frames);
        reg.set_counter("dsps.thread_panics", self.thread_panics);
        reg.set_gauge("dsps.shards", self.shards as f64);
        reg.set_counter("dsps.cross_shard_msgs", self.cross_shard_msgs);
        reg.set_counter("dsps.fabric.messages", self.fabric_messages);
        reg.set_counter("dsps.fabric.copied_bytes", self.copied_bytes);
        reg.set_counter("dsps.fabric.shared_bytes", self.shared_bytes);
        reg.set_counter("dsps.fabric.send_errors", self.send_errors);
        reg.set_counter("dsps.fabric.batches_flushed", self.batches_flushed);
        reg.set_gauge("dsps.fabric.mean_batch_size", self.mean_batch_size);
        reg.set_counter("dsps.pool.hits", self.pool_hits);
        reg.set_counter("dsps.pool.misses", self.pool_misses);
        reg.set_gauge("dsps.pool.high_watermark", self.pool_high_watermark as f64);
        reg.set_gauge("dsps.pool.hit_rate", self.pool_hit_rate);
        reg.set_counter("dsps.send.retries", self.send_retries);
        reg.set_counter("dsps.send.failed", self.send_failed);
        reg.set_counter("dsps.deadline_exits", self.deadline_exits);
        reg.set_counter("dsps.pipeline.yields", self.pipeline_yields);
        reg.set_counter("dsps.pipeline.parks", self.pipeline_parks);
        reg.set_counter(
            "dsps.pipeline.wakeups_with_work",
            self.pipeline_wakeups_with_work,
        );
        reg.set_counter("dsps.ack.acked", self.tuples_acked);
        reg.set_counter("dsps.ack.failed", self.tuples_failed);
        reg.set_counter("dsps.ack.replayed", self.tuples_replayed);
        reg.set_counter("dsps.ack.dedup_dropped", self.dedup_dropped);
        reg.set_gauge("dsps.ack.window_peak", self.ack_window_peak as f64);
        reg.set_gauge("dsps.ack.dedup_window_peak", self.dedup_window_peak as f64);
        reg.set_counter("dsps.fault.drops", self.fault_drops);
        reg.set_counter("dsps.fault.duplicates", self.fault_duplicates);
        reg.set_counter("dsps.fault.delayed", self.fault_delayed);
        reg.set_counter("dsps.fault.full_injected", self.fault_full_injected);
        reg.set_counter("dsps.fault.partition_drops", self.fault_partition_drops);
        reg.set_counter("dsps.fault.crashed_sends", self.fault_crashed_sends);
        reg.set_counter("dsps.log.appended_records", self.log_appended_records);
        reg.set_counter("dsps.log.appended_bytes", self.log_appended_bytes);
        reg.set_counter("dsps.log.replayed_records", self.log_replayed_records);
        reg.set_counter("dsps.log.replayed_bytes", self.log_replayed_bytes);
        reg.set_counter("dsps.log.gcd_bytes", self.log_gcd_bytes);
        reg.set_counter("dsps.log.torn_tails", self.log_torn_tails);
        reg.set_gauge("dsps.log.gc_watermark", self.log_gc_watermark as f64);
        reg.set_gauge("dsps.log.retained_bytes", self.log_retained_bytes as f64);
        if !self.timeline.is_empty() {
            use whale_sim::TimeSeries;
            type SampleField = fn(&TimelineSample) -> u64;
            let by_metric: [(&str, SampleField); 8] = [
                ("dsps.timeline.spout_emitted", |s| s.spout_emitted),
                ("dsps.timeline.executed", |s| s.executed),
                ("dsps.timeline.fabric_messages", |s| s.fabric_messages),
                ("dsps.timeline.send_errors", |s| s.send_errors),
                ("dsps.timeline.send_retries", |s| s.send_retries),
                ("dsps.timeline.acked", |s| s.acked),
                ("dsps.timeline.failed", |s| s.failed),
                ("dsps.timeline.replayed", |s| s.replayed),
            ];
            for (name, f) in by_metric {
                let mut ts = TimeSeries::new();
                for s in &self.timeline {
                    ts.push(SimTime::from_nanos(s.at.as_nanos() as u64), f(s) as f64);
                }
                reg.set_series(name, &ts);
            }
        }
        reg.set_gauge(
            "dsps.clean",
            if self.outcome.is_clean() { 1.0 } else { 0.0 },
        );
        for (i, &n) in self.executed.iter().enumerate() {
            reg.set_counter(&format!("dsps.executed.component_{i}"), n);
        }
        let mut h = Histogram::new();
        for &ns in &self.delivery_ns {
            h.record(ns);
        }
        reg.set_summary("dsps.delivery_ns", &h);
        reg.set_counter("dsps.delivery_samples", self.delivery_samples);
        reg
    }
}

impl RunReport {
    /// Assemble the report of a finished run from its counters.
    /// `thread_panics` already includes caught operator panics.
    pub(super) fn collect(
        routing: &Routing,
        fault: Option<&FaultFabric>,
        elapsed: Duration,
        thread_panics: u64,
        timeline: Vec<TimelineSample>,
    ) -> RunReport {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (stats, fabric, pool) = (&routing.stats, &routing.fabric, &routing.pool);
        let (ack, relay, log) = (
            routing.ack.as_ref(),
            routing.relay.as_ref(),
            routing.log.as_ref(),
        );
        let tracker = routing.tracker.as_ref();
        let failed_sends = get(&stats.send_failed);
        let failed_tuples = ack.map_or(0, |a| get(&a.failed));
        let deadline_exits = get(&stats.deadline_exits);
        let degraded =
            thread_panics > 0 || failed_sends > 0 || failed_tuples > 0 || deadline_exits > 0;
        let fabric = fabric.stats();
        let (delivery_ns, delivery_samples) = stats.delivery.take();
        RunReport {
            elapsed,
            serializations: get(&stats.serializations),
            executed: stats.executed.iter().map(get).collect(),
            spout_emitted: get(&stats.spout_emitted),
            fabric_messages: fabric.messages,
            copied_bytes: fabric.copied_bytes,
            shared_bytes: fabric.shared_bytes,
            relay_forwards: get(&stats.relay_forwards),
            frames_encoded: get(&stats.frames_encoded),
            relay_bytes: relay.map_or(0, |r| get(&r.relay_bytes)),
            relay_stale_drops: relay.map_or(0, |r| get(&r.stale_drops)),
            uplink_bytes: tracker.map_or(0, |t| t.uplink_bytes()),
            link_bytes: tracker.map_or_else(Vec::new, |t| {
                t.snapshot()
                    .into_iter()
                    .filter(|l| l.bytes > 0)
                    .map(|l| (l.link.to_string(), l.bytes))
                    .collect()
            }),
            relay_switches: relay.map_or(0, |r| get(&r.switches)),
            relay_switch_moves: relay.map_or(0, |r| get(&r.switch_moves)),
            relay_epoch: relay.map_or(0, |r| r.current().epoch),
            relay_d_star: relay.map_or(0, |r| r.current().d_star),
            relay_depths: relay.map_or_else(Vec::new, |r| r.depth_counts.iter().map(get).collect()),
            relay_forward_ns: relay.map_or_else(Vec::new, |r| r.forward_ns.lock().take().0),
            dropped_frames: get(&stats.dropped_frames),
            thread_panics,
            shards: routing.shards as u64,
            cross_shard_msgs: get(&stats.cross_shard_msgs),
            wire_tuples_lazy: get(&stats.wire_tuples_lazy),
            tuples_materialized: get(&stats.tuples_materialized),
            send_errors: fabric.send_errors,
            batches_flushed: fabric.flushed_batches,
            mean_batch_size: fabric.mean_batch_size(),
            pool_hits: pool.hits(),
            pool_misses: pool.misses(),
            pool_high_watermark: pool.high_watermark(),
            pool_hit_rate: pool.hit_rate(),
            send_retries: get(&stats.send_retries),
            send_failed: failed_sends,
            deadline_exits,
            pipeline_yields: get(&stats.pipeline_yields),
            pipeline_parks: get(&stats.pipeline_parks),
            pipeline_wakeups_with_work: get(&stats.pipeline_wakeups_with_work),
            tuples_acked: ack.map_or(0, |a| a.acker.lock().acked()),
            tuples_failed: failed_tuples,
            tuples_replayed: ack.map_or(0, |a| get(&a.replayed)),
            dedup_dropped: ack.map_or(0, |a| get(&a.dedup_dropped)),
            ack_window_peak: ack.map_or(0, |a| a.acker.lock().window_peak() as u64),
            dedup_window_peak: ack.map_or(0, |a| get(&a.dedup_window_peak)),
            fault_drops: fault.map_or(0, |f| f.drops()),
            fault_duplicates: fault.map_or(0, |f| f.duplicates()),
            fault_delayed: fault.map_or(0, |f| f.delayed()),
            fault_full_injected: fault.map_or(0, |f| f.full_injected()),
            fault_partition_drops: fault.map_or(0, |f| f.partition_drops()),
            fault_crashed_sends: fault.map_or(0, |f| f.crashed_sends()),
            log_appended_records: log.map_or(0, |l| l.sum(PartitionLog::appended_records)),
            log_appended_bytes: log.map_or(0, |l| l.sum(PartitionLog::appended_bytes)),
            log_replayed_records: log.map_or(0, |l| get(&l.replayed_records)),
            log_replayed_bytes: log.map_or(0, |l| get(&l.replayed_bytes)),
            log_gcd_bytes: log.map_or(0, |l| l.sum(PartitionLog::gcd_bytes)),
            log_gc_watermark: log.map_or(0, |l| l.gc_watermark()),
            log_retained_bytes: log.map_or(0, |l| l.sum(PartitionLog::retained_bytes)),
            log_torn_tails: log.map_or(0, |l| l.sum(PartitionLog::torn_tails)),
            timeline,
            outcome: if degraded {
                RunOutcome::Degraded {
                    thread_panics,
                    failed_sends,
                    failed_tuples,
                    deadline_exits,
                }
            } else {
                RunOutcome::Clean
            },
            delivery_ns,
            delivery_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::{DeliveryProbes, Reservoir, EMIT_WINDOW, LATENCY_SAMPLE, RESERVOIR_CAP};

    #[test]
    fn delivery_probes_stay_bounded_and_count_exactly() {
        let probes = DeliveryProbes::default();
        // Unsampled ids cost nothing; a sampled id is timed per delivery.
        probes.on_emit(LATENCY_SAMPLE + 1);
        assert!(probes.emitted_at(LATENCY_SAMPLE + 1).is_none());
        probes.on_emit(LATENCY_SAMPLE);
        assert!(probes.emitted_at(LATENCY_SAMPLE).is_some());
        probes.record(5, 2);
        // A stamp lives until the id one window later takes its slot.
        let evictor = LATENCY_SAMPLE * (1 + EMIT_WINDOW as u64);
        probes.on_emit(evictor);
        assert!(probes.emitted_at(LATENCY_SAMPLE).is_none());
        assert!(probes.emitted_at(evictor).is_some());
        assert_eq!(probes.stamps.lock().len(), EMIT_WINDOW);
        probes.record(9, 0);
        let sampled = 2 + 2 * RESERVOIR_CAP as u64;
        for _ in 0..(sampled - 2) / 16 {
            probes.record(9, 16);
        }
        let (kept, seen) = probes.take();
        assert_eq!(seen, sampled, "the count stays exact");
        assert_eq!(kept.len(), RESERVOIR_CAP, "the values are capped");
    }

    #[test]
    fn a_reservoir_stays_bounded_counts_exactly_and_samples_the_whole_run() {
        // What `RelayState::forward_ns` is: one value per sampled hop for
        // as long as the run lasts.
        let mut r = Reservoir::default();
        let recorded = 3 * RESERVOIR_CAP as u64;
        for ns in 0..recorded {
            r.record(ns);
        }
        assert!(r.kept.capacity() <= 2 * RESERVOIR_CAP, "never regrown");
        let (kept, seen) = r.take();
        assert_eq!(seen, recorded, "the count stays exact");
        assert_eq!(kept.len(), RESERVOIR_CAP, "the values are capped");
        // Uniform over the run, not its first `RESERVOIR_CAP` values.
        let late = |ns: &&u64| **ns >= RESERVOIR_CAP as u64;
        let late = kept.iter().filter(late).count();
        assert!(late > RESERVOIR_CAP / 2, "late values kept: {late}");
    }

    #[test]
    fn report_metrics_snapshot() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        let m = r.metrics();
        assert_eq!(m.counter("dsps.spout_emitted"), Some(100));
        assert_eq!(m.counter("dsps.executed.component_1"), Some(800));
        assert_eq!(m.counter("dsps.dropped_frames"), Some(0));
        assert_eq!(m.counter("dsps.thread_panics"), Some(0));
        assert!(m.counter("dsps.fabric.messages").unwrap() > 0);
        let s = m.summary("dsps.delivery_ns").unwrap();
        assert!(s.count >= 50, "samples = {}", s.count);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn delivery_latency_sampled() {
        let r = run(CommMode::WorkerOriented, true, 4, 8);
        // 100 source tuples with ids 0..100: ids 8,16,...,96 are sampled,
        // each executed by 8 instances → at least some dozens of samples.
        assert!(
            r.delivery_ns.len() >= 50,
            "samples = {}",
            r.delivery_ns.len()
        );
        assert!(r.mean_delivery() > std::time::Duration::ZERO);
        assert!(r.p99_delivery() >= r.mean_delivery() / 2);
    }
}
