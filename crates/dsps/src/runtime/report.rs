//! What a live run reports: one table declaring every run counter once —
//! the [`RunStats`] slots the data plane bumps and the facts other layers
//! own — the [`RunReport`] a [`Routing::snapshot`] reads them into, and
//! its [`MetricsRegistry`](whale_sim::MetricsRegistry) export.

use super::config::BuildError;
use super::relay::RelayEpoch;
use super::reliability::{splitmix64, LogRuntime};
use super::send::{Routing, CURRENT_SHARD};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use whale_net::{FabricStats, FaultFabric, LinkTracker, PartitionLog};
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

/// Export one row of the counter table into `reg`. A `Counter` is a count
/// (a slot of this kind is written with [`RunStats::add`]), a `Gauge` a
/// level (a slot of this kind is a high-water mark, [`RunStats::raise`]).
/// A row with no key is reported, not exported.
macro_rules! export {
    ($reg:ident, Counter $key:literal, $value:expr) => {
        $reg.set_counter($key, $value)
    };
    ($reg:ident, Gauge $key:literal, $value:expr) => {
        $reg.set_gauge($key, $value as f64)
    };
    ($reg:ident, Counter, $value:expr) => {};
}

/// The counter table. A row `field: Kind "key" => "series"` declares a
/// `u64` field of [`RunReport`] carrying the row's doc, its kind, the
/// `dsps.*` key it exports under (none: reported, not exported) and the
/// `dsps.timeline.*` series it is sampled into (none: not sampled).
/// `slots` rows are the runtime's own: one [`RunStats`] slot each, named
/// by a [`Ctr`]. A `read` row belongs to another layer and ends in how
/// [`Routing::snapshot`] reads it from its owner. `report` holds the
/// fields that are not counters.
macro_rules! counter_table {
    (
        slots { $($(#[doc = $sdoc:literal])* $slot:ident: $skind:ident $($skey:literal)? $(=> $sseries:literal)?;)* }
        read($($owner:ident: $owner_ty:ty),*) {
            $($(#[doc = $rdoc:literal])* $read:ident: $rkind:ident $($rkey:literal)? $(=> $rseries:literal)? = $from:expr;)*
        }
        report { $($fields:tt)* }
    ) => {
        /// A run counter the runtime writes: the index of its slot in
        /// [`RunStats`].
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        pub(super) enum Ctr {
            $($slot,)*
        }

        const SLOTS: usize = [$(Ctr::$slot),*].len();

        /// The rows sampled into the timeline: each series' name and how
        /// a sample reads it.
        const SERIES: &[(&str, fn(&RunReport) -> u64)] = &[
            $($(($sseries, |r| r.$slot),)?)*
            $($(($rseries, |r| r.$read),)?)*
        ];

        /// Result of a live run: its counters, one field per row of the
        /// counter table, and the facts that are not counters.
        #[derive(Debug, Default)]
        pub struct RunReport {
            $($(#[doc = $sdoc])* pub $slot: u64,)*
            $($(#[doc = $rdoc])* pub $read: u64,)*
            $($fields)*
        }

        impl RunReport {
            /// Every row that has a key, exported under it.
            fn export_rows(&self, reg: &mut whale_sim::MetricsRegistry) {
                $(export!(reg, $skind $($skey)?, self.$slot);)*
                $(export!(reg, $rkind $($rkey)?, self.$read);)*
            }

            /// Every row as it reads now: the slots of `stats`, and each
            /// `read` row from its owner. Every other field at its default.
            fn read(stats: &RunStats, $($owner: $owner_ty),*) -> Self {
                RunReport {
                    $($slot: stats.get(Ctr::$slot),)*
                    $($read: $from,)*
                    ..RunReport::default()
                }
            }
        }
    };
}

counter_table! {
    slots {
        /// Data-item serializations performed.
        serializations: Counter "dsps.serializations";
        /// Wire frames encoded (pool acquire + fill). Redundant EOS copies
        /// and relay forwards resend existing bytes without re-encoding.
        frames_encoded: Counter "dsps.frames_encoded";
        /// Tuples emitted by spouts.
        spout_emitted: Counter "dsps.spout_emitted" => "dsps.timeline.spout_emitted";
        /// Relay forwards performed by non-source workers (multicast tree).
        relay_forwards: Counter "dsps.relay_forwards";
        /// Wire bytes sent on the relay path (origin sends + forwards); the
        /// remainder of the fabric byte totals moved point-to-point.
        relay_bytes: Counter "dsps.relay.bytes";
        /// Relay frames dropped because their tree generation was retired.
        relay_stale_drops: Counter "dsps.relay.stale_drops";
        /// Runtime tree reconfigurations performed.
        relay_switches: Counter "dsps.relay.switches";
        /// Per-instance connection moves across all reconfigurations.
        relay_switch_moves: Counter "dsps.relay.switch_moves";
        /// Markers a root sent again because its tree of a demoted
        /// generation had not flushed within the resend interval.
        relay_marker_resends: Counter "dsps.relay.marker_resends";
        /// Malformed or unroutable fabric frames (and unroutable tuples)
        /// dropped by the pipelines.
        dropped_frames: Counter "dsps.dropped_frames";
        /// Panicked operator invocations plus panicked runtime threads; a
        /// panicking operator poisons its task, and the run still joins
        /// every thread and tears the fabric down in order.
        thread_panics: Counter "dsps.thread_panics";
        /// Executor messages that crossed shard pipelines through bounded
        /// inboxes (0 when every delivery stayed shard-local).
        cross_shard_msgs: Counter "dsps.cross_shard_msgs";
        /// Executor deliveries made as lazy wire views — received frames
        /// dispatched without decoding anything.
        wire_tuples_lazy: Counter;
        /// Lazy wire tuples materialized on first executor touch; the gap to
        /// `wire_tuples_lazy` is decode work the view layer never did.
        tuples_materialized: Counter;
        /// Backpressure retries performed under the send policy.
        send_retries: Counter "dsps.send.retries" => "dsps.timeline.send_retries";
        /// Frames dropped after the send policy's deadline exhausted (these
        /// degrade the run; teardown races do not).
        send_failed: Counter "dsps.send.failed";
        /// Executors that exited on [`super::LiveConfig::run_deadline`].
        deadline_exits: Counter "dsps.deadline_exits";
        /// Idle episodes that outlasted the spin rung and yielded the CPU
        /// (each then either found work or went on to block).
        pipeline_yields: Counter "dsps.pipeline.yields";
        /// Blocking waits the pipelines entered (idle after spin and yield).
        /// Scales with how often work arrives at an idle pipeline, not with
        /// run length.
        pipeline_parks: Counter "dsps.pipeline.parks";
        /// Blocking waits that returned work rather than timing out.
        pipeline_wakeups_with_work: Counter "dsps.pipeline.wakeups_with_work";
        /// Tracked tuples given up on after the replay budget (ack runs only).
        tuples_failed: Counter "dsps.ack.failed" => "dsps.timeline.failed";
        /// Replay emissions performed (ack runs only).
        tuples_replayed: Counter "dsps.ack.replayed" => "dsps.timeline.replayed";
        /// Duplicate deliveries suppressed at executors by root-id dedup.
        dedup_dropped: Counter "dsps.ack.dedup_dropped";
        /// The most roots any one executor's dedup window has held at once
        /// (it is trimmed to the ledger's watermark).
        dedup_window_peak: Gauge "dsps.ack.dedup_window_peak";
        /// Frames re-sent from the log after an endpoint restart.
        log_replayed_records: Counter "dsps.log.replayed_records";
        /// Bytes re-sent from the log after an endpoint restart.
        log_replayed_bytes: Counter "dsps.log.replayed_bytes";
    }
    read(r: &Routing, fabric: &FabricStats, tree: Option<&RelayEpoch>) {
        /// Network messages through the fabric.
        fabric_messages: Counter "dsps.fabric.messages" => "dsps.timeline.fabric_messages"
            = fabric.messages;
        /// Bytes copied (TCP semantics).
        copied_bytes: Counter "dsps.fabric.copied_bytes" = fabric.copied_bytes;
        /// Bytes shared (RDMA semantics).
        shared_bytes: Counter "dsps.fabric.shared_bytes" = fabric.shared_bytes;
        /// Sends that failed at the fabric (unknown endpoint, backpressure
        /// that never cleared, or a receiver dropped during teardown). Failed
        /// sends never count toward the byte totals.
        send_errors: Counter "dsps.fabric.send_errors" => "dsps.timeline.send_errors"
            = fabric.send_errors;
        /// Batches the transport flushed (0 on the per-send path).
        batches_flushed: Counter "dsps.fabric.batches_flushed" = fabric.flushed_batches;
        /// Encode-buffer pool acquires served from a reused buffer.
        pool_hits: Counter "dsps.pool.hits" = r.pool.hits();
        /// Encode-buffer pool acquires that had to allocate.
        pool_misses: Counter "dsps.pool.misses" = r.pool.misses();
        /// Most encode buffers outstanding at once during the run.
        pool_high_watermark: Gauge "dsps.pool.high_watermark" = r.pool.high_watermark();
        /// Bytes delivered over rack uplinks — the oversubscribed links a
        /// topology-aware tree economizes (0 unless a topology is
        /// configured).
        uplink_bytes: Counter "dsps.links.uplink_bytes"
            = r.tracker.as_deref().map_or(0, LinkTracker::uplink_bytes);
        /// Final relay tree generation (0 when no switch happened).
        relay_epoch: Gauge "dsps.relay.epoch" = tree.map_or(0, |g| g.epoch.into());
        /// Final relay out-degree (0 when the relay path was off).
        relay_d_star: Gauge "dsps.relay.d_star" = tree.map_or(0, |g| g.d_star.into());
        /// Pipeline shards per worker the run executed with.
        shards: Gauge "dsps.shards" = r.shards.into();
        /// Tracked tuples fully delivered (ack runs only).
        tuples_acked: Counter "dsps.ack.acked" => "dsps.timeline.acked"
            = r.ack.as_ref().map_or(0, |a| a.acker.lock().acked());
        /// The most roots the ledger's window has held at once: the distance
        /// from the oldest unresolved root to the newest, not the length of
        /// the stream.
        ack_window_peak: Gauge "dsps.ack.window_peak"
            = r.ack.as_ref().map_or(0, |a| a.acker.lock().window_peak() as u64);
        /// Frames silently dropped by injected drop faults.
        fault_drops: Counter "dsps.fault.drops" = r.fault_count(FaultFabric::drops);
        /// Frames duplicated by injected faults.
        fault_duplicates: Counter "dsps.fault.duplicates"
            = r.fault_count(FaultFabric::duplicates);
        /// Frames parked by injected delay faults.
        fault_delayed: Counter "dsps.fault.delayed" = r.fault_count(FaultFabric::delayed);
        /// Sends rejected by injected `Full` bursts.
        fault_full_injected: Counter "dsps.fault.full_injected"
            = r.fault_count(FaultFabric::full_injected);
        /// Frames lost inside injected partition windows.
        fault_partition_drops: Counter "dsps.fault.partition_drops"
            = r.fault_count(FaultFabric::partition_drops);
        /// Sends rejected because an injected crash took the destination.
        fault_crashed_sends: Counter "dsps.fault.crashed_sends"
            = r.fault_count(FaultFabric::crashed_sends);
        /// Data frames written through the partition log before the fabric
        /// (0 unless [`super::LiveConfig::log`] is set).
        log_appended_records: Counter "dsps.log.appended_records"
            = r.log_sum(PartitionLog::appended_records);
        /// Payload bytes written through the partition log.
        log_appended_bytes: Counter "dsps.log.appended_bytes"
            = r.log_sum(PartitionLog::appended_bytes);
        /// Log bytes reclaimed by acker-watermark garbage collection.
        log_gcd_bytes: Counter "dsps.log.gcd_bytes" = r.log_sum(PartitionLog::gcd_bytes);
        /// Highest per-endpoint log GC watermark (sequence number).
        log_gc_watermark: Gauge "dsps.log.gc_watermark"
            = r.log.as_ref().map_or(0, LogRuntime::gc_watermark);
        /// Log bytes still resident at shutdown.
        log_retained_bytes: Gauge "dsps.log.retained_bytes"
            = r.log_sum(PartitionLog::retained_bytes);
        /// Torn tails healed when recovering persisted log images.
        log_torn_tails: Counter "dsps.log.torn_tails" = r.log_sum(PartitionLog::torn_tails);
        /// Sampled deliveries timed, exact (≥ `delivery_ns.len()`).
        delivery_samples: Counter "dsps.delivery_samples" = r.stats.delivery.samples();
    }
    report {
        /// Wall-clock time of the run.
        pub elapsed: Duration,
        /// Tuples executed per component (by component id index).
        pub executed: Vec<u64>,
        /// Delivered bytes per link (`LinkId` rendered, bytes), every link
        /// with traffic. Sums to `copied_bytes + shared_bytes`: each send
        /// traverses exactly one link, so per-link totals tile the wire
        /// total. Empty unless a topology is configured.
        pub link_bytes: Vec<(String, u64)>,
        /// Received relay frames by tree depth of the receiving node (last
        /// bucket absorbs deeper hops); empty when the relay path was off.
        pub relay_depths: Vec<u64>,
        /// Sampled per-hop relay forward latencies (receipt to last child
        /// send, ns), unordered; a uniform sample of them once a long run has
        /// taken more than the reservoir holds.
        pub relay_forward_ns: Vec<u64>,
        /// T_switch of each retired tree generation (ns): from the switch
        /// that demoted it to the last node's receipt of its
        /// end-of-generation marker. One sample per switch whose
        /// generation retired before the run ended.
        pub relay_retire_ns: Vec<u64>,
        /// Mean messages per flushed batch (0 on the per-send path).
        pub mean_batch_size: f64,
        /// Pool hits over total acquires (≈ 1.0 once warm: the steady-state
        /// hot path allocates nothing).
        pub pool_hit_rate: f64,
        /// Periodic snapshots of the run (empty unless
        /// [`super::LiveConfig::monitor_interval`] is set).
        pub timeline: Vec<TimelineSample>,
        /// Structured shutdown reason.
        pub outcome: RunOutcome,
        /// Sampled spout-to-execute delivery latencies (ns), unordered; a
        /// uniform sample of them once a long run has taken more than the
        /// reservoir holds.
        pub delivery_ns: Vec<u64>,
    }
}

/// One periodic snapshot of a live run (see
/// [`super::LiveConfig::monitor_interval`]): the report as it stood
/// `elapsed` into the run — the run's final report taken early, without
/// the latency reservoirs.
pub type TimelineSample = RunReport;

/// Eight counters on one cache line of their own.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Line([AtomicU64; 8]);

/// Counters every pipeline thread bumps in a lane of its own, the
/// `BufferPool`'s lane pattern: on a pipeline thread ([`CURRENT_SHARD`])
/// a count is a plain load and store on lines only that thread writes;
/// any other thread (the controller, log replay, a test harness) takes a
/// read-modify-write on the shared slots. Readers sum the shared slot and
/// every lane, so a count is exact whenever it is read, and a later read
/// is never smaller.
#[derive(Debug)]
pub(super) struct Lanes {
    shared: Box<[AtomicU64]>,
    /// One per pipeline, each `ceil(n / 8)` lines.
    lanes: Box<[Box<[Line]>]>,
}

impl Lanes {
    /// `n` counters, with a lane for each of `pipelines` pipelines.
    pub(super) fn new(n: usize, pipelines: usize) -> Self {
        let lane = || (0..n.div_ceil(8)).map(|_| Line::default()).collect();
        Lanes {
            shared: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lanes: (0..pipelines).map(|_| lane()).collect(),
        }
    }

    /// This thread's own copy of counter `i`, if it is a pipeline's.
    #[inline]
    fn own(&self, i: usize) -> Option<&AtomicU64> {
        let lane = self.lanes.get(CURRENT_SHARD.with(Cell::get)?)?;
        Some(&lane[i / 8].0[i % 8])
    }

    /// Count `n` more of counter `i`; returns what this thread's copy of
    /// it read before (the shared slot's, off a pipeline thread).
    #[inline]
    pub(super) fn add(&self, i: usize, n: u64) -> u64 {
        match self.own(i) {
            Some(own) => {
                let was = own.load(Ordering::Relaxed);
                own.store(was + n, Ordering::Relaxed);
                was
            }
            None => self.shared[i].fetch_add(n, Ordering::Relaxed),
        }
    }

    /// Counter `i`: the shared slot and every lane, summed.
    pub(super) fn get(&self, i: usize) -> u64 {
        let lanes = self
            .lanes
            .iter()
            .map(|lane| lane[i / 8].0[i % 8].load(Ordering::Relaxed));
        self.shared[i].load(Ordering::Relaxed) + lanes.sum::<u64>()
    }

    /// Counter `i`'s shared slot.
    pub(super) fn shared(&self, i: usize) -> &AtomicU64 {
        &self.shared[i]
    }

    /// Every counter, summed.
    pub(super) fn all(&self) -> Vec<u64> {
        (0..self.shared.len()).map(|i| self.get(i)).collect()
    }
}

/// The counters of a live run's own rows, one per [`Ctr`], then one per
/// component for the tuples it executed, in [`Lanes`]; and the delivery
/// probes.
#[derive(Debug)]
pub(super) struct RunStats {
    counters: Lanes,
    /// Spout-to-execute delivery-latency probes of sampled tuples.
    pub(super) delivery: DeliveryProbes,
}

impl RunStats {
    /// The counters of a run of `components` components over `pipelines`
    /// pipelines.
    pub(super) fn new(components: usize, pipelines: usize) -> Self {
        RunStats {
            counters: Lanes::new(SLOTS + components, pipelines),
            delivery: DeliveryProbes::default(),
        }
    }

    /// Count `n` more of `ctr`.
    #[inline]
    pub(super) fn add(&self, ctr: Ctr, n: u64) {
        self.counters.add(ctr as usize, n);
    }

    /// Count `n` more tuples executed by `component`.
    #[inline]
    pub(super) fn add_executed(&self, component: usize, n: u64) {
        self.counters.add(SLOTS + component, n);
    }

    /// Raise the high-water mark `ctr` to at least `to` (shared: a mark is
    /// a maximum, not a sum).
    pub(super) fn raise(&self, ctr: Ctr, to: u64) {
        self.slot(ctr).fetch_max(to, Ordering::Relaxed);
    }

    pub(super) fn get(&self, ctr: Ctr) -> u64 {
        self.counters.get(ctr as usize)
    }

    /// Tuples executed, by component.
    pub(super) fn executed(&self) -> Vec<u64> {
        self.counters.all().split_off(SLOTS)
    }

    /// `ctr`'s shared slot, for a callee that counts into an `AtomicU64`
    /// (the send policy's retries, off the steady-state path).
    #[inline]
    pub(super) fn slot(&self, ctr: Ctr) -> &AtomicU64 {
        self.counters.shared(ctr as usize)
    }
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

    /// The exact number of sampled deliveries so far.
    fn samples(&self) -> u64 {
        self.latencies.lock().seen
    }
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
        use whale_sim::{Histogram, MetricsRegistry, TimeSeries};
        let mut reg = MetricsRegistry::new();
        self.export_rows(&mut reg);
        reg.set_gauge("dsps.elapsed_secs", self.elapsed.as_secs_f64());
        reg.set_gauge(
            "dsps.clean",
            if self.outcome.is_clean() { 1.0 } else { 0.0 },
        );
        reg.set_gauge("dsps.fabric.mean_batch_size", self.mean_batch_size);
        reg.set_gauge("dsps.pool.hit_rate", self.pool_hit_rate);
        // The relay/direct byte split: what traveled the multicast tree
        // vs point-to-point. (A fault-swallowed relay frame is charged
        // here but never reached the fabric totals, hence saturating.)
        let counter = |key| reg.counter(key).unwrap_or(0);
        let wire = counter("dsps.fabric.copied_bytes") + counter("dsps.fabric.shared_bytes");
        let direct = wire.saturating_sub(counter("dsps.relay.bytes"));
        reg.set_counter("dsps.direct_bytes", direct);
        for (link, bytes) in &self.link_bytes {
            reg.set_counter(&format!("dsps.links.bytes.{link}"), *bytes);
        }
        for (d, &n) in self.relay_depths.iter().enumerate() {
            if n > 0 {
                reg.set_counter(&format!("dsps.relay.depth_{d}"), n);
            }
        }
        for (i, &n) in self.executed.iter().enumerate() {
            reg.set_counter(&format!("dsps.executed.component_{i}"), n);
        }
        let histogram = |ns: &[u64]| {
            let mut h = Histogram::new();
            ns.iter().for_each(|&ns| h.record(ns));
            h
        };
        if !self.relay_forward_ns.is_empty() {
            reg.set_summary("dsps.relay.forward_ns", &histogram(&self.relay_forward_ns));
        }
        if !self.relay_retire_ns.is_empty() {
            reg.set_summary("dsps.relay.retire_ns", &histogram(&self.relay_retire_ns));
        }
        reg.set_summary("dsps.delivery_ns", &histogram(&self.delivery_ns));
        if !self.timeline.is_empty() {
            let executed: fn(&TimelineSample) -> u64 = |s| s.executed.iter().sum();
            for &(name, value) in [("dsps.timeline.executed", executed)].iter().chain(SERIES) {
                let mut ts = TimeSeries::new();
                for s in &self.timeline {
                    let at = SimTime::from_nanos(s.elapsed.as_nanos() as u64);
                    ts.push(at, value(s) as f64);
                }
                reg.set_series(name, &ts);
            }
        }
        reg
    }

    /// The report of a finished run: its last snapshot, with the sampled
    /// latencies and the timeline.
    pub(super) fn collect(
        routing: &Routing,
        elapsed: Duration,
        timeline: Vec<TimelineSample>,
    ) -> RunReport {
        let (delivery_ns, _) = routing.stats.delivery.take();
        let relay = routing.relay.as_ref();
        RunReport {
            relay_forward_ns: relay.map_or_else(Vec::new, |r| r.forward_ns.lock().take().0),
            relay_retire_ns: relay.map_or_else(Vec::new, |r| r.retire_ns.lock().take().0),
            delivery_ns,
            timeline,
            ..routing.snapshot(elapsed)
        }
    }
}

impl Routing {
    /// The run's counters as they read now, `elapsed` into it: every slot,
    /// each row another layer owns read from its owner, and the outcome
    /// they add up to so far. What [`RunReport::collect`] returns at
    /// teardown and the monitor samples mid-run, less the latency
    /// reservoirs and the timeline.
    pub(super) fn snapshot(&self, elapsed: Duration) -> RunReport {
        let fabric = self.fabric.stats();
        let relay = self.relay.as_ref();
        let tree = relay.map(|r| r.current());
        let tracker = self.tracker.as_deref();
        let mut r = RunReport {
            elapsed,
            executed: self.stats.executed(),
            link_bytes: tracker.map_or_else(Vec::new, |t| {
                let links = t.snapshot().into_iter().filter(|l| l.bytes > 0);
                links.map(|l| (l.link.to_string(), l.bytes)).collect()
            }),
            relay_depths: relay.map_or_else(Vec::new, |r| r.depth_counts.all()),
            mean_batch_size: fabric.mean_batch_size(),
            pool_hit_rate: self.pool.hit_rate(),
            ..RunReport::read(&self.stats, self, &fabric, tree.as_deref())
        };
        let (thread_panics, failed_sends) = (r.thread_panics, r.send_failed);
        let (failed_tuples, deadline_exits) = (r.tuples_failed, r.deadline_exits);
        if thread_panics + failed_sends + failed_tuples + deadline_exits > 0 {
            r.outcome = RunOutcome::Degraded {
                thread_panics,
                failed_sends,
                failed_tuples,
                deadline_exits,
            };
        }
        r
    }

    /// An injected-fault counter (0 on a run without faults).
    fn fault_count(&self, count: fn(&FaultFabric) -> u64) -> u64 {
        self.fault.as_deref().map_or(0, count)
    }

    /// A partition-log counter summed over every endpoint (0 unlogged).
    fn log_sum(&self, count: fn(&PartitionLog) -> u64) -> u64 {
        self.log.as_ref().map_or(0, |l| l.sum(count))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::{
        Ctr, DeliveryProbes, Reservoir, RunStats, CURRENT_SHARD, EMIT_WINDOW, LATENCY_SAMPLE,
        RESERVOIR_CAP,
    };
    use std::sync::Arc;

    #[test]
    fn lane_counts_are_exact_across_pipelines_and_other_threads() {
        // Four pipeline threads count into their own lanes with plain
        // stores, a fifth thread (no pipeline) into the shared slots; a
        // reader summing meanwhile never sees a count fall.
        const ADDS: u64 = 200_000;
        let stats = Arc::new(RunStats::new(2, 4));
        let writers: Vec<_> = (0..5)
            .map(|thread| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    let lane = (thread < 4).then_some(thread);
                    CURRENT_SHARD.with(|c| c.set(lane));
                    for _ in 0..ADDS {
                        stats.add(Ctr::serializations, 1);
                        stats.add_executed(1, 2);
                    }
                })
            })
            .collect();
        let mut last = (0, 0);
        while !writers.iter().all(|w| w.is_finished()) {
            let now = (stats.get(Ctr::serializations), stats.executed()[1]);
            assert!(now.0 >= last.0 && now.1 >= last.1, "{now:?} after {last:?}");
            last = now;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(stats.get(Ctr::serializations), 5 * ADDS);
        assert_eq!(stats.executed(), [0, 10 * ADDS]);
        assert_eq!(stats.get(Ctr::frames_encoded), 0);
    }

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

    /// The six run shapes whose exports are pinned below, by name.
    fn pinned_runs() -> Vec<(&'static str, RunReport)> {
        use whale_net::{EndpointCrash, EndpointRestart, FaultPlan, LogConfig, TopologyConfig};
        let counting = |config: LiveConfig| {
            let (t, ops) = counting_topology(config.machines, 8);
            run_topology(t, ops, config)
        };
        let relay = {
            let (t, ops) = counting_topology(8, 16);
            let config = LiveConfig {
                machines: 8,
                multicast_d_star: Some(2),
                multicast_adaptive: Some(AdaptiveConfig {
                    // Longer than the run: no switch.
                    interval: Duration::from_secs(30),
                    topology: Some(TopologyConfig {
                        racks: 2,
                        ..TopologyConfig::default()
                    }),
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            };
            run_topology(t, ops, config)
        };
        let ring = counting(LiveConfig {
            fabric: FabricKind::Ring(whale_net::RingConfig::default()),
            ..LiveConfig::default()
        });
        let one_sided = counting(LiveConfig {
            fabric: FabricKind::OneSided(whale_net::OneSidedConfig::default()),
            ..LiveConfig::default()
        });
        let recovered = {
            let (t, ops) = ack_topology(60, 2);
            let plan = FaultPlan {
                seed: 11,
                crashes: vec![EndpointCrash {
                    endpoint: EndpointId(1),
                    at_frame: 10,
                }],
                restarts: vec![EndpointRestart {
                    endpoint: EndpointId(1),
                    at_frame: 25,
                }],
                ..FaultPlan::default()
            };
            let config = LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(10),
                    max_replays: 3,
                    drain_deadline: Duration::from_secs(30),
                    eos_redundancy: 2,
                }),
                fault: Some(plan),
                log: Some(LogConfig::default()),
                ..LiveConfig::default()
            };
            run_topology(t, ops, config)
        };
        let monitored = counting(LiveConfig {
            monitor_interval: Some(Duration::from_millis(1)),
            ..LiveConfig::default()
        });
        let switched = {
            // 100 tuples, 300 µs apart, from a chain (d* = 1) over four
            // machines to a star (d* = 3) after the 30th.
            let mut b = crate::topology::TopologyBuilder::new();
            b.spout("src", 1, Schema::new(vec!["n"]))
                .bolt("fan", 16, Schema::new(vec!["n"]))
                .connect("src", "fan", Grouping::All);
            let ops = Operators::new()
                .spout("src", |_| {
                    Box::new(IterSpout::new((0..100u64).map(|i| {
                        std::thread::sleep(Duration::from_micros(300));
                        Tuple::with_id(i, vec![Value::I64(i as i64)])
                    })))
                })
                .bolt("fan", |_| {
                    Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
                });
            let config = LiveConfig {
                machines: 4,
                multicast_d_star: Some(1),
                multicast_adaptive: Some(AdaptiveConfig {
                    interval: Duration::from_millis(1),
                    forced_switches: vec![(30, 3)],
                    ..AdaptiveConfig::default()
                }),
                ..LiveConfig::default()
            };
            run_topology(b.build().unwrap(), ops, config)
        };
        vec![
            ("per-send relay", relay),
            ("ring", ring),
            ("one-sided", one_sided),
            ("tracked logged recovery", recovered),
            ("monitored", monitored),
            ("switched relay", switched),
        ]
    }

    /// What every run exports, as `"key kind"`.
    const EVERY_RUN: &[&str] = &[
        "dsps.ack.acked counter",
        "dsps.ack.dedup_dropped counter",
        "dsps.ack.dedup_window_peak gauge",
        "dsps.ack.failed counter",
        "dsps.ack.replayed counter",
        "dsps.ack.window_peak gauge",
        "dsps.clean gauge",
        "dsps.cross_shard_msgs counter",
        "dsps.deadline_exits counter",
        "dsps.delivery_ns summary",
        "dsps.delivery_samples counter",
        "dsps.direct_bytes counter",
        "dsps.dropped_frames counter",
        "dsps.elapsed_secs gauge",
        "dsps.executed.component_0 counter",
        "dsps.executed.component_1 counter",
        "dsps.fabric.batches_flushed counter",
        "dsps.fabric.copied_bytes counter",
        "dsps.fabric.mean_batch_size gauge",
        "dsps.fabric.messages counter",
        "dsps.fabric.send_errors counter",
        "dsps.fabric.shared_bytes counter",
        "dsps.fault.crashed_sends counter",
        "dsps.fault.delayed counter",
        "dsps.fault.drops counter",
        "dsps.fault.duplicates counter",
        "dsps.fault.full_injected counter",
        "dsps.fault.partition_drops counter",
        "dsps.frames_encoded counter",
        "dsps.links.uplink_bytes counter",
        "dsps.log.appended_bytes counter",
        "dsps.log.appended_records counter",
        "dsps.log.gc_watermark gauge",
        "dsps.log.gcd_bytes counter",
        "dsps.log.replayed_bytes counter",
        "dsps.log.replayed_records counter",
        "dsps.log.retained_bytes gauge",
        "dsps.log.torn_tails counter",
        "dsps.pipeline.parks counter",
        "dsps.pipeline.wakeups_with_work counter",
        "dsps.pipeline.yields counter",
        "dsps.pool.high_watermark gauge",
        "dsps.pool.hit_rate gauge",
        "dsps.pool.hits counter",
        "dsps.pool.misses counter",
        "dsps.relay.bytes counter",
        "dsps.relay.d_star gauge",
        "dsps.relay.epoch gauge",
        "dsps.relay.marker_resends counter",
        "dsps.relay.stale_drops counter",
        "dsps.relay.switch_moves counter",
        "dsps.relay.switches counter",
        "dsps.relay_forwards counter",
        "dsps.send.failed counter",
        "dsps.send.retries counter",
        "dsps.serializations counter",
        "dsps.shards gauge",
        "dsps.spout_emitted counter",
        "dsps.thread_panics counter",
    ];
    /// The third component of [`counting_topology`].
    const THIRD_COMPONENT: &[&str] = &["dsps.executed.component_2 counter"];
    /// The relay tree over eight machines in two racks: the links it
    /// loads, the depths it reaches, its forward-latency sample.
    const RACKED_RELAY: &[&str] = &[
        "dsps.links.bytes.intra(r0) counter",
        "dsps.links.bytes.intra(r1) counter",
        "dsps.links.bytes.uplink(r0) counter",
        "dsps.links.bytes.uplink(r1) counter",
        "dsps.relay.depth_1 counter",
        "dsps.relay.depth_2 counter",
        "dsps.relay.depth_3 counter",
        "dsps.relay.depth_4 counter",
        "dsps.relay.forward_ns summary",
    ];
    /// A chain over four machines switched to a star: the depths the
    /// chain reached, its forward-latency sample, the switch's T_switch.
    const SWITCHED_RELAY: &[&str] = &[
        "dsps.relay.depth_1 counter",
        "dsps.relay.depth_2 counter",
        "dsps.relay.depth_3 counter",
        "dsps.relay.forward_ns summary",
        "dsps.relay.retire_ns summary",
    ];
    const TIMELINE: &[&str] = &[
        "dsps.timeline.acked series",
        "dsps.timeline.executed series",
        "dsps.timeline.fabric_messages series",
        "dsps.timeline.failed series",
        "dsps.timeline.replayed series",
        "dsps.timeline.send_errors series",
        "dsps.timeline.send_retries series",
        "dsps.timeline.spout_emitted series",
    ];

    /// The metric names a run exports, and what each is, are an interface:
    /// the bench reports and the docs read them by name. Pinned for six
    /// shapes of run, with the counters no schedule can move.
    #[test]
    fn every_run_exports_its_pinned_key_set() {
        use whale_sim::MetricValue;
        let counting = |c1: u64, serializations: u64, frames: u64, messages: u64| {
            [
                ("dsps.spout_emitted", 100),
                ("dsps.executed.component_0", 0),
                ("dsps.executed.component_1", c1),
                ("dsps.executed.component_2", c1),
                ("dsps.serializations", serializations),
                ("dsps.frames_encoded", frames),
                ("dsps.fabric.messages", messages),
            ]
        };
        let bytes = |shared: u64| {
            [
                ("dsps.fabric.copied_bytes", 0),
                ("dsps.fabric.shared_bytes", shared),
            ]
        };
        // The key lists a run exports, and the counters it pins.
        type Pins = (&'static [&'static [&'static str]], Vec<(&'static str, u64)>);
        let runs: [Pins; 6] = [
            (
                &[EVERY_RUN, THIRD_COMPONENT, RACKED_RELAY],
                [&counting(1600, 1700, 1515, 2121)[..], &bytes(73_101)].concat(),
            ),
            (
                &[EVERY_RUN, THIRD_COMPONENT],
                counting(800, 900, 909, 909).to_vec(),
            ),
            (
                &[EVERY_RUN, THIRD_COMPONENT],
                counting(800, 900, 909, 909).to_vec(),
            ),
            (
                &[EVERY_RUN],
                vec![
                    ("dsps.spout_emitted", 60),
                    ("dsps.executed.component_0", 0),
                    ("dsps.executed.component_1", 120),
                ],
            ),
            (
                &[EVERY_RUN, THIRD_COMPONENT, TIMELINE],
                [&counting(800, 900, 909, 909)[..], &bytes(30_129)].concat(),
            ),
            (
                &[EVERY_RUN, SWITCHED_RELAY],
                vec![
                    ("dsps.spout_emitted", 100),
                    ("dsps.executed.component_1", 1600),
                    ("dsps.relay.switches", 1),
                ],
            ),
        ];
        for ((name, report), (keys, values)) in pinned_runs().into_iter().zip(runs) {
            assert_eq!(report.outcome, RunOutcome::Clean, "{name}");
            let m = report.metrics();
            let kind = |v: &MetricValue| match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Summary(_) => "summary",
                MetricValue::Series(_) => "series",
            };
            let got: Vec<String> = m.iter().map(|(k, v)| format!("{k} {}", kind(v))).collect();
            let mut want = keys.concat();
            want.sort_unstable();
            assert_eq!(got, want, "{name}");
            for (key, value) in values {
                assert_eq!(m.counter(key), Some(value), "{name}: {key}");
            }
        }
    }

    /// Whether `key` is one the docs' `pattern` names: `*` stands for any
    /// run of characters, `{a,b}` for one of the alternatives, and a
    /// brace with no comma (`_{d}`) for a number.
    fn doc_name_matches(pattern: &str, key: &str) -> bool {
        let Some(at) = pattern.find(['*', '{']) else {
            return pattern == key;
        };
        let Some(key) = key.strip_prefix(&pattern[..at]) else {
            return false;
        };
        if let Some(rest) = pattern[at..].strip_prefix('*') {
            return (0..=key.len()).any(|i| doc_name_matches(rest, &key[i..]));
        }
        let close = at + pattern[at..].find('}').expect("a closed brace");
        let (group, rest) = (&pattern[at + 1..close], &pattern[close + 1..]);
        if group.contains(',') {
            let alternative = |alt| {
                key.strip_prefix(alt)
                    .is_some_and(|k| doc_name_matches(rest, k))
            };
            return group.split(',').any(alternative);
        }
        let digits = key.len() - key.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        digits > 0 && doc_name_matches(rest, &key[digits..])
    }

    /// Every `dsps.` metric the README and DESIGN.md name is one a run
    /// exports.
    #[test]
    fn the_docs_name_only_exported_keys() {
        let pinned = [
            EVERY_RUN,
            THIRD_COMPONENT,
            RACKED_RELAY,
            SWITCHED_RELAY,
            TIMELINE,
        ]
        .concat();
        let pinned: Vec<&str> = pinned
            .iter()
            .map(|k| k.split(' ').next().unwrap())
            .collect();
        let docs = [
            ("README.md", include_str!("../../../../README.md")),
            ("DESIGN.md", include_str!("../../../../DESIGN.md")),
        ];
        let mut named = 0;
        for (doc, text) in docs {
            for (at, _) in text.match_indices("dsps.") {
                let before = text[..at].chars().next_back();
                if before.is_some_and(|c| c.is_alphanumeric() || "_-/".contains(c)) {
                    continue;
                }
                let in_name = |c: char| c.is_ascii_alphanumeric() || "_.*{},".contains(c);
                let end = text[at..]
                    .find(|c: char| !in_name(c))
                    .unwrap_or(text.len() - at);
                let name = text[at..at + end].trim_end_matches(['.', ',']);
                let exported = pinned.iter().any(|key| doc_name_matches(name, key));
                assert!(exported, "{doc} names `{name}`, which no run exports");
                named += 1;
            }
        }
        assert!(named >= 20, "{named} names found");
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
