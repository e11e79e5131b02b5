//! What a live run reports: one table declaring every run counter once —
//! the [`RunStats`] slots the data plane bumps and the facts other layers
//! own — the [`RunReport`] a [`Routing::snapshot`] reads them into, and
//! its [`MetricsRegistry`](whale_sim::MetricsRegistry) export.

use super::config::BuildError;
use super::relay::RelayEpoch;
use super::reliability::{splitmix64, LogRuntime};
use super::send::{Routing, CURRENT_SHARD};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use whale_net::{FabricStats, FaultFabric, LinkTracker, PartitionLog};
use whale_sim::Histogram;

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

/// The counter table. A row `field: Kind "key"` declares a `u64` field of
/// [`RunReport`] carrying the row's doc, its kind and the `dsps.*` key it
/// exports under (none: reported, not exported).
/// `slots` rows are the runtime's own: one [`RunStats`] slot each, named
/// by a [`Ctr`]. A `read` row belongs to another layer and ends in how
/// [`Routing::snapshot`] reads it from its owner. `report` holds the
/// fields that are not counters.
macro_rules! counter_table {
    (
        slots { $($(#[doc = $sdoc:literal])* $slot:ident: $skind:ident $($skey:literal)?;)* }
        read($($owner:ident: $owner_ty:ty),*) {
            $($(#[doc = $rdoc:literal])* $read:ident: $rkind:ident $($rkey:literal)? = $from:expr;)*
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
        /// Wire frames encoded (pool acquire + fill), a relay record
        /// counting as one however many share its frame. Redundant EOS
        /// copies and relay forwards resend existing bytes without
        /// re-encoding.
        frames_encoded: Counter "dsps.frames_encoded";
        /// Tuples emitted by spouts.
        spout_emitted: Counter "dsps.spout_emitted";
        /// Relay forwards performed by non-source workers (multicast tree),
        /// one per relay record each forwarded frame carries.
        relay_forwards: Counter "dsps.relay_forwards";
        /// Wire bytes sent on the relay path (origin sends + forwards); the
        /// remainder of the fabric byte totals moved point-to-point.
        relay_bytes: Counter "dsps.relay.bytes";
        /// Relay records dropped because their tree generation was retired.
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
        send_retries: Counter "dsps.send.retries";
        /// Frames dropped after the send policy's deadline exhausted (these
        /// degrade the run; teardown races do not).
        send_failed: Counter "dsps.send.failed";
        /// Executors that exited on [`super::LiveConfig::run_deadline`].
        deadline_exits: Counter "dsps.deadline_exits";
        /// Idle episodes of an executor (a round in which none of its
        /// pipelines progressed, and the rounds after it) that outlasted
        /// the spin rung and yielded the CPU (each then either found work
        /// or went on to park). Counted per executor, not per pipeline.
        pipeline_yields: Counter "dsps.pipeline.yields";
        /// Parks the executors entered (idle after spin and yield). Scales
        /// with how often work arrives at an idle executor, not with run
        /// length.
        pipeline_parks: Counter "dsps.pipeline.parks";
        /// Parks an executor came back from to work — woken by a hand-off,
        /// or at a pipeline's due time (a WTL deadline, an acker poll) —
        /// rather than to another park.
        pipeline_wakeups_with_work: Counter "dsps.pipeline.wakeups_with_work";
        /// Tracked tuples given up on after the replay budget (ack runs only).
        tuples_failed: Counter "dsps.ack.failed";
        /// Replay emissions performed (ack runs only).
        tuples_replayed: Counter "dsps.ack.replayed";
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
        /// Network messages through the fabric: frames, a relay frame
        /// counting once however many relay records it carries.
        fabric_messages: Counter "dsps.fabric.messages"
            = fabric.messages;
        /// Bytes copied (TCP semantics).
        copied_bytes: Counter "dsps.fabric.copied_bytes" = fabric.copied_bytes;
        /// Bytes shared (RDMA semantics).
        shared_bytes: Counter "dsps.fabric.shared_bytes" = fabric.shared_bytes;
        /// Sends that failed at the fabric (unknown endpoint, backpressure
        /// that never cleared, or a receiver dropped during teardown). Failed
        /// sends never count toward the byte totals.
        send_errors: Counter "dsps.fabric.send_errors"
            = fabric.send_errors;
        /// Batches the transport flushed (0 on the per-send path).
        batches_flushed: Counter "dsps.fabric.batches_flushed" = fabric.flushed_batches;
        /// Frames handed over as a slice of a flushed slice's or fetched
        /// run's one buffer (0 on the per-send path and on copied runs).
        sliced_frames: Counter "dsps.fabric.sliced_frames" = fabric.sliced_frames;
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
        tuples_acked: Counter "dsps.ack.acked"
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
        /// Log bytes still resident: at shutdown in a joined report, now in
        /// a snapshot.
        log_retained_bytes: Gauge "dsps.log.retained_bytes"
            = r.log_sum(PartitionLog::retained_bytes);
        /// Torn tails healed when recovering persisted log images.
        log_torn_tails: Counter "dsps.log.torn_tails" = r.log_sum(PartitionLog::torn_tails);
        /// Sampled deliveries timed, exact (`delivery_ns.count()` once the
        /// run is joined).
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
        /// Received relay records by tree depth of the receiving node (last
        /// bucket absorbs deeper hops); empty when the relay path was off.
        pub relay_depths: Vec<u64>,
        /// Sampled per-hop relay forward latencies (receipt to last child
        /// send, ns, of one forwarded frame however many relay records it
        /// carries), unordered; a uniform sample of them once a long run has
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
        /// Structured shutdown reason.
        pub outcome: RunOutcome,
        /// Sampled spout-to-execute delivery latencies (ns), every one,
        /// counted in ≈ 4.6 % log buckets with their exact count and sum.
        pub delivery_ns: Histogram,
    }
}

/// Eight counters on one cache line of their own.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Line([AtomicU64; 8]);

/// Counters every pipeline bumps in a lane of its own, the
/// `BufferPool`'s lane pattern: inside a pipeline's step
/// ([`CURRENT_SHARD`]) a count is a plain load and store on lines only
/// that pipeline's executor writes; any other thread (the controller, log
/// replay, a test harness) takes a read-modify-write on the shared slots. Readers sum the shared slot and
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
    /// it read before (the shared slot's, outside a pipeline's step).
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
/// probes, with lanes of their own.
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
            delivery: DeliveryProbes::new(pipelines),
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

/// Emit stamps kept at once: a sampled id's stamp is overwritten by the
/// id `EMIT_WINDOW` samples after it, so the table is one fixed
/// allocation (64 KiB) however long the run. A delivery that far behind
/// its spout goes untimed.
const EMIT_WINDOW: usize = 8 * 1024;

/// Low bits of a stamp: the emit time, in ns since the probes were
/// built, modulo 2^44 (≈ 4.9 h; a latency is taken modulo the same).
const TIME_BITS: u32 = 44;
const TIME_MASK: u64 = (1 << TIME_BITS) - 1;

/// Sampled relay timings kept for the report, per [`Reservoir`] (64 KiB
/// of values, below the allocator's threshold for a block of its own
/// mapping). Past it the kept values are a uniform sample of every
/// recorded one (algorithm R, seeded by the running count, so a replayed
/// sequence keeps the same values).
const RESERVOIR_CAP: usize = 8 * 1024;

/// Delivery-latency probes in memory fixed when they are built: a table
/// of emit stamps, one `AtomicU64` per slot, and a histogram of
/// latencies kept in [`Lanes`], so neither side of a sampled delivery
/// takes a lock.
#[derive(Debug)]
pub(super) struct DeliveryProbes {
    /// What [`Self::now`] counts from.
    start: Instant,
    /// The stamp of a sampled id, at slot `(id / LATENCY_SAMPLE) %
    /// EMIT_WINDOW`: a tag of the id above `TIME_BITS`, its emit time
    /// below; 0 for none. Written with one store and read with one load,
    /// so a read is one writer's whole stamp.
    stamps: Box<[AtomicU64]>,
    /// Latency counts by [`Histogram`] bucket, then their sum (ns).
    latencies: Lanes,
}

/// The [`DeliveryProbes::latencies`] counter of the latencies' sum.
const LATENCY_SUM: usize = Histogram::BUCKETS;

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
    /// Probes for a run of `pipelines` pipelines, each with a lane of the
    /// histogram, counting time from now.
    pub(super) fn new(pipelines: usize) -> Self {
        DeliveryProbes {
            start: Instant::now(),
            stamps: (0..EMIT_WINDOW).map(|_| AtomicU64::new(0)).collect(),
            latencies: Lanes::new(LATENCY_SUM + 1, pipelines),
        }
    }

    fn sampled(id: u64) -> bool {
        id != 0 && id.is_multiple_of(LATENCY_SAMPLE)
    }

    fn slot(id: u64) -> usize {
        (id / LATENCY_SAMPLE) as usize % EMIT_WINDOW
    }

    /// What a stamp of `id` holds above `TIME_BITS`: the id's bits above
    /// those that chose its slot, with the lowest bit set, so a stamp is
    /// never 0 and two ids share a slot and a tag only 2^35 ids apart.
    fn tag(id: u64) -> u64 {
        let above_slot = id / LATENCY_SAMPLE / EMIT_WINDOW as u64;
        (above_slot << 1 | 1) << TIME_BITS
    }

    /// Now, in ns since the probes were built, modulo 2^`TIME_BITS`.
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64 & TIME_MASK
    }

    /// A spout emitted tuple `id`: stamp it if it is a sampled one.
    #[inline]
    pub(super) fn on_emit(&self, id: u64) {
        if Self::sampled(id) {
            self.stamp(id, self.now());
        }
    }

    /// Stamp sampled tuple `id` as emitted at `at` (ns, [`Self::now`]).
    fn stamp(&self, id: u64, at: u64) {
        let stamp = Self::tag(id) | at & TIME_MASK;
        self.stamps[Self::slot(id)].store(stamp, Ordering::Relaxed);
    }

    /// When tuple `id` left its spout ([`Self::now`]), if it is a sampled
    /// one whose stamp is still in its slot.
    fn emitted_at(&self, id: u64) -> Option<u64> {
        if !Self::sampled(id) {
            return None;
        }
        let stamp = self.stamps[Self::slot(id)].load(Ordering::Relaxed);
        (stamp & !TIME_MASK == Self::tag(id)).then_some(stamp & TIME_MASK)
    }

    /// How long ago tuple `id` left its spout (ns), if it is a sampled one
    /// whose stamp is still in its slot — one load; an unsampled id costs
    /// a test of its low bits.
    #[inline]
    pub(super) fn latency(&self, id: u64) -> Option<u64> {
        let at = self.emitted_at(id)?;
        Some(self.now().wrapping_sub(at) & TIME_MASK)
    }

    /// Record one batch's emit-to-batch-start time once per task that
    /// executed it: two counts on this pipeline's own lane.
    #[inline]
    pub(super) fn record(&self, ns: u64, executions: u64) {
        if executions == 0 {
            return;
        }
        self.latencies.add(Histogram::bucket_of(ns), executions);
        self.latencies.add(LATENCY_SUM, ns * executions);
    }

    /// Every latency recorded so far, every lane merged.
    pub(super) fn histogram(&self) -> Histogram {
        let mut counts = self.latencies.all();
        let sum = counts.pop().expect("the sum follows the buckets");
        Histogram::from_buckets(counts, sum as f64)
    }

    /// The exact number of sampled deliveries so far.
    fn samples(&self) -> u64 {
        (0..LATENCY_SUM).map(|b| self.latencies.get(b)).sum()
    }
}

impl RunReport {
    /// Mean sampled delivery latency.
    pub fn mean_delivery(&self) -> Duration {
        Duration::from_nanos(self.delivery_ns.mean() as u64)
    }

    /// p99 sampled delivery latency, within one histogram bucket.
    pub fn p99_delivery(&self) -> Duration {
        Duration::from_nanos(self.delivery_ns.percentile(99.0) as u64)
    }

    /// Export the run as a [`whale_sim::MetricsRegistry`] snapshot under `dsps.*`:
    /// dispatch/send/relay counters, fabric byte split, and the sampled
    /// delivery-latency distribution as a percentile summary.
    pub fn metrics(&self) -> whale_sim::MetricsRegistry {
        use whale_sim::MetricsRegistry;
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
        reg.set_summary("dsps.delivery_ns", &self.delivery_ns);
        reg
    }

    /// The report of a finished run: its last snapshot and the relay's
    /// timing samples.
    pub(super) fn collect(routing: &Routing, elapsed: Duration) -> RunReport {
        let relay = routing.relay.as_ref();
        RunReport {
            relay_forward_ns: relay.map_or_else(Vec::new, |r| r.forward_ns.lock().take().0),
            relay_retire_ns: relay.map_or_else(Vec::new, |r| r.retire_ns.lock().take().0),
            ..routing.snapshot(elapsed)
        }
    }
}

impl Routing {
    /// The run's counters as they read now, `elapsed` into it: every slot,
    /// each row another layer owns read from its owner, and the outcome
    /// they add up to so far. What [`RunReport::collect`] returns at
    /// teardown and [`super::RunHandle::snapshot`] reads mid-run, less the
    /// relay's timing reservoirs.
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
            delivery_ns: self.stats.delivery.histogram(),
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
        Ctr, DeliveryProbes, Histogram, Reservoir, RunStats, CURRENT_SHARD, EMIT_WINDOW,
        LATENCY_SAMPLE, RESERVOIR_CAP, TIME_MASK,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
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
        // Every probe block is a boxed slice allocated when the probes are
        // built, none of them 128 KiB or more (the allocator's threshold
        // for a block of its own mapping, which it raises when one is
        // freed).
        let probes = DeliveryProbes::new(2);
        assert_eq!(std::mem::size_of_val(&*probes.stamps), 64 * 1024);
        let lane = std::mem::size_of_val(&*probes.latencies.lanes[0]);
        assert!(lane < 128 * 1024, "a lane is {lane} B");
        // Unsampled ids cost nothing; a sampled id is timed per delivery.
        probes.on_emit(LATENCY_SAMPLE + 1);
        assert!(probes.latency(LATENCY_SAMPLE + 1).is_none());
        probes.on_emit(LATENCY_SAMPLE);
        assert!(probes.latency(LATENCY_SAMPLE).is_some());
        probes.record(5, 2);
        // A stamp lives until the id one window later takes its slot.
        let evictor = LATENCY_SAMPLE * (1 + EMIT_WINDOW as u64);
        probes.on_emit(evictor);
        assert!(probes.latency(LATENCY_SAMPLE).is_none());
        assert!(probes.latency(evictor).is_some());
        probes.record(9, 0);
        // On a pipeline's lane and off one, the count stays exact.
        const RECORDS: u64 = 3 * 64 * 1024;
        std::thread::scope(|s| {
            s.spawn(|| {
                CURRENT_SHARD.with(|c| c.set(Some(1)));
                (0..RECORDS / 32).for_each(|ns| probes.record(ns, 16));
            });
            (0..RECORDS / 32).for_each(|ns| probes.record(ns << 20, 16));
        });
        let h = probes.histogram();
        assert_eq!(h.count(), 2 + RECORDS, "the count stays exact");
        assert_eq!(probes.samples(), h.count());
        let sum = 10 + 16 * (0..RECORDS / 32).map(|ns| ns + (ns << 20)).sum::<u64>();
        assert_eq!(h.mean(), sum as f64 / h.count() as f64, "the sum is exact");
    }

    #[test]
    fn a_stamp_is_read_whole_and_only_by_its_own_id() {
        // Two emitters stamp ids that all share one slot, each stamp's
        // time a function of its id, while two executors look up what the
        // emitters last wrote: a lookup finds its own id's stamp or none.
        const ROUNDS: u64 = 200_000;
        let probes = DeliveryProbes::new(0);
        let id = |round: u64, emitter: u64| {
            LATENCY_SAMPLE * (7 + EMIT_WINDOW as u64 * (2 * round + emitter + 1))
        };
        let at = |id: u64| id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        let last = [AtomicU64::new(0), AtomicU64::new(0)];
        let running = AtomicU64::new(2);
        let start = std::sync::Barrier::new(4);
        let found = std::thread::scope(|s| {
            for emitter in 0..2 {
                let (probes, last, running, start) = (&probes, &last, &running, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let id = id(round, emitter);
                        probes.stamp(id, at(id));
                        last[emitter as usize].store(id, Ordering::Relaxed);
                    }
                    running.fetch_sub(1, Ordering::Release);
                });
            }
            let readers: Vec<_> = (0..2)
                .map(|reader| {
                    let (probes, last, running, start) = (&probes, &last, &running, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut found = 0u64;
                        // The last lookup follows both emitters' last
                        // stamps, so one reader finds its emitter's.
                        loop {
                            let done = running.load(Ordering::Acquire) == 0;
                            let id = last[reader].load(Ordering::Relaxed);
                            if let Some(stamped) = probes.emitted_at(id) {
                                assert_eq!(stamped, at(id) & TIME_MASK, "id {id}");
                                found += 1;
                            }
                            if done {
                                break found;
                            }
                        }
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });
        assert!(found > 0, "no lookup found a stamp");
    }

    proptest::proptest! {
        #[test]
        fn merged_lanes_give_percentiles_within_one_bucket_of_exact(
            latencies in proptest::collection::vec(0u64..1 << 34, 1..600),
        ) {
            // Spread over two lanes and the shared slots.
            let probes = DeliveryProbes::new(2);
            std::thread::scope(|s| {
                let chunks = latencies.chunks(latencies.len().div_ceil(3));
                for (lane, chunk) in chunks.enumerate() {
                    let probes = &probes;
                    s.spawn(move || {
                        CURRENT_SHARD.with(|c| c.set((lane < 2).then_some(lane)));
                        chunk.iter().for_each(|&ns| probes.record(ns, 1));
                    });
                }
            });
            let h = probes.histogram();
            let mut sorted = latencies.clone();
            sorted.sort_unstable();
            proptest::prop_assert_eq!(h.count(), sorted.len() as u64);
            for p in [50.0, 99.0] {
                let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
                let exact = Histogram::bucket_of(sorted[rank - 1]);
                let got = Histogram::bucket_of(h.percentile(p) as u64);
                proptest::prop_assert!(
                    got.abs_diff(exact) <= 1,
                    "p{}: bucket {} for {}",
                    p,
                    got,
                    exact
                );
            }
        }
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

    /// The five run shapes whose exports are pinned below, by name.
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
            // A frame per tuple: the crash and the restart land among the
            // data.
            let (t, ops) = paced_ack_topology(60, 2, true);
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
        "dsps.fabric.sliced_frames counter",
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

    /// The metric names a run exports, and what each is, are an interface:
    /// the bench reports and the docs read them by name. Pinned for five
    /// shapes of run, with the counters no schedule can move.
    #[test]
    fn every_run_exports_its_pinned_key_set() {
        use whale_sim::MetricValue;
        let counting = |c1: u64, serializations: u64, frames: u64| {
            [
                ("dsps.spout_emitted", 100),
                ("dsps.executed.component_0", 0),
                ("dsps.executed.component_1", c1),
                ("dsps.executed.component_2", c1),
                ("dsps.serializations", serializations),
                ("dsps.frames_encoded", frames),
            ]
        };
        // How many records share a fabric frame follows the schedule, so
        // a run pins its bytes, not its messages.
        let bytes = |shared: u64| {
            [
                ("dsps.fabric.copied_bytes", 0),
                ("dsps.fabric.shared_bytes", shared),
            ]
        };
        // The key lists a run exports, and the counters it pins.
        type Pins = (&'static [&'static [&'static str]], Vec<(&'static str, u64)>);
        let runs: [Pins; 5] = [
            (
                &[EVERY_RUN, THIRD_COMPONENT, RACKED_RELAY],
                [&counting(1600, 1700, 1515)[..], &bytes(73_101)].concat(),
            ),
            (
                &[EVERY_RUN, THIRD_COMPONENT],
                [&counting(800, 900, 909)[..], &bytes(30_129)].concat(),
            ),
            (
                &[EVERY_RUN, THIRD_COMPONENT],
                [&counting(800, 900, 909)[..], &bytes(30_129)].concat(),
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
        let pinned = [EVERY_RUN, THIRD_COMPONENT, RACKED_RELAY, SWITCHED_RELAY].concat();
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
        let samples = r.delivery_ns.count();
        assert!(samples >= 50, "samples = {samples}");
        assert_eq!(samples, r.delivery_samples);
        assert!(r.mean_delivery() > std::time::Duration::ZERO);
        assert!(r.p99_delivery() >= r.mean_delivery() / 2);
    }
}
