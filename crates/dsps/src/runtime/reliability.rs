//! At-least-once delivery and crash recovery: anchor arithmetic, the
//! acker wiring ([`AckRuntime`]), the executors' duplicate filter
//! ([`DedupWindow`]), and the write-ahead partition logs with their
//! inline GC ([`LogRuntime`]) and the restart replay the control step
//! runs ([`replay_endpoint`]).

use super::config::AckConfig;
use super::report::{Ctr, RunStats};
use super::send::Routing;
use super::wire::Wire;
use crate::acker::{attempt_of, root_of, Acker, LedgerGauges};
use crate::task::TaskId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use whale_net::{EndpointId, LogConfig, PartitionLog};
use whale_sim::{SimDuration, SimTime};

pub(super) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The XOR-ledger anchor of destination `dst` within tree `tracked` — a
/// pure function, so the sender arms the ledger and the receiver acks it
/// without the anchor ever traveling on the wire. Never zero (a zero
/// anchor would be an XOR no-op).
pub(super) fn anchor_for(tracked: u64, dst: TaskId) -> u64 {
    splitmix64(tracked ^ splitmix64(dst.0 as u64 + 1)).max(1)
}

/// The shared at-least-once machinery of one tracked run.
pub(super) struct AckRuntime {
    pub(super) config: AckConfig,
    /// The one ledger of the run: root allocation, the XOR window, the
    /// replay handles and the acked count, behind one lock.
    pub(super) acker: Mutex<Acker>,
    /// What the ledger publishes, read without its lock.
    pub(super) gauges: Arc<LedgerGauges>,
    /// Wall-clock epoch backing the acker's [`SimTime`] clock.
    epoch: Instant,
}

impl AckRuntime {
    pub(super) fn new(config: AckConfig) -> Self {
        let timeout = SimDuration::from_nanos((config.timeout.as_nanos() as u64).max(1));
        let acker = Acker::new(timeout);
        AckRuntime {
            config,
            gauges: acker.gauges(),
            acker: Mutex::new(acker),
            epoch: Instant::now(),
        }
    }

    /// Now on the acker's clock.
    pub(super) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// What an executor does with one tracked frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Admit {
    /// First sight of the root here: execute it, and XOR this task's
    /// anchor into the ledger.
    Execute,
    /// The root already ran here. `ack` when the frame is a newer attempt
    /// than any acked here — a replay is acked, never re-executed.
    Duplicate { ack: bool },
    /// Not a live root ([`LedgerGauges::live_roots`]): a late frame of a
    /// tree already resolved, or an id the ledger never opened. Neither
    /// executed nor acked.
    Resolved,
}

/// One executor's duplicate filter: `last attempt acked + 1` per live
/// root (`0` = never seen), indexed by `root − base` and trimmed to the
/// ledger's resolved-below watermark — a root below it needs no entry,
/// because a frame naming it is a duplicate by definition.
#[derive(Default)]
pub(super) struct DedupWindow {
    base: u64,
    acked_through: VecDeque<u32>,
}

impl DedupWindow {
    /// Decide one frame of tree `tracked` and record the decision. `live`
    /// is [`LedgerGauges::live_roots`], read once per batch; the longest
    /// any window grows is `stats`' `dedup_window_peak`.
    pub(super) fn admit(&mut self, tracked: u64, live: &Range<u64>, stats: &RunStats) -> Admit {
        let root = root_of(tracked);
        if !live.contains(&root) {
            return Admit::Resolved;
        }
        if self.base < live.start {
            let resolved = (live.start - self.base).min(self.acked_through.len() as u64);
            self.acked_through.drain(..resolved as usize);
            self.base = live.start;
        }
        let idx = (root - self.base) as usize;
        if idx >= self.acked_through.len() {
            // Bounded by the ledger's own window: `root` is one it opened.
            self.acked_through.resize(idx + 1, 0);
            let len = self.acked_through.len() as u64;
            if len > stats.get(Ctr::dedup_window_peak) {
                stats.raise(Ctr::dedup_window_peak, len);
            }
        }
        let seen = &mut self.acked_through[idx];
        let attempt = attempt_of(tracked) + 1;
        let (first, newer) = (*seen == 0, *seen < attempt);
        *seen = (*seen).max(attempt);
        if first {
            Admit::Execute
        } else {
            Admit::Duplicate { ack: newer }
        }
    }
}

/// One destination endpoint's write-ahead log and the roots its records
/// name, oldest first. Every record is tracked, so the roots not yet
/// collected are the log's newest records: the one at `roots[i]` has seq
/// `next_seq − roots.len() + i`.
struct EndpointLog {
    log: PartitionLog,
    roots: VecDeque<u64>,
}

impl EndpointLog {
    /// Advance the GC watermark over the prefix of records whose roots
    /// are resolved and truncate the log to it.
    fn gc(&mut self, resolved_below: u64) {
        let log = &mut self.log;
        // A record the segment cap evicted needs its root no more.
        let retained = (log.next_seq() - log.first_seq()) as usize;
        self.roots
            .drain(..self.roots.len().saturating_sub(retained));
        let resolved = self.roots.iter().take_while(|&&root| root < resolved_below);
        let n = resolved.count();
        if n > 0 {
            self.roots.drain(..n);
            log.truncate_to(log.next_seq() - self.roots.len() as u64);
        }
    }
}

/// The per-run partition-log machinery (see [`super::LiveConfig::log`]): one
/// write-ahead [`PartitionLog`] per flat destination endpoint, holding the
/// frames the acker tracks and garbage collected by its appender against
/// the ledger's watermark.
pub(super) struct LogRuntime {
    /// One log per flat fabric endpoint, indexed by endpoint id.
    logs: Vec<Mutex<EndpointLog>>,
    /// The ledger's gauges (all zero on an untracked run, which logs
    /// nothing).
    ledger: Arc<LedgerGauges>,
}

impl LogRuntime {
    pub(super) fn new(config: LogConfig, n_flat: usize, ledger: Arc<LedgerGauges>) -> Self {
        let endpoint = || EndpointLog {
            log: PartitionLog::new(config),
            roots: VecDeque::new(),
        };
        LogRuntime {
            logs: (0..n_flat).map(|_| Mutex::new(endpoint())).collect(),
            ledger,
        }
    }

    fn resolved_below(&self) -> u64 {
        self.ledger.resolved_below.load(Ordering::Relaxed)
    }

    /// Write one encoded frame of tree `tracked` through the
    /// destination's log (called before the fabric send) and, under the
    /// same lock, collect what the ledger's watermark has released since
    /// the last append. Every endpoint of the run is a pipeline's, and
    /// each has a log, so `to` always finds one; an id past them is
    /// ignored rather than a panic.
    pub(super) fn append(&self, to: EndpointId, tracked: u64, bytes: &[u8]) {
        let Some(endpoint) = self.logs.get(to.0 as usize) else {
            return;
        };
        let mut endpoint = endpoint.lock();
        endpoint.log.append(bytes);
        endpoint.roots.push_back(root_of(tracked));
        endpoint.gc(self.resolved_below());
    }

    /// GC every endpoint once: an endpoint nobody appends to any more
    /// (the run is over) still owes the roots resolved since its last
    /// append.
    pub(super) fn gc_pass(&self) {
        let resolved_below = self.resolved_below();
        for endpoint in &self.logs {
            endpoint.lock().gc(resolved_below);
        }
    }

    /// Sum a per-endpoint log counter over every endpoint.
    pub(super) fn sum(&self, f: impl Fn(&PartitionLog) -> u64) -> u64 {
        self.logs.iter().map(|l| f(&l.lock().log)).sum()
    }

    pub(super) fn gc_watermark(&self) -> u64 {
        let watermarks = self.logs.iter().map(|l| l.lock().log.gc_watermark());
        watermarks.max().unwrap_or(0)
    }
}

/// The data endpoints of a logged run that the injected plan crashes and
/// later restarts: each comes back needing its log slice replayed exactly
/// once.
pub(super) fn restarting_endpoints(routing: &Routing, n_flat: usize) -> Vec<EndpointId> {
    let plan = routing.config.fault.as_ref();
    let Some(plan) = plan.filter(|_| routing.log.is_some()) else {
        return Vec::new();
    };
    let restarts_after = |c: &whale_net::EndpointCrash| {
        let mut restarts = plan.restarts.iter();
        restarts.any(|r| r.endpoint == c.endpoint && r.at_frame > c.at_frame)
    };
    let crashes = plan.crashes.iter();
    crashes
        .filter(|c| (c.endpoint.0 as usize) < n_flat && restarts_after(c))
        .map(|c| c.endpoint)
        .collect()
}

/// Replay everything a restarted endpoint's log still retains, oldest
/// record first (see [`super::LiveConfig::log`]); the control step calls
/// this once the fault layer reports the endpoint back. The read is
/// priced as one-sided READs inside [`PartitionLog::read_from`]; the
/// re-sends go straight to the fabric, bypassing `transmit` so they are
/// not re-logged, and cross the fault wrapper, which accepts them now that
/// the endpoint is back. Root-id dedup at the executors absorbs overlap
/// with in-flight acker replays.
pub(super) fn replay_endpoint(routing: &Routing, ep: EndpointId) {
    let log = routing.log.as_ref().expect("replay implies logs");
    let read = {
        let mut endpoint = log.logs[ep.0 as usize].lock();
        let start = endpoint.log.first_seq();
        endpoint.log.read_from(start)
    };
    for (_seq, bytes) in read.records {
        let n = bytes.len() as u64;
        let buf: Arc<[u8]> = Arc::from(bytes.into_boxed_slice());
        if routing.send_wire(ep, ep, Wire::Shared(&buf)) {
            routing.stats.add(Ctr::log_replayed_records, 1);
            routing.stats.add(Ctr::log_replayed_bytes, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::{anchor_for, AckRuntime, Admit, DedupWindow};
    use crate::acker::{attempt_of, root_of, tracked_id, Expired, TreeState};
    use crate::task::TaskId;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use whale_net::{EndpointId, FaultPlan, IdHashSet, LogConfig, PartitionLog, RECORD_HEADER};

    /// The two sets a bolt used to keep: tracked ids it XOR'd into the
    /// ledger, roots it executed. What [`DedupWindow`] is checked against.
    #[derive(Default)]
    struct HashSets {
        acked_tracked: IdHashSet<u64>,
        seen_roots: IdHashSet<u64>,
    }

    impl HashSets {
        /// `(ack, execute)` for one frame.
        fn admit(&mut self, tracked: u64) -> (bool, bool) {
            let ack = self.acked_tracked.insert(tracked);
            (ack, self.seen_roots.insert(root_of(tracked)))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Frames in any order — duplicated, replayed under later and
        /// earlier attempts, replayed to another task, naming roots
        /// already resolved or never opened — while the ledger's live
        /// range moves. For a live root the window executes exactly when
        /// the sets do and acks exactly when they do, but for one case:
        /// an attempt older than one this task already acked is not acked
        /// again (the ledger has superseded it and would reject the ack).
        /// A root that is not live is dropped, whatever the task knows.
        #[test]
        fn dedup_window_equals_hash_sets(
            script in proptest::collection::vec((0u8..8, any::<u64>()), 0..200),
        ) {
            let ack = AckRuntime::new(AckConfig::default());
            let stats = RunStats::new(0, 0);
            let gauge = |g: &AtomicU64| g.load(Ordering::Relaxed);
            let mut tasks: Vec<(DedupWindow, HashSets)> = Default::default();
            tasks.resize_with(3, Default::default);
            let mut peak = 0;
            for (op, arg) in script {
                let g = &ack.gauges;
                let (resolved, opened) = (gauge(&g.resolved_below), gauge(&g.opened_below));
                match op {
                    // The spout opens roots; the oldest ones resolve.
                    0 => g.opened_below.store(opened + 1 + arg % 3, Ordering::Relaxed),
                    1 => {
                        let to = (resolved + arg % 4).min(opened);
                        g.resolved_below.store(to, Ordering::Relaxed);
                    }
                    // A frame: mostly of a live root, sometimes below or
                    // beyond; a low attempt number, any task.
                    _ => {
                        let span = opened - resolved + 4;
                        let root = (resolved + (arg >> 8) % span).saturating_sub(2);
                        let tracked = tracked_id(root, (arg % 3) as u32);
                        let (window, sets) = &mut tasks[(arg >> 4) as usize % 3];
                        let live = g.live_roots();
                        let admit = window.admit(tracked, &live, &stats);
                        peak = peak.max(window.acked_through.len() as u64);
                        if !live.contains(&root) {
                            prop_assert_eq!(admit, Admit::Resolved);
                            continue;
                        }
                        // Trimmed to the live range by every live frame.
                        prop_assert!(window.acked_through.len() as u64 <= opened - resolved);
                        let newest = (0..3).rev().find(|&a| {
                            sets.acked_tracked.contains(&tracked_id(root, a))
                        });
                        let (ref_ack, ref_execute) = sets.admit(tracked);
                        let superseded = newest.is_some_and(|a| a > attempt_of(tracked));
                        let expected = match (ref_execute, ref_ack && !superseded) {
                            (true, ack) => {
                                prop_assert!(ack, "a first sight is always acked");
                                Admit::Execute
                            }
                            (false, ack) => Admit::Duplicate { ack },
                        };
                        prop_assert_eq!(admit, expected, "{:#x}", tracked);
                    }
                }
            }
            prop_assert_eq!(stats.get(Ctr::dedup_window_peak), peak);
        }
    }

    #[test]
    fn four_pipelines_ack_one_window_while_the_spout_expires_and_replays() {
        // The ledger's one lock against five threads: the spout tracks,
        // arms, force-expires whatever is pending (an ack may be in
        // flight: it then lands on a superseded attempt and is rejected),
        // replays or gives up; four pipelines ack every frame they are
        // sent. Every root must end acked or given up, exactly once.
        const ROOTS: u64 = 20_000;
        const PIPELINES: u32 = 4;
        let ack = AckRuntime::new(AckConfig::default());
        let tasks: Vec<TaskId> = (0..PIPELINES).map(TaskId).collect();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..PIPELINES)
            .map(|_| crossbeam::channel::unbounded::<u64>())
            .unzip();
        let start = std::sync::Barrier::new(PIPELINES as usize + 1);
        let given_up = std::thread::scope(|s| {
            for (rx, &task) in rxs.into_iter().zip(&tasks) {
                let (ack, start) = (&ack, &start);
                s.spawn(move || {
                    start.wait();
                    while let Ok(tracked) = rx.recv() {
                        let anchor = anchor_for(tracked, task);
                        ack.acker.lock().ack(tracked, anchor);
                    }
                });
            }
            start.wait();
            let send = |tracked: u64| {
                let anchors = tasks.iter().map(|&t| anchor_for(tracked, t));
                let arm = anchors.fold(0, |x, a| x ^ a);
                let armed = ack.acker.lock().ack(tracked, arm);
                assert_ne!(armed, TreeState::Failed, "armed its own fresh attempt");
                for tx in &txs {
                    tx.send(tracked).unwrap();
                }
            };
            let (mut expired, mut given_up) = (Vec::new(), 0u64);
            let mut expire = |now, expired: &mut Vec<Expired>| {
                let unresolved = ack.acker.lock().expire_owned(0, now, expired);
                for Expired { root, attempt, .. } in expired.drain(..) {
                    if attempt >= 2 {
                        ack.acker.lock().give_up(root);
                        given_up += 1;
                    } else {
                        let rearmed = ack.acker.lock().replay(root, ack.now());
                        send(rearmed.expect("expired a moment ago, by this thread"));
                    }
                }
                unresolved
            };
            for n in 0..ROOTS {
                let tuple = Arc::new(Tuple::with_id(n, vec![Value::I64(n as i64)]));
                let tracked = ack.acker.lock().track(0, tuple, ack.now());
                send(tracked);
                if n % 64 == 63 {
                    expire(whale_sim::SimTime::MAX, &mut expired);
                }
            }
            // Nothing is overdue at time zero: this only counts.
            while expire(whale_sim::SimTime::ZERO, &mut expired) > 0 {
                std::thread::yield_now();
            }
            drop(txs);
            given_up
        });
        let acker = ack.acker.lock();
        assert_eq!(acker.acked() + given_up, ROOTS, "acked + failed == emitted");
        assert_eq!(acker.pending(), 0);
        assert_eq!(ack.gauges.live_roots(), ROOTS + 1..ROOTS + 1);
        assert!(
            given_up < ROOTS && acker.acked() < ROOTS,
            "both ends were exercised"
        );
    }

    /// Segment size of [`closed_loop_run`]'s logs: small, so a short
    /// stream fills many segments.
    const SEGMENT_BYTES: usize = 256;

    /// src → two all-grouped sinks over two machines, tracked and logged,
    /// on one executor, the spout held to about `window` tuples ahead of
    /// the slower sink; with `via_bolt`, through two shuffle-grouped `mid`
    /// bolts that emit what they receive, so every sink frame is a bolt's.
    /// Returns the joined report and every snapshot read while the run
    /// went; the spout waits at its midpoint until a read has seen it
    /// there. Ahead of a sink, the spout pauses before its tuple instead of
    /// waiting for the sink: the sinks run on its executor once its step
    /// ends, which the pause (a slow call) makes it do at once.
    fn closed_loop_run(tuples: u64, window: u64, via_bolt: bool) -> (RunReport, Vec<RunReport>) {
        let mut b = crate::topology::TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["n"]))
            .bolt("sink", 2, Schema::new(vec!["n"]));
        if via_bolt {
            b.bolt("mid", 2, Schema::new(vec!["n"]))
                .connect("src", "mid", Grouping::Shuffle)
                .connect("mid", "sink", Grouping::All);
        } else {
            b.connect("src", "sink", Grouping::All);
        }
        let done: Arc<[AtomicU64; 2]> = Arc::default();
        let (executed, spout_done) = (Arc::clone(&done), Arc::clone(&done));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let spout_gate = Arc::clone(&gate);
        let ops = Operators::new()
            .spout("src", move |_| {
                let (done, gate) = (Arc::clone(&spout_done), Arc::clone(&spout_gate));
                Box::new(IterSpout::new((0..tuples).map(move |i| {
                    if i == tuples / 2 {
                        gate.wait();
                    }
                    let behind = |d: &AtomicU64| d.load(Ordering::Relaxed) + window <= i;
                    if done.iter().any(behind) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Tuple::with_id(i, vec![Value::I64(i as i64)])
                })))
            })
            .bolt("mid", |_| {
                Box::new(FnBolt::new(|t: &Tuple, out: &mut dyn Emitter| {
                    out.emit(t.clone())
                }))
            })
            .bolt("sink", move |idx| {
                let executed = Arc::clone(&executed);
                Box::new(FnBolt::new(move |_t: &Tuple, _out: &mut dyn Emitter| {
                    executed[idx as usize].fetch_add(1, Ordering::Relaxed);
                }))
            });
        let config = LiveConfig {
            machines: 2,
            ack: Some(AckConfig {
                timeout: Duration::from_secs(20),
                ..AckConfig::default()
            }),
            log: Some(LogConfig {
                segment_bytes: SEGMENT_BYTES,
                max_segments: 1 << 20,
            }),
            ..LiveConfig::default()
        };
        let run = spawn_topology_on(b.build().unwrap(), ops, config, 1);
        let run = run.expect("a runnable config");
        let mut snapshots = read_until(&run, |s| s.spout_emitted >= tuples / 2);
        gate.wait();
        let sunk = |_: &RunReport| done.iter().all(|d| d.load(Ordering::Relaxed) == tuples);
        snapshots.extend(read_until(&run, sunk));
        let r = run.join();
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!((r.tuples_acked, r.tuples_replayed), (tuples, 0));
        // `sink` is the second component declared, with or without `mid`.
        assert_eq!(r.executed[1], 2 * tuples);
        (r, snapshots)
    }

    #[test]
    fn a_long_tracked_logged_run_keeps_reliability_state_bounded() {
        // What the run keeps per tuple — the ledger's window, each
        // executor's dedup window, the log — follows what is in flight,
        // not what has been emitted: four times the stream, same state.
        const WINDOW: u64 = 32;
        for tuples in [3_000, 12_000] {
            let (r, snapshots) = closed_loop_run(tuples, WINDOW, false);
            let m = r.metrics();
            let gauge = |name: &str| m.gauge(name).unwrap_or_else(|| panic!("{name} exported"));
            // An ack lands after the execution the spout waited for, and
            // the spout runs a tuple ahead of its own check.
            let in_flight = (WINDOW + 4) as f64;
            let window_peak = gauge("dsps.ack.window_peak");
            assert!(
                window_peak <= in_flight,
                "{tuples}: ledger window {window_peak}"
            );
            assert_eq!(window_peak, r.ack_window_peak as f64);
            let dedup_peak = gauge("dsps.ack.dedup_window_peak");
            assert!(
                dedup_peak <= in_flight,
                "{tuples}: dedup window {dedup_peak}"
            );
            assert!(dedup_peak >= 1.0 && window_peak >= 1.0);
            log_holds_what_is_in_flight(&tuples.to_string(), &r, &snapshots, WINDOW + 4);
        }
    }

    /// The same closed loop through a bolt: the sinks are fed only by
    /// bolt emissions, which the acker does not track and the log does not
    /// hold, so the log is bounded by the spout's frames in flight.
    #[test]
    fn a_long_tracked_logged_run_through_a_bolt_keeps_its_log_bounded() {
        const WINDOW: u64 = 32;
        for tuples in [3_000, 12_000] {
            let (r, snapshots) = closed_loop_run(tuples, WINDOW, true);
            let hop = format!("{tuples} via a bolt");
            log_holds_what_is_in_flight(&hop, &r, &snapshots, WINDOW + 4);
        }
    }

    /// What a closed loop's log keeps: nothing at exit, and while the run
    /// went, the records of at most `unresolved` roots, in whole segments.
    fn log_holds_what_is_in_flight(
        run: &str,
        r: &RunReport,
        snapshots: &[RunReport],
        unresolved: u64,
    ) {
        // While the run went, the log held what was in flight and no
        // more: each append collects every resolved record below it, so
        // what stays is the unresolved roots' records (one each, every
        // frame here the same size), plus up to `per_segment - 1` resolved
        // ones sharing the oldest one's segment — at most this many whole
        // segments.
        let record = RECORD_HEADER + (r.log_appended_bytes / r.log_appended_records) as usize;
        let per_segment = SEGMENT_BYTES / record;
        let bound = (unresolved as usize + per_segment - 1).div_ceil(per_segment) * SEGMENT_BYTES;
        for s in snapshots {
            let retained = s.log_retained_bytes;
            assert!(
                retained <= bound as u64,
                "{run}: {retained} B retained {:?} into the run, bound {bound} B",
                s.elapsed
            );
        }
        assert!(
            snapshots.iter().any(|s| s.log_retained_bytes > 0),
            "{run}: no read saw the log mid-run ({} reads)",
            snapshots.len()
        );
        // Every root resolved, so the final pass reclaimed every
        // segment; the cap (a million segments) never evicted one.
        let retained = r.metrics().gauge("dsps.log.retained_bytes");
        assert_eq!(retained, Some(0.0), "{run}");
        assert_eq!(r.log_gcd_bytes, r.log_appended_bytes, "{run}");
    }

    #[test]
    fn a_stalled_watermark_holds_the_log_and_its_roots_to_the_segment_cap() {
        // No root ever resolves: the segment cap evicts, and the roots of
        // evicted records go with them. Once the ledger moves, one pass
        // collects the rest.
        let config = LogConfig {
            segment_bytes: 256,
            max_segments: 4,
        };
        let ledger = Arc::new(crate::acker::LedgerGauges::default());
        let logs = super::LogRuntime::new(config, 1, Arc::clone(&ledger));
        let frame = [7u8; 20];
        for root in 0..1_000u64 {
            logs.append(EndpointId(0), tracked_id(root, 0), &frame);
            let endpoint = logs.logs[0].lock();
            let log = &endpoint.log;
            assert!(endpoint.roots.len() as u64 <= log.next_seq() - log.first_seq());
            assert!(log.retained_bytes() <= 4 * 256);
        }
        assert!(logs.sum(PartitionLog::evicted_segments) > 0);
        ledger.resolved_below.store(1_000, Ordering::Relaxed);
        logs.gc_pass();
        assert_eq!(logs.sum(PartitionLog::retained_bytes), 0);
        assert!(logs.logs[0].lock().roots.is_empty());
    }

    #[test]
    fn tracked_clean_run_acks_every_tuple() {
        let (t, ops) = ack_topology(200, 4);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 4,
                ack: Some(AckConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.spout_emitted, 200);
        assert_eq!(r.tuples_acked, 200);
        assert_eq!(r.tuples_failed, 0);
        assert_eq!(r.tuples_replayed, 0);
        // Every instance executed every root exactly once.
        assert_eq!(r.executed[1], 200 * 4);
    }

    #[test]
    fn tracked_run_replays_through_injected_drops_without_silent_loss() {
        for fabric in [
            FabricKind::PerSend,
            FabricKind::Ring(whale_net::RingConfig::default()),
            FabricKind::OneSided(whale_net::OneSidedConfig::default()),
        ] {
            let (t, ops) = ack_topology(150, 2);
            let r = run_topology(
                t,
                ops,
                LiveConfig {
                    machines: 4,
                    fabric,
                    ack: Some(AckConfig {
                        timeout: Duration::from_millis(50),
                        max_replays: 20,
                        drain_deadline: Duration::from_secs(20),
                        eos_redundancy: 4,
                    }),
                    fault: Some(FaultPlan::uniform_drops(7, 0.2)),
                    run_deadline: Some(Duration::from_secs(5)),
                    ..LiveConfig::default()
                },
            );
            // At-least-once accounting: every emission ends acked or
            // failed — never silently lost.
            assert_eq!(
                r.tuples_acked + r.tuples_failed,
                r.spout_emitted,
                "fabric run must account for every tuple"
            );
            assert!(r.fault_drops > 0, "the plan must actually drop frames");
            assert!(r.tuples_replayed > 0, "drops must trigger replays");
            // An acked root reached every subscriber; dedup keeps each
            // execution unique per instance.
            assert!(r.executed[1] >= r.tuples_acked);
            assert!(r.executed[1] <= 2 * r.spout_emitted);
        }
    }

    #[test]
    fn tracked_run_with_crashed_endpoint_accounts_for_every_tuple() {
        // Crash worker 1 after its first 10 addressed frames: tuples
        // that can no longer reach it exhaust their replay budget and
        // are failed — counted, not lost.
        let (t, ops) = ack_topology(60, 2);
        let plan = FaultPlan {
            seed: 11,
            crashes: vec![whale_net::EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 10,
            }],
            ..FaultPlan::default()
        };
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    timeout: Duration::from_millis(30),
                    max_replays: 3,
                    drain_deadline: Duration::from_secs(10),
                    eos_redundancy: 2,
                }),
                fault: Some(plan),
                run_deadline: Some(Duration::from_secs(5)),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
        assert!(r.fault_crashed_sends > 0, "the crash must reject sends");
        assert!(r.tuples_failed > 0, "unreachable tuples must fail loudly");
        assert!(matches!(r.outcome, RunOutcome::Degraded { .. }));
    }

    #[test]
    fn crash_with_restart_and_log_recovers_every_tuple_without_acker_replays() {
        // Same crash as above, but the endpoint restarts and the run
        // writes through a partition log: the recovery thread replays
        // the crashed slice from the log, so every tuple acks without
        // touching the acker's replay budget — effectively-once via
        // root-id dedup, zero failed tuples.
        let (t, ops) = ack_topology(60, 2);
        let plan = FaultPlan {
            seed: 11,
            crashes: vec![whale_net::EndpointCrash {
                endpoint: EndpointId(1),
                at_frame: 10,
            }],
            restarts: vec![whale_net::EndpointRestart {
                endpoint: EndpointId(1),
                at_frame: 25,
            }],
            ..FaultPlan::default()
        };
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    // Long timeout: the log replay must beat the acker to
                    // the recovery, not ride on it.
                    timeout: Duration::from_secs(10),
                    max_replays: 3,
                    drain_deadline: Duration::from_secs(30),
                    eos_redundancy: 2,
                }),
                fault: Some(plan),
                log: Some(LogConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.tuples_acked + r.tuples_failed, r.spout_emitted);
        assert!(r.fault_crashed_sends > 0, "the crash must reject sends");
        assert_eq!(r.tuples_failed, 0, "log replay must recover every tuple");
        assert_eq!(
            r.tuples_replayed, 0,
            "recovery must come from the log, not the acker's replay budget"
        );
        assert!(
            r.log_appended_records > 0,
            "sends must write through the log"
        );
        assert!(
            r.log_replayed_records > 0,
            "the restart must trigger a replay"
        );
        assert!(r.log_replayed_bytes > 0);
        // Each of the two sink instances executed each root exactly once
        // even though the replay redelivers pre-crash frames.
        assert_eq!(r.executed[1], 60 * 2);
        let m = r.metrics();
        assert_eq!(
            m.counter("dsps.log.replayed_records"),
            Some(r.log_replayed_records)
        );
        assert_eq!(
            m.counter("dsps.log.appended_records"),
            Some(r.log_appended_records)
        );
    }

    #[test]
    fn acker_watermark_gc_bounds_log_retention() {
        // A clean tracked run with small log segments: acked roots feed
        // the GC watermark, so most of the log is reclaimed before the
        // run reports — retention stays flat instead of growing with the
        // stream.
        let (t, ops) = ack_topology(200, 2);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig {
                    timeout: Duration::from_secs(10),
                    ..AckConfig::default()
                }),
                log: Some(LogConfig {
                    segment_bytes: 256,
                    max_segments: 4096,
                }),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.tuples_acked, 200);
        assert!(r.log_appended_records > 0);
        assert!(r.log_gcd_bytes > 0, "acked roots must reclaim log bytes");
        assert!(
            r.log_retained_bytes < r.log_appended_bytes,
            "retention must stay below the full stream"
        );
        assert!(r.log_gc_watermark > 0);
        let m = r.metrics();
        assert_eq!(m.counter("dsps.log.gcd_bytes"), Some(r.log_gcd_bytes));
        assert!(m.gauge("dsps.log.retained_bytes").is_some());
        assert!(m.gauge("dsps.log.gc_watermark").is_some());
    }

    #[test]
    fn unlogged_runs_report_zero_log_counters() {
        let (t, ops) = ack_topology(20, 2);
        let r = run_topology(
            t,
            ops,
            LiveConfig {
                machines: 2,
                ack: Some(AckConfig::default()),
                ..LiveConfig::default()
            },
        );
        assert_eq!(r.outcome, RunOutcome::Clean);
        assert_eq!(r.log_appended_records, 0);
        assert_eq!(r.log_replayed_records, 0);
        assert_eq!(r.log_retained_bytes, 0);
    }
}
