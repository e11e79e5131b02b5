//! At-least-once delivery and crash recovery: tracked-id and anchor
//! arithmetic, the acker wiring ([`AckRuntime`]), and the write-ahead
//! partition logs with their GC/replay thread ([`LogRuntime`]).

use super::config::AckConfig;
use super::control::sleep_with_stop;
use super::send::Routing;
use super::wire::Wire;
use crate::acker::Acker;
use crate::task::TaskId;
use crate::tuple::Tuple;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whale_net::{EndpointId, FaultFabric, IdHashMap, LogConfig, PartitionLog};
use whale_sim::{SimDuration, SimTime};

/// Tracked ids pack a replay attempt above [`ROOT_BITS`] bits of root id,
/// so every replay re-registers under a fresh ledger key while sinks
/// dedup on the stable root.
pub(super) const ROOT_BITS: u32 = 48;
pub(super) const ROOT_MASK: u64 = (1 << ROOT_BITS) - 1;

/// The root id a tracked id belongs to (stable across replays).
pub(super) fn root_of(tracked: u64) -> u64 {
    tracked & ROOT_MASK
}

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
    pub(super) acker: Mutex<Acker>,
    /// Wall-clock epoch backing the acker's [`SimTime`] clock.
    epoch: Instant,
    /// Next root id (roots stay below `2^ROOT_BITS`).
    pub(super) next_root: AtomicU64,
    /// Roots fully delivered (ledger hit zero, observed by their spout).
    pub(super) acked: AtomicU64,
    /// Roots given up on after the replay budget or drain deadline.
    pub(super) failed: AtomicU64,
    /// Replay emissions performed.
    pub(super) replayed: AtomicU64,
    /// Duplicate deliveries suppressed at executors (same root seen
    /// again: a replay that raced the original, or a duplicated frame).
    pub(super) dedup_dropped: AtomicU64,
}

impl AckRuntime {
    pub(super) fn new(config: AckConfig) -> Self {
        let timeout = SimDuration::from_nanos((config.timeout.as_nanos() as u64).max(1));
        AckRuntime {
            config,
            acker: Mutex::new(Acker::new(timeout)),
            epoch: Instant::now(),
            next_root: AtomicU64::new(1),
            acked: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            dedup_dropped: AtomicU64::new(0),
        }
    }

    /// Now on the acker's clock.
    pub(super) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// The per-run partition-log machinery (see [`super::LiveConfig::log`]): one
/// write-ahead [`PartitionLog`] per flat destination endpoint, an
/// acknowledgement-driven GC watermark, and replay counters.
pub(super) struct LogRuntime {
    /// One log per flat fabric endpoint, indexed by endpoint id.
    logs: Vec<Mutex<PartitionLog>>,
    /// Per-endpoint FIFO of `(seq, root)` for tracked appends. The GC
    /// watermark advances over the prefix whose roots have resolved.
    pending: Vec<Mutex<VecDeque<(u64, u64)>>>,
    /// Roots whose ledger resolved — acked, replay budget exhausted, or
    /// force-failed at the drain deadline. Their log records are dead
    /// weight: replaying them is at worst a dedup-dropped duplicate.
    resolved: Mutex<HashSet<u64>>,
    /// Records re-sent from the log after an endpoint restart.
    pub(super) replayed_records: AtomicU64,
    /// Bytes re-sent from the log after an endpoint restart.
    pub(super) replayed_bytes: AtomicU64,
}

impl LogRuntime {
    pub(super) fn new(config: LogConfig, n_flat: usize) -> Self {
        LogRuntime {
            logs: (0..n_flat)
                .map(|_| Mutex::new(PartitionLog::new(config)))
                .collect(),
            pending: (0..n_flat).map(|_| Mutex::new(VecDeque::new())).collect(),
            resolved: Mutex::new(HashSet::new()),
            replayed_records: AtomicU64::new(0),
            replayed_bytes: AtomicU64::new(0),
        }
    }

    /// Write one encoded frame through the destination's log (called
    /// before the fabric send). Endpoints outside the data range (switch
    /// protocol endpoints sit above it) are not logged.
    pub(super) fn append(&self, to: EndpointId, tracked: Option<u64>, bytes: &[u8]) {
        let Some(log) = self.logs.get(to.0 as usize) else {
            return;
        };
        let seq = log.lock().append(bytes);
        if let Some(tr) = tracked {
            self.pending[to.0 as usize]
                .lock()
                .push_back((seq, root_of(tr)));
        }
    }

    /// Mark a root's ledger resolved, unblocking log GC past its records.
    pub(super) fn note_resolved(&self, root: u64) {
        self.resolved.lock().insert(root);
    }

    /// One GC pass: per endpoint, advance the watermark over the
    /// resolved prefix of tracked appends and truncate the log to it.
    pub(super) fn gc_pass(&self) {
        let resolved = self.resolved.lock();
        for (idx, pend) in self.pending.iter().enumerate() {
            let mut pend = pend.lock();
            let mut watermark = None;
            while let Some(&(seq, root)) = pend.front() {
                if !resolved.contains(&root) {
                    break;
                }
                watermark = Some(seq + 1);
                pend.pop_front();
            }
            if let Some(wm) = watermark {
                self.logs[idx].lock().truncate_to(wm);
            }
        }
    }

    /// Sum a per-endpoint log counter over every endpoint.
    pub(super) fn sum(&self, f: impl Fn(&PartitionLog) -> u64) -> u64 {
        self.logs.iter().map(|l| f(&l.lock())).sum()
    }

    pub(super) fn gc_watermark(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.lock().gc_watermark())
            .max()
            .unwrap_or(0)
    }
}

/// The log GC/replay thread (see [`super::LiveConfig::log`]). Two duties, both
/// polled on a short interval: advance each endpoint's log GC watermark
/// over the resolved-root prefix (acker feedback keeps retention flat),
/// and watch injected crash+restart pairs — when the fault layer reports
/// an endpoint restarted, its log slice is replayed from the oldest
/// retained record. Replayed frames go straight to the fabric (one
/// modeled one-sided READ per record against the log's registered
/// region), bypassing `transmit` so they are not re-logged, and root-id
/// dedup at executors absorbs overlap with in-flight acker replays.
pub(super) fn log_recovery_loop(
    routing: &Routing,
    fault: Option<&FaultFabric>,
    n_flat: usize,
    stop: &AtomicBool,
) {
    let log = routing.log.as_ref().expect("recovery thread implies logs");
    // Crash+restart pairs from the injected plan: data endpoints that
    // will come back and need their slice replayed exactly once.
    let mut awaiting: Vec<EndpointId> = routing
        .config
        .fault
        .as_ref()
        .map(|plan| {
            plan.crashes
                .iter()
                .filter(|c| (c.endpoint.0 as usize) < n_flat)
                .filter(|c| {
                    plan.restarts
                        .iter()
                        .any(|r| r.endpoint == c.endpoint && r.at_frame > c.at_frame)
                })
                .map(|c| c.endpoint)
                .collect()
        })
        .unwrap_or_default();
    loop {
        log.gc_pass();
        if let Some(fault) = fault {
            awaiting.retain(|&ep| {
                if !fault.restarted(ep) {
                    return true;
                }
                replay_endpoint(routing, ep);
                false
            });
        }
        if !sleep_with_stop(Duration::from_millis(1), stop) {
            // One final pass so the report's retained-bytes gauge
            // reflects the end-of-run watermark.
            log.gc_pass();
            return;
        }
    }
}

/// Replay everything a restarted endpoint's log still retains. The read
/// is priced as one-sided READs inside [`PartitionLog::read_from`]; the
/// re-sends cross the fault wrapper, which accepts them now that the
/// endpoint is back.
pub(super) fn replay_endpoint(routing: &Routing, ep: EndpointId) {
    let log = routing.log.as_ref().expect("replay implies logs");
    let read = {
        let mut l = log.logs[ep.0 as usize].lock();
        let start = l.first_seq();
        l.read_from(start)
    };
    for (_seq, bytes) in read.records {
        let n = bytes.len() as u64;
        let buf: Arc<[u8]> = Arc::from(bytes.into_boxed_slice());
        if routing.send_wire(ep, ep, Wire::Shared(&buf), None) {
            log.replayed_records.fetch_add(1, Ordering::Relaxed);
            log.replayed_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Drop roots the acker no longer tracks, counting them as acked. Only
/// acks can remove entries outside the drain loop (expiry is driven by
/// the owning spout), so anything gone from the acker completed. An
/// acked root is also reported to the partition log as resolved,
/// advancing the log's GC watermark past its records.
pub(super) fn prune_completed(
    routing: &Routing,
    ack: &AckRuntime,
    pending: &mut IdHashMap<u64, (Tuple, u32)>,
) {
    let acker = ack.acker.lock();
    let before = pending.len();
    pending.retain(|id, _| {
        if acker.contains(*id) {
            return true;
        }
        if let Some(log) = &routing.log {
            log.note_resolved(root_of(*id));
        }
        false
    });
    ack.acked
        .fetch_add((before - pending.len()) as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use whale_net::{EndpointId, FaultPlan, LogConfig};

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
                        ..AckConfig::default()
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
                    ..AckConfig::default()
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
                    ..AckConfig::default()
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
                    rack_hops: 0,
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
