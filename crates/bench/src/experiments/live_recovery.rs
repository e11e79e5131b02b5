//! E26 — crash recovery and late-subscriber backfill from the partition
//! log.
//!
//! Four cell families, one report:
//!
//! * **Crash + restart, log-recovered** (one per transport): the real
//!   threaded runtime with the XOR acker, a write-ahead
//!   [`LogConfig`]-driven partition log, and a fault plan that crashes a
//!   worker endpoint mid-run and restarts it a few frames later. The
//!   acker timeout is set far past the run length, so the only thing
//!   that can heal the crashed window is the log replay — every cell
//!   asserts `acked + failed == emitted` with `failed == 0`,
//!   `log_replayed_records > 0`, and `tuples_replayed == 0` (the acker's
//!   replay budget is never spent).
//! * **Crash + restart, acker baseline**: the same fault plan without a
//!   log — recovery rides acker-timeout replays. The sweep asserts the
//!   log cells spend no more acker replays than this baseline (they
//!   spend none at all).
//! * **Late subscriber**: a net-level [`OneSidedFabric`] with per-link
//!   logs publishes a stream, the live consumer drains it, and a reader
//!   that attaches *after* the fact backfills the whole history with
//!   [`OneSidedFabric::backfill`] — one-sided reads of the sender's log
//!   region. The cell asserts the backfill appends nothing to the
//!   sender's log, and prices that count with the simulator's cost of
//!   posting an RDMA WRITE: zero sender CPU.
//! * **Bounded retention** and **torn tail**: a sustained acked run with
//!   tiny log segments whose watermark GC reclaims every byte by
//!   shutdown (retention flat, nothing left resident), and a persisted
//!   log image truncated mid-record that recovers to the last complete
//!   record with a counted torn tail instead of a panic.
//!
//! Thread scheduling perturbs replay/GC *counts*, so emitted rows carry
//! only run-invariant fields (variable counts are asserted as invariants
//! and surfaced as booleans); `results/live_recovery.json` and
//! `BENCH_recovery.json` are byte-identical across same-seed reruns.

use super::cell::{fabric_kinds, fabric_name, run_cell, CellOutcome, CellSpec, Expect};
use super::Output;
use crate::{object, Scale, Table};
use std::time::Duration;
use whale_dsps::{AckConfig, LogConfig};
use whale_net::{
    EndpointCrash, EndpointId, EndpointRestart, FabricKind, FabricPath, FaultPlan, OneSidedConfig,
    OneSidedFabric, PartitionLog,
};
use whale_sim::{CostModel, JsonValue, Transport, Verb};

/// Simulated worker processes per crash cell.
const MACHINES: u32 = 4;

/// One recovery cell. Every field is a pure function of the cell's
/// inputs, so rows render identically across reruns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryPoint {
    /// Cell family (`crash_restart_log`, `crash_restart_acker`,
    /// `late_subscriber`, `bounded_retention`, `torn_tail`).
    pub cell: &'static str,
    /// Transport (or storage source) under test.
    pub fabric: &'static str,
    /// Tuples emitted (crash/retention cells), frames published (late
    /// subscriber), or records appended (torn tail).
    pub emitted: u64,
    /// Emitted tuples with no final verdict; identically zero.
    pub silent_lost: u64,
    /// Whether the cell's recovery actually replayed records from the
    /// partition log.
    pub log_replayed: bool,
    /// Whether the cell completed without spending the acker's replay
    /// budget (`tuples_replayed == 0`).
    pub acker_replay_free: bool,
    /// Sender CPU nanoseconds spent *during* the late subscriber's
    /// backfill: the records it appended to the sender's log, each priced
    /// as one RDMA WRITE post. Identically zero (one-sided reads only).
    pub backfill_sender_cpu_ns: u64,
    /// Log bytes still resident when the run reported; zero wherever the
    /// acker watermark drives GC.
    pub retained_end_bytes: u64,
    /// Torn tails healed while recovering a persisted log image.
    pub torn_tails: u64,
}

impl RecoveryPoint {
    /// The row of a cell that ran on the live runtime.
    fn of_cell(cell: &'static str, c: &CellOutcome) -> Self {
        RecoveryPoint {
            cell,
            fabric: c.fabric,
            emitted: c.report.spout_emitted,
            silent_lost: c.silent_lost(),
            log_replayed: c.report.log_replayed_records > 0,
            acker_replay_free: c.report.tuples_replayed == 0,
            backfill_sender_cpu_ns: 0,
            retained_end_bytes: c.report.log_retained_bytes,
            torn_tails: c.report.log_torn_tails,
        }
    }

    /// The row as the headline report files it; the table takes the same
    /// values in the same order.
    fn json(&self) -> JsonValue {
        object(&[
            ("cell", &self.cell),
            ("fabric", &self.fabric),
            ("emitted", &self.emitted),
            ("silent_lost", &self.silent_lost),
            ("log_replayed", &self.log_replayed),
            ("acker_replay_free", &self.acker_replay_free),
            ("sender_cpu_during_backfill", &self.backfill_sender_cpu_ns),
            ("retained_end_bytes", &self.retained_end_bytes),
            ("torn_tails", &self.torn_tails),
        ])
    }
}

/// The crash-then-rejoin schedule every crash cell uses: `EndpointId(1)`
/// (the first remote worker) goes dark at its 10th addressed frame and
/// rejoins at its 30th.
fn crash_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xE26,
        crashes: vec![EndpointCrash {
            endpoint: EndpointId(1),
            at_frame: 10,
        }],
        restarts: vec![EndpointRestart {
            endpoint: EndpointId(1),
            at_frame: 30,
        }],
        ..FaultPlan::default()
    }
}

/// Run one crash+restart cell and verify the recovery contract: the
/// crash window rejects sends and the restart lets every tuple recover —
/// from the log without spending the acker's replay budget, or, unlogged,
/// by spending it. Returns the row plus the acker replays the run
/// actually spent (run-variant, compared against the baseline by
/// [`sweep`], kept out of the row).
pub fn measure_crash(scale: Scale, kind: FabricKind, with_log: bool) -> (RecoveryPoint, u64) {
    let ack = if with_log {
        AckConfig {
            // Far past the run length: only the log replay can heal the
            // crashed window, never an acker-timeout replay racing it.
            timeout: Duration::from_secs(10),
            max_replays: 3,
            drain_deadline: Duration::from_secs(30),
            eos_redundancy: 4,
        }
    } else {
        AckConfig {
            // The baseline heals the same window the PR-4 way: short
            // timeout, generous replay budget.
            timeout: Duration::from_millis(40),
            max_replays: 20,
            drain_deadline: Duration::from_secs(30),
            eos_redundancy: 4,
        }
    };
    let cell = if with_log {
        "crash_restart_log"
    } else {
        "crash_restart_acker"
    };
    let label = format!("{cell}/{}", fabric_name(kind));
    let mut spec = CellSpec::tracked(label, scale.pick3(200, 800, 3_000), 2, MACHINES);
    spec.config.fabric = kind;
    spec.config.ack = Some(ack);
    spec.config.fault = Some(crash_plan());
    spec.config.log = with_log.then(LogConfig::default);
    spec.config.run_deadline = Some(Duration::from_secs(15));
    // The restart must let every tuple recover.
    spec.expect = if with_log {
        vec![
            Expect::AllAcked,
            Expect::LogReplays,
            Expect::ReplayFree,
            Expect::LogDrained,
        ]
    } else {
        vec![Expect::AllAcked, Expect::AckerReplays, Expect::Unlogged]
    };
    let c = run_cell(&spec);
    (RecoveryPoint::of_cell(cell, &c), c.report.tuples_replayed)
}

/// Late-subscriber cell: publish a stream over a logged one-sided link,
/// drain it live, then attach a fresh reader and backfill the whole
/// history from sequence 0 — asserting the sender's log gains no record
/// while the backfill runs.
pub fn measure_late_subscriber(scale: Scale) -> RecoveryPoint {
    let frames: u64 = scale.pick3(48, 200, 800);
    let fabric = OneSidedFabric::new(OneSidedConfig {
        ring_slots: 64,
        log: Some(LogConfig::default()),
    });
    let live = fabric
        .register(EndpointId(1))
        .expect("live endpoint registers");
    let mut live_seen = 0u64;
    for i in 0..frames {
        let mut payload = [0u8; 32];
        payload[..8].copy_from_slice(&i.to_le_bytes());
        fabric
            .send_copied(EndpointId(0), EndpointId(1), &payload)
            .expect("outbox ring never fills between fetch passes");
        if i % 16 == 15 {
            fabric.fetch_all();
            while live.try_recv().is_ok() {
                live_seen += 1;
            }
        }
    }
    fabric.fetch_all();
    while live.try_recv().is_ok() {
        live_seen += 1;
    }
    assert_eq!(live_seen, frames, "live consumer must drain the stream");

    // The history now lives only in the log: the ring slots were all
    // consumed. A late reader attaches and fetches it with one-sided
    // reads — the sender appends nothing, so it spends no CPU.
    let late = fabric
        .register(EndpointId(9))
        .expect("late endpoint registers");
    let appended_before = fabric.log_sum(PartitionLog::appended_records);
    let reads_before = fabric.log_sum(PartitionLog::reads_posted);
    let backfilled = fabric
        .backfill(EndpointId(0), EndpointId(1), EndpointId(9), 0)
        .expect("backfill reads the retained history");
    let appended = fabric.log_sum(PartitionLog::appended_records) - appended_before;
    let per_append = CostModel::default().send_cpu(Transport::Rdma, Verb::Write, 0);
    let cpu_during_backfill = appended * per_append.as_nanos();
    assert_eq!(backfilled, frames, "backfill must replay the full history");
    assert_eq!(
        cpu_during_backfill, 0,
        "backfill must never touch the sender's CPU"
    );
    assert_eq!(
        fabric.log_sum(PartitionLog::reads_posted) - reads_before,
        frames,
        "each backfilled record is one one-sided read"
    );
    let mut late_seen = 0u64;
    let mut expect = 0u64;
    while let Ok(msg) = late.try_recv() {
        let mut got = [0u8; 8];
        got.copy_from_slice(&msg.payload.bytes()[..8]);
        assert_eq!(u64::from_le_bytes(got), expect, "backfill keeps log order");
        expect += 1;
        late_seen += 1;
    }
    assert_eq!(late_seen, frames, "the late reader must see every record");

    RecoveryPoint {
        cell: "late_subscriber",
        fabric: "one_sided",
        emitted: frames,
        silent_lost: 0,
        log_replayed: true,
        acker_replay_free: true,
        backfill_sender_cpu_ns: cpu_during_backfill,
        retained_end_bytes: 0,
        torn_tails: 0,
    }
}

/// Bounded-retention cell: a clean tracked run over tiny log segments.
/// The acker watermark reclaims every acked root's records as the run
/// streams, so the log drains to zero resident bytes by shutdown even
/// though the whole stream wrote through it.
pub fn measure_bounded_retention(scale: Scale) -> RecoveryPoint {
    let tuples = scale.pick3(200, 1_000, 4_000);
    let mut spec = CellSpec::tracked("bounded_retention", tuples, 2, 2);
    spec.config.ack = Some(AckConfig {
        timeout: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(30),
        ..AckConfig::default()
    });
    spec.config.log = Some(LogConfig {
        segment_bytes: 256,
        // Far above what the stream needs: the watermark GC, not the
        // segment cap, is what keeps memory flat.
        max_segments: 1 << 20,
    });
    spec.config.run_deadline = Some(Duration::from_secs(15));
    // Retention must drain to zero, not grow with the stream.
    spec.expect = vec![Expect::LogDrained];
    let c = run_cell(&spec);
    let r = &c.report;
    assert!(r.log_appended_records > 0, "the stream must write through");
    assert!(
        r.log_gcd_bytes > 0,
        "acked roots must reclaim log bytes mid-run"
    );
    // `gcd_bytes` counts framed segment bytes (payload + record header),
    // `appended_bytes` counts payload only.
    assert_eq!(
        r.log_gcd_bytes,
        r.log_appended_bytes + whale_net::RECORD_HEADER as u64 * r.log_appended_records,
        "by shutdown the watermark must have reclaimed every byte"
    );
    assert!(r.log_gc_watermark > 0);
    RecoveryPoint::of_cell("bounded_retention", &c)
}

/// Torn-tail cell: persist a log image, truncate it mid-record, and
/// recover — the log comes back holding every complete record, counts
/// exactly one torn tail, and never panics.
pub fn measure_torn_tail() -> RecoveryPoint {
    let config = whale_net::LogConfig {
        segment_bytes: 256,
        max_segments: 1024,
    };
    let mut log = PartitionLog::new(config);
    let records: u64 = 24;
    for i in 0..records {
        log.append(&[i as u8; 24]);
    }
    let snap = log.snapshot();
    // Cut inside the last record's payload: 12-byte header + 24-byte
    // payload means any cut in the final 23 bytes tears it.
    let cut = snap.len() - 7;
    let mut recovered = PartitionLog::recover(config, &snap[..cut]);
    assert_eq!(recovered.torn_tails(), 1, "the cut must surface as a torn tail");
    let read = recovered.read_from(0);
    assert_eq!(
        read.records.len() as u64,
        records - 1,
        "recovery keeps every complete record"
    );
    for (i, (seq, bytes)) in read.records.iter().enumerate() {
        assert_eq!(*seq, i as u64, "recovered seqs stay dense");
        assert_eq!(bytes.as_slice(), &[i as u8; 24], "payloads stay intact");
    }

    RecoveryPoint {
        cell: "torn_tail",
        fabric: "snapshot",
        emitted: records,
        silent_lost: 0,
        log_replayed: true,
        acker_replay_free: true,
        backfill_sender_cpu_ns: 0,
        retained_end_bytes: 0,
        torn_tails: recovered.torn_tails(),
    }
}

/// Measure every cell: the acker baseline, one log-recovered crash cell
/// per transport (asserting none spends more acker replays than the
/// baseline), the late subscriber, bounded retention, and the torn tail.
pub fn sweep(scale: Scale) -> Vec<RecoveryPoint> {
    let mut points = Vec::new();
    let (baseline, baseline_replays) = measure_crash(scale, FabricKind::PerSend, false);
    points.push(baseline);
    for kind in fabric_kinds() {
        let (p, replays) = measure_crash(scale, kind, true);
        assert!(
            replays <= baseline_replays,
            "{}: log recovery spent {replays} acker replays, baseline {baseline_replays}",
            p.fabric
        );
        points.push(p);
    }
    points.push(measure_late_subscriber(scale));
    points.push(measure_bounded_retention(scale));
    points.push(measure_torn_tail());
    points
}

/// Run the recovery sweep: one table row per cell, the same rows as the
/// headline `BENCH_recovery.json`'s acceptance cells.
pub fn run_experiment(scale: Scale) -> Output {
    let points = sweep(scale);
    let mut table = Table::new(
        "live_recovery",
        "Crash recovery and late-subscriber backfill from the partition log",
        &[
            "cell",
            "fabric",
            "emitted",
            "silent_lost",
            "log_replayed",
            "acker_replay_free",
            "backfill_sender_cpu_ns",
            "retained_end_bytes",
            "torn_tails",
        ],
    );
    let rows: Vec<JsonValue> = points.iter().map(RecoveryPoint::json).collect();
    for row in &rows {
        table.row_json(row);
    }
    let log_cells_replay_free = points
        .iter()
        .filter(|p| p.cell == "crash_restart_log")
        .all(|p| p.acker_replay_free && p.log_replayed);
    let headline = object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"recovery"),
        ("experiment", &"live_recovery"),
        ("cells", &points.len()),
        (
            "silent_lost_total",
            &points.iter().map(|p| p.silent_lost).sum::<u64>(),
        ),
        ("log_cells_replay_free", &log_cells_replay_free),
        ("acceptance_cells", &rows),
    ]);
    Output {
        tables: vec![table],
        headline: Some(headline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_cell_recovers_without_acker_replays() {
        let (p, replays) = measure_crash(Scale::Smoke, FabricKind::PerSend, true);
        assert_eq!(p.silent_lost, 0);
        assert!(p.log_replayed);
        assert!(p.acker_replay_free);
        assert_eq!(replays, 0);
    }

    #[test]
    fn acker_baseline_recovers_by_spending_replays() {
        let (p, replays) = measure_crash(Scale::Smoke, FabricKind::PerSend, false);
        assert_eq!(p.silent_lost, 0);
        assert!(!p.log_replayed);
        assert!(replays > 0, "the baseline must ride the acker's budget");
    }

    #[test]
    fn late_subscriber_backfills_with_zero_sender_cpu() {
        let p = measure_late_subscriber(Scale::Smoke);
        assert_eq!(p.backfill_sender_cpu_ns, 0);
        assert!(p.log_replayed);
        assert_eq!(p.emitted, 48);
    }

    #[test]
    fn retention_drains_to_zero_under_sustained_load() {
        let p = measure_bounded_retention(Scale::Smoke);
        assert_eq!(p.retained_end_bytes, 0);
        assert_eq!(p.silent_lost, 0);
    }

    #[test]
    fn torn_tail_recovers_to_the_last_complete_record() {
        let p = measure_torn_tail();
        assert_eq!(p.torn_tails, 1);
        assert_eq!(p.silent_lost, 0);
    }
}
