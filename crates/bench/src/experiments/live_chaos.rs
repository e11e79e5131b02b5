//! E21 — live chaos: at-least-once delivery under injected faults.
//!
//! Runs the real threaded dsps runtime (spouts, dispatchers, executors
//! over a live fabric) with the XOR acker enabled and the fabric wrapped
//! in a seeded [`FaultPlan`]: a sweep of silent drop rates × fan-out ×
//! transport kind, plus one acceptance cell per transport that combines
//! 10 % drops with an endpoint crash mid-run. Every cell asserts the
//! at-least-once contract — `acked + failed == emitted`, so no tuple is
//! ever *silently* lost — and that the run terminates within its
//! deadline instead of livelocking on retries.
//!
//! Fault decisions are pure hashes of `(seed, link, attempt)`, so a cell
//! is deterministic in its inputs; the emitted JSON carries only
//! run-invariant fields (thread scheduling perturbs replay/duplicate
//! *counts*, which are asserted as invariants but kept out of the rows),
//! making `results/live_chaos.json` byte-identical across reruns.

use super::cell::{fabric_name, run_cell, tracked_ack, CellOutcome, CellSpec, Expect};
use super::Output;
use crate::{object, Scale, Table};
use std::time::Duration;
use whale_dsps::AckConfig;
use whale_net::{EndpointCrash, EndpointId, FabricKind, FaultPlan, RingConfig};
use whale_sim::JsonValue;

/// Simulated worker processes per cell.
const MACHINES: u32 = 4;

/// The transports each cell is run over.
pub fn fabric_kinds() -> [FabricKind; 2] {
    [FabricKind::PerSend, FabricKind::Ring(RingConfig::default())]
}

/// Drop rates swept (percent).
pub const DROP_PCTS: [u32; 3] = [0, 10, 25];

/// Fan-outs swept.
pub const FANOUTS: [u32; 2] = [2, 4];

/// The columns of a chaos row. Every one is a pure function of the
/// cell's inputs, so rows render identically across reruns.
const COLUMNS: [&str; 7] = [
    "fabric",
    "drop_pct",
    "fanout",
    "machines",
    "crash",
    "emitted",
    "silent_lost",
];

/// Run one chaos cell and verify the at-least-once contract.
pub fn measure(
    scale: Scale,
    kind: FabricKind,
    drop_pct: u32,
    fanout: u32,
    crash: bool,
) -> CellOutcome {
    let label = fabric_name(kind);
    // Seed mixes the cell coordinates so no two cells share a fault
    // schedule, while reruns of the same cell replay it exactly.
    let seed = 0xC4A0_5000
        + drop_pct as u64 * 101
        + fanout as u64 * 17
        + crash as u64 * 7
        + (label.len() as u64);
    let mut plan = FaultPlan::uniform_drops(seed, drop_pct as f64 / 100.0);
    if crash {
        plan.crashes.push(EndpointCrash {
            endpoint: EndpointId(1),
            at_frame: 10,
        });
    }
    let label = format!("{label} drop={drop_pct}% fanout={fanout} crash={crash}");
    let mut cell = CellSpec::tracked(label, scale.pick3(200, 1_000, 5_000), fanout, MACHINES);
    cell.config.fabric = kind;
    cell.config.ack = Some(AckConfig {
        timeout: Duration::from_millis(40),
        // A crashed endpoint never acks, so keep its replay budget small;
        // pure drops deserve enough budget to always get through.
        max_replays: if crash { 3 } else { 20 },
        eos_redundancy: 4,
        ..tracked_ack()
    });
    cell.config.fault = Some(plan);
    if crash {
        // Tuples routed at the dead endpoint must fail.
        cell.expect.push(Expect::SomeFail);
    }
    run_cell(&cell)
}

/// Measure the full sweep: drops × fan-out per transport, plus the
/// 10 %-drops-and-a-crash acceptance cell per transport.
pub fn sweep(scale: Scale) -> Vec<CellOutcome> {
    let mut points = Vec::new();
    for kind in fabric_kinds() {
        for &drop_pct in &DROP_PCTS {
            for &fanout in &FANOUTS {
                points.push(measure(scale, kind, drop_pct, fanout, false));
            }
        }
        points.push(measure(scale, kind, 10, 2, true));
    }
    points
}

/// Run the chaos sweep: one table row per cell, and the headline
/// `BENCH_chaos.json` (its acceptance cells are the crash cells).
pub fn run_experiment(scale: Scale) -> Output {
    let points = sweep(scale);
    let mut table = Table::new(
        "live_chaos",
        "Live chaos: at-least-once delivery under injected drops and crashes",
        &COLUMNS,
    );
    for p in &points {
        table.row_json(&p.json(&COLUMNS));
    }
    let acceptance: Vec<JsonValue> = points
        .iter()
        .filter(|p| p.crash)
        .map(|p| p.json(&["fabric", "drop_pct", "fanout", "emitted", "silent_lost"]))
        .collect();
    let headline = object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"chaos"),
        ("experiment", &"live_chaos"),
        ("cells", &points.len()),
        (
            "max_drop_pct",
            &points.iter().map(|p| p.drop_pct).max().unwrap_or(0),
        ),
        (
            "silent_lost_total",
            &points.iter().map(CellOutcome::silent_lost).sum::<u64>(),
        ),
        ("acceptance_cells", &acceptance),
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
    fn clean_cell_acks_everything() {
        let p = measure(Scale::Smoke, FabricKind::PerSend, 0, 2, false);
        assert_eq!(p.silent_lost(), 0);
        assert_eq!(p.report.spout_emitted, 200);
    }

    #[test]
    fn drops_never_cause_silent_loss() {
        for kind in fabric_kinds() {
            let p = measure(Scale::Smoke, kind, 25, 2, false);
            assert_eq!(p.silent_lost(), 0, "{}", p.fabric);
        }
    }

    #[test]
    fn crash_cell_terminates_and_accounts_for_every_tuple() {
        let start = std::time::Instant::now();
        let p = measure(Scale::Smoke, FabricKind::PerSend, 10, 2, true);
        assert_eq!(p.silent_lost(), 0);
        assert!(p.crash);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "crash cell must terminate promptly"
        );
    }
}
