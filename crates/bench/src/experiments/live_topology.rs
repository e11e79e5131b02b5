//! E27 — live topology: congestion- and topology-aware multicast trees
//! vs Whale's placement-oblivious d* tree and the binomial baseline.
//!
//! Two layers, one report:
//!
//! * **Model sweep** (deterministic): racks {1, 2, 5} × a skewed,
//!   interleaved destination placement × a λ ramp. Each cell builds the
//!   rack-aware tree (`TopoTreeBuilder` at the controller's `d*(λ)`),
//!   Whale's oblivious `build_nonblocking` at the same `d*`, and the
//!   RDMC binomial tree, then prices all three on the uplink-serialized
//!   cost model (`tree_cost`): intra-rack hops are cheap and parallel,
//!   rack crossings FIFO-queue on their egress rack's uplink. The
//!   rack-aware tree enters each destination rack exactly once, so on
//!   the skewed 5-rack cell it wins on *both* modeled completion
//!   latency and uplink crossings.
//! * **Live byte cells** (deterministic): the real threaded runtime on
//!   a skewed rack map, per-send fabric, no faults, no mid-run
//!   switches, untracked — so delivered frames and therefore per-link
//!   byte counts are exact and rerun-identical. Each racks>1 pair
//!   (rack-aware vs oblivious trees under the *same* topology) must
//!   show fewer measured uplink bytes for the rack-aware tree, and
//!   per-link sums must tile the wire total. A separate acked
//!   acceptance cell (replay counts are scheduling-dependent) reports
//!   only run-invariant booleans: no silent loss across a mid-stream
//!   switch on the 5-rack skew.
//!
//! Emits `results/live_topology.{csv,json}` and the headline
//! `BENCH_topology.json`; both are byte-identical across reruns.

use super::cell::{cells_json, run_cell, tracked_ack, CellOutcome, CellSpec, Expect, Workload};
use super::live_adaptive::planned_d;
use super::Output;
use crate::{object, Scale, Table};
use std::time::Duration;
use whale_dsps::{AdaptiveConfig, LiveConfig};
use whale_multicast::{build_binomial, build_nonblocking, tree_cost, TopoTreeBuilder, TreeCost};
use whale_net::{FabricKind, TopologyConfig};
use whale_sim::JsonValue;

/// Per-destination serialization time (µs), matching the live
/// controller's `T_E_DEFAULT` (and E22's planner, whose `d*(λ)` the
/// sweep reuses).
const T_E_US: f64 = 20.0;

/// Modeled one-hop latency within a rack (µs).
const T_INTRA_US: f64 = 5.0;

/// Modeled uplink occupancy per crossing (µs) — crossings serialize on
/// their egress rack's uplink.
const T_UPLINK_US: f64 = 40.0;

/// Workers in the modeled cluster (trees span `WORKERS - 1` dests).
const WORKERS: u32 = 24;

/// Worker processes in every live cell.
const MACHINES: u32 = 10;

/// Rack counts swept by the model.
pub const RACKS: [u32; 3] = [1, 2, 5];

/// λ ramp (tuples/s): low → mid → saturating, driving `d*` 8 → 4 → 1.
pub const LAMBDA_RAMP: [f64; 3] = [4_000.0, 12_000.0, 45_000.0];

/// The headline acceptance cell: 5 racks at the mid-ramp λ.
pub const HEADLINE_RACKS: u32 = 5;
/// Headline arrival rate.
pub const HEADLINE_LAMBDA: f64 = 12_000.0;

/// Skewed, *interleaved* destination placement: roughly a third of the
/// destinations are scattered across the remote racks in between the
/// hot rack's — the adversarial layout a placement-oblivious tree
/// crosses over and over while the rack-aware tree still enters each
/// remote rack exactly once.
pub fn skewed_dest_racks(racks: u32, n: u32) -> Vec<u32> {
    (0..n)
        .map(|i| {
            if racks > 1 && i % 3 == 2 {
                1 + (i / 3) % (racks - 1)
            } else {
                0
            }
        })
        .collect()
}

/// One (racks, λ, structure) cell of the model sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ModelPoint {
    /// Rack count of the cell.
    pub racks: u32,
    /// `topo`, `whale` or `binomial`.
    pub structure: &'static str,
    /// Offered arrival rate λ (tuples/s).
    pub lambda: f64,
    /// Out-degree of the structure in this cell.
    pub d: u32,
    /// Priced on the uplink-serialized model.
    pub cost: TreeCost,
}

/// Price one structure on one cell.
fn model_point(racks: u32, lambda: f64, structure: &'static str) -> ModelPoint {
    let n = WORKERS - 1;
    let node_racks = skewed_dest_racks(racks, n);
    let d = planned_d(lambda);
    let (tree, d) = match structure {
        "topo" => (
            TopoTreeBuilder::new(d, 0, node_racks.clone()).build(),
            d,
        ),
        "whale" => (build_nonblocking(n, d), d),
        "binomial" => {
            let t = build_binomial(n);
            let src_deg = whale_multicast::binomial_source_degree(n);
            (t, src_deg)
        }
        other => unreachable!("unknown structure {other}"),
    };
    let cost = tree_cost(&tree, 0, &node_racks, T_E_US, T_INTRA_US, T_UPLINK_US);
    ModelPoint {
        racks,
        structure,
        lambda,
        d,
        cost,
    }
}

/// The full model sweep: racks × λ ramp × three structures.
pub fn model_sweep() -> Vec<ModelPoint> {
    let mut points = Vec::new();
    for &racks in &RACKS {
        for &lambda in &LAMBDA_RAMP {
            for structure in ["topo", "whale", "binomial"] {
                points.push(model_point(racks, lambda, structure));
            }
        }
    }
    points
}

/// Find one cell of the sweep.
pub fn cell<'a>(
    points: &'a [ModelPoint],
    racks: u32,
    lambda: f64,
    structure: &str,
) -> &'a ModelPoint {
    points
        .iter()
        .find(|p| p.racks == racks && p.lambda == lambda && p.structure == structure)
        .expect("cell present")
}

/// Skewed machine → rack map for `machines` workers: remote racks get
/// one machine each, interleaved with the hot rack's.
pub fn skewed_rack_map(racks: u32, machines: u32) -> Vec<u32> {
    (0..machines)
        .map(|m| {
            if racks > 1 && m % 2 == 1 && m / 2 < racks - 1 {
                1 + m / 2
            } else {
                0
            }
        })
        .collect()
}

/// A relay cell on the skewed rack map: 10 machines, 16-way fan-out,
/// per-send fabric, zero-copy, first tree generation at `d* = 2`.
fn live_cell(scale: Scale, label: String, gap: Duration, adaptive: AdaptiveConfig) -> CellSpec {
    CellSpec {
        label,
        tuples: scale.pick3(120, 400, 1_200),
        fanout: 16,
        gap,
        workload: Workload::COUNTER,
        config: LiveConfig {
            machines: MACHINES,
            zero_copy: true,
            fabric: FabricKind::PerSend,
            multicast_d_star: Some(2),
            multicast_adaptive: Some(adaptive),
            ..LiveConfig::default()
        },
        expect: vec![Expect::RelayActive],
    }
}

/// Run one untracked, fault-free, switch-free cell — rack-aware trees
/// (`topo_trees`) or Whale's oblivious trees under the same per-link
/// accounting — and check the link counters. Everything on this path is
/// deterministic, so the `wire_bytes` (`copied + shared`) and
/// `uplink_bytes` it reports are identical across reruns.
pub fn measure_bytes(scale: Scale, racks: u32, topo_trees: bool) -> CellOutcome {
    let adaptive = AdaptiveConfig {
        // No mid-run switches: one tree generation end to end.
        interval: Duration::from_secs(60),
        topology: Some(TopologyConfig {
            racks,
            rack_of_machine: Some(skewed_rack_map(racks, MACHINES)),
            topo_trees,
        }),
        ..AdaptiveConfig::default()
    };
    let label = format!("racks={racks} topo_trees={topo_trees}");
    let c = run_cell(&live_cell(scale, label, Duration::ZERO, adaptive));
    let r = &c.report;
    assert_eq!(r.executed[1], r.spout_emitted * 16, "every broadcast lands");
    let linked: u64 = r.link_bytes.iter().map(|(_, b)| b).sum();
    assert_eq!(
        linked,
        r.copied_bytes + r.shared_bytes,
        "per-link sums must tile the wire total"
    );
    if racks > 1 {
        assert!(r.uplink_bytes > 0, "cross-rack traffic must register");
    } else {
        assert_eq!(r.uplink_bytes, 0, "one rack has no uplink traffic");
    }
    c
}

/// Every deterministic byte cell as its report row, with the rack-aware
/// tree required to move strictly fewer uplink bytes than the oblivious
/// tree wherever an uplink exists.
pub fn byte_cells(scale: Scale) -> Vec<JsonValue> {
    let mut cells = Vec::new();
    for &racks in &RACKS {
        let topo = measure_bytes(scale, racks, true).report;
        let oblivious = measure_bytes(scale, racks, false).report;
        if racks > 1 {
            assert!(
                topo.uplink_bytes < oblivious.uplink_bytes,
                "racks={racks}: rack-aware trees must economize the uplink \
                 ({} vs {})",
                topo.uplink_bytes,
                oblivious.uplink_bytes
            );
        } else {
            assert_eq!(topo.uplink_bytes, 0);
            assert_eq!(
                topo.copied_bytes + topo.shared_bytes,
                oblivious.copied_bytes + oblivious.shared_bytes,
                "one rack: the builders produce the same tree"
            );
        }
        for (topo_trees, r) in [(true, topo), (false, oblivious)] {
            cells.push(object(&[
                ("racks", &racks),
                ("topo_trees", &topo_trees),
                ("wire_bytes", &(r.copied_bytes + r.shared_bytes)),
                ("uplink_bytes", &r.uplink_bytes),
            ]));
        }
    }
    cells
}

/// Acked run on the 5-rack skew with a forced mid-stream switch: the
/// XOR acker must account for every tuple across the topo-aware epoch
/// handoff. Reports run-invariant booleans only (replay and forward
/// counts are scheduling-dependent).
pub fn measure_acked(scale: Scale) -> CellOutcome {
    let tuples: u64 = scale.pick3(120, 400, 1_200);
    let adaptive = AdaptiveConfig {
        interval: Duration::from_millis(1),
        forced_switches: vec![(tuples / 3, 4)],
        topology: Some(TopologyConfig {
            racks: HEADLINE_RACKS,
            rack_of_machine: Some(skewed_rack_map(HEADLINE_RACKS, MACHINES)),
            ..TopologyConfig::default()
        }),
    };
    let mut spec = live_cell(
        scale,
        "acked".to_string(),
        Duration::from_micros(100),
        adaptive,
    );
    spec.config.multicast_d_star = Some(1);
    spec.config.ack = Some(tracked_ack());
    spec.config.run_deadline = Some(Duration::from_secs(10));
    spec.expect.push(Expect::Switched);
    run_cell(&spec)
}

/// Build the model-sweep result table.
fn table_from_points(points: &[ModelPoint]) -> Table {
    Table::of(
        "live_topology",
        "Rack-aware vs oblivious multicast trees on skewed placements (modeled)",
        points,
        &[
            ("racks", |p| p.racks.to_string()),
            ("structure", |p| p.structure.to_string()),
            ("lambda", |p| format!("{:.0}", p.lambda)),
            ("d", |p| p.d.to_string()),
            ("completion_us", |p| format!("{:.1}", p.cost.completion_us)),
            ("uplink_edges", |p| p.cost.uplink_edges.to_string()),
            ("depth", |p| p.cost.max_depth.to_string()),
        ],
    )
}

/// Headline summary written as the top-level `BENCH_topology.json`.
/// Schema-stable and byte-identical across same-scale reruns.
fn summary_json(points: &[ModelPoint], bytes: Vec<JsonValue>, acked: &[CellOutcome]) -> JsonValue {
    let topo = &cell(points, HEADLINE_RACKS, HEADLINE_LAMBDA, "topo").cost;
    let whale = &cell(points, HEADLINE_RACKS, HEADLINE_LAMBDA, "whale").cost;
    let binomial = &cell(points, HEADLINE_RACKS, HEADLINE_LAMBDA, "binomial").cost;
    let acked = cells_json(
        acked,
        &["emitted", "silent_lost", "switched", "relay_active"],
    );
    object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"topology"),
        ("experiment", &"live_topology"),
        ("headline_racks", &HEADLINE_RACKS),
        ("headline_lambda", &HEADLINE_LAMBDA),
        ("topo_completion_us", &topo.completion_us),
        ("whale_completion_us", &whale.completion_us),
        ("binomial_completion_us", &binomial.completion_us),
        ("topo_uplink_edges", &topo.uplink_edges),
        ("whale_uplink_edges", &whale.uplink_edges),
        ("binomial_uplink_edges", &binomial.uplink_edges),
        (
            "speedup_vs_whale",
            &(whale.completion_us / topo.completion_us),
        ),
        (
            "speedup_vs_binomial",
            &(binomial.completion_us / topo.completion_us),
        ),
        ("byte_cells", &bytes),
        ("acked_cells", &acked),
    ])
}

/// Run the model sweep, assert the acceptance margins, run the live
/// cells, and return the result table and the headline report.
pub fn run_experiment(scale: Scale) -> Output {
    let points = model_sweep();

    // Headline: the rack-aware tree must beat *both* baselines on *both*
    // axes on the skewed 5-rack cell.
    let topo = cell(&points, HEADLINE_RACKS, HEADLINE_LAMBDA, "topo");
    for base in ["whale", "binomial"] {
        let b = cell(&points, HEADLINE_RACKS, HEADLINE_LAMBDA, base);
        assert!(
            topo.cost.completion_us < b.cost.completion_us,
            "topo ({:.1}µs) must complete before {base} ({:.1}µs)",
            topo.cost.completion_us,
            b.cost.completion_us
        );
        assert!(
            topo.cost.uplink_edges < b.cost.uplink_edges,
            "topo ({} crossings) must cross racks less than {base} ({})",
            topo.cost.uplink_edges,
            b.cost.uplink_edges
        );
    }

    for p in points.iter().filter(|p| p.structure == "topo") {
        // Rack-aware trees never cross more than the oblivious tree
        // anywhere in the sweep (equality allowed off-headline: on tiny
        // remote racks both may reach the one-entry floor)…
        let whale = cell(&points, p.racks, p.lambda, "whale");
        assert!(p.cost.uplink_edges <= whale.cost.uplink_edges);
        // …and every remote rack costs exactly one crossing.
        let expect = p.racks.saturating_sub(1);
        assert_eq!(p.cost.uplink_edges, expect, "one entry per remote rack");
    }

    // One rack: the builder collapses to Algorithm 1, identical cost.
    for &lambda in &LAMBDA_RAMP {
        assert_eq!(
            cell(&points, 1, lambda, "topo").cost,
            cell(&points, 1, lambda, "whale").cost,
            "single-rack topo tree must price exactly like Whale's"
        );
    }

    let acked = [measure_acked(scale)];
    Output {
        tables: vec![table_from_points(&points)],
        headline: Some(summary_json(&points, byte_cells(scale), &acked)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_cell_beats_both_baselines_on_both_axes() {
        // `run_experiment` carries the assertions; this pins the margin.
        let points = model_sweep();
        let topo = cell(&points, HEADLINE_RACKS, HEADLINE_LAMBDA, "topo");
        let whale = cell(&points, HEADLINE_RACKS, HEADLINE_LAMBDA, "whale");
        assert!(topo.cost.completion_us < whale.cost.completion_us);
        assert!(topo.cost.uplink_edges < whale.cost.uplink_edges);
    }

    #[test]
    fn skewed_maps_touch_every_rack() {
        for &racks in &RACKS {
            let dest = skewed_dest_racks(racks, WORKERS - 1);
            let map = skewed_rack_map(racks, 10);
            for r in 0..racks {
                assert!(dest.contains(&r), "dest racks miss {r}");
                assert!(map.contains(&r), "machine map misses {r}");
            }
            assert!(
                dest.iter().filter(|&&r| r == 0).count() * 2 > dest.len(),
                "rack 0 stays the hot rack"
            );
        }
    }

    #[test]
    fn live_byte_cells_prefer_the_uplink_economizing_tree() {
        // `byte_cells` itself asserts topo < oblivious per rack count;
        // smoke-run the 5-rack pair here.
        let bytes = |topo_trees| {
            let r = measure_bytes(Scale::Smoke, 5, topo_trees).report;
            (r.copied_bytes + r.shared_bytes, r.uplink_bytes)
        };
        let (topo, oblivious) = (bytes(true), bytes(false));
        assert!(topo.1 > 0);
        assert!(topo.1 < oblivious.1);
        // Deterministic: the same cell re-measures byte-identically.
        assert_eq!(topo, bytes(true));
    }
}
