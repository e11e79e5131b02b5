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

use crate::{Scale, Table};
use std::time::Duration;
use whale_dsps::{
    run_topology, AckConfig, AdaptiveConfig, Emitter, FnBolt, Grouping, IterSpout, LiveConfig,
    Operators, RunOutcome, Schema, Topology, TopologyBuilder, Tuple, Value,
};
use whale_multicast::{build_binomial, build_nonblocking, tree_cost, TopoTreeBuilder, TreeCost};
use whale_net::{FabricKind, TopologyConfig};
use whale_sim::cost::mdone;
use whale_sim::JsonValue;

/// Per-destination serialization time (µs), matching the live
/// controller's `t_e_default`.
const T_E_US: f64 = 20.0;

/// Modeled one-hop latency within a rack (µs).
const T_INTRA_US: f64 = 5.0;

/// Modeled uplink occupancy per crossing (µs) — crossings serialize on
/// their egress rack's uplink.
const T_UPLINK_US: f64 = 40.0;

/// Transfer-queue capacity Q for the M/D/1 `d*`.
const Q: usize = 1024;

/// Degree ceiling the planner may pick.
const MAX_D: u32 = 8;

/// Workers in the modeled cluster (trees span `WORKERS - 1` dests).
const WORKERS: u32 = 24;

/// Rack counts swept by the model.
pub const RACKS: [u32; 3] = [1, 2, 5];

/// λ ramp (tuples/s): low → mid → saturating, driving `d*` 8 → 4 → 1.
pub const LAMBDA_RAMP: [f64; 3] = [4_000.0, 12_000.0, 45_000.0];

/// The headline acceptance cell: 5 racks at the mid-ramp λ.
pub const HEADLINE_RACKS: u32 = 5;
/// Headline arrival rate.
pub const HEADLINE_LAMBDA: f64 = 12_000.0;

/// The out-degree the live controller would plan for arrival rate λ.
fn planned_d(lambda: f64) -> u32 {
    mdone::d_star(lambda, T_E_US * 1e-6, Q).clamp(1, MAX_D)
}

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

/// One deterministic live byte-measurement cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ByteCell {
    /// Rack count of the cell.
    pub racks: u32,
    /// Rack-aware trees (true) vs Whale's oblivious trees (false),
    /// both under the same per-link accounting.
    pub topo_trees: bool,
    /// Total wire bytes (`copied + shared`).
    pub wire_bytes: u64,
    /// Measured bytes delivered over rack uplinks.
    pub uplink_bytes: u64,
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

/// All-grouped spout → sink topology.
fn topology(n: i64, fanout: u32, gap: Duration) -> (Topology, Operators) {
    let mut b = TopologyBuilder::new();
    b.spout("src", 1, Schema::new(vec!["n"]))
        .bolt("sink", fanout, Schema::new(vec!["n"]))
        .connect("src", "sink", Grouping::All);
    let t = b.build().expect("static topology is valid");
    let ops = Operators::new()
        .spout("src", move |_| {
            Box::new(IterSpout::new((0..n).map(move |i| {
                if !gap.is_zero() {
                    std::thread::sleep(gap);
                }
                Tuple::with_id(i as u64, vec![Value::I64(i)])
            })))
        })
        .bolt("sink", |_| {
            Box::new(FnBolt::new(|_t: &Tuple, _out: &mut dyn Emitter| {}))
        });
    (t, ops)
}

/// Run one untracked, fault-free, switch-free cell and read the link
/// counters. Everything on this path is deterministic, so the returned
/// byte counts are identical across reruns.
pub fn measure_bytes(scale: Scale, racks: u32, topo_trees: bool) -> ByteCell {
    let tuples: i64 = scale.pick3(120, 400, 1_200);
    let machines = 10;
    let (t, ops) = topology(tuples, 16, Duration::ZERO);
    let r = run_topology(
        t,
        ops,
        LiveConfig {
            machines,
            zero_copy: true,
            fabric: FabricKind::PerSend,
            multicast_adaptive: Some(AdaptiveConfig {
                initial_d: 2,
                // No mid-run switches: one tree generation end to end.
                interval: Duration::from_secs(60),
                topology: Some(TopologyConfig {
                    racks,
                    rack_of_machine: Some(skewed_rack_map(racks, machines)),
                    topo_trees,
                    ..TopologyConfig::default()
                }),
                ..AdaptiveConfig::default()
            }),
            ..LiveConfig::default()
        },
    );
    assert_eq!(r.outcome, RunOutcome::Clean, "byte cell must run clean");
    assert_eq!(r.executed[1], tuples as u64 * 16, "every broadcast lands");
    assert!(r.relay_forwards > 0, "tuples must ride the relay tree");
    let wire = r.copied_bytes + r.shared_bytes;
    let linked: u64 = r.link_bytes.iter().map(|(_, b)| b).sum();
    assert_eq!(linked, wire, "per-link sums must tile the wire total");
    if racks > 1 {
        assert!(r.uplink_bytes > 0, "cross-rack traffic must register");
    } else {
        assert_eq!(r.uplink_bytes, 0, "one rack has no uplink traffic");
    }
    ByteCell {
        racks,
        topo_trees,
        wire_bytes: wire,
        uplink_bytes: r.uplink_bytes,
    }
}

/// Every deterministic byte cell, with the rack-aware tree required to
/// move strictly fewer uplink bytes than the oblivious tree wherever an
/// uplink exists.
pub fn byte_cells(scale: Scale) -> Vec<ByteCell> {
    let mut cells = Vec::new();
    for &racks in &RACKS {
        let topo = measure_bytes(scale, racks, true);
        let oblivious = measure_bytes(scale, racks, false);
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
                topo.wire_bytes, oblivious.wire_bytes,
                "one rack: the builders produce the same tree"
            );
        }
        cells.push(topo);
        cells.push(oblivious);
    }
    cells
}

/// The acked acceptance cell: run-invariant booleans only (replay and
/// forward counts are scheduling-dependent).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AckedCell {
    /// Tuples the spout emitted (excludes replays).
    pub emitted: u64,
    /// `emitted - acked - failed`; identically zero.
    pub silent_lost: u64,
    /// Whether the run switched tree generations mid-stream.
    pub switched: bool,
    /// Whether tuples actually rode the relay tree.
    pub relay_active: bool,
}

/// Acked run on the 5-rack skew with a forced mid-stream switch: the
/// XOR acker must account for every tuple across the topo-aware epoch
/// handoff.
pub fn measure_acked(scale: Scale) -> AckedCell {
    let tuples: i64 = scale.pick3(120, 400, 1_200);
    let machines = 10;
    let (t, ops) = topology(tuples, 16, Duration::from_micros(100));
    let r = run_topology(
        t,
        ops,
        LiveConfig {
            machines,
            zero_copy: true,
            fabric: FabricKind::PerSend,
            multicast_adaptive: Some(AdaptiveConfig {
                initial_d: 1,
                interval: Duration::from_millis(1),
                forced_switches: vec![(tuples as u64 / 3, 4)],
                topology: Some(TopologyConfig {
                    racks: HEADLINE_RACKS,
                    rack_of_machine: Some(skewed_rack_map(HEADLINE_RACKS, machines)),
                    ..TopologyConfig::default()
                }),
                ..AdaptiveConfig::default()
            }),
            ack: Some(AckConfig {
                timeout: Duration::from_millis(60),
                max_replays: 20,
                drain_deadline: Duration::from_secs(20),
                eos_redundancy: 8,
                ..AckConfig::default()
            }),
            run_deadline: Some(Duration::from_secs(10)),
            ..LiveConfig::default()
        },
    );
    assert_eq!(r.spout_emitted, tuples as u64, "acked: spout must finish");
    assert_eq!(
        r.tuples_acked + r.tuples_failed,
        r.spout_emitted,
        "acked: silent loss"
    );
    assert_eq!(r.tuples_failed, 0, "acked: clean run must ack everything");
    assert!(r.relay_switches >= 1, "acked: forced switch must land");
    assert!(r.relay_forwards > 0, "acked: tuples must ride the tree");
    assert_eq!(r.thread_panics, 0, "acked: no thread may panic");
    AckedCell {
        emitted: r.spout_emitted,
        silent_lost: r.spout_emitted - r.tuples_acked - r.tuples_failed,
        switched: r.relay_switches >= 1,
        relay_active: r.relay_forwards > 0,
    }
}

/// Build the model-sweep result table.
pub fn table_from_points(points: &[ModelPoint]) -> Table {
    let mut table = Table::new(
        "live_topology",
        "Rack-aware vs oblivious multicast trees on skewed placements (modeled)",
        &[
            "racks",
            "structure",
            "lambda",
            "d",
            "completion_us",
            "uplink_edges",
            "depth",
        ],
    );
    for p in points {
        table.row_strings(vec![
            p.racks.to_string(),
            p.structure.to_string(),
            format!("{:.0}", p.lambda),
            p.d.to_string(),
            format!("{:.1}", p.cost.completion_us),
            p.cost.uplink_edges.to_string(),
            p.cost.max_depth.to_string(),
        ]);
    }
    table
}

/// Headline summary written as the top-level `BENCH_topology.json`.
/// Schema-stable and byte-identical across same-scale reruns.
pub fn summary_json(points: &[ModelPoint], bytes: &[ByteCell], acked: &[AckedCell]) -> JsonValue {
    let topo = cell(points, HEADLINE_RACKS, HEADLINE_LAMBDA, "topo");
    let whale = cell(points, HEADLINE_RACKS, HEADLINE_LAMBDA, "whale");
    let binomial = cell(points, HEADLINE_RACKS, HEADLINE_LAMBDA, "binomial");
    let byte_json = |c: &ByteCell| {
        JsonValue::Object(vec![
            ("racks".into(), JsonValue::UInt(c.racks as u64)),
            ("topo_trees".into(), JsonValue::Bool(c.topo_trees)),
            ("wire_bytes".into(), JsonValue::UInt(c.wire_bytes)),
            ("uplink_bytes".into(), JsonValue::UInt(c.uplink_bytes)),
        ])
    };
    let acked_json = |c: &AckedCell| {
        JsonValue::Object(vec![
            ("emitted".into(), JsonValue::UInt(c.emitted)),
            ("silent_lost".into(), JsonValue::UInt(c.silent_lost)),
            ("switched".into(), JsonValue::Bool(c.switched)),
            ("relay_active".into(), JsonValue::Bool(c.relay_active)),
        ])
    };
    JsonValue::Object(vec![
        ("schema".into(), JsonValue::str(crate::JSON_SCHEMA)),
        ("report".into(), JsonValue::str("topology")),
        ("experiment".into(), JsonValue::str("live_topology")),
        ("headline_racks".into(), JsonValue::UInt(HEADLINE_RACKS as u64)),
        ("headline_lambda".into(), JsonValue::Float(HEADLINE_LAMBDA)),
        (
            "topo_completion_us".into(),
            JsonValue::Float(topo.cost.completion_us),
        ),
        (
            "whale_completion_us".into(),
            JsonValue::Float(whale.cost.completion_us),
        ),
        (
            "binomial_completion_us".into(),
            JsonValue::Float(binomial.cost.completion_us),
        ),
        (
            "topo_uplink_edges".into(),
            JsonValue::UInt(topo.cost.uplink_edges as u64),
        ),
        (
            "whale_uplink_edges".into(),
            JsonValue::UInt(whale.cost.uplink_edges as u64),
        ),
        (
            "binomial_uplink_edges".into(),
            JsonValue::UInt(binomial.cost.uplink_edges as u64),
        ),
        (
            "speedup_vs_whale".into(),
            JsonValue::Float(whale.cost.completion_us / topo.cost.completion_us),
        ),
        (
            "speedup_vs_binomial".into(),
            JsonValue::Float(binomial.cost.completion_us / topo.cost.completion_us),
        ),
        (
            "byte_cells".into(),
            JsonValue::Array(bytes.iter().map(byte_json).collect()),
        ),
        (
            "acked_cells".into(),
            JsonValue::Array(acked.iter().map(acked_json).collect()),
        ),
    ])
}

/// Run the model sweep, assert the acceptance margins, and return the
/// result table.
pub fn run_experiment(_scale: Scale) -> Vec<Table> {
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

    vec![table_from_points(&points)]
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
    fn sweep_is_deterministic() {
        assert_eq!(model_sweep(), model_sweep());
        let a = summary_json(&model_sweep(), &[], &[]).to_json_string();
        let b = summary_json(&model_sweep(), &[], &[]).to_json_string();
        assert_eq!(a, b);
    }

    #[test]
    fn table_covers_the_full_sweep() {
        let tables = run_experiment(Scale::Smoke);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), RACKS.len() * LAMBDA_RAMP.len() * 3);
        let json = tables[0].to_json().to_json_string();
        assert!(json.contains("\"schema\":\"whale-bench/v1\""), "{json}");
        assert!(json.contains("\"figure\":\"live_topology\""));
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
        let topo = measure_bytes(Scale::Smoke, 5, true);
        let oblivious = measure_bytes(Scale::Smoke, 5, false);
        assert!(topo.uplink_bytes > 0);
        assert!(topo.uplink_bytes < oblivious.uplink_bytes);
        // Deterministic: the same cell re-measures byte-identically.
        assert_eq!(topo, measure_bytes(Scale::Smoke, 5, true));
    }

    #[test]
    fn acked_cell_accounts_for_every_tuple() {
        let c = measure_acked(Scale::Smoke);
        assert_eq!(c.silent_lost, 0);
        assert!(c.switched);
        assert!(c.relay_active);
    }
}
