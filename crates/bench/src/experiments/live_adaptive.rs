//! E22 — live adaptive: runtime tree switching + zero-copy relay
//! forwarding on a phase-shifted workload.
//!
//! Two layers, one report:
//!
//! * **Model sweep** (deterministic): a phase-shifted arrival trace
//!   (low → high → low λ) priced on the paper's M/D/1 source model.
//!   Each static out-degree `d` caps throughput at
//!   `µ(d) = (Q+1-√(Q²+1))/(d·t_e)`; the adaptive structure re-plans
//!   `d*(λ)` per phase exactly as the live controller would, so it
//!   tracks the offered load while the worst static tree saturates.
//!   Per-hop forwarding is priced both ways: decode + re-encode per
//!   child (clone-forward) vs the fixed-offset header patch + shared
//!   wire buffer (zero-copy forward).
//! * **Live acceptance cells**: the real threaded runtime with the XOR
//!   acker on, relay trees enabled, and a forced mid-run epoch switch —
//!   clean, 10 %-drop, and clone-forward variants. Every cell asserts
//!   `tuples_acked + tuples_failed == spout_emitted` with
//!   `relay_forwards > 0`.
//!
//! Thread scheduling perturbs replay/forward *counts*, so the emitted
//! rows carry only run-invariant fields; `results/live_adaptive.json`
//! and `BENCH_adaptive.json` are byte-identical across same-seed reruns.

use super::cell::{cells_json, run_cell, CellOutcome, CellSpec, Expect};
use super::Output;
use crate::{object, Scale, Table};
use std::time::Duration;
use whale_dsps::AdaptiveConfig;
use whale_multicast::{build_nonblocking, Node};
use whale_net::FaultPlan;
use whale_sim::cost::mdone;
use whale_sim::{CostModel, JsonValue};

/// Tuple payload size, matching the E19/E20 calibration runs.
const MSG_BYTES: usize = 150;

/// Per-destination serialization time fed to `d*` (matches the live
/// controller's `T_E_DEFAULT`).
const T_E: f64 = 20e-6;

/// Transfer-queue capacity Q for the M/D/1 waterline.
const Q: usize = 1024;

/// Workers in the modeled cluster (relay tree spans `WORKERS - 1`).
const WORKERS: u32 = 16;

/// Degree ceiling the adaptive planner may pick (≈ binomial source
/// degree for a 16-worker cluster).
const MAX_D: u32 = 8;

/// Phase-shifted workload: `(duration_s, lambda_tuples_per_s)`. Low →
/// high → low, crossing the affordable rate of every large out-degree.
pub const PHASES: [(f64, f64); 5] = [
    (2.0, 4_000.0),
    (2.0, 24_000.0),
    (2.0, 45_000.0),
    (2.0, 12_000.0),
    (2.0, 30_000.0),
];

/// Static out-degrees the adaptive structure is compared against.
pub const STATIC_DS: [u32; 4] = [1, 2, 4, 8];

/// One (structure, phase) cell of the model sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ModelPoint {
    /// `static_d<k>` or `adaptive`.
    pub structure: String,
    /// Phase index into [`PHASES`].
    pub phase: usize,
    /// Phase duration (s).
    pub dur_s: f64,
    /// Offered arrival rate λ (tuples/s).
    pub lambda: f64,
    /// Out-degree in force during the phase.
    pub d: u32,
    /// Affordable source rate µ(d) (tuples/s).
    pub mu: f64,
    /// Delivered rate `min(λ, µ(d))` (tuples/s).
    pub delivered: f64,
    /// Relay-tree depth at this out-degree (latency proxy).
    pub depth: u32,
}

/// Deepest node of the nonblocking relay tree over `WORKERS - 1`
/// destinations at out-degree `d`.
fn tree_depth(d: u32) -> u32 {
    let tree = build_nonblocking(WORKERS - 1, d);
    (0..tree.n())
        .filter_map(|i| tree.depth(Node::Dest(i)))
        .max()
        .unwrap_or(0)
}

/// The out-degree the live controller would plan for arrival rate λ.
pub fn planned_d(lambda: f64) -> u32 {
    mdone::d_star(lambda, T_E, Q).clamp(1, MAX_D)
}

/// Model one structure across every phase. `degree(λ)` picks the
/// out-degree in force during a phase.
fn model_structure(name: &str, degree: impl Fn(f64) -> u32) -> Vec<ModelPoint> {
    PHASES
        .iter()
        .enumerate()
        .map(|(phase, &(dur_s, lambda))| {
            let d = degree(lambda);
            let mu = mdone::max_affordable_rate(d, T_E, Q);
            ModelPoint {
                structure: name.to_string(),
                phase,
                dur_s,
                lambda,
                d,
                mu,
                delivered: lambda.min(mu),
                depth: tree_depth(d),
            }
        })
        .collect()
}

/// The full model sweep: every static degree, then the adaptive plan.
pub fn model_sweep() -> Vec<ModelPoint> {
    let mut points = Vec::new();
    for &d in &STATIC_DS {
        points.extend(model_structure(&format!("static_d{d}"), |_| d));
    }
    points.extend(model_structure("adaptive", planned_d));
    points
}

/// End-to-end throughput of one structure: delivered tuples over the
/// whole trace divided by trace duration.
pub fn throughput(points: &[ModelPoint], structure: &str) -> f64 {
    let mine: Vec<_> = points.iter().filter(|p| p.structure == structure).collect();
    let delivered: f64 = mine.iter().map(|p| p.delivered * p.dur_s).sum();
    let dur: f64 = mine.iter().map(|p| p.dur_s).sum();
    delivered / dur
}

/// Per-hop forwarding price of both disciplines on the cost model:
/// clone-forward pays a decode and a re-encode of the frame per child,
/// zero-copy pays a reference handoff. Both pay the ring bookkeeping op.
/// Returns `(clone_us, zero_copy_us)`.
pub fn hop_prices() -> (f64, f64) {
    let cost = CostModel::default();
    let ser = cost.serialize(MSG_BYTES).as_secs_f64();
    let id_pack = cost.id_pack.as_secs_f64();
    let mr_op = cost.ring_mr_op.as_secs_f64();
    ((2.0 * ser + mr_op) * 1e6, (id_pack + mr_op) * 1e6)
}

/// One acked relay cell: 8 machines, 16-way fan-out, per-send fabric,
/// first tree generation of out-degree `d_star`.
/// Every emitted tuple must end acked or failed, and the relay tree must
/// actually have carried them; a forced switch must land mid-stream.
fn cell(
    scale: Scale,
    mode: &'static str,
    adaptive: Option<AdaptiveConfig>,
    d_star: Option<u32>,
    zero_copy: bool,
    drop_pct: u32,
) -> CellSpec {
    let expect_switch = adaptive
        .as_ref()
        .is_some_and(|a| !a.forced_switches.is_empty());
    let seed = 0xADA9_7000 + drop_pct as u64 * 31 + zero_copy as u64 * 7 + mode.len() as u64;
    let mut cell = CellSpec::tracked(mode, scale.pick3(120, 400, 1_500), 16, 8);
    cell.config.zero_copy = zero_copy;
    cell.config.multicast_d_star = d_star;
    cell.config.multicast_adaptive = adaptive;
    cell.config.fault =
        (drop_pct > 0).then(|| FaultPlan::uniform_drops(seed, drop_pct as f64 / 100.0));
    cell.expect = vec![Expect::RelayActive];
    cell.expect.push(if zero_copy {
        Expect::SharesBuffers
    } else {
        Expect::CopiesOnly
    });
    if expect_switch {
        // Throttle the spout just enough for the forced switch to land
        // while frames are in flight.
        cell.gap = Duration::from_micros(100);
        cell.expect.push(Expect::Switched);
    }
    if drop_pct == 0 {
        cell.expect.push(Expect::NoStaleDrops);
    }
    cell
}

/// Controller-driven soak: no forced switches — the tree starts narrow
/// (`d* = 1`) under a throttled spout, so the workload monitor sees a
/// low λ with an idle queue and the self-adjusting controller itself
/// scales the structure up mid-stream. Asserts at least one *organic*
/// switch landed with zero silent loss.
pub fn measure_controller_soak(scale: Scale) -> CellOutcome {
    let organic = AdaptiveConfig {
        interval: Duration::from_millis(1),
        // Empty: decisions come from the monitor + controller.
        forced_switches: Vec::new(),
        ..AdaptiveConfig::default()
    };
    run_cell(&CellSpec {
        tuples: scale.pick3(150, 400, 1_500),
        // ~5k tuples/s: slow enough that the queue idles between arrivals
        // (the controller's scale-up signal), fast enough that the stream
        // is still in flight when the switch lands.
        gap: Duration::from_micros(200),
        // The controller itself must scale the tree up from d*=1.
        expect: vec![Expect::RelayActive, Expect::Switched, Expect::Widened],
        ..cell(scale, "controller_soak", Some(organic), Some(1), true, 0)
    })
}

/// Run every live acceptance cell: the forced-switch cells start narrow
/// and switch to a shallow tree a third of the way through the stream.
pub fn live_cells(scale: Scale) -> Vec<CellOutcome> {
    let forced = || {
        Some(AdaptiveConfig {
            interval: Duration::from_millis(1),
            forced_switches: vec![(scale.pick3(120, 400, 1_500) / 3, 4)],
            ..AdaptiveConfig::default()
        })
    };
    vec![
        run_cell(&cell(scale, "adaptive_clean", forced(), Some(2), true, 0)),
        run_cell(&cell(scale, "adaptive_drops", forced(), Some(2), true, 10)),
        run_cell(&cell(scale, "static_clean", None, Some(2), true, 0)),
        run_cell(&cell(scale, "clone_forward", forced(), Some(2), false, 0)),
        measure_controller_soak(scale),
    ]
}

/// Build the model-sweep result table.
fn table_from_points(points: &[ModelPoint]) -> Table {
    Table::of(
        "live_adaptive",
        "Adaptive vs static relay trees on a phase-shifted workload (modeled)",
        points,
        &[
            ("structure", |p| p.structure.clone()),
            ("phase", |p| p.phase.to_string()),
            ("dur_s", |p| format!("{:.1}", p.dur_s)),
            ("lambda", |p| format!("{:.0}", p.lambda)),
            ("d", |p| p.d.to_string()),
            ("mu", |p| format!("{:.1}", p.mu)),
            ("delivered", |p| format!("{:.1}", p.delivered)),
            ("depth", |p| p.depth.to_string()),
        ],
    )
}

/// Throughput of the slowest static tree over the whole trace.
fn worst_static(points: &[ModelPoint]) -> f64 {
    STATIC_DS
        .iter()
        .map(|d| throughput(points, &format!("static_d{d}")))
        .fold(f64::INFINITY, f64::min)
}

/// Headline summary written as the top-level `BENCH_adaptive.json`.
/// Schema-stable and byte-identical across same-scale reruns.
fn summary_json(points: &[ModelPoint], cells: &[CellOutcome]) -> JsonValue {
    let adaptive_tps = throughput(points, "adaptive");
    let worst_static = worst_static(points);
    let best_static = STATIC_DS
        .iter()
        .map(|d| throughput(points, &format!("static_d{d}")))
        .fold(0.0, f64::max);
    let (clone_us, zero_us) = hop_prices();
    let cells = cells_json(
        cells,
        &[
            "mode",
            "zero_copy",
            "drop_pct",
            "emitted",
            "silent_lost",
            "switched",
            "relay_active",
        ],
    );
    object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"adaptive"),
        ("experiment", &"live_adaptive"),
        ("phases", &PHASES.len()),
        ("adaptive_tuples_s", &adaptive_tps),
        ("best_static_tuples_s", &best_static),
        ("worst_static_tuples_s", &worst_static),
        (
            "adaptive_gain_vs_worst_static",
            &(adaptive_tps / worst_static),
        ),
        ("clone_forward_us_per_child", &clone_us),
        ("zero_copy_forward_us_per_child", &zero_us),
        ("forward_speedup_per_hop", &(clone_us / zero_us)),
        ("acceptance_cells", &cells),
    ])
}

/// Run the model sweep, assert the acceptance margins, run the live
/// cells, and return the result table and the headline report.
pub fn run_experiment(scale: Scale) -> Output {
    let points = model_sweep();
    let adaptive = throughput(&points, "adaptive");
    let worst = worst_static(&points);
    assert!(
        adaptive >= 1.3 * worst,
        "adaptive ({adaptive:.0}/s) must beat the worst static tree ({worst:.0}/s) by ≥30%"
    );
    let (clone_us, zero_us) = hop_prices();
    assert!(
        zero_us < clone_us,
        "zero-copy hop ({zero_us:.2}µs) must beat decode+re-encode ({clone_us:.2}µs)"
    );
    Output {
        tables: vec![table_from_points(&points)],
        headline: Some(summary_json(&points, &live_cells(scale))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_tracks_the_offered_load() {
        let points = model_sweep();
        let offered: f64 = PHASES.iter().map(|&(d, l)| d * l).sum::<f64>()
            / PHASES.iter().map(|&(d, _)| d).sum::<f64>();
        let adaptive = throughput(&points, "adaptive");
        assert!(
            (adaptive - offered).abs() < 1e-6,
            "adaptive {adaptive:.1} must deliver the offered {offered:.1}"
        );
        let worst = worst_static(&points);
        assert!(adaptive >= 1.3 * worst, "{adaptive:.0} vs {worst:.0}");
    }

    #[test]
    fn planner_narrows_under_load() {
        assert!(planned_d(4_000.0) > planned_d(45_000.0));
        assert_eq!(planned_d(45_000.0), 1);
        assert_eq!(planned_d(4_000.0), MAX_D);
    }

    #[test]
    fn zero_copy_hop_is_cheaper() {
        let (clone_us, zero_us) = hop_prices();
        assert!(zero_us < clone_us, "{zero_us:.2} vs {clone_us:.2}");
        assert!(clone_us / zero_us > 2.0);
    }

    #[test]
    fn controller_scales_the_tree_up_on_its_own() {
        let p = measure_controller_soak(Scale::Smoke);
        assert_eq!(p.label, "controller_soak");
        assert_eq!(p.silent_lost(), 0);
        assert!(p
            .config
            .multicast_adaptive
            .unwrap()
            .forced_switches
            .is_empty());
        assert!(
            p.report.relay_switches >= 1,
            "switch must be controller-driven, not forced"
        );
        assert!(p.report.relay_forwards > 0);
    }
}
