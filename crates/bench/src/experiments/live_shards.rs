//! E24 — shard-owned pipelines: core-scaling of the live receive path.
//!
//! Two layers, one report:
//!
//! * **Model sweep** (deterministic): extends the E20 zero-copy pricing
//!   with pipeline shards. E20's shared discipline is sender-bound at
//!   real fan-outs — one pipeline per worker serializes routing, encode,
//!   and ring bookkeeping behind a single thread, which is exactly the
//!   dispatcher bottleneck the runtime refactor removes. With `S`
//!   shard-owned pipelines the sender stage divides by `S` (each shard
//!   owns its slice of tasks end to end) and the drain stage shards the
//!   same way (each pipeline owns its own fabric endpoint and drains it
//!   itself: E20's modeled drain shards); capacity is the slower stage. The
//!   1-shard column reproduces E20's `shared_tuples_s` numbers exactly
//!   — same counters, same pricing — so the sweep's scaling curve is
//!   anchored to the committed `BENCH_live_path.json` baseline.
//! * **Live acceptance cells**: the real threaded runtime with
//!   `LiveConfig::shards` ∈ {1, 4} across all three transports
//!   (per_send, ring, one_sided) with the XOR acker on. Every cell
//!   asserts `tuples_acked + tuples_failed == spout_emitted` (zero
//!   silent loss) and that multi-shard runs actually cross shards.
//!
//! Thread scheduling perturbs cross-shard *counts*, so the emitted rows
//! carry only run-invariant fields; `results/live_shards.json` and
//! `BENCH_shards.json` are byte-identical across same-seed reruns.

use super::cell::{cells_json, fabric_kinds, fabric_name, run_cell, CellOutcome, CellSpec};
use super::Output;
use crate::{object, Scale, Table};
use whale_net::FabricKind;
use whale_sim::JsonValue;

use super::live_zero_copy;

/// Pipeline shard counts swept per worker.
pub const PIPE_SHARDS: [u32; 4] = [1, 2, 4, 8];

/// Fan-outs swept (destinations per tuple).
pub const FANOUTS: [u32; 3] = [2, 8, 32];

/// One (fanout, shards) cell of the scaling sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ShardPoint {
    /// Destinations per tuple.
    pub fanout: u32,
    /// Shard-owned pipelines per worker.
    pub shards: u32,
    /// Tuples driven through the measured ring.
    pub tuples: u64,
    /// Messages delivered (`tuples × fanout`).
    pub messages: u64,
    /// Mean messages per flushed batch.
    pub mean_batch: f64,
    /// Messages on the most loaded pipeline (drain critical path).
    pub max_shard_msgs: u64,
    /// E20's own shared-path capacity at this (fanout, modeled drain shards):
    /// at (8, 1) the `BENCH_live_path.json` baseline the 1-shard cell
    /// must not regress below.
    pub e20_tuples_s: f64,
    /// Modeled shared-path capacity with an unsharded sender on the
    /// same drain configuration (at 1 shard: exactly the E20 number).
    pub single_tuples_s: f64,
    /// Modeled shared-path capacity with `shards` pipelines.
    pub sharded_tuples_s: f64,
    /// Whether the sharded cell is still sender-bound (more shards keep
    /// paying off) or has hit the drain critical path.
    pub sender_bound: bool,
}

impl ShardPoint {
    /// Sender-sharding gain: capacity over an unsharded sender on the
    /// same drain configuration (isolates the dispatcher removal from
    /// the drain sharding E20 already models).
    pub fn speedup(&self) -> f64 {
        self.sharded_tuples_s / self.single_tuples_s
    }
}

/// Measure one (fanout, shards) cell: drive E20's deterministic ring
/// workload with `shards` modeled drain shards for the drain counters, then
/// price the sender stage divided across `shards` pipelines.
pub fn measure(scale: Scale, fanout: u32, shards: u32) -> ShardPoint {
    let p = live_zero_copy::measure(scale, fanout, shards as usize);
    // E20's shared discipline, with the sender stage divided by the
    // pipeline count (routing, encode, and bookkeeping are per-shard work
    // now) — at `shards == 1` this reproduces `p.shared_tuples_s` bit for
    // bit.
    let (sender_shared, drain_time) = (p.sender_shared_s, p.drain_s);
    let sender_sharded = sender_shared / shards as f64;
    ShardPoint {
        fanout,
        shards,
        tuples: p.tuples,
        messages: p.messages,
        mean_batch: p.mean_batch,
        max_shard_msgs: p.max_shard_msgs,
        e20_tuples_s: p.shared_tuples_s,
        single_tuples_s: p.tuples as f64 / sender_shared.max(drain_time),
        sharded_tuples_s: p.tuples as f64 / sender_sharded.max(drain_time),
        sender_bound: sender_sharded >= drain_time,
    }
}

/// Measure every (fanout, shards) cell of the sweep, in row order.
pub fn sweep(scale: Scale) -> Vec<ShardPoint> {
    let mut points = Vec::with_capacity(FANOUTS.len() * PIPE_SHARDS.len());
    for &fanout in &FANOUTS {
        for &shards in &PIPE_SHARDS {
            points.push(measure(scale, fanout, shards));
        }
    }
    points
}

/// Run one tracked cell on the real runtime and verify acceptance:
/// every emitted tuple ends acked, and a multi-shard run crosses shards.
pub fn measure_live(scale: Scale, kind: FabricKind, shards: u32) -> CellOutcome {
    let label = format!("{}/{shards}", fabric_name(kind));
    let mut cell = CellSpec::tracked(label, scale.pick3(120, 400, 1_500), 16, 4);
    cell.config.shards = shards;
    cell.config.fabric = kind;
    run_cell(&cell)
}

/// Run every live acceptance cell: three transports × {1, 4} shards.
pub fn live_cells(scale: Scale) -> Vec<CellOutcome> {
    let mut cells = Vec::new();
    for shards in [1u32, 4] {
        for kind in fabric_kinds() {
            cells.push(measure_live(scale, kind, shards));
        }
    }
    cells
}

/// Build the scaling-sweep result table.
fn table_from_points(points: &[ShardPoint]) -> Table {
    Table::of(
        "live_shards",
        "Shard-owned pipelines: live-path capacity vs pipelines per worker (modeled tuples/s)",
        points,
        &[
            ("fanout", |p| p.fanout.to_string()),
            ("shards", |p| p.shards.to_string()),
            ("messages", |p| p.messages.to_string()),
            ("max_shard_msgs", |p| p.max_shard_msgs.to_string()),
            ("single_tuples_s", |p| format!("{:.0}", p.single_tuples_s)),
            ("sharded_tuples_s", |p| format!("{:.0}", p.sharded_tuples_s)),
            ("speedup", |p| format!("{:.2}", p.speedup())),
            ("sender_bound", |p| p.sender_bound.to_string()),
        ],
    )
}

/// The cell at one (fanout, shards) coordinate.
fn by(points: &[ShardPoint], fanout: u32, shards: u32) -> &ShardPoint {
    points
        .iter()
        .find(|p| p.fanout == fanout && p.shards == shards)
        .expect("sweep covers the headline points")
}

/// Headline summary written as the top-level `BENCH_shards.json`.
/// Schema-stable and byte-identical across same-scale reruns.
fn summary_json(points: &[ShardPoint], cells: &[CellOutcome]) -> JsonValue {
    let f8_1 = by(points, 8, 1);
    let f8_4 = by(points, 8, 4);
    let curve: Vec<JsonValue> = points
        .iter()
        .map(|p| {
            object(&[
                ("fanout", &p.fanout),
                ("shards", &p.shards),
                ("sharded_tuples_s", &p.sharded_tuples_s),
                ("speedup", &p.speedup()),
                ("sender_bound", &p.sender_bound),
            ])
        })
        .collect();
    let cells = cells_json(
        cells,
        &[
            "fabric",
            "shards",
            "machines",
            "emitted",
            "silent_lost",
            "cross_shard_active",
        ],
    );
    object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"shards"),
        ("experiment", &"live_shards"),
        ("fanouts", &FANOUTS),
        ("shard_counts", &PIPE_SHARDS),
        ("fanout8_1shard_tuples_s", &f8_1.sharded_tuples_s),
        ("fanout8_4shard_tuples_s", &f8_4.sharded_tuples_s),
        ("fanout8_4shard_speedup", &f8_4.speedup()),
        ("baseline_tuples_s", &f8_1.e20_tuples_s),
        (
            "one_shard_matches_baseline",
            &(f8_1.sharded_tuples_s >= f8_1.e20_tuples_s * 0.999),
        ),
        ("scaling_curve", &curve),
        ("acceptance_cells", &cells),
    ])
}

/// Run the scaling sweep, assert the acceptance margins, run the live
/// cells, and return the result table and the headline report.
pub fn run_experiment(scale: Scale) -> Output {
    let points = sweep(scale);
    let f8_1 = by(&points, 8, 1);
    let f8_4 = by(&points, 8, 4);
    assert!(
        f8_1.sharded_tuples_s >= f8_1.e20_tuples_s * 0.999,
        "1-shard fan-out-8 cell regressed below the live-path baseline: \
         {:.2} < {:.2}",
        f8_1.sharded_tuples_s,
        f8_1.e20_tuples_s
    );
    assert!(
        f8_4.speedup() >= 2.5,
        "4 pipelines must scale ≥2.5× at fan-out 8, got {:.2}×",
        f8_4.speedup()
    );
    for &f in &FANOUTS {
        for w in PIPE_SHARDS.windows(2) {
            let (a, b) = (by(&points, f, w[0]), by(&points, f, w[1]));
            assert!(
                b.sharded_tuples_s >= a.sharded_tuples_s,
                "fanout {f}: {} → {} shards must never price slower",
                w[0],
                w[1]
            );
        }
    }
    Output {
        tables: vec![table_from_points(&points)],
        headline: Some(summary_json(&points, &live_cells(scale))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_cell_equals_the_e20_shared_path() {
        for &f in &FANOUTS {
            let e24 = measure(Scale::Smoke, f, 1);
            let e20 = live_zero_copy::measure(Scale::Smoke, f, 1);
            assert_eq!(
                e24.sharded_tuples_s, e20.shared_tuples_s,
                "fanout {f}: the 1-shard cell must reproduce E20 exactly"
            );
            assert_eq!(e24.sharded_tuples_s, e24.single_tuples_s);
        }
    }

    #[test]
    fn four_shards_scale_beyond_2_5x_at_fanout_8() {
        let p = measure(Scale::Smoke, 8, 4);
        assert!(p.speedup() >= 2.5, "got {:.2}×", p.speedup());
    }

    #[test]
    fn scaling_is_monotone_in_shards() {
        for &f in &FANOUTS {
            let mut last = 0.0f64;
            for &s in &PIPE_SHARDS {
                let p = measure(Scale::Smoke, f, s);
                assert!(
                    p.sharded_tuples_s >= last,
                    "fanout {f} shards {s}: {:.0} < {last:.0}",
                    p.sharded_tuples_s
                );
                last = p.sharded_tuples_s;
            }
        }
    }
}
