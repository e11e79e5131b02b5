//! E25 — lazy zero-materialization decode: borrowed tuple views over
//! the wire buffer.
//!
//! Two layers, one report:
//!
//! * **Model sweep** (deterministic): prices one received tuple under
//!   the eager decoder (framing walk + per-field materialization —
//!   heap-allocating the value vector and every string, copying and
//!   UTF-8-validating the payload) against the lazy view (framing walk
//!   only at parse; a field access decodes scalars in place and borrows
//!   strings, validating UTF-8 only when the string is actually
//!   touched). Swept over payload sizes 64 B – 16 KiB for the two
//!   receive profiles the runtime serves: *key touch* (sink or
//!   key-extraction bolt reads one scalar field) and *full touch*
//!   (operator reads every field). The pricing constants are fixed —
//!   the sweep is pure arithmetic, byte-identical across reruns.
//! * **Live acceptance cells**: the real threaded runtime with the XOR
//!   acker on, once with an eager sink (`FnBolt`, whose default
//!   `execute_lazy` materializes) and once with a zero-materialization
//!   sink (`LazyFnBolt` reading one field off the wire view). Both
//!   assert `tuples_acked + tuples_failed == spout_emitted` (zero
//!   silent loss); the lazy cell additionally proves that wire tuples
//!   were delivered as borrowed views (`wire_tuples_lazy > 0`) and that
//!   *none* of them was ever materialized (`tuples_materialized == 0`).
//!
//! Thread scheduling perturbs raw counts, so the emitted rows carry
//! only run-invariant fields; `results/live_lazy_decode.json` and
//! `BENCH_lazy_decode.json` are byte-identical across same-seed reruns.

use super::cell::{cells_json, run_cell, CellOutcome, CellSpec, Expect, Workload};
use super::Output;
use crate::{object, Scale, Table};
use whale_dsps::{Bolt, Emitter, FnBolt, LazyFnBolt, LazyTuple, Tuple, Value};
use whale_sim::JsonValue;

/// Payload sizes swept (bytes carried by the tuple's string field).
pub const PAYLOADS: [usize; 4] = [64, 512, 2048, 16384];

// Pricing constants for one received tuple (a scalar key field plus one
// string field carrying `payload` bytes). Nanoseconds, calibrated to
// commodity-server orders of magnitude: a heap allocation costs tens of
// scalar reads, memcpy streams ~20 GB/s, UTF-8 validation ~10 GB/s.
/// Framing-walk cost per field: read the tag, bounds-check the length.
const FIELD_WALK_NS: f64 = 2.0;
/// Decode one scalar (fixed-width read, no allocation).
const SCALAR_READ_NS: f64 = 1.0;
/// One heap allocation (value vector, string, or byte blob).
const ALLOC_NS: f64 = 30.0;
/// Copy one payload byte out of the wire buffer.
const COPY_NS_PER_BYTE: f64 = 0.05;
/// Validate one byte of UTF-8.
const UTF8_NS_PER_BYTE: f64 = 0.1;

/// One payload-size point of the decode-cost sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct DecodePoint {
    /// Bytes in the tuple's string payload.
    pub payload: usize,
    /// Eager decode cost: everything materialized on receive.
    pub eager_ns: f64,
    /// Lazy cost when only the scalar key field is touched.
    pub lazy_key_ns: f64,
    /// Lazy cost when every field is touched (string stays borrowed:
    /// UTF-8 is validated but nothing is allocated or copied).
    pub lazy_full_ns: f64,
}

impl DecodePoint {
    /// Key-touch speedup over the eager decoder.
    pub fn speedup_key(&self) -> f64 {
        self.eager_ns / self.lazy_key_ns
    }

    /// Full-touch speedup over the eager decoder.
    pub fn speedup_full(&self) -> f64 {
        self.eager_ns / self.lazy_full_ns
    }
}

/// Price one payload point. The tuple is `[I64 key, Str payload]` — the
/// shape of the paper's key-grouped application streams.
pub fn measure(payload: usize) -> DecodePoint {
    let fields = 2.0;
    let walk = fields * FIELD_WALK_NS;
    let bytes = payload as f64;
    // Eager: framing walk, then materialize every field — one value
    // vector, one string allocation, the payload copied and validated.
    let eager_ns = walk
        + SCALAR_READ_NS
        + 2.0 * ALLOC_NS
        + bytes * (COPY_NS_PER_BYTE + UTF8_NS_PER_BYTE);
    // Lazy key touch: framing walk plus one in-place scalar read. The
    // payload is never copied, validated, or allocated.
    let lazy_key_ns = walk + SCALAR_READ_NS;
    // Lazy full touch: the string is borrowed (no alloc, no copy) but
    // its UTF-8 is validated at the access that touches it.
    let lazy_full_ns = walk + SCALAR_READ_NS + bytes * UTF8_NS_PER_BYTE;
    DecodePoint {
        payload,
        eager_ns,
        lazy_key_ns,
        lazy_full_ns,
    }
}

/// Measure every payload point, in row order.
pub fn sweep() -> Vec<DecodePoint> {
    PAYLOADS.iter().map(|&p| measure(p)).collect()
}

/// A key plus a 200-byte string body into a pluggable sink.
const fn keyed_body(sink: fn(u32) -> Box<dyn Bolt>) -> Workload {
    Workload {
        fields: &["key", "body"],
        tuple: |i| {
            Tuple::with_id(
                i as u64,
                vec![Value::I64(i), Value::str("w".repeat(200).as_str())],
            )
        },
        sink,
    }
}

/// Eager profile: an owned-tuple bolt; the runtime's default
/// `execute_lazy` materializes each wire tuple exactly once.
const EAGER: Workload = keyed_body(|_| {
    Box::new(FnBolt::new(|t: &Tuple, _out: &mut dyn Emitter| {
        std::hint::black_box(t.arity());
    }))
});

/// Lazy profile: reads the key straight off the wire view and never
/// materializes anything.
const LAZY: Workload = keyed_body(|_| {
    Box::new(LazyFnBolt::new(|t: &LazyTuple, _out: &mut dyn Emitter| {
        let key = t.field(0).and_then(|f| f.ok()).and_then(|v| v.as_i64());
        std::hint::black_box(key);
    }))
});

/// Run one tracked cell on the real runtime and verify acceptance: wire
/// tuples arrive as borrowed views, the eager sink materializes them and
/// the lazy sink never does.
pub fn measure_live(scale: Scale, sink: &'static str) -> CellOutcome {
    let (workload, materialization) = match sink {
        "eager" => (EAGER, Expect::Materializes),
        _ => (LAZY, Expect::NeverMaterializes),
    };
    let mut cell = CellSpec::tracked(sink, scale.pick3(120, 400, 1_500), 16, 4);
    cell.workload = workload;
    cell.expect = vec![Expect::LazyWire, materialization];
    run_cell(&cell)
}

/// Run both live acceptance cells: the materializing sink, then the
/// zero-materialization sink.
pub fn live_cells(scale: Scale) -> Vec<CellOutcome> {
    vec![measure_live(scale, "eager"), measure_live(scale, "lazy")]
}

/// Build the decode-cost result table.
fn table_from_points(points: &[DecodePoint]) -> Table {
    Table::of(
        "live_lazy_decode",
        "Lazy zero-materialization decode: receive cost vs payload size (modeled ns/tuple)",
        points,
        &[
            ("payload_bytes", |p| p.payload.to_string()),
            ("eager_ns", |p| format!("{:.1}", p.eager_ns)),
            ("lazy_key_ns", |p| format!("{:.1}", p.lazy_key_ns)),
            ("lazy_full_ns", |p| format!("{:.1}", p.lazy_full_ns)),
            ("speedup_key_touch", |p| format!("{:.2}", p.speedup_key())),
            ("speedup_full_touch", |p| format!("{:.2}", p.speedup_full())),
        ],
    )
}

/// The point at one payload size.
fn by(points: &[DecodePoint], payload: usize) -> &DecodePoint {
    points
        .iter()
        .find(|p| p.payload == payload)
        .expect("sweep covers the headline points")
}

/// Headline summary written as the top-level `BENCH_lazy_decode.json`.
/// Schema-stable and byte-identical across same-scale reruns.
fn summary_json(points: &[DecodePoint], cells: &[CellOutcome]) -> JsonValue {
    let small = by(points, PAYLOADS[0]);
    let large = by(points, PAYLOADS[PAYLOADS.len() - 1]);
    let curve: Vec<JsonValue> = points
        .iter()
        .map(|p| {
            object(&[
                ("payload_bytes", &p.payload),
                ("eager_ns", &p.eager_ns),
                ("lazy_key_ns", &p.lazy_key_ns),
                ("lazy_full_ns", &p.lazy_full_ns),
                ("speedup_key_touch", &p.speedup_key()),
                ("speedup_full_touch", &p.speedup_full()),
            ])
        })
        .collect();
    let cells = cells_json(
        cells,
        &[
            "sink",
            "machines",
            "emitted",
            "silent_lost",
            "lazy_wire_active",
            "materialized_any",
        ],
    );
    object(&[
        ("schema", &crate::JSON_SCHEMA),
        ("report", &"lazy_decode"),
        ("experiment", &"live_lazy_decode"),
        ("payload_sizes", &PAYLOADS),
        ("key_touch_speedup_64b", &small.speedup_key()),
        ("key_touch_speedup_16kib", &large.speedup_key()),
        ("full_touch_speedup_16kib", &large.speedup_full()),
        ("decode_curve", &curve),
        ("acceptance_cells", &cells),
    ])
}

/// Run the decode sweep, assert the acceptance margins, run the live
/// cells, and return the result table and the headline report.
pub fn run_experiment(scale: Scale) -> Output {
    let points = sweep();
    for p in &points {
        assert!(
            p.speedup_key() > 1.0,
            "payload {}: key touch must beat eager decode, got {:.2}×",
            p.payload,
            p.speedup_key()
        );
        assert!(
            p.speedup_full() >= 1.0,
            "payload {}: full touch must never lose to eager decode",
            p.payload
        );
    }
    for w in points.windows(2) {
        assert!(
            w[1].speedup_key() >= w[0].speedup_key(),
            "key-touch speedup must grow with payload size"
        );
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
    fn key_touch_beats_eager_at_every_payload() {
        for p in sweep() {
            assert!(p.speedup_key() > 1.0, "payload {}", p.payload);
            assert!(p.lazy_key_ns < p.eager_ns);
        }
    }

    #[test]
    fn full_touch_never_loses_and_key_speedup_grows() {
        let points = sweep();
        for p in &points {
            assert!(p.lazy_full_ns <= p.eager_ns, "payload {}", p.payload);
        }
        for w in points.windows(2) {
            assert!(w[1].speedup_key() > w[0].speedup_key());
        }
    }
}
