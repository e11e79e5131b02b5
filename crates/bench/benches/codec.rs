//! Criterion microbenchmarks of the wire codec: the serialization
//! asymmetry that motivates worker-oriented communication, plus the
//! eager-vs-lazy decode comparison behind the zero-materialization
//! receive path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use whale_dsps::codec::{decode_tuple, encode_tuple};
use whale_dsps::{InstanceMessage, TaskId, Tuple, TupleView, Value, WorkerMessage};

fn sample_tuple() -> Tuple {
    Tuple::with_id(
        7,
        vec![
            Value::I64(123_456),
            Value::F64(39.91),
            Value::F64(116.33),
            Value::I64(1_620_000_000),
            Value::str("driver-payload-string"),
        ],
    )
}

fn bench_codec(c: &mut Criterion) {
    let tuple = sample_tuple();

    c.bench_function("encode_tuple", |b| {
        b.iter(|| encode_tuple(black_box(&tuple)))
    });

    let encoded = encode_tuple(&tuple);
    c.bench_function("decode_tuple", |b| {
        b.iter_batched(
            || encoded.clone(),
            |mut buf| decode_tuple(black_box(&mut buf)).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // The paper's comparison: serializing for 16 colocated instances.
    c.bench_function("instance_oriented_16_messages", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..16u32 {
                let m = InstanceMessage {
                    src: TaskId(0),
                    dst: TaskId(i),
                    tuple: tuple.clone(),
                };
                total += m.encode().len();
            }
            total
        })
    });

    c.bench_function("worker_oriented_1_message_16_ids", |b| {
        let dsts: Vec<TaskId> = (0..16).map(TaskId).collect();
        b.iter(|| {
            let item = encode_tuple(black_box(&tuple));
            WorkerMessage::encode_with_item(TaskId(0), &dsts, &item).len()
        })
    });
}

/// A tuple whose encoding is roughly `payload` bytes: an i64 key field
/// followed by one string carrying the bulk — the shape of the paper's
/// key-grouped application streams.
fn payload_tuple(payload: usize) -> Tuple {
    let body = "x".repeat(payload.saturating_sub(24));
    Tuple::with_id(7, vec![Value::I64(42), Value::str(body.as_str())])
}

/// Eager decode vs borrowed lazy views, touching one field vs all of
/// them, across payload sizes 64 B – 16 KiB. The lazy single-field
/// column is the case the receive path optimizes: key extraction and
/// sink bolts that never need the bulk of the tuple.
fn bench_lazy_decode(c: &mut Criterion) {
    for payload in [64usize, 512, 2048, 16384] {
        let tuple = payload_tuple(payload);
        let encoded = encode_tuple(&tuple);

        c.bench_function(&format!("eager_decode/{payload}"), |b| {
            b.iter_batched(
                || encoded.clone(),
                |mut buf| decode_tuple(black_box(&mut buf)).unwrap(),
                BatchSize::SmallInput,
            )
        });

        c.bench_function(&format!("lazy_view_1field/{payload}"), |b| {
            b.iter(|| {
                let view = TupleView::parse(black_box(&encoded[..])).unwrap();
                view.field(0).unwrap().unwrap().as_i64().unwrap()
            })
        });

        c.bench_function(&format!("lazy_view_full/{payload}"), |b| {
            b.iter(|| {
                let view = TupleView::parse(black_box(&encoded[..])).unwrap();
                let mut touched = 0usize;
                for f in view.fields() {
                    match f.unwrap() {
                        whale_dsps::ValueView::Str(s) => touched += s.len(),
                        whale_dsps::ValueView::I64(x) => touched += x as usize & 1,
                        _ => {}
                    }
                }
                touched
            })
        });
    }
}

criterion_group!(benches, bench_codec, bench_lazy_decode);
criterion_main!(benches);
