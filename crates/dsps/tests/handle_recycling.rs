//! A wire handle built in a recycled block ([`WireSpare`]) must be
//! indistinguishable from one built in a fresh block — whatever the frame
//! before it was, and whatever was done with that frame's handle: fields
//! read, the tuple materialized (and memoized), a clone kept by a bolt, a
//! clone sent to another thread.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use whale_dsps::codec::encode_tuple;
use whale_dsps::{LazyTuple, Tuple, TupleView, Value, WireSpare};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        ".{0,40}".prop_map(|s| Value::Str(Arc::from(s.as_str()))),
        proptest::collection::vec(any::<u8>(), 0..60)
            .prop_map(|b| Value::Bytes(Arc::from(b.as_slice()))),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// What one frame's receiver does with its handle.
#[derive(Clone, Debug)]
struct Frame {
    tuple: Tuple,
    /// Offset of the item in its buffer (a frame header precedes it).
    start: usize,
    read_field: Option<usize>,
    materialize: bool,
    keep_clone: bool,
    cross_thread: bool,
}

/// Arity 0–20 crosses the inline offset table (16 entries).
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        (
            any::<u64>(),
            proptest::collection::vec(value_strategy(), 0..21),
        ),
        0..24usize,
        (any::<bool>(), 0..21usize),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((id, values), start, (read, field), (m, k, c))| Frame {
            tuple: Tuple::with_id(id, values),
            start,
            read_field: read.then_some(field),
            materialize: m,
            keep_clone: k,
            cross_thread: c,
        })
}

/// Everything observable through a handle, as comparable data.
fn observe(t: &LazyTuple, field: Option<usize>) -> (u64, usize, bool, Option<Option<Value>>) {
    let read = field.map(|i| t.field(i).map(|v| v.unwrap().to_owned()));
    (t.id(), t.arity(), t.is_materialized(), read)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recycled_handle_equals_fresh_handle(
        frames in proptest::collection::vec(frame_strategy(), 1..24)
    ) {
        // "Another shard": materializes what it is sent, drops it, and
        // reports what it saw.
        let (to_peer, peer_rx) = mpsc::channel::<LazyTuple>();
        let (peer_tx, from_peer) = mpsc::channel::<Tuple>();
        let peer = std::thread::spawn(move || {
            for t in peer_rx {
                let _ = peer_tx.send(t.materialize().unwrap().clone());
            }
        });
        let mut spare = WireSpare::default();
        let mut kept: Vec<(LazyTuple, Tuple)> = Vec::new();
        let mut crossed: Vec<Tuple> = Vec::new();
        for f in &frames {
            let mut bytes = vec![0xA5u8; f.start];
            bytes.extend_from_slice(&encode_tuple(&f.tuple));
            let buf: Arc<[u8]> = Arc::from(bytes);
            let view = TupleView::parse(&buf[f.start..]).unwrap();
            let recycled = spare.anchor(Arc::clone(&buf), &view);
            let fresh = LazyTuple::from_wire_view(Arc::clone(&buf), &view);
            prop_assert!(recycled.is_wire());
            prop_assert_eq!(observe(&recycled, f.read_field), observe(&fresh, f.read_field));
            prop_assert!(!recycled.is_materialized(), "nothing memoized carries over");
            prop_assert_eq!(
                recycled.view().unwrap().wire_bytes(),
                fresh.view().unwrap().wire_bytes()
            );
            if f.materialize {
                prop_assert_eq!(recycled.materialize().unwrap(), fresh.materialize().unwrap());
                prop_assert_eq!(recycled.materialize().unwrap(), &f.tuple);
                prop_assert_eq!(observe(&recycled, f.read_field), observe(&fresh, f.read_field));
            }
            if f.keep_clone {
                kept.push((recycled.clone(), f.tuple.clone()));
            }
            if f.cross_thread {
                to_peer.send(recycled.clone()).unwrap();
                crossed.push(f.tuple.clone());
            }
            spare.reclaim(recycled);
            // Every clone a bolt kept of an earlier frame still reads that
            // frame, in its own block.
            for (handle, tuple) in &kept {
                prop_assert_eq!(handle.id(), tuple.id);
                for i in 0..tuple.arity() {
                    let v = handle.field(i).unwrap().unwrap().to_owned();
                    prop_assert_eq!(&v, tuple.get(i).unwrap());
                }
            }
        }
        drop(to_peer);
        peer.join().unwrap();
        let seen: Vec<Tuple> = from_peer.iter().collect();
        prop_assert_eq!(seen, crossed);
        for (handle, tuple) in &kept {
            prop_assert_eq!(handle.materialize().unwrap(), tuple);
        }
    }
}
