//! A wire handle built in a recycled block ([`WireSpare`]) must be
//! indistinguishable from one built in a fresh block — whatever the item
//! before it was, whether it came from the same frame's buffer (whose
//! reference the spare keeps) or another's, and whatever was done with
//! that item's handle: fields read, the tuple materialized (and
//! memoized), a clone kept by a bolt, a clone sent to another thread.

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

/// What one item's receiver does with its handle.
#[derive(Clone, Debug)]
struct Item {
    tuple: Tuple,
    read_field: Option<usize>,
    materialize: bool,
    keep_clone: bool,
    cross_thread: bool,
}

/// One received frame: its items back to back in one buffer.
#[derive(Clone, Debug)]
struct Frame {
    /// Offset of the first item in its buffer (a frame header precedes
    /// it).
    start: usize,
    items: Vec<Item>,
}

/// Arity 0–20 crosses the inline offset table (16 entries).
fn item_strategy() -> impl Strategy<Value = Item> {
    (
        (
            any::<u64>(),
            proptest::collection::vec(value_strategy(), 0..21),
        ),
        (any::<bool>(), 0..21usize),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((id, values), (read, field), (m, k, c))| Item {
            tuple: Tuple::with_id(id, values),
            read_field: read.then_some(field),
            materialize: m,
            keep_clone: k,
            cross_thread: c,
        })
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (0..24usize, proptest::collection::vec(item_strategy(), 1..5))
        .prop_map(|(start, items)| Frame { start, items })
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
            let mut starts = Vec::new();
            for item in &f.items {
                starts.push(bytes.len());
                bytes.extend_from_slice(&encode_tuple(&item.tuple));
            }
            let buf: Arc<[u8]> = Arc::from(bytes);
            for (item, &start) in f.items.iter().zip(&starts) {
                let view = TupleView::parse(&buf[start..]).unwrap();
                let recycled = spare.anchor(&buf, &view);
                let fresh = LazyTuple::from_wire_view(Arc::clone(&buf), &view);
                prop_assert!(recycled.is_wire());
                let field = item.read_field;
                prop_assert_eq!(observe(&recycled, field), observe(&fresh, field));
                prop_assert!(!recycled.is_materialized(), "nothing memoized carries over");
                prop_assert_eq!(
                    recycled.view().unwrap().wire_bytes(),
                    fresh.view().unwrap().wire_bytes()
                );
                if item.materialize {
                    prop_assert_eq!(recycled.materialize().unwrap(), fresh.materialize().unwrap());
                    prop_assert_eq!(recycled.materialize().unwrap(), &item.tuple);
                    prop_assert_eq!(observe(&recycled, field), observe(&fresh, field));
                }
                if item.keep_clone {
                    kept.push((recycled.clone(), item.tuple.clone()));
                }
                if item.cross_thread {
                    to_peer.send(recycled.clone()).unwrap();
                    crossed.push(item.tuple.clone());
                }
                spare.reclaim(recycled);
                // Every clone a bolt kept of an earlier item still reads
                // that item, in its own block.
                for (handle, tuple) in &kept {
                    prop_assert_eq!(handle.id(), tuple.id);
                    for i in 0..tuple.arity() {
                        let v = handle.field(i).unwrap().unwrap().to_owned();
                        prop_assert_eq!(&v, tuple.get(i).unwrap());
                    }
                }
            }
            spare.release();
            if !f.items.iter().any(|item| item.keep_clone || item.cross_thread) {
                prop_assert_eq!(Arc::strong_count(&buf), 1, "the spare let go of the frame");
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
