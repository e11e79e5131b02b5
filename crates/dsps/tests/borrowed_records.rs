//! A received record runs on a handle borrowed from its frame's buffer
//! ([`WireRecord`]); only what outlives the call is promoted into a block
//! of its own. Both must be indistinguishable from a fresh owned handle
//! over the same bytes: the borrowed one whatever was done with it, and a
//! promoted one whenever it was promoted — before anything was read,
//! after a field read, after the record was materialized — by `clone` or
//! by `into_owned`, and whether it was kept or sent to another thread.
//! From its promotion on, the record and its block share one memo. A
//! borrowed record holds no buffer reference; its block holds exactly
//! one, however many handles share it, until they drop.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use whale_dsps::codec::encode_tuple;
use whale_dsps::{LazyTuple, Tuple, TupleView, Value, WireRecord};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        ".{0,40}".prop_map(|s| Value::Str(Arc::from(s.as_str()))),
        proptest::collection::vec(any::<u8>(), 0..60)
            .prop_map(|b| Value::Bytes(Arc::from(b.as_slice()))),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// When a record's handle is promoted, if it is.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Promote {
    Never,
    First,
    AfterRead,
    AfterMaterialize,
}

/// What one record's receiver does with its handle.
#[derive(Clone, Debug)]
struct Item {
    tuple: Tuple,
    read_field: Option<usize>,
    materialize: bool,
    promote: Promote,
    /// Promote by `into_owned` (of a clone) rather than by `clone`.
    into_owned: bool,
    keep: bool,
    cross_thread: bool,
}

/// One received frame: its records back to back in one buffer.
#[derive(Clone, Debug)]
struct Frame {
    /// Offset of the first record in its buffer (a frame header precedes
    /// it).
    start: usize,
    items: Vec<Item>,
}

/// Arity 0–20 crosses the inline offset table (16 entries).
fn item_strategy() -> impl Strategy<Value = Item> {
    use Promote::*;
    let promote = (0..4usize).prop_map(|k| [Never, First, AfterRead, AfterMaterialize][k]);
    (
        (
            any::<u64>(),
            proptest::collection::vec(value_strategy(), 0..21),
        ),
        (any::<bool>(), 0..21usize, any::<bool>()),
        (promote, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((id, values), (read, field, m), (promote, into_owned, keep, cross))| Item {
                tuple: Tuple::with_id(id, values),
                read_field: read.then_some(field),
                materialize: m,
                promote,
                into_owned,
                keep,
                cross_thread: cross,
            },
        )
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
    fn a_record_promoted_anywhere_equals_a_fresh_owned_handle(
        frames in proptest::collection::vec(frame_strategy(), 1..24)
    ) {
        // "Another shard": materializes what it is sent, reports it, and
        // holds the handle until the end.
        let (to_peer, peer_rx) = mpsc::channel::<LazyTuple<'static>>();
        let (peer_tx, from_peer) = mpsc::channel::<Tuple>();
        let peer = std::thread::spawn(move || {
            let mut held = Vec::new();
            for t in peer_rx {
                let _ = peer_tx.send(t.materialize().unwrap().clone());
                held.push(t);
            }
        });
        let mut kept: Vec<(LazyTuple<'static>, Tuple)> = Vec::new();
        let mut crossed: Vec<Tuple> = Vec::new();
        let mut bufs = Vec::new();
        for f in &frames {
            let mut bytes = vec![0xA5u8; f.start];
            let mut starts = Vec::new();
            for item in &f.items {
                starts.push(bytes.len());
                bytes.extend_from_slice(&encode_tuple(&item.tuple));
            }
            let buf: Arc<[u8]> = Arc::from(bytes);
            // Promoted handles of this frame still alive.
            let mut held = 0;
            for (item, &start) in f.items.iter().zip(&starts) {
                let view = TupleView::parse(&buf[start..]).unwrap();
                let record = WireRecord::new(&buf, &view);
                let lent = record.tuple();
                let fresh = LazyTuple::from_wire_view(Arc::clone(&buf), &view);
                prop_assert!(lent.is_wire() && lent.is_borrowed());
                prop_assert!(!fresh.is_borrowed());
                prop_assert_eq!(Arc::strong_count(&buf), 2 + held, "lending takes no reference");
                let field = item.read_field;
                let mut promoted = None;
                let mut promote = |at: Promote| {
                    if item.promote == at {
                        // `into_owned` of a handle lent again, or a clone
                        // (already its own block: `into_owned` only
                        // re-types it).
                        promoted = Some(if item.into_owned {
                            record.tuple().into_owned()
                        } else {
                            lent.clone().into_owned()
                        });
                    }
                };
                promote(Promote::First);
                prop_assert_eq!(observe(&lent, field), observe(&fresh, field));
                promote(Promote::AfterRead);
                if item.materialize {
                    prop_assert_eq!(lent.materialize().unwrap(), fresh.materialize().unwrap());
                    prop_assert_eq!(lent.materialize().unwrap(), &item.tuple);
                    prop_assert_eq!(observe(&lent, field), observe(&fresh, field));
                }
                let materialized = lent.is_materialized();
                promote(Promote::AfterMaterialize);
                prop_assert_eq!(
                    lent.view().unwrap().wire_bytes(),
                    fresh.view().unwrap().wire_bytes()
                );
                drop(fresh);
                let Some(promoted) = promoted else {
                    prop_assert_eq!(Arc::strong_count(&buf), 1 + held);
                    continue;
                };
                prop_assert!(promoted.is_wire() && !promoted.is_borrowed());
                prop_assert_eq!(Arc::strong_count(&buf), 2 + held, "one reference per promotion");
                // Promoting the record again shares its block.
                let again = lent.clone();
                prop_assert_eq!(Arc::strong_count(&buf), 2 + held, "one block per record");
                drop(again);
                // The block holds what the record memoized by its
                // promotion (a copy), or after it (the one decode).
                let memo_by_then = item.promote == Promote::AfterMaterialize && materialized;
                prop_assert_eq!(promoted.is_materialized(), materialized);
                let owned = LazyTuple::from_wire_view(Arc::clone(&buf), &view);
                if materialized {
                    owned.materialize().unwrap();
                }
                prop_assert_eq!(observe(&promoted, field), observe(&owned, field));
                prop_assert_eq!(
                    promoted.view().unwrap().wire_bytes(),
                    owned.view().unwrap().wire_bytes()
                );
                prop_assert_eq!(promoted.materialize().unwrap(), &item.tuple);
                if !memo_by_then {
                    let (decoded, lent) = (promoted.materialize(), lent.materialize());
                    prop_assert!(std::ptr::eq(decoded.unwrap(), lent.unwrap()), "one decode");
                }
                // A kept handle and one sent away share the one block.
                if item.keep || item.cross_thread {
                    held += 1;
                }
                if item.keep {
                    kept.push((promoted.clone(), item.tuple.clone()));
                }
                if item.cross_thread {
                    to_peer.send(promoted).unwrap();
                    crossed.push(item.tuple.clone());
                }
            }
            // Every handle kept of an earlier record still reads that
            // record, in its own block.
            for (handle, tuple) in &kept {
                prop_assert_eq!(handle.id(), tuple.id);
                for i in 0..tuple.arity() {
                    let v = handle.field(i).unwrap().unwrap().to_owned();
                    prop_assert_eq!(&v, tuple.get(i).unwrap());
                }
            }
            prop_assert_eq!(Arc::strong_count(&buf), 1 + held);
            bufs.push(buf);
        }
        drop(to_peer);
        peer.join().unwrap();
        let seen: Vec<Tuple> = from_peer.iter().collect();
        prop_assert_eq!(seen, crossed);
        for (handle, tuple) in &kept {
            prop_assert_eq!(handle.materialize().unwrap(), tuple);
        }
        drop(kept);
        for buf in &bufs {
            prop_assert_eq!(Arc::strong_count(buf), 1, "every promotion let go");
        }
    }
}
