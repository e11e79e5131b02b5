//! Property tests for the lazy decode layer: a [`TupleView`] borrowed
//! from the wire buffer must agree with the eager decoder on every
//! field, for every value type, arity, and message framing — and
//! adversarial buffers (truncations, corrupt tags, invalid UTF-8) must
//! surface `DecodeError`, never a panic or an over-read.

use proptest::prelude::*;
use std::sync::Arc;
use whale_dsps::codec::{self, decode_tuple, encode_tuple};
use whale_dsps::{
    DecodeError, InstanceMessage, InstanceMessageView, LazyTuple, TaskId, Tuple, TupleView, Value,
    WorkerMessage, WorkerMessageView,
};

/// Strategy over every `Value` variant, including arbitrary (valid)
/// UTF-8 strings and arbitrary byte blobs.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        any::<f64>().prop_map(Value::F64),
        ".{0,40}".prop_map(|s| Value::Str(Arc::from(s.as_str()))),
        proptest::collection::vec(any::<u8>(), 0..40)
            .prop_map(|b| Value::Bytes(Arc::from(b.as_slice()))),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Arbitrary tuples; arity range crosses the inline offset-table size
/// (16) so the spill path is exercised too.
fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (
        any::<u64>(),
        proptest::collection::vec(value_strategy(), 0..24),
    )
        .prop_map(|(id, values)| Tuple::with_id(id, values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// View-based field access is observationally identical to the eager
    /// decoder: same id, arity, values, and wire length.
    #[test]
    fn view_agrees_with_eager_decode(tuple in tuple_strategy()) {
        let bytes = encode_tuple(&tuple);
        let eager = decode_tuple(&mut &bytes[..]).unwrap();
        let view = TupleView::parse(&bytes).unwrap();

        prop_assert_eq!(view.id(), eager.id);
        prop_assert_eq!(view.arity(), eager.arity());
        prop_assert_eq!(view.wire_len(), bytes.len());
        for i in 0..view.arity() {
            let from_view = view.field(i).unwrap().unwrap();
            // Compare through the hash (canonicalizes NaN / -0.0) and
            // through a re-encode of the materialized value.
            prop_assert_eq!(
                whale_dsps::hash_value_view(&from_view),
                whale_dsps::hash_value(eager.get(i).unwrap()),
            );
            prop_assert_eq!(
                encode_tuple(&Tuple::new(vec![from_view.to_owned()]))[..],
                encode_tuple(&Tuple::new(vec![eager.get(i).unwrap().clone()]))[..],
            );
        }
        prop_assert!(view.field(view.arity()).is_none());
        // Full materialization roundtrips to the identical wire bytes.
        let owned = view.to_tuple().unwrap();
        prop_assert_eq!(encode_tuple(&owned)[..], bytes[..]);
    }

    /// A `LazyTuple` anchored to a shared receive buffer reads the same
    /// values lazily and after memoized materialization.
    #[test]
    fn lazy_tuple_agrees_with_eager_decode(tuple in tuple_strategy()) {
        let bytes = encode_tuple(&tuple);
        let buf: Arc<[u8]> = Arc::from(&bytes[..]);
        let lazy = LazyTuple::from_wire(Arc::clone(&buf), 0).unwrap();
        prop_assert!(lazy.is_wire());
        prop_assert_eq!(lazy.id(), tuple.id);
        prop_assert_eq!(lazy.arity(), tuple.arity());
        for i in 0..tuple.arity() {
            let v = lazy.field(i).unwrap().unwrap();
            prop_assert_eq!(
                whale_dsps::hash_value_view(&v),
                whale_dsps::hash_value(tuple.get(i).unwrap()),
            );
        }
        prop_assert!(!lazy.is_materialized(), "field reads must not materialize");
        let materialized = lazy.materialize().unwrap();
        prop_assert_eq!(encode_tuple(materialized)[..], bytes[..]);
    }

    /// Worker- and instance-oriented framing: the message views expose
    /// the same routing metadata and tuple as the owned decoders.
    #[test]
    fn message_views_agree_with_owned_decode(
        tuple in tuple_strategy(),
        src in 0u32..1000,
        dsts in proptest::collection::vec(0u32..1000, 1..24),
    ) {
        let dst_ids: Vec<TaskId> = dsts.iter().copied().map(TaskId).collect();
        let wm = WorkerMessage { src: TaskId(src), dst_ids: dst_ids.clone(), tuple: tuple.clone() };
        let bytes = wm.encode();
        let view = WorkerMessageView::parse(&bytes).unwrap();
        prop_assert_eq!(view.src(), TaskId(src));
        prop_assert_eq!(view.dst_len(), dst_ids.len());
        prop_assert_eq!(view.dst_ids().collect::<Vec<_>>(), dst_ids.clone());
        let owned = view.to_owned().unwrap();
        prop_assert_eq!(owned.encode()[..], bytes[..]);
        // The no-alloc dispatcher fans out to the same destinations.
        let mut scratch = vec![TaskId(999_999)];
        codec::dispatch_worker_message_into(&view, &mut scratch);
        let eager_dsts: Vec<TaskId> = codec::dispatch_worker_message(owned)
            .into_iter()
            .map(|a| a.dst)
            .collect();
        prop_assert_eq!(scratch, eager_dsts);

        let im = InstanceMessage { src: TaskId(src), dst: TaskId(src + 1), tuple };
        let bytes = im.encode();
        let view = InstanceMessageView::parse(&bytes).unwrap();
        prop_assert_eq!(view.src(), TaskId(src));
        prop_assert_eq!(view.dst(), TaskId(src + 1));
        prop_assert_eq!(view.to_owned().unwrap().encode()[..], bytes[..]);
    }

    /// Every strict prefix of a valid encoding fails cleanly: framing
    /// validation must bounds-check every length before trusting it.
    #[test]
    fn truncations_error_and_never_panic(tuple in tuple_strategy()) {
        let bytes = encode_tuple(&tuple);
        for cut in 0..bytes.len() {
            prop_assert!(
                TupleView::parse(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not parse",
                bytes.len(),
            );
        }
        let wm = WorkerMessage {
            src: TaskId(1),
            dst_ids: vec![TaskId(2), TaskId(3)],
            tuple: tuple.clone(),
        }
        .encode();
        for cut in 0..wm.len() {
            prop_assert!(WorkerMessageView::parse(&wm[..cut]).is_err());
        }
        let im = InstanceMessage { src: TaskId(1), dst: TaskId(2), tuple }.encode();
        for cut in 0..im.len() {
            prop_assert!(InstanceMessageView::parse(&im[..cut]).is_err());
        }
    }

    /// Arbitrary single-byte corruption anywhere in the buffer: parse
    /// plus a full field walk plus materialization either succeeds or
    /// returns `DecodeError` — it never panics and never reads out of
    /// bounds (an over-read would abort the test as a slice panic).
    #[test]
    fn corrupted_bytes_never_panic(
        tuple in tuple_strategy(),
        pos_seed in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let bytes = encode_tuple(&tuple);
        let mut corrupt = bytes.to_vec();
        let pos = pos_seed % corrupt.len();
        corrupt[pos] = byte;
        if let Ok(view) = TupleView::parse(&corrupt) {
            for i in 0..view.arity() {
                let _ = view.field(i);
            }
            let _ = view.to_tuple();
        }
    }

    /// Arbitrary garbage buffers (not derived from any encoding) are
    /// handled just as safely.
    #[test]
    fn garbage_buffers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(view) = TupleView::parse(&data) {
            let _ = view.to_tuple();
        }
        if let Ok(view) = WorkerMessageView::parse(&data) {
            let _ = view.to_owned();
        }
        if let Ok(view) = InstanceMessageView::parse(&data) {
            let _ = view.to_owned();
        }
    }
}

/// Invalid UTF-8 is deferred past framing validation and surfaces as
/// `DecodeError::BadUtf8` exactly at the access that touches the string
/// — sibling fields stay readable.
#[test]
fn bad_utf8_is_deferred_to_the_touching_access() {
    let tuple = Tuple::new(vec![Value::str("corrupt-me"), Value::I64(7)]);
    let mut bytes = encode_tuple(&tuple).to_vec();
    // Layout: 8B id | 2B arity | tag | 4B len | payload...
    assert_eq!(bytes[10], 3, "first value must be a string");
    bytes[15] = 0xFF; // 0xFF can never appear in valid UTF-8
    let view = TupleView::parse(&bytes).expect("framing is intact");
    assert_eq!(view.field(0), Some(Err(DecodeError::BadUtf8)));
    assert_eq!(view.field(1).unwrap().unwrap().as_i64(), Some(7));
    assert!(view.to_tuple().is_err());
    let lazy = LazyTuple::from_wire(Arc::from(&bytes[..]), 0).unwrap();
    assert!(lazy.materialize().is_err());
}
