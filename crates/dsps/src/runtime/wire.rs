//! The live fabric's frame layout — the only place frame bytes are
//! written or read.
//!
//! Every frame starts with one kind byte: the low seven bits name the
//! kind, the high bit ([`TRACKED`]) says an acker ledger key follows.
//! All integers are little-endian.
//!
//! | kind | after the kind byte | bytes |
//! |---|---|---|
//! | 1 instance | `[tracked u64]` `src u32` `dst u32` item | 1 [+8] + 8 + item |
//! | 2 worker | `[tracked u64]` `src u32` `n u32` `dst u32 × n` item | 1 [+8] + 8 + 4n + item |
//! | 3 EOS | `src u32` `n u32` `dst u32 × n` | 9 + 4n |
//! | 4 relay | `origin u32` `epoch u32` `component u32` `tracked u64` item | 21 + item |
//! | 5 relay EOS | `origin u32` `epoch u32` `component u32` `src u32` | 17 |
//! | 6 relay marker | `origin u32` `epoch u32` | 9 |
//!
//! Only instance and worker frames take the [`TRACKED`] bit. A relay
//! frame always carries its ledger key inline (0 = untracked) so its
//! header stays fixed-offset and *child-invariant* — no node index, every
//! receiver derives its own — which is what lets a relay forward the
//! received bytes verbatim. Anchors never travel: both sides derive them
//! from `(tracked, dst)`.

use crate::codec::{
    need, DecodeError, InstanceMessageView, LazyTuple, RelayHeader, WorkerMessageView,
};
use crate::task::{ComponentId, TaskId};
use bytes::{Buf, BufMut, BytesMut};
use std::ops::Range;
use std::sync::Arc;
use whale_net::Payload;

const KIND_INSTANCE: u8 = 1;
const KIND_WORKER: u8 = 2;
const KIND_EOS: u8 = 3;
const KIND_RELAY: u8 = 4;
const KIND_RELAY_EOS: u8 = 5;
const KIND_RELAY_MARKER: u8 = 6;
/// Kind-byte flag: a `tracked u64` ledger key follows the kind byte.
const TRACKED: u8 = 0x80;

/// End-of-stream traveling the relay tree (the same path as relayed
/// data, so it cannot overtake in-flight tuples).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct RelayEos {
    /// Worker id of the source worker (tree root).
    pub origin: u32,
    /// Tree generation the frame was sent on.
    pub epoch: u32,
    /// Component whose instances receive the EOS.
    pub component: ComponentId,
    /// The upstream task that finished.
    pub src: TaskId,
}

/// End of a tree generation: the last frame `origin`'s tree of a
/// demoted generation carries down each link, behind all of that
/// generation's data (per-link FIFO).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct RelayMarker {
    /// Worker id of the tree's root.
    pub origin: u32,
    /// The demoted generation.
    pub epoch: u32,
}

/// One validated frame, borrowing the received bytes. Data items stay
/// lazy views; nothing is materialized here.
#[derive(Debug)]
pub(super) enum FrameView<'a> {
    /// Storm's per-destination message, with its ledger key when tracked.
    Instance(Option<u64>, InstanceMessageView<'a>),
    /// Whale's per-worker message, with its ledger key when tracked.
    Worker(Option<u64>, WorkerMessageView<'a>),
    /// Point-to-point end-of-stream from `src` to the listed tasks.
    Eos { src: TaskId, dsts: EosDsts<'a> },
    /// A relayed broadcast. The item is handed over unvalidated: a relay
    /// forwards the received bytes before it decodes anything.
    Relay { header: RelayHeader, item: &'a [u8] },
    /// A relayed end-of-stream.
    RelayEos(RelayEos),
    /// A demoted generation's end-of-generation marker.
    RelayMarker(RelayMarker),
}

/// The destination ids of an EOS frame, read straight off the wire.
#[derive(Clone, Copy, Debug)]
pub(super) struct EosDsts<'a>(&'a [u8]);

impl Iterator for EosDsts<'_> {
    type Item = TaskId;
    fn next(&mut self) -> Option<TaskId> {
        (self.0.len() >= 4).then(|| TaskId(self.0.get_u32_le()))
    }
}

/// Validate one received frame's framing. Truncated input, an unknown
/// kind byte, a [`TRACKED`] bit on a kind that does not take one, or a
/// length field the frame cannot back all come out as `Err`.
pub(super) fn parse(frame: &[u8]) -> Result<FrameView<'_>, DecodeError> {
    let mut buf = frame;
    need(&buf, 1)?;
    let byte = buf.get_u8();
    let (kind, tracked) = match byte & !TRACKED {
        kind @ (KIND_INSTANCE | KIND_WORKER) if byte & TRACKED != 0 => {
            need(&buf, 8)?;
            (kind, Some(buf.get_u64_le()))
        }
        _ => (byte, None),
    };
    match kind {
        KIND_INSTANCE => Ok(FrameView::Instance(
            tracked,
            InstanceMessageView::parse(buf)?,
        )),
        KIND_WORKER => Ok(FrameView::Worker(tracked, WorkerMessageView::parse(buf)?)),
        KIND_EOS => {
            need(&buf, 8)?;
            let src = TaskId(buf.get_u32_le());
            let n = buf.get_u32_le() as usize;
            need(&buf, n.saturating_mul(4))?;
            Ok(FrameView::Eos {
                src,
                dsts: EosDsts(&buf[..n * 4]),
            })
        }
        KIND_RELAY => Ok(FrameView::Relay {
            header: RelayHeader::decode(&mut buf)?,
            item: buf,
        }),
        KIND_RELAY_EOS => {
            need(&buf, 16)?;
            Ok(FrameView::RelayEos(RelayEos {
                origin: buf.get_u32_le(),
                epoch: buf.get_u32_le(),
                component: ComponentId(buf.get_u32_le()),
                src: TaskId(buf.get_u32_le()),
            }))
        }
        KIND_RELAY_MARKER => {
            need(&buf, 8)?;
            Ok(FrameView::RelayMarker(RelayMarker {
                origin: buf.get_u32_le(),
                epoch: buf.get_u32_le(),
            }))
        }
        _ => Err(DecodeError::BadTag(byte)),
    }
}

fn put_kind(buf: &mut BytesMut, kind: u8, tracked: Option<u64>) {
    match tracked {
        Some(tr) => {
            buf.put_u8(kind | TRACKED);
            buf.put_u64_le(tr);
        }
        None => buf.put_u8(kind),
    }
}

/// Storm's per-destination frame. The item is encoded straight into the
/// frame — no per-destination clone.
pub(super) fn encode_instance(
    buf: &mut BytesMut,
    tracked: Option<u64>,
    src: TaskId,
    dst: TaskId,
    item: &LazyTuple,
) {
    put_kind(buf, KIND_INSTANCE, tracked);
    buf.put_u32_le(src.0);
    buf.put_u32_le(dst.0);
    item.encode_into(buf);
}

/// `n u32` `dst u32 × n`.
fn put_ids(buf: &mut BytesMut, ids: impl Iterator<Item = TaskId> + Clone) {
    buf.put_u32_le(ids.clone().count() as u32);
    for t in ids {
        buf.put_u32_le(t.0);
    }
}

/// Whale's per-worker frame, appended to `buf`. A data item is encoded
/// once however many worker frames it takes: `encoded` is where an
/// earlier frame of the same item left it in `buf`. Empty, this is the
/// first frame — the item is encoded straight behind the header and
/// `encoded` set to those bytes; otherwise they are copied.
pub(super) fn encode_worker(
    buf: &mut BytesMut,
    tracked: Option<u64>,
    src: TaskId,
    dsts: impl Iterator<Item = TaskId> + Clone,
    item: &LazyTuple,
    encoded: &mut Range<usize>,
) {
    put_kind(buf, KIND_WORKER, tracked);
    buf.put_u32_le(src.0);
    put_ids(buf, dsts);
    let at = buf.len();
    if Range::is_empty(encoded) {
        item.encode_into(buf);
        *encoded = at..buf.len();
    } else {
        buf.resize(at + encoded.len(), 0);
        buf.copy_within(encoded.clone(), at);
    }
}

/// A worker frame built the pre-fusion way — the item serialized on its
/// own, then copied behind a header — for tests to hold fused frames to.
#[cfg(test)]
pub(super) fn worker_around_item(
    tracked: Option<u64>,
    src: TaskId,
    dsts: &[TaskId],
    item: &[u8],
) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_kind(&mut buf, KIND_WORKER, tracked);
    crate::codec::WorkerMessage::encode_with_item_into(src, dsts, item, &mut buf);
    buf.to_vec()
}

/// Point-to-point end-of-stream from `src` to `dsts`.
pub(super) fn encode_eos(
    buf: &mut BytesMut,
    src: TaskId,
    dsts: impl Iterator<Item = TaskId> + Clone,
) {
    buf.put_u8(KIND_EOS);
    buf.put_u32_le(src.0);
    put_ids(buf, dsts);
}

/// A broadcast item entering the relay tree: the whole frame is encoded
/// exactly once and every hop forwards these bytes.
pub(super) fn encode_relay(buf: &mut BytesMut, header: RelayHeader, item: &LazyTuple) {
    buf.put_u8(KIND_RELAY);
    header.encode_into(buf);
    item.encode_into(buf);
}

/// End-of-stream entering the relay tree.
pub(super) fn encode_relay_eos(buf: &mut BytesMut, eos: RelayEos) {
    buf.put_u8(KIND_RELAY_EOS);
    buf.put_u32_le(eos.origin);
    buf.put_u32_le(eos.epoch);
    buf.put_u32_le(eos.component.0);
    buf.put_u32_le(eos.src.0);
}

/// A demoted generation's marker leaving `origin`, the root of its tree.
pub(super) fn encode_relay_marker(buf: &mut BytesMut, marker: RelayMarker) {
    buf.put_u8(KIND_RELAY_MARKER);
    buf.put_u32_le(marker.origin);
    buf.put_u32_le(marker.epoch);
}

/// An encoded frame ready for the fabric, by send semantics: one shared
/// buffer every post and retry refcounts (RDMA, a frame sent several
/// times), borrowed bytes lent to the fabric for a frame sent once (RDMA:
/// the ring writes them into the destination's stream slice), or borrowed
/// bytes the fabric copies per send (TCP). A received [`Payload`]
/// converts for free, so a relay forwards what it received without
/// touching it: a shared buffer is refcounted on, a frame that came in a
/// slice is lent again.
#[derive(Clone, Copy)]
pub(super) enum Wire<'a> {
    Shared(&'a Arc<[u8]>),
    Lent(&'a [u8]),
    Copied(&'a [u8]),
}

impl Wire<'_> {
    pub(super) fn len(&self) -> usize {
        match self {
            Wire::Shared(buf) => buf.len(),
            Wire::Lent(bytes) | Wire::Copied(bytes) => bytes.len(),
        }
    }
}

impl<'a> From<&'a Payload> for Wire<'a> {
    fn from(payload: &'a Payload) -> Self {
        match payload {
            Payload::Shared(buf) => Wire::Shared(buf),
            Payload::Slice(..) => Wire::Lent(payload.bytes()),
            Payload::Copied(bytes) => Wire::Copied(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple, Value};

    fn tuple() -> Tuple {
        Tuple::with_id(9, vec![Value::I64(-3), Value::str("driver-42")])
    }

    fn encoded(fill: impl FnOnce(&mut BytesMut)) -> Vec<u8> {
        let mut buf = BytesMut::new();
        fill(&mut buf);
        buf.to_vec()
    }

    /// Framing and — for relay frames, whose item `parse` leaves to the
    /// receiver — the data item both validate.
    fn valid(frame: &[u8]) -> bool {
        match parse(frame) {
            Ok(FrameView::Relay { item, .. }) => crate::codec::TupleView::parse(item).is_ok(),
            other => other.is_ok(),
        }
    }

    #[test]
    fn every_kind_roundtrips_and_every_strict_prefix_is_rejected() {
        let t = tuple();
        let owned = LazyTuple::from_tuple(t.clone());
        let item = crate::codec::encode_tuple(&t);
        let dsts = [TaskId(4), TaskId(5), TaskId(6)];
        let eos = RelayEos {
            origin: 2,
            epoch: 7,
            component: ComponentId(1),
            src: TaskId(3),
        };
        let mut frames = Vec::new();
        for tracked in [None, Some((3u64 << 48) | 0xBEEF)] {
            let f = encoded(|b| encode_instance(b, tracked, TaskId(1), TaskId(8), &owned));
            assert_eq!(f.len(), 1 + tracked.map_or(0, |_| 8) + 8 + item.len());
            match parse(&f).unwrap() {
                FrameView::Instance(tr, m) => {
                    assert_eq!(tr, tracked);
                    assert_eq!((m.src(), m.dst()), (TaskId(1), TaskId(8)));
                    assert_eq!(m.tuple().to_tuple().unwrap(), t);
                }
                other => panic!("instance frame parsed as {other:?}"),
            }
            frames.push(f);

            let ids = dsts.iter().copied();
            let f = encoded(|b| encode_worker(b, tracked, TaskId(1), ids, &owned, &mut (0..0)));
            assert_eq!(f, worker_around_item(tracked, TaskId(1), &dsts, &item));
            assert_eq!(
                f.len(),
                1 + tracked.map_or(0, |_| 8) + 8 + 4 * 3 + item.len()
            );
            match parse(&f).unwrap() {
                FrameView::Worker(tr, m) => {
                    assert_eq!(tr, tracked);
                    assert_eq!(m.src(), TaskId(1));
                    assert_eq!(m.dst_ids().collect::<Vec<_>>(), dsts);
                    assert_eq!(m.tuple().to_tuple().unwrap(), t);
                }
                other => panic!("worker frame parsed as {other:?}"),
            }
            frames.push(f);

            let header = RelayHeader {
                origin: 2,
                epoch: 7,
                component: 1,
                tracked: tracked.unwrap_or(0),
            };
            let f = encoded(|b| encode_relay(b, header, &owned));
            assert_eq!(f.len(), 1 + RelayHeader::WIRE_BYTES + item.len());
            match parse(&f).unwrap() {
                FrameView::Relay { header: h, item: i } => {
                    assert_eq!(h, header);
                    assert_eq!(i, &item[..]);
                }
                other => panic!("relay frame parsed as {other:?}"),
            }
            frames.push(f);
        }
        let f = encoded(|b| encode_eos(b, TaskId(3), dsts.iter().copied()));
        assert_eq!(f.len(), 9 + 4 * 3);
        match parse(&f).unwrap() {
            FrameView::Eos { src, dsts: d } => {
                assert_eq!(src, TaskId(3));
                assert_eq!(d.collect::<Vec<_>>(), dsts);
            }
            other => panic!("EOS frame parsed as {other:?}"),
        }
        frames.push(f);
        let f = encoded(|b| encode_relay_eos(b, eos));
        assert_eq!(f.len(), 17);
        match parse(&f).unwrap() {
            FrameView::RelayEos(back) => assert_eq!(back, eos),
            other => panic!("relay EOS frame parsed as {other:?}"),
        }
        frames.push(f);
        let marker = RelayMarker {
            origin: 2,
            epoch: 7,
        };
        let f = encoded(|b| encode_relay_marker(b, marker));
        assert_eq!(f.len(), 9);
        match parse(&f).unwrap() {
            FrameView::RelayMarker(back) => assert_eq!(back, marker),
            other => panic!("relay marker parsed as {other:?}"),
        }
        frames.push(f);

        for f in &frames {
            assert!(valid(f));
            for cut in 0..f.len() {
                assert!(!valid(&f[..cut]), "kind {:#x} cut at {cut}", f[0]);
            }
        }
    }

    #[test]
    fn fused_worker_frames_match_frames_built_around_a_separate_item() {
        // One tuple to 1..=4 remote workers, all frames back to back in
        // one scratch the way the send path builds them: the first
        // serializes the item in place, the rest copy it — and every one
        // is the frame a separately serialized item would have given.
        let t = tuple();
        let owned = LazyTuple::from_tuple(t.clone());
        let item = crate::codec::encode_tuple(&t);
        for workers in 1..=4u32 {
            for tracked in [None, Some((3u64 << 48) | 0xBEEF)] {
                let mut buf = BytesMut::new();
                let mut at = 0..0;
                for w in 0..workers {
                    // Worker w hosts w + 1 tasks: header lengths differ.
                    let dsts: Vec<TaskId> = (0..=w).map(|i| TaskId(10 * w + i)).collect();
                    let start = buf.len();
                    let ids = dsts.iter().copied();
                    encode_worker(&mut buf, tracked, TaskId(1), ids, &owned, &mut at);
                    assert_eq!(
                        buf[start..],
                        worker_around_item(tracked, TaskId(1), &dsts, &item)[..],
                        "frame {w} of {workers}, tracked {tracked:?}"
                    );
                    assert!(valid(&buf[start..]));
                }
                assert_eq!(buf[at], item[..], "the item was serialized once");
            }
        }
    }

    #[test]
    fn a_received_item_frames_as_its_reencode_does() {
        // The item in the middle of a received frame, as a pipeline
        // anchors it — materialized or not, every kind of frame built
        // around its bytes is the frame built around its decode.
        let t = tuple();
        let (mut received, owned) = (BytesMut::new(), LazyTuple::from_tuple(t));
        let dst = [TaskId(2)].into_iter();
        encode_worker(&mut received, None, TaskId(0), dst, &owned, &mut (0..0));
        let received: Arc<[u8]> = Arc::from(&received[..]);
        let Ok(FrameView::Worker(_, m)) = parse(&received) else {
            panic!("a worker frame")
        };
        let wire = LazyTuple::from_wire_view(Arc::clone(&received), m.tuple());
        let header = RelayHeader {
            origin: 1,
            epoch: 2,
            component: 3,
            tracked: 4,
        };
        let frames = |item: &LazyTuple| {
            let dsts = [TaskId(5), TaskId(6)].into_iter();
            [
                encoded(|b| encode_instance(b, Some(7), TaskId(1), TaskId(5), item)),
                encoded(|b| encode_worker(b, Some(7), TaskId(1), dsts, item, &mut (0..0))),
                encoded(|b| encode_relay(b, header, item)),
            ]
        };
        let forwarded = frames(&wire);
        assert!(wire.is_wire() && !wire.is_materialized());
        let reencoded = LazyTuple::from_tuple(wire.materialize().unwrap().clone());
        assert_eq!(wire.wire_len(), reencoded.wire_len());
        assert_eq!(forwarded, frames(&reencoded));
        assert_eq!(forwarded, frames(&wire), "once materialized, as before");
    }

    #[test]
    fn unknown_kinds_misplaced_flags_and_lying_lengths_are_rejected() {
        for kind in [0u8, 7, 8, 99, 0x7f, TRACKED, TRACKED | 7] {
            let mut f = vec![kind];
            f.extend_from_slice(&[0u8; 64]);
            assert_eq!(parse(&f).err(), Some(DecodeError::BadTag(kind)));
        }
        // Only instance and worker frames take the TRACKED bit.
        for kind in [KIND_EOS, KIND_RELAY, KIND_RELAY_EOS, KIND_RELAY_MARKER] {
            let mut f = vec![kind | TRACKED];
            f.extend_from_slice(&[0u8; 64]);
            assert_eq!(parse(&f).err(), Some(DecodeError::BadTag(kind | TRACKED)));
        }
        // An EOS claiming more destinations than it carries.
        let mut f = encoded(|b| encode_eos(b, TaskId(0), [TaskId(1)].into_iter()));
        f[5..9].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(parse(&f).err(), Some(DecodeError::Truncated));
        f[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(parse(&f).err(), Some(DecodeError::Truncated));
    }
}
