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
//! | 2 worker | `[tracked u64]` `src u32` `n u32` `dst u32 × n` item, then more worker records | 1 [+8] + 8 + 4n + item per record |
//! | 3 EOS | `src u32` `n u32` `dst u32 × n` | 9 + 4n |
//! | 4 relay | `origin u32` `epoch u32` `component u32` `tracked u64` item, then more relay records | 21 + item per record |
//! | 5 relay EOS | `origin u32` `epoch u32` `component u32` `src u32` | 17 |
//! | 6 relay marker | `origin u32` `epoch u32` | 9 |
//!
//! Only instance and worker frames take the [`TRACKED`] bit. A worker or
//! relay frame is one or more *records* back to back, each a kind byte,
//! a header and an item, with no length field between them: an item
//! delimits itself ([`TupleView::wire_len`]), so the next record starts
//! where it ends. A frame of one record is byte for byte what a lone
//! tuple always was. Each worker record has its own kind byte, so its own
//! [`TRACKED`] bit and ledger key: one frame may mix tracked and
//! untracked records. Every relay record of a frame is on the first
//! one's tree and generation (same `origin` and `epoch`). A relay record
//! always carries its ledger key inline (0 = untracked) so its header
//! stays fixed-offset and *child-invariant* — no node index, every
//! receiver derives its own — which is what lets a relay forward the
//! received bytes verbatim. Anchors never travel: both sides derive them
//! from `(tracked, dst)`.

use crate::codec::{
    need, DecodeError, InstanceMessageView, LazyTuple, RelayHeader, TupleView, WorkerMessageView,
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
    /// Whale's per-worker messages: one or more worker records, the first
    /// validated.
    Worker(WorkerRun<'a>),
    /// Point-to-point end-of-stream from `src` to the listed tasks.
    Eos { src: TaskId, dsts: EosDsts<'a> },
    /// A relayed broadcast: one or more relay records. The items are
    /// handed over unvalidated: a relay forwards the received bytes before
    /// it decodes anything.
    Relay(RelayRun<'a>),
    /// A relayed end-of-stream.
    RelayEos(RelayEos),
    /// A demoted generation's end-of-generation marker.
    RelayMarker(RelayMarker),
}

/// One worker record: its ledger key when tracked, and the message.
pub(super) type WorkerRecord<'a> = (Option<u64>, WorkerMessageView<'a>);

/// A received worker frame: its first record, read to tell the frame's
/// kind, and the bytes after it.
#[derive(Clone, Copy, Debug)]
pub(super) struct WorkerRun<'a> {
    first: WorkerRecord<'a>,
    rest: &'a [u8],
}

impl<'a> WorkerRun<'a> {
    /// The frame's records in order.
    pub(super) fn records(&self) -> Records<'a, WorkerRecord<'a>> {
        Records {
            next: Some(self.first),
            rest: self.rest,
            read: worker_record,
        }
    }
}

/// A received relay frame: the first record's header, read to admit the
/// whole frame, and the frame's bytes.
#[derive(Clone, Copy, Debug)]
pub(super) struct RelayRun<'a> {
    /// The first record's header: the frame's origin and generation.
    pub header: RelayHeader,
    /// The whole frame, the first record's kind byte and header included.
    frame: &'a [u8],
}

impl<'a> RelayRun<'a> {
    /// The frame's records in order, each a header and its item's view.
    pub(super) fn records(&self) -> Records<'a, (RelayHeader, TupleView<'a>)> {
        Records {
            next: None,
            rest: self.frame,
            read: relay_record,
        }
    }
}

/// The records of a worker or relay frame. A record that does not frame
/// (another kind byte, a short header, an item that fails to validate)
/// comes out as one `Err` and ends the walk: nothing after it can be
/// delimited.
pub(super) struct Records<'a, R> {
    /// A record already read (a worker frame's first).
    next: Option<R>,
    rest: &'a [u8],
    /// Read one record off the front of the bytes, advancing past it.
    read: fn(&mut &'a [u8]) -> Result<R, DecodeError>,
}

impl<'a, R> Iterator for Records<'a, R> {
    type Item = Result<R, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let record = match self.next.take() {
            Some(record) => Ok(record),
            None if self.rest.is_empty() => return None,
            None => (self.read)(&mut self.rest),
        };
        if record.is_err() {
            self.rest = &[];
        }
        Some(record)
    }
}

/// One worker record off the front of `buf`: kind byte (worker, tracked
/// or not), `[tracked u64]` and the message.
fn worker_record<'a>(buf: &mut &'a [u8]) -> Result<WorkerRecord<'a>, DecodeError> {
    need(&*buf, 1)?;
    let byte = buf.get_u8();
    if byte & !TRACKED != KIND_WORKER {
        return Err(DecodeError::BadTag(byte));
    }
    let tracked = if byte & TRACKED != 0 {
        need(&*buf, 8)?;
        Some(buf.get_u64_le())
    } else {
        None
    };
    let message = WorkerMessageView::parse(buf)?;
    buf.advance(8 + 4 * message.dst_len() + message.tuple().wire_len());
    Ok((tracked, message))
}

/// One relay record off the front of `buf`: kind byte, header and item.
fn relay_record<'a>(buf: &mut &'a [u8]) -> Result<(RelayHeader, TupleView<'a>), DecodeError> {
    need(&*buf, 1)?;
    let header = match buf.get_u8() {
        KIND_RELAY => RelayHeader::decode(buf)?,
        other => return Err(DecodeError::BadTag(other)),
    };
    let item = TupleView::parse(buf)?;
    buf.advance(item.wire_len());
    Ok((header, item))
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
    if buf[0] & !TRACKED == KIND_WORKER {
        let first = worker_record(&mut buf)?;
        return Ok(FrameView::Worker(WorkerRun { first, rest: buf }));
    }
    let byte = buf.get_u8();
    let (kind, tracked) = if byte == KIND_INSTANCE | TRACKED {
        need(&buf, 8)?;
        (KIND_INSTANCE, Some(buf.get_u64_le()))
    } else {
        (byte, None)
    };
    match kind {
        KIND_INSTANCE => Ok(FrameView::Instance(
            tracked,
            InstanceMessageView::parse(buf)?,
        )),
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
        KIND_RELAY => Ok(FrameView::Relay(RelayRun {
            header: RelayHeader::decode(&mut buf)?,
            frame,
        })),
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

/// Whale's per-worker record, appended to `buf`: alone it is a whole
/// worker frame, and records appended back to back are one frame too. A
/// data item is encoded once however many records it takes: `encoded`
/// holds its bytes when an earlier record of the same item already
/// serialized it, and they are copied; `None`, the item is encoded
/// straight behind the header. Returns where in `buf` the item's bytes
/// now are.
pub(super) fn encode_worker(
    buf: &mut BytesMut,
    tracked: Option<u64>,
    src: TaskId,
    dsts: impl Iterator<Item = TaskId> + Clone,
    item: &LazyTuple,
    encoded: Option<&[u8]>,
) -> Range<usize> {
    put_kind(buf, KIND_WORKER, tracked);
    buf.put_u32_le(src.0);
    put_ids(buf, dsts);
    let at = buf.len();
    match encoded {
        Some(bytes) => buf.put_slice(bytes),
        None => item.encode_into(buf),
    }
    at..buf.len()
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

/// A broadcast item entering the relay tree as one relay record, appended
/// to `buf`: alone it is a whole relay frame, and records appended back to
/// back are one frame too. Encoded exactly once; every hop forwards these
/// bytes.
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

    /// Framing and — for worker and relay frames, whose later records
    /// `parse` leaves to the receiver — every record both validate.
    fn valid(frame: &[u8]) -> bool {
        match parse(frame) {
            Ok(FrameView::Worker(run)) => run.records().all(|record| record.is_ok()),
            Ok(FrameView::Relay(run)) => run.records().all(|record| record.is_ok()),
            other => other.is_ok(),
        }
    }

    /// `(tracked, src, dsts, item bytes)` of each record of a worker
    /// frame, up to the first that does not frame.
    type Worker = (Option<u64>, TaskId, Vec<TaskId>, Vec<u8>);
    fn worker_records(frame: &[u8]) -> Vec<Worker> {
        let Ok(FrameView::Worker(run)) = parse(frame) else {
            panic!("a worker frame")
        };
        let records = run.records().map_while(Result::ok);
        let record = |(tracked, m): WorkerRecord<'_>| {
            let item = m.tuple().wire_bytes().to_vec();
            (tracked, m.src(), m.dst_ids().collect(), item)
        };
        records.map(record).collect()
    }

    /// `(header, item bytes)` of each record of a relay frame, up to the
    /// first that does not frame.
    fn records(frame: &[u8]) -> Vec<(RelayHeader, Vec<u8>)> {
        let Ok(FrameView::Relay(run)) = parse(frame) else {
            panic!("a relay frame")
        };
        let records = run.records().map_while(Result::ok);
        records
            .map(|(h, view)| (h, view.wire_bytes().to_vec()))
            .collect()
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
            let f = encoded(|b| {
                encode_worker(b, tracked, TaskId(1), ids, &owned, None);
            });
            assert_eq!(f, worker_around_item(tracked, TaskId(1), &dsts, &item));
            assert_eq!(
                f.len(),
                1 + tracked.map_or(0, |_| 8) + 8 + 4 * 3 + item.len()
            );
            match parse(&f).unwrap() {
                FrameView::Worker(run) => {
                    let records: Vec<_> = run.records().collect();
                    let [Ok((tr, m))] = records[..] else {
                        panic!("one record: {records:?}")
                    };
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
            assert_eq!(records(&f), [(header, item.to_vec())]);
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
        // One tuple to 1..=4 remote workers, each record in a run of its
        // own the way the send path builds them: the first serializes the
        // item in place, the rest copy its bytes — and every one is the
        // frame a separately serialized item would have given.
        let t = tuple();
        let owned = LazyTuple::from_tuple(t.clone());
        let item = crate::codec::encode_tuple(&t);
        for workers in 1..=4u32 {
            for tracked in [None, Some((3u64 << 48) | 0xBEEF)] {
                let mut first: Option<(BytesMut, Range<usize>)> = None;
                for w in 0..workers {
                    // Worker w hosts w + 1 tasks: header lengths differ.
                    let dsts: Vec<TaskId> = (0..=w).map(|i| TaskId(10 * w + i)).collect();
                    let mut buf = BytesMut::new();
                    let ids = dsts.iter().copied();
                    let encoded = first.as_ref().map(|(b, at)| &b[at.clone()]);
                    let at = encode_worker(&mut buf, tracked, TaskId(1), ids, &owned, encoded);
                    assert_eq!(
                        buf[..],
                        worker_around_item(tracked, TaskId(1), &dsts, &item)[..],
                        "frame {w} of {workers}, tracked {tracked:?}"
                    );
                    assert_eq!(buf[at.clone()], item[..]);
                    assert!(valid(&buf));
                    first.get_or_insert((buf, at));
                }
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
        encode_worker(&mut received, None, TaskId(0), dst, &owned, None);
        let received: Arc<[u8]> = Arc::from(&received[..]);
        let Ok(FrameView::Worker(run)) = parse(&received) else {
            panic!("a worker frame")
        };
        let (_, m) = run.records().next().unwrap().unwrap();
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
                encoded(|b| {
                    encode_worker(b, Some(7), TaskId(1), dsts, item, None);
                }),
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
    fn a_run_of_one_is_the_relay_frame_a_lone_tuple_always_was() {
        // Golden bytes: kind 4, origin 2, epoch 7, component 1, tracked
        // 0xBEEF, then the item (id 9, arity 2, i64 -3, str "driver-42").
        #[rustfmt::skip]
        let golden: &[u8] = &[
            4,
            2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0,
            0xEF, 0xBE, 0, 0, 0, 0, 0, 0,
            9, 0, 0, 0, 0, 0, 0, 0, 2, 0,
            1, 0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            3, 9, 0, 0, 0, b'd', b'r', b'i', b'v', b'e', b'r', b'-', b'4', b'2',
        ];
        let header = RelayHeader {
            origin: 2,
            epoch: 7,
            component: 1,
            tracked: 0xBEEF,
        };
        let owned = LazyTuple::from_tuple(tuple());
        assert_eq!(encoded(|b| encode_relay(b, header, &owned)), golden);
        let item = golden[1 + RelayHeader::WIRE_BYTES..].to_vec();
        assert_eq!(records(golden), [(header, item)]);
    }

    #[test]
    fn a_worker_run_of_one_is_the_worker_frame_a_lone_tuple_always_was() {
        // Golden bytes: kind 2 (| 0x80 tracked, then the ledger key
        // 0xBEEF), src 1, two destinations 4 and 5, then the item (id 9,
        // arity 2, i64 -3, str "driver-42").
        #[rustfmt::skip]
        let body: &[u8] = &[
            1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0,
            9, 0, 0, 0, 0, 0, 0, 0, 2, 0,
            1, 0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            3, 9, 0, 0, 0, b'd', b'r', b'i', b'v', b'e', b'r', b'-', b'4', b'2',
        ];
        let untracked = [&[2u8][..], body].concat();
        let key = [0xEF, 0xBE, 0, 0, 0, 0, 0, 0];
        let tracked = [&[0x82u8][..], &key, body].concat();
        let owned = LazyTuple::from_tuple(tuple());
        let dsts = [TaskId(4), TaskId(5)];
        let item = body[16..].to_vec();
        for (key, golden) in [(None, &untracked), (Some(0xBEEF), &tracked)] {
            let ids = dsts.iter().copied();
            let f = encoded(|b| {
                encode_worker(b, key, TaskId(1), ids, &owned, None);
            });
            assert_eq!(&f, golden, "tracked {key:?}");
            let record = (key, TaskId(1), dsts.to_vec(), item.clone());
            assert_eq!(worker_records(golden), [record]);
        }
    }

    #[test]
    fn worker_records_back_to_back_are_one_frame_read_in_order_up_to_a_corrupt_one() {
        // Four records, tracked and not in turn, to one destination each.
        let items: Vec<LazyTuple> = (0..4)
            .map(|n| {
                LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::str("x".repeat(n as usize))]))
            })
            .collect();
        let key = |n: u32| (n % 2 == 1).then_some(n as u64 * 1000);
        let mut run = BytesMut::new();
        let mut ends = Vec::new();
        for (n, item) in (0..).zip(&items) {
            let dst = [TaskId(10 + n)].into_iter();
            encode_worker(&mut run, key(n), TaskId(n), dst, item, None);
            ends.push(run.len());
        }
        let expected: Vec<Worker> = (0..)
            .zip(&items)
            .map(|(n, item)| {
                let bytes = encoded(|b| item.encode_into(b));
                (key(n), TaskId(n), vec![TaskId(10 + n)], bytes)
            })
            .collect();
        assert_eq!(worker_records(&run), expected);
        assert!(valid(&run));
        // Cut at a record boundary, a run is a shorter run; cut anywhere
        // else, its last record does not frame (and a cut inside the
        // first is no frame at all).
        for cut in 1..run.len() {
            let whole = ends.iter().position(|&end| end == cut);
            assert_eq!(valid(&run[..cut]), whole.is_some(), "cut at {cut}");
            if cut >= ends[0] {
                let framed = ends.iter().filter(|&&end| end <= cut).count();
                let read = worker_records(&run[..cut]);
                assert_eq!(read, expected[..framed], "cut at {cut}");
            }
        }
        // A third record whose kind byte is not worker: the two before it
        // are read, then one error, then nothing.
        let mut corrupt = run.to_vec();
        corrupt[ends[1]] = KIND_RELAY;
        let Ok(FrameView::Worker(run)) = parse(&corrupt) else {
            panic!("a worker frame")
        };
        let read: Vec<_> = run.records().map(|r| r.map(|(_, m)| m.src())).collect();
        let bad = Err(DecodeError::BadTag(KIND_RELAY));
        assert_eq!(read, [Ok(TaskId(0)), Ok(TaskId(1)), bad]);
    }

    #[test]
    fn records_back_to_back_are_one_frame_read_in_order_up_to_a_corrupt_one() {
        let header = |n: u32| RelayHeader {
            origin: 2,
            epoch: 7,
            component: n,
            tracked: n as u64,
        };
        let items: Vec<LazyTuple> = (0..4)
            .map(|n| {
                LazyTuple::from_tuple(Tuple::with_id(n, vec![Value::str("x".repeat(n as usize))]))
            })
            .collect();
        let mut run = BytesMut::new();
        let mut ends = Vec::new();
        for (n, item) in (0..).zip(&items) {
            encode_relay(&mut run, header(n), item);
            ends.push(run.len());
        }
        let expected: Vec<(RelayHeader, Vec<u8>)> = (0..)
            .zip(&items)
            .map(|(n, item)| (header(n), encoded(|b| item.encode_into(b))))
            .collect();
        assert_eq!(records(&run), expected);
        assert!(valid(&run));
        // Cut at a record boundary, a run is a shorter run; cut anywhere
        // else, its last record does not frame.
        for cut in 1 + RelayHeader::WIRE_BYTES..run.len() {
            let whole = ends.iter().position(|&end| end == cut);
            assert_eq!(valid(&run[..cut]), whole.is_some(), "cut at {cut}");
            let framed = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(records(&run[..cut]), expected[..framed], "cut at {cut}");
        }
        // A third record whose kind byte is not relay: the two before it
        // are read, then one error, then nothing.
        let mut corrupt = run.to_vec();
        corrupt[ends[1]] = KIND_EOS;
        let Ok(FrameView::Relay(run)) = parse(&corrupt) else {
            panic!("a relay frame")
        };
        let read: Vec<_> = run.records().map(|r| r.map(|(h, _)| h)).collect();
        let bad = Err(DecodeError::BadTag(KIND_EOS));
        assert_eq!(read, [Ok(header(0)), Ok(header(1)), bad]);
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
