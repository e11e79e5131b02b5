//! The wire codec: hand-written serialization for tuples and the two
//! message formats of Fig 9, plus the lazy decode layer over received
//! wire buffers.
//!
//! Owning the codec matters for this reproduction: the paper's central
//! observation is that *per-destination* serialization dominates upstream
//! CPU, and worker-oriented communication fixes it by serializing the data
//! item once and packing destination ids into the header. The two formats:
//!
//! - [`InstanceMessage`] (Fig 9a, Storm): `destId | dataItem` — one message
//!   per destination instance, data item serialized every time.
//! - [`WorkerMessage`] (Fig 9b, Whale): `dstIds[] | dataItem` — one message
//!   per destination *worker*, data item serialized once.
//!
//! The receive side mirrors the send side's zero-copy discipline with
//! borrowed views: [`TupleView`] / [`WorkerMessageView`] /
//! [`InstanceMessageView`] validate framing once (tags and lengths;
//! UTF-8 is deferred to per-field access) and then resolve fields by
//! offset straight against the wire bytes — no `Vec<Value>`, no
//! per-field allocation. [`LazyTuple`] lends a received record to its
//! tasks straight off the receive buffer, anchors it to the shared
//! `Arc<[u8]>` only to outlive them, and decodes it at most once.

use crate::task::TaskId;
use crate::tuple::{Tuple, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::{Arc, OnceLock};

/// Errors from decoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    Truncated,
    /// Unknown type tag.
    BadTag(u8),
    /// String payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::BadTag(t) => write!(f, "unknown type tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BYTES: u8 = 4;
const TAG_BOOL: u8 = 5;

fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::I64(x) => {
            buf.put_u8(TAG_I64);
            buf.put_i64_le(*x);
        }
        Value::F64(x) => {
            buf.put_u8(TAG_F64);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
    }
}

pub(crate) fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    (buf.remaining() >= n).then_some(()).ok_or(DecodeError::Truncated)
}

fn decode_value(buf: &mut impl Buf) -> Result<Value, DecodeError> {
    need(buf, 1)?;
    match buf.get_u8() {
        TAG_I64 => {
            need(buf, 8)?;
            Ok(Value::I64(buf.get_i64_le()))
        }
        TAG_F64 => {
            need(buf, 8)?;
            Ok(Value::F64(buf.get_f64_le()))
        }
        TAG_STR => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            // Validate on the borrowed slice and copy once, straight into
            // the Arc — no intermediate Vec/String round-trip.
            let s = std::str::from_utf8(&buf.chunk()[..len]).map_err(|_| DecodeError::BadUtf8)?;
            let v = Value::Str(Arc::from(s));
            buf.advance(len);
            Ok(v)
        }
        TAG_BYTES => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            let v = Value::Bytes(Arc::from(&buf.chunk()[..len]));
            buf.advance(len);
            Ok(v)
        }
        TAG_BOOL => {
            need(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// Serialize a tuple into `buf` (the "data item" of the message formats).
/// Taking the destination buffer lets callers route every codec
/// allocation through a [`crate::pool::BufferPool`] scratch buffer.
pub fn encode_tuple_into(buf: &mut BytesMut, t: &Tuple) {
    buf.reserve(t.payload_bytes());
    buf.put_u64_le(t.id);
    buf.put_u16_le(t.values.len() as u16);
    for v in &t.values {
        encode_value(buf, v);
    }
}

/// Serialize a tuple into a fresh buffer. Hot paths should prefer
/// [`encode_tuple_into`] with a pooled buffer.
pub fn encode_tuple(t: &Tuple) -> Bytes {
    let mut buf = BytesMut::with_capacity(t.payload_bytes());
    encode_tuple_into(&mut buf, t);
    buf.freeze()
}

/// Deserialize a tuple.
pub fn decode_tuple(buf: &mut impl Buf) -> Result<Tuple, DecodeError> {
    need(buf, 10)?;
    let id = buf.get_u64_le();
    let arity = buf.get_u16_le() as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Tuple { id, values })
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Validate one encoded value's framing (tag known, payload in bounds —
/// UTF-8 deliberately not checked) and return the offset just past it.
fn skip_value(buf: &[u8], at: usize) -> Result<usize, DecodeError> {
    let tag = *buf.get(at).ok_or(DecodeError::Truncated)?;
    let end = match tag {
        TAG_I64 | TAG_F64 => at + 9,
        TAG_BOOL => at + 2,
        TAG_STR | TAG_BYTES => {
            if buf.len() < at + 5 {
                return Err(DecodeError::Truncated);
            }
            at + 5 + read_u32(buf, at + 1) as usize
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    if end > buf.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(end)
}

/// One field read lazily from the wire: scalars are decoded in place,
/// strings and byte blobs *borrow* the wire buffer. UTF-8 is validated
/// here, at access time — framing validation upstream skipped it.
/// [`ValueView::to_owned`] is the only point that allocates, and it
/// copies the payload exactly once.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ValueView<'a> {
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit float.
    F64(f64),
    /// A string slice borrowed from the wire buffer.
    Str(&'a str),
    /// A byte slice borrowed from the wire buffer.
    Bytes(&'a [u8]),
    /// A boolean.
    Bool(bool),
}

impl<'a> ValueView<'a> {
    /// Materialize an owned [`Value`] (one copy for `Str`/`Bytes`).
    pub fn to_owned(&self) -> Value {
        match self {
            ValueView::I64(x) => Value::I64(*x),
            ValueView::F64(x) => Value::F64(*x),
            ValueView::Str(s) => Value::Str(Arc::from(*s)),
            ValueView::Bytes(b) => Value::Bytes(Arc::from(*b)),
            ValueView::Bool(b) => Value::Bool(*b),
        }
    }

    /// The integer, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ValueView::I64(x) => Some(*x),
            _ => None,
        }
    }

    /// The float, if this is an `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueView::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueView::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The byte slice, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&'a [u8]> {
        match self {
            ValueView::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ValueView::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'a> From<&'a Value> for ValueView<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::I64(x) => ValueView::I64(*x),
            Value::F64(x) => ValueView::F64(*x),
            Value::Str(s) => ValueView::Str(s),
            Value::Bytes(b) => ValueView::Bytes(b),
            Value::Bool(b) => ValueView::Bool(*b),
        }
    }
}

/// Field offsets of the first `OFFSET_TABLE` values are cached inline at
/// parse time; deeper fields (rare — tuples here are narrow) are found
/// by walking forward from the last cached offset. Either way field
/// access never allocates.
const OFFSET_TABLE: usize = 16;

/// A borrowed, lazily-decoded tuple over its exact wire bytes.
///
/// [`TupleView::parse`] walks the encoding once, checking every tag and
/// length (so later offset arithmetic can't over-read) while *deferring*
/// UTF-8 validation to the field access that actually touches a string.
/// Field access resolves by offset against the borrowed buffer;
/// materialization ([`TupleView::to_tuple`]) is explicit.
#[derive(Clone, Copy, Debug)]
pub struct TupleView<'a> {
    /// Exactly the tuple's wire bytes: `id u64 | arity u16 | values…`.
    bytes: &'a [u8],
    id: u64,
    arity: u16,
    /// Byte offsets (into `bytes`) of the first [`OFFSET_TABLE`] values.
    offsets: [u32; OFFSET_TABLE],
}

impl<'a> TupleView<'a> {
    /// Validate framing at the front of `buf` and build the view.
    /// Trailing bytes past the tuple are ignored (callers embedding a
    /// tuple mid-frame use [`TupleView::wire_len`] to advance).
    pub fn parse(buf: &'a [u8]) -> Result<Self, DecodeError> {
        need(&buf, 10)?;
        let id = read_u64(buf, 0);
        let arity = u16::from_le_bytes(buf[8..10].try_into().unwrap());
        let mut offsets = [0u32; OFFSET_TABLE];
        let mut at = 10usize;
        for i in 0..arity as usize {
            if let Some(slot) = offsets.get_mut(i) {
                *slot = at as u32;
            }
            at = skip_value(buf, at)?;
        }
        Ok(TupleView {
            bytes: &buf[..at],
            id,
            arity,
            offsets,
        })
    }

    /// The tuple id (header field, free to read).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Encoded size in bytes — what a decoder consumes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// The exact wire bytes the view covers.
    pub fn wire_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Read field `i` in place. `None` past the arity; `Err(BadUtf8)`
    /// surfaces here for a string field whose (deferred) validation fails.
    pub fn field(&self, i: usize) -> Option<Result<ValueView<'a>, DecodeError>> {
        field_at(self.bytes, self.arity, &self.offsets, i)
    }

    /// Iterate all fields in order.
    pub fn fields(&self) -> impl Iterator<Item = Result<ValueView<'a>, DecodeError>> + '_ {
        (0..self.arity()).map(|i| self.field(i).expect("i < arity"))
    }

    /// Materialize an owned [`Tuple`] — equivalent to [`decode_tuple`]
    /// over the same bytes. This is the only allocating path.
    pub fn to_tuple(&self) -> Result<Tuple, DecodeError> {
        let mut values = Vec::with_capacity(self.arity());
        for f in self.fields() {
            values.push(f?.to_owned());
        }
        Ok(Tuple {
            id: self.id,
            values,
        })
    }
}

/// Byte offset of field `i` within a tuple's wire bytes `b`, from the
/// offsets of its first [`OFFSET_TABLE`] values. Framing was validated
/// at parse, so the walk past the offset table can't fail.
fn offset_of(b: &[u8], offsets: &[u32; OFFSET_TABLE], i: usize) -> usize {
    if i < OFFSET_TABLE {
        return offsets[i] as usize;
    }
    let mut at = offsets[OFFSET_TABLE - 1] as usize;
    for _ in OFFSET_TABLE - 1..i {
        at = skip_value(b, at).expect("validated at parse");
    }
    at
}

/// [`TupleView::field`] over the parts of a view, wherever they are kept:
/// a [`LazyTuple`] reads its block's in place, building no view.
fn field_at<'a>(
    b: &'a [u8],
    arity: u16,
    offsets: &[u32; OFFSET_TABLE],
    i: usize,
) -> Option<Result<ValueView<'a>, DecodeError>> {
    if i >= arity as usize {
        return None;
    }
    let at = offset_of(b, offsets, i);
    Some(match b[at] {
        TAG_I64 => Ok(ValueView::I64(i64::from_le_bytes(
            b[at + 1..at + 9].try_into().unwrap(),
        ))),
        TAG_F64 => Ok(ValueView::F64(f64::from_le_bytes(
            b[at + 1..at + 9].try_into().unwrap(),
        ))),
        TAG_STR => {
            let len = read_u32(b, at + 1) as usize;
            match std::str::from_utf8(&b[at + 5..at + 5 + len]) {
                Ok(s) => Ok(ValueView::Str(s)),
                Err(_) => Err(DecodeError::BadUtf8),
            }
        }
        TAG_BYTES => {
            let len = read_u32(b, at + 1) as usize;
            Ok(ValueView::Bytes(&b[at + 5..at + 5 + len]))
        }
        TAG_BOOL => Ok(ValueView::Bool(b[at + 1] != 0)),
        _ => unreachable!("tag validated at parse"),
    })
}

/// Borrowed view of a [`WorkerMessage`]: header fields resolve by fixed
/// offset, destination ids read straight from the wire, and the data
/// item stays a lazy [`TupleView`].
#[derive(Clone, Copy, Debug)]
pub struct WorkerMessageView<'a> {
    src: TaskId,
    /// The raw `dstIds[n]` region (4 bytes per id, little-endian).
    ids: &'a [u8],
    tuple: TupleView<'a>,
}

impl<'a> WorkerMessageView<'a> {
    /// Validate framing over `src | n | dstIds[n] | dataItem`.
    pub fn parse(buf: &'a [u8]) -> Result<Self, DecodeError> {
        need(&buf, 8)?;
        let src = TaskId(read_u32(buf, 0));
        let n = read_u32(buf, 4) as usize;
        let ids_end = 8 + 4 * n;
        need(&buf, ids_end)?;
        let tuple = TupleView::parse(&buf[ids_end..])?;
        Ok(WorkerMessageView {
            src,
            ids: &buf[8..ids_end],
            tuple,
        })
    }

    /// The emitting task.
    pub fn src(&self) -> TaskId {
        self.src
    }

    /// Number of destination tasks.
    pub fn dst_len(&self) -> usize {
        self.ids.len() / 4
    }

    /// Destination `i`, read at offset from the wire.
    pub fn dst(&self, i: usize) -> Option<TaskId> {
        (i < self.dst_len()).then(|| TaskId(read_u32(self.ids, 4 * i)))
    }

    /// All destination ids in wire order.
    pub fn dst_ids(&self) -> impl Iterator<Item = TaskId> + 'a {
        self.ids
            .chunks_exact(4)
            .map(|c| TaskId(u32::from_le_bytes(c.try_into().unwrap())))
    }

    /// The data item, still lazy.
    pub fn tuple(&self) -> &TupleView<'a> {
        &self.tuple
    }

    /// Materialize the owned message — equivalent to
    /// [`WorkerMessage::decode`] over the same bytes.
    pub fn to_owned(&self) -> Result<WorkerMessage, DecodeError> {
        Ok(WorkerMessage {
            src: self.src,
            dst_ids: self.dst_ids().collect(),
            tuple: self.tuple.to_tuple()?,
        })
    }
}

/// Borrowed view of an [`InstanceMessage`]: `src | dst | dataItem`.
#[derive(Clone, Copy, Debug)]
pub struct InstanceMessageView<'a> {
    src: TaskId,
    dst: TaskId,
    tuple: TupleView<'a>,
}

impl<'a> InstanceMessageView<'a> {
    /// Validate framing over `src | dst | dataItem`.
    pub fn parse(buf: &'a [u8]) -> Result<Self, DecodeError> {
        need(&buf, 8)?;
        Ok(InstanceMessageView {
            src: TaskId(read_u32(buf, 0)),
            dst: TaskId(read_u32(buf, 4)),
            tuple: TupleView::parse(&buf[8..])?,
        })
    }

    /// The emitting task.
    pub fn src(&self) -> TaskId {
        self.src
    }

    /// The destination task.
    pub fn dst(&self) -> TaskId {
        self.dst
    }

    /// The data item, still lazy.
    pub fn tuple(&self) -> &TupleView<'a> {
        &self.tuple
    }

    /// Materialize the owned message — equivalent to
    /// [`InstanceMessage::decode`] over the same bytes.
    pub fn to_owned(&self) -> Result<InstanceMessage, DecodeError> {
        Ok(InstanceMessage {
            src: self.src,
            dst: self.dst,
            tuple: self.tuple.to_tuple()?,
        })
    }
}

/// A tuple as executors receive it: owned, or a framing-validated region
/// of a received wire buffer — borrowed for the call that executes it
/// ([`WireRecord::tuple`]: no heap block, no buffer reference), or, to
/// outlive that call (a clone a bolt keeps, an entry handed to another
/// pipeline or queued), *promoted* by [`Clone`] or [`Self::into_owned`]:
/// anchored to the buffer's `Arc<[u8]>` in a block of its own, which
/// every later promotion of the same record shares. Field access never
/// allocates; [`LazyTuple::materialize`] decodes at most once and
/// memoizes it with the record — the borrowed record and its block share
/// the memo from the promotion on — so local executors that all call it
/// pay one decode, and those that only read a field or two never pay it.
/// A record materialized before its first promotion copies the decoded
/// tuple into its block rather than decode it again.
#[derive(Debug)]
pub struct LazyTuple<'a>(LazyRepr<'a>);

#[derive(Debug)]
enum LazyRepr<'a> {
    Owned(Arc<Tuple>),
    Wire(Block),
    Borrowed(&'a WireRecord<'a>),
}

/// What a handle reads: a tuple, or a record's bytes and framing.
enum Parts<'s> {
    Owned(&'s Tuple),
    Wire(&'s [u8], &'s Record),
}

/// One record's place in its wire buffer, its parsed framing, and its
/// memoized decode.
#[derive(Clone, Debug)]
struct Record {
    start: u32,
    len: u32,
    id: u64,
    arity: u16,
    offsets: [u32; OFFSET_TABLE],
    cache: OnceLock<Result<Tuple, DecodeError>>,
}

impl Record {
    /// `view` must borrow from `buf` (checked); nothing is re-validated
    /// or copied.
    fn new(buf: &[u8], view: &TupleView<'_>) -> Self {
        let (base, p) = (buf.as_ptr() as usize, view.bytes.as_ptr() as usize);
        assert!(
            p >= base && p + view.bytes.len() <= base + buf.len(),
            "view must borrow from the anchoring buffer"
        );
        Record {
            start: (p - base) as u32,
            len: view.bytes.len() as u32,
            id: view.id,
            arity: view.arity,
            offsets: view.offsets,
            cache: OnceLock::new(),
        }
    }

    /// The view over the record's own `bytes`.
    fn view<'s>(&self, bytes: &'s [u8]) -> TupleView<'s> {
        TupleView {
            bytes,
            id: self.id,
            arity: self.arity,
            offsets: self.offsets,
        }
    }
}

/// A received record borrowed from its wire buffer: what a receiver
/// builds on its stack and lends the tasks that execute it
/// ([`Self::tuple`]). It keeps the record's bytes at hand, the buffer
/// only to promote it, and its block once promoted.
#[derive(Debug)]
pub struct WireRecord<'a>(&'a Arc<[u8]>, &'a [u8], Record, OnceLock<Block>);

/// A promoted record: its buffer, and its place in it.
type Block = Arc<(Arc<[u8]>, Record)>;

impl<'a> WireRecord<'a> {
    /// The record `view` frames within `buf`.
    ///
    /// # Panics
    /// If `view` does not borrow from `buf`.
    pub fn new(buf: &'a Arc<[u8]>, view: &TupleView<'a>) -> Self {
        WireRecord(buf, view.bytes, Record::new(buf, view), OnceLock::new())
    }

    /// The record as its tasks execute it.
    pub fn tuple(&'a self) -> LazyTuple<'a> {
        LazyTuple(LazyRepr::Borrowed(self))
    }

    /// The record's block: made by the first promotion (one buffer
    /// reference, and the memo so far), shared by every later one.
    fn promote(&self) -> LazyRepr<'static> {
        let block = self.3.get_or_init(|| Arc::new((Arc::clone(self.0), self.2.clone())));
        LazyRepr::Wire(Arc::clone(block))
    }

    /// The framing and the memo: the block's once there is one.
    fn record(&self) -> &Record {
        self.3.get().map_or(&self.2, |block| &block.1)
    }
}

impl Clone for LazyTuple<'_> {
    /// Share an owned handle; promote a borrowed one.
    fn clone(&self) -> Self {
        LazyTuple(match &self.0 {
            LazyRepr::Owned(t) => LazyRepr::Owned(Arc::clone(t)),
            LazyRepr::Wire(w) => LazyRepr::Wire(Arc::clone(w)),
            LazyRepr::Borrowed(w) => w.promote(),
        })
    }
}

impl LazyTuple<'static> {
    /// Wrap an already-owned tuple.
    pub fn from_tuple(t: Tuple) -> Self {
        LazyTuple(LazyRepr::Owned(Arc::new(t)))
    }

    /// Share an already-owned tuple.
    pub fn from_arc(t: Arc<Tuple>) -> Self {
        LazyTuple(LazyRepr::Owned(t))
    }

    /// Anchor a parsed view to its backing shared buffer in a block of
    /// its own (`view` must borrow from `buf`, checked).
    pub fn from_wire_view(buf: Arc<[u8]>, view: &TupleView<'_>) -> Self {
        let record = Record::new(&buf, view);
        LazyTuple(LazyRepr::Wire(Arc::new((buf, record))))
    }

    /// Validate framing at `start` within `buf` and anchor the view.
    pub fn from_wire(buf: Arc<[u8]>, start: usize) -> Result<Self, DecodeError> {
        let view = TupleView::parse(&buf[start..])?;
        Ok(Self::from_wire_view(Arc::clone(&buf), &view))
    }
}

impl LazyTuple<'_> {
    /// The handle, free of the call it was lent for: an owned one as it
    /// is, a borrowed one promoted.
    pub fn into_owned(self) -> LazyTuple<'static> {
        LazyTuple(match self.0 {
            LazyRepr::Owned(t) => LazyRepr::Owned(t),
            LazyRepr::Wire(w) => LazyRepr::Wire(w),
            LazyRepr::Borrowed(w) => w.promote(),
        })
    }

    fn parts(&self) -> Parts<'_> {
        match &self.0 {
            LazyRepr::Owned(t) => Parts::Owned(t),
            LazyRepr::Wire(w) => {
                let (start, len) = (w.1.start as usize, w.1.len as usize);
                Parts::Wire(&w.0[start..start + len], &w.1)
            }
            LazyRepr::Borrowed(w) => Parts::Wire(w.1, w.record()),
        }
    }

    /// The tuple id (header field, free to read).
    pub fn id(&self) -> u64 {
        match self.parts() {
            Parts::Owned(t) => t.id,
            Parts::Wire(_, r) => r.id,
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        match self.parts() {
            Parts::Owned(t) => t.arity(),
            Parts::Wire(_, r) => r.arity as usize,
        }
    }

    /// True when the handle still points at wire bytes (materialized or
    /// not) rather than an owned tuple.
    #[inline]
    pub fn is_wire(&self) -> bool {
        !matches!(self.0, LazyRepr::Owned(_))
    }

    /// True while the handle borrows a received record: it lives for the
    /// call, and a clone of it takes a block of its own.
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        matches!(self.0, LazyRepr::Borrowed(_))
    }

    /// True once an owned [`Tuple`] exists behind this handle.
    pub fn is_materialized(&self) -> bool {
        !matches!(self.parts(), Parts::Wire(_, r) if r.cache.get().is_none())
    }

    /// Read field `i` without materializing. `None` past the arity;
    /// `Err(BadUtf8)` for a string field failing deferred validation.
    pub fn field(&self, i: usize) -> Option<Result<ValueView<'_>, DecodeError>> {
        match self.parts() {
            Parts::Owned(t) => t.get(i).map(|v| Ok(ValueView::from(v))),
            Parts::Wire(b, r) => field_at(b, r.arity, &r.offsets, i),
        }
    }

    /// The borrowed view, when the handle is wire-backed.
    pub fn view(&self) -> Option<TupleView<'_>> {
        match self.parts() {
            Parts::Owned(_) => None,
            Parts::Wire(b, r) => Some(r.view(b)),
        }
    }

    /// The owned tuple, decoding (and memoizing) it on first call. This
    /// is where a received tuple crosses the operator boundary; `Err`
    /// means the wire bytes hide a bad string that framing validation
    /// deliberately did not scan.
    pub fn materialize(&self) -> Result<&Tuple, DecodeError> {
        match self.parts() {
            Parts::Owned(t) => Ok(t),
            Parts::Wire(b, r) => {
                let memo = r.cache.get_or_init(|| r.view(b).to_tuple());
                memo.as_ref().map_err(|e| e.clone())
            }
        }
    }

    /// Field `i` as a routing key reads it: `None` past the arity, and
    /// for a wire string whose deferred UTF-8 check fails.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> Option<ValueView<'_>> {
        match self.parts() {
            Parts::Owned(t) => t.get(i).map(ValueView::from),
            Parts::Wire(b, r) => field_at(b, r.arity, &r.offsets, i)?.ok(),
        }
    }

    /// The length of the tuple's encoding: what [`Self::encode_into`]
    /// appends.
    #[inline]
    pub(crate) fn wire_len(&self) -> usize {
        match self.parts() {
            Parts::Owned(t) => t.payload_bytes(),
            Parts::Wire(b, _) => b.len(),
        }
    }

    /// Append the tuple's encoding to `buf`. An owned tuple is
    /// serialized; a wire-backed handle copies the bytes it was received
    /// as — never decoded, never validated past framing, and byte for
    /// byte what [`encode_tuple_into`] writes for their decode (for any
    /// bytes this codec wrote).
    #[inline]
    pub(crate) fn encode_into(&self, buf: &mut BytesMut) {
        match self.parts() {
            Parts::Owned(t) => encode_tuple_into(buf, t),
            Parts::Wire(b, _) => buf.put_slice(b),
        }
    }
}

/// Fig 9a: Storm's instance-oriented message — one destination id and a
/// freshly serialized copy of the data item.
#[derive(Clone, PartialEq, Debug)]
pub struct InstanceMessage {
    /// Emitting task.
    pub src: TaskId,
    /// The single destination task.
    pub dst: TaskId,
    /// The data item.
    pub tuple: Tuple,
}

impl InstanceMessage {
    /// Serialize `src | dst | dataItem` into `buf` without materializing
    /// an owned message — the hot path borrows the shared decoded tuple
    /// instead of cloning it per destination.
    pub fn encode_parts_into(src: TaskId, dst: TaskId, tuple: &Tuple, buf: &mut BytesMut) {
        buf.reserve(8 + tuple.payload_bytes());
        buf.put_u32_le(src.0);
        buf.put_u32_le(dst.0);
        encode_tuple_into(buf, tuple);
    }

    /// Serialize `src | dst | dataItem` into `buf` (pooled-buffer path).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        Self::encode_parts_into(self.src, self.dst, &self.tuple, buf);
    }

    /// Serialize: `src | dst | dataItem`.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_bytes());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Deserialize.
    pub fn decode(mut buf: impl Buf) -> Result<Self, DecodeError> {
        need(&buf, 8)?;
        let src = TaskId(buf.get_u32_le());
        let dst = TaskId(buf.get_u32_le());
        let tuple = decode_tuple(&mut buf)?;
        Ok(InstanceMessage { src, dst, tuple })
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        8 + self.tuple.payload_bytes()
    }
}

/// Fig 9b: Whale's worker-oriented `BatchTuple`/`WorkerMessage` — the ids
/// of all destination instances hosted on the same worker, plus the data
/// item serialized exactly once.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkerMessage {
    /// Emitting task.
    pub src: TaskId,
    /// All destination tasks on the receiving worker.
    pub dst_ids: Vec<TaskId>,
    /// The data item.
    pub tuple: Tuple,
}

impl WorkerMessage {
    /// Serialize `src | n | dstIds[n] | dataItem` into `buf`
    /// (pooled-buffer path).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.wire_bytes());
        buf.put_u32_le(self.src.0);
        buf.put_u32_le(self.dst_ids.len() as u32);
        for id in &self.dst_ids {
            buf.put_u32_le(id.0);
        }
        encode_tuple_into(buf, &self.tuple);
    }

    /// Serialize: `src | n | dstIds[n] | dataItem`.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_bytes());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serialize the worker header around an already-encoded data item
    /// into `buf` — the serialize-once fan-out path: the data item is
    /// encoded one time, then only the per-worker header differs.
    pub fn encode_with_item_into(src: TaskId, dst_ids: &[TaskId], item: &[u8], buf: &mut BytesMut) {
        buf.reserve(8 + 4 * dst_ids.len() + item.len());
        buf.put_u32_le(src.0);
        buf.put_u32_le(dst_ids.len() as u32);
        for id in dst_ids {
            buf.put_u32_le(id.0);
        }
        buf.put_slice(item);
    }

    /// Serialize around an already-encoded data item (the zero-copy path:
    /// the data item is serialized once and reused per worker).
    pub fn encode_with_item(src: TaskId, dst_ids: &[TaskId], item: &Bytes) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + 4 * dst_ids.len() + item.len());
        Self::encode_with_item_into(src, dst_ids, item, &mut buf);
        buf.freeze()
    }

    /// Deserialize.
    pub fn decode(mut buf: impl Buf) -> Result<Self, DecodeError> {
        need(&buf, 8)?;
        let src = TaskId(buf.get_u32_le());
        let n = buf.get_u32_le() as usize;
        need(&buf, 4 * n)?;
        let mut dst_ids = Vec::with_capacity(n);
        for _ in 0..n {
            dst_ids.push(TaskId(buf.get_u32_le()));
        }
        let tuple = decode_tuple(&mut buf)?;
        Ok(WorkerMessage {
            src,
            dst_ids,
            tuple,
        })
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        8 + 4 * self.dst_ids.len() + self.tuple.payload_bytes()
    }
}

/// The fixed-offset header of a relay frame traveling the multicast tree
/// (after the 1-byte fabric tag): `origin u32 | epoch u32 | component u32 |
/// tracked u64`, followed by the encoded data item.
///
/// The header is deliberately *child-invariant*: the receiver's tree-node
/// index is NOT carried. The node→worker mapping skips the origin and is
/// a bijection, so each relay derives its own node index from its worker
/// id instead — which means the exact received bytes can be forwarded to
/// every child as one shared buffer: no decode, no re-encode, no
/// per-child header patching on the forward path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RelayHeader {
    /// Worker id of the broadcast's source worker (tree root).
    pub origin: u32,
    /// Tree-structure epoch the frame was sent on; frames from retired
    /// epochs are dropped, never delivered.
    pub epoch: u32,
    /// Destination component of the broadcast.
    pub component: u32,
    /// XOR-acker ledger key (`attempt << 48 | root`), or 0 when the
    /// broadcast is untracked. Anchors are derived per destination, never
    /// carried.
    pub tracked: u64,
}

impl RelayHeader {
    /// Encoded size in bytes (excluding the fabric tag byte).
    pub const WIRE_BYTES: usize = 20;

    /// Serialize into `buf` at its current position.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(Self::WIRE_BYTES);
        buf.put_u32_le(self.origin);
        buf.put_u32_le(self.epoch);
        buf.put_u32_le(self.component);
        buf.put_u64_le(self.tracked);
    }

    /// Deserialize from `buf`, consuming exactly [`Self::WIRE_BYTES`].
    pub fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        need(&*buf, Self::WIRE_BYTES)?;
        Ok(RelayHeader {
            origin: buf.get_u32_le(),
            epoch: buf.get_u32_le(),
            component: buf.get_u32_le(),
            tracked: buf.get_u64_le(),
        })
    }
}

/// An `AddressedTuple`: what the dispatcher hands each local executor
/// after deserializing a [`WorkerMessage`] (§4).
#[derive(Clone, PartialEq, Debug)]
pub struct AddressedTuple {
    /// The destination task on this worker.
    pub dst: TaskId,
    /// The data item (shared — one deserialization, many destinations).
    pub tuple: Arc<Tuple>,
}

/// Expand a decoded [`WorkerMessage`] into per-task [`AddressedTuple`]s,
/// deserializing the data item exactly once.
pub fn dispatch_worker_message(msg: WorkerMessage) -> Vec<AddressedTuple> {
    let shared = Arc::new(msg.tuple);
    msg.dst_ids
        .iter()
        .map(|&dst| AddressedTuple {
            dst,
            tuple: Arc::clone(&shared),
        })
        .collect()
}

/// No-alloc fan-out of a parsed worker message: fill `dsts` (cleared
/// first) with the destination task ids, read straight from the wire.
/// The hot path reuses one scratch vector per pipeline and pairs each
/// id with one shared [`LazyTuple`] instead of materializing anything;
/// the owned [`dispatch_worker_message`] stays for tests.
pub fn dispatch_worker_message_into(msg: &WorkerMessageView<'_>, dsts: &mut Vec<TaskId>) {
    dsts.clear();
    dsts.extend(msg.dst_ids());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuple() -> Tuple {
        Tuple::with_id(
            99,
            vec![
                Value::I64(-7),
                Value::F64(3.25),
                Value::str("driver-42"),
                Value::Bytes(Arc::from(&[1u8, 2, 3][..])),
                Value::Bool(true),
            ],
        )
    }

    #[test]
    fn tuple_roundtrip() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        let mut buf = bytes.clone();
        let back = decode_tuple(&mut buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(buf.remaining(), 0, "decoder must consume everything");
    }

    #[test]
    fn encoded_size_matches_accounting() {
        let t = sample_tuple();
        assert_eq!(encode_tuple(&t).len(), t.payload_bytes());
    }

    #[test]
    fn instance_message_roundtrip() {
        let m = InstanceMessage {
            src: TaskId(3),
            dst: TaskId(77),
            tuple: sample_tuple(),
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_bytes());
        let back = InstanceMessage::decode(bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn worker_message_roundtrip() {
        let m = WorkerMessage {
            src: TaskId(3),
            dst_ids: vec![TaskId(10), TaskId(11), TaskId(12)],
            tuple: sample_tuple(),
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_bytes());
        let back = WorkerMessage::decode(bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn encode_with_item_equals_full_encode() {
        let t = sample_tuple();
        let item = encode_tuple(&t);
        let dsts = vec![TaskId(1), TaskId(2)];
        let a = WorkerMessage {
            src: TaskId(0),
            dst_ids: dsts.clone(),
            tuple: t,
        }
        .encode();
        let b = WorkerMessage::encode_with_item(TaskId(0), &dsts, &item);
        assert_eq!(a, b);
    }

    /// Byte-accounting drift guard: `wire_bytes()` is what the cost layer
    /// and the traffic counters charge, so it must stay exact under every
    /// encoding — batched, single-item, and empty-destination — and under
    /// both the direct and the shared-item (serialize-once) paths.
    #[test]
    fn wire_bytes_equals_encoded_len_for_all_shapes() {
        let shapes: Vec<Vec<TaskId>> = vec![
            (0..16).map(TaskId).collect(), // batched fan-out
            vec![TaskId(7)],               // single destination
            vec![],                        // empty destination set
        ];
        for dst_ids in shapes {
            let m = WorkerMessage {
                src: TaskId(3),
                dst_ids: dst_ids.clone(),
                tuple: sample_tuple(),
            };
            assert_eq!(
                m.wire_bytes(),
                m.encode().len(),
                "direct encode, {} destinations",
                dst_ids.len()
            );
            let item = encode_tuple(&m.tuple);
            assert_eq!(
                m.wire_bytes(),
                WorkerMessage::encode_with_item(m.src, &m.dst_ids, &item).len(),
                "shared-item encode, {} destinations",
                dst_ids.len()
            );
        }
        // The empty tuple bounds the other direction.
        let empty = WorkerMessage {
            src: TaskId(0),
            dst_ids: vec![],
            tuple: Tuple::new(vec![]),
        };
        assert_eq!(empty.wire_bytes(), empty.encode().len());
        let im = InstanceMessage {
            src: TaskId(1),
            dst: TaskId(2),
            tuple: sample_tuple(),
        };
        assert_eq!(im.wire_bytes(), im.encode().len());
    }

    #[test]
    fn pooled_encode_into_matches_fresh_encode() {
        let pool = crate::pool::BufferPool::default();
        let m = WorkerMessage {
            src: TaskId(3),
            dst_ids: vec![TaskId(10), TaskId(11)],
            tuple: sample_tuple(),
        };
        for round in 0..3 {
            let mut buf = pool.acquire();
            m.encode_into(&mut buf);
            assert_eq!(&buf[..], &m.encode()[..], "round {round}");
        }
        assert!(pool.hits() >= 2, "encode scratch buffers are reused");
    }

    #[test]
    fn worker_message_smaller_than_n_instance_messages() {
        let t = sample_tuple();
        let n = 16;
        let dsts: Vec<TaskId> = (0..n).map(TaskId).collect();
        let wm = WorkerMessage {
            src: TaskId(0),
            dst_ids: dsts,
            tuple: t.clone(),
        };
        let im_total: usize = (0..n)
            .map(|i| {
                InstanceMessage {
                    src: TaskId(0),
                    dst: TaskId(i),
                    tuple: t.clone(),
                }
                .wire_bytes()
            })
            .sum();
        assert!(
            wm.wire_bytes() * 5 < im_total,
            "worker message must amortize the data item"
        );
    }

    #[test]
    fn truncated_inputs_error() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        for cut in [0, 1, 5, 9, bytes.len() - 1] {
            let mut buf = bytes.slice(..cut);
            assert_eq!(
                decode_tuple(&mut buf),
                Err(DecodeError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut raw = BytesMut::new();
        raw.put_u64_le(1);
        raw.put_u16_le(1);
        raw.put_u8(200); // bad tag
        let mut buf = raw.freeze();
        assert_eq!(decode_tuple(&mut buf), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut raw = BytesMut::new();
        raw.put_u64_le(1);
        raw.put_u16_le(1);
        raw.put_u8(TAG_STR);
        raw.put_u32_le(2);
        raw.put_slice(&[0xFF, 0xFE]);
        let mut buf = raw.freeze();
        assert_eq!(decode_tuple(&mut buf), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn dispatch_shares_one_deserialization() {
        let m = WorkerMessage {
            src: TaskId(0),
            dst_ids: vec![TaskId(5), TaskId(6)],
            tuple: sample_tuple(),
        };
        let addressed = dispatch_worker_message(m);
        assert_eq!(addressed.len(), 2);
        assert_eq!(addressed[0].dst, TaskId(5));
        assert_eq!(addressed[1].dst, TaskId(6));
        assert!(Arc::ptr_eq(&addressed[0].tuple, &addressed[1].tuple));
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new(vec![]);
        let mut buf = encode_tuple(&t);
        assert_eq!(decode_tuple(&mut buf).unwrap(), t);
    }

    #[test]
    fn empty_string_and_bytes() {
        let t = Tuple::new(vec![Value::str(""), Value::Bytes(Arc::from(&[][..]))]);
        let mut buf = encode_tuple(&t);
        assert_eq!(decode_tuple(&mut buf).unwrap(), t);
    }

    #[test]
    fn relay_header_roundtrip_at_fixed_offsets() {
        let h = RelayHeader {
            origin: 3,
            epoch: 7,
            component: 2,
            tracked: (5u64 << 48) | 0xABCD,
        };
        let mut buf = BytesMut::new();
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), RelayHeader::WIRE_BYTES);
        // Fixed offsets: origin@0, epoch@4, component@8, tracked@12.
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 7);
        assert_eq!(u32::from_le_bytes(buf[8..12].try_into().unwrap()), 2);
        let mut rd = buf.freeze();
        assert_eq!(RelayHeader::decode(&mut rd).unwrap(), h);
        assert!(!rd.has_remaining());
    }

    #[test]
    fn relay_header_truncated_is_an_error() {
        let mut short = Bytes::copy_from_slice(&[0u8; RelayHeader::WIRE_BYTES - 1]);
        assert_eq!(
            RelayHeader::decode(&mut short),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn tuple_view_matches_eager_decode() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        let view = TupleView::parse(&bytes).unwrap();
        assert_eq!(view.id(), t.id);
        assert_eq!(view.arity(), t.arity());
        assert_eq!(view.wire_len(), bytes.len());
        for (i, v) in t.values.iter().enumerate() {
            assert_eq!(view.field(i).unwrap().unwrap().to_owned(), *v);
        }
        assert!(view.field(t.arity()).is_none());
        assert_eq!(view.to_tuple().unwrap(), t);
    }

    #[test]
    fn view_str_and_bytes_borrow_the_wire_buffer() {
        let t = Tuple::new(vec![Value::str("hello"), Value::Bytes(Arc::from(&[9u8][..]))]);
        let bytes = encode_tuple(&t);
        let view = TupleView::parse(&bytes).unwrap();
        let s = view.field(0).unwrap().unwrap();
        let s = s.as_str().unwrap();
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(range.contains(&(s.as_ptr() as usize)), "str must borrow");
        let b = view.field(1).unwrap().unwrap();
        let b = b.as_bytes().unwrap();
        assert!(range.contains(&(b.as_ptr() as usize)), "bytes must borrow");
    }

    #[test]
    fn view_offset_table_spills_past_sixteen_fields() {
        let values: Vec<Value> = (0..40)
            .map(|i| match i % 3 {
                0 => Value::I64(i),
                1 => Value::str(format!("f{i}").as_str()),
                _ => Value::Bool(i % 2 == 0),
            })
            .collect();
        let t = Tuple::with_id(7, values);
        let bytes = encode_tuple(&t);
        let view = TupleView::parse(&bytes).unwrap();
        for (i, v) in t.values.iter().enumerate() {
            assert_eq!(view.field(i).unwrap().unwrap().to_owned(), *v, "field {i}");
        }
    }

    #[test]
    fn view_defers_utf8_to_field_access() {
        // Bad UTF-8 in field 1: framing parses fine, field 0 reads fine,
        // only touching field 1 surfaces the error.
        let mut raw = BytesMut::new();
        raw.put_u64_le(1);
        raw.put_u16_le(2);
        raw.put_u8(TAG_I64);
        raw.put_i64_le(42);
        raw.put_u8(TAG_STR);
        raw.put_u32_le(2);
        raw.put_slice(&[0xFF, 0xFE]);
        let buf = raw.freeze();
        let view = TupleView::parse(&buf).unwrap();
        assert_eq!(view.field(0).unwrap().unwrap().as_i64(), Some(42));
        assert_eq!(view.field(1).unwrap(), Err(DecodeError::BadUtf8));
        assert_eq!(view.to_tuple(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn view_truncation_and_bad_tags_fail_at_parse() {
        let t = sample_tuple();
        let bytes = encode_tuple(&t);
        for cut in [0, 1, 5, 9, bytes.len() - 1] {
            assert_eq!(
                TupleView::parse(&bytes[..cut]).err(),
                Some(DecodeError::Truncated),
                "cut={cut}"
            );
        }
        let mut raw = BytesMut::new();
        raw.put_u64_le(1);
        raw.put_u16_le(1);
        raw.put_u8(200);
        let buf = raw.freeze();
        assert_eq!(TupleView::parse(&buf).err(), Some(DecodeError::BadTag(200)));
    }

    #[test]
    fn message_views_match_owned_decode() {
        let wm = WorkerMessage {
            src: TaskId(3),
            dst_ids: vec![TaskId(10), TaskId(11), TaskId(12)],
            tuple: sample_tuple(),
        };
        let bytes = wm.encode();
        let view = WorkerMessageView::parse(&bytes).unwrap();
        assert_eq!(view.src(), wm.src);
        assert_eq!(view.dst_len(), 3);
        assert_eq!(view.dst(1), Some(TaskId(11)));
        assert_eq!(view.dst(3), None);
        assert_eq!(view.dst_ids().collect::<Vec<_>>(), wm.dst_ids);
        assert_eq!(view.to_owned().unwrap(), wm);

        let im = InstanceMessage {
            src: TaskId(1),
            dst: TaskId(2),
            tuple: sample_tuple(),
        };
        let bytes = im.encode();
        let view = InstanceMessageView::parse(&bytes).unwrap();
        assert_eq!(view.src(), im.src);
        assert_eq!(view.dst(), im.dst);
        assert_eq!(view.to_owned().unwrap(), im);
    }

    #[test]
    fn dispatch_into_reuses_scratch_and_matches_owned_dispatch() {
        let wm = WorkerMessage {
            src: TaskId(0),
            dst_ids: vec![TaskId(5), TaskId(6), TaskId(7)],
            tuple: sample_tuple(),
        };
        let bytes = wm.encode();
        let view = WorkerMessageView::parse(&bytes).unwrap();
        let mut scratch = Vec::with_capacity(8);
        dispatch_worker_message_into(&view, &mut scratch);
        let owned: Vec<TaskId> = dispatch_worker_message(wm).iter().map(|a| a.dst).collect();
        assert_eq!(scratch, owned);
        let cap = scratch.capacity();
        dispatch_worker_message_into(&view, &mut scratch);
        assert_eq!(scratch.capacity(), cap, "steady state must not regrow");
    }

    #[test]
    fn lazy_tuple_materializes_once_and_shares() {
        let t = sample_tuple();
        let buf: Arc<[u8]> = Arc::from(&encode_tuple(&t)[..]);
        let lazy = LazyTuple::from_wire(Arc::clone(&buf), 0).unwrap();
        let clone = lazy.clone();
        assert!(lazy.is_wire());
        assert!(!lazy.is_materialized());
        assert_eq!(lazy.id(), t.id);
        assert_eq!(lazy.arity(), t.arity());
        assert_eq!(lazy.field(0).unwrap().unwrap().as_i64(), Some(-7));
        assert!(!lazy.is_materialized(), "field access must not materialize");
        let a = lazy.materialize().unwrap() as *const Tuple;
        assert!(clone.is_materialized(), "clones share the memoized decode");
        let b = clone.materialize().unwrap() as *const Tuple;
        assert_eq!(a, b, "one decode for every handle");
        assert_eq!(lazy.materialize().unwrap(), &t);
    }

    #[test]
    fn lazy_tuple_surfaces_deferred_bad_utf8_at_materialize() {
        let mut raw = BytesMut::new();
        raw.put_u64_le(1);
        raw.put_u16_le(1);
        raw.put_u8(TAG_STR);
        raw.put_u32_le(2);
        raw.put_slice(&[0xFF, 0xFE]);
        let buf: Arc<[u8]> = Arc::from(&raw.freeze()[..]);
        let lazy = LazyTuple::from_wire(Arc::clone(&buf), 0).unwrap();
        assert_eq!(lazy.materialize().err(), Some(DecodeError::BadUtf8));
        assert_eq!(lazy.materialize().err(), Some(DecodeError::BadUtf8));
    }

    #[test]
    fn owned_lazy_tuple_reads_in_place() {
        let t = sample_tuple();
        let lazy = LazyTuple::from_tuple(t.clone());
        assert!(!lazy.is_wire());
        assert!(lazy.is_materialized());
        assert!(lazy.view().is_none());
        assert_eq!(lazy.field(2).unwrap().unwrap().as_str(), Some("driver-42"));
        assert_eq!(lazy.materialize().unwrap(), &t);
    }

    #[test]
    fn a_borrowed_record_takes_no_buffer_reference_until_it_is_promoted() {
        // Three records back to back in one buffer, as a run carries them.
        let tuples: Vec<Tuple> = (0..3)
            .map(|i| Tuple::with_id(i, vec![Value::I64(i as i64), Value::str("rec")]))
            .collect();
        let mut bytes = Vec::new();
        let mut starts = Vec::new();
        for t in &tuples {
            starts.push(bytes.len());
            bytes.extend_from_slice(&encode_tuple(t));
        }
        let frame: Arc<[u8]> = Arc::from(bytes);
        let mut kept = Vec::new();
        for (t, &start) in tuples.iter().zip(&starts) {
            let record = WireRecord::new(&frame, &TupleView::parse(&frame[start..]).unwrap());
            let lazy = record.tuple();
            assert!(lazy.is_wire() && lazy.is_borrowed());
            assert_eq!(lazy.field(1).unwrap().unwrap().as_str(), Some("rec"));
            assert_eq!(lazy.materialize().unwrap(), t);
            let held = 1 + kept.len();
            assert_eq!(
                Arc::strong_count(&frame),
                held,
                "a borrowed record holds nothing"
            );
            // A promotion is a block of its own, on a buffer reference of
            // its own, and keeps what the record memoized.
            let owned = lazy.clone().into_owned();
            assert!(!owned.is_borrowed() && owned.is_materialized());
            assert_eq!(owned.materialize().unwrap(), t);
            kept.push(owned);
            assert_eq!(Arc::strong_count(&frame), 1 + kept.len());
        }
        drop(kept);
        assert_eq!(Arc::strong_count(&frame), 1, "the promoted records let go");
    }
}
