//! Persistent RDMA-readable partition log.
//!
//! The transports' rings and outboxes ([`crate::memory::RingRegion`]) are
//! transient: a slot is reused as soon as its frame is delivered, so a
//! crashed consumer has nothing to read back. [`PartitionLog`] is the
//! durable sibling — a segment-based append log that a sender writes
//! through *before* the fabric (the dsps runtime keeps one per
//! destination endpoint). Every record keeps its sequence number, and
//! [`PartitionLog::read_from`] serves any retained suffix as one-sided
//! reads — one counted per record, nothing appended or published on the
//! owner's side — so recovery never touches the log owner (the same
//! server-bypass property the one-sided transport has on the hot path).
//!
//! Layout: records are framed `seq u64 LE | len u32 LE | payload` and
//! packed into fixed-size segments, each registered as one memory region
//! (registration is paid per segment, not per record — the same
//! amortization argument as the outbox rings). Retention is bounded two
//! ways: a segment-count cap evicts the oldest segment on roll-over, and
//! [`PartitionLog::truncate_to`] garbage-collects whole segments below an
//! acknowledgement watermark fed back by the caller (the dsps acker, in
//! the live runtime). GC only ever drops whole segments: a watermark in
//! the middle of a segment keeps it, so `first_seq` is always the head of
//! a readable record.
//!
//! Torn tails: [`PartitionLog::recover`] rebuilds a log from raw segment
//! bytes (as [`PartitionLog::snapshot`] emits them) and tolerates a tail
//! truncated at any byte — it keeps every complete record, counts one
//! `torn_tails`, and never panics.

use crate::memory::{MemoryRegionId, MemoryRegistry};
use std::collections::VecDeque;

/// Bytes of record-framing overhead per appended record.
pub const RECORD_HEADER: usize = 12;

/// Configuration of a [`PartitionLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogConfig {
    /// Capacity of one segment's buffer. A record larger than this still
    /// fits: its segment is sized up to hold exactly that record.
    pub segment_bytes: usize,
    /// Retention cap: appending past this many segments evicts the
    /// oldest (counted as GC'd bytes, distinct from watermark GC).
    pub max_segments: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 64 * 1024,
            max_segments: 64,
        }
    }
}

/// One registered segment of packed records.
struct Segment {
    /// Sequence number of the first record in this segment.
    base_seq: u64,
    /// Byte offset of each record within `buf`.
    offsets: Vec<usize>,
    buf: Vec<u8>,
    /// Bytes the segment was registered for; `buf` never outgrows it
    /// (its own capacity may be larger: a recycled buffer).
    cap: usize,
    region: MemoryRegionId,
}

/// Result of one [`PartitionLog::read_from`] pass.
#[derive(Debug, Default)]
pub struct LogRead {
    /// Recovered records, in sequence order: `(seq, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Records below the requested start that were already GC'd (the
    /// caller asked for history the retention policy dropped).
    pub gc_skipped: u64,
}

/// A per-link, segment-based append log readable by sequence number via
/// one-sided reads. See the module docs for layout and semantics.
pub struct PartitionLog {
    config: LogConfig,
    registry: MemoryRegistry,
    segments: VecDeque<Segment>,
    /// The buffers of the last standard-size segment dropped, emptied:
    /// the next segment's, so a log in steady state (one segment GC'd
    /// per segment filled) allocates nothing.
    spare: Option<(Vec<u8>, Vec<usize>)>,
    /// Sequence number the next append receives.
    next_seq: u64,
    /// Oldest retained sequence number (== `next_seq` when empty).
    first_seq: u64,
    // Counters. Writer-side:
    appended_records: u64,
    appended_bytes: u64,
    // GC:
    gcd_records: u64,
    gcd_bytes: u64,
    evicted_segments: u64,
    gc_watermark: u64,
    // Reader-side (replay):
    reads_posted: u64,
    read_bytes: u64,
    torn_tails: u64,
}

impl PartitionLog {
    /// New empty log.
    pub fn new(config: LogConfig) -> Self {
        assert!(config.segment_bytes > RECORD_HEADER, "segment too small");
        assert!(config.max_segments > 0, "need at least one segment");
        PartitionLog {
            config,
            registry: MemoryRegistry::new(),
            segments: VecDeque::new(),
            spare: None,
            next_seq: 0,
            first_seq: 0,
            appended_records: 0,
            appended_bytes: 0,
            gcd_records: 0,
            gcd_bytes: 0,
            evicted_segments: 0,
            gc_watermark: 0,
            reads_posted: 0,
            read_bytes: 0,
            torn_tails: 0,
        }
    }

    /// Append one record; returns its sequence number. This is the log
    /// owner's only work: [`Self::appended_records`] counts it, and reads
    /// never move that count.
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let need = RECORD_HEADER + payload.len();
        let roll = match self.segments.back() {
            None => true,
            Some(s) => s.buf.len() + need > s.cap,
        };
        if roll {
            self.push_segment(need);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let seg = self.segments.back_mut().expect("push_segment left one");
        seg.offsets.push(seg.buf.len());
        seg.buf.extend_from_slice(&seq.to_le_bytes());
        seg.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        seg.buf.extend_from_slice(payload);
        self.appended_records += 1;
        self.appended_bytes += payload.len() as u64;
        seq
    }

    fn push_segment(&mut self, need: usize) {
        let cap = self.config.segment_bytes.max(need);
        let region = self.registry.register(cap);
        let (mut buf, offsets) = self.spare.take().unwrap_or_default();
        buf.reserve_exact(cap);
        self.segments.push_back(Segment {
            base_seq: self.next_seq,
            offsets,
            buf,
            cap,
            region,
        });
        while self.segments.len() > self.config.max_segments {
            let seg = self.segments.pop_front().expect("len > cap >= 1");
            self.evicted_segments += 1;
            self.drop_segment(seg);
        }
    }

    /// Account one segment's removal and advance `first_seq` past it.
    fn drop_segment(&mut self, mut seg: Segment) {
        let records = seg.offsets.len();
        self.gcd_records += records as u64;
        self.gcd_bytes += (seg.buf.len() - RECORD_HEADER * records) as u64;
        self.first_seq = seg.base_seq + records as u64;
        self.registry.deregister(seg.region);
        // An oversized record's segment is not worth holding on to.
        if seg.cap == self.config.segment_bytes {
            seg.buf.clear();
            seg.offsets.clear();
            self.spare = Some((seg.buf, seg.offsets));
        }
    }

    /// Read every retained record with sequence `>= seq`, counting each as
    /// one one-sided read of its framed bytes ([`Self::reads_posted`],
    /// [`Self::read_bytes`]). The log owner's counters are untouched.
    pub fn read_from(&mut self, seq: u64) -> LogRead {
        let start = seq.max(self.first_seq);
        let mut out = LogRead {
            records: Vec::new(),
            gc_skipped: start - seq,
        };
        for s in &self.segments {
            let from = start.saturating_sub(s.base_seq) as usize;
            for &off in s.offsets.iter().skip(from) {
                let rec_seq = u64::from_le_bytes(s.buf[off..off + 8].try_into().unwrap());
                let len = u32::from_le_bytes(s.buf[off + 8..off + 12].try_into().unwrap()) as usize;
                let record = &s.buf[off..off + RECORD_HEADER + len];
                self.read_bytes += record.len() as u64;
                out.records
                    .push((rec_seq, record[RECORD_HEADER..].to_vec()));
            }
        }
        self.reads_posted += out.records.len() as u64;
        out
    }

    /// Garbage-collect whole segments entirely below `watermark` (every
    /// record with `seq < watermark` is acknowledged and unneeded). The
    /// watermark is monotonic; stale values are ignored. Only whole
    /// segments go: a watermark inside a segment keeps it.
    pub fn truncate_to(&mut self, watermark: u64) {
        self.gc_watermark = self.gc_watermark.max(watermark);
        while let Some(front) = self.segments.front() {
            let end = front.base_seq + front.offsets.len() as u64;
            if end > watermark {
                break;
            }
            let seg = self.segments.pop_front().expect("front exists");
            self.drop_segment(seg);
        }
    }

    /// Raw retained bytes, segment by segment, oldest first — the exact
    /// input [`PartitionLog::recover`] accepts.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.segments {
            out.extend_from_slice(&s.buf);
        }
        out
    }

    /// Rebuild a log from raw snapshot bytes. A tail truncated at any
    /// byte recovers to the last complete record, counting one torn
    /// tail; the recovered log continues appending after the last good
    /// sequence number.
    pub fn recover(config: LogConfig, bytes: &[u8]) -> Self {
        let mut log = PartitionLog::new(config);
        let mut pos = 0usize;
        let mut torn = false;
        while pos + RECORD_HEADER <= bytes.len() {
            let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
            if pos + RECORD_HEADER + len > bytes.len() {
                torn = true;
                break;
            }
            if log.segments.is_empty() {
                log.next_seq = seq;
                log.first_seq = seq;
            }
            let appended = log.append(&bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + len]);
            debug_assert_eq!(appended, seq, "snapshot records are contiguous");
            pos += RECORD_HEADER + len;
        }
        if torn || pos != bytes.len() {
            log.torn_tails += 1;
        }
        log
    }

    /// Sequence number the next append receives.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Oldest retained sequence number.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Records appended over the log's lifetime.
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Payload bytes appended over the log's lifetime (no framing).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Records dropped by watermark GC or the segment cap.
    pub fn gcd_records(&self) -> u64 {
        self.gcd_records
    }

    /// Payload bytes of the records dropped by watermark GC or the segment
    /// cap, the unit of [`Self::appended_bytes`] (no framing).
    pub fn gcd_bytes(&self) -> u64 {
        self.gcd_bytes
    }

    /// Segments evicted by the retention cap (not the watermark).
    pub fn evicted_segments(&self) -> u64 {
        self.evicted_segments
    }

    /// Highest acknowledgement watermark fed to [`Self::truncate_to`].
    pub fn gc_watermark(&self) -> u64 {
        self.gc_watermark
    }

    /// Torn tails absorbed by [`Self::recover`].
    pub fn torn_tails(&self) -> u64 {
        self.torn_tails
    }

    /// One-sided reads serving [`Self::read_from`], one per record.
    pub fn reads_posted(&self) -> u64 {
        self.reads_posted
    }

    /// Bytes moved by replay reads, as on the wire (record framing
    /// included).
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes currently retained across all segments, as held in memory
    /// (record framing included).
    pub fn retained_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.buf.len() as u64).sum()
    }

    /// Memory registrations paid over the log's lifetime.
    pub fn registrations(&self) -> u64 {
        self.registry.registrations()
    }

    /// Memory deregistrations (segment evictions and watermark GC).
    pub fn deregistrations(&self) -> u64 {
        self.registry.deregistrations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LogConfig {
        LogConfig {
            segment_bytes: 64,
            max_segments: 4,
        }
    }

    /// Small segments, but a cap high enough that tests exercising the
    /// full history never trip eviction.
    fn roomy() -> LogConfig {
        LogConfig {
            segment_bytes: 64,
            max_segments: 1024,
        }
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i:04}").into_bytes()
    }

    #[test]
    fn appends_then_reads_back_everything_in_order() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..20u64 {
            assert_eq!(log.append(&payload(i)), i);
        }
        let read = log.read_from(0);
        assert_eq!(read.records.len(), 20);
        for (i, (seq, bytes)) in read.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(bytes, &payload(i as u64));
        }
        assert_eq!(read.gc_skipped, 0);
    }

    #[test]
    fn read_from_arbitrary_seq_returns_the_suffix() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..20u64 {
            log.append(&payload(i));
        }
        let read = log.read_from(13);
        assert_eq!(read.records.len(), 7);
        assert_eq!(read.records[0].0, 13);
        assert_eq!(read.records.last().unwrap().0, 19);
    }

    #[test]
    fn reads_count_each_record_and_its_framed_bytes_and_move_no_owner_work() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..8u64 {
            log.append(&payload(i));
        }
        let (appended, bytes) = (log.appended_records(), log.appended_bytes());
        assert_eq!(log.reads_posted(), 0);
        let read = log.read_from(0);
        assert_eq!(read.records.len(), 8);
        assert_eq!(log.reads_posted(), 8, "one read per record");
        let framed: u64 = (0..8u64)
            .map(|i| (RECORD_HEADER + payload(i).len()) as u64)
            .sum();
        assert_eq!(log.read_bytes(), framed);
        // A suffix read counts only the records it returns.
        log.read_from(6);
        assert_eq!(log.reads_posted(), 10);
        // The server-bypass property: reads appended nothing.
        assert_eq!(
            (log.appended_records(), log.appended_bytes()),
            (appended, bytes)
        );
    }

    #[test]
    fn watermark_gc_drops_whole_segments_and_refunds_registrations() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..40u64 {
            log.append(&payload(i));
        }
        let segs = log.segments.len();
        assert!(segs > 2, "test needs multiple segments, got {segs}");
        let before = log.retained_bytes();
        log.truncate_to(20);
        assert!(log.segments.len() < segs);
        assert!(log.retained_bytes() < before);
        assert!(log.first_seq() <= 20, "GC only drops fully-acked segments");
        assert!(log.gcd_records() > 0);
        assert_eq!(log.deregistrations(), (segs - log.segments.len()) as u64);
        // Every record >= the watermark is still readable.
        let read = log.read_from(20);
        assert_eq!(read.records.len(), 20);
        assert_eq!(read.records[0].0, 20);
        // Stale watermarks are ignored.
        let wm = log.gc_watermark();
        log.truncate_to(5);
        assert_eq!(log.gc_watermark(), wm);
    }

    #[test]
    fn a_log_collected_to_its_last_record_has_dropped_every_payload_byte_it_took() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..40u64 {
            log.append(&payload(i));
        }
        assert!(log.segments.len() > 2, "test needs multiple segments");
        log.truncate_to(log.next_seq());
        assert_eq!(log.retained_bytes(), 0);
        assert_eq!(log.gcd_records(), log.appended_records());
        assert_eq!(log.gcd_bytes(), log.appended_bytes(), "one unit, payload");
    }

    #[test]
    fn reading_below_the_gc_floor_clamps_and_counts() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..40u64 {
            log.append(&payload(i));
        }
        log.truncate_to(20);
        let floor = log.first_seq();
        assert!(floor > 0);
        let read = log.read_from(0);
        assert_eq!(read.gc_skipped, floor);
        assert_eq!(read.records[0].0, floor);
    }

    #[test]
    fn segment_cap_bounds_retained_memory_under_sustained_load() {
        let cfg = small();
        let mut log = PartitionLog::new(cfg);
        for i in 0..10_000u64 {
            log.append(&payload(i));
        }
        assert!(log.segments.len() <= cfg.max_segments);
        assert!(log.retained_bytes() <= (cfg.max_segments * cfg.segment_bytes) as u64);
        assert!(log.evicted_segments() > 0);
        assert_eq!(
            log.first_seq() + log.read_from(0).records.len() as u64,
            log.next_seq()
        );
    }

    #[test]
    fn a_dropped_segments_buffer_becomes_the_next_segments() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..8u64 {
            log.append(&payload(i));
        }
        assert!(log.segments.len() >= 2);
        let first = log.segments[0].buf.as_ptr();
        let (registered, end) = (log.registrations(), log.segments[1].base_seq);
        log.truncate_to(end);
        assert_eq!(log.deregistrations(), 1);
        // Fill the open segment; the one after it reuses the block.
        let open = log.segments.len();
        let mut next = log.next_seq();
        while log.segments.len() == open {
            log.append(&payload(next));
            next += 1;
        }
        let newest = log.segments.back().unwrap();
        assert_eq!(newest.buf.as_ptr(), first, "the GC'd segment's block");
        assert_eq!(newest.offsets.len(), 1);
        assert_eq!(log.registrations(), registered + 1, "still registered anew");
        // Packing is by registered size, not by what the block can hold.
        let read = log.read_from(end);
        assert_eq!(read.records.len() as u64, next - end);
        let intact = |(seq, bytes): &(u64, Vec<u8>)| bytes == &payload(*seq);
        assert!(read.records.iter().all(intact));
        // An oversized segment's block is not kept.
        let mut log = PartitionLog::new(small());
        log.append(&[7u8; 500]);
        log.append(&payload(1));
        log.truncate_to(1);
        assert!(log.spare.is_none());
    }

    #[test]
    fn oversized_record_gets_its_own_segment_instead_of_panicking() {
        let mut log = PartitionLog::new(small());
        let big = vec![7u8; 500];
        let seq = log.append(&big);
        let read = log.read_from(seq);
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.records[0].1, big);
    }

    #[test]
    fn snapshot_recover_roundtrips_exactly() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..20u64 {
            log.append(&payload(i));
        }
        log.truncate_to(10);
        let snap = log.snapshot();
        let mut back = PartitionLog::recover(roomy(), &snap);
        assert_eq!(back.torn_tails(), 0);
        assert_eq!(back.first_seq(), log.first_seq());
        assert_eq!(back.next_seq(), log.next_seq());
        let a = log.read_from(0).records;
        let b = back.read_from(0).records;
        assert_eq!(a, b);
    }

    #[test]
    fn torn_tail_at_every_truncation_offset_recovers_without_panic() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..12u64 {
            log.append(&payload(i));
        }
        let snap = log.snapshot();
        for cut in 0..snap.len() {
            let mut back = PartitionLog::recover(roomy(), &snap[..cut]);
            let n = back.read_from(0).records.len() as u64;
            // Whole records survive; the torn remainder is dropped.
            assert!(n <= 12);
            if cut < snap.len() {
                let full = cut == 0 || torn_free(&snap, cut);
                assert_eq!(
                    back.torn_tails(),
                    u64::from(!full),
                    "cut at {cut} of {}",
                    snap.len()
                );
            }
            for (i, (seq, bytes)) in back.read_from(0).records.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(bytes, &payload(i as u64));
            }
        }
        // The untruncated snapshot recovers torn-free.
        let back = PartitionLog::recover(roomy(), &snap);
        assert_eq!(back.torn_tails(), 0);
    }

    /// Whether a cut at `pos` lands exactly on a record boundary.
    fn torn_free(snap: &[u8], cut: usize) -> bool {
        let mut pos = 0usize;
        while pos < cut {
            if pos + RECORD_HEADER > snap.len() {
                return false;
            }
            let len =
                u32::from_le_bytes(snap[pos + 8..pos + 12].try_into().unwrap()) as usize;
            pos += RECORD_HEADER + len;
        }
        pos == cut
    }

    #[test]
    fn counters_and_gauges_after_append_gc_and_read() {
        let mut log = PartitionLog::new(roomy());
        for i in 0..20u64 {
            log.append(&payload(i));
        }
        log.truncate_to(8);
        log.read_from(8);
        assert_eq!(log.appended_records(), 20);
        assert!(log.appended_bytes() > 0);
        assert!(log.reads_posted() > 0);
        assert_eq!(log.torn_tails(), 0);
        assert_eq!(log.gc_watermark(), 8);
        assert!(log.retained_bytes() > 0);
        assert!(log.next_seq() > log.gc_watermark());
        assert!(log.registrations() > 0);
    }
}
