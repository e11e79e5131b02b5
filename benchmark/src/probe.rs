//! Benchmark-side observation of a run: the load-generating spout and a
//! bolt wrapper that sit *around* `next_tuple` / `execute_lazy`, record
//! into thread-local logs, and hand the logs over when their task ends.
//! Nothing here reaches into the runtime; tracing inside the program is
//! a later issue.

use crate::pace::{now_ns, Schedule};
use crate::procfs::thread_ctx_switches;
use std::sync::{Arc, Mutex, OnceLock};
use whale_dsps::{Bolt, DecodeError, Emitter, LazyTuple, Spout, Tuple, Value};

/// Every 16th interval between `next_tuple` calls is kept for
/// `runtime.spout_gap_ns_p50`.
const GAP_SAMPLE: u64 = 16;
/// Every 64th tuple of a stream records spans in a traced run.
pub const SPAN_SAMPLE: u64 = 64;
/// Streams a workload may have (ride-hailing has two spouts).
pub const MAX_STREAMS: usize = 2;

/// Tuple ids are sequential per stream, as a user's would be, so the
/// runtime's own 1-in-8 delivery sampling is paid as users pay it. The
/// stream index rides above bit 32; the low half is `seq + 1` because
/// id 0 means "untracked" to the runtime.
pub fn tuple_id(stream: usize, seq: u64) -> u64 {
    ((stream as u64) << 32) | (seq + 1)
}

/// Inverse of [`tuple_id`]; `None` for ids this benchmark did not mint.
pub fn split_id(id: u64) -> Option<(usize, u64)> {
    let stream = (id >> 32) as usize;
    let low = id & 0xffff_ffff;
    (stream < MAX_STREAMS && low > 0).then(|| (stream, low - 1))
}

/// One timed call into an operator.
#[derive(Clone, Debug)]
pub struct Span {
    pub component: Arc<str>,
    pub instance: u32,
    pub stream: usize,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one spout task saw.
#[derive(Debug, Default)]
pub struct SpoutLog {
    pub component: Arc<str>,
    pub stream: usize,
    pub emitted: u64,
    /// First `next_tuple` entry — where set-up ends and the run begins.
    pub first_ns: u64,
    pub last_emit_ns: u64,
    /// Due time of every latency-sampled tuple, by `seq / latency_sample`.
    pub due_ns: Vec<u64>,
    /// Release lateness of every paced tuple.
    pub late_ns: Vec<u32>,
    /// Sampled intervals between `next_tuple` entries (unpaced only):
    /// what one source tuple costs the source worker.
    pub gap_ns: Vec<u32>,
    /// Wrapping sum of the stamps written into the tuples.
    pub checksum: u64,
    pub spans: Vec<Span>,
}

/// A sampled execution: `(stream, seq, completion time)`.
pub type Stamp = (u8, u32, u64);

/// What one bolt task saw.
#[derive(Debug, Default)]
pub struct BoltLog {
    pub component: Arc<str>,
    pub instance: u32,
    pub executed: u64,
    /// Tuples executed a second time (exactly-once violations).
    pub duplicates: u64,
    /// One bit per executed `seq`, per stream.
    pub seen: [Vec<u64>; MAX_STREAMS],
    pub stamps: Vec<Stamp>,
    /// Wrapping sum of the touched field over executed tuples.
    pub checksum: u64,
    pub finish_ns: u64,
    pub tid: u64,
    pub ctx_switches: u64,
    pub spans: Vec<Span>,
}

impl BoltLog {
    pub fn saw(&self, stream: usize, seq: u64) -> bool {
        self.seen[stream]
            .get((seq / 64) as usize)
            .is_some_and(|w| w >> (seq % 64) & 1 == 1)
    }
}

/// Where finished tasks leave their logs.
#[derive(Default)]
pub struct Collector {
    pub spouts: Mutex<Vec<SpoutLog>>,
    pub bolts: Mutex<Vec<BoltLog>>,
    /// Start of the open-loop schedule, set by whichever paced spout is
    /// called first and shared by all: the two ride-hailing spouts take
    /// turns on one pipeline thread, so schedules offset against each
    /// other would make one stream permanently late.
    paced_start_ns: OnceLock<u64>,
}

/// How a spout releases its tuples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Release {
    /// Closed loop: as fast as `next_tuple` is called.
    Saturate,
    /// Open loop at this many tuples per second.
    Paced(f64),
}

/// Delay between the first paced call and the first due time, so every
/// spout is up before the schedule starts.
const PACED_START_DELAY_NS: u64 = 2_000_000;

/// The load generator: cycles a pre-built pool, stamps `(id, due time)`
/// into each tuple, and releases per [`Release`]. It is the only
/// load-generating code in a run — no sockets, no extra threads.
pub struct BenchSpout {
    pool: Arc<Vec<Tuple>>,
    stamp_field: usize,
    count: u64,
    release: Release,
    latency_sample: u64,
    schedule: Option<Schedule>,
    trace: bool,
    prev_entry_ns: u64,
    log: Option<SpoutLog>,
    collector: Arc<Collector>,
}

impl BenchSpout {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        component: &str,
        stream: usize,
        pool: Arc<Vec<Tuple>>,
        stamp_field: usize,
        count: u64,
        release: Release,
        latency_sample: u64,
        trace: bool,
        collector: Arc<Collector>,
    ) -> Self {
        BenchSpout {
            pool,
            stamp_field,
            count,
            release,
            latency_sample,
            schedule: None,
            trace,
            prev_entry_ns: 0,
            log: Some(SpoutLog {
                component: component.into(),
                stream,
                due_ns: Vec::with_capacity((count / latency_sample + 1) as usize),
                late_ns: Vec::with_capacity(match release {
                    Release::Paced(_) => count as usize,
                    Release::Saturate => 0,
                }),
                gap_ns: Vec::with_capacity((count / GAP_SAMPLE + 1) as usize),
                ..SpoutLog::default()
            }),
            collector,
        }
    }
}

impl Spout for BenchSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let entry = now_ns();
        let log = self.log.as_mut()?;
        let i = log.emitted;
        if i == self.count {
            let log = self.log.take().expect("checked above");
            self.collector
                .spouts
                .lock()
                .expect("collector lock")
                .push(log);
            return None;
        }
        let (due, released) = match self.release {
            Release::Saturate => (entry, entry),
            Release::Paced(rate_per_s) => {
                let collector = &self.collector;
                let schedule = *self.schedule.get_or_insert_with(|| Schedule {
                    start_ns: *collector
                        .paced_start_ns
                        .get_or_init(|| entry + PACED_START_DELAY_NS),
                    rate_per_s,
                });
                let (due, late) = schedule.wait(i);
                log.late_ns.push(late.min(u32::MAX as u64) as u32);
                (due, due + late)
            }
        };
        if i == 0 {
            log.first_ns = entry;
        } else if self.release == Release::Saturate && i % GAP_SAMPLE == 0 {
            let gap = entry - self.prev_entry_ns;
            log.gap_ns.push(gap.min(u32::MAX as u64) as u32);
        }
        self.prev_entry_ns = entry;
        let mut t = self.pool[(i % self.pool.len() as u64) as usize].clone();
        t.id = tuple_id(log.stream, i);
        t.values[self.stamp_field] = Value::I64(due as i64);
        log.checksum = log.checksum.wrapping_add(due);
        if i % self.latency_sample == 0 {
            log.due_ns.push(due);
        }
        log.emitted += 1;
        log.last_emit_ns = released;
        if self.trace && i % SPAN_SAMPLE == 0 {
            log.spans.push(Span {
                component: Arc::clone(&log.component),
                instance: 0,
                stream: log.stream,
                seq: i,
                start_ns: entry,
                end_ns: now_ns(),
            });
        }
        Some(t)
    }
}

/// A sink that does nothing: the bare workloads' terminal operator. The
/// key touch happens in the [`Probe`] around it.
pub struct Discard;

impl Bolt for Discard {
    fn execute(&mut self, _input: &Tuple, _out: &mut dyn Emitter) {}

    fn execute_lazy(
        &mut self,
        _input: &LazyTuple,
        _out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        Ok(())
    }
}

/// What a [`Probe`] records per execution.
#[derive(Clone, Copy, Debug)]
pub struct ProbeMode {
    /// Mark every `seq` in a bitset (exact delivery accounting) and
    /// stamp every `latency_sample`-th execution.
    pub account: bool,
    pub latency_sample: u64,
    /// Read this integer field off the wire view and checksum it — the
    /// one field a key-touch sink reads.
    pub touch: Option<usize>,
    /// Record a span for every [`SPAN_SAMPLE`]-th execution.
    pub trace: bool,
}

/// Wraps any bolt — a `whale_apps` operator or [`Discard`] — and
/// observes each execution from outside.
pub struct Probe {
    inner: Box<dyn Bolt>,
    mode: ProbeMode,
    log: Option<BoltLog>,
    collector: Arc<Collector>,
}

impl Probe {
    /// `expected` sizes the logs up front so the hot path never
    /// reallocates.
    pub fn new(
        inner: Box<dyn Bolt>,
        component: &str,
        instance: u32,
        mode: ProbeMode,
        expected: [u64; MAX_STREAMS],
        collector: Arc<Collector>,
    ) -> Self {
        let mut log = BoltLog {
            component: component.into(),
            instance,
            ..BoltLog::default()
        };
        if mode.account {
            for (bits, n) in log.seen.iter_mut().zip(expected) {
                *bits = vec![0; n.div_ceil(64) as usize];
            }
            let samples: u64 = expected.iter().map(|n| n / mode.latency_sample + 1).sum();
            log.stamps.reserve(samples as usize);
        }
        Probe {
            inner,
            mode,
            log: Some(log),
            collector,
        }
    }

    fn span_start(&self, id: u64) -> Option<u64> {
        let (_, seq) = split_id(id)?;
        (self.mode.trace && seq % SPAN_SAMPLE == 0).then(now_ns)
    }

    fn observe(&mut self, id: u64, touched: Option<i64>, span_start: Option<u64>) {
        let Some(log) = self.log.as_mut() else { return };
        log.executed += 1;
        if let Some(v) = touched {
            log.checksum = log.checksum.wrapping_add(v as u64);
        }
        let Some((stream, seq)) = split_id(id) else {
            return;
        };
        if self.mode.account {
            let bits = &mut log.seen[stream];
            let word = (seq / 64) as usize;
            if word >= bits.len() {
                bits.resize(word + 1, 0);
            }
            let bit = 1u64 << (seq % 64);
            if bits[word] & bit != 0 {
                log.duplicates += 1;
            }
            bits[word] |= bit;
            if seq % self.mode.latency_sample == 0 {
                log.stamps.push((stream as u8, seq as u32, now_ns()));
            }
        }
        if let Some(start_ns) = span_start {
            log.spans.push(Span {
                component: Arc::clone(&log.component),
                instance: log.instance,
                stream,
                seq,
                start_ns,
                end_ns: now_ns(),
            });
        }
    }
}

impl Bolt for Probe {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        let start = self.span_start(input.id);
        self.inner.execute(input, out);
        let touched = self
            .mode
            .touch
            .and_then(|f| input.get(f).and_then(Value::as_i64));
        self.observe(input.id, touched, start);
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        let start = self.span_start(input.id());
        let touched = match self.mode.touch.and_then(|f| input.field(f)) {
            Some(v) => v?.as_i64(),
            None => None,
        };
        self.inner.execute_lazy(input, out)?;
        self.observe(input.id(), touched, start);
        Ok(())
    }

    fn finish(&mut self, out: &mut dyn Emitter) {
        self.inner.finish(out);
        let Some(mut log) = self.log.take() else {
            return;
        };
        log.finish_ns = now_ns();
        (log.tid, log.ctx_switches) = thread_ctx_switches();
        self.collector
            .bolts
            .lock()
            .expect("collector lock")
            .push(log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_dsps::VecEmitter;

    fn pool() -> Arc<Vec<Tuple>> {
        Arc::new(
            (0..4)
                .map(|k| Tuple::new(vec![Value::I64(k), Value::I64(0)]))
                .collect(),
        )
    }

    #[test]
    fn ids_round_trip_and_foreign_ids_are_ignored() {
        assert_eq!(split_id(tuple_id(0, 0)), Some((0, 0)));
        assert_eq!(split_id(tuple_id(1, 123_456)), Some((1, 123_456)));
        assert_eq!(split_id(0), None);
        assert_eq!(split_id(7 << 32 | 1), None);
    }

    #[test]
    fn saturating_spout_cycles_the_pool_and_logs_once() {
        let c = Arc::new(Collector::default());
        let mut s = BenchSpout::new(
            "src",
            0,
            pool(),
            1,
            10,
            Release::Saturate,
            16,
            false,
            c.clone(),
        );
        let mut stamps = 0u64;
        for i in 0..10u64 {
            let t = s.next_tuple().unwrap();
            assert_eq!(split_id(t.id), Some((0, i)));
            assert_eq!(t.get(0).unwrap().as_i64(), Some(i as i64 % 4));
            stamps = stamps.wrapping_add(t.get(1).unwrap().as_i64().unwrap() as u64);
        }
        assert!(s.next_tuple().is_none());
        assert!(s.next_tuple().is_none());
        let logs = c.spouts.lock().unwrap();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].emitted, 10);
        assert_eq!(logs[0].checksum, stamps);
        assert_eq!(logs[0].due_ns.len(), 1);
        assert!(logs[0].late_ns.is_empty());
    }

    #[test]
    fn paced_spout_stamps_the_due_time_not_the_send_time() {
        let c = Arc::new(Collector::default());
        let rate = 20_000.0;
        let mut s = BenchSpout::new(
            "src",
            0,
            pool(),
            1,
            40,
            Release::Paced(rate),
            16,
            false,
            c.clone(),
        );
        let dues: Vec<i64> = (0..40)
            .map(|_| s.next_tuple().unwrap().get(1).unwrap().as_i64().unwrap())
            .collect();
        assert!(s.next_tuple().is_none());
        for (i, w) in dues.windows(2).enumerate() {
            let gap = w[1] - w[0];
            assert!((49_999..=50_001).contains(&gap), "gap {i} = {gap} ns");
        }
        let logs = c.spouts.lock().unwrap();
        assert_eq!(logs[0].late_ns.len(), 40);
        assert!(logs[0].last_emit_ns >= *dues.last().unwrap() as u64);
    }

    #[test]
    fn probe_accounts_duplicates_samples_and_touch() {
        let c = Arc::new(Collector::default());
        let mode = ProbeMode {
            account: true,
            latency_sample: 16,
            touch: Some(0),
            trace: true,
        };
        let mut p = Probe::new(Box::new(Discard), "sink", 3, mode, [64, 0], c.clone());
        let mut out = VecEmitter::default();
        for seq in 0..64u64 {
            let t = Tuple::with_id(tuple_id(0, seq), vec![Value::I64(seq as i64)]);
            p.execute_lazy(&LazyTuple::from_tuple(t), &mut out).unwrap();
        }
        // A replayed tuple and one from the second stream, past the hint.
        let t = Tuple::with_id(tuple_id(0, 5), vec![Value::I64(5)]);
        p.execute(&t, &mut out);
        let t = Tuple::with_id(tuple_id(1, 200), vec![Value::I64(1)]);
        p.execute(&t, &mut out);
        p.finish(&mut out);
        let logs = c.bolts.lock().unwrap();
        let log = &logs[0];
        assert_eq!((log.executed, log.duplicates), (66, 1));
        assert!(log.saw(0, 63) && !log.saw(0, 64) && log.saw(1, 200) && !log.saw(1, 199));
        assert_eq!(log.checksum, (0..64).sum::<u64>() + 5 + 1);
        let sampled: Vec<u32> = log.stamps.iter().map(|s| s.1).collect();
        assert_eq!(sampled, vec![0, 16, 32, 48]);
        assert_eq!(log.spans.len(), 1);
        assert!(log.finish_ns > 0 && log.tid > 0);
    }
}
