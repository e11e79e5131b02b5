//! One segment = one fresh `run_topology` call, measured from outside
//! and checked against the reference computed from the generated input.

use crate::pace::now_ns;
use crate::probe::{BoltLog, Collector, Release, Span, SpoutLog, SPAN_SAMPLE};
use crate::procfs::process_cpu_seconds;
use crate::stats::median;
use crate::workload::{SegmentPlan, Variant, Workload, SINKS};
use std::collections::HashMap;
use std::sync::Arc;
use whale_dsps::{run_topology, RunOutcome, RunReport};

/// A paced segment whose stream end takes longer than this to drain has
/// been queueing, not keeping up.
const MAX_PACED_DRAIN_S: f64 = 0.25;
/// ...as has one whose second half is this much slower than its first
/// and slow in absolute terms. A backlog growing linearly from nothing
/// gives a ratio of exactly 3, so the bar sits below that; an offered
/// rate 5 % above capacity queues 50 ms within a second, which a host
/// hiccup on a sustainable run rarely does.
const BACKLOG_RATIO: f64 = 2.0;
const BACKLOG_FLOOR_NS: f64 = 50_000_000.0;

/// The verdict of the correctness gate on one segment.
#[derive(Debug, Default)]
pub struct Gate {
    /// Sink executions the reference expects.
    pub expected: u64,
    /// Executions missing, extra or misrouted, plus one per broken
    /// run-level invariant.
    pub violations: u64,
    pub notes: Vec<String>,
}

impl Gate {
    fn fail(&mut self, n: u64, note: String) {
        self.violations += n;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }
}

pub struct Segment {
    pub plan: SegmentPlan,
    pub report: RunReport,
    component_ids: HashMap<String, usize>,
    /// Source tuples emitted, all streams.
    pub tuples: u64,
    /// First `next_tuple` entry on the process clock.
    pub first_ns: u64,
    /// `run_topology` call → first `next_tuple`.
    pub startup_s: f64,
    /// First `next_tuple` → last bolt finished.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) across the call.
    pub cpu_s: f64,
    /// Last emission → last bolt finished.
    pub drain_s: f64,
    /// Completion latency of every sampled tuple of the workload's
    /// latency class ([`Kind::latency_fanout`]), due → last expected
    /// sink instance executed it; in due-time order.
    pub latency_ns: Vec<u64>,
    /// The same for the apps' sampled unicast tuples (sells, locations).
    pub unicast_latency_ns: Vec<u64>,
    /// Last minus first destination, sampled broadcast tuples.
    pub fanout_spread_ns: Vec<u64>,
    pub gen_late_ns: Vec<u64>,
    pub spout_gap_ns: Vec<u64>,
    /// Context switches of the pipeline threads.
    pub ctx_switches: u64,
    /// Max over mean executions per sink instance.
    pub skew: f64,
    /// An open-loop segment...
    pub paced: bool,
    /// ...that showed a growing backlog.
    pub unsustainable: bool,
    pub spans: Vec<Span>,
    /// Share of the wall time each component's instances spent inside
    /// their operator, extrapolated from the spans (traced runs only).
    pub busy_share: Vec<(Arc<str>, f64)>,
    pub gate: Gate,
}

impl Segment {
    pub fn throughput_tps(&self) -> f64 {
        self.tuples as f64 / self.wall_s
    }

    pub fn cpu_s_per_mtuple(&self) -> f64 {
        self.cpu_s / self.tuples as f64 * 1e6
    }

    /// Executions the runtime counted for `component`.
    pub fn executed(&self, component: &str) -> u64 {
        self.component_ids
            .get(component)
            .and_then(|&id| self.report.executed.get(id))
            .copied()
            .unwrap_or(0)
    }

    pub fn busy(&self, component: &str) -> f64 {
        self.busy_share
            .iter()
            .find(|(c, _)| &**c == component)
            .map_or(0.0, |(_, b)| *b)
    }
}

pub fn run_segment(workload: &Workload, variant: Variant, plan: SegmentPlan) -> Segment {
    let collector = Arc::new(Collector::default());
    let topology = workload.topology();
    let component_ids: HashMap<String, usize> = topology
        .components()
        .iter()
        .map(|c| (c.name.clone(), c.id.0 as usize))
        .collect();
    let operators = workload.operators(&plan, &collector);
    let config = workload.kind.config(variant);
    let cpu_before = process_cpu_seconds();
    let called_ns = now_ns();
    let report = run_topology(topology, operators, config);
    let cpu_s = process_cpu_seconds() - cpu_before;

    let mut spouts = std::mem::take(&mut *collector.spouts.lock().expect("collector lock"));
    let mut bolts = std::mem::take(&mut *collector.bolts.lock().expect("collector lock"));
    spouts.sort_by_key(|s| s.stream);
    bolts.sort_by(|a, b| (&a.component, a.instance).cmp(&(&b.component, b.instance)));

    let first_ns = spouts.iter().map(|s| s.first_ns).min().unwrap_or(called_ns);
    let last_emit_ns = spouts
        .iter()
        .map(|s| s.last_emit_ns)
        .max()
        .unwrap_or(first_ns);
    let end_ns = bolts
        .iter()
        .map(|b| b.finish_ns)
        .max()
        .unwrap_or(last_emit_ns);
    let wall_ns = end_ns.saturating_sub(first_ns).max(1);
    let tuples: u64 = spouts.iter().map(|s| s.emitted).sum();

    let sinks: Vec<&BoltLog> = bolts
        .iter()
        .filter(|b| &*b.component == workload.kind.sink())
        .collect();
    let gate = check(workload, &plan, &report, &component_ids, &spouts, &sinks);
    let sample = plan.latency_sample;
    let (latency_ns, unicast_latency_ns, fanout_spread_ns) =
        completion_latencies(workload, sample, &spouts, &sinks);

    let paced = plan.release.iter().any(|r| matches!(r, Release::Paced(_)));
    let drain_s = end_ns.saturating_sub(last_emit_ns) as f64 / 1e9;
    let unsustainable = paced && (drain_s > MAX_PACED_DRAIN_S || backlog_grew(&latency_ns));

    let per_sink: Vec<f64> = sinks.iter().map(|b| b.executed as f64).collect();
    let mean = per_sink.iter().sum::<f64>() / per_sink.len().max(1) as f64;
    let skew = if mean > 0.0 {
        per_sink.iter().copied().fold(0.0, f64::max) / mean
    } else {
        0.0
    };

    // One count per pipeline thread: every task on it read the same
    // counter at its own finish, so keep the latest (largest).
    let mut per_thread: HashMap<u64, u64> = HashMap::new();
    for b in &bolts {
        let slot = per_thread.entry(b.tid).or_default();
        *slot = (*slot).max(b.ctx_switches);
    }

    let mut busy: Vec<(Arc<str>, u64, u32)> = Vec::new();
    for b in &bolts {
        let ns: u64 = b.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        match busy.iter_mut().find(|(c, _, _)| *c == b.component) {
            Some(slot) => {
                slot.1 += ns;
                slot.2 += 1;
            }
            None => busy.push((Arc::clone(&b.component), ns, 1)),
        }
    }
    let busy_share = busy
        .into_iter()
        .map(|(c, ns, instances)| {
            let share = (ns * SPAN_SAMPLE) as f64 / (wall_ns as f64 * instances as f64);
            (c, share)
        })
        .collect();

    let mut spans: Vec<Span> = Vec::new();
    let mut gen_late_ns = Vec::new();
    let mut spout_gap_ns = Vec::new();
    for s in &mut spouts {
        spans.append(&mut s.spans);
        gen_late_ns.extend(s.late_ns.iter().map(|&n| n as u64));
        spout_gap_ns.extend(s.gap_ns.iter().map(|&n| n as u64));
    }
    for b in &mut bolts {
        spans.append(&mut b.spans);
    }

    Segment {
        plan,
        report,
        component_ids,
        tuples,
        first_ns,
        startup_s: first_ns.saturating_sub(called_ns) as f64 / 1e9,
        wall_s: wall_ns as f64 / 1e9,
        cpu_s,
        drain_s,
        latency_ns,
        unicast_latency_ns,
        fanout_spread_ns,
        gen_late_ns,
        spout_gap_ns,
        ctx_switches: per_thread.values().sum(),
        skew,
        paced,
        unsustainable,
        spans,
        busy_share,
        gate,
    }
}

/// Second-half median latency against the first half's.
fn backlog_grew(latency_ns: &[u64]) -> bool {
    if latency_ns.len() < 64 {
        return false;
    }
    let (a, b) = latency_ns.split_at(latency_ns.len() / 2);
    let to_f = |v: &[u64]| v.iter().map(|&n| n as f64).collect::<Vec<_>>();
    let (first, second) = (median(&to_f(a)), median(&to_f(b)));
    second > BACKLOG_FLOOR_NS && second > BACKLOG_RATIO * first
}

/// Pair every sampled tuple's due time with the stamps its expected
/// destinations left: `(latency class, other tuples, fan-out spread)`.
/// A sample with a wrong destination count yields no latency (the gate
/// has already counted it).
fn completion_latencies(
    workload: &Workload,
    sample: u64,
    spouts: &[SpoutLog],
    sinks: &[&BoltLog],
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let class = workload.kind.latency_fanout();
    let mut by_due: Vec<(u64, u64)> = Vec::new();
    let mut others = Vec::new();
    let mut spread = Vec::new();
    for spout in spouts {
        let stream = &workload.streams[spout.stream];
        let n = spout.due_ns.len();
        let mut count = vec![0u8; n];
        let mut first = vec![u64::MAX; n];
        let mut last = vec![0u64; n];
        for sink in sinks {
            for &(s, seq, at) in &sink.stamps {
                let k = (seq as u64 / sample) as usize;
                if s as usize == spout.stream && k < n {
                    count[k] = count[k].saturating_add(1);
                    first[k] = first[k].min(at);
                    last[k] = last[k].max(at);
                }
            }
        }
        for k in 0..n {
            let want = stream.fanout_of(k as u64 * sample);
            if want == 0 || count[k] != want {
                continue;
            }
            let latency = last[k].saturating_sub(spout.due_ns[k]);
            if want == class {
                by_due.push((spout.due_ns[k], latency));
            } else {
                others.push(latency);
            }
            if want > 1 {
                spread.push(last[k] - first[k]);
            }
        }
    }
    by_due.sort_unstable();
    (by_due.into_iter().map(|(_, l)| l).collect(), others, spread)
}

/// The correctness gate: exact delivery accounting against the
/// reference. Totals that depend on thread interleaving (trades,
/// candidates) are checked as invariants, never as counts.
fn check(
    workload: &Workload,
    plan: &SegmentPlan,
    report: &RunReport,
    component_ids: &HashMap<String, usize>,
    spouts: &[SpoutLog],
    sinks: &[&BoltLog],
) -> Gate {
    let emitted: Vec<u64> = (0..workload.streams.len())
        .map(|i| {
            spouts
                .iter()
                .find(|s| s.stream == i)
                .map_or(0, |s| s.emitted)
        })
        .collect();
    let mut gate = Gate {
        expected: workload
            .streams
            .iter()
            .zip(&plan.counts)
            .map(|(s, &n)| s.expected_executions(n))
            .sum(),
        ..Gate::default()
    };

    if report.outcome != RunOutcome::Clean {
        gate.fail(gate.expected, format!("outcome {:?}", report.outcome));
    }
    if emitted != plan.counts {
        gate.fail(
            1,
            format!("spouts emitted {emitted:?}, planned {:?}", plan.counts),
        );
    }
    if report.spout_emitted != emitted.iter().sum::<u64>() {
        gate.fail(
            1,
            format!("runtime counted {} emissions", report.spout_emitted),
        );
    }
    for (what, n) in [
        ("dropped_frames", report.dropped_frames),
        ("send_failed", report.send_failed),
        ("thread_panics", report.thread_panics),
        ("deadline_exits", report.deadline_exits),
        ("tuples_failed", report.tuples_failed),
    ] {
        if n > 0 {
            gate.fail(n, format!("{what} = {n}"));
        }
    }
    if workload.kind.tracked() {
        let resolved = report.tuples_acked + report.tuples_failed;
        if resolved != report.spout_emitted {
            gate.fail(
                resolved.abs_diff(report.spout_emitted),
                format!(
                    "acked + failed = {resolved}, emitted {}",
                    report.spout_emitted
                ),
            );
        }
    }

    // Every seq at exactly its reference number of instances; equal
    // keys on one instance.
    if sinks.len() != SINKS as usize {
        gate.fail(
            gate.expected,
            format!("{} sink logs, want {SINKS}", sinks.len()),
        );
    }
    let duplicates: u64 = sinks.iter().map(|s| s.duplicates).sum();
    if duplicates > 0 {
        gate.fail(
            duplicates,
            format!("{duplicates} tuples executed twice by one instance"),
        );
    }
    let mut miscounted = 0u64;
    let mut misrouted = 0u64;
    for (idx, stream) in workload.streams.iter().enumerate() {
        let mut owner: HashMap<u64, usize> = HashMap::new();
        for seq in 0..emitted[idx] {
            let want = stream.fanout_of(seq) as u64;
            let mut got = 0u64;
            let mut at = 0usize;
            for (i, sink) in sinks.iter().enumerate() {
                if sink.saw(idx, seq) {
                    got += 1;
                    at = i;
                }
            }
            miscounted += got.abs_diff(want);
            if want == 1 && got == 1 {
                let key = stream.key[(seq % stream.key.len() as u64) as usize];
                if *owner.entry(key).or_insert(at) != at {
                    misrouted += 1;
                }
            }
        }
    }
    if miscounted > 0 {
        gate.fail(
            miscounted,
            format!("{miscounted} sink executions missing or extra"),
        );
    }
    if misrouted > 0 {
        gate.fail(
            misrouted,
            format!("{misrouted} keyed tuples left their key's instance"),
        );
    }

    // The runtime's own counters must tell the same story.
    let seen_at_sinks: u64 = sinks.iter().map(|s| s.executed).sum();
    for (component, want) in workload.exact_executions(&emitted) {
        let got = component_ids
            .get(component)
            .and_then(|&id| report.executed.get(id))
            .copied()
            .unwrap_or(0);
        if got != want {
            gate.fail(
                got.abs_diff(want),
                format!("{component} executed {got}, want {want}"),
            );
        }
        if component == workload.kind.sink() && seen_at_sinks != want {
            gate.fail(
                seen_at_sinks.abs_diff(want),
                format!("probes saw {seen_at_sinks} sink executions, want {want}"),
            );
        }
    }

    // Content: the field the bare sinks touch must sum to what the
    // spout stamped, once per destination.
    if sinks
        .first()
        .is_some_and(|_| workload.kind.sink() == "sink")
    {
        let per_tuple = workload.streams[0].fanout_of(0) as u64;
        let stamped = spouts.first().map_or(0, |s| s.checksum);
        let touched = sinks.iter().fold(0u64, |a, s| a.wrapping_add(s.checksum));
        if touched != stamped.wrapping_mul(per_tuple) {
            gate.fail(1, "sink checksum differs from the stamped input".into());
        }
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, ALL};

    /// A 10 k-tuple run of each workload through the correctness gate.
    #[test]
    fn every_workload_passes_the_gate_at_10k_tuples() {
        for kind in ALL {
            let w = Workload::generate(kind, 42);
            let seg = run_segment(&w, Variant::Main, w.saturation_plan(10_000, true));
            assert_eq!(seg.gate.violations, 0, "{kind:?}: {:?}", seg.gate.notes);
            assert_eq!(seg.tuples, 10_000);
            assert!(seg.gate.expected >= 10_000);
            assert!(seg.wall_s > 0.0 && seg.throughput_tps() > 0.0);
            assert!(!seg.latency_ns.is_empty(), "{kind:?} sampled no latency");
            assert!(!seg.spans.is_empty());
            // The cells the issue asserts zero.
            if !kind.relays() {
                assert_eq!(seg.report.relay_forwards, 0, "{kind:?}");
            }
            if !kind.tracked() {
                assert_eq!(seg.report.tuples_acked, 0, "{kind:?}");
                assert_eq!(seg.report.log_appended_records, 0, "{kind:?}");
            }
            if kind.sink() == "sink" {
                assert_eq!(seg.report.tuples_materialized, 0, "{kind:?}");
            }
        }
    }

    /// The ride-hailing preload must put each driver on the instance the
    /// runtime's key grouping sends its updates to, or a driver would
    /// sit in two tables.
    #[test]
    fn ride_preload_agrees_with_the_runtime_routing() {
        let w = Workload::generate(Kind::RideOnesided, 13);
        let collector = Arc::new(Collector::default());
        let plan = w.saturation_plan(4_000, false);
        let report = run_topology(
            w.topology(),
            w.operators(&plan, &collector),
            w.kind.config(Variant::Main),
        );
        assert_eq!(report.outcome, RunOutcome::Clean);
        let sinks = collector.bolts.lock().unwrap();
        let locations = &w.streams[0];
        for sink in sinks.iter().filter(|b| &*b.component == "matching") {
            let preloaded: std::collections::HashSet<u64> = w
                .preloaded(sink.instance as usize)
                .iter()
                .map(|t| t.get(1).and_then(whale_dsps::Value::as_i64).unwrap() as u64)
                .collect();
            assert!(!preloaded.is_empty());
            for seq in (0..plan.counts[0]).filter(|&seq| sink.saw(0, seq)) {
                assert!(
                    preloaded.contains(&locations.key[seq as usize]),
                    "seq {seq}"
                );
            }
        }
    }

    #[test]
    fn paced_segment_is_sustainable_and_timed_from_due() {
        let w = Workload::generate(Kind::KeyedRing, 5);
        let mut plan = w.paced_plan(0.2, false);
        plan.release = vec![Release::Paced(20_000.0)];
        plan.counts = vec![4_000];
        let seg = run_segment(&w, Variant::Main, plan);
        assert_eq!(seg.gate.violations, 0, "{:?}", seg.gate.notes);
        assert!(!seg.unsustainable);
        assert_eq!(seg.gen_late_ns.len(), 4_000);
        assert_eq!(seg.latency_ns.len(), 4_000 / 16);
        // 4000 tuples at 20 k/s take 0.2 s whatever the system does.
        assert!(seg.wall_s > 0.19, "wall {}", seg.wall_s);
    }

    #[test]
    fn the_gate_catches_a_wrong_reference() {
        // Claim every keyed tuple is a broadcast: 15 executions per
        // tuple go missing and the segment fails.
        let mut w = Workload::generate(Kind::KeyedRing, 9);
        w.streams[0].fanout.fill(SINKS as u8);
        let seg = run_segment(&w, Variant::Main, w.saturation_plan(2_000, false));
        assert!(seg.gate.violations >= 2_000 * 15, "{:?}", seg.gate.notes);
    }

    #[test]
    fn backlog_detection_needs_both_ratio_and_floor() {
        let flat: Vec<u64> = vec![100_000; 200];
        assert!(!backlog_grew(&flat));
        let hiccup: Vec<u64> = (0..200)
            .map(|i| if i < 100 { 500_000 } else { 40_000_000 })
            .collect();
        assert!(!backlog_grew(&hiccup), "sub-floor growth is noise");
        let growing: Vec<u64> = (0..200).map(|i| 1_000_000 + i * 2_000_000).collect();
        assert!(backlog_grew(&growing));
    }
}
