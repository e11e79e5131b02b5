//! The repo benchmark: wall-clock `run_topology` throughput, completion
//! latency and CPU cost on four workloads, with a per-layer budget.
//!
//! ```text
//! whale-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file.jsonl>]
//! whale-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One process runs one workload. An untraced run (`--trace 0`) reports
//! the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer ones and writes `benchmark/out/trace_<workload>.json`.
//! The last stdout line is the result as one JSON object. See
//! `README.md` beside this package for what each name means.

mod compare;
mod json;
mod layers;
mod metrics;
mod pace;
mod probe;
mod procfs;
mod segment;
mod stats;
mod trace;
mod workload;

use segment::{run_segment, Segment};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use whale_sim::JsonValue;
use workload::{Kind, Variant, Workload};

/// Measured segments per phase, each a fresh `run_topology`. Many short
/// segments repeat better on a shared host than few long ones.
///
/// Every timing reports its *best* segment (highest throughput, lowest
/// CPU cost, lowest latency percentile): a neighbour on the host only
/// ever slows a segment down, for seconds to minutes at a time. Over ten
/// seeds on the reference host the median segment's p50 spread by 2–9 %
/// where the best one's spread by 1–6 %. `--out` keeps every segment's
/// value.
const PACED_SEGMENTS: usize = 5;
const SATURATION_SEGMENTS: usize = 7;
/// Untraced paced segments of a traced run.
const TRACED_PACED_SEGMENTS: usize = 3;
/// Full set-ups (pool generation → first `next_tuple`) per untraced
/// run; `setup_s` is their median. They run back to back: spread over
/// the run, each one followed a saturation segment that had displaced
/// what the one before had warmed, and the median sat between the two
/// kinds.
const SETUP_PROBES: usize = 15;
/// Tuples of the short run that ends each set-up probe.
const SETUP_PROBE_TUPLES: u64 = 2_000;
/// Shares of `--seconds`: the untimed paced warm-up, one paced segment,
/// and one saturation segment (sized at the workload's frozen reference
/// rate). The saturation phase runs one extra, discarded segment first:
/// 0.02 + 5 × 0.06 + (1 + 7) × 0.085 = 1.00 of the run. Saturation gets
/// the larger part because its segments scatter more than latencies do.
const WARMUP_SHARE: f64 = 0.02;
const PACED_SHARE: f64 = 0.06;
const SATURATION_SHARE: f64 = 0.085;

struct Options {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Options),
    Compare(String, String),
}

const USAGE: &str =
    "usage: whale-benchmark --workload <fanout_relay|keyed_ring|stock_acklog|ride_onesided> \
--seed <u64> --seconds <1..60> --trace <0|1> [--out <file.jsonl>]\n       \
whale-benchmark --compare <a.jsonl> <b.jsonl>";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?.clone(), value()?.clone())),
            "--workload" => {
                let name = value()?;
                workload = Some(Kind::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&n) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(n);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(Options {
        kind: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    }))
}

/// Running totals of the correctness gate over every segment a process
/// runs (probes and warm-up included: they are checked too).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Measured paced segments, and the expected executions of those
    /// flagged unsustainable.
    paced: usize,
    unsustainable: Vec<u64>,
}

impl Tally {
    /// Delivery accounting only: the paced warm-up is checked, but runs
    /// cold and feeds no metric, so it has no say on sustainability.
    fn gate(&mut self, label: &str, seg: &Segment) {
        self.attempted += seg.gate.expected;
        self.failed += seg.gate.violations.min(seg.gate.expected.max(1));
        for note in &seg.gate.notes {
            eprintln!("gate [{label}]: {note}");
        }
    }

    fn add(&mut self, label: &str, seg: &Segment) {
        self.gate(label, seg);
        self.paced += usize::from(seg.paced);
        if seg.unsustainable {
            eprintln!(
                "gate [{label}]: paced segment unsustainable (drain {:.3} s) — backlog, not latency",
                seg.drain_s
            );
            self.unsustainable.push(seg.gate.expected.max(1));
        }
    }

    /// Backlog must never be reported as latency. The reported latency
    /// is the best paced segment's, which kept up if any did; but a
    /// program that keeps up in fewer than half of its segments does not
    /// sustain the rate, so when most were flagged all their executions
    /// count as failed. Fewer are a host hiccup the best segment already
    /// discards.
    fn failed(&self) -> u64 {
        let backlog = if 2 * self.unsustainable.len() > self.paced {
            self.unsustainable.iter().sum()
        } else {
            0
        };
        (self.failed + backlog).min(self.attempted)
    }
}

/// Tuples of one saturation segment and seconds of one paced segment.
fn sizing(kind: Kind, seconds: u64) -> (u64, f64) {
    let s = seconds as f64;
    (
        (kind.saturation_ref_tps() * SATURATION_SHARE * s) as u64,
        PACED_SHARE * s,
    )
}

type Reported = Vec<(&'static str, f64)>;

/// `--trace 0`: every end-to-end metric, each summarized over its
/// phase's fresh `run_topology` calls.
///
/// A paced segment runs first and `peak_rss_mb` is read right after it:
/// at a sustainable rate nothing queues, so the high-water mark is the
/// system's own footprint. An unthrottled spout outruns the sinks by a
/// margin that differs from run to run, so the mark at exit
/// (`runtime.peak_rss_exit_mb`, traced run) measures that backlog instead.
fn run_untraced(opts: &Options, tally: &mut Tally) -> (Reported, BTreeMap<&'static str, Vec<f64>>) {
    let (sat_tuples, paced_s) = sizing(opts.kind, opts.seconds);

    // Set-up: seed → pools → topology and threads → first next_tuple.
    // The first probe is the process's real, cold set-up.
    let mut setups = Vec::new();
    let mut workload = None;
    for i in 0..SETUP_PROBES {
        // One input alive at a time: `peak_rss_mb` is the system's
        // high-water mark, not that of two pools.
        drop(workload.take());
        let t0 = pace::now_ns();
        let w = Workload::generate(opts.kind, opts.seed);
        let seg = run_segment(
            &w,
            Variant::Main,
            w.saturation_plan(SETUP_PROBE_TUPLES, false),
        );
        setups.push(seg.first_ns.saturating_sub(t0) as f64 / 1e9);
        tally.add(&format!("setup {i}"), &seg);
        workload = Some(w);
    }
    let workload = workload.expect("SETUP_PROBES > 0");

    let warmup_s = WARMUP_SHARE * opts.seconds as f64;
    let seg = run_segment(
        &workload,
        Variant::Main,
        workload.paced_plan(warmup_s, false),
    );
    tally.gate("warm-up", &seg);

    let mut p50 = Vec::new();
    let mut samples = 0;
    let mut paced = |i: usize, tally: &mut Tally| {
        let seg = run_segment(
            &workload,
            Variant::Main,
            workload.paced_plan(paced_s, false),
        );
        tally.add(&format!("paced {i}"), &seg);
        p50.push(p_us(&seg.latency_ns, 0.5));
        samples += seg.latency_ns.len();
    };
    paced(0, tally);
    let rss = procfs::peak_rss_mb();

    // The two phases take turns, so that a slow quarter of a minute on
    // the host cannot cover every segment of either. The first
    // saturation segment pays for what the paced ones never touched
    // (deeper queues, larger logs); it is checked, not reported.
    let (mut tps, mut cpu) = (Vec::new(), Vec::new());
    for i in 0..=SATURATION_SEGMENTS {
        let seg = run_segment(
            &workload,
            Variant::Main,
            workload.saturation_plan(sat_tuples, false),
        );
        tally.add(&format!("saturation {i}"), &seg);
        if i > 0 {
            tps.push(seg.throughput_tps());
            cpu.push(seg.cpu_s_per_mtuple());
        }
        if (1..PACED_SEGMENTS).contains(&i) {
            paced(i, tally);
        }
    }
    println!(
        "# paced at {} tuples/s for {paced_s:.2} s × {PACED_SEGMENTS}; {samples} latency samples \
         (tuples with {} destinations, 1 in {} stamped)",
        opts.kind.paced_tps(),
        opts.kind.latency_fanout(),
        opts.kind.latency_sample()
    );

    let best = |values: &[f64], pick: fn(f64, f64) -> f64| {
        values.iter().copied().reduce(pick).unwrap_or(0.0)
    };
    let summarized = [
        ("throughput_tps", best(&tps, f64::max), tps),
        ("cpu_s_per_mtuple", best(&cpu, f64::min), cpu),
        ("latency_p50_us", best(&p50, f64::min), p50),
        ("peak_rss_mb", rss, vec![rss]),
        ("setup_s", median(&setups), setups),
    ];
    assert!(
        summarized
            .iter()
            .map(|s| s.0)
            .eq(metrics::END_TO_END.iter().map(|m| m.0)),
        "every end-to-end metric, in the declared order"
    );
    let reported = summarized
        .iter()
        .map(|(name, value, _)| (*name, *value))
        .collect();
    let per_segment = summarized
        .into_iter()
        .map(|(name, _, values)| (name, values))
        .collect();
    (reported, per_segment)
}

fn median_of(segments: &[Segment], f: impl Fn(&Segment) -> f64) -> f64 {
    median(&segments.iter().map(f).collect::<Vec<_>>())
}

fn p_us(values: &[u64], q: f64) -> f64 {
    percentile(&mut values.to_vec(), q) as f64 / 1e3
}

/// Source-tuple emissions that go through `route_into` + `plan` (the
/// relay path skips both), from the counts of a segment.
fn routed_emissions(workload: &Workload, seg: &Segment) -> f64 {
    let aggregated = seg.executed("aggregation") as f64;
    match workload.kind {
        Kind::FanoutRelay => 0.0,
        Kind::KeyedRing => seg.tuples as f64,
        Kind::StockAcklog => {
            let s = &workload.streams[0];
            let passed = (0..seg.plan.counts[0])
                .filter(|&i| s.fanout_of(i) > 0)
                .count();
            2.0 * seg.tuples as f64 + passed as f64 + aggregated
        }
        Kind::RideOnesided => seg.plan.counts[0] as f64 + aggregated,
    }
}

/// The layer budget of ROADMAP item A: Σ layer ns/op × ops per source
/// tuple (ops from the saturation segment's counts, ns/op from the
/// drives in `m`), beside the CPU a source tuple actually cost. The gap
/// is the next thing to find.
fn budget(workload: &Workload, sat: &Segment, m: &BTreeMap<&'static str, f64>) -> (f64, f64) {
    let kind = workload.kind;
    let r = &sat.report;
    let n = sat.tuples as f64;
    let g = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let routed = routed_emissions(workload, sat) / n;
    let frames = r.frames_encoded as f64 / n;
    let fabric_ns = g("fabric.per_send.send_recv_ns")
        + g("fabric.ring.post_flush_ns")
        + g("fabric.one_sided.publish_fetch_ns");
    // The acker drive times 18 ledger ops (init, arm, 16 acks); a
    // tracked tuple costs init + arm + one ack per first-hop subscriber
    // (the two splits).
    let ledger_ops = if kind.tracked() { 4.0 } else { 0.0 };
    let per_exec = |component: &str, metric: &str| sat.executed(component) as f64 / n * g(metric);
    let apps_ns = match kind {
        Kind::StockAcklog => {
            per_exec("split_sell", "apps.stock.split_execute_ns")
                + per_exec("split_buy", "apps.stock.split_execute_ns")
                + per_exec("matching", "apps.stock.matching_execute_ns")
                + per_exec("aggregation", "apps.stock.volume_execute_ns")
        }
        // Every request scans at all 16 instances; location inserts are
        // noise beside that.
        Kind::RideOnesided => {
            sat.plan.counts[1] as f64 * workload::SINKS as f64 / n
                * g("apps.ride.matching_execute_ns")
                + per_exec("aggregation", "apps.ride.aggregation_execute_ns")
        }
        Kind::FanoutRelay | Kind::KeyedRing => 0.0,
    };
    let layer_sum = r.serializations as f64 / n * g("codec.encode_ns")
        + frames * (g("codec.frame_encode_ns") + g("pool.acquire_share_ns"))
        + routed * (g("grouping.route_ns") + g("grouping.plan_ns"))
        + r.fabric_messages as f64 / n * (fabric_ns + g("codec.view_parse_ns"))
        + r.tuples_materialized as f64 / n * g("codec.materialize_ns")
        + r.relay_forwards as f64 / n * g("relay.forward_ns_p50")
        + ledger_ops * g("acker.init_ack_ns") / 18.0
        + r.log_appended_records as f64 / n * g("log.append_ns")
        + apps_ns;
    (layer_sum, sat.cpu_s / n * 1e9)
}

/// `--trace 1`: every per-layer metric. Counts come from the untraced
/// segments' `RunReport`s; the traced segments add spans and busy
/// shares; the drives add ns/op; the budget ties them together.
fn run_traced(opts: &Options, tally: &mut Tally) -> Reported {
    let kind = opts.kind;
    let (sat_tuples, paced_s) = sizing(kind, opts.seconds);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut gen_ns = Vec::new();
    let mut workload = None;
    for _ in 0..3 {
        let t0 = pace::now_ns();
        workload = Some(Workload::generate(kind, opts.seed));
        let records =
            (workload::POOL_RECORDS * workload.as_ref().expect("set").streams.len()) as f64;
        gen_ns.push((pace::now_ns() - t0) as f64 / records);
    }
    let workload = workload.expect("generated");
    m.insert("workloads.gen_ns", median(&gen_ns));

    let warmup_s = WARMUP_SHARE * opts.seconds as f64;
    let seg = run_segment(
        &workload,
        Variant::Main,
        workload.paced_plan(warmup_s, false),
    );
    tally.gate("warm-up", &seg);

    let mut run = |label: &str, variant, plan| {
        let seg = run_segment(&workload, variant, plan);
        tally.add(label, &seg);
        seg
    };
    let sat = run(
        "saturation",
        Variant::Main,
        workload.saturation_plan(sat_tuples, false),
    );
    let sat_traced = run(
        "saturation traced",
        Variant::Main,
        workload.saturation_plan(sat_tuples, true),
    );
    // Tails and generator lateness of a single segment follow whatever
    // the host did during it; three and their median do not.
    let paced: Vec<Segment> = (0..TRACED_PACED_SEGMENTS)
        .map(|i| {
            run(
                &format!("paced {i}"),
                Variant::Main,
                workload.paced_plan(paced_s, false),
            )
        })
        .collect();
    let paced_traced = run(
        "paced traced",
        Variant::Main,
        workload.paced_plan(paced_s, true),
    );
    if kind == Kind::FanoutRelay {
        // The measured counterparts of the modeled E20/E22 ratios,
        // sized to take about as long as each other.
        let direct = run(
            "direct",
            Variant::Direct,
            workload.saturation_plan(sat_tuples / 3, false),
        );
        let storm = run(
            "storm baseline",
            Variant::StormBaseline,
            workload.saturation_plan(sat_tuples / 12, false),
        );
        m.insert("runtime.direct_tps", direct.throughput_tps());
        m.insert("runtime.storm_baseline_tps", storm.throughput_tps());
    }

    for (name, v) in layers::drive_all(&workload) {
        m.insert(name, v);
    }

    // Counts, per source tuple, from the untraced saturation segment.
    let r = &sat.report;
    let n = sat.tuples as f64;
    let sink_deliveries = sat.executed(kind.sink()) as f64;
    m.insert(
        "codec.serializations_per_tuple",
        r.serializations as f64 / n,
    );
    m.insert(
        "codec.materialized_share",
        r.tuples_materialized as f64 / sink_deliveries,
    );
    m.insert("grouping.skew", sat.skew);
    m.insert("pool.hit_rate", r.pool_hit_rate);
    m.insert("pool.high_watermark", r.pool_high_watermark as f64);
    m.insert("fabric.msgs_per_tuple", r.fabric_messages as f64 / n);
    m.insert("fabric.shared_bytes_per_tuple", r.shared_bytes as f64 / n);
    m.insert("fabric.copied_bytes_per_tuple", r.copied_bytes as f64 / n);
    m.insert("fabric.send_retries", r.send_retries as f64);
    m.insert("fabric.send_errors", r.send_errors as f64);
    m.insert("fabric.batches_flushed", r.batches_flushed as f64);
    m.insert("fabric.mean_batch_size", r.mean_batch_size);
    m.insert(
        "relay.forward_ns_p50",
        percentile(&mut r.relay_forward_ns.clone(), 0.5) as f64,
    );
    m.insert("relay.forwards_per_tuple", r.relay_forwards as f64 / n);
    m.insert("relay.bytes_per_tuple", r.relay_bytes as f64 / n);
    m.insert(
        "relay.depth_max",
        r.relay_depths
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0.0, |d| d as f64),
    );
    m.insert("acker.acked_share", r.tuples_acked as f64 / n);
    m.insert(
        "acker.replayed_per_mtuple",
        r.tuples_replayed as f64 / n * 1e6,
    );
    m.insert("acker.dedup_dropped", r.dedup_dropped as f64);
    m.insert(
        "log.appended_bytes_per_tuple",
        r.log_appended_bytes as f64 / n,
    );
    m.insert("log.retained_bytes_end", r.log_retained_bytes as f64);
    m.insert(
        "log.gcd_share",
        if r.log_appended_bytes == 0 {
            0.0
        } else {
            r.log_gcd_bytes as f64 / r.log_appended_bytes as f64
        },
    );
    m.insert(
        "runtime.spout_gap_ns_p50",
        percentile(&mut sat.spout_gap_ns.clone(), 0.5) as f64,
    );
    m.insert(
        "runtime.ctx_switches_per_mtuple",
        sat.ctx_switches as f64 / n * 1e6,
    );
    m.insert("runtime.startup_s", sat.startup_s);
    m.insert("runtime.sink_busy_share", sat_traced.busy(kind.sink()));
    match kind {
        Kind::StockAcklog => m.insert(
            "apps.stock.matching_busy_share",
            sat_traced.busy("matching"),
        ),
        Kind::RideOnesided => {
            m.insert("apps.ride.matching_busy_share", sat_traced.busy("matching"))
        }
        _ => None,
    };
    m.insert(
        "runtime.trace_overhead_share",
        1.0 - sat_traced.throughput_tps() / sat.throughput_tps(),
    );

    // The open loop, honestly: tail latency, generator lateness, drain.
    let tail = |q: f64| median_of(&paced, |s| p_us(&s.latency_ns, q));
    m.insert("runtime.latency_p90_us", tail(0.9));
    m.insert("runtime.latency_p99_us", tail(0.99));
    m.insert("runtime.latency_p999_us", tail(0.999));
    m.insert(
        "runtime.latency_samples",
        median_of(&paced, |s| s.latency_ns.len() as f64),
    );
    m.insert(
        "runtime.unicast_latency_p50_us",
        median_of(&paced, |s| p_us(&s.unicast_latency_ns, 0.5)),
    );
    m.insert(
        "runtime.fanout_spread_us_p50",
        median_of(&paced, |s| p_us(&s.fanout_spread_ns, 0.5)),
    );
    m.insert(
        "runtime.gen_late_p99_us",
        median_of(&paced, |s| p_us(&s.gen_late_ns, 0.99)),
    );
    m.insert("runtime.drain_s", median_of(&paced, |s| s.drain_s));

    let (layer_sum, cpu_ns) = budget(&workload, &sat, &m);
    m.insert("budget.layer_sum_ns_per_tuple", layer_sum);
    m.insert("budget.cpu_ns_per_tuple", cpu_ns);
    m.insert("budget.unexplained_share", 1.0 - layer_sum / cpu_ns);

    let trace_path = PathBuf::from(format!("benchmark/out/trace_{}.json", kind.name()));
    let phases = [
        trace::Phase {
            name: "saturation",
            spans: &sat_traced.spans,
        },
        trace::Phase {
            name: "paced",
            spans: &paced_traced.spans,
        },
    ];
    match trace::write(
        &trace_path,
        kind.name(),
        opts.seed,
        &workload.topology(),
        &phases,
    ) {
        Ok(()) => println!("# spans written to {}", trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }

    m.insert("runtime.peak_rss_exit_mb", procfs::peak_rss_mb());
    m.insert(
        "runtime.failed_share",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
    );
    metrics::PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, m.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn metrics_json(reported: &Reported) -> JsonValue {
    JsonValue::Object(
        reported
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Float(value)),
                        ("unit".into(), JsonValue::str(metrics::unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(opts: &Options) -> ExitCode {
    pace::now_ns(); // start the process clock
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before any thread exists: every thread of the run inherits the mask.
    let pinned = procfs::pin_to_one_cpu();
    println!(
        "# workload {} seed {} seconds {} trace {}; {}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        match pinned {
            Some(cpu) => format!("every thread on CPU {cpu} of {nproc}"),
            None => format!("NOT pinned: {nproc} CPUs, numbers follow the scheduler"),
        }
    );
    let mut tally = Tally::default();
    let (reported, per_segment) = if opts.trace {
        (run_traced(opts, &mut tally), BTreeMap::new())
    } else {
        run_untraced(opts, &mut tally)
    };
    let failed = tally.failed();
    let correct = failed == 0 && reported.iter().all(|(_, v)| v.is_finite());

    for &(name, value) in &reported {
        println!("{name:<36} {value:>18.4} {}", metrics::unit_of(name));
    }
    let result = vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::UInt(tally.attempted.max(1)),
        ),
        ("failed".to_string(), JsonValue::UInt(failed)),
        ("metrics".to_string(), metrics_json(&reported)),
    ];

    if let Some(path) = &opts.out {
        let host = procfs::host(nproc);
        let mut record = vec![
            ("workload".to_string(), JsonValue::str(opts.kind.name())),
            ("seed".to_string(), JsonValue::UInt(opts.seed)),
            ("seconds".to_string(), JsonValue::UInt(opts.seconds)),
            ("trace".to_string(), JsonValue::UInt(opts.trace as u64)),
            (
                "host".to_string(),
                JsonValue::Object(vec![
                    ("nproc".into(), JsonValue::UInt(host.nproc as u64)),
                    (
                        "pinned_cpu".into(),
                        pinned.map_or(JsonValue::Null, |c| JsonValue::UInt(c as u64)),
                    ),
                    ("cpu_model".into(), JsonValue::str(host.cpu_model)),
                    ("kernel".into(), JsonValue::str(host.kernel)),
                    ("rustc".into(), JsonValue::str(host.rustc)),
                ]),
            ),
        ];
        record.extend(result.iter().cloned());
        record.push((
            "segments".to_string(),
            JsonValue::Object(
                per_segment
                    .iter()
                    .map(|(k, v)| {
                        let values = v.iter().map(|&x| JsonValue::Float(x)).collect();
                        (k.to_string(), JsonValue::Array(values))
                    })
                    .collect(),
            ),
        ));
        let line = JsonValue::Object(record).to_json_string() + "\n";
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("could not append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    println!("{}", JsonValue::Object(result).to_json_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {failed} of {} sink executions", tally.attempted);
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(a, b)) => match compare::run(&a, &b, "BENCHMARK.json") {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let Ok(Command::Run(o)) = parse_args(&args(
            "--workload keyed_ring --seed 18446744073709551615 --seconds 20 --trace 1",
        )) else {
            panic!("should parse");
        };
        assert_eq!(
            (o.kind, o.seed, o.seconds, o.trace),
            (Kind::KeyedRing, u64::MAX, 20, true)
        );
        assert!(matches!(
            parse_args(&args("--compare a.jsonl b.jsonl")),
            Ok(Command::Compare(a, b)) if a == "a.jsonl" && b == "b.jsonl"
        ));
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload keyed_ring --seed x --seconds 5 --trace 0",
            "--workload keyed_ring --seed 1 --seconds 0 --trace 0",
            "--workload keyed_ring --seed 1 --seconds 61 --trace 0",
            "--workload keyed_ring --seed 1 --seconds 5 --trace 2",
            "--workload keyed_ring --seed 1 --seconds 5",
            "--workload keyed_ring --seed 1 --seconds 5 --trace 0 --bogus",
            "--compare only_one",
        ] {
            assert!(
                parse_args(&args(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn backlog_fails_the_run_only_when_most_segments_queued() {
        let mut tally = Tally {
            attempted: 5_000,
            failed: 0,
            paced: 5,
            unsustainable: vec![1_000, 1_000],
        };
        assert_eq!(tally.failed(), 0, "two of five: most segments kept up");
        tally.unsustainable.push(1_000);
        assert_eq!(tally.failed(), 3_000);
        // The traced run has one paced segment: flagged means failed.
        let traced = Tally {
            attempted: 4_000,
            failed: 7,
            paced: 1,
            unsustainable: vec![1_000],
        };
        assert_eq!(traced.failed(), 1_007);
    }

    #[test]
    fn a_run_measures_for_about_the_seconds_asked() {
        let (tuples, paced_s) = sizing(Kind::FanoutRelay, 20);
        let sat_s = tuples as f64 / Kind::FanoutRelay.saturation_ref_tps();
        let measured = (1 + SATURATION_SEGMENTS) as f64 * sat_s
            + PACED_SEGMENTS as f64 * paced_s
            + WARMUP_SHARE * 20.0;
        assert!((19.5..=20.5).contains(&measured), "{measured}");
    }
}
