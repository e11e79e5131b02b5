//! Measurement primitives: counters, histograms, and time series —
//! plus the [`MetricsRegistry`] snapshot type that unifies them.
//!
//! Experiments report throughput (tuples/s), latency distributions
//! (mean/percentiles), and over-time traces (Figs 23–24). These are the
//! minimal, allocation-conscious instruments for that. Every layer
//! (engine, live runtime, fabric, multicast controller) exports its
//! counters into a [`MetricsRegistry`], which renders to deterministic
//! JSON for the machine-readable bench reports under `results/`.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A monotonically increasing event counter with rate computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// New zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.count
    }

    /// Events per second over a window.
    pub fn rate(&self, window: SimDuration) -> f64 {
        let secs = window.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.count as f64 / secs
    }

    /// Reset to zero.
    pub fn reset(&mut self) {
        self.count = 0;
    }
}

/// A latency/size histogram with exact mean and approximate percentiles.
///
/// Values are bucketed logarithmically (≈4.6% relative bucket width), so
/// p50/p99 are accurate to a few percent at any scale — plenty for
/// reproducing the shapes of the paper's latency figures.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// log-scale buckets: value v goes to floor(ln(v+1) * SCALE).
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

const HIST_SCALE: f64 = 22.18; // ≈ 1 / ln(1.046)
const HIST_BUCKETS: usize = 1024;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// How many buckets every histogram has.
    pub const BUCKETS: usize = HIST_BUCKETS;

    /// The bucket `v` is counted in, below [`Self::BUCKETS`].
    pub fn bucket_of(v: u64) -> usize {
        let b = ((v as f64 + 1.0).ln() * HIST_SCALE) as usize;
        b.min(HIST_BUCKETS - 1)
    }

    /// The smallest value bucket `b` counts (saturating past `u64::MAX`).
    fn bucket_floor(b: usize) -> u64 {
        ((b as f64 / HIST_SCALE).exp() - 1.0).ceil() as u64
    }

    /// A histogram of values counted elsewhere, one count per
    /// [`Self::bucket_of`] bucket, with their exact sum. Its count is the
    /// buckets' total; its min and max are the edges of its lowest and
    /// highest non-empty bucket, within one bucket of the values counted.
    pub fn from_buckets(buckets: Vec<u64>, sum: f64) -> Self {
        assert_eq!(buckets.len(), HIST_BUCKETS, "one count per bucket");
        let lowest = buckets.iter().position(|&n| n > 0);
        let highest = buckets.iter().rposition(|&n| n > 0);
        Histogram {
            count: buckets.iter().sum(),
            sum,
            min: lowest.map_or(u64::MAX, Self::bucket_floor),
            max: highest.map_or(0, |b| Self::bucket_floor(b + 1).saturating_sub(1)),
            buckets,
        }
    }

    fn bucket_mid(b: usize) -> f64 {
        ((b as f64 + 0.5) / HIST_SCALE).exp() - 1.0
    }

    /// Record a raw value (e.g. nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_mid(b)
                    .max(self.min as f64)
                    .min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Mean as a `SimDuration` (interpreting values as nanoseconds).
    pub fn mean_duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.mean().round() as u64)
    }

    /// One-line summary: `(mean, p50, p99, max)` in raw units.
    pub fn summary(&self) -> (f64, f64, f64, u64) {
        (
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max(),
        )
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// An append-only `(time, value)` trace for over-time plots.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// New empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Times should be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(pt, _)| pt <= t),
            "time series must be appended in order"
        );
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value (None when empty).
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Mean of values over a time range `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Windowed rate meter: counts events and emits a rate sample per window.
///
/// Used to build throughput-over-time traces (Fig 23).
#[derive(Clone, Debug)]
pub struct RateMeter {
    window: SimDuration,
    window_start: SimTime,
    in_window: u64,
    series: TimeSeries,
}

impl RateMeter {
    /// New meter with the given sampling window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero());
        RateMeter {
            window,
            window_start: SimTime::ZERO,
            in_window: 0,
            series: TimeSeries::new(),
        }
    }

    /// Record `n` events at time `t`, closing any windows that have elapsed.
    pub fn record(&mut self, t: SimTime, n: u64) {
        self.roll_to(t);
        self.in_window += n;
    }

    /// Close windows up to time `t` (emitting zero-rate samples for empty
    /// windows so the trace has no gaps).
    pub fn roll_to(&mut self, t: SimTime) {
        while t >= self.window_start + self.window {
            let rate = self.in_window as f64 / self.window.as_secs_f64();
            self.series.push(self.window_start + self.window, rate);
            self.window_start += self.window;
            self.in_window = 0;
        }
    }

    /// Rate samples so far: `(window_end_time, events_per_sec)`.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Finish at time `t`, flushing the partial window if non-empty.
    pub fn finish(mut self, t: SimTime) -> TimeSeries {
        self.roll_to(t);
        let partial = t.since(self.window_start);
        if self.in_window > 0 && !partial.is_zero() {
            let rate = self.in_window as f64 / partial.as_secs_f64();
            self.series.push(t, rate);
        }
        self.series
    }
}

/// Distribution summary captured from a [`Histogram`]: count, mean, and
/// the p50/p95/p99 tail in the histogram's raw units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of recorded values.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median (approximate, log-bucketed).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Summary {
    /// Capture the current state of a histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        Summary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            min: h.min(),
            max: h.max(),
        }
    }
}

/// One labeled measurement inside a [`MetricsRegistry`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Point-in-time level (queue depth, CPU share, λ estimate, ...).
    Gauge(f64),
    /// Distribution summary with percentiles.
    Summary(Summary),
    /// `(seconds, value)` trace sampled over the run.
    Series(Vec<(f64, f64)>),
}

/// A labeled snapshot of every instrument a layer exports.
///
/// Keys are dotted paths (`engine.latency`, `net.verb_posts`,
/// `multicast.lambda`); iteration and JSON rendering are in sorted key
/// order, so two snapshots of the same deterministic run serialize to
/// byte-identical JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a monotonic counter value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.entries
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Record a point-in-time gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.entries
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Capture a histogram as a percentile summary.
    pub fn set_summary(&mut self, name: &str, histogram: &Histogram) {
        self.entries.insert(
            name.to_string(),
            MetricValue::Summary(Summary::from_histogram(histogram)),
        );
    }

    /// Capture a time series as `(seconds, value)` pairs.
    pub fn set_series(&mut self, name: &str, series: &TimeSeries) {
        let pts = series
            .points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect();
        self.entries
            .insert(name.to_string(), MetricValue::Series(pts));
    }

    /// Merge `other` under `prefix.` (e.g. `absorb("net", fabric_metrics)`
    /// files everything as `net.*`).
    pub fn absorb(&mut self, prefix: &str, other: MetricsRegistry) {
        for (k, v) in other.entries {
            self.entries.insert(format!("{prefix}.{k}"), v);
        }
    }

    /// Look up one metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Counter value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Summary value, if `name` is a summary.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        match self.entries.get(name) {
            Some(MetricValue::Summary(s)) => Some(*s),
            _ => None,
        }
    }

    /// Number of labeled metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate metrics in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render as a [`JsonValue`] object keyed by metric name.
    pub fn to_json(&self) -> JsonValue {
        let fields = self
            .entries
            .iter()
            .map(|(k, v)| {
                let jv = match v {
                    MetricValue::Counter(c) => JsonValue::UInt(*c),
                    MetricValue::Gauge(g) => JsonValue::Float(*g),
                    MetricValue::Summary(s) => JsonValue::Object(vec![
                        ("count".into(), JsonValue::UInt(s.count)),
                        ("mean".into(), JsonValue::Float(s.mean)),
                        ("p50".into(), JsonValue::Float(s.p50)),
                        ("p95".into(), JsonValue::Float(s.p95)),
                        ("p99".into(), JsonValue::Float(s.p99)),
                        ("min".into(), JsonValue::UInt(s.min)),
                        ("max".into(), JsonValue::UInt(s.max)),
                    ]),
                    MetricValue::Series(pts) => JsonValue::Array(
                        pts.iter()
                            .map(|&(t, v)| {
                                JsonValue::Array(vec![
                                    JsonValue::Float(t),
                                    JsonValue::Float(v),
                                ])
                            })
                            .collect(),
                    ),
                };
                (k.clone(), jv)
            })
            .collect();
        JsonValue::Object(fields)
    }
}

/// A JSON document tree with deterministic rendering.
///
/// Hand-rolled because the workspace has no serde: object fields render
/// in insertion order, floats through rust's shortest-roundtrip `Display`
/// (never scientific notation), and non-finite floats as `null` — so the
/// bytes of a rendered report depend only on the values, never on the
/// environment.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Finite float (non-finite renders as `null`).
    Float(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Object with fields rendered in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Render compactly (no whitespace) into `out`.
    pub fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v) => {
                if v.is_finite() {
                    // Display for f64 is shortest-roundtrip decimal,
                    // which always parses as a JSON number.
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32))
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// Render to an owned compact string.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// Render with two-space indentation (stable, human-diffable — the
    /// format written to `results/*.json`).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    JsonValue::Str(k.clone()).render(out);
                    out.push_str(": ");
                    v.render_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.render(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rate() {
        let mut c = Counter::new();
        c.add(501);
        assert_eq!(c.get(), 501);
        assert!((c.rate(SimDuration::from_secs(2)) - 250.5).abs() < 1e-9);
        assert_eq!(c.rate(SimDuration::ZERO), 0.0);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < 1e-9);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn histogram_percentiles_approximate() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.08, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.08, "p99={p99}");
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let (mean, p50, p99, max) = h.summary();
        assert!((mean - 50.5).abs() < 1e-9);
        assert!((p50 - 50.0).abs() / 50.0 < 0.1);
        assert!((p99 - 99.0).abs() / 99.0 < 0.1);
        assert_eq!(max, 100);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 200.0).abs() < 1e-9);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn a_histogram_rebuilt_from_its_buckets_keeps_count_sum_and_percentiles() {
        let mut h = Histogram::new();
        let mut buckets = vec![0; Histogram::BUCKETS];
        for v in (0..5_000u64).map(|i| i * i % 90_001) {
            h.record(v);
            buckets[Histogram::bucket_of(v)] += 1;
        }
        let rebuilt = Histogram::from_buckets(buckets, h.sum);
        assert_eq!((rebuilt.count(), rebuilt.mean()), (h.count(), h.mean()));
        for p in [50.0, 99.0] {
            assert_eq!(rebuilt.percentile(p), h.percentile(p), "p{p}");
        }
        // The extremes are the edges of the buckets holding them.
        assert_eq!(
            Histogram::bucket_of(rebuilt.min()),
            Histogram::bucket_of(h.min())
        );
        assert_eq!(
            Histogram::bucket_of(rebuilt.max()),
            Histogram::bucket_of(h.max())
        );
        let empty = Histogram::from_buckets(vec![0; Histogram::BUCKETS], 0.0);
        assert_eq!((empty.count(), empty.min(), empty.max()), (0, 0, 0));
    }

    #[test]
    fn histogram_wide_range() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1_000_000_000); // 1s in ns
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1_000_000_000);
    }

    #[test]
    fn timeseries_basic() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(2), 30.0);
        ts.push(SimTime::from_secs(3), 20.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max_value(), Some(30.0));
        assert_eq!(
            ts.mean_in(SimTime::from_secs(1), SimTime::from_secs(3)),
            Some(20.0)
        );
        assert_eq!(
            ts.mean_in(SimTime::from_secs(9), SimTime::from_secs(10)),
            None
        );
    }

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        // 100 events in window [0,1), 200 in [1,2), none in [2,3).
        for i in 0..100 {
            m.record(SimTime::from_millis(i * 10), 1);
        }
        for i in 0..200 {
            m.record(SimTime::from_millis(1000 + i * 5), 1);
        }
        let series = m.finish(SimTime::from_secs(3));
        let pts = series.points();
        assert_eq!(pts.len(), 3);
        assert!((pts[0].1 - 100.0).abs() < 1e-9);
        assert!((pts[1].1 - 200.0).abs() < 1e-9);
        assert!((pts[2].1 - 0.0).abs() < 1e-9);
    }

    #[test]
    fn summary_captures_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let s = Summary::from_histogram(&h);
        assert_eq!(s.count, 1_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000);
        assert!((s.p50 - 500.0).abs() / 500.0 < 0.08, "p50={}", s.p50);
        assert!((s.p95 - 950.0).abs() / 950.0 < 0.08, "p95={}", s.p95);
        assert!((s.p99 - 990.0).abs() / 990.0 < 0.08, "p99={}", s.p99);
    }

    #[test]
    fn registry_roundtrip_and_ordering() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("z.last", 1.5);
        r.set_counter("a.first", 7);
        let mut h = Histogram::new();
        h.record(10);
        r.set_summary("m.lat", &h);
        assert_eq!(r.counter("a.first"), Some(7));
        assert_eq!(r.gauge("z.last"), Some(1.5));
        assert_eq!(r.summary("m.lat").unwrap().count, 1);
        // Sorted iteration regardless of insertion order.
        let keys: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.first", "m.lat", "z.last"]);
    }

    #[test]
    fn registry_absorb_prefixes() {
        let mut inner = MetricsRegistry::new();
        inner.set_counter("posts", 3);
        let mut outer = MetricsRegistry::new();
        outer.absorb("net", inner);
        assert_eq!(outer.counter("net.posts"), Some(3));
    }

    #[test]
    fn json_rendering_is_compact_and_escaped() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::UInt(1)),
            ("b".into(), JsonValue::Float(2.5)),
            ("nan".into(), JsonValue::Float(f64::NAN)),
            ("s".into(), JsonValue::str("x\"y\n")),
            (
                "arr".into(),
                JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        assert_eq!(
            v.to_json_string(),
            r#"{"a":1,"b":2.5,"nan":null,"s":"x\"y\n","arr":[true,null]}"#
        );
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.set_gauge("g", 0.1 + 0.2);
            r.set_counter("c", u64::MAX);
            let mut ts = TimeSeries::new();
            ts.push(SimTime::from_millis(1500), 42.0);
            r.set_series("s", &ts);
            r.to_json().to_json_pretty()
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"c\": 18446744073709551615"));
    }

    #[test]
    fn rate_meter_partial_final_window() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        m.record(SimTime::from_millis(1_200), 50);
        let series = m.finish(SimTime::from_millis(1_500));
        let pts = series.points();
        // First window [0,1) empty, then partial [1, 1.5) with 50 events → 100/s.
        assert_eq!(pts.len(), 2);
        assert!((pts[1].1 - 100.0).abs() < 1e-9);
    }
}
