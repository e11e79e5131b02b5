//! The system workload monitor (§4): `StreamMonitor` measures the stream
//! input rate λ with α-weighted smoothing; `QueueMonitor` measures the
//! transfer-queue occupancy and the per-hop tuple processing time `t_e`.
//!
//! The controller consumes one [`MonitorReport`] per monitoring interval
//! Δt and decides whether to adjust the multicast structure.

use whale_sim::stats::{Ewma, Running};
use whale_sim::{SimDuration, SimTime};

/// Per-link congestion pressure sampled from a live runtime's per-link
/// load tracker (`whale_net::LinkTracker`) and folded into each
/// [`MonitorReport`]. All-zero (the [`Default`]) means "no topology
/// feedback" — the controller then behaves exactly as the λ-only §3.3
/// rules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkPressure {
    /// Deepest rack-uplink send queue (frames) at sample time.
    pub max_uplink_queue: u64,
    /// Total bytes delivered over rack uplinks so far.
    pub uplink_bytes: u64,
    /// Number of uplinks whose queue exceeds the configured hot
    /// threshold.
    pub hot_uplinks: u32,
}

/// One periodic observation handed to the controller.
#[derive(Clone, Copy, Debug)]
pub struct MonitorReport {
    /// Sample time.
    pub at: SimTime,
    /// Smoothed stream input rate λ (tuples/s).
    pub lambda: f64,
    /// Mean per-hop tuple processing time `t_e` (seconds).
    pub t_e_secs: f64,
    /// Transfer-queue length at sample time.
    pub queue_len: usize,
    /// Queue length at the previous sample.
    pub prev_queue_len: usize,
    /// Rack-uplink pressure (zeros when no tracker is installed).
    pub links: LinkPressure,
}

impl MonitorReport {
    /// Queue growth since the previous sample (negative = draining).
    pub fn delta(&self) -> i64 {
        self.queue_len as i64 - self.prev_queue_len as i64
    }
}

/// Collects raw arrivals, emit times, and queue samples; emits smoothed
/// reports at each monitoring interval.
#[derive(Clone, Debug)]
pub struct WorkloadMonitor {
    interval: SimDuration,
    alpha_lambda: Ewma,
    /// Arrivals since the window opened.
    window_arrivals: u64,
    window_start: SimTime,
    /// Per-tuple emit (hop processing) time estimator.
    t_e: Running,
    /// Default t_e used before any measurement exists (from calibration).
    t_e_default: f64,
    prev_queue_len: usize,
    last_report: Option<MonitorReport>,
}

impl WorkloadMonitor {
    /// Create a monitor sampling every `interval`, smoothing λ with
    /// `alpha` (the paper's α-weighted averaging), with a calibrated
    /// fallback `t_e_default` (seconds) until live measurements arrive.
    pub fn new(interval: SimDuration, alpha: f64, t_e_default: f64) -> Self {
        assert!(!interval.is_zero());
        assert!(t_e_default > 0.0);
        WorkloadMonitor {
            interval,
            alpha_lambda: Ewma::new(alpha),
            window_arrivals: 0,
            window_start: SimTime::ZERO,
            t_e: Running::new(),
            t_e_default,
            prev_queue_len: 0,
            last_report: None,
        }
    }

    /// The monitoring interval Δt.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Record `n` tuples arriving at the source.
    pub fn record_arrivals(&mut self, n: u64) {
        self.window_arrivals += n;
    }

    /// Record one measured per-hop emit time.
    pub fn record_emit_time(&mut self, d: SimDuration) {
        self.t_e.push(d.as_secs_f64());
    }

    /// Current t_e estimate (seconds).
    pub fn t_e_secs(&self) -> f64 {
        if self.t_e.count() == 0 {
            self.t_e_default
        } else {
            self.t_e.mean()
        }
    }

    /// Current smoothed λ estimate (tuples/s); 0 before the first window.
    pub fn lambda(&self) -> f64 {
        self.alpha_lambda.value().unwrap_or(0.0)
    }

    /// Close the current window at `now` with the observed queue length,
    /// producing a report. Call once per interval.
    pub fn sample(&mut self, now: SimTime, queue_len: usize) -> MonitorReport {
        self.sample_with_links(now, queue_len, LinkPressure::default())
    }

    /// [`sample`](Self::sample) with a rack-uplink pressure snapshot
    /// attached, for runtimes with a per-link load tracker
    /// (`whale_net::LinkTracker`) installed.
    pub fn sample_with_links(
        &mut self,
        now: SimTime,
        queue_len: usize,
        links: LinkPressure,
    ) -> MonitorReport {
        let elapsed = now.since(self.window_start);
        let raw_rate = if elapsed.is_zero() {
            0.0
        } else {
            self.window_arrivals as f64 / elapsed.as_secs_f64()
        };
        let lambda = self.alpha_lambda.observe(raw_rate);
        let report = MonitorReport {
            at: now,
            lambda,
            t_e_secs: self.t_e_secs(),
            queue_len,
            prev_queue_len: self.prev_queue_len,
            links,
        };
        self.prev_queue_len = queue_len;
        self.window_start = now;
        self.window_arrivals = 0;
        self.last_report = Some(report);
        report
    }

    /// The last emitted report.
    pub fn last_report(&self) -> Option<MonitorReport> {
        self.last_report
    }

    /// Export the current λ/t_e estimates and last queue observation into
    /// `reg` under `prefix.*`.
    pub fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str) {
        reg.set_gauge(&format!("{prefix}.lambda"), self.lambda());
        reg.set_gauge(&format!("{prefix}.t_e_secs"), self.t_e_secs());
        if let Some(r) = self.last_report {
            reg.set_gauge(&format!("{prefix}.queue_len"), r.queue_len as f64);
            reg.set_gauge(&format!("{prefix}.queue_delta"), r.delta() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> WorkloadMonitor {
        WorkloadMonitor::new(SimDuration::from_millis(100), 0.5, 5e-6)
    }

    #[test]
    fn lambda_measured_per_window() {
        let mut m = monitor();
        m.record_arrivals(1_000);
        let r = m.sample(SimTime::from_millis(100), 0);
        // 1000 tuples in 100ms → 10k/s; first EWMA observation passes through.
        assert!((r.lambda - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn lambda_smooths_across_windows() {
        let mut m = monitor();
        m.record_arrivals(1_000);
        m.sample(SimTime::from_millis(100), 0);
        // Next window: burst to 30k/s; α=0.5 smooths to 20k.
        m.record_arrivals(3_000);
        let r = m.sample(SimTime::from_millis(200), 0);
        assert!((r.lambda - 20_000.0).abs() < 1e-6, "lambda={}", r.lambda);
    }

    #[test]
    fn t_e_defaults_then_measures() {
        let mut m = monitor();
        assert!((m.t_e_secs() - 5e-6).abs() < 1e-18);
        m.record_emit_time(SimDuration::from_micros(10));
        m.record_emit_time(SimDuration::from_micros(20));
        assert!((m.t_e_secs() - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn queue_delta_tracked() {
        let mut m = monitor();
        let r1 = m.sample(SimTime::from_millis(100), 40);
        assert_eq!(r1.prev_queue_len, 0);
        assert_eq!(r1.delta(), 40);
        let r2 = m.sample(SimTime::from_millis(200), 25);
        assert_eq!(r2.prev_queue_len, 40);
        assert_eq!(r2.delta(), -15);
    }

    #[test]
    fn window_resets_after_sample() {
        let mut m = monitor();
        m.record_arrivals(500);
        m.sample(SimTime::from_millis(100), 0);
        // No arrivals in second window → raw rate 0, smoothed halves.
        let r = m.sample(SimTime::from_millis(200), 0);
        assert!((r.lambda - 2_500.0).abs() < 1e-6);
    }

    #[test]
    fn last_report_remembered() {
        let mut m = monitor();
        assert!(m.last_report().is_none());
        m.record_arrivals(10);
        let r = m.sample(SimTime::from_millis(100), 3);
        assert_eq!(m.last_report().unwrap().queue_len, r.queue_len);
    }

    #[test]
    fn link_pressure_rides_along_with_the_sample() {
        let mut m = monitor();
        // Plain sample carries the all-zero default.
        let r = m.sample(SimTime::from_millis(100), 0);
        assert_eq!(r.links, LinkPressure::default());
        let links = LinkPressure {
            max_uplink_queue: 9,
            uplink_bytes: 4_096,
            hot_uplinks: 1,
        };
        let r = m.sample_with_links(SimTime::from_millis(200), 2, links);
        assert_eq!(r.links, links);
        assert_eq!(m.last_report().unwrap().links.hot_uplinks, 1);
    }

    #[test]
    fn zero_elapsed_window_is_zero_rate() {
        let mut m = monitor();
        m.record_arrivals(100);
        let r = m.sample(SimTime::ZERO, 0);
        assert_eq!(r.lambda, 0.0);
    }
}
