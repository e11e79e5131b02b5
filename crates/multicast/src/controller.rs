//! The queue-based self-adjusting mechanism (§3.3).
//!
//! The controller watches the transfer queue through [`MonitorReport`]s
//! and decides when to reorganize the multicast structure:
//!
//! - **Negative scale-down**: the queue grew by ΔL and
//!   `ΔL / (l_w − l) ≥ T_down` (or the waterline `l_w` is already
//!   breached) → decrease the source's out-degree to raise its service
//!   rate before the queue blocks.
//! - **Active scale-up**: the queue shrank by ΔL and `ΔL / l' ≥ T_up`, or
//!   the queue is empty in consecutive samples → increase the out-degree
//!   to cut multicast latency.
//!
//! The new target degree is `d*` from the corrected Eq. (3) (see
//! `whale_sim::cost::mdone`). Theorems 3–5 are provided as checkable
//! predicates and are exercised by tests and benches.

use crate::monitor::MonitorReport;
use whale_sim::cost::mdone;

/// Controller parameters.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Transfer-queue capacity `Q`.
    pub queue_capacity: usize,
    /// Warning waterline `l_w` (absolute length, < Q).
    pub waterline: usize,
    /// Negative scale-down threshold `T_down`.
    pub t_down: f64,
    /// Active scale-up threshold `T_up`.
    pub t_up: f64,
    /// Hard ceiling on the out-degree (e.g. `ceil(log2(n+1))`).
    pub max_degree: u32,
    /// `true`: the paper's proactive rules (Δ-ratio thresholds).
    /// `false`: the *baseline dynamic switch* of Definition 3 — only act
    /// once the queue has actually reached the waterline. Theorem 3 says
    /// the proactive strategy's peak queue is never worse; the ablation
    /// bench measures it.
    pub proactive: bool,
}

impl ControllerConfig {
    /// Reasonable defaults for a queue of capacity `q` and `n`
    /// destinations: waterline at 60% of Q, thresholds 0.5 / 0.5.
    pub fn for_queue(q: usize, n: u32) -> Self {
        ControllerConfig {
            queue_capacity: q,
            waterline: (q * 6) / 10,
            t_down: 0.5,
            t_up: 0.5,
            max_degree: crate::builder::binomial_source_degree(n).max(1),
            proactive: true,
        }
    }

    /// The baseline dynamic switch (Definition 3) for ablation.
    pub fn baseline(q: usize, n: u32) -> Self {
        ControllerConfig {
            proactive: false,
            ..Self::for_queue(q, n)
        }
    }
}

/// What the controller decided for this interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Keep the current structure.
    Hold,
    /// Reorganize to a smaller out-degree (negative scale-down).
    ScaleDown {
        /// The new maximum out-degree.
        d_star: u32,
    },
    /// Reorganize to a larger out-degree (active scale-up).
    ScaleUp {
        /// The new maximum out-degree.
        d_star: u32,
    },
}

/// The self-adjusting controller.
#[derive(Clone, Debug)]
pub struct AdjustController {
    config: ControllerConfig,
    current_d: u32,
    /// Consecutive empty-queue samples (for the `l = l' = 0` rule).
    empty_streak: u32,
    decisions: u64,
    scale_downs: u64,
    scale_ups: u64,
}

impl AdjustController {
    /// Create with an initial out-degree.
    pub fn new(config: ControllerConfig, initial_d: u32) -> Self {
        assert!(initial_d >= 1);
        AdjustController {
            config,
            current_d: initial_d.min(config.max_degree),
            empty_streak: 0,
            decisions: 0,
            scale_downs: 0,
            scale_ups: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// The currently applied out-degree.
    pub fn current_degree(&self) -> u32 {
        self.current_d
    }

    /// Target `d*` for the report's λ and t_e, clamped to
    /// `[1, max_degree]`.
    pub fn target_degree(&self, report: &MonitorReport) -> u32 {
        if report.lambda <= 0.0 {
            return self.config.max_degree;
        }
        mdone::d_star(report.lambda, report.t_e_secs, self.config.queue_capacity)
            .clamp(1, self.config.max_degree)
    }

    /// Consume one report and decide. Applies the decision internally
    /// (callers then execute the corresponding switch).
    pub fn decide(&mut self, report: &MonitorReport) -> Decision {
        self.decisions += 1;
        let l_prev = report.prev_queue_len as f64;
        let l_cur = report.queue_len as f64;
        let waterline = self.config.waterline as f64;
        let target = self.target_degree(report);

        if report.queue_len == 0 && report.prev_queue_len == 0 {
            self.empty_streak += 1;
        } else {
            self.empty_streak = 0;
        }

        // A queue pinned at or above the waterline must scale down even
        // when it cannot grow further (it may already be full and
        // dropping tuples — ΔL = 0 but the system is overloaded). If the
        // M/D/1 target equals the current degree yet the queue sits above
        // the waterline, the model is underestimating the marginal load:
        // step down one further degree anyway (converging to 1, the
        // maximum service rate). Hot rack uplinks count as the same kind
        // of overload: the λ-only M/D/1 model can't see inter-rack
        // oversubscription, so congested uplinks force the step-down too
        // (a lower d* means fewer concurrent cross-rack edges).
        if (l_cur >= waterline || report.links.hot_uplinks > 0) && self.current_d > 1 {
            let new_d = target.min(self.current_d - 1).max(1);
            self.current_d = new_d;
            self.scale_downs += 1;
            return Decision::ScaleDown { d_star: new_d };
        }

        // Negative scale-down: queue grew toward the waterline.
        if l_cur > l_prev {
            let delta = l_cur - l_prev;
            let headroom = waterline - l_cur;
            // Proactive: react to the growth *rate* before the waterline.
            // Baseline (Definition 3): only react at the waterline itself
            // (that case returned above).
            let triggered = self.config.proactive
                && (headroom <= 0.0 || delta / headroom >= self.config.t_down);
            if triggered && target < self.current_d {
                self.current_d = target;
                self.scale_downs += 1;
                return Decision::ScaleDown { d_star: target };
            }
            return Decision::Hold;
        }

        // Active scale-up: queue drained fast, or stayed empty.
        let drained_fast =
            l_cur < l_prev && l_prev > 0.0 && (l_prev - l_cur) / l_prev >= self.config.t_up;
        let idle = self.empty_streak >= 1;
        if (drained_fast || idle) && target > self.current_d {
            self.current_d = target;
            self.scale_ups += 1;
            return Decision::ScaleUp { d_star: target };
        }
        Decision::Hold
    }

    /// Decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Scale-downs performed.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// Scale-ups performed.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// Export the applied degree and decision counters into `reg` under
    /// `prefix.*`.
    pub fn export_metrics(&self, reg: &mut whale_sim::MetricsRegistry, prefix: &str) {
        reg.set_gauge(&format!("{prefix}.degree"), self.current_d as f64);
        reg.set_counter(&format!("{prefix}.decisions"), self.decisions);
        reg.set_counter(&format!("{prefix}.scale_downs"), self.scale_downs);
        reg.set_counter(&format!("{prefix}.scale_ups"), self.scale_ups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whale_sim::SimTime;

    fn report(lambda: f64, prev: usize, cur: usize) -> MonitorReport {
        MonitorReport {
            at: SimTime::from_millis(100),
            lambda,
            t_e_secs: 5e-6,
            queue_len: cur,
            prev_queue_len: prev,
            links: Default::default(),
        }
    }

    fn controller(d0: u32) -> AdjustController {
        AdjustController::new(ControllerConfig::for_queue(2_048, 480), d0)
    }

    #[test]
    fn holds_when_stable() {
        let mut c = controller(4);
        // Mild growth far from the waterline: Δ=10, headroom big.
        let d = c.decide(&report(20_000.0, 100, 110));
        assert_eq!(d, Decision::Hold);
        assert_eq!(c.current_degree(), 4);
    }

    #[test]
    fn scales_down_on_rapid_growth() {
        let mut c = controller(9);
        // λ=100k/s with t_e=5µs: d* ≈ 1. Queue grows hard near waterline
        // (l_w = 1228): Δ=400, headroom=1228-1100=128 → ratio >> T_down.
        let d = c.decide(&report(100_000.0, 700, 1_100));
        assert_eq!(d, Decision::ScaleDown { d_star: 1 });
        assert_eq!(c.current_degree(), 1);
        assert_eq!(c.scale_downs(), 1);
    }

    #[test]
    fn scales_down_when_waterline_breached() {
        let mut c = controller(6);
        // Already past the waterline: any growth triggers.
        let d = c.decide(&report(60_000.0, 1_300, 1_320));
        match d {
            Decision::ScaleDown { d_star } => assert!(d_star < 6),
            other => panic!("expected scale-down, got {other:?}"),
        }
    }

    #[test]
    fn no_scale_down_if_target_not_smaller() {
        let mut c = controller(1);
        // Even with triggering growth, d* can't go below 1.
        let d = c.decide(&report(200_000.0, 1_000, 1_200));
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn scales_up_on_fast_drain() {
        let mut c = controller(1);
        // λ=10k/s, t_e=5µs → d* ≈ 19, capped at max_degree=9.
        // Queue drained 80%: 500 → 100.
        let d = c.decide(&report(10_000.0, 500, 100));
        assert_eq!(d, Decision::ScaleUp { d_star: 9 });
        assert_eq!(c.current_degree(), 9);
    }

    #[test]
    fn scales_up_when_idle() {
        let mut c = controller(2);
        let d = c.decide(&report(5_000.0, 0, 0));
        match d {
            Decision::ScaleUp { d_star } => assert!(d_star > 2),
            other => panic!("expected scale-up, got {other:?}"),
        }
    }

    #[test]
    fn slow_drain_holds() {
        let mut c = controller(3);
        // Drained only 10% — below T_up = 0.5.
        let d = c.decide(&report(10_000.0, 1_000, 900));
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn target_degree_clamped() {
        let c = controller(3);
        // Idle stream: unbounded d* clamps to max_degree.
        let r = report(0.0, 0, 0);
        assert_eq!(c.target_degree(&r), c.config().max_degree);
        // Overload clamps to 1.
        let r = report(1e9, 0, 0);
        assert_eq!(c.target_degree(&r), 1);
    }

    #[test]
    fn decision_counters() {
        let mut c = controller(5);
        c.decide(&report(100_000.0, 700, 1_100)); // down
        c.decide(&report(10_000.0, 500, 100)); // up
        c.decide(&report(20_000.0, 100, 105)); // hold
        assert_eq!(c.decisions(), 3);
        assert_eq!(c.scale_downs(), 1);
        assert_eq!(c.scale_ups(), 1);
    }

    #[test]
    fn baseline_waits_for_the_waterline() {
        let mut c = AdjustController::new(ControllerConfig::baseline(2_048, 480), 9);
        // Fast growth well below the waterline: baseline holds...
        assert_eq!(c.decide(&report(100_000.0, 200, 700)), Decision::Hold);
        // ...the proactive controller would have fired here.
        let mut p = controller(9);
        assert!(matches!(
            p.decide(&report(100_000.0, 200, 700)),
            Decision::ScaleDown { .. }
        ));
        // Baseline acts once the waterline (1228) is reached.
        assert!(matches!(
            c.decide(&report(100_000.0, 1_200, 1_250)),
            Decision::ScaleDown { .. }
        ));
    }

    #[test]
    fn hot_uplinks_force_a_scale_down() {
        use crate::monitor::LinkPressure;
        let mut c = controller(5);
        // Queue looks healthy but an uplink is congested: the λ-only
        // model would hold; link pressure steps the degree down.
        let mut r = report(20_000.0, 100, 100);
        r.links = LinkPressure {
            max_uplink_queue: 700,
            uplink_bytes: 1 << 20,
            hot_uplinks: 2,
        };
        match c.decide(&r) {
            Decision::ScaleDown { d_star } => assert!(d_star < 5),
            other => panic!("expected scale-down, got {other:?}"),
        }
        // Pressure gone, queue idle → free to scale back up.
        let d = c.decide(&report(5_000.0, 0, 0));
        assert!(matches!(d, Decision::ScaleUp { .. }));
    }

    #[test]
    fn pinned_full_queue_scales_down_without_growth() {
        let mut c = controller(5);
        // Queue saturated at capacity: no growth, but overloaded.
        let d = c.decide(&report(100_000.0, 2_048, 2_048));
        assert_eq!(d, Decision::ScaleDown { d_star: 1 });
    }

    #[test]
    fn theorem3_negative_scale_down_beats_baseline() {
        // Analytic check of Theorem 3: with linearly growing queue, the
        // proactive trigger fires at q(t*) <= l_w, so the peak queue
        // (trigger level + inflow during the switch delay) is no larger
        // than the baseline that waits until l_w is reached.
        let v_in = 50_000.0; // tuples/s
        let v_out = 20_000.0;
        let growth = v_in - v_out; // tuples/s
        let l_w = 1_200.0;
        let t_down = 0.5;
        let dt = 0.01; // monitoring interval seconds
        let switch_delay = 0.02;
        // Proactive trigger: first sample where Δ/(l_w - l) >= T_down
        // (or the waterline is already breached).
        let mut q = 0.0;
        let mut trigger_q = None;
        for _ in 0..1_000 {
            let q_next = q + growth * dt;
            let headroom = l_w - q_next;
            if headroom <= 0.0 || (q_next - q) / headroom >= t_down {
                trigger_q = Some(q_next);
                break;
            }
            q = q_next;
        }
        let trigger_q = trigger_q.expect("must trigger before waterline");
        assert!(trigger_q <= l_w);
        let peak_negative = trigger_q + v_in * switch_delay;
        let peak_baseline = l_w + v_in * switch_delay;
        assert!(peak_negative <= peak_baseline);
    }
}
