//! Rate-controlled stream sources: the Kafka stand-in.
//!
//! The paper feeds topologies from Kafka at controlled rates: Poisson at
//! the maximum sustainable rate for the steady-state experiments, and a
//! stepped profile (30k → 60k → 80k → 100k → 80k tuples/s at the 40/80/
//! 120/160 s marks) for the dynamic experiments of Figs 23–24.

use whale_sim::{SimDuration, SimRng, SimTime};

/// A time-varying target input rate.
#[derive(Clone, Debug)]
pub enum RatePlan {
    /// Constant rate (tuples/s), deterministic spacing.
    Fixed(f64),
    /// Poisson arrivals with a constant mean rate (tuples/s).
    Poisson(f64),
    /// Piecewise-constant Poisson rate: `(from_time, rate)` steps, sorted.
    Steps(Vec<(SimTime, f64)>),
}

impl RatePlan {
    /// Target rate at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self {
            RatePlan::Fixed(r) | RatePlan::Poisson(r) => *r,
            RatePlan::Steps(steps) => {
                let mut rate = 0.0;
                for &(from, r) in steps {
                    if t >= from {
                        rate = r;
                    } else {
                        break;
                    }
                }
                rate
            }
        }
    }
}

/// Generates arrival instants according to a [`RatePlan`].
#[derive(Clone, Debug)]
pub struct ArrivalProcess {
    plan: RatePlan,
    rng: SimRng,
    now: SimTime,
    emitted: u64,
}

impl Iterator for ArrivalProcess {
    type Item = SimTime;
    fn next(&mut self) -> Option<SimTime> {
        self.next_arrival()
    }
}

impl ArrivalProcess {
    /// Create with a seed.
    pub fn new(plan: RatePlan, seed: u64) -> Self {
        ArrivalProcess {
            plan,
            rng: SimRng::new(seed),
            now: SimTime::ZERO,
            emitted: 0,
        }
    }

    /// The plan driving this process.
    pub fn plan(&self) -> &RatePlan {
        &self.plan
    }

    /// Arrivals generated so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The next arrival instant, or `None` if the current rate is zero and
    /// constant (stream exhausted).
    pub fn next_arrival(&mut self) -> Option<SimTime> {
        let rate = self.plan.rate_at(self.now);
        let gap = match &self.plan {
            RatePlan::Fixed(r) => {
                if *r <= 0.0 {
                    return None;
                }
                SimDuration::from_secs_f64(1.0 / r)
            }
            RatePlan::Poisson(r) => {
                if *r <= 0.0 {
                    return None;
                }
                SimDuration::from_secs_f64(self.rng.exp(*r))
            }
            RatePlan::Steps(_) => {
                if rate <= 0.0 {
                    // Jump to the next step boundary, if any.
                    let next = self.next_boundary()?;
                    self.now = next;
                    return self.next_arrival();
                }
                SimDuration::from_secs_f64(self.rng.exp(rate))
            }
        };
        // Never stall: quantize sub-ns gaps up to 1 ns.
        let gap = gap.max(SimDuration::from_nanos(1));
        let candidate = self.now + gap;
        // If the gap crosses a rate-step boundary, resample from there so
        // the new rate takes effect promptly.
        if let Some(boundary) = self.next_boundary() {
            if candidate > boundary {
                self.now = boundary;
                return self.next_arrival();
            }
        }
        self.now = candidate;
        self.emitted += 1;
        Some(candidate)
    }

    fn next_boundary(&self) -> Option<SimTime> {
        match &self.plan {
            RatePlan::Steps(steps) => steps
                .iter()
                .map(|&(from, _)| from)
                .find(|&from| from > self.now),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arrivals up to `until` (consumes the first one past it).
    fn arrivals_until(p: &mut ArrivalProcess, until: SimTime) -> Vec<SimTime> {
        p.take_while(|&t| t <= until).collect()
    }

    fn stepped() -> RatePlan {
        RatePlan::Steps(vec![
            (SimTime::ZERO, 30_000.0),
            (SimTime::from_millis(40), 60_000.0),
            (SimTime::from_millis(80), 100_000.0),
        ])
    }

    #[test]
    fn fixed_rate_spacing() {
        let mut p = ArrivalProcess::new(RatePlan::Fixed(1_000.0), 1);
        let a = p.next_arrival().unwrap();
        let b = p.next_arrival().unwrap();
        assert_eq!(b - a, SimDuration::from_millis(1));
    }

    #[test]
    fn poisson_rate_approximates_target() {
        let mut p = ArrivalProcess::new(RatePlan::Poisson(10_000.0), 2);
        let arrivals = arrivals_until(&mut p, SimTime::from_secs(5));
        let rate = arrivals.len() as f64 / 5.0;
        assert!((rate - 10_000.0).abs() / 10_000.0 < 0.03, "rate={rate}");
    }

    #[test]
    fn a_step_takes_effect_at_its_boundary() {
        let plan = stepped();
        assert_eq!(plan.rate_at(SimTime::ZERO), 30_000.0);
        assert_eq!(plan.rate_at(SimTime::from_millis(39)), 30_000.0);
        assert_eq!(plan.rate_at(SimTime::from_millis(40)), 60_000.0);
        assert_eq!(plan.rate_at(SimTime::from_millis(79)), 60_000.0);
        assert_eq!(plan.rate_at(SimTime::from_millis(80)), 100_000.0);
        assert_eq!(plan.rate_at(SimTime::from_secs(200)), 100_000.0);
    }

    #[test]
    fn stepped_process_changes_rate() {
        let plan = RatePlan::Steps(vec![
            (SimTime::ZERO, 1_000.0),
            (SimTime::from_secs(1), 10_000.0),
        ]);
        let mut p = ArrivalProcess::new(plan, 3);
        let arrivals = arrivals_until(&mut p, SimTime::from_secs(2));
        let first: usize = arrivals
            .iter()
            .filter(|&&t| t <= SimTime::from_secs(1))
            .count();
        let second = arrivals.len() - first;
        assert!((800..1_200).contains(&first), "first={first}");
        assert!((9_000..11_000).contains(&second), "second={second}");
    }

    #[test]
    fn zero_rate_fixed_ends_stream() {
        let mut p = ArrivalProcess::new(RatePlan::Fixed(0.0), 4);
        assert!(p.next_arrival().is_none());
    }

    #[test]
    fn steps_with_initial_zero_rate_skip_forward() {
        let plan = RatePlan::Steps(vec![(SimTime::ZERO, 0.0), (SimTime::from_secs(1), 1_000.0)]);
        let mut p = ArrivalProcess::new(plan, 5);
        let first = p.next_arrival().unwrap();
        assert!(first >= SimTime::from_secs(1));
    }

    #[test]
    fn deterministic_with_seed() {
        let plan = stepped();
        let mut a = ArrivalProcess::new(plan.clone(), 9);
        let mut b = ArrivalProcess::new(plan, 9);
        for _ in 0..1_000 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    fn iterator_interface() {
        let mut p = ArrivalProcess::new(RatePlan::Fixed(1_000.0), 1);
        let first_three: Vec<SimTime> = p.by_ref().take(3).collect();
        assert_eq!(first_three.len(), 3);
        assert!(first_three[0] < first_three[2]);
        let more = arrivals_until(&mut p, SimTime::from_millis(10));
        assert!(!more.is_empty());
        assert!(more.iter().all(|&t| t <= SimTime::from_millis(10)));
    }

    #[test]
    fn arrivals_monotone() {
        let mut p = ArrivalProcess::new(stepped(), 6);
        let arrivals = arrivals_until(&mut p, SimTime::from_millis(100));
        for w in arrivals.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(p.emitted() as usize, arrivals.len() + 1); // +1 past horizon
    }
}
