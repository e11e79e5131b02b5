//! Multicast capability analysis (§3.2.2, Theorems 1–2) and the relay
//! schedule simulator.
//!
//! Time is measured in relay units: one unit = one hop's tuple processing
//! time `t_e`. In every unit, each node holding a tuple forwards it to one
//! of its not-yet-served children, in attachment order — exactly the
//! walkthrough of Fig 6. The closed-form recurrence (Eqs 6–7) and the
//! simulator must agree; tests enforce that.

use crate::tree::{MulticastTree, Node};

/// Cumulative multicast capability `L(t)`: how many nodes (including the
/// source) hold the tuple after `t` time units, for a non-blocking tree
/// with unlimited destinations and out-degree cap `d_star`.
///
/// Eq. (6): `L(t) = 2·L(t-1)` while every holder is still forwarding;
/// Eq. (7): `L(t) = 2·L(t-1) - L(t-d*-1)` once nodes saturate their cap.
///
/// ```
/// use whale_multicast::capability;
/// // Uncapped: doubles every unit. Capped at 2: 1, 2, 4, 7, 12, ...
/// assert_eq!(capability(30, 4), 16);
/// assert_eq!(capability(2, 4), 12);
/// ```
pub fn capability(d_star: u32, t: u32) -> u64 {
    assert!(d_star >= 1);
    let t = t as usize;
    let d = d_star as usize;
    let mut l = vec![0u64; t + 1];
    l[0] = 1;
    for i in 1..=t {
        let doubled = l[i - 1].saturating_mul(2);
        l[i] = if i <= d {
            doubled
        } else {
            // Nodes that received the tuple more than d* units ago have
            // finished their d* sends and no longer contribute.
            doubled.saturating_sub(l[i - d - 1])
        };
    }
    l[t]
}

/// Smallest number of time units after which a non-blocking tree with cap
/// `d_star` has delivered to at least `n` destinations.
pub fn completion_time(d_star: u32, n: u32) -> u32 {
    let target = n as u64 + 1; // destinations + source
    let mut t = 0;
    while capability(d_star, t) < target {
        t += 1;
        assert!(t < 10_000, "completion time diverged (d*={d_star}, n={n})");
    }
    t
}

/// The delivery schedule of one tuple through a tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleSchedule {
    /// Arrival time unit of each destination (index = destination id).
    pub arrivals: Vec<u64>,
    /// Unit at which the last destination received the tuple.
    pub complete: u64,
    /// Unit at which the source finished sending to its children — when it
    /// can take up the next tuple (drives `µ = 1/(d0·t_e)`).
    pub source_done: u64,
}

impl TupleSchedule {
    /// Multicast latency in time units, measured from the tuple entering
    /// the source at `enter`.
    pub fn latency(&self, enter: u64) -> u64 {
        self.complete - enter
    }
}

/// Simulates relay forwarding over a concrete tree, with per-node busy
/// clocks that persist across tuples (pipelining: a relay may still be
/// forwarding tuple *k* when *k+1* arrives).
#[derive(Clone, Debug)]
pub struct RelaySim {
    tree: MulticastTree,
    /// free[0] = source, free[1+i] = Dest(i): unit after which the node's
    /// sender is available.
    free: Vec<u64>,
}

impl RelaySim {
    /// New simulator over a validated tree.
    pub fn new(tree: MulticastTree) -> Self {
        let n = tree.n() as usize;
        RelaySim {
            tree,
            free: vec![0; 1 + n],
        }
    }

    /// The tree being simulated.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    fn slot(node: Node) -> usize {
        match node {
            Node::Source => 0,
            Node::Dest(i) => 1 + i as usize,
        }
    }

    /// Deliver one tuple entering the source at time unit `enter`.
    pub fn multicast(&mut self, enter: u64) -> TupleSchedule {
        let n = self.tree.n() as usize;
        let mut arrivals = vec![u64::MAX; n];
        let mut source_done = enter;
        // Process nodes in order of tuple arrival (min-heap).
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((enter, Node::Source)));
        let mut complete = enter;
        while let Some(std::cmp::Reverse((arrived, node))) = heap.pop() {
            if let Node::Dest(i) = node {
                arrivals[i as usize] = arrived;
                complete = complete.max(arrived);
            }
            let slot = Self::slot(node);
            // The node starts forwarding in the unit after it has the tuple,
            // once its sender is free from previous tuples.
            let mut t = self.free[slot].max(arrived);
            for &child in self.tree.children(node) {
                t += 1; // one send per time unit
                heap.push(std::cmp::Reverse((t, child)));
            }
            self.free[slot] = t;
            if node == Node::Source {
                source_done = t;
            }
        }
        TupleSchedule {
            arrivals,
            complete,
            source_done,
        }
    }

    /// Reset all busy clocks.
    pub fn reset(&mut self) {
        self.free.iter_mut().for_each(|f| *f = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_binomial, build_nonblocking, build_sequential};

    #[test]
    fn capability_uncapped_doubles() {
        // With a huge cap, L(t) = 2^t (Eq. 6).
        for t in 0..10 {
            assert_eq!(capability(30, t), 1u64 << t);
        }
    }

    #[test]
    fn capability_capped_recurrence() {
        // d* = 2: L = 1,2,4,7,12,20,33,...  (L(t)=2L(t-1)-L(t-3)).
        let expect = [1u64, 2, 4, 7, 12, 20, 33, 54, 88];
        for (t, &e) in expect.iter().enumerate() {
            assert_eq!(capability(2, t as u32), e, "t={t}");
        }
    }

    #[test]
    fn theorem2_capability_monotone_in_dstar() {
        for t in 1..12 {
            for d in 1..8 {
                assert!(
                    capability(d, t) <= capability(d + 1, t),
                    "L must be non-decreasing in d* (d={d}, t={t})"
                );
            }
        }
        // Strict somewhere: d*=2 vs d*=3 differ by t=4.
        assert!(capability(2, 4) < capability(3, 4));
    }

    #[test]
    fn capability_matches_simulated_tree() {
        // The closed form must agree with an actual tree simulation when
        // the tree is large enough not to run out of destinations.
        for d_star in [1u32, 2, 3, 4] {
            let n = 600;
            let tree = build_nonblocking(n, d_star);
            let mut sim = RelaySim::new(tree);
            let sched = sim.multicast(0);
            for t in 1..=8u32 {
                let reached = 1 + sched
                    .arrivals
                    .iter()
                    .filter(|&&a| a != u64::MAX && a <= t as u64)
                    .count() as u64;
                let predicted = capability(d_star, t).min(n as u64 + 1);
                assert_eq!(reached, predicted, "d*={d_star} t={t}");
            }
        }
    }

    #[test]
    fn completion_time_binomial_is_log() {
        // n = 2^k - 1 completes in k units with an uncapped tree.
        assert_eq!(completion_time(30, 15), 4);
        assert_eq!(completion_time(30, 31), 5);
        // Sequential-like chain (d*=1): much slower.
        assert!(completion_time(1, 31) > 7);
    }

    #[test]
    fn fig6_walkthrough_exact() {
        // Reproduce the paper's Fig 6 two-tuple walkthrough step by step.
        let tree = build_nonblocking(7, 2);
        let mut sim = RelaySim::new(tree);
        // Tuple t1 enters at unit 0.
        let s1 = sim.multicast(0);
        // T_{1-1}=T0 at 1; T_{2-1}=T1 at 2; T_{2-2}=T2 at 2;
        // T_{3-1}=T3 at 3; T_{3-2}=T4 at 3; T_{3-3}=T5 at 3; T_{4-1}=T6 at 4.
        assert_eq!(s1.arrivals, vec![1, 2, 2, 3, 3, 3, 4]);
        assert_eq!(s1.complete, 4);
        assert_eq!(s1.source_done, 2, "S sends t1 in units 1 and 2");
        // Tuple t2 enters at unit 2 ("in the third time unit t2 arrives").
        let s2 = sim.multicast(2);
        // S sends t2 to T0 in unit 3 and to T1 in unit 4.
        assert_eq!(s2.arrivals[0], 3);
        assert_eq!(s2.arrivals[1], 4);
        // T0 sends t2 to T2 in unit 4 (paper: "T1-1 sends t2 to T2-2").
        assert_eq!(s2.arrivals[2], 4);
        assert_eq!(s2.source_done, 4);
    }

    #[test]
    fn sequential_latency_linear() {
        let mut sim = RelaySim::new(build_sequential(100));
        let s = sim.multicast(0);
        assert_eq!(s.complete, 100);
        assert_eq!(s.source_done, 100, "source busy for all n sends");
        assert_eq!(s.arrivals[0], 1);
        assert_eq!(s.arrivals[99], 100);
    }

    #[test]
    fn binomial_latency_logarithmic() {
        let mut sim = RelaySim::new(build_binomial(480));
        let s = sim.multicast(0);
        assert_eq!(s.complete, completion_time(u32::MAX - 1, 480) as u64);
        assert!(s.complete <= 9, "binomial over 480 completes in ~9 units");
        assert_eq!(s.source_done, 9, "source degree is 9");
    }

    #[test]
    fn nonblocking_source_frees_faster_than_binomial() {
        // The whole point: capping d* frees the source sooner, at slightly
        // higher completion time.
        let mut nb = RelaySim::new(build_nonblocking(480, 3));
        let mut bi = RelaySim::new(build_binomial(480));
        let s_nb = nb.multicast(0);
        let s_bi = bi.multicast(0);
        assert!(s_nb.source_done < s_bi.source_done);
        assert!(s_nb.complete >= s_bi.complete);
        assert!(
            s_nb.complete <= s_bi.complete + 5,
            "cap 3 costs only a few extra units"
        );
    }

    #[test]
    fn pipelining_consecutive_tuples() {
        // With d* = 2 the source is busy 2 units per tuple, so a stream
        // arriving every 2 units never queues; every tuple's latency is
        // the same as the first.
        let tree = build_nonblocking(63, 2);
        let mut sim = RelaySim::new(tree);
        let schedules: Vec<_> = (0..10).map(|i| sim.multicast(i * 2)).collect();
        let lat0 = schedules[0].latency(0);
        for (i, s) in schedules.iter().enumerate() {
            assert_eq!(
                s.latency(i as u64 * 2),
                lat0,
                "tuple {i} latency must not grow"
            );
        }
    }

    #[test]
    fn overload_grows_queueing_delay() {
        // Arriving every 1 unit with d* = 3 (source busy 3 units/tuple):
        // latencies must grow without bound.
        let tree = build_nonblocking(63, 3);
        let mut sim = RelaySim::new(tree);
        let schedules: Vec<_> = (0..20).map(|i| sim.multicast(i)).collect();
        let first = schedules[0].latency(0);
        let last = schedules[19].latency(19);
        assert!(last > first + 20, "first={first} last={last}");
    }

    #[test]
    fn single_destination() {
        let mut sim = RelaySim::new(build_nonblocking(1, 3));
        let s = sim.multicast(0);
        assert_eq!(s.arrivals, vec![1]);
        assert_eq!(s.complete, 1);
        assert_eq!(s.source_done, 1);
    }

    #[test]
    fn reset_clears_pipelining_state() {
        let mut sim = RelaySim::new(build_nonblocking(15, 2));
        let a = sim.multicast(0);
        sim.reset();
        let b = sim.multicast(0);
        assert_eq!(a, b);
    }
}
