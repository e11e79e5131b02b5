//! Property-based tests of the core multicast machinery: tree invariants
//! under construction and switching, and agreement between the L(t)
//! closed form and the relay simulator.

use proptest::prelude::*;
use whale::multicast::{
    build_binomial, build_nonblocking, build_sequential, capability, plan_switch, Node, RelaySim,
    Structure,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nonblocking_tree_always_valid(n in 1u32..600, d in 1u32..12) {
        let tree = build_nonblocking(n, d);
        prop_assert!(tree.validate(d).is_ok());
        prop_assert_eq!(tree.reachable_count(), n);
    }

    #[test]
    fn source_degree_never_exceeds_binomial_bound(n in 1u32..600, d in 1u32..12) {
        let tree = build_nonblocking(n, d);
        let bound = whale::multicast::binomial_source_degree(n);
        prop_assert!(tree.out_degree(Node::Source) <= d.min(bound));
    }

    #[test]
    fn switching_preserves_connectivity_and_degree(
        n in 2u32..300,
        d_initial in 1u32..10,
        d_new in 1u32..10,
    ) {
        let tree = build_nonblocking(n, d_initial);
        let (switched, plan) = plan_switch(&tree, d_new);
        prop_assert!(switched.validate(d_new.max(d_initial.min(d_new))).is_ok()
            || switched.validate(d_new).is_ok(),
            "switched tree invalid");
        prop_assert_eq!(switched.reachable_count(), n);
        // Scale-down must actually enforce the new cap.
        if d_new < d_initial {
            prop_assert!(switched.validate(d_new).is_ok());
        }
        // Untouched nodes keep their parent.
        let moved: std::collections::HashSet<u32> = plan
            .moves
            .iter()
            .filter_map(|m| match m.node {
                Node::Dest(i) => Some(i),
                Node::Source => None,
            })
            .collect();
        for i in 0..n {
            if !moved.contains(&i) {
                prop_assert_eq!(tree.parent(i), switched.parent(i));
            }
        }
        // Replaying the moves in order, each node leaving the parent its
        // move names, turns the old tree into exactly the switched one.
        let mut replayed = tree.clone();
        for m in &plan.moves {
            let Node::Dest(i) = m.node else { panic!("the source never moves") };
            prop_assert_eq!(replayed.parent(i), m.disconnect_from);
            replayed.detach(i);
            replayed.attach(m.connect_to, i);
        }
        prop_assert_eq!(replayed, switched);
    }

    #[test]
    fn capability_monotone_and_bounded(d in 1u32..10, t in 0u32..16) {
        // L(t) is non-decreasing in t and never exceeds 2^t.
        prop_assert!(capability(d, t) <= capability(d, t + 1));
        prop_assert!(capability(d, t) <= 1u64 << t.min(63));
    }

    #[test]
    fn relay_sim_agrees_with_capability(d in 1u32..6, t in 1u32..8) {
        let n = 700;
        let tree = build_nonblocking(n, d);
        let sched = RelaySim::new(tree).multicast(0);
        let reached = 1 + sched
            .arrivals
            .iter()
            .filter(|&&a| a != u64::MAX && a <= t as u64)
            .count() as u64;
        prop_assert_eq!(reached, capability(d, t).min(n as u64 + 1));
    }

    #[test]
    fn every_destination_eventually_receives(n in 1u32..300, d in 1u32..8) {
        let tree = build_nonblocking(n, d);
        let sched = RelaySim::new(tree).multicast(0);
        prop_assert!(sched.arrivals.iter().all(|&a| a != u64::MAX));
        prop_assert_eq!(sched.arrivals.len(), n as usize);
    }

    #[test]
    fn sequential_completes_in_n_binomial_in_log(n in 1u32..400) {
        let seq = RelaySim::new(build_sequential(n)).multicast(0);
        prop_assert_eq!(seq.complete, n as u64);
        let bin = RelaySim::new(build_binomial(n)).multicast(0);
        let bound = whale::multicast::binomial_source_degree(n) as u64;
        prop_assert!(bin.complete <= bound, "bin={} bound={bound}", bin.complete);
    }

    #[test]
    fn source_done_equals_out_degree(n in 1u32..400, d in 1u32..8) {
        // Theorem 1's premise: the source is busy exactly d0 units per
        // tuple.
        for s in [
            Structure::Sequential,
            Structure::Binomial,
            Structure::NonBlocking { d_star: d },
        ] {
            let tree = s.build(n);
            let d0 = tree.out_degree(Node::Source) as u64;
            let sched = RelaySim::new(tree).multicast(0);
            prop_assert_eq!(sched.source_done, d0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn controller_degree_always_in_bounds(
        initial_d in 1u32..12,
        samples in proptest::collection::vec((0u32..200_000, 0usize..2_048, 0usize..2_048), 1..40),
    ) {
        use whale::multicast::{AdjustController, ControllerConfig, MonitorReport};
        use whale::sim::SimTime;
        let config = ControllerConfig::for_queue(2_048, 480);
        let mut c = AdjustController::new(config, initial_d);
        for (i, (lambda, prev, cur)) in samples.into_iter().enumerate() {
            let report = MonitorReport {
                at: SimTime::from_millis(100 * (i as u64 + 1)),
                lambda: lambda as f64,
                t_e_secs: 8e-6,
                queue_len: cur,
                prev_queue_len: prev,
                links: Default::default(),
            };
            let before = c.current_degree();
            let decision = c.decide(&report);
            let after = c.current_degree();
            prop_assert!((1..=config.max_degree).contains(&after));
            match decision {
                whale::multicast::Decision::ScaleDown { d_star } => {
                    prop_assert!(d_star < before);
                    prop_assert_eq!(d_star, after);
                }
                whale::multicast::Decision::ScaleUp { d_star } => {
                    prop_assert!(d_star > before);
                    prop_assert_eq!(d_star, after);
                }
                whale::multicast::Decision::Hold => prop_assert_eq!(before, after),
            }
        }
    }
}

#[test]
fn theorem2_multicast_capability_positively_correlated_with_degree() {
    // Exhaustive over the relevant range rather than sampled.
    for t in 1..14u32 {
        for d in 1..9u32 {
            assert!(capability(d, t) <= capability(d + 1, t), "d={d} t={t}");
        }
    }
}

#[test]
fn switching_round_trip_returns_to_valid_start_shape() {
    let tree = build_nonblocking(100, 5);
    let (down, _) = plan_switch(&tree, 2);
    down.validate(2).unwrap();
    let (up, _) = plan_switch(&down, 5);
    up.validate(5).unwrap();
    assert_eq!(up.reachable_count(), 100);
    // Multicast completion after the round trip is no worse than the
    // degraded tree's.
    let t_down = RelaySim::new(down).multicast(0).complete;
    let t_up = RelaySim::new(up).multicast(0).complete;
    assert!(t_up <= t_down);
}
