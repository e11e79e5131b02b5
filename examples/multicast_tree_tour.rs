//! A guided tour of the core contribution: build the paper's Fig 6 tree,
//! relay a tuple through it (Fig 6's time-unit walkthrough), derive `d*`
//! from the M/D/1 model, and plan a §3.4 switch from d* = 3 to 2 — the
//! moves the live runtime carries out on the data path.
//!
//! Run with:
//! ```text
//! cargo run --release --example multicast_tree_tour
//! ```

use whale::multicast::{
    build_binomial, build_nonblocking, build_sequential, capability, plan_switch, Node, RelaySim,
};
use whale::sim::cost::mdone;

fn main() {
    println!("== the paper's Fig 6: |T| = 7, d* = 2 ==\n");
    let tree = build_nonblocking(7, 2);
    println!("{}", tree.render_ascii());

    let schedule = RelaySim::new(tree.clone()).multicast(0);
    println!("tuple t1 enters S at unit 0; arrival time units per destination:");
    for (i, a) in schedule.arrivals.iter().enumerate() {
        println!("  T{i}: unit {a}");
    }
    println!(
        "multicast completes at unit {} (the paper: \"in the fourth time unit ... \
         Whale completes the multicast of t1\")\n",
        schedule.complete
    );

    println!("== structures over 480 destinations ==\n");
    for (name, tree) in [
        ("sequential (Storm)", build_sequential(480)),
        ("binomial (RDMC)", build_binomial(480)),
        ("non-blocking d*=3", build_nonblocking(480, 3)),
    ] {
        let s = RelaySim::new(tree.clone()).multicast(0);
        println!(
            "  {name:<20} source out-degree {:>3}, source busy {:>3} units/tuple, completion unit {:>3}",
            tree.out_degree(Node::Source),
            s.source_done,
            s.complete
        );
    }

    println!("\n== L(t): multicast capability (Eqs 6-7) ==\n");
    print!("  t:      ");
    (1..=8u32).for_each(|t| print!("{t:>7}"));
    println!();
    for d in [1u32, 2, 3, 30] {
        print!("  d*={d:<3}  ");
        (1..=8u32).for_each(|t| print!("{:>7}", capability(d, t)));
        println!();
    }

    println!("\n== d* from the M/D/1 transfer-queue model (corrected Eq. 3) ==\n");
    let t_e = 8.4e-6;
    let q = 2_048;
    for lambda in [5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0] {
        let d = mdone::d_star(lambda, t_e, q);
        let m = mdone::max_affordable_rate(d, t_e, q);
        println!("  lambda = {lambda:>7.0}/s  ->  d* = {d:<3} (affords up to {m:>8.0}/s)",);
    }

    println!("\n== structure advisor (whale::multicast::analysis) ==\n");
    let (t_e, q) = (8.4e-6, 2_048);
    for lambda in [2_000.0, 30_000.0, 90_000.0] {
        let choice = whale::multicast::recommend(480, lambda, t_e, q);
        println!("  lambda = {lambda:>7.0}/s over 480 instances -> {choice:?}");
    }

    println!("\n== dynamic switching: d* 3 -> 2 over 15 instances ==\n");
    let tree = build_nonblocking(15, 3);
    let (new_tree, plan) = plan_switch(&tree, 2);
    println!("plan: {} connection moves", plan.len());
    for m in &plan.moves {
        println!(
            "  {} disconnects from {:?} and connects to {}",
            m.node,
            m.disconnect_from.map(|p| p.to_string()),
            m.connect_to
        );
    }
    println!("\nnew structure:\n");
    println!("{}", new_tree.render_ascii());
    new_tree
        .validate(2)
        .expect("the switched tree respects d* = 2");
    assert_eq!(new_tree.reachable_count(), 15);
    println!(
        "every instance is still reachable. The live runtime (whale::dsps) runs this switch \
         on the data path and reports its duration as `dsps.relay.retire_ns`."
    );
}
