//! Property test of the XOR acker: for any randomly shaped tuple tree,
//! acking every execution exactly once — in any order — completes the
//! tree, and omitting any single execution leaves it pending.

use proptest::prelude::*;
use whale::dsps::{Acker, TreeState};
use whale::sim::{SimDuration, SimRng, SimTime};

/// Build a random tuple tree: returns the spout's initial ledger and the
/// per-execution XOR values (one per node in the tree). An execution
/// reports the anchor it consumed XOR one fresh nonzero anchor per tuple
/// it emits.
fn random_tree(seed: u64, fanouts: &[u8]) -> (u64, Vec<u64>) {
    let mut rng = SimRng::new(seed);
    // The spout emits one root tuple with one anchor.
    let root_anchor = rng.next_u64().max(1);
    let mut frontier = vec![root_anchor];
    let mut executions = Vec::new();
    for &fanout in fanouts {
        let Some(consumed) = frontier.pop() else { break };
        let mut anchors = rng.fork(consumed);
        let mut xor = consumed;
        for _ in 0..fanout {
            let anchor = anchors.next_u64().max(1);
            xor ^= anchor;
            frontier.push(anchor);
        }
        executions.push(xor);
    }
    // Remaining frontier tuples are consumed by leaves that emit nothing.
    executions.extend(frontier);
    (root_anchor, executions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_order_completes_exactly_at_the_last_ack(
        seed in any::<u64>(),
        fanouts in proptest::collection::vec(0u8..4, 0..12),
        shuffle_seed in any::<u64>(),
    ) {
        let (root_anchor, mut executions) = random_tree(seed, &fanouts);
        SimRng::new(shuffle_seed).shuffle(&mut executions);

        let mut acker = Acker::new(SimDuration::from_secs(60));
        acker.init(1, root_anchor, SimTime::ZERO);
        for (i, &x) in executions.iter().enumerate() {
            let state = acker.ack(1, x);
            if i + 1 == executions.len() {
                prop_assert_eq!(state, TreeState::Acked, "last ack completes");
            } else {
                // XOR collisions across distinct random anchors are
                // astronomically unlikely; a premature zero would be a bug.
                prop_assert_eq!(state, TreeState::Pending, "i={}", i);
            }
        }
        prop_assert_eq!(acker.pending(), 0);
    }

    #[test]
    fn dropping_one_execution_leaves_tree_pending(
        seed in any::<u64>(),
        fanouts in proptest::collection::vec(0u8..4, 1..10),
        drop_pick in any::<u64>(),
    ) {
        let (root_anchor, executions) = random_tree(seed, &fanouts);
        let drop_idx = (drop_pick % executions.len() as u64) as usize;

        let mut acker = Acker::new(SimDuration::from_secs(60));
        acker.init(1, root_anchor, SimTime::ZERO);
        for (i, &x) in executions.iter().enumerate() {
            if i == drop_idx {
                continue;
            }
            prop_assert_eq!(acker.ack(1, x), TreeState::Pending);
        }
        prop_assert_eq!(acker.pending(), 1);
        // The timeout eventually fails it for replay.
        let failed = acker.expire(SimTime::from_secs(120));
        prop_assert_eq!(failed, vec![1]);
    }
}
