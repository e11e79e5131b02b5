//! Dynamic switching (§3.4): reorganizing the multicast tree to a new
//! maximum out-degree with minimal change. A plan is the list of
//! [`ControlMessage`] moves between the old tree and the new one; the
//! live runtime (`whale-dsps`) carries the switch out on the data path
//! and counts the moves, and the DES (`whale-core`) prices the switch
//! from their number.
//!
//! - **Negative scale-down**: walk from `S` layer by layer; wherever a
//!   node's out-degree exceeds the new `d*`, detach the excess subtrees
//!   (keeping the earliest-attached children) and re-insert each detached
//!   root at the first node — searching from `S` — with spare degree.
//! - **Active scale-up**: repeatedly take the deepest leaf and re-attach
//!   it at the first node with spare degree, stopping as soon as the move
//!   would not reduce its depth.

use crate::tree::{MulticastTree, Node};

/// One connection change an instance must perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ControlMessage {
    /// The child whose parent changes.
    pub node: Node,
    /// The parent to disconnect from (None if it was detached already).
    pub disconnect_from: Option<Node>,
    /// The parent to connect to.
    pub connect_to: Node,
}

/// The full reorganization plan: the edge diff between the old and new
/// trees.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwitchPlan {
    /// Per-instance connection changes, in execution order.
    pub moves: Vec<ControlMessage>,
}

impl SwitchPlan {
    /// Number of edges changed.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// True if nothing changes.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// First node in BFS order with out-degree below `d` — the insertion rule
/// both switching algorithms share.
fn first_with_spare(tree: &MulticastTree, d: u32) -> Option<Node> {
    tree.bfs()
        .into_iter()
        .map(|(n, _)| n)
        .find(|&n| tree.out_degree(n) < d)
}

/// Plan a negative scale-down of `tree` to maximum out-degree `new_d`.
/// Returns the reorganized tree and the plan. The input tree is not
/// modified.
pub fn plan_scale_down(tree: &MulticastTree, new_d: u32) -> (MulticastTree, SwitchPlan) {
    assert!(new_d >= 1);
    let mut t = tree.clone();
    let mut moves = Vec::new();
    // Collect excess children of every over-degree node, walking layers
    // from the source (BFS order is layer order).
    let mut marked: Vec<(Node, u32)> = Vec::new(); // (old_parent, detached root)
    for (node, _) in t.bfs() {
        let children: Vec<Node> = t.children(node).to_vec();
        if children.len() as u32 > new_d {
            for &c in &children[new_d as usize..] {
                if let Node::Dest(i) = c {
                    marked.push((node, i));
                }
            }
        }
    }
    for (_, root) in &marked {
        t.detach(*root);
    }
    // Re-insert each marked subtree at the first node with spare degree.
    for (old_parent, root) in marked {
        let target = first_with_spare(&t, new_d)
            .expect("a tree with degree cap >= 1 always has an open slot");
        t.attach(target, root);
        moves.push(ControlMessage {
            node: Node::Dest(root),
            disconnect_from: Some(old_parent),
            connect_to: target,
        });
    }
    (t, SwitchPlan { moves })
}

/// Arrival time unit of every node for one tuple entering at 0: the
/// *logical layer* of §3.2.2 (a node at tree depth 2 can sit on logical
/// layer 4 if it is served late by its parent).
fn logical_layers(tree: &MulticastTree) -> (Vec<u64>, u64) {
    let arrivals = crate::capability::RelaySim::new(tree.clone())
        .multicast(0)
        .arrivals;
    let max = arrivals
        .iter()
        .copied()
        .filter(|&a| a != u64::MAX)
        .max()
        .unwrap_or(0);
    (arrivals, max)
}

/// Plan an active scale-up of `tree` to maximum out-degree `new_d`.
///
/// Repeatedly takes the instance on the deepest *logical layer* (last
/// destination to receive a tuple) and re-attaches it under the earliest
/// node with spare degree; stops as soon as the move would land the
/// instance on the same or a deeper logical layer.
pub fn plan_scale_up(tree: &MulticastTree, new_d: u32) -> (MulticastTree, SwitchPlan) {
    assert!(new_d >= 1);
    let mut t = tree.clone();
    let mut moves = Vec::new();
    loop {
        let (arrivals, _) = logical_layers(&t);
        // Latest-arriving leaf, taking the highest index on ties (the
        // paper walks from the last destination instance backward).
        let Some((leaf_id, layer)) = (0..t.n())
            .filter(|&i| t.out_degree(Node::Dest(i)) == 0 && arrivals[i as usize] != u64::MAX)
            .map(|i| (i, arrivals[i as usize]))
            .max_by_key(|&(i, a)| (a, i))
        else {
            break;
        };
        // Earliest insertion point with spare degree, by logical layer.
        let layer_of = |n: Node| -> u64 {
            match n {
                Node::Source => 0,
                Node::Dest(i) => arrivals[i as usize],
            }
        };
        let mut candidates: Vec<Node> = std::iter::once(Node::Source)
            .chain((0..t.n()).map(Node::Dest))
            .filter(|&n| {
                n != Node::Dest(leaf_id) && t.out_degree(n) < new_d && layer_of(n) != u64::MAX
            })
            .collect();
        candidates.sort_by_key(|&n| {
            (
                layer_of(n),
                match n {
                    Node::Source => 0,
                    Node::Dest(i) => i + 1,
                },
            )
        });
        let Some(&target) = candidates.first() else {
            break;
        };
        // If moved, the leaf becomes the target's next-served child.
        let new_layer = layer_of(target) + t.out_degree(target) as u64 + 1;
        if new_layer >= layer {
            // Original and new positions on the same logical layer:
            // reorganization is complete.
            break;
        }
        let old_parent = t.detach(leaf_id);
        t.attach(target, leaf_id);
        moves.push(ControlMessage {
            node: Node::Dest(leaf_id),
            disconnect_from: old_parent,
            connect_to: target,
        });
    }
    (t, SwitchPlan { moves })
}

/// Plan whichever reorganization moves the tree to `new_d`.
pub fn plan_switch(tree: &MulticastTree, new_d: u32) -> (MulticastTree, SwitchPlan) {
    let current_max = std::iter::once(Node::Source)
        .chain((0..tree.n()).map(Node::Dest))
        .map(|n| tree.out_degree(n))
        .max()
        .unwrap_or(0);
    if new_d < current_max {
        plan_scale_down(tree, new_d)
    } else {
        plan_scale_up(tree, new_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_nonblocking, build_sequential};
    use std::collections::HashSet;

    #[test]
    fn fig8a_scale_down_three_to_two() {
        // Fig 8a: d* goes 3 → 2 on a tree built with d* = 3.
        let tree = build_nonblocking(7, 3);
        let (new_tree, plan) = plan_scale_down(&tree, 2);
        new_tree.validate(2).unwrap();
        assert_eq!(new_tree.reachable_count(), 7);
        assert_eq!(plan_switch(&tree, 2), (new_tree, plan.clone()));
        assert!(!plan.is_empty());
        // Moved nodes disconnect from an over-degree parent and reconnect
        // to one that had spare capacity.
        for m in &plan.moves {
            assert_ne!(m.disconnect_from.unwrap(), m.connect_to);
        }
    }

    #[test]
    fn fig8b_scale_up_two_to_three() {
        // Fig 8b: d* goes 2 → 3; the deepest instance (T_{4-1}) moves up.
        let tree = build_nonblocking(7, 2);
        let depth_before = tree.height();
        let (new_tree, plan) = plan_scale_up(&tree, 3);
        new_tree.validate(3).unwrap();
        assert_eq!(new_tree.reachable_count(), 7);
        assert!(!plan.is_empty());
        assert!(new_tree.height() <= depth_before);
        assert_eq!(plan_switch(&tree, 3), (new_tree, plan.clone()));
        // The paper's example: T6 (=T_{4-1}) reconnects to S.
        let moved: Vec<Node> = plan.moves.iter().map(|m| m.node).collect();
        assert!(moved.contains(&Node::Dest(6)), "moved={moved:?}");
        assert_eq!(plan.moves[0].connect_to, Node::Source);
    }

    #[test]
    fn scale_down_from_sequential_star() {
        // Star of 30 → cap 3: heavy reorganization, still valid.
        let tree = build_sequential(30);
        let (new_tree, plan) = plan_scale_down(&tree, 3);
        new_tree.validate(3).unwrap();
        assert_eq!(new_tree.reachable_count(), 30);
        assert_eq!(plan.len(), 27, "27 of 30 children must move");
    }

    #[test]
    fn scale_down_preserves_early_children() {
        let tree = build_sequential(10);
        let (new_tree, _) = plan_scale_down(&tree, 4);
        // The first 4 attached children stay under the source.
        for i in 0..4 {
            assert_eq!(new_tree.parent(i), Some(Node::Source), "T{i}");
        }
    }

    #[test]
    fn plan_switch_picks_direction() {
        let tree = build_nonblocking(31, 3);
        let (down, p_down) = plan_switch(&tree, 2);
        down.validate(2).unwrap();
        assert!(!p_down.is_empty());
        assert_eq!((down, p_down), plan_scale_down(&tree, 2));
        let (up, p_up) = plan_switch(&tree, 5);
        up.validate(5).unwrap();
        assert!(!p_up.is_empty());
        assert_eq!((up, p_up), plan_scale_up(&tree, 5));
    }

    #[test]
    fn noop_switch_is_empty() {
        let tree = build_nonblocking(15, 2);
        let (same, plan) = plan_scale_down(&tree, 2);
        assert!(plan.is_empty());
        assert_eq!(same, tree);
    }

    #[test]
    fn scale_up_stops_at_same_layer() {
        // Already-balanced tree: scale-up to the same degree moves nothing.
        let tree = build_nonblocking(15, 4);
        let (_, plan) = plan_scale_up(&tree, 4);
        assert!(plan.is_empty(), "moves={:?}", plan.moves);
    }

    #[test]
    fn repeated_switches_stay_valid() {
        // Stress: alternate down/up across many sizes.
        let mut tree = build_nonblocking(100, 4);
        for &d in &[2u32, 6, 1, 5, 3, 7, 2] {
            let (t, _) = plan_switch(&tree, d);
            t.validate(d).unwrap_or_else(|e| panic!("d={d}: {e}"));
            assert_eq!(t.reachable_count(), 100);
            tree = t;
        }
    }

    #[test]
    fn switch_plan_is_minimal_diff() {
        // Edges not involved in violations must be untouched by scale-down.
        let tree = build_nonblocking(31, 4);
        let (new_tree, plan) = plan_scale_down(&tree, 3);
        let moved: HashSet<u32> = plan
            .moves
            .iter()
            .map(|m| match m.node {
                Node::Dest(i) => i,
                Node::Source => unreachable!(),
            })
            .collect();
        for i in 0..31 {
            if !moved.contains(&i) {
                assert_eq!(tree.parent(i), new_tree.parent(i), "T{i} must not move");
            }
        }
    }
}
