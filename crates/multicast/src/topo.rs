//! Topology-aware multicast tree construction (Gleam-style).
//!
//! Whale's Algorithm 1 derives the relay fan-out d* from λ alone and
//! places edges wherever the attachment order lands them; once racks are
//! in play and uplinks are oversubscribed, *where* an edge lands matters
//! as much as how many there are. [`TopoTreeBuilder`] keeps the
//! non-blocking layer-by-layer shape (and degenerates to exactly
//! [`build_nonblocking`]'s tree on one rack) while adding two placement
//! rules:
//!
//! 1. **subtrees stay intra-rack** — a node with spare degree always
//!    adopts an unattached destination from its own rack first;
//! 2. **one inter-rack edge per destination rack** — a rack is entered
//!    exactly once, through a Gleam-style *rack head*; every other
//!    member attaches beneath the head through rack-local edges. A node
//!    may carry a crossing once its own rack is exhausted or while it
//!    still has a slot to spare for it (one slot stays reserved for
//!    rack-local work, which keeps d* = 1 chains deadlock-free), and the
//!    (parent, rack) pair with the least combined uplink load wins, so
//!    crossings land on the coolest uplinks and heavily loaded racks are
//!    entered last.
//!
//! [`build_nonblocking`]: crate::build_nonblocking

use crate::tree::{MulticastTree, Node};

/// Rack-aware non-blocking tree builder: Algorithm 1's layer-by-layer
/// growth constrained to rack-local subtrees with load-aware rack entry.
#[derive(Clone, Debug, PartialEq)]
pub struct TopoTreeBuilder {
    d_star: u32,
    source_rack: u32,
    node_racks: Vec<u32>,
    uplink_load: Vec<u64>,
}

impl TopoTreeBuilder {
    /// Builder over `node_racks.len()` destinations with out-degree cap
    /// `d_star`; `node_racks[i]` is destination `i`'s rack and
    /// `source_rack` the sender's. Uplink loads start at zero (no
    /// congestion feedback).
    pub fn new(d_star: u32, source_rack: u32, node_racks: Vec<u32>) -> Self {
        assert!(d_star >= 1, "d* must be at least 1");
        let racks = node_racks
            .iter()
            .copied()
            .chain([source_rack])
            .max()
            .unwrap_or(0)
            + 1;
        TopoTreeBuilder {
            d_star,
            source_rack,
            node_racks,
            uplink_load: vec![0; racks as usize],
        }
    }

    /// Feed a per-rack uplink load snapshot (e.g.
    /// `whale_net::LinkTracker::uplink_loads`); gateway election then
    /// routes rack entries over the coolest uplinks. Entries beyond the
    /// rack count are ignored; missing entries count as idle.
    pub fn with_uplink_load(mut self, load: &[u64]) -> Self {
        for (slot, &l) in self.uplink_load.iter_mut().zip(load) {
            *slot = l;
        }
        self
    }

    fn rack_of(&self, node: Node) -> u32 {
        match node {
            Node::Source => self.source_rack,
            Node::Dest(i) => self.node_racks[i as usize],
        }
    }

    fn load(&self, rack: u32) -> u64 {
        self.uplink_load.get(rack as usize).copied().unwrap_or(0)
    }

    /// Build the tree. Runs in rounds mirroring Algorithm 1: in each
    /// round every attached node with spare degree adopts one unattached
    /// same-rack destination (lowest index first — on a single rack this
    /// reproduces [`build_nonblocking`] exactly), then gateway election
    /// opens still-unentered racks through nodes whose own rack is
    /// exhausted, cheapest uplink pair first.
    ///
    /// [`build_nonblocking`]: crate::build_nonblocking
    pub fn build(&self) -> MulticastTree {
        let n = self.node_racks.len() as u32;
        let mut tree = MulticastTree::empty(n);
        if n == 0 {
            return tree;
        }
        let racks = self.uplink_load.len().max(
            self.node_racks
                .iter()
                .copied()
                .chain([self.source_rack])
                .max()
                .unwrap_or(0) as usize
                + 1,
        );
        // Per-rack ascending queues of unattached destinations.
        let mut unattached: Vec<Vec<u32>> = vec![Vec::new(); racks];
        for (i, &r) in self.node_racks.iter().enumerate().rev() {
            unattached[r as usize].push(i as u32);
        }
        // Entered racks may only be extended by their own members.
        let mut entered = vec![false; racks];
        entered[self.source_rack as usize] = true;
        let mut list: Vec<Node> = Vec::with_capacity(1 + n as usize);
        list.push(Node::Source);
        let mut attached = 0u32;
        while attached < n {
            // Same-rack growth pass over the round's snapshot.
            let size = list.len();
            for i in 0..size {
                if attached == n {
                    return tree;
                }
                let u = list[i];
                if tree.out_degree(u) >= self.d_star {
                    continue;
                }
                let rack = self.rack_of(u) as usize;
                if let Some(v) = unattached[rack].pop() {
                    tree.attach(u, v);
                    list.push(Node::Dest(v));
                    attached += 1;
                }
            }
            // Gateway election: enter unentered racks, cheapest
            // (egress + ingress) uplink pair first; ties break toward the
            // earliest-attached parent, then the lowest rack id. A parent
            // with rack-local work pending must keep one slot reserved
            // for it — without the reservation a d* = 1 node could spend
            // its only slot on a crossing and strand its own rack.
            loop {
                let mut best: Option<(u64, usize, u32)> = None;
                for (pos, &u) in list.iter().enumerate() {
                    let deg = tree.out_degree(u);
                    if deg >= self.d_star {
                        continue;
                    }
                    let ur = self.rack_of(u);
                    if !unattached[ur as usize].is_empty() && deg + 2 > self.d_star {
                        continue; // last free slot is reserved for the rack
                    }
                    for r in 0..racks {
                        if entered[r] || unattached[r].is_empty() {
                            continue;
                        }
                        let key = (self.load(ur) + self.load(r as u32), pos, r as u32);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let Some((_, pos, r)) = best else { break };
                let head = unattached[r as usize].pop().expect("candidate rack");
                tree.attach(list[pos], head);
                list.push(Node::Dest(head));
                entered[r as usize] = true;
                attached += 1;
                if attached == n {
                    return tree;
                }
            }
        }
        tree
    }
}

/// Modeled cost of delivering one frame through a tree: the source and
/// every relay forward to their children sequentially (`t_e_us` per
/// child, the paper's per-destination serialization time), intra-rack
/// edges add `t_intra_us` (rack-local fabric, full bisection), and
/// inter-rack edges occupy the *sender's rack uplink* for `t_uplink_us`
/// each. The uplink is the shared, oversubscribed resource: concurrent
/// crossings out of the same rack serialize behind each other, which is
/// exactly the contention a topology-oblivious tree runs into.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TreeCost {
    /// Time until the *last* destination holds the frame (µs).
    pub completion_us: f64,
    /// Edges whose parent and child sit in different racks — each one
    /// pushes the full frame over a rack uplink.
    pub uplink_edges: u32,
    /// Deepest destination (relay hops from the source).
    pub max_depth: u32,
}

/// Price `tree` on the rack placement: `node_racks[i]` is destination
/// `i`'s rack, the source sits in `source_rack`. Crossings queue FIFO
/// (by the instant the sender finishes emitting the frame) on their
/// egress rack's uplink.
pub fn tree_cost(
    tree: &MulticastTree,
    source_rack: u32,
    node_racks: &[u32],
    t_e_us: f64,
    t_intra_us: f64,
    t_uplink_us: f64,
) -> TreeCost {
    assert_eq!(tree.n() as usize, node_racks.len());
    let rack_of = |node: Node| match node {
        Node::Source => source_rack,
        Node::Dest(i) => node_racks[i as usize],
    };
    let racks = node_racks
        .iter()
        .copied()
        .chain([source_rack])
        .max()
        .unwrap_or(0) as usize
        + 1;
    let mut uplink_free = vec![0f64; racks];
    // Edge (parent, k-th child) becomes *ready* once the parent holds the
    // frame and has emitted its k predecessors; crossings then wait for
    // the egress uplink. Serving ready edges in global FIFO order needs
    // arrival times resolved parent-before-child, so walk a worklist of
    // edges whose parent arrival is known, cheapest ready time first.
    let mut arrival = vec![f64::NAN; node_racks.len()];
    let at = |node: Node, arrival: &[f64]| match node {
        Node::Source => Some(0.0),
        Node::Dest(i) => {
            let t = arrival[i as usize];
            t.is_finite().then_some(t)
        }
    };
    let mut pending: Vec<(Node, usize, u32, u32)> = Vec::new(); // (parent, k, child, depth)
    let mut frontier = vec![(Node::Source, 0u32)];
    while let Some((u, depth)) = frontier.pop() {
        for (k, &child) in tree.children(u).iter().enumerate() {
            let Node::Dest(c) = child else { unreachable!() };
            pending.push((u, k, c, depth + 1));
            frontier.push((child, depth + 1));
        }
    }
    let mut completion = 0f64;
    let mut uplink_edges = 0u32;
    let mut max_depth = 0u32;
    while !pending.is_empty() {
        // The resolvable edge with the earliest ready time goes next.
        let mut pick: Option<(usize, f64)> = None;
        for (i, &(u, k, _, _)) in pending.iter().enumerate() {
            if let Some(t_u) = at(u, &arrival) {
                let ready = t_u + (k as f64 + 1.0) * t_e_us;
                if pick.is_none_or(|(_, best)| ready < best) {
                    pick = Some((i, ready));
                }
            }
        }
        let (i, ready) = pick.expect("tree edges resolve top-down");
        let (u, _, c, depth) = pending.swap_remove(i);
        let t_child = if rack_of(u) != rack_of(Node::Dest(c)) {
            let rack = rack_of(u) as usize;
            let start = ready.max(uplink_free[rack]);
            uplink_free[rack] = start + t_uplink_us;
            uplink_edges += 1;
            start + t_uplink_us
        } else {
            ready + t_intra_us
        };
        arrival[c as usize] = t_child;
        completion = completion.max(t_child);
        max_depth = max_depth.max(depth);
    }
    TreeCost {
        completion_us: completion,
        uplink_edges,
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_nonblocking;

    /// Round-robin rack assignment over `n` nodes.
    fn rr(n: u32, racks: u32) -> Vec<u32> {
        (0..n).map(|i| i % racks).collect()
    }

    #[test]
    fn one_rack_reproduces_the_nonblocking_tree_exactly() {
        for n in [0u32, 1, 2, 7, 15, 23] {
            for d in [1u32, 2, 4, 8] {
                let topo = TopoTreeBuilder::new(d, 0, vec![0; n as usize]).build();
                assert_eq!(topo, build_nonblocking(n, d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn every_rack_entered_through_exactly_one_uplink_edge() {
        let racks = 5u32;
        let node_racks = rr(24, racks);
        let tree = TopoTreeBuilder::new(2, 0, node_racks.clone()).build();
        tree.validate(2).unwrap();
        assert_eq!(tree.reachable_count(), 24);
        let mut entries = vec![0u32; racks as usize];
        for i in 0..24u32 {
            let parent = tree.parent(i).unwrap();
            let pr = match parent {
                Node::Source => 0,
                Node::Dest(p) => node_racks[p as usize],
            };
            if pr != node_racks[i as usize] {
                entries[node_racks[i as usize] as usize] += 1;
            }
        }
        assert_eq!(entries[0], 0, "the source's rack is never entered");
        assert!(entries[1..].iter().all(|&e| e == 1), "{entries:?}");
    }

    #[test]
    fn skewed_placement_keeps_subtrees_intra_rack() {
        // 12 of 15 destinations share rack 0 with the source.
        let mut node_racks = vec![0u32; 12];
        node_racks.extend([1, 2, 2]);
        let tree = TopoTreeBuilder::new(4, 0, node_racks.clone()).build();
        tree.validate(4).unwrap();
        let cost = tree_cost(&tree, 0, &node_racks, 20.0, 5.0, 40.0);
        // Racks 1 and 2 each cost exactly one crossing.
        assert_eq!(cost.uplink_edges, 2);
    }

    #[test]
    fn loaded_uplinks_are_entered_last() {
        // Source alone in rack 0; racks 1..=3 hold one destination each.
        // Rack 2's uplink is hot, so it must be entered after 1 and 3.
        let node_racks = vec![1, 2, 3];
        let tree = TopoTreeBuilder::new(2, 0, node_racks)
            .with_uplink_load(&[0, 0, 1_000_000, 0])
            .build();
        // d*=2: the source adopts the two cool racks' heads; the hot
        // rack's head lands one level deeper.
        assert_eq!(tree.depth(Node::Dest(0)), Some(1)); // rack 1
        assert_eq!(tree.depth(Node::Dest(2)), Some(1)); // rack 3
        assert_eq!(tree.depth(Node::Dest(1)), Some(2)); // hot rack 2
    }

    #[test]
    fn gateway_prefers_parents_behind_cool_uplinks() {
        // Rack 0 (source + 1 dest, hot uplink), rack 1 (1 dest, cool
        // uplink), rack 2 unentered. Once racks 0 and 1 are exhausted,
        // the rack-1 node must carry the crossing into rack 2.
        let node_racks = vec![0, 1, 2];
        let tree = TopoTreeBuilder::new(1, 0, node_racks)
            .with_uplink_load(&[500, 0, 0])
            .build();
        tree.validate(1).unwrap();
        // d*=1 chain: source → dest0 (rack 0). Both source and dest0 are
        // full or hot; dest0 exhausted rack 0 and opens rack 1; dest1
        // (cool rack 1) opens rack 2.
        assert_eq!(tree.parent(2), Some(Node::Dest(1)));
    }

    #[test]
    fn topo_tree_cuts_uplink_traffic_and_latency_vs_oblivious() {
        // 5 racks, skewed: 16 dests in rack 0, 2 in each other rack.
        let mut node_racks = vec![0u32; 16];
        for r in 1..5u32 {
            node_racks.extend([r, r]);
        }
        let d = 4;
        let topo = TopoTreeBuilder::new(d, 0, node_racks.clone()).build();
        let whale = build_nonblocking(24, d);
        let price = |t: &MulticastTree| tree_cost(t, 0, &node_racks, 20.0, 5.0, 40.0);
        let (tc, wc) = (price(&topo), price(&whale));
        assert!(tc.uplink_edges < wc.uplink_edges, "{tc:?} vs {wc:?}");
        assert!(tc.completion_us < wc.completion_us, "{tc:?} vs {wc:?}");
    }

    #[test]
    fn empty_and_single_destination_trees() {
        assert_eq!(TopoTreeBuilder::new(2, 0, vec![]).build().n(), 0);
        let t = TopoTreeBuilder::new(2, 0, vec![3]).build();
        assert_eq!(t.parent(0), Some(Node::Source));
        assert_eq!(t.reachable_count(), 1);
    }
}
