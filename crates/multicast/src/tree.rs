//! The multicast tree structure.
//!
//! A [`MulticastTree`] organizes the source `S` and `n` destination
//! instances into a relay tree: every node forwards each tuple to its
//! children, one per time unit, in attachment order. The structural
//! invariants the paper's algorithms rely on — connectivity, acyclicity,
//! bounded out-degree — are checkable with [`MulticastTree::validate`].

use std::collections::VecDeque;
use std::fmt;

/// A node in the multicast tree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Node {
    /// The source instance `S`.
    Source,
    /// The `i`th destination instance (0-based).
    Dest(u32),
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Source => write!(f, "S"),
            Node::Dest(i) => write!(f, "T{i}"),
        }
    }
}

/// Structural problems [`MulticastTree::validate`] can detect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TreeError {
    /// A destination is not reachable from the source.
    Disconnected(Node),
    /// A node's out-degree exceeds the allowed maximum.
    DegreeExceeded {
        /// The offending node.
        node: Node,
        /// Its out-degree.
        degree: u32,
        /// The allowed maximum.
        max: u32,
    },
    /// A node appears as a child of two parents (or of itself).
    NotATree(Node),
    /// The number of destinations in the tree differs from `n`.
    WrongCount {
        /// Destinations found.
        found: u32,
        /// Destinations expected.
        expected: u32,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Disconnected(n) => write!(f, "{n} unreachable from source"),
            TreeError::DegreeExceeded { node, degree, max } => {
                write!(f, "{node} has out-degree {degree} > max {max}")
            }
            TreeError::NotATree(n) => write!(f, "{n} has multiple parents"),
            TreeError::WrongCount { found, expected } => {
                write!(f, "tree holds {found} destinations, expected {expected}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted multicast tree over the source and `n` destinations.
///
/// Children are kept in attachment order; that order is the relay
/// schedule (first child served in the first time unit after receipt).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MulticastTree {
    n: u32,
    /// children[0] is the source; children[1 + i] is Dest(i).
    children: Vec<Vec<Node>>,
    /// parent[i] for Dest(i); None if detached.
    parent: Vec<Option<Node>>,
}

impl MulticastTree {
    /// An edgeless tree over `n` destinations (all detached).
    pub fn empty(n: u32) -> Self {
        MulticastTree {
            n,
            children: vec![Vec::new(); 1 + n as usize],
            parent: vec![None; n as usize],
        }
    }

    fn slot(&self, node: Node) -> usize {
        match node {
            Node::Source => 0,
            Node::Dest(i) => {
                assert!(i < self.n, "destination {i} out of range (n={})", self.n);
                1 + i as usize
            }
        }
    }

    /// Number of destinations.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Children of a node, in attachment (relay) order.
    pub fn children(&self, node: Node) -> &[Node] {
        &self.children[self.slot(node)]
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: Node) -> u32 {
        self.children[self.slot(node)].len() as u32
    }

    /// Parent of a destination (None if detached). The source has no parent.
    pub fn parent(&self, dest: u32) -> Option<Node> {
        self.parent[dest as usize]
    }

    /// Attach `Dest(child)` under `parent`. The child must be detached.
    pub fn attach(&mut self, parent: Node, child: u32) {
        assert!(
            self.parent[child as usize].is_none(),
            "T{child} is already attached"
        );
        assert!(
            parent != Node::Dest(child),
            "a node cannot be its own parent"
        );
        let slot = self.slot(parent);
        self.children[slot].push(Node::Dest(child));
        self.parent[child as usize] = Some(parent);
    }

    /// Detach `Dest(child)` from its parent (its own subtree stays intact
    /// below it). Returns the former parent.
    pub fn detach(&mut self, child: u32) -> Option<Node> {
        let parent = self.parent[child as usize].take()?;
        let slot = self.slot(parent);
        let pos = self.children[slot]
            .iter()
            .position(|&c| c == Node::Dest(child))
            .expect("parent must list the child");
        self.children[slot].remove(pos);
        Some(parent)
    }

    /// Breadth-first traversal from the source; yields `(node, depth)`.
    /// Depth 0 is the source.
    pub fn bfs(&self) -> Vec<(Node, u32)> {
        let mut out = Vec::with_capacity(1 + self.n as usize);
        let mut q = VecDeque::new();
        q.push_back((Node::Source, 0));
        while let Some((node, d)) = q.pop_front() {
            out.push((node, d));
            for &c in self.children(node) {
                q.push_back((c, d + 1));
            }
        }
        out
    }

    /// Depth of a node (hops from source), or None if unreachable.
    pub fn depth(&self, node: Node) -> Option<u32> {
        self.bfs()
            .into_iter()
            .find(|&(n, _)| n == node)
            .map(|(_, d)| d)
    }

    /// Height of the tree (max depth over reachable nodes).
    pub fn height(&self) -> u32 {
        self.bfs().into_iter().map(|(_, d)| d).max().unwrap_or(0)
    }

    /// Destinations reachable from the source.
    pub fn reachable_count(&self) -> u32 {
        (self.bfs().len() - 1) as u32
    }

    /// All destinations of the subtree rooted at `root` (inclusive).
    pub fn subtree(&self, root: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut q = VecDeque::new();
        q.push_back(Node::Dest(root));
        while let Some(node) = q.pop_front() {
            if let Node::Dest(i) = node {
                out.push(i);
            }
            for &c in self.children(node) {
                q.push_back(c);
            }
        }
        out
    }

    /// Validate all structural invariants against a maximum out-degree.
    /// `max_degree = u32::MAX` checks connectivity only.
    pub fn validate(&self, max_degree: u32) -> Result<(), TreeError> {
        // Degree check.
        let all_nodes = std::iter::once(Node::Source).chain((0..self.n).map(Node::Dest));
        for node in all_nodes {
            let d = self.out_degree(node);
            if d > max_degree {
                return Err(TreeError::DegreeExceeded {
                    node,
                    degree: d,
                    max: max_degree,
                });
            }
        }
        // Single-parent check (each Dest appears as a child at most once).
        let mut seen = vec![false; self.n as usize];
        for slot in 0..self.children.len() {
            for &c in &self.children[slot] {
                if let Node::Dest(i) = c {
                    if seen[i as usize] {
                        return Err(TreeError::NotATree(c));
                    }
                    seen[i as usize] = true;
                }
            }
        }
        // Connectivity.
        let reach = self.reachable_count();
        if reach != self.n {
            let missing = (0..self.n)
                .find(|&i| self.depth(Node::Dest(i)).is_none())
                .map(Node::Dest)
                .unwrap_or(Node::Source);
            if self.parent.iter().filter(|p| p.is_some()).count() as u32 == self.n {
                // everyone has a parent but not reachable → cycle among dests
                return Err(TreeError::NotATree(missing));
            }
            return Err(TreeError::Disconnected(missing));
        }
        Ok(())
    }

    /// Render the tree as indented ASCII, children in relay order.
    ///
    /// ```text
    /// S
    /// ├── T0
    /// │   ├── T2
    /// │   └── T3
    /// └── T1
    /// ```
    pub fn render_ascii(&self) -> String {
        fn walk(tree: &MulticastTree, node: Node, prefix: &str, out: &mut String) {
            let children = tree.children(node);
            for (i, &c) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                let (branch, cont) = if last {
                    ("└── ", "    ")
                } else {
                    ("├── ", "│   ")
                };
                out.push_str(prefix);
                out.push_str(branch);
                out.push_str(&c.to_string());
                out.push('\n');
                walk(tree, c, &format!("{prefix}{cont}"), out);
            }
        }
        let mut out = String::from("S\n");
        walk(self, Node::Source, "", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig 6 example: |T| = 7, d* = 2.
    fn fig6_tree() -> MulticastTree {
        let mut t = MulticastTree::empty(7);
        // Layer 1: S → T0 (T_{1-1})
        t.attach(Node::Source, 0);
        // Layer 2: S → T1 (T_{2-1}), T0 → T2 (T_{2-2})
        t.attach(Node::Source, 1);
        t.attach(Node::Dest(0), 2);
        // Layer 3: T0 → T3 (T_{3-1}), T1 → T4 (T_{3-2}), T2 → T5 (T_{3-3})
        t.attach(Node::Dest(0), 3);
        t.attach(Node::Dest(1), 4);
        t.attach(Node::Dest(2), 5);
        // Layer 4: T1 → T6 (T_{4-1})
        t.attach(Node::Dest(1), 6);
        t
    }

    #[test]
    fn fig6_structure_is_valid_at_dstar_2() {
        let t = fig6_tree();
        t.validate(2).unwrap();
        assert_eq!(t.out_degree(Node::Source), 2);
        assert_eq!(t.out_degree(Node::Dest(0)), 2);
        assert_eq!(t.out_degree(Node::Dest(1)), 2);
        assert_eq!(t.out_degree(Node::Dest(2)), 1);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn depths_match_layers() {
        let t = fig6_tree();
        assert_eq!(t.depth(Node::Source), Some(0));
        assert_eq!(t.depth(Node::Dest(0)), Some(1));
        assert_eq!(t.depth(Node::Dest(1)), Some(1));
        assert_eq!(t.depth(Node::Dest(5)), Some(3));
        // T6 = T_{4-1}: logical layer 4 (receives in time unit 4) but tree
        // depth 2 — it is T1's second child.
        assert_eq!(t.depth(Node::Dest(6)), Some(2));
    }

    #[test]
    fn detach_and_reattach() {
        let mut t = fig6_tree();
        let old_parent = t.detach(6).unwrap();
        assert_eq!(old_parent, Node::Dest(1));
        assert_eq!(t.reachable_count(), 6);
        assert!(matches!(
            t.validate(2),
            Err(TreeError::Disconnected(Node::Dest(6)))
        ));
        t.attach(Node::Dest(2), 6);
        t.validate(2).unwrap();
        assert_eq!(t.parent(6), Some(Node::Dest(2)));
    }

    #[test]
    fn subtree_collects_descendants() {
        let t = fig6_tree();
        let mut s = t.subtree(0);
        s.sort_unstable();
        assert_eq!(s, vec![0, 2, 3, 5]);
        assert_eq!(t.subtree(6), vec![6]);
    }

    #[test]
    fn degree_violation_detected() {
        let t = fig6_tree();
        match t.validate(1) {
            Err(TreeError::DegreeExceeded { degree, max, .. }) => {
                assert_eq!(degree, 2);
                assert_eq!(max, 1);
            }
            other => panic!("expected degree error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_parent_double_attach_panics() {
        let mut t = MulticastTree::empty(2);
        t.attach(Node::Source, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = t.clone();
            t2.attach(Node::Dest(1), 0);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn empty_tree_detached() {
        let t = MulticastTree::empty(3);
        assert_eq!(t.reachable_count(), 0);
        assert!(t.validate(10).is_err());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn detach_keeps_subtree_intact() {
        let mut t = fig6_tree();
        t.detach(0);
        // T0's own children remain attached below it.
        assert_eq!(t.children(Node::Dest(0)), &[Node::Dest(2), Node::Dest(3)]);
        assert_eq!(t.parent(2), Some(Node::Dest(0)));
    }

    #[test]
    fn bfs_order_is_layerwise() {
        let t = fig6_tree();
        let order: Vec<Node> = t.bfs().into_iter().map(|(n, _)| n).collect();
        assert_eq!(order[0], Node::Source);
        // Layer 1 before layer 2 before layer 3.
        let pos = |n: Node| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(Node::Dest(0)) < pos(Node::Dest(2)));
        assert!(pos(Node::Dest(2)) < pos(Node::Dest(5)));
    }

    #[test]
    fn ascii_rendering() {
        let mut t = MulticastTree::empty(3);
        t.attach(Node::Source, 0);
        t.attach(Node::Source, 1);
        t.attach(Node::Dest(0), 2);
        let art = t.render_ascii();
        assert_eq!(art, "S\n├── T0\n│   └── T2\n└── T1\n");
    }

    #[test]
    fn ascii_rendering_covers_all_reachable_nodes() {
        let t = fig6_tree();
        let art = t.render_ascii();
        for i in 0..7 {
            assert!(art.contains(&format!("T{i}")), "missing T{i} in:\n{art}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_panics() {
        let t = MulticastTree::empty(2);
        let _ = t.children(Node::Dest(5));
    }
}
