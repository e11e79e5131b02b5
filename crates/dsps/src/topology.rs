//! Logical topology: the DAG of spouts, bolts, and stream groupings.
//!
//! Mirrors Storm's `TopologyBuilder`: declare spouts and bolts with a
//! parallelism level, then connect bolts to upstream components with a
//! grouping. Validation rejects cycles, unknown upstreams, and duplicate
//! names at build time.

use crate::task::{ComponentId, TaskId, TaskTable};
use crate::tuple::Schema;
use std::collections::{BTreeMap, HashMap};

/// How an upstream component partitions its stream to a downstream one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Grouping {
    /// Round-robin / random: each tuple to one downstream task.
    Shuffle,
    /// Hash of the key field: same key → same task.
    Fields(usize),
    /// One-to-many: every tuple to **all** downstream tasks (the paper's
    /// subject).
    All,
    /// The emitter names the destination task explicitly.
    Direct,
}

/// Kind of component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComponentKind {
    /// Source of tuples.
    Spout,
    /// Processing operator.
    Bolt,
}

/// A declared component.
#[derive(Clone, Debug)]
pub struct Component {
    /// Dense id.
    pub id: ComponentId,
    /// Unique name.
    pub name: String,
    /// Spout or bolt.
    pub kind: ComponentKind,
    /// Number of tasks.
    pub parallelism: u32,
    /// Declared output fields.
    pub schema: Schema,
}

/// A stream subscription: `to` consumes `from` with `grouping`.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Upstream component.
    pub from: ComponentId,
    /// Downstream component.
    pub to: ComponentId,
    /// Partitioning strategy.
    pub grouping: Grouping,
}

/// Errors detected at build time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// A component name was declared twice.
    DuplicateName(String),
    /// An edge references an unknown component name.
    UnknownComponent(String),
    /// A bolt subscribes to itself or a cycle exists.
    Cycle,
    /// A spout was given an input edge.
    SpoutWithInput(String),
    /// A fields grouping referenced a field index outside the upstream schema.
    BadKeyField {
        /// The offending edge's upstream name.
        from: String,
        /// The requested key index.
        index: usize,
    },
    /// The topology has no spout.
    NoSpout,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate component name {n:?}"),
            TopologyError::UnknownComponent(n) => write!(f, "unknown component {n:?}"),
            TopologyError::Cycle => write!(f, "topology contains a cycle"),
            TopologyError::SpoutWithInput(n) => write!(f, "spout {n:?} cannot have inputs"),
            TopologyError::BadKeyField { from, index } => {
                write!(
                    f,
                    "fields grouping key index {index} out of range for {from:?}"
                )
            }
            TopologyError::NoSpout => write!(f, "topology has no spout"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A validated topology.
#[derive(Clone, Debug)]
pub struct Topology {
    components: Vec<Component>,
    edges: Vec<Edge>,
    tasks: TaskTable,
    by_name: HashMap<String, ComponentId>,
}

impl Topology {
    /// All components in declaration order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The task table.
    pub fn tasks(&self) -> &TaskTable {
        &self.tasks
    }

    /// Component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.by_name
            .get(name)
            .map(|&id| &self.components[id.0 as usize])
    }

    /// Component by id.
    pub fn component_by_id(&self, id: ComponentId) -> &Component {
        &self.components[id.0 as usize]
    }

    /// Task ids of a component by name.
    pub fn tasks_of(&self, name: &str) -> Vec<TaskId> {
        self.component(name)
            .map(|c| self.tasks.tasks_of(c.id))
            .unwrap_or_default()
    }

    /// Edges out of a component (its downstream subscriptions).
    pub fn downstream_edges(&self, from: ComponentId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.from == from).collect()
    }

    /// Edges into a component.
    pub fn upstream_edges(&self, to: ComponentId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.to == to).collect()
    }

    /// Total task count.
    pub fn total_tasks(&self) -> u32 {
        self.tasks.total_tasks()
    }
}

/// Builder for [`Topology`].
///
/// ```
/// use whale_dsps::{Grouping, Schema, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// b.spout("requests", 1, Schema::new(vec!["order_id"]))
///     .bolt("matching", 16, Schema::new(vec!["order_id"]))
///     .connect("requests", "matching", Grouping::All); // one-to-many
/// let topology = b.build().unwrap();
/// assert_eq!(topology.tasks_of("matching").len(), 16);
/// ```
#[derive(Default)]
pub struct TopologyBuilder {
    components: Vec<Component>,
    edge_decls: Vec<(String, String, Grouping)>,
    by_name: HashMap<String, ComponentId>,
    error: Option<TopologyError>,
}

impl TopologyBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_component(
        &mut self,
        name: &str,
        kind: ComponentKind,
        parallelism: u32,
        schema: Schema,
    ) -> &mut Self {
        if self.by_name.contains_key(name) {
            self.error
                .get_or_insert(TopologyError::DuplicateName(name.to_string()));
            return self;
        }
        let id = ComponentId(self.components.len() as u32);
        self.by_name.insert(name.to_string(), id);
        self.components.push(Component {
            id,
            name: name.to_string(),
            kind,
            parallelism,
            schema,
        });
        self
    }

    /// Declare a spout.
    pub fn spout(&mut self, name: &str, parallelism: u32, schema: Schema) -> &mut Self {
        self.add_component(name, ComponentKind::Spout, parallelism, schema)
    }

    /// Declare a bolt.
    pub fn bolt(&mut self, name: &str, parallelism: u32, schema: Schema) -> &mut Self {
        self.add_component(name, ComponentKind::Bolt, parallelism, schema)
    }

    /// Subscribe `to` to `from` with `grouping`.
    pub fn connect(&mut self, from: &str, to: &str, grouping: Grouping) -> &mut Self {
        self.edge_decls
            .push((from.to_string(), to.to_string(), grouping));
        self
    }

    /// Validate and build.
    pub fn build(&mut self) -> Result<Topology, TopologyError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if !self
            .components
            .iter()
            .any(|c| c.kind == ComponentKind::Spout)
        {
            return Err(TopologyError::NoSpout);
        }
        let mut edges = Vec::with_capacity(self.edge_decls.len());
        for (from, to, grouping) in &self.edge_decls {
            let &from_id = self
                .by_name
                .get(from)
                .ok_or_else(|| TopologyError::UnknownComponent(from.clone()))?;
            let &to_id = self
                .by_name
                .get(to)
                .ok_or_else(|| TopologyError::UnknownComponent(to.clone()))?;
            let to_comp = &self.components[to_id.0 as usize];
            if to_comp.kind == ComponentKind::Spout {
                return Err(TopologyError::SpoutWithInput(to.clone()));
            }
            if let Grouping::Fields(idx) = grouping {
                let from_comp = &self.components[from_id.0 as usize];
                if *idx >= from_comp.schema.arity() {
                    return Err(TopologyError::BadKeyField {
                        from: from.clone(),
                        index: *idx,
                    });
                }
            }
            edges.push(Edge {
                from: from_id,
                to: to_id,
                grouping: grouping.clone(),
            });
        }
        // Cycle detection: Kahn's algorithm must consume every node.
        let n = self.components.len();
        let mut indegree = vec![0usize; n];
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in &edges {
            indegree[e.to.0 as usize] += 1;
            adj.entry(e.from.0 as usize)
                .or_default()
                .push(e.to.0 as usize);
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &j in adj.get(&i).into_iter().flatten() {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if seen != n {
            return Err(TopologyError::Cycle);
        }
        // Allocate task ids in declaration order.
        let mut tasks = TaskTable::new();
        for c in &self.components {
            tasks.allocate(c.id, c.parallelism);
        }
        Ok(Topology {
            components: std::mem::take(&mut self.components),
            edges,
            tasks,
            by_name: std::mem::take(&mut self.by_name),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::new(vec!["k", "v"])
    }

    fn linear() -> Topology {
        let mut b = TopologyBuilder::new();
        b.spout("source", 2, schema2())
            .bolt("match", 4, schema2())
            .bolt("agg", 1, schema2())
            .connect("source", "match", Grouping::All)
            .connect("match", "agg", Grouping::Shuffle);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_allocates_tasks() {
        let t = linear();
        assert_eq!(t.total_tasks(), 7);
        assert_eq!(t.tasks_of("source"), vec![TaskId(0), TaskId(1)]);
        assert_eq!(t.tasks_of("match").len(), 4);
        assert_eq!(t.tasks_of("agg"), vec![TaskId(6)]);
    }

    #[test]
    fn edge_queries() {
        let t = linear();
        let src = t.component("source").unwrap().id;
        let mat = t.component("match").unwrap().id;
        assert_eq!(t.downstream_edges(src).len(), 1);
        assert_eq!(t.upstream_edges(mat).len(), 1);
        assert_eq!(t.downstream_edges(src)[0].grouping, Grouping::All);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = TopologyBuilder::new();
        b.spout("x", 1, schema2()).bolt("x", 1, schema2());
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::DuplicateName("x".into())
        );
    }

    #[test]
    fn unknown_component_rejected() {
        let mut b = TopologyBuilder::new();
        b.spout("s", 1, schema2())
            .bolt("b", 1, schema2())
            .connect("s", "ghost", Grouping::Shuffle);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::UnknownComponent("ghost".into())
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut b = TopologyBuilder::new();
        b.spout("s", 1, schema2())
            .bolt("a", 1, schema2())
            .bolt("b", 1, schema2())
            .connect("s", "a", Grouping::Shuffle)
            .connect("a", "b", Grouping::Shuffle)
            .connect("b", "a", Grouping::Shuffle);
        assert_eq!(b.build().unwrap_err(), TopologyError::Cycle);
    }

    #[test]
    fn spout_input_rejected() {
        let mut b = TopologyBuilder::new();
        b.spout("s", 1, schema2())
            .spout("s2", 1, schema2())
            .connect("s", "s2", Grouping::Shuffle);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::SpoutWithInput("s2".into())
        );
    }

    #[test]
    fn bad_key_field_rejected() {
        let mut b = TopologyBuilder::new();
        b.spout("s", 1, schema2())
            .bolt("b", 1, schema2())
            .connect("s", "b", Grouping::Fields(5));
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::BadKeyField {
                from: "s".into(),
                index: 5
            }
        );
    }

    #[test]
    fn no_spout_rejected() {
        let mut b = TopologyBuilder::new();
        b.bolt("b", 1, schema2());
        assert_eq!(b.build().unwrap_err(), TopologyError::NoSpout);
    }

    #[test]
    fn diamond_topology_is_acyclic() {
        let mut b = TopologyBuilder::new();
        b.spout("s", 1, schema2())
            .bolt("l", 2, schema2())
            .bolt("r", 2, schema2())
            .bolt("join", 1, schema2())
            .connect("s", "l", Grouping::Shuffle)
            .connect("s", "r", Grouping::Shuffle)
            .connect("l", "join", Grouping::All)
            .connect("r", "join", Grouping::All);
        let t = b.build().unwrap();
        assert_eq!(t.edges().len(), 4);
        let join = t.component("join").unwrap().id;
        assert_eq!(t.upstream_edges(join).len(), 2);
    }
}
