//! Task identities and the operator → task table.
//!
//! Each operator (component) runs as `parallelism` tasks. Tasks are
//! numbered densely across the topology, in component declaration order,
//! exactly like Storm's task ids.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Identifier of a task (an operator instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifier of a logical component (operator) in a topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ComponentId(pub u32);

/// Dense assignment of task-id ranges to components.
#[derive(Clone, Debug, Default)]
pub struct TaskTable {
    ranges: BTreeMap<ComponentId, Range<u32>>,
    /// Dense task id → owning component (task ids are allocated densely,
    /// so the task id is the index).
    owners: Vec<ComponentId>,
    next: u32,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `parallelism` task ids for `component`; returns the range.
    pub fn allocate(&mut self, component: ComponentId, parallelism: u32) -> Range<u32> {
        assert!(parallelism > 0, "parallelism must be positive");
        assert!(
            !self.ranges.contains_key(&component),
            "component {component:?} already allocated"
        );
        let range = self.next..self.next + parallelism;
        self.next += parallelism;
        self.owners
            .extend(std::iter::repeat_n(component, parallelism as usize));
        self.ranges.insert(component, range.clone());
        range
    }

    /// Task ids of a component.
    pub fn tasks_of(&self, component: ComponentId) -> Vec<TaskId> {
        self.task_ids(component).collect()
    }

    /// Task ids of a component in order, without allocating (empty if the
    /// component is unknown).
    pub fn task_ids(&self, component: ComponentId) -> impl Iterator<Item = TaskId> {
        let range = self.ranges.get(&component).cloned().unwrap_or(0..0);
        range.map(TaskId)
    }

    /// Parallelism of a component (0 if unknown).
    pub fn parallelism(&self, component: ComponentId) -> u32 {
        self.ranges.get(&component).map_or(0, |r| r.end - r.start)
    }

    /// The component owning a task id.
    pub fn component_of(&self, task: TaskId) -> Option<ComponentId> {
        self.owners.get(task.0 as usize).copied()
    }

    /// Total number of tasks allocated.
    pub fn total_tasks(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_allocation() {
        let mut t = TaskTable::new();
        let a = t.allocate(ComponentId(0), 2);
        let b = t.allocate(ComponentId(1), 3);
        assert_eq!(a, 0..2);
        assert_eq!(b, 2..5);
        assert_eq!(t.total_tasks(), 5);
    }

    #[test]
    fn lookup_directions() {
        let mut t = TaskTable::new();
        t.allocate(ComponentId(0), 2);
        t.allocate(ComponentId(1), 3);
        assert_eq!(
            t.tasks_of(ComponentId(1)),
            vec![TaskId(2), TaskId(3), TaskId(4)]
        );
        assert_eq!(t.component_of(TaskId(0)), Some(ComponentId(0)));
        assert_eq!(t.component_of(TaskId(4)), Some(ComponentId(1)));
        assert_eq!(t.component_of(TaskId(9)), None);
        assert!(t.task_ids(ComponentId(1)).eq(t.tasks_of(ComponentId(1))));
        assert_eq!(t.task_ids(ComponentId(9)).count(), 0);
        assert_eq!(t.parallelism(ComponentId(1)), 3);
        assert_eq!(t.parallelism(ComponentId(9)), 0);
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocation_rejected() {
        let mut t = TaskTable::new();
        t.allocate(ComponentId(0), 1);
        t.allocate(ComponentId(0), 1);
    }

    #[test]
    #[should_panic(expected = "parallelism must be positive")]
    fn zero_parallelism_rejected() {
        let mut t = TaskTable::new();
        t.allocate(ComponentId(0), 0);
    }
}
