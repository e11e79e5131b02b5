//! Physical placement: tasks onto workers, workers onto machines.
//!
//! Reproduces Storm's default even scheduler: each machine runs one worker
//! process (as in the paper's 30-node setup) and tasks are dealt
//! round-robin across workers, so a component with parallelism 480 on 30
//! machines puts 16 instances in every worker — the co-location that makes
//! instance-oriented one-to-many partitioning so wasteful.

use crate::task::TaskId;
use crate::topology::Topology;
use std::fmt;
use whale_net::{ClusterSpec, MachineId};

/// Identifier of a worker process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WorkerId(pub u32);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker{}", self.0)
    }
}

/// An immutable placement of a topology on a cluster.
#[derive(Clone, Debug)]
pub struct Placement {
    /// task id (dense index) → worker
    task_worker: Vec<WorkerId>,
    /// worker (dense index) → machine
    worker_machine: Vec<MachineId>,
}

impl Placement {
    /// Place `topology` on `cluster` with one worker per machine and tasks
    /// dealt round-robin per component (Storm's even scheduler).
    pub fn even(topology: &Topology, cluster: &ClusterSpec) -> Self {
        Self::even_with_workers(topology, cluster, 1)
    }

    /// Same, with `workers_per_machine` worker slots on every machine.
    pub fn even_with_workers(
        topology: &Topology,
        cluster: &ClusterSpec,
        workers_per_machine: u32,
    ) -> Self {
        assert!(workers_per_machine > 0);
        let n_workers = cluster.machines() * workers_per_machine;
        let worker_machine: Vec<MachineId> = (0..n_workers)
            .map(|w| MachineId(w / workers_per_machine))
            .collect();
        let mut task_worker = vec![WorkerId(0); topology.total_tasks() as usize];
        // Deal each component's tasks round-robin, starting each component
        // at worker 0 (Storm restarts per component).
        for comp in topology.components() {
            for (i, task) in topology.tasks().tasks_of(comp.id).into_iter().enumerate() {
                task_worker[task.0 as usize] = WorkerId((i as u32) % n_workers);
            }
        }
        Placement {
            task_worker,
            worker_machine,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> u32 {
        self.worker_machine.len() as u32
    }

    /// The worker hosting a task.
    pub fn worker_of(&self, task: TaskId) -> WorkerId {
        self.task_worker[task.0 as usize]
    }

    /// The machine running a worker.
    pub fn machine_of_worker(&self, worker: WorkerId) -> MachineId {
        self.worker_machine[worker.0 as usize]
    }

    /// True if two tasks share a worker process.
    pub fn colocated(&self, a: TaskId, b: TaskId) -> bool {
        self.worker_of(a) == self.worker_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Grouping, TopologyBuilder};
    use crate::tuple::Schema;

    fn topo(spout_p: u32, bolt_p: u32) -> Topology {
        let mut b = TopologyBuilder::new();
        b.spout("src", spout_p, Schema::new(vec!["k"]))
            .bolt("match", bolt_p, Schema::new(vec!["k"]))
            .connect("src", "match", Grouping::All);
        b.build().unwrap()
    }

    #[test]
    fn paper_shape_sixteen_per_worker() {
        let t = topo(1, 480);
        let c = ClusterSpec::paper_testbed();
        let p = Placement::even(&t, &c);
        assert_eq!(p.workers(), 30);
        // The 480 matching tasks spread 16 per worker.
        let matching = t.tasks_of("match");
        for w in 0..30 {
            let hosted = matching.iter().filter(|&&t| p.worker_of(t) == WorkerId(w));
            assert_eq!(hosted.count(), 16);
        }
    }

    #[test]
    fn round_robin_deal() {
        let t = topo(1, 5);
        let c = ClusterSpec::new(3, 1, 4);
        let p = Placement::even(&t, &c);
        // Spout task 0 → worker 0. Bolt tasks 1..=5 dealt 0,1,2,0,1.
        assert_eq!(p.worker_of(TaskId(0)), WorkerId(0));
        assert_eq!(p.worker_of(TaskId(1)), WorkerId(0));
        assert_eq!(p.worker_of(TaskId(2)), WorkerId(1));
        assert_eq!(p.worker_of(TaskId(3)), WorkerId(2));
        assert_eq!(p.worker_of(TaskId(4)), WorkerId(0));
        assert_eq!(p.worker_of(TaskId(5)), WorkerId(1));
    }

    #[test]
    fn worker_machine_mapping() {
        let t = topo(1, 4);
        let c = ClusterSpec::new(2, 1, 4);
        let p = Placement::even_with_workers(&t, &c, 2);
        assert_eq!(p.workers(), 4);
        assert_eq!(p.machine_of_worker(WorkerId(0)), MachineId(0));
        assert_eq!(p.machine_of_worker(WorkerId(1)), MachineId(0));
        assert_eq!(p.machine_of_worker(WorkerId(2)), MachineId(1));
        assert_eq!(p.machine_of_worker(WorkerId(3)), MachineId(1));
    }

    #[test]
    fn colocation() {
        let t = topo(1, 4);
        let c = ClusterSpec::new(2, 1, 4);
        let p = Placement::even(&t, &c);
        // Bolt tasks 1,2,3,4 → workers 0,1,0,1.
        assert!(p.colocated(TaskId(1), TaskId(3)));
        assert!(!p.colocated(TaskId(1), TaskId(2)));
    }
}
