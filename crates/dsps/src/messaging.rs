//! Communication planning: instance-oriented vs worker-oriented.
//!
//! Given one emitted tuple and its destination tasks, a [`CommMode`]
//! decides what actually goes on the wire:
//!
//! - **Instance-oriented** (Storm, RDMA-Storm): one message per destination
//!   *task*, each with its own serialization of the data item.
//! - **Worker-oriented** (Whale): one message per destination *worker*,
//!   the data item serialized once and destination ids packed in the
//!   header (§3.5).
//!
//! The plan also separates local deliveries (same worker as the source —
//! no network) from remote ones, and carries the byte/serialization
//! accounting behind Figs 25–28.

use crate::scheduler::{Placement, WorkerId};
use crate::task::TaskId;
use std::ops::Range;

/// Which communication mechanism the system runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommMode {
    /// One message per destination instance (Storm's design).
    InstanceOriented,
    /// One message per destination worker (Whale's design).
    WorkerOriented,
}

/// One network message to be sent for the tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Receiving worker.
    pub dst_worker: WorkerId,
    /// Where the covered destination tasks sit in the plan's task list
    /// (read them with [`MessagePlan::tasks_of`]).
    tasks: Range<usize>,
    /// Bytes on the wire.
    pub wire_bytes: usize,
}

/// The complete send plan for one tuple. Reusable: [`MessagePlan::fill`]
/// overwrites a plan in place and keeps its allocations, so a sender that
/// holds on to one plans every later tuple without touching the heap.
#[derive(Clone, Debug, Default)]
pub struct MessagePlan {
    /// Every destination task, grouped by hosting worker (workers
    /// ascending, each worker's tasks in routed order).
    tasks: Vec<TaskId>,
    /// Remote messages, ordered by destination worker.
    remote: Vec<Envelope>,
    /// The tasks on the source's own worker, as a range of `tasks`.
    local: Range<usize>,
    /// How many times the data item is serialized for this plan.
    pub serializations: u32,
    /// Total bytes crossing the network.
    pub total_wire_bytes: usize,
}

/// Fixed per-message header sizes, matching the codec
/// (`src:4 | dst:4` vs `src:4 | n:4 | ids:4n`).
const INSTANCE_HEADER: usize = 8;
const WORKER_HEADER: usize = 8;
const PER_ID: usize = 4;

/// Build the send plan for one tuple.
///
/// `item_bytes` is the serialized size of the data item;
/// `src` the emitting task; `dsts` the routed destination tasks.
pub fn plan(
    mode: CommMode,
    src: TaskId,
    item_bytes: usize,
    dsts: &[TaskId],
    placement: &Placement,
) -> MessagePlan {
    let mut plan = MessagePlan::default();
    plan.fill(mode, src, item_bytes, dsts, placement);
    plan
}

impl MessagePlan {
    /// Overwrite this plan with the one for a new tuple (arguments as for
    /// [`plan`]), reusing the allocations of whatever it held before.
    pub fn fill(
        &mut self,
        mode: CommMode,
        src: TaskId,
        item_bytes: usize,
        dsts: &[TaskId],
        placement: &Placement,
    ) {
        let MessagePlan { tasks, remote, .. } = self;
        tasks.clear();
        tasks.extend_from_slice(dsts);
        // Stable: a worker's tasks keep their routed order. (std sorts a
        // slice this short in place or on the stack — no heap block.)
        tasks.sort_by_key(|&t| placement.worker_of(t));
        remote.clear();
        self.local = 0..0;
        // Storm's executor send path serializes per destination, local
        // ones included (only the network hop is skipped); Whale
        // serializes the data item exactly once and reuses it per worker.
        self.serializations = match mode {
            CommMode::InstanceOriented => dsts.len() as u32,
            CommMode::WorkerOriented => 1,
        };
        let src_worker = placement.worker_of(src);
        let mut end = 0;
        for run in tasks.chunk_by(|&a, &b| placement.worker_of(a) == placement.worker_of(b)) {
            let dst_worker = placement.worker_of(run[0]);
            let range = end..end + run.len();
            end = range.end;
            if dst_worker == src_worker {
                self.local = range;
                continue;
            }
            // One message per task, or one for the worker's whole run.
            let (header, covers) = match mode {
                CommMode::InstanceOriented => (INSTANCE_HEADER, 1),
                CommMode::WorkerOriented => (WORKER_HEADER + PER_ID * run.len(), run.len()),
            };
            remote.extend(range.step_by(covers).map(|at| Envelope {
                dst_worker,
                tasks: at..at + covers,
                wire_bytes: header + item_bytes,
            }));
        }
        self.total_wire_bytes = remote.iter().map(|e| e.wire_bytes).sum();
    }

    /// Remote messages, ordered by destination worker.
    pub fn remote(&self) -> &[Envelope] {
        &self.remote
    }

    /// The destination tasks one of this plan's messages covers.
    pub fn tasks_of(&self, envelope: &Envelope) -> &[TaskId] {
        &self.tasks[envelope.tasks.clone()]
    }

    /// Tasks delivered locally (source's own worker), no network involved.
    pub fn local_tasks(&self) -> &[TaskId] {
        &self.tasks[self.local.clone()]
    }

    /// Total destination tasks covered (remote + local).
    pub fn fanout(&self) -> usize {
        self.tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Grouping, TopologyBuilder};
    use crate::tuple::Schema;
    use whale_net::ClusterSpec;

    /// 1 spout task + `bolt_p` bolt tasks on `machines` machines.
    fn setup(bolt_p: u32, machines: u32) -> (Placement, TaskId, Vec<TaskId>) {
        let mut b = TopologyBuilder::new();
        b.spout("src", 1, Schema::new(vec!["k"]))
            .bolt("match", bolt_p, Schema::new(vec!["k"]))
            .connect("src", "match", Grouping::All);
        let t = b.build().unwrap();
        let c = ClusterSpec::new(machines, 1, 16);
        let p = Placement::even(&t, &c);
        let src = t.tasks_of("src")[0];
        let dsts = t.tasks_of("match");
        (p, src, dsts)
    }

    #[test]
    fn instance_oriented_one_message_per_remote_task() {
        let (p, src, dsts) = setup(12, 4);
        let plan = plan(CommMode::InstanceOriented, src, 100, &dsts, &p);
        // 12 tasks over 4 workers: 3 local (worker 0), 9 remote.
        assert_eq!(plan.local_tasks().len(), 3);
        assert_eq!(plan.remote().len(), 9);
        assert_eq!(plan.serializations, 12);
        assert_eq!(plan.total_wire_bytes, 9 * (8 + 100));
        assert_eq!(plan.fanout(), 12);
    }

    #[test]
    fn worker_oriented_one_message_per_remote_worker() {
        let (p, src, dsts) = setup(12, 4);
        let plan = plan(CommMode::WorkerOriented, src, 100, &dsts, &p);
        assert_eq!(plan.local_tasks().len(), 3);
        assert_eq!(plan.remote().len(), 3, "one message per remote worker");
        assert_eq!(plan.serializations, 1);
        // Each remote worker hosts 3 tasks: 8 + 4*3 + 100 bytes.
        assert_eq!(plan.total_wire_bytes, 3 * (8 + 12 + 100));
        assert_eq!(plan.fanout(), 12);
    }

    #[test]
    fn traffic_ratio_matches_fig27_shape() {
        // At parallelism 480 on 30 machines, Whale should cut traffic ~90%.
        let (p, src, dsts) = setup(480, 30);
        let io = plan(CommMode::InstanceOriented, src, 150, &dsts, &p);
        let wo = plan(CommMode::WorkerOriented, src, 150, &dsts, &p);
        let reduction = 1.0 - wo.total_wire_bytes as f64 / io.total_wire_bytes as f64;
        assert!(reduction > 0.85, "reduction={reduction}");
    }

    #[test]
    fn all_local_when_single_machine() {
        let (p, src, dsts) = setup(8, 1);
        for mode in [CommMode::InstanceOriented, CommMode::WorkerOriented] {
            let plan = plan(mode, src, 100, &dsts, &p);
            assert_eq!(plan.remote().len(), 0);
            assert_eq!(plan.local_tasks().len(), 8);
            assert_eq!(plan.total_wire_bytes, 0);
        }
    }

    #[test]
    fn envelopes_ordered_by_worker() {
        let (p, src, dsts) = setup(30, 10);
        let plan = plan(CommMode::WorkerOriented, src, 64, &dsts, &p);
        let workers: Vec<u32> = plan.remote().iter().map(|e| e.dst_worker.0).collect();
        let mut sorted = workers.clone();
        sorted.sort_unstable();
        assert_eq!(workers, sorted);
    }

    #[test]
    fn single_destination_equivalence() {
        // With one remote destination the two modes differ only by header.
        let (p, src, dsts) = setup(2, 2);
        let remote_dst: Vec<TaskId> = dsts
            .iter()
            .copied()
            .filter(|&t| p.worker_of(t) != p.worker_of(src))
            .take(1)
            .collect();
        let io = plan(CommMode::InstanceOriented, src, 100, &remote_dst, &p);
        let wo = plan(CommMode::WorkerOriented, src, 100, &remote_dst, &p);
        assert_eq!(io.remote().len(), 1);
        assert_eq!(wo.remote().len(), 1);
        assert_eq!(io.total_wire_bytes, 108);
        assert_eq!(wo.total_wire_bytes, 112); // 8 + 4*1 + 100
    }
    /// What a plan says goes where: `(worker, tasks, wire bytes)` per
    /// remote message, then the local tasks and the two totals.
    type Shape = (Vec<(u32, Vec<TaskId>, usize)>, Vec<TaskId>, u32, usize);

    fn shape(p: &MessagePlan) -> Shape {
        let remote = p.remote().iter();
        (
            remote
                .map(|e| (e.dst_worker.0, p.tasks_of(e).to_vec(), e.wire_bytes))
                .collect(),
            p.local_tasks().to_vec(),
            p.serializations,
            p.total_wire_bytes,
        )
    }

    /// The grouping as it was written before plans were reusable: a
    /// worker-ordered tree of per-worker task lists.
    fn tree_grouped(
        mode: CommMode,
        src: TaskId,
        item_bytes: usize,
        dsts: &[TaskId],
        p: &Placement,
    ) -> Shape {
        let mut by_worker = std::collections::BTreeMap::<WorkerId, Vec<TaskId>>::new();
        for &t in dsts {
            by_worker.entry(p.worker_of(t)).or_default().push(t);
        }
        let local = by_worker.remove(&p.worker_of(src)).unwrap_or_default();
        let remote: Vec<_> = match mode {
            CommMode::InstanceOriented => by_worker
                .iter()
                .flat_map(|(w, tasks)| tasks.iter().map(|&t| (w.0, vec![t], 8 + item_bytes)))
                .collect(),
            CommMode::WorkerOriented => by_worker
                .into_iter()
                .map(|(w, tasks)| (w.0, tasks.clone(), 8 + 4 * tasks.len() + item_bytes))
                .collect(),
        };
        let serializations = match mode {
            CommMode::InstanceOriented => dsts.len() as u32,
            CommMode::WorkerOriented => 1,
        };
        let total = remote.iter().map(|(_, _, bytes)| bytes).sum();
        (remote, local, serializations, total)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A reused plan is the plan a fresh `plan()` builds — also right
        /// after holding a larger one, so nothing stale leaks out of the
        /// retained capacity — and both are the tree-built grouping.
        #[test]
        fn refilled_plan_equals_fresh_plan(
            bolt_p in 1u32..40,
            machines in 1u32..8,
            workers_per_machine in 1u32..3,
            item_bytes in 0usize..200,
            picks in proptest::collection::vec((0u32..1000, 0u32..1000), 1..4),
        ) {
            let mut b = TopologyBuilder::new();
            b.spout("src", 1, Schema::new(vec!["k"]))
                .bolt("match", bolt_p, Schema::new(vec!["k"]))
                .connect("src", "match", Grouping::All);
            let t = b.build().unwrap();
            let c = ClusterSpec::new(machines, 1, 16);
            let p = Placement::even_with_workers(&t, &c, workers_per_machine);
            let src = t.tasks_of("src")[0];
            let bolts = t.tasks_of("match");
            let mut reused = MessagePlan::default();
            // Every task once (the largest plan), then arbitrary
            // sub-lists in arbitrary rotation, repeats included.
            let mut lists = vec![bolts.clone()];
            for (len, rot) in picks {
                let len = 1 + len as usize % bolts.len();
                lists.push((0..len).map(|i| bolts[(i * 7 + rot as usize) % bolts.len()]).collect());
            }
            for dsts in &lists {
                for mode in [CommMode::WorkerOriented, CommMode::InstanceOriented] {
                    reused.fill(mode, src, item_bytes, dsts, &p);
                    let fresh = plan(mode, src, item_bytes, dsts, &p);
                    proptest::prop_assert_eq!(shape(&reused), shape(&fresh));
                    proptest::prop_assert_eq!(
                        shape(&fresh),
                        tree_grouped(mode, src, item_bytes, dsts, &p)
                    );
                    proptest::prop_assert_eq!(fresh.fanout(), dsts.len());
                }
            }
        }
    }
}
