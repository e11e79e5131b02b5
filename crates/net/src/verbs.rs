//! Verbs-style RDMA abstraction: queue pairs and work requests.
//!
//! This mirrors the shape of the ibverbs API Whale programs against via
//! DiSNI, reduced to what the simulation needs: posting a work request has
//! a (verb-dependent) CPU cost and the transfer occupies the NIC for the
//! wire time. The cost numbers come from [`whale_sim::CostModel`].

use crate::topology::MachineId;
use whale_sim::{CostModel, MetricsRegistry, SimDuration, Transport, Verb};

/// Identifier of a queue pair (one reliable connection between two nodes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QpId(pub u64);

/// Identifier the application attaches to a work request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WrId(pub u64);

/// A work request posted to a queue pair.
#[derive(Clone, Debug)]
pub struct WorkRequest {
    /// Application-chosen id, echoed in the completion.
    pub wr_id: WrId,
    /// Verb of this request.
    pub verb: Verb,
    /// Message size in bytes.
    pub bytes: usize,
}

/// A queue pair: one end of a reliable connection, bound to a transport.
///
/// The QP itself is pure bookkeeping; timing comes from
/// [`QueuePair::post`] which returns the cost breakdown of the posted
/// request for the simulation to schedule.
#[derive(Clone, Debug)]
pub struct QueuePair {
    /// Id of this QP.
    pub id: QpId,
    /// Local machine.
    pub local: MachineId,
    /// Remote machine.
    pub remote: MachineId,
    /// Transport this QP runs over.
    pub transport: Transport,
    posted: u64,
    posted_bytes: u64,
}

/// Cost breakdown of a posted work request, for the caller to schedule.
#[derive(Clone, Copy, Debug)]
pub struct PostCosts {
    /// CPU time consumed on the posting side.
    pub post_cpu: SimDuration,
    /// NIC occupancy (wire serialization time).
    pub wire: SimDuration,
    /// One-way propagation latency to the remote side.
    pub latency: SimDuration,
    /// CPU time the remote side spends receiving/completing.
    pub remote_cpu: SimDuration,
}

impl QueuePair {
    /// Create a QP between two machines over `transport`.
    pub fn new(id: QpId, local: MachineId, remote: MachineId, transport: Transport) -> Self {
        QueuePair {
            id,
            local,
            remote,
            transport,
            posted: 0,
            posted_bytes: 0,
        }
    }

    /// Post a work request; returns its cost breakdown. `rack_hops` is the
    /// topology distance between the endpoints.
    pub fn post(&mut self, wr: &WorkRequest, cost: &CostModel, rack_hops: u32) -> PostCosts {
        self.posted += 1;
        self.posted_bytes += wr.bytes as u64;
        PostCosts {
            post_cpu: cost.send_cpu(self.transport, wr.verb, wr.bytes),
            wire: cost.wire_time(self.transport, wr.bytes),
            latency: cost.net_latency(self.transport, rack_hops),
            remote_cpu: cost.recv_cpu(self.transport, wr.verb),
        }
    }

    /// Work requests posted so far.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Bytes posted so far.
    pub fn posted_bytes(&self) -> u64 {
        self.posted_bytes
    }

    /// Export verb-post counters into `reg` under `prefix.*`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.posts"), self.posted);
        reg.set_counter(&format!("{prefix}.posted_bytes"), self.posted_bytes);
    }
}

/// Chooses the verb per message class, reproducing Whale's "DiffVerbs"
/// optimization (§4): bulk stream data goes through one-sided READ from a
/// ring region (receiver pulls, sender CPU untouched); control messages —
/// whose addresses the ring cannot predict — use two-sided SEND/RECV.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerbPolicy {
    /// Always two-sided SEND/RECV.
    TwoSided,
    /// Always one-sided WRITE.
    OneSidedWrite,
    /// Always one-sided READ.
    OneSidedRead,
    /// Whale's choice: READ for data, SEND/RECV for control.
    DiffVerbs,
}

impl VerbPolicy {
    /// Verb used for stream data messages.
    pub fn data_verb(self) -> Verb {
        match self {
            VerbPolicy::TwoSided => Verb::SendRecv,
            VerbPolicy::OneSidedWrite => Verb::Write,
            VerbPolicy::OneSidedRead | VerbPolicy::DiffVerbs => Verb::Read,
        }
    }

    /// Verb used for control messages.
    pub fn control_verb(self) -> Verb {
        match self {
            VerbPolicy::TwoSided | VerbPolicy::DiffVerbs => Verb::SendRecv,
            VerbPolicy::OneSidedWrite => Verb::Write,
            VerbPolicy::OneSidedRead => Verb::Read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp(transport: Transport) -> QueuePair {
        QueuePair::new(QpId(1), MachineId(0), MachineId(1), transport)
    }

    #[test]
    fn post_counts_and_bytes() {
        let mut q = qp(Transport::Rdma);
        let cost = CostModel::default();
        let wr = WorkRequest {
            wr_id: WrId(1),
            verb: Verb::Write,
            bytes: 256,
        };
        q.post(&wr, &cost, 0);
        q.post(&wr, &cost, 0);
        assert_eq!(q.posted(), 2);
        assert_eq!(q.posted_bytes(), 512);
    }

    #[test]
    fn rdma_cheaper_than_tcp_on_cpu() {
        let cost = CostModel::default();
        let wr = WorkRequest {
            wr_id: WrId(1),
            verb: Verb::SendRecv,
            bytes: 150,
        };
        let rdma = qp(Transport::Rdma).post(&wr, &cost, 0);
        let tcp = qp(Transport::Tcp).post(&wr, &cost, 0);
        assert!(rdma.post_cpu < tcp.post_cpu);
        assert!(rdma.wire < tcp.wire);
        assert!(rdma.latency < tcp.latency);
    }

    #[test]
    fn rack_hops_add_latency() {
        let cost = CostModel::default();
        let wr = WorkRequest {
            wr_id: WrId(1),
            verb: Verb::Read,
            bytes: 64,
        };
        let near = qp(Transport::Rdma).post(&wr, &cost, 0);
        let far = qp(Transport::Rdma).post(&wr, &cost, 1);
        assert!(far.latency > near.latency);
        assert_eq!(far.post_cpu, near.post_cpu);
    }

    #[test]
    fn verb_policy_diffverbs() {
        assert_eq!(VerbPolicy::DiffVerbs.data_verb(), Verb::Read);
        assert_eq!(VerbPolicy::DiffVerbs.control_verb(), Verb::SendRecv);
        assert_eq!(VerbPolicy::TwoSided.data_verb(), Verb::SendRecv);
        assert_eq!(VerbPolicy::OneSidedWrite.data_verb(), Verb::Write);
        assert_eq!(VerbPolicy::OneSidedWrite.control_verb(), Verb::Write);
        assert_eq!(VerbPolicy::OneSidedRead.control_verb(), Verb::Read);
    }
}
