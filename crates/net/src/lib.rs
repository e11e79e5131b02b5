//! # whale-net — the live fabric
//!
//! Stand-in for the Mellanox InfiniBand FDR + DiSNI verbs stack the paper
//! runs on, as a crate that moves frames between threads and counts them.
//! Provides: the cluster topology (machines/racks) and its per-link load
//! tracker, registered memory with the ring memory region multiplexing of
//! §4, the MMS/WTL stream-slicing batcher, the live in-process transports
//! (per-send, and the batched ring and one-sided fetch, the two rule sets
//! of one buffered policy) behind [`FabricPath`] with
//! their fault-injection wrapper, and the partition log. It prices
//! nothing: the simulator's cost model, NIC model and verb choice live in
//! `whale-sim`, and a live clock here is a [`std::time::Duration`] since
//! the transport was created.

#![warn(missing_docs)]

pub mod batch;
pub mod core;
pub mod fabric;
pub mod fault;
pub mod inbox;
pub mod log;
pub mod memory;
pub mod one_sided;
pub mod policy;
pub mod ring_fabric;
pub mod slice;
pub mod topology;

pub use batch::{Batch, BatchConfig, Batcher, FlushReason};
pub use crate::core::{FabricKind, LiveFabric, Transport};
pub use fabric::{
    EndpointId, FabricPath, FabricStats, IdHashMap, IdHashSet, IdHasher, LiveMessage, Payload,
    RegisterError, SendError, SliceRef,
};
pub use fault::{EndpointCrash, EndpointRestart, FaultFabric, FaultPlan, LinkFaults, Partition};
pub use inbox::{Inbox, RecvError, RecvTimeoutError, TryRecvError};
pub use log::{LogConfig, LogRead, PartitionLog, RECORD_HEADER};
pub use one_sided::{OneSidedConfig, OneSidedFabric};
pub use policy::SendPolicy;
pub use ring_fabric::{RingConfig, RingFabric};
pub use memory::{MemoryRegionId, MemoryRegistry, RingFull, RingRegion, SlotAddr};
pub use topology::{ClusterSpec, LinkId, LinkLoad, LinkTracker, MachineId, RackId, TopologyConfig};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every settable field of the transport-side config structs,
    /// destructured with no `..`: adding a field fails to compile here.
    /// Before it goes in, it needs a row in DESIGN.md's "The settable
    /// surface" naming the two non-test callers that set it differently
    /// (or the timing- or fault-dependent failure a test needs it to
    /// reach); with one value in use it is a constant next to its reader.
    #[test]
    fn the_settable_surface_is_pinned() {
        let TopologyConfig {
            racks: _,
            rack_of_machine: _,
            topo_trees: _,
        } = TopologyConfig::default();
        let LogConfig {
            segment_bytes: _,
            max_segments: _,
        } = LogConfig::default();
        let RingConfig {
            ring_capacity: _,
            batch: BatchConfig { mms: _, wtl: _ },
        } = RingConfig::default();
        let OneSidedConfig { ring_slots: _ } = OneSidedConfig::default();
        let SendPolicy {
            spin: _,
            yields: _,
            deadline: _,
        } = SendPolicy::default();
    }
}
