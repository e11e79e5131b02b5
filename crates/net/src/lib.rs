//! # whale-net — RDMA/TCP fabric emulation
//!
//! Stand-in for the Mellanox InfiniBand FDR + DiSNI verbs stack the paper
//! runs on. Provides: the cluster topology (machines/racks), a verbs-style
//! API (queue pairs, work requests, completion queues, one-sided/two-sided
//! verbs with per-verb costs), registered memory with the ring memory
//! region multiplexing of §4, the MMS/WTL stream-slicing batcher, a NIC
//! transmit model for the discrete-event simulation, and a live in-process
//! fabric that preserves the copy-vs-zero-copy semantics for the runnable
//! examples.

#![warn(missing_docs)]

pub mod batch;
pub mod channel;
pub mod core;
pub mod fabric;
pub mod fault;
pub mod log;
pub mod memory;
pub mod nic;
pub mod one_sided;
pub mod policy;
pub mod ring_fabric;
pub mod topology;
pub mod verbs;

pub use batch::{Batch, BatchConfig, Batcher, FlushReason};
pub use channel::{ChannelMsg, Departure, PushResult, RdmaChannel};
pub use crate::core::{
    spawn_drain, DrainThread, FabricInstance, FabricKind, LiveFabric, Transport,
};
pub use fabric::{
    EndpointId, FabricPath, FabricStats, IdHashMap, IdHashSet, IdHasher, LiveMessage, Payload,
    RegisterError, SendError,
};
pub use fault::{EndpointCrash, EndpointRestart, FaultFabric, FaultPlan, LinkFaults, Partition};
pub use log::{LogConfig, LogRead, PartitionLog, RECORD_HEADER};
pub use one_sided::{OneSidedConfig, OneSidedFabric};
pub use policy::SendPolicy;
pub use ring_fabric::{RingConfig, RingFabric};
pub use memory::{MemoryRegionId, MemoryRegistry, RingFull, RingRegion, SlotAddr};
pub use nic::Nic;
pub use topology::{ClusterSpec, LinkId, LinkLoad, LinkTracker, MachineId, RackId, TopologyConfig};
pub use verbs::{
    Completion, CompletionQueue, PostCosts, QpId, QueuePair, VerbPolicy, WcStatus, WorkRequest,
    WrId,
};
