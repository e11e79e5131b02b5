//! # whale — a from-scratch Rust reproduction of *Whale: Efficient
//! One-to-Many Data Partitioning in RDMA-Assisted Distributed Stream
//! Processing Systems* (SC '21)
//!
//! The paper's contribution is a pair of techniques that remove the
//! upstream CPU bottleneck of one-to-many (all-grouping) stream
//! partitioning:
//!
//! 1. an **RDMA-assisted stream multicast** over a *self-adjusting
//!    non-blocking tree* whose maximum out-degree `d*` is derived from an
//!    M/D/1 model of the source's transfer queue, and
//! 2. **worker-oriented communication**, replacing Storm's
//!    instance-oriented messaging: one serialization and one message per
//!    destination *worker* instead of per destination *instance*.
//!
//! This crate re-exports the whole system:
//!
//! - [`sim`]: deterministic discrete-event substrate, calibrated cost
//!   model, the DES NIC model and the per-message-class verb choice
//! - [`net`]: the live in-process fabric (per-send, batched ring and
//!   one-sided transports, ring memory region, MMS/WTL batching, partition
//!   log, cluster topology), which moves frames and counts them
//! - [`dsps`]: the Storm-like substrate (tuples, codec, topologies,
//!   groupings, scheduler, live multi-threaded runtime)
//! - [`multicast`]: the core contribution (Algorithm 1, baselines,
//!   capability analysis, controller, dynamic switching)
//! - [`workloads`]: synthetic Didi/NASDAQ generators + rate plans
//! - [`apps`]: the two evaluation applications
//! - [`core`]: the experiment engine running the five systems of §5.1
//!
//! ## Quickstart
//!
//! ```
//! use whale::core::{run, EngineConfig, SystemMode};
//!
//! // Compare Storm vs Whale at parallelism 480 on the simulated
//! // 30-node cluster.
//! let storm = run(EngineConfig::paper(SystemMode::Storm, 480, 20));
//! let whale = run(EngineConfig::paper(SystemMode::WhaleFull, 480, 20));
//! assert!(whale.throughput > 10.0 * storm.throughput);
//! ```

/// The commonly used items in one import: `use whale::prelude::*;`.
pub mod prelude {
    pub use whale_core::{
        run, sweep_grid, AppProfile, Drive, EngineConfig, EngineReport, SystemMode,
    };
    pub use whale_dsps::{
        run_topology, Bolt, CommMode, Emitter, FabricKind, Grouping, LiveConfig, Operators,
        RunOutcome, Schema, Spout, Topology, TopologyBuilder, Tuple, Value,
    };
    pub use whale_multicast::{
        build_binomial, build_nonblocking, build_sequential, recommend, MulticastTree, Node,
        Structure,
    };
    pub use whale_sim::{CostModel, SimDuration, SimTime};
    pub use whale_workloads::{DidiConfig, NasdaqConfig, RatePlan};
}

pub use whale_apps as apps;
pub use whale_core as core;
pub use whale_dsps as dsps;
pub use whale_multicast as multicast;
pub use whale_net as net;
pub use whale_sim as sim;
pub use whale_workloads as workloads;
