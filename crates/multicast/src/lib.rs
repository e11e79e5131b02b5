//! # whale-multicast — the paper's core contribution
//!
//! Everything in §3: the non-blocking multicast tree (Algorithm 1) next to
//! its baselines (RDMC's binomial tree, Storm's sequential star), the
//! M/D/1-derived maximum out-degree `d*`, the multicast-capability
//! analysis `L(t)` with a relay-schedule simulator verified against the
//! paper's Fig 6 walkthrough, the queue-watching workload monitor, the
//! negative-scale-down / active-scale-up self-adjusting controller
//! (§3.3), the §3.4 switch planner that turns a new `d*` into a list of
//! [`ControlMessage`] moves, and a Gleam-style topology-aware tree
//! builder that keeps subtrees intra-rack and routes rack entries over
//! the coolest uplinks. The switch itself runs in `whale-dsps`' live
//! runtime, and `whale-core`'s DES prices it from the plan's move count.

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod capability;
pub mod controller;
pub mod monitor;
pub mod switching;
pub mod topo;
pub mod tree;

pub use analysis::{affordable_rate_ratio, compare, recommend, StructureAnalysis};
pub use builder::{
    binomial_source_degree, build_binomial, build_nonblocking, build_sequential, Structure,
};
pub use capability::{capability, completion_time, RelaySim, TupleSchedule};
pub use controller::{AdjustController, ControllerConfig, Decision};
pub use monitor::{LinkPressure, MonitorReport, WorkloadMonitor};
pub use switching::{plan_scale_down, plan_scale_up, plan_switch, ControlMessage, SwitchPlan};
pub use topo::{tree_cost, TopoTreeBuilder, TreeCost};
pub use tree::{MulticastTree, Node, TreeError};
