//! # whale-core — the experiment engine
//!
//! Assembles the substrates into the five runnable systems of §5.1
//! (Storm, RDMA-based Storm, Whale-WOC, Whale-WOC-RDMA, full Whale) and
//! drives them through a cluster-scale discrete-event simulation that
//! measures everything the paper's figures report: throughput, processing
//! and multicast latency, CPU utilization and breakdowns, communication
//! time/traffic, queue dynamics, and dynamic-switching behaviour.

#![warn(missing_docs)]

pub mod engine;
pub mod latency;
pub mod modes;
pub mod sweep;

pub use engine::{run, AppProfile, Drive, EngineConfig, EngineReport};
pub use latency::{LatencyTracker, MulticastTracker};
pub use modes::SystemMode;
pub use sweep::{par_map, par_map_with, sweep_grid, SweepPoint};
