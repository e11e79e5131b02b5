//! # whale-sim — deterministic discrete-event simulation substrate
//!
//! The Whale paper evaluates on a 30-node InfiniBand cluster; this crate is
//! the laptop-scale stand-in. It provides a nanosecond-resolution virtual
//! clock, a cancellable future-event list, a `World`/`Scheduler` engine,
//! seeded RNG with the distributions the workloads need, bounded queues
//! with the occupancy statistics the paper's self-adjusting controller is
//! defined over, per-category CPU accounting (for the Fig 2 breakdowns),
//! the NIC transmit model and the per-message-class verb choice
//! ([`VerbPolicy`]), measurement instruments, and the single calibrated
//! [`cost::CostModel`] every simulated cost comes from.
//!
//! Everything is deterministic: the same seed yields the same event trace.

#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod nic;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use cost::{CostModel, Transport, Verb, VerbPolicy};
pub use engine::{Engine, Scheduler, SimWorld, StopReason};
pub use event::{EventId, EventQueue};
pub use metrics::{
    Counter, Histogram, JsonValue, MetricValue, MetricsRegistry, RateMeter, Summary, TimeSeries,
};
pub use nic::Nic;
pub use queue::{BoundedQueue, PushOutcome};
pub use resource::{CoreClock, CpuAccount, CpuCategory};
pub use rng::{SimRng, Zipf};
pub use stats::{Ewma, Running};
pub use time::{SimDuration, SimTime};
