//! # whale-dsps — a Storm-like distributed stream processing substrate
//!
//! Whale is a modification of Apache Storm's messaging layer, so the
//! reproduction needs the Storm it modifies. This crate provides it from
//! scratch: typed tuples and schemas, a hand-written wire codec with the
//! two message formats of Fig 9 (instance-oriented `InstanceMessage` vs
//! worker-oriented `WorkerMessage`/`BatchTuple`), topology building with
//! shuffle/fields/all groupings, Storm-style task allocation and even
//! scheduling onto workers and machines, communication planning with
//! serialization/traffic accounting, Storm's XOR acker, and a live
//! multi-threaded runtime that executes topologies end-to-end over the
//! in-process fabric.

#![warn(missing_docs)]

pub mod acker;
pub mod codec;
pub mod grouping;
pub mod messaging;
pub mod operator;
pub mod pool;
pub mod runtime;
pub mod scheduler;
pub mod task;
pub mod topology;
pub mod tuple;

pub use acker::{Acker, TreeState};
pub use codec::{
    AddressedTuple, DecodeError, InstanceMessage, InstanceMessageView, LazyTuple, RelayHeader,
    TupleView, ValueView, WireSpare, WorkerMessage, WorkerMessageView,
};
pub use grouping::{hash_value, hash_value_view, GroupingExec, RouteError};
pub use messaging::{plan, CommMode, Envelope, MessagePlan};
pub use operator::{
    Bolt, BoltFactory, Emitter, FnBolt, IterSpout, LazyFnBolt, Spout, SpoutFactory, VecEmitter,
};
pub use pool::{BufferPool, PoolConfig, PooledBuf};
pub use runtime::{
    run_topology, spawn_topology, AckConfig, AdaptiveConfig, BuildError, LiveConfig, Operators,
    RunHandle, RunOutcome, RunReport,
};
pub use whale_net::{FabricKind, IdHashMap, LogConfig, RingConfig};
pub use scheduler::{Placement, WorkerId};
pub use task::{ComponentId, TaskId, TaskTable};
pub use topology::{
    Component, ComponentKind, Edge, Grouping, Topology, TopologyBuilder, TopologyError,
};
pub use tuple::{Schema, Tuple, Value};
