//! The dynamic-switching protocol (§3.4) driven over a live fabric.
//!
//! [`crate::protocol`] specifies the coordinator/agent state machines as
//! pure message handlers; this module puts them on the wire. It defines a
//! compact frame codec for [`ProtocolMsg`] (control traffic travels as
//! two-sided sends under DiffVerbs — the ring region cannot predict
//! control-message addresses, §4) and [`run_switch_over_fabric`], which
//! executes one complete switch over any [`FabricPath`] transport: the
//! coordinator thread multicasts the status + control outbox, one agent
//! thread per destination applies messages to its tree replica and ACKs,
//! the coordinator measures `T_switch` from the ACK stream, ships deferred
//! `NewStructure` notifications, and finally verifies that every replica
//! converged to the planned tree.
//!
//! The driver is transport-agnostic: run it over [`whale_net::LiveFabric`]
//! for synchronous per-send delivery or over [`whale_net::RingFabric`] for
//! the batched ring path — the converged trees are identical, only the
//! delivery schedule differs.

use crate::protocol::{AckOutcome, CoordinatorState, InstanceAgent, ProtocolMsg, SwitchCoordinator};
use crate::switching::{ControlMessage, StatusMessage};
use crate::tree::{MulticastTree, Node};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use whale_sim::{MetricsRegistry, SimDuration, SimTime};
use whale_net::{EndpointId, FabricPath, RegisterError, SendError, SendPolicy};

/// Frame tags of the wire codec.
const TAG_STATUS: u8 = 1;
const TAG_CONTROL: u8 = 2;
const TAG_NEW_STRUCTURE: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_ACK_STRUCTURE: u8 = 5;

/// Errors from decoding a protocol frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The frame ended before the advertised fields.
    Truncated,
    /// Unknown frame tag byte.
    UnknownTag(u8),
    /// Bytes left over after the last field.
    TrailingBytes,
    /// A field held a value the frame's own header rules out (a
    /// destination index ≥ `n`, a duplicate edge, a bad enum byte).
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after frame"),
            CodecError::Malformed => write!(f, "frame field out of range"),
        }
    }
}

impl std::error::Error for CodecError {}

/// `Node` on the wire: 0 is the source, `i + 1` is `Dest(i)`.
fn encode_node(n: Node) -> u32 {
    match n {
        Node::Source => 0,
        Node::Dest(i) => i + 1,
    }
}

fn decode_node(raw: u32) -> Node {
    if raw == 0 {
        Node::Source
    } else {
        Node::Dest(raw - 1)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let (&b, rest) = self.buf.split_first().ok_or(CodecError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        if self.buf.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Encode a protocol message into a self-contained little-endian frame.
pub fn encode_msg(msg: &ProtocolMsg) -> Vec<u8> {
    match msg {
        ProtocolMsg::Status(s) => {
            let dir = match s {
                StatusMessage::NegativeScaleDown => 0u8,
                StatusMessage::ActiveScaleUp => 1u8,
            };
            vec![TAG_STATUS, dir]
        }
        ProtocolMsg::Control(m) => {
            let mut out = Vec::with_capacity(14);
            out.push(TAG_CONTROL);
            out.extend_from_slice(&encode_node(m.node).to_le_bytes());
            out.push(m.disconnect_from.is_some() as u8);
            let disc = m.disconnect_from.map_or(0, encode_node);
            out.extend_from_slice(&disc.to_le_bytes());
            out.extend_from_slice(&encode_node(m.connect_to).to_le_bytes());
            out
        }
        ProtocolMsg::NewStructure(tree) => {
            // Edges in per-parent attachment order; replaying them through
            // ordered `attach` calls reproduces the relay schedule exactly.
            let mut edges = Vec::new();
            let nodes =
                std::iter::once(Node::Source).chain((0..tree.n()).map(Node::Dest));
            for parent in nodes {
                for &child in tree.children(parent) {
                    let Node::Dest(c) = child else { continue };
                    edges.push((encode_node(parent), c));
                }
            }
            let mut out = Vec::with_capacity(9 + edges.len() * 8);
            out.push(TAG_NEW_STRUCTURE);
            out.extend_from_slice(&tree.n().to_le_bytes());
            out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for (p, c) in edges {
                out.extend_from_slice(&p.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            out
        }
        ProtocolMsg::Ack { from } => {
            let mut out = Vec::with_capacity(5);
            out.push(TAG_ACK);
            out.extend_from_slice(&encode_node(*from).to_le_bytes());
            out
        }
        ProtocolMsg::AckStructure { from } => {
            let mut out = Vec::with_capacity(5);
            out.push(TAG_ACK_STRUCTURE);
            out.extend_from_slice(&encode_node(*from).to_le_bytes());
            out
        }
    }
}

/// Decode a frame produced by [`encode_msg`].
pub fn decode_msg(bytes: &[u8]) -> Result<ProtocolMsg, CodecError> {
    let mut r = Reader { buf: bytes };
    let msg = match r.u8()? {
        TAG_STATUS => ProtocolMsg::Status(match r.u8()? {
            0 => StatusMessage::NegativeScaleDown,
            1 => StatusMessage::ActiveScaleUp,
            _ => return Err(CodecError::Malformed),
        }),
        TAG_CONTROL => {
            let node = decode_node(r.u32()?);
            let has_disconnect = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Malformed),
            };
            let disc_raw = r.u32()?;
            let connect_to = decode_node(r.u32()?);
            ProtocolMsg::Control(ControlMessage {
                node,
                disconnect_from: has_disconnect.then(|| decode_node(disc_raw)),
                connect_to,
            })
        }
        TAG_NEW_STRUCTURE => {
            let n = r.u32()?;
            let edge_count = r.u32()?;
            let mut tree = MulticastTree::empty(n);
            for _ in 0..edge_count {
                let parent = decode_node(r.u32()?);
                let child = r.u32()?;
                if child >= n || tree.parent(child).is_some() || parent == Node::Dest(child) {
                    return Err(CodecError::Malformed);
                }
                if let Node::Dest(p) = parent {
                    if p >= n {
                        return Err(CodecError::Malformed);
                    }
                }
                tree.attach(parent, child);
            }
            ProtocolMsg::NewStructure(tree)
        }
        TAG_ACK => ProtocolMsg::Ack {
            from: decode_node(r.u32()?),
        },
        TAG_ACK_STRUCTURE => ProtocolMsg::AckStructure {
            from: decode_node(r.u32()?),
        },
        t => return Err(CodecError::UnknownTag(t)),
    };
    r.done()?;
    Ok(msg)
}

/// Errors from [`run_switch_over_fabric`].
#[derive(Debug)]
pub enum DriverError {
    /// An endpoint id the driver needs is already taken on this fabric.
    Register(RegisterError),
    /// A send failed terminally (backpressure is retried, not reported).
    Send(SendError),
    /// A received frame did not decode.
    Codec(CodecError),
    /// The coordinator received a non-ACK frame.
    UnexpectedMessage,
    /// No ACK arrived within the collection timeout.
    AckTimeout,
    /// An agent thread panicked.
    AgentPanicked(Node),
    /// An agent's replica did not converge to the planned tree.
    ReplicaDiverged(Node),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Register(e) => write!(f, "endpoint registration failed: {e}"),
            DriverError::Send(e) => write!(f, "protocol send failed: {e}"),
            DriverError::Codec(e) => write!(f, "protocol frame corrupt: {e}"),
            DriverError::UnexpectedMessage => write!(f, "coordinator received a non-ACK frame"),
            DriverError::AckTimeout => write!(f, "timed out waiting for switch ACKs"),
            DriverError::AgentPanicked(n) => write!(f, "agent thread for {n} panicked"),
            DriverError::ReplicaDiverged(n) => write!(f, "replica at {n} diverged from plan"),
        }
    }
}

impl std::error::Error for DriverError {}

/// What one fabric-driven switch produced.
#[derive(Clone, Debug)]
pub struct SwitchDriverReport {
    /// The structure every replica converged to.
    pub new_tree: MulticastTree,
    /// Measured switching delay (ACK-clocked, 10 µs per distinct ACK).
    pub t_switch: SimDuration,
    /// Edges changed by the plan.
    pub moves: usize,
    /// Protocol frames the coordinator sent (status, control, deferred
    /// and shutdown, plus any ACK-timeout re-send rounds on lossy
    /// transports).
    pub frames_sent: u64,
    /// Distinct frames the coordinator serialized. Fan-out repeats a
    /// frame to many destinations, so this is ≤ `frames_sent`: the
    /// status broadcast is encoded once for all agents, each control
    /// move once for every party it touches, and the deferred
    /// `NewStructure` once for all uninvolved instances.
    pub frames_encoded: u64,
    /// ACK frames the coordinator received.
    pub acks_received: u64,
    /// Coordinator metrics under `multicast.switch.*` (pending ACKs,
    /// moves, `t_switch_secs`) plus driver frame counters.
    pub metrics: MetricsRegistry,
}

/// The coordinator's endpoint in a switch round; agent `i` lives at
/// `EndpointId(i + 1)`.
const COORDINATOR: EndpointId = EndpointId(0);

fn agent_endpoint(i: u32) -> EndpointId {
    EndpointId(i + 1)
}

/// Backpressure retries performed by the driver's bounded sends (shared
/// across switches; purely informational).
static DRIVER_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Send one frame, waiting out ring backpressure under the default
/// [`SendPolicy`]. A `Full` that never clears within the policy deadline
/// is a terminal [`DriverError::Send`] — the driver cannot livelock on a
/// reader that stopped reading.
fn push(
    fabric: &dyn FabricPath,
    from: EndpointId,
    to: EndpointId,
    bytes: &[u8],
) -> Result<(), DriverError> {
    SendPolicy::default()
        .run(&DRIVER_RETRIES, || fabric.send_copied(from, to, bytes))
        .map_err(DriverError::Send)
}

/// Send one already-encoded frame by reference, with the same bounded
/// backoff as [`push`]. Retries clone the `Arc`, never the bytes.
fn push_shared(
    fabric: &dyn FabricPath,
    from: EndpointId,
    to: EndpointId,
    frame: &Arc<[u8]>,
) -> Result<(), DriverError> {
    SendPolicy::default()
        .run(&DRIVER_RETRIES, || {
            fabric.send_shared(from, to, Arc::clone(frame))
        })
        .map_err(DriverError::Send)
}

/// Serialize-once fan-out cache. The coordinator's send schedule repeats
/// each frame to consecutive destinations (status broadcast to every
/// agent, a control move to all parties it touches, the deferred
/// structure to every uninvolved instance); caching the last encoded
/// frame turns those N sends into one serialization shared N ways.
struct FrameCache {
    last: Option<(ProtocolMsg, Arc<[u8]>)>,
    encoded: u64,
}

impl FrameCache {
    fn new() -> Self {
        FrameCache { last: None, encoded: 0 }
    }

    fn frame(&mut self, msg: &ProtocolMsg) -> Arc<[u8]> {
        if let Some((cached, frame)) = &self.last {
            if cached == msg {
                return Arc::clone(frame);
            }
        }
        let frame: Arc<[u8]> = encode_msg(msg).into();
        self.encoded += 1;
        self.last = Some((msg.clone(), Arc::clone(&frame)));
        frame
    }
}

/// Execute one complete switch of `tree` to maximum out-degree `new_d`
/// over `fabric`, with real coordinator/agent threads exchanging encoded
/// frames. Endpoints `0..=n` on the fabric must be free; they are
/// registered on entry and deregistered before returning.
///
/// The ACK clock is virtual — each *distinct* pending ACK "arrives" 10 µs
/// after the previous one (duplicates don't advance it) — so `t_switch`
/// is deterministic across transports and runs.
pub fn run_switch_over_fabric(
    fabric: Arc<dyn FabricPath>,
    tree: &MulticastTree,
    new_d: u32,
) -> Result<SwitchDriverReport, DriverError> {
    let n = tree.n();
    let coord_rx = fabric
        .register(COORDINATOR)
        .map_err(DriverError::Register)?;
    let mut agent_rx = Vec::with_capacity(n as usize);
    for i in 0..n {
        match fabric.register(agent_endpoint(i)) {
            Ok(rx) => agent_rx.push(rx),
            Err(e) => {
                fabric.deregister(COORDINATOR);
                for j in 0..i {
                    fabric.deregister(agent_endpoint(j));
                }
                return Err(DriverError::Register(e));
            }
        }
    }

    // Agent threads: decode frames, apply them to the replica, ACK when
    // owed; an empty frame is the shutdown signal. Each returns its final
    // replica for convergence checking.
    let mut handles = Vec::with_capacity(n as usize);
    for (i, rx) in agent_rx.into_iter().enumerate() {
        let fabric = Arc::clone(&fabric);
        let replica = tree.clone();
        handles.push(std::thread::spawn(move || -> Result<MulticastTree, DriverError> {
            let me = Node::Dest(i as u32);
            let mut agent = InstanceAgent::new(me, replica);
            while let Ok(msg) = rx.recv() {
                if msg.payload.is_empty() {
                    break;
                }
                let decoded = decode_msg(msg.payload.bytes()).map_err(DriverError::Codec)?;
                if let Some(ack) = agent.on_message(decoded) {
                    push(
                        fabric.as_ref(),
                        agent_endpoint(i as u32),
                        COORDINATOR,
                        &encode_msg(&ack),
                    )?;
                }
            }
            Ok(agent.replica().clone())
        }));
    }

    let run = || -> Result<(SwitchCoordinator, SimDuration, u64, u64, u64), DriverError> {
        let (mut coord, outbox) = SwitchCoordinator::start(SimTime::ZERO, tree, new_d);
        let mut frames_sent = 0u64;
        let mut cache = FrameCache::new();
        let mut send_to = |node: Node, msg: &ProtocolMsg| -> Result<(), DriverError> {
            let Node::Dest(i) = node else { return Ok(()) };
            frames_sent += 1;
            let frame = cache.frame(msg);
            push_shared(fabric.as_ref(), COORDINATOR, agent_endpoint(i), &frame)
        };
        for (dst, msg) in &outbox {
            send_to(*dst, msg)?;
        }
        fabric.flush();

        // Phase 3: collect ACKs on the virtual clock until the session
        // completes. A no-op plan is born complete and owes none. Lost
        // control frames or lost ACKs are tolerated: if no ACK lands
        // within the retry interval, the announcement outbox is re-sent
        // wholesale (agents apply control messages idempotently and
        // always re-ACK; the coordinator ignores duplicate ACKs), up to
        // a bounded number of rounds before giving up with `AckTimeout`.
        const ACK_RETRY_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);
        const MAX_RESEND_ROUNDS: u32 = 8;
        let mut resend_rounds = 0u32;
        let mut now = SimTime::ZERO;
        let mut t_switch = SimDuration::ZERO;
        let mut acks_received = 0u64;
        while coord.state() == CoordinatorState::AwaitingAcks {
            let msg = match coord_rx.recv_timeout(ACK_RETRY_INTERVAL) {
                Ok(m) => m,
                Err(_) => {
                    resend_rounds += 1;
                    if resend_rounds > MAX_RESEND_ROUNDS {
                        return Err(DriverError::AckTimeout);
                    }
                    for (dst, msg) in &outbox {
                        send_to(*dst, msg)?;
                    }
                    fabric.flush();
                    continue;
                }
            };
            let ProtocolMsg::Ack { from } =
                decode_msg(msg.payload.bytes()).map_err(DriverError::Codec)?
            else {
                return Err(DriverError::UnexpectedMessage);
            };
            acks_received += 1;
            // Advance the clock only for ACKs the session was waiting on:
            // agents ACK every control delivery, so duplicates arrive in a
            // thread-interleaving-dependent order — counting them would
            // make `t_switch` differ run to run.
            let tentative = now + SimDuration::from_micros(10);
            match coord.on_ack(from, tentative) {
                AckOutcome::Ignored => {}
                AckOutcome::Pending => now = tentative,
                AckOutcome::Completed { t_switch: t } => {
                    now = tentative;
                    t_switch = t;
                }
            }
        }

        // Phase 4: deferred full-structure updates. Agents confirm these
        // with a dedicated `AckStructure` (a late duplicate control ACK
        // must not pass for one), so a lossy transport gets the same
        // bounded re-send treatment: each instance is re-notified until
        // its confirmation lands. The broadcast also reconciles replicas
        // whose per-move control frames were partially lost — a node
        // owing several controls ACKs after the first, so control ACKs
        // alone cannot prove full application.
        let deferred = coord.deferred_notifications();
        let mut awaiting: std::collections::HashSet<Node> =
            deferred.iter().map(|&(dst, _)| dst).collect();
        for (dst, msg) in &deferred {
            send_to(*dst, msg)?;
        }
        fabric.flush();
        let mut deferred_rounds = 0u32;
        while !awaiting.is_empty() {
            match coord_rx.recv_timeout(ACK_RETRY_INTERVAL) {
                Ok(msg) => {
                    match decode_msg(msg.payload.bytes()).map_err(DriverError::Codec)? {
                        ProtocolMsg::AckStructure { from } => {
                            acks_received += 1;
                            awaiting.remove(&from);
                        }
                        // A duplicated control ACK from phase 3 may still
                        // be in flight; it confirms nothing here.
                        ProtocolMsg::Ack { .. } => acks_received += 1,
                        _ => return Err(DriverError::UnexpectedMessage),
                    }
                }
                Err(_) => {
                    deferred_rounds += 1;
                    if deferred_rounds > MAX_RESEND_ROUNDS {
                        return Err(DriverError::AckTimeout);
                    }
                    for (dst, msg) in &deferred {
                        if awaiting.contains(dst) {
                            send_to(*dst, msg)?;
                        }
                    }
                    fabric.flush();
                }
            }
        }

        // Phase 5: shutdown frames (one shared empty frame per agent).
        let shutdown: Arc<[u8]> = Vec::new().into();
        for i in 0..n {
            frames_sent += 1;
            push_shared(fabric.as_ref(), COORDINATOR, agent_endpoint(i), &shutdown)?;
        }
        fabric.flush();
        Ok((coord, t_switch, frames_sent, cache.encoded, acks_received))
    };
    let result = run();
    if result.is_err() {
        // Best-effort shutdown frames so agents unblock before the join
        // below (the success path sent them inside `run`).
        for i in 0..n {
            let _ = fabric.send_copied(COORDINATOR, agent_endpoint(i), &[]);
        }
        fabric.flush();
    }

    // Deregister the agent endpoints before joining: closing each inbox
    // unblocks its agent even if a lossy transport swallowed the shutdown
    // frame (frames already queued are still drained first).
    for i in 0..n {
        fabric.deregister(agent_endpoint(i));
    }
    // Join every agent before reporting any failure — a poisoned run must
    // not leak threads.
    let mut replicas = Vec::with_capacity(n as usize);
    let mut panicked = None;
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(r) => replicas.push((Node::Dest(i as u32), r)),
            Err(_) => panicked = Some(Node::Dest(i as u32)),
        }
    }
    fabric.deregister(COORDINATOR);
    let (coord, t_switch, frames_sent, frames_encoded, acks_received) = result?;
    if let Some(node) = panicked {
        return Err(DriverError::AgentPanicked(node));
    }

    for (node, replica) in replicas {
        let replica = replica?;
        if &replica != coord.new_tree() {
            return Err(DriverError::ReplicaDiverged(node));
        }
    }

    let mut metrics = MetricsRegistry::new();
    coord.export_metrics(&mut metrics, "multicast.switch");
    metrics.set_counter("multicast.switch.frames_sent", frames_sent);
    metrics.set_counter("multicast.switch.frames_encoded", frames_encoded);
    metrics.set_counter("multicast.switch.acks_received", acks_received);
    Ok(SwitchDriverReport {
        new_tree: coord.new_tree().clone(),
        t_switch,
        moves: coord.plan().moves.len(),
        frames_sent,
        frames_encoded,
        acks_received,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_nonblocking, build_sequential};
    use whale_net::LiveFabric;

    fn roundtrip(msg: ProtocolMsg) {
        let bytes = encode_msg(&msg);
        assert_eq!(decode_msg(&bytes).unwrap(), msg, "frame: {bytes:?}");
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        roundtrip(ProtocolMsg::Status(StatusMessage::NegativeScaleDown));
        roundtrip(ProtocolMsg::Status(StatusMessage::ActiveScaleUp));
        roundtrip(ProtocolMsg::Control(ControlMessage {
            node: Node::Dest(7),
            disconnect_from: Some(Node::Source),
            connect_to: Node::Dest(3),
        }));
        roundtrip(ProtocolMsg::Control(ControlMessage {
            node: Node::Dest(0),
            disconnect_from: None,
            connect_to: Node::Source,
        }));
        roundtrip(ProtocolMsg::Ack { from: Node::Dest(12) });
        roundtrip(ProtocolMsg::AckStructure { from: Node::Dest(4) });
        roundtrip(ProtocolMsg::NewStructure(build_nonblocking(17, 3)));
        roundtrip(ProtocolMsg::NewStructure(build_sequential(6)));
        roundtrip(ProtocolMsg::NewStructure(MulticastTree::empty(4)));
    }

    #[test]
    fn codec_preserves_relay_order() {
        // Children order is the relay schedule; a codec that sorted edges
        // would silently change completion times.
        let mut tree = MulticastTree::empty(4);
        tree.attach(Node::Source, 2);
        tree.attach(Node::Source, 0);
        tree.attach(Node::Dest(2), 3);
        tree.attach(Node::Dest(2), 1);
        let ProtocolMsg::NewStructure(decoded) =
            decode_msg(&encode_msg(&ProtocolMsg::NewStructure(tree.clone()))).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.children(Node::Source), tree.children(Node::Source));
        assert_eq!(
            decoded.children(Node::Dest(2)),
            tree.children(Node::Dest(2))
        );
    }

    #[test]
    fn codec_rejects_malformed_frames() {
        assert_eq!(decode_msg(&[]), Err(CodecError::Truncated));
        assert_eq!(decode_msg(&[99]), Err(CodecError::UnknownTag(99)));
        assert_eq!(decode_msg(&[TAG_STATUS, 7]), Err(CodecError::Malformed));
        assert_eq!(decode_msg(&[TAG_ACK, 1, 0]), Err(CodecError::Truncated));
        let mut ok = encode_msg(&ProtocolMsg::Ack { from: Node::Dest(0) });
        ok.push(0);
        assert_eq!(decode_msg(&ok), Err(CodecError::TrailingBytes));
        // NewStructure with a child index out of range.
        let mut bad = vec![TAG_NEW_STRUCTURE];
        bad.extend_from_slice(&2u32.to_le_bytes()); // n = 2
        bad.extend_from_slice(&1u32.to_le_bytes()); // one edge
        bad.extend_from_slice(&0u32.to_le_bytes()); // parent = Source
        bad.extend_from_slice(&5u32.to_le_bytes()); // child 5 >= n
        assert_eq!(decode_msg(&bad), Err(CodecError::Malformed));
    }

    #[test]
    fn driver_converges_over_live_fabric() {
        let tree = build_nonblocking(12, 4);
        let fabric: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
        let report = run_switch_over_fabric(Arc::clone(&fabric), &tree, 2).unwrap();
        report.new_tree.validate(2).unwrap();
        assert!(report.t_switch > SimDuration::ZERO);
        assert!(report.moves > 0);
        assert_eq!(
            report.metrics.counter("multicast.switch.moves"),
            Some(report.moves as u64)
        );
        assert_eq!(report.metrics.gauge("multicast.switch.pending_acks"), Some(0.0));
        assert!(report.metrics.gauge("multicast.switch.t_switch_secs").unwrap() > 0.0);
        // Serialize-once fan-out: the status broadcast alone repeats one
        // frame to all 12 agents, so far fewer frames are encoded than
        // sent (shutdown frames are shared too and encode nothing).
        assert!(report.frames_encoded > 0);
        assert!(
            report.frames_encoded + 12 <= report.frames_sent,
            "encoded {} of {} sent frames",
            report.frames_encoded,
            report.frames_sent
        );
        assert_eq!(
            report.metrics.counter("multicast.switch.frames_encoded"),
            Some(report.frames_encoded)
        );
        // Endpoints released: the driver can run again on the same fabric.
        let again = run_switch_over_fabric(fabric, &report.new_tree, 4).unwrap();
        again.new_tree.validate(4).unwrap();
    }

    #[test]
    fn driver_converges_over_one_sided_fabric() {
        // Remote-fetch transport: frames sit in per-link outboxes until the
        // agent's own receive pulls them, so the protocol must converge
        // without any synchronous delivery guarantee.
        let tree = build_nonblocking(12, 4);
        let fabric = whale_net::FabricKind::OneSided(whale_net::OneSidedConfig::default()).build();
        let report = run_switch_over_fabric(Arc::clone(&fabric), &tree, 2).unwrap();
        report.new_tree.validate(2).unwrap();
        assert!(report.t_switch > SimDuration::ZERO);
        assert!(report.moves > 0);
        assert_eq!(report.metrics.gauge("multicast.switch.pending_acks"), Some(0.0));
        // The shared status broadcast stays serialize-once on this path too.
        assert!(report.frames_encoded + 12 <= report.frames_sent);
        // Endpoints released: the driver can run again on the same fabric.
        let again = run_switch_over_fabric(fabric, &report.new_tree, 4).unwrap();
        again.new_tree.validate(4).unwrap();
    }

    #[test]
    fn noop_switch_completes_without_acks() {
        let tree = build_nonblocking(8, 3);
        let fabric: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
        let report = run_switch_over_fabric(Arc::clone(&fabric), &tree, 3).unwrap();
        assert_eq!(report.moves, 0);
        // No control ACKs, but every agent still confirms the final
        // structure broadcast.
        assert_eq!(report.acks_received, 8);
        assert_eq!(&report.new_tree, &tree);
    }

    #[test]
    fn driver_tolerates_lost_and_duplicated_protocol_frames() {
        // A quarter of all frames are dropped and another quarter
        // duplicated — control messages, ACKs, and even the shutdown
        // frames. The coordinator's re-send rounds, the agents'
        // idempotent handlers, and the coordinator-side duplicate-ACK
        // dedup must still converge every replica.
        let tree = build_nonblocking(10, 4);
        let inner: Arc<dyn FabricPath> = Arc::new(LiveFabric::new());
        let plan = whale_net::FaultPlan {
            seed: 42,
            default_link: whale_net::LinkFaults {
                drop: 0.25,
                duplicate: 0.25,
                ..whale_net::LinkFaults::default()
            },
            ..whale_net::FaultPlan::default()
        };
        let fault = Arc::new(whale_net::FaultFabric::new(inner, plan));
        let fabric: Arc<dyn FabricPath> = Arc::clone(&fault) as Arc<dyn FabricPath>;
        let report = run_switch_over_fabric(fabric, &tree, 2).unwrap();
        report.new_tree.validate(2).unwrap();
        assert!(report.moves > 0);
        assert!(fault.drops() > 0, "the plan must actually drop frames");
        // Lost ACKs surface as extra coordinator receives or re-sends,
        // never as divergence.
        assert!(report.acks_received >= report.moves as u64);
    }

    #[test]
    fn occupied_endpoint_is_a_register_error() {
        let tree = build_sequential(4);
        let fabric = Arc::new(LiveFabric::new());
        let _held = fabric.register(EndpointId(2)).unwrap();
        let dyn_fabric: Arc<dyn FabricPath> = Arc::clone(&fabric) as Arc<dyn FabricPath>;
        let err = run_switch_over_fabric(dyn_fabric, &tree, 2).unwrap_err();
        assert!(matches!(err, DriverError::Register(_)), "got {err:?}");
        // The failed attempt must not leave partial registrations behind.
        assert_eq!(fabric.stats().endpoints, 1);
    }
}
