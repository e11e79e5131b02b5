//! Physical cluster topology: machines, racks, NIC placement, and
//! per-link load accounting.
//!
//! The paper's testbed is 30 machines (16 cores each), optionally
//! partitioned into 1–5 racks (Figs 33–34). Topology answers two questions
//! for the fabric: how many rack hops separate two machines, and which
//! machine hosts which worker. [`LinkTracker`] extends that static view
//! with live per-link gauges (queue depth, bytes in flight, delivered
//! bytes) so tree construction and the adaptive controller can see *which
//! link* is congested, not just which endpoint.

use crate::fabric::{EndpointId, IdHashMap};
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a physical machine in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a rack.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RackId(pub u32);

/// Static description of the simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    machines: u32,
    racks: u32,
    cores_per_machine: u32,
    /// Explicit machine → rack assignment for skewed placements; `None`
    /// keeps the round-robin default.
    rack_map: Option<Arc<[u32]>>,
}

impl ClusterSpec {
    /// The paper's testbed: 30 machines, 16 cores, one rack.
    pub fn paper_testbed() -> Self {
        ClusterSpec::new(30, 1, 16)
    }

    /// Build a cluster of `machines` machines spread round-robin over
    /// `racks` racks, each with `cores_per_machine` cores.
    pub fn new(machines: u32, racks: u32, cores_per_machine: u32) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(
            racks > 0 && racks <= machines,
            "racks must be in 1..=machines"
        );
        assert!(cores_per_machine > 0);
        ClusterSpec {
            machines,
            racks,
            cores_per_machine,
            rack_map: None,
        }
    }

    /// Build a cluster with an explicit (possibly skewed) machine → rack
    /// assignment: `rack_map[m]` is the rack of machine `m`. Every rack
    /// index must be `< racks`; racks may be empty (a skewed placement
    /// can pile every machine into one rack).
    pub fn with_rack_map(
        machines: u32,
        racks: u32,
        cores_per_machine: u32,
        rack_map: Vec<u32>,
    ) -> Self {
        let mut spec = ClusterSpec::new(machines, racks, cores_per_machine);
        assert_eq!(
            rack_map.len(),
            machines as usize,
            "rack_map needs one entry per machine"
        );
        assert!(
            rack_map.iter().all(|&r| r < racks),
            "rack_map entries must be < racks"
        );
        spec.rack_map = Some(rack_map.into());
        spec
    }

    /// Number of machines.
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// Number of racks.
    pub fn racks(&self) -> u32 {
        self.racks
    }

    /// Cores per machine.
    pub fn cores_per_machine(&self) -> u32 {
        self.cores_per_machine
    }

    /// The rack a machine belongs to: the explicit [`rack map`] when one
    /// was given, round-robin otherwise.
    ///
    /// [`rack map`]: ClusterSpec::with_rack_map
    pub fn rack_of(&self, m: MachineId) -> RackId {
        assert!(m.0 < self.machines, "machine {m} out of range");
        match &self.rack_map {
            Some(map) => RackId(map[m.0 as usize]),
            None => RackId(m.0 % self.racks),
        }
    }

    /// Number of rack hops between two machines: 0 within a rack,
    /// 1 across racks (single ToR-to-ToR hop in a leaf-spine fabric).
    pub fn rack_hops(&self, a: MachineId, b: MachineId) -> u32 {
        if a == b {
            return 0;
        }
        if self.rack_of(a) == self.rack_of(b) {
            0
        } else {
            1
        }
    }

    /// The single link a `from → to` transfer occupies in the modeled
    /// leaf-spine fabric: loopback on the same host, the rack's switch
    /// fabric within a rack, and the *sender's* rack uplink across racks
    /// (egress attribution — every send maps to exactly one link, so
    /// per-link byte sums always equal total wire bytes).
    pub fn link_between(&self, from: MachineId, to: MachineId) -> LinkId {
        if from == to {
            LinkId::Loopback(from)
        } else {
            let (fr, tr) = (self.rack_of(from), self.rack_of(to));
            if fr == tr {
                LinkId::IntraRack(fr)
            } else {
                LinkId::Uplink(fr)
            }
        }
    }
}

/// A physical link in the modeled leaf-spine fabric. Every transfer
/// occupies exactly one link (see [`ClusterSpec::link_between`]): the
/// oversubscribed resource the rack experiments contend on is the
/// per-rack uplink, so cross-rack transfers are charged to the sending
/// rack's uplink.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LinkId {
    /// Same-host delivery; never crosses the NIC.
    Loopback(MachineId),
    /// The rack-local (ToR) switch fabric of one rack.
    IntraRack(RackId),
    /// The rack's uplink toward the spine — the oversubscribed link.
    Uplink(RackId),
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkId::Loopback(m) => write!(f, "loopback({m})"),
            LinkId::IntraRack(r) => write!(f, "intra(r{})", r.0),
            LinkId::Uplink(r) => write!(f, "uplink(r{})", r.0),
        }
    }
}

/// One link's load snapshot: cumulative delivered traffic plus the live
/// occupancy gauges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkLoad {
    /// Which link.
    pub link: LinkId,
    /// Bytes delivered over the link so far.
    pub bytes: u64,
    /// Frames delivered over the link so far.
    pub frames: u64,
    /// Frames accepted for the link but not yet delivered (queue depth).
    pub queued_frames: u64,
    /// Bytes accepted for the link but not yet delivered (in flight).
    pub queued_bytes: u64,
}

/// Live per-link load accounting for one cluster.
///
/// Fabrics attribute each send to its link via the endpoint → machine
/// placement map ([`LinkTracker::map_endpoint`]); unmapped endpoints
/// (e.g. control-protocol endpoints outside the worker plane) stay
/// unattributed. `on_send` raises the link's queue gauges when a frame is
/// accepted, `on_delivered` moves it into the cumulative counters, and
/// `on_dropped` releases the gauges for frames that die in the queue —
/// so `queued_*` is real occupancy and `bytes` is real delivered wire
/// traffic, per link.
pub struct LinkTracker {
    spec: ClusterSpec,
    endpoints: RwLock<IdHashMap<EndpointId, MachineId>>,
    /// Flat per-link slots: loopback per machine, then intra per rack,
    /// then uplink per rack.
    bytes: Vec<AtomicU64>,
    frames: Vec<AtomicU64>,
    queued_frames: Vec<AtomicI64>,
    queued_bytes: Vec<AtomicI64>,
}

impl LinkTracker {
    /// New tracker over a cluster; all gauges zero, no endpoints mapped.
    pub fn new(spec: ClusterSpec) -> Self {
        let slots = (spec.machines() + 2 * spec.racks()) as usize;
        LinkTracker {
            spec,
            endpoints: RwLock::default(),
            bytes: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            frames: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            queued_frames: (0..slots).map(|_| AtomicI64::new(0)).collect(),
            queued_bytes: (0..slots).map(|_| AtomicI64::new(0)).collect(),
        }
    }

    /// The cluster this tracker accounts for.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Map a fabric endpoint onto the machine hosting it.
    pub fn map_endpoint(&self, ep: EndpointId, machine: MachineId) {
        assert!(machine.0 < self.spec.machines(), "machine out of range");
        self.endpoints.write().insert(ep, machine);
    }

    /// The link a `from → to` send occupies, if both endpoints are mapped.
    pub fn link_for(&self, from: EndpointId, to: EndpointId) -> Option<LinkId> {
        let map = self.endpoints.read();
        Some(self.spec.link_between(*map.get(&from)?, *map.get(&to)?))
    }

    fn slot(&self, link: LinkId) -> usize {
        let machines = self.spec.machines() as usize;
        let racks = self.spec.racks() as usize;
        match link {
            LinkId::Loopback(m) => m.0 as usize,
            LinkId::IntraRack(r) => machines + r.0 as usize,
            LinkId::Uplink(r) => machines + racks + r.0 as usize,
        }
    }

    fn link_of_slot(&self, i: usize) -> LinkId {
        let machines = self.spec.machines() as usize;
        let racks = self.spec.racks() as usize;
        if i < machines {
            LinkId::Loopback(MachineId(i as u32))
        } else if i < machines + racks {
            LinkId::IntraRack(RackId((i - machines) as u32))
        } else {
            LinkId::Uplink(RackId((i - machines - racks) as u32))
        }
    }

    /// A frame was accepted for the `from → to` link: raise its queue
    /// gauges. No-op for unmapped endpoints.
    pub fn on_send(&self, from: EndpointId, to: EndpointId, bytes: usize) {
        if let Some(link) = self.link_for(from, to) {
            let i = self.slot(link);
            self.queued_frames[i].fetch_add(1, Ordering::Relaxed);
            self.queued_bytes[i].fetch_add(bytes as i64, Ordering::Relaxed);
        }
    }

    /// A previously accepted frame reached its destination: release the
    /// queue gauges and count the delivered traffic.
    pub fn on_delivered(&self, from: EndpointId, to: EndpointId, bytes: usize) {
        if let Some(link) = self.link_for(from, to) {
            let i = self.slot(link);
            self.queued_frames[i].fetch_sub(1, Ordering::Relaxed);
            self.queued_bytes[i].fetch_sub(bytes as i64, Ordering::Relaxed);
            self.frames[i].fetch_add(1, Ordering::Relaxed);
            self.bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// A previously accepted frame died in the queue (dead destination,
    /// injected drop): release the gauges without counting delivery.
    pub fn on_dropped(&self, from: EndpointId, to: EndpointId, bytes: usize) {
        if let Some(link) = self.link_for(from, to) {
            let i = self.slot(link);
            self.queued_frames[i].fetch_sub(1, Ordering::Relaxed);
            self.queued_bytes[i].fetch_sub(bytes as i64, Ordering::Relaxed);
        }
    }

    /// Snapshot every link's load, in flat slot order (loopbacks, then
    /// intra-rack fabrics, then uplinks).
    pub fn snapshot(&self) -> Vec<LinkLoad> {
        (0..self.bytes.len())
            .map(|i| LinkLoad {
                link: self.link_of_slot(i),
                bytes: self.bytes[i].load(Ordering::Relaxed),
                frames: self.frames[i].load(Ordering::Relaxed),
                queued_frames: self.queued_frames[i].load(Ordering::Relaxed).max(0) as u64,
                queued_bytes: self.queued_bytes[i].load(Ordering::Relaxed).max(0) as u64,
            })
            .collect()
    }

    /// Bytes delivered across every link (loopback + intra + uplink) —
    /// equals the fabric's total delivered wire bytes when every worker
    /// endpoint is mapped.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Bytes delivered across rack uplinks only — the oversubscribed
    /// traffic the topo-aware tree minimizes.
    pub fn uplink_bytes(&self) -> u64 {
        let base = (self.spec.machines() + self.spec.racks()) as usize;
        self.bytes[base..]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Deepest uplink queue right now (frames accepted but undelivered).
    pub fn max_uplink_queue(&self) -> u64 {
        let base = (self.spec.machines() + self.spec.racks()) as usize;
        self.queued_frames[base..]
            .iter()
            .map(|q| q.load(Ordering::Relaxed).max(0) as u64)
            .max()
            .unwrap_or(0)
    }

    /// Uplinks whose queue depth is at or above `threshold`.
    pub fn hot_uplinks(&self, threshold: u64) -> u32 {
        if threshold == 0 {
            return 0;
        }
        let base = (self.spec.machines() + self.spec.racks()) as usize;
        self.queued_frames[base..]
            .iter()
            .filter(|q| q.load(Ordering::Relaxed).max(0) as u64 >= threshold)
            .count() as u32
    }

    /// Per-rack uplink load figure for the tree builder: queued bytes
    /// (live congestion) plus delivered bytes (history), per rack uplink.
    pub fn uplink_loads(&self) -> Vec<u64> {
        let base = (self.spec.machines() + self.spec.racks()) as usize;
        (0..self.spec.racks() as usize)
            .map(|r| {
                let i = base + r;
                self.bytes[i].load(Ordering::Relaxed)
                    + self.queued_bytes[i].load(Ordering::Relaxed).max(0) as u64
            })
            .collect()
    }
}

/// Topology description threaded through the live runtime's adaptive
/// config: how the worker machines split into racks and whether relay
/// epochs should be built topology-aware.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyConfig {
    /// Number of racks the worker machines split into.
    pub racks: u32,
    /// Explicit machine → rack assignment (skewed placement); `None`
    /// spreads machines round-robin.
    pub rack_of_machine: Option<Vec<u32>>,
    /// Build relay epochs with the rack-aware [`TopoTreeBuilder`]; when
    /// false the runtime keeps Whale's placement-oblivious trees but
    /// still accounts per-link load (the comparison baseline).
    ///
    /// [`TopoTreeBuilder`]: https://docs.rs/whale-multicast
    pub topo_trees: bool,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            racks: 1,
            rack_of_machine: None,
            topo_trees: true,
        }
    }
}

impl TopologyConfig {
    /// The [`ClusterSpec`] this topology describes for `machines` worker
    /// machines.
    pub fn cluster_spec(&self, machines: u32, cores_per_machine: u32) -> ClusterSpec {
        match &self.rack_of_machine {
            Some(map) => {
                ClusterSpec::with_rack_map(machines, self.racks, cores_per_machine, map.clone())
            }
            None => ClusterSpec::new(machines, self.racks, cores_per_machine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let c = ClusterSpec::paper_testbed();
        assert_eq!(c.machines(), 30);
        assert_eq!(c.racks(), 1);
        assert_eq!(c.cores_per_machine(), 16);
    }

    #[test]
    fn round_robin_rack_placement() {
        let c = ClusterSpec::new(10, 3, 4);
        assert_eq!(c.rack_of(MachineId(0)), RackId(0));
        assert_eq!(c.rack_of(MachineId(1)), RackId(1));
        assert_eq!(c.rack_of(MachineId(2)), RackId(2));
        assert_eq!(c.rack_of(MachineId(3)), RackId(0));
        assert_eq!(c.rack_of(MachineId(9)), RackId(0));
    }

    #[test]
    fn rack_hops_zero_within_rack() {
        let c = ClusterSpec::new(10, 2, 4);
        // 0 and 2 both land in rack 0.
        assert_eq!(c.rack_hops(MachineId(0), MachineId(2)), 0);
        assert_eq!(c.rack_hops(MachineId(0), MachineId(1)), 1);
        assert_eq!(c.rack_hops(MachineId(5), MachineId(5)), 0);
    }

    #[test]
    fn single_rack_never_hops() {
        let c = ClusterSpec::new(30, 1, 16);
        for a in (0..30).map(MachineId) {
            assert_eq!(c.rack_hops(a, MachineId(0)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "racks must be in 1..=machines")]
    fn too_many_racks_rejected() {
        let _ = ClusterSpec::new(2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rack_of_bounds_checked() {
        let c = ClusterSpec::new(2, 1, 1);
        let _ = c.rack_of(MachineId(7));
    }

    #[test]
    fn explicit_rack_map_overrides_round_robin() {
        let c = ClusterSpec::with_rack_map(5, 3, 1, vec![0, 0, 0, 1, 2]);
        assert_eq!(c.rack_of(MachineId(0)), RackId(0));
        assert_eq!(c.rack_of(MachineId(2)), RackId(0));
        assert_eq!(c.rack_of(MachineId(3)), RackId(1));
        assert_eq!(c.rack_of(MachineId(4)), RackId(2));
        assert_eq!(c.rack_hops(MachineId(0), MachineId(2)), 0);
        assert_eq!(c.rack_hops(MachineId(0), MachineId(3)), 1);
    }

    #[test]
    #[should_panic(expected = "one entry per machine")]
    fn rack_map_length_checked() {
        let _ = ClusterSpec::with_rack_map(3, 2, 1, vec![0, 1]);
    }

    #[test]
    fn link_between_classifies_all_three_links() {
        let c = ClusterSpec::with_rack_map(4, 2, 1, vec![0, 0, 1, 1]);
        assert_eq!(
            c.link_between(MachineId(1), MachineId(1)),
            LinkId::Loopback(MachineId(1))
        );
        assert_eq!(
            c.link_between(MachineId(0), MachineId(1)),
            LinkId::IntraRack(RackId(0))
        );
        // Egress attribution: the sender's rack uplink carries the frame.
        assert_eq!(
            c.link_between(MachineId(0), MachineId(3)),
            LinkId::Uplink(RackId(0))
        );
        assert_eq!(
            c.link_between(MachineId(3), MachineId(0)),
            LinkId::Uplink(RackId(1))
        );
    }

    fn mapped_tracker() -> LinkTracker {
        let spec = ClusterSpec::with_rack_map(4, 2, 1, vec![0, 0, 1, 1]);
        let t = LinkTracker::new(spec);
        for m in 0..4 {
            t.map_endpoint(EndpointId(m), MachineId(m));
        }
        t
    }

    #[test]
    fn tracker_attributes_each_send_to_exactly_one_link() {
        let t = mapped_tracker();
        t.on_send(EndpointId(0), EndpointId(1), 100); // intra r0
        t.on_send(EndpointId(0), EndpointId(2), 200); // uplink r0
        t.on_send(EndpointId(3), EndpointId(3), 50); // loopback m3
        assert_eq!(t.max_uplink_queue(), 1);
        t.on_delivered(EndpointId(0), EndpointId(1), 100);
        t.on_delivered(EndpointId(0), EndpointId(2), 200);
        t.on_delivered(EndpointId(3), EndpointId(3), 50);
        assert_eq!(t.total_bytes(), 350);
        assert_eq!(t.uplink_bytes(), 200);
        assert_eq!(t.max_uplink_queue(), 0);
        let loads: Vec<_> = t
            .snapshot()
            .into_iter()
            .filter(|l| l.bytes > 0)
            .map(|l| (l.link, l.bytes))
            .collect();
        assert_eq!(
            loads,
            vec![
                (LinkId::Loopback(MachineId(3)), 50),
                (LinkId::IntraRack(RackId(0)), 100),
                (LinkId::Uplink(RackId(0)), 200),
            ]
        );
    }

    #[test]
    fn tracker_drops_release_gauges_without_counting_delivery() {
        let t = mapped_tracker();
        t.on_send(EndpointId(0), EndpointId(2), 300);
        assert_eq!(t.max_uplink_queue(), 1);
        assert_eq!(t.hot_uplinks(1), 1);
        t.on_dropped(EndpointId(0), EndpointId(2), 300);
        assert_eq!(t.max_uplink_queue(), 0);
        assert_eq!(t.uplink_bytes(), 0);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn tracker_ignores_unmapped_endpoints() {
        let t = mapped_tracker();
        t.on_send(EndpointId(0), EndpointId(99), 100);
        t.on_delivered(EndpointId(0), EndpointId(99), 100);
        assert_eq!(t.total_bytes(), 0);
        assert!(t.link_for(EndpointId(99), EndpointId(0)).is_none());
    }

    #[test]
    fn uplink_loads_blend_history_and_occupancy() {
        let t = mapped_tracker();
        t.on_send(EndpointId(0), EndpointId(2), 100);
        t.on_delivered(EndpointId(0), EndpointId(2), 100);
        t.on_send(EndpointId(2), EndpointId(0), 40); // still queued on r1
        assert_eq!(t.uplink_loads(), vec![100, 40]);
    }

    #[test]
    fn topology_config_builds_the_cluster_spec() {
        let tc = TopologyConfig {
            racks: 2,
            rack_of_machine: Some(vec![0, 0, 0, 1]),
            ..TopologyConfig::default()
        };
        let spec = tc.cluster_spec(4, 1);
        assert_eq!(spec.racks(), 2);
        assert_eq!(spec.rack_of(MachineId(2)), RackId(0));
        assert_eq!(spec.rack_of(MachineId(3)), RackId(1));
        let rr = TopologyConfig {
            racks: 2,
            ..TopologyConfig::default()
        };
        assert_eq!(rr.cluster_spec(4, 1).rack_of(MachineId(3)), RackId(1));
    }
}
