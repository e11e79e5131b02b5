//! NIC transmit model: a serial wire clock per network interface.
//!
//! Outbound messages occupy the NIC for their wire time at the line rate;
//! concurrent sends queue behind each other. This is where bandwidth
//! saturation (1 Gbps Ethernet vs 56 Gbps InfiniBand) shows up in the
//! simulation.

use crate::cost::{CostModel, Transport};
use crate::metrics::MetricsRegistry;
use crate::resource::CoreClock;
use crate::time::{SimDuration, SimTime};

/// One machine's transmit path for one transport.
#[derive(Clone, Debug)]
pub struct Nic {
    transport: Transport,
    wire: CoreClock,
    sent_msgs: u64,
    sent_bytes: u64,
    busy: SimDuration,
}

impl Nic {
    /// A NIC of the given transport, idle at time zero.
    pub fn new(transport: Transport) -> Self {
        Nic {
            transport,
            wire: CoreClock::new(),
            sent_msgs: 0,
            sent_bytes: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// The transport this NIC serves.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Enqueue a `bytes`-sized message for transmission at `now` (after the
    /// sender's CPU is done). Returns `(depart, arrive)`: when the last bit
    /// leaves the wire and when it lands `rack_hops` away.
    pub fn transmit(
        &mut self,
        now: SimTime,
        bytes: usize,
        rack_hops: u32,
        cost: &CostModel,
    ) -> (SimTime, SimTime) {
        let wire_time = cost.wire_time(self.transport, bytes);
        let (_, depart) = self.wire.begin_work(now, wire_time);
        let arrive = depart + cost.net_latency(self.transport, rack_hops);
        self.sent_msgs += 1;
        self.sent_bytes += bytes as u64;
        self.busy += wire_time;
        (depart, arrive)
    }

    /// When the transmit queue drains.
    pub fn free_at(&self) -> SimTime {
        self.wire.free_at()
    }

    /// Messages transmitted.
    pub fn sent_msgs(&self) -> u64 {
        self.sent_msgs
    }

    /// Bytes transmitted.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Wire utilization over a window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Export transmit counters into `reg` under `prefix.*`; `window` is
    /// the observation span used for the utilization gauge.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str, window: SimDuration) {
        reg.set_counter(&format!("{prefix}.sent_msgs"), self.sent_msgs);
        reg.set_counter(&format!("{prefix}.sent_bytes"), self.sent_bytes);
        reg.set_gauge(&format!("{prefix}.utilization"), self.utilization(window));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_serialize_on_the_wire() {
        let cost = CostModel::default();
        let mut nic = Nic::new(Transport::Tcp);
        // Two 125 kB messages at 1 Gbps: 1 ms wire time each.
        let (d1, _) = nic.transmit(SimTime::ZERO, 125_000, 0, &cost);
        let (d2, _) = nic.transmit(SimTime::ZERO, 125_000, 0, &cost);
        assert_eq!(d1, SimTime::from_millis(1));
        assert_eq!(
            d2,
            SimTime::from_millis(2),
            "second message queues behind first"
        );
    }

    #[test]
    fn arrival_adds_latency() {
        let cost = CostModel::default();
        let mut nic = Nic::new(Transport::Rdma);
        let (depart, arrive) = nic.transmit(SimTime::ZERO, 1_000, 0, &cost);
        assert_eq!(arrive - depart, cost.net_latency(Transport::Rdma, 0));
        let (_, far) = nic.transmit(SimTime::ZERO, 1_000, 2, &cost);
        assert!(far > arrive);
    }

    #[test]
    fn idle_gap_not_accumulated() {
        let cost = CostModel::default();
        let mut nic = Nic::new(Transport::Rdma);
        nic.transmit(SimTime::ZERO, 1_000, 0, &cost);
        // Much later send starts immediately.
        let (depart, _) = nic.transmit(SimTime::from_secs(1), 1_000, 0, &cost);
        assert_eq!(
            depart,
            SimTime::from_secs(1) + cost.wire_time(Transport::Rdma, 1_000)
        );
    }

    #[test]
    fn counters_and_utilization() {
        let cost = CostModel::default();
        let mut nic = Nic::new(Transport::Tcp);
        nic.transmit(SimTime::ZERO, 125_000, 0, &cost); // 1 ms busy
        assert_eq!(nic.sent_msgs(), 1);
        assert_eq!(nic.sent_bytes(), 125_000);
        let u = nic.utilization(SimDuration::from_millis(10));
        assert!((u - 0.1).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn ib_much_faster_than_eth() {
        let cost = CostModel::default();
        let mut eth = Nic::new(Transport::Tcp);
        let mut ib = Nic::new(Transport::Rdma);
        let (d_eth, _) = eth.transmit(SimTime::ZERO, 1_000_000, 0, &cost);
        let (d_ib, _) = ib.transmit(SimTime::ZERO, 1_000_000, 0, &cost);
        assert!(d_eth.as_nanos() > 50 * d_ib.as_nanos());
    }
}
