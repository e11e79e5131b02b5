//! The on-demand ride-hailing application (Fig 4).
//!
//! Two source streams feed a matching operator: driver locations are
//! partitioned by **key grouping** on `driver_id`, while passenger
//! requests are **all-grouped** (broadcast) to every matching instance —
//! the one-to-many partitioning the paper is about. Each matching
//! instance joins a request against its locally stored driver locations
//! and emits its best local candidate; an aggregation operator picks the
//! overall closest driver per order.

mod driver_index;

use crate::{owned_field, Field, NO_DEFERRED_DECODE};
use driver_index::DriverIndex;
use whale_dsps::{
    Bolt, DecodeError, Emitter, Grouping, IdHashMap, LazyTuple, Operators, Schema, Spout, Topology,
    TopologyBuilder, Tuple, Value,
};
use whale_workloads::{DidiConfig, DidiGenerator};

/// Stream tag values distinguishing the two inputs of the matching bolt.
const TAG_LOCATION: i64 = 0;
const TAG_REQUEST: i64 = 1;

/// Unified input schema for the matching operator:
/// `(tag, key, lat, lng, ts)` where `key` is `driver_id` or `order_id`.
pub fn event_schema() -> Schema {
    Schema::new(vec!["tag", "key", "lat", "lng", "ts"])
}

/// Output of matching: `(order_id, driver_id, distance)`.
pub fn candidate_schema() -> Schema {
    Schema::new(vec!["order_id", "driver_id", "distance"])
}

/// Build the ride-hailing topology:
/// `locations --Fields(key)--> matching <--All-- requests`,
/// `matching --Fields(order)--> aggregation`.
pub fn topology(matching_parallelism: u32) -> Topology {
    let mut b = TopologyBuilder::new();
    b.spout("locations", 1, event_schema())
        .spout("requests", 1, event_schema())
        .bolt("matching", matching_parallelism, candidate_schema())
        .bolt("aggregation", 1, candidate_schema())
        .connect("locations", "matching", Grouping::Fields(1))
        .connect("requests", "matching", Grouping::All)
        .connect("matching", "aggregation", Grouping::Fields(0));
    b.build().expect("ride-hailing topology is valid")
}

/// Squared-degree distance between two points (monotone in true distance,
/// cheap, and all we need to rank candidates).
fn dist2(a_lat: f64, a_lng: f64, b_lat: f64, b_lng: f64) -> f64 {
    let dl = a_lat - b_lat;
    let dg = a_lng - b_lng;
    dl * dl + dg * dg
}

/// Spout emitting driver location events from the Didi generator.
pub struct LocationSpout {
    gen: DidiGenerator,
    remaining: u64,
    next_id: u64,
}

impl LocationSpout {
    /// Emit `count` locations from the seeded generator.
    pub fn new(seed: u64, config: DidiConfig, count: u64) -> Self {
        LocationSpout {
            gen: DidiGenerator::new(seed, config),
            remaining: count,
            next_id: 1,
        }
    }
}

impl Spout for LocationSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let l = self.gen.next_location();
        let id = self.next_id;
        self.next_id += 1;
        Some(Tuple::with_id(
            id,
            vec![
                Value::I64(TAG_LOCATION),
                Value::I64(l.driver_id as i64),
                Value::F64(l.lat),
                Value::F64(l.lng),
                Value::I64(l.ts),
            ],
        ))
    }
}

/// Spout emitting passenger requests from the Didi generator.
pub struct RequestSpout {
    gen: DidiGenerator,
    remaining: u64,
    next_id: u64,
}

impl RequestSpout {
    /// Emit `count` requests from the seeded generator.
    pub fn new(seed: u64, config: DidiConfig, count: u64) -> Self {
        RequestSpout {
            gen: DidiGenerator::new(seed, config),
            remaining: count,
            next_id: 1_000_000_000, // disjoint tuple-id space from locations
        }
    }
}

impl Spout for RequestSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let o = self.gen.next_order();
        let id = self.next_id;
        self.next_id += 1;
        Some(Tuple::with_id(
            id,
            vec![
                Value::I64(TAG_REQUEST),
                Value::I64(o.order_id as i64),
                Value::F64(o.lat),
                Value::F64(o.lng),
                Value::I64(o.ts),
            ],
        ))
    }
}

/// The matching bolt: stores driver locations, joins requests against
/// them, and emits the best local candidate per request.
#[derive(Default)]
pub struct MatchingBolt {
    drivers: DriverIndex,
}

impl MatchingBolt {
    /// New empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_event<'a>(
        &mut self,
        id: u64,
        field: impl Fn(usize) -> Field<'a>,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        let tag = field(0)?.and_then(|v| v.as_i64()).expect("tag field");
        let key = field(1)?.and_then(|v| v.as_i64()).expect("key field");
        let lat = field(2)?.and_then(|v| v.as_f64()).expect("lat field");
        let lng = field(3)?.and_then(|v| v.as_f64()).expect("lng field");
        match tag {
            TAG_LOCATION => self.drivers.update(key, lat, lng),
            TAG_REQUEST => {
                // Best locally-known driver for this request.
                if let Some((driver, d2)) = self.drivers.nearest(lat, lng) {
                    out.emit(Tuple::with_id(
                        id,
                        vec![Value::I64(key), Value::I64(driver), Value::F64(d2)],
                    ));
                }
            }
            other => panic!("unknown event tag {other}"),
        }
        Ok(())
    }
}

impl Bolt for MatchingBolt {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        self.on_event(input.id, |i| owned_field(input, i), out)
            .expect(NO_DEFERRED_DECODE)
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        // `LazyTuple::field` reads a wire handle's block in place, and an
        // owned one's tuple.
        self.on_event(input.id(), |i| input.field(i).transpose(), out)
    }
}

/// The aggregation bolt: keeps the closest candidate per order and emits
/// final assignments on stream end.
#[derive(Default)]
pub struct AggregationBolt {
    /// Order ids are numbered by the topology's own request spout, so
    /// there is no crafted-collision attack for SipHash to stop.
    best: IdHashMap<i64, (i64, f64)>,
}

impl AggregationBolt {
    /// New empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_candidate<'a>(&mut self, field: impl Fn(usize) -> Field<'a>) -> Result<(), DecodeError> {
        let order = field(0)?.and_then(|v| v.as_i64()).expect("order field");
        let driver = field(1)?.and_then(|v| v.as_i64()).expect("driver field");
        let d2 = field(2)?.and_then(|v| v.as_f64()).expect("distance field");
        // Equal distances go to the lower driver id, as in `DriverIndex`:
        // the assignment is a function of the candidate set, not of which
        // worker's frame arrived first.
        let best = self.best.entry(order).or_insert((driver, d2));
        if !(best.1 < d2 || (best.1 == d2 && best.0 <= driver)) {
            *best = (driver, d2);
        }
        Ok(())
    }
}

impl Bolt for AggregationBolt {
    fn execute(&mut self, input: &Tuple, _out: &mut dyn Emitter) {
        self.on_candidate(|i| owned_field(input, i))
            .expect(NO_DEFERRED_DECODE)
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        _out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        self.on_candidate(|i| input.field(i).transpose())
    }

    fn finish(&mut self, out: &mut dyn Emitter) {
        let mut orders: Vec<_> = self.best.iter().collect();
        orders.sort_by_key(|(&o, _)| o);
        for (&order, &(driver, d2)) in orders {
            out.emit(Tuple::new(vec![
                Value::I64(order),
                Value::I64(driver),
                Value::F64(d2),
            ]));
        }
    }
}

/// Operator factories for the live runtime.
///
/// `locations`/`requests` control stream lengths; generators are seeded so
/// runs are reproducible.
pub fn operators(seed: u64, config: DidiConfig, locations: u64, requests: u64) -> Operators {
    Operators::new()
        .spout("locations", move |task_idx| {
            Box::new(LocationSpout::new(
                seed + task_idx as u64,
                config,
                locations,
            ))
        })
        .spout("requests", move |task_idx| {
            Box::new(RequestSpout::new(
                seed + 5_000 + task_idx as u64,
                config,
                requests,
            ))
        })
        .bolt("matching", |_| Box::new(MatchingBolt::new()))
        .bolt("aggregation", |_| Box::new(AggregationBolt::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::assert_lazy_equals_eager;
    use whale_dsps::VecEmitter;

    fn loc(driver: i64, lat: f64, lng: f64) -> Tuple {
        Tuple::new(vec![
            Value::I64(TAG_LOCATION),
            Value::I64(driver),
            Value::F64(lat),
            Value::F64(lng),
            Value::I64(0),
        ])
    }

    fn req(order: i64, lat: f64, lng: f64) -> Tuple {
        Tuple::with_id(
            order as u64,
            vec![
                Value::I64(TAG_REQUEST),
                Value::I64(order),
                Value::F64(lat),
                Value::F64(lng),
                Value::I64(0),
            ],
        )
    }

    #[test]
    fn topology_shape() {
        let t = topology(16);
        assert_eq!(t.tasks_of("matching").len(), 16);
        let matching = t.component("matching").unwrap().id;
        let ups = t.upstream_edges(matching);
        assert_eq!(ups.len(), 2);
        assert!(ups.iter().any(|e| e.grouping == Grouping::All));
        assert!(ups.iter().any(|e| e.grouping == Grouping::Fields(1)));
    }

    #[test]
    fn matching_joins_request_to_nearest_driver() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&loc(1, 39.9, 116.3), &mut out);
        m.execute(&loc(2, 40.1, 116.7), &mut out);
        assert!(out.emitted.is_empty(), "locations emit nothing");
        m.execute(&req(500, 39.91, 116.31), &mut out);
        assert_eq!(out.emitted.len(), 1);
        let cand = &out.emitted[0];
        assert_eq!(cand.get(0).unwrap().as_i64(), Some(500));
        assert_eq!(cand.get(1).unwrap().as_i64(), Some(1), "driver 1 is closer");
    }

    #[test]
    fn matching_with_no_drivers_emits_nothing() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&req(1, 39.9, 116.3), &mut out);
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn location_updates_overwrite() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&loc(1, 39.6, 116.0), &mut out);
        m.execute(&loc(1, 40.2, 116.8), &mut out); // driver moved far away
        m.execute(&loc(2, 39.9, 116.3), &mut out);
        m.execute(&req(7, 39.9, 116.3), &mut out);
        assert_eq!(out.emitted[0].get(1).unwrap().as_i64(), Some(2));
    }

    #[test]
    fn non_finite_coordinates_neither_panic_nor_match() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&loc(1, 39.9, 116.3), &mut out);
        m.execute(&loc(1, f64::NAN, 116.3), &mut out); // driver 1 stays put
        m.execute(&loc(2, 39.9, f64::INFINITY), &mut out); // driver 2 is not stored
        m.execute(&req(7, f64::NAN, 116.3), &mut out); // nowhere: no candidate
        assert!(out.emitted.is_empty());
        m.execute(&req(8, 39.9, 116.3), &mut out);
        assert_eq!(out.emitted.len(), 1, "the instance still answers");
        assert_eq!(out.emitted[0].get(1).unwrap().as_i64(), Some(1));
        assert_eq!(out.emitted[0].get(2).unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn lazy_and_eager_entry_points_agree() {
        // Enough drivers for the grid, requests interleaved with moves.
        let mut gen = DidiGenerator::new(
            3,
            DidiConfig {
                drivers: 150,
                ..DidiConfig::default()
            },
        );
        let events: Vec<Tuple> = (0..600)
            .map(|i| match i % 3 {
                0 => {
                    let o = gen.next_order();
                    req(o.order_id as i64, o.lat, o.lng)
                }
                _ => {
                    let l = gen.next_location();
                    loc(l.driver_id as i64, l.lat, l.lng)
                }
            })
            .collect();
        let candidates = assert_lazy_equals_eager(MatchingBolt::new, &events);
        assert!(
            candidates.len() > 190,
            "all but the first requests find a driver"
        );
        // Three instances' worth of candidates per order.
        let candidates: Vec<Tuple> = (0..3).flat_map(|_| candidates.iter().cloned()).collect();
        let assigned = assert_lazy_equals_eager(AggregationBolt::new, &candidates);
        assert!(!assigned.is_empty());
    }

    #[test]
    fn aggregation_is_a_function_of_the_candidate_set() {
        // Drivers 31 and 17 are equally near: whichever worker's frame
        // arrives first, the order goes to 17.
        let cands = [(40, 0.5), (31, 0.25), (17, 0.25), (8, 0.75)];
        let n = cands.len();
        // Every arrival order: the n! index sequences without a repeat.
        let orders = (0..n.pow(n as u32))
            .map(|code| {
                (0..n)
                    .map(|k| code / n.pow(k as u32) % n)
                    .collect::<Vec<_>>()
            })
            .filter(|order| (0..n).all(|i| order.contains(&i)));
        let mut seen = 0;
        for order in orders {
            let mut a = AggregationBolt::new();
            let mut out = VecEmitter::default();
            for &i in &order {
                let (driver, d2) = cands[i];
                let t = Tuple::new(vec![Value::I64(1), Value::I64(driver), Value::F64(d2)]);
                a.execute(&t, &mut out);
            }
            a.finish(&mut out);
            assert_eq!(out.emitted.len(), 1);
            assert_eq!(
                out.emitted[0].get(1).unwrap().as_i64(),
                Some(17),
                "{order:?}"
            );
            seen += 1;
        }
        assert_eq!(seen, 24);
    }

    #[test]
    fn aggregation_keeps_minimum() {
        let mut a = AggregationBolt::new();
        let mut out = VecEmitter::default();
        let cand = |order: i64, driver: i64, d: f64| {
            Tuple::new(vec![Value::I64(order), Value::I64(driver), Value::F64(d)])
        };
        a.execute(&cand(1, 10, 0.5), &mut out);
        a.execute(&cand(1, 11, 0.2), &mut out);
        a.execute(&cand(1, 12, 0.9), &mut out);
        a.execute(&cand(2, 20, 0.1), &mut out);
        a.finish(&mut out);
        assert_eq!(out.emitted.len(), 2);
        assert_eq!(out.emitted[0].get(1).unwrap().as_i64(), Some(11));
        assert_eq!(out.emitted[1].get(1).unwrap().as_i64(), Some(20));
    }

    #[test]
    fn spouts_emit_requested_counts() {
        let mut s = LocationSpout::new(1, DidiConfig::default(), 5);
        let mut n = 0;
        while s.next_tuple().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        let mut s = RequestSpout::new(1, DidiConfig::default(), 3);
        let first = s.next_tuple().unwrap();
        assert_eq!(first.get(0).unwrap().as_i64(), Some(TAG_REQUEST));
        assert_eq!(first.arity(), event_schema().arity());
    }

    #[test]
    fn end_to_end_live_run() {
        // Full pipeline on the live runtime: every request must reach all
        // matching instances and produce exactly one aggregated match.
        let t = topology(8);
        let ops = operators(11, DidiConfig::default(), 200, 50);
        let report = whale_dsps::run_topology(
            t,
            ops,
            whale_dsps::LiveConfig {
                machines: 4,
                comm_mode: whale_dsps::CommMode::WorkerOriented,
                zero_copy: true,
                multicast_d_star: None,
                fabric: whale_dsps::FabricKind::PerSend,
                ..whale_dsps::LiveConfig::default()
            },
        );
        // matching executes 200 locations (key-grouped once each) +
        // 50 requests × 8 instances.
        assert_eq!(report.executed[2], 200 + 50 * 8);
        // A request produces one candidate per instance that already
        // holds a driver when it arrives. The two spouts step
        // concurrently, so early requests can reach an instance before
        // its first location does: the candidate count is bounded, not
        // exact.
        assert!(report.executed[3] > 0 && report.executed[3] <= 50 * 8);
        // Both bolts read their fields off the wire view.
        assert_eq!(report.tuples_materialized, 0);
    }
}
