//! Synthetic Didi-style ride-hailing workload.
//!
//! Stand-in for the proprietary GAIA dataset (13 B trajectory records,
//! 6 M drivers, 74 M passenger requests). The generator reproduces the
//! properties the experiments depend on — record schema, key cardinality,
//! hot-spot skew, and tuple sizes — from a seed, so every run sees the
//! same stream.

use whale_dsps::{Schema, Tuple, Value};
use whale_sim::{SimRng, Zipf};

/// GAIA-scale constants (scaled generators use a fraction of these).
pub mod scale {
    /// Distinct drivers in the full dataset.
    pub const PAPER_DRIVERS: u64 = 6_000_000;
    /// Trajectory records in the full dataset.
    pub const PAPER_TRAJECTORIES: u64 = 13_000_000_000;
}

/// A driver location update (the key-grouped stream).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DriverLocation {
    /// Driver key.
    pub driver_id: u64,
    /// Latitude in the city bounding box.
    pub lat: f64,
    /// Longitude in the city bounding box.
    pub lng: f64,
    /// Event timestamp (ms).
    pub ts: i64,
}

/// A passenger request (the all-grouped / broadcast stream).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OrderRequest {
    /// Order key.
    pub order_id: u64,
    /// Pickup latitude.
    pub lat: f64,
    /// Pickup longitude.
    pub lng: f64,
    /// Event timestamp (ms).
    pub ts: i64,
}

/// Beijing-like bounding box used by the generator.
const LAT_MIN: f64 = 39.6;
const LAT_MAX: f64 = 40.2;
const LNG_MIN: f64 = 116.0;
const LNG_MAX: f64 = 116.8;
/// Hot-spot grid resolution per axis.
const GRID: u64 = 64;

/// Configuration of the generator.
#[derive(Clone, Copy, Debug)]
pub struct DidiConfig {
    /// Number of distinct drivers.
    pub drivers: u64,
    /// Zipf exponent of the spatial hot-spot distribution.
    pub hotspot_skew: f64,
    /// Milliseconds between consecutive records of the stream clock.
    pub tick_ms: i64,
}

impl Default for DidiConfig {
    fn default() -> Self {
        DidiConfig {
            drivers: 60_000, // 1% of the paper's cardinality: laptop scale
            hotspot_skew: 0.9,
            tick_ms: 1,
        }
    }
}

/// Deterministic generator of the two ride-hailing streams.
#[derive(Clone, Debug)]
pub struct DidiGenerator {
    config: DidiConfig,
    rng: SimRng,
    cells: Zipf,
    now_ms: i64,
    next_order_id: u64,
    locations_emitted: u64,
    orders_emitted: u64,
}

impl DidiGenerator {
    /// Create with a seed.
    pub fn new(seed: u64, config: DidiConfig) -> Self {
        let mut rng = SimRng::new(seed);
        let cells = Zipf::new(GRID * GRID, config.hotspot_skew);
        let _ = rng.next_u64();
        DidiGenerator {
            config,
            rng,
            cells,
            now_ms: 0,
            next_order_id: 0,
            locations_emitted: 0,
            orders_emitted: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> DidiConfig {
        self.config
    }

    fn point_in_hot_cell(&mut self) -> (f64, f64) {
        let cell = self.cells.sample(&mut self.rng);
        let cx = (cell % GRID) as f64;
        let cy = (cell / GRID) as f64;
        let jitter_x = self.rng.next_f64();
        let jitter_y = self.rng.next_f64();
        let lat = LAT_MIN + (LAT_MAX - LAT_MIN) * ((cy + jitter_y) / GRID as f64);
        let lng = LNG_MIN + (LNG_MAX - LNG_MIN) * ((cx + jitter_x) / GRID as f64);
        (lat, lng)
    }

    /// Next driver location record.
    pub fn next_location(&mut self) -> DriverLocation {
        self.now_ms += self.config.tick_ms;
        let (lat, lng) = self.point_in_hot_cell();
        let rec = DriverLocation {
            driver_id: self.rng.gen_range(self.config.drivers),
            lat,
            lng,
            ts: self.now_ms,
        };
        self.locations_emitted += 1;
        rec
    }

    /// Next passenger request record.
    pub fn next_order(&mut self) -> OrderRequest {
        self.now_ms += self.config.tick_ms;
        let (lat, lng) = self.point_in_hot_cell();
        let rec = OrderRequest {
            order_id: {
                self.next_order_id += 1;
                self.next_order_id
            },
            lat,
            lng,
            ts: self.now_ms,
        };
        self.orders_emitted += 1;
        rec
    }

    /// Location records produced so far.
    pub fn locations_emitted(&self) -> u64 {
        self.locations_emitted
    }

    /// Orders produced so far.
    pub fn orders_emitted(&self) -> u64 {
        self.orders_emitted
    }
}

/// Schema of the location stream.
pub fn location_schema() -> Schema {
    Schema::new(vec!["driver_id", "lat", "lng", "ts"])
}

/// Schema of the request stream.
pub fn order_schema() -> Schema {
    Schema::new(vec!["order_id", "lat", "lng", "ts"])
}

impl DriverLocation {
    /// Convert to a tuple (field order matches [`location_schema`]).
    pub fn to_tuple(&self, id: u64) -> Tuple {
        Tuple::with_id(
            id,
            vec![
                Value::I64(self.driver_id as i64),
                Value::F64(self.lat),
                Value::F64(self.lng),
                Value::I64(self.ts),
            ],
        )
    }
}

impl OrderRequest {
    /// Convert to a tuple (field order matches [`order_schema`]).
    pub fn to_tuple(&self, id: u64) -> Tuple {
        Tuple::with_id(
            id,
            vec![
                Value::I64(self.order_id as i64),
                Value::F64(self.lat),
                Value::F64(self.lng),
                Value::I64(self.ts),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = DidiGenerator::new(7, DidiConfig::default());
        let mut b = DidiGenerator::new(7, DidiConfig::default());
        for _ in 0..100 {
            assert_eq!(a.next_location(), b.next_location());
            assert_eq!(a.next_order(), b.next_order());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DidiGenerator::new(1, DidiConfig::default());
        let mut b = DidiGenerator::new(2, DidiConfig::default());
        let same = (0..50)
            .filter(|_| a.next_location() == b.next_location())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn coordinates_in_bounding_box() {
        let mut g = DidiGenerator::new(3, DidiConfig::default());
        for _ in 0..1_000 {
            let l = g.next_location();
            assert!((LAT_MIN..=LAT_MAX).contains(&l.lat));
            assert!((LNG_MIN..=LNG_MAX).contains(&l.lng));
        }
    }

    #[test]
    fn driver_ids_bounded_and_diverse() {
        let cfg = DidiConfig {
            drivers: 1_000,
            ..Default::default()
        };
        let mut g = DidiGenerator::new(4, cfg);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let l = g.next_location();
            assert!(l.driver_id < 1_000);
            seen.insert(l.driver_id);
        }
        assert!(seen.len() > 900, "most drivers should appear");
    }

    #[test]
    fn order_ids_unique_and_monotone() {
        let mut g = DidiGenerator::new(5, DidiConfig::default());
        let ids: Vec<u64> = (0..100).map(|_| g.next_order().order_id).collect();
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn timestamps_advance() {
        let mut g = DidiGenerator::new(6, DidiConfig::default());
        let a = g.next_location().ts;
        let b = g.next_order().ts;
        let c = g.next_location().ts;
        assert!(a < b && b < c);
    }

    #[test]
    fn hotspots_are_skewed() {
        let mut g = DidiGenerator::new(8, DidiConfig::default());
        // Bucket requests into the grid; the top cell must far exceed the
        // median cell.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let o = g.next_order();
            let cx = ((o.lng - LNG_MIN) / (LNG_MAX - LNG_MIN) * GRID as f64) as u64;
            let cy = ((o.lat - LAT_MIN) / (LAT_MAX - LAT_MIN) * GRID as f64) as u64;
            *counts
                .entry((cx.min(GRID - 1), cy.min(GRID - 1)))
                .or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap();
        let mean = 20_000.0 / counts.len() as f64;
        assert!(max as f64 > 10.0 * mean, "max={max} mean={mean}");
    }

    #[test]
    fn tuple_conversion_shapes() {
        let mut g = DidiGenerator::new(9, DidiConfig::default());
        let t = g.next_location().to_tuple(42);
        assert_eq!(t.id, 42);
        assert_eq!(t.arity(), location_schema().arity());
        let t = g.next_order().to_tuple(43);
        assert_eq!(t.arity(), order_schema().arity());
        // Evaluation tuples are ~40-60 B of payload.
        assert!(t.payload_bytes() > 30 && t.payload_bytes() < 100);
    }

    #[test]
    fn emission_counters() {
        let mut g = DidiGenerator::new(10, DidiConfig::default());
        for _ in 0..3 {
            g.next_location();
        }
        g.next_order();
        assert_eq!(g.locations_emitted(), 3);
        assert_eq!(g.orders_emitted(), 1);
    }
}
