//! Criterion microbenchmarks of the ride-hailing matching operator: what
//! a request and a location update cost against 256 / 4 096 / 65 536
//! stored drivers, through the public `MatchingBolt::execute` (the
//! driver index is private), beside the full `HashMap` scan it replaced.
//! Points come from `DidiGenerator` at its default hot-spot skew and,
//! for contrast, uniformly from the same box.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use whale_apps::ride_hailing::{LocationSpout, MatchingBolt, RequestSpout};
use whale_dsps::{Bolt, Emitter, Spout, Tuple, Value};
use whale_sim::SimRng;
use whale_workloads::{DidiConfig, DidiGenerator};

/// Requests and updates cycled through by one measurement.
const PROBES: usize = 1_024;

/// Swallows candidates (the operator still builds them).
struct Sink;

impl Emitter for Sink {
    fn emit(&mut self, tuple: Tuple) {
        black_box(tuple);
    }
}

/// `n` points: Didi's skewed hot spots, or uniform over the same box.
fn points(didi: bool, n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut gen = DidiGenerator::new(seed, DidiConfig::default());
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| match didi {
            true => {
                let l = gen.next_location();
                (l.lat, l.lng)
            }
            false => (39.6 + 0.6 * rng.next_f64(), 116.0 + 0.8 * rng.next_f64()),
        })
        .collect()
}

/// Event tuples `(tag, key, lat, lng, ts)` with keys `0..`, the tag
/// taken from what the application's own spout emits.
fn events(mut spout: impl Spout, at: &[(f64, f64)]) -> Vec<Tuple> {
    let tag = spout
        .next_tuple()
        .expect("one tuple")
        .get(0)
        .expect("tag")
        .clone();
    at.iter()
        .enumerate()
        .map(|(key, &(lat, lng))| {
            let fields = [
                Value::I64(key as i64),
                Value::F64(lat),
                Value::F64(lng),
                Value::I64(0),
            ];
            Tuple::with_id(
                key as u64,
                std::iter::once(tag.clone()).chain(fields).collect(),
            )
        })
        .collect()
}

fn locations(at: &[(f64, f64)]) -> Vec<Tuple> {
    events(LocationSpout::new(1, DidiConfig::default(), 1), at)
}

fn requests(at: &[(f64, f64)]) -> Vec<Tuple> {
    events(RequestSpout::new(1, DidiConfig::default(), 1), at)
}

/// 1, 2, …, `len − 1`, 0, 1, …: the probe each iteration takes.
fn cycle(len: usize) -> impl FnMut() -> usize {
    let mut i = 0;
    move || {
        i = (i + 1) % len;
        i
    }
}

/// The operator before the index: every request walks the whole table.
/// (Ties followed iteration order; `min_by` panicked on a NaN.)
fn hashmap_scan(drivers: &HashMap<i64, (f64, f64)>, lat: f64, lng: f64) -> Option<(i64, f64)> {
    drivers
        .iter()
        .map(|(&d, &(dlat, dlng))| (d, (lat - dlat) * (lat - dlat) + (lng - dlng) * (lng - dlng)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
}

fn bench_matching(c: &mut Criterion) {
    let mut c = c.benchmark_group("apps_matching");
    // A request against the index is a few hundred ns: the default
    // window would be a few ms of a shared host.
    c.sample_size(200);
    for (shape, didi) in [("didi", true), ("uniform", false)] {
        for n in [256usize, 4_096, 65_536] {
            let stored = points(didi, n, 7);
            let mut bolt = MatchingBolt::new();
            for t in &locations(&stored) {
                bolt.execute(t, &mut Sink);
            }
            let table: HashMap<i64, (f64, f64)> = stored
                .iter()
                .enumerate()
                .map(|(i, &p)| (i as i64, p))
                .collect();

            let pickups = points(didi, PROBES, 8);
            let probes = requests(&pickups);
            let mut next = cycle(PROBES);
            c.bench_function(format!("request/index/{shape}/{n}"), |b| {
                b.iter(|| bolt.execute(&probes[next()], &mut Sink))
            });
            c.bench_function(format!("request/hashmap_scan/{shape}/{n}"), |b| {
                b.iter(|| {
                    let (lat, lng) = pickups[next()];
                    hashmap_scan(black_box(&table), lat, lng)
                })
            });

            // Each of the first PROBES drivers alternates between two
            // positions: a nudge away (same cell) or a fresh draw (another
            // cell, nearly always).
            let home = &stored[..PROBES.min(n)];
            let nudged: Vec<_> = home
                .iter()
                .map(|&(lat, lng)| (lat + 1e-9, lng - 1e-9))
                .collect();
            let away = points(didi, home.len(), 9);
            let mut table = table;
            for (label, other) in [("same_cell", &nudged), ("cross_cell", &away)] {
                let moves: Vec<Tuple> = locations(other)
                    .into_iter()
                    .chain(locations(home))
                    .collect();
                let mut next = cycle(moves.len());
                c.bench_function(format!("update/index/{label}/{shape}/{n}"), |b| {
                    b.iter(|| bolt.execute(&moves[next()], &mut Sink))
                });
            }
            let mut next = cycle(home.len());
            c.bench_function(format!("update/hashmap_insert/{shape}/{n}"), |b| {
                b.iter(|| {
                    let i = next();
                    table.insert(black_box(i as i64), away[i])
                })
            });
        }
    }
    c.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
