//! The matching instance's driver table: exact nearest-driver queries
//! that cost the drivers near the pickup, not every driver stored.
//!
//! Drivers are bucketed in a grid *learnt from the stored points*; each
//! cell's drivers are one contiguous run of 24-byte entries in a single
//! arena, and an id table maps each driver to its entry. Three
//! invariants make [`DriverIndex::nearest`] return what a scan of every
//! driver returns — the minimum of [`dist2`], bit for bit, ties to the
//! lowest driver id:
//!
//! 1. **Exact minimum.** A query visits whole cells and compares with
//!    the scan's own expression; the grid only decides *which* cells.
//! 2. **Exact edges, exact stop.** Each axis keeps its interior cuts as
//!    `f64`, and a point's cell on it is the number of cuts `<=` the
//!    coordinate — no rounding decides it, inside the learnt box or
//!    outside. So a driver in a cell beyond the block of rings `0..r`
//!    lies past one of the block's edges, and is at least the pickup's
//!    distance `b` to the nearest such edge away. The search stops once
//!    the best distance is strictly below `b²` (strictly: an unvisited
//!    driver can then not even tie). Subtracting, squaring and adding
//!    are monotone under rounding, and `b` goes through the same
//!    subtraction as [`dist2`], so the bound needs no slack.
//! 3. **Rebuild on doubling.** Box, resolution, arena and id table are
//!    rebuilt each time the driver count reaches a power of two, so an
//!    update is amortised O(1) and a cell holds about one driver. In
//!    between, new points outside the box share its edge cells: slower
//!    there, never wrong. The arena is also re-laid when it would
//!    outgrow [`ARENA_PER_DRIVER`] entries per driver, so runs that grew
//!    and moved away leave a bounded amount of dead space behind.
//!
//! The answer is a function of the stored `(id, lat, lng)` set alone — no
//! hasher seed, no insertion order.

use super::dist2;

/// "No entry": an empty id-table bucket.
const NONE: u32 = u32::MAX;

/// Below this many drivers the grid is one cell: nine cell visits cost
/// more than a scan this short.
const SCAN_BELOW: usize = 64;

/// Grid cells and id-table buckets per driver at a rebuild (half that by
/// the next one).
const CELLS_PER_DRIVER: usize = 2;
const BUCKETS_PER_DRIVER: usize = 4;

/// The arena never holds more entries than this per stored driver: a run
/// that outgrows its room moves to the arena's end, and when that would
/// break the bound, the arena is re-laid tight instead.
const ARENA_PER_DRIVER: usize = 3;

/// One stored driver: 24 bytes, what a query reads and nothing else.
#[derive(Clone, Copy)]
struct Entry {
    lat: f64,
    lng: f64,
    id: i64,
}

/// One cell's run in the arena: `len` drivers at `start`, room for `cap`.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// See the module documentation.
#[derive(Default)]
pub(super) struct DriverIndex {
    /// Every cell's run, with room to grow and runs abandoned by growth.
    arena: Vec<Entry>,
    /// Open-addressed id → arena position table (linear probing, never
    /// deleted from: a driver is stored for good).
    buckets: Vec<u32>,
    /// `64 − log2(buckets.len())`: the multiplicative hash keeps its top
    /// bits. Driver ids are assigned by the topology's own spouts, so
    /// there is no crafted-collision attack for SipHash to stop.
    shift: u32,
    /// Drivers stored.
    len: usize,
    grid: Grid,
}

/// The learnt grid: `rows × cols` cells over the bounding box of the
/// drivers stored at the last rebuild; one cell below [`SCAN_BELOW`].
#[derive(Default)]
struct Grid {
    lat: Axis,
    lng: Axis,
    /// Each cell's run, row-major.
    spans: Vec<Span>,
}

/// One axis of the grid: cell `c` holds the coordinates in
/// `[cuts[c − 1], cuts[c])`, the first and last cells reaching to −∞
/// and +∞.
#[derive(Default)]
struct Axis {
    /// Interior cuts, ascending (equal neighbours leave a cell empty).
    cuts: Vec<f64>,
    /// `lo` and cells per unit: where the uniform spacing puts a
    /// coordinate, the guess [`Axis::cell`] corrects against `cuts`.
    lo: f64,
    per_unit: f64,
}

impl Axis {
    /// `cells` cells over `[lo, lo + span]`. A span that cannot be
    /// divided (zero, or so small or large that the quotient leaves
    /// `f64`) gets one cell: it holds every point and never bounds a
    /// search.
    fn learn(lo: f64, span: f64, cells: usize) -> Axis {
        let per_unit = cells as f64 / span;
        if !(cells > 1 && per_unit > 0.0 && per_unit.is_finite()) {
            return Axis::default();
        }
        let side = span / cells as f64;
        Axis {
            // `i · side` and `lo + _` are monotone under rounding, so the
            // cuts ascend.
            cuts: (1..cells).map(|i| lo + i as f64 * side).collect(),
            lo,
            per_unit,
        }
    }

    fn cells(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The cell of `v`: the number of cuts `<= v`. The guess from the
    /// uniform spacing (the cast saturates, and sends a NaN to 0) only
    /// saves steps: the walk against the cuts decides.
    fn cell(&self, v: f64) -> usize {
        let cuts = &self.cuts;
        let mut c = (((v - self.lo) * self.per_unit) as usize).min(cuts.len());
        while c > 0 && cuts[c - 1] > v {
            c -= 1;
        }
        while c < cuts.len() && cuts[c] <= v {
            c += 1;
        }
        c
    }

    /// How far `v`, in cell `c`, is from the nearer edge of cells
    /// `c − r ..= c + r` that has cells beyond it; ∞ if neither has. Each
    /// side is the subtraction [`dist2`] makes for a driver on that edge.
    fn gap(&self, v: f64, c: usize, r: usize) -> f64 {
        let below = if c > r {
            v - self.cuts[c - r - 1]
        } else {
            f64::INFINITY
        };
        let above = if c + r < self.cuts.len() {
            self.cuts[c + r] - v
        } else {
            f64::INFINITY
        };
        below.min(above)
    }
}

impl Grid {
    fn cell(&self, lat: f64, lng: f64) -> usize {
        self.lat.cell(lat) * self.lng.cells() + self.lng.cell(lng)
    }
}

/// The running minimum of one query.
struct Best {
    lat: f64,
    lng: f64,
    id: i64,
    d2: f64,
}

impl Best {
    /// Finite coordinates keep [`dist2`] in [0, ∞], never NaN, so the
    /// order is total. `<=` on the id lets the starting sentinel lose
    /// even to driver `i64::MAX` at distance ∞; ids are unique, so it
    /// decides nothing else.
    fn offer(&mut self, d: &Entry) {
        let d2 = dist2(self.lat, self.lng, d.lat, d.lng);
        if d2 < self.d2 || (d2 == self.d2 && d.id <= self.id) {
            (self.id, self.d2) = (d.id, d2);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Drivers offered to queries on this thread: the work a query does.
    static COMPARED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl DriverIndex {
    /// Store driver `id` at `(lat, lng)`, replacing its previous
    /// position. A position with a non-finite coordinate is not a place:
    /// it is ignored, and a driver already stored stays where it was.
    pub(super) fn update(&mut self, id: i64, lat: f64, lng: f64) {
        if !(lat.is_finite() && lng.is_finite()) {
            return;
        }
        let entry = Entry { lat, lng, id };
        let to = self.grid.cell(lat, lng);
        match self.find(id) {
            Ok(bucket) => {
                let at = self.buckets[bucket] as usize;
                let old = self.arena[at];
                let from = self.grid.cell(old.lat, old.lng);
                if from == to {
                    self.arena[at] = entry;
                } else {
                    self.remove(from, at);
                    self.insert(to, entry, bucket);
                }
            }
            Err(bucket) => {
                self.len += 1;
                if self.len.is_power_of_two() {
                    self.rebuild(entry);
                } else {
                    self.insert(to, entry, bucket);
                }
            }
        }
    }

    /// The stored driver nearest to `(lat, lng)` and its [`dist2`]; of
    /// several equally near, the one with the lowest id. `None` when no
    /// driver is stored or the pickup has a non-finite coordinate (it is
    /// nowhere, so nothing is nearest to it).
    pub(super) fn nearest(&self, lat: f64, lng: f64) -> Option<(i64, f64)> {
        if self.len == 0 || !(lat.is_finite() && lng.is_finite()) {
            return None;
        }
        let mut best = Best {
            lat,
            lng,
            id: i64::MAX,
            d2: f64::INFINITY,
        };
        let grid = &self.grid;
        let (rows, cols) = (grid.lat.cells(), grid.lng.cells());
        let (row, col) = (grid.lat.cell(lat), grid.lng.cell(lng));
        self.visit(row, col, &mut best);
        // Ring `r`: the cells at Chebyshev distance `r` from the pickup's,
        // clipped to the grid. Past `last` every ring is empty.
        let last = row.max(rows - 1 - row).max(col).max(cols - 1 - col);
        for r in 1..=last {
            let reach = grid
                .lat
                .gap(lat, row, r - 1)
                .min(grid.lng.gap(lng, col, r - 1));
            if best.d2 < reach * reach {
                break;
            }
            let (left, right) = (col.saturating_sub(r), (col + r).min(cols - 1));
            if row >= r {
                (left..=right).for_each(|c| self.visit(row - r, c, &mut best));
            }
            if row + r < rows {
                (left..=right).for_each(|c| self.visit(row + r, c, &mut best));
            }
            let (top, bottom) = ((row + 1).saturating_sub(r), (row + r - 1).min(rows - 1));
            if col >= r {
                (top..=bottom).for_each(|w| self.visit(w, col - r, &mut best));
            }
            if col + r < cols {
                (top..=bottom).for_each(|w| self.visit(w, col + r, &mut best));
            }
        }
        Some((best.id, best.d2))
    }

    /// Offer every driver of one cell.
    fn visit(&self, row: usize, col: usize, best: &mut Best) {
        let run = &self.arena[self.grid.spans[row * self.grid.lng.cells() + col].range()];
        #[cfg(test)]
        COMPARED.with(|n| n.set(n.get() + run.len() as u64));
        run.iter().for_each(|d| best.offer(d));
    }

    /// The bucket holding driver `id`, or the empty one where it belongs
    /// (0 while there is no table).
    fn find(&self, id: i64) -> Result<usize, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mask = self.buckets.len() - 1;
        let mut bucket = ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.buckets[bucket] {
                NONE => return Err(bucket),
                at if self.arena[at as usize].id == id => return Ok(bucket),
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    /// Point driver `id`'s bucket at arena position `at`. Every bucket but
    /// the one of a driver being moved must hold a distinct position.
    fn relocate(&mut self, id: i64, at: usize) {
        let bucket = self.find(id).expect("a stored driver");
        self.buckets[bucket] = at as u32;
    }

    /// Take the entry at `at` out of `cell`'s run: the run's last entry
    /// fills the hole. Its bucket is found before the copy, while no two
    /// positions hold its id.
    fn remove(&mut self, cell: usize, at: usize) {
        let span = &mut self.grid.spans[cell];
        span.len -= 1;
        let last = (span.start + span.len) as usize;
        if at != last {
            self.relocate(self.arena[last].id, at);
            self.arena[at] = self.arena[last];
        }
    }

    /// Append `entry`, whose id belongs in `bucket`, to `cell`'s run. A
    /// full run first moves to the arena's end with twice the room, or,
    /// if that would outgrow the arena's bound, everything is rebuilt.
    fn insert(&mut self, cell: usize, entry: Entry, bucket: usize) {
        let mut span = self.grid.spans[cell];
        if span.len == span.cap {
            let start = self.arena.len();
            let cap = 2 * (span.len as usize + 1);
            if start + cap > ARENA_PER_DRIVER * self.len {
                return self.rebuild(entry);
            }
            assert!(start + cap <= NONE as usize, "arena positions are u32");
            self.arena.extend_from_within(span.range());
            self.arena.resize(start + cap, entry);
            for at in start..start + span.len as usize {
                self.relocate(self.arena[at].id, at);
            }
            (span.start, span.cap) = (start as u32, cap as u32);
        }
        let at = (span.start + span.len) as usize;
        self.arena[at] = entry;
        self.buckets[bucket] = at as u32;
        span.len += 1;
        self.grid.spans[cell] = span;
    }

    /// Learn the grid for the stored drivers plus `entry` (`self.len` of
    /// them), lay their runs out tight by counting sort, and size the id
    /// table with room until the count doubles.
    fn rebuild(&mut self, entry: Entry) {
        let mut live = Vec::with_capacity(self.len);
        for &span in &self.grid.spans {
            live.extend_from_slice(&self.arena[span.range()]);
        }
        live.push(entry);
        let n = live.len();
        debug_assert_eq!(n, self.len);
        assert!(n < NONE as usize, "arena positions are u32");

        let inf = f64::INFINITY;
        let (mut lat, mut lng) = ((inf, -inf), (inf, -inf));
        for d in &live {
            lat = (lat.0.min(d.lat), lat.1.max(d.lat));
            lng = (lng.0.min(d.lng), lng.1.max(d.lng));
        }
        let (lat_span, lng_span) = (lat.1 - lat.0, lng.1 - lng.0);
        // rows : cols as the box's sides, rows · cols ≤ cells. A flat box
        // gives 1 × cells or cells × 1; a point box (0/0 → NaN → 0 → 1)
        // is collapsed by `Axis::learn`.
        let cells = if n < SCAN_BELOW {
            1
        } else {
            CELLS_PER_DRIVER * n
        };
        let rows = ((cells as f64 * (lat_span / lng_span)).sqrt() as usize).clamp(1, cells);
        let mut spans = std::mem::take(&mut self.grid.spans);
        self.grid = Grid {
            lat: Axis::learn(lat.0, lat_span, rows),
            lng: Axis::learn(lng.0, lng_span, cells / rows),
            spans: Vec::new(),
        };
        spans.clear();
        spans.resize(
            self.grid.lat.cells() * self.grid.lng.cells(),
            Span::default(),
        );
        let cell_of: Vec<u32> = live
            .iter()
            .map(|d| self.grid.cell(d.lat, d.lng) as u32)
            .collect();
        for &c in &cell_of {
            spans[c as usize].cap += 1;
        }
        let mut start = 0;
        for span in &mut spans {
            span.start = start;
            start += span.cap;
        }
        self.arena.clear();
        self.arena.resize(n, entry);
        for (d, &c) in live.iter().zip(&cell_of) {
            let span = &mut spans[c as usize];
            self.arena[(span.start + span.len) as usize] = *d;
            span.len += 1;
        }
        self.grid.spans = spans;

        let buckets = (BUCKETS_PER_DRIVER * n).next_power_of_two();
        self.shift = 64 - buckets.trailing_zeros();
        self.buckets.clear();
        self.buckets.resize(buckets, NONE);
        for at in 0..n {
            let bucket = self.find(self.arena[at].id).expect_err("ids are unique");
            self.buckets[bucket] = at as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use whale_sim::SimRng;
    use whale_workloads::{DidiConfig, DidiGenerator};

    /// The reference: every stored driver scanned on every query.
    #[derive(Default)]
    struct Scan(HashMap<i64, (f64, f64)>);

    impl Scan {
        fn update(&mut self, id: i64, lat: f64, lng: f64) {
            if lat.is_finite() && lng.is_finite() {
                self.0.insert(id, (lat, lng));
            }
        }

        fn nearest(&self, lat: f64, lng: f64) -> Option<(i64, f64)> {
            if !(lat.is_finite() && lng.is_finite()) {
                return None;
            }
            self.0
                .iter()
                .map(|(&id, &(dlat, dlng))| (id, dist2(lat, lng, dlat, dlng)))
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("finite inputs")
                        .then(a.0.cmp(&b.0))
                })
        }
    }

    impl DriverIndex {
        /// Every driver sits exactly once in the run of the cell its
        /// position maps to, runs own disjoint room, the id table finds
        /// every driver where it sits, and the arena keeps its bound.
        fn check(&self) {
            assert!(self.arena.len() <= ARENA_PER_DRIVER * self.len);
            if self.len == 0 {
                assert!(self.grid.spans.is_empty() && self.buckets.is_empty());
                return;
            }
            let grid = &self.grid;
            for axis in [&grid.lat, &grid.lng] {
                assert!(axis.cuts.windows(2).all(|w| w[0] <= w[1]));
            }
            assert_eq!(grid.spans.len(), grid.lat.cells() * grid.lng.cells());
            assert!(self.len >= SCAN_BELOW || grid.spans.len() == 1);
            let mut owned = vec![false; self.arena.len()];
            let mut stored = 0;
            for (cell, span) in grid.spans.iter().enumerate() {
                assert!(span.len <= span.cap);
                for at in span.start..span.start + span.cap {
                    assert!(!std::mem::replace(&mut owned[at as usize], true));
                }
                for at in span.range() {
                    let d = &self.arena[at];
                    assert_eq!(grid.cell(d.lat, d.lng), cell);
                    assert_eq!(self.find(d.id).map(|b| self.buckets[b]), Ok(at as u32));
                    stored += 1;
                }
            }
            assert_eq!(stored, self.len);
            assert_eq!(
                self.buckets.iter().filter(|&&b| b != NONE).count(),
                self.len
            );
        }
    }

    /// Where a case's points come from.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// A Beijing-sized box.
        City,
        /// Multiples of 1/8 in [0, 4)²: coincident points, exact ties,
        /// points exactly on cell boundaries.
        Lattice,
        /// One latitude: a zero-width box.
        Line,
        /// One point: a box with no extent at all.
        Point,
        /// A unit box far from the origin, where `f64` is coarse.
        Offset,
        /// The benchmark's regime: Zipf-skewed hot spots from the Didi
        /// generator, cells of a hundred drivers and more.
        Hotspot,
    }

    impl Shape {
        /// A point of the shape; `wide` scatters it over a hundred times
        /// the extent, outside whatever box the index has learnt.
        fn point(self, rng: &mut SimRng, didi: &mut DidiGenerator, wide: bool) -> (f64, f64) {
            let mut u = || (rng.next_f64() - 0.5) * if wide { 100.0 } else { 1.0 };
            match self {
                Shape::City => (39.9 + 0.6 * u(), 116.4 + 0.8 * u()),
                Shape::Lattice => ((u() * 32.0).round() / 8.0, (u() * 32.0).round() / 8.0),
                Shape::Line if wide => (7.25 + u(), u()),
                Shape::Line => (7.25, u()),
                Shape::Point if wide => (u(), u()),
                Shape::Point => (-3.0, 11.5),
                Shape::Offset => (1e12 + u(), -1e12 + u()),
                Shape::Hotspot => {
                    let l = didi.next_location();
                    let scale = if wide { 100.0 } else { 1.0 };
                    (
                        39.9 + scale * (l.lat - 39.9),
                        116.4 + scale * (l.lng - 116.4),
                    )
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// Random interleavings of insert / move / query, from one
        /// driver up through the scan → grid threshold and up to seven
        /// doublings: every query answers exactly as the full scan does.
        #[test]
        fn nearest_equals_the_full_scan(
            shape in (0usize..6).prop_map(|i| {
                [
                    Shape::City,
                    Shape::Lattice,
                    Shape::Line,
                    Shape::Point,
                    Shape::Offset,
                    Shape::Hotspot,
                ][i]
            }),
            drivers in prop_oneof![1usize..=100, 1usize..=700, 1usize..=5_000],
            seed in any::<u64>(),
        ) {
            let drivers: usize = drivers;
            let mut rng = SimRng::new(seed);
            let mut didi = DidiGenerator::new(seed, DidiConfig::default());
            let (mut index, mut scan) = (DriverIndex::default(), Scan::default());
            // Ids spread over the whole `i64` range, in no order.
            let id_of = |i: u64| (i.wrapping_mul(0x2545_F491_4F6C_DD1D) as i64) ^ (seed as i64);
            let mut stored = 0u64;
            let queries_every = (drivers / 150).max(1) as u64;
            while (stored as usize) < drivers {
                // Late arrivals and one op in eight leave the learnt box.
                let wide = rng.gen_range(8) == 0;
                match rng.gen_range(4) {
                    0 if stored > 0 => {
                        // Move to anywhere: across cells.
                        let (lat, lng) = shape.point(&mut rng, &mut didi, wide);
                        let id = id_of(rng.gen_range(stored));
                        index.update(id, lat, lng);
                        scan.update(id, lat, lng);
                    }
                    1 if stored > 0 => {
                        // Nudge: mostly within the cell.
                        let id = id_of(rng.gen_range(stored));
                        let (lat, lng) = scan.0[&id];
                        let (lat, lng) = (lat + 1e-7 * rng.next_f64(), lng - 1e-7 * rng.next_f64());
                        index.update(id, lat, lng);
                        scan.update(id, lat, lng);
                    }
                    _ => {
                        let (lat, lng) = shape.point(&mut rng, &mut didi, wide);
                        index.update(id_of(stored), lat, lng);
                        scan.update(id_of(stored), lat, lng);
                        stored += 1;
                    }
                }
                if rng.gen_range(queries_every) == 0 {
                    // From the shape, from far outside it, or standing on a driver.
                    let (lat, lng) = match rng.gen_range(3) {
                        0 => scan.0[&id_of(rng.gen_range(stored))],
                        pick => shape.point(&mut rng, &mut didi, pick == 1),
                    };
                    prop_assert_eq!(
                        index.nearest(lat, lng), scan.nearest(lat, lng),
                        "{:?}, {} stored, pickup ({}, {})", shape, stored, lat, lng
                    );
                }
            }
            index.check();
            prop_assert_eq!(index.len, scan.0.len());
        }
    }

    #[test]
    fn the_grid_appears_at_the_threshold_and_relearns_on_doubling() {
        let mut index = DriverIndex::default();
        let mut cells = Vec::new();
        for i in 0..1_024i64 {
            index.update(i, (i % 37) as f64, (i % 41) as f64);
            index.check();
            if cells.last() != Some(&index.grid.spans.len()) {
                cells.push(index.grid.spans.len());
                assert!(i == 0 || (i + 1 >= 64 && (i as usize + 1).is_power_of_two()));
            }
        }
        // One cell below 64 drivers, then one rebuild per doubling: 64 … 1 024.
        assert_eq!(cells.len(), 6);
        assert!(cells.windows(2).all(|w| w[0] < w[1]));
        // About one driver per cell, never more cells than budgeted.
        assert!((1_024..=2 * 1_024).contains(cells.last().unwrap()));
    }

    #[test]
    fn equal_distances_go_to_the_lowest_id_at_every_size() {
        // Four drivers at the corners of a square around the pickup, the
        // rest far away: the answer is the lowest id, whatever the order
        // of arrival and whether the query scans or walks the grid.
        for others in [0, 10, 100, 1_000] {
            let mut index = DriverIndex::default();
            for (id, (lat, lng)) in [
                (9, (1.0, 1.0)),
                (4, (-1.0, 1.0)),
                (7, (1.0, -1.0)),
                (5, (-1.0, -1.0)),
            ] {
                index.update(id, lat, lng);
            }
            for i in 0..others {
                index.update(100 + i, 50.0 + (i % 31) as f64, 50.0 + (i % 29) as f64);
            }
            assert_eq!(index.nearest(0.0, 0.0), Some((4, 2.0)));
        }
    }

    #[test]
    fn a_non_finite_location_is_not_stored_and_moves_nobody() {
        for n in [1, 200] {
            let mut index = DriverIndex::default();
            for i in 0..n {
                index.update(i, i as f64, 0.0);
            }
            for (lat, lng) in [
                (f64::NAN, 0.0),
                (0.0, f64::INFINITY),
                (f64::NEG_INFINITY, f64::NAN),
            ] {
                index.update(0, lat, lng); // a stored driver: stays put
                index.update(n, lat, lng); // a new one: not stored
            }
            index.check();
            assert_eq!(index.len, n as usize);
            assert_eq!(index.nearest(-1.0, 0.0), Some((0, 1.0)));
        }
    }

    #[test]
    fn a_non_finite_pickup_has_no_nearest_driver() {
        for n in [1, 200] {
            let mut index = DriverIndex::default();
            for i in 0..n {
                index.update(i, i as f64, -(i as f64));
            }
            assert_eq!(index.nearest(f64::NAN, 0.0), None);
            assert_eq!(index.nearest(0.0, f64::NEG_INFINITY), None);
            assert!(index.nearest(0.0, 0.0).is_some());
        }
    }

    #[test]
    fn coordinates_at_the_edge_of_f64_stay_exact() {
        // Spans that overflow, distances that overflow, a box too thin to
        // divide: the grid degrades to fewer cells, the answer does not.
        let big = f64::MAX;
        let tiny = f64::MIN_POSITIVE;
        let points = [
            (big, big),
            (-big, -big),
            (big, -big),
            (0.0, tiny),
            (0.0, 0.0),
            (tiny, 0.0),
        ];
        let (mut index, mut scan) = (DriverIndex::default(), Scan::default());
        for i in 0..300usize {
            let (lat, lng) = points[i % points.len()];
            let (lat, lng) = if i % 7 == 0 {
                (lat / 2.0, lng / 3.0)
            } else {
                (lat, lng)
            };
            index.update(i as i64, lat, lng);
            scan.update(i as i64, lat, lng);
            for &(plat, plng) in &points {
                assert_eq!(index.nearest(plat, plng), scan.nearest(plat, plng));
            }
        }
        index.check();
        // All on a sliver thinner than f64 can divide into cells.
        let (mut index, mut scan) = (DriverIndex::default(), Scan::default());
        for i in 0..300usize {
            let (lat, lng) = (tiny * (i % 3) as f64, (i % 50) as f64);
            index.update(i as i64, lat, lng);
            scan.update(i as i64, lat, lng);
        }
        for i in 0..60 {
            let (plat, plng) = (tiny * (i % 4) as f64, i as f64 - 5.0);
            assert_eq!(index.nearest(plat, plng), scan.nearest(plat, plng));
        }
        index.check();
    }

    #[test]
    fn moving_drivers_keep_the_arena_bounded() {
        // A fixed fleet, moved fifty times over between hot spots: runs
        // outgrow their room and move to the arena's end again and again,
        // and the dead space they leave is re-packed, never accumulated.
        let n = 2_500;
        let mut didi = DidiGenerator::new(7, DidiConfig::default());
        let (mut index, mut scan) = (DriverIndex::default(), Scan::default());
        for id in 0..n {
            let l = didi.next_location();
            index.update(id, l.lat, l.lng);
            scan.update(id, l.lat, l.lng);
        }
        let mut rng = SimRng::new(7);
        let (mut longest, mut repacked) = (0, 0);
        for step in 0..50 * n {
            let (id, l) = (rng.gen_range(n as u64) as i64, didi.next_location());
            let before = index.arena.len();
            index.update(id, l.lat, l.lng);
            scan.update(id, l.lat, l.lng);
            assert!(index.arena.len() <= ARENA_PER_DRIVER * n as usize);
            longest = longest.max(index.arena.len());
            repacked += usize::from(index.arena.len() < before);
            if step % 4_096 == 0 {
                index.check();
                let o = didi.next_order();
                assert_eq!(index.nearest(o.lat, o.lng), scan.nearest(o.lat, o.lng));
            }
        }
        index.check();
        assert_eq!(index.len, n as usize);
        // Runs did move, and the arena was re-packed again and again.
        assert!(longest > 2 * n as usize, "{longest}");
        assert!(repacked >= 10, "{repacked}");
    }

    #[test]
    fn a_request_compares_about_thirty_drivers_on_the_benchmark_pool() {
        // One matching instance's share of `ride_onesided`'s seed-1 pool
        // (the drivers with `id % 16 == 3`), queried with the same seed's
        // requests: 31.71 drivers compared per request.
        let config = DidiConfig::default();
        let mut locations = DidiGenerator::new(1, config);
        let mut index = DriverIndex::default();
        for _ in 0..65_536 {
            let l = locations.next_location();
            if l.driver_id % 16 == 3 {
                index.update(l.driver_id as i64, l.lat, l.lng);
            }
        }
        assert_eq!(index.len, 2_517);
        let mut requests = DidiGenerator::new(1 ^ 0x9e37_79b9_7f4a_7c15, config);
        COMPARED.with(|n| n.set(0));
        for _ in 0..65_536 {
            let o = requests.next_order();
            assert!(index.nearest(o.lat, o.lng).is_some());
        }
        let mean = COMPARED.with(|n| n.get()) as f64 / 65_536.0;
        assert!(mean < 32.0, "{mean:.2} drivers compared per request");
    }
}
