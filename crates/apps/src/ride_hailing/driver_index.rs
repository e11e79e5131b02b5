//! The matching instance's driver table: exact nearest-driver queries
//! that cost the drivers near the pickup, not every driver stored.
//!
//! Drivers live in one dense array behind an id → slot table and are
//! bucketed in a uniform grid *learnt from the stored points*. Three
//! invariants make [`DriverIndex::nearest`] return what a scan of every
//! driver returns — the minimum of [`dist2`], bit for bit, ties to the
//! lowest driver id:
//!
//! 1. **Exact minimum.** A query visits whole cells and compares with
//!    the scan's own expression; the grid only decides *which* cells.
//! 2. **The ring bound holds under clamping.** A point's cell is a
//!    monotone function of each coordinate, clamped to the edge cells
//!    outside the learnt box. Two points whose cells lie `k` apart on an
//!    axis are therefore at least `(k − 1)` cell sides apart on it,
//!    wherever they are — clamping only ever moves a cell *towards* the
//!    other point's. Once rings `0..r` around the pickup's cell are
//!    visited, every other driver is at least `(r − 1) · side` away, and
//!    the search stops when the best distance found is strictly below
//!    that (strictly: an unvisited driver can then not even tie).
//! 3. **Rebuild on doubling.** Box, resolution and the id table are
//!    rebuilt each time the driver count reaches a power of two, so an
//!    update is amortised O(1) and a cell holds about one driver. In
//!    between, new points outside the box share its edge cells: slower
//!    there, never wrong.
//!
//! The answer is a function of the stored `(id, lat, lng)` set alone — no
//! hasher seed, no insertion order.

use super::dist2;

/// "No slot": the end of a cell's chain, an empty id-table bucket.
const NONE: u32 = u32::MAX;

/// Below this many drivers there is no grid and no id table; both
/// lookups scan. Nine cell visits cost more than a scan this short.
const SCAN_BELOW: usize = 64;

/// Grid cells and id-table buckets per driver at a rebuild (half that by
/// the next one).
const CELLS_PER_DRIVER: usize = 2;
const BUCKETS_PER_DRIVER: usize = 4;

/// The ring bound is shrunk by this factor to absorb the rounding in
/// cell assignment: `⌊(v − lo) · n / span⌋` misplaces a cell boundary by
/// at most 4 · 2⁻⁵³ · n sides (n ≤ 2³³ cells on an axis, slots being
/// `u32`), so points `k` cells apart are at least `(k − 1)(1 − 2⁻¹⁸)`
/// sides apart. Nothing else needs slack: subtracting, squaring and
/// adding are monotone under rounding, and bound and distance go through
/// the same steps.
const BOUND_SHRINK: f64 = 1.0 - 1.0 / 1024.0;

/// One stored driver: 32 bytes, two to a cache line. `next`/`prev` chain
/// the drivers of one grid cell through this array, so a rebuild
/// allocates nothing per cell and a move relinks in O(1).
struct Driver {
    id: i64,
    lat: f64,
    lng: f64,
    next: u32,
    prev: u32,
}

/// See the module documentation.
#[derive(Default)]
pub(super) struct DriverIndex {
    drivers: Vec<Driver>,
    /// Open-addressed id → slot table (linear probing, never deleted
    /// from: a driver is stored for good). Empty below [`SCAN_BELOW`].
    buckets: Vec<u32>,
    /// `64 − log2(buckets.len())`: the multiplicative hash keeps its top
    /// bits. Driver ids are assigned by the topology's own spouts, so
    /// there is no crafted-collision attack for SipHash to stop.
    shift: u32,
    grid: Grid,
}

/// The learnt grid: `rows × cols` cells over the bounding box of the
/// drivers stored at the last rebuild. Empty below [`SCAN_BELOW`].
#[derive(Default)]
struct Grid {
    lat: Axis,
    lng: Axis,
    /// [`BOUND_SHRINK`] × the shorter cell side.
    side: f64,
    /// First slot of each cell's chain, row-major.
    heads: Vec<u32>,
}

#[derive(Default)]
struct Axis {
    lo: f64,
    cells: usize,
    cells_per_unit: f64,
}

impl Axis {
    /// `cells` cells over `[lo, lo + span]` and the width of one. A span
    /// that cannot be divided (zero, or so small or large that the
    /// quotient leaves `f64`) gets one cell of unbounded width: it holds
    /// every point and never bounds a search.
    fn learn(lo: f64, span: f64, cells: usize) -> (Axis, f64) {
        let cells_per_unit = cells as f64 / span;
        if cells > 1 && cells_per_unit > 0.0 && cells_per_unit.is_finite() {
            let axis = Axis {
                lo,
                cells,
                cells_per_unit,
            };
            (axis, span / cells as f64)
        } else {
            let axis = Axis {
                lo,
                cells: 1,
                cells_per_unit: 0.0,
            };
            (axis, f64::INFINITY)
        }
    }

    /// The cell of coordinate `v`: monotone in `v`, clamped to the edge
    /// cells (the cast saturates, and sends the NaN of `∞ · 0` to 0).
    fn cell(&self, v: f64) -> usize {
        (((v - self.lo) * self.cells_per_unit) as usize).min(self.cells - 1)
    }
}

impl Grid {
    fn cell(&self, lat: f64, lng: f64) -> usize {
        self.lat.cell(lat) * self.lng.cells + self.lng.cell(lng)
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
    fn offer(&mut self, d: &Driver) {
        let d2 = dist2(self.lat, self.lng, d.lat, d.lng);
        if d2 < self.d2 || (d2 == self.d2 && d.id <= self.id) {
            (self.id, self.d2) = (d.id, d2);
        }
    }
}

impl DriverIndex {
    /// Store driver `id` at `(lat, lng)`, replacing its previous
    /// position. A position with a non-finite coordinate is not a place:
    /// it is ignored, and a driver already stored stays where it was.
    pub(super) fn update(&mut self, id: i64, lat: f64, lng: f64) {
        if !(lat.is_finite() && lng.is_finite()) {
            return;
        }
        match self.find(id) {
            Ok(slot) => {
                if !self.grid.heads.is_empty() {
                    let d = &self.drivers[slot];
                    let (from, to) = (self.grid.cell(d.lat, d.lng), self.grid.cell(lat, lng));
                    if from != to {
                        self.unlink(slot, from);
                        self.link(slot, to);
                    }
                }
                let d = &mut self.drivers[slot];
                (d.lat, d.lng) = (lat, lng);
            }
            Err(bucket) => {
                let slot = self.drivers.len();
                assert!(slot < NONE as usize, "driver slots are u32");
                self.drivers.push(Driver {
                    id,
                    lat,
                    lng,
                    next: NONE,
                    prev: NONE,
                });
                if slot + 1 >= SCAN_BELOW && (slot + 1).is_power_of_two() {
                    self.rebuild();
                } else if !self.buckets.is_empty() {
                    self.buckets[bucket] = slot as u32;
                    self.link(slot, self.grid.cell(lat, lng));
                }
            }
        }
    }

    /// The stored driver nearest to `(lat, lng)` and its [`dist2`]; of
    /// several equally near, the one with the lowest id. `None` when no
    /// driver is stored or the pickup has a non-finite coordinate (it is
    /// nowhere, so nothing is nearest to it).
    pub(super) fn nearest(&self, lat: f64, lng: f64) -> Option<(i64, f64)> {
        if self.drivers.is_empty() || !(lat.is_finite() && lng.is_finite()) {
            return None;
        }
        let mut best = Best {
            lat,
            lng,
            id: i64::MAX,
            d2: f64::INFINITY,
        };
        let grid = &self.grid;
        if grid.heads.is_empty() {
            self.drivers.iter().for_each(|d| best.offer(d));
            return Some((best.id, best.d2));
        }
        let (rows, cols) = (grid.lat.cells, grid.lng.cells);
        let (row, col) = (grid.lat.cell(lat), grid.lng.cell(lng));
        self.visit(row, col, &mut best);
        // Ring `r`: the cells at Chebyshev distance `r` from the pickup's,
        // clipped to the grid. Past `last` every ring is empty.
        let last = row.max(rows - 1 - row).max(col).max(cols - 1 - col);
        for r in 1..=last {
            let reach = (r - 1) as f64 * grid.side;
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
        let mut slot = self.grid.heads[row * self.grid.lng.cells + col];
        while slot != NONE {
            let d = &self.drivers[slot as usize];
            best.offer(d);
            slot = d.next;
        }
    }

    /// The slot of driver `id`, or the bucket where its slot belongs
    /// (meaningless while there is no table).
    fn find(&self, id: i64) -> Result<usize, usize> {
        if self.buckets.is_empty() {
            return self.drivers.iter().position(|d| d.id == id).ok_or(0);
        }
        let mask = self.buckets.len() - 1;
        let mut bucket = ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.buckets[bucket] {
                NONE => return Err(bucket),
                slot if self.drivers[slot as usize].id == id => return Ok(slot as usize),
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    fn link(&mut self, slot: usize, cell: usize) {
        let head = std::mem::replace(&mut self.grid.heads[cell], slot as u32);
        if head != NONE {
            self.drivers[head as usize].prev = slot as u32;
        }
        let d = &mut self.drivers[slot];
        (d.prev, d.next) = (NONE, head);
    }

    fn unlink(&mut self, slot: usize, cell: usize) {
        let Driver { prev, next, .. } = self.drivers[slot];
        match prev {
            NONE => self.grid.heads[cell] = next,
            p => self.drivers[p as usize].next = next,
        }
        if next != NONE {
            self.drivers[next as usize].prev = prev;
        }
    }

    /// Size the id table and learn the grid for the drivers stored now
    /// (a power of two of them), with room until they double.
    fn rebuild(&mut self) {
        let n = self.drivers.len();
        let buckets = BUCKETS_PER_DRIVER * n;
        self.shift = 64 - buckets.trailing_zeros();
        self.buckets.clear();
        self.buckets.resize(buckets, NONE);
        for slot in 0..n {
            let bucket = self
                .find(self.drivers[slot].id)
                .expect_err("ids are unique");
            self.buckets[bucket] = slot as u32;
        }

        let inf = f64::INFINITY;
        let (mut lat, mut lng) = ((inf, -inf), (inf, -inf));
        for d in &self.drivers {
            lat = (lat.0.min(d.lat), lat.1.max(d.lat));
            lng = (lng.0.min(d.lng), lng.1.max(d.lng));
        }
        let (lat_span, lng_span) = (lat.1 - lat.0, lng.1 - lng.0);
        // rows : cols as the box's sides, rows · cols ≤ cells. A flat box
        // gives 1 × cells or cells × 1; a point box (0/0 → NaN → 0 → 1)
        // is collapsed by `Axis::learn`.
        let cells = CELLS_PER_DRIVER * n;
        let rows = ((cells as f64 * (lat_span / lng_span)).sqrt() as usize).clamp(1, cells);
        let (lat, lat_side) = Axis::learn(lat.0, lat_span, rows);
        let (lng, lng_side) = Axis::learn(lng.0, lng_span, cells / rows);
        let mut heads = std::mem::take(&mut self.grid.heads);
        heads.clear();
        heads.resize(lat.cells * lng.cells, NONE);
        self.grid = Grid {
            side: BOUND_SHRINK * lat_side.min(lng_side),
            lat,
            lng,
            heads,
        };
        for slot in 0..n {
            let d = &self.drivers[slot];
            self.link(slot, self.grid.cell(d.lat, d.lng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use whale_sim::SimRng;

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
        /// Every driver is chained exactly once, in the cell its position
        /// maps to, and the id table finds every slot.
        fn check(&self) {
            for (slot, d) in self.drivers.iter().enumerate() {
                assert_eq!(self.find(d.id), Ok(slot));
            }
            if self.drivers.len() < SCAN_BELOW {
                assert!(self.grid.heads.is_empty() && self.buckets.is_empty());
                return;
            }
            let mut chained = vec![false; self.drivers.len()];
            for (cell, &head) in self.grid.heads.iter().enumerate() {
                let (mut prev, mut slot) = (NONE, head);
                while slot != NONE {
                    let d = &self.drivers[slot as usize];
                    assert_eq!(self.grid.cell(d.lat, d.lng), cell);
                    assert_eq!(d.prev, prev);
                    assert!(!std::mem::replace(&mut chained[slot as usize], true));
                    (prev, slot) = (slot, d.next);
                }
            }
            assert!(chained.iter().all(|&c| c));
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
    }

    impl Shape {
        /// A point of the shape; `wide` scatters it over a hundred times
        /// the extent, outside whatever box the index has learnt.
        fn point(self, rng: &mut SimRng, wide: bool) -> (f64, f64) {
            let mut u = || (rng.next_f64() - 0.5) * if wide { 100.0 } else { 1.0 };
            match self {
                Shape::City => (39.9 + 0.6 * u(), 116.4 + 0.8 * u()),
                Shape::Lattice => ((u() * 32.0).round() / 8.0, (u() * 32.0).round() / 8.0),
                Shape::Line if wide => (7.25 + u(), u()),
                Shape::Line => (7.25, u()),
                Shape::Point if wide => (u(), u()),
                Shape::Point => (-3.0, 11.5),
                Shape::Offset => (1e12 + u(), -1e12 + u()),
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
            shape in (0usize..5).prop_map(|i| {
                [Shape::City, Shape::Lattice, Shape::Line, Shape::Point, Shape::Offset][i]
            }),
            drivers in prop_oneof![1usize..=100, 1usize..=700, 1usize..=5_000],
            seed in any::<u64>(),
        ) {
            let drivers: usize = drivers;
            let mut rng = SimRng::new(seed);
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
                        let (lat, lng) = shape.point(&mut rng, wide);
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
                        let (lat, lng) = shape.point(&mut rng, wide);
                        index.update(id_of(stored), lat, lng);
                        scan.update(id_of(stored), lat, lng);
                        stored += 1;
                    }
                }
                if rng.gen_range(queries_every) == 0 {
                    // From the shape, from far outside it, or standing on a driver.
                    let (lat, lng) = match rng.gen_range(3) {
                        0 => scan.0[&id_of(rng.gen_range(stored))],
                        pick => shape.point(&mut rng, pick == 1),
                    };
                    prop_assert_eq!(
                        index.nearest(lat, lng), scan.nearest(lat, lng),
                        "{:?}, {} stored, pickup ({}, {})", shape, stored, lat, lng
                    );
                }
            }
            index.check();
            prop_assert_eq!(index.drivers.len(), scan.0.len());
        }
    }

    #[test]
    fn the_grid_appears_at_the_threshold_and_relearns_on_doubling() {
        let mut index = DriverIndex::default();
        let mut cells = Vec::new();
        for i in 0..1_024i64 {
            index.update(i, (i % 37) as f64, (i % 41) as f64);
            index.check();
            if cells.last() != Some(&index.grid.heads.len()) {
                cells.push(index.grid.heads.len());
                assert!(i == 0 || (i + 1 >= 64 && (i as usize + 1).is_power_of_two()));
            }
        }
        // Empty below 64 drivers, then one rebuild per doubling: 64 … 1 024.
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
            assert_eq!(index.drivers.len(), n as usize);
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
}
