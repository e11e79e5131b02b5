//! The generators' output is pinned: the first 65 536 records of seed 1
//! hash to fixed constants. Every byte of a symbol, a side, a price, a
//! volume, a coordinate, an id and a timestamp goes into the hash, so a
//! change that moves any of them — or how the generator draws its random
//! numbers — fails here, not as a silent shift of every benchmark and
//! experiment that replays these streams.

use whale_workloads::{DidiConfig, DidiGenerator, NasdaqConfig, NasdaqGenerator};

const RECORDS: usize = 65_536;

/// 64-bit FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so that field boundaries count.
    fn field(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u32).to_le_bytes());
        self.bytes(bytes);
    }
}

#[test]
fn the_first_nasdaq_records_of_seed_1_are_pinned() {
    let mut g = NasdaqGenerator::new(1, NasdaqConfig::default());
    let mut h = Fnv::new();
    for _ in 0..RECORDS {
        let r = g.next_record();
        h.field(r.symbol.as_bytes());
        h.field(&r.side.code().to_le_bytes());
        h.field(&r.price.to_bits().to_le_bytes());
        h.field(&r.volume.to_le_bytes());
        h.field(&r.ts.to_le_bytes());
        h.field(&[u8::from(r.valid)]);
    }
    assert_eq!(h.0, NASDAQ_SEED_1, "got {:#018x}", h.0);
}

#[test]
fn the_first_didi_records_of_seed_1_are_pinned() {
    let mut locations = DidiGenerator::new(1, DidiConfig::default());
    let mut h = Fnv::new();
    for _ in 0..RECORDS {
        let r = locations.next_location();
        h.field(&r.driver_id.to_le_bytes());
        h.field(&r.lat.to_bits().to_le_bytes());
        h.field(&r.lng.to_bits().to_le_bytes());
        h.field(&r.ts.to_le_bytes());
    }
    assert_eq!(h.0, DIDI_LOCATIONS_SEED_1, "got {:#018x}", h.0);
    let mut orders = DidiGenerator::new(1, DidiConfig::default());
    let mut h = Fnv::new();
    for _ in 0..RECORDS {
        let r = orders.next_order();
        h.field(&r.order_id.to_le_bytes());
        h.field(&r.lat.to_bits().to_le_bytes());
        h.field(&r.lng.to_bits().to_le_bytes());
        h.field(&r.ts.to_le_bytes());
    }
    assert_eq!(h.0, DIDI_ORDERS_SEED_1, "got {:#018x}", h.0);
}

const NASDAQ_SEED_1: u64 = 0xf479_81c8_8f56_7dc7;
const DIDI_LOCATIONS_SEED_1: u64 = 0x6bf7_5b4e_6052_f5c9;
const DIDI_ORDERS_SEED_1: u64 = 0x102a_1a11_f855_2bf3;
