//! Synthetic NASDAQ-style stock exchange workload.
//!
//! Stand-in for the authors' one-month trace: 274 M records over 6,649
//! stock symbols, each record `(symbol, side, price, timestamp)`. Symbol
//! popularity is Zipf-skewed (a few tickers dominate volume) and prices
//! follow a per-symbol log-normal baseline with small excursions, so the
//! buy/sell matching operator sees realistic match rates.

use std::sync::Arc;
use whale_dsps::{Schema, Tuple, Value};
use whale_sim::{SimRng, Zipf};

/// Paper-trace constants.
pub mod scale {
    /// Records in the full trace.
    pub const PAPER_RECORDS: u64 = 274_000_000;
    /// Distinct stock symbols.
    pub const PAPER_SYMBOLS: u64 = 6_649;
}

/// Trade side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// A buy order.
    Buy,
    /// A sell order.
    Sell,
}

impl Side {
    /// Encode for tuples: 0 = buy, 1 = sell.
    pub fn code(self) -> i64 {
        match self {
            Side::Buy => 0,
            Side::Sell => 1,
        }
    }

    /// Decode from a tuple field.
    pub fn from_code(c: i64) -> Option<Side> {
        match c {
            0 => Some(Side::Buy),
            1 => Some(Side::Sell),
            _ => None,
        }
    }
}

/// One exchange record.
#[derive(Clone, PartialEq, Debug)]
pub struct StockRecord {
    /// Ticker symbol (e.g. "SYM0042"), shared by every record of the
    /// symbol a generator makes.
    pub symbol: Arc<str>,
    /// Buy or sell.
    pub side: Side,
    /// Limit price.
    pub price: f64,
    /// Shares.
    pub volume: i64,
    /// Event timestamp (ms).
    pub ts: i64,
    /// True if the record complies with trading rules (the split operator
    /// filters out non-compliant ones).
    pub valid: bool,
}

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct NasdaqConfig {
    /// Distinct symbols.
    pub symbols: u64,
    /// Zipf exponent of symbol popularity.
    pub symbol_skew: f64,
    /// Fraction of records violating trading rules (filtered by split).
    pub invalid_rate: f64,
    /// Milliseconds between records.
    pub tick_ms: i64,
}

impl Default for NasdaqConfig {
    fn default() -> Self {
        NasdaqConfig {
            symbols: scale::PAPER_SYMBOLS,
            symbol_skew: 1.0,
            invalid_rate: 0.02,
            tick_ms: 1,
        }
    }
}

/// Deterministic exchange record generator.
#[derive(Clone, Debug)]
pub struct NasdaqGenerator {
    config: NasdaqConfig,
    rng: SimRng,
    symbols: Zipf,
    /// Per-symbol log-price baseline, lazily materialized.
    base_log_price: Vec<f64>,
    /// Each drawn symbol rank's ticker, formatted on the rank's first
    /// draw (the vector grows to the highest rank drawn).
    tickers: Vec<Option<Arc<str>>>,
    now_ms: i64,
    emitted: u64,
}

impl NasdaqGenerator {
    /// Create with a seed.
    pub fn new(seed: u64, config: NasdaqConfig) -> Self {
        let mut rng = SimRng::new(seed);
        let symbols = Zipf::new(config.symbols, config.symbol_skew);
        // Baselines: log-normal around $40 with wide spread across symbols.
        let mut price_rng = rng.fork(0xBEEF);
        let base_log_price = (0..config.symbols)
            .map(|_| price_rng.normal(3.7, 0.8))
            .collect();
        NasdaqGenerator {
            config,
            rng,
            symbols,
            base_log_price,
            tickers: Vec::new(),
            now_ms: 0,
            emitted: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> NasdaqConfig {
        self.config
    }

    /// Next exchange record.
    pub fn next_record(&mut self) -> StockRecord {
        self.now_ms += self.config.tick_ms;
        let sym = self.symbols.sample(&mut self.rng);
        let side = if self.rng.gen_bool(0.5) {
            Side::Buy
        } else {
            Side::Sell
        };
        // Price = symbol baseline with ±1% excursion; buys bid slightly
        // above, sells ask slightly below, so matches occur regularly.
        let base = self.base_log_price[sym as usize].exp();
        let excursion = 1.0 + 0.01 * self.rng.std_normal();
        let tilt = match side {
            Side::Buy => 1.002,
            Side::Sell => 0.998,
        };
        let price = (base * excursion * tilt).max(0.01);
        let volume = 1 + self.rng.gen_range(1_000) as i64;
        let valid = !self.rng.gen_bool(self.config.invalid_rate);
        self.emitted += 1;
        StockRecord {
            symbol: self.ticker(sym),
            side,
            price,
            volume,
            ts: self.now_ms,
            valid,
        }
    }

    /// Records produced so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The ticker of symbol rank `sym`, formatted once per generator.
    fn ticker(&mut self, sym: u64) -> Arc<str> {
        let sym = sym as usize;
        if sym >= self.tickers.len() {
            self.tickers.resize(sym + 1, None);
        }
        let ticker = self.tickers[sym].get_or_insert_with(|| format!("SYM{sym:04}").into());
        Arc::clone(ticker)
    }
}

/// Schema of the exchange stream.
pub fn stock_schema() -> Schema {
    Schema::new(vec!["symbol", "side", "price", "volume", "ts", "valid"])
}

impl StockRecord {
    /// Convert to a tuple (field order matches [`stock_schema`]).
    pub fn to_tuple(&self, id: u64) -> Tuple {
        Tuple::with_id(
            id,
            vec![
                Value::Str(Arc::clone(&self.symbol)),
                Value::I64(self.side.code()),
                Value::F64(self.price),
                Value::I64(self.volume),
                Value::I64(self.ts),
                Value::Bool(self.valid),
            ],
        )
    }

    /// Parse back from a tuple (the symbol shared, not copied).
    pub fn from_tuple(t: &Tuple) -> Option<StockRecord> {
        let Value::Str(symbol) = t.get(0)? else {
            return None;
        };
        Some(StockRecord {
            symbol: Arc::clone(symbol),
            side: Side::from_code(t.get(1)?.as_i64()?)?,
            price: t.get(2)?.as_f64()?,
            volume: t.get(3)?.as_i64()?,
            ts: t.get(4)?.as_i64()?,
            valid: t.get(5)?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = NasdaqGenerator::new(1, NasdaqConfig::default());
        let mut b = NasdaqGenerator::new(1, NasdaqConfig::default());
        for _ in 0..200 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn symbols_bounded_and_skewed() {
        let mut g = NasdaqGenerator::new(2, NasdaqConfig::default());
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let r = g.next_record();
            assert!(r.symbol.starts_with("SYM"));
            *counts.entry(r.symbol).or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap();
        let mean = 20_000.0 / counts.len() as f64;
        assert!(
            max as f64 > 20.0 * mean,
            "Zipf head expected, max={max} mean={mean}"
        );
    }

    #[test]
    fn sides_roughly_balanced() {
        let mut g = NasdaqGenerator::new(3, NasdaqConfig::default());
        let buys = (0..10_000)
            .filter(|_| g.next_record().side == Side::Buy)
            .count();
        assert!((4_500..5_500).contains(&buys), "buys={buys}");
    }

    #[test]
    fn prices_positive_and_per_symbol_stable() {
        let mut g = NasdaqGenerator::new(4, NasdaqConfig::default());
        let mut by_symbol: std::collections::HashMap<Arc<str>, Vec<f64>> = Default::default();
        for _ in 0..20_000 {
            let r = g.next_record();
            assert!(r.price > 0.0);
            by_symbol.entry(r.symbol).or_default().push(r.price);
        }
        // Within a symbol, prices stay within a few percent of each other.
        let (_, prices) = by_symbol.iter().max_by_key(|(_, v)| v.len()).unwrap();
        let min = prices.iter().cloned().fold(f64::MAX, f64::min);
        let max = prices.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.2, "min={min} max={max}");
    }

    #[test]
    fn buys_tilt_above_sells() {
        // Aggregate buy prices should exceed sell prices for a hot symbol,
        // producing regular matches.
        let mut g = NasdaqGenerator::new(5, NasdaqConfig::default());
        let mut buy_sum = 0.0;
        let mut buy_n = 0.0;
        let mut sell_sum = 0.0;
        let mut sell_n = 0.0;
        for _ in 0..50_000 {
            let r = g.next_record();
            if &*r.symbol == "SYM0000" {
                match r.side {
                    Side::Buy => {
                        buy_sum += r.price;
                        buy_n += 1.0;
                    }
                    Side::Sell => {
                        sell_sum += r.price;
                        sell_n += 1.0;
                    }
                }
            }
        }
        assert!(buy_n > 0.0 && sell_n > 0.0);
        assert!(buy_sum / buy_n > sell_sum / sell_n);
    }

    #[test]
    fn invalid_rate_honored() {
        let cfg = NasdaqConfig {
            invalid_rate: 0.2,
            ..Default::default()
        };
        let mut g = NasdaqGenerator::new(6, cfg);
        let invalid = (0..10_000).filter(|_| !g.next_record().valid).count();
        assert!((1_700..2_300).contains(&invalid), "invalid={invalid}");
    }

    #[test]
    fn tuple_roundtrip() {
        let mut g = NasdaqGenerator::new(7, NasdaqConfig::default());
        let r = g.next_record();
        let t = r.to_tuple(5);
        assert_eq!(t.arity(), stock_schema().arity());
        let back = StockRecord::from_tuple(&t).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn side_codes() {
        assert_eq!(Side::from_code(Side::Buy.code()), Some(Side::Buy));
        assert_eq!(Side::from_code(Side::Sell.code()), Some(Side::Sell));
        assert_eq!(Side::from_code(7), None);
    }
}
