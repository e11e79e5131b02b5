//! The stock exchange application (§5.1).
//!
//! A source reads exchange records; a split operator filters out records
//! violating trading rules and divides the stream by side. Sell orders
//! are partitioned to the matching operator by **key grouping** on the
//! symbol; buy orders are **all-grouped** (broadcast) so any instance
//! holding the symbol's book can match them — the one-to-many pattern
//! under evaluation. The matching operator joins the two streams into
//! executed trades and an aggregation operator computes real-time trading
//! volume.

mod order_book;

use crate::{owned_field, Field, NO_DEFERRED_DECODE};
use order_book::OrderBook;
use std::collections::HashMap;
use std::sync::Arc;
use whale_dsps::{
    Bolt, DecodeError, Emitter, Grouping, LazyTuple, Operators, Schema, Spout, Topology,
    TopologyBuilder, Tuple, Value,
};
use whale_workloads::{NasdaqConfig, NasdaqGenerator, Side};

/// Schema of raw and split exchange records.
pub fn record_schema() -> Schema {
    whale_workloads::nasdaq::stock_schema()
}

/// Schema of executed trades: `(symbol, price, volume)`.
pub fn trade_schema() -> Schema {
    Schema::new(vec!["symbol", "price", "volume"])
}

/// Build the stock exchange topology:
/// `source → split_sell --Fields(symbol)--> matching`,
/// `source → split_buy --All--> matching`, `matching → aggregation`.
///
/// The split operator is realized as two filter bolts (one per side)
/// because an edge carries exactly one grouping; together they are the
/// paper's "split" stage.
pub fn topology(matching_parallelism: u32) -> Topology {
    let mut b = TopologyBuilder::new();
    b.spout("source", 1, record_schema())
        .bolt("split_sell", 2, record_schema())
        .bolt("split_buy", 2, record_schema())
        .bolt("matching", matching_parallelism, trade_schema())
        .bolt("aggregation", 1, trade_schema())
        .connect("source", "split_sell", Grouping::Shuffle)
        .connect("source", "split_buy", Grouping::Shuffle)
        .connect("split_sell", "matching", Grouping::Fields(0))
        .connect("split_buy", "matching", Grouping::All)
        .connect("matching", "aggregation", Grouping::Shuffle);
    b.build().expect("stock exchange topology is valid")
}

/// Spout reading exchange records from the generator.
pub struct ExchangeSpout {
    gen: NasdaqGenerator,
    remaining: u64,
    next_id: u64,
}

impl ExchangeSpout {
    /// Emit `count` records from the seeded generator.
    pub fn new(seed: u64, config: NasdaqConfig, count: u64) -> Self {
        ExchangeSpout {
            gen: NasdaqGenerator::new(seed, config),
            remaining: count,
            next_id: 1,
        }
    }
}

impl Spout for ExchangeSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let r = self.gen.next_record();
        let id = self.next_id;
        self.next_id += 1;
        Some(r.to_tuple(id))
    }
}

/// Field positions of [`record_schema`].
const SYMBOL: usize = 0;
const SIDE: usize = 1;
const PRICE: usize = 2;
const VOLUME: usize = 3;
const VALID: usize = 5;
/// Field position of the share count in [`trade_schema`].
const TRADED: usize = 2;

/// Filter bolt keeping only valid records of one side, passed on as they
/// arrived: a record read off the wire is forwarded, never decoded.
pub struct SplitBolt {
    side: Side,
}

impl SplitBolt {
    /// Keep only `side` records that comply with trading rules.
    pub fn new(side: Side) -> Self {
        SplitBolt { side }
    }

    /// Whether this split passes the record on: two fields decide.
    fn keeps<'a>(&self, field: impl Fn(usize) -> Field<'a>) -> Result<bool, DecodeError> {
        let side = field(SIDE)?.and_then(|v| v.as_i64());
        let side = side.and_then(Side::from_code).expect("side field");
        let valid = field(VALID)?.and_then(|v| v.as_bool());
        Ok(valid.expect("valid field") && side == self.side)
    }
}

impl Bolt for SplitBolt {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        if self
            .keeps(|i| owned_field(input, i))
            .expect(NO_DEFERRED_DECODE)
        {
            out.emit(input.clone());
        }
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        // `LazyTuple::field` reads a wire handle's block in place.
        if self.keeps(|i| input.field(i).transpose())? {
            out.forward(input)?;
        }
        Ok(())
    }
}

/// The matching bolt: keeps per-symbol books of resting sell orders and
/// matches broadcast buys against them, emitting executed trades.
///
/// Sells arrive key-grouped (each symbol's book lives on one instance);
/// buys arrive broadcast, and only the instance owning the symbol's book
/// produces trades for them — the others look the symbol up and are done,
/// having read two fields and allocated nothing. A buy fills against the
/// lowest asks it can pay, equal asks in the order they arrived
/// (price-time priority); an ask with a non-finite price never rests.
#[derive(Default)]
pub struct MatchingBolt {
    /// Symbol → the symbol again (one allocation, made when the symbol's
    /// first sell rests, shared by every trade on it) and its book.
    /// Looked up with the borrowed symbol.
    books: HashMap<Arc<str>, (Arc<str>, OrderBook)>,
}

impl MatchingBolt {
    /// New empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_record<'a>(
        &mut self,
        id: u64,
        field: impl Fn(usize) -> Field<'a>,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        let side = field(SIDE)?.and_then(|v| v.as_i64());
        let side = side.and_then(Side::from_code).expect("side field");
        let symbol = field(SYMBOL)?.and_then(|v| v.as_str());
        let symbol = symbol.expect("symbol field");
        let order = || -> Result<(f64, i64), DecodeError> {
            let price = field(PRICE)?.and_then(|v| v.as_f64());
            let volume = field(VOLUME)?.and_then(|v| v.as_i64());
            Ok((price.expect("price field"), volume.expect("volume field")))
        };
        match (side, self.books.get_mut(symbol)) {
            // This instance does not own the symbol's book.
            (Side::Buy, None) => {}
            (Side::Buy, Some((symbol, book))) => {
                let (limit, volume) = order()?;
                book.buy(limit, volume, |price, shares| {
                    let trade = vec![
                        Value::Str(Arc::clone(symbol)),
                        Value::F64(price),
                        Value::I64(shares),
                    ];
                    out.emit(Tuple::with_id(id, trade));
                });
            }
            (Side::Sell, Some((_, book))) => {
                let (price, volume) = order()?;
                book.rest(price, volume);
            }
            (Side::Sell, None) => {
                let (price, volume) = order()?;
                let mut book = OrderBook::default();
                book.rest(price, volume);
                let symbol: Arc<str> = symbol.into();
                self.books.insert(Arc::clone(&symbol), (symbol, book));
            }
        }
        Ok(())
    }
}

impl Bolt for MatchingBolt {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        self.on_record(input.id, |i| owned_field(input, i), out)
            .expect(NO_DEFERRED_DECODE)
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        self.on_record(input.id(), |i| input.field(i).transpose(), out)
    }
}

/// The aggregation bolt: real-time trading volume per symbol.
#[derive(Default)]
pub struct VolumeBolt {
    /// Looked up with the borrowed symbol: a symbol is allocated once,
    /// at its first trade.
    volume: HashMap<Box<str>, i64>,
}

impl VolumeBolt {
    /// New empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_trade<'a>(&mut self, field: impl Fn(usize) -> Field<'a>) -> Result<(), DecodeError> {
        let symbol = field(SYMBOL)?.and_then(|v| v.as_str());
        let symbol = symbol.expect("symbol field");
        let shares = field(TRADED)?.and_then(|v| v.as_i64());
        let shares = shares.expect("volume field");
        match self.volume.get_mut(symbol) {
            Some(total) => *total += shares,
            None => {
                self.volume.insert(symbol.into(), shares);
            }
        }
        Ok(())
    }
}

impl Bolt for VolumeBolt {
    fn execute(&mut self, input: &Tuple, _out: &mut dyn Emitter) {
        self.on_trade(|i| owned_field(input, i))
            .expect(NO_DEFERRED_DECODE)
    }

    fn execute_lazy(
        &mut self,
        input: &LazyTuple,
        _out: &mut dyn Emitter,
    ) -> Result<(), DecodeError> {
        self.on_trade(|i| input.field(i).transpose())
    }

    fn finish(&mut self, out: &mut dyn Emitter) {
        let mut rows: Vec<_> = self.volume.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        for (sym, &vol) in rows {
            out.emit(Tuple::new(vec![
                Value::str(&**sym),
                Value::F64(0.0),
                Value::I64(vol),
            ]));
        }
    }
}

/// Operator factories for the live runtime.
pub fn operators(seed: u64, config: NasdaqConfig, records: u64) -> Operators {
    Operators::new()
        .spout("source", move |task_idx| {
            Box::new(ExchangeSpout::new(seed + task_idx as u64, config, records))
        })
        .bolt("split_sell", |_| Box::new(SplitBolt::new(Side::Sell)))
        .bolt("split_buy", |_| Box::new(SplitBolt::new(Side::Buy)))
        .bolt("matching", |_| Box::new(MatchingBolt::new()))
        .bolt("aggregation", |_| Box::new(VolumeBolt::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::assert_lazy_equals_eager;
    use whale_dsps::VecEmitter;
    use whale_workloads::StockRecord;

    fn record(symbol: &str, side: Side, price: f64, volume: i64, valid: bool) -> Tuple {
        StockRecord {
            symbol: symbol.into(),
            side,
            price,
            volume,
            ts: 0,
            valid,
        }
        .to_tuple(1)
    }

    #[test]
    fn topology_shape() {
        let t = topology(32);
        assert_eq!(t.tasks_of("matching").len(), 32);
        let matching = t.component("matching").unwrap().id;
        let ups = t.upstream_edges(matching);
        assert_eq!(ups.len(), 2);
        assert!(ups.iter().any(|e| e.grouping == Grouping::All));
        assert!(ups.iter().any(|e| e.grouping == Grouping::Fields(0)));
    }

    #[test]
    fn split_filters_side_and_validity() {
        let mut sell = SplitBolt::new(Side::Sell);
        let mut out = VecEmitter::default();
        sell.execute(&record("A", Side::Sell, 10.0, 5, true), &mut out);
        sell.execute(&record("A", Side::Buy, 10.0, 5, true), &mut out);
        sell.execute(&record("A", Side::Sell, 10.0, 5, false), &mut out);
        assert_eq!(out.emitted.len(), 1);
    }

    #[test]
    fn matching_executes_trade_when_prices_cross() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&record("A", Side::Sell, 10.0, 100, true), &mut out);
        assert!(out.emitted.is_empty());
        m.execute(&record("A", Side::Buy, 10.5, 40, true), &mut out);
        assert_eq!(out.emitted.len(), 1);
        let trade = &out.emitted[0];
        assert_eq!(trade.get(0).unwrap().as_str(), Some("A"));
        assert_eq!(trade.get(1).unwrap().as_f64(), Some(10.0));
        assert_eq!(trade.get(2).unwrap().as_i64(), Some(40));
    }

    #[test]
    fn matching_rejects_price_below_ask() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&record("A", Side::Sell, 10.0, 100, true), &mut out);
        m.execute(&record("A", Side::Buy, 9.5, 40, true), &mut out);
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn buy_sweeps_multiple_sells_cheapest_first() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&record("A", Side::Sell, 10.0, 30, true), &mut out);
        m.execute(&record("A", Side::Sell, 9.0, 30, true), &mut out);
        m.execute(&record("A", Side::Buy, 10.0, 50, true), &mut out);
        assert_eq!(out.emitted.len(), 2);
        // Cheapest (9.0) filled first, then 20 shares at 10.0.
        assert_eq!(out.emitted[0].get(1).unwrap().as_f64(), Some(9.0));
        assert_eq!(out.emitted[0].get(2).unwrap().as_i64(), Some(30));
        assert_eq!(out.emitted[1].get(2).unwrap().as_i64(), Some(20));
    }

    #[test]
    fn unknown_symbol_buy_is_ignored() {
        let mut m = MatchingBolt::new();
        let mut out = VecEmitter::default();
        m.execute(&record("GHOST", Side::Buy, 99.0, 10, true), &mut out);
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn volume_aggregates_per_symbol() {
        let mut v = VolumeBolt::new();
        let mut out = VecEmitter::default();
        let trade =
            |s: &str, q: i64| Tuple::new(vec![Value::str(s), Value::F64(1.0), Value::I64(q)]);
        v.execute(&trade("A", 10), &mut out);
        v.execute(&trade("B", 5), &mut out);
        v.execute(&trade("A", 7), &mut out);
        v.finish(&mut out);
        assert_eq!(out.emitted.len(), 2);
        assert_eq!(out.emitted[0].get(2).unwrap().as_i64(), Some(17));
        assert_eq!(out.emitted[1].get(2).unwrap().as_i64(), Some(5));
    }

    #[test]
    fn end_to_end_live_run() {
        let t = topology(8);
        let ops = operators(21, NasdaqConfig::default(), 2_000);
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
        // Source emitted everything; splits each saw all 2000.
        assert_eq!(report.spout_emitted, 2_000);
        assert_eq!(report.executed[1] + report.executed[2], 4_000);
        // Matching: sells key-grouped once each; buys broadcast ×8.
        // With ~49% valid per side, expect roughly 980 + 980*8.
        let matched = report.executed[3];
        assert!(
            (7_000..10_500).contains(&matched),
            "matching executions = {matched}"
        );
        // Trades happened and were aggregated.
        assert!(report.executed[4] > 100, "trades = {}", report.executed[4]);
        // Every bolt read its fields off the wire view.
        assert_eq!(report.tuples_materialized, 0);
    }

    #[test]
    fn stock_entry_points_agree() {
        // A small pool cycled three times, as the benchmark cycles its
        // own: every sell rests again at exactly a price it rested at.
        let config = NasdaqConfig {
            symbols: 12,
            ..NasdaqConfig::default()
        };
        let mut gen = NasdaqGenerator::new(5, config);
        let pool: Vec<StockRecord> = (0..300).map(|_| gen.next_record()).collect();
        let records: Vec<Tuple> = (0..3)
            .flat_map(|_| &pool)
            .enumerate()
            .map(|(i, r)| r.to_tuple(i as u64 + 1))
            .collect();
        let sells = assert_lazy_equals_eager(|| SplitBolt::new(Side::Sell), &records);
        let buys = assert_lazy_equals_eager(|| SplitBolt::new(Side::Buy), &records);
        // Matching sees what the splits pass, in arrival order.
        let passed: Vec<Tuple> = (records.iter())
            .filter(|t| sells.contains(t) || buys.contains(t))
            .cloned()
            .collect();
        assert_eq!(passed.len(), sells.len() + buys.len());
        let asks: Vec<(&str, u64)> = (sells.iter())
            .map(|t| {
                (
                    t.get(SYMBOL).unwrap().as_str().unwrap(),
                    t.get(PRICE).unwrap().as_f64().unwrap().to_bits(),
                )
            })
            .collect();
        let ties = (1..asks.len())
            .filter(|&i| asks[..i].contains(&asks[i]))
            .count();
        assert!(
            ties > sells.len() / 2,
            "{ties} asks at a price an earlier ask of the symbol had"
        );
        let trades = assert_lazy_equals_eager(MatchingBolt::new, &passed);
        assert!(trades.len() > 100, "{} trades", trades.len());
        let totals = assert_lazy_equals_eager(VolumeBolt::new, &trades);
        let traded: i64 = (trades.iter())
            .map(|t| t.get(TRADED).unwrap().as_i64().unwrap())
            .sum();
        let summed: i64 = (totals.iter())
            .map(|t| t.get(TRADED).unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(traded, summed);
    }
}
