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

use std::collections::HashMap;
use whale_dsps::{
    Bolt, Emitter, Grouping, Operators, Schema, Spout, Topology, TopologyBuilder, Tuple, Value,
};
use whale_workloads::{NasdaqConfig, NasdaqGenerator, Side, StockRecord};

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

/// Filter bolt keeping only valid records of one side.
pub struct SplitBolt {
    side: Side,
    passed: u64,
    filtered: u64,
}

impl SplitBolt {
    /// Keep only `side` records that comply with trading rules.
    pub fn new(side: Side) -> Self {
        SplitBolt {
            side,
            passed: 0,
            filtered: 0,
        }
    }
}

impl Bolt for SplitBolt {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        let r = StockRecord::from_tuple(input).expect("well-formed record");
        if !r.valid || r.side != self.side {
            self.filtered += 1;
            return;
        }
        self.passed += 1;
        out.emit(input.clone());
    }
}

/// The matching bolt: keeps per-symbol books of resting sell orders and
/// matches broadcast buys against them, emitting executed trades.
///
/// Sells arrive key-grouped (each symbol's book lives on one instance);
/// buys arrive broadcast, and only the instance owning the symbol's book
/// produces trades for them.
#[derive(Default)]
pub struct MatchingBolt {
    books: HashMap<String, Vec<(f64, i64)>>,
    trades: u64,
}

impl MatchingBolt {
    /// New empty instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Bolt for MatchingBolt {
    fn execute(&mut self, input: &Tuple, out: &mut dyn Emitter) {
        let r = StockRecord::from_tuple(input).expect("well-formed record");
        match r.side {
            Side::Sell => {
                self.books
                    .entry(r.symbol)
                    .or_default()
                    .push((r.price, r.volume));
            }
            Side::Buy => {
                let Some(book) = self.books.get_mut(&r.symbol) else {
                    return; // this instance does not own the symbol's book
                };
                // Match against the cheapest resting sell the buy can pay.
                let mut remaining = r.volume;
                while remaining > 0 {
                    let Some((best_idx, _)) = book
                        .iter()
                        .enumerate()
                        .filter(|(_, &(p, _))| p <= r.price)
                        .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                    else {
                        break;
                    };
                    let (price, avail) = book[best_idx];
                    let qty = remaining.min(avail);
                    remaining -= qty;
                    if qty == avail {
                        book.swap_remove(best_idx);
                    } else {
                        book[best_idx].1 -= qty;
                    }
                    self.trades += 1;
                    out.emit(Tuple::with_id(
                        input.id,
                        vec![
                            Value::str(r.symbol.as_str()),
                            Value::F64(price),
                            Value::I64(qty),
                        ],
                    ));
                }
            }
        }
    }
}

/// The aggregation bolt: real-time trading volume per symbol.
#[derive(Default)]
pub struct VolumeBolt {
    volume: HashMap<String, i64>,
    total: i64,
}

impl VolumeBolt {
    /// New empty instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Bolt for VolumeBolt {
    fn execute(&mut self, input: &Tuple, _out: &mut dyn Emitter) {
        let sym = input.get(0).and_then(Value::as_str).expect("symbol");
        let vol = input.get(2).and_then(Value::as_i64).expect("volume");
        *self.volume.entry(sym.to_string()).or_insert(0) += vol;
        self.total += vol;
    }

    fn finish(&mut self, out: &mut dyn Emitter) {
        let mut rows: Vec<_> = self.volume.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        for (sym, &vol) in rows {
            out.emit(Tuple::new(vec![
                Value::str(sym.as_str()),
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
    use whale_dsps::VecEmitter;

    fn record(symbol: &str, side: Side, price: f64, volume: i64, valid: bool) -> Tuple {
        StockRecord {
            symbol: symbol.to_string(),
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
    }
}
