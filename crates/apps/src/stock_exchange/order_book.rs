//! One symbol's resting sell orders, best ask first: the lowest price,
//! and among equal prices the earliest arrival (price-time priority).
//!
//! A binary heap keyed by `(price, arrival)`: the best ask is its top,
//! resting an order and filling the best ask completely are O(log n),
//! and a partial fill updates the top's volume in place. Prices compare
//! as numbers (`-0.0` and `0.0` are one price); a non-finite price never
//! rests, so the comparison is total.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A resting sell: `volume` shares offered at `price`, the `arrival`-th
/// order to rest in its book.
#[derive(Clone, Copy, Debug)]
struct Ask {
    price: f64,
    arrival: u64,
    volume: i64,
}

/// Ordered so that the heap's greatest element — its top — is the best
/// ask: a lower price is greater, and at equal prices an earlier arrival.
impl Ord for Ask {
    fn cmp(&self, other: &Self) -> Ordering {
        let price = other.price.partial_cmp(&self.price);
        let price = price.expect("only finite prices rest");
        price.then(other.arrival.cmp(&self.arrival))
    }
}

impl PartialOrd for Ask {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ask {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ask {}

#[derive(Debug, Default)]
pub(super) struct OrderBook {
    asks: BinaryHeap<Ask>,
    arrivals: u64,
}

impl OrderBook {
    /// Rest a sell of `volume` shares at `price`. A non-finite price is
    /// refused: it could never be the deterministic best of a book (a NaN
    /// ask used to rest forever and never match).
    pub(super) fn rest(&mut self, price: f64, volume: i64) {
        if !price.is_finite() {
            return;
        }
        let arrival = self.arrivals;
        self.arrivals += 1;
        self.asks.push(Ask {
            price,
            arrival,
            volume,
        });
    }

    /// Match a buy of `volume` shares at limit `limit`: the best ask
    /// fills while it is at or below the limit, until the buy is filled
    /// or no such ask rests. `trade(price, shares)` is called per fill,
    /// in fill order.
    pub(super) fn buy(&mut self, limit: f64, mut volume: i64, mut trade: impl FnMut(f64, i64)) {
        while volume > 0 {
            let best = self.asks.peek_mut();
            let Some(mut best) = best.filter(|best| best.price <= limit) else {
                break;
            };
            let shares = volume.min(best.volume);
            volume -= shares;
            trade(best.price, shares);
            if shares == best.volume {
                PeekMut::pop(best);
            } else {
                best.volume -= shares;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The book as it was a `Vec` scanned per fill, with the tie rule made
    /// explicit (the scan kept whichever equal ask `swap_remove` had left
    /// first) and non-finite asks refused as [`OrderBook::rest`] refuses
    /// them: the reference the heap must trade exactly as.
    #[derive(Default)]
    struct ScanBook {
        asks: Vec<(f64, u64, i64)>,
        arrivals: u64,
    }

    impl ScanBook {
        fn rest(&mut self, price: f64, volume: i64) {
            if price.is_finite() {
                self.asks.push((price, self.arrivals, volume));
                self.arrivals += 1;
            }
        }

        fn buy(&mut self, limit: f64, mut volume: i64, mut trade: impl FnMut(f64, i64)) {
            while volume > 0 {
                let best = (self.asks.iter().enumerate())
                    .filter(|(_, &(price, _, _))| price <= limit)
                    .min_by(|(_, a), (_, b)| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                let Some((at, &(price, _, offered))) = best else {
                    break;
                };
                let shares = volume.min(offered);
                volume -= shares;
                trade(price, shares);
                if shares == offered {
                    self.asks.swap_remove(at);
                } else {
                    self.asks[at].2 -= shares;
                }
            }
        }
    }

    fn trades(book: &mut OrderBook, limit: f64, volume: i64) -> Vec<(f64, i64)> {
        let mut out = Vec::new();
        book.buy(limit, volume, |price, shares| out.push((price, shares)));
        out
    }

    #[test]
    fn equal_asks_fill_in_arrival_order() {
        let mut book = OrderBook::default();
        book.rest(10.0, 5); // arrival 0
        book.rest(9.0, 1);
        book.rest(10.0, 7); // arrival 2
        book.rest(-0.0, 2);
        book.rest(0.0, 3); // the same price as -0.0, later
        assert_eq!(trades(&mut book, 0.0, 4), [(-0.0, 2), (0.0, 2)]);
        // The partial fill left the 0.0 ask on top with one share.
        assert_eq!(
            trades(&mut book, 20.0, 8),
            [(0.0, 1), (9.0, 1), (10.0, 5), (10.0, 1)]
        );
        assert_eq!(trades(&mut book, 20.0, 100), [(10.0, 6)]);
        assert!(trades(&mut book, f64::INFINITY, 1).is_empty());
    }

    #[test]
    fn a_non_finite_ask_never_rests_and_a_nan_bid_never_trades() {
        let mut book = OrderBook::default();
        for price in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            book.rest(price, 10);
        }
        assert!(trades(&mut book, f64::INFINITY, 10).is_empty());
        book.rest(1.0, 10);
        assert!(trades(&mut book, f64::NAN, 10).is_empty());
        assert_eq!(trades(&mut book, f64::INFINITY, 10), [(1.0, 10)]);
    }

    /// A price from a handful of levels (so equal prices are common),
    /// now and then a signed zero or a non-finite one.
    fn price() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..6).prop_map(|level| 10.0 + 0.25 * level as f64),
            (0u32..6).prop_map(|level| 10.0 + 0.25 * level as f64),
            (0u32..6).prop_map(|level| 10.0 + 0.25 * level as f64),
            any::<bool>().prop_map(|neg| if neg { -0.0 } else { 0.0 }),
            (0u32..3).prop_map(|i| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i as usize]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sells and buys, equal and non-finite prices included:
        /// the heap makes the reference scan's trades, in its order.
        #[test]
        fn ordered_book_equals_the_reference_scan(
            orders in proptest::collection::vec((any::<bool>(), price(), 1i64..40), 1..120),
        ) {
            let (mut book, mut scan) = (OrderBook::default(), ScanBook::default());
            for (i, &(sell, price, volume)) in orders.iter().enumerate() {
                if sell {
                    book.rest(price, volume);
                    scan.rest(price, volume);
                    continue;
                }
                let mut expected = Vec::new();
                scan.buy(price, volume, |p, shares| expected.push((p.to_bits(), shares)));
                let got = trades(&mut book, price, volume);
                let got: Vec<_> = got.into_iter().map(|(p, s)| (p.to_bits(), s)).collect();
                prop_assert_eq!(got, expected, "order {}", i);
            }
        }
    }
}
