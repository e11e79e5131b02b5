//! Trace files: export generated workloads to CSV and replay them.
//!
//! The authors publish their evaluation inputs as a separate Dataset
//! artifact; this module is the equivalent for the synthetic generators —
//! write a reproducible trace once, replay it across experiments (or feed
//! an external tool), byte-identical on every platform.

use crate::didi::{DidiConfig, DidiGenerator, DriverLocation, OrderRequest};
use crate::nasdaq::{NasdaqConfig, NasdaqGenerator, Side, StockRecord};
use std::io::{self, BufRead, Write};

/// Errors from parsing a trace line.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and reason).
    Parse {
        /// Line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// CSV header of driver-location traces.
pub const LOCATION_HEADER: &str = "driver_id,lat,lng,ts";
/// CSV header of order-request traces.
pub const ORDER_HEADER: &str = "order_id,lat,lng,ts";
/// CSV header of stock-record traces.
pub const STOCK_HEADER: &str = "symbol,side,price,volume,ts,valid";

/// Write `count` driver locations from a seeded generator as CSV.
pub fn export_locations<W: Write>(
    out: &mut W,
    seed: u64,
    config: DidiConfig,
    count: u64,
) -> io::Result<()> {
    let mut g = DidiGenerator::new(seed, config);
    writeln!(out, "{LOCATION_HEADER}")?;
    for _ in 0..count {
        let l = g.next_location();
        writeln!(out, "{},{:.6},{:.6},{}", l.driver_id, l.lat, l.lng, l.ts)?;
    }
    Ok(())
}

/// Write `count` passenger requests from a seeded generator as CSV.
pub fn export_orders<W: Write>(
    out: &mut W,
    seed: u64,
    config: DidiConfig,
    count: u64,
) -> io::Result<()> {
    let mut g = DidiGenerator::new(seed, config);
    writeln!(out, "{ORDER_HEADER}")?;
    for _ in 0..count {
        let o = g.next_order();
        writeln!(out, "{},{:.6},{:.6},{}", o.order_id, o.lat, o.lng, o.ts)?;
    }
    Ok(())
}

/// Write `count` exchange records from a seeded generator as CSV.
pub fn export_stocks<W: Write>(
    out: &mut W,
    seed: u64,
    config: NasdaqConfig,
    count: u64,
) -> io::Result<()> {
    let mut g = NasdaqGenerator::new(seed, config);
    writeln!(out, "{STOCK_HEADER}")?;
    for _ in 0..count {
        let r = g.next_record();
        writeln!(
            out,
            "{},{},{:.4},{},{},{}",
            r.symbol,
            if r.side == Side::Buy { "B" } else { "S" },
            r.price,
            r.volume,
            r.ts,
            u8::from(r.valid)
        )?;
    }
    Ok(())
}

fn fields(line: &str, expect: usize, lineno: usize) -> Result<Vec<&str>, TraceError> {
    let parts: Vec<&str> = line.split(',').collect();
    if parts.len() != expect {
        return Err(TraceError::Parse {
            line: lineno,
            reason: format!("expected {expect} fields, found {}", parts.len()),
        });
    }
    Ok(parts)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str, lineno: usize) -> Result<T, TraceError> {
    s.parse().map_err(|_| TraceError::Parse {
        line: lineno,
        reason: format!("bad {what}: {s:?}"),
    })
}

/// Read a driver-location trace.
pub fn import_locations<R: BufRead>(input: R) -> Result<Vec<DriverLocation>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if i == 0 {
            if line.trim() != LOCATION_HEADER {
                return Err(TraceError::Parse {
                    line: 1,
                    reason: format!("bad header {line:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let f = fields(&line, 4, i + 1)?;
        out.push(DriverLocation {
            driver_id: parse(f[0], "driver_id", i + 1)?,
            lat: parse(f[1], "lat", i + 1)?,
            lng: parse(f[2], "lng", i + 1)?,
            ts: parse(f[3], "ts", i + 1)?,
        });
    }
    Ok(out)
}

/// Read an order-request trace.
pub fn import_orders<R: BufRead>(input: R) -> Result<Vec<OrderRequest>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if i == 0 {
            if line.trim() != ORDER_HEADER {
                return Err(TraceError::Parse {
                    line: 1,
                    reason: format!("bad header {line:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let f = fields(&line, 4, i + 1)?;
        out.push(OrderRequest {
            order_id: parse(f[0], "order_id", i + 1)?,
            lat: parse(f[1], "lat", i + 1)?,
            lng: parse(f[2], "lng", i + 1)?,
            ts: parse(f[3], "ts", i + 1)?,
        });
    }
    Ok(out)
}

/// Read a stock-record trace.
pub fn import_stocks<R: BufRead>(input: R) -> Result<Vec<StockRecord>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if i == 0 {
            if line.trim() != STOCK_HEADER {
                return Err(TraceError::Parse {
                    line: 1,
                    reason: format!("bad header {line:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let f = fields(&line, 6, i + 1)?;
        let side = match f[1] {
            "B" => Side::Buy,
            "S" => Side::Sell,
            other => {
                return Err(TraceError::Parse {
                    line: i + 1,
                    reason: format!("bad side {other:?}"),
                })
            }
        };
        let valid_raw: u8 = parse(f[5], "valid", i + 1)?;
        out.push(StockRecord {
            symbol: f[0].into(),
            side,
            price: parse(f[2], "price", i + 1)?,
            volume: parse(f[3], "volume", i + 1)?,
            ts: parse(f[4], "ts", i + 1)?,
            valid: valid_raw != 0,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn locations_roundtrip() {
        let mut buf = Vec::new();
        export_locations(&mut buf, 7, DidiConfig::default(), 200).unwrap();
        let records = import_locations(BufReader::new(&buf[..])).unwrap();
        assert_eq!(records.len(), 200);
        // Same seed reproduces the same stream (ts exact; coords to the
        // 1e-6 precision of the CSV).
        let mut g = DidiGenerator::new(7, DidiConfig::default());
        for r in &records {
            let expect = g.next_location();
            assert_eq!(r.driver_id, expect.driver_id);
            assert_eq!(r.ts, expect.ts);
            assert!((r.lat - expect.lat).abs() < 1e-5);
            assert!((r.lng - expect.lng).abs() < 1e-5);
        }
    }

    #[test]
    fn orders_roundtrip() {
        let mut buf = Vec::new();
        export_orders(&mut buf, 9, DidiConfig::default(), 50).unwrap();
        let records = import_orders(BufReader::new(&buf[..])).unwrap();
        assert_eq!(records.len(), 50);
        assert_eq!(records[0].order_id, 1);
    }

    #[test]
    fn stocks_roundtrip() {
        let mut buf = Vec::new();
        export_stocks(&mut buf, 3, NasdaqConfig::default(), 300).unwrap();
        let records = import_stocks(BufReader::new(&buf[..])).unwrap();
        assert_eq!(records.len(), 300);
        let mut g = NasdaqGenerator::new(3, NasdaqConfig::default());
        for r in &records {
            let expect = g.next_record();
            assert_eq!(r.symbol, expect.symbol);
            assert_eq!(r.side, expect.side);
            assert_eq!(r.volume, expect.volume);
            assert_eq!(r.valid, expect.valid);
            assert!((r.price - expect.price).abs() < 1e-3);
        }
    }

    #[test]
    fn bad_header_rejected() {
        let data = b"not,a,header\n1,2,3,4\n";
        let err = import_locations(BufReader::new(&data[..])).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn wrong_field_count_rejected() {
        let data = format!("{LOCATION_HEADER}\n1,2,3\n");
        let err = import_locations(BufReader::new(data.as_bytes())).unwrap_err();
        match err {
            TraceError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("expected 4"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn bad_number_rejected() {
        let data = format!("{LOCATION_HEADER}\nxyz,39.9,116.3,5\n");
        let err = import_locations(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("driver_id"));
    }

    #[test]
    fn bad_side_rejected() {
        let data = format!("{STOCK_HEADER}\nSYM0001,Q,10.0,5,1,1\n");
        let err = import_stocks(BufReader::new(data.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("bad side"));
    }

    #[test]
    fn blank_lines_skipped() {
        let data = format!("{ORDER_HEADER}\n1,39.9,116.3,5\n\n2,39.8,116.2,6\n");
        let records = import_orders(BufReader::new(data.as_bytes())).unwrap();
        assert_eq!(records.len(), 2);
    }
}
