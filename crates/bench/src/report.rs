//! Result tables: aligned console output + CSV files under `results/`,
//! each paired with a schema-stable machine-readable JSON report, plus
//! the headline `BENCH_*.json` writer and the [`object`] builder both
//! kinds of report are assembled with.

use crate::Scale;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use whale_core::EngineReport;
use whale_sim::JsonValue;

/// Version tag stamped into every JSON report so downstream tooling can
/// detect layout changes.
pub const JSON_SCHEMA: &str = "whale-bench/v1";

/// One column of [`Table::of`]: its name and the cell a point puts in it.
pub type Column<'a, P> = (&'a str, fn(&P) -> String);

/// A simple column-aligned result table that doubles as a CSV writer.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "fig13".
    pub id: String,
    /// Human title.
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Optional per-run JSON objects (see [`engine_run_json`]) carrying
    /// the full metrics snapshot behind the table's summary rows.
    runs: Vec<JsonValue>,
}

impl Table {
    /// New table with an experiment id, title, and column names.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// A table of one row per point: each column is its name and how a
    /// point renders in it.
    pub fn of<P>(id: &str, title: &str, points: &[P], columns: &[Column<P>]) -> Self {
        let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
        let mut table = Table::new(id, title, &header);
        for p in points {
            table.row_strings(columns.iter().map(|(_, cell)| cell(p)).collect());
        }
        table
    }

    /// Attach one run-level JSON object (typically from
    /// [`engine_run_json`]) to the table's JSON report.
    pub fn attach_run(&mut self, run: JsonValue) {
        self.runs.push(run);
    }

    /// Append a row (stringifies each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Append a row of preformatted strings.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a report object as a row: its values in field order,
    /// strings as they are, everything else as it renders in JSON
    /// (`true`, `42`).
    pub fn row_json(&mut self, record: &JsonValue) {
        let JsonValue::Object(fields) = record else {
            panic!("a table row is built from a JSON object, got {record:?}");
        };
        let cells = fields.iter().map(|(_, v)| match v {
            JsonValue::Str(s) => s.clone(),
            other => other.to_json_string(),
        });
        self.row_strings(cells.collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render aligned for the console.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// CSV serialization.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// The table as a schema-stable JSON report: id, title, columns, each
    /// row as an object (cells parsed to numbers where they are numeric),
    /// and any attached run-level metrics objects. Rendering is fully
    /// deterministic, so two same-seed runs produce byte-identical files.
    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                JsonValue::Object(
                    self.header
                        .iter()
                        .zip(row)
                        .map(|(h, c)| (h.clone(), cell_to_json(c)))
                        .collect(),
                )
            })
            .collect();
        let mut fields = vec![
            ("schema".to_string(), JsonValue::str(JSON_SCHEMA)),
            ("figure".to_string(), JsonValue::str(&self.id)),
            ("title".to_string(), JsonValue::str(&self.title)),
            (
                "columns".to_string(),
                JsonValue::Array(self.header.iter().map(JsonValue::str).collect()),
            ),
            ("rows".to_string(), JsonValue::Array(rows)),
        ];
        if !self.runs.is_empty() {
            fields.push(("runs".to_string(), JsonValue::Array(self.runs.clone())));
        }
        JsonValue::Object(fields)
    }

    /// Print to stdout and write `results/<id>.csv` plus the matching
    /// `results/<id>.json` (or `<id>_<suffix>.{csv,json}`).
    pub fn emit(&self, suffix: Option<&str>) {
        println!("{}", self.render());
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let stem = match suffix {
            Some(s) => format!("{}_{s}", self.id),
            None => self.id.clone(),
        };
        let csv_path = dir.join(format!("{stem}.csv"));
        if let Err(e) = fs::write(&csv_path, self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", csv_path.display());
        } else {
            println!("wrote {}", csv_path.display());
        }
        let json_path = dir.join(format!("{stem}.json"));
        if let Err(e) = fs::write(&json_path, self.to_json().to_json_pretty()) {
            eprintln!("warning: could not write {}: {e}", json_path.display());
        } else {
            println!("wrote {}\n", json_path.display());
        }
    }
}

/// A value a report field can hold, so [`object`] takes plain Rust
/// values and picks the [`JsonValue`] variant itself.
pub trait Json {
    /// The value as JSON.
    fn json(&self) -> JsonValue;
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        }
    )*};
}
json_uint!(u32, u64, usize);

impl Json for f64 {
    fn json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl Json for bool {
    fn json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl Json for &str {
    fn json(&self) -> JsonValue {
        JsonValue::str(*self)
    }
}

impl Json for JsonValue {
    fn json(&self) -> JsonValue {
        self.clone()
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Json::json)
    }
}

impl<T: Json> Json for Vec<T> {
    fn json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Json::json).collect())
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Json::json).collect())
    }
}

/// A JSON object with `fields` in the order given.
pub fn object(fields: &[(&str, &dyn Json)]) -> JsonValue {
    JsonValue::Object(
        fields
            .iter()
            .map(|(key, value)| (key.to_string(), value.json()))
            .collect(),
    )
}

/// A CSV cell as a typed JSON value: unsigned, signed, finite float, or
/// string, in that preference order.
fn cell_to_json(cell: &str) -> JsonValue {
    if let Ok(u) = cell.parse::<u64>() {
        return JsonValue::UInt(u);
    }
    if let Ok(i) = cell.parse::<i64>() {
        return JsonValue::Int(i);
    }
    // Reject float syntax Rust accepts but JSON consumers may not expect
    // from a table cell (inf/nan), keeping those cells as strings.
    if cell.parse::<f64>().is_ok_and(f64::is_finite)
        && cell.chars().all(|c| "0123456789+-.eE".contains(c))
    {
        if let Ok(f) = cell.parse::<f64>() {
            return JsonValue::Float(f);
        }
    }
    JsonValue::str(cell)
}

/// One engine run as a schema-stable JSON object: the acceptance headline
/// numbers (throughput, latency percentiles, queue/CPU gauges, seed) at
/// the top level, plus the engine's full [`MetricsRegistry`] snapshot
/// under `"metrics"`.
///
/// [`MetricsRegistry`]: whale_sim::MetricsRegistry
pub fn engine_run_json(
    figure: &str,
    mode: &str,
    parallelism: u32,
    seed: u64,
    r: &EngineReport,
) -> JsonValue {
    let ns_to_ms = 1e-6;
    let lat = |f: &dyn Fn(&whale_sim::Summary) -> f64| -> Option<f64> {
        let summary = r.metrics.summary("engine.latency_ns")?;
        Some(f(&summary) * ns_to_ms)
    };
    let gauge = |name: &str| r.metrics.gauge(name);
    let latency_ms = object(&[
        ("mean", &lat(&|s| s.mean)),
        ("p50", &lat(&|s| s.p50)),
        ("p95", &lat(&|s| s.p95)),
        ("p99", &lat(&|s| s.p99)),
    ]);
    let queue = object(&[
        ("capacity", &gauge("engine.queue.capacity")),
        ("mean_load_factor", &gauge("engine.queue.mean_load_factor")),
    ]);
    let cpu = object(&[
        ("source", &gauge("engine.cpu.source")),
        ("downstream", &gauge("engine.cpu.downstream")),
        ("dispatcher", &gauge("engine.cpu.dispatcher")),
        ("aggregator", &gauge("engine.cpu.aggregator")),
    ]);
    object(&[
        ("figure", &figure),
        ("mode", &mode),
        ("parallelism", &parallelism),
        ("seed", &seed),
        ("completed", &r.completed),
        ("dropped", &r.dropped),
        ("throughput_tuples_per_s", &r.throughput),
        ("latency_ms", &latency_ms),
        ("queue", &queue),
        ("cpu", &cpu),
        ("elapsed_secs", &r.elapsed.as_secs_f64()),
        ("metrics", &r.metrics.to_json()),
    ])
}

/// Where CSVs land: `$WHALE_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("WHALE_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Where a headline `BENCH_*.json` lands: `$WHALE_BENCH_DIR` if set;
/// otherwise the working directory at the scale the committed reports
/// were generated at (quick), and [`results_dir`] at any other scale, so
/// a smoke or full run never overwrites a committed report.
pub fn headline_dir(scale: Scale) -> PathBuf {
    match std::env::var_os("WHALE_BENCH_DIR") {
        Some(dir) => PathBuf::from(dir),
        None if scale == Scale::Quick => PathBuf::from("."),
        None => results_dir(),
    }
}

/// A headline report as the bytes of its file: compact JSON, one line.
pub fn headline_text(json: &JsonValue) -> String {
    format!("{}\n", json.to_json_string())
}

/// Write the headline report `file` into [`headline_dir`].
pub fn write_headline(scale: Scale, file: &str, json: &JsonValue) {
    let dir = headline_dir(scale);
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(file);
    fs::write(&path, headline_text(json)).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("headline report → {}", path.display());
}

/// Format a tuples/s number compactly.
pub fn fmt_rate(v: f64) -> String {
    if v >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("figX", "demo", &["a", "long_column"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        let r = t.render();
        assert!(r.contains("figX"));
        assert!(r.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("f", "t", &["a,b", "c"]);
        t.row_strings(vec!["x\"y".into(), "z".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
        assert!(csv.contains("\"x\"\"y\",z"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("f", "t", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(12.34), "12.3");
        assert_eq!(fmt_rate(56_600.0), "56.6k");
    }

    #[test]
    fn json_report_schema() {
        let mut t = Table::new("figX", "demo", &["parallelism", "system", "rate"]);
        t.row_strings(vec!["120".into(), "whale".into(), "56.6k".into()]);
        let j = t.to_json().to_json_string();
        assert!(j.contains("\"schema\":\"whale-bench/v1\""), "{j}");
        assert!(j.contains("\"figure\":\"figX\""));
        assert!(j.contains("\"parallelism\":120"));
        // Non-numeric cells stay strings.
        assert!(j.contains("\"rate\":\"56.6k\""));
        // No runs attached → no runs field.
        assert!(!j.contains("\"runs\""));
    }

    #[test]
    fn cells_parse_to_typed_json() {
        assert_eq!(cell_to_json("12"), JsonValue::UInt(12));
        assert_eq!(cell_to_json("-3"), JsonValue::Int(-3));
        assert_eq!(cell_to_json("2.5"), JsonValue::Float(2.5));
        assert_eq!(cell_to_json("inf"), JsonValue::str("inf"));
        assert_eq!(cell_to_json("NaN"), JsonValue::str("NaN"));
        assert_eq!(cell_to_json("56.6k"), JsonValue::str("56.6k"));
    }

    #[test]
    fn engine_run_json_has_acceptance_fields() {
        use whale_core::{run, EngineConfig, SystemMode};
        let r = run(EngineConfig::paper(SystemMode::WhaleFull, 64, 10));
        let j = engine_run_json("fig13", "whale", 64, 42, &r).to_json_string();
        for key in [
            "\"figure\":\"fig13\"",
            "\"mode\":\"whale\"",
            "\"parallelism\":64",
            "\"seed\":42",
            "\"throughput_tuples_per_s\":",
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"mean_load_factor\":",
            "\"dispatcher\":",
            "\"metrics\":",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn same_seed_runs_render_byte_identical_json() {
        use whale_core::{run, EngineConfig, SystemMode};
        let render = || {
            let r = run(EngineConfig::paper(SystemMode::WhaleFull, 64, 10));
            let mut t = Table::new("figX", "demo", &["a"]);
            t.row_strings(vec!["1".into()]);
            t.attach_run(engine_run_json("figX", "whale", 64, 42, &r));
            t.to_json().to_json_pretty()
        };
        assert_eq!(render(), render());
    }
}
