//! `--compare <a.jsonl> <b.jsonl>`: two sets of result records (written
//! with `--out`), one row per (workload, metric), judged by the bounds
//! `BENCHMARK.json` fixes.

use crate::json;
use crate::stats::{median, spread_share};
use std::collections::BTreeMap;
use whale_sim::JsonValue;

/// One `--out` record, reduced to what a comparison needs.
#[derive(Debug, Default)]
struct Record {
    workload: String,
    /// Metric → reported value.
    values: BTreeMap<String, f64>,
    /// Metric → the per-segment values the reported one was picked from.
    segments: BTreeMap<String, Vec<f64>>,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics: informational, never a verdict.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs disagree with themselves by more than the bound, so no
    /// difference that small can be called.
    Unresolved,
    Informational,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Informational => "-",
        }
    }
}

pub fn declared_metrics(benchmark_json: &str) -> Result<(Vec<String>, Vec<Declared>), String> {
    let doc = json::parse(benchmark_json)?;
    let list = |key: &str| {
        json::get(&doc, key)
            .and_then(json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
    };
    let text = |v: &JsonValue, key: &str| {
        json::get(v, key)
            .and_then(json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("entry without {key:?}"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let mut metrics = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in list(key)? {
            metrics.push(Declared {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: json::get(m, "bound").and_then(json::as_f64),
            });
        }
    }
    Ok((workloads, metrics))
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let mut rec = Record {
            workload: json::get(&doc, "workload")
                .and_then(json::as_str)
                .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?
                .to_string(),
            ..Record::default()
        };
        if let Some(JsonValue::Object(metrics)) = json::get(&doc, "metrics") {
            for (name, m) in metrics {
                if let Some(v) = json::get(m, "value").and_then(json::as_f64) {
                    rec.values.insert(name.clone(), v);
                }
            }
        }
        if let Some(JsonValue::Object(segments)) = json::get(&doc, "segments") {
            for (name, vs) in segments {
                let vs = json::as_array(vs).unwrap_or(&[]);
                rec.segments
                    .insert(name.clone(), vs.iter().filter_map(json::as_f64).collect());
            }
        }
        records.push(rec);
    }
    Ok(records)
}

/// The value a set reports for a metric (median over its records) and
/// how far the set disagrees with itself: the interquartile share over
/// the records when there are at least four, otherwise the range over
/// the segments inside them.
fn summarize(records: &[&Record], metric: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> = records
        .iter()
        .filter_map(|r| r.values.get(metric).copied())
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = if values.len() >= 4 {
        spread_share(&values)
    } else {
        records
            .iter()
            .filter_map(|r| r.segments.get(metric))
            .map(|s| spread_share(s))
            .fold(0.0, f64::max)
    };
    Some((median(&values), spread))
}

fn of_workload<'a>(set: &'a [Record], workload: &str) -> Vec<&'a Record> {
    set.iter().filter(|r| r.workload == workload).collect()
}

pub fn judge(metric: &Declared, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let worse_by = if a == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let verdict = match metric.bound {
        None => Verdict::Informational,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        Some(_) => Verdict::Ok,
    };
    (worse_by, verdict)
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(a_path: &str, b_path: &str, benchmark_json_path: &str) -> Result<bool, String> {
    let declared = std::fs::read_to_string(benchmark_json_path)
        .map_err(|e| format!("{benchmark_json_path}: {e}"))?;
    let (workloads, metrics) = declared_metrics(&declared)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "base a = {a_path} ({} records), b = {b_path} ({} records)",
        a.len(),
        b.len()
    );
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "spread", "bound"
    );
    let mut clean = true;
    for w in &workloads {
        let (ra, rb) = (of_workload(&a, w), of_workload(&b, w));
        for m in &metrics {
            let (Some((va, sa)), Some((vb, sb))) =
                (summarize(&ra, &m.name), summarize(&rb, &m.name))
            else {
                continue;
            };
            let spread = sa.max(sb);
            let (_, verdict) = judge(m, va, vb, spread);
            clean &= verdict != Verdict::Regressed;
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            println!(
                "{:<14} {:<34} {:>14.4} {:>14.4} {:>9.4} {:>7.1}% {:>7}  {}",
                w,
                format!("{} [{}]", m.name, m.unit),
                va,
                vb,
                ratio,
                spread * 100.0,
                m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: Option<f64>) -> Declared {
        Declared {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Throughput down 20 % against a 10 % bound.
        assert_eq!(
            judge(&metric(true, Some(0.1)), 100.0, 80.0, 0.02).1,
            Verdict::Regressed
        );
        // Latency down is an improvement, whatever its size.
        assert_eq!(
            judge(&metric(false, Some(0.1)), 100.0, 50.0, 0.02).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&metric(false, Some(0.1)), 100.0, 109.0, 0.02).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&metric(false, Some(0.1)), 100.0, 111.0, 0.02).1,
            Verdict::Regressed
        );
        // Runs that disagree with themselves cannot resolve a 10 % bound.
        assert_eq!(
            judge(&metric(false, Some(0.1)), 100.0, 150.0, 0.3).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&metric(false, None), 100.0, 150.0, 0.0).1,
            Verdict::Informational
        );
        let (worse, _) = judge(&metric(true, Some(0.1)), 200.0, 150.0, 0.0);
        assert!((worse - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_uses_records_from_four_up_and_segments_below() {
        let rec = |v: f64, segs: &[f64]| Record {
            workload: "w".into(),
            values: [("m".to_string(), v)].into(),
            segments: [("m".to_string(), segs.to_vec())].into(),
        };
        let one = [rec(100.0, &[90.0, 100.0, 110.0])];
        let refs: Vec<&Record> = one.iter().collect();
        let (v, s) = summarize(&refs, "m").unwrap();
        assert_eq!(v, 100.0);
        assert!((s - 0.2).abs() < 1e-12);
        let many: Vec<Record> = (1..=10).map(|i| rec(i as f64, &[0.0, 1000.0])).collect();
        let refs: Vec<&Record> = many.iter().collect();
        let (v, s) = summarize(&refs, "m").unwrap();
        assert_eq!(v, 5.5);
        assert!(
            (s - 1.0).abs() < 1e-12,
            "IQR/median over records, not segments"
        );
        assert!(summarize(&refs, "absent").is_none());
    }

    #[test]
    fn reads_the_declared_metrics() {
        let doc = r#"{"workloads":[{"name":"w","why":"x"}],
            "end_to_end":[{"name":"t","unit":"1/s","better":"higher","bound":0.1}],
            "per_layer":[{"name":"l.x","unit":"ns","better":"lower"}]}"#;
        let (workloads, metrics) = declared_metrics(doc).unwrap();
        assert_eq!(workloads, vec!["w"]);
        assert_eq!(metrics[0].bound, Some(0.1));
        assert!(metrics[0].higher_is_better);
        assert_eq!(metrics[1].bound, None);
        assert!(declared_metrics("{}").is_err());
    }
}
