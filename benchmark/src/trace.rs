//! Writes the spans of a traced run: `{name, start, end, parent, seq}`
//! per span, spans of one tuple sharing `(stream, seq)`.

use crate::probe::Span;
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use whale_dsps::Topology;
use whale_sim::JsonValue;

/// Spans written per phase; the file is an explanation aid, the metrics
/// use every span.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// One traced segment's spans under a phase label.
pub struct Phase<'a> {
    pub name: &'static str,
    pub spans: &'a [Span],
}

/// Resolve each span's parent — the span of the same tuple in a
/// component directly upstream, latest one that started before it — and
/// render the phase. Ids index the written array.
fn render_phase(phase: &Phase<'_>, topology: &Topology) -> JsonValue {
    let mut spans: Vec<&Span> = phase.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_ns, s.end_ns));
    let truncated = spans.len() > MAX_SPANS_WRITTEN;
    spans.truncate(MAX_SPANS_WRITTEN);

    let upstream: HashMap<&str, Vec<&str>> = topology
        .components()
        .iter()
        .map(|c| {
            let ups = topology
                .upstream_edges(c.id)
                .iter()
                .map(|e| topology.component_by_id(e.from).name.as_str())
                .collect();
            (c.name.as_str(), ups)
        })
        .collect();
    let mut by_tuple: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (id, s) in spans.iter().enumerate() {
        by_tuple.entry((s.stream, s.seq)).or_default().push(id);
    }
    let rendered = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let ups = upstream.get(&*s.component).map_or(&[][..], Vec::as_slice);
            let parent = by_tuple[&(s.stream, s.seq)]
                .iter()
                .copied()
                .filter(|&p| p != id && ups.contains(&&*spans[p].component))
                .filter(|&p| spans[p].start_ns <= s.start_ns)
                .max_by_key(|&p| spans[p].start_ns);
            JsonValue::Object(vec![
                ("id".into(), JsonValue::UInt(id as u64)),
                ("name".into(), JsonValue::str(&*s.component)),
                ("instance".into(), JsonValue::UInt(s.instance as u64)),
                ("stream".into(), JsonValue::UInt(s.stream as u64)),
                ("seq".into(), JsonValue::UInt(s.seq)),
                ("start".into(), JsonValue::UInt(s.start_ns)),
                ("end".into(), JsonValue::UInt(s.end_ns)),
                (
                    "parent".into(),
                    parent.map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("phase".into(), JsonValue::str(phase.name)),
        (
            "spans_recorded".into(),
            JsonValue::UInt(phase.spans.len() as u64),
        ),
        ("truncated".into(), JsonValue::Bool(truncated)),
        ("spans".into(), JsonValue::Array(rendered)),
    ])
}

pub fn write(
    path: &Path,
    workload: &str,
    seed: u64,
    topology: &Topology,
    phases: &[Phase<'_>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = JsonValue::Object(vec![
        ("workload".into(), JsonValue::str(workload)),
        ("seed".into(), JsonValue::UInt(seed)),
        ("time_unit".into(), JsonValue::str("ns since process start")),
        (
            "phases".into(),
            JsonValue::Array(phases.iter().map(|p| render_phase(p, topology)).collect()),
        ),
    ]);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(doc.to_json_string().as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::{Kind, Workload};

    fn span(component: &str, instance: u32, seq: u64, start_ns: u64) -> Span {
        Span {
            component: component.into(),
            instance,
            stream: 0,
            seq,
            start_ns,
            end_ns: start_ns + 10,
        }
    }

    #[test]
    fn parents_follow_the_topology_within_one_tuple() {
        let topology = Workload::generate(Kind::StockAcklog, 1).topology();
        let spans = vec![
            span("matching", 3, 64, 300),
            span("source", 0, 64, 100),
            span("split_buy", 1, 64, 200),
            span("source", 0, 128, 150),
            span("aggregation", 0, 64, 400),
        ];
        let v = render_phase(
            &Phase {
                name: "saturation",
                spans: &spans,
            },
            &topology,
        );
        let rendered = json::as_array(json::get(&v, "spans").unwrap()).unwrap();
        let field = |i: usize, k: &str| json::get(&rendered[i], k).unwrap().clone();
        // Sorted by start: source(64), source(128), split_buy, matching, aggregation.
        assert_eq!(field(0, "parent"), JsonValue::Null);
        assert_eq!(field(1, "parent"), JsonValue::Null);
        assert_eq!(field(2, "parent"), JsonValue::UInt(0));
        assert_eq!(field(3, "parent"), JsonValue::UInt(2));
        assert_eq!(field(4, "parent"), JsonValue::UInt(3));
        assert_eq!(field(3, "name"), JsonValue::str("matching"));
    }
}
