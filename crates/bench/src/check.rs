//! `whale-bench check`: every committed headline report against a fresh
//! regeneration at the scale it was committed at.
//!
//! Two passes per `BENCH_*.json`. The **invariant** pass reads the
//! regenerated report as a value: schema tag, report name, zero silent
//! loss wherever a `silent_lost*` field appears, and the per-report flags
//! of `RULES`. The **byte** pass compares its rendering with the
//! committed file; a difference is reported with the file and the key it
//! falls under, so a stale headline fails the build instead of waiting
//! for someone to rerun it. A committed `BENCH_*.json` that no registry
//! row writes fails too: a retired report cannot sit stale in the tree.

use crate::experiments::REGISTRY;
use crate::report::{headline_dir, headline_text};
use crate::{Scale, JSON_SCHEMA};
use whale_sim::JsonValue;

/// What the values filed under one key must look like, as compact JSON.
enum Rule<'a> {
    /// The key occurs.
    Present,
    /// The key occurs and every value renders as this.
    All(&'a str),
    /// Some value renders as this.
    Any(&'a str),
}

/// Per-report flags: `(report, key, rule)`.
const RULES: &[(&str, &str, Rule<'static>)] = &[
    ("adaptive", "relay_active", Rule::Any("true")),
    ("one_sided", "crossover_bytes", Rule::Present),
    ("shards", "scaling_curve", Rule::Present),
    ("shards", "one_shard_matches_baseline", Rule::All("true")),
    ("topology", "switched", Rule::Any("true")),
];

/// Every value filed under a key `wanted` accepts, at any depth.
fn collect<'a>(json: &'a JsonValue, wanted: &dyn Fn(&str) -> bool, out: &mut Vec<&'a JsonValue>) {
    match json {
        JsonValue::Object(fields) => {
            for (key, value) in fields {
                if wanted(key) {
                    out.push(value);
                }
                collect(value, wanted, out);
            }
        }
        JsonValue::Array(items) => items.iter().for_each(|v| collect(v, wanted, out)),
        _ => {}
    }
}

/// The invariants `json` breaks as the headline of report `report`, one
/// line each; empty when it holds them all.
pub fn invariant_violations(report: &str, json: &JsonValue) -> Vec<String> {
    let rendered = |key: &str| -> Vec<String> {
        let mut found = Vec::new();
        collect(json, &|k| k == key, &mut found);
        found.iter().map(|v| v.to_json_string()).collect()
    };
    let mut broken = Vec::new();
    let mut require = |key: &str, rule: &Rule| {
        let got = rendered(key);
        let holds = match rule {
            Rule::Present => !got.is_empty(),
            Rule::All(want) => !got.is_empty() && got.iter().all(|v| v == want),
            Rule::Any(want) => got.iter().any(|v| v == want),
        };
        if !holds {
            broken.push(match rule {
                Rule::Present => format!("key {key:?} is missing"),
                Rule::All(want) => format!("every {key:?} must be {want}, got {got:?}"),
                Rule::Any(want) => format!("some {key:?} must be {want}, got {got:?}"),
            });
        }
    };
    let schema = format!("{JSON_SCHEMA:?}");
    let name = format!("{report:?}");
    require("schema", &Rule::All(&schema));
    require("report", &Rule::All(&name));
    require("experiment", &Rule::Present);
    for (_, key, rule) in RULES.iter().filter(|(r, ..)| *r == report) {
        require(key, rule);
    }
    let mut lost = Vec::new();
    collect(json, &|k| k.starts_with("silent_lost"), &mut lost);
    if lost.iter().any(|v| **v != JsonValue::UInt(0)) {
        broken.push("every silent_lost* must be 0".to_string());
    }
    broken
}

/// How the committed text of `file` differs from a fresh regeneration,
/// naming the key the first difference falls under; `None` when the two
/// are byte-identical.
pub fn byte_difference(file: &str, regenerated: &str, committed: &str) -> Option<String> {
    if regenerated == committed {
        return None;
    }
    let (fresh, old) = (regenerated.as_bytes(), committed.as_bytes());
    let at = (0..fresh.len().min(old.len()))
        .find(|&i| fresh[i] != old[i])
        .unwrap_or(fresh.len().min(old.len()));
    let head = String::from_utf8_lossy(&old[..at]);
    let key = head
        .rfind("\":")
        .and_then(|end| head[..end].rfind('"').map(|start| &head[start + 1..end]))
        .unwrap_or("?");
    let around = |text: &[u8]| {
        let window = &text[at.saturating_sub(12)..text.len().min(at + 12)];
        String::from_utf8_lossy(window).into_owned()
    };
    Some(format!(
        "{file}: stale — differs from a fresh regeneration at byte {at}, under key {key:?}: \
         committed …{}…, regenerated …{}…",
        around(old),
        around(fresh)
    ))
}

/// The `report` a headline file must name: `BENCH_<report>.json`.
pub fn report_name(file: &str) -> &str {
    file.trim_start_matches("BENCH_").trim_end_matches(".json")
}

/// One line per headline file in `files` that no [`REGISTRY`] row writes.
fn orphaned_headlines<'a>(files: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let headline = |f: &str| f.starts_with("BENCH_") && f.ends_with(".json");
    let registered = |f: &str| REGISTRY.iter().any(|e| e.headline == Some(f));
    let orphans = files.into_iter().filter(|f| headline(f) && !registered(f));
    orphans
        .map(|f| format!("{f}: no experiment writes it"))
        .collect()
}

/// Regenerate every headline report at the committed scale and check it;
/// returns one line per failure.
pub fn run() -> Vec<String> {
    let dir = headline_dir(Scale::Quick);
    let mut failures = match std::fs::read_dir(&dir) {
        Ok(entries) => {
            let names: Vec<String> = (entries.flatten())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            orphaned_headlines(names.iter().map(String::as_str))
        }
        Err(err) => vec![format!(
            "{}: cannot list headline reports: {err}",
            dir.display()
        )],
    };
    for e in REGISTRY {
        let Some(file) = e.headline else { continue };
        println!("checking {file} ({} {})", e.id, e.name);
        let json = (e.run)(Scale::Quick)
            .headline
            .unwrap_or_else(|| panic!("{}: registered with a headline, produced none", e.name));
        let broken = invariant_violations(report_name(file), &json);
        failures.extend(broken.iter().map(|b| format!("{file}: {b}")));
        match std::fs::read_to_string(dir.join(file)) {
            Ok(committed) => {
                failures.extend(byte_difference(file, &headline_text(&json), &committed))
            }
            Err(err) => failures.push(format!("{file}: no committed report to compare: {err}")),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object;

    fn headline(silent_lost: u64) -> JsonValue {
        let cell = object(&[("mode", &"clean"), ("silent_lost", &silent_lost)]);
        object(&[
            ("schema", &JSON_SCHEMA),
            ("report", &"one_sided"),
            ("experiment", &"live_one_sided"),
            ("crossover_bytes", &16384u64),
            ("speedup", &3.4375),
            ("acceptance_cells", &vec![cell]),
        ])
    }

    #[test]
    fn a_sound_headline_passes_both_passes() {
        let json = headline(0);
        assert_eq!(
            invariant_violations("one_sided", &json),
            Vec::<String>::new()
        );
        let text = headline_text(&json);
        assert_eq!(byte_difference("BENCH_one_sided.json", &text, &text), None);
    }

    #[test]
    fn a_tampered_headline_fails_with_the_file_and_key_named() {
        let text = headline_text(&headline(0));
        let tampered = text.replace("3.4375", "3.4376");
        let msg = byte_difference("BENCH_one_sided.json", &text, &tampered).expect("must differ");
        assert!(msg.contains("BENCH_one_sided.json"), "{msg}");
        assert!(msg.contains("\"speedup\""), "{msg}");
    }

    #[test]
    fn a_silently_lost_tuple_fails_the_invariant_pass() {
        let broken = invariant_violations("one_sided", &headline(1));
        assert_eq!(broken, ["every silent_lost* must be 0"]);
    }

    #[test]
    fn a_headline_no_experiment_writes_fails_the_check() {
        let files = ["BENCH_one_sided.json", "BENCH_retired.json", "README.md"];
        assert_eq!(
            orphaned_headlines(files),
            ["BENCH_retired.json: no experiment writes it"]
        );
    }

    #[test]
    fn schema_report_and_per_report_flags_are_enforced() {
        let wrong_report = invariant_violations("shards", &headline(0));
        assert!(
            wrong_report.iter().any(|b| b.contains("\"report\"")),
            "{wrong_report:?}"
        );
        assert!(
            wrong_report.iter().any(|b| b.contains("scaling_curve")),
            "{wrong_report:?}"
        );
        let cell = |switched: bool| object(&[("switched", &switched)]);
        let topology = object(&[
            ("schema", &JSON_SCHEMA),
            ("report", &"topology"),
            ("experiment", &"live_topology"),
            ("cells", &vec![cell(false), cell(false)]),
        ]);
        let broken = invariant_violations("topology", &topology);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].contains("some \"switched\""), "{broken:?}");
    }
}
