//! One module per paper artifact, and the registry that lists each of
//! them once. `whale-bench run <name|id|all>` runs rows of [`REGISTRY`];
//! DESIGN.md §4 is `whale-bench list`.

use crate::{Scale, Table};
use whale_sim::JsonValue;

pub mod ablations;
pub mod cell;
pub mod common;
pub mod fig02_storm_bottleneck;
pub mod fig03_rdmc_blocking;
pub mod fig11_12_batching;
pub mod fig13_16_applications;
pub mod fig17_22_structures;
pub mod fig23_24_dynamic;
pub mod fig25_28_communication;
pub mod fig29_32_verbs;
pub mod fig33_34_racks;
pub mod live_adaptive;
pub mod live_one_sided;
pub mod live_ring;
pub mod live_shards;
pub mod live_topology;
pub mod live_zero_copy;
pub mod table2_datasets;

/// What one experiment run produces.
pub struct Output {
    /// Result tables, each written as `results/<id>.{csv,json}`.
    pub tables: Vec<Table>,
    /// The headline report, for the experiments that have one
    /// ([`Experiment::headline`] names its file).
    pub headline: Option<JsonValue>,
}

impl From<Vec<Table>> for Output {
    fn from(tables: Vec<Table>) -> Self {
        Output {
            tables,
            headline: None,
        }
    }
}

/// One row of the registry.
pub struct Experiment {
    /// Experiment id, the first of a range one run covers (`"E06"` for
    /// E06–E07).
    pub id: &'static str,
    /// Short name: `whale-bench run <name>`.
    pub name: &'static str,
    /// What it regenerates.
    pub title: &'static str,
    /// File name of its headline report, if it writes one.
    pub headline: Option<&'static str>,
    /// Regenerate it.
    pub run: fn(Scale) -> Output,
}

impl Experiment {
    /// Run at `scale`, print and write every table, and write the
    /// headline report.
    pub fn emit(&self, scale: Scale) {
        let out = (self.run)(scale);
        for table in &out.tables {
            table.emit(None);
        }
        match (self.headline, &out.headline) {
            (Some(file), Some(json)) => crate::write_headline(scale, file, json),
            (None, None) => {}
            _ => panic!(
                "{}: the registry and the run disagree on a headline",
                self.name
            ),
        }
    }
}

/// The row `key` names: a short name or an id, in any case.
pub fn find(key: &str) -> Option<&'static Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.name.eq_ignore_ascii_case(key) || e.id.eq_ignore_ascii_case(key))
}

/// The experiment index as a markdown table: what `whale-bench list`
/// prints and DESIGN.md §4 carries.
pub fn index_table() -> String {
    let mut out = String::from(
        "| Id | `whale-bench run …` | Regenerates | Headline report |\n|---|---|---|---|\n",
    );
    for e in REGISTRY {
        let headline = e.headline.map_or("—".to_string(), |f| format!("`{f}`"));
        out.push_str(&format!(
            "| {} | `{}` | {} | {headline} |\n",
            e.id, e.name, e.title
        ));
    }
    out
}

/// Every experiment, in id order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "E01",
        name: "fig02",
        title: "Fig 2 (E01–E03): Storm's one-to-many bottleneck — throughput, latency, CPU split",
        headline: None,
        run: |s| fig02_storm_bottleneck::run_experiment(s).into(),
    },
    Experiment {
        id: "E04",
        name: "fig03",
        title: "Fig 3: RDMC blocking under dynamic input rate",
        headline: None,
        run: |s| fig03_rdmc_blocking::run_experiment(s).into(),
    },
    Experiment {
        id: "E05",
        name: "table2",
        title: "Table 2: dataset statistics",
        headline: None,
        run: |s| table2_datasets::run_experiment(s).into(),
    },
    Experiment {
        id: "E06",
        name: "fig11_12",
        title: "Figs 11/12 (E06–E07): MMS and WTL sweeps",
        headline: None,
        run: |s| fig11_12_batching::run_experiment(s).into(),
    },
    Experiment {
        id: "E08",
        name: "fig13_14",
        title: "Figs 13/14: ride-hailing throughput & latency, five systems",
        headline: None,
        run: |s| fig13_16_applications::run_ride_hailing(s).into(),
    },
    Experiment {
        id: "E09",
        name: "fig15_16",
        title: "Figs 15/16: stock-exchange throughput & latency, five systems",
        headline: None,
        run: |s| fig13_16_applications::run_stock_exchange(s).into(),
    },
    Experiment {
        id: "E10",
        name: "fig17_18",
        title: "Figs 17/18: multicast structures, ride-hailing",
        headline: None,
        run: |s| fig17_22_structures::run_ride_hailing(s).into(),
    },
    Experiment {
        id: "E11",
        name: "fig19_20",
        title: "Figs 19/20: multicast structures, stock exchange",
        headline: None,
        run: |s| fig17_22_structures::run_stock_exchange(s).into(),
    },
    Experiment {
        id: "E12",
        name: "fig21_22",
        title: "Figs 21/22: average multicast latency",
        headline: None,
        run: |s| fig17_22_structures::run_multicast_latency(s).into(),
    },
    Experiment {
        id: "E13",
        name: "fig23_24",
        title: "Figs 23/24: dynamic streams and self-adjusting switching",
        headline: None,
        run: |s| fig23_24_dynamic::run_experiment(s).into(),
    },
    Experiment {
        id: "E14",
        name: "fig25_26",
        title: "Figs 25/26: communication time and serialization share",
        headline: None,
        run: |s| fig25_28_communication::run_comm_time(s).into(),
    },
    Experiment {
        id: "E15",
        name: "fig27_28",
        title: "Figs 27/28: communication traffic",
        headline: None,
        run: |s| fig25_28_communication::run_traffic(s).into(),
    },
    Experiment {
        id: "E16",
        name: "fig29_32",
        title: "Figs 29–32: verb microbenchmark and DiffVerbs end to end",
        headline: None,
        run: |s| {
            let mut t = fig29_32_verbs::run_verb_micro(s);
            t.extend(fig29_32_verbs::run_diffverbs(s));
            t.into()
        },
    },
    Experiment {
        id: "E17",
        name: "fig33_34",
        title: "Figs 33/34: rack topology sensitivity",
        headline: None,
        run: |s| fig33_34_racks::run_experiment(s).into(),
    },
    Experiment {
        id: "E18",
        name: "ablations",
        title:
            "Ablations beyond the paper: d* sweep, switch strategy (Theorem 3), backpressure window",
        headline: None,
        run: |s| {
            let mut t = ablations::run_dstar_sweep(s);
            t.extend(ablations::run_switch_strategy(s));
            t.extend(ablations::run_window_sweep(s));
            t.into()
        },
    },
    Experiment {
        id: "E19",
        name: "ring",
        title: "Live path: batched ring delivery vs per-send",
        headline: None,
        run: |s| live_ring::run_experiment(s).into(),
    },
    Experiment {
        id: "E20",
        name: "zero_copy",
        title: "Live path: clone-per-dest vs serialize-once zero-copy fan-out",
        headline: Some("BENCH_live_path.json"),
        run: live_zero_copy::run_experiment,
    },
    Experiment {
        id: "E22",
        name: "adaptive",
        title: "Live adaptive: runtime tree switching + zero-copy relay forwarding",
        headline: Some("BENCH_adaptive.json"),
        run: live_adaptive::run_experiment,
    },
    Experiment {
        id: "E23",
        name: "one_sided",
        title: "Live one-sided: remote-fetch delivery vs per-send and batched ring",
        headline: Some("BENCH_one_sided.json"),
        run: live_one_sided::run_experiment,
    },
    Experiment {
        id: "E24",
        name: "shards",
        title: "Live shards: shard-owned pipelines, core-scaling of the receive path",
        headline: Some("BENCH_shards.json"),
        run: live_shards::run_experiment,
    },
    Experiment {
        id: "E27",
        name: "topology",
        title: "Live topology: rack-aware multicast trees vs oblivious d* and binomial",
        headline: Some("BENCH_topology.json"),
        run: live_topology::run_experiment,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{invariant_violations, report_name};
    use std::collections::HashSet;

    #[test]
    fn ids_and_names_are_unique() {
        let ids: HashSet<_> = REGISTRY.iter().map(|e| e.id).collect();
        let names: HashSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(ids.len(), REGISTRY.len());
        assert_eq!(names.len(), REGISTRY.len());
        assert!(REGISTRY.windows(2).all(|w| w[0].id < w[1].id), "id order");
        assert_eq!(find("e24").map(|e| e.name), Some("shards"));
        assert_eq!(find("shards").map(|e| e.id), Some("E24"));
        assert!(find("all").is_none() && find("nonsense").is_none());
    }

    /// `run all` walks the registry, so an experiment runs iff it has a
    /// row: every `pub fn run*(.. Scale) -> Vec<Table> | Output` in this
    /// directory must be named by exactly one.
    #[test]
    fn every_entry_point_is_registered_exactly_once() {
        let registry = include_str!("mod.rs");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut entry_points = 0;
        for file in std::fs::read_dir(dir).unwrap() {
            let path = file.unwrap().path();
            let module = path.file_stem().unwrap().to_str().unwrap().to_string();
            let source = std::fs::read_to_string(&path).unwrap();
            for line in source.lines().filter(|l| l.starts_with("pub fn run")) {
                let shaped = line.contains(": Scale)")
                    && (line.ends_with("-> Vec<Table> {") || line.ends_with("-> Output {"));
                if !shaped {
                    continue;
                }
                let name = &line["pub fn ".len()..line.find('(').unwrap()];
                let uses = registry.matches(&format!("{module}::{name}")).count();
                assert_eq!(uses, 1, "{module}::{name} is registered {uses} times");
                entry_points += 1;
            }
        }
        assert!(
            entry_points >= REGISTRY.len(),
            "{entry_points} entry points"
        );
    }

    #[test]
    fn design_md_carries_the_index() {
        let design = include_str!("../../../../DESIGN.md");
        assert!(
            design.contains(&index_table()),
            "DESIGN.md §4 is stale: paste `whale-bench list`"
        );
    }

    /// Every live experiment (E19 on), twice at smoke scale: the same
    /// bytes both times, the schema keys every report carries, and a
    /// headline that holds its invariants — zero silent loss on every
    /// cell among them.
    #[test]
    fn live_experiments_are_deterministic_and_sound() {
        let render = |out: &Output| {
            let tables: Vec<String> = out
                .tables
                .iter()
                .map(|t| t.to_csv() + &t.to_json().to_json_string())
                .collect();
            (tables, out.headline.as_ref().map(|h| h.to_json_string()))
        };
        // Rows of the table, and keys the headline must carry beyond the
        // ones `check` requires.
        let shape: [(&str, usize, &[&str]); 6] = [
            ("ring", 4, &[]),
            ("zero_copy", 21, &["fanout_8", "best", "min_pool_hit_rate"]),
            (
                "adaptive",
                25,
                &["adaptive_gain_vs_worst_static", "acceptance_cells"],
            ),
            ("one_sided", 12, &["crossovers", "acceptance_cells"]),
            (
                "shards",
                12,
                &["fanout8_4shard_speedup", "acceptance_cells"],
            ),
            (
                "topology",
                27,
                &["speedup_vs_whale", "byte_cells", "acked_cells"],
            ),
        ];
        for (e, (name, rows, keys)) in REGISTRY.iter().filter(|e| e.id >= "E19").zip(shape) {
            assert_eq!(e.name, name);
            let out = (e.run)(Scale::Smoke);
            assert_eq!(out.tables[0].len(), rows, "{name}: rows");
            let headline = out.headline.as_ref().map(|h| h.to_json_string());
            for key in keys {
                let text = headline.as_ref().expect("a headline");
                assert!(text.contains(&format!("\"{key}\":")), "{name}: no {key}");
            }
            assert_eq!(render(&out), render(&(e.run)(Scale::Smoke)), "{}", e.name);
            assert!(!out.tables.is_empty(), "{}", e.name);
            for table in &out.tables {
                assert!(!table.is_empty(), "{}", table.id);
                let json = table.to_json().to_json_string();
                assert!(json.contains("\"schema\":\"whale-bench/v1\""), "{json}");
                assert!(
                    json.contains(&format!("\"figure\":\"{}\"", table.id)),
                    "{json}"
                );
                let lost = json.matches("\"silent_lost\":").count();
                let zero = json.matches("\"silent_lost\":0,").count()
                    + json.matches("\"silent_lost\":0}").count();
                assert_eq!(lost, zero, "{}: a cell lost tuples silently", table.id);
            }
            assert_eq!(e.headline.is_some(), out.headline.is_some(), "{}", e.name);
            if let (Some(file), Some(headline)) = (e.headline, &out.headline) {
                let broken = invariant_violations(report_name(file), headline);
                assert_eq!(broken, Vec::<String>::new(), "{file}");
                let experiment = format!("\"experiment\":\"{}\"", out.tables[0].id);
                assert!(headline.to_json_string().contains(&experiment), "{file}");
            }
        }
    }
}
