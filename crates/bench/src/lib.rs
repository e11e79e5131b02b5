//! # whale-bench — the experiment harness
//!
//! One module per paper artifact (figure, table, ablation or live
//! experiment) under [`experiments`], each listed once in
//! [`experiments::REGISTRY`] with the `fn(Scale) -> Output` that
//! regenerates it: the rows/series the paper reports as tables (printed,
//! and written as CSV + JSON under `results/`) and, for the live
//! experiments, a headline `BENCH_*.json`. The one binary, `whale-bench`,
//! runs the registry: `run <name|id|all> [--smoke]`, `list`, and `check`
//! ([`check`]: every committed headline against a fresh regeneration).

#![warn(missing_docs)]

pub mod check;
pub mod experiments;
pub mod par;
pub mod report;

pub use par::{par_map, par_map_with};
pub use report::{
    engine_run_json, fmt_rate, object, results_dir, write_headline, Json, Table, JSON_SCHEMA,
};

/// How much work to spend: `Quick` keeps every experiment seconds-scale;
/// `Full` uses longer runs for smoother series; `Smoke` is a minimal
/// variant for the unit tests (unoptimized builds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Minimal runs for tests.
    Smoke,
    /// Short runs (default).
    Quick,
    /// Longer runs (`WHALE_SCALE=full`).
    Full,
}

impl Scale {
    /// Read from the `WHALE_SCALE` environment variable.
    pub fn from_env() -> Scale {
        match std::env::var("WHALE_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            Ok("smoke") | Ok("SMOKE") => Scale::Smoke,
            _ => Scale::Quick,
        }
    }

    /// Pick a value by scale (smoke shares the quick value).
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Smoke | Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Pick with a dedicated smoke value for the expensive experiments.
    pub fn pick3<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
        assert_eq!(Scale::Smoke.pick(1, 2), 1);
        assert_eq!(Scale::Smoke.pick3(0, 1, 2), 0);
        assert_eq!(Scale::Full.pick3(0, 1, 2), 2);
    }
}
