//! Closed-form structural analysis (§3.2.2): given a fan-out, a measured
//! per-hop cost, and a queue budget, compare the three multicast
//! structures and pick one — the planning counterpart of the runtime
//! controller.
//!
//! Everything here is cross-checked against the [`RelaySim`](crate::RelaySim) event
//! simulation in tests, so the formulas and the executable model cannot
//! drift apart.

use crate::builder::{binomial_source_degree, Structure};
use crate::capability::completion_time;
use whale_sim::cost::mdone;

/// The static properties of one structure over `n` destinations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructureAnalysis {
    /// The analyzed structure.
    pub structure: Structure,
    /// Source out-degree `d0` — time units the source is busy per tuple.
    pub source_degree: u32,
    /// Time units until the last destination holds a tuple.
    pub completion_units: u32,
    /// Maximum affordable input rate `M` (Eq. 5), tuples/s.
    pub max_affordable_rate: f64,
}

impl StructureAnalysis {
    /// Analyze `structure` over `n` destinations with per-hop time
    /// `t_e_secs` and transfer-queue capacity `q`.
    pub fn of(structure: Structure, n: u32, t_e_secs: f64, q: usize) -> Self {
        assert!(n >= 1);
        let source_degree = structure.source_degree(n);
        let completion_units = match structure {
            Structure::Sequential => n,
            Structure::Binomial => binomial_source_degree(n),
            Structure::NonBlocking { d_star } => completion_time(d_star.max(1), n),
        };
        StructureAnalysis {
            structure,
            source_degree,
            completion_units,
            max_affordable_rate: mdone::max_affordable_rate(source_degree.max(1), t_e_secs, q),
        }
    }

    /// True if the structure sustains `lambda` tuples/s without blocking.
    pub fn sustains(&self, lambda: f64) -> bool {
        lambda <= self.max_affordable_rate
    }
}

/// Analyze all three structures (non-blocking at the `d*` the M/D/1 model
/// derives for `lambda`), most capable first.
pub fn compare(n: u32, lambda: f64, t_e_secs: f64, q: usize) -> Vec<StructureAnalysis> {
    let d_star = mdone::d_star(lambda, t_e_secs, q).clamp(1, binomial_source_degree(n).max(1));
    let mut all = vec![
        StructureAnalysis::of(Structure::NonBlocking { d_star }, n, t_e_secs, q),
        StructureAnalysis::of(Structure::Binomial, n, t_e_secs, q),
        StructureAnalysis::of(Structure::Sequential, n, t_e_secs, q),
    ];
    all.sort_by(|a, b| {
        b.max_affordable_rate
            .partial_cmp(&a.max_affordable_rate)
            .unwrap()
    });
    all
}

/// Pick the structure for a stream of `lambda` tuples/s to `n`
/// destinations: the non-blocking tree at the derived `d*`, degenerating
/// to the binomial tree when the stream is slow enough to afford it
/// (§3.2.2: `d0 = min(d*, ceil(log2(n+1)))`).
pub fn recommend(n: u32, lambda: f64, t_e_secs: f64, q: usize) -> Structure {
    let cap = binomial_source_degree(n).max(1);
    let d_star = mdone::d_star(lambda, t_e_secs, q).clamp(1, cap);
    if d_star >= cap {
        Structure::Binomial
    } else {
        Structure::NonBlocking { d_star }
    }
}

/// The paper's headline ratio `M_nonblock / M_binomial =
/// ceil(log2(n+1)) / d0` (derived after Theorem 1).
pub fn affordable_rate_ratio(n: u32, d0: u32) -> f64 {
    assert!(d0 >= 1);
    binomial_source_degree(n) as f64 / d0.min(binomial_source_degree(n)).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_nonblocking;
    use crate::capability::RelaySim;

    const T_E: f64 = 8e-6;
    const Q: usize = 2_048;

    #[test]
    fn analysis_matches_relay_simulation() {
        // Closed-form completion units must equal the event simulation's.
        for n in [7u32, 30, 100, 480] {
            for s in [
                Structure::Sequential,
                Structure::Binomial,
                Structure::NonBlocking { d_star: 3 },
            ] {
                let a = StructureAnalysis::of(s, n, T_E, Q);
                let sim = RelaySim::new(s.build(n)).multicast(0);
                assert_eq!(a.completion_units as u64, sim.complete, "{s:?} n={n}");
                assert_eq!(a.source_degree as u64, sim.source_done, "{s:?} n={n}");
            }
        }
    }

    #[test]
    fn ratio_formula_matches_analyses() {
        let n = 480;
        let nb = StructureAnalysis::of(Structure::NonBlocking { d_star: 3 }, n, T_E, Q);
        let bi = StructureAnalysis::of(Structure::Binomial, n, T_E, Q);
        let ratio = nb.max_affordable_rate / bi.max_affordable_rate;
        assert!((ratio - affordable_rate_ratio(n, 3)).abs() < 1e-9);
        // ceil(log2(481)) = 9, d0 = 3 → 3x more affordable input rate.
        assert!((ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compare_orders_by_capability() {
        let all = compare(480, 60_000.0, T_E, Q);
        assert_eq!(all.len(), 3);
        for w in all.windows(2) {
            assert!(w[0].max_affordable_rate >= w[1].max_affordable_rate);
        }
        // Sequential is always last at this fan-out.
        assert_eq!(all[2].structure, Structure::Sequential);
    }

    #[test]
    fn recommend_tracks_lambda() {
        // Slow stream: the binomial tree is affordable.
        assert_eq!(recommend(480, 1_000.0, T_E, Q), Structure::Binomial);
        // Fast stream: a capped tree.
        match recommend(480, 60_000.0, T_E, Q) {
            Structure::NonBlocking { d_star } => {
                assert!(d_star < 9);
                assert!(d_star >= 1);
            }
            other => panic!("expected capped tree, got {other:?}"),
        }
        // The recommended structure actually sustains the load.
        let lambda = 60_000.0;
        let s = recommend(480, lambda, T_E, Q);
        let a = StructureAnalysis::of(s, 480, T_E, Q);
        assert!(a.sustains(lambda));
    }

    #[test]
    fn sequential_never_recommended() {
        for lambda in [100.0, 10_000.0, 1e6] {
            assert_ne!(recommend(480, lambda, T_E, Q), Structure::Sequential);
        }
    }

    #[test]
    fn nonblocking_completion_between_binomial_and_sequential() {
        for n in [15u32, 100, 480] {
            let bi = StructureAnalysis::of(Structure::Binomial, n, T_E, Q);
            let nb = StructureAnalysis::of(Structure::NonBlocking { d_star: 2 }, n, T_E, Q);
            let se = StructureAnalysis::of(Structure::Sequential, n, T_E, Q);
            assert!(bi.completion_units <= nb.completion_units);
            assert!(nb.completion_units <= se.completion_units);
        }
    }

    #[test]
    fn single_destination_degenerate() {
        let a = StructureAnalysis::of(Structure::NonBlocking { d_star: 4 }, 1, T_E, Q);
        assert_eq!(a.source_degree, 1);
        assert_eq!(a.completion_units, 1);
        let sim = RelaySim::new(build_nonblocking(1, 4)).multicast(0);
        assert_eq!(sim.complete, 1);
    }
}
