//! E16 — Figs 29/30: one-sided vs two-sided RDMA verbs (microbenchmark),
//! and Figs 31/32: Whale with DiffVerbs vs RDMA-based Storm end to end.

use crate::experiments::common::{config, Dataset};
use crate::report::engine_run_json;
use crate::{fmt_rate, Scale, Table};
use whale_core::{run, SystemMode};
use whale_sim::{CostModel, Transport, Verb, VerbPolicy};

/// Verb microbenchmark point: sender-limited throughput and one-message
/// latency for a given message size, straight from the verbs cost model.
fn verb_point(verb: Verb, bytes: usize, cost: &CostModel) -> (f64, f64) {
    let send = cost.send_cpu(Transport::Rdma, verb, bytes).as_secs_f64();
    let recv = cost.recv_cpu(Transport::Rdma, verb).as_secs_f64();
    let wire = cost.wire_time(Transport::Rdma, bytes).as_secs_f64();
    let lat = cost.net_latency(Transport::Rdma, 0).as_secs_f64();
    // Pipeline throughput: bounded by the busiest side.
    let tput = 1.0 / send.max(recv).max(wire);
    // One-shot latency: post + wire + propagation + remote completion.
    let latency_us = (send + wire + lat + recv) * 1e6;
    (tput, latency_us)
}

/// Figs 29/30: the verb microbenchmark across message sizes.
pub fn run_verb_micro(_scale: Scale) -> Vec<Table> {
    let cost = CostModel::default();
    let mut fig29 = Table::new(
        "fig29",
        "RDMA verb throughput (sender-limited, msgs/s)",
        &["msg_bytes", "send_recv", "write", "read"],
    );
    let mut fig30 = Table::new(
        "fig30",
        "RDMA verb one-message latency (us)",
        &["msg_bytes", "send_recv", "write", "read"],
    );
    for &bytes in &[64usize, 256, 1_024, 4_096, 16_384, 65_536] {
        let (t_sr, l_sr) = verb_point(Verb::SendRecv, bytes, &cost);
        let (t_w, l_w) = verb_point(Verb::Write, bytes, &cost);
        let (t_r, l_r) = verb_point(Verb::Read, bytes, &cost);
        fig29.row_strings(vec![
            bytes.to_string(),
            fmt_rate(t_sr),
            fmt_rate(t_w),
            fmt_rate(t_r),
        ]);
        fig30.row_strings(vec![
            bytes.to_string(),
            format!("{l_sr:.1}"),
            format!("{l_w:.1}"),
            format!("{l_r:.1}"),
        ]);
    }
    vec![fig29, fig30]
}

/// Figs 31/32: end-to-end effect of the verb policy on Whale vs the
/// RDMA-based Storm baseline.
pub fn run_diffverbs(scale: Scale) -> Vec<Table> {
    let tuples = scale.pick3(10, 60, 250);
    let p = 480;
    let mut fig31 = Table::new(
        "fig31",
        "verb policy: system throughput at parallelism 480",
        &["system", "tuples_per_s"],
    );
    let mut fig32 = Table::new(
        "fig32",
        "verb policy: processing latency at parallelism 480",
        &["system", "mean_latency_ms"],
    );

    let seed = Dataset::Didi.seed();
    let baseline = run(config(Dataset::Didi, SystemMode::RdmaStorm, p, tuples));
    fig31.row_strings(vec!["RDMA-Storm".into(), fmt_rate(baseline.throughput)]);
    // Per-system metrics snapshots ride in the throughput table's JSON.
    fig31.attach_run(engine_run_json("fig31", "RDMA-Storm", p, seed, &baseline));
    fig32.row_strings(vec![
        "RDMA-Storm".into(),
        format!("{:.2}", baseline.mean_latency.as_secs_f64() * 1e3),
    ]);

    for (label, policy) in [
        ("Whale_TwoSided", VerbPolicy::TwoSided),
        ("Whale_OneSidedWrite", VerbPolicy::OneSidedWrite),
        ("Whale_OneSidedRead", VerbPolicy::OneSidedRead),
        ("Whale_DiffVerbs", VerbPolicy::DiffVerbs),
    ] {
        let mut cfg = config(Dataset::Didi, SystemMode::WhaleFull, p, tuples);
        cfg.verbs = Some(policy);
        let r = run(cfg);
        fig31.row_strings(vec![label.into(), fmt_rate(r.throughput)]);
        fig31.attach_run(engine_run_json("fig31", label, p, seed, &r));
        fig32.row_strings(vec![
            label.into(),
            format!("{:.2}", r.mean_latency.as_secs_f64() * 1e3),
        ]);
    }
    vec![fig31, fig32]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_ordering_read_write_sendrecv() {
        let cost = CostModel::default();
        let (t_sr, l_sr) = verb_point(Verb::SendRecv, 1_024, &cost);
        let (t_w, l_w) = verb_point(Verb::Write, 1_024, &cost);
        let (t_r, l_r) = verb_point(Verb::Read, 1_024, &cost);
        assert!(
            t_r > t_w && t_w > t_sr,
            "throughput: read > write > send/recv"
        );
        assert!(
            l_r < l_sr && l_w < l_sr,
            "latency: one-sided beats two-sided"
        );
    }

    #[test]
    fn diffverbs_beats_two_sided_whale() {
        let tables = run_diffverbs(Scale::Smoke);
        assert_eq!(tables[0].len(), 5);
        let json = tables[0].to_json().to_json_string();
        assert!(
            json.contains("\"runs\"") && json.contains("\"Whale_DiffVerbs\""),
            "fig31 JSON must carry one run snapshot per system"
        );
    }
}
