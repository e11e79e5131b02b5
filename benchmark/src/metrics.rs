//! The metric names this benchmark reports — the names later issues
//! cite. `BENCHMARK.json` lists the same names with their bounds; a
//! test keeps the two in step.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Reported by every untraced run.
///
/// `failed_share` is not here although the issue lists it: it is 0 on
/// every healthy run and the contract wants metrics that are never 0.
/// It is the result's `failed / attempted`, and `runtime.failed_share`.
/// Nor is `latency_p90_us`: on the shared reference host it did not
/// repeat within a third of any bound the contract allows
/// (`ride_onesided`: 13–18 % between runs), so like p99 and p999 it is
/// per-layer, `runtime.latency_p90_us`.
pub const END_TO_END: &[MetricDef] = &[
    ("throughput_tps", "1/s", "higher"),
    ("cpu_s_per_mtuple", "s", "lower"),
    ("latency_p50_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// `<layer>.<metric>`, layers named after this repo's modules. Reported
/// by every traced run; 0 where the workload does not use the layer.
pub const PER_LAYER: &[MetricDef] = &[
    ("codec.encode_ns", "ns", "lower"),
    ("codec.frame_encode_ns", "ns", "lower"),
    ("codec.view_parse_ns", "ns", "lower"),
    ("codec.materialize_ns", "ns", "lower"),
    ("codec.serializations_per_tuple", "count", "lower"),
    ("codec.materialized_share", "share", "lower"),
    ("grouping.route_ns", "ns", "lower"),
    ("grouping.plan_ns", "ns", "lower"),
    ("grouping.skew", "ratio", "lower"),
    ("pool.acquire_share_ns", "ns", "lower"),
    ("pool.hit_rate", "share", "higher"),
    ("pool.high_watermark", "count", "lower"),
    ("fabric.per_send.send_recv_ns", "ns", "lower"),
    ("fabric.ring.post_flush_ns", "ns", "lower"),
    ("fabric.one_sided.publish_fetch_ns", "ns", "lower"),
    ("fabric.msgs_per_tuple", "count", "lower"),
    ("fabric.shared_bytes_per_tuple", "B", "lower"),
    ("fabric.copied_bytes_per_tuple", "B", "lower"),
    ("fabric.send_retries", "count", "lower"),
    ("fabric.send_errors", "count", "lower"),
    ("fabric.batches_flushed", "count", "lower"),
    ("fabric.mean_batch_size", "count", "higher"),
    ("relay.forward_ns_p50", "ns", "lower"),
    ("relay.forwards_per_tuple", "count", "lower"),
    ("relay.bytes_per_tuple", "B", "lower"),
    ("relay.depth_max", "count", "lower"),
    ("multicast.build_tree_us_n4", "us", "lower"),
    ("multicast.build_tree_us_n480", "us", "lower"),
    ("multicast.plan_switch_us", "us", "lower"),
    ("multicast.decide_ns", "ns", "lower"),
    ("acker.init_ack_ns", "ns", "lower"),
    ("acker.acked_share", "share", "higher"),
    ("acker.replayed_per_mtuple", "count", "lower"),
    ("acker.dedup_dropped", "count", "lower"),
    ("log.append_ns", "ns", "lower"),
    ("log.read_ns", "ns", "lower"),
    ("log.truncate_ns", "ns", "lower"),
    ("log.appended_bytes_per_tuple", "B", "lower"),
    ("log.retained_bytes_end", "B", "lower"),
    ("log.gcd_share", "share", "higher"),
    ("apps.stock.split_execute_ns", "ns", "lower"),
    ("apps.stock.matching_execute_ns", "ns", "lower"),
    ("apps.stock.volume_execute_ns", "ns", "lower"),
    ("apps.stock.matching_busy_share", "share", "lower"),
    ("apps.ride.matching_execute_ns", "ns", "lower"),
    ("apps.ride.aggregation_execute_ns", "ns", "lower"),
    ("apps.ride.matching_busy_share", "share", "lower"),
    ("workloads.gen_ns", "ns", "lower"),
    ("runtime.spout_gap_ns_p50", "ns", "lower"),
    ("runtime.sink_busy_share", "share", "lower"),
    ("runtime.fanout_spread_us_p50", "us", "lower"),
    ("runtime.latency_p90_us", "us", "lower"),
    ("runtime.latency_p99_us", "us", "lower"),
    ("runtime.latency_p999_us", "us", "lower"),
    ("runtime.latency_samples", "count", "higher"),
    ("runtime.unicast_latency_p50_us", "us", "lower"),
    ("runtime.gen_late_p99_us", "us", "lower"),
    ("runtime.drain_s", "s", "lower"),
    ("runtime.startup_s", "s", "lower"),
    ("runtime.ctx_switches_per_mtuple", "count", "lower"),
    ("runtime.peak_rss_exit_mb", "MiB", "lower"),
    ("runtime.direct_tps", "1/s", "higher"),
    ("runtime.storm_baseline_tps", "1/s", "higher"),
    ("runtime.trace_overhead_share", "share", "lower"),
    ("runtime.failed_share", "share", "lower"),
    ("budget.layer_sum_ns_per_tuple", "ns", "lower"),
    ("budget.cpu_ns_per_tuple", "ns", "lower"),
    ("budget.unexplained_share", "share", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, unit, _)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::ALL;

    /// `BENCHMARK.json` (one directory up from this package) must name
    /// exactly the workloads and metrics the program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json::as_array(json::get(&doc, key).unwrap())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| json::as_str(json::get(m, k).unwrap()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = json::as_array(json::get(&doc, "workloads").unwrap())
            .unwrap()
            .iter()
            .map(|w| json::as_str(json::get(w, "name").unwrap()).unwrap())
            .collect();
        assert_eq!(workloads, ALL.map(|k| k.name()));
        for m in json::as_array(json::get(&doc, "end_to_end").unwrap()).unwrap() {
            let bound = json::as_f64(json::get(m, "bound").unwrap()).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert_eq!(unit_of("throughput_tps"), "1/s");
        assert_eq!(unit_of("nope"), "");
    }
}
