//! The metric tables: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` repeats them (a unit test keeps the two in
//! step) and adds the regression bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Reported with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("inline_pkt_per_s", "pkt/s", "higher"),
    m("served_pkt_per_s", "pkt/s", "higher"),
    m("verdict_rtt_p50_us", "us", "lower"),
    m("bytes_to_verdict_mean", "bytes", "lower"),
    m("accuracy", "fraction", "higher"),
];

/// One layer each (layer = module). Reported with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // Isolated: one public function on the workload's own inputs.
    m("core.sha1.flowid_ns", "ns", "lower"),
    m("core.cdb.lookup_hit_ns", "ns", "lower"),
    m("core.cdb.insert_ns", "ns", "lower"),
    m("core.cdb.peak_records", "count", "lower"),
    m("core.cdb.purged", "count", "higher"),
    m("core.features.update_ns_per_byte", "ns/byte", "lower"),
    m("core.features.finish_ns", "ns", "lower"),
    m("core.features.reset_ns", "ns", "lower"),
    m("entropy.vector.update_ns_per_byte", "ns/byte", "lower"),
    m("entropy.battery.update_ns_per_byte", "ns/byte", "lower"),
    m("core.model.predict_ns", "ns", "lower"),
    m("ml.confidence.probe_ns", "ns", "lower"),
    // In situ: the two halves of process_packet, the second by outcome.
    m("core.sha1.in_situ_ns", "ns", "lower"),
    m("core.pipeline.hit_ns", "ns", "lower"),
    m("core.pipeline.buffering_ns", "ns", "lower"),
    m("core.pipeline.classified_ns", "ns", "lower"),
    m("core.pipeline.ignored_ns", "ns", "lower"),
    m("core.pipeline.hit_share", "fraction", "higher"),
    m("core.pipeline.buffering_share", "fraction", "lower"),
    m("core.pipeline.classified_share", "fraction", "lower"),
    m("core.pipeline.ignored_share", "fraction", "lower"),
    m("core.pipeline.early_exit_share", "fraction", "higher"),
    m("core.pipeline.pool_hit_share", "fraction", "higher"),
    m("core.pipeline.batch_pkt_per_s", "pkt/s", "higher"),
    m("core.pipeline.flow_overhead_ns", "ns", "lower"),
    m("core.pipeline.ledger_gap_frac", "fraction", "lower"),
    m("core.pipeline.resident_bytes_peak", "bytes", "lower"),
    m("core.pipeline.buffered_bytes_mean", "bytes", "lower"),
    m("bench.trace_overhead_frac", "fraction", "lower"),
    m("bench.timer_overhead_ns", "ns", "lower"),
    // serve, isolated.
    m("serve.proto.request_decode_ns", "ns", "lower"),
    m("serve.proto.request_encode_ns", "ns", "lower"),
    m("serve.proto.verdict_encode_ns", "ns", "lower"),
    m("serve.conn.reassemble_ns", "ns", "lower"),
    m("serve.conn.write_ns", "ns", "lower"),
    m("serve.queue.handoff_ns", "ns", "lower"),
    // serve, in situ.
    m("serve.reactor.cpu_ns_per_pkt", "ns", "lower"),
    m("serve.shard.cpu_ns_per_pkt", "ns", "lower"),
    m("serve.reactor.cpu_ns_per_pkt_sat", "ns", "lower"),
    m("serve.shard.cpu_ns_per_pkt_sat", "ns", "lower"),
    m("serve.queue.locks_per_kpkt", "1/kpkt", "lower"),
    m("serve.shard.batch_size_p50", "count", "higher"),
    m("serve.shard.flows_per_batch_p50", "count", "higher"),
    m("serve.stage.hash_p50_ns", "ns", "lower"),
    m("serve.stage.cdb_lookup_p50_ns", "ns", "lower"),
    m("serve.stage.buffer_fill_p50_ns", "ns", "lower"),
    m("serve.stage.classify_p50_ns", "ns", "lower"),
    m("serve.paced.verdict_p50_us", "us", "lower"),
    m("serve.paced.verdict_p99_us", "us", "lower"),
    m("serve.paced.busy_frac", "fraction", "lower"),
    m("serve.rtt_p99_us", "us", "lower"),
    m("serve.verdict_divergence_frac", "fraction", "lower"),
    m("serve.loss_frac", "fraction", "lower"),
    m("serve.client.pkt_per_s", "pkt/s", "higher"),
    // The generator itself.
    m("gen.ceiling_pkt_per_s", "pkt/s", "higher"),
    m("gen.cpu_ns_per_pkt", "ns", "lower"),
    m("gen.paced.lag_p99_us", "us", "lower"),
];

/// Checks that `values` holds exactly the metrics of `table`, each once,
/// and returns them in table order with their units.
pub fn in_table_order(
    table: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Result<Vec<(MetricDef, f64)>, String> {
    for (name, _) in values {
        if !table.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not in the metric table"));
        }
    }
    table
        .iter()
        .map(|def| {
            let mut found = values.iter().filter(|(name, _)| *name == def.name);
            match (found.next(), found.next()) {
                (Some((_, value)), None) => Ok((*def, *value)),
                (None, _) => Err(format!("metric {} was not measured", def.name)),
                (Some(_), Some(_)) => Err(format!("metric {} was measured twice", def.name)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use serde::{get_field, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
    }

    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        get_field(object.as_obj().expect("an object"), key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn text<'a>(object: &'a Value, key: &str) -> &'a str {
        field(object, key).as_str().unwrap_or_else(|| panic!("{key} is a string"))
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(def.name), "{} must match [A-Za-z0-9][A-Za-z0-9_.-]*", def.name);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {} of {}",
                def.unit,
                def.name
            );
            assert!(matches!(def.better, "higher" | "lower"));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_emitted() {
        let bench = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = field(&bench, key).as_arr().expect("an array");
            let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
            let ours: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, ours, "{key} of BENCHMARK.json and the metric table disagree");
            for (listed, def) in listed.iter().zip(table) {
                assert_eq!(text(listed, "unit"), def.unit, "unit of {}", def.name);
                assert_eq!(text(listed, "better"), def.better, "direction of {}", def.name);
            }
        }
        for metric in field(&bench, "end_to_end").as_arr().unwrap() {
            let bound = field(metric, "bound").as_f64().expect("a number");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", text(metric, "name"));
        }
        let setup = &field(&bench, "end_to_end").as_arr().unwrap()[0];
        assert_eq!(
            (text(setup, "name"), text(setup, "unit"), text(setup, "better")),
            ("setup_s", "s", "lower")
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let bench = benchmark_json();
        let listed: Vec<&str> =
            field(&bench, "workloads").as_arr().unwrap().iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        for workload in field(&bench, "workloads").as_arr().unwrap() {
            let why = text(workload, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn emitted_set_must_equal_the_table() {
        let table = &[m("a", "ns", "lower"), m("b", "ns", "lower")];
        assert!(in_table_order(table, &[("b", 2.0), ("a", 1.0)]).is_ok());
        assert!(in_table_order(table, &[("a", 1.0)]).unwrap_err().contains("b was not measured"));
        assert!(in_table_order(table, &[("a", 1.0), ("b", 2.0), ("c", 3.0)]).is_err());
        assert!(in_table_order(table, &[("a", 1.0), ("a", 1.0), ("b", 2.0)]).is_err());
    }
}
