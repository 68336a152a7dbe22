//! The metric catalogue: every name and unit `BENCHMARK.json` declares,
//! in declaration order. Every workload reports every metric; a per-layer
//! metric of a layer the workload never calls reads 0.

use std::collections::BTreeMap;

use crate::harness::Metric;

/// End-to-end metrics, measured with tracing off.
///
/// `work_items_per_s` counts the workload's unit of work per second of
/// median op time: stuck-at plus transition faults graded (`table1-full`),
/// PODEM targets (`atpg-full`) or test sessions (`fleet-*`).
/// `coverage_pct` is the workload's headline coverage: overall stuck-at
/// FC (`table1-full`), ATPG detected / total (`atpg-full`) or the lowest
/// per-component characterization coverage the fleet is held to
/// (`fleet-*`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_items_per_s", "1/s"),
    ("coverage_pct", "%"),
];

/// Per-layer metrics of the traced run. Layers are named after the crates;
/// `manager` is `sbst_cpu::manager`.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("components.build_s", "s"),
    ("components.gates", "count"),
    ("core.program_build_s", "s"),
    ("core.routine_build_s", "s"),
    ("core.stimulus_s", "s"),
    ("core.characterize_s", "s"),
    ("core.test_words", "words"),
    ("core.test_cycles", "cycles"),
    ("gates.fault_sim_s.stuck_at", "s"),
    ("gates.fault_sim_s.transition", "s"),
    ("gates.side_grade_s", "s"),
    ("gates.fault_sim_s.register_file", "s"),
    ("gates.fault_sim_s.parallel_mul", "s"),
    ("gates.fault_sim_s.pipeline", "s"),
    ("gates.faults.stuck_at", "count"),
    ("gates.faults.transition", "count"),
    ("gates.patterns", "count"),
    ("gates.events_simulated", "count"),
    ("gates.lane_occupancy", "%"),
    ("gates.transition_coverage_pct", "%"),
    ("tpg.atpg_s", "s"),
    ("tpg.podem_s", "s"),
    ("tpg.random_phase_s", "s"),
    ("tpg.podem_targets", "count"),
    ("tpg.podem_backtracks", "count"),
    ("tpg.aborts", "count"),
    ("tpg.redundant", "count"),
    ("tpg.tests", "count"),
    ("tpg.podem_discarded", "count"),
    ("tpg.tests_per_target", "ratio"),
    ("tpg.patterns", "count"),
    ("cpu.load_s", "s"),
    ("cpu.exec_s", "s"),
    ("cpu.instructions", "count"),
    ("cpu.cycles", "cycles"),
    ("cpu.minstr_per_s", "Minstr/s"),
    ("manager.session_p50_ms.healthy", "ms"),
    ("manager.session_p50_ms.faulty", "ms"),
    ("manager.session_tail_ms.healthy", "ms"),
    ("manager.session_tail_ms.faulty", "ms"),
    ("manager.session_tail_pct.healthy", "percentile"),
    ("manager.session_tail_pct.faulty", "percentile"),
    ("manager.sessions.healthy", "count"),
    ("manager.sessions.faulty", "count"),
    ("manager.self_s", "s"),
    ("manager.attempts", "count"),
    ("manager.passes", "count"),
    ("manager.mismatches", "count"),
    ("manager.watchdog_fires", "count"),
    ("manager.backoffs", "count"),
    ("manager.quarantines", "count"),
    ("manager.pass_ratio", "ratio"),
    ("fleet.node_build_s", "s"),
    ("fleet.session_s", "s"),
    ("fleet.scheduler_s", "s"),
    ("fleet.telemetry_sink_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("fleet.telemetry_bytes", "bytes"),
    ("fleet.telemetry_lines", "count"),
    ("fleet.rss_kb_per_node", "kB"),
    ("self_s.components", "s"),
    ("self_s.core", "s"),
    ("self_s.gates", "s"),
    ("self_s.tpg", "s"),
    ("self_s.cpu", "s"),
    ("self_s.fleet", "s"),
    ("self_s.unattributed", "s"),
    ("trace.total_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Layers that own spans, in report order. The root span's layer,
/// `trace`, holds the time no layer span covers.
pub const LAYERS: [&str; 6] = ["components", "core", "gates", "tpg", "cpu", "fleet"];

/// Metric values collected by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue — a typo would otherwise
    /// silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of `catalogue`, in order, unset ones as 0.
    pub fn emit(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.get(name),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_core::json::{parse, JsonValue};

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(JsonValue::Str(s)) => s.clone(),
                    _ => panic!("{key} entry lacks {f}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS.iter().chain(&["unattributed"]) {
            let name = format!("self_s.{layer}");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_names_are_refused() {
        Values::default().set("wall_secs", 1.0);
    }
}
