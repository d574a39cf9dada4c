//! The metric catalogue (it must match `BENCHMARK.json`, which a test
//! checks) and the per-run report every workload fills in.

use crate::stats::Tally;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Each workload reports all
/// of them, measured with tracing off; what a "work item" and an
/// "operation" are differs per workload and is stated in README.md.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("slo_attain", "frac"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced run
/// (`--trace 1`). A layer the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // lm-engine: layer-streamed execution, per `Engine::run` call.
    ("engine.load_weight_s", "s"),
    ("engine.weight_wait_s", "s"),
    ("engine.compute_s", "s"),
    ("engine.prefill_s", "s"),
    ("engine.decode_s", "s"),
    ("engine.span_recon_frac", "frac"),
    ("engine.weight_bytes", "B"),
    ("engine.device_peak_bytes", "B"),
    ("engine.kv_bytes", "B"),
    // lm-tensor: kernel replay at the workloads' shapes.
    ("tensor.matmul_decode.gflops", "GFLOP/s"),
    ("tensor.unembed.gflops", "GFLOP/s"),
    ("tensor.mha_decode.gflops", "GFLOP/s"),
    ("tensor.matmul_prefill.gflops", "GFLOP/s"),
    ("tensor.mha_prefill.gflops", "GFLOP/s"),
    ("tensor.dequant_int4.gibs", "GiB/s"),
    ("tensor.quant_int4_kv.gibs", "GiB/s"),
    // lm-serve: scheduler, admission and the async driver.
    ("serve.ttft_p90_ms", "ms"),
    ("serve.e2e_p50_ms", "ms"),
    ("serve.e2e_p90_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.arrival_lag_ms", "ms"),
    ("serve.backend_s", "s"),
    ("serve.sched_s", "s"),
    ("serve.occupancy_mean", "frac"),
    ("serve.boundaries", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.cancelled", "count"),
    ("serve.deadline_misses", "count"),
    // lm-kvpool: paged KV and the prefix index.
    ("kvpool.prefix_hit_frac", "frac"),
    ("kvpool.pages_peak", "count"),
    ("kvpool.cow_forks", "count"),
    ("kvpool.pages_leaked", "count"),
    // Planner: lm-offload, lm-baselines, lm-sim, lm-parallelism.
    ("offload.search_ms", "ms"),
    ("offload.pred_speedup", "x"),
    ("baselines.flexgen_search_ms", "ms"),
    ("baselines.zero_search_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("parallelism.plan_ms", "ms"),
    // lm-trace: what switching the tracers on costs.
    ("trace.overhead_frac", "frac"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Every correctness check that failed, in words; empty when correct.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// A name as `BENCHMARK.json` allows it: starts with a letter or digit,
    /// at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        doc.as_object()
            .and_then(|o| o.get(section))
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.as_object()
                        .and_then(|o| o.get(k))
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{section} entry lacks {k}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn name_rules_reject_what_the_contract_forbids() {
        assert!(valid_name("engine.load_weight_s"));
        assert!(valid_name("9x"));
        assert!(!valid_name("_x"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("tok per s"));
        assert!(!valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn failed_checks_make_the_report_incorrect() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "tokens differ".into());
        assert!(!r.correct());
        assert_eq!(r.errors, vec!["tokens differ".to_string()]);
    }
}
