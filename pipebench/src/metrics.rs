//! Every metric the benchmark reports, with its unit and direction.
//!
//! An untraced run (`--trace 0`) reports [`END_TO_END`]; a traced run
//! (`--trace 1`) reports [`PER_LAYER`]. `BENCHMARK.json` at the
//! repository root lists the same names, and a test keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work done for the same answer).
    Lower,
    /// Larger is better (rates, hit ratios).
    Higher,
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the pipeline waits on or pays for. Every workload runs
/// every stage, so every metric is measured on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("certify_states_per_s", "1/s", Higher),
    m("synth_candidates_per_s", "1/s", Higher),
    m("fleet_steps_per_s", "1/s", Higher),
    m("recovery_p50_ms", "ms", Lower),
];

/// Per-layer figures from the traced run. Times (`_s`) are span self
/// times per pass (setup layers: per set-up); counts are per pass.
pub const PER_LAYER: &[Metric] = &[
    m("protocols.build_s", "s", Lower),
    m("lang.compile_s", "s", Lower),
    m("synth.specs_s", "s", Lower),
    m("lang.enumerate_s", "s", Lower),
    m("checker.enumerate_s", "s", Lower),
    m("checker.transitions_per_s", "1/s", Higher),
    m("checker.bytes_per_state", "B/state", Lower),
    m("checker.frontier_s", "s", Lower),
    m("checker.frontier_evals", "count", Lower),
    m("checker.frontier_evals_per_transition", "ratio", Lower),
    m("core.verify_s", "s", Lower),
    m("core.predicate_eval_s", "s", Lower),
    m("core.closure_s", "s", Lower),
    m("core.theorem_s", "s", Lower),
    m("core.convergence_s", "s", Lower),
    m("core.bounds_s", "s", Lower),
    m("synth.ring_s", "s", Lower),
    m("synth.diffusing_s", "s", Lower),
    m("synth.coloring_s", "s", Lower),
    m("synth.verify_s", "s", Lower),
    m("synth.candidates", "count", Lower),
    m("synth.survivors", "count", Lower),
    m("synth.oracle_calls", "count", Lower),
    m("synth.prune_ratio", "ratio", Higher),
    m("checker.verdict_cache_s", "s", Lower),
    m("fleet.run_s", "s", Lower),
    m("fleet.stepping_s", "s", Lower),
    m("fleet.steps", "count", Lower),
    m("fleet.ticks", "count", Lower),
    m("fleet.cache_hit_rate", "ratio", Higher),
    m("fleet.bytes_per_instance", "B", Lower),
    m("net.setup_s", "s", Lower),
    m("net.run_s", "s", Lower),
    m("net.frames_sent", "count", Lower),
    m("net.frames_rejected", "count", Lower),
    m("net.steps", "count", Lower),
    m("net.convergence_steps", "count", Lower),
    m("net.heartbeats", "count", Lower),
    m("net.frames_per_step", "ratio", Lower),
    m("net.recovery_samples", "count", Higher),
    m("bench.glue_s", "s", Lower),
    m("bench.passes", "count", Higher),
    m("traced.setup_s", "s", Lower),
    m("traced.peak_rss_mb", "MB", Lower),
    m("traced.certify_states_per_s", "1/s", Higher),
    m("traced.synth_candidates_per_s", "1/s", Higher),
    m("traced.fleet_steps_per_s", "1/s", Higher),
    m("traced.recovery_p50_ms", "ms", Lower),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with exactly the metrics in `defs`, in their listed order.
///
/// # Errors
///
/// A metric of `defs` missing from `values`, or not finite.
pub fn result_line(
    defs: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        if !valid_name(def.name) {
            return Err(format!("illegal metric name {:?}", def.name));
        }
        let v = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", def.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(def.name.len() <= 64, "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("p50/ms"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let mut listed = 0;
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for def in defs {
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    def.name, def.unit
                );
                assert!(
                    BENCHMARK_JSON.contains(&entry),
                    "{section}: BENCHMARK.json lacks {entry}"
                );
                listed += 1;
            }
        }
        assert_eq!(BENCHMARK_JSON.matches("\"better\"").count(), listed);
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let defs = &END_TO_END[..2];
        let values = BTreeMap::from([("setup_s", 0.25), ("peak_rss_mb", 12.5)]);
        assert_eq!(
            result_line(defs, &values, true, 3, 0).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.5, \"unit\": \"MB\"}}}"
        );
        assert!(result_line(&END_TO_END[..3], &values, true, 3, 0).is_err());
        let nan = BTreeMap::from([("setup_s", f64::NAN)]);
        assert!(result_line(&END_TO_END[..1], &nan, true, 1, 0).is_err());
    }
}
