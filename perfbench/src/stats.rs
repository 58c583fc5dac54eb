//! Sample statistics, the metric registry and the result line.
//!
//! Every metric the benchmark can print is declared once in
//! [`END_TO_END`] or [`PER_LAYER`] with its unit; [`Report`] refuses to
//! print a result that misses a declared metric or carries an undeclared
//! one, so the printed line always matches `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric: name, unit, and what its value means.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run (`--trace 0`), for every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("request_ms.p50", "ms"),
    m("request_ms.tail", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ok_share", "share"),
    m("p_dif", "payoff"),
    m("avg_payoff", "payoff"),
    m("served_share", "share"),
];

/// Metrics of a traced run (`--trace 1`), for every workload. A layer the
/// workload never calls reports 0 ("not exercised").
pub const PER_LAYER: &[MetricDef] = &[
    m("run.hw_threads", "count"),
    m("run.pool_width", "count"),
    m("data.load_ms", "ms"),
    m("data.load_mb_per_s", "MB/s"),
    m("data.save_ms", "ms"),
    m("core.index_ms", "ms"),
    m("core.validate_ms", "ms"),
    m("core.fairness_ms", "ms"),
    m("vdps.generate_ms", "ms"),
    m("vdps.states", "count"),
    m("vdps.extensions", "count"),
    m("vdps.sets", "count"),
    m("vdps.strategy_space_ms", "ms"),
    m("vdps.slots", "count"),
    m("algorithms.game_ms", "ms"),
    m("algorithms.br_rounds", "count"),
    m("algorithms.candidate_evaluations", "count"),
    m("algorithms.candidates_scanned", "count"),
    m("algorithms.fastpath_rounds", "count"),
    m("algorithms.solve_ms", "ms"),
    m("algorithms.solve_seq_ms", "ms"),
    m("algorithms.parallel_efficiency", "ratio"),
    m("algorithms.resolve_ms", "ms"),
    m("algorithms.centers_clean", "count"),
    m("algorithms.centers_warm", "count"),
    m("algorithms.centers_cold", "count"),
    m("algorithms.warm_adopt_ratio", "ratio"),
    m("algorithms.cold_equiv_ms", "ms"),
    m("sim.day_cold_ms", "ms"),
    m("sim.day_incremental_ms", "ms"),
    m("sim.rounds", "count"),
    m("sim.degraded_rounds", "count"),
    m("sim.tasks_arrived", "count"),
    m("durable.journal_overhead", "ratio"),
    m("durable.wal_bytes", "bytes"),
    m("durable.snapshots", "count"),
    m("durable.restore_ms", "ms"),
    m("obs.recorder_overhead", "ratio"),
    m("cli.process_ms", "ms"),
    m("trace.coverage", "ratio"),
    m("trace.overhead", "ratio"),
];

/// Whether `name` fits the metric-name grammar: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `samples` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Median of `num` over median of `den`, both cut to their common
/// length: phases that replay the same inputs in the same order are
/// compared input for input.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    let n = num.len().min(den.len());
    match (median(&num[..n]), median(&den[..n])) {
        (Some(a), Some(b)) => a / b,
        _ => f64::NAN,
    }
}

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Fewest samples for which a tail percentile (at least p50) exists.
pub const TAIL_MIN_SAMPLES: usize = 2 * TAIL_MIN_BEYOND;

/// The tail of a latency sample: the highest integer percentile `p` in
/// 50..=99 whose nearest-rank value leaves at least [`TAIL_MIN_BEYOND`]
/// samples above it. Returns `(p, value)`, or `None` when fewer than
/// [`TAIL_MIN_SAMPLES`] samples exist.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (50..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest k with k/n >= p/100, 1-based.
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n.saturating_sub(rank) >= TAIL_MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, checked against the registry before printing.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Renders the contract line: `{"correct", "attempted", "failed",
    /// "metrics"}` with every metric of `defs`, each with its unit.
    ///
    /// # Errors
    ///
    /// Names the first declared metric that is missing or non-finite, or
    /// the first reported metric that is not declared.
    pub fn render(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !defs.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric `{extra}` is not declared"));
        }
        if let Some(bad) = defs.iter().find(|d| !valid_metric_name(d.name)) {
            return Err(format!("metric name `{}` breaks the grammar", bad.name));
        }
        let mut metrics = String::new();
        for (i, def) in defs.iter().enumerate() {
            let value = *self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite: {value}", def.name));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_f64(value),
                def.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{metrics}}}}}"
        ))
    }
}

/// A finite `f64` as a JSON number with all its digits (Rust's shortest
/// round-trip form, with a `.0` added to integral values).
pub fn json_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: p90's nearest-rank value is 90, leaving exactly 10
        // above it; p91 would leave 9.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90, 90.0)));
        // 30 samples: p66 -> rank 20 (10 beyond), p67 -> rank 21 (9).
        let samples: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((66, 20.0)));
        // Order of the input does not matter.
        let mut rev = samples.clone();
        rev.reverse();
        assert_eq!(tail(&rev), tail(&samples));
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((50, 10.0)));
        assert_eq!(tail(&samples[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_beyond_count_holds_for_every_size() {
        for n in TAIL_MIN_SAMPLES..400 {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, v) = tail(&samples).expect("enough samples");
            let beyond = samples.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}");
            // The next percentile up would leave fewer than ten beyond.
            if p < 99 {
                let rank = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{} also fits", p + 1);
            }
        }
    }

    #[test]
    fn paired_ratio_compares_common_prefixes() {
        assert_eq!(paired_ratio(&[2.0, 4.0, 100.0], &[1.0, 2.0]), 2.0);
        assert!(paired_ratio(&[], &[1.0]).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "request_ms.p50",
            "a",
            "9lives",
            "vdps.strategy_space_ms",
            "x-y",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ms%", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(def.name), "{}", def.name);
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn render_lists_every_metric_with_its_unit() {
        let mut report = Report::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            report.set(def.name, 1.5 + i as f64);
        }
        let line = report.render(END_TO_END, true, 12, 1).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(12));
        assert_eq!(v["failed"].as_u64(), Some(1));
        for (i, def) in END_TO_END.iter().enumerate() {
            assert_eq!(v["metrics"][def.name]["unit"].as_str(), Some(def.unit));
            assert_eq!(
                v["metrics"][def.name]["value"].as_f64(),
                Some(1.5 + i as f64)
            );
        }
    }

    #[test]
    fn render_rejects_missing_extra_and_non_finite_metrics() {
        let mut report = Report::default();
        assert!(report.render(END_TO_END, true, 1, 0).is_err());
        for def in END_TO_END {
            report.set(def.name, 1.0);
        }
        assert!(report.render(END_TO_END, true, 1, 0).is_ok());
        report.set("setup_s", f64::NAN);
        assert!(report.render(END_TO_END, true, 1, 0).is_err());
        report.set("setup_s", 1.0);
        report.set("trace.coverage", 1.0);
        assert!(report.render(END_TO_END, true, 1, 0).is_err());
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_f64(1e-7), "0.0000001");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// `workloads.json` covers every workload, names both seeds, and
    /// predicts layer shares that fit into one request.
    #[test]
    fn workloads_json_covers_every_workload() {
        let v: serde_json::Value = serde_json::from_str(include_str!("../workloads.json")).unwrap();
        assert!(v["seeds"]["development"].as_u64().is_some());
        assert!(v["seeds"]["held_out"].as_u64().is_some());
        for name in crate::WORKLOADS {
            let shares = v["workloads"][*name]["predicted_share"]
                .as_object()
                .unwrap_or_else(|| panic!("{name} has no predicted_share"));
            let total: f64 = shares.iter().map(|(_, s)| s.as_f64().unwrap()).sum();
            assert!(
                total > 0.9 && total <= 1.0 + 1e-9,
                "{name}: shares sum to {total}"
            );
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics this binary prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v[key].as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry["name"].as_str(), Some(def.name), "{key}");
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
            }
        }
        let names: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
