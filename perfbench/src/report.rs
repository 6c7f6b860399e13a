//! The result of one run: metrics by name with units, the output-check
//! counts, and the run environment. Printed as JSON by hand (the
//! repository builds offline, without serde).

use std::fmt::Write as _;

/// Every end-to-end metric, printed by the timed pass (`--trace 0`).
/// Latency is per-layer only: on a shared 2-vCPU host its run-to-run
/// spread (up to 0.4 of the median for an open-loop TCP fleet) is wider
/// than any bound a regression gate could use.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bags_per_s", "1/s"),
    ("cpu_ms_per_bag", "ms"),
];

/// Every per-layer metric, printed by the traced pass (`--trace 1`).
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quantize.calls", "count"),
    ("quantize.self_s", "s"),
    ("quantize.share", "ratio"),
    ("emd.solves", "count"),
    ("emd.self_s", "s"),
    ("emd.share", "ratio"),
    ("emd.pivots", "count"),
    ("emd.us_per_solve_p50", "us"),
    ("infoest.calls", "count"),
    ("infoest.self_s", "s"),
    ("bootstrap.calls", "count"),
    ("bootstrap.replicates", "count"),
    ("bootstrap.self_s", "s"),
    ("bootstrap.share", "ratio"),
    ("detector.other_s", "s"),
    ("compute.wall_s", "s"),
    ("ingest.polls", "count"),
    ("ingest.busy_s", "s"),
    ("ingest.bags", "count"),
    ("ingest.empty_poll_ratio", "ratio"),
    ("engine.queue_load_max", "ratio"),
    ("engine.queue_load_mean", "ratio"),
    ("engine.ticks", "count"),
    ("engine.solve_s", "s"),
    ("pipeline.steps", "count"),
    ("pipeline.idle_ratio", "ratio"),
    ("pipeline.step_self_s", "s"),
    ("egress.csv.deliver_s", "s"),
    ("egress.scorelog.deliver_s", "s"),
    ("egress.flush_s", "s"),
    ("egress.events", "count"),
    ("egress.scorelog.bytes", "bytes"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.ms_p50", "ms"),
    ("session.wall_s", "s"),
    ("io.share", "ratio"),
    ("latency.ms_p50", "ms"),
    ("latency.ms_p90", "ms"),
    ("latency.ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("detect.planted", "count"),
    ("detect.recall", "count"),
    ("detect.false_alerts", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (expected score points).
    pub attempted: u64,
    /// Operations failed (missing, duplicate or diverged points, errors,
    /// quarantines).
    pub failed: u64,
    /// Output checks that failed, described.
    pub problems: Vec<String>,
    /// Run environment and sample counts, as `(key, JSON value)`.
    pub env: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Record latency samples (ms): the percentiles as per-layer
    /// metrics, and the sample count and percentiles in the environment
    /// record, where the timed pass shows them too.
    pub fn latency(&mut self, ms: &[f64], op: &str) {
        for (name, q) in [
            ("latency.ms_p50", 0.5),
            ("latency.ms_p90", 0.9),
            ("latency.ms_p99", 0.99),
        ] {
            let v = crate::trace::quantile(ms, q);
            self.set(name, v);
            self.env_num(name, json_number(v));
        }
        self.env_num("latency_samples", ms.len());
        self.env_str("latency_op", op);
    }

    pub fn env_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.env.push((key.to_string(), value.to_string()));
    }

    pub fn env_str(&mut self, key: &str, value: &str) {
        self.env.push((key.to_string(), json_string(value)));
    }

    /// Record a failed output check: `count` failed operations.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// `metrics` of the pass.
    pub fn result_json(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.get(name))
            );
        }
        s.push_str("}}");
        s
    }

    /// The environment record: run settings, sample counts and checks.
    pub fn env_json(&self) -> String {
        let mut s = String::from("{\"env\": {");
        for (i, (k, v)) in self.env.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", json_string(k));
        }
        s.push_str("}, \"problems\": [");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_string(p));
        }
        s.push_str("]}");
        s
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values would not be valid JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
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
