//! The metric catalog and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` at the
//! repository root (a test keeps them in step).  An untraced run reports
//! exactly the end-to-end metrics, a traced run exactly the per-layer
//! ones; [`Report::validate`] refuses anything else.

use std::fmt::Write;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the service sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric and workload it should
/// move.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workload it should move it on.
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics of an untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("makespan_improvement", "ratio", Higher, 0.25),
    e2e("improvement_vs_heft", "ratio", Higher, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

const P90: &str = "latency_p90_ms";
const P50: &str = "latency_p50_ms";
const TPUT: &str = "throughput_ops_s";

/// Per-layer metrics of a traced run.
pub const PER_LAYER: &[Layer] = &[
    layer("service.admitted", "count", Higher, P90, "service_warm"),
    layer("service.rejected", "count", Lower, P90, "service_warm"),
    layer(
        "service.peak_inflight",
        "count",
        Higher,
        P90,
        "service_warm",
    ),
    layer("service.peak_queued", "count", Lower, P90, "service_warm"),
    layer("model.artifact_key_us", "us", Lower, P50, "paper_cold"),
    layer("model.artifact_build_ms", "ms", Lower, P50, "paper_cold"),
    layer("model.cache_hit_ratio", "ratio", Higher, P50, "paper_cold"),
    layer("model.cache_evictions", "count", Lower, P50, "paper_cold"),
    layer("decomp.subgraphs_ms", "ms", Lower, TPUT, "service_warm"),
    layer(
        "decomp.subgraph_count",
        "count",
        Lower,
        TPUT,
        "service_warm",
    ),
    layer("decomp.share", "ratio", Lower, TPUT, "service_warm"),
    layer("core.search_self_ms", "ms", Lower, P50, "paper_cold"),
    layer("core.iterations", "count", Lower, P50, "paper_cold"),
    layer("core.evaluations", "count", Lower, P50, "paper_cold"),
    layer("core.simulated", "count", Lower, P50, "paper_cold"),
    layer("core.aborted", "count", Lower, P90, "remap_churn"),
    layer("core.pruned", "count", Higher, P90, "remap_churn"),
    layer("core.trivial", "count", Higher, P50, "paper_cold"),
    layer("core.memo_hits", "count", Higher, P50, "paper_cold"),
    layer("core.abort_ratio", "ratio", Higher, P90, "remap_churn"),
    layer("core.memo_hit_ratio", "ratio", Higher, P50, "paper_cold"),
    layer(
        "core.checkpoint_peak_bytes",
        "bytes",
        Lower,
        "peak_rss_mb",
        "paper_cold",
    ),
    layer("par.pool_batches", "count", Higher, TPUT, "service_warm"),
    layer("par.serial_batches", "count", Lower, TPUT, "service_warm"),
    layer("par.scoped_batches", "count", Lower, TPUT, "service_warm"),
    layer("par.pool_steals", "count", Lower, TPUT, "service_warm"),
    layer("par.submission_waits", "count", Lower, TPUT, "service_warm"),
    layer("par.shards_used", "count", Higher, TPUT, "service_warm"),
    layer(
        "session.remap_ms.device_lost",
        "ms",
        Lower,
        P90,
        "remap_churn",
    ),
    layer(
        "session.remap_ms.device_restored",
        "ms",
        Lower,
        P90,
        "remap_churn",
    ),
    layer(
        "session.remap_ms.task_arrived",
        "ms",
        Lower,
        P90,
        "remap_churn",
    ),
    layer(
        "session.remap_ms.attributes_changed",
        "ms",
        Lower,
        P90,
        "remap_churn",
    ),
    layer(
        "session.remap_ms.task_finished",
        "ms",
        Lower,
        P90,
        "remap_churn",
    ),
    layer(
        "session.neighborhood_ops",
        "count",
        Lower,
        P90,
        "remap_churn",
    ),
    layer(
        "session.warm_iterations",
        "count",
        Lower,
        P90,
        "remap_churn",
    ),
    layer("session.graph_rebuilds", "count", Lower, P90, "remap_churn"),
    layer("session.noop_ratio", "ratio", Higher, P90, "remap_churn"),
    layer("baselines.heft_ms", "ms", Lower, "none", "paper_cold"),
    layer(
        "trace.untraced_throughput_ops_s",
        "1/s",
        Higher,
        TPUT,
        "all",
    ),
    layer("trace.traced_throughput_ops_s", "1/s", Higher, TPUT, "all"),
    layer("trace.overhead", "ratio", Lower, TPUT, "all"),
];

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (maps, remaps and session opens).
    pub attempted: u64,
    /// Operations that failed: a service error or a check mismatch.
    pub failed: u64,
    /// `(name, value)` of every reported metric.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The value reported under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The `(name, unit)` list this report must carry.
    pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Check that the values are exactly the catalog's metrics for this
    /// mode, each once and finite.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        let expected = Self::expected(traced);
        if self.values.len() != expected.len() {
            return Err(format!(
                "{} metrics reported, the catalog has {}",
                self.values.len(),
                expected.len()
            ));
        }
        for (name, _) in &expected {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} not reported"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
        }
        Ok(())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit, in catalog order.
    pub fn json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in Self::expected(traced).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = self.get(name).unwrap_or(f64::NAN);
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// A table of the metrics; traced runs add the end-to-end metric and
    /// workload each layer metric should move.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        if traced {
            writeln!(
                out,
                "{:<38} {:>16} {:<6} {:<16} on",
                "per-layer metric", "value", "unit", "moves"
            )
            .expect("writing to a String cannot fail");
            for m in PER_LAYER {
                let v = self.get(m.name).unwrap_or(f64::NAN);
                writeln!(
                    out,
                    "{:<38} {:>16.4} {:<6} {:<16} {}",
                    m.name, v, m.unit, m.moves, m.on
                )
                .expect("writing to a String cannot fail");
            }
        } else {
            writeln!(out, "{:<24} {:>14} unit", "end-to-end metric", "value")
                .expect("writing to a String cannot fail");
            for m in END_TO_END {
                let v = self.get(m.name).unwrap_or(f64::NAN);
                writeln!(out, "{:<24} {:>14.4} {}", m.name, v, m.unit)
                    .expect("writing to a String cannot fail");
            }
        }
        out
    }
}
