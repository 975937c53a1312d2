//! Metric declarations (name, unit, direction — the same set
//! `BENCHMARK.json` lists, checked by `selftest`), the result a run
//! prints, and `compare`.

use crate::json::{self, Value};
use crate::stats::median;
use crate::system::Failure;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a client of the service sees. Every
/// workload reports every one of them (`--trace 0`).
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("setup_s", "s", Lower),
    ("sat_rps", "1/s", Higher),
    ("rtt_p50_us", "us", Lower),
    ("open_p50_us", "us", Lower),
    ("realloc_per_req", "count", Lower),
];

/// Per-layer metrics (`--trace 1`). A metric of a layer the workload
/// does not deploy reports 0.
pub const PER_LAYER: [(&str, &str, Better); 58] = [
    ("reservation.ns_per_req", "ns", Lower),
    ("reservation.reallocs_per_req", "count", Lower),
    ("reservation.realloc_max", "count", Lower),
    ("multi.ns_per_req", "ns", Lower),
    ("multi.reallocs_per_req", "count", Lower),
    ("multi.migrations_per_req", "count", Lower),
    ("multi.realloc_max", "count", Lower),
    ("multi.bound_log_star", "count", Lower),
    ("engine.ingest_ns_per_req", "ns", Lower),
    ("engine.flush1_p50_us", "us", Lower),
    ("engine.journal_bytes_per_req", "bytes", Lower),
    ("engine.checkpoint_ms", "ms", Lower),
    ("store.flush_durable_p50_us", "us", Lower),
    ("store.flush_mem_p50_us", "us", Lower),
    ("store.fsync_p50_us", "us", Lower),
    ("store.sync_pace_p50_us", "us", Lower),
    ("store.fsyncs_per_req", "count", Lower),
    ("store.bytes_per_req", "bytes", Lower),
    ("store.checkpoint_ms", "ms", Lower),
    ("store.recover_ms", "ms", Lower),
    ("cluster.poll_ns_per_event", "ns", Lower),
    ("cluster.encode_ns_per_event", "ns", Lower),
    ("cluster.bytes_per_event", "bytes", Lower),
    ("cluster.parse_ns_per_event", "ns", Lower),
    ("cluster.apply_ns_per_event", "ns", Lower),
    ("cluster.ship_p50_us", "us", Lower),
    ("cluster.window_stalls", "count", Lower),
    ("cluster.frames_per_ack", "count", Higher),
    ("service.read_rtt_p50_us", "us", Lower),
    ("service.parse_ns", "ns", Lower),
    ("service.admit_ns", "ns", Lower),
    ("service.reqs_per_flush", "count", Higher),
    ("service.shed", "count", Lower),
    ("core.frame_ns", "ns", Lower),
    ("telemetry.scrape_us", "us", Lower),
    ("telemetry.trace_overhead_ratio", "ratio", Higher),
    ("workloads.gen_late_p99_us", "us", Lower),
    ("workloads.open_p50_us", "us", Lower),
    ("workloads.open_p99_us", "us", Lower),
    ("workloads.pregen_s", "s", Lower),
    ("workloads.rtt_p99_us", "us", Lower),
    ("workloads.rate_ok_rps", "1/s", Higher),
    ("workloads.rtt_realloc_per_req", "count", Lower),
    ("workloads.realloc_max", "count", Lower),
    ("workloads.recovery_s", "s", Lower),
    ("workloads.quorum_lag_p50_us", "us", Lower),
    ("workloads.quorum_lag_p99_us", "us", Lower),
    ("workloads.read_p50_us", "us", Lower),
    ("budget.rtt_us", "us", Lower),
    ("budget.wire_us", "us", Lower),
    ("budget.service_us", "us", Lower),
    ("budget.engine_us", "us", Lower),
    ("budget.store_us", "us", Lower),
    ("budget.fs_us", "us", Lower),
    ("budget.unattributed_us", "us", Lower),
    ("budget.poll_us", "us", Lower),
    ("budget.ship_us", "us", Lower),
    ("budget.apply_ack_us", "us", Lower),
];

fn declared(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, better)| (unit, better))
}

/// The metrics one run collected, in the order they were measured.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records a declared metric. An undeclared name is a bug in the
    /// benchmark, which `selftest` turns into a failure.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(declared(name).is_some(), "metric '{name}' is not declared");
        self.0.push((name, value));
    }

    /// A metric of a layer this workload does not deploy.
    pub fn push_absent(&mut self, name: &'static str) {
        self.push(name, 0.0);
    }

    /// Looks a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The recorded names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|&(n, _)| n).collect()
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every correctness check passed and no command failed.
    pub correct: bool,
    /// Commands sent.
    pub attempted: u64,
    /// Commands not answered as required.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Metrics,
}

impl RunResult {
    /// `name value unit` lines, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for &(name, value) in &self.metrics.0 {
            let (unit, _) = declared(name).expect("pushed metrics are declared");
            out.push_str(&format!("{name} {value} {unit}\n"));
        }
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|&(name, value)| {
                let (unit, _) = declared(name).expect("pushed metrics are declared");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result object the contract asks for: exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The line appended to a results file: the result object plus what
    /// produced it, so `compare` can group runs.
    pub fn record_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, {}",
            u8::from(trace),
            &self.result_line()[1..]
        )
    }
}

/// What `BENCHMARK.json` declares, as far as this program checks it.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// Workload names.
    pub workloads: Vec<String>,
    /// `(name, unit, better, bound)` of each end-to-end metric.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)` of each per-layer metric.
    pub per_layer: Vec<(String, String, String)>,
}

fn str_field(v: &Value, key: &str) -> Result<String, Failure> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string '{key}'"))
}

impl Manifest {
    /// Parses `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Manifest, Failure> {
        let root = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing list '{key}'"))
        };
        let mut manifest = Manifest::default();
        for w in list("workloads")? {
            manifest.workloads.push(str_field(w, "name")?);
        }
        for m in list("end_to_end")? {
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: end_to_end metric without a bound")?;
            manifest.end_to_end.push((
                str_field(m, "name")?,
                str_field(m, "unit")?,
                str_field(m, "better")?,
                bound,
            ));
        }
        for m in list("per_layer")? {
            manifest.per_layer.push((
                str_field(m, "name")?,
                str_field(m, "unit")?,
                str_field(m, "better")?,
            ));
        }
        Ok(manifest)
    }

    /// The manifest must declare exactly what this program reports.
    pub fn check_against_declarations(&self) -> Result<(), Failure> {
        let names_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let workloads: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        if self.workloads != workloads {
            return Err(format!(
                "BENCHMARK.json workloads {:?} != {workloads:?}",
                self.workloads
            ));
        }
        let mine: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        let theirs: Vec<(String, String, String)> = self
            .end_to_end
            .iter()
            .map(|(n, u, b, _)| (n.clone(), u.clone(), b.clone()))
            .collect();
        if mine != theirs {
            return Err(format!(
                "BENCHMARK.json end_to_end {theirs:?} != declared {mine:?}"
            ));
        }
        let mine: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        if mine != self.per_layer {
            let missing: Vec<_> = mine
                .iter()
                .filter(|m| !self.per_layer.contains(m))
                .collect();
            let extra: Vec<_> = self
                .per_layer
                .iter()
                .filter(|m| !mine.contains(m))
                .collect();
            return Err(format!(
                "BENCHMARK.json per_layer differs: missing {missing:?}, extra {extra:?} (or order)"
            ));
        }
        for name in self
            .workloads
            .iter()
            .chain(self.end_to_end.iter().map(|m| &m.0))
            .chain(self.per_layer.iter().map(|m| &m.0))
        {
            if !names_ok(name) {
                return Err(format!("name '{name}' does not match [A-Za-z0-9_.-]+"));
            }
        }
        Ok(())
    }
}

/// `(workload, trace, metric) → values` of a results file (one record
/// line per run, as `record_line` writes them).
fn load_runs(path: &str) -> Result<Vec<(String, String, Vec<f64>)>, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut groups: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = str_field(&v, "workload")?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}:{}: metric '{name}' has no value", i + 1))?;
            match groups
                .iter_mut()
                .find(|(w, n, _)| *w == workload && n == name)
            {
                Some((_, _, values)) => values.push(value),
                None => groups.push((workload.clone(), name.clone(), vec![value])),
            }
        }
    }
    Ok(groups)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; the median for fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// The verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is not worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own spread is wider than the bound and the runs overlap:
    /// the data cannot tell.
    Unresolved,
    /// A per-layer metric: no bound, reported only.
    Info,
}

/// Judges one row: `a` is the base, `b` the candidate.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if ma == 0.0 { 1.0 } else { mb / ma };
    let Some(bound) = bound else {
        return (ratio, Verdict::Info);
    };
    let (q1, q3) = quartiles(a);
    let spread = if ma == 0.0 { 0.0 } else { (q3 - q1) / ma.abs() };
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let every_b_better = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let verdict = if spread > bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// `compare a b`: one row per (workload, metric) with both medians,
/// the ratio b/a, the bound, and the verdict. Returns whether any
/// bounded row came out `worse`.
pub fn compare(path_a: &str, path_b: &str, manifest: &Manifest) -> Result<bool, Failure> {
    let (a, b) = (load_runs(path_a)?, load_runs(path_b)?);
    println!(
        "workload metric a_median b_median ratio(b/a) bound verdict   [a = {path_a}, b = {path_b}]"
    );
    let mut any_worse = false;
    for (workload, name, a_values) in &a {
        let Some((_, _, b_values)) = b.iter().find(|(w, n, _)| w == workload && n == name) else {
            continue;
        };
        let Some((_, better)) = declared(name) else {
            continue;
        };
        let bound = manifest
            .end_to_end
            .iter()
            .find(|m| m.0 == *name)
            .map(|m| m.3);
        let (ratio, verdict) = judge(a_values, b_values, better, bound);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload} {name} {:.6} {:.6} {ratio:.4} {} {}",
            median(a_values),
            median(b_values),
            bound.map_or("-".to_string(), |b| format!("{b}")),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
                Verdict::Info => "info",
            }
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is declared twice");
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn judge_rows() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, 3 % worse within a 5 % bound.
        assert_eq!(judge(&a, &[103.0; 5], Lower, Some(0.05)).1, Verdict::Ok);
        assert_eq!(judge(&a, &[110.0; 5], Lower, Some(0.05)).1, Verdict::Worse);
        // Higher is better: a drop is worse, a rise is fine.
        assert_eq!(judge(&a, &[90.0; 5], Higher, Some(0.05)).1, Verdict::Worse);
        assert_eq!(judge(&a, &[120.0; 5], Higher, Some(0.05)).1, Verdict::Ok);
        // Spread wider than the bound: unresolved unless every run of b
        // is better than every run of a.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[105.0; 5], Lower, Some(0.05)).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[70.0; 5], Lower, Some(0.05)).1, Verdict::Ok);
        assert_eq!(judge(&a, &[500.0; 5], Lower, None).1, Verdict::Info);
        let (ratio, _) = judge(&a, &[110.0; 5], Lower, Some(0.05));
        assert!((ratio - 1.1).abs() < 1e-9);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.8127);
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let v = json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        let rec = json::parse(&r.record_line("mem_dense", 7, false)).unwrap();
        assert_eq!(rec.get("workload").unwrap().as_str(), Some("mem_dense"));
        assert_eq!(rec.get("seed").unwrap().as_f64(), Some(7.0));
    }
}
