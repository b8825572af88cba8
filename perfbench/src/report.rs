//! The metric table, the run report, and the machine descriptor.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names,
//! units and the workloads that measure each; `BENCHMARK.json` must match
//! them (a unit test checks it), and [`Report::correct`] refuses to certify
//! a run whose measured set differs from the table's for its workload.
//!
//! Every run prints every metric of its table. Each workload measures all
//! end-to-end metrics. Each per-layer metric is measured on the workloads
//! the table names, where it should move an end-to-end metric; a traced
//! run of another workload prints it as 0 and says that it was not
//! measured there.

use std::fmt::Write as _;

const LB: &[&str] = &["lb-search"];
const SERVE: &[&str] = &["serve-mixed"];
const SIM: &[&str] = &["sim-large"];
const ALL: &[&str] = &["lb-search", "serve-mixed", "sim-large"];

/// One metric: name, unit, better direction, measuring workloads.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub workloads: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef { name, unit, better, workloads }
}

/// End-to-end metrics (reported with tracing off), measured by every
/// workload on its own operations: searches, requests or cases.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", ALL),
    m("op_ms_geomean", "ms", "lower", ALL),
    m("ops_per_s", "1/s", "higher", ALL),
    m("peak_rss_mb", "MiB", "lower", ALL),
];

/// Per-layer metrics (reported by the traced run).
pub const PER_LAYER: &[MetricDef] = &[
    m("core.full_step_ms", "ms", "lower", LB),
    m("core.close_ms", "ms", "lower", LB),
    m("core.merge_ms", "ms", "lower", LB),
    m("core.canon_ms", "ms", "lower", LB),
    m("core.canon_calls", "count", "lower", LB),
    m("core.zero_round_ms", "ms", "lower", LB),
    m("core.zero_round_tests", "count", "lower", LB),
    m("core.exec_tasks", "count", "lower", LB),
    m("core.exec_steals", "count", "lower", SIM),
    m("core.exec_idle_ms", "ms", "lower", SIM),
    m("auto.classes", "count", "lower", LB),
    m("auto.expansions", "count", "lower", LB),
    m("auto.classes_per_expansion", "ratio", "lower", LB),
    m("auto.iso_resolutions", "count", "lower", LB),
    m("auto.dedup_hits", "count", "lower", LB),
    m("auto.relax_closure_ms", "ms", "lower", LB),
    m("auto.wave_unattributed_ms", "ms", "lower", LB),
    m("auto.step_memo_hits", "count", "higher", LB),
    m("auto.step_memo_misses", "count", "lower", LB),
    m("auto.setup_step_memo_misses", "count", "lower", LB),
    m("auto.verify_ms", "ms", "lower", LB),
    m("daemon.queue_wait_ms_p50", "ms", "lower", SERVE),
    m("daemon.encode_ms_p50", "ms", "lower", SERVE),
    m("daemon.reply_kb_p50", "KiB", "lower", SERVE),
    m("daemon.lookup_us_p50", "us", "lower", SERVE),
    m("daemon.unclaimed_ms_p50", "ms", "lower", SERVE),
    m("daemon.accept_wait_ms_p50", "ms", "lower", SERVE),
    m("daemon.solve_ms_p50", "ms", "lower", SERVE),
    m("daemon.insert_ms_p50", "ms", "lower", SERVE),
    m("daemon.cache_hits", "count", "higher", SERVE),
    m("daemon.cache_misses", "count", "lower", SERVE),
    m("sim.generate_ms", "ms", "lower", SIM),
    m("sim.ids_ms", "ms", "lower", SIM),
    m("sim.run_ms", "ms", "lower", SIM),
    m("sim.node_rounds", "count", "lower", SIM),
    m("sim.node_rounds_per_s", "1/s", "higher", SIM),
    m("sim.check_ms", "ms", "lower", SIM),
    m("sim.ports_checked_per_s", "1/s", "higher", SIM),
    m("obs.trace_overhead", "ratio", "lower", ALL),
    m("obs.trace_events", "count", "lower", ALL),
    m("attr.covered_share", "share", "higher", ALL),
    m("attr.unattributed_ms", "ms", "lower", ALL),
];

fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metric definitions a run of `workload` measures in this mode.
pub fn expected(workload: &str, trace: bool) -> impl Iterator<Item = &'static MetricDef> + '_ {
    table(trace).iter().filter(move |d| d.workloads.contains(&workload))
}

/// What one run measured and checked.
pub struct Report {
    workload: String,
    trace: bool,
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, trace: bool) -> Report {
        Report {
            workload: workload.to_owned(),
            trace,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Records a metric of this run's table.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts operations attempted and failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.failures.len() < 20 {
                eprintln!("perfbench: CHECK FAILED: {msg}");
            }
            self.failures.push(msg);
        }
    }

    /// Whether every check so far passed.
    pub fn checks_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Whether every check passed and the metric set matches the table.
    pub fn correct(&mut self) -> bool {
        let mut want: Vec<&str> = expected(&self.workload, self.trace).map(|d| d.name).collect();
        let mut got: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            let msg = format!("metric set {got:?} differs from the table's {want:?}");
            self.check(false, || msg);
        }
        let infinite: Vec<&str> =
            self.metrics.iter().filter(|(_, v)| !v.is_finite()).map(|(n, _)| *n).collect();
        self.check(infinite.is_empty(), || format!("metrics {infinite:?} are not finite"));
        self.failures.is_empty() && self.attempted > 0
    }

    /// Every metric of this run's table with its value and whether this
    /// workload measures it; one it does not measure reads 0.
    fn values(&self) -> Vec<(&'static MetricDef, f64, bool)> {
        table(self.trace)
            .iter()
            .map(|d| match self.metrics.iter().find(|(n, _)| *n == d.name) {
                Some(&(_, v)) => (d, if v.is_finite() { v } else { 0.0 }, true),
                None => (d, 0.0, false),
            })
            .collect()
    }

    /// The final JSON result line.
    fn result_line(&self) -> String {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (d, v, _)) in self.values().into_iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        json.push_str("}}");
        json
    }

    /// Prints one line per metric, the operation counts, and the final
    /// JSON result line.
    pub fn print(&self) {
        for (d, v, measured) in self.values() {
            let note = if measured { "" } else { "; not measured on this workload" };
            println!("metric {} = {v} {} ({} is better{note})", d.name, d.unit, d.better);
        }
        println!(
            "ops: attempted={} failed={} checks_failed={}",
            self.attempted,
            self.failed,
            self.failures.len()
        );
        println!("{}", self.result_line());
    }
}

/// `nproc` and the CPU model, for reading figures across machines.
pub fn machine_descriptor() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={nproc} cpu=\"{cpu}\" os={}", std::env::consts::OS)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric object in one section of
    /// `BENCHMARK.json` (one object per line, keys in the order written).
    fn section(text: &str, key: &str) -> Vec<(String, String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        let field = |line: &str, k: &str| -> String {
            let pat = format!("\"{k}\": \"");
            let rest = &line[line.find(&pat).map(|i| i + pat.len()).unwrap_or(line.len())..];
            rest.split('"').next().unwrap_or("").to_owned()
        };
        body[..end]
            .lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect()
    }

    fn triples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(section(&text, "end_to_end"), triples(END_TO_END));
        assert_eq!(section(&text, "per_layer"), triples(PER_LAYER));
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w} listed");
            assert_eq!(expected(w, false).count(), END_TO_END.len(), "{w} measures every metric");
        }
    }

    #[test]
    fn the_result_line_holds_every_metric_of_the_table() {
        for trace in [false, true] {
            let mut r = Report::new("sim-large", trace);
            r.ops(1, 0);
            for d in expected("sim-large", trace) {
                r.metric(d.name, 2.5);
            }
            assert!(r.correct());
            let line = r.result_line();
            for d in table(trace) {
                let unit = format!("\"unit\": \"{}\"", d.unit);
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)), "{}", d.name);
                assert!(line.contains(&unit), "{}", d.name);
            }
            let n = line.matches("\"value\"").count();
            assert_eq!(n, table(trace).len());
        }
    }

    #[test]
    fn every_metric_belongs_to_a_known_workload() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!d.workloads.is_empty(), "{}", d.name);
            assert!(d.workloads.iter().all(|w| crate::WORKLOADS.contains(w)), "{}", d.name);
        }
    }

    #[test]
    fn a_run_missing_a_metric_is_not_correct() {
        let mut r = Report::new("serve-mixed", false);
        r.ops(1, 0);
        for d in expected("serve-mixed", false).skip(1) {
            r.metric(d.name, 1.0);
        }
        assert!(!r.correct());
    }
}
