//! Per-layer measurement: the benchmark's own spans, the program's trace
//! sink, and deltas of the program's metrics registry.
//!
//! The traced run arms the existing `roundelim_obs` trace sink, records
//! its own spans (`bench.*`) around the calls it makes into each layer,
//! and reads back the program's spans (`stage.*`, `search.*`, `daemon.*`)
//! and registry (`stage.*`, `cache.*`, `exec.*`, `daemon.*`). Nothing is
//! added to the program.

use roundelim_obs as obs;
use roundelim_obs::metrics::HistogramSnapshot;
use roundelim_obs::summary::{Trace, TraceEvent};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static CAPTURED: Mutex<Option<String>> = Mutex::new(None);

/// Keeps the rendered trace in memory instead of writing a file.
fn capture(_path: &Path, body: &str) -> Result<(), String> {
    *CAPTURED.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(body.to_owned());
    Ok(())
}

/// Arms the program's trace sink.
pub fn start_trace() -> Result<(), String> {
    obs::trace::install(PathBuf::from("perfbench.trace"), capture)
}

/// Disarms the sink and parses what it recorded. Spawned threads that
/// emitted spans must have flushed (or exited) first.
pub fn finish_trace() -> Result<SpanTable, String> {
    obs::trace::finish()?;
    let body = CAPTURED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
        .ok_or("the trace sink rendered nothing")?;
    let trace = obs::summary::parse(&body)?;
    Ok(SpanTable::from_trace(&trace))
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub dur_ns: u64,
}

/// The closed spans of a trace plus its event count.
#[derive(Debug, Default)]
pub struct SpanTable {
    pub spans: Vec<Span>,
    pub events: u64,
}

impl SpanTable {
    fn from_trace(trace: &Trace) -> SpanTable {
        let mut open: BTreeMap<u64, (u64, String, u64)> = BTreeMap::new();
        let mut spans = Vec::new();
        for ev in &trace.events {
            match ev {
                TraceEvent::Enter { id, parent, name, t: Some(t), .. } => {
                    open.insert(*id, (*parent, name.clone(), *t));
                }
                TraceEvent::Exit { id, t: Some(t) } => {
                    if let Some((parent, name, t0)) = open.remove(id) {
                        spans.push(Span { id: *id, parent, name, dur_ns: t.saturating_sub(t0) });
                    }
                }
                _ => {}
            }
        }
        SpanTable { spans, events: trace.events.len() as u64 }
    }

    /// Spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        ns_to_ms(self.named(name).map(|s| s.dur_ns).sum())
    }

    /// Exclusive time (own duration minus direct children) per span name.
    pub fn exclusive_ms(&self) -> BTreeMap<String, f64> {
        let mut child: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            *child.entry(s.parent).or_insert(0) += s.dur_ns;
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.spans {
            let own = s.dur_ns.saturating_sub(child.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.name.clone()).or_insert(0.0) += ns_to_ms(own);
        }
        out
    }

    /// Ids of spans that have a direct child called `name`.
    pub fn parents_of(&self, name: &str) -> std::collections::BTreeSet<u64> {
        self.named(name).map(|s| s.parent).collect()
    }
}

/// Nanoseconds as milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A registry snapshot, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Registry {
    pub fn now() -> Registry {
        let snap = obs::metrics::snapshot();
        Registry {
            counters: snap.counters.into_iter().collect(),
            histograms: snap.histograms.into_iter().collect(),
        }
    }

    /// Counter growth since `before`.
    pub fn counter_since(&self, before: &Registry, name: &str) -> u64 {
        let get = |r: &Registry| r.counters.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before))
    }

    /// The samples a histogram gained since `before`, as a snapshot whose
    /// quantiles read on the bucket bounds (min/max are not recoverable
    /// from two snapshots and are left unclamped).
    pub fn histogram_since(&self, before: &Registry, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: Vec::new() };
        let after = self.histograms.get(name).unwrap_or(&empty);
        let prior = before.histograms.get(name).unwrap_or(&empty);
        let buckets: Vec<(u64, u64)> = after
            .buckets
            .iter()
            .map(|&(bound, n)| {
                let was = prior.buckets.iter().find(|b| b.0 == bound).map_or(0, |b| b.1);
                (bound, n.saturating_sub(was))
            })
            .filter(|b| b.1 > 0)
            .collect();
        HistogramSnapshot {
            count: after.count.saturating_sub(prior.count),
            sum: after.sum.saturating_sub(prior.sum),
            min: 0,
            max: u64::MAX,
            buckets,
        }
    }

    /// Summed nanoseconds a histogram gained since `before`, in ms.
    pub fn hist_sum_ms(&self, before: &Registry, name: &str) -> f64 {
        ns_to_ms(self.histogram_since(before, name).sum)
    }

    /// Samples a histogram gained since `before`.
    pub fn hist_count(&self, before: &Registry, name: &str) -> u64 {
        self.histogram_since(before, name).count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_keeps_only_new_samples() {
        let h = obs::metrics::histogram("perfbench.test_delta_ns");
        h.record(1_000);
        let before = Registry::now();
        h.record(1_000_000);
        h.record(1_000_000);
        let after = Registry::now();
        let d = after.histogram_since(&before, "perfbench.test_delta_ns");
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 2_000_000);
        assert!(d.p50() >= 1_000_000 && d.p50() < 1_100_000, "{}", d.p50());
    }

    #[test]
    fn exclusive_time_subtracts_direct_children() {
        let span = |id, parent, name: &str, dur_ns| Span { id, parent, name: name.into(), dur_ns };
        let t = SpanTable {
            spans: vec![span(1, 0, "a", 10_000_000), span(2, 1, "b", 4_000_000)],
            events: 4,
        };
        let ex = t.exclusive_ms();
        assert_eq!(ex["a"], 6.0);
        assert_eq!(ex["b"], 4.0);
        assert_eq!(t.parents_of("b").into_iter().collect::<Vec<_>>(), vec![1]);
    }
}
