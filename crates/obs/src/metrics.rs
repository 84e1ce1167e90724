//! Counter/histogram handles and the global registry.
//!
//! Handles are `const`-constructible statics holding their own atomic
//! cells; the registry is just a list of pointers collected on first
//! use (a `Once` per handle), so the hot path after the [`enabled`]
//! check is one relaxed `fetch_add` — no map lookups, no locks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, Once};

use crate::enabled;
use crate::hist::{HistCore, HistogramSnapshot};

static COUNTERS: Mutex<Vec<(&'static str, &'static AtomicU64)>> = Mutex::new(Vec::new());
static HISTS: Mutex<Vec<(&'static str, &'static HistCore)>> = Mutex::new(Vec::new());

/// A named monotonically increasing counter. Declare as a `static` next
/// to the code it instruments:
///
/// ```
/// static HITS: viewcap_obs::Counter = viewcap_obs::Counter::new("engine.cache.hit");
/// HITS.add(1);
/// ```
pub struct Counter {
    name: &'static str,
    cell: AtomicU64,
    registered: Once,
}

impl Counter {
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// The counter's registered name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| COUNTERS.lock().unwrap().push((self.name, &self.cell)));
        self.cell.fetch_add(n, Relaxed);
    }
}

/// A named latency histogram handle (see [`crate::HistCore`] for the
/// bucket layout). Values are whatever unit the caller records —
/// engine latencies use nanoseconds by convention (`*_ns` names).
pub struct Hist {
    name: &'static str,
    core: HistCore,
    registered: Once,
}

impl Hist {
    pub const fn new(name: &'static str) -> Hist {
        Hist {
            name,
            core: HistCore::new(),
            registered: Once::new(),
        }
    }

    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| HISTS.lock().unwrap().push((self.name, &self.core)));
        self.core.record(v);
    }
}

pub(crate) fn reset_metrics() {
    for (_, cell) in COUNTERS.lock().unwrap().iter() {
        cell.store(0, Relaxed);
    }
    for (_, core) in HISTS.lock().unwrap().iter() {
        core.reset();
    }
}

/// Freeze every registered metric. Counters and histograms live in
/// separate maps: counters are deterministic for a given workload,
/// histograms carry timing and are expected to vary run to run.
pub fn snapshot() -> MetricsSnapshot {
    let counters = COUNTERS
        .lock()
        .unwrap()
        .iter()
        .map(|&(name, cell)| (name.to_string(), cell.load(Relaxed)))
        .collect();
    let histograms = HISTS
        .lock()
        .unwrap()
        .iter()
        .map(|&(name, core)| (name.to_string(), core.snapshot()))
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// A frozen view of the registry, mergeable and renderable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`. Counters saturate (the same policy as
    /// `EnumStats::plus`): a fleet aggregator folding snapshots forever
    /// must pin at `u64::MAX`, not wrap.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// The counter map alone as sorted `name value` lines — the
    /// byte-comparable, timing-free projection the determinism tests
    /// pin across `--jobs` levels.
    pub fn counters_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        out
    }

    /// Render as JSON: counters verbatim, histograms as their scalar
    /// aggregates plus p50/p90/p99 (raw buckets are an internal detail
    /// and stay out of the file).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Minimal JSON string escape. Metric names are static identifiers, but
/// the writer must stay correct if one ever carries a quote.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_A: Counter = Counter::new("test.metrics.a");
    static TEST_B: Counter = Counter::new("test.metrics.b");
    static TEST_H: Hist = Hist::new("test.metrics.lat_ns");

    #[test]
    fn disabled_records_nothing_enabled_snapshots() {
        // Single test exercising the global registry end to end (tests
        // in this binary share it, so keep the lifecycle in one place).
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        TEST_A.add(5);
        crate::set_enabled(true);
        TEST_A.add(2);
        TEST_B.add(3);
        TEST_H.record(100);
        TEST_H.record(200);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.metrics.a"), Some(&2));
        assert_eq!(snap.counters.get("test.metrics.b"), Some(&3));
        assert_eq!(snap.histograms.get("test.metrics.lat_ns").unwrap().count, 2);
        assert_eq!(snap.counters_text(), "test.metrics.a 2\ntest.metrics.b 3\n");

        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.counters.get("test.metrics.a"), Some(&4));
        assert_eq!(
            merged.histograms.get("test.metrics.lat_ns").unwrap().count,
            4
        );
        let mut sat = MetricsSnapshot::default();
        sat.counters.insert("test.metrics.a".into(), u64::MAX - 1);
        sat.merge(&snap);
        assert_eq!(sat.counters.get("test.metrics.a"), Some(&u64::MAX));

        let json = snap.to_json();
        assert!(json.contains("\"test.metrics.a\": 2"));
        assert!(json.contains("\"p50\""));

        crate::reset();
        let zeroed = snapshot();
        assert_eq!(zeroed.counters.get("test.metrics.a"), Some(&0));
        assert_eq!(
            zeroed.histograms.get("test.metrics.lat_ns").unwrap().count,
            0
        );
        crate::set_enabled(false);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain.name"), "plain.name");
    }
}
