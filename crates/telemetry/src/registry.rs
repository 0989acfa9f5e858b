//! Named metric registry with JSON snapshot export.
//!
//! A [`Registry`] owns every counter, gauge, histogram and the event
//! journal for one measurement scope. Most production code reports to
//! the process-wide [`Registry::global`]; replay engines and tests that need
//! isolation (parallel `cargo test` shares one process!) create their
//! own instance and thread it through `with_telemetry` constructors.
//!
//! Handle lookup is a locked `BTreeMap` — callers on hot paths resolve
//! the `Arc` handle once and cache it; subsequent observations are pure
//! relaxed atomics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::journal::{Event, EventJournal, EventKind};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A named collection of metrics plus one event journal.
#[derive(Debug)]
pub struct Registry {
    /// Monotonic epoch: every journal event's `wall_ns` is relative to
    /// this instant. Never a wall-clock date.
    start: Instant,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    journal: EventJournal,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            journal: EventJournal::new(),
        }
    }
}

impl Registry {
    /// A fresh registry for a scoped measurement (one engine, one test).
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// The process-wide default registry.
    pub fn global() -> &'static Arc<Registry> {
        static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Monotonic nanoseconds since this registry was created.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Resolve (creating on first use) the counter named `name`.
    /// Cache the returned handle on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), c.clone());
        c
    }

    /// Resolve (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), g.clone());
        g
    }

    /// Resolve (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Append a journal event stamped with the monotonic wall offset.
    pub fn event(&self, kind: EventKind, virt: u64, detail: impl Into<String>) {
        self.journal.push(Event {
            wall_ns: self.elapsed_ns(),
            virt,
            kind,
            detail: detail.into(),
        });
    }

    /// The event journal for direct inspection.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Point-in-time copy of every metric and the journal.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            elapsed_ns: self.elapsed_ns(),
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            events: self.journal.events(),
            events_dropped: self.journal.dropped(),
        }
    }

    /// Serialise a snapshot straight to a JSON file.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let json = self.snapshot().to_json();
        let mut f = std::fs::File::create(path.as_ref())?;
        f.write_all(json.as_bytes())?;
        f.write_all(b"\n")
    }
}

/// A point-in-time copy of a [`Registry`], exportable as JSON.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotonic nanoseconds since the registry epoch at snapshot time.
    pub elapsed_ns: u64,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub events: Vec<Event>,
    pub events_dropped: u64,
}

impl Snapshot {
    /// Hand-rolled JSON (the crate is zero-dependency). Keys are sorted
    /// (BTreeMap) so output is deterministic for a given state.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"elapsed_ns\": {},\n", self.elapsed_ns));

        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(k), v));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(k), json_f64(*v)));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Buckets are exported sparsely: [exponent, count] pairs.
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(e, c)| format!("[{e},{c}]"))
                .collect();
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"buckets_pow2\": [{}]}}",
                json_string(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                json_f64(h.mean()),
                buckets.join(",")
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"wall_ns\": {}, \"virt\": {}, \"kind\": {}, \"detail\": {}}}",
                e.wall_ns,
                e.virt,
                json_string(e.kind.as_str()),
                json_string(&e.detail)
            ));
        }
        out.push_str(if self.events.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str(&format!("  \"events_dropped\": {}\n", self.events_dropped));
        out.push('}');
        out
    }
}

/// A string as a quoted JSON string: `"` and `\` escaped, control
/// characters as `\n`, `\r`, `\t` or `\u00XX`, everything else as is.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an f64 as a JSON number (JSON has no NaN/Inf: map to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.add(3);
        b.add(4);
        assert_eq!(r.counter("x.count").get(), 7);
    }

    #[test]
    fn snapshot_collects_everything() {
        let r = Registry::new();
        r.counter("bytes").add(128);
        r.gauge("fraction").set(0.25);
        r.histogram("lat_ns").observe(1000);
        r.event(EventKind::NodeFailure, 7, "node=3");
        let s = r.snapshot();
        assert_eq!(s.counters["bytes"], 128);
        assert_eq!(s.gauges["fraction"], 0.25);
        assert_eq!(s.histograms["lat_ns"].count, 1);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].virt, 7);
        assert_eq!(s.events[0].kind, EventKind::NodeFailure);
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let r = Registry::new();
        r.counter("a.b").add(1);
        r.gauge("g").set(0.5);
        r.histogram("h").observe(2);
        r.event(EventKind::RecoveryComplete, 1, "say \"hi\"\n");
        let json = r.snapshot().to_json();
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"g\": 0.5"));
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.contains("\\n"));
        // Balanced braces/brackets outside strings — a cheap validity check.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn empty_registry_exports_valid_json() {
        let json = Registry::new().snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"events\": []"));
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join(format!("hcft-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let r = Registry::new();
        r.counter("k").add(2);
        r.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"k\": 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
