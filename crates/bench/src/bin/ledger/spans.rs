//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; they stay in memory until the run ends and are then
//! written as a Chrome trace. Spans inside the program are a later
//! issue — which will be judged against the numbers these produce.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (or one probe) share an identifier.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one thread of control. Nesting follows the
/// call structure: a span opened while another is open is its child.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// The instant span timestamps count from (for spans recorded on
    /// other threads and handed to [`Recorder::add`]).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adopt a finished span recorded elsewhere against [`Self::epoch`].
    pub fn add(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request_id = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`; returns `f`'s value.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds of the most recent span called `name`.
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
    }

    /// Total milliseconds of all spans called `name`.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Smallest duration, in milliseconds, among spans called `name`:
    /// the repeat least disturbed by the machine.
    pub fn min_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Every span's self time: its duration minus the part of that
/// interval its direct children cover (children may overlap one another
/// when they ran on different threads, so their union is taken).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(me, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = me.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            me.duration_ns() - covered
        })
        .collect()
}

/// Chrome-trace / Perfetto JSON (`chrome://tracing`, ui.perfetto.dev):
/// one complete (`"ph": "X"`) event per span, microsecond timestamps,
/// one track per request id.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let self_ns = self_ns(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::from("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.request_id)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::from(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("self_us", Json::Num(self_ns[id] as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("trace", 10, 60, Some(0)),
            span("simmpi", 20, 50, Some(1)),
            span("sweep", 60, 90, Some(0)),
        ];
        // 100 - (50 + 30); 50 - 30, grandchildren not seen; leaves: all self.
        assert_eq!(self_ns(&spans), [20, 20, 30, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("score", 10, 70, Some(0)),
            span("score", 40, 90, Some(0)),
            // A child reaching past its parent is clipped.
            span("late", 95, 130, Some(0)),
        ];
        assert_eq!(self_ns(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        let v = rec.span("outer", |r| {
            r.span("inner.a", |_| ());
            r.span("inner.b", |r| r.span("leaf", |_| 42))
        });
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s
            .iter()
            .all(|x| x.request_id == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert!(rec.min_ms("outer") >= rec.last_ms("leaf"));
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let spans = vec![
            span("a", 1_000, 5_000, None),
            span("b", 2_000, 3_000, Some(0)),
        ];
        let doc = Json::parse(&chrome_trace(&spans).to_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].num_at(&["ts"]), 2.0);
        assert_eq!(events[1].num_at(&["dur"]), 1.0);
        assert_eq!(events[1].num_at(&["args", "parent"]), 0.0);
        assert_eq!(events[0].num_at(&["args", "self_us"]), 3.0);
    }
}
