//! The benchmark's own spans, merged with the program's trace spans on
//! one timeline, and self time computed from their nesting.
//!
//! The benchmark records a span around every call into a layer (name,
//! start, end, parent, and the op id shared by one op's spans). In the
//! traced run each op also runs under a fresh `appstore_obs::Tracer`;
//! its Chrome export is folded into the same list, shifted onto the
//! benchmark's clock. A span's self time is its duration minus the part
//! of it that nested spans cover.

use appstore_obs::Tracer;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Op id of spans recorded while setting up, outside every round.
pub const SETUP_OP: u64 = u64::MAX;

/// Who recorded a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The benchmark, around a call into a layer.
    Bench,
    /// The program's own `appstore_obs` spans, read from its tracer.
    Program,
}

/// One closed span on the benchmark's clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`models.clustering`, `fit.screen`, ...).
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing benchmark span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Who recorded it.
    pub origin: Origin,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store; written out once, when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped_events: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a benchmark span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &str, op: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            origin: Origin::Bench,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `index` and returns its duration in seconds.
    ///
    /// # Panics
    /// Panics if `index` is not the innermost open span.
    pub fn end(&mut self, index: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(index), "spans must close in order");
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a benchmark span and returns its result with the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let index = self.begin(name, op);
        let result = f();
        (result, self.end(index))
    }

    /// Like [`Recorder::span`], but when `traced` runs `f` under a fresh
    /// tracer and folds the program's spans it recorded into this store.
    pub fn traced_span<R>(
        &mut self,
        traced: bool,
        name: &str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if !traced {
            return self.span(name, op, f);
        }
        // The tracer's clock starts after `before`, so shifting by it
        // places every program span at or before its true time, and a
        // span that ended inside the benchmark span stays inside it.
        let before = self.now_ns();
        let tracer = Tracer::new();
        let (result, secs) = self.span(name, op, || appstore_obs::with_tracer(&tracer, f));
        self.absorb(&tracer, before, op);
        (result, secs)
    }

    /// Folds the spans of `tracer`, whose clock started `offset_ns` after
    /// this recorder's, into the store under `op`. Counts dropped events.
    pub fn absorb(&mut self, tracer: &Tracer, offset_ns: u64, op: u64) {
        self.dropped_events += tracer.dropped();
        let export = tracer.export_chrome();
        let doc = serde_json::parse_value(&export).expect("the tracer exports valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("chrome export has traceEvents");
        // Per track, match begin/end pairs; synthetic frames (category
        // `context`) only root child tracks under their parents and are
        // not spans of their own.
        let mut open: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
        for event in events {
            let field = |key: &str| event.get(key);
            let phase = field("ph").and_then(Value::as_str).unwrap_or("");
            if !matches!(phase, "B" | "E") || field("cat").and_then(Value::as_str) != Some("span") {
                continue;
            }
            let tid = field("tid").and_then(Value::as_u64).unwrap_or(0);
            let ts_ns = (field("ts").and_then(Value::as_f64).unwrap_or(0.0) * 1e3).round() as u64;
            let name = field("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let stack = open.entry(tid).or_default();
            if phase == "B" {
                stack.push((name, ts_ns));
            } else if let Some((begun, start)) = stack.pop() {
                debug_assert_eq!(begun, name, "unbalanced program spans");
                self.spans.push(Span {
                    name: begun,
                    start_ns: offset_ns + start,
                    end_ns: offset_ns + ts_ns,
                    parent: None,
                    op,
                    origin: Origin::Program,
                });
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Events the program's tracers dropped because their ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Spans recorded by `origin`.
    pub fn count(&self, origin: Origin) -> usize {
        self.spans.iter().filter(|s| s.origin == origin).count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}, \"origin\": \"{}\"}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op,
                match span.origin {
                    Origin::Bench => "bench",
                    Origin::Program => "program",
                }
            )
            .expect("write to String");
        }
        std::fs::write(path, out)
    }
}

/// Self time in seconds per span name over `spans`, on one timeline.
///
/// Each span's children are the spans nested inside its interval; its
/// self time is its duration minus the union of its direct children's
/// intervals (a union, so children that overlap are not subtracted
/// twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: by start, then longest first.
    order.sort_by(|&a, &b| {
        spans[a]
            .start_ns
            .cmp(&spans[b].start_ns)
            .then(spans[b].end_ns.cmp(&spans[a].end_ns))
    });
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[i].start_ns >= spans[top].start_ns && spans[i].end_ns <= spans[top].end_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children[parent].push(i);
        }
        stack.push(i);
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        // Children are visited in start order.
        for &c in &children[i] {
            let (start, end) = (spans[c].start_ns.max(reach), spans[c].end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let own = span.duration_ns().saturating_sub(covered);
        *totals.entry(span.name.clone()).or_default() += own as f64 * 1e-9;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent: None,
            op: 0,
            origin: Origin::Program,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span("outer", 0, 100),
            span("a", 10, 40),
            span("a.inner", 20, 30),
            span("b", 50, 60),
        ];
        let t = self_times(&spans);
        assert!((t["outer"] - 60e-9).abs() < 1e-15);
        assert!((t["a"] - 20e-9).abs() < 1e-15);
        assert!((t["a.inner"] - 10e-9).abs() < 1e-15);
        assert!((t["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn program_spans_land_on_the_bench_timeline() {
        let mut recorder = Recorder::new();
        let registry = appstore_obs::Registry::new();
        appstore_obs::with_registry(&registry, || {
            recorder.traced_span(true, "bench.call", 7, || {
                appstore_obs::span(appstore_obs::names::SPAN_FIT_SCREEN, || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        });
        let spans = recorder.spans();
        assert_eq!(recorder.count(Origin::Program), 1);
        let outer = spans.iter().find(|s| s.origin == Origin::Bench).unwrap();
        let inner = spans.iter().find(|s| s.origin == Origin::Program).unwrap();
        assert_eq!(inner.op, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns + 1_000);
        let t = self_times(spans);
        assert!(t["fit.screen"] >= 0.002);
        assert!(t["bench.call"] < t["fit.screen"]);
    }
}
