//! Spans around the benchmark's calls into the crates (choosing-metrics
//! §4). A traced run records them in memory and writes them at exit;
//! an untraced run only keeps the wall-clock timings its metrics need.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index in the recording.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `<crate>.<call>` of the call, or `pass.<phase>` for a phase.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The request (or pass) the span serves; spans of one request
    /// share it.
    pub req: u64,
}

/// Records spans while enabled; otherwise every call is a no-op.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span opened by [`Tracer::open`]; hand it back to
/// [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span nested in the innermost open one.
    pub fn open(&mut self, name: &str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Ends a span (and any still open inside it).
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span and returns its result with its wall time in
/// seconds (measured whether or not tracing is on).
pub fn timed<T>(t: &mut Tracer, name: &str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let span = t.open(name, req);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    t.close(span);
    (out, secs)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *by_name.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
    }
    by_name
}

/// The spans as a JSON array of `{id, parent, name, start_ns, end_ns,
/// req}` objects.
pub fn to_value(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), Value::U64(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("req".into(), Value::U64(s.req)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(0, None, "pass.cold", 0, 100),
            span(1, Some(0), "core.sweep_rows", 10, 40),
            span(2, Some(1), "core.inner", 15, 25),
            span(3, Some(0), "core.table2", 50, 90),
            // Overlaps its sibling: the overlap is covered once.
            span(4, Some(0), "core.render", 80, 95),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 30 - 45, 30 - 10, 10, 40, 15]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["pass.cold"] - 25e-9).abs() < 1e-18);
    }

    #[test]
    fn recorded_spans_nest_by_call_order() {
        let mut t = Tracer::new();
        let (_, untraced) = timed(&mut t, "core.off", 0, || 1);
        assert!(untraced >= 0.0);
        assert!(t.spans().is_empty(), "a disabled tracer records nothing");
        t.enable(true);
        let outer = t.open("pass.cold", 7);
        let (v, _) = timed(&mut t, "core.call", 3, || 42);
        t.close(outer);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = serde_json::to_string(&to_value(spans)).expect("render");
        assert!(json.contains("\"parent\":null") && json.contains("\"name\":\"core.call\""));
    }
}
