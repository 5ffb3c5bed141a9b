//! Benchmark-side spans: recorded in memory around each call into a layer's
//! public functions, written as JSONL when the run ends. A layer's self time
//! is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request or iteration the span belongs to; spans of one request share it.
    pub id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. `enter`/`exit` nest like a call stack; a
/// disabled tracer records nothing, so one driver serves both the traced and
/// the untraced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of a run share `origin`, so their spans share one clock.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing, for the untraced use of a traced path.
    pub fn off() -> Self {
        Tracer::new(Instant::now(), false)
    }

    /// A tracer for another thread of the same run: same clock, same switch.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin, self.enabled)
    }

    pub fn enter(&mut self, name: &'static str, id: u64) {
        if self.enabled {
            self.enter_at(name, id, Instant::now());
        }
    }

    pub fn exit(&mut self) {
        if self.enabled {
            self.exit_at(Instant::now());
        }
    }

    /// `enter` with a start observed earlier: a request's span starts when
    /// the request was due, which is before the call that serves it.
    pub fn enter_at(&mut self, name: &'static str, id: u64, at: Instant) {
        if self.enabled {
            let start_ns = self.ns_since_origin(at);
            let parent = self.open.last().copied();
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                id,
            });
        }
    }

    pub fn exit_at(&mut self, at: Instant) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns_since_origin(at).max(self.spans[i].start_ns);
        }
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Per span name: calls, total nanoseconds, self nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = by_name.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(children);
        }
        by_name
    }

    /// Share of the root spans' time that named child spans account for:
    /// a root's own self time is driver glue no layer was charged with.
    pub fn coverage(&self) -> f64 {
        let mut root_ns = 0u64;
        let mut covered_ns = 0u64;
        for s in &self.spans {
            match s.parent {
                None => root_ns += s.ns(),
                Some(p) if self.spans[p].parent.is_none() => covered_ns += s.ns(),
                Some(_) => {}
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            covered_ns.min(root_ns) as f64 / root_ns as f64
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                id: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer_with(&[
            ("iteration", 0, 100, None),
            ("session", 10, 90, Some(0)),
            ("step", 20, 40, Some(1)),
            ("step", 50, 80, Some(1)),
        ]);
        let by_name = t.self_times();
        assert_eq!(by_name["iteration"], (1, 100, 20));
        assert_eq!(by_name["session"], (1, 80, 30));
        assert_eq!(by_name["step"], (2, 50, 50));
        // Self times partition the root: 20 + 30 + 50 == 100.
        assert_eq!(by_name.values().map(|v| v.2).sum::<u64>(), 100);
        assert_eq!(t.coverage(), 0.8);
    }

    #[test]
    fn enter_exit_nest_and_disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now(), true);
        t.enter("a", 1);
        t.enter("b", 1);
        t.exit();
        t.enter("c", 1);
        t.exit();
        t.exit();
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(Instant::now(), false);
        off.enter("a", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn merge_keeps_parent_links() {
        let mut a = tracer_with(&[("request", 0, 10, None), ("query", 2, 9, Some(0))]);
        let b = tracer_with(&[("request", 5, 20, None), ("query", 6, 18, Some(0))]);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.total_ns("query"), 19);
    }
}
