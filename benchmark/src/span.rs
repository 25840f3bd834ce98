//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing here touches the crates under test: a span is the benchmark's
//! own note of *name, start, end, the span that caused it, the request it
//! belongs to*, kept in memory until the run ends. A layer's **self
//! time** is its span's duration minus the part its direct children cover
//! — e.g. `engine.handle` minus the `persist.append` calls it made.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Ids are 1-based positions in the merged log;
/// `parent == 0` means a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.handle`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Id of the causing span, 0 for none.
    pub parent: u32,
    /// Request (or round / repetition) the span belongs to.
    pub req: u32,
    /// Calls the span covers — 1 unless a tight loop was timed as a chunk.
    pub calls: u32,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with a shared time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The origin, so another recorder can share the time axis.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The id the *next* pushed span will get — what a caller publishes as
    /// `parent` before invoking code that records children.
    pub fn next_id(&self) -> u32 {
        self.spans.len() as u32 + 1
    }

    /// Records a span; returns its id.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Appends spans recorded elsewhere (their `parent` ids already refer
    /// to this log).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Every span, in push order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes at most `cap` spans as JSON lines.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path, cap: usize) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.spans.len().min(cap);
        for (i, s) in self.spans[..n].iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}, \"calls\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req,
                s.calls
            )?;
        }
        out.flush()?;
        Ok(n)
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// Self time of every span: duration minus its direct children's
/// durations (never below zero — clock granularity can make children sum
/// a few nanoseconds past their parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != 0 {
            if let Some(slot) = own.get_mut(s.parent as usize - 1) {
                *slot = slot.saturating_sub(s.duration_ns());
            }
        }
    }
    own
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Calls they cover.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed wall duration, nanoseconds.
    pub total_ns: u64,
}

impl NameTotal {
    /// Mean self time per call, nanoseconds.
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Aggregates self time and call counts by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += u64::from(s.calls);
        t.self_ns += own_ns;
        t.total_ns += s.duration_ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 1: request [0, 1000]
        //   2: engine.handle [100, 700]
        //     3: persist.append [200, 300]
        //     4: persist.append [400, 550]
        //   5: conn.flush [700, 900]
        let spans = [
            span("request", 0, 1_000, 0),
            span("engine.handle", 100, 700, 1),
            span("persist.append", 200, 300, 2),
            span("persist.append", 400, 550, 2),
            span("conn.flush", 700, 900, 1),
        ];
        let own = self_times(&spans);
        // request: 1000 − (600 + 200); grandchildren are not subtracted twice.
        assert_eq!(own, vec![200, 350, 100, 150, 200]);
        // Self times partition the root exactly.
        assert_eq!(own.iter().sum::<u64>(), 1_000);

        let by_name = totals(&spans);
        assert_eq!(by_name["persist.append"].calls, 2);
        assert_eq!(by_name["persist.append"].self_ns, 250);
        assert_eq!(by_name["engine.handle"].self_ns, 350);
        assert_eq!(by_name["engine.handle"].total_ns, 600);
        assert_eq!(by_name["persist.append"].self_ns_per_call(), 125.0);
    }

    #[test]
    fn self_time_never_goes_negative_and_ignores_dangling_parents() {
        let spans = [
            span("a", 0, 10, 0),
            span("b", 0, 12, 1), // child outlasts parent by clock jitter
            span("c", 0, 5, 99), // parent id not in the log
        ];
        assert_eq!(self_times(&spans), vec![0, 12, 5]);
    }

    #[test]
    fn ids_are_one_based_push_positions() {
        let mut log = SpanLog::new();
        assert_eq!(log.next_id(), 1);
        let id = log.push(span("x", 0, 1, 0));
        assert_eq!(id, 1);
        assert_eq!(log.next_id(), 2);
        log.absorb(vec![span("y", 0, 1, 1)]);
        assert_eq!(log.spans().len(), 2);
    }
}
