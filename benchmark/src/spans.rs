//! Benchmark-side spans: recorded around the benchmark's own calls into
//! each layer, kept in memory, written as JSONL when the run ends.
//!
//! A span is `(id, parent, job, name, start, end)`. Spans of one job share
//! its job id; a layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a job's root span).
    pub parent: Option<u32>,
    /// Index of the job in the workload's stream.
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only in-memory span log. `Sync` because the policy wrapper
/// that records into it must be `Send`; in practice one thread writes at a
/// time, so the mutex is uncontended.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the log's epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        parent: Option<u32>,
        job: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.record_ns(parent, job, name, self.ns(start), self.ns(end))
    }

    /// [`SpanLog::record`] with explicit nanosecond times (used to rebuild
    /// the service's queue/run intervals from a response's reported
    /// durations).
    pub fn record_ns(
        &self,
        parent: Option<u32>,
        job: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends (a parent must exist for its children to name it); finish it
    /// with [`SpanLog::close`].
    pub fn open(&self, parent: Option<u32>, job: u64, name: &'static str, start: Instant) -> u32 {
        let at = self.ns(start);
        self.record_ns(parent, job, name, at, at)
    }

    /// Sets the end of a span opened with [`SpanLog::open`].
    pub fn close(&self, id: u32, end: Instant) {
        let at = self.ns(end);
        self.spans.lock().expect("span log poisoned")[id as usize].end_ns = at;
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Total self time per span name, nanoseconds: each span's duration minus
/// the union of its children's intervals clipped to the span.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: HashMap<&'static str, u64> = HashMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
        *totals.entry(span.name).or_default() += span.duration_ns().saturating_sub(covered);
    }
    totals
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Writes one JSON object per span, one per line:
/// `{"id":3,"parent":1,"job":40,"name":"agent.select_action","start_ns":…,"end_ns":…}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, parent, span.job, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}
