//! # mlir-rl-obs
//!
//! Structured tracing and unified telemetry for the optimization service
//! and the schedule searchers.
//!
//! The centerpiece is [`TraceRecorder`]: a bounded collection of ring
//! buffers of fixed-size structured events (six `u64` words each — a
//! monotonic microsecond timestamp, a per-request trace id, an event kind
//! plus interned label, and three payload words), one mutex per ring.
//! Writers never allocate on the hot path and hold a ring's lock only to
//! copy one record in; when a ring wraps, the oldest events are overwritten
//! and counted as dropped. [`TraceRecorder::snapshot`]
//! merges every ring into one time-ordered [`TraceSnapshot`] which exports
//! to Chrome trace-event JSON (loadable in `chrome://tracing` / Perfetto),
//! a JSONL event log, or plain rows.
//!
//! Instrumented code never sees the recorder directly: it emits through the
//! [`Probe`] trait via a [`ProbeRef`] handle. A disabled `ProbeRef`
//! ([`ProbeRef::none`]) is two words of state and its `emit` is a branch on
//! `None` — zero allocation, no atomics, no clock read — so instrumentation
//! can stay unconditionally in place.
//!
//! [`MetricsRegistry`] complements the event stream with a point-in-time
//! metric set (counters and gauges, optionally labeled) rendered as a
//! Prometheus-style text exposition.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of `u64` words per recorded event.
const EVENT_WORDS: usize = 6;

/// Label id stored in an event that carries no label.
const NO_LABEL: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------------

/// What a trace event describes. Service lifecycle kinds come first, then
/// searcher phase kinds, then cache/budget kinds.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A request arrived at the service (args: `[client_tag, 0, 0]`).
    Submitted = 0,
    /// The request was admitted to the queue (args: `[queue_depth, reserved_budget, 0]`).
    Queued = 1,
    /// The request was refused before queueing; the label carries the
    /// reason class (`shutdown`, `queue full`, ...).
    Rejected = 2,
    /// The request was skipped because the evaluation budget could not
    /// cover its reservation (args: `[reserved, budget_spent, budget_cap]`).
    BudgetSkip = 3,
    /// The request was shed at dispatch because its deadline had expired
    /// while it sat in the queue (args: `[queue_us, 0, 0]`).
    Shed = 4,
    /// The request was cancelled while still queued (args: `[queue_us, 0, 0]`).
    CancelledInQueue = 5,
    /// A worker picked the request off the queue (args: `[queue_us, 0, 0]`).
    Dispatched = 6,
    /// The search itself started; the label is the searcher name.
    RunBegin = 7,
    /// The search finished (args: `[status, evaluations, cache_hits]`;
    /// status: 0 completed, 1 stopped, 2 skipped, 3 rejected).
    RunEnd = 8,
    /// One greedy rollout step (args: `[step, op, applied]`).
    GreedyStep = 9,
    /// One beam-search depth expanded (args: `[depth, frontier, 0]`).
    BeamDepth = 10,
    /// One MCTS iteration (args: `[iteration, nodes_expanded, 0]`).
    MctsIteration = 11,
    /// One random-search episode (args: `[episode, 0, 0]`).
    RandomEpisode = 12,
    /// A portfolio member started; label is the member name (args: `[rank, 0, 0]`).
    MemberBegin = 13,
    /// A portfolio member finished; label is the member name
    /// (args: `[rank, status, 0]`; status: 0 completed, 1 stopped, 2 skipped).
    MemberEnd = 14,
    /// The portfolio picked this member's schedule as the winner; label is
    /// the member name (args: `[rank, 0, 0]`).
    MemberWin = 15,
    /// An evaluation-cache lookup was served from the cache.
    CacheHit = 16,
    /// An evaluation-cache lookup ran the cost model (args: `[0, 0, 0]`).
    CacheMiss = 17,
    /// Evaluation budget was spent (args: `[delta, spent_after, 0]`).
    BudgetCharge = 18,
    /// Evaluation budget was returned (args: `[delta, spent_after, 0]`).
    BudgetRefund = 19,
    /// A full cache shard evicted one entry to admit a new key
    /// (args: `[shard, 0, 0]`).
    CacheEvict = 21,
    /// A cache hit set its entry's clear reference bit, giving it a second
    /// chance against eviction (args: `[shard, 0, 0]`).
    CachePromote = 22,
    /// The online trainer published a new policy version
    /// (args: `[version, probe_modules, train_step]`).
    PolicySwap = 23,
    /// A completed response was fed into the experience stream
    /// (args: `[policy_version, accepted_total, dropped_total]`).
    ExperienceEnqueued = 24,
    /// The online trainer finished one PPO iteration
    /// (args: `[step, dataset_modules, geomean_speedup_milli]`).
    TrainStep = 25,
}

impl EventKind {
    /// All kinds, in discriminant order (for decode and for docs/tests).
    pub const ALL: [EventKind; 25] = [
        EventKind::Submitted,
        EventKind::Queued,
        EventKind::Rejected,
        EventKind::BudgetSkip,
        EventKind::Shed,
        EventKind::CancelledInQueue,
        EventKind::Dispatched,
        EventKind::RunBegin,
        EventKind::RunEnd,
        EventKind::GreedyStep,
        EventKind::BeamDepth,
        EventKind::MctsIteration,
        EventKind::RandomEpisode,
        EventKind::MemberBegin,
        EventKind::MemberEnd,
        EventKind::MemberWin,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::BudgetCharge,
        EventKind::BudgetRefund,
        EventKind::CacheEvict,
        EventKind::CachePromote,
        EventKind::PolicySwap,
        EventKind::ExperienceEnqueued,
        EventKind::TrainStep,
    ];

    /// Decodes a discriminant written by [`EventKind::as_u8`]. Matches by
    /// value, not position: discriminant 20 is retired and stays unused.
    pub fn from_u8(raw: u8) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|kind| kind.as_u8() == raw)
    }

    /// The stable wire discriminant of this kind.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// The stable string name of this kind (used by the exporters).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Queued => "queued",
            EventKind::Rejected => "rejected",
            EventKind::BudgetSkip => "budget_skip",
            EventKind::Shed => "shed",
            EventKind::CancelledInQueue => "cancelled_in_queue",
            EventKind::Dispatched => "dispatched",
            EventKind::RunBegin => "run_begin",
            EventKind::RunEnd => "run_end",
            EventKind::GreedyStep => "greedy_step",
            EventKind::BeamDepth => "beam_depth",
            EventKind::MctsIteration => "mcts_iteration",
            EventKind::RandomEpisode => "random_episode",
            EventKind::MemberBegin => "member_begin",
            EventKind::MemberEnd => "member_end",
            EventKind::MemberWin => "member_win",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::BudgetCharge => "budget_charge",
            EventKind::BudgetRefund => "budget_refund",
            EventKind::CacheEvict => "cache_evict",
            EventKind::CachePromote => "cache_promote",
            EventKind::PolicySwap => "policy_swap",
            EventKind::ExperienceEnqueued => "experience_enqueued",
            EventKind::TrainStep => "train_step",
        }
    }
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

/// A sink for structured trace events. Implementations must be cheap and
/// non-blocking: probes fire from searcher inner loops and from inside the
/// service's dispatch path.
pub trait Probe: Send + Sync {
    /// Records one event. `trace_id` is `0` for events not attributable to
    /// a request; `label` is interned by recorder-backed probes, so passing
    /// the same few strings repeatedly is cheap.
    fn emit(&self, kind: EventKind, trace_id: u64, label: Option<&str>, args: [u64; 3]);
}

/// A cloneable handle through which instrumented code emits events: either
/// disabled (the default — `emit` is a branch on `None`, no allocation, no
/// clock read) or bound to a shared [`Probe`] sink plus the trace id of the
/// request currently being served.
#[derive(Clone, Default)]
pub struct ProbeRef {
    sink: Option<Arc<dyn Probe>>,
    trace_id: u64,
}

impl ProbeRef {
    /// The disabled probe: every `emit` is a no-op.
    pub fn none() -> Self {
        Self::default()
    }

    /// A probe bound to `sink`, with no trace id yet (events carry id 0
    /// until [`ProbeRef::with_trace`] scopes the handle to a request).
    pub fn new(sink: Arc<dyn Probe>) -> Self {
        Self {
            sink: Some(sink),
            trace_id: 0,
        }
    }

    /// A copy of this handle scoped to `trace_id` (`0` = unattributed).
    pub fn with_trace(&self, trace_id: u64) -> Self {
        Self {
            sink: self.sink.clone(),
            trace_id,
        }
    }

    /// The trace id events from this handle carry.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The trace id as an `Option`: `Some` only when a sink is attached —
    /// the shape response types want for their "traced as" field.
    pub fn trace_id_if_enabled(&self) -> Option<u64> {
        self.sink.as_ref().map(|_| self.trace_id)
    }

    /// True when events actually reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event through the sink, if any. With no sink this is a
    /// single branch — callers can leave instrumentation unconditionally
    /// in place.
    #[inline]
    pub fn emit(&self, kind: EventKind, label: Option<&str>, args: [u64; 3]) {
        if let Some(sink) = &self.sink {
            sink.emit(kind, self.trace_id, label, args);
        }
    }
}

impl fmt::Debug for ProbeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeRef")
            .field("enabled", &self.is_enabled())
            .field("trace_id", &self.trace_id)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// One writer's bounded ring. `head` counts records ever written; record
/// `r` sits in slot `r % capacity` until record `r + capacity` overwrites
/// it. One mutex guards both, so a snapshot only ever decodes whole records
/// however many threads share the ring.
struct Ring(Mutex<RingState>);

struct RingState {
    head: u64,
    slots: Box<[[u64; EVENT_WORDS]]>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self(Mutex::new(RingState {
            head: 0,
            slots: vec![[0; EVENT_WORDS]; capacity.max(1)].into_boxed_slice(),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.0.lock().expect("trace ring poisoned")
    }

    /// Appends one record, overwriting the oldest once the ring is full.
    fn record(&self, words: [u64; EVENT_WORDS]) {
        let mut ring = self.lock();
        let slot = (ring.head % ring.slots.len() as u64) as usize;
        ring.slots[slot] = words;
        ring.head += 1;
    }
}

struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(label.to_string());
        self.ids.insert(label.to_string(), id);
        id
    }
}

struct RecorderInner {
    epoch: Instant,
    rings: Vec<Ring>,
    labels: Mutex<Interner>,
}

/// A bounded trace recorder: `writers` independent ring buffers of
/// `capacity` structured events each, merged on [`TraceRecorder::snapshot`].
/// The handle is cheap to clone (all clones share the rings). Any number of
/// threads may write to one ring; each ring's mutex keeps its records whole.
///
/// Timestamps are microseconds since the recorder was created, read from a
/// monotonic clock. Labels (searcher names, rejection reasons) are interned
/// once into a side table so the per-event cost of a repeated label is one
/// short mutex-guarded hash lookup; unlabeled events never touch the table.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Arc<RecorderInner>,
}

impl TraceRecorder {
    /// Creates a recorder with `writers` rings of `capacity` events each.
    /// Both are clamped to at least 1.
    pub fn new(capacity: usize, writers: usize) -> Self {
        Self {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                rings: (0..writers.max(1)).map(|_| Ring::new(capacity)).collect(),
                labels: Mutex::new(Interner {
                    ids: HashMap::new(),
                    names: Vec::new(),
                }),
            }),
        }
    }

    /// Number of per-writer rings.
    pub fn writers(&self) -> usize {
        self.inner.rings.len()
    }

    /// Events each ring retains before overwriting its oldest.
    pub fn capacity(&self) -> usize {
        self.inner.rings[0].lock().slots.len()
    }

    /// A [`Probe`]-implementing handle that records into ring
    /// `writer_index`. Panics if the index is out of range.
    pub fn writer(&self, writer_index: usize) -> TraceWriter {
        assert!(
            writer_index < self.inner.rings.len(),
            "writer index {writer_index} out of range ({} rings)",
            self.inner.rings.len()
        );
        TraceWriter {
            inner: Arc::clone(&self.inner),
            ring: writer_index,
        }
    }

    /// [`TraceRecorder::writer`] pre-wrapped as an enabled [`ProbeRef`].
    pub fn probe(&self, writer_index: usize) -> ProbeRef {
        ProbeRef::new(Arc::new(self.writer(writer_index)))
    }

    /// Total events ever recorded, across all rings (including overwritten
    /// ones).
    pub fn recorded(&self) -> u64 {
        self.inner.rings.iter().map(|ring| ring.lock().head).sum()
    }

    /// Decodes every ring into one time-ordered [`TraceSnapshot`]. Safe to
    /// call while writers are active: each ring is copied out under its
    /// lock, so every decoded event is one whole record.
    pub fn snapshot(&self) -> TraceSnapshot {
        let labels = {
            let guard = self.inner.labels.lock().expect("label table poisoned");
            guard.names.clone()
        };
        let mut events = Vec::new();
        let mut dropped = 0;
        for (ring_index, ring) in self.inner.rings.iter().enumerate() {
            let ring = ring.lock();
            let capacity = ring.slots.len() as u64;
            let oldest = ring.head.saturating_sub(capacity);
            dropped += oldest;
            for record in oldest..ring.head {
                let words = ring.slots[(record % capacity) as usize];
                let kind = match EventKind::from_u8((words[2] & 0xff) as u8) {
                    Some(kind) => kind,
                    None => continue,
                };
                let label_id = (words[2] >> 32) as u32;
                events.push(TraceEvent {
                    t_us: words[0],
                    trace_id: words[1],
                    kind,
                    label: if label_id == NO_LABEL {
                        None
                    } else {
                        labels.get(label_id as usize).cloned()
                    },
                    args: [words[3], words[4], words[5]],
                    writer: ring_index,
                    seq: record,
                });
            }
        }
        events.sort_by_key(|e| (e.t_us, e.writer, e.seq));
        TraceSnapshot {
            events,
            dropped,
            writers: self.inner.rings.len(),
            capacity: self.capacity(),
        }
    }
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("writers", &self.writers())
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// A [`Probe`] that records into one ring of a [`TraceRecorder`].
#[derive(Clone)]
pub struct TraceWriter {
    inner: Arc<RecorderInner>,
    ring: usize,
}

impl Probe for TraceWriter {
    fn emit(&self, kind: EventKind, trace_id: u64, label: Option<&str>, args: [u64; 3]) {
        let label_id = match label {
            None => NO_LABEL,
            Some(label) => {
                let mut table = self.inner.labels.lock().expect("label table poisoned");
                table.intern(label)
            }
        };
        let t_us = self.inner.epoch.elapsed().as_micros() as u64;
        self.inner.rings[self.ring].record([
            t_us,
            trace_id,
            kind.as_u8() as u64 | (label_id as u64) << 32,
            args[0],
            args[1],
            args[2],
        ]);
    }
}

impl fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("ring", &self.ring)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exporters
// ---------------------------------------------------------------------------

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the recorder's epoch (monotonic clock).
    pub t_us: u64,
    /// The request this event belongs to (`0` = unattributed).
    pub trace_id: u64,
    /// What happened.
    pub kind: EventKind,
    /// Optional interned label (searcher name, rejection reason, ...).
    pub label: Option<String>,
    /// Kind-specific payload words (see [`EventKind`] docs).
    pub args: [u64; 3],
    /// Which ring recorded the event (0 = the service's submit side,
    /// `1 + w` = worker `w`).
    pub writer: usize,
    /// Per-ring record sequence number (total order within one writer).
    pub seq: u64,
}

/// A merged, time-ordered copy of every ring, plus loss accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// All decoded events, sorted by `(t_us, writer, seq)`.
    pub events: Vec<TraceEvent>,
    /// Events overwritten before this snapshot (per-ring overflow, summed).
    pub dropped: u64,
    /// Number of rings merged.
    pub writers: usize,
    /// Per-ring capacity.
    pub capacity: usize,
}

impl TraceSnapshot {
    /// Renders the snapshot as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object format), loadable in
    /// `chrome://tracing` and Perfetto.
    ///
    /// * Search runs become complete (`"X"`) duration events on their
    ///   worker's thread lane, paired from `run_begin`/`run_end`.
    /// * The queued phase of each request becomes an async span
    ///   (`"b"`/`"e"`, id = trace id) from `queued` to
    ///   `dispatched`/`shed`/`cancelled_in_queue`, so overlapping waits
    ///   never break lane nesting.
    /// * Portfolio members become async spans keyed by trace id and rank
    ///   (members run one after another on their request's worker lane).
    /// * Everything else is an instant (`"i"`) event on its writer lane.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |event: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            out.push_str(&event);
            *first = false;
            // Reborrow dance: closure owns `out` mutably.
        };
        // Thread-name metadata: lane 0 is the submit side, others workers.
        for writer in 0..self.writers {
            let name = if writer == 0 {
                "service".to_string()
            } else {
                format!("worker-{}", writer - 1)
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{writer},\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&name)
                ),
                &mut first,
            );
        }
        let mut open_runs: HashMap<usize, &TraceEvent> = HashMap::new();
        for event in &self.events {
            match event.kind {
                EventKind::RunBegin => {
                    open_runs.insert(event.writer, event);
                }
                EventKind::RunEnd => {
                    if let Some(begin) = open_runs.remove(&event.writer) {
                        let name = begin.label.as_deref().unwrap_or("run");
                        push(
                            format!(
                                "{{\"ph\":\"X\",\"name\":{},\"cat\":\"run\",\"pid\":1,\
                                 \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\
                                 \"trace_id\":{},\"status\":{},\"evaluations\":{},\
                                 \"cache_hits\":{}}}}}",
                                json_string(name),
                                event.writer,
                                begin.t_us,
                                event.t_us.saturating_sub(begin.t_us),
                                event.trace_id,
                                event.args[0],
                                event.args[1],
                                event.args[2],
                            ),
                            &mut first,
                        );
                    }
                }
                EventKind::Queued => {
                    push(
                        format!(
                            "{{\"ph\":\"b\",\"name\":\"queued\",\"cat\":\"request\",\
                             \"pid\":1,\"tid\":{},\"ts\":{},\"id\":{},\"args\":{{\
                             \"depth\":{},\"reserved\":{}}}}}",
                            event.writer, event.t_us, event.trace_id, event.args[0], event.args[1],
                        ),
                        &mut first,
                    );
                }
                EventKind::Dispatched | EventKind::Shed | EventKind::CancelledInQueue => {
                    push(
                        format!(
                            "{{\"ph\":\"e\",\"name\":\"queued\",\"cat\":\"request\",\
                             \"pid\":1,\"tid\":{},\"ts\":{},\"id\":{},\"args\":{{\
                             \"outcome\":{}}}}}",
                            event.writer,
                            event.t_us,
                            event.trace_id,
                            json_string(event.kind.name()),
                        ),
                        &mut first,
                    );
                    if event.kind != EventKind::Dispatched {
                        push(instant_json(event), &mut first);
                    }
                }
                EventKind::MemberBegin | EventKind::MemberEnd => {
                    let phase = if event.kind == EventKind::MemberBegin {
                        "b"
                    } else {
                        "e"
                    };
                    let name = event.label.as_deref().unwrap_or("member");
                    push(
                        format!(
                            "{{\"ph\":\"{phase}\",\"name\":{},\"cat\":\"member\",\
                             \"pid\":1,\"tid\":{},\"ts\":{},\"id\":{},\"args\":{{\
                             \"rank\":{}}}}}",
                            json_string(name),
                            event.writer,
                            event.t_us,
                            // One async lane per (request, member rank).
                            event
                                .trace_id
                                .wrapping_mul(1009)
                                .wrapping_add(event.args[0]),
                            event.args[0],
                        ),
                        &mut first,
                    );
                }
                _ => push(instant_json(event), &mut first),
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        out.push_str(&format!(
            "\"dropped\":{},\"writers\":{},\"capacity\":{}",
            self.dropped, self.writers, self.capacity
        ));
        out.push_str("}}");
        out
    }

    /// Renders the snapshot as JSONL: one JSON object per event, in
    /// snapshot (time) order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&format!(
                "{{\"t_us\":{},\"writer\":{},\"seq\":{},\"kind\":{},\"trace_id\":{},\
                 \"label\":{},\"args\":[{},{},{}]}}\n",
                event.t_us,
                event.writer,
                event.seq,
                json_string(event.kind.name()),
                event.trace_id,
                match &event.label {
                    Some(label) => json_string(label),
                    None => "null".to_string(),
                },
                event.args[0],
                event.args[1],
                event.args[2],
            ));
        }
        out
    }

    /// Events belonging to one request, in time order.
    pub fn for_trace(&self, trace_id: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .collect()
    }

    /// Count of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

fn instant_json(event: &TraceEvent) -> String {
    let name = match &event.label {
        Some(label) => format!("{}:{}", event.kind.name(), label),
        None => event.kind.name().to_string(),
    };
    format!(
        "{{\"ph\":\"i\",\"name\":{},\"cat\":\"phase\",\"pid\":1,\"tid\":{},\
         \"ts\":{},\"s\":\"t\",\"args\":{{\"trace_id\":{},\"a0\":{},\"a1\":{},\"a2\":{}}}}}",
        json_string(&name),
        event.writer,
        event.t_us,
        event.trace_id,
        event.args[0],
        event.args[1],
        event.args[2],
    )
}

/// Escapes `s` as a JSON string literal (with quotes): the workspace's one
/// escaper, shared by the trace exporters and every JSON report.
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

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Whether a metric accumulates (counter) or reflects a point-in-time level
/// (gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating value.
    Counter,
    /// Point-in-time level.
    Gauge,
}

impl MetricKind {
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

#[derive(Debug, Clone)]
struct MetricSample {
    name: String,
    help: String,
    kind: MetricKind,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A point-in-time metric set unifying counters and gauges from every
/// subsystem (service, cache, budget), rendered as a Prometheus-style text
/// exposition. Samples keep insertion order; `# HELP`/`# TYPE` headers are
/// emitted once per metric name, at its first sample.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    samples: Vec<MetricSample>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an unlabeled counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, help, MetricKind::Counter, &[], value);
    }

    /// Records an unlabeled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, help, MetricKind::Gauge, &[], value);
    }

    /// Records a labeled counter sample.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, help, MetricKind::Counter, labels, value);
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.samples.push(MetricSample {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for sample in &self.samples {
            if !seen.contains(&sample.name.as_str()) {
                seen.push(&sample.name);
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {}\n",
                    sample.name,
                    sample.help.replace('\\', "\\\\").replace('\n', "\\n"),
                    sample.name,
                    sample.kind.prom_type()
                ));
            }
            out.push_str(&sample.name);
            if !sample.labels.is_empty() {
                out.push('{');
                for (i, (key, value)) in sample.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{key}=\"{}\"",
                        value.replace('\\', "\\\\").replace('"', "\\\"")
                    ));
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&format_metric_value(sample.value));
            out.push('\n');
        }
        out
    }
}

fn format_metric_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

// ---------------------------------------------------------------------------
// Overhead measurement
// ---------------------------------------------------------------------------

/// Measures the recorder's hot-path cost by timing `samples` emits into a
/// scratch ring, returning nanoseconds per event. Used by the `exp_*`
/// binaries to report tracing overhead next to traced runs.
pub fn recorder_overhead_ns(samples: usize) -> f64 {
    let samples = samples.max(1);
    let recorder = TraceRecorder::new(4096, 1);
    let probe = recorder.probe(0);
    let start = Instant::now();
    for i in 0..samples {
        probe.emit(EventKind::GreedyStep, None, [i as u64, 0, 0]);
    }
    start.elapsed().as_nanos() as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn records_decode_in_order_with_labels_and_args() {
        let recorder = TraceRecorder::new(16, 2);
        let service = recorder.probe(0).with_trace(7);
        let worker = recorder.probe(1).with_trace(7);
        service.emit(EventKind::Submitted, None, [1, 0, 0]);
        service.emit(EventKind::Queued, None, [3, 2, 0]);
        worker.emit(EventKind::RunBegin, Some("beam"), [0, 0, 0]);
        worker.emit(EventKind::RunEnd, Some("beam"), [0, 5, 4]);
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events[0].kind, EventKind::Submitted);
        assert!(snap.events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        let begin = &snap.events[2];
        assert_eq!(begin.kind, EventKind::RunBegin);
        assert_eq!(begin.label.as_deref(), Some("beam"));
        assert_eq!(begin.writer, 1);
        assert_eq!(snap.for_trace(7).len(), 4);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let recorder = TraceRecorder::new(4, 1);
        let probe = recorder.probe(0);
        for i in 0..10u64 {
            probe.emit(EventKind::GreedyStep, None, [i, 0, 0]);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        let steps: Vec<u64> = snap.events.iter().map(|e| e.args[0]).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_probe_is_inert() {
        let probe = ProbeRef::none();
        assert!(!probe.is_enabled());
        assert_eq!(probe.trace_id(), 0);
        probe.emit(EventKind::CacheHit, Some("never-interned"), [0, 0, 0]);
        let scoped = probe.with_trace(9);
        assert!(!scoped.is_enabled());
        assert_eq!(scoped.trace_id(), 9);
    }

    #[test]
    fn one_ring_accepts_concurrent_writers() {
        let recorder = TraceRecorder::new(4096, 1);
        thread::scope(|scope| {
            for t in 0..4u64 {
                let probe = recorder.probe(0).with_trace(t + 1);
                scope.spawn(move || {
                    for i in 0..256u64 {
                        probe.emit(EventKind::MctsIteration, None, [i, 0, 0]);
                    }
                });
            }
        });
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 1024);
        assert_eq!(snap.dropped, 0);
        for t in 1..=4u64 {
            assert_eq!(snap.for_trace(t).len(), 256);
        }
    }

    /// Four writers lap a two-slot ring while snapshots decode it: every
    /// decoded event's payload must be the one written with its trace id.
    #[test]
    fn snapshots_never_decode_torn_events() {
        const EVENTS_PER_WRITER: u64 = 250_000;
        let payload = |id: u64| [id, !id, id.rotate_left(17)];
        let recorder = TraceRecorder::new(2, 1);
        let writing = AtomicUsize::new(4);
        let mut decoded = 0usize;
        thread::scope(|scope| {
            for w in 0..4u64 {
                let (writer, writing) = (recorder.writer(0), &writing);
                scope.spawn(move || {
                    for i in 0..EVENTS_PER_WRITER {
                        let id = w << 32 | i;
                        writer.emit(EventKind::MctsIteration, id, None, payload(id));
                    }
                    writing.fetch_sub(1, Ordering::Release);
                });
            }
            loop {
                let done = writing.load(Ordering::Acquire) == 0;
                for event in recorder.snapshot().events {
                    assert_eq!(event.args, payload(event.trace_id), "torn event");
                    decoded += 1;
                }
                if done {
                    break;
                }
            }
        });
        assert!(decoded >= 2, "only {decoded} events decoded");
        assert_eq!(recorder.recorded(), 4 * EVENTS_PER_WRITER);
    }

    #[test]
    fn chrome_export_pairs_run_spans_and_queue_asyncs() {
        let recorder = TraceRecorder::new(64, 2);
        let service = recorder.probe(0).with_trace(1);
        let worker = recorder.probe(1).with_trace(1);
        service.emit(EventKind::Submitted, None, [0, 0, 0]);
        service.emit(EventKind::Queued, None, [1, 2, 0]);
        worker.emit(EventKind::Dispatched, None, [10, 0, 0]);
        worker.emit(EventKind::RunBegin, Some("greedy"), [0, 0, 0]);
        worker.emit(EventKind::GreedyStep, None, [0, 3, 1]);
        worker.emit(EventKind::RunEnd, Some("greedy"), [0, 4, 2]);
        let json = recorder.snapshot().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "run span missing: {json}");
        assert!(json.contains("\"name\":\"greedy\""));
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"dropped\":0"));
        // Balanced braces/brackets — cheap structural sanity without a JSON
        // parser dependency.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn jsonl_emits_one_line_per_event() {
        let recorder = TraceRecorder::new(8, 1);
        let probe = recorder.probe(0).with_trace(3);
        probe.emit(EventKind::CacheMiss, None, [0, 0, 0]);
        probe.emit(EventKind::BudgetCharge, None, [1, 5, 0]);
        let jsonl = recorder.snapshot().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"kind\":\"budget_charge\""));
        assert!(jsonl.contains("\"label\":null"));
    }

    #[test]
    fn kind_roundtrips_through_wire_discriminant() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(EventKind::from_u8(20), None, "retired discriminant");
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn prometheus_emits_help_and_type_once_per_name() {
        let mut registry = MetricsRegistry::new();
        registry.gauge("mlir_rl_queue_depth", "Live queue depth.", 3.0);
        registry.counter_with(
            "mlir_rl_lane_requests_total",
            "Requests accepted per lane.",
            &[("lane", "alice")],
            12.0,
        );
        registry.counter_with(
            "mlir_rl_lane_requests_total",
            "Requests accepted per lane.",
            &[("lane", "bob")],
            1.5,
        );
        let text = registry.to_prometheus();
        assert_eq!(
            text.matches("# HELP mlir_rl_lane_requests_total").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE mlir_rl_lane_requests_total counter")
                .count(),
            1
        );
        assert!(text.contains("# TYPE mlir_rl_queue_depth gauge\n"));
        assert!(text.contains("mlir_rl_queue_depth 3\n"));
        assert!(text.contains("mlir_rl_lane_requests_total{lane=\"alice\"} 12\n"));
        assert!(text.contains("mlir_rl_lane_requests_total{lane=\"bob\"} 1.5\n"));
    }

    #[test]
    fn overhead_probe_measures_positive_cost() {
        let ns = recorder_overhead_ns(10_000);
        assert!(ns > 0.0 && ns < 100_000.0, "implausible overhead: {ns}");
    }
}
