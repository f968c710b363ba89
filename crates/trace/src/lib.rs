//! # qsmt-trace — end-to-end job tracing
//!
//! Dependency-free tracing layer for the qsmt workspace (a leaf crate,
//! like `qsmt-telemetry`): hierarchical spans with
//! monotonic timestamps, a per-thread span buffer merged into a
//! process-wide [`TraceRegistry`] keyed by a 64-bit [`TraceId`], and two
//! views of a trace — Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`) and an indented text tree.
//!
//! It is the one span source of a solve: the run report's per-stage
//! timings come from [`timed`], which records the stage span and hands
//! back the same two clock reads.
//!
//! The design contract is the same as the PR 4 probe layer: when no
//! trace is active on the current thread, [`span`] costs one
//! thread-local read and **no clock access**, so instrumentation can
//! stay compiled in everywhere. CI gates the disabled path at <1%
//! overhead (`qsmt bench --check-trace-overhead`).
//!
//! ```
//! use qsmt_trace::{enter, span, TraceId};
//!
//! let id = TraceId::derive(42);
//! {
//!     let _job = enter(id, "job-demo");
//!     let _stage = span("compile");
//! }
//! let doc = qsmt_trace::registry().chrome_json(id).expect("registered");
//! assert!(doc.to_string().contains("\"compile\""));
//! ```
//!
//! See `docs/OBSERVABILITY.md` ("Tracing") for the span model, the
//! trace-ID lifecycle through `qsmt serve`, and a Perfetto walkthrough.

#![warn(missing_docs)]

pub mod history;
pub mod store;

pub use history::{analyze, HistoryOptions, HistoryReport, Regression, StageStats};
pub use store::RunStore;

use qsmt_telemetry::Json;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A 64-bit trace identifier. Never zero — zero is the "no active
/// trace" sentinel in the thread-local fast path.
///
/// Rendered and parsed as 16 lowercase hex digits (`{:016x}`), which is
/// also how run reports (schema v8+) and the serve API serialize it:
/// the workspace JSON type stores numbers as `f64`, which cannot
/// round-trip all 64-bit values, so trace IDs travel as strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Derives a well-mixed trace ID from any seed (e.g. a serve job
    /// id) via the splitmix64 finalizer. Deterministic, and never the
    /// zero sentinel.
    #[must_use]
    pub fn derive(seed: u64) -> TraceId {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TraceId(if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z })
    }

    /// Wraps a raw non-zero value; returns `None` for zero.
    #[must_use]
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// Parses the 16-hex-digit form produced by [`Display`](fmt::Display).
    #[must_use]
    pub fn from_hex(text: &str) -> Option<TraceId> {
        u64::from_str_radix(text, 16)
            .ok()
            .and_then(TraceId::from_raw)
    }

    /// The raw 64-bit value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One closed span, timestamped in microseconds since the process
/// trace epoch (the first clock read anywhere in this crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span label (a report stage name, `goal <name>`, `read <i>`, …).
    pub name: String,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Nesting depth at open time; the root span from [`enter`] is 0.
    pub depth: u32,
    /// Small per-thread ordinal (first traced thread is 1) — the `tid`
    /// in Chrome trace events.
    pub tid: u16,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process trace epoch. Monotonic; the epoch is
/// pinned on first use so spans from different threads share one axis.
#[must_use]
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

static NEXT_TID: AtomicU16 = AtomicU16::new(1);

struct ThreadCtx {
    /// Active trace id, 0 when inactive. The only read on the
    /// disabled [`span`] path.
    trace: Cell<u64>,
    depth: Cell<u32>,
    tid: Cell<u16>,
    buffer: RefCell<Vec<(u64, SpanRecord)>>,
}

thread_local! {
    static CTX: ThreadCtx = const {
        ThreadCtx {
            trace: Cell::new(0),
            depth: Cell::new(0),
            tid: Cell::new(0),
            buffer: RefCell::new(Vec::new()),
        }
    };
}

fn thread_tid() -> u16 {
    CTX.with(|c| {
        let tid = c.tid.get();
        if tid != 0 {
            return tid;
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed).max(1);
        c.tid.set(tid);
        tid
    })
}

/// True when a trace is active on the current thread. Use to gate
/// formatting work (dynamic span names, per-read loops) that would
/// otherwise allocate on untraced solves.
#[must_use]
pub fn active() -> bool {
    CTX.with(|c| c.trace.get()) != 0
}

/// Activates `id` on the current thread for the guard's lifetime,
/// registers it (with `label`) in the global [`registry`], and records
/// a depth-0 root span covering the whole section. Dropping the guard
/// drains this thread's span buffer into the registry.
///
/// Entering while another trace is active shadows it; the previous
/// trace is restored (with its buffered spans intact) on drop.
#[must_use]
pub fn enter(id: TraceId, label: &str) -> TraceGuard {
    registry().register(id, label);
    let prev = CTX.with(|c| {
        let prev = (c.trace.get(), c.depth.get());
        c.trace.set(id.get());
        c.depth.set(1);
        prev
    });
    TraceGuard {
        id,
        label: label.to_string(),
        start_us: now_us(),
        prev_trace: prev.0,
        prev_depth: prev.1,
    }
}

/// RAII guard from [`enter`]; see there.
pub struct TraceGuard {
    id: TraceId,
    label: String,
    start_us: u64,
    prev_trace: u64,
    prev_depth: u32,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let end = now_us();
        let root = SpanRecord {
            name: std::mem::take(&mut self.label),
            start_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            depth: 0,
            tid: thread_tid(),
        };
        let drained = CTX.with(|c| {
            c.buffer.borrow_mut().push((self.id.get(), root));
            c.trace.set(self.prev_trace);
            c.depth.set(self.prev_depth);
            if self.prev_trace == 0 {
                std::mem::take(&mut *c.buffer.borrow_mut())
            } else {
                Vec::new()
            }
        });
        if !drained.is_empty() {
            registry().merge(drained);
        }
    }
}

/// Opens a span named by a static label. When no trace is active this
/// is one thread-local read and returns an inert guard — no clock, no
/// allocation (the <1% disabled-path contract).
#[must_use]
pub fn span(name: &'static str) -> Span {
    open(Cow::Borrowed(name))
}

/// Opens a span with an owned (dynamically built) label. Callers on
/// hot paths should gate the `format!` behind [`active`].
#[must_use]
pub fn span_dyn(name: String) -> Span {
    open(Cow::Owned(name))
}

fn open(name: Cow<'static, str>) -> Span {
    if CTX.with(|c| c.trace.get()) == 0 {
        return Span::inert(name);
    }
    open_span(name, now_us())
}

/// Runs `f` inside a span named `name` and returns its result with the
/// span's start (µs since the process trace epoch) and duration. The
/// span, when a trace is active, records exactly these two clock reads,
/// so a caller's own stage timing and the trace cannot disagree. Unlike
/// [`span`] this always reads the clock: it is for work that is timed
/// whether or not anyone traces it.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64, u64) {
    let start_us = now_us();
    let mut span = if active() {
        open_span(Cow::Borrowed(name), start_us)
    } else {
        Span::inert(Cow::Borrowed(name))
    };
    let out = f();
    let end_us = now_us();
    span.close(end_us);
    (out, start_us, end_us.saturating_sub(start_us))
}

fn open_span(name: Cow<'static, str>, start_us: u64) -> Span {
    let depth = CTX.with(|c| {
        let d = c.depth.get();
        c.depth.set(d + 1);
        d
    });
    Span {
        name,
        start_us,
        depth,
        active: true,
    }
}

/// RAII span guard from [`span`] / [`span_dyn`]; records on drop.
pub struct Span {
    name: Cow<'static, str>,
    start_us: u64,
    depth: u32,
    active: bool,
}

impl Span {
    fn inert(name: Cow<'static, str>) -> Span {
        Span {
            name,
            start_us: 0,
            depth: 0,
            active: false,
        }
    }

    /// Records the span as ending at `end_us`; later calls and the drop
    /// are no-ops.
    fn close(&mut self, end_us: u64) {
        if !self.active {
            return;
        }
        self.active = false;
        let record = SpanRecord {
            name: std::mem::take(&mut self.name).into_owned(),
            start_us: self.start_us,
            dur_us: end_us.saturating_sub(self.start_us),
            depth: self.depth,
            tid: thread_tid(),
        };
        CTX.with(|c| {
            c.depth.set(self.depth);
            let trace = c.trace.get();
            if trace != 0 {
                c.buffer.borrow_mut().push((trace, record));
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            self.close(now_us());
        }
    }
}

/// Records an already-measured interval as a child span of the current
/// position — used to splice externally timed work (per-read sampler
/// intervals from `SamplerDynamics`) into the active trace. No-op when
/// no trace is active.
pub fn span_at(name: &str, start_us: u64, dur_us: u64) {
    CTX.with(|c| {
        let trace = c.trace.get();
        if trace == 0 {
            return;
        }
        let record = SpanRecord {
            name: name.to_string(),
            start_us,
            dur_us,
            depth: c.depth.get(),
            tid: thread_tid(),
        };
        c.buffer.borrow_mut().push((trace, record));
    });
}

struct TraceData {
    id: TraceId,
    label: String,
    started_us: u64,
    spans: Vec<SpanRecord>,
}

/// Process-wide bounded store of recent traces, keyed by [`TraceId`].
/// Oldest traces are evicted FIFO past `capacity`.
pub struct TraceRegistry {
    traces: Mutex<VecDeque<TraceData>>,
    capacity: usize,
}

/// How many traces the global registry retains.
pub const GLOBAL_TRACE_CAPACITY: usize = 64;

static REGISTRY: OnceLock<TraceRegistry> = OnceLock::new();

/// The process-wide registry used by [`enter`] / [`span`].
pub fn registry() -> &'static TraceRegistry {
    REGISTRY.get_or_init(|| TraceRegistry::new(GLOBAL_TRACE_CAPACITY))
}

impl TraceRegistry {
    /// A registry retaining at most `capacity` traces.
    #[must_use]
    pub fn new(capacity: usize) -> TraceRegistry {
        TraceRegistry {
            traces: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceData>> {
        // Serve workers run solves under catch_unwind; a panic while
        // holding this lock must not disable tracing process-wide.
        self.traces.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a trace (idempotent), evicting the oldest past capacity.
    pub fn register(&self, id: TraceId, label: &str) {
        let started_us = now_us();
        let mut traces = self.lock();
        if traces.iter().any(|t| t.id == id) {
            return;
        }
        while traces.len() >= self.capacity.max(1) {
            traces.pop_front();
        }
        traces.push_back(TraceData {
            id,
            label: label.to_string(),
            started_us,
            spans: Vec::new(),
        });
    }

    /// Merges a drained thread buffer of `(trace id, span)` pairs.
    /// Spans for evicted traces are dropped.
    pub fn merge(&self, records: Vec<(u64, SpanRecord)>) {
        let mut traces = self.lock();
        for (raw, record) in records {
            if let Some(trace) = traces.iter_mut().find(|t| t.id.get() == raw) {
                trace.spans.push(record);
            }
        }
    }

    /// The trace as a Chrome trace-event document (`ph: "X"` complete
    /// events, µs timestamps) that Perfetto and `chrome://tracing`
    /// load directly. `None` when `id` is unknown or evicted.
    #[must_use]
    pub fn chrome_json(&self, id: TraceId) -> Option<Json> {
        let traces = self.lock();
        let trace = traces.iter().find(|t| t.id == id)?;
        let mut events = Vec::with_capacity(trace.spans.len() + 1);
        events.push(Json::obj([
            ("ph", Json::from("M")),
            ("name", Json::from("process_name")),
            ("pid", Json::from(1u64)),
            ("args", Json::obj([("name", Json::from("qsmt"))])),
        ]));
        for span in &trace.spans {
            events.push(Json::obj([
                ("name", Json::from(span.name.as_str())),
                ("cat", Json::from("qsmt")),
                ("ph", Json::from("X")),
                ("ts", Json::from(span.start_us)),
                ("dur", Json::from(span.dur_us)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(u64::from(span.tid))),
                (
                    "args",
                    Json::obj([("depth", Json::from(u64::from(span.depth)))]),
                ),
            ]));
        }
        Some(Json::obj([
            ("trace_id", Json::from(id.to_string())),
            ("label", Json::from(trace.label.as_str())),
            ("started_us", Json::from(trace.started_us)),
            ("traceEvents", Json::Arr(events)),
        ]))
    }

    /// The same spans as [`TraceRegistry::chrome_json`] as an indented
    /// text tree, one line per span in start order:
    /// `[    1.234 ms]   compile (0.020 ms)`, starts relative to the
    /// earliest span (the root) and two spaces of indent per depth — what
    /// `qsmt solve --trace` prints. `None` when `id` is unknown or
    /// evicted.
    #[must_use]
    pub fn text(&self, id: TraceId) -> Option<String> {
        let traces = self.lock();
        let trace = traces.iter().find(|t| t.id == id)?;
        let mut spans: Vec<&SpanRecord> = trace.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_us, s.depth));
        let origin = spans.first().map_or(0, |s| s.start_us);
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "[{:>9.3} ms] {}{} ({:.3} ms)",
                (s.start_us - origin) as f64 / 1000.0,
                "  ".repeat(s.depth as usize),
                s.name,
                s.dur_us as f64 / 1000.0,
            );
        }
        Some(out)
    }

    /// A recent-first index of retained traces (id, label, start, span
    /// count) — the body of `GET /traces`.
    #[must_use]
    pub fn index_json(&self) -> Json {
        let traces = self
            .lock()
            .iter()
            .rev()
            .map(|t| {
                Json::obj([
                    ("trace_id", Json::from(t.id.to_string())),
                    ("label", Json::from(t.label.as_str())),
                    ("started_us", Json::from(t.started_us)),
                    ("spans", Json::from(t.spans.len())),
                ])
            })
            .collect();
        Json::obj([("traces", Json::Arr(traces))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, ts, dur, depth)` of every span event of a Chrome export.
    fn spans_of(id: TraceId) -> Vec<(String, u64, u64, u64)> {
        let doc = registry().chrome_json(id).expect("registered");
        let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64).unwrap();
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
                let depth = num(e.get("args").unwrap(), "depth");
                (name, num(e, "ts"), num(e, "dur"), depth)
            })
            .collect()
    }

    #[test]
    fn trace_ids_are_nonzero_and_round_trip_hex() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let id = TraceId::derive(seed);
            assert_ne!(id.get(), 0);
            let text = id.to_string();
            assert_eq!(text.len(), 16);
            assert_eq!(TraceId::from_hex(&text), Some(id));
        }
        assert_eq!(TraceId::from_raw(0), None);
        assert_eq!(TraceId::from_hex("zz"), None);
        assert_ne!(TraceId::derive(1), TraceId::derive(2));
    }

    #[test]
    fn span_is_inert_without_an_active_trace() {
        assert!(!active());
        {
            let _s = span("orphan");
            span_at("orphan-at", 1, 2);
            let ((), _, _) = timed("orphan-timed", || ());
        }
        // Nothing was buffered: a trace entered afterwards on this
        // thread holds only its own root span.
        let id = TraceId::derive(0x1ae7);
        drop(enter(id, "after-orphans"));
        let names: Vec<String> = spans_of(id).into_iter().map(|s| s.0).collect();
        assert_eq!(names, ["after-orphans"]);
    }

    #[test]
    fn nested_spans_export_as_chrome_json_and_as_an_indented_text_tree() {
        let id = TraceId::derive(0xfeed);
        let (value, start_us, dur_us) = {
            let _job = enter(id, "job-test");
            assert!(active());
            let _goal = span_dyn("goal x".to_string());
            let timed = timed("compile", || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                42
            });
            let _sample = span("sample");
            span_at("read 0", now_us(), 3);
            timed
        };
        assert!(!active());
        // `timed` returns exactly the clock reads its span recorded.
        assert_eq!(value, 42);
        assert!(dur_us >= 1000, "slept 1 ms, measured {dur_us} µs");
        let spans = spans_of(id);
        let compile = spans.iter().find(|s| s.0 == "compile").unwrap();
        assert_eq!((compile.1, compile.2, compile.3), (start_us, dur_us, 2));
        // The text view lists the same spans in start order, indented
        // by depth, starting from the root at offset zero.
        let text = registry().text(id).expect("registered");
        let expected = [
            (0, "job-test"),
            (1, "goal x"),
            (2, "compile"),
            (2, "sample"),
            (3, "read 0"),
        ];
        assert_eq!(text.lines().count(), spans.len());
        assert!(text.starts_with("[    0.000 ms] job-test ("), "{text}");
        for (line, (depth, name)) in text.lines().zip(expected) {
            let indent = "  ".repeat(depth);
            assert!(line.contains(&format!(" ms] {indent}{name} (")), "{line}");
            assert!(spans.iter().any(|s| s.0 == name && s.3 == depth as u64));
        }
    }

    #[test]
    fn registry_evicts_fifo_and_indexes_recent_first() {
        let reg = TraceRegistry::new(2);
        let (a, b, c) = (TraceId::derive(1), TraceId::derive(2), TraceId::derive(3));
        for (id, label) in [(a, "a"), (b, "b"), (c, "c")] {
            reg.register(id, label);
        }
        assert!(reg.chrome_json(a).is_none() && reg.text(a).is_none());
        let record = |name: &str| SpanRecord {
            name: name.to_string(),
            start_us: 5,
            dur_us: 7,
            depth: 1,
            tid: 1,
        };
        // A late span for the evicted trace is dropped; the live one lands.
        reg.merge(vec![(a.get(), record("late")), (c.get(), record("kept"))]);
        assert!(reg.text(c).unwrap().contains("kept (0.007 ms)"));
        let index = reg.index_json();
        let traces = index.get("traces").and_then(Json::as_arr).unwrap();
        let summary: Vec<(&str, u64)> = traces
            .iter()
            .map(|t| {
                let label = t.get("label").and_then(Json::as_str).unwrap();
                (label, t.get("spans").and_then(Json::as_u64).unwrap())
            })
            .collect();
        assert_eq!(summary, [("c", 1), ("b", 0)]);
    }
}
