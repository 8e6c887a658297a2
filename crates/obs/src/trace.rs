//! Trace capture and exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::counters;
use crate::json::escape_json;
use crate::span::{self, Event, EventKind, ThreadEvents};

/// A drained capture: per-thread event streams plus counter deltas.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Per-thread event streams, ordered by trace-local thread id.
    pub(crate) threads: Vec<ThreadEvents>,
    /// Counter growth from [`start_trace`] to [`stop_trace`] (gauges at
    /// their [`stop_trace`] level).
    pub counters: Vec<(String, u64)>,
    /// Events dropped during capture (buffer full or claim contention).
    pub dropped_events: u64,
}

/// Counter totals when the running capture started. There is one: trace
/// captures run one at a time.
static BASELINE: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());

/// Begin a capture: clears stale span buffers, snapshots the counters
/// the capture's deltas are read against, and enables span recording.
/// One capture at a time: a second `start_trace` before [`stop_trace`]
/// drains the first one's spans and replaces its baseline. Counter-only
/// readers ([`crate::counters::since`]) may overlap a capture freely.
pub fn start_trace() {
    // Discard anything recorded since the previous capture.
    let _ = span::drain_all();
    let _ = span::dropped_and_reset();
    *BASELINE.lock().unwrap_or_else(|e| e.into_inner()) = counters::snapshot();
    span::set_tracing(true);
}

/// End a capture and return the recorded [`Trace`]. Disables span
/// recording; the counters keep accumulating.
pub fn stop_trace() -> Trace {
    span::set_tracing(false);
    let (threads, dropped) = span::drain_all();
    let baseline = BASELINE.lock().unwrap_or_else(|e| e.into_inner());
    Trace {
        threads,
        counters: counters::since(&baseline)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        dropped_events: dropped,
    }
}

/// Is a capture currently running?
pub fn is_tracing() -> bool {
    span::tracing_enabled()
}

/// Aggregate statistics for one span name (merged across threads).
#[derive(Clone, Debug)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Number of completed instances.
    pub count: u64,
    /// Total (inclusive) nanoseconds across instances.
    pub total_ns: u64,
    /// Self (exclusive of child spans) nanoseconds across instances.
    pub self_ns: u64,
}

/// One node of the per-thread profile tree.
struct ProfNode {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Walk one thread's event stream with a stack, invoking `on_close` with
/// `(depth, path, duration_ns, self_ns)` for every completed span.
/// Unmatched `End`s are skipped; unclosed `Begin`s are closed at the
/// stream's final timestamp.
fn walk_thread(events: &[Event], mut on_close: impl FnMut(usize, &[&'static str], u64, u64)) {
    struct Frame {
        name: &'static str,
        start: u64,
        child_ns: u64,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut path: Vec<&'static str> = Vec::new();
    let last_ts = events.last().map(|e| e.ts_ns).unwrap_or(0);
    let mut close = |stack: &mut Vec<Frame>, path: &mut Vec<&'static str>, ts: u64| {
        let frame = stack.pop().expect("close with empty stack");
        path.pop();
        let dur = ts.saturating_sub(frame.start);
        let self_ns = dur.saturating_sub(frame.child_ns);
        path.push(frame.name);
        on_close(stack.len(), path, dur, self_ns);
        path.pop();
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
    };
    for ev in events {
        match ev.kind {
            EventKind::Begin => {
                stack.push(Frame {
                    name: ev.name,
                    start: ev.ts_ns,
                    child_ns: 0,
                });
                path.push(ev.name);
            }
            EventKind::End => {
                if stack.last().is_some_and(|f| f.name == ev.name) {
                    close(&mut stack, &mut path, ev.ts_ns);
                }
                // Otherwise: an orphan End (its Begin was dropped, or it
                // straddles a capture boundary) — ignore it.
            }
            // Flow edges carry no duration; they render as async/flow
            // chrome events and are invisible to the span tree.
            EventKind::Flow(_) => {}
        }
    }
    while !stack.is_empty() {
        close(&mut stack, &mut path, last_ts);
    }
}

impl Trace {
    /// Render as chrome-trace JSON (the "Trace Event Format" array form
    /// wrapped in an object), loadable in `chrome://tracing` / Perfetto.
    ///
    /// Every emitted `B` has a matching `E` on the same `(pid, tid)`:
    /// orphan `End`s are skipped and unclosed `Begin`s are closed
    /// synthetically at the thread's final timestamp.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for t in &self.threads {
            let label = if t.name.is_empty() {
                format!("thread-{}", t.tid)
            } else {
                t.name.clone()
            };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                    t.tid,
                    escape_json(&label)
                ),
            );
            // Re-walk with a stack so the emitted stream is well formed
            // even if the raw one has orphan edges.
            let mut open: Vec<&'static str> = Vec::new();
            let last_ts = t.events.last().map(|e| e.ts_ns).unwrap_or(0);
            for ev in &t.events {
                match ev.kind {
                    EventKind::Begin => {
                        open.push(ev.name);
                        push(
                            &mut out,
                            format!(
                                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"tenbench\"}}",
                                t.tid,
                                crate::json::json_f64_fixed(ev.ts_ns as f64 / 1000.0, 3),
                                escape_json(ev.name)
                            ),
                        );
                    }
                    EventKind::End => {
                        if open.last() == Some(&ev.name) {
                            open.pop();
                            push(
                                &mut out,
                                format!(
                                    "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\"}}",
                                    t.tid,
                                    crate::json::json_f64_fixed(ev.ts_ns as f64 / 1000.0, 3),
                                    escape_json(ev.name)
                                ),
                            );
                        }
                    }
                    EventKind::Flow(phase) => {
                        // Async/flow events: same lane, tied together by
                        // the context id. Flow-finish binds to the
                        // *enclosing* slice (`bp:"e"`), the rendering that
                        // draws the arrow into the batch that ran it.
                        let bp = match phase {
                            crate::span::FlowPhase::Recv => ",\"bp\":\"e\"",
                            _ => "",
                        };
                        push(
                            &mut out,
                            format!(
                                "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"tenbench.flow\",\"id\":{}{}}}",
                                phase.ph(),
                                t.tid,
                                crate::json::json_f64_fixed(ev.ts_ns as f64 / 1000.0, 3),
                                escape_json(ev.name),
                                ev.id,
                                bp
                            ),
                        );
                    }
                }
            }
            while let Some(name) = open.pop() {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\"}}",
                        t.tid,
                        crate::json::json_f64_fixed(last_ts as f64 / 1000.0, 3),
                        escape_json(name)
                    ),
                );
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(name), value);
        }
        let _ = write!(out, ",\"dropped_events\":{}", self.dropped_events);
        out.push_str("}}\n");
        out
    }

    /// Per-name aggregates (count, total, self) merged across threads.
    pub fn span_aggregates(&self) -> Vec<SpanAgg> {
        let mut by_name: BTreeMap<&'static str, ProfNode> = BTreeMap::new();
        for t in &self.threads {
            walk_thread(&t.events, |_, path, dur, self_ns| {
                let node = by_name.entry(path[path.len() - 1]).or_insert(ProfNode {
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                node.count += 1;
                node.total_ns += dur;
                node.self_ns += self_ns;
            });
        }
        by_name
            .into_iter()
            .map(|(name, n)| SpanAgg {
                name: name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
            })
            .collect()
    }

    /// The trace's span *structure*: completed-span counts keyed by full
    /// path (`"a/b/c"`), merged across threads. Structure — unlike
    /// timings or thread assignment — is deterministic for phase-level
    /// instrumentation regardless of thread count, which the test suite
    /// asserts.
    pub fn span_structure(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for t in &self.threads {
            walk_thread(&t.events, |_, path, _, _| {
                *out.entry(path.join("/")).or_insert(0) += 1;
            });
        }
        out
    }

    /// Render a plain-text hierarchical profile: per thread, one line per
    /// distinct span path with call count, total and self time.
    pub fn profile(&self) -> String {
        let mut out = String::new();
        for t in &self.threads {
            if t.events.is_empty() {
                continue;
            }
            let label = if t.name.is_empty() {
                format!("thread-{}", t.tid)
            } else {
                t.name.clone()
            };
            let _ = writeln!(out, "== tid {} ({label}) ==", t.tid);
            // Aggregate by path, remembering first-seen order of paths so
            // the tree prints parents before children.
            let mut order: Vec<String> = Vec::new();
            let mut nodes: BTreeMap<String, ProfNode> = BTreeMap::new();
            let mut depths: BTreeMap<String, usize> = BTreeMap::new();
            walk_thread(&t.events, |depth, path, dur, self_ns| {
                let key = path.join("/");
                if !nodes.contains_key(&key) {
                    order.push(key.clone());
                    depths.insert(key.clone(), depth);
                }
                let node = nodes.entry(key).or_insert(ProfNode {
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                node.count += 1;
                node.total_ns += dur;
                node.self_ns += self_ns;
            });
            // Children close before parents, so sorting paths
            // lexicographically gives a stable readable tree.
            order.sort();
            let _ = writeln!(
                out,
                "  {:<48} {:>8} {:>12} {:>12}",
                "span", "calls", "total", "self"
            );
            for key in &order {
                let node = &nodes[key];
                let depth = depths[key];
                let leaf = key.rsplit('/').next().unwrap_or(key);
                let _ = writeln!(
                    out,
                    "  {:<48} {:>8} {:>12} {:>12}",
                    format!("{}{}", "  ".repeat(depth), leaf),
                    node.count,
                    fmt_ns(node.total_ns),
                    fmt_ns(node.self_ns),
                );
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(out, "(dropped events: {})", self.dropped_events);
        }
        if out.is_empty() {
            out.push_str("(empty trace)\n");
        }
        out
    }
}

/// Human-readable duration from nanoseconds.
pub(crate) fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}
