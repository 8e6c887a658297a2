//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the crates, around calls into their
//! public functions: name, start, end, parent; spans of one operation share
//! an id. Nothing is written until the run ends. A layer's self time is its
//! span minus the part of it its children cover; what no child covers stays
//! visible as that span's self time and is reported as `*.unattributed_ms`.

use std::collections::BTreeMap;
use std::time::Instant;

use tenbench_obs::json::escape_json;

/// Index of a span inside its [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Operation id: one round, pipeline iteration or request.
    op: u64,
    /// Thread lane in the chrome trace.
    lane: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// One thread's spans. Threads record into their own recorder (sharing the
/// epoch) and the owner [`absorb`](Recorder::absorb)s them afterwards, so
/// recording takes no lock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Recorder {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    /// The shared epoch, for recorders handed to other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            op,
            lane: self.lane,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent: parent.map(|p| p.0),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Record a span whose interval is reported by another process or
    /// thread as a duration: it is laid out from `start` for `ms`.
    pub fn push_ms(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        ms: f64,
    ) -> SpanId {
        let id = self.push(name, op, parent, start, start);
        let s = &mut self.spans[id.0];
        s.end_ns = s.start_ns + (ms.max(0.0) * 1e6) as u64;
        id
    }

    /// Open a parent span before its children exist; [`close`](Self::close)
    /// sets its end.
    pub fn open(&mut self, name: &str, op: u64, parent: Option<SpanId>, start: Instant) -> SpanId {
        self.push(name, op, parent, start, start)
    }

    /// Close a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        let s = &mut self.spans[id.0];
        s.end_ns = end_ns.max(s.start_ns);
    }

    /// Move another thread's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of span `id` in milliseconds.
    #[cfg(test)]
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Self time of every span in nanoseconds: its duration minus the union
    /// of its children's intervals, each clipped to the parent.
    fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let a = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let b = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, iv)| {
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in iv.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self time of span `id` in milliseconds.
    #[cfg(test)]
    pub fn self_ms(&self, id: SpanId) -> f64 {
        self.self_ns()[id.0] as f64 / 1e6
    }

    /// Every span's self time in milliseconds, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name.clone()).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Every span's duration in milliseconds, grouped by span name.
    pub fn duration_ms_by_name(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name.clone())
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// The spans as chrome-trace complete (`X`) events; `op` and the parent
    /// span's index ride in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {}, \"op\": {}, \"parent\": {}}}}}",
                escape_json(&s.name),
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.op,
                parent,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0, 0);
        let root = r.open("request", 7, None, at(t0, 0));
        // Two overlapping children (100..400, 300..600), one disjoint
        // (700..800) and one sticking out past the parent (900..1500).
        let a = r.push("decode", 7, Some(root), at(t0, 100), at(t0, 400));
        r.push("fingerprint", 7, Some(root), at(t0, 300), at(t0, 600));
        r.push("exec", 7, Some(root), at(t0, 700), at(t0, 800));
        r.push("late", 7, Some(root), at(t0, 900), at(t0, 1500));
        r.push("inner", 7, Some(a), at(t0, 150), at(t0, 250));
        r.close(root, at(t0, 1000));
        // Covered: 100..600 (500) + 700..800 (100) + 900..1000 (100).
        assert!((r.self_ms(root) - 0.3).abs() < 1e-9);
        assert!((r.self_ms(a) - 0.2).abs() < 1e-9);
        let by = r.self_ms_by_name();
        assert_eq!(by["inner"], vec![0.1]);
        // Self times of a tree add back up to the root when children nest.
        let t1 = Instant::now();
        let mut n = Recorder::new(t1, 0);
        let root = n.open("iter", 1, None, at(t1, 0));
        n.push("a", 1, Some(root), at(t1, 10), at(t1, 40));
        n.push("b", 1, Some(root), at(t1, 40), at(t1, 90));
        n.close(root, at(t1, 100));
        let total: f64 = n.self_ms_by_name().values().flatten().sum();
        assert!((total - n.duration_ms(root)).abs() < 1e-9);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let t0 = Instant::now();
        let mut main = Recorder::new(t0, 0);
        main.push("warm", 0, None, at(t0, 0), at(t0, 5));
        let mut client = Recorder::new(main.epoch(), 1);
        let wire = client.open("wire", 3, None, at(t0, 10));
        client.push_ms("service", 3, Some(wire), at(t0, 20), 0.05);
        client.close(wire, at(t0, 110));
        main.absorb(client);
        assert_eq!(main.len(), 3);
        assert!((main.self_ms_by_name()["wire"][0] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0, 2);
        let root = r.open("round \"1\"", 1, None, at(t0, 0));
        r.push("cell", 1, Some(root), at(t0, 1), at(t0, 2));
        r.close(root, at(t0, 3));
        let summary = tenbench_obs::json::validate_chrome_trace(&r.to_chrome_json())
            .expect("valid chrome trace");
        assert_eq!(summary.total_events, 2);
    }
}
