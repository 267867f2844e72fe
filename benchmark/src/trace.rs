//! In-memory spans around the harness's calls into each layer, written out as Chrome
//! trace-event JSON when the run ends.
//!
//! Spans are recorded from the benchmark's own files only: the simulation crates
//! stay free of wall-clock reads. A span names the layer whose public function the
//! harness called, the lane (harness thread or rank) it ran on, and the span that
//! caused it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Identifier of a recorded span (0 is never used).
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// What was called ("engine.run HPCCG/Small/64/REINIT-FTI/fault").
    pub name: String,
    /// The layer the called function belongs to.
    pub layer: &'static str,
    /// Harness thread index or rank number the call ran on.
    pub lane: u32,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            // A statistic-free identifier source: nothing is published through it.
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its own calls.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        lane: u32,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let result = f(id);
        let end_us = self.now_us();
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(Span {
                id,
                parent,
                name: name.into(),
                layer,
                lane,
                start_us,
                end_us,
            });
        result
    }

    /// The spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        spans
    }
}

/// Runs `f` inside a span when tracing is on, and bare when it is off — the untraced
/// pass pays nothing but this branch.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    layer: &'static str,
    name: impl FnOnce() -> String,
    lane: u32,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(layer, name(), lane, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time per layer in milliseconds: each span's duration minus the part of its
/// interval that its child spans cover (children on parallel lanes may overlap, so
/// the covered part is the union of their intervals).
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        *out.entry(s.layer).or_default() += (s.end_us - s.start_us - covered).max(0.0) / 1000.0;
    }
    out
}

/// The spans no other span names as its parent.
pub fn leaf_spans(spans: &[Span]) -> Vec<&Span> {
    let parents: std::collections::BTreeSet<SpanId> =
        spans.iter().filter_map(|s| s.parent).collect();
    spans.iter().filter(|s| !parents.contains(&s.id)).collect()
}

/// Renders one workload's spans as Chrome trace events (`chrome://tracing`,
/// Perfetto): a process-name record, then one complete event per span with `pid`
/// per workload and `tid` per lane.
pub fn chrome_events(pid: u64, workload: &str, spans: &[Span]) -> Vec<Json> {
    let mut events = vec![Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Int(pid)),
        ("args", Json::obj([("name", Json::str(workload))])),
    ])];
    events.extend(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name.clone())),
            ("cat", Json::str(s.layer)),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_us)),
            ("dur", Json::Num(s.end_us - s.start_us)),
            ("pid", Json::Int(pid)),
            ("tid", Json::Int(u64::from(s.lane))),
            (
                "args",
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::Int)),
                    ("layer", Json::str(s.layer)),
                    ("workload", Json::str(workload)),
                ]),
            ),
        ])
    }));
    events
}

/// The trace file around the events of every workload.
pub fn chrome_doc(events: Vec<Json>) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            lane: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "harness", 0.0, 10_000.0),
            // Two overlapping children on parallel lanes cover 1..7 ms.
            span(2, Some(1), "core", 1_000.0, 5_000.0),
            span(3, Some(1), "core", 3_000.0, 7_000.0),
            span(4, Some(2), "fti", 2_000.0, 3_000.0),
        ];
        let by_layer = self_ms_by_layer(&spans);
        assert!((by_layer["harness"] - 4.0).abs() < 1e-9);
        assert!((by_layer["core"] - 7.0).abs() < 1e-9);
        assert!((by_layer["fti"] - 1.0).abs() < 1e-9);
        let leaves: Vec<SpanId> = leaf_spans(&spans).iter().map(|s| s.id).collect();
        assert_eq!(leaves, vec![3, 4]);
    }

    #[test]
    fn tracer_records_nesting_and_off_means_bare() {
        let tracer = Tracer::new();
        let value = traced(
            Some(&tracer),
            "core",
            || "outer".into(),
            0,
            None,
            |outer| traced(Some(&tracer), "fti", || "inner".into(), 1, outer, |_| 7),
        );
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].end_us >= spans[1].end_us);
        let bare = traced(None, "core", || unreachable!(), 0, None, |id| id);
        assert_eq!(bare, None);
    }

    #[test]
    fn chrome_trace_parses_and_carries_parent_and_layer() {
        let spans = [
            span(1, None, "core", 0.0, 5.0),
            span(2, Some(1), "fti", 1.0, 2.0),
        ];
        let doc = chrome_doc(chrome_events(1, "fig-fault", &spans));
        let parsed = crate::json::parse_json(&doc.pretty()).expect("valid JSON");
        let events =
            crate::json::as_array(crate::json::get(&parsed, "traceEvents").unwrap()).unwrap();
        assert_eq!(events.len(), 3);
        let last = &events[2];
        assert_eq!(
            crate::json::as_str(crate::json::get(last, "cat").unwrap()),
            Some("fti")
        );
        assert_eq!(
            crate::json::as_f64(crate::json::get_path(last, &["args", "parent"]).unwrap()),
            Some(1.0)
        );
    }
}
