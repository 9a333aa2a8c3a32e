//! Harness-side tracing over `xpl_obs::TraceRing`.
//!
//! The traced run wraps every top-level call into the program in a span:
//! its name is the op kind, its parent the span of the phase the run is
//! in, and the op's index in the generated op list is recorded beside it
//! as the request id (so the client and server spans of one wire request
//! share it). Spans stay
//! in memory until the run ends; [`Tracer::finish`] aggregates them and
//! `main` writes [`TraceSummary::to_json`] out. An untraced run carries
//! a disabled tracer whose calls cost one branch.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Json;
use xpl_obs::{aggregate_spans, AggSpan, SpanGuard, SpanRecord, TraceRing, WallClock};

/// Spans the ring keeps; a 20 s wire run records about 300 k.
const RING_CAPACITY: usize = 2_000_000;
/// Raw spans written to the trace file (the aggregate covers all).
const RAW_SPANS_WRITTEN: usize = 20_000;

pub struct Tracer {
    ring: Option<Arc<TraceRing>>,
    /// `(span id, request id)` of every op span.
    requests: Mutex<Vec<(u64, u64)>>,
    /// The open phase span and its id (0 between phases; span ids start at 1).
    phase: Mutex<Option<SpanGuard>>,
    phase_id: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            ring: enabled.then(|| TraceRing::new(RING_CAPACITY, Arc::new(WallClock::new()))),
            requests: Mutex::new(Vec::new()),
            phase: Mutex::new(None),
            phase_id: AtomicU64::new(0),
        }
    }

    /// The ring itself, for layers that take one (`xpl-persist`).
    pub fn ring(&self) -> Option<&Arc<TraceRing>> {
        self.ring.as_ref()
    }

    /// Close the phase the run was in and open the next (a root span).
    pub fn enter_phase(&self, name: &str) {
        self.end_phase();
        if let Some(ring) = &self.ring {
            let guard = ring.span(name, None);
            self.phase_id.store(guard.id(), Relaxed);
            *self.phase.lock().unwrap() = Some(guard);
        }
    }

    /// Close the current phase; ops until the next one are roots.
    pub fn end_phase(&self) {
        self.phase_id.store(0, Relaxed);
        drop(self.phase.lock().unwrap().take());
    }

    /// Open the span of one op under the current phase, tagged with its
    /// request id.
    pub fn op(&self, name: &str, request: u64) -> Option<SpanGuard> {
        let parent = self.phase_id.load(Relaxed);
        self.child(name, (parent != 0).then_some(parent), request)
    }

    /// Open a span under an explicit parent: a store's share of a
    /// five-store op, the server's side of a wire request.
    pub fn child(&self, name: &str, parent: Option<u64>, request: u64) -> Option<SpanGuard> {
        let ring = self.ring.as_ref()?;
        let guard = ring.span(name, parent);
        self.requests.lock().unwrap().push((guard.id(), request));
        Some(guard)
    }

    /// Mean cost of recording one span on this ring, in ns, measured on a
    /// scratch ring of the same kind so the run's own spans stay clean.
    pub fn span_cost_ns() -> f64 {
        let ring = TraceRing::new(1024, Arc::new(WallClock::new()));
        let n = 20_000;
        let t = Instant::now();
        for _ in 0..n {
            drop(ring.span("calibrate", None));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    }

    /// Close the books: all completed spans, aggregated by name.
    pub fn finish(&self) -> TraceSummary {
        let spans = self
            .ring
            .as_ref()
            .map(|r| r.completed())
            .unwrap_or_default();
        let tree = aggregate_spans(&spans);
        TraceSummary {
            requests: self.requests.lock().unwrap().clone(),
            spans,
            tree,
        }
    }
}

/// A node's self time: its total minus the part its child spans cover.
fn self_ns(node: &AggSpan) -> u64 {
    let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
    node.total_ns.saturating_sub(children)
}

/// Span id of an open guard, as the parent handle for child spans.
pub fn span_id(guard: &Option<SpanGuard>) -> Option<u64> {
    guard.as_ref().map(SpanGuard::id)
}

pub struct TraceSummary {
    pub spans: Vec<SpanRecord>,
    pub requests: Vec<(u64, u64)>,
    pub tree: Vec<AggSpan>,
}

/// One name's totals across the whole aggregated tree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part its child spans cover.
    pub self_ns: u64,
}

impl TraceSummary {
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Totals of every span named `name`, wherever it sits in the tree.
    pub fn totals(&self, name: &str) -> NameTotals {
        fn walk(nodes: &[AggSpan], name: &str, acc: &mut NameTotals) {
            for n in nodes {
                if n.name == name {
                    acc.count += n.count;
                    acc.total_ns += n.total_ns;
                    acc.self_ns += self_ns(n);
                }
                walk(&n.children, name, acc);
            }
        }
        let mut acc = NameTotals::default();
        walk(&self.tree, name, &mut acc);
        acc
    }

    /// Mean duration of the spans named `name`, in ms (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64 / 1e6
        }
    }

    /// The aggregated tree as indented text lines with self times.
    pub fn render(&self) -> String {
        fn walk(nodes: &[AggSpan], depth: usize, out: &mut String) {
            for n in nodes {
                out.push_str(&format!(
                    "{:indent$}{} x{} total {:.3} ms self {:.3} ms\n",
                    "",
                    n.name,
                    n.count,
                    n.total_ns as f64 / 1e6,
                    self_ns(n) as f64 / 1e6,
                    indent = depth * 2
                ));
                walk(&n.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.tree, 0, &mut out);
        out
    }

    fn tree_json(nodes: &[AggSpan]) -> Json {
        Json::Arr(
            nodes
                .iter()
                .map(|n| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(n.name.clone())),
                        ("count".into(), Json::UInt(n.count)),
                        ("total_ns".into(), Json::UInt(n.total_ns)),
                        ("self_ns".into(), Json::UInt(self_ns(n))),
                        ("children".into(), Self::tree_json(&n.children)),
                    ])
                })
                .collect(),
        )
    }

    /// The trace document: the aggregated tree over all spans, and the
    /// first [`RAW_SPANS_WRITTEN`] raw spans as
    /// `[id, parent, name, start_ns, end_ns, request]` rows.
    pub fn to_json(&self) -> Json {
        let request_of: std::collections::HashMap<u64, u64> =
            self.requests.iter().copied().collect();
        let raw = self
            .spans
            .iter()
            .take(RAW_SPANS_WRITTEN)
            .map(|s| {
                Json::Arr(vec![
                    Json::UInt(s.id),
                    s.parent.map_or(Json::Null, Json::UInt),
                    Json::Str(s.name.clone()),
                    Json::UInt(s.start_ns),
                    Json::UInt(s.end_ns),
                    request_of.get(&s.id).map_or(Json::Null, |&r| Json::UInt(r)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("span_count".into(), Json::UInt(self.spans.len() as u64)),
            ("tree".into(), Self::tree_json(&self.tree)),
            (
                "span_columns".into(),
                Json::Arr(
                    ["id", "parent", "name", "start_ns", "end_ns", "request"]
                        .iter()
                        .map(|c| Json::Str(c.to_string()))
                        .collect(),
                ),
            ),
            ("spans".into(), Json::Arr(raw)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.enter_phase("phase");
        assert!(t.op("publish", 0).is_none());
        assert_eq!(t.finish().span_count(), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_requests_are_kept() {
        let t = Tracer::new(true);
        t.enter_phase("mix");
        for i in 0..3 {
            let op = t.op("retrieve", i);
            drop(t.child("svc", span_id(&op), i));
        }
        t.end_phase();
        let s = t.finish();
        assert_eq!(s.span_count(), 7);
        let retrieve = s.totals("retrieve");
        let svc = s.totals("svc");
        assert_eq!((retrieve.count, svc.count), (3, 3));
        assert_eq!(retrieve.self_ns, retrieve.total_ns - svc.total_ns);
        assert_eq!(svc.self_ns, svc.total_ns);
        assert_eq!(s.requests.len(), 6);
        let doc = s.to_json();
        assert_eq!(doc.get("span_count").and_then(Json::as_f64), Some(7.0));
        assert!(s.render().contains("retrieve x3"));
        assert!(Tracer::span_cost_ns() > 0.0);
    }
}
