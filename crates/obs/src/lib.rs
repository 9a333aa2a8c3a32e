//! `xpl-obs` — the deterministic observability core.
//!
//! One [`Registry`] of named metrics feeds every layer of the stack:
//! CAS shards, the durable backend, the registry front end, the wire
//! layer, and the codec tiers. Three design rules keep observability
//! from weakening the differential oracles the repo is built on:
//!
//! 1. **Integers only.** Counters and histograms hold `u64`s;
//!    histograms bucket by `log2`, so a snapshot never contains a
//!    float and renders byte-identically on every host.
//! 2. **A deterministic / wall split.** Every metric is registered
//!    under a [`Section`]: `Det` metrics are derived purely from
//!    operation counts and must be byte-identical at any thread count
//!    (the 1-vs-4-thread CI diff pins them); `Wall` metrics (timings,
//!    anything transport-scheduling dependent) are excluded from the
//!    deterministic fingerprint.
//! 3. **Pay only when attached.** Instrumented structs hold a
//!    `OnceLock` handle; an unattached hot path costs one load and a
//!    branch, and a run without a registry is byte-identical to a run
//!    with one — observability is zero-interference by construction.
//!
//! Snapshots render as canonical sorted JSON (with an embedded SHA-256
//! `det_fingerprint` over the deterministic section); traces render as
//! an aggregated span tree ([`render_tree`]) keyed by name with
//! per-phase totals, which is what `repro profile` prints.
//!
//! The [`Clock`] seam decouples span timing from the host: real runs
//! use [`WallClock`], the span tests a hand-advanced clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use xpl_util::Sha256;

// ------------------------------------------------------------- sections

/// Which fingerprint a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Operation-count-derived: byte-identical at any thread count.
    Det,
    /// Timings, transport-dependent counts: excluded from the
    /// deterministic fingerprint.
    Wall,
}

impl Section {
    pub fn name(self) -> &'static str {
        match self {
            Section::Det => "det",
            Section::Wall => "wall",
        }
    }
}

// -------------------------------------------------------------- metrics

/// A monotonically increasing counter. All ordering is `Relaxed`: obs
/// counts are sums of commutative increments, never synchronization.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k - 1]`; `u64::MAX`
/// lands in bucket 64.
pub(crate) const HIST_BUCKETS: usize = 65;

/// Bucket index of a value. No floats, no branches beyond the zero
/// case: `65 - leading_zeros` shifted down by one.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A log2-bucketed integer histogram. Per-bucket counts plus a
/// saturating sum; snapshots are exact integers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Saturating: a histogram over u64 samples can overflow the sum
        // long before any bucket count wraps; pin at MAX instead of
        // wrapping into a nonsense total.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-number copy of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub(crate) fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

// ------------------------------------------------------------- registry

/// Metric names are a restricted charset so the canonical JSON needs
/// no escaping: lowercase alphanumerics, dots, underscores, dashes.
fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"._-".contains(&b)),
        "invalid metric name {name:?}: use [a-z0-9._-]"
    );
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, (Section, Arc<Counter>)>,
    histograms: BTreeMap<String, (Section, Arc<Histogram>)>,
}

/// The named-metric registry. Registration (get-or-create) takes a
/// lock; the returned `Arc` handles are lock-free on the hot path.
/// Snapshots render canonically — names sorted, integers only — so
/// two registries fed the same operation stream render byte-identical
/// deterministic sections regardless of registration order or thread
/// count.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    pub fn counter(&self, name: &str, section: Section) -> Arc<Counter> {
        check_name(name);
        let mut inner = self.inner.lock().unwrap();
        let (s, c) = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| (section, Arc::new(Counter::default())))
            .clone();
        assert_eq!(s, section, "metric {name} re-registered in another section");
        c
    }

    pub fn histogram(&self, name: &str, section: Section) -> Arc<Histogram> {
        check_name(name);
        let mut inner = self.inner.lock().unwrap();
        let (s, h) = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| (section, Arc::new(Histogram::default())))
            .clone();
        assert_eq!(s, section, "metric {name} re-registered in another section");
        h
    }

    /// A point-in-time plain-number copy of every metric, sorted.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, (s, c))| (n.clone(), *s, c.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, (s, h))| (n.clone(), *s, h.snapshot()))
                .collect(),
        }
    }
}

// ------------------------------------------------------------- snapshot

/// A rendered-ready copy of a [`Registry`]: names sorted (BTreeMap
/// iteration order), values plain integers.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, section, value)`, name-sorted.
    pub counters: Vec<(String, Section, u64)>,
    pub histograms: Vec<(String, Section, HistogramSnapshot)>,
}

fn render_hist_json(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("{\"buckets\":{");
    let mut first = true;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{i}\":{c}"));
    }
    out.push_str(&format!("}},\"count\":{},\"sum\":{}}}", h.count(), h.sum));
}

impl Snapshot {
    /// Render one section as a canonical JSON object:
    /// `{"counters":{...},"histograms":{...}}` with
    /// name-sorted keys and integer values only. Byte-stable by
    /// construction — the fingerprints hash exactly this rendering.
    pub fn render_section_json(&self, section: Section) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        let mut first = true;
        for (name, s, v) in &self.counters {
            if *s != section {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, s, h) in &self.histograms {
            if *s != section {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":"));
            render_hist_json(&mut out, h);
        }
        out.push_str("}}");
        out
    }

    /// SHA-256 (hex) of the deterministic section's canonical JSON —
    /// the value CI diffs across thread counts.
    pub fn det_fingerprint(&self) -> String {
        Sha256::digest(self.render_section_json(Section::Det).as_bytes()).to_hex()
    }

    /// SHA-256 (hex) over both sections' canonical JSON.
    pub fn fingerprint(&self) -> String {
        let both = format!(
            "{}\n{}",
            self.render_section_json(Section::Det),
            self.render_section_json(Section::Wall)
        );
        Sha256::digest(both.as_bytes()).to_hex()
    }

    /// The full snapshot document: both sections plus their embedded
    /// fingerprints, canonical and self-describing — what `--metrics`
    /// writes and what the `Stats` wire request returns.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"det_fingerprint\":\"{}\",\"fingerprint\":\"{}\",\"sections\":{{\"det\":{},\"wall\":{}}}}}",
            self.det_fingerprint(),
            self.fingerprint(),
            self.render_section_json(Section::Det),
            self.render_section_json(Section::Wall)
        )
    }
}

/// Extract the embedded `det_fingerprint` from a rendered snapshot
/// document (what a wire client holds) without a JSON parser.
pub fn parse_det_fingerprint(json: &str) -> Option<&str> {
    let key = "\"det_fingerprint\":\"";
    let start = json.find(key)? + key.len();
    let end = json[start..].find('"')? + start;
    Some(&json[start..end])
}

// ---------------------------------------------------------------- clock

/// The time seam: spans ask a clock, never `Instant::now` directly, so
/// the same trace machinery serves wall runs and deterministic tests.
pub trait Clock: Send + Sync {
    fn now_ns(&self) -> u64;
}

/// Monotonic wall time, as nanoseconds since clock construction.
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    #[allow(clippy::new_without_default)]
    pub fn new() -> WallClock {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------- trace

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct OpenSpan {
    parent: Option<u64>,
    name: String,
    start_ns: u64,
}

struct RingInner {
    next_id: u64,
    open: BTreeMap<u64, OpenSpan>,
    done: std::collections::VecDeque<SpanRecord>,
}

/// A bounded ring of completed spans with parent/child edges. `begin`
/// hands out span ids; `end` moves the span into the ring, evicting
/// the oldest completed span past capacity. The RAII [`SpanGuard`]
/// (via [`TraceRing::span`]) is the usual way in.
pub struct TraceRing {
    cap: usize,
    clock: Arc<dyn Clock>,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    pub fn new(cap: usize, clock: Arc<dyn Clock>) -> Arc<TraceRing> {
        Arc::new(TraceRing {
            cap: cap.max(1),
            clock,
            inner: Mutex::new(RingInner {
                next_id: 1,
                open: BTreeMap::new(),
                done: std::collections::VecDeque::new(),
            }),
        })
    }

    pub(crate) fn begin(&self, name: &str, parent: Option<u64>) -> u64 {
        let now = self.clock.now_ns();
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.open.insert(
            id,
            OpenSpan {
                parent,
                name: name.to_string(),
                start_ns: now,
            },
        );
        id
    }

    pub(crate) fn end(&self, id: u64) {
        let now = self.clock.now_ns();
        let mut inner = self.inner.lock().unwrap();
        let Some(open) = inner.open.remove(&id) else {
            return; // double-end: ignore, never panic in telemetry
        };
        inner.done.push_back(SpanRecord {
            id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: now,
        });
        if inner.done.len() > self.cap {
            inner.done.pop_front();
        }
    }

    /// RAII span: ends on drop.
    pub fn span(self: &Arc<Self>, name: &str, parent: Option<u64>) -> SpanGuard {
        SpanGuard {
            ring: Arc::clone(self),
            id: self.begin(name, parent),
        }
    }

    /// Completed spans, oldest first.
    pub fn completed(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().done.iter().cloned().collect()
    }
}

/// Ends its span on drop; `id()` is the parent handle for children.
pub struct SpanGuard {
    ring: Arc<TraceRing>,
    id: u64,
}

impl SpanGuard {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.ring.end(self.id);
    }
}

// ----------------------------------------------------- span aggregation

/// One node of the aggregated span tree: spans grouped by name under
/// their parents' group, with total time and invocation count.
#[derive(Clone, Debug)]
pub struct AggSpan {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub children: Vec<AggSpan>,
}

fn aggregate_level(
    spans: &[SpanRecord],
    by_parent: &BTreeMap<Option<u64>, Vec<usize>>,
    parents: &[usize],
) -> Vec<AggSpan> {
    // Group this level's children (children of ANY span in `parents`,
    // or the roots when `parents` is empty) by name, in
    // first-appearance order.
    let child_idxs: Vec<usize> = if parents.is_empty() {
        by_parent.get(&None).cloned().unwrap_or_default()
    } else {
        let mut v: Vec<usize> = Vec::new();
        for &p in parents {
            if let Some(kids) = by_parent.get(&Some(spans[p].id)) {
                v.extend_from_slice(kids);
            }
        }
        v.sort_unstable();
        v
    };
    let mut order: Vec<&str> = Vec::new();
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &i in &child_idxs {
        let name = spans[i].name.as_str();
        groups
            .entry(name)
            .or_insert_with(|| {
                order.push(name);
                Vec::new()
            })
            .push(i);
    }
    order
        .iter()
        .map(|name| {
            let idxs = &groups[name];
            AggSpan {
                name: name.to_string(),
                count: idxs.len() as u64,
                total_ns: idxs.iter().map(|&i| spans[i].duration_ns()).sum(),
                children: aggregate_level(spans, by_parent, idxs),
            }
        })
        .collect()
}

/// Aggregate completed spans into a name-grouped tree (first-appearance
/// order at every level).
pub fn aggregate_spans(spans: &[SpanRecord]) -> Vec<AggSpan> {
    let mut by_parent: BTreeMap<Option<u64>, Vec<usize>> = BTreeMap::new();
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    for (i, s) in spans.iter().enumerate() {
        // A parent that was evicted from the ring (or never ended)
        // promotes its children to roots rather than dropping them.
        let key = match s.parent {
            Some(p) if ids.contains(&p) => Some(p),
            _ => None,
        };
        by_parent.entry(key).or_default().push(i);
    }
    aggregate_level(spans, &by_parent, &[])
}

fn render_agg(out: &mut String, nodes: &[AggSpan], depth: usize) {
    for n in nodes {
        let label = format!("{:indent$}{}", "", n.name, indent = depth * 2);
        out.push_str(&format!(
            "{label:<28} total {:>10.3} ms  count {:>6}\n",
            n.total_ns as f64 / 1e6,
            n.count
        ));
        render_agg(out, &n.children, depth + 1);
    }
}

/// Render the aggregated span tree as indented text with per-phase
/// totals — the `repro profile` output.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    render_agg(&mut out, &aggregate_spans(spans), 0);
    out
}

// ------------------------------------------------- attachment pattern

/// The shim instrumented structs embed: a `OnceLock` around an
/// arbitrary handle bundle. Unattached, the hot path pays one atomic
/// load and a branch.
pub type ObsSlot<T> = OnceLock<Arc<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Inclusive upper bound of a bucket: the oracle for `bucket_index`.
    fn bucket_upper_bound(idx: usize) -> u64 {
        if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// A hand-advanced clock for deterministic span tests.
    #[derive(Default)]
    struct ManualClock {
        now: AtomicU64,
    }

    impl ManualClock {
        fn advance(&self, ns: u64) {
            self.now.fetch_add(ns, Ordering::Relaxed);
        }
    }

    impl Clock for ManualClock {
        fn now_ns(&self) -> u64 {
            self.now.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "2^{}", k - 1);
            assert_eq!(bucket_index(hi), k, "2^{k}-1");
            if k < 63 {
                assert_eq!(bucket_index(hi + 1), k + 1, "2^{k}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn registry_renders_sorted_and_stable() {
        let reg = Registry::new();
        // Register out of order; rendering must sort.
        reg.counter("z.last", Section::Det).add(3);
        reg.counter("a.first", Section::Det).inc();
        reg.counter("m.depth", Section::Wall).add(7);
        reg.histogram("h.bytes", Section::Det).record(300);
        let s1 = reg.snapshot();
        let json = s1.render_section_json(Section::Det);
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
        assert!(!json.contains("m.depth"), "wall metric leaked into det");
        // Same ops on a fresh registry, different registration order:
        // identical det rendering and fingerprint.
        let reg2 = Registry::new();
        reg2.histogram("h.bytes", Section::Det).record(300);
        reg2.counter("a.first", Section::Det).inc();
        reg2.counter("m.depth", Section::Wall).add(7);
        reg2.counter("z.last", Section::Det).add(3);
        let s2 = reg2.snapshot();
        assert_eq!(s1.det_fingerprint(), s2.det_fingerprint());
        assert_eq!(s1.render_json(), s2.render_json());
        // The embedded fingerprint is extractable without a parser.
        assert_eq!(
            parse_det_fingerprint(&s1.render_json()),
            Some(s1.det_fingerprint().as_str())
        );
    }

    #[test]
    fn wall_metrics_do_not_move_the_det_fingerprint() {
        let reg = Registry::new();
        reg.counter("ops", Section::Det).add(10);
        let before = reg.snapshot().det_fingerprint();
        reg.counter("net.frames", Section::Wall).add(999);
        let after = reg.snapshot();
        assert_eq!(before, after.det_fingerprint());
        assert_ne!(
            after.render_section_json(Section::Wall),
            after.render_section_json(Section::Det)
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("Bad Name!", Section::Det);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let clock = Arc::new(ManualClock::default());
        let ring = TraceRing::new(1024, clock.clone() as Arc<dyn Clock>);
        for _ in 0..3 {
            let publish = ring.span("publish", None);
            {
                let _chunk = ring.span("chunk", Some(publish.id()));
                clock.advance(10);
            }
            {
                let _compress = ring.span("compress", Some(publish.id()));
                clock.advance(30);
            }
            clock.advance(5); // untraced tail inside publish
        }
        let spans = ring.completed();
        assert_eq!(spans.len(), 9);
        let agg = aggregate_spans(&spans);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].name, "publish");
        assert_eq!(agg[0].count, 3);
        assert_eq!(agg[0].total_ns, 3 * 45);
        assert_eq!(agg[0].children.len(), 2);
        assert_eq!(agg[0].children[0].name, "chunk");
        assert_eq!(agg[0].children[0].total_ns, 30);
        assert_eq!(agg[0].children[1].name, "compress");
        assert_eq!(agg[0].children[1].total_ns, 90);
        // Children never exceed their parent.
        let kids: u64 = agg[0].children.iter().map(|c| c.total_ns).sum();
        assert!(kids <= agg[0].total_ns);
        let text = render_tree(&spans);
        assert!(text.contains("publish"));
        assert!(text.contains("  chunk"));
    }

    #[test]
    fn ring_evicts_oldest_and_promotes_orphans() {
        let clock = Arc::new(ManualClock::default());
        let ring = TraceRing::new(2, clock.clone() as Arc<dyn Clock>);
        let root = ring.begin("root", None);
        let a = ring.begin("a", Some(root));
        let b = ring.begin("b", Some(root));
        clock.advance(1);
        ring.end(a);
        ring.end(b);
        ring.end(root); // evicts "a" (cap 2)
        let spans = ring.completed();
        assert_eq!(spans.len(), 2);
        let agg = aggregate_spans(&spans);
        // "b" lost its parent? No — root survived; "a" was evicted.
        assert!(agg.iter().any(|n| n.name == "root"));
        ring.end(9999); // unknown id: ignored
    }

    proptest! {
        #[test]
        fn histogram_bucket_is_log2_tight(v in any::<u64>()) {
            let idx = bucket_index(v);
            prop_assert!(v <= bucket_upper_bound(idx));
            if idx > 0 {
                prop_assert!(v > bucket_upper_bound(idx - 1));
            }
        }
    }
}
