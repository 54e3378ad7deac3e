//! In-memory spans for the traced run, and the per-layer self-time table
//! built from them.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! `pmemflow_des::trace` is not reused: its timelines are simulated-time
//! process lanes with a fixed compute/io/wait span kind, while these are
//! host-time layer spans with parent links. They are written out once,
//! at the end of the run, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: a call into `layer`, on host time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (same thread), if any.
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording thread's lane in the exported trace.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserve a span id, so children can name their parent before the
    /// parent closes.
    pub fn open(&self) -> u32 {
        // Relaxed: the id only has to be unique; it publishes no data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Close span `id` (from [`Tracer::open`]) that started at `start_ns`.
    pub fn close(
        &self,
        id: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        lane: u32,
    ) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                layer,
                name,
                start_ns,
                end_ns,
                lane,
            });
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        lane: u32,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.open();
        let start = self.now_ns();
        let out = f(id);
        self.close(id, parent, layer, name, start, lane);
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per-layer totals of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time summed by layer, plus time carved out of a layer for a
/// sub-layer the benchmark can time only as a total (see [`LayerTable::carve`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTable {
    pub rows: BTreeMap<&'static str, LayerRow>,
}

impl LayerTable {
    pub fn from_spans(spans: &[Span]) -> LayerTable {
        let selfs = self_times(spans);
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for s in spans {
            let row = rows.entry(s.layer).or_default();
            row.spans += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += selfs[&s.id];
        }
        LayerTable { rows }
    }

    /// Move `ns` of `from`'s self time to `to`: for work that runs inside
    /// `from`'s spans but is reported only as a total (campaign re-pricing
    /// inside the campaign loop). Clamped to what `from` has.
    pub fn carve(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let moved = self.rows.get(from).map_or(0, |r| r.self_ns.min(ns));
        if let Some(r) = self.rows.get_mut(from) {
            r.self_ns -= moved;
        }
        let row = self.rows.entry(to).or_default();
        row.self_ns += moved;
        row.total_ns += moved;
    }

    /// Charge `child`'s time to it alone when its spans run on another
    /// thread inside `parent`'s intervals, so no parent link exists:
    /// `parent`'s self time loses `child`'s total. Clamped at zero.
    pub fn nest(&mut self, parent: &'static str, child: &'static str) {
        let child_ns = self.rows.get(child).map_or(0, |r| r.total_ns);
        if let Some(r) = self.rows.get_mut(parent) {
            r.self_ns -= r.self_ns.min(child_ns);
        }
    }

    pub fn total_self_ns(&self) -> u64 {
        self.rows.values().map(|r| r.self_ns).sum()
    }

    /// The human-readable table: one row per layer, with its share of
    /// all self time.
    pub fn render(&self) -> String {
        let all = self.total_self_ns().max(1) as f64;
        let mut out = format!(
            "{:<10} {:>9} {:>12} {:>12} {:>7}\n",
            "layer", "spans", "total_s", "self_s", "share"
        );
        for (layer, r) in &self.rows {
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>12.6} {:>12.6} {:>6.1}%",
                layer,
                r.spans,
                r.total_ns as f64 / 1e9,
                r.self_ns as f64 / 1e9,
                100.0 * r.self_ns as f64 / all
            );
        }
        out
    }
}

/// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.lane,
            s.id,
            parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: layer,
            start_ns: a,
            end_ns: b,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, "campaign", 0, 100),
            span(1, Some(0), "policy", 10, 30),
            span(2, Some(0), "policy", 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 70);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, "client", 100, 200),
            // Overlaps the next child by 10ns.
            span(1, Some(0), "backend", 110, 150),
            span(2, Some(0), "backend", 140, 160),
            // Starts before the parent: only the inside part counts.
            span(3, Some(0), "backend", 50, 120),
            // Grandchild: charged to its parent, not to span 0.
            span(4, Some(1), "des", 115, 125),
        ];
        let selfs = self_times(&spans);
        // Children cover [100, 160) of span 0.
        assert_eq!(selfs[&0], 40);
        assert_eq!(selfs[&1], 30);
    }

    #[test]
    fn layer_table_sums_self_time_and_carves() {
        let spans = [
            span(0, None, "campaign", 0, 100),
            span(1, Some(0), "policy", 10, 30),
            span(2, None, "oracle", 100, 140),
        ];
        let mut t = LayerTable::from_spans(&spans);
        assert_eq!(t.rows["campaign"].self_ns, 80);
        assert_eq!(t.rows["policy"].self_ns, 20);
        t.carve("campaign", "pricing", 30);
        assert_eq!(t.rows["campaign"].self_ns, 50);
        assert_eq!(t.rows["pricing"].self_ns, 30);
        // Carving never makes self time negative.
        t.carve("campaign", "pricing", 1_000);
        assert_eq!(t.rows["campaign"].self_ns, 0);
        assert_eq!(t.total_self_ns(), 140);
    }

    #[test]
    fn nest_charges_cross_thread_children_once() {
        let spans = [
            span(0, None, "serve", 0, 100),
            span(1, None, "serve", 100, 150),
            // Runs on another thread inside span 0: no parent link.
            span(2, None, "backend", 20, 60),
        ];
        let mut t = LayerTable::from_spans(&spans);
        assert_eq!(t.rows["serve"].self_ns, 150);
        t.nest("serve", "backend");
        assert_eq!(t.rows["serve"].self_ns, 110);
        assert_eq!(t.rows["backend"].self_ns, 40);
    }

    #[test]
    fn tracer_records_nested_spans_and_exports_json() {
        let tracer = Tracer::default();
        tracer.span(None, "campaign", "run", 0, |id| {
            tracer.span(Some(id), "policy", "schedule", 0, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
