//! The span recorder of the traced run.
//!
//! A span covers one call from the benchmark into a layer: its name,
//! start and end (wall nanoseconds since the recorder was made), the CPU
//! time the calling thread spent inside it, the span that caused it, and
//! the run it belongs to. Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out and [`rollup`] derives each
//! layer's self time: a span's time minus the part its children cover.
//! A call that hands its work to pool threads (`tier0_scores`,
//! `run_campaign`) shows that work in its wall time only; the CPU belongs
//! to the pool threads, and to the spans they record themselves.
//!
//! The untraced run passes `None` to [`traced`], which calls the layer
//! bare: no clock read, no span, no allocation.

use crate::clock::thread_cpu_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the recorder.
    pub id: u32,
    /// Layer call name, e.g. `"sim.run"`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// CPU time of the calling thread inside the span, ns.
    pub cpu_ns: u64,
    /// The span that made this call, if any.
    pub parent: Option<u32>,
    /// Which run (pass or probe) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink shared by every thread of the traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a new run id for the spans recorded from now on.
    pub fn next_run(&self) {
        self.run.fetch_add(1, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span around `f`, which receives the new span's id to
    /// pass to its own children.
    pub fn span<R>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let run = self.run.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let cpu0 = thread_cpu_ns();
        let r = f(id);
        let cpu_ns = thread_cpu_ns() - cpu0;
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span writer panicked while holding the buffer")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                cpu_ns,
                parent,
                run,
            });
        r
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span writer panicked while holding the buffer")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::new();
        for sp in self.spans() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"cpu_ns":{},"parent":{},"run":{}}}"#,
                sp.id, sp.name, sp.start_ns, sp.end_ns, sp.cpu_ns, parent, sp.run
            );
        }
        std::fs::write(path, s)
    }
}

/// Runs `f` inside a span when tracing, bare otherwise. `f` receives the
/// span id (or `None`) to pass on as its children's parent.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus children's), ns.
    pub self_ns: u64,
    /// Summed CPU times, ns.
    pub cpu_ns: u64,
    /// Summed self CPU times (CPU minus children's), ns.
    pub self_cpu_ns: u64,
}

/// Rolls spans up by name. Children that ran in parallel on several
/// threads can cover more than their parent's duration; self time then
/// clamps at zero.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let mut child: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for sp in spans {
        if let Some(p) = sp.parent {
            let c = child.entry(p).or_default();
            c.0 += sp.dur_ns();
            c.1 += sp.cpu_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for sp in spans {
        let r = out.entry(sp.name).or_default();
        r.count += 1;
        let (child_ns, child_cpu) = child.get(&sp.id).copied().unwrap_or_default();
        r.total_ns += sp.dur_ns();
        r.self_ns += sp.dur_ns().saturating_sub(child_ns);
        r.cpu_ns += sp.cpu_ns;
        r.self_cpu_ns += sp.cpu_ns.saturating_sub(child_cpu);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            Span {
                id: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                cpu_ns: 90,
                parent: None,
                run: 0,
            },
            Span {
                id: 1,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                cpu_ns: 30,
                parent: Some(0),
                run: 0,
            },
            Span {
                id: 2,
                name: "inner",
                start_ns: 50,
                end_ns: 70,
                cpu_ns: 20,
                parent: Some(0),
                run: 0,
            },
        ];
        let r = rollup(&spans);
        assert_eq!(r["outer"].total_ns, 100);
        assert_eq!(r["outer"].self_ns, 50);
        assert_eq!(r["inner"].count, 2);
        assert_eq!(r["inner"].self_ns, 50);
        assert_eq!(r["outer"].self_cpu_ns, 40);
        assert_eq!(r["inner"].cpu_ns, 50);
    }

    #[test]
    fn untraced_calls_run_bare() {
        let v = traced(None, "x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        let t = Tracer::new();
        let v = traced(Some(&t), "x", None, |id| id.map(|i| i + 1));
        assert_eq!(v, Some(1));
        assert_eq!(t.spans().len(), 1);
    }
}
