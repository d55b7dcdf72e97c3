//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records one [`Span`] per wrapped call: its name, start and
//! end on a process-wide monotonic clock, the span that was open when it
//! started (its parent) and the id of the sweep cell it belongs to. Spans
//! stay in memory until the run ends; [`Tracer::take`] hands them out for
//! the ledger and the span file.
//!
//! A disabled tracer runs the wrapped closure and nothing else, so the
//! untraced runs that produce the end-to-end numbers pay one branch per
//! layer call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names that structure a run rather than measure a layer: their
/// self time is the glue the ledger cannot attribute to any layer.
pub const STRUCTURAL: [&str; 3] = ["rep", "cell", "sweep.map_cells"];

/// Cell id of spans that belong to no sweep cell.
pub const NO_CELL: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u32,
    /// The span open on the same thread when this one started, or the
    /// span a worker-thread cell was spawned from.
    pub parent: Option<u32>,
    /// `<layer>.<operation>`, or one of [`STRUCTURAL`].
    pub name: &'static str,
    /// Sweep cell the span belongs to ([`NO_CELL`] if none).
    pub cell: u32,
    /// Small per-process thread number.
    pub thread: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a pass-through when not.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Open spans on this thread: `(id, cell)`, innermost last.
    static OPEN: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span on this thread and in that span's cell.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (parent, cell) = OPEN.with(|o| {
            o.borrow()
                .last()
                .map_or((None, NO_CELL), |&(id, cell)| (Some(id), cell))
        });
        self.record(name, parent, cell, f)
    }

    /// Runs `f` as sweep cell `cell`: a `cell` span whose parent is given
    /// explicitly (the cell may run on a worker thread with no open span).
    /// Every span opened inside inherits the cell id.
    pub fn cell<T>(&self, cell: u32, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.record("cell", parent, cell, f)
    }

    /// Id of the innermost open span on this thread.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|o| o.borrow().last().map(|&(id, _)| id))
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        cell: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push((id, cell)));
        // Pops the stack and records the span even if `f` unwinds, so a
        // panicking cell leaves a well-formed trace behind.
        struct Close<'a> {
            tracer: &'a Tracer,
            span: Span,
        }
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                OPEN.with(|o| o.borrow_mut().pop());
                self.span.end_ns = self.tracer.now_ns();
                let span = self.span.clone();
                self.tracer
                    .spans
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(span);
            }
        }
        let _close = Close {
            tracer: self,
            span: Span {
                id,
                parent,
                name,
                cell,
                thread: thread_number(),
                start_ns: self.now_ns(),
                end_ns: 0,
            },
        };
        f()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Removes and returns every span recorded so far, sorted by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval covered by its children. Children that overlap
/// (parallel cells under one sweep span) are merged, so covered time is
/// never counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(kids))
        .collect()
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Where one traced rep's host time went.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Self nanoseconds per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall nanoseconds of each `cell` span run under `sweep.map_cells`,
    /// keyed by cell id.
    pub sweep_cells_ns: BTreeMap<u32, u64>,
    /// Wall nanoseconds of the `sweep.map_cells` span(s).
    pub sweep_wall_ns: u64,
}

impl Ledger {
    /// Builds the ledger of one rep's spans.
    pub fn of(spans: &[Span]) -> Ledger {
        let mut ledger = Ledger::default();
        let sweeps: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "sweep.map_cells")
            .map(|s| s.id)
            .collect();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *ledger.self_ns.entry(s.name).or_default() += own;
            if s.name == "sweep.map_cells" {
                ledger.sweep_wall_ns += s.duration_ns();
            }
            if s.name == "cell" && s.parent.is_some_and(|p| sweeps.contains(&p)) {
                *ledger.sweep_cells_ns.entry(s.cell).or_default() += s.duration_ns();
            }
        }
        ledger
    }

    /// Self seconds of spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Host thread-seconds inside the rep: the sum of every span's self
    /// time. On one thread this is the rep's wall time; with parallel
    /// cells each busy worker thread contributes its own seconds.
    pub fn thread_secs(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 / 1e9
    }

    /// Self seconds of layer spans (everything but [`STRUCTURAL`]).
    pub fn layer_secs(&self) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| !STRUCTURAL.contains(name))
            .map(|(_, ns)| *ns)
            .sum::<u64>() as f64
            / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            cell: NO_CELL,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // rep [0,100) > cell [10,90) > kernel.warm [20,50), grunt.profile
        // [50,80) > snapshot.fork [55,60).
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "cell", 10, 90),
            span(2, Some(1), "kernel.warm", 20, 50),
            span(3, Some(1), "grunt.profile", 50, 80),
            span(4, Some(3), "snapshot.fork", 55, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 25, 5]);
        let ledger = Ledger::of(&spans);
        assert_eq!(ledger.thread_secs(), 100e-9);
        assert!((ledger.layer_secs() - 60e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two parallel cells under one sweep span: [10,60) and [20,90)
        // cover [10,90), so the sweep span keeps 20 of its 100 ns.
        let spans = vec![
            span(0, None, "sweep.map_cells", 0, 100),
            span(1, Some(0), "cell", 10, 60),
            span(2, Some(0), "cell", 20, 90),
            span(3, Some(1), "kernel.warm", 10, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 0, 70, 50]);
        let ledger = Ledger::of(&spans);
        assert_eq!(ledger.sweep_wall_ns, 100);
        assert_eq!(ledger.sweep_cells_ns.values().sum::<u64>(), 120);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(0, None, "cell", 10, 20),
            span(1, Some(0), "kernel.warm", 5, 15),
        ];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_records_parents_and_cells() {
        let t = Tracer::new(true);
        t.span("rep", || {
            let rep = t.current();
            t.cell(7, rep, || t.span("kernel.warm", || ()));
        });
        let spans = t.take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let (rep, cell, warm) = (by_name("rep"), by_name("cell"), by_name("kernel.warm"));
        assert_eq!(cell.parent, Some(rep.id));
        assert_eq!(warm.parent, Some(cell.id));
        assert_eq!((cell.cell, warm.cell, rep.cell), (7, 7, NO_CELL));
        assert!(rep.start_ns <= warm.start_ns && warm.end_ns <= rep.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("rep", || 3), 3);
        assert!(t.take().is_empty());
    }
}
