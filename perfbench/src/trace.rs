//! Outside-in tracing: spans recorded by the benchmark's own wrappers
//! around the public traits and functions of each layer.
//!
//! Coarse boundaries (a search, a round's generation, a check, an
//! evaluation, a replay, an adaptation step) become [`Span`]s held in
//! memory and written out when the run ends. Per-call hot-path boundaries
//! (a cache policy callback, a dispatch pick) would cost more to record
//! one by one than the work they bracket, so the wrappers aggregate them
//! into [`Leaf`] totals and charge the summed time to the enclosing span
//! as `leaf_ns`. A span's self time is its duration minus the part its
//! child spans cover minus its leaf time.

use policysmith_obs::LatencyHistogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Search / episode / replay the span belongs to.
    pub run: u32,
    pub thread: u32,
    /// Time inside this span spent in aggregated per-call leaves.
    pub leaf_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Layer of a span or leaf name (`"cachesim.rescore"` → `"cachesim"`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Aggregated per-call timings of one hot-path boundary. Every call is
/// counted; one in [`Leaf::SAMPLE_EVERY`] is timed, so the clock reads
/// stay a small share of calls that take a few hundred nanoseconds.
#[derive(Clone, Default)]
pub struct Leaf {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
    /// Durations of the timed calls.
    pub hist: LatencyHistogram,
}

impl Leaf {
    pub const SAMPLE_EVERY: u64 = 8;

    /// Run `f` as one call, timing it if it is due.
    #[inline]
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(Self::SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.timed += 1;
        self.timed_ns += ns;
        self.hist.record(ns);
        out
    }

    /// Record one call that took `ns`, always timed.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.timed += 1;
        self.timed_ns += ns;
        self.hist.record(ns);
    }

    pub fn merge(&mut self, other: &Leaf) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
        self.hist.merge(&other.hist);
    }

    /// Mean duration of a call, from the timed ones, less the clock's own
    /// cost.
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.timed_ns as f64 / self.timed as f64 - clock_cost_ns()).max(0.0)
        }
    }

    /// Estimated time in all calls: the timed mean times every call.
    pub fn total_ns(&self) -> u64 {
        (self.mean_ns() * self.calls as f64).round() as u64
    }
}

/// What timing an empty call reads: the cost of the clock reads
/// themselves, which [`Leaf::mean_ns`] takes off every timed call.
pub fn clock_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let reads: Vec<f64> = (0..10_001)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        crate::stats::median(&reads).expect("10001 clock reads")
    })
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of the next.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = next_thread_id();
}

fn next_thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The span and leaf store of one benchmark process.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// Parent for spans opened on threads with nothing open (threads the
    /// program spawns itself, such as search evaluation workers).
    root: AtomicU32,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
    leaves: Mutex<BTreeMap<&'static str, Leaf>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

const NO_SPAN: u32 = u32::MAX;

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            root: AtomicU32::new(NO_SPAN),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            leaves: Mutex::new(BTreeMap::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Set the run id stamped on every span opened from now on.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Run `f` inside a span named `name`. `f` returns its result and the
    /// leaf time it accumulated directly inside this span.
    pub fn span_with_leaf<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.borrow().last().copied()).or_else(|| {
            let root = self.root.load(Ordering::Relaxed);
            (root != NO_SPAN).then_some(root)
        });
        let run = self.run.load(Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let (out, leaf_ns) = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let thread = THREAD.with(|t| *t);
        let span = Span { id, name, start_ns, end_ns, parent, run, thread, leaf_ns };
        self.spans.lock().expect("span store poisoned by a panicking recorder").push(span);
        out
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_with_leaf(name, || (f(), 0))
    }

    /// Run `f` inside a span that is also the parent of spans opened on
    /// threads with no span of their own while it is open.
    pub fn root_span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, || {
            let id = OPEN.with(|o| *o.borrow().last().expect("the span just opened"));
            let previous = self.root.swap(id, Ordering::Relaxed);
            let out = f();
            self.root.store(previous, Ordering::Relaxed);
            out
        })
    }

    /// Fold a wrapper's per-call aggregate into the store.
    pub fn add_leaf(&self, name: &'static str, leaf: &Leaf) {
        let mut leaves = self.leaves.lock().expect("leaf store poisoned by a panicking recorder");
        leaves.entry(name).or_default().merge(leaf);
    }

    /// Add `n` to the event counter `name`.
    pub fn add_count(&self, name: &'static str, n: u64) {
        let mut counts =
            self.counts.lock().expect("counter store poisoned by a panicking recorder");
        *counts.entry(name).or_insert(0) += n;
    }

    pub fn count(&self, name: &str) -> u64 {
        let counts = self.counts.lock().expect("counter store poisoned by a panicking recorder");
        counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned by a panicking recorder").clone()
    }

    pub fn leaves(&self) -> BTreeMap<&'static str, Leaf> {
        self.leaves.lock().expect("leaf store poisoned by a panicking recorder").clone()
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(&selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"run\":{},\"thread\":{},\"leaf_ns\":{},\"self_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.run, s.thread, s.leaf_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval its child spans cover (children on
/// other threads may overlap each other; overlap is counted once) minus
/// its leaf time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered =
                children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            s.duration_ns().saturating_sub(covered).saturating_sub(s.leaf_ns)
        })
        .collect()
}

/// Self time per span name, summed over `spans`.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.name).or_insert(0) += t;
    }
    by
}

/// Self time per layer: span self times plus leaf totals, keyed by layer.
pub fn self_by_layer(
    spans: &[Span],
    leaves: &BTreeMap<&'static str, Leaf>,
) -> BTreeMap<String, u64> {
    let mut by: BTreeMap<String, u64> = BTreeMap::new();
    for (name, t) in self_by_name(spans) {
        *by.entry(layer_of(name).to_string()).or_insert(0) += t;
    }
    for (name, leaf) in leaves {
        *by.entry(layer_of(name).to_string()).or_insert(0) += leaf.total_ns();
    }
    by
}

/// Duration statistics of the spans named `name`: (count, total ns).
pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(n, t), s| (n + 1, t + s.duration_ns()))
}
