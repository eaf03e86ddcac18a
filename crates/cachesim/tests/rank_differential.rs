//! Differential property tests for the eviction ranking against a naive
//! O(n) `(score, id)` scan:
//!
//! * structure level — one op sequence drives [`HeapRank`] and the scan,
//!   and the two must agree after every step;
//! * host level — a test-local policy that scores with the DSL interpreter
//!   and evicts by the scan must produce the same eviction sequence as
//!   [`PriorityPolicy`] on randomized traces, including `(score, id)`
//!   tie-breaks, `hist.*` features and the latched-fault
//!   keep-previous-score path.

use policysmith_cachesim::engine::{Cache, CacheView, ObjId, ObjMeta, Policy};
use policysmith_cachesim::psq::DEFAULT_HISTORY;
use policysmith_cachesim::rank::HeapRank;
use policysmith_cachesim::PriorityPolicy;
use policysmith_dsl::{eval, Expr, Feature, FeatureEnv};
use policysmith_traces::{OpKind, Request, Trace};
use proptest::prelude::*;
use std::collections::HashMap;

/// The oracle: current scores, minimum found by scanning all of them.
#[derive(Default)]
struct ScanRank {
    scores: HashMap<ObjId, i64>,
}

impl ScanRank {
    fn min(&self) -> Option<(i64, ObjId)> {
        self.scores.iter().map(|(&id, &score)| (score, id)).min()
    }
}

/// Arbitrary well-formed trace: bounded object universe so reuse and
/// re-insertion after eviction both happen; sizes stable per object.
fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0u64..48, 8..max_len).prop_map(|objs| {
        let requests = objs
            .into_iter()
            .enumerate()
            .map(|(i, obj)| Request {
                time_us: i as u64 * 100,
                obj,
                size: 64 + (obj as u32 * 131) % 512,
                op: OpKind::Read,
            })
            .collect();
        Trace::new("rank-diff", requests)
    })
}

/// The hosted expressions under differential test. `1` makes every score a
/// tie (pure id-order eviction); the `cache.objects` division exercises
/// the latched-fault path (the object keeps its previous score, new
/// objects get `i64::MIN`).
const EXPRS: &[&str] = &[
    "1",
    "obj.last_access",
    "obj.count * 20 - obj.age / 300 - obj.size / 500",
    "if(hist.contains, hist.count * 10 + 50, 0) + obj.last_access",
    "if(hist.contains, hist.age_at_evict - hist.time_since_evict, obj.count)",
    "100 / (cache.objects - 3)",
];

/// Eviction record the scan host keeps: (id, evict vtime, access count,
/// age at eviction).
type Record = (ObjId, u64, u64, u64);

/// The reference host: scores with `dsl::eval`, evicts by scanning every
/// score, and keeps its eviction history as a plain list with the same
/// bounded, first-recorded-first-forgotten rule as the real one.
struct ScanHost {
    expr: Expr,
    rank: ScanRank,
    history: Vec<Record>,
    faulted: bool,
}

struct ScanEnv<'a> {
    meta: &'a ObjMeta,
    view: &'a CacheView<'a>,
    hist: Option<&'a Record>,
}

impl FeatureEnv for ScanEnv<'_> {
    fn feature(&self, f: Feature) -> i64 {
        let now = self.view.vtime;
        let m = self.meta;
        let v = match f {
            Feature::Now => now,
            Feature::ObjCount => m.access_count,
            Feature::ObjLastAccess => m.last_vtime,
            Feature::ObjInsertTime => m.insert_vtime,
            Feature::ObjSize => m.size as u64,
            Feature::ObjAge => now.saturating_sub(m.last_vtime),
            Feature::ObjTimeInCache => now.saturating_sub(m.insert_vtime),
            Feature::HistContains => self.hist.is_some() as u64,
            Feature::HistCount => self.hist.map_or(0, |r| r.2),
            Feature::HistAgeAtEvict => self.hist.map_or(0, |r| r.3),
            Feature::HistTimeSinceEvict => self.hist.map_or(0, |r| now.saturating_sub(r.1)),
            Feature::CacheObjects => self.view.num_objects() as u64,
            Feature::CacheUsedBytes => self.view.used_bytes,
            Feature::CacheCapacity => self.view.capacity_bytes,
            other => panic!("the scan host does not serve {other:?}"),
        };
        v.min(i64::MAX as u64) as i64
    }
}

impl ScanHost {
    fn rescore(&mut self, id: ObjId, view: &CacheView<'_>) {
        let env = ScanEnv {
            meta: view.meta(id).expect("rescored objects are resident"),
            view,
            hist: self.history.iter().find(|r| r.0 == id),
        };
        let score = match eval(&self.expr, &env) {
            Ok(v) => v,
            Err(_) => {
                self.faulted = true;
                self.rank.scores.get(&id).copied().unwrap_or(i64::MIN)
            }
        };
        self.rank.scores.insert(id, score);
    }
}

impl Policy for ScanHost {
    fn name(&self) -> &str {
        "scan"
    }
    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.rescore(id, view);
    }
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.rank.min().expect("victim from an empty cache").1
    }
    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.rank.scores.remove(&id);
        let m = view.meta(id).expect("evicted objects are resident");
        let rec = (id, view.vtime, m.access_count, view.vtime.saturating_sub(m.last_vtime));
        match self.history.iter_mut().find(|r| r.0 == id) {
            Some(old) => *old = rec,
            None => {
                self.history.push(rec);
                if self.history.len() > DEFAULT_HISTORY {
                    self.history.remove(0);
                }
            }
        }
    }
    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.rescore(id, view);
    }
}

/// Policy wrapper recording the exact eviction order.
struct EvictLog<P: Policy> {
    inner: P,
    log: Vec<ObjId>,
}

impl<P: Policy> Policy for EvictLog<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.inner.on_hit(id, view)
    }
    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.inner.on_miss(id, view)
    }
    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        self.inner.victim(view)
    }
    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.log.push(id);
        self.inner.on_evict(id, view)
    }
    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.inner.on_insert(id, view)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Structure level: drive the heap and the scan with one op sequence
    /// and demand identical observable state after every step. Object
    /// `id` lives in slot `id`, so removed slots are refilled. Sets
    /// outnumber removals 3:2, so the heap grows deep enough for a removal
    /// to move an entry up as well as down.
    #[test]
    fn rank_ops_agree_with_reference(
        ops in proptest::collection::vec((0u8..5, 0u64..64, -50i64..50), 1..400),
    ) {
        let mut heap = HeapRank::new();
        let mut scan = ScanRank::default();
        for (op, id, score) in ops {
            let slot = id as u32;
            match op {
                0..=2 => {
                    heap.set(slot, id, score);
                    scan.scores.insert(id, score);
                }
                3 => {
                    prop_assert_eq!(heap.remove(slot), scan.scores.remove(&id).is_some());
                }
                _ => {
                    // evict-min, the host's victim step
                    if let Some((_, victim)) = scan.min() {
                        prop_assert_eq!(heap.peek_min(), scan.min());
                        heap.remove(victim as u32);
                        scan.scores.remove(&victim);
                    }
                }
            }
            prop_assert_eq!(heap.peek_min(), scan.min());
            prop_assert_eq!(heap.len(), scan.scores.len());
            prop_assert_eq!(heap.get(slot), scan.scores.get(&id).copied());
        }
        // full drain: the complete eviction order must match
        while let Some(min) = scan.min() {
            prop_assert_eq!(heap.peek_min(), Some(min));
            heap.remove(min.1 as u32);
            scan.scores.remove(&min.1);
        }
        prop_assert!(heap.is_empty());
    }

    /// Host level: whole-trace replays through the template host and the
    /// scan host produce identical eviction sequences, simulation results
    /// and fault latches.
    #[test]
    fn eviction_sequences_identical_on_randomized_traces(
        trace in arb_trace(400),
        cap_objs in 2u64..16,
        expr_ix in 0usize..EXPRS.len(),
    ) {
        let expr = policysmith_dsl::parse(EXPRS[expr_ix]).unwrap();
        let capacity = cap_objs * 300;

        let host = PriorityPolicy::from_expr("diff", &expr);
        let mut cache = Cache::new(capacity, EvictLog { inner: host, log: Vec::new() });
        let host_res = cache.run(&trace);
        let host_fault = cache.policy.inner.first_error().is_some();
        let host_log = cache.policy.log;

        let scan = ScanHost { expr, rank: ScanRank::default(), history: Vec::new(), faulted: false };
        let mut cache = Cache::new(capacity, EvictLog { inner: scan, log: Vec::new() });
        let scan_res = cache.run(&trace);

        prop_assert_eq!(host_res, scan_res, "results diverged on `{}`", EXPRS[expr_ix]);
        prop_assert_eq!(host_log, cache.policy.log, "eviction order diverged on `{}`", EXPRS[expr_ix]);
        prop_assert_eq!(host_fault, cache.policy.inner.faulted);
    }
}
