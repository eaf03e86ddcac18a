//! The PolicySmith cache template host (§4.1.2 of the paper).
//!
//! Object metadata lives in a priority structure; a synthesized
//! `priority()` candidate — hosted as a verified, compiled
//! [`CompiledPolicy`] — is executed **on each access or insertion** to
//! (re)score the accessed object, and the lowest-scored object is evicted
//! when space is needed. Each evaluation fills a flat, reusable context
//! slab with exactly the Table-1 features the candidate reads and runs the
//! kbpf program: no per-decision allocation, no AST walking. The DSL
//! interpreter survives only behind [`PriorityPolicy::interpreted`] as the
//! differential oracle. Priorities of untouched objects are *not*
//! recomputed (the paper's design: scores update on access), so the host
//! costs O(log N) per access as §4.1.2 advertises.
//!
//! All per-object state — the [`HeapRank`] entry and the aggregate
//! tracker's resident list — is keyed by the engine's object slot
//! ([`CacheView::slot`]), so the host probes no hash map of its own for
//! them. Its only probes are into the eviction history, and only while
//! that is maintained: one lookup per rescore, and one record per
//! eviction.
//!
//! Runtime faults (division by zero — the classic generated-code bug; the
//! compile pipeline marks such candidates `may_fault` instead of rejecting
//! them, because this host has a defined fallback) do not crash the host:
//! the first fault is latched into [`PriorityPolicy::first_error`], the
//! object keeps its previous score, and the evaluator downgrades the
//! candidate (§4.1.3's Checker catches most, the Evaluator the rest).

use crate::engine::{CacheView, ObjId, ObjMeta, Policy, NO_SLOT};
use crate::features::{AggregateTracker, EvictionHistory, EvictionRecord};
use crate::rank::HeapRank;
use policysmith_dsl::{eval, Expr, Feature, FeatureEnv, Mode};
use policysmith_kbpf::{CompiledPolicy, RuntimeFault, SPILL_SLOTS};

/// Default eviction-history length (entries).
pub const DEFAULT_HISTORY: usize = 1024;
/// Default aggregate snapshot refresh interval (accesses).
pub const DEFAULT_REFRESH: u64 = 512;

/// Does `feats` read any percentile-aggregate feature? (Gates the
/// [`AggregateTracker`] upkeep; shared by construction and
/// [`PriorityPolicy::swap_policy`] so the two can never drift apart.)
fn reads_aggregates(feats: &[Feature]) -> bool {
    feats
        .iter()
        .any(|f| matches!(f, Feature::CountsPct(_) | Feature::AgesPct(_) | Feature::SizesPct(_)))
}

/// Does `feats` read any eviction-history feature? (Gates the
/// [`EvictionHistory`] upkeep.)
fn reads_history(feats: &[Feature]) -> bool {
    feats.iter().any(|f| {
        matches!(
            f,
            Feature::HistContains
                | Feature::HistCount
                | Feature::HistAgeAtEvict
                | Feature::HistTimeSinceEvict
        )
    })
}

/// A cache policy driven by a synthesized priority expression.
pub struct PriorityPolicy {
    name: String,
    engine: Engine,
    /// (score, id) index by engine slot — min score evicted first.
    rank: HeapRank,
    aggregates: AggregateTracker,
    history: EvictionHistory,
    /// Does the hosted expression read any percentile aggregate? If not,
    /// the sampled snapshots would never be consulted, so the tracker is
    /// not maintained at all — score-identical, measurably cheaper.
    uses_aggregates: bool,
    /// Same gate for the eviction-history features.
    uses_history: bool,
    /// First runtime fault, if any (latched).
    first_error: Option<RuntimeFault>,
    evaluations: u64,
}

enum Engine {
    /// The production path: compiled bytecode + reusable ctx slab/map.
    Compiled { policy: CompiledPolicy, ctx: Vec<i64>, map: Vec<i64> },
    /// The reference oracle, for differential tests and benchmarks.
    Interpreted { expr: Expr },
}

impl PriorityPolicy {
    /// Host a compiled (checked, lowered, verified) priority policy.
    pub fn new(name: impl Into<String>, policy: CompiledPolicy) -> Self {
        debug_assert_eq!(policy.mode(), Mode::Cache, "cache host needs a Mode::Cache policy");
        Self::build(
            name,
            Engine::Compiled {
                ctx: Vec::with_capacity(policy.layout().len()),
                map: vec![0; SPILL_SLOTS],
                policy,
            },
            DEFAULT_HISTORY,
            DEFAULT_REFRESH,
        )
    }

    /// Compile `expr` for `Mode::Cache` and host it. Expressions the
    /// compile pipeline rejects outright (float literals; nothing else is
    /// rejectable for checked cache source) fall back to the interpreter
    /// so hosting stays total.
    pub fn from_expr(name: impl Into<String>, expr: &Expr) -> Self {
        match CompiledPolicy::compile(expr, Mode::Cache) {
            Ok(policy) => Self::new(name, policy),
            Err(_) => Self::interpreted(name, expr.clone()),
        }
    }

    /// Host via the reference interpreter — the differential oracle.
    pub fn interpreted(name: impl Into<String>, expr: Expr) -> Self {
        Self::build(name, Engine::Interpreted { expr }, DEFAULT_HISTORY, DEFAULT_REFRESH)
    }

    /// Host with explicit history length and snapshot refresh interval.
    pub fn with_config(
        name: impl Into<String>,
        policy: CompiledPolicy,
        history_len: usize,
        refresh_interval: u64,
    ) -> Self {
        Self::build(
            name,
            Engine::Compiled {
                ctx: Vec::with_capacity(policy.layout().len()),
                map: vec![0; SPILL_SLOTS],
                policy,
            },
            history_len,
            refresh_interval,
        )
    }

    fn build(
        name: impl Into<String>,
        engine: Engine,
        history_len: usize,
        refresh_interval: u64,
    ) -> Self {
        let feats = match &engine {
            Engine::Compiled { policy, .. } => policy.expr().features(),
            Engine::Interpreted { expr } => expr.features(),
        };
        let mut aggregates = AggregateTracker::new(refresh_interval);
        aggregates.want(&feats);
        PriorityPolicy {
            name: name.into(),
            engine,
            rank: HeapRank::new(),
            aggregates,
            history: EvictionHistory::new(history_len),
            uses_aggregates: reads_aggregates(&feats),
            uses_history: reads_history(&feats),
            first_error: None,
            evaluations: 0,
        }
    }

    /// Keep the feature trackers (percentile aggregates + eviction
    /// history) maintained whether or not the *current* expression reads
    /// them. Costs the upkeep the access-gated default elides; required
    /// for hosts that may [`swap_policy`](Self::swap_policy) mid-run,
    /// since a policy swapped in later may read features the deposed one
    /// never touched — and a tracker only engaged at swap time would
    /// start empty. Must be called before the first request.
    pub fn track_everything(mut self) -> Self {
        assert!(self.rank.is_empty(), "tracking switch only valid on an empty host");
        self.uses_aggregates = true;
        self.uses_history = true;
        self
    }

    /// Hot-swap the hosted policy mid-run — the cache half of the serving
    /// runtime's publish step.
    ///
    /// Follows the template's own update discipline (§4.1.2: scores update
    /// **on access**): resident objects keep the priority the deposed
    /// policy last gave them and are re-scored by the new policy on their
    /// next access or insertion, so the swap itself touches no per-object
    /// state and completes in O(layout) — no stop-the-world rescore, no
    /// allocation beyond the new context slab. The percentiles the new
    /// policy reads are selected from the current aggregate sample at once,
    /// not at the next refresh. Any latched runtime fault belonged to the
    /// deposed policy and is cleared; construct the host with
    /// [`track_everything`](Self::track_everything) when swaps are
    /// possible, so aggregate/history features the new policy reads have
    /// been maintained all along.
    pub fn swap_policy(&mut self, policy: CompiledPolicy) {
        debug_assert_eq!(policy.mode(), Mode::Cache, "cache host needs a Mode::Cache policy");
        let feats = policy.expr().features();
        // A tracker engaged only now would be cold: already-resident
        // objects were never inserted, so percentile/history reads would
        // be silently wrong. Refuse instead — swap-capable hosts opt into
        // `track_everything` up front.
        assert!(
            self.uses_aggregates || !reads_aggregates(&feats),
            "swapped-in policy reads percentile aggregates but the tracker was never \
             maintained; construct the host with track_everything()"
        );
        assert!(
            self.uses_history || !reads_history(&feats),
            "swapped-in policy reads eviction history but the tracker was never \
             maintained; construct the host with track_everything()"
        );
        self.aggregates.want(&feats);
        self.engine = Engine::Compiled {
            ctx: Vec::with_capacity(policy.layout().len()),
            map: vec![0; SPILL_SLOTS],
            policy,
        };
        self.first_error = None;
    }

    /// Parse `src` and host it. Returns the parse error on bad source.
    pub fn from_source(
        name: impl Into<String>,
        src: &str,
    ) -> Result<Self, policysmith_dsl::ParseError> {
        Ok(PriorityPolicy::from_expr(name, &policysmith_dsl::parse(src)?))
    }

    /// First runtime fault observed, if any.
    pub fn first_error(&self) -> Option<&RuntimeFault> {
        self.first_error.as_ref()
    }

    /// Number of priority evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The hosted expression (the compiled engine retains it as the
    /// reference semantics of its bytecode).
    pub fn expr(&self) -> &Expr {
        match &self.engine {
            Engine::Compiled { policy, .. } => policy.expr(),
            Engine::Interpreted { expr } => expr,
        }
    }

    /// Is this host running compiled bytecode (vs the interpreter oracle)?
    pub fn is_compiled(&self) -> bool {
        matches!(self.engine, Engine::Compiled { .. })
    }

    fn rescore(&mut self, id: ObjId, view: &CacheView<'_>) {
        debug_assert_ne!(view.slot, NO_SLOT, "rescore outside a resident-object callback");
        let env = PsqEnv {
            meta: view.meta_at(view.slot),
            view,
            aggregates: &self.aggregates,
            history: if self.uses_history { self.history.get(id) } else { None },
        };
        self.evaluations += 1;
        let result = match &mut self.engine {
            Engine::Compiled { policy, ctx, map } => {
                policy.run_with_env(&env, ctx, map).map_err(RuntimeFault::Vm)
            }
            Engine::Interpreted { expr } => eval(expr, &env).map_err(RuntimeFault::Interp),
        };
        let new_score = match result {
            Ok(v) => v,
            Err(e) => {
                if self.first_error.is_none() {
                    self.first_error = Some(e);
                }
                // keep previous score; new objects get the minimum
                self.rank.get(view.slot).unwrap_or(i64::MIN)
            }
        };
        self.rank.set(view.slot, id, new_score);
    }
}

impl Policy for PriorityPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        if self.uses_aggregates {
            self.aggregates.on_access(view);
        }
        self.rescore(id, view);
    }

    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.rank.peek_min().expect("priority victim from empty cache").1
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.rank.remove(view.slot);
        if self.uses_aggregates {
            self.aggregates.remove(view.slot);
        }
        if self.uses_history {
            let m = view.meta_at(view.slot);
            self.history.record(
                id,
                EvictionRecord {
                    evict_vtime: view.vtime,
                    access_count: m.access_count,
                    age_at_evict: view.vtime.saturating_sub(m.last_vtime),
                },
            );
        }
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        if self.uses_aggregates {
            self.aggregates.insert(view.slot);
            self.aggregates.on_access(view);
        }
        self.rescore(id, view);
    }
}

/// The Table-1 feature environment for one evaluation.
struct PsqEnv<'a> {
    meta: &'a ObjMeta,
    view: &'a CacheView<'a>,
    aggregates: &'a AggregateTracker,
    /// The object's eviction-history record, looked up once.
    history: Option<&'a EvictionRecord>,
}

impl FeatureEnv for PsqEnv<'_> {
    fn feature(&self, f: Feature) -> i64 {
        use Feature::*;
        let now = self.view.vtime;
        let v: u64 = match f {
            Now => now,
            ObjCount => self.meta.access_count,
            ObjLastAccess => self.meta.last_vtime,
            ObjInsertTime => self.meta.insert_vtime,
            ObjSize => self.meta.size as u64,
            ObjAge => now.saturating_sub(self.meta.last_vtime),
            ObjTimeInCache => now.saturating_sub(self.meta.insert_vtime),
            CountsPct(p) => self.aggregates.counts_pct(p),
            AgesPct(p) => self.aggregates.ages_pct(p, now),
            SizesPct(p) => self.aggregates.sizes_pct(p),
            HistContains => self.history.is_some() as u64,
            HistCount => self.history.map_or(0, |r| r.access_count),
            HistAgeAtEvict => self.history.map_or(0, |r| r.age_at_evict),
            HistTimeSinceEvict => self.history.map_or(0, |r| now.saturating_sub(r.evict_vtime)),
            CacheObjects => self.view.num_objects() as u64,
            CacheUsedBytes => self.view.used_bytes,
            CacheCapacity => self.view.capacity_bytes,
            // kernel features are rejected by the checker in cache mode;
            // be total anyway
            _ => 0,
        };
        v.min(i64::MAX as u64) as i64
    }
}

/// LRU expressed in the template (one of the paper's two search seeds):
/// highest priority = most recently accessed.
pub fn lru_seed() -> Expr {
    policysmith_dsl::parse("obj.last_access").expect("seed parses")
}

/// LFU expressed in the template (the other seed).
pub fn lfu_seed() -> Expr {
    policysmith_dsl::parse("obj.count").expect("seed parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use crate::features::{LAST_ACCESS, SIZES};
    use policysmith_traces::{OpKind, Request};

    fn req(t: u64, obj: u64) -> Request {
        Request { time_us: t, obj, size: 100, op: OpKind::Read }
    }

    fn run_ids(policy: PriorityPolicy, ids: &[u64], cap: u64) -> Cache<PriorityPolicy> {
        let mut c = Cache::new(cap, policy);
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        c
    }

    #[test]
    fn lru_seed_behaves_like_lru() {
        use crate::policies::basic::Lru;
        let ids: Vec<u64> = (0..8_000u64).map(|i| (i * 2654435761) % 120).collect();
        let cap = 2_000;
        let host = PriorityPolicy::from_expr("psq-lru", &lru_seed());
        assert!(host.is_compiled());
        let psq = run_ids(host, &ids, cap).result();
        let lru = {
            let mut c = Cache::new(cap, Lru::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id));
            }
            c.result()
        };
        assert_eq!(psq.hits, lru.hits, "template-hosted LRU must equal native LRU");
    }

    #[test]
    fn lfu_seed_behaves_like_lfu_modulo_ties() {
        use crate::policies::basic::Lfu;
        // Distinct counts avoid tie-breaking differences.
        let mut ids = Vec::new();
        for r in 0..50u64 {
            for id in 0..10u64 {
                if r % (id + 1) == 0 {
                    ids.push(id);
                }
            }
        }
        let cap = 500;
        let psq = run_ids(PriorityPolicy::from_expr("psq-lfu", &lfu_seed()), &ids, cap).result();
        let lfu = {
            let mut c = Cache::new(cap, Lfu::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id));
            }
            c.result()
        };
        // Tie-breaking differs (native LFU breaks ties FIFO, the template
        // by object id), so behaviour matches only approximately.
        let diff = (psq.hits as f64 - lfu.hits as f64).abs();
        assert!(diff <= 0.3 * lfu.hits.max(1) as f64, "psq {} vs lfu {}", psq.hits, lfu.hits);
    }

    #[test]
    fn history_features_visible_after_eviction() {
        let expr = policysmith_dsl::parse("if(hist.contains, 1000, 0) + obj.last_access").unwrap();
        let mut c = Cache::new(300, PriorityPolicy::from_expr("hist", &expr));
        let mut t = 0;
        let mut go = |c: &mut Cache<PriorityPolicy>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        go(&mut c, 1);
        go(&mut c, 2);
        go(&mut c, 3);
        go(&mut c, 4); // evicts 1 (lowest last_access)
        assert!(!c.contains(1));
        go(&mut c, 1); // re-inserted; hist.contains → big bonus
        assert!(c.policy.history.get(1).is_some());
        // now 1 is protected by its history bonus; 2 should be next victim
        go(&mut c, 5);
        assert!(c.contains(1));
    }

    #[test]
    fn runtime_fault_is_latched_not_fatal() {
        // cache.objects - 3 hits zero when 3 objects are resident
        let expr = policysmith_dsl::parse("100 / (cache.objects - 3)").unwrap();
        let host = PriorityPolicy::from_expr("faulty", &expr);
        assert!(host.is_compiled(), "may-fault candidates still run compiled");
        let c = run_ids(host, &[1, 2, 3, 4, 5, 6], 300);
        assert!(c.policy.first_error().is_some());
        // simulation completed anyway
        assert_eq!(c.result().requests, 6);
    }

    #[test]
    fn ranking_consistent() {
        let ids: Vec<u64> = (0..10_000u64).map(|i| (i * 31) % 200).collect();
        let expr =
            policysmith_dsl::parse("obj.count * 20 - obj.age / 300 - obj.size / 500").unwrap();
        let c = run_ids(PriorityPolicy::from_expr("mix", &expr), &ids, 2_500);
        assert_eq!(c.policy.rank.len(), c.num_objects());
        assert!(c.policy.first_error().is_none());
        assert!(c.policy.evaluations() >= ids.len() as u64);
    }

    #[test]
    fn percentile_features_flow_through() {
        let expr =
            policysmith_dsl::parse("if(obj.size > sizes.p50, 0 - obj.age, obj.count)").unwrap();
        let mut c = Cache::new(10_000, PriorityPolicy::from_expr("pct", &expr));
        for i in 0..2_000u64 {
            let size = if i % 2 == 0 { 50 } else { 200 };
            c.request(&Request { time_us: i, obj: i % 150, size, op: OpKind::Read });
        }
        assert!(c.policy.first_error().is_none());
        assert!(c.result().hits > 0);
    }

    #[test]
    fn swap_policy_rescoring_applies_on_access() {
        // LRU host: highest last_access survives. Fill 3 objects, then swap
        // to anti-LRU (0 - obj.last_access) and re-touch them: the rescored
        // priorities must invert the eviction order.
        let lru = CompiledPolicy::compile(&lru_seed(), Mode::Cache).unwrap();
        let mut c = Cache::new(300, PriorityPolicy::new("swap", lru).track_everything());
        c.request(&req(1, 1));
        c.request(&req(2, 2));
        c.request(&req(3, 3));
        let anti = policysmith_dsl::parse("0 - obj.last_access").unwrap();
        c.policy.swap_policy(CompiledPolicy::compile(&anti, Mode::Cache).unwrap());
        // re-touch in the same order: scores update on access (§4.1.2)
        c.request(&req(4, 1));
        c.request(&req(5, 2));
        c.request(&req(6, 3));
        // next insertion must evict object 3 (most recent ⇒ lowest
        // anti-LRU priority), not object 1 as LRU would
        c.request(&req(7, 4));
        assert!(c.contains(1), "anti-LRU protects the oldest");
        assert!(!c.contains(3), "anti-LRU evicts the most recent");
        assert!(c.policy.first_error().is_none());
    }

    #[test]
    fn swap_policy_selects_the_new_percentiles_at_once() {
        let counts = policysmith_dsl::parse("obj.count * counts.p50").unwrap();
        let policy = CompiledPolicy::compile(&counts, Mode::Cache).unwrap();
        let mut c = Cache::new(20_000, PriorityPolicy::new("pct-swap", policy).track_everything());
        // the last refresh falls 300 accesses before the swap
        for i in 0..(DEFAULT_REFRESH + 300) {
            let obj = (i * 2654435761) % 150;
            let size = 40 + (obj as u32 * 13) % 90;
            c.request(&Request { time_us: i, obj, size, op: OpKind::Read });
        }
        let unread = c.policy.aggregates.sizes_pct(90);
        let oracle = c.policy.aggregates.sorted_sample_pct(SIZES, 90);
        assert_ne!(unread, oracle, "sizes.p90 is not selected before the swap");
        let sizes = policysmith_dsl::parse("obj.size - sizes.p90 + ages.p10").unwrap();
        c.policy.swap_policy(CompiledPolicy::compile(&sizes, Mode::Cache).unwrap());
        // no access since the swap: the values come from the current sample
        assert_eq!(c.policy.aggregates.sizes_pct(90), oracle);
        let now = c.result().requests;
        let newest_p90 = c.policy.aggregates.sorted_sample_pct(LAST_ACCESS, 90);
        assert_eq!(c.policy.aggregates.ages_pct(10, now), now - newest_p90);
    }

    #[test]
    fn swap_policy_clears_the_latched_fault() {
        let faulty = policysmith_dsl::parse("100 / (cache.objects - 3)").unwrap();
        let host = PriorityPolicy::new(
            "swap-fault",
            CompiledPolicy::compile(&faulty, Mode::Cache).unwrap(),
        )
        .track_everything();
        let mut c = Cache::new(600, host);
        for (i, id) in (1..=6u64).enumerate() {
            c.request(&req(i as u64, id));
        }
        assert!(c.policy.first_error().is_some(), "deposed policy faulted");
        let sane = CompiledPolicy::compile(&lru_seed(), Mode::Cache).unwrap();
        c.policy.swap_policy(sane);
        assert!(c.policy.first_error().is_none(), "new policy starts with a clean slate");
        for (i, id) in (1..=6u64).enumerate() {
            c.request(&req(100 + i as u64, id));
        }
        assert!(c.policy.first_error().is_none());
    }

    #[test]
    fn compiled_host_matches_the_interpreter_oracle_on_whole_traces() {
        // the differential check behind the host redesign: same trace,
        // same expression, compiled vs interpreted → identical outcomes
        let ids: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 400).collect();
        for src in [
            "obj.count * 20 - obj.age / 300 - obj.size / 500",
            "if(hist.contains, hist.count * 10 + 50, 0) + obj.last_access",
            "if(obj.size > sizes.p75, 0 - obj.age, obj.count * counts.p50)",
        ] {
            let expr = policysmith_dsl::parse(src).unwrap();
            let compiled = PriorityPolicy::from_expr("vm", &expr);
            assert!(compiled.is_compiled());
            let oracle = PriorityPolicy::interpreted("interp", expr.clone());
            let a = run_ids(compiled, &ids, 8_000);
            let b = run_ids(oracle, &ids, 8_000);
            assert_eq!(a.result(), b.result(), "engines diverged for `{src}`");
            assert!(a.policy.first_error().is_none());
            assert!(b.policy.first_error().is_none());
        }
    }
}
