//! Traced stand-ins for each layer's public trait, built only from the
//! layers' public items. Each records spans (or per-call leaves) around
//! the call it forwards and changes no result: the workloads check that
//! traced and untraced runs score identically.

use crate::trace::{Leaf, Tracer};
use policysmith_cachesim::{Cache, CacheView, ObjId, Policy, PriorityPolicy};
use policysmith_core::search::Study;
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::{parse, Mode};
use policysmith_gen::{GenError, Generator, Prompt, TokenLedger};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{DispatchView, Dispatcher, ExprDispatcher};
use policysmith_traces::Trace;
use std::sync::atomic::{AtomicU64, Ordering};

/// `core::search::Study` with a `core.check` span around every check and
/// a `core.evaluate` span around every evaluation.
pub struct TracedStudy<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    checks: AtomicU64,
    passes: AtomicU64,
}

impl<'t, S: Study> TracedStudy<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TracedStudy { inner, tracer, checks: AtomicU64::new(0), passes: AtomicU64::new(0) }
    }

    /// (checks run, checks passed).
    pub fn check_counts(&self) -> (u64, u64) {
        (self.checks.load(Ordering::Relaxed), self.passes.load(Ordering::Relaxed))
    }
}

impl<S: Study> Study for TracedStudy<'_, S> {
    type Artifact = S::Artifact;

    fn mode(&self) -> Mode {
        self.inner.mode()
    }

    fn check(&self, source: &str) -> Result<S::Artifact, String> {
        let out = self.tracer.span("core.check", || self.inner.check(source));
        self.checks.fetch_add(1, Ordering::Relaxed);
        if out.is_ok() {
            self.passes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn evaluate(&self, artifact: &S::Artifact) -> f64 {
        self.tracer.span("core.evaluate", || self.inner.evaluate(artifact))
    }
}

/// Parse then compile, each in its own span: the two halves of every
/// study's Checker (`CacheStudy::check`, `LbStudy::check`).
fn traced_check(tracer: &Tracer, source: &str, mode: Mode) -> Result<CompiledPolicy, String> {
    let expr = tracer.span("dsl.parse", || parse(source).map_err(|e| e.to_string()))?;
    tracer.span("kbpf.compile", || CompiledPolicy::compile(&expr, mode).map_err(|e| e.to_string()))
}

/// The cache study's Checker and Evaluator rebuilt from public parts so
/// parse, compile, the engine and the policy callbacks can be told apart.
/// Scores equal `CacheStudy`'s for the same trace and capacity.
pub struct TracedCacheStudy<'a, 't> {
    trace: &'a Trace,
    capacity: u64,
    fifo_miss_ratio: f64,
    tracer: &'t Tracer,
}

impl<'a, 't> TracedCacheStudy<'a, 't> {
    pub fn new(
        trace: &'a Trace,
        study: &policysmith_core::studies::cache::CacheStudy,
        tracer: &'t Tracer,
    ) -> Self {
        TracedCacheStudy {
            trace,
            capacity: study.capacity(),
            fifo_miss_ratio: study.fifo_miss_ratio(),
            tracer,
        }
    }
}

impl Study for TracedCacheStudy<'_, '_> {
    type Artifact = CompiledPolicy;

    fn mode(&self) -> Mode {
        Mode::Cache
    }

    fn check(&self, source: &str) -> Result<CompiledPolicy, String> {
        traced_check(self.tracer, source, Mode::Cache)
    }

    fn evaluate(&self, policy: &CompiledPolicy) -> f64 {
        let host = TracedPolicy::new(PriorityPolicy::new("candidate", policy.clone()));
        let mut cache = Cache::new(self.capacity, host);
        let result = self.tracer.span_with_leaf("cachesim.run", || {
            let r = cache.run(self.trace);
            (r, cache.policy.leaf_ns())
        });
        cache.policy.flush(self.tracer);
        self.tracer.add_count("cachesim.requests", result.requests);
        if cache.policy.inner.first_error().is_some() {
            return f64::NEG_INFINITY;
        }
        (self.fifo_miss_ratio - result.miss_ratio()) / self.fifo_miss_ratio.max(1e-9)
    }
}

/// The lb study with its Checker split into parse and compile, the
/// simulator run in a `lbsim.run` span and every pick timed. Evaluation
/// goes through `LbStudy::improvement`, so scores equal `LbStudy`'s.
pub struct TracedLbStudy<'a, 't> {
    study: &'a LbStudy,
    tracer: &'t Tracer,
}

impl<'a, 't> TracedLbStudy<'a, 't> {
    pub fn new(study: &'a LbStudy, tracer: &'t Tracer) -> Self {
        TracedLbStudy { study, tracer }
    }
}

impl Study for TracedLbStudy<'_, '_> {
    type Artifact = CompiledPolicy;

    fn mode(&self) -> Mode {
        Mode::Lb
    }

    fn check(&self, source: &str) -> Result<CompiledPolicy, String> {
        traced_check(self.tracer, source, Mode::Lb)
    }

    fn evaluate(&self, policy: &CompiledPolicy) -> f64 {
        let mut host = TracedDispatcher::new(ExprDispatcher::new("candidate", policy.clone()));
        let score = self.tracer.span_with_leaf("lbsim.run", || {
            let score = self.study.improvement(&mut host);
            (score, host.pick.total_ns())
        });
        host.flush(self.tracer);
        self.tracer.add_count("lbsim.score_calls", host.inner.score_calls());
        self.tracer.add_count("lbsim.picks", host.inner.picks());
        if host.inner.first_error().is_some() {
            return f64::NEG_INFINITY;
        }
        score
    }
}

/// `gen::Generator` with a `gen.generate` span around every batch and a
/// `gen.repair` span around every repair.
pub struct TracedGenerator<'t, G> {
    inner: G,
    tracer: &'t Tracer,
}

impl<'t, G: Generator> TracedGenerator<'t, G> {
    pub fn new(inner: G, tracer: &'t Tracer) -> Self {
        TracedGenerator { inner, tracer }
    }
}

impl<G: Generator> Generator for TracedGenerator<'_, G> {
    fn generate(&mut self, prompt: &Prompt, n: usize) -> Vec<String> {
        let inner = &mut self.inner;
        self.tracer.span("gen.generate", || inner.generate(prompt, n))
    }

    fn try_generate(&mut self, prompt: &Prompt, n: usize) -> Result<Vec<String>, GenError> {
        let inner = &mut self.inner;
        self.tracer.span("gen.generate", || inner.try_generate(prompt, n))
    }

    fn repair(&mut self, prompt: &Prompt, source: &str, stderr: &str) -> Option<String> {
        let inner = &mut self.inner;
        self.tracer.span("gen.repair", || inner.repair(prompt, source, stderr))
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }
}

/// `cachesim::Policy` with its callbacks sampled (see [`Leaf`]):
/// `on_hit`/`on_insert` (the rescore), `victim`, and `on_evict`.
pub struct TracedPolicy<P> {
    inner: P,
    rescore: Leaf,
    victim: Leaf,
    evict: Leaf,
}

impl<P: Policy> TracedPolicy<P> {
    pub fn new(inner: P) -> Self {
        TracedPolicy {
            inner,
            rescore: Leaf::default(),
            victim: Leaf::default(),
            evict: Leaf::default(),
        }
    }

    /// Estimated time spent in callbacks so far.
    pub fn leaf_ns(&self) -> u64 {
        self.rescore.total_ns() + self.victim.total_ns() + self.evict.total_ns()
    }

    /// Hand the aggregates to the tracer and start over.
    pub fn flush(&mut self, tracer: &Tracer) {
        tracer.add_leaf("cachesim.rescore", &std::mem::take(&mut self.rescore));
        tracer.add_leaf("cachesim.victim", &std::mem::take(&mut self.victim));
        tracer.add_leaf("cachesim.evict", &std::mem::take(&mut self.evict));
    }
}

impl<P: Policy> Policy for TracedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        let inner = &mut self.inner;
        self.rescore.call(|| inner.on_hit(id, view));
    }

    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.inner.on_miss(id, view);
    }

    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        let inner = &mut self.inner;
        self.victim.call(|| inner.victim(view))
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        let inner = &mut self.inner;
        self.evict.call(|| inner.on_evict(id, view));
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        let inner = &mut self.inner;
        self.rescore.call(|| inner.on_insert(id, view));
    }
}

/// `lbsim::Dispatcher` with its picks sampled (see [`Leaf`]): context
/// fill plus the batched argmin inside `ExprDispatcher::pick`.
pub struct TracedDispatcher<D> {
    pub inner: D,
    pub pick: Leaf,
}

impl<D: Dispatcher> TracedDispatcher<D> {
    pub fn new(inner: D) -> Self {
        TracedDispatcher { inner, pick: Leaf::default() }
    }

    pub fn flush(&mut self, tracer: &Tracer) {
        tracer.add_leaf("lbsim.pick", &std::mem::take(&mut self.pick));
    }
}

impl<D: Dispatcher> Dispatcher for TracedDispatcher<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let inner = &mut self.inner;
        self.pick.call(|| inner.pick(view))
    }
}
