//! `search-cache`: the paper's §4.2.1 loop, closed: each round waits for
//! the previous round's scores. `run_search` on `CacheStudy` over
//! CloudPhysics w89 (60k requests, cache = 10% of footprint), the mock
//! LLM seeded from `--seed`, `SearchConfig::paper_cache()` (20 rounds × 25
//! candidates) with 2 evaluation threads.
//!
//! Task: one whole search. Decisions: the cache accesses the candidates'
//! evaluations replay. Decision latency: per evaluated candidate, the CPU
//! time of its evaluation over the accesses it replayed.

use super::{compose, deadline, layer_metrics, layers_per_op, report_setup};
use crate::stats::{
    median, peak_rss_mb, process_cpu_seconds, sample_quantile, supports, thread_cpu_seconds,
};
use crate::trace::Tracer;
use crate::wrap::{TracedCacheStudy, TracedGenerator, TracedStudy};
use crate::{Outcome, Setup};
use policysmith_core::search::{run_search, SearchConfig, SearchOutcome, Study};
use policysmith_core::studies::cache::CacheStudy;
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_serve::loadgen::mix;
use policysmith_traces::{cloudphysics, Trace};
use std::sync::Mutex;
use std::time::Instant;

const TRACE_INDEX: usize = 89;
const TRACE_LEN: usize = 60_000;
const EVAL_THREADS: usize = 2;

fn config() -> SearchConfig {
    SearchConfig { threads: EVAL_THREADS, ..SearchConfig::paper_cache() }
}

/// The `i`-th search of a run: its own generator stream from the seed.
fn generator(seed: u64, i: u64) -> MockLlm {
    MockLlm::new(GenConfig::cache_defaults(mix(seed, i)))
}

/// `CacheStudy` with each evaluation's thread CPU time recorded: two
/// clock reads per candidate, against milliseconds of simulation.
struct Timed<'a> {
    inner: &'a CacheStudy,
    eval_ns: Mutex<Vec<f64>>,
}

impl Study for Timed<'_> {
    type Artifact = <CacheStudy as Study>::Artifact;

    fn mode(&self) -> policysmith_dsl::Mode {
        self.inner.mode()
    }

    fn check(&self, source: &str) -> Result<Self::Artifact, String> {
        self.inner.check(source)
    }

    fn evaluate(&self, artifact: &Self::Artifact) -> f64 {
        let c0 = thread_cpu_seconds();
        let score = self.inner.evaluate(artifact);
        let ns = (thread_cpu_seconds() - c0) * 1e9;
        self.eval_ns.lock().expect("evaluation timings poisoned").push(ns);
        score
    }
}

/// Re-check and re-evaluate the winner on the plain study; its score must
/// be exactly what the search reported.
fn winner_holds(study: &CacheStudy, outcome: &SearchOutcome) -> bool {
    match study.check(&outcome.best.source) {
        Ok(artifact) => study.evaluate(&artifact).to_bits() == outcome.best.score.to_bits(),
        Err(_) => false,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setup = Setup::new(|| {
        let trace = cloudphysics().trace(TRACE_INDEX, TRACE_LEN);
        let study = CacheStudy::new(&trace);
        (trace, study)
    });
    let mut out = if traced {
        let (trace, study) = setup.inputs();
        run_traced(seed, seconds, trace, study)
    } else {
        run_plain(seed, seconds, &mut setup)
    };
    report_setup(&mut out, &setup);
    out.note(format!("threads: {EVAL_THREADS} evaluation + 1 generation (idle while scoring)"));
    out
}

fn run_plain(seed: u64, seconds: f64, setup: &mut Setup<'_, (Trace, CacheStudy)>) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let (soft, hard) = deadline(seconds);
    let (mut walls, mut cpus, mut evaluated, mut per_decision) = (vec![], vec![], 0u64, vec![]);
    for i in 0.. {
        let study = &setup.inputs().1;
        let timed = Timed { inner: study, eval_ns: Mutex::new(Vec::new()) };
        let mut llm = generator(seed, i);
        let (c0, t0) = (process_cpu_seconds(), Instant::now());
        let outcome = run_search(&timed, &mut llm, &cfg);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(process_cpu_seconds() - c0);
        out.check(winner_holds(study, &outcome), || {
            format!("search {i}: winner does not re-score to {}", outcome.best.score)
        });
        if i == 0 {
            out.note(format!(
                "best_score {} (improvement over FIFO, search 0): {}",
                outcome.best.score, outcome.best.source
            ));
        }
        evaluated += outcome.cost.candidates_evaluated;
        let samples = timed.eval_ns.into_inner().expect("evaluation timings poisoned");
        per_decision.extend(samples.iter().map(|ns| ns / TRACE_LEN as f64));
        let now = Instant::now();
        if now >= hard || (now >= soft && supports(per_decision.len() as u64, 0.99)) {
            break;
        }
        setup.between_ops();
    }
    let decisions = evaluated as f64 * TRACE_LEN as f64;
    let cpu: f64 = cpus.iter().sum();
    out.set("task_cpu_s", median(&cpus).expect("at least one search"));
    out.set("cpu_ns_per_decision", cpu * 1e9 / decisions);
    out.set("decision_p50_ns", sample_quantile(&per_decision, 0.5).unwrap_or(f64::NAN));
    out.set("decision_p99_ns", sample_quantile(&per_decision, 0.99).unwrap_or(f64::NAN));
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(format!(
        "wall clock: search_s {:.4} s (median of {} searches); decisions_per_s {:.0} 1/s",
        median(&walls).expect("at least one search"),
        walls.len(),
        decisions / walls.iter().sum::<f64>()
    ));
    out.note(format!(
        "cpu_ms_per_candidate {:.4} ms over {evaluated} scored candidates; decision latency \
         samples: {} evaluated candidates",
        cpu * 1e3 / evaluated as f64,
        per_decision.len()
    ));
    out
}

fn run_traced(seed: u64, seconds: f64, trace: &Trace, study: &CacheStudy) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let (soft, _) = deadline(seconds);

    // the untraced reference: the same first search, plain
    let (c0, t0) = (process_cpu_seconds(), Instant::now());
    let plain = run_search(study, &mut generator(seed, 0), &cfg);
    let plain_wall = t0.elapsed().as_secs_f64();
    let plain_cpu = process_cpu_seconds() - c0;
    out.check(winner_holds(study, &plain), || "untraced winner does not re-score".into());
    let plain_cpu_per_candidate = plain_cpu * 1e9 / plain.cost.candidates_evaluated as f64;
    let busy = plain.cost.eval_cpu_seconds / (EVAL_THREADS as f64 * plain_wall);

    let tracer = Tracer::new();
    let traced_study = TracedStudy::new(TracedCacheStudy::new(trace, study, &tracer), &tracer);
    let (mut evaluated, mut memo_hits, mut searches, mut cpu) = (0u64, 0u64, 0u64, 0.0);
    for i in 0.. {
        tracer.set_run(i as u32);
        let mut llm = TracedGenerator::new(generator(seed, i), &tracer);
        let c0 = process_cpu_seconds();
        let outcome = tracer.root_span("core.search", || run_search(&traced_study, &mut llm, &cfg));
        cpu += process_cpu_seconds() - c0;
        out.check(winner_holds(study, &outcome), || {
            format!("traced search {i}: winner does not re-score")
        });
        if i == 0 {
            out.check(outcome.best == plain.best, || "traced search 0 found another winner".into());
        }
        evaluated += outcome.cost.candidates_evaluated;
        memo_hits += outcome.cost.memo_hits;
        searches += 1;
        if Instant::now() >= soft {
            break;
        }
    }
    layer_metrics(&mut out, &tracer);
    let (checks, passes) = traced_study.check_counts();
    out.set("core.check_pass_ratio", passes as f64 / checks.max(1) as f64);
    out.set("core.evaluations", evaluated as f64 / searches as f64);
    out.set("core.memo_hits", memo_hits as f64 / searches as f64);
    out.set("core.eval_busy_ratio", busy);
    compose(
        &mut out,
        "scored candidate (CPU)",
        &layers_per_op(&tracer, evaluated as f64),
        plain_cpu_per_candidate,
        cpu * 1e9 / evaluated as f64,
    );
    super::write_spans(&mut out, &tracer, "search-cache", seed);
    out
}
