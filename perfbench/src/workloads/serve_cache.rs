//! `serve-cache`: the cache data plane. `serve_cache` with 2 workers,
//! each replaying a 500k-request CloudPhysics-w89 trace (the w89 workload
//! law, its stream drawn from `--seed`) through the compiled Listing-1
//! policy, cache = 10% of the trace's footprint. No swaps.
//!
//! Task: one serve call over both workers' replays. Decisions: cache
//! accesses served.

use super::{compile, compose, layer_metrics, report_setup, serve_calls, write_spans};
use crate::trace::Tracer;
use crate::wrap::TracedPolicy;
use crate::{Outcome, Setup};
use policysmith_cachesim::{simulate, Cache, PriorityPolicy, SimResult, LISTING1_SOURCE};
use policysmith_core::studies::cache::CacheStudy;
use policysmith_dsl::Mode;
use policysmith_kbpf::CompiledPolicy;
use policysmith_serve::loadgen::mix;
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{serve_cache, ServeConfig, ServeReport};
use policysmith_traces::datasets::CLOUDPHYSICS;
use policysmith_traces::{footprint_bytes, generate, Trace};
use std::time::Instant;

const TRACE_INDEX: usize = 89;
const TRACE_LEN: usize = 500_000;
const WORKERS: usize = 2;

struct Inputs {
    shards: Vec<Trace>,
    capacity: u64,
    policy: CompiledPolicy,
    /// The trace through the batch simulator with the same host.
    reference: SimResult,
}

/// The serving runtime's cache host: Listing 1 with every feature tracker
/// on, as `serve_cache` builds it.
fn host(name: &str, policy: &CompiledPolicy) -> PriorityPolicy {
    PriorityPolicy::new(name, policy.clone()).track_everything()
}

fn make_inputs(seed: u64) -> Inputs {
    let params = CLOUDPHYSICS.params(TRACE_INDEX);
    let name = format!("cloudphysics/{}", CLOUDPHYSICS.trace_name(TRACE_INDEX));
    let trace = generate(&name, &params, mix(seed, TRACE_INDEX as u64), TRACE_LEN);
    let capacity = (footprint_bytes(&trace) / 10).max(1);
    let policy = compile(LISTING1_SOURCE, Mode::Cache);
    let reference = simulate(&trace, capacity, host("reference", &policy));
    Inputs { shards: vec![trace; WORKERS], capacity, policy, reference }
}

fn serve(inputs: &Inputs) -> ServeReport {
    let cfg = ServeConfig {
        workers: WORKERS,
        window: 1_000,
        latency_sample_every: 8,
        ..ServeConfig::default()
    };
    serve_cache(
        &inputs.shards,
        inputs.capacity,
        inputs.policy.clone(),
        &cfg,
        None::<Resynth<CacheStudy>>,
    )
}

/// Worker 0 matches the batch simulator, every worker served its whole
/// trace, and nothing panicked.
fn report_holds(inputs: &Inputs, report: &ServeReport) -> Result<(), String> {
    if !report.failures.is_empty() {
        return Err(format!("runtime failures: {:?}", report.failures));
    }
    if report.workers.len() != WORKERS {
        return Err(format!("{} of {WORKERS} workers reported", report.workers.len()));
    }
    for w in &report.workers {
        if w.decisions != TRACE_LEN as u64 {
            return Err(format!(
                "worker {}: {} decisions for {TRACE_LEN} requests",
                w.worker, w.decisions
            ));
        }
    }
    if report.workers[0].cache_result != Some(inputs.reference) {
        return Err("worker 0 result differs from cachesim::simulate".into());
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setup = Setup::new(|| make_inputs(seed));
    let mut out = if traced {
        run_traced(seed, setup.inputs())
    } else {
        serve_calls(seconds, &mut setup, serve, report_holds)
    };
    report_setup(&mut out, &setup);
    out.note(format!(
        "threads: {WORKERS} serving workers + 1 adaptation thread (idle: no drift answer)"
    ));
    out
}

fn run_traced(seed: u64, inputs: &Inputs) -> Outcome {
    let mut out = Outcome::default();
    // untraced: the served cost and the batch cost of the same trace
    let report = serve(inputs);
    let verdict = report_holds(inputs, &report);
    out.check(verdict.is_ok(), || verdict.unwrap_err());
    let w0 = &report.workers[0];
    let requests = TRACE_LEN as f64;
    let serve_ns = w0.wall_seconds * 1e9 / requests;
    let t0 = Instant::now();
    let batch = simulate(&inputs.shards[0], inputs.capacity, host("batch", &inputs.policy));
    let batch_ns = t0.elapsed().as_nanos() as f64 / requests;
    out.check(batch == inputs.reference, || "untraced batch replay differs".into());

    // traced: the same batch replay, every policy callback timed
    let tracer = Tracer::new();
    let mut cache = Cache::new(inputs.capacity, TracedPolicy::new(host("traced", &inputs.policy)));
    let t0 = Instant::now();
    let traced = tracer.span_with_leaf("cachesim.run", || {
        let r = cache.run(&inputs.shards[0]);
        (r, cache.policy.leaf_ns())
    });
    let traced_ns = t0.elapsed().as_nanos() as f64 / requests;
    cache.policy.flush(&tracer);
    tracer.add_count("cachesim.requests", traced.requests);
    out.check(traced == inputs.reference, || "traced batch replay differs".into());

    layer_metrics(&mut out, &tracer);
    let runtime_ns = serve_ns - batch_ns;
    out.set("serve.runtime_ns_per_decision", runtime_ns);
    let mut layers = super::layers_per_op(&tracer, requests);
    layers.insert("serve".into(), runtime_ns);
    out.note(format!(
        "worker 0: served {serve_ns:.1} ns/decision, batch replay {batch_ns:.1} ns/decision"
    ));
    compose(&mut out, "decision (worker 0)", &layers, serve_ns, serve_ns + traced_ns - batch_ns);
    write_spans(&mut out, &tracer, "serve-cache", seed);
    out
}
