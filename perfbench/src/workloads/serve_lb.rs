//! `serve-lb`: the steady lb data plane. `serve_lb` with 2 workers, each
//! replaying as fast as it can 24 reseeded `uniform_fleet` streams
//! (30k requests each) through the compiled least-work-left policy: a
//! closed loop with one client per worker. No re-synthesis, no swaps.
//!
//! Task: one serve call over both workers' streams. Decisions: dispatch
//! decisions served.

use super::{compile, compose, layer_metrics, report_setup, serve_calls, write_spans};
use crate::trace::{Leaf, Tracer};
use crate::wrap::TracedDispatcher;
use crate::{Outcome, Setup};
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::Mode;
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{run_phased, scenario, ExprDispatcher, LbMetrics, Scenario};
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{loadgen, serve_lb, ServeConfig, ServeReport};
use std::collections::BTreeMap;
use std::time::Instant;

const POLICY: &str = "server.work_left + req.size * 1000 / server.speed";
const WORKERS: usize = 2;
const STREAMS: usize = 24;

struct Inputs {
    shards: Vec<Vec<Scenario>>,
    policy: CompiledPolicy,
    /// Worker 0's stream replayed through the batch simulator.
    reference: LbMetrics,
}

fn make_inputs(seed: u64) -> Inputs {
    let base = scenario::uniform_fleet();
    let phases: Vec<Scenario> =
        (0..STREAMS).map(|i| base.clone().with_seed(loadgen::mix(seed, i as u64))).collect();
    let shards = loadgen::lb_shards(&phases, WORKERS);
    let policy = compile(POLICY, Mode::Lb);
    let reference =
        run_phased(&shards[0], &mut ExprDispatcher::new("reference", policy.clone())).combined;
    Inputs { shards, policy, reference }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        window: 1_000,
        latency_sample_every: 8,
        ..ServeConfig::default()
    }
}

fn serve(inputs: &Inputs) -> ServeReport {
    serve_lb(&inputs.shards, inputs.policy.clone(), &config(), None::<Resynth<LbStudy>>)
}

/// Worker 0 matches the batch simulator, every worker answered every
/// request it was offered, and nothing panicked.
fn report_holds(inputs: &Inputs, report: &ServeReport) -> Result<(), String> {
    if !report.failures.is_empty() {
        return Err(format!("runtime failures: {:?}", report.failures));
    }
    if report.workers.len() != WORKERS {
        return Err(format!("{} of {WORKERS} workers reported", report.workers.len()));
    }
    for w in &report.workers {
        let offered = w.lb_metrics.as_ref().map_or(0, |m| m.offered);
        if w.decisions != offered {
            return Err(format!(
                "worker {}: {} decisions for {offered} offered",
                w.worker, w.decisions
            ));
        }
    }
    if report.workers[0].lb_metrics.as_ref() != Some(&inputs.reference) {
        return Err("worker 0 metrics differ from sim::run_phased on its stream".into());
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
    // untraced: the served cost and the batch cost of the same stream
    let report = serve(inputs);
    let verdict = report_holds(inputs, &report);
    out.check(verdict.is_ok(), || verdict.unwrap_err());
    let w0 = &report.workers[0];
    let serve_ns = w0.wall_seconds * 1e9 / w0.decisions as f64;
    let t0 = Instant::now();
    let batch =
        run_phased(&inputs.shards[0], &mut ExprDispatcher::new("batch", inputs.policy.clone()));
    let decisions = batch.combined.offered as f64;
    let batch_ns = t0.elapsed().as_nanos() as f64 / decisions;
    out.check(batch.combined == inputs.reference, || "untraced batch replay differs".into());

    // traced: the same batch replay, every pick timed; the request
    // streams the replay generates per phase are timed outside it and
    // charged to the replay as a leaf
    let tracer = Tracer::new();
    let mut generate = Leaf::default();
    for phase in &inputs.shards[0] {
        let t0 = Instant::now();
        std::hint::black_box(phase.requests());
        generate.record(t0.elapsed().as_nanos() as u64);
    }
    tracer.add_leaf("lbsim.generate", &generate);
    let mut host = TracedDispatcher::new(ExprDispatcher::new("traced", inputs.policy.clone()));
    let t0 = Instant::now();
    let traced = tracer.span_with_leaf("lbsim.run", || {
        let m = run_phased(&inputs.shards[0], &mut host);
        (m, host.pick.total_ns() + generate.total_ns())
    });
    let traced_ns = t0.elapsed().as_nanos() as f64 / decisions;
    host.flush(&tracer);
    tracer.add_count("lbsim.picks", host.inner.picks());
    tracer.add_count("lbsim.score_calls", host.inner.score_calls());
    out.check(traced.combined == inputs.reference, || "traced batch replay differs".into());

    layer_metrics(&mut out, &tracer);
    let runtime_ns = serve_ns - batch_ns;
    out.set("serve.runtime_ns_per_decision", runtime_ns);
    let mut layers: BTreeMap<String, f64> = super::layers_per_op(&tracer, decisions);
    layers.insert("serve".into(), runtime_ns);
    out.note(format!(
        "worker 0: served {serve_ns:.1} ns/decision, batch replay {batch_ns:.1} ns/decision \
         (request generation {:.1} ns/decision)",
        generate.total_ns() as f64 / decisions
    ));
    compose(&mut out, "decision (worker 0)", &layers, serve_ns, serve_ns + traced_ns - batch_ns);
    write_spans(&mut out, &tracer, "serve-lb", seed);
    out
}
