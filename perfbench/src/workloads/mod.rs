//! The four workloads and what their traced runs share.

pub mod lb_drift;
pub mod search_cache;
pub mod serve_cache;
pub mod serve_lb;

use crate::stats::{hist_quantile, median, process_cpu_seconds};
use crate::trace::{clock_cost_ns, self_by_name, totals, Tracer};
use crate::{Outcome, Setup, PER_LAYER};
use policysmith_dsl::{parse, Mode};
use policysmith_kbpf::CompiledPolicy;
use policysmith_serve::ServeReport;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Compile a static source the benchmark ships; a failure is a bug here.
pub fn compile(source: &str, mode: Mode) -> CompiledPolicy {
    let expr = parse(source).expect("benchmark policy sources parse");
    CompiledPolicy::compile(&expr, mode).expect("benchmark policy sources compile")
}

/// Upper bound on one run's measuring time, for loops that must also
/// gather a minimum of samples. With set-up, a run stays inside the 170 s
/// that `run.py` allows it.
pub const MAX_MEASURE: Duration = Duration::from_secs(120);

/// The measuring window: `seconds` from now (at most 60, so it closes
/// first), and the hard stop [`MAX_MEASURE`] from now.
pub fn deadline(seconds: f64) -> (Instant, Instant) {
    let now = Instant::now();
    (now + Duration::from_secs_f64(seconds), now + MAX_MEASURE)
}

/// Mean duration of the spans named `name`, in units of `unit_ns`; 0 when
/// there are none.
pub fn span_mean(tracer: &Tracer, name: &str, unit_ns: f64) -> f64 {
    let (n, total) = totals(&tracer.spans(), name);
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / unit_ns
    }
}

/// Fill every per-layer metric the spans, leaves and counters recorded so
/// far can give; the rest read 0 until a workload sets them.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer) {
    for (name, _) in PER_LAYER {
        out.set(name, 0.0);
    }
    out.set("gen.generate_us", span_mean(tracer, "gen.generate", 1e3));
    out.set("core.check_us", span_mean(tracer, "core.check", 1e3));
    out.set("dsl.parse_us", span_mean(tracer, "dsl.parse", 1e3));
    out.set("kbpf.compile_us", span_mean(tracer, "kbpf.compile", 1e3));
    out.set("core.evaluate_ms", span_mean(tracer, "core.evaluate", 1e6));

    let spans = tracer.spans();
    let selfs = self_by_name(&spans);
    let leaves = tracer.leaves();
    if let Some(rescore) = leaves.get("cachesim.rescore") {
        out.set("cachesim.rescore_ns", rescore.mean_ns());
    }
    if let Some(victim) = leaves.get("cachesim.victim") {
        let q = |q| (hist_quantile(&victim.hist, q).unwrap_or(0.0) - clock_cost_ns()).max(0.0);
        out.set("cachesim.victim_p50_ns", q(0.5));
        out.set("cachesim.victim_p99_ns", q(0.99));
        out.note(format!(
            "cachesim.victim: {} calls, {} timed; clock cost {:.1} ns taken off each",
            victim.calls,
            victim.timed,
            clock_cost_ns()
        ));
    }
    let requests = tracer.count("cachesim.requests");
    if requests > 0 {
        let engine = selfs.get("cachesim.run").copied().unwrap_or(0);
        out.set("cachesim.engine_ns_per_req", engine as f64 / requests as f64);
    }
    let picks = tracer.count("lbsim.picks");
    if picks > 0 {
        if let Some(pick) = leaves.get("lbsim.pick") {
            out.set("lbsim.pick_ns", pick.mean_ns());
        }
        let engine = selfs.get("lbsim.run").copied().unwrap_or(0);
        out.set("lbsim.engine_ns_per_decision", engine as f64 / picks as f64);
        out.set(
            "lbsim.score_calls_per_pick",
            tracer.count("lbsim.score_calls") as f64 / picks as f64,
        );
    }
    out.set("trace.spans", spans.len() as f64);
}

/// The composition check: the layers' self times per operation against
/// the untraced cost of one operation. What the layers do not account for
/// is `unattributed`; traced minus untraced is the tracing overhead.
pub fn compose(
    out: &mut Outcome,
    op: &str,
    layers_ns_per_op: &BTreeMap<String, f64>,
    untraced_ns_per_op: f64,
    traced_ns_per_op: f64,
) {
    let sum: f64 = layers_ns_per_op.values().sum();
    let parts: Vec<String> =
        layers_ns_per_op.iter().map(|(layer, ns)| format!("{layer} {ns:.1}")).collect();
    out.note(format!("composition per {op} (ns): {}", parts.join(", ")));
    out.note(format!(
        "composition per {op} (ns): layers {sum:.1} vs untraced {untraced_ns_per_op:.1} -> \
         unattributed {:.1}; tracing overhead {:.1} (traced {traced_ns_per_op:.1})",
        untraced_ns_per_op - sum,
        traced_ns_per_op - untraced_ns_per_op
    ));
    out.set("trace.layer_self_ns_per_op", sum);
    out.set("trace.unattributed_ns_per_op", untraced_ns_per_op - sum);
    out.set("trace.overhead_ns_per_op", traced_ns_per_op - untraced_ns_per_op);
}

/// Layer self times from every span and leaf, per operation.
pub fn layers_per_op(tracer: &Tracer, ops: f64) -> BTreeMap<String, f64> {
    crate::trace::self_by_layer(&tracer.spans(), &tracer.leaves())
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / ops))
        .collect()
}

/// Directory, relative to the checkout root, that traced runs write their
/// spans to.
pub const SPAN_DIR: &str = "perfbench/out";

/// Write the run's spans as JSON lines under [`SPAN_DIR`].
pub fn write_spans(out: &mut Outcome, tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(SPAN_DIR).join(format!("spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Set `setup_s` from every set-up of the run.
pub fn report_setup<T>(out: &mut Outcome, setup: &Setup<'_, T>) {
    let (secs, builds) = setup.seconds();
    out.set("setup_s", secs);
    out.note(format!("setup_s: median of {builds} set-ups across the run"));
}

/// Serve calls until `seconds` have passed, each checked by `holds`, the
/// inputs rebuilt between calls; the end-to-end metrics, but `setup_s`,
/// from their totals.
pub fn serve_calls<T>(
    seconds: f64,
    setup: &mut Setup<'_, T>,
    call: impl Fn(&T) -> ServeReport,
    holds: impl Fn(&T, &ServeReport) -> Result<(), String>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut totals = ServeTotals::default();
    let (soft, _) = deadline(seconds);
    loop {
        let c0 = process_cpu_seconds();
        let report = call(setup.inputs());
        totals.add(&report, process_cpu_seconds() - c0);
        let verdict = holds(setup.inputs(), &report);
        out.check(verdict.is_ok(), || verdict.unwrap_err());
        if Instant::now() >= soft {
            break;
        }
        setup.between_ops();
    }
    let task_cpu_s = median(&totals.cpus).expect("at least one serve call");
    totals.finish(&mut out, task_cpu_s);
    out
}

/// End-to-end totals over a run's serve calls.
#[derive(Default)]
pub struct ServeTotals {
    pub walls: Vec<f64>,
    /// Process CPU seconds of each call.
    pub cpus: Vec<f64>,
    pub decisions: u64,
    pub latency: policysmith_obs::LatencyHistogram,
}

impl ServeTotals {
    /// Fold in one serve call and the process CPU seconds it used.
    pub fn add(&mut self, report: &ServeReport, cpu: f64) {
        self.walls.push(report.wall_seconds);
        self.cpus.push(cpu);
        self.decisions += report.total_decisions();
        self.latency.merge(&report.latency());
    }

    /// Set every end-to-end metric but `setup_s`; the task's CPU seconds
    /// are given.
    pub fn finish(&self, out: &mut Outcome, task_cpu_s: f64) {
        let decisions = self.decisions as f64;
        let wall: f64 = self.walls.iter().sum();
        out.set("task_cpu_s", task_cpu_s);
        out.set("cpu_ns_per_decision", self.cpus.iter().sum::<f64>() * 1e9 / decisions);
        let p50 = hist_quantile(&self.latency, 0.5);
        let p99 = hist_quantile(&self.latency, 0.99);
        out.set("decision_p50_ns", p50.unwrap_or(f64::NAN));
        out.set("decision_p99_ns", p99.unwrap_or(f64::NAN));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
        out.note(format!(
            "wall clock: decisions_per_s {:.0} 1/s; serve call median {:.4} s over {} calls",
            decisions / wall,
            median(&self.walls).unwrap_or(f64::NAN),
            self.walls.len()
        ));
        out.note(format!(
            "decision latency from the runtime histogram: {} samples over {} decisions; \
             p50 {:.1} ns, p99 {:.1} ns",
            self.latency.count(),
            self.decisions,
            p50.unwrap_or(f64::NAN),
            p99.unwrap_or(f64::NAN)
        ));
    }
}
