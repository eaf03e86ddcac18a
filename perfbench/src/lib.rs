//! The repository benchmark: four workloads through the public APIs of
//! `core`, `serve`, `lbsim`, `cachesim` and `kbpf`.
//!
//! An untraced run measures the end-to-end metrics ([`END_TO_END`]); a
//! traced run wraps each layer's public traits and functions
//! ([`wrap`]) and reports the per-layer metrics ([`PER_LAYER`]). Every
//! run checks the program's outputs and counts a mismatch as a failed
//! operation. See `perfbench/README.md`.

pub mod stats;
pub mod trace;
pub mod workloads;
pub mod wrap;

use std::collections::BTreeMap;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["search-cache", "serve-lb", "serve-cache", "lb-drift"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// Each workload defines its task and its decisions (see the README).
/// Times of whole tasks are CPU times: on a shared VM the hypervisor
/// steals a varying share of each vCPU, and wall clocks count it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("task_cpu_s", "s"),
    ("cpu_ns_per_decision", "ns"),
    ("decision_p50_ns", "ns"),
    ("decision_p99_ns", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_us", "us"),
    ("core.check_us", "us"),
    ("dsl.parse_us", "us"),
    ("kbpf.compile_us", "us"),
    ("core.check_pass_ratio", "ratio"),
    ("core.evaluate_ms", "ms"),
    ("core.evaluations", "count"),
    ("core.memo_hits", "count"),
    ("core.eval_busy_ratio", "ratio"),
    ("cachesim.rescore_ns", "ns"),
    ("cachesim.victim_p50_ns", "ns"),
    ("cachesim.victim_p99_ns", "ns"),
    ("cachesim.engine_ns_per_req", "ns"),
    ("lbsim.pick_ns", "ns"),
    ("lbsim.engine_ns_per_decision", "ns"),
    ("lbsim.score_calls_per_pick", "calls/pick"),
    ("serve.runtime_ns_per_decision", "ns"),
    ("serve.detect_ms", "ms"),
    ("core.monitor_misfires", "count"),
    ("core.try_reuse_ms", "ms"),
    ("serve.guard_screen_ms", "ms"),
    ("serve.swap_publish_ns", "ns"),
    ("serve.swap_adopt_ns", "ns"),
    ("serve.adoption_pause_us", "us"),
    ("serve.stale_decisions", "count"),
    ("trace.spans", "count"),
    ("trace.layer_self_ns_per_op", "ns"),
    ("trace.unattributed_ns_per_op", "ns"),
    ("trace.overhead_ns_per_op", "ns"),
];

/// Threads each workload keeps busy; a run refuses to start on fewer
/// cores.
pub const BUSY_THREADS: usize = 2;

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches, replays or episodes).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one operation, failed unless `ok`; a failure is noted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("MISMATCH: {}", what()));
        }
    }
}

/// A run's inputs, and the timing of their set-up across the run.
///
/// Set-up is single-threaded, so its CPU time is its wall time less what
/// the hypervisor stole. The host this benchmark was tuned on slows one
/// thread by up to half in phases of a few seconds, so set-ups timed in
/// one burst read whichever phase they fell in: timed ahead of the task,
/// they spread up to 38% over ten seeds. Instead, between operations
/// the workload calls [`Setup::between_ops`], which rebuilds the inputs
/// while set-up has had less than [`SETUP_SHARE`] of the run's wall time;
/// set-up time is the median over every build, sampled across the same
/// phases as the task.
pub struct Setup<'a, T> {
    make: Box<dyn FnMut() -> T + 'a>,
    inputs: Option<T>,
    /// CPU seconds of each build.
    secs: Vec<f64>,
    /// Wall seconds spent building.
    wall: f64,
    start: std::time::Instant,
}

impl<'a, T> Setup<'a, T> {
    /// Build the inputs once.
    pub fn new(make: impl FnMut() -> T + 'a) -> Self {
        let mut setup = Setup {
            make: Box::new(make),
            inputs: None,
            secs: Vec::new(),
            wall: 0.0,
            start: std::time::Instant::now(),
        };
        setup.build();
        setup
    }

    fn build(&mut self) {
        // drop the previous inputs first, so memory holds one copy
        drop(self.inputs.take());
        let (c0, t0) = (stats::process_cpu_seconds(), std::time::Instant::now());
        self.inputs = Some(std::hint::black_box((self.make)()));
        self.secs.push(stats::process_cpu_seconds() - c0);
        self.wall += t0.elapsed().as_secs_f64();
    }

    pub fn inputs(&self) -> &T {
        self.inputs.as_ref().expect("inputs are built in new")
    }

    /// Rebuild the inputs (identical: they come from the seed) until
    /// set-up has had [`SETUP_SHARE`] of the wall time since `new`.
    pub fn between_ops(&mut self) {
        while self.wall < SETUP_SHARE * self.start.elapsed().as_secs_f64() {
            self.build();
        }
    }

    /// Median CPU seconds of one set-up, and the number of set-ups.
    pub fn seconds(&self) -> (f64, usize) {
        (stats::median(&self.secs).expect("inputs are built in new"), self.secs.len())
    }
}

/// Share of a run's wall time spent rebuilding its inputs.
pub const SETUP_SHARE: f64 = 0.15;

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its unit. Panics if a metric of `expected`
/// is missing or not finite: that is a bug in the workload.
pub fn result_line(outcome: &Outcome, expected: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = expected
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite(), "metric {name} was not measured (got {v})");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
