//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, last, one JSON line: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). Exits 1 when an output check failed and
//! 2 on a bad command line or a machine with too few cores.

use perfbench::{result_line, workloads, BUSY_THREADS, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 42, seconds: 20.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {value}: must lie in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if BUSY_THREADS > cores {
        eprintln!(
            "perfbench: {} needs {BUSY_THREADS} busy threads but this machine has {cores} cores",
            args.workload
        );
        std::process::exit(2);
    }
    let run = match args.workload.as_str() {
        "search-cache" => workloads::search_cache::run,
        "serve-lb" => workloads::serve_lb::run,
        "serve-cache" => workloads::serve_cache::run,
        "lb-drift" => workloads::lb_drift::run,
        _ => unreachable!("workload names are checked above"),
    };
    let outcome = run(args.seed, args.seconds, args.trace);
    for line in &outcome.notes {
        println!("# {line}");
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in expected {
        println!("# {name} = {} {unit}", outcome.metrics[name]);
    }
    println!(
        "{{\"stamp\": {{\"git_sha\": \"{}\", \"available_parallelism\": {cores}, \"busy_threads\": {BUSY_THREADS}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        std::env::var("PERFBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", result_line(&outcome, expected));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
