//! The benchmark's own arithmetic: span self time, the percentile
//! sample-count rule, and the metric names it reports.

use perfbench::stats::{hist_quantile, min_samples_for, sample_quantile, supports};
use perfbench::trace::{covered_ns, self_by_layer, self_times, Leaf, Span, Tracer};
use perfbench::{result_line, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use policysmith_obs::LatencyHistogram;
use std::collections::{BTreeMap, BTreeSet};

fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>, leaf: u64) -> Span {
    Span { id, name, start_ns: start, end_ns: end, parent, run: 0, thread: 0, leaf_ns: leaf }
}

#[test]
fn union_of_children_counts_overlap_once_and_clips_to_the_parent() {
    assert_eq!(covered_ns(&mut [], 0, 100), 0);
    assert_eq!(covered_ns(&mut [(10, 20), (30, 40)], 0, 100), 20);
    assert_eq!(covered_ns(&mut [(10, 30), (20, 40)], 0, 100), 30);
    assert_eq!(covered_ns(&mut [(10, 50), (20, 30)], 0, 100), 40, "nested");
    assert_eq!(covered_ns(&mut [(30, 40), (10, 20)], 0, 100), 20, "unsorted input");
    assert_eq!(covered_ns(&mut [(0, 50), (90, 150)], 20, 100), 40, "clipped at both ends");
}

#[test]
fn self_time_subtracts_children_and_leaves() {
    let spans = vec![
        span(0, "core.search", 0, 1_000, None, 0),
        // two evaluations on two threads, overlapping for 100 ns
        span(1, "core.evaluate", 100, 500, Some(0), 0),
        span(2, "core.evaluate", 400, 700, Some(0), 0),
        // a grandchild with leaf time inside it
        span(3, "cachesim.run", 150, 450, Some(1), 200),
        span(4, "gen.generate", 800, 900, Some(0), 0),
    ];
    assert_eq!(self_times(&spans), vec![1_000 - 600 - 100, 400 - 300, 300, 300 - 200, 100]);
}

#[test]
fn self_time_never_goes_negative() {
    // leaf time over-estimated past the span's own time
    let spans = vec![span(0, "lbsim.run", 0, 100, None, 150)];
    assert_eq!(self_times(&spans), vec![0]);
}

#[test]
fn layer_totals_add_span_self_time_and_leaf_time() {
    let spans = vec![
        span(0, "core.evaluate", 0, 1_000, None, 0),
        span(1, "cachesim.run", 100, 900, Some(0), 500),
    ];
    let mut leaf = Leaf::default();
    for _ in 0..5 {
        leaf.record(100);
    }
    let mut leaves = BTreeMap::new();
    leaves.insert("cachesim.rescore", leaf);
    let by = self_by_layer(&spans, &leaves);
    assert_eq!(by["core"], 200);
    // 300 ns of engine self time plus the leaf's estimate (its clock cost
    // taken off each call)
    assert_eq!(by["cachesim"], 300 + leaves["cachesim.rescore"].total_ns());
    assert!(leaves["cachesim.rescore"].total_ns() <= 500);
}

#[test]
fn sampled_leaf_counts_every_call_and_times_one_in_n() {
    let mut leaf = Leaf::default();
    let n = Leaf::SAMPLE_EVERY * 10;
    for i in 0..n {
        assert_eq!(leaf.call(|| i), i);
    }
    assert_eq!(leaf.calls, n);
    assert_eq!(leaf.timed, 10);
    assert_eq!(leaf.hist.count(), 10);
}

#[test]
fn tracer_links_parents_on_the_same_thread_and_roots_other_threads() {
    let tracer = Tracer::new();
    tracer.set_run(7);
    tracer.root_span("core.search", || {
        tracer.span("gen.generate", || ());
        std::thread::scope(|s| {
            s.spawn(|| tracer.span("core.evaluate", || ()));
        });
    });
    let spans = tracer.spans();
    let root = spans.iter().find(|s| s.name == "core.search").unwrap();
    assert_eq!(root.parent, None);
    for s in spans.iter().filter(|s| s.name != "core.search") {
        assert_eq!(s.parent, Some(root.id), "{} hangs off the search", s.name);
        assert_eq!(s.run, 7);
    }
    let worker = spans.iter().find(|s| s.name == "core.evaluate").unwrap();
    assert_ne!(worker.thread, root.thread);
}

#[test]
fn a_quantile_needs_ten_samples_beyond_it() {
    assert_eq!(min_samples_for(0.5), 20);
    assert_eq!(min_samples_for(0.9), 100);
    assert_eq!(min_samples_for(0.99), 1_000);
    assert_eq!(min_samples_for(0.999), 10_000);
    assert!(!supports(999, 0.99));
    assert!(supports(1_000, 0.99));

    let few: Vec<f64> = (0..999).map(f64::from).collect();
    assert_eq!(sample_quantile(&few, 0.99), None);
    assert!(sample_quantile(&few, 0.5).is_some());
    let enough: Vec<f64> = (0..1_001).map(f64::from).collect();
    assert_eq!(sample_quantile(&enough, 0.99), Some(990.0));
    assert_eq!(sample_quantile(&enough, 0.5), Some(500.0));
}

#[test]
fn histogram_quantiles_obey_the_rule_and_interpolate_inside_the_bucket() {
    let mut h = LatencyHistogram::new();
    for v in 0..999u64 {
        h.record(1_000 + v);
    }
    assert_eq!(hist_quantile(&h, 0.99), None, "999 samples cannot support p99");
    h.record(1_999);
    let p50 = hist_quantile(&h, 0.5).unwrap();
    let p99 = hist_quantile(&h, 0.99).unwrap();
    // the histogram alone answers with a bucket's lower bound; the
    // interpolated value stays inside that bucket and near the true value
    let lower = h.quantile(0.5) as f64;
    assert!(p50 >= lower && p50 < lower + 64.0, "p50 {p50} outside its bucket at {lower}");
    assert!((p50 - 1_500.0).abs() < 40.0, "p50 {p50}");
    assert!((p99 - 1_990.0).abs() < 70.0, "p99 {p99}");
    assert!(p50 < p99);
}

/// A name: a letter or digit first, then at most 64 letters, digits, `_`,
/// `.` and `-` in all.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for name in WORKLOADS {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name.to_string()), "duplicate {name}");
    }
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: unit {unit}");
        assert!(seen.insert(name.to_string()), "duplicate {name}");
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
    assert!(!valid_name("-lead"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit(""));
    assert!(!valid_unit("ns per decision"));
}

/// `(name, unit)` pairs of a `BENCHMARK.json` metric list, in order.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..json[start..].find(']').unwrap() + start];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).unwrap_or_else(|| panic!("no {f} in {obj}"));
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').unwrap() + 1;
        rest[open..open + rest[open..].find('"').unwrap()].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w} not listed");
    }
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let mut out = Outcome::default();
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        out.set(name, 1.5 + i as f64);
    }
    out.check(true, String::new);
    let line = result_line(&out, END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    out.check(false, || "mismatch".into());
    assert!(result_line(&out, END_TO_END)
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}
