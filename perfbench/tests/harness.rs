//! Tests of the benchmark harness itself: order statistics, metric
//! naming and the result schema, span self-time arithmetic, the
//! steadiness verdict, and a reduced-size run of every workload in both
//! modes against the metric lists in `BENCHMARK.json`.

use perfbench::report::{valid_name, Report};
use perfbench::stats::{median, quartiles, tail_percentile, MIN_TAIL_SAMPLES};
use perfbench::steady::{self, Bound, Summary};
use perfbench::trace::{self, Span, Tracer};
use perfbench::workload::{self, Plan, Seeds, Size, Workload};
use std::path::PathBuf;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[test]
fn p90_is_refused_with_fewer_than_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&samples, 0.9), Ok(90.0));
    let err = tail_percentile(&samples[..99], 0.9).unwrap_err();
    assert!(err.contains("need 10"), "{err}");
    assert!(tail_percentile(&[], 0.9).is_err());
    // p50 of 20 samples has exactly ten beyond it.
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail_percentile(&twenty, 0.5), Ok(10.0));
    assert!(tail_percentile(&twenty[..19], 0.5).is_err());
    assert_eq!(MIN_TAIL_SAMPLES, 10);
    // A run keeps enough of each cell's fastest times for a p90.
    assert_eq!(workload::fastest_kept(225), 1);
    assert_eq!(workload::fastest_kept(75), 2);
    assert_eq!(workload::fastest_kept(4), 25);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
    assert_eq!(quartiles(&[1.0, 5.0]), Some((0.0, 3.0, 6.0)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for ok in ["cells_per_s", "sim.phase.issue_ms", "p-90", "9lives", "a"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/x",
        "ünï",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    let mut r = Report::default();
    r.push("bad name", 1.0, "ms");
    assert!(r.to_json().is_err());
}

#[test]
fn report_refuses_duplicates_and_non_finite_values() {
    let mut r = Report::default();
    r.push("a", 1.0, "ms");
    r.push("a", 2.0, "ms");
    assert!(r.to_json().unwrap_err().contains("twice"));
    let mut r = Report::default();
    r.push("a", f64::NAN, "ms");
    assert!(r.to_json().is_err());
}

#[test]
fn report_round_trips_through_its_json_line() {
    let mut r = Report {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics: Vec::new(),
    };
    r.push("latency_ms", 0.1 + 0.2, "ms");
    r.push("setup_s", 0.812_734_901_2, "s");
    r.push("tiny", 1.5e-9, "ratio");
    r.push("huge", 6.02e23, "count");
    r.push("cells_per_s", 159.196_256_379_395_86, "cells/s");
    let line = r.to_json().unwrap();
    assert!(!line.contains('\n'));
    assert_eq!(Report::from_json(&line).unwrap(), r);
    assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        cell: 0,
    }
}

#[test]
fn self_time_is_duration_minus_child_cover() {
    let spans = vec![
        span("cell", 0, 100, None),
        // Overlapping children cover [10, 50) once, not twice.
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),
        // A grandchild is charged to its parent only.
        span("c", 60, 80, Some(0)),
        span("d", 65, 75, Some(3)),
        // A child running past its parent is clipped to the parent.
        span("e", 90, 120, Some(0)),
    ];
    assert_eq!(trace::self_times(&spans), vec![30, 20, 30, 10, 10, 30]);
    let by_name = trace::self_time_by_name(&spans);
    assert_eq!(by_name["cell"], (1, 30));
    assert_eq!(by_name["c"], (1, 10));
    assert_eq!(
        trace::union_len(&mut [(5, 10), (0, 3), (2, 4), (9, 12)]),
        11
    );
    assert_eq!(trace::union_len(&mut []), 0);
}

#[test]
fn tracer_links_nested_spans_to_their_parent() {
    let mut t = Tracer::new();
    let root = t.open("cell", 7);
    let v = t.leaf("inner", 7, || 42);
    t.close(root);
    t.leaf("next", 8, || ());
    assert_eq!(v, 42);
    let s = t.spans();
    assert_eq!(s.len(), 3);
    assert_eq!(
        (s[0].parent, s[1].parent, s[2].parent),
        (None, Some(0), None)
    );
    assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
    assert_eq!(s[2].cell, 8);
}

fn summary(median: f64, spread: f64) -> Summary {
    Summary {
        q1: median * (1.0 - spread / 2.0),
        median,
        q3: median * (1.0 + spread / 2.0),
    }
}

#[test]
fn steadiness_verdict_follows_the_bounds() {
    for name in steady::workloads(BENCHMARK_JSON).unwrap() {
        assert!(Workload::parse(&name).is_some(), "{name}");
    }
    let seconds = steady::run_seconds(BENCHMARK_JSON).unwrap();
    assert!((1..=60).contains(&seconds), "{seconds}");
    let bounds = steady::bounds(BENCHMARK_JSON).unwrap();
    assert!(bounds.iter().any(|b| b.name == "setup_s"));
    for b in &bounds {
        assert!(b.bound > 0.0 && b.bound <= 0.25, "{b:?}");
    }
    let rate = Bound {
        name: "cells_per_s".into(),
        higher_is_better: true,
        bound: 0.1,
    };
    assert!(steady::agree(
        &rate,
        &summary(100.0, 0.02),
        &summary(95.0, 0.02)
    ));
    // 15% slower, or a spread past the bound, disagrees.
    assert!(!steady::agree(
        &rate,
        &summary(100.0, 0.02),
        &summary(85.0, 0.02)
    ));
    assert!(!steady::agree(
        &rate,
        &summary(100.0, 0.2),
        &summary(100.0, 0.02)
    ));
    // Set-up time is exempt from the spread rule only.
    let setup = Bound {
        name: "setup_s".into(),
        higher_is_better: false,
        bound: 0.25,
    };
    assert!(steady::agree(
        &setup,
        &summary(1.0, 0.5),
        &summary(1.1, 0.5)
    ));
    assert!(!steady::agree(
        &setup,
        &summary(1.0, 0.5),
        &summary(1.3, 0.5)
    ));
    assert!(steady::worsening(&summary(100.0, 0.0), &summary(110.0, 0.0), false) > 0.09);
}

#[test]
fn committed_seeds_pin_every_workload() {
    let seeds = Seeds::committed().unwrap();
    assert_ne!(seeds.default_seed, seeds.held_out_seed);
    for w in Workload::ALL {
        assert_eq!(seeds.digest(w).map(str::len), Some(64), "{}", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    // The warm grid replays the cold one, so their rows are identical.
    assert_eq!(
        seeds.digest(Workload::GridCold),
        seeds.digest(Workload::GridWarm)
    );
    let full = Workload::GridCold.spec(3, Size::Full);
    assert_eq!(full.seed, 3);
    assert_eq!(full.cells().unwrap().len(), 225);
    assert_eq!(
        Workload::LudSim.spec(0, Size::Full).cells().unwrap().len(),
        75
    );
}

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let v = coupling::sweep::codec::parse_json(BENCHMARK_JSON).unwrap();
    v.get(key)
        .and_then(|a| a.as_arr())
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

fn smoke_plan(w: Workload, test: &str) -> Plan {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}"));
    let _ = std::fs::remove_dir_all(&work);
    Plan {
        size: Size::Smoke,
        ..Plan::new(w, 5, 0.0, work)
    }
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn smoke_untraced_runs_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        let plan = smoke_plan(w, &format!("untraced-{}", w.name()));
        let r = workload::run_untraced(&plan).unwrap();
        let _ = std::fs::remove_dir_all(&plan.work);
        assert!(r.correct && r.failed == 0, "{}: {r:?}", w.name());
        assert!(r.attempted >= 100, "{}: {}", w.name(), r.attempted);
        assert_eq!(names(&r), listed("end_to_end"), "{}", w.name());
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        Report::from_json(&r.to_json().unwrap()).unwrap();
    }
}

#[test]
fn smoke_traced_runs_emit_every_per_layer_metric() {
    for w in Workload::ALL {
        let mut plan = smoke_plan(w, &format!("traced-{}", w.name()));
        plan.trace_out = Some(plan.work.join("spans.jsonl"));
        let r = workload::run_traced(&plan).unwrap();
        let spans = std::fs::read_to_string(plan.trace_out.as_ref().unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&plan.work);
        assert!(r.correct && r.failed == 0, "{}: {r:?}", w.name());
        assert_eq!(names(&r), listed("per_layer"), "{}", w.name());
        let get = |n: &str| r.get(n).unwrap().value;
        assert_eq!(get("trace.passes"), 1.0);
        assert!(spans.lines().count() as f64 >= get("trace.spans"));
        match w {
            Workload::GridCold => {
                assert_eq!(get("compiler.calls"), 4.0);
                assert_eq!(get("cache.misses"), 4.0);
                assert!(get("compiler.opt_ms") > 0.0 && get("codec.encode_ms") > 0.0);
            }
            Workload::LudSim => {
                assert_eq!(get("cache.hits") + get("cache.misses"), 0.0);
                assert!(get("sim.run_ms") > 0.0 && get("sim.ns_per_guest_cycle") > 0.0);
            }
            Workload::GridWarm => {
                assert_eq!(get("compiler.calls"), 0.0);
                assert_eq!(get("cache.hit_rate"), 1.0);
                assert!(get("codec.decode_ms") > 0.0);
            }
        }
    }
}

#[test]
fn a_wrong_digest_fails_every_row_of_the_run() {
    let mut plan = smoke_plan(Workload::GridWarm, "bad-digest");
    plan.digest = Some("0".repeat(64));
    let r = workload::run_untraced(&plan).unwrap();
    let _ = std::fs::remove_dir_all(&plan.work);
    assert!(!r.correct);
    assert_eq!(r.failed, 4, "the four smoke cells of the first pass");
}
