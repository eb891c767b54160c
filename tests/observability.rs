//! Observation must never change the experiment: a run with stall
//! profiling and/or trace sinks attached has to produce the same
//! schedule — bit-identical `RunStats` modulo the stall table itself —
//! as a plain run, the stall table has to account for every live thread
//! cycle, and the file sinks have to round-trip the event stream.

use coupling::{benchmarks, run_benchmark, run_benchmark_observed, MachineMode, Observe};
use pc_isa::{InterconnectScheme, MachineConfig, MemoryModel};
use pc_sim::StallCause;
use std::path::PathBuf;

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pc-obs-{}-{name}", std::process::id()))
}

/// Profiled runs reproduce the plain run exactly, for every benchmark ×
/// supported mode: same cycles, same utilizations, same memory and
/// interconnect counters. Only `stats.stalls` may differ (it is the
/// profile). Every benchmark runs under full connection; Matrix, FFT and
/// Model also run under Single-Port and Shared-Bus, where writes are
/// denied ports and bus slots and the observed run must take the same
/// arbitration decisions as the plain one.
#[test]
fn profiling_never_perturbs_any_benchmark() {
    let mut cases: Vec<_> = benchmarks::all()
        .into_iter()
        .map(|b| (b, InterconnectScheme::Full))
        .collect();
    for scheme in [
        InterconnectScheme::SinglePort,
        InterconnectScheme::SharedBus,
    ] {
        for bench in [benchmarks::matrix(), benchmarks::fft(), benchmarks::model()] {
            cases.push((bench, scheme));
        }
    }
    for (bench, scheme) in cases {
        let config = MachineConfig::baseline().with_interconnect(scheme);
        for mode in MachineMode::all() {
            if bench.source(mode).is_none() {
                continue;
            }
            let plain = run_benchmark(&bench, mode, config.clone()).unwrap();
            let mut observed =
                run_benchmark_observed(&bench, mode, config.clone(), &Observe::profiled()).unwrap();
            assert!(
                !observed.stats.stalls.is_empty(),
                "{} {mode} {scheme:?}: profile produced no stall table",
                bench.name
            );
            observed.stats.stalls = Default::default();
            assert_eq!(
                plain.stats, observed.stats,
                "{} {mode} {scheme:?}: profiling changed the run",
                bench.name
            );
        }
    }
}

/// The attribution invariant on real workloads: for every thread,
/// `alive == busy + Σ stalls(cause)`, and the totals sum consistently
/// with the machine cycle count (no thread can be live longer than the
/// run).
#[test]
fn stall_table_sums_are_consistent() {
    for (bench, mode) in [
        (benchmarks::matrix(), MachineMode::Coupled),
        (benchmarks::fft(), MachineMode::Sts),
        (benchmarks::model(), MachineMode::Coupled),
    ] {
        let out = run_benchmark_observed(
            &bench,
            mode,
            MachineConfig::baseline(),
            &Observe::profiled(),
        )
        .unwrap();
        let stalls = &out.stats.stalls;
        assert!(stalls.consistent(), "{} {mode}", bench.name);
        for (i, th) in stalls.threads.iter().enumerate() {
            let by_cause: u64 = StallCause::ALL.iter().map(|&c| th.cause(c)).sum();
            assert_eq!(
                th.alive,
                th.busy + by_cause,
                "{} {mode} t{i}: alive != busy + stalls",
                bench.name
            );
            assert!(
                th.alive <= out.stats.cycles,
                "{} {mode} t{i}: alive {} exceeds run length {}",
                bench.name,
                th.alive,
                out.stats.cycles
            );
        }
        assert!(
            stalls.total_busy() > 0,
            "{} {mode}: no busy cycles recorded",
            bench.name
        );
    }
}

/// Attaching file sinks changes nothing about the run either, and the
/// JSONL stream round-trips: one well-formed object per line, issue
/// lines matching `ops_issued` exactly.
#[test]
fn jsonl_sink_round_trips_the_event_stream() {
    let bench = benchmarks::matrix();
    let path = scratch("events.jsonl");
    let observe = Observe {
        profile: false,
        jsonl: Some(path.clone()),
        chrome: None,
        ..Observe::default()
    };
    let plain = run_benchmark(&bench, MachineMode::Coupled, MachineConfig::baseline()).unwrap();
    let out = run_benchmark_observed(
        &bench,
        MachineMode::Coupled,
        MachineConfig::baseline(),
        &observe,
    )
    .unwrap();
    assert_eq!(plain.stats, out.stats, "sink attachment changed the run");

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut issues = 0u64;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
        assert!(line.contains("\"kind\":"), "line without kind: {line}");
        if line.contains("\"kind\":\"issue\"") {
            issues += 1;
        }
    }
    assert_eq!(
        issues, out.stats.ops_issued,
        "JSONL issue events must match ops_issued"
    );
}

/// The Chrome trace is one JSON array, balanced and non-empty, with one
/// complete ("ph":"X") event per issued operation plus metadata records.
#[test]
fn chrome_trace_is_well_formed_and_complete() {
    let bench = benchmarks::matrix();
    let path = scratch("trace.json");
    let observe = Observe {
        profile: false,
        jsonl: None,
        chrome: Some(path.clone()),
        ..Observe::default()
    };
    let out = run_benchmark_observed(
        &bench,
        MachineMode::Coupled,
        MachineConfig::baseline(),
        &observe,
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "not a JSON array"
    );
    let depth_ok = {
        let mut depth = 0i64;
        let mut min = i64::MAX;
        for c in trimmed.chars() {
            match c {
                '[' | '{' => depth += 1,
                ']' | '}' => depth -= 1,
                _ => {}
            }
            min = min.min(depth);
        }
        depth == 0 && min >= 0
    };
    assert!(depth_ok, "unbalanced JSON brackets");
    let complete = trimmed.matches("\"ph\":\"X\"").count() as u64;
    assert_eq!(
        complete, out.stats.ops_issued,
        "one complete event per issued op"
    );
    assert!(
        trimmed.contains("\"process_name\"") && trimmed.contains("\"thread_name\""),
        "missing track metadata"
    );
}

/// Source-level attribution conserves the machine-level totals, for
/// every benchmark × supported mode: summing the per-line table of
/// `source_table` (the join behind `source_report` and `pcsim explain`)
/// reproduces the `StallTable` stall total *per cause* and the global
/// issue count exactly. Nothing is dropped and nothing is double
/// counted — unattributable cycles land in the explicit
/// "(no provenance)" bucket instead of vanishing.
#[test]
fn source_attribution_conserves_machine_totals() {
    for bench in benchmarks::all() {
        for mode in MachineMode::all() {
            if bench.source(mode).is_none() {
                continue;
            }
            let out = run_benchmark_observed(
                &bench,
                mode,
                MachineConfig::baseline(),
                &Observe::profiled(),
            )
            .unwrap();
            let table = coupling::report::source_table(&out.stats, &out.image.debug);
            for cause in StallCause::ALL {
                let machine: u64 = out
                    .stats
                    .stalls
                    .threads
                    .iter()
                    .map(|t| t.cause(cause))
                    .sum();
                let source: u64 = table.lines.iter().map(|l| l.by_cause[cause.index()]).sum();
                assert_eq!(
                    source,
                    machine,
                    "{} {mode} {}: per-line sum disagrees with stall table",
                    bench.name,
                    cause.label()
                );
            }
            assert_eq!(
                table.total_issued(),
                out.stats.ops_issued,
                "{} {mode}: per-line issue counts disagree with ops_issued",
                bench.name
            );
            // The rendered report shows the same conserved totals.
            let report =
                coupling::report::source_report(&out.stats, &out.image.debug, bench.source(mode));
            assert!(
                report.contains(&table.total_stalled().to_string()),
                "{} {mode}: report lost the stall total\n{report}",
                bench.name
            );
        }
    }
}

/// A program without debug info still reports — every counter falls into
/// the explicit "(no provenance)" row, with totals conserved.
#[test]
fn missing_debug_info_degrades_to_no_provenance_bucket() {
    let bench = benchmarks::matrix();
    let out = run_benchmark_observed(
        &bench,
        MachineMode::Coupled,
        MachineConfig::baseline(),
        &Observe::profiled(),
    )
    .unwrap();
    let empty = pc_isa::DebugMap::new();
    let table = coupling::report::source_table(&out.stats, &empty);
    assert_eq!(table.lines.len(), 1, "all counters collapse to one bucket");
    assert_eq!(table.lines[0].line, 0);
    assert_eq!(table.total_issued(), out.stats.ops_issued);
    let with_debug = coupling::report::source_table(&out.stats, &out.image.debug);
    assert_eq!(table.total_stalled(), with_debug.total_stalled());
    let report = coupling::report::source_report(&out.stats, &empty, None);
    assert!(report.contains("(no provenance)"), "{report}");
}

/// Trace sinks create missing parent directories instead of failing, and
/// failures that do happen name the offending path.
#[test]
fn sink_paths_create_parent_directories() {
    let bench = benchmarks::matrix();
    let dir = scratch("nested-dir");
    std::fs::remove_dir_all(&dir).ok();
    let jsonl = dir.join("deep/run.jsonl");
    let chrome = dir.join("deeper/still/trace.json");
    let observe = Observe {
        profile: false,
        jsonl: Some(jsonl.clone()),
        chrome: Some(chrome.clone()),
        ..Observe::default()
    };
    run_benchmark_observed(
        &bench,
        MachineMode::Seq,
        MachineConfig::baseline(),
        &observe,
    )
    .unwrap();
    assert!(std::fs::metadata(&jsonl).unwrap().len() > 0);
    assert!(std::fs::metadata(&chrome).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();

    // An uncreatable path (parent is a file) fails with the path named.
    let blocker = scratch("blocker-file");
    std::fs::write(&blocker, b"x").unwrap();
    let bad = Observe {
        profile: false,
        jsonl: Some(blocker.join("run.jsonl")),
        chrome: None,
        ..Observe::default()
    };
    let err = run_benchmark_observed(&bench, MachineMode::Seq, MachineConfig::baseline(), &bad)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("blocker-file"),
        "error must name the path: {msg}"
    );
    std::fs::remove_file(&blocker).ok();
}

/// Both sinks at once through the fan-out, with profiling on top —
/// the full observability stack in one run, still bit-identical stats.
#[test]
fn full_observability_stack_is_transparent() {
    let bench = benchmarks::fft();
    let jsonl = scratch("stack.jsonl");
    let chrome = scratch("stack.json");
    let observe = Observe {
        profile: true,
        jsonl: Some(jsonl.clone()),
        chrome: Some(chrome.clone()),
        ..Observe::default()
    };
    let plain = run_benchmark(&bench, MachineMode::Coupled, MachineConfig::baseline()).unwrap();
    let mut out = run_benchmark_observed(
        &bench,
        MachineMode::Coupled,
        MachineConfig::baseline(),
        &observe,
    )
    .unwrap();
    let jsonl_len = std::fs::metadata(&jsonl).unwrap().len();
    let chrome_len = std::fs::metadata(&chrome).unwrap().len();
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&chrome).ok();
    assert!(jsonl_len > 0 && chrome_len > 0);
    assert!(out.stats.stalls.consistent());
    out.stats.stalls = Default::default();
    assert_eq!(plain.stats, out.stats);
}

/// Sinks see bulk-skipped idle spans instead of disabling the skip: a
/// decoded run with idle spans (Matrix under `mem2`), profiled and
/// streamed to JSONL with host telemetry on, still skips, every thread's
/// JSONL stall `cycles` sum equals its profiled stalled total, and the
/// stats equal the plain run's.
#[test]
fn sinks_see_skipped_idle_spans() {
    let bench = benchmarks::matrix();
    let config = MachineConfig::baseline().with_memory(MemoryModel::mem2());
    let path = scratch("spans.jsonl");
    let observe = Observe {
        profile: true,
        jsonl: Some(path.clone()),
        host_telemetry: true,
        ..Observe::default()
    };
    let plain = run_benchmark(&bench, MachineMode::Coupled, config.clone()).unwrap();
    let mut out = run_benchmark_observed(&bench, MachineMode::Coupled, config, &observe).unwrap();
    let host = out.host_profile.as_ref().expect("telemetry requested");
    assert!(
        host.idle_spans_skipped > 0,
        "no span skipped with a sink attached"
    );

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let field = |line: &str, key: &str| -> u64 {
        let tag = format!("\"{key}\":");
        let rest = &line[line.find(&tag).unwrap() + tag.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
        rest[..end].parse().unwrap()
    };
    let stalls = &out.stats.stalls;
    let mut per_thread = vec![0u64; stalls.threads.len()];
    let mut spans = 0;
    for line in text.lines().filter(|l| l.contains("\"kind\":\"stall\"")) {
        let cycles = field(line, "cycles");
        spans += u64::from(cycles > 1);
        per_thread[field(line, "thread") as usize] += cycles;
    }
    assert!(spans > 0, "no multi-cycle stall event in the stream");
    for (t, th) in stalls.threads.iter().enumerate() {
        assert_eq!(per_thread[t], th.stalled(), "thread {t}");
    }
    assert!(stalls.consistent());
    out.stats.stalls = Default::default();
    assert_eq!(plain.stats, out.stats);
}
