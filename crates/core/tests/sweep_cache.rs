//! End-to-end tests of the sweep result cache: cross-process key
//! stability, invalidation on program/config change, corruption
//! tolerance, and resume-after-kill semantics.

use coupling::sweep::cache::KeyPrefix;
use coupling::sweep::{
    cache_key, run_sweep, CachedResult, MemKind, Mix, ResultCache, SweepOptions, SweepSpec,
};
use coupling::{MachineMode, Observe};
use pc_isa::{InterconnectScheme, MachineConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pc-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A two-benchmark, two-mode spec — 4 cells, fast enough to run many
/// times per test.
fn small_spec() -> SweepSpec {
    SweepSpec {
        benches: vec!["matrix".into(), "fft".into()],
        modes: vec![MachineMode::Seq, MachineMode::Coupled],
        ..SweepSpec::table2()
    }
}

/// A manifest in the older format, which also listed `total` and the
/// `done` cells; resume must accept it and trust only the JSONL.
fn pre_change_manifest(spec: &SweepSpec, done: &[String]) -> String {
    let done: Vec<String> = done.iter().map(|id| format!("\"{id}\"")).collect();
    format!(
        "{{\"schema\":1,\"spec\":\"{}\",\"shard\":null,\"total\":4,\"done\":[{}]}}\n",
        spec.fingerprint(),
        done.join(","),
    )
}

/// Cell ids of the rows in a JSONL file, skipping lines that do not
/// parse as rows.
fn row_ids(path: &Path) -> Vec<String> {
    String::from_utf8_lossy(&std::fs::read(path).unwrap())
        .lines()
        .filter_map(|l| coupling::sweep::SweepRow::from_jsonl(l).ok())
        .map(|r| r.cell.id())
        .collect()
}

/// The stripped, deterministic portion of a sweep's rows.
fn canonical_rows(summary: &coupling::sweep::SweepSummary) -> Vec<String> {
    summary
        .rows
        .iter()
        .map(|r| {
            format!(
                "{} cycles={} ops={} regs={} stats={}",
                r.cell.id(),
                r.stats.cycles,
                r.stats.ops_issued,
                r.peak_registers,
                coupling::sweep::codec::stats_to_json(&r.stats)
            )
        })
        .collect()
}

#[test]
fn cache_key_is_stable_across_processes() {
    // A golden constant: any process, any run, any machine must derive
    // the same key for the same inputs — this is what makes the cache
    // shareable between CI shards. If this assertion fires because of
    // an *intentional* change to the key inputs, bump
    // CACHE_SCHEMA_VERSION and update the constant.
    let key = cache_key(
        "matrix",
        MachineMode::Coupled,
        "golden-source-text",
        &MachineConfig::baseline(),
    );
    assert_eq!(
        key,
        "f5c1d8a6787ee3c3a4148ca28f825707a06c340745d71e388be1251cc75710b5"
    );
}

/// A cache entry as the sweep wrote it for
/// `fft/coupled/triport/mem1/base/s0`, committed so that key derivation
/// and the entry format cannot drift without every existing cache going
/// cold.
const FIXTURE_ENTRY: &[u8] = include_bytes!("fixtures/fft-coupled-triport-mem1.json");

#[test]
fn a_committed_entry_hits_under_its_recomputed_key() {
    let scratch = Scratch::new("fixture");
    let spec = SweepSpec {
        benches: vec!["fft".into()],
        modes: vec![MachineMode::Coupled],
        interconnects: vec![InterconnectScheme::TriPort],
        memories: vec![MemKind::Mem1],
        ..SweepSpec::table2()
    };
    let cells = spec.cells().unwrap();
    assert_eq!(cells[0].id(), "fft/coupled/triport/mem1/base/s0");
    let fft = coupling::benchmarks::fft();
    let source = fft.source(MachineMode::Coupled).unwrap();
    let key = cache_key(&cells[0].bench, cells[0].mode, source, &cells[0].config());
    let cache = ResultCache::open(scratch.path("cache")).unwrap();
    cache.write_raw(&key, FIXTURE_ENTRY).unwrap();
    let hit = cache
        .lookup(&key)
        .expect("the committed entry must hit under its recomputed key");
    let fresh = run_sweep(&spec, &SweepOptions::default()).unwrap();
    assert_eq!(hit.stats, fresh.rows[0].stats);
    assert_eq!(hit.peak_registers, fresh.rows[0].peak_registers);
    // A sweep over that cache serves the cell from the entry.
    let warm = run_sweep(
        &spec,
        &SweepOptions {
            cache_dir: Some(scratch.path("cache")),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!((warm.hits, warm.misses), (1, 0));
    assert_eq!(warm.rows[0].stats, fresh.rows[0].stats);
}

#[test]
fn prefix_finished_keys_equal_cache_key_on_every_cell() {
    let spec = SweepSpec {
        mixes: vec![Mix::Baseline, Mix::Units { iu: 2, fpu: 3 }],
        ..SweepSpec::full()
    };
    let suite = coupling::benchmarks::all();
    let cells = spec.cells().unwrap();
    assert_eq!(cells.len(), 600);
    for cell in &cells {
        let bench = suite
            .iter()
            .find(|b| b.name.to_lowercase() == cell.bench)
            .unwrap();
        let source = bench.source(cell.mode).unwrap();
        let config = cell.config();
        assert_eq!(
            KeyPrefix::new(&cell.bench, cell.mode, source).key(&config),
            cache_key(&cell.bench, cell.mode, source, &config),
            "{cell}"
        );
    }
}

/// A profiled run's stats: probes, thread spans and every stall map
/// non-empty (the Table 3 queue variant marks each dequeue with a probe).
fn profiled_stats() -> pc_sim::RunStats {
    let bench = coupling::benchmarks::model_queue_coupled();
    let out = coupling::run_benchmark_observed(
        &bench,
        MachineMode::Coupled,
        MachineConfig::baseline(),
        &Observe::profiled(),
    )
    .unwrap();
    let stats = out.stats;
    assert!(!stats.probes.is_empty() && !stats.thread_spans.is_empty());
    let st = &stats.stalls;
    assert!(!st.threads.is_empty() && !st.by_class.is_empty());
    assert!(!st.by_slot.is_empty() && !st.issued_by_slot.is_empty());
    stats
}

#[test]
fn a_fully_populated_entry_round_trips() {
    let scratch = Scratch::new("populated");
    let cache = ResultCache::open(scratch.path("cache")).unwrap();
    let result = CachedResult {
        stats: profiled_stats(),
        peak_registers: 42,
    };
    let key = cache_key(
        "model",
        MachineMode::Coupled,
        "src",
        &MachineConfig::baseline(),
    );
    cache
        .store(&key, "model/coupled/\"quoted\"\n", &result)
        .unwrap();
    assert_eq!(cache.lookup(&key), Some(result));
}

#[test]
fn cut_and_corrupted_entries_miss_or_read_what_they_say() {
    let scratch = Scratch::new("entry-mutate");
    let cache = ResultCache::open(scratch.path("cache")).unwrap();
    let replay = ResultCache::open(scratch.path("replay")).unwrap();
    let key = "a00550c4b4e0ba1791e7aa24c70732e461d8daf7bbeec59a1c0d92108bf2b5a7";
    let cell = "fft/coupled/triport/mem1/base/s0";
    cache.write_raw(key, FIXTURE_ENTRY).unwrap();
    let original = cache.lookup(key).expect("the intact entry hits");
    let lookup = |bytes: &[u8], what: &str| {
        cache.write_raw(key, bytes).unwrap();
        catch_unwind(AssertUnwindSafe(|| cache.lookup(key)))
            .unwrap_or_else(|_| panic!("lookup panicked on {what}"))
    };
    for n in 0..FIXTURE_ENTRY.len() {
        let got = lookup(&FIXTURE_ENTRY[..n], &format!("entry cut at {n}"));
        assert_eq!(got, None, "entry cut at {n}");
    }
    // A substitution may leave a canonical entry behind (a digit for a
    // digit, a character of the cell id): a hit is then either the
    // original or exactly what the edited bytes say, as the writer
    // would write it.
    let mut hits = 0;
    for i in 0..FIXTURE_ENTRY.len() {
        for sub in [b'\xff', b'"', b'}', b'9', b','] {
            let mut bad = FIXTURE_ENTRY.to_vec();
            bad[i] = sub;
            let what = format!("entry byte {i} := {sub:?}");
            let Some(got) = lookup(&bad, &what) else {
                continue;
            };
            hits += 1;
            if got != original {
                replay.store(key, cell, &got).unwrap();
                let written = std::fs::read(replay.root().join(format!("{key}.json"))).unwrap();
                assert_eq!(
                    written, bad,
                    "{what}: a hit that is not what the entry says"
                );
            }
        }
    }
    assert!(hits > 0, "digit substitutions leave canonical entries");
}

#[test]
fn warm_rerun_is_all_hits_and_bit_identical() {
    let scratch = Scratch::new("warm");
    let spec = small_spec();
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    let cold = run_sweep(&spec, &opts).unwrap();
    assert_eq!(cold.misses, 4);
    assert_eq!(cold.hits, 0);
    let warm = run_sweep(&spec, &opts).unwrap();
    assert_eq!(warm.hits, 4, "second run must be 100% cache hits");
    assert_eq!(warm.misses, 0);
    assert_eq!(
        canonical_rows(&cold),
        canonical_rows(&warm),
        "cached rows must be bit-identical to fresh rows"
    );
}

#[test]
fn changing_config_or_seed_invalidates() {
    let scratch = Scratch::new("invalidate");
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    let spec = small_spec();
    run_sweep(&spec, &opts).unwrap();
    // Different seed → different config fingerprint → every cell misses.
    let reseeded = SweepSpec { seed: 7, ..spec };
    let run = run_sweep(&reseeded, &opts).unwrap();
    assert_eq!(run.hits, 0, "a config change must not hit stale entries");
    assert_eq!(run.misses, 4);
    // And the original spec still hits — entries coexist.
    let back = run_sweep(&small_spec(), &opts).unwrap();
    assert_eq!(back.hits, 4);
}

#[test]
fn corrupted_and_truncated_entries_recompute_without_panic() {
    let scratch = Scratch::new("corrupt");
    let cache_dir = scratch.path("cache");
    let opts = SweepOptions {
        cache_dir: Some(cache_dir.clone()),
        ..SweepOptions::default()
    };
    let spec = small_spec();
    let cold = run_sweep(&spec, &opts).unwrap();
    // Vandalize every entry a different way: garbage, truncation,
    // valid-JSON-wrong-schema, empty.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 4);
    std::fs::write(&entries[0], b"not json at all").unwrap();
    let text = std::fs::read_to_string(&entries[1]).unwrap();
    std::fs::write(&entries[1], &text.as_bytes()[..text.len() / 2]).unwrap();
    std::fs::write(&entries[2], b"{\"schema\":9999,\"stats\":{}}\n").unwrap();
    std::fs::write(&entries[3], b"").unwrap();
    let rerun = run_sweep(&spec, &opts).unwrap();
    assert_eq!(rerun.hits, 0, "damaged entries must read as misses");
    assert_eq!(rerun.misses, 4);
    assert_eq!(canonical_rows(&cold), canonical_rows(&rerun));
    // The recompute repaired the cache.
    let healed = run_sweep(&spec, &opts).unwrap();
    assert_eq!(healed.hits, 4);
}

#[test]
fn resume_after_kill_completes_exactly_the_missing_cells() {
    let scratch = Scratch::new("resume");
    let spec = small_spec();
    // Reference: one uninterrupted run.
    let full_out = scratch.path("full.jsonl");
    let full = run_sweep(
        &spec,
        &SweepOptions {
            out: Some(full_out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(full.rows.len(), 4);
    let full_text = std::fs::read_to_string(&full_out).unwrap();
    let lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(lines.len(), 4);

    // Simulate a kill in the middle of the third row, under an
    // older-format manifest that acknowledged only the first: the JSONL
    // has 2 complete lines, a stray non-UTF-8 line, and half of a third.
    let out = scratch.path("rows.jsonl");
    let torn_third = &lines[2][..lines[2].len() / 2];
    let mut torn = format!("{}\n", lines[0]).into_bytes();
    torn.extend_from_slice(b"\xff\n");
    torn.extend_from_slice(format!("{}\n{}", lines[1], torn_third).as_bytes());
    std::fs::write(&out, torn).unwrap();
    let manifest_path = scratch.path("rows.jsonl.manifest.json");
    let manifest = pre_change_manifest(&spec, &[spec.cells().unwrap()[0].id()]);
    std::fs::write(&manifest_path, &manifest).unwrap();

    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    // Cells 0 and 1 are in the JSONL; 2 (torn) and 3 run.
    assert_eq!(resumed.prior_done, 2);
    assert_eq!(resumed.rows.len(), 2);
    let resumed_ids: Vec<String> = resumed.rows.iter().map(|r| r.cell.id()).collect();
    let want: Vec<String> = spec.cells().unwrap()[2..].iter().map(|c| c.id()).collect();
    assert_eq!(
        resumed_ids, want,
        "resume must run exactly the missing cells"
    );

    // The manifest is written once and never rewritten.
    assert_eq!(std::fs::read_to_string(&manifest_path).unwrap(), manifest);

    // The final JSONL holds each of the 4 cells exactly once, with rows
    // identical to the uninterrupted run after dropping the torn and
    // stray lines and timing fields.
    let text = String::from_utf8_lossy(&std::fs::read(&out).unwrap()).into_owned();
    let strip = |s: &str| -> Option<(String, String)> {
        let row = coupling::sweep::SweepRow::from_jsonl(s).ok()?;
        Some((
            row.cell.id(),
            coupling::sweep::codec::stats_to_json(&row.stats),
        ))
    };
    let mut got: Vec<_> = text.lines().filter_map(strip).collect();
    let mut expect: Vec<_> = full_text.lines().filter_map(strip).collect();
    got.sort();
    expect.sort();
    assert_eq!(got, expect);

    // A second resume is a no-op.
    let again = run_sweep(
        &spec,
        &SweepOptions {
            out: Some(out),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(again.prior_done, 4);
    assert!(again.rows.is_empty());
}

#[test]
fn a_manifest_cannot_vouch_for_a_row_the_jsonl_lacks() {
    let scratch = Scratch::new("vouch");
    let spec = small_spec();
    let cache_dir = Some(scratch.path("cache"));
    let full_out = scratch.path("full.jsonl");
    run_sweep(
        &spec,
        &SweepOptions {
            cache_dir: cache_dir.clone(),
            out: Some(full_out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let full_text = std::fs::read_to_string(&full_out).unwrap();
    let lines: Vec<&str> = full_text.lines().collect();

    // Two rows in the JSONL, but an old-format manifest claiming all 4.
    let out = scratch.path("rows.jsonl");
    std::fs::write(&out, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
    let ids: Vec<String> = spec.cells().unwrap().iter().map(|c| c.id()).collect();
    std::fs::write(
        scratch.path("rows.jsonl.manifest.json"),
        pre_change_manifest(&spec, &ids),
    )
    .unwrap();
    let resumed = run_sweep(
        &spec,
        &SweepOptions {
            cache_dir,
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.prior_done, 2);
    let ran: Vec<String> = resumed.rows.iter().map(|r| r.cell.id()).collect();
    assert_eq!(ran, ids[2..], "the missing rows must be recomputed");
    assert_eq!(row_ids(&out), ids, "and appended, each once");
}

#[test]
fn resume_under_a_different_spec_is_refused() {
    let scratch = Scratch::new("mismatch");
    let out = scratch.path("rows.jsonl");
    let spec = small_spec();
    run_sweep(
        &spec,
        &SweepOptions {
            out: Some(out.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let other = SweepSpec {
        seed: 3,
        ..spec.clone()
    };
    let opts = SweepOptions {
        out: Some(out),
        ..SweepOptions::default()
    };
    let err = run_sweep(&other, &opts).unwrap_err();
    assert!(
        err.to_string().contains("different sweep spec"),
        "got: {err}"
    );
    // A spec whose 12-byte prefix splits a multi-byte character.
    std::fs::write(
        scratch.path("rows.jsonl.manifest.json"),
        format!(
            "{{\"schema\":1,\"spec\":\"a{}\",\"shard\":null}}",
            "é".repeat(20)
        ),
    )
    .unwrap();
    let err = run_sweep(&spec, &opts).unwrap_err();
    assert!(
        err.to_string().contains("different sweep spec"),
        "got: {err}"
    );
}

#[test]
fn corrupt_manifests_and_torn_rows_never_panic() {
    let scratch = Scratch::new("mutate");
    let spec = small_spec();
    let out = scratch.path("rows.jsonl");
    let manifest_path = scratch.path("rows.jsonl.manifest.json");
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        out: Some(out.clone()),
        ..SweepOptions::default()
    };
    // A finished run: every cell is in the JSONL and the cache, so a
    // run that gets past the manifest guard simulates nothing.
    run_sweep(&spec, &opts).unwrap();
    let rows = std::fs::read(&out).unwrap();
    let manifest = std::fs::read(&manifest_path).unwrap();
    let attempt = |rows: &[u8], manifest: &[u8], what: &str| {
        std::fs::write(&out, rows).unwrap();
        std::fs::write(&manifest_path, manifest).unwrap();
        catch_unwind(AssertUnwindSafe(|| run_sweep(&spec, &opts)))
            .unwrap_or_else(|_| panic!("run_sweep panicked on {what}"))
    };

    for n in 0..manifest.len() {
        let _ = attempt(&rows, &manifest[..n], &format!("manifest cut at {n}"));
    }
    for i in 0..manifest.len() {
        for sub in [&b"\xff"[..], b"\"", b"}", "é".as_bytes()] {
            let mut bad = manifest[..i].to_vec();
            bad.extend_from_slice(sub);
            bad.extend_from_slice(&manifest[i + 1..]);
            let _ = attempt(&rows, &bad, &format!("manifest byte {i} := {sub:?}"));
        }
    }

    // Torn rows under an intact manifest resume: every cell ends up in
    // the file.
    let mut cuts = vec![0];
    for (i, _) in rows.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        cuts.extend([i, i + 1, i + 2]);
    }
    cuts.retain(|&c| c <= rows.len());
    for cut in cuts {
        let summary = attempt(&rows[..cut], &manifest, &format!("rows cut at {cut}"))
            .unwrap_or_else(|e| panic!("rows cut at {cut}: {e}"));
        assert_eq!(
            summary.prior_done + summary.rows.len(),
            4,
            "rows cut at {cut}"
        );
    }
}

#[test]
fn cache_dir_is_shared_between_distinct_sweeps() {
    // A sweep over a superset grid must hit entries populated by a
    // subset sweep — the cache is keyed per cell, not per spec.
    let scratch = Scratch::new("shared");
    let opts = SweepOptions {
        cache_dir: Some(scratch.path("cache")),
        ..SweepOptions::default()
    };
    let subset = SweepSpec {
        benches: vec!["matrix".into()],
        modes: vec![MachineMode::Seq],
        ..SweepSpec::table2()
    };
    run_sweep(&subset, &opts).unwrap();
    let superset = small_spec();
    let run = run_sweep(&superset, &opts).unwrap();
    assert_eq!(run.hits, 1, "the matrix/seq cell must be served cached");
    assert_eq!(run.misses, 3);
    // Both sweeps share the directory without clobbering each other.
    let cache = ResultCache::open(scratch.path("cache")).unwrap();
    assert_eq!(cache.len(), 4);
}
