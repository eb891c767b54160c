//! Every compile the paper's experiments and the example programs make,
//! pinned by digest: one line per compile with the SHA-256 of the
//! printed program plus its provenance table, then the per-segment
//! diagnostics. The optimizer and scheduler may get faster, never
//! different — any change to emitted code shows up here.
//!
//! Covered: every benchmark × mode on the baseline machine under the
//! default, LICM and unoptimized compiler options; every Ideal source on
//! the Figure 8 function-unit mixes; every `programs/*.pc` in both
//! schedule modes.
//!
//! On a mismatch the test prints the full rendered digest between
//! `---- begin` / `---- end` markers; after an intentional change to
//! emitted code, paste that text into `tests/golden/compile.txt`.

use coupling::benchmarks;
use coupling::sweep::cache::sha256_hex;
use coupling::MachineMode;
use pc_compiler::{compile_with_options, CompileOptions, ScheduleMode};
use pc_isa::MachineConfig;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Case {
    label: String,
    src: String,
    config: MachineConfig,
    mode: ScheduleMode,
    options: CompileOptions,
}

const OPTIONS: [(&str, CompileOptions); 3] = [
    (
        "default",
        CompileOptions {
            optimize: true,
            licm: false,
        },
    ),
    (
        "licm",
        CompileOptions {
            optimize: true,
            licm: true,
        },
    ),
    (
        "unopt",
        CompileOptions {
            optimize: false,
            licm: false,
        },
    ),
];

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let suite = benchmarks::all();
    for bench in &suite {
        for mode in MachineMode::all() {
            let Some(src) = bench.source(mode) else {
                continue;
            };
            for (name, options) in OPTIONS {
                cases.push(Case {
                    label: format!("{} {} {name} baseline", bench.name, mode.label()),
                    src: src.to_string(),
                    config: MachineConfig::baseline(),
                    mode: mode.schedule_mode(),
                    options,
                });
            }
        }
    }
    for bench in &suite {
        let Some(src) = bench.source(MachineMode::Ideal) else {
            continue;
        };
        for iu in 1..=4 {
            for fpu in 1..=4 {
                cases.push(Case {
                    label: format!("{} IDEAL default mix{iu}x{fpu}", bench.name),
                    src: src.to_string(),
                    config: MachineConfig::with_mix(iu, fpu),
                    mode: MachineMode::Ideal.schedule_mode(),
                    options: CompileOptions::default(),
                });
            }
        }
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut programs: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs/ directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pc"))
        .collect();
    programs.sort();
    for path in programs {
        let src = std::fs::read_to_string(&path).expect("readable program");
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        for (name, mode) in [
            ("single", ScheduleMode::Single),
            ("unrestricted", ScheduleMode::Unrestricted),
        ] {
            cases.push(Case {
                label: format!("{file} {name} default baseline"),
                src: src.clone(),
                config: MachineConfig::baseline(),
                mode,
                options: CompileOptions::default(),
            });
        }
    }
    cases
}

/// One digest line: the case label, the program hash and every
/// segment's `name:rows/ops/regs-per-cluster/variant`.
fn digest(case: &Case) -> String {
    match compile_with_options(&case.src, &case.config, case.mode, case.options) {
        Ok(out) => {
            let text = pc_asm::print_program_with_debug(&out.program, &out.debug);
            let info: Vec<String> = out
                .info
                .iter()
                .map(|s| {
                    let regs: Vec<String> = s.regs_per_cluster.iter().map(u32::to_string).collect();
                    format!(
                        "{}:{}/{}/{}/v{}",
                        s.name,
                        s.rows,
                        s.ops,
                        regs.join(","),
                        s.variant
                    )
                })
                .collect();
            format!(
                "{} {} {}",
                case.label,
                sha256_hex(text.as_bytes()),
                info.join(" ")
            )
        }
        Err(e) => format!("{} error: {e}", case.label),
    }
}

#[test]
fn every_compile_matches_the_golden_digest() {
    let cases = cases();
    // Two workers: the digest is per case, so the order of completion
    // does not matter; lines are put back in case order.
    let next = AtomicUsize::new(0);
    let mut lines: Vec<(usize, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(case) = cases.get(i) else { break };
                        done.push((i, digest(case)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("digest worker"))
            .collect()
    });
    lines.sort_by_key(|(i, _)| *i);
    let rendered: String = lines.into_iter().map(|(_, l)| l + "\n").collect();

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compile.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        eprintln!("---- begin tests/golden/compile.txt ----");
        eprint!("{rendered}");
        eprintln!("---- end tests/golden/compile.txt ----");
        panic!(
            "compile digest differs from tests/golden/compile.txt at line {}",
            first + 1
        );
    }
}
