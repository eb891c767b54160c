//! Mutation tests for the two untrusted text inputs: assembly and source.
//! Every mutant — the text cut short at a char boundary, or one char
//! replaced by a hostile token — must come back as `Ok` or a typed error,
//! never a panic. Assembly that parses must then build a machine and run
//! to a halt or a typed [`pc_sim::SimError`].
//!
//! Debug builds (tier-1 `cargo test`) mutate every `STRIDE`-th char and
//! stay within a few seconds; release builds (`cargo test --release
//! --test mutation`, a CI step) mutate every char of the source and a
//! denser sample of the assembly.

use coupling::benchmarks;
use coupling::MachineMode;
use pc_isa::MachineConfig;
use pc_sim::Machine;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutate every `STRIDE`-th char boundary.
const STRIDE: usize = if cfg!(debug_assertions) { 29 } else { 1 };

/// The assembly run is dearer per mutant (a parse, a validation and up to
/// 20 000 simulated cycles), so it samples more sparsely.
const ASM_STRIDE: usize = if cfg!(debug_assertions) { 97 } else { 3 };

/// Runs `f` on every mutant of `text` — cut at each sampled char
/// boundary, then each sampled char replaced by each of `subs` — and
/// fails with the first one that panics. Mutants are built one at a
/// time: a dense sample of the assembly would take hundreds of MB at
/// once. Returns the number of mutants.
fn no_panics(what: &str, text: &str, stride: usize, subs: &[&str], f: impl Fn(&str)) -> usize {
    let chars: Vec<(usize, char)> = text.char_indices().step_by(stride).collect();
    let cuts = chars
        .iter()
        .map(|&(i, _)| (format!("cut at {i}"), text[..i].to_string()));
    let swaps = subs.iter().flat_map(|sub| {
        chars.iter().map(move |&(i, c)| {
            let mutant = format!("{}{sub}{}", &text[..i], &text[i + c.len_utf8()..]);
            (format!("{sub:?} at {i}"), mutant)
        })
    });
    let mut n = 0;
    for (label, mutant) in cuts.chain(swaps) {
        if catch_unwind(AssertUnwindSafe(|| f(&mutant))).is_err() {
            panic!("{what}, {label}: panicked on\n{mutant}");
        }
        n += 1;
    }
    n
}

#[test]
fn assembly_mutants_parse_and_run_or_fail_typed() {
    let bench = benchmarks::matrix();
    let mode = MachineMode::Coupled;
    let config = MachineConfig::baseline();
    let out =
        pc_compiler::compile(bench.source(mode).unwrap(), &config, mode.schedule_mode()).unwrap();
    let text = pc_asm::print_program_with_debug(&out.program, &out.debug);
    let subs = ["9", "-", " ", ":", "@", "#", "99999999999"];
    let cases = no_panics("Matrix/Coupled assembly", &text, ASM_STRIDE, &subs, |asm| {
        // A parse error is a typed `AsmError`; this entry point runs
        // `parse_program` first, then reads the `;@` tables.
        let Ok((program, _)) = pc_asm::parse_program_with_debug(asm) else {
            return;
        };
        // A program that fails validation is a typed `SimError`.
        if let Ok(mut m) = Machine::new(config.clone(), program) {
            let _ = m.run(20_000);
        }
    });
    assert!(cases > 300, "{cases} cases");
}

#[test]
fn source_mutants_compile_or_fail_typed() {
    let subs = ["(", ")", "9", "x", "9223372036854775808"];
    let config = MachineConfig::baseline();
    let mut total = 0;
    for bench in benchmarks::all() {
        for mode in [MachineMode::Seq, MachineMode::Coupled] {
            let what = format!("{} / {mode}", bench.name);
            let src = bench.source(mode).unwrap();
            total += no_panics(&what, src, STRIDE, &subs, |src| {
                // An error is a typed `CompileError`.
                let _ = pc_compiler::compile(src, &config, mode.schedule_mode());
            });
        }
    }
    assert!(total > 300, "{total} cases");
}
