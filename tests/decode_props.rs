//! Decode-correctness properties for the decode-once backend.
//!
//! For random valid programs under randomly drawn machine
//! configurations, decoding and executing through the decoded engine
//! must match the scan-every-cycle reference engine bit-for-bit —
//! cycle counts, stall tables, and memory contents alike. A second,
//! golden test pins the `DecodedProgram` layout for the Matrix
//! benchmark so accidental decode-table growth shows up in review.

use pc_compiler::{compile, ScheduleMode};
use pc_isa::{ArbitrationPolicy, IntOp, InterconnectScheme, MachineConfig, MemoryModel, Value};
use pc_sim::{DecodedProgram, EngineKind, Machine, RunStats, StallProfiler};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A random integer expression over the input array `ivs`.
#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Input(usize),
    Bin(IntOp, Box<Expr>, Box<Expr>),
}

const OPS: [IntOp; 6] = [
    IntOp::Add,
    IntOp::Sub,
    IntOp::Mul,
    IntOp::And,
    IntOp::Or,
    IntOp::Xor,
];

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-64i64..64).prop_map(Expr::Const),
        (0usize..4).prop_map(Expr::Input),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (prop::sample::select(&OPS[..]), inner.clone(), inner)
            .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b)))
    })
    .boxed()
}

fn render(e: &Expr) -> String {
    match e {
        Expr::Const(c) => c.to_string(),
        Expr::Input(i) => format!("(aref ivs {i})"),
        Expr::Bin(op, a, b) => {
            let sym = match op {
                IntOp::Add => "+",
                IntOp::Sub => "-",
                IntOp::Mul => "*",
                IntOp::And => "and",
                IntOp::Or => "or",
                IntOp::Xor => "xor",
                _ => unreachable!(),
            };
            format!("({sym} {} {})", render(a), render(b))
        }
    }
}

/// A random machine configuration: every knob that reaches the decoder
/// or the issue engines (port schemes, memory latency model, lockstep
/// issue, arbitration, seed).
fn config_strategy() -> BoxedStrategy<MachineConfig> {
    (
        prop::sample::select(vec![
            InterconnectScheme::Full,
            InterconnectScheme::TriPort,
            InterconnectScheme::DualPort,
            InterconnectScheme::SinglePort,
            InterconnectScheme::SharedBus,
        ]),
        prop::sample::select(vec![
            MemoryModel::min(),
            MemoryModel::mem1(),
            MemoryModel::mem2(),
        ]),
        any::<bool>(),
        any::<bool>(),
        0u64..1024,
    )
        .prop_map(|(scheme, mem, lockstep, priority, seed)| {
            let mut c = MachineConfig::baseline()
                .with_interconnect(scheme)
                .with_memory(mem)
                .with_seed(seed)
                .with_lockstep_issue(lockstep);
            if priority {
                c = c.with_arbitration(ArbitrationPolicy::FixedPriority);
            }
            c
        })
        .boxed()
}

/// Runs one decoded image on one engine with a [`StallProfiler`]
/// attached and returns the stats (its table as `stalls`) plus the
/// output array.
fn run_on(code: &Arc<DecodedProgram>, engine: EngineKind, ivs: &[i64]) -> (RunStats, Vec<Value>) {
    let mut m = Machine::from_decoded(Arc::clone(code)).unwrap();
    m.set_engine(engine);
    let profiler = Rc::new(RefCell::new(StallProfiler::new(m.program())));
    m.attach_probe(Box::new(Rc::clone(&profiler)));
    m.write_global(
        "ivs",
        &ivs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>(),
    )
    .unwrap();
    let mut stats = m.run(1_000_000).expect("runs");
    stats.stalls = profiler.borrow().table();
    (stats, m.read_global("out").unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decode → execute equals reference-engine execution: for random
    /// valid programs and configurations, the decoded engine reproduces
    /// the scan engine's stats, stall table, and memory contents exactly.
    /// The scan engine issues from the program itself, so decode cannot
    /// have influenced the reference.
    #[test]
    fn decoded_execution_matches_reference(
        e0 in expr(3),
        e1 in expr(3),
        ivs in prop::array::uniform4(-100i64..100),
        config in config_strategy(),
        mode in prop::sample::select(vec![ScheduleMode::Single, ScheduleMode::Unrestricted]),
    ) {
        let src = format!(
            "(global ivs (array int 4))
             (global out (array int 2))
             (defun main ()
               (for (i 0 3)
                 (aset out 0 (+ (aref out 0) {})))
               (aset out 1 {}))",
            render(&e0),
            render(&e1),
        );
        let out = compile(&src, &config, mode).expect("compiles");
        let code = Arc::new(DecodedProgram::decode(config, Arc::new(out.program)).unwrap());
        let (ref_stats, ref_mem) = run_on(&code, EngineKind::Scan, &ivs);
        let (stats, mem) = run_on(&code, EngineKind::Decoded, &ivs);
        prop_assert_eq!(&stats.stalls, &ref_stats.stalls, "stall tables");
        prop_assert_eq!(&stats, &ref_stats, "stats");
        prop_assert_eq!(&mem, &ref_mem, "memory");
    }
}

/// Pins the decoded layout for the Matrix benchmark: table sizes must
/// only change deliberately (they track the scheduled program), and the
/// per-op record must stay within a cache-friendly footprint.
#[test]
fn matrix_decoded_layout_is_stable() {
    let bench = coupling::benchmarks::matrix();
    let mode = coupling::MachineMode::Coupled;
    let config = MachineConfig::baseline();
    let out = compile(bench.source(mode).unwrap(), &config, mode.schedule_mode()).unwrap();
    let code = DecodedProgram::decode(config, Arc::new(out.program)).unwrap();
    assert_eq!(code.n_segments(), 5, "segments");
    assert_eq!(code.n_rows(), 98, "rows");
    assert_eq!(code.n_ops(), 280, "op records");
    assert_eq!(code.unit_table_len(), 1372, "unit-slot table");
    // 376 bytes on 64-bit hosts since the oracle-only operand copies
    // left the record (it was 512 with them).
    assert!(
        DecodedProgram::op_record_bytes() <= 376,
        "DecodedOp grew to {} bytes — keep the hot record compact",
        DecodedProgram::op_record_bytes()
    );
}
