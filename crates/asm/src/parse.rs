//! Text → program.

use pc_isa::{
    BranchOp, ClusterId, CodeSegment, FloatOp, FuId, InstWord, IntOp, LoadFlavor, MemOp, OpKind,
    Operand, Operation, Program, RegId, SegmentId, StoreFlavor,
};
use std::fmt;

/// Assembly parse error with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line.
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

/// Parses the text format produced by [`crate::print_program`].
///
/// # Errors
/// [`AsmError`] with the offending line.
pub fn parse_program(text: &str) -> Result<Program, AsmError> {
    let mut p = Program::new();
    let mut cur_seg: Option<CodeSegment> = None;
    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".memory ") {
            p.memory_size = rest.trim().parse().map_err(|_| AsmError {
                line: ln,
                msg: "bad .memory".into(),
            })?;
        } else if let Some(rest) = line.strip_prefix(".entry ") {
            let idx: u32 = rest.trim().parse().map_err(|_| AsmError {
                line: ln,
                msg: "bad .entry".into(),
            })?;
            p.entry = SegmentId(idx);
        } else if let Some(rest) = line.strip_prefix(".symbol ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 {
                return err(ln, ".symbol name addr len");
            }
            let addr: u64 = parts[1].parse().map_err(|_| AsmError {
                line: ln,
                msg: "bad symbol addr".into(),
            })?;
            let len: u64 = parts[2].parse().map_err(|_| AsmError {
                line: ln,
                msg: "bad symbol len".into(),
            })?;
            p.symbols.insert(
                parts[0].to_string(),
                pc_isa::Symbol {
                    name: parts[0].to_string(),
                    addr,
                    len,
                },
            );
        } else if let Some(rest) = line.strip_prefix(".segment ") {
            if let Some(seg) = cur_seg.take() {
                p.add_segment(seg);
            }
            cur_seg = Some(CodeSegment::new(rest.trim()));
        } else if let Some(rest) = line.strip_prefix(".regs") {
            let seg = cur_seg.as_mut().ok_or(AsmError {
                line: ln,
                msg: ".regs outside a segment".into(),
            })?;
            seg.regs_per_cluster = rest
                .split_whitespace()
                .map(|t| t.parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| AsmError {
                    line: ln,
                    msg: "bad .regs".into(),
                })?;
        } else if line == ".row" || line.starts_with(".row") {
            let seg = cur_seg.as_mut().ok_or(AsmError {
                line: ln,
                msg: ".row outside a segment".into(),
            })?;
            seg.rows.push(InstWord::new());
        } else if let Some((unit, optext)) = line.split_once(':') {
            let seg = cur_seg.as_mut().ok_or(AsmError {
                line: ln,
                msg: "operation outside a segment".into(),
            })?;
            let fu: u16 = unit
                .trim()
                .strip_prefix('u')
                .and_then(|s| s.parse().ok())
                .ok_or(AsmError {
                    line: ln,
                    msg: format!("bad unit '{unit}'"),
                })?;
            let op = parse_operation(optext.trim(), ln)?;
            let row = seg.rows.last_mut().ok_or(AsmError {
                line: ln,
                msg: "operation before any .row".into(),
            })?;
            if row.op_on(FuId(fu)).is_some() {
                return err(ln, format!("row already has an operation on {}", FuId(fu)));
            }
            row.push(FuId(fu), op);
        } else {
            return err(ln, format!("unrecognized line '{line}'"));
        }
    }
    if let Some(seg) = cur_seg.take() {
        p.add_segment(seg);
    }
    Ok(p)
}

/// Parses the text format produced by [`crate::print_program_with_debug`],
/// recovering both the program and its source-provenance side table from
/// the `;@` annotations. Text without any annotations yields an empty
/// [`pc_isa::DebugMap`] (the explicit "no provenance" state) — plain and
/// annotated assembly both parse through this entry point.
///
/// # Errors
/// [`AsmError`] with the offending line, including malformed `;@`
/// directives (plain `;` comments stay free-form and are ignored).
pub fn parse_program_with_debug(text: &str) -> Result<(Program, pc_isa::DebugMap), AsmError> {
    let program = parse_program(text)?;
    let mut debug = pc_isa::DebugMap::new();
    let mut seg_debug: Option<pc_isa::SegmentDebug> = None;
    let mut row: Option<u32> = None;
    let mut slot: u16 = 0;
    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let trimmed = raw.trim();
        if let Some(rest) = trimmed.strip_prefix(";@") {
            parse_debug_directive(rest.trim(), &mut debug, ln)?;
            continue;
        }
        let code = raw.split(';').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if code.starts_with(".segment ") {
            if let Some(sd) = seg_debug.take() {
                debug.segments.push(sd);
            }
            seg_debug = Some(pc_isa::SegmentDebug::default());
            row = None;
        } else if code.starts_with(".row") {
            row = Some(row.map_or(0, |r| r + 1));
            slot = 0;
        } else if code.contains(':') && !code.starts_with('.') {
            // An operation line; a trailing `;@ id,id` names its spans.
            if let Some(pos) = raw.find(";@") {
                let ids: Vec<u32> = raw[pos + 2..]
                    .trim()
                    .split(',')
                    .map(|t| t.trim().parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| AsmError {
                        line: ln,
                        msg: "bad ;@ span ids on operation".into(),
                    })?;
                let (sd, r) = match (seg_debug.as_mut(), row) {
                    (Some(sd), Some(r)) => (sd, r),
                    _ => return err(ln, ";@ span ids outside a row"),
                };
                sd.record(r, slot, ids);
            }
            slot += 1;
        }
    }
    if let Some(sd) = seg_debug.take() {
        debug.segments.push(sd);
    }
    // Programs printed without debug info have no tables and no segment
    // markers worth keeping — collapse to the canonical empty map.
    if debug.is_empty() && debug.spans.is_empty() && debug.loops.is_empty() {
        debug = pc_isa::DebugMap::new();
    }
    if !debug.consistent() {
        return err(0, ";@ tables are inconsistent (dangling span or loop id)");
    }
    Ok((program, debug))
}

fn parse_debug_directive(
    rest: &str,
    debug: &mut pc_isa::DebugMap,
    ln: usize,
) -> Result<(), AsmError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    match parts.first().copied() {
        Some("loop") if parts.len() == 4 => {
            let id: usize = parts[1].parse().map_err(|_| AsmError {
                line: ln,
                msg: "bad ;@ loop id".into(),
            })?;
            if id != debug.loops.len() {
                return err(
                    ln,
                    format!(";@ loop ids must be dense, expected {}", debug.loops.len()),
                );
            }
            debug.loops.push(pc_isa::LoopInfo {
                name: parts[2].to_string(),
                line: parts[3].parse().map_err(|_| AsmError {
                    line: ln,
                    msg: "bad ;@ loop line".into(),
                })?,
            });
            Ok(())
        }
        Some("span") if parts.len() == 5 => {
            let id: usize = parts[1].parse().map_err(|_| AsmError {
                line: ln,
                msg: "bad ;@ span id".into(),
            })?;
            if id != debug.spans.len() {
                return err(
                    ln,
                    format!(";@ span ids must be dense, expected {}", debug.spans.len()),
                );
            }
            let num = |s: &str| -> Result<u32, AsmError> {
                s.parse().map_err(|_| AsmError {
                    line: ln,
                    msg: "bad ;@ span field".into(),
                })
            };
            let loop_id = if parts[4] == "-" {
                None
            } else {
                Some(num(parts[4])?)
            };
            debug.spans.push(pc_isa::SpanInfo {
                span: pc_isa::SrcSpan {
                    line: num(parts[2])?,
                    col: num(parts[3])?,
                },
                loop_id,
            });
            Ok(())
        }
        _ => err(ln, format!("bad ;@ directive '{rest}'")),
    }
}

fn parse_reg(tok: &str, ln: usize) -> Result<RegId, AsmError> {
    let rest = tok.strip_prefix('c').ok_or(AsmError {
        line: ln,
        msg: format!("bad register '{tok}'"),
    })?;
    let (c, r) = rest.split_once(".r").ok_or(AsmError {
        line: ln,
        msg: format!("bad register '{tok}'"),
    })?;
    Ok(RegId::new(
        ClusterId(c.parse().map_err(|_| AsmError {
            line: ln,
            msg: format!("bad cluster in '{tok}'"),
        })?),
        r.parse().map_err(|_| AsmError {
            line: ln,
            msg: format!("bad index in '{tok}'"),
        })?,
    ))
}

fn parse_operand(tok: &str, ln: usize) -> Result<Operand, AsmError> {
    if let Some(imm) = tok.strip_prefix('#') {
        return Ok(match imm {
            "NaN" => Operand::ImmFloat(f64::NAN),
            "inf" => Operand::ImmFloat(f64::INFINITY),
            "-inf" => Operand::ImmFloat(f64::NEG_INFINITY),
            _ if imm.contains('.') || imm.contains('e') || imm.contains('E') => {
                Operand::ImmFloat(imm.parse().map_err(|_| AsmError {
                    line: ln,
                    msg: format!("bad float '{tok}'"),
                })?)
            }
            _ => Operand::ImmInt(imm.parse().map_err(|_| AsmError {
                line: ln,
                msg: format!("bad int '{tok}'"),
            })?),
        });
    }
    Ok(Operand::Reg(parse_reg(tok, ln)?))
}

fn int_op(m: &str) -> Option<IntOp> {
    IntOp::all().iter().copied().find(|o| o.mnemonic() == m)
}

fn float_op(m: &str) -> Option<FloatOp> {
    FloatOp::all().iter().copied().find(|o| o.mnemonic() == m)
}

fn parse_operation(text: &str, ln: usize) -> Result<Operation, AsmError> {
    let (mnem, rest) = text.split_once(' ').unwrap_or((text, ""));
    let rest = rest.trim();

    // Branch family first (special syntax).
    match mnem {
        "halt" => {
            return Ok(Operation::new(
                OpKind::Branch(BranchOp::Halt),
                vec![],
                vec![],
            ))
        }
        "jmp" => {
            let target = rest
                .strip_prefix('@')
                .and_then(|s| s.parse().ok())
                .ok_or(AsmError {
                    line: ln,
                    msg: format!("bad jmp target '{rest}'"),
                })?;
            return Ok(Operation::new(
                OpKind::Branch(BranchOp::Jmp { target }),
                vec![],
                vec![],
            ));
        }
        "bt" | "bf" => {
            let (cond, target) = rest.split_once(" @").ok_or(AsmError {
                line: ln,
                msg: "branch needs 'cond @target'".into(),
            })?;
            let target: u32 = target.trim().parse().map_err(|_| AsmError {
                line: ln,
                msg: format!("bad branch target '{target}'"),
            })?;
            return Ok(Operation::new(
                OpKind::Branch(BranchOp::Br {
                    on_true: mnem == "bt",
                    target,
                }),
                vec![parse_operand(cond.trim(), ln)?],
                vec![],
            ));
        }
        "probe" => {
            let id = rest
                .strip_prefix('!')
                .and_then(|s| s.parse().ok())
                .ok_or(AsmError {
                    line: ln,
                    msg: format!("bad probe id '{rest}'"),
                })?;
            return Ok(Operation::new(
                OpKind::Branch(BranchOp::Probe { id }),
                vec![],
                vec![],
            ));
        }
        "fork" => {
            // fork segN (src, src => dst, dst)
            let (seg, args) = rest.split_once(' ').ok_or(AsmError {
                line: ln,
                msg: "fork needs 'segN (...)'".into(),
            })?;
            let seg: u32 =
                seg.strip_prefix("seg")
                    .and_then(|s| s.parse().ok())
                    .ok_or(AsmError {
                        line: ln,
                        msg: format!("bad fork segment '{seg}'"),
                    })?;
            let inner = args
                .trim()
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or(AsmError {
                    line: ln,
                    msg: "fork args need parentheses".into(),
                })?;
            let (srcs, dsts) = inner.split_once("=>").ok_or(AsmError {
                line: ln,
                msg: "fork args need '=>'".into(),
            })?;
            let srcs: Vec<Operand> = srcs
                .split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| parse_operand(t, ln))
                .collect::<Result<_, _>>()?;
            let arg_dsts: Vec<RegId> = dsts
                .split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| parse_reg(t, ln))
                .collect::<Result<_, _>>()?;
            return Ok(Operation::new(
                OpKind::Branch(BranchOp::Fork {
                    segment: SegmentId(seg),
                    arg_dsts,
                }),
                srcs,
                vec![],
            ));
        }
        _ => {}
    }

    // Regular ops: "<mnem> src, src -> dst, dst".
    let (srcs_text, dsts_text) = match rest.split_once("->") {
        Some((a, b)) => (a.trim(), b.trim()),
        None => (rest, ""),
    };
    let srcs: Vec<Operand> = srcs_text
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| parse_operand(t, ln))
        .collect::<Result<_, _>>()?;
    let dsts: Vec<RegId> = dsts_text
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| parse_reg(t, ln))
        .collect::<Result<_, _>>()?;

    let kind = if let Some(o) = int_op(mnem) {
        OpKind::Int(o)
    } else if let Some(o) = float_op(mnem) {
        OpKind::Float(o)
    } else {
        match mnem {
            "ld" => OpKind::Mem(MemOp::Load(LoadFlavor::Plain)),
            "ld.wf" => OpKind::Mem(MemOp::Load(LoadFlavor::WaitFull)),
            "ld.c" => OpKind::Mem(MemOp::Load(LoadFlavor::Consume)),
            "st" => OpKind::Mem(MemOp::Store(StoreFlavor::Plain)),
            "st.wf" => OpKind::Mem(MemOp::Store(StoreFlavor::WaitFull)),
            "st.p" => OpKind::Mem(MemOp::Store(StoreFlavor::Produce)),
            _ => return err(ln, format!("unknown mnemonic '{mnem}'")),
        }
    };
    Ok(Operation::new(kind, srcs, dsts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::{print_operation, print_program};

    fn roundtrip_op(op: Operation) {
        let text = print_operation(&op);
        let back = parse_operation(&text, 1).unwrap();
        assert_eq!(op, back, "text was '{text}'");
    }

    fn r(c: u16, i: u32) -> RegId {
        RegId::new(ClusterId(c), i)
    }

    #[test]
    fn roundtrips_every_int_and_float_op() {
        for &o in IntOp::all() {
            let srcs = (0..o.arity())
                .map(|i| Operand::Reg(r(0, i as u32)))
                .collect();
            roundtrip_op(Operation::int(o, srcs, r(1, 5)));
        }
        for &o in FloatOp::all() {
            let srcs = (0..o.arity()).map(|_| Operand::ImmFloat(2.5)).collect();
            roundtrip_op(Operation::float(o, srcs, r(0, 0)));
        }
    }

    #[test]
    fn roundtrips_memory_flavors() {
        for fl in [LoadFlavor::Plain, LoadFlavor::WaitFull, LoadFlavor::Consume] {
            roundtrip_op(Operation::load(
                fl,
                Operand::ImmInt(100),
                Operand::Reg(r(2, 3)),
                r(2, 4),
            ));
        }
        for fl in [
            StoreFlavor::Plain,
            StoreFlavor::WaitFull,
            StoreFlavor::Produce,
        ] {
            roundtrip_op(Operation::store(
                fl,
                Operand::ImmInt(0),
                Operand::ImmInt(7),
                Operand::ImmFloat(-2.25),
            ));
        }
    }

    #[test]
    fn roundtrips_branches() {
        roundtrip_op(Operation::new(
            OpKind::Branch(BranchOp::Halt),
            vec![],
            vec![],
        ));
        roundtrip_op(Operation::new(
            OpKind::Branch(BranchOp::Jmp { target: 12 }),
            vec![],
            vec![],
        ));
        for on_true in [true, false] {
            roundtrip_op(Operation::new(
                OpKind::Branch(BranchOp::Br { on_true, target: 3 }),
                vec![Operand::Reg(r(4, 0))],
                vec![],
            ));
        }
        roundtrip_op(Operation::new(
            OpKind::Branch(BranchOp::Probe { id: 42 }),
            vec![],
            vec![],
        ));
        roundtrip_op(Operation::new(
            OpKind::Branch(BranchOp::Fork {
                segment: SegmentId(2),
                arg_dsts: vec![r(0, 0), r(1, 1)],
            }),
            vec![Operand::ImmInt(3), Operand::Reg(r(4, 1))],
            vec![],
        ));
    }

    #[test]
    fn roundtrips_special_floats() {
        roundtrip_op(Operation::float(
            FloatOp::Fmov,
            vec![Operand::ImmFloat(f64::INFINITY)],
            r(0, 0),
        ));
        roundtrip_op(Operation::float(
            FloatOp::Fmov,
            vec![Operand::ImmFloat(f64::NEG_INFINITY)],
            r(0, 0),
        ));
        // NaN: compare via print (NaN != NaN).
        let op = Operation::float(FloatOp::Fmov, vec![Operand::ImmFloat(f64::NAN)], r(0, 0));
        let text = print_operation(&op);
        let back = parse_operation(&text, 1).unwrap();
        match back.srcs[0] {
            Operand::ImmFloat(f) => assert!(f.is_nan()),
            _ => panic!(),
        }
    }

    #[test]
    fn roundtrips_whole_program() {
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        let mut row = InstWord::new();
        row.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::Reg(r(0, 0)), Operand::ImmInt(1)],
                r(0, 1),
            ),
        );
        row.push(
            FuId(12),
            Operation::new(
                OpKind::Branch(BranchOp::Br {
                    on_true: true,
                    target: 0,
                }),
                vec![Operand::Reg(r(4, 0))],
                vec![],
            ),
        );
        seg.rows.push(row);
        seg.rows.push(InstWord::new());
        seg.regs_per_cluster = vec![2, 0, 0, 0, 1, 0];
        p.add_segment(seg);
        let mut child = CodeSegment::new("child");
        child.rows.push(InstWord::new());
        p.add_segment(child);
        p.alloc_symbol("a", 81);
        p.alloc_symbol("b", 4);
        let text = print_program(&p);
        let back = parse_program(&text).unwrap();
        assert_eq!(p, back);
    }

    fn annotated_fixture() -> (Program, pc_isa::DebugMap) {
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        let mut row = InstWord::new();
        row.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::Reg(r(0, 0)), Operand::ImmInt(1)],
                r(0, 1),
            ),
        );
        row.push(
            FuId(12),
            Operation::new(OpKind::Branch(BranchOp::Halt), vec![], vec![]),
        );
        seg.rows.push(row);
        seg.regs_per_cluster = vec![2, 0];
        p.add_segment(seg);
        let mut child = CodeSegment::new("child");
        child.rows.push(InstWord::new());
        p.add_segment(child);

        let mut debug = pc_isa::DebugMap::new();
        debug.loops.push(pc_isa::LoopInfo {
            name: "i".into(),
            line: 3,
        });
        debug.spans.push(pc_isa::SpanInfo {
            span: pc_isa::SrcSpan { line: 0, col: 0 },
            loop_id: None,
        });
        debug.spans.push(pc_isa::SpanInfo {
            span: pc_isa::SrcSpan { line: 3, col: 5 },
            loop_id: Some(0),
        });
        let mut sd = pc_isa::SegmentDebug::default();
        sd.record(0, 0, vec![1, 0]);
        debug.segments.push(sd);
        debug.segments.push(pc_isa::SegmentDebug::default());
        (p, debug)
    }

    #[test]
    fn debug_annotations_round_trip_byte_identically() {
        let (p, debug) = annotated_fixture();
        let text = crate::print_program_with_debug(&p, &debug);
        let (p2, d2) = parse_program_with_debug(&text).unwrap();
        assert_eq!(p, p2);
        assert_eq!(debug, d2);
        assert_eq!(text, crate::print_program_with_debug(&p2, &d2));
        // The same text still parses as a plain program: `;@` stays a
        // comment for consumers that don't care about provenance.
        assert_eq!(parse_program(&text).unwrap(), p);
    }

    #[test]
    fn debug_annotations_match_golden_text() {
        let (p, debug) = annotated_fixture();
        let golden = "\
.memory 0
.entry 0
;@ loop 0 i 3
;@ span 0 0 0 -
;@ span 1 3 5 0
.segment main
.regs 2 0
.row ; 0
  u0: add c0.r0, #1 -> c0.r1 ;@ 0,1
  u12: halt
.segment child
.regs
.row ; 0
";
        assert_eq!(crate::print_program_with_debug(&p, &debug), golden);
    }

    #[test]
    fn plain_text_parses_to_empty_debug_map() {
        let (p, _) = annotated_fixture();
        let text = crate::print_program(&p);
        let (p2, d2) = parse_program_with_debug(&text).unwrap();
        assert_eq!(p, p2);
        assert!(d2.is_empty());
        assert!(d2.spans.is_empty() && d2.loops.is_empty());
    }

    #[test]
    fn malformed_debug_directives_are_rejected() {
        assert!(parse_program_with_debug(";@ loop 1 i 3\n").is_err()); // non-dense id
        assert!(parse_program_with_debug(";@ span 0 x 0 -\n").is_err());
        assert!(parse_program_with_debug(";@ wibble\n").is_err());
        // Span ids that never index the table are inconsistent.
        let bad = ".segment s\n.row\n  u0: halt ;@ 7\n";
        assert!(parse_program_with_debug(bad).is_err());
    }

    #[test]
    fn reports_errors_with_lines() {
        let err = parse_program(".segment s\n.row\n  u0: frob c0.r0").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("frob"));
        assert!(parse_program("garbage").is_err());
        assert!(parse_program(".row").is_err()); // outside a segment
    }

    #[test]
    fn a_unit_named_twice_in_one_row_is_an_error() {
        let text = ".segment s\n.row\n  u0: halt\n  u0: halt\n";
        let err = parse_program(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("u0"), "{err}");
        assert_eq!(parse_program_with_debug(text).unwrap_err(), err);
    }
}
