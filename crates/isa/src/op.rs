//! Operations: the atoms scheduled into instruction-word slots.
//!
//! Each [`Operation`] is bound at compile time to a function-unit *class*
//! and carries its sources (registers local to the executing unit's cluster,
//! or immediates) and up to `max_dsts` destination registers which may live
//! in any cluster.
//!
//! The semantic evaluators [`eval_int`] and [`eval_float`] are the single
//! source of truth for arithmetic: the compiler's constant folder, the AST
//! interpreter used in property tests, and both simulator engines call
//! them.

use crate::config::UnitClass;
use crate::error::{IsaError, Result};
use crate::program::SegmentId;
use crate::reg::{Operand, RegId};
use crate::value::Value;
use std::fmt;

/// Integer-unit opcodes. Comparisons yield `Int(0)` / `Int(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Not,
    Neg,
    /// Copy a value (of either type) between registers; also used to
    /// distribute values to remote clusters.
    Mov,
    Slt,
    Sle,
    Seq,
    Sne,
    Sgt,
    Sge,
}

impl IntOp {
    /// Number of sources the opcode consumes.
    pub fn arity(self) -> usize {
        match self {
            IntOp::Not | IntOp::Neg | IntOp::Mov => 1,
            _ => 2,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntOp::Add => "add",
            IntOp::Sub => "sub",
            IntOp::Mul => "mul",
            IntOp::Div => "div",
            IntOp::Rem => "rem",
            IntOp::And => "and",
            IntOp::Or => "or",
            IntOp::Xor => "xor",
            IntOp::Shl => "shl",
            IntOp::Shr => "shr",
            IntOp::Not => "not",
            IntOp::Neg => "neg",
            IntOp::Mov => "mov",
            IntOp::Slt => "slt",
            IntOp::Sle => "sle",
            IntOp::Seq => "seq",
            IntOp::Sne => "sne",
            IntOp::Sgt => "sgt",
            IntOp::Sge => "sge",
        }
    }

    /// All integer opcodes, for exhaustive tests and the assembler.
    pub fn all() -> &'static [IntOp] {
        use IntOp::*;
        &[
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Not, Neg, Mov, Slt, Sle, Seq, Sne,
            Sgt, Sge,
        ]
    }
}

/// Floating-point-unit opcodes. Comparisons yield `Int(0)` / `Int(1)`;
/// conversions move between the two value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatOp {
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    Fneg,
    Fabs,
    Fmov,
    Fslt,
    Fsle,
    Fseq,
    Fsne,
    Fsgt,
    Fsge,
    /// Convert integer to float.
    Itof,
    /// Convert float to integer (truncating).
    Ftoi,
}

impl FloatOp {
    /// Number of sources the opcode consumes.
    pub fn arity(self) -> usize {
        match self {
            FloatOp::Fneg | FloatOp::Fabs | FloatOp::Fmov | FloatOp::Itof | FloatOp::Ftoi => 1,
            _ => 2,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatOp::Fadd => "fadd",
            FloatOp::Fsub => "fsub",
            FloatOp::Fmul => "fmul",
            FloatOp::Fdiv => "fdiv",
            FloatOp::Fneg => "fneg",
            FloatOp::Fabs => "fabs",
            FloatOp::Fmov => "fmov",
            FloatOp::Fslt => "fslt",
            FloatOp::Fsle => "fsle",
            FloatOp::Fseq => "fseq",
            FloatOp::Fsne => "fsne",
            FloatOp::Fsgt => "fsgt",
            FloatOp::Fsge => "fsge",
            FloatOp::Itof => "itof",
            FloatOp::Ftoi => "ftoi",
        }
    }

    /// All float opcodes, for exhaustive tests and the assembler.
    pub fn all() -> &'static [FloatOp] {
        use FloatOp::*;
        &[
            Fadd, Fsub, Fmul, Fdiv, Fneg, Fabs, Fmov, Fslt, Fsle, Fseq, Fsne, Fsgt, Fsge, Itof,
            Ftoi,
        ]
    }
}

/// Precondition/postcondition flavor for loads (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadFlavor {
    /// Unconditional; leaves the full/empty bit as is.
    Plain,
    /// Waits until the location is full; leaves it full.
    WaitFull,
    /// Waits until the location is full; sets it empty (consuming read).
    Consume,
}

impl LoadFlavor {
    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            LoadFlavor::Plain => "ld",
            LoadFlavor::WaitFull => "ld.wf",
            LoadFlavor::Consume => "ld.c",
        }
    }
}

/// Precondition/postcondition flavor for stores (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreFlavor {
    /// Unconditional; sets the location full.
    Plain,
    /// Waits until the location is full; leaves it full (an update).
    WaitFull,
    /// Waits until the location is empty; sets it full (producing write).
    Produce,
}

impl StoreFlavor {
    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            StoreFlavor::Plain => "st",
            StoreFlavor::WaitFull => "st.wf",
            StoreFlavor::Produce => "st.p",
        }
    }
}

/// Memory-unit opcodes. The memory unit performs the address addition
/// itself (the paper: "memory units perform the operations required for
/// address calculation"): the effective address is `base + offset`, both
/// integer operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Load: sources `[base, offset]`, one destination register.
    Load(LoadFlavor),
    /// Store: sources `[base, offset, value]`, no destinations.
    Store(StoreFlavor),
}

/// Branch-unit opcodes. A thread issues at most one branch per row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Unconditional jump to a row index within the same segment.
    Jmp {
        /// Target row.
        target: u32,
    },
    /// Conditional branch: source `[cond]`; taken when the (integer)
    /// condition equals `on_true`.
    Br {
        /// Branch when the condition is nonzero (`true`) or zero (`false`).
        on_true: bool,
        /// Target row.
        target: u32,
    },
    /// Terminate the executing thread.
    Halt,
    /// Spawn a new thread running `segment`. Sources are the arguments;
    /// `arg_dsts[i]` names the register of the *child's* register set that
    /// receives source `i` (present at thread start).
    Fork {
        /// Code segment the new thread executes.
        segment: SegmentId,
        /// Destination registers, in the child's register space.
        arg_dsts: Vec<RegId>,
    },
    /// Statistics marker: records `(thread, probe-id, cycle)` in the
    /// simulator's probe trace. Zero architectural effect.
    Probe {
        /// User-chosen probe identifier.
        id: u32,
    },
}

/// The opcode payload of an [`Operation`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// An integer-unit operation.
    Int(IntOp),
    /// A floating-point-unit operation.
    Float(FloatOp),
    /// A memory-unit operation.
    Mem(MemOp),
    /// A branch-unit operation.
    Branch(BranchOp),
}

impl OpKind {
    /// The function-unit class that executes this opcode.
    pub fn unit_class(&self) -> UnitClass {
        match self {
            OpKind::Int(_) => UnitClass::Integer,
            OpKind::Float(_) => UnitClass::Float,
            OpKind::Mem(_) => UnitClass::Memory,
            OpKind::Branch(_) => UnitClass::Branch,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Int(op) => op.mnemonic(),
            OpKind::Float(op) => op.mnemonic(),
            OpKind::Mem(MemOp::Load(fl)) => fl.mnemonic(),
            OpKind::Mem(MemOp::Store(fl)) => fl.mnemonic(),
            OpKind::Branch(BranchOp::Jmp { .. }) => "jmp",
            OpKind::Branch(BranchOp::Br { on_true: true, .. }) => "bt",
            OpKind::Branch(BranchOp::Br { on_true: false, .. }) => "bf",
            OpKind::Branch(BranchOp::Halt) => "halt",
            OpKind::Branch(BranchOp::Fork { .. }) => "fork",
            OpKind::Branch(BranchOp::Probe { .. }) => "probe",
        }
    }

    /// Number of sources required by the opcode, or `None` when variable
    /// (fork takes as many sources as `arg_dsts`).
    pub fn arity(&self) -> Option<usize> {
        match self {
            OpKind::Int(op) => Some(op.arity()),
            OpKind::Float(op) => Some(op.arity()),
            OpKind::Mem(MemOp::Load(_)) => Some(2),
            OpKind::Mem(MemOp::Store(_)) => Some(3),
            OpKind::Branch(BranchOp::Jmp { .. }) => Some(0),
            OpKind::Branch(BranchOp::Br { .. }) => Some(1),
            OpKind::Branch(BranchOp::Halt) => Some(0),
            OpKind::Branch(BranchOp::Fork { arg_dsts, .. }) => Some(arg_dsts.len()),
            OpKind::Branch(BranchOp::Probe { .. }) => Some(0),
        }
    }

    /// Number of destination registers the opcode is allowed to have.
    /// Loads and ALU ops may fan out to several clusters (bounded by the
    /// machine's `max_dsts`); stores, branches and probes have none.
    pub fn writes_register(&self) -> bool {
        matches!(
            self,
            OpKind::Int(_) | OpKind::Float(_) | OpKind::Mem(MemOp::Load(_))
        )
    }
}

/// One scheduled operation: an opcode plus its sources and destinations.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// The opcode and its payload.
    pub kind: OpKind,
    /// Sources, read from the executing cluster's register file (or
    /// immediates) when the operation issues.
    pub srcs: Vec<Operand>,
    /// Destination registers (any cluster). At most `max_dsts` of the
    /// machine configuration; empty for stores/branches.
    pub dsts: Vec<RegId>,
}

impl Operation {
    /// Creates an operation.
    pub fn new(kind: OpKind, srcs: Vec<Operand>, dsts: Vec<RegId>) -> Self {
        Operation { kind, srcs, dsts }
    }

    /// Shorthand for an integer operation.
    pub fn int(op: IntOp, srcs: Vec<Operand>, dst: RegId) -> Self {
        Operation::new(OpKind::Int(op), srcs, vec![dst])
    }

    /// Shorthand for a float operation.
    pub fn float(op: FloatOp, srcs: Vec<Operand>, dst: RegId) -> Self {
        Operation::new(OpKind::Float(op), srcs, vec![dst])
    }

    /// Shorthand for a load.
    pub fn load(flavor: LoadFlavor, base: Operand, offset: Operand, dst: RegId) -> Self {
        Operation::new(
            OpKind::Mem(MemOp::Load(flavor)),
            vec![base, offset],
            vec![dst],
        )
    }

    /// Shorthand for a store.
    pub fn store(flavor: StoreFlavor, base: Operand, offset: Operand, value: Operand) -> Self {
        Operation::new(
            OpKind::Mem(MemOp::Store(flavor)),
            vec![base, offset, value],
            vec![],
        )
    }

    /// The unit class executing this operation.
    pub fn unit_class(&self) -> UnitClass {
        self.kind.unit_class()
    }

    /// Registers read by this operation.
    pub fn src_regs(&self) -> impl Iterator<Item = RegId> + '_ {
        self.srcs.iter().filter_map(Operand::reg)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.mnemonic())?;
        match &self.kind {
            OpKind::Branch(BranchOp::Jmp { target })
            | OpKind::Branch(BranchOp::Br { target, .. }) => {
                write!(f, " @{target}")?;
            }
            OpKind::Branch(BranchOp::Fork { segment, .. }) => write!(f, " seg{}", segment.0)?,
            OpKind::Branch(BranchOp::Probe { id }) => write!(f, " !{id}")?,
            _ => {}
        }
        for (i, s) in self.srcs.iter().enumerate() {
            write!(f, "{}{s}", if i == 0 { " " } else { ", " })?;
        }
        if !self.dsts.is_empty() {
            write!(f, " ->")?;
            for (i, d) in self.dsts.iter().enumerate() {
                write!(f, "{}{d}", if i == 0 { " " } else { ", " })?;
            }
        }
        Ok(())
    }
}

fn need(op: &'static str, srcs: &[Value], n: usize) -> Result<()> {
    if srcs.len() != n {
        Err(IsaError::ArityMismatch {
            op,
            expected: n,
            found: srcs.len(),
        })
    } else {
        Ok(())
    }
}

/// Evaluates an integer opcode on concrete values.
///
/// This is the canonical semantics used by the compiler's constant folder,
/// the reference interpreter, and the simulator.
///
/// # Errors
/// [`IsaError::TypeMismatch`] for operands of the wrong type (except `Mov`,
/// which copies either type), [`IsaError::DivideByZero`] on zero divisors,
/// and [`IsaError::ArityMismatch`] for the wrong source count.
pub fn eval_int(op: IntOp, srcs: &[Value]) -> Result<Value> {
    need(op.mnemonic(), srcs, op.arity())?;
    if op == IntOp::Mov {
        return Ok(srcs[0]);
    }
    let a = srcs[0].as_int()?;
    if op.arity() == 1 {
        return Ok(match op {
            IntOp::Not => Value::Int(!a),
            IntOp::Neg => Value::Int(a.wrapping_neg()),
            _ => unreachable!("unary int op"),
        });
    }
    let b = srcs[1].as_int()?;
    Ok(match op {
        IntOp::Add => Value::Int(a.wrapping_add(b)),
        IntOp::Sub => Value::Int(a.wrapping_sub(b)),
        IntOp::Mul => Value::Int(a.wrapping_mul(b)),
        IntOp::Div => {
            if b == 0 {
                return Err(IsaError::DivideByZero);
            }
            Value::Int(a.wrapping_div(b))
        }
        IntOp::Rem => {
            if b == 0 {
                return Err(IsaError::DivideByZero);
            }
            Value::Int(a.wrapping_rem(b))
        }
        IntOp::And => Value::Int(a & b),
        IntOp::Or => Value::Int(a | b),
        IntOp::Xor => Value::Int(a ^ b),
        IntOp::Shl => Value::Int(a.wrapping_shl(b as u32 & 63)),
        IntOp::Shr => Value::Int(a.wrapping_shr(b as u32 & 63)),
        IntOp::Slt => Value::from(a < b),
        IntOp::Sle => Value::from(a <= b),
        IntOp::Seq => Value::from(a == b),
        IntOp::Sne => Value::from(a != b),
        IntOp::Sgt => Value::from(a > b),
        IntOp::Sge => Value::from(a >= b),
        IntOp::Not | IntOp::Neg | IntOp::Mov => unreachable!(),
    })
}

/// Evaluates a floating-point opcode on concrete values.
///
/// # Errors
/// Same classes as [`eval_int`].
pub fn eval_float(op: FloatOp, srcs: &[Value]) -> Result<Value> {
    need(op.mnemonic(), srcs, op.arity())?;
    match op {
        FloatOp::Itof => return Ok(Value::Float(srcs[0].as_int()? as f64)),
        FloatOp::Ftoi => return Ok(Value::Int(srcs[0].as_float()? as i64)),
        FloatOp::Fmov => return Ok(srcs[0]),
        _ => {}
    }
    let a = srcs[0].as_float()?;
    if op.arity() == 1 {
        return Ok(match op {
            FloatOp::Fneg => Value::Float(-a),
            FloatOp::Fabs => Value::Float(a.abs()),
            _ => unreachable!("unary float op"),
        });
    }
    let b = srcs[1].as_float()?;
    Ok(match op {
        FloatOp::Fadd => Value::Float(a + b),
        FloatOp::Fsub => Value::Float(a - b),
        FloatOp::Fmul => Value::Float(a * b),
        FloatOp::Fdiv => Value::Float(a / b),
        FloatOp::Fslt => Value::from(a < b),
        FloatOp::Fsle => Value::from(a <= b),
        FloatOp::Fseq => Value::from(a == b),
        FloatOp::Fsne => Value::from(a != b),
        FloatOp::Fsgt => Value::from(a > b),
        FloatOp::Fsge => Value::from(a >= b),
        _ => unreachable!(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ClusterId;

    fn r(c: u16, i: u32) -> RegId {
        RegId::new(ClusterId(c), i)
    }

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            eval_int(IntOp::Add, &[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_int(IntOp::Sub, &[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(
            eval_int(IntOp::Mul, &[Value::Int(4), Value::Int(3)]).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            eval_int(IntOp::Div, &[Value::Int(7), Value::Int(2)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_int(IntOp::Rem, &[Value::Int(7), Value::Int(2)]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn int_divide_by_zero() {
        assert_eq!(
            eval_int(IntOp::Div, &[Value::Int(1), Value::Int(0)]),
            Err(IsaError::DivideByZero)
        );
        assert_eq!(
            eval_int(IntOp::Rem, &[Value::Int(1), Value::Int(0)]),
            Err(IsaError::DivideByZero)
        );
    }

    #[test]
    fn int_comparisons() {
        assert_eq!(
            eval_int(IntOp::Slt, &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::TRUE
        );
        assert_eq!(
            eval_int(IntOp::Sge, &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::FALSE
        );
        assert_eq!(
            eval_int(IntOp::Seq, &[Value::Int(2), Value::Int(2)]).unwrap(),
            Value::TRUE
        );
    }

    #[test]
    fn int_bitwise_and_shifts() {
        assert_eq!(
            eval_int(IntOp::And, &[Value::Int(0b1100), Value::Int(0b1010)]).unwrap(),
            Value::Int(0b1000)
        );
        assert_eq!(
            eval_int(IntOp::Xor, &[Value::Int(0b1100), Value::Int(0b1010)]).unwrap(),
            Value::Int(0b0110)
        );
        assert_eq!(
            eval_int(IntOp::Shl, &[Value::Int(1), Value::Int(4)]).unwrap(),
            Value::Int(16)
        );
        assert_eq!(
            eval_int(IntOp::Shr, &[Value::Int(16), Value::Int(4)]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn mov_copies_either_type() {
        assert_eq!(
            eval_int(IntOp::Mov, &[Value::Float(2.5)]).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            eval_int(IntOp::Mov, &[Value::Int(7)]).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn int_type_errors() {
        assert!(eval_int(IntOp::Add, &[Value::Float(1.0), Value::Int(1)]).is_err());
        assert!(matches!(
            eval_int(IntOp::Add, &[Value::Int(1)]),
            Err(IsaError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(
            eval_float(FloatOp::Fadd, &[Value::Float(1.5), Value::Float(2.0)]).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            eval_float(FloatOp::Fdiv, &[Value::Float(1.0), Value::Float(4.0)]).unwrap(),
            Value::Float(0.25)
        );
        assert_eq!(
            eval_float(FloatOp::Fneg, &[Value::Float(2.0)]).unwrap(),
            Value::Float(-2.0)
        );
        assert_eq!(
            eval_float(FloatOp::Fabs, &[Value::Float(-2.0)]).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn float_comparisons_yield_ints() {
        assert_eq!(
            eval_float(FloatOp::Fslt, &[Value::Float(1.0), Value::Float(2.0)]).unwrap(),
            Value::TRUE
        );
        assert_eq!(
            eval_float(FloatOp::Fsne, &[Value::Float(1.0), Value::Float(1.0)]).unwrap(),
            Value::FALSE
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(
            eval_float(FloatOp::Itof, &[Value::Int(3)]).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            eval_float(FloatOp::Ftoi, &[Value::Float(3.9)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_float(FloatOp::Ftoi, &[Value::Float(-3.9)]).unwrap(),
            Value::Int(-3)
        );
    }

    #[test]
    fn arity_tables_match_eval() {
        for &op in IntOp::all() {
            let srcs = vec![Value::Int(1); op.arity()];
            // Every opcode evaluates cleanly at its declared arity.
            eval_int(op, &srcs).unwrap();
        }
        for &op in FloatOp::all() {
            let srcs = if op == FloatOp::Itof {
                vec![Value::Int(1); op.arity()]
            } else {
                vec![Value::Float(1.0); op.arity()]
            };
            eval_float(op, &srcs).unwrap();
        }
    }

    #[test]
    fn opkind_metadata() {
        assert_eq!(OpKind::Int(IntOp::Add).unit_class(), UnitClass::Integer);
        assert_eq!(OpKind::Float(FloatOp::Fadd).unit_class(), UnitClass::Float);
        assert_eq!(
            OpKind::Mem(MemOp::Load(LoadFlavor::Plain)).unit_class(),
            UnitClass::Memory
        );
        assert_eq!(
            OpKind::Branch(BranchOp::Halt).unit_class(),
            UnitClass::Branch
        );
        assert!(OpKind::Mem(MemOp::Load(LoadFlavor::Plain)).writes_register());
        assert!(!OpKind::Mem(MemOp::Store(StoreFlavor::Plain)).writes_register());
        assert!(!OpKind::Branch(BranchOp::Halt).writes_register());
    }

    #[test]
    fn operation_display() {
        let op = Operation::int(
            IntOp::Add,
            vec![Operand::Reg(r(0, 1)), Operand::ImmInt(4)],
            r(1, 2),
        );
        assert_eq!(op.to_string(), "add c0.r1, #4 -> c1.r2");
        let st = Operation::store(
            StoreFlavor::Produce,
            Operand::ImmInt(100),
            Operand::Reg(r(0, 0)),
            Operand::Reg(r(0, 1)),
        );
        assert_eq!(st.to_string(), "st.p #100, c0.r0, c0.r1");
    }

    #[test]
    fn src_regs_iterates_registers_only() {
        let op = Operation::int(
            IntOp::Add,
            vec![Operand::Reg(r(0, 1)), Operand::ImmInt(4)],
            r(0, 2),
        );
        let regs: Vec<_> = op.src_regs().collect();
        assert_eq!(regs, vec![r(0, 1)]);
    }
}
