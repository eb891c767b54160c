//! Decode-once program representation: the load-time translation of a
//! scheduled [`Program`] into dense, flat per-slot records the decoded
//! engine dispatches over without re-walking the program.
//!
//! [`DecodedProgram::decode`] validates the program once and then
//! translates every segment row into [`DecodedOp`]s:
//!
//! * register operands are pre-resolved to **flat register-file
//!   indices** (the same numbering as the packed presence bitsets, see
//!   [`crate::regfile`]), immediates are unboxed into [`Value`]s, and
//!   operand lists are flattened into fixed inline arrays — issue never
//!   walks a heap `Vec` or re-matches an `Operand` enum;
//! * each slot carries its unit's **latency**, packed
//!   source/destination **masks**, its memory-ordering rule, and the
//!   sibling-unit **kill set** its issue can unready;
//! * the opcode is carried in [`SlotAction`]: ALU slots hold their
//!   [`pc_isa::IntOp`]/[`pc_isa::FloatOp`], evaluated by the same
//!   `eval_int`/`eval_float` the scan oracle and the compiler call, and
//!   control transfers are pre-resolved, so issue never dereferences
//!   the program or clones a [`pc_isa::BranchOp`].
//!
//! Only the decoded engine dispatches through the slot records; the
//! scan oracle reads each [`pc_isa::Operation`] straight from the
//! [`Program`], so the differential tests compare decode against
//! something decode cannot have influenced.
//!
//! The layout is flat: one `ops` array over the whole program, rows as
//! `(op_base, n_slots)` windows, and a `unit_slots` table mapping
//! `(row, unit)` to the row's slot index. The `(segment, row, slot)`
//! coordinate space of the source program — the currency of the
//! [`pc_isa::DebugMap`] and the stall tables — survives decode
//! untouched: slot `i` of row `r` of segment `s` is
//! `ops[segs[s].row(r).op_base + i]`.

use crate::error::SimError;
use crate::inline_vec::InlineVec;
use crate::regfile::{bit_layout, MaskWord};
use pc_isa::{
    validate_program, BranchOp, FloatOp, FuId, IntOp, MachineConfig, MemOp, OpKind, Program, RegId,
    SegmentId, Value,
};
use std::sync::Arc;

/// Destination registers of one result (rarely more than a couple).
pub(crate) type RegList = InlineVec<RegId, 4>;
/// Packed operand mask of one slot: `(word, bits)` pairs under the
/// segment's [`bit_layout`] (an op's few operands rarely span words).
pub(crate) type MaskList = InlineVec<MaskWord, 3>;
/// Flat-index source operands of one slot.
pub(crate) type DecSrcList = InlineVec<DecSrc, 4>;
/// Flat-index destination list of one slot.
pub(crate) type FlatList = InlineVec<u32, 4>;

/// A source operand with the register pre-resolved to its flat
/// register-file index and immediates unboxed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecSrc {
    /// Read the thread's register file at this flat index.
    Reg(u32),
    /// The immediate, already a runtime [`Value`].
    Imm(Value),
}

// `Default` only to satisfy `InlineVec`'s padding bound; never observed.
impl Default for DecSrc {
    fn default() -> Self {
        DecSrc::Imm(Value::Int(0))
    }
}

/// An address operand of a memory slot, precomputed so the ordering
/// check never touches the program's operation (`ImmFloat` folds to 0,
/// exactly as the reference readiness grading evaluates it). Registers
/// are flat indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AddrOperand {
    Reg(u32),
    Imm(i64),
}

/// The memory-consistency rule a slot must additionally satisfy,
/// mirrored from the `OpKind` match inside the reference readiness
/// grading so the readiness cache can grade ordered slots without
/// dereferencing the program (the differential tests pin the two forms
/// to each other).
#[derive(Debug, Clone, Copy)]
pub(crate) enum OrderRule {
    /// Plain ALU/branch slot: register readiness is the whole story.
    None,
    /// Synchronizing store or `fork`: fences on all outstanding traffic.
    FenceAll,
    /// Synchronizing load: fences on outstanding *stores* only.
    FenceStores,
    /// Plain load/store: same-address hazard against outstanding traffic.
    Hazard {
        base: AddrOperand,
        off: AddrOperand,
        is_store: bool,
    },
}

/// What issuing a slot does — its [`OpKind`] with control transfers
/// pre-resolved, so the decoded engine never clones the program's
/// [`BranchOp`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SlotAction {
    /// Integer op, evaluated by [`pc_isa::op::eval_int`].
    Int(IntOp),
    /// Floating-point op, evaluated by [`pc_isa::op::eval_float`].
    Float(FloatOp),
    Mem(MemOp),
    /// Completes at issue; records a probe record with this id.
    Probe(u32),
    Halt,
    Jmp(u32),
    Br {
        on_true: bool,
        target: u32,
    },
    Fork {
        segment: SegmentId,
        /// Shared so issue clones a pointer, not the list.
        arg_dsts: Arc<[RegId]>,
    },
}

/// One decoded slot: everything the issue and completion paths need,
/// self-contained and flat.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    /// The unit the slot is bound to.
    pub fu: FuId,
    /// The unit's pipeline latency, precomputed from the configuration.
    pub latency: u64,
    /// What issue does with the gathered operands.
    pub action: SlotAction,
    /// Source-register presence mask.
    pub src: MaskList,
    /// Destination-scoreboard mask.
    pub dst: MaskList,
    /// `src`/`dst` unpacked into fixed words 0 and 1 — the readiness
    /// fast path's branch-free grade, valid only when the whole row is
    /// flagged [`DecRow::two_word`].
    pub src01: [u64; 2],
    /// See [`Self::src01`].
    pub dst01: [u64; 2],
    /// Memory-ordering rule beyond register readiness.
    pub order: OrderRule,
    /// True when `order` is anything but [`OrderRule::None`] — readiness
    /// walks test this byte instead of reaching the rule's variant.
    pub has_order: bool,
    /// Units of sibling slots whose readiness this slot's issue can
    /// destroy: those reading or writing a register this slot writes.
    /// Units ≥ 64 are omitted (the decoded engine is disabled there).
    pub kills: u64,
    /// The operation's sources pre-resolved to flat indices / unboxed
    /// immediates — the decoded engine's gather list.
    pub srcs: DecSrcList,
    /// The operation's destination registers (writeback currency).
    pub dsts: RegList,
    /// The same destinations as flat register-file indices (scoreboard
    /// claims at issue).
    pub dsts_flat: FlatList,
}

/// One instruction row: a window into [`DecodedProgram::ops`].
#[derive(Debug, Clone)]
pub(crate) struct DecRow {
    /// First slot in `ops`.
    pub op_base: u32,
    /// Slot count (== the program row's slot count).
    pub n_slots: u16,
    /// Base of this row's `(unit → slot)` map in
    /// [`DecodedProgram::unit_slots`].
    pub unit_base: u32,
    /// Units (< 64) of slots carrying an [`OrderRule`] other than
    /// `None` — the slots a memory issue can unready.
    pub ordered_units: u64,
    /// Union of every slot's source and destination masks — the
    /// registers whose writebacks can change some slot's grade. A
    /// writeback whose bit misses this union cannot, so the targeted
    /// readiness repair exits without walking the row.
    pub touch_union: MaskList,
    /// `touch_union`'s words 0 and 1 as fixed words, so the repair's
    /// hit test on low-numbered registers (every register of a
    /// [`Self::two_word`] row) is two loads instead of a list scan.
    pub touch01: [u64; 2],
    /// True when every slot's operand masks fall in bit words 0 and 1
    /// (register files up to 128 bits) — the readiness refresh then
    /// grades the row with four fixed-word compares per slot instead of
    /// iterating packed mask lists. Not every paper benchmark qualifies:
    /// rows that touch a register at bit 128 or above take the general
    /// mask path — on the baseline machine, 46 of FFT's 59 STS rows, 33
    /// of its 118 Coupled rows, and in Ideal mode every Matrix (371) and
    /// FFT (227) row, 491 of Model's 568 and 8 of LUD's 121.
    pub two_word: bool,
}

/// One code segment: a window into [`DecodedProgram::rows`] plus the
/// segment's register layout.
#[derive(Debug, Clone)]
pub(crate) struct DecSeg {
    /// First row in `rows`.
    pub row_base: u32,
    /// Row count.
    pub n_rows: u32,
}

/// A program decoded for execution: validated once, then shareable
/// across any number of [`crate::Machine`]s so repeated runs of the same
/// code skip both validation and translation. Decode reads only the
/// configuration's [compile target](MachineConfig::compile_target)
/// (clusters, units, latencies, `max_dsts`), so an image decoded against
/// the target runs under every configuration that shares it
/// ([`crate::Machine::with_config`]); [`crate::Machine::from_decoded`]
/// runs it under the configuration it was decoded against.
#[derive(Debug)]
pub struct DecodedProgram {
    pub(crate) config: MachineConfig,
    pub(crate) program: Arc<Program>,
    pub(crate) segs: Vec<DecSeg>,
    pub(crate) rows: Vec<DecRow>,
    pub(crate) ops: Vec<DecodedOp>,
    /// `(row, unit) → slot index` (`u16::MAX` = none), rows
    /// back-to-back with stride `n_units`. Unique per row because
    /// [`validate_program`] forbids two slots of a row on one unit.
    pub(crate) unit_slots: Vec<u16>,
    pub(crate) n_units: usize,
    /// Host nanoseconds spent in [`DecodedProgram::decode`] (exact,
    /// measured once per decode; see [`crate::HostProfile::decode_ns`]).
    pub(crate) decode_ns: u64,
}

/// Unpacks a mask list's words 0 and 1 into a fixed pair (words ≥ 2
/// contribute nothing — callers gate on [`DecRow::two_word`]).
fn unpack_two_words(list: &MaskList) -> [u64; 2] {
    let mut out = [0u64; 2];
    for &(w, m) in list.iter() {
        if (w as usize) < 2 {
            out[w as usize] |= m;
        }
    }
    out
}

/// Merges register `r`'s bit into a packed mask list.
fn push_mask_bit(list: &mut Vec<MaskWord>, base: &[u32], r: RegId) {
    let bit = (base[r.cluster.0 as usize] + r.index) as usize;
    let key = (bit / 64) as u32;
    let m = 1u64 << (bit % 64);
    for e in list.iter_mut() {
        if e.0 == key {
            e.1 |= m;
            return;
        }
    }
    list.push((key, m));
}

impl DecodedProgram {
    /// Validates `program` against `config` and translates it.
    ///
    /// # Errors
    /// Returns [`SimError::Isa`] when the program fails
    /// [`validate_program`].
    pub fn decode(config: MachineConfig, program: Arc<Program>) -> Result<Self, SimError> {
        let t0 = std::time::Instant::now();
        validate_program(&program, &config)?;
        let n_units = config.units().len();
        let n_clusters = config.clusters().len();
        let mut segs = Vec::with_capacity(program.segments.len());
        let mut rows: Vec<DecRow> = Vec::new();
        let mut ops: Vec<DecodedOp> = Vec::new();
        let mut unit_slots: Vec<u16> = Vec::new();
        let mut scratch: Vec<MaskWord> = Vec::new();
        for seg in &program.segments {
            let (base, _) = bit_layout(&seg.regs_per_cluster, n_clusters);
            let flat = |r: RegId| base[r.cluster.0 as usize] + r.index;
            let row_base = rows.len() as u32;
            for row in &seg.rows {
                let op_base = ops.len() as u32;
                let unit_base = unit_slots.len() as u32;
                unit_slots.resize(unit_slots.len() + n_units, u16::MAX);
                for (i, (fu, op)) in row.slots().iter().enumerate() {
                    unit_slots[unit_base as usize + fu.0 as usize] = i as u16;
                    scratch.clear();
                    for r in op.src_regs() {
                        push_mask_bit(&mut scratch, &base, r);
                    }
                    let src: MaskList = scratch.iter().copied().collect();
                    scratch.clear();
                    for d in &op.dsts {
                        push_mask_bit(&mut scratch, &base, *d);
                    }
                    let dst: MaskList = scratch.iter().copied().collect();
                    let addr_operand = |o: &pc_isa::Operand| match o {
                        pc_isa::Operand::Reg(r) => AddrOperand::Reg(flat(*r)),
                        pc_isa::Operand::ImmInt(v) => AddrOperand::Imm(*v),
                        // The reference grading evaluates a float
                        // immediate address operand as 0.
                        pc_isa::Operand::ImmFloat(_) => AddrOperand::Imm(0),
                    };
                    let order = match &op.kind {
                        OpKind::Mem(MemOp::Store(fl)) if *fl != pc_isa::StoreFlavor::Plain => {
                            OrderRule::FenceAll
                        }
                        OpKind::Mem(MemOp::Load(fl)) if *fl != pc_isa::LoadFlavor::Plain => {
                            OrderRule::FenceStores
                        }
                        OpKind::Mem(m) => OrderRule::Hazard {
                            base: addr_operand(&op.srcs[0]),
                            off: addr_operand(&op.srcs[1]),
                            is_store: matches!(m, MemOp::Store(_)),
                        },
                        OpKind::Branch(BranchOp::Fork { .. }) => OrderRule::FenceAll,
                        _ => OrderRule::None,
                    };
                    let action = match &op.kind {
                        OpKind::Int(i) => SlotAction::Int(*i),
                        OpKind::Float(f) => SlotAction::Float(*f),
                        OpKind::Mem(m) => SlotAction::Mem(*m),
                        OpKind::Branch(BranchOp::Probe { id }) => SlotAction::Probe(*id),
                        OpKind::Branch(BranchOp::Halt) => SlotAction::Halt,
                        OpKind::Branch(BranchOp::Jmp { target }) => SlotAction::Jmp(*target),
                        OpKind::Branch(BranchOp::Br { on_true, target }) => SlotAction::Br {
                            on_true: *on_true,
                            target: *target,
                        },
                        OpKind::Branch(BranchOp::Fork { segment, arg_dsts }) => SlotAction::Fork {
                            segment: *segment,
                            arg_dsts: arg_dsts.clone().into(),
                        },
                    };
                    let srcs: DecSrcList = op
                        .srcs
                        .iter()
                        .map(|s| match s {
                            pc_isa::Operand::Reg(r) => DecSrc::Reg(flat(*r)),
                            pc_isa::Operand::ImmInt(i) => DecSrc::Imm(Value::Int(*i)),
                            pc_isa::Operand::ImmFloat(f) => DecSrc::Imm(Value::Float(*f)),
                        })
                        .collect();
                    ops.push(DecodedOp {
                        fu: *fu,
                        latency: config.fu(*fu).latency as u64,
                        action,
                        src01: unpack_two_words(&src),
                        dst01: unpack_two_words(&dst),
                        src,
                        dst,
                        has_order: !matches!(order, OrderRule::None),
                        order,
                        kills: 0,
                        srcs,
                        dsts: RegList::from_slice(&op.dsts),
                        dsts_flat: op.dsts.iter().map(|d| flat(*d)).collect(),
                    });
                }
                // Second pass over the row: which sibling units each
                // slot's issue can unready (write-after-read and
                // write-after-write on the scoreboard), and which units
                // carry ordering rules.
                let slots = &mut ops[op_base as usize..];
                let mut ordered_units = 0u64;
                scratch.clear();
                for s in slots.iter() {
                    if !matches!(s.order, OrderRule::None) && s.fu.0 < 64 {
                        ordered_units |= 1u64 << s.fu.0;
                    }
                    for &(key, m) in s.src.iter().chain(s.dst.iter()) {
                        if let Some(e) = scratch.iter_mut().find(|e| e.0 == key) {
                            e.1 |= m;
                        } else {
                            scratch.push((key, m));
                        }
                    }
                }
                let touch_union: MaskList = scratch.iter().copied().collect();
                let masks_intersect = |a: &[MaskWord], b: &[MaskWord]| {
                    a.iter()
                        .any(|&(ka, ma)| b.iter().any(|&(kb, mb)| ka == kb && ma & mb != 0))
                };
                for s in 0..slots.len() {
                    let mut kills = 0u64;
                    for (i, other) in slots.iter().enumerate() {
                        if i == s || other.fu.0 >= 64 {
                            continue;
                        }
                        if masks_intersect(&slots[s].dst, &other.src)
                            || masks_intersect(&slots[s].dst, &other.dst)
                        {
                            kills |= 1u64 << other.fu.0;
                        }
                    }
                    slots[s].kills = kills;
                }
                let two_word = slots
                    .iter()
                    .all(|s| s.src.iter().chain(s.dst.iter()).all(|&(w, _)| w < 2));
                rows.push(DecRow {
                    op_base,
                    n_slots: row.len() as u16,
                    unit_base,
                    ordered_units,
                    touch01: unpack_two_words(&touch_union),
                    touch_union,
                    two_word,
                });
            }
            segs.push(DecSeg {
                row_base,
                n_rows: seg.rows.len() as u32,
            });
        }
        Ok(DecodedProgram {
            config,
            program,
            segs,
            rows,
            ops,
            unit_slots,
            n_units,
            decode_ns: t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        })
    }

    /// Host nanoseconds the decode itself took (exact; measured once,
    /// however many machines share this program).
    pub fn decode_ns(&self) -> u64 {
        self.decode_ns
    }

    /// The configuration the program was decoded against.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The source program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Row `ip` of segment `seg`, if in range.
    #[inline]
    pub(crate) fn row(&self, seg: SegmentId, ip: u32) -> Option<&DecRow> {
        let s = &self.segs[seg.0 as usize];
        if ip < s.n_rows {
            Some(&self.rows[(s.row_base + ip) as usize])
        } else {
            None
        }
    }

    /// The decoded slots of `row`.
    #[inline]
    pub(crate) fn slots(&self, row: &DecRow) -> &[DecodedOp] {
        &self.ops[row.op_base as usize..row.op_base as usize + row.n_slots as usize]
    }

    /// The `(unit → slot)` map of `row`.
    #[inline]
    pub(crate) fn slot_of_unit(&self, row: &DecRow) -> &[u16] {
        &self.unit_slots[row.unit_base as usize..row.unit_base as usize + self.n_units]
    }

    /// One decoded slot by absolute coordinates (the hot paths index
    /// [`Self::ops`] directly through carried op indices; this walk is
    /// for tests and diagnostics).
    #[cfg(test)]
    pub(crate) fn slot(&self, seg: SegmentId, ip: u32, slot: usize) -> &DecodedOp {
        let s = &self.segs[seg.0 as usize];
        let row = &self.rows[(s.row_base + ip) as usize];
        &self.ops[row.op_base as usize + slot]
    }

    /// Row count of segment `seg`.
    #[inline]
    pub(crate) fn seg_len(&self, seg: SegmentId) -> u32 {
        self.segs[seg.0 as usize].n_rows
    }

    // ---- layout introspection (goldens and diagnostics) -----------------

    /// Number of decoded segments.
    pub fn n_segments(&self) -> usize {
        self.segs.len()
    }

    /// Total decoded rows over all segments.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total decoded slots over all rows.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Length of the `(row, unit) → slot` table.
    pub fn unit_table_len(&self) -> usize {
        self.unit_slots.len()
    }

    /// Host bytes of one decoded slot record.
    pub fn op_record_bytes() -> usize {
        std::mem::size_of::<DecodedOp>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_isa::{ClusterId, CodeSegment, InstWord, Operand, Operation};

    fn r(c: u16, i: u32) -> RegId {
        RegId::new(ClusterId(c), i)
    }

    fn two_row_program() -> Program {
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        let mut row0 = InstWord::new();
        row0.push(
            FuId(0),
            Operation::int(
                IntOp::Add,
                vec![Operand::ImmInt(2), Operand::ImmInt(3)],
                r(0, 0),
            ),
        );
        let mut row1 = InstWord::new();
        row1.push(
            FuId(0),
            Operation::int(IntOp::Mov, vec![Operand::Reg(r(0, 0))], r(0, 1)),
        );
        seg.rows = vec![row0, row1];
        seg.regs_per_cluster = vec![2, 0, 0, 0, 0, 0];
        p.add_segment(seg);
        p
    }

    #[test]
    fn decode_flattens_rows_and_resolves_operands() {
        let config = MachineConfig::baseline();
        let dp = DecodedProgram::decode(config, Arc::new(two_row_program())).unwrap();
        assert_eq!(dp.n_segments(), 1);
        assert_eq!(dp.n_rows(), 2);
        assert_eq!(dp.n_ops(), 2);
        assert_eq!(dp.unit_table_len(), 2 * dp.n_units);

        let row0 = dp.row(SegmentId(0), 0).unwrap();
        assert_eq!(dp.slot_of_unit(row0)[0], 0);
        assert!(dp.slot_of_unit(row0)[1..].iter().all(|&s| s == u16::MAX));
        let add = &dp.slots(row0)[0];
        assert_eq!(add.action, SlotAction::Int(IntOp::Add));
        assert_eq!(add.latency, u64::from(dp.config().fu(FuId(0)).latency));
        assert!(matches!(
            add.srcs.as_slice(),
            [DecSrc::Imm(Value::Int(2)), DecSrc::Imm(Value::Int(3))]
        ));
        assert_eq!(add.dsts_flat.as_slice(), &[0]);

        let mov = dp.slot(SegmentId(0), 1, 0);
        assert_eq!(mov.action, SlotAction::Int(IntOp::Mov));
        // c0.r0 is flat index 0, c0.r1 flat index 1.
        assert!(matches!(mov.srcs.as_slice(), [DecSrc::Reg(0)]));
        assert_eq!(mov.dsts_flat.as_slice(), &[1]);
        assert!(dp.row(SegmentId(0), 2).is_none());
    }

    #[test]
    fn decode_rejects_invalid_programs() {
        let mut p = Program::new();
        let mut seg = CodeSegment::new("main");
        let mut row = InstWord::new();
        // Integer op on a float unit: validation must reject it.
        row.push(
            FuId(1),
            Operation::int(
                IntOp::Add,
                vec![Operand::ImmInt(1), Operand::ImmInt(1)],
                r(0, 0),
            ),
        );
        seg.rows = vec![row];
        seg.regs_per_cluster = vec![1];
        p.add_segment(seg);
        assert!(DecodedProgram::decode(MachineConfig::baseline(), Arc::new(p)).is_err());
    }
}
