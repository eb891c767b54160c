//! Machine-independent optimizations.
//!
//! The paper's compiler "performs several optimizations including constant
//! propagation, common subexpression elimination, and static evaluation of
//! expressions with constant operands". This module implements:
//!
//! * constant folding + propagation (block-local for mutable variables,
//!   whole-function for single-definition temporaries);
//! * algebraic simplification (`x+0`, `x*1`, `x*0`, shifts by 0, `x*1.0`);
//! * block-local common-subexpression elimination, including redundant
//!   *load* elimination with conservative store invalidation (the paper's
//!   "redundant array index calculations" and the Ideal mode's replacement
//!   of memory references by registers);
//! * copy propagation;
//! * dead-code elimination (pure ops and plain loads).
//!
//! All passes run to a bounded fixpoint via [`optimize_with`].

use crate::ir::{BinOp, Func, InstKind, IsaOp, Term, UnOp, VReg, Val};
use pc_isa::{op as isa_op, LoadFlavor, Value};
use std::collections::HashMap;

/// Runs all passes to a (bounded) fixpoint, without LICM.
pub fn optimize(f: &mut Func) {
    optimize_with(f, false);
}

/// Copy coalescing: rewrites
///
/// ```text
///   tmp = <op> ...      ; single def, single use
///   ...                 ; no access to var in between
///   var = Mov tmp
/// ```
///
/// into `var = <op> ...`, deleting the `Mov`. This removes the extra
/// move-to-variable cycle every `(set x (op …))` would otherwise pay on
/// the dependence chain (critical for accumulation loops).
pub fn coalesce_copies(f: &mut Func) -> bool {
    // Global use counts.
    let mut uses = vec![0u32; f.types.len()];
    let mut defs = vec![0u32; f.types.len()];
    for b in &f.blocks {
        for i in &b.insts {
            for v in i.kind.reads() {
                if let Some(r) = v.reg() {
                    uses[r.0 as usize] += 1;
                }
            }
            if let Some(d) = i.dst {
                defs[d.0 as usize] += 1;
            }
        }
        if let Term::Br { cond, .. } = b.term {
            if let Some(r) = cond.reg() {
                uses[r.0 as usize] += 1;
            }
        }
    }
    let mut changed = false;
    for b in &mut f.blocks {
        let n = b.insts.len();
        let mut last_def: HashMap<VReg, usize> = HashMap::new();
        // Most recent index at which each register was read or written.
        let mut last_access: HashMap<VReg, usize> = HashMap::new();
        let mut delete = vec![false; n];
        for idx in 0..n {
            let mov_target = match (&b.insts[idx].kind, b.insts[idx].dst) {
                (
                    InstKind::Un {
                        op: UnOp::Mov,
                        a: Val::R(tmp),
                    },
                    Some(var),
                ) if *tmp != var => Some((*tmp, var)),
                _ => None,
            };
            if let Some((tmp, var)) = mov_target {
                if defs[tmp.0 as usize] == 1 && uses[tmp.0 as usize] == 1 {
                    if let Some(&di) = last_def.get(&tmp) {
                        let producer_writes_reg = b.insts[di].dst == Some(tmp)
                            && !matches!(
                                b.insts[di].kind,
                                InstKind::Fork { .. } | InstKind::Probe { .. }
                            );
                        let var_quiet = last_access.get(&var).map(|&a| a <= di).unwrap_or(true);
                        if producer_writes_reg && var_quiet && !delete[di] {
                            b.insts[di].dst = Some(var);
                            let mov_prov = b.insts[idx].prov.clone();
                            crate::ir::prov_merge(&mut b.insts[di].prov, &mov_prov);
                            delete[idx] = true;
                            changed = true;
                            last_def.remove(&tmp);
                            last_access.insert(var, idx);
                            continue;
                        }
                    }
                }
            }
            for v in b.insts[idx].kind.reads() {
                if let Some(r) = v.reg() {
                    last_access.insert(r, idx);
                }
            }
            if let Some(d) = b.insts[idx].dst {
                last_def.insert(d, idx);
                last_access.insert(d, idx);
            }
        }
        if delete.iter().any(|&d| d) {
            let mut keep_iter = delete.into_iter();
            b.insts.retain(|_| !keep_iter.next().unwrap());
        }
    }
    changed
}

fn to_value(v: Val) -> Option<Value> {
    match v {
        Val::CI(i) => Some(Value::Int(i)),
        Val::CF(x) => Some(Value::Float(x)),
        Val::R(_) => None,
    }
}

fn to_val(v: Value) -> Val {
    match v {
        Value::Int(i) => Val::CI(i),
        Value::Float(x) => Val::CF(x),
    }
}

/// Evaluates a constant-operand instruction, when that is safe (division
/// by a zero constant is left for runtime).
fn fold_inst(kind: &InstKind) -> Option<Val> {
    match kind {
        InstKind::Un { op, a } => {
            let av = to_value(*a)?;
            if *op == UnOp::Mov {
                return Some(*a);
            }
            let r = match op.isa() {
                IsaOp::I(i) => isa_op::eval_int(i, &[av]).ok()?,
                IsaOp::F(f) => isa_op::eval_float(f, &[av]).ok()?,
            };
            Some(to_val(r))
        }
        InstKind::Bin { op, a, b } => {
            let av = to_value(*a)?;
            let bv = to_value(*b)?;
            let r = match op.isa() {
                IsaOp::I(i) => isa_op::eval_int(i, &[av, bv]).ok()?,
                IsaOp::F(f) => isa_op::eval_float(f, &[av, bv]).ok()?,
            };
            Some(to_val(r))
        }
        _ => None,
    }
}

/// Definition counts per register over the whole function.
fn def_counts(f: &Func) -> Vec<u32> {
    let mut counts = vec![0u32; f.types.len()];
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.dst {
                counts[d.0 as usize] += 1;
            }
        }
    }
    counts
}

/// Constant folding plus propagation. Single-def registers holding a
/// constant propagate everywhere; multi-def variables propagate only
/// within their block, from definition to redefinition.
pub fn fold_and_propagate(f: &mut Func) -> bool {
    let defs = def_counts(f);
    let mut changed = false;

    // Whole-function constants: single-def regs assigned a constant Mov.
    let mut global_const: HashMap<VReg, Val> = HashMap::new();
    for b in &f.blocks {
        for i in &b.insts {
            if let (Some(d), InstKind::Un { op: UnOp::Mov, a }) = (i.dst, &i.kind) {
                if defs[d.0 as usize] == 1 && a.is_const() {
                    global_const.insert(d, *a);
                }
            }
        }
    }

    for b in &mut f.blocks {
        // Block-local constant environment (covers variables too).
        let mut local: HashMap<VReg, Val> = HashMap::new();
        for i in &mut b.insts {
            let subst = |v: &mut Val, local: &HashMap<VReg, Val>, ch: &mut bool| {
                if let Val::R(r) = v {
                    if let Some(c) = local.get(r).or_else(|| global_const.get(r)) {
                        *v = *c;
                        *ch = true;
                    }
                }
            };
            match &mut i.kind {
                InstKind::Un { a, .. } => subst(a, &local, &mut changed),
                InstKind::Bin { a, b, .. } => {
                    subst(a, &local, &mut changed);
                    subst(b, &local, &mut changed);
                }
                InstKind::Load { base, off, .. } => {
                    subst(base, &local, &mut changed);
                    subst(off, &local, &mut changed);
                }
                InstKind::Store { base, off, val, .. } => {
                    subst(base, &local, &mut changed);
                    subst(off, &local, &mut changed);
                    subst(val, &local, &mut changed);
                }
                InstKind::Fork { args, .. } => {
                    for a in args {
                        subst(a, &local, &mut changed);
                    }
                }
                InstKind::Probe { .. } => {}
            }
            // Fold if now constant.
            if let Some(c) = fold_inst(&i.kind) {
                if !matches!(i.kind, InstKind::Un { op: UnOp::Mov, .. }) {
                    i.kind = InstKind::Un {
                        op: UnOp::Mov,
                        a: c,
                    };
                    changed = true;
                }
            }
            // Update the local environment at the definition.
            if let Some(d) = i.dst {
                match &i.kind {
                    InstKind::Un { op: UnOp::Mov, a } if a.is_const() => {
                        local.insert(d, *a);
                    }
                    _ => {
                        local.remove(&d);
                    }
                }
            }
        }
        if let Term::Br { cond, .. } = &mut b.term {
            if let Val::R(r) = cond {
                if let Some(c) = local.get(r).or_else(|| global_const.get(r)) {
                    *cond = *c;
                    changed = true;
                }
            }
        }
        // Statically decided branches become jumps.
        if let Term::Br { cond, then_, else_ } = b.term {
            if let Some(v) = to_value(cond) {
                if let Ok(c) = v.as_cond() {
                    b.term = Term::Jump(if c { then_ } else { else_ });
                    changed = true;
                }
            }
        }
    }
    changed
}

/// Strength-reduction-free algebraic identities.
pub fn algebraic(f: &mut Func) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        for i in &mut b.insts {
            let repl = match &i.kind {
                InstKind::Bin { op, a, b } => match (op, a, b) {
                    (BinOp::Add, x, Val::CI(0)) | (BinOp::Add, Val::CI(0), x) => Some(*x),
                    (BinOp::Sub, x, Val::CI(0)) => Some(*x),
                    (BinOp::Mul, x, Val::CI(1)) | (BinOp::Mul, Val::CI(1), x) => Some(*x),
                    (BinOp::Mul, _, Val::CI(0)) | (BinOp::Mul, Val::CI(0), _) => Some(Val::CI(0)),
                    (BinOp::Div, x, Val::CI(1)) => Some(*x),
                    (BinOp::Shl, x, Val::CI(0)) | (BinOp::Shr, x, Val::CI(0)) => Some(*x),
                    (BinOp::Or, x, Val::CI(0)) | (BinOp::Or, Val::CI(0), x) => Some(*x),
                    (BinOp::Xor, x, Val::CI(0)) | (BinOp::Xor, Val::CI(0), x) => Some(*x),
                    (BinOp::Fmul, x, Val::CF(c)) | (BinOp::Fmul, Val::CF(c), x) if *c == 1.0 => {
                        Some(*x)
                    }
                    (BinOp::Fdiv, x, Val::CF(c)) if *c == 1.0 => Some(*x),
                    _ => None,
                },
                _ => None,
            };
            if let Some(v) = repl {
                i.kind = InstKind::Un {
                    op: UnOp::Mov,
                    a: v,
                };
                changed = true;
            }
        }
    }
    changed
}

/// The operation half of a value-numbering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyOp {
    Bin(BinOp),
    Un(UnOp),
    Load,
}

/// Canonical operand for value numbering. Registers are paired with a
/// version so redefinition invalidates stale entries. The derived order
/// only sorts commutative operand pairs, and any total order makes
/// `a op b` and `b op a` the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum KeyVal {
    R(VReg, u32),
    CI(i64),
    CF(u64), // bits, so NaN keys behave
}

/// A value-numbering key: the operation and its operands (a unary
/// operation pads the second with `CI(0)`).
type CseKey = (KeyOp, KeyVal, KeyVal);

fn key_val(v: Val, versions: &HashMap<VReg, u32>) -> KeyVal {
    match v {
        Val::R(r) => KeyVal::R(r, versions.get(&r).copied().unwrap_or(0)),
        Val::CI(i) => KeyVal::CI(i),
        Val::CF(x) => KeyVal::CF(x.to_bits()),
    }
}

/// The live plain-load keys of a block's value table, indexed by address
/// so a store or synchronizing reference kills exactly the loads it may
/// alias without scanning every live expression.
#[derive(Default)]
struct LoadIndex {
    /// Loads from a constant address (`base + off`), by that address.
    by_addr: HashMap<i64, Vec<CseKey>>,
    /// Loads whose address is not a constant.
    dynamic: Vec<CseKey>,
}

impl LoadIndex {
    fn add(&mut self, key: CseKey) {
        match key {
            (_, KeyVal::CI(b), KeyVal::CI(o)) => {
                self.by_addr.entry(b.wrapping_add(o)).or_default().push(key)
            }
            _ => self.dynamic.push(key),
        }
    }

    /// Removes and returns the keys a store to `addr` (`None`: an unknown
    /// address, or a synchronizing reference) may alias.
    fn kill(&mut self, addr: Option<i64>) -> Vec<CseKey> {
        let mut dead = std::mem::take(&mut self.dynamic);
        match addr {
            Some(a) => dead.extend(self.by_addr.remove(&a).unwrap_or_default()),
            None => dead.extend(self.by_addr.drain().flat_map(|(_, keys)| keys)),
        }
        dead
    }
}

/// Block-local common subexpression elimination, including redundant plain
/// loads (invalidated conservatively by stores and synchronizing
/// references).
pub fn cse(f: &mut Func) -> bool {
    let defs = def_counts(f);
    let mut changed = false;
    for b in &mut f.blocks {
        // key -> (dst, dst version at record time, def index)
        let mut exprs: HashMap<CseKey, (VReg, u32, usize)> = HashMap::new();
        // Exactly the load keys live in `exprs`.
        let mut loads = LoadIndex::default();
        let mut versions: HashMap<VReg, u32> = HashMap::new();
        for idx in 0..b.insts.len() {
            let i = &b.insts[idx];
            let key = match &i.kind {
                InstKind::Bin { op, a, b } => {
                    let (mut ka, mut kb) = (key_val(*a, &versions), key_val(*b, &versions));
                    // Canonical operand order for commutative ops.
                    if op.commutes() && ka > kb {
                        std::mem::swap(&mut ka, &mut kb);
                    }
                    Some((KeyOp::Bin(*op), ka, kb))
                }
                InstKind::Un { op, a } if *op != UnOp::Mov => {
                    Some((KeyOp::Un(*op), key_val(*a, &versions), KeyVal::CI(0)))
                }
                InstKind::Load {
                    flavor: LoadFlavor::Plain,
                    base,
                    off,
                } => Some((
                    KeyOp::Load,
                    key_val(*base, &versions),
                    key_val(*off, &versions),
                )),
                _ => None,
            };
            let mut replaced = false;
            if let (Some(key), Some(dst)) = (&key, i.dst) {
                // Replace only single-def temporaries: rebinding a mutable
                // variable must keep its own definition.
                if defs[dst.0 as usize] == 1 {
                    if let Some(&(prev, pv, di)) = exprs.get(key) {
                        if versions.get(&prev).copied().unwrap_or(0) == pv {
                            b.insts[idx].kind = InstKind::Un {
                                op: UnOp::Mov,
                                a: Val::R(prev),
                            };
                            // The surviving definition now realizes the
                            // replaced computation's source spans too.
                            let dead_prov = b.insts[idx].prov.clone();
                            crate::ir::prov_merge(&mut b.insts[di].prov, &dead_prov);
                            changed = true;
                            replaced = true;
                        }
                    }
                }
            }
            let i = &b.insts[idx];
            // Stores and synchronizing references invalidate load entries:
            // a plain store to a known address kills the loads of that
            // address and the dynamic ones, anything else kills them all.
            if matches!(i.kind, InstKind::Store { .. }) || i.kind.is_sync() {
                let addr = match &i.kind {
                    InstKind::Store {
                        base: Val::CI(b_),
                        off: Val::CI(o),
                        ..
                    } if !i.kind.is_sync() => Some(b_.wrapping_add(*o)),
                    _ => None,
                };
                for dead in loads.kill(addr) {
                    exprs.remove(&dead);
                }
            }
            if let Some(d) = i.dst {
                *versions.entry(d).or_insert(0) += 1;
                if !replaced {
                    if let Some(key) = key {
                        let v = versions[&d];
                        let fresh = exprs.insert(key, (d, v, idx)).is_none();
                        if fresh && key.0 == KeyOp::Load {
                            loads.add(key);
                        }
                    }
                }
            }
        }
    }
    changed
}

/// Propagates `Mov` copies whose source is a constant or a single-def
/// register, within each block.
pub fn copy_propagate(f: &mut Func) -> bool {
    let defs = def_counts(f);
    let mut changed = false;
    for b in &mut f.blocks {
        let mut copy: HashMap<VReg, Val> = HashMap::new();
        // Source register -> copies recorded from it (some may since have
        // been overwritten; `copy` is the authority).
        let mut copies_of: HashMap<VReg, Vec<VReg>> = HashMap::new();
        let subst = |v: &mut Val, copy: &HashMap<VReg, Val>, ch: &mut bool| {
            if let Val::R(r) = v {
                if let Some(c) = copy.get(r) {
                    *v = *c;
                    *ch = true;
                }
            }
        };
        for i in &mut b.insts {
            match &mut i.kind {
                InstKind::Un { a, .. } => subst(a, &copy, &mut changed),
                InstKind::Bin { a, b, .. } => {
                    subst(a, &copy, &mut changed);
                    subst(b, &copy, &mut changed);
                }
                InstKind::Load { base, off, .. } => {
                    subst(base, &copy, &mut changed);
                    subst(off, &copy, &mut changed);
                }
                InstKind::Store { base, off, val, .. } => {
                    subst(base, &copy, &mut changed);
                    subst(off, &copy, &mut changed);
                    subst(val, &copy, &mut changed);
                }
                InstKind::Fork { args, .. } => {
                    for a in args {
                        subst(a, &copy, &mut changed);
                    }
                }
                InstKind::Probe { .. } => {}
            }
            if let Some(d) = i.dst {
                // Invalidate copies flowing through a redefined source.
                for c in copies_of.remove(&d).unwrap_or_default() {
                    if copy.get(&c) == Some(&Val::R(d)) {
                        copy.remove(&c);
                    }
                }
                copy.remove(&d);
                if let InstKind::Un { op: UnOp::Mov, a } = &i.kind {
                    let src_ok = match a {
                        Val::R(r) => defs[r.0 as usize] == 1 && *r != d,
                        _ => true,
                    };
                    if defs[d.0 as usize] == 1 && src_ok {
                        copy.insert(d, *a);
                        if let Val::R(r) = a {
                            copies_of.entry(*r).or_default().push(d);
                        }
                    }
                }
            }
        }
        if let Term::Br { cond, .. } = &mut b.term {
            subst(cond, &copy, &mut changed);
        }
    }
    changed
}

/// Removes pure instructions (and plain loads) whose results are never
/// used anywhere in the function.
pub fn dce(f: &mut Func) -> bool {
    let mut used = vec![false; f.types.len()];
    for b in &f.blocks {
        for i in &b.insts {
            for v in i.kind.reads() {
                if let Some(r) = v.reg() {
                    used[r.0 as usize] = true;
                }
            }
        }
        if let Term::Br { cond, .. } = b.term {
            if let Some(r) = cond.reg() {
                used[r.0 as usize] = true;
            }
        }
    }
    for p in &f.params {
        used[p.0 as usize] = true;
    }
    let mut changed = false;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|i| {
            let removable = match &i.kind {
                k if k.is_pure() => true,
                InstKind::Load {
                    flavor: LoadFlavor::Plain,
                    ..
                } => true,
                _ => false,
            };
            !(removable && i.dst.is_some_and(|d| !used[d.0 as usize]))
        });
        changed |= b.insts.len() != before;
    }
    changed
}

/// Runs all passes plus, optionally, loop-invariant code motion — the
/// kind of cross-block code motion the paper's compiler deliberately
/// lacks ("does not schedule or move code across basic block
/// boundaries"), provided here as the §7 "better compilation" extension.
pub fn optimize_with(f: &mut Func, licm_enabled: bool) {
    for _ in 0..8 {
        let mut changed = false;
        changed |= fold_and_propagate(f);
        changed |= algebraic(f);
        changed |= cse(f);
        // Coalesce before copy propagation: propagating a copied value
        // into its same-block uses would destroy the single-use property
        // coalescing needs (`ld tmp; mov var<-tmp` must become `ld var`).
        changed |= coalesce_copies(f);
        changed |= copy_propagate(f);
        if licm_enabled {
            changed |= licm(f);
        }
        changed |= dce(f);
        if !changed {
            break;
        }
    }
}

/// Predecessor map over explicit terminator edges.
fn preds_of(f: &Func) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        match b.term {
            Term::Jump(t) => preds[t].push(bi),
            Term::Br { then_, else_, .. } => {
                preds[then_].push(bi);
                if else_ != then_ {
                    preds[else_].push(bi);
                }
            }
            Term::Halt => {}
        }
    }
    preds
}

/// The natural loop of the back edge `latch -> head`: every block that
/// reaches `latch` without passing through `head`, plus `head`.
fn natural_loop(preds: &[Vec<usize>], head: usize, latch: usize) -> Vec<usize> {
    let mut in_loop = vec![false; preds.len()];
    in_loop[head] = true;
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if in_loop[b] {
            continue;
        }
        in_loop[b] = true;
        for &p in &preds[b] {
            work.push(p);
        }
    }
    (0..preds.len()).filter(|&b| in_loop[b]).collect()
}

/// Iterative dominator sets over the explicit CFG (small functions; a
/// bitset-per-block fixpoint is plenty).
fn dominators(f: &Func, preds: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let n = f.blocks.len();
    let mut dom = vec![vec![true; n]; n];
    dom[0] = vec![false; n];
    dom[0][0] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            // dom(b) = {b} ∪ ⋂ dom(p) over predecessors p.
            let mut new = if preds[b].is_empty() {
                // Unreachable from entry: keep "all" (harmless).
                continue;
            } else {
                vec![true; n]
            };
            for &p in &preds[b] {
                for (i, slot) in new.iter_mut().enumerate() {
                    *slot = *slot && dom[p][i];
                }
            }
            new[b] = true;
            if new != dom[b] {
                dom[b] = new;
                changed = true;
            }
        }
    }
    dom
}

/// Loop-invariant code motion: hoists pure single-def ALU operations
/// whose operands are defined outside the loop into the loop's unique
/// preheader. Division is never hoisted (a zero divisor must keep its
/// control dependence); loads are never hoisted (no alias analysis
/// strong enough here).
pub fn licm(f: &mut Func) -> bool {
    let preds = preds_of(f);
    // Back edges by DOMINANCE: latch -> head where head dominates latch.
    // (A plain block-index test misclassifies rotated regions and would
    // hoist definitions into blocks that don't precede their uses.)
    let dom = dominators(f, &preds);
    let mut back_edges = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut note = |t: usize| {
            if dom[bi][t] {
                back_edges.push((t, bi));
            }
        };
        match b.term {
            Term::Jump(t) => note(t),
            Term::Br { then_, else_, .. } => {
                note(then_);
                note(else_);
            }
            Term::Halt => {}
        }
    }
    let defs = def_counts(f);
    let mut changed = false;
    for (head, latch) in back_edges {
        let blocks = natural_loop(&preds, head, latch);
        // Unique preheader: the single predecessor of head outside the loop.
        let outside: Vec<usize> = preds[head]
            .iter()
            .copied()
            .filter(|p| !blocks.contains(p))
            .collect();
        let [pre] = outside[..] else { continue };
        // The scheduler assigns register homes in block-index order and
        // relies on definitions textually preceding uses. After constant
        // branches fold, flow can enter or wrap through later-laid-out
        // blocks; hoist only when the preheader textually precedes every
        // block of the loop.
        if blocks.iter().any(|&b| pre >= b) {
            continue;
        }
        // Registers defined anywhere in the loop.
        let mut defined = std::collections::HashSet::new();
        for &b in &blocks {
            for i in &f.blocks[b].insts {
                if let Some(d) = i.dst {
                    defined.insert(d);
                }
            }
        }
        // Hoist to a fixpoint (chains of invariants).
        loop {
            let mut hoisted = Vec::new();
            for &b in &blocks {
                for (ii, inst) in f.blocks[b].insts.iter().enumerate() {
                    let pure = matches!(inst.kind, InstKind::Bin { .. } | InstKind::Un { .. })
                        && !matches!(
                            inst.kind,
                            InstKind::Bin { op: BinOp::Div, .. }
                                | InstKind::Bin { op: BinOp::Rem, .. }
                                | InstKind::Bin {
                                    op: BinOp::Fdiv,
                                    ..
                                }
                        );
                    let Some(d) = inst.dst else { continue };
                    let invariant = pure
                        && defs[d.0 as usize] == 1
                        && inst
                            .kind
                            .reads()
                            .iter()
                            .all(|v| v.reg().map(|r| !defined.contains(&r)).unwrap_or(true));
                    if invariant {
                        hoisted.push((b, ii));
                        break; // indices shift; one hoist per block per round
                    }
                }
            }
            if hoisted.is_empty() {
                break;
            }
            for (b, ii) in hoisted {
                let inst = f.blocks[b].insts.remove(ii);
                if let Some(d) = inst.dst {
                    defined.remove(&d);
                }
                f.blocks[pre].insts.push(inst);
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::expand;
    use crate::ir::Inst;
    use crate::lower::{lower, LowerOptions};

    fn ir_main(src: &str) -> Func {
        let mut p = lower(&expand(src).unwrap(), LowerOptions::default()).unwrap();
        p.funcs.remove(0)
    }

    fn count_kind(f: &Func, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| pred(&i.kind))
            .count()
    }

    #[test]
    fn folds_constant_arithmetic_into_store() {
        let mut f = ir_main("(global a (array int 1)) (defun main () (aset a 0 (+ (* 2 3) 4)))");
        optimize(&mut f);
        // Everything folds; only the store remains.
        assert_eq!(f.inst_count(), 1);
        let InstKind::Store { val, .. } = &f.blocks[0].insts[0].kind else {
            panic!()
        };
        assert_eq!(*val, Val::CI(10));
    }

    #[test]
    fn propagates_through_unrolled_loop_variable() {
        let mut f = ir_main(
            "(global a (array int 4))
             (defun main () (for (i 0 4) :unroll full (aset a i (* i 2))))",
        );
        optimize(&mut f);
        // All index arithmetic folds to constants: 4 stores remain.
        assert_eq!(f.inst_count(), 4);
        for (k, i) in f.blocks[0].insts.iter().enumerate() {
            let InstKind::Store { off, val, .. } = &i.kind else {
                panic!()
            };
            assert_eq!(*off, Val::CI(k as i64));
            assert_eq!(*val, Val::CI(2 * k as i64));
        }
    }

    #[test]
    fn cse_eliminates_redundant_index_calculation() {
        let mut f = ir_main(
            "(global a (array float 100)) (global b (array float 100))
             (defun main ()
               (let ((i 3) (j 4))
                 (set i (+ i j)) ; make i genuinely dynamic? still folds...
                 (aset a (+ (* i 9) j) 1.0)
                 (aset b (+ (* i 9) j) 2.0)))",
        );
        // Defeat full folding by loading i from memory.
        let mut f2 = ir_main(
            "(global a (array float 200)) (global b (array float 200)) (global n int)
             (defun main ()
               (let ((i n) (j n))
                 (aset a (+ (* i 9) j) 1.0)
                 (aset b (+ (* i 9) j) 2.0)))",
        );
        optimize(&mut f);
        optimize(&mut f2);
        // In f2 the (* i 9) and (+ .. j) should each appear once.
        let muls = count_kind(&f2, |k| matches!(k, InstKind::Bin { op: BinOp::Mul, .. }));
        let adds = count_kind(&f2, |k| matches!(k, InstKind::Bin { op: BinOp::Add, .. }));
        assert_eq!(muls, 1);
        assert_eq!(adds, 1);
    }

    #[test]
    fn load_cse_with_store_invalidation() {
        let mut f = ir_main(
            "(global a (array float 8)) (global out (array float 8))
             (defun main ()
               (aset out 0 (+ (aref a 0) (aref a 0)))  ; second load redundant
               (aset a 0 9.9)                           ; kills the value
               (aset out 1 (aref a 0)))",
        );
        optimize(&mut f);
        let loads = count_kind(&f, |k| matches!(k, InstKind::Load { .. }));
        // 1 load before the store + 1 reload after.
        assert_eq!(loads, 2);
    }

    #[test]
    fn store_to_other_address_does_not_kill_load() {
        let mut f = ir_main(
            "(global a (array float 8)) (global out (array float 8))
             (defun main ()
               (aset out 3 (aref a 0))
               (aset a 1 9.9)          ; distinct constant address
               (aset out 4 (aref a 0)))",
        );
        optimize(&mut f);
        let loads = count_kind(&f, |k| matches!(k, InstKind::Load { .. }));
        assert_eq!(loads, 1);
    }

    #[test]
    fn algebraic_identities() {
        let mut f = ir_main(
            "(global a (array int 8)) (global n int)
             (defun main ()
               (let ((x n))
                 (aset a 0 (+ x 0))
                 (aset a 1 (* x 1))
                 (aset a 2 (* x 0))))",
        );
        optimize(&mut f);
        // No arithmetic survives: x+0 -> x, x*1 -> x, x*0 -> 0.
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Bin { .. })), 0);
    }

    #[test]
    fn dce_removes_unused_pure_chains() {
        let mut f = ir_main(
            "(global n int)
             (defun main () (let ((x (+ n 1)) (y (* n 2))) (set n x)))",
        );
        optimize(&mut f);
        // y's multiply is dead.
        assert_eq!(
            count_kind(&f, |k| matches!(k, InstKind::Bin { op: BinOp::Mul, .. })),
            0
        );
    }

    #[test]
    fn sync_loads_are_never_dce_d() {
        let mut f = ir_main("(global f (array float 2)) (defun main () (consume f 0))");
        optimize(&mut f);
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Load { .. })), 1);
    }

    #[test]
    fn constant_branch_becomes_jump() {
        let mut f = ir_main("(defun main () (if (< 1 2) (probe 1) (probe 2)))");
        optimize(&mut f);
        assert!(f.blocks.iter().all(|b| !matches!(b.term, Term::Br { .. })));
        // probe 2 is unreachable but harmless (left to emission's layout).
    }

    #[test]
    fn variable_rebinding_not_csed() {
        // x is assigned twice; the second Add writes the same variable and
        // must not be replaced by the first.
        let mut f = ir_main(
            "(global n int) (global out (array int 4))
             (defun main ()
               (let ((x (+ n 1)))
                 (aset out 0 x)
                 (set x (+ n 1))
                 (aset out 1 x)))",
        );
        optimize(&mut f);
        // Two stores remain and the program is still well-formed; the
        // value may be CSE'd into one add feeding both, which is fine —
        // what matters is both stores survive.
        assert_eq!(count_kind(&f, |k| matches!(k, InstKind::Store { .. })), 2);
    }

    #[test]
    fn licm_hoists_invariant_address_math() {
        let mut f = ir_main(
            "(global a (array float 4096)) (global n int)
             (defun main ()
               (let ((i n))
                 (for (j 0 64)
                   (aset a (+ (* i 64) j) 1.0))))",
        );
        optimize_with(&mut f, true);
        // (* i 64) is loop-invariant: after LICM no Mul remains in the
        // loop body (the block that stores).
        for b in &f.blocks {
            let has_store = b
                .insts
                .iter()
                .any(|i| matches!(i.kind, InstKind::Store { .. }));
            if has_store {
                assert!(
                    !b.insts
                        .iter()
                        .any(|i| matches!(i.kind, InstKind::Bin { op: BinOp::Mul, .. })),
                    "multiply left inside the loop body"
                );
            }
        }
    }

    #[test]
    fn licm_never_hoists_division() {
        // n may be zero at runtime; the division must keep its control
        // dependence on the loop trip.
        let mut f = ir_main(
            "(global a (array int 8)) (global n int) (global m int)
             (defun main ()
               (let ((d n) (q m))
                 (for (j 0 8)
                   (if (!= d 0)
                     (aset a j (/ q d))))))",
        );
        let before = format!("{f}");
        let changed_div = {
            optimize_with(&mut f, true);
            // The Div stays inside its guarded block.
            f.blocks.iter().enumerate().any(|(bi, b)| {
                b.insts
                    .iter()
                    .any(|i| matches!(i.kind, InstKind::Bin { op: BinOp::Div, .. }))
                    && bi == 0
            })
        };
        assert!(
            !changed_div,
            "division hoisted to entry:
before:
{before}
after:
{f}"
        );
    }

    #[test]
    fn licm_is_off_by_default_pipeline() {
        // optimize() (no licm) leaves the invariant multiply in the loop.
        let mut f = ir_main(
            "(global a (array float 4096)) (global n int)
             (defun main ()
               (let ((i n))
                 (for (j 0 64)
                   (aset a (+ (* i 64) j) 1.0))))",
        );
        optimize(&mut f);
        let muls_in_store_blocks = f
            .blocks
            .iter()
            .filter(|b| {
                b.insts
                    .iter()
                    .any(|i| matches!(i.kind, InstKind::Store { .. }))
            })
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::Bin { op: BinOp::Mul, .. }))
            .count();
        assert!(
            muls_in_store_blocks > 0,
            "paper-faithful compiler should not hoist"
        );
    }

    /// A one-block function over the given instructions, with `regs`
    /// fresh integer registers for them to use.
    fn block_func(regs: usize, insts: impl FnOnce(&[VReg]) -> Vec<Inst>) -> Func {
        let mut f = Func::new("t", 0);
        let r: Vec<VReg> = (0..regs).map(|_| f.fresh(crate::ast::Ty::Int)).collect();
        f.blocks[0].insts = insts(&r);
        f
    }

    fn load(base: Val, off: Val, dst: VReg) -> Inst {
        Inst::new(
            InstKind::Load {
                flavor: LoadFlavor::Plain,
                base,
                off,
            },
            Some(dst),
        )
    }

    fn store(base: Val, off: Val, val: Val) -> Inst {
        Inst::new(
            InstKind::Store {
                flavor: pc_isa::StoreFlavor::Plain,
                base,
                off,
                val,
            },
            None,
        )
    }

    fn bin(op: BinOp, a: Val, b: Val, dst: VReg) -> Inst {
        Inst::new(InstKind::Bin { op, a, b }, Some(dst))
    }

    fn is_load(i: &Inst) -> bool {
        matches!(i.kind, InstKind::Load { .. })
    }

    #[test]
    fn cse_store_kills_loads_of_the_same_address_through_any_base_offset_pair() {
        use Val::{CI, R};
        let mut f = block_func(4, |r| {
            vec![
                load(CI(10), CI(2), r[0]),
                load(CI(8), CI(4), r[1]),
                store(CI(0), CI(12), CI(7)),
                load(CI(10), CI(2), r[2]),
                load(CI(8), CI(4), r[3]),
            ]
        });
        cse(&mut f);
        let insts = &f.blocks[0].insts;
        assert!(is_load(&insts[3]) && is_load(&insts[4]), "{f}");
        // A store elsewhere keeps both.
        let mut g = block_func(4, |r| {
            vec![
                load(CI(10), CI(2), r[0]),
                load(CI(8), CI(4), r[1]),
                store(CI(0), CI(13), CI(7)),
                load(CI(10), CI(2), r[2]),
                load(CI(8), CI(4), r[3]),
            ]
        });
        assert!(cse(&mut g));
        let insts = &g.blocks[0].insts;
        assert_eq!(
            insts[3].kind,
            InstKind::Un {
                op: UnOp::Mov,
                a: R(insts[0].dst.unwrap())
            }
        );
        assert_eq!(
            insts[4].kind,
            InstKind::Un {
                op: UnOp::Mov,
                a: R(insts[1].dst.unwrap())
            }
        );
    }

    #[test]
    fn cse_dynamic_store_kills_constant_address_loads() {
        use Val::{CI, R};
        let mut f = block_func(4, |r| {
            vec![
                load(CI(100), CI(0), r[0]),
                load(CI(0), CI(5), r[1]),
                store(R(r[0]), CI(0), CI(1)),
                load(CI(0), CI(5), r[2]),
                load(CI(100), CI(0), r[3]),
            ]
        });
        assert!(!cse(&mut f));
        assert!(
            f.blocks[0].insts.iter().filter(|i| is_load(i)).count() == 4,
            "{f}"
        );
    }

    #[test]
    fn cse_sync_reference_kills_every_load() {
        use Val::{CI, R};
        let mut f = block_func(6, |r| {
            vec![
                load(CI(0), CI(5), r[0]),
                load(R(r[0]), CI(1), r[1]),
                Inst::new(
                    InstKind::Load {
                        flavor: LoadFlavor::Consume,
                        base: CI(50),
                        off: CI(0),
                    },
                    Some(r[2]),
                ),
                load(CI(0), CI(5), r[3]),
                load(R(r[0]), CI(1), r[4]),
            ]
        });
        assert!(!cse(&mut f));
        assert!(f.blocks[0].insts.iter().all(is_load), "{f}");
    }

    #[test]
    fn cse_matches_commutative_operands_in_either_order() {
        use Val::{CF, CI, R};
        let mut f = Func::new("t", 0);
        let x = f.fresh(crate::ast::Ty::Int);
        let y = f.fresh(crate::ast::Ty::Float);
        let d: Vec<VReg> = (0..8).map(|_| f.fresh(crate::ast::Ty::Int)).collect();
        f.blocks[0].insts = vec![
            load(CI(0), CI(0), x),
            load(CI(0), CI(1), y),
            bin(BinOp::Add, R(x), CI(-3), d[0]),
            bin(BinOp::Add, CI(-3), R(x), d[1]),
            bin(BinOp::Mul, CI(-4), CI(6), d[2]),
            bin(BinOp::Mul, CI(6), CI(-4), d[3]),
            bin(BinOp::Fadd, R(y), CF(-2.5), d[4]),
            bin(BinOp::Fadd, CF(-2.5), R(y), d[5]),
            // Not commutative: the swapped operands are a new value.
            bin(BinOp::Sub, R(x), CI(-3), d[6]),
            bin(BinOp::Sub, CI(-3), R(x), d[7]),
        ];
        assert!(cse(&mut f));
        let insts = &f.blocks[0].insts;
        for k in [3, 5, 7] {
            assert_eq!(
                insts[k].kind,
                InstKind::Un {
                    op: UnOp::Mov,
                    a: R(insts[k - 1].dst.unwrap())
                },
                "{f}"
            );
        }
        assert!(
            matches!(insts[9].kind, InstKind::Bin { op: BinOp::Sub, .. }),
            "{f}"
        );
    }

    #[test]
    fn copy_not_propagated_past_a_redefinition_of_its_source() {
        use Val::{CI, R};
        // `c = mov s` reads `s` before `s`'s one definition in the block
        // (the value of the previous trip): uses of `c` before that
        // definition may read `s`, uses after it must keep `c`.
        let mut f = block_func(4, |r| {
            let (s, c, u, v) = (r[0], r[1], r[2], r[3]);
            vec![
                Inst::new(
                    InstKind::Un {
                        op: UnOp::Mov,
                        a: R(s),
                    },
                    Some(c),
                ),
                bin(BinOp::Add, R(c), CI(1), u),
                load(CI(0), CI(0), s),
                bin(BinOp::Add, R(c), CI(2), v),
            ]
        });
        copy_propagate(&mut f);
        let r = |k: usize| VReg(k as u32);
        let insts = &f.blocks[0].insts;
        assert_eq!(
            insts[1].kind,
            InstKind::Bin {
                op: BinOp::Add,
                a: R(r(0)),
                b: CI(1)
            },
            "{f}"
        );
        assert_eq!(
            insts[3].kind,
            InstKind::Bin {
                op: BinOp::Add,
                a: R(r(1)),
                b: CI(2)
            },
            "{f}"
        );
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut f = ir_main(
            "(global a (array float 100)) (global n int)
             (defun main ()
               (for (i 0 3) :unroll full (aset a (* i 10) (float (* i i)))))",
        );
        optimize(&mut f);
        let snapshot = format!("{f}");
        optimize(&mut f);
        assert_eq!(snapshot, format!("{f}"));
    }
}
