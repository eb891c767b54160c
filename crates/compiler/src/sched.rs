//! Machine-dependent back end: cluster partitioning, communication (copy)
//! insertion, critical-path list scheduling into wide instruction rows,
//! virtual register assignment, and emission to [`pc_isa`] segments.
//!
//! Two modes reproduce the paper's compiler switch (§3):
//!
//! * [`ScheduleMode::Single`] — "each thread's code is scheduled on the
//!   function units of a single cluster" (used by the SEQ and TPE machine
//!   models); the cluster is picked by the function's load-balancing
//!   `variant`.
//! * [`ScheduleMode::Unrestricted`] — "each thread may use as many of the
//!   function units as it needs"; the compiler assigns an ordered list of
//!   clusters per thread (`variant` rotates it) and places operations to
//!   minimize communication.
//!
//! Values consumed in a cluster other than their producer's are routed
//! either by *retroactive second destinations* (an operation may name up
//! to `max_dsts` destination registers) or by explicit `mov` operations —
//! the "IU operations required to move … indices to remote memory units"
//! the paper observes.

use crate::error::{CompileError, Result};
use crate::ir::{Func, Inst, InstKind, IsaOp, Prov, Term, VReg, Val};
use pc_isa::{
    BranchOp, ClusterId, CodeSegment, FuId, InstWord, LoadFlavor, MachineConfig, OpKind, Operand,
    Operation, RegId, SegmentDebug, StoreFlavor, UnitClass,
};
use std::collections::HashMap;

/// Cluster-restriction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleMode {
    /// Pin each thread to one arithmetic cluster (chosen by variant).
    Single,
    /// Let each thread use every cluster, preference order rotated by
    /// variant.
    Unrestricted,
}

/// Per-function scheduling result.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// The emitted segment.
    pub segment: CodeSegment,
    /// Concrete registers receiving this function's parameters (used as
    /// `fork` argument destinations by callers).
    pub param_regs: Vec<RegId>,
    /// Per-slot provenance of the emitted rows (span ids index the
    /// program-wide span table built during lowering).
    pub debug: SegmentDebug,
}

/// One placement-ready operation.
#[derive(Debug, Clone)]
struct SOp {
    kind: SKind,
    cluster: ClusterId,
    class: UnitClass,
    latency: u32,
    reads: Vec<VReg>,
    writes: Vec<(VReg, ClusterId)>,
    /// `(is_store, is_sync, const_addr)` for memory ordering.
    mem: Option<(bool, bool, Option<i64>)>,
    /// Source spans this operation realizes (copies inherit them from the
    /// operation that made the routing necessary).
    prov: Prov,
}

#[derive(Debug, Clone)]
enum SKind {
    Alu {
        op: IsaOp,
        srcs: Vec<Val>,
    },
    Ld {
        flavor: LoadFlavor,
        base: Val,
        off: Val,
    },
    St {
        flavor: StoreFlavor,
        base: Val,
        off: Val,
        val: Val,
    },
    Fk {
        func: usize,
        args: Vec<Val>,
    },
    Pr {
        id: u32,
    },
}

/// Schedules one function.
///
/// `child_params` maps already-scheduled callee function indices to their
/// parameter registers (children are scheduled before parents).
///
/// # Errors
/// Unschedulable programs: a required unit class missing from the allowed
/// clusters, or an unroutable value.
pub fn schedule_func(
    f: &Func,
    config: &MachineConfig,
    mode: ScheduleMode,
    child_params: &HashMap<usize, Vec<RegId>>,
) -> Result<Scheduled> {
    let arith: Vec<ClusterId> = config.arith_clusters().collect();
    if arith.is_empty() {
        return Err(CompileError::new("machine has no arithmetic clusters"));
    }
    let branch: Vec<ClusterId> = config.branch_clusters().collect();
    if branch.is_empty() {
        return Err(CompileError::new("machine has no branch cluster"));
    }
    let order: Vec<ClusterId> = match mode {
        ScheduleMode::Single => vec![arith[f.variant % arith.len()]],
        ScheduleMode::Unrestricted => {
            let n = arith.len();
            (0..n).map(|i| arith[(i + f.variant) % n]).collect()
        }
    };
    let branch_cluster = branch[f.variant % branch.len()];

    let mut s = Scheduler {
        f,
        config,
        order,
        branch_cluster,
        homes: HashMap::new(),
        alloc: HashMap::new(),
        counters: vec![0; config.clusters().len()],
        child_params,
        vars: f.variables(),
    };

    // Parameters: fixed homes, allocated first so callers can name them.
    // Homes must be *movable* clusters (holding an integer or float unit)
    // so copies can route the value onward — some Figure 8 mix
    // configurations have memory-only clusters.
    let movable: Vec<ClusterId> = s
        .order
        .iter()
        .copied()
        .filter(|&c| s.cluster_has(c, UnitClass::Integer) || s.cluster_has(c, UnitClass::Float))
        .collect();
    let home_pool = if movable.is_empty() {
        s.order.clone()
    } else {
        movable
    };
    let mut param_regs = Vec::new();
    for (i, p) in f.params.iter().enumerate() {
        let home = home_pool[i % home_pool.len()];
        s.homes.insert(*p, home);
        param_regs.push(s.reg(*p, home));
    }

    // Per-block scheduling.
    let mut block_rows: Vec<Vec<InstWord>> = Vec::with_capacity(f.blocks.len());
    let mut block_provs: Vec<Vec<(u32, FuId, Prov)>> = Vec::with_capacity(f.blocks.len());
    for (bi, block) in f.blocks.iter().enumerate() {
        let next = bi + 1;
        let (rows, provs) = s.schedule_block(block, next)?;
        block_rows.push(rows);
        block_provs.push(provs);
    }

    // Absolute row offsets; empty blocks resolve to the following row.
    let mut starts = Vec::with_capacity(block_rows.len());
    let mut at = 0u32;
    for rows in &block_rows {
        starts.push(at);
        at += rows.len() as u32;
    }
    // Fix up branch targets (currently block indices).
    let mut all_rows: Vec<InstWord> = Vec::with_capacity(at as usize);
    for rows in block_rows {
        for mut row in rows {
            let fixed = InstWord::from_slots(
                row.slots()
                    .iter()
                    .map(|(fu, op)| {
                        let mut op = op.clone();
                        if let OpKind::Branch(
                            BranchOp::Jmp { target } | BranchOp::Br { target, .. },
                        ) = &mut op.kind
                        {
                            *target = starts[*target as usize];
                        }
                        (*fu, op)
                    })
                    .collect(),
            );
            row = fixed;
            all_rows.push(row);
        }
    }

    // Map block-relative (row, unit) placements to (absolute row, slot
    // index) provenance records. Slot order within a row is preserved by
    // the branch-fixup rebuild above, so the unit's position in the final
    // row's slot list is the index the simulator reports.
    let mut debug = SegmentDebug::default();
    for (bi, provs) in block_provs.into_iter().enumerate() {
        for (row, fu, prov) in provs {
            let abs = starts[bi] + row;
            if let Some(slot) = all_rows[abs as usize]
                .slots()
                .iter()
                .position(|(f_, _)| *f_ == fu)
            {
                debug.record(abs, slot as u16, prov);
            }
        }
    }

    let mut segment = CodeSegment::new(f.name.clone());
    segment.rows = all_rows;
    segment.regs_per_cluster = s.counters;
    Ok(Scheduled {
        segment,
        param_regs,
        debug,
    })
}

struct Scheduler<'a> {
    f: &'a Func,
    config: &'a MachineConfig,
    order: Vec<ClusterId>,
    branch_cluster: ClusterId,
    homes: HashMap<VReg, ClusterId>,
    alloc: HashMap<(VReg, u16), u32>,
    counters: Vec<u32>,
    child_params: &'a HashMap<usize, Vec<RegId>>,
    vars: std::collections::HashSet<VReg>,
}

impl Scheduler<'_> {
    /// Concrete register for a value in a cluster.
    fn reg(&mut self, v: VReg, c: ClusterId) -> RegId {
        let idx = *self.alloc.entry((v, c.0)).or_insert_with(|| {
            let n = self.counters[c.0 as usize];
            self.counters[c.0 as usize] = n + 1;
            n
        });
        RegId::new(c, idx)
    }

    fn unit_latency(&self, c: ClusterId, class: UnitClass) -> u32 {
        self.config
            .units_in_cluster(c)
            .find(|u| u.class == class)
            .map(|u| u.latency)
            .unwrap_or(1)
    }

    fn cluster_has(&self, c: ClusterId, class: UnitClass) -> bool {
        self.config.units_in_cluster(c).any(|u| u.class == class)
    }

    /// Builds the placement-ready op list for a block (partitioning plus
    /// communication insertion), then list-schedules it into rows.
    /// Returns the rows plus, per placed op with provenance, its
    /// `(row, unit, span ids)` for the debug map.
    #[allow(clippy::type_complexity)]
    fn schedule_block(
        &mut self,
        block: &crate::ir::Block,
        next_block: usize,
    ) -> Result<(Vec<InstWord>, Vec<(u32, FuId, Prov)>)> {
        let max_dsts = self.config.max_dsts;
        let mut sops: Vec<SOp> = Vec::new();
        // Value availability within this block: clusters holding each value.
        let mut avail: HashMap<VReg, Vec<ClusterId>> = HashMap::new();
        // Defining sop (this block) per value, for retroactive destinations.
        let mut def_sop: HashMap<VReg, usize> = HashMap::new();
        // usage[cluster][class] load balancing counter.
        let mut usage: HashMap<(u16, UnitClass), usize> = HashMap::new();

        for inst in &block.insts {
            self.lower_inst(
                inst,
                max_dsts,
                &mut sops,
                &mut avail,
                &mut def_sop,
                &mut usage,
            )?;
        }

        // Terminator condition must reach the branch cluster.
        let cond_reg = match block.term {
            Term::Br {
                cond: Val::R(r), ..
            } => {
                self.ensure_local(
                    r,
                    self.branch_cluster,
                    max_dsts,
                    &mut sops,
                    &mut avail,
                    &mut def_sop,
                    &[],
                )?;
                Some(r)
            }
            _ => None,
        };

        // ---- Dependence DAG ------------------------------------------------
        let n = sops.len();
        let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        let mut preds: Vec<usize> = vec![0; n];
        {
            let mut writers: HashMap<(VReg, u16), usize> = HashMap::new();
            let mut readers: HashMap<(VReg, u16), Vec<usize>> = HashMap::new();
            let mut mem_idx: Vec<usize> = Vec::new();
            let mut last_fork: Option<usize> = None;
            let mut last_probe: Option<usize> = None;
            let edge = |succs: &mut Vec<Vec<(usize, u32)>>,
                        preds: &mut Vec<usize>,
                        from: usize,
                        to: usize,
                        w: u32| {
                if from != to && !succs[from].iter().any(|&(t, w0)| t == to && w0 >= w) {
                    succs[from].push((to, w));
                    preds[to] += 1;
                }
            };
            for (i, op) in sops.iter().enumerate() {
                for &r in &op.reads {
                    let loc = (r, op.cluster.0);
                    if let Some(&w) = writers.get(&loc) {
                        let lat = sops[w].latency;
                        edge(&mut succs, &mut preds, w, i, lat);
                    }
                    readers.entry(loc).or_default().push(i);
                }
                for &(v, c) in &op.writes {
                    let loc = (v, c.0);
                    if let Some(&w) = writers.get(&loc) {
                        let lat = sops[w].latency;
                        edge(&mut succs, &mut preds, w, i, lat);
                    }
                    if let Some(rs) = readers.get_mut(&loc) {
                        for &r in rs.iter() {
                            edge(&mut succs, &mut preds, r, i, 1);
                        }
                        rs.clear();
                    }
                    writers.insert(loc, i);
                }
                if let Some((is_store, is_sync, addr)) = op.mem {
                    for &j in &mem_idx {
                        let (js, jsync, jaddr) = sops[j].mem.expect("mem_idx holds mem ops");
                        let conflict =
                            is_sync || jsync || ((is_store || js) && may_alias(addr, jaddr));
                        if conflict {
                            edge(&mut succs, &mut preds, j, i, 1);
                        }
                    }
                    // Forks are memory fences both ways: at runtime a fork
                    // waits for the thread's outstanding references, so a
                    // later reference scheduled before the fork could
                    // deadlock it (e.g. a consume the forked child must
                    // satisfy).
                    if let Some(lf) = last_fork {
                        edge(&mut succs, &mut preds, lf, i, 1);
                    }
                    mem_idx.push(i);
                }
                match op.kind {
                    SKind::Fk { .. } => {
                        for &j in &mem_idx {
                            edge(&mut succs, &mut preds, j, i, 1);
                        }
                        if let Some(lf) = last_fork {
                            edge(&mut succs, &mut preds, lf, i, 1);
                        }
                        last_fork = Some(i);
                    }
                    SKind::Pr { .. } => {
                        if let Some(lp) = last_probe {
                            edge(&mut succs, &mut preds, lp, i, 1);
                        }
                        last_probe = Some(i);
                    }
                    _ => {}
                }
            }
        }

        // ---- Critical-path heights ----------------------------------------
        let mut height: Vec<u64> = vec![0; n];
        for i in (0..n).rev() {
            let mut h = sops[i].latency as u64;
            for &(t, w) in &succs[i] {
                h = h.max(w as u64 + height[t]);
            }
            height[i] = h;
        }

        // ---- List scheduling ------------------------------------------------
        let mut placed: Vec<Option<u32>> = vec![None; n];
        let mut earliest: Vec<u32> = vec![0; n];
        let mut remaining_preds = preds;
        let mut unplaced: Vec<usize> = (0..n).collect();
        let mut row: u32 = 0;
        let mut row_words: Vec<InstWord> = Vec::new();
        // Block-relative (row, unit) → provenance of the op placed there.
        let mut prov_at: Vec<(u32, FuId, Prov)> = Vec::new();
        while !unplaced.is_empty() {
            // Candidates ready at this row.
            let mut ready: Vec<usize> = unplaced
                .iter()
                .copied()
                .filter(|&i| remaining_preds[i] == 0 && earliest[i] <= row)
                .collect();
            ready.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));
            if row_words.len() as u32 <= row {
                row_words.resize(row as usize + 1, InstWord::new());
            }
            let mut used_units: Vec<FuId> = row_words[row as usize]
                .slots()
                .iter()
                .map(|(fu, _)| *fu)
                .collect();
            let mut placed_any = false;
            for i in ready {
                // A free unit of the required (cluster, class).
                let unit = self
                    .config
                    .units_in_cluster(sops[i].cluster)
                    .find(|u| u.class == sops[i].class && !used_units.contains(&u.id));
                let Some(unit) = unit else { continue };
                used_units.push(unit.id);
                let op = self.materialize(&sops[i])?;
                row_words[row as usize].push(unit.id, op);
                if !sops[i].prov.is_empty() {
                    prov_at.push((row, unit.id, sops[i].prov.clone()));
                }
                placed[i] = Some(row);
                placed_any = true;
                for &(t, w) in &succs[i] {
                    remaining_preds[t] -= 1;
                    earliest[t] = earliest[t].max(row + w);
                }
                unplaced.retain(|&x| x != i);
            }
            if !placed_any {
                row += 1;
            }
        }

        // ---- Terminator -----------------------------------------------------
        let last_op_row: Option<u32> = placed.iter().flatten().copied().max();
        let mut term_row = last_op_row.map(|r| r + 1).unwrap_or(0);
        // The condition must be able to issue: honour its producer's row.
        if let Some(c) = cond_reg {
            // Find the sop writing (c, branch_cluster).
            for (i, op) in sops.iter().enumerate() {
                if op
                    .writes
                    .iter()
                    .any(|&(v, cl)| v == c && cl == self.branch_cluster)
                {
                    let r = placed[i].expect("all sops placed") + op.latency;
                    term_row = term_row.max(r);
                }
            }
        }
        // Allow sharing the final row when the branch unit is free there.
        if term_row > 0 && !matches!(block.term, Term::Jump(t) if t == next_block) {
            let prev = term_row - 1;
            if last_op_row == Some(prev) {
                let branch_fu = self
                    .config
                    .units_in_cluster(self.branch_cluster)
                    .find(|u| u.class == UnitClass::Branch)
                    .map(|u| u.id);
                if let Some(fu) = branch_fu {
                    let free = row_words
                        .get(prev as usize)
                        .map(|w| w.op_on(fu).is_none())
                        .unwrap_or(true);
                    let cond_ok = cond_reg.is_none()
                        || term_row.saturating_sub(1)
                            >= cond_ready_row(&sops, &placed, cond_reg, self.branch_cluster);
                    if free && cond_ok {
                        term_row = prev;
                    }
                }
            }
        }

        let branch_fu = self
            .config
            .units_in_cluster(self.branch_cluster)
            .find(|u| u.class == UnitClass::Branch)
            .expect("branch cluster has a branch unit")
            .id;

        let push_branch = |rows: &mut Vec<InstWord>, at: u32, op: Operation| {
            if rows.len() as u32 <= at {
                rows.resize(at as usize + 1, InstWord::new());
            }
            rows[at as usize].push(branch_fu, op);
        };

        match block.term {
            Term::Halt => {
                push_branch(
                    &mut row_words,
                    term_row,
                    Operation::new(OpKind::Branch(BranchOp::Halt), vec![], vec![]),
                );
            }
            Term::Jump(t) => {
                if t != next_block {
                    push_branch(
                        &mut row_words,
                        term_row,
                        Operation::new(
                            OpKind::Branch(BranchOp::Jmp { target: t as u32 }),
                            vec![],
                            vec![],
                        ),
                    );
                }
            }
            Term::Br { cond, then_, else_ } => {
                let cond_operand = match cond {
                    Val::R(r) => Operand::Reg(self.reg(r, self.branch_cluster)),
                    Val::CI(i) => Operand::ImmInt(i),
                    Val::CF(_) => {
                        return Err(CompileError::new("float branch condition"));
                    }
                };
                if then_ == next_block {
                    push_branch(
                        &mut row_words,
                        term_row,
                        Operation::new(
                            OpKind::Branch(BranchOp::Br {
                                on_true: false,
                                target: else_ as u32,
                            }),
                            vec![cond_operand],
                            vec![],
                        ),
                    );
                } else if else_ == next_block {
                    push_branch(
                        &mut row_words,
                        term_row,
                        Operation::new(
                            OpKind::Branch(BranchOp::Br {
                                on_true: true,
                                target: then_ as u32,
                            }),
                            vec![cond_operand],
                            vec![],
                        ),
                    );
                } else {
                    push_branch(
                        &mut row_words,
                        term_row,
                        Operation::new(
                            OpKind::Branch(BranchOp::Br {
                                on_true: true,
                                target: then_ as u32,
                            }),
                            vec![cond_operand],
                            vec![],
                        ),
                    );
                    push_branch(
                        &mut row_words,
                        term_row + 1,
                        Operation::new(
                            OpKind::Branch(BranchOp::Jmp {
                                target: else_ as u32,
                            }),
                            vec![],
                            vec![],
                        ),
                    );
                }
            }
        }
        Ok((row_words, prov_at))
    }

    /// Partitions one IR instruction onto a cluster and appends its SOp,
    /// inserting communication as needed.
    fn lower_inst(
        &mut self,
        inst: &Inst,
        max_dsts: usize,
        sops: &mut Vec<SOp>,
        avail: &mut HashMap<VReg, Vec<ClusterId>>,
        def_sop: &mut HashMap<VReg, usize>,
        usage: &mut HashMap<(u16, UnitClass), usize>,
    ) -> Result<()> {
        let (class, kind) = match &inst.kind {
            InstKind::Un { op, a } => {
                let isa = op.isa();
                (
                    isa.unit_class(),
                    SKind::Alu {
                        op: isa,
                        srcs: vec![*a],
                    },
                )
            }
            InstKind::Bin { op, a, b } => {
                let isa = op.isa();
                (
                    isa.unit_class(),
                    SKind::Alu {
                        op: isa,
                        srcs: vec![*a, *b],
                    },
                )
            }
            InstKind::Load { flavor, base, off } => (
                UnitClass::Memory,
                SKind::Ld {
                    flavor: *flavor,
                    base: *base,
                    off: *off,
                },
            ),
            InstKind::Store {
                flavor,
                base,
                off,
                val,
            } => (
                UnitClass::Memory,
                SKind::St {
                    flavor: *flavor,
                    base: *base,
                    off: *off,
                    val: *val,
                },
            ),
            InstKind::Fork { func, args } => (
                UnitClass::Branch,
                SKind::Fk {
                    func: *func,
                    args: args.clone(),
                },
            ),
            InstKind::Probe { id } => (UnitClass::Branch, SKind::Pr { id: *id }),
        };

        let reads: Vec<VReg> = inst.kind.reads().iter().filter_map(Val::reg).collect();

        // Cluster choice.
        let cluster = if class == UnitClass::Branch {
            self.branch_cluster
        } else {
            let mut best: Option<(i64, ClusterId)> = None;
            for (oi, &c) in self.order.iter().enumerate() {
                if !self.cluster_has(c, class) {
                    continue;
                }
                // Memory units are the scarce, contended resource: loads
                // and stores prefer to spread across clusters even at the
                // cost of moving an address. ALU chains prefer locality —
                // a copy costs a whole operation plus a cycle on the
                // dependence chain.
                let (w_local, w_usage) = if class == UnitClass::Memory {
                    (1, 2)
                } else {
                    (4, 1)
                };
                let mut score: i64 = 0;
                for r in &reads {
                    let here = avail
                        .get(r)
                        .map(|v| v.contains(&c))
                        .unwrap_or_else(|| self.homes.get(r) == Some(&c));
                    if here {
                        score += w_local;
                    }
                }
                if let Some(d) = inst.dst {
                    if self.vars.contains(&d) && self.homes.get(&d) == Some(&c) {
                        score += 2;
                    }
                }
                score -= w_usage * *usage.get(&(c.0, class)).unwrap_or(&0) as i64;
                score -= oi as i64 / 4; // mild preference for earlier clusters
                if best.map(|(s, _)| score > s).unwrap_or(true) {
                    best = Some((score, c));
                }
            }
            best.map(|(_, c)| c).ok_or_else(|| {
                CompileError::new(format!(
                    "no {class} unit available to schedule {} ({})",
                    self.f.name, "check the machine configuration"
                ))
            })?
        };
        *usage.entry((cluster.0, class)).or_insert(0) += 1;

        // Route operands to the chosen cluster.
        for r in &reads {
            self.ensure_local(*r, cluster, max_dsts, sops, avail, def_sop, &inst.prov)?;
        }

        // Destinations: primary in `cluster`, variables also write home.
        let mut writes = Vec::new();
        if let Some(d) = inst.dst {
            writes.push((d, cluster));
            if self.vars.contains(&d) {
                // A variable's home must be a movable cluster so later
                // blocks can route it (memory-only clusters cannot source
                // copies).
                let movable = |me: &Self, c: ClusterId| {
                    me.cluster_has(c, UnitClass::Integer) || me.cluster_has(c, UnitClass::Float)
                };
                let default_home = if movable(self, cluster) {
                    cluster
                } else {
                    self.order
                        .iter()
                        .copied()
                        .find(|&c| movable(self, c))
                        .unwrap_or(cluster)
                };
                let home = *self.homes.entry(d).or_insert(default_home);
                if home != cluster && writes.len() < max_dsts {
                    writes.push((d, home));
                }
                // else: fixed below with an explicit copy.
            }
        }
        let mem = match &inst.kind {
            InstKind::Load { flavor, base, off } => {
                Some((false, *flavor != LoadFlavor::Plain, const_addr(*base, *off)))
            }
            InstKind::Store {
                flavor, base, off, ..
            } => Some((true, *flavor != StoreFlavor::Plain, const_addr(*base, *off))),
            _ => None,
        };

        let latency = self.unit_latency(cluster, class);
        let idx = sops.len();
        sops.push(SOp {
            kind,
            cluster,
            class,
            latency,
            reads,
            writes: writes.clone(),
            mem,
            prov: inst.prov.clone(),
        });
        if let Some(d) = inst.dst {
            avail.insert(d, writes.iter().map(|&(_, c)| c).collect());
            def_sop.insert(d, idx);
            // If the variable's home write didn't fit in max_dsts, copy.
            if self.vars.contains(&d) {
                let home = self.homes[&d];
                if !avail[&d].contains(&home) {
                    self.insert_copy(d, cluster, home, sops, avail, &inst.prov)?;
                }
            }
        }
        Ok(())
    }

    /// Guarantees value `r` is readable in cluster `c` within this block:
    /// already available, retroactive extra destination on its defining
    /// operation, or an explicit copy.
    #[allow(clippy::too_many_arguments)] // threads the block-local scheduling state
    fn ensure_local(
        &mut self,
        r: VReg,
        c: ClusterId,
        max_dsts: usize,
        sops: &mut Vec<SOp>,
        avail: &mut HashMap<VReg, Vec<ClusterId>>,
        def_sop: &mut HashMap<VReg, usize>,
        for_prov: &[u32],
    ) -> Result<()> {
        let entry = avail
            .entry(r)
            .or_insert_with(|| self.homes.get(&r).map(|h| vec![*h]).unwrap_or_default());
        if entry.is_empty() {
            return Err(CompileError::new(format!(
                "{}: value {r} used before any definition",
                self.f.name
            )));
        }
        if entry.contains(&c) {
            return Ok(());
        }
        if let Some(&di) = def_sop.get(&r) {
            if sops[di].writes.len() < max_dsts {
                sops[di].writes.push((r, c));
                entry.push(c);
                return Ok(());
            }
        }
        let src = entry.clone();
        // Copy from a cluster holding the value through an available mover.
        let from_iu = src
            .iter()
            .copied()
            .find(|&a| self.cluster_has(a, UnitClass::Integer));
        let (from, op, class) = if let Some(a) = from_iu {
            (a, IsaOp::I(pc_isa::IntOp::Mov), UnitClass::Integer)
        } else if let Some(a) = src
            .iter()
            .copied()
            .find(|&a| self.cluster_has(a, UnitClass::Float))
        {
            (a, IsaOp::F(pc_isa::FloatOp::Fmov), UnitClass::Float)
        } else {
            return Err(CompileError::new(format!(
                "{}: cannot route value {r} to {c}",
                self.f.name
            )));
        };
        let latency = self.unit_latency(from, class);
        // A routing copy attributes to the value's definition when it is in
        // this block, otherwise to the operation that needed the value.
        let prov = def_sop
            .get(&r)
            .map(|&di| sops[di].prov.clone())
            .filter(|p| !p.is_empty())
            .unwrap_or_else(|| for_prov.to_vec());
        sops.push(SOp {
            kind: SKind::Alu {
                op,
                srcs: vec![Val::R(r)],
            },
            cluster: from,
            class,
            latency,
            reads: vec![r],
            writes: vec![(r, c)],
            mem: None,
            prov,
        });
        avail.get_mut(&r).expect("entry created above").push(c);
        Ok(())
    }

    fn insert_copy(
        &mut self,
        r: VReg,
        from: ClusterId,
        to: ClusterId,
        sops: &mut Vec<SOp>,
        avail: &mut HashMap<VReg, Vec<ClusterId>>,
        prov: &[u32],
    ) -> Result<()> {
        let (src, op, class) = if self.cluster_has(from, UnitClass::Integer) {
            (from, IsaOp::I(pc_isa::IntOp::Mov), UnitClass::Integer)
        } else if self.cluster_has(from, UnitClass::Float) {
            (from, IsaOp::F(pc_isa::FloatOp::Fmov), UnitClass::Float)
        } else {
            return Err(CompileError::new(format!(
                "{}: cannot copy {r} from {from}",
                self.f.name
            )));
        };
        let latency = self.unit_latency(src, class);
        sops.push(SOp {
            kind: SKind::Alu {
                op,
                srcs: vec![Val::R(r)],
            },
            cluster: src,
            class,
            latency,
            reads: vec![r],
            writes: vec![(r, to)],
            mem: None,
            prov: prov.to_vec(),
        });
        avail.entry(r).or_default().push(to);
        Ok(())
    }

    /// Converts an SOp into a concrete ISA operation.
    fn materialize(&mut self, s: &SOp) -> Result<Operation> {
        let operand = |me: &mut Self, v: Val| -> Operand {
            match v {
                Val::R(r) => Operand::Reg(me.reg(r, s.cluster)),
                Val::CI(i) => Operand::ImmInt(i),
                Val::CF(x) => Operand::ImmFloat(x),
            }
        };
        let dsts: Vec<RegId> = s.writes.iter().map(|&(v, c)| self.reg(v, c)).collect();
        Ok(match &s.kind {
            SKind::Alu { op, srcs } => {
                let srcs: Vec<Operand> = srcs.iter().map(|&v| operand(self, v)).collect();
                match op {
                    IsaOp::I(i) => Operation::new(OpKind::Int(*i), srcs, dsts),
                    IsaOp::F(f) => Operation::new(OpKind::Float(*f), srcs, dsts),
                }
            }
            SKind::Ld { flavor, base, off } => {
                let b = operand(self, *base);
                let o = operand(self, *off);
                Operation::new(OpKind::Mem(pc_isa::MemOp::Load(*flavor)), vec![b, o], dsts)
            }
            SKind::St {
                flavor,
                base,
                off,
                val,
            } => {
                let b = operand(self, *base);
                let o = operand(self, *off);
                let v = operand(self, *val);
                Operation::new(
                    OpKind::Mem(pc_isa::MemOp::Store(*flavor)),
                    vec![b, o, v],
                    vec![],
                )
            }
            SKind::Fk { func, args } => {
                let srcs: Vec<Operand> = args.iter().map(|&v| operand(self, v)).collect();
                let params = self.child_params.get(func).ok_or_else(|| {
                    CompileError::new(format!(
                        "{}: fork target f{func} not yet scheduled",
                        self.f.name
                    ))
                })?;
                if params.len() != srcs.len() {
                    return Err(CompileError::new(format!(
                        "{}: fork passes {} args, target takes {}",
                        self.f.name,
                        srcs.len(),
                        params.len()
                    )));
                }
                Operation::new(
                    OpKind::Branch(BranchOp::Fork {
                        segment: pc_isa::SegmentId(*func as u32),
                        arg_dsts: params.clone(),
                    }),
                    srcs,
                    vec![],
                )
            }
            SKind::Pr { id } => {
                Operation::new(OpKind::Branch(BranchOp::Probe { id: *id }), vec![], vec![])
            }
        })
    }
}

fn const_addr(base: Val, off: Val) -> Option<i64> {
    Some(base.as_ci()? + off.as_ci()?)
}

fn may_alias(a: Option<i64>, b: Option<i64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

fn cond_ready_row(
    sops: &[SOp],
    placed: &[Option<u32>],
    cond: Option<VReg>,
    branch_cluster: ClusterId,
) -> u32 {
    let Some(c) = cond else { return 0 };
    let mut ready = 0;
    for (i, op) in sops.iter().enumerate() {
        if op
            .writes
            .iter()
            .any(|&(v, cl)| v == c && cl == branch_cluster)
        {
            if let Some(r) = placed[i] {
                ready = ready.max(r + op.latency);
            }
        }
    }
    ready
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ty;
    use crate::ir::{BinOp, Block, Inst, InstKind};
    use pc_isa::{IntOp, OpKind};

    fn no_children() -> HashMap<usize, Vec<RegId>> {
        HashMap::new()
    }

    /// One block: t0 = 1+2 ; t1 = t0*3 ; store t1.
    fn chain_func() -> Func {
        let mut f = Func::new("chain", 0);
        let t0 = f.fresh(Ty::Int);
        let t1 = f.fresh(Ty::Int);
        f.blocks[0].insts = vec![
            Inst {
                kind: InstKind::Bin {
                    op: BinOp::Add,
                    a: Val::CI(1),
                    b: Val::CI(2),
                },
                dst: Some(t0),
                prov: vec![],
            },
            Inst {
                kind: InstKind::Bin {
                    op: BinOp::Mul,
                    a: Val::R(t0),
                    b: Val::CI(3),
                },
                dst: Some(t1),
                prov: vec![],
            },
            Inst {
                kind: InstKind::Store {
                    flavor: StoreFlavor::Plain,
                    base: Val::CI(0),
                    off: Val::CI(0),
                    val: Val::R(t1),
                },
                dst: None,
                prov: vec![],
            },
        ];
        f
    }

    #[test]
    fn single_mode_pins_to_one_cluster() {
        let config = MachineConfig::baseline();
        let s =
            schedule_func(&chain_func(), &config, ScheduleMode::Single, &no_children()).unwrap();
        // All non-branch registers in cluster 0 (variant 0).
        for (c, &n) in s.segment.regs_per_cluster.iter().enumerate() {
            if c != 0 {
                assert_eq!(n, 0, "cluster {c} used in Single mode");
            }
        }
        pc_isa::validate_program(
            &{
                let mut p = pc_isa::Program::new();
                p.add_segment(s.segment.clone());
                p
            },
            &config,
        )
        .unwrap();
    }

    #[test]
    fn variant_rotates_single_mode_cluster() {
        let config = MachineConfig::baseline();
        let mut f = chain_func();
        f.variant = 2;
        let s = schedule_func(&f, &config, ScheduleMode::Single, &no_children()).unwrap();
        assert!(s.segment.regs_per_cluster[2] > 0);
        assert_eq!(s.segment.regs_per_cluster[0], 0);
    }

    #[test]
    fn dependent_ops_never_share_a_row() {
        let config = MachineConfig::baseline();
        let s = schedule_func(
            &chain_func(),
            &config,
            ScheduleMode::Unrestricted,
            &no_children(),
        )
        .unwrap();
        // Find rows of the add and the mul; mul must be strictly later.
        let mut add_row = None;
        let mut mul_row = None;
        for (r, row) in s.segment.rows.iter().enumerate() {
            for (_, op) in row.slots() {
                match &op.kind {
                    OpKind::Int(IntOp::Add) => add_row = Some(r),
                    OpKind::Int(IntOp::Mul) => mul_row = Some(r),
                    _ => {}
                }
            }
        }
        assert!(mul_row.unwrap() > add_row.unwrap());
    }

    #[test]
    fn branch_condition_routed_to_branch_cluster() {
        let config = MachineConfig::baseline();
        let mut f = Func::new("loop", 0);
        let c = f.fresh(Ty::Int);
        f.blocks[0].insts = vec![Inst {
            kind: InstKind::Bin {
                op: BinOp::Slt,
                a: Val::CI(1),
                b: Val::CI(2),
            },
            dst: Some(c),
            prov: vec![],
        }];
        f.blocks[0].term = Term::Br {
            cond: Val::R(c),
            then_: 1,
            else_: 1,
        };
        f.blocks.push(Block::new());
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        // The slt must write a branch-cluster register (4 or 5).
        let mut found = false;
        for row in &s.segment.rows {
            for (_, op) in row.slots() {
                if matches!(op.kind, OpKind::Int(IntOp::Slt)) {
                    found = op.dsts.iter().any(|d| d.cluster.0 >= 4);
                }
            }
        }
        assert!(found, "condition not routed to branch cluster");
    }

    #[test]
    fn max_dsts_one_uses_explicit_moves() {
        // A value consumed by the branch cluster with max_dsts = 1 cannot
        // dual-write; an explicit mov must appear.
        let config = MachineConfig::baseline().with_max_dsts(1);
        let mut f = Func::new("loop", 0);
        let c = f.fresh(Ty::Int);
        f.blocks[0].insts = vec![Inst {
            kind: InstKind::Bin {
                op: BinOp::Slt,
                a: Val::CI(1),
                b: Val::CI(2),
            },
            dst: Some(c),
            prov: vec![],
        }];
        f.blocks[0].term = Term::Br {
            cond: Val::R(c),
            then_: 1,
            else_: 1,
        };
        f.blocks.push(Block::new());
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        let movs = s
            .segment
            .rows
            .iter()
            .flat_map(|r| r.slots())
            .filter(|(_, op)| matches!(op.kind, OpKind::Int(IntOp::Mov)))
            .count();
        assert!(movs >= 1, "expected an explicit move");
        for row in &s.segment.rows {
            for (_, op) in row.slots() {
                assert!(op.dsts.len() <= 1);
            }
        }
    }

    #[test]
    fn backward_jump_targets_are_fixed_up() {
        // b0 -> b1 -> (jump back to b1 conditionally) -> b2(halt)
        let config = MachineConfig::baseline();
        let mut f = Func::new("loop", 0);
        let c = f.fresh(Ty::Int);
        f.blocks[0].term = Term::Jump(1);
        f.blocks.push(Block::new());
        f.blocks[1].insts = vec![Inst {
            kind: InstKind::Bin {
                op: BinOp::Slt,
                a: Val::CI(1),
                b: Val::CI(2),
            },
            dst: Some(c),
            prov: vec![],
        }];
        f.blocks[1].term = Term::Br {
            cond: Val::R(c),
            then_: 1,
            else_: 2,
        };
        f.blocks.push(Block::new());
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        // Every branch target must be a valid row index.
        let n = s.segment.rows.len() as u32;
        for row in &s.segment.rows {
            for (_, op) in row.slots() {
                if let OpKind::Branch(BranchOp::Jmp { target } | BranchOp::Br { target, .. }) =
                    &op.kind
                {
                    assert!(*target < n, "target {target} out of {n}");
                }
            }
        }
        // And the taken branch loops backward to its own block's start
        // (row 0: block 0's fall-through jump was elided).
        let br = s
            .segment
            .rows
            .iter()
            .flat_map(|r| r.slots())
            .find_map(|(_, op)| match &op.kind {
                OpKind::Branch(BranchOp::Br { target, .. }) => Some(*target),
                _ => None,
            })
            .unwrap();
        assert_eq!(br, 0);
    }

    #[test]
    fn sync_references_stay_ordered() {
        // store then produce: the produce (sync) must be in a later row.
        let config = MachineConfig::baseline();
        let mut f = Func::new("pub", 0);
        f.blocks[0].insts = vec![
            Inst {
                kind: InstKind::Store {
                    flavor: StoreFlavor::Plain,
                    base: Val::CI(0),
                    off: Val::CI(0),
                    val: Val::CF(1.0),
                },
                dst: None,
                prov: vec![],
            },
            Inst {
                kind: InstKind::Store {
                    flavor: StoreFlavor::Produce,
                    base: Val::CI(1),
                    off: Val::CI(0),
                    val: Val::CI(1),
                },
                dst: None,
                prov: vec![],
            },
        ];
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        let mut plain_row = None;
        let mut produce_row = None;
        for (r, row) in s.segment.rows.iter().enumerate() {
            for (_, op) in row.slots() {
                match &op.kind {
                    OpKind::Mem(pc_isa::MemOp::Store(StoreFlavor::Plain)) => plain_row = Some(r),
                    OpKind::Mem(pc_isa::MemOp::Store(StoreFlavor::Produce)) => {
                        produce_row = Some(r)
                    }
                    _ => {}
                }
            }
        }
        assert!(produce_row.unwrap() > plain_row.unwrap());
    }

    #[test]
    fn independent_loads_schedule_in_parallel() {
        let config = MachineConfig::baseline();
        let mut f = Func::new("loads", 0);
        let a = f.fresh(Ty::Float);
        let b = f.fresh(Ty::Float);
        f.blocks[0].insts = vec![
            Inst {
                kind: InstKind::Load {
                    flavor: LoadFlavor::Plain,
                    base: Val::CI(0),
                    off: Val::CI(0),
                },
                dst: Some(a),
                prov: vec![],
            },
            Inst {
                kind: InstKind::Load {
                    flavor: LoadFlavor::Plain,
                    base: Val::CI(1),
                    off: Val::CI(0),
                },
                dst: Some(b),
                prov: vec![],
            },
            Inst {
                kind: InstKind::Bin {
                    op: BinOp::Fadd,
                    a: Val::R(a),
                    b: Val::R(b),
                },
                dst: Some(f.fresh(Ty::Float)),
                prov: vec![],
            },
        ];
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        // Both loads in row 0 (distinct memory units).
        let loads_in_row0 = s.segment.rows[0]
            .slots()
            .iter()
            .filter(|(_, op)| matches!(op.kind, OpKind::Mem(pc_isa::MemOp::Load(_))))
            .count();
        assert_eq!(loads_in_row0, 2);
    }

    #[test]
    fn missing_unit_class_is_an_error() {
        // A float op on a machine whose only arithmetic cluster has no FPU.
        let config = MachineConfig::new(vec![
            pc_isa::ClusterConfig {
                units: vec![
                    pc_isa::UnitConfig::new(UnitClass::Integer),
                    pc_isa::UnitConfig::new(UnitClass::Memory),
                ],
            },
            pc_isa::ClusterConfig::branch(),
        ]);
        let mut f = Func::new("nofpu", 0);
        f.blocks[0].insts = vec![Inst {
            kind: InstKind::Bin {
                op: BinOp::Fadd,
                a: Val::CF(1.0),
                b: Val::CF(2.0),
            },
            dst: Some(f.fresh(Ty::Float)),
            prov: vec![],
        }];
        let err =
            schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap_err();
        assert!(err.msg.contains("FPU"), "{err}");
    }

    #[test]
    fn copies_move_values_between_clusters() {
        // Two chains forced onto different clusters by usage, then joined:
        // the join needs at least a dual-destination or a move.
        let config = MachineConfig::baseline();
        let mut f = Func::new("join", 0);
        let mut regs = Vec::new();
        for i in 0..8 {
            let r = f.fresh(Ty::Int);
            f.blocks[0].insts.push(Inst {
                kind: InstKind::Bin {
                    op: BinOp::Add,
                    a: Val::CI(i),
                    b: Val::CI(1),
                },
                dst: Some(r),
                prov: vec![],
            });
            regs.push(r);
        }
        // Join everything pairwise.
        let mut prev = regs[0];
        for &r in &regs[1..] {
            let d = f.fresh(Ty::Int);
            f.blocks[0].insts.push(Inst {
                kind: InstKind::Bin {
                    op: BinOp::Add,
                    a: Val::R(prev),
                    b: Val::R(r),
                },
                dst: Some(d),
                prov: vec![],
            });
            prev = d;
        }
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        // Sources always read the executing cluster's registers —
        // validation enforces it; just validate.
        let mut p = pc_isa::Program::new();
        p.add_segment(s.segment);
        pc_isa::validate_program(&p, &config).unwrap();
    }

    #[test]
    fn empty_function_emits_halt_only() {
        let config = MachineConfig::baseline();
        let f = Func::new("empty", 0);
        let s = schedule_func(&f, &config, ScheduleMode::Unrestricted, &no_children()).unwrap();
        assert_eq!(s.segment.rows.len(), 1);
        assert!(matches!(
            s.segment.rows[0].slots()[0].1.kind,
            OpKind::Branch(BranchOp::Halt)
        ));
    }
}
