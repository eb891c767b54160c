//! Lowering: AST → IR with type checking, loop construction, hand-unroll
//! expansion, and thread extraction (`fork` / `forall` bodies become
//! separate [`Func`]s).

use crate::ast::{self, Expr, Module, Spanned, Stmt, Ty, Unroll};
use crate::error::{CompileError, Result};
use crate::ir::{BinOp, Block, Func, Inst, InstKind, IrProgram, Prov, Term, UnOp, VReg, Val};
use std::collections::HashMap;
use std::mem;

/// Most functions (segments) one program may lower to. Each `forall`
/// lowers its body once per variant, inside every variant of each
/// enclosing `forall`, so nesting multiplies the count: with the
/// baseline machine's 4 variants, `n` nested forms make
/// `(4^(n+1) - 1) / 3` functions — 341 at 4, 5461 at 6. The largest
/// shipped program lowers to 13, so the cap only stops hostile or
/// mistaken sources, before they cost exponential time.
pub const MAX_SEGMENTS: usize = 4096;

/// Lowering options.
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Number of load-balancing variants generated per `forall` (one per
    /// arithmetic cluster; 1 disables variant dispatch).
    pub forall_variants: usize,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { forall_variants: 1 }
    }
}

/// Lowers a front-end [`Module`] to IR.
///
/// # Errors
/// Type errors, unknown names, non-constant bounds on `:unroll full`
/// loops, and programs of more than [`MAX_SEGMENTS`] functions.
pub fn lower(module: &Module, opts: LowerOptions) -> Result<IrProgram> {
    let mut symbols = Vec::new();
    let mut addr = 0u64;
    let mut symtab = HashMap::new();
    for g in &module.globals {
        symbols.push((g.name.clone(), addr, g.len, g.elem));
        symtab.insert(g.name.clone(), (addr, g.len, g.elem));
        addr += g.len;
    }
    let mut lx = Lowerer {
        symtab,
        funcs: Vec::new(),
        opts,
        variant_counter: 0,
        spans: Vec::new(),
        span_ids: HashMap::new(),
        cur_prov: Prov::new(),
    };
    // Seed with the interned synthetic span so even glue emitted outside
    // any statement carries non-empty provenance.
    lx.cur_prov = lx.prov_for(&ast::SrcSpan::synthetic());
    let main = Func::new("main", 0);
    let idx = lx.push_func(main)?;
    lx.build_body(idx, &module.main, &HashMap::new())?;
    Ok(IrProgram {
        funcs: lx.funcs,
        symbols,
        memory_size: addr,
        spans: lx.spans,
        loops: module
            .loops
            .iter()
            .map(|l| pc_isa::LoopInfo {
                name: l.name.clone(),
                line: l.line,
            })
            .collect(),
    })
}

struct Lowerer {
    symtab: HashMap<String, (u64, u64, Ty)>,
    funcs: Vec<Func>,
    opts: LowerOptions,
    variant_counter: usize,
    /// Interned source spans (becomes [`IrProgram::spans`]).
    spans: Vec<pc_isa::SpanInfo>,
    /// Intern map: `(line, col, loop)` → span id.
    span_ids: HashMap<(u32, u32, Option<u32>), u32>,
    /// Provenance stamped on every instruction [`Lowerer::emit`] creates:
    /// the span of the statement currently being lowered.
    cur_prov: Prov,
}

/// Builder state for one function.
struct Cursor {
    func_idx: usize,
    block: usize,
    env: HashMap<String, (VReg, Ty)>,
}

impl Lowerer {
    /// Appends a function, failing as soon as the program would pass
    /// [`MAX_SEGMENTS`] so that lowering stops at the cap.
    fn push_func(&mut self, f: Func) -> Result<usize> {
        if self.funcs.len() == MAX_SEGMENTS {
            return Err(CompileError::new(format!(
                "program lowers to more than MAX_SEGMENTS = {MAX_SEGMENTS} functions \
                 (nested forall multiplies its variants)"
            )));
        }
        self.funcs.push(f);
        Ok(self.funcs.len() - 1)
    }

    fn func(&mut self, idx: usize) -> &mut Func {
        &mut self.funcs[idx]
    }

    /// Lowers `body` into function `idx` (whose entry block exists),
    /// with initial variable environment `env`.
    fn build_body(
        &mut self,
        idx: usize,
        body: &[Spanned],
        env: &HashMap<String, (VReg, Ty)>,
    ) -> Result<()> {
        let mut cur = Cursor {
            func_idx: idx,
            block: 0,
            env: env.clone(),
        };
        self.stmts(&mut cur, body)?;
        self.func(idx).blocks[cur.block].term = Term::Halt;
        Ok(())
    }

    fn emit(&mut self, cur: &Cursor, kind: InstKind, dst: Option<VReg>) {
        let prov = self.cur_prov.clone();
        self.funcs[cur.func_idx].blocks[cur.block]
            .insts
            .push(Inst::with_prov(kind, dst, prov));
    }

    /// Interns a statement span, returning its singleton provenance.
    /// Synthetic spans (line 0) intern too, so every lowered instruction
    /// carries a non-empty provenance set.
    fn prov_for(&mut self, span: &ast::SrcSpan) -> Prov {
        let key = (span.line, span.col, span.loop_id);
        let id = match self.span_ids.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.spans.len() as u32;
                self.spans.push(pc_isa::SpanInfo {
                    span: pc_isa::SrcSpan {
                        line: span.line,
                        col: span.col,
                    },
                    loop_id: span.loop_id,
                });
                self.span_ids.insert(key, id);
                id
            }
        };
        vec![id]
    }

    fn new_block(&mut self, cur: &Cursor) -> usize {
        let f = self.func(cur.func_idx);
        f.blocks.push(Block::new());
        f.blocks.len() - 1
    }

    fn set_term(&mut self, cur: &Cursor, block: usize, term: Term) {
        self.funcs[cur.func_idx].blocks[block].term = term;
    }

    fn fresh(&mut self, cur: &Cursor, ty: Ty) -> VReg {
        self.funcs[cur.func_idx].fresh(ty)
    }

    fn stmts(&mut self, cur: &mut Cursor, body: &[Spanned]) -> Result<()> {
        for s in body {
            self.stmt_spanned(cur, s)?;
        }
        Ok(())
    }

    /// Lowers one statement under its own provenance, restoring the
    /// caller's afterwards (so e.g. a loop's latch increment, emitted
    /// after the body, still attributes to the loop statement).
    fn stmt_spanned(&mut self, cur: &mut Cursor, s: &Spanned) -> Result<()> {
        let prov = self.prov_for(&s.span);
        let saved = mem::replace(&mut self.cur_prov, prov);
        let r = self.stmt(cur, &s.node);
        self.cur_prov = saved;
        r
    }

    fn stmt(&mut self, cur: &mut Cursor, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Let { bindings, body } => {
                for (name, init) in bindings {
                    let (v, ty) = self.expr(cur, init)?;
                    let r = self.fresh(cur, ty);
                    self.emit(
                        cur,
                        InstKind::Un {
                            op: UnOp::Mov,
                            a: v,
                        },
                        Some(r),
                    );
                    cur.env.insert(name.clone(), (r, ty));
                }
                self.stmts(cur, body)
            }
            Stmt::Set { name, value } => {
                let (v, vty) = self.expr(cur, value)?;
                if let Some(&(r, ty)) = cur.env.get(name) {
                    if ty != vty {
                        return Err(CompileError::new(format!(
                            "type mismatch assigning {name}: variable is {ty:?}, value is {vty:?}"
                        )));
                    }
                    self.emit(
                        cur,
                        InstKind::Un {
                            op: UnOp::Mov,
                            a: v,
                        },
                        Some(r),
                    );
                    Ok(())
                } else if let Some(&(addr, _, ety)) = self.symtab.get(name) {
                    if ety != vty {
                        return Err(CompileError::new(format!(
                            "type mismatch storing global {name}"
                        )));
                    }
                    self.emit(
                        cur,
                        InstKind::Store {
                            flavor: pc_isa::StoreFlavor::Plain,
                            base: Val::CI(addr as i64),
                            off: Val::CI(0),
                            val: v,
                        },
                        None,
                    );
                    Ok(())
                } else {
                    Err(CompileError::new(format!("unknown variable '{name}'")))
                }
            }
            Stmt::ASet {
                sym,
                idx,
                value,
                flavor,
            } => {
                let (addr, _, ety) = self.symbol(sym)?;
                let (iv, ity) = self.expr(cur, idx)?;
                if ity != Ty::Int {
                    return Err(CompileError::new(format!("index into {sym} must be int")));
                }
                let (vv, vty) = self.expr(cur, value)?;
                if vty != ety {
                    return Err(CompileError::new(format!(
                        "storing {vty:?} into {sym} of {ety:?}"
                    )));
                }
                self.emit(
                    cur,
                    InstKind::Store {
                        flavor: *flavor,
                        base: Val::CI(addr as i64),
                        off: iv,
                        val: vv,
                    },
                    None,
                );
                Ok(())
            }
            Stmt::If { cond, then_, else_ } => {
                let (cv, cty) = self.expr(cur, cond)?;
                if cty != Ty::Int {
                    return Err(CompileError::new("if condition must be int"));
                }
                let then_b = self.new_block(cur);
                let join_b;
                if else_.is_empty() {
                    join_b = self.new_block(cur);
                    self.set_term(
                        cur,
                        cur.block,
                        Term::Br {
                            cond: cv,
                            then_: then_b,
                            else_: join_b,
                        },
                    );
                    cur.block = then_b;
                    self.stmts(cur, then_)?;
                    self.set_term(cur, cur.block, Term::Jump(join_b));
                } else {
                    let else_b = self.new_block(cur);
                    join_b = self.new_block(cur);
                    self.set_term(
                        cur,
                        cur.block,
                        Term::Br {
                            cond: cv,
                            then_: then_b,
                            else_: else_b,
                        },
                    );
                    cur.block = then_b;
                    self.stmts(cur, then_)?;
                    self.set_term(cur, cur.block, Term::Jump(join_b));
                    cur.block = else_b;
                    self.stmts(cur, else_)?;
                    self.set_term(cur, cur.block, Term::Jump(join_b));
                }
                cur.block = join_b;
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.new_block(cur);
                self.set_term(cur, cur.block, Term::Jump(head));
                cur.block = head;
                let (cv, cty) = self.expr(cur, cond)?;
                if cty != Ty::Int {
                    return Err(CompileError::new("while condition must be int"));
                }
                let body_b = self.new_block(cur);
                let exit_b = self.new_block(cur);
                self.set_term(
                    cur,
                    head,
                    Term::Br {
                        cond: cv,
                        then_: body_b,
                        else_: exit_b,
                    },
                );
                cur.block = body_b;
                self.stmts(cur, body)?;
                self.set_term(cur, cur.block, Term::Jump(head));
                cur.block = exit_b;
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                unroll,
                body,
            } => self.lower_for(cur, var, start, end, *unroll, body),
            Stmt::Fork { body } => {
                let variant = self.variant_counter % self.opts.forall_variants.max(1);
                self.variant_counter += 1;
                let child = self.make_thread_func(cur, "fork", variant, None, body)?;
                let args = self.capture_args(cur, body, None)?;
                self.emit(cur, InstKind::Fork { func: child, args }, None);
                Ok(())
            }
            Stmt::Forall {
                var,
                start,
                end,
                body,
            } => self.lower_forall(cur, var, start, end, body),
            Stmt::Probe(id) => {
                self.emit(cur, InstKind::Probe { id: *id }, None);
                Ok(())
            }
            Stmt::Expr(e) => {
                let _ = self.expr(cur, e)?;
                Ok(())
            }
        }
    }

    fn lower_for(
        &mut self,
        cur: &mut Cursor,
        var: &str,
        start: &Expr,
        end: &Expr,
        unroll: Unroll,
        body: &[Spanned],
    ) -> Result<()> {
        if unroll == Unroll::Full {
            let s = const_int(start).ok_or_else(|| {
                CompileError::new(format!("{var}: :unroll full needs constant start"))
            })?;
            let e = const_int(end).ok_or_else(|| {
                CompileError::new(format!("{var}: :unroll full needs constant end"))
            })?;
            let r = self.fresh(cur, Ty::Int);
            cur.env.insert(var.to_string(), (r, Ty::Int));
            for k in s..e {
                self.emit(
                    cur,
                    InstKind::Un {
                        op: UnOp::Mov,
                        a: Val::CI(k),
                    },
                    Some(r),
                );
                self.stmts(cur, body)?;
            }
            return Ok(());
        }
        if let Unroll::By(factor) = unroll {
            // Partial unroll: a rolled loop striding by `factor`, with
            // `factor` copies of the body per iteration. Requires constant
            // bounds whose trip count the factor divides (hand-unrolling
            // semantics — the programmer guarantees divisibility).
            let s = const_int(start)
                .ok_or_else(|| CompileError::new(format!("{var}: :unroll needs constant start")))?;
            let e = const_int(end)
                .ok_or_else(|| CompileError::new(format!("{var}: :unroll needs constant end")))?;
            let trip = e - s;
            if trip % factor as i64 != 0 {
                return Err(CompileError::new(format!(
                    "{var}: trip count {trip} not divisible by unroll factor {factor}"
                )));
            }
            // Base counter plus per-copy offsets.
            let base = self.fresh(cur, Ty::Int);
            let r = self.fresh(cur, Ty::Int);
            cur.env.insert(var.to_string(), (r, Ty::Int));
            self.emit(
                cur,
                InstKind::Un {
                    op: UnOp::Mov,
                    a: Val::CI(s),
                },
                Some(base),
            );
            let head = self.new_block(cur);
            self.set_term(cur, cur.block, Term::Jump(head));
            cur.block = head;
            let cond = self.fresh(cur, Ty::Int);
            self.emit(
                cur,
                InstKind::Bin {
                    op: BinOp::Slt,
                    a: Val::R(base),
                    b: Val::CI(e),
                },
                Some(cond),
            );
            let body_b = self.new_block(cur);
            let exit_b = self.new_block(cur);
            self.set_term(
                cur,
                head,
                Term::Br {
                    cond: Val::R(cond),
                    then_: body_b,
                    else_: exit_b,
                },
            );
            cur.block = body_b;
            for copy in 0..factor {
                self.emit(
                    cur,
                    InstKind::Bin {
                        op: BinOp::Add,
                        a: Val::R(base),
                        b: Val::CI(copy as i64),
                    },
                    Some(r),
                );
                self.stmts(cur, body)?;
            }
            self.emit(
                cur,
                InstKind::Bin {
                    op: BinOp::Add,
                    a: Val::R(base),
                    b: Val::CI(factor as i64),
                },
                Some(base),
            );
            self.set_term(cur, cur.block, Term::Jump(head));
            cur.block = exit_b;
            return Ok(());
        }
        // Rolled loop: preheader / head / body / latch-in-body / exit.
        let (sv, sty) = self.expr(cur, start)?;
        let (ev, ety) = self.expr(cur, end)?;
        if sty != Ty::Int || ety != Ty::Int {
            return Err(CompileError::new("loop bounds must be int"));
        }
        let ivar = self.fresh(cur, Ty::Int);
        cur.env.insert(var.to_string(), (ivar, Ty::Int));
        self.emit(
            cur,
            InstKind::Un {
                op: UnOp::Mov,
                a: sv,
            },
            Some(ivar),
        );
        // Loop-invariant bound: materialize into a register if an expression.
        let bound = if ev.is_const() {
            ev
        } else {
            let b = self.fresh(cur, Ty::Int);
            self.emit(
                cur,
                InstKind::Un {
                    op: UnOp::Mov,
                    a: ev,
                },
                Some(b),
            );
            Val::R(b)
        };
        let head = self.new_block(cur);
        self.set_term(cur, cur.block, Term::Jump(head));
        cur.block = head;
        let cond = self.fresh(cur, Ty::Int);
        self.emit(
            cur,
            InstKind::Bin {
                op: BinOp::Slt,
                a: Val::R(ivar),
                b: bound,
            },
            Some(cond),
        );
        let body_b = self.new_block(cur);
        let exit_b = self.new_block(cur);
        self.set_term(
            cur,
            head,
            Term::Br {
                cond: Val::R(cond),
                then_: body_b,
                else_: exit_b,
            },
        );
        cur.block = body_b;
        self.stmts(cur, body)?;
        self.emit(
            cur,
            InstKind::Bin {
                op: BinOp::Add,
                a: Val::R(ivar),
                b: Val::CI(1),
            },
            Some(ivar),
        );
        self.set_term(cur, cur.block, Term::Jump(head));
        cur.block = exit_b;
        Ok(())
    }

    /// Captured arguments of a thread body, in `free_vars` order (loop
    /// variable first for `forall`).
    fn capture_args(
        &mut self,
        cur: &Cursor,
        body: &[Spanned],
        loop_var: Option<(&str, Val)>,
    ) -> Result<Vec<Val>> {
        let names = self.captures(body, loop_var.map(|(n, _)| n))?;
        let mut args = Vec::new();
        if let Some((_, v)) = loop_var {
            args.push(v);
        }
        for n in names {
            let (r, _) = cur.env.get(&n).ok_or_else(|| {
                CompileError::new(format!("fork captures unknown variable '{n}'"))
            })?;
            args.push(Val::R(*r));
        }
        Ok(args)
    }

    /// Free variables of a thread body that refer to enclosing locals
    /// (globals and the loop variable excluded).
    fn captures(&self, body: &[Spanned], loop_var: Option<&str>) -> Result<Vec<String>> {
        let mut out = Vec::new();
        let mut bound: Vec<String> = loop_var.iter().map(|s| s.to_string()).collect();
        ast::free_vars(body, &mut bound, &mut out);
        Ok(out
            .into_iter()
            .filter(|n| !self.symtab.contains_key(n))
            .collect())
    }

    /// Builds a child function for a thread body. Parameters: optional
    /// loop variable, then captures (types taken from the parent's
    /// environment via `cur`).
    fn make_thread_func(
        &mut self,
        cur: &Cursor,
        label: &str,
        variant: usize,
        loop_var: Option<&str>,
        body: &[Spanned],
    ) -> Result<usize> {
        let names = self.captures(body, loop_var)?;
        let mut child = Func::new(format!("{label}@{}#{variant}", self.funcs.len()), variant);
        let mut env = HashMap::new();
        if let Some(lv) = loop_var {
            let p = child.fresh(Ty::Int);
            child.params.push(p);
            env.insert(lv.to_string(), (p, Ty::Int));
        }
        for n in &names {
            let (_, ty) = cur.env.get(n).ok_or_else(|| {
                CompileError::new(format!("fork captures unknown variable '{n}'"))
            })?;
            let p = child.fresh(*ty);
            child.params.push(p);
            env.insert(n.clone(), (p, *ty));
        }
        let idx = self.push_func(child)?;
        self.build_body(idx, body, &env)?;
        Ok(idx)
    }

    fn lower_forall(
        &mut self,
        cur: &mut Cursor,
        var: &str,
        start: &Expr,
        end: &Expr,
        body: &[Spanned],
    ) -> Result<()> {
        let k = self.opts.forall_variants.max(1);
        // One function variant per cluster ordering.
        let mut variants = Vec::with_capacity(k);
        for v in 0..k {
            variants.push(self.make_thread_func(cur, "forall", v, Some(var), body)?);
        }
        // Constant trip counts spawn straight-line: one fork per iteration,
        // variants round-robin, no dispatch branches.
        if let (Some(s), Some(e)) = (const_int(start), const_int(end)) {
            let mut args = self.capture_args(cur, body, Some((var, Val::CI(0))))?;
            for (n, i) in (s..e).enumerate() {
                args[0] = Val::CI(i);
                self.emit(
                    cur,
                    InstKind::Fork {
                        func: variants[n % k],
                        args: args.clone(),
                    },
                    None,
                );
            }
            return Ok(());
        }
        // Dispatch loop: i from start to end, forking variant (i-start)%k.
        let (sv, sty) = self.expr(cur, start)?;
        let (ev, ety) = self.expr(cur, end)?;
        if sty != Ty::Int || ety != Ty::Int {
            return Err(CompileError::new("forall bounds must be int"));
        }
        let ivar = self.fresh(cur, Ty::Int);
        self.emit(
            cur,
            InstKind::Un {
                op: UnOp::Mov,
                a: sv,
            },
            Some(ivar),
        );
        let svreg = if sv.is_const() {
            sv
        } else {
            // Keep the start value for the (i - start) % k computation.
            let s0 = self.fresh(cur, Ty::Int);
            self.emit(
                cur,
                InstKind::Un {
                    op: UnOp::Mov,
                    a: sv,
                },
                Some(s0),
            );
            Val::R(s0)
        };
        let bound = if ev.is_const() {
            ev
        } else {
            let b = self.fresh(cur, Ty::Int);
            self.emit(
                cur,
                InstKind::Un {
                    op: UnOp::Mov,
                    a: ev,
                },
                Some(b),
            );
            Val::R(b)
        };
        let head = self.new_block(cur);
        self.set_term(cur, cur.block, Term::Jump(head));
        cur.block = head;
        let cond = self.fresh(cur, Ty::Int);
        self.emit(
            cur,
            InstKind::Bin {
                op: BinOp::Slt,
                a: Val::R(ivar),
                b: bound,
            },
            Some(cond),
        );
        let body_b = self.new_block(cur);
        let exit_b = self.new_block(cur);
        self.set_term(
            cur,
            head,
            Term::Br {
                cond: Val::R(cond),
                then_: body_b,
                else_: exit_b,
            },
        );
        cur.block = body_b;

        // fork args: i first, then captures (same order as params).
        let args = self.capture_args(cur, body, Some((var, Val::R(ivar))))?;
        if k == 1 {
            self.emit(
                cur,
                InstKind::Fork {
                    func: variants[0],
                    args,
                },
                None,
            );
        } else {
            // sel = (i - start) % k, then an if-chain over variants.
            let diff = self.fresh(cur, Ty::Int);
            self.emit(
                cur,
                InstKind::Bin {
                    op: BinOp::Sub,
                    a: Val::R(ivar),
                    b: svreg,
                },
                Some(diff),
            );
            let sel = self.fresh(cur, Ty::Int);
            self.emit(
                cur,
                InstKind::Bin {
                    op: BinOp::Rem,
                    a: Val::R(diff),
                    b: Val::CI(k as i64),
                },
                Some(sel),
            );
            // Chain: block for each comparison, fork blocks, one join.
            let join = self.new_block(cur);
            #[allow(clippy::needless_range_loop)] // v is also the selector constant
            for v in 0..k {
                let fork_b = self.new_block(cur);
                let next_b = if v + 1 < k { self.new_block(cur) } else { join };
                if v + 1 < k {
                    let c = self.fresh(cur, Ty::Int);
                    self.emit(
                        cur,
                        InstKind::Bin {
                            op: BinOp::Seq,
                            a: Val::R(sel),
                            b: Val::CI(v as i64),
                        },
                        Some(c),
                    );
                    self.set_term(
                        cur,
                        cur.block,
                        Term::Br {
                            cond: Val::R(c),
                            then_: fork_b,
                            else_: next_b,
                        },
                    );
                } else {
                    // Last variant needs no comparison.
                    self.set_term(cur, cur.block, Term::Jump(fork_b));
                }
                let save = cur.block;
                cur.block = fork_b;
                self.emit(
                    cur,
                    InstKind::Fork {
                        func: variants[v],
                        args: args.clone(),
                    },
                    None,
                );
                self.set_term(cur, cur.block, Term::Jump(join));
                cur.block = next_b;
                let _ = save;
            }
            cur.block = join;
        }
        // Latch.
        self.emit(
            cur,
            InstKind::Bin {
                op: BinOp::Add,
                a: Val::R(ivar),
                b: Val::CI(1),
            },
            Some(ivar),
        );
        self.set_term(cur, cur.block, Term::Jump(head));
        cur.block = exit_b;
        Ok(())
    }

    fn symbol(&self, name: &str) -> Result<(u64, u64, Ty)> {
        self.symtab
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::new(format!("unknown global '{name}'")))
    }

    fn expr(&mut self, cur: &mut Cursor, e: &Expr) -> Result<(Val, Ty)> {
        match e {
            Expr::Int(i) => Ok((Val::CI(*i), Ty::Int)),
            Expr::Float(f) => Ok((Val::CF(*f), Ty::Float)),
            Expr::Var(n) => {
                if let Some(&(r, ty)) = cur.env.get(n) {
                    Ok((Val::R(r), ty))
                } else if let Some(&(addr, len, ety)) = self.symtab.get(n) {
                    if len != 1 {
                        return Err(CompileError::new(format!(
                            "array '{n}' used as a scalar (use aref)"
                        )));
                    }
                    let d = self.fresh(cur, ety);
                    self.emit(
                        cur,
                        InstKind::Load {
                            flavor: pc_isa::LoadFlavor::Plain,
                            base: Val::CI(addr as i64),
                            off: Val::CI(0),
                        },
                        Some(d),
                    );
                    Ok((Val::R(d), ety))
                } else {
                    Err(CompileError::new(format!("unknown variable '{n}'")))
                }
            }
            Expr::Bin(op, a, b) => {
                let (av, at) = self.expr(cur, a)?;
                let (bv, bt) = self.expr(cur, b)?;
                if at != bt {
                    return Err(CompileError::new(format!(
                        "operands of {op:?} have different types ({at:?} vs {bt:?})"
                    )));
                }
                let irop = map_bin(*op, at)?;
                let d = self.fresh(cur, irop.result_ty());
                self.emit(
                    cur,
                    InstKind::Bin {
                        op: irop,
                        a: av,
                        b: bv,
                    },
                    Some(d),
                );
                Ok((Val::R(d), irop.result_ty()))
            }
            Expr::Un(op, a) => {
                let (av, at) = self.expr(cur, a)?;
                let (irop, rty) = match (op, at) {
                    (ast::UnOp::Neg, Ty::Int) => (UnOp::Neg, Ty::Int),
                    (ast::UnOp::Neg, Ty::Float) => (UnOp::Fneg, Ty::Float),
                    (ast::UnOp::Not, Ty::Int) => (UnOp::Not, Ty::Int),
                    (ast::UnOp::ToFloat, Ty::Int) => (UnOp::Itof, Ty::Float),
                    (ast::UnOp::ToFloat, Ty::Float) => (UnOp::Mov, Ty::Float),
                    (ast::UnOp::ToInt, Ty::Float) => (UnOp::Ftoi, Ty::Int),
                    (ast::UnOp::ToInt, Ty::Int) => (UnOp::Mov, Ty::Int),
                    (ast::UnOp::Fabs, Ty::Float) => (UnOp::Fabs, Ty::Float),
                    (o, t) => {
                        return Err(CompileError::new(format!("{o:?} not applicable to {t:?}")))
                    }
                };
                let d = self.fresh(cur, rty);
                self.emit(cur, InstKind::Un { op: irop, a: av }, Some(d));
                Ok((Val::R(d), rty))
            }
            Expr::ARef { sym, idx, flavor } => {
                let (addr, _, ety) = self.symbol(sym)?;
                let (iv, ity) = self.expr(cur, idx)?;
                if ity != Ty::Int {
                    return Err(CompileError::new(format!("index into {sym} must be int")));
                }
                let d = self.fresh(cur, ety);
                self.emit(
                    cur,
                    InstKind::Load {
                        flavor: *flavor,
                        base: Val::CI(addr as i64),
                        off: iv,
                    },
                    Some(d),
                );
                Ok((Val::R(d), ety))
            }
            Expr::AddrOf(sym) => {
                let (addr, _, _) = self.symbol(sym)?;
                Ok((Val::CI(addr as i64), Ty::Int))
            }
        }
    }
}

fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(i) => Some(*i),
        _ => None,
    }
}

/// Maps a source-level operator + operand type to the typed IR operator
/// (shared with the AST interpreter).
pub fn map_bin(op: ast::BinOp, ty: Ty) -> Result<BinOp> {
    use ast::BinOp as A;
    Ok(match (op, ty) {
        (A::Add, Ty::Int) => BinOp::Add,
        (A::Sub, Ty::Int) => BinOp::Sub,
        (A::Mul, Ty::Int) => BinOp::Mul,
        (A::Div, Ty::Int) => BinOp::Div,
        (A::Rem, Ty::Int) => BinOp::Rem,
        (A::Lt, Ty::Int) => BinOp::Slt,
        (A::Le, Ty::Int) => BinOp::Sle,
        (A::Gt, Ty::Int) => BinOp::Sgt,
        (A::Ge, Ty::Int) => BinOp::Sge,
        (A::Eq, Ty::Int) => BinOp::Seq,
        (A::Ne, Ty::Int) => BinOp::Sne,
        (A::And, Ty::Int) => BinOp::And,
        (A::Or, Ty::Int) => BinOp::Or,
        (A::Xor, Ty::Int) => BinOp::Xor,
        (A::Shl, Ty::Int) => BinOp::Shl,
        (A::Shr, Ty::Int) => BinOp::Shr,
        (A::Add, Ty::Float) => BinOp::Fadd,
        (A::Sub, Ty::Float) => BinOp::Fsub,
        (A::Mul, Ty::Float) => BinOp::Fmul,
        (A::Div, Ty::Float) => BinOp::Fdiv,
        (A::Lt, Ty::Float) => BinOp::Fslt,
        (A::Le, Ty::Float) => BinOp::Fsle,
        (A::Gt, Ty::Float) => BinOp::Fsgt,
        (A::Ge, Ty::Float) => BinOp::Fsge,
        (A::Eq, Ty::Float) => BinOp::Fseq,
        (A::Ne, Ty::Float) => BinOp::Fsne,
        (o, t) => {
            return Err(CompileError::new(format!(
                "operator {o:?} not applicable to {t:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::expand;

    fn ir(src: &str) -> IrProgram {
        lower(&expand(src).unwrap(), LowerOptions::default()).unwrap()
    }

    fn ir_k(src: &str, k: usize) -> IrProgram {
        lower(&expand(src).unwrap(), LowerOptions { forall_variants: k }).unwrap()
    }

    #[test]
    fn straight_line_lowering() {
        let p = ir("(global a (array float 4)) (defun main () (aset a 0 (+ 1.0 2.0)))");
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Term::Halt));
        // fadd + store
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert_eq!(p.memory_size, 4);
    }

    #[test]
    fn rolled_for_builds_loop_cfg() {
        let p = ir("(global a (array int 8)) (defun main () (for (i 0 8) (aset a i i)))");
        let f = &p.funcs[0];
        // preheader(b0) -> head -> body -> exit
        assert_eq!(f.blocks.len(), 4);
        assert!(matches!(f.blocks[1].term, Term::Br { .. }));
        // body ends jumping back to head
        assert!(matches!(f.blocks[2].term, Term::Jump(1)));
    }

    #[test]
    fn unrolled_for_is_straightline() {
        let p =
            ir("(global a (array int 4)) (defun main () (for (i 0 4) :unroll full (aset a i i)))");
        let f = &p.funcs[0];
        assert_eq!(f.blocks.len(), 1);
        // 4 × (mov i, store)
        assert_eq!(f.blocks[0].insts.len(), 8);
    }

    #[test]
    fn partial_unroll_builds_strided_loop() {
        let p =
            ir("(global a (array int 16)) (defun main () (for (i 0 16) :unroll 4 (aset a i i)))");
        let f = &p.funcs[0];
        // Rolled CFG: preheader, head, body, exit.
        assert_eq!(f.blocks.len(), 4);
        // Body holds 4 stores (one per copy).
        let stores = f.blocks[2]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Store { .. }))
            .count();
        assert_eq!(stores, 4);
    }

    #[test]
    fn partial_unroll_rejects_indivisible_trip_count() {
        let err = lower(
            &expand(
                "(global a (array int 10)) (defun main () (for (i 0 10) :unroll 4 (aset a i i)))",
            )
            .unwrap(),
            LowerOptions::default(),
        )
        .unwrap_err();
        assert!(err.msg.contains("divisible"), "{err}");
    }

    #[test]
    fn unroll_requires_constant_bounds() {
        let err = lower(
            &expand("(defun main () (let ((n 3)) (for (i 0 n) :unroll full (probe 0))))").unwrap(),
            LowerOptions::default(),
        )
        .unwrap_err();
        assert!(err.msg.contains("constant"), "{err}");
    }

    #[test]
    fn fork_extracts_function_with_captures() {
        let p = ir("(global out (array int 4))
             (defun main () (let ((x 3)) (fork (aset out 0 x))))");
        assert_eq!(p.funcs.len(), 2);
        let child = &p.funcs[1];
        assert_eq!(child.params.len(), 1); // x captured
        let main = &p.funcs[0];
        let fork = main.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i.kind, InstKind::Fork { .. }))
            .unwrap();
        let InstKind::Fork { func, args } = &fork.kind else {
            panic!()
        };
        assert_eq!(*func, 1);
        assert_eq!(args.len(), 1);
    }

    fn fork_count(p: &IrProgram) -> usize {
        p.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.kind, InstKind::Fork { .. }))
            .count()
    }

    #[test]
    fn forall_generates_k_variants_and_unrolls_constant_spawns() {
        let p = ir_k(
            "(global out (array int 16))
             (defun main () (forall (i 0 16) (aset out i i)))",
            4,
        );
        assert_eq!(p.funcs.len(), 5); // main + 4 variants
        for (v, f) in p.funcs[1..].iter().enumerate() {
            assert_eq!(f.variant, v);
            assert_eq!(f.params.len(), 1); // i
        }
        // Constant trip count: one straight-line fork per iteration,
        // variants round-robin, no dispatch branches.
        assert_eq!(fork_count(&p), 16);
        assert_eq!(p.funcs[0].blocks.len(), 1);
        // The iteration index arrives as a constant argument.
        let args: Vec<i64> = p.funcs[0].blocks[0]
            .insts
            .iter()
            .filter_map(|i| match &i.kind {
                InstKind::Fork { args, .. } => args[0].as_ci(),
                _ => None,
            })
            .collect();
        assert_eq!(args, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn forall_with_dynamic_bounds_builds_dispatch_loop() {
        let p = ir_k(
            "(global out (array int 16)) (global n int)
             (defun main () (forall (i 0 n) (aset out i i)))",
            4,
        );
        assert_eq!(p.funcs.len(), 5);
        // Rolled dispatch: one fork site per variant inside the loop.
        assert_eq!(fork_count(&p), 4);
        assert!(p.funcs[0].blocks.len() > 4); // head/body/dispatch/join/exit
    }

    #[test]
    fn forall_with_one_variant_unrolls_to_plain_forks() {
        let p = ir_k(
            "(global out (array int 4)) (defun main () (forall (i 0 4) (aset out i i)))",
            1,
        );
        assert_eq!(p.funcs.len(), 2);
        assert_eq!(fork_count(&p), 4);
    }

    #[test]
    fn global_scalar_reads_and_writes_are_memory_ops() {
        let p = ir("(global n int) (defun main () (set n (+ n 1)))");
        let insts = &p.funcs[0].blocks[0].insts;
        assert!(matches!(insts[0].kind, InstKind::Load { .. }));
        assert!(matches!(insts.last().unwrap().kind, InstKind::Store { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let m = expand("(defun main () (set x (+ 1 2.0)))").unwrap();
        // 'x' unknown too, but the operand mismatch fires first.
        let err = lower(&m, LowerOptions::default()).unwrap_err();
        assert!(err.msg.contains("different types"), "{err}");
    }

    #[test]
    fn float_compare_yields_int() {
        let p = ir("(defun main () (let ((c (< 1.0 2.0))) (if c (probe 1) (probe 2))))");
        let f = &p.funcs[0];
        let cmp = f.blocks[0]
            .insts
            .iter()
            .find(|i| {
                matches!(
                    i.kind,
                    InstKind::Bin {
                        op: BinOp::Fslt,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(f.ty(cmp.dst.unwrap()), Ty::Int);
    }

    #[test]
    fn if_without_else() {
        let p = ir("(defun main () (if (< 1 2) (probe 1)))");
        let f = &p.funcs[0];
        assert_eq!(f.blocks.len(), 3); // entry, then, join
    }

    #[test]
    fn while_loop_cfg() {
        let p = ir("(defun main () (let ((i 0)) (while (< i 3) (set i (+ i 1)))))");
        let f = &p.funcs[0];
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn probe_lowered() {
        let p = ir("(defun main () (probe 7))");
        assert!(matches!(
            p.funcs[0].blocks[0].insts[0].kind,
            InstKind::Probe { id: 7 }
        ));
    }

    #[test]
    fn consume_in_expression_position() {
        let p =
            ir("(global f (array float 2)) (defun main () (let ((v (consume f 0))) (aset f 1 v)))");
        let insts = &p.funcs[0].blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(
            i.kind,
            InstKind::Load {
                flavor: pc_isa::LoadFlavor::Consume,
                ..
            }
        )));
    }
}
