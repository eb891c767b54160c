//! Front end: top-level forms, compile-time constants, and procedure
//! inlining.
//!
//! Top-level forms:
//!
//! * `(global name int|float|(array int N)|(array float N))`
//! * `(const name expr)` — folded at compile time
//! * `(defun name (params…) body…)` — procedures are implemented as
//!   macro-expansions (paper §3): every call site is inlined, with
//!   alpha-renaming to prevent capture
//! * `(defun main () …)` — the entry thread
//!
//! The front end produces an [`crate::ast::Module`] with no remaining calls.

use crate::ast::{
    BinOp, Expr, GlobalDecl, LoopMeta, Module, Spanned, SrcSpan, Stmt, Ty, UnOp, Unroll,
};
use crate::error::{CompileError, Result};
use crate::sexpr::{self, Atom, Node, Sexpr};
use pc_isa::op::{eval_float, eval_int};
use pc_isa::{FloatOp, IntOp, LoadFlavor, StoreFlavor, Value};
use std::collections::HashMap;

/// Maximum procedure-expansion depth (procedures may not recurse).
const MAX_DEPTH: usize = 64;

/// Parses and expands a source file into a [`Module`].
///
/// # Errors
/// Any syntactic or expansion-time error, with a source line.
pub fn expand(src: &str) -> Result<Module> {
    let forms = sexpr::parse(src)?;
    let mut globals = Vec::new();
    let mut consts: HashMap<String, Expr> = HashMap::new();
    let mut defuns: HashMap<String, (Vec<String>, Vec<Sexpr>)> = HashMap::new();
    let mut main: Option<Vec<Sexpr>> = None;

    for form in &forms {
        let xs = form.list()?;
        let head = form
            .head()
            .ok_or_else(|| CompileError::at(form.line, "expected a top-level form"))?;
        match head {
            "global" => {
                if xs.len() != 3 {
                    return Err(CompileError::at(form.line, "(global name type)"));
                }
                let name = xs[1].sym()?.to_string();
                let (elem, len) = parse_type(&xs[2])?;
                globals.push(GlobalDecl { name, elem, len });
            }
            "const" => {
                if xs.len() != 3 {
                    return Err(CompileError::at(form.line, "(const name expr)"));
                }
                let name = xs[1].sym()?.to_string();
                let value = eval_const(&xs[2], &consts)?;
                consts.insert(name, value);
            }
            "defun" => {
                if xs.len() < 3 {
                    return Err(CompileError::at(form.line, "(defun name (params) body...)"));
                }
                let name = xs[1].sym()?.to_string();
                let params: Vec<String> = xs[2]
                    .list()?
                    .iter()
                    .map(|p| p.sym().map(str::to_string))
                    .collect::<Result<_>>()?;
                let body = xs[3..].to_vec();
                if name == "main" {
                    if !params.is_empty() {
                        return Err(CompileError::at(form.line, "main takes no parameters"));
                    }
                    main = Some(body);
                } else {
                    defuns.insert(name, (params, body));
                }
            }
            other => {
                return Err(CompileError::at(
                    form.line,
                    format!("unknown top-level form '{other}'"),
                ))
            }
        }
    }

    let main = main.ok_or_else(|| CompileError::new("no (defun main () ...) found"))?;
    let mut cx = Ctx {
        consts,
        defuns,
        scopes: vec![HashMap::new()],
        gensym: 0,
        depth: 0,
        nest: 0,
        loops: Vec::new(),
        loop_stack: Vec::new(),
    };
    let body = cx.stmts(&main)?;
    Ok(Module {
        globals,
        main: body,
        loops: cx.loops,
    })
}

fn parse_type(sx: &Sexpr) -> Result<(Ty, u64)> {
    match &sx.node {
        Node::Atom(Atom::Sym(s)) if s == "int" => Ok((Ty::Int, 1)),
        Node::Atom(Atom::Sym(s)) if s == "float" => Ok((Ty::Float, 1)),
        Node::List(xs) if xs.len() == 3 && xs[0].is_sym("array") => {
            let elem = match xs[1].sym()? {
                "int" => Ty::Int,
                "float" => Ty::Float,
                other => {
                    return Err(CompileError::at(
                        sx.line,
                        format!("bad element type '{other}'"),
                    ))
                }
            };
            let len = match &xs[2].node {
                Node::Atom(Atom::Int(n)) if *n > 0 => *n as u64,
                _ => {
                    return Err(CompileError::at(
                        sx.line,
                        "array length must be a positive integer",
                    ))
                }
            };
            Ok((elem, len))
        }
        _ => Err(CompileError::at(
            sx.line,
            "type must be int, float, or (array <elem> <len>)",
        )),
    }
}

/// Evaluates a constant expression over literals and earlier constants.
fn eval_const(sx: &Sexpr, consts: &HashMap<String, Expr>) -> Result<Expr> {
    match &sx.node {
        Node::Atom(Atom::Int(i)) => Ok(Expr::Int(*i)),
        Node::Atom(Atom::Float(f)) => Ok(Expr::Float(*f)),
        Node::Atom(Atom::Sym(s)) => consts
            .get(s)
            .cloned()
            .ok_or_else(|| CompileError::at(sx.line, format!("unknown constant '{s}'"))),
        Node::List(xs) if xs.len() == 3 => {
            let op = xs[0].sym()?;
            let a = eval_const(&xs[1], consts)?;
            let b = eval_const(&xs[2], consts)?;
            let bad = || CompileError::at(sx.line, "bad constant expression");
            // Folded by the ISA's evaluators, so a constant wraps and
            // rejects a zero divisor exactly as the machine would.
            let v = match (a, b) {
                (Expr::Int(a), Expr::Int(b)) => {
                    let op = match op {
                        "+" => IntOp::Add,
                        "-" => IntOp::Sub,
                        "*" => IntOp::Mul,
                        "/" => IntOp::Div,
                        "%" => IntOp::Rem,
                        _ => return Err(bad()),
                    };
                    eval_int(op, &[Value::Int(a), Value::Int(b)])
                }
                (Expr::Float(a), Expr::Float(b)) => {
                    let op = match op {
                        "+" => FloatOp::Fadd,
                        "-" => FloatOp::Fsub,
                        "*" => FloatOp::Fmul,
                        "/" => FloatOp::Fdiv,
                        _ => return Err(bad()),
                    };
                    eval_float(op, &[Value::Float(a), Value::Float(b)])
                }
                _ => return Err(CompileError::at(sx.line, "mixed-type constant expression")),
            };
            match v.map_err(|_| bad())? {
                Value::Int(i) => Ok(Expr::Int(i)),
                Value::Float(f) => Ok(Expr::Float(f)),
            }
        }
        _ => Err(CompileError::at(sx.line, "bad constant expression")),
    }
}

struct Ctx {
    consts: HashMap<String, Expr>,
    defuns: HashMap<String, (Vec<String>, Vec<Sexpr>)>,
    /// Alpha-renaming scopes: source name → unique name.
    scopes: Vec<HashMap<String, String>>,
    gensym: u64,
    depth: usize,
    /// Depth of the AST node being built. Inlining and n-ary folds can
    /// nest the expansion deeper than the source's lists, so it is
    /// capped at [`sexpr::MAX_NESTING`] as the reader caps those.
    nest: usize,
    /// Source loops in discovery order (becomes [`Module::loops`]).
    loops: Vec<LoopMeta>,
    /// Innermost-last stack of enclosing loop ids.
    loop_stack: Vec<u32>,
}

impl Ctx {
    fn fresh(&mut self, base: &str) -> String {
        self.gensym += 1;
        format!("{base}%{}", self.gensym)
    }

    fn bind(&mut self, name: &str) -> String {
        let unique = self.fresh(name);
        self.scopes
            .last_mut()
            .expect("scope stack")
            .insert(name.to_string(), unique.clone());
        unique
    }

    fn resolve(&self, name: &str) -> Option<String> {
        for scope in self.scopes.iter().rev() {
            if let Some(u) = scope.get(name) {
                return Some(u.clone());
            }
        }
        None
    }

    fn stmts(&mut self, body: &[Sexpr]) -> Result<Vec<Spanned>> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    /// Records a source loop, returning its id.
    fn enter_loop(&mut self, name: &str, line: u32) -> u32 {
        let id = self.loops.len() as u32;
        self.loops.push(LoopMeta {
            name: name.to_string(),
            line,
        });
        self.loop_stack.push(id);
        id
    }

    fn exit_loop(&mut self) {
        self.loop_stack.pop();
    }

    /// Goes `levels` deeper into the AST being built; callers subtract
    /// them again once the node is built.
    fn descend(&mut self, line: u32, levels: usize) -> Result<()> {
        self.nest += levels;
        if self.nest > sexpr::MAX_NESTING {
            return Err(CompileError::at(
                line,
                format!("expansion nests deeper than {} levels", sexpr::MAX_NESTING),
            ));
        }
        Ok(())
    }

    /// Builds one statement, stamping it with its source span and the
    /// innermost enclosing loop at the *call site* (so statements inlined
    /// from procedures attribute to the loop that executes them).
    fn stmt(&mut self, sx: &Sexpr) -> Result<Spanned> {
        let span = SrcSpan {
            line: sx.line,
            col: sx.col,
            loop_id: self.loop_stack.last().copied(),
        };
        self.descend(sx.line, 1)?;
        let node = self.stmt_node(sx)?;
        self.nest -= 1;
        Ok(Spanned { span, node })
    }

    fn stmt_node(&mut self, sx: &Sexpr) -> Result<Stmt> {
        let Some(head) = sx.head() else {
            // Bare expression statement (atom or non-symbol-headed list).
            return Ok(Stmt::Expr(self.expr_node(sx)?));
        };
        let xs = sx.list()?;
        match head {
            "let" => {
                self.scopes.push(HashMap::new());
                let mut bindings = Vec::new();
                for b in xs
                    .get(1)
                    .ok_or_else(|| CompileError::at(sx.line, "(let ((x e)...) body...)"))?
                    .list()?
                {
                    let pair = b.list()?;
                    if pair.len() != 2 {
                        return Err(CompileError::at(b.line, "binding must be (name expr)"));
                    }
                    let init = self.expr(&pair[1])?; // evaluated before binding
                    let unique = self.bind(pair[0].sym()?);
                    bindings.push((unique, init));
                }
                let body = self.stmts(&xs[2..])?;
                self.scopes.pop();
                Ok(Stmt::Let { bindings, body })
            }
            "set" => {
                if xs.len() != 3 {
                    return Err(CompileError::at(sx.line, "(set name expr)"));
                }
                let raw = xs[1].sym()?;
                let name = self.resolve(raw).unwrap_or_else(|| raw.to_string());
                Ok(Stmt::Set {
                    name,
                    value: self.expr(&xs[2])?,
                })
            }
            "aset" | "aset-wf" | "produce" => {
                if xs.len() != 4 {
                    return Err(CompileError::at(sx.line, format!("({head} sym idx value)")));
                }
                let flavor = match head {
                    "aset" => StoreFlavor::Plain,
                    "aset-wf" => StoreFlavor::WaitFull,
                    _ => StoreFlavor::Produce,
                };
                Ok(Stmt::ASet {
                    sym: xs[1].sym()?.to_string(),
                    idx: self.expr(&xs[2])?,
                    value: self.expr(&xs[3])?,
                    flavor,
                })
            }
            "if" => {
                if xs.len() != 3 && xs.len() != 4 {
                    return Err(CompileError::at(sx.line, "(if cond then [else])"));
                }
                let cond = self.expr(&xs[1])?;
                let then_ = vec![self.stmt(&xs[2])?];
                let else_ = if xs.len() == 4 {
                    vec![self.stmt(&xs[3])?]
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then_, else_ })
            }
            "begin" => Ok(Stmt::Let {
                bindings: Vec::new(),
                body: self.stmts(&xs[1..])?,
            }),
            "while" => {
                if xs.len() < 2 {
                    return Err(CompileError::at(sx.line, "(while cond body...)"));
                }
                let cond = self.expr(&xs[1])?;
                self.enter_loop("while", sx.line);
                let body = self.stmts(&xs[2..]);
                self.exit_loop();
                Ok(Stmt::While { cond, body: body? })
            }
            "for" | "forall" => {
                let spec = xs
                    .get(1)
                    .ok_or_else(|| CompileError::at(sx.line, "missing loop spec"))?
                    .list()?;
                if spec.len() != 3 {
                    return Err(CompileError::at(
                        sx.line,
                        format!("({head} (i start end) ...)"),
                    ));
                }
                let start = self.expr(&spec[1])?;
                let end = self.expr(&spec[2])?;
                self.scopes.push(HashMap::new());
                let src_var = spec[0].sym()?.to_string();
                let var = self.bind(&src_var);
                self.enter_loop(&src_var, sx.line);
                // Optional :unroll directive.
                let mut body_start = 2;
                let mut unroll = Unroll::None;
                if head == "for" {
                    if let Some(Sexpr {
                        node: Node::Atom(Atom::Key(k)),
                        line,
                        ..
                    }) = xs.get(2)
                    {
                        if k != "unroll" {
                            return Err(CompileError::at(*line, format!("unknown directive :{k}")));
                        }
                        let mode = xs
                            .get(3)
                            .ok_or_else(|| CompileError::at(*line, ":unroll needs an argument"))?;
                        if mode.is_sym("full") {
                            unroll = Unroll::Full;
                        } else if let Node::Atom(Atom::Int(k)) = &mode.node {
                            if *k < 2 {
                                return Err(CompileError::at(
                                    mode.line,
                                    ":unroll factor must be at least 2",
                                ));
                            }
                            unroll = Unroll::By(*k as u32);
                        } else {
                            return Err(CompileError::at(
                                mode.line,
                                ":unroll takes 'full' or an integer factor",
                            ));
                        }
                        body_start = 4;
                    }
                }
                let body = self.stmts(&xs[body_start..]);
                self.exit_loop();
                self.scopes.pop();
                let body = body?;
                if head == "for" {
                    Ok(Stmt::For {
                        var,
                        start,
                        end,
                        unroll,
                        body,
                    })
                } else {
                    Ok(Stmt::Forall {
                        var,
                        start,
                        end,
                        body,
                    })
                }
            }
            "fork" => Ok(Stmt::Fork {
                body: self.stmts(&xs[1..])?,
            }),
            "probe" => {
                let id = match xs.get(1).map(|x| &x.node) {
                    Some(Node::Atom(Atom::Int(i))) if *i >= 0 => *i as u32,
                    _ => return Err(CompileError::at(sx.line, "(probe <nonnegative int>)")),
                };
                Ok(Stmt::Probe(id))
            }
            name if self.defuns.contains_key(name) => self.inline_call(sx),
            _ => Ok(Stmt::Expr(self.expr_node(sx)?)),
        }
    }

    /// Expands a procedure call into a `let` over its renamed body.
    fn inline_call(&mut self, sx: &Sexpr) -> Result<Stmt> {
        if self.depth >= MAX_DEPTH {
            return Err(CompileError::at(
                sx.line,
                "procedure expansion too deep (recursion is not supported)",
            ));
        }
        let xs = sx.list()?;
        let name = sx.head().expect("checked by caller");
        let (params, body) = self.defuns.get(name).cloned().expect("checked");
        if xs.len() - 1 != params.len() {
            return Err(CompileError::at(
                sx.line,
                format!(
                    "{name} expects {} arguments, got {}",
                    params.len(),
                    xs.len() - 1
                ),
            ));
        }
        // Evaluate arguments in the caller's scope, then bind params.
        let inits: Vec<Expr> = xs[1..]
            .iter()
            .map(|a| self.expr(a))
            .collect::<Result<_>>()?;
        self.scopes.push(HashMap::new());
        let mut bindings = Vec::new();
        for (p, init) in params.iter().zip(inits) {
            bindings.push((self.bind(p), init));
        }
        self.depth += 1;
        let body = self.stmts(&body)?;
        self.depth -= 1;
        self.scopes.pop();
        Ok(Stmt::Let { bindings, body })
    }

    fn expr(&mut self, sx: &Sexpr) -> Result<Expr> {
        self.descend(sx.line, 1)?;
        let e = self.expr_node(sx)?;
        self.nest -= 1;
        Ok(e)
    }

    fn expr_node(&mut self, sx: &Sexpr) -> Result<Expr> {
        match &sx.node {
            Node::Atom(Atom::Int(i)) => Ok(Expr::Int(*i)),
            Node::Atom(Atom::Float(f)) => Ok(Expr::Float(*f)),
            Node::Atom(Atom::Key(k)) => Err(CompileError::at(
                sx.line,
                format!("unexpected keyword :{k}"),
            )),
            Node::Atom(Atom::Sym(s)) => {
                if let Some(c) = self.consts.get(s) {
                    return Ok(c.clone());
                }
                Ok(Expr::Var(self.resolve(s).unwrap_or_else(|| s.clone())))
            }
            Node::List(xs) => {
                let head = sx.head().ok_or_else(|| {
                    CompileError::at(sx.line, "expression list must start with an operator")
                })?;
                match head {
                    "+" | "-" | "*" | "/" | "%" | "<" | "<=" | ">" | ">=" | "=" | "!=" | "and"
                    | "or" | "xor" | "shl" | "shr" => {
                        if head == "-" && xs.len() == 2 {
                            return Ok(Expr::Un(UnOp::Neg, Box::new(self.expr(&xs[1])?)));
                        }
                        if xs.len() < 3 {
                            return Err(CompileError::at(
                                sx.line,
                                format!("'{head}' needs at least two operands"),
                            ));
                        }
                        let op = bin_op(head).expect("matched above");
                        // Left-fold n-ary +, *, and, or: each operand
                        // past the second stacks one more node.
                        let folds = xs.len() - 3;
                        self.descend(sx.line, folds)?;
                        let mut acc = self.expr(&xs[1])?;
                        for x in &xs[2..] {
                            acc = Expr::Bin(op, Box::new(acc), Box::new(self.expr(x)?));
                        }
                        self.nest -= folds;
                        if xs.len() > 3
                            && !matches!(op, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or)
                        {
                            return Err(CompileError::at(
                                sx.line,
                                format!("'{head}' takes exactly two operands"),
                            ));
                        }
                        Ok(acc)
                    }
                    "not" | "float" | "int" | "fabs" => {
                        if xs.len() != 2 {
                            return Err(CompileError::at(sx.line, format!("({head} x)")));
                        }
                        let op = match head {
                            "not" => UnOp::Not,
                            "float" => UnOp::ToFloat,
                            "int" => UnOp::ToInt,
                            _ => UnOp::Fabs,
                        };
                        Ok(Expr::Un(op, Box::new(self.expr(&xs[1])?)))
                    }
                    "aref" | "aref-wf" | "consume" => {
                        if xs.len() != 3 {
                            return Err(CompileError::at(sx.line, format!("({head} sym idx)")));
                        }
                        let flavor = match head {
                            "aref" => LoadFlavor::Plain,
                            "aref-wf" => LoadFlavor::WaitFull,
                            _ => LoadFlavor::Consume,
                        };
                        Ok(Expr::ARef {
                            sym: xs[1].sym()?.to_string(),
                            idx: Box::new(self.expr(&xs[2])?),
                            flavor,
                        })
                    }
                    "addr-of" => {
                        if xs.len() != 2 {
                            return Err(CompileError::at(sx.line, "(addr-of sym)"));
                        }
                        Ok(Expr::AddrOf(xs[1].sym()?.to_string()))
                    }
                    other if self.defuns.contains_key(other) => Err(CompileError::at(
                        sx.line,
                        format!("procedure '{other}' may only be called in statement position"),
                    )),
                    other => Err(CompileError::at(
                        sx.line,
                        format!("unknown operator '{other}'"),
                    )),
                }
            }
        }
    }
}

fn bin_op(head: &str) -> Option<BinOp> {
    Some(match head {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Rem,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "=" => BinOp::Eq,
        "!=" => BinOp::Ne,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_main() {
        let m = expand("(defun main () (set x 1))").unwrap();
        assert!(m.globals.is_empty());
        assert_eq!(m.main.len(), 1);
    }

    #[test]
    fn globals_and_arrays() {
        let m = expand("(global a (array float 81)) (global n int) (defun main () (aset a 0 1.5))")
            .unwrap();
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[0].len, 81);
        assert_eq!(m.globals[0].elem, Ty::Float);
        assert_eq!(m.globals[1].len, 1);
    }

    #[test]
    fn consts_fold_and_substitute() {
        let m = expand("(const n 9) (const n2 (* n n)) (defun main () (set x n2))").unwrap();
        match &m.main[0].node {
            Stmt::Set { value, .. } => assert_eq!(*value, Expr::Int(81)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn consts_wrap_like_the_machine() {
        for (expr, want) in [
            ("(/ -9223372036854775808 -1)", i64::MIN),
            ("(% -9223372036854775808 -1)", 0),
            ("(* 9223372036854775807 2)", -2),
            ("(+ 9223372036854775807 1)", i64::MIN),
        ] {
            let m = expand(&format!("(const c {expr}) (defun main () (set x c))")).unwrap();
            match &m.main[0].node {
                Stmt::Set { value, .. } => assert_eq!(*value, Expr::Int(want), "{expr}"),
                other => panic!("{other:?}"),
            }
        }
        let err = expand("(const c (/ 1 0)) (defun main () (set x c))").unwrap_err();
        assert!(err.msg.contains("bad constant"), "{err}");
    }

    #[test]
    fn procedures_inline_with_renaming() {
        let m = expand(
            "(defun inc (x) (set y (+ x 1)))
             (defun main () (let ((x 5)) (inc x) (set z x)))",
        )
        .unwrap();
        // main: Let { x%1 = 5, [ Let { x%2 = x%1 } [set y ...], set z ] }
        let Stmt::Let { bindings, body } = &m.main[0].node else {
            panic!()
        };
        assert!(bindings[0].0.starts_with("x%"));
        let Stmt::Let {
            bindings: inner, ..
        } = &body[0].node
        else {
            panic!()
        };
        // The parameter was renamed differently from the caller's local.
        assert_ne!(inner[0].0, bindings[0].0);
        assert_eq!(inner[0].1, Expr::Var(bindings[0].0.clone()));
    }

    #[test]
    fn recursion_is_rejected() {
        let err = expand("(defun f (x) (f x)) (defun main () (f 1))").unwrap_err();
        assert!(err.msg.contains("too deep"), "{err}");
    }

    #[test]
    fn unroll_directive() {
        let m = expand("(defun main () (for (i 0 4) :unroll full (set x i)))").unwrap();
        let Stmt::For { unroll, .. } = &m.main[0].node else {
            panic!()
        };
        assert_eq!(*unroll, Unroll::Full);
    }

    #[test]
    fn nary_plus_folds_left() {
        let m = expand("(defun main () (set x (+ 1 2 3)))").unwrap();
        let Stmt::Set { value, .. } = &m.main[0].node else {
            panic!()
        };
        // ((1 + 2) + 3)
        let Expr::Bin(BinOp::Add, l, _) = value else {
            panic!()
        };
        assert!(matches!(**l, Expr::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn sync_forms_map_to_flavors() {
        let m = expand(
            "(global f (array int 4))
             (defun main () (produce f 0 1) (set x (consume f 0)) (aset-wf f 1 2))",
        )
        .unwrap();
        assert!(matches!(
            m.main[0].node,
            Stmt::ASet {
                flavor: StoreFlavor::Produce,
                ..
            }
        ));
        let Stmt::Set { value, .. } = &m.main[1].node else {
            panic!()
        };
        assert!(matches!(
            value,
            Expr::ARef {
                flavor: LoadFlavor::Consume,
                ..
            }
        ));
        assert!(matches!(
            m.main[2].node,
            Stmt::ASet {
                flavor: StoreFlavor::WaitFull,
                ..
            }
        ));
    }

    #[test]
    fn forall_and_fork_parse() {
        let m = expand("(defun main () (forall (i 0 4) (set x i)) (fork (set y 1)))").unwrap();
        assert!(matches!(m.main[0].node, Stmt::Forall { .. }));
        assert!(matches!(m.main[1].node, Stmt::Fork { .. }));
    }

    #[test]
    fn errors_have_lines() {
        let err = expand("(defun main ()\n (bogus 1))").unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn unary_minus() {
        let m = expand("(defun main () (set x (- 5)))").unwrap();
        let Stmt::Set { value, .. } = &m.main[0].node else {
            panic!()
        };
        assert!(matches!(value, Expr::Un(UnOp::Neg, _)));
    }

    #[test]
    fn wrong_arity_call_is_rejected() {
        let err = expand("(defun f (a b) (set x a)) (defun main () (f 1))").unwrap_err();
        assert!(err.msg.contains("expects 2"), "{err}");
    }

    #[test]
    fn expression_position_call_is_rejected() {
        let err = expand("(defun f (a) (set x a)) (defun main () (set y (f 1)))").unwrap_err();
        assert!(err.msg.contains("statement position"), "{err}");
    }
}

#[cfg(test)]
mod hardening_tests {
    use super::*;

    #[test]
    fn shadowing_in_nested_lets_resolves_innermost() {
        let m = expand(
            "(defun main ()
               (let ((x 1))
                 (let ((x 2))
                   (set y x))
                 (set z x)))",
        )
        .unwrap();
        // y gets inner x, z gets outer x: the renamed names must differ.
        fn find_sets(stmts: &[Spanned], out: &mut Vec<(String, Expr)>) {
            for s in stmts {
                match &s.node {
                    Stmt::Set { name, value } => out.push((name.clone(), value.clone())),
                    Stmt::Let { body, .. } => find_sets(body, out),
                    _ => {}
                }
            }
        }
        let mut sets = Vec::new();
        find_sets(&m.main, &mut sets);
        let y_src = match &sets.iter().find(|(n, _)| n.starts_with('y')).unwrap().1 {
            Expr::Var(v) => v.clone(),
            other => panic!("{other:?}"),
        };
        let z_src = match &sets.iter().find(|(n, _)| n.starts_with('z')).unwrap().1 {
            Expr::Var(v) => v.clone(),
            other => panic!("{other:?}"),
        };
        assert_ne!(y_src, z_src);
    }

    #[test]
    fn loop_variable_shadows_outer_binding() {
        let m = expand(
            "(defun main ()
               (let ((i 9))
                 (for (i 0 3) (set a i))
                 (set b i)))",
        )
        .unwrap();
        let txt = format!("{m:?}");
        // Two distinct renamed i's exist.
        assert!(txt.matches("i%").count() >= 2, "{txt}");
    }

    #[test]
    fn nested_procedure_expansion() {
        let m = expand(
            "(defun g (v) (set out (+ v 1)))
             (defun f (u) (g (* u 2)))
             (defun main () (f 3))",
        )
        .unwrap();
        // Fully expanded: a let (f) containing a let (g) containing a set.
        let Stmt::Let { body, .. } = &m.main[0].node else {
            panic!()
        };
        let Stmt::Let { body: inner, .. } = &body[0].node else {
            panic!()
        };
        assert!(matches!(inner[0].node, Stmt::Set { .. }));
    }

    #[test]
    fn procedures_can_call_multiple_times() {
        let m = expand(
            "(defun inc (x) (set c (+ x 1)))
             (defun main () (inc 1) (inc 2) (inc 3))",
        )
        .unwrap();
        assert_eq!(m.main.len(), 3);
    }

    #[test]
    fn duplicate_global_is_last_wins_or_error_free() {
        // Two globals with distinct names both recorded in order.
        let m =
            expand("(global a int) (global b (array float 2)) (defun main () (set a 1))").unwrap();
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[0].name, "a");
        assert_eq!(m.globals[1].len, 2);
    }

    #[test]
    fn error_messages_name_the_problem() {
        for (src, needle) in [
            ("(defun main () (if))", "(if cond then [else])"),
            ("(defun main () (probe x))", "probe"),
            ("(defun main () (aset))", "aset"),
            ("(defun main (x) 1)", "main takes no parameters"),
            ("(widget)", "unknown top-level form"),
            (
                "(global g (array int 0)) (defun main () (probe 0))",
                "positive",
            ),
            (
                "(const c (+ 1 2.0)) (defun main () (probe 0))",
                "mixed-type",
            ),
            (
                "(const c (/ 1 0)) (defun main () (probe 0))",
                "bad constant",
            ),
        ] {
            let err = expand(src).unwrap_err();
            assert!(
                err.msg.contains(needle),
                "source {src}: expected '{needle}' in '{}'",
                err.msg
            );
        }
    }

    #[test]
    fn keywords_rejected_in_expressions() {
        let err = expand("(defun main () (set x :unroll))").unwrap_err();
        assert!(err.msg.contains("keyword"), "{err}");
    }
}
