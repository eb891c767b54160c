//! Reader: source text → S-expressions.
//!
//! The source language has "simplified C semantics with Lisp syntax"
//! (paper §3). Atoms are integers, floats (must contain `.` or exponent),
//! symbols, and `:keywords` (used for directives such as `:unroll`).
//! Comments run from `;` to end of line.

use crate::error::{CompileError, Result};
use std::fmt;

/// Deepest list nesting the reader accepts. Every pass over source
/// trees recurses, so a cap keeps hostile input a typed error instead of
/// a stack overflow. In a debug build on a 2 MiB thread (a test
/// thread's stack), nested `let` or `while` statements overflow the
/// front end at about 146 levels, so the cap is 128; the shipped
/// programs nest at most 10.
pub const MAX_NESTING: usize = 128;

/// An atomic token.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// A symbol (identifier or operator).
    Sym(String),
    /// A `:keyword` directive.
    Key(String),
}

/// An S-expression with its source position.
#[derive(Debug, Clone)]
pub struct Sexpr {
    /// 1-based line where the expression starts.
    pub line: u32,
    /// 1-based column where the expression starts.
    pub col: u32,
    /// The node.
    pub node: Node,
}

/// Structural equality: positions are metadata and do not participate, so
/// a re-parse of rendered output compares equal to the original.
impl PartialEq for Sexpr {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
    }
}

/// S-expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An atom.
    Atom(Atom),
    /// A parenthesized list.
    List(Vec<Sexpr>),
}

impl Sexpr {
    /// The list elements, or an error if this is an atom.
    pub fn list(&self) -> Result<&[Sexpr]> {
        match &self.node {
            Node::List(xs) => Ok(xs),
            Node::Atom(_) => Err(CompileError::at(self.line, "expected a list")),
        }
    }

    /// The symbol name, or an error otherwise.
    pub fn sym(&self) -> Result<&str> {
        match &self.node {
            Node::Atom(Atom::Sym(s)) => Ok(s),
            _ => Err(CompileError::at(self.line, "expected a symbol")),
        }
    }

    /// True if this is the symbol `name`.
    pub fn is_sym(&self, name: &str) -> bool {
        matches!(&self.node, Node::Atom(Atom::Sym(s)) if s == name)
    }

    /// The head symbol of a list form, if any.
    pub fn head(&self) -> Option<&str> {
        match &self.node {
            Node::List(xs) => xs.first().and_then(|x| match &x.node {
                Node::Atom(Atom::Sym(s)) => Some(s.as_str()),
                _ => None,
            }),
            Node::Atom(_) => None,
        }
    }
}

impl fmt::Display for Sexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Node::Atom(Atom::Int(i)) => write!(f, "{i}"),
            Node::Atom(Atom::Float(x)) => write!(f, "{x:?}"),
            Node::Atom(Atom::Sym(s)) => write!(f, "{s}"),
            Node::Atom(Atom::Key(s)) => write!(f, ":{s}"),
            Node::List(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Parses a whole source file into top-level S-expressions.
///
/// # Errors
/// Returns a [`CompileError`] for unbalanced parentheses, lists nested
/// deeper than [`MAX_NESTING`], or malformed numeric literals.
pub fn parse(src: &str) -> Result<Vec<Sexpr>> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        depth: 0,
    };
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.eof() {
            break;
        }
        out.push(p.expr()?);
    }
    Ok(out)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    /// Lists open around the current position.
    depth: usize,
}

impl Parser {
    fn eof(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c == ';' {
                while let Some(c) = self.bump() {
                    if c == '\n' {
                        break;
                    }
                }
            } else if c.is_whitespace() {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expr(&mut self) -> Result<Sexpr> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        match self.peek() {
            None => Err(CompileError::at(line, "unexpected end of input")),
            Some('(') => {
                if self.depth == MAX_NESTING {
                    return Err(CompileError::at(
                        line,
                        format!("lists nest deeper than {MAX_NESTING} levels"),
                    ));
                }
                self.depth += 1;
                self.bump();
                let mut xs = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        None => {
                            return Err(CompileError::at(line, "unclosed parenthesis"));
                        }
                        Some(')') => {
                            self.bump();
                            break;
                        }
                        Some(_) => xs.push(self.expr()?),
                    }
                }
                self.depth -= 1;
                Ok(Sexpr {
                    line,
                    col,
                    node: Node::List(xs),
                })
            }
            Some(')') => Err(CompileError::at(line, "unexpected ')'")),
            Some(_) => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Sexpr> {
        let (line, col) = (self.line, self.col);
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_whitespace() || c == '(' || c == ')' || c == ';' {
                break;
            }
            s.push(c);
            self.bump();
        }
        let node = if let Some(rest) = s.strip_prefix(':') {
            Node::Atom(Atom::Key(rest.to_string()))
        } else if looks_numeric(&s) {
            if s.contains('.') || s.contains('e') || s.contains('E') {
                let f: f64 = s
                    .parse()
                    .map_err(|_| CompileError::at(line, format!("bad float literal '{s}'")))?;
                Node::Atom(Atom::Float(f))
            } else {
                let i: i64 = s
                    .parse()
                    .map_err(|_| CompileError::at(line, format!("bad integer literal '{s}'")))?;
                Node::Atom(Atom::Int(i))
            }
        } else {
            Node::Atom(Atom::Sym(s))
        };
        Ok(Sexpr { line, col, node })
    }
}

/// Numeric literals start with a digit, or a sign followed by a digit.
fn looks_numeric(s: &str) -> bool {
    let mut cs = s.chars();
    match cs.next() {
        Some(c) if c.is_ascii_digit() => true,
        Some('-') | Some('+') => cs.next().is_some_and(|c| c.is_ascii_digit()),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Sexpr {
        let mut v = parse(src).unwrap();
        assert_eq!(v.len(), 1);
        v.remove(0)
    }

    #[test]
    fn parses_atoms() {
        assert_eq!(one("42").node, Node::Atom(Atom::Int(42)));
        assert_eq!(one("-3").node, Node::Atom(Atom::Int(-3)));
        assert_eq!(one("2.5").node, Node::Atom(Atom::Float(2.5)));
        assert_eq!(one("-0.5").node, Node::Atom(Atom::Float(-0.5)));
        assert_eq!(one("1e3").node, Node::Atom(Atom::Float(1000.0)));
        assert_eq!(one("foo").node, Node::Atom(Atom::Sym("foo".into())));
        assert_eq!(one("+").node, Node::Atom(Atom::Sym("+".into())));
        assert_eq!(one(":unroll").node, Node::Atom(Atom::Key("unroll".into())));
    }

    #[test]
    fn parses_nested_lists() {
        let e = one("(+ 1 (* 2 3))");
        let xs = e.list().unwrap();
        assert_eq!(xs.len(), 3);
        assert!(xs[0].is_sym("+"));
        assert_eq!(e.head(), Some("+"));
        assert_eq!(xs[2].head(), Some("*"));
    }

    #[test]
    fn tracks_line_numbers() {
        let v = parse("(a)\n(b\n c)").unwrap();
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        assert_eq!(v[1].list().unwrap()[1].line, 3);
    }

    #[test]
    fn tracks_columns() {
        let v = parse("(a)  (b c)\n   (d)").unwrap();
        assert_eq!((v[0].line, v[0].col), (1, 1));
        assert_eq!((v[1].line, v[1].col), (1, 6));
        assert_eq!(v[1].list().unwrap()[1].col, 9);
        assert_eq!((v[2].line, v[2].col), (2, 4));
    }

    #[test]
    fn skips_comments() {
        let v = parse("; header\n(a) ; trailing\n(b)").unwrap();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn errors_on_unbalanced() {
        assert!(parse("(a (b)").is_err());
        assert!(parse(")").is_err());
    }

    #[test]
    fn errors_on_bad_numbers() {
        assert!(parse("1.2.3").is_err());
        assert!(parse("12x").is_err());
    }

    #[test]
    fn minus_alone_is_a_symbol() {
        assert_eq!(one("-").node, Node::Atom(Atom::Sym("-".into())));
    }

    #[test]
    fn display_round_trips_structure() {
        let e = one("(let ((x 1)) (+ x 2.5))");
        let s = e.to_string();
        assert_eq!(one(&s), e);
    }

    #[test]
    fn accessors_error_politely() {
        let e = one("7");
        assert!(e.list().is_err());
        assert!(e.sym().is_err());
        assert!(one("(1 2)").head().is_none());
    }
}
