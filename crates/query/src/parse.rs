//! A text syntax for queries, views and instances.
//!
//! Rule syntax (CQs; repeated heads form UCQs):
//!
//! ```text
//! V1(x)  :- R(x,y), P(y).
//! V1(x)  :- P(x), x != Alice.
//! V2()   :- R(x,x).              % Boolean view
//! ```
//!
//! FO syntax (declared head, `:=` body):
//!
//! ```text
//! Q(x) := forall y. (R(x,y) -> exists z. R(y,z)).
//! ```
//!
//! Facts (for instances): `R(1,2). P(Alice).`
//!
//! Conventions: identifiers starting with a lowercase letter are
//! *variables*; uppercase identifiers and numbers are *constants*, interned
//! through a shared [`DomainNames`] table; relation symbols are resolved
//! against the supplied schema (any case). `!A(x)` is a safely negated
//! atom, `~φ` is FO negation, `%` starts a line comment.

use crate::cq::{Cq, Ucq};
use crate::fo::{Fo, FoQuery};
use crate::term::{Atom, Term, VarId};
use crate::view::QueryExpr;
use std::collections::HashMap;
use std::fmt;
use vqd_instance::{DomainNames, Instance, Relation, Schema, Tuple};

/// A parse error with a (line, column) position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation of the failure.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for vqd_budget::VqdError {
    fn from(e: ParseError) -> Self {
        vqd_budget::VqdError::Parse(e.to_string())
    }
}

type PResult<T> = Result<T, ParseError>;

/// A token; identifiers and numbers borrow their text from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'s> {
    Ident(&'s str),
    Int(&'s str),
    LParen,
    RParen,
    Comma,
    Dot,
    ColonDash,
    ColonEq,
    Bang,
    Eq,
    Neq,
    Amp,
    Pipe,
    Tilde,
    Arrow,
    DArrow,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(s) => write!(f, "`{s}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::ColonDash => write!(f, "`:-`"),
            Tok::ColonEq => write!(f, "`:=`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Neq => write!(f, "`!=`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::Pipe => write!(f, "`|`"),
            Tok::Tilde => write!(f, "`~`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::DArrow => write!(f, "`<->`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer;

impl Lexer {
    fn lex(src: &str) -> PResult<Vec<(Tok<'_>, usize, usize)>> {
        let mut out = Vec::new();
        let mut line = 1usize;
        let mut col = 1usize;
        let mut chars = src.chars().peekable();
        // Byte offset of the next unread character.
        let mut at = 0usize;
        macro_rules! bump {
            () => {{
                let c = chars.next();
                at += c.map_or(0, char::len_utf8);
                if c == Some('\n') {
                    line += 1;
                    col = 1;
                } else if c.is_some() {
                    col += 1;
                }
                c
            }};
        }
        loop {
            let (l, c) = (line, col);
            let Some(&ch) = chars.peek() else {
                out.push((Tok::Eof, l, c));
                return Ok(out);
            };
            match ch {
                ' ' | '\t' | '\r' | '\n' => {
                    bump!();
                }
                '%' => {
                    while let Some(&c2) = chars.peek() {
                        if c2 == '\n' {
                            break;
                        }
                        bump!();
                    }
                }
                '(' => {
                    bump!();
                    out.push((Tok::LParen, l, c));
                }
                ')' => {
                    bump!();
                    out.push((Tok::RParen, l, c));
                }
                ',' => {
                    bump!();
                    out.push((Tok::Comma, l, c));
                }
                '.' => {
                    bump!();
                    out.push((Tok::Dot, l, c));
                }
                '&' => {
                    bump!();
                    out.push((Tok::Amp, l, c));
                }
                '|' => {
                    bump!();
                    out.push((Tok::Pipe, l, c));
                }
                '~' => {
                    bump!();
                    out.push((Tok::Tilde, l, c));
                }
                '=' => {
                    bump!();
                    out.push((Tok::Eq, l, c));
                }
                ':' => {
                    bump!();
                    match chars.peek() {
                        Some('-') => {
                            bump!();
                            out.push((Tok::ColonDash, l, c));
                        }
                        Some('=') => {
                            bump!();
                            out.push((Tok::ColonEq, l, c));
                        }
                        _ => {
                            return Err(ParseError {
                                message: "expected `:-` or `:=`".into(),
                                line: l,
                                col: c,
                            })
                        }
                    }
                }
                '!' => {
                    bump!();
                    if chars.peek() == Some(&'=') {
                        bump!();
                        out.push((Tok::Neq, l, c));
                    } else {
                        out.push((Tok::Bang, l, c));
                    }
                }
                '-' => {
                    bump!();
                    if chars.peek() == Some(&'>') {
                        bump!();
                        out.push((Tok::Arrow, l, c));
                    } else {
                        return Err(ParseError {
                            message: "expected `->`".into(),
                            line: l,
                            col: c,
                        });
                    }
                }
                '<' => {
                    bump!();
                    if chars.peek() == Some(&'-') {
                        bump!();
                        if chars.peek() == Some(&'>') {
                            bump!();
                            out.push((Tok::DArrow, l, c));
                        } else {
                            return Err(ParseError {
                                message: "expected `<->`".into(),
                                line: l,
                                col: c,
                            });
                        }
                    } else {
                        return Err(ParseError {
                            message: "expected `<->`".into(),
                            line: l,
                            col: c,
                        });
                    }
                }
                c2 if c2.is_ascii_alphabetic() || c2 == '_' => {
                    let start = at;
                    while let Some(&c3) = chars.peek() {
                        if c3.is_ascii_alphanumeric() || c3 == '_' || c3 == '\'' {
                            bump!();
                        } else {
                            break;
                        }
                    }
                    out.push((Tok::Ident(&src[start..at]), l, c));
                }
                c2 if c2.is_ascii_digit() => {
                    let start = at;
                    while let Some(&c3) = chars.peek() {
                        if c3.is_ascii_digit() {
                            bump!();
                        } else {
                            break;
                        }
                    }
                    out.push((Tok::Int(&src[start..at]), l, c));
                }
                other => {
                    return Err(ParseError {
                        message: format!("unexpected character `{other}`"),
                        line: l,
                        col: c,
                    })
                }
            }
        }
    }
}

/// A parsed program: named query definitions in source order.
///
/// Consecutive `:-` rules with the same head name are merged into a UCQ.
#[derive(Clone, Debug)]
pub struct Program {
    /// `(head name, query)` definitions.
    pub defs: Vec<(String, QueryExpr)>,
}

impl Program {
    /// Finds a definition by head name.
    pub fn get(&self, name: &str) -> Option<&QueryExpr> {
        self.defs.iter().find(|(n, _)| n == name).map(|(_, q)| q)
    }
}

struct Parser<'a, 's> {
    toks: Vec<(Tok<'s>, usize, usize)>,
    pos: usize,
    schema: &'a Schema,
    names: &'a mut DomainNames,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> Tok<'s> {
        self.toks[self.pos].0
    }

    fn here(&self) -> (usize, usize) {
        (self.toks[self.pos].1, self.toks[self.pos].2)
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        let (line, col) = self.here();
        Err(ParseError { message: msg.into(), line, col })
    }

    fn next(&mut self) -> Tok<'s> {
        let t = self.toks[self.pos].0;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok<'_>) -> PResult<()> {
        if self.peek() == t {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> PResult<&'s str> {
        match self.peek() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn is_var_name(s: &str) -> bool {
        s.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
    }

    /// Parses a whole program of definitions.
    fn program(&mut self) -> PResult<Program> {
        // name -> list of parsed CQ disjuncts (for rule defs).
        let mut rule_defs: Vec<(String, Vec<Cq>)> = Vec::new();
        let mut defs: Vec<(String, QueryExpr)> = Vec::new();
        while self.peek() != Tok::Eof {
            let name = self.ident()?;
            self.expect(Tok::LParen)?;
            // Head terms are parsed into a temporary; variables are scoped
            // per rule, so we defer resolution until we know the def kind.
            let mut head_names: Vec<HeadTerm> = Vec::new();
            if self.peek() != Tok::RParen {
                loop {
                    head_names.push(self.head_term()?);
                    if self.peek() == Tok::Comma {
                        self.next();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
            match self.peek() {
                Tok::ColonDash => {
                    self.next();
                    let cq = self.rule_body(&head_names)?;
                    match rule_defs.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, ds)) => ds.push(cq),
                        None => rule_defs.push((name.to_owned(), vec![cq])),
                    }
                }
                Tok::ColonEq => {
                    self.next();
                    let q = self.fo_def(&head_names)?;
                    defs.push((name.to_owned(), QueryExpr::Fo(q)));
                    self.expect(Tok::Dot)?;
                }
                other => return self.err(format!("expected `:-` or `:=`, found {other}")),
            }
        }
        // Merge rule definitions (preserving first-appearance order).
        for (name, ds) in rule_defs {
            let q = if ds.len() == 1 {
                QueryExpr::Cq(ds.into_iter().next().expect("one"))
            } else {
                QueryExpr::Ucq(Ucq::new(ds))
            };
            defs.push((name, q));
        }
        Ok(Program { defs })
    }

    fn head_term(&mut self) -> PResult<HeadTerm<'s>> {
        match self.peek() {
            Tok::Ident(s) => {
                self.next();
                if Self::is_var_name(s) {
                    Ok(HeadTerm::Var(s))
                } else {
                    Ok(HeadTerm::Const(self.names.intern(s)))
                }
            }
            Tok::Int(s) => {
                self.next();
                Ok(HeadTerm::Const(self.names.intern(s)))
            }
            other => self.err(format!("expected term, found {other}")),
        }
    }

    fn term_in(&mut self, scope: &mut Scope, declare: bool) -> PResult<Term> {
        match self.peek() {
            Tok::Ident(s) => {
                self.next();
                if Self::is_var_name(s) {
                    match scope.lookup(s) {
                        Some(v) => Ok(Term::Var(v)),
                        None if declare => Ok(Term::Var(scope.declare(s))),
                        None => self.err(format!("variable `{s}` is not in scope")),
                    }
                } else {
                    Ok(Term::Const(self.names.intern(s)))
                }
            }
            Tok::Int(s) => {
                self.next();
                Ok(Term::Const(self.names.intern(s)))
            }
            other => self.err(format!("expected term, found {other}")),
        }
    }

    fn atom_args(&mut self, scope: &mut Scope, declare: bool) -> PResult<Vec<Term>> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                args.push(self.term_in(scope, declare)?);
                if self.peek() == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn resolve_rel(&self, name: &str, nargs: usize) -> PResult<vqd_instance::RelId> {
        match self.schema.find(name) {
            Some(r) if self.schema.arity(r) == nargs => Ok(r),
            Some(r) => self.err(format!(
                "relation `{name}` has arity {}, got {nargs} arguments",
                self.schema.arity(r)
            )),
            None => self.err(format!("unknown relation `{name}`")),
        }
    }

    fn rule_body(&mut self, head: &[HeadTerm<'_>]) -> PResult<Cq> {
        let mut q = Cq::new(self.schema);
        let mut scope = Scope::new();
        // Declare head variables first so their VarIds are the leading ones.
        let head_terms: Vec<Term> = head
            .iter()
            .map(|h| match h {
                HeadTerm::Var(n) => Term::Var(scope.lookup_or_declare(n)),
                HeadTerm::Const(c) => Term::Const(*c),
            })
            .collect();
        loop {
            match self.peek() {
                Tok::Bang => {
                    self.next();
                    let name = self.ident()?;
                    let args = self.atom_args(&mut scope, true)?;
                    let rel = self.resolve_rel(name, args.len())?;
                    q.neg_atoms.push(Atom::new(rel, args));
                }
                Tok::Ident(name) => {
                    // Could be an atom `R(..)` or a term in `t = u` / `t != u`.
                    let save = self.pos;
                    self.next();
                    if self.peek() == Tok::LParen {
                        let args = self.atom_args(&mut scope, true)?;
                        let rel = self.resolve_rel(name, args.len())?;
                        q.atoms.push(Atom::new(rel, args));
                    } else {
                        self.pos = save;
                        let a = self.term_in(&mut scope, true)?;
                        match self.next() {
                            Tok::Eq => {
                                let b = self.term_in(&mut scope, true)?;
                                q.eqs.push((a, b));
                            }
                            Tok::Neq => {
                                let b = self.term_in(&mut scope, true)?;
                                q.neqs.push((a, b));
                            }
                            other => {
                                return self.err(format!("expected `=` or `!=`, found {other}"))
                            }
                        }
                    }
                }
                Tok::Int(_) => {
                    let a = self.term_in(&mut scope, true)?;
                    match self.next() {
                        Tok::Eq => {
                            let b = self.term_in(&mut scope, true)?;
                            q.eqs.push((a, b));
                        }
                        Tok::Neq => {
                            let b = self.term_in(&mut scope, true)?;
                            q.neqs.push((a, b));
                        }
                        other => return self.err(format!("expected `=` or `!=`, found {other}")),
                    }
                }
                other => return self.err(format!("expected body literal, found {other}")),
            }
            match self.next() {
                Tok::Comma => continue,
                Tok::Dot => break,
                other => return self.err(format!("expected `,` or `.`, found {other}")),
            }
        }
        q.head = head_terms;
        q.var_names = scope.names;
        Ok(q)
    }

    fn fo_def(&mut self, head: &[HeadTerm<'_>]) -> PResult<FoQuery> {
        let mut scope = Scope::new();
        let mut free = Vec::new();
        for h in head {
            match h {
                HeadTerm::Var(n) => free.push(scope.lookup_or_declare(n)),
                HeadTerm::Const(_) => return self.err("FO query heads must be variables"),
            }
        }
        let formula = self.fo(&mut scope)?;
        let fv = formula.free_vars();
        for v in &fv {
            if !free.contains(v) {
                return self.err(format!(
                    "free variable `{}` is not declared in the head",
                    scope.names.get(v.idx()).cloned().unwrap_or_default()
                ));
            }
        }
        Ok(FoQuery { schema: self.schema.clone(), free, formula, var_names: scope.names })
    }

    fn fo(&mut self, scope: &mut Scope) -> PResult<Fo> {
        if let Tok::Ident(kw) = self.peek() {
            if kw == "forall" || kw == "exists" {
                let is_forall = kw == "forall";
                self.next();
                let mut vars = Vec::new();
                loop {
                    match self.peek() {
                        Tok::Ident(n) if Self::is_var_name(n) => {
                            self.next();
                            vars.push((n, scope.push_shadow(n)));
                        }
                        Tok::Dot => break,
                        other => {
                            return self.err(format!("expected variable or `.`, found {other}"))
                        }
                    }
                }
                self.expect(Tok::Dot)?;
                let body = self.fo(scope)?;
                let ids: Vec<VarId> = vars.iter().map(|(_, v)| *v).collect();
                for (n, _) in vars.iter().rev() {
                    scope.pop_shadow(n);
                }
                return Ok(if is_forall { Fo::forall(ids, body) } else { Fo::exists(ids, body) });
            }
        }
        self.fo_iff(scope)
    }

    fn fo_iff(&mut self, scope: &mut Scope) -> PResult<Fo> {
        let mut lhs = self.fo_implies(scope)?;
        while self.peek() == Tok::DArrow {
            self.next();
            let rhs = self.fo_implies(scope)?;
            lhs = Fo::iff(lhs, rhs);
        }
        Ok(lhs)
    }

    fn fo_implies(&mut self, scope: &mut Scope) -> PResult<Fo> {
        let lhs = self.fo_or(scope)?;
        if self.peek() == Tok::Arrow {
            self.next();
            let rhs = self.fo_implies(scope)?; // right associative
            Ok(Fo::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn fo_or(&mut self, scope: &mut Scope) -> PResult<Fo> {
        let mut parts = vec![self.fo_and(scope)?];
        while self.peek() == Tok::Pipe {
            self.next();
            parts.push(self.fo_and(scope)?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one") } else { Fo::Or(parts) })
    }

    fn fo_and(&mut self, scope: &mut Scope) -> PResult<Fo> {
        let mut parts = vec![self.fo_unary(scope)?];
        while self.peek() == Tok::Amp {
            self.next();
            parts.push(self.fo_unary(scope)?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one") } else { Fo::And(parts) })
    }

    fn fo_unary(&mut self, scope: &mut Scope) -> PResult<Fo> {
        match self.peek() {
            Tok::Tilde => {
                self.next();
                Ok(Fo::not(self.fo_unary(scope)?))
            }
            Tok::LParen => {
                self.next();
                let inner = self.fo(scope)?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::Ident("true") => {
                self.next();
                Ok(Fo::True)
            }
            Tok::Ident("false") => {
                self.next();
                Ok(Fo::False)
            }
            Tok::Ident("forall" | "exists") => self.fo(scope),
            Tok::Ident(s) => {
                let save = self.pos;
                self.next();
                if self.peek() == Tok::LParen {
                    let args = self.atom_args(scope, false)?;
                    let rel = self.resolve_rel(s, args.len())?;
                    Ok(Fo::Atom(Atom::new(rel, args)))
                } else {
                    self.pos = save;
                    self.fo_comparison(scope)
                }
            }
            Tok::Int(_) => self.fo_comparison(scope),
            other => self.err(format!("expected formula, found {other}")),
        }
    }

    fn fo_comparison(&mut self, scope: &mut Scope) -> PResult<Fo> {
        let a = self.term_in(scope, false)?;
        match self.next() {
            Tok::Eq => {
                let b = self.term_in(scope, false)?;
                Ok(Fo::Eq(a, b))
            }
            Tok::Neq => {
                let b = self.term_in(scope, false)?;
                Ok(Fo::not(Fo::Eq(a, b)))
            }
            other => self.err(format!("expected `=` or `!=`, found {other}")),
        }
    }
}

#[derive(Debug)]
enum HeadTerm<'s> {
    Var(&'s str),
    Const(vqd_instance::Value),
}

struct Scope {
    names: Vec<String>,
    map: HashMap<String, Vec<VarId>>,
}

impl Scope {
    fn new() -> Self {
        Scope { names: Vec::new(), map: HashMap::new() }
    }

    fn declare(&mut self, name: &str) -> VarId {
        let id = VarId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.map.entry(name.to_owned()).or_default().push(id);
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.map.get(name).and_then(|v| v.last().copied())
    }

    fn lookup_or_declare(&mut self, name: &str) -> VarId {
        self.lookup(name).unwrap_or_else(|| self.declare(name))
    }

    fn push_shadow(&mut self, name: &str) -> VarId {
        self.declare(name)
    }

    fn pop_shadow(&mut self, name: &str) {
        if let Some(stack) = self.map.get_mut(name) {
            stack.pop();
        }
    }
}

/// Parses a program of query / view definitions against `schema`.
pub fn parse_program(schema: &Schema, names: &mut DomainNames, src: &str) -> PResult<Program> {
    let toks = Lexer::lex(src)?;
    let mut p = Parser { toks, pos: 0, schema, names };
    p.program()
}

/// Parses a single query definition (the program must define exactly one).
///
/// ```
/// use vqd_instance::{DomainNames, Schema};
/// use vqd_query::{parse_query, QueryExpr};
///
/// let schema = Schema::new([("E", 2), ("P", 1)]);
/// let mut names = DomainNames::new();
/// // Rule syntax gives CQs/UCQs…
/// let cq = parse_query(&schema, &mut names, "Q(x) :- E(x,y), P(y).").unwrap();
/// assert!(matches!(cq, QueryExpr::Cq(_)));
/// // …and `:=` gives full FO.
/// let fo = parse_query(&schema, &mut names,
///     "Q(x) := forall y. (E(x,y) -> P(y)).").unwrap();
/// assert!(matches!(fo, QueryExpr::Fo(_)));
/// ```
pub fn parse_query(schema: &Schema, names: &mut DomainNames, src: &str) -> PResult<QueryExpr> {
    let prog = parse_program(schema, names, src)?;
    if prog.defs.len() != 1 {
        return Err(ParseError {
            message: format!("expected exactly one definition, found {}", prog.defs.len()),
            line: 1,
            col: 1,
        });
    }
    Ok(prog.defs.into_iter().next().expect("one").1)
}

/// Parses ground facts `R(a,b). P(c).` into an instance over `schema`.
pub fn parse_instance(schema: &Schema, names: &mut DomainNames, src: &str) -> PResult<Instance> {
    let toks = Lexer::lex(src)?;
    let mut p = Parser { toks, pos: 0, schema, names };
    // Facts are gathered per relation and each relation is bulk-built
    // once at the end, instead of one set insertion per fact.
    let mut facts: Vec<Vec<Tuple>> = vec![Vec::new(); schema.len()];
    while p.peek() != Tok::Eof {
        let name = p.ident()?;
        let mut scope = Scope::new();
        let args = p.atom_args(&mut scope, false)?;
        let rel = p.resolve_rel(name, args.len())?;
        let tuple: Option<Tuple> = args.into_iter().map(Term::as_const).collect();
        let Some(tuple) = tuple else {
            return p.err("facts must be ground (no variables)");
        };
        p.expect(Tok::Dot)?;
        facts[rel.idx()].push(tuple);
    }
    let mut inst = Instance::empty(schema);
    for ((rel, decl), tuples) in schema.iter().zip(facts) {
        *inst.rel_mut(rel) = Relation::from_tuples(decl.arity, tuples);
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::CqLang;

    fn schema() -> Schema {
        Schema::new([("R", 2), ("P", 1), ("p1", 0)])
    }

    #[test]
    fn parse_simple_cq() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "Q(x,y) :- R(x,z), R(z,y).").unwrap();
        let cq = q.as_cq().unwrap();
        assert_eq!(cq.arity(), 2);
        assert_eq!(cq.atoms.len(), 2);
        assert_eq!(cq.language(), CqLang::Cq);
        assert_eq!(cq.render("Q"), "Q(x,y) :- R(x,z), R(z,y).");
    }

    #[test]
    fn parse_cq_with_builtins_and_negation() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "Q(x) :- R(x,y), !P(y), x != y, y = Alice.").unwrap();
        let cq = q.as_cq().unwrap();
        assert_eq!(cq.neg_atoms.len(), 1);
        assert_eq!(cq.neqs.len(), 1);
        assert_eq!(cq.eqs.len(), 1);
        assert_eq!(cq.language(), CqLang::CqNeg);
        // `Alice` interned as a constant.
        assert!(n.get("Alice").is_some());
    }

    #[test]
    fn repeated_heads_become_ucq() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "V(x) :- P(x).\nV(x) :- R(x,x).").unwrap();
        match q {
            QueryExpr::Ucq(u) => assert_eq!(u.disjuncts.len(), 2),
            other => panic!("expected UCQ, got {other:?}"),
        }
    }

    #[test]
    fn boolean_views_and_propositions() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "B() :- p1().").unwrap();
        let cq = q.as_cq().unwrap();
        assert!(cq.is_boolean());
        assert_eq!(cq.atoms.len(), 1);
    }

    #[test]
    fn parse_fo_query() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "Q(x) := forall y. (R(x,y) -> exists z. R(y,z)).").unwrap();
        match q {
            QueryExpr::Fo(fo) => {
                assert_eq!(fo.arity(), 1);
                assert!(!fo.formula.is_existential());
            }
            other => panic!("expected FO, got {other:?}"),
        }
    }

    #[test]
    fn fo_operator_precedence() {
        let s = schema();
        let mut n = DomainNames::new();
        // a & b | c parses as (a&b) | c
        let q = parse_query(&s, &mut n, "Q() := p1() & p1() | p1().").unwrap();
        let QueryExpr::Fo(fo) = q else { panic!() };
        assert!(matches!(fo.formula, Fo::Or(_)));
    }

    #[test]
    fn fo_quantifier_shadowing() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "Q(x) := P(x) & exists x. P(x).").unwrap();
        let QueryExpr::Fo(fo) = q else { panic!() };
        // Two distinct variables named x.
        assert_eq!(fo.var_names.iter().filter(|s| *s == "x").count(), 2);
        assert_eq!(fo.formula.free_vars().len(), 1);
    }

    #[test]
    fn undeclared_fo_variable_errors() {
        let s = schema();
        let mut n = DomainNames::new();
        let e = parse_query(&s, &mut n, "Q(x) := R(x,y).").unwrap_err();
        assert!(e.message.contains("not in scope"), "{e}");
    }

    #[test]
    fn unknown_relation_errors() {
        let s = schema();
        let mut n = DomainNames::new();
        let e = parse_query(&s, &mut n, "Q(x) :- Z(x).").unwrap_err();
        assert!(e.message.contains("unknown relation"), "{e}");
    }

    #[test]
    fn arity_mismatch_errors() {
        let s = schema();
        let mut n = DomainNames::new();
        let e = parse_query(&s, &mut n, "Q(x) :- R(x).").unwrap_err();
        assert!(e.message.contains("arity"), "{e}");
    }

    #[test]
    fn parse_instance_facts() {
        let s = schema();
        let mut n = DomainNames::new();
        let d = parse_instance(&s, &mut n, "R(1,2). P(Alice). p1().").unwrap();
        assert_eq!(d.rel_named("R").len(), 1);
        assert_eq!(d.rel_named("P").len(), 1);
        assert!(d.rel_named("p1").truth());
        // The same names parse to the same constants across calls.
        let d2 = parse_instance(&s, &mut n, "P(Alice).").unwrap();
        assert!(d2.rel_named("P").is_subset(d.rel_named("P")));
    }

    #[test]
    fn instance_facts_must_be_ground() {
        let s = schema();
        let mut n = DomainNames::new();
        assert!(parse_instance(&s, &mut n, "P(x).").is_err());
    }

    #[test]
    fn comments_are_ignored() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "% a comment\nQ(x) :- P(x). % trailing").unwrap();
        assert_eq!(q.arity(), 1);
    }

    #[test]
    fn constants_in_rule_heads() {
        let s = schema();
        let mut n = DomainNames::new();
        let q = parse_query(&s, &mut n, "Q(x, Bob) :- P(x).").unwrap();
        let cq = q.as_cq().unwrap();
        assert_eq!(cq.arity(), 2);
        assert!(cq.head[1].as_const().is_some());
    }

    #[test]
    fn error_positions_are_reported() {
        let s = schema();
        let mut n = DomainNames::new();
        let e = parse_query(&s, &mut n, "Q(x) :- R(x,\n  @).").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
