//! Datalog rules and programs.
//!
//! The paper uses Datalog variants as candidate rewriting languages:
//! Corollaries 5.6, 5.9 and 5.13 show `Datalog^≠` (and even `Datalog^¬` /
//! FO+LFP for 5.6) are *not* complete for the rewritings studied. To
//! machine-check the monotonicity arguments behind those corollaries we
//! need an actual engine; this module defines its syntax.
//!
//! A [`Program`] works over a single schema containing both EDB and IDB
//! predicates; IDB predicates are exactly those occurring in rule heads.
//! Body literals may be positive atoms, negated atoms (stratified), or
//! inequalities (`Datalog^≠`).

use std::collections::BTreeSet;
use std::fmt;
use vqd_instance::{DomainNames, RelId, Schema};
use vqd_query::{parse_program, Atom, ParseError, QueryExpr, Term, VarId};

/// A body literal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Literal {
    /// A positive atom.
    Pos(Atom),
    /// A (stratified) negated atom.
    Neg(Atom),
    /// An inequality between terms.
    Neq(Term, Term),
}

/// One rule `H(x̄) :- L₁, …, L_m`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body literals.
    pub body: Vec<Literal>,
    /// Variable display names.
    pub var_names: Vec<String>,
}

impl Rule {
    /// Positive body atoms.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// Negated body atoms.
    pub fn negated_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            _ => None,
        })
    }

    /// Range restriction (safety): every head variable and every variable
    /// in a negated atom or inequality occurs in a positive body atom.
    pub fn is_safe(&self) -> bool {
        let pos: BTreeSet<VarId> = self.positive_atoms().flat_map(Atom::vars).collect();
        let mut need: BTreeSet<VarId> = self.head.vars().collect();
        for l in &self.body {
            match l {
                Literal::Pos(_) => {}
                Literal::Neg(a) => need.extend(a.vars()),
                Literal::Neq(a, b) => {
                    need.extend(a.as_var());
                    need.extend(b.as_var());
                }
            }
        }
        need.is_subset(&pos)
    }
}

/// A Datalog program over one schema.
#[derive(Clone, Debug)]
pub struct Program {
    /// Schema containing EDB and IDB predicates.
    pub schema: Schema,
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Builds and validates a program.
    ///
    /// # Panics
    /// Panics if a rule is unsafe.
    pub fn new(schema: &Schema, rules: Vec<Rule>) -> Self {
        for r in &rules {
            assert!(
                r.is_safe(),
                "unsafe rule (head/negated/inequality variables must be positively bound)"
            );
        }
        Program { schema: schema.clone(), rules }
    }

    /// Parses a program in the shared rule syntax. Head predicates must be
    /// declared in `schema` (IDB relations are ordinary schema members).
    ///
    /// Equalities in rule bodies are compiled away; `!A(..)` literals
    /// become negations, `x != y` become inequalities.
    pub fn parse(
        schema: &Schema,
        names: &mut DomainNames,
        src: &str,
    ) -> Result<Program, ParseError> {
        let prog = parse_program(schema, names, src)?;
        let mut rules = Vec::new();
        for (head_name, def) in prog.defs {
            let head_rel = schema.find(&head_name).ok_or_else(|| ParseError {
                message: format!("head predicate `{head_name}` not in schema"),
                line: 1,
                col: 1,
            })?;
            let disjuncts = match def {
                QueryExpr::Cq(c) => vec![c],
                QueryExpr::Ucq(u) => u.disjuncts,
                QueryExpr::Fo(_) => {
                    return Err(ParseError {
                        message: "datalog programs cannot contain FO definitions".into(),
                        line: 1,
                        col: 1,
                    })
                }
            };
            for cq in disjuncts {
                let cq = vqd_eval::normalize_eqs(&cq).ok_or_else(|| ParseError {
                    message: "rule body equalities are unsatisfiable".into(),
                    line: 1,
                    col: 1,
                })?;
                if schema.arity(head_rel) != cq.head.len() {
                    return Err(ParseError {
                        message: format!(
                            "head `{head_name}` arity mismatch: schema says {}, rule has {}",
                            schema.arity(head_rel),
                            cq.head.len()
                        ),
                        line: 1,
                        col: 1,
                    });
                }
                let mut body: Vec<Literal> = cq.atoms.iter().cloned().map(Literal::Pos).collect();
                body.extend(cq.neg_atoms.iter().cloned().map(Literal::Neg));
                body.extend(cq.neqs.iter().map(|&(a, b)| Literal::Neq(a, b)));
                let rule = Rule {
                    head: Atom::new(head_rel, cq.head.clone()),
                    body,
                    var_names: cq.var_names.clone(),
                };
                if !rule.is_safe() {
                    return Err(ParseError {
                        message: format!("unsafe rule for `{head_name}`"),
                        line: 1,
                        col: 1,
                    });
                }
                rules.push(rule);
            }
        }
        Ok(Program { schema: schema.clone(), rules })
    }

    /// Builds the (non-recursive) Datalog program materializing a UCQ
    /// into the IDB predicate `head_rel` — the bridge the Section 5
    /// corollaries walk across when asking whether `Datalog^≠` could
    /// serve as a rewriting language.
    ///
    /// # Panics
    /// Panics if `schema` lacks `head_rel` or arities disagree, or if a
    /// disjunct uses negation (use an explicit program for `Datalog^¬`).
    pub fn from_ucq(schema: &Schema, head_rel: &str, ucq: &vqd_query::Ucq) -> Program {
        let head = schema.rel(head_rel);
        assert_eq!(schema.arity(head), ucq.arity(), "head arity mismatch");
        let mut rules = Vec::new();
        for d in &ucq.disjuncts {
            let d = vqd_eval::normalize_eqs(d).expect("satisfiable disjunct");
            assert!(d.neg_atoms.is_empty(), "from_ucq takes positive disjuncts (Datalog^≠)");
            // Atoms refer to the UCQ's schema; re-resolve by name into
            // the (super-)schema of the program.
            let fix = |a: &Atom| Atom::new(schema.rel(d.schema.name(a.rel)), a.args.clone());
            let mut body: Vec<Literal> = d.atoms.iter().map(|a| Literal::Pos(fix(a))).collect();
            body.extend(d.neqs.iter().map(|&(a, b)| Literal::Neq(a, b)));
            rules.push(Rule {
                head: Atom::new(head, d.head.clone()),
                body,
                var_names: d.var_names.clone(),
            });
        }
        Program::new(schema, rules)
    }

    /// The IDB predicates: those appearing in some rule head.
    pub fn idb(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.rel).collect()
    }

    /// Whether the program is negation-free (hence monotone; `Datalog^≠`
    /// stays monotone too, the fact behind Corollary 5.9).
    pub fn is_negation_free(&self) -> bool {
        self.rules.iter().all(|r| r.negated_atoms().next().is_none())
    }

    /// Whether the program uses inequalities.
    pub fn uses_neq(&self) -> bool {
        self.rules.iter().any(|r| r.body.iter().any(|l| matches!(l, Literal::Neq(..))))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let name =
                |v: VarId| r.var_names.get(v.idx()).cloned().unwrap_or_else(|| format!("v{}", v.0));
            let term = |t: &Term| match t {
                Term::Var(v) => name(*v),
                Term::Const(c) => c.to_string(),
            };
            let atom = |a: &Atom| {
                let args: Vec<String> = a.args.iter().map(term).collect();
                format!("{}({})", self.schema.name(a.rel), args.join(","))
            };
            let body: Vec<String> = r
                .body
                .iter()
                .map(|l| match l {
                    Literal::Pos(a) => atom(a),
                    Literal::Neg(a) => format!("!{}", atom(a)),
                    Literal::Neq(a, b) => format!("{} != {}", term(a), term(b)),
                })
                .collect();
            write!(f, "{} :- {}.", atom(&r.head), body.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use vqd_instance::{DomainNames, Schema};
    use vqd_query::{parse_query, Ucq};

    pub fn parse_ucq(schema: &Schema, names: &mut DomainNames, src: &str) -> Ucq {
        parse_query(schema, names, src).unwrap().as_ucq().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("T", 2), ("P", 1)])
    }

    #[test]
    fn parse_transitive_closure() {
        let s = schema();
        let mut names = DomainNames::new();
        let p =
            Program::parse(&s, &mut names, "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.idb().len(), 1);
        assert!(p.is_negation_free());
        assert!(!p.uses_neq());
    }

    #[test]
    fn parse_with_negation_and_neq() {
        let s = schema();
        let mut names = DomainNames::new();
        let p = Program::parse(&s, &mut names, "T(x,y) :- E(x,y), !P(x), x != y.").unwrap();
        assert!(!p.is_negation_free());
        assert!(p.uses_neq());
    }

    #[test]
    fn unknown_head_rejected() {
        let s = Schema::new([("E", 2)]);
        let mut names = DomainNames::new();
        let e = Program::parse(&s, &mut names, "Z(x) :- E(x,y).").unwrap_err();
        assert!(e.message.contains("unknown relation") || e.message.contains("not in schema"));
    }

    #[test]
    fn unsafe_rule_rejected() {
        let s = schema();
        let mut names = DomainNames::new();
        // In the shared parser `y` in the head is auto-declared but never
        // positively bound.
        let e = Program::parse(&s, &mut names, "T(x,y) :- P(x).").unwrap_err();
        assert!(e.message.contains("unsafe"), "{e}");
    }

    #[test]
    fn from_ucq_materializes_union() {
        use vqd_instance::named;
        let base = Schema::new([("E", 2), ("P", 1)]);
        let mut names = DomainNames::new();
        let ucq = crate::rule::tests_support::parse_ucq(
            &base,
            &mut names,
            "Q(x) :- P(x).\nQ(x) :- E(x,y), x != y.",
        );
        let pschema = base.extend([("Ans", 1)]);
        let prog = Program::from_ucq(&pschema, "Ans", &ucq);
        assert_eq!(prog.rules.len(), 2);
        assert!(prog.is_negation_free());
        let mut d = vqd_instance::Instance::empty(&pschema);
        d.insert_named("P", vec![named(5)]);
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("E", vec![named(2), named(2)]);
        let out =
            crate::engine::eval_program(&prog, &d, crate::engine::Strategy::SemiNaive).unwrap();
        let ans = pschema.rel("Ans");
        assert_eq!(out.rel(ans).len(), 2);
        assert!(out.rel(ans).contains(&[named(5)]));
        assert!(out.rel(ans).contains(&[named(0)]));
    }

    #[test]
    fn display_roundtrip_shape() {
        let s = schema();
        let mut names = DomainNames::new();
        let p = Program::parse(&s, &mut names, "T(x,y) :- E(x,y), x != y.").unwrap();
        let shown = p.to_string();
        assert!(shown.contains("T(x,y)"));
        assert!(shown.contains("x != y"));
    }

    #[test]
    fn head_arity_checked() {
        let s = schema();
        let mut names = DomainNames::new();
        // P is unary in the schema — the shared parser already rejects
        // arity mismatches at atom level; heads go through the same path
        // via Program::parse's explicit check.
        let e = Program::parse(&s, &mut names, "P(x,y) :- E(x,y).");
        assert!(e.is_err());
    }
}
