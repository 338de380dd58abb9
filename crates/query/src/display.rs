//! Pretty-printing FO queries back into the parseable surface syntax.
//!
//! `render(parse(x)) ≡ x` round-trips are property-tested at the
//! workspace level; the printer always emits fully parenthesized bodies,
//! so precedence never needs re-deriving.

use crate::fo::{Fo, FoQuery};
use crate::term::Term;
use crate::view::QueryExpr;
use vqd_instance::Schema;

fn term_str(t: &Term, q: &FoQuery) -> String {
    match t {
        Term::Var(v) => q.var_name(*v),
        Term::Const(c) => c.to_string(),
    }
}

fn fo_str(f: &Fo, q: &FoQuery, schema: &Schema) -> String {
    match f {
        Fo::True => "true".to_owned(),
        Fo::False => "false".to_owned(),
        Fo::Atom(a) => {
            let args: Vec<String> = a.args.iter().map(|t| term_str(t, q)).collect();
            format!("{}({})", schema.name(a.rel), args.join(","))
        }
        Fo::Eq(a, b) => format!("{} = {}", term_str(a, q), term_str(b, q)),
        Fo::Not(g) => match &**g {
            Fo::Eq(a, b) => format!("{} != {}", term_str(a, q), term_str(b, q)),
            _ => format!("~({})", fo_str(g, q, schema)),
        },
        Fo::And(xs) => {
            let parts: Vec<String> =
                xs.iter().map(|x| format!("({})", fo_str(x, q, schema))).collect();
            parts.join(" & ")
        }
        Fo::Or(xs) => {
            let parts: Vec<String> =
                xs.iter().map(|x| format!("({})", fo_str(x, q, schema))).collect();
            parts.join(" | ")
        }
        Fo::Implies(a, b) => format!("({}) -> ({})", fo_str(a, q, schema), fo_str(b, q, schema)),
        Fo::Iff(a, b) => format!("({}) <-> ({})", fo_str(a, q, schema), fo_str(b, q, schema)),
        Fo::Exists(vs, g) => {
            let names: Vec<String> = vs.iter().map(|v| q.var_name(*v)).collect();
            format!("exists {}. ({})", names.join(" "), fo_str(g, q, schema))
        }
        Fo::Forall(vs, g) => {
            let names: Vec<String> = vs.iter().map(|v| q.var_name(*v)).collect();
            format!("forall {}. ({})", names.join(" "), fo_str(g, q, schema))
        }
    }
}

impl FoQuery {
    /// Renders the query in the parseable `Name(x,…) := φ.` syntax.
    ///
    /// Caveat: variable *names* must be distinct for the result to parse
    /// back to an equivalent query (quantifier shadowing re-resolves by
    /// name); queries built by [`crate::fo::VarPool`] with distinct stems
    /// and all parser outputs satisfy this.
    pub fn render(&self, head_name: &str) -> String {
        let head: Vec<String> = self.free.iter().map(|v| self.var_name(*v)).collect();
        format!(
            "{}({}) := {}.",
            head_name,
            head.join(","),
            fo_str(&self.formula, self, &self.schema)
        )
    }
}

impl QueryExpr {
    /// Renders any query expression in its parseable rule/FO syntax.
    pub fn render(&self, head_name: &str) -> String {
        match self {
            QueryExpr::Cq(q) => q.render(head_name),
            QueryExpr::Ucq(u) => u.render(head_name),
            QueryExpr::Fo(f) => f.render(head_name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use vqd_instance::DomainNames;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    fn roundtrip(src: &str) -> (FoQuery, FoQuery) {
        let mut names = DomainNames::new();
        let QueryExpr::Fo(q) = parse_query(&schema(), &mut names, src).unwrap() else {
            panic!("expected FO")
        };
        let rendered = q.render("Q");
        let QueryExpr::Fo(q2) = parse_query(&schema(), &mut names, &rendered)
            .unwrap_or_else(|e| panic!("rendered `{rendered}` fails to parse: {e}"))
        else {
            panic!("expected FO back")
        };
        (q, q2)
    }

    #[test]
    fn roundtrip_is_structurally_exact() {
        // For parser-produced queries with distinct variable names the
        // round-trip reproduces the formula *structurally* (variable ids
        // are assigned in first-occurrence order on both sides). Semantic
        // round-trips over random formulas are property-tested at the
        // workspace level (tests/properties.rs) where the evaluator is
        // available.
        for src in [
            "Q(x) := exists y. (E(x,y) & ~P(y)).",
            "Q() := forall x y. (E(x,y) -> E(y,x)).",
            "Q(x) := P(x) <-> exists y. E(x,y).",
            "Q(x,y) := E(x,y) & x != y.",
            "Q() := true.",
            "Q() := exists x. (P(x) | (E(x,x) & ~(x = x))).",
        ] {
            let (q1, q2) = roundtrip(src);
            assert_eq!(q1.free, q2.free, "head changed for {src}");
            // Negated equality re-parses as Not(Eq(..)) — identical; the
            // rest is fully parenthesized, so structure is preserved.
            assert_eq!(q1.formula, q2.formula, "formula changed for {src}");
        }
    }

    #[test]
    fn render_is_idempotent_through_parsing() {
        let src = "Q(x) := forall y. ((E(x,y)) -> (exists z. ((E(y,z)) & (~(P(z)))))).";
        let (q1, _) = roundtrip(src);
        let r1 = q1.render("Q");
        let mut names = DomainNames::new();
        let QueryExpr::Fo(q2) = parse_query(&schema(), &mut names, &r1).unwrap() else { panic!() };
        assert_eq!(r1, q2.render("Q"));
    }

    #[test]
    fn negated_equality_renders_as_neq() {
        let (q, _) = roundtrip("Q(x,y) := E(x,y) & x != y.");
        assert!(q.render("Q").contains("!="));
    }

    #[test]
    fn query_expr_render_dispatch() {
        let mut names = DomainNames::new();
        let cq = parse_query(&schema(), &mut names, "Q(x) :- P(x).").unwrap();
        assert_eq!(cq.render("Q"), "Q(x) :- P(x).");
        let fo = parse_query(&schema(), &mut names, "Q(x) := ~P(x).").unwrap();
        assert!(fo.render("Q").starts_with("Q(x) :="));
    }
}
