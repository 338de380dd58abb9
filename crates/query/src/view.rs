//! Views: named sets of queries (Section 2).
//!
//! A view **V** from `I(σ)` to `I(σ_V)` is one query `Q_V` per output
//! symbol `V ∈ σ_V`. [`ViewSet`] owns the input schema, the derived output
//! schema, and the defining queries; applying it to an instance (in
//! `vqd-eval`) produces the view image `V(D)`.

use crate::cq::{Cq, CqLang, Ucq};
use crate::fo::FoQuery;
use std::fmt;
use vqd_instance::{RelId, Schema};

/// A query in any of the paper's languages.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryExpr {
    /// A conjunctive query (possibly with =, ≠, ¬ extensions).
    Cq(Cq),
    /// A union of conjunctive queries.
    Ucq(Ucq),
    /// A first-order query.
    Fo(FoQuery),
}

impl QueryExpr {
    /// Output arity.
    pub fn arity(&self) -> usize {
        match self {
            QueryExpr::Cq(q) => q.arity(),
            QueryExpr::Ucq(q) => q.arity(),
            QueryExpr::Fo(q) => q.arity(),
        }
    }

    /// Input schema.
    pub fn schema(&self) -> &Schema {
        match self {
            QueryExpr::Cq(q) => &q.schema,
            QueryExpr::Ucq(q) => q.schema(),
            QueryExpr::Fo(q) => &q.schema,
        }
    }

    /// The underlying CQ if this is a single conjunctive query.
    pub fn as_cq(&self) -> Option<&Cq> {
        match self {
            QueryExpr::Cq(q) => Some(q),
            _ => None,
        }
    }

    /// The query viewed as a UCQ, if it is (a union of) CQs.
    pub fn as_ucq(&self) -> Option<Ucq> {
        match self {
            QueryExpr::Cq(q) => Some(Ucq::from_cq(q.clone())),
            QueryExpr::Ucq(u) => Some(u.clone()),
            QueryExpr::Fo(_) => None,
        }
    }

    /// A human-readable language label (Figure 1 notation).
    pub fn language_label(&self) -> &'static str {
        match self {
            QueryExpr::Cq(q) => match q.language() {
                CqLang::Cq => "CQ",
                CqLang::CqEq => "CQ=",
                CqLang::CqNeq => "CQ!=",
                CqLang::CqNeg => "CQ^",
            },
            QueryExpr::Ucq(u) => match u.language() {
                CqLang::Cq => "UCQ",
                CqLang::CqEq => "UCQ=",
                CqLang::CqNeq => "UCQ!=",
                CqLang::CqNeg => "UCQ^",
            },
            QueryExpr::Fo(q) => {
                if q.formula.is_positive_existential() {
                    "EFO+"
                } else if q.formula.is_existential() {
                    "EFO"
                } else {
                    "FO"
                }
            }
        }
    }
}

impl From<Cq> for QueryExpr {
    fn from(q: Cq) -> Self {
        QueryExpr::Cq(q)
    }
}
impl From<Ucq> for QueryExpr {
    fn from(q: Ucq) -> Self {
        QueryExpr::Ucq(q)
    }
}
impl From<FoQuery> for QueryExpr {
    fn from(q: FoQuery) -> Self {
        QueryExpr::Fo(q)
    }
}

/// One named view: an output symbol and its defining query.
#[derive(Clone, PartialEq, Debug)]
pub struct View {
    /// The output relation's name in `σ_V`.
    pub name: String,
    /// The defining query over the input schema.
    pub query: QueryExpr,
}

/// A set of views **V** with input schema `σ` and output schema `σ_V`.
#[derive(Clone, PartialEq, Debug)]
pub struct ViewSet {
    input: Schema,
    output: Schema,
    views: Vec<View>,
}

impl ViewSet {
    /// Builds a view set; the output schema is derived from the view names
    /// and query arities.
    ///
    /// # Panics
    /// Panics if a query's schema differs from `input`, or names repeat.
    pub fn new(input: &Schema, views: Vec<(impl Into<String>, QueryExpr)>) -> Self {
        let views: Vec<View> =
            views.into_iter().map(|(name, query)| View { name: name.into(), query }).collect();
        for v in &views {
            assert_eq!(
                v.query.schema(),
                input,
                "view `{}` is defined over a different schema",
                v.name
            );
        }
        let output = Schema::new(views.iter().map(|v| (v.name.clone(), v.query.arity())));
        ViewSet { input: input.clone(), output, views }
    }

    /// The input schema `σ`.
    pub fn input_schema(&self) -> &Schema {
        &self.input
    }

    /// The output schema `σ_V`.
    pub fn output_schema(&self) -> &Schema {
        &self.output
    }

    /// The views in declaration order (aligned with `σ_V`'s symbols).
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the set is empty (used by the Proposition 4.1 reduction).
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The output symbol id for view `i`.
    pub fn output_rel(&self, i: usize) -> RelId {
        RelId(i as u32)
    }

    /// Looks up a view by name.
    pub fn find(&self, name: &str) -> Option<&View> {
        self.views.iter().find(|v| v.name == name)
    }

    /// Whether every defining query is a (plain) CQ.
    pub fn is_cq(&self) -> bool {
        self.views
            .iter()
            .all(|v| matches!(&v.query, QueryExpr::Cq(q) if q.language() == CqLang::Cq))
    }

    /// Whether every defining query is a CQ or UCQ (any extension level).
    pub fn is_ucq_family(&self) -> bool {
        self.views.iter().all(|v| !matches!(v.query, QueryExpr::Fo(_)))
    }

    /// The defining CQs, if all views are plain CQs.
    pub fn cq_views(&self) -> Option<Vec<&Cq>> {
        self.views.iter().map(|v| v.query.as_cq()).collect::<Option<Vec<_>>>()
    }
}

impl fmt::Display for ViewSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.views.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            match &v.query {
                QueryExpr::Cq(q) => write!(f, "{}", q.render(&v.name))?,
                QueryExpr::Ucq(u) => write!(f, "{}", u.render(&v.name))?,
                QueryExpr::Fo(_) => write!(f, "{}(...) := <FO>", v.name)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([("R", 2), ("P", 1)])
    }

    fn p_view(s: &Schema) -> Cq {
        let mut q = Cq::new(s);
        let x = q.var("x");
        q.head = vec![x.into()];
        q.atom("P", vec![x.into()]);
        q
    }

    #[test]
    fn viewset_derives_output_schema() {
        let s = schema();
        let vs = ViewSet::new(&s, vec![("V1", QueryExpr::Cq(p_view(&s)))]);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs.output_schema().arity(vs.output_rel(0)), 1);
        assert_eq!(vs.output_schema().name(vs.output_rel(0)), "V1");
        assert!(vs.is_cq());
        assert!(vs.is_ucq_family());
        assert!(vs.find("V1").is_some());
        assert!(vs.find("V2").is_none());
    }

    #[test]
    fn empty_viewset_allowed() {
        let s = schema();
        let vs = ViewSet::new(&s, Vec::<(String, QueryExpr)>::new());
        assert!(vs.is_empty());
        assert!(vs.output_schema().is_empty());
    }

    #[test]
    #[should_panic(expected = "different schema")]
    fn schema_mismatch_rejected() {
        let s = schema();
        let other = Schema::new([("P", 1), ("R", 2)]); // different order
        ViewSet::new(&other, vec![("V", QueryExpr::Cq(p_view(&s)))]);
    }

    #[test]
    fn language_labels() {
        let s = schema();
        let q = p_view(&s);
        assert_eq!(QueryExpr::Cq(q.clone()).language_label(), "CQ");
        assert_eq!(QueryExpr::Ucq(Ucq::from_cq(q.clone())).language_label(), "UCQ");
        let fo = crate::fo::cq_to_fo(&q);
        assert_eq!(QueryExpr::Fo(fo).language_label(), "EFO+");
    }

    #[test]
    fn as_ucq_promotes_cq() {
        let s = schema();
        let q = QueryExpr::Cq(p_view(&s));
        assert_eq!(q.as_ucq().unwrap().disjuncts.len(), 1);
        assert!(q.as_cq().is_some());
    }
}
