//! Query and view generators: random CQs for the E1/E2/E13 sweeps, and
//! the path families the `fixpoint` engine bench and the experiments use.

use rand::Rng;
use vqd_chase::CqViews;
use vqd_instance::Schema;
use vqd_query::{Cq, QueryExpr, Term, VarId, ViewSet};

/// Parameters for random CQ generation.
#[derive(Clone, Copy, Debug)]
pub struct CqGen {
    /// Number of body atoms.
    pub atoms: usize,
    /// Variable pool size (≥ 1).
    pub vars: usize,
    /// Maximum head arity (actual arity sampled in `0..=max`).
    pub max_head: usize,
}

/// Samples a safe, plain CQ over `schema`.
pub fn random_cq(schema: &Schema, p: CqGen, rng: &mut impl Rng) -> Cq {
    assert!(p.vars >= 1 && p.atoms >= 1);
    let mut q = Cq::new(schema);
    let vars: Vec<VarId> = (0..p.vars).map(|i| q.var(&format!("x{i}"))).collect();
    let rels: Vec<_> = schema.rel_ids().filter(|r| schema.arity(*r) > 0).collect();
    assert!(!rels.is_empty(), "schema needs a non-propositional relation");
    for _ in 0..p.atoms {
        let rel = rels[rng.gen_range(0..rels.len())];
        let args: Vec<Term> =
            (0..schema.arity(rel)).map(|_| Term::Var(vars[rng.gen_range(0..vars.len())])).collect();
        q.atoms.push(vqd_query::Atom::new(rel, args));
    }
    // Head: a sample of variables that actually occur (safety).
    let used: Vec<VarId> = q.positive_vars().into_iter().collect();
    let arity = rng.gen_range(0..=p.max_head.min(used.len()));
    let mut head = Vec::new();
    for _ in 0..arity {
        head.push(Term::Var(used[rng.gen_range(0..used.len())]));
    }
    q.head = head;
    debug_assert!(q.is_safe());
    q
}

/// Samples a set of `count` CQ views over `schema`.
pub fn random_cq_views(schema: &Schema, count: usize, p: CqGen, rng: &mut impl Rng) -> CqViews {
    let defs: Vec<(String, QueryExpr)> = (0..count)
        // One sample per view, kept as drawn: a Boolean (arity-0) head
        // is a valid view too.
        .map(|i| (format!("V{i}"), QueryExpr::Cq(random_cq(schema, p, rng))))
        .collect();
    CqViews::new(ViewSet::new(schema, defs))
}

/// A deterministic family: `k`-path views `V(x,y) :- E(x,·k·,y)` over a
/// graph schema — the workhorse for benchmarks with known outcomes.
pub fn path_views(schema: &Schema, k: usize) -> CqViews {
    let mut q = Cq::new(schema);
    let vars: Vec<VarId> = (0..=k).map(|i| q.var(&format!("x{i}"))).collect();
    for i in 0..k {
        q.atom("E", vec![vars[i].into(), vars[i + 1].into()]);
    }
    q.head = vec![vars[0].into(), vars[k].into()];
    CqViews::new(ViewSet::new(schema, vec![("V", QueryExpr::Cq(q))]))
}

/// The `k`-path query `Q(x,y) :- E-path of length k`.
pub fn path_query(schema: &Schema, k: usize) -> Cq {
    let mut q = Cq::new(schema);
    let vars: Vec<VarId> = (0..=k).map(|i| q.var(&format!("x{i}"))).collect();
    for i in 0..k {
        q.atom("E", vec![vars[i].into(), vars[i + 1].into()]);
    }
    q.head = vec![vars[0].into(), vars[k].into()];
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1)])
    }

    #[test]
    fn random_cqs_are_safe_plain_cqs() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let q = random_cq(&schema(), CqGen { atoms: 3, vars: 3, max_head: 2 }, &mut rng);
            assert!(q.is_safe());
            assert_eq!(q.language(), vqd_query::CqLang::Cq);
            assert!(!q.atoms.is_empty());
        }
    }

    #[test]
    fn random_views_validate() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = random_cq_views(&schema(), 3, CqGen { atoms: 2, vars: 3, max_head: 2 }, &mut rng);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn path_family_shapes() {
        let s = schema();
        let v = path_views(&s, 2);
        assert_eq!(v.cq(0).atoms.len(), 2);
        let q = path_query(&s, 4);
        assert_eq!(q.atoms.len(), 4);
        assert_eq!(q.arity(), 2);
    }
}
