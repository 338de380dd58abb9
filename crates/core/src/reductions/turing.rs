//! The Theorem 5.1 construction: FO views whose induced query is an
//! arbitrary computable query.
//!
//! With `φ_M` from `vqd-turing` asserting "this instance encodes the
//! halting run of `M`":
//!
//! * view `V(x,y) = φ_M ∧ R1(x,y)` — exposes the input graph, but *only*
//!   on well-formed computation instances;
//! * query `Q(x,y) = φ_M ∧ R2(x,y)` — the machine's output graph.
//!
//! Then `V ↠ Q` and `Q_V = q` (the graph query `M` computes): the
//! rewriting language must therefore express `q` — for every computable
//! `q`. Experiment E11 machine-checks the construction on the two
//! concrete machines (identity and edge-complement).

use vqd_instance::Schema;
use vqd_query::{Atom, Fo, FoQuery, QueryExpr, VarId, ViewSet};
use vqd_turing::{phi_m, tm_schema, Tm};

/// The packaged construction.
#[derive(Clone, Debug)]
pub struct TuringConstruction {
    /// The machine.
    pub machine: Tm,
    /// σ = {R1, R2, leq, T, H}.
    pub schema: Schema,
    /// The single view `V_{R1} = φ_M ∧ R1(x,y)`.
    pub views: ViewSet,
    /// The query `Q = φ_M ∧ R2(x,y)`.
    pub query: FoQuery,
}

/// Builds views and query for machine `tm`.
pub fn theorem_5_1(tm: &Tm) -> TuringConstruction {
    let schema = tm_schema();
    let phi = phi_m(tm);
    let r1 = schema.rel("R1");
    let r2 = schema.rel("R2");
    let x = VarId(phi.var_names.len() as u32);
    let y = VarId(phi.var_names.len() as u32 + 1);
    let mut names = phi.var_names.clone();
    names.push("x".to_owned());
    names.push("y".to_owned());
    let view_q = FoQuery::new(
        &schema,
        vec![x, y],
        Fo::and([phi.formula.clone(), Fo::Atom(Atom::new(r1, vec![x.into(), y.into()]))]),
        names.clone(),
    );
    let query = FoQuery::new(
        &schema,
        vec![x, y],
        Fo::and([phi.formula.clone(), Fo::Atom(Atom::new(r2, vec![x.into(), y.into()]))]),
        names,
    );
    let views = ViewSet::new(&schema, vec![("V", QueryExpr::Fo(view_q))]);
    TuringConstruction { machine: tm.clone(), schema, views, query }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::{apply_views, eval_fo};
    use vqd_instance::{named, Instance};
    use vqd_turing::{build_instance, reference_query};

    fn check_machine(tm: &Tm, graphs: &[&[(usize, usize)]], m: usize) {
        let con = theorem_5_1(tm);
        let mut images: Vec<(Instance, vqd_instance::Relation)> = Vec::new();
        for edges in graphs {
            let inst = build_instance(tm, 2, edges, m).expect("run fits");
            // The view exposes exactly R1 on well-formed instances.
            let image = apply_views(&con.views, &inst);
            assert_eq!(image.rel_named("V"), inst.rel_named("R1"));
            // Q returns R2 = q(R1).
            let out = eval_fo(&con.query, &inst);
            let expected = reference_query(tm, 2, edges);
            assert_eq!(out.len(), expected.len(), "on {edges:?}");
            for &(u, v) in &expected {
                assert!(out.contains(&[named(u as u32), named(v as u32)]));
            }
            // Determinacy probe: equal images must give equal outputs.
            for (prev_img, prev_out) in &images {
                if *prev_img == image {
                    assert_eq!(prev_out, &out);
                }
            }
            images.push((image, out));
        }
    }

    #[test]
    fn identity_machine_view_and_query() {
        let tm = Tm::instant_accept();
        check_machine(
            &tm,
            &[&[(0, 1), (1, 0)], &[(0, 1), (1, 1), (1, 0)], &[(0, 0), (1, 1), (0, 1)]],
            4,
        );
    }

    #[test]
    fn complement_machine_view_and_query() {
        let tm = Tm::complement();
        check_machine(&tm, &[&[(0, 1), (1, 0)], &[(0, 0), (0, 1), (1, 0)]], 4);
    }

    #[test]
    fn bounce_machine_exercises_left_moves() {
        // φ_M's Move::L transition rule fires only for this machine.
        let tm = Tm::bounce();
        check_machine(&tm, &[&[(0, 1), (1, 0)], &[(0, 0), (0, 1), (1, 1)]], 4);
    }

    #[test]
    fn erase_machine_view_and_query() {
        let tm = Tm::erase();
        check_machine(&tm, &[&[(0, 1), (1, 0)], &[(0, 0), (1, 1), (1, 0)]], 4);
    }

    #[test]
    fn corrupted_instances_are_silenced() {
        // On instances violating φ_M, both view and query are empty —
        // the construction's way of making bad encodings harmless.
        let tm = Tm::instant_accept();
        let con = theorem_5_1(&tm);
        let mut inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
        let le = inst.schema().rel("leq");
        inst.rel_mut(le).remove(&[named(0), named(2)]);
        let image = apply_views(&con.views, &inst);
        assert!(image.rel_named("V").is_empty());
        assert!(eval_fo(&con.query, &inst).is_empty());
    }

    #[test]
    fn padded_domains_agree() {
        // The same graph encoded over different padded domain sizes gives
        // the same view image and the same query answer — Q_V is
        // well-defined on the image.
        let tm = Tm::instant_accept();
        let con = theorem_5_1(&tm);
        let edges = [(0usize, 1usize), (1, 0)];
        let i4 = build_instance(&tm, 2, &edges, 4).unwrap();
        let i5 = build_instance(&tm, 2, &edges, 5).unwrap();
        assert_eq!(apply_views(&con.views, &i4), apply_views(&con.views, &i5));
        assert_eq!(eval_fo(&con.query, &i4), eval_fo(&con.query, &i5));
    }
}
