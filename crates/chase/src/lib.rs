//! # vqd-chase — frozen bodies, view inverses, the Theorem 3.3 tower
//!
//! The chase machinery of Section 3 of Segoufin–Vianu:
//!
//! * [`inverse`] — the view-inverse chase `V_D^{-1}(S')` and the
//!   [`CqViews`] validation wrapper;
//! * [`canonical`](mod@canonical) — the canonical rewriting `Q_V`
//!   (frozen body of `V([Q])`) and the Proposition 3.5(iii) membership
//!   test, which by Theorem 3.7 *decides* unrestricted determinacy for
//!   CQs;
//! * [`tower`] — the `{Dₖ, Sₖ, S'ₖ, D'ₖ}` counterexample tower of the
//!   Theorem 3.3 proof, with machine-checked Proposition 3.6 invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod inverse;
pub mod tower;

pub use canonical::{canonical, proposition_3_5_test_budgeted, try_canonical, Canonical};
pub use inverse::{v_inverse, v_inverse_indexed, CqViews};
pub use tower::{InvariantReport, Tower};

use std::collections::BTreeMap;
use vqd_budget::VqdError;
use vqd_instance::{Instance, Schema, Value};
use vqd_query::{Atom, Cq, Term, VarId};

/// The inverse of freezing: reads an instance (typically a chase result)
/// back as a CQ body, turning labelled nulls into variables and keeping
/// named constants. `head` values are translated the same way and become
/// the query head.
///
/// Returns the query and the null→variable map. A schema mismatch
/// between `inst` and `schema` is reported as a structured error (this
/// used to be an `assert!`).
pub fn unfreeze_instance(
    inst: &Instance,
    head: &[Value],
    schema: &Schema,
) -> Result<(Cq, BTreeMap<Value, VarId>), VqdError> {
    if inst.schema() != schema {
        return Err(VqdError::SchemaMismatch {
            context: "unfreeze_instance",
            expected: format!("{schema:?}"),
            found: format!("{:?}", inst.schema()),
        });
    }
    let mut q = Cq::new(schema);
    let mut var_of: BTreeMap<Value, VarId> = BTreeMap::new();
    let term_of = |v: Value, q: &mut Cq, var_of: &mut BTreeMap<Value, VarId>| match v {
        Value::Named(_) => Term::Const(v),
        Value::Null(i) => Term::Var(*var_of.entry(v).or_insert_with(|| q.var(&format!("n{i}")))),
    };
    for (rel, r) in inst.iter() {
        for t in r.iter() {
            let args: Vec<Term> = t.iter().map(|&v| term_of(v, &mut q, &mut var_of)).collect();
            q.atoms.push(Atom::new(rel, args));
        }
    }
    q.head = head.iter().map(|&v| term_of(v, &mut q, &mut var_of)).collect();
    Ok((q, var_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::{cq_equivalent, freeze};
    use vqd_instance::NullGen;

    #[test]
    fn unfreeze_is_inverse_of_freeze() {
        let schema = Schema::new([("E", 2), ("P", 1)]);
        let mut q = Cq::new(&schema);
        let x = q.var("x");
        let y = q.var("y");
        q.head = vec![x.into()];
        q.atom("E", vec![x.into(), y.into()]);
        q.atom("P", vec![y.into()]);
        let mut nulls = NullGen::new();
        let (inst, head, _) = freeze(&q, &mut nulls).unwrap();
        let (q2, _) = unfreeze_instance(&inst, &head, &schema).unwrap();
        assert!(cq_equivalent(&q, &q2));
    }

    #[test]
    fn unfreeze_rejects_schema_mismatch() {
        let schema = Schema::new([("E", 2)]);
        let other = Schema::new([("P", 1)]);
        let inst = Instance::empty(&schema);
        assert!(matches!(
            unfreeze_instance(&inst, &[], &other),
            Err(VqdError::SchemaMismatch { context: "unfreeze_instance", .. })
        ));
    }

    #[test]
    fn unfreeze_keeps_constants() {
        let schema = Schema::new([("E", 2)]);
        let mut inst = Instance::empty(&schema);
        inst.insert_named("E", vec![vqd_instance::named(5), vqd_instance::null(0)]);
        let (q, map) = unfreeze_instance(&inst, &[vqd_instance::null(0)], &schema).unwrap();
        assert_eq!(q.arity(), 1);
        assert_eq!(map.len(), 1);
        assert!(q.atoms[0].args[0].as_const().is_some());
        assert!(q.atoms[0].args[1].is_var());
    }
}
