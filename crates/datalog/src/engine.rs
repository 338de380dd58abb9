//! Naive and semi-naive bottom-up evaluation.
//!
//! Both evaluators saturate the strata in order. The semi-naive engine
//! implements the classical delta optimization — each round only fires
//! rule instantiations that touch at least one fact derived in the
//! previous round — and is benchmarked against the naive engine in the F7
//! ablation.

use crate::rule::{Literal, Program, Rule};
use crate::stratify::{stratify, NotStratifiable, Stratification};
use vqd_budget::{Budget, Exhausted, VqdError};
use vqd_eval::{for_each_hom, Assignment, Binding, Ordering};
use vqd_instance::{IndexMaintenance, IndexedInstance, Instance, Value};
use vqd_obs::Metric;
use vqd_query::{Atom, Term};

/// Matches one atom against a concrete tuple, producing the induced
/// assignment (or `None` on constant/repeat clash).
fn match_atom(atom: &Atom, tuple: &[Value]) -> Option<Assignment> {
    let mut asg = Assignment::new();
    for (term, &val) in atom.args.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if *c != val {
                    return None;
                }
            }
            Term::Var(v) => match asg.get(v) {
                Some(&prev) if prev != val => return None,
                _ => {
                    asg.insert(*v, val);
                }
            },
        }
    }
    Some(asg)
}

fn resolve(t: Term, asg: &Binding) -> Value {
    asg.resolve(t).expect("safe rule: variable bound")
}

/// Fires `rule` over the indexed database with positive atom `skip`'s
/// match pre-bound by `fixed`; passes every derived head fact to `emit`.
fn fire_rule(
    rule: &Rule,
    index: &IndexedInstance,
    fixed: &Assignment,
    skip: Option<usize>,
    emit: &mut impl FnMut(Vec<Value>),
) {
    let pos: Vec<Atom> = rule
        .positive_atoms()
        .enumerate()
        .filter(|(i, _)| Some(*i) != skip)
        .map(|(_, a)| a.clone())
        .collect();
    for_each_hom(&pos, index, fixed, Ordering::MostConstrained, |asg| {
        for lit in &rule.body {
            match lit {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    let t: Vec<Value> = a.args.iter().map(|&x| resolve(x, asg)).collect();
                    if index.instance().rel(a.rel).contains(&t) {
                        return true;
                    }
                }
                Literal::Neq(a, b) => {
                    if resolve(*a, asg) == resolve(*b, asg) {
                        return true;
                    }
                }
            }
        }
        emit(rule.head.args.iter().map(|&x| resolve(x, asg)).collect());
        true
    });
}

/// Saturates one stratum naively: fire all rules until no new facts.
/// Checkpoints once per rule per round; exhaustion leaves `db` at the
/// last completed round (a sound under-approximation of the fixpoint).
///
/// Index maintenance follows `db`'s policy: incremental inserts keep the
/// index current (the `refresh` is a no-op), while the `Rebuild` baseline
/// pays one full rebuild per round — the historical cost.
fn saturate_naive(
    rules: &[&Rule],
    db: &mut IndexedInstance,
    budget: &Budget,
) -> Result<(), Exhausted> {
    let mut round = 0usize;
    loop {
        vqd_obs::count(Metric::FixpointRounds, 1);
        let mut span = vqd_obs::span_at("fixpoint.round", budget.work_done().steps);
        db.refresh();
        let mut new_facts: Vec<(vqd_instance::RelId, Vec<Value>)> = Vec::new();
        {
            let index: &IndexedInstance = db;
            for rule in rules {
                budget.checkpoint_with(&format_args!(
                    "naive fixpoint at round {round}, {} facts derived",
                    index.instance().total_tuples()
                ))?;
                fire_rule(rule, index, &Assignment::new(), None, &mut |fact| {
                    if !index.instance().rel(rule.head.rel).contains(&fact) {
                        new_facts.push((rule.head.rel, fact));
                    }
                });
            }
        }
        let mut changed = false;
        for (rel, fact) in new_facts {
            if db.insert(rel, fact) {
                changed = true;
                // Counted per effective insert (not batched per round) so
                // the total stays exact when the budget trips mid-round.
                vqd_obs::count(Metric::FixpointDeltaTuples, 1);
                budget.charge_tuples(
                    1,
                    &format_args!(
                        "naive fixpoint at round {round}, {} facts derived",
                        db.instance().total_tuples()
                    ),
                )?;
            }
        }
        span.finish_steps(budget.work_done().steps);
        if !changed {
            return Ok(());
        }
        round += 1;
    }
}

/// Saturates one stratum semi-naively. Checkpoints once per delta fact
/// considered; on exhaustion `db` holds every fully-applied delta round
/// (a sound under-approximation of the fixpoint).
fn saturate_semi_naive(
    rules: &[&Rule],
    db: &mut IndexedInstance,
    budget: &Budget,
) -> Result<(), Exhausted> {
    // Round 0: a full naive pass collecting the initial delta.
    let mut delta = Instance::empty(db.instance().schema());
    db.refresh();
    {
        vqd_obs::count(Metric::FixpointRounds, 1);
        let mut span = vqd_obs::span_at("fixpoint.round", budget.work_done().steps);
        let index: &IndexedInstance = db;
        for rule in rules {
            budget.checkpoint_with(&format_args!(
                "semi-naive round 0, {} facts derived",
                index.instance().total_tuples()
            ))?;
            let mut emit = |fact: Vec<Value>| {
                if !index.instance().rel(rule.head.rel).contains(&fact) {
                    delta.insert(rule.head.rel, fact);
                }
            };
            fire_rule(rule, index, &Assignment::new(), None, &mut emit);
        }
        span.finish_steps(budget.work_done().steps);
    }
    let mut round = 1usize;
    while !delta.is_empty() {
        vqd_obs::count(Metric::FixpointRounds, 1);
        vqd_obs::count(Metric::FixpointDeltaTuples, delta.total_tuples() as u64);
        let mut span = vqd_obs::span_at("fixpoint.round", budget.work_done().steps);
        budget.charge_tuples(
            delta.total_tuples() as u64,
            &format_args!(
                "semi-naive round {round}, {} facts derived",
                db.instance().total_tuples()
            ),
        )?;
        // Apply the delta through the maintained index — under the
        // incremental policy this is the whole point of the refactor: no
        // full rebuild per round, just O(|delta|) index maintenance.
        db.apply_delta(&delta);
        db.refresh();
        let mut next_delta = Instance::empty(db.instance().schema());
        let index: &IndexedInstance = db;
        for rule in rules {
            let positives: Vec<Atom> = rule.positive_atoms().cloned().collect();
            for (i, atom) in positives.iter().enumerate() {
                // Each firing must use a delta fact at position i; facts
                // older than the delta are handled by other positions or
                // earlier rounds.
                for t in delta.rel(atom.rel).iter() {
                    budget.checkpoint_with(&format_args!(
                        "semi-naive round {round}, {} facts derived",
                        index.instance().total_tuples()
                    ))?;
                    let Some(fixed) = match_atom(atom, t) else {
                        continue;
                    };
                    let mut emit = |fact: Vec<Value>| {
                        if !index.instance().rel(rule.head.rel).contains(&fact) {
                            next_delta.insert(rule.head.rel, fact);
                        }
                    };
                    fire_rule(rule, index, &fixed, Some(i), &mut emit);
                }
            }
        }
        span.finish_steps(budget.work_done().steps);
        delta = next_delta;
        round += 1;
    }
    Ok(())
}

/// Evaluation strategy selector (F7 ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Semi-naive (delta-driven) evaluation.
    #[default]
    SemiNaive,
    /// Naive re-derivation every round.
    Naive,
}

/// Evaluates `p` on `edb`, returning the saturated instance (EDB facts
/// plus all derived IDB facts).
///
/// ```
/// use vqd_datalog::{eval_program, Program, Strategy};
/// use vqd_instance::{named, DomainNames, Instance, Schema};
///
/// let schema = Schema::new([("E", 2), ("T", 2)]);
/// let mut names = DomainNames::new();
/// let prog = Program::parse(&schema, &mut names,
///     "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
/// let mut d = Instance::empty(&schema);
/// d.insert_named("E", vec![named(0), named(1)]);
/// d.insert_named("E", vec![named(1), named(2)]);
/// let out = eval_program(&prog, &d, Strategy::SemiNaive).unwrap();
/// assert!(out.rel_named("T").contains(&[named(0), named(2)]));
/// ```
///
/// # Errors
/// Returns [`NotStratifiable`] for programs with recursion through
/// negation.
pub fn eval_program(
    p: &Program,
    edb: &Instance,
    strategy: Strategy,
) -> Result<Instance, NotStratifiable> {
    match eval_program_budgeted(p, edb, strategy, &Budget::unlimited()) {
        Ok(db) => Ok(db),
        Err(EvalError::NotStratifiable(e)) => Err(e),
        Err(e) => panic!("eval_program: {e}"),
    }
}

/// Error type of [`eval_program_budgeted`].
#[derive(Clone, Debug)]
pub enum EvalError {
    /// The program recurses through negation.
    NotStratifiable(NotStratifiable),
    /// The EDB instance is not over the program's schema.
    SchemaMismatch {
        /// The program's schema.
        expected: String,
        /// The instance's schema.
        found: String,
    },
    /// The budget tripped mid-fixpoint. `partial` is every fact derived
    /// in completed rounds — a sound under-approximation of the fixpoint
    /// for the monotone strata evaluated so far.
    Exhausted {
        /// Facts derived before the trip (includes the EDB).
        partial: Box<Instance>,
        /// What tripped and how much work was done.
        info: Box<Exhausted>,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::NotStratifiable(e) => write!(f, "{e:?}"),
            EvalError::SchemaMismatch { expected, found } => write!(
                f,
                "eval_program: instance schema mismatch (program over {expected}, instance over {found})"
            ),
            EvalError::Exhausted { partial, info } => write!(
                f,
                "{info} (partial fixpoint holds {} facts)",
                partial.total_tuples()
            ),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<EvalError> for VqdError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::NotStratifiable(ns) => VqdError::NotStratifiable(format!("{ns:?}")),
            EvalError::SchemaMismatch { expected, found } => {
                VqdError::SchemaMismatch { context: "eval_program", expected, found }
            }
            EvalError::Exhausted { info, .. } => VqdError::Exhausted(info),
        }
    }
}

/// Budgeted [`eval_program`]: the fixpoint draws on `budget` (one
/// checkpoint per rule/delta-fact application, tuples charged per
/// derived fact). On exhaustion, [`EvalError::Exhausted`] carries the
/// partially saturated instance — every fact in it is genuinely
/// derivable, the fixpoint is just not known to be complete.
pub fn eval_program_budgeted(
    p: &Program,
    edb: &Instance,
    strategy: Strategy,
    budget: &Budget,
) -> Result<Instance, EvalError> {
    eval_program_with(p, edb, strategy, IndexMaintenance::Incremental, budget)
}

/// [`eval_program_budgeted`] with an explicit index-maintenance policy —
/// the ablation knob behind the `fixpoint` bench. `Incremental` (the
/// default everywhere else) threads one maintained [`IndexedInstance`]
/// through the whole saturation — the index is built exactly once, at
/// construction, and updated by delta as facts land. `Rebuild` reproduces
/// the historical cost: one full index rebuild per round. Budget
/// checkpoints fire at identical points under both policies.
pub fn eval_program_with(
    p: &Program,
    edb: &Instance,
    strategy: Strategy,
    maintenance: IndexMaintenance,
    budget: &Budget,
) -> Result<Instance, EvalError> {
    if edb.schema() != &p.schema {
        return Err(EvalError::SchemaMismatch {
            expected: format!("{:?}", p.schema),
            found: format!("{:?}", edb.schema()),
        });
    }
    let Stratification { rule_layers, .. } = stratify(p).map_err(EvalError::NotStratifiable)?;
    let mut db = IndexedInstance::from_instance(edb).with_maintenance(maintenance);
    for layer in &rule_layers {
        let rules: Vec<&Rule> = layer.iter().map(|&i| &p.rules[i]).collect();
        if rules.is_empty() {
            continue;
        }
        let saturated = match strategy {
            Strategy::Naive => saturate_naive(&rules, &mut db, budget),
            Strategy::SemiNaive => saturate_semi_naive(&rules, &mut db, budget),
        };
        if let Err(info) = saturated {
            return Err(EvalError::Exhausted {
                partial: Box::new(db.into_instance()),
                info: Box::new(info),
            });
        }
    }
    Ok(db.into_instance())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, DomainNames, Schema};

    fn tc_program() -> (Program, Schema) {
        let s = Schema::new([("E", 2), ("T", 2)]);
        let mut names = DomainNames::new();
        let p =
            Program::parse(&s, &mut names, "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).").unwrap();
        (p, s)
    }

    fn chain(s: &Schema, n: u32) -> Instance {
        let mut d = Instance::empty(s);
        for i in 0..n {
            d.insert_named("E", vec![named(i), named(i + 1)]);
        }
        d
    }

    #[test]
    fn transitive_closure_of_chain() {
        let (p, s) = tc_program();
        let d = chain(&s, 4);
        let out = eval_program(&p, &d, Strategy::SemiNaive).unwrap();
        // T = all pairs (i,j) with i<j over 0..=4: C(5,2) = 10.
        assert_eq!(out.rel_named("T").len(), 10);
        assert!(out.rel_named("T").contains(&[named(0), named(4)]));
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let (p, s) = tc_program();
        for n in [0, 1, 3, 6] {
            let d = chain(&s, n);
            let a = eval_program(&p, &d, Strategy::Naive).unwrap();
            let b = eval_program(&p, &d, Strategy::SemiNaive).unwrap();
            assert_eq!(a, b, "strategies disagree on chain of length {n}");
        }
    }

    #[test]
    fn cycle_closure_is_complete_graph() {
        let (p, s) = tc_program();
        let mut d = chain(&s, 2);
        d.insert_named("E", vec![named(2), named(0)]);
        let out = eval_program(&p, &d, Strategy::SemiNaive).unwrap();
        assert_eq!(out.rel_named("T").len(), 9);
    }

    #[test]
    fn stratified_negation_complement() {
        let s = Schema::new([("E", 2), ("T", 2), ("NT", 2), ("Node", 1)]);
        let mut names = DomainNames::new();
        let p = Program::parse(
            &s,
            &mut names,
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).\n\
             NT(x,y) :- Node(x), Node(y), !T(x,y).",
        )
        .unwrap();
        let mut d = Instance::empty(&s);
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("Node", vec![named(0)]);
        d.insert_named("Node", vec![named(1)]);
        let out = eval_program(&p, &d, Strategy::SemiNaive).unwrap();
        // T = {(0,1)}; NT = all 4 pairs minus T.
        assert_eq!(out.rel_named("NT").len(), 3);
        assert!(!out.rel_named("NT").contains(&[named(0), named(1)]));
    }

    #[test]
    fn inequality_in_recursion() {
        // Paths avoiding self-pairs.
        let s = Schema::new([("E", 2), ("T", 2)]);
        let mut names = DomainNames::new();
        let p = Program::parse(
            &s,
            &mut names,
            "T(x,y) :- E(x,y), x != y.\nT(x,z) :- T(x,y), E(y,z), x != z.",
        )
        .unwrap();
        let mut d = Instance::empty(&s);
        d.insert_named("E", vec![named(0), named(0)]);
        d.insert_named("E", vec![named(0), named(1)]);
        d.insert_named("E", vec![named(1), named(0)]);
        let out = eval_program(&p, &d, Strategy::SemiNaive).unwrap();
        assert!(!out.rel_named("T").contains(&[named(0), named(0)]));
        assert!(out.rel_named("T").contains(&[named(0), named(1)]));
        assert!(out.rel_named("T").contains(&[named(1), named(0)]));
    }

    #[test]
    fn constants_in_rules() {
        let s = Schema::new([("E", 2), ("T", 2)]);
        let mut names = DomainNames::new();
        // Reachability from the constant A only.
        let mut d = Instance::empty(&s);
        let a = names.intern("A");
        let p = Program::parse(&s, &mut names, "T(A, y) :- E(A, y).\nT(A, z) :- T(A, y), E(y, z).")
            .unwrap();
        d.insert_named("E", vec![a, named(100)]);
        d.insert_named("E", vec![named(100), named(101)]);
        d.insert_named("E", vec![named(200), named(201)]);
        let out = eval_program(&p, &d, Strategy::SemiNaive).unwrap();
        assert_eq!(out.rel_named("T").len(), 2);
        assert!(out.rel_named("T").contains(&[a, named(101)]));
    }

    #[test]
    fn empty_edb_fixpoint_is_empty() {
        let (p, s) = tc_program();
        let out = eval_program(&p, &Instance::empty(&s), Strategy::SemiNaive).unwrap();
        assert!(out.rel_named("T").is_empty());
    }

    #[test]
    fn negation_free_programs_are_monotone_in_practice() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (p, s) = tc_program();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let (d1, d2) = vqd_instance::gen::random_subinstance_pair(&s, 4, 0.3, &mut rng);
            let o1 = eval_program(&p, &d1, Strategy::SemiNaive).unwrap();
            let o2 = eval_program(&p, &d2, Strategy::SemiNaive).unwrap();
            assert!(o1.is_subinstance_of(&o2), "TC must be monotone");
        }
    }
}
