//! Stratification of Datalog programs with negation.
//!
//! Negated IDB predicates must be fully computed before any rule reads
//! them. A program is *stratifiable* when its predicate dependency graph
//! has no cycle through a negative edge; strata are then the standard
//! layering: `stratum(head) ≥ stratum(pos dep)` and
//! `stratum(head) ≥ stratum(neg dep) + 1`.

use crate::rule::{Literal, Program};
use vqd_instance::RelId;

/// The error returned for programs with recursion through negation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotStratifiable {
    /// A predicate on a negative cycle.
    pub witness: String,
}

impl std::fmt::Display for NotStratifiable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "program is not stratifiable: predicate `{}` depends negatively on itself",
            self.witness
        )
    }
}

impl std::error::Error for NotStratifiable {}

/// A stratification: for each stratum (in order), the rules to saturate.
#[derive(Clone, Debug)]
pub struct Stratification {
    /// `stratum_of[rel]` for every schema predicate (EDB predicates get 0).
    pub stratum_of: Vec<usize>,
    /// Rule indices grouped by the stratum of their head, in order.
    pub rule_layers: Vec<Vec<usize>>,
}

/// Computes a stratification, or reports failure.
pub fn stratify(p: &Program) -> Result<Stratification, NotStratifiable> {
    let n = p.schema.len();
    let mut stratum = vec![0usize; n];
    // Bellman-Ford-style relaxation; more than n rounds of change means a
    // negative cycle.
    for round in 0..=n + 1 {
        let mut changed = false;
        for rule in &p.rules {
            let h = rule.head.rel.idx();
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) => {
                        if stratum[h] < stratum[a.rel.idx()] {
                            stratum[h] = stratum[a.rel.idx()];
                            changed = true;
                        }
                    }
                    Literal::Neg(a) => {
                        if stratum[h] < stratum[a.rel.idx()] + 1 {
                            stratum[h] = stratum[a.rel.idx()] + 1;
                            changed = true;
                        }
                    }
                    Literal::Neq(..) => {}
                }
            }
        }
        if !changed {
            break;
        }
        if round == n + 1 {
            // Find a predicate with an inflated stratum as witness.
            let worst = (0..n).max_by_key(|&i| stratum[i]).expect("non-empty schema");
            return Err(NotStratifiable { witness: p.schema.name(RelId(worst as u32)).to_owned() });
        }
    }
    if stratum.iter().any(|&s| s > n) {
        let worst = (0..n).max_by_key(|&i| stratum[i]).expect("non-empty");
        return Err(NotStratifiable { witness: p.schema.name(RelId(worst as u32)).to_owned() });
    }
    let max = stratum.iter().copied().max().unwrap_or(0);
    let mut rule_layers: Vec<Vec<usize>> = vec![Vec::new(); max + 1];
    for (i, rule) in p.rules.iter().enumerate() {
        rule_layers[stratum[rule.head.rel.idx()]].push(i);
    }
    Ok(Stratification { stratum_of: stratum, rule_layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{DomainNames, Schema};

    #[test]
    fn positive_recursion_is_one_stratum() {
        let s = Schema::new([("E", 2), ("T", 2)]);
        let mut names = DomainNames::new();
        let p =
            crate::Program::parse(&s, &mut names, "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
                .unwrap();
        let st = stratify(&p).unwrap();
        assert_eq!(st.rule_layers.len(), 1);
        assert_eq!(st.stratum_of[s.rel("T").idx()], 0);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let s = Schema::new([("E", 2), ("T", 2), ("NT", 2)]);
        let mut names = DomainNames::new();
        let p = crate::Program::parse(
            &s,
            &mut names,
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nNT(x,y) :- E(x,a), E(b,y), !T(x,y).",
        )
        .unwrap();
        let st = stratify(&p).unwrap();
        assert_eq!(st.stratum_of[s.rel("T").idx()], 0);
        assert_eq!(st.stratum_of[s.rel("NT").idx()], 1);
        assert_eq!(st.rule_layers.len(), 2);
        assert_eq!(st.rule_layers[1].len(), 1);
    }

    #[test]
    fn negative_cycle_rejected() {
        let s = Schema::new([("P", 1), ("A", 1), ("B", 1)]);
        let mut names = DomainNames::new();
        let p = crate::Program::parse(&s, &mut names, "A(x) :- P(x), !B(x).\nB(x) :- P(x), !A(x).")
            .unwrap();
        let e = stratify(&p).unwrap_err();
        assert!(e.witness == "A" || e.witness == "B");
    }

    #[test]
    fn chains_of_negation_stack() {
        let s = Schema::new([("P", 1), ("A", 1), ("B", 1), ("C", 1)]);
        let mut names = DomainNames::new();
        let p = crate::Program::parse(
            &s,
            &mut names,
            "A(x) :- P(x).\nB(x) :- P(x), !A(x).\nC(x) :- P(x), !B(x).",
        )
        .unwrap();
        let st = stratify(&p).unwrap();
        assert_eq!(st.stratum_of[s.rel("A").idx()], 0);
        assert_eq!(st.stratum_of[s.rel("B").idx()], 1);
        assert_eq!(st.stratum_of[s.rel("C").idx()], 2);
    }
}
