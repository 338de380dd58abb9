//! Bit-parallel evaluation of the conjunctive family over the bounded
//! instance space.
//!
//! The bounded scans (the semantic determinacy check and
//! [`contained_bounded_budgeted`](crate::contained_bounded_budgeted))
//! visit every instance whose values lie in `{c0..c(n-1)}`, in
//! [`InstanceEnumerator`](vqd_instance::gen::InstanceEnumerator) order.
//! Index `i` of that order *is* the instance: its bits are the
//! per-relation tuple bitsets laid end to end, and tuple `(a₁…a_k)` of
//! relation `r` sits at bit `base_r + Σ a_j·n^(k−j)` ([`BitLayout`]).
//!
//! [`BitScan`] compiles every CQ disjunct once per scan into one
//! `(head bit, positive mask, negative mask)` triple per assignment of
//! its variables to the domain; `=` is unified away and `≠` is settled
//! while compiling. A disjunct's answer on instance `d` is the OR of the
//! head bits of the triples whose positive mask lies inside `d` and
//! whose negative mask misses it. Views, queries and their answers are
//! then plain `u128`s, and a scan builds an [`Instance`] only for a
//! witness — no index, no homomorphism search.
//!
//! Compiling is refused (`None`, and the caller runs the per-instance
//! evaluator instead) when a disjunct is unsafe, when a constant is not
//! a domain element (`Named(k)` with `k < n` is domain element `ck`),
//! when an output needs more than 128 bits, or when there would be more
//! triples than instances to scan.

use crate::cq_eval::normalize_eqs;
use vqd_instance::{Instance, Relation, Schema, Value};
use vqd_query::{Cq, QueryExpr, Term, VarId};

/// The disjuncts of a query in the conjunctive family; `None` for FO,
/// which the kernel does not compile.
pub fn disjuncts(q: &QueryExpr) -> Option<&[Cq]> {
    match q {
        QueryExpr::Cq(cq) => Some(std::slice::from_ref(cq)),
        QueryExpr::Ucq(u) => Some(&u.disjuncts),
        QueryExpr::Fo(_) => None,
    }
}

/// Bit positions of the tuples of a list of relations over the domain
/// `{c0..c(n-1)}`: relation `r` owns bits `base_r .. base_r + n^arity_r`,
/// in lexicographic tuple order.
#[derive(Clone, Debug)]
pub struct BitLayout {
    n: u32,
    arities: Vec<usize>,
    bases: Vec<u32>,
}

impl BitLayout {
    /// The layout of relations with these arities, or `None` if it needs
    /// more than 128 bits.
    pub fn new(arities: impl IntoIterator<Item = usize>, n: usize) -> Option<BitLayout> {
        let n = u32::try_from(n).ok()?;
        let mut width = 0u32;
        let mut out = BitLayout { n, arities: Vec::new(), bases: Vec::new() };
        for arity in arities {
            let cells = n.checked_pow(u32::try_from(arity).ok()?)?;
            out.arities.push(arity);
            out.bases.push(width);
            width = width.checked_add(cells).filter(|&w| w <= 128)?;
        }
        Some(out)
    }

    /// The bit of `tuple` in relation `rel`; every value must be below `n`.
    fn bit(&self, rel: usize, tuple: impl Iterator<Item = u32>) -> u32 {
        self.bases[rel] + tuple.fold(0, |acc, a| acc * self.n + a)
    }

    /// Decodes `bits` into one relation per layout entry.
    pub fn relations(&self, bits: u128) -> Vec<Relation> {
        self.arities
            .iter()
            .zip(&self.bases)
            .map(|(&arity, &base)| {
                let cells = self.n.pow(arity as u32);
                let tuples = (0..cells).filter(|c| bits >> (base + c) & 1 == 1).map(|c| {
                    let mut t = vec![Value::Named(0); arity];
                    let mut rest = c;
                    for slot in t.iter_mut().rev() {
                        *slot = Value::Named(rest % self.n);
                        rest /= self.n;
                    }
                    t
                });
                Relation::from_tuples(arity, tuples)
            })
            .collect()
    }

    /// Decodes `bits` into an instance over `schema`, whose arities must
    /// be this layout's.
    pub fn instance(&self, schema: &Schema, bits: u128) -> Instance {
        let mut out = Instance::empty(schema);
        for ((rel, _), r) in schema.iter().zip(self.relations(bits)) {
            *out.rel_mut(rel) = r;
        }
        out
    }
}

/// One compiled variable assignment: `head` is set in the answer when
/// `pos ⊆ d` and `neg ∩ d = ∅`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Triple {
    head: u128,
    pos: u128,
    neg: u128,
}

/// One compiled side of a scan: its output layout and its triples,
/// grouped by head bit. Group `g` owns the `(pos, neg)` masks up to
/// `groups[g].1`, fewest tuples first, since those fire most often.
#[derive(Clone, Debug)]
struct Side {
    output: BitLayout,
    groups: Vec<(u128, usize)>,
    masks: Vec<(u128, u128)>,
}

impl Side {
    fn new(output: BitLayout, mut triples: Vec<Triple>) -> Side {
        let weight = |t: &Triple| t.pos.count_ones() + t.neg.count_ones();
        triples.sort_unstable_by_key(|t| (t.head, weight(t), t.pos, t.neg));
        triples.dedup();
        let mut groups: Vec<(u128, usize)> = Vec::new();
        for (i, t) in triples.iter().enumerate() {
            match groups.last_mut() {
                Some((head, end)) if *head == t.head => *end = i + 1,
                _ => groups.push((t.head, i + 1)),
            }
        }
        let masks = triples.iter().map(|t| (t.pos, t.neg)).collect();
        Side { output, groups, masks }
    }
}

/// A bounded scan compiled to bitmasks: the instance layout plus one or
/// more *sides*, each a list of outputs (a view set's views, or a single
/// query) whose answers [`BitScan::eval`] returns laid end to end.
#[derive(Clone, Debug)]
pub struct BitScan {
    input: BitLayout,
    sides: Vec<Side>,
}

impl BitScan {
    /// Compiles `sides` (each output given as its CQ disjuncts) for a
    /// scan of the `total` instances over `schema` and domain `n`, or
    /// returns `None` when the fallback rule (module docs) sends the scan
    /// to the per-instance evaluator. Compiling costs at most `total`
    /// triples.
    pub fn compile(schema: &Schema, n: usize, total: u128, sides: &[&[&[Cq]]]) -> Option<BitScan> {
        let input = BitLayout::new(schema.iter().map(|(_, d)| d.arity), n)?;
        // Normalize and vet every disjunct before enumerating anything,
        // so the triple count is known up front.
        let mut plans: Vec<Vec<(usize, Cq)>> = Vec::new();
        let mut triples: u128 = 0;
        for side in sides {
            let mut plan = Vec::new();
            for (out, ds) in side.iter().enumerate() {
                for d in ds.iter() {
                    if !constants_in_domain(d, n) {
                        return None;
                    }
                    let Some(d) = normalize_eqs(d) else {
                        continue; // unsatisfiable equalities: no answers
                    };
                    if !d.is_safe() {
                        return None;
                    }
                    let vars = d.all_vars().len() as u32;
                    triples = triples.checked_add((n as u128).checked_pow(vars)?)?;
                    plan.push((out, d));
                }
            }
            plans.push(plan);
        }
        if triples > total {
            return None;
        }
        let sides = sides
            .iter()
            .zip(plans)
            .map(|(side, plan)| {
                let output =
                    BitLayout::new(side.iter().map(|ds| ds.first().map_or(0, Cq::arity)), n)?;
                let mut triples = Vec::new();
                for (out, d) in plan {
                    compile_cq(&d, &input, &output, out, &mut triples);
                }
                Some(Side::new(output, triples))
            })
            .collect::<Option<Vec<Side>>>()?;
        Some(BitScan { input, sides })
    }

    /// The answers of side `side` on the instance with bits `d`, laid
    /// out by [`BitScan::output`].
    #[inline]
    pub fn eval(&self, side: usize, d: u128) -> u128 {
        let side = &self.sides[side];
        let mut out = 0;
        let mut start = 0;
        for &(head, end) in &side.groups {
            if side.masks[start..end].iter().any(|&(pos, neg)| pos & !d == 0 && neg & d == 0) {
                out |= head;
            }
            start = end;
        }
        out
    }

    /// The instance layout: index `i` of the enumeration is the
    /// instance with bits `i`.
    pub fn input(&self) -> &BitLayout {
        &self.input
    }

    /// The answer layout of side `side`.
    pub fn output(&self, side: usize) -> &BitLayout {
        &self.sides[side].output
    }
}

/// Whether every constant of `q` is a domain element `c0..c(n-1)`.
fn constants_in_domain(q: &Cq, n: usize) -> bool {
    let atoms = q.atoms.iter().chain(&q.neg_atoms).flat_map(|a| a.args.iter());
    let pairs = q.eqs.iter().chain(&q.neqs).flat_map(|(a, b)| [a, b]);
    q.head.iter().chain(atoms).chain(pairs).all(|t| match t {
        Term::Var(_) => true,
        Term::Const(Value::Named(c)) => (*c as usize) < n,
        Term::Const(Value::Null(_)) => false,
    })
}

/// Appends one triple per assignment of `q`'s variables (an
/// equality-free, safe disjunct whose constants are domain elements)
/// that satisfies its `≠` constraints and does not both require and
/// forbid a tuple.
fn compile_cq(
    q: &Cq,
    input: &BitLayout,
    output: &BitLayout,
    out: usize,
    triples: &mut Vec<Triple>,
) {
    let ids: Vec<VarId> = q.all_vars().into_iter().collect();
    let vars = ids.len();
    let n = input.n;
    let mut asg = vec![0u32; vars];
    let value = |t: &Term, asg: &[u32]| match *t {
        Term::Var(v) => asg[ids.binary_search(&v).expect("variable of q")],
        Term::Const(c) => c.index(),
    };
    let mask = |atoms: &[vqd_query::Atom], asg: &[u32]| {
        atoms.iter().fold(0u128, |m, a| {
            m | 1u128 << input.bit(a.rel.idx(), a.args.iter().map(|t| value(t, asg)))
        })
    };
    if n == 0 && vars > 0 {
        return; // no assignment exists
    }
    loop {
        if q.neqs.iter().all(|(a, b)| value(a, &asg) != value(b, &asg)) {
            let pos = mask(&q.atoms, &asg);
            let neg = mask(&q.neg_atoms, &asg);
            if pos & neg == 0 {
                let head = 1u128 << output.bit(out, q.head.iter().map(|t| value(t, &asg)));
                triples.push(Triple { head, pos, neg });
            }
        }
        // Advance the odometer over `asg`.
        let mut k = 0;
        loop {
            if k == vars {
                return;
            }
            asg[k] += 1;
            if asg[k] < n {
                break;
            }
            asg[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_cq, eval_ucq};
    use vqd_instance::gen::{instance_at, space_size};
    use vqd_instance::DomainNames;
    use vqd_query::parse_query;

    fn schema() -> Schema {
        Schema::new([("E", 2), ("P", 1), ("T", 3)])
    }

    /// The kernel's answer on every instance of a small space equals the
    /// evaluator's.
    fn agrees(src: &str, s: &Schema, n: usize) {
        let mut names = DomainNames::new();
        names.intern("A");
        names.intern("B");
        let q = parse_query(s, &mut names, src).unwrap();
        let total = space_size(s, n).unwrap();
        let ds = disjuncts(&q).unwrap();
        let scan = BitScan::compile(s, n, total, &[&[ds]]).expect("compiles");
        for i in 0..total {
            let d = instance_at(s, n, i);
            assert_eq!(scan.input().instance(s, i), d);
            let want = match &q {
                QueryExpr::Cq(c) => eval_cq(c, &d),
                QueryExpr::Ucq(u) => eval_ucq(u, &d),
                QueryExpr::Fo(_) => unreachable!(),
            };
            let got = scan.output(0).relations(scan.eval(0, i)).pop().unwrap();
            assert_eq!(got, want, "{src} on instance {i}");
        }
    }

    #[test]
    fn kernel_matches_the_evaluator() {
        let s = Schema::new([("E", 2), ("P", 1)]);
        for src in [
            "Q(x,z) :- E(x,y), E(y,z).",
            "Q(x) :- E(x,y), x != y.",
            "Q(x) :- E(x,y), !P(y).",
            "Q(x,y) :- E(x,y), x = y.",
            "Q() :- E(x,x).",
            "Q(x) :- E(x,A).",
            "Q(A,x) :- P(x), x != B.",
            "Q(x) :- P(x).\nQ(x) :- E(x,x), !P(x).",
            "Q(x) :- P(x), A = B.",
        ] {
            agrees(src, &s, 2);
        }
        agrees("Q(x,y,z) :- T(x,y,z), x != z.", &Schema::new([("T", 3)]), 2);
    }

    #[test]
    fn fallback_rule() {
        let s = schema();
        let mut names = DomainNames::new();
        let mut q = |src: &str| parse_query(&s, &mut names, src).unwrap();
        let total = space_size(&s, 2).unwrap();
        let compiles = |q: &QueryExpr, n: usize, total: u128| {
            BitScan::compile(&s, n, total, &[&[disjuncts(q).unwrap()]]).is_some()
        };
        let a = q("Q(x) :- P(x), x != A.");
        let b = q("Q(x) :- P(x), x != B.");
        assert!(compiles(&a, 2, total), "A is c0, a domain element");
        assert!(!compiles(&b, 1, space_size(&s, 1).unwrap()), "B is c1, outside domain 1");
        assert!(compiles(&b, 2, total));
        // Four variables: 2^4 = 16 triples against a space of `total`.
        let wide = q("Q() :- E(x,y), E(z,w).");
        assert!(compiles(&wide, 2, 16));
        assert!(!compiles(&wide, 2, 15));
        // 5^3 + 3·5^0 bits fill a u128 exactly; 5^3 + 5^1 overflow it.
        assert!(BitLayout::new([3, 0, 0, 0], 5).is_some());
        assert!(BitLayout::new([3, 1], 5).is_none());
    }
}
