//! The Theorem 5.4 construction: implicit definability ⇒ UCQ views with
//! `V ↠ Q` and `Q_V` of full `∃SO ∩ ∀SO` power.
//!
//! Given an FO sentence `φ(T, S̄)` over `τ' = τ ∪ {T} ∪ S̄` implicitly
//! defining a query `q` over `τ` (every `τ`-instance has *some* witness
//! relations, and any witness forces `T = q(D(τ))`), the construction
//! builds:
//!
//! * a schema `τ'' = τ' ∪ σ`, where `σ` holds a pair of *subformula
//!   relations* `R_θ / R̄_θ` per composite subformula θ of `φ` (and the
//!   complement `R̄_θ` alone for atomic θ — atoms anchor the induction
//!   directly, see below);
//! * a UCQ view set whose image reveals **only** whether the `σ`
//!   relations are structurally consistent (conditions (1)–(3) of the
//!   paper), plus `D(τ)`, the active domain, and the root value `R_φ`;
//! * the FO query `Q = ψ ∧ φ(T, S̄) ∧ T(x̄)` where `ψ` asserts the same
//!   structural consistency.
//!
//! On consistent instances `R_φ` equals `φ`'s truth value, so the views
//! determine whether `Q` returns `D(T)` — which implicit definability
//! pins to `q(D(τ))`, itself visible through the identity views. Hence
//! `V ↠ Q`, and `Q_V` computes `q` on (trivial extensions of)
//! `τ`-instances: by Theorem 5.5 every `∃SO ∩ ∀SO` query arises this way.
//!
//! Two places where the paper's sketch is completed here (see DESIGN.md):
//! the *atomic anchor* — conditions referencing atomic subformulas use
//! the real atoms of `τ'` directly, which is what makes the structural
//! induction ground out without exposing `T`/`S̄` content — and the
//! `Vdom` view, needed to compare "full" views against `adom^k`.
//!
//! The worked instance (experiment E10) is **parity of `|U|`** via
//! maximal partial matchings: a maximal matching on a set leaves at most
//! one element unmatched, so "`M` is a maximal matching and `T` ⟺ `M`
//! is perfect" implicitly defines evenness — a query famously not
//! FO-definable.

use std::collections::{BTreeMap, HashMap};
use vqd_eval::eval_fo;
use vqd_instance::{Instance, RelId, Schema, Value};
use vqd_query::{Atom, Cq, Fo, FoQuery, QueryExpr, Term, Ucq, VarId, VarPool, ViewSet};

/// Normalizes a formula to the `{Atom, Eq, ¬, binary ∧, single-var ∃}`
/// fragment the construction works over.
///
/// # Panics
/// Panics on `True`/`False` leaves (rewrite them away first).
pub fn normalize(f: &Fo) -> Fo {
    fn go(f: &Fo) -> Fo {
        match f {
            Fo::True | Fo::False => {
                panic!("normalize: True/False leaves are not supported by the GIMP construction")
            }
            Fo::Atom(a) => Fo::Atom(a.clone()),
            Fo::Eq(a, b) => Fo::Eq(*a, *b),
            Fo::Not(g) => Fo::Not(Box::new(go(g))),
            Fo::And(xs) => {
                assert!(!xs.is_empty());
                let mut it = xs.iter().map(go);
                let first = it.next().expect("non-empty");
                it.fold(first, |acc, x| Fo::And(vec![acc, x]))
            }
            Fo::Or(xs) => {
                // a ∨ b ≡ ¬(¬a ∧ ¬b)
                assert!(!xs.is_empty());
                let negs: Vec<Fo> = xs.iter().map(|x| Fo::Not(Box::new(go(x)))).collect();
                let mut it = negs.into_iter();
                let first = it.next().expect("non-empty");
                let conj = it.fold(first, |acc, x| Fo::And(vec![acc, x]));
                Fo::Not(Box::new(conj))
            }
            Fo::Exists(vs, g) => {
                let mut inner = go(g);
                for &v in vs.iter().rev() {
                    inner = Fo::Exists(vec![v], Box::new(inner));
                }
                inner
            }
            Fo::Implies(..) | Fo::Iff(..) | Fo::Forall(..) => go(&f.desugar()),
        }
    }
    go(&f.desugar())
}

/// One subformula node.
#[derive(Clone, Debug)]
struct Sub {
    /// Free variables, sorted.
    fv: Vec<VarId>,
    kind: SubKind,
    /// `R_θ` (composite nodes except ¬).
    r: Option<RelId>,
    /// `R̄_θ` (all nodes except ¬).
    rbar: Option<RelId>,
}

#[derive(Clone, Debug)]
enum SubKind {
    Atom(Atom),
    Eq(Term, Term),
    Not(usize),
    And(usize, usize),
    Exists(VarId, usize),
}

/// Where a subformula's positive representation lives.
#[derive(Clone, Debug)]
enum Repr {
    /// A real atom of `τ'`.
    RealAtom(Atom),
    /// A real equality.
    RealEq(Term, Term),
    /// A σ-relation over the node's sorted free variables.
    Rel(RelId, Vec<VarId>),
}

/// The packaged Theorem 5.4 construction.
#[derive(Debug, Clone)]
pub struct GimpConstruction {
    /// The base schema `τ` (a prefix of `τ''`).
    pub tau: Schema,
    /// `τ' = τ ∪ {T} ∪ S̄` (a prefix of `τ''`).
    pub tau_prime: Schema,
    /// The full schema `τ''`.
    pub tau_pp: Schema,
    /// The designated output relation `T`.
    pub t_rel: RelId,
    /// The views **V** (UCQ family over `τ''`).
    pub views: ViewSet,
    /// The query `Q = ψ ∧ φ ∧ T(x̄)`.
    pub query: FoQuery,
    /// `φ` normalized, rebased over `τ''`.
    pub phi: Fo,
    /// The subformula table (for σ completion).
    subs: Vec<Sub>,
}

fn index_subs(f: &Fo, subs: &mut Vec<Sub>, memo: &mut HashMap<String, usize>) -> usize {
    // Structural memo key (Fo isn't Hash-friendly across Box'es; Debug is
    // a faithful structural rendering for this normalized fragment).
    let key = format!("{f:?}");
    if let Some(&i) = memo.get(&key) {
        return i;
    }
    let fv: Vec<VarId> = f.free_vars().into_iter().collect();
    let kind = match f {
        Fo::Atom(a) => SubKind::Atom(a.clone()),
        Fo::Eq(a, b) => SubKind::Eq(*a, *b),
        Fo::Not(g) => SubKind::Not(index_subs(g, subs, memo)),
        Fo::And(xs) => {
            assert_eq!(xs.len(), 2, "normalized And is binary");
            SubKind::And(index_subs(&xs[0], subs, memo), index_subs(&xs[1], subs, memo))
        }
        Fo::Exists(vs, g) => {
            assert_eq!(vs.len(), 1, "normalized Exists is single-var");
            SubKind::Exists(vs[0], index_subs(g, subs, memo))
        }
        other => panic!("unnormalized node: {other:?}"),
    };
    subs.push(Sub { fv, kind, r: None, rbar: None });
    let i = subs.len() - 1;
    memo.insert(key, i);
    i
}

fn repr(subs: &[Sub], i: usize) -> Repr {
    match &subs[i].kind {
        SubKind::Atom(a) => Repr::RealAtom(a.clone()),
        SubKind::Eq(a, b) => Repr::RealEq(*a, *b),
        SubKind::Not(g) => co_repr(subs, *g),
        SubKind::And(..) | SubKind::Exists(..) => {
            Repr::Rel(subs[i].r.expect("composite has R"), subs[i].fv.clone())
        }
    }
}

fn co_repr(subs: &[Sub], i: usize) -> Repr {
    match &subs[i].kind {
        SubKind::Not(g) => repr(subs, *g),
        _ => Repr::Rel(subs[i].rbar.expect("non-Not has Rbar"), subs[i].fv.clone()),
    }
}

/// Emits `repr`'s pattern into a CQ body under a φ-var → CQ-var map.
/// Equality reprs become `=` constraints (the enclosing body must bind
/// the variables positively).
fn emit(cq: &mut Cq, r: &Repr, map: &BTreeMap<VarId, VarId>) {
    let tr = |t: &Term| match t {
        Term::Var(v) => Term::Var(map[v]),
        c => *c,
    };
    match r {
        Repr::RealAtom(a) => {
            cq.atoms.push(Atom::new(a.rel, a.args.iter().map(tr).collect()));
        }
        Repr::RealEq(a, b) => {
            cq.eqs.push((tr(a), tr(b)));
        }
        Repr::Rel(rel, fv) => {
            cq.atoms.push(Atom::new(*rel, fv.iter().map(|v| Term::Var(map[v])).collect()));
        }
    }
}

/// The same pattern as an FO literal (for ψ).
fn repr_fo(r: &Repr, map: &BTreeMap<VarId, VarId>) -> Fo {
    let tr = |t: &Term| match t {
        Term::Var(v) => Term::Var(map[v]),
        c => *c,
    };
    match r {
        Repr::RealAtom(a) => Fo::Atom(Atom::new(a.rel, a.args.iter().map(tr).collect())),
        Repr::RealEq(a, b) => Fo::Eq(tr(a), tr(b)),
        Repr::Rel(rel, fv) => {
            Fo::Atom(Atom::new(*rel, fv.iter().map(|v| Term::Var(map[v])).collect()))
        }
    }
}

/// A UCQ returning the active domain of a schema.
fn adom_ucq(schema: &Schema) -> Ucq {
    let mut disjuncts = Vec::new();
    for (rel, decl) in schema.iter() {
        for pos in 0..decl.arity {
            let mut cq = Cq::new(schema);
            let x = cq.var("x");
            let args: Vec<Term> = (0..decl.arity)
                .map(|p| if p == pos { Term::Var(x) } else { Term::Var(cq.var(&format!("u{p}"))) })
                .collect();
            cq.head = vec![Term::Var(x)];
            cq.atoms.push(Atom::new(rel, args));
            disjuncts.push(cq);
        }
    }
    Ucq::new(disjuncts)
}

/// Standalone disjuncts computing a repr over its free variables (used in
/// "full" views, where the repr must be safe on its own). Equality reprs
/// are realized via active-domain binding.
fn repr_standalone(schema: &Schema, r: &Repr, fv: &[VarId]) -> Vec<Cq> {
    match r {
        Repr::RealAtom(_) | Repr::Rel(..) => {
            let mut cq = Cq::new(schema);
            let map: BTreeMap<VarId, VarId> =
                fv.iter().map(|&v| (v, cq.var(&format!("v{}", v.0)))).collect();
            cq.head = fv.iter().map(|v| Term::Var(map[v])).collect();
            emit(&mut cq, r, &map);
            vec![cq]
        }
        Repr::RealEq(a, b) => {
            // Head = fv (at most two distinct vars); bind them via the
            // active domain and constrain equality.
            adom_ucq(schema)
                .disjuncts
                .into_iter()
                .map(|mut cq| {
                    // cq: head [x]; duplicate to the fv arity and add the
                    // equality pattern.
                    let x = cq.head[0];
                    match (a, b) {
                        (Term::Var(_), Term::Var(_)) => {
                            if fv.len() == 1 {
                                cq.head = vec![x];
                            } else {
                                cq.head = vec![x, x];
                            }
                        }
                        (Term::Var(_), Term::Const(c)) | (Term::Const(c), Term::Var(_)) => {
                            cq.head = vec![x];
                            cq.add_eq(x, Term::Const(*c));
                        }
                        (Term::Const(c1), Term::Const(c2)) => {
                            cq.head = Vec::new();
                            cq.add_eq(Term::Const(*c1), Term::Const(*c2));
                        }
                    }
                    cq
                })
                .collect()
        }
    }
}

/// Builds the Theorem 5.4 construction for `phi` over
/// `τ' = τ ∪ extra` with designated output relation `t_name ∈ extra`.
///
/// `tau` lists the *base* relations (the input of the implicitly defined
/// query); `phi.schema` must equal `τ'` with `τ` as a prefix.
pub fn theorem_5_4(tau: &Schema, phi: &FoQuery, t_name: &str) -> GimpConstruction {
    assert!(phi.is_boolean(), "φ(T, S̄) is a sentence");
    let tau_prime = phi.schema.clone();
    for (rel, decl) in tau.iter() {
        assert_eq!(tau_prime.decl(rel), decl, "τ must be a prefix of φ's schema");
    }
    let t_rel = tau_prime.rel(t_name);
    assert!(t_rel.idx() >= tau.len(), "T must not be a base relation");

    let normalized = normalize(&phi.formula);
    let mut subs: Vec<Sub> = Vec::new();
    let mut memo = HashMap::new();
    let root = index_subs(&normalized, &mut subs, &mut memo);

    // Allocate σ symbols.
    let mut extra: Vec<(String, usize)> = Vec::new();
    let mut next = tau_prime.len();
    for (i, sub) in subs.iter_mut().enumerate() {
        let arity = sub.fv.len();
        match sub.kind {
            SubKind::Not(_) => {}
            SubKind::Atom(_) | SubKind::Eq(..) => {
                extra.push((format!("Rbar{i}"), arity));
                sub.rbar = Some(RelId(next as u32));
                next += 1;
            }
            SubKind::And(..) | SubKind::Exists(..) => {
                extra.push((format!("Rsub{i}"), arity));
                sub.r = Some(RelId(next as u32));
                next += 1;
                extra.push((format!("Rbar{i}"), arity));
                sub.rbar = Some(RelId(next as u32));
                next += 1;
            }
        }
    }
    let tau_pp = tau_prime.extend(extra);

    // ---- Views --------------------------------------------------------
    let mut defs: Vec<(String, QueryExpr)> = Vec::new();
    // Identity views on τ.
    for (rel, decl) in tau.iter() {
        let mut cq = Cq::new(&tau_pp);
        let vars: Vec<_> = (0..decl.arity).map(|p| cq.var(&format!("x{p}"))).collect();
        cq.head = vars.iter().map(|&v| Term::Var(v)).collect();
        cq.atoms.push(Atom::new(rel, vars.iter().map(|&v| Term::Var(v)).collect()));
        defs.push((format!("Vid_{}", tau.name(rel)), QueryExpr::Cq(cq)));
    }
    // Active domain.
    defs.push(("Vdom".to_owned(), QueryExpr::Ucq(adom_ucq(&tau_pp))));

    // Per-subformula structural views.
    for (i, sub) in subs.iter().enumerate() {
        if matches!(sub.kind, SubKind::Not(_)) {
            continue;
        }
        let node_repr = repr(&subs, i);
        let node_co = co_repr(&subs, i);
        // Complement pair (1): repr ∧ co = ∅; repr ∨ co = adom^k.
        {
            let mut cq = Cq::new(&tau_pp);
            let map: BTreeMap<VarId, VarId> =
                sub.fv.iter().map(|&v| (v, cq.var(&format!("v{}", v.0)))).collect();
            cq.head = sub.fv.iter().map(|v| Term::Var(map[v])).collect();
            emit(&mut cq, &node_co, &map);
            emit(&mut cq, &node_repr, &map);
            defs.push((format!("Vzero{i}"), QueryExpr::Cq(cq)));

            let mut disjuncts = repr_standalone(&tau_pp, &node_repr, &sub.fv);
            disjuncts.extend(repr_standalone(&tau_pp, &node_co, &sub.fv));
            defs.push((format!("Vfull{i}"), QueryExpr::Ucq(Ucq::new(disjuncts))));
        }
        // Structural conditions (2)/(3) for composite nodes.
        match &sub.kind {
            SubKind::And(g1, g2) => {
                let r1 = repr(&subs, *g1);
                let r2 = repr(&subs, *g2);
                let c1 = co_repr(&subs, *g1);
                let c2 = co_repr(&subs, *g2);
                // a: repr(g1) ∧ repr(g2) ∧ co(θ) = ∅.
                let make = |parts: Vec<&Repr>| -> Cq {
                    let mut cq = Cq::new(&tau_pp);
                    let mut all_vars: Vec<VarId> = sub.fv.clone();
                    for g in [*g1, *g2] {
                        for v in &subs[g].fv {
                            if !all_vars.contains(v) {
                                all_vars.push(*v);
                            }
                        }
                    }
                    let map: BTreeMap<VarId, VarId> =
                        all_vars.iter().map(|&v| (v, cq.var(&format!("v{}", v.0)))).collect();
                    cq.head = sub.fv.iter().map(|v| Term::Var(map[v])).collect();
                    for p in parts {
                        emit(&mut cq, p, &map);
                    }
                    cq
                };
                defs.push((format!("Vand_a{i}"), QueryExpr::Cq(make(vec![&r1, &r2, &node_co]))));
                defs.push((format!("Vand_b{i}"), QueryExpr::Cq(make(vec![&node_repr, &c1]))));
                defs.push((format!("Vand_c{i}"), QueryExpr::Cq(make(vec![&node_repr, &c2]))));
            }
            SubKind::Exists(x, g1) => {
                let r1 = repr(&subs, *g1);
                // a: repr(g1)(x, ȳ) ∧ co(θ)(ȳ) = ∅ (x projected out).
                let mut cq = Cq::new(&tau_pp);
                let mut map: BTreeMap<VarId, VarId> =
                    sub.fv.iter().map(|&v| (v, cq.var(&format!("v{}", v.0)))).collect();
                let fresh_x = cq.var("ex");
                map.insert(*x, fresh_x);
                cq.head = sub.fv.iter().map(|v| Term::Var(map[v])).collect();
                emit(&mut cq, &r1, &map);
                emit(&mut cq, &node_co, &map);
                defs.push((format!("Vex_a{i}"), QueryExpr::Cq(cq)));
                // b: (∃x repr(g1)) ∨ co(θ) = adom^k.
                let mut proj = Cq::new(&tau_pp);
                let mut pmap: BTreeMap<VarId, VarId> =
                    sub.fv.iter().map(|&v| (v, proj.var(&format!("v{}", v.0)))).collect();
                let px = proj.var("ex");
                pmap.insert(*x, px);
                proj.head = sub.fv.iter().map(|v| Term::Var(pmap[v])).collect();
                emit(&mut proj, &r1, &pmap);
                assert!(proj.is_safe(), "∃x over a bare equality is not supported; rewrite φ");
                let mut disjuncts = vec![proj];
                disjuncts.extend(repr_standalone(&tau_pp, &node_co, &sub.fv));
                defs.push((format!("Vex_b{i}"), QueryExpr::Ucq(Ucq::new(disjuncts))));
            }
            _ => {}
        }
    }
    // Root value.
    {
        let root_repr = repr(&subs, root);
        let mut cq = Cq::new(&tau_pp);
        cq.head = Vec::new();
        emit(&mut cq, &root_repr, &BTreeMap::new());
        defs.push(("Vphi".to_owned(), QueryExpr::Cq(cq)));
    }
    let views = ViewSet::new(&tau_pp, defs);

    // ---- ψ and Q ------------------------------------------------------
    let mut pool = VarPool::new();
    // Reserve φ's variables so the rebased formula can reuse them.
    for name in &phi.var_names {
        pool.var(name);
    }
    let mut psi_parts: Vec<Fo> = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        if matches!(sub.kind, SubKind::Not(_)) {
            continue;
        }
        let fresh: Vec<VarId> = sub.fv.iter().map(|v| pool.var(&format!("s{i}_{}", v.0))).collect();
        let map: BTreeMap<VarId, VarId> =
            sub.fv.iter().copied().zip(fresh.iter().copied()).collect();
        let here = repr_fo(&repr(&subs, i), &map);
        let co_here = repr_fo(&co_repr(&subs, i), &map);
        // R̄ is the complement of R.
        psi_parts.push(Fo::forall(fresh.clone(), Fo::iff(co_here, Fo::not(here.clone()))));
        // Structural definition of R for composite nodes.
        match &sub.kind {
            SubKind::And(g1, g2) => {
                // fv(g1) ∪ fv(g2) = fv(And node), so `map` already covers
                // the children.
                let body =
                    Fo::and([repr_fo(&repr(&subs, *g1), &map), repr_fo(&repr(&subs, *g2), &map)]);
                psi_parts.push(Fo::forall(fresh.clone(), Fo::iff(here, body)));
            }
            SubKind::Exists(x, g1) => {
                let mut full_map = map.clone();
                let fx = pool.var(&format!("s{i}_ex"));
                full_map.insert(*x, fx);
                let body = Fo::exists(vec![fx], repr_fo(&repr(&subs, *g1), &full_map));
                psi_parts.push(Fo::forall(fresh.clone(), Fo::iff(here, body)));
            }
            _ => {}
        }
    }
    let t_arity = tau_pp.arity(t_rel);
    let head_vars: Vec<VarId> = (0..t_arity).map(|k| pool.var(&format!("out{k}"))).collect();
    let q_formula = Fo::and([
        Fo::and(psi_parts),
        normalized.clone(),
        Fo::Atom(Atom::new(t_rel, head_vars.iter().map(|&v| Term::Var(v)).collect())),
    ]);
    let query = FoQuery::new(&tau_pp, head_vars, q_formula, pool.into_names());

    GimpConstruction {
        tau: tau.clone(),
        tau_prime,
        tau_pp,
        t_rel,
        views,
        query,
        phi: normalized,
        subs,
    }
}

impl GimpConstruction {
    /// Completes a `τ'`-instance to a `τ''`-instance by computing every
    /// subformula relation semantically (`R_θ = θ(D)`,
    /// `R̄_θ = adom^k ∖ R_θ`).
    pub fn complete(&self, base: &Instance) -> Instance {
        assert_eq!(base.schema(), &self.tau_prime, "complete() takes a τ'-instance");
        let mut out = Instance::empty(&self.tau_pp);
        for (rel, r) in base.iter() {
            for t in r.iter() {
                out.insert(rel, t.clone());
            }
        }
        let adom: Vec<Value> = base.adom().into_iter().collect();
        for (i, sub) in self.subs.iter().enumerate() {
            let _ = i;
            if matches!(sub.kind, SubKind::Not(_)) {
                continue;
            }
            // Evaluate the subformula on the base instance.
            let sub_fo = self.sub_formula(i);
            let q = FoQuery::new(&self.tau_prime, sub.fv.clone(), sub_fo, Vec::new());
            let rows = eval_fo(&q, base);
            if let Some(r_rel) = sub.r {
                for t in rows.iter() {
                    out.insert(r_rel, t.clone());
                }
            }
            if let Some(rbar_rel) = sub.rbar {
                let full = vqd_instance::Relation::full(sub.fv.len(), &adom);
                for t in full.difference(&rows).iter() {
                    out.insert(rbar_rel, t.clone());
                }
            }
            // Atomic nodes have no R (the atom itself is the repr); their
            // R̄ was just filled.
            if sub.r.is_none() && !matches!(sub.kind, SubKind::Atom(_) | SubKind::Eq(..)) {
                unreachable!("composite nodes have R");
            }
        }
        out
    }

    /// Reconstructs the i-th subformula as an `Fo` over `τ'`.
    fn sub_formula(&self, i: usize) -> Fo {
        match &self.subs[i].kind {
            SubKind::Atom(a) => Fo::Atom(a.clone()),
            SubKind::Eq(a, b) => Fo::Eq(*a, *b),
            SubKind::Not(g) => Fo::not(self.sub_formula(*g)),
            SubKind::And(g1, g2) => Fo::and([self.sub_formula(*g1), self.sub_formula(*g2)]),
            SubKind::Exists(x, g) => Fo::exists(vec![*x], self.sub_formula(*g)),
        }
    }

    /// Number of subformula nodes (diagnostics).
    pub fn num_subformulas(&self) -> usize {
        self.subs.len()
    }
}
