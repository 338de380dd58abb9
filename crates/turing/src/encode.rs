//! FO encoding of halting computations (Theorem 5.1).
//!
//! Schema `σ_M = {R1/2, R2/2, leq/2, T/5, H/5}`:
//!
//! * `R1` — input graph, `R2` — output graph;
//! * `leq` — a (reflexive) total order over a padded domain `D ⊇ adom(R1)`
//!   with the graph nodes as initial elements;
//! * `T(t1,t2,c1,c2,s)` — at time *pair* `(t1,t2)`, tape cell *pair*
//!   `(c1,c2)` holds base symbol `s` (encoded as the element of rank `s`);
//! * `H(t1,t2,c1,c2,q)` — the head is on cell `(c1,c2)` in state `q`
//!   (rank-encoded).
//!
//! Times and cells are *pairs* of domain elements (the "standard
//! techniques" of the paper's proof sketch): `m` domain elements give
//! `m²` time steps and `m²` tape cells, enough for the `n²`-bit encoding
//! `enc_≤(R1)` plus an end marker. The paper folds the head position and
//! state into composite tape symbols; we keep them in the separate
//! relation `H` — informationally identical, but it keeps the domain size
//! at `max(#symbols, #states, n+1)` instead of `#symbols·(#states+1)`,
//! which matters because the E11 experiment *evaluates* `φ_M` with the
//! naive active-domain evaluator (see DESIGN.md, substitution table).
//!
//! The generated sentence `φ_M` pins the instance down completely: any
//! model with input graph `R1` has `T`/`H` equal to the genuine run of
//! `M` on `enc_≤(R1)` and `R2` equal to its decoded output.

use crate::machine::{
    simulate, Config, Move, SimError, Tm, NUM_SYMBOLS, SYM_B0, SYM_B1, SYM_BLANK, SYM_HASH,
};
use vqd_instance::{named, Instance, RelId, Schema};
use vqd_query::{Atom, Fo, FoQuery, Term, VarId, VarPool};

/// The Theorem 5.1 schema.
pub fn tm_schema() -> Schema {
    Schema::new([("R1", 2), ("R2", 2), ("leq", 2), ("T", 5), ("H", 5)])
}

/// Minimum padded-domain size for machine `tm` on `n`-node graphs.
pub fn min_domain(tm: &Tm, n: usize) -> usize {
    NUM_SYMBOLS.max(tm.states).max(n + 1)
}

/// Builds the instance encoding the run of `tm` on graph
/// `edges ⊆ {0..n}²`, over a padded domain of `m` elements.
///
/// # Panics
/// Panics if `m < min_domain`, if `n == 0`, or if some node `0..n` has no
/// incident edge (such nodes are invisible to `adom(R1)` and cannot be
/// encoded).
///
/// # Errors
/// Propagates simulator errors (machine ran out of the `m²` time/space
/// budget).
pub fn build_instance(
    tm: &Tm,
    n: usize,
    edges: &[(usize, usize)],
    m: usize,
) -> Result<Instance, SimError> {
    assert!(n >= 1, "need at least one node");
    assert!(m >= min_domain(tm, n), "domain too small: need ≥ {}", min_domain(tm, n));
    for node in 0..n {
        assert!(
            edges.iter().any(|&(u, v)| u == node || v == node),
            "node {node} is isolated — not representable in adom(R1)"
        );
    }
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge out of node range");
    }
    let cells = m * m;
    // Initial tape: bit ⟨u,v⟩ at cell u*m+v for node pairs; '#' at the
    // second-to-last cell; blank elsewhere.
    let mut tape = vec![SYM_BLANK; cells];
    for u in 0..n {
        for v in 0..n {
            tape[u * m + v] = if edges.contains(&(u, v)) { SYM_B1 } else { SYM_B0 };
        }
    }
    tape[cells - 2] = SYM_HASH;
    let trace = simulate(tm, tape, cells - 1)?;

    let s = tm_schema();
    let mut inst = Instance::empty(&s);
    for &(u, v) in edges {
        inst.insert_named("R1", vec![named(u as u32), named(v as u32)]);
    }
    for i in 0..m {
        for j in i..m {
            inst.insert_named("leq", vec![named(i as u32), named(j as u32)]);
        }
    }
    let pair = |k: usize| (named((k / m) as u32), named((k % m) as u32));
    for t in 0..cells {
        let cfg: &Config = &trace[t.min(trace.len() - 1)];
        let (t1, t2) = pair(t);
        for c in 0..cells {
            let (c1, c2) = pair(c);
            inst.insert_named("T", vec![t1, t2, c1, c2, named(cfg.tape[c] as u32)]);
        }
        let (h1, h2) = pair(cfg.head);
        inst.insert_named("H", vec![t1, t2, h1, h2, named(cfg.state as u32)]);
    }
    // Output graph from the final configuration.
    let last = trace.last().expect("non-empty trace");
    for u in 0..n {
        for v in 0..n {
            if last.tape[u * m + v] == SYM_B1 {
                inst.insert_named("R2", vec![named(u as u32), named(v as u32)]);
            }
        }
    }
    Ok(inst)
}

/// Formula-construction context.
struct Ctx {
    pool: VarPool,
    r1: RelId,
    r2: RelId,
    le: RelId,
    t: RelId,
    h: RelId,
}

impl Ctx {
    fn v(&mut self, stem: &str) -> VarId {
        self.pool.var(stem)
    }

    fn le(&self, x: VarId, y: VarId) -> Fo {
        Fo::Atom(Atom::new(self.le, vec![x.into(), y.into()]))
    }

    fn eq(&self, x: VarId, y: VarId) -> Fo {
        Fo::Eq(Term::Var(x), Term::Var(y))
    }

    fn lt(&self, x: VarId, y: VarId) -> Fo {
        Fo::and([self.le(x, y), Fo::not(self.eq(x, y))])
    }

    fn r1(&self, x: VarId, y: VarId) -> Fo {
        Fo::Atom(Atom::new(self.r1, vec![x.into(), y.into()]))
    }

    fn r2(&self, x: VarId, y: VarId) -> Fo {
        Fo::Atom(Atom::new(self.r2, vec![x.into(), y.into()]))
    }

    fn t_atom(&self, t: (VarId, VarId), c: (VarId, VarId), s: VarId) -> Fo {
        Fo::Atom(Atom::new(self.t, vec![t.0.into(), t.1.into(), c.0.into(), c.1.into(), s.into()]))
    }

    fn h_atom(&self, t: (VarId, VarId), c: (VarId, VarId), q: VarId) -> Fo {
        Fo::Atom(Atom::new(self.h, vec![t.0.into(), t.1.into(), c.0.into(), c.1.into(), q.into()]))
    }

    fn in_r1(&mut self, x: VarId) -> Fo {
        let u = self.v("u");
        Fo::exists(vec![u], Fo::or([self.r1(x, u), self.r1(u, x)]))
    }

    fn is_min(&mut self, x: VarId) -> Fo {
        let y = self.v("y");
        Fo::forall(vec![y], self.le(x, y))
    }

    fn is_max(&mut self, x: VarId) -> Fo {
        let y = self.v("y");
        Fo::forall(vec![y], self.le(y, x))
    }

    fn succ(&mut self, x: VarId, y: VarId) -> Fo {
        let z = self.v("z");
        Fo::and([
            self.lt(x, y),
            Fo::not(Fo::exists(vec![z], Fo::and([self.lt(x, z), self.lt(z, y)]))),
        ])
    }

    /// `x` is the element of rank `k` in the order.
    fn rank(&mut self, k: usize, x: VarId) -> Fo {
        if k == 0 {
            self.is_min(x)
        } else {
            let y = self.v("y");
            let prev = self.rank(k - 1, y);
            let sc = self.succ(y, x);
            Fo::exists(vec![y], Fo::and([prev, sc]))
        }
    }

    /// Lexicographic pair successor.
    fn pair_succ(&mut self, a: (VarId, VarId), b: (VarId, VarId)) -> Fo {
        let same_hi = Fo::and([self.eq(a.0, b.0), self.succ(a.1, b.1)]);
        let carry = Fo::and([self.succ(a.0, b.0), self.is_max(a.1), self.is_min(b.1)]);
        Fo::or([same_hi, carry])
    }

    fn pair_min(&mut self, a: (VarId, VarId)) -> Fo {
        Fo::and([self.is_min(a.0), self.is_min(a.1)])
    }

    fn pair_max(&mut self, a: (VarId, VarId)) -> Fo {
        Fo::and([self.is_max(a.0), self.is_max(a.1)])
    }

    /// The end-marker cell `(max, pred(max))`.
    fn hash_cell(&mut self, c: (VarId, VarId)) -> Fo {
        let w = self.v("w");
        let sc = self.succ(c.1, w);
        let mx = self.is_max(w);
        Fo::and([self.is_max(c.0), Fo::exists(vec![w], Fo::and([sc, mx]))])
    }

    /// `T(t, c, σ_k)`: the cell holds base symbol `k`.
    fn has_sym(&mut self, t: (VarId, VarId), c: (VarId, VarId), k: usize) -> Fo {
        let s = self.v("s");
        let rk = self.rank(k, s);
        let at = self.t_atom(t, c, s);
        Fo::exists(vec![s], Fo::and([rk, at]))
    }

    /// `H(t, c, state_q)`.
    fn head_at(&mut self, t: (VarId, VarId), c: (VarId, VarId), q: usize) -> Fo {
        let s = self.v("q");
        let rk = self.rank(q, s);
        let at = self.h_atom(t, c, s);
        Fo::exists(vec![s], Fo::and([rk, at]))
    }
}

/// Generates the sentence `φ_M` for machine `tm`.
pub fn phi_m(tm: &Tm) -> FoQuery {
    tm.validate();
    let schema = tm_schema();
    let mut cx = Ctx {
        pool: VarPool::new(),
        r1: schema.rel("R1"),
        r2: schema.rel("R2"),
        le: schema.rel("leq"),
        t: schema.rel("T"),
        h: schema.rel("H"),
    };
    let mut conjuncts: Vec<Fo> = Vec::new();

    // (1) leq is a reflexive total order.
    {
        let x = cx.v("x");
        conjuncts.push(Fo::forall(vec![x], cx.le(x, x)));
        let (x, y) = (cx.v("x"), cx.v("y"));
        conjuncts.push(Fo::forall(
            vec![x, y],
            Fo::implies(Fo::and([cx.le(x, y), cx.le(y, x)]), cx.eq(x, y)),
        ));
        let (x, y, z) = (cx.v("x"), cx.v("y"), cx.v("z"));
        conjuncts.push(Fo::forall(
            vec![x, y, z],
            Fo::implies(Fo::and([cx.le(x, y), cx.le(y, z)]), cx.le(x, z)),
        ));
        let (x, y) = (cx.v("x"), cx.v("y"));
        conjuncts.push(Fo::forall(vec![x, y], Fo::or([cx.le(x, y), cx.le(y, x)])));
    }

    // (2) adom(R1) forms an initial segment.
    {
        let (x, y) = (cx.v("x"), cx.v("y"));
        let inx = cx.in_r1(x);
        let iny = cx.in_r1(y);
        conjuncts
            .push(Fo::forall(vec![x, y], Fo::implies(Fo::and([inx, Fo::not(iny)]), cx.le(x, y))));
    }

    // (3) T is total and functional with base-symbol range; H exists, is
    // unique, and has state range.
    {
        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let s = cx.v("s");
        let range = Fo::or((0..NUM_SYMBOLS).map(|k| cx.rank(k, s)).collect::<Vec<_>>());
        let some_sym = Fo::exists(vec![s], Fo::and([cx.t_atom(t, c, s), range]));
        conjuncts.push(Fo::forall(vec![t.0, t.1, c.0, c.1], some_sym));

        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let (s1, s2) = (cx.v("s"), cx.v("s'"));
        conjuncts.push(Fo::forall(
            vec![t.0, t.1, c.0, c.1, s1, s2],
            Fo::implies(Fo::and([cx.t_atom(t, c, s1), cx.t_atom(t, c, s2)]), cx.eq(s1, s2)),
        ));

        // At least one head per time.
        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let q = cx.v("q");
        let qrange = Fo::or((0..tm.states).map(|k| cx.rank(k, q)).collect::<Vec<_>>());
        let some_head = Fo::exists(vec![c.0, c.1, q], Fo::and([cx.h_atom(t, c, q), qrange]));
        conjuncts.push(Fo::forall(vec![t.0, t.1], some_head));

        // At most one head per time.
        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let c2 = (cx.v("d1"), cx.v("d2"));
        let (q1, q2v) = (cx.v("q"), cx.v("q'"));
        conjuncts.push(Fo::forall(
            vec![t.0, t.1, c.0, c.1, c2.0, c2.1, q1, q2v],
            Fo::implies(
                Fo::and([cx.h_atom(t, c, q1), cx.h_atom(t, c2, q2v)]),
                Fo::and([cx.eq(c.0, c2.0), cx.eq(c.1, c2.1), cx.eq(q1, q2v)]),
            ),
        ));
    }

    // (4) Initial configuration at time (min, min).
    {
        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let tmin = cx.pair_min(t);
        let in1 = cx.in_r1(c.0);
        let in2 = cx.in_r1(c.1);
        let input_region = Fo::and([in1, in2]);
        let hash = cx.hash_cell(c);
        let bit1 = cx.has_sym(t, c, SYM_B1);
        let bit0 = cx.has_sym(t, c, SYM_B0);
        let hsym = cx.has_sym(t, c, SYM_HASH);
        let blank = cx.has_sym(t, c, SYM_BLANK);
        let body = Fo::and([
            Fo::implies(Fo::and([input_region.clone(), cx.r1(c.0, c.1)]), bit1),
            Fo::implies(Fo::and([input_region.clone(), Fo::not(cx.r1(c.0, c.1))]), bit0),
            Fo::implies(hash.clone(), hsym),
            Fo::implies(Fo::and([Fo::not(input_region), Fo::not(hash)]), blank),
        ]);
        conjuncts.push(Fo::forall(vec![t.0, t.1, c.0, c.1], Fo::implies(tmin, body)));

        // Head starts on cell (min,min) in state 0.
        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let tmin = cx.pair_min(t);
        let cmin = cx.pair_min(c);
        let h0 = cx.head_at(t, c, 0);
        conjuncts
            .push(Fo::forall(vec![t.0, t.1, c.0, c.1], Fo::implies(Fo::and([tmin, cmin]), h0)));
    }

    // (5) Transition rules, one per (state, symbol) with q ≠ accept.
    for q in 0..tm.states {
        if q == tm.accept {
            continue;
        }
        for a in 0..NUM_SYMBOLS {
            let (q2, b, mv) = tm.delta[q * NUM_SYMBOLS + a].expect("total delta");
            let t = (cx.v("t1"), cx.v("t2"));
            let tn = (cx.v("u1"), cx.v("u2"));
            let c = (cx.v("c1"), cx.v("c2"));
            let step = cx.pair_succ(t, tn);
            let head = cx.head_at(t, c, q);
            let read = cx.has_sym(t, c, a);
            let write = cx.has_sym(tn, c, b);
            let head_next = match mv {
                Move::S => cx.head_at(tn, c, q2),
                Move::R => {
                    let d = (cx.v("d1"), cx.v("d2"));
                    let adj = cx.pair_succ(c, d);
                    let hn = cx.head_at(tn, d, q2);
                    Fo::forall(vec![d.0, d.1], Fo::implies(adj, hn))
                }
                Move::L => {
                    let d = (cx.v("d1"), cx.v("d2"));
                    let adj = cx.pair_succ(d, c);
                    let hn = cx.head_at(tn, d, q2);
                    Fo::forall(vec![d.0, d.1], Fo::implies(adj, hn))
                }
            };
            conjuncts.push(Fo::forall(
                vec![t.0, t.1, tn.0, tn.1, c.0, c.1],
                Fo::implies(Fo::and([step, head, read]), Fo::and([write, head_next])),
            ));
        }
    }

    // (6) Non-head cells persist (while the machine is running).
    for q in 0..tm.states {
        if q == tm.accept {
            continue;
        }
        let t = (cx.v("t1"), cx.v("t2"));
        let tn = (cx.v("u1"), cx.v("u2"));
        let ch = (cx.v("h1"), cx.v("h2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let s = cx.v("s");
        let step = cx.pair_succ(t, tn);
        let head = cx.head_at(t, ch, q);
        let differs = Fo::not(Fo::and([cx.eq(c.0, ch.0), cx.eq(c.1, ch.1)]));
        let keep = Fo::implies(cx.t_atom(t, c, s), cx.t_atom(tn, c, s));
        conjuncts.push(Fo::forall(
            vec![t.0, t.1, tn.0, tn.1, ch.0, ch.1, c.0, c.1, s],
            Fo::implies(Fo::and([step, head, differs]), keep),
        ));
    }

    // (7) Halting persistence: once in the accept state, the whole
    // configuration (tape and head) is frozen.
    {
        let t = (cx.v("t1"), cx.v("t2"));
        let tn = (cx.v("u1"), cx.v("u2"));
        let ch = (cx.v("h1"), cx.v("h2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let s = cx.v("s");
        let step = cx.pair_succ(t, tn);
        let halted = cx.head_at(t, ch, tm.accept);
        let keep_t = Fo::implies(cx.t_atom(t, c, s), cx.t_atom(tn, c, s));
        conjuncts.push(Fo::forall(
            vec![t.0, t.1, tn.0, tn.1, ch.0, ch.1, c.0, c.1, s],
            Fo::implies(Fo::and([step.clone(), halted.clone()]), keep_t),
        ));
        let t = (cx.v("t1"), cx.v("t2"));
        let tn = (cx.v("u1"), cx.v("u2"));
        let ch = (cx.v("h1"), cx.v("h2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let q = cx.v("q");
        let step = cx.pair_succ(t, tn);
        let halted = cx.head_at(t, ch, tm.accept);
        let keep_h = Fo::implies(cx.h_atom(t, c, q), cx.h_atom(tn, c, q));
        conjuncts.push(Fo::forall(
            vec![t.0, t.1, tn.0, tn.1, ch.0, ch.1, c.0, c.1, q],
            Fo::implies(Fo::and([step, halted]), keep_h),
        ));
    }

    // (8) The machine has accepted by the last time step.
    {
        let t = (cx.v("t1"), cx.v("t2"));
        let c = (cx.v("c1"), cx.v("c2"));
        let tmax = cx.pair_max(t);
        let acc = cx.head_at(t, c, tm.accept);
        conjuncts
            .push(Fo::forall(vec![t.0, t.1], Fo::implies(tmax, Fo::exists(vec![c.0, c.1], acc))));
    }

    // (9) R2 is the decoded output.
    {
        let (u, v) = (cx.v("x"), cx.v("y"));
        let t = (cx.v("t1"), cx.v("t2"));
        let inu = cx.in_r1(u);
        let inv = cx.in_r1(v);
        let tmax = cx.pair_max(t);
        let bit1 = cx.has_sym(t, (u, v), SYM_B1);
        let final_bit = Fo::exists(vec![t.0, t.1], Fo::and([tmax, bit1]));
        conjuncts.push(Fo::forall(
            vec![u, v],
            Fo::and([
                Fo::implies(Fo::and([inu.clone(), inv.clone()]), Fo::iff(cx.r2(u, v), final_bit)),
                Fo::implies(Fo::not(Fo::and([inu, inv])), Fo::not(cx.r2(u, v))),
            ]),
        ));
    }

    FoQuery::new(&schema, Vec::new(), Fo::and(conjuncts), cx.pool.into_names())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_eval::eval_fo;

    #[test]
    fn schema_shape() {
        let s = tm_schema();
        assert_eq!(s.len(), 5);
        assert_eq!(s.arity(s.rel("T")), 5);
    }

    #[test]
    fn build_instance_identity_machine() {
        let tm = Tm::instant_accept();
        let inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
        // R2 = R1 for the identity machine.
        assert_eq!(inst.rel_named("R1"), inst.rel_named("R2"));
        // T covers all m² times × m² cells.
        assert_eq!(inst.rel_named("T").len(), 16 * 16);
        assert_eq!(inst.rel_named("H").len(), 16);
    }

    #[test]
    fn build_instance_complement_machine() {
        let tm = Tm::complement();
        let inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
        // Complement of {(0,1),(1,0)} over 2 nodes is {(0,0),(1,1)}.
        let r2 = inst.rel_named("R2");
        assert_eq!(r2.len(), 2);
        assert!(r2.contains(&[named(0), named(0)]));
        assert!(r2.contains(&[named(1), named(1)]));
    }

    #[test]
    fn phi_m_accepts_genuine_runs() {
        for tm in [Tm::instant_accept(), Tm::complement()] {
            let phi = phi_m(&tm);
            let inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
            assert!(
                eval_fo(&phi, &inst).truth(),
                "φ_M must hold on the genuine run of {}",
                tm.name
            );
        }
    }

    #[test]
    fn phi_m_rejects_corrupted_output() {
        let tm = Tm::instant_accept();
        let phi = phi_m(&tm);
        let mut inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
        // Flip an output edge: φ_M must notice the mismatch with T.
        inst.rel_mut(inst.schema().rel("R2")).remove(&[named(0), named(1)]);
        assert!(!eval_fo(&phi, &inst).truth());
    }

    #[test]
    fn phi_m_rejects_corrupted_tape() {
        let tm = Tm::instant_accept();
        let phi = phi_m(&tm);
        let mut inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
        // Corrupt one T fact at the initial time: initial-config violated.
        let trel = inst.schema().rel("T");
        inst.rel_mut(trel).remove(&[named(0), named(0), named(0), named(0), named(SYM_B0 as u32)]);
        inst.rel_mut(trel).insert(vec![
            named(0),
            named(0),
            named(0),
            named(0),
            named(SYM_B1 as u32),
        ]);
        assert!(!eval_fo(&phi, &inst).truth());
    }

    #[test]
    fn phi_m_rejects_broken_order() {
        let tm = Tm::instant_accept();
        let phi = phi_m(&tm);
        let mut inst = build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).unwrap();
        let le = inst.schema().rel("leq");
        inst.rel_mut(le).remove(&[named(0), named(3)]);
        assert!(!eval_fo(&phi, &inst).truth());
    }

    #[test]
    fn simulation_budget_errors_propagate() {
        // Domain 4 but a machine needing more steps than budget: the
        // complement machine needs exactly cells-1 steps, so it fits; an
        // artificial check: shrink the tape by giving n too close to m —
        // here instead verify OutOfTime surfaces with max_steps too small
        // at the machine level (covered in machine tests); at the encode
        // level, the budget always equals cells-1, so a genuine run fits.
        let tm = Tm::complement();
        assert!(build_instance(&tm, 2, &[(0, 1), (1, 0)], 4).is_ok());
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn isolated_nodes_rejected() {
        let tm = Tm::instant_accept();
        let _ = build_instance(&tm, 2, &[(0, 0)], 4);
    }
}
