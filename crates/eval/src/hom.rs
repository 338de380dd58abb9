//! The homomorphism engine.
//!
//! Homomorphisms are the paper's (and classical database theory's) central
//! tool: a tuple `c̄ ∈ Q(D)` iff there is a homomorphism from the frozen
//! body `[Q]` to `D` mapping the head to `c̄` (Section 3); CQ containment
//! is a homomorphism test (Chandra–Merlin \[9\]); the chase correctness
//! lemmas (3.4, Proposition 3.6) are all homomorphism statements.
//!
//! The engine is a backtracking search over the atoms of a pattern. Two
//! atom-selection strategies are provided — a DESIGN.md ablation point:
//!
//! * [`Ordering::MostConstrained`] (default): at every step, extend the
//!   partial assignment through the unmatched atom with the fewest
//!   candidate tuples under the current assignment;
//! * [`Ordering::Static`]: process atoms in the order given.
//!
//! Candidate tuples come from an [`IndexedInstance`]: per relation, per
//! column, a value → tuple-list map, so a partially bound atom scans only
//! the tuples agreeing on its most selective bound column. The index is
//! owned and incrementally maintained by `vqd-instance`, so callers that
//! evaluate many patterns over one instance (view application,
//! containment, the Datalog saturator) build it once and thread it
//! through instead of rebuilding per call.

use crate::input::EvalInput;
use std::collections::BTreeMap;
use vqd_instance::{IndexedInstance, Instance, Value};
use vqd_obs::Metric;
use vqd_query::{Atom, Term, VarId};

/// Atom-selection strategy for the backtracking search.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ordering {
    /// Always pick the unmatched atom with the fewest candidates.
    #[default]
    MostConstrained,
    /// Process atoms left to right.
    Static,
}

/// A partial variable assignment.
pub type Assignment = BTreeMap<VarId, Value>;

/// The variable binding a search hands to its callback: one slot per
/// [`VarId`] the pattern or the `fixed` assignment mentions.
///
/// The search binds and unbinds slots in place, so extending the
/// assignment by one candidate tuple costs no allocation. Callbacks read
/// it through [`get`](Self::get); [`to_assignment`](Self::to_assignment)
/// copies it out when a match must outlive the callback.
#[derive(Clone, Debug)]
pub struct Binding {
    slots: Vec<Option<Value>>,
}

impl Binding {
    fn new(atoms: &[Atom], fixed: &Assignment) -> Binding {
        let vars = atoms.iter().flat_map(Atom::vars);
        let width = vars.chain(fixed.keys().copied()).map(|v| v.idx() + 1).max().unwrap_or(0);
        let mut slots = vec![None; width];
        for (v, &val) in fixed {
            slots[v.idx()] = Some(val);
        }
        Binding { slots }
    }

    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.slots.get(v.idx()).copied().flatten()
    }

    /// The value `t` denotes under this binding: a constant itself, a
    /// variable its bound value.
    #[inline]
    pub fn resolve(&self, t: Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(c),
            Term::Var(v) => self.get(v),
        }
    }

    /// Copies the bound variables out as an [`Assignment`].
    pub fn to_assignment(&self) -> Assignment {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|val| (VarId(i as u32), val)))
            .collect()
    }
}

/// One backtracking search: the flat binding, its undo trail, and the
/// engine counters, which are tallied locally and flushed once when the
/// search ends.
struct Search<'a, F> {
    atoms: &'a [Atom],
    index: &'a IndexedInstance,
    ordering: Ordering,
    used: Vec<bool>,
    binding: Binding,
    /// Variables bound by the extensions currently on the stack, in
    /// binding order; a search level undoes its own suffix.
    trail: Vec<VarId>,
    candidates: u64,
    backtracks: u64,
    prune_hits: u64,
    f: F,
}

impl<'a, F: FnMut(&Binding) -> bool> Search<'a, F> {
    fn new(
        atoms: &'a [Atom],
        index: &'a IndexedInstance,
        fixed: &Assignment,
        ordering: Ordering,
        f: F,
    ) -> Self {
        let binding = Binding::new(atoms, fixed);
        Search {
            atoms,
            index,
            ordering,
            used: vec![false; atoms.len()],
            trail: Vec::with_capacity(binding.slots.len()),
            binding,
            candidates: 0,
            backtracks: 0,
            prune_hits: 0,
            f,
        }
    }

    /// The candidate list for `atom` under the current binding: the
    /// shortest posting list of a bound column (`Some`) when one is
    /// strictly shorter than the relation, else the full scan (`None`),
    /// plus its length.
    fn candidates_for(&self, atom: &Atom) -> (Option<&'a [u32]>, usize) {
        let index = self.index;
        let mut best = None;
        let mut best_len = index.scan(atom.rel).len();
        for (c, &t) in atom.args.iter().enumerate() {
            if let Some(v) = self.binding.resolve(t) {
                let probe = index.probe(atom.rel, c, v);
                if probe.len() < best_len {
                    best = Some(probe);
                    best_len = probe.len();
                }
            }
        }
        (best, best_len)
    }

    /// Picks the next atom and its candidate list in one probe pass.
    fn pick(&self) -> Option<(usize, Option<&'a [u32]>, usize)> {
        let mut unused = self.used.iter().enumerate().filter(|(_, u)| !**u).map(|(i, _)| i);
        match self.ordering {
            Ordering::Static => unused.next().map(|i| {
                let (list, len) = self.candidates_for(&self.atoms[i]);
                (i, list, len)
            }),
            Ordering::MostConstrained => {
                let mut best: Option<(usize, Option<&'a [u32]>, usize)> = None;
                for i in unused {
                    let (list, len) = self.candidates_for(&self.atoms[i]);
                    if best.is_none_or(|(_, _, c)| len < c) {
                        best = Some((i, list, len));
                    }
                }
                best
            }
        }
    }

    /// Extends the binding so `atom` matches `tuple`, pushing newly bound
    /// variables on the trail; on a clash, undoes its own bindings and
    /// returns `false`.
    fn try_match(&mut self, atom: &Atom, tuple: &[Value]) -> bool {
        let mark = self.trail.len();
        for (&term, &val) in atom.args.iter().zip(tuple.iter()) {
            let ok = match term {
                Term::Const(c) => c == val,
                Term::Var(v) => match self.binding.slots[v.idx()] {
                    Some(existing) => existing == val,
                    None => {
                        self.binding.slots[v.idx()] = Some(val);
                        self.trail.push(v);
                        true
                    }
                },
            };
            if !ok {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.binding.slots[v.idx()] = None;
        }
    }

    /// Explores the subtrees rooted at candidates `start, start + step, …`
    /// of the next atom. Returns `false` iff the callback stopped the
    /// enumeration.
    fn descend(&mut self, start: usize, step: usize) -> bool {
        let Some((i, list, len)) = self.pick() else {
            return (self.f)(&self.binding);
        };
        if list.is_some() {
            // A posting list beat the full scan: the index pruned the
            // candidate space for this extension.
            self.prune_hits += 1;
        }
        let (atoms, index) = (self.atoms, self.index);
        let atom = &atoms[i];
        self.used[i] = true;
        // Root-level sharding strides the candidate positions before any
        // per-candidate accounting, so the shards' HomCandidatesTried
        // counts sum exactly to sequential.
        for pos in (start..len).step_by(step) {
            let id = list.map_or(pos as u32, |ids| ids[pos]);
            self.candidates += 1;
            let mark = self.trail.len();
            if self.try_match(atom, index.tuple(atom.rel, id)) {
                let go_on = self.descend(0, 1);
                self.undo(mark);
                if !go_on {
                    self.used[i] = false;
                    return false;
                }
            } else {
                self.backtracks += 1;
            }
        }
        // This atom's candidates are exhausted: backtrack to the caller.
        self.backtracks += 1;
        self.used[i] = false;
        true
    }

    fn run(mut self, start: usize, step: usize) -> bool {
        let completed = self.descend(start, step);
        vqd_obs::count(Metric::HomCandidatesTried, self.candidates);
        vqd_obs::count(Metric::HomBacktracks, self.backtracks);
        vqd_obs::count(Metric::HomPruneHits, self.prune_hits);
        completed
    }
}

/// Enumerates homomorphisms from `atoms` into the indexed instance that
/// extend `fixed`, invoking `f` on each complete binding. `f` returns
/// `false` to stop the enumeration early; the function returns `false` iff
/// it was stopped.
pub fn for_each_hom(
    atoms: &[Atom],
    index: &IndexedInstance,
    fixed: &Assignment,
    ordering: Ordering,
    f: impl FnMut(&Binding) -> bool,
) -> bool {
    Search::new(atoms, index, fixed, ordering, f).run(0, 1)
}

/// [`for_each_hom`] over one stride of the root candidate list: shard
/// `shard` of `shards` explores exactly the subtrees rooted at
/// candidates `shard, shard + shards, shard + 2·shards, …` of the root
/// atom (the atom the ordering picks first, which depends only on the
/// pattern, index, and `fixed` — so every shard agrees on it).
///
/// The strides partition the search space: running all `shards` shards
/// enumerates exactly the homomorphisms [`for_each_hom`] does (in a
/// shard-interleaved order), and per-subtree work — including the
/// [`Metric::HomCandidatesTried`] counts — is identical to sequential.
/// The empty pattern's single identity homomorphism is assigned to
/// shard 0.
pub fn for_each_hom_sharded(
    atoms: &[Atom],
    index: &IndexedInstance,
    fixed: &Assignment,
    ordering: Ordering,
    shard: usize,
    shards: usize,
    f: impl FnMut(&Binding) -> bool,
) -> bool {
    assert!(shards >= 1 && shard < shards, "shard {shard} of {shards} is out of range");
    if atoms.is_empty() && shard != 0 {
        // No root atom to stride over: the identity hom belongs to
        // exactly one shard.
        return true;
    }
    Search::new(atoms, index, fixed, ordering, f).run(shard, shards)
}

/// Finds one homomorphism extending `fixed`, if any.
pub fn find_hom(
    atoms: &[Atom],
    index: &IndexedInstance,
    fixed: &Assignment,
) -> Option<Assignment> {
    let mut found = None;
    for_each_hom(atoms, index, fixed, Ordering::MostConstrained, |b| {
        found = Some(b.to_assignment());
        false
    });
    found
}

/// Convenience: is there a homomorphism from `atoms` into `instance`
/// extending `fixed`? Builds a throwaway index; callers with more than
/// one test against the same instance should build an [`IndexedInstance`]
/// once and use [`find_hom`] directly.
pub fn hom_exists(atoms: &[Atom], instance: &Instance, fixed: &Assignment) -> bool {
    let index = IndexedInstance::from_instance(instance);
    find_hom(atoms, &index, fixed).is_some()
}

/// Finds a homomorphism between *instances*: a value map over `adom(src)`
/// that is the identity on `fix` and maps every tuple of `src` into `tgt`.
///
/// This is the form Lemma 3.4 and Proposition 3.6 speak about. Internally
/// the source instance is viewed as a pattern whose nulls (and all values
/// not in `fix`) act as variables. The target is any [`EvalInput`]: pass
/// a prebuilt [`IndexedInstance`] when several sources are tested against
/// one target, a bare [`Instance`] otherwise.
pub fn instance_hom<I: EvalInput + ?Sized>(
    src: &Instance,
    tgt: &I,
    fix: &[Value],
) -> Option<BTreeMap<Value, Value>> {
    let index = tgt.index();
    let tgt: &IndexedInstance = &index;
    assert_eq!(
        src.schema(),
        tgt.instance().schema(),
        "instance_hom requires matching schemas"
    );
    // Build a pattern: each non-fixed value becomes a variable.
    let mut var_of: BTreeMap<Value, VarId> = BTreeMap::new();
    let mut atoms = Vec::new();
    for (rel, r) in src.iter() {
        for t in r.iter() {
            let args: Vec<Term> = t
                .iter()
                .map(|&v| {
                    if fix.contains(&v) {
                        Term::Const(v)
                    } else {
                        let next = VarId(var_of.len() as u32);
                        Term::Var(*var_of.entry(v).or_insert(next))
                    }
                })
                .collect();
            atoms.push(Atom::new(rel, args));
        }
    }
    let asg = find_hom(&atoms, tgt, &Assignment::new())?;
    let mut out: BTreeMap<Value, Value> = fix.iter().map(|&v| (v, v)).collect();
    for (value, var) in var_of {
        out.insert(value, asg[&var]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, Schema};
    use vqd_query::Cq;

    fn graph(edges: &[(u32, u32)]) -> Instance {
        let s = Schema::new([("E", 2)]);
        let mut d = Instance::empty(&s);
        for &(a, b) in edges {
            d.insert_named("E", vec![named(a), named(b)]);
        }
        d
    }

    fn path_pattern(s: &Schema, len: usize) -> (Cq, Vec<VarId>) {
        let mut q = Cq::new(s);
        let vars: Vec<VarId> = (0..=len).map(|i| q.var(&format!("x{i}"))).collect();
        for i in 0..len {
            q.atom("E", vec![vars[i].into(), vars[i + 1].into()]);
        }
        (q, vars)
    }

    #[test]
    fn finds_path_in_cycle() {
        let d = graph(&[(0, 1), (1, 2), (2, 0)]);
        let (q, _) = path_pattern(d.schema(), 5);
        assert!(hom_exists(&q.atoms, &d, &Assignment::new()));
    }

    #[test]
    fn no_hom_into_smaller_structure() {
        // A triangle has no homomorphism into a single directed edge
        // (no self-loops).
        let tri_schema = Schema::new([("E", 2)]);
        let mut tri = Cq::new(&tri_schema);
        let a = tri.var("a");
        let b = tri.var("b");
        let c = tri.var("c");
        tri.atom("E", vec![a.into(), b.into()]);
        tri.atom("E", vec![b.into(), c.into()]);
        tri.atom("E", vec![c.into(), a.into()]);
        let edge = graph(&[(0, 1)]);
        assert!(!hom_exists(&tri.atoms, &edge, &Assignment::new()));
        // But it maps into a self-loop.
        let looped = graph(&[(7, 7)]);
        assert!(hom_exists(&tri.atoms, &looped, &Assignment::new()));
    }

    #[test]
    fn fixed_assignments_restrict() {
        let d = graph(&[(0, 1), (2, 3)]);
        let (q, vars) = path_pattern(d.schema(), 1);
        let index = IndexedInstance::from_instance(&d);
        let mut fixed = Assignment::new();
        fixed.insert(vars[0], named(0));
        let h = find_hom(&q.atoms, &index, &fixed).expect("hom");
        assert_eq!(h[&vars[1]], named(1));
        fixed.insert(vars[0], named(1));
        assert!(find_hom(&q.atoms, &index, &fixed).is_none());
    }

    #[test]
    fn constants_in_atoms_must_match() {
        let d = graph(&[(0, 1)]);
        let s = d.schema().clone();
        let mut q = Cq::new(&s);
        let y = q.var("y");
        q.atom("E", vec![Term::Const(named(0)), y.into()]);
        assert!(hom_exists(&q.atoms, &d, &Assignment::new()));
        let mut q2 = Cq::new(&s);
        let y2 = q2.var("y");
        q2.atom("E", vec![Term::Const(named(5)), y2.into()]);
        assert!(!hom_exists(&q2.atoms, &d, &Assignment::new()));
    }

    #[test]
    fn enumeration_counts_matches() {
        // Patterns E(x,y): one match per edge.
        let d = graph(&[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let (q, _) = path_pattern(d.schema(), 1);
        let mut count = 0;
        for_each_hom(
            &q.atoms,
            &IndexedInstance::from_instance(&d),
            &Assignment::new(),
            Ordering::MostConstrained,
            |_| {
                count += 1;
                true
            },
        );
        assert_eq!(count, 4);
    }

    #[test]
    fn both_orderings_agree() {
        let d = graph(&[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let (q, _) = path_pattern(d.schema(), 3);
        let index = IndexedInstance::from_instance(&d);
        let mut c1 = 0;
        let mut c2 = 0;
        for_each_hom(&q.atoms, &index, &Assignment::new(), Ordering::MostConstrained, |_| {
            c1 += 1;
            true
        });
        for_each_hom(&q.atoms, &index, &Assignment::new(), Ordering::Static, |_| {
            c2 += 1;
            true
        });
        assert_eq!(c1, c2);
        assert!(c1 > 0);
    }

    #[test]
    fn early_stop_works() {
        let d = graph(&[(0, 1), (1, 2)]);
        let (q, _) = path_pattern(d.schema(), 1);
        let mut count = 0;
        let completed = for_each_hom(
            &q.atoms,
            &IndexedInstance::from_instance(&d),
            &Assignment::new(),
            Ordering::MostConstrained,
            |_| {
                count += 1;
                false
            },
        );
        assert!(!completed);
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_pattern_has_exactly_identity_hom() {
        let d = graph(&[(0, 1)]);
        let mut count = 0;
        for_each_hom(
            &[],
            &IndexedInstance::from_instance(&d),
            &Assignment::new(),
            Ordering::MostConstrained,
            |asg| {
                assert!(asg.to_assignment().is_empty());
                count += 1;
                true
            },
        );
        assert_eq!(count, 1);
    }

    #[test]
    fn instance_hom_with_fixpoints() {
        use vqd_instance::null;
        // src: edge (c0, _n0); tgt: edge (c0, c1). Fixing c0 forces
        // _n0 -> c1.
        let s = Schema::new([("E", 2)]);
        let mut src = Instance::empty(&s);
        src.insert_named("E", vec![named(0), null(0)]);
        let tgt = graph(&[(0, 1)]);
        let h = instance_hom(&src, &tgt, &[named(0)]).expect("hom");
        assert_eq!(h[&null(0)], named(1));
        assert_eq!(h[&named(0)], named(0));
        // With nothing fixed, (c0 -> c0) is forced anyway here because c0
        // is treated as a variable but must land somewhere consistent.
        assert!(instance_hom(&src, &tgt, &[]).is_some());
        // No hom if target lacks edges from c0 and c0 is fixed.
        let tgt2 = graph(&[(1, 2)]);
        assert!(instance_hom(&src, &tgt2, &[named(0)]).is_none());
    }

    #[test]
    fn search_works_against_maintained_index() {
        // Insert incrementally (arena order differs from sorted order) and
        // check the search still enumerates the same homomorphism set.
        let s = Schema::new([("E", 2)]);
        let mut idx = IndexedInstance::empty(&s);
        for (a, b) in [(2, 0), (0, 1), (1, 2), (0, 2)] {
            idx.insert_named("E", vec![named(a), named(b)]);
        }
        let (q, _) = path_pattern(idx.instance().schema(), 2);
        let mut maintained = 0;
        for_each_hom(&q.atoms, &idx, &Assignment::new(), Ordering::MostConstrained, |_| {
            maintained += 1;
            true
        });
        let fresh_idx = IndexedInstance::from_instance(idx.instance());
        let mut fresh = 0;
        for_each_hom(&q.atoms, &fresh_idx, &Assignment::new(), Ordering::MostConstrained, |_| {
            fresh += 1;
            true
        });
        assert_eq!(maintained, fresh);
        assert!(maintained > 0);
    }

    #[test]
    fn shards_partition_the_hom_space_exactly() {
        use std::collections::BTreeSet;
        let d = graph(&[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 2)]);
        let (q, _) = path_pattern(d.schema(), 3);
        let index = IndexedInstance::from_instance(&d);
        let mut sequential = BTreeSet::new();
        for_each_hom(&q.atoms, &index, &Assignment::new(), Ordering::MostConstrained, |asg| {
            sequential.insert(asg.to_assignment());
            true
        });
        for shards in [1usize, 2, 3, 4, 7] {
            let mut merged = BTreeSet::new();
            let mut total = 0usize;
            for shard in 0..shards {
                for_each_hom_sharded(
                    &q.atoms,
                    &index,
                    &Assignment::new(),
                    Ordering::MostConstrained,
                    shard,
                    shards,
                    |asg| {
                        merged.insert(asg.to_assignment());
                        total += 1;
                        true
                    },
                );
            }
            assert_eq!(merged, sequential, "{shards} shards");
            // Disjoint: no hom visited by two shards.
            assert_eq!(total, sequential.len(), "{shards} shards");
        }
    }

    #[test]
    fn empty_pattern_shards_emit_one_identity_hom_total() {
        let d = graph(&[(0, 1)]);
        let index = IndexedInstance::from_instance(&d);
        let mut count = 0;
        for shard in 0..4 {
            for_each_hom_sharded(
                &[],
                &index,
                &Assignment::new(),
                Ordering::MostConstrained,
                shard,
                4,
                |_| {
                    count += 1;
                    true
                },
            );
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let s = Schema::new([("E", 2)]);
        let mut q = Cq::new(&s);
        let x = q.var("x");
        q.atom("E", vec![x.into(), x.into()]);
        let no_loop = graph(&[(0, 1), (1, 0)]);
        assert!(!hom_exists(&q.atoms, &no_loop, &Assignment::new()));
        let with_loop = graph(&[(0, 1), (1, 1)]);
        assert!(hom_exists(&q.atoms, &with_loop, &Assignment::new()));
    }
}
