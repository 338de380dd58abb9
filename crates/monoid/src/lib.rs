//! # vqd-monoid — finite monoidal functions and the word problem
//!
//! The substrate of Theorem 4.5. A function `f : X × X → X` is *monoidal*
//! when it is **complete** (total and onto) and **associative**; the paper
//! reduces the word problem for finite monoids — undecidable by Gurevich
//! \[19\] — to determinacy of UCQ views, via monoidal functions.
//!
//! Undecidability itself cannot be executed, but the *reduction* can be
//! machine-checked on the finite prefix of the monoid universe: this crate
//! enumerates every monoidal function up to a size bound (backtracking
//! with early associativity pruning) and decides bounded implication
//! `H ⊨ F` between equation sets, which the E4 experiment compares against
//! determinacy of the constructed views.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;

/// A total binary operation on `{0, …, n-1}` as a flat table.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OpTable {
    n: usize,
    table: Vec<usize>,
}

impl OpTable {
    /// Builds an operation table.
    ///
    /// # Panics
    /// Panics if `table.len() != n*n` or an entry is out of range.
    pub fn new(n: usize, table: Vec<usize>) -> Self {
        assert_eq!(table.len(), n * n, "table must have n² entries");
        assert!(table.iter().all(|&v| v < n), "table entry out of range");
        OpTable { n, table }
    }

    /// The carrier size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// `x ∘ y`.
    #[inline]
    pub fn apply(&self, x: usize, y: usize) -> usize {
        self.table[x * self.n + y]
    }

    /// Associativity: `(x∘y)∘z = x∘(y∘z)` for all triples.
    pub fn is_associative(&self) -> bool {
        for x in 0..self.n {
            for y in 0..self.n {
                let xy = self.apply(x, y);
                for z in 0..self.n {
                    if self.apply(xy, z) != self.apply(x, self.apply(y, z)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Onto: every element is some product.
    pub fn is_onto(&self) -> bool {
        let image: BTreeSet<usize> = self.table.iter().copied().collect();
        image.len() == self.n
    }

    /// Monoidal = total (by representation) + onto + associative.
    pub fn is_monoidal(&self) -> bool {
        self.is_onto() && self.is_associative()
    }

    /// Does the operation have a two-sided identity element?
    pub fn identity(&self) -> Option<usize> {
        (0..self.n).find(|&e| (0..self.n).all(|x| self.apply(e, x) == x && self.apply(x, e) == x))
    }

    /// The graph `{(x, y, x∘y)}` of the operation.
    pub fn graph(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(self.n * self.n);
        for x in 0..self.n {
            for y in 0..self.n {
                out.push((x, y, self.apply(x, y)));
            }
        }
        out
    }
}

impl fmt::Display for OpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for x in 0..self.n {
            for y in 0..self.n {
                if y > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.apply(x, y))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Enumerates every *monoidal* operation on `{0..n-1}`, invoking `f` on
/// each. Returns the number visited. `f` may return `false` to stop early.
///
/// Backtracking over the n² cells with incremental associativity checks:
/// a cell assignment is rejected as soon as it violates any associativity
/// instance whose three products are all determined.
pub fn for_each_monoidal(n: usize, mut f: impl FnMut(&OpTable) -> bool) -> usize {
    assert!(n >= 1, "carrier must be non-empty");
    let mut table: Vec<Option<usize>> = vec![None; n * n];
    let mut count = 0usize;
    fill(n, &mut table, 0, &mut count, &mut f);
    count
}

fn fill(
    n: usize,
    table: &mut Vec<Option<usize>>,
    cell: usize,
    count: &mut usize,
    f: &mut impl FnMut(&OpTable) -> bool,
) -> bool {
    if cell == n * n {
        let concrete = OpTable::new(n, table.iter().map(|v| v.expect("filled")).collect());
        if concrete.is_onto() {
            debug_assert!(concrete.is_associative());
            *count += 1;
            return f(&concrete);
        }
        return true;
    }
    for v in 0..n {
        table[cell] = Some(v);
        if assoc_consistent(n, table) && !fill(n, table, cell + 1, count, f) {
            table[cell] = None;
            return false;
        }
    }
    table[cell] = None;
    true
}

/// Checks every associativity instance whose relevant products are all
/// determined in the partial table.
fn assoc_consistent(n: usize, table: &[Option<usize>]) -> bool {
    let get = |x: usize, y: usize| table[x * n + y];
    for x in 0..n {
        for y in 0..n {
            let Some(xy) = get(x, y) else { continue };
            for z in 0..n {
                let (Some(yz), Some(xy_z)) = (get(y, z), get(xy, z)) else {
                    continue;
                };
                let Some(x_yz) = get(x, yz) else { continue };
                if xy_z != x_yz {
                    return false;
                }
            }
        }
    }
    true
}

/// A set of equations `x·y = z` over named symbols (Theorem 4.5's `H`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Equations {
    /// Symbol names; equation components index into this.
    pub symbols: Vec<String>,
    /// Equations `(x, y, z)` meaning `x·y = z`.
    pub eqs: Vec<(usize, usize, usize)>,
}

impl Equations {
    /// Empty equation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a symbol.
    pub fn sym(&mut self, name: &str) -> usize {
        if let Some(i) = self.symbols.iter().position(|s| s == name) {
            return i;
        }
        self.symbols.push(name.to_owned());
        self.symbols.len() - 1
    }

    /// Adds the equation `x·y = z` by symbol name.
    pub fn add(&mut self, x: &str, y: &str, z: &str) -> &mut Self {
        let (x, y, z) = (self.sym(x), self.sym(y), self.sym(z));
        self.eqs.push((x, y, z));
        self
    }

    /// Number of symbols.
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }
}

/// Enumerates assignments of the symbols of `h` into `{0..op.size()-1}`
/// satisfying all equations of `h`, invoking `f` per assignment. `f`
/// returns `false` to stop; the function returns `false` iff stopped.
///
/// Uses forward propagation: once `x` and `y` are assigned, `z` is forced.
pub fn for_each_satisfying_assignment(
    h: &Equations,
    op: &OpTable,
    mut f: impl FnMut(&[usize]) -> bool,
) -> bool {
    let k = h.num_symbols();
    let mut asg: Vec<Option<usize>> = vec![None; k];
    assign(h, op, &mut asg, &mut f)
}

fn assign(
    h: &Equations,
    op: &OpTable,
    asg: &mut Vec<Option<usize>>,
    f: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    // Propagate forced values first.
    let mut forced: Vec<usize> = Vec::new();
    loop {
        let mut progressed = false;
        for &(x, y, z) in &h.eqs {
            if let (Some(a), Some(b)) = (asg[x], asg[y]) {
                let v = op.apply(a, b);
                match asg[z] {
                    Some(existing) if existing != v => {
                        for &s in &forced {
                            asg[s] = None;
                        }
                        return true; // dead branch, keep searching
                    }
                    Some(_) => {}
                    None => {
                        asg[z] = Some(v);
                        forced.push(z);
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    // Branch on the next unassigned symbol.
    let next = (0..asg.len()).find(|&i| asg[i].is_none());
    let result = match next {
        None => {
            let full: Vec<usize> = asg.iter().map(|v| v.expect("assigned")).collect();
            f(&full)
        }
        Some(i) => {
            let mut ok = true;
            for v in 0..op.size() {
                asg[i] = Some(v);
                if !assign(h, op, asg, f) {
                    ok = false;
                    break;
                }
            }
            asg[i] = None;
            ok
        }
    };
    for &s in &forced {
        asg[s] = None;
    }
    result
}

/// A counterexample to `H ⊨ F`: a monoidal function and an assignment
/// satisfying `H` but not `F`.
#[derive(Clone, Debug)]
pub struct WordProblemCounterexample {
    /// The monoidal operation.
    pub op: OpTable,
    /// The symbol assignment.
    pub assignment: Vec<usize>,
}

/// Bounded word-problem check: does `H` imply `F = (x = y)` over every
/// monoidal function of size ≤ `max_n`? Returns the first counterexample
/// found, or `None` if the implication holds up to the bound.
///
/// The unbounded problem is undecidable \[19\]; the bound makes this a
/// semi-decision usable by the E4 experiment.
pub fn word_problem_counterexample(
    h: &Equations,
    f: (usize, usize),
    max_n: usize,
) -> Option<WordProblemCounterexample> {
    let mut found: Option<WordProblemCounterexample> = None;
    for n in 1..=max_n {
        for_each_monoidal(n, |op| {
            for_each_satisfying_assignment(h, op, |asg| {
                if asg[f.0] != asg[f.1] {
                    found = Some(WordProblemCounterexample {
                        op: op.clone(),
                        assignment: asg.to_vec(),
                    });
                    return false;
                }
                true
            })
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Convenience wrapper: `true` iff no counterexample up to the bound.
///
/// ```
/// use vqd_monoid::{implies_up_to, Equations};
///
/// // a·a = b and a·a = c force b = c (operations are single-valued)…
/// let mut h = Equations::new();
/// h.add("a", "a", "b").add("a", "a", "c");
/// let (b, c) = (h.sym("b"), h.sym("c"));
/// assert!(implies_up_to(&h, (b, c), 3));
///
/// // …but a·b = c, b·a = d do NOT force c = d (non-commutativity).
/// let mut h = Equations::new();
/// h.add("a", "b", "c").add("b", "a", "d");
/// let (c, d) = (h.sym("c"), h.sym("d"));
/// assert!(!implies_up_to(&h, (c, d), 2));
/// ```
pub fn implies_up_to(h: &Equations, f: (usize, usize), max_n: usize) -> bool {
    word_problem_counterexample(h, f, max_n).is_none()
}

/// Inflates a monoidal operation into a *pseudo-monoidal* relation by
/// splitting each element `e` into `copies` equivalent elements
/// `e*copies + j`: every product `x∘y = z` yields triples relating every
/// copy of `x` and `y` to every copy of `z`. The induced equivalence
/// (same quotient class) is a congruence and the quotient is the original
/// operation — exactly the structures of the equality-free variant of
/// Theorem 4.5.
pub fn inflate_pseudo_monoidal(op: &OpTable, copies: usize) -> Vec<(usize, usize, usize)> {
    assert!(copies >= 1);
    let mut out = Vec::new();
    for x in 0..op.size() {
        for y in 0..op.size() {
            let z = op.apply(x, y);
            for i in 0..copies {
                for j in 0..copies {
                    for k in 0..copies {
                        out.push((x * copies + i, y * copies + j, z * copies + k));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z2() -> OpTable {
        // Addition mod 2.
        OpTable::new(2, vec![0, 1, 1, 0])
    }

    #[test]
    fn z2_is_a_monoid() {
        let op = z2();
        assert!(op.is_associative());
        assert!(op.is_onto());
        assert!(op.is_monoidal());
        assert_eq!(op.identity(), Some(0));
    }

    #[test]
    fn non_associative_rejected() {
        let op = OpTable::new(2, vec![0, 1, 0, 0]);
        // (1∘0)∘1 = 0∘1 = 1; 1∘(0∘1) = 1∘1 = 0.
        assert!(!op.is_associative());
        assert!(!op.is_monoidal());
    }

    #[test]
    fn constant_function_is_not_onto() {
        let op = OpTable::new(2, vec![0, 0, 0, 0]);
        assert!(op.is_associative());
        assert!(!op.is_onto());
        assert!(!op.is_monoidal());
    }

    #[test]
    fn enumeration_counts_match_brute_force_size_2() {
        let mut brute = Vec::new();
        for a in 0..2usize {
            for b in 0..2usize {
                for c in 0..2usize {
                    for d in 0..2usize {
                        let op = OpTable::new(2, vec![a, b, c, d]);
                        if op.is_monoidal() {
                            brute.push(op);
                        }
                    }
                }
            }
        }
        assert_eq!(for_each_monoidal(1, |_| true), 1);
        assert_eq!(for_each_monoidal(2, |_| true), brute.len());
        assert!(!brute.is_empty());
    }

    #[test]
    fn enumeration_agrees_with_brute_force_size_3() {
        let mut brute = 0u32;
        let n = 3usize;
        let mut table = vec![0usize; 9];
        'outer: loop {
            let op = OpTable::new(n, table.clone());
            if op.is_monoidal() {
                brute += 1;
            }
            let mut i = 0;
            loop {
                if i == 9 {
                    break 'outer;
                }
                table[i] += 1;
                if table[i] < n {
                    break;
                }
                table[i] = 0;
                i += 1;
            }
        }
        let fast = for_each_monoidal(3, |_| true) as u32;
        assert_eq!(fast, brute);
        assert!(brute > 0);
    }

    #[test]
    fn enumerated_tables_are_monoidal() {
        for_each_monoidal(3, |op| {
            assert!(op.is_monoidal());
            true
        });
    }

    #[test]
    fn word_problem_commutativity_fails() {
        // H = {a·b = c, b·a = d}: c = d fails on a non-commutative
        // monoidal function (e.g. left projection x∘y = x).
        let mut h = Equations::new();
        h.add("a", "b", "c").add("b", "a", "d");
        let c = h.sym("c");
        let d = h.sym("d");
        let cex = word_problem_counterexample(&h, (c, d), 2).expect("non-commutative");
        assert!(cex.op.is_monoidal());
        let asg = &cex.assignment;
        assert_ne!(cex.op.apply(asg[0], asg[1]), cex.op.apply(asg[1], asg[0]));
    }

    #[test]
    fn word_problem_trivial_identity() {
        let mut h = Equations::new();
        h.add("a", "a", "a");
        let a = h.sym("a");
        assert!(implies_up_to(&h, (a, a), 3));
    }

    #[test]
    fn word_problem_forced_equality() {
        // Functions are single-valued: a·a = b and a·a = c force b = c.
        let mut h = Equations::new();
        h.add("a", "a", "b").add("a", "a", "c");
        let b = h.sym("b");
        let c = h.sym("c");
        assert!(implies_up_to(&h, (b, c), 3));
    }

    #[test]
    fn word_problem_nontrivial_failure() {
        // H = {a·b = a} does not imply b = a.
        let mut h = Equations::new();
        h.add("a", "b", "a");
        let a = h.sym("a");
        let b = h.sym("b");
        let cex = word_problem_counterexample(&h, (a, b), 2).expect("must fail");
        assert_ne!(cex.assignment[a], cex.assignment[b]);
    }

    #[test]
    fn satisfying_assignments_propagate() {
        let op = z2();
        let mut h = Equations::new();
        h.add("a", "a", "b"); // b forced to a+a = 0
        let mut seen = Vec::new();
        for_each_satisfying_assignment(&h, &op, |asg| {
            seen.push(asg.to_vec());
            true
        });
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|a| a[1] == 0));
    }

    #[test]
    fn inflate_produces_congruent_relation() {
        let op = z2();
        let r = inflate_pseudo_monoidal(&op, 2);
        assert_eq!(r.len(), 32);
        let mut quotient: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
        for (x, y, z) in r {
            quotient.insert((x / 2, y / 2, z / 2));
        }
        let graph: BTreeSet<_> = op.graph().into_iter().collect();
        assert_eq!(quotient, graph);
    }
}
