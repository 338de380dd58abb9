//! Isomorphism, automorphism and canonical forms.
//!
//! Queries are *generic*: they commute with isomorphisms of **dom**
//! (Section 2). Several checks in this reproduction need that machinery
//! concretely:
//!
//! * Proposition 4.3(ii): every automorphism of `V(D)` must be an
//!   automorphism of `Q(D)` when `V ↠ Q` — we machine-check this.
//! * The brute-force semantic determinacy checker canonicalizes view images
//!   to shrink its search space.
//!
//! Canonicalization relabels the active domain to `c0..c(n-1)` and picks the
//! lexicographically least relabeled instance among all relabelings that
//! respect an isomorphism-invariant partition of the values (a 1-WL-style
//! colour refinement). Restricting to partition-respecting relabelings is
//! sound: the partition is computed from isomorphism-invariant signatures,
//! so isomorphic instances induce matching partitions and the minima agree.

use crate::instance::Instance;
use crate::value::Value;
use std::collections::BTreeMap;

/// Calls `f` with every permutation of `items` (Heap's algorithm).
///
/// Returns early (propagating `false`) if `f` returns `false`.
pub fn for_each_permutation<T: Clone>(items: &[T], mut f: impl FnMut(&[T]) -> bool) -> bool {
    let mut a = items.to_vec();
    let n = a.len();
    if n == 0 {
        return f(&a);
    }
    let mut c = vec![0usize; n];
    if !f(&a) {
        return false;
    }
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            if !f(&a) {
                return false;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    true
}

/// Isomorphism-invariant signature of each active-domain value.
///
/// Starts from the positional incidence profile (how many tuples of each
/// relation hold the value at each position) and refines it `rounds` times
/// with the sorted multiset of co-occurring signatures — a light-weight
/// colour refinement.
pub fn value_signatures(d: &Instance, rounds: usize) -> BTreeMap<Value, Vec<u64>> {
    let adom = d.adom_vec();
    let mut sig: BTreeMap<Value, Vec<u64>> = adom.iter().map(|&v| (v, vec![0])).collect();

    // Round 0: positional incidence counts.
    for (rel, r) in d.iter() {
        for t in r.iter() {
            for (pos, &v) in t.iter().enumerate() {
                let s = sig.get_mut(&v).expect("adom value");
                // Fold (rel, pos) into a running profile. Using a vector of
                // counts keyed by a stable (rel,pos) code keeps this exact.
                let code = ((rel.0 as u64) << 16) | pos as u64;
                s.push(code);
            }
        }
    }
    for s in sig.values_mut() {
        s.sort_unstable();
    }

    // Refinement rounds: append, for each value, the sorted multiset of
    // hashes of the signatures of values it shares a tuple with.
    for _ in 0..rounds {
        let hashed: BTreeMap<Value, u64> = sig.iter().map(|(&v, s)| (v, fnv(s))).collect();
        let mut next = sig.clone();
        for (_, r) in d.iter() {
            for t in r.iter() {
                for &v in t {
                    let entry = next.get_mut(&v).expect("adom value");
                    let mut neigh: Vec<u64> = t.iter().map(|w| hashed[w]).collect();
                    neigh.sort_unstable();
                    entry.extend(neigh);
                }
            }
        }
        for s in next.values_mut() {
            s.sort_unstable();
        }
        sig = next;
    }
    sig
}

fn fnv(xs: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// The canonical form of `d`: relabels `adom(d)` to `c0..c(n-1)` choosing
/// the lexicographically least result among partition-respecting
/// relabelings. Two instances are isomorphic iff their canonical forms are
/// equal.
///
/// # Panics
/// Panics if a signature class has more than `10` values (the within-class
/// search is factorial; callers working with larger instances should use
/// [`are_isomorphic`] directly or redesign).
pub fn canonical_form(d: &Instance) -> Instance {
    let sigs = value_signatures(d, 2);
    // Group values by signature; order groups by signature (canonical).
    let mut groups: BTreeMap<&Vec<u64>, Vec<Value>> = BTreeMap::new();
    for (v, s) in &sigs {
        groups.entry(s).or_default().push(*v);
    }
    let groups: Vec<Vec<Value>> = groups.into_values().collect();

    // Assign position ranges per group, then minimize over within-group
    // permutations (product search with early best-so-far pruning by full
    // comparison — groups are small after refinement).
    let mut base = 0u32;
    let mut best: Option<Instance> = None;
    search_groups(d, &groups, 0, &mut BTreeMap::new(), &mut base, &mut best);
    best.expect("at least the identity assignment exists")
}

fn search_groups(
    d: &Instance,
    groups: &[Vec<Value>],
    gi: usize,
    assignment: &mut BTreeMap<Value, Value>,
    next_pos: &mut u32,
    best: &mut Option<Instance>,
) {
    if gi == groups.len() {
        let candidate = d.map_values(assignment);
        if best.as_ref().is_none_or(|b| candidate < *b) {
            *best = Some(candidate);
        }
        return;
    }
    let group = &groups[gi];
    assert!(
        group.len() <= 10,
        "canonical_form: signature class of size {} is too large",
        group.len()
    );
    let start = *next_pos;
    for_each_permutation(group, |perm| {
        for (i, &v) in perm.iter().enumerate() {
            assignment.insert(v, Value::Named(start + i as u32));
        }
        let mut pos = start + group.len() as u32;
        let saved = pos;
        search_groups(d, groups, gi + 1, assignment, &mut pos, best);
        debug_assert_eq!(pos, saved);
        true
    });
    *next_pos = start;
}

/// Finds an isomorphism `adom(d1) → adom(d2)` carrying `d1` onto `d2`, if
/// one exists, via signature-pruned backtracking.
pub fn are_isomorphic(d1: &Instance, d2: &Instance) -> Option<BTreeMap<Value, Value>> {
    if d1.schema() != d2.schema() {
        return None;
    }
    let a1 = d1.adom_vec();
    let a2 = d2.adom_vec();
    if a1.len() != a2.len() {
        return None;
    }
    if d1.iter().zip(d2.iter()).any(|((_, r1), (_, r2))| r1.len() != r2.len()) {
        return None;
    }
    let s1 = value_signatures(d1, 2);
    let s2 = value_signatures(d2, 2);
    let mut assignment: BTreeMap<Value, Value> = BTreeMap::new();
    let mut used: Vec<bool> = vec![false; a2.len()];
    if backtrack_iso(d1, d2, &a1, &a2, &s1, &s2, 0, &mut assignment, &mut used) {
        Some(assignment)
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn backtrack_iso(
    d1: &Instance,
    d2: &Instance,
    a1: &[Value],
    a2: &[Value],
    s1: &BTreeMap<Value, Vec<u64>>,
    s2: &BTreeMap<Value, Vec<u64>>,
    i: usize,
    assignment: &mut BTreeMap<Value, Value>,
    used: &mut [bool],
) -> bool {
    if i == a1.len() {
        return &d1.map_values(assignment) == d2;
    }
    let v = a1[i];
    for (j, &w) in a2.iter().enumerate() {
        if used[j] || s1[&v] != s2[&w] {
            continue;
        }
        assignment.insert(v, w);
        used[j] = true;
        if backtrack_iso(d1, d2, a1, a2, s1, s2, i + 1, assignment, used) {
            return true;
        }
        used[j] = false;
        assignment.remove(&v);
    }
    false
}

/// All automorphisms of `d` (as value maps over `adom(d)`), identity
/// included.
///
/// # Panics
/// Panics if `|adom(d)| > 9` (factorial enumeration guard).
pub fn automorphisms(d: &Instance) -> Vec<BTreeMap<Value, Value>> {
    let adom = d.adom_vec();
    assert!(adom.len() <= 9, "automorphisms: adom too large ({})", adom.len());
    let mut out = Vec::new();
    for_each_permutation(&adom, |perm| {
        let map: BTreeMap<Value, Value> = adom.iter().copied().zip(perm.iter().copied()).collect();
        if &d.map_values(&map) == d {
            out.push(map);
        }
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::named;

    fn v(i: u32) -> Value {
        named(i)
    }

    fn edge_instance(edges: &[(u32, u32)]) -> Instance {
        let s = Schema::new([("E", 2)]);
        let mut d = Instance::empty(&s);
        for &(a, b) in edges {
            d.insert_named("E", vec![v(a), v(b)]);
        }
        d
    }

    #[test]
    fn permutations_count() {
        let mut n = 0;
        for_each_permutation(&[1, 2, 3, 4], |_| {
            n += 1;
            true
        });
        assert_eq!(n, 24);
    }

    #[test]
    fn permutations_early_exit() {
        let mut n = 0;
        let completed = for_each_permutation(&[1, 2, 3], |_| {
            n += 1;
            n < 2
        });
        assert!(!completed);
        assert_eq!(n, 2);
    }

    #[test]
    fn empty_permutation_still_visits_once() {
        let mut n = 0;
        for_each_permutation(&[] as &[u8], |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn canonical_form_identifies_isomorphic_graphs() {
        // A 3-cycle on {0,1,2} vs a 3-cycle on {5,7,9}.
        let d1 = edge_instance(&[(0, 1), (1, 2), (2, 0)]);
        let d2 = edge_instance(&[(5, 7), (7, 9), (9, 5)]);
        assert_eq!(canonical_form(&d1), canonical_form(&d2));
    }

    #[test]
    fn canonical_form_separates_nonisomorphic_graphs() {
        let cycle = edge_instance(&[(0, 1), (1, 2), (2, 0)]);
        let path = edge_instance(&[(0, 1), (1, 2), (2, 3)]);
        assert_ne!(canonical_form(&cycle), canonical_form(&path));
        // Same number of edges, different shape:
        let star = edge_instance(&[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(canonical_form(&path), canonical_form(&star));
    }

    #[test]
    fn are_isomorphic_finds_witness() {
        let d1 = edge_instance(&[(0, 1), (1, 2)]);
        let d2 = edge_instance(&[(4, 6), (6, 8)]);
        let iso = are_isomorphic(&d1, &d2).expect("isomorphic");
        assert_eq!(&d1.map_values(&iso), &d2);
        assert!(are_isomorphic(&d1, &edge_instance(&[(0, 1), (2, 1)])).is_none());
    }

    #[test]
    fn are_isomorphic_rejects_different_sizes() {
        let d1 = edge_instance(&[(0, 1)]);
        let d2 = edge_instance(&[(0, 1), (1, 2)]);
        assert!(are_isomorphic(&d1, &d2).is_none());
    }

    #[test]
    fn automorphisms_of_directed_cycle() {
        // Directed 3-cycle: rotation group of order 3.
        let d = edge_instance(&[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(automorphisms(&d).len(), 3);
        // Directed path: only the identity.
        let p = edge_instance(&[(0, 1), (1, 2)]);
        assert_eq!(automorphisms(&p).len(), 1);
    }

    #[test]
    fn signatures_distinguish_roles() {
        // In a directed path 0 -> 1 -> 2 all three values play different
        // roles.
        let d = edge_instance(&[(0, 1), (1, 2)]);
        let sigs = value_signatures(&d, 2);
        assert_ne!(sigs[&v(0)], sigs[&v(1)]);
        assert_ne!(sigs[&v(0)], sigs[&v(2)]);
        assert_ne!(sigs[&v(1)], sigs[&v(2)]);
    }

    #[test]
    fn canonical_form_uses_compact_names() {
        let d = edge_instance(&[(10, 20)]);
        let c = canonical_form(&d);
        let adom = c.adom_vec();
        assert_eq!(adom, vec![v(0), v(1)]);
    }
}
