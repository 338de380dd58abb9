//! Instance enumeration and random generation.
//!
//! The finite-determinacy machinery needs to quantify over *all* instances
//! with a bounded active domain ("for all `D₁, D₂ ∈ I(σ)` with
//! `adom ⊆ {c0..c(n-1)}` …"). [`InstanceEnumerator`] streams exactly that
//! space; [`space_size`] reports its cardinality so callers can refuse
//! infeasible sweeps up front instead of spinning forever; and
//! [`random_instance`] samples it for randomized counterexample search.

use crate::instance::Instance;
use crate::schema::Schema;
use crate::value::{named, Value};
use rand::Rng;

/// The standard bounded domain `{c0, …, c(n-1)}`.
pub fn domain(n: usize) -> Vec<Value> {
    (0..n as u32).map(named).collect()
}

/// Number of instances over `schema` with values drawn from a domain of
/// size `n`: `∏_R 2^(n^arity(R))`. Returns `None` on overflow (search is
/// certainly infeasible then).
pub fn space_size(schema: &Schema, n: usize) -> Option<u128> {
    let mut total: u128 = 1;
    for (_, d) in schema.iter() {
        let cells = (n as u128).checked_pow(d.arity as u32)?;
        if cells >= 127 {
            return None;
        }
        total = total.checked_mul(1u128 << cells)?;
    }
    Some(total)
}

/// Streams every instance over `schema` whose values come from
/// `{c0..c(n-1)}`, in a fixed deterministic order (empty instance first).
///
/// Each relation is treated as a bitset over the `n^arity` possible tuples
/// (in lexicographic tuple order), and the enumerator counts through the
/// product space like an odometer.
pub struct InstanceEnumerator {
    schema: Schema,
    /// All possible tuples per relation, lexicographic.
    universe: Vec<Vec<Vec<Value>>>,
    /// Current bitmask per relation; `None` once exhausted.
    masks: Option<Vec<u128>>,
}

impl InstanceEnumerator {
    /// Creates an enumerator; `panics` if any relation has more than 127
    /// possible tuples (use [`space_size`] to pre-check feasibility).
    pub fn new(schema: &Schema, n: usize) -> Self {
        let dom = domain(n);
        let universe: Vec<Vec<Vec<Value>>> =
            schema.iter().map(|(_, d)| all_tuples(&dom, d.arity)).collect();
        for u in &universe {
            assert!(u.len() < 127, "relation tuple universe too large to enumerate");
        }
        InstanceEnumerator {
            schema: schema.clone(),
            masks: Some(vec![0; universe.len()]),
            universe,
        }
    }

    fn materialize(&self, masks: &[u128]) -> Instance {
        let mut inst = Instance::empty(&self.schema);
        for (rel, _) in self.schema.iter() {
            let u = &self.universe[rel.idx()];
            let m = masks[rel.idx()];
            for (i, t) in u.iter().enumerate() {
                if m & (1u128 << i) != 0 {
                    inst.insert(rel, t.clone());
                }
            }
        }
        inst
    }
}

impl Iterator for InstanceEnumerator {
    type Item = Instance;

    fn next(&mut self) -> Option<Instance> {
        let masks = self.masks.clone()?;
        let inst = self.materialize(&masks);
        // Advance the odometer.
        let mut masks = masks;
        let mut pos = 0;
        loop {
            if pos == masks.len() {
                self.masks = None;
                return Some(inst);
            }
            let limit = 1u128 << self.universe[pos].len();
            masks[pos] += 1;
            if masks[pos] < limit {
                break;
            }
            masks[pos] = 0;
            pos += 1;
        }
        self.masks = Some(masks);
        Some(inst)
    }
}

/// Decodes the `idx`-th instance (in [`InstanceEnumerator`] order) of the
/// space over `schema` with domain `{c0..c(n-1)}` — the enumeration's
/// random-access form, which lets callers split the space into ranges for
/// parallel scans.
///
/// # Panics
/// Panics if `idx ≥ space_size(schema, n)` or the space size overflows.
pub fn instance_at(schema: &Schema, n: usize, idx: u128) -> Instance {
    let total = space_size(schema, n).expect("space size overflow");
    assert!(idx < total, "instance index out of range");
    let dom = domain(n);
    let mut inst = Instance::empty(schema);
    let mut rest = idx;
    for (rel, d) in schema.iter() {
        let tuples = all_tuples(&dom, d.arity);
        let cells = tuples.len() as u32;
        let size: u128 = 1u128 << cells;
        let mask = rest % size;
        rest /= size;
        for (i, t) in tuples.iter().enumerate() {
            if mask & (1u128 << i) != 0 {
                inst.insert(rel, t.clone());
            }
        }
    }
    inst
}

/// All tuples over `dom` of the given arity, lexicographic.
pub fn all_tuples(dom: &[Value], arity: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(arity);
    fn rec(dom: &[Value], arity: usize, current: &mut Vec<Value>, out: &mut Vec<Vec<Value>>) {
        if current.len() == arity {
            out.push(current.clone());
            return;
        }
        for &v in dom {
            current.push(v);
            rec(dom, arity, current, out);
            current.pop();
        }
    }
    rec(dom, arity, &mut current, &mut out);
    out
}

/// Samples an instance over `schema` with values from `{c0..c(n-1)}`: each
/// potential tuple is included independently with probability `density`.
pub fn random_instance(schema: &Schema, n: usize, density: f64, rng: &mut impl Rng) -> Instance {
    let dom = domain(n);
    let mut inst = Instance::empty(schema);
    for (rel, d) in schema.iter() {
        if d.arity == 0 {
            if rng.gen_bool(density) {
                inst.rel_mut(rel).set_truth(true);
            }
            continue;
        }
        for t in all_tuples(&dom, d.arity) {
            if rng.gen_bool(density) {
                inst.insert(rel, t);
            }
        }
    }
    inst
}

/// Samples a random *extension pair* `D ⊆ D'` — used by monotonicity
/// probes. Returns `(smaller, larger)`.
pub fn random_subinstance_pair(
    schema: &Schema,
    n: usize,
    density: f64,
    rng: &mut impl Rng,
) -> (Instance, Instance) {
    let larger = random_instance(schema, n, density, rng);
    let mut smaller = Instance::empty(schema);
    for (rel, _) in schema.iter() {
        for t in larger.rel(rel).iter() {
            if rng.gen_bool(0.5) {
                smaller.insert(rel, t.clone());
            }
        }
    }
    (smaller, larger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn space_size_matches_enumeration() {
        let s = Schema::new([("R", 2), ("P", 1)]);
        let n = 2;
        let size = space_size(&s, n).unwrap();
        assert_eq!(size, (1u128 << 4) * (1u128 << 2));
        let count = InstanceEnumerator::new(&s, n).count();
        assert_eq!(count as u128, size);
    }

    #[test]
    fn enumeration_starts_empty_and_is_distinct() {
        let s = Schema::new([("P", 1)]);
        let all: Vec<Instance> = InstanceEnumerator::new(&s, 2).collect();
        assert_eq!(all.len(), 4);
        assert!(all[0].is_empty());
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn space_size_overflow_returns_none() {
        let s = Schema::new([("T", 3)]);
        assert!(space_size(&s, 6).is_none()); // 6^3 = 216 cells ≥ 127
        assert!(space_size(&s, 5).is_some()); // 5^3 = 125 cells < 127
    }

    #[test]
    fn all_tuples_lexicographic() {
        let dom = domain(2);
        let ts = all_tuples(&dom, 2);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0], vec![named(0), named(0)]);
        assert_eq!(ts[3], vec![named(1), named(1)]);
        assert_eq!(all_tuples(&dom, 0), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn random_instance_respects_density_extremes() {
        let s = Schema::new([("R", 2), ("p", 0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let empty = random_instance(&s, 3, 0.0, &mut rng);
        assert!(empty.is_empty());
        let full = random_instance(&s, 3, 1.0, &mut rng);
        assert_eq!(full.rel_named("R").len(), 9);
        assert!(full.rel_named("p").truth());
    }

    #[test]
    fn random_subinstance_pair_is_ordered() {
        let s = Schema::new([("R", 2)]);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let (small, large) = random_subinstance_pair(&s, 3, 0.5, &mut rng);
            assert!(small.is_subinstance_of(&large));
        }
    }

    #[test]
    fn enumerator_zero_domain() {
        let s = Schema::new([("R", 2)]);
        // Domain of size 0: only the empty instance.
        let all: Vec<_> = InstanceEnumerator::new(&s, 0).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn instance_at_matches_enumeration_order() {
        let s = Schema::new([("R", 2), ("P", 1)]);
        let n = 2;
        for (i, d) in InstanceEnumerator::new(&s, n).enumerate() {
            assert_eq!(instance_at(&s, n, i as u128), d, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_at_bounds_checked() {
        let s = Schema::new([("P", 1)]);
        instance_at(&s, 1, 2);
    }

    #[test]
    fn enumerator_propositions() {
        let s = Schema::new([("p", 0), ("q", 0)]);
        let all: Vec<_> = InstanceEnumerator::new(&s, 1).collect();
        assert_eq!(all.len(), 4); // each proposition true/false
    }
}
