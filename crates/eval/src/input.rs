//! One evaluation entry point per operation, not two.
//!
//! Every evaluator — [`eval_cq`](crate::eval_cq),
//! [`eval_ucq`](crate::eval_ucq), [`eval_query`](crate::eval_query),
//! [`apply_views`](crate::apply_views), [`instance_hom`](crate::instance_hom)
//! — is one generic function over [`EvalInput`]: pass `&Instance` and an
//! index is built for the call, pass `&IndexedInstance` (or
//! `&Arc<IndexedInstance>`, the form the server's cross-request cache
//! hands out) and it is borrowed as-is.
//!
//! [`IndexCow`] is the clone-on-build return type that makes this
//! zero-cost on the borrowed path: no `Arc` bump, no index copy — just a
//! reference with the owned fallback folded into the same enum.

use std::ops::Deref;
use std::sync::Arc;
use vqd_instance::{IndexedInstance, Instance};

/// A borrowed-or-built index over an instance (see [`EvalInput::index`]).
pub enum IndexCow<'a> {
    /// The caller already holds an index; evaluation borrows it.
    Borrowed(&'a IndexedInstance),
    /// The caller passed a bare instance; this index was built for the
    /// call and is dropped when evaluation returns.
    Owned(IndexedInstance),
}

impl Deref for IndexCow<'_> {
    type Target = IndexedInstance;

    fn deref(&self) -> &IndexedInstance {
        match self {
            IndexCow::Borrowed(idx) => idx,
            IndexCow::Owned(idx) => idx,
        }
    }
}

/// Anything an evaluator can run against: a bare [`Instance`] (an index
/// is built per call), a prebuilt [`IndexedInstance`], or a shared
/// [`Arc<IndexedInstance>`] handed out by a cache.
pub trait EvalInput {
    /// The index to evaluate against — borrowed when one already exists,
    /// freshly built (counting [`Metric::IndexBuilds`]) otherwise.
    ///
    /// [`Metric::IndexBuilds`]: vqd_obs::Metric::IndexBuilds
    fn index(&self) -> IndexCow<'_>;

    /// The underlying instance, never building an index — the entry
    /// point for evaluators that scan rather than probe (the FO arm).
    fn instance(&self) -> &Instance;
}

impl EvalInput for Instance {
    fn index(&self) -> IndexCow<'_> {
        IndexCow::Owned(IndexedInstance::from_instance(self))
    }

    fn instance(&self) -> &Instance {
        self
    }
}

impl EvalInput for IndexedInstance {
    fn index(&self) -> IndexCow<'_> {
        IndexCow::Borrowed(self)
    }

    fn instance(&self) -> &Instance {
        IndexedInstance::instance(self)
    }
}

impl<T: EvalInput + ?Sized> EvalInput for Box<T> {
    fn index(&self) -> IndexCow<'_> {
        (**self).index()
    }

    fn instance(&self) -> &Instance {
        (**self).instance()
    }
}

impl EvalInput for Arc<IndexedInstance> {
    fn index(&self) -> IndexCow<'_> {
        IndexCow::Borrowed(self)
    }

    fn instance(&self) -> &Instance {
        IndexedInstance::instance(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_instance::{named, Schema};
    use vqd_obs::{local_snapshot, Metric};

    #[test]
    fn instance_builds_but_index_borrows() {
        let s = Schema::new([("E", 2)]);
        let mut d = Instance::empty(&s);
        d.insert_named("E", vec![named(0), named(1)]);

        let before = local_snapshot();
        let cow = d.index();
        assert!(matches!(cow, IndexCow::Owned(_)));
        let built = local_snapshot().diff(&before).get(Metric::IndexBuilds);
        assert_eq!(built, 1, "a bare instance pays one build");

        let idx = IndexedInstance::from_instance(&d);
        let before = local_snapshot();
        assert!(matches!(idx.index(), IndexCow::Borrowed(_)));
        let shared = Arc::new(idx);
        assert!(matches!(shared.index(), IndexCow::Borrowed(_)));
        let built = local_snapshot().diff(&before).get(Metric::IndexBuilds);
        assert_eq!(built, 0, "prebuilt inputs must not rebuild");
        assert_eq!(shared.index().instance().rel_named("E").len(), 1);
    }
}
