//! The four named workloads, their sizes, and the open-loop rung rates
//! and latency limits frozen from the seed commit's own measurements.

/// One named workload (see `BENCHMARK.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Short CPU-bound decide/rewrite requests drawn Zipf from 400 pairs.
    DecideMix,
    /// `certain_sound` by handle over four cached 2048-tuple extents.
    CertainHot,
    /// Puts, evicted handles and inline certain answers against a
    /// 24-entry cache with a disk tier, after a warm restore.
    CertainChurn,
    /// In-process engine calls on one thread, no server.
    EngineBatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::DecideMix,
        Workload::CertainHot,
        Workload::CertainChurn,
        Workload::EngineBatch,
    ];

    /// The workload's fixed name (`--workload`).
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideMix => "decide-mix",
            Workload::CertainHot => "certain-hot",
            Workload::CertainChurn => "certain-churn",
            Workload::EngineBatch => "engine-batch",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives a server over the wire.
    pub fn is_served(self) -> bool {
        self != Workload::EngineBatch
    }

    /// The latency limit `slo_rate_ops_s` holds each rung's p99 to: twice
    /// the seed commit's median nominal-rung `p99_ms` (at reference host
    /// speed), rounded up to a whole millisecond, frozen so later commits
    /// are held to the same limit. engine-batch has no rungs.
    pub fn limit_ms(self) -> Option<f64> {
        match self {
            Workload::DecideMix => Some(14.0),
            Workload::CertainHot => Some(42.0),
            Workload::CertainChurn => Some(50.0),
            Workload::EngineBatch => None,
        }
    }
}

/// The open-loop rungs: name and offered load as a share of the
/// closed-loop capacity measured in the same run.
pub const RUNGS: [(&str, f64); 3] = [("nominal", 0.4), ("peak", 0.7), ("max", 1.0)];

/// Input sizes: the full benchmark, or the tiny `--smoke` shape the
/// smoke test runs in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Distinct (views, query) pairs in the decide-mix pool.
    pub decide_pool: usize,
    /// Tuples per certain-hot extent.
    pub hot_tuples: usize,
    /// Distinct certain-churn extents.
    pub churn_extents: usize,
    /// Smallest and largest certain-churn extent.
    pub churn_tuples: (usize, usize),
    /// Tuples in the engine-batch certain-answer extent.
    pub batch_tuples: usize,
    /// Chain length of the engine-batch transitive closure.
    pub tc_nodes: u32,
    /// Requests replayed in process by the traced run.
    pub replay: usize,
    /// Set-ups measured per run (`setup_s` is their median).
    pub setups: usize,
}

impl Scale {
    /// The benchmark as specified.
    pub const FULL: Scale = Scale {
        decide_pool: 400,
        hot_tuples: 2048,
        churn_extents: 96,
        churn_tuples: (256, 1024),
        batch_tuples: 1024,
        tc_nodes: 80,
        replay: 2000,
        setups: 5,
    };

    /// Small enough for a test run of every workload in seconds.
    pub const SMOKE: Scale = Scale {
        decide_pool: 40,
        hot_tuples: 128,
        churn_extents: 64,
        churn_tuples: (16, 64),
        batch_tuples: 64,
        tc_nodes: 12,
        replay: 60,
        setups: 1,
    };
}
