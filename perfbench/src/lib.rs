//! The repository benchmark: three seeded workloads over Pool, DIM and
//! GHT, timed end to end, plus a traced run that times each layer.
//!
//! * `sink-reads` — Pool through the sharded service, range reads from
//!   eight fixed sinks over a preloaded store.
//! * `dim-roaming-mixed` — DIM through the sharded service, half inserts
//!   from random sources, half range reads from random sinks.
//! * `ght-churn` — GHT through its table API, alternating put and get,
//!   with a churn epoch every 1,000 operations.
//!
//! [`e2e`] measures what a user of each workload sees, with no tracing;
//! [`traced`] reruns the client with a span around every call into a
//! layer. [`oracle`] checks every read against brute-force truth.

pub mod alloc;
pub mod e2e;
pub mod inputs;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod traced;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pool range reads from fixed sinks.
    SinkReads,
    /// DIM inserts and range reads from roaming nodes.
    DimRoamingMixed,
    /// GHT puts and gets under churn epochs.
    GhtChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::SinkReads, Workload::DimRoamingMixed, Workload::GhtChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SinkReads => "sink-reads",
            Workload::DimRoamingMixed => "dim-roaming-mixed",
            Workload::GhtChurn => "ght-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The run parameters every module shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Network size.
    pub nodes: usize,
    /// Preloaded events (and GHT keys).
    pub preload: usize,
}
