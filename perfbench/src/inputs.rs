//! Seeded inputs: the deployment and every operation the workloads send.
//!
//! The network is fixed ([`DEPLOY_SEED`]); the preload and the client
//! streams are a pure function of the `--seed` argument, so the same seed
//! always yields the same inputs.
//! Client streams are generated lazily from per-client RNGs; the oracle
//! regenerates them after the run by replaying the same RNGs.

use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_workloads::events::{EventDistribution, EventGenerator};
use pool_workloads::queries::{exact_query, RangeSizeDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Event dimensionality (the paper's k = 3).
pub const DIMS: usize = 3;
/// Radio range in meters (§5.1).
pub const RADIO: f64 = 40.0;
/// Mean neighbourhood size (§5.1).
pub const NEIGHBORS: f64 = 20.0;
/// Fixed base-station sinks of `sink-reads`.
pub const SINKS: usize = 8;
/// Mean range size per dimension of every range read.
pub const RANGE_MEAN: f64 = 0.1;
/// Seed of the deployment, the sinks, Pool's layout and the churn plan.
/// They are fixed: `--seed` varies the stored data and the operation
/// streams, not the network they run on, so runs at different seeds
/// measure one system.
pub const DEPLOY_SEED: u64 = 2007;

/// Mixes a stream label into the seed (splitmix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deployment seed of the first connected §5.1 network at or after
/// `seed` (seeds step by a fixed stride).
pub fn connected_seed(nodes: usize, seed: u64) -> u64 {
    let mut s = seed;
    loop {
        if build_topology(nodes, s).0.is_connected() {
            return s;
        }
        s = s.wrapping_add(0x1000);
    }
}

/// Places `nodes` sensors for deployment seed `s` and builds their radio
/// topology.
pub fn build_topology(nodes: usize, s: u64) -> (Topology, Rect) {
    let dep = Deployment::paper_setting(nodes, RADIO, NEIGHBORS, s).expect("valid deployment");
    let topology = Topology::build(dep.nodes(), RADIO).expect("valid topology");
    (topology, dep.field())
}

/// What a workload preloads and where its clients stand.
pub struct Inputs {
    /// Network size.
    pub nodes: usize,
    /// Deployment seed of a connected network of this size.
    pub deploy_seed: u64,
    /// Events preloaded before timing, each with its detecting node.
    pub events: Vec<(NodeId, Event)>,
    /// Number of preloaded GHT keys (`key-0` .. `key-{n-1}`).
    pub keys: usize,
    /// Fixed sinks of `sink-reads`.
    pub sinks: Vec<NodeId>,
    /// The seed the client streams derive from.
    pub seed: u64,
}

impl Inputs {
    /// Generates the inputs for `seed` over the fixed network of `nodes`
    /// with a preload of `preload` events and as many GHT keys.
    pub fn generate(seed: u64, nodes: usize, preload: usize) -> Self {
        let deploy_seed = connected_seed(nodes, DEPLOY_SEED);
        let n = nodes as u32;
        let mut rng = StdRng::seed_from_u64(derive(DEPLOY_SEED, 1));
        let sinks = (0..SINKS).map(|_| NodeId(rng.gen_range(0..n))).collect();
        let mut rng = StdRng::seed_from_u64(derive(seed, 2));
        let mut generator = EventGenerator::new(DIMS, EventDistribution::Uniform);
        let events = (0..preload)
            .map(|_| (NodeId(rng.gen_range(0..n)), generator.generate(&mut rng)))
            .collect();
        Inputs { nodes, deploy_seed, events, keys: preload, sinks, seed }
    }

    /// The RNG of client `c`'s operation stream.
    pub fn client_rng(&self, c: usize) -> StdRng {
        StdRng::seed_from_u64(derive(self.seed, 100 + c as u64))
    }
}

/// The name of GHT key `i`.
pub fn key_name(i: usize) -> String {
    format!("key-{i}")
}

/// The preload value of key `i`: later puts carry serial numbers above
/// every preload value, so a value names the key it was put under.
pub fn preload_value(i: usize) -> u64 {
    (i as u64) << 32
}

/// One range read: an exact-match query with exponential range sizes.
pub fn range_query(rng: &mut StdRng) -> RangeQuery {
    exact_query(rng, DIMS, RangeSizeDistribution::Exponential { mean: RANGE_MEAN })
}

/// One uniform event.
pub fn uniform_event(rng: &mut StdRng) -> Event {
    EventGenerator::new(DIMS, EventDistribution::Uniform).generate(rng)
}
