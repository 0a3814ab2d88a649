//! The end-to-end run: what a user of each workload sees, untraced.
//!
//! A run sets the workload up [`SETUPS_BEFORE`] times and keeps the last
//! deployment, drives it from one closed-loop client for the measured
//! window, checks every read against the oracle and the message ledger
//! against the per-operation costs, then sets up [`SETUPS_AFTER`] more
//! times. `setup_s` is the median of all set-ups; spreading them over the
//! run keeps one slow stretch of the host from setting it.
//!
//! One client, not several: on a small host whose CPU time is partly taken
//! by other tenants, concurrent clients turn that interference into
//! scheduling delays that dominate throughput and tail latency.
//!
//! Wall figures (throughput and latency quantiles) are computed per
//! window of about [`WINDOW_S`] and reported as the median over windows,
//! so a burst of interference from outside the process moves few of them.
//! Figures that depend on which operations ran (`msgs_per_*`,
//! `read_vms_p99`, and `peak_heap_mb`, which grows with the data stored)
//! are taken over the first [`PREFIX`] operations of the seeded stream,
//! so a faster build, which gets further into the stream, reports the
//! same figures.

use crate::alloc::{self, QuietVec};
use crate::inputs::{self, Inputs, DIMS, SINKS};
use crate::oracle::{Digest, Truth};
use crate::report::{mean, median, quantile, ratio, Outcome};
use crate::{Params, Workload};
use pool_core::config::PoolConfig;
use pool_core::dynamics::{ChurnConfig, ChurnPlanner};
use pool_ght::{GhtRepairQueue, GhtTable};
use pool_gpsr::Planarization;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_service::{DimBackend, PoolBackend, Request, ServiceBackend, ServiceHandle};
use pool_transport::{CachedTransport, Transport, TransportKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Set-ups before the measured window; the last one is measured.
pub const SETUPS_BEFORE: usize = 4;
/// Set-ups after the measured window, timed only.
pub const SETUPS_AFTER: usize = 3;
/// Target length of the windows wall figures are taken over.
pub const WINDOW_S: f64 = 1.0;
/// Operations of the stream over which counts are taken.
pub const PREFIX: usize = 10_000;
/// Pool shards: one per pool dimension.
pub const POOL_SHARDS: usize = DIMS;
/// DIM shards.
pub const DIM_SHARDS: usize = 4;
/// GHT operations between churn epochs.
pub const EPOCH_EVERY: usize = 1_000;
/// Churn per epoch: joins, deaths, moves.
pub const CHURN_RATES: (usize, usize, usize) = (20, 40, 30);
/// Repair message budget per epoch.
pub const REPAIR_BUDGET: u64 = 400;

/// Runs `workload`'s end-to-end measurement.
pub fn run(workload: Workload, params: &Params) -> (Outcome, Vec<String>) {
    let inputs = Inputs::generate(params.seed, params.nodes, params.preload);
    match workload {
        Workload::SinkReads => run_service(workload, params, &inputs, build_pool),
        Workload::DimRoamingMixed => run_service(workload, params, &inputs, build_dim),
        Workload::GhtChurn => run_ght(params, &inputs),
    }
}

/// Pool's configuration: the paper's, k = 3, the fixed layout seed and
/// cached routes.
pub fn pool_config() -> PoolConfig {
    PoolConfig::paper()
        .with_dims(DIMS)
        .with_seed(inputs::DEPLOY_SEED)
        .with_transport(TransportKind::Cached)
}

/// The Pool service of `sink-reads` (§5.1 deployment, one shard per
/// pool).
pub fn build_pool(topology: Topology, field: Rect) -> ServiceHandle<PoolBackend> {
    let (backend, shards) = PoolBackend::build(topology, field, pool_config(), POOL_SHARDS)
        .expect("pool backend builds");
    ServiceHandle::new(backend, shards)
}

/// The DIM service of `dim-roaming-mixed` (cached routes).
pub fn build_dim(topology: Topology, field: Rect) -> ServiceHandle<DimBackend> {
    let (backend, shards) = DimBackend::build(
        topology,
        field,
        DIMS,
        TransportKind::Cached,
        None,
        None,
        None,
        None,
        DIM_SHARDS,
    )
    .expect("dim backend builds");
    ServiceHandle::new(backend, shards)
}

/// The next operation of a service workload's client stream.
pub fn next_request(workload: Workload, inputs: &Inputs, rng: &mut StdRng) -> Request {
    let n = inputs.nodes as u32;
    match workload {
        Workload::SinkReads => {
            let query = inputs::range_query(rng);
            Request::Query { sink: inputs.sinks[rng.gen_range(0..SINKS)], query }
        }
        Workload::DimRoamingMixed => {
            if rng.gen_bool(0.5) {
                let source = NodeId(rng.gen_range(0..n));
                Request::Insert { source, event: inputs::uniform_event(rng) }
            } else {
                let sink = NodeId(rng.gen_range(0..n));
                Request::Query { sink, query: inputs::range_query(rng) }
            }
        }
        Workload::GhtChurn => unreachable!("ght-churn does not go through the service"),
    }
}

/// The wall-clock side of one measured operation.
#[derive(Debug, Clone, Copy)]
struct Timed {
    /// When it returned, in seconds since the window opened.
    done_s: f64,
    wall_us: f64,
    write: bool,
}

/// The count side of one measured operation.
#[derive(Debug, Clone, Copy)]
struct Counted {
    messages: u64,
    /// Virtual latency, in seconds.
    virtual_s: f64,
}

/// One measured operation of a service workload.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    timed: Timed,
    counted: Counted,
    answer: Digest,
    delivered: bool,
}

/// Repeated, timed set-ups of one deployment.
struct Setups<F> {
    setup: F,
    times: Vec<f64>,
}

impl<F> Setups<F> {
    fn new(setup: F) -> Self {
        Setups { setup, times: Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER) }
    }

    /// Sets up [`SETUPS_BEFORE`] times; returns the last set-up and the
    /// live heap when it began (the peak window opens there).
    fn before<H>(&mut self) -> (H, usize)
    where
        F: FnMut() -> H,
    {
        let mut kept = None;
        let mut base = 0;
        for rep in 0..SETUPS_BEFORE {
            drop(kept.take());
            if rep + 1 == SETUPS_BEFORE {
                base = alloc::live();
                alloc::reset_peak();
            }
            let start = Instant::now();
            kept = Some((self.setup)());
            self.times.push(start.elapsed().as_secs_f64());
        }
        (kept.expect("at least one set-up"), base)
    }

    /// Sets up [`SETUPS_AFTER`] more times; returns every set-up time.
    fn after<H>(mut self) -> Vec<f64>
    where
        F: FnMut() -> H,
    {
        for _ in 0..SETUPS_AFTER {
            let start = Instant::now();
            drop((self.setup)());
            self.times.push(start.elapsed().as_secs_f64());
        }
        self.times
    }
}

/// Peak heap since `base`, in MiB.
fn peak_mb(base: usize) -> f64 {
    alloc::peak().saturating_sub(base) as f64 / f64::from(1u32 << 20)
}

/// The heap peak when the counted prefix ends (the data stored, and so
/// the heap, grows with every operation run).
fn prefix_peak(ops: usize, base: usize, peak: &mut Option<f64>) {
    if ops == PREFIX {
        *peak = Some(peak_mb(base));
    }
}

fn run_service<B: ServiceBackend>(
    workload: Workload,
    params: &Params,
    inputs: &Inputs,
    build: fn(Topology, Rect) -> ServiceHandle<B>,
) -> (Outcome, Vec<String>) {
    // Wall p50 and p99 of each set-up's preload inserts.
    let mut preload_wall = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut setups = Setups::new(|| {
        let (topology, field) = inputs::build_topology(inputs.nodes, inputs.deploy_seed);
        let handle = build(topology, field);
        let mut wall = Vec::with_capacity(inputs.events.len());
        let preload: Vec<u64> = inputs
            .events
            .iter()
            .map(|(source, event)| {
                let request = Request::Insert { source: *source, event: event.clone() };
                let start = Instant::now();
                let response = handle.submit(&request);
                wall.push(start.elapsed().as_secs_f64() * 1e6);
                assert!(response.delivered, "preload insert did not land");
                response.messages
            })
            .collect();
        preload_wall.push((median(&wall), quantile(&wall, 0.99)));
        (handle, preload)
    });
    let ((handle, preload), heap_base) = setups.before();
    let ledger_before = handle.total_messages();

    // The measured window: one closed-loop client until the deadline.
    let mut rng = inputs.client_rng(0);
    let mut log: QuietVec<OpRecord> = QuietVec::new();
    let mut peak = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(params.seconds);
    while Instant::now() < deadline {
        let request = next_request(workload, inputs, &mut rng);
        let begin = Instant::now();
        let response = handle.submit(&request);
        let end = Instant::now();
        log.push(OpRecord {
            timed: Timed {
                done_s: (end - start).as_secs_f64(),
                wall_us: (end - begin).as_secs_f64() * 1e6,
                write: !request.is_read(),
            },
            counted: Counted { messages: response.messages, virtual_s: response.latency },
            answer: Digest::of(&response.events),
            delivered: response.delivered,
        });
        prefix_peak(log.len(), heap_base, &mut peak);
    }
    let peak = peak.unwrap_or_else(|| peak_mb(heap_base));

    // Checks, outside the measured window.
    let mut notes = Vec::new();
    let op_messages: u64 = log.iter().map(|r| r.counted.messages).sum();
    let ledger_growth = handle.total_messages() - ledger_before;
    let mut correct = preload.iter().sum::<u64>() == ledger_before;
    if op_messages != ledger_growth {
        notes.push(format!("conservation: responses {op_messages} != ledger {ledger_growth}"));
        correct = false;
    }
    let failed = check_service(workload, inputs, &log);
    drop(handle);
    let setup_times = setups.after();

    let timed: Vec<Timed> = log.iter().map(|r| r.timed).collect();
    let prefix: Vec<(bool, Counted)> =
        log.iter().take(PREFIX).map(|r| (r.timed.write, r.counted)).collect();
    let mut wall = window_medians(&timed, params.seconds);
    let write_msgs: Vec<f64> = if workload == Workload::SinkReads {
        // `sink-reads` writes only while it preloads: its write figures
        // are the preload inserts, which go through the same `submit`.
        wall.write_p50 = median(&preload_wall.iter().map(|w| w.0).collect::<Vec<_>>());
        wall.write_p99 = median(&preload_wall.iter().map(|w| w.1).collect::<Vec<_>>());
        preload.iter().map(|&m| m as f64).collect()
    } else {
        prefix.iter().filter(|p| p.0).map(|p| p.1.messages as f64).collect()
    };
    let attempted = timed.len() as u64;
    let mut out =
        Outcome { correct: correct && failed == 0, attempted, failed, ..Outcome::default() };
    push_metrics(&mut out, &setup_times, &wall, peak, &prefix, &write_msgs);
    notes.push(format!("clients 1 (closed loop), {}", window_note(params.seconds)));
    notes.push(format!("window rates {:.0?}", wall.rates));
    notes.push(format!("failed_ratio {}", ratio(failed as f64, attempted as f64)));
    (out, notes)
}

/// Replays the client stream and checks each operation; returns how many
/// failed. A read must return exactly the stored events that match it,
/// counting every insert that returned before the read began.
fn check_service(workload: Workload, inputs: &Inputs, log: &[OpRecord]) -> u64 {
    let mut rng = inputs.client_rng(0);
    let requests: Vec<Request> =
        (0..log.len()).map(|_| next_request(workload, inputs, &mut rng)).collect();
    let preload = inputs.events.iter().map(|(_, e)| (e.clone(), 0));
    let inserted =
        requests.iter().zip(log).enumerate().filter_map(|(i, (request, r))| match request {
            Request::Insert { event, .. } if r.delivered => Some((event.clone(), i as u64 + 1)),
            _ => None,
        });
    let truth = Truth::new(preload.chain(inserted));
    let failed = requests.iter().zip(log).enumerate().filter(|(i, (request, r))| {
        let ok = match request {
            Request::Query { query, .. } => {
                r.delivered && truth.accepts(query, *i as u64 + 1, r.answer)
            }
            _ => r.delivered,
        };
        !ok
    });
    failed.count() as u64
}

/// Wall figures of the measured window, each a median over windows.
#[derive(Debug, Default)]
struct Wall {
    /// Completion rate of each window.
    rates: Vec<f64>,
    ops_per_s: f64,
    read_p50: f64,
    read_p99: f64,
    write_p50: f64,
    write_p99: f64,
}

/// How many windows `[0, seconds)` splits into.
fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

fn window_note(seconds: f64) -> String {
    let n = windows(seconds);
    format!("wall figures are medians over {n} windows of {:.3} s", seconds / n as f64)
}

/// Splits the measured window into [`windows`] equal windows, takes the
/// completion rate and the read and write latency quantiles of each, and
/// returns the medians over windows. Operations that returned after the
/// deadline count toward `attempted` but toward no window.
fn window_medians(ops: &[Timed], seconds: f64) -> Wall {
    let n = windows(seconds);
    let len = seconds / n as f64;
    let mut reads = vec![Vec::new(); n];
    let mut writes = vec![Vec::new(); n];
    for t in ops {
        let w = (t.done_s / len) as usize;
        if w < n {
            let bucket = if t.write { &mut writes } else { &mut reads };
            bucket[w].push(t.wall_us);
        }
    }
    let over = |lat: &[Vec<f64>], q: f64| -> f64 {
        median(&lat.iter().filter(|l| !l.is_empty()).map(|l| quantile(l, q)).collect::<Vec<_>>())
    };
    let rates: Vec<f64> = (0..n).map(|w| (reads[w].len() + writes[w].len()) as f64 / len).collect();
    Wall {
        ops_per_s: median(&rates),
        rates,
        read_p50: over(&reads, 0.5),
        read_p99: over(&reads, 0.99),
        write_p50: over(&writes, 0.5),
        write_p99: over(&writes, 0.99),
    }
}

/// Pushes the end-to-end metrics, in `BENCHMARK.json` order. `prefix`
/// holds (is write, counts) of the counted operations.
fn push_metrics(
    out: &mut Outcome,
    setup_times: &[f64],
    wall: &Wall,
    peak_mb: f64,
    prefix: &[(bool, Counted)],
    write_msgs: &[f64],
) {
    let reads: Vec<Counted> = prefix.iter().filter(|p| !p.0).map(|p| p.1).collect();
    let read_msgs: Vec<f64> = reads.iter().map(|r| r.messages as f64).collect();
    let read_virtual: Vec<f64> = reads.iter().map(|r| r.virtual_s).collect();
    out.push("setup_s", median(setup_times), "s");
    out.push("ops_per_s", wall.ops_per_s, "1/s");
    out.push("read_p50_us", wall.read_p50, "us");
    out.push("read_p99_us", wall.read_p99, "us");
    out.push("write_p50_us", wall.write_p50, "us");
    out.push("write_p99_us", wall.write_p99, "us");
    out.push("peak_heap_mb", peak_mb, "MiB");
    out.push("msgs_per_read", mean(&read_msgs), "msgs");
    out.push("msgs_per_write", mean(write_msgs), "msgs");
    out.push("read_vms_p99", quantile(&read_virtual, 0.99) * 1e3, "ms");
}

/// The GHT deployment of `ght-churn`: network, the benchmark's own
/// cached transport, and the preloaded table.
pub struct GhtSetup {
    /// The live network.
    pub topology: Topology,
    /// Deployment field.
    pub field: Rect,
    /// The route-caching transport the table runs over.
    pub transport: CachedTransport,
    /// The table.
    pub table: GhtTable<u64>,
    /// Messages of each preload put.
    pub preload: Vec<u64>,
}

/// Builds the GHT deployment and preloads every key once.
pub fn setup_ght(inputs: &Inputs) -> GhtSetup {
    let (topology, field) = inputs::build_topology(inputs.nodes, inputs.deploy_seed);
    let mut transport = CachedTransport::new(&topology, Planarization::Gabriel);
    let mut table = GhtTable::new(&topology);
    let mut rng = StdRng::seed_from_u64(inputs::derive(inputs.seed, 3));
    let n = inputs.nodes as u32;
    let preload = (0..inputs.keys)
        .map(|k| {
            let source = NodeId(rng.gen_range(0..n));
            let receipt = table
                .put(
                    &topology,
                    &mut transport,
                    source,
                    &inputs::key_name(k),
                    inputs::preload_value(k),
                )
                .expect("preload put routes");
            assert!(receipt.delivered, "preload put did not land");
            receipt.messages
        })
        .collect();
    GhtSetup { topology, field, transport, table, preload }
}

/// The churn planner of `ght-churn`. Churn is part of the fixed network,
/// so it follows [`inputs::DEPLOY_SEED`], not `--seed`.
pub fn churn_planner() -> ChurnPlanner {
    let (joins, deaths, moves) = CHURN_RATES;
    ChurnPlanner::new(
        ChurnConfig::new(inputs::derive(inputs::DEPLOY_SEED, 4))
            .with_rates(joins, deaths, moves)
            .with_budget(REPAIR_BUDGET),
    )
}

/// A uniformly random live node.
pub fn live_node(rng: &mut StdRng, topology: &Topology) -> NodeId {
    loop {
        let id = NodeId(rng.gen_range(0..topology.len() as u32));
        if topology.is_alive(id) {
            return id;
        }
    }
}

/// One GHT operation of the single client's stream: put (even steps) or
/// get (odd steps) of a uniformly chosen preloaded key from a random
/// live node.
pub struct GhtOp {
    /// Whether this is a put.
    pub put: bool,
    /// The key index.
    pub key: usize,
    /// The issuing node.
    pub node: NodeId,
}

/// Draws operation `step` of the GHT stream.
pub fn next_ght_op(step: usize, inputs: &Inputs, rng: &mut StdRng, topology: &Topology) -> GhtOp {
    let key = rng.gen_range(0..inputs.keys);
    GhtOp { put: step.is_multiple_of(2), key, node: live_node(rng, topology) }
}

/// The value op `step` puts under `key`: the key in the high half and a
/// serial above every preload value in the low half.
pub fn put_value(key: usize, step: usize) -> u64 {
    inputs::preload_value(key) | (step as u64 + 1)
}

/// Whether `value` was put under `key` by an operation before `step`.
pub fn was_put(value: u64, key: usize, step: usize) -> bool {
    value >> 32 == key as u64 && (value & 0xFFFF_FFFF) <= step as u64
}

/// Runs GHT operation `step`; returns (delivered and correct, messages,
/// virtual seconds). A key whose values died with their holder reads
/// empty, an honest miss; a value never put under the key is wrong.
pub fn ght_step(g: &mut GhtSetup, op: &GhtOp, step: usize) -> (bool, u64, f64) {
    let key = inputs::key_name(op.key);
    if op.put {
        let value = put_value(op.key, step);
        match g.table.put(&g.topology, &mut g.transport, op.node, &key, value) {
            Ok(r) => (r.delivered, r.messages, r.elapsed),
            Err(_) => (false, 0, 0.0),
        }
    } else {
        match g.table.get(&g.topology, &mut g.transport, op.node, &key) {
            Ok((values, r)) => {
                (values.iter().all(|&v| was_put(v, op.key, step)), r.messages, r.elapsed)
            }
            Err(_) => (false, 0, 0.0),
        }
    }
}

/// Applies the next churn epoch; returns its repair messages.
pub fn ght_epoch(
    g: &mut GhtSetup,
    planner: &mut ChurnPlanner,
    queue: &mut GhtRepairQueue<u64>,
) -> u64 {
    let plan = planner.plan(&g.topology, g.field);
    g.table
        .apply_epoch(
            &mut g.topology,
            &mut g.transport,
            &plan.joins,
            &plan.deaths,
            &plan.moves,
            queue,
            REPAIR_BUDGET,
        )
        .repair_messages
}

fn run_ght(params: &Params, inputs: &Inputs) -> (Outcome, Vec<String>) {
    let mut setups = Setups::new(|| setup_ght(inputs));
    let (mut g, heap_base) = setups.before();
    let ledger_before = g.transport.ledger().total_messages();
    let mut planner = churn_planner();
    let mut queue = GhtRepairQueue::default();
    let mut rng = inputs.client_rng(0);
    let mut log: QuietVec<(Timed, Counted, bool)> = QuietVec::new();
    let mut epochs: QuietVec<(f64, u64)> = QuietVec::new();

    let mut peak = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(params.seconds);
    let mut step = 0;
    while Instant::now() < deadline {
        if step > 0 && step % EPOCH_EVERY == 0 {
            let begin = Instant::now();
            let repair = ght_epoch(&mut g, &mut planner, &mut queue);
            epochs.push((begin.elapsed().as_secs_f64() * 1e3, repair));
        }
        let op = next_ght_op(step, inputs, &mut rng, &g.topology);
        let begin = Instant::now();
        let (ok, messages, virtual_s) = ght_step(&mut g, &op, step);
        let end = Instant::now();
        let timed = Timed {
            done_s: (end - start).as_secs_f64(),
            wall_us: (end - begin).as_secs_f64() * 1e6,
            write: op.put,
        };
        log.push((timed, Counted { messages, virtual_s }, ok));
        step += 1;
        prefix_peak(step, heap_base, &mut peak);
    }
    let peak = peak.unwrap_or_else(|| peak_mb(heap_base));

    let mut notes = Vec::new();
    let repair: u64 = epochs.iter().map(|e| e.1).sum();
    let op_messages: u64 = log.iter().map(|r| r.1.messages).sum();
    let ledger_growth = g.transport.ledger().total_messages() - ledger_before;
    let mut correct = g.preload.iter().sum::<u64>() == ledger_before;
    if op_messages + repair != ledger_growth {
        notes.push(format!(
            "conservation: operations {op_messages} + repair {repair} != ledger {ledger_growth}"
        ));
        correct = false;
    }
    let failed = log.iter().filter(|r| !r.2).count() as u64;
    let attempted = log.len() as u64;
    drop(g);
    let setup_times = setups.after();
    let timed: Vec<Timed> = log.iter().map(|r| r.0).collect();
    let prefix: Vec<(bool, Counted)> = log.iter().take(PREFIX).map(|r| (r.0.write, r.1)).collect();
    let write_msgs: Vec<f64> = prefix.iter().filter(|p| p.0).map(|p| p.1.messages as f64).collect();
    let mut wall = window_medians(&timed, params.seconds);
    // Epochs split the stream into cycles of one epoch and EPOCH_EVERY
    // operations; fixed windows would count whole cycles, so the rate is
    // the median over complete cycles instead.
    let cycles: Vec<f64> = timed
        .chunks_exact(EPOCH_EVERY)
        .zip(timed.chunks_exact(EPOCH_EVERY).skip(1))
        .map(|(before, cycle)| {
            EPOCH_EVERY as f64 / (cycle[EPOCH_EVERY - 1].done_s - before[EPOCH_EVERY - 1].done_s)
        })
        .collect();
    if !cycles.is_empty() {
        wall.ops_per_s = median(&cycles);
    }
    let mut out =
        Outcome { correct: correct && failed == 0, attempted, failed, ..Outcome::default() };
    push_metrics(&mut out, &setup_times, &wall, peak, &prefix, &write_msgs);
    let epoch_ms: Vec<f64> = epochs.iter().map(|e| e.0).collect();
    let counted_repair: Vec<f64> =
        epochs.iter().take(PREFIX / EPOCH_EVERY).map(|e| e.1 as f64).collect();
    notes.push(format!("clients 1 (closed loop), {}", window_note(params.seconds)));
    notes.push(format!("ops_per_s is the median over {} epoch cycles", cycles.len()));
    notes.push(format!("epochs {}, epoch_p50_ms {}", epochs.len(), median(&epoch_ms)));
    notes.push(format!("repair_msgs_per_epoch {}", mean(&counted_repair)));
    notes.push(format!("failed_ratio {}", ratio(failed as f64, attempted as f64)));
    (out, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_get_answer_must_name_its_key_and_an_earlier_put() {
        assert!(was_put(inputs::preload_value(7), 7, 0));
        assert!(was_put(put_value(7, 10), 7, 11));
        // Put under another key, or by a later operation: corrupted.
        assert!(!was_put(put_value(8, 10), 7, 11));
        assert!(!was_put(put_value(7, 12), 7, 11));
    }

    #[test]
    fn wall_figures_are_medians_over_windows() {
        let op = |done_s: f64, wall_us: f64| Timed { done_s, wall_us, write: false };
        // Three 1 s windows holding 2, 3 and 1 reads; one read after the end.
        let ops = [
            op(0.1, 5.0),
            op(0.2, 7.0),
            op(1.1, 1.0),
            op(1.2, 2.0),
            op(1.3, 3.0),
            op(2.5, 9.0),
            op(3.2, 99.0),
        ];
        let wall = window_medians(&ops, 3.0);
        assert_eq!(wall.ops_per_s, 2.0);
        // The windows' p50s are 5, 2 and 9.
        assert_eq!(wall.read_p50, 5.0);
        assert_eq!(wall.write_p50, 0.0);
    }
}
