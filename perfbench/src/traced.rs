//! The traced run: one client, a span around every call into a layer.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. For every operation of the client stream the run times
//! the service call, then the same operation's direct system call on a
//! standalone system built and preloaded identically, then replays the
//! routed legs that call made through a separate route cache, virtual
//! clock and ledger, and (for a sample of legs) through uncached GPSR.
//!
//! The workload named on the command line runs its own stream for the
//! measured window, traced first and then untraced (the tracing overhead
//! is the ratio of the two rates). The other two workloads' streams then
//! run for a short fixed slice, so every per-layer metric is reported on
//! every workload; `perfbench/metric_map.json` records which pairings
//! drive which end-to-end metric. Counts are taken over the first [`COUNT_OPS`]
//! operations of each stream and repeat exactly at a fixed seed.

use crate::e2e::{self, build_dim, build_pool, next_ght_op, next_request, pool_config};
use crate::inputs::{self, Inputs, DIMS};
use crate::report::{mean, median, ratio, Outcome};
use crate::spans::Spans;
use crate::{Params, Workload};
use pool_core::insert::storage_cell;
use pool_core::resolve::relevant_cells;
use pool_core::system::PoolSystem;
use pool_dim::DimSystem;
use pool_ght::GhtRepairQueue;
use pool_gpsr::{Gpsr, PlanarGraph, Planarization, Route};
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_service::{Request, ServiceBackend, ServiceHandle};
use pool_transport::{
    clean_hops, CacheStats, CachedTransport, LatencyModel, Tracer, TrafficLayer, TrafficLedger,
    Transport, TransportKind, VirtualClock,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations per stream over which counts are taken; also the length
/// of the slice the other workloads run.
pub const COUNT_OPS: usize = 2_000;
/// Every this many replayed legs also routes through uncached GPSR.
const GPSR_SAMPLE: usize = 4;
/// Operations per stream whose spans are kept and written to the trace
/// file (every span is timed; the file keeps a readable sample).
const WRITTEN_OPS: u64 = 200;
/// Topology builds timed for `netsim.build_ms`.
const BUILD_REPS: usize = 3;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const METRICS: [(&str, &str); 37] = [
    ("core.resolve_us", "us"),
    ("core.cells_per_query", "count"),
    ("core.query_us", "us"),
    ("core.allocs_per_query", "count"),
    ("core.msgs.forward", "msgs"),
    ("core.msgs.reply", "msgs"),
    ("transport.fanout_ns_per_hop", "ns"),
    ("transport.charge_ns_per_msg", "ns"),
    ("transport.route_hit_ns", "ns"),
    ("service.submit_us", "us"),
    ("service.self_us", "us"),
    ("service.shards_per_op", "count"),
    ("service.allocs_per_op", "count"),
    ("gpsr.route_us", "us"),
    ("gpsr.hops_per_route", "count"),
    ("transport.hit_ratio", "ratio"),
    ("transport.evictions_per_op", "count"),
    ("transport.route_miss_us", "us"),
    ("dim.query_us", "us"),
    ("dim.insert_us", "us"),
    ("dim.zones_per_query", "count"),
    ("dim.allocs_per_query", "count"),
    ("netsim.mutate_us", "us"),
    ("netsim.patched_rows", "count"),
    ("gpsr.planarize_ms", "ms"),
    ("transport.rebuild_ms", "ms"),
    ("ght.epoch_ms", "ms"),
    ("ght.put_us", "us"),
    ("ght.get_us", "us"),
    ("ght.repair_msgs_per_epoch", "msgs"),
    ("netsim.build_ms", "ms"),
    ("core.insert_us", "us"),
    ("core.placement_ns", "ns"),
    ("core.allocs_per_insert", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_x", "x"),
];

/// How a metric's samples reduce to one value.
#[derive(Clone, Copy)]
enum Reduce {
    Median,
    Mean,
}

/// Samples per metric name, reduced when the run ends.
#[derive(Default)]
struct Samples {
    values: BTreeMap<&'static str, (Reduce, Vec<f64>)>,
}

impl Samples {
    fn timing(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_insert((Reduce::Median, Vec::new())).1.push(v);
    }

    fn count(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_insert((Reduce::Mean, Vec::new())).1.push(v);
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, (Reduce::Mean, vec![v]));
    }

    fn reduce(&self) -> BTreeMap<&'static str, f64> {
        self.values
            .iter()
            .filter(|(_, (_, v))| !v.is_empty())
            .map(|(&k, (r, v))| {
                (
                    k,
                    match r {
                        Reduce::Median => median(v),
                        Reduce::Mean => mean(v),
                    },
                )
            })
            .collect()
    }
}

/// How long a stream runs.
#[derive(Clone, Copy)]
enum Budget {
    /// The measured window: traced for the first part, untraced after.
    Window(Duration),
    /// A fixed slice of the counted operations, traced only.
    Slice,
}

impl Budget {
    fn traced(self) -> Duration {
        match self {
            Budget::Window(d) => d.mul_f64(2.0 / 3.0),
            Budget::Slice => Duration::MAX,
        }
    }

    fn untraced(self) -> Duration {
        match self {
            Budget::Window(d) => d.mul_f64(1.0 / 3.0),
            Budget::Slice => Duration::ZERO,
        }
    }

    /// Whether a stream whose counts cover `counted` operations and that
    /// started at `start` runs operation `step` traced.
    fn more(self, step: usize, counted: usize, start: Instant) -> bool {
        match self {
            Budget::Window(_) => start.elapsed() < self.traced() || step < counted,
            Budget::Slice => step < counted,
        }
    }
}

/// Runs the traced measurement for `workload`.
pub fn run(workload: Workload, params: &Params) -> (Outcome, Vec<String>) {
    let inputs = Inputs::generate(params.seed, params.nodes, params.preload);
    let mut spans = Spans::default();
    let mut notes = Vec::new();
    let mut by_stream: Vec<(Workload, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    let mut last_op = 0;
    let order =
        std::iter::once(workload).chain(Workload::ALL.into_iter().filter(|&w| w != workload));
    for w in order {
        let budget = if w == workload {
            Budget::Window(Duration::from_secs_f64(params.seconds))
        } else {
            Budget::Slice
        };
        let mut s = Samples::default();
        let mut t = Tracing { spans: &mut spans, s: &mut s, op: last_op, legs: 0 };
        let (ops, bad) = match w {
            Workload::SinkReads => t.service(w, &inputs, budget, build_pool, pool_direct),
            Workload::DimRoamingMixed => t.service(w, &inputs, budget, build_dim, dim_direct),
            Workload::GhtChurn => t.ght(&inputs, budget),
        };
        last_op = t.op;
        attempted += ops;
        failed += bad;
        if w == workload {
            time_builds(&inputs, &mut spans, &mut s);
        }
        by_stream.push((w, s.reduce()));
    }

    let mut out = Outcome { correct: failed == 0, attempted, failed, ..Outcome::default() };
    for (name, unit) in METRICS {
        let found = by_stream.iter().find_map(|(w, m)| m.get(name).map(|&v| (*w, v)));
        match found {
            Some((from, _)) if from != workload => {
                notes.push(format!("{name} from the {} slice", from.name()));
            }
            Some(_) => {}
            None => notes.push(format!("{name} not measured")),
        }
        out.push(name, found.map_or(0.0, |f| f.1), unit);
    }
    let path = format!(".bench_out/trace-{}-seed{}.json", workload.name(), params.seed);
    let json = spans.chrome_json();
    match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => notes.push(format!(
            "{} spans timed; those of the first {WRITTEN_OPS} operations of each stream written to {path}",
            spans.timed()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    (out, notes)
}

/// `netsim.build_ms`: the radio topology build of the workload's
/// deployment.
fn time_builds(inputs: &Inputs, spans: &mut Spans, s: &mut Samples) {
    let dep = pool_netsim::deployment::Deployment::paper_setting(
        inputs.nodes,
        inputs::RADIO,
        inputs::NEIGHBORS,
        inputs.deploy_seed,
    )
    .expect("valid deployment");
    for _ in 0..BUILD_REPS {
        let nodes = dep.nodes();
        let (topology, span) =
            spans.time("netsim.build", 0, None, || Topology::build(nodes, inputs::RADIO));
        drop(topology);
        s.timing("netsim.build_ms", span.ns() / 1e6);
    }
}

/// A standalone system the traced run calls directly, beside the service.
trait Direct {
    /// Times one operation on the standalone system; returns its wall ns.
    fn call(&mut self, t: &mut Tracing<'_>, root: usize, request: &Request, counted: bool) -> f64;
    /// The standalone system's leg tracer.
    fn tracer_mut(&mut self) -> &mut Tracer;
}

/// Builds the standalone twin of a service workload's backend.
type MakeDirect = fn(&Topology, Rect) -> Box<dyn Direct>;

fn pool_direct(topology: &Topology, field: Rect) -> Box<dyn Direct> {
    Box::new(
        PoolSystem::build(topology.clone(), field, pool_config()).expect("standalone pool builds"),
    )
}

fn dim_direct(topology: &Topology, field: Rect) -> Box<dyn Direct> {
    Box::new(
        DimSystem::build_with_transport(topology.clone(), field, DIMS, TransportKind::Cached)
            .expect("standalone dim builds"),
    )
}

impl Direct for PoolSystem {
    fn call(&mut self, t: &mut Tracing<'_>, root: usize, request: &Request, counted: bool) -> f64 {
        let op = t.op;
        match request {
            Request::Query { sink, query } => {
                let (cells, resolve) = t
                    .spans
                    .time("core.resolve", op, Some(root), || relevant_cells(self.layout(), query));
                let before = self.ledger().by_layer();
                let (result, span) =
                    t.spans.time("core.query", op, Some(root), || self.query_from(*sink, query));
                result.expect("standalone pool query");
                let after = self.ledger().by_layer();
                t.s.timing("core.resolve_us", resolve.ns() / 1e3);
                t.s.timing("core.query_us", span.ns() / 1e3);
                if counted {
                    let delta = |l: TrafficLayer| (after[l.index()].1 - before[l.index()].1) as f64;
                    t.s.count("core.cells_per_query", cells.len() as f64);
                    t.s.count("core.allocs_per_query", span.allocs as f64);
                    t.s.count("core.msgs.forward", delta(TrafficLayer::Forward));
                    t.s.count("core.msgs.reply", delta(TrafficLayer::Reply));
                }
                resolve.ns() + span.ns()
            }
            Request::Insert { source, event } => t.pool_insert(self, root, *source, event, counted),
            other => unreachable!("pool stream never sends {other:?}"),
        }
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        PoolSystem::tracer_mut(self)
    }
}

impl Direct for DimSystem {
    fn call(&mut self, t: &mut Tracing<'_>, root: usize, request: &Request, counted: bool) -> f64 {
        let op = t.op;
        match request {
            Request::Query { sink, query } => {
                let (result, span) =
                    t.spans.time("dim.query", op, Some(root), || self.query_from(*sink, query));
                let result = result.expect("standalone dim query");
                t.s.timing("dim.query_us", span.ns() / 1e3);
                if counted {
                    t.s.count("dim.zones_per_query", result.zones_visited as f64);
                    t.s.count("dim.allocs_per_query", span.allocs as f64);
                }
                span.ns()
            }
            Request::Insert { source, event } => {
                let (result, span) = t.spans.time("dim.insert", op, Some(root), || {
                    self.insert_from(*source, event.clone())
                });
                result.expect("standalone dim insert");
                t.s.timing("dim.insert_us", span.ns() / 1e3);
                span.ns()
            }
            other => unreachable!("dim stream never sends {other:?}"),
        }
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        DimSystem::tracer_mut(self)
    }
}

/// The replay half of the routing layers: a separate route cache,
/// virtual clock and ledger over the same network, fed the legs the
/// system actually routed, plus uncached GPSR for a sample of them.
struct Replay {
    cache: CachedTransport,
    clock: VirtualClock,
    ledger: TrafficLedger,
    gpsr: Gpsr,
}

impl Replay {
    fn new(topology: &Topology) -> Self {
        Replay {
            cache: CachedTransport::new(topology, Planarization::Gabriel),
            clock: VirtualClock::new(topology.len(), LatencyModel::default()),
            ledger: TrafficLedger::new(topology.len()),
            gpsr: Gpsr::new(topology, Planarization::Gabriel),
        }
    }
}

/// Where a replayed leg goes.
#[derive(Clone, Copy)]
enum Target {
    Node(NodeId),
    Location(Point),
}

struct Tracing<'a> {
    spans: &'a mut Spans,
    s: &'a mut Samples,
    /// The last operation id handed out (ids are unique across streams).
    op: u64,
    legs: usize,
}

impl Tracing<'_> {
    /// Pool insert path: placement then insert.
    fn pool_insert(
        &mut self,
        pool: &mut PoolSystem,
        root: usize,
        source: NodeId,
        event: &pool_core::event::Event,
        counted: bool,
    ) -> f64 {
        let op = self.op;
        let detected = pool.grid().cell_of(pool.topology().position(source));
        let (_, place) = self.spans.time("core.placement", op, Some(root), || {
            storage_cell(pool.layout(), pool.grid(), event, detected)
        });
        let (result, span) = self
            .spans
            .time("core.insert", op, Some(root), || pool.insert_from(source, event.clone()));
        result.expect("standalone pool insert");
        self.s.timing("core.placement_ns", place.ns());
        self.s.timing("core.insert_us", span.ns() / 1e3);
        if counted {
            self.s.count("core.allocs_per_insert", span.allocs as f64);
        }
        place.ns() + span.ns()
    }

    /// Replays one routed leg: cache lookup (and, on a miss, the lookup
    /// again as a hit), fan-out timing and ledger charge, and every
    /// [`GPSR_SAMPLE`]th leg through uncached GPSR.
    fn replay(
        &mut self,
        r: &mut Replay,
        topology: &Topology,
        from: NodeId,
        to: Target,
        root: Option<usize>,
        counted: bool,
    ) {
        let op = self.op;
        let before = r.cache.hit_stats();
        let lookup = |cache: &mut CachedTransport| -> Arc<Route> {
            match to {
                Target::Node(n) => cache.route_to_node(topology, from, n),
                Target::Location(p) => cache.route_to_location(topology, from, p),
            }
            .expect("replayed leg routes")
        };
        let (route, span) = self.spans.time("transport.route", op, root, || lookup(&mut r.cache));
        let after = r.cache.hit_stats();
        if after.hits > before.hits {
            self.s.timing("transport.route_hit_ns", span.ns());
        } else {
            self.s.timing("transport.route_miss_us", span.ns() / 1e3);
            let (_, hit) = self.spans.time("transport.route", op, root, || lookup(&mut r.cache));
            self.s.timing("transport.route_hit_ns", hit.ns());
        }
        if counted {
            self.s.count("transport.hit_ratio", (after.hits - before.hits) as f64);
            self.s.count("transport.evictions", (after.evictions - before.evictions) as f64);
        }
        let hops = clean_hops(&route.path);
        if !hops.is_empty() {
            let legs = [hops];
            let (_, fan) =
                self.spans.time("transport.fanout", op, root, || r.clock.time_fanout(&legs));
            self.s.timing("transport.fanout_ns_per_hop", fan.ns() / legs[0].len() as f64);
            let (msgs, charge) = self.spans.time("transport.charge", op, root, || {
                r.ledger.charge_path(&route.path, TrafficLayer::Forward)
            });
            if msgs > 0 {
                self.s.timing("transport.charge_ns_per_msg", charge.ns() / msgs as f64);
            }
        }
        self.legs += 1;
        if self.legs.is_multiple_of(GPSR_SAMPLE) {
            let (route, span) = self.spans.time("gpsr.route", op, root, || match to {
                Target::Node(n) => r.gpsr.route_to_node(topology, from, n),
                Target::Location(p) => r.gpsr.route(topology, from, p),
            });
            self.s.timing("gpsr.route_us", span.ns() / 1e3);
            if counted {
                self.s.count(
                    "gpsr.hops_per_route",
                    route.expect("uncached leg routes").hops() as f64,
                );
            }
        }
    }

    /// Replays every forward leg the standalone system traced since the
    /// last call, then clears its tracer.
    fn replay_traced(
        &mut self,
        r: &mut Replay,
        topology: &Topology,
        tracer: &mut Tracer,
        root: Option<usize>,
        counted: bool,
    ) {
        let legs: Vec<(NodeId, NodeId)> = tracer
            .spans()
            .filter(|s| s.layer != TrafficLayer::Reply && s.origin != s.destination)
            .map(|s| (s.origin, s.destination))
            .collect();
        tracer.clear();
        for (from, to) in legs {
            self.replay(r, topology, from, Target::Node(to), root, counted);
        }
    }

    /// A service workload's stream: through `submit`, then directly on a
    /// standalone twin, then replayed. Returns (operations, failures).
    fn service<B: ServiceBackend>(
        &mut self,
        w: Workload,
        inputs: &Inputs,
        budget: Budget,
        build: fn(Topology, Rect) -> ServiceHandle<B>,
        direct: MakeDirect,
    ) -> (u64, u64) {
        let (topology, field) = inputs::build_topology(inputs.nodes, inputs.deploy_seed);
        let handle = build(topology.clone(), field);
        let mut twin = direct(&topology, field);
        let mut replay = Replay::new(&topology);
        let first_op = self.op;
        // Preload the service and the twin alike; the twin's inserts are
        // timed and their legs warm the replay cache as the real
        // preload warmed the service's.
        for (source, event) in &inputs.events {
            let request = Request::Insert { source: *source, event: event.clone() };
            assert!(handle.submit(&request).delivered, "preload insert did not land");
            self.op += 1;
            let counted = self.op - first_op < COUNT_OPS as u64;
            let root = self.spans.open("preload.insert", self.op, None);
            twin.call(self, root, &request, counted);
            self.spans.close(root);
            self.replay_traced(&mut replay, &topology, twin.tracer_mut(), Some(root), false);
        }
        let mut rng = inputs.client_rng(0);
        let mut failed = 0;
        let mut step = 0;
        self.spans.keep(self.op + 1..self.op + 1 + WRITTEN_OPS);
        let start = Instant::now();
        while budget.more(step, COUNT_OPS, start) {
            let request = next_request(w, inputs, &mut rng);
            let counted = step < COUNT_OPS;
            self.op += 1;
            let op = self.op;
            let root =
                self.spans.open(if request.is_read() { "op.read" } else { "op.write" }, op, None);
            let (response, submit) =
                self.spans.time("service.submit", op, Some(root), || handle.submit(&request));
            failed += u64::from(!response.delivered);
            let direct_ns = twin.call(self, root, &request, counted);
            self.s.timing("service.submit_us", submit.ns() / 1e3);
            self.s.timing("service.self_us", (submit.ns() - direct_ns) / 1e3);
            if counted {
                self.s.count(
                    "service.shards_per_op",
                    handle.backend().shards_of(&request).len() as f64,
                );
                self.s.count("service.allocs_per_op", submit.allocs as f64);
            }
            self.replay_traced(&mut replay, &topology, twin.tracer_mut(), Some(root), counted);
            self.spans.close(root);
            step += 1;
        }
        let traced_s = start.elapsed().as_secs_f64();
        self.finish_cache_counts(step);
        self.s.set("trace.ops_per_s", step as f64 / traced_s);
        // The same stream, untraced, for the overhead ratio.
        let start = Instant::now();
        let mut untraced = 0usize;
        while start.elapsed() < budget.untraced() {
            let request = next_request(w, inputs, &mut rng);
            failed += u64::from(!handle.submit(&request).delivered);
            untraced += 1;
        }
        self.finish_overhead(untraced, start.elapsed().as_secs_f64());
        ((step + untraced) as u64, failed)
    }

    /// Turns the per-leg hit flags into `transport.hit_ratio` and the
    /// eviction total into `transport.evictions_per_op`.
    fn finish_cache_counts(&mut self, ops: usize) {
        let flags = self.s.values.remove("transport.hit_ratio").map(|v| v.1).unwrap_or_default();
        let evictions =
            self.s.values.remove("transport.evictions").map(|v| v.1).unwrap_or_default();
        self.s.set("transport.hit_ratio", mean(&flags));
        self.s.set(
            "transport.evictions_per_op",
            ratio(evictions.iter().sum(), ops.min(COUNT_OPS) as f64),
        );
    }

    fn finish_overhead(&mut self, untraced_ops: usize, untraced_s: f64) {
        if untraced_ops == 0 {
            return;
        }
        let untraced = untraced_ops as f64 / untraced_s;
        let traced = self.s.values["trace.ops_per_s"].1[0];
        self.s.set("trace.untraced_ops_per_s", untraced);
        self.s.set("trace.overhead_x", ratio(untraced, traced));
    }

    /// The GHT stream over the benchmark's own cached transport, with a
    /// churn epoch every [`e2e::EPOCH_EVERY`] operations. Returns
    /// (operations, failures).
    fn ght(&mut self, inputs: &Inputs, budget: Budget) -> (u64, u64) {
        let mut g = e2e::setup_ght(inputs);
        let mut replay = Replay::new(&g.topology);
        let mut planner = e2e::churn_planner();
        let mut queue = GhtRepairQueue::default();
        let mut rng = inputs.client_rng(0);
        let mut failed = 0;
        let mut step = 0;
        let count_until = 2 * e2e::EPOCH_EVERY + 1;
        let mut cache = CacheStats::default();
        self.spans.keep(self.op + 1..self.op + 1 + WRITTEN_OPS);
        let start = Instant::now();
        while budget.more(step, count_until, start) {
            let counted = step < count_until;
            if step > 0 && step % e2e::EPOCH_EVERY == 0 {
                self.op += 1;
                self.epoch(&mut g, &mut replay, &mut planner, &mut queue, counted);
            }
            let gop = next_ght_op(step, inputs, &mut rng, &g.topology);
            self.op += 1;
            let op = self.op;
            let (name, metric) =
                if gop.put { ("ght.put", "ght.put_us") } else { ("ght.get", "ght.get_us") };
            let root = self.spans.open(if gop.put { "op.write" } else { "op.read" }, op, None);
            let before = g.transport.hit_stats();
            let ((ok, _, _), span) =
                self.spans.time(name, op, Some(root), || e2e::ght_step(&mut g, &gop, step));
            self.s.timing(metric, span.ns() / 1e3);
            failed += u64::from(!ok);
            let after = g.transport.hit_stats();
            if counted {
                cache.hits += after.hits - before.hits;
                cache.misses += after.misses - before.misses;
                cache.evictions += after.evictions - before.evictions;
            }
            let location = g.table.key_location(&g.topology, &inputs::key_name(gop.key));
            let target = Target::Location(location);
            self.replay(&mut replay, &g.topology, gop.node, target, Some(root), counted);
            self.spans.close(root);
            step += 1;
        }
        let traced_s = start.elapsed().as_secs_f64();
        // The cache figures are the table's own transport's, not the
        // replay's.
        let lookups = (cache.hits + cache.misses) as f64;
        self.s.set("transport.hit_ratio", ratio(cache.hits as f64, lookups));
        let evictions = cache.evictions as f64;
        self.s.set("transport.evictions_per_op", ratio(evictions, step.min(count_until) as f64));
        self.s.set("trace.ops_per_s", step as f64 / traced_s);
        let start = Instant::now();
        let mut untraced = 0usize;
        while start.elapsed() < budget.untraced() {
            if step % e2e::EPOCH_EVERY == 0 {
                e2e::ght_epoch(&mut g, &mut planner, &mut queue);
            }
            let gop = next_ght_op(step, inputs, &mut rng, &g.topology);
            let (ok, _, _) = e2e::ght_step(&mut g, &gop, step);
            failed += u64::from(!ok);
            step += 1;
            untraced += 1;
        }
        self.finish_overhead(untraced, start.elapsed().as_secs_f64());
        (step as u64, failed)
    }

    /// One churn epoch, with the churn layers timed on the side: the plan
    /// applied to a topology clone, planarization of the result, the GHT
    /// epoch itself, and a transport rebuild.
    fn epoch(
        &mut self,
        g: &mut e2e::GhtSetup,
        replay: &mut Replay,
        planner: &mut pool_core::dynamics::ChurnPlanner,
        queue: &mut GhtRepairQueue<u64>,
        counted: bool,
    ) {
        let op = self.op;
        let plan = planner.plan(&g.topology, g.field);
        let root = self.spans.open("op.epoch", op, None);
        let mut clone = g.topology.clone();
        let (_, mutate) = self.spans.time("netsim.mutate", op, Some(root), || {
            for &p in &plan.joins {
                clone.add_node(p);
            }
            for &(id, dest) in &plan.moves {
                if clone.is_alive(id) {
                    clone.move_node(id, dest);
                }
            }
            clone.fail_nodes(&plan.deaths);
        });
        self.s.timing("netsim.mutate_us", mutate.ns() / 1e3);
        if counted {
            self.s.count("netsim.patched_rows", clone.patched_rows() as f64);
        }
        clone.compact();
        let (_, planar) = self.spans.time("gpsr.planarize", op, Some(root), || {
            PlanarGraph::build(&clone, Planarization::Gabriel)
        });
        self.s.timing("gpsr.planarize_ms", planar.ns() / 1e6);
        drop(clone);
        let (report, epoch) = self.spans.time("ght.epoch", op, Some(root), || {
            g.table.apply_epoch(
                &mut g.topology,
                &mut g.transport,
                &plan.joins,
                &plan.deaths,
                &plan.moves,
                queue,
                e2e::REPAIR_BUDGET,
            )
        });
        self.s.timing("ght.epoch_ms", epoch.ns() / 1e6);
        if counted {
            self.s.count("ght.repair_msgs_per_epoch", report.repair_messages as f64);
        }
        let (_, rebuild) = self
            .spans
            .time("transport.rebuild", op, Some(root), || replay.cache.rebuild(&g.topology));
        self.s.timing("transport.rebuild_ms", rebuild.ns() / 1e6);
        replay.clock.grow_to(g.topology.len());
        replay.ledger.grow_to(g.topology.len());
        replay.gpsr = Gpsr::new(&g.topology, Planarization::Gabriel);
        self.spans.close(root);
    }
}
