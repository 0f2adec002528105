//! Seeded inputs.  Every workload's requests and perturbation batches
//! are a pure function of the workload seed; the program under test
//! receives only the `MapRequest`s and `Perturbation` batches built here.
//!
//! Node counts are spread evenly over each workload's range rather than
//! drawn, so two seeds differ in graph structure and attributes but not
//! in the size mix — that keeps seed-to-seed spread of the timings small.

use std::sync::Arc;

use spmap_core::{AttachEdge, MapRequest, Perturbation};
use spmap_graph::gen::{almost_sp_graph, layered_random, random_sp_graph, LayeredConfig};
use spmap_graph::{augment, AugmentConfig, NodeId, SpGenConfig, TaskGraph};
use spmap_model::{DeviceId, Platform};
use spmap_workflows::{benchmark_set, tier_sizes, SizeTier};

/// Mix a workload seed with a stream tag and an index into one generator
/// seed (SplitMix64 finalizer).
pub fn mix(seed: u64, stream: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th of `count` node counts spread evenly over `lo..=hi`.
fn spread(lo: usize, hi: usize, count: usize, i: usize) -> usize {
    if count <= 1 {
        return lo;
    }
    lo + (hi - lo) * i / (count - 1)
}

/// A request for `graph` on `platform` with the request defaults, the
/// paper's SPFirstFit under the BFS cost model; `threads` pins the
/// engine's worker count (`None` = the machine default).
pub fn request(graph: TaskGraph, platform: &Arc<Platform>, threads: Option<usize>) -> MapRequest {
    let mut req = MapRequest::new(Arc::new(graph), Arc::clone(platform));
    req.limits.engine.threads = threads;
    req
}

/// An augmented random series-parallel graph (§IV-B).
pub fn sp_graph(nodes: usize, seed: u64) -> TaskGraph {
    let mut g = random_sp_graph(&SpGenConfig::new(nodes, seed));
    augment(&mut g, &AugmentConfig::default(), seed ^ 0x5555);
    g
}

/// An augmented almost-series-parallel graph (§IV-C): an SP graph plus
/// `nodes / 20` extra edges.
pub fn almost_sp(nodes: usize, seed: u64) -> TaskGraph {
    let mut g = almost_sp_graph(&SpGenConfig::new(nodes, seed), (nodes / 20).max(1));
    augment(&mut g, &AugmentConfig::default(), seed ^ 0x5555);
    g
}

/// An augmented layered random DAG of about `nodes` tasks (not
/// series-parallel): `√n` wide, edge density 0.25 between layers.
pub fn layered(nodes: usize, seed: u64) -> TaskGraph {
    let width = ((nodes as f64).sqrt().round() as usize).max(1);
    let mut g = layered_random(&LayeredConfig {
        layers: nodes.div_ceil(width),
        width,
        density: 0.25,
        seed,
        edge_bytes: 50e6,
    });
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

/// The warm-up request of `paper_cold`: a fixed 16-node SP graph.
pub fn warm_up(threads: Option<usize>) -> MapRequest {
    let platform = Arc::new(Platform::reference());
    request(sp_graph(16, 0), &platform, threads)
}

/// `paper_cold`: augmented SP and almost-SP graphs plus Medium-tier
/// WfCommons-shaped workflows, all mapped with SPFirstFit.
pub fn paper_cold(seed: u64, tiny: bool, threads: Option<usize>) -> Vec<MapRequest> {
    let platform = Arc::new(Platform::reference());
    let (sp, asp, per_family, lo, hi, tier) = if tiny {
        (2, 1, 0, 20, 40, SizeTier::Small)
    } else {
        (144, 108, 12, 100, 400, SizeTier::Medium)
    };
    let ff = |g| request(g, &platform, threads);
    let mut out: Vec<MapRequest> = (0..sp)
        .map(|i| ff(sp_graph(spread(lo, hi, sp, i), mix(seed, 1, i))))
        .chain((0..asp).map(|i| ff(almost_sp(spread(lo, hi, asp, i), mix(seed, 2, i)))))
        .collect();
    // `benchmark_set` also returns the tiers below `tier`; keep `tier`.
    for inst in benchmark_set(tier, per_family, mix(seed, 3, 0)) {
        let wanted = format!("{}-{}-", inst.family.name(), tier_sizes(inst.family, tier));
        if inst.name.starts_with(&wanted) {
            out.push(ff(inst.graph));
        }
    }
    out
}

/// `service_warm`: a zoo of 192 small SP graphs (48–104 nodes),
/// SPFirstFit.
pub fn service_zoo(seed: u64, tiny: bool, threads: Option<usize>) -> Vec<MapRequest> {
    let platform = Arc::new(Platform::reference());
    let (count, lo, hi) = if tiny { (3, 16, 24) } else { (192, 48, 104) };
    (0..count)
        .map(|i| {
            let g = sp_graph(spread(lo, hi, count, i), mix(seed, 4, i));
            request(g, &platform, threads)
        })
        .collect()
}

/// One remapping session's inputs: the opening request and the task
/// subgraphs that arrive over its cycles.
#[derive(Clone)]
pub struct SessionPlan {
    /// The request the session is opened with.
    pub open: MapRequest,
    /// Arriving subgraphs, used in rotation by successive cycles.
    pub arrivals: Vec<TaskGraph>,
}

/// The five perturbation kinds of one cycle, in cycle order.
pub const REMAP_KINDS: [&str; 5] = [
    "device_lost",
    "device_restored",
    "task_arrived",
    "attributes_changed",
    "task_finished",
];

/// `remap_churn`: sessions on ~200-node layered DAGs (SPFirstFit).
pub fn session_plans(seed: u64, tiny: bool, threads: Option<usize>) -> Vec<SessionPlan> {
    let platform = Arc::new(Platform::reference());
    let (count, lo, hi, arriving) = if tiny {
        (2, 24, 30, 3)
    } else {
        (32, 190, 210, 5)
    };
    (0..count)
        .map(|i| {
            let g = layered(spread(lo, hi, count, i), mix(seed, 6, i));
            session_plan(g, arriving, mix(seed, 7, i), &platform, threads)
        })
        .collect()
}

/// A session plan over `graph`: `arriving`-node SP subgraphs arrive in
/// its task-arrival steps.
pub fn session_plan(
    graph: TaskGraph,
    arriving: usize,
    seed: u64,
    platform: &Arc<Platform>,
    threads: Option<usize>,
) -> SessionPlan {
    SessionPlan {
        open: request(graph, platform, threads),
        arrivals: (0..4)
            .map(|k| sp_graph(arriving.max(2), mix(seed, 8, k)))
            .collect(),
    }
}

impl SessionPlan {
    /// The `step`-th batch this session receives.  Steps cycle through
    /// [`REMAP_KINDS`]: `lost` is lost and restored, a subgraph arrives
    /// behind the last original node, one original task's attributes
    /// change, and the arrived tasks finish — so every cycle starts on
    /// a graph with the original node count.
    pub fn batch(&self, step: usize, lost: DeviceId) -> Vec<Perturbation> {
        let base = &self.open.graph;
        let n = base.node_count();
        let cycle = step / REMAP_KINDS.len();
        let arrival = &self.arrivals[cycle % self.arrivals.len()];
        match step % REMAP_KINDS.len() {
            0 => vec![Perturbation::DeviceLost(lost)],
            1 => vec![Perturbation::DeviceRestored(lost)],
            2 => vec![Perturbation::TaskArrived {
                subgraph: arrival.clone(),
                attach: vec![AttachEdge::Into {
                    from: NodeId((n - 1) as u32),
                    to_new: 0,
                    bytes: 1e6,
                }],
            }],
            3 => {
                let node = NodeId(((cycle * 37 + 11) % n) as u32);
                let mut task = base.task(node).clone();
                task.complexity *= 1.5;
                task.area *= 1.5;
                vec![Perturbation::AttributesChanged {
                    nodes: vec![(node, task)],
                }]
            }
            _ => vec![Perturbation::TaskFinished(
                (n..n + arrival.node_count())
                    .map(|v| NodeId(v as u32))
                    .collect(),
            )],
        }
    }
}
