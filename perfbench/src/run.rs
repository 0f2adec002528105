//! One benchmark run: set-up, closed-loop timed phases, output checks
//! and metrics.
//!
//! An untraced run sets up [`SETUPS`] times (reporting the median as
//! `setup_s`), measures one timed phase of `seconds` and prints the
//! end-to-end metrics.  A traced run traces a pseudo-random half of its
//! operations: a traced operation gets a root span around the service
//! call and replays the request's layer calls as child spans.  The run
//! prints the per-layer metrics plus the tracing overhead (traced vs
//! untraced throughput over the two halves).
//!
//! Every output is checked outside the timed window: one-shot responses
//! against `decomposition_map_reference` and a re-score with
//! `Evaluator`, remaps against a replay on a fresh session.  A service
//! error or any mismatch counts as a failed operation.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
// lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
use std::time::Instant;

use spmap_baselines::heft;
use spmap_core::{
    decomposition_map_reference, map_request, BatchStats, MapRequest, MapResponse, MapService,
    MapperError, MapperResult, RemapOutcome, RemapSession, RuntimeConfig, ServiceConfig,
    ServiceError, ServiceStats, SessionId, SubgraphStrategy,
};
use spmap_decomp::series_parallel_subgraphs;
use spmap_model::{artifact_key, relative_improvement, DeviceId, EvalArtifact, Evaluator, Mapping};
use spmap_par::DispatchStats;

use crate::inputs::{self, SessionPlan, REMAP_KINDS};
use crate::metrics::Report;
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Leading perturbation cycles of every session whose remaps form the
/// census: the fixed set the quality metric and the exact session
/// counters are computed over, whatever the timed phase's length.
pub const CENSUS_CYCLES: usize = 4;

/// Fewest times a timed phase repeats every operation class (an input
/// of a one-shot workload, a perturbation kind of a session), whatever
/// `seconds` says; see [`Timings`].
pub const MIN_ROUNDS: usize = 3;

/// Fewest operations a timed phase completes, whatever `seconds` says.
pub const MIN_OPS: usize = 1000;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client maps a cycled pool of distinct paper-style graphs
    /// with SPFirstFit; every request misses the artifact cache.
    PaperCold,
    /// Two clients send repeated requests over a zoo of 192 small SP
    /// graphs through one warm service; every request hits the cache.
    ServiceWarm,
    /// One client drives remapping sessions through a five-batch
    /// perturbation cycle.
    RemapChurn,
}

impl Workload {
    /// Every workload, the ones `BENCHMARK.json` lists first.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::ServiceWarm,
        Workload::RemapChurn,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order.
    /// `remap_churn` is left out: on a shared 2-vCPU machine its
    /// timings spread past their bound from seed to seed, so it is
    /// run by hand (see `README.md`).
    pub const BENCHMARKED: [Workload; 2] = [Workload::PaperCold, Workload::ServiceWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::ServiceWarm => "service_warm",
            Workload::RemapChurn => "remap_churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServiceWarm => 2,
            _ => 1,
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Engine worker threads per request (`None` = the machine default;
    /// the determinism test pins 1 and 2).
    pub threads: Option<usize>,
    /// Test-size inputs (a few tiny graphs) for smoke tests.
    pub tiny: bool,
    /// Corrupt the response of this timed operation before the checks
    /// run — the smoke tests' proof that the checks count failures.
    pub corrupt_op: Option<usize>,
    /// Where a traced run writes its spans (`None` = keep them in
    /// memory only).
    pub trace_file: Option<PathBuf>,
}

impl Options {
    /// Full-size, untraced options for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace: false,
            threads: None,
            tiny: false,
            corrupt_op: None,
            trace_file: None,
        }
    }
}

/// One completed operation of a timed phase.
struct Done<R> {
    /// Operation index (maps onto the input or session step).
    index: usize,
    latency_s: f64,
    out: R,
}

/// A timed phase's operations (sorted by index) and its wall time.
struct Phase<R> {
    ops: Vec<Done<R>>,
    wall_s: f64,
}

/// Run a closed loop: `clients` threads each take the next operation
/// index, `prepare` its input (untimed), `execute` it (timed), `keep`
/// what the checks need of the answer (untimed), and go again until
/// `seconds` have passed and at least `min_ops` operations were issued.
fn closed_loop<P, A, R: Send>(
    clients: usize,
    seconds: f64,
    min_ops: usize,
    prepare: impl Fn(usize) -> P + Sync,
    execute: impl Fn(usize, P) -> A + Sync,
    keep: impl Fn(usize, A) -> R + Sync,
) -> Phase<R> {
    let next = AtomicUsize::new(0);
    // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
    let start = Instant::now();
    let per_client: Vec<Vec<Done<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= min_ops && start.elapsed().as_secs_f64() >= seconds {
                            return done;
                        }
                        let input = prepare(k);
                        // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
                        let t0 = Instant::now();
                        let answer = execute(k, input);
                        // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
                        let end = Instant::now();
                        done.push(Done {
                            index: k,
                            latency_s: (end - t0).as_secs_f64(),
                            out: keep(k, answer),
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut ops: Vec<Done<R>> = per_client.into_iter().flatten().collect();
    ops.sort_by_key(|d| d.index);
    Phase { ops, wall_s }
}

/// Which operations of a phase are traced.
#[derive(Clone, Copy)]
enum Tracing<'a> {
    Off,
    /// A pseudo-random half, fixed by the operation index.
    Half(&'a Tracer),
    All(&'a Tracer),
}

impl<'a> Tracing<'a> {
    /// Whether this is a traced run.
    fn on(self) -> bool {
        !matches!(self, Tracing::Off)
    }

    fn at(self, k: usize) -> Option<&'a Tracer> {
        match self {
            Tracing::Off => None,
            Tracing::Half(t) => (inputs::mix(0, 10, k) & 1 == 1).then_some(t),
            Tracing::All(t) => Some(t),
        }
    }
}

/// Run one service call, returning its result and, when `count`, the
/// calling thread's pool dispatches during it (boxed: a timed loop keeps
/// one per operation).
fn dispatched<T>(count: bool, call: impl FnOnce() -> T) -> (T, Option<Box<DispatchStats>>) {
    if !count {
        return (call(), None);
    }
    let before = spmap_par::dispatch_stats();
    let out = call();
    (
        out,
        Some(Box::new(spmap_par::dispatch_stats().since(&before))),
    )
}

fn add_dispatch(a: &mut DispatchStats, b: &DispatchStats) {
    a.serial_batches += b.serial_batches;
    a.scoped_batches += b.scoped_batches;
    a.pool_batches += b.pool_batches;
    a.pool_steals += b.pool_steals;
    a.pool_submission_waits += b.pool_submission_waits;
    for (o, x) in a.pool_shard_batches.iter_mut().zip(b.pool_shard_batches) {
        *o += x;
    }
}

/// A fingerprint of everything a caller reads from a mapper result:
/// mapping, makespans (as bits), history, iteration and subgraph
/// counts.  Equal fingerprints stand for bit-identical results.
fn result_print(r: &MapperResult) -> u64 {
    let mut h = DefaultHasher::new();
    r.mapping.as_slice().hash(&mut h);
    r.makespan.to_bits().hash(&mut h);
    r.cpu_only_makespan.to_bits().hash(&mut h);
    r.history.iter().for_each(|x| x.to_bits().hash(&mut h));
    (r.iterations, r.subgraph_count).hash(&mut h);
    h.finish()
}

/// A fingerprint of a remap outcome, as [`result_print`] for results.
fn outcome_print(o: &RemapOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    o.mapping.as_slice().hash(&mut h);
    o.makespan.to_bits().hash(&mut h);
    o.warm_start_makespan.to_bits().hash(&mut h);
    o.history.iter().for_each(|x| x.to_bits().hash(&mut h));
    (
        o.iterations,
        o.neighborhood_ops,
        o.noop,
        o.graph_rebuilt,
        o.session_key,
    )
        .hash(&mut h);
    h.finish()
}

/// Nudge a makespan to the next float: the corruption the smoke tests
/// inject to prove a wrong response is counted as failed.
fn corrupt(makespan: &mut f64) {
    *makespan = f64::from_bits(makespan.to_bits() + 1);
}

/// Whether `evaluator` re-scores `mapping` to exactly `makespan`.
fn rescores(evaluator: &mut Evaluator<'_>, mapping: &Mapping, makespan: f64) -> bool {
    evaluator.makespan_bfs(mapping).map(f64::to_bits) == Some(makespan.to_bits())
}

/// Replay `req`'s layer calls as child spans of `parent`:
/// `artifact_key`, `EvalArtifact::build`, `series_parallel_subgraphs`,
/// then `map_request`, whose result is returned for comparison.
fn replay_layers(
    tracer: &Tracer,
    rid: u64,
    parent: u64,
    req: &MapRequest,
) -> Result<MapperResult, MapperError> {
    let numbering = req.limits.engine.numbering;
    tracer.span(rid, Some(parent), "artifact_key", |_| {
        black_box(artifact_key(&req.graph, &req.platform, numbering))
    });
    tracer.span(rid, Some(parent), "EvalArtifact::build", |_| {
        black_box(EvalArtifact::build(
            req.graph.clone(),
            req.platform.clone(),
            numbering,
        ))
        .key()
    });
    if let SubgraphStrategy::SeriesParallel { cut_policy } = req.strategy {
        tracer.span(rid, Some(parent), "series_parallel_subgraphs", |_| {
            black_box(series_parallel_subgraphs(&req.graph, cut_policy))
                .subgraphs()
                .len()
        });
    }
    tracer.span(rid, Some(parent), "map_request", |_| map_request(req))
}

fn service(opts: &Options) -> MapService {
    MapService::new(ServiceConfig {
        max_inflight: 0,
        max_queued: 64,
        // The cold workload cycles a pool larger than what this budget
        // holds (one artifact), so every request misses the cache.
        cache_budget_bytes: match opts.workload {
            Workload::PaperCold => 1,
            // Every remap that changes the graph builds a new artifact;
            // this budget lets the cache reach its steady size within
            // the first seconds of a run.
            Workload::RemapChurn => 16 << 20,
            Workload::ServiceWarm => 0,
        },
        runtime: RuntimeConfig {
            threads: opts.threads,
            ..RuntimeConfig::default()
        },
    })
}

// ---- one-shot workloads ----

/// What the checks keep of one timed map: the input it used, the
/// answer's fingerprint (and the whole result for the first round of
/// inputs, which the census draws from), in a traced run the pool
/// dispatches it made, and when traced the replayed `map_request`
/// result's fingerprint.  Keeping fingerprints, not responses, keeps
/// the benchmark's own memory out of `peak_rss_mb`.
struct MapOut {
    input: usize,
    resp: Result<(u64, Option<Box<MapperResult>>), ServiceError>,
    dispatch: Option<Box<DispatchStats>>,
    replay: Option<Result<u64, MapperError>>,
}

/// A timed map's answer before the checks' share is kept.
struct MapAnswer {
    resp: Result<MapResponse, ServiceError>,
    dispatch: Option<Box<DispatchStats>>,
    replay: Option<Result<MapperResult, MapperError>>,
}

fn map_inputs(opts: &Options) -> Vec<MapRequest> {
    match opts.workload {
        Workload::PaperCold => inputs::paper_cold(opts.seed, opts.tiny, opts.threads),
        Workload::ServiceWarm => inputs::service_zoo(opts.seed, opts.tiny, opts.threads),
        Workload::RemapChurn => unreachable!("remap_churn has no one-shot pool"),
    }
}

/// Generate the pool, build the service and warm it.
fn setup_maps(opts: &Options) -> (MapService, Vec<MapRequest>) {
    let pool = map_inputs(opts);
    let svc = service(opts);
    match opts.workload {
        // Fill the cache with every zoo graph.
        Workload::ServiceWarm => pool.iter().for_each(|r| {
            let _ = black_box(svc.map(r));
        }),
        // Every timed request misses the cache anyway; warm the code
        // paths and the worker pool with one small map that does not
        // depend on the seed, so set-up time does not either.
        _ => {
            let _ = black_box(svc.map(&inputs::warm_up(opts.threads)));
        }
    }
    (svc, pool)
}

fn map_phase(
    opts: &Options,
    svc: &MapService,
    pool: &[MapRequest],
    seconds: f64,
    tracing: Tracing<'_>,
) -> Phase<MapOut> {
    // Operation k goes to input k / clients: concurrent clients ask for
    // the same input at about the same time, as hot keys do.
    let clients = opts.workload.clients();
    let first_round = pool.len() * clients;
    closed_loop(
        clients,
        seconds,
        MIN_OPS.max(first_round * MIN_ROUNDS),
        |k| k / clients % pool.len(),
        |k, i| {
            let req = &pool[i];
            match tracing.at(k) {
                None => {
                    let (resp, dispatch) = dispatched(tracing.on(), || svc.map(req));
                    MapAnswer {
                        resp,
                        dispatch,
                        replay: None,
                    }
                }
                Some(t) => {
                    let rid = t.request();
                    t.span(rid, None, "request", |root| {
                        let (resp, dispatch) = t.span(rid, Some(root), "MapService::map", |_| {
                            dispatched(true, || svc.map(req))
                        });
                        MapAnswer {
                            resp,
                            dispatch,
                            replay: Some(replay_layers(t, rid, root, req)),
                        }
                    })
                }
            }
        },
        |k, answer| MapOut {
            input: k / clients % pool.len(),
            resp: answer.resp.map(|mut r| {
                if opts.corrupt_op == Some(k) {
                    corrupt(&mut r.result.makespan);
                }
                (
                    result_print(&r.result),
                    (k < first_round).then(|| Box::new(r.result)),
                )
            }),
            dispatch: answer.dispatch,
            replay: answer.replay.map(|r| r.map(|r| result_print(&r))),
        },
    )
}

/// Checked outputs: failures, and per input the first verified result
/// (the census the quality metrics and the exact counters use).
struct MapCheck {
    attempted: u64,
    failed: u64,
    census: Vec<Option<MapperResult>>,
    heft_ms: Vec<f64>,
    /// HEFT's model makespan over ours, per census input.
    heft_ratio: Vec<f64>,
}

fn check_maps(pool: &[MapRequest], ops: &[Done<MapOut>]) -> MapCheck {
    // Per input: the reference result's fingerprint, and whether the
    // reference re-scores to its own makespan.  A response whose
    // fingerprint matches is bit-identical to the reference, so it
    // re-scores exactly when the reference does.
    let mut expected: Vec<Option<(u64, bool)>> = vec![None; pool.len()];
    let mut census: Vec<Option<MapperResult>> = vec![None; pool.len()];
    let mut failed = 0;
    for op in ops {
        let i = op.out.input;
        let (want, rescored) = *expected[i].get_or_insert_with(|| {
            let req = &pool[i];
            let cfg = req
                .mapper_config()
                .expect("benchmark requests are decomposition requests");
            let reference = decomposition_map_reference(&req.graph, &req.platform, &cfg);
            let mut evaluator = Evaluator::new(&req.graph, &req.platform);
            (
                result_print(&reference),
                rescores(&mut evaluator, &reference.mapping, reference.makespan),
            )
        });
        let ok = match &op.out.resp {
            Err(_) => false,
            Ok((got, _)) => {
                *got == want
                    && rescored
                    && op.out.replay.as_ref().is_none_or(|r| r.as_ref() == Ok(got))
            }
        };
        if !ok {
            failed += 1;
        } else if census[i].is_none() {
            census[i] = op
                .out
                .resp
                .as_ref()
                .ok()
                .and_then(|(_, full)| full.as_deref().cloned());
        }
    }
    let mut heft_ms = Vec::new();
    let mut heft_ratio = Vec::new();
    for (req, ours) in pool.iter().zip(&census) {
        let (ms, h) = timed_heft(req);
        heft_ms.push(ms);
        let theirs = Evaluator::new(&req.graph, &req.platform).makespan_bfs(&h);
        if let (Some(ours), Some(theirs)) = (ours, theirs) {
            heft_ratio.push(theirs / ours.makespan);
        }
    }
    MapCheck {
        attempted: ops.len() as u64,
        failed,
        census,
        heft_ms,
        heft_ratio,
    }
}

/// HEFT's mapping of `req` and the milliseconds it took.
fn timed_heft(req: &MapRequest) -> (f64, Mapping) {
    // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
    let t0 = Instant::now();
    let h = heft(&req.graph, &req.platform);
    (t0.elapsed().as_secs_f64() * 1e3, h.mapping)
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Sum of the engine counters over `results`.
fn sum_batch<'a>(results: impl Iterator<Item = &'a BatchStats>) -> BatchStats {
    let mut t = BatchStats::default();
    for b in results {
        t.simulated += b.simulated;
        t.memo_hits += b.memo_hits;
        t.pruned += b.pruned;
        t.aborted += b.aborted;
        t.trivial += b.trivial;
    }
    t
}

// ---- remapping sessions ----

/// A session opened in set-up and the device its cycle loses.
struct Live {
    plan: SessionPlan,
    lost: DeviceId,
    opened: Result<(SessionId, MapperResult), ServiceError>,
    /// The traced open's replayed `map_request` result.
    replay: Option<Result<MapperResult, MapperError>>,
}

/// What the checks keep of one timed remap: its place in the session's
/// sequence, the outcome's fingerprint, in a traced run the pool
/// dispatches it made, and whether it was traced.
struct RemapOut {
    session: usize,
    step: usize,
    resp: Result<u64, ServiceError>,
    dispatch: Option<Box<DispatchStats>>,
    traced: bool,
}

/// Span names of traced remaps, one per perturbation kind.
const REMAP_SPANS: [&str; 5] = [
    "MapService::remap(device_lost)",
    "MapService::remap(device_restored)",
    "MapService::remap(task_arrived)",
    "MapService::remap(attributes_changed)",
    "MapService::remap(task_finished)",
];

/// Open one session per plan on `svc`; traced opens replay their layer
/// calls as child spans.  Session `i` loses the `i`-th non-default
/// device (cyclically), so every seed loses each accelerator equally
/// often.
fn open_sessions(svc: &MapService, plans: Vec<SessionPlan>, tracer: Option<&Tracer>) -> Vec<Live> {
    plans
        .into_iter()
        .enumerate()
        .map(|(i, plan)| {
            let (opened, replay) = match tracer {
                None => (svc.open_session(&plan.open), None),
                Some(t) => {
                    let rid = t.request();
                    t.span(rid, None, "request", |root| {
                        let opened = t.span(rid, Some(root), "MapService::open_session", |_| {
                            svc.open_session(&plan.open)
                        });
                        (opened, Some(replay_layers(t, rid, root, &plan.open)))
                    })
                }
            };
            let platform = &plan.open.platform;
            let others: Vec<DeviceId> = platform
                .device_ids()
                .filter(|&d| d != platform.default_device())
                .collect();
            Live {
                lost: others[i % others.len()],
                opened: opened.map(|r| (r.id, r.result)),
                replay,
                plan,
            }
        })
        .collect()
}

fn remap_phase(
    svc: &MapService,
    live: &[Live],
    seconds: f64,
    min_ops: usize,
    tracing: Tracing<'_>,
    corrupt_op: Option<usize>,
) -> Phase<RemapOut> {
    closed_loop(
        1,
        seconds,
        min_ops,
        |k| {
            let (session, step) = (k % live.len(), k / live.len());
            let s = &live[session];
            (session, step, s.plan.batch(step, s.lost))
        },
        |k, (session, step, batch)| {
            let call = || {
                dispatched(tracing.on(), || match &live[session].opened {
                    Ok((id, _)) => svc.remap(*id, &batch),
                    Err(e) => Err(e.clone()),
                })
            };
            let tracer = tracing.at(k);
            let (resp, dispatch) = match tracer {
                None => call(),
                Some(t) => {
                    let rid = t.request();
                    t.span(rid, None, "request", |root| {
                        t.span(
                            rid,
                            Some(root),
                            REMAP_SPANS[step % REMAP_SPANS.len()],
                            |_| call(),
                        )
                    })
                }
            };
            (session, step, resp, dispatch, tracer.is_some())
        },
        |k, (session, step, resp, dispatch, traced)| RemapOut {
            session,
            step,
            resp: resp.map(|mut out| {
                if corrupt_op == Some(k) {
                    corrupt(&mut out.makespan);
                }
                outcome_print(&out)
            }),
            dispatch,
            traced,
        },
    )
}

/// Checked session outputs and the census of leading cycles.
struct RemapCheck {
    attempted: u64,
    failed: u64,
    /// Verified remaps of every session's first [`CENSUS_CYCLES`] cycles.
    census: Vec<RemapOutcome>,
    /// Verified opening results.
    opens: Vec<MapperResult>,
    heft_ms: Vec<f64>,
    heft_ratio: Vec<f64>,
}

fn check_remaps(live: &[Live], ops: &[Done<RemapOut>]) -> RemapCheck {
    let mut failed = 0;
    let mut census = Vec::new();
    let mut opens = Vec::new();
    let mut heft_ms = Vec::new();
    let mut heft_ratio = Vec::new();
    for (s, l) in live.iter().enumerate() {
        let req = &l.plan.open;
        let cfg = req
            .mapper_config()
            .expect("benchmark requests are decomposition requests");
        let reference = decomposition_map_reference(&req.graph, &req.platform, &cfg);
        let want = result_print(&reference);
        let mut evaluator = Evaluator::new(&req.graph, &req.platform);
        let fresh = RemapSession::open(req, None);
        let open_ok = match (&l.opened, &fresh) {
            (Ok((_, opened)), Ok(fresh)) => {
                result_print(opened) == want
                    && result_print(fresh.initial()) == want
                    && rescores(&mut evaluator, &opened.mapping, opened.makespan)
                    && l.replay
                        .as_ref()
                        .is_none_or(|r| r.as_ref().map(result_print) == Ok(want))
            }
            _ => false,
        };
        if let (true, Ok((_, opened))) = (open_ok, &l.opened) {
            opens.push(opened.clone());
            let (ms, h) = timed_heft(req);
            heft_ms.push(ms);
            if let Some(theirs) = evaluator.makespan_bfs(&h) {
                heft_ratio.push(theirs / opened.makespan);
            }
        } else {
            failed += 1;
        }
        let Ok(mut fresh) = fresh else {
            failed += ops.iter().filter(|o| o.out.session == s).count() as u64;
            continue;
        };
        for op in ops.iter().filter(|o| o.out.session == s) {
            let replayed = fresh.remap(&l.plan.batch(op.out.step, l.lost));
            let ok = match (&op.out.resp, &replayed) {
                (Ok(got), Ok(want)) => {
                    *got == outcome_print(want)
                        && rescores(
                            &mut Evaluator::new(fresh.graph(), fresh.platform()),
                            &want.mapping,
                            want.makespan,
                        )
                }
                _ => false,
            };
            if !ok {
                failed += 1;
            } else if op.out.step < CENSUS_CYCLES * REMAP_KINDS.len() {
                census.push(replayed.expect("checked above"));
            }
        }
    }
    RemapCheck {
        attempted: (live.len() + ops.len()) as u64,
        failed,
        census,
        opens,
        heft_ms,
        heft_ratio,
    }
}

// ---- the run ----

/// The default span file of a traced run.
pub fn default_trace_file(opts: &Options) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed))
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::RemapChurn => run_sessions(opts),
        _ => run_maps(opts),
    }
}

/// Time `SETUPS` set-ups and keep the last; the tracer, if any, sees
/// only the kept one.
fn timed_setups<S>(
    tracer: Option<&Tracer>,
    mut setup: impl FnMut(Option<&Tracer>) -> S,
) -> (S, f64) {
    let mut seconds = Vec::new();
    let mut kept: Option<S> = None;
    for i in 0..SETUPS {
        let t = if i + 1 == SETUPS { tracer } else { None };
        // Drop the previous set-up first, so no two are alive at once.
        drop(kept.take());
        // lint:allow(no-wallclock-in-decisions): the benchmark harness measures wall time
        let t0 = Instant::now();
        let s = setup(t);
        seconds.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    (kept.expect("SETUPS > 0"), median(&seconds))
}

fn run_maps(opts: &Options) -> Report {
    let tracer = Tracer::new();
    let ((svc, pool), setup_s) = timed_setups(None, |_| setup_maps(opts));
    let stats0 = svc.stats();
    let tracing = if opts.trace {
        Tracing::Half(&tracer)
    } else {
        Tracing::Off
    };
    let phase = map_phase(opts, &svc, &pool, opts.seconds, tracing);
    let stats1 = svc.stats();
    let check = check_maps(&pool, &phase.ops);
    let census: Vec<&MapperResult> = check.census.iter().flatten().collect();
    let mut report = Report {
        attempted: check.attempted,
        failed: check.failed,
        ..Report::default()
    };
    if !opts.trace {
        let timings = Timings::of(&phase, opts.workload.clients(), |o| o.input);
        e2e_values(
            &mut report,
            setup_s,
            &timings,
            mean(census.iter().map(|r| r.relative_improvement())),
            geomean(&check.heft_ratio),
        );
        report.notes.push(format!(
            "{} inputs, {} clients, {} ops in {:.2} s, cache hits {} / misses {}",
            pool.len(),
            opts.workload.clients(),
            phase.ops.len(),
            phase.wall_s,
            stats1.cache.hits - stats0.cache.hits,
            stats1.cache.misses - stats0.cache.misses,
        ));
        return finish(report, &timings);
    }

    // The session layer on a one-cycle probe over the first input.
    let probe_plan = inputs::session_plan(
        (*pool[0].graph).clone(),
        5,
        inputs::mix(opts.seed, 9, 0),
        &pool[0].platform,
        opts.threads,
    );
    let live = open_sessions(&svc, vec![probe_plan], None);
    let probe = remap_phase(
        &svc,
        &live,
        0.0,
        REMAP_KINDS.len(),
        Tracing::All(&tracer),
        None,
    );
    let probe_check = check_remaps(&live, &probe.ops);
    report.attempted += probe_check.attempted;
    report.failed += probe_check.failed;

    let mut dispatch = DispatchStats::default();
    for d in phase.ops.iter().filter_map(|o| o.out.dispatch.as_deref()) {
        add_dispatch(&mut dispatch, d);
    }
    let clients = opts.workload.clients();
    layer_values(
        &mut report,
        &LayerInputs {
            stats0,
            stats1,
            dispatch,
            tracer: &tracer,
            census_batch: sum_batch(census.iter().map(|r| &r.batch)),
            iterations: census.iter().map(|r| r.iterations as u64).sum(),
            evaluations: census.iter().map(|r| r.evaluations).sum(),
            checkpoint_peak: census
                .iter()
                .map(|r| r.checkpoint_peak_bytes)
                .max()
                .unwrap_or(0),
            subgraph_count: census.iter().map(|r| r.subgraph_count as u64).sum(),
            remaps: &probe_check.census,
            heft_ms: &check.heft_ms,
            untraced_tput: class_throughput(clients, &phase.ops, |o| o.replay.is_none()),
            traced_tput: class_throughput(clients, &phase.ops, |o| o.replay.is_some()),
        },
    );
    report.notes.push(format!(
        "{} ops in {:.2} s, half of them traced; session metrics come from a one-cycle probe \
         session over the first input",
        phase.ops.len(),
        phase.wall_s,
    ));
    write_trace(opts, &tracer, &mut report);
    report
}

fn run_sessions(opts: &Options) -> Report {
    let tracer = Tracer::new();
    let ((svc, live), setup_s) = timed_setups(opts.trace.then_some(&tracer), |t| {
        let plans = inputs::session_plans(opts.seed, opts.tiny, opts.threads);
        let svc = service(opts);
        let live = open_sessions(&svc, plans, t);
        (svc, live)
    });
    let min_ops = MIN_OPS.max(CENSUS_CYCLES.max(MIN_ROUNDS) * REMAP_KINDS.len() * live.len());
    let stats0 = svc.stats();
    let tracing = if opts.trace {
        Tracing::Half(&tracer)
    } else {
        Tracing::Off
    };
    let phase = remap_phase(&svc, &live, opts.seconds, min_ops, tracing, opts.corrupt_op);
    let stats1 = svc.stats();
    let check = check_remaps(&live, &phase.ops);
    let mut report = Report {
        attempted: check.attempted,
        failed: check.failed,
        ..Report::default()
    };
    if !opts.trace {
        let timings = Timings::of(&phase, 1, |o| {
            o.session * REMAP_KINDS.len() + o.step % REMAP_KINDS.len()
        });
        e2e_values(
            &mut report,
            setup_s,
            &timings,
            mean(
                check
                    .census
                    .iter()
                    .map(|o| relative_improvement(o.warm_start_makespan, o.makespan)),
            ),
            geomean(&check.heft_ratio),
        );
        report.notes.push(format!(
            "{} sessions, 1 client, {} remaps in {:.2} s",
            live.len(),
            phase.ops.len(),
            phase.wall_s
        ));
        return finish(report, &timings);
    }

    let mut dispatch = DispatchStats::default();
    for d in phase.ops.iter().filter_map(|o| o.out.dispatch.as_deref()) {
        add_dispatch(&mut dispatch, d);
    }
    // The engine runs of the census: the session opens and the census
    // remaps.
    let batches: Vec<BatchStats> = check
        .opens
        .iter()
        .map(|r| r.batch)
        .chain(check.census.iter().map(|o| o.batch))
        .collect();
    layer_values(
        &mut report,
        &LayerInputs {
            stats0,
            stats1,
            dispatch,
            tracer: &tracer,
            census_batch: sum_batch(batches.iter()),
            iterations: check.opens.iter().map(|r| r.iterations as u64).sum::<u64>()
                + check
                    .census
                    .iter()
                    .map(|o| o.iterations as u64)
                    .sum::<u64>(),
            evaluations: check.opens.iter().map(|r| r.evaluations).sum(),
            checkpoint_peak: check
                .opens
                .iter()
                .map(|r| r.checkpoint_peak_bytes)
                .max()
                .unwrap_or(0),
            subgraph_count: check.opens.iter().map(|r| r.subgraph_count as u64).sum(),
            remaps: &check.census,
            heft_ms: &check.heft_ms,
            untraced_tput: class_throughput(1, &phase.ops, |o| !o.traced),
            traced_tput: class_throughput(1, &phase.ops, |o| o.traced),
        },
    );
    report.notes.push(format!(
        "{} remaps in {:.2} s, half of them traced; model, decomp and core spans come from the \
         traced session opens",
        phase.ops.len(),
        phase.wall_s,
    ));
    write_trace(opts, &tracer, &mut report);
    report
}

/// Closed-loop throughput of the operations `pick` selects: `clients`
/// over their mean latency.
fn class_throughput<R>(clients: usize, ops: &[Done<R>], pick: impl Fn(&R) -> bool) -> f64 {
    let lat: Vec<f64> = ops
        .iter()
        .filter(|o| pick(&o.out))
        .map(|o| o.latency_s)
        .collect();
    ratio(clients as f64 * lat.len() as f64, lat.iter().sum())
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// The timing metrics of a timed phase.  Every operation belongs to a
/// class that the phase repeats at least [`MIN_ROUNDS`] times: an input
/// of a one-shot workload, or one session's perturbation kind.  A
/// class's latency is the median of its repeats, and the metrics are
/// taken over the classes: the median and 90th percentile of the class
/// latencies, and the closed-loop throughput they give (Little's law:
/// the client count over the mean class latency).  The repeats of a
/// class are spread over the whole run, so a burst of interference
/// from other tenants of the machine that covers less than half of
/// them does not move its median.
struct Timings {
    p50_ms: f64,
    p90_ms: f64,
    ops_s: f64,
    classes: usize,
    /// Pooled over the whole phase; printed, not reported.
    p99_ms: f64,
    /// Operations over the phase's wall time; printed, not reported.
    wall_ops_s: f64,
    samples: usize,
}

impl Timings {
    fn of<R>(phase: &Phase<R>, clients: usize, class: impl Fn(&R) -> usize) -> Self {
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for o in &phase.ops {
            by_class
                .entry(class(&o.out))
                .or_default()
                .push(o.latency_s * 1e3);
        }
        let class_ms: Vec<f64> = by_class.values().map(|v| median(v)).collect();
        let all: Vec<f64> = phase.ops.iter().map(|o| o.latency_s * 1e3).collect();
        Self {
            p50_ms: quantile(&class_ms, 0.5),
            p90_ms: quantile(&class_ms, 0.9),
            ops_s: ratio(clients as f64 * 1e3, mean(class_ms.iter().copied())),
            classes: class_ms.len(),
            p99_ms: quantile(&all, 0.99),
            wall_ops_s: ratio(all.len() as f64, phase.wall_s),
            samples: all.len(),
        }
    }
}

fn e2e_values(
    report: &mut Report,
    setup_s: f64,
    timings: &Timings,
    improvement: f64,
    vs_heft: f64,
) {
    report.values = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", timings.p50_ms),
        ("latency_p90_ms", timings.p90_ms),
        ("throughput_ops_s", timings.ops_s),
        ("makespan_improvement", improvement),
        ("improvement_vs_heft", vs_heft),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0)),
    ];
}

/// Untraced notes: sample and class counts, failure ratio, the pooled
/// 99th percentile (every run has at least [`MIN_OPS`] samples) and
/// the throughput over wall time.
fn finish(mut report: Report, timings: &Timings) -> Report {
    report.notes.push(format!(
        "latency samples {} in {} classes, failed_ratio {:.6}, latency_p99_ms {:.4}, \
         operations per wall second {:.2}",
        timings.samples,
        timings.classes,
        ratio(report.failed as f64, report.attempted as f64),
        timings.p99_ms,
        timings.wall_ops_s,
    ));
    report
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    stats0: ServiceStats,
    stats1: ServiceStats,
    dispatch: DispatchStats,
    tracer: &'a Tracer,
    census_batch: BatchStats,
    iterations: u64,
    evaluations: u64,
    checkpoint_peak: u64,
    subgraph_count: u64,
    remaps: &'a [RemapOutcome],
    heft_ms: &'a [f64],
    untraced_tput: f64,
    traced_tput: f64,
}

fn layer_values(report: &mut Report, x: &LayerInputs<'_>) {
    let spans = x.tracer.spans();
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .sum()
    };
    // Derived: the engine's own time inside map_request, i.e. the
    // replayed map_request minus its table build and decomposition.
    let mut parts: BTreeMap<u64, [Option<f64>; 3]> = BTreeMap::new();
    for s in &spans {
        let slot = match s.name {
            "map_request" => 0,
            "EvalArtifact::build" => 1,
            "series_parallel_subgraphs" => 2,
            _ => continue,
        };
        if let Some(parent) = s.parent {
            parts.entry(parent).or_default()[slot] = Some(s.ms());
        }
    }
    let search_self: Vec<f64> = parts
        .values()
        .filter_map(|&[m, b, d]| Some(m? - b? - d?))
        .collect();
    let hits = x.stats1.cache.hits - x.stats0.cache.hits;
    let misses = x.stats1.cache.misses - x.stats0.cache.misses;
    let b = &x.census_batch;
    let d = &x.dispatch;
    let remap_ms = |kind: usize| median(&x.tracer.durations_ms(REMAP_SPANS[kind]));
    let noops = x.remaps.iter().filter(|o| o.noop).count();
    report.values = vec![
        ("service.admitted", x.stats1.admitted as f64),
        ("service.rejected", x.stats1.rejected as f64),
        ("service.peak_inflight", x.stats1.peak_inflight as f64),
        ("service.peak_queued", x.stats1.peak_queued as f64),
        (
            "model.artifact_key_us",
            median(&x.tracer.durations_ms("artifact_key")) * 1e3,
        ),
        (
            "model.artifact_build_ms",
            median(&x.tracer.durations_ms("EvalArtifact::build")),
        ),
        (
            "model.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "model.cache_evictions",
            (x.stats1.cache.evictions - x.stats0.cache.evictions) as f64,
        ),
        (
            "decomp.subgraphs_ms",
            median(&x.tracer.durations_ms("series_parallel_subgraphs")),
        ),
        ("decomp.subgraph_count", x.subgraph_count as f64),
        (
            "decomp.share",
            ratio(
                sum("series_parallel_subgraphs"),
                sum("MapService::map") + sum("MapService::open_session"),
            ),
        ),
        ("core.search_self_ms", median(&search_self)),
        ("core.iterations", x.iterations as f64),
        ("core.evaluations", x.evaluations as f64),
        ("core.simulated", b.simulated as f64),
        ("core.aborted", b.aborted as f64),
        ("core.pruned", b.pruned as f64),
        ("core.trivial", b.trivial as f64),
        ("core.memo_hits", b.memo_hits as f64),
        (
            "core.abort_ratio",
            ratio(b.aborted as f64, (b.simulated + b.aborted) as f64),
        ),
        ("core.memo_hit_ratio", b.memo_hit_rate()),
        ("core.checkpoint_peak_bytes", x.checkpoint_peak as f64),
        ("par.pool_batches", d.pool_batches as f64),
        ("par.serial_batches", d.serial_batches as f64),
        ("par.scoped_batches", d.scoped_batches as f64),
        ("par.pool_steals", d.pool_steals as f64),
        ("par.submission_waits", d.pool_submission_waits as f64),
        (
            "par.shards_used",
            d.pool_shard_batches.iter().filter(|&&n| n > 0).count() as f64,
        ),
        ("session.remap_ms.device_lost", remap_ms(0)),
        ("session.remap_ms.device_restored", remap_ms(1)),
        ("session.remap_ms.task_arrived", remap_ms(2)),
        ("session.remap_ms.attributes_changed", remap_ms(3)),
        ("session.remap_ms.task_finished", remap_ms(4)),
        (
            "session.neighborhood_ops",
            x.remaps.iter().map(|o| o.neighborhood_ops as f64).sum(),
        ),
        (
            "session.warm_iterations",
            x.remaps.iter().map(|o| o.iterations as f64).sum(),
        ),
        (
            "session.graph_rebuilds",
            x.remaps.iter().filter(|o| o.graph_rebuilt).count() as f64,
        ),
        (
            "session.noop_ratio",
            ratio(noops as f64, x.remaps.len() as f64),
        ),
        ("baselines.heft_ms", median(x.heft_ms)),
        ("trace.untraced_throughput_ops_s", x.untraced_tput),
        ("trace.traced_throughput_ops_s", x.traced_tput),
        (
            "trace.overhead",
            ratio(x.untraced_tput - x.traced_tput, x.untraced_tput),
        ),
    ];
}

fn write_trace(opts: &Options, tracer: &Tracer, report: &mut Report) {
    if let Some(path) = &opts.trace_file {
        match tracer.write_jsonl(path) {
            Ok(()) => report.notes.push(format!(
                "wrote {} spans to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report
                .notes
                .push(format!("could not write spans to {}: {e}", path.display())),
        }
    }
}
