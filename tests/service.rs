//! Concurrency stress suite for the sharded pool and the mapping
//! service.
//!
//! The tentpole guarantee of the sharded pool: shard choice affects
//! only *which threads execute* a batch, never its result.  Here eight
//! submitter threads interleave mapper and GA runs against shared
//! pools of every shard count (explicit 1, explicit 2, and the
//! `SPMAP_SHARDS` auto default), and every result must be bit-identical
//! to its serial reference.  The service
//! half pins the artifact cache (cold vs warm vs evicting — identical
//! results; one artifact per subgraph strategy) and the admission
//! gate's invariants (`peak_inflight` never
//! exceeds the bound; zero-queue services reject instead of buffering).

use std::sync::Arc;

use spmap::par::{with_pool, Pool};
use spmap::prelude::*;
use spmap_core::{
    decomposition_map_reference, EngineConfig, MapRequest, MapService, MapperResult, ServiceConfig,
    ServiceError,
};
use spmap_ga::{nsga2_map, nsga2_map_reference, GaConfig, GaResult};

/// Deterministic graph zoo (mirrors `tests/equivalence.rs`): SP,
/// almost-SP and layered non-SP shapes with the paper's augmentation.
fn graph_case(case: u64) -> TaskGraph {
    let nodes = 12 + (case * 7 % 24) as usize;
    let seed = case * 131 + 17;
    let mut g = match case % 3 {
        0 => random_sp_graph(&SpGenConfig::new(nodes, seed)),
        1 => almost_sp_graph(&SpGenConfig::new(nodes, seed), (case % 7) as usize),
        _ => {
            use spmap::graph::gen::{layered_random, LayeredConfig};
            layered_random(&LayeredConfig {
                layers: 3 + (case % 4) as usize,
                width: 2 + (case % 3) as usize,
                density: 0.5,
                seed,
                edge_bytes: 50e6,
            })
        }
    };
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

fn mapper_cfg(threads: usize) -> MapperConfig {
    MapperConfig {
        engine: EngineConfig {
            threads: Some(threads),
            ..EngineConfig::default()
        },
        ..MapperConfig::sp_first_fit()
    }
}

fn ga_cfg(threads: usize, seed: u64) -> GaConfig {
    GaConfig {
        population: 16,
        generations: 12,
        seed,
        threads: Some(threads),
        ..GaConfig::default()
    }
}

/// Engine result vs the *serial reference* result: everything the
/// reference produces must match bit for bit.  Decision counters are
/// not compared here — the reference path reports zeros by design;
/// the concurrent test below pins them against an engine baseline.
fn assert_mapper_identical(tag: &str, got: &MapperResult, want: &MapperResult) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(got.history, want.history, "{tag}: history diverged");
    assert_eq!(
        got.cpu_only_makespan, want.cpu_only_makespan,
        "{tag}: baseline diverged"
    );
}

fn assert_ga_identical(tag: &str, got: &GaResult, want: &GaResult) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(
        got.best_per_generation, want.best_per_generation,
        "{tag}: per-generation history diverged"
    );
}

/// Eight threads hammer one shared pool with interleaved mapper and GA
/// runs; every result must match its serial reference bit for bit, for
/// every shard count.  (`SPMAP_SHARDS` itself cannot be toggled from
/// inside a test process — `with_pool` covers that env knob.)
#[test]
fn concurrent_mapper_and_ga_runs_are_bit_identical() {
    const SUBMITTERS: usize = 8;
    const ENGINE_THREADS: usize = 2;

    // Serial references, computed once up front.
    let graphs: Vec<TaskGraph> = (0..SUBMITTERS as u64).map(graph_case).collect();
    let platform = Platform::reference();
    let mapper_refs: Vec<MapperResult> = graphs
        .iter()
        .map(|g| decomposition_map_reference(g, &platform, &MapperConfig::sp_first_fit()))
        .collect();
    // Engine baselines, run serially: decision counters are
    // thread-count-invariant, so concurrent runs must reproduce them
    // exactly (the reference path reports zeros, so it cannot pin them).
    let engine_refs: Vec<MapperResult> = graphs
        .iter()
        .map(|g| decomposition_map(g, &platform, &mapper_cfg(ENGINE_THREADS)))
        .collect();
    let ga_refs: Vec<GaResult> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| nsga2_map_reference(g, &platform, &ga_cfg(1, 900 + i as u64)))
        .collect();

    for shards in [Some(1usize), Some(2), None] {
        let pool = Arc::new(match shards {
            Some(n) => Pool::with_shards(n),
            None => Pool::new(), // the SPMAP_SHARDS / auto default
        });
        let tag = format!("shards {:?}", shards);
        std::thread::scope(|scope| {
            for (i, g) in graphs.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let platform = &platform;
                let mapper_want = &mapper_refs[i];
                let engine_want = &engine_refs[i];
                let ga_want = &ga_refs[i];
                let tag = &tag;
                scope.spawn(move || {
                    // Thread-local knobs must be installed on the
                    // submitter thread itself.
                    with_pool(&pool, || {
                        if i % 2 == 0 {
                            let r = decomposition_map(g, platform, &mapper_cfg(ENGINE_THREADS));
                            assert_mapper_identical(&format!("{tag}, mapper {i}"), &r, mapper_want);
                            assert_eq!(
                                r.batch, engine_want.batch,
                                "{tag}, mapper {i}: decision counters \
                                 not concurrency-invariant"
                            );
                            let r2 =
                                nsga2_map(g, platform, &ga_cfg(ENGINE_THREADS, 900 + i as u64));
                            assert_ga_identical(&format!("{tag}, ga {i}"), &r2, ga_want);
                        } else {
                            let r2 =
                                nsga2_map(g, platform, &ga_cfg(ENGINE_THREADS, 900 + i as u64));
                            assert_ga_identical(&format!("{tag}, ga {i}"), &r2, ga_want);
                            let r = decomposition_map(g, platform, &mapper_cfg(ENGINE_THREADS));
                            assert_mapper_identical(&format!("{tag}, mapper {i}"), &r, mapper_want);
                            assert_eq!(
                                r.batch, engine_want.batch,
                                "{tag}, mapper {i}: decision counters \
                                 not concurrency-invariant"
                            );
                        }
                    });
                });
            }
        });
    }
}

/// Cold build, warm cache hit and a byte-starved always-evicting cache
/// all return the same bits; the hit/miss accounting tells the paths
/// apart.
#[test]
fn artifact_cache_temperature_cannot_change_results() {
    let platform = Arc::new(Platform::reference());
    let requests: Vec<MapRequest> = (0..4u64)
        .map(|case| {
            MapRequest::from_mapper_config(
                Arc::new(graph_case(case)),
                Arc::clone(&platform),
                &mapper_cfg(2),
            )
        })
        .collect();
    let references: Vec<MapperResult> = requests
        .iter()
        .map(|r| decomposition_map_reference(&r.graph, &r.platform, &MapperConfig::sp_first_fit()))
        .collect();

    let roomy = MapService::new(ServiceConfig::default());
    let starved = MapService::new(ServiceConfig {
        cache_budget_bytes: 1, // every insert immediately evicts
        ..ServiceConfig::default()
    });
    for (i, req) in requests.iter().enumerate() {
        let cold = roomy.map(req).expect("admitted");
        let warm = roomy.map(req).expect("admitted");
        let evicting = starved.map(req).expect("admitted");
        assert!(!cold.cache_hit, "first sight of graph {i} must build");
        assert!(warm.cache_hit, "second sight of graph {i} must hit");
        assert_eq!(cold.artifact_key, warm.artifact_key);
        assert_mapper_identical(&format!("cold {i}"), &cold.result, &references[i]);
        assert_mapper_identical(&format!("warm {i}"), &warm.result, &references[i]);
        assert_mapper_identical(&format!("evicting {i}"), &evicting.result, &references[i]);
    }
    let stats = roomy.stats();
    assert_eq!(stats.cache.hits as usize, requests.len());
    assert_eq!(stats.cache.misses as usize, requests.len());
    let starved_stats = starved.stats();
    assert_eq!(
        starved_stats.cache.hits, 0,
        "a 1-byte budget can never serve a hit"
    );
    assert!(starved_stats.cache.evictions >= requests.len() as u64 - 1);
}

/// The admission gate under concurrent load: `peak_inflight` stays at
/// or under the configured bound while queued submitters drain, and a
/// zero-queue service rejects (with accurate occupancy) instead of
/// buffering.
#[test]
fn admission_control_bounds_and_rejects() {
    let platform = Arc::new(Platform::reference());
    let req = MapRequest::from_mapper_config(
        Arc::new(graph_case(5)),
        Arc::clone(&platform),
        &mapper_cfg(2),
    );
    let reference =
        decomposition_map_reference(&req.graph, &req.platform, &MapperConfig::sp_first_fit());

    // 8 submitters through 2 slots + queue room for the rest.
    let service = Arc::new(MapService::new(ServiceConfig {
        max_inflight: 2,
        max_queued: 6,
        ..ServiceConfig::default()
    }));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let service = Arc::clone(&service);
            let req = req.clone();
            let reference = &reference;
            scope.spawn(move || {
                let resp = service.map(&req).expect("queue has room for all");
                assert_mapper_identical("gated run", &resp.result, reference);
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.rejected, 0);
    assert!(
        stats.peak_inflight <= 2,
        "admission bound exceeded: {} concurrent runs",
        stats.peak_inflight
    );
    assert!(stats.peak_queued <= 6);

    // Zero queue, one slot, four racing submitters: losers must be
    // rejected with accurate occupancy, never buffered, and every
    // admitted run still returns the reference bits.  (Whether a given
    // submit wins or loses is timing-dependent; the assertions hold
    // either way, and the accounting below is checked exactly.)
    let tight = MapService::new(ServiceConfig {
        max_inflight: 1,
        max_queued: 0,
        ..ServiceConfig::default()
    });
    const RACERS: usize = 4;
    const TRIES: usize = 25;
    std::thread::scope(|scope| {
        for _ in 0..RACERS {
            let tight = &tight;
            let req = &req;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..TRIES {
                    match tight.map(req) {
                        Ok(resp) => assert_mapper_identical("racer", &resp.result, reference),
                        Err(err) => assert!(
                            matches!(
                                err,
                                ServiceError::Overloaded {
                                    inflight: 1,
                                    queued: 0,
                                    retry_hint: 1,
                                }
                            ),
                            "rejection must report accurate occupancy, got {err:?}"
                        ),
                    }
                }
            });
        }
    });
    let stats = tight.stats();
    assert_eq!(stats.peak_inflight, 1, "zero-queue bound is hard");
    assert_eq!(
        stats.admitted + stats.rejected,
        (RACERS * TRIES) as u64,
        "every submit is either admitted or rejected"
    );
    assert_eq!(stats.completed, stats.admitted, "admitted runs all finish");
}

/// Each session's perturbation life: lose the GPU, take an arrival wired
/// to the sink, get the GPU back, retire one task.  Deterministic per
/// session index.
fn perturbation_sequence(i: usize, g: &TaskGraph) -> Vec<Vec<Perturbation>> {
    let n = g.node_count() as u32;
    let sub = random_sp_graph(&SpGenConfig::new(5, 400 + i as u64));
    vec![
        vec![Perturbation::DeviceLost(DeviceId(1))],
        vec![Perturbation::TaskArrived {
            subgraph: sub,
            attach: vec![AttachEdge::Into {
                from: NodeId(n - 1),
                to_new: 0,
                bytes: 1e6,
            }],
        }],
        vec![Perturbation::DeviceRestored(DeviceId(1))],
        vec![Perturbation::TaskFinished(vec![NodeId(i as u32 % n)])],
    ]
}

fn assert_outcomes_identical(tag: &str, got: &RemapOutcome, want: &RemapOutcome) {
    assert_eq!(got.mapping, want.mapping, "{tag}: mapping diverged");
    assert_eq!(got.makespan, want.makespan, "{tag}: makespan diverged");
    assert_eq!(got.history, want.history, "{tag}: history diverged");
    assert_eq!(
        got.iterations, want.iterations,
        "{tag}: iterations diverged"
    );
    assert_eq!(
        got.neighborhood_ops, want.neighborhood_ops,
        "{tag}: neighborhood diverged"
    );
    assert_eq!(
        got.session_key, want.session_key,
        "{tag}: session key diverged"
    );
    assert_eq!(got.warm, want.warm, "{tag}: path flag diverged");
    assert_eq!(got.noop, want.noop, "{tag}: noop flag diverged");
}

/// Session lifecycle under concurrency: one thread per session drives
/// its perturbation sequence through a shared service, across explicit
/// shard counts, and every remap outcome is bit-identical to serially
/// replaying the same sequence through a fresh standalone
/// [`RemapSession`].  Empty-perturbation remaps return
/// the incumbent bits at every point of the life cycle.
#[test]
fn concurrent_session_remaps_replay_bit_identically() {
    const SESSIONS: usize = 6;

    let platform = Arc::new(Platform::reference());
    let requests: Vec<MapRequest> = (0..SESSIONS as u64)
        .map(|case| {
            MapRequest::from_mapper_config(
                Arc::new(graph_case(case)),
                Arc::clone(&platform),
                &mapper_cfg(2),
            )
        })
        .collect();
    let sequences: Vec<Vec<Vec<Perturbation>>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| perturbation_sequence(i, &r.graph))
        .collect();

    // The serial replay references: a fresh standalone session per
    // request, stepped through the same sequence on this thread.
    let references: Vec<Vec<RemapOutcome>> = requests
        .iter()
        .zip(&sequences)
        .map(|(req, seq)| {
            let mut s = spmap::core::RemapSession::open(req, None).expect("reference session");
            seq.iter()
                .map(|batch| s.remap(batch).expect("reference remap"))
                .collect()
        })
        .collect();

    for shards in [1usize, 2] {
        let pool = Arc::new(Pool::with_shards(shards));
        let tag = format!("shards {shards}");
        let service = Arc::new(MapService::new(ServiceConfig {
            max_inflight: SESSIONS,
            max_queued: SESSIONS,
            ..ServiceConfig::default()
        }));
        std::thread::scope(|scope| {
            for (i, req) in requests.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let service = Arc::clone(&service);
                let seq = &sequences[i];
                let want = &references[i];
                let tag = &tag;
                scope.spawn(move || {
                    with_pool(&pool, || {
                        let opened = service.open_session(req).expect("open");
                        assert_eq!(
                            opened.result.mapping,
                            want_initial(req),
                            "{tag}, session {i}: opening map diverged"
                        );
                        for (step, batch) in seq.iter().enumerate() {
                            // An empty batch between real steps
                            // must hand back the incumbent bits.
                            let noop = service.remap(opened.id, &[]).expect("noop");
                            assert!(noop.noop, "{tag}, session {i}: empty batch ran");
                            let out = service.remap(opened.id, batch).expect("remap");
                            assert_eq!(
                                noop.mapping,
                                if step == 0 {
                                    opened.result.mapping.clone()
                                } else {
                                    want[step - 1].mapping.clone()
                                },
                                "{tag}, session {i}: noop changed bits"
                            );
                            assert_outcomes_identical(
                                &format!("{tag}, session {i}, step {step}"),
                                &out,
                                &want[step],
                            );
                        }
                        let closed = service.close_session(opened.id).expect("close");
                        let last = want.last().expect("non-empty sequence");
                        assert_eq!(closed.mapping, last.mapping);
                        assert_eq!(closed.makespan, last.makespan);
                    });
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.sessions_opened, SESSIONS as u64, "{tag}");
        assert_eq!(stats.sessions_closed, SESSIONS as u64, "{tag}");
        assert_eq!(stats.remaps, (SESSIONS * 4) as u64, "{tag}");
        assert_eq!(stats.remaps_noop, (SESSIONS * 4) as u64, "{tag}");
        assert_eq!(service.open_sessions(), 0, "{tag}");
    }
}

/// The opening full map a session must reproduce — computed directly.
fn want_initial(req: &MapRequest) -> Mapping {
    let cfg = req.mapper_config().expect("decomposition family");
    decomposition_map(&req.graph, &req.platform, &cfg).mapping
}

/// `close_session` racing an inflight `remap`: the close removes the
/// registry entry first and then waits out the session lock, so the
/// race has exactly two legal outcomes — pinned here over repeated
/// barrier-synchronized rounds.
///
/// * The remap fetched the session before the close removed it: both
///   proceed, serialized by the session lock.  If the remap locked
///   first, the close reads the post-remap state (`remaps == 1`, final
///   mapping == the remap's); if the close locked first, it reads the
///   initial state and the remap still completes on its own handle,
///   bit-identical to the reference.
/// * The close removed the entry first: the remap gets a typed
///   `UnknownSession` refusal, never a panic or a torn state.
#[test]
fn close_session_racing_inflight_remap_has_exactly_two_outcomes() {
    const ROUNDS: usize = 20;

    let platform = Arc::new(Platform::reference());
    let req = MapRequest::from_mapper_config(
        Arc::new(graph_case(3)),
        Arc::clone(&platform),
        &mapper_cfg(2),
    );
    let batch = vec![Perturbation::DeviceLost(DeviceId(1))];
    // The remap's reference outcome: a fresh standalone session stepped
    // once (the racing remap, when it runs, always starts from the
    // session's initial state — it is the only remap the session sees).
    let reference = {
        let mut s = spmap::core::RemapSession::open(&req, None).expect("reference session");
        s.remap(&batch).expect("reference remap")
    };

    let service = Arc::new(MapService::new(ServiceConfig {
        max_inflight: 2,
        max_queued: 2,
        ..ServiceConfig::default()
    }));
    let mut remaps_ok = 0u64;
    let mut unknown = 0u64;
    for round in 0..ROUNDS {
        let opened = service.open_session(&req).expect("open");
        let initial = opened.result.mapping.clone();
        let barrier = std::sync::Barrier::new(2);
        let (remap_outcome, closed) = std::thread::scope(|scope| {
            let remapper = {
                let service = Arc::clone(&service);
                let barrier = &barrier;
                let batch = &batch;
                scope.spawn(move || {
                    barrier.wait();
                    service.remap(opened.id, batch)
                })
            };
            let closer = {
                let service = Arc::clone(&service);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    service.close_session(opened.id).expect("single close")
                })
            };
            (
                remapper.join().expect("remap thread"),
                closer.join().expect("close thread"),
            )
        });

        assert!(!closed.poisoned, "round {round}: nothing panicked here");
        match remap_outcome {
            Ok(out) => {
                remaps_ok += 1;
                assert_outcomes_identical(&format!("round {round}"), &out, &reference);
                if closed.remaps == 1 {
                    // The remap locked first: the close read its commit.
                    assert_eq!(closed.mapping, out.mapping, "round {round}");
                    assert_eq!(closed.makespan, out.makespan, "round {round}");
                } else {
                    // The close locked first: it read the initial state
                    // and the remap finished on its own handle.
                    assert_eq!(closed.remaps, 0, "round {round}");
                    assert_eq!(closed.mapping, initial, "round {round}");
                }
            }
            Err(ServiceError::UnknownSession(id)) => {
                unknown += 1;
                assert_eq!(id, opened.id, "round {round}");
                assert_eq!(closed.remaps, 0, "round {round}");
                assert_eq!(closed.mapping, initial, "round {round}");
            }
            Err(other) => panic!("round {round}: unexpected remap outcome {other:?}"),
        }
    }

    let stats = service.stats();
    assert_eq!(stats.sessions_opened, ROUNDS as u64);
    assert_eq!(stats.sessions_closed, ROUNDS as u64);
    assert_eq!(stats.remaps, remaps_ok, "only Ok remaps are counted");
    assert_eq!(remaps_ok + unknown, ROUNDS as u64);
    assert_eq!(service.open_sessions(), 0);
    assert_eq!(
        stats.admitted,
        stats.completed + stats.failed,
        "accounting balances: a typed UnknownSession refusal is still a \
         completed request"
    );
}

/// The artifact key covers the whole subgraph strategy.  On one
/// almost-SP graph, every strategy — single-node, series-parallel under
/// each cut policy, and the random policy under two seeds — maps
/// bit-identically to a direct `decomposition_map` both cold and warm,
/// and interleaving them leaves one resident artifact per strategy:
/// no strategy is ever served another's candidate set.
#[test]
fn strategy_keyed_artifacts_are_bit_identical_and_never_shared() {
    let sp = |cut_policy| SubgraphStrategy::SeriesParallel { cut_policy };
    let strategies = [
        SubgraphStrategy::SingleNode,
        sp(CutPolicy::SmallestSubtree),
        sp(CutPolicy::LargestSubtree),
        sp(CutPolicy::FirstActive),
        sp(CutPolicy::Random { seed: 3 }),
        sp(CutPolicy::Random { seed: 4 }),
    ];
    let mut g = almost_sp_graph(&SpGenConfig::new(40, 77), 6);
    augment(&mut g, &AugmentConfig::default(), 77);
    let graph = Arc::new(g);
    let platform = Arc::new(Platform::reference());
    let configs: Vec<MapperConfig> = strategies
        .iter()
        .map(|&strategy| MapperConfig {
            strategy,
            ..mapper_cfg(2)
        })
        .collect();
    let direct: Vec<MapperResult> = configs
        .iter()
        .map(|cfg| decomposition_map(&graph, &platform, cfg))
        .collect();
    // The sets really differ (the two random seeds included), so an
    // artifact served to the wrong strategy shows in `subgraph_count`.
    let mut counts: Vec<usize> = direct.iter().map(|d| d.subgraph_count).collect();
    assert_ne!(counts[4], counts[5], "random seeds must cut differently");
    counts.sort_unstable();
    counts.dedup();
    assert!(
        counts.len() >= 5,
        "strategies share candidate sets: {counts:?}"
    );
    let requests: Vec<MapRequest> = configs
        .iter()
        .map(|cfg| MapRequest::from_mapper_config(Arc::clone(&graph), Arc::clone(&platform), cfg))
        .collect();

    for shards in [1usize, 2] {
        let pool = Arc::new(Pool::with_shards(shards));
        with_pool(&pool, || {
            let service = MapService::new(ServiceConfig::default());
            let mut keys: Vec<u128> = Vec::new();
            for round in 0..2 {
                for (i, req) in requests.iter().enumerate() {
                    let tag = format!("shards {shards}, round {round}, strategy {i}");
                    let resp = service.map(req).expect("admitted");
                    assert_eq!(resp.cache_hit, round == 1, "{tag}: hit/miss");
                    let (got, want) = (&resp.result, &direct[i]);
                    assert_mapper_identical(&tag, got, want);
                    assert_eq!(got.subgraph_count, want.subgraph_count, "{tag}");
                    assert_eq!(got.iterations, want.iterations, "{tag}");
                    assert_eq!(got.batch, want.batch, "{tag}: decision counters");
                    if round == 0 {
                        assert!(!keys.contains(&resp.artifact_key), "{tag}: key reused");
                        keys.push(resp.artifact_key);
                    } else {
                        assert_eq!(resp.artifact_key, keys[i], "{tag}: key moved");
                    }
                }
            }
            let stats = service.stats().cache;
            let n = strategies.len() as u64;
            assert_eq!((stats.misses, stats.hits), (n, n), "shards {shards}");
            assert_eq!(stats.peak_entries as u64, n, "one artifact per strategy");
            assert_eq!(stats.evictions, 0, "shards {shards}");
        });
    }
}
