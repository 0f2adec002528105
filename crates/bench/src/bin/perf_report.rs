//! `perf_report` — measures the incremental + parallel candidate engine
//! against the serial seed path and emits machine-readable
//! `BENCH_mapper.json`.
//!
//! For each graph size it runs the full `SeriesParallel`-strategy mapper
//! (exhaustive search) three ways:
//!
//! * `serial` — `decomposition_map_reference`, the seed implementation:
//!   one full simulation per candidate per iteration (one full *sweep*
//!   of `k + 1` simulations in `report_makespan` mode), single-threaded,
//! * `batch1` — the engine on **one** thread (isolates the pruning +
//!   memoization + windowing win; zero thread spawns),
//! * `batchN` — the engine on `--threads N` workers (default 8).
//!
//! Both cost models are measured: the breadth-first inner loop (`bfs`
//! rows) and the paper's multi-schedule reporting metric (`report` rows,
//! `--report-schedules k` random schedules on top of BFS; default 4,
//! `0` skips them).  All runs produce bit-identical mappings (asserted
//! here, proven at scale by `tests/equivalence.rs`), and the binary
//! **fails** if the incremental report sweep is slower than the
//! reference serial sweep — the CI perf gate.
//!
//! The NSGA-II baseline gets the same treatment (`ga` rows): the
//! engine-backed GA (`nsga2_map`, population engine: fitness memo +
//! base-trail windows + heap-free pop-order replays + parallel sims) is
//! measured against the kept serial reference (`nsga2_map_reference`),
//! with bit-identical per-seed best makespan/history asserted, a
//! fail-if-slower gate, and the memo-capacity invariant checked from
//! the engine statistics.  `--full` adds the 1024/2048-node sweep
//! points that the serial GA baseline previously made impractical.
//!
//! The GA is also measured under **both evaluation orders** of the
//! population engine: the prefix-sharing trie order (default; rolling
//! checkpoint trails over the genome trie's DFS walk) against the flat
//! PR 3 nearest-base order kept as the executable spec.  Results are
//! asserted bit-identical, per-row `windowed_skip_rate` /
//! `trie_depth_mean` / `prefix_shared_positions` land on stdout and in
//! the JSON, and the binary **fails** if the trie order *steps more
//! schedule positions* than the nearest-base order (a deterministic,
//! noise-free counter — the quantity the ordering optimizes; the trie
//! steps 1.03–1.12x fewer), if its wall-clock loses by more than a
//! loose 25 % backstop on the ≥200-node rows (both sides timed twice,
//! minimum taken; the ~10 % position saving sits inside shared-runner
//! timer noise, so wall-clock alone cannot carry a tight gate), or if
//! the windowed skip rate drops below 30 % on the 500-node row (PR 3's
//! flat order measured ~26 %; the trie holds ~34 %, the
//! mutation-bounded ceiling — see docs/PERF.md) — the trie CI perf
//! gates.
//! `--ga-only` runs just the GA rows (and their gates) at the standard
//! sizes: the cheap CI entry point for the trie gates.
//! `--sizes a,b,..` replaces the built-in size lists of both the mapper
//! and GA loops (including the `--full` 1024/2048 GA extension, which
//! used to be hardcoded).
//!
//! `--xl` switches to the **scale tier**: 10k/50k/100k-node layered
//! DAGs with constant average degree, measuring (a) the per-position
//! cost of the cache-conscious pop-order simulation kernel against a
//! 500-node baseline of the same shape (CI gate: ≤ 2x at the first XL
//! size — schedule-order renumbering keeps successor updates
//! near-sequential, so the kernel must stay close to its in-cache
//! figure when the tables outgrow L2), (b) a bounded `sp_first_fit`
//! mapper row per size (the 100k row proves the engine completes at
//! scale), and (c) a small GA row at the first size exercising rolling
//! suffix-sparse trails + the trail cache.  Every row reports its peak
//! checkpoint bytes, gated against the 32 MiB per-trail budget.
//! `--xl --quick` keeps only the first size — the CI smoke.
//!
//! `--service` switches to the **service tier**: a concurrent-client
//! closed-loop load against the long-lived `MapService` (bounded
//! admission + content-addressed artifact cache over the sharded
//! worker pool).  It asserts bit-identity of every response against the
//! direct mapper — across cache temperature, client concurrency and
//! explicit 1/2-shard pools — then measures 1-client and 4-client
//! phases and reports sustained mappings/sec, p50/p99 latency, cache
//! hit rate and the per-shard batch histogram.  The CI gate (4 clients
//! ≥ 1.5x 1 client) is enforced only when the box has ≥ 4 cores;
//! identity is asserted unconditionally.
//!
//! `--remap` switches to the **remap tier**: warm-start remapping
//! sessions against runtime perturbations (device loss/recovery, task
//! arrival/completion, attribute drift) on 506/2048-node layered DAGs
//! (`--full` adds 10k).  Each perturbation kind is timed through the
//! warm neighborhood path and the from-scratch fallback on fresh
//! sessions (min of two replays each, replay bit-identity asserted),
//! and the binary **fails** if a single-device-loss warm remap is
//! slower than the from-scratch re-map at any gated size — the remap
//! CI latency gate.
//!
//! `--chaos` switches to the **chaos tier** (requires building with
//! `--features fault-injection`): seeded fault rounds against a live
//! `MapService` — each round arms one `(site, hit, kind)` plan from the
//! deterministic `FaultSchedule` and drives concurrent retrying clients
//! through it.  The harness asserts the containment contract (typed
//! error to the faulted caller, bit-identical untouched responses,
//! balanced admission accounting, fault-free clean pass afterwards —
//! see docs/ROBUSTNESS.md) and reports goodput under chaos plus retry
//! and per-site fired-fault counters.  `--chaos --quick` is the CI
//! smoke.
//!
//! Each mode writes its own report file — `BENCH_mapper.json`
//! (standard), `BENCH_mapper_xl.json` (`--xl`), `BENCH_service.json`
//! (`--service`), `BENCH_remap.json` (`--remap`), `BENCH_chaos.json`
//! (`--chaos`) — so CI cells can upload all of them without
//! clobbering; `--out <path>` overrides the destination.
//!
//! Usage: `cargo run --release -p spmap-bench --bin perf_report
//!         [--quick] [--full] [--ga-only] [--xl] [--service] [--remap]
//!         [--chaos] [--threads 8] [--seed 2025] [--report-schedules 4]
//!         [--sizes a,b,..] [--out <path>]`

use std::fmt::Write as _;
use std::time::Instant;

use spmap_bench::cli::Opts;
use spmap_core::EvalOrder;
use spmap_core::{
    decomposition_map, decomposition_map_reference, CostModel, EngineConfig, MapperConfig,
};
use spmap_ga::{nsga2_map, nsga2_map_reference, GaConfig};
use spmap_graph::gen::{layered_random, LayeredConfig};
use spmap_graph::{augment, AugmentConfig, TaskGraph};
use spmap_model::{
    EvalScratch, EvalTables, Mapping, Platform, ScheduleCheckpoints,
    DEFAULT_CHECKPOINT_BUDGET_BYTES,
};

/// GA generation budget of the `ga` rows: the paper's §IV-A default in
/// real runs, trimmed for the `--quick` CI smoke.
const GA_GENERATIONS: usize = 500;
const GA_GENERATIONS_QUICK: usize = 250;

/// Write the mode's JSON report to its default file or the `--out`
/// override.
fn write_report(opts: &Opts, default_name: &str, json: &str) {
    let path = opts.out.as_deref().unwrap_or(default_name);
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// A layered (non-series-parallel) DAG of ~`nodes` tasks with the
/// paper's attribute augmentation — the mapper's stress shape.
fn layered_dag(nodes: usize, seed: u64) -> TaskGraph {
    let width = (nodes as f64).sqrt().round() as usize;
    let layers = nodes.div_ceil(width);
    let mut g = layered_random(&LayeredConfig {
        layers,
        width,
        density: 0.25,
        seed,
        edge_bytes: 50e6,
    });
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

// ---- the XL scale tier (`--xl`) ----

/// XL graph sizes; `--quick` keeps only the first (the CI smoke) and
/// `--sizes` overrides the list outright.
const XL_SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// Baseline size of the per-position gate: the standard tier's largest
/// row re-generated in the XL shape, so the gate compares memory
/// layouts rather than graph families.
const XL_BASELINE_NODES: usize = 500;

/// The kernel CI gate: the first XL size's per-position time may cost
/// at most this multiple of the baseline's.  Schedule-order renumbering
/// makes the successor updates near-sequential, so the kernel should
/// stay close to its in-cache figure even once the tables leave L2.
const XL_KERNEL_GATE_RATIO: f64 = 2.0;

/// GA parameters of the XL GA row: enough generations to exercise the
/// rolling suffix-sparse trails and the trail cache at scale without
/// turning the smoke into a soak (the standard tier already measures
/// GA throughput).
const XL_GA_POPULATION: usize = 24;
const XL_GA_GENERATIONS: usize = 10;

/// A layered DAG with *constant* average out-degree (≈ 4 edges/node)
/// instead of the standard tier's constant `density` — whose degree
/// grows as `0.25·√n` and would change the per-position work itself at
/// 10k–100k nodes.  The kernel gate is about memory layout, not edge
/// count, so the XL shape holds the per-node work fixed across sizes.
fn xl_layered_dag(nodes: usize, seed: u64) -> TaskGraph {
    let width = (nodes as f64).sqrt().round() as usize;
    let layers = nodes.div_ceil(width);
    let mut g = layered_random(&LayeredConfig {
        layers,
        width,
        density: 4.0 / width as f64,
        seed,
        edge_bytes: 50e6,
    });
    augment(&mut g, &AugmentConfig::default(), seed);
    g
}

struct XlKernelRow {
    nodes: usize,
    edges: usize,
    /// Minimum observed wall time of one pop-order replay, per node.
    ns_per_position: f64,
    /// Snapshot payload of the checkpointed replay (suffix-sparse under
    /// the default pop-order numbering) — gated against the budget.
    checkpoint_bytes: usize,
    snapshot_every: usize,
}

/// Per-position cost of the cache-conscious simulation kernel: the
/// pop-order checkpointed replay (the exact path every windowed replay
/// and rolling trail runs), timed on the all-default mapping, minimum
/// of a few repetitions to steady the clock.
fn measure_xl_kernel(g: &TaskGraph, p: &Platform) -> XlKernelRow {
    let n = g.node_count();
    let tables = EvalTables::new(g, p);
    let mut scratch = EvalScratch::for_tables(&tables);
    let mapping = Mapping::all_default(g, p);
    let every = ScheduleCheckpoints::auto_interval_for(n, 0);
    let mut ckpt = ScheduleCheckpoints::new(every);
    // The warm-up run also shapes the checkpoint store.
    let warm = tables
        .makespan_bfs_checkpointed(&mut scratch, &mapping, &mut ckpt)
        .expect("the all-default mapping simulates");
    let reps = (1_000_000 / n.max(1)).clamp(3, 50);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let ms = tables
            .makespan_bfs_checkpointed(&mut scratch, &mapping, &mut ckpt)
            .expect("the all-default mapping simulates");
        best = best.min(t.elapsed().as_secs_f64());
        assert_eq!(ms, warm, "kernel must be deterministic");
    }
    XlKernelRow {
        nodes: n,
        edges: g.edge_count(),
        ns_per_position: best * 1e9 / n as f64,
        checkpoint_bytes: ckpt.byte_len(),
        snapshot_every: every,
    }
}

struct XlMapperRow {
    seconds: f64,
    iterations: usize,
    evaluations: u64,
    checkpoint_peak_bytes: u64,
    improvement: f64,
}

/// A bounded mapper row: `sp_first_fit` under the BFS cost model with
/// an iteration cap of 2 — enough to push full batches of windowed
/// candidate evaluations through the engine at 10k–100k nodes (the
/// completion proof the tier exists for) without an open-ended greedy
/// descent.
fn measure_xl_mapper(g: &TaskGraph, p: &Platform, threads: usize) -> XlMapperRow {
    let cfg = MapperConfig {
        cost: CostModel::Bfs,
        iteration_cap: Some(2),
        engine: EngineConfig {
            threads: Some(threads),
            ..EngineConfig::default()
        },
        ..MapperConfig::sp_first_fit()
    };
    let t = Instant::now();
    let r = decomposition_map(g, p, &cfg);
    XlMapperRow {
        seconds: t.elapsed().as_secs_f64(),
        iterations: r.iterations,
        evaluations: r.evaluations,
        checkpoint_peak_bytes: r.checkpoint_peak_bytes,
        improvement: r.relative_improvement(),
    }
}

struct XlGaRow {
    nodes: usize,
    edges: usize,
    seconds: f64,
    evaluations: u64,
    positions: u64,
    checkpoint_peak_bytes: u64,
}

/// A small GA row at the first XL size: rolling trails, the trail
/// cache, and windowed replays all run at a node count where a dense
/// snapshot trail would cost ~8x the suffix-sparse one.
fn measure_xl_ga(g: &TaskGraph, p: &Platform, threads: usize, seed: u64) -> XlGaRow {
    let cfg = GaConfig {
        population: XL_GA_POPULATION,
        generations: XL_GA_GENERATIONS,
        seed,
        threads: Some(threads),
        ..GaConfig::default()
    };
    let t = Instant::now();
    let r = nsga2_map(g, p, &cfg);
    XlGaRow {
        nodes: g.node_count(),
        edges: g.edge_count(),
        seconds: t.elapsed().as_secs_f64(),
        evaluations: r.evaluations,
        positions: r.positions,
        checkpoint_peak_bytes: r.checkpoint_peak_bytes,
    }
}

/// The `--xl` entry point: measure, gate, write `BENCH_mapper_xl.json`.
fn run_xl(opts: &Opts) {
    let threads = opts.threads.unwrap_or(8);
    let sizes: Vec<usize> = match &opts.sizes {
        Some(s) => s.clone(),
        None if opts.quick => vec![XL_SIZES[0]],
        None => XL_SIZES.to_vec(),
    };
    let budget = DEFAULT_CHECKPOINT_BUDGET_BYTES;

    println!(
        "perf_report --xl: scale tier, pop-order kernel + suffix-sparse checkpoints \
         ({threads} threads; per-trail budget {} MiB)\n",
        budget >> 20
    );
    println!(
        "{:>7} {:>8} {:>9} {:>9} {:>11} {:>10} {:>9} {:>9}",
        "nodes", "edges", "ns/pos", "vs base", "ckpt bytes", "mapper", "iters", "peak MB"
    );

    let p = Platform::reference();
    let baseline = measure_xl_kernel(&xl_layered_dag(XL_BASELINE_NODES, opts.seed), &p);
    println!(
        "{:>7} {:>8} {:>9.1} {:>9} {:>11} {:>10} {:>9} {:>9}",
        baseline.nodes,
        baseline.edges,
        baseline.ns_per_position,
        "1.00x",
        baseline.checkpoint_bytes,
        "baseline",
        "-",
        "-"
    );

    let mut rows: Vec<(XlKernelRow, XlMapperRow)> = Vec::new();
    let mut ga_row = None;
    for (i, &nodes) in sizes.iter().enumerate() {
        let g = xl_layered_dag(nodes, opts.seed);
        let k = measure_xl_kernel(&g, &p);
        let m = measure_xl_mapper(&g, &p, threads);
        println!(
            "{:>7} {:>8} {:>9.1} {:>8.2}x {:>11} {:>9.2}s {:>9} {:>9.2}",
            k.nodes,
            k.edges,
            k.ns_per_position,
            k.ns_per_position / baseline.ns_per_position,
            k.checkpoint_bytes,
            m.seconds,
            m.iterations,
            m.checkpoint_peak_bytes as f64 / (1 << 20) as f64,
        );
        if i == 0 {
            ga_row = Some(measure_xl_ga(&g, &p, threads, opts.seed));
        }
        rows.push((k, m));
    }
    let ga = ga_row.expect("--xl needs at least one size");
    println!(
        "\nga xl row ({} nodes, pop {}, {} generations): {:.2}s, {} evaluations, \
         {} positions, peak trail {:.2} MB",
        ga.nodes,
        XL_GA_POPULATION,
        XL_GA_GENERATIONS,
        ga.seconds,
        ga.evaluations,
        ga.positions,
        ga.checkpoint_peak_bytes as f64 / (1 << 20) as f64,
    );

    // The kernel CI gate: per-position time at the first XL size within
    // 2x of the same-shape 500-node baseline.  A miss means the
    // renumbered layout stopped paying — per-position work is constant
    // by construction (fixed average degree), so only memory behavior
    // can move this ratio.
    let head = &rows[0].0;
    let ratio = head.ns_per_position / baseline.ns_per_position;
    println!(
        "xl kernel gate ({} nodes): {:.1} ns/position vs {:.1} baseline = {:.2}x (max {:.1}x)",
        head.nodes, head.ns_per_position, baseline.ns_per_position, ratio, XL_KERNEL_GATE_RATIO,
    );
    assert!(
        ratio <= XL_KERNEL_GATE_RATIO,
        "per-position kernel cost at {} nodes regressed to {:.2}x the {}-node baseline \
         ({:.1} vs {:.1} ns/position; gate {:.1}x)",
        head.nodes,
        ratio,
        baseline.nodes,
        head.ns_per_position,
        baseline.ns_per_position,
        XL_KERNEL_GATE_RATIO,
    );
    // The byte-budget CI gate: every snapshot trail the tier touched —
    // the raw kernel's checkpoint store, the mapper engine's per-trail
    // peak, the GA's rolling trails + trail cache — fits the per-trail
    // budget.  `auto_interval_for` widens the snapshot interval to make
    // this hold by construction; the gate catches that math drifting
    // from the stores it is supposed to bound.
    for (k, m) in &rows {
        assert!(
            k.checkpoint_bytes <= budget,
            "kernel checkpoint store at {} nodes exceeds the per-trail budget: {} > {budget}",
            k.nodes,
            k.checkpoint_bytes,
        );
        assert!(
            (m.checkpoint_peak_bytes as usize) <= budget,
            "mapper engine checkpoint peak at {} nodes exceeds the per-trail budget: {} > {budget}",
            k.nodes,
            m.checkpoint_peak_bytes,
        );
    }
    assert!(
        (ga.checkpoint_peak_bytes as usize) <= budget,
        "GA checkpoint peak at {} nodes exceeds the per-trail budget: {} > {budget}",
        ga.nodes,
        ga.checkpoint_peak_bytes,
    );

    // ---- machine-readable report ----
    let mut json = String::from("{\n  \"benchmark\": \"xl_scale_tier\",\n");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"checkpoint_budget_bytes\": {budget},");
    let _ = writeln!(json, "  \"kernel_gate_ratio_max\": {XL_KERNEL_GATE_RATIO},");
    let _ = writeln!(json, "  \"baseline\": {{");
    let _ = writeln!(json, "    \"nodes\": {},", baseline.nodes);
    let _ = writeln!(json, "    \"edges\": {},", baseline.edges);
    let _ = writeln!(
        json,
        "    \"kernel_ns_per_position\": {:.2},",
        baseline.ns_per_position
    );
    let _ = writeln!(
        json,
        "    \"checkpoint_bytes\": {},",
        baseline.checkpoint_bytes
    );
    let _ = writeln!(json, "    \"snapshot_every\": {}", baseline.snapshot_every);
    let _ = writeln!(json, "  }},");
    json.push_str("  \"xl_runs\": [\n");
    for (i, (k, m)) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"nodes\": {},", k.nodes);
        let _ = writeln!(json, "      \"edges\": {},", k.edges);
        let _ = writeln!(
            json,
            "      \"kernel_ns_per_position\": {:.2},",
            k.ns_per_position
        );
        let _ = writeln!(
            json,
            "      \"kernel_vs_baseline\": {:.3},",
            k.ns_per_position / baseline.ns_per_position
        );
        let _ = writeln!(json, "      \"checkpoint_bytes\": {},", k.checkpoint_bytes);
        let _ = writeln!(json, "      \"snapshot_every\": {},", k.snapshot_every);
        let _ = writeln!(json, "      \"mapper_seconds\": {:.6},", m.seconds);
        let _ = writeln!(json, "      \"mapper_iterations\": {},", m.iterations);
        let _ = writeln!(json, "      \"mapper_evaluations\": {},", m.evaluations);
        let _ = writeln!(
            json,
            "      \"mapper_checkpoint_peak_bytes\": {},",
            m.checkpoint_peak_bytes
        );
        let _ = writeln!(
            json,
            "      \"mapper_relative_improvement\": {:.6}",
            m.improvement
        );
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"ga_xl\": {{");
    let _ = writeln!(json, "    \"nodes\": {},", ga.nodes);
    let _ = writeln!(json, "    \"edges\": {},", ga.edges);
    let _ = writeln!(json, "    \"population\": {XL_GA_POPULATION},");
    let _ = writeln!(json, "    \"generations\": {XL_GA_GENERATIONS},");
    let _ = writeln!(json, "    \"seconds\": {:.6},", ga.seconds);
    let _ = writeln!(json, "    \"evaluations\": {},", ga.evaluations);
    let _ = writeln!(json, "    \"positions\": {},", ga.positions);
    let _ = writeln!(
        json,
        "    \"checkpoint_peak_bytes\": {}",
        ga.checkpoint_peak_bytes
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kernel_gate_nodes\": {},", head.nodes);
    let _ = writeln!(json, "  \"kernel_vs_baseline\": {ratio:.3}");
    json.push_str("}\n");
    write_report(opts, "BENCH_mapper_xl.json", &json);
}

// ---- the service tier (`--service`) ----

/// Throughput gate of the 4-client phase against the 1-client phase,
/// enforced on boxes with at least [`SERVICE_GATE_MIN_CORES`] cores:
/// with per-request engine parallelism held fixed, four concurrent
/// clients dispatching through distinct pool shards must sustain at
/// least this multiple of a lone client's throughput.
const SERVICE_GATE_RATIO: f64 = 1.5;
const SERVICE_GATE_MIN_CORES: usize = 4;

/// The `--service` entry point: identity checks, 1-client and 4-client
/// load phases, gate, write `BENCH_service.json`.
fn run_service(opts: &Opts) {
    use spmap_bench::service_load::{
        assert_identical, build_requests, reference_results, run_phase, service_for_load, warm_up,
        RetryPolicy, ServiceLoadConfig,
    };
    use spmap_core::{MapService, ServiceConfig};
    use spmap_par::pool::Pool;
    use spmap_par::with_pool;
    use std::sync::Arc;

    let engine_threads = opts.threads.unwrap_or(2).max(2);
    let base = ServiceLoadConfig {
        clients: 1,
        requests_per_client: if opts.quick { 8 } else { 24 },
        distinct_graphs: if opts.quick { 3 } else { 6 },
        nodes: if opts.quick { 48 } else { 120 },
        seed: opts.seed,
        engine_threads,
        retry: None,
    };
    let shards = spmap_par::num_shards();
    println!(
        "perf_report --service: MapService load ({} distinct {}-node graphs, \
         {} engine threads/request, {} pool shards)\n",
        base.distinct_graphs, base.nodes, engine_threads, shards
    );

    let requests = build_requests(&base);
    let references = reference_results(&requests);

    // ---- bit-identity across shard counts, cache temperature and
    //      concurrency (asserted on every box, gated nowhere) ----
    // Explicit 1- and 2-shard pools: the shard layout may move work
    // between threads but never change a mapping.
    for shard_count in [1usize, 2] {
        let pool = Arc::new(Pool::with_shards(shard_count));
        with_pool(&pool, || {
            let service = service_for_load(1);
            for (i, req) in requests.iter().enumerate() {
                let cold = service.map(req).expect("identity run admitted");
                let warm = service.map(req).expect("identity run admitted");
                assert!(!cold.cache_hit && warm.cache_hit);
                let label = format!("{shard_count}-shard pool, graph {i}");
                assert_identical(&format!("{label} (cold)"), &cold.result, &references[i]);
                assert_identical(&format!("{label} (warm)"), &warm.result, &references[i]);
            }
        });
    }
    println!("identity: cold/warm x {{1,2}}-shard pools bit-identical to the direct mapper");

    // Eviction cannot change results either: a cache too small to hold
    // even one artifact rebuilds every time and still matches.
    {
        let service = Arc::new(MapService::new(ServiceConfig {
            max_inflight: 1,
            max_queued: 0,
            cache_budget_bytes: 1,
            ..ServiceConfig::default()
        }));
        for (i, req) in requests.iter().enumerate() {
            let resp = service.map(req).expect("eviction run admitted");
            assert_identical(
                &format!("1-byte-budget cache, graph {i}"),
                &resp.result,
                &references[i],
            );
        }
        println!("identity: byte-starved (always-evicting) cache bit-identical as well");
    }

    // ---- load phases ----
    let total_requests = 4 * base.requests_per_client;
    let mut phases = Vec::new();
    let mut cold_seconds = 0.0;
    for clients in [1usize, 4] {
        // Same total request count per phase so the comparison is
        // work-for-work.
        let cfg = ServiceLoadConfig {
            clients,
            requests_per_client: total_requests / clients,
            ..base
        };
        let service = service_for_load(clients);
        let cold = warm_up(&service, &requests, &references);
        if clients == 1 {
            cold_seconds = cold;
        }
        let report = run_phase(&service, &requests, &references, &cfg);
        let svc = service.stats();
        assert_eq!(svc.rejected, 0, "load phases are sized to be admitted");
        assert!(
            svc.peak_inflight <= service.max_inflight(),
            "admission gate exceeded its bound: {} > {}",
            svc.peak_inflight,
            service.max_inflight()
        );
        println!(
            "{:>2} clients: {:7.1} maps/s  p50 {:7.2} ms  p99 {:7.2} ms  \
             cache hit {:5.1}%  shards used {}/{}  steals {}  lock waits {}",
            report.clients,
            report.throughput,
            report.p50_ms,
            report.p99_ms,
            100.0 * report.cache_hit_rate(),
            report.shards_used(),
            shards,
            report.steals,
            report.submission_waits,
        );
        phases.push(report);
    }

    // ---- contended phase: clients outnumber the admission gate and
    //      survive on the bounded RetryPolicy (completion-denominated
    //      backoff on `Overloaded::retry_hint`) ----
    {
        let cfg = ServiceLoadConfig {
            clients: 4,
            requests_per_client: total_requests / 4,
            retry: Some(RetryPolicy {
                max_retries: 10_000,
            }),
            ..base
        };
        let service = Arc::new(MapService::new(ServiceConfig {
            max_inflight: 2,
            max_queued: 0,
            ..ServiceConfig::default()
        }));
        let _ = warm_up(&service, &requests, &references);
        let report = run_phase(&service, &requests, &references, &cfg);
        let svc = service.stats();
        assert_eq!(
            svc.admitted,
            svc.completed + svc.failed,
            "admission accounting must balance at quiescence"
        );
        assert_eq!(
            svc.rejected, report.retries,
            "every overload rejection is one client retry"
        );
        println!(
            "contended (4 clients, 2 slots, 0 queue): {:7.1} maps/s, \
             {} rejections absorbed by retry",
            report.throughput, report.retries
        );
        phases.push(report);
    }

    let ratio = phases[1].throughput / phases[0].throughput;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate_enforced = cores >= SERVICE_GATE_MIN_CORES;
    println!(
        "\nservice headline: 4 clients vs 1 = {ratio:.2}x throughput \
         ({} cores; gate {} at {SERVICE_GATE_RATIO}x)",
        cores,
        if gate_enforced {
            "enforced"
        } else {
            "reported only — needs >= 4 cores"
        },
    );
    // The CI scaling gate: concurrent clients must actually run
    // concurrently (distinct shards, no submission-lock convoy).  On a
    // box without the cores to show it, the number is still reported
    // honestly above but cannot gate.
    if gate_enforced {
        assert!(
            ratio >= SERVICE_GATE_RATIO,
            "4 concurrent clients only reached {ratio:.2}x of 1 client \
             (gate {SERVICE_GATE_RATIO}x): the sharded pool is not \
             delivering concurrent dispatch"
        );
    }

    // ---- machine-readable report ----
    let mut json = String::from("{\n  \"benchmark\": \"map_service\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"nodes\": {},", base.nodes);
    let _ = writeln!(json, "  \"distinct_graphs\": {},", base.distinct_graphs);
    let _ = writeln!(json, "  \"engine_threads\": {engine_threads},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"cold_build_seconds\": {cold_seconds:.6},");
    json.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"clients\": {},", p.clients);
        let _ = writeln!(json, "      \"requests\": {},", p.completed);
        let _ = writeln!(json, "      \"seconds\": {:.6},", p.seconds);
        let _ = writeln!(json, "      \"throughput_per_sec\": {:.3},", p.throughput);
        let _ = writeln!(json, "      \"p50_ms\": {:.4},", p.p50_ms);
        let _ = writeln!(json, "      \"p99_ms\": {:.4},", p.p99_ms);
        let _ = writeln!(json, "      \"cache_hits\": {},", p.cache.hits);
        let _ = writeln!(json, "      \"cache_misses\": {},", p.cache.misses);
        let _ = writeln!(json, "      \"cache_hit_rate\": {:.4},", p.cache_hit_rate());
        let _ = writeln!(json, "      \"shards_used\": {},", p.shards_used());
        let used: Vec<String> = p
            .shard_batches
            .iter()
            .take(shards)
            .map(|b| b.to_string())
            .collect();
        let _ = writeln!(json, "      \"shard_batches\": [{}],", used.join(", "));
        let _ = writeln!(json, "      \"steals\": {},", p.steals);
        let _ = writeln!(json, "      \"submission_waits\": {},", p.submission_waits);
        let _ = writeln!(json, "      \"retries\": {}", p.retries);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < phases.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"throughput_ratio_4v1\": {ratio:.3},");
    let _ = writeln!(json, "  \"gate_ratio\": {SERVICE_GATE_RATIO},");
    let _ = writeln!(json, "  \"gate_enforced\": {gate_enforced}");
    json.push_str("}\n");
    write_report(opts, "BENCH_service.json", &json);
}

// ---- the chaos tier (`--chaos`) ----

/// The `--chaos` entry point: seeded fault rounds against a live
/// service with retrying clients, containment + bit-identity + balance
/// asserted by the harness, goodput reported, write `BENCH_chaos.json`.
/// Requires the `fault-injection` feature (the harness fails loudly
/// with the rebuild command otherwise).
fn run_chaos(opts: &Opts) {
    use spmap_bench::chaos_load::{run_chaos, ChaosLoadConfig};

    let engine_threads = opts.threads.unwrap_or(2).max(2);
    let cfg = ChaosLoadConfig {
        clients: 4,
        rounds: if opts.quick { 6 } else { 24 },
        requests_per_client: if opts.quick { 3 } else { 6 },
        distinct_graphs: if opts.quick { 3 } else { 6 },
        nodes: if opts.quick { 48 } else { 96 },
        seed: opts.seed,
        engine_threads,
    };
    let shards = spmap_par::num_shards();
    println!(
        "perf_report --chaos: {} fault rounds x {} clients x {} requests \
         ({} distinct {}-node graphs, {} engine threads/request, {} pool \
         shards, seed {})\n",
        cfg.rounds,
        cfg.clients,
        cfg.requests_per_client,
        cfg.distinct_graphs,
        cfg.nodes,
        engine_threads,
        shards,
        cfg.seed,
    );

    let report = run_chaos(&cfg);

    println!(
        "chaos: {}/{} ok ({} contained panics, {} typed mapper errors, \
         {} retry give-ups), {} of {} armed faults fired, {} overload \
         retries absorbed",
        report.ok,
        report.submitted,
        report.internal_faults,
        report.mapper_errors,
        report.overload_give_ups,
        report.faults_fired,
        report.rounds,
        report.retries,
    );
    for (site, fired) in &report.per_site {
        if *fired > 0 {
            println!("  {site}: {fired} fired");
        }
    }
    println!(
        "goodput under chaos: {:7.1} maps/s over {:.2} s; clean pass {}",
        report.goodput,
        report.seconds,
        if report.clean_pass_ok { "ok" } else { "FAILED" },
    );

    // The containment gates proper (typed errors, bit-identity of
    // untouched responses, balanced accounting, clean pass) are
    // asserted inside `run_chaos` — reaching this point *is* the gate.
    let mut json = String::from("{\n  \"benchmark\": \"map_service_chaos\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(json, "  \"nodes\": {},", cfg.nodes);
    let _ = writeln!(json, "  \"distinct_graphs\": {},", cfg.distinct_graphs);
    let _ = writeln!(json, "  \"engine_threads\": {engine_threads},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"clients\": {},", cfg.clients);
    let _ = writeln!(json, "  \"rounds\": {},", report.rounds);
    let _ = writeln!(json, "  \"submitted\": {},", report.submitted);
    let _ = writeln!(json, "  \"ok\": {},", report.ok);
    let _ = writeln!(json, "  \"internal_faults\": {},", report.internal_faults);
    let _ = writeln!(json, "  \"mapper_errors\": {},", report.mapper_errors);
    let _ = writeln!(
        json,
        "  \"overload_give_ups\": {},",
        report.overload_give_ups
    );
    let _ = writeln!(json, "  \"retries\": {},", report.retries);
    let _ = writeln!(json, "  \"seconds\": {:.6},", report.seconds);
    let _ = writeln!(json, "  \"goodput_per_sec\": {:.3},", report.goodput);
    let _ = writeln!(json, "  \"faults_fired\": {},", report.faults_fired);
    json.push_str("  \"fired_per_site\": {\n");
    for (i, (site, fired)) in report.per_site.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{site}\": {fired}{}",
            if i + 1 < report.per_site.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"clean_pass_ok\": {}", report.clean_pass_ok);
    json.push_str("}\n");
    write_report(opts, "BENCH_chaos.json", &json);
}

// ---- the remap tier (`--remap`) ----

/// Node-count inputs of the remap tier; realized counts are reported
/// (`layered_dag(500)` realizes 506 nodes).  `--quick` keeps only the
/// first size, `--full` adds the 10k row, `--sizes` overrides outright.
const REMAP_SIZES: [usize; 2] = [500, 2048];
const REMAP_SIZE_FULL: usize = 10_000;

/// The remap CI gate: a single-device-loss warm remap must beat the
/// from-scratch re-map of the same patched instance at every realized
/// size of at least this many nodes.  Both sides run against prebuilt
/// shared tables (device loss never invalidates them), so the
/// comparison is pure search work: neighborhood sweep vs full sweep.
const REMAP_GATE_MIN_NODES: usize = 506;

/// The `--remap` entry point: per-perturbation-kind warm vs full
/// latency with replay identity asserted, gate, write
/// `BENCH_remap.json`.
fn run_remap(opts: &Opts) {
    use spmap_bench::remap_load::{measure_case, RemapCase, RemapMeasurement};
    use spmap_core::{map_request, AttachEdge, MapRequest, Perturbation};
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::NodeId;
    use spmap_model::{ArtifactCache, DeviceId};
    use std::sync::{Arc, Mutex};

    let threads = opts.threads.unwrap_or(8);
    let sizes: Vec<usize> = opts.sizes.clone().unwrap_or_else(|| {
        let mut s = if opts.quick {
            vec![REMAP_SIZES[0]]
        } else {
            REMAP_SIZES.to_vec()
        };
        if opts.full {
            s.push(REMAP_SIZE_FULL);
        }
        s
    });
    println!(
        "perf_report --remap: warm-start remap vs from-scratch re-map \
         ({threads} engine threads/session)\n"
    );

    let platform = Arc::new(Platform::reference());
    let mut rows: Vec<(usize, Vec<RemapMeasurement>)> = Vec::new();
    for &size in &sizes {
        let graph = Arc::new(layered_dag(size, opts.seed));
        let n = graph.node_count();
        let req = MapRequest::from_mapper_config(
            Arc::clone(&graph),
            Arc::clone(&platform),
            &MapperConfig {
                engine: EngineConfig {
                    threads: Some(threads),
                    ..EngineConfig::default()
                },
                ..MapperConfig::sp_first_fit()
            },
        );
        // One shared artifact cache per size: every session open inside
        // the measurement hits the same table build.
        let cache = Arc::new(Mutex::new(ArtifactCache::new(0)));

        // Probe the initial full map so the lost device is one that
        // actually holds work (losing an idle device is a near-no-op).
        let probe = map_request(&req).expect("probe maps");
        let lost = probe
            .mapping
            .as_slice()
            .iter()
            .copied()
            .find(|&d| d != platform.default_device())
            .unwrap_or(DeviceId(1));

        let arrival = random_sp_graph(&SpGenConfig::new((n / 100).max(5), opts.seed + 1));
        let third = (n / 3) as u32;
        let mut grown = graph.task(NodeId(third)).clone();
        grown.area = grown.area * 2.0 + 100.0;
        let cases = [
            RemapCase {
                kind: "device_lost",
                setup: vec![],
                batch: vec![Perturbation::DeviceLost(lost)],
            },
            RemapCase {
                kind: "device_restored",
                setup: vec![vec![Perturbation::DeviceLost(lost)]],
                batch: vec![Perturbation::DeviceRestored(lost)],
            },
            RemapCase {
                kind: "task_arrived",
                setup: vec![],
                batch: vec![Perturbation::TaskArrived {
                    subgraph: arrival.clone(),
                    attach: vec![AttachEdge::Into {
                        from: NodeId((n - 1) as u32),
                        to_new: 0,
                        bytes: 1e6,
                    }],
                }],
            },
            RemapCase {
                kind: "task_finished",
                setup: vec![],
                batch: vec![Perturbation::TaskFinished(vec![
                    NodeId(0),
                    NodeId(third),
                    NodeId(2 * third),
                ])],
            },
            RemapCase {
                kind: "attributes_changed",
                setup: vec![],
                batch: vec![Perturbation::AttributesChanged {
                    nodes: vec![(NodeId(third), grown.clone())],
                }],
            },
        ];

        println!(
            "{n} nodes ({} edges):\n{:<20} {:>10} {:>10} {:>8} {:>14} {:>6}",
            graph.edge_count(),
            "perturbation",
            "warm",
            "full",
            "speedup",
            "neighborhood",
            "iters"
        );
        let mut measured = Vec::new();
        for case in &cases {
            let m = measure_case(&req, &cache, case);
            if case.kind == "device_lost" {
                // Exactness: both paths vacate the lost device.
                assert!(
                    m.warm.mapping.as_slice().iter().all(|&d| d != lost),
                    "warm remap left work on the lost device"
                );
                assert!(
                    m.full.mapping.as_slice().iter().all(|&d| d != lost),
                    "full re-map left work on the lost device"
                );
            }
            println!(
                "{:<20} {:>8.2}ms {:>8.2}ms {:>7.2}x {:>8}/{:<5} {:>6}",
                m.kind,
                m.warm_seconds * 1e3,
                m.full_seconds * 1e3,
                m.speedup(),
                m.warm.neighborhood_ops,
                m.warm.op_count,
                m.warm.iterations,
            );
            measured.push(m);
        }
        println!();
        rows.push((n, measured));
    }

    // The CI latency gate (see REMAP_GATE_MIN_NODES).
    for (n, measured) in &rows {
        if *n < REMAP_GATE_MIN_NODES {
            continue;
        }
        let loss = measured
            .iter()
            .find(|m| m.kind == "device_lost")
            .expect("device_lost is always measured");
        assert!(
            loss.warm_seconds < loss.full_seconds,
            "warm single-device-loss remap at {n} nodes took {:.2} ms vs \
             {:.2} ms from scratch: the warm neighborhood is not paying off",
            loss.warm_seconds * 1e3,
            loss.full_seconds * 1e3,
        );
    }
    let gated: Vec<usize> = rows
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| *n >= REMAP_GATE_MIN_NODES)
        .collect();
    println!(
        "remap headline: single-device-loss warm remap beat the from-scratch \
         re-map at every gated size ({gated:?})"
    );

    // ---- machine-readable report ----
    let mut json = String::from("{\n  \"benchmark\": \"remap_session\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"gate_min_nodes\": {REMAP_GATE_MIN_NODES},");
    json.push_str("  \"rows\": [\n");
    for (i, (n, measured)) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"nodes\": {n},");
        let _ = writeln!(
            json,
            "      \"gate_enforced\": {},",
            *n >= REMAP_GATE_MIN_NODES
        );
        json.push_str("      \"cases\": [\n");
        for (j, m) in measured.iter().enumerate() {
            let _ = writeln!(json, "        {{");
            let _ = writeln!(json, "          \"kind\": \"{}\",", m.kind);
            let _ = writeln!(json, "          \"warm_ms\": {:.4},", m.warm_seconds * 1e3);
            let _ = writeln!(json, "          \"full_ms\": {:.4},", m.full_seconds * 1e3);
            let _ = writeln!(json, "          \"speedup\": {:.3},", m.speedup());
            let _ = writeln!(
                json,
                "          \"quality_ratio\": {:.6},",
                m.quality_ratio()
            );
            let _ = writeln!(
                json,
                "          \"neighborhood_ops\": {},",
                m.warm.neighborhood_ops
            );
            let _ = writeln!(json, "          \"op_count\": {},", m.warm.op_count);
            let _ = writeln!(json, "          \"iterations\": {},", m.warm.iterations);
            let _ = writeln!(
                json,
                "          \"affected_nodes\": {},",
                m.warm.affected_nodes
            );
            let _ = writeln!(json, "          \"warm_makespan\": {:.6},", m.warm.makespan);
            let _ = writeln!(json, "          \"full_makespan\": {:.6}", m.full.makespan);
            let _ = writeln!(
                json,
                "        }}{}",
                if j + 1 < measured.len() { "," } else { "" }
            );
        }
        json.push_str("      ]\n");
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    write_report(opts, "BENCH_remap.json", &json);
}

struct Measurement {
    mode: &'static str,
    report_schedules: usize,
    nodes: usize,
    edges: usize,
    serial_seconds: f64,
    serial_evaluations: u64,
    batch1_seconds: f64,
    batchn_seconds: f64,
    batchn_evaluations: u64,
    simulated: u64,
    memo_hits: u64,
    pruned: u64,
    trivial: u64,
    sched_simulated: u64,
    sched_aborted: u64,
    sched_memo_hits: u64,
    iterations: usize,
}

impl Measurement {
    fn speedup_1t(&self) -> f64 {
        self.serial_seconds / self.batch1_seconds
    }

    fn speedup_nt(&self) -> f64 {
        self.serial_seconds / self.batchn_seconds
    }

    fn serial_ns_per_eval(&self) -> f64 {
        self.serial_seconds * 1e9 / self.serial_evaluations.max(1) as f64
    }

    /// Engine wall time divided by *candidate decisions* — the metric
    /// that shows where pruning/memoization pay: most decisions never
    /// reach a simulation.
    fn batch_ns_per_candidate(&self) -> f64 {
        let total = self.simulated + self.memo_hits + self.pruned + self.trivial;
        self.batchn_seconds * 1e9 / total.max(1) as f64
    }

    fn memo_hit_rate(&self) -> f64 {
        let denom = self.simulated + self.memo_hits;
        if denom == 0 {
            0.0
        } else {
            self.memo_hits as f64 / denom as f64
        }
    }
}

fn measure(nodes: usize, seed: u64, threads: usize, cost: CostModel) -> Measurement {
    let g = layered_dag(nodes, seed);
    let p = Platform::reference();
    let base = MapperConfig {
        cost,
        ..MapperConfig::series_parallel()
    };
    let (mode, report_schedules) = match cost {
        CostModel::Bfs => ("bfs", 0),
        CostModel::Report { schedules, .. } => ("report", schedules),
    };

    let t0 = Instant::now();
    let serial = decomposition_map_reference(&g, &p, &base);
    let serial_seconds = t0.elapsed().as_secs_f64();

    let engine = |t: usize| MapperConfig {
        engine: EngineConfig {
            threads: Some(t),
            ..EngineConfig::default()
        },
        ..base
    };
    let t1 = Instant::now();
    let batch1 = decomposition_map(&g, &p, &engine(1));
    let batch1_seconds = t1.elapsed().as_secs_f64();
    let tn = Instant::now();
    let batchn = decomposition_map(&g, &p, &engine(threads));
    let batchn_seconds = tn.elapsed().as_secs_f64();

    assert_eq!(
        serial.mapping, batch1.mapping,
        "engine must be exact ({mode})"
    );
    assert_eq!(
        serial.mapping, batchn.mapping,
        "engine must be exact ({mode})"
    );
    assert_eq!(
        serial.history, batchn.history,
        "engine must be exact ({mode})"
    );
    assert_eq!(
        serial.makespan, batchn.makespan,
        "engine must be exact ({mode})"
    );

    Measurement {
        mode,
        report_schedules,
        nodes: g.node_count(),
        edges: g.edge_count(),
        serial_seconds,
        serial_evaluations: serial.evaluations,
        batch1_seconds,
        batchn_seconds,
        batchn_evaluations: batchn.evaluations,
        simulated: batchn.batch.simulated,
        memo_hits: batchn.batch.memo_hits,
        pruned: batchn.batch.pruned,
        trivial: batchn.batch.trivial,
        sched_simulated: batchn.batch.sched_simulated,
        sched_aborted: batchn.batch.sched_aborted,
        sched_memo_hits: batchn.batch.sched_memo_hits,
        iterations: batchn.iterations,
    }
}

struct GaMeasurement {
    nodes: usize,
    edges: usize,
    generations: usize,
    serial_seconds: f64,
    serial_evaluations: u64,
    batch1_seconds: f64,
    /// N-thread row on the persistent pool.
    batchn_seconds: f64,
    /// The same N-thread pooled row under the flat PR 3 nearest-base
    /// evaluation order — what the trie order is gated against.
    nearest_seconds: f64,
    /// Schedule positions the trie row actually stepped vs the
    /// nearest-base row — the work ratio behind the wall-clock gate.
    positions: u64,
    nearest_positions: u64,
    batchn_evaluations: u64,
    full_sims: u64,
    windowed_sims: u64,
    windowed_skip: u64,
    rolling_sims: u64,
    prefix_shared_positions: u64,
    trie_members: u64,
    trie_lcp_positions: u64,
    memo_hits: u64,
    batch_dups: u64,
    trails_recorded: u64,
    memo_peak: u64,
    memo_evictions: u64,
    /// Pool batches / parked-worker wakes of the pooled row.
    pool_batches: u64,
    pool_dispatches: u64,
}

impl GaMeasurement {
    fn speedup_1t(&self) -> f64 {
        self.serial_seconds / self.batch1_seconds
    }

    fn speedup_nt(&self) -> f64 {
        self.serial_seconds / self.batchn_seconds
    }

    /// How much the trie evaluation order wins over the flat
    /// nearest-base order (> 1 = trie faster).
    fn trie_vs_nearest(&self) -> f64 {
        self.nearest_seconds / self.batchn_seconds
    }

    /// Mean fraction of schedule positions a windowed replay skipped —
    /// the ROADMAP metric the trie order exists to lift (PR 3 measured
    /// ~26 % at 506 nodes).
    fn windowed_skip_rate(&self) -> f64 {
        let denom = self.windowed_sims * self.nodes as u64;
        if denom == 0 {
            0.0
        } else {
            self.windowed_skip as f64 / denom as f64
        }
    }

    /// Mean LCP window depth (in pop positions) the trie walk
    /// discovered between chained DFS neighbors.
    fn trie_depth_mean(&self) -> f64 {
        if self.trie_members == 0 {
            0.0
        } else {
            self.trie_lcp_positions as f64 / self.trie_members as f64
        }
    }

    fn memo_hit_rate(&self) -> f64 {
        let denom = self.full_sims + self.windowed_sims + self.memo_hits + self.batch_dups;
        if denom == 0 {
            0.0
        } else {
            (self.memo_hits + self.batch_dups) as f64 / denom as f64
        }
    }
}

fn measure_ga(nodes: usize, seed: u64, threads: usize, generations: usize) -> GaMeasurement {
    let g = layered_dag(nodes, seed);
    let p = Platform::reference();
    let cfg = |t: Option<usize>, order: EvalOrder| GaConfig {
        generations,
        seed,
        threads: t,
        eval_order: order,
        ..GaConfig::default()
    };
    let trie = |t: Option<usize>| cfg(t, EvalOrder::PrefixTrie);

    // Gated rows are timed twice and keep the minimum: single runs on
    // shared CI boxes swing by more than the margins the gates compare.  Runs are bit-identical by construction, so
    // re-running only steadies the clock.
    fn timed2<T>(mut f: impl FnMut() -> T) -> (f64, T) {
        let t0 = Instant::now();
        let _ = f();
        let s0 = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let out = f();
        (s0.min(t1.elapsed().as_secs_f64()), out)
    }

    let t0 = Instant::now();
    let serial = nsga2_map_reference(&g, &p, &trie(None));
    let serial_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let batch1 = nsga2_map(&g, &p, &trie(Some(1)));
    let batch1_seconds = t1.elapsed().as_secs_f64();
    let (batchn_seconds, batchn) = timed2(|| nsga2_map(&g, &p, &trie(Some(threads))));
    // The same N-thread row under the flat PR 3 nearest-base order: the
    // baseline the trie evaluation order is gated against.
    let (nearest_seconds, nearest) =
        timed2(|| nsga2_map(&g, &p, &cfg(Some(threads), EvalOrder::NearestBase)));

    for (tag, r) in [
        ("1 thread", &batch1),
        ("N threads pool", &batchn),
        ("N threads nearest-base", &nearest),
    ] {
        assert_eq!(serial.mapping, r.mapping, "GA engine must be exact ({tag})");
        assert_eq!(
            serial.makespan, r.makespan,
            "GA engine must be exact ({tag})"
        );
        assert_eq!(
            serial.best_per_generation, r.best_per_generation,
            "GA history must be bit-identical ({tag})"
        );
        assert_eq!(serial.cpu_only_makespan, r.cpu_only_makespan);
        // The eviction policy's observable contract: the memo never
        // outgrows its configured capacity over the whole run.
        let capacity = GaConfig::default().memo_capacity as u64;
        assert!(
            capacity == 0 || r.engine.memo_peak <= capacity,
            "GA fitness memo exceeded its capacity: {} > {capacity}",
            r.engine.memo_peak
        );
    }

    GaMeasurement {
        nodes: g.node_count(),
        edges: g.edge_count(),
        generations,
        serial_seconds,
        serial_evaluations: serial.evaluations,
        batch1_seconds,
        batchn_seconds,
        nearest_seconds,
        pool_batches: batchn.dispatch.pool_batches,
        pool_dispatches: batchn.dispatch.pool_dispatches,
        batchn_evaluations: batchn.evaluations,
        positions: batchn.positions,
        nearest_positions: nearest.positions,
        full_sims: batchn.engine.full_sims,
        windowed_sims: batchn.engine.windowed_sims,
        windowed_skip: batchn.engine.windowed_skip,
        rolling_sims: batchn.engine.rolling_sims,
        prefix_shared_positions: batchn.engine.prefix_shared_positions,
        trie_members: batchn.engine.trie_members,
        trie_lcp_positions: batchn.engine.trie_lcp_positions,
        memo_hits: batchn.engine.memo_hits,
        batch_dups: batchn.engine.batch_dups,
        trails_recorded: batchn.engine.trails_recorded,
        memo_peak: batchn.engine.memo_peak,
        memo_evictions: batchn.engine.memo_evictions,
    }
}

fn print_ga_row(m: &GaMeasurement) {
    println!(
        "{:>6} {:>6} {:>7} {:>9.2}s {:>9.2}s {:>9.2}s {:>8.2}x {:>8.2}x {:>12} {:>10} {:>8.1}%",
        "ga",
        m.nodes,
        m.edges,
        m.serial_seconds,
        m.batch1_seconds,
        m.batchn_seconds,
        m.speedup_1t(),
        m.speedup_nt(),
        m.windowed_sims,
        m.memo_hits,
        100.0 * m.memo_hit_rate(),
    );
    println!(
        "       pool {:>6.2}s ({} pool batches, {} wakes)",
        m.batchn_seconds, m.pool_batches, m.pool_dispatches,
    );
    println!(
        "       trie {:>6.2}s vs nearest-base {:>6.2}s = {:>5.2}x  \
         (skip rate {:.1}%, {} rolling sims, {:.0} mean trie depth, \
          {} prefix-shared positions)",
        m.batchn_seconds,
        m.nearest_seconds,
        m.trie_vs_nearest(),
        100.0 * m.windowed_skip_rate(),
        m.rolling_sims,
        m.trie_depth_mean(),
        m.prefix_shared_positions,
    );
    println!(
        "       positions {} vs {} nearest ({:.2}x fewer steps)",
        m.positions,
        m.nearest_positions,
        m.nearest_positions as f64 / m.positions.max(1) as f64,
    );
}

fn print_row(m: &Measurement) {
    println!(
        "{:>6} {:>6} {:>7} {:>9.2}s {:>9.2}s {:>9.2}s {:>8.2}x {:>8.2}x {:>12} {:>10} {:>8.1}%",
        m.mode,
        m.nodes,
        m.edges,
        m.serial_seconds,
        m.batch1_seconds,
        m.batchn_seconds,
        m.speedup_1t(),
        m.speedup_nt(),
        m.pruned,
        m.memo_hits,
        100.0 * m.memo_hit_rate(),
    );
}

fn main() {
    let opts = Opts::parse();
    if opts.chaos {
        // The chaos tier is its own report: seeded fault injection,
        // containment checks, goodput under retry, its own JSON schema.
        run_chaos(&opts);
        return;
    }
    if opts.service {
        // The service tier is its own report: concurrent clients,
        // cache/latency metrics, its own JSON schema and gate.
        run_service(&opts);
        return;
    }
    if opts.remap {
        // The remap tier is its own report: session warm-start latency
        // vs the from-scratch fallback, its own JSON schema and gate.
        run_remap(&opts);
        return;
    }
    if opts.xl {
        // The scale tier is its own report: different graph shape,
        // different gates, its own JSON schema.
        run_xl(&opts);
        return;
    }
    let threads = opts.threads.unwrap_or(8);
    let report_k = opts.report_schedules.unwrap_or(4);
    let default_sizes: &[usize] = if opts.quick {
        &[60, 120]
    } else {
        &[120, 250, 500]
    };
    // `--sizes` replaces the built-in sweep for the mapper *and* GA
    // loops (below it also suppresses the `--full` GA extension).
    let sizes: Vec<usize> = opts.sizes.clone().unwrap_or_else(|| default_sizes.to_vec());
    let sizes: &[usize] = &sizes;

    println!(
        "perf_report: SeriesParallel mapper, serial seed path vs candidate engine \
         ({threads} threads; report mode: {report_k} random schedules)\n"
    );
    println!(
        "{:>6} {:>6} {:>7} {:>10} {:>10} {:>10} {:>9} {:>9} {:>12} {:>10} {:>9}",
        "mode",
        "nodes",
        "edges",
        "serial",
        "batch1",
        "batchN",
        "x1",
        "xN",
        "pruned",
        "memo",
        "hit%"
    );

    let mut rows = Vec::new();
    if !opts.ga_only {
        for &nodes in sizes {
            let m = measure(nodes, opts.seed, threads, CostModel::Bfs);
            print_row(&m);
            rows.push(m);
        }
        if report_k > 0 {
            for &nodes in sizes {
                let m = measure(
                    nodes,
                    opts.seed,
                    threads,
                    CostModel::Report {
                        schedules: report_k,
                        seed: opts.seed,
                    },
                );
                print_row(&m);
                rows.push(m);
            }
        }
    }
    // The GA baseline, same treatment.  `--full` adds the sweep points
    // the serial GA used to make impractical.
    let ga_generations = if opts.quick {
        GA_GENERATIONS_QUICK
    } else {
        GA_GENERATIONS
    };
    let mut ga_sizes: Vec<usize> = sizes.to_vec();
    if opts.full && opts.sizes.is_none() {
        // The former hardcoded `--full` extension; an explicit `--sizes`
        // list is taken literally instead.
        ga_sizes.extend([1024, 2048]);
    }
    let mut ga_rows = Vec::new();
    for &nodes in &ga_sizes {
        let m = measure_ga(nodes, opts.seed, threads, ga_generations);
        print_ga_row(&m);
        ga_rows.push(m);
    }

    let bfs_head = rows.iter().rev().find(|m| m.mode == "bfs");
    assert!(
        opts.ga_only || bfs_head.is_some(),
        "at least one BFS size outside --ga-only"
    );
    if let Some(head) = bfs_head {
        println!(
            "\nbfs headline ({} nodes, {} threads): {:.2}x vs seed serial path \
             ({:.1} ns/eval serial, {:.1} ns/candidate batched)",
            head.nodes,
            threads,
            head.speedup_nt(),
            head.serial_ns_per_eval(),
            head.batch_ns_per_candidate(),
        );
    }
    let report_head = rows.iter().rev().find(|m| m.mode == "report");
    if let Some(head) = report_head {
        println!(
            "report headline ({} nodes, {} schedules, {} threads): {:.2}x vs reference \
             serial sweep ({} schedule sims, {} cutoff-aborted, {} memo-answered)",
            head.nodes,
            head.report_schedules + 1,
            threads,
            head.speedup_nt(),
            head.sched_simulated,
            head.sched_aborted,
            head.sched_memo_hits,
        );
        // The CI perf gate: the incremental multi-schedule sweep must
        // never lose to the reference serial sweep (it is expected to
        // win by a wide algorithmic margin — windowing, running
        // cutoffs, per-schedule memo — so 1.0x is a generous floor).
        assert!(
            head.speedup_nt() >= 1.0,
            "incremental report sweep slower than the reference serial sweep: {:.2}x",
            head.speedup_nt()
        );
    }
    let ga_head = ga_rows.last().expect("at least one GA size");
    println!(
        "ga headline ({} nodes, {} generations, {} threads): {:.2}x vs serial reference GA \
         ({} full sims, {} windowed [{:.0}% skipped], {} memo hits, {} trails)",
        ga_head.nodes,
        ga_head.generations,
        threads,
        ga_head.speedup_nt(),
        ga_head.full_sims,
        ga_head.windowed_sims,
        100.0 * ga_head.windowed_skip_rate(),
        ga_head.memo_hits,
        ga_head.trails_recorded,
    );
    // The GA perf gate: the engine-backed GA must never lose to the
    // serial reference in its best configuration (memoization, windows,
    // heap-free replays; threads stack on real multi-core hardware).
    // The gate takes the better of the 1-thread and N-thread rows
    // because the GA path dispatches ~one small parallel batch per
    // generation: on a box with fewer cores than `--threads`, the
    // N-thread row measures pure spawn oversubscription (the xN column
    // still reports it honestly), while on real multi-core hardware it
    // is the winner.
    let ga_best = ga_head.speedup_1t().max(ga_head.speedup_nt());
    assert!(
        ga_best >= 1.0,
        "engine-backed GA slower than the serial reference GA: {ga_best:.2}x"
    );
    // The wall-clock GA gates below cover the standard sizes (≤ 506
    // nodes); `--full`'s 1024/2048-node extensions print their ratios
    // but are not gated.
    const GATE_MAX_NODES: usize = 506;
    // The trie-order perf gates.  The algorithmic claim — per
    // candidate the trie windows from `max(LCP, base window)`, so it
    // replays no more of the schedule than the flat PR 3 nearest-base
    // order — is gated on the *deterministic* stepped-position
    // counters: bit-reproducible per (graph, seed), immune to timer
    // noise, and exactly the quantity the ordering optimizes (the trie
    // steps 1.03–1.12x fewer positions on the standard sizes).  The
    // guarantee leans on the engine's canonical trail-cache lookup
    // order (identical cache evolution across orders) and the default
    // effectively-unbounded fitness memo both rows run with.
    for m in ga_rows.iter() {
        assert!(
            m.positions <= m.nearest_positions,
            "trie order stepped more schedule positions than the nearest-base order \
             ({} nodes): {} vs {}",
            m.nodes,
            m.positions,
            m.nearest_positions,
        );
    }
    // Wall-clock is gated loosely (25 %) as a backstop against
    // catastrophic bookkeeping regressions only: the ~10 % position
    // saving at the headline size is *smaller* than a loaded shared
    // box's observed run-to-run swing (ratios of 0.85–1.06 were
    // measured for identical binaries), so any tighter wall gate
    // flakes without measuring anything the deterministic position
    // gate does not already pin (docs/PERF.md, "when the flat order
    // still wins").
    const TRIE_GATE_MIN_NODES: usize = 200;
    for m in ga_rows
        .iter()
        .filter(|m| (TRIE_GATE_MIN_NODES..=GATE_MAX_NODES).contains(&m.nodes))
    {
        assert!(
            m.batchn_seconds <= m.nearest_seconds * 1.25,
            "trie evaluation order lost badly to the nearest-base order ({} nodes): \
             trie {:.3}s vs nearest {:.3}s ({:.2}x)",
            m.nodes,
            m.batchn_seconds,
            m.nearest_seconds,
            m.trie_vs_nearest(),
        );
    }
    // The skip-rate floor: the ROADMAP item this order exists for.
    // PR 3's nearest-base windows averaged ~26 % skipped positions at
    // 506 nodes; the trie order holds ~34 % — the structural ceiling
    // for prefix windows under the paper's GA parameterization (the
    // window depth of a crossover+mutation offspring is bounded by
    // E[min(cut, mutation)] ≈ n/3; docs/PERF.md).  The 30 % floor sits
    // between the two: it catches any regression of the trie machinery
    // while leaving headroom for graph-shape noise.
    if let Some(m) = ga_rows
        .iter()
        .rfind(|m| (500..=GATE_MAX_NODES).contains(&m.nodes))
    {
        assert!(
            m.windowed_skip_rate() >= 0.30,
            "GA windowed skip rate regressed below the 30 % floor at {} nodes: {:.1}%",
            m.nodes,
            100.0 * m.windowed_skip_rate(),
        );
    }
    let trie_head = ga_rows.last().expect("at least one GA size");
    println!(
        "ga trie-vs-nearest ({} nodes, {} generations): trie {:.2}s vs nearest {:.2}s = {:.2}x \
         (skip rate {:.1}%, mean trie depth {:.0}/{} positions, {} rolling sims)",
        trie_head.nodes,
        trie_head.generations,
        trie_head.batchn_seconds,
        trie_head.nearest_seconds,
        trie_head.trie_vs_nearest(),
        100.0 * trie_head.windowed_skip_rate(),
        trie_head.trie_depth_mean(),
        trie_head.nodes,
        trie_head.rolling_sims,
    );

    // ---- machine-readable report ----
    let mut json = String::from("{\n  \"benchmark\": \"candidate_engine_mapper\",\n");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"report_schedules\": {report_k},");
    json.push_str("  \"runs\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"mode\": \"{}\",", m.mode);
        let _ = writeln!(json, "      \"report_schedules\": {},", m.report_schedules);
        let _ = writeln!(json, "      \"nodes\": {},", m.nodes);
        let _ = writeln!(json, "      \"edges\": {},", m.edges);
        let _ = writeln!(json, "      \"iterations\": {},", m.iterations);
        let _ = writeln!(json, "      \"serial_seconds\": {:.6},", m.serial_seconds);
        let _ = writeln!(
            json,
            "      \"serial_evaluations\": {},",
            m.serial_evaluations
        );
        let _ = writeln!(
            json,
            "      \"serial_mean_ns_per_eval\": {:.1},",
            m.serial_ns_per_eval()
        );
        let _ = writeln!(json, "      \"batch1_seconds\": {:.6},", m.batch1_seconds);
        let _ = writeln!(json, "      \"batchn_seconds\": {:.6},", m.batchn_seconds);
        let _ = writeln!(
            json,
            "      \"batchn_evaluations\": {},",
            m.batchn_evaluations
        );
        let _ = writeln!(
            json,
            "      \"batch_mean_ns_per_candidate\": {:.1},",
            m.batch_ns_per_candidate()
        );
        let _ = writeln!(json, "      \"evals_skipped_by_pruning\": {},", m.pruned);
        let _ = writeln!(json, "      \"memo_hits\": {},", m.memo_hits);
        let _ = writeln!(json, "      \"memo_hit_rate\": {:.4},", m.memo_hit_rate());
        let _ = writeln!(json, "      \"simulated\": {},", m.simulated);
        let _ = writeln!(json, "      \"trivial_skips\": {},", m.trivial);
        let _ = writeln!(json, "      \"schedule_sims\": {},", m.sched_simulated);
        let _ = writeln!(
            json,
            "      \"schedule_cutoff_aborts\": {},",
            m.sched_aborted
        );
        let _ = writeln!(json, "      \"schedule_memo_hits\": {},", m.sched_memo_hits);
        let _ = writeln!(json, "      \"speedup_1_thread\": {:.3},", m.speedup_1t());
        let _ = writeln!(json, "      \"speedup_n_threads\": {:.3}", m.speedup_nt());
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"ga_runs\": [\n");
    for (i, m) in ga_rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"nodes\": {},", m.nodes);
        let _ = writeln!(json, "      \"edges\": {},", m.edges);
        let _ = writeln!(json, "      \"generations\": {},", m.generations);
        let _ = writeln!(json, "      \"serial_seconds\": {:.6},", m.serial_seconds);
        let _ = writeln!(
            json,
            "      \"serial_evaluations\": {},",
            m.serial_evaluations
        );
        let _ = writeln!(json, "      \"batch1_seconds\": {:.6},", m.batch1_seconds);
        let _ = writeln!(json, "      \"batchn_seconds\": {:.6},", m.batchn_seconds);
        let _ = writeln!(json, "      \"nearest_seconds\": {:.6},", m.nearest_seconds);
        let _ = writeln!(
            json,
            "      \"trie_vs_nearest\": {:.3},",
            m.trie_vs_nearest()
        );
        let _ = writeln!(json, "      \"pool_batches\": {},", m.pool_batches);
        let _ = writeln!(json, "      \"pool_dispatches\": {},", m.pool_dispatches);
        let _ = writeln!(
            json,
            "      \"batchn_evaluations\": {},",
            m.batchn_evaluations
        );
        let _ = writeln!(json, "      \"positions\": {},", m.positions);
        let _ = writeln!(
            json,
            "      \"nearest_positions\": {},",
            m.nearest_positions
        );
        let _ = writeln!(json, "      \"full_sims\": {},", m.full_sims);
        let _ = writeln!(json, "      \"windowed_sims\": {},", m.windowed_sims);
        let _ = writeln!(
            json,
            "      \"windowed_skip_positions\": {},",
            m.windowed_skip
        );
        let _ = writeln!(
            json,
            "      \"windowed_skip_rate\": {:.4},",
            m.windowed_skip_rate()
        );
        let _ = writeln!(json, "      \"rolling_sims\": {},", m.rolling_sims);
        let _ = writeln!(
            json,
            "      \"prefix_shared_positions\": {},",
            m.prefix_shared_positions
        );
        let _ = writeln!(
            json,
            "      \"trie_depth_mean\": {:.1},",
            m.trie_depth_mean()
        );
        let _ = writeln!(json, "      \"memo_hits\": {},", m.memo_hits);
        let _ = writeln!(json, "      \"batch_dups\": {},", m.batch_dups);
        let _ = writeln!(json, "      \"memo_hit_rate\": {:.4},", m.memo_hit_rate());
        let _ = writeln!(json, "      \"trails_recorded\": {},", m.trails_recorded);
        let _ = writeln!(json, "      \"memo_peak\": {},", m.memo_peak);
        let _ = writeln!(json, "      \"memo_evictions\": {},", m.memo_evictions);
        let _ = writeln!(json, "      \"speedup_1_thread\": {:.3},", m.speedup_1t());
        let _ = writeln!(json, "      \"speedup_n_threads\": {:.3}", m.speedup_nt());
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < ga_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"ga_generations\": {ga_generations},");
    let _ = writeln!(json, "  \"ga_headline_nodes\": {},", ga_head.nodes);
    let _ = writeln!(
        json,
        "  \"ga_headline_speedup\": {:.3},",
        ga_head.speedup_nt()
    );
    let _ = writeln!(
        json,
        "  \"ga_trie_vs_nearest\": {:.3},",
        trie_head.trie_vs_nearest()
    );
    let _ = writeln!(
        json,
        "  \"ga_windowed_skip_rate\": {:.4},",
        trie_head.windowed_skip_rate()
    );
    match bfs_head {
        Some(head) => {
            let _ = writeln!(json, "  \"headline_nodes\": {},", head.nodes);
            let _ = writeln!(json, "  \"headline_speedup\": {:.3},", head.speedup_nt());
        }
        None => {
            let _ = writeln!(json, "  \"headline_nodes\": null,");
            let _ = writeln!(json, "  \"headline_speedup\": null,");
        }
    }
    match report_head {
        Some(head) => {
            let _ = writeln!(json, "  \"report_headline_nodes\": {},", head.nodes);
            let _ = writeln!(
                json,
                "  \"report_headline_speedup\": {:.3}",
                head.speedup_nt()
            );
        }
        None => {
            let _ = writeln!(json, "  \"report_headline_nodes\": null,");
            let _ = writeln!(json, "  \"report_headline_speedup\": null");
        }
    }
    json.push_str("}\n");
    write_report(&opts, "BENCH_mapper.json", &json);
}
