//! Population evaluation: batches of whole candidate mappings.
//!
//! The decomposition mapper's engine ([`crate::batch::CandidateBatch`])
//! scores *moves against one shared base mapping*.  Population-based
//! searches — the NSGA-II baseline of the paper's §IV-A comparison —
//! need the dual: score a whole population of mappings per generation,
//! where each member is naturally described as a small delta against
//! a parent rather than against a global incumbent.
//!
//! [`PopulationEval`] reuses the engine's machinery for that shape:
//!
//! * **Content-keyed memoization** (`BoundedMemo`): populations repeat
//!   themselves heavily — elitist survivors resurface, crossover of
//!   converged parents reproduces known genomes, and ~37 % of offspring
//!   escape mutation entirely — so fitness values memoized under the
//!   mapping fingerprint answer a growing share of evaluations as the
//!   population converges.  Duplicates *within* one batch are coalesced
//!   too: one simulation serves every identical candidate.  Bounded by
//!   the same generation-stamped LRU policy as the mapper memos.
//! * **Base-relative windowed re-simulation with a cross-batch trail
//!   cache**: a candidate that differs from a base mapping only in
//!   nodes first read at pop position `p` shares the base's exact
//!   schedule state before `p` (the same argument as the mapper's
//!   candidate windows, see docs/PERF.md).  Checkpoint trails are
//!   content-keyed by the base's fingerprint and cached *across*
//!   batches — an elitist survivor keeps parenting offspring for many
//!   generations, so its trail is recorded once and pays out for its
//!   whole lifetime.  The recording gate is purely a *cost* heuristic —
//!   windowed and full simulations produce bit-identical makespans, so
//!   neither the gate nor an eviction can ever change a result.
//! * **A prefix-sharing trie evaluation order**
//!   ([`EvalOrder::PrefixTrie`], the default): within one batch, the
//!   candidates are sorted lexicographically by their device
//!   assignments projected onto ascending earliest-read node order —
//!   the depth-first walk of the genome trie.  Adjacent candidates
//!   then share the longest available genome prefix, and a chain of
//!   them keeps **one rolling checkpoint trail**: extend on descent,
//!   truncate on backtrack, so each sibling replays only its divergent
//!   suffix.  Every candidate windows from
//!   `max(LCP with its trie predecessor, its nearest-base window)`, so
//!   the trie order can never replay *more* positions than the flat
//!   nearest-base policy ([`EvalOrder::NearestBase`], kept as the
//!   executable spec of the PR 3 engine).  A serial planner decides
//!   every restore source and every live snapshot before dispatch; the
//!   trie subtrees are the parallel work items, so results *and*
//!   statistics are thread-invariant (docs/PERF.md has
//!   the exactness argument).
//! * **Parallel simulation** over `spmap-par` worker states, with all
//!   memo reads/writes and every trail decision on the serial
//!   coordinating path, so results *and* memo state are
//!   thread-invariant.
//!
//! The evaluator is BFS-schedule only (the GA's fitness function); the
//! multi-schedule report metric stays the mapper engine's domain.

use std::collections::HashMap;
use std::sync::RwLock;

use spmap_graph::{NodeId, TaskGraph};
use spmap_model::{
    EvalScratch, EvalTables, Mapping, Numbering, Platform, ScheduleCheckpoints, WindowSim,
};
use spmap_par::{par_map_with_threads, DispatchStats, WorkerStates};

use crate::batch::{BoundedMemo, DEFAULT_MEMO_CAPACITY};

/// How one batch's pending candidates are ordered for evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalOrder {
    /// Depth-first genome-trie order with rolling checkpoint trails:
    /// siblings sharing a genome prefix replay only their divergent
    /// suffix.  Each candidate still windows from its nearest-base
    /// position when that is deeper, so this order never replays more
    /// than [`EvalOrder::NearestBase`].
    #[default]
    PrefixTrie,
    /// The flat PR 3 policy, kept as the executable specification:
    /// every candidate independently windows against its nearest
    /// cached base trail (or replays from the zero state).
    NearestBase,
}

/// Tuning knobs of the population evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopulationConfig {
    /// Worker thread count; `None` reads `SPMAP_THREADS` / the machine
    /// parallelism via `spmap_par::num_threads`.
    pub threads: Option<usize>,
    /// Fitness-memo entry cap (generation-stamped LRU; `0` = unbounded).
    pub memo_capacity: usize,
    /// Trail-cache slot cap (LRU; `0` = the memory-budget heuristic
    /// `trail_cache_cap` — ~64 MB of snapshots, clamped to
    /// `[16, 256]` slots).  Eviction can never change a result.
    pub trail_cache_capacity: usize,
    /// Evaluation-order policy (see [`EvalOrder`]).
    pub order: EvalOrder,
    /// Node numbering of the evaluation tables (layout only; results
    /// are bit-identical — see `spmap_model::Numbering`).
    pub numbering: Numbering,
    /// Pin all checkpoint trails (cached base trails and the rolling
    /// trie trails) to the dense snapshot layout (ablation /
    /// bit-identity cells; ~2× the snapshot bytes of suffix-sparse).
    pub dense_checkpoints: bool,
    /// Per-trail checkpoint byte budget (`0` = the 32 MiB default);
    /// widens the snapshot interval, never changes results.
    pub checkpoint_budget_bytes: usize,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            threads: None,
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            trail_cache_capacity: 0,
            order: EvalOrder::PrefixTrie,
            numbering: Numbering::default(),
            dense_checkpoints: false,
            checkpoint_budget_bytes: 0,
        }
    }
}

/// Decision counters of a [`PopulationEval`], accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PopulationStats {
    /// Candidates settled by a full from-scratch simulation.
    pub full_sims: u64,
    /// Candidates settled by a windowed replay (from a cached base
    /// trail or from the rolling trie trail).
    pub windowed_sims: u64,
    /// Candidates answered by the fitness memo without simulation.
    pub memo_hits: u64,
    /// Candidates coalesced onto an identical candidate of the same
    /// batch (one simulation served both).
    pub batch_dups: u64,
    /// FPGA-area-infeasible candidates (no simulation at all).
    pub infeasible: u64,
    /// Base checkpoint trails recorded (one full simulation each).
    pub trails_recorded: u64,
    /// Total schedule positions skipped by windowed replays (each full
    /// simulation processes `n` positions; this is the windows' saved
    /// work, before snapshot-granularity rounding).
    pub windowed_skip: u64,
    /// Windowed replays served by the rolling trie trail (a subset of
    /// `windowed_sims`; the remainder restored from cached base trails).
    pub rolling_sims: u64,
    /// Pop positions the *ordering* saved on top of endpoint caching:
    /// for every rolling-trail replay, its window start minus the best
    /// base-trail window the same candidate had available (a subset of
    /// `windowed_skip` — base caching alone would have saved the
    /// rest).
    pub prefix_shared_positions: u64,
    /// Chained (non-root) candidates of the trie walk.
    pub trie_members: u64,
    /// Summed LCP window starts over the chained candidates — the raw
    /// prefix depth the trie order discovered, before the per-candidate
    /// `max(LCP, base window)` choice.  `trie_lcp_positions /
    /// trie_members` is the mean trie depth in pop positions.
    pub trie_lcp_positions: u64,
    /// Trails dropped from the trail cache by LRU eviction.
    pub trail_evictions: u64,
    /// Largest slot count the trail cache ever held (stays at or below
    /// `PopulationConfig::trail_cache_capacity` when a cap is set).
    pub trail_peak: u64,
    /// Entries dropped from the fitness memo by LRU eviction.
    pub memo_evictions: u64,
    /// Largest entry count the fitness memo ever held (stays at or
    /// below `PopulationConfig::memo_capacity` when a capacity is set).
    pub memo_peak: u64,
}

/// One population member awaiting evaluation: a full candidate mapping,
/// optionally described as a delta against a base mapping of the batch.
#[derive(Clone, Copy, Debug)]
pub struct DeltaCandidate<'a> {
    /// The complete candidate mapping (the delta already applied).
    pub mapping: &'a Mapping,
    /// The mapping's content fingerprint
    /// (`spmap_model::MappingFingerprint::value`); callers maintain it
    /// in `O(k)` from a parent's fingerprint by toggling the changed
    /// assignments.
    pub fingerprint: u128,
    /// Index into the `bases` slice of the [`PopulationEval::evaluate`]
    /// call this candidate is windowed against, or `None` for a
    /// free-standing mapping (always fully simulated on a memo miss).
    pub base: Option<usize>,
    /// A *valid* window start: the candidate and its base mapping must
    /// agree on every task whose device assignment is read before this
    /// breadth-first pop position.  The minimum earliest-read position
    /// over all changed nodes is the exact (latest sound) start; any
    /// smaller value is also sound and merely replays more.  Ignored
    /// when `base` is `None`.
    pub window_start: usize,
}

/// A base mapping candidates of one batch may window against.
#[derive(Clone, Copy, Debug)]
pub struct PopBase<'a> {
    /// The base mapping.
    pub mapping: &'a Mapping,
    /// Its content fingerprint — the trail-cache key.
    pub fingerprint: u128,
}

/// Per-worker simulation state: the evaluation scratch plus one rolling
/// checkpoint trail for the trie chains this worker executes.
struct PopWorker {
    scratch: EvalScratch,
    rolling: ScheduleCheckpoints,
}

/// Trail-cache memory budget: the slot count is scaled so the cache
/// stays within this budget on any graph size, clamped to `[4, 256]`
/// slots.
const TRAIL_CACHE_BYTES: usize = 64 << 20;

/// Trail-cache slot count for an `n`-task graph at snapshot interval
/// `every` (the `trail_cache_capacity = 0` heuristic).  Always sized
/// from the *suffix-sparse* per-trail estimate
/// (`~n²/(2·every)` f64 entries + 1 bit each + per-snapshot device/link
/// state), deliberately ignoring the configured numbering/layout: the
/// cap feeds eviction decisions, and those must stay identical across
/// the bit-identity matrix (dense cells may overshoot the byte budget
/// by ≤ 2×, which the docs call out).
fn trail_cache_cap(n: usize, every: usize) -> usize {
    let n = n.max(1);
    let count = n / every.max(1) + 1;
    let entries = count * n - every * (count * count.saturating_sub(1)) / 2;
    let per_trail = entries * 8 + entries / 8 + count * (8 + 64 + 1) * 8;
    (TRAIL_CACHE_BYTES / per_trail.max(1)).clamp(4, 256)
}

/// Record a new trail only when its batch's children skip at least one
/// full simulation's worth of pop positions — recording costs one full
/// simulation, so the gate guarantees it pays for itself within the
/// batch, and cross-batch reuse is pure profit.
const TRAIL_GAIN_MIN: usize = 1;

/// Target chain length of one trie work item.  The feasible candidates
/// of a batch are split into `ceil(k / TRIE_CHAIN_TARGET)` contiguous
/// DFS ranges — a pure function of the batch, never of the thread
/// count, so the plan (and with it every statistic) is identical for
/// any worker count.  Chains break at the boundaries with
/// the smallest window-depth loss (`LCP − base window`), and a chain
/// root still windows against its nearest cached base trail, so a
/// break never costs more than falling back to the flat policy there.
const TRIE_CHAIN_TARGET: usize = 8;

/// A content-keyed LRU cache of base checkpoint trails.  `RwLock` per
/// slot: recording takes the write lock (each slot written by exactly
/// one worker), windowed replays share the read lock.
struct TrailCache {
    /// base fingerprint -> slot.
    slots: HashMap<u128, usize>,
    stores: Vec<RwLock<ScheduleCheckpoints>>,
    /// LRU stamp per slot (monotone clock; touched on every use).
    stamp: Vec<u64>,
    clock: u64,
    evictions: u64,
    capacity: usize,
    /// Pin newly reserved stores to the dense snapshot layout
    /// (`PopulationConfig::dense_checkpoints`).
    dense: bool,
}

impl TrailCache {
    fn new(n: usize, every: usize, capacity: usize, dense: bool) -> Self {
        Self {
            slots: HashMap::new(),
            stores: Vec::new(),
            stamp: Vec::new(),
            clock: 0,
            evictions: 0,
            capacity: if capacity == 0 {
                trail_cache_cap(n, every)
            } else {
                capacity
            },
            dense,
        }
    }

    /// Largest single trail currently held (bytes).  Shapes are fixed
    /// at first recording, so this is monotone over a run.
    fn peak_bytes(&self) -> usize {
        self.stores
            .iter()
            .map(|s| s.read().unwrap().byte_len())
            .max()
            .unwrap_or(0)
    }

    /// The slot of `fp`'s trail, refreshing its LRU stamp.
    fn get(&mut self, fp: u128) -> Option<usize> {
        self.clock += 1;
        let clock = self.clock;
        self.slots.get(&fp).copied().inspect(|&s| {
            self.stamp[s] = clock;
        })
    }

    /// Reserve a slot for `fp`, evicting the LRU trail at capacity —
    /// but never a slot the current batch already references
    /// (`pinned`): an in-batch reference holds a raw slot index, so
    /// reassigning its store mid-batch would window candidates against
    /// the wrong base's prefix state.  Returns `None` when every slot
    /// is pinned (the batch then falls back to full simulation for
    /// this base's children — always correct, merely slower).  The
    /// caller records into the returned slot's store and must pin it.
    fn reserve(&mut self, fp: u128, every: usize, pinned: &mut Vec<bool>) -> Option<usize> {
        self.clock += 1;
        let slot = if self.stores.len() < self.capacity {
            let store = if self.dense {
                ScheduleCheckpoints::new_dense(every)
            } else {
                ScheduleCheckpoints::new(every)
            };
            self.stores.push(RwLock::new(store));
            self.stamp.push(0);
            pinned.push(false);
            self.stores.len() - 1
        } else {
            let slot = self
                .stamp
                .iter()
                .enumerate()
                .filter(|&(s, _)| !pinned[s])
                .min_by_key(|&(_, &st)| st)
                .map(|(s, _)| s)?;
            // lint:allow(no-unordered-iteration): retain by a pure value predicate (drop the one fingerprint mapped to the evicted slot) — order-independent.
            self.slots.retain(|_, &mut s| s != slot);
            self.evictions += 1;
            slot
        };
        self.slots.insert(fp, slot);
        self.stamp[slot] = self.clock;
        #[cfg(feature = "strict-invariants")]
        {
            assert!(
                self.stores.len() <= self.capacity,
                "strict-invariants: trail cache grew past its capacity ({} > {})",
                self.stores.len(),
                self.capacity
            );
            assert_eq!(
                self.stamp.len(),
                self.stores.len(),
                "strict-invariants: trail cache stamp/store length mismatch"
            );
            // Slot exclusivity: at most one live fingerprint per store,
            // or two bases would window against each other's prefixes.
            // lint:allow(no-unordered-iteration): collecting slot indices for a uniqueness check — any visit order yields the same sorted multiset.
            let mut owned: Vec<usize> = self.slots.values().copied().collect();
            owned.sort_unstable();
            let n = owned.len();
            owned.dedup();
            assert_eq!(
                owned.len(),
                n,
                "strict-invariants: two fingerprints share a trail cache slot"
            );
        }
        Some(slot)
    }

    /// Forget `fp`'s trail (e.g. its recording failed).
    fn forget(&mut self, fp: u128) {
        self.slots.remove(&fp);
    }
}

/// The node scan order of the prefix trie: node ids sorted by
/// `(earliest breadth-first read position, id)`.  Two mappings that
/// first differ (in this order) at a node read at position `p` have
/// bit-identical schedules before `p` — every later-scanned node is
/// read at `p` or later — so `p` is their exact shared window start.
fn scan_nodes(tables: &EvalTables<'_>) -> Vec<u32> {
    let mut scan: Vec<u32> = (0..tables.node_count() as u32).collect();
    scan.sort_by_key(|&v| (tables.earliest_read_pos(NodeId(v)), v));
    scan
}

/// Sparse lexicographic comparator over scan-projected mappings.
///
/// Each mapping is represented by its `(scan rank, device)` differences
/// from a shared reference mapping (the batch's fittest base — a
/// converged population clusters around it, so diff lists are short).
/// Comparing two near-identical genomes then costs `O(shared diff
/// entries)` instead of `O(n)`, which is what makes the trie sort pay
/// for itself: the induced order is *exactly* the dense lexicographic
/// order — ranks where both sides equal the reference compare equal,
/// and a rank where only one side differs resolves against the
/// reference's device (never a tie: a stored diff differs from the
/// reference by construction).
struct SparseProj {
    /// Reference device per scan rank.
    rproj: Vec<spmap_model::DeviceId>,
    /// Concatenated per-candidate diff lists, ascending rank.
    flat: Vec<(u32, spmap_model::DeviceId)>,
    /// Candidate `i`'s diff list is `flat[span[i].0 .. span[i].1]`.
    span: Vec<(u32, u32)>,
}

impl SparseProj {
    /// `scan_rank` is the inverse of the scan order
    /// (`scan_rank[node] = rank`).  The diff pass streams both mappings
    /// in node order (sequential, branch rarely taken) and sorts each
    /// short diff list by rank afterwards — far cheaper than walking
    /// the scan permutation per candidate.
    fn build(scan_rank: &[u32], maps: &[&Mapping], rmap: &Mapping) -> Self {
        let r = rmap.as_slice();
        let n = r.len();
        let mut rproj = vec![spmap_model::DeviceId(0); n];
        for (v, &d) in r.iter().enumerate() {
            rproj[scan_rank[v] as usize] = d;
        }
        let mut flat = Vec::new();
        let mut span = Vec::with_capacity(maps.len());
        for m in maps {
            let ms = m.as_slice();
            let s = flat.len();
            for (v, (&d, &rd)) in ms.iter().zip(r).enumerate() {
                if d != rd {
                    flat.push((scan_rank[v], d));
                }
            }
            flat[s..].sort_unstable_by_key(|&(rank, _)| rank);
            span.push((s as u32, flat.len() as u32));
        }
        Self { rproj, flat, span }
    }

    fn diffs(&self, i: usize) -> &[(u32, spmap_model::DeviceId)] {
        let (s, e) = self.span[i];
        &self.flat[s as usize..e as usize]
    }

    /// Dense lexicographic comparison of candidates `a` and `b` under
    /// the scan projection.
    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        let (mut da, mut db) = (self.diffs(a).iter(), self.diffs(b).iter());
        let (mut na, mut nb) = (da.next(), db.next());
        loop {
            match (na, nb) {
                (None, None) => return std::cmp::Ordering::Equal,
                (Some(&(ra, va)), None) => return va.cmp(&self.rproj[ra as usize]),
                (None, Some(&(rb, vb))) => return self.rproj[rb as usize].cmp(&vb),
                (Some(&(ra, va)), Some(&(rb, vb))) => {
                    if ra < rb {
                        return va.cmp(&self.rproj[ra as usize]);
                    }
                    if rb < ra {
                        return self.rproj[rb as usize].cmp(&vb);
                    }
                    if va != vb {
                        return va.cmp(&vb);
                    }
                    na = da.next();
                    nb = db.next();
                }
            }
        }
    }

    /// First scan rank at which `a` and `b` disagree; `None` when the
    /// mappings are identical.
    fn first_diff_rank(&self, a: usize, b: usize) -> Option<u32> {
        let (mut da, mut db) = (self.diffs(a).iter(), self.diffs(b).iter());
        let (mut na, mut nb) = (da.next(), db.next());
        loop {
            match (na, nb) {
                (None, None) => return None,
                (Some(&(ra, _)), None) => return Some(ra),
                (None, Some(&(rb, _))) => return Some(rb),
                (Some(&(ra, va)), Some(&(rb, vb))) => {
                    if ra != rb {
                        return Some(ra.min(rb));
                    }
                    if va != vb {
                        return Some(ra);
                    }
                    na = da.next();
                    nb = db.next();
                }
            }
        }
    }
}

/// Sort mapping indices lexicographically by device assignment
/// projected onto `scan` — the depth-first walk of the genome trie.
fn sort_trie(proj: &SparseProj) -> Vec<u32> {
    let mut order: Vec<u32> = (0..proj.span.len() as u32).collect();
    // Stable sort: identical mappings keep input order, so the walk is
    // deterministic.
    order.sort_by(|&a, &b| proj.cmp(a as usize, b as usize));
    order
}

/// The depth-first evaluation order of the genome trie over `mappings`
/// — what [`EvalOrder::PrefixTrie`] walks: indices sorted
/// lexicographically by device assignment projected onto ascending
/// earliest-read node order.  Candidates adjacent in this order share
/// the longest genome prefix available in the batch, which is exactly
/// the schedule prefix a rolling checkpoint trail can reuse.
///
/// Exposed for the property suite: the result is always a permutation
/// of `0 .. mappings.len()`, and it is deterministic (stable sort over
/// deterministic keys).
pub fn trie_order(tables: &EvalTables<'_>, mappings: &[&Mapping]) -> Vec<usize> {
    if mappings.is_empty() {
        return Vec::new();
    }
    let scan = scan_nodes(tables);
    let mut scan_rank = vec![0u32; scan.len()];
    for (j, &v) in scan.iter().enumerate() {
        scan_rank[v as usize] = j as u32;
    }
    // Any reference induces the same order (see [`SparseProj`]); the
    // first mapping is as good as any.
    let proj = SparseProj::build(&scan_rank, mappings, mappings[0]);
    sort_trie(&proj).into_iter().map(|i| i as usize).collect()
}

/// Where one planned candidate simulation restores its prefix state
/// from.  Decided entirely on the serial planning path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimSrc {
    /// Full replay from the shared all-zero snapshot.
    Zero,
    /// Windowed from the cached base trail in this cache slot.
    Base(usize),
    /// Windowed from the worker's rolling trie trail.
    Rolling,
}

/// The population evaluation engine: shared immutable [`EvalTables`],
/// a bounded fitness memo, the cross-batch trail cache, and one
/// simulation scratch (plus rolling trail) per worker.
pub struct PopulationEval<'g> {
    tables: EvalTables<'g>,
    threads: usize,
    workers: WorkerStates<PopWorker>,
    memo: BoundedMemo<u128>,
    trails: TrailCache,
    order: EvalOrder,
    /// Node ids sorted by `(earliest read position, id)` — the trie's
    /// scan order, inverted (`scan_rank[node] = rank` — see
    /// [`scan_nodes`]).
    scan_rank: Vec<u32>,
    /// Earliest-read pop position per scan rank
    /// (`scan_pos[j] = earliest_read_pos(scan[j])`, nondecreasing):
    /// turns a first-differing scan rank into its LCP window start.
    scan_pos: Vec<u32>,
    /// Shape/interval oracle of the per-worker rolling trails: the
    /// planner predicts restore snapshot indices through this template
    /// (same constructor as the worker trails, so the clamping
    /// arithmetic can never drift from execution).
    roll_template: ScheduleCheckpoints,
    /// The all-zero snapshot — the shared initial state of every
    /// simulation.  Candidates without a usable window restore it at
    /// position 0: a full-length replay through the precomputed pop
    /// order, bit-identical to the heap-driven simulation but without
    /// the ready-heap's `O(log V)` per pop.
    zero_trail: ScheduleCheckpoints,
    stats: PopulationStats,
    /// The engine thread's `spmap_par` dispatch counters at
    /// construction; [`Self::dispatch`] diffs against this.
    dispatch_base: DispatchStats,
}

impl<'g> PopulationEval<'g> {
    /// Build the evaluator for one `(graph, platform)` pair.
    pub fn new(graph: &'g TaskGraph, platform: &'g Platform, cfg: PopulationConfig) -> Self {
        let tables = EvalTables::with_numbering(graph, platform, cfg.numbering);
        let threads = match cfg.threads {
            Some(n) => n.max(1),
            None => {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                spmap_par::num_threads().clamp(1, cores)
            }
        };
        let n = graph.node_count();
        let m = platform.device_count();
        let every = ScheduleCheckpoints::auto_interval_for(n, cfg.checkpoint_budget_bytes);
        // Rolling trails and the zero trail may use the suffix-sparse
        // layout whenever the tables are pop-order numbered — the
        // population engine only ever replays the BFS order.
        let suffix = tables.suffix_windows() && !cfg.dense_checkpoints;
        let workers = WorkerStates::new(threads, |_| PopWorker {
            scratch: EvalScratch::for_tables(&tables),
            rolling: ScheduleCheckpoints::zeroed_with_layout(n, m, every, suffix),
        });
        let scan = scan_nodes(&tables);
        let scan_pos = scan
            .iter()
            .map(|&v| tables.earliest_read_pos(NodeId(v)) as u32)
            .collect();
        let mut scan_rank = vec![0u32; scan.len()];
        for (j, &v) in scan.iter().enumerate() {
            scan_rank[v as usize] = j as u32;
        }
        Self {
            threads,
            workers,
            memo: BoundedMemo::new(cfg.memo_capacity),
            trails: TrailCache::new(n, every, cfg.trail_cache_capacity, cfg.dense_checkpoints),
            order: cfg.order,
            scan_pos,
            scan_rank,
            roll_template: ScheduleCheckpoints::zeroed_with_layout(n, m, every, suffix),
            zero_trail: ScheduleCheckpoints::zeroed_with_layout(n, m, n + 1, suffix),
            stats: PopulationStats::default(),
            dispatch_base: spmap_par::dispatch_stats(),
            tables,
        }
    }

    /// The shared evaluation tables.
    pub fn tables(&self) -> &EvalTables<'g> {
        &self.tables
    }

    /// Effective worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Decision counters accumulated so far (including the live
    /// eviction counters and the memo/trail-cache peak sizes).
    pub fn stats(&self) -> PopulationStats {
        let mut s = self.stats;
        s.memo_evictions = self.memo.evictions();
        s.memo_peak = self.memo.peak() as u64;
        s.trail_evictions = self.trails.evictions;
        s.trail_peak = self.trails.stores.len() as u64;
        s
    }

    /// How this evaluator's parallel batches were dispatched so far
    /// (serial fast path / persistent-pool wakes) — the calling
    /// thread's `spmap_par` counters since construction.  Lives beside,
    /// not inside, the thread-invariant [`PopulationStats`]: dispatch
    /// counters vary with the thread count by design.
    pub fn dispatch(&self) -> DispatchStats {
        spmap_par::dispatch_stats().since(&self.dispatch_base)
    }

    /// Current entry count of the fitness memo.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Largest single checkpoint trail (bytes) the engine currently
    /// holds — cached base trails, per-worker rolling trails and the
    /// zero trail.  Trail shapes are fixed once recorded, so this is
    /// the run's peak; it is the per-trail number
    /// `PopulationConfig::checkpoint_budget_bytes` gates.
    pub fn checkpoint_peak_bytes(&self) -> u64 {
        let rolling = self
            .workers
            .iter()
            .map(|w| w.rolling.byte_len())
            .max()
            .unwrap_or(0);
        self.trails
            .peak_bytes()
            .max(rolling)
            .max(self.zero_trail.byte_len()) as u64
    }

    /// Total simulations run so far (all workers; trail recordings and
    /// windowed replays both count one each).
    pub fn evaluations(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.scratch.stats().evaluations)
            .sum()
    }

    /// Total schedule positions stepped so far (all workers) — the
    /// engine's real simulation work after snapshot-granularity
    /// rounding; `evaluations * n - positions` is what the windows
    /// actually saved.
    pub fn positions(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.scratch.stats().positions)
            .sum()
    }

    /// Evaluate one batch of candidates (typically a GA generation)
    /// under the breadth-first schedule.  Returns one makespan per
    /// candidate, in input order; `None` marks an FPGA-area-infeasible
    /// mapping.
    ///
    /// Every returned makespan is bit-identical to a from-scratch
    /// `makespan_bfs` of the candidate's mapping: memo entries are pure
    /// values, coalesced duplicates share a fingerprint (hence a
    /// mapping), and every windowed replay — from a cached base trail
    /// or from a rolling trie trail — restores the exact prefix state
    /// of a schedule that agrees with the candidate before the window
    /// start (docs/PERF.md).  All memo reads/writes, the whole trie
    /// plan and every trail decision happen on this (serial) calling
    /// path, so results, statistics, memo and cache state are
    /// thread-invariant.
    pub fn evaluate(
        &mut self,
        bases: &[PopBase<'_>],
        cands: &[DeltaCandidate<'_>],
    ) -> Vec<Option<f64>> {
        let n = self.tables.node_count();
        let mut results: Vec<Option<f64>> = vec![None; cands.len()];
        // Serial memo pass; misses become pending `(index, window)`.
        // Duplicate fingerprints within the batch coalesce onto the
        // first occurrence.
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut first_of: HashMap<u128, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (i, c) in cands.iter().enumerate() {
            if let Some(ms) = self.memo.get(&c.fingerprint) {
                results[i] = Some(ms);
                self.stats.memo_hits += 1;
                continue;
            }
            if let Some(&first) = first_of.get(&c.fingerprint) {
                dups.push((i, first));
                self.stats.batch_dups += 1;
                continue;
            }
            first_of.insert(c.fingerprint, i);
            let from_pos = match c.base {
                Some(_) => c.window_start.min(n),
                None => 0,
            };
            pending.push((i, from_pos));
        }
        // Area feasibility on the serial path: the planners must know
        // which candidates simulate at all (an infeasible candidate
        // cannot anchor a rolling chain), and the verdict is cheap
        // next to a simulation.
        let mut feas: Vec<(usize, usize)> = Vec::with_capacity(pending.len());
        for &(i, from_pos) in &pending {
            if self.tables.area_feasible(cands[i].mapping) {
                feas.push((i, from_pos));
            } else {
                self.stats.infeasible += 1;
            }
        }
        if !feas.is_empty() {
            match self.order {
                EvalOrder::NearestBase => self.evaluate_nearest(bases, cands, &feas, &mut results),
                EvalOrder::PrefixTrie => self.evaluate_trie(bases, cands, &feas, &mut results),
            }
        }
        for (i, first) in dups {
            results[i] = results[first];
        }
        results
    }

    /// Look up cached trails for every base referenced in `refs` and
    /// record new ones where the summed window gain clears the
    /// recording gate.  `refs` holds one `(base, gain)` pair per
    /// planned window: `gain` is the pop-position saving the caller
    /// attributes to this base *if a trail had to be freshly recorded*
    /// (both orders credit the candidate's full base window, so trail
    /// availability never depends on the order policy).  Returns the
    /// usable trail slot per base.  All
    /// cache decisions stay on this serial path; only the recordings
    /// themselves run in parallel.
    fn resolve_trails(
        &mut self,
        bases: &[PopBase<'_>],
        refs: &[(usize, usize)],
    ) -> Vec<Option<usize>> {
        let n = self.tables.node_count();
        let mut trail_slot: Vec<Option<usize>> = vec![None; bases.len()];
        let mut gain: Vec<usize> = vec![0; bases.len()];
        let mut referenced: Vec<bool> = vec![false; bases.len()];
        for &(b, _) in refs {
            referenced[b] = true;
        }
        // Look up cached trails in ascending *base index* order, not in
        // `refs` order: the LRU clock stamps every lookup, and the two
        // evaluation orders present the same reference set in different
        // sequences.  A canonical lookup order makes the cache's stamp
        // sequence — and with it every future eviction — identical
        // across orders, which is what turns "the trie windows from
        // `max(LCP, base window)`" into a real never-steps-more
        // guarantee (the gate in perf_report) instead of a
        // same-trail-set assumption.
        for (b, &refd) in referenced.iter().enumerate() {
            if refd {
                trail_slot[b] = self.trails.get(bases[b].fingerprint);
            }
        }
        for &(b, g) in refs {
            if trail_slot[b].is_none() {
                gain[b] += g;
            }
        }
        // Slots the current batch references hold raw indices into the
        // cache, so eviction must not reassign them mid-batch: pin
        // every looked-up slot, and every slot as it is reserved.
        let mut pinned: Vec<bool> = vec![false; self.trails.stores.len()];
        for slot in trail_slot.iter().flatten() {
            pinned[*slot] = true;
        }
        let every = self.roll_template.every();
        let mut record: Vec<(usize, usize)> = Vec::new(); // (base, slot)
        let mut aliases: Vec<(usize, usize)> = Vec::new(); // duplicate-fp bases
        for b in 0..bases.len() {
            if trail_slot[b].is_some() || gain[b] < TRAIL_GAIN_MIN * n {
                continue;
            }
            // A duplicate-fingerprint base (identical mapping, common in
            // converged populations) may already have reserved a slot
            // earlier in this loop: one recording serves both.
            if let Some(slot) = self.trails.get(bases[b].fingerprint) {
                aliases.push((b, slot));
                continue;
            }
            if let Some(slot) = self
                .trails
                .reserve(bases[b].fingerprint, every, &mut pinned)
            {
                pinned[slot] = true;
                record.push((b, slot));
            }
            // `None`: every slot is pinned by this batch — skip the
            // trail; this base's children fall back to full replays.
        }
        let tables = &self.tables;
        let threads = self.threads;
        let trails = &self.trails;
        let base_ms: Vec<Option<f64>> =
            par_map_with_threads(threads, &mut self.workers, &record, |w, _, item| {
                let &(b, slot) = item;
                let mut store = trails.stores[slot]
                    .write()
                    .expect("trail recording never panics");
                tables.makespan_order_checkpointed(
                    &mut w.scratch,
                    bases[b].mapping,
                    tables.bfs_order(),
                    &mut store,
                )
            });
        // An infeasible base has no usable snapshots: drop its cache
        // entry (and every alias to its slot) so nothing windows
        // against garbage.
        let mut failed: Vec<bool> = vec![false; self.trails.stores.len()];
        for (&(b, slot), ms) in record.iter().zip(&base_ms) {
            if ms.is_some() {
                trail_slot[b] = Some(slot);
                self.stats.trails_recorded += 1;
            } else {
                self.trails.forget(bases[b].fingerprint);
                failed[slot] = true;
            }
        }
        for (b, slot) in aliases {
            if !failed[slot] {
                trail_slot[b] = Some(slot);
            }
        }
        // A freshly recorded trail also computed its base's exact
        // makespan — keep it hot in the memo.
        for (&(b, _), ms) in record.iter().zip(&base_ms) {
            if let Some(ms) = *ms {
                self.memo.insert(bases[b].fingerprint, ms);
            }
        }
        trail_slot
    }

    /// The flat PR 3 evaluation order ([`EvalOrder::NearestBase`]):
    /// every feasible candidate independently windows against its
    /// nearest cached base trail, or replays from the zero state.
    fn evaluate_nearest(
        &mut self,
        bases: &[PopBase<'_>],
        cands: &[DeltaCandidate<'_>],
        feas: &[(usize, usize)],
        results: &mut [Option<f64>],
    ) {
        let refs: Vec<(usize, usize)> = feas
            .iter()
            .filter_map(|&(i, from_pos)| cands[i].base.map(|b| (b, from_pos)))
            .collect();
        let trail_slot = self.resolve_trails(bases, &refs);
        // Simulate the pending candidates in parallel: windowed from
        // the base trail where one exists, from scratch otherwise.
        let items: Vec<(usize, usize, Option<usize>)> = feas
            .iter()
            .map(|&(i, from_pos)| (i, from_pos, cands[i].base.and_then(|b| trail_slot[b])))
            .collect();
        let tables = &self.tables;
        let trails = &self.trails;
        let zero_trail = &self.zero_trail;
        let sims: Vec<f64> =
            par_map_with_threads(self.threads, &mut self.workers, &items, |w, _, item| {
                let &(i, from_pos, trail) = item;
                let store;
                let (ckpt, from_pos) = match trail {
                    Some(slot) => {
                        store = trails.stores[slot]
                            .read()
                            .expect("trail readers never panic");
                        (&*store, from_pos)
                    }
                    // No base trail: replay everything from the shared
                    // zero state — still heap-free through the pop order.
                    None => (zero_trail, 0),
                };
                match tables.makespan_bfs_window(
                    &mut w.scratch,
                    cands[i].mapping,
                    ckpt,
                    from_pos,
                    f64::INFINITY,
                ) {
                    WindowSim::Done(ms) => ms,
                    WindowSim::Cutoff => {
                        unreachable!("no cutoff under an infinite bound")
                    }
                }
            });
        // Serial wrap-up: stats and memo inserts in candidate order.
        for (&(i, from_pos, trail), &ms) in items.iter().zip(&sims) {
            if trail.is_some() {
                self.stats.windowed_sims += 1;
                self.stats.windowed_skip += from_pos as u64;
            } else {
                self.stats.full_sims += 1;
            }
            self.memo.insert(cands[i].fingerprint, ms);
            results[i] = Some(ms);
        }
    }

    /// The prefix-sharing trie order ([`EvalOrder::PrefixTrie`]).
    ///
    /// Phases, all serial except the simulations themselves:
    ///
    /// 1. sort the feasible candidates into the trie's DFS order and
    ///    compute each DFS neighbor pair's exact LCP window start;
    /// 2. split the DFS sequence into `ceil(k / TRIE_CHAIN_TARGET)`
    ///    chains, breaking at the boundaries with the smallest
    ///    window-depth loss;
    /// 3. resolve/record cached base trails with the flat order's
    ///    exact gain arithmetic (so trail availability — and the
    ///    recording cost — matches the flat policy);
    /// 4. plan every candidate's restore source —
    ///    `max(LCP, base window)` — plus the exact set of rolling
    ///    snapshots each replay must re-record for its successors
    ///    (the owner argument in docs/PERF.md);
    /// 5. execute the chains in parallel (one rolling trail per
    ///    worker, reset implicitly: a chain root never reads it);
    /// 6. fold stats/memo/results serially in DFS order.
    fn evaluate_trie(
        &mut self,
        bases: &[PopBase<'_>],
        cands: &[DeltaCandidate<'_>],
        feas: &[(usize, usize)],
        results: &mut [Option<f64>],
    ) {
        // 1. DFS order + LCP window starts, through sparse diff lists
        // against the batch's fittest base (the elite a converged
        // population clusters around): near-identical genomes compare
        // in O(diff) instead of O(n).
        let n = self.tables.node_count();
        let maps: Vec<&Mapping> = feas.iter().map(|&(i, _)| cands[i].mapping).collect();
        let rmap = if bases.is_empty() {
            maps[0]
        } else {
            bases[0].mapping
        };
        let proj = SparseProj::build(&self.scan_rank, &maps, rmap);
        let order = sort_trie(&proj);
        let k_total = order.len();
        let mut lcp = vec![0usize; k_total]; // lcp[k] valid for k >= 1
        for k in 1..k_total {
            lcp[k] = match proj.first_diff_rank(order[k - 1] as usize, order[k] as usize) {
                Some(rank) => self.scan_pos[rank as usize] as usize,
                None => n,
            };
        }
        // 2. Chain partition: `item_count` is a pure function of the
        // batch (never of the thread count), so the plan is invariant.
        let item_count = k_total.div_ceil(TRIE_CHAIN_TARGET).max(1);
        let mut root = vec![false; k_total];
        root[0] = true;
        if item_count > 1 {
            let mut cost: Vec<(usize, usize)> = (1..k_total)
                .map(|k| {
                    let (i, w) = feas[order[k] as usize];
                    let w = if cands[i].base.is_some() { w } else { 0 };
                    (lcp[k].saturating_sub(w), k)
                })
                .collect();
            cost.sort_unstable();
            for &(_, k) in cost.iter().take(item_count - 1) {
                root[k] = true;
            }
        }
        for k in 1..k_total {
            if !root[k] {
                self.stats.trie_members += 1;
                self.stats.trie_lcp_positions += lcp[k] as u64;
            }
        }
        // 3. Base trails.  Every candidate credits its full base
        // window — the *same* gain arithmetic as the flat order — so
        // the trie sees the exact trail set the flat policy would
        // have, and `max(LCP, base window)` per candidate makes its
        // total skipped work a true superset of the flat order's.
        let refs: Vec<(usize, usize)> = (0..k_total)
            .filter_map(|k| {
                let (i, w) = feas[order[k] as usize];
                cands[i].base.map(|b| (b, w))
            })
            .collect();
        let trail_slot = self.resolve_trails(bases, &refs);
        // 4. Per-candidate plan.  `valid_lo` is the restore snapshot of
        // the chain's last non-rolling candidate: rolling snapshots at
        // or above it are (re)creatable by the segment, anything below
        // would read prefix state the segment never computed.  Each
        // rolling restore is assigned an *owner* — the latest segment
        // candidate whose replay covers the restored snapshot — which
        // re-records exactly that snapshot in passing (extend/truncate
        // in place; the exactness argument lives in docs/PERF.md).
        let mut plan_src = vec![SimSrc::Zero; k_total];
        let mut plan_from = vec![0u32; k_total];
        // The best non-rolling window each candidate had (its base
        // window, or 0): `from - alt` of a rolling replay is the
        // ordering's marginal saving (`prefix_shared_positions`).
        let mut plan_alt = vec![0u32; k_total];
        let mut plan_rec: Vec<Vec<u32>> = vec![Vec::new(); k_total];
        let mut item_ranges: Vec<(usize, usize)> = Vec::new();
        {
            let mut valid_lo = usize::MAX;
            let mut seg: Vec<(usize, usize)> = Vec::new(); // (restore snapshot, k)
            let mut item_start = 0usize;
            for k in 0..k_total {
                if root[k] {
                    if k > 0 {
                        item_ranges.push((item_start, k));
                    }
                    item_start = k;
                    valid_lo = usize::MAX;
                    seg.clear();
                }
                let (i, w0) = feas[order[k] as usize];
                let base = cands[i].base.and_then(|b| trail_slot[b]);
                let w = if base.is_some() { w0 } else { 0 };
                let roll_ok = !root[k]
                    && !seg.is_empty()
                    && self.roll_template.snapshot_index(lcp[k]) >= valid_lo;
                let (src, from) = if roll_ok && lcp[k] > 0 && lcp[k] >= w {
                    (SimSrc::Rolling, lcp[k])
                } else if w > 0 {
                    (SimSrc::Base(base.expect("w > 0 only with a trail")), w)
                } else {
                    (SimSrc::Zero, 0)
                };
                let r = self.roll_template.snapshot_index(from);
                match src {
                    SimSrc::Rolling => {
                        let &(owner_r, owner) = seg
                            .iter()
                            .rev()
                            .find(|&&(rm, _)| rm <= r)
                            .expect("the segment head covers every admissible restore");
                        // A redundant record: when the owner itself
                        // *rolling-restored from this very snapshot*,
                        // its content is already the shared prefix
                        // state this restore needs (the owner read it
                        // and never overwrites it unless listed) —
                        // skip the copy.
                        if !(owner_r == r && plan_src[owner] == SimSrc::Rolling) {
                            plan_rec[owner].push(r as u32);
                        }
                        seg.push((r, k));
                    }
                    SimSrc::Base(_) | SimSrc::Zero => {
                        valid_lo = r;
                        seg.clear();
                        seg.push((r, k));
                    }
                }
                plan_src[k] = src;
                plan_from[k] = from as u32;
                plan_alt[k] = w as u32;
            }
            item_ranges.push((item_start, k_total));
        }
        for rec in &mut plan_rec {
            rec.sort_unstable();
            rec.dedup();
        }
        // 5. Execute the chains in parallel; chain k's plan is fully
        // determined, workers only follow it.
        let tables = &self.tables;
        let trails = &self.trails;
        let zero_trail = &self.zero_trail;
        let (plan_src_r, plan_from_r, plan_rec_r) = (&plan_src, &plan_from, &plan_rec);
        let (order_r, feas_r) = (&order, feas);
        let sims: Vec<Vec<f64>> = par_map_with_threads(
            self.threads,
            &mut self.workers,
            &item_ranges,
            |w, _, item| {
                let &(lo, hi) = item;
                (lo..hi)
                    .map(|k| {
                        let (i, _) = feas_r[order_r[k] as usize];
                        let mapping = cands[i].mapping;
                        let from = plan_from_r[k] as usize;
                        let rec = &plan_rec_r[k];
                        match plan_src_r[k] {
                            SimSrc::Zero => tables.makespan_order_window_recording(
                                &mut w.scratch,
                                mapping,
                                tables.bfs_order(),
                                Some(zero_trail),
                                &mut w.rolling,
                                0,
                                rec,
                            ),
                            SimSrc::Base(slot) => {
                                let store = trails.stores[slot]
                                    .read()
                                    .expect("trail readers never panic");
                                tables.makespan_order_window_recording(
                                    &mut w.scratch,
                                    mapping,
                                    tables.bfs_order(),
                                    Some(&*store),
                                    &mut w.rolling,
                                    from,
                                    rec,
                                )
                            }
                            SimSrc::Rolling => tables.makespan_order_window_recording(
                                &mut w.scratch,
                                mapping,
                                tables.bfs_order(),
                                None,
                                &mut w.rolling,
                                from,
                                rec,
                            ),
                        }
                    })
                    .collect()
            },
        );
        // 6. Serial wrap-up in DFS order: stats, memo, results.
        for (&(lo, hi), chain) in item_ranges.iter().zip(&sims) {
            for (k, &ms) in (lo..hi).zip(chain) {
                let (i, _) = feas[order[k] as usize];
                let from = plan_from[k] as u64;
                match plan_src[k] {
                    SimSrc::Zero => self.stats.full_sims += 1,
                    SimSrc::Base(_) => {
                        self.stats.windowed_sims += 1;
                        self.stats.windowed_skip += from;
                    }
                    SimSrc::Rolling => {
                        self.stats.windowed_sims += 1;
                        self.stats.windowed_skip += from;
                        self.stats.rolling_sims += 1;
                        self.stats.prefix_shared_positions += from - plan_alt[k] as u64;
                    }
                }
                self.memo.insert(cands[i].fingerprint, ms);
                results[i] = Some(ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, NodeId};
    use spmap_model::{DeviceId, Evaluator, MappingFingerprint};

    fn setup(seed: u64) -> (TaskGraph, Platform) {
        let mut g = random_sp_graph(&SpGenConfig::new(40, seed));
        augment(&mut g, &AugmentConfig::default(), seed);
        (g, Platform::reference())
    }

    /// Base mappings, and children as `(base index, mapping, moved nodes)`.
    type Zoo = (Vec<Mapping>, Vec<(usize, Mapping, Vec<NodeId>)>);

    /// A family of base mappings plus single/multi-node children of each.
    fn zoo(g: &TaskGraph) -> Zoo {
        let n = g.node_count();
        let bases: Vec<Mapping> = (0..3u32)
            .map(|b| {
                Mapping::from_vec(
                    (0..n)
                        .map(|i| DeviceId(((i as u32).wrapping_mul(3).wrapping_add(b)) % 2))
                        .collect(),
                )
            })
            .collect();
        let mut children = Vec::new();
        for (bi, base) in bases.iter().enumerate() {
            for t in 0..6u32 {
                let mut m = base.clone();
                let mut changed = Vec::new();
                for j in 0..=(t % 3) {
                    let v = NodeId((t.wrapping_mul(7).wrapping_add(j * 11)) % n as u32);
                    let d = DeviceId((m.device(v).0 + 1) % 2);
                    if m.device(v) != d && !changed.contains(&v) {
                        m.set(v, d);
                        changed.push(v);
                    }
                }
                children.push((bi, m, changed));
            }
        }
        (bases, children)
    }

    fn base_refs(bases: &[Mapping]) -> Vec<PopBase<'_>> {
        bases
            .iter()
            .map(|m| PopBase {
                mapping: m,
                fingerprint: MappingFingerprint::of(m).value(),
            })
            .collect()
    }

    fn cand_refs<'a>(
        g: &TaskGraph,
        p: &Platform,
        children: &'a [(usize, Mapping, Vec<NodeId>)],
    ) -> Vec<DeltaCandidate<'a>> {
        let tables = EvalTables::new(g, p);
        children
            .iter()
            .map(|(bi, m, changed)| DeltaCandidate {
                mapping: m,
                fingerprint: MappingFingerprint::of(m).value(),
                base: Some(*bi),
                window_start: changed
                    .iter()
                    .map(|&v| tables.earliest_read_pos(v))
                    .min()
                    .unwrap_or(g.node_count()),
            })
            .collect()
    }

    #[test]
    fn population_results_match_serial_reference_bitwise() {
        for seed in [1u64, 5, 9] {
            let (g, p) = setup(seed);
            let (bases, children) = zoo(&g);
            for order in [EvalOrder::PrefixTrie, EvalOrder::NearestBase] {
                for threads in [1usize, 4] {
                    let mut pe = PopulationEval::new(
                        &g,
                        &p,
                        PopulationConfig {
                            threads: Some(threads),
                            order,
                            ..PopulationConfig::default()
                        },
                    );
                    let bases_v = base_refs(&bases);
                    let cands = cand_refs(&g, &p, &children);
                    let got = pe.evaluate(&bases_v, &cands);
                    let mut ev = Evaluator::new(&g, &p);
                    for (c, r) in children.iter().zip(&got) {
                        assert_eq!(
                            *r,
                            ev.makespan_bfs(&c.1),
                            "seed {seed} t{threads} {order:?}: population fitness drifted"
                        );
                    }
                    // A second pass over the same candidates is pure memo.
                    let sims_before = pe.stats().full_sims + pe.stats().windowed_sims;
                    let again = pe.evaluate(&bases_v, &cands);
                    assert_eq!(got, again);
                    assert_eq!(
                        pe.stats().full_sims + pe.stats().windowed_sims,
                        sims_before,
                        "second pass must be memo-only"
                    );
                }
            }
        }
    }

    #[test]
    fn trie_and_nearest_orders_agree_and_trie_never_replays_more() {
        for seed in [2u64, 7, 12] {
            let (g, p) = setup(seed);
            let (bases, children) = zoo(&g);
            let bases_v = base_refs(&bases);
            let cands = cand_refs(&g, &p, &children);
            let run = |order: EvalOrder| {
                let mut pe = PopulationEval::new(
                    &g,
                    &p,
                    PopulationConfig {
                        threads: Some(2),
                        order,
                        ..PopulationConfig::default()
                    },
                );
                let out = pe.evaluate(&bases_v, &cands);
                (out, pe.stats())
            };
            let (trie, trie_stats) = run(EvalOrder::PrefixTrie);
            let (flat, flat_stats) = run(EvalOrder::NearestBase);
            assert_eq!(trie, flat, "seed {seed}: order changed a fitness value");
            // Per candidate the trie windows from max(LCP, base window),
            // so its total skipped work can only match or beat the flat
            // policy's on the same batch.
            assert!(
                trie_stats.windowed_skip >= flat_stats.windowed_skip,
                "seed {seed}: trie skipped less than flat ({trie_stats:?} vs {flat_stats:?})"
            );
        }
    }

    #[test]
    fn trie_order_is_a_permutation_and_deterministic() {
        let (g, p) = setup(4);
        let (_, children) = zoo(&g);
        let tables = EvalTables::new(&g, &p);
        let maps: Vec<&Mapping> = children.iter().map(|(_, m, _)| m).collect();
        let order = trie_order(&tables, &maps);
        let mut seen = vec![false; maps.len()];
        for &k in &order {
            assert!(!seen[k], "trie order visits candidate {k} twice");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "trie order misses a candidate");
        assert_eq!(order, trie_order(&tables, &maps), "order must be stable");
    }

    #[test]
    fn batch_duplicates_are_coalesced() {
        let (g, p) = setup(2);
        let (bases, mut children) = zoo(&g);
        // Duplicate every child once.
        let copies: Vec<_> = children.clone();
        children.extend(copies);
        let bases_v = base_refs(&bases);
        let cands = cand_refs(&g, &p, &children);
        let mut pe = PopulationEval::new(
            &g,
            &p,
            PopulationConfig {
                threads: Some(2),
                ..PopulationConfig::default()
            },
        );
        let got = pe.evaluate(&bases_v, &cands);
        let half = got.len() / 2;
        assert_eq!(&got[..half], &got[half..], "duplicates must agree");
        assert!(pe.stats().batch_dups >= half as u64 - bases.len() as u64);
        let mut ev = Evaluator::new(&g, &p);
        for (c, r) in children.iter().zip(&got) {
            assert_eq!(*r, ev.makespan_bfs(&c.1));
        }
    }

    #[test]
    fn trail_cache_survives_across_batches() {
        let (g, p) = setup(3);
        let n = g.node_count();
        let base = Mapping::all_default(&g, &p);
        let tables = EvalTables::new(&g, &p);
        // Children touching only late-read nodes: every batch windows.
        let mut late_nodes: Vec<NodeId> = g.nodes().collect();
        late_nodes.sort_by_key(|&v| std::cmp::Reverse(tables.earliest_read_pos(v)));
        let children: Vec<(Mapping, Vec<NodeId>)> = late_nodes
            .iter()
            .take(6)
            .map(|&v| {
                let mut m = base.clone();
                m.set(v, DeviceId(1));
                (m, vec![v])
            })
            .collect();
        let total_gain: usize = children
            .iter()
            .map(|(_, ch)| tables.earliest_read_pos(ch[0]))
            .sum();
        // The flat order credits a fresh trail with every child's full
        // window — the recording-gate arithmetic this test pins.
        let mut pe = PopulationEval::new(
            &g,
            &p,
            PopulationConfig {
                threads: Some(1),
                order: EvalOrder::NearestBase,
                ..PopulationConfig::default()
            },
        );
        let base_fp = MappingFingerprint::of(&base).value();
        let bases_v = [PopBase {
            mapping: &base,
            fingerprint: base_fp,
        }];
        let mut ev = Evaluator::new(&g, &p);
        for round in 0..2 {
            let cands: Vec<DeltaCandidate<'_>> = children
                .iter()
                .map(|(m, ch)| DeltaCandidate {
                    mapping: m,
                    fingerprint: MappingFingerprint::of(m).value(),
                    base: Some(0),
                    window_start: tables.earliest_read_pos(ch[0]),
                })
                .collect();
            let got = pe.evaluate(&bases_v, &cands);
            for ((m, _), r) in children.iter().zip(&got) {
                assert_eq!(*r, ev.makespan_bfs(m), "round {round}");
            }
        }
        if total_gain >= n {
            assert_eq!(
                pe.stats().trails_recorded,
                1,
                "one trail, recorded once, reused next batch: {:?}",
                pe.stats()
            );
            assert!(pe.stats().windowed_sims > 0);
        }
    }

    #[test]
    fn tiny_trail_cache_pins_in_batch_slots_and_stays_exact() {
        // More trail-worthy bases per batch than cache slots: reserves
        // beyond the pinned capacity must fall back to full replays
        // (never reassign an in-batch slot), and cross-batch eviction
        // churn must never move a result.
        let (g, p) = setup(11);
        let n = g.node_count();
        let tables = EvalTables::new(&g, &p);
        let mut late: Vec<NodeId> = g.nodes().collect();
        late.sort_by_key(|&v| std::cmp::Reverse(tables.earliest_read_pos(v)));
        let late = &late[..4.min(late.len())];
        // Distinct bases: the default mapping with one early node moved.
        let bases: Vec<Mapping> = (0..8u32)
            .map(|b| {
                let mut m = Mapping::all_default(&g, &p);
                m.set(NodeId(b % n as u32), DeviceId(1));
                m
            })
            .collect();
        // Each base gets one child per late-read node, so every base's
        // summed window gain clears the recording gate.
        let mut children: Vec<(usize, Mapping, Vec<NodeId>)> = Vec::new();
        for (bi, base) in bases.iter().enumerate() {
            for &v in late {
                let mut m = base.clone();
                m.set(v, DeviceId((m.device(v).0 + 1) % 2));
                children.push((bi, m, vec![v]));
            }
        }
        let bases_v = base_refs(&bases);
        let cands = cand_refs(&g, &p, &children);
        for order in [EvalOrder::PrefixTrie, EvalOrder::NearestBase] {
            let mut pe = PopulationEval::new(
                &g,
                &p,
                PopulationConfig {
                    threads: Some(2),
                    trail_cache_capacity: 3,
                    order,
                    ..PopulationConfig::default()
                },
            );
            let mut ev = Evaluator::new(&g, &p);
            for round in 0..3 {
                let got = pe.evaluate(&bases_v, &cands);
                for ((_, m, _), r) in children.iter().zip(&got) {
                    assert_eq!(*r, ev.makespan_bfs(m), "round {round} {order:?}");
                }
            }
            let stats = pe.stats();
            assert!(
                stats.trails_recorded <= 3,
                "{order:?}: at most capacity trails per batch, and round 2+ is memo-only: {stats:?}"
            );
            assert!(
                stats.trail_peak <= 3,
                "{order:?}: trail cache outgrew its capacity: {stats:?}"
            );
        }
    }

    #[test]
    fn tiny_memo_capacity_evicts_but_never_changes_results() {
        let (g, p) = setup(7);
        let (bases, children) = zoo(&g);
        let bases_v = base_refs(&bases);
        let cands = cand_refs(&g, &p, &children);
        let run = |capacity: usize| {
            let mut pe = PopulationEval::new(
                &g,
                &p,
                PopulationConfig {
                    threads: Some(2),
                    memo_capacity: capacity,
                    ..PopulationConfig::default()
                },
            );
            let mut all = Vec::new();
            for _ in 0..3 {
                all.push(pe.evaluate(&bases_v, &cands));
            }
            (all, pe.stats(), pe.memo_len())
        };
        let (unbounded, _, _) = run(0);
        let (tiny, stats, len) = run(4);
        assert_eq!(unbounded, tiny, "eviction changed a fitness value");
        assert!(stats.memo_evictions > 0, "capacity 4 must evict: {stats:?}");
        assert!(len <= 4, "memo exceeded its capacity: {len}");
        assert!(stats.memo_peak <= 4, "peak exceeded capacity: {stats:?}");
    }

    #[test]
    fn infeasible_candidates_are_reported_not_simulated() {
        let (g, p) = setup(6);
        let n = g.node_count();
        // Mapping everything onto the FPGA blows any realistic budget
        // once areas are inflated.
        let mut g2 = g.clone();
        for v in 0..n {
            g2.task_mut(NodeId(v as u32)).area = 1e6;
        }
        let all_fpga = Mapping::uniform(n, DeviceId(2));
        let ok = Mapping::all_default(&g2, &p);
        let cands = [
            DeltaCandidate {
                mapping: &all_fpga,
                fingerprint: MappingFingerprint::of(&all_fpga).value(),
                base: None,
                window_start: 0,
            },
            DeltaCandidate {
                mapping: &ok,
                fingerprint: MappingFingerprint::of(&ok).value(),
                base: None,
                window_start: 0,
            },
        ];
        for order in [EvalOrder::PrefixTrie, EvalOrder::NearestBase] {
            let mut pe = PopulationEval::new(
                &g2,
                &p,
                PopulationConfig {
                    threads: Some(1),
                    order,
                    ..PopulationConfig::default()
                },
            );
            let got = pe.evaluate(&[], &cands);
            assert_eq!(got[0], None, "{order:?}: infeasible must be None");
            assert!(got[1].is_some(), "{order:?}: feasible must evaluate");
            assert_eq!(pe.stats().infeasible, 1, "{order:?}: {:?}", pe.stats());
        }
    }
}
