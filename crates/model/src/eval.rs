//! The model-based makespan evaluator.
//!
//! A deterministic list-schedule simulation in the spirit of the paper's
//! ref. 5: given a task graph, a platform, a mapping and a priority
//! order, it computes start/finish times for every task and thus the
//! makespan, in `O((V + E) log V)` with no allocations after construction.
//!
//! ## Architecture: tables / scratch split
//!
//! The evaluator is split into two parts so that *many* evaluations can
//! run concurrently without rebuilding anything:
//!
//! * [`EvalTables`] — everything immutable about one `(graph, platform)`
//!   pair: the pre-tabulated `(task, device)` execution times, the
//!   breadth-first priority ranks, a flat CSR copy of the adjacency
//!   (successor ids + edge bytes), cached task areas, and the flattened
//!   link-parameter matrices.  `EvalTables` is `Sync`: share it by `&`
//!   across worker threads, or via `Arc` for `'static` contexts.
//! * [`EvalScratch`] — the small mutable working set of one in-flight
//!   simulation (ready heap, in-degrees, data-ready/start/finish times,
//!   device and link availability).  One scratch per worker; a scratch is
//!   reused across any number of evaluations and never reallocates.
//!
//! [`Evaluator`] bundles one of each behind the original single-threaded
//! API; the parallel candidate engine in `spmap-core` drives
//! [`EvalTables::makespan_bfs`] directly with per-worker scratches from
//! `spmap-par`.
//!
//! ## Simulation semantics (DESIGN.md §6)
//!
//! * CPU/GPU devices execute their mapped tasks sequentially; a popped
//!   task starts at `max(device_free, data_ready)`.
//! * Cross-device edges pay `latency + bytes / bandwidth` **and occupy
//!   the directed link while in flight** (transfers between the same
//!   device pair serialize — the DMA channel is a resource).  Same-device
//!   edges are free.
//! * FPGA→FPGA edges *stream*: the consumer may start after the producer's
//!   pipeline-fill time `φ·exec(u)` instead of after its completion, but
//!   can never finish earlier than `finish(u) + φ·exec(v)`.
//! * The FPGA is a *dataflow* device: a task that is the designated
//!   streaming successor of its producer is a pipeline continuation and
//!   starts as soon as its data streams in (concurrently with its
//!   producer); every producer extends its pipeline through **one**
//!   successor (a pipeline is a chain, not a broadcast tree).  All other
//!   FPGA tasks are pipeline heads and queue on the device like on any
//!   other accelerator, so independent tasks and fan-out branches
//!   serialize — concurrency comes from chain pipelining, not from free
//!   spatial co-tenancy.  Streamed data is buffered, so non-designated
//!   consumers still see the early streamed data-ready times.  The area
//!   budget bounds what can be resident at all (violations make the
//!   mapping infeasible → `None`).
//!
//! The simulation is a pure function of `(tables, mapping, ranks)`: the
//! same inputs produce bit-identical makespans on every thread and every
//! run.  The candidate engine's memoization (`spmap-core`) relies on
//! exactly this property.
//!
//! The paper's reporting metric (§IV-A) — the minimum makespan over a
//! breadth-first schedule and `k` random schedules — is
//! [`Evaluator::report_makespan`]; the optimizers' inner loop uses the
//! breadth-first schedule only ([`Evaluator::makespan_bfs`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spmap_graph::{NodeId, TaskGraph};

use crate::cost::exec_time;
use crate::mapping::Mapping;
use crate::platform::Platform;
use crate::schedule::{priority_ranks, OrderTables, ReportSchedules, SchedulePolicy};
use crate::DeviceId;

/// Counters accumulated over a scratch's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    /// Number of complete makespan evaluations performed.
    pub evaluations: u64,
    /// Schedule positions actually stepped (a full simulation steps
    /// `n`; a windowed replay steps only its suffix after the restored
    /// snapshot).  `evaluations * n - positions` is the work the
    /// windowing machinery really saved, *after* snapshot-granularity
    /// rounding.
    pub positions: u64,
}

/// Detailed simulation result for inspection (examples, Gantt output).
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Start time per task.
    pub start: Vec<f64>,
    /// Finish time per task.
    pub finish: Vec<f64>,
    /// Maximum finish time.
    pub makespan: f64,
}

/// Node numbering of [`EvalTables`]' per-node arrays.
///
/// The numbering is a pure data-layout choice: results are bit-identical
/// under either variant (the permutation is applied once at table build
/// and inverted only at the [`Mapping`]/result boundary).  What changes
/// is memory behaviour at scale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Numbering {
    /// External node ids — the graph's own numbering.  Per-node scratch
    /// access follows the (arbitrary) id assignment of the generator.
    Identity,
    /// Breadth-first pop order: internal index = BFS pop position.  The
    /// dominant simulation order (every optimizer inner loop replays the
    /// BFS schedule) then touches `data_ready`/`start`/`finish` almost
    /// sequentially, successor updates land a few cache lines ahead, and
    /// a snapshot at pop position `p` only needs the `[p..n)` suffix of
    /// the per-node state (see [`ScheduleCheckpoints`]).
    #[default]
    PopOrder,
}

/// Default per-trail checkpoint byte budget (32 MiB) for
/// [`ScheduleCheckpoints::auto_interval_for`]: the snapshot interval
/// widens beyond the replay-balance heuristic once one trail's snapshots
/// would outgrow this.
pub const DEFAULT_CHECKPOINT_BUDGET_BYTES: usize = 32 << 20;

/// Immutable evaluation tables for one `(graph, platform)` pair.
///
/// Building the tables costs `O(V·M + E)` once; afterwards any number of
/// threads can evaluate mappings concurrently against a shared `&EvalTables`
/// with one [`EvalScratch`] each.
pub struct EvalTables<'g> {
    graph: &'g TaskGraph,
    platform: &'g Platform,
    /// Layout of every internal per-node array (`exec`, CSR, scratch).
    numbering: Numbering,
    /// External id → internal index (`perm[v_ext] = v_int`); identity
    /// under [`Numbering::Identity`].
    perm: Vec<u32>,
    /// Internal index → external id (`ext_of[v_int] = v_ext`).
    ext_of: Vec<u32>,
    /// Execution-time table, node-major: `exec[v_int * m + d]` —
    /// *internal* numbering.
    exec: Vec<f64>,
    /// Per-task minimum execution time over all devices (lower bounds).
    /// External numbering (bound accessors take `NodeId`s).
    min_exec: Vec<f64>,
    /// Per-task minimum *path span* over all devices: the least a task
    /// can contribute to any precedence path under any mapping —
    /// `min_d exec(v, d)` on temporal devices, `fill_d · exec(v, d)` on
    /// FPGAs (a streamed consumer still adds its pipeline-fill tail).
    min_span: Vec<f64>,
    /// Longest predecessor path into `v` (exclusive), using `min_span`.
    down_min: Vec<f64>,
    /// Longest successor path out of `v` (exclusive), using `min_span`.
    up_min: Vec<f64>,
    /// `up_min` permuted into internal numbering (the window cutoff test
    /// runs on internal indices).
    up_min_int: Vec<f64>,
    /// Pop tables of the breadth-first schedule.  Which task is popped
    /// next depends only on precedence structure and ranks — never on
    /// times or the mapping — so the whole sequence is precomputable.
    /// This is what makes windowed re-simulation possible; the same holds
    /// for *any* fixed rank vector (see [`OrderTables`]), which is how
    /// the report schedules get the same treatment.
    bfs: OrderTables,
    /// CSR out-adjacency in *internal* numbering: successors of internal
    /// node `v` are `out_dst[out_start[v]..out_start[v+1]]` (internal
    /// indices), with parallel `out_bytes`.  The per-node edge order is
    /// the graph's own out-edge order regardless of numbering — the FPGA
    /// streaming grant goes to the *first* same-device out-edge, so
    /// reordering edges would change semantics.
    out_start: Vec<u32>,
    out_dst: Vec<u32>,
    out_bytes: Vec<f64>,
    /// Initial in-degree per node (internal numbering).
    indeg_init: Vec<u32>,
    /// Cached `task.area` per node (external numbering — area accounting
    /// walks `Mapping::as_slice`).
    area: Vec<f64>,
    /// Per-device flags/parameters, indexed by device.
    is_fpga: Vec<bool>,
    fill: Vec<f64>,
    area_cap: Vec<f64>,
    /// Flattened link parameters: `link_lat[from * m + to]`, same for bw.
    link_lat: Vec<f64>,
    link_bw: Vec<f64>,
    any_fpga: bool,
}

impl<'g> EvalTables<'g> {
    /// Pre-tabulate all `(task, device)` execution times, the breadth-first
    /// priority ranks, and flat copies of adjacency and link parameters,
    /// using the default [`Numbering`] (pop order).
    pub fn new(graph: &'g TaskGraph, platform: &'g Platform) -> Self {
        Self::with_numbering(graph, platform, Numbering::default())
    }

    /// [`Self::new`] with an explicit per-node array [`Numbering`].
    /// Results are bit-identical under either numbering; `Identity`
    /// keeps the graph's own id layout (and forces dense snapshots —
    /// see [`ScheduleCheckpoints`]), `PopOrder` lays the arrays out in
    /// BFS pop order for near-sequential access at scale.
    pub fn with_numbering(
        graph: &'g TaskGraph,
        platform: &'g Platform,
        numbering: Numbering,
    ) -> Self {
        let n = graph.node_count();
        let m = platform.device_count();
        // Several hot paths (area accounting here, the candidate
        // engine's stack-allocated load buffers) are sized for small
        // device counts.  Fail loudly at construction instead of deep
        // inside a simulation.
        assert!(
            m <= 8,
            "platforms are limited to 8 devices (got {m}); widen the fixed-size \
             buffers in spmap-model/src/eval.rs and spmap-core/src/batch.rs to lift this"
        );
        // Execution times in *external* numbering first: the bound
        // tables (min_exec, min_span, down/up_min) are external, and the
        // permutation is not known until the BFS order exists.
        let mut exec_ext = Vec::with_capacity(n * m);
        let mut min_exec = Vec::with_capacity(n);
        for v in graph.nodes() {
            let mut best = f64::INFINITY;
            for d in platform.device_ids() {
                let e = exec_time(platform, d, graph.task(v));
                best = best.min(e);
                exec_ext.push(e);
            }
            min_exec.push(best);
        }
        // Precompute the breadth-first pop order: Kahn's algorithm with
        // the same (rank, id) min-heap the timed simulation uses — the
        // pop sequence is identical because readiness is structural.
        let bfs = OrderTables::for_policy(graph, SchedulePolicy::Bfs);
        // The internal node numbering: identity, or the BFS pop order so
        // the dominant replay order scans the per-node arrays forward.
        let (perm, ext_of): (Vec<u32>, Vec<u32>) = match numbering {
            Numbering::Identity => ((0..n as u32).collect(), (0..n as u32).collect()),
            Numbering::PopOrder => {
                let ext_of = bfs.pop_order().to_vec();
                let mut perm = vec![0u32; n];
                for (i, &v) in ext_of.iter().enumerate() {
                    perm[v as usize] = i as u32;
                }
                (perm, ext_of)
            }
        };
        let mut exec = vec![0.0; n * m];
        for (vi, &ve) in ext_of.iter().enumerate() {
            let ve = ve as usize;
            exec[vi * m..(vi + 1) * m].copy_from_slice(&exec_ext[ve * m..(ve + 1) * m]);
        }
        // CSR rows in internal numbering, destinations translated.  The
        // edges *within* one row keep the graph's out-edge order (the
        // FPGA streaming grant is order-sensitive).
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out_dst = Vec::with_capacity(graph.edge_count());
        let mut out_bytes = Vec::with_capacity(graph.edge_count());
        out_start.push(0);
        for &ve in &ext_of {
            for &e in graph.out_edges(NodeId(ve)) {
                let edge = graph.edge(e);
                out_dst.push(perm[edge.dst.index()]);
                out_bytes.push(edge.bytes);
            }
            out_start.push(out_dst.len() as u32);
        }
        let mut link_lat = vec![0.0; m * m];
        let mut link_bw = vec![f64::INFINITY; m * m];
        for from in platform.device_ids() {
            for to in platform.device_ids() {
                if from != to {
                    let link = platform.link(from, to);
                    link_lat[from.index() * m + to.index()] = link.latency;
                    link_bw[from.index() * m + to.index()] = link.bandwidth;
                }
            }
        }
        let is_fpga: Vec<bool> = platform.device_ids().map(|d| platform.is_fpga(d)).collect();
        let mut min_span = Vec::with_capacity(n);
        for v in graph.nodes() {
            let mut best = f64::INFINITY;
            for d in platform.device_ids() {
                let e = exec_ext[v.index() * m + d.index()];
                let span = if is_fpga[d.index()] {
                    platform.fill_fraction(d) * e
                } else {
                    e
                };
                best = best.min(span);
            }
            min_span.push(best);
        }
        let topo = spmap_graph::ops::topo_order(graph).expect("task graphs are acyclic");
        let mut down_min = vec![0.0f64; n];
        let mut up_min = vec![0.0f64; n];
        for &v in &topo {
            let reach = down_min[v.index()] + min_span[v.index()];
            for w in graph.successors(v) {
                if reach > down_min[w.index()] {
                    down_min[w.index()] = reach;
                }
            }
        }
        for &v in topo.iter().rev() {
            let reach = up_min[v.index()] + min_span[v.index()];
            for u in graph.predecessors(v) {
                if reach > up_min[u.index()] {
                    up_min[u.index()] = reach;
                }
            }
        }
        let up_min_int = ext_of.iter().map(|&v| up_min[v as usize]).collect();
        let indeg_init = ext_of
            .iter()
            .map(|&v| graph.in_degree(NodeId(v)) as u32)
            .collect();
        Self {
            numbering,
            exec,
            min_exec,
            min_span,
            down_min,
            up_min,
            up_min_int,
            bfs,
            out_start,
            out_dst,
            out_bytes,
            indeg_init,
            perm,
            ext_of,
            area: graph.nodes().map(|v| graph.task(v).area).collect(),
            any_fpga: is_fpga.iter().any(|&f| f),
            fill: platform
                .device_ids()
                .map(|d| platform.fill_fraction(d))
                .collect(),
            area_cap: platform
                .device_ids()
                .map(|d| platform.device(d).area_capacity())
                .collect(),
            is_fpga,
            link_lat,
            link_bw,
            graph,
            platform,
        }
    }

    /// The graph these tables simulate.
    #[inline]
    pub fn graph(&self) -> &'g TaskGraph {
        self.graph
    }

    /// The platform these tables simulate.
    #[inline]
    pub fn platform(&self) -> &'g Platform {
        self.platform
    }

    /// Number of task nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.indeg_init.len()
    }

    /// Number of devices.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.is_fpga.len()
    }

    /// Tabulated execution time of task `n` on device `d`.
    #[inline]
    pub fn exec_time(&self, n: NodeId, d: DeviceId) -> f64 {
        self.exec[self.perm[n.index()] as usize * self.device_count() + d.index()]
    }

    /// The full execution-time table, node-major (`[v_int * m + d]`) —
    /// **internal** numbering; translate external ids through
    /// [`Self::internal_index`].
    #[inline]
    pub fn exec_table(&self) -> &[f64] {
        &self.exec
    }

    /// The numbering these tables were built with.
    #[inline]
    pub fn numbering(&self) -> Numbering {
        self.numbering
    }

    /// Approximate heap footprint of the tables in bytes — the budget
    /// currency of the artifact cache (`spmap_model::ArtifactCache`).
    /// An estimate from element counts, not an allocator measurement;
    /// it only needs to rank artifacts proportionally to their size.
    pub fn table_bytes(&self) -> usize {
        let n = self.node_count();
        let m = self.device_count();
        let e = self.out_dst.len();
        let f64s = n * m          // exec
            + 5 * n               // min_exec, min_span, down_min, up_min, up_min_int
            + e                   // out_bytes
            + n                   // area
            + 2 * m               // fill, area_cap
            + 2 * m * m; // link_lat, link_bw
        let u32s = 2 * n          // perm, ext_of
            + (n + 1)             // out_start
            + e                   // out_dst
            + n                   // indeg_init
            + 2 * n; // bfs pop order + ranks (OrderTables)
        f64s * std::mem::size_of::<f64>() + u32s * std::mem::size_of::<u32>() + m
    }

    /// Internal array index of task `n` under this table's numbering.
    #[inline]
    pub fn internal_index(&self, n: NodeId) -> usize {
        self.perm[n.index()] as usize
    }

    /// `true` when BFS-schedule snapshots against these tables may use
    /// the suffix-sparse layout: under pop-order numbering, "not yet
    /// popped at position `p`" is exactly "internal index `>= p`", so a
    /// snapshot needs only the `[p..n)` suffix of the per-node state.
    #[inline]
    pub fn suffix_windows(&self) -> bool {
        matches!(self.numbering, Numbering::PopOrder)
    }

    /// `true` when replaying `order` against these tables is a straight
    /// sequential scan over the internal arrays (pop position == internal
    /// index) — the precondition for suffix-sparse snapshots under this
    /// order.
    #[inline]
    fn seq_order(&self, order: &OrderTables) -> bool {
        self.suffix_windows() && order.is_bfs()
    }

    /// Gather `mapping` into internal numbering for positions
    /// `from..n`, using `buf` as storage.  Under `Identity` the mapping
    /// slice *is* internal and is returned directly (no copy).
    #[inline]
    fn internal_devices<'a>(
        &self,
        buf: &'a mut [DeviceId],
        mapping: &'a Mapping,
        from: usize,
    ) -> &'a [DeviceId] {
        match self.numbering {
            Numbering::Identity => mapping.as_slice(),
            Numbering::PopOrder => {
                let ext = mapping.as_slice();
                for (slot, &ve) in buf[from..].iter_mut().zip(&self.ext_of[from..]) {
                    *slot = ext[ve as usize];
                }
                buf
            }
        }
    }

    /// Minimum execution time of task `n` over all devices.
    #[inline]
    pub fn min_exec_time(&self, n: NodeId) -> f64 {
        self.min_exec[n.index()]
    }

    /// The least path span task `n` can contribute under any mapping:
    /// `min_d exec(n, d)` for temporal devices, `fill · exec` for FPGAs.
    #[inline]
    pub fn min_span(&self, n: NodeId) -> f64 {
        self.min_span[n.index()]
    }

    /// Longest path of `min_span` contributions strictly before `n` plus
    /// strictly after `n`: adding `n`'s own (mapping-dependent) span
    /// yields a sound critical-path lower bound through `n` for *any*
    /// mapping — the engine's strongest pruning component.
    #[inline]
    pub fn path_floor(&self, n: NodeId) -> f64 {
        self.down_min[n.index()] + self.up_min[n.index()]
    }

    /// Pipeline-fill fraction of device `d` (0 for non-FPGAs).
    #[inline]
    pub fn fill_fraction(&self, d: DeviceId) -> f64 {
        self.fill[d.index()]
    }

    /// Longest successor path out of `n` (exclusive) under best-case
    /// spans; `finish(n) + up_min(n)` is a sound bound on the final
    /// makespan the moment `n` is scheduled — the window simulation's
    /// cutoff test.
    #[inline]
    pub fn up_min(&self, n: NodeId) -> f64 {
        self.up_min[n.index()]
    }

    /// The breadth-first pop position at which task `n` is scheduled
    /// (mapping-independent; see [`OrderTables`]).
    #[inline]
    pub fn pop_position(&self, n: NodeId) -> usize {
        self.bfs.pop_position(n)
    }

    /// The earliest breadth-first pop position at which the simulation
    /// reads `n`'s device assignment (see [`OrderTables`]).
    #[inline]
    pub fn earliest_read_pos(&self, n: NodeId) -> usize {
        self.bfs.earliest_read_pos(n)
    }

    /// The precomputed pop tables of the breadth-first schedule.
    #[inline]
    pub fn bfs_order(&self) -> &OrderTables {
        &self.bfs
    }

    /// Cached FPGA area demand of task `n`.
    #[inline]
    pub fn task_area(&self, n: NodeId) -> f64 {
        self.area[n.index()]
    }

    /// `true` if device `d` is a spatial dataflow device.
    #[inline]
    pub fn is_fpga_device(&self, d: DeviceId) -> bool {
        self.is_fpga[d.index()]
    }

    /// Area capacity of device `d` (0 for non-FPGAs).
    #[inline]
    pub fn area_capacity(&self, d: DeviceId) -> f64 {
        self.area_cap[d.index()]
    }

    /// The breadth-first priority ranks used by the optimizers' inner loop.
    #[inline]
    pub fn bfs_ranks(&self) -> &[u32] {
        self.bfs.ranks()
    }

    /// Transfer time for `bytes` moving `from -> to` (0 on-device), using
    /// the same arithmetic as [`Platform::transfer_time`] so results are
    /// bit-identical.
    #[inline]
    pub fn transfer_time(&self, bytes: f64, from: DeviceId, to: DeviceId) -> f64 {
        if from == to {
            0.0
        } else {
            let i = from.index() * self.device_count() + to.index();
            self.link_lat[i] + bytes / self.link_bw[i]
        }
    }

    /// `true` if `mapping` respects every FPGA's area budget.
    pub fn area_feasible(&self, mapping: &Mapping) -> bool {
        // Cheap common case: no FPGA in the platform.
        if !self.any_fpga {
            return true;
        }
        let m = self.device_count();
        let mut used = [0.0f64; 8];
        debug_assert!(m <= 8, "platforms larger than 8 devices need a Vec here");
        for (i, &d) in mapping.as_slice().iter().enumerate() {
            if self.is_fpga[d.index()] {
                used[d.index()] += self.area[i];
            }
        }
        (0..m).all(|d| !self.is_fpga[d] || used[d] <= self.area_cap[d] + 1e-9)
    }

    /// Makespan under an explicit priority-rank vector, or `None` if the
    /// mapping violates an FPGA area budget.  Pure function of
    /// `(self, mapping, ranks)` — any scratch yields the same bits.
    pub fn makespan_with_ranks(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        ranks: &[u32],
    ) -> Option<f64> {
        let n = self.node_count();
        let m = self.device_count();
        debug_assert_eq!(mapping.len(), n);
        debug_assert_eq!(ranks.len(), n);
        debug_assert_eq!(scratch.indeg.len(), n, "scratch sized for this graph");
        debug_assert_eq!(
            scratch.device_free.len(),
            m,
            "scratch sized for this platform"
        );
        scratch.stats.evaluations += 1;
        if !self.area_feasible(mapping) {
            return None;
        }
        scratch.stats.positions += n as u64;
        // Reset scratch.
        scratch.indeg.copy_from_slice(&self.indeg_init);
        scratch.data_ready.iter_mut().for_each(|t| *t = 0.0);
        scratch.start.iter_mut().for_each(|t| *t = 0.0);
        scratch.finish.iter_mut().for_each(|t| *t = 0.0);
        scratch.stream_input.iter_mut().for_each(|s| *s = false);
        scratch.device_free.iter_mut().for_each(|t| *t = 0.0);
        scratch.link_free.iter_mut().for_each(|t| *t = 0.0);
        scratch.heap.clear();
        // The ready heap stays keyed on *external* `(rank, id)` — the
        // pop sequence (and thus every bit of the result) is a function
        // of the rank vector alone, independent of the table numbering.
        // All keys are distinct (the id breaks ties), so heap contents
        // determine the pop order regardless of push order.
        for (vi, &deg) in scratch.indeg.iter().enumerate() {
            if deg == 0 {
                let ve = self.ext_of[vi];
                scratch.heap.push(Reverse((ranks[ve as usize], ve)));
            }
        }
        let devices = mapping.as_slice();
        let mut makespan: f64 = 0.0;
        let mut scheduled = 0usize;
        while let Some(Reverse((_, ve))) = scratch.heap.pop() {
            let v = self.perm[ve as usize] as usize;
            scheduled += 1;
            let d = devices[ve as usize];
            let ev = self.exec[v * m + d.index()];
            let spatial = self.is_fpga[d.index()];
            let start = if spatial {
                if scratch.stream_input[v] {
                    // Pipeline continuation: runs concurrently with its
                    // producers; the pipeline occupies the device until
                    // its last stage drains.
                    scratch.data_ready[v]
                } else {
                    // Pipeline head: queues like on any other device.
                    scratch.device_free[d.index()].max(scratch.data_ready[v])
                }
            } else {
                let s = scratch.device_free[d.index()].max(scratch.data_ready[v]);
                scratch.device_free[d.index()] = s + ev;
                s
            };
            let fin = start + ev;
            if spatial {
                let free = &mut scratch.device_free[d.index()];
                *free = free.max(fin);
            }
            scratch.start[v] = start;
            scratch.finish[v] = fin;
            makespan = makespan.max(fin);
            let fill = self.fill[d.index()];
            // A pipeline extends through one successor only: grant the
            // queue-skip to the first same-FPGA out-edge.
            let mut stream_granted = false;
            let lo = self.out_start[v] as usize;
            let hi = self.out_start[v + 1] as usize;
            for k in lo..hi {
                let w = self.out_dst[k] as usize;
                let we = self.ext_of[w] as usize;
                let dw = devices[we];
                let ready = if dw == d {
                    if spatial {
                        // Streaming: the consumer's data arrives after the
                        // pipeline fill, but it cannot finish before the
                        // producer (+ its own fill tail).
                        if !stream_granted {
                            scratch.stream_input[w] = true;
                            stream_granted = true;
                        }
                        let ew = self.exec[w * m + dw.index()];
                        (start + fill * ev).max(fin - (1.0 - fill) * ew)
                    } else {
                        fin
                    }
                } else {
                    // The transfer occupies the directed link: it starts
                    // when both the data and the link are available.
                    let li = d.index() * m + dw.index();
                    let tr = self.link_lat[li] + self.out_bytes[k] / self.link_bw[li];
                    let link = &mut scratch.link_free[li];
                    let t_start = fin.max(*link);
                    *link = t_start + tr;
                    t_start + tr
                };
                if ready > scratch.data_ready[w] {
                    scratch.data_ready[w] = ready;
                }
                scratch.indeg[w] -= 1;
                if scratch.indeg[w] == 0 {
                    scratch.heap.push(Reverse((ranks[we], we as u32)));
                }
            }
        }
        debug_assert_eq!(scheduled, n, "graph must be acyclic");
        Some(makespan)
    }

    /// Makespan under the deterministic breadth-first schedule — the
    /// optimizers' inner-loop cost function.
    #[inline]
    pub fn makespan_bfs(&self, scratch: &mut EvalScratch, mapping: &Mapping) -> Option<f64> {
        self.makespan_with_ranks(scratch, mapping, self.bfs.ranks())
    }

    /// One pop-order simulation step: process the task at *internal*
    /// index `v` and fold its finish time into `makespan`.  `devices`
    /// must be internal-numbered (see [`Self::internal_devices`]).  The
    /// arithmetic is the exact sequence of [`Self::makespan_with_ranks`],
    /// so heap-driven, checkpointed and windowed runs agree bit for bit
    /// — for any fixed schedule, not just the breadth-first one.
    ///
    /// `inline(always)`: every window/replay variant spends its whole
    /// life in this step; an out-of-line call (the inliner bails on the
    /// two-loop recording replay) costs measurable ns/position.
    #[inline(always)]
    fn sim_step(
        &self,
        scratch: &mut EvalScratch,
        devices: &[DeviceId],
        v: usize,
        makespan: &mut f64,
    ) -> f64 {
        // Read-bound checker for suffix checkpoints: a windowed replay
        // restored at `read_floor` must never touch per-node state below
        // it (see `ScheduleCheckpoints::restore`).
        #[cfg(feature = "strict-invariants")]
        assert!(
            v >= scratch.read_floor,
            "strict-invariants: replay stepped position {v} below its restore \
             floor {}",
            scratch.read_floor
        );
        let m = self.device_count();
        let d = devices[v];
        let ev = self.exec[v * m + d.index()];
        let spatial = self.is_fpga[d.index()];
        let start = if spatial {
            if scratch.stream_input[v] {
                scratch.data_ready[v]
            } else {
                scratch.device_free[d.index()].max(scratch.data_ready[v])
            }
        } else {
            let s = scratch.device_free[d.index()].max(scratch.data_ready[v]);
            scratch.device_free[d.index()] = s + ev;
            s
        };
        let fin = start + ev;
        if spatial {
            let free = &mut scratch.device_free[d.index()];
            *free = free.max(fin);
        }
        scratch.start[v] = start;
        scratch.finish[v] = fin;
        *makespan = makespan.max(fin);
        let fill = self.fill[d.index()];
        let mut stream_granted = false;
        let lo = self.out_start[v] as usize;
        let hi = self.out_start[v + 1] as usize;
        for k in lo..hi {
            let w = self.out_dst[k] as usize;
            #[cfg(feature = "strict-invariants")]
            assert!(
                w >= scratch.read_floor,
                "strict-invariants: replay updated successor {w} below its \
                 restore floor {}",
                scratch.read_floor
            );
            let dw = devices[w];
            let ready = if dw == d {
                if spatial {
                    if !stream_granted {
                        scratch.stream_input[w] = true;
                        stream_granted = true;
                    }
                    let ew = self.exec[w * m + dw.index()];
                    (start + fill * ev).max(fin - (1.0 - fill) * ew)
                } else {
                    fin
                }
            } else {
                let li = d.index() * m + dw.index();
                let tr = self.link_lat[li] + self.out_bytes[k] / self.link_bw[li];
                let link = &mut scratch.link_free[li];
                let t_start = fin.max(*link);
                *link = t_start + tr;
                t_start + tr
            };
            if ready > scratch.data_ready[w] {
                scratch.data_ready[w] = ready;
            }
        }
        fin
    }

    /// Internal index of the task at pop position `i` of `order`: the
    /// position itself on the sequential fast path (pop-order numbering
    /// replaying BFS), a permuted lookup otherwise.
    #[inline(always)]
    fn pop_internal(&self, seq: bool, pop_order: &[u32], i: usize) -> usize {
        if seq {
            i
        } else {
            self.perm[pop_order[i] as usize] as usize
        }
    }

    /// Makespan under schedule `order` via its precomputed pop order,
    /// recording a state snapshot into `out` every `out.every` pops.
    /// Functionally identical to
    /// [`Self::makespan_with_ranks`]`(…, order.ranks())` (same checks,
    /// same bits); the snapshots let [`Self::makespan_order_window`]
    /// later re-simulate any candidate from its first affected position
    /// instead of from zero.
    pub fn makespan_order_checkpointed(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        order: &OrderTables,
        out: &mut ScheduleCheckpoints,
    ) -> Option<f64> {
        let n = self.node_count();
        let m = self.device_count();
        debug_assert_eq!(mapping.len(), n);
        debug_assert_eq!(order.len(), n);
        scratch.stats.evaluations += 1;
        if !self.area_feasible(mapping) {
            return None;
        }
        scratch.stats.positions += n as u64;
        scratch.reset_times();
        let seq = self.seq_order(order);
        out.reset_shape(n, m, seq);
        let pop_order = order.pop_order();
        let mut dev_buf = std::mem::take(&mut scratch.devices);
        let devices = self.internal_devices(&mut dev_buf, mapping, 0);
        let mut makespan: f64 = 0.0;
        for i in 0..n {
            if i % out.every == 0 {
                out.record(i / out.every, scratch, makespan);
            }
            let v = self.pop_internal(seq, pop_order, i);
            self.sim_step(scratch, devices, v, &mut makespan);
        }
        scratch.devices = dev_buf;
        Some(makespan)
    }

    /// Breadth-first [`Self::makespan_order_checkpointed`].
    #[inline]
    pub fn makespan_bfs_checkpointed(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        out: &mut ScheduleCheckpoints,
    ) -> Option<f64> {
        self.makespan_order_checkpointed(scratch, mapping, &self.bfs, out)
    }

    /// Windowed makespan of a candidate mapping under schedule `order`:
    /// restore the base-schedule snapshot covering `from_pos` (the
    /// candidate's earliest affected position *under this schedule*) and
    /// replay only from there.
    ///
    /// Aborts with [`WindowSim::Cutoff`] as soon as a scheduled task
    /// proves `makespan > cutoff` via `finish + up_min`.  That sum can
    /// exceed the simulated makespan by a few ulps, so a caller that
    /// must never abort an exact *tie* passes a slightly inflated
    /// cutoff.  Pass `f64::INFINITY` to disable the cutoff.
    ///
    /// The caller must have verified FPGA-area feasibility (the engine
    /// prechecks it incrementally), `ckpt` must hold snapshots recorded
    /// by [`Self::makespan_order_checkpointed`] under the *same* `order`,
    /// and the snapshotted base mapping must agree with `mapping` on
    /// every task read before `from_pos` (see
    /// [`OrderTables::earliest_read_pos`]).
    pub fn makespan_order_window(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        order: &OrderTables,
        ckpt: &ScheduleCheckpoints,
        from_pos: usize,
        cutoff: f64,
    ) -> WindowSim {
        let n = self.node_count();
        debug_assert_eq!(mapping.len(), n);
        debug_assert!(self.area_feasible(mapping), "caller prechecks area");
        let seq = self.seq_order(order);
        assert!(
            !ckpt.suffix || seq,
            "suffix-sparse snapshots can only replay the tables' own pop order"
        );
        scratch.stats.evaluations += 1;
        let start_pos = ckpt.restore(from_pos, scratch);
        let mut makespan = ckpt.makespan[start_pos / ckpt.every];
        let pop_order = order.pop_order();
        let mut dev_buf = std::mem::take(&mut scratch.devices);
        // A sequential replay only reads internal indices >= start_pos;
        // any other order may read anywhere.
        let gather_from = if seq { start_pos } else { 0 };
        let devices = self.internal_devices(&mut dev_buf, mapping, gather_from);
        let mut result = None;
        for i in start_pos..n {
            let v = self.pop_internal(seq, pop_order, i);
            let fin = self.sim_step(scratch, devices, v, &mut makespan);
            if fin + self.up_min_int[v] > cutoff {
                // Charge only what actually ran: aborted replays must
                // not inflate the stepped-position counter.
                scratch.stats.positions += (i + 1 - start_pos) as u64;
                result = Some(WindowSim::Cutoff);
                break;
            }
        }
        scratch.devices = dev_buf;
        result.unwrap_or_else(|| {
            scratch.stats.positions += (n - start_pos) as u64;
            WindowSim::Done(makespan)
        })
    }

    /// Windowed replay that *extends a rolling checkpoint trail* while
    /// it simulates: restore the snapshot covering `from_pos` from
    /// `src` — or from `rolling` itself when `src` is `None` — then
    /// replay the suffix, re-recording into `rolling` exactly the
    /// snapshots listed in `record` (ascending indices on `rolling`'s
    /// interval grid, all within the replayed range).
    ///
    /// This is the primitive behind the population engine's
    /// prefix-sharing trie order (docs/PERF.md): a depth-first chain of
    /// candidates keeps one rolling trail per branch.  *Truncate to
    /// position* on backtrack is implicit — stale suffix snapshots are
    /// only ever read after being re-recorded (the engine's serial
    /// planner proves which snapshots are live for which candidate) —
    /// and *extend in place* costs one `O(V)` memcpy per listed
    /// snapshot instead of a fresh full trail.
    ///
    /// Exactness: the replay runs the exact single-step arithmetic of
    /// [`Self::makespan_with_ranks`], so the result is bit-identical to
    /// a from-scratch simulation of `mapping` whenever the restored
    /// snapshot's originating mapping agrees with `mapping` on every
    /// task read before `from_pos`.  The caller must precheck FPGA-area
    /// feasibility and guarantee that agreement; `rolling` must be
    /// shaped for this graph/platform (e.g. via
    /// [`ScheduleCheckpoints::zeroed`]).  There is no cutoff — the
    /// population engine's fitness calls always complete.
    #[allow(clippy::too_many_arguments)]
    pub fn makespan_order_window_recording(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        order: &OrderTables,
        src: Option<&ScheduleCheckpoints>,
        rolling: &mut ScheduleCheckpoints,
        from_pos: usize,
        record: &[u32],
    ) -> f64 {
        let n = self.node_count();
        debug_assert_eq!(mapping.len(), n);
        debug_assert!(self.area_feasible(mapping), "caller prechecks area");
        let seq = self.seq_order(order);
        assert!(
            !rolling.suffix || seq,
            "suffix-sparse trails can only record the tables' own pop order"
        );
        if let Some(t) = src {
            assert!(
                !t.suffix || seq,
                "suffix-sparse snapshots can only replay the tables' own pop order"
            );
        }
        scratch.stats.evaluations += 1;
        let (start_pos, mut makespan) = match src {
            Some(t) => {
                let s = t.restore(from_pos, scratch);
                (s, t.makespan[s / t.every])
            }
            None => {
                let s = rolling.restore(from_pos, scratch);
                (s, rolling.makespan[s / rolling.every])
            }
        };
        scratch.stats.positions += (n - start_pos) as u64;
        let pop_order = order.pop_order();
        let mut dev_buf = std::mem::take(&mut scratch.devices);
        let gather_from = if seq { start_pos } else { 0 };
        let devices = self.internal_devices(&mut dev_buf, mapping, gather_from);
        let every = rolling.every;
        // Segment-wise replay: between two listed snapshots the inner
        // loop is exactly the plain window loop — no per-position
        // record check at all (record lists are short; most replays
        // list zero or one snapshot).
        let mut i = start_pos;
        for &j in record {
            let rpos = (j as usize) * every;
            debug_assert!(
                (start_pos..n).contains(&rpos),
                "record list reaches outside the replayed range"
            );
            while i < rpos {
                let v = self.pop_internal(seq, pop_order, i);
                self.sim_step(scratch, devices, v, &mut makespan);
                i += 1;
            }
            rolling.record(j as usize, scratch, makespan);
        }
        while i < n {
            let v = self.pop_internal(seq, pop_order, i);
            self.sim_step(scratch, devices, v, &mut makespan);
            i += 1;
        }
        scratch.devices = dev_buf;
        makespan
    }

    /// Breadth-first [`Self::makespan_order_window`].
    #[inline]
    pub fn makespan_bfs_window(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        ckpt: &ScheduleCheckpoints,
        from_pos: usize,
        cutoff: f64,
    ) -> WindowSim {
        self.makespan_order_window(scratch, mapping, &self.bfs, ckpt, from_pos, cutoff)
    }

    /// Makespan under an arbitrary policy.
    pub fn makespan(
        &self,
        scratch: &mut EvalScratch,
        mapping: &Mapping,
        policy: SchedulePolicy,
    ) -> Option<f64> {
        match policy {
            SchedulePolicy::Bfs => self.makespan_bfs(scratch, mapping),
            _ => {
                let ranks = priority_ranks(self.graph, policy);
                self.makespan_with_ranks(scratch, mapping, &ranks)
            }
        }
    }
}

/// Reusable mutable working set of one in-flight simulation.
///
/// Allocates once for a `(node count, device count)` shape; every
/// evaluation reuses the buffers.  Create one per worker thread.
#[derive(Clone, Debug)]
pub struct EvalScratch {
    indeg: Vec<u32>,
    data_ready: Vec<f64>,
    start: Vec<f64>,
    finish: Vec<f64>,
    device_free: Vec<f64>,
    /// `link_free[from * m + to]` — next time the directed link is idle.
    link_free: Vec<f64>,
    stream_input: Vec<bool>,
    /// Gather buffer for the mapping permuted into the tables' internal
    /// numbering (pop-order paths; unused under identity numbering).
    devices: Vec<DeviceId>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    stats: EvalStats,
    /// Lowest per-node index the current (windowed) replay may touch —
    /// armed by [`ScheduleCheckpoints::restore`] under the suffix
    /// layout, checked by `sim_step`/`record` (docs/DETERMINISM.md).
    #[cfg(feature = "strict-invariants")]
    read_floor: usize,
}

impl EvalScratch {
    /// A scratch for graphs with `nodes` tasks on `devices` devices.
    pub fn new(nodes: usize, devices: usize) -> Self {
        Self {
            indeg: vec![0; nodes],
            data_ready: vec![0.0; nodes],
            start: vec![0.0; nodes],
            finish: vec![0.0; nodes],
            device_free: vec![0.0; devices],
            link_free: vec![0.0; devices * devices],
            stream_input: vec![false; nodes],
            devices: vec![DeviceId(0); nodes],
            heap: BinaryHeap::with_capacity(nodes),
            stats: EvalStats::default(),
            #[cfg(feature = "strict-invariants")]
            read_floor: 0,
        }
    }

    /// A scratch shaped for `tables`.
    pub fn for_tables(tables: &EvalTables<'_>) -> Self {
        Self::new(tables.node_count(), tables.device_count())
    }

    /// Zero every timing buffer (the pop-order paths need no in-degree
    /// or heap state).
    fn reset_times(&mut self) {
        #[cfg(feature = "strict-invariants")]
        {
            self.read_floor = 0;
        }
        self.data_ready.iter_mut().for_each(|t| *t = 0.0);
        self.start.iter_mut().for_each(|t| *t = 0.0);
        self.finish.iter_mut().for_each(|t| *t = 0.0);
        self.stream_input.iter_mut().for_each(|s| *s = false);
        self.device_free.iter_mut().for_each(|t| *t = 0.0);
        self.link_free.iter_mut().for_each(|t| *t = 0.0);
    }

    /// Start time per task of the most recent complete evaluation,
    /// indexed by the tables' *internal* numbering (translate with
    /// [`EvalTables::internal_index`]; [`Evaluator::simulate`] returns
    /// externally-indexed copies).
    #[inline]
    pub fn start_times(&self) -> &[f64] {
        &self.start
    }

    /// Finish time per task of the most recent complete evaluation
    /// (internal numbering, like [`Self::start_times`]).
    #[inline]
    pub fn finish_times(&self) -> &[f64] {
        &self.finish
    }

    /// Lifetime evaluation counters of this scratch.
    #[inline]
    pub fn stats(&self) -> EvalStats {
        self.stats
    }
}

/// Outcome of a windowed candidate simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowSim {
    /// The complete makespan (bit-identical to a from-scratch run).
    Done(f64),
    /// Aborted: the makespan is *strictly* above the cutoff, so the
    /// candidate provably cannot beat the incumbent improvement.
    Cutoff,
}

/// State snapshots of one base-mapping list schedule (breadth-first or
/// any fixed [`OrderTables`]), taken every `every` pop positions by
/// [`EvalTables::makespan_order_checkpointed`] and consumed by
/// [`EvalTables::makespan_order_window`].
///
/// Because the pop order of a fixed rank vector is mapping-independent,
/// a candidate that first affects the schedule at position `p` shares the
/// base schedule's exact state before `p`; restoring the latest snapshot
/// at or before `p` replaces the `O(V + E)` prefix with an `O(V)` memcpy.
///
/// ## Snapshot layouts
///
/// Per-node state (`data_ready`, packed `stream_input` bits) is stored in
/// one of two layouts, chosen when the recording run shapes the store:
///
/// * **dense** — every snapshot holds all `n` entries.  Always sound.
/// * **suffix-sparse** — snapshot `j` holds only internal indices
///   `[j·every .. n)`.  Sound exactly when the replayed order is a
///   sequential scan of the tables' internal numbering
///   ([`Numbering::PopOrder`] replaying the BFS order): from position
///   `p` onward the simulation reads and writes per-node state only at
///   internal indices `>= p` — the popped task *is* index `i >= p`, and
///   every successor pops later, so its index is `> i`.  Total bytes
///   drop from `count·n` to `Σ_j (n − j·every) ≈ n²/(2·every)` — half —
///   and restores become suffix memcpys.
///
/// The `O(m + m²)` device/link state and the running makespan are dense
/// per snapshot in both layouts.  `stream_input` is bit-packed (1
/// bit/node instead of 1 byte/node) in both layouts.
#[derive(Clone, Debug)]
pub struct ScheduleCheckpoints {
    every: usize,
    n: usize,
    m: usize,
    count: usize,
    /// `true`: suffix-sparse per-node layout (see type docs).
    suffix: bool,
    /// `true`: never adopt the suffix layout, even when the recording
    /// order would allow it (ablation / bit-identity test cells).
    dense_only: bool,
    /// Per-snapshot start offsets into `data_ready` (`count + 1`
    /// entries; snapshot `j` owns `data_ready[off[j]..off[j+1]]`).
    off: Vec<usize>,
    /// Per-snapshot start offsets into `stream_words`.
    woff: Vec<usize>,
    data_ready: Vec<f64>,
    device_free: Vec<f64>,
    link_free: Vec<f64>,
    /// Bit-packed `stream_input`: bit `k` of snapshot `j`'s words is
    /// node `lo_j + k` (`lo_j` = the snapshot's first stored index).
    stream_words: Vec<u64>,
    makespan: Vec<f64>,
}

impl ScheduleCheckpoints {
    /// An empty snapshot store with a fixed interval.  The layout is
    /// chosen by the first recording run: suffix-sparse when the order
    /// allows it, dense otherwise.
    pub fn new(every: usize) -> Self {
        Self {
            every: every.max(1),
            n: 0,
            m: 0,
            count: 0,
            suffix: false,
            dense_only: false,
            off: Vec::new(),
            woff: Vec::new(),
            data_ready: Vec::new(),
            device_free: Vec::new(),
            link_free: Vec::new(),
            stream_words: Vec::new(),
            makespan: Vec::new(),
        }
    }

    /// [`Self::new`], pinned to the dense layout regardless of the
    /// recording order (the bit-identity matrix's dense cells).
    pub fn new_dense(every: usize) -> Self {
        let mut s = Self::new(every);
        s.dense_only = true;
        s
    }

    /// A store holding only the all-zero snapshot at position 0 for an
    /// `n`-task, `m`-device shape.  The zero state is the initial state
    /// of *every* simulation, so windowing from position 0 against this
    /// store replays the whole schedule through the precomputed pop
    /// order — bit-identical to the heap-driven run, but without paying
    /// the ready-heap's `O(log V)` per pop
    /// ([`EvalTables::makespan_order_window`] with `from_pos = 0`).
    pub fn zeroed(n: usize, m: usize, every: usize) -> Self {
        Self::zeroed_with_layout(n, m, every, false)
    }

    /// [`Self::zeroed`] with an explicit layout: `suffix = true` shapes
    /// the store suffix-sparse, for rolling trails that will be
    /// re-recorded in place by sequential replays
    /// ([`EvalTables::makespan_order_window_recording`] asserts the
    /// compatibility).
    pub fn zeroed_with_layout(n: usize, m: usize, every: usize, suffix: bool) -> Self {
        let mut s = Self::new(every);
        s.dense_only = !suffix;
        s.reset_shape(n, m, suffix);
        s
    }

    /// An interval balancing snapshot memory (`~n/every` snapshots of
    /// `O(n)` state) against replay length, for an `n`-task graph.
    ///
    /// The interval scales with the graph (`n/32`, so ~32 snapshots per
    /// trail regardless of size): a fixed ceiling would make the
    /// snapshot *count* — and with it the recording bandwidth per pop
    /// position — grow linearly with `n`, and at the XL sizes that
    /// copy traffic would dominate the simulation kernel itself.  The
    /// 4096 ceiling only caps replay length beyond ~131k tasks, where
    /// the byte budget ([`Self::auto_interval_for`]) takes over anyway.
    pub fn auto_interval(n: usize) -> usize {
        (n / 32).clamp(8, 4096)
    }

    /// Budget-aware [`Self::auto_interval`]: the balance heuristic's
    /// interval, widened until one trail's snapshot bytes fit
    /// `budget_bytes` (`0` ⇒ [`DEFAULT_CHECKPOINT_BUDGET_BYTES`]).
    ///
    /// Sized against the *dense* estimate `~8.125·n²/every` bytes
    /// (`count·n` f64 entries plus 1 bit each), so the budget holds for
    /// both layouts; suffix-sparse stores land near half of it.  An
    /// eighth of the budget is reserved for the dense device/link state
    /// and the `+1` partial snapshot.
    pub fn auto_interval_for(n: usize, budget_bytes: usize) -> usize {
        let budget = if budget_bytes == 0 {
            DEFAULT_CHECKPOINT_BUDGET_BYTES
        } else {
            budget_bytes
        };
        let budget = (budget - budget / 8).max(1) as u64;
        // count * n * (8 + 1/8) bytes <= budget, count ~ n/every.
        let need = (n as u64) * (n as u64) * 65 / 8;
        let widened = need.div_ceil(budget) as usize;
        Self::auto_interval(n).max(widened)
    }

    /// Snapshot interval in pop positions.
    pub fn every(&self) -> usize {
        self.every
    }

    /// Number of snapshot slots of the current shape.
    pub fn snapshot_count(&self) -> usize {
        self.count
    }

    /// `true` when the store currently uses the suffix-sparse layout.
    #[inline]
    pub fn is_suffix(&self) -> bool {
        self.suffix
    }

    /// Heap bytes of the snapshot payload at the current shape — the
    /// number the checkpoint byte budget gates.
    pub fn byte_len(&self) -> usize {
        (self.data_ready.len()
            + self.device_free.len()
            + self.link_free.len()
            + self.stream_words.len()
            + self.makespan.len())
            * 8
            + (self.off.len() + self.woff.len()) * std::mem::size_of::<usize>()
    }

    /// The snapshot index a restore at `from_pos` resolves to — the
    /// latest snapshot at or before that pop position.  Planners (the
    /// population engine's trie order) use this to predict restore
    /// points without touching the store.
    #[inline]
    pub fn snapshot_index(&self, from_pos: usize) -> usize {
        (from_pos / self.every).min(self.count - 1)
    }

    /// First per-node index stored by snapshot `j`.
    #[inline]
    fn snap_lo(&self, j: usize) -> usize {
        if self.suffix {
            (j * self.every).min(self.n)
        } else {
            0
        }
    }

    /// Size the store for an `n`-task, `m`-device run; `suffix` is the
    /// layout the recording order permits (ignored when the store is
    /// pinned dense).
    fn reset_shape(&mut self, n: usize, m: usize, suffix: bool) {
        self.n = n;
        self.m = m;
        self.suffix = suffix && !self.dense_only;
        self.count = (n / self.every + 1).max(1);
        self.off.clear();
        self.woff.clear();
        let mut dr = 0usize;
        let mut w = 0usize;
        self.off.push(0);
        self.woff.push(0);
        for j in 0..self.count {
            let lo = if self.suffix {
                (j * self.every).min(n)
            } else {
                0
            };
            dr += n - lo;
            w += (n - lo).div_ceil(64);
            self.off.push(dr);
            self.woff.push(w);
        }
        self.data_ready.clear();
        self.data_ready.resize(dr, 0.0);
        self.device_free.clear();
        self.device_free.resize(self.count * m, 0.0);
        self.link_free.clear();
        self.link_free.resize(self.count * m * m, 0.0);
        self.stream_words.clear();
        self.stream_words.resize(w, 0);
        self.makespan.clear();
        self.makespan.resize(self.count, 0.0);
    }

    /// Record snapshot `j` (state after `j * every` pops).
    fn record(&mut self, j: usize, scratch: &EvalScratch, makespan: f64) {
        debug_assert!(j < self.count);
        let m = self.m;
        let lo = self.snap_lo(j);
        // A snapshot must only capture state the replay actually wrote:
        // copying from below the restore floor would bake the stale
        // prefix of a suffix restore into a checkpoint (see `restore`).
        #[cfg(feature = "strict-invariants")]
        assert!(
            lo >= scratch.read_floor,
            "strict-invariants: snapshot {j} captures below the restore floor \
             ({lo} < {})",
            scratch.read_floor
        );
        self.data_ready[self.off[j]..self.off[j + 1]].copy_from_slice(&scratch.data_ready[lo..]);
        self.device_free[j * m..(j + 1) * m].copy_from_slice(&scratch.device_free);
        self.link_free[j * m * m..(j + 1) * m * m].copy_from_slice(&scratch.link_free);
        pack_bits(
            &scratch.stream_input[lo..],
            &mut self.stream_words[self.woff[j]..self.woff[j + 1]],
        );
        self.makespan[j] = makespan;
    }

    /// Restore the latest snapshot at or before `from_pos` into
    /// `scratch`; returns the pop position simulation must resume from.
    ///
    /// Under the suffix layout only `scratch` indices `>= j·every` are
    /// written — exactly the range a sequential replay resuming at that
    /// position may touch; the stale prefix is never read.
    fn restore(&self, from_pos: usize, scratch: &mut EvalScratch) -> usize {
        let j = self.snapshot_index(from_pos);
        let m = self.m;
        let lo = self.snap_lo(j);
        #[cfg(feature = "strict-invariants")]
        {
            assert!(
                j * self.every <= from_pos,
                "strict-invariants: snapshot_index returned a snapshot past from_pos"
            );
            // Arm the read-bound checker for the suffix layout: the
            // exactness argument (docs/PERF.md "Scale tier") says a
            // sequential replay resuming at `lo` never touches per-node
            // state below `lo`.  `sim_step` and `record` assert against
            // this floor instead of silently using the stale prefix.
            scratch.read_floor = if self.suffix { lo } else { 0 };
        }
        scratch.data_ready[lo..].copy_from_slice(&self.data_ready[self.off[j]..self.off[j + 1]]);
        scratch
            .device_free
            .copy_from_slice(&self.device_free[j * m..(j + 1) * m]);
        scratch
            .link_free
            .copy_from_slice(&self.link_free[j * m * m..(j + 1) * m * m]);
        unpack_bits(
            &self.stream_words[self.woff[j]..self.woff[j + 1]],
            &mut scratch.stream_input[lo..],
        );
        j * self.every
    }
}

/// Pack `bools` into `words` little-endian (bit `k` of `words[k / 64]`
/// is `bools[k]`); trailing bits of the last word are zero.
#[inline]
fn pack_bits(bools: &[bool], words: &mut [u64]) {
    debug_assert_eq!(words.len(), bools.len().div_ceil(64));
    for (word, chunk) in words.iter_mut().zip(bools.chunks(64)) {
        let mut w = 0u64;
        for (b, &set) in chunk.iter().enumerate() {
            w |= (set as u64) << b;
        }
        *word = w;
    }
}

/// Inverse of [`pack_bits`].
#[inline]
fn unpack_bits(words: &[u64], bools: &mut [bool]) {
    debug_assert_eq!(words.len(), bools.len().div_ceil(64));
    for (&w, chunk) in words.iter().zip(bools.chunks_mut(64)) {
        for (b, slot) in chunk.iter_mut().enumerate() {
            *slot = (w >> b) & 1 != 0;
        }
    }
}

/// One [`ScheduleCheckpoints`] store per report schedule: the multi-
/// schedule generalization of the single BFS snapshot store.
///
/// The candidate engine records a base-mapping snapshot trail for *every*
/// schedule of a [`ReportSchedules`] set on each commit, so any candidate
/// can be windowed under any schedule.  Store `s` must only ever be
/// written/read with the order `schedules.order(s)` — the set carries no
/// schedule identity of its own.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    stores: Vec<ScheduleCheckpoints>,
}

impl CheckpointSet {
    /// One empty snapshot store per schedule, all with interval `every`.
    pub fn new(schedules: usize, every: usize) -> Self {
        assert!(
            schedules > 0,
            "a schedule set is never empty (BFS is always present)"
        );
        Self {
            stores: (0..schedules)
                .map(|_| ScheduleCheckpoints::new(every))
                .collect(),
        }
    }

    /// A set shaped for `schedules` with the automatic interval for an
    /// `n`-task graph (default byte budget, automatic layout).
    pub fn for_schedules(schedules: &ReportSchedules, n: usize) -> Self {
        Self::for_schedules_budgeted(schedules, n, 0, false)
    }

    /// [`Self::for_schedules`] with an explicit per-trail byte budget
    /// (`0` ⇒ default; see
    /// [`ScheduleCheckpoints::auto_interval_for`]) and, when `dense` is
    /// set, every store pinned to the dense snapshot layout.
    pub fn for_schedules_budgeted(
        schedules: &ReportSchedules,
        n: usize,
        budget_bytes: usize,
        dense: bool,
    ) -> Self {
        let every = ScheduleCheckpoints::auto_interval_for(n, budget_bytes);
        let mut set = Self::new(schedules.len(), every);
        if dense {
            for s in &mut set.stores {
                s.dense_only = true;
            }
        }
        set
    }

    /// Total snapshot bytes across all stores at their current shapes.
    pub fn byte_len(&self) -> usize {
        self.stores.iter().map(|s| s.byte_len()).sum()
    }

    /// Largest single store (bytes) — the per-trail number the
    /// checkpoint budget gates.
    pub fn max_store_bytes(&self) -> usize {
        self.stores.iter().map(|s| s.byte_len()).max().unwrap_or(0)
    }

    /// Number of per-schedule stores.
    #[inline]
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// `false` always (constructed non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// The snapshot store of schedule `s`.
    #[inline]
    pub fn get(&self, s: usize) -> &ScheduleCheckpoints {
        &self.stores[s]
    }

    /// Mutable snapshot store of schedule `s` (for recording a new base).
    #[inline]
    pub fn get_mut(&mut self, s: usize) -> &mut ScheduleCheckpoints {
        &mut self.stores[s]
    }
}

/// Reusable makespan evaluator for one `(graph, platform)` pair: an
/// [`EvalTables`] plus one [`EvalScratch`] behind the original
/// single-threaded API.
pub struct Evaluator<'g> {
    tables: EvalTables<'g>,
    scratch: EvalScratch,
}

impl<'g> Evaluator<'g> {
    /// Build an evaluator, pre-tabulating all `(task, device)` execution
    /// times and the breadth-first priority ranks.
    pub fn new(graph: &'g TaskGraph, platform: &'g Platform) -> Self {
        let tables = EvalTables::new(graph, platform);
        let scratch = EvalScratch::for_tables(&tables);
        Self { tables, scratch }
    }

    /// The shared immutable tables (for the parallel candidate engine).
    #[inline]
    pub fn tables(&self) -> &EvalTables<'g> {
        &self.tables
    }

    /// Split into the immutable tables and the scratch, e.g. to share the
    /// tables across threads while keeping this scratch for the caller.
    pub fn into_parts(self) -> (EvalTables<'g>, EvalScratch) {
        (self.tables, self.scratch)
    }

    /// The graph this evaluator simulates.
    pub fn graph(&self) -> &TaskGraph {
        self.tables.graph()
    }

    /// The platform this evaluator simulates.
    pub fn platform(&self) -> &Platform {
        self.tables.platform()
    }

    /// Tabulated execution time of task `n` on device `d`.
    #[inline]
    pub fn exec_time(&self, n: NodeId, d: DeviceId) -> f64 {
        self.tables.exec_time(n, d)
    }

    /// Lifetime evaluation counters.
    pub fn stats(&self) -> EvalStats {
        self.scratch.stats()
    }

    /// Makespan under an explicit priority-rank vector, or `None` if the
    /// mapping violates an FPGA area budget.
    pub fn makespan_with_ranks(&mut self, mapping: &Mapping, ranks: &[u32]) -> Option<f64> {
        self.tables
            .makespan_with_ranks(&mut self.scratch, mapping, ranks)
    }

    /// Makespan under the deterministic breadth-first schedule — the
    /// optimizers' inner-loop cost function.
    pub fn makespan_bfs(&mut self, mapping: &Mapping) -> Option<f64> {
        self.tables.makespan_bfs(&mut self.scratch, mapping)
    }

    /// Makespan under an arbitrary policy.
    pub fn makespan(&mut self, mapping: &Mapping, policy: SchedulePolicy) -> Option<f64> {
        self.tables.makespan(&mut self.scratch, mapping, policy)
    }

    /// The paper's reporting metric (§IV-A): the minimum makespan over the
    /// breadth-first schedule and `random_schedules` seeded random
    /// topological schedules.  Recomputes every random rank vector on
    /// each call — the straightforward reference; hot paths precompute a
    /// [`ReportSchedules`] once and use
    /// [`Self::report_makespan_with`] (bit-identical results).
    pub fn report_makespan(
        &mut self,
        mapping: &Mapping,
        random_schedules: usize,
        seed: u64,
    ) -> Option<f64> {
        let mut best = self.makespan_bfs(mapping)?;
        for i in 0..random_schedules {
            let ranks = priority_ranks(
                self.tables.graph(),
                SchedulePolicy::RandomTopo {
                    seed: seed.wrapping_add(i as u64),
                },
            );
            if let Some(ms) = self.makespan_with_ranks(mapping, &ranks) {
                best = best.min(ms);
            }
        }
        Some(best)
    }

    /// [`Self::report_makespan`] over a precomputed schedule set: the
    /// minimum makespan over every order of `schedules`.  The fold order
    /// and every per-schedule simulation match the reference exactly, so
    /// the result is bit-identical to
    /// `report_makespan(mapping, schedules.random_schedules(), schedules.seed())`.
    pub fn report_makespan_with(
        &mut self,
        mapping: &Mapping,
        schedules: &ReportSchedules,
    ) -> Option<f64> {
        let mut best = self.tables.makespan_with_ranks(
            &mut self.scratch,
            mapping,
            schedules.order(0).ranks(),
        )?;
        for s in 1..schedules.len() {
            if let Some(ms) = self.tables.makespan_with_ranks(
                &mut self.scratch,
                mapping,
                schedules.order(s).ranks(),
            ) {
                best = best.min(ms);
            }
        }
        Some(best)
    }

    /// Full start/finish detail under a policy (allocates; not for the hot
    /// loop).  The returned vectors are indexed by *external* node id —
    /// this is the result boundary where the tables' internal numbering
    /// is inverted.
    pub fn simulate(&mut self, mapping: &Mapping, policy: SchedulePolicy) -> Option<Schedule> {
        let makespan = self.makespan(mapping, policy)?;
        let n = self.tables.node_count();
        let mut start = vec![0.0; n];
        let mut finish = vec![0.0; n];
        for (v, (s, f)) in start.iter_mut().zip(finish.iter_mut()).enumerate() {
            let vi = self.tables.internal_index(NodeId(v as u32));
            *s = self.scratch.start_times()[vi];
            *f = self.scratch.finish_times()[vi];
        }
        Some(Schedule {
            start,
            finish,
            makespan,
        })
    }

    /// Makespan of the all-default (pure CPU) mapping — the baseline of
    /// every relative improvement.
    pub fn cpu_only_makespan(&mut self) -> f64 {
        let mapping = Mapping::all_default(self.tables.graph(), self.tables.platform());
        self.makespan_bfs(&mapping)
            .expect("the default mapping uses no FPGA area")
    }
}

/// The paper's improvement measure: relative makespan improvement over the
/// pure-CPU baseline, truncated at zero ("we count deteriorations as zero
/// improvements").
#[inline]
pub fn relative_improvement(cpu_only: f64, mapped: f64) -> f64 {
    if cpu_only <= 0.0 {
        return 0.0;
    }
    ((cpu_only - mapped) / cpu_only).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::gen::{chain, diamond, fork_join, random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, ops, AugmentConfig};

    const CPU: DeviceId = DeviceId(0);
    const GPU: DeviceId = DeviceId(1);
    const FPGA: DeviceId = DeviceId(2);

    fn ref_platform() -> Platform {
        Platform::reference()
    }

    fn set_attrs(g: &mut TaskGraph, p: f64, s: f64) {
        for v in 0..g.node_count() {
            let t = g.task_mut(NodeId(v as u32));
            t.complexity = 8.0;
            t.data_points = 1e7;
            t.parallelizability = p;
            t.streamability = s;
            t.area = 64.0;
        }
    }

    #[test]
    fn cpu_chain_is_sum_of_exec_times() {
        let mut g = chain(5, 100e6);
        set_attrs(&mut g, 0.0, 1.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let m = Mapping::all_default(&g, &p);
        let ms = ev.makespan_bfs(&m).unwrap();
        let each = 8e7 / 0.3e9;
        assert!((ms - 5.0 * each).abs() < 1e-9);
    }

    #[test]
    fn single_device_makespan_is_total_work() {
        // With one device there is never idle time on a connected DAG.
        let mut g = diamond(100e6);
        set_attrs(&mut g, 0.0, 1.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let ms = ev.cpu_only_makespan();
        let total: f64 = g.nodes().map(|v| ev.exec_time(v, CPU)).sum();
        assert!((ms - total).abs() < 1e-9);
    }

    #[test]
    fn cross_device_edge_pays_transfer() {
        let mut g = chain(2, 100e6);
        set_attrs(&mut g, 1.0, 1.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let mut m = Mapping::all_default(&g, &p);
        m.set(NodeId(1), GPU);
        let ms = ev.makespan_bfs(&m).unwrap();
        let expect = ev.exec_time(NodeId(0), CPU)
            + p.transfer_time(100e6, CPU, GPU)
            + ev.exec_time(NodeId(1), GPU);
        assert!((ms - expect).abs() < 1e-9);
    }

    #[test]
    fn offloading_independent_work_reduces_makespan() {
        let mut g = fork_join(4, 100e6);
        set_attrs(&mut g, 1.0, 1.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let base = ev.cpu_only_makespan();
        let mut m = Mapping::all_default(&g, &p);
        // Two of the four middle tasks to the GPU.
        m.set(NodeId(1), GPU);
        m.set(NodeId(2), GPU);
        let ms = ev.makespan_bfs(&m).unwrap();
        assert!(ms < base, "offload {ms} < cpu-only {base}");
    }

    #[test]
    fn fpga_serializes_independent_tasks() {
        // Four independent middle tasks on the FPGA are all pipeline
        // heads: they queue, exactly like on a temporal device
        // (concurrency on the FPGA comes from streaming chains only).
        let mut g = fork_join(4, 100e6);
        set_attrs(&mut g, 0.0, 8.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let mut m = Mapping::all_default(&g, &p);
        for i in 1..=4 {
            m.set(NodeId(i), FPGA);
        }
        let ms = ev.makespan_bfs(&m).unwrap();
        let mid_time = ev.exec_time(NodeId(1), FPGA);
        let tr = p.transfer_time(100e6, CPU, FPGA);
        // Source + transfer + four serialized mids + transfer + sink.
        let expect =
            ev.exec_time(NodeId(0), CPU) + tr + 4.0 * mid_time + tr + ev.exec_time(NodeId(5), CPU);
        assert!(
            (ms - expect).abs() < 1e-9,
            "serialized makespan {ms} vs {expect}"
        );
    }

    #[test]
    fn fpga_pipeline_does_not_block_chain_members() {
        // A streaming chain on the FPGA plus one independent FPGA task:
        // the chain pipelines; the independent task queues behind the
        // pipeline head it was scheduled after.
        let mut g = spmap_graph::GraphBuilder::new();
        let a = g.add_task(spmap_graph::Task::default());
        let b = g.add_task(spmap_graph::Task::default());
        let c = g.add_task(spmap_graph::Task::default());
        g.add_edge(a, b, 100e6).unwrap();
        let mut g = g.build().unwrap();
        set_attrs(&mut g, 0.0, 8.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let m = Mapping::uniform(3, FPGA);
        let sched = ev.simulate(&m, SchedulePolicy::Bfs).unwrap();
        let exec = ev.exec_time(NodeId(0), FPGA);
        // b streams behind a (starts at fill), c is an independent head.
        assert!((sched.start[b.index()] - 0.05 * exec).abs() < 1e-9);
        // c queues after one of the heads, not in parallel with both.
        assert!(sched.start[c.index()] >= exec - 1e-9 || sched.start[a.index()] >= exec - 1e-9);
        let _ = sched;
    }

    #[test]
    fn fpga_streaming_overlaps_chains() {
        let mut g = chain(6, 100e6);
        set_attrs(&mut g, 0.0, 8.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let m = Mapping::uniform(6, FPGA);
        let ms = ev.makespan_bfs(&m).unwrap();
        let each = ev.exec_time(NodeId(0), FPGA);
        // Pipelined: first task + 5 fill increments, not 6 full tasks.
        let expect = each + 5.0 * 0.05 * each;
        assert!((ms - expect).abs() < 1e-9, "streamed {ms} vs {expect}");
        assert!(ms < 2.0 * each, "must be far below the serial sum");
    }

    #[test]
    fn streaming_consumer_never_finishes_before_producer() {
        let mut g = chain(2, 100e6);
        set_attrs(&mut g, 0.0, 8.0);
        // Make the consumer much cheaper than the producer.
        g.task_mut(NodeId(1)).complexity = 0.1;
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let m = Mapping::uniform(2, FPGA);
        let sched = ev.simulate(&m, SchedulePolicy::Bfs).unwrap();
        assert!(
            sched.finish[1] >= sched.finish[0],
            "consumer finish {} producer finish {}",
            sched.finish[1],
            sched.finish[0]
        );
    }

    #[test]
    fn area_violation_is_infeasible() {
        let mut g = chain(4, 100e6);
        set_attrs(&mut g, 0.0, 8.0);
        for v in 0..4 {
            g.task_mut(NodeId(v)).area = 700.0;
        }
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let m = Mapping::uniform(4, FPGA);
        assert_eq!(ev.makespan_bfs(&m), None, "2800 > 1200 area");
        let m2 = Mapping::uniform(4, CPU);
        assert!(ev.makespan_bfs(&m2).is_some());
    }

    #[test]
    fn makespan_never_below_critical_path() {
        let mut g = random_sp_graph(&SpGenConfig::new(60, 3));
        augment(&mut g, &AugmentConfig::default(), 3);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        for trial in 0..20u64 {
            // Random-ish mapping over the three devices; FPGA may exceed
            // area (then makespan is None, which is fine).
            let mapping = Mapping::from_vec(
                (0..g.node_count())
                    .map(|i| DeviceId(((i as u64 * 7 + trial * 13) % 3) as u32))
                    .collect(),
            );
            let Some(ms) = ev.makespan_bfs(&mapping) else {
                continue;
            };
            // Lower bound: critical path of mapped exec times (edges >= 0),
            // discounted by the max streaming overlap factor to stay a
            // valid bound in the presence of FPGA pipelining.
            let lb = ops::critical_path(&g, |v| 0.05 * ev.exec_time(v, mapping.device(v)), |_| 0.0);
            assert!(ms + 1e-9 >= lb, "makespan {ms} < bound {lb}");
        }
    }

    #[test]
    fn report_makespan_is_min_over_schedules() {
        let mut g = random_sp_graph(&SpGenConfig::new(40, 8));
        augment(&mut g, &AugmentConfig::default(), 8);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let mapping = Mapping::from_vec(
            (0..g.node_count())
                .map(|i| DeviceId((i % 2) as u32))
                .collect(),
        );
        let bfs = ev.makespan_bfs(&mapping).unwrap();
        let report = ev.report_makespan(&mapping, 20, 99).unwrap();
        assert!(report <= bfs + 1e-12);
        // Deterministic.
        assert_eq!(report, ev.report_makespan(&mapping, 20, 99).unwrap());
    }

    #[test]
    fn report_makespan_with_matches_reference_bitwise() {
        let mut g = random_sp_graph(&SpGenConfig::new(40, 8));
        augment(&mut g, &AugmentConfig::default(), 8);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        for (k, seed) in [(0usize, 7u64), (3, 7), (8, 123)] {
            let schedules = ReportSchedules::new(&g, k, seed);
            for trial in 0..6u64 {
                let mapping = Mapping::from_vec(
                    (0..g.node_count())
                        .map(|i| DeviceId(((i as u64 * 11 + trial * 5) % 3) as u32))
                        .collect(),
                );
                let reference = ev.report_makespan(&mapping, k, seed);
                let precomputed = ev.report_makespan_with(&mapping, &schedules);
                assert_eq!(reference, precomputed, "k={k} seed={seed} trial={trial}");
            }
        }
    }

    #[test]
    fn order_checkpointed_and_window_match_heap_run_on_any_schedule() {
        // The windowed-re-simulation argument for arbitrary fixed orders:
        // checkpointed full runs and windowed replays from any position
        // reproduce the heap-driven simulation bit for bit, for random
        // topological schedules exactly like for BFS.
        let mut g = random_sp_graph(&SpGenConfig::new(45, 17));
        augment(&mut g, &AugmentConfig::default(), 17);
        let p = ref_platform();
        let tables = EvalTables::new(&g, &p);
        let mut scratch = EvalScratch::for_tables(&tables);
        let schedules = ReportSchedules::new(&g, 3, 99);
        let mut ckpts = CheckpointSet::for_schedules(&schedules, g.node_count());
        let base = Mapping::all_default(&g, &p);
        for s in 0..schedules.len() {
            let order = schedules.order(s);
            let heap_ms = tables
                .makespan_with_ranks(&mut scratch, &base, order.ranks())
                .unwrap();
            let ck_ms = tables
                .makespan_order_checkpointed(&mut scratch, &base, order, ckpts.get_mut(s))
                .unwrap();
            assert_eq!(heap_ms, ck_ms, "schedule {s}: checkpointed run drifted");
        }
        // Candidates: move one task at a time; window from its earliest
        // read position under each schedule.
        let mut candidate = base.clone();
        for v in 0..g.node_count().min(12) {
            let v = NodeId(v as u32);
            candidate.set(v, GPU);
            for s in 0..schedules.len() {
                let order = schedules.order(s);
                let full = tables
                    .makespan_with_ranks(&mut scratch, &candidate, order.ranks())
                    .unwrap();
                let windowed = tables.makespan_order_window(
                    &mut scratch,
                    &candidate,
                    order,
                    ckpts.get(s),
                    order.earliest_read_pos(v),
                    f64::INFINITY,
                );
                assert_eq!(windowed, WindowSim::Done(full), "task {v:?} schedule {s}");
                // A cutoff strictly below the result must abort; a cutoff
                // exactly at the result must not (strict proof).
                assert_eq!(
                    tables.makespan_order_window(
                        &mut scratch,
                        &candidate,
                        order,
                        ckpts.get(s),
                        order.earliest_read_pos(v),
                        full,
                    ),
                    WindowSim::Done(full),
                    "tie with the cutoff must complete"
                );
            }
            candidate.set(v, CPU);
        }
    }

    #[test]
    fn relative_improvement_truncates() {
        assert_eq!(relative_improvement(10.0, 5.0), 0.5);
        assert_eq!(relative_improvement(10.0, 12.0), 0.0);
        assert_eq!(relative_improvement(0.0, 1.0), 0.0);
    }

    #[test]
    fn eval_stats_count() {
        let g = chain(3, 1.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let m = Mapping::all_default(&g, &p);
        ev.makespan_bfs(&m);
        ev.makespan_bfs(&m);
        assert_eq!(ev.stats().evaluations, 2);
    }

    #[test]
    fn gpu_queue_serializes() {
        // Two independent tasks on the GPU must serialize.
        let mut g = fork_join(2, 100e6);
        set_attrs(&mut g, 1.0, 1.0);
        let p = ref_platform();
        let mut ev = Evaluator::new(&g, &p);
        let mut m = Mapping::all_default(&g, &p);
        m.set(NodeId(1), GPU);
        m.set(NodeId(2), GPU);
        let sched = ev.simulate(&m, SchedulePolicy::Bfs).unwrap();
        let (s1, f1) = (sched.start[1], sched.finish[1]);
        let (s2, f2) = (sched.start[2], sched.finish[2]);
        assert!(
            f1 <= s2 || f2 <= s1,
            "GPU tasks overlap: [{s1},{f1}] [{s2},{f2}]"
        );
    }

    #[test]
    fn shared_tables_concurrent_evaluations_match_serial() {
        // The tables are Sync: four threads evaluating different mappings
        // against one shared &EvalTables must reproduce the serial bits.
        let mut g = random_sp_graph(&SpGenConfig::new(50, 11));
        augment(&mut g, &AugmentConfig::default(), 11);
        let p = ref_platform();
        let tables = EvalTables::new(&g, &p);
        let mappings: Vec<Mapping> = (0..16u32)
            .map(|t| {
                Mapping::from_vec(
                    (0..g.node_count())
                        .map(|i| DeviceId(((i as u32).wrapping_mul(5).wrapping_add(t)) % 3))
                        .collect(),
                )
            })
            .collect();
        let mut serial_scratch = EvalScratch::for_tables(&tables);
        let serial: Vec<Option<f64>> = mappings
            .iter()
            .map(|m| tables.makespan_bfs(&mut serial_scratch, m))
            .collect();
        let parallel: Vec<Option<f64>> = std::thread::scope(|scope| {
            let chunks: Vec<_> = mappings
                .chunks(4)
                .map(|chunk| {
                    let tables = &tables;
                    scope.spawn(move || {
                        let mut scratch = EvalScratch::for_tables(tables);
                        chunk
                            .iter()
                            .map(|m| tables.makespan_bfs(&mut scratch, m))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            chunks.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel, "bit-identical across threads");
    }

    /// The `strict-invariants` read-bound checker must actually fire:
    /// restoring a suffix snapshot at a positive position and then
    /// stepping position 0 is exactly the stale-prefix read the suffix
    /// layout forbids (docs/DETERMINISM.md).
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "below its restore floor")]
    fn strict_invariants_catch_replay_below_the_restore_floor() {
        let mut g = chain(16, 100e6);
        set_attrs(&mut g, 0.0, 1.0);
        let p = ref_platform();
        let tables = EvalTables::new(&g, &p);
        let mut scratch = EvalScratch::for_tables(&tables);
        let m = Mapping::all_default(&g, &p);
        let mut ckpt = ScheduleCheckpoints::new(4);
        tables
            .makespan_bfs_checkpointed(&mut scratch, &m, &mut ckpt)
            .unwrap();
        assert!(ckpt.suffix, "pop-order tables must record suffix snapshots");
        let from = ckpt.restore(8, &mut scratch);
        assert!(from > 0, "restore must land on a positive snapshot");
        let mut dev_buf = std::mem::take(&mut scratch.devices);
        let devices = tables.internal_devices(&mut dev_buf, &m, 0);
        let mut makespan = 0.0;
        tables.sim_step(&mut scratch, devices, 0, &mut makespan);
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // Interleaving evaluations of different mappings through one
        // scratch never contaminates results.
        let mut g = random_sp_graph(&SpGenConfig::new(30, 5));
        augment(&mut g, &AugmentConfig::default(), 5);
        let p = ref_platform();
        let tables = EvalTables::new(&g, &p);
        let mut scratch = EvalScratch::for_tables(&tables);
        let a = Mapping::all_default(&g, &p);
        let b = Mapping::from_vec(
            (0..g.node_count())
                .map(|i| DeviceId((i % 2) as u32))
                .collect(),
        );
        let ms_a = tables.makespan_bfs(&mut scratch, &a);
        let ms_b = tables.makespan_bfs(&mut scratch, &b);
        for _ in 0..3 {
            assert_eq!(tables.makespan_bfs(&mut scratch, &a), ms_a);
            assert_eq!(tables.makespan_bfs(&mut scratch, &b), ms_b);
        }
    }
}
