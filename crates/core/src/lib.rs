//! # spmap-core — decomposition-based task mapping
//!
//! The paper's primary contribution (§III): a greedy mapping loop that
//!
//! 1. starts from the all-CPU default mapping,
//! 2. evaluates, with the *full model-based evaluator*, every candidate
//!    operation "map subgraph S to device d" from a linear-size subgraph
//!    set,
//! 3. applies the operation with the highest makespan improvement,
//! 4. repeats until no operation improves the makespan.
//!
//! Subgraph sets come from `spmap-decomp`: every single node (§III-B,
//! [`SubgraphStrategy::SingleNode`]) or the series-parallel decomposition
//! operations (§III-C, [`SubgraphStrategy::SeriesParallel`]).
//!
//! Search variants (§III-D):
//!
//! * [`SearchHeuristic::Exhaustive`] — re-evaluate every operation in
//!   every iteration (the "basic" variant of the paper's figures),
//! * [`SearchHeuristic::GammaThreshold`] — order operations by their
//!   *expected* improvement (from the previous evaluation) in a priority
//!   queue and, once an actual improvement `Δ` is found, only look ahead
//!   at operations whose expectation exceeds `Δ/γ`.  `γ = 1` is the
//!   paper's **FirstFit** mapping.
//!
//! Because the evaluator is deterministic and every applied operation
//! strictly improves the makespan, the algorithm terminates; an iteration
//! cap of `n` bounds degenerate cases (§III-A).
//!
//! ## The candidate evaluation engine
//!
//! Both heuristics route their inner loop through [`CandidateBatch`]
//! (module [`batch`]): all candidate moves of one iteration are settled
//! as a batch using content-keyed memoization, exact lower-bound
//! pruning, and parallel *windowed* re-simulation (each candidate
//! replays only the schedule suffix it can affect, aborting as soon as
//! it provably cannot beat the incumbent).  Results are bit-identical
//! to the serial scan — [`decomposition_map_reference`] keeps the
//! original implementation as the executable specification, and
//! `tests/equivalence.rs` plus `docs/PERF.md` carry the proof burden.

pub mod batch;
pub mod faults;
pub mod mapper;
pub mod population;
pub mod request;
pub mod runtime;
pub mod service;
pub mod session;
pub mod threshold;

pub use batch::{BatchStats, CandidateBatch, EngineConfig, DEFAULT_MEMO_CAPACITY, MAX_SCHEDULES};
pub use faults::{FaultKind, FaultSchedule, FaultSite, INJECTED_PANIC_PREFIX};
pub use mapper::{
    decomposition_map, decomposition_map_reference, try_decomposition_map,
    try_decomposition_map_reference, CostModel, MapperConfig, MapperError, MapperResult, OpId,
    SearchHeuristic, SubgraphStrategy,
};
pub use population::{
    trie_order, DeltaCandidate, EvalOrder, PopBase, PopulationConfig, PopulationEval,
    PopulationStats,
};
pub use request::{map_request, Algo, GaParams, Limits, MapRequest};
pub use runtime::RuntimeConfig;
pub use service::{
    MapResponse, MapService, ServiceConfig, ServiceError, ServiceStats, SessionClose, SessionId,
    SessionResponse,
};
pub use session::{AttachEdge, Perturbation, RemapError, RemapOutcome, RemapSession};
// Dispatch-counter surface of the parallel runtime, re-exported so
// downstream crates (e.g. `spmap-ga`) can carry the counters on their
// results without a direct `spmap-par` dependency.
pub use spmap_par::DispatchStats;
// Table-layout knob of the evaluation kernel, re-exported so engine
// configs can be built without a direct `spmap-model` dependency.
pub use spmap_model::Numbering;
