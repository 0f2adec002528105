//! The exact counters of a traced run repeat across two same-seed runs,
//! and the decision counters also repeat across engine threads 1 and 2.
//! Every workload searches with the γ-threshold heuristic, whose
//! speculation wave grows with the worker count, so its work counters
//! are exact only for a fixed thread count (see
//! `EngineConfig::chunk_size`).  These counters are the exact backing of
//! the per-layer metrics where wall time is too noisy.

use perfbench::{run, Options, Report, Workload};

/// Counters of the decisions a run made.
const DECISIONS: &[&str] = &[
    "decomp.subgraph_count",
    "core.iterations",
    "session.neighborhood_ops",
    "session.warm_iterations",
    "session.graph_rebuilds",
];

/// Counters of the engine's work.
const WORK: &[&str] = &[
    "core.evaluations",
    "core.simulated",
    "core.aborted",
    "core.pruned",
    "core.trivial",
    "core.memo_hits",
];

fn traced(workload: Workload, threads: usize) -> Report {
    let mut o = Options::new(workload, 11, 0.02);
    o.tiny = true;
    o.trace = true;
    o.threads = Some(threads);
    let r = run(&o);
    assert_eq!(
        r.failed,
        0,
        "{} threads={threads}: {:?}",
        workload.name(),
        r.notes
    );
    r
}

fn pick(r: &Report, names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .map(|&n| (n, r.get(n).expect("exact counter reported")))
        .collect()
}

#[test]
fn exact_counters_repeat_across_runs_and_engine_threads() {
    let all: Vec<&'static str> = DECISIONS.iter().chain(WORK).copied().collect();
    for w in Workload::ALL {
        let (one, again, two) = (traced(w, 1), traced(w, 1), traced(w, 2));
        assert_eq!(
            pick(&one, &all),
            pick(&again, &all),
            "{}: same-seed rerun",
            w.name()
        );
        assert_eq!(
            pick(&one, DECISIONS),
            pick(&two, DECISIONS),
            "{}: decisions, threads 1 vs 2",
            w.name()
        );
    }
}
