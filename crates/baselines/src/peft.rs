//! PEFT — Predict Earliest Finish Time (paper ref. 8).
//!
//! PEFT improves on HEFT with an *optimistic cost table*:
//!
//! ```text
//! OCT(v, d) = max over successors s of
//!               min over devices w of ( OCT(s, w) + exec(s, w)
//!                                       + [w ≠ d] · c̄(v, s) )
//! ```
//!
//! Tasks are prioritized by their average OCT row (`rank_oct`), and device
//! selection minimizes the *optimistic EFT* `EFT(v, d) + OCT(v, d)` — a
//! one-step look-ahead that HEFT lacks.  Because `rank_oct` does not
//! guarantee topological order, the driver schedules from a ready list
//! (as in the original paper).

use spmap_graph::{ops, TaskGraph};
use spmap_model::{DeviceId, Platform};

use crate::listsched::{run_list_scheduler, CostTables, ListScheduleResult};

/// The optimistic cost table, row-major `oct[v * m + d]` (exposed for
/// tests and diagnostics).
pub fn optimistic_cost_table(g: &TaskGraph, p: &Platform, ct: &CostTables) -> Vec<f64> {
    let m = p.device_count();
    let order = ops::topo_order(g).expect("task graphs are DAGs");
    let mut oct = vec![0.0f64; g.node_count() * m];
    for &v in order.iter().rev() {
        for d in 0..m {
            let mut worst = 0.0f64;
            for &e in g.out_edges(v) {
                let s = g.edge(e).dst;
                let mut best = f64::INFINITY;
                for w in 0..m {
                    let comm = if w == d { 0.0 } else { ct.mean_comm[e.index()] };
                    let val = oct[s.index() * m + w] + ct.exec(s, DeviceId(w as u32)) + comm;
                    best = best.min(val);
                }
                worst = worst.max(best);
            }
            oct[v.index() * m + d] = worst;
        }
    }
    oct
}

/// Run PEFT, returning the mapping, the internal schedule estimate, and
/// the scheduling order.
pub fn peft(g: &TaskGraph, p: &Platform) -> ListScheduleResult {
    let ct = CostTables::new(g, p);
    let m = p.device_count();
    let oct = optimistic_cost_table(g, p, &ct);
    let rank: Vec<f64> = (0..g.node_count())
        .map(|v| oct[v * m..(v + 1) * m].iter().sum::<f64>() / m as f64)
        .collect();
    run_list_scheduler(g, p, &ct, &rank, |v, d| oct[v.index() * m + d.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heft::heft;
    use spmap_graph::gen::{chain, random_sp_graph, SpGenConfig};
    use spmap_graph::{augment, AugmentConfig, NodeId};
    use spmap_model::{Evaluator, Mapping};

    #[test]
    fn oct_is_zero_for_exit_tasks() {
        let mut g = random_sp_graph(&SpGenConfig::new(30, 1));
        augment(&mut g, &AugmentConfig::default(), 1);
        let p = Platform::reference();
        let ct = CostTables::new(&g, &p);
        let oct = optimistic_cost_table(&g, &p, &ct);
        let m = p.device_count();
        for v in g.nodes() {
            if g.out_degree(v) == 0 {
                for d in 0..m {
                    assert_eq!(oct[v.index() * m + d], 0.0);
                }
            } else {
                // Inner tasks have positive OCT on every device.
                for d in 0..m {
                    assert!(oct[v.index() * m + d] > 0.0);
                }
            }
        }
    }

    #[test]
    fn oct_chain_matches_hand_computation() {
        let mut g = chain(2, 100e6);
        augment(&mut g, &AugmentConfig::default(), 4);
        let p = Platform::reference();
        let ct = CostTables::new(&g, &p);
        let oct = optimistic_cost_table(&g, &p, &ct);
        let m = p.device_count();
        // OCT(0, d) = min over w of exec(1, w) + [w != d]·c̄(0-1).
        for d in 0..m {
            let mut expect = f64::INFINITY;
            for w in 0..m {
                let comm = if w == d { 0.0 } else { ct.mean_comm[0] };
                expect = expect.min(ct.exec(NodeId(1), DeviceId(w as u32)) + comm);
            }
            assert!((oct[d] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn peft_is_deterministic_and_feasible() {
        let p = Platform::reference();
        for seed in 0..5 {
            let mut g = random_sp_graph(&SpGenConfig::new(60, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            let a = peft(&g, &p);
            let b = peft(&g, &p);
            assert_eq!(a.mapping, b.mapping);
            assert!(a.mapping.is_area_feasible(&g, &p));
            let mut ev = Evaluator::new(&g, &p);
            assert!(ev.makespan_bfs(&a.mapping).is_some());
        }
    }

    #[test]
    fn peft_order_is_topological() {
        let mut g = random_sp_graph(&SpGenConfig::new(70, 9));
        augment(&mut g, &AugmentConfig::default(), 9);
        let p = Platform::reference();
        let r = peft(&g, &p);
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in r.order.iter().enumerate() {
            pos[v.index()] = i;
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(pos[edge.src.index()] < pos[edge.dst.index()]);
        }
    }

    #[test]
    fn peft_competitive_with_heft_under_the_model() {
        // Paper (citing Maurya & Tripathi): PEFT performs at least
        // comparably to HEFT on heterogeneous systems.  Internal
        // estimates are not comparable across the two cost tables, so
        // compare the *model-evaluated* improvement of the produced
        // mappings, averaged over a batch.
        let p = Platform::reference();
        let mut heft_sum = 0.0;
        let mut peft_sum = 0.0;
        let total = 12;
        for seed in 0..total {
            let mut g = random_sp_graph(&SpGenConfig::new(50, seed));
            augment(&mut g, &AugmentConfig::default(), seed);
            let mut ev = Evaluator::new(&g, &p);
            let cpu = ev.cpu_only_makespan();
            let hm = ev
                .makespan_bfs(&heft(&g, &p).mapping)
                .unwrap_or(cpu)
                .min(cpu);
            let qm = ev
                .makespan_bfs(&peft(&g, &p).mapping)
                .unwrap_or(cpu)
                .min(cpu);
            heft_sum += (cpu - hm) / cpu;
            peft_sum += (cpu - qm) / cpu;
        }
        let heft_mean = heft_sum / total as f64;
        let peft_mean = peft_sum / total as f64;
        assert!(
            peft_mean >= heft_mean - 0.05,
            "PEFT mean improvement {peft_mean:.3} far below HEFT {heft_mean:.3}"
        );
    }

    #[test]
    fn peft_on_cpu_only_platform_is_all_cpu() {
        let mut g = random_sp_graph(&SpGenConfig::new(20, 3));
        augment(&mut g, &AugmentConfig::default(), 3);
        let p = Platform::cpu_only();
        let r = peft(&g, &p);
        assert_eq!(r.mapping, Mapping::all_default(&g, &p));
    }
}
