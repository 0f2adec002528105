//! γ-threshold search (paper §III-D).
//!
//! After the first full sweep, every operation carries an *expected*
//! improvement — the improvement it showed when last evaluated.  Each
//! iteration pops operations from a max-priority queue ordered by
//! expectation; once an actual improvement `Δ` has been found, only
//! operations whose expectation exceeds `Δ/γ` are still evaluated
//! ("look-ahead").  Re-evaluated operations update their expectation.
//! The iteration commits the best improvement found; if a complete pass
//! over the queue finds none, the algorithm terminates — and because an
//! exhausted pass re-evaluates *every* operation against the final
//! mapping, this naturally realizes the paper's "in the last iteration,
//! we recompute every possible mapping".
//!
//! `γ = 1` is the **FirstFit** variant: the first found improvement is
//! committed unless an operation with a *higher* expectation is still
//! pending (i.e. the found improvement was "significantly smaller than
//! the previously expected improvement").
//!
//! ## Parallelization: speculative waves
//!
//! The algorithm is inherently sequential — whether an operation is
//! evaluated at all depends on the deltas of the operations popped
//! before it.  To still extract parallelism without changing a single
//! decision, the engine version pops the next `W` operations (the exact
//! prefix the serial loop would consider next), simulates them as one
//! batch through [`CandidateBatch`], and then *replays* the serial
//! decision sequence over the precomputed results: expectations update
//! in pop order, and the moment the look-ahead cutoff fires, the
//! remaining speculative results are discarded — their expectations are
//! **not** updated, exactly as if they had never been evaluated.
//! Discarded simulations are not wasted: their makespans stay in the
//! engine's content-keyed memo and answer later evaluations of the same
//! mapping for free.
//!
//! The wave depth `W` is **adaptive** (`WaveController`): it grows
//! while recent waves are consumed in full (the look-ahead cutoff rarely
//! fires, so deeper speculation turns into pure parallelism) and shrinks
//! while most speculated results are being discarded (the cutoff fires
//! early, so deep waves are wasted simulations).  The controller is a
//! pure function of the replay sequence — which is itself wave-size
//! independent — so runs are deterministic for a fixed thread
//! configuration, and the committed results are identical for *any*.
//!
//! With one worker thread the wave size is pinned to 1 and the loop *is*
//! the serial algorithm (zero speculation, zero spawns).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::batch::CandidateBatch;
use crate::mapper::{MapperError, OpId};

/// The error of [`Key::new`]: a NaN can never participate in the
/// expectation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NanKey;

/// Max-heap key wrapping an `f64` expectation with total order.
///
/// `±∞` are legitimate expectations (`+∞` = "never evaluated", `-∞` =
/// "no-op / infeasible") and order exactly like `f64::total_cmp` places
/// them.  NaN is rejected at construction: under `total_cmp` a positive
/// NaN sorts *above* `+∞`, so a single NaN expectation would silently
/// hijack every pop of the priority queue — the caller converts the
/// rejection into [`MapperError::NanDelta`] instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Key(f64);

impl Key {
    /// Wrap a finite-or-infinite expectation; NaN is a typed error.
    pub(crate) fn new(x: f64) -> Result<Self, NanKey> {
        if x.is_nan() {
            Err(NanKey)
        } else {
            Ok(Key(x))
        }
    }

    /// The wrapped expectation (never NaN).
    pub(crate) fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Profile-guided speculation depth: how many pending pops are simulated
/// per batch.
///
/// Replaces the fixed `4 × threads` wave with a controller driven by the
/// observed *accept rate* — the fraction of each speculated wave the
/// serial replay actually consumed before the look-ahead cutoff fired.
/// A high recent accept rate (tracked as an exponential moving average)
/// doubles the wave up to `16 × threads` (≤ 256): speculation is being
/// consumed, so deeper waves are pure parallel win.  A low rate halves
/// it down to `threads`: the cutoff keeps firing early and discarded
/// simulations are wasted work.  Serial runs (≤ 1 thread) are pinned at
/// 1 — bit-for-bit the textbook loop, zero speculation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaveController {
    size: usize,
    min: usize,
    max: usize,
    /// EMA of per-wave accept rates, seeded optimistically at 1.0.
    accept: f64,
}

/// EMA smoothing: one half of each new observation.
const WAVE_EMA_ALPHA: f64 = 0.5;
/// Accept-rate above which the wave doubles.
const WAVE_GROW_AT: f64 = 0.75;
/// Accept-rate below which the wave halves.
const WAVE_SHRINK_AT: f64 = 0.35;

impl WaveController {
    pub(crate) fn new(threads: usize) -> Self {
        if threads <= 1 {
            Self {
                size: 1,
                min: 1,
                max: 1,
                accept: 1.0,
            }
        } else {
            // The floor (one wave slot per worker) takes precedence over
            // the waste ceiling on absurdly wide machines, so the wave
            // stays pinned at `threads` there instead of oscillating
            // above the cap.
            let max = (16 * threads).min(256).max(threads);
            Self {
                size: (4 * threads).min(max),
                min: threads,
                max,
                accept: 1.0,
            }
        }
    }

    /// Current speculation depth.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Fold one wave's outcome (`consumed` of `speculated` results used
    /// by the replay) into the moving accept rate and resize.
    pub(crate) fn record(&mut self, speculated: usize, consumed: usize) {
        if speculated == 0 || self.max == 1 {
            return;
        }
        debug_assert!(consumed <= speculated);
        let rate = consumed as f64 / speculated as f64;
        self.accept = WAVE_EMA_ALPHA * rate + (1.0 - WAVE_EMA_ALPHA) * self.accept;
        if self.accept > WAVE_GROW_AT {
            self.size = (self.size * 2).min(self.max);
        } else if self.accept < WAVE_SHRINK_AT {
            self.size = (self.size / 2).max(self.min);
        }
    }
}

/// Run the γ-threshold search through the candidate engine; returns
/// `(iterations, history)`.
///
/// Expectations start at `+∞`, so the first iteration degenerates to a
/// full sweep exactly as the paper describes ("we assign an expected
/// makespan improvement to each mapping operation after the first
/// iteration").  The decision sequence — which operations get evaluated,
/// their expectation updates, and the committed winner — is identical to
/// the serial reference for every wave size; see the module docs.
///
/// A NaN improvement delta aborts with [`MapperError::NanDelta`] before
/// it can silently corrupt the expectation order (see [`Key`]).
pub(crate) fn gamma_threshold_search(
    engine: &mut CandidateBatch<'_>,
    cap: usize,
    gamma: f64,
) -> Result<(usize, Vec<f64>), MapperError> {
    let op_count = engine.op_count();
    let mut wave = WaveController::new(engine.threads());
    let mut expected = vec![f64::INFINITY; op_count];
    let mut evaluated = vec![false; op_count];
    let mut history = Vec::new();
    let mut iterations = 0;

    while iterations < cap {
        // Rebuild the priority queue from current expectations.  Stale
        // entries are impossible this way, and the rebuild is O(K), far
        // below the cost of even a single model evaluation.
        let mut heap: BinaryHeap<(Key, OpId)> = BinaryHeap::with_capacity(op_count);
        for (op, &exp) in expected.iter().enumerate() {
            heap.push((Key::new(exp).map_err(|_| MapperError::NanDelta { op })?, op));
        }
        evaluated.iter_mut().for_each(|e| *e = false);
        let mut found: Option<(OpId, f64)> = None;
        let mut wave_ops: Vec<OpId> = Vec::with_capacity(wave.size());
        let mut wave_exps: Vec<f64> = Vec::with_capacity(wave.size());

        'pass: loop {
            // Speculatively take the next `wave.size()` pops — exactly
            // the prefix the serial loop would consider next.
            wave_ops.clear();
            wave_exps.clear();
            while wave_ops.len() < wave.size() {
                match heap.pop() {
                    Some((key, op)) => {
                        if evaluated[op] {
                            continue;
                        }
                        wave_ops.push(op);
                        wave_exps.push(key.get());
                    }
                    None => break,
                }
            }
            if wave_ops.is_empty() {
                break 'pass;
            }
            // One parallel batch (memoized, unpruned: the γ-search needs
            // every delta it asks for, because deltas become the next
            // iteration's expectations).
            let deltas = engine.evaluate_ops(&wave_ops, false);
            // Serial replay of the decision sequence.
            let mut consumed = 0usize;
            let mut cut_short = false;
            for ((&op, &exp), &delta) in wave_ops.iter().zip(&wave_exps).zip(&deltas) {
                if let Some((_, best)) = found {
                    // Look-ahead bound: only operations whose expected
                    // improvement exceeds Δ/γ are still worth
                    // evaluating; everything speculated beyond this
                    // point is discarded unseen.
                    if exp <= best / gamma {
                        cut_short = true;
                        break;
                    }
                }
                if delta.is_nan() {
                    return Err(MapperError::NanDelta { op });
                }
                consumed += 1;
                evaluated[op] = true;
                expected[op] = delta;
                if engine.improves(delta) && found.is_none_or(|(_, best)| delta > best) {
                    found = Some((op, delta));
                }
            }
            wave.record(wave_ops.len(), consumed);
            if cut_short {
                break 'pass;
            }
        }

        match found {
            Some((op, _)) => {
                engine.commit(op);
                history.push(engine.current_makespan());
                iterations += 1;
            }
            None => break,
        }
    }
    Ok((iterations, history))
}

#[cfg(test)]
mod tests {
    use super::{Key, NanKey, WaveController};

    fn key(x: f64) -> Key {
        Key::new(x).expect("finite or infinite key")
    }

    #[test]
    fn key_orders_like_f64_with_infinities() {
        let mut keys = [
            key(1.0),
            key(f64::NEG_INFINITY),
            key(f64::INFINITY),
            key(0.5),
        ];
        keys.sort();
        let vals: Vec<f64> = keys.iter().map(|k| k.get()).collect();
        assert_eq!(vals, vec![f64::NEG_INFINITY, 0.5, 1.0, f64::INFINITY]);
    }

    #[test]
    fn key_rejects_nan_with_typed_error() {
        // Regression: under `total_cmp` a positive NaN sorts above +∞,
        // so a NaN expectation would win every heap pop.  Construction
        // must refuse it instead of silently misordering.
        assert_eq!(Key::new(f64::NAN), Err(NanKey));
        assert_eq!(Key::new(-f64::NAN), Err(NanKey));
        assert!(
            Key::new(f64::INFINITY).is_ok(),
            "+inf is a legal initial expectation"
        );
        assert!(
            Key::new(f64::NEG_INFINITY).is_ok(),
            "-inf is the no-op sentinel"
        );
        assert!(Key::new(0.0).is_ok());
    }

    #[test]
    fn heap_pops_max_first() {
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        h.push((key(0.2), 0usize));
        h.push((key(f64::INFINITY), 1));
        h.push((key(-1.0), 2));
        assert_eq!(h.pop().unwrap().1, 1);
        assert_eq!(h.pop().unwrap().1, 0);
        assert_eq!(h.pop().unwrap().1, 2);
    }

    #[test]
    fn wave_serial_is_pinned_at_one() {
        let mut w = WaveController::new(1);
        assert_eq!(w.size(), 1);
        for _ in 0..10 {
            w.record(1, 1);
        }
        assert_eq!(w.size(), 1, "serial never speculates");
        assert!(WaveController::new(8).size() > 1);
    }

    #[test]
    fn wave_grows_on_full_consumption_and_shrinks_on_waste() {
        let mut w = WaveController::new(4);
        let start = w.size();
        // Fully consumed waves: accept EMA stays at 1.0, wave doubles to
        // the cap.
        for _ in 0..8 {
            let s = w.size();
            w.record(s, s);
        }
        assert!(w.size() > start, "full waves must grow speculation");
        assert!(w.size() <= 16 * 4, "cap respected");
        let peak = w.size();
        // Wasted waves (cutoff fires immediately): EMA decays, wave
        // shrinks back to the floor.
        for _ in 0..16 {
            let s = w.size();
            w.record(s, 0);
        }
        assert!(w.size() < peak, "wasted waves must shrink speculation");
        assert_eq!(w.size(), 4, "never below the worker count");
    }

    #[test]
    fn wave_never_escapes_its_bounds_even_on_very_wide_machines() {
        // threads > 256: the per-worker floor exceeds the waste ceiling;
        // the wave must stay pinned at `threads`, never bounce above.
        let mut w = WaveController::new(512);
        assert_eq!(w.size(), 512);
        for i in 0..12 {
            let s = w.size();
            w.record(s, if i % 2 == 0 { 0 } else { s });
            assert_eq!(w.size(), 512, "pinned: floor == cap");
        }
    }

    #[test]
    fn wave_controller_is_deterministic() {
        let run = || {
            let mut w = WaveController::new(8);
            let mut sizes = Vec::new();
            for i in 0..20usize {
                let s = w.size();
                w.record(s, if i % 3 == 0 { s } else { s / 2 });
                sizes.push(w.size());
            }
            sizes
        };
        assert_eq!(run(), run());
    }
}
