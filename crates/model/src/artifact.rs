//! Owned, shareable evaluation artifacts and their content-addressed
//! cache.
//!
//! [`EvalTables`] borrows its graph and platform (`EvalTables<'g>`),
//! which is the right shape for one mapper run on one caller's data —
//! but a long-lived mapping service wants to *share* the expensive
//! table build across requests that submit the same graph.  An
//! [`EvalArtifact`] owns graph, platform and tables together behind an
//! `Arc`, so any number of concurrent requests can evaluate against one
//! immutable build.
//!
//! ## Cache-key soundness
//!
//! Artifacts are addressed by [`artifact_key`], which chains
//! [`graph_fingerprint`] and [`platform_fingerprint`] (both covering
//! exactly the inputs `EvalTables` reads — task attributes, edge lists
//! in semantic order, device specs, the link table) with the
//! [`Numbering`] the tables were laid out under.  Everything that can
//! change a table entry changes the key; names, which never reach the
//! evaluator, do not.  A 128-bit collision (birthday bound ≈ `k²/2^129`
//! over `k` distinct graphs) would reuse a wrong-but-deterministic
//! table — the same trade the mapping memo already makes.
//!
//! An artifact may also carry the request's [`CandidateSet`] — the
//! candidate subgraphs its decomposition strategy derives from the
//! graph ([`EvalArtifact::with_candidates`]).  The set depends on the
//! strategy as well as the graph, so attaching it re-keys the artifact
//! through [`candidate_artifact_key`], which chains a *strategy tag*
//! onto the table key.  The tag is the caller's injective encoding of
//! the whole strategy (single-node vs series-parallel, the cut policy,
//! a random cut policy's seed): for a fixed table key, distinct tags
//! give distinct keys, so two strategies on one graph never share an
//! artifact, and a strategy can never be handed another's set.
//!
//! ## Eviction
//!
//! [`ArtifactCache`] is a byte-budgeted LRU in the mold of the engine's
//! `BoundedMemo`: entries carry a monotone use stamp and eviction drops
//! the stalest entries until the budget holds (always keeping the entry
//! just inserted, so a single oversized artifact still serves its
//! request).  An attached candidate set counts in
//! [`EvalArtifact::approx_bytes`], so the one byte budget governs it
//! too; its flat [`CandidateSet`] layout (one offset array, one node
//! array) keeps that cost near the payload.  Storage is a plain `Vec`
//! scanned linearly — the cache holds at most a few dozen distinct
//! (graph, platform) builds, the `u128` key compare is trivial next to
//! a table build, and a `Vec` keeps iteration deterministic without
//! hash-order pragmas.

use std::sync::Arc;

use spmap_graph::{NodeId, TaskGraph};

use crate::eval::{EvalTables, Numbering};
use crate::fingerprint::{graph_fingerprint, platform_fingerprint};
use crate::platform::Platform;

/// Chain two content fingerprints and a numbering tag into one cache
/// key.  Chained (not XORed) so swapping the graph and platform
/// contributions can never collide.
pub fn artifact_key(graph: &TaskGraph, platform: &Platform, numbering: Numbering) -> u128 {
    let g = graph_fingerprint(graph);
    let p = platform_fingerprint(platform);
    let tag = match numbering {
        Numbering::Identity => 0x1d_u128,
        Numbering::PopOrder => 0x90_u128,
    };
    // 128-bit mixing via multiply-rotate chaining, seeded per lane.
    let rot = |x: u128, k: u32| x.rotate_left(k);
    rot(g, 17)
        .wrapping_mul(0x2d35_8dcc_aa6c_78a5_f4a7_c159_9e37_79b9)
        .wrapping_add(rot(p, 71))
        .wrapping_mul(0x8bb8_4b93_962e_acc9_d192_ed03_d1b5_4a33)
        .wrapping_add(tag)
}

/// Re-key an artifact key under a device-availability mask (bit `i` set
/// = device `i` usable).  A remapping session that loses or regains a
/// device keeps its [`EvalTables`] bit-for-bit — an avoided device
/// contributes no exec, link or area term, so restricting the candidate
/// device list is exact without any platform surgery — but the *session
/// identity* changes: two sessions over the same platform with
/// different availability must never be confused by observers keying on
/// the artifact.  The full mask (all `device_count` low bits set)
/// returns `base` unchanged, so an untouched session keeps the plain
/// [`artifact_key`].
pub fn masked_artifact_key(base: u128, available_mask: u64, device_count: usize) -> u128 {
    let full = if device_count >= 64 {
        u64::MAX
    } else {
        (1u64 << device_count) - 1
    };
    if available_mask & full == full {
        return base;
    }
    base.rotate_left(29)
        .wrapping_mul(0x2d35_8dcc_aa6c_78a5_f4a7_c159_9e37_79b9)
        .wrapping_add((available_mask & full) as u128)
        .wrapping_mul(0x8bb8_4b93_962e_acc9_d192_ed03_d1b5_4a33)
}

/// Re-key a table key ([`artifact_key`]) for an artifact that also
/// carries a candidate set built under the strategy `tag` encodes.  For
/// a fixed `base`, the map `tag -> key` is injective: the final
/// multiplier is odd, so it is a bijection on `u128`.
pub fn candidate_artifact_key(base: u128, tag: u128) -> u128 {
    base.rotate_left(43)
        .wrapping_mul(0x8bb8_4b93_962e_acc9_d192_ed03_d1b5_4a33)
        .wrapping_add(tag)
        .wrapping_mul(0x2d35_8dcc_aa6c_78a5_f4a7_c159_9e37_79b9)
}

/// A candidate subgraph set in a flat layout: subgraph `i` is
/// `nodes[offsets[i]..offsets[i + 1]]`.  Two allocations in total,
/// instead of one `Vec` per subgraph, so a cached set costs its payload
/// and little more.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSet {
    /// `len() + 1` monotone offsets into `nodes`, starting at 0.
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl CandidateSet {
    /// Flatten a nested subgraph list, keeping its order.
    ///
    /// # Panics
    ///
    /// If the total node count does not fit a `u32` offset.
    pub fn from_nested<S: AsRef<[NodeId]>>(subgraphs: &[S]) -> Self {
        let total: usize = subgraphs.iter().map(|s| s.as_ref().len()).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "candidate set of {total} node entries overflows u32 offsets"
        );
        let mut offsets = Vec::with_capacity(subgraphs.len() + 1);
        let mut nodes = Vec::with_capacity(total);
        offsets.push(0);
        for s in subgraphs {
            nodes.extend_from_slice(s.as_ref());
            offsets.push(nodes.len() as u32);
        }
        Self { offsets, nodes }
    }

    /// Number of subgraphs.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the set holds no subgraph.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The subgraphs in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.nodes[w[0] as usize..w[1] as usize])
    }

    /// Heap bytes of the two arrays (their lengths, not capacities).
    pub fn payload_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.nodes.len() * std::mem::size_of::<NodeId>()
    }
}

/// `set[i]` is the nodes of subgraph `i`.
impl std::ops::Index<usize> for CandidateSet {
    type Output = [NodeId];

    #[inline]
    fn index(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// An owned evaluation build: the graph, the platform and the
/// [`EvalTables`] constructed from them, packaged so the borrowing
/// tables can be shared across threads and outlive the request that
/// built them — optionally together with a strategy's candidate set
/// ([`Self::with_candidates`]).
pub struct EvalArtifact {
    /// Declared (and therefore dropped) before the `Arc`s below — the
    /// tables' internal references must die first.
    tables: EvalTables<'static>,
    /// The candidate set attached by [`Self::with_candidates`]; owned
    /// data, independent of the table loan.
    candidates: Option<CandidateSet>,
    /// Keep-alive owners of the data `tables` borrows.  Never exposed
    /// mutably and never replaced; the artifact's accessors reborrow
    /// them at `&self` lifetime.
    graph: Arc<TaskGraph>,
    platform: Arc<Platform>,
    key: u128,
}

impl EvalArtifact {
    /// Build the tables for `(graph, platform, numbering)` and package
    /// them as a shareable artifact.
    pub fn build(graph: Arc<TaskGraph>, platform: Arc<Platform>, numbering: Numbering) -> Self {
        let key = artifact_key(&graph, &platform, numbering);
        // SAFETY: the `'static` here is a private loan, not a promise.
        // The references point into `Arc` heap allocations whose
        // addresses are stable for the `Arc`s' lifetime; both `Arc`s
        // are stored in the same struct and never swapped or exposed
        // mutably, so they outlive `tables` (declared first, dropped
        // first).  No accessor leaks the `'static` lifetime: `tables()`
        // reborrows at `&self`, shrinking it via covariance.
        let (g, p) = unsafe {
            (
                &*(Arc::as_ptr(&graph)),
                &*(Arc::as_ptr(&platform)) as &'static Platform,
            )
        };
        let tables = EvalTables::with_numbering(g, p, numbering);
        Self {
            tables,
            candidates: None,
            graph,
            platform,
            key,
        }
    }

    /// This artifact with the candidate set `set` attached, re-keyed
    /// under the strategy `tag` ([`candidate_artifact_key`]).  The
    /// caller vouches that `set` is what its strategy derives from
    /// [`Self::graph`]; the artifact stays immutable once shared.
    ///
    /// # Panics
    ///
    /// If a candidate set is already attached.
    pub fn with_candidates(mut self, tag: u128, set: CandidateSet) -> Self {
        assert!(
            self.candidates.is_none(),
            "an artifact carries at most one candidate set"
        );
        self.key = candidate_artifact_key(self.key, tag);
        self.candidates = Some(set);
        self
    }

    /// The attached candidate set, if any.
    #[inline]
    pub fn candidates(&self) -> Option<&CandidateSet> {
        self.candidates.as_ref()
    }

    /// The shared evaluation tables, reborrowed at the artifact's
    /// lifetime (covariance shrinks the internal `'static` loan).
    #[inline]
    pub fn tables(&self) -> &EvalTables<'_> {
        &self.tables
    }

    /// The owned graph.
    #[inline]
    pub fn graph(&self) -> &Arc<TaskGraph> {
        &self.graph
    }

    /// The owned platform.
    #[inline]
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The content key this artifact is cached under.
    #[inline]
    pub fn key(&self) -> u128 {
        self.key
    }

    /// Approximate heap footprint (tables, graph/platform payload and
    /// the candidate set), the unit of the cache budget.
    pub fn approx_bytes(&self) -> usize {
        let graph_bytes = self.graph.node_count() * std::mem::size_of::<spmap_graph::Task>()
            + self.graph.edge_count() * (std::mem::size_of::<spmap_graph::Edge>() + 8);
        let platform_bytes = self.platform.device_count() * 160;
        let candidate_bytes = self.candidates.as_ref().map_or(0, |c| {
            std::mem::size_of::<CandidateSet>() + c.payload_bytes()
        });
        self.tables.table_bytes() + graph_bytes + platform_bytes + candidate_bytes
    }
}

/// Counters of one [`ArtifactCache`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller builds and inserts).
    pub misses: u64,
    /// Artifacts evicted to hold the byte budget.
    pub evictions: u64,
    /// High-water mark of resident bytes.
    pub peak_bytes: usize,
    /// High-water mark of resident artifacts.
    pub peak_entries: usize,
}

struct CacheEntry {
    key: u128,
    artifact: Arc<EvalArtifact>,
    /// Monotone last-use stamp (the LRU order).
    stamp: u64,
    bytes: usize,
}

/// A byte-budgeted, content-addressed LRU of [`EvalArtifact`]s.  Not
/// internally synchronized — the service wraps it in a `Mutex` and
/// drops the lock while building a missing artifact.
pub struct ArtifactCache {
    entries: Vec<CacheEntry>,
    clock: u64,
    budget_bytes: usize,
    cur_bytes: usize,
    stats: ArtifactCacheStats,
}

/// Default artifact-cache budget: enough for dozens of mid-size builds
/// while bounding a service's steady-state footprint.
pub const DEFAULT_ARTIFACT_BUDGET_BYTES: usize = 64 << 20;

impl ArtifactCache {
    /// An empty cache holding at most ~`budget_bytes` of artifacts
    /// (`0` selects [`DEFAULT_ARTIFACT_BUDGET_BYTES`]).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: Vec::new(),
            clock: 0,
            budget_bytes: if budget_bytes == 0 {
                DEFAULT_ARTIFACT_BUDGET_BYTES
            } else {
                budget_bytes
            },
            cur_bytes: 0,
            stats: ArtifactCacheStats::default(),
        }
    }

    /// The artifact cached under `key`, refreshing its LRU stamp.
    pub fn lookup(&mut self, key: u128) -> Option<Arc<EvalArtifact>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(e) => {
                e.stamp = clock;
                self.stats.hits += 1;
                Some(Arc::clone(&e.artifact))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert `artifact` under its own key, evicting
    /// least-recently-used entries until the budget holds (the new
    /// entry itself is never evicted).  A concurrent builder may have
    /// inserted the same key while this caller built without the lock;
    /// the existing entry wins so every holder shares one build.
    pub fn insert(&mut self, artifact: Arc<EvalArtifact>) -> Arc<EvalArtifact> {
        self.clock += 1;
        let key = artifact.key();
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.stamp = self.clock;
            return Arc::clone(&e.artifact);
        }
        let bytes = artifact.approx_bytes();
        self.entries.push(CacheEntry {
            key,
            artifact: Arc::clone(&artifact),
            stamp: self.clock,
            bytes,
        });
        self.cur_bytes += bytes;
        while self.cur_bytes > self.budget_bytes && self.entries.len() > 1 {
            // Evict the stalest entry; stamps are unique, so the
            // minimum is unambiguous and scan order cannot matter.
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("entries is non-empty");
            let evicted = self.entries.swap_remove(oldest);
            self.cur_bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.cur_bytes);
        self.stats.peak_entries = self.stats.peak_entries.max(self.entries.len());
        artifact
    }

    /// Resident artifact count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.cur_bytes
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ArtifactCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmap_graph::{GraphBuilder, Task};

    fn chain_graph(n: usize, area: f64) -> Arc<TaskGraph> {
        let mut b = GraphBuilder::new();
        let first = b.add_task(Task {
            area,
            ..Task::default()
        });
        let mut prev = first;
        for _ in 1..n {
            let v = b.add_task(Task {
                area,
                ..Task::default()
            });
            b.add_edge(prev, v, 64.0).unwrap();
            prev = v;
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn artifact_tables_match_a_direct_build() {
        let graph = chain_graph(12, 1.0);
        let platform = Arc::new(Platform::reference());
        let art = EvalArtifact::build(
            Arc::clone(&graph),
            Arc::clone(&platform),
            Numbering::PopOrder,
        );
        let direct = EvalTables::with_numbering(&graph, &platform, Numbering::PopOrder);
        assert_eq!(art.tables().exec_table(), direct.exec_table());
        assert_eq!(art.tables().node_count(), 12);
        assert_eq!(
            art.key(),
            artifact_key(&graph, &platform, Numbering::PopOrder)
        );
    }

    #[test]
    fn artifact_key_separates_numbering_and_content() {
        let graph = chain_graph(8, 1.0);
        let platform = Arc::new(Platform::reference());
        let k1 = artifact_key(&graph, &platform, Numbering::PopOrder);
        assert_ne!(
            k1,
            artifact_key(&graph, &platform, Numbering::Identity),
            "numbering changes table layout, so it must change the key"
        );
        assert_ne!(
            k1,
            artifact_key(&chain_graph(8, 2.0), &platform, Numbering::PopOrder)
        );
        assert_ne!(
            k1,
            artifact_key(&graph, &Arc::new(Platform::cpu_only()), Numbering::PopOrder)
        );
    }

    #[test]
    fn cache_hits_and_refreshes_lru() {
        let platform = Arc::new(Platform::reference());
        let mut cache = ArtifactCache::new(usize::MAX);
        let a = Arc::new(EvalArtifact::build(
            chain_graph(6, 1.0),
            Arc::clone(&platform),
            Numbering::PopOrder,
        ));
        assert!(cache.lookup(a.key()).is_none());
        cache.insert(Arc::clone(&a));
        let got = cache.lookup(a.key()).expect("cached");
        assert!(Arc::ptr_eq(&got, &a), "one shared build");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cache_evicts_stalest_under_budget_but_keeps_newest() {
        let platform = Arc::new(Platform::reference());
        let arts: Vec<Arc<EvalArtifact>> = (0..4)
            .map(|i| {
                Arc::new(EvalArtifact::build(
                    chain_graph(6 + i, 1.0),
                    Arc::clone(&platform),
                    Numbering::PopOrder,
                ))
            })
            .collect();
        // Budget of one artifact: every insert evicts the previous one.
        let mut cache = ArtifactCache::new(arts[0].approx_bytes());
        for a in &arts {
            cache.insert(Arc::clone(a));
            assert_eq!(cache.len(), 1, "budget holds exactly the newest");
            assert!(cache.lookup(a.key()).is_some());
        }
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.lookup(arts[0].key()).is_none(), "stalest evicted");

        // Roomier budget: the LRU victim is the *unused* entry.
        let mut cache = ArtifactCache::new(3 * arts[3].approx_bytes());
        for a in arts.iter().take(3) {
            cache.insert(Arc::clone(a));
        }
        cache.lookup(arts[0].key());
        cache.lookup(arts[1].key());
        cache.insert(Arc::clone(&arts[3])); // evicts arts[2], the stalest
        assert!(cache.lookup(arts[2].key()).is_none());
        assert!(cache.lookup(arts[0].key()).is_some());
        assert!(cache.lookup(arts[1].key()).is_some());
        assert!(cache.lookup(arts[3].key()).is_some());
    }

    /// Chain-graph candidate set: every node alone plus every prefix.
    fn chain_candidates(graph: &TaskGraph) -> CandidateSet {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let singles = nodes.iter().map(|&v| vec![v]);
        let prefixes = (2..=nodes.len()).map(|k| nodes[..k].to_vec());
        CandidateSet::from_nested(&singles.chain(prefixes).collect::<Vec<_>>())
    }

    #[test]
    fn candidate_set_flattens_in_order() {
        let nested = vec![vec![NodeId(2)], vec![], vec![NodeId(0), NodeId(1)]];
        let set = CandidateSet::from_nested(&nested);
        assert_eq!(set.len(), 3);
        assert_eq!(&set[0], &[NodeId(2)][..]);
        assert!(set[1].is_empty());
        assert_eq!(
            set.iter().map(<[NodeId]>::to_vec).collect::<Vec<_>>(),
            nested
        );
        assert_eq!(set.payload_bytes(), 4 * 4 + 3 * 4);
        assert!(CandidateSet::from_nested::<Vec<NodeId>>(&[]).is_empty());
    }

    #[test]
    fn candidates_rekey_per_tag_and_count_in_the_budget() {
        let platform = Arc::new(Platform::reference());
        let graph = chain_graph(10, 1.0);
        let bare = EvalArtifact::build(
            Arc::clone(&graph),
            Arc::clone(&platform),
            Numbering::PopOrder,
        );
        let (bare_key, bare_bytes) = (bare.key(), bare.approx_bytes());
        let set = chain_candidates(&graph);
        let payload = set.payload_bytes();
        let with = bare.with_candidates(7, set.clone());
        assert_eq!(with.candidates(), Some(&set));
        assert_eq!(with.key(), candidate_artifact_key(bare_key, 7));
        assert_ne!(with.key(), bare_key);
        assert!(
            with.approx_bytes() >= bare_bytes + payload,
            "the set's flat payload must count in the cache budget"
        );
        let other = EvalArtifact::build(graph, platform, Numbering::PopOrder)
            .with_candidates(8, CandidateSet::from_nested::<Vec<NodeId>>(&[]));
        assert_ne!(other.key(), with.key(), "distinct tags, distinct keys");
    }

    #[test]
    fn one_artifact_budget_with_candidates_keeps_only_the_newest() {
        let platform = Arc::new(Platform::reference());
        let arts: Vec<Arc<EvalArtifact>> = (0..4)
            .map(|i| {
                let graph = chain_graph(6 + i, 1.0);
                let set = chain_candidates(&graph);
                Arc::new(
                    EvalArtifact::build(graph, Arc::clone(&platform), Numbering::PopOrder)
                        .with_candidates(1, set),
                )
            })
            .collect();
        let mut cache = ArtifactCache::new(arts[0].approx_bytes());
        for (i, a) in arts.iter().enumerate() {
            cache.insert(Arc::clone(a));
            assert_eq!(cache.len(), 1, "budget holds exactly the newest");
            assert_eq!(cache.resident_bytes(), a.approx_bytes());
            assert!(cache.lookup(a.key()).is_some(), "newest {i} resident");
        }
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn masked_key_is_identity_on_full_mask_and_injective_per_mask() {
        let base = artifact_key(
            &chain_graph(6, 1.0),
            &Platform::reference(),
            Numbering::PopOrder,
        );
        let m = Platform::reference().device_count();
        let full = (1u64 << m) - 1;
        assert_eq!(masked_artifact_key(base, full, m), base);
        // High bits beyond the device count are ignored.
        assert_eq!(masked_artifact_key(base, u64::MAX, m), base);
        // Distinct availability masks get distinct keys, all != base.
        let mut seen = vec![base];
        for mask in 0..full {
            let k = masked_artifact_key(base, mask, m);
            assert!(!seen.contains(&k), "mask {mask:#b} collided");
            seen.push(k);
        }
    }

    #[test]
    fn insert_race_keeps_the_first_build() {
        let platform = Arc::new(Platform::reference());
        let graph = chain_graph(6, 1.0);
        let a = Arc::new(EvalArtifact::build(
            Arc::clone(&graph),
            Arc::clone(&platform),
            Numbering::PopOrder,
        ));
        let b = Arc::new(EvalArtifact::build(graph, platform, Numbering::PopOrder));
        let mut cache = ArtifactCache::new(usize::MAX);
        cache.insert(Arc::clone(&a));
        let winner = cache.insert(Arc::clone(&b));
        assert!(
            Arc::ptr_eq(&winner, &a),
            "the resident build wins a double insert"
        );
        assert_eq!(cache.len(), 1);
    }
}
