//! The multilevel coarsen–align–project–refine driver (CAPER-style
//! wrapper around the flat cuAlign pipeline).
//!
//! cuAlign's wall-clock is dominated by kNN construction and BP sweeps
//! on the full product space (paper §5–6). This module trades a little
//! projection bookkeeping for running those stages only on heavily
//! contracted graphs:
//!
//! 1. **Coarsen** — both inputs are contracted `L` times with
//!    heavy-edge matching ([`cualign_graph::coarsen`]).
//! 2. **Align** — the existing [`AlignmentSession`] pipeline (embed →
//!    subspace → kNN → overlap → BP ⇄ matching) runs *only* on the
//!    coarsest pair, with the embedding dimension clamped to the coarse
//!    size.
//! 3. **Project** — the coarse matching is pushed down one level
//!    through the vertex-merge maps: the children of a matched coarse
//!    pair become seed pairs.
//! 4. **Refine** — at every level a *band* bipartite graph is built
//!    around the projected pairs (the seeds plus the top-`band_k`
//!    neighborhood-vote candidates per vertex — a kNN band in vote
//!    space), a few warm-started BP sweeps run on it
//!    ([`cualign_bp::BpConfig::warm_start`]), and a half-approximate
//!    (locally dominant) matching repair pass completes the rounding
//!    for vertices BP left unmatched. Steps 3–4 repeat until the
//!    original graphs are reached. Band weights blend projection votes
//!    with similarity under the coarse session's aligned embeddings
//!    (rows inherited down the merge maps), and vertices the vote
//!    projection leaves candidate-less fall back to a blocked-kNN query
//!    against those embeddings — both go through the shared tiled GEMM
//!    block-similarity kernel ([`cualign_linalg::gemm`]).
//!
//! Entry points: [`AlignerConfig::builder`]`.multilevel(levels)` routes
//! [`crate::Aligner::align`] through [`align_multilevel`]; the CLI and
//! bench binaries expose the same knob as `--multilevel N`.
//!
//! Every stage is instrumented: a `multilevel.coarsen` span, a
//! `multilevel.coarse_align` span wrapping the coarsest-level session,
//! per-level `multilevel.level<k>.{band,overlap,bp,repair}` spans under
//! a `multilevel.level<k>.refine` parent (the band's orphan rescue
//! nests as `multilevel.level<k>.fallback`), and per-level
//! `multilevel.level<k>.{projected_pairs,band_edges,band_fallback,bp_matched,repaired_pairs}`
//! counters (always-on atomics, like all registry counters), all in the
//! caller's [`cualign_telemetry::current`] registry together with the
//! spans and counters of every kernel the levels run.
//!
//! Timing attribution in the returned [`crate::StageTimings`]: the coarse
//! session reports its own five stages; coarsening and band
//! construction are folded into `sparsify_s` (candidate-structure
//! construction), per-level overlap builds into `overlap_s`, and BP +
//! repair into `optimize_s`.
//!
//! ```
//! use cualign::{Aligner, AlignerConfig};
//! use cualign_graph::generators::erdos_renyi_gnm;
//! use cualign_graph::permutation::AlignmentInstance;
//! use cualign_rt::Rng;
//!
//! let mut rng = Rng::new(7);
//! let a = erdos_renyi_gnm(220, 660, &mut rng);
//! let inst = AlignmentInstance::permuted_pair(a, &mut rng);
//! let cfg = AlignerConfig::builder()
//!     .k(6)
//!     .bp_iters(6)
//!     .multilevel(1)
//!     .build()?;
//! let result = Aligner::new(cfg).align(&inst.a, &inst.b)?;
//! assert!(result.scores.ncv_gs3 > 0.0);
//! # Ok::<(), cualign::AlignError>(())
//! ```

use crate::config::AlignerConfig;
use crate::error::AlignError;
use crate::pipeline::AlignmentResult;
use crate::scoring::score_alignment;
use crate::session::AlignmentSession;
use cualign_bp::BpEngine;
use cualign_graph::coarsen::{CoarseLevel, CoarsenConfig, CoarseningHierarchy};
use cualign_graph::{BipartiteGraph, CsrGraph, VertexId};
use cualign_linalg::{vecops, DenseMatrix};
use cualign_matching::{suitor_matching, Matching};
use cualign_overlap::OverlapMatrix;
use cualign_rt::par;
use cualign_sparsify::{ann_candidates, knn_candidates, AnnConfig, KnnDirection};

/// Knobs of the multilevel wrapper. Constructed by
/// [`AlignerConfig::builder`]`.multilevel(levels)` with the defaults
/// below, or passed wholesale via `.multilevel_config(..)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultilevelConfig {
    /// Coarsening levels `L` requested for both graphs. The effective
    /// depth can be smaller when coarsening stalls or hits the
    /// [`MultilevelConfig::min_coarse_vertices`] floor.
    pub levels: usize,
    /// Candidate cap per A-side vertex in each refinement band.
    pub band_k: usize,
    /// Warm-started BP sweeps per refinement level (the flat pipeline's
    /// `bp.max_iters` applies only at the coarsest level).
    pub refine_bp_iters: usize,
    /// Coarsening stops once a graph has at most this many vertices.
    pub min_coarse_vertices: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            levels: 2,
            band_k: 8,
            refine_bp_iters: 6,
            min_coarse_vertices: 64,
        }
    }
}

/// Per-vertex neighbor scan cap in the band vote accumulation, so a hub
/// vertex cannot turn candidate generation quadratic.
const MAX_NEIGHBOR_SCAN: usize = 128;

/// Below this many target-side vertices the band's orphan fallback uses
/// the exact kNN kernel even under the ANN sparsity rule — LSH hashing
/// overhead only pays off once the exact `O(n_orphans · n_b · d)` sweep
/// is the bigger cost.
const ANN_FALLBACK_MIN_TARGETS: usize = 4096;

/// Runs the multilevel pipeline on `a` and `b` under `cfg` (which must
/// carry `Some` [`AlignerConfig::multilevel`]; defaults are used
/// otherwise). Prefer [`crate::Aligner::align`], which dispatches here
/// automatically.
///
/// Falls back to the flat pipeline when neither graph can be coarsened
/// (both already at or below the floor), so results degrade gracefully
/// on small inputs.
pub fn align_multilevel(
    a: &CsrGraph,
    b: &CsrGraph,
    cfg: &AlignerConfig,
) -> Result<AlignmentResult, AlignError> {
    cfg.validate()?;
    let registry = cualign_telemetry::current();
    let ml = cfg.multilevel.unwrap_or_default();
    let mut flat_cfg = cfg.clone();
    flat_cfg.multilevel = None;

    let ccfg = CoarsenConfig {
        min_vertices: ml.min_coarse_vertices,
        ..CoarsenConfig::default()
    };
    let ((ha, hb), coarsen_s) = registry.timed("multilevel.coarsen", || {
        (
            CoarseningHierarchy::build(a, ml.levels, &ccfg),
            CoarseningHierarchy::build(b, ml.levels, &ccfg),
        )
    });
    let depth = ha.depth().min(hb.depth());
    registry.gauge("multilevel.depth").set(depth as f64);
    if depth == 0 {
        return AlignmentSession::new(a, b, flat_cfg)?.align();
    }

    let ga_at = |j: usize| if j == 0 { a } else { &ha.level(j - 1).graph };
    let gb_at = |j: usize| if j == 0 { b } else { &hb.level(j - 1).graph };

    // Coarsest-level flat alignment, with the embedding dimension (and
    // anchor count) clamped to the contracted sizes.
    let (ca, cb) = (ga_at(depth), gb_at(depth));
    let min_n = ca.num_vertices().min(cb.num_vertices());
    let mut coarse_cfg = flat_cfg;
    coarse_cfg.embedding.dim = coarse_cfg.embedding.dim.min((min_n / 2).max(1));
    if coarse_cfg.subspace.anchors >= min_n {
        coarse_cfg.subspace.anchors = 0; // 0 = use every vertex
    }
    let (coarse_res, coarse_emb) = {
        let _span = registry.span("multilevel.coarse_align");
        let mut sess = AlignmentSession::new(ca, cb, coarse_cfg)?;
        let res = sess.align()?;
        // The aligned subspace embeddings are already cached by the run
        // above; clone them so the refinement levels can rescore band
        // candidates by inherited embedding similarity.
        let sub = sess.subspace()?;
        (res, (sub.ya.clone(), sub.yb.clone()))
    };
    let (mut emb_a, mut emb_b) = coarse_emb;
    let ann = cfg.ann_config();

    let mut mapping = coarse_res.mapping;
    let mut timings = coarse_res.timings;
    timings.sparsify_s += coarsen_s;
    let mut matching = coarse_res.matching;
    let mut bp_outcome = coarse_res.bp;
    let mut l_edges = coarse_res.l_edges;
    let mut s_nnz = coarse_res.s_nnz;

    for j in (0..depth).rev() {
        let _level_span = registry.span(&format!("multilevel.level{j}.refine"));
        let (ga, gb) = (ga_at(j), gb_at(j));
        let (level_a, level_b) = (ha.level(j), hb.level(j));

        // Fine vertices inherit their coarse parent's aligned embedding
        // row, so every level can rescore candidates by similarity.
        emb_a = inherit_rows(&emb_a, &level_a.merge_map, ga.num_vertices());
        emb_b = inherit_rows(&emb_b, &level_b.merge_map, gb.num_vertices());

        let (band, band_s) = registry.timed(&format!("multilevel.level{j}.band"), || {
            build_band(
                ga,
                gb,
                level_a,
                level_b,
                &mapping,
                ml.band_k,
                Some((&emb_a, &emb_b)),
                ann.as_ref(),
                j,
            )
        });
        registry
            .counter(&format!("multilevel.level{j}.projected_pairs"))
            .add(band.projected_pairs as u64);
        registry
            .counter(&format!("multilevel.level{j}.band_fallback"))
            .add(band.fallback_pairs as u64);
        if band.triples.is_empty() {
            return Err(AlignError::EmptySparsification);
        }
        let l_band = BipartiteGraph::from_weighted_edges(
            ga.num_vertices(),
            gb.num_vertices(),
            &band.triples,
        );
        registry
            .counter(&format!("multilevel.level{j}.band_edges"))
            .add(l_band.num_edges() as u64);

        let (s, overlap_s) = registry.timed(&format!("multilevel.level{j}.overlap"), || {
            OverlapMatrix::build(ga, gb, &l_band)
        });

        let mut bp_cfg = cfg.bp;
        bp_cfg.max_iters = ml.refine_bp_iters.max(1);
        bp_cfg.warm_start = true;
        let (out, bp_s) = registry.timed(&format!("multilevel.level{j}.bp"), || {
            BpEngine::new(&l_band, &s, &bp_cfg).run()
        });
        registry
            .counter(&format!("multilevel.level{j}.bp_matched"))
            .add(out.best_matching.len() as u64);

        let ((repaired_matching, repaired), repair_s) = registry
            .timed(&format!("multilevel.level{j}.repair"), || {
                repair(&l_band, &out.best_matching)
            });
        registry
            .counter(&format!("multilevel.level{j}.repaired_pairs"))
            .add(repaired as u64);

        mapping = repaired_matching.mates_a().to_vec();
        timings.sparsify_s += band_s;
        timings.overlap_s += overlap_s;
        timings.optimize_s += bp_s + repair_s;
        l_edges = l_band.num_edges();
        s_nnz = s.nnz();
        matching = repaired_matching;
        bp_outcome = out;
    }

    let scores = score_alignment(a, b, &mapping);
    Ok(AlignmentResult {
        matching,
        mapping,
        scores,
        bp: bp_outcome,
        timings,
        l_edges,
        s_nnz,
    })
}

/// The projected candidate band for one level.
struct Band {
    /// `(a, b, weight)` candidate edges, weights in `(0, 1]`.
    triples: Vec<(VertexId, VertexId, f64)>,
    /// Number of A-side vertices whose coarse parent was matched (the
    /// seeds the band grew around).
    projected_pairs: usize,
    /// Candidate edges added by the embedding-kNN fallback for vertices
    /// the vote projection left without any candidates.
    fallback_pairs: usize,
}

/// Copies row `merge_map[u]` of the coarse matrix into row `u` of an
/// `n_fine`-row matrix: fine vertices inherit their parent's embedding.
fn inherit_rows(coarse: &DenseMatrix, merge_map: &[VertexId], n_fine: usize) -> DenseMatrix {
    debug_assert_eq!(
        merge_map.len(),
        n_fine,
        "merge map must cover the fine graph"
    );
    let mut out = DenseMatrix::zeros(n_fine, coarse.cols());
    for (u, &parent) in merge_map.iter().enumerate() {
        out.row_mut(u).copy_from_slice(coarse.row(parent as usize));
    }
    out
}

/// Per-piece scratch of the band vote tally: an epoch-tagged dense vote
/// array over B's vertices plus the vertices the open epoch touched, so
/// a vertex's tally costs its votes, not a clear of the array.
struct VoteTally {
    /// `(epoch, vote)` per B vertex; the vote is live iff the epoch is.
    slots: Vec<(u32, f64)>,
    /// B vertices voted for in the open epoch, in first-vote order.
    touched: Vec<VertexId>,
    /// The candidates kept from the open tally.
    kept: Vec<(VertexId, f64)>,
    epoch: u32,
}

impl VoteTally {
    fn new(nb: usize) -> Self {
        VoteTally {
            slots: vec![(0, 0.0); nb],
            touched: Vec::new(),
            kept: Vec::new(),
            epoch: 0,
        }
    }

    /// Starts a fresh tally under a new epoch.
    fn open(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    fn add(&mut self, v: VertexId, vote: f64) {
        let slot = &mut self.slots[v as usize];
        if slot.0 != self.epoch {
            *slot = (self.epoch, 0.0);
            self.touched.push(v);
        }
        slot.1 += vote;
    }
}

/// Builds the refinement band at one level: each fine A-vertex's
/// candidates are its *seeds* (children of its matched coarse parent's
/// mate) plus neighborhood-vote candidates — every neighbor `u'` of `u`
/// votes for the B-side neighbors of `u'`'s seeds, since the true mate
/// of `u` must be adjacent to the true mate of `u'`. Seeds always
/// survive (they *are* the projection); the top `band_k` non-seed
/// candidates by vote fill the rest of the budget.
///
/// Weights: with `embeddings` (the inherited, unit-norm aligned coarse
/// subspace rows), each surviving candidate's normalized vote is blended
/// 50/50 with the norm-free embedding similarity
/// ([`vecops::dot_unit`] mapped to `(1 + sim)/2`), so BP's warm start
/// sees both the projection confidence and the stage-1 similarity
/// evidence; without embeddings the weight is the normalized vote alone.
/// Vertices whose vote set comes up empty (unmatched coarse parent in a
/// sparse neighborhood) would otherwise be unmatchable at every finer
/// level — with embeddings they fall back to a blocked kNN query
/// ([`cualign_sparsify::knn_candidates`]) against the B-side rows,
/// timed as the `multilevel.level<level>.fallback` span.
#[allow(clippy::too_many_arguments)]
fn build_band(
    ga: &CsrGraph,
    gb: &CsrGraph,
    level_a: &CoarseLevel,
    level_b: &CoarseLevel,
    coarse_mapping: &[Option<VertexId>],
    band_k: usize,
    embeddings: Option<(&DenseMatrix, &DenseMatrix)>,
    ann: Option<&AnnConfig>,
    level: usize,
) -> Band {
    let na = ga.num_vertices();
    let seeds_of = |u: VertexId| -> &[VertexId] {
        match coarse_mapping[level_a.merge_map[u as usize] as usize] {
            Some(cb) => level_b.children_of(cb),
            None => &[],
        }
    };

    let mut per_vertex: Vec<Vec<(VertexId, VertexId, f64)>> = vec![Vec::new(); na];
    // A vertex's tally costs a few votes per scanned neighbor.
    par::for_each_init(
        per_vertex.iter_mut().collect(),
        par::min_len_for(4 * MAX_NEIGHBOR_SCAN),
        || VoteTally::new(gb.num_vertices()),
        |tally, u, out| {
            let u = u as VertexId;
            tally.open();
            // Direct projection: strong prior on the seed pairs.
            for &s in seeds_of(u) {
                tally.add(s, 2.0);
            }
            // Neighborhood consistency votes.
            for &up in ga.neighbors(u).iter().take(MAX_NEIGHBOR_SCAN) {
                for &s in seeds_of(up) {
                    for &v in gb.neighbors(s).iter().take(MAX_NEIGHBOR_SCAN) {
                        tally.add(v, 1.0);
                    }
                }
            }
            if tally.touched.is_empty() {
                return;
            }
            // Seeds always survive (each holds its own 2.0 vote, so it
            // was touched); of the rest only the top `band_k` by vote
            // do, picked by a linear-time selection. Sorting just the
            // kept few gives the order a sort of every candidate would,
            // and its head is the overall maximum.
            // total_cmp: votes are sums of constants so NaN cannot occur
            // today, but the total order keeps this sort panic-free and
            // deterministic if a weighted variant ever feeds it floats.
            let by_vote =
                |x: &(VertexId, f64), y: &(VertexId, f64)| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0));
            let seeds = seeds_of(u);
            let cap = band_k.max(1);
            let VoteTally {
                slots,
                touched,
                kept,
                ..
            } = tally;
            kept.clear();
            kept.extend(
                touched
                    .iter()
                    .filter(|v| !seeds.contains(v))
                    .map(|&v| (v, slots[v as usize].1)),
            );
            if kept.len() > cap {
                kept.select_nth_unstable_by(cap - 1, by_vote);
                kept.truncate(cap);
            }
            kept.extend(seeds.iter().map(|&v| (v, slots[v as usize].1)));
            kept.sort_unstable_by(by_vote);
            let max_vote = kept[0].1;
            *out = kept
                .iter()
                .map(|&(v, vote)| {
                    let wv = (0.5 + vote) / (0.5 + max_vote);
                    let w = match embeddings {
                        Some((ea, eb)) => {
                            let sim = vecops::dot_unit(ea.row(u as usize), eb.row(v as usize));
                            0.5 * (wv + (1.0 + sim) / 2.0)
                        }
                        None => wv,
                    };
                    (u, v, w)
                })
                .collect();
        },
    );

    let projected_pairs = (0..na as VertexId)
        .filter(|&u| !seeds_of(u).is_empty())
        .count();
    let orphans: Vec<VertexId> = per_vertex
        .iter()
        .enumerate()
        .filter(|(_, cands)| cands.is_empty())
        .map(|(u, _)| u as VertexId)
        .collect();
    let mut triples: Vec<(VertexId, VertexId, f64)> = per_vertex.into_iter().flatten().collect();
    let mut fallback_pairs = 0usize;
    if let Some((ea, eb)) = embeddings {
        if !orphans.is_empty() && gb.num_vertices() > 0 {
            let _span =
                cualign_telemetry::current().span(&format!("multilevel.level{level}.fallback"));
            let mut queries = DenseMatrix::zeros(orphans.len(), ea.cols());
            for (i, &u) in orphans.iter().enumerate() {
                queries.row_mut(i).copy_from_slice(ea.row(u as usize));
            }
            // Under the ANN sparsity rule, big levels route the orphan
            // rescue through the approximate kernel too — an exact sweep
            // here would reintroduce the O(n²d) term the rule exists to
            // avoid. Small levels stay exact (hashing overhead dominates).
            let knn = match ann {
                Some(cfg) if gb.num_vertices() > ANN_FALLBACK_MIN_TARGETS => {
                    let fb = AnnConfig {
                        k: band_k.max(1),
                        ..*cfg
                    };
                    ann_candidates(&queries, eb, &fb, KnnDirection::AtoB)
                }
                _ => knn_candidates(&queries, eb, band_k.max(1), KnnDirection::AtoB),
            };
            fallback_pairs = knn.len();
            triples.extend(
                knn.into_iter()
                    .map(|(qi, v, w)| (orphans[qi as usize], v, w)),
            );
        }
    }
    Band {
        triples,
        projected_pairs,
        fallback_pairs,
    }
}

/// The half-approximate repair pass: vertices BP's rounding left
/// unmatched get a second chance on the residual band (weights of edges
/// touching matched vertices are zeroed; the locally dominant matchers
/// ignore non-positive weights), and the two vertex-disjoint matchings
/// are merged. Returns the merged matching and the number of repaired
/// pairs.
fn repair(l: &BipartiteGraph, bp_matching: &Matching) -> (Matching, usize) {
    let mut residual = l.clone();
    let mates_a = bp_matching.mates_a();
    let mates_b = bp_matching.mates_b();
    {
        let w = residual.weights_mut();
        for (e, edge) in l.edges().iter().enumerate() {
            if mates_a[edge.a as usize].is_some() || mates_b[edge.b as usize].is_some() {
                w[e] = 0.0;
            }
        }
    }
    let extra = suitor_matching(&residual);
    let mut ids = bp_matching.edge_ids().to_vec();
    ids.extend_from_slice(extra.edge_ids());
    (Matching::from_edge_ids(l, ids), extra.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::permutation::AlignmentInstance;
    use cualign_rt::Rng;
    use std::collections::BTreeMap;

    /// The band as first written: a map tally per vertex, then the same
    /// selection, weights and orphan rescue. The dense epoch tally of
    /// [`build_band`] must reproduce it bit for bit.
    fn reference_band(
        ga: &CsrGraph,
        gb: &CsrGraph,
        level_a: &CoarseLevel,
        level_b: &CoarseLevel,
        coarse_mapping: &[Option<VertexId>],
        band_k: usize,
        embeddings: Option<(&DenseMatrix, &DenseMatrix)>,
    ) -> Vec<(VertexId, VertexId, f64)> {
        let seeds_of = |u: VertexId| -> &[VertexId] {
            match coarse_mapping[level_a.merge_map[u as usize] as usize] {
                Some(cb) => level_b.children_of(cb),
                None => &[],
            }
        };
        let mut triples = Vec::new();
        let mut orphans = Vec::new();
        for u in 0..ga.num_vertices() as VertexId {
            let mut votes: BTreeMap<VertexId, f64> = BTreeMap::new();
            for &s in seeds_of(u) {
                *votes.entry(s).or_insert(0.0) += 2.0;
            }
            for &up in ga.neighbors(u).iter().take(MAX_NEIGHBOR_SCAN) {
                for &s in seeds_of(up) {
                    for &v in gb.neighbors(s).iter().take(MAX_NEIGHBOR_SCAN) {
                        *votes.entry(v).or_insert(0.0) += 1.0;
                    }
                }
            }
            if votes.is_empty() {
                orphans.push(u);
                continue;
            }
            let mut cands: Vec<(VertexId, f64)> = votes.into_iter().collect();
            cands.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            let max_vote = cands[0].1;
            let mut non_seed = 0usize;
            for (v, vote) in cands {
                if !seeds_of(u).contains(&v) {
                    non_seed += 1;
                    if non_seed > band_k.max(1) {
                        continue;
                    }
                }
                let wv = (0.5 + vote) / (0.5 + max_vote);
                let w = match embeddings {
                    Some((ea, eb)) => {
                        let sim = vecops::dot_unit(ea.row(u as usize), eb.row(v as usize));
                        0.5 * (wv + (1.0 + sim) / 2.0)
                    }
                    None => wv,
                };
                triples.push((u, v, w));
            }
        }
        if let Some((ea, eb)) = embeddings {
            if !orphans.is_empty() {
                let mut queries = DenseMatrix::zeros(orphans.len(), ea.cols());
                for (i, &u) in orphans.iter().enumerate() {
                    queries.row_mut(i).copy_from_slice(ea.row(u as usize));
                }
                let knn = knn_candidates(&queries, eb, band_k.max(1), KnnDirection::AtoB);
                triples.extend(
                    knn.into_iter()
                        .map(|(qi, v, w)| (orphans[qi as usize], v, w)),
                );
            }
        }
        triples
    }

    /// A graph with a hub adjacent to `hub_deg` vertices, random edges
    /// among `n - isolated` vertices, and `isolated` trailing isolated
    /// vertices (singleton coarse parents, hence orphans when unmatched).
    fn hub_graph(n: usize, m: usize, hub_deg: usize, isolated: usize, rng: &mut Rng) -> CsrGraph {
        let live = n - isolated;
        let mut pairs: Vec<(VertexId, VertexId)> =
            (1..=hub_deg as VertexId).map(|v| (0, v)).collect();
        for _ in 0..m {
            pairs.push((rng.below(live) as VertexId, rng.below(live) as VertexId));
        }
        CsrGraph::from_edges(n, &pairs)
    }

    fn unit_rows(n: usize, d: usize, rng: &mut Rng) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n, d);
        for i in 0..n {
            let row = m.row_mut(i);
            for x in row.iter_mut() {
                *x = rng.f64() - 0.5;
            }
            let norm = vecops::dot(row, row).sqrt();
            row.iter_mut().for_each(|x| *x /= norm);
        }
        m
    }

    #[test]
    fn band_tally_matches_map_reference() {
        let ccfg = CoarsenConfig {
            min_vertices: 8,
            ..CoarsenConfig::default()
        };
        // (na, nb, hub degree, isolated vertices, edge factor).
        let shapes = [
            (300, 260, 200, 12, 3),
            (180, 420, 150, 0, 2),
            (90, 90, 0, 20, 1),
            (2600, 2300, 300, 40, 3),
        ];
        for (case, &(na, nb, hub, iso, ef)) in shapes.iter().enumerate() {
            let mut rng = Rng::new(40 + case as u64);
            let ga = hub_graph(na, ef * na, hub.min(na - iso - 1), iso, &mut rng);
            let gb = hub_graph(nb, ef * nb, hub.min(nb - iso - 1), iso, &mut rng);
            let ha = CoarseningHierarchy::build(&ga, 1, &ccfg);
            let hb = CoarseningHierarchy::build(&gb, 1, &ccfg);
            let (la, lb) = (ha.level(0), hb.level(0));
            let cnb = lb.graph.num_vertices();
            // A partial, not necessarily injective, coarse mapping.
            let mut mapping: Vec<Option<VertexId>> = (0..la.graph.num_vertices())
                .map(|_| rng.bool(0.7).then(|| rng.below(cnb) as VertexId))
                .collect();
            // Unmatched parents of the isolated vertices make orphans.
            for u in na - iso..na {
                mapping[la.merge_map[u] as usize] = None;
            }
            let (ea, eb) = (unit_rows(na, 6, &mut rng), unit_rows(nb, 6, &mut rng));
            for emb in [None, Some((&ea, &eb))] {
                let want = reference_band(&ga, &gb, la, lb, &mapping, 5, emb);
                for threads in [1, 2] {
                    let band = par::with_threads(threads, || {
                        build_band(&ga, &gb, la, lb, &mapping, 5, emb, None, 0)
                    });
                    let bits = |t: &[(VertexId, VertexId, f64)]| -> Vec<(VertexId, VertexId, u64)> {
                        t.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&band.triples),
                        bits(&want),
                        "case {case}, embeddings {}, {threads} threads",
                        emb.is_some()
                    );
                    if emb.is_some() && iso > 0 {
                        assert!(band.fallback_pairs > 0, "case {case} has no orphans");
                    }
                }
            }
        }
    }

    fn ml_cfg(levels: usize) -> AlignerConfig {
        AlignerConfig::builder()
            .k(6)
            .bp_iters(8)
            .multilevel(levels)
            .build()
            .unwrap()
    }

    #[test]
    fn recovers_permuted_er_graph() {
        let mut rng = Rng::new(11);
        let a = erdos_renyi_gnm(400, 1600, &mut rng);
        let inst = AlignmentInstance::permuted_pair(a, &mut rng);
        let r = align_multilevel(&inst.a, &inst.b, &ml_cfg(2)).unwrap();
        // The mapping mirrors the final matching.
        for (u, m) in r.mapping.iter().enumerate() {
            assert_eq!(*m, r.matching.mate_of_a(u as VertexId));
        }
        let nc = inst.node_correctness(&r.mapping);
        assert!(nc > 0.3, "node correctness {nc}");
        assert!(r.scores.ncv_gs3 > 0.3, "NCV-GS3 {}", r.scores.ncv_gs3);
    }

    #[test]
    fn repair_completes_bp_roundings() {
        // A band where BP trivially leaves a vertex out: two A vertices,
        // one B candidate each plus one contested candidate.
        let l = BipartiteGraph::from_weighted_edges(2, 2, &[(0, 0, 1.0), (1, 0, 0.9), (1, 1, 0.2)]);
        let bp = Matching::from_edge_ids(&l, vec![0]);
        let (merged, repaired) = repair(&l, &bp);
        assert_eq!(repaired, 1);
        assert_eq!(merged.mate_of_a(0), Some(0));
        assert_eq!(merged.mate_of_a(1), Some(1));
        assert!(merged.check_valid(&l).is_ok());
    }

    #[test]
    fn band_projects_through_merge_maps() {
        // Coarsen a small pair and check the band contains the seeds.
        let mut rng = Rng::new(5);
        let g = erdos_renyi_gnm(80, 240, &mut rng);
        let ccfg = CoarsenConfig {
            min_vertices: 8,
            ..CoarsenConfig::default()
        };
        let h = CoarseningHierarchy::build(&g, 1, &ccfg);
        assert_eq!(h.depth(), 1);
        let level = h.level(0);
        let cn = level.graph.num_vertices();
        // Identity mapping at the coarse level.
        let mapping: Vec<Option<VertexId>> = (0..cn as VertexId).map(Some).collect();
        let band = build_band(&g, &g, level, level, &mapping, 8, None, None, 0);
        assert_eq!(band.projected_pairs, 80);
        // Every vertex's own seed set (its siblings) must appear.
        for u in 0..80u32 {
            let c = level.merge_map[u as usize];
            for &s in level.children_of(c) {
                assert!(
                    band.triples.iter().any(|&(a, b, _)| a == u && b == s),
                    "seed ({u}, {s}) missing from band"
                );
            }
        }
        // And weights are valid BP inputs.
        assert!(band.triples.iter().all(|&(_, _, w)| w > 0.0 && w <= 1.0));
    }
}
