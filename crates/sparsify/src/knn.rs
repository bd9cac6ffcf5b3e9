//! Exact brute-force k-nearest-neighbor search over embedding rows, on
//! the tiled block-similarity kernel.
//!
//! For each query row, compute cosine similarity against every row of the
//! other embedding and keep the top `k`. The sweep is blocked: queries are
//! split into `QUERY_BLOCK` (32)-row parallel items, targets stream through
//! in `TARGET_BLOCK` (256)-lane packed panels, and each `Qblock × Tblockᵀ`
//! dot tile ([`cualign_linalg::gemm::dot_block`]) folds into per-query
//! bounded top-`k` heaps. Row norms are computed *once* per row up front instead
//! of twice per pair, which is where the seed kernel spent two thirds of
//! its arithmetic.
//!
//! **Exactness**: the tile kernel's per-pair dot is the same in-order
//! chain as [`vecops::dot`], the norms are the same [`vecops::norm`]
//! values, and the cosine is the same `(dot / (nq·nt)).clamp(-1, 1)`
//! expression — so every similarity is bit-identical to the seed
//! [`knn_candidates_reference`] path, and the heap's total order (
//! descending similarity, ascending id) selects the identical top-`k`
//! set. `tests/prop_knn.rs` pins the equivalence, ties included.

use cualign_graph::VertexId;
use cualign_linalg::{gemm, vecops, DenseMatrix};
use cualign_rt::par;
use std::cmp::Ordering;
use std::time::Instant;

/// Query rows per parallel item in the blocked sweep.
const QUERY_BLOCK: usize = 32;
/// Target lanes per dot tile (panel-aligned; the tile buffer is
/// `QUERY_BLOCK × TARGET_BLOCK` f64s, small enough to stay cache-hot).
const TARGET_BLOCK: usize = 256;

/// Which side queries which.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnnDirection {
    /// Each A-row finds its `k` nearest B-rows.
    AtoB,
    /// Each B-row finds its `k` nearest A-rows.
    BtoA,
}

/// The seed ranking order: descending similarity, ascending target id on
/// ties — a total order, so the top-`k` set is unique.
#[inline]
pub(crate) fn rank(x: &(f64, VertexId), y: &(f64, VertexId)) -> Ordering {
    y.0.total_cmp(&x.0).then(x.1.cmp(&y.1))
}

/// Bounded top-`k` selector: a binary max-heap under [`rank`] whose root
/// is the *worst* kept candidate, replaced whenever a strictly better
/// one arrives.
pub(crate) struct TopK {
    keep: usize,
    heap: Vec<(f64, VertexId)>,
}

impl TopK {
    pub(crate) fn new(keep: usize) -> Self {
        TopK {
            keep,
            heap: Vec::with_capacity(keep),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, sim: f64, t: VertexId) {
        if self.keep == 0 {
            return;
        }
        let cand = (sim, t);
        if self.heap.len() < self.keep {
            self.heap.push(cand);
            self.sift_up(self.heap.len() - 1);
        } else if rank(&cand, &self.heap[0]) == Ordering::Less {
            self.heap[0] = cand;
            self.sift_down();
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if rank(&self.heap[i], &self.heap[parent]) == Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self) {
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut worst = left;
            if right < len && rank(&self.heap[right], &self.heap[left]) == Ordering::Greater {
                worst = right;
            }
            if rank(&self.heap[worst], &self.heap[i]) == Ordering::Greater {
                self.heap.swap(i, worst);
                i = worst;
            } else {
                break;
            }
        }
    }

    /// Kept candidates, best-first (deterministic under [`rank`]).
    pub(crate) fn into_sorted(mut self) -> Vec<(f64, VertexId)> {
        self.heap.sort_unstable_by(rank);
        self.heap
    }
}

pub(crate) fn row_norms(m: &DenseMatrix) -> Vec<f64> {
    let mut norms = vec![0.0; m.rows()];
    par::map(&mut norms, par::min_len_for(m.cols()), |i| {
        vecops::norm(m.row(i))
    });
    norms
}

/// The shared blocked similarity sweep: visits every `(query, target)`
/// pair exactly once, target-ascending within each query, with the
/// cosine similarity computed from tiled dot products and precomputed
/// row norms. `init(q)` builds the per-query fold state; the returned
/// states are in query order.
///
/// Records into the current registry: the sweep's `2·nq·nt·d`
/// `linalg.gemm.flops` (its dot tiles record none), the
/// `sparsify.knn.tiles` it computed, and one
/// `sparsify.knn.block_seconds` sample per query block.
pub(crate) fn sweep_similarity<S, I, V>(
    queries: &DenseMatrix,
    targets: &DenseMatrix,
    init: I,
    visit: V,
) -> Vec<S>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    V: Fn(&mut S, usize, f64) + Sync,
{
    assert_eq!(
        queries.cols(),
        targets.cols(),
        "embedding dimension mismatch"
    );
    let (nq, nt) = (queries.rows(), targets.rows());
    let qnorms = row_norms(queries);
    let tnorms = row_norms(targets);
    let packed = gemm::pack_rows(targets);
    let reg = cualign_telemetry::current();
    reg.counter("linalg.gemm.flops")
        .add(2 * (nq * nt * queries.cols()) as u64);
    let (tile_count, block_seconds) = (
        reg.counter("sparsify.knn.tiles"),
        reg.histogram("sparsify.knn.block_seconds"),
    );
    let block_work = QUERY_BLOCK * nt * queries.cols();
    par::flat_map(
        nq.div_ceil(QUERY_BLOCK),
        par::min_len_for(block_work),
        |qb, out| {
            let started = Instant::now();
            let q0 = qb * QUERY_BLOCK;
            let q1 = (q0 + QUERY_BLOCK).min(nq);
            let mut states: Vec<S> = (q0..q1).map(&init).collect();
            let mut tile = vec![0.0f64; (q1 - q0) * TARGET_BLOCK.min(nt.max(1))];
            let mut tiles = 0u64;
            let mut t0 = 0;
            while t0 < nt {
                let t1 = (t0 + TARGET_BLOCK).min(nt);
                let tw = t1 - t0;
                gemm::dot_block(
                    queries,
                    q0,
                    q1,
                    &packed,
                    t0,
                    t1,
                    &mut tile[..(q1 - q0) * tw],
                );
                tiles += 1;
                for (qi, state) in states.iter_mut().enumerate() {
                    let qn = qnorms[q0 + qi];
                    let row = &tile[qi * tw..(qi + 1) * tw];
                    for (ti, &dp) in row.iter().enumerate() {
                        let tn = tnorms[t0 + ti];
                        let sim = if qn == 0.0 || tn == 0.0 {
                            0.0
                        } else {
                            (dp / (qn * tn)).clamp(-1.0, 1.0)
                        };
                        visit(state, t0 + ti, sim);
                    }
                }
                t0 = t1;
            }
            tile_count.add(tiles);
            block_seconds.record(started.elapsed().as_secs_f64());
            out.extend(states);
        },
    )
}

/// Returns `(a, b, weight)` triples for the `k` nearest cross-graph
/// neighbors of every vertex on the querying side, with
/// `weight = (1 + cosine)/2 ∈ (0, 1]`.
///
/// Ties in similarity break toward the smaller target id, making the
/// candidate set deterministic; per query, triples come out best-first.
/// Output is bit-identical (same pairs, same weights) to the seed
/// [`knn_candidates_reference`] sweep.
pub fn knn_candidates(
    ya: &DenseMatrix,
    yb: &DenseMatrix,
    k: usize,
    direction: KnnDirection,
) -> Vec<(VertexId, VertexId, f64)> {
    assert!(k > 0, "k must be positive");
    assert_eq!(ya.cols(), yb.cols(), "embedding dimension mismatch");
    let (queries, targets) = match direction {
        KnnDirection::AtoB => (ya, yb),
        KnnDirection::BtoA => (yb, ya),
    };
    let (nq, nt) = (queries.rows(), targets.rows());
    let keep = k.min(nt);

    let states = sweep_similarity(
        queries,
        targets,
        |_| TopK::new(keep),
        |state, t, sim| state.push(sim, t as VertexId),
    );
    let mut triples = Vec::with_capacity(nq * keep);
    for (q, state) in states.into_iter().enumerate() {
        for (sim, t) in state.into_sorted() {
            let w = (1.0 + sim) / 2.0;
            // Clamp away a potential exact zero for antipodal rows;
            // downstream matchers require strictly positive weights.
            let w = w.max(f64::MIN_POSITIVE);
            triples.push(match direction {
                KnnDirection::AtoB => (q as VertexId, t, w),
                KnnDirection::BtoA => (t, q as VertexId, w),
            });
        }
    }
    let reg = cualign_telemetry::current();
    reg.counter("sparsify.candidates_scanned")
        .add((nq * nt) as u64);
    reg.counter("sparsify.candidates_kept")
        .add(triples.len() as u64);
    triples
}

/// The seed kNN kernel: parallel per query, one `cosine_similarity` call
/// per pair (both norms recomputed every time), partial selection of the
/// top `keep`. Kept as the reference the blocked sweep is pinned against
/// in `tests/prop_knn.rs` and timed against in `bench_knn`; not
/// instrumented.
pub fn knn_candidates_reference(
    ya: &DenseMatrix,
    yb: &DenseMatrix,
    k: usize,
    direction: KnnDirection,
) -> Vec<(VertexId, VertexId, f64)> {
    assert!(k > 0, "k must be positive");
    assert_eq!(ya.cols(), yb.cols(), "embedding dimension mismatch");
    let (queries, targets) = match direction {
        KnnDirection::AtoB => (ya, yb),
        KnnDirection::BtoA => (yb, ya),
    };
    let nq = queries.rows();
    let nt = targets.rows();
    let keep = k.min(nt);

    par::flat_map(nq, par::min_len_for(nt * queries.cols()), |q, out| {
        // Score all targets, then partial-select the top `keep`.
        let qrow = queries.row(q);
        let mut scored: Vec<(f64, usize)> = (0..nt)
            .map(|t| (vecops::cosine_similarity(qrow, targets.row(t)), t))
            .collect();
        // Descending similarity, ascending id on ties.
        scored.select_nth_unstable_by(keep - 1, |x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        scored.truncate(keep);
        out.extend(scored.into_iter().map(|(sim, t)| {
            let w = (1.0 + sim) / 2.0;
            let w = w.max(f64::MIN_POSITIVE);
            match direction {
                KnnDirection::AtoB => (q as VertexId, t as VertexId, w),
                KnnDirection::BtoA => (t as VertexId, q as VertexId, w),
            }
        }));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis_embeddings() -> (DenseMatrix, DenseMatrix) {
        // A rows: e0, e1, e2. B rows: e1, e0, e2 (swapped first two).
        let ya = DenseMatrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let yb = DenseMatrix::from_vec(3, 3, vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        (ya, yb)
    }

    #[test]
    fn finds_exact_matches_first() {
        let (ya, yb) = axis_embeddings();
        let cands = knn_candidates(&ya, &yb, 1, KnnDirection::AtoB);
        // A0 (e0) ↦ B1, A1 (e1) ↦ B0, A2 ↦ B2.
        let mut pairs: Vec<(u32, u32)> = cands.iter().map(|&(a, b, _)| (a, b)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (2, 2)]);
        for &(_, _, w) in &cands {
            assert!((w - 1.0).abs() < 1e-12, "perfect match weight should be 1");
        }
    }

    #[test]
    fn direction_flips_roles() {
        let (ya, yb) = axis_embeddings();
        let ab = knn_candidates(&ya, &yb, 1, KnnDirection::AtoB);
        let ba = knn_candidates(&ya, &yb, 1, KnnDirection::BtoA);
        // Both directions emit (a, b) ordered triples; for this symmetric
        // instance the pair sets coincide.
        let norm = |v: &[(u32, u32, f64)]| {
            let mut p: Vec<(u32, u32)> = v.iter().map(|&(a, b, _)| (a, b)).collect();
            p.sort_unstable();
            p
        };
        assert_eq!(norm(&ab), norm(&ba));
    }

    #[test]
    fn k_is_respected() {
        let (ya, yb) = axis_embeddings();
        let cands = knn_candidates(&ya, &yb, 2, KnnDirection::AtoB);
        assert_eq!(cands.len(), 6);
        let all = knn_candidates(&ya, &yb, 99, KnnDirection::AtoB);
        assert_eq!(all.len(), 9, "k larger than n keeps everything");
    }

    #[test]
    fn weights_strictly_positive_even_antipodal() {
        let ya = DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let yb = DenseMatrix::from_vec(1, 2, vec![-1.0, 0.0]);
        let cands = knn_candidates(&ya, &yb, 1, KnnDirection::AtoB);
        assert!(cands[0].2 > 0.0);
    }

    #[test]
    fn tie_break_prefers_smaller_id() {
        // Two identical B rows: the smaller id must be ranked first.
        let ya = DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let yb = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let cands = knn_candidates(&ya, &yb, 1, KnnDirection::AtoB);
        assert_eq!(cands[0].1, 0);
    }

    #[test]
    fn per_query_output_is_best_first() {
        let ya = DenseMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let yb = DenseMatrix::from_vec(
            3,
            2,
            vec![
                0.0,
                1.0,
                1.0,
                0.0,
                std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
            ],
        );
        let cands = knn_candidates(&ya, &yb, 3, KnnDirection::AtoB);
        let order: Vec<u32> = cands.iter().map(|&(_, b, _)| b).collect();
        assert_eq!(order, vec![1, 2, 0], "descending similarity per query");
    }

    #[test]
    fn zero_rows_score_zero_like_cosine() {
        // A zero query row: the seed path returns cosine 0 for every
        // target, so weights are exactly 0.5 and ids break ties.
        let ya = DenseMatrix::from_vec(1, 2, vec![0.0, 0.0]);
        let yb = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let blocked = knn_candidates(&ya, &yb, 2, KnnDirection::AtoB);
        let reference = knn_candidates_reference(&ya, &yb, 2, KnnDirection::AtoB);
        assert_eq!(blocked, reference);
        assert!(blocked.iter().all(|&(_, _, w)| w == 0.5));
    }

    #[test]
    fn one_call_records_its_sweep_in_the_callers_registry() {
        use cualign_rt::Rng;
        use cualign_telemetry::{with_registry, Registry};
        // More queries than a query block and targets than a tile, so
        // the sweep runs several dot tiles on several parallel items.
        let (nq, nt, d) = (70, 600, 5);
        let mut rng = Rng::new(5);
        let ya = DenseMatrix::gaussian(nq, d, &mut rng);
        let yb = DenseMatrix::gaussian(nt, d, &mut rng);
        let reg: &'static Registry = Box::leak(Box::new(Registry::new()));
        with_registry(reg, || knn_candidates(&ya, &yb, 3, KnnDirection::AtoB));
        let counters = reg.snapshot().counters;
        assert_eq!(counters["linalg.gemm.flops"], (2 * nq * nt * d) as u64);
        assert_eq!(counters["sparsify.candidates_scanned"], (nq * nt) as u64);
        assert_eq!(counters["sparsify.candidates_kept"], (nq * 3) as u64);
        let tiles = nq.div_ceil(QUERY_BLOCK) * nt.div_ceil(TARGET_BLOCK);
        assert_eq!(counters["sparsify.knn.tiles"], tiles as u64);
    }
}
