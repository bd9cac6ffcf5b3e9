//! GPU cost model of the overlap-matrix construction (Algorithm 3).
//!
//! The paper singles this kernel out for its **shared-memory**
//! optimization: "in Algorithm 3 each neighbor of a given vertex is
//! accessed multiple times. Hence we keep them in shared memory." The
//! model exposes that choice:
//!
//! * without shared memory, the inner loop re-reads `v`'s B-neighborhood
//!   once per A-neighbor: `deg_A(u) · deg_B(v)` scattered loads per edge
//!   of `L`;
//! * with shared memory, each neighborhood is staged once
//!   (`deg_A(u) + deg_B(v)` loads) and the quadratic pass runs from
//!   on-chip storage.
//!
//! The build is modeled as the same **two-phase** pass the CPU
//! implementation now runs: a *count* launch over the edges of `L`
//! (sized by candidate-pair count), a prefix-scan over the row counts,
//! and a *fill* launch charged per **merge chunk** of the output CSR
//! (equal-nnz work items, [`MERGE_CHUNK_NNZ`] apiece), so lane-slot and
//! transaction accounting reflects the balanced fill distribution even
//! when a hub edge owns most of a row.

use crate::bp_gpu::MERGE_CHUNK_NNZ;
use crate::device::DeviceSpec;
use crate::exec::{simulate_launch, ExecConfig, LaunchStats};
use crate::footprint::Footprint;
use cualign_graph::{BipartiteGraph, CsrGraph};
use cualign_linalg::sparse::MergePlan;
use cualign_overlap::OverlapMatrix;

/// Modeled cost of building `S` on `device`.
#[derive(Clone, Debug)]
pub struct OverlapBuildReport {
    /// Modeled seconds (all phases).
    pub seconds: f64,
    /// Per-phase launch statistics: `overlap_count`, `overlap_offsets`,
    /// `overlap_fill`.
    pub phases: Vec<(&'static str, LaunchStats)>,
    /// Whether the shared-memory staging was modeled.
    pub shared_memory: bool,
}

impl OverlapBuildReport {
    /// Total modeled memory transactions across phases.
    pub fn transactions(&self) -> u64 {
        self.phases.iter().map(|(_, st)| st.transactions()).sum()
    }

    /// Total idle-lane fraction across phases.
    pub fn idle_fraction(&self) -> f64 {
        let a: u64 = self.phases.iter().map(|(_, s)| s.active_lane_slots()).sum();
        let i: u64 = self.phases.iter().map(|(_, s)| s.idle_lane_slots()).sum();
        if a + i == 0 {
            0.0
        } else {
            i as f64 / (a + i) as f64
        }
    }
}

/// Per-edge work sizes: `deg_A(u) · deg_B(v)` candidate pairs.
fn pair_counts(a: &CsrGraph, b: &CsrGraph, l: &BipartiteGraph) -> Vec<usize> {
    l.edges()
        .iter()
        .map(|le| a.degree(le.a) * b.degree(le.b))
        .collect()
}

/// Inverse hit ratio assumed by the model: one in `HIT_RATIO` candidate
/// pairs is an actual square (a surviving nonzero of `S`).
const HIT_RATIO: usize = 8;

/// Models the two-phase Algorithm-3 build. The per-item footprint depends
/// on `shared_memory`; the lookup of `(u', v') ∈ E_L` is charged as one
/// scattered read per candidate pair either way (a hashed/binary probe of
/// global memory).
pub fn model_overlap_build(
    a: &CsrGraph,
    b: &CsrGraph,
    l: &BipartiteGraph,
    device: &DeviceSpec,
    exec: &ExecConfig,
    shared_memory: bool,
) -> OverlapBuildReport {
    let sizes = pair_counts(a, b, l);
    // Average neighborhood split per item: size = dA·dB; staging cost is
    // dA + dB ≈ 2·√size for the model (exact split is irrelevant at the
    // fidelity of a footprint model).
    let staged = |sz: usize| (2.0 * (sz.max(1) as f64).sqrt()).ceil() as usize;

    // Phase 1 — count: traverse the candidate pairs, write one row count
    // per edge, no column output.
    let count = simulate_launch(device, exec, &sizes, move |sz| {
        if shared_memory {
            Footprint {
                contiguous_reads: staged(sz), // one pass over each adjacency list
                scattered_reads: sz,          // the E_L membership probes
                contiguous_writes: 1,         // row_counts[e]
                flops: 2 * sz,
                ..Default::default()
            }
        } else {
            Footprint {
                // Re-read the B adjacency per A-neighbor, plus the probes.
                scattered_reads: 2 * sz,
                contiguous_writes: 1,
                flops: 2 * sz,
                ..Default::default()
            }
        }
    });

    // Prefix scan of the m row counts into row offsets.
    let scan_sizes = vec![1usize; l.num_edges()];
    let offsets_scan = simulate_launch(device, exec, &scan_sizes, |_| Footprint {
        contiguous_reads: 1,
        contiguous_writes: 1,
        flops: 1,
        ..Default::default()
    });

    // Phase 2 — fill: charged per merge chunk of the (estimated) output
    // CSR. Each chunk re-traverses the pairs that produced its nonzeros
    // and writes its column span plus the transpose permutation.
    let mut est_offsets = Vec::with_capacity(sizes.len() + 1);
    est_offsets.push(0usize);
    for &sz in &sizes {
        est_offsets.push(est_offsets.last().copied().unwrap_or(0) + sz / HIT_RATIO);
    }
    let plan = MergePlan::with_chunk_nnz(&est_offsets, MERGE_CHUNK_NNZ);
    let fill_sizes: Vec<usize> = plan.chunks().iter().map(|c| c.end - c.begin).collect();
    let fill = simulate_launch(device, exec, &fill_sizes, move |nnz| {
        let pairs = nnz * HIT_RATIO;
        if shared_memory {
            Footprint {
                contiguous_reads: staged(pairs),
                scattered_reads: pairs + nnz, // probes + transpose binary search
                contiguous_writes: 2 * nnz,   // col_idx span + transpose_perm
                flops: 2 * pairs,
                ..Default::default()
            }
        } else {
            Footprint {
                scattered_reads: 2 * pairs + nnz,
                contiguous_writes: 2 * nnz,
                flops: 2 * pairs,
                ..Default::default()
            }
        }
    });

    let phases = vec![
        ("overlap_count", count),
        ("overlap_offsets", offsets_scan),
        ("overlap_fill", fill),
    ];
    OverlapBuildReport {
        seconds: phases.iter().map(|(_, st)| st.seconds).sum(),
        phases,
        shared_memory,
    }
}

/// Builds `S` functionally (reference implementation) and models the
/// kernel on `device` with shared memory on.
pub fn simulate_overlap_build(
    a: &CsrGraph,
    b: &CsrGraph,
    l: &BipartiteGraph,
    device: &DeviceSpec,
    exec: &ExecConfig,
) -> (OverlapMatrix, OverlapBuildReport) {
    let s = OverlapMatrix::build(a, b, l);
    let report = model_overlap_build(a, b, l, device, exec, true);
    (s, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::barabasi_albert;
    use cualign_graph::{Permutation, VertexId};
    use cualign_rt::Rng;

    fn instance(n: usize, seed: u64) -> (CsrGraph, CsrGraph, BipartiteGraph) {
        let mut rng = Rng::new(seed);
        let a = barabasi_albert(n, 3, &mut rng);
        let p = Permutation::random(n, &mut rng);
        let b = p.apply_to_graph(&a);
        let mut triples = Vec::new();
        for i in 0..n as VertexId {
            triples.push((i, p.apply(i), 0.5));
            for _ in 0..5 {
                triples.push((i, rng.below(n) as VertexId, 0.5));
            }
        }
        let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
        (a, b, l)
    }

    #[test]
    fn shared_memory_reduces_modeled_time() {
        let (a, b, l) = instance(800, 1);
        let gpu = DeviceSpec::a100();
        let with = model_overlap_build(&a, &b, &l, &gpu, &ExecConfig::optimized(), true);
        let without = model_overlap_build(&a, &b, &l, &gpu, &ExecConfig::optimized(), false);
        assert!(
            with.seconds < without.seconds,
            "shared memory did not help: {} vs {}",
            with.seconds,
            without.seconds
        );
        assert!(with.transactions() < without.transactions());
    }

    /// The fill phase's merge chunks are equal-nnz work items: on a
    /// hub-skewed candidate set they must waste fewer lane slots than the
    /// per-edge count phase, and the phase set must cover count → scan →
    /// fill.
    #[test]
    fn fill_phase_is_merge_balanced() {
        let (a, b, mut l) = instance(600, 5);
        // Skew: pair vertex 0 with everything, creating a hub edge whose
        // candidate-pair count dwarfs the rest.
        let n = 600;
        let mut triples: Vec<(VertexId, VertexId, f64)> =
            l.edges().iter().map(|e| (e.a, e.b, 0.5)).collect();
        for j in 0..n as VertexId {
            triples.push((0, j, 0.5));
        }
        l = BipartiteGraph::from_weighted_edges(n, n, &triples);
        let report = model_overlap_build(
            &a,
            &b,
            &l,
            &DeviceSpec::a100(),
            &ExecConfig::optimized(),
            true,
        );
        let names: Vec<&str> = report.phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["overlap_count", "overlap_offsets", "overlap_fill"]);
        let count = &report.phases[0].1;
        let fill = &report.phases[2].1;
        assert!(
            fill.idle_fraction() <= count.idle_fraction() + 1e-12,
            "fill idle {} > count idle {}",
            fill.idle_fraction(),
            count.idle_fraction()
        );
        assert!(report.transactions() > 0);
    }

    #[test]
    fn functional_result_is_reference() {
        let (a, b, l) = instance(100, 2);
        let (s, report) =
            simulate_overlap_build(&a, &b, &l, &DeviceSpec::a100(), &ExecConfig::optimized());
        let reference = OverlapMatrix::build(&a, &b, &l);
        assert_eq!(s.nnz(), reference.nnz());
        assert_eq!(s.row_offsets(), reference.row_offsets());
        assert!(report.seconds > 0.0);
        assert!(report.shared_memory);
    }

    #[test]
    fn gpu_outruns_cpu_on_large_builds() {
        let (a, b, l) = instance(3000, 3);
        let g = model_overlap_build(
            &a,
            &b,
            &l,
            &DeviceSpec::a100(),
            &ExecConfig::optimized(),
            true,
        );
        let c = model_overlap_build(
            &a,
            &b,
            &l,
            &DeviceSpec::epyc7702p(),
            &ExecConfig::naive(),
            true,
        );
        assert!(
            c.seconds > g.seconds,
            "cpu {} ≤ gpu {}",
            c.seconds,
            g.seconds
        );
    }
}
