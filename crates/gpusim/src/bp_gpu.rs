//! GPU cost model of the belief-propagation phase.
//!
//! [`simulate_bp`] runs the reference [`BpEngine`] for the numerics and
//! charges each of Algorithm 2's kernels against a [`DeviceSpec`] using the
//! run's *real* sparsity structure. Since the sweeps moved onto
//! `linalg::sparse`, the CSR-shaped kernels are charged per **merge
//! chunk** (equal-nnz work items from the same [`MergePlan`] the CPU
//! path uses, [`MERGE_CHUNK_NNZ`] nonzeros each) instead of per row:
//! lane-slot and transaction accounting then reflects the balanced
//! distribution, and skewed degrees no longer produce a hub-row
//! critical-path tail — the point of merge-path balancing:
//!
//! | kernel | work items | size | access pattern |
//! |---|---|---|---|
//! | fused `F`+`dᶜ` (Listing 1) | merge chunks of `S` | chunk nnz | `Sᵖ[perm[j]]` scattered, `F`/`dᶜ` coalesced |
//! | straddle fixup | straddle rows of `S` | row degree | serial re-sum of chunk-crossing rows |
//! | unfused `F` then `dᶜ` (§5 ablation only) | merge chunks of `S` ×2 | chunk nnz | same + re-reads `F` |
//! | othermaxcol (positional) | merge chunks of B-side CSR | chunk nnz | b_eids indirection → scattered reads, coalesced scratch |
//! | gather + damp → `yᶜ`/`yᵖ` | edges | 1 | positional scratch scattered, rest coalesced |
//! | othermaxrow + `zᶜ`/`zᵖ` tail | merge chunks of A-side CSR | chunk nnz | canonical edge order → coalesced (`exclusion_max_apply`) |
//! | `Sᶜ` update + `Sᵖ` damp | merge chunks of `S` | chunk nnz | coalesced |
//!
//! The othermax / damping family mirrors the engine's fused tail: the
//! A-side exclusion writes the damped `zᶜ`/`zᵖ` in place (side-A
//! positions are edge ids), the B-side exclusion materializes its
//! positional scratch and one gather pass produces the damped
//! `yᶜ`/`yᵖ`, and the `Sᶜ` row update damps `Sᵖ` as it goes — no
//! standalone damping kernels remain.
//!
//! [`model_bp_iteration`] charges one iteration without running numerics,
//! so device sweeps don't pay for repeated BP runs.

use crate::device::DeviceSpec;
use crate::exec::{simulate_launch, ExecConfig, LaunchStats};
use crate::footprint::Footprint;
use cualign_bp::{BpConfig, BpEngine, BpOutcome};
use cualign_graph::{BipartiteGraph, VertexId};
use cualign_linalg::sparse::MergePlan;
use cualign_overlap::OverlapMatrix;

/// Nonzeros per merge chunk charged to the modeled CSR kernels. 256 f64
/// messages fill eight 32-lane strips — deep enough to amortize the
/// chunk's binary-search setup, small enough that a hot row spreads over
/// many chunks.
pub const MERGE_CHUNK_NNZ: usize = 256;

/// Timing report for a BP phase under one device model.
#[derive(Clone, Debug)]
pub struct BpGpuReport {
    /// Modeled seconds for the whole phase (`iters` iterations, matching
    /// excluded — Table 2 reports it separately).
    pub seconds: f64,
    /// Per-kernel modeled seconds per iteration, `(name, seconds)`.
    pub per_kernel: Vec<(&'static str, f64)>,
    /// Iterations charged.
    pub iterations: usize,
    /// Total modeled DRAM bytes per iteration.
    pub bytes_per_iteration: u64,
    /// Idle-lane fraction across the iteration's kernels.
    pub idle_fraction: f64,
}

/// Work distribution of one merge-balanced kernel: per-chunk nnz spans
/// (the launch's work items), the amortized owned-row count per chunk
/// (row-indexed loads/stores are spread evenly by construction), and the
/// straddle rows' full degrees (the serial re-sum fixup pass).
struct MergeModel {
    chunk_sizes: Vec<usize>,
    rows_per_chunk: usize,
    straddle_sizes: Vec<usize>,
}

fn merge_model(offsets: &[usize]) -> MergeModel {
    let plan = MergePlan::with_chunk_nnz(offsets, MERGE_CHUNK_NNZ);
    let chunk_sizes: Vec<usize> = plan.chunks().iter().map(|c| c.end - c.begin).collect();
    let rows = offsets.len() - 1;
    let rows_per_chunk = rows.div_ceil(chunk_sizes.len().max(1)).max(1);
    let straddle_sizes = plan
        .straddle_rows()
        .iter()
        .map(|&r| offsets[r + 1] - offsets[r])
        .collect();
    MergeModel {
        chunk_sizes,
        rows_per_chunk,
        straddle_sizes,
    }
}

fn side_offsets_a(l: &BipartiteGraph) -> Vec<usize> {
    let mut off = Vec::with_capacity(l.na() + 1);
    off.push(0);
    for a in 0..l.na() {
        off.push(off[a] + l.degree_a(a as VertexId));
    }
    off
}

fn side_offsets_b(l: &BipartiteGraph) -> Vec<usize> {
    let mut off = Vec::with_capacity(l.nb() + 1);
    off.push(0);
    for b in 0..l.nb() {
        off.push(off[b] + l.degree_b(b as VertexId));
    }
    off
}

/// Charges one BP iteration's kernels. Returns `(per-kernel stats,
/// seconds)`. `fused: false` charges the §5 unfused `F`/`dᶜ` pair the
/// ablation compares against; the CPU engine runs only the fused form.
pub fn model_bp_iteration(
    l: &BipartiteGraph,
    s: &OverlapMatrix,
    fused: bool,
    device: &DeviceSpec,
    exec: &ExecConfig,
) -> (Vec<(&'static str, LaunchStats)>, f64) {
    let ms = merge_model(s.row_offsets());
    let ma = merge_model(&side_offsets_a(l));
    let mb = merge_model(&side_offsets_b(l));
    let rpc = ms.rows_per_chunk;
    let mut kernels: Vec<(&'static str, LaunchStats)> = Vec::new();

    if fused {
        // Listing 1 over merge chunks: one pass reads Sᵖ via perm
        // (scattered), writes F, reduces into dᶜ. Row-indexed traffic
        // (`w[row]`, `dc[row]`) amortizes to `rpc` elements per chunk.
        kernels.push((
            "fused_f_dc",
            simulate_launch(device, exec, &ms.chunk_sizes, |sz| Footprint {
                contiguous_reads: rpc,       // w[row] per owned row
                scattered_reads: sz,         // sp[perm[j]]
                contiguous_writes: sz + rpc, // F span + dc[row]
                scattered_writes: 0,
                flops: 3 * sz + 2 * rpc,
            }),
        ));
        // Rows crossing interior chunk boundaries are re-summed serially
        // from the materialized F values to keep the FP chain exact.
        if !ms.straddle_sizes.is_empty() {
            kernels.push((
                "merge_fixup",
                simulate_launch(device, exec, &ms.straddle_sizes, |sz| Footprint {
                    contiguous_reads: sz + 1,
                    contiguous_writes: 1,
                    flops: sz + 1,
                    ..Default::default()
                }),
            ));
        }
    } else {
        kernels.push((
            "unfused_f",
            simulate_launch(device, exec, &ms.chunk_sizes, |sz| Footprint {
                scattered_reads: sz,
                contiguous_writes: sz,
                flops: 2 * sz,
                ..Default::default()
            }),
        ));
        // Row reduction walks whole owned rows (straddle rows read past
        // the chunk boundary), so no fixup launch is charged here.
        kernels.push((
            "unfused_dc",
            simulate_launch(device, exec, &ms.chunk_sizes, |sz| Footprint {
                contiguous_reads: sz + rpc, // re-read F + w[row]
                contiguous_writes: rpc,
                flops: sz + 2 * rpc,
                ..Default::default()
            }),
        ));
    }

    // othermaxcol over zᵖ into the positional B-side scratch: the
    // message loads go through the b_eids indirection (scattered), the
    // scratch writes are coalesced.
    kernels.push((
        "othermax_col",
        simulate_launch(device, exec, &mb.chunk_sizes, |sz| Footprint {
            scattered_reads: sz,   // zp[eid]
            contiguous_writes: sz, // positional scratch
            flops: 2 * sz,
            ..Default::default()
        }),
    ));
    // Fused gather + damp: yᶜ = dᶜ − scratch[pos], yᵖ = γ·yᶜ + (1−γ)·yᵖ
    // per edge — the scratch read is the only scattered access.
    let m_edges = vec![1usize; l.num_edges()];
    kernels.push((
        "gather_damp_yc_yp",
        simulate_launch(device, exec, &m_edges, |_| Footprint {
            contiguous_reads: 3,  // pos, dc, yp
            scattered_reads: 1,   // scratch[pos]
            contiguous_writes: 2, // yc, yp
            flops: 4,
            ..Default::default()
        }),
    ));
    // othermaxrow over yᵖ fused with its whole tail
    // (`sparse::exclusion_max_apply`): A-side rows are the canonical
    // edge order — coalesced (the asymmetry the paper's Listing 2
    // exploits) — so the exclusion writes the damped `zᶜ`/`zᵖ` directly
    // with no positional scratch round-trip.
    kernels.push((
        "othermax_row_zc_zp",
        simulate_launch(device, exec, &ma.chunk_sizes, |sz| Footprint {
            contiguous_reads: 3 * sz,  // yp, dc, zp
            contiguous_writes: 2 * sz, // zc, zp
            flops: 6 * sz,
            ..Default::default()
        }),
    ));
    // Sᶜ = diag(yᶜ+zᶜ−dᶜ)·S − F fused with the Sᵖ damp:
    // Sᵖ' = γ·Sᶜ + (1−γ)·Sᵖ written in one row-scaled pass.
    kernels.push((
        "sc_update_damp_sp",
        simulate_launch(device, exec, &ms.chunk_sizes, |sz| Footprint {
            contiguous_reads: 2 * sz + 3 * rpc, // F, Sᵖ + yc/zc/dc per row
            contiguous_writes: sz,
            flops: 4 * sz + 2 * rpc,
            ..Default::default()
        }),
    ));

    let seconds = kernels.iter().map(|(_, st)| st.seconds).sum();
    (kernels, seconds)
}

/// Runs BP (reference numerics) and models the phase's time on `device`.
///
/// Returns the outcome together with the [`BpGpuReport`]. The report
/// charges `cfg.max_iters` iterations of the kernel family above;
/// rounding/matching time is reported by
/// [`crate::match_gpu::simulate_matching`].
pub fn simulate_bp(
    l: &BipartiteGraph,
    s: &OverlapMatrix,
    cfg: &BpConfig,
    device: &DeviceSpec,
    exec: &ExecConfig,
) -> (BpOutcome, BpGpuReport) {
    let outcome = BpEngine::new(l, s, cfg).run();
    let report = model_bp_phase(l, s, cfg, device, exec);
    (outcome, report)
}

/// Models the BP phase time without running numerics, charging the
/// fused pipeline the engine runs.
pub fn model_bp_phase(
    l: &BipartiteGraph,
    s: &OverlapMatrix,
    cfg: &BpConfig,
    device: &DeviceSpec,
    exec: &ExecConfig,
) -> BpGpuReport {
    let (kernels, per_iter_seconds) = model_bp_iteration(l, s, true, device, exec);
    let bytes: u64 = kernels.iter().map(|(_, st)| st.bytes(device)).sum();
    let active: u64 = kernels.iter().map(|(_, st)| st.active_lane_slots()).sum();
    let idle: u64 = kernels.iter().map(|(_, st)| st.idle_lane_slots()).sum();
    BpGpuReport {
        seconds: per_iter_seconds * cfg.max_iters as f64,
        per_kernel: kernels
            .iter()
            .map(|(name, st)| (*name, st.seconds))
            .collect(),
        iterations: cfg.max_iters,
        bytes_per_iteration: bytes,
        idle_fraction: if active + idle == 0 {
            0.0
        } else {
            idle as f64 / (active + idle) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::Permutation;
    use cualign_rt::Rng;

    fn instance(n: usize, seed: u64) -> (BipartiteGraph, OverlapMatrix) {
        let mut rng = Rng::new(seed);
        let a = erdos_renyi_gnm(n, n * 3, &mut rng);
        let p = Permutation::random(n, &mut rng);
        let b = p.apply_to_graph(&a);
        let mut triples = Vec::new();
        for i in 0..n as VertexId {
            triples.push((i, p.apply(i), 0.5));
            for _ in 0..9 {
                triples.push((i, rng.below(n) as VertexId, 0.5));
            }
        }
        let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        (l, s)
    }

    #[test]
    fn fusion_reduces_traffic_and_time() {
        let (l, s) = instance(60, 1);
        let gpu = DeviceSpec::a100();
        let exec = ExecConfig::optimized();
        let (fused_k, fused_s) = model_bp_iteration(&l, &s, true, &gpu, &exec);
        let (unfused_k, unfused_s) = model_bp_iteration(&l, &s, false, &gpu, &exec);
        assert!(fused_s < unfused_s, "fused {fused_s} ≥ unfused {unfused_s}");
        let bytes = |k: &[(&str, LaunchStats)]| k.iter().map(|(_, st)| st.bytes(&gpu)).sum::<u64>();
        assert!(bytes(&fused_k) < bytes(&unfused_k));
    }

    #[test]
    fn gpu_faster_than_cpu_on_bp() {
        // Needs a real-scale structure: below ~10⁵ L-edges the GPU's launch
        // overhead dominates and the CPU wins — the same size effect the
        // paper's Synthetic_4000 row shows (5× vs 19× on the large inputs).
        let (l, s) = instance(6000, 2);
        let exec = ExecConfig::optimized();
        let cfg = BpConfig::default();
        let g = model_bp_phase(&l, &s, &cfg, &DeviceSpec::a100(), &exec);
        let c = model_bp_phase(&l, &s, &cfg, &DeviceSpec::epyc7702p(), &exec);
        let speedup = c.seconds / g.seconds;
        assert!(speedup > 2.0, "BP speedup only {speedup}");
    }

    #[test]
    fn tiny_instances_do_not_benefit_much() {
        // The flip side of the size effect above.
        let (l, s) = instance(60, 7);
        let exec = ExecConfig::optimized();
        let cfg = BpConfig::default();
        let g = model_bp_phase(&l, &s, &cfg, &DeviceSpec::a100(), &exec);
        let c = model_bp_phase(&l, &s, &cfg, &DeviceSpec::epyc7702p(), &exec);
        assert!(c.seconds / g.seconds < 4.0);
    }

    #[test]
    fn simulate_bp_numerics_match_reference() {
        let (l, s) = instance(40, 3);
        let cfg = BpConfig {
            max_iters: 8,
            ..Default::default()
        };
        let (out_sim, report) =
            simulate_bp(&l, &s, &cfg, &DeviceSpec::a100(), &ExecConfig::optimized());
        let out_ref = BpEngine::new(&l, &s, &cfg).run();
        assert_eq!(out_sim.best_score, out_ref.best_score);
        assert_eq!(out_sim.best_matching, out_ref.best_matching);
        assert!(report.seconds > 0.0);
        assert_eq!(report.iterations, 8);
    }

    /// Hub-skewed instance: one vertex pairs with everything, so `S` gets
    /// a dominant hot row. Charging per merge chunk must waste fewer lane
    /// slots and model less time than charging the same footprint per
    /// row, and the straddle fixup kernel must appear.
    #[test]
    fn merge_chunks_balance_skewed_rows() {
        let n = 400usize;
        let mut rng = Rng::new(21);
        let a = erdos_renyi_gnm(n, n * 3, &mut rng);
        let p = Permutation::random(n, &mut rng);
        let b = p.apply_to_graph(&a);
        let mut triples = Vec::new();
        for i in 0..n as VertexId {
            triples.push((i, p.apply(i), 0.5));
            triples.push((0, i, 0.5));
            triples.push((i, 0, 0.5));
        }
        let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
        let s = OverlapMatrix::build(&a, &b, &l);
        let gpu = DeviceSpec::a100();
        let exec = ExecConfig::optimized();

        let (kernels, _) = model_bp_iteration(&l, &s, true, &gpu, &exec);
        let names: Vec<&str> = kernels.iter().map(|(n, _)| *n).collect();
        assert!(
            names.contains(&"merge_fixup"),
            "skewed S must have straddle rows to fix up"
        );
        let chunked = &kernels
            .iter()
            .find(|(n, _)| *n == "fused_f_dc")
            .expect("fused kernel present")
            .1;
        // The same footprint charged per row of S: the hub row serializes.
        let rows: Vec<usize> = (0..s.num_rows()).map(|e| s.row_degree(e as u32)).collect();
        let per_row = simulate_launch(&gpu, &exec, &rows, |sz| Footprint {
            contiguous_reads: 1,
            scattered_reads: sz,
            contiguous_writes: sz + 1,
            scattered_writes: 0,
            flops: 3 * sz + 2,
        });
        assert!(
            chunked.idle_fraction() <= per_row.idle_fraction() + 1e-12,
            "chunked idle {} > per-row idle {}",
            chunked.idle_fraction(),
            per_row.idle_fraction()
        );
        assert!(
            chunked.seconds < per_row.seconds,
            "chunked {} ≥ per-row {}",
            chunked.seconds,
            per_row.seconds
        );
    }

    #[test]
    fn report_kernels_cover_pipeline() {
        let (l, s) = instance(30, 4);
        let r = model_bp_phase(
            &l,
            &s,
            &BpConfig::default(),
            &DeviceSpec::a100(),
            &ExecConfig::optimized(),
        );
        let names: Vec<&str> = r.per_kernel.iter().map(|(n, _)| *n).collect();
        for expected in [
            "fused_f_dc",
            "othermax_col",
            "gather_damp_yc_yp",
            "othermax_row_zc_zp",
            "sc_update_damp_sp",
        ] {
            assert!(names.contains(&expected), "missing kernel {expected}");
        }
    }
}
