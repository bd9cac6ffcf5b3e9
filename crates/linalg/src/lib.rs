//! # cualign-linalg
//!
//! Self-contained dense linear algebra for the cuAlign embedding and
//! subspace-alignment stages. No external BLAS/LAPACK: everything the
//! pipeline needs is implemented here —
//!
//! * [`DenseMatrix`] — row-major dense matrices whose products run on the
//!   tiled kernel below,
//! * [`gemm`] — the register-blocked, cache-tiled GEMM micro-kernel shared
//!   by every dense multiply and by the kNN block-similarity sweep
//!   (packed [`NR`](gemm::NR)-lane panels, 4×4 accumulator tiles, parallel
//!   over row blocks; bit-identical to the naive loops),
//! * [`qr`] — Householder QR and orthonormalization (the dominant cost of
//!   the spectral embedding's subspace iteration, and the randomized range
//!   finder; row-streaming, bitwise-pinned to a column-at-a-time reference),
//! * [`eig`] — symmetric eigendecomposition by Householder
//!   tridiagonalization and implicit-shift QL (the spectral embedder's
//!   Rayleigh–Ritz step), tolerance-pinned to a cyclic Jacobi reference,
//! * [`svd`] — one-sided Jacobi SVD started from the eigenvectors of
//!   `AᵀA` (the paper's Eq. 2 solver takes SVDs of small `d × d`
//!   cross-covariance matrices), tolerance-pinned to the identity-started
//!   sweeps,
//! * [`procrustes`] — the orthogonal-Procrustes rotation solver,
//! * [`sinkhorn`](mod@sinkhorn) — entropic optimal transport (the "Sinkhorn optimization"
//!   of §4.1) for soft correspondences between embeddings,
//! * [`sparse`] — GraphBLAST-style CSR kernels with merge-based row
//!   balancing: exactly the map/reduce and exclusion-max shapes the BP
//!   sweep composes, plus the merge plan the overlap build shares,
//!   bitwise-pinned to naive reference loops,
//! * [`vecops`] — embedding-vector kernels (dot, cosine similarity, row
//!   normalization).
//!
//! Accuracy targets are those of the alignment pipeline: embeddings are
//! `d ≤ 256` dimensional, so the `d × d` eigen- and singular value
//! factorizations are both fast and accurate to near machine precision.
//!
//! **Place in the pipeline** (paper Fig. 2): a leaf utility crate under
//! stage 1 — `cualign-embed` calls into it for every factorization and
//! transport solve of §4.1 (Eq. 2), and nothing downstream of the
//! embeddings touches it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod eig;
pub mod fastexp;
pub mod gemm;
pub mod procrustes;
pub mod qr;
pub mod sinkhorn;
pub mod sparse;
pub mod svd;
pub mod vecops;

pub use dense::DenseMatrix;
pub use fastexp::{exp_fast, EXP_UNDERFLOW};
pub use procrustes::orthogonal_procrustes;
pub use sinkhorn::{
    sinkhorn, sinkhorn_reference, sinkhorn_warm_with, sinkhorn_with, SinkhornOptions,
    SinkhornWorkspace, TransportPlan,
};
pub use sparse::{MergeChunk, MergePlan, Monoid};
pub use svd::{jacobi_svd, Svd};
