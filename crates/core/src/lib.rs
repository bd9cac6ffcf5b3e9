//! # cualign
//!
//! A from-scratch Rust implementation of **cuAlign** (Xiang, Khan, Ferdous,
//! Aravind, Halappanavar — SC-W 2023): scalable global network alignment
//! combining proximity-preserving node embeddings, subspace alignment, kNN
//! sparsification, belief propagation on the alignment quadratic program,
//! and half-approximate weighted matching.
//!
//! ## Quickstart
//!
//! ```
//! use cualign::{Aligner, AlignerConfig};
//! use cualign_graph::generators::erdos_renyi_gnm;
//! use cualign_graph::permutation::AlignmentInstance;
//! use cualign_rt::Rng;
//!
//! let mut rng = Rng::new(7);
//! let a = erdos_renyi_gnm(120, 360, &mut rng);
//! let inst = AlignmentInstance::permuted_pair(a, &mut rng);
//!
//! let cfg = AlignerConfig::builder().bp_iters(10).build().unwrap();
//! let result = Aligner::new(cfg).align(&inst.a, &inst.b).unwrap();
//! println!("NCV-GS3 = {:.3}", result.scores.ncv_gs3);
//! assert!(result.scores.ncv_gs3 > 0.0);
//! ```
//!
//! For parameter sweeps, hold an [`AlignmentSession`] instead of calling
//! [`Aligner::align`] in a loop: the session caches each pipeline stage
//! under a fingerprint of the config slice it depends on, so changing
//! `sparsity` reuses the embeddings and subspace, and changing
//! `bp.max_iters` reuses everything up to the overlap matrix.
//!
//! ## Architecture
//!
//! The pipeline (paper Fig. 2) is assembled from dedicated crates:
//! `cualign-graph` (substrate + coarsening), `cualign-linalg`
//! (SVD/Sinkhorn/Procrustes), `cualign-embed` (embeddings + Eq. 2),
//! `cualign-sparsify` (kNN → `L`), `cualign-overlap` (matrix `S`),
//! `cualign-bp` (Algorithm 2), `cualign-matching` (§4.3),
//! `cualign-gpusim` (the GPU cost model for the Table 2 study), and
//! `cualign-telemetry` (spans/counters under every stage). This crate
//! provides the user-facing [`Aligner`] and the stage-cached
//! [`AlignmentSession`] engine behind it, the [`multilevel`]
//! coarsen–align–project–refine driver
//! (`AlignerConfig::builder().multilevel(levels)`), the [`conealign`]
//! baseline, alignment [`scoring`], and the paper's named [`inputs`].
//! `docs/ARCHITECTURE.md` has the full stage diagram.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod conealign;
pub mod config;
pub mod error;
pub mod ingest;
pub mod inputs;
pub mod multilevel;
pub mod pipeline;
pub mod scoring;
pub mod session;

pub use baselines::{exact_alignment, isorank_align, seed_and_expand};
pub use conealign::{cone_align, cone_align_session, ConeAlignResult};
pub use config::{AlignerConfig, AlignerConfigBuilder, SparsityChoice};
pub use cualign_sparsify::{ann_recall, AnnConfig};
pub use error::{AlignError, GraphSide};
pub use inputs::PaperInput;
pub use multilevel::{align_multilevel, MultilevelConfig};
pub use pipeline::{Aligner, AlignmentResult, StageTimings};
pub use scoring::{score_alignment, AlignmentScores};
pub use session::{graph_pair_fingerprint, AlignmentSession, Embeddings, StageCounters};
