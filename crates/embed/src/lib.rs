//! # cualign-embed
//!
//! Stage 1 of the cuAlign framework (§4.1): represent every vertex of each
//! input graph as a `d`-dimensional vector such that (a) proximate vertices
//! within a graph embed close together, and (b) after a learned orthogonal
//! rotation, corresponding vertices *across* graphs embed close together.
//!
//! The embedder is [`spectral::spectral_embedding`]: the dominant
//! eigenspace of the normalized adjacency, which embeds isomorphic graphs
//! identically up to the orthogonal transform that Eq. (2) resolves.
//!
//! Cross-graph alignment of the two embeddings — Eq. (2) of the paper,
//! `min_Q min_P ‖Y₁Q − PY₂‖²` — is solved in [`subspace`] by alternating
//! Sinkhorn optimal transport (soft `P`) with orthogonal Procrustes
//! (optimal `Q`), following Chen et al.'s cone-align procedure.
//!
//! **Place in the pipeline** (paper Fig. 2): the first stage proper —
//! it consumes `cualign-graph` CSR graphs and feeds the aligned vectors
//! to `cualign-sparsify`'s kNN stage. Under the multilevel wrapper this
//! stage runs only on the coarsest graphs, with `dim` clamped to the
//! contracted size.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod spectral;
pub mod subspace;

pub use spectral::{
    spectral_embedding, spectral_embedding_reference, SpectralConfig, SpectralError,
};
pub use subspace::{
    align_subspaces, align_subspaces_reference, pairwise_cost, pairwise_cost_reference,
    structural_features, structural_features_for, SubspaceAlignConfig, SubspaceAlignment,
    SubspaceError,
};
