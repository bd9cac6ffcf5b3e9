//! # cualign-graph
//!
//! Graph substrate for the cuAlign network-alignment framework.
//!
//! This crate provides the data structures and input machinery every other
//! layer of the stack builds on:
//!
//! * [`CsrGraph`] — an undirected graph in compressed sparse row form, the
//!   representation the paper uses for the input networks `A` and `B`.
//! * [`BipartiteGraph`] — the weighted bipartite graph `L` between the
//!   vertex sets of `A` and `B` whose matchings are candidate alignments.
//!   Both orientations (A-side and B-side CSR) are materialized with stable
//!   edge identifiers so belief propagation and matching can traverse either
//!   side without translation tables.
//! * [`generators`] — synthetic graph models used by the evaluation:
//!   Erdős–Rényi, Barabási–Albert, power-law configuration model,
//!   Watts–Strogatz, and duplication–divergence ("PPI-like") graphs.
//! * [`Permutation`] — ground-truth vertex relabelings used by the paper's
//!   self-alignment protocol (`B = P(A)`).
//! * [`coarsen`] — heavy-edge-matching graph coarsening
//!   ([`CoarseningHierarchy`]), the contraction half of the multilevel
//!   coarsen–align–project–refine wrapper driven from the core crate.
//! * [`wl`] — Weisfeiler–Lehman label refinement shared by coarsening's
//!   structural tie-breaks and the approximate sparsifier's cross-graph
//!   label-bucket candidate generator ([`wl::wl_candidates`]).
//! * [`noise`] — edge perturbation for robustness experiments.
//! * [`binning`] — degree-based binning of vertices/work-items, the load
//!   balancing strategy of the paper's §5 (shared with the GPU simulator).
//! * [`io`] — plain edge-list serialization.
//!
//! In the pipeline (paper Fig. 2) this crate is the substrate layer: it
//! holds the inputs `A`/`B` (§3.1), the bipartite candidate graph `L`
//! that sparsification (§4.1) produces and BP/matching (§4.2–4.3)
//! consume, and the synthetic instances of the evaluation (§6).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod bipartite;
pub mod coarsen;
pub mod csr;
pub mod generators;
pub mod io;
pub mod noise;
pub mod permutation;
pub mod stats;
pub mod wl;

pub use bipartite::{BipartiteGraph, LEdge, Side};
pub use coarsen::{CoarseLevel, CoarsenConfig, CoarseningHierarchy};
pub use csr::CsrGraph;
pub use permutation::Permutation;

/// Vertex identifier. `u32` keeps adjacency arrays compact (see the type-size
/// guidance in the Rust performance handbook); graphs beyond 4B vertices are
/// far outside this system's scope.
pub type VertexId = u32;

/// Identifier of an edge of the bipartite graph `L`. Edge ids index the
/// weight vector and the rows/columns of the overlap matrix `S`.
pub type EdgeId = u32;
