//! Typed errors for the public alignment API.
//!
//! Every fallible entry point — [`crate::Aligner::align`], the
//! [`crate::AlignmentSession`] stage methods, [`crate::cone_align`], and
//! the configuration builder — reports degenerate inputs and invalid
//! parameters through [`AlignError`] instead of panicking, so callers
//! (the `cualign` binary in particular) can print a clean diagnostic.

use std::fmt;

/// Which input graph an error refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSide {
    /// The first (`A`) input graph.
    A,
    /// The second (`B`) input graph.
    B,
}

impl fmt::Display for GraphSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSide::A => write!(f, "A"),
            GraphSide::B => write!(f, "B"),
        }
    }
}

/// Error raised by the alignment pipeline's public entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlignError {
    /// An input graph has no vertices; nothing can be aligned.
    EmptyGraph {
        /// Which input is empty.
        side: GraphSide,
    },
    /// The configured embedding dimension exceeds the vertex count of the
    /// smaller input, so the spectral subspace is over-determined.
    DimExceedsVertices {
        /// Configured embedding dimension.
        dim: usize,
        /// Vertex count of the smaller input graph.
        vertices: usize,
    },
    /// Sparsification produced a candidate graph `L` with zero edges
    /// (e.g. an approximate rule whose LSH buckets pair no rows), so
    /// there is nothing for belief propagation or matching to work on.
    EmptySparsification,
    /// A configuration field is out of its valid range. Produced by
    /// [`crate::AlignerConfig::validate`] and the builder's `build()`.
    InvalidConfig {
        /// Dotted path of the offending field (e.g. `sparsity.density`).
        field: &'static str,
        /// Human-readable constraint violation.
        reason: String,
    },
    /// An input file could not be read or parsed (CLI loaders).
    Io {
        /// Path of the offending file.
        path: String,
        /// Underlying error message.
        reason: String,
    },
    /// An untrusted request body failed structural validation before it
    /// reached the pipeline (the service-layer ingest path): an
    /// out-of-range vertex id, a zero-vertex graph, or a vertex count
    /// beyond the `VertexId` range. Unlike [`AlignError::Io`] (transport
    /// and filesystem failures) this always means the *content* of the
    /// request is wrong, so servers map it to a 4xx response.
    Protocol {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The subspace-alignment stage rejected its inputs (dimension or
    /// row-count mismatch between embeddings and graphs). Configuration
    /// errors are normalized to [`AlignError::InvalidConfig`] at build
    /// time; this variant carries the shape mismatches only a live
    /// embedding can exhibit.
    Subspace(cualign_embed::SubspaceError),
    /// A session-cache invariant broke: a stage artifact was absent
    /// immediately after its `ensure` step. This is a bug in
    /// [`crate::AlignmentSession`]'s bookkeeping, never a caller error;
    /// it exists so the library reports the impossible as a typed error
    /// instead of panicking mid-run (the no-panic contract).
    Internal {
        /// Name of the missing stage artifact.
        stage: &'static str,
    },
}

impl From<cualign_embed::SubspaceError> for AlignError {
    fn from(e: cualign_embed::SubspaceError) -> Self {
        match e {
            // Config errors keep their dotted-field shape so callers can
            // match on `InvalidConfig { field, .. }` uniformly.
            cualign_embed::SubspaceError::InvalidConfig { field, reason } => {
                AlignError::InvalidConfig { field, reason }
            }
            other => AlignError::Subspace(other),
        }
    }
}

impl From<cualign_embed::SpectralError> for AlignError {
    fn from(e: cualign_embed::SpectralError) -> Self {
        // The spectral kernel re-checks what the session checks up front,
        // so its errors land on the same variants.
        match e {
            cualign_embed::SpectralError::ZeroDim => AlignError::InvalidConfig {
                field: "embedding.dim",
                reason: "must be at least 1".into(),
            },
            cualign_embed::SpectralError::BlockExceedsVertices { dim, vertices, .. } => {
                AlignError::DimExceedsVertices { dim, vertices }
            }
        }
    }
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::EmptyGraph { side } => {
                write!(f, "input graph {side} has no vertices")
            }
            AlignError::DimExceedsVertices { dim, vertices } => write!(
                f,
                "embedding dimension {dim} exceeds the {vertices} vertices of the smaller \
                 input graph; lower the dimension or supply larger graphs"
            ),
            AlignError::EmptySparsification => write!(
                f,
                "sparsification produced an alignment graph with zero edges; relax the \
                 sparsity rule (higher density / k, or more ANN bands / probes)"
            ),
            AlignError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            AlignError::Io { path, reason } => write!(f, "{path}: {reason}"),
            AlignError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            AlignError::Subspace(e) => write!(f, "subspace alignment: {e}"),
            AlignError::Internal { stage } => write!(
                f,
                "internal session-cache error: {stage} artifact missing after its ensure step \
                 (this is a bug in cualign, please report it)"
            ),
        }
    }
}

impl std::error::Error for AlignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_clean_and_specific() {
        let e = AlignError::EmptyGraph { side: GraphSide::B };
        assert_eq!(e.to_string(), "input graph B has no vertices");
        let e = AlignError::InvalidConfig {
            field: "sparsity.density",
            reason: "must be in (0, 1], got 3".to_string(),
        };
        assert!(e.to_string().contains("sparsity.density"));
        let e = AlignError::DimExceedsVertices {
            dim: 64,
            vertices: 10,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(AlignError::EmptySparsification);
    }

    #[test]
    fn subspace_errors_convert_preserving_config_shape() {
        use cualign_embed::SubspaceError;
        let shape: AlignError = SubspaceError::DimensionMismatch { left: 8, right: 16 }.into();
        assert!(matches!(shape, AlignError::Subspace(_)));
        assert!(shape.to_string().contains("subspace alignment"));
        let cfg: AlignError = SubspaceError::InvalidConfig {
            field: "subspace.iterations",
            reason: "must be at least 1".into(),
        }
        .into();
        assert!(matches!(
            cfg,
            AlignError::InvalidConfig {
                field: "subspace.iterations",
                ..
            }
        ));
    }

    #[test]
    fn spectral_errors_convert_to_the_session_checks_variants() {
        use cualign_embed::SpectralError;
        let dim: AlignError = SpectralError::ZeroDim.into();
        assert!(matches!(
            dim,
            AlignError::InvalidConfig {
                field: "embedding.dim",
                ..
            }
        ));
        let block: AlignError = SpectralError::BlockExceedsVertices {
            dim: 64,
            oversample: 16,
            vertices: 70,
        }
        .into();
        assert_eq!(
            block,
            AlignError::DimExceedsVertices {
                dim: 64,
                vertices: 70
            }
        );
    }
}
