//! The wire protocol: request JSON ⇄ domain types, response bodies, and
//! the error → status mapping.
//!
//! Request shape (`POST /align`):
//!
//! ```json
//! {
//!   "a": {"n": 100, "edges": [[0, 1], [1, 2]]},
//!   "b": {"n": 100, "edges": [[0, 2], [2, 3]]},
//!   "config": {"k": 5, "bp_iters": 20}
//! }
//! ```
//!
//! `POST /sweep` is identical except `config` is replaced by `configs`,
//! an array of such patch objects applied to the *same* session in
//! order — the stage cache turns the sweep into incremental rebuilds.
//! Every malformed input maps to a typed [`AlignError`] so the server
//! returns one consistent error body shape for all failure modes.

use crate::json::Json;
use cualign::ingest::graph_from_edges;
use cualign::{AlignError, AlignerConfig, AlignmentResult, AnnConfig};
use cualign_graph::CsrGraph;

fn proto(reason: String) -> AlignError {
    AlignError::Protocol { reason }
}

/// Parses a request body as a JSON document.
pub fn parse_body(bytes: &[u8]) -> Result<Json, AlignError> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| proto(format!("request body is not UTF-8: {e}")))?;
    Json::parse(text).map_err(|e| proto(format!("malformed JSON: {e}")))
}

/// Extracts the `"a"`/`"b"` graph pair from a parsed request.
pub fn parse_pair(request: &Json) -> Result<(CsrGraph, CsrGraph), AlignError> {
    Ok((parse_graph(request, "a")?, parse_graph(request, "b")?))
}

fn parse_graph(request: &Json, key: &str) -> Result<CsrGraph, AlignError> {
    let g = request
        .get(key)
        .ok_or_else(|| proto(format!("missing required graph object {key:?}")))?;
    let n = g
        .get("n")
        .and_then(Json::as_u64)
        .ok_or_else(|| proto(format!("{key:?}.n must be a non-negative integer")))?;
    let edges_json = g
        .get("edges")
        .and_then(Json::as_array)
        .ok_or_else(|| proto(format!("{key:?}.edges must be an array")))?;
    let mut edges = Vec::with_capacity(edges_json.len());
    for (i, e) in edges_json.iter().enumerate() {
        let pair = e
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| proto(format!("{key:?}.edges[{i}] must be a two-element array")))?;
        let u = pair[0]
            .as_u64()
            .ok_or_else(|| proto(format!("{key:?}.edges[{i}][0] must be a vertex id")))?;
        let v = pair[1]
            .as_u64()
            .ok_or_else(|| proto(format!("{key:?}.edges[{i}][1] must be a vertex id")))?;
        edges.push((u, v));
    }
    graph_from_edges(n as usize, &edges)
}

/// Builds an [`AlignerConfig`] from an optional `"config"` patch object.
///
/// Only scalar knobs are exposed over the wire — the fields a sweep
/// varies. Unknown fields are rejected so typos fail loudly instead of
/// silently running the default configuration.
pub fn parse_config(patch: Option<&Json>) -> Result<AlignerConfig, AlignError> {
    let mut builder = AlignerConfig::builder();
    let Some(patch) = patch else {
        return builder.build();
    };
    let fields = patch
        .as_object()
        .ok_or_else(|| proto("\"config\" must be an object".to_string()))?;
    if fields.contains_key("k") && fields.contains_key("density") {
        return Err(proto(
            "config.k and config.density are mutually exclusive".to_string(),
        ));
    }
    // The sparsifier knobs compose (k + any ann_* field select the ANN
    // rule together), so they are collected first and applied once after
    // the scalar fields — the loop below must stay order-independent
    // because JSON objects carry no field order guarantee.
    let mut k: Option<usize> = None;
    let mut ann_bands: Option<usize> = None;
    let mut ann_bits: Option<usize> = None;
    let mut ann_probes: Option<usize> = None;
    for (key, value) in fields {
        builder = match key.as_str() {
            "dim" => builder.embedding_dim(usize_field(value, "config.dim")?),
            "seed" => builder.embedding_seed(u64_field(value, "config.seed")?),
            "k" => {
                k = Some(usize_field(value, "config.k")?);
                builder
            }
            "density" => builder.density(f64_field(value, "config.density")?),
            "ann_bands" => {
                ann_bands = Some(usize_field(value, "config.ann_bands")?);
                builder
            }
            "ann_bits" => {
                ann_bits = Some(usize_field(value, "config.ann_bits")?);
                builder
            }
            "ann_probes" => {
                ann_probes = Some(usize_field(value, "config.ann_probes")?);
                builder
            }
            "bp_iters" => builder.bp_iters(usize_field(value, "config.bp_iters")?),
            "subspace_anchors" => {
                builder.subspace_anchors(usize_field(value, "config.subspace_anchors")?)
            }
            "subspace_iterations" => {
                builder.subspace_iterations(usize_field(value, "config.subspace_iterations")?)
            }
            "sinkhorn_epsilon" => {
                builder.sinkhorn_epsilon(f64_field(value, "config.sinkhorn_epsilon")?)
            }
            "epsilon_start" => builder.epsilon_start(f64_field(value, "config.epsilon_start")?),
            other => return Err(proto(format!("unknown config field {other:?}"))),
        };
    }
    if ann_bands.is_some() || ann_bits.is_some() || ann_probes.is_some() {
        if fields.contains_key("density") {
            return Err(proto(
                "config.density and config.ann_* are mutually exclusive".to_string(),
            ));
        }
        let defaults = AnnConfig::default();
        builder = builder.ann(
            k.unwrap_or(defaults.k),
            ann_bands.unwrap_or(defaults.bands),
            ann_bits.unwrap_or(defaults.bits),
            ann_probes.unwrap_or(defaults.probes),
        );
    } else if let Some(k) = k {
        builder = builder.k(k);
    }
    builder.build()
}

fn u64_field(value: &Json, name: &str) -> Result<u64, AlignError> {
    value
        .as_u64()
        .ok_or_else(|| proto(format!("{name} must be a non-negative integer")))
}

fn usize_field(value: &Json, name: &str) -> Result<usize, AlignError> {
    Ok(u64_field(value, name)? as usize)
}

fn f64_field(value: &Json, name: &str) -> Result<f64, AlignError> {
    value
        .as_f64()
        .ok_or_else(|| proto(format!("{name} must be a number")))
}

/// The session fingerprint as clients see it: 16 hex digits.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// JSON view of one alignment result (scores, timings, sizes).
pub fn result_json(result: &AlignmentResult) -> Json {
    let s = &result.scores;
    let t = &result.timings;
    Json::obj(vec![
        ("l_edges", Json::Num(result.l_edges as f64)),
        ("s_nnz", Json::Num(result.s_nnz as f64)),
        (
            "scores",
            Json::obj(vec![
                ("conserved_edges", Json::Num(s.conserved_edges as f64)),
                ("ec", Json::Num(s.ec)),
                ("ics", Json::Num(s.ics)),
                ("s3", Json::Num(s.s3)),
                ("ncv", Json::Num(s.ncv)),
                ("ncv_gs3", Json::Num(s.ncv_gs3)),
            ]),
        ),
        (
            "timings",
            Json::obj(vec![
                ("embedding_s", Json::Num(t.embedding_s)),
                ("subspace_s", Json::Num(t.subspace_s)),
                ("sparsify_s", Json::Num(t.sparsify_s)),
                ("overlap_s", Json::Num(t.overlap_s)),
                ("optimize_s", Json::Num(t.optimize_s)),
                ("total_s", Json::Num(t.total_s())),
                ("cache_hits", Json::Num(t.cache_hits as f64)),
            ]),
        ),
    ])
}

/// Response body for `POST /align`.
pub fn align_response(fp: u64, session_reused: bool, result: &AlignmentResult) -> String {
    Json::obj(vec![
        ("fingerprint", Json::Str(fingerprint_hex(fp))),
        ("session_reused", Json::Bool(session_reused)),
        ("result", result_json(result)),
    ])
    .to_string()
}

/// Response body for `POST /sweep`: one result per config patch, in
/// request order.
pub fn sweep_response(fp: u64, session_reused: bool, results: &[AlignmentResult]) -> String {
    Json::obj(vec![
        ("fingerprint", Json::Str(fingerprint_hex(fp))),
        ("session_reused", Json::Bool(session_reused)),
        (
            "results",
            Json::Arr(results.iter().map(result_json).collect()),
        ),
    ])
    .to_string()
}

/// The one error body shape every failure path produces.
pub fn error_body(kind: &str, message: &str) -> String {
    Json::obj(vec![(
        "error",
        Json::obj(vec![
            ("kind", Json::Str(kind.to_string())),
            ("message", Json::Str(message.to_string())),
        ]),
    )])
    .to_string()
}

/// Maps an alignment error to `(HTTP status, error kind)`.
///
/// Client mistakes — bad framing, bad config, unreadable input — are
/// 400s. Structurally valid inputs the pipeline cannot align (e.g. an
/// embedding dim larger than the graph) are 422s. Everything else is the
/// server's fault.
pub fn status_for(error: &AlignError) -> (u16, &'static str) {
    match error {
        AlignError::Protocol { .. } => (400, "protocol"),
        AlignError::InvalidConfig { .. } => (400, "invalid_config"),
        AlignError::Io { .. } => (400, "io"),
        AlignError::EmptyGraph { .. }
        | AlignError::DimExceedsVertices { .. }
        | AlignError::EmptySparsification
        | AlignError::Subspace(_) => (422, "align"),
        AlignError::Internal { .. } => (500, "internal"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Json {
        parse_body(text.as_bytes()).unwrap()
    }

    #[test]
    fn parses_a_full_align_request() {
        let req = body(
            r#"{"a":{"n":4,"edges":[[0,1],[1,2],[2,3]]},
                "b":{"n":4,"edges":[[0,1],[1,3]]},
                "config":{"k":3,"bp_iters":7,"dim":2}}"#,
        );
        let (a, b) = parse_pair(&req).unwrap();
        assert_eq!((a.num_vertices(), a.num_edges()), (4, 3));
        assert_eq!((b.num_vertices(), b.num_edges()), (4, 2));
        let cfg = parse_config(req.get("config")).unwrap();
        assert_eq!(cfg.bp.max_iters, 7);
    }

    #[test]
    fn ann_fields_select_the_ann_sparsifier() {
        use cualign::SparsityChoice;
        // k composes with ann_* regardless of JSON field order.
        let req = body(r#"{"config":{"ann_bits":10,"k":6,"ann_bands":16}}"#);
        let cfg = parse_config(req.get("config")).unwrap();
        assert!(matches!(
            cfg.sparsity,
            SparsityChoice::Ann {
                k: 6,
                bands: 16,
                bits: 10,
                probes: 2
            }
        ));
        // A single ann field is enough; the rest take defaults.
        let req = body(r#"{"config":{"ann_probes":3}}"#);
        let cfg = parse_config(req.get("config")).unwrap();
        assert!(matches!(
            cfg.sparsity,
            SparsityChoice::Ann { probes: 3, .. }
        ));
        // density conflicts with the ANN knobs.
        let req = body(r#"{"config":{"ann_bits":8,"density":0.05}}"#);
        let err = parse_config(req.get("config")).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        // Out-of-range knobs surface the builder's validation.
        let req = body(r#"{"config":{"ann_bits":40}}"#);
        assert!(matches!(
            parse_config(req.get("config")),
            Err(AlignError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn config_rejects_unknown_and_conflicting_fields() {
        let req = body(r#"{"config":{"knn":5}}"#);
        let err = parse_config(req.get("config")).unwrap_err();
        assert!(err.to_string().contains("unknown config field"), "{err}");

        let req = body(r#"{"config":{"k":5,"density":0.5}}"#);
        let err = parse_config(req.get("config")).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        // Invalid values surface the builder's own validation.
        let req = body(r#"{"config":{"dim":0}}"#);
        assert!(matches!(
            parse_config(req.get("config")),
            Err(AlignError::InvalidConfig { .. })
        ));
        // Zero BP iterations is a typed client error, not a panic in the
        // engine.
        let req = body(r#"{"config":{"bp_iters":0}}"#);
        let err = parse_config(req.get("config")).unwrap_err();
        assert!(matches!(
            err,
            AlignError::InvalidConfig {
                field: "bp.max_iters",
                ..
            }
        ));
        assert_eq!(status_for(&err), (400, "invalid_config"));
    }

    #[test]
    fn pair_errors_name_the_offending_side() {
        let req = body(r#"{"a":{"n":3,"edges":[[0,9]]},"b":{"n":3,"edges":[]}}"#);
        let msg = parse_pair(&req).unwrap_err().to_string();
        assert!(msg.contains("out of bounds"), "{msg}");

        let req = body(r#"{"a":{"n":3,"edges":[]}}"#);
        let msg = parse_pair(&req).unwrap_err().to_string();
        assert!(msg.contains("\"b\""), "{msg}");
    }

    #[test]
    fn status_mapping_partitions_client_and_server_faults() {
        let (code, kind) = status_for(&AlignError::Protocol { reason: "x".into() });
        assert_eq!((code, kind), (400, "protocol"));
        let (code, _) = status_for(&AlignError::EmptySparsification);
        assert_eq!(code, 422);
        let (code, _) = status_for(&AlignError::Internal { stage: "x" });
        assert_eq!(code, 500);
    }
}
