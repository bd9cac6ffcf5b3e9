//! Pins [`spectral_embedding`] (a QR every few power steps) to
//! [`spectral_embedding_reference`] (a QR after every step).
//!
//! Both iterate the same block `Sᵗ X₀`; only where the QRs fall differs,
//! so in exact arithmetic they give the same Ritz pairs. In floating
//! point the Ritz vectors may differ in sign and in rounding, so the pin
//! compares Gram matrices `Y Yᵀ`, which column signs do not change, to
//! 1e-10 on eight n = 400 graph families, at 1 and 2 threads. Rows of
//! isolated vertices must be exactly zero on both paths.

use cualign_embed::{spectral_embedding, spectral_embedding_reference, SpectralConfig};
use cualign_graph::generators::{
    barabasi_albert, duplication_divergence, erdos_renyi_gnm, watts_strogatz,
};
use cualign_graph::{CsrGraph, VertexId};
use cualign_linalg::DenseMatrix;
use cualign_rt::{par, Rng};

const N: usize = 400;

/// Two disjoint BA(3) components of 180 vertices each, then 40 isolated
/// vertices.
fn two_components_plus_isolated(rng: &mut Rng) -> CsrGraph {
    let mut edges = barabasi_albert(180, 3, rng).edge_list();
    let shifted = barabasi_albert(180, 3, rng).edge_list();
    edges.extend(shifted.iter().map(|&(u, v)| (u + 180, v + 180)));
    CsrGraph::from_edges(N, &edges)
}

fn complete_bipartite(left: usize, right: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(left * right);
    for u in 0..left as VertexId {
        for v in left as VertexId..(left + right) as VertexId {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(left + right, &edges)
}

fn ring(n: usize) -> CsrGraph {
    let edges: Vec<_> = (0..n as VertexId)
        .map(|u| (u, (u + 1) % n as VertexId))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

fn families() -> Vec<(&'static str, CsrGraph)> {
    let mut rng = Rng::new(26);
    vec![
        ("BA(4)", barabasi_albert(N, 4, &mut rng)),
        ("tree BA(1)", barabasi_albert(N, 1, &mut rng)),
        ("ER", erdos_renyi_gnm(N, 4 * N, &mut rng)),
        ("WS", watts_strogatz(N, 10, 0.1, &mut rng)),
        ("DD", duplication_divergence(N, 0.42, 0.3, &mut rng)),
        ("two components", two_components_plus_isolated(&mut rng)),
        ("K40,360", complete_bipartite(40, 360)),
        ("ring", ring(N)),
    ]
}

/// `max |Y Yᵀ − Z Zᵀ|` over all entries.
fn gram_gap(y: &DenseMatrix, z: &DenseMatrix) -> f64 {
    let (gy, gz) = (y.matmul(&y.transpose()), z.matmul(&z.transpose()));
    gy.data()
        .iter()
        .zip(gz.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

/// The production schedule agrees with the per-step loop on every
/// family, at the default config, with bits equal across thread counts.
#[test]
fn gram_matches_reference_on_eight_families() {
    let cfg = SpectralConfig::default();
    for (name, g) in families() {
        let oracle = spectral_embedding_reference(&g, &cfg).unwrap();
        let one = par::with_threads(1, || spectral_embedding(&g, &cfg).unwrap());
        let two = par::with_threads(2, || spectral_embedding(&g, &cfg).unwrap());
        assert_eq!(one, two, "{name}: bits differ between 1 and 2 threads");
        assert_eq!((one.rows(), one.cols()), (N, cfg.dim));
        let gap = gram_gap(&one, &oracle);
        assert!(gap <= 1e-10, "{name}: Gram gap {gap:e}");
    }
}

/// Isolated vertices have empty rows of `S`, so both paths must leave
/// their embedding rows exactly zero.
#[test]
fn isolated_rows_are_exactly_zero() {
    let g = two_components_plus_isolated(&mut Rng::new(7));
    let cfg = SpectralConfig {
        normalize: false,
        ..Default::default()
    };
    let fast = spectral_embedding(&g, &cfg).unwrap();
    let oracle = spectral_embedding_reference(&g, &cfg).unwrap();
    for u in 360..N {
        assert!(fast.row(u).iter().all(|&x| x == 0.0), "row {u} not zero");
        assert!(oracle.row(u).iter().all(|&x| x == 0.0), "oracle row {u}");
    }
    assert!(gram_gap(&fast, &oracle) <= 1e-10);
}
