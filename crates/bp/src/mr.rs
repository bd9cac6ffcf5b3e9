//! Matching-relaxation (MR) iteration — the LP/Lagrangian-relaxation
//! family of network aligners (Klau's natalie, the paper's references
//! \[13\] and \[19\]), in the simple fixed-point form netalign ships as
//! `netalignmr`'s cheap cousin.
//!
//! The quadratic objective `α⟨w, x⟩ + (β/2)⟨Sx, x⟩` is linearized at the
//! current iterate: with `x_t` the indicator of the last matching, solve
//!
//! ```text
//! x_{t+1} = argmax_matching ⟨ α·w + β·S·x_t , x ⟩
//! ```
//!
//! i.e. re-run maximum matching on weights boosted by how many
//! already-matched edges each candidate would conserve (a
//! Frank–Wolfe/conditional-gradient step over the matching polytope).
//! Iterate, keep the best rounding seen. The paper observes BP "results
//! are nearly as good as these techniques and can be parallelized
//! efficiently" — this implementation lets the test suite and benches
//! make that comparison concrete.

use crate::evaluate_matching;
use cualign_graph::BipartiteGraph;
use cualign_matching::{suitor_matching, Matching};
use cualign_overlap::OverlapMatrix;

/// Configuration for [`mr_align`].
#[derive(Clone, Copy, Debug)]
pub struct MrConfig {
    /// Linear-term weight (as in Eq. 1).
    pub alpha: f64,
    /// Quadratic-term weight.
    pub beta: f64,
    /// Fixed-point iterations.
    pub max_iters: usize,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            alpha: 1.0,
            beta: 2.0,
            max_iters: 15,
        }
    }
}

/// Result of an MR run.
pub struct MrOutcome {
    /// Best matching found.
    pub best_matching: Matching,
    /// Its Eq. 1 objective.
    pub best_score: f64,
    /// Its conserved-edge count.
    pub best_overlaps: usize,
    /// Objective per iteration (iteration 0 = plain similarity rounding).
    pub history: Vec<f64>,
    /// Iteration at which the fixed point was reached (the matching
    /// repeated), if it was.
    pub converged_at: Option<usize>,
}

/// Runs the MR fixed-point iteration on `l` and its overlap matrix.
///
/// # Panics
/// Panics if `s` was not built for `l`, or `max_iters == 0`.
pub fn mr_align(l: &BipartiteGraph, s: &OverlapMatrix, cfg: &MrConfig) -> MrOutcome {
    assert_eq!(s.num_rows(), l.num_edges(), "S rows must index E_L");
    assert!(cfg.max_iters > 0, "need at least one iteration");
    let w0 = l.weights().to_vec();
    let mut work = l.clone();

    // Iteration 0: plain rounding of the similarity weights.
    let mut current = suitor_matching(&work);
    let (mut best_score, _, mut best_overlaps) =
        evaluate_matching(&w0, s, &current, cfg.alpha, cfg.beta);
    let mut best_matching = current.clone();
    let mut history = vec![best_score];
    let mut converged_at = None;

    for it in 1..=cfg.max_iters {
        // Linearize: boosted(e) = α·w(e) + β·|{e' ∈ S(e) : e' matched}|.
        let mut in_matching = vec![false; l.num_edges()];
        for &e in current.edge_ids() {
            in_matching[e as usize] = true;
        }
        let boosted: Vec<f64> = (0..l.num_edges())
            .map(|e| {
                let conserve = s
                    .row(e as u32)
                    .iter()
                    .filter(|&&e2| in_matching[e2 as usize])
                    .count() as f64;
                cfg.alpha * w0[e] + cfg.beta * conserve
            })
            .collect();
        work.set_weights(&boosted);
        let next = suitor_matching(&work);
        let (score, _, overlaps) = evaluate_matching(&w0, s, &next, cfg.alpha, cfg.beta);
        history.push(score);
        if score > best_score {
            best_score = score;
            best_overlaps = overlaps;
            best_matching = next.clone();
        }
        if next == current {
            converged_at = Some(it);
            break;
        }
        current = next;
    }

    MrOutcome {
        best_matching,
        best_score,
        best_overlaps,
        history,
        converged_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpConfig, BpEngine};
    use cualign_graph::generators::erdos_renyi_gnm;
    use cualign_graph::{CsrGraph, Permutation, VertexId};
    use cualign_matching::locally_dominant_parallel;
    use cualign_rt::Rng;

    fn planted(
        n: usize,
        decoys: usize,
        seed: u64,
    ) -> (CsrGraph, CsrGraph, BipartiteGraph, Permutation) {
        let mut rng = Rng::new(seed);
        let a = erdos_renyi_gnm(n, n * 5 / 2, &mut rng);
        let p = Permutation::random(n, &mut rng);
        let b = p.apply_to_graph(&a);
        let mut triples = Vec::new();
        for i in 0..n as VertexId {
            triples.push((i, p.apply(i), 0.5));
            for _ in 0..decoys {
                triples.push((i, rng.below(n) as VertexId, 0.5));
            }
        }
        (
            a,
            b.clone(),
            BipartiteGraph::from_weighted_edges(n, n, &triples),
            p,
        )
    }

    #[test]
    fn mr_improves_over_direct_rounding() {
        let (a, b, l, _) = planted(40, 4, 1);
        let s = OverlapMatrix::build(&a, &b, &l);
        let out = mr_align(&l, &s, &MrConfig::default());
        assert!(
            out.best_score >= out.history[0],
            "best {} below iteration-0 {}",
            out.best_score,
            out.history[0]
        );
        assert!(out.best_overlaps > 0);
        out.best_matching.check_valid(&l).unwrap();
    }

    #[test]
    fn mr_converges_to_a_fixed_point() {
        let (a, b, l, _) = planted(30, 3, 2);
        let s = OverlapMatrix::build(&a, &b, &l);
        let out = mr_align(
            &l,
            &s,
            &MrConfig {
                max_iters: 50,
                ..Default::default()
            },
        );
        assert!(
            out.converged_at.is_some(),
            "no fixed point in 50 iterations"
        );
    }

    #[test]
    fn bp_is_at_least_comparable_to_mr() {
        // The paper's observation: BP results are "nearly as good as"
        // the relaxation techniques. With the iteration-0 candidate both
        // share, BP must never fall behind MR by much — allow a small
        // slack, require parity-or-better in aggregate.
        let mut bp_wins = 0;
        let mut total = 0;
        for seed in 0..5 {
            let (a, b, l, _) = planted(35, 4, 10 + seed);
            let s = OverlapMatrix::build(&a, &b, &l);
            let mr = mr_align(&l, &s, &MrConfig::default());
            let bp = BpEngine::new(
                &l,
                &s,
                &BpConfig {
                    max_iters: 15,
                    ..Default::default()
                },
            )
            .run();
            total += 1;
            if bp.best_score >= mr.best_score - 1e-9 {
                bp_wins += 1;
            }
        }
        assert!(
            bp_wins * 2 >= total,
            "BP behind MR on {}/{} instances",
            total - bp_wins,
            total
        );
    }

    #[test]
    fn history_starts_with_direct_rounding() {
        let (a, b, l, _) = planted(20, 3, 3);
        let s = OverlapMatrix::build(&a, &b, &l);
        let direct = locally_dominant_parallel(&l);
        let (direct_score, _, _) = evaluate_matching(l.weights(), &s, &direct, 1.0, 2.0);
        let out = mr_align(&l, &s, &MrConfig::default());
        assert_eq!(out.history[0], direct_score);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn rejects_zero_iters() {
        let (a, b, l, _) = planted(8, 1, 4);
        let s = OverlapMatrix::build(&a, &b, &l);
        let _ = mr_align(
            &l,
            &s,
            &MrConfig {
                max_iters: 0,
                ..Default::default()
            },
        );
    }
}
