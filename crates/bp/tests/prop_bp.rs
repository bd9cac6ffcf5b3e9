//! Property-based tests for belief propagation: numeric safety, the
//! F-bound, and outcome consistency on arbitrary random instances.

use cualign_bp::{evaluate_matching, BpConfig, BpEngine, MatcherKind};
use cualign_graph::generators::erdos_renyi_gnm;
use cualign_graph::{BipartiteGraph, CsrGraph};
use cualign_overlap::OverlapMatrix;
use cualign_rt::check::cases;
use cualign_rt::Rng;

const CASES: u32 = 48;

fn instance(rng: &mut Rng) -> (CsrGraph, CsrGraph, BipartiteGraph) {
    let n = rng.range(4..14);
    let seed = rng.below(5000) as u64;
    let triples: Vec<(u32, u32, f64)> = (0..rng.range(2..50))
        .map(|_| {
            (
                rng.below(n) as u32,
                rng.below(n) as u32,
                rng.range_f64(0.01, 1.0),
            )
        })
        .collect();
    let mut graphs = Rng::new(seed);
    let m = (n * 3 / 2).min(n * (n - 1) / 2);
    let a = erdos_renyi_gnm(n, m, &mut graphs);
    let b = erdos_renyi_gnm(n, m, &mut graphs);
    let l = BipartiteGraph::from_weighted_edges(n, n, &triples);
    (a, b, l)
}

/// Messages stay finite and F stays within [0, β] under arbitrary
/// structure, for several damping regimes.
#[test]
fn messages_bounded() {
    cases(CASES, 1, |rng| {
        let (a, b, l) = instance(rng);
        let gamma = rng.range_f64(0.3, 1.0);
        let s = OverlapMatrix::build(&a, &b, &l);
        let cfg = BpConfig {
            gamma,
            ..Default::default()
        };
        let mut e = BpEngine::new(&l, &s, &cfg);
        for _ in 0..12 {
            e.iterate();
            assert!(e.yc().iter().all(|x| x.is_finite()));
            assert!(e.zc().iter().all(|x| x.is_finite()));
            // The next sweep's F, read from the carried transpose.
            let mut f = e
                .sp_transposed()
                .iter()
                .map(|&t| (cfg.beta + t).clamp(0.0, cfg.beta));
            assert!(f.all(|x| (0.0..=cfg.beta).contains(&x)));
        }
    });
}

/// The reported best matching re-evaluates to exactly the reported
/// score, and the best is the maximum of the history.
#[test]
fn outcome_consistency() {
    cases(CASES, 2, |rng| {
        let (a, b, l) = instance(rng);
        let s = OverlapMatrix::build(&a, &b, &l);
        let cfg = BpConfig {
            max_iters: 6,
            ..Default::default()
        };
        let out = BpEngine::new(&l, &s, &cfg).run();
        out.best_matching.check_valid(&l).unwrap();
        let (score, weight, overlaps) =
            evaluate_matching(l.weights(), &s, &out.best_matching, cfg.alpha, cfg.beta);
        assert_eq!(score, out.best_score);
        assert_eq!(weight, out.best_weight);
        assert_eq!(overlaps, out.best_overlaps);
        let hist_max = out
            .history
            .iter()
            .map(|r| r.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(hist_max, out.best_score);
        assert_eq!(out.history.len(), 7);
    });
}

/// BP's best objective is at least the direct-rounding objective (the
/// iteration-0 candidate guarantees it).
#[test]
fn bp_never_below_direct_rounding() {
    cases(CASES, 3, |rng| {
        let (a, b, l) = instance(rng);
        let s = OverlapMatrix::build(&a, &b, &l);
        let cfg = BpConfig {
            max_iters: 5,
            ..Default::default()
        };
        let direct = cualign_matching::locally_dominant_parallel(&l);
        let (direct_score, _, _) = evaluate_matching(l.weights(), &s, &direct, cfg.alpha, cfg.beta);
        let out = BpEngine::new(&l, &s, &cfg).run();
        assert!(out.best_score >= direct_score - 1e-12);
    });
}

/// Scaling α and β together scales the objective but not the argmax:
/// the best matching is invariant.
#[test]
fn objective_scale_invariance() {
    cases(CASES, 4, |rng| {
        let (a, b, l) = instance(rng);
        let scale = rng.range_f64(0.5, 4.0);
        let s = OverlapMatrix::build(&a, &b, &l);
        let base = BpConfig {
            max_iters: 4,
            ..Default::default()
        };
        let scaled = BpConfig {
            alpha: base.alpha * scale,
            beta: base.beta * scale,
            ..base
        };
        let o1 = BpEngine::new(&l, &s, &base).run();
        let o2 = BpEngine::new(&l, &s, &scaled).run();
        assert_eq!(o1.best_matching, o2.best_matching);
    });
}

/// The rounding matcher never changes a bit of the run: under all four
/// matchers BP returns the same best matching, the same best-score bits
/// and the same per-iteration history.
#[test]
fn matcher_choice_is_bit_identical() {
    cases(CASES, 7, |rng| {
        let (a, b, l) = instance(rng);
        let s = OverlapMatrix::build(&a, &b, &l);
        let run = |matcher| {
            let cfg = BpConfig {
                max_iters: 8,
                matcher,
                ..Default::default()
            };
            BpEngine::new(&l, &s, &cfg).run()
        };
        let base = run(MatcherKind::Suitor);
        let bits = |o: &cualign_bp::BpOutcome| -> Vec<(u64, u64, usize)> {
            o.history
                .iter()
                .map(|r| (r.score.to_bits(), r.weight.to_bits(), r.overlaps))
                .collect()
        };
        for kind in [
            MatcherKind::Serial,
            MatcherKind::Parallel,
            MatcherKind::Greedy,
        ] {
            let other = run(kind);
            assert_eq!(other.best_matching, base.best_matching, "{kind:?}");
            assert_eq!(
                other.best_score.to_bits(),
                base.best_score.to_bits(),
                "{kind:?}"
            );
            assert_eq!(other.best_iteration, base.best_iteration, "{kind:?}");
            assert_eq!(bits(&other), bits(&base), "{kind:?}");
        }
    });
}

/// `evaluate_matching` counts conserved edges over the matched rows only;
/// the count equals a brute-force pass over every row of `S` under a
/// full membership mask, and the weight sum keeps its order.
#[test]
fn evaluate_matching_equals_full_mask_count() {
    cases(CASES, 8, |rng| {
        let (a, b, l) = instance(rng);
        let s = OverlapMatrix::build(&a, &b, &l);
        let m = cualign_matching::locally_dominant_reference(&l);
        let mut mask = vec![false; s.num_rows()];
        for &e in m.edge_ids() {
            mask[e as usize] = true;
        }
        let mut pairs = 0;
        for e in 0..s.num_rows() {
            for &e2 in s.row(e as u32) {
                pairs += usize::from(mask[e] && mask[e2 as usize]);
            }
        }
        let alpha = rng.range_f64(0.1, 3.0);
        let beta = rng.range_f64(0.1, 3.0);
        let weight: f64 = m.edge_ids().iter().map(|&e| l.weights()[e as usize]).sum();
        let (score, w, overlaps) = evaluate_matching(l.weights(), &s, &m, alpha, beta);
        assert_eq!(overlaps, pairs / 2);
        assert_eq!(w.to_bits(), weight.to_bits());
        assert_eq!(
            score.to_bits(),
            (alpha * weight + beta * (pairs / 2) as f64).to_bits()
        );
    });
}
