//! One FNV-1a digest over every number a fixed seeded run produces, so
//! two builds of the workspace can be checked for identical results:
//!
//! ```text
//! cargo run --release -p cualign-bench --bin isa_digest > native.txt
//! RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target-x86-64 \
//!     cargo run --release -p cualign-bench --bin isa_digest > x86-64.txt
//! diff native.txt x86-64.txt
//! ```
//!
//! The workspace compiles for the build host's CPU, so the dense kernels
//! run on its widest vector lanes. The results must not depend on that:
//! Rust never contracts `a * b + c` into an FMA and every kernel fixes
//! its reduction order in source. This binary is the check. It runs
//!
//! * a flat alignment of a rewired BA(400, 4) pair at 2.5% density on
//!   one session: spectral embeddings, the subspace rotation and its
//!   per-round transport costs, the exact-kNN `L` (pairs and weights),
//!   the pattern of `S`, the BP outcome (best score and weight, every
//!   iteration record, the matching), the mapping and its scores;
//! * BP's message state (`yᶜ`, `zᶜ`, `dᶜ`, `Sᵖ`) after the configured
//!   number of sweeps on that `L` and `S`;
//! * one more point of the density grid (5%) on the same cached session;
//! * `align_multilevel` with the ANN sparsifier on an ER(2000, 6000)
//!   pair at three levels.
//!
//! Each part's digest goes to stdout as `<part> <hex>`, then `digest
//! <hex>` over all of them; two builds agree when the outputs are equal
//! line for line, and the first differing line names the stage that
//! diverged. Timing and the compiled ISA go to stderr, so stdout holds
//! only results. Comparing two builds on one host, not a digest against a
//! checked-in constant, keeps the check independent of the host's libm.

use std::time::Instant;

use cualign::{align_multilevel, AlignerConfig, AlignmentResult, AlignmentSession, SparsityChoice};
use cualign_bp::BpEngine;
use cualign_graph::generators::{barabasi_albert, erdos_renyi_gnm};
use cualign_graph::noise::rewire;
use cualign_graph::permutation::AlignmentInstance;
use cualign_graph::{BipartiteGraph, VertexId};
use cualign_overlap::OverlapMatrix;
use cualign_rt::Rng;

const SEED: u64 = 0x15a;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn ints<T: Copy + Into<u64>>(&mut self, xs: &[T]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.into());
        }
    }

    fn mapping(&mut self, mapping: &[Option<VertexId>]) {
        self.word(mapping.len() as u64);
        for m in mapping {
            self.word(m.map_or(u64::MAX, u64::from));
        }
    }

    fn l(&mut self, l: &BipartiteGraph) {
        self.word(l.num_edges() as u64);
        for e in l.edges() {
            self.word(u64::from(e.a) << 32 | u64::from(e.b));
        }
        self.f64s(l.weights());
    }

    fn s(&mut self, s: &OverlapMatrix) {
        let offsets: Vec<u64> = s.row_offsets().iter().map(|&o| o as u64).collect();
        self.ints(&offsets);
        self.ints(s.col_indices());
    }

    fn result(&mut self, r: &AlignmentResult) {
        self.word(r.bp.best_score.to_bits());
        self.word(r.bp.best_weight.to_bits());
        self.word(r.bp.best_overlaps as u64);
        self.word(r.bp.best_iteration as u64);
        for rec in &r.bp.history {
            self.word(rec.iteration as u64);
            self.word(rec.score.to_bits());
            self.word(rec.weight.to_bits());
            self.word(rec.overlaps as u64);
        }
        self.ints(r.matching.edge_ids());
        self.mapping(&r.mapping);
        let sc = &r.scores;
        self.word(sc.conserved_edges as u64);
        self.f64s(&[sc.ec, sc.ics, sc.s3, sc.ncv, sc.ncv_gs3]);
        self.word(r.l_edges as u64);
        self.word(r.s_nnz as u64);
    }
}

/// Digests one part, prints `<name> <hex>` and folds it into `total`.
fn part(total: &mut Fnv, name: &str, fill: impl FnOnce(&mut Fnv)) {
    let mut h = Fnv::new();
    fill(&mut h);
    println!("{name:<18} {:016x}", h.0);
    total.word(h.0);
}

fn main() {
    let start = Instant::now();
    let mut total = Fnv::new();

    let mut rng = Rng::new(SEED);
    let a = barabasi_albert(400, 4, &mut rng);
    let inst = AlignmentInstance::permuted_pair(a, &mut rng);
    let b = rewire(&inst.b, 0.02, &mut rng);
    let cfg = AlignerConfig::builder()
        .density(0.025)
        .build()
        .expect("the paper operating point is valid");
    let mut session =
        AlignmentSession::new(&inst.a, &b, cfg.clone()).expect("the seeded pair is valid");

    let emb = session.embeddings().expect("the pair embeds");
    part(&mut total, "embeddings", |h| {
        h.f64s(emb.y1.data());
        h.f64s(emb.y2.data());
    });
    let sub = session.subspace().expect("the embeddings align");
    part(&mut total, "subspace", |h| {
        h.f64s(sub.rotation.data());
        h.f64s(&sub.round_costs);
        h.f64s(sub.ya.data());
    });
    let (l, s) = session.artifacts().expect("the front half builds");
    let (l, s) = (l.clone(), s.clone());
    part(&mut total, "flat.l", |h| h.l(&l));
    part(&mut total, "flat.s", |h| h.s(&s));
    let flat = session.align().expect("the pair aligns");
    part(&mut total, "flat.align", |h| h.result(&flat));

    let mut engine = BpEngine::new(&l, &s, &cfg.bp);
    for _ in 0..cfg.bp.max_iters {
        engine.iterate();
    }
    part(&mut total, "bp.messages", |h| {
        h.f64s(engine.yc());
        h.f64s(engine.zc());
        h.f64s(engine.dc());
        h.f64s(engine.sp());
    });

    session
        .update_config(|c| c.sparsity = SparsityChoice::Density(0.05))
        .expect("5% is a valid density");
    let grid = session.align().expect("the pair aligns at 5%");
    let (l5, s5) = session.artifacts().expect("the 5% artifacts are cached");
    part(&mut total, "grid.align", |h| {
        h.l(l5);
        h.s(s5);
        h.result(&grid);
    });

    let mut rng = Rng::new(SEED ^ 0x3);
    let ml_inst = AlignmentInstance::permuted_pair(erdos_renyi_gnm(2000, 6000, &mut rng), &mut rng);
    let ann = cualign::AnnConfig::default();
    let ml_cfg = AlignerConfig::builder()
        .ann(ann.k, ann.bands, ann.bits, ann.probes)
        .multilevel(3)
        .build()
        .expect("the multilevel ANN config is valid");
    let ml = align_multilevel(&ml_inst.a, &ml_inst.b, &ml_cfg).expect("the ER pair aligns");
    part(&mut total, "multilevel.align", |h| h.result(&ml));

    println!("digest             {:016x}", total.0);
    eprintln!(
        "isa_digest: isa {}, {:.2} s",
        cualign_bench::isa(),
        start.elapsed().as_secs_f64()
    );
}
