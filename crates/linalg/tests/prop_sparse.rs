//! Property tests pinning the merge-balanced sparse kernels to their
//! serial references, *bit for bit*: merge chunks split only the work
//! distribution, never a row's floating-point chain — every output
//! value is the naive sequential left-to-right reduction.

use cualign_linalg::sparse::{
    exclusion_max, exclusion_max_apply, exclusion_max_reference, paired_update_reduce,
    paired_update_reduce_reference, MergePlan, Monoid,
};
use cualign_rt::check::cases;
use cualign_rt::{par, Rng};

const CASES: u32 = 48;

/// Thread counts every kernel must agree at, bit for bit.
const THREADS: [usize; 3] = [1, 2, 4];

/// Random CSR pattern: `rows` rows over `ncols` columns, up to
/// `max_deg` strictly-ascending column indices per row.
fn random_csr(rows: usize, ncols: usize, max_deg: usize, rng: &mut Rng) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize];
    let mut cols = Vec::new();
    for _ in 0..rows {
        let deg = if ncols == 0 {
            0
        } else {
            rng.below(max_deg + 1)
        };
        let mut row: Vec<u32> = (0..deg).map(|_| rng.below(ncols) as u32).collect();
        row.sort_unstable();
        row.dedup();
        cols.extend_from_slice(&row);
        offsets.push(cols.len());
    }
    (offsets, cols)
}

fn random_vals(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n).map(|_| rng.f64() * 4.0 - 2.0).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Side reduction of the shape BP folds into its sweeps: a running max
/// plus a count.
#[derive(Default)]
struct MaxCount {
    max: f64,
    count: u64,
}

impl MaxCount {
    fn add(&mut self, v: f64, counted: bool) {
        self.max = self.max.max(v);
        self.count += u64::from(counted);
    }

    /// Bitwise comparison key.
    fn key(&self) -> (u64, u64) {
        (self.max.to_bits(), self.count)
    }
}

impl Monoid for MaxCount {
    fn combine(self, other: Self) -> Self {
        MaxCount {
            max: self.max.max(other.max),
            count: self.count + other.count,
        }
    }
}

/// The update BP's sweep runs through [`paired_update_reduce`]: `a`
/// and `b` are a value and its mirror, each damped towards its row
/// scalar minus the other's clamp, with the step magnitudes and the
/// saturated clamps reduced on the side.
fn bp_shaped_update(xr: f64, xc: f64, a: &mut f64, b: &mut f64, acc: &mut MaxCount) {
    let (p, t) = (*a, *b);
    let f = clamped(t);
    let c = xr - f;
    acc.add((c - p).abs(), f <= 0.0 || f >= 2.0);
    *a = 0.93 * c + (1.0 - 0.93) * p;
    let ct = xc - clamped(p);
    acc.add((ct - t).abs(), false);
    *b = 0.93 * ct + (1.0 - 0.93) * t;
}

fn clamped(v: f64) -> f64 {
    (2.0 + v).clamp(0.0, 2.0)
}

/// The oracle of [`exclusion_max_apply`]: the unfused route.
/// [`exclusion_max_reference`] materializes every exclusion value, then
/// one serial loop calls `apply` in position order, folding one
/// accumulator.
fn exclusion_max_apply_unfused<A: Monoid>(
    offsets: &[usize],
    ids: &[u32],
    values: &[f64],
    apply: impl Fn(usize, f64, &mut f64, &mut f64, &mut A),
    out1: &mut [f64],
    out2: &mut [f64],
) -> A {
    assert_eq!(out1.len(), ids.len(), "out1 length mismatch");
    assert_eq!(out2.len(), ids.len(), "out2 length mismatch");
    let mut om = vec![0.0; ids.len()];
    exclusion_max_reference(offsets, ids, values, &mut om);
    let mut acc = A::default();
    for (p, (o1, o2)) in out1.iter_mut().zip(out2.iter_mut()).enumerate() {
        apply(p, om[p], o1, o2, &mut acc);
    }
    acc
}

/// Runs [`paired_update_reduce`] at every thread count from the same
/// starting values and asserts both arrays, the row sums and the side
/// reduction equal the reference's, bit for bit.
fn assert_paired_is_reference(
    offsets: &[usize],
    cols: &[u32],
    plan: &MergePlan,
    x: &[f64],
    start: (&[f64], &[f64]),
    init: impl Fn(usize) -> f64 + Sync + Copy,
) {
    let rows = offsets.len() - 1;
    let (mut sa, mut sb, mut sy) = (start.0.to_vec(), start.1.to_vec(), vec![0.0; rows]);
    let red_slow = paired_update_reduce_reference(
        offsets,
        cols,
        x,
        bp_shaped_update,
        clamped,
        init,
        &mut sa,
        &mut sb,
        &mut sy,
    );
    for t in THREADS {
        let (mut fa, mut fb, mut fy) = (start.0.to_vec(), start.1.to_vec(), vec![9.0; rows]);
        let red_fast = par::with_threads(t, || {
            paired_update_reduce(
                offsets,
                cols,
                plan,
                x,
                bp_shaped_update,
                clamped,
                init,
                &mut fa,
                &mut fb,
                &mut fy,
            )
        });
        assert_eq!(bits(&fa), bits(&sa), "{t} threads");
        assert_eq!(bits(&fb), bits(&sb), "{t} threads");
        assert_eq!(bits(&fy), bits(&sy), "{t} threads");
        assert_eq!(red_fast.key(), red_slow.key(), "{t} threads");
    }
}

/// Paired in-place update + row reduce ≡ reference bitwise: both
/// arrays, the row sums (straddle fixup included) and the side
/// reduction, on square patterns with empty rows.
#[test]
fn paired_update_reduce_is_bitwise_reference() {
    cases(CASES, 1, |rng| {
        let (rows, max_deg) = (rng.below(40), rng.below(12));
        let chunk_nnz = rng.range(1..16);
        let mut rng = Rng::new(rng.below(10_000) as u64);
        let (offsets, cols) = random_csr(rows, rows, max_deg, &mut rng);
        let a = random_vals(cols.len(), &mut rng);
        let b = random_vals(cols.len(), &mut rng);
        let x = random_vals(rows, &mut rng);
        let w = random_vals(rows, &mut rng);
        let plan = MergePlan::with_chunk_nnz(&offsets, chunk_nnz);
        assert_paired_is_reference(&offsets, &cols, &plan, &x, (&a, &b), |r| 0.7 * w[r]);
    });
}

/// Grouped exclusion max ≡ reference bitwise (pure selection, same
/// first-argmax / runner-up scan).
#[test]
fn exclusion_max_is_bitwise_reference() {
    cases(CASES, 3, |rng| {
        let (groups, max_deg, chunk_nnz) = (rng.below(30), rng.below(10), rng.range(1..16));
        let mut rng = Rng::new(rng.below(10_000) as u64);
        let mut offsets = vec![0usize];
        for _ in 0..groups {
            let deg = rng.below(max_deg + 1);
            offsets.push(offsets.last().copied().unwrap() + deg);
        }
        let n = *offsets.last().unwrap();
        // ids: a permutation of 0..n (each value referenced once, as in
        // the side-CSR incidence arrays).
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        let values = random_vals(n, &mut rng);
        let plan = MergePlan::with_chunk_nnz(&offsets, chunk_nnz);
        let mut slow = vec![0.0; n];
        exclusion_max_reference(&offsets, &ids, &values, &mut slow);
        for t in THREADS {
            let mut fast = vec![0.0; n];
            par::with_threads(t, || {
                exclusion_max(&offsets, &plan, &ids, &values, &mut fast)
            });
            assert_eq!(bits(&fast), bits(&slow), "{t} threads");
        }
    });
}

/// Fused exclusion max + epilogue ≡ the unfused route bitwise
/// (materialize with `exclusion_max_reference`, then apply the same
/// epilogue in position order): every output and the side reduction,
/// at every thread count. The fusion must change no bits, only the
/// number of passes.
#[test]
fn exclusion_max_apply_is_bitwise_reference() {
    cases(CASES, 4, |rng| {
        let (groups, max_deg, chunk_nnz) = (rng.below(30), rng.below(10), rng.range(1..16));
        let mut rng = Rng::new(rng.below(10_000) as u64);
        let mut offsets = vec![0usize];
        for _ in 0..groups {
            let deg = rng.below(max_deg + 1);
            offsets.push(offsets.last().copied().unwrap() + deg);
        }
        let n = *offsets.last().unwrap();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        let values = random_vals(n, &mut rng);
        let d = random_vals(n, &mut rng);
        let prev = random_vals(n, &mut rng);
        let g = 0.93f64;
        // The BP tail shape: o1 = d − om, o2 = γ·o1 + (1−γ)·o2, with the
        // damped step's magnitude max-reduced on the side.
        let apply = |p: usize, om: f64, o1: &mut f64, o2: &mut f64, acc: &mut MaxCount| {
            *o1 = d[p] - om;
            acc.add((g * (*o1 - *o2)).abs(), om == 0.0);
            *o2 = g * *o1 + (1.0 - g) * *o2;
        };
        let plan = MergePlan::with_chunk_nnz(&offsets, chunk_nnz);
        let (mut s1, mut s2) = (vec![0.0; n], prev.clone());
        let red_slow =
            exclusion_max_apply_unfused(&offsets, &ids, &values, apply, &mut s1, &mut s2);
        for t in THREADS {
            let (mut f1, mut f2) = (vec![0.0; n], prev.clone());
            let red_fast = par::with_threads(t, || {
                exclusion_max_apply(&offsets, &plan, &ids, &values, apply, &mut f1, &mut f2)
            });
            assert_eq!(bits(&f1), bits(&s1), "{t} threads");
            assert_eq!(bits(&f2), bits(&s2), "{t} threads");
            assert_eq!(red_fast.key(), red_slow.key(), "{t} threads");
        }
    });
}

/// A single hot row holding almost all nonzeros — the skewed-degree
/// shape merge balancing exists for — followed by thousands of empty
/// rows. The hot row spans every chunk; every kernel BP runs must
/// still produce the sequential bits, at 1, 2 and 4 threads for the
/// paired update.
#[test]
fn skewed_single_hot_row_is_bitwise_reference() {
    let mut rng = Rng::new(77);
    let hot = 10_000usize;
    let ncols = hot + 8;
    let mut offsets = vec![0usize, 1];
    let mut cols: Vec<u32> = vec![3];
    cols.extend(0..hot as u32); // the hot row, strictly ascending
    offsets.push(cols.len());
    for c in 0..6u32 {
        cols.push(c);
        offsets.push(cols.len());
    }
    // Empty rows up to a square shape, so column ids also index rows.
    offsets.resize(ncols + 1, cols.len());
    let vals = random_vals(cols.len(), &mut rng);
    let x = random_vals(ncols, &mut rng);
    let plan = MergePlan::with_chunk_nnz(&offsets, 256);
    assert!(plan.chunks().len() > 10, "hot row must span many chunks");
    assert!(
        plan.straddle_rows().contains(&1),
        "hot row must be recorded as a straddle row"
    );
    let nnz = cols.len();

    // Paired update: the hot row's scalar is read by every chunk it
    // spans, and only the fixup sums it.
    let start = random_vals(nnz, &mut rng);
    assert_paired_is_reference(&offsets, &cols, &plan, &x, (&vals, &start), |r| {
        r as f64 * 0.5
    });

    // Exclusion max over the rows as groups (columns index `x`): the
    // hot group is owned whole by one chunk and read past its boundary.
    let (mut ef, mut es) = (vec![0.0; nnz], vec![0.0; nnz]);
    exclusion_max(&offsets, &plan, &cols, &x, &mut ef);
    exclusion_max_reference(&offsets, &cols, &x, &mut es);
    assert_eq!(bits(&ef), bits(&es));
    let apply = |p: usize, om: f64, o1: &mut f64, o2: &mut f64, acc: &mut MaxCount| {
        *o1 = vals[p] - om;
        acc.add((*o1 - *o2).abs(), om == 0.0);
        *o2 = 0.5 * *o1 + 0.5 * *o2;
    };
    let (mut f1, mut f2) = (vec![0.0; nnz], vals.clone());
    let (mut s1, mut s2) = (vec![0.0; nnz], vals.clone());
    let red_fast = exclusion_max_apply(&offsets, &plan, &cols, &x, apply, &mut f1, &mut f2);
    let red_slow = exclusion_max_apply_unfused(&offsets, &cols, &x, apply, &mut s1, &mut s2);
    assert_eq!(bits(&f1), bits(&s1));
    assert_eq!(bits(&f2), bits(&s2));
    assert_eq!(red_fast.key(), red_slow.key());
}

/// Empty matrices and all-empty-row patterns go through every kernel
/// BP runs: empty rows reduce to the empty chain (`0.0`), nothing is
/// written out of bounds, and the side reductions stay at identity.
#[test]
fn empty_and_all_empty_rows_are_handled() {
    for offsets in [vec![0usize], vec![0usize, 0, 0, 0]] {
        let cols: Vec<u32> = Vec::new();
        let plan = MergePlan::with_chunk_nnz(&offsets, 3);
        let rows = offsets.len() - 1;
        let x = vec![1.0; 4];

        let mut y = vec![9.0; rows];
        let red = paired_update_reduce(
            &offsets,
            &cols,
            &plan,
            &x[..rows],
            bp_shaped_update,
            clamped,
            |_| 0.0,
            &mut [],
            &mut [],
            &mut y,
        );
        assert!(y.iter().all(|&v| v == 0.0), "empty rows must sum to 0");
        assert_eq!(red.key(), (0, 0));
        assert_paired_is_reference(&offsets, &cols, &plan, &x[..rows], (&[], &[]), |_| 0.0);

        exclusion_max(&offsets, &plan, &cols, &x, &mut []);
        exclusion_max_reference(&offsets, &cols, &x, &mut []);
        let apply = |_: usize, om: f64, o1: &mut f64, _: &mut f64, acc: &mut MaxCount| {
            *o1 = om;
            acc.add(om, true);
        };
        let red_fast = exclusion_max_apply(&offsets, &plan, &cols, &x, apply, &mut [], &mut []);
        let red_slow = exclusion_max_apply_unfused(&offsets, &cols, &x, apply, &mut [], &mut []);
        assert_eq!(red_fast.key(), (0, 0));
        assert_eq!(red_slow.key(), (0, 0));
    }
}
