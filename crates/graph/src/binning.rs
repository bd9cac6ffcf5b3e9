//! Degree binning — the load-balancing strategy of §5.
//!
//! The paper groups work items (vertices, or rows of the overlap matrix `S`)
//! by their neighbor count into power-of-two bins, assigns a "virtual warp"
//! size to each bin, and launches one kernel per bin (overlapped with CUDA
//! streams). Because the sparsity structure is fixed for the whole run, the
//! binning is computed once and reused.
//!
//! Only the GPU simulator (`cualign-gpusim`) uses it here, to model warp
//! assignment and lane idling; the CPU kernels balance work by merge-path
//! chunking instead (`cualign_linalg::sparse::MergePlan`).

/// Virtual-warp sizes permitted by the paper ("divisor or multiple of the
/// 32-lane warp"): {8, 16, 32, 64, 128, 256, 512}.
pub const VIRTUAL_WARP_SIZES: [u32; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Largest permitted virtual-warp size (the saturation point for oversized
/// work items).
pub const MAX_VIRTUAL_WARP: u32 = VIRTUAL_WARP_SIZES[VIRTUAL_WARP_SIZES.len() - 1];

/// One degree bin: work items whose size falls in `(lo, hi]`, processed with
/// `virtual_warp` lanes each.
#[derive(Clone, Debug)]
pub struct Bin {
    /// Exclusive lower bound on item size.
    pub lo: usize,
    /// Inclusive upper bound on item size.
    pub hi: usize,
    /// Number of lanes assigned per item.
    pub virtual_warp: u32,
    /// Item indices in this bin, in increasing order.
    pub items: Vec<u32>,
}

/// A complete binning of `num_items` work items.
#[derive(Clone, Debug)]
pub struct Binning {
    bins: Vec<Bin>,
    num_items: usize,
}

impl Binning {
    /// Bins items by `size(item)` into the paper's power-of-two buckets:
    /// `(0, 8], (8, 16], (16, 32], …, (256, 512], (512, ∞)`.
    ///
    /// Items of size 0 are placed in the smallest bin (they still need a
    /// lane to write their identity result). The per-bin virtual warp is the
    /// smallest permitted size ≥ the bin's upper bound, capped at 512.
    pub fn by_size<F>(num_items: usize, size: F) -> Self
    where
        F: Fn(usize) -> usize,
    {
        let mut bins: Vec<Bin> = VIRTUAL_WARP_SIZES
            .iter()
            .enumerate()
            .map(|(i, &vw)| Bin {
                lo: if i == 0 {
                    0
                } else {
                    VIRTUAL_WARP_SIZES[i - 1] as usize
                },
                hi: vw as usize,
                virtual_warp: vw,
                items: Vec::new(),
            })
            .collect();
        // Overflow bin: items larger than the largest virtual warp; lanes
        // loop over the item in strips of 512.
        bins.push(Bin {
            lo: MAX_VIRTUAL_WARP as usize,
            hi: usize::MAX,
            virtual_warp: MAX_VIRTUAL_WARP,
            items: Vec::new(),
        });

        for item in 0..num_items {
            let s = size(item);
            // The overflow bin's `hi` is usize::MAX, so the search cannot
            // miss; the fallback index is unreachable but keeps this total.
            let idx = bins
                .iter()
                .position(|b| s <= b.hi)
                .unwrap_or(bins.len() - 1);
            // Size-0 items land in bin 0 because 0 <= 8.
            bins[idx].items.push(item as u32);
        }
        bins.retain(|b| !b.items.is_empty());
        Binning { bins, num_items }
    }

    /// The non-empty bins, ordered by increasing item size.
    #[inline]
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Total number of binned work items.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Checks that every item appears in exactly one bin.
    pub fn check_partition(&self) -> Result<(), String> {
        let mut seen = vec![false; self.num_items];
        for bin in &self.bins {
            for &i in &bin.items {
                let i = i as usize;
                if i >= self.num_items {
                    return Err(format!("item {i} out of range"));
                }
                if seen[i] {
                    return Err(format!("item {i} in two bins"));
                }
                seen[i] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("item {missing} unbinned"));
        }
        Ok(())
    }
}

/// The smallest permitted virtual-warp size that covers `work_size` lanes,
/// saturating at 512. This is the paper's rule for choosing lanes-per-item.
pub fn virtual_warp_for(work_size: usize) -> u32 {
    for &vw in &VIRTUAL_WARP_SIZES {
        if work_size <= vw as usize {
            return vw;
        }
    }
    MAX_VIRTUAL_WARP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_all_items() {
        let sizes = [0usize, 3, 9, 17, 33, 70, 300, 600, 5000];
        let b = Binning::by_size(sizes.len(), |i| sizes[i]);
        b.check_partition().unwrap();
    }

    #[test]
    fn bin_boundaries_follow_paper_buckets() {
        let sizes = [8usize, 9, 16, 17];
        let b = Binning::by_size(sizes.len(), |i| sizes[i]);
        // 8 → vw 8 bin; 9 and 16 → vw 16 bin; 17 → vw 32 bin.
        let find = |item: u32| {
            b.bins()
                .iter()
                .find(|bin| bin.items.contains(&item))
                .expect("binned")
                .virtual_warp
        };
        assert_eq!(find(0), 8);
        assert_eq!(find(1), 16);
        assert_eq!(find(2), 16);
        assert_eq!(find(3), 32);
    }

    #[test]
    fn oversized_items_go_to_overflow_bin() {
        let b = Binning::by_size(2, |i| if i == 0 { 4 } else { 100_000 });
        b.check_partition().unwrap();
        let big = b
            .bins()
            .iter()
            .find(|bin| bin.items.contains(&1))
            .expect("binned");
        assert_eq!(big.virtual_warp, 512);
        assert_eq!(big.hi, usize::MAX);
    }

    #[test]
    fn virtual_warp_selection() {
        assert_eq!(virtual_warp_for(1), 8);
        assert_eq!(virtual_warp_for(8), 8);
        assert_eq!(virtual_warp_for(9), 16);
        assert_eq!(virtual_warp_for(32), 32);
        assert_eq!(virtual_warp_for(512), 512);
        assert_eq!(virtual_warp_for(10_000), 512);
    }

    #[test]
    fn empty_input() {
        let b = Binning::by_size(0, |_| 0);
        assert!(b.bins().is_empty());
        b.check_partition().unwrap();
    }

    #[test]
    fn uniform_sizes_single_bin() {
        let b = Binning::by_size(100, |_| 20);
        assert_eq!(b.bins().len(), 1);
        assert_eq!(b.bins()[0].virtual_warp, 32);
        assert_eq!(b.bins()[0].items.len(), 100);
    }
}
