//! The launch simulator: bins work items, assigns virtual warps, counts
//! lane slots and memory transactions, and converts them to modeled time
//! under a [`DeviceSpec`].

use crate::device::DeviceSpec;
use crate::footprint::Footprint;
use cualign_graph::binning::Binning;

/// Which of the paper's §5 optimizations are active. Each is independently
/// toggleable so the ablation benches can quantify it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Degree binning (one launch per size class).
    pub binning: bool,
    /// Virtual warps sized per bin (requires binning; without it every
    /// item gets one full 32-lane warp).
    pub virtual_warps: bool,
    /// CUDA-stream-like concurrent bin launches.
    pub streams: bool,
}

impl ExecConfig {
    /// Everything on — the cuAlign configuration.
    pub fn optimized() -> Self {
        ExecConfig {
            binning: true,
            virtual_warps: true,
            streams: true,
        }
    }

    /// Everything off — the naive "one warp per item, serial launches"
    /// port the paper warns about.
    pub fn naive() -> Self {
        ExecConfig {
            binning: false,
            virtual_warps: false,
            streams: false,
        }
    }
}

/// Cost of one bin's kernel.
#[derive(Clone, Debug)]
pub struct BinCost {
    /// Lanes per item in this bin.
    pub virtual_warp: u32,
    /// Items in the bin.
    pub items: usize,
    /// Lane-slots that did useful work.
    pub active_lane_slots: u64,
    /// Lane-slots wasted on lanes past the item size.
    pub idle_lane_slots: u64,
    /// Coalesced memory transactions.
    pub coalesced_tx: u64,
    /// Scattered (one-per-lane) memory transactions.
    pub scattered_tx: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Roofline components in seconds.
    pub compute_s: f64,
    /// DRAM-bytes component.
    pub bandwidth_s: f64,
    /// Transaction-latency component.
    pub latency_s: f64,
    /// Load-imbalance tail: the single longest item's serial time. One
    /// virtual warp processes an item strip by strip, so a hub item
    /// finishes `strips × per-strip-cycles` after the balanced bulk — the
    /// §5 pathology that degree binning + virtual warps attack.
    pub critical_path_s: f64,
}

impl BinCost {
    /// The bin's bottleneck time (balanced bulk, excluding the tail).
    pub fn bottleneck_s(&self) -> f64 {
        self.compute_s.max(self.bandwidth_s).max(self.latency_s)
    }

    /// Bulk plus imbalance tail.
    pub fn total_s(&self) -> f64 {
        self.bottleneck_s() + self.critical_path_s
    }
}

/// Aggregate result of simulating one kernel launch (or one binned family
/// of launches).
#[derive(Clone, Debug)]
pub struct LaunchStats {
    /// Per-bin costs (single pseudo-bin when binning is off).
    pub bins: Vec<BinCost>,
    /// Modeled wall-clock seconds including launch overheads.
    pub seconds: f64,
    /// Number of kernel launches charged.
    pub launches: usize,
}

impl LaunchStats {
    /// Total idle lane slots across bins.
    pub fn idle_lane_slots(&self) -> u64 {
        self.bins.iter().map(|b| b.idle_lane_slots).sum()
    }

    /// Total active lane slots across bins.
    pub fn active_lane_slots(&self) -> u64 {
        self.bins.iter().map(|b| b.active_lane_slots).sum()
    }

    /// Total memory transactions (coalesced + scattered).
    pub fn transactions(&self) -> u64 {
        self.bins
            .iter()
            .map(|b| b.coalesced_tx + b.scattered_tx)
            .sum()
    }

    /// DRAM bytes moved under the device's transaction size.
    pub fn bytes(&self, device: &DeviceSpec) -> u64 {
        self.transactions() * device.transaction_bytes as u64
    }

    /// Fraction of issue slots wasted idle.
    pub fn idle_fraction(&self) -> f64 {
        let a = self.active_lane_slots();
        let i = self.idle_lane_slots();
        if a + i == 0 {
            0.0
        } else {
            i as f64 / (a + i) as f64
        }
    }
}

/// Transactions needed to move `elems` contiguous f64 under `tb`-byte
/// transactions.
#[inline]
fn contiguous_tx(elems: usize, tb: usize) -> u64 {
    ((elems * 8).div_ceil(tb)) as u64
}

/// Simulates launching a kernel over `sizes.len()` work items, where item
/// `i` has size `sizes[i]` and per-item resource use `footprint(sizes[i])`.
///
/// The footprint's element counts are interpreted as spread across the
/// item's lanes: contiguous elements coalesce into transactions, scattered
/// elements pay one transaction each.
pub fn simulate_launch<F>(
    device: &DeviceSpec,
    cfg: &ExecConfig,
    sizes: &[usize],
    footprint: F,
) -> LaunchStats
where
    F: Fn(usize) -> Footprint + Sync,
{
    let simt = device.warp_width > 1;
    // Partition items into bins.
    let binning = if cfg.binning && simt {
        Binning::by_size(sizes.len(), |i| sizes[i])
    } else {
        Binning::by_size(sizes.len(), |_| 1).merged_single()
    };

    let mut bins = Vec::new();
    for bin in binning.bins() {
        let vw: u32 = if !simt {
            1
        } else if cfg.binning && cfg.virtual_warps {
            bin.virtual_warp
        } else {
            device.warp_width
        };
        let mut active: u64 = 0;
        let mut idle: u64 = 0;
        let mut coal: u64 = 0;
        let mut scat: u64 = 0;
        let mut flops: u64 = 0;
        let mut max_item_cycles: f64 = 0.0;
        for &item in &bin.items {
            let s = sizes[item as usize].max(1);
            let fp = footprint(sizes[item as usize]);
            let strips = s.div_ceil(vw as usize) as u64;
            active += s as u64;
            idle += strips * vw as u64 - s as u64;
            coal += contiguous_tx(fp.contiguous_reads, device.transaction_bytes)
                + contiguous_tx(fp.contiguous_writes, device.transaction_bytes);
            scat += (fp.scattered_reads + fp.scattered_writes) as u64;
            flops += fp.flops as u64;
            // Serial time of this item on its virtual warp: each strip
            // issues its lane loads (amortized by the device's
            // memory-level parallelism when scattered, pipelined when
            // streaming) and its lane math.
            let flops_per_elem = fp.flops as f64 / s as f64;
            let stall = if fp.scattered_reads + fp.scattered_writes > 0 {
                device.dram_latency_cycles / device.memory_parallelism
            } else {
                8.0
            };
            let item_cycles =
                strips as f64 * (flops_per_elem / device.flops_per_lane_cycle + stall);
            max_item_cycles = max_item_cycles.max(item_cycles);
        }
        // Roofline components.
        let compute_s =
            (flops as f64 / device.flops_per_lane_cycle + idle as f64) / device.lane_throughput();
        let bytes = (coal + scat) * device.transaction_bytes as u64;
        let bandwidth_s = bytes as f64 / (device.dram_gbps * 1e9);
        // Only scattered transactions are latency-bound: coalesced traffic
        // streams through the prefetch/pipeline machinery and is charged to
        // bandwidth alone.
        let latency_s = scat as f64 * device.dram_latency_cycles
            / (device.warp_slots() as f64 * device.memory_parallelism * device.clock_ghz * 1e9);
        let critical_path_s = max_item_cycles / (device.clock_ghz * 1e9);
        bins.push(BinCost {
            virtual_warp: vw,
            items: bin.items.len(),
            active_lane_slots: active,
            idle_lane_slots: idle,
            coalesced_tx: coal,
            scattered_tx: scat,
            flops,
            compute_s,
            bandwidth_s,
            latency_s,
            critical_path_s,
        });
    }

    let launches = bins.len().max(1);
    let tail: f64 = bins.iter().map(|b| b.critical_path_s).fold(0.0, f64::max);
    let seconds = if cfg.streams && simt {
        // Bins overlap: each hardware resource pipelines across bins; the
        // slowest resource bounds the launch family, plus the longest
        // item's tail. One overhead charge.
        let c: f64 = bins.iter().map(|b| b.compute_s).sum();
        let bw: f64 = bins.iter().map(|b| b.bandwidth_s).sum();
        let lt: f64 = bins.iter().map(|b| b.latency_s).sum();
        c.max(bw).max(lt) + tail + device.launch_overhead_s
    } else {
        // Serial launches: each bin pays its own bulk + tail.
        bins.iter().map(|b| b.total_s()).sum::<f64>() + device.launch_overhead_s * launches as f64
    };

    let stats = LaunchStats {
        bins,
        seconds,
        launches,
    };
    // Every simulated kernel family passes through here, so these
    // instruments are a complete account of modeled GPU work.
    let reg = cualign_telemetry::current();
    reg.counter("gpusim.launches").add(stats.launches as u64);
    reg.counter("gpusim.active_lane_slots")
        .add(stats.active_lane_slots());
    reg.counter("gpusim.idle_lane_slots")
        .add(stats.idle_lane_slots());
    reg.counter("gpusim.coalesced_tx")
        .add(stats.bins.iter().map(|b| b.coalesced_tx).sum());
    reg.counter("gpusim.scattered_tx")
        .add(stats.bins.iter().map(|b| b.scattered_tx).sum());
    reg.histogram("gpusim.launch_seconds").record(stats.seconds);
    stats
}

/// Helper: merge a Binning into one pseudo-bin keeping all items.
trait MergeSingle {
    fn merged_single(self) -> Binning;
}

impl MergeSingle for Binning {
    fn merged_single(self) -> Binning {
        let n = self.num_items();
        Binning::by_size(n, |_| usize::MAX / 2) // everything in the overflow bin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_footprint(s: usize) -> Footprint {
        Footprint {
            contiguous_reads: s,
            scattered_reads: 0,
            contiguous_writes: s,
            scattered_writes: 0,
            flops: 2 * s,
        }
    }

    #[test]
    fn cpu_has_no_idle_lanes() {
        let cpu = DeviceSpec::epyc7702p();
        let sizes = vec![3usize, 100, 7, 1];
        let st = simulate_launch(&cpu, &ExecConfig::optimized(), &sizes, unit_footprint);
        assert_eq!(st.idle_lane_slots(), 0);
    }

    #[test]
    fn binning_reduces_idle_slots_on_skewed_sizes() {
        let gpu = DeviceSpec::a100();
        // Many tiny items + a few huge ones: the §5 pathology.
        let mut sizes = vec![2usize; 1000];
        sizes.extend(std::iter::repeat_n(500, 10));
        let naive = simulate_launch(&gpu, &ExecConfig::naive(), &sizes, unit_footprint);
        let opt = simulate_launch(&gpu, &ExecConfig::optimized(), &sizes, unit_footprint);
        assert!(
            opt.idle_lane_slots() < naive.idle_lane_slots() / 2,
            "binning did not cut idle slots: {} vs {}",
            opt.idle_lane_slots(),
            naive.idle_lane_slots()
        );
        assert!(opt.seconds <= naive.seconds);
    }

    #[test]
    fn scattered_access_costs_more_transactions() {
        let gpu = DeviceSpec::a100();
        let sizes = vec![64usize; 100];
        let coal = simulate_launch(&gpu, &ExecConfig::optimized(), &sizes, |s| Footprint {
            contiguous_reads: s,
            ..Default::default()
        });
        let scat = simulate_launch(&gpu, &ExecConfig::optimized(), &sizes, |s| Footprint {
            scattered_reads: s,
            ..Default::default()
        });
        // 32-byte transactions hold 4 contiguous f64 → 4× fewer transactions.
        assert_eq!(scat.transactions(), 4 * coal.transactions());
    }

    #[test]
    fn streams_overlap_bins() {
        let gpu = DeviceSpec::a100();
        let mut sizes = vec![4usize; 500];
        sizes.extend(std::iter::repeat_n(100, 500));
        let no_streams = simulate_launch(
            &gpu,
            &ExecConfig {
                streams: false,
                ..ExecConfig::optimized()
            },
            &sizes,
            unit_footprint,
        );
        let streams = simulate_launch(&gpu, &ExecConfig::optimized(), &sizes, unit_footprint);
        assert!(streams.seconds <= no_streams.seconds);
    }

    #[test]
    fn gpu_beats_cpu_on_streaming_kernel() {
        // A large regular kernel is bandwidth-bound: the A100 should win by
        // roughly the bandwidth ratio (~13×).
        let gpu = DeviceSpec::a100();
        let cpu = DeviceSpec::epyc7702p();
        let sizes = vec![64usize; 200_000];
        let g = simulate_launch(&gpu, &ExecConfig::optimized(), &sizes, unit_footprint);
        let c = simulate_launch(&cpu, &ExecConfig::optimized(), &sizes, unit_footprint);
        let speedup = c.seconds / g.seconds;
        assert!(speedup > 5.0 && speedup < 25.0, "speedup {speedup}");
    }

    #[test]
    fn empty_launch() {
        let gpu = DeviceSpec::a100();
        let st = simulate_launch(&gpu, &ExecConfig::optimized(), &[], unit_footprint);
        assert_eq!(st.transactions(), 0);
        assert!(st.seconds >= 0.0);
    }

    #[test]
    fn idle_fraction_bounds() {
        let gpu = DeviceSpec::a100();
        let sizes = vec![1usize; 64];
        let st = simulate_launch(&gpu, &ExecConfig::naive(), &sizes, unit_footprint);
        // Size-1 items on 32-wide warps: 31/32 idle.
        assert!((st.idle_fraction() - 31.0 / 32.0).abs() < 1e-9);
    }
}
