//! Component timers for the Table I breakdown.
//!
//! The paper decomposes gpClust runtime into: CPU (host-side aggregation
//! and reporting), GPU (kernel time), Data c→g, Data g→c, and Disk I/O.
//! In this reproduction the CPU and Disk columns are *measured wall-clock*
//! seconds on the host, while the GPU and transfer columns are *simulated
//! device seconds* from the cost model — the distinction every report
//! spells out (see EXPERIMENTS.md).
use std::time::Instant;

/// A simple accumulating stopwatch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stopwatch {
    seconds: f64,
}

impl Stopwatch {
    /// Zeroed stopwatch.
    pub fn new() -> Self {
        Stopwatch::default()
    }

    /// Time `f`, adding its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.seconds += start.elapsed().as_secs_f64();
        out
    }

    /// Add raw seconds.
    pub fn add(&mut self, seconds: f64) {
        self.seconds += seconds;
    }

    /// Accumulated seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}

/// High-water-mark gauge for host-resident working-set bytes — how the
/// out-of-core path *observes* (rather than asserts) its memory bound.
/// Drivers charge an allocation when a shard's records materialize and
/// discharge it once the buffer spills or drops; the peak is what the
/// `--mem-budget` acceptance check compares against.
///
/// The gauge tracks the bytes the sharding machinery controls (raw
/// record buffers, sorted runs, the merge frontier) — not the process
/// RSS, which the simulated device model has no business estimating.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResidentGauge {
    current: u64,
    peak: u64,
}

impl ResidentGauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        ResidentGauge::default()
    }

    /// Charge `bytes` to the resident set, raising the peak if needed.
    pub fn charge(&mut self, bytes: u64) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    /// Release `bytes` (saturating — a discharge can never go negative).
    pub fn discharge(&mut self, bytes: u64) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Replace the current charge with `bytes` (for callers that re-measure
    /// a buffer instead of tracking deltas), raising the peak if needed.
    pub fn set_floor(&mut self, bytes: u64) {
        self.current = self.current.max(bytes);
        self.peak = self.peak.max(self.current);
    }

    /// Bytes currently charged.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark over the gauge's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// Tally of every recovery action the resilience layer took during one
/// run (see [`crate::params::FaultPolicy`]). All zeros on a fault-free
/// run; results are bit-identical either way — this report is how a run
/// says *what it survived*.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryReport {
    /// Transient faults (failed transfers/launches, ECC events) cleared
    /// by re-attempting the same operation.
    pub retries: u64,
    /// Times an `OutOfMemory` halved the planned batch capacity and
    /// re-planned a device pass.
    pub oom_backoffs: u64,
    /// Batches that exhausted their retries and ran on the bit-identical
    /// host path instead.
    pub degraded_batches: u64,
    /// Devices lost mid-run (multi-GPU; their remaining batches were
    /// redistributed across survivors).
    pub lost_devices: u64,
    /// Batches re-executed on a surviving device after a device loss.
    pub redistributed_batches: u64,
    /// Faults the injector fired during the run (0 without injection).
    pub faults_injected: u64,
    /// Shards skipped because the checkpoint journal held their sealed
    /// runs and they re-verified clean (see [`crate::checkpoint`]): on a
    /// `--resume`, and also within one checkpointed run when an
    /// `OutOfMemory` re-plans Pass I after some shards committed.
    pub resumed_shards: u64,
    /// Shards whose committed sealed runs failed checksum verification —
    /// detected corruption, answered by re-running the shard. An entry
    /// recorded for another element range is no failure: the shard just
    /// re-runs.
    pub checksum_failures: u64,
    /// Host wall seconds spent inside recovery (retry loops, degraded
    /// host execution, re-planning).
    pub recovery_seconds: f64,
}

impl RecoveryReport {
    /// True if any recovery action was taken (or any fault injected).
    pub fn any(&self) -> bool {
        self.retries != 0
            || self.oom_backoffs != 0
            || self.degraded_batches != 0
            || self.lost_devices != 0
            || self.redistributed_batches != 0
            || self.faults_injected != 0
            || self.resumed_shards != 0
            || self.checksum_failures != 0
    }

    /// Fold another report into this one (multi-device / multi-pass).
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.retries += other.retries;
        self.oom_backoffs += other.oom_backoffs;
        self.degraded_batches += other.degraded_batches;
        self.lost_devices += other.lost_devices;
        self.redistributed_batches += other.redistributed_batches;
        self.faults_injected += other.faults_injected;
        self.resumed_shards += other.resumed_shards;
        self.checksum_failures += other.checksum_failures;
        self.recovery_seconds += other.recovery_seconds;
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault(s) injected | {} retries | {} OOM backoff(s) | {} degraded batch(es) \
             | {} lost device(s), {} batch(es) redistributed \
             | {} shard(s) resumed, {} checksum failure(s) | recovery {:.3}s",
            self.faults_injected,
            self.retries,
            self.oom_backoffs,
            self.degraded_batches,
            self.lost_devices,
            self.redistributed_batches,
            self.resumed_shards,
            self.checksum_failures,
            self.recovery_seconds
        )
    }
}

/// The per-component times of one gpClust run (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// Host-side work: aggregation, reporting, batching (measured wall s,
    /// net of [`StageTimes::emulation`] and of spill traffic).
    pub cpu: f64,
    /// Host wall seconds the simulated devices spent running their
    /// kernels on the SM worker pool
    /// ([`gpclust_gpu::CountersSnapshot::kernel_wall_seconds`]). It
    /// stands in for the device, whose own time [`StageTimes::gpu`]
    /// models, so [`StageTimes::total`] leaves it out.
    pub emulation: f64,
    /// Device kernel time (simulated s).
    pub gpu: f64,
    /// Host→device transfer time, "Data c→g" (simulated s).
    pub h2d: f64,
    /// Device→host transfer time, "Data g→c" (simulated s).
    pub d2h: f64,
    /// Graph load time from disk (measured wall s).
    pub disk_io: f64,
    /// Modeled device critical path (simulated s): the makespan of the
    /// double-buffered compute/copy stream pair, which is what
    /// transfer/compute overlap buys. The paper's blocking-copy total is
    /// [`StageTimes::device_serialized`].
    pub device_pipelined: f64,
    /// Batches across both device passes (capacity-driven splits must
    /// never be silent; see [`crate::batch::BatchStats`]).
    pub n_batches: u64,
    /// Batches of each device pass (`[pass I, pass II]`); they sum to
    /// [`StageTimes::n_batches`].
    pub pass_batches: [u64; 2],
    /// Vertex-range shards Pass I was carved into (one for a resident
    /// pass over a non-empty input).
    pub shards: u64,
    /// Elements in the largest batch of either pass.
    pub max_batch_elems: u64,
    /// Per-element device-memory footprint the batches were planned at
    /// (bytes; see [`crate::batch::BYTES_PER_ELEM`]).
    pub elem_footprint_bytes: u64,
    /// Every recovery action the resilience layer took (all zeros on a
    /// fault-free run).
    pub recovery: RecoveryReport,
    /// Peak host-resident working-set bytes the run's record buffers
    /// reached ([`ResidentGauge`] high-water mark). Under a `--mem-budget`
    /// this is the figure the bound is checked against; 0 when the run
    /// never measured residency.
    pub peak_resident_bytes: u64,
    /// Bytes of sorted runs spilled to disk by the out-of-core path
    /// (0 for fully resident runs). The spill write/read wall time folds
    /// into [`StageTimes::disk_io`].
    pub spilled_bytes: u64,
}

impl StageTimes {
    /// Fold both device passes' batch plans (`[pass I, pass II]`) into
    /// the visibility fields.
    pub fn record_batch_stats(&mut self, passes: &[crate::batch::BatchStats; 2]) {
        for (n, stats) in self.pass_batches.iter_mut().zip(passes) {
            *n = stats.n_batches;
            self.n_batches += stats.n_batches;
            self.max_batch_elems = self.max_batch_elems.max(stats.max_batch_elems);
            self.elem_footprint_bytes = self.elem_footprint_bytes.max(stats.elem_footprint_bytes);
        }
    }

    /// Total runtime as the paper composes it: the host clocks CPU and
    /// disk plus the simulated device clocks GPU, c→g and g→c, summed with
    /// no overlap (Thrust 1.5 transfers are synchronous). The host wall of
    /// the kernel emulation ([`StageTimes::emulation`]) is not a paper
    /// component and is not added: on one device, `cpu + emulation +
    /// disk_io` is the run's measured wall time instead.
    pub fn total(&self) -> f64 {
        self.cpu + self.gpu + self.h2d + self.d2h + self.disk_io
    }

    /// The serialized device critical path: kernels plus both transfer
    /// directions back to back (the sum of the three Table I device
    /// columns).
    pub fn device_serialized(&self) -> f64 {
        self.gpu + self.h2d + self.d2h
    }

    /// Total with the device portion replaced by the pipelined makespan —
    /// the end-to-end time a run under stream overlap would take.
    pub fn total_pipelined(&self) -> f64 {
        self.cpu + self.disk_io + self.device_pipelined
    }
}

impl std::fmt::Display for StageTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CPU {:.2}s | emulation {:.2}s | GPU {:.4}s | c→g {:.4}s | g→c {:.4}s \
             | disk {:.3}s | total {:.2}s | device pipelined {:.4}s \
             | pass I {} + pass II {} batch(es), max {} elems @ {} B/elem",
            self.cpu,
            self.emulation,
            self.gpu,
            self.h2d,
            self.d2h,
            self.disk_io,
            self.total(),
            self.device_pipelined,
            self.pass_batches[0],
            self.pass_batches[1],
            self.max_batch_elems,
            self.elem_footprint_bytes
        )?;
        if self.peak_resident_bytes > 0 {
            write!(
                f,
                " | resident peak {} B in {} shard(s)",
                self.peak_resident_bytes, self.shards
            )?;
            if self.spilled_bytes > 0 {
                write!(f, " (spilled {} B)", self.spilled_bytes)?;
            }
        }
        if self.recovery.any() {
            write!(f, " | recovery: {}", self.recovery)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_accumulates() {
        let mut sw = Stopwatch::new();
        let x = sw.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(x, 42);
        sw.add(0.5);
        assert!(sw.seconds() >= 0.51);
    }

    #[test]
    fn totals_compose() {
        let t = StageTimes {
            cpu: 1.0,
            emulation: 8.0,
            gpu: 2.0,
            h2d: 0.25,
            d2h: 0.75,
            disk_io: 0.5,
            device_pipelined: 2.25,
            ..Default::default()
        };
        assert!((t.total() - 4.5).abs() < 1e-12);
        assert!((t.device_serialized() - 3.0).abs() < 1e-12);
        assert!((t.total_pipelined() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_all_components() {
        let s = StageTimes::default().to_string();
        for needle in [
            "CPU",
            "emulation",
            "GPU",
            "c→g",
            "g→c",
            "disk",
            "total",
            "pipelined",
            "batch",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn recovery_report_merges_and_displays() {
        let mut a = RecoveryReport {
            retries: 2,
            oom_backoffs: 1,
            degraded_batches: 1,
            lost_devices: 0,
            redistributed_batches: 0,
            faults_injected: 7,
            resumed_shards: 2,
            checksum_failures: 1,
            recovery_seconds: 0.25,
        };
        let b = RecoveryReport {
            lost_devices: 1,
            redistributed_batches: 4,
            faults_injected: 1,
            recovery_seconds: 0.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 2);
        assert_eq!(a.lost_devices, 1);
        assert_eq!(a.redistributed_batches, 4);
        assert_eq!(a.faults_injected, 8);
        assert!((a.recovery_seconds - 0.75).abs() < 1e-12);
        assert!(a.any());
        assert!(!RecoveryReport::default().any());
        let s = a.to_string();
        for needle in [
            "retries", "OOM", "degraded", "lost", "resumed", "checksum", "recovery",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
        // A fault-free StageTimes display stays free of recovery noise; a
        // recovering one appends it.
        assert!(!StageTimes::default().to_string().contains("recovery"));
        let t = StageTimes {
            recovery: a,
            ..Default::default()
        };
        assert!(t.to_string().contains("recovery"));
    }

    #[test]
    fn resident_gauge_tracks_the_high_water_mark() {
        let mut g = ResidentGauge::new();
        assert_eq!(g.peak(), 0);
        g.charge(100);
        g.charge(50);
        assert_eq!(g.current(), 150);
        assert_eq!(g.peak(), 150);
        g.discharge(120);
        assert_eq!(g.current(), 30);
        assert_eq!(g.peak(), 150, "peak survives discharges");
        g.discharge(1000);
        assert_eq!(g.current(), 0, "discharge saturates");
        g.set_floor(40);
        assert_eq!(g.current(), 40);
        g.set_floor(10);
        assert_eq!(g.current(), 40, "set_floor never lowers the charge");
        assert_eq!(g.peak(), 150);

        // The StageTimes display stays silent without a measurement and
        // reports peak + spill once one exists.
        assert!(!StageTimes::default().to_string().contains("resident"));
        let t = StageTimes {
            peak_resident_bytes: 150,
            spilled_bytes: 64,
            shards: 3,
            ..Default::default()
        };
        let s = t.to_string();
        assert!(s.contains("resident peak 150 B in 3 shard(s)"), "{s}");
        assert!(s.contains("spilled 64 B"), "{s}");
    }

    #[test]
    fn batch_stats_fold_into_stage_times() {
        let mut t = StageTimes::default();
        t.record_batch_stats(&[
            crate::batch::BatchStats {
                n_batches: 3,
                max_batch_elems: 1000,
                capacity_elems: 1024,
                elem_footprint_bytes: 16,
            },
            crate::batch::BatchStats {
                n_batches: 2,
                max_batch_elems: 500,
                capacity_elems: 1024,
                elem_footprint_bytes: 16,
            },
        ]);
        assert_eq!(t.n_batches, 5);
        assert_eq!(t.pass_batches, [3, 2]);
        assert_eq!(t.max_batch_elems, 1000);
        assert_eq!(t.elem_footprint_bytes, 16);
        let s = t.to_string();
        assert!(s.contains("pass I 3 + pass II 2 batch(es)"), "{s}");
    }
}
