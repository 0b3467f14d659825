//! Per-device telemetry counters.
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Live counters updated by the memory, transfer and launch machinery.
#[derive(Debug, Default)]
pub struct Counters {
    pub(crate) kernel_launches: AtomicU64,
    pub(crate) h2d_transfers: AtomicU64,
    pub(crate) d2h_transfers: AtomicU64,
    pub(crate) h2d_bytes: AtomicU64,
    pub(crate) d2h_bytes: AtomicU64,
    pub(crate) allocations: AtomicU64,
    pub(crate) mem_used: AtomicUsize,
    pub(crate) mem_peak: AtomicUsize,
    /// Wall-clock nanoseconds the host actually spent inside kernel
    /// execution (pool work). This is *host* time, distinct from the
    /// simulated device seconds; the pipeline uses it to keep device work
    /// out of the CPU column of Table I.
    pub(crate) kernel_wall_ns: AtomicU64,
}

impl Counters {
    /// Record a new allocation of `bytes`, maintaining the peak watermark.
    pub(crate) fn alloc(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let used = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.mem_peak.fetch_max(used, Ordering::Relaxed);
    }

    /// Record freeing `bytes`.
    pub(crate) fn free(&self, bytes: usize) {
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Current device memory in use.
    pub(crate) fn used(&self) -> usize {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Take an owned snapshot (paired with clock totals by the caller).
    pub(crate) fn snapshot(
        &self,
        kernel_seconds: f64,
        h2d_seconds: f64,
        d2h_seconds: f64,
        faults_injected: u64,
    ) -> CountersSnapshot {
        CountersSnapshot {
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            h2d_transfers: self.h2d_transfers.load(Ordering::Relaxed),
            d2h_transfers: self.d2h_transfers.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            mem_used: self.mem_used.load(Ordering::Relaxed),
            mem_peak: self.mem_peak.load(Ordering::Relaxed),
            kernel_seconds,
            h2d_seconds,
            d2h_seconds,
            kernel_wall_seconds: self.kernel_wall_ns.load(Ordering::Relaxed) as f64 / 1e9,
            faults_injected,
        }
    }

    /// Reset everything except current memory usage (live buffers remain).
    pub(crate) fn reset(&self) {
        self.kernel_launches.store(0, Ordering::Relaxed);
        self.h2d_transfers.store(0, Ordering::Relaxed);
        self.d2h_transfers.store(0, Ordering::Relaxed);
        self.h2d_bytes.store(0, Ordering::Relaxed);
        self.d2h_bytes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.kernel_wall_ns.store(0, Ordering::Relaxed);
        self.mem_peak
            .store(self.mem_used.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A point-in-time copy of the device telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountersSnapshot {
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Number of host→device copies.
    pub h2d_transfers: u64,
    /// Number of device→host copies.
    pub d2h_transfers: u64,
    /// Bytes copied host→device.
    pub h2d_bytes: u64,
    /// Bytes copied device→host.
    pub d2h_bytes: u64,
    /// Buffer allocations performed.
    pub allocations: u64,
    /// Device memory currently allocated.
    pub mem_used: usize,
    /// Peak device memory.
    pub mem_peak: usize,
    /// Simulated kernel seconds (cost model).
    pub kernel_seconds: f64,
    /// Simulated host→device seconds (Data c→g in Table I).
    pub h2d_seconds: f64,
    /// Simulated device→host seconds (Data g→c in Table I).
    pub d2h_seconds: f64,
    /// Wall-clock host seconds spent executing kernel work on the pool.
    pub kernel_wall_seconds: f64,
    /// Faults injected by the [`crate::fault::FaultInjector`] since the
    /// last counter reset (0 when injection is disabled).
    pub faults_injected: u64,
}

impl CountersSnapshot {
    /// The fully serialized device critical path: every kernel and every
    /// transfer back to back, exactly as the paper's Thrust 1.5 setup ran.
    pub fn serialized_device_seconds(&self) -> f64 {
        self.kernel_seconds + self.h2d_seconds + self.d2h_seconds
    }

    /// Telemetry summed over a fleet's snapshots (peak memory: the largest
    /// device's).
    ///
    /// # Panics
    /// Panics on an empty fleet.
    pub fn fleet_total(snaps: &[CountersSnapshot]) -> CountersSnapshot {
        let (first, rest) = snaps.split_first().expect("a fleet has a device");
        let mut t = *first;
        for c in rest {
            t.kernel_launches += c.kernel_launches;
            t.h2d_transfers += c.h2d_transfers;
            t.d2h_transfers += c.d2h_transfers;
            t.h2d_bytes += c.h2d_bytes;
            t.d2h_bytes += c.d2h_bytes;
            t.allocations += c.allocations;
            t.mem_used += c.mem_used;
            t.mem_peak = t.mem_peak.max(c.mem_peak);
            t.kernel_seconds += c.kernel_seconds;
            t.h2d_seconds += c.h2d_seconds;
            t.d2h_seconds += c.d2h_seconds;
            t.kernel_wall_seconds += c.kernel_wall_seconds;
            t.faults_injected += c.faults_injected;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_peak() {
        let c = Counters::default();
        c.alloc(100);
        c.alloc(50);
        c.free(100);
        c.alloc(10);
        let s = c.snapshot(0.0, 0.0, 0.0, 0);
        assert_eq!(s.mem_used, 60);
        assert_eq!(s.mem_peak, 150);
        assert_eq!(s.allocations, 3);
    }

    #[test]
    fn reset_preserves_live_memory() {
        let c = Counters::default();
        c.alloc(77);
        c.kernel_launches.fetch_add(3, Ordering::Relaxed);
        c.reset();
        let s = c.snapshot(0.0, 0.0, 0.0, 0);
        assert_eq!(s.kernel_launches, 0);
        assert_eq!(s.mem_used, 77);
        assert_eq!(s.mem_peak, 77);
    }
}
