//! Host↔device transfer accounting.
//!
//! The paper notes that "the data movement overhead between CPU and GPU
//! is unavoidable"; every copy here is charged `latency + bytes /
//! bandwidth` of simulated time and tallied in the counters that become
//! the *Data c→g* and *Data g→c* columns of Table I. Copies are issued on
//! a [`crate::stream::Stream`], which also queues that time on its cursor.

use crate::simt::Gpu;
use std::sync::atomic::Ordering;

impl Gpu {
    /// Simulated seconds to move `bytes` across the host↔device link.
    pub fn model_transfer_seconds(&self, bytes: usize) -> f64 {
        let c = self.config();
        c.pcie_latency_us * 1e-6 + bytes as f64 / (c.pcie_bandwidth_gbps * 1e9)
    }

    /// Account one host→device copy of `bytes`: counters and clock charge.
    /// Returns the modeled transfer seconds.
    pub(crate) fn tally_h2d(&self, bytes: usize) -> f64 {
        self.shared
            .counters
            .h2d_transfers
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .h2d_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let modeled = self.model_transfer_seconds(bytes);
        self.shared.clock.charge_h2d(modeled);
        modeled
    }

    /// Account one device→host copy of `bytes` (see [`Gpu::tally_h2d`]).
    pub(crate) fn tally_d2h(&self, bytes: usize) -> f64 {
        self.shared
            .counters
            .d2h_transfers
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .d2h_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let modeled = self.model_transfer_seconds(bytes);
        self.shared.clock.charge_d2h(modeled);
        modeled
    }
}

#[cfg(test)]
mod tests {
    use crate::config::DeviceConfig;
    use crate::simt::Gpu;

    fn gpu() -> Gpu {
        Gpu::with_workers(DeviceConfig::tesla_k20(), 1)
    }

    #[test]
    fn htod_dtoh_roundtrip() {
        let g = gpu();
        let s = g.stream("copy");
        let data: Vec<u64> = (0..10_000).collect();
        let buf = s.htod_async(&data).unwrap();
        assert_eq!(s.dtoh_async(&buf), data);
    }

    #[test]
    fn transfer_counters_accumulate() {
        let g = gpu();
        let s = g.stream("copy");
        let buf = s.htod_async(&vec![0u32; 1_000]).unwrap(); // 4 KB
        let _ = s.dtoh_async(&buf);
        let _ = s.dtoh_async(&buf);
        let snap = g.counters();
        assert_eq!(snap.h2d_transfers, 1);
        assert_eq!(snap.d2h_transfers, 2);
        assert_eq!(snap.h2d_bytes, 4_000);
        assert_eq!(snap.d2h_bytes, 8_000);
        assert!(snap.h2d_seconds > 0.0);
        assert!(snap.d2h_seconds > snap.h2d_seconds);
    }

    #[test]
    fn transfer_time_model_linear_in_bytes() {
        let g = gpu();
        let t1 = g.model_transfer_seconds(1_000_000);
        let t2 = g.model_transfer_seconds(2_000_000);
        let lat = g.config().pcie_latency_us * 1e-6;
        assert!(((t2 - lat) / (t1 - lat) - 2.0).abs() < 1e-9);
    }
}
