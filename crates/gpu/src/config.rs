//! Device descriptors for the simulator.

/// Static description of a simulated GPU.
///
/// The cost model consumes these figures to convert work (elements, bytes)
/// into simulated device seconds; the memory manager enforces
/// `global_mem_bytes`; the pool sizes itself from the host, not from here
/// (thread blocks are *scheduled onto* however many workers exist, exactly
/// as more blocks than SMs are time-sliced on real silicon).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessor count.
    pub sm_count: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Device global memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Device memory bandwidth in GB/s (for memory-bound kernels).
    pub mem_bandwidth_gbps: f64,
    /// Host↔device transfer bandwidth in GB/s (PCIe, effective).
    pub pcie_bandwidth_gbps: f64,
    /// Per-transfer fixed latency in microseconds.
    pub pcie_latency_us: f64,
    /// Per-kernel-launch fixed overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Fraction of peak arithmetic throughput a tuned kernel sustains.
    pub compute_efficiency: f64,
}

impl DeviceConfig {
    /// The NVIDIA Tesla K20 used in the paper's experiments: 2,496 CUDA
    /// cores (13 SMX × 192), 5 GB GDDR5, 208 GB/s, PCIe gen2 host link.
    ///
    /// `launch_overhead_us` is set to the effective per-primitive overhead
    /// of Thrust 1.5-era calls (kernel launch + temporary-buffer allocation
    /// inside `thrust::sort`), not the bare ~5 µs hardware launch latency.
    /// This fixed cost is what makes the GPU-part speedup *grow* with
    /// workload in Table I (45X on the 20K graph → 374X on 2M): small
    /// per-trial batches pay it in full, large ones amortize it.
    pub fn tesla_k20() -> Self {
        DeviceConfig {
            name: "Tesla K20 (simulated)".to_string(),
            sm_count: 13,
            cores_per_sm: 192,
            clock_ghz: 0.706,
            global_mem_bytes: 5 * 1024 * 1024 * 1024,
            mem_bandwidth_gbps: 208.0,
            pcie_bandwidth_gbps: 6.0,
            pcie_latency_us: 10.0,
            launch_overhead_us: 200.0,
            compute_efficiency: 0.25,
        }
    }

    /// A K20-class card on half the memory and bus bandwidth: same SM
    /// array and clock, so compute-bound kernels run at full rate, but
    /// memory-bound kernels and every transfer take twice as long. Tests
    /// pair one with a [`DeviceConfig::tesla_k20`] to check that a mixed
    /// fleet, dealt evenly, still clusters bit-identically.
    pub fn tesla_k20_half_bandwidth() -> Self {
        DeviceConfig {
            name: "Tesla K20 (half bandwidth, simulated)".to_string(),
            mem_bandwidth_gbps: 104.0,
            pcie_bandwidth_gbps: 3.0,
            ..Self::tesla_k20()
        }
    }

    /// A deliberately tiny device (64 KiB of "global memory") that forces
    /// the batching code paths in tests.
    pub fn tiny_test_device() -> Self {
        DeviceConfig {
            name: "tiny-test".to_string(),
            sm_count: 2,
            cores_per_sm: 32,
            clock_ghz: 1.0,
            global_mem_bytes: 64 * 1024,
            mem_bandwidth_gbps: 10.0,
            pcie_bandwidth_gbps: 1.0,
            pcie_latency_us: 10.0,
            launch_overhead_us: 5.0,
            compute_efficiency: 0.5,
        }
    }

    /// Peak arithmetic throughput in (simple) operations per second.
    pub fn peak_ops_per_sec(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * 1e9
    }

    /// Sustained throughput after the efficiency factor.
    pub fn sustained_ops_per_sec(&self) -> f64 {
        self.peak_ops_per_sec() * self.compute_efficiency
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::tesla_k20()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20_core_count() {
        let c = DeviceConfig::tesla_k20();
        assert_eq!(c.sm_count * c.cores_per_sm, 2_496);
        assert_eq!(c.global_mem_bytes, 5 * 1024 * 1024 * 1024);
    }

    #[test]
    fn throughput_positive_and_ordered() {
        let c = DeviceConfig::tesla_k20();
        assert!(c.peak_ops_per_sec() > 1e12); // 2496 cores * 0.7 GHz ≈ 1.76 T
        assert!(c.sustained_ops_per_sec() < c.peak_ops_per_sec());
        assert!(c.sustained_ops_per_sec() > 0.0);
    }

    #[test]
    fn half_bandwidth_k20_halves_only_the_bandwidths() {
        let full = DeviceConfig::tesla_k20();
        let half = DeviceConfig::tesla_k20_half_bandwidth();
        assert_eq!(half.mem_bandwidth_gbps, full.mem_bandwidth_gbps / 2.0);
        assert_eq!(half.pcie_bandwidth_gbps, full.pcie_bandwidth_gbps / 2.0);
        assert_eq!(half.global_mem_bytes, full.global_mem_bytes);
        assert_eq!(half.sm_count, full.sm_count);
        assert_eq!(half.peak_ops_per_sec(), full.peak_ops_per_sec());
        assert_ne!(half.name, full.name);
    }

    #[test]
    fn tiny_device_is_tiny() {
        let c = DeviceConfig::tiny_test_device();
        assert!(c.global_mem_bytes < 1024 * 1024);
    }
}
