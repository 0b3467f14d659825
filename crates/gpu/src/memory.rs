//! Device global memory: capacity-enforced buffers.
//!
//! The Tesla K20's 5 GB device memory is the constraint that shapes
//! gpClust's design ("to process the large-scale input graph on the
//! relative small device memory, the input graph ... can be partitioned
//! into batches"). Buffers here live in host RAM, but every allocation is
//! charged against the configured capacity and fails with
//! [`DeviceError::OutOfMemory`] when it would not have fit on the card —
//! so the batching logic upstream is exercised exactly as on hardware.

use crate::simt::{Gpu, Shared};
use std::sync::Arc;

/// Element types storable in device buffers (plain old data).
pub trait Pod: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Pod for T {}

/// Errors raised by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation exceeded the remaining device memory.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still available on the device.
        available: usize,
        /// Total device capacity.
        capacity: usize,
    },
    /// A host↔device copy failed (transient — retryable).
    TransferFailed {
        /// True for host→device, false for device→host.
        h2d: bool,
        /// Bytes the failed copy was moving.
        bytes: usize,
    },
    /// A kernel failed to launch (transient — retryable).
    LaunchFailed,
    /// An uncorrectable ECC memory event (transient — the operation can
    /// be retried on freshly written data).
    Ecc,
    /// The device fell off the bus; terminal for this device.
    DeviceLost {
        /// Index of the lost device.
        device: u32,
    },
    /// A host-side operation failed: spill or checkpoint file I/O,
    /// reading the input graph, or a memory budget no plan can meet. Not
    /// a device fault at all — surfaced through the same error channel
    /// because the drivers treat "the pass cannot finish" uniformly.
    HostIo {
        /// The failure, rendered to text; it names its own source.
        detail: String,
    },
}

impl DeviceError {
    /// True for faults that a bounded retry of the same operation can
    /// plausibly clear (transfer, launch, ECC). `OutOfMemory` wants a
    /// smaller plan, not a retry; `DeviceLost` is terminal.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DeviceError::TransferFailed { .. } | DeviceError::LaunchFailed | DeviceError::Ecc
        )
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} B, {available} B \
                 free of {capacity} B"
            ),
            DeviceError::TransferFailed { h2d, bytes } => write!(
                f,
                "{} transfer of {bytes} B failed",
                if *h2d {
                    "host-to-device"
                } else {
                    "device-to-host"
                }
            ),
            DeviceError::LaunchFailed => write!(f, "kernel launch failed"),
            DeviceError::Ecc => write!(f, "uncorrectable ECC memory error"),
            DeviceError::DeviceLost { device } => {
                write!(f, "device {device} lost (fell off the bus)")
            }
            DeviceError::HostIo { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A typed allocation in simulated device global memory.
///
/// Host code cannot read it directly (use
/// [`crate::stream::Stream::dtoh_async`]); kernels access it via the
/// thrust primitives. Dropping the buffer frees its device bytes.
pub struct DeviceBuffer<T: Pod> {
    pub(crate) data: Vec<T>,
    bytes: usize,
    shared: Arc<Shared>,
}

impl<T: Pod> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in device bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Kernel-side view of the data. Exposed for custom kernels; host logic
    /// should move data with [`crate::stream::Stream::dtoh_async`] so
    /// transfer costs are accounted.
    pub fn device_slice(&self) -> &[T] {
        &self.data
    }

    /// Kernel-side mutable view of the data.
    pub fn device_slice_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Pod> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.shared.counters.free(self.bytes);
    }
}

impl<T: Pod> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.data.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Gpu {
    /// Bytes currently free on the device.
    pub fn mem_available(&self) -> usize {
        self.shared
            .config
            .global_mem_bytes
            .saturating_sub(self.shared.counters.used())
    }

    /// Allocate an uninitialized-content buffer of `len` elements
    /// (zero-filled; real CUDA leaves garbage, but determinism wins here).
    pub fn alloc<T: Pod + Default>(&self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = len * std::mem::size_of::<T>();
        self.try_reserve(bytes)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            bytes,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Internal: check capacity and account the allocation.
    pub(crate) fn try_reserve(&self, bytes: usize) -> Result<(), DeviceError> {
        if let Some(e) = self.injected_fault(crate::fault::FaultSite::Alloc, bytes) {
            return Err(e);
        }
        let capacity = self.shared.config.global_mem_bytes;
        let used = self.shared.counters.used();
        let available = capacity.saturating_sub(used);
        if bytes > available {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                available,
                capacity,
            });
        }
        self.shared.counters.alloc(bytes);
        Ok(())
    }

    /// Internal: wrap a host vector as a device buffer (used by transfers).
    pub(crate) fn adopt<T: Pod>(&self, data: Vec<T>) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = data.len() * std::mem::size_of::<T>();
        self.try_reserve(bytes)?;
        Ok(DeviceBuffer {
            data,
            bytes,
            shared: Arc::clone(&self.shared),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn tiny_gpu() -> Gpu {
        Gpu::with_workers(DeviceConfig::tiny_test_device(), 1)
    }

    #[test]
    fn alloc_within_capacity() {
        let g = tiny_gpu();
        let buf = g.alloc::<u64>(1_000).unwrap(); // 8 KB of 64 KB
        assert_eq!(buf.len(), 1_000);
        assert_eq!(buf.bytes(), 8_000);
        assert_eq!(g.counters().mem_used, 8_000);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let g = tiny_gpu();
        let err = g.alloc::<u64>(100_000).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested,
                capacity,
                ..
            } => {
                assert_eq!(requested, 800_000);
                assert_eq!(capacity, 64 * 1024);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn drop_frees_memory() {
        let g = tiny_gpu();
        {
            let _a = g.alloc::<u32>(4_000).unwrap(); // 16 KB
            let _b = g.alloc::<u32>(4_000).unwrap(); // 16 KB
            assert_eq!(g.counters().mem_used, 32_000);
            // A third 40 KB allocation must fail while both are live.
            assert!(g.alloc::<u32>(10_000).is_err());
        }
        assert_eq!(g.counters().mem_used, 0);
        // ... and succeed after both dropped.
        assert!(g.alloc::<u32>(10_000).is_ok());
    }

    #[test]
    fn peak_watermark_survives_frees() {
        let g = tiny_gpu();
        {
            let _a = g.alloc::<u8>(50_000).unwrap();
        }
        let _b = g.alloc::<u8>(100).unwrap();
        let snap = g.counters();
        assert_eq!(snap.mem_peak, 50_000);
        assert_eq!(snap.mem_used, 100);
    }

    #[test]
    fn error_display_readable() {
        let e = DeviceError::OutOfMemory {
            requested: 10,
            available: 5,
            capacity: 20,
        };
        let s = e.to_string();
        assert!(s.contains("out of memory"));
        assert!(s.contains("10"));
    }
}
