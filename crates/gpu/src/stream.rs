//! CUDA-style streams and events for the simulator.
//!
//! The paper's Thrust 1.5 pipeline serializes every copy against every
//! kernel; asynchronous CUDA copies are its named future work. A
//! [`Stream`] models the CUDA abstraction that unlocks them: an **ordered
//! queue** of device operations. Operations on one stream execute (in
//! simulated time) back to back; operations on *different* streams run
//! concurrently unless an explicit [`StreamEvent`] dependency orders them —
//! exactly the `cudaStreamWaitEvent` contract.
//!
//! Two things matter for correctness and accounting:
//!
//! * **Data moves eagerly.** `htod_async`/`dtoh_async`/`launch` perform the
//!   copy or kernel immediately on the host, so results do not depend on
//!   how the schedule is modeled. Only the *time accounting* is
//!   asynchronous — asynchrony never becomes a correctness hazard in the
//!   simulator.
//! * **Time lands on the stream's cursor.** Each operation advances the
//!   stream's completion cursor by its modeled duration. Every duration is
//!   also charged to the device clock (Table I's *GPU*, *Data c→g* and
//!   *Data g→c* columns, whose sum is the fully serialized device path).
//!   The **pipelined makespan** of a multi-stream pipeline is the max of
//!   the participating streams' cursors.
//!
//! All cursors of one device share a time axis that starts at 0 when the
//! first stream is created, so events recorded on one stream are directly
//! comparable on another.

use crate::lock;
use crate::memory::{DeviceBuffer, DeviceError, Pod};
use crate::simt::{Gpu, KernelCost};
use std::sync::Mutex;

/// An in-order queue of simulated device operations.
///
/// Create with [`Gpu::stream`]. Cheap handles are not cloneable — a stream
/// is a linear timeline and should have one owner, mirroring how CUDA code
/// treats `cudaStream_t` per pipeline lane.
pub struct Stream {
    gpu: Gpu,
    label: &'static str,
    /// Simulated completion time of the last operation issued on this
    /// stream, in seconds on the device's shared stream time axis.
    cursor: Mutex<f64>,
}

/// A marker on a stream's timeline (like `cudaEventRecord`).
///
/// Carries the simulated instant at which every operation issued on the
/// source stream before the record completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEvent {
    completed_at: f64,
}

impl Gpu {
    /// Create a stream on this device. The label shows up in debug output
    /// only; it carries no semantics.
    pub fn stream(&self, label: &'static str) -> Stream {
        Stream {
            gpu: self.clone(),
            label,
            cursor: Mutex::new(0.0),
        }
    }
}

impl Stream {
    /// The device this stream belongs to.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Simulated instant at which everything issued so far completes.
    pub fn completed_seconds(&self) -> f64 {
        *lock(&self.cursor)
    }

    /// Record an event marking the completion of all work issued so far
    /// (like `cudaEventRecord`).
    pub fn record_event(&self) -> StreamEvent {
        StreamEvent {
            completed_at: *lock(&self.cursor),
        }
    }

    /// Block subsequent operations on this stream until `event` has
    /// completed (like `cudaStreamWaitEvent`). A no-op if the event is
    /// already in this stream's past.
    pub fn wait_event(&self, event: &StreamEvent) {
        let mut cursor = lock(&self.cursor);
        if event.completed_at > *cursor {
            *cursor = event.completed_at;
        }
    }

    /// Advance the cursor by one operation's modeled duration.
    fn push(&self, seconds: f64) {
        *lock(&self.cursor) += seconds;
    }

    /// Asynchronous host→device copy (like `cudaMemcpyAsync`): the data
    /// lands immediately, the modeled transfer time lands on this stream's
    /// cursor and in the h2d totals. Subject to fault injection: an
    /// injected H2D fault fails the call before any bytes move or are
    /// accounted.
    pub fn htod_async<T: Pod>(&self, src: &[T]) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = std::mem::size_of_val(src);
        if let Some(e) = self.gpu.injected_fault(crate::fault::FaultSite::H2D, bytes) {
            return Err(e);
        }
        let buf = self.gpu.adopt(src.to_vec())?;
        let modeled = self.gpu.tally_h2d(buf.bytes());
        self.push(modeled);
        Ok(buf)
    }

    /// Asynchronous device→host copy. Issue a [`Stream::wait_event`] on a
    /// compute-stream event first if the buffer is produced by a kernel.
    /// Infallible — not subject to fault injection; resilient callers use
    /// [`Stream::try_dtoh_async`].
    pub fn dtoh_async<T: Pod>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let modeled = self.gpu.tally_d2h(buf.bytes());
        self.push(modeled);
        buf.device_slice().to_vec()
    }

    /// Fallible asynchronous device→host copy: surfaces any pending
    /// (sticky) kernel fault first, then draws at the D2H site. A failed
    /// copy charges nothing and does not advance the stream cursor.
    pub fn try_dtoh_async<T: Pod>(&self, buf: &DeviceBuffer<T>) -> Result<Vec<T>, DeviceError> {
        self.gpu.take_fault()?;
        if let Some(e) = self
            .gpu
            .injected_fault(crate::fault::FaultSite::D2H, buf.bytes())
        {
            return Err(e);
        }
        Ok(self.dtoh_async(buf))
    }

    /// Launch a kernel on this stream: `tasks` (one per thread block /
    /// block batch) execute immediately on the SM pool, and the modeled
    /// time for `n_elements` queues behind the stream's earlier
    /// operations.
    pub fn launch<'env>(
        &self,
        n_elements: usize,
        cost: &KernelCost,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) {
        let modeled = self.gpu.execute_and_model(n_elements, cost, tasks);
        self.push(modeled);
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("label", &self.label)
            .field("completed_seconds", &self.completed_seconds())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn gpu() -> Gpu {
        Gpu::with_workers(DeviceConfig::tesla_k20(), 2)
    }

    #[test]
    fn stream_ops_advance_cursor_in_order() {
        let g = gpu();
        let s = g.stream("copy");
        let buf = s.htod_async(&vec![0u32; 1_000_000]).unwrap();
        let t_h2d = g.model_transfer_seconds(4_000_000);
        assert!((s.completed_seconds() - t_h2d).abs() < 1e-12);
        let _ = s.dtoh_async(&buf);
        let expect = t_h2d + g.model_transfer_seconds(4_000_000);
        assert!((s.completed_seconds() - expect).abs() < 1e-12);
    }

    #[test]
    fn wait_event_orders_across_streams() {
        let g = gpu();
        let compute = g.stream("compute");
        let copy = g.stream("copy");
        compute.launch(10_000_000, &KernelCost::segmented_sort(), vec![]);
        let after_kernel = compute.record_event();
        // The copy stream is idle; waiting pulls it up to the kernel's end.
        copy.wait_event(&after_kernel);
        assert!((copy.completed_seconds() - compute.completed_seconds()).abs() < 1e-12);
        // Waiting on a past event is a no-op.
        let before = copy.completed_seconds();
        copy.wait_event(&after_kernel);
        assert_eq!(copy.completed_seconds(), before);
    }

    #[test]
    fn overlapped_d2h_excluded_from_makespan_when_compute_bound() {
        // Kernels are long, copies short: the copy stream hides entirely
        // behind compute except for the final drain.
        let g = gpu();
        let compute = g.stream("compute");
        let copy = g.stream("copy");
        let buf = copy.htod_async(&vec![0u64; 1_000]).unwrap();
        let mut last_d2h = 0.0;
        for _ in 0..4 {
            compute.launch(50_000_000, &KernelCost::segmented_sort(), vec![]);
            copy.wait_event(&compute.record_event());
            let _ = copy.dtoh_async(&buf);
            last_d2h = g.model_transfer_seconds(buf.bytes());
        }
        let snap = g.counters();
        let makespan = compute.completed_seconds().max(copy.completed_seconds());
        // All D2H traffic is accounted...
        assert_eq!(snap.d2h_transfers, 4);
        assert!((snap.d2h_seconds - 4.0 * last_d2h).abs() < 1e-6);
        // ...but only the final drain extends the critical path, and the
        // upload hides behind the first kernel. (Tolerance
        // covers the clock's nanosecond rounding vs the exact f64 cursor.)
        let expect = snap.kernel_seconds + last_d2h;
        assert!(
            (makespan - expect).abs() < 1e-6,
            "makespan {makespan} vs kernels+last_d2h {expect}"
        );
        assert!(makespan < snap.serialized_device_seconds());
    }

    #[test]
    fn async_htod_respects_capacity() {
        let g = Gpu::with_workers(DeviceConfig::tiny_test_device(), 1);
        let s = g.stream("copy");
        assert!(s.htod_async(&vec![0u8; 100_000]).is_err());
        // A failed allocation charges nothing.
        assert_eq!(s.completed_seconds(), 0.0);
        assert_eq!(g.counters().h2d_transfers, 0);
    }
}
