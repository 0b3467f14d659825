//! Simulated device-time accounting.
//!
//! Device time is *modeled*, not measured: each kernel launch and each
//! transfer charges a duration computed by the cost model. The clock
//! accumulates nanoseconds in atomics so concurrent charging (e.g. from
//! overlapping host threads) is safe. Wall-clock timing of the host-side
//! stages is the harness's job, not this module's.

use std::sync::atomic::{AtomicU64, Ordering};

/// Accumulates simulated durations, in nanoseconds, by category.
#[derive(Debug, Default)]
pub struct DeviceClock {
    kernel_ns: AtomicU64,
    h2d_ns: AtomicU64,
    d2h_ns: AtomicU64,
}

impl DeviceClock {
    /// A zeroed clock.
    pub fn new() -> Self {
        DeviceClock::default()
    }

    /// Charge kernel-execution time.
    pub fn charge_kernel(&self, seconds: f64) {
        self.kernel_ns.fetch_add(to_ns(seconds), Ordering::Relaxed);
    }

    /// Charge host→device transfer time.
    pub fn charge_h2d(&self, seconds: f64) {
        self.h2d_ns.fetch_add(to_ns(seconds), Ordering::Relaxed);
    }

    /// Charge device→host transfer time.
    pub fn charge_d2h(&self, seconds: f64) {
        self.d2h_ns.fetch_add(to_ns(seconds), Ordering::Relaxed);
    }

    /// Total simulated kernel seconds.
    pub fn kernel_seconds(&self) -> f64 {
        from_ns(self.kernel_ns.load(Ordering::Relaxed))
    }

    /// Total simulated host→device transfer seconds.
    pub fn h2d_seconds(&self) -> f64 {
        from_ns(self.h2d_ns.load(Ordering::Relaxed))
    }

    /// Total simulated device→host transfer seconds.
    pub fn d2h_seconds(&self) -> f64 {
        from_ns(self.d2h_ns.load(Ordering::Relaxed))
    }

    /// Reset all categories to zero.
    pub fn reset(&self) {
        self.kernel_ns.store(0, Ordering::Relaxed);
        self.h2d_ns.store(0, Ordering::Relaxed);
        self.d2h_ns.store(0, Ordering::Relaxed);
    }
}

fn to_ns(seconds: f64) -> u64 {
    debug_assert!(seconds >= 0.0, "negative duration");
    (seconds * 1e9).round() as u64
}

fn from_ns(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_category() {
        let c = DeviceClock::new();
        c.charge_kernel(0.5);
        c.charge_kernel(0.25);
        c.charge_h2d(0.1);
        c.charge_d2h(0.2);
        assert!((c.kernel_seconds() - 0.75).abs() < 1e-9);
        assert!((c.h2d_seconds() - 0.1).abs() < 1e-9);
        assert!((c.d2h_seconds() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes() {
        let c = DeviceClock::new();
        c.charge_kernel(1.0);
        c.reset();
        assert_eq!(c.kernel_seconds(), 0.0);
    }

    #[test]
    fn concurrent_charging_sums() {
        let c = std::sync::Arc::new(DeviceClock::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        c.charge_kernel(1e-6);
                    }
                });
            }
        });
        assert!((c.kernel_seconds() - 8e-3).abs() < 1e-9);
    }
}
