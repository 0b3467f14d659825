//! Recovery primitives shared by the device passes.
//!
//! Three mechanisms implement [`FaultPolicy`] (each action tallied in
//! [`RecoveryReport`]):
//!
//! 1. **Bounded retries** (`retry_transient`) — transient faults (failed
//!    transfers/launches, ECC events) re-attempt the same idempotent
//!    operation up to `max_retries` times. Every device-side step of a
//!    shingling trial recomputes its outputs from inputs that are still
//!    resident, so a re-run is bit-identical to a clean first run.
//! 2. **OOM backoff** (`with_oom_backoff`) — a pass that hits
//!    `OutOfMemory` is re-planned from scratch with half the batch
//!    capacity (down to a one-element floor), mirroring how the batched
//!    schedule exists precisely because device memory is the binding
//!    constraint. The caller supplies a closure that rebuilds all pass
//!    state per attempt, so a re-plan never replays half-emitted records.
//! 3. **Host degradation** (in `gpu_pass`/`multi_gpu`) — a batch whose
//!    retries are exhausted runs on the bit-identical host path instead
//!    of failing the run.
//!
//! `DeviceLost` is never retried, backed off, or degraded here: a lost
//! device stays lost, so single-device runs surface the typed error and
//! `multi_gpu` redistributes the dead device's remaining batches across
//! survivors.

use crate::params::FaultPolicy;
use crate::timing::RecoveryReport;
use gpclust_gpu::DeviceError;
use std::time::Instant;

/// Run `op`, re-attempting up to `policy.max_retries` times while it
/// fails with a *transient* [`DeviceError`]. Non-transient errors (OOM,
/// device loss) return immediately; re-attempt count and the wall time
/// they consumed are tallied into `recovery`.
pub(crate) fn retry_transient<T>(
    policy: &FaultPolicy,
    recovery: &mut RecoveryReport,
    mut op: impl FnMut() -> Result<T, DeviceError>,
) -> Result<T, DeviceError> {
    let mut err = match op() {
        Ok(v) => return Ok(v),
        Err(e) => e,
    };
    let start = Instant::now();
    let mut attempts = 0u32;
    while err.is_transient() && attempts < policy.max_retries {
        attempts += 1;
        match op() {
            Ok(v) => {
                recovery.retries += attempts as u64;
                recovery.recovery_seconds += start.elapsed().as_secs_f64();
                return Ok(v);
            }
            Err(e) => err = e,
        }
    }
    recovery.retries += attempts as u64;
    recovery.recovery_seconds += start.elapsed().as_secs_f64();
    Err(err)
}

/// Run `attempt(capacity)`, halving `capacity` and re-running on
/// `OutOfMemory` while the policy allows and the floor of one element has
/// not been reached. `attempt` must rebuild all pass state internally —
/// each call is a complete, independent execution of the pass.
pub(crate) fn with_oom_backoff<T>(
    policy: &FaultPolicy,
    recovery: &mut RecoveryReport,
    mut capacity: usize,
    mut attempt: impl FnMut(usize) -> Result<T, DeviceError>,
) -> Result<T, DeviceError> {
    loop {
        match attempt(capacity) {
            Ok(v) => return Ok(v),
            Err(DeviceError::OutOfMemory { .. }) if policy.oom_backoff && capacity > 1 => {
                capacity = (capacity / 2).max(1);
                recovery.oom_backoffs += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> DeviceError {
        DeviceError::Ecc
    }

    #[test]
    fn retry_clears_transient_faults_within_budget() {
        let policy = FaultPolicy::default(); // max_retries = 3
        let mut rec = RecoveryReport::default();
        let mut failures = 2;
        let out = retry_transient(&policy, &mut rec, || {
            if failures > 0 {
                failures -= 1;
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(rec.retries, 2);
        assert!(rec.recovery_seconds >= 0.0);
    }

    #[test]
    fn retry_exhausts_and_returns_the_typed_error() {
        let policy = FaultPolicy {
            max_retries: 2,
            ..Default::default()
        };
        let mut rec = RecoveryReport::default();
        let mut calls = 0u32;
        let out: Result<(), _> = retry_transient(&policy, &mut rec, || {
            calls += 1;
            Err(transient())
        });
        assert_eq!(out, Err(transient()));
        assert_eq!(calls, 3, "initial attempt + max_retries");
        assert_eq!(rec.retries, 2);
    }

    #[test]
    fn retry_never_reattempts_terminal_errors() {
        let policy = FaultPolicy::default();
        let mut rec = RecoveryReport::default();
        let mut calls = 0u32;
        let out: Result<(), _> = retry_transient(&policy, &mut rec, || {
            calls += 1;
            Err(DeviceError::DeviceLost { device: 1 })
        });
        assert_eq!(out, Err(DeviceError::DeviceLost { device: 1 }));
        assert_eq!(calls, 1);
        assert_eq!(rec.retries, 0);
    }

    fn oom() -> DeviceError {
        DeviceError::OutOfMemory {
            requested: 100,
            available: 10,
            capacity: 64,
        }
    }

    #[test]
    fn backoff_halves_capacity_until_it_fits() {
        let policy = FaultPolicy::default();
        let mut rec = RecoveryReport::default();
        let mut seen = Vec::new();
        let out = with_oom_backoff(&policy, &mut rec, 1000, |cap| {
            seen.push(cap);
            if cap > 130 {
                Err(oom())
            } else {
                Ok(cap)
            }
        });
        assert_eq!(out, Ok(125));
        assert_eq!(seen, vec![1000, 500, 250, 125]);
        assert_eq!(rec.oom_backoffs, 3);
    }

    #[test]
    fn backoff_stops_at_the_one_element_floor() {
        let policy = FaultPolicy::default();
        let mut rec = RecoveryReport::default();
        let mut seen = Vec::new();
        let out: Result<(), _> = with_oom_backoff(&policy, &mut rec, 4, |cap| {
            seen.push(cap);
            Err(oom())
        });
        assert_eq!(out, Err(oom()));
        assert_eq!(seen, vec![4, 2, 1], "floor reached, error surfaces typed");
        assert_eq!(rec.oom_backoffs, 2);
    }

    #[test]
    fn backoff_disabled_surfaces_oom_immediately() {
        let policy = FaultPolicy {
            oom_backoff: false,
            ..Default::default()
        };
        let mut rec = RecoveryReport::default();
        let mut calls = 0u32;
        let out: Result<(), _> = with_oom_backoff(&policy, &mut rec, 1000, |_| {
            calls += 1;
            Err(oom())
        });
        assert_eq!(out, Err(oom()));
        assert_eq!(calls, 1);
        assert_eq!(rec.oom_backoffs, 0);
    }
}
