//! Deterministic fault injection for the simulated device.
//!
//! Real CUDA deployments treat transfer errors, launch failures, ECC
//! events, allocation failure and whole-device loss as normal operating
//! conditions; production many-against-many pipelines schedule around
//! them. The simulator models that failure surface with a **seeded,
//! deterministic injector** so the recovery logic upstream (retries, OOM
//! backoff, host degradation, device-loss redistribution in
//! `gpclust-core`) is testable bit-for-bit.
//!
//! Faults are drawn at four **sites** — host→device copies, device→host
//! copies, allocations, and kernel launches — either with a per-site
//! probability (`FaultPlan::random`) or from an explicit schedule
//! ("fail the 3rd H2D on device 1": [`FaultPlan::with_fault`]). Draws
//! happen on the issuing host thread, in issue order, so a fixed plan
//! yields the same faults at the same operations on every run.
//!
//! Semantics mirror the hardware:
//!
//! * **Transfer/alloc faults fail the call** — the operation charges
//!   nothing and returns a typed [`DeviceError`].
//! * **Kernel faults are sticky**: a failed launch does not run its
//!   tasks; the error parks as a *pending* fault that surfaces at the
//!   next fallible synchronization point ([`Gpu::take_fault`],
//!   [`Stream::try_dtoh_async`]) — the `cudaGetLastError` contract.
//! * **Device loss is terminal**: once a `DeviceLost` fault fires, every
//!   subsequent fallible operation on that device fails with
//!   `DeviceLost` until the process ends. Counters reset does not bring
//!   the card back.
//!
//! Random-rate draws only produce *transient* kinds (transfer, launch,
//! ECC); `OutOfMemory` and `DeviceLost` must be scheduled explicitly so
//! probabilistic runs exercise the retry/degrade paths without
//! spiralling capacity or killing devices nondeterministically.
//!
//! [`Gpu::take_fault`]: crate::simt::Gpu::take_fault
//! [`Stream::try_dtoh_async`]: crate::stream::Stream::try_dtoh_async
//! [`DeviceError`]: crate::memory::DeviceError

use crate::lock;
use crate::memory::DeviceError;
use gpclust_support::rng::StdRng;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Where in the device API a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Host→device copies (`htod_async`).
    H2D,
    /// Device→host copies (`try_dtoh_async`).
    D2H,
    /// Buffer allocations (`alloc`, and the adopt step of copies).
    Alloc,
    /// Kernel launches (`Stream::launch` — every thrust kernel funnels
    /// through it).
    Kernel,
}

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::H2D => 0,
            FaultSite::D2H => 1,
            FaultSite::Alloc => 2,
            FaultSite::Kernel => 3,
        }
    }
}

/// What kind of fault to inject (maps onto a [`DeviceError`] variant with
/// call-site context filled in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A failed host↔device copy (transient).
    TransferFailed,
    /// A failed kernel launch (transient).
    LaunchFailed,
    /// An uncorrectable ECC memory event (transient for our purposes:
    /// the operation can be retried on freshly written data).
    Ecc,
    /// An allocation reported as out of memory even though capacity
    /// accounting would have admitted it (exercises the batch-capacity
    /// backoff path).
    OutOfMemory,
    /// The device falls off the bus; terminal.
    DeviceLost,
}

impl FaultKind {
    fn index(self) -> usize {
        match self {
            FaultKind::TransferFailed => 0,
            FaultKind::LaunchFailed => 1,
            FaultKind::Ecc => 2,
            FaultKind::OutOfMemory => 3,
            FaultKind::DeviceLost => 4,
        }
    }
}

/// One scheduled fault: fail the `occurrence`-th (1-based) operation at
/// `site` with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// The injection site.
    pub site: FaultSite,
    /// 1-based operation index at that site (counted per device, from
    /// the last counter reset).
    pub occurrence: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A complete injection configuration for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-device draw RNG.
    pub seed: u64,
    /// Per-operation probability of a random *transient* fault in
    /// `[0, 1]`. Random draws never produce `OutOfMemory` or
    /// `DeviceLost` — schedule those explicitly.
    pub rate: f64,
    /// Device index reported in `DeviceLost` errors.
    pub device: u32,
    /// Explicit faults, checked before the random draw.
    pub schedule: Vec<ScheduledFault>,
}

/// Environment variable [`FaultPlan::from_env`] reads (`<seed>:<rate>`).
pub const FAULT_ENV: &str = "GPCLUST_INJECT_FAULTS";

impl FaultPlan {
    /// Probabilistic plan: every site faults with `rate` per operation.
    pub fn random(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate,
            device: 0,
            schedule: Vec::new(),
        }
    }

    /// A plan with no random component (faults only where scheduled).
    pub fn scheduled() -> Self {
        FaultPlan::random(0, 0.0)
    }

    /// Add one scheduled fault (builder style): fail the `occurrence`-th
    /// operation at `site` with `kind`.
    pub fn with_fault(mut self, site: FaultSite, occurrence: u64, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault {
            site,
            occurrence,
            kind,
        });
        self
    }

    /// Set the device index reported in `DeviceLost` errors.
    pub fn with_device(mut self, device: u32) -> Self {
        self.device = device;
        self
    }

    /// Parse `"<seed>:<rate>"` (e.g. `"7:0.01"`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, rate) = spec
            .split_once(':')
            .ok_or_else(|| format!("expected `<seed>:<rate>`, got `{spec}`"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|e| format!("bad fault seed `{seed}`: {e}"))?;
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|e| format!("bad fault rate `{rate}`: {e}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} outside [0, 1]"));
        }
        Ok(FaultPlan::random(seed, rate))
    }

    /// Plan from the `GPCLUST_INJECT_FAULTS=<seed>:<rate>` environment
    /// variable, if set (the hook the CI fault-injection matrix uses).
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var(FAULT_ENV).ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("ignoring {FAULT_ENV}: {e}");
                None
            }
        }
    }
}

#[derive(Debug, Default)]
struct InjectorState {
    rng: StdRng,
    rate: f64,
    schedule: Vec<ScheduledFault>,
}

/// Per-device fault state: the plan, the draw RNG, per-site occurrence
/// counters, per-kind injected counts, the sticky lost flag and the
/// pending (kernel) fault.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Fast-path gate: false means `draw` returns `None` immediately.
    armed: AtomicBool,
    lost: AtomicBool,
    device: AtomicU32,
    seed: AtomicU64,
    state: Mutex<InjectorState>,
    pending: Mutex<Option<DeviceError>>,
    occurrences: [AtomicU64; 4],
    counts: [AtomicU64; 5],
}

impl FaultInjector {
    /// Install `plan`, resetting occurrence counters, injected counts and
    /// the RNG. The lost flag is *not* cleared — a dead card stays dead.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut state = lock(&self.state);
        state.rng = StdRng::seed_from_u64(plan.seed);
        state.rate = plan.rate;
        state.schedule = plan.schedule;
        let armed = state.rate > 0.0 || !state.schedule.is_empty();
        drop(state);
        self.seed.store(plan.seed, Ordering::Relaxed);
        self.device.store(plan.device, Ordering::Relaxed);
        self.reset_counts();
        self.armed.store(armed, Ordering::Relaxed);
    }

    /// Zero occurrence counters and injected counts and rewind the RNG to
    /// the plan seed, so each run draws an identical fault sequence. Keeps
    /// the plan, the pending fault and the lost flag.
    pub fn reset_counts(&self) {
        for o in &self.occurrences {
            o.store(0, Ordering::Relaxed);
        }
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        lock(&self.state).rng = StdRng::seed_from_u64(self.seed.load(Ordering::Relaxed));
    }

    /// Whether the device has been lost to an injected `DeviceLost`.
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Relaxed)
    }

    /// Device index reported in `DeviceLost` errors.
    pub fn device(&self) -> u32 {
        self.device.load(Ordering::Relaxed)
    }

    /// Total faults injected since the last counter reset (device loss
    /// echoes — the repeated failures after the card died — not counted).
    pub fn injected_total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Faults of `kind` injected since the last counter reset.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// Park a kernel fault to surface at the next sync point.
    pub(crate) fn set_pending(&self, e: DeviceError) {
        let mut pending = lock(&self.pending);
        if pending.is_none() {
            *pending = Some(e);
        }
    }

    /// Take the pending fault, if any.
    pub(crate) fn take_pending(&self) -> Option<DeviceError> {
        lock(&self.pending).take()
    }

    /// Draw at `site`: the scheduled fault for this occurrence if one
    /// exists, else a random transient with probability `rate`. A lost
    /// device always returns `DeviceLost`.
    pub(crate) fn draw(&self, site: FaultSite) -> Option<FaultKind> {
        if self.is_lost() {
            return Some(FaultKind::DeviceLost);
        }
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let occurrence = self.occurrences[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = lock(&self.state);
        let scheduled = state
            .schedule
            .iter()
            .find(|f| f.site == site && f.occurrence == occurrence)
            .map(|f| f.kind);
        let kind = scheduled.or_else(|| {
            if state.rate <= 0.0 {
                return None;
            }
            let u = state.rng.next_u64();
            if (u >> 11) as f64 / (1u64 << 53) as f64 >= state.rate {
                return None;
            }
            // Random draws stay transient; OOM / DeviceLost are
            // schedule-only (see module docs).
            Some(match site {
                FaultSite::H2D | FaultSite::D2H => FaultKind::TransferFailed,
                FaultSite::Alloc => FaultKind::Ecc,
                FaultSite::Kernel => {
                    if u & 1 == 0 {
                        FaultKind::LaunchFailed
                    } else {
                        FaultKind::Ecc
                    }
                }
            })
        })?;
        drop(state);
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        if kind == FaultKind::DeviceLost {
            self.lost.store(true, Ordering::Relaxed);
        }
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_never_faults() {
        let inj = FaultInjector::default();
        for _ in 0..100 {
            assert_eq!(inj.draw(FaultSite::H2D), None);
            assert_eq!(inj.draw(FaultSite::Kernel), None);
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn scheduled_fault_hits_exact_occurrence() {
        let inj = FaultInjector::default();
        inj.set_plan(FaultPlan::scheduled().with_fault(
            FaultSite::H2D,
            3,
            FaultKind::TransferFailed,
        ));
        assert_eq!(inj.draw(FaultSite::H2D), None);
        assert_eq!(inj.draw(FaultSite::H2D), None);
        assert_eq!(inj.draw(FaultSite::H2D), Some(FaultKind::TransferFailed));
        assert_eq!(inj.draw(FaultSite::H2D), None);
        // The other sites are untouched.
        assert_eq!(inj.draw(FaultSite::Alloc), None);
        assert_eq!(inj.injected(FaultKind::TransferFailed), 1);
    }

    #[test]
    fn random_draws_are_deterministic_and_transient_only() {
        let seq = |seed| {
            let inj = FaultInjector::default();
            inj.set_plan(FaultPlan::random(seed, 0.3));
            (0..200)
                .map(|_| inj.draw(FaultSite::Kernel))
                .collect::<Vec<_>>()
        };
        let a = seq(9);
        assert_eq!(a, seq(9), "same seed, same faults");
        assert_ne!(a, seq(10), "different seed, different faults");
        let injected: Vec<_> = a.iter().flatten().collect();
        assert!(!injected.is_empty(), "rate 0.3 over 200 draws must fire");
        assert!(injected
            .iter()
            .all(|k| matches!(k, FaultKind::LaunchFailed | FaultKind::Ecc)));
    }

    #[test]
    fn reset_counts_replays_the_same_sequence() {
        let inj = FaultInjector::default();
        inj.set_plan(FaultPlan::random(4, 0.25));
        let a: Vec<_> = (0..50).map(|_| inj.draw(FaultSite::D2H)).collect();
        inj.reset_counts();
        let b: Vec<_> = (0..50).map(|_| inj.draw(FaultSite::D2H)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn device_loss_is_sticky() {
        let inj = FaultInjector::default();
        inj.set_plan(FaultPlan::scheduled().with_fault(
            FaultSite::Kernel,
            1,
            FaultKind::DeviceLost,
        ));
        assert_eq!(inj.draw(FaultSite::Kernel), Some(FaultKind::DeviceLost));
        assert!(inj.is_lost());
        // Every site now fails, but the echoes are not re-counted.
        assert_eq!(inj.draw(FaultSite::H2D), Some(FaultKind::DeviceLost));
        assert_eq!(inj.draw(FaultSite::Alloc), Some(FaultKind::DeviceLost));
        assert_eq!(inj.injected(FaultKind::DeviceLost), 1);
        // Counter reset does not resurrect the card.
        inj.reset_counts();
        assert!(inj.is_lost());
    }

    #[test]
    fn plan_parse_roundtrip_and_errors() {
        let p = FaultPlan::parse("7:0.01").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.rate - 0.01).abs() < 1e-12);
        assert!(FaultPlan::parse("7").is_err());
        assert!(FaultPlan::parse("x:0.5").is_err());
        assert!(FaultPlan::parse("1:1.5").is_err());
    }
}
