//! The cost model: the roofline [`KernelCost`] model turned into a
//! makespan *predictor* for a full [`crate::plan::Plan`].
//!
//! Every pass runs on the double-buffered stream pair with host
//! aggregation and host Phase III, so a plan differs only in its
//! [`ShingleKernel`], the fleet and the capacity model. [`predict`] prices
//! it in closed form: batch count from the
//! [`crate::batch::BYTES_PER_ELEM`] footprint, each batch's upload, its
//! `⌈c / g⌉` trial groups ([`crate::batch::trial_group`]) of one kernel
//! chain and one D2H copy each — in Pass II, which reduces to marks, one
//! group of all `c` trials and one copy of a byte per element — and the
//! double-buffered overlap. It
//! prices no host work: on the benchmark's workloads the host stages
//! take most of the wall time, and a host rate the code never measured
//! would only hide that.
//!
//! Its one consumer is the benchmark's layer-by-layer replay, which sets
//! [`predict`] against the measured device seconds; the driver makes no
//! decision from the model.
//!
//! Predictions are *simulated* seconds on the same cost model the
//! executor charges, so predicted-vs-measured error reflects schedule
//! approximations (estimated pass-II shape, batch rounding), not clock
//! noise. [`Prediction::device_seconds`] is the stream makespan
//! [`crate::timing::StageTimes::device_pipelined`] measures.

use crate::batch::{batch_capacity, trial_group, OUT_ELEM_BYTES};
use crate::params::{ShingleKernel, ShinglingParams};
use gpclust_gpu::{Gpu, KernelCost};

/// Estimated distinct-shingle fraction of the pass-I record stream: the
/// first-level shingle graph G′ gets roughly one vertex per two records
/// at the paper's `s1 = 2` defaults, so the pass-II shape is estimated at
/// `segments ≈ 0.5 · records` with an average list length of 2.
pub const DISTINCT_SHINGLE_RATIO: f64 = 0.5;

/// The schedule axis of one plan the predictor prices: the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanAxes {
    /// Top-s extraction kernel.
    pub kernel: ShingleKernel,
}

impl PlanAxes {
    /// The axes `params` pins.
    pub fn of(params: &ShinglingParams) -> Self {
        PlanAxes {
            kernel: params.kernel,
        }
    }
}

/// The size figures of one shingling pass the predictor prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassShape {
    /// Adjacency elements of the pass input (flat array length).
    pub n_elements: usize,
    /// Non-empty adjacency lists (each emits one record per trial).
    pub n_segments: usize,
    /// Top-s output elements per trial, what the executor downloads:
    /// `s` per list of at least `s` elements (a shorter list holds no
    /// shingle).
    pub out_elements: usize,
    /// Hash trials (`c1` / `c2`).
    pub trials: usize,
    /// Shingle size (`s1` / `s2`).
    pub s: usize,
}

impl PassShape {
    /// Exact shape of a pass over lists delimited by `offsets`.
    pub fn from_offsets(offsets: &[u64], trials: usize, s: usize) -> Self {
        let mut n_segments = 0usize;
        let mut out_elements = 0usize;
        for w in offsets.windows(2) {
            let len = (w[1] - w[0]) as usize;
            if len > 0 {
                n_segments += 1;
            }
            if len >= s {
                out_elements += s;
            }
        }
        PassShape {
            n_elements: offsets.last().copied().unwrap_or(0) as usize,
            n_segments,
            out_elements,
            trials,
            s,
        }
    }

    /// Records the pass emits: one per (trial, non-empty list).
    pub fn n_records(&self) -> usize {
        self.trials * self.n_segments
    }
}

/// The full-pipeline workload the predictor prices: pass I over the input
/// graph, pass II over the (estimated) first-level shingle graph, Phase
/// III over the pass-II records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadShape {
    /// Input-graph vertices (the Phase-III vertex range).
    pub n_vertices: usize,
    /// Pass I, exact from the input offsets.
    pub pass1: PassShape,
    /// Pass II, estimated via [`DISTINCT_SHINGLE_RATIO`] (G′ is not known
    /// until pass I runs).
    pub pass2: PassShape,
}

impl WorkloadShape {
    /// Estimate the workload of clustering lists `offsets` over
    /// `n_vertices` vertices under `params`.
    pub fn from_input(n_vertices: usize, offsets: &[u64], params: &ShinglingParams) -> Self {
        let pass1 = PassShape::from_offsets(offsets, params.c1, params.s1);
        let records1 = pass1.n_records();
        let segments2 = ((records1 as f64 * DISTINCT_SHINGLE_RATIO) as usize).max(1);
        let pass2 = PassShape {
            n_elements: records1.max(1),
            n_segments: segments2,
            out_elements: (segments2 * params.s2).min(records1.max(1)),
            trials: params.c2,
            s: params.s2,
        };
        WorkloadShape {
            n_vertices,
            pass1,
            pass2,
        }
    }
}

/// How a fleet's batches are dealt when pricing a multi-device plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// The driver's even deal: round-robin over the surviving devices, so
    /// survivor `d` of `n` runs `b / n` of `b` batches, plus one when
    /// `d < b mod n`.
    Weighted,
}

/// A priced plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted makespan. The model prices device work only, so this
    /// equals [`Prediction::device_seconds`].
    pub seconds: f64,
    /// Predicted [`crate::timing::StageTimes::device_pipelined`] — the
    /// figure the relative-error report compares.
    pub device_seconds: f64,
    /// Total batches across both passes.
    pub n_batches: u64,
}

/// The modeled costs of one batch of `batch_elems` elements whose top-s
/// output holds `out_elems` pairs per trial, as the executor runs it: one
/// upload, then trial groups of `g` trials ([`trial_group`]) and one
/// shorter group for the `trials mod g` left over, each group one kernel
/// chain and one D2H copy of its output. A batch reduced to marks (Pass
/// II) is one group of every trial and one copy of one mark byte per
/// element; its fragments' few ids go unpriced.
struct BatchCost {
    h2d: f64,
    /// `(count, kernels, d2h)` of the full groups, then of the shorter
    /// last group (count 0 when `g` divides `trials`). A group's kernels
    /// are transform + segmented sort + gather per trial for
    /// [`ShingleKernel::SortCompact`], or the fused selection over
    /// `batch_elems` elements per trial of the group for
    /// [`ShingleKernel::FusedSelect`].
    groups: [(f64, f64, f64); 2],
}

impl BatchCost {
    fn of(
        gpu: &Gpu,
        kernel: ShingleKernel,
        batch_elems: usize,
        out_elems: usize,
        trials: usize,
        marks: bool,
    ) -> Self {
        let g = match marks {
            true => trials.max(1),
            false => trial_group(kernel, batch_elems, out_elems, trials),
        };
        let group = |count: usize, trials: usize| {
            let kernels = match kernel {
                ShingleKernel::SortCompact => {
                    trials as f64
                        * gpu.model_kernel_sequence_seconds(&[
                            (batch_elems, KernelCost::transform()),
                            (batch_elems, KernelCost::segmented_sort()),
                            (out_elems, KernelCost::gather()),
                        ])
                }
                ShingleKernel::FusedSelect => {
                    gpu.model_kernel_seconds(batch_elems * trials, &KernelCost::segmented_select())
                }
            };
            let d2h = match marks {
                true => gpu.model_transfer_seconds(batch_elems),
                false => gpu.model_transfer_seconds(trials * out_elems * OUT_ELEM_BYTES),
            };
            (count as f64, kernels, d2h)
        };
        let rest = trials % g;
        BatchCost {
            h2d: gpu.model_transfer_seconds(batch_elems * 4),
            groups: [group(trials / g, g), group(usize::from(rest > 0), rest)],
        }
    }

    /// Stream makespan: each group's copy overlaps the next group's
    /// kernels, so the slower of the two sets the pace, and the last
    /// group's faster half shows once, at the end.
    fn pipelined(&self) -> f64 {
        let paced: f64 = self.groups.iter().map(|&(n, k, d)| n * k.max(d)).sum();
        let [(_, full_k, full_d), (rest, rest_k, rest_d)] = self.groups;
        let last = if rest > 0.0 {
            rest_k.min(rest_d)
        } else {
            full_k.min(full_d)
        };
        self.h2d + paced + last
    }
}

/// Closed-form stream makespan of `b_d` of a pass's `n_batches` batches
/// on `gpu` ([`BatchCost::pipelined`] per batch), each reduced to marks
/// when `marks`.
fn model_pass_share(
    gpu: &Gpu,
    kernel: ShingleKernel,
    (shape, marks): (&PassShape, bool),
    n_batches: usize,
    b_d: usize,
) -> f64 {
    if n_batches == 0 || b_d == 0 {
        return 0.0;
    }
    let batch_elems = shape.n_elements.div_ceil(n_batches);
    let out_per_batch = shape.out_elements.div_ceil(n_batches).max(1);
    let batch = BatchCost::of(gpu, kernel, batch_elems, out_per_batch, shape.trials, marks);
    b_d as f64 * batch.pipelined()
}

/// Price one plan on the fleet.
///
/// Per pass: the batch count follows the fleet capacity (smallest
/// surviving device — the same rule [`crate::plan::Plan::lower`]
/// applies), batches are dealt as `sharing` says, each device's share is
/// priced in closed form — Pass I's batches in trial groups, Pass II's as
/// one launch and one mark copy each — and the pass makespan is the
/// maximum over devices. `None` once no device survives.
pub fn predict(
    axes: PlanAxes,
    w: &WorkloadShape,
    gpus: &[Gpu],
    sharing: Sharing,
) -> Option<Prediction> {
    let Sharing::Weighted = sharing;
    let alive: Vec<&Gpu> = gpus.iter().filter(|g| !g.is_lost()).collect();
    let capacity = batch_capacity(alive.iter().map(|g| g.mem_available()).min()?);
    let n = alive.len();
    let mut device_seconds = 0.0;
    let mut n_batches = 0u64;
    for pass in [(&w.pass1, false), (&w.pass2, true)] {
        let b = pass.0.n_elements.div_ceil(capacity.max(1));
        n_batches += b as u64;
        device_seconds += alive
            .iter()
            .enumerate()
            .map(|(d, gpu)| {
                let b_d = b / n + usize::from(d < b % n);
                model_pass_share(gpu, axes.kernel, pass, b, b_d)
            })
            .fold(0.0, f64::max);
    }
    Some(Prediction {
        seconds: device_seconds,
        device_seconds,
        n_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpclust_gpu::DeviceConfig;

    fn k20() -> Gpu {
        Gpu::with_workers(DeviceConfig::tesla_k20(), 1)
    }

    fn workload() -> WorkloadShape {
        let params = ShinglingParams::paper_default(7);
        // 20K-like: 4M elements over 20K lists.
        let offsets: Vec<u64> = (0..=20_000u64).map(|i| i * 200).collect();
        WorkloadShape::from_input(20_000, &offsets, &params)
    }

    #[test]
    fn pass_shape_counts_segments_and_outputs() {
        // Lists: [0..3), empty, [3..8), [8..9)
        let shape = PassShape::from_offsets(&[0, 3, 3, 8, 9], 10, 2);
        assert_eq!(shape.n_elements, 9);
        assert_eq!(shape.n_segments, 3, "empty list skipped");
        assert_eq!(shape.out_elements, 2 + 2, "s per list of at least s");
        assert_eq!(shape.n_records(), 30);
    }

    #[test]
    fn workload_estimates_pass_two_from_ratio() {
        let w = workload();
        assert_eq!(w.pass1.n_records(), 200 * 20_000);
        let expect_segments = (w.pass1.n_records() as f64 * DISTINCT_SHINGLE_RATIO) as usize;
        assert_eq!(w.pass2.n_segments, expect_segments);
        assert_eq!(w.pass2.n_elements, w.pass1.n_records());
    }

    #[test]
    fn select_beats_sort() {
        let gpus = vec![k20()];
        let w = workload();
        let sort = PlanAxes {
            kernel: ShingleKernel::SortCompact,
        };
        let select = PlanAxes {
            kernel: ShingleKernel::FusedSelect,
        };
        let sort = predict(sort, &w, &gpus, Sharing::Weighted).unwrap();
        let sel = predict(select, &w, &gpus, Sharing::Weighted).unwrap();
        assert!(sel.seconds < sort.seconds, "{sel:?} !< {sort:?}");
    }

    #[test]
    fn lost_devices_price_as_absent() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let lost = k20();
        lost.set_fault_plan(
            FaultPlan::scheduled()
                .with_fault(FaultSite::H2D, 1, FaultKind::DeviceLost)
                .with_device(2),
        );
        assert!(lost.stream("probe").htod_async(&[1u32]).is_err());
        assert!(lost.is_lost());
        let axes = PlanAxes::of(&ShinglingParams::paper_default(7));
        let w = workload();
        let fleet = predict(axes, &w, &[k20(), k20(), lost], Sharing::Weighted);
        assert_eq!(fleet, predict(axes, &w, &[k20(), k20()], Sharing::Weighted));
    }

    /// On `n` equal cards, a pass of `b` batches costs what its busiest
    /// card's `⌈b/n⌉` batches cost on one card.
    #[test]
    fn an_even_deal_prices_the_busiest_card() {
        let capped = || {
            let config = DeviceConfig {
                global_mem_bytes: 12 << 20,
                ..DeviceConfig::tesla_k20()
            };
            Gpu::with_workers(config, 1)
        };
        let w = workload();
        for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
            let axes = PlanAxes { kernel };
            let one = capped();
            let b = predict(axes, &w, std::slice::from_ref(&one), Sharing::Weighted)
                .unwrap()
                .n_batches as usize
                / 2;
            assert_eq!(b, 7, "both passes cut 4M elements into 7 batches");
            for n in 1..=4 {
                let fleet: Vec<Gpu> = (0..n).map(|_| capped()).collect();
                let p = predict(axes, &w, &fleet, Sharing::Weighted).unwrap();
                let busiest = b.div_ceil(n);
                let expect = model_pass_share(&one, kernel, (&w.pass1, false), b, busiest)
                    + model_pass_share(&one, kernel, (&w.pass2, true), b, busiest);
                assert_eq!(p.device_seconds, expect, "{kernel:?} on {n} card(s)");
                assert_eq!(p.n_batches, 2 * b as u64);
            }
        }
    }

    #[test]
    fn empty_input_predicts_zero_batches() {
        let params = ShinglingParams::light(1);
        let w = WorkloadShape::from_input(2, &[0, 0, 0], &params);
        let p = predict(PlanAxes::of(&params), &w, &[k20()], Sharing::Weighted).unwrap();
        assert_eq!(p.n_batches, 1, "the estimated pass-II floor remains");
        assert!(p.seconds.is_finite());
    }
}
