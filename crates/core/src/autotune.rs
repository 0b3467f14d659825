//! The cost model: the roofline [`KernelCost`] model turned into a
//! makespan *predictor* for a full [`crate::plan::Plan`], plus the
//! capability-proportional dealing built on the same figures.
//!
//! Every pass runs on the double-buffered stream pair with host
//! aggregation and host Phase III, so a plan differs only in its
//! [`ShingleKernel`], the fleet and the capacity model. [`predict`] prices
//! it in closed form: batch count from the
//! [`crate::batch::BYTES_PER_ELEM`] footprint, each batch's upload, its
//! `⌈c / g⌉` trial groups ([`crate::batch::trial_group`]) of one kernel
//! chain and one D2H copy each, and the double-buffered overlap. It
//! prices no host work: on the benchmark's workloads the host stages
//! take most of the wall time, and a host rate the code never measured
//! would only hide that.
//!
//! Two consumers:
//!
//! * [`predict`] — the prediction the benchmark's layer-by-layer replay
//!   sets against the measured device seconds.
//! * [`device_weights`] / [`capability_shares`] / [`apportion`] — the
//!   capability-proportional share weighting the driver deals batches by,
//!   so a heterogeneous fleet (say a K20 next to a half-bandwidth card)
//!   stops being gated by its slowest member.
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

/// Devices whose capability share falls below this fraction of the fleet
/// are benched (share 0): dealing them even one batch in `1/share` would
/// gate the makespan, and benching them also frees the capacity model
/// from their (tiny-batch) memory bound — see
/// [`crate::plan::Plan::lower`].
pub const MIN_SHARE: f64 = 0.01;

/// Elements of the nominal probe batch [`device_weights`] prices on every
/// device to turn configs into relative throughput.
pub const NOMINAL_BATCH_ELEMS: usize = 1 << 20;

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
    /// Capability-proportional shares from [`capability_shares`].
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
/// chain and one D2H copy of its output.
struct BatchCost {
    h2d: f64,
    /// `(count, kernels, d2h)` of the full groups, then of the shorter
    /// last group (count 0 when `g` divides `trials`). A group's kernels
    /// are transform + segmented sort + gather for
    /// [`ShingleKernel::SortCompact`]'s one trial, or the fused selection
    /// over `batch_elems` elements per trial of the group for
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
    ) -> Self {
        let g = trial_group(kernel, batch_elems, out_elems, trials);
        let group = |count: usize, trials: usize| {
            let kernels = match kernel {
                ShingleKernel::SortCompact => gpu.model_kernel_sequence_seconds(&[
                    (batch_elems, KernelCost::transform()),
                    (batch_elems, KernelCost::segmented_sort()),
                    (out_elems, KernelCost::gather()),
                ]),
                ShingleKernel::FusedSelect => {
                    gpu.model_kernel_seconds(batch_elems * trials, &KernelCost::segmented_select())
                }
            };
            let d2h = gpu.model_transfer_seconds(trials * out_elems * OUT_ELEM_BYTES);
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

    /// Every operation back to back.
    fn serialized(&self) -> f64 {
        self.h2d
            + self
                .groups
                .iter()
                .map(|&(n, k, d)| n * (k + d))
                .sum::<f64>()
    }
}

/// Closed-form stream makespan of `b_d` of a pass's `n_batches` batches
/// on `gpu` ([`BatchCost::pipelined`] per batch).
fn model_pass_share(
    gpu: &Gpu,
    kernel: ShingleKernel,
    shape: &PassShape,
    n_batches: usize,
    b_d: usize,
) -> f64 {
    if n_batches == 0 || b_d == 0 {
        return 0.0;
    }
    let batch_elems = shape.n_elements.div_ceil(n_batches);
    let out_per_batch = shape.out_elements.div_ceil(n_batches).max(1);
    let batch = BatchCost::of(gpu, kernel, batch_elems, out_per_batch, shape.trials);
    b_d as f64 * batch.pipelined()
}

/// Relative throughput of each device on a nominal probe batch
/// ([`NOMINAL_BATCH_ELEMS`] elements, half of them surviving to the top-s
/// output) under `kernel` with `trials` hash rounds: `1 / serialized
/// batch seconds` (upload, then every trial group's kernels and copy back
/// to back), 0 for lost devices. Bandwidth, compute rate, PCIe and
/// launch overhead all land in the figure through the same model the
/// executor charges.
pub fn device_weights(gpus: &[Gpu], kernel: ShingleKernel, trials: usize) -> Vec<f64> {
    gpus.iter()
        .map(|gpu| {
            if gpu.is_lost() {
                return 0.0;
            }
            let n = NOMINAL_BATCH_ELEMS;
            1.0 / BatchCost::of(gpu, kernel, n, n / 2, trials.max(1)).serialized()
        })
        .collect()
}

/// Normalize raw weights into capability shares summing to 1, benching
/// any device below [`MIN_SHARE`] of the fleet (share 0) and
/// renormalizing. All-zero input yields all-zero shares.
pub fn capability_shares(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return vec![0.0; weights.len()];
    }
    let mut shares: Vec<f64> = weights
        .iter()
        .map(|w| {
            let s = w / total;
            if s < MIN_SHARE {
                0.0
            } else {
                s
            }
        })
        .collect();
    let kept: f64 = shares.iter().sum();
    if kept > 0.0 {
        for s in &mut shares {
            *s /= kept;
        }
    }
    shares
}

/// Split `total` items into per-share counts by largest-remainder
/// (Hamilton) apportionment: each share gets `⌊share·total⌋`, leftovers
/// go to the largest fractional parts (ties to the lower index). Counts
/// sum to `total`, zero shares get zero, and a strictly larger share
/// never gets fewer items than a smaller one.
pub fn apportion(total: usize, shares: &[f64]) -> Vec<usize> {
    let sum: f64 = shares.iter().sum();
    if total == 0 || sum <= 0.0 {
        return vec![0; shares.len()];
    }
    let quotas: Vec<f64> = shares.iter().map(|s| s / sum * total as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

/// Price one plan on the fleet.
///
/// Per pass: the batch count follows the fleet capacity (smallest
/// unbenched device under the kernel — the same rule
/// [`crate::plan::Plan::lower`] applies), batches are apportioned by
/// `sharing`, each device's share is priced in closed form, and the pass
/// makespan is the maximum over devices.
pub fn predict(
    axes: PlanAxes,
    w: &WorkloadShape,
    gpus: &[Gpu],
    sharing: Sharing,
) -> Option<Prediction> {
    let weights = device_weights(gpus, axes.kernel, w.pass1.trials);
    let shares = match sharing {
        Sharing::Weighted => capability_shares(&weights),
    };
    let min_mem = gpus
        .iter()
        .zip(&shares)
        .filter(|&(_, &s)| s > 0.0)
        .map(|(g, _)| g.mem_available())
        .min()?;

    let capacity = batch_capacity(min_mem);
    let mut device_seconds = 0.0;
    let mut n_batches = 0u64;
    for shape in [&w.pass1, &w.pass2] {
        let b = shape.n_elements.div_ceil(capacity.max(1));
        n_batches += b as u64;
        let counts = apportion(b, &shares);
        device_seconds += gpus
            .iter()
            .zip(&counts)
            .map(|(gpu, &b_d)| model_pass_share(gpu, axes.kernel, shape, b, b_d))
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
    fn weights_follow_device_capability() {
        let gpus = vec![
            k20(),
            Gpu::with_workers(DeviceConfig::tesla_k20_half_bandwidth(), 1),
        ];
        let weights = device_weights(&gpus, ShingleKernel::SortCompact, 200);
        assert!(weights[0] > weights[1], "{weights:?}");
        let shares = capability_shares(&weights);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares[1] > MIN_SHARE, "half-bandwidth card must keep work");

        // The tiny test device stays above the benching cutoff (so the
        // existing mixed-fleet capacity tests keep their semantics) …
        let mixed = vec![
            k20(),
            Gpu::with_workers(DeviceConfig::tiny_test_device(), 1),
        ];
        let shares = capability_shares(&device_weights(&mixed, ShingleKernel::SortCompact, 200));
        assert!(shares[1] > 0.0, "{shares:?}");

        // … while a ~1000×-derated card gets benched.
        let weak = vec![
            k20(),
            Gpu::with_workers(DeviceConfig::tesla_k20().scaled("weak", 1e-3), 1),
        ];
        let shares = capability_shares(&device_weights(&weak, ShingleKernel::SortCompact, 200));
        assert_eq!(shares[1], 0.0, "{shares:?}");
        assert_eq!(shares[0], 1.0, "{shares:?}");
    }

    #[test]
    fn apportion_sums_and_stays_monotone() {
        for total in [0usize, 1, 2, 7, 16, 1000] {
            let shares = [0.5, 0.3, 0.2, 0.0];
            let counts = apportion(total, &shares);
            assert_eq!(counts.iter().sum::<usize>(), total);
            assert_eq!(counts[3], 0, "zero share gets nothing");
            assert!(
                counts[0] >= counts[1] && counts[1] >= counts[2],
                "{counts:?}"
            );
        }
        // Uniform shares differ by at most one, earlier indices first.
        let counts = apportion(7, &[1.0, 1.0, 1.0]);
        assert_eq!(counts, vec![3, 2, 2]);
        assert_eq!(apportion(5, &[0.0, 0.0]), vec![0, 0]);
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
