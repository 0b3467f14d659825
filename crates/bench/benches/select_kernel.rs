//! SortCompact vs FusedSelect shingle kernels — the selection-not-sorting
//! optimisation (only the s smallest hashes per list survive, so the full
//! segmented sort does ~an order of magnitude more roofline work than a
//! per-segment top-s selection needs).
//!
//! Two measurements:
//!
//! 1. **Wall-clock** of `GpClust::cluster` under both
//!    `ShingleKernel`s on the same graph (results are bit-identical by
//!    contract; see `tests/select_properties.rs`).
//! 2. **Modeled device seconds** on the Tesla K20 preset for a
//!    Table-I-shaped workload and a batch-splitting 400M-element one,
//!    computed in closed form from the simulator's own cost model and
//!    written to `<report_dir>/BENCH_select.json`. The checked-in copy at
//!    the repo root was produced with exactly this arithmetic. The fused
//!    kernel wins twice: each element is cheaper, and the 8 B/elem
//!    footprint (vs 16 B/elem with the packed sort workspace) doubles
//!    `batch_capacity`, halving the batch count on oversized inputs.

use gpclust_bench::{json_fields, time, Json};
use gpclust_core::batch::{batch_capacity, bytes_per_elem};
use gpclust_core::{GpClust, ShingleKernel, ShinglingParams};
use gpclust_gpu::{DeviceConfig, Gpu, KernelCost};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::Csr;

fn graph() -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: PlantedConfig::zipf_groups(4_000, 4, 200, 1.4, 13),
        n_noise_vertices: 1_000,
        p_intra: 0.8,
        max_intra_degree: 50.0,
        inter_edges_per_vertex: 0.1,
        seed: 13,
    })
    .graph
}

fn bench_kernels() {
    let g = graph();
    for (name, kernel) in [
        ("sort_compact", ShingleKernel::SortCompact),
        ("fused_select", ShingleKernel::FusedSelect),
    ] {
        let pipeline = GpClust::new(
            ShinglingParams::light(13).with_kernel(kernel),
            Gpu::new(DeviceConfig::tesla_k20()),
        )
        .unwrap();
        time(&format!("shingle_kernel/{name}"), 10, || {
            pipeline.cluster(&g).unwrap()
        });
    }
}

#[derive(Debug, Clone)]
struct PassModel {
    kernel: String,
    n_elements: usize,
    trials: usize,
    out_elements: usize,
    capacity_elems: usize,
    elem_footprint_bytes: usize,
    n_batches: usize,
    h2d_s: f64,
    kernels_s: f64,
    d2h_s: f64,
    serialized_s: f64,
    pipelined_s: f64,
}

impl From<PassModel> for Json {
    fn from(r: PassModel) -> Json {
        json_fields!(r; kernel, n_elements, trials, out_elements, capacity_elems, elem_footprint_bytes, n_batches, h2d_s, kernels_s, d2h_s, serialized_s, pipelined_s)
    }
}

/// Closed-form schedule model of one shingling pass on `gpu` under
/// `kernel`. The input is split into `ceil(n / batch_capacity)` equal
/// batches; each batch is one upload, `trials` kernel rounds, and one
/// top-s download per trial (the executor's stream-pair shape):
///
/// * per-batch kernels — SortCompact: transform + segmented sort over the
///   batch plus a gather over its share of the output; FusedSelect: a
///   single fused `segmented_select` launch over the batch.
/// * serialized (Thrust 1.5): `Σ_b h2d_b + trials·(kernels_b + d2h_b)`
/// * pipelined (streams): `Σ_b h2d_b + trials·kernels_b + d2h_b` — every
///   D2H except a batch's last hides behind the next round's kernels.
fn model_pass(
    gpu: &Gpu,
    kernel: ShingleKernel,
    n_elements: usize,
    trials: usize,
    out_elements: usize,
) -> PassModel {
    let capacity = batch_capacity(gpu.mem_available(), kernel);
    let n_batches = n_elements.div_ceil(capacity);
    let batch_elems = n_elements.div_ceil(n_batches);
    let out_per_batch = out_elements.div_ceil(n_batches);
    let h2d = gpu.model_transfer_seconds(batch_elems * 4);
    let kernels = match kernel {
        ShingleKernel::SortCompact => {
            gpu.model_kernel_seconds(batch_elems, &KernelCost::transform())
                + gpu.model_kernel_seconds(batch_elems, &KernelCost::segmented_sort())
                + gpu.model_kernel_seconds(out_per_batch, &KernelCost::gather())
        }
        ShingleKernel::FusedSelect => {
            gpu.model_kernel_seconds(batch_elems, &KernelCost::segmented_select())
        }
    };
    let d2h = gpu.model_transfer_seconds(out_per_batch * 8);
    let b = n_batches as f64;
    let t = trials as f64;
    PassModel {
        kernel: format!("{kernel:?}"),
        n_elements,
        trials,
        out_elements,
        capacity_elems: capacity,
        elem_footprint_bytes: bytes_per_elem(kernel),
        n_batches,
        h2d_s: b * h2d,
        kernels_s: b * t * kernels,
        d2h_s: b * t * d2h,
        serialized_s: b * (h2d + t * (kernels + d2h)),
        pipelined_s: b * (h2d + t * kernels + d2h),
    }
}

#[derive(Debug, Clone)]
struct KernelTotals {
    kernel: String,
    n_batches: usize,
    device_serialized_s: f64,
    device_pipelined_s: f64,
}

impl From<KernelTotals> for Json {
    fn from(r: KernelTotals) -> Json {
        json_fields!(r; kernel, n_batches, device_serialized_s, device_pipelined_s)
    }
}

fn totals(passes: &[&PassModel]) -> KernelTotals {
    KernelTotals {
        kernel: passes[0].kernel.clone(),
        n_batches: passes.iter().map(|p| p.n_batches).sum(),
        device_serialized_s: passes.iter().map(|p| p.serialized_s).sum(),
        device_pipelined_s: passes.iter().map(|p| p.pipelined_s).sum(),
    }
}

#[derive(Debug, Clone)]
struct SelectReport {
    device: String,
    note: String,
    sort_pass1: PassModel,
    sort_pass2: PassModel,
    select_pass1: PassModel,
    select_pass2: PassModel,
    sort: KernelTotals,
    select: KernelTotals,
    serialized_improvement_pct: f64,
    pipelined_improvement_pct: f64,
}

impl From<SelectReport> for Json {
    fn from(r: SelectReport) -> Json {
        json_fields!(r; device, note, sort_pass1, sort_pass2, select_pass1, select_pass2, sort, select, serialized_improvement_pct, pipelined_improvement_pct)
    }
}

/// Model a 400M-element pass I (the only shape that exceeds the K20's
/// sort-path `batch_capacity` of 268,435,456 elems at 5 GiB — the select
/// path's 536,870,912-elem capacity holds it in one batch) plus a paper's
/// 20K-workload-scaled pass II, and write the per-kernel comparison.
fn write_modeled_report() {
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let sort_pass1 = model_pass(
        &gpu,
        ShingleKernel::SortCompact,
        400_000_000,
        200,
        4_000_000,
    );
    let sort_pass2 = model_pass(
        &gpu,
        ShingleKernel::SortCompact,
        100_000_000,
        100,
        6_000_000,
    );
    let select_pass1 = model_pass(
        &gpu,
        ShingleKernel::FusedSelect,
        400_000_000,
        200,
        4_000_000,
    );
    let select_pass2 = model_pass(
        &gpu,
        ShingleKernel::FusedSelect,
        100_000_000,
        100,
        6_000_000,
    );
    let sort = totals(&[&sort_pass1, &sort_pass2]);
    let select = totals(&[&select_pass1, &select_pass2]);
    let report = SelectReport {
        device: gpu.config().name.clone(),
        note: "closed-form schedule model; BENCH_select.json at the repo root \
               is generated from the same arithmetic"
            .to_string(),
        serialized_improvement_pct: (1.0 - select.device_serialized_s / sort.device_serialized_s)
            * 100.0,
        pipelined_improvement_pct: (1.0 - select.device_pipelined_s / sort.device_pipelined_s)
            * 100.0,
        sort_pass1,
        sort_pass2,
        select_pass1,
        select_pass2,
        sort,
        select,
    };
    assert!(
        report.select.device_serialized_s < report.sort.device_serialized_s,
        "fused select must shorten the modeled serialized device path"
    );
    assert!(
        report.select.device_pipelined_s < report.sort.device_pipelined_s,
        "fused select must shorten the modeled stream makespan"
    );
    assert!(
        report.select.n_batches < report.sort.n_batches,
        "the halved footprint must reduce the batch count at equal capacity"
    );
    let json = Json::from(report.clone()).pretty();
    let path = gpclust_bench::write_report("BENCH_select.json", &json);
    eprintln!(
        "modeled K20 device path: sort {:.4}s / {} batches -> select {:.4}s / {} batches \
         ({:.1}% shorter serialized, {:.1}% shorter makespan); written to {:?}",
        report.sort.device_serialized_s,
        report.sort.n_batches,
        report.select.device_serialized_s,
        report.select.n_batches,
        report.serialized_improvement_pct,
        report.pipelined_improvement_pct,
        path
    );
}

fn main() {
    write_modeled_report();
    bench_kernels();
}
