//! The single executor for Algorithm 1: interprets a lowered
//! [`PassPlan`] against one (simulated) device.
//!
//! Every pass runs on a double-buffered compute/copy stream pair: the
//! next batch's H2D and each trial's D2H overlap compute, and the pass's
//! pipelined makespan is the max of the two stream cursors. The counters
//! still tally every kernel and copy, so the serialized total the paper
//! reports ([`crate::timing::StageTimes::device_serialized`]) is the same
//! as under blocking copies. Inside [`Executor::run`]:
//!
//! * `KernelStrategy` *(internal)* — the top-s extraction plan per
//!   trial: `SortCompact` (transform → segmented sort → compaction, the
//!   paper's pipeline) or `FusedSelect` (one fused hash + ascending
//!   selection kernel). Both emit bit-identical bytes.
//! * `SinkState` *(internal, from the public [`Sink`] request)* —
//!   where finalized records go: a caller closure, a [`RawShingles`]
//!   buffer, sorted runs packed on the host ([`StreamAggregator`]), or
//!   Phase III ([`Sink::Clusters`]): each record of a distinct member
//!   list folds onto the list's anchor in a host union–find.
//! * [`crate::resilience`] combinators — wrapped uniformly around every
//!   device op: transient faults retry, an exhausted batch degrades to
//!   the bit-identical host path when the policy allows, `OutOfMemory`
//!   and `DeviceLost` propagate typed (backoff and redistribution are
//!   the callers' pass-level decisions).
//!
//! [`FragmentMode`] selects between two loop bodies. `Defer` is what the
//! driver runs on every device: an arbitrary share of the batch list,
//! fragment-flagged records for driver-side reconciliation, records
//! streamed into the sink with a per-batch rollback mark (a failed batch
//! leaves nothing behind but the idempotent Phase-III unions of its
//! complete records), and unfinished-share reporting on device loss.
//! `Merge` (in-order batches, host-side carry merge of boundary
//! fragments) serves callers that step through a single pass by hand.
//! Both prefetch the next batch on the copy stream, and the per-trial
//! device code is shared, which is what keeps both kernels bit-identical:
//! same batch plan + same emission order ⇒ same records.

#![deny(dead_code)]

use crate::aggregate::{SortedRun, StreamAggregator};
use crate::batch::{Batch, BatchStats};
use crate::gpu_pass::{compaction_tasks, host_trial_out, plan_batch, BatchPlan};
use crate::minwise::{hash_with, pack, unpack_element, HashFamily};
use crate::params::{FaultPolicy, ShingleKernel};
use crate::plan::{FragmentMode, PassPlan};
use crate::report::DistinctLists;
use crate::resilience::retry_transient;
use crate::shingle::{AdjacencyInput, RawShingles};
use crate::timing::RecoveryReport;
use gpclust_gpu::{thrust, DeviceBuffer, DeviceError, Gpu, KernelCost, Stream, StreamEvent};
use gpclust_graph::UnionFind;
use std::time::Instant;

/// The pass's compute and copy streams.
type Streams<'s> = (&'s Stream, &'s Stream);

/// A batch's elements uploaded ahead of time on the copy stream, with the
/// event marking that upload's completion.
type Staged = Option<(DeviceBuffer<u32>, StreamEvent)>;

/// Borrowed adjacency input of one pass — plain slices so per-device
/// worker threads can share one input without generic plumbing.
#[derive(Clone, Copy)]
pub struct PassInput<'a> {
    /// `n + 1` monotone list offsets (always the *global* offsets — the
    /// batch plan addresses elements by global position).
    pub offsets: &'a [u64],
    /// Concatenated adjacency elements. May be a window of the global
    /// element array starting at global position [`PassInput::base`], so
    /// out-of-core shards never materialize the whole input.
    pub flat: &'a [u32],
    /// Global element position of `flat[0]`. 0 for fully resident inputs;
    /// a shard's batches index `flat[pos - base]`.
    pub base: u64,
}

impl<'a> PassInput<'a> {
    /// Borrow the slices of any [`AdjacencyInput`] (CSR or shingle graph).
    pub fn of(input: &'a impl AdjacencyInput) -> Self {
        PassInput {
            offsets: input.offsets(),
            flat: input.flat(),
            base: 0,
        }
    }

    /// An input whose elements are a window of the global array starting
    /// at global element position `base` (out-of-core shards). `offsets`
    /// stays global.
    pub fn window(offsets: &'a [u64], flat: &'a [u32], base: u64) -> Self {
        PassInput {
            offsets,
            flat,
            base,
        }
    }
}

/// What the caller wants out of the pass — the sink half of the plan.
pub enum Sink<'a> {
    /// Stream each finalized `(trial, node, top-s pairs)` record to the
    /// callback. A streamed record cannot be taken back, so under
    /// [`FragmentMode::Defer`] a batch a lost device half-finished may
    /// already have handed some of its records over.
    Stream(&'a mut dyn FnMut(u32, u32, &[u64])),
    /// Materialize records. Under [`FragmentMode::Defer`] complete
    /// records pack into one sorted [`PassReport::runs`] entry on the host
    /// as they stream, and only boundary fragments stay in
    /// [`PassReport::raw`]. A [`FragmentMode::Merge`] pass returns every
    /// record in `raw`, grouped.
    Gather,
    /// Stream Pass II into Phase III ([`PassReport::clusters`]). The pass
    /// runs over the given [`DistinctLists`] (also its adjacency input),
    /// and each complete record's elements fold onto its list's anchor in
    /// a union–find ([`DistinctLists::union_record`]). The labels cover
    /// the lists' input vertices and leave the owner closure to the
    /// caller ([`DistinctLists::finish`]). Under [`FragmentMode::Defer`]
    /// fragments pool in [`PassReport::raw`].
    Clusters(&'a DistinctLists),
}

/// Phase-III output of [`Sink::Clusters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLabels {
    /// Component label per input vertex; equal labels ⇔ same cluster.
    /// Every label is a vertex id of its component (a union–find root),
    /// so labelings of partial record sets merge with
    /// [`gpclust_graph::components::absorb_labels`].
    pub labels: Vec<u32>,
    /// Second-level `<shingle, generator>` records streamed (|E″|): each
    /// list record counts once per owner ([`DistinctLists::owners`]).
    pub records: u64,
}

/// Everything one executed pass produced. Which fields are populated
/// depends on the requested [`Sink`]; `stats` and `makespan` always are.
#[derive(Debug)]
pub struct PassReport {
    /// The plan's batch statistics (echoed for reporting).
    pub stats: BatchStats,
    /// Pipelined makespan of the pass — max of the compute/copy stream
    /// cursors.
    pub makespan: f64,
    /// Records left unpacked: boundary fragments ([`Sink::Gather`],
    /// [`Sink::Clusters`]), or every record of a host-aggregated
    /// [`FragmentMode::Merge`] gather, grouped.
    pub raw: RawShingles,
    /// Sorted runs of complete records ([`Sink::Gather`]).
    pub runs: Vec<SortedRun>,
    /// Phase-III component labels ([`Sink::Clusters`]).
    pub clusters: Option<ClusterLabels>,
    /// Batch ids left unfinished plus the interrupting error — only under
    /// [`FragmentMode::Defer`], where a mid-share [`DeviceError::DeviceLost`]
    /// reports the remainder for redistribution instead of failing.
    pub unfinished: Option<(Vec<usize>, DeviceError)>,
}

/// The one interpreter for every (kernel × sink × fault policy)
/// combination: construct it over a device and feed it plans.
pub struct Executor<'g> {
    gpu: &'g Gpu,
}

impl<'g> Executor<'g> {
    /// An executor bound to `gpu`.
    pub fn new(gpu: &'g Gpu) -> Self {
        Executor { gpu }
    }

    /// Execute one pass plan. `recovery` is caller-owned so retry/degrade
    /// tallies accumulate across pass-level re-plans (the OOM-backoff
    /// loop, [`crate::resilience`], re-invokes `run` with a
    /// smaller-capacity plan); sink state is rebuilt per call, so a
    /// re-plan never replays half-emitted records.
    pub fn run(
        &self,
        plan: &PassPlan,
        input: PassInput<'_>,
        family: &HashFamily,
        recovery: &mut RecoveryReport,
        sink: Sink<'_>,
    ) -> Result<PassReport, DeviceError> {
        let compute = self.gpu.stream("shingle-compute");
        let copy = self.gpu.stream("shingle-copy");
        let streams = (&compute, &copy);
        let mut state = SinkState::new(plan, sink);
        let unfinished = match plan.fragments {
            FragmentMode::Merge => {
                debug_assert!(
                    plan.share.is_none(),
                    "fragment merging needs the full in-order batch list"
                );
                self.run_merged(plan, input, family, streams, recovery, &mut state)?;
                None
            }
            FragmentMode::Defer => {
                self.run_deferred(plan, input, family, streams, recovery, &mut state)?
            }
        };
        let (raw, runs, clusters) = state.finish(plan);
        Ok(PassReport {
            stats: plan.stats,
            makespan: compute.completed_seconds().max(copy.completed_seconds()),
            raw,
            runs,
            clusters,
            unfinished,
        })
    }

    /// Single-device loop body: every batch in order, boundary fragments
    /// merged on the host via per-trial carry buffers, batch *k+1*
    /// prefetched on the copy stream while batch *k* computes.
    fn run_merged(
        &self,
        pass: &PassPlan,
        input: PassInput<'_>,
        family: &HashFamily,
        streams: Streams<'_>,
        recovery: &mut RecoveryReport,
        state: &mut SinkState<'_>,
    ) -> Result<(), DeviceError> {
        let gpu = self.gpu;
        let kernel = KernelStrategy::of(pass.kernel);
        let policy = &pass.policy;
        let offsets = input.offsets;
        let flat = input.flat;
        let base = input.base;
        let s = pass.s;
        let batches = &pass.batches;

        // Carry buffers for the one adjacency list that can span the
        // current batch boundary: per-trial top candidates of the
        // fragments seen so far.
        let mut carry: Vec<Vec<u64>> = vec![Vec::new(); family.len()];
        let mut carry_node: Option<u32> = None;
        // Double buffer: the next batch's elements already uploaded.
        let mut staged: Staged = None;
        for (bi, batch) in batches.iter().enumerate() {
            let plan = plan_batch(batch, offsets, s);
            let staged_now = staged.take();
            if plan.nodes.is_empty() {
                continue;
            }
            let range = (batch.elem_lo - base) as usize..(batch.elem_hi - base) as usize;
            let batch_elems = &flat[range];
            // Once true, every remaining trial of this batch runs on the
            // bit-identical host path.
            let mut degraded = false;

            // 1. The batch's elements on the device: staged by the
            // previous iteration's prefetch, or moved now (H2D once,
            // reused across trials). Transient upload faults retry; an
            // exhausted budget degrades the whole batch.
            let (compute, copy) = streams;
            let upload = match staged_now {
                Some((buf, uploaded)) => {
                    compute.wait_event(&uploaded);
                    Ok(buf)
                }
                None => retry_transient(policy, recovery, || {
                    let buf = copy.htod_async(batch_elems)?;
                    compute.wait_event(&copy.record_event());
                    Ok(buf)
                }),
            };
            let elems_dev: Option<DeviceBuffer<u32>> = match upload {
                Ok(buf) => Some(buf),
                Err(e) if e.is_transient() && policy.degrade_to_host => {
                    degraded = true;
                    recovery.degraded_batches += 1;
                    None
                }
                Err(e) => return Err(e),
            };
            let mut packed_dev =
                kernel.alloc_workspace(gpu, &elems_dev, policy, recovery, &mut degraded)?;

            // Prefetch batch k+1 on the copy stream while batch k
            // computes. Best effort: under memory pressure (or an
            // injected upload fault) the upload simply happens at the top
            // of the next iteration instead.
            if let Some(next) = batches.get(bi + 1) {
                let next_range = (next.elem_lo - base) as usize..(next.elem_hi - base) as usize;
                if let Ok(buf) = copy.htod_async(&flat[next_range]) {
                    staged = Some((buf, copy.record_event()));
                }
            }

            // The previous trial's output buffer stays allocated while its
            // D2H is modeled in flight.
            let mut prev_out: Option<DeviceBuffer<u64>> = None;
            #[allow(clippy::needless_range_loop)] // trial indexes both family and carry
            for trial in 0..family.len() {
                let (a, b) = family.coeffs(trial);
                let host_out = match elems_dev.as_ref().filter(|_| !degraded) {
                    Some(elems) => {
                        let attempt = retry_transient(policy, recovery, || {
                            device_trial(
                                gpu,
                                streams,
                                kernel,
                                &plan,
                                elems,
                                &mut packed_dev,
                                a,
                                b,
                                &mut prev_out,
                                &mut staged,
                            )
                        });
                        match attempt {
                            Ok(out) => out,
                            Err(e) if e.is_transient() && policy.degrade_to_host => {
                                degraded = true;
                                recovery.degraded_batches += 1;
                                let t0 = Instant::now();
                                let out = host_trial_out(&plan, batch_elems, a, b);
                                recovery.recovery_seconds += t0.elapsed().as_secs_f64();
                                out
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    None => {
                        let t0 = Instant::now();
                        let out = host_trial_out(&plan, batch_elems, a, b);
                        recovery.recovery_seconds += t0.elapsed().as_secs_f64();
                        out
                    }
                };
                emit_trial_records(&plan, &host_out, trial, s, &mut carry, carry_node, state);
            }
            carry_node = if plan.last_frag {
                Some(plan.nodes[plan.nodes.len() - 1])
            } else {
                None
            };
        }
        debug_assert!(carry_node.is_none(), "carry must drain by the final batch");
        Ok(())
    }

    /// The driver's loop body: the plan's share of batches in order,
    /// boundary segments emitted fragment-flagged for the driver to
    /// reconcile, records streamed straight into the sink. A batch that
    /// fails rolls the sink back to the mark taken at its start, so a
    /// survivor may re-run (or re-cut) it without duplicates — bar
    /// [`Sink::Clusters`]'s unions of complete records, which are exact,
    /// so a re-run only repeats them. A [`DeviceError::DeviceLost`]
    /// mid-share stops the loop and reports the unfinished batch ids.
    #[allow(clippy::type_complexity)] // the unfinished-share pair mirrors PassReport
    fn run_deferred(
        &self,
        pass: &PassPlan,
        input: PassInput<'_>,
        family: &HashFamily,
        streams: Streams<'_>,
        recovery: &mut RecoveryReport,
        state: &mut SinkState<'_>,
    ) -> Result<Option<(Vec<usize>, DeviceError)>, DeviceError> {
        let all: Vec<usize>;
        let share: &[usize] = match &pass.share {
            Some(share) => share,
            None => {
                all = (0..pass.batches.len()).collect();
                &all
            }
        };
        let mut staged: Staged = None;
        for (i, &bid) in share.iter().enumerate() {
            let mark = state.mark();
            let next = share.get(i + 1).map(|&b| &pass.batches[b]);
            let batch = &pass.batches[bid];
            let done = self.run_batch(
                pass,
                batch,
                next,
                input,
                family,
                streams,
                recovery,
                &mut staged,
                state,
            );
            if let Err(e) = done {
                state.rollback(mark);
                return Ok(Some((share[i..].to_vec(), e)));
            }
        }
        Ok(None)
    }

    /// Algorithm 1 on a single batch under the fault policy, handing each
    /// `(trial, node, top-s pairs, is_fragment)` record to the sink.
    /// Fragments (first/last segments continuing into a neighboring
    /// batch, possibly on another device) need host-side reconciliation;
    /// complete records carry exactly `s` pairs and may aggregate
    /// anywhere. Records are bit-identical across schedules and across
    /// the retry/degrade paths, which replay the same computation. The
    /// batch consumes the upload `staged` for it and stages the share's
    /// `next` batch in turn — every batch of a share is addressable in the
    /// input, so the prefetch needs no contiguity.
    #[allow(clippy::too_many_arguments)] // per-batch helper of run_deferred
    fn run_batch(
        &self,
        pass: &PassPlan,
        batch: &Batch,
        next: Option<&Batch>,
        input: PassInput<'_>,
        family: &HashFamily,
        streams: Streams<'_>,
        recovery: &mut RecoveryReport,
        staged: &mut Staged,
        state: &mut SinkState<'_>,
    ) -> Result<(), DeviceError> {
        let gpu = self.gpu;
        let kernel = KernelStrategy::of(pass.kernel);
        let policy = &pass.policy;
        let plan = plan_batch(batch, input.offsets, pass.s);
        let staged_now = staged.take();
        if plan.nodes.is_empty() {
            return Ok(());
        }
        let n_segs = plan.nodes.len();
        let elements = |b: &Batch| {
            &input.flat[(b.elem_lo - input.base) as usize..(b.elem_hi - input.base) as usize]
        };
        let batch_elems = elements(batch);
        // Once true, every remaining trial runs on the host path.
        let mut degraded = false;

        let (compute, copy) = streams;
        let upload = match staged_now {
            Some((buf, uploaded)) => {
                compute.wait_event(&uploaded);
                Ok(buf)
            }
            None => retry_transient(policy, recovery, || {
                let buf = copy.htod_async(batch_elems)?;
                compute.wait_event(&copy.record_event());
                Ok(buf)
            }),
        };
        let elems_dev = match upload {
            Ok(buf) => Some(buf),
            Err(e) if e.is_transient() && policy.degrade_to_host => {
                degraded = true;
                recovery.degraded_batches += 1;
                None
            }
            Err(e) => return Err(e),
        };
        let mut packed_dev =
            kernel.alloc_workspace(gpu, &elems_dev, policy, recovery, &mut degraded)?;
        // Best effort, as in the merged loop: under memory pressure (or an
        // injected upload fault) the next batch uploads when it starts.
        if let Some(next) = next {
            if let Ok(buf) = copy.htod_async(elements(next)) {
                *staged = Some((buf, copy.record_event()));
            }
        }
        // The buffer whose async download is still "in flight" — kept
        // alive for one trial (stream semantics), freed before the next
        // allocation.
        let mut prev_out: Option<DeviceBuffer<u64>> = None;
        for trial in 0..family.len() {
            let (a, b) = family.coeffs(trial);
            let host_out = match elems_dev.as_ref().filter(|_| !degraded) {
                Some(elems) => {
                    let attempt = retry_transient(policy, recovery, || {
                        device_trial(
                            gpu,
                            streams,
                            kernel,
                            &plan,
                            elems,
                            &mut packed_dev,
                            a,
                            b,
                            &mut prev_out,
                            staged,
                        )
                    });
                    match attempt {
                        Ok(out) => out,
                        Err(e) if e.is_transient() && policy.degrade_to_host => {
                            degraded = true;
                            recovery.degraded_batches += 1;
                            let t0 = Instant::now();
                            let out = host_trial_out(&plan, batch_elems, a, b);
                            recovery.recovery_seconds += t0.elapsed().as_secs_f64();
                            out
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => {
                    let t0 = Instant::now();
                    let out = host_trial_out(&plan, batch_elems, a, b);
                    recovery.recovery_seconds += t0.elapsed().as_secs_f64();
                    out
                }
            };
            for &seg in &plan.emit_segs {
                let i = seg as usize;
                let pairs = &host_out[plan.out_offsets[i]..plan.out_offsets[i + 1]];
                let fragment = (i == 0 && plan.first_frag) || (i == n_segs - 1 && plan.last_frag);
                state.record(trial as u32, plan.nodes[i], pairs, fragment);
            }
        }
        drop(prev_out);
        Ok(())
    }
}

/// The kernel strategy: which device plan extracts each segment's top-s
/// pairs. Both plans emit bit-identical bytes — the ascending s-smallest
/// selection equals the sorted prefix, duplicates included.
#[derive(Clone, Copy)]
enum KernelStrategy {
    SortCompact,
    FusedSelect,
}

impl KernelStrategy {
    fn of(kernel: ShingleKernel) -> Self {
        match kernel {
            ShingleKernel::SortCompact => KernelStrategy::SortCompact,
            ShingleKernel::FusedSelect => KernelStrategy::FusedSelect,
        }
    }

    /// Allocate the per-batch packed workspace if this kernel needs one
    /// (only the sort path materializes the 8-byte `(hash, vertex)`
    /// buffer; the fused kernel hashes on the fly), with the standard
    /// retry/degrade wrapping.
    fn alloc_workspace(
        &self,
        gpu: &Gpu,
        elems_dev: &Option<DeviceBuffer<u32>>,
        policy: &FaultPolicy,
        recovery: &mut RecoveryReport,
        degraded: &mut bool,
    ) -> Result<Option<DeviceBuffer<u64>>, DeviceError> {
        match (self, elems_dev) {
            (KernelStrategy::SortCompact, Some(elems)) => {
                let n = elems.len();
                match retry_transient(policy, recovery, || gpu.alloc::<u64>(n)) {
                    Ok(buf) => Ok(Some(buf)),
                    Err(e) if e.is_transient() && policy.degrade_to_host => {
                        *degraded = true;
                        recovery.degraded_batches += 1;
                        Ok(None)
                    }
                    Err(e) => Err(e),
                }
            }
            _ => Ok(None),
        }
    }

    /// Launch this kernel plan for one trial on the `compute` stream: fill
    /// `out_dev` with each kept segment's ascending top-k packed pairs.
    #[allow(clippy::too_many_arguments)] // per-trial launch point of device_trial
    fn launch(
        &self,
        compute: &Stream,
        plan: &BatchPlan,
        elems_dev: &DeviceBuffer<u32>,
        packed_dev: &mut Option<DeviceBuffer<u64>>,
        out_dev: &mut DeviceBuffer<u64>,
        a: u64,
        b: u64,
    ) {
        let xform = move |v: u32| pack(hash_with(a, b, v), v);
        match (self, packed_dev) {
            (KernelStrategy::SortCompact, Some(packed_dev)) => {
                // 2a. Random permutation via the min-wise hash, then
                // 2b. segmented sort within each adjacency list, then
                // 2c. compact the top-s pairs of each kept segment.
                thrust::transform_on(compute, elems_dev, packed_dev, xform);
                thrust::segmented_sort_on(compute, packed_dev, &plan.local_offsets);
                let tasks =
                    compaction_tasks(plan, packed_dev.device_slice(), out_dev.device_slice_mut());
                compute.launch(plan.out_total, &KernelCost::gather(), tasks);
            }
            (KernelStrategy::FusedSelect, _) => {
                // 2a–c fused: hash + per-segment ascending top-s
                // selection straight into the dense output. Identical
                // bytes to the sorted prefix the compaction copies.
                thrust::transform_select_on(
                    compute,
                    elems_dev,
                    &plan.local_offsets,
                    &plan.out_offsets,
                    out_dev,
                    xform,
                );
            }
            (KernelStrategy::SortCompact, None) => unreachable!("workspace allocated above"),
        }
    }
}

/// One trial's device execution: allocate the dense output, run the
/// kernel plan, and copy the result back via the *fallible* transfers —
/// the sync point where injected kernel faults surface. Idempotent:
/// every buffer it writes is recomputed from `elems_dev`, so
/// [`retry_transient`] can re-run it after a transient fault and get
/// bit-identical bytes. `staged` is the loop's prefetch slot (given back
/// under memory pressure).
#[allow(clippy::too_many_arguments)] // internal per-trial helper of the executor
fn device_trial(
    gpu: &Gpu,
    streams: Streams<'_>,
    kernel: KernelStrategy,
    plan: &BatchPlan,
    elems_dev: &DeviceBuffer<u32>,
    packed_dev: &mut Option<DeviceBuffer<u64>>,
    a: u64,
    b: u64,
    prev_out: &mut Option<DeviceBuffer<u64>>,
    staged: &mut Staged,
) -> Result<Vec<u64>, DeviceError> {
    // The previous trial's output has drained by now; free it before
    // allocating the next so peak memory holds at most one in-flight
    // output buffer.
    *prev_out = None;
    let mut out_dev = match gpu.alloc::<u64>(plan.out_total) {
        Ok(buf) => buf,
        Err(DeviceError::OutOfMemory { .. }) if staged.is_some() => {
            // Memory pressure: give the prefetched batch back (it will
            // re-upload next iteration) and retry.
            *staged = None;
            gpu.alloc::<u64>(plan.out_total)?
        }
        Err(e) => return Err(e),
    };
    let (compute, copy) = streams;
    kernel.launch(compute, plan, elems_dev, packed_dev, &mut out_dev, a, b);
    // 2d. Per-trial transfer back to the host: the copy queues behind the
    // trial's kernels and the next trial's kernels start meanwhile.
    copy.wait_event(&compute.record_event());
    let data = copy.try_dtoh_async(&out_dev)?;
    *prev_out = Some(out_dev);
    Ok(data)
}

/// CPU-side record building for one trial's host output, with
/// boundary-fragment merging ("the CPU has to combine the shingle results
/// for the split adjacency lists after it receives shingles from the
/// GPU"). Only the merged loop calls this; the deferred loop emits
/// fragments unmerged for the driver.
#[allow(clippy::too_many_arguments)] // internal per-trial helper of run_merged
fn emit_trial_records(
    plan: &BatchPlan,
    host_out: &[u64],
    trial: usize,
    s: usize,
    carry: &mut [Vec<u64>],
    carry_node: Option<u32>,
    state: &mut SinkState<'_>,
) {
    let n_segs = plan.nodes.len();
    for &seg in &plan.emit_segs {
        let i = seg as usize;
        let lo = plan.out_offsets[i];
        let hi = plan.out_offsets[i + 1];
        let pairs = &host_out[lo..hi];
        let is_first = i == 0;
        let is_last = i == n_segs - 1;
        if is_first && plan.first_frag {
            debug_assert_eq!(carry_node, Some(plan.nodes[i]));
            let mut merged = std::mem::take(&mut carry[trial]);
            merged.extend_from_slice(pairs);
            merged.sort_unstable();
            merged.dedup();
            merged.truncate(s);
            if is_last && plan.last_frag {
                carry[trial] = merged; // list continues further
            } else if merged.len() == s {
                state.record(trial as u32, plan.nodes[i], &merged, false);
            }
        } else if is_last && plan.last_frag {
            carry[trial] = pairs.to_vec();
        } else if pairs.len() == s {
            state.record(trial as u32, plan.nodes[i], pairs, false);
        }
    }
}

/// The sink strategy, instantiated from the public [`Sink`] request.
enum SinkState<'a> {
    /// Finalized records stream to the caller.
    Stream(&'a mut dyn FnMut(u32, u32, &[u64])),
    /// Records materialize: complete records to the run builder when
    /// there is one (a deferred pass), everything else (fragments, or
    /// every record of a merged pass) to `raw`.
    Gather {
        raw: RawShingles,
        builder: Option<StreamAggregator>,
    },
    /// Complete records fold into Phase III; fragments pool in `raw`.
    Clusters {
        lists: &'a DistinctLists,
        uf: UnionFind,
        raw: RawShingles,
        records: u64,
    },
}

/// How much a sink holds — taken at a batch start so a failed batch can
/// roll the sink back: `raw` records plus run-builder records.
#[derive(Clone, Copy)]
struct Mark {
    raw: usize,
    built: usize,
}

impl<'a> SinkState<'a> {
    fn new(plan: &PassPlan, sink: Sink<'a>) -> Self {
        match sink {
            Sink::Stream(f) => SinkState::Stream(f),
            Sink::Gather => SinkState::Gather {
                raw: RawShingles::new(plan.s),
                builder: match plan.fragments {
                    FragmentMode::Defer => Some(StreamAggregator::new(plan.s)),
                    FragmentMode::Merge => None,
                },
            },
            Sink::Clusters(lists) => SinkState::Clusters {
                lists,
                uf: UnionFind::new(lists.n_vertices()),
                raw: RawShingles::new(plan.s),
                records: 0,
            },
        }
    }

    fn record(&mut self, trial: u32, node: u32, pairs: &[u64], fragment: bool) {
        match self {
            SinkState::Stream(f) => f(trial, node, pairs),
            SinkState::Gather {
                builder: Some(agg), ..
            } if !fragment => agg.push(trial, node, pairs),
            SinkState::Gather { raw, .. } => raw.push(trial, node, pairs),
            SinkState::Clusters { raw, .. } if fragment => raw.push(trial, node, pairs),
            SinkState::Clusters {
                lists, uf, records, ..
            } => {
                *records += lists.owners(node);
                lists.union_record(uf, node, pairs.iter().map(|&p| unpack_element(p)));
            }
        }
    }

    /// What the sink holds now (see [`Mark`]).
    fn mark(&self) -> Mark {
        match self {
            SinkState::Stream(_) => Mark { raw: 0, built: 0 },
            SinkState::Gather { raw, builder } => Mark {
                raw: raw.len(),
                built: builder.as_ref().map_or(0, StreamAggregator::len),
            },
            SinkState::Clusters { raw, .. } => Mark {
                raw: raw.len(),
                built: 0,
            },
        }
    }

    /// Drop everything recorded since `mark` — a failed batch's records.
    /// Phase-III unions cannot be undone, and need not be: they come from
    /// exact complete records a re-run repeats.
    fn rollback(&mut self, mark: Mark) {
        match self {
            SinkState::Stream(_) => {}
            SinkState::Gather { raw, builder } => {
                raw.truncate(mark.raw);
                if let Some(agg) = builder {
                    agg.truncate(mark.built);
                }
            }
            SinkState::Clusters { raw, .. } => raw.truncate(mark.raw),
        }
    }

    /// Drain the sink into the pass report's `raw`, `runs` and
    /// `clusters`.
    fn finish(self, plan: &PassPlan) -> (RawShingles, Vec<SortedRun>, Option<ClusterLabels>) {
        match self {
            SinkState::Stream(_) => (RawShingles::new(plan.s), Vec::new(), None),
            SinkState::Gather { mut raw, builder } => {
                let runs = match builder {
                    Some(agg) if !agg.is_empty() => vec![agg.into_run()],
                    _ => Vec::new(),
                };
                if plan.fragments == FragmentMode::Merge {
                    // Boundary fragments were merged as the batches ran,
                    // so the records are one-per-(trial, node) — the
                    // aggregation may skip its merge sort.
                    raw.mark_grouped();
                }
                (raw, runs, None)
            }
            SinkState::Clusters {
                mut uf,
                raw,
                records,
                ..
            } => {
                let labels = (0..uf.len() as u32).map(|v| uf.find(v)).collect();
                (raw, Vec::new(), Some(ClusterLabels { labels, records }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use crate::params::ShinglingParams;
    use crate::plan::Plan;
    use crate::serial::shingle_pass;
    use gpclust_gpu::DeviceConfig;
    use gpclust_graph::generate::{planted_partition, PlantedConfig};
    use gpclust_graph::{Csr, ShingleGraph};

    const KERNELS: [ShingleKernel; 2] = [ShingleKernel::SortCompact, ShingleKernel::FusedSelect];

    fn planted_graph(seed: u64) -> Csr {
        planted_partition(&PlantedConfig {
            group_sizes: vec![30, 20, 25],
            n_noise_vertices: 10,
            p_intra: 0.7,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed,
        })
        .graph
    }

    fn batching_graph(seed: u64) -> Csr {
        // ~8k edges → ~16k adjacency elements, several times the tiny
        // device's batch capacity under either kernel.
        planted_partition(&PlantedConfig {
            group_sizes: vec![120, 100, 80],
            n_noise_vertices: 20,
            p_intra: 0.5,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed,
        })
        .graph
    }

    /// Lower a pass plan for tests: device-derived capacity unless forced.
    fn pass_plan(
        gpu: &Gpu,
        s: usize,
        kernel: ShingleKernel,
        capacity: Option<usize>,
        input: &impl AdjacencyInput,
    ) -> PassPlan {
        let params = ShinglingParams::light(0).with_kernel(kernel);
        let plan = Plan::lower(&params, std::slice::from_ref(gpu)).unwrap();
        let capacity = capacity.unwrap_or(plan.capacity);
        plan.pass(s, plan.aggregation, capacity, input.offsets())
    }

    /// One gathered pass through the executor.
    fn gather(
        gpu: &Gpu,
        g: &impl AdjacencyInput,
        s: usize,
        family: &HashFamily,
        kernel: ShingleKernel,
        capacity: Option<usize>,
    ) -> PassReport {
        let pass = pass_plan(gpu, s, kernel, capacity, g);
        Executor::new(gpu)
            .run(
                &pass,
                PassInput::of(g),
                family,
                &mut RecoveryReport::default(),
                Sink::Gather,
            )
            .unwrap()
    }

    /// The executor must aggregate to exactly the serial pass's result —
    /// under both kernels.
    #[test]
    fn matches_serial_oracle_single_batch() {
        let g = planted_graph(1);
        let family = HashFamily::new(25, 9);
        let serial = aggregate(&shingle_pass(&g, 2, &family));
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 3);
            let device = aggregate(&gather(&gpu, &g, 2, &family, kernel, None).raw);
            assert_eq!(serial, device, "{kernel:?}");
        }
    }

    /// The tiny device (64 KiB) forces many batches and split lists; the
    /// merged result must still equal the serial oracle — under both
    /// kernels.
    #[test]
    fn matches_serial_oracle_with_forced_batching() {
        let g = batching_graph(2);
        let family = HashFamily::new(12, 4);
        let serial = aggregate(&shingle_pass(&g, 2, &family));
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
            let device = aggregate(&gather(&gpu, &g, 2, &family, kernel, None).raw);
            assert_eq!(serial, device, "{kernel:?}");
            assert!(
                gpu.counters().h2d_transfers > 1,
                "tiny device must have batched ({kernel:?})"
            );
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let g = planted_graph(3);
        let family = HashFamily::new(8, 5);
        for kernel in KERNELS {
            let mut results = Vec::new();
            for workers in [1usize, 4] {
                let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), workers);
                results.push(aggregate(&gather(&gpu, &g, 3, &family, kernel, None).raw));
            }
            assert_eq!(results[0], results[1], "{kernel:?}");
        }
    }

    #[test]
    fn per_trial_d2h_traffic() {
        let g = planted_graph(4);
        let c = 10;
        let family = HashFamily::new(c, 6);
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
            gather(&gpu, &g, 2, &family, kernel, None);
            let snap = gpu.counters();
            // One D2H per trial per batch (single batch here).
            assert_eq!(snap.d2h_transfers, c as u64, "{kernel:?}");
            assert_eq!(snap.h2d_transfers, 1, "{kernel:?}");
            assert!(snap.d2h_seconds > 0.0, "{kernel:?}");
        }
    }

    #[test]
    fn s_larger_than_all_degrees_yields_nothing() {
        let g = planted_graph(5);
        let family = HashFamily::new(5, 7);
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
            let report = gather(&gpu, &g, 10_000, &family, kernel, None);
            assert!(aggregate(&report.raw).is_empty(), "{kernel:?}");
        }
    }

    #[test]
    fn empty_graph_no_records() {
        let mut el = gpclust_graph::EdgeList::new();
        let g = Csr::from_edges(5, &mut el);
        let family = HashFamily::new(3, 8);
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
            let report = gather(&gpu, &g, 2, &family, kernel, None);
            assert!(report.raw.is_empty(), "{kernel:?}");
        }
    }

    /// Overlap accounting on the K20: the pipelined makespan beats the
    /// serialized sum while never beating the kernel lower bound.
    #[test]
    fn makespan_beats_serialized_path() {
        let g = planted_graph(6);
        let family = HashFamily::new(20, 9);
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
            let makespan = gather(&gpu, &g, 2, &family, kernel, None).makespan;
            let snap = gpu.counters();
            let serialized = snap.serialized_device_seconds();
            assert!(
                makespan < serialized,
                "pipelined {makespan} must beat serialized {serialized} ({kernel:?})"
            );
            assert!(
                makespan >= snap.kernel_seconds - 1e-6,
                "pipelined {makespan} cannot beat the kernel-only lower bound ({kernel:?})"
            );
            assert!(snap.d2h_seconds > 0.0 && snap.h2d_seconds > 0.0);
        }
    }

    /// At a shared (forced) capacity the two kernels share a batch plan
    /// and must emit **record-identical streams**, while the fused kernel
    /// does strictly less device work: one launch per (batch, trial)
    /// instead of three, and less modeled kernel time.
    #[test]
    fn fused_select_bit_identical_and_cheaper_at_equal_capacity() {
        let g = batching_graph(7);
        let family = HashFamily::new(10, 3);
        let cap = 1500; // forces several batches with split lists
        let gpu_sort = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let gpu_sel = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let sort = gather(
            &gpu_sort,
            &g,
            2,
            &family,
            ShingleKernel::SortCompact,
            Some(cap),
        )
        .raw;
        let sel = gather(
            &gpu_sel,
            &g,
            2,
            &family,
            ShingleKernel::FusedSelect,
            Some(cap),
        )
        .raw;
        assert_eq!(sort, sel);
        let a = gpu_sort.counters();
        let b = gpu_sel.counters();
        assert!(
            b.kernel_launches < a.kernel_launches,
            "fused {} vs sort {}",
            b.kernel_launches,
            a.kernel_launches
        );
        assert!(
            b.kernel_seconds < a.kernel_seconds,
            "fused {} s vs sort {} s",
            b.kernel_seconds,
            a.kernel_seconds
        );
        // Transfer traffic is identical under a shared plan.
        assert_eq!(a.h2d_bytes, b.h2d_bytes);
        assert_eq!(a.d2h_bytes, b.d2h_bytes);
    }

    /// With device-derived capacities the fused kernel's halved footprint
    /// plans ~2× larger batches: fewer batches, fewer H2D invocations.
    #[test]
    fn fused_select_plans_larger_batches() {
        let g = batching_graph(8);
        let family = HashFamily::new(6, 2);
        let gpu_sort = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let gpu_sel = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let sort = gather(&gpu_sort, &g, 2, &family, ShingleKernel::SortCompact, None);
        let sel = gather(&gpu_sel, &g, 2, &family, ShingleKernel::FusedSelect, None);
        assert_eq!(sort.raw.len(), sel.raw.len());
        // Halved footprint → ~2× capacity (±1 from integer division).
        assert!(sel.stats.capacity_elems >= 2 * sort.stats.capacity_elems - 1);
        assert!(
            sel.stats.n_batches < sort.stats.n_batches,
            "select {} batches vs sort {}",
            sel.stats.n_batches,
            sort.stats.n_batches
        );
        assert!(gpu_sel.counters().h2d_transfers < gpu_sort.counters().h2d_transfers);
        assert_eq!(sel.stats.elem_footprint_bytes, 8);
        assert_eq!(sort.stats.elem_footprint_bytes, 16);
    }

    /// BatchStats reflect the actual plan on an unconstrained device.
    #[test]
    fn batch_stats_single_batch_on_k20() {
        let g = planted_graph(9);
        let family = HashFamily::new(4, 1);
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let stats = gather(&gpu, &g, 2, &family, ShingleKernel::SortCompact, None).stats;
        assert_eq!(stats.n_batches, 1);
        assert_eq!(stats.max_batch_elems, g.flat().len() as u64);
        assert!(stats.capacity_elems >= stats.max_batch_elems);
    }

    /// Everything the Clusters-sink tests share: the input graph, its
    /// parameters, its pass-I shingle graph,
    /// the distinct member lists Pass II runs over, and a pass-II plan
    /// over them; `capacity` forces batching.
    struct ClustersFixture {
        g: Csr,
        params: ShinglingParams,
        first: ShingleGraph,
        lists: DistinctLists,
        pass2: PassPlan,
    }

    fn clusters_fixture(gpu: &Gpu, capacity: Option<usize>) -> ClustersFixture {
        let g = planted_graph(18);
        let params = ShinglingParams {
            c1: 10,
            c2: 8,
            ..ShinglingParams::light(3)
        };
        let first = {
            let pass = pass_plan(gpu, params.s1, ShingleKernel::SortCompact, None, &g);
            let gathered = Executor::new(gpu)
                .run(
                    &pass,
                    PassInput::of(&g),
                    &params.family_pass1(),
                    &mut RecoveryReport::default(),
                    Sink::Gather,
                )
                .unwrap();
            aggregate(&gathered.raw)
        };
        let lists = DistinctLists::new(&first, params.s2, g.n());
        let plan = Plan::lower(&params, std::slice::from_ref(gpu)).unwrap();
        let cap = capacity.unwrap_or(plan.capacity);
        let pass2 = plan.pass(params.s2, plan.aggregation, cap, lists.offsets());
        ClustersFixture {
            g,
            params,
            first,
            lists,
            pass2,
        }
    }

    /// The Clusters sink, with the host's owner closure and fragment
    /// finish, reproduces the serial oracle's materialized G″ partition —
    /// on one device in one merged pass, and with the batches (at least 3)
    /// dealt across 2 and 3 devices — and its owner-weighted record count
    /// is |E″|.
    #[test]
    fn clusters_sink_matches_streamed_union_find_partition() {
        use crate::aggregate::merge_fragments;
        use crate::serial::SerialShingling;
        use gpclust_graph::components::absorb_labels;
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let fx = clusters_fixture(&gpu, Some(24));
        let n = fx.g.n();
        let run = SerialShingling::new(fx.params).unwrap().run(&fx.g);
        assert_eq!(fx.first, run.first, "pass I must match the oracle's G′");
        let oracle = crate::report::partition_clusters(n, &run.first, &run.second);
        assert!(oracle.n_groups() < n, "the oracle must cluster something");
        assert!(
            fx.lists.len() < fx.first.len(),
            "some lists must drop or repeat"
        );
        let n_batches = fx.pass2.batches.len();
        assert!(n_batches >= 3, "forced capacity must batch");
        let family2 = fx.params.family_pass2();

        // One device, merged pass: no fragments reach the host.
        let mut rec = RecoveryReport::default();
        let report = Executor::new(&gpu)
            .run(
                &fx.pass2,
                PassInput::of(&fx.lists),
                &family2,
                &mut rec,
                Sink::Clusters(&fx.lists),
            )
            .unwrap();
        assert!(report.raw.is_empty(), "no fragments on a merged pass");
        let clusters = report.clusters.unwrap();
        assert_eq!(clusters.labels.len(), n);
        assert_eq!(clusters.records as usize, run.second.n_edges());
        let mut uf = UnionFind::new(n);
        absorb_labels(&mut uf, &clusters.labels);
        let (partition, _) = fx.lists.finish(uf, fx.params.s2, &SortedRun::default());
        assert_eq!(partition, oracle, "merged");

        // The batches dealt across a fleet: every device's labels
        // absorb, the pooled fragments finalize once.
        for n_devices in 2..=3 {
            let mut uf = UnionFind::new(n);
            let mut raw = RawShingles::new(fx.params.s2);
            let mut records = 0;
            for d in 0..n_devices {
                let share = (d..n_batches).step_by(n_devices).collect();
                let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
                let r = Executor::new(&gpu)
                    .run(
                        &fx.pass2.subplan(share),
                        PassInput::of(&fx.lists),
                        &family2,
                        &mut RecoveryReport::default(),
                        Sink::Clusters(&fx.lists),
                    )
                    .unwrap();
                let c = r.clusters.unwrap();
                absorb_labels(&mut uf, &c.labels);
                records += c.records;
                raw.append(&r.raw);
            }
            assert!(!raw.is_empty(), "lists must split across devices");
            let fin = merge_fragments(&raw);
            let (partition, frag_records) = fx.lists.finish(uf, fx.params.s2, &fin);
            let what = format!("{n_devices} devices");
            assert_eq!(partition, oracle, "{what}");
            assert_eq!(
                (records + frag_records) as usize,
                run.second.n_edges(),
                "{what}"
            );
        }
    }

    /// A deferred Clusters share that runs every batch twice — the
    /// complete records a lost device's batch streamed before a survivor
    /// re-ran it union twice the same way — unions nothing new and pools
    /// only duplicate fragments, so it finishes to the labels and the
    /// finalized fragments of a single run.
    #[test]
    fn deferred_clusters_share_run_twice_equals_once() {
        use crate::aggregate::merge_fragments;
        use gpclust_graph::components::absorb_labels;
        use gpclust_graph::Partition;
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let fx = clusters_fixture(&gpu, Some(24));
        let (n, s2, family2) = (fx.g.n(), fx.params.s2, fx.params.family_pass2());
        let n_batches = fx.pass2.batches.len();
        assert!(n_batches > 2, "forced capacity must batch");
        let run = |share: Vec<usize>| {
            let r = Executor::new(&gpu)
                .run(
                    &fx.pass2.subplan(share),
                    PassInput::of(&fx.lists),
                    &family2,
                    &mut RecoveryReport::default(),
                    Sink::Clusters(&fx.lists),
                )
                .unwrap();
            assert!(r.unfinished.is_none());
            let labels = r.clusters.unwrap().labels;
            let fin = merge_fragments(&r.raw);
            let mut uf = UnionFind::new(n);
            absorb_labels(&mut uf, &labels);
            let (finished, _) = fx.lists.finish(uf, s2, &fin);
            (Partition::from_labels(&labels), fin, r.raw.len(), finished)
        };
        let once = run((0..n_batches).collect());
        let twice = run((0..n_batches).chain(0..n_batches).collect());
        assert!(once.2 > 0, "lists must split across batches");
        assert_eq!(twice.2, 2 * once.2);
        assert_eq!(twice.0, once.0);
        assert_eq!(twice.1, once.1);
        assert_eq!(twice.3, once.3);

        // And the finished partition is the merged single-pass one.
        let merged = Executor::new(&gpu)
            .run(
                &fx.pass2,
                PassInput::of(&fx.lists),
                &family2,
                &mut RecoveryReport::default(),
                Sink::Clusters(&fx.lists),
            )
            .unwrap();
        let mut uf = UnionFind::new(n);
        absorb_labels(&mut uf, &merged.clusters.unwrap().labels);
        let (merged, _) = fx.lists.finish(uf, s2, &SortedRun::default());
        assert_eq!(once.3, merged);
    }

    /// A batch a lost device half-finished commits nothing but its exact
    /// Phase-III unions: the survivors may re-cut its range, and a stale
    /// prefix fragment left unpaired would finalize into a wrong record.
    /// At every loss point of a deferred share the sink holds exactly the
    /// finished batches' records — the pooled fragments, and a gathering
    /// sink's runs.
    #[test]
    fn deferred_clusters_lost_batch_commits_no_fragments() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        fn check<'a>(
            pass: &PassPlan,
            input: PassInput<'_>,
            family: &HashFamily,
            sink: &dyn Fn() -> Sink<'a>,
            what: &str,
        ) {
            let run = |gpu: &Gpu, share: Vec<usize>| {
                let mut rec = RecoveryReport::default();
                Executor::new(gpu)
                    .run(&pass.subplan(share), input, family, &mut rec, sink())
                    .unwrap()
            };
            let all: Vec<usize> = (0..pass.batches.len()).collect();
            let clean = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
            assert!(
                !run(&clean, all.clone()).raw.is_empty(),
                "{what}: lists must split"
            );
            let mut lost_mid_share = 0;
            for at in 1..=clean.counters().kernel_launches {
                let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
                gpu.set_fault_plan(FaultPlan::scheduled().with_fault(
                    FaultSite::Kernel,
                    at,
                    FaultKind::DeviceLost,
                ));
                let lost = run(&gpu, all.clone());
                let Some((remaining, _)) = lost.unfinished else {
                    continue;
                };
                lost_mid_share += 1;
                let done = all.iter().copied().filter(|b| !remaining.contains(b));
                let healthy = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
                let finished = run(&healthy, done.collect());
                assert_eq!(lost.raw, finished.raw, "{what} lost at launch {at}");
                assert_eq!(lost.runs, finished.runs, "{what} lost at launch {at}");
            }
            assert!(lost_mid_share > 0, "{what}");
        }
        let family = HashFamily::new(8, 11);
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let fx = clusters_fixture(&gpu, Some(24));
        let sink = || Sink::Clusters(&fx.lists);
        check(
            &fx.pass2,
            PassInput::of(&fx.lists),
            &family,
            &sink,
            "clusters",
        );
        let g = planted_graph(18);
        let pass = pass_plan(&gpu, 2, ShingleKernel::SortCompact, Some(96), &g);
        check(
            &pass,
            PassInput::of(&g),
            &family,
            &|| Sink::Gather,
            "gather",
        );
    }

    /// The deferred loop prefetches the share's next batch as the merged
    /// loop does, so a share over every batch reaches no longer a
    /// makespan than the merged plan.
    #[test]
    fn deferred_share_prefetches_like_the_merged_loop() {
        let g = batching_graph(21);
        let family = HashFamily::new(10, 3);
        for kernel in KERNELS {
            let makespan = |defer: bool| {
                let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
                let pass = pass_plan(&gpu, 2, kernel, Some(1500), &g);
                assert!(pass.batches.len() > 2, "forced capacity must batch");
                let pass = match defer {
                    true => pass.subplan((0..pass.batches.len()).collect()),
                    false => pass,
                };
                let mut rec = RecoveryReport::default();
                Executor::new(&gpu)
                    .run(&pass, PassInput::of(&g), &family, &mut rec, Sink::Gather)
                    .unwrap()
                    .makespan
            };
            let (merged, deferred) = (makespan(false), makespan(true));
            assert!(
                deferred <= merged + 1e-12,
                "{kernel:?}: deferred {deferred} vs merged {merged}"
            );
        }
    }

    /// A deferred sub-plan covering every batch packs its complete records
    /// into sorted runs and leaves only fragment-flagged, unmerged
    /// records; the runs plus the finalized fragments merge to the serial
    /// oracle — the single-executor contract the driver builds on.
    #[test]
    fn deferred_subplan_reconciles_through_generic_aggregation() {
        use crate::aggregate::merge_fragments;
        let g = batching_graph(17);
        let family = HashFamily::new(9, 3);
        let serial = aggregate(&shingle_pass(&g, 2, &family));
        let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let pass = pass_plan(&gpu, 2, ShingleKernel::SortCompact, None, &g);
        let sub = pass.subplan((0..pass.batches.len()).collect());
        let mut rec = RecoveryReport::default();
        let report = Executor::new(&gpu)
            .run(&sub, PassInput::of(&g), &family, &mut rec, Sink::Gather)
            .unwrap();
        assert!(report.unfinished.is_none());
        assert!(!report.raw.is_empty(), "lists must split");
        assert!(!report.raw.is_grouped(), "deferred records are unmerged");
        let mut runs = report.runs;
        runs.push(merge_fragments(&report.raw));
        assert_eq!(serial, crate::aggregate::merge_sorted_runs(2, runs));
    }
}
