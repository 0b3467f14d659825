//! The single executor for Algorithm 1: interprets a lowered
//! [`PassPlan`] against one (simulated) device.
//!
//! Every pass runs on a double-buffered compute/copy stream pair: the
//! next batch's H2D and each trial group's D2H overlap compute, and the
//! pass's pipelined makespan is the max of the two stream cursors. The
//! counters still tally every kernel and copy, so the serialized total
//! the paper reports ([`crate::timing::StageTimes::device_serialized`])
//! is the same as under blocking copies. Inside [`Executor::run`]:
//!
//! * the kernel ([`ShingleKernel`]) — the top-s extraction plan of a
//!   batch's trials. A gathering pass runs them in groups of
//!   [`trial_group`] trials with one D2H copy per group: `SortCompact`
//!   (transform → segmented sort → compaction, the paper's pipeline, one
//!   trial per group) or `FusedSelect` (one fused hash + ascending
//!   selection launch over the whole group). Both select by the packed
//!   `(hash, element)` key and download only the 4-byte element ids, in
//!   hash order, and both emit bit-identical bytes. A pass into Phase III
//!   ([`Sink::Clusters`]) reduces on the device instead: every trial of a
//!   batch sets a selected-position mark per batch element (one fused
//!   launch, or the sort kernel's gathers ORing into one buffer), and the
//!   marks come back in one D2H per batch.
//! * `SinkState` *(internal, from the public [`Sink`] request)* —
//!   where finalized records go: a [`RawShingles`] buffer, sorted runs
//!   packed on the host ([`StreamAggregator`]), or Phase III
//!   ([`Sink::Clusters`]): once a batch has succeeded, each complete
//!   member list's marked members fold onto the list's anchor in a host
//!   union–find ([`DistinctLists::union_marked`]). Complete records
//!   reach a gathering sink as element slices; only a boundary fragment
//!   (at most two segments per batch and trial) is downloaded per trial
//!   under either sink and re-packed with its trial's hashes (`repack`),
//!   because fragments merge by hash.
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
//! leaves nothing behind: its marks fold only after its download
//! succeeds), and unfinished-share reporting on device loss.
//! `Merge` (in-order batches, host-side carry merge of boundary
//! fragments) serves callers that step through a single pass by hand.
//! Both run every batch through one per-batch device body (upload,
//! prefetch of the next batch, trial groups or marks), which is what
//! keeps both kernels bit-identical: same batch plan + same emission
//! order ⇒ same records.

#![deny(dead_code)]

use crate::aggregate::{SortedRun, StreamAggregator};
use crate::batch::{trial_group, Batch, BatchStats};
use crate::gpu_pass::{compaction_tasks, host_trial_marks, host_trial_out, plan_batch, BatchPlan};
use crate::minwise::{hash_with, pack, unpack_element, HashFamily, PackedHash};
use crate::params::ShingleKernel;
use crate::plan::{FragmentMode, PassPlan};
use crate::report::DistinctLists;
use crate::resilience::retry_transient;
use crate::shingle::{AdjacencyInput, RawShingles};
use crate::timing::RecoveryReport;
use gpclust_gpu::{thrust, DeviceBuffer, DeviceError, Gpu, KernelCost, Stream, StreamEvent};
use gpclust_graph::UnionFind;
use std::ops::Range;
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

    /// The elements of `batch`.
    fn elements(&self, batch: &Batch) -> &'a [u32] {
        &self.flat[(batch.elem_lo - self.base) as usize..(batch.elem_hi - self.base) as usize]
    }
}

/// What the caller wants out of the pass — the sink half of the plan.
pub enum Sink<'a> {
    /// Materialize records. Under [`FragmentMode::Defer`] complete
    /// records pack into one sorted [`PassReport::runs`] entry on the host
    /// as they stream, and only boundary fragments stay in
    /// [`PassReport::raw`]. A [`FragmentMode::Merge`] pass returns every
    /// record in `raw`, grouped ([`RawShingles::push_complete`]).
    Gather,
    /// Stream Pass II into Phase III ([`PassReport::clusters`]). The pass
    /// runs over the given [`DistinctLists`] (also its adjacency input):
    /// only the lists the owner closure has not settled, since a settled
    /// list's unions change nothing once the closure is absorbed.
    /// The device reduces each batch's trials to one mark per element,
    /// set where some trial selected it, and each complete list's marked
    /// members fold onto the list's anchor in a union–find
    /// ([`DistinctLists::union_marked`]). The labels cover the lists'
    /// input vertices and leave the owner closure to the caller
    /// ([`DistinctLists::finish`]). Boundary fragments come back as
    /// per-trial records: merged on the host into records under
    /// [`FragmentMode::Merge`] ([`DistinctLists::union_record`]), pooled
    /// in [`PassReport::raw`] under [`FragmentMode::Defer`].
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
    /// Second-level `<shingle, generator>` records streamed: each list
    /// record counts once per owner ([`DistinctLists::owners`]), and a
    /// complete list stands for one record per trial. It counts only the
    /// lists the pass ran; [`DistinctLists::finish`] counts the boundary
    /// fragments and the settled lists, and the two sum to |E″|.
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
        // Carry buffers for the one adjacency list that can span the
        // current batch boundary: per-trial top candidates of the
        // fragments seen so far.
        let mut carry: Vec<Vec<u64>> = vec![Vec::new(); family.len()];
        let mut carry_node: Option<u32> = None;
        // Double buffer: the next batch's elements already uploaded.
        let mut staged: Staged = None;
        for (bi, batch) in pass.batches.iter().enumerate() {
            let plan = plan_batch(batch, input.offsets, pass.s, state.takes_marks());
            let marks = self.run_batch(
                pass,
                &plan,
                input.elements(batch),
                pass.batches.get(bi + 1).map(|next| input.elements(next)),
                family,
                streams,
                recovery,
                &mut staged,
                &mut |trial, out| {
                    let coeffs = family.coeffs(trial);
                    let carry = &mut carry[trial];
                    emit_trial_records(&plan, out, trial, coeffs, pass.s, carry, carry_node, state)
                },
            )?;
            state.marks(&plan, family.len(), &marks);
            carry_node = plan.nodes.last().copied().filter(|_| plan.last_frag);
        }
        debug_assert!(carry_node.is_none(), "carry must drain by the final batch");
        Ok(())
    }

    /// The driver's loop body: the plan's share of batches in order,
    /// boundary segments emitted fragment-flagged for the driver to
    /// reconcile, records streamed straight into the sink. A batch that
    /// fails rolls the sink back to the mark taken at its start, so a
    /// survivor may re-run (or re-cut) it without duplicates;
    /// [`Sink::Clusters`] folds a batch's marks only once the batch has
    /// succeeded, so a failed batch unions nothing. A [`DeviceError::DeviceLost`]
    /// mid-share stops the loop and reports the unfinished batch ids.
    /// Every batch of a share is addressable in the input, so the
    /// prefetch of the share's next batch needs no contiguity.
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
            let batch = &pass.batches[bid];
            let plan = plan_batch(batch, input.offsets, pass.s, state.takes_marks());
            let n_segs = plan.nodes.len();
            let done = self.run_batch(
                pass,
                &plan,
                input.elements(batch),
                share
                    .get(i + 1)
                    .map(|&next| input.elements(&pass.batches[next])),
                family,
                streams,
                recovery,
                &mut staged,
                &mut |trial, out| {
                    for &seg in &plan.emit_segs {
                        let seg = seg as usize;
                        let elements = &out[plan.out_offsets[seg]..plan.out_offsets[seg + 1]];
                        let node = plan.nodes[seg];
                        if (seg == 0 && plan.first_frag) || (seg == n_segs - 1 && plan.last_frag) {
                            let pairs = repack(elements, family.coeffs(trial));
                            state.fragment(trial as u32, node, &pairs);
                        } else {
                            state.record(trial as u32, node, elements);
                        }
                    }
                },
            );
            match done {
                Ok(marks) => state.marks(&plan, family.len(), &marks),
                Err(e) => {
                    state.rollback(mark);
                    return Ok(Some((share[i..].to_vec(), e)));
                }
            }
        }
        Ok(None)
    }

    /// Algorithm 1 on a single batch under the fault policy — the one
    /// per-batch device body both loops share. Uploads the batch `elems`
    /// (or takes the copy `staged` for it), allocates the sort kernel's
    /// packed workspace, stages the `next` batch in turn, then runs the
    /// batch's trials. A batch planned for gathering runs them in groups
    /// ([`trial_group`]): one launch chain, one retry scope and one D2H
    /// copy per group. A batch planned for marks runs every trial into
    /// one batch-resident mark buffer ([`device_marks`]) and downloads it
    /// once. Hands each trial's written output (the element ids of its
    /// top-s pairs per written segment, in hash order, laid out by
    /// `BatchPlan::out_offsets`) to `emit` in trial order, and returns the
    /// batch's marks (empty unless planned for marks). Outputs are
    /// bit-identical across kernels, group sizes and the retry/degrade
    /// paths, which replay the same computation.
    #[allow(clippy::too_many_arguments)] // per-batch body of both loops
    fn run_batch(
        &self,
        pass: &PassPlan,
        plan: &BatchPlan,
        elems: &[u32],
        next: Option<&[u32]>,
        family: &HashFamily,
        streams: Streams<'_>,
        recovery: &mut RecoveryReport,
        staged: &mut Staged,
        emit: &mut dyn FnMut(usize, &[u32]),
    ) -> Result<Vec<u8>, DeviceError> {
        let gpu = self.gpu;
        let policy = &pass.policy;
        let staged_now = staged.take();
        if plan.nodes.is_empty() {
            return Ok(Vec::new());
        }
        // Once true, every remaining trial runs on the host path.
        let mut degraded = false;

        // 1. The batch's elements on the device: staged by the previous
        // batch's prefetch, or moved now (H2D once, reused across trials).
        // Transient upload faults retry; an exhausted budget degrades the
        // whole batch.
        let (compute, copy) = streams;
        let upload = match staged_now {
            Some((buf, uploaded)) => {
                compute.wait_event(&uploaded);
                Ok(buf)
            }
            None => retry_transient(policy, recovery, || {
                let buf = copy.htod_async(elems)?;
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
        // Only the sort path materializes the 8-byte `(hash, vertex)`
        // workspace; the fused kernel hashes on the fly.
        let mut packed_dev = match (&elems_dev, pass.kernel) {
            (Some(dev), ShingleKernel::SortCompact) => {
                match retry_transient(policy, recovery, || gpu.alloc::<u64>(dev.len())) {
                    Ok(buf) => Some(buf),
                    Err(e) if e.is_transient() && policy.degrade_to_host => {
                        degraded = true;
                        recovery.degraded_batches += 1;
                        None
                    }
                    Err(e) => return Err(e),
                }
            }
            _ => None,
        };
        // Prefetch the next batch on the copy stream while this one
        // computes. Best effort: under memory pressure (or an injected
        // upload fault) the next batch uploads when it starts.
        if let Some(next) = next {
            if let Ok(buf) = copy.htod_async(next) {
                *staged = Some((buf, copy.record_event()));
            }
        }

        let c = family.len();
        let w = plan.out_total;
        let elems_dev = elems_dev.as_ref().filter(|_| !degraded);
        if plan.marks {
            let device = elems_dev.map(|elems_dev| {
                device_marks(
                    gpu,
                    streams,
                    pass,
                    plan,
                    elems_dev,
                    &mut packed_dev,
                    family,
                    recovery,
                    staged,
                )
            });
            let (marks, out) = match device {
                Some(Ok(out)) => out,
                Some(Err(e)) if e.is_transient() && policy.degrade_to_host => {
                    recovery.degraded_batches += 1;
                    host_marks(plan, elems, family, recovery)
                }
                Some(Err(e)) => return Err(e),
                None => host_marks(plan, elems, family, recovery),
            };
            for trial in 0..c {
                emit(trial, &out[trial * w..(trial + 1) * w]);
            }
            return Ok(marks);
        }
        let g = trial_group(pass.kernel, elems.len(), w, c);
        // The group whose async download is still "in flight" — kept alive
        // for one group (stream semantics), freed before the next
        // allocation.
        let mut prev_out: Option<DeviceBuffer<u32>> = None;
        for lo in (0..c).step_by(g) {
            let trials = lo..(lo + g).min(c);
            let group_out = match elems_dev.filter(|_| !degraded) {
                Some(elems_dev) => {
                    let attempt = retry_transient(policy, recovery, || {
                        device_group(
                            gpu,
                            streams,
                            pass.kernel,
                            plan,
                            elems_dev,
                            &mut packed_dev,
                            family,
                            trials.clone(),
                            &mut prev_out,
                            staged,
                        )
                    });
                    match attempt {
                        Ok(out) => out,
                        Err(e) if e.is_transient() && policy.degrade_to_host => {
                            degraded = true;
                            recovery.degraded_batches += 1;
                            host_group_out(plan, elems, family, trials.clone(), recovery)
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => host_group_out(plan, elems, family, trials.clone(), recovery),
            };
            for (i, trial) in trials.enumerate() {
                emit(trial, &group_out[i * w..(i + 1) * w]);
            }
        }
        Ok(Vec::new())
    }
}

/// Allocate a device buffer of `len` elements; under memory pressure,
/// give the loop's prefetched batch in `staged` back (it will re-upload
/// when its turn comes) and try once more.
fn alloc_or_unstage<T: gpclust_gpu::memory::Pod + Default>(
    gpu: &Gpu,
    len: usize,
    staged: &mut Staged,
) -> Result<DeviceBuffer<T>, DeviceError> {
    match gpu.alloc::<T>(len) {
        Err(DeviceError::OutOfMemory { .. }) if staged.is_some() => {
            *staged = None;
            gpu.alloc::<T>(len)
        }
        result => result,
    }
}

/// One marks batch's device execution: every trial of the batch writes
/// into one batch-resident buffer of selected-position marks (one byte
/// per batch element) and one trial-major buffer of the boundary
/// fragments' element ids, and both come back once per batch. The fused
/// kernel runs every trial in one launch
/// ([`thrust::transform_select_mark_on`]), retried as a whole. The sort
/// kernel keeps its three launches per trial, its gather ORing the
/// trial's selections into the marks: each trial is a retry scope whose
/// faults surface (`Gpu::take_fault`) before its gather runs and after,
/// so a faulted trial leaves no mark behind, and a mark, once set, is
/// idempotent. The caller degrades the batch to [`host_marks`] if the
/// retries run out.
#[allow(clippy::too_many_arguments)] // internal per-batch helper of run_batch
fn device_marks(
    gpu: &Gpu,
    streams: Streams<'_>,
    pass: &PassPlan,
    plan: &BatchPlan,
    elems_dev: &DeviceBuffer<u32>,
    packed_dev: &mut Option<DeviceBuffer<u64>>,
    family: &HashFamily,
    recovery: &mut RecoveryReport,
    staged: &mut Staged,
) -> Result<(Vec<u8>, Vec<u32>), DeviceError> {
    let (compute, copy) = streams;
    let policy = &pass.policy;
    let c = family.len();
    let w = plan.out_total;
    let n = elems_dev.len();
    // 2d. The marks and the fragments' ids back to the host once the
    // batch's kernels are done; a batch without fragments copies the
    // marks alone.
    let download = |marks_dev: &DeviceBuffer<u8>, out_dev: &DeviceBuffer<u32>| {
        copy.wait_event(&compute.record_event());
        let marks = copy.try_dtoh_async(marks_dev)?;
        let out = match out_dev.is_empty() {
            true => Vec::new(),
            false => copy.try_dtoh_async(out_dev)?,
        };
        Ok((marks, out))
    };
    match (pass.kernel, packed_dev) {
        (ShingleKernel::FusedSelect, _) => retry_transient(policy, recovery, || {
            let mut marks_dev = alloc_or_unstage::<u8>(gpu, n, staged)?;
            let mut out_dev = alloc_or_unstage::<u32>(gpu, c * w, staged)?;
            // 2a–c fused over every trial: hash + per-segment top-s
            // selection by `(hash, position)`, reduced to marks.
            let coeffs: Vec<(u64, u64)> = (0..c).map(|t| family.coeffs(t)).collect();
            thrust::transform_select_mark_on(
                compute,
                elems_dev,
                &plan.local_offsets,
                &plan.sel_offsets,
                plan.marked.clone(),
                c,
                &mut out_dev,
                &mut marks_dev,
                |t, v: u32| hash_with(coeffs[t].0, coeffs[t].1, v),
            );
            download(&marks_dev, &out_dev)
        }),
        (ShingleKernel::SortCompact, Some(packed_dev)) => {
            let mut marks_dev = alloc_or_unstage::<u8>(gpu, n, staged)?;
            let mut out_dev = alloc_or_unstage::<u32>(gpu, c * w, staged)?;
            let outs = out_dev.device_slice_mut();
            for t in 0..c {
                let out = &mut outs[t * w..(t + 1) * w];
                retry_transient(policy, recovery, || {
                    sort_trial(compute, plan, elems_dev, packed_dev, family.coeffs(t));
                    gpu.take_fault()?;
                    let tasks = compaction_tasks(
                        plan,
                        packed_dev.device_slice(),
                        out,
                        elems_dev.device_slice(),
                        marks_dev.device_slice_mut(),
                    );
                    compute.launch(plan.sel_total(), &KernelCost::gather(), tasks);
                    gpu.take_fault()
                })?;
            }
            retry_transient(policy, recovery, || download(&marks_dev, &out_dev))
        }
        (ShingleKernel::SortCompact, None) => unreachable!("workspace allocated per batch"),
    }
}

/// Steps 2a–b of the sort kernel for one trial: the min-wise hash packed
/// with each element, then a segmented sort of each adjacency list.
fn sort_trial(
    compute: &Stream,
    plan: &BatchPlan,
    elems_dev: &DeviceBuffer<u32>,
    packed_dev: &mut DeviceBuffer<u64>,
    (a, b): (u64, u64),
) {
    thrust::transform_on(compute, elems_dev, packed_dev, move |v: u32| {
        pack(hash_with(a, b, v), v)
    });
    thrust::segmented_sort_on(compute, packed_dev, &plan.local_offsets);
}

/// One trial group's device execution: allocate the group's dense,
/// trial-major output of element ids, launch the kernel chain (the sort
/// kernel's three launches for its one trial, or one fused selection over
/// the group), and copy the result back via the *fallible* transfer — the sync point
/// where injected kernel faults surface. Idempotent: every buffer it
/// writes is recomputed from `elems_dev`, so [`retry_transient`] can
/// re-run it after a transient fault and get bit-identical bytes.
/// `staged` is the loop's prefetch slot (given back under memory
/// pressure).
#[allow(clippy::too_many_arguments)] // internal per-group helper of run_batch
fn device_group(
    gpu: &Gpu,
    streams: Streams<'_>,
    kernel: ShingleKernel,
    plan: &BatchPlan,
    elems_dev: &DeviceBuffer<u32>,
    packed_dev: &mut Option<DeviceBuffer<u64>>,
    family: &HashFamily,
    trials: Range<usize>,
    prev_out: &mut Option<DeviceBuffer<u32>>,
    staged: &mut Staged,
) -> Result<Vec<u32>, DeviceError> {
    // The previous group's output has drained by now; free it before
    // allocating the next so peak memory holds at most one in-flight
    // output buffer.
    *prev_out = None;
    let len = trials.len() * plan.out_total;
    let mut out_dev = alloc_or_unstage::<u32>(gpu, len, staged)?;
    let (compute, copy) = streams;
    match (kernel, packed_dev) {
        (ShingleKernel::SortCompact, Some(packed_dev)) => {
            debug_assert_eq!(trials.len(), 1, "the sort kernel runs one trial at a time");
            // 2a. Random permutation via the min-wise hash, then
            // 2b. segmented sort within each adjacency list, then
            // 2c. compact the top-s elements of each kept segment.
            sort_trial(
                compute,
                plan,
                elems_dev,
                packed_dev,
                family.coeffs(trials.start),
            );
            let tasks = compaction_tasks(
                plan,
                packed_dev.device_slice(),
                out_dev.device_slice_mut(),
                &[],
                &mut [],
            );
            compute.launch(plan.out_total, &KernelCost::gather(), tasks);
        }
        (ShingleKernel::FusedSelect, _) => {
            // 2a–c fused over the whole group: hash + per-segment
            // ascending top-s selection by the packed key, writing each
            // selected element straight into its trial's slice of the
            // output. Identical bytes to what the compaction writes.
            let coeffs: Vec<(u64, u64)> = trials.map(|t| family.coeffs(t)).collect();
            thrust::transform_select_on(
                compute,
                elems_dev,
                &plan.local_offsets,
                &plan.out_offsets,
                coeffs.len(),
                &mut out_dev,
                |t, v: u32| pack(hash_with(coeffs[t].0, coeffs[t].1, v), v),
                unpack_element,
            );
        }
        (ShingleKernel::SortCompact, None) => unreachable!("workspace allocated per batch"),
    }
    // 2d. One transfer back to the host per group: the copy queues behind
    // the group's kernels and the next group's kernels start meanwhile.
    copy.wait_event(&compute.record_event());
    let data = copy.try_dtoh_async(&out_dev)?;
    *prev_out = Some(out_dev);
    Ok(data)
}

/// The degradation path for one trial group: the host builds the bytes
/// the group's D2H would have delivered, trial by trial.
fn host_group_out(
    plan: &BatchPlan,
    elems: &[u32],
    family: &HashFamily,
    trials: Range<usize>,
    recovery: &mut RecoveryReport,
) -> Vec<u32> {
    let t0 = Instant::now();
    let out = trials
        .flat_map(|t| {
            let (a, b) = family.coeffs(t);
            host_trial_out(plan, elems, a, b)
        })
        .collect();
    recovery.recovery_seconds += t0.elapsed().as_secs_f64();
    out
}

/// The degradation path for one marks batch: the host builds the marks
/// and the fragments' ids [`device_marks`] would have downloaded.
fn host_marks(
    plan: &BatchPlan,
    elems: &[u32],
    family: &HashFamily,
    recovery: &mut RecoveryReport,
) -> (Vec<u8>, Vec<u32>) {
    let t0 = Instant::now();
    let mut marks = vec![0u8; elems.len()];
    for t in 0..family.len() {
        let (a, b) = family.coeffs(t);
        host_trial_marks(plan, elems, a, b, &mut marks);
    }
    recovery.recovery_seconds += t0.elapsed().as_secs_f64();
    let out = host_group_out(plan, elems, family, 0..family.len(), recovery);
    (marks, out)
}

/// A boundary fragment's downloaded elements re-packed with their trial's
/// hashes `pack(h(v), v)` for coefficients `(a, b)` — the bytes the
/// kernels select by. Fragments merge by hash across batches (and
/// devices); complete records never need their hashes again.
fn repack(elements: &[u32], (a, b): (u64, u64)) -> Vec<PackedHash> {
    elements
        .iter()
        .map(|&v| pack(hash_with(a, b, v), v))
        .collect()
}

/// CPU-side record building for one trial's host output, with
/// boundary-fragment merging ("the CPU has to combine the shingle results
/// for the split adjacency lists after it receives shingles from the
/// GPU"): fragments re-pack under the trial's `coeffs` into the trial's
/// `carry`, and a merged list that completes goes out as elements. Only
/// the merged loop calls this; the deferred loop emits fragments
/// unmerged for the driver.
#[allow(clippy::too_many_arguments)] // internal per-trial helper of run_merged
fn emit_trial_records(
    plan: &BatchPlan,
    host_out: &[u32],
    trial: usize,
    coeffs: (u64, u64),
    s: usize,
    carry: &mut Vec<PackedHash>,
    carry_node: Option<u32>,
    state: &mut SinkState<'_>,
) {
    let n_segs = plan.nodes.len();
    for &seg in &plan.emit_segs {
        let i = seg as usize;
        let lo = plan.out_offsets[i];
        let hi = plan.out_offsets[i + 1];
        let elements = &host_out[lo..hi];
        let is_first = i == 0;
        let is_last = i == n_segs - 1;
        if is_first && plan.first_frag {
            debug_assert_eq!(carry_node, Some(plan.nodes[i]));
            let mut merged = std::mem::take(carry);
            merged.extend(repack(elements, coeffs));
            merged.sort_unstable();
            merged.dedup();
            merged.truncate(s);
            if is_last && plan.last_frag {
                *carry = merged; // list continues further
            } else if merged.len() == s {
                let merged: Vec<u32> = merged.iter().map(|&p| unpack_element(p)).collect();
                state.record(trial as u32, plan.nodes[i], &merged);
            }
        } else if is_last && plan.last_frag {
            *carry = repack(elements, coeffs);
        } else if elements.len() == s {
            state.record(trial as u32, plan.nodes[i], elements);
        }
    }
}

/// The sink strategy, instantiated from the public [`Sink`] request.
enum SinkState<'a> {
    /// Records materialize: complete records to the run builder when
    /// there is one (a deferred pass), everything else (fragments, or
    /// every record of a merged pass) to `raw`.
    Gather {
        raw: RawShingles,
        builder: Option<StreamAggregator>,
    },
    /// Complete lists' marks fold into Phase III; fragments pool in
    /// `raw`, or, merged on the host, fold as records.
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

    /// Whether the sink takes marks ([`SinkState::marks`]) for the
    /// complete lists of a batch, not their records.
    fn takes_marks(&self) -> bool {
        matches!(self, SinkState::Clusters { .. })
    }

    /// Take a finished batch's marks (one byte per batch element,
    /// [`device_marks`]) over `trials` trials: Phase III unions each
    /// complete list's marked members onto its anchor, and counts the
    /// `trials` records each such list stands for once per owner. A
    /// sink that gathers records takes no marks.
    fn marks(&mut self, plan: &BatchPlan, trials: usize, marks: &[u8]) {
        let SinkState::Clusters {
            lists, uf, records, ..
        } = self
        else {
            return;
        };
        let m = plan.marked.clone();
        if m.is_empty() {
            return;
        }
        let owners: u64 = m
            .clone()
            .filter(|&i| plan.sel_offsets[i + 1] > plan.sel_offsets[i])
            .map(|i| lists.owners(plan.nodes[i]))
            .sum();
        *records += trials as u64 * owners;
        let window = plan.local_offsets[m.start] as usize..plan.local_offsets[m.end] as usize;
        lists.union_marked(
            uf,
            plan.nodes[m.start]..plan.nodes[m.end - 1] + 1,
            &marks[window],
        );
    }

    /// Take one complete record: its `s` element ids in hash order. A
    /// Phase-III sink takes records only of lists whose boundary
    /// fragments the merged loop joined; complete lists come as marks.
    fn record(&mut self, trial: u32, node: u32, elements: &[u32]) {
        match self {
            SinkState::Gather {
                builder: Some(agg), ..
            } => agg.push(trial, node, elements.iter().copied()),
            SinkState::Gather { raw, .. } => raw.push_complete(trial, node, elements),
            SinkState::Clusters {
                lists, uf, records, ..
            } => {
                *records += lists.owners(node);
                lists.union_record(uf, node, elements.iter().copied());
            }
        }
    }

    /// Take one boundary fragment: its packed `(hash, element)` pairs,
    /// for the driver's merge.
    fn fragment(&mut self, trial: u32, node: u32, pairs: &[PackedHash]) {
        match self {
            SinkState::Gather { raw, .. } | SinkState::Clusters { raw, .. } => {
                raw.push(trial, node, pairs)
            }
        }
    }

    /// What the sink holds now (see [`Mark`]).
    fn mark(&self) -> Mark {
        match self {
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
    /// A failed batch's marks never reach Phase III.
    fn rollback(&mut self, mark: Mark) {
        match self {
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

    /// One H2D per batch and one D2H per trial group: every trial under
    /// the sort kernel, `⌈c / g⌉` groups of `g = clamp(2n / out, 1, c)`
    /// under the fused one. Either way the copies move 4 bytes per
    /// output slot of every group: `4 · c · out` bytes in all.
    #[test]
    fn per_group_d2h_traffic() {
        let g = planted_graph(4);
        let c = 10;
        let family = HashFamily::new(c, 6);
        for kernel in KERNELS {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
            let pass = pass_plan(&gpu, 2, kernel, None, &g);
            assert_eq!(pass.batches.len(), 1);
            let out_total = plan_batch(&pass.batches[0], g.offsets(), 2, false).out_total;
            let n = g.flat().len();
            let group = trial_group(kernel, n, out_total, c);
            gather(&gpu, &g, 2, &family, kernel, None);
            let snap = gpu.counters();
            assert_eq!(snap.d2h_transfers, c.div_ceil(group) as u64, "{kernel:?}");
            let group_slots: usize = (0..c)
                .step_by(group)
                .map(|lo| group.min(c - lo) * out_total)
                .sum();
            assert_eq!(snap.d2h_bytes, 4 * group_slots as u64, "{kernel:?}");
            assert_eq!(snap.h2d_transfers, 1, "{kernel:?}");
            assert!(snap.d2h_seconds > 0.0, "{kernel:?}");
            match kernel {
                ShingleKernel::SortCompact => assert_eq!(group, 1),
                ShingleKernel::FusedSelect => {
                    assert_eq!(group, (2 * n / out_total).clamp(1, c));
                    assert!(group > 1, "{group}");
                }
            }
        }
    }

    /// At a capacity this small most batches start and end inside an
    /// adjacency list, so most records pass through the host's
    /// re-packing of fragment elements. Under both kernels, fault-free
    /// and with every device op failing (each batch degraded to the host
    /// path), the gathered records — merged in one pass, or deferred and
    /// reconciled — and the Phase-III partition equal the serial
    /// oracle's.
    #[test]
    fn fragment_heavy_passes_match_the_serial_oracle() {
        use crate::aggregate::merge_fragments;
        use crate::serial::SerialShingling;
        use crate::spill::merge_resident;
        use gpclust_gpu::FaultPlan;
        use gpclust_graph::components::absorb_labels;
        let g = batching_graph(23);
        let family = HashFamily::new(8, 5);
        let serial = aggregate(&shingle_pass(&g, 2, &family));
        for kernel in KERNELS {
            for faulty in [false, true] {
                let what = format!("{kernel:?}, faults {faulty}");
                let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
                if faulty {
                    gpu.set_fault_plan(FaultPlan::random(7, 1.0));
                }
                let mut rec = RecoveryReport::default();
                let pass = pass_plan(&gpu, 2, kernel, Some(40), &g);
                let fragmented = pass
                    .batches
                    .iter()
                    .filter(|b| b.first_is_fragment(g.offsets()) && b.last_is_fragment(g.offsets()))
                    .count();
                assert!(2 * fragmented > pass.batches.len(), "{what}");
                let exec = Executor::new(&gpu);
                let input = PassInput::of(&g);
                let merged = exec
                    .run(&pass, input, &family, &mut rec, Sink::Gather)
                    .unwrap();
                assert_eq!(aggregate(&merged.raw), serial, "{what}: merged");
                let sub = pass.subplan((0..pass.batches.len()).collect());
                let deferred = exec
                    .run(&sub, input, &family, &mut rec, Sink::Gather)
                    .unwrap();
                let mut runs = deferred.runs;
                runs.push(merge_fragments(&deferred.raw));
                assert_eq!(merge_resident(2, runs), serial, "{what}: deferred");

                let fx = clusters_fixture(&gpu, Some(24));
                let run = SerialShingling::new(fx.params).unwrap().run(&fx.g);
                let oracle = crate::report::partition_clusters(fx.g.n(), &run.first, &run.second);
                let pass2 = PassPlan { kernel, ..fx.pass2 };
                let report = exec
                    .run(
                        &pass2,
                        PassInput::of(&fx.lists),
                        &fx.params.family_pass2(),
                        &mut rec,
                        Sink::Clusters(&fx.lists),
                    )
                    .unwrap();
                let mut uf = UnionFind::new(fx.g.n());
                absorb_labels(&mut uf, &report.clusters.unwrap().labels);
                let (partition, _) =
                    fx.lists
                        .finish(uf, fx.params.s2, fx.params.c2, &SortedRun::default());
                assert_eq!(partition, oracle, "{what}: partition");
                assert_eq!(rec.degraded_batches > 0, faulty, "{what}: {rec}");
            }
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
    /// does strictly less device work: one launch per (batch, trial
    /// group) instead of three per (batch, trial), and less modeled
    /// kernel time.
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
        // The same bytes cross the bus under a shared plan; the fused
        // kernel's groups move them in fewer copies.
        assert_eq!(a.h2d_bytes, b.h2d_bytes);
        assert_eq!(a.d2h_bytes, b.d2h_bytes);
        assert!(b.d2h_transfers < a.d2h_transfers);
    }

    /// With device-derived capacities both kernels plan at one footprint:
    /// the same batches, uploaded alike, while the fused kernel's groups
    /// launch and download fewer times.
    #[test]
    fn both_kernels_plan_one_footprint() {
        let g = batching_graph(8);
        let family = HashFamily::new(6, 2);
        let gpu_sort = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let gpu_sel = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let sort = gather(&gpu_sort, &g, 2, &family, ShingleKernel::SortCompact, None);
        let sel = gather(&gpu_sel, &g, 2, &family, ShingleKernel::FusedSelect, None);
        assert_eq!(sort.raw, sel.raw);
        assert_eq!(sel.stats, sort.stats);
        assert_eq!(sel.stats.elem_footprint_bytes, 16);
        assert!(sel.stats.n_batches > 1, "the tiny device must batch");
        let (a, b) = (gpu_sort.counters(), gpu_sel.counters());
        assert_eq!(a.h2d_transfers, b.h2d_transfers);
        assert!(b.kernel_launches < a.kernel_launches);
        assert!(b.d2h_transfers < a.d2h_transfers);
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
        assert!(
            lists.len() >= 50,
            "settling must leave Pass II lists to run"
        );
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
        let mut uf = UnionFind::new(n);
        absorb_labels(&mut uf, &clusters.labels);
        let (partition, settled_records) =
            fx.lists
                .finish(uf, fx.params.s2, fx.params.c2, &SortedRun::default());
        assert_eq!(
            (clusters.records + settled_records) as usize,
            run.second.n_edges()
        );
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
            let (partition, host_records) = fx.lists.finish(uf, fx.params.s2, fx.params.c2, &fin);
            let what = format!("{n_devices} devices");
            assert_eq!(partition, oracle, "{what}");
            assert_eq!(
                (records + host_records) as usize,
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
            let (finished, _) = fx.lists.finish(uf, s2, fx.params.c2, &fin);
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
        let (merged, _) = fx.lists.finish(uf, s2, fx.params.c2, &SortedRun::default());
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

    /// A fault in a sort-kernel marks batch surfaces before the gather
    /// that would OR a stale workspace into the batch's marks. With one
    /// trial over lists of disjoint members, a stray mark would join a
    /// member no trial selected, yet a transient fault at any of the
    /// pass's launches leaves the fault-free labels.
    #[test]
    fn sort_marks_survive_a_fault_at_every_launch() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let members: Vec<Vec<u32>> = (0..40u32).map(|l| (6 * l..6 * l + 6).collect()).collect();
        let elements: Vec<[u32; 2]> = (0..40u32).map(|l| [1000 + 2 * l, 1001 + 2 * l]).collect();
        let first = ShingleGraph::from_records(
            2,
            (0..40).map(|l| (l as u64, &elements[l][..], &members[l][..])),
        );
        let lists = DistinctLists::new(&first, 2, 1080);
        let family = HashFamily::new(1, 3);
        let run = |gpu: &Gpu| {
            let pass = pass_plan(gpu, 2, ShingleKernel::SortCompact, None, &lists);
            let mut rec = RecoveryReport::default();
            let report = Executor::new(gpu)
                .run(
                    &pass,
                    PassInput::of(&lists),
                    &family,
                    &mut rec,
                    Sink::Clusters(&lists),
                )
                .unwrap();
            (report.clusters.unwrap(), rec)
        };
        let clean = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let (expected, _) = run(&clean);
        let launches = clean.counters().kernel_launches;
        assert_eq!(launches, 3, "one trial: transform, sort, gather");
        for at in 1..=launches {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
            gpu.set_fault_plan(FaultPlan::scheduled().with_fault(
                FaultSite::Kernel,
                at,
                FaultKind::LaunchFailed,
            ));
            let (labels, rec) = run(&gpu);
            assert_eq!(labels, expected, "fault at launch {at}");
            assert_eq!(rec.retries, 1, "fault at launch {at}");
        }
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
        assert_eq!(serial, crate::spill::merge_resident(2, runs));
    }
}
