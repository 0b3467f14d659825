//! Microbenchmarks of the Thrust-like device kernels — the two workhorses
//! the paper names (transform + segmented sort [15]) — and of the stream
//! copies. Wall times here reflect the host pool; the simulated device
//! seconds are the cost model's business, not this timer's.

use gpclust_bench::{time, time_with_setup};
use gpclust_gpu::{thrust, DeviceConfig, Gpu, Stream};
use gpclust_support::rng::StdRng;

const N: usize = 1 << 20;

fn data(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N).map(|_| rng.gen()).collect()
}

fn bench_transform(gpu: &Gpu, s: &Stream) {
    let input = s.htod_async(&data(1)).unwrap();
    let mut out = gpu.alloc::<u64>(N).unwrap();
    time("device_transform/transform_1M_u64", 20, || {
        thrust::transform_on(s, &input, &mut out, |x| x.wrapping_mul(0x9E37_79B9))
    });
}

fn bench_segmented_sort(s: &Stream) {
    let host = data(3);
    // Adjacency-list-like segmentation: mean segment ~64 elements.
    let mut offsets = vec![0u64];
    let mut rng = StdRng::seed_from_u64(4);
    while (*offsets.last().unwrap() as usize) < N {
        let next = (*offsets.last().unwrap() + rng.gen_range(1..128u64)).min(N as u64);
        offsets.push(next);
    }
    time_with_setup(
        "device_segmented_sort/segmented_sort_1M_u64_seg64",
        10,
        || s.htod_async(&host).unwrap(),
        |mut buf| thrust::segmented_sort_on(s, &mut buf, &offsets),
    );
}

fn bench_transfers(s: &Stream) {
    let host = data(5);
    time("transfers/htod_8MB", 20, || s.htod_async(&host).unwrap());
    let buf = s.htod_async(&host).unwrap();
    time("transfers/dtoh_8MB", 20, || s.dtoh_async(&buf));
}

fn main() {
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let s = gpu.stream("bench");
    bench_transform(&gpu, &s);
    bench_segmented_sort(&s);
    bench_transfers(&s);
}
