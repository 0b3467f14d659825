//! Property tests for the device kernels: every kernel must agree with its
//! host-side oracle for arbitrary inputs, worker counts, and segment
//! structures.

use gpclust_gpu::{thrust, DeviceConfig, Gpu};
use gpclust_support::check::check;

fn gpu(workers: usize) -> Gpu {
    Gpu::with_workers(DeviceConfig::tesla_k20(), workers)
}

#[test]
fn segmented_sort_matches_per_segment_std() {
    check(32, |case| {
        let seg_lens = case.vec(0..80, |c| c.range(0usize..60));
        let workers = case.range(1usize..4);
        let seed = case.u64();
        let g = gpu(workers);
        let mut offsets = vec![0u64];
        let mut data: Vec<u64> = Vec::new();
        let mut x = seed | 1;
        for &len in &seg_lens {
            for _ in 0..len {
                // xorshift64 fill
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                data.push(x);
            }
            offsets.push(data.len() as u64);
        }
        let mut expected = data.clone();
        for w in offsets.windows(2) {
            expected[w[0] as usize..w[1] as usize].sort_unstable();
        }
        let s = g.stream("compute");
        let mut buf = s.htod_async(&data).unwrap();
        thrust::segmented_sort_on(&s, &mut buf, &offsets);
        assert_eq!(s.dtoh_async(&buf), expected);
    });
}

#[test]
fn transform_matches_map() {
    check(32, |case| {
        let data = case.vec(0..3000, |c| c.u64());
        let mul = case.u64();
        let g = gpu(2);
        let s = g.stream("compute");
        let input = s.htod_async(&data).unwrap();
        let mut out = g.alloc::<u64>(data.len()).unwrap();
        thrust::transform_on(&s, &input, &mut out, |x| x.wrapping_mul(mul));
        let expected: Vec<u64> = data.iter().map(|x| x.wrapping_mul(mul)).collect();
        assert_eq!(s.dtoh_async(&out), expected);
    });
}
