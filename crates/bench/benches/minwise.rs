//! Microbenchmarks of the min-wise machinery — the inner loop the paper
//! profiles at ~80 % of serial runtime ("hashing and sorting operations").

use gpclust_bench::time;
use gpclust_core::minwise::{hash_with, pack, HashFamily};
use gpclust_core::shingle::shingle_key;
use gpclust_gpu::thrust::select_smallest_into;
use gpclust_support::rng::StdRng;
use std::hint::black_box;
use std::time::Instant;

fn bench_hash() {
    let family = HashFamily::new(1, 7);
    let (a, b) = family.coeffs(0);
    let values: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2654435761)).collect();
    time("minwise_hash/hash_4096_elements", 100, || {
        let mut acc = 0u64;
        for &v in &values {
            acc ^= hash_with(a, b, black_box(v)) as u64;
        }
        acc
    });
}

fn bench_top_s() {
    let values: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    for s in [2usize, 4, 8] {
        let mut top = vec![0u64; s];
        time(&format!("top_s_selection/select_s{s}"), 100, || {
            select_smallest_into(black_box(&values), &mut top, |x| x);
            top[0]
        });
        // The paper's design choice: select the s smallest instead of a
        // full sort + truncate. This is the comparison that justifies it.
        time(
            &format!("top_s_selection/full_sort_truncate_s{s}"),
            100,
            || {
                let mut v = values.clone();
                v.sort_unstable();
                v.truncate(s);
                v[0]
            },
        );
    }
}

/// Hash + top-2 through the shared primitive on the Pass II shape:
/// segments of 2–16 elements (9 on average) under 100 trials, the loop
/// the fused kernel runs per (segment, trial). Prints ns per
/// element-trial so a regression in the inner loop shows.
fn bench_select_pass2_shape() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut offsets = vec![0usize];
    while *offsets.last().unwrap() < 200_000 {
        offsets.push(offsets.last().unwrap() + rng.gen_range(2..17usize));
    }
    let elems: Vec<u32> = (0..*offsets.last().unwrap()).map(|_| rng.gen()).collect();
    let family = HashFamily::new(100, 7);
    let run = || {
        let mut acc = 0u64;
        let mut top = [0u64; 2];
        for w in offsets.windows(2) {
            let seg = &elems[w[0]..w[1]];
            for t in 0..family.len() {
                let (a, b) = family.coeffs(t);
                select_smallest_into(seg, &mut top, |v| pack(hash_with(a, b, v), v));
                acc ^= top[0] ^ top[1];
            }
        }
        acc
    };
    time("select/pass2_shape", 10, run);
    if std::env::args().any(|a| a == "--bench") {
        let start = Instant::now();
        black_box(run());
        let ns = start.elapsed().as_secs_f64() * 1e9 / (elems.len() * family.len()) as f64;
        println!("select/pass2_shape: {ns:.2} ns per element-trial");
    }
}

fn main() {
    bench_hash();
    bench_top_s();
    bench_select_pass2_shape();
    time("shingle_key_s2", 100, || {
        shingle_key(black_box(3), [black_box(123), black_box(456)])
    });
}
