//! Min-wise independent permutations.
//!
//! A random trial `j` permutes an adjacency list Γ(u) by mapping each
//! member `v` to `h_j(v) = (A_j·v + B_j) mod P` for a fixed random pair
//! `<A_j, B_j>` (paper §III-B, after Broder et al.'s min-wise independent
//! permutation theory). The s members with the smallest permuted values
//! form the trial's shingle. With high probability, vertices of a dense
//! subgraph — which share most of their neighbors — also share their
//! minimum-hash members, hence their shingles.
//!
//! The top-s selection over the packed `(hash, element)` keys is
//! [`gpclust_gpu::thrust::select_smallest_into`], the one primitive the
//! serial oracle, the fused device kernel and the host degrade path share.

use crate::params::PRIME_P;
use gpclust_support::rng::StdRng;

/// One packed (hash, element) pair: hash in the high 32 bits, element id in
/// the low 32. Ordering packed values orders by hash with element id as the
/// deterministic tie-break — the same layout the device sort operates on.
pub type PackedHash = u64;

/// Pack a (hash, element) pair.
#[inline(always)]
pub fn pack(hash: u32, element: u32) -> PackedHash {
    ((hash as u64) << 32) | element as u64
}

/// Element id of a packed pair.
#[inline(always)]
pub fn unpack_element(p: PackedHash) -> u32 {
    p as u32
}

/// Hash of a packed pair.
#[inline(always)]
pub fn unpack_hash(p: PackedHash) -> u32 {
    (p >> 32) as u32
}

/// A family of `c` random linear hash functions `h_j(v) = (A_j·v+B_j) mod P`.
#[derive(Debug, Clone)]
pub struct HashFamily {
    coeffs: Vec<(u64, u64)>,
}

impl HashFamily {
    /// Draw `c` pairs `<A_j, B_j>` from `seed`. `A_j` is non-zero so every
    /// `h_j` is a permutation of Z_P.
    pub fn new(c: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs = (0..c)
            .map(|_| (rng.gen_range(1..PRIME_P), rng.gen_range(0..PRIME_P)))
            .collect();
        HashFamily { coeffs }
    }

    /// Number of trials in the family.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True if the family has no trials.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The `<A, B>` pair of trial `j`.
    #[inline]
    pub fn coeffs(&self, j: usize) -> (u64, u64) {
        self.coeffs[j]
    }

    /// Evaluate `h_j(v)` (see [`hash_with`]).
    #[inline(always)]
    pub fn hash(&self, j: usize, v: u32) -> u32 {
        let (a, b) = self.coeffs[j];
        hash_with(a, b, v)
    }
}

/// Evaluate `(a·v + b) mod P` for explicit coefficients (the form kernels
/// capture, avoiding a family lookup per element).
///
/// Requires `a, b < P`, which holds for every pair [`HashFamily::new`]
/// draws. Then `a·v + b ≤ (P − 1)·(2³² − 1) + (P − 1) = (P − 1)·2³² < 2⁶⁴`,
/// so the product and the sum are exact in 64 bits and the reduction is a
/// division by a constant.
#[inline(always)]
pub fn hash_with(a: u64, b: u64, v: u32) -> u32 {
    debug_assert!(a < PRIME_P && b < PRIME_P, "coefficients must be < P");
    ((a * v as u64 + b) % PRIME_P) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ShinglingParams;

    /// The paper-default Pass-I family for seed 7, as measured by the
    /// benchmark: a change to the RNG stream or to how `HashFamily::new`
    /// draws from it changes every clustering.
    #[test]
    fn rng_stream_is_pinned() {
        let f = ShinglingParams::paper_default(7).family_pass1();
        assert_eq!(f.len(), 200);
        assert_eq!(f.coeffs(0), (2718806823, 3186982166));
        assert_eq!(f.coeffs(1), (3813002252, 356840205));
        assert_eq!(f.coeffs(199), (3692932480, 723400283));
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let f = HashFamily::new(8, 42);
        let g = HashFamily::new(8, 42);
        for j in 0..8 {
            for v in [0u32, 1, 777, u32::MAX] {
                assert_eq!(f.hash(j, v), g.hash(j, v));
                assert!((f.hash(j, v) as u64) < PRIME_P);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let f = HashFamily::new(4, 1);
        let g = HashFamily::new(4, 2);
        let differs = (0..4).any(|j| f.hash(j, 12345) != g.hash(j, 12345));
        assert!(differs);
    }

    #[test]
    fn trials_are_distinct_hashes() {
        let f = HashFamily::new(16, 3);
        let vals: std::collections::HashSet<u32> = (0..16).map(|j| f.hash(j, 999)).collect();
        assert!(vals.len() > 12, "trials should mostly differ");
    }

    #[test]
    fn hash_is_injective_on_small_domain() {
        // A linear map mod a prime is a bijection of Z_P; distinct small
        // vertex ids must hash distinctly.
        let f = HashFamily::new(1, 9);
        let mut seen = std::collections::HashSet::new();
        for v in 0..10_000u32 {
            assert!(seen.insert(f.hash(0, v)), "collision at {v}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let p = pack(0xDEAD_BEEF, 0x1234_5678);
        assert_eq!(unpack_hash(p), 0xDEAD_BEEF);
        assert_eq!(unpack_element(p), 0x1234_5678);
    }

    #[test]
    fn packed_order_is_hash_then_element() {
        assert!(pack(1, 999) < pack(2, 0));
        assert!(pack(5, 1) < pack(5, 2));
    }

    #[test]
    fn hash_with_matches_family() {
        let f = HashFamily::new(2, 11);
        let (a, b) = f.coeffs(1);
        assert_eq!(f.hash(1, 4242), hash_with(a, b, 4242));
    }

    /// The 128-bit form `hash_with` replaced: exact for any coefficients.
    fn hash_u128(a: u64, b: u64, v: u32) -> u32 {
        ((a as u128 * v as u128 + b as u128) % PRIME_P as u128) as u32
    }

    /// The 64-bit reduction is exact over the whole coefficient range
    /// `HashFamily::new` draws from, for every element id.
    #[test]
    fn hash_with_equals_the_u128_form() {
        let top = PRIME_P - 1;
        for (a, b) in [(top, top), (1, 0), (top, 0), (1, top)] {
            for v in [0, 1, u32::MAX - 1, u32::MAX] {
                assert_eq!(hash_with(a, b, v), hash_u128(a, b, v), "a={a} b={b} v={v}");
            }
        }
        gpclust_support::check::check(256, |case| {
            let a = case.range(1..PRIME_P);
            let b = case.range(0..PRIME_P);
            for _ in 0..64 {
                let v: u32 = case.range(0..=u32::MAX);
                assert_eq!(hash_with(a, b, v), hash_u128(a, b, v), "a={a} b={b} v={v}");
            }
        });
    }
}
