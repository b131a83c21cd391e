//! Small numeric and hashing utilities shared across the workspace.
//!
//! The randomized constructions need hash functions modelled as random
//! oracles (the bucket sort's bin assignment, the ORAM's bucket hashing, the
//! keystream and MAC derivations) and seeded randomness for sampling and
//! shuffling. We implement a standard 64-bit
//! finalizer-style mixer (`splitmix64`) in-crate rather than pulling in an
//! extra hashing dependency; its avalanche behaviour is more than adequate
//! for the simulator-scale experiments here and keeps the dependency list to
//! the crates allowed by the project brief.

/// The `splitmix64` mixing function: a bijective 64-bit finalizer with good
/// avalanche properties, used as the basis of all in-crate hashing.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes `x` with a salt, producing a pseudo-random 64-bit value.
#[inline]
pub fn hash64(x: u64, salt: u64) -> u64 {
    splitmix64(x ^ splitmix64(salt))
}

/// Maps a 64-bit hash to a bucket in `[0, n)` using the widening-multiply
/// trick (unbiased enough for our purposes and much faster than `%`).
#[inline]
pub fn bucket_of(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (((hash as u128) * (n as u128)) >> 64) as usize
}

/// Integer `⌈log2⌉`, with `ilog2_ceil(x) = 0` for `x ≤ 1`.
#[inline]
pub fn ilog2_ceil(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// Integer `⌊log2⌋`, with `ilog2_floor(0) = 0`.
#[inline]
pub fn ilog2_floor(x: usize) -> u32 {
    if x == 0 {
        0
    } else {
        usize::BITS - 1 - x.leading_zeros()
    }
}

/// The smallest power of two `≥ x` (and `1` for `x = 0`).
#[inline]
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

/// Iterated logarithm `log*₂(x)`: the number of times `log2` must be applied
/// before the value drops to at most 1. Used to report the complexity of the
/// Appendix-B loose-compaction algorithm.
pub fn log_star(mut x: f64) -> u32 {
    let mut c = 0;
    while x > 1.0 {
        x = x.log2();
        c += 1;
    }
    c
}

/// Integer square root (floor).
pub fn isqrt(x: usize) -> usize {
    if x < 2 {
        return x;
    }
    let mut r = (x as f64).sqrt() as usize;
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    while r * r > x {
        r -= 1;
    }
    r
}

/// `⌈x^p⌉` for a fractional power `p`, used for the paper's `n^{1/2}`,
/// `n^{3/8}`, `N^{3/4}` … sample-size formulas.
#[inline]
pub fn ceil_pow(x: usize, p: f64) -> usize {
    (x as f64).powf(p).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // A couple of reference values computed from the canonical algorithm.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn hash64_depends_on_salt() {
        assert_ne!(hash64(7, 1), hash64(7, 2));
        assert_eq!(hash64(7, 1), hash64(7, 1));
    }

    #[test]
    fn bucket_of_stays_in_range_and_spreads() {
        let n = 13;
        let mut seen = vec![false; n];
        for i in 0..1000u64 {
            let b = bucket_of(hash64(i, 42), n);
            assert!(b < n);
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn ilog2_variants() {
        assert_eq!(ilog2_ceil(1), 0);
        assert_eq!(ilog2_ceil(2), 1);
        assert_eq!(ilog2_ceil(3), 2);
        assert_eq!(ilog2_ceil(1024), 10);
        assert_eq!(ilog2_floor(1), 0);
        assert_eq!(ilog2_floor(3), 1);
        assert_eq!(ilog2_floor(1024), 10);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1025), 2048);
    }

    #[test]
    fn log_star_of_tower_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(1_000_000), 1000);
        assert_eq!(isqrt(999_999), 999);
    }

    #[test]
    fn ceil_pow_matches_paper_sample_sizes() {
        assert_eq!(ceil_pow(65536, 0.5), 256);
        assert_eq!(ceil_pow(65536, 0.75), 4096);
        assert_eq!(ceil_pow(100, 0.375), 6); // 100^(3/8) ≈ 5.62
    }
}
