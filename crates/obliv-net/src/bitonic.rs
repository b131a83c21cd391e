//! Batcher's bitonic sorter.
//!
//! The bitonic sorter is the second classic `O(n log² n)` sorting network.
//! Its recursive structure — sort the two halves in opposite directions, then
//! run a sequence of fixed-stride compare-exchange passes — is exactly what
//! the external-memory deterministic sort in [`crate::external_sort`]
//! exploits: every pass touches blocks in a fixed, data-independent order,
//! and sub-problems that fit in the private cache can be finished there for
//! free (as far as the adversary is concerned).
//!
//! The in-memory functions here require power-of-two lengths (callers pad
//! with sentinels).

use crate::compare::compare_exchange_dir_by;
use crate::network::{Comparator, Network};
use std::cmp::Ordering;

/// Sorts a power-of-two-length slice ascending.
///
/// # Panics
/// Panics if `v.len()` is not a power of two.
pub fn bitonic_sort_pow2<T: Ord>(v: &mut [T]) {
    bitonic_sort_pow2_by(v, true, &|a: &T, b: &T| a.cmp(b));
}

/// Sorts a power-of-two-length slice in the given direction with a custom
/// comparison.
pub fn bitonic_sort_pow2_by<T, F>(v: &mut [T], ascending: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    assert!(
        n.is_power_of_two() || n == 0,
        "bitonic_sort_pow2 requires a power-of-two length"
    );
    if n > 1 {
        sort_rec(v, 0, n, ascending, cmp);
    }
}

/// Merges a bitonic power-of-two-length slice into sorted order in the given
/// direction.
///
/// A slice is *bitonic* when it is an ascending run followed by a descending
/// run (or a rotation thereof); in particular the concatenation of an
/// ascending and a descending sorted half is bitonic. This is the
/// `O(n log n)`-comparator tail of the bitonic sorter, exposed on its own
/// because it is exactly what the external-memory sort's **in-cache
/// finishing** runs once a merge sub-problem fits in the private cache: all
/// remaining compare-exchange levels of the region, executed CPU-side.
///
/// # Panics
/// Panics if `v.len()` is not a power of two.
pub fn bitonic_merge_pow2_by<T, F>(v: &mut [T], ascending: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    let n = v.len();
    assert!(
        n.is_power_of_two() || n == 0,
        "bitonic_merge_pow2 requires a power-of-two length"
    );
    if n > 1 {
        merge_rec(v, 0, n, ascending, cmp);
    }
}

/// Builds the explicit [`Network`] form of the bitonic sorter over `n` wires
/// (`n` a power of two), one level of disjoint comparators per stage.
///
/// The network uses *directed* comparators ([`Comparator::directed`]):
/// descending merge halves route their maximum to the lower wire, exactly as
/// [`bitonic_sort_pow2`] executes them. The test-suite verifies the network
/// with the zero-one principle and checks it agrees with the in-place sorter.
///
/// # Panics
/// Panics if `n` is not a power of two.
pub fn bitonic_network(n: usize) -> Network {
    assert!(
        n.is_power_of_two() || n == 0,
        "bitonic_network requires a power-of-two width"
    );
    let mut net = Network::new(n.max(1));
    if n < 2 {
        return net;
    }
    // Iterative formulation: stage k doubles the sorted sequence length,
    // stride s halves within a stage; pair (i, i ^ s) merges ascending iff
    // bit k of i is clear. Each (k, s) level is one stage of disjoint
    // comparators.
    let mut k = 2;
    while k <= n {
        let mut s = k / 2;
        while s >= 1 {
            let mut stage = Vec::with_capacity(n / 2);
            for i in 0..n {
                let l = i ^ s;
                if l > i {
                    let asc = i & k == 0;
                    stage.push(if asc {
                        Comparator::directed(i, l)
                    } else {
                        Comparator::directed(l, i)
                    });
                }
            }
            net.push_stage(stage);
            s /= 2;
        }
        k *= 2;
    }
    net
}

fn sort_rec<T, F>(v: &mut [T], lo: usize, n: usize, asc: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    if n <= 1 {
        return;
    }
    let half = n / 2;
    sort_rec(v, lo, half, true, cmp);
    sort_rec(v, lo + half, half, false, cmp);
    merge_rec(v, lo, n, asc, cmp);
}

/// Merges a bitonic range `v[lo..lo+n]` into `asc` order.
fn merge_rec<T, F>(v: &mut [T], lo: usize, n: usize, asc: bool, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering,
{
    if n <= 1 {
        return;
    }
    let half = n / 2;
    for i in lo..lo + half {
        compare_exchange_dir_by(v, i, i + half, asc, cmp);
    }
    merge_rec(v, lo, half, asc, cmp);
    merge_rec(v, lo + half, half, asc, cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_power_of_two_inputs() {
        let mut v = vec![7u32, 3, 9, 1, 0, 12, 5, 5];
        bitonic_sort_pow2(&mut v);
        assert_eq!(v, vec![0, 1, 3, 5, 5, 7, 9, 12]);
    }

    #[test]
    fn sorts_descending_when_asked() {
        let mut v = vec![4u32, 1, 3, 2];
        bitonic_sort_pow2_by(&mut v, false, &|a: &u32, b: &u32| a.cmp(b));
        assert_eq!(v, vec![4, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_lengths() {
        let mut v = vec![3u32, 1, 2];
        bitonic_sort_pow2(&mut v);
    }

    #[test]
    fn random_inputs_match_std_sort() {
        let mut x: u64 = 12345;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for exp in [4usize, 6, 8] {
            let n = 1 << exp;
            let mut v: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            bitonic_sort_pow2(&mut v);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn empty_and_single_element_are_fine() {
        let mut v: Vec<u32> = vec![];
        bitonic_sort_pow2(&mut v);
        let mut w = vec![9u32];
        bitonic_sort_pow2(&mut w);
        assert_eq!(w, vec![9]);
    }

    #[test]
    fn merge_finishes_a_bitonic_sequence() {
        // Ascending half followed by descending half is bitonic.
        let mut v = vec![1u32, 4, 6, 9, 8, 5, 3, 0];
        bitonic_merge_pow2_by(&mut v, true, &|a: &u32, b: &u32| a.cmp(b));
        assert_eq!(v, vec![0, 1, 3, 4, 5, 6, 8, 9]);
        let mut w = vec![1u32, 4, 6, 9, 8, 5, 3, 0];
        bitonic_merge_pow2_by(&mut w, false, &|a: &u32, b: &u32| a.cmp(b));
        assert_eq!(w, vec![9, 8, 6, 5, 4, 3, 1, 0]);
    }

    #[test]
    fn network_passes_zero_one_principle_exhaustively() {
        // Zero-one principle: a comparator network sorts all inputs iff it
        // sorts all 0/1 inputs. Checked exhaustively through the explicit
        // Network form (directed comparators included).
        for n in [1usize, 2, 4, 8, 16] {
            let net = bitonic_network(n);
            assert!(
                net.sorts_all_zero_one_inputs(),
                "bitonic network of width {n} is not a sorter"
            );
        }
    }

    #[test]
    fn network_and_in_place_sort_agree() {
        let n = 16;
        let net = bitonic_network(n);
        let mut a: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761) % 101)
            .collect();
        let mut b = a.clone();
        net.apply(&mut a);
        bitonic_sort_pow2(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn network_size_matches_known_counts() {
        // Bitonic sorter on 2^k wires has k(k+1)/2 levels of n/2 comparators.
        let net = bitonic_network(8);
        assert_eq!(net.depth(), 6); // 3*4/2 levels
        assert_eq!(net.size(), 6 * 4);
        assert!(net.stages().iter().all(|s| s.len() == 4));
    }

    #[test]
    fn sorts_all_zero_one_inputs_width_8() {
        // Direct 0-1 principle check of the in-place sorter (not the Network
        // form, which normalises descending comparators).
        let n = 8;
        for mask in 0u32..(1 << n) {
            let mut v: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
            bitonic_sort_pow2(&mut v);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "failed mask {mask:b}");
        }
    }
}
