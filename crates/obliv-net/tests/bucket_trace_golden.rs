//! Golden traces for both sort engines.
//!
//! The engines' in-cache routines (the bucket engine's run formation,
//! routing and multi-way merge; the Lemma 2 engine's region presort and
//! finishing merges) are free to change as long as the server-visible block
//! sequence does not. These tests pin the trace length, a trace digest and
//! an output digest of direct [`bucket_oblivious_sort_by`] and
//! [`external_oblivious_sort_by`] calls at fixed shapes, seeds and inputs,
//! so any change to what the server sees, or to the sorted output under a
//! total order, fails here.
//!
//! Never regenerate the constants to make a change pass: a mismatch means
//! the change moved a block access or, under a total order, the output.

use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc, Cell};
use extmem::util::hash64;
use extmem::{AccessOp, AccessTrace, ArrayHandle, Element, ExtMem, IoStats};
use obliv_net::bucket_sort::{bucket_oblivious_sort_by, BucketSortConfig, BucketSortReport};
use obliv_net::external_sort::{external_oblivious_sort_by, SortReport};
use std::cmp::Ordering;

/// Order-sensitive digest of a trace: every `(op, address)` pair is folded
/// into a running `hash64` chain.
fn trace_digest(trace: &AccessTrace) -> u64 {
    trace.iter().fold(0, |d, ev| {
        let op = match ev.op {
            AccessOp::Read => 0,
            AccessOp::Write => 1,
        };
        hash64(((ev.addr as u64) << 1) | op, d)
    })
}

/// Order-sensitive digest of an output array, dummies included.
fn output_digest(cells: &[Cell]) -> u64 {
    cells.iter().fold(0, |d, c| match c {
        Some(e) => hash64(e.key, hash64(e.payload, d)),
        None => hash64(u64::MAX, d ^ 1),
    })
}

struct Run<R> {
    trace_len: usize,
    trace_digest: u64,
    output: Vec<Cell>,
    report: R,
}

/// Runs `sort` on a traced in-memory copy of `cells` with block size `b`.
fn traced<R>(
    cells: &[Cell],
    b: usize,
    sort: impl FnOnce(&mut ExtMem, &ArrayHandle) -> R,
) -> Run<R> {
    let mut mem = ExtMem::with_trace(b);
    let h = mem.alloc_array_from_cells(cells);
    let report = sort(&mut mem, &h);
    let trace = mem.take_trace().expect("trace was enabled");
    Run {
        trace_len: trace.len(),
        trace_digest: trace_digest(&trace),
        output: mem.snapshot_cells(&h),
        report,
    }
}

fn run<F>(cells: &[Cell], b: usize, m: usize, seed: u64, cmp: &F) -> Run<BucketSortReport>
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    traced(cells, b, |mem, h| {
        bucket_oblivious_sort_by(mem, h, m, &BucketSortConfig::seeded(seed), cmp)
            .expect("bucket sort failed")
    })
}

fn run_lemma2<F>(cells: &[Cell], b: usize, m: usize, cmp: &F) -> Run<SortReport>
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    traced(cells, b, |mem, h| {
        external_oblivious_sort_by(mem, h, m, cmp).expect("Lemma 2 sort failed")
    })
}

/// Distinct random keys, every cell occupied.
fn dense(n: usize, salt: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| Some(Element::keyed(hash64(i as u64, salt), i)))
        .collect()
}

/// A third of the cells are dummies, keys repeat heavily (97 values).
fn dummies_and_duplicates(n: usize, salt: u64) -> Vec<Cell> {
    (0..n)
        .map(|i| {
            let h = hash64(i as u64, salt);
            (!h.is_multiple_of(3)).then(|| Element::keyed((h >> 8) % 97, i))
        })
        .collect()
}

/// Pinned `(trace length, trace digest, output digest)` of one golden case.
fn check<R>(name: &str, r: &Run<R>, want: (usize, u64, u64)) {
    let got = (r.trace_len, r.trace_digest, output_digest(&r.output));
    assert_eq!(
        got, want,
        "{name}: (trace length, trace digest, output digest)"
    );
}

fn assert_sorted_by<F>(out: &[Cell], cmp: &F)
where
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let reals = out.iter().take_while(|c| c.is_some()).count();
    assert!(out[reals..].iter().all(Option::is_none), "dummies last");
    assert!(
        out[..reals]
            .windows(2)
            .all(|w| cmp(&w[0], &w[1]) != Ordering::Greater),
        "occupied prefix must be sorted"
    );
}

#[test]
fn headline_shape_trace_and_output_are_pinned() {
    let cells = dense(1 << 18, 0x601D);
    let r = run(&cells, 64, 1 << 13, 7, &cell_cmp_none_last);
    assert_eq!(r.report.occupied, 1 << 18);
    check(
        "(2^18, 64, 2^13)",
        &r,
        (32834, 0x0312_bc17_2721_9b1f, 0xf056_713a_1b24_806a),
    );
}

#[test]
fn dummies_and_duplicates_trace_and_output_are_pinned() {
    let cells = dummies_and_duplicates(1 << 16, 0xD0D0);
    let r = run(&cells, 64, 1 << 12, 11, &cell_cmp_none_last);
    check(
        "(2^16, 64, 2^12) dummies+dups",
        &r,
        (7540, 0x4643_ced2_ff24_e810, 0x6b45_277c_1fa6_f12f),
    );
}

#[test]
fn small_block_multi_pass_trace_and_output_are_pinned() {
    let cells = dummies_and_duplicates(5000, 0x5000);
    let r = run(&cells, 8, 320, 13, &cell_cmp_none_last);
    check(
        "(5000, 8, 320)",
        &r,
        (27560, 0x5cfe_6823_de6e_987c, 0xbbdf_8d85_955a_d0f4),
    );
}

#[test]
fn reroll_shape_trace_and_output_are_pinned() {
    // The tight `Z = M/2`, `γ = 1` shape whose first assignment exhausts the
    // client budget: the pinned trace covers the abandoned attempts too.
    let cells: Vec<Cell> = (0..1024)
        .map(|i| Some(Element::keyed(hash64(i as u64, 3), i)))
        .collect();
    let r = run(&cells, 16, 128, 1, &cell_cmp_none_last);
    assert!(r.report.attempts > 1, "this shape must re-roll");
    check(
        "(1024, 16, 128) re-roll",
        &r,
        (2393, 0x5372_be39_b7e4_faf7, 0x7c38_4fb9_5225_3d34),
    );
}

#[test]
fn weak_comparator_trace_is_pinned_and_output_sorted() {
    // Comparing `key mod 7` only leaves the order among ties unspecified, so
    // only the trace is pinned; the output must be sorted and a permutation
    // of the input's occupied cells.
    let weak = |a: &Cell, b: &Cell| match (a, b) {
        (Some(x), Some(y)) => (x.key % 7).cmp(&(y.key % 7)),
        _ => cell_cmp_none_last(a, b),
    };
    let cells = dummies_and_duplicates(1 << 14, 0x7777);
    let r = run(&cells, 64, 1 << 10, 17, &weak);
    let got = (r.trace_len, r.trace_digest);
    assert_eq!(
        got,
        (3294, 0xd30f_0c08_b8da_b920),
        "weak comparator: (trace length, trace digest)"
    );
    assert_sorted_by(&r.output, &weak);
    let mut want: Vec<Element> = cells.iter().flatten().copied().collect();
    let mut have: Vec<Element> = r.output.iter().flatten().copied().collect();
    want.sort_unstable();
    have.sort_unstable();
    assert_eq!(have, want, "output must be a permutation of the input");
}

/// The `SortReport` of a Lemma 2 run: `(reads, writes)`, then `F`, presort
/// regions, external levels, finishing passes and whether it padded.
fn lemma2_report(
    (reads, writes): (u64, u64),
    region_elems: usize,
    presort_regions: usize,
    external_levels: usize,
    finish_passes: usize,
    padded: bool,
) -> SortReport {
    SortReport {
        io: IoStats { reads, writes },
        region_elems,
        presort_regions,
        external_levels,
        finish_passes,
        padded,
    }
}

#[test]
fn lemma2_pow2_ascending_trace_and_output_are_pinned() {
    let cells = dense(1 << 16, 0x1E2A);
    let r = run_lemma2(&cells, 64, 1 << 12, &cell_cmp_none_last);
    check(
        "Lemma 2 (2^16, 64, 2^12)",
        &r,
        (30720, 0x6b7c_6957_fccd_083f, 0x374f_c062_3844_c53b),
    );
    assert_eq!(
        r.report,
        lemma2_report((15360, 15360), 4096, 16, 10, 4, false)
    );
}

#[test]
fn lemma2_padded_length_trace_and_output_are_pinned() {
    let cells = dense(5000, 0x5001);
    let r = run_lemma2(&cells, 16, 256, &cell_cmp_none_last);
    check(
        "Lemma 2 (5000, 16, 256) padded",
        &r,
        (22756, 0x3eca_5208_770b_602b, 0xfa0f_5bca_29a5_d42d),
    );
    assert_eq!(
        r.report,
        lemma2_report((11378, 11378), 256, 32, 15, 5, true)
    );
}

#[test]
fn lemma2_unaligned_block_trace_and_output_are_pinned() {
    // B = 12 does not divide any power-of-two stride, so every external
    // level takes the `BlockCache` sweep.
    let cells = dense(1 << 12, 0xB12);
    let r = run_lemma2(&cells, 12, 240, &cell_cmp_none_last);
    check(
        "Lemma 2 (2^12, 12, 240)",
        &r,
        (15048, 0x6655_2c69_35d5_5a3a, 0x068e_5d97_e7ed_06ce),
    );
    assert_eq!(r.report, lemma2_report((7653, 7395), 128, 32, 15, 5, false));
}

#[test]
fn lemma2_descending_trace_and_output_are_pinned() {
    let cells = dense(1 << 13, 0xDE5C);
    let r = run_lemma2(&cells, 32, 512, &cell_cmp_none_last_desc);
    check(
        "Lemma 2 (2^13, 32, 512) descending",
        &r,
        (7680, 0x0397_ab8d_79f3_2315, 0xfd95_6182_9eb6_a2ce),
    );
    assert_eq!(r.report, lemma2_report((3840, 3840), 512, 16, 10, 4, false));
}

#[test]
fn lemma2_dummies_and_duplicates_trace_and_output_are_pinned() {
    let cells = dummies_and_duplicates(1 << 14, 0xD1D2);
    let r = run_lemma2(&cells, 64, 1 << 10, &cell_cmp_none_last);
    check(
        "Lemma 2 (2^14, 64, 2^10) dummies+dups",
        &r,
        (7680, 0x0397_ab8d_79f3_2315, 0x5646_8b49_7fe3_a6f0),
    );
    assert_eq!(
        r.report,
        lemma2_report((3840, 3840), 1024, 16, 10, 4, false)
    );
}
