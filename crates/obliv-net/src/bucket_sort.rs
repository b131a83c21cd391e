//! Randomized bucket oblivious sort — beating the Lemma 2 squared log.
//!
//! The Lemma 2 external bitonic sort pays `O((N/B)·log²(N/M))` I/Os. This
//! module implements the randomized alternative from *Bucket Oblivious Sort*
//! (Asharov, Chan, Nayak, Pass, Ren, Shi; see PAPERS.md), adapted to the
//! external-memory outsourced-data model, landing at
//! `O((N/B)·log_{M/B}(N/B))` I/Os — the external-memory sorting optimum —
//! for every practical shape:
//!
//! 1. **Random bin assignment.** Each occupied cell is assigned a uniform
//!    routing tag derived from `hash(position, seed)`. The array is cut into
//!    `2^L` buckets of capacity `Z`, each initially at most half full.
//! 2. **Butterfly routing.** `L` levels of the oblivious 2-way [`merge_split`]
//!    primitive route every item to the bucket named by its tag. Levels are
//!    grouped into *superlevels* of `γ = ⌊log2(M/Z)⌋` consecutive levels each:
//!    a superlevel loads a group of `2^γ` buckets into the private cache,
//!    routes all `γ` levels CPU-side, and writes the group back — so the
//!    whole butterfly costs `⌈L/γ⌉ ≈ log_{M/B}(N/B)` passes over the bucket
//!    array instead of `L` passes. In cache the `γ` chained MergeSplit levels
//!    run as the one stable counting partition by tag they amount to; every
//!    intermediate bucket's size is checked first, so an overflow fires
//!    exactly where the chain would report it.
//! 3. **Dummy removal + run formation.** The last superlevel keeps each
//!    routed group in cache, removes the bucket padding with a tight
//!    order-preserving compaction (the §3 operation, executed in cache where
//!    the network degenerates to a stable pack), sorts the survivors in place
//!    with `sort_unstable_by`, and emits them as a sorted block-aligned run.
//!    The server sees none of this client work (DESIGN.md, "In-cache
//!    steps"), so no sorting network is needed.
//! 4. **`M/B`-way merge.** The runs are merged with a classic multi-way
//!    merge of fan-in `≈ M/B`, whose live runs sit in a binary heap keyed by
//!    `(head, run index)`. Because step 2 delivered a uniformly random
//!    permutation of the items, the merge's data-dependent read order leaks
//!    nothing about the *input* — this is exactly the random-shuffle argument
//!    of the bucket-sort paper (and of oblivious shuffle-then-sort designs
//!    generally).
//!
//! # Fresh tags per superlevel
//!
//! `extmem::Element` has no spare bits to carry an `L`-bit label through the
//! store, and a parallel label array would double the butterfly's I/O —
//! enough to lose to Lemma 2 at small `N/M`. Instead each superlevel draws a
//! *fresh* `γ`-bit tag per item from `hash(slot, salt_s)`, where `slot` is
//! the (distinct) global slot the item currently occupies and `salt_s` is a
//! per-superlevel salt. The final bucket index is the concatenation of
//! independent uniform draws, hence uniform — nothing needs to persist
//! server-side but the items themselves.
//!
//! # What is (and is not) hidden
//!
//! Steps 1–2 have a fixed, shape-determined trace. Step 3's run lengths and
//! step 4's interleaving depend on the seed and the occupancy, which is safe
//! by the shuffle argument above — but it means the bucket sort's trace is a
//! deterministic function of `(shape, seed, data)`, not of shape alone like
//! the Lemma 2 sort. The guarantees tested here are: byte-identical traces
//! across backends (plaintext vs encrypted) and across reruns with the same
//! seed. Callers who need a shape-only trace keep the Lemma 2 engine.
//!
//! # Overflow and seed re-rolls
//!
//! A bucket receives `Bin(2μ, 1/2)` items per level with mean `μ ≤ Z/2`, so
//! a level overflows with probability at most `exp(−Z/6)` per bucket
//! (`≈ 5·10⁻¹⁰` at the default `Z = 128`). The capacity knob is
//! [`BucketSortConfig::z`].
//!
//! Overflow is not the only tail event. Resident items are charged one
//! element slot each, plus one slot per four items for their 32-bit routing
//! tags (a tag is a quarter of an element slot), plus one block for whichever
//! block is being streamed — the *actual* occupancy, which is data-dependent
//! (fine: the budget models the client's private memory, invisible to the
//! adversary). Because groups pack densely (`2^γ·Z ≤ M`), a freakishly
//! skewed assignment can push a resident group far past its expected
//! half-full state and exhaust the budget before any single bucket formally
//! overflows — most likely at tight shapes like `Z = M/2`, `γ = 1`.
//!
//! Both events are tails of the same random assignment and get the same
//! treatment: the sort *re-rolls internally* with a derived seed
//! (`hash(attempt, seed)` — still a deterministic function of the config, so
//! traces stay reproducible) and restarts from the input array, which is
//! never modified before the final merge's shape-determined budget has been
//! secured. Only after four attempts fail does the typed error
//! ([`BucketSortError::Overflow`] or a `BudgetExceeded` store error) reach
//! the caller; [`BucketSortReport::attempts`] records the re-rolls.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::error::Error;
use std::fmt;

use extmem::element::{cell_cmp_none_last, cell_cmp_none_last_desc, Cell};
use extmem::util::{hash64, ilog2_floor, next_pow2};
use extmem::{
    ArrayHandle, Block, BlockStore, CacheBudget, Element, IoStats, RetryPolicy, RetryStats,
    RetryingStore, StoreError,
};

use crate::external_sort::SortOrder;

/// Default minimum bucket capacity: `exp(−128/6) ≈ 5·10⁻¹⁰` per-bucket
/// overflow probability.
const DEFAULT_MIN_BUCKET_CAPACITY: usize = 128;

/// Routing attempts before a tail event (bucket overflow or a freak-skew
/// budget exhaustion) surfaces as the typed error. Attempt `k > 0` re-rolls
/// the assignment with seed `hash(k, cfg.seed)`, so the whole retry ladder
/// is a deterministic function of the config.
const MAX_SEED_ATTEMPTS: usize = 4;

/// Per-cursor hint window (in blocks) for the multi-way merge. Deep enough
/// that a prefetching store can coalesce a run's reads into spans, shallow
/// enough that `fan_in × MERGE_LOOKAHEAD` outstanding hints stay well under
/// a prefetcher's ready budget at the grid points we benchmark.
const MERGE_LOOKAHEAD: usize = 8;

/// Tuning knobs for [`bucket_oblivious_sort`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketSortConfig {
    /// Seed for the random bin assignment. Same seed + same input ⇒
    /// byte-identical trace and output.
    pub seed: u64,
    /// Bucket capacity `Z` (power of two, `B ≤ Z ≤ M/2`, so a two-bucket
    /// MergeSplit group stays resident). `None` picks the capacity that
    /// minimizes butterfly passes, preferring larger buckets (lower overflow
    /// probability) on ties, with a floor of 128.
    pub z: Option<usize>,
}

impl BucketSortConfig {
    /// Config with the given seed and automatic bucket capacity.
    pub fn seeded(seed: u64) -> Self {
        BucketSortConfig { seed, z: None }
    }

    /// Config with an explicit bucket capacity.
    pub fn with_bucket_capacity(seed: u64, z: usize) -> Self {
        BucketSortConfig { seed, z: Some(z) }
    }
}

impl Default for BucketSortConfig {
    fn default() -> Self {
        BucketSortConfig {
            seed: 0x0b5e_55ed_0dd5_0bb5,
            z: None,
        }
    }
}

/// What a bucket sort did, alongside its I/O cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketSortReport {
    /// I/Os charged to this sort (reads + writes deltas).
    pub io: IoStats,
    /// Bucket capacity `Z` actually used (0 on the in-cache path).
    pub z: usize,
    /// Number of butterfly buckets `2^L` (0 on the in-cache path).
    pub buckets: usize,
    /// Butterfly depth `L` in MergeSplit levels.
    pub levels: usize,
    /// External passes over the bucket array (`⌈L/γ⌉`).
    pub superlevels: usize,
    /// Sorted runs emitted by the last superlevel.
    pub runs: usize,
    /// Multi-way merge passes over the runs (≥ 1 on the external path).
    pub merge_passes: usize,
    /// Occupied (non-dummy) input cells; the output is exactly this prefix.
    pub occupied: usize,
    /// Routing attempts consumed: 1 when the first assignment succeeded,
    /// more when tail events (overflow or freak-skew budget exhaustion)
    /// forced internal seed re-rolls. `io` includes the abandoned attempts.
    pub attempts: usize,
    /// Whether the whole array fit in the private cache.
    pub in_cache: bool,
}

/// A [`merge_split`] output bucket exceeded its capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeSplitOverflow {
    /// Which output overflowed: 0 = the bit-clear side, 1 = the bit-set side.
    pub side: usize,
    /// How many items wanted that side.
    pub size: usize,
    /// The bucket capacity that was exceeded.
    pub capacity: usize,
    /// The tag bit the node split on.
    pub bit: u32,
}

impl fmt::Display for MergeSplitOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merge-split overflow: {} items routed to side {} of a bucket of capacity {} (bit {})",
            self.size, self.side, self.capacity, self.bit
        )
    }
}

impl Error for MergeSplitOverflow {}

/// Everything a bucket sort can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BucketSortError {
    /// A bucket exceeded its capacity `Z` during butterfly routing. Retry
    /// with a fresh seed; the probability is `≈ exp(−Z/6)` per bucket-level.
    Overflow {
        /// Superlevel (external pass) in which the overflow happened.
        superlevel: usize,
        /// MergeSplit level within the superlevel.
        level: usize,
        /// Global index of the bucket that overflowed.
        bucket: usize,
        /// How many items wanted the bucket.
        size: usize,
        /// The configured bucket capacity `Z`.
        capacity: usize,
    },
    /// The arguments don't describe a runnable sort (bad `Z`, cache too
    /// small, non-power-of-two blocks, …).
    InvalidArgument {
        /// Human-readable validation failure.
        reason: &'static str,
    },
    /// The store failed, or a data-dependent cache high-water mark exceeded
    /// the private-memory budget.
    Store(StoreError),
}

impl fmt::Display for BucketSortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BucketSortError::Overflow {
                superlevel,
                level,
                bucket,
                size,
                capacity,
            } => write!(
                f,
                "bucket overflow at superlevel {superlevel} level {level}: \
                 {size} items routed to bucket {bucket} of capacity {capacity}"
            ),
            BucketSortError::InvalidArgument { reason } => write!(f, "{reason}"),
            BucketSortError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl Error for BucketSortError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BucketSortError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for BucketSortError {
    fn from(e: StoreError) -> Self {
        BucketSortError::Store(e)
    }
}

/// The two output buckets of a [`merge_split`] node: `(bit-clear side,
/// bit-set side)`, each a bucket of `(item, tag)` pairs.
pub type MergeSplitOutput<T> = (Vec<(T, u32)>, Vec<(T, u32)>);

/// One oblivious 2-way MergeSplit node (the *Bucket Oblivious Sort*
/// primitive): takes two buckets of `(item, tag)` pairs and splits their
/// union by bit `bit` of the tag — bit clear to the first output, bit set to
/// the second — preserving input order (`a`'s items before `b`'s) on both
/// sides. Fails if either side would exceed `capacity` items.
///
/// Executed inside the private cache, so the node itself produces no I/O;
/// the obliviousness of the network comes from the fixed schedule of bucket
/// loads and stores around it.
pub fn merge_split<T>(
    a: Vec<(T, u32)>,
    b: Vec<(T, u32)>,
    bit: u32,
    capacity: usize,
) -> Result<MergeSplitOutput<T>, MergeSplitOverflow> {
    let mut lo: Vec<(T, u32)> = Vec::new();
    let mut hi: Vec<(T, u32)> = Vec::new();
    for pair in a.into_iter().chain(b) {
        if (pair.1 >> bit) & 1 == 0 {
            lo.push(pair);
        } else {
            hi.push(pair);
        }
    }
    if lo.len() > capacity {
        return Err(MergeSplitOverflow {
            side: 0,
            size: lo.len(),
            capacity,
            bit,
        });
    }
    if hi.len() > capacity {
        return Err(MergeSplitOverflow {
            side: 1,
            size: hi.len(),
            capacity,
            bit,
        });
    }
    Ok((lo, hi))
}

/// Sorts array `h` by key in the given order, dummies last, using at most
/// `cache_elems` words of private memory.
///
/// Same contract as
/// [`external_oblivious_sort`](crate::external_sort::external_oblivious_sort),
/// with two deltas: the trace depends on `(shape, cfg.seed, data)` rather
/// than shape alone (see the module docs), and failure — a store error
/// included — is a typed [`BucketSortError`] instead of a panic.
pub fn bucket_oblivious_sort<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    order: SortOrder,
    cfg: &BucketSortConfig,
) -> Result<BucketSortReport, BucketSortError> {
    match order {
        SortOrder::Ascending => {
            bucket_oblivious_sort_by(store, h, cache_elems, cfg, &cell_cmp_none_last)
        }
        SortOrder::Descending => {
            bucket_oblivious_sort_by(store, h, cache_elems, cfg, &cell_cmp_none_last_desc)
        }
    }
}

/// Fallible variant of [`bucket_oblivious_sort`] for untrusted/unreliable
/// servers: transient faults are retried per `policy`, tampering and
/// exhausted retries surface as [`BucketSortError::Store`], and routing
/// overflow keeps its typed shape.
pub fn try_bucket_oblivious_sort<S: BlockStore>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    order: SortOrder,
    cfg: &BucketSortConfig,
    policy: RetryPolicy,
) -> Result<(BucketSortReport, RetryStats), BucketSortError> {
    let mut retrying = RetryingStore::new(store, policy);
    let report = bucket_oblivious_sort(&mut retrying, h, cache_elems, order, cfg)?;
    Ok((report, retrying.stats()))
}

/// Sorts array `h` with a custom total order on occupied cells.
///
/// `cmp` is only ever consulted on occupied (`Some`) cells: the bucket sort
/// removes dummies structurally and always emits them after every occupied
/// cell, whatever `cmp` says about `None`.
pub fn bucket_oblivious_sort_by<S, F>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    cfg: &BucketSortConfig,
    cmp: &F,
) -> Result<BucketSortReport, BucketSortError>
where
    S: BlockStore,
    F: Fn(&Cell, &Cell) -> Ordering,
{
    let b = h.block_elems();
    let n = h.len();
    let start = store.io_stats();
    let ecmp = |x: &Element, y: &Element| cmp(&Some(*x), &Some(*y));

    if n <= 1 {
        return Ok(BucketSortReport {
            occupied: if n == 1 {
                usize::from(store.try_load_span(h, 0, n)?[0].is_some())
            } else {
                0
            },
            io: store.io_stats() - start,
            attempts: 1,
            in_cache: true,
            ..BucketSortReport::default()
        });
    }

    // In-cache path: one read pass + one write pass.
    let whole = n.div_ceil(b) * b;
    if whole <= cache_elems {
        let mut budget = CacheBudget::new(cache_elems);
        budget.try_acquire(whole).map_err(BucketSortError::Store)?;
        let cells = store.try_load_span(h, 0, n)?;
        let mut reals: Vec<Cell> = cells.iter().filter(|c| c.is_some()).copied().collect();
        let occupied = reals.len();
        reals.sort_unstable_by(cmp);
        reals.resize(n, None);
        store.try_store_span(h, 0, &reals)?;
        budget.release(whole);
        return Ok(BucketSortReport {
            io: store.io_stats() - start,
            occupied,
            attempts: 1,
            in_cache: true,
            ..BucketSortReport::default()
        });
    }

    if !b.is_power_of_two() {
        return Err(BucketSortError::InvalidArgument {
            reason: "bucket sort's external path requires a power-of-two block size",
        });
    }
    if cache_elems < 8 * b {
        return Err(BucketSortError::InvalidArgument {
            reason: "bucket sort needs a private cache of at least eight blocks (M >= 8B)",
        });
    }

    let planned = Layout::plan(n, b, cache_elems, cfg)?;
    let mut last_tail_error = None;
    for attempt in 0..MAX_SEED_ATTEMPTS {
        let layout = Layout {
            seed: if attempt == 0 {
                cfg.seed
            } else {
                hash64(attempt as u64, cfg.seed)
            },
            ..planned
        };
        match run_external(store, h, cache_elems, &layout, &ecmp) {
            Ok((occupied, runs, merge_passes)) => {
                return Ok(BucketSortReport {
                    io: store.io_stats() - start,
                    z: layout.z,
                    buckets: layout.buckets,
                    levels: layout.levels,
                    superlevels: layout.superlevels,
                    runs,
                    merge_passes,
                    occupied,
                    attempts: attempt + 1,
                    in_cache: false,
                });
            }
            Err(Stop::Tail(e)) => last_tail_error = Some(e),
            Err(Stop::Store(e)) => return Err(e.into()),
        }
    }
    Err(last_tail_error.expect("at least one routing attempt ran"))
}

/// Why an external-path attempt stopped.
enum Stop {
    /// A tail event of the random assignment — a bucket overflow or a
    /// freak-skew exhaustion of the client's own cache budget: re-roll the
    /// seed.
    Tail(BucketSortError),
    /// The store failed (tampering, exhausted retries, the store's own
    /// budget): give up.
    Store(StoreError),
}

impl From<StoreError> for Stop {
    fn from(e: StoreError) -> Self {
        Stop::Store(e)
    }
}

/// Claims `slots` of the attempt's private cache; running out is a tail
/// event.
fn claim(budget: &mut CacheBudget, slots: usize) -> Result<(), Stop> {
    budget
        .try_acquire(slots)
        .map_err(|e| Stop::Tail(BucketSortError::Store(e)))
}

/// One full external-path attempt under `layout.seed`: distribute, route,
/// finish, multi-way merge. Returns `(occupied, runs, merge_passes)`.
///
/// Retry soundness: the input array `h` is only written by the final
/// `merge_runs` call, whose shape-determined budget charge is acquired
/// before its first write and cannot fail (fan-in is planned to fit `M`).
/// Every data-dependent failure — routing overflow, freak-skew budget
/// exhaustion — therefore happens while `h` is still intact, so the caller
/// may re-roll the seed and run the attempt again. A store error ends the
/// sort.
fn run_external<S, F>(
    store: &mut S,
    h: &ArrayHandle,
    cache_elems: usize,
    layout: &Layout,
    ecmp: &F,
) -> Result<(usize, usize, usize), Stop>
where
    S: BlockStore,
    F: Fn(&Element, &Element) -> Ordering,
{
    let n = layout.n;
    let b = layout.b;
    let mut budget = CacheBudget::new(cache_elems);
    let scratch = store.alloc_array(layout.buckets * layout.z);

    // Phase 1+2a: distribute into half-full buckets and route the first
    // superlevel, fused (the input chunk read doubles as the bucket load).
    let mut occupied = 0usize;
    let grp0 = 1usize << layout.width(0);
    for gidx in 0..layout.buckets / grp0 {
        occupied += distribute_group(store, h, &scratch, layout, gidx, &mut budget)?;
    }

    // Phase 2b: the middle superlevels, each a full pass over the buckets.
    for s in 1..layout.superlevels - 1 {
        let grp = 1usize << layout.width(s);
        for gidx in 0..layout.buckets / grp {
            route_group(store, &scratch, layout, s, gidx, &mut budget)?;
        }
    }

    // Phase 2c+3: last superlevel fused with dummy removal and run
    // formation. One block-aligned sorted run per group.
    let s_last = layout.superlevels - 1;
    let run_count = layout.buckets >> layout.width(s_last);
    let run_cap_blocks = n.div_ceil(b) + run_count;
    let run_a = store.alloc_array(run_cap_blocks * b);
    let mut runs: Vec<RunMeta> = Vec::with_capacity(run_count);
    let mut cursor_block = 0usize;
    for gidx in 0..run_count {
        let meta = finish_group(
            store,
            &scratch,
            &run_a,
            layout,
            s_last,
            gidx,
            cursor_block,
            &mut budget,
            ecmp,
        )?;
        cursor_block = meta.first_block + meta.reals.div_ceil(b);
        runs.push(meta);
    }

    // Phase 4: merge the runs with fan-in ≈ M/B, ping-ponging between two
    // scratch arrays until one pass suffices, then merge into `h`.
    let fan = ((cache_elems - b) / (b + 2)).max(2);
    let mut merge_passes = 0usize;
    let mut src = run_a;
    let mut src_runs = runs;
    let mut pong: Option<ArrayHandle> = None;
    loop {
        if src_runs.len() <= fan {
            merge_runs(store, &src, &src_runs, h, 0, Some(n), &mut budget, ecmp)?;
            merge_passes += 1;
            break;
        }
        let dst = *pong.get_or_insert_with(|| store.alloc_array(run_cap_blocks * b));
        let mut next_runs = Vec::with_capacity(src_runs.len().div_ceil(fan));
        let mut out_block = 0usize;
        for group in src_runs.chunks(fan) {
            let reals = merge_runs(store, &src, group, &dst, out_block, None, &mut budget, ecmp)?;
            next_runs.push(RunMeta {
                first_block: out_block,
                reals,
            });
            out_block += reals.div_ceil(b);
        }
        pong = Some(src);
        src = dst;
        src_runs = next_runs;
        merge_passes += 1;
    }

    Ok((occupied, run_count, merge_passes))
}

/// The butterfly geometry: all shape-only, fixed before the first I/O.
#[derive(Clone, Copy, Debug)]
struct Layout {
    /// Block size `B`.
    b: usize,
    /// Bucket capacity `Z`.
    z: usize,
    /// Number of buckets `2^L`.
    buckets: usize,
    /// Butterfly depth `L`.
    levels: usize,
    /// Levels routed per superlevel: the largest `γ` with `2^γ·Z ≤ M`,
    /// clamped to `[1, L]`.
    gamma: usize,
    /// `⌈L/γ⌉` external passes.
    superlevels: usize,
    /// Input elements feeding each level-0 bucket (`≤ Z/2`).
    chunk: usize,
    /// Input length `N`.
    n: usize,
    /// Assignment seed.
    seed: u64,
}

impl Layout {
    fn plan(
        n: usize,
        b: usize,
        cache_elems: usize,
        cfg: &BucketSortConfig,
    ) -> Result<Layout, BucketSortError> {
        let z = match cfg.z {
            Some(z) => {
                if !z.is_power_of_two() || z < 2 {
                    return Err(BucketSortError::InvalidArgument {
                        reason: "bucket capacity Z must be a power of two of at least 2",
                    });
                }
                if z < b {
                    return Err(BucketSortError::InvalidArgument {
                        reason: "bucket capacity Z must be at least one block (Z >= B)",
                    });
                }
                if 2 * z > cache_elems {
                    return Err(BucketSortError::InvalidArgument {
                        reason: "bucket capacity Z must keep a two-bucket merge-split group \
                                 resident in the private cache (M >= 2Z)",
                    });
                }
                z
            }
            None => {
                // Candidates range up to M/2 (a two-bucket group must stay
                // resident); prefer whatever minimizes superlevels, larger Z
                // on ties (lower overflow probability).
                let hi = 1usize << ilog2_floor(cache_elems / 2);
                let lo = b.max(DEFAULT_MIN_BUCKET_CAPACITY).min(hi);
                let mut best = lo;
                let mut best_p = superlevels_for(n, lo, cache_elems);
                let mut z = lo << 1;
                while z <= hi {
                    let p = superlevels_for(n, z, cache_elems);
                    if p <= best_p {
                        best = z;
                        best_p = p;
                    }
                    z <<= 1;
                }
                best
            }
        };
        let buckets = bucket_count(n, z);
        let levels = ilog2_floor(buckets) as usize;
        let gamma = gamma_for(levels, z, cache_elems);
        Ok(Layout {
            b,
            z,
            buckets,
            levels,
            gamma,
            superlevels: levels.div_ceil(gamma),
            chunk: n.div_ceil(buckets),
            n,
            seed: cfg.seed,
        })
    }

    /// MergeSplit levels routed by superlevel `s` (γ, except a shorter tail).
    fn width(&self, s: usize) -> usize {
        self.gamma.min(self.levels - s * self.gamma)
    }

    /// Stride between the member buckets of a superlevel-`s` group.
    fn stride(&self, s: usize) -> usize {
        1usize << (s * self.gamma)
    }

    /// First member bucket of group `gidx` at superlevel `s`: the members
    /// are the buckets whose index bits `[s·γ, s·γ + width)` range over all
    /// values with every other bit fixed.
    fn group_base(&self, s: usize, gidx: usize) -> usize {
        let stride = self.stride(s);
        let low = gidx & (stride - 1);
        let high = gidx >> (s * self.gamma);
        (high << (s * self.gamma + self.width(s))) | low
    }

    /// Per-superlevel tag salt: independent uniform draws per superlevel.
    fn salt(&self, s: usize) -> u64 {
        hash64(s as u64, self.seed)
    }
}

/// `2^L`: the smallest power of two giving every bucket a ≤ half-full start.
fn bucket_count(n: usize, z: usize) -> usize {
    next_pow2((2 * n).div_ceil(z).max(2))
}

/// `γ`: the largest group width with `2^γ·Z ≤ M`, clamped to `[1, levels]`
/// (and to 32: tags are `u32`). Groups pack densely — buckets average half
/// full, and the rare freakishly over-full group is a re-rolled tail event,
/// not a planning constraint (see the module docs).
fn gamma_for(levels: usize, z: usize, cache_elems: usize) -> usize {
    (ilog2_floor(cache_elems / z) as usize).clamp(1, levels.clamp(1, 32))
}

fn superlevels_for(n: usize, z: usize, cache_elems: usize) -> usize {
    let levels = ilog2_floor(bucket_count(n, z)) as usize;
    levels.div_ceil(gamma_for(levels, z, cache_elems))
}

/// A sorted block-aligned run in a run scratch array.
#[derive(Clone, Copy, Debug)]
struct RunMeta {
    first_block: usize,
    reals: usize,
}

/// Budget bookkeeping for one resident group of tagged buckets: one slot per
/// item plus one slot per four 32-bit tags.
struct GroupCharge {
    items: usize,
    tag_slots: usize,
}

impl GroupCharge {
    fn new() -> Self {
        GroupCharge {
            items: 0,
            tag_slots: 0,
        }
    }

    fn add(&mut self, budget: &mut CacheBudget, items: usize) -> Result<(), Stop> {
        claim(budget, items)?;
        self.items += items;
        let want = self.items.div_ceil(4);
        if want > self.tag_slots {
            claim(budget, want - self.tag_slots)?;
            self.tag_slots = want;
        }
        Ok(())
    }

    fn drop_items(&mut self, budget: &mut CacheBudget, items: usize) {
        budget.release(items);
        self.items -= items;
    }

    fn finish(self, budget: &mut CacheBudget) {
        budget.release(self.items + self.tag_slots);
    }
}

/// A group resident in cache: the items of its member buckets, member by
/// member in slot order, with `lens[m]` items in member `m`. Before routing
/// each item carries its fresh `width(s)`-bit tag.
#[derive(Debug, PartialEq)]
struct Group<T> {
    items: Vec<T>,
    lens: Vec<usize>,
}

/// Superlevel 0, fused with distribution: stream the group's input chunks
/// block by block, tag the occupied cells, route `width(0)` levels in cache,
/// and write the group's buckets (dummy-padded to `Z`) to `scratch`.
fn distribute_group<S: BlockStore>(
    store: &mut S,
    input: &ArrayHandle,
    scratch: &ArrayHandle,
    layout: &Layout,
    gidx: usize,
    budget: &mut CacheBudget,
) -> Result<usize, Stop> {
    let b = layout.b;
    let grp = 1usize << layout.width(0);
    let base = layout.group_base(0, gidx);
    let salt = layout.salt(0);
    let mask = (grp - 1) as u64;

    let mut group = Group {
        items: Vec::new(),
        lens: vec![0; grp],
    };
    let mut charge = GroupCharge::new();

    let pos_lo = base * layout.chunk;
    let pos_hi = ((base + grp) * layout.chunk).min(layout.n);
    if pos_lo < pos_hi {
        // The group's input chunk occupies a shape-determined block range;
        // advertise the whole sweep so a prefetching store can read ahead.
        let schedule: Vec<usize> = (pos_lo / b..=(pos_hi - 1) / b).collect();
        store.hint_blocks(input, &schedule);
        for bi in pos_lo / b..=(pos_hi - 1) / b {
            claim(budget, b)?;
            let blk = store.try_load_block(input, bi)?;
            let mut pushed = 0usize;
            // Positions ascend, so members fill in order.
            for pos in pos_lo.max(bi * b)..pos_hi.min((bi + 1) * b) {
                if let Some(item) = blk.get(pos - bi * b) {
                    let tag = (hash64(pos as u64, salt) & mask) as u32;
                    group.items.push((item, tag));
                    group.lens[pos / layout.chunk - base] += 1;
                    pushed += 1;
                }
            }
            charge.add(budget, pushed)?;
            budget.release(b);
        }
    }
    let occupied = group.items.len();

    let routed = route_buckets(&group, layout.z, 0, base, layout.stride(0)).map_err(Stop::Tail)?;
    write_group(
        store,
        scratch,
        &routed,
        layout,
        0,
        base,
        budget,
        &mut charge,
    )?;
    charge.finish(budget);
    Ok(occupied)
}

/// A middle superlevel's group: load the member buckets, draw fresh tags,
/// route `width(s)` levels in cache, write the buckets back.
fn route_group<S: BlockStore>(
    store: &mut S,
    scratch: &ArrayHandle,
    layout: &Layout,
    s: usize,
    gidx: usize,
    budget: &mut CacheBudget,
) -> Result<(), Stop> {
    let base = layout.group_base(s, gidx);
    let mut charge = GroupCharge::new();
    let group = load_group(store, scratch, layout, s, base, budget, &mut charge)?;
    let routed = route_buckets(&group, layout.z, s, base, layout.stride(s)).map_err(Stop::Tail)?;
    write_group(
        store,
        scratch,
        &routed,
        layout,
        s,
        base,
        budget,
        &mut charge,
    )?;
    charge.finish(budget);
    Ok(())
}

/// The last superlevel's group, fused with dummy removal and run emission:
/// route, tightly compact the group's occupants (the §3 operation, executed
/// in cache), sort them, and append them to `run_scratch` as one
/// block-aligned run starting at `first_block`.
#[allow(clippy::too_many_arguments)]
fn finish_group<S, F>(
    store: &mut S,
    scratch: &ArrayHandle,
    run_scratch: &ArrayHandle,
    layout: &Layout,
    s: usize,
    gidx: usize,
    first_block: usize,
    budget: &mut CacheBudget,
    ecmp: &F,
) -> Result<RunMeta, Stop>
where
    S: BlockStore,
    F: Fn(&Element, &Element) -> Ordering,
{
    let b = layout.b;
    let base = layout.group_base(s, gidx);
    let mut charge = GroupCharge::new();
    let group = load_group(store, scratch, layout, s, base, budget, &mut charge)?;

    // Dummy removal: tight order-preserving compaction of the group. In
    // cache the §3 butterfly degenerates to a stable pack of the occupied
    // cells, which is the form the router already returns them in — the
    // charge is unchanged.
    let mut reals = route_buckets(&group, layout.z, s, base, layout.stride(s))
        .map_err(Stop::Tail)?
        .items;
    reals.sort_unstable_by(ecmp);

    claim(budget, b)?;
    for (t, chunk) in reals.chunks(b).enumerate() {
        store.try_store_block(run_scratch, first_block + t, Block::padded_from(chunk, b))?;
    }
    budget.release(b);

    let meta = RunMeta {
        first_block,
        reals: reals.len(),
    };
    charge.drop_items(budget, meta.reals);
    charge.finish(budget);
    Ok(meta)
}

/// Loads a group's member buckets from `scratch`, tagging each occupied cell
/// with a fresh `width(s)`-bit tag drawn from its current global slot.
fn load_group<S: BlockStore>(
    store: &mut S,
    scratch: &ArrayHandle,
    layout: &Layout,
    s: usize,
    base: usize,
    budget: &mut CacheBudget,
    charge: &mut GroupCharge,
) -> Result<Group<(Element, u32)>, Stop> {
    let b = layout.b;
    let z = layout.z;
    let grp = 1usize << layout.width(s);
    let stride = layout.stride(s);
    let salt = layout.salt(s);
    let mask = (grp - 1) as u64;

    // The member buckets of a group are fixed by `(s, base)` alone, so the
    // gather order below is shape-determined; hint the full block list.
    let mut schedule = Vec::with_capacity(grp * (z / b));
    for m in 0..grp {
        let first_block = (base + m * stride) * z / b;
        schedule.extend(first_block..first_block + z / b);
    }
    store.hint_blocks(scratch, &schedule);

    let mut group = Group {
        items: Vec::new(),
        lens: Vec::with_capacity(grp),
    };
    for m in 0..grp {
        let bucket_id = base + m * stride;
        let first_block = bucket_id * z / b;
        let before = group.items.len();
        for t in 0..z / b {
            claim(budget, b)?;
            let blk = store.try_load_block(scratch, first_block + t)?;
            let mut pushed = 0usize;
            for (slot, cell) in blk.slots().iter().enumerate() {
                if let Some(item) = cell {
                    let gslot = (bucket_id * z + t * b + slot) as u64;
                    let tag = (hash64(gslot, salt) & mask) as u32;
                    group.items.push((*item, tag));
                    pushed += 1;
                }
            }
            charge.add(budget, pushed)?;
            budget.release(b);
        }
        group.lens.push(group.items.len() - before);
    }
    Ok(group)
}

/// Routes a resident superlevel-`s` group through all `g = log2(members)`
/// of its MergeSplit levels at once.
///
/// Chaining [`merge_split`] over the levels — level `t` pairs the members
/// differing in bit `t` and splits their union on tag bit `t`, earlier
/// member first — moves every item to the member its tag names and keeps
/// the items' input order within each member. That is one stable counting
/// partition by tag, done here in a single scatter. The chain's
/// intermediate buckets are never built, but their sizes are checked
/// against `capacity` first, in the chain's level-then-pair order: after
/// level `t`, an item of member `m` with tag `τ` sits in the member whose
/// low `t + 1` bits are `τ`'s and whose other bits are `m`'s. So an
/// overflow fires at the same `(superlevel, level, bucket, size)` as in
/// the chain; `bucket` is the global index `base + member · stride`.
fn route_buckets<T: Copy + Default>(
    group: &Group<(T, u32)>,
    capacity: usize,
    s: usize,
    base: usize,
    stride: usize,
) -> Result<Group<T>, BucketSortError> {
    let grp = group.lens.len();
    let g = grp.trailing_zeros() as usize;

    // `sizes[t·grp + j]`: the items in member `j` after level `t`.
    let mut sizes = vec![0usize; g * grp];
    let mut items = group.items.iter();
    for (m, &len) in group.lens.iter().enumerate() {
        for &(_, tag) in items.by_ref().take(len) {
            for t in 0..g {
                let low = (2usize << t) - 1;
                sizes[t * grp + ((m & !low) | (tag as usize & low))] += 1;
            }
        }
    }
    for (t, level) in sizes.chunks(grp).enumerate() {
        for j in (0..grp).filter(|j| j & (1 << t) == 0) {
            for member in [j, j | 1 << t] {
                if level[member] > capacity {
                    return Err(BucketSortError::Overflow {
                        superlevel: s,
                        level: t,
                        bucket: base + member * stride,
                        size: level[member],
                        capacity,
                    });
                }
            }
        }
    }

    // After the last level every member holds exactly the items tagged
    // with its own index.
    let lens = match g {
        0 => group.lens.clone(),
        _ => sizes[(g - 1) * grp..].to_vec(),
    };
    // `next[m]`: where member `m`'s next item goes.
    let mut next = Vec::with_capacity(grp);
    let mut start = 0;
    for &len in &lens {
        next.push(start);
        start += len;
    }
    let mut routed = vec![T::default(); group.items.len()];
    for &(item, tag) in &group.items {
        let slot = &mut next[tag as usize];
        routed[*slot] = item;
        *slot += 1;
    }
    Ok(Group {
        items: routed,
        lens,
    })
}

/// Writes a routed group's buckets back to `scratch`, each dummy-padded to
/// `Z`, draining the cache charge bucket by bucket.
#[allow(clippy::too_many_arguments)]
fn write_group<S: BlockStore>(
    store: &mut S,
    scratch: &ArrayHandle,
    group: &Group<Element>,
    layout: &Layout,
    s: usize,
    base: usize,
    budget: &mut CacheBudget,
    charge: &mut GroupCharge,
) -> Result<(), Stop> {
    let b = layout.b;
    let z = layout.z;
    let stride = layout.stride(s);
    let mut rest = group.items.as_slice();
    for (m, &len) in group.lens.iter().enumerate() {
        let (bucket, tail) = rest.split_at(len);
        rest = tail;
        let first_block = (base + m * stride) * z / b;
        claim(budget, b)?;
        let mut chunks = bucket.chunks(b);
        for t in 0..z / b {
            let blk = Block::padded_from(chunks.next().unwrap_or_default(), b);
            store.try_store_block(scratch, first_block + t, blk)?;
        }
        budget.release(b);
        charge.drop_items(budget, len);
    }
    Ok(())
}

/// A live run of a multi-way merge: its head item and run index. Ordered
/// in reverse so that the top of a (max-)[`BinaryHeap`] is the run a linear
/// scan over all cursors would pick: the smallest head, ties to the
/// earliest run.
struct Head<'a, F> {
    item: Element,
    run: usize,
    by: &'a F,
}

impl<F: Fn(&Element, &Element) -> Ordering> Ord for Head<'_, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.by)(&other.item, &self.item).then(other.run.cmp(&self.run))
    }
}

impl<F: Fn(&Element, &Element) -> Ordering> PartialOrd for Head<'_, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<F: Fn(&Element, &Element) -> Ordering> PartialEq for Head<'_, F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<F: Fn(&Element, &Element) -> Ordering> Eq for Head<'_, F> {}

/// Merges sorted runs from `src` into one run on `dst` starting at
/// `dst_first_block`. With `pad_to = Some(n)` (the final pass into the
/// caller's array) the output is dummy-padded to exactly `⌈n/B⌉` blocks;
/// otherwise the tail block is dummy-padded to the block boundary. Ties
/// break by run index, so the merge is deterministic. Returns the number of
/// occupied cells written.
#[allow(clippy::too_many_arguments)]
fn merge_runs<S, F>(
    store: &mut S,
    src: &ArrayHandle,
    runs: &[RunMeta],
    dst: &ArrayHandle,
    dst_first_block: usize,
    pad_to: Option<usize>,
    budget: &mut CacheBudget,
    ecmp: &F,
) -> Result<usize, Stop>
where
    S: BlockStore,
    F: Fn(&Element, &Element) -> Ordering,
{
    let b = store.block_elems();
    struct Cursor {
        block: usize,
        slot: usize,
        remaining: usize,
        buf: Block,
    }
    let head = |c: &Cursor| {
        c.buf
            .get(c.slot)
            .expect("merge run invariant: the first `reals` cells of a run are occupied")
    };
    // One resident block per input run, one output block, two bookkeeping
    // slots per run for the cursor — this is what bounds the fan-in at M/B.
    let charge = runs.len() * (b + 2) + b;
    claim(budget, charge)?;

    let mut cursors: Vec<Cursor> = runs
        .iter()
        .map(|r| Cursor {
            block: r.first_block,
            slot: 0,
            remaining: r.reals,
            buf: Block::empty(b),
        })
        .collect();
    // Hint a sliding window of the next MERGE_LOOKAHEAD blocks per cursor
    // as the merge advances. Each hinted block belongs to the run its
    // cursor is draining, so the physical read set is exactly the runs'
    // blocks either way; the hints only shift *when* within the run a block
    // may be fetched, which is determined by the cursor-advance schedule the
    // trace already exposes — prefetching adds no address-trace information.
    let heads: Vec<usize> = cursors
        .iter()
        .filter(|c| c.remaining > 0)
        .flat_map(|c| {
            (0..MERGE_LOOKAHEAD)
                .take_while(|j| c.remaining > j * b)
                .map(|j| c.block + j)
        })
        .collect();
    store.hint_blocks(src, &heads);
    for c in cursors.iter_mut() {
        if c.remaining > 0 {
            c.buf = store.try_load_block(src, c.block)?;
        }
    }
    let mut heap: BinaryHeap<Head<F>> = cursors
        .iter()
        .enumerate()
        .filter(|(_, c)| c.remaining > 0)
        .map(|(run, c)| Head {
            item: head(c),
            run,
            by: ecmp,
        })
        .collect();

    let mut out = Block::empty(b);
    let mut out_slot = 0usize;
    let mut out_block = dst_first_block;
    let mut written = 0usize;
    while let Some(mut top) = heap.peek_mut() {
        out.set(out_slot, Some(top.item));
        out_slot += 1;
        if out_slot == b {
            store.try_store_block(dst, out_block, out)?;
            out = Block::empty(b);
            out_slot = 0;
            out_block += 1;
        }
        written += 1;
        let c = &mut cursors[top.run];
        c.slot += 1;
        c.remaining -= 1;
        if c.slot == b && c.remaining > 0 {
            c.block += 1;
            c.buf = store.try_load_block(src, c.block)?;
            c.slot = 0;
            // Slide the window: the initial hints covered the first
            // MERGE_LOOKAHEAD blocks of the run, so each advance exposes
            // exactly the one new block at the window's far edge.
            if c.remaining > (MERGE_LOOKAHEAD - 1) * b {
                store.hint_blocks(src, &[c.block + MERGE_LOOKAHEAD - 1]);
            }
        }
        // Re-key the winner, or retire its run; the heap restores its order
        // when `top` drops.
        if c.remaining > 0 {
            top.item = head(c);
        } else {
            PeekMut::pop(top);
        }
    }

    match pad_to {
        Some(n) => {
            // The final pass always writes exactly ⌈n/B⌉ blocks; the slots
            // past `written` stay dummies.
            let total_blocks = dst_first_block + n.div_ceil(b);
            while out_block < total_blocks {
                store.try_store_block(dst, out_block, out)?;
                out = Block::empty(b);
                out_block += 1;
            }
        }
        None => {
            if out_slot > 0 {
                store.try_store_block(dst, out_block, out)?;
            }
        }
    }

    budget.release(charge);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem::ExtMem;

    fn e(k: u64) -> Element {
        Element::new(k, 0)
    }

    fn keyed_input(n: usize, salt: u64, range: u64) -> Vec<Cell> {
        (0..n)
            .map(|i| Some(Element::new(hash64(i as u64, salt) % range, i as u64)))
            .collect()
    }

    fn run_sort(
        cells: &[Cell],
        b: usize,
        cache: usize,
        cfg: &BucketSortConfig,
    ) -> (Vec<Cell>, BucketSortReport) {
        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(cells);
        let rep = bucket_oblivious_sort(&mut mem, &h, cache, SortOrder::Ascending, cfg)
            .expect("sort failed");
        (mem.snapshot_cells(&h), rep)
    }

    fn assert_sorted_reals_first(out: &[Cell], expected_keys: &mut Vec<u64>) {
        expected_keys.sort_unstable();
        let reals: Vec<u64> = out
            .iter()
            .take_while(|c| c.is_some())
            .map(|c| c.unwrap().key)
            .collect();
        assert_eq!(&reals, expected_keys, "sorted occupied prefix mismatch");
        assert!(
            out[reals.len()..].iter().all(|c| c.is_none()),
            "dummies must all sit after the occupied prefix"
        );
    }

    #[test]
    fn merge_split_partitions_stably_by_the_tag_bit() {
        let a = vec![(10u64, 0b01u32), (11, 0b10), (12, 0b11)];
        let b = vec![(20u64, 0b00u32), (21, 0b01)];
        let (lo, hi) = merge_split(a, b, 0, 8).unwrap();
        // Bit 0 clear: 11 (from a), 20 (from b) — a's items first, in order.
        assert_eq!(lo, vec![(11, 0b10), (20, 0b00)]);
        assert_eq!(hi, vec![(10, 0b01), (12, 0b11), (21, 0b01)]);
        // Same pairs on bit 1 split differently.
        let a = vec![(10u64, 0b01u32), (11, 0b10), (12, 0b11)];
        let b = vec![(20u64, 0b00u32), (21, 0b01)];
        let (lo, hi) = merge_split(a, b, 1, 8).unwrap();
        assert_eq!(lo, vec![(10, 0b01), (20, 0b00), (21, 0b01)]);
        assert_eq!(hi, vec![(11, 0b10), (12, 0b11)]);
    }

    #[test]
    fn merge_split_zero_one_exhaustive() {
        // 0-1 principle over the routing bit: every 0/1 tag pattern over two
        // buckets of up to 3 items routes to exactly the stable partition,
        // and overflows exactly when one side exceeds the capacity.
        for la in 0..=3usize {
            for lb in 0..=3usize {
                for pattern in 0..1u32 << (la + lb) {
                    let a: Vec<(usize, u32)> = (0..la).map(|i| (i, (pattern >> i) & 1)).collect();
                    let b: Vec<(usize, u32)> = (0..lb)
                        .map(|i| (la + i, (pattern >> (la + i)) & 1))
                        .collect();
                    let zeros = (la + lb) as u32 - pattern.count_ones();
                    let ones = pattern.count_ones();
                    for cap in 0..=4usize {
                        let r = merge_split(a.clone(), b.clone(), 0, cap);
                        if zeros as usize > cap || ones as usize > cap {
                            let err = r.unwrap_err();
                            assert_eq!(err.capacity, cap);
                            assert_eq!(err.size, if err.side == 0 { zeros } else { ones } as usize);
                        } else {
                            let (lo, hi) = r.unwrap();
                            assert_eq!(lo.len(), zeros as usize);
                            assert_eq!(hi.len(), ones as usize);
                            // Stability: ids ascend on both sides (inputs
                            // were id-ordered across a then b).
                            assert!(lo.windows(2).all(|w| w[0].0 < w[1].0));
                            assert!(hi.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                    }
                }
            }
        }
    }

    /// The router as `g` chained [`merge_split`] levels over the group's
    /// member buckets: the executable spec [`route_buckets`] must match.
    fn chained_route<T: Copy>(
        group: &Group<(T, u32)>,
        capacity: usize,
        s: usize,
        base: usize,
        stride: usize,
    ) -> Result<Group<T>, BucketSortError> {
        let mut rest = group.items.as_slice();
        let mut buckets: Vec<Vec<(T, u32)>> = group
            .lens
            .iter()
            .map(|&len| {
                let (bucket, tail) = rest.split_at(len);
                rest = tail;
                bucket.to_vec()
            })
            .collect();
        for t in 0..buckets.len().trailing_zeros() as usize {
            let bit = 1usize << t;
            for j in (0..buckets.len()).filter(|j| j & bit == 0) {
                let k = j | bit;
                let a = std::mem::take(&mut buckets[j]);
                let c = std::mem::take(&mut buckets[k]);
                let (lo, hi) = merge_split(a, c, t as u32, capacity).map_err(|e| {
                    BucketSortError::Overflow {
                        superlevel: s,
                        level: t,
                        bucket: base + [j, k][e.side] * stride,
                        size: e.size,
                        capacity: e.capacity,
                    }
                })?;
                buckets[j] = lo;
                buckets[k] = hi;
            }
        }
        Ok(Group {
            lens: buckets.iter().map(Vec::len).collect(),
            items: buckets
                .into_iter()
                .flatten()
                .map(|(item, _)| item)
                .collect(),
        })
    }

    /// A random group of `2^g` members with up to `max_len` items each;
    /// item `i` is `i`, so the routed order is visible. With `skew`, half
    /// the tags collapse onto one member, so inner levels overflow too.
    fn random_group(g: usize, max_len: usize, skew: bool, salt: u64) -> Group<(u64, u32)> {
        let grp = 1usize << g;
        let lens: Vec<usize> = (0..grp)
            .map(|m| (hash64(m as u64, salt) % (max_len as u64 + 1)) as usize)
            .collect();
        let items = (0..lens.iter().sum::<usize>() as u64)
            .map(|i| {
                let h = hash64(i, salt ^ 0x7A65);
                let tag = if skew && h & 1 == 0 {
                    (salt as usize % grp) as u32
                } else {
                    ((h >> 1) as usize % grp) as u32
                };
                (i, tag)
            })
            .collect();
        Group { items, lens }
    }

    #[test]
    fn router_matches_chained_merge_split_levels() {
        for g in 1..=6 {
            for salt in 0..40u64 {
                let group = random_group(g, 24, false, salt * 64 + g as u64);
                let (s, base, stride) = (salt as usize % 3, 5, 1 << (salt % 4));
                let want = chained_route(&group, 1 << 20, s, base, stride);
                assert!(want.is_ok());
                assert_eq!(route_buckets(&group, 1 << 20, s, base, stride), want);
            }
        }
    }

    #[test]
    fn router_reports_overflow_where_the_chain_does() {
        let (mut inner, mut last, mut fits) = (0, 0, 0);
        for g in 1..=6 {
            for salt in 0..200u64 {
                let group = random_group(g, 16, true, salt * 64 + g as u64);
                let capacity = 4 + salt as usize % 36;
                let (s, base, stride) = (2, salt as usize % 7, 1 << (salt % 3));
                let want = chained_route(&group, capacity, s, base, stride);
                assert_eq!(
                    route_buckets(&group, capacity, s, base, stride),
                    want,
                    "g={g} salt={salt} capacity={capacity}"
                );
                match want {
                    Err(BucketSortError::Overflow { level, .. }) if level + 1 < g => inner += 1,
                    Err(_) => last += 1,
                    Ok(_) => fits += 1,
                }
            }
        }
        assert!(
            inner > 0 && last > 0 && fits > 0,
            "the battery must overflow at inner and last levels and also fit \
             (inner {inner}, last {last}, fits {fits})"
        );
    }

    /// The run-consumption sequence of a multi-way merge that scans every
    /// live run for the smallest head, ties to the earliest run.
    fn linear_scan_merge<F>(runs: &[Vec<Element>], cmp: &F) -> Vec<usize>
    where
        F: Fn(&Element, &Element) -> Ordering,
    {
        let mut pos = vec![0usize; runs.len()];
        let mut taken = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            for (i, run) in runs.iter().enumerate() {
                let Some(head) = run.get(pos[i]) else {
                    continue;
                };
                if best.is_none_or(|b| cmp(head, &runs[b][pos[b]]) == Ordering::Less) {
                    best = Some(i);
                }
            }
            let Some(i) = best else { return taken };
            taken.push(i);
            pos[i] += 1;
        }
    }

    /// The same sequence from the heap `merge_runs` keeps.
    fn heap_merge<F>(runs: &[Vec<Element>], by: &F) -> Vec<usize>
    where
        F: Fn(&Element, &Element) -> Ordering,
    {
        let mut pos = vec![0usize; runs.len()];
        let mut heap: BinaryHeap<Head<F>> = runs
            .iter()
            .enumerate()
            .filter_map(|(run, items)| items.first().map(|&item| Head { item, run, by }))
            .collect();
        let mut taken = Vec::new();
        while let Some(mut top) = heap.peek_mut() {
            let run = top.run;
            taken.push(run);
            pos[run] += 1;
            match runs[run].get(pos[run]) {
                Some(&item) => top.item = item,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        taken
    }

    #[test]
    fn heap_merge_consumes_runs_like_the_linear_scan() {
        let total = |a: &Element, b: &Element| a.cmp(b);
        let weak = |a: &Element, b: &Element| a.key.cmp(&b.key);
        for fan in [1usize, 2, 3, 7, 64, 65] {
            for salt in 0..20u64 {
                // Keys from a range of 3: nearly every comparison ties.
                let runs: Vec<Vec<Element>> = (0..fan)
                    .map(|r| {
                        let len = hash64(r as u64, salt) % 40;
                        let mut run: Vec<Element> = (0..len)
                            .map(|i| Element::new(hash64(i, salt ^ r as u64) % 3, i))
                            .collect();
                        run.sort_unstable();
                        run
                    })
                    .collect();
                let count: usize = runs.iter().map(Vec::len).sum();
                for (name, cmp) in [("total", &total as &dyn Fn(&_, &_) -> _), ("weak", &weak)] {
                    let want = linear_scan_merge(&runs, &cmp);
                    assert_eq!(want.len(), count);
                    assert_eq!(
                        heap_merge(&runs, &cmp),
                        want,
                        "{name} fan={fan} salt={salt}"
                    );
                }
            }
        }
    }

    #[test]
    fn sorts_in_cache_when_the_array_fits() {
        let cells = keyed_input(96, 7, 50);
        let mut keys: Vec<u64> = cells.iter().flatten().map(|e| e.key).collect();
        let (out, rep) = run_sort(&cells, 8, 256, &BucketSortConfig::default());
        assert!(rep.in_cache);
        assert_eq!(rep.occupied, 96);
        assert_sorted_reals_first(&out, &mut keys);
    }

    #[test]
    fn sorts_externally_with_dummies_and_duplicates() {
        let n = 4096;
        let b = 8;
        let cache = 512; // external: n > M, γ = 2 at the default Z = 128
        let mut cells = keyed_input(n, 13, 97);
        for (i, cell) in cells.iter_mut().enumerate() {
            if hash64(i as u64, 99).is_multiple_of(3) {
                *cell = None;
            }
        }
        let mut keys: Vec<u64> = cells.iter().flatten().map(|e| e.key).collect();
        let (out, rep) = run_sort(&cells, b, cache, &BucketSortConfig::seeded(42));
        assert!(!rep.in_cache);
        assert!(rep.superlevels >= 2);
        assert_eq!(rep.occupied, keys.len());
        assert_sorted_reals_first(&out, &mut keys);
    }

    #[test]
    fn sorts_non_power_of_two_lengths_natively() {
        for n in [1000usize, 1537, 2049, 3000] {
            let cells = keyed_input(n, n as u64, 10); // heavy duplicates
            let mut keys: Vec<u64> = cells.iter().flatten().map(|e| e.key).collect();
            let (out, rep) = run_sort(&cells, 8, 320, &BucketSortConfig::seeded(5));
            assert!(!rep.in_cache, "n={n} should take the external path");
            assert_sorted_reals_first(&out, &mut keys);
        }
    }

    #[test]
    fn descending_order_is_supported() {
        let cells = keyed_input(2048, 3, 1000);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        bucket_oblivious_sort(
            &mut mem,
            &h,
            320,
            SortOrder::Descending,
            &BucketSortConfig::seeded(9),
        )
        .unwrap();
        let out = mem.snapshot_cells(&h);
        let keys: Vec<u64> = out.iter().flatten().map(|e| e.key).collect();
        assert_eq!(keys.len(), 2048);
        assert!(keys.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn all_equal_keys_do_not_overflow() {
        // Tags come from positions, not keys: equal keys spread uniformly.
        let cells: Vec<Cell> = (0..4096).map(|i| Some(Element::new(7, i))).collect();
        let (out, _rep) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(1));
        assert!(out.iter().all(|c| c.map(|e| e.key) == Some(7)));
    }

    #[test]
    fn all_dummy_input_yields_all_dummy_output() {
        let cells: Vec<Cell> = vec![None; 2048];
        let (out, rep) = run_sort(&cells, 8, 320, &BucketSortConfig::seeded(2));
        assert_eq!(rep.occupied, 0);
        assert!(out.iter().all(|c| c.is_none()));
    }

    #[test]
    fn explicit_bucket_capacity_is_validated() {
        let cells = keyed_input(4096, 1, 100);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        for (z, reason_part) in [
            (48, "power of two"),
            (4, "at least one block"),
            (512, "M >= 2Z"),
        ] {
            let cfg = BucketSortConfig::with_bucket_capacity(0, z);
            let err =
                bucket_oblivious_sort(&mut mem, &h, 320, SortOrder::Ascending, &cfg).unwrap_err();
            match err {
                BucketSortError::InvalidArgument { reason } => {
                    assert!(
                        reason.contains(reason_part),
                        "Z={z}: reason {reason:?} should mention {reason_part:?}"
                    );
                }
                other => panic!("Z={z}: expected InvalidArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn freak_cache_skew_rerolls_the_seed_instead_of_dying() {
        // Regression: with Z = M/2 and γ = 1 a freakishly full MergeSplit
        // group (2Z items + tag slots + a streamed block > M) used to kill
        // the sort with a data-dependent `BudgetExceeded` before any bucket
        // formally overflowed. (N, B, M) = (1024, 16, 128) with this
        // salt/seed reproduced the failure; the sort must now re-roll the
        // assignment seed internally and still deliver the sorted array.
        let cells: Vec<Cell> = (0..1024)
            .map(|i| Some(Element::keyed(hash64(i as u64, 3), i)))
            .collect();
        let (out, rep) = run_sort(&cells, 16, 128, &BucketSortConfig::seeded(1));
        assert!(!rep.in_cache);
        assert!(
            rep.attempts > 1 && rep.attempts <= MAX_SEED_ATTEMPTS,
            "this shape/seed must exercise the re-roll path, got attempts = {}",
            rep.attempts
        );
        let keys: Vec<u64> = out.iter().flatten().map(|e| e.key).collect();
        assert_eq!(keys.len(), 1024);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // The re-roll ladder is deterministic: a second run replays it.
        let (out2, rep2) = run_sort(&cells, 16, 128, &BucketSortConfig::seeded(1));
        assert_eq!(out, out2);
        assert_eq!(rep, rep2);
    }

    #[test]
    fn tiny_cache_is_a_typed_error_not_a_panic() {
        let cells = keyed_input(4096, 1, 100);
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&cells);
        let err = bucket_oblivious_sort(
            &mut mem,
            &h,
            40, // < 8B
            SortOrder::Ascending,
            &BucketSortConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BucketSortError::InvalidArgument { .. }));
    }

    #[test]
    fn same_seed_same_io_different_seed_may_differ() {
        let cells = keyed_input(4096, 21, 1 << 20);
        let (out1, rep1) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(77));
        let (out2, rep2) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(77));
        assert_eq!(out1, out2);
        assert_eq!(rep1, rep2, "same seed must reproduce the identical run");
        let (out3, _rep3) = run_sort(&cells, 8, 512, &BucketSortConfig::seeded(78));
        assert_eq!(out1, out3, "the sorted output is seed-independent");
    }

    #[test]
    fn beats_the_lemma2_sort_when_n_is_large_relative_to_m() {
        use crate::external_sort::external_oblivious_sort;
        let n = 1 << 14;
        let b = 64;
        let cache = 1 << 10; // N/M = 16
        let cells = keyed_input(n, 4, 1 << 30);

        let mut mem = ExtMem::new(b);
        let h = mem.alloc_array_from_cells(&cells);
        let rep = bucket_oblivious_sort(
            &mut mem,
            &h,
            cache,
            SortOrder::Ascending,
            &BucketSortConfig::default(),
        )
        .unwrap();

        let mut mem2 = ExtMem::new(b);
        let h2 = mem2.alloc_array_from_cells(&cells);
        let lemma2 = external_oblivious_sort(&mut mem2, &h2, cache, SortOrder::Ascending);

        assert_eq!(
            mem.snapshot_cells(&h),
            mem2.snapshot_cells(&h2),
            "both sorts must agree"
        );
        assert!(
            rep.io.total() < lemma2.io.total(),
            "bucket sort ({}) must beat Lemma 2 ({}) at N/M = 16",
            rep.io.total(),
            lemma2.io.total()
        );
    }

    #[test]
    fn trivial_lengths_are_reported_in_cache() {
        let mut mem = ExtMem::new(8);
        let h = mem.alloc_array_from_cells(&[Some(e(3))]);
        let rep = bucket_oblivious_sort(
            &mut mem,
            &h,
            64,
            SortOrder::Ascending,
            &BucketSortConfig::default(),
        )
        .unwrap();
        assert!(rep.in_cache);
        assert_eq!(rep.occupied, 1);
    }
}
