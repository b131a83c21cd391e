//! The backend sweep: one primitive replayed over several store stacks
//! (*lanes*), every lane held to the in-memory `ExtMem` reference run.
//!
//! A lane's run lays the input out in its bottom stack (untimed, before the
//! trace starts), wraps the prefetch layer on top where the lane has one,
//! then times the primitive plus the write-behind flush (durability is part
//! of the measured cost), takes the trace, and reads the result back. The
//! I/O counts are identical across lanes by construction, so the wall clock
//! is the one thing a lane adds to the benchmark; [`sweep`] asserts the rest
//! — the output, the I/O count and the byte-identical trace — before a
//! timing is ever reported.

use crate::timed;
use extmem::element::Cell;
use extmem::{
    AccessTrace, ArrayHandle, AuthenticatedStore, BackingStore, BlockStore, EncryptedStore, ExtMem,
    FileStore, IoStats, Prefetchable, PrefetchingStore,
};
use std::convert::identity;

/// The MAC key of the full-stack lane's authentication layer.
const FULL_STACK_MAC_KEY: u64 = 0x4D4143;

/// A store stack a workload runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lane {
    /// The in-memory simulator: every sweep's reference.
    ExtMem,
    /// `Encrypted(ExtMem)`: the cheap runs' zero-extra-I/O check.
    Encrypted,
    /// A tempdir-backed `FileStore` doing real reads and writes.
    File,
    /// `Encrypted(FileStore)`: the same file plus the cipher work.
    EncryptedFile,
    /// `Prefetching(FileStore)`: shape-derived read-ahead and write-behind.
    Prefetch,
    /// `Prefetching(Encrypted(FileStore))`: decrypt-ahead workers and
    /// batched-keystream span writes.
    EncryptedPrefetch,
    /// `Prefetching(Auth(Encrypted(FileStore)))`. The MAC arrays shift the
    /// address layout, so this lane's trace cannot be compared to ExtMem's
    /// and [`sweep`] refuses it; the sort family probes it for data
    /// independence instead.
    FullStack,
}

/// Trace capture and the write-behind flush, for each lane's outermost
/// store.
pub(crate) trait Traced: BlockStore {
    fn trace_on(&mut self);
    fn trace_off(&mut self) -> AccessTrace;
    /// Lands buffered writes (a no-op for stores without write-behind).
    fn flush(&mut self) {}
}

impl Traced for ExtMem {
    fn trace_on(&mut self) {
        self.enable_trace();
    }
    fn trace_off(&mut self) -> AccessTrace {
        self.take_trace().expect("tracing was enabled")
    }
}

impl Traced for FileStore {
    fn trace_on(&mut self) {
        self.enable_trace();
    }
    fn trace_off(&mut self) -> AccessTrace {
        self.take_trace().expect("tracing was enabled")
    }
}

impl<S: BackingStore> Traced for EncryptedStore<S> {
    fn trace_on(&mut self) {
        self.enable_trace();
    }
    fn trace_off(&mut self) -> AccessTrace {
        self.take_trace().expect("tracing was enabled")
    }
}

impl<S: Prefetchable> Traced for PrefetchingStore<S> {
    fn trace_on(&mut self) {
        self.enable_trace();
    }
    fn trace_off(&mut self) -> AccessTrace {
        self.take_trace().expect("tracing was enabled")
    }
    fn flush(&mut self) {
        self.flush_writes()
            .unwrap_or_else(|e| panic!("write-behind flush failed: {e}"));
    }
}

/// One benchmarked primitive on one fixed input, replayable over any store.
/// Its methods are generic over the store, which a closure cannot be.
pub(crate) trait Workload {
    /// The laid-out input, plus whatever the run hands back.
    type State;
    /// Names the run in assertion messages.
    fn what(&self) -> &str;
    /// Lays the input out in a fresh store.
    fn load<S: BlockStore>(&self, s: &mut S) -> Self::State;
    /// The measured region: runs the primitive, returning its I/Os and the
    /// report fields it contributes to its family's record.
    fn run<S: BlockStore>(&self, s: &mut S, st: &mut Self::State) -> (IoStats, crate::Record);
    /// Whether the result read back after the run is the expected one.
    fn check<S: BlockStore>(&self, s: &mut S, st: &Self::State) -> bool;
}

/// One lane's run of a workload: the state after it, and the I/Os, report
/// fields, wall clock and access trace of its measured region.
pub(crate) struct LaneRun<T> {
    pub state: T,
    pub io: IoStats,
    pub report: crate::Record,
    pub ns: u64,
    pub trace: AccessTrace,
}

/// Runs `w` over `lane` with blocks of `b` elements; `key` keys the
/// encrypting layer where the lane has one. Panics if the result is wrong.
pub(crate) fn run_lane<W: Workload>(w: &W, lane: Lane, b: usize, key: u64) -> LaneRun<W::State> {
    let file = || FileStore::temp(b).expect("tempdir-backed block file");
    let enc_file = || EncryptedStore::with_backing(file(), key);
    match lane {
        Lane::ExtMem => measure(w, lane, ExtMem::new(b), identity),
        Lane::Encrypted => measure(w, lane, EncryptedStore::new(b, key), identity),
        Lane::File => measure(w, lane, file(), identity),
        Lane::EncryptedFile => measure(w, lane, enc_file(), identity),
        Lane::Prefetch => measure(w, lane, file(), PrefetchingStore::new),
        Lane::EncryptedPrefetch => measure(w, lane, enc_file(), PrefetchingStore::new),
        Lane::FullStack => {
            let auth = AuthenticatedStore::new(enc_file(), FULL_STACK_MAC_KEY);
            measure(w, lane, auth, PrefetchingStore::new)
        }
    }
}

fn measure<W: Workload, S: BlockStore, T: Traced>(
    w: &W,
    lane: Lane,
    mut bottom: S,
    wrap: impl FnOnce(S) -> T,
) -> LaneRun<W::State> {
    let mut state = w.load(&mut bottom);
    let mut store = wrap(bottom);
    store.trace_on();
    let ((io, report), ns) = timed(|| {
        let out = w.run(&mut store, &mut state);
        store.flush();
        out
    });
    let trace = store.trace_off();
    assert!(
        w.check(&mut store, &state),
        "{} gave a wrong result over {lane:?}",
        w.what()
    );
    LaneRun {
        state,
        io,
        report,
        ns,
        trace,
    }
}

/// Runs `w` over ExtMem — the reference — and then `reps` times over each
/// of `lanes` in order, interleaved, holding every run to the reference: the
/// right result, the same I/O count and a byte-identical access trace.
/// Returns the reference run and each swept run's wall clock.
pub(crate) fn sweep<W: Workload>(
    w: &W,
    lanes: &[Lane],
    reps: usize,
    b: usize,
    key: u64,
) -> (LaneRun<W::State>, Vec<(Lane, u64)>) {
    let reference = run_lane(w, Lane::ExtMem, b, key);
    let mut runs = Vec::new();
    for &lane in lanes.iter().cycle().take(lanes.len() * reps) {
        assert_ne!(lane, Lane::FullStack, "the full stack has its own layout");
        let run = run_lane(w, lane, b, key);
        assert_eq!(
            run.io,
            reference.io,
            "{} counted different I/Os over {lane:?} than over ExtMem",
            w.what()
        );
        assert!(
            run.trace == reference.trace,
            "{} trace over {lane:?} must be byte-identical to ExtMem's",
            w.what()
        );
        runs.push((lane, run.ns));
    }
    (reference, runs)
}

/// The fastest run of `lane` among `runs` (the minimum over interleaved
/// repetitions), or `None` if the lane did not run.
pub(crate) fn fastest(runs: &[(Lane, u64)], lane: Lane) -> Option<u64> {
    runs.iter().filter(|r| r.0 == lane).map(|r| r.1).min()
}

/// Lays `cells` out in a fresh array of `s`.
pub(crate) fn load_cells<S: BlockStore>(s: &mut S, cells: &[Cell]) -> ArrayHandle {
    let h = s.alloc_array(cells.len());
    s.try_store_span(&h, 0, cells)
        .unwrap_or_else(|e| panic!("populating the input failed: {e}"));
    h
}
