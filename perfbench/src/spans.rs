//! Spans recorded from outside the program.
//!
//! [`Traced`] is a pass-through wrapper that sits above one store layer and
//! records a span around every call into it: foreground calls through
//! `BlockStore`/`Prefetchable`, and background calls on prefetch reader
//! threads through the [`TracedReader`] it hands out. A span records its
//! name, start, end, parent span and op id. Spans stay in per-thread
//! buffers while the work runs and are gathered with [`take_all`] once the
//! stack is dropped and its reader threads have been joined.
//!
//! Recording is off until [`set_enabled`] turns it on; a disabled wrapper only
//! forwards. The wrapper never changes what it forwards, so a traced stack
//! issues the same logical trace and I/O counts as the plain one (the
//! benchmark asserts this on every traced op).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use extmem::{
    AccessTrace, ArrayHandle, BackingStore, Block, BlockStore, Cell, IoStats, PrefetchRead,
    Prefetchable, StoreError,
};

/// What a span covers: a bench-side call into a primitive, or a call into
/// one store layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Name {
    /// `OblivSorter::try_sort` with the bucket engine.
    BucketSort,
    /// `try_compact`.
    Compact,
    /// `try_select_kth`.
    Select,
    /// `PrefetchingStore::flush_writes` at the end of an op.
    Flush,
    /// An ORAM access that did not rebuild.
    Probe,
    /// An ORAM access that ran a rebuild (`flushes()` advanced).
    Rebuild,
    /// A closure the caller handed into a layer (`modify_pair`): caller work.
    Callback,
    /// The read-ahead / write-behind adapter.
    Prefetch,
    /// The MAC and version-table layer.
    Auth,
    /// The re-encrypting layer.
    Crypto,
    /// The file backend.
    File,
}

/// Which entry point of a layer a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Method {
    /// A bench-side call into a primitive, not a store method.
    Op,
    Alloc,
    Load,
    Store,
    Hint,
    Recycle,
    Pair,
    LoadSpan,
    StoreSpan,
    StoreRun,
    Fetch,
    FetchRun,
}

impl Method {
    /// True for methods whose `blocks` were read (as opposed to written).
    pub fn reads(self) -> bool {
        matches!(
            self,
            Method::Load | Method::LoadSpan | Method::Fetch | Method::FetchRun
        )
    }

    /// True for methods whose `blocks` were written.
    pub fn writes(self) -> bool {
        matches!(self, Method::Store | Method::StoreSpan | Method::StoreRun)
    }
}

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique, increasing in entry order; 0 is never used.
    pub id: u32,
    /// The enclosing span on the same thread, or 0.
    pub parent: u32,
    /// The op (job) the span belongs to, as set by [`set_op`].
    pub op: u32,
    /// Blocks the call moved (1 for a block call, the run length for span
    /// calls, 0 for calls that move no block).
    pub blocks: u32,
    pub name: Name,
    pub method: Method,
    /// Recorded on a prefetch reader thread rather than the foreground.
    pub reader: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static OP: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Local {
    stack: Vec<u32>,
    spans: Vec<Span>,
    reader: bool,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        stack: Vec::new(),
        spans: Vec::new(),
        reader: std::thread::current().name() != Some("main"),
    });
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Most spans a run keeps in memory (about 160 MB).
const SPAN_BUDGET: u32 = 4_000_000;

/// Whether one more traced unit of work fits the span budget, judging by
/// the spans the `done` units so far recorded.
pub fn room_for(done: usize) -> bool {
    let recorded = NEXT_ID.load(Ordering::Relaxed) - 1;
    let per_unit = recorded / done.max(1) as u32;
    recorded.saturating_add(per_unit) <= SPAN_BUDGET
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Tags spans recorded from now on with op id `op`.
pub fn set_op(op: u32) {
    OP.store(op, Ordering::Relaxed);
}

/// Runs bench-side call `f` inside a span named `name`.
#[inline]
pub fn op<R>(name: Name, f: impl FnOnce() -> R) -> R {
    record(|_| name, Method::Op, 0, f)
}

/// Runs `f` inside a span whose name is chosen from `f`'s result.
#[inline]
pub fn record<R>(
    name: impl FnOnce(&R) -> Name,
    method: Method,
    blocks: usize,
    f: impl FnOnce() -> R,
) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let span = Span {
        start_ns,
        end_ns,
        id,
        parent,
        op: OP.load(Ordering::Relaxed),
        blocks: u32::try_from(blocks).unwrap_or(u32::MAX),
        name: name(&out),
        method,
        reader: false,
    };
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        let reader = l.reader;
        l.spans.push(Span { reader, ..span });
    });
    out
}

/// Moves this thread's finished spans into the shared sink.
fn drain_thread() {
    // `try_with`: a reader dropped during thread teardown has nothing left
    // to drain once the thread-local itself is gone.
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        if !l.spans.is_empty() {
            let mut sink = SINK
                .lock()
                .expect("span sink poisoned by a panicking thread");
            sink.append(&mut l.spans);
        }
    });
}

/// Every span recorded so far, sorted by id. Call after the traced stack
/// is dropped, so its reader threads have been joined and drained.
pub fn take_all() -> Vec<Span> {
    drain_thread();
    let mut all = std::mem::take(
        &mut *SINK
            .lock()
            .expect("span sink poisoned by a panicking thread"),
    );
    all.sort_unstable_by_key(|s| s.id);
    all
}

/// Pass-through wrapper recording a span around every call into `inner`.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    layer: Name,
}

impl<S> Traced<S> {
    pub fn new(inner: S, layer: Name) -> Self {
        Traced { inner, layer }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

/// Runs the forwarded call `f` inside a span of `layer`.
#[inline]
fn call<R>(layer: Name, method: Method, blocks: usize, f: impl FnOnce() -> R) -> R {
    record(move |_| layer, method, blocks, f)
}

fn span_blocks(h: &ArrayHandle, elem_lo: usize, elem_hi: usize) -> usize {
    let b = h.block_elems();
    if elem_hi <= elem_lo {
        0
    } else {
        (elem_hi - 1) / b - elem_lo / b + 1
    }
}

/// Wraps a caller's pair closure in a span of its own, so caller work done
/// inside a layer call is not charged to the layer.
fn callback(f: impl FnOnce(&mut Block, &mut Block)) -> impl FnOnce(&mut Block, &mut Block) {
    move |a, b| op(Name::Callback, || f(a, b))
}

impl<S: BlockStore> BlockStore for Traced<S> {
    fn block_elems(&self) -> usize {
        self.inner.block_elems()
    }

    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        call(self.layer, Method::Alloc, 0, || {
            self.inner.alloc_array(len_elements)
        })
    }

    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        call(self.layer, Method::Load, 1, || self.inner.load_block(h, i))
    }

    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        call(self.layer, Method::Store, 1, || {
            self.inner.store_block(h, i, blk)
        })
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn hint_blocks(&mut self, h: &ArrayHandle, blocks: &[usize]) {
        call(self.layer, Method::Hint, 0, || {
            self.inner.hint_blocks(h, blocks)
        })
    }

    fn recycle(&mut self, blk: Block) {
        call(self.layer, Method::Recycle, 0, || self.inner.recycle(blk))
    }

    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        call(self.layer, Method::Load, 1, || {
            self.inner.try_load_block(h, i)
        })
    }

    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        call(self.layer, Method::Store, 1, || {
            self.inner.try_store_block(h, i, blk)
        })
    }

    fn try_modify_pair(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        j: usize,
        f: impl FnOnce(&mut Block, &mut Block),
    ) -> Result<(), StoreError> {
        call(self.layer, Method::Pair, 4, || {
            self.inner.try_modify_pair(h, i, j, callback(f))
        })
    }

    fn try_load_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        elem_hi: usize,
    ) -> Result<Vec<Cell>, StoreError> {
        call(
            self.layer,
            Method::LoadSpan,
            span_blocks(h, elem_lo, elem_hi),
            || self.inner.try_load_span(h, elem_lo, elem_hi),
        )
    }

    fn try_store_span(
        &mut self,
        h: &ArrayHandle,
        elem_lo: usize,
        cells: &[Cell],
    ) -> Result<(), StoreError> {
        let blocks = span_blocks(h, elem_lo, elem_lo + cells.len());
        call(self.layer, Method::StoreSpan, blocks, || {
            self.inner.try_store_span(h, elem_lo, cells)
        })
    }

    fn modify_pair(
        &mut self,
        h: &ArrayHandle,
        i: usize,
        j: usize,
        f: impl FnOnce(&mut Block, &mut Block),
    ) {
        call(self.layer, Method::Pair, 4, || {
            self.inner.modify_pair(h, i, j, callback(f))
        })
    }

    fn load_span(&mut self, h: &ArrayHandle, elem_lo: usize, elem_hi: usize) -> Vec<Cell> {
        call(
            self.layer,
            Method::LoadSpan,
            span_blocks(h, elem_lo, elem_hi),
            || self.inner.load_span(h, elem_lo, elem_hi),
        )
    }

    fn store_span(&mut self, h: &ArrayHandle, elem_lo: usize, cells: &[Cell]) {
        let blocks = span_blocks(h, elem_lo, elem_lo + cells.len());
        call(self.layer, Method::StoreSpan, blocks, || {
            self.inner.store_span(h, elem_lo, cells)
        })
    }
}

impl<S: BackingStore> BackingStore for Traced<S> {
    fn enable_trace(&mut self) {
        self.inner.enable_trace()
    }

    fn take_trace(&mut self) -> Option<AccessTrace> {
        self.inner.take_trace()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn allocated_blocks(&self) -> usize {
        self.inner.allocated_blocks()
    }

    fn snapshot_cells(&self, h: &ArrayHandle) -> Vec<Cell> {
        self.inner.snapshot_cells(h)
    }
}

impl<S: Prefetchable> Prefetchable for Traced<S> {
    type Reader = TracedReader<S::Reader>;

    fn reader(&self) -> Self::Reader {
        TracedReader {
            inner: self.inner.reader(),
            layer: self.layer,
        }
    }

    fn supports_store_runs(&self) -> bool {
        self.inner.supports_store_runs()
    }

    fn store_run(&mut self, start: usize, blks: Vec<Block>) -> Result<(), StoreError> {
        call(self.layer, Method::StoreRun, blks.len(), || {
            self.inner.store_run(start, blks)
        })
    }
}

/// The reader half of [`Traced`]: spans around background fetches. Drains
/// its thread's spans when dropped, which happens before the prefetch
/// adapter joins the thread.
#[derive(Debug)]
pub struct TracedReader<R> {
    inner: R,
    layer: Name,
}

impl<R: PrefetchRead> PrefetchRead for TracedReader<R> {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        call(self.layer, Method::Fetch, 1, || self.inner.fetch(addr))
    }

    fn fetch_run(&mut self, start: usize, count: usize) -> Vec<Result<Block, StoreError>> {
        call(self.layer, Method::FetchRun, count, || {
            self.inner.fetch_run(start, count)
        })
    }
}

impl<R> Drop for TracedReader<R> {
    fn drop(&mut self) {
        drain_thread();
    }
}
