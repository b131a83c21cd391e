//! Regression: a prefetch worker whose reader panics must not take the
//! adapter down with it.
//!
//! Pre-fix there were two failure shapes, both pinned here. A panic *under*
//! the shared lock poisoned the mutex and every later client load died on
//! `.expect("prefetch state poisoned")` (that path is pinned by the unit
//! test inside `prefetch.rs`, which can reach the private mutex). A panic
//! *outside* the lock — a reader blowing up mid-fetch, the case this file
//! injects — leaked the in-flight claim and left the slot `Fetching`
//! forever, so a later load of the same address deadlocked waiting for a
//! park that could never come. Post-fix the unwind is caught in the worker:
//! every claimed address surfaces as a retryable [`StoreError::Transient`]
//! on the `try_*` path, the pool keeps serving, and a plain retry reads the
//! real data synchronously.

use extmem::store::BlockStore;
use extmem::{
    ArrayHandle, Block, Cell, Element, FileStore, IoStats, PrefetchConfig, PrefetchRead,
    Prefetchable, PrefetchingStore, StoreError,
};

/// A [`FileStore`] whose background readers always panic. Foreground
/// (synchronous) reads still work — that asymmetry is what lets the test
/// separate "the pool broke" from "the data is gone".
struct PanickyStore(FileStore);

impl BlockStore for PanickyStore {
    fn block_elems(&self) -> usize {
        self.0.block_elems()
    }
    fn alloc_array(&mut self, len_elements: usize) -> ArrayHandle {
        self.0.alloc_array(len_elements)
    }
    fn load_block(&mut self, h: &ArrayHandle, i: usize) -> Block {
        self.0.load_block(h, i)
    }
    fn store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) {
        self.0.store_block(h, i, blk)
    }
    fn io_stats(&self) -> IoStats {
        self.0.io_stats()
    }
    fn try_load_block(&mut self, h: &ArrayHandle, i: usize) -> Result<Block, StoreError> {
        self.0.try_load_block(h, i)
    }
    fn try_store_block(&mut self, h: &ArrayHandle, i: usize, blk: Block) -> Result<(), StoreError> {
        self.0.try_store_block(h, i, blk)
    }
}

struct PanickyReader;

impl PrefetchRead for PanickyReader {
    fn fetch(&mut self, addr: usize) -> Result<Block, StoreError> {
        panic!("reader bug while fetching block {addr}");
    }
}

impl Prefetchable for PanickyStore {
    type Reader = PanickyReader;
    fn reader(&self) -> Self::Reader {
        PanickyReader
    }
}

fn e(k: u64) -> Element {
    Element::new(k, k + 1000)
}

#[test]
fn a_panicking_worker_surfaces_transient_errors_not_a_dead_pool() {
    let mut file = FileStore::temp(2).expect("temp file");
    let h = file.alloc_array(16);
    let cells: Vec<Cell> = (0..16).map(|k| Some(e(k))).collect();
    file.store_span(&h, 0, &cells);

    let mut store = PrefetchingStore::with_config(
        PanickyStore(file),
        PrefetchConfig {
            workers: 1,
            max_ready: 64,
            write_buffer: 0,
        },
    );
    store.hint_blocks(&h, &(0..h.n_blocks()).collect::<Vec<_>>());
    // Let the worker claim the batch and panic mid-fetch. (If the
    // foreground wins the race instead, its batch-steal uses the same
    // panicking reader and the same catch — either interleaving must yield
    // typed errors below, never a panic or a hang.)
    std::thread::sleep(std::time::Duration::from_millis(30));

    let mut transients = 0;
    for i in 0..h.n_blocks() {
        match store.try_load_block(&h, i) {
            Err(StoreError::Transient { .. }) => transients += 1,
            Ok(blk) => store.recycle(blk),
            Err(e) => panic!("block {i}: want Transient or Ok, got {e:?}"),
        }
    }
    assert!(
        transients > 0,
        "the injected panics must surface as typed Transient errors"
    );

    // The failed claims are cleared, the pool is alive, and a retry reads
    // the real data through the (working) synchronous path.
    for i in 0..h.n_blocks() {
        let blk = store.try_load_block(&h, i).expect("retry must succeed");
        assert_eq!(blk.occupied()[0], e(i as u64 * 2));
        store.recycle(blk);
    }
}
