//! Crash-consistency battery: a client is killed mid-sort, restarts from its
//! checkpointed [`AuthClientState`], reopens the server file — and the
//! authenticated layer must classify the torn on-disk state as tampering
//! (`Corrupted` | `Stale`), never serve it as valid data.
//!
//! The scenario mirrors the paper's trust model: the server file survives
//! the crash verbatim (the server is durable but untrusted), while the
//! client loses everything except the state it explicitly checkpointed
//! *before* the sort started. Blocks the sort rewrote between checkpoint
//! and crash are newer than the checkpointed version table says, so their
//! MACs cannot verify against it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use extmem::util::hash64;
use odo_core::{
    ArrayHandle, AuthenticatedStore, BlockStore, Cell, Element, FileStore, InjectedCrash,
    OblivSorter, SortOrder, StoreError,
};

const N: usize = 512;
const B: usize = 8;
const M: usize = 128;
const KEY: u64 = 0x4D41_4353;

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("odo-crash-{}-{tag}.blocks", std::process::id()))
}

fn input(seed: u64) -> Vec<Cell> {
    (0..N)
        .map(|i| Some(Element::new(hash64(i as u64, seed) >> 16, i as u64)))
        .collect()
}

/// Populates an authenticated file store, checkpoints the client state,
/// arms a crash `budget` writes into the sort, and lets it die. Returns the
/// array handle and the pre-crash checkpoint.
fn populate_and_crash(
    path: &PathBuf,
    seed: u64,
    budget: u64,
) -> (ArrayHandle, odo_core::AuthClientState) {
    let fs = FileStore::create(path, B).expect("create store file");
    let mut auth = AuthenticatedStore::new(fs, KEY);
    let h = BlockStore::alloc_array(&mut auth, N);
    auth.try_store_span(&h, 0, &input(seed)).unwrap();
    auth.flush_macs().unwrap();
    let state = auth.client_state();

    auth.inner_mut().crash_after_writes(budget);
    let died = catch_unwind(AssertUnwindSafe(|| {
        OblivSorter::Bitonic.sort(&mut auth, &h, M, SortOrder::Ascending);
    }));
    let payload = died.expect_err("the armed store must kill the sort");
    assert!(
        payload.downcast_ref::<InjectedCrash>().is_some(),
        "the sort must die on the injected crash, not an unrelated panic"
    );
    // `auth` is dropped here: the client's in-memory MAC cache and version
    // table vanish, exactly as in a process kill. The file survives.
    (h, state)
}

#[test]
fn torn_sort_state_is_detected_after_resume() {
    // Vary how deep into the sort the crash lands: right after the first
    // region write-back, mid-pass, and late. Every depth must be detected.
    for (tag, budget) in [("early", 8u64), ("mid", 24), ("late", 48)] {
        let path = scratch_path(tag);
        let (h, state) = populate_and_crash(&path, 0xC0FFEE ^ budget, budget);

        let reopened = FileStore::open(&path, B).expect("reopen store file");
        assert!(
            reopened.allocated_blocks() > h.n_blocks(),
            "{tag}: the reopened file holds the data array plus MAC arrays"
        );
        let mut auth = AuthenticatedStore::resume(reopened, state);

        let mut tampering = 0usize;
        let mut valid = 0usize;
        for beta in 0..h.n_blocks() {
            match auth.try_load_block(&h, beta) {
                Ok(_) => valid += 1,
                Err(e) => {
                    assert!(
                        e.is_tampering(),
                        "{tag}: block {beta} must fail as tampering, got {e:?}"
                    );
                    tampering += 1;
                }
            }
        }
        assert!(
            tampering > 0,
            "{tag}: a crash {budget} writes into the sort must leave \
             detectably torn blocks"
        );
        assert!(
            valid > 0,
            "{tag}: blocks the sort never reached must still verify \
             ({tampering} torn of {})",
            h.n_blocks()
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_whole_run_without_a_crash_still_verifies_after_resume() {
    // Control case: checkpoint *after* a completed sort + MAC flush, reopen,
    // resume — every block must verify and the data must be sorted.
    let path = scratch_path("control");
    let fs = FileStore::create(&path, B).expect("create store file");
    let mut auth = AuthenticatedStore::new(fs, KEY);
    let h = BlockStore::alloc_array(&mut auth, N);
    auth.try_store_span(&h, 0, &input(7)).unwrap();
    OblivSorter::Bitonic.sort(&mut auth, &h, M, SortOrder::Ascending);
    auth.flush_macs().unwrap();
    let state = auth.client_state();
    drop(auth);

    let reopened = FileStore::open(&path, B).expect("reopen store file");
    let mut auth = AuthenticatedStore::resume(reopened, state);
    let cells = auth.try_load_span(&h, 0, N).expect("clean state verifies");
    assert!(cells
        .windows(2)
        .all(|w| w[0].unwrap().key <= w[1].unwrap().key));
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_band_disk_corruption_is_detected_after_resume() {
    // A crash plus a corrupted sector: garble one cell of block 0 directly
    // in the file (bypassing every store layer), resume, and read.
    let path = scratch_path("sector");
    let fs = FileStore::create(&path, B).expect("create store file");
    let mut auth = AuthenticatedStore::new(fs, KEY);
    let h = BlockStore::alloc_array(&mut auth, N);
    auth.try_store_span(&h, 0, &input(3)).unwrap();
    auth.flush_macs().unwrap();
    let state = auth.client_state();
    drop(auth);

    // Flip the key word of the first cell on disk (offset 8 within the
    // 24-byte cell encoding).
    {
        use std::io::{Read, Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut word = [0u8; 8];
        f.seek(SeekFrom::Start(8)).unwrap();
        f.read_exact(&mut word).unwrap();
        word[0] ^= 0xFF;
        f.seek(SeekFrom::Start(8)).unwrap();
        f.write_all(&word).unwrap();
    }

    let reopened = FileStore::open(&path, B).expect("reopen store file");
    let mut auth = AuthenticatedStore::resume(reopened, state);
    let err = auth
        .try_load_block(&h, 0)
        .expect_err("corruption must surface");
    assert!(
        matches!(err, StoreError::Corrupted { addr: 0 }),
        "got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}
