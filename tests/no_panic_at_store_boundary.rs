//! No panic crosses the store boundary: a tampering server reaches every
//! primitive as a typed `Err` that the algorithm propagates, never as an
//! unwind. The check is a panic hook that counts every panic raised while a
//! tampered sort, compaction, selection and ORAM access run over
//! `Auth(Faulty(Encrypted(ExtMem)))`.
//!
//! The panic hook is process-global, so this file holds one test and no
//! other test in it can race the hook.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use odo::prelude::*;

type Stack = AuthenticatedStore<FaultyStore<EncryptedStore>>;

const N: usize = 1 << 12;
const B: usize = 16;
const M: usize = 1 << 9;

fn stack(seed: u64, b: usize) -> Stack {
    let enc = EncryptedStore::new(b, 0xA11CE ^ seed);
    let faulty = FaultyStore::new(enc, seed, FaultSpec::none());
    AuthenticatedStore::new(faulty, 0x4D41_4353 ^ seed)
}

/// The server starts corrupting ~2% of the blocks it serves.
fn start_tampering(store: &mut Stack) {
    store.inner_mut().set_spec(FaultSpec {
        corrupt_read_ppm: 20_000,
        ..FaultSpec::none()
    });
}

/// A tampering store holding `N` keyed cells.
fn tampered(seed: u64) -> (Stack, odo::core_alg::ArrayHandle) {
    let mut store = stack(seed, B);
    let cells: Vec<Cell> = (0..N)
        .map(|i| Some(Element::keyed((i as u64).wrapping_mul(0x9E37_79B9) >> 7, i)))
        .collect();
    let h = BlockStore::alloc_array(&mut store, N);
    store.try_store_span(&h, 0, &cells).expect("honest upload");
    store.flush_macs().expect("honest upload");
    start_tampering(&mut store);
    (store, h)
}

/// Warms an ORAM up on an honest server, then keeps accessing it under
/// tampering until an access fails. Returns that error and the outcome of
/// one more access on the failed client.
fn tampered_oram(policy: RetryPolicy) -> (OdoError, Result<u64, OdoError>) {
    let mut store = stack(4, 8);
    let mut oram = Oram::new(&mut store, 64, &OramConfig::new(8, 64, 4));
    for addr in 0..64 {
        oram.try_write(&mut store, addr, addr + 1, policy)
            .expect("honest warm-up");
    }
    start_tampering(&mut store);
    for i in 0..1024 {
        if let Err(e) = oram.try_read(&mut store, i % 64, policy) {
            let after = oram.try_read(&mut store, 0, policy).map(|(v, _)| v);
            return (e, after);
        }
    }
    panic!("1024 tampered ORAM accesses all succeeded");
}

#[test]
fn tampered_primitives_return_typed_errors_without_a_panic() {
    let panics = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&panics);
    std::panic::set_hook(Box::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    }));

    let policy = RetryPolicy::default();
    let (mut s, h) = tampered(1);
    let sort = OblivSorter::bucket(7)
        .try_sort(&mut s, &h, M, SortOrder::Ascending, policy)
        .map(|_| ());
    let (mut s, h) = tampered(2);
    let compact = try_compact(&mut s, &h, M, policy).map(|_| ());
    let (mut s, h) = tampered(3);
    let select = try_select_kth(&mut s, &h, M, N / 2, policy).map(|_| ());
    let (oram, after) = tampered_oram(policy);

    // Restore the default hook so a failing assertion below reports itself.
    let _ = std::panic::take_hook();
    for (name, res) in [("sort", sort), ("compact", compact), ("select", select)] {
        let err = res.expect_err(name);
        assert!(err.is_tampering(), "{name}: {err:?}");
    }
    assert!(oram.is_tampering(), "oram: {oram:?}");
    assert!(
        matches!(after, Err(OdoError::InvalidState { .. })),
        "a failed access poisons the ORAM client: {after:?}"
    );
    assert_eq!(
        panics.load(Ordering::SeqCst),
        0,
        "a store error crossed the store boundary as a panic"
    );
}
