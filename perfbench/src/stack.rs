//! The client store stack every workload runs over,
//! `Prefetching(Auth(Encrypted(FileStore)))` with the default
//! `PrefetchConfig`, in a plain form and a traced form with a [`Traced`]
//! wrapper above each layer.

use std::path::Path;

use extmem::{
    AccessTrace, ArenaStats, AuthenticatedStore, BlockStore, EncryptedStore, FileStore, IoStats,
    PrefetchStats, PrefetchingStore, StoreError,
};

use crate::spans::{Name, Traced};

const ENC_KEY: u64 = 0x0E2C_0DE5_0001;
const MAC_KEY: u64 = 0x0A07_4D41_0002;

pub type Plain = PrefetchingStore<AuthenticatedStore<EncryptedStore<FileStore>>>;

pub type Instrumented =
    Traced<PrefetchingStore<Traced<AuthenticatedStore<Traced<EncryptedStore<Traced<FileStore>>>>>>>;

/// Counters read from the stack's layers. Level-type fields
/// (`allocated_blocks`, `budget_high_water`) are not deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Data-block requests the algorithm issued (the logical trace).
    pub logical: IoStats,
    /// MAC-block I/Os the authentication layer issued.
    pub mac: IoStats,
    pub prefetch: PrefetchStats,
    pub arena: ArenaStats,
    pub allocated_blocks: usize,
    pub budget_high_water: usize,
}

impl Counters {
    /// Block I/Os the client issues to the server: data plus MAC blocks.
    pub fn ios(&self) -> u64 {
        self.logical.total() + self.mac.total()
    }

    /// Adds the deltas in `other` to `self`; levels take the maximum.
    pub fn add(&mut self, other: &Counters) {
        let (p, q) = (&mut self.prefetch, other.prefetch);
        let (a, c) = (&mut self.arena, other.arena);
        self.logical.reads += other.logical.reads;
        self.logical.writes += other.logical.writes;
        self.mac.reads += other.mac.reads;
        self.mac.writes += other.mac.writes;
        p.hits += q.hits;
        p.misses += q.misses;
        p.steals += q.steals;
        p.waits += q.waits;
        p.invalidated += q.invalidated;
        p.hinted += q.hinted;
        p.wb_hits += q.wb_hits;
        p.write_spans += q.write_spans;
        a.allocated += c.allocated;
        a.reused += c.reused;
        a.recycled += c.recycled;
        a.dropped += c.dropped;
        self.allocated_blocks = self.allocated_blocks.max(other.allocated_blocks);
        self.budget_high_water = self.budget_high_water.max(other.budget_high_water);
    }

    /// Counters accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let (p, q) = (self.prefetch, before.prefetch);
        let (a, c) = (self.arena, before.arena);
        Counters {
            logical: self.logical - before.logical,
            mac: self.mac - before.mac,
            prefetch: PrefetchStats {
                hits: p.hits - q.hits,
                misses: p.misses - q.misses,
                steals: p.steals - q.steals,
                waits: p.waits - q.waits,
                invalidated: p.invalidated - q.invalidated,
                hinted: p.hinted - q.hinted,
                wb_hits: p.wb_hits - q.wb_hits,
                write_spans: p.write_spans - q.write_spans,
            },
            arena: ArenaStats {
                allocated: a.allocated - c.allocated,
                reused: a.reused - c.reused,
                recycled: a.recycled - c.recycled,
                dropped: a.dropped - c.dropped,
            },
            allocated_blocks: self.allocated_blocks,
            budget_high_water: self.budget_high_water,
        }
    }
}

/// What the workloads need from a stack beyond `BlockStore`.
pub trait Client: BlockStore + Sized {
    fn open(path: &Path, block_elems: usize) -> Result<Self, StoreError>;
    fn flush_writes(&mut self) -> Result<(), StoreError>;
    /// Starts capturing the logical trace at the prefetch layer.
    fn enable_trace(&mut self);
    fn take_trace(&mut self) -> Option<AccessTrace>;
    fn counters(&self) -> Counters;
}

fn counters_of<A, E>(
    p: &PrefetchingStore<A>,
    auth: &AuthenticatedStore<E>,
    file: &FileStore,
) -> Counters
where
    A: extmem::Prefetchable,
    E: BlockStore,
{
    Counters {
        logical: p.io_stats(),
        mac: auth.mac_io(),
        prefetch: p.prefetch_stats(),
        arena: file.arena().stats(),
        allocated_blocks: file.allocated_blocks(),
        budget_high_water: auth.budget().high_water(),
    }
}

impl Client for Plain {
    fn open(path: &Path, block_elems: usize) -> Result<Self, StoreError> {
        let file = FileStore::create(path, block_elems)?;
        let enc = EncryptedStore::try_with_backing(file, ENC_KEY)?;
        Ok(PrefetchingStore::new(AuthenticatedStore::new(enc, MAC_KEY)))
    }

    fn flush_writes(&mut self) -> Result<(), StoreError> {
        PrefetchingStore::flush_writes(self)
    }

    fn enable_trace(&mut self) {
        PrefetchingStore::enable_trace(self)
    }

    fn take_trace(&mut self) -> Option<AccessTrace> {
        PrefetchingStore::take_trace(self)
    }

    fn counters(&self) -> Counters {
        let auth = self.inner();
        counters_of(self, auth, auth.inner().backing())
    }
}

impl Client for Instrumented {
    fn open(path: &Path, block_elems: usize) -> Result<Self, StoreError> {
        let file = Traced::new(FileStore::create(path, block_elems)?, Name::File);
        let enc = Traced::new(
            EncryptedStore::try_with_backing(file, ENC_KEY)?,
            Name::Crypto,
        );
        let auth = Traced::new(AuthenticatedStore::new(enc, MAC_KEY), Name::Auth);
        Ok(Traced::new(PrefetchingStore::new(auth), Name::Prefetch))
    }

    fn flush_writes(&mut self) -> Result<(), StoreError> {
        self.inner_mut().flush_writes()
    }

    fn enable_trace(&mut self) {
        self.inner_mut().enable_trace()
    }

    fn take_trace(&mut self) -> Option<AccessTrace> {
        self.inner_mut().take_trace()
    }

    fn counters(&self) -> Counters {
        let p = self.inner();
        let auth = p.inner().inner();
        counters_of(p, auth, auth.inner().inner().backing().inner())
    }
}
