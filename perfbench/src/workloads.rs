//! The three workloads: inputs generated from the seed, one op at a time
//! over a fresh or warmed stack, each op checked against an oracle outside
//! its timed region.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use extmem::util::{hash64, splitmix64};
use extmem::{AccessTrace, Cell, Element, IoStats, RetryPolicy};
use odo_core::{try_compact, try_select_kth, OblivSorter, SortOrder};
use oram::{Oram, OramConfig};

use crate::spans::{self, Method, Name};
use crate::stack::{Client, Counters};

/// Block size `B` in elements.
pub const B: usize = 64;
/// Client memory `M` in elements.
pub const M: usize = 1 << 13;
/// Elements per `sort` input and cells per `query` table.
pub const N: usize = 1 << 18;
/// ORAM address-space size in words.
pub const ORAM_N: u64 = 1 << 14;
/// ORAM flush period `P`.
pub const ORAM_PERIOD: usize = 128;

const STREAM_INPUT: u64 = 0x1;
const STREAM_BUCKET: u64 = 0x2;
const STREAM_ORAM: u64 = 0x3;
const STREAM_FILL: u64 = 0x4;
const STREAM_REQUESTS: u64 = 0x5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sort,
    Query,
    Oram,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sort" => Some(Workload::Sort),
            "query" => Some(Workload::Query),
            "oram" => Some(Workload::Oram),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sort => "sort",
            Workload::Query => "query",
            Workload::Oram => "oram",
        }
    }
}

/// SplitMix64 stream `stream` of workload seed `seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(hash64(seed, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }
}

/// Order-sensitive digest of a sequence of words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn add(&mut self, w: u64) {
        self.0 = splitmix64(self.0 ^ w).wrapping_add(w);
    }

    fn add_cells(&mut self, cells: &[Cell]) {
        for c in cells {
            match c {
                Some(e) => {
                    self.add(1);
                    self.add(e.key);
                    self.add(e.payload);
                }
                None => self.add(0),
            }
        }
    }

    fn of_trace(trace: Option<AccessTrace>) -> Digest {
        let mut d = Digest::default();
        for ev in trace.unwrap_or_default() {
            d.add(((ev.addr as u64) << 1) | matches!(ev.op, extmem::AccessOp::Write) as u64);
        }
        d
    }
}

/// CPU time of this process, all threads, exited ones included, from
/// `/proc/self/stat` (user plus system time in 10 ms ticks; time the host
/// stole from the virtual CPUs is not in it). 0 where `/proc` is missing.
pub fn cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

/// The machine's CPU time counters from the first line of `/proc/stat`,
/// summed over the CPUs, in ticks: `busy` is every state but idle and
/// iowait, `steal` the part of it the host of a virtual machine held
/// runnable virtual CPUs back. All 0 where `/proc` is missing.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    pub busy: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return HostCpu::default();
        };
        // "cpu user nice system idle iowait irq softirq steal ..."
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        if f.len() < 8 {
            return HostCpu::default();
        }
        HostCpu {
            busy: f[0] + f[1] + f[2] + f[5] + f[6] + f[7],
            steal: f[7],
        }
    }

    pub fn since(self, before: HostCpu) -> HostCpu {
        HostCpu {
            busy: self.busy.saturating_sub(before.busy),
            steal: self.steal.saturating_sub(before.steal),
        }
    }

    pub fn add(&mut self, other: HostCpu) {
        self.busy += other.busy;
        self.steal += other.steal;
    }

    /// The share of runnable CPU time the host held back.
    pub fn steal_share(self) -> f64 {
        if self.busy == 0 {
            0.0
        } else {
            self.steal as f64 / self.busy as f64
        }
    }
}

/// The bucket-sort seed of `sort` op `op`.
pub fn bucket_seed(seed: u64, op: u32) -> u64 {
    Rng::new(seed, STREAM_BUCKET ^ ((op as u64) << 8)).next_u64()
}

/// The seed the ORAM's salts and rebuild sorter derive from.
pub fn oram_seed(seed: u64) -> u64 {
    Rng::new(seed, STREAM_ORAM).next_u64()
}

/// What a rerun of a job, or its traced twin, must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    logical: IoStats,
    mac: IoStats,
    allocated_blocks: usize,
    output: Digest,
    trace: Digest,
}

impl Fingerprint {
    fn of(io: &Counters, output: Digest, trace: Digest) -> Self {
        Fingerprint {
            logical: io.logical,
            mac: io.mac,
            allocated_blocks: io.allocated_blocks,
            output,
            trace,
        }
    }
}

/// What one checked op did.
#[derive(Clone, Debug, Default)]
pub struct OpRecord {
    pub setup_ns: u64,
    /// Host CPU counters over the set-up.
    pub setup_host: HostCpu,
    pub wall_ns: u64,
    /// Host CPU counters over the timed region.
    pub host: HostCpu,
    /// Process CPU time over the timed region.
    pub cpu_ns: u64,
    /// Counters accumulated over the op; `allocated_blocks` after it.
    pub io: Counters,
    /// I/Os of each bench-side primitive call in the op.
    pub phases: Vec<(Name, u64)>,
    pub retries: u64,
    /// Digest of the op's checked output.
    pub output: Digest,
    /// Digest of the logical trace, when captured.
    pub trace: Digest,
    /// Why the op failed: a typed error or an oracle mismatch.
    pub error: Option<String>,
}

impl OpRecord {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.io, self.output, self.trace)
    }

    fn failed(setup_ns: u64, setup_host: HostCpu, error: String) -> Self {
        OpRecord {
            setup_ns,
            setup_host,
            error: Some(error),
            ..OpRecord::default()
        }
    }
}

enum Input {
    Sort(Vec<Element>),
    Query(Vec<Cell>),
}

fn input(w: Workload, seed: u64, op: u32) -> Input {
    let mut rng = Rng::new(seed, STREAM_INPUT ^ ((op as u64) << 8));
    match w {
        Workload::Sort => Input::Sort(
            (0..N)
                .map(|i| Element::new(rng.next_u64(), i as u64))
                .collect(),
        ),
        // Half the rows pass the filter; filtered-out rows are dummies.
        Workload::Query => Input::Query(
            (0..N)
                .map(|i| {
                    let keep = rng.next_u64() & 1 == 0;
                    let key = rng.next_u64();
                    keep.then(|| Element::new(key, i as u64))
                })
                .collect(),
        ),
        Workload::Oram => unreachable!("the oram workload has no batch input"),
    }
}

/// Runs op `op` of a `sort` or `query` workload on a fresh stack of type
/// `C` over the store file at `path` (created or truncated). With
/// `capture` the logical trace is digested; with `trace` spans are
/// recorded over the timed region.
pub fn batch_op<C: Client>(
    w: Workload,
    seed: u64,
    op: u32,
    path: &Path,
    capture: bool,
    trace: bool,
) -> OpRecord {
    let policy = RetryPolicy::default();
    let input = input(w, seed, op);
    let cells: Vec<Cell> = match &input {
        Input::Sort(items) => items.iter().copied().map(Some).collect(),
        Input::Query(cells) => cells.clone(),
    };

    let host0 = HostCpu::now();
    let t = Instant::now();
    let uploaded = C::open(path, B).and_then(|mut c| {
        let h = c.alloc_array(N);
        c.try_store_span(&h, 0, &cells)?;
        c.flush_writes()?;
        Ok((c, h))
    });
    let setup_ns = t.elapsed().as_nanos() as u64;
    let setup_host = HostCpu::now().since(host0);
    let (mut c, h) = match uploaded {
        Ok(v) => v,
        Err(e) => return OpRecord::failed(setup_ns, setup_host, format!("setup: {e}")),
    };

    if capture {
        c.enable_trace();
    }
    let mut phases = Vec::new();
    let mut retries = 0;
    let before = c.counters();
    spans::set_op(op);
    spans::set_enabled(trace);
    let cpu0 = cpu_ns();
    let host0 = HostCpu::now();
    let t = Instant::now();
    let result = (|| -> Result<Option<Element>, String> {
        let mut phase = |c: &mut C, name: Name, at: Counters| {
            phases.push((name, c.counters().since(&at).ios()));
        };
        let out = match &input {
            Input::Sort(_) => {
                let at = c.counters();
                let sorter = OblivSorter::bucket(bucket_seed(seed, op));
                let (_, r) = spans::op(Name::BucketSort, || {
                    sorter.try_sort(&mut c, &h, M, SortOrder::Ascending, policy)
                })
                .map_err(|e| format!("bucket sort: {e}"))?;
                phase(&mut c, Name::BucketSort, at);
                retries += r.retries;
                None
            }
            Input::Query(_) => {
                let at = c.counters();
                let (rep, r) = spans::op(Name::Compact, || try_compact(&mut c, &h, M, policy))
                    .map_err(|e| format!("compact: {e}"))?;
                phase(&mut c, Name::Compact, at);
                retries += r.retries;
                if rep.occupied == 0 {
                    return Err("compact: no row passed the filter".into());
                }
                let at = c.counters();
                let k = rep.occupied / 2;
                let (elem, _, r) =
                    spans::op(Name::Select, || try_select_kth(&mut c, &h, M, k, policy))
                        .map_err(|e| format!("select: {e}"))?;
                phase(&mut c, Name::Select, at);
                retries += r.retries;
                Some(elem)
            }
        };
        spans::op(Name::Flush, || c.flush_writes()).map_err(|e| format!("flush: {e}"))?;
        Ok(out)
    })();
    let wall_ns = t.elapsed().as_nanos() as u64;
    let host = HostCpu::now().since(host0);
    let cpu_ns = cpu_ns().saturating_sub(cpu0);
    spans::set_enabled(false);
    let io = c.counters().since(&before);
    let trace_digest = if capture {
        Digest::of_trace(c.take_trace())
    } else {
        Digest::default()
    };

    let mut rec = OpRecord {
        setup_ns,
        setup_host,
        wall_ns,
        host,
        cpu_ns,
        io,
        phases,
        retries,
        output: Digest::default(),
        trace: trace_digest,
        error: None,
    };
    match result {
        Err(e) => rec.error = Some(e),
        // The client reads its result back through the stack, after the
        // counters and the trace were taken.
        Ok(selected) => match c.try_load_span(&h, 0, N) {
            Err(e) => rec.error = Some(format!("read back: {e}")),
            Ok(out) => {
                rec.output.add_cells(&out);
                if let Some(e) = selected {
                    rec.output.add(e.key);
                    rec.output.add(e.payload);
                }
                rec.error = check(&input, &out, selected).err();
            }
        },
    }
    rec
}

/// The oracle: std sort for `sort`; `Vec::retain` order and a sort by key
/// (ties by position) for `query`.
fn check(input: &Input, out: &[Cell], selected: Option<Element>) -> Result<(), String> {
    match input {
        Input::Sort(items) => {
            let mut want = items.clone();
            want.sort_unstable();
            let got: Vec<Element> = out.iter().flatten().copied().collect();
            if out.len() != want.len() || got != want {
                return Err("sort: output differs from the std sort".into());
            }
        }
        Input::Query(cells) => {
            let mut survivors = cells.clone();
            survivors.retain(Option::is_some);
            let kept = survivors.len();
            if out[..kept] != survivors[..] || out[kept..].iter().any(Option::is_some) {
                return Err("compact: output differs from Vec::retain".into());
            }
            let mut order: Vec<usize> = (0..kept).collect();
            order.sort_by_key(|&i| (survivors[i].map(|e| e.key), i));
            let want = survivors[order[kept / 2]];
            if selected != want {
                return Err(format!("select: got {selected:?}, oracle says {want:?}"));
            }
        }
    }
    Ok(())
}

/// A warmed ORAM over a stack, with a `HashMap` mirror as its oracle.
pub struct OramClient<C: Client> {
    pub store: C,
    oram: Oram,
    mirror: HashMap<u64, u64>,
    requests: Rng,
    next_op: u32,
}

/// One whole rebuild cycle of accesses.
#[derive(Clone, Debug, Default)]
pub struct Cycle {
    /// Op id of the cycle's first access (spans are tagged per access).
    pub first_op: u32,
    pub lat_ns: Vec<u64>,
    /// Per access: whether it rebuilt levels.
    pub rebuilt: Vec<bool>,
    /// Process CPU time over the cycle.
    pub cpu_ns: u64,
    /// Host CPU counters over the cycle.
    pub host: HostCpu,
    pub io: Counters,
    pub retries: u64,
    pub attempted: u64,
    pub output: Digest,
    pub trace: Digest,
    pub error: Option<String>,
}

impl Cycle {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.io, self.output, self.trace)
    }
}

impl<C: Client> OramClient<C> {
    /// Builds the stack and the ORAM, writes every address once, then
    /// keeps accessing until the deepest level has been built, so every
    /// later cycle of `cycle_len()` accesses sees the same rebuild mix.
    /// Returns the client, the set-up time and the host CPU counters over
    /// it.
    pub fn setup(seed: u64, path: &Path) -> Result<(Self, u64, HostCpu), String> {
        let host0 = HostCpu::now();
        let t = Instant::now();
        let mut store = C::open(path, B).map_err(|e| format!("setup: {e}"))?;
        let cfg = OramConfig::new(ORAM_PERIOD, M, oram_seed(seed));
        let oram = Oram::new(&mut store, ORAM_N, &cfg);
        let mut client = OramClient {
            store,
            oram,
            mirror: HashMap::new(),
            requests: Rng::new(seed, STREAM_REQUESTS),
            next_op: 0,
        };
        let mut fill = Rng::new(seed, STREAM_FILL);
        for addr in 0..ORAM_N {
            let value = fill.next_u64() >> 1;
            client
                .oram
                .try_write(&mut client.store, addr, value, RetryPolicy::default())
                .map_err(|e| format!("setup fill: {e}"))?;
            client.mirror.insert(addr, value);
        }
        let warm = client.cycle_len() / ORAM_PERIOD as u64;
        let mut scratch = Cycle::default();
        while client.oram.flushes() < warm {
            client.access(&mut scratch);
            if let Some(e) = scratch.error {
                return Err(format!("setup warm-up: {e}"));
            }
        }
        let setup_ns = t.elapsed().as_nanos() as u64;
        Ok((client, setup_ns, HostCpu::now().since(host0)))
    }

    /// Accesses per rebuild cycle, `2^(L-1) · P`.
    pub fn cycle_len(&self) -> u64 {
        (ORAM_PERIOD as u64) << (self.oram.level_count() - 1)
    }

    /// One access: a uniform address, a write one time in three. The read
    /// value is checked against the mirror after the timed call.
    fn access(&mut self, cy: &mut Cycle) {
        let r = self.requests.next_u64();
        let addr = r % ORAM_N;
        let write = (r >> 32).is_multiple_of(3);
        let value = self.requests.next_u64() >> 1;
        let policy = RetryPolicy::default();
        let flushes = self.oram.flushes();
        spans::set_op(self.next_op);
        self.next_op += 1;
        cy.attempted += 1;
        let (oram, store) = (&mut self.oram, &mut self.store);
        let run = || {
            let res = if write {
                oram.try_write(store, addr, value, policy)
                    .map(|s| (None, s))
            } else {
                oram.try_read(store, addr, policy)
                    .map(|(v, s)| (Some(v), s))
            };
            (res, oram.flushes() != flushes)
        };
        let t = Instant::now();
        let (res, rebuilt) = spans::record(
            |r: &(_, bool)| if r.1 { Name::Rebuild } else { Name::Probe },
            Method::Op,
            0,
            run,
        );
        cy.lat_ns.push(t.elapsed().as_nanos() as u64);
        cy.rebuilt.push(rebuilt);
        match res {
            Err(e) => cy.error = Some(format!("access {addr}: {e}")),
            Ok((got, stats)) => {
                cy.retries += stats.retries;
                match got {
                    None => {
                        self.mirror.insert(addr, value);
                    }
                    Some(v) => {
                        cy.output.add(v);
                        let want = self.mirror.get(&addr).copied().unwrap_or(0);
                        if v != want {
                            cy.error = Some(format!("read {addr}: got {v}, mirror holds {want}"));
                        }
                    }
                }
            }
        }
    }

    /// Runs one whole cycle, stopping at the first failed access (a failed
    /// access poisons the ORAM client).
    pub fn cycle(&mut self, capture: bool, trace: bool) -> Cycle {
        let mut cy = Cycle {
            first_op: self.next_op,
            ..Cycle::default()
        };
        if capture {
            self.store.enable_trace();
        }
        let before = self.store.counters();
        let cpu0 = cpu_ns();
        let host0 = HostCpu::now();
        spans::set_enabled(trace);
        for _ in 0..self.cycle_len() {
            self.access(&mut cy);
            if cy.error.is_some() {
                break;
            }
        }
        spans::set_enabled(false);
        cy.cpu_ns = cpu_ns().saturating_sub(cpu0);
        cy.host = HostCpu::now().since(host0);
        cy.io = self.store.counters().since(&before);
        if capture {
            cy.trace = Digest::of_trace(self.store.take_trace());
        }
        cy
    }
}
