//! Reduces op records and spans to the benchmark's metrics.

use std::collections::HashMap;

use crate::spans::{Method, Name, Span};
use crate::stack::Counters;
use crate::workloads::B;

/// Bytes per block on disk: `B` cells of occupancy word, key and payload.
const BLOCK_BYTES: f64 = (B * extmem::file::CELL_BYTES) as f64;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median of unsorted `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The latency at the highest percentile with at least ten samples beyond
/// it, as `(value, percentile, samples beyond)`. With fewer than 21
/// samples that percentile would fall at or below the median, so the
/// maximum is reported instead, with no sample beyond it.
pub fn tail(sorted: &[u64]) -> (u64, f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0, 0.0, 0);
    }
    let idx = if n >= 21 { n - 11 } else { n - 1 };
    (
        sorted[idx],
        100.0 * (idx + 1) as f64 / n as f64,
        n - idx - 1,
    )
}

#[derive(Clone, Copy, Default)]
struct Agg {
    calls: u64,
    dur_ns: u64,
    self_ns: u64,
    io_calls: u64,
    blocks_read: u64,
    blocks_written: u64,
}

/// Per-layer totals over the spans of a traced run.
pub struct Breakdown {
    /// `(name, on a reader thread)` → totals.
    aggs: HashMap<(Name, bool), Agg>,
    /// Time in write-behind flushes: span writes issued by the prefetch
    /// adapter into the auth layer.
    flush_ns: u64,
    /// Per op: summed duration of the op's root foreground spans.
    root_ns: HashMap<u32, u64>,
    pub spans: usize,
}

impl Breakdown {
    pub fn new(spans: &[Span]) -> Self {
        let base = spans.first().map_or(0, |s| s.id);
        let top = spans.last().map_or(0, |s| s.id);
        let mut child_ns = vec![0u64; (top - base) as usize + 1];
        for s in spans {
            if s.parent >= base {
                child_ns[(s.parent - base) as usize] += s.dur_ns();
            }
        }
        let mut aggs: HashMap<(Name, bool), Agg> = HashMap::new();
        let mut flush_ns = 0;
        let mut root_ns: HashMap<u32, u64> = HashMap::new();
        for s in spans {
            let a = aggs.entry((s.name, s.reader)).or_default();
            let dur = s.dur_ns();
            a.calls += 1;
            a.dur_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[(s.id - base) as usize]);
            if s.method.reads() || s.method.writes() {
                a.io_calls += 1;
            }
            if s.method.reads() {
                a.blocks_read += s.blocks as u64;
            }
            if s.method.writes() {
                a.blocks_written += s.blocks as u64;
            }
            if !s.reader && s.name == Name::Auth && s.method == Method::StoreRun {
                flush_ns += dur;
            }
            if !s.reader && s.parent == 0 {
                *root_ns.entry(s.op).or_default() += dur;
            }
        }
        Breakdown {
            aggs,
            flush_ns,
            root_ns,
            spans: spans.len(),
        }
    }

    fn get(&self, name: Name, reader: bool) -> Agg {
        self.aggs.get(&(name, reader)).copied().unwrap_or_default()
    }

    /// Op wall time not covered by any root span, summed over `walls`
    /// (`(op id, wall ns)` as timed by the bench).
    pub fn residual_ns(&self, walls: &[(u32, u64)]) -> f64 {
        walls
            .iter()
            .map(|&(op, wall)| wall as f64 - *self.root_ns.get(&op).unwrap_or(&0) as f64)
            .sum()
    }
}

/// Everything a traced run measured, per job.
pub struct Traced<'a> {
    pub breakdown: &'a Breakdown,
    /// Jobs (ops or ORAM accesses) the traced spans cover.
    pub jobs: u64,
    /// Counters summed over the traced jobs.
    pub io: Counters,
    /// Per primitive: total I/Os over the traced jobs.
    pub phase_ios: HashMap<Name, u64>,
    pub retries: u64,
    pub residual_ns: f64,
    /// Untraced and traced wall time of the same ops, for the overhead.
    pub untraced_ns: f64,
    pub traced_ns: f64,
    /// ORAM cycles the traced run covers (0 for the batch workloads).
    pub cycles: u64,
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let b = t.breakdown;
    let jobs = t.jobs.max(1) as f64;
    let per_job = |x: u64| x as f64 / jobs;
    let per_job_ms = |ns: u64| ms(ns as f64) / jobs;
    let mean_ms = |a: Agg| ratio(ms(a.dur_ns as f64), a.calls as f64);
    let mean_self_ms = |a: Agg| ratio(ms(a.self_ns as f64), a.calls as f64);
    let phase = |name: Name| {
        let a = b.get(name, false);
        let ios = *t.phase_ios.get(&name).unwrap_or(&0) as f64;
        (mean_ms(a), mean_self_ms(a), ratio(ios, a.calls as f64))
    };
    let (sort_ms, sort_self, sort_ios) = phase(Name::BucketSort);
    let (compact_ms, compact_self, compact_ios) = phase(Name::Compact);
    let (select_ms, select_self, select_ios) = phase(Name::Select);
    let probe = b.get(Name::Probe, false);
    let rebuild = b.get(Name::Rebuild, false);

    let pf = t.io.prefetch;
    let mac = t.io.mac.total();
    let prefetch = b.get(Name::Prefetch, false);
    let auth = b.get(Name::Auth, false);
    let auth_r = b.get(Name::Auth, true);
    let crypto = b.get(Name::Crypto, false);
    let crypto_r = b.get(Name::Crypto, true);
    let file = b.get(Name::File, false);
    let file_r = b.get(Name::File, true);
    let read = file.blocks_read + file_r.blocks_read;
    let written = file.blocks_written + file_r.blocks_written;
    let io_calls = (file.io_calls + file_r.io_calls) as f64;
    let arena = t.io.arena;

    [
        ("bucket_sort.ms", sort_ms, "ms"),
        ("bucket_sort.self_ms", sort_self, "ms"),
        ("bucket_sort.ios", sort_ios, "count"),
        ("compact.ms", compact_ms, "ms"),
        ("compact.self_ms", compact_self, "ms"),
        ("compact.ios", compact_ios, "count"),
        ("select.ms", select_ms, "ms"),
        ("select.self_ms", select_self, "ms"),
        ("select.ios", select_ios, "count"),
        ("oram.probe_ms", mean_ms(probe), "ms"),
        ("oram.probe_self_ms", mean_self_ms(probe), "ms"),
        ("oram.rebuild_ms", mean_ms(rebuild), "ms"),
        ("oram.rebuild_self_ms", mean_self_ms(rebuild), "ms"),
        (
            "oram.rebuilds",
            ratio(rebuild.calls as f64, t.cycles as f64),
            "count",
        ),
        ("prefetch.calls", per_job(prefetch.calls), "count"),
        ("prefetch.self_ms", per_job_ms(prefetch.self_ns), "ms"),
        ("prefetch.flush_ms", per_job_ms(b.flush_ns), "ms"),
        (
            "prefetch.hit_rate",
            ratio(pf.hits as f64, t.io.logical.reads as f64),
            "ratio",
        ),
        ("prefetch.hits", per_job(pf.hits), "count"),
        ("prefetch.misses", per_job(pf.misses), "count"),
        ("prefetch.steals", per_job(pf.steals), "count"),
        ("prefetch.waits", per_job(pf.waits), "count"),
        ("prefetch.write_spans", per_job(pf.write_spans), "count"),
        ("auth.calls", per_job(auth.calls), "count"),
        ("auth.self_ms", per_job_ms(auth.self_ns), "ms"),
        ("auth.reader_self_ms", per_job_ms(auth_r.self_ns), "ms"),
        ("auth.mac_ios", per_job(mac), "count"),
        (
            "auth.mac_io_share",
            ratio(mac as f64, t.io.ios() as f64),
            "ratio",
        ),
        (
            "auth.budget_high_water",
            t.io.budget_high_water as f64,
            "words",
        ),
        ("crypto.calls", per_job(crypto.calls), "count"),
        ("crypto.self_ms", per_job_ms(crypto.self_ns), "ms"),
        ("crypto.reader_self_ms", per_job_ms(crypto_r.self_ns), "ms"),
        ("file.calls", per_job(file.calls + file_r.calls), "count"),
        ("file.ms", per_job_ms(file.dur_ns), "ms"),
        ("file.reader_ms", per_job_ms(file_r.dur_ns), "ms"),
        (
            "file.blocks_per_call",
            ratio((read + written) as f64, io_calls),
            "count",
        ),
        ("file.bytes_read", per_job(read) * BLOCK_BYTES, "bytes"),
        (
            "file.bytes_written",
            per_job(written) * BLOCK_BYTES,
            "bytes",
        ),
        ("arena.reuse_rate", arena.reuse_rate(), "ratio"),
        ("arena.allocated", per_job(arena.allocated), "count"),
        ("arena.dropped", per_job(arena.dropped), "count"),
        ("retry.retries", per_job(t.retries), "count"),
        (
            "trace.overhead_pct",
            100.0 * (ratio(t.traced_ns, t.untraced_ns) - 1.0),
            "%",
        ),
        ("trace.residual_ms", ms(t.residual_ns) / jobs, "ms"),
        ("trace.spans", per_job(b.spans as u64), "count"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric { name, value, unit })
    .collect()
}
