//! One run of one workload of the client-store benchmark.
//!
//! ```text
//! perfbench --workload sort|query|oram --seed N --seconds S --trace 0|1 --stores F0,F1
//! ```
//!
//! The stacks keep their server blocks in the store files `F0` and `F1`,
//! which each stack creates or truncates when it opens them. The last
//! line of standard output is a JSON object with `correct`, `attempted`,
//! `failed`, `metrics` and `info`. `--trace 0` measures the end-to-end metrics on the plain stack;
//! `--trace 1` runs each op on the plain stack and then on the traced one,
//! asserts that both left the same logical trace, I/O counts and outputs,
//! and reduces the spans to per-layer metrics. `perfbench/run.py` wraps
//! this binary and adds what only the parent process can see.

#![forbid(unsafe_code)]

mod report;
mod spans;
mod stack;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, ms, per_layer, tail, Breakdown, Metric};
use stack::{Counters, Instrumented, Plain};
use workloads::{
    batch_op, bucket_seed, oram_seed, Cycle, Fingerprint, HostCpu, OpRecord, OramClient, Workload,
    B, N,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    /// Two store files; a workload that needs one uses the first.
    stores: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let stores: Vec<PathBuf> = get("--stores")?.split(',').map(PathBuf::from).collect();
    if stores.len() != 2 {
        return Err("--stores takes two comma-separated store files".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        stores,
    })
}

/// A run's result: the final JSON object.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks other than per-op failures (reproducibility, parity).
    broken: Vec<String>,
    /// The first few op errors, for the log.
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Preformatted JSON values.
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts `jobs` attempted jobs, the last of which failed with `error`
    /// if there is one.
    fn note(&mut self, jobs: u64, error: &Option<String>) {
        self.attempted += jobs;
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Records `what` as broken unless `b` reproduced `a` exactly.
    fn check_same(&mut self, what: &str, a: Fingerprint, b: Fingerprint) {
        if a != b {
            self.broken
                .push(format!("{what} did not reproduce: {a:?} vs {b:?}"));
        }
    }

    fn info(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.info.push((key, value.to_string()));
    }

    fn info_str(&mut self, key: &'static str, value: &str) {
        self.info.push((key, json_str(value)));
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let correct = self.failed == 0 && self.broken.is_empty() && self.attempted > 0;
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}, \"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {v}");
        }
        let errors: Vec<String> = self
            .broken
            .iter()
            .chain(&self.errors)
            .map(|e| json_str(e))
            .collect();
        let _ = write!(s, "}}, \"errors\": [{}]}}", errors.join(", "));
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Consecutive timed jobs: their wall times, the same net of host steal,
/// the process CPU time they took and the host CPU counters over them.
struct Group<'a> {
    lat_ns: &'a [u64],
    net_ns: Vec<u64>,
    cpu_ns: u64,
    host: HostCpu,
}

/// Wall time `ns` less the host steal over it: scaled by the share of
/// runnable CPU time the host did not hold back (`host`, read over the
/// same stretch), the share taken `weight` times. This is what the job
/// takes when the host runs this machine's virtual CPUs whenever they are
/// runnable.
fn net_of_steal(ns: u64, host: HostCpu, weight: f64) -> u64 {
    (ns as f64 * (1.0 - weight * host.steal_share())) as u64
}

/// The weight of the cycle's steal share on an ORAM probe. A probe is too
/// short to be stolen from itself, but a host busy enough to steal also
/// slows it. Over five sets of ten runs with steal shares from 0 to 0.53,
/// half the share kept the sets' probe medians within 12 % of each other;
/// the whole share took off up to 33 % too much, and none left up to 20 %.
const PROBE_STEAL_WEIGHT: f64 = 0.5;

/// The timing metrics of a run from its timed jobs in consecutive
/// `groups` and the share of jobs that succeeded. Latencies are net of
/// host steal. The median and the tail are over every job. The worst job,
/// the throughput and the CPU time per job (printed, not a metric) are
/// taken in each group and reported as the median over the groups. The
/// same figures with steal left in are printed as `raw_*`.
fn timing_metrics(out: &mut Outcome, groups: &[Group], ok_share: f64) {
    let per_group =
        |f: &dyn Fn(usize) -> f64| -> f64 { median(&(0..groups.len()).map(f).collect::<Vec<_>>()) };
    for raw in [false, true] {
        let lat: Vec<&[u64]> = groups
            .iter()
            .map(|g| if raw { g.lat_ns } else { &g.net_ns[..] })
            .collect();
        let mut sorted: Vec<u64> = lat.concat();
        sorted.sort_unstable();
        let all: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
        let (tail_ns, pct, beyond) = tail(&sorted);
        let p50 = ms(median(&all));
        let tail_ms = ms(tail_ns as f64);
        let thr = per_group(&|i| {
            ok_share * lat[i].len() as f64 * 1e9 / lat[i].iter().sum::<u64>().max(1) as f64
        });
        let stall = per_group(&|i| ms(*lat[i].iter().max().unwrap_or(&0) as f64));
        if raw {
            out.info("raw_latency_p50_ms", p50);
            out.info("raw_latency_tail_ms", tail_ms);
            out.info("raw_throughput_ops_s", thr);
            out.info("raw_stall_ms_max", stall);
        } else {
            out.metric("latency_p50_ms", p50, "ms");
            out.metric("latency_tail_ms", tail_ms, "ms");
            out.metric("throughput_ops_s", thr, "1/s");
            out.metric("stall_ms_max", stall, "ms");
            out.info("samples", all.len());
            out.info("tail_percentile", pct);
            out.info("tail_samples_beyond", beyond);
        }
    }
    out.info(
        "cpu_ms_per_op",
        per_group(&|i| ms(groups[i].cpu_ns as f64) / groups[i].lat_ns.len().max(1) as f64),
    );
    let mut host = HostCpu::default();
    for g in groups {
        host.add(g.host);
    }
    out.info("steal_share", host.steal_share());
    out.info("groups", groups.len());
}

/// `sort`/`query` ops per group of consecutive ops in `stall_ms_max`,
/// `throughput_ops_s` and `cpu_ms_per_op`. A trailing partial group joins
/// the last full one, so every timed op counts.
const GROUP_OPS: usize = 4;

/// `n` jobs cut into groups of `GROUP_OPS`, the remainder in the last.
fn group_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / GROUP_OPS).max(1);
    let end = |i: usize| {
        if i + 1 == count {
            n
        } else {
            (i + 1) * GROUP_OPS
        }
    };
    (0..count).map(|i| i * GROUP_OPS..end(i)).collect()
}

/// Seconds of `--seconds` per measured ORAM cycle. A run measures a fixed
/// number of cycles rather than cycles until the time is up: server space,
/// and with it client memory and per-access bookkeeping, grows with every
/// cycle, and the tail percentile falls on a rebuild level that depends on
/// the cycle count, so a time-bound count would let machine speed move
/// them.
const ORAM_SECONDS_PER_CYCLE: f64 = 4.0;

fn user_blocks(w: Workload) -> f64 {
    match w {
        Workload::Oram => (workloads::ORAM_N as usize).div_ceil(B) as f64,
        _ => N.div_ceil(B) as f64,
    }
}

/// `setup_s`: the median set-up time net of host steal, over `setups` of
/// `(wall ns, host CPU counters)`. One set-up can be too short to read
/// the steal share over, so the share over all of them is applied.
fn setup_metric(out: &mut Outcome, setups: Vec<(u64, HostCpu)>) {
    let mut host = HostCpu::default();
    setups.iter().for_each(|&(_, h)| host.add(h));
    let secs = |f: &dyn Fn(u64) -> u64| {
        median(
            &setups
                .iter()
                .map(|&(w, _)| f(w) as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    out.metric("setup_s", secs(&|w| net_of_steal(w, host, 1.0)), "s");
    out.info("raw_setup_s", secs(&|w| w));
    out.info("setups", setups.len());
}

/// Untraced `sort`/`query`: op 0 once to warm the process up, then
/// fresh-stack ops 0, 1, 2, ... until the time is up. The timed op 0
/// reruns the warm-up with the same seed and must reproduce it.
fn batch_untraced(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let store = &a.stores[0];
    let warm = batch_op::<Plain>(a.workload, a.seed, 0, store, false, false);
    out.note(1, &warm.error);
    let start = Instant::now();
    let mut recs: Vec<OpRecord> = Vec::new();
    while recs.is_empty() || start.elapsed() < a.seconds {
        let op = recs.len() as u32;
        let rec = batch_op::<Plain>(a.workload, a.seed, op, store, false, false);
        out.note(1, &rec.error);
        recs.push(rec);
    }
    let first = &recs[0];
    out.check_same(
        "op 0, rerun with the same seed,",
        warm.fingerprint(),
        first.fingerprint(),
    );

    let ok = recs.iter().filter(|r| r.error.is_none()).count() as u64;
    let lat: Vec<u64> = recs.iter().map(|r| r.wall_ns).collect();
    let groups: Vec<Group> = group_ranges(recs.len())
        .into_iter()
        .map(|g| {
            let mut host = HostCpu::default();
            recs[g.clone()].iter().for_each(|r| host.add(r.host));
            Group {
                lat_ns: &lat[g.clone()],
                net_ns: recs[g.clone()]
                    .iter()
                    .map(|r| net_of_steal(r.wall_ns, r.host, 1.0))
                    .collect(),
                cpu_ns: recs[g].iter().map(|r| r.cpu_ns).sum(),
                host,
            }
        })
        .collect();
    timing_metrics(&mut out, &groups, ok as f64 / recs.len() as f64);
    out.metric("ios_per_op", first.io.ios() as f64, "count");
    out.metric(
        "space_amp",
        first.io.allocated_blocks as f64 / user_blocks(a.workload),
        "ratio",
    );
    setup_metric(
        &mut out,
        recs.iter().map(|r| (r.setup_ns, r.setup_host)).collect(),
    );
    out.info("ops", recs.len());
    if a.workload == Workload::Sort {
        out.info_str(
            "bucket_seed_rule",
            "bucket_seed(seed, op): SplitMix64 stream 2 ^ (op << 8)",
        );
        out.info("bucket_seed_op0", bucket_seed(a.seed, 0));
    }
    out
}

/// Traced `sort`/`query`: after a warm-up op, each op on the plain stack,
/// then on the traced one; both must leave the same logical trace, counts
/// and output.
fn batch_traced(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let store = &a.stores[0];
    let warm = batch_op::<Plain>(a.workload, a.seed, 0, store, false, false);
    out.note(1, &warm.error);
    let start = Instant::now();
    let mut pairs: Vec<(OpRecord, OpRecord)> = Vec::new();
    while pairs.is_empty() || (start.elapsed() < a.seconds && spans::room_for(pairs.len())) {
        let op = pairs.len() as u32;
        let plain = batch_op::<Plain>(a.workload, a.seed, op, store, true, false);
        let traced = batch_op::<Instrumented>(a.workload, a.seed, op, store, true, true);
        out.note(1, &plain.error);
        out.note(1, &traced.error);
        if plain.error.is_none() && traced.error.is_none() {
            let what = format!("op {op}, traced,");
            out.check_same(&what, plain.fingerprint(), traced.fingerprint());
        }
        pairs.push((plain, traced));
    }
    let spans = spans::take_all();
    let breakdown = Breakdown::new(&spans);
    let mut io = Counters::default();
    let mut phase_ios: HashMap<spans::Name, u64> = HashMap::new();
    let mut walls = Vec::new();
    let mut retries = 0;
    for (op, (_, t)) in pairs.iter().enumerate() {
        io.add(&t.io);
        for &(name, ios) in &t.phases {
            *phase_ios.entry(name).or_default() += ios;
        }
        walls.push((op as u32, t.wall_ns));
        retries += t.retries;
    }
    let traced = report::Traced {
        breakdown: &breakdown,
        jobs: pairs.len() as u64,
        io,
        phase_ios,
        retries,
        residual_ns: breakdown.residual_ns(&walls),
        untraced_ns: pairs.iter().map(|(u, _)| u.wall_ns as f64).sum(),
        traced_ns: pairs.iter().map(|(_, t)| t.wall_ns as f64).sum(),
        cycles: 0,
    };
    out.metrics = per_layer(&traced);
    out.info("ops", pairs.len());
    out.info("spans", spans.len());
    out
}

fn oram_setup<C: stack::Client>(
    a: &Args,
    store: &Path,
    out: &mut Outcome,
) -> Option<(OramClient<C>, (u64, HostCpu))> {
    match OramClient::<C>::setup(a.seed, store) {
        Ok((client, setup_ns, host)) => Some((client, (setup_ns, host))),
        Err(e) => {
            out.note(1, &Some(e));
            None
        }
    }
}

/// Sets up an ORAM and runs `count` whole cycles on it.
fn oram_session(a: &Args, count: usize, out: &mut Outcome) -> Option<((u64, HostCpu), Vec<Cycle>)> {
    let (mut client, setup) = oram_setup::<Plain>(a, &a.stores[0], out)?;
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.len() < count {
        let cy = client.cycle(false, false);
        out.note(cy.attempted, &cy.error);
        let stop = cy.error.is_some();
        cycles.push(cy);
        if stop {
            break;
        }
    }
    Some((setup, cycles))
}

/// Untraced `oram`: two ORAMs set up with the same seed, one after the
/// other over the same store file, run the same number of whole cycles.
/// The second one's first cycle must reproduce the first one's I/O count,
/// space and read results.
fn oram_untraced(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cycles = (a.seconds.as_secs_f64() / ORAM_SECONDS_PER_CYCLE).round() as usize;
    let per_session = cycles.div_ceil(2).max(1);
    let Some((setup_a, mut cycles)) = oram_session(a, per_session, &mut out) else {
        return out;
    };
    // Rebuild sorts allocate fresh scratch arrays, so server space grows
    // by a fixed amount every cycle; space_amp is taken after the first.
    if let [first, .., last] = &cycles[..] {
        let grown = last.io.allocated_blocks - first.io.allocated_blocks;
        out.info("server_blocks_growth_per_cycle", grown / (cycles.len() - 1));
    }
    let mut setups = vec![setup_a];
    if let Some((setup_b, rerun)) = oram_session(a, per_session, &mut out) {
        setups.push(setup_b);
        let what = "the first cycle, rerun with the same seed,";
        out.check_same(what, cycles[0].fingerprint(), rerun[0].fingerprint());
        cycles.extend(rerun);
    }

    let groups: Vec<Group> = cycles
        .iter()
        .map(|c| Group {
            lat_ns: &c.lat_ns,
            net_ns: c
                .lat_ns
                .iter()
                .zip(&c.rebuilt)
                .map(|(&x, &rebuilt)| {
                    let weight = if rebuilt { 1.0 } else { PROBE_STEAL_WEIGHT };
                    net_of_steal(x, c.host, weight)
                })
                .collect(),
            cpu_ns: c.cpu_ns,
            host: c.host,
        })
        .collect();
    let accesses: usize = cycles.iter().map(|c| c.lat_ns.len()).sum();
    let failed = cycles.iter().filter(|c| c.error.is_some()).count();
    timing_metrics(
        &mut out,
        &groups,
        1.0 - failed as f64 / accesses.max(1) as f64,
    );
    let first = &cycles[0];
    let cycle_len = first.lat_ns.len().max(1) as f64;
    out.metric("ios_per_op", first.io.ios() as f64 / cycle_len, "count");
    out.metric(
        "space_amp",
        first.io.allocated_blocks as f64 / user_blocks(a.workload),
        "ratio",
    );
    setup_metric(&mut out, setups);
    out.info("cycles", cycles.len());
    out.info("cycle_accesses", first.lat_ns.len());
    out.info("oram_seed", oram_seed(a.seed));
    out
}

/// Traced `oram`: a plain and a traced ORAM set up with the same seed run
/// the same cycles; each traced cycle must match its plain twin.
fn oram_traced(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some((mut plain, _)) = oram_setup::<Plain>(a, &a.stores[0], &mut out) else {
        return out;
    };
    let Some((mut traced, _)) = oram_setup::<Instrumented>(a, &a.stores[1], &mut out) else {
        return out;
    };
    let start = Instant::now();
    let mut pairs: Vec<(Cycle, Cycle)> = Vec::new();
    while pairs.is_empty() || (start.elapsed() < a.seconds && spans::room_for(pairs.len())) {
        let u = plain.cycle(true, false);
        let t = traced.cycle(true, true);
        out.note(u.attempted, &u.error);
        out.note(t.attempted, &t.error);
        let stop = u.error.is_some() || t.error.is_some();
        if !stop {
            let what = format!("cycle {}, traced,", pairs.len());
            out.check_same(&what, u.fingerprint(), t.fingerprint());
        }
        pairs.push((u, t));
        if stop {
            break;
        }
    }
    drop(plain);
    drop(traced);

    let spans = spans::take_all();
    let breakdown = Breakdown::new(&spans);
    let mut io = Counters::default();
    let mut walls = Vec::new();
    let mut retries = 0;
    for (_, t) in &pairs {
        io.add(&t.io);
        retries += t.retries;
        walls.extend(
            t.lat_ns
                .iter()
                .enumerate()
                .map(|(i, &ns)| (t.first_op + i as u32, ns)),
        );
    }
    let jobs: u64 = pairs.iter().map(|(_, t)| t.lat_ns.len() as u64).sum();
    let traced = report::Traced {
        breakdown: &breakdown,
        jobs,
        io,
        phase_ios: HashMap::new(),
        retries,
        residual_ns: breakdown.residual_ns(&walls),
        untraced_ns: pairs
            .iter()
            .flat_map(|(u, _)| &u.lat_ns)
            .map(|&x| x as f64)
            .sum(),
        traced_ns: pairs
            .iter()
            .flat_map(|(_, t)| &t.lat_ns)
            .map(|&x| x as f64)
            .sum(),
        cycles: pairs.len() as u64,
    };
    out.metrics = per_layer(&traced);
    out.info("cycles", pairs.len());
    out.info("spans", spans.len());
    out.info("oram_seed", oram_seed(a.seed));
    out
}

fn run(a: &Args) -> Outcome {
    let mut out = match (a.workload, a.trace) {
        (Workload::Oram, false) => oram_untraced(a),
        (Workload::Oram, true) => oram_traced(a),
        (_, false) => batch_untraced(a),
        (_, true) => batch_traced(a),
    };
    out.info_str("workload", a.workload.name());
    out.info("seed", a.seed);
    out.info(
        "prefetch_workers",
        extmem::PrefetchConfig::default().workers,
    );
    out.info_str("stack", "Prefetching(Auth(Encrypted(FileStore)))");
    let stores: Vec<String> = a.stores.iter().map(|p| p.display().to_string()).collect();
    out.info_str("stores", &stores.join(","));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
