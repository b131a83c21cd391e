//! `odo-bench` binary: runs the sort, compaction, selection, fault-model
//! and ORAM benchmark families and writes `BENCH_sort.json` /
//! `BENCH_compact.json` / `BENCH_select.json` / `BENCH_faults.json` /
//! `BENCH_oram.json` into the current directory.
//!
//! Usage: `odo-bench [sort|compact|select|faults|oram|all] [--smoke]
//! [--no-wall-clock-gate]`
//!
//! * `cargo run --release -p odo-bench` — every family on the full default
//!   grid (from the repo root, so the JSON lands next to `Cargo.toml`).
//! * `cargo run --release -p odo-bench -- select` — one family only
//!   (`sort`, `compact`, `select`, `faults`, `oram`, or `all`).
//! * `--smoke` — the `N = 2^12` smoke grid: same emitter, same bound gates,
//!   cheap enough for every CI push (JSON goes to
//!   `target/BENCH_*.smoke.json`, outside the working tree's tracked files,
//!   so a smoke run never clobbers the full-grid numbers and never dirties a
//!   CI checkout).
//! * `--no-wall-clock-gate` — shared CI runners have noisy clocks: the
//!   prefetch wall-clock headline gates only warn, while every I/O-count and
//!   trace-parity gate stays hard.
//!
//! Anything else — an unknown option, an unknown family, a second family
//! name — prints the usage and exits with status 2 before anything runs.
//! A violated gate exits with status 1 after every selected family ran.

use odo_bench::{CompactBench, Family, FaultBench, OramBench, SelectBench, SortBench};

const USAGE: &str =
    "usage: odo-bench [sort|compact|select|faults|oram|all] [--smoke] [--no-wall-clock-gate]";

/// Runs one family (see [`run`]); returns whether every gate held.
type Runner = fn(&Args) -> bool;

/// Every family, in the order `all` runs them.
const FAMILIES: [(&str, Runner); 5] = [
    (SortBench::NAME, run::<SortBench>),
    (CompactBench::NAME, run::<CompactBench>),
    (SelectBench::NAME, run::<SelectBench>),
    (FaultBench::NAME, run::<FaultBench>),
    (OramBench::NAME, run::<OramBench>),
];

/// The parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    /// The family to run, or `"all"`.
    which: &'static str,
    /// Run the smoke grids.
    smoke: bool,
    /// Fail (rather than warn) on the wall-clock gates.
    wall_clock_gate: bool,
}

/// Parses the arguments after the program name, rejecting unknown options,
/// unknown families and more than one family.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        which: "all",
        smoke: false,
        wall_clock_gate: true,
    };
    let mut named = false;
    for arg in args {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--no-wall-clock-gate" => parsed.wall_clock_gate = false,
            opt if opt.starts_with('-') => return Err(format!("unknown option {opt:?}")),
            _ if named => return Err(format!("unexpected extra argument {arg:?}")),
            name => {
                parsed.which = FAMILIES
                    .iter()
                    .map(|f| f.0)
                    .chain(["all"])
                    .find(|&f| f == name)
                    .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
                named = true;
            }
        }
    }
    Ok(parsed)
}

/// Where a family's JSON goes: the tracked `BENCH_<name>.json` in the
/// current directory (the repo root) for full-grid runs, and
/// `target/BENCH_<name>.smoke.json` for smoke runs so a CI checkout stays
/// clean.
fn artifact_path(smoke: bool, name: &str) -> String {
    if smoke {
        std::fs::create_dir_all("target").expect("failed to create target/");
        format!("target/BENCH_{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    }
}

/// One family's run: measures its grid, prints its table, writes its JSON
/// and checks its gates. Returns whether every gate held.
fn run<F: Family>(args: &Args) -> bool {
    let mut rows = Vec::new();
    for point in F::grid(args.smoke) {
        eprintln!("{}: measuring {point:?}...", F::NAME);
        rows.extend(F::run(point, true));
    }
    print!("{}", F::table(&rows));
    let path = artifact_path(args.smoke, F::NAME);
    std::fs::write(&path, F::json(&rows)).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    println!("wrote {path}");
    let violations = F::gates(&rows, args.wall_clock_gate);
    for msg in &violations {
        eprintln!("{msg}");
    }
    violations.is_empty()
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("odo-bench: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let mut ok = true;
    for (name, run) in FAMILIES {
        if args.which == "all" || args.which == name {
            ok &= run(&args);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn arguments_parse_strictly() {
        let args = |which, smoke, wall_clock_gate| {
            Ok(Args {
                which,
                smoke,
                wall_clock_gate,
            })
        };
        assert_eq!(parse(&[]), args("all", false, true));
        assert_eq!(parse(&["oram", "--smoke"]), args("oram", true, true));
        assert_eq!(
            parse(&["--no-wall-clock-gate", "sort"]),
            args("sort", false, false)
        );
        assert_eq!(parse(&["all", "--smoke"]), args("all", true, true));
        // A typo must not silently run the full grid over the tracked files,
        // and a second family must not be silently dropped.
        assert!(parse(&["--smok"]).is_err());
        assert!(parse(&["-h"]).is_err());
        assert!(parse(&["sorts"]).is_err());
        assert!(parse(&["sort", "compact"]).is_err());
    }
}
