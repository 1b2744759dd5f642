//! Validates a `BENCH_<group>.json` file — every record must parse —
//! prints the host line it was measured on, and checks the gates
//! it is given. `scripts/verify.sh` runs it on every bench file it makes:
//!
//! ```text
//! bench_check --file /tmp/x/BENCH_kernels.json
//!     # every line must parse; exits 1 otherwise
//! bench_check --file ... --max-ratio conv2d_fwd_8x16x32x32:fma_ref:1.30
//!     # the median over rounds of the first record's sample divided by
//!     # the second's must be <= the bound
//! bench_check --file ... --max-peak 'planned_device/hmms:3300352'
//!     # the named record must carry peak_bytes <= the bound
//! bench_check --file ... --min-peak capacity/max_batch:18
//!     # the named record must carry peak_bytes >= the bound — for
//!     # records whose "bytes" are a count that must not shrink
//! bench_check --file ... --max-p99 overload/admitted_latency:10000000000
//!     # the named record must carry p99_ns <= the bound (ns)
//! ```
//!
//! A time is a reading of the host as much as of the code, so the one
//! gate on time is a ratio between two records of the same run, taken in
//! turn (`BenchGroup::bench_in_turn`): their samples line up round by
//! round, each round's quotient sees one host state, and the gate reads
//! the median quotient. Two records not sampled in turn (different turn
//! ids, or none) fail the gate. Bytes and counts are exact on any host
//! and are pinned as they are; `--max-p99` is for a bench's own deadline.
//!
//! Every flag takes comma-separated `name:bound` pairs (`--max-ratio`:
//! `name_a:name_b:ratio` triples); a missing record, or one without the
//! field its gate reads, fails the gate.

use scnn_bench::{parse_bench_file, Args, BenchRecord};

/// Reads a bench file and prints its host line; exits 1 on a malformed
/// line or an empty file.
fn load(path: &str) -> Vec<BenchRecord> {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| parse_bench_file(&text).map_err(|e| format!("{path}: {e}")));
    let (host, records) = parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if records.is_empty() {
        eprintln!("error: {path} contains no benchmark records");
        std::process::exit(1);
    }
    match host {
        Some(host) => println!("{host}"),
        None => println!("host: not recorded"),
    }
    records
}

/// The median over rounds of `a`'s sample divided by `b`'s, or `None`
/// unless one call sampled both, in the same non-zero number of rounds.
fn round_ratio(a: &BenchRecord, b: &BenchRecord) -> Option<f64> {
    if a.turn.is_none()
        || a.turn != b.turn
        || a.samples_ns.is_empty()
        || a.samples_ns.len() != b.samples_ns.len()
    {
        return None;
    }
    let mut q: Vec<f64> = a
        .samples_ns
        .iter()
        .zip(&b.samples_ns)
        .map(|(&x, &y)| x as f64 / y.max(1) as f64)
        .collect();
    q.sort_by(f64::total_cmp);
    Some(q[q.len() / 2])
}

fn main() {
    let args = Args::parse(&["file", "max-ratio", "max-peak", "min-peak", "max-p99"]);
    let Some(file) = args.str("file") else {
        eprintln!("usage: bench_check --file <BENCH_x.json> [--max-ratio a:b:r,...] [--max-peak|--min-peak|--max-p99 name:bound,...]");
        std::process::exit(2);
    };
    let fresh = load(file);
    println!("{file}: {} records parse", fresh.len());
    let find = |name: &str| fresh.iter().find(|r| r.name == name);

    let mut failed = false;
    for (name_a, name_b, bound) in parse_ratios(args.str("max-ratio")) {
        let (Some(a), Some(b)) = (find(&name_a), find(&name_b)) else {
            let missing = if find(&name_a).is_none() { &name_a } else { &name_b };
            eprintln!("GATE: `{missing}` (--max-ratio {name_a}:{name_b}) was not measured");
            failed = true;
            continue;
        };
        match round_ratio(a, b) {
            None => {
                eprintln!(
                    "GATE: `{name_a}` (turn {:?}, {} samples) and `{name_b}` (turn {:?}, {}) \
                     were not sampled in turn",
                    a.turn,
                    a.samples_ns.len(),
                    b.turn,
                    b.samples_ns.len()
                );
                failed = true;
            }
            Some(ratio) if ratio > bound => {
                eprintln!(
                    "GATE: `{name_a}` / `{name_b}` ratio {ratio:.3} exceeds the {bound} bound \
                     (medians {} ns vs {} ns)",
                    a.median_ns, b.median_ns
                );
                failed = true;
            }
            Some(ratio) => println!(
                "{name_a:<40} ratio {ratio:>7.3} <= {bound:<5} ok  (vs {name_b}; medians {} / {} ns)",
                a.median_ns, b.median_ns
            ),
        }
    }
    for (flag, is_max) in [("max-peak", true), ("min-peak", false), ("max-p99", true)] {
        let unit = if flag == "max-p99" { "ns (p99)" } else { "B" };
        for (name, bound) in parse_bounds(args.str(flag), flag) {
            let holds = |v: u128| if is_max { v <= bound } else { v >= bound };
            let value = find(&name).map(|r| if flag == "max-p99" { r.p99_ns } else { r.peak_bytes });
            match value {
                None => eprintln!("GATE: `{name}` (--{flag}) was not measured"),
                Some(None) => eprintln!("GATE: `{name}` carries no value for --{flag}"),
                Some(Some(v)) if holds(v) => {
                    let op = if is_max { "<=" } else { ">=" };
                    println!("{name:<40} {v:>12} {op} {bound:>12} {unit}  ok");
                    continue;
                }
                Some(Some(v)) => {
                    eprintln!("GATE: `{name}` reads {v} {unit}, past the --{flag} bound {bound}");
                }
            }
            failed = true;
        }
    }
    if failed {
        eprintln!("error: gate violated in {file}");
        std::process::exit(1);
    }
}

/// Parses `--max-ratio` specs: comma-separated `name_a:name_b:ratio`
/// triples; `None` → no gates. The ratio bound is a float (e.g. `1.0`).
fn parse_ratios(spec: Option<&str>) -> Vec<(String, String, f64)> {
    let Some(spec) = spec else {
        return Vec::new();
    };
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|triple| {
            let malformed = || -> ! {
                eprintln!("error: --max-ratio expects name_a:name_b:ratio triples, got `{triple}`");
                std::process::exit(2);
            };
            let Some((names, bound)) = triple.rsplit_once(':') else {
                malformed();
            };
            let Some((name_a, name_b)) = names.rsplit_once(':') else {
                malformed();
            };
            let Ok(bound) = bound.parse::<f64>() else {
                malformed();
            };
            if name_a.is_empty() || name_b.is_empty() || !bound.is_finite() || bound <= 0.0 {
                malformed();
            }
            (name_a.to_string(), name_b.to_string(), bound)
        })
        .collect()
}

/// Parses `name:bound[,name:bound...]` gate specs; `None` → no gates.
fn parse_bounds(spec: Option<&str>, flag: &str) -> Vec<(String, u128)> {
    let Some(spec) = spec else {
        return Vec::new();
    };
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let Some((name, bound)) = pair.rsplit_once(':') else {
                eprintln!("error: --{flag} expects name:bound pairs, got `{pair}`");
                std::process::exit(2);
            };
            let bound = bound.parse().unwrap_or_else(|e| {
                eprintln!("error: --{flag} bound in `{pair}` is not a number: {e}");
                std::process::exit(2);
            });
            (name.to_string(), bound)
        })
        .collect()
}
