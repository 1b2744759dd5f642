//! Validates a `BENCH_<group>.json` file and, optionally, gates median
//! regressions against a committed baseline. `scripts/verify.sh` uses it
//! two ways:
//!
//! ```text
//! bench_check --file /tmp/x/BENCH_kernels.json
//!     # every line must parse as a BenchRecord; exits 1 otherwise
//! bench_check --file /tmp/x/BENCH_kernels.json \
//!     --baseline BENCH_kernels.json --tolerance 0.25
//!     # additionally: any baseline benchmark whose fresh time is more
//!     # than 25% above the baseline median (or missing from the fresh
//!     # run) exits 1
//! ```
//!
//! The gated statistic is the **fastest fresh sample vs the baseline
//! median**: a genuine regression slows every sample, including the
//! fastest, while transient load on a shared host rarely contaminates
//! all of them — so min-vs-median keeps the gate sensitive to real
//! slowdowns without flaking on scheduler noise. The median is still
//! printed for context.
//!
//! Benchmarks present only in the fresh file are reported but never fail
//! the gate — adding a benchmark must not require touching the baseline
//! in the same commit.
//!
//! Absolute gates (independent of any baseline):
//!
//! ```text
//! bench_check --file ... --max-median conv2d_fwd_8x16x32x32:5600000
//!     # the named record's fresh median must be <= the bound (ns)
//! bench_check --file ... --max-peak 'train_step/hmms:15392768,conv2d_fwd_scratch_peak:1048576'
//!     # the named record must carry peak_bytes <= the bound
//! bench_check --file ... --min-peak capacity/max_batch/micro:17
//!     # the named record must carry peak_bytes >= the bound — for
//!     # records whose "bytes" are a count that must not shrink (e.g.
//!     # the capacity search's max batch)
//! bench_check --file ... --max-p99 serve_latency/c8:90000000
//!     # the named record must carry p99_ns <= the bound — for
//!     # latency-distribution records (serving tail latency)
//! bench_check --file ... \
//!     --max-ratio conv2d_fwd_8x16x32x32_winograd:conv2d_fwd_8x16x32x32:1.10
//!     # the first record's fresh median divided by the second's must be
//!     # <= the bound — a relative gate between two records of the SAME
//!     # fresh run, immune to host speed (pins e.g. "winograd within 10 %
//!     # of the direct path" without an absolute number)
//! ```
//!
//! All take comma-separated `name:bound` pairs (`--max-ratio`:
//! `name_a:name_b:ratio` triples); a missing record, a record without
//! `peak_bytes` (for `--max-peak`/`--min-peak`), or one without `p99_ns`
//! (for `--max-p99`) fails the gate.

use scnn_bench::{Args, BenchRecord};

/// Reads a JSON-lines bench file; exits 1 on the first malformed line.
fn load(path: &str) -> Vec<BenchRecord> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let records: Vec<BenchRecord> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            BenchRecord::from_json(line).unwrap_or_else(|e| {
                eprintln!("error: {path}:{}: {e}", i + 1);
                std::process::exit(1);
            })
        })
        .collect();
    if records.is_empty() {
        eprintln!("error: {path} contains no benchmark records");
        std::process::exit(1);
    }
    records
}

fn main() {
    let args = Args::parse(&[
        "file",
        "baseline",
        "tolerance",
        "max-median",
        "max-peak",
        "min-peak",
        "max-p99",
        "max-ratio",
    ]);
    let Some(file) = args.str("file") else {
        eprintln!("usage: bench_check --file <BENCH_x.json> [--baseline <BENCH_x.json>] [--tolerance 0.25]");
        std::process::exit(2);
    };
    let fresh = load(file);
    println!("{file}: {} records parse", fresh.len());

    let mut failed = false;
    for (name, bound) in parse_bounds(args.str("max-median"), "--max-median") {
        match fresh.iter().find(|r| r.name == name) {
            None => {
                eprintln!("GATE: `{name}` (--max-median) was not measured");
                failed = true;
            }
            Some(r) if r.median_ns > bound => {
                eprintln!(
                    "GATE: `{name}` median {} ns exceeds the {} ns bound",
                    r.median_ns, bound
                );
                failed = true;
            }
            Some(r) => {
                println!("{:<40} {:>12} ns  <= {:>12} ns  ok", name, r.median_ns, bound);
            }
        }
    }
    for (name, bound) in parse_bounds(args.str("max-peak"), "--max-peak") {
        match fresh.iter().find(|r| r.name == name) {
            None => {
                eprintln!("GATE: `{name}` (--max-peak) was not measured");
                failed = true;
            }
            Some(r) => match r.peak_bytes {
                None => {
                    eprintln!("GATE: `{name}` carries no peak_bytes to check");
                    failed = true;
                }
                Some(p) if p > bound => {
                    eprintln!("GATE: `{name}` peak {p} B exceeds the {bound} B bound");
                    failed = true;
                }
                Some(p) => {
                    println!("{:<40} {:>12} B   <= {:>12} B   ok", name, p, bound);
                }
            },
        }
    }

    for (name, bound) in parse_bounds(args.str("min-peak"), "--min-peak") {
        match fresh.iter().find(|r| r.name == name) {
            None => {
                eprintln!("GATE: `{name}` (--min-peak) was not measured");
                failed = true;
            }
            Some(r) => match r.peak_bytes {
                None => {
                    eprintln!("GATE: `{name}` carries no peak_bytes to check");
                    failed = true;
                }
                Some(p) if p < bound => {
                    eprintln!("GATE: `{name}` peak {p} B is below the {bound} B bound");
                    failed = true;
                }
                Some(p) => {
                    println!("{:<40} {:>12} B   >= {:>12} B   ok", name, p, bound);
                }
            },
        }
    }

    for (name, bound) in parse_bounds(args.str("max-p99"), "--max-p99") {
        match fresh.iter().find(|r| r.name == name) {
            None => {
                eprintln!("GATE: `{name}` (--max-p99) was not measured");
                failed = true;
            }
            Some(r) => match r.p99_ns {
                None => {
                    eprintln!("GATE: `{name}` carries no p99_ns to check");
                    failed = true;
                }
                Some(p) if p > bound => {
                    eprintln!("GATE: `{name}` p99 {p} ns exceeds the {bound} ns bound");
                    failed = true;
                }
                Some(p) => {
                    println!("{:<40} {:>12} ns  <= {:>12} ns  ok (p99)", name, p, bound);
                }
            },
        }
    }

    for (name_a, name_b, bound) in parse_ratios(args.str("max-ratio")) {
        let (a, b) = (
            fresh.iter().find(|r| r.name == name_a),
            fresh.iter().find(|r| r.name == name_b),
        );
        match (a, b) {
            (None, _) => {
                eprintln!("GATE: `{name_a}` (--max-ratio) was not measured");
                failed = true;
            }
            (_, None) => {
                eprintln!("GATE: `{name_b}` (--max-ratio) was not measured");
                failed = true;
            }
            (Some(a), Some(b)) => {
                let ratio = a.median_ns as f64 / b.median_ns.max(1) as f64;
                if ratio > bound {
                    eprintln!(
                        "GATE: `{name_a}` / `{name_b}` median ratio {ratio:.3} \
                         exceeds the {bound} bound ({} ns vs {} ns)",
                        a.median_ns, b.median_ns
                    );
                    failed = true;
                } else {
                    println!(
                        "{:<40} ratio {:.3} <= {}  ok  (vs {})",
                        name_a, ratio, bound, name_b
                    );
                }
            }
        }
    }

    let Some(baseline_path) = args.str("baseline") else {
        if failed {
            eprintln!("error: absolute gate violated in {file}");
            std::process::exit(1);
        }
        return;
    };
    let tolerance = args.f64("tolerance", 0.25);
    let baseline = load(baseline_path);

    for b in &baseline {
        match fresh.iter().find(|r| r.name == b.name) {
            None => {
                eprintln!("REGRESSION: `{}` is in the baseline but was not measured", b.name);
                failed = true;
            }
            Some(r) => {
                let ratio = r.min_ns as f64 / b.median_ns.max(1) as f64;
                let verdict = if ratio > 1.0 + tolerance {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{:<40} {:>12} -> {:>12} ns  (min {:>12}, {:+6.1}%)  {verdict}",
                    b.name,
                    b.median_ns,
                    r.median_ns,
                    r.min_ns,
                    (ratio - 1.0) * 100.0
                );
            }
        }
    }
    for r in &fresh {
        if !baseline.iter().any(|b| b.name == r.name) {
            println!("{:<40} {:>12} ns  (new, no baseline)", r.name, r.median_ns);
        }
    }
    if failed {
        eprintln!(
            "error: gate violated (regression beyond {:.0}% against {baseline_path}, \
             or an absolute --max-median/--max-peak/--min-peak/--max-p99/--max-ratio bound)",
            tolerance * 100.0
        );
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
                eprintln!("error: {flag} expects name:bound pairs, got `{pair}`");
                std::process::exit(2);
            };
            let bound = bound.parse().unwrap_or_else(|e| {
                eprintln!("error: {flag} bound in `{pair}` is not a number: {e}");
                std::process::exit(2);
            });
            (name.to_string(), bound)
        })
        .collect()
}
