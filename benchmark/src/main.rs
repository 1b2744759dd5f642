//! The repo benchmark. One command runs one named workload for a fixed op
//! count, checks its outputs and prints every metric with its unit; the
//! last line of standard output is the JSON summary the driver reads.
//!
//! ```text
//! scnn-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! scnn-benchmark --compare A.json[,A2.json…] B.json[,B2.json…] [--max-spread X]
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with tracing off.
//! `--trace 1` runs a shorter, span-recording pass of the workload plus the
//! per-layer probes, writes a Chrome trace under `benchmark/out/`, and
//! reports the per-layer metrics. See README.md for every definition.

mod compare;
mod host;
mod json;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use spec::{Values, WORKLOADS};

/// What a workload run hands back.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
}

/// Fixed work per second of `--seconds`, per workload: the op count is a
/// function of the flag alone, never of how fast the host happens to be.
/// Sized so the timed ops take about `--seconds` on the reference host
/// (≈ 0.33 s per training step, ≈ 6.3 ms per closed-loop request).
const TRAIN_STEPS_PER_S: f64 = 3.0;
const C1_REQUESTS_PER_S: f64 = 160.0;
const BURSTS_PER_S: f64 = 10.0;

/// The traced run spends its time on probes; its pass over the workload is
/// this fraction of the untraced op count.
const TRACED_WORKLOAD_SHARE: f64 = 1.0 / 3.0;

/// Where the traced run leaves its Chrome trace (and the socket probe its
/// socket): `benchmark/out/` of the checkout the binary was built in.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Set-up repetitions for the end-to-end run (README, "setup_s"): at least
/// 8 and at least 2.5 s of them, so that a 35 ms serving set-up is repeated
/// about 70 times; then until the fastest three agree, at most 20.
const SETUP_REPS: stats::SetupReps = stats::SetupReps {
    min: 8,
    cap: 20,
    min_spend_s: 2.5,
};

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: scnn-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
         \x20      scnn-benchmark --compare A.json[,A2.json...] B.json[,B2.json...] [--max-spread X]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 24.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = value(),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cli.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()),
            _ => usage(),
        }
    }
    let seconds_ok = cli.seconds > 0.0 && cli.seconds <= 3600.0;
    if !WORKLOADS.contains(&cli.workload.as_str()) || !seconds_ok {
        usage();
    }
    cli
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b, None),
            [_, a, b, flag, limit] if flag == "--max-spread" => {
                compare::run(a, b, Some(limit.parse().unwrap_or_else(|_| usage())))
            }
            _ => usage(),
        };
    }
    let cli = parse_cli(&args);
    let threads = host::worker_threads();
    println!(
        "scnn-benchmark  workload {}  seed {}  seconds {}  trace {}{}  nproc {}  scnn_par threads {}",
        cli.workload,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        if cli.smoke { "  smoke" } else { "" },
        host::nproc(),
        threads
    );
    // The override is thread-local: it covers every parallel region entered
    // from this thread; the server's replicas get it via `worker_threads`.
    let outcome = split_cnn::par::with_threads(threads, || run_workload(&cli));

    let contract = spec::contract();
    let table = spec::entries(&contract, table_of(cli.trace));
    let listed = |name: &str| table.iter().any(|m| spec::field(m, "name") == name);
    println!("\n{:<40} {:>20}  unit", "metric", "value");
    for (name, value) in outcome.values.iter().filter(|(n, _)| !listed(n)) {
        println!("{name:<40} {value:>20.6}  (diagnostic)");
    }
    let mut metrics = Vec::new();
    for entry in table {
        let (name, unit) = (spec::field(entry, "name"), spec::field(entry, "unit"));
        let Some(value) = outcome.values.get(name).filter(|v| v.is_finite()) else {
            eprintln!("error: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        println!("{name:<40} {value:>20.6}  {unit}");
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    if let Some(path) = &cli.out {
        let record = Json::obj(vec![
            ("workload", Json::Str(cli.workload.clone())),
            ("seed", Json::Num(cli.seed as f64)),
            ("seconds", Json::Num(cli.seconds)),
            ("trace", Json::Bool(cli.trace)),
            ("result", result.clone()),
        ]);
        if let Err(e) = std::fs::write(path, record.encode() + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.encode());
    ExitCode::SUCCESS
}

/// The list of `BENCHMARK.json` a run reports: every end-to-end metric
/// untraced, every per-layer metric traced.
fn table_of(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn ops(seconds: f64, per_second: f64, traced: bool) -> usize {
    let share = if traced { TRACED_WORKLOAD_SHARE } else { 1.0 };
    ((seconds * per_second * share).round() as usize).max(8)
}

fn run_workload(cli: &Cli) -> Outcome {
    let split_hmms = cli.workload == "train_split_hmms";
    let open = cli.workload == "serve_open_burst8";
    let mut outcome = if cli.workload.starts_with("train_") {
        let cfg = if cli.smoke {
            train::TrainCfg::smoke()
        } else {
            train::TrainCfg::full(ops(cli.seconds, TRAIN_STEPS_PER_S, cli.trace))
        };
        println!(
            "info   {} SGD steps, ResNet-18 cifar width {}, batch {}",
            cfg.steps, cfg.width, cfg.batch
        );
        train::run(split_hmms, &cfg, cli.seed, cli.trace, setup_reps(cli))
    } else {
        let cfg = if cli.smoke {
            serve::ServeCfg::smoke()
        } else {
            serve::ServeCfg::full(
                ops(cli.seconds, C1_REQUESTS_PER_S, cli.trace),
                ops(cli.seconds, BURSTS_PER_S, cli.trace),
            )
        };
        if open {
            println!(
                "info   open loop: {} bursts of {} requests, one every {:?}; split ResNet-18 width {}",
                cfg.bursts, cfg.burst, cfg.period, cfg.width
            );
        } else {
            println!(
                "info   closed loop: 1 client, {} requests; split ResNet-18 width {}",
                cfg.requests, cfg.width
            );
        }
        serve::run(open, &cfg, cli.seed, cli.trace, setup_reps(cli))
    };
    if cli.trace {
        // Probes fill every per-layer metric; what the traced pass over the
        // workload measured itself (serve.*, host.*, trace.*) wins.
        trace::set_op(0);
        trace::set_enabled(true);
        let mut values = probes::run(cli.smoke, cli.seed);
        trace::set_enabled(false);
        values.extend(std::mem::take(&mut outcome.values));
        outcome.values = values;
        report_spans(&trace::take_spans(), &cli.workload, cli.seed);
    }
    outcome
}

/// The traced run reports set-up time but is not judged on it: three
/// repetitions keep it short.
fn setup_reps(cli: &Cli) -> stats::SetupReps {
    if cli.trace || cli.smoke {
        stats::SetupReps {
            min: 3,
            cap: 3,
            min_spend_s: 0.0,
        }
    } else {
        SETUP_REPS
    }
}

fn report_spans(spans: &[trace::Span], workload: &str, seed: u64) {
    println!(
        "\n{:<28} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in trace::self_times(spans) {
        println!("{name:<28} {count:>8} {total:>14.3} {own:>14.3}");
    }
    let dir = std::path::Path::new(OUT_DIR);
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(spans).encode()))
    {
        Ok(()) => println!("info   {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("info   chrome trace not written ({}: {e})", path.display()),
    }
}

/// Prints whether a byte metric still reads what it read when the
/// benchmark was defined. Information, not a failure: later PRs are meant
/// to move these.
pub fn report_moved(name: &str, now: f64, today: f64) {
    if now == today {
        println!("info   {name} = {now} B, unchanged since the benchmark was defined");
    } else {
        println!(
            "info   {name} MOVED: {now} B now, {today} B when the benchmark was defined ({:+.2} %)",
            (now / today - 1.0) * 100.0
        );
    }
}

/// One timed op as a load loop recorded it.
#[derive(Clone, Copy)]
pub struct OpSample {
    pub ms: f64,
    /// Seconds from the window's opening to the op's end.
    pub end_s: f64,
    /// Whether the op recorded spans (traced pass only).
    pub traced: bool,
}

/// Fixed work has one exception: a loop stops once its window has been open
/// this long. The driver gives a run 180 s, and a host stall (2.4x for ten
/// minutes while this was sized; README, "Noise") must not push one past it.
const MAX_WINDOW_S: f64 = 90.0;

/// The stretch of a run in which its ops are timed.
pub struct RunWindow {
    start: Instant,
    sched_before: (u64, u64),
    ticks_before: (u64, u64),
}

impl RunWindow {
    pub fn open() -> Self {
        RunWindow {
            start: Instant::now(),
            sched_before: host::sched_totals(),
            ticks_before: host::busy_and_steal_ticks(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether a loop may start another op; says so when it may not.
    pub fn has_time(&self, done: usize, planned: usize) -> bool {
        let ok = self.elapsed_s() < MAX_WINDOW_S;
        if !ok {
            println!("info   CUT SHORT after {done} of {planned} ops: the window has been open {MAX_WINDOW_S} s");
        }
        ok
    }

    /// Call right after the last op. Records what every workload derives
    /// from its ops the same way: `op_ms_fast`, `peak_rss_bytes` (read here,
    /// before reference runs and set-up repetitions can raise it), the
    /// `host.*` instrument-health diagnostics (printed by untraced runs too:
    /// `host.steal_share` says when a reading is the hypervisor's) and, when some ops recorded
    /// spans, `trace.overhead_ratio`.
    pub fn close(self, values: &mut Values, ops: &[OpSample], items_per_op: f64) {
        let wall_s = self.elapsed_s();
        let wait_share = host::runqueue_wait_share(self.sched_before, host::sched_totals());
        values.set("peak_rss_bytes", host::peak_rss_bytes() as f64);
        values.set(
            "host.steal_share",
            host::steal_share(self.ticks_before, host::busy_and_steal_ticks()),
        );

        let op_ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
        let ends_s: Vec<f64> = ops.iter().map(|o| o.end_s).collect();
        let durs_s: Vec<f64> = op_ms.iter().map(|m| m / 1e3).collect();
        let (p50, floor) = (stats::median(&op_ms), stats::fast(&op_ms));
        values.set("op_ms_fast", floor);
        values.set("host.op_ms_p50", p50);
        values.set("host.p50_over_fast", p50 / floor);
        values.set(
            "host.items_per_s_mean",
            ops.len() as f64 * items_per_op / wall_s,
        );
        values.set(
            "host.items_per_s_window",
            stats::best_window_rate(&ends_s, &durs_s, items_per_op),
        );
        values.set("host.runqueue_wait_share", wait_share);
        if ops.iter().any(|o| o.traced) {
            let side = |on: bool| {
                let picked: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.traced == on)
                    .map(|o| o.ms)
                    .collect();
                stats::fast(&picked)
            };
            values.set("trace.overhead_ratio", side(true) / side(false));
        }
    }
}

/// `setup_s`: the caller's own first set-up plus repetitions of `one` on
/// fresh instances, until the fastest three agree (see [`stats::adaptive_floor`]).
pub fn measure_setup(
    values: &mut Values,
    first_s: f64,
    reps: stats::SetupReps,
    one: impl FnMut() -> f64,
) {
    let (setup_s, samples) = stats::adaptive_floor(Some(first_s), reps, 0.03, one);
    let all: Vec<String> = samples.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "info   set-up: {} repetitions, fastest three average {setup_s:.4} s (all: {})",
        samples.len(),
        all.join(" ")
    );
    values.set("setup_s", setup_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_workloads_the_binary_runs_and_a_set_up_time() {
        let doc = spec::contract();
        let listed: Vec<&str> = spec::entries(&doc, "workloads")
            .iter()
            .map(|w| spec::field(w, "name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
        assert!(spec::entries(&doc, "end_to_end")
            .iter()
            .any(|m| spec::field(m, "name") == "setup_s" && spec::field(m, "unit") == "s"));
    }

    #[test]
    fn every_name_and_unit_is_within_the_contract_alphabet() {
        let doc = spec::contract();
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for list in ["workloads", "end_to_end", "per_layer"] {
            for entry in spec::entries(&doc, list) {
                let name = spec::field(entry, "name");
                assert!(name_ok(name), "bad name {name:?}");
                assert!(seen.insert(name), "name {name:?} is used twice");
                if list != "workloads" {
                    let unit = spec::field(entry, "unit");
                    assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
                }
            }
        }
        for m in spec::entries(&doc, "end_to_end") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    /// One smoke run per workload, untraced and traced: every end-to-end
    /// name comes out of every workload, every per-layer name out of every
    /// traced run, and the outputs check out.
    #[test]
    fn every_workload_emits_every_metric_and_is_correct_at_smoke_size() {
        let _recorder = trace::RECORDER_IN_USE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cli = Cli {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                let outcome =
                    split_cnn::par::with_threads(host::worker_threads(), || run_workload(&cli));
                assert!(outcome.correct, "{workload} trace={trace} is not correct");
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 1);
                for entry in spec::entries(&spec::contract(), table_of(trace)) {
                    let name = spec::field(entry, "name");
                    let v = outcome.values.get(name);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{workload} trace={trace}: {name} = {v:?}"
                    );
                }
            }
        }
    }
}
