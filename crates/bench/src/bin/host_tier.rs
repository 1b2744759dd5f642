//! Where offloaded bytes go, read from the process: the repo benchmark's
//! split training graph (ResNet-18 cifar width 0.5, batch 8, split
//! `(0.5, 2, 2)`) trained for `--steps` SGD steps under [`PlanRuntime`],
//! once per plan — no-offload, vDNN and HMMS — each in a fresh process.
//!
//! The parent re-executes itself `--rounds` times per plan, alternating
//! plans, and prints per process: `VmHWM` before the first step and after
//! the last, the plan's `host_pool_bytes`, and the step's resident
//! activation peak. Against the no-offload plan of the same graph, the
//! HMMS process's `VmHWM` falls by what its host tier keeps out of the
//! process.
//!
//! ```text
//! cargo run --release -p scnn-bench --bin host_tier [--rounds 4] [--steps 6]
//! ```

use std::process::Command;

use scnn_bench::Args;
use scnn_core::{conv_engine_workspace, plan_split, SplitConfig};
use scnn_gpusim::{profile_graph, CostModel};
use scnn_graph::{NodeId, Tape};
use scnn_hmms::{
    export_plan_with, plan_hmms, plan_no_offload, plan_vdnn, LayoutOptions, PlannerOptions,
    TsoAssignment, TsoOptions,
};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, Mode, ParamStore, Sgd};
use scnn_rng::SplitRng;
use scnn_runtime::PlanRuntime;
use scnn_tensor::uniform;

const PLANS: [&str; 3] = ["no_offload", "vdnn", "hmms"];

/// One child process's readings.
struct Run {
    plan: &'static str,
    hwm_before: u64,
    hwm_after: u64,
    host_pool: u64,
    resident_peak: u64,
}

fn main() {
    let args = Args::parse(&["rounds", "steps", "plan"]);
    let steps = args.usize("steps", 6);
    match args.str("plan") {
        Some(plan) => child(plan, steps),
        None => parent(args.usize("rounds", 4), steps),
    }
}

/// `VmHWM` of this process in bytes; 0 where `/proc` has no such field.
fn vm_hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

fn child(plan_name: &str, steps: usize) {
    let (width, batch) = (0.5, 8);
    let desc = resnet18(&ModelOptions::cifar().with_width(width));
    let graph = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet-18 splits at depth 0.5 on a 2x2 grid")
        .lower(&desc, batch);
    let tape = Tape::new(&graph);
    let profile = profile_graph(&graph, &CostModel::default());
    let ws = conv_engine_workspace(&graph, &profile.workspace_bytes);
    let tso = TsoAssignment::new(&graph, &ws, TsoOptions::default());
    let opts = PlannerOptions::default();
    let plan = match plan_name {
        "no_offload" => plan_no_offload(&graph, &tape, &tso, &profile),
        "vdnn" => plan_vdnn(&graph, &tape, &tso, &profile, opts),
        "hmms" => plan_hmms(&graph, &tape, &tso, &profile, opts),
        other => {
            eprintln!("error: --plan {other}: expected one of {PLANS:?}");
            std::process::exit(2);
        }
    };
    let overlap = LayoutOptions {
        overlap_workspace: true,
    };
    let exec_plan = export_plan_with(&graph, &tape, &plan, &tso, overlap)
        .expect("the plan is legal on the overlapped layout");
    let mut rt = PlanRuntime::new(&graph, exec_plan).expect("runtime builds");
    let exec = rt.executor();

    let mut master = SplitRng::seed_from_u64(5);
    let mut params = ParamStore::init(&graph, &mut master.split());
    let mut sgd = Sgd::new(&params, 0.005, 0.9, 1e-4);
    let mut bn = BnState::new();
    let mut rng = master.split();
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let labels: Vec<usize> = (0..batch).map(|i| (i * 3 + 1) % 10).collect();
    let mut data = master.split();
    let hwm_before = vm_hwm_bytes();
    let mut resident_peak = 0;
    for _ in 0..steps {
        let images = uniform(&mut data, &dims, -1.0, 1.0);
        params.zero_grads();
        let loss = exec
            .run_with(
                &graph,
                &mut params,
                &mut bn,
                &images,
                &labels,
                Mode::Train,
                &mut rng,
                &mut rt,
            )
            .loss;
        std::hint::black_box(loss);
        sgd.step(&mut params);
        resident_peak = resident_peak.max(rt.stats().resident_peak_bytes);
    }
    println!(
        "{plan_name} {hwm_before} {} {} {resident_peak}",
        vm_hwm_bytes(),
        rt.plan().layout.host_pool_bytes
    );
}

fn parent(rounds: usize, steps: usize) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    for _ in 0..rounds {
        for plan in PLANS {
            let out = Command::new(&exe)
                .args(["--plan", plan, "--steps", &steps.to_string()])
                .output()
                .expect("child process runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
            match (out.status.success(), num(1), num(2), num(3), num(4)) {
                (true, Some(hwm_before), Some(hwm_after), Some(host_pool), Some(resident_peak)) => {
                    runs.push(Run {
                        plan,
                        hwm_before,
                        hwm_after,
                        host_pool,
                        resident_peak,
                    });
                }
                _ => {
                    eprintln!(
                        "error: --plan {plan} child failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    );
                    std::process::exit(1);
                }
            }
        }
    }

    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: {cpu}, nproc {nproc}, {} threads, temp dir {}",
        scnn_par::max_threads(),
        std::env::temp_dir().display()
    );
    println!(
        "# ResNet-18 cifar w0.5, batch 8, split (0.5, 2, 2); {steps} SGD steps per process, \
         {rounds} alternating processes per plan"
    );
    println!(
        "{:<11} {:>14} {:>14} {:>16} {:>16}",
        "plan", "VmHWM before", "VmHWM after", "host_pool_bytes", "resident_peak"
    );
    for r in &runs {
        println!(
            "{:<11} {:>14} {:>14} {:>16} {:>16}",
            r.plan, r.hwm_before, r.hwm_after, r.host_pool, r.resident_peak
        );
    }
    // Per plan: min / median / max of VmHWM after the last step.
    let spread = |plan: &str| {
        let mut v: Vec<u64> = runs
            .iter()
            .filter(|r| r.plan == plan)
            .map(|r| r.hwm_after)
            .collect();
        v.sort_unstable();
        (v[0], v[v.len() / 2], v[v.len() - 1])
    };
    for plan in PLANS {
        let (lo, mid, hi) = spread(plan);
        println!("{plan}: VmHWM after min {lo} / median {mid} / max {hi} B");
    }
    let host_pool = runs
        .iter()
        .filter(|r| r.plan == "hmms")
        .map(|r| r.host_pool)
        .max()
        .unwrap_or(0);
    let fall = spread("no_offload").1 as f64 - spread("hmms").1 as f64;
    println!(
        "hmms below no_offload (medians): {fall:.0} B = {:.1} % of its host pool of {host_pool} B",
        100.0 * fall / host_pool.max(1) as f64
    );
}
