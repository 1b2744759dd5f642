//! The two training workloads: SGD steps on ResNet-18 (cifar), either split
//! and run under the HMMS plan by `PlanRuntime` (`train_split_hmms` — the
//! paper's system) or unsplit on the plain Vec-per-node path
//! (`train_plain` — the baseline that bypasses `core`, `hmms`, `runtime`).

use std::time::Instant;

use scnn_rng::SplitRng;
use split_cnn::core::{conv_engine_workspace, lower_unsplit, plan_split, SplitConfig};
use split_cnn::data::{BatchList, SyntheticDataset, SyntheticSpec};
use split_cnn::gpusim::{profile_graph, CostModel};
use split_cnn::graph::{Graph, Tape};
use split_cnn::hmms::{
    export_plan_with, plan_hmms, plan_layout_with, plan_no_offload, LayoutOptions, PlannerOptions,
    Profile, TsoAssignment, TsoOptions,
};
use split_cnn::models::{resnet18, ModelOptions};
use split_cnn::nn::{BnState, BufferProvider, Executor, Mode, ParamStore, Sgd, VecProvider};
use split_cnn::runtime::{MeterProvider, PlanRuntime};

use crate::spec::Values;
use crate::stats::{self, ms};
use crate::trace::{self, span};
use crate::{OpSample, Outcome, RunWindow};

/// Today's byte metrics at full size (ISSUE 13); a run prints which moved.
const TODAY_SPLIT_HMMS: (f64, f64) = (15_392_768.0, 3_300_352.0);
const TODAY_PLAIN: (f64, f64) = (32_620_868.0, 23_277_568.0);

pub const OVERLAP: LayoutOptions = LayoutOptions {
    overlap_workspace: true,
};

#[derive(Clone, Copy, Debug)]
pub struct TrainCfg {
    pub width: f64,
    pub batch: usize,
    /// Pre-generated batches, cycled.
    pub n_batches: usize,
    pub steps: usize,
}

impl TrainCfg {
    pub fn full(steps: usize) -> Self {
        TrainCfg {
            width: 0.5,
            batch: 8,
            n_batches: 16,
            steps,
        }
    }

    pub fn smoke() -> Self {
        TrainCfg {
            width: 0.125,
            batch: 2,
            n_batches: 4,
            steps: 12,
        }
    }
}

/// Where activations live during a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// `PlanRuntime` executing the HMMS plan on the overlapped layout.
    Hmms,
    /// Vec-per-node with a resident-bytes meter.
    Meter,
    /// Vec-per-node, unmetered: the reference for bit-equality checks.
    Vec,
}

enum Provider {
    Plan(Box<PlanRuntime>),
    Meter(MeterProvider),
    Vec(VecProvider),
}

pub struct StepTimes {
    pub loss: f32,
    pub zero_ms: f64,
    pub run_ms: f64,
    pub sgd_ms: f64,
}

impl StepTimes {
    pub fn total_ms(&self) -> f64 {
        self.zero_ms + self.run_ms + self.sgd_ms
    }
}

/// One training instance: graph, state, optimizer, data, provider.
pub struct Trainer {
    pub graph: Graph,
    params: ParamStore,
    bn: BnState,
    sgd: Sgd,
    rng: SplitRng,
    exec: Executor,
    provider: Provider,
    batches: BatchList,
    next: usize,
}

pub fn model_desc(width: f64) -> split_cnn::core::ModelDesc {
    resnet18(&ModelOptions::cifar().with_width(width))
}

pub fn split_config() -> SplitConfig {
    SplitConfig::new(0.5, 2, 2)
}

pub fn lower(split: bool, width: f64, batch: usize) -> Graph {
    let desc = span("models.resnet18", || model_desc(width));
    if split {
        let plan = span("core.plan_split", || plan_split(&desc, &split_config()))
            .expect("resnet-18 splits at depth 0.5 on a 2x2 grid");
        span("core.lower", || plan.lower(&desc, batch))
    } else {
        span("core.lower_unsplit", || lower_unsplit(&desc, batch))
    }
}

/// TSOs of a training graph, on the workspace the conv engine really takes
/// rather than the profile's.
pub fn assign_tsos(graph: &Graph, profile: &Profile) -> TsoAssignment {
    let ws = conv_engine_workspace(graph, &profile.workspace_bytes);
    TsoAssignment::new(graph, &ws, TsoOptions::default())
}

/// The HMMS pipeline of `verify.sh`'s `train_step/hmms` pin: roofline
/// profile → engine-honest conv workspace → TSOs → Algorithm 1 → overlapped
/// layout → runtime.
pub fn hmms_runtime(graph: &Graph) -> PlanRuntime {
    let tape = span("graph.tape", || Tape::new(graph));
    let profile = span("gpusim.profile_graph", || {
        profile_graph(graph, &CostModel::default())
    });
    let tso = span("hmms.tso_assign", || assign_tsos(graph, &profile));
    let plan = span("hmms.plan_hmms", || {
        plan_hmms(graph, &tape, &tso, &profile, PlannerOptions::default())
    });
    let exec_plan = span("hmms.export_plan", || {
        export_plan_with(graph, &tape, &plan, &tso, OVERLAP)
    })
    .expect("the hmms plan is legal on the overlapped layout");
    span("runtime.build", || PlanRuntime::new(graph, exec_plan)).expect("runtime builds")
}

/// `device_general_bytes` of the no-offload plan: what the planner would
/// reserve for a graph that runs without `hmms`/`runtime`.
pub fn no_offload_pool_bytes(graph: &Graph) -> usize {
    let tape = Tape::new(graph);
    let profile = profile_graph(graph, &CostModel::default());
    let tso = assign_tsos(graph, &profile);
    let plan = plan_no_offload(graph, &tape, &tso, &profile);
    plan_layout_with(graph, &plan, &tso, OVERLAP)
        .expect("the no-offload plan is legal")
        .device_general_bytes
}

impl Trainer {
    /// model → (split) → (plan → runtime) → params → data, seeded.
    pub fn build(split: bool, placement: Placement, cfg: &TrainCfg, seed: u64) -> Trainer {
        let graph = lower(split, cfg.width, cfg.batch);
        let provider = match placement {
            Placement::Hmms => Provider::Plan(Box::new(hmms_runtime(&graph))),
            Placement::Meter => Provider::Meter(MeterProvider::new()),
            Placement::Vec => Provider::Vec(VecProvider),
        };
        let mut master = SplitRng::seed_from_u64(seed);
        let params = span("nn.params_init", || {
            ParamStore::init(&graph, &mut master.split())
        });
        let sgd = Sgd::new(&params, 0.005, 0.9, 1e-4);
        let batches = span("data.batches", || {
            SyntheticDataset::new(SyntheticSpec::cifar_like(seed)).batches(
                cfg.n_batches,
                cfg.batch,
                &mut master.split(),
            )
        });
        let exec = match &provider {
            Provider::Plan(rt) => rt.executor(),
            _ => Executor::new(),
        };
        Trainer {
            graph,
            params,
            bn: BnState::new(),
            sgd,
            rng: master.split(),
            exec,
            provider,
            batches,
            next: 0,
        }
    }

    /// One SGD step on the next batch: `zero_grads` → `run_with` → `Sgd::step`.
    pub fn step(&mut self) -> StepTimes {
        let (images, labels) = &self.batches[self.next % self.batches.len()];
        self.next += 1;
        let provider: &mut dyn BufferProvider = match &mut self.provider {
            Provider::Plan(rt) => rt.as_mut(),
            Provider::Meter(m) => m,
            Provider::Vec(v) => v,
        };
        let t0 = Instant::now();
        span("nn.zero_grads", || self.params.zero_grads());
        let t1 = Instant::now();
        let result = span("nn.executor.run_with", || {
            self.exec.run_with(
                &self.graph,
                &mut self.params,
                &mut self.bn,
                images,
                labels,
                Mode::Train,
                &mut self.rng,
                provider,
            )
        });
        let t2 = Instant::now();
        span("nn.sgd.step", || self.sgd.step(&mut self.params));
        let t3 = Instant::now();
        StepTimes {
            loss: result.loss,
            zero_ms: ms(t1 - t0),
            run_ms: ms(t2 - t1),
            sgd_ms: ms(t3 - t2),
        }
    }

    /// An eval-mode forward pass over the next batch, in milliseconds.
    pub fn forward_eval_ms(&mut self) -> f64 {
        let (images, labels) = &self.batches[self.next % self.batches.len()];
        let t = Instant::now();
        std::hint::black_box(self.exec.run(
            &self.graph,
            &mut self.params,
            &mut self.bn,
            images,
            labels,
            Mode::Eval,
            &mut self.rng,
        ));
        ms(t.elapsed())
    }

    pub fn runtime(&self) -> Option<&PlanRuntime> {
        match &self.provider {
            Provider::Plan(rt) => Some(rt),
            _ => None,
        }
    }

    /// Peak physically resident activation bytes so far (last step's, under
    /// the runtime — every step replays the same plan).
    pub fn resident_peak_bytes(&self) -> usize {
        match &self.provider {
            Provider::Plan(rt) => rt.stats().resident_peak_bytes,
            Provider::Meter(m) => m.peak_bytes(),
            Provider::Vec(_) => 0,
        }
    }
}

/// Runs a training workload: set-up, `cfg.steps` timed steps, checks, then
/// the extra set-up repetitions. With `traced`, every other step records
/// spans (the A/B for `trace.overhead_ratio`).
pub fn run(
    split_hmms: bool,
    cfg: &TrainCfg,
    seed: u64,
    traced: bool,
    setup_reps: stats::SetupReps,
) -> Outcome {
    let placement = if split_hmms {
        Placement::Hmms
    } else {
        Placement::Meter
    };
    let mut values = Values::default();

    trace::set_enabled(traced);
    trace::set_op(0);
    // Set-up ends with the first op (README: construct-only is too short to
    // time steadily, and the first step costs what the second does).
    let t = Instant::now();
    let (mut trainer, first) = span("setup", || {
        let mut tr = Trainer::build(split_hmms, placement, cfg, seed);
        let first = span("first_op", || tr.step());
        (tr, first)
    });
    let first_setup_s = t.elapsed().as_secs_f64();
    trace::set_enabled(false);

    let window = RunWindow::open();
    let mut ops = Vec::with_capacity(cfg.steps);
    let mut losses = vec![first.loss];
    for i in 0..cfg.steps {
        if !window.has_time(i, cfg.steps) {
            break;
        }
        let record = traced && i % 2 == 0;
        trace::set_op(i as u64 + 1);
        trace::set_enabled(record);
        let s = span("op.train_step", || trainer.step());
        ops.push(OpSample {
            ms: s.total_ms(),
            end_s: window.elapsed_s(),
            traced: record,
        });
        losses.push(s.loss);
    }
    trace::set_enabled(false);
    window.close(&mut values, &ops, cfg.batch as f64);
    // The loss history starts with the set-up's step — the timed ops
    // continue the same training run — but only timed ops can fail.
    let failed = losses[1..].iter().filter(|l| !l.is_finite()).count();

    // Output checks. The first three losses must be bit-equal to a fresh
    // Vec-per-node run of the same graph, data and seeds (placement never
    // changes values; for the plain workload this is the determinism
    // check), and training must make progress.
    let mut reference = Trainer::build(split_hmms, Placement::Vec, cfg, seed);
    let ref_losses: Vec<f32> = (0..3).map(|_| reference.step().loss).collect();
    drop(reference);
    let bit_equal = ref_losses
        .iter()
        .zip(&losses)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let tail = &losses[losses.len().saturating_sub(8)..];
    let tail_mean = tail.iter().sum::<f32>() / tail.len() as f32;
    let learned = tail_mean < losses[0];
    println!(
        "check  first losses {:?} vs Vec-per-node reference {:?}: {}",
        &losses[..ref_losses.len()],
        ref_losses,
        if bit_equal { "bit-equal" } else { "DIFFER" }
    );
    println!(
        "check  loss {:.4} (step 1) -> {:.4} (mean of last {}): {}",
        losses[0],
        tail_mean,
        tail.len(),
        if learned {
            "decreased"
        } else {
            "DID NOT DECREASE"
        }
    );

    let resident = trainer.resident_peak_bytes() as f64;
    let planned = match trainer.runtime() {
        Some(rt) => rt.plan().layout.device_general_bytes,
        None => no_offload_pool_bytes(&trainer.graph),
    } as f64;
    if let Some(rt) = trainer.runtime() {
        let st = rt.stats();
        println!(
            "info   runtime: {} offloads, {} prefetches, host arena {} B, kernel scratch peak {} B per step",
            st.offloads, st.prefetches, st.host_bytes, st.scratch_peak_bytes
        );
    }
    if cfg.width == 0.5 && cfg.batch == 8 {
        let today = if split_hmms {
            TODAY_SPLIT_HMMS
        } else {
            TODAY_PLAIN
        };
        crate::report_moved("resident_peak_bytes", resident, today.0);
        crate::report_moved("planned_pool_bytes", planned, today.1);
    }
    drop(trainer);

    // Extra set-up repetitions on fresh instances, after the RSS reading.
    crate::measure_setup(&mut values, first_setup_s, setup_reps, || {
        let t = Instant::now();
        let mut tr = Trainer::build(split_hmms, placement, cfg, seed);
        std::hint::black_box(tr.step().loss);
        t.elapsed().as_secs_f64()
    });

    let attempted = ops.len();
    values.set("resident_peak_bytes", resident);
    values.set("planned_pool_bytes", planned);
    values.set("ok_share", (attempted - failed) as f64 / attempted as f64);

    Outcome {
        correct: failed == 0 && bit_equal && learned,
        attempted,
        failed,
        values,
    }
}
