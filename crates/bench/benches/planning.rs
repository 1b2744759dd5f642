//! Benchmarks for the offline planning pipeline — the cost the paper's
//! system pays once per model before training starts — on the in-tree
//! timing harness. Results land in `BENCH_planning.json`.

use scnn_bench::memsys::MemsysSetup;
use scnn_bench::{Args, BenchGroup};
use scnn_core::{lower_unsplit, plan_micro_schedule, plan_split, SplitConfig};
use scnn_gpusim::{profile_graph, CostModel};
use scnn_graph::Tape;
use scnn_hmms::{plan_hmms, plan_layout, plan_vdnn, PlannerOptions, TsoAssignment, TsoOptions};
use scnn_models::{resnet50, vgg19, ModelOptions};

fn main() {
    let smoke = Args::parse(&["smoke", "bench"]).bool("smoke");
    let model = CostModel::default();
    let mut g = BenchGroup::new("planning");
    if smoke {
        g.sample_size(1);
        g.warmup(0);
    } else {
        g.sample_size(10);
    }

    // Smoke mode: CIFAR-sized inputs and one cold sample — just prove the
    // planning pipeline runs end to end and emits parseable records.
    let opts = if smoke {
        ModelOptions::cifar()
    } else {
        ModelOptions::imagenet()
    };
    let batch = if smoke { 4 } else { 64 };

    for (name, desc) in [("vgg19", vgg19(&opts)), ("resnet50", resnet50(&opts))] {
        g.bench(&format!("lower_unsplit/{name}"), || {
            lower_unsplit(&desc, batch)
        });
        g.bench(&format!("plan_split/{name}"), || {
            plan_split(&desc, &SplitConfig::new(0.75, 2, 2)).unwrap()
        });

        let graph = lower_unsplit(&desc, batch);
        let profile = profile_graph(&graph, &model);
        let tape = Tape::new(&graph);
        let tso = TsoAssignment::new(&graph, &profile.workspace_bytes, TsoOptions::default());
        let opts = PlannerOptions::default();
        g.bench(&format!("plan_hmms/{name}"), || {
            plan_hmms(&graph, &tape, &tso, &profile, opts)
        });
        g.bench(&format!("plan_vdnn/{name}"), || {
            plan_vdnn(&graph, &tape, &tso, &profile, opts)
        });
        let plan = plan_hmms(&graph, &tape, &tso, &profile, opts);
        g.bench(&format!("first_fit_layout/{name}"), || {
            plan_layout(&graph, &plan, &tso).unwrap()
        });
        g.bench(&format!("plan_micro_schedule/{name}"), || {
            plan_micro_schedule(&graph)
        });
        let s = MemsysSetup::unsplit(&desc, batch, &model);
        let p = s.plan("hmms");
        g.bench(&format!("simulate_step/{name}"), || s.simulate(&p));
    }
    g.finish();
}
