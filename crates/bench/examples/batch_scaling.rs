//! Batch-size scaling: how far Split-CNN + HMMS pushes the maximum
//! trainable batch on a 16 GB device, and what that buys in distributed
//! training — the Figure 10 → Figure 11 pipeline as a library walkthrough.
//!
//! ```text
//! cargo run --release -p scnn-bench --example batch_scaling
//! ```

use scnn_bench::dist::{speedup, DistConfig};
use scnn_core::{lower_unsplit, plan_split, SplitConfig};
use scnn_gpusim::{max_batch_size, profile_graph, CostModel, DeviceSpec};
use scnn_hmms::{plan_hmms, plan_no_offload, theoretical_offload_fraction, PlannerOptions};
use scnn_models::{vgg19, ModelOptions};

fn main() {
    let device = DeviceSpec::p100_nvlink();
    let model = CostModel::new(device);
    let desc = vgg19(&ModelOptions::imagenet());
    let split_plan = plan_split(&desc, &SplitConfig::new(0.75, 2, 2)).expect("plannable");

    // Maximum batch: baseline (unsplit, everything resident)...
    let base = max_batch_size(
        device.memory_bytes,
        4096,
        |b| {
            let g = lower_unsplit(&desc, b);
            let p = profile_graph(&g, &model);
            (g, p)
        },
        plan_no_offload,
    )
    .expect("legal plans")
    .expect("fits at batch 1");

    // ...vs Split-CNN + HMMS.
    let split = max_batch_size(
        device.memory_bytes,
        4096,
        |b| {
            let g = split_plan.lower(&desc, b);
            let p = profile_graph(&g, &model);
            (g, p)
        },
        |g, t, s, p| {
            let cap = theoretical_offload_fraction(g, t, s, p);
            plan_hmms(g, t, s, p, PlannerOptions { offload_cap: cap, mem_streams: 2 })
        },
    )
    .expect("legal plans")
    .expect("fits at batch 1");

    println!(
        "{}: baseline max batch {}, split+hmms max batch {} ({:.1}x)",
        desc.name,
        base.max_batch,
        split.max_batch,
        split.max_batch as f64 / base.max_batch as f64
    );

    // Feed the measured numbers into the §6.4 distributed model.
    let g = lower_unsplit(&desc, base.max_batch);
    let profile = profile_graph(&g, &model);
    let mk = |batch: usize, overhead: f64| DistConfig {
        dataset_size: 1_281_167,
        grad_bytes: (g.param_elems() * 4) as f64,
        fwd_per_sample: profile.total_fwd() / base.max_batch as f64 * (1.0 + overhead),
        bwd_per_sample: profile.total_bwd() / base.max_batch as f64 * (1.0 + overhead),
        batch,
        alpha: 0.8,
    };
    let baseline = mk(base.max_batch, 0.0);
    let split_cfg = mk(split.max_batch, 0.015);
    for gbit in [32.0, 10.0, 1.0] {
        println!(
            "distributed speedup at {gbit:>4} Gbit/s: {:.2}x",
            speedup(&baseline, &split_cfg, gbit * 1e9)
        );
    }
}
