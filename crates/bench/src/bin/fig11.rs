//! Figure 11: projected distributed-training speedup of Split-CNN for
//! VGG-19 in bandwidth-constrained clusters.
//!
//! Uses the §6.4 analytical model: per-update allreduce cost `2|G|/(αB)`
//! with α = 0.8, compute times from the device simulator, `|G|` from the
//! model's parameter count, and the batch sizes Figure 10 produces (6×
//! for VGG-19 with Split-CNN's ≈1.5 % compute overhead). The paper's
//! finding: ≈2.1× speedup at a typical 10 Gbit/s cloud link.
//!
//! ```text
//! cargo run --release -p scnn-bench --bin fig11 [--base-batch 64] [--gain 6]
//! ```

use scnn_bench::Args;
use scnn_core::lower_unsplit;
use scnn_bench::dist::{speedup_sweep, DistConfig};
use scnn_gpusim::{profile_graph, CostModel};
use scnn_models::{vgg19, ModelOptions};

fn main() {
    let args = Args::parse(&["base-batch", "gain", "overhead"]);
    let base_batch = args.usize("base-batch", 64);
    let gain = args.f64("gain", 6.0);
    let overhead = args.f64("overhead", 0.015);

    let desc = vgg19(&ModelOptions::imagenet());
    let g = lower_unsplit(&desc, base_batch);
    let profile = profile_graph(&g, &CostModel::default());
    let grad_bytes = (g.param_elems() * 4) as f64;
    let fwd = profile.total_fwd() / base_batch as f64;
    let bwd = profile.total_bwd() / base_batch as f64;

    let base = DistConfig {
        dataset_size: 1_281_167,
        grad_bytes,
        fwd_per_sample: fwd,
        bwd_per_sample: bwd,
        batch: base_batch,
        alpha: 0.8,
    };
    let split = DistConfig {
        batch: (base_batch as f64 * gain) as usize,
        fwd_per_sample: fwd * (1.0 + overhead),
        bwd_per_sample: bwd * (1.0 + overhead),
        ..base
    };

    println!("# Figure 11: distributed-training speedup of Split-CNN (VGG-19)");
    println!(
        "# |G| = {:.0} MB, T_fwd = {:.2} ms/sample, T_bwd = {:.2} ms/sample, alpha = 0.8",
        grad_bytes / 1e6,
        fwd * 1e3,
        bwd * 1e3
    );
    println!(
        "# baseline batch {base_batch}, split batch {} ({}x, +{:.1}% compute)",
        split.batch,
        gain,
        overhead * 100.0
    );
    println!("{:>12} {:>10} {:>14} {:>14}", "bandwidth", "speedup", "base(s/epoch)", "split(s/epoch)");
    let bandwidths: Vec<f64> = [32.0, 16.0, 10.0, 8.0, 4.0, 2.0, 1.0, 0.5]
        .iter()
        .map(|g| g * 1e9)
        .collect();
    for (bw, s) in speedup_sweep(&base, &split, &bandwidths) {
        println!(
            "{:>9} Gb {:>9.2}x {:>14.0} {:>14.0}",
            bw / 1e9,
            s,
            base.epoch_time(bw),
            split.epoch_time(bw)
        );
    }
}
