//! [`PlanRuntime`] replays a forward-only inference plan under an eval
//! pass: what it keeps resident fits the planned pool, nothing stays
//! live, and no host tier exists because nothing is ever staged
//! off-device. A caller that lands nodes out of tape order is refused,
//! not replayed.

use scnn_core::{plan_split, SplitConfig};
use scnn_graph::{Graph, NodeId};
use scnn_hmms::{export_inference_plan, TsoAssignment, TsoOptions};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore};
use scnn_rng::SplitRng;
use scnn_runtime::PlanRuntime;
use scnn_tensor::{uniform, Tensor};

#[test]
fn eval_pass_under_an_inference_plan_fits_the_planned_pool() {
    let desc = resnet18(&ModelOptions::cifar().with_width(0.25));
    let graph = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet splits")
        .lower(&desc, 1);
    let tso = TsoAssignment::new(&graph, &vec![0; graph.len()], TsoOptions::default());
    let plan = export_inference_plan(&graph, &tso).expect("the inference plan is legal");
    let planned = plan.layout.device_general_bytes;
    assert_eq!(plan.steps.len(), graph.len(), "forward-only: one step per node");

    let mut rng = SplitRng::seed_from_u64(5);
    let mut params = ParamStore::init(&graph, &mut rng);
    let mut bn = BnState::new();
    let images = uniform(&mut rng, &graph.node(NodeId(0)).out_shape, -1.0, 1.0);
    let exec = Executor::new();
    let reference = exec.run(&graph, &mut params, &mut bn, &images, &[3], Mode::Eval, &mut rng);

    let mut rt = PlanRuntime::new(&graph, plan).expect("runtime builds");
    // Two passes: the runtime is reusable, and the second starts clean.
    for _ in 0..2 {
        // `end_step` itself asserts the whole plan was covered.
        let got =
            exec.run_with(&graph, &mut params, &mut bn, &images, &[3], Mode::Eval, &mut rng, &mut rt);
        assert_eq!(got.loss.to_bits(), reference.loss.to_bits());
        let st = rt.stats();
        assert!(st.resident_peak_bytes <= planned, "{} B resident of {planned} B", st.resident_peak_bytes);
        assert_eq!(rt.resident_bytes(), 0, "nothing stays live");
        assert_eq!((st.host_bytes, st.offloads, st.prefetches), (0, 0, 0));
    }
}

/// The plan's frees are only true of a pass in the plan's order: a node
/// completing ahead of the cursor must fail the assert, never replay
/// another position's events against it.
#[test]
#[should_panic(expected = "forward visited out of tape order")]
fn forward_complete_out_of_id_order_panics() {
    let mut graph = Graph::new();
    let x = graph.input(&[1, 1, 4, 4]);
    let r = graph.relu(x, "r");
    let f = graph.flatten(r, "f");
    let l = graph.linear(f, 2, "fc");
    graph.softmax_cross_entropy(l, "loss");
    let tso = TsoAssignment::new(&graph, &vec![0; graph.len()], TsoOptions::default());
    let plan = export_inference_plan(&graph, &tso).expect("the inference plan is legal");

    let mut rt = PlanRuntime::new(&graph, plan).expect("runtime builds");
    rt.begin_step(graph.len());
    let mut outputs: Vec<Option<Tensor>> = vec![None; graph.len()];
    for id in [x.0, r.0] {
        outputs[id] = Some(rt.adopt(id, Tensor::zeros(&graph.node(NodeId(id)).out_shape)));
    }
    rt.forward_complete(r.0, &mut outputs);
}
