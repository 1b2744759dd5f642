//! Idle is free: a [`Server`] with no traffic uses no CPU — its
//! dispatcher blocks on the admission queue, and the `scnn-par` workers their batches
//! fanned out to are parked one spin budget after the last region. One
//! test, alone in its binary: the CPU clock is process-wide.

use std::sync::Arc;
use std::time::Duration;

use scnn_serve::{BatchRunner, Server, ServerConfig};
use scnn_tensor::Tensor;

/// Echo runner whose batches fork-join on the pool, like the engine's.
struct ForkingRunner;

impl BatchRunner for ForkingRunner {
    fn request_shape(&self) -> Vec<usize> {
        vec![1, 4]
    }

    fn run(&self, requests: &[Tensor]) -> Vec<Vec<f32>> {
        for _wave in 0..20 {
            scnn_par::parallel_for(4, |i| {
                std::hint::black_box(i);
            });
        }
        requests.iter().map(|r| r.as_slice().to_vec()).collect()
    }
}

/// CPU time this process has used, summed over its threads, from
/// `/proc/self/task/*/schedstat` (nanosecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks). `None` where procfs has none.
fn process_cpu_time() -> Option<Duration> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(Duration::from_nanos(ns))
}

#[test]
fn a_server_without_traffic_uses_no_cpu() {
    let server = Server::start_with_runner(
        Arc::new(ForkingRunner),
        ServerConfig {
            // One pool worker whatever SCNN_THREADS says; it polls
            // between waves wherever the host has two CPUs.
            worker_threads: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("config is legal");
    for _ in 0..200 {
        let input = Tensor::from_vec(vec![1.0; 4], &[1, 4]);
        server.infer(input).expect("ran");
    }
    // Far beyond the pool's 200 µs spin budget.
    std::thread::sleep(Duration::from_millis(20));
    let (parked, spawned) = scnn_par::parked_workers();
    assert_eq!((parked, spawned), (1, 1), "(parked, spawned) pool workers");

    let Some(before) = process_cpu_time() else {
        eprintln!("no /proc/self/task/*/schedstat here; CPU-time half skipped");
        return;
    };
    std::thread::sleep(Duration::from_millis(50));
    let used = process_cpu_time().expect("procfs was readable a moment ago") - before;
    assert!(
        used < Duration::from_millis(5),
        "an idle server used {used:?} of CPU in 50 ms"
    );
    server.shutdown().expect("the engine did not die");
}
