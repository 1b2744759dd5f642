//! Idle is free: one spin budget after the last region every pool worker
//! is parked and the process stops using CPU. One test, alone in its
//! binary — the census and the CPU clock are process-wide, so no other
//! test may submit regions beside it.

use std::time::Duration;

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
fn workers_park_one_budget_after_the_last_region() {
    // One worker whatever SCNN_THREADS says: with two CPUs or more the
    // pool fits the hardware, so the worker polls between these regions.
    scnn_par::with_threads(2, || {
        for _ in 0..1000 {
            scnn_par::parallel_for(8, |i| {
                std::hint::black_box(i);
            });
        }
    });
    // Far beyond the 200 µs budget, so a slow host cannot fail this.
    std::thread::sleep(Duration::from_millis(20));
    let (parked, spawned) = scnn_par::parked_workers();
    assert_eq!(spawned, 1);
    assert_eq!(parked, spawned, "every worker is parked once the budget is spent");

    let Some(before) = process_cpu_time() else {
        eprintln!("no /proc/self/task/*/schedstat here; CPU-time half skipped");
        return;
    };
    std::thread::sleep(Duration::from_millis(50));
    let used = process_cpu_time().expect("procfs was readable a moment ago") - before;
    assert!(
        used < Duration::from_millis(5),
        "an idle pool used {used:?} of CPU in 50 ms"
    );
}
