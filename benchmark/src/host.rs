//! What the benchmark reads about the host it runs on: the process's
//! resident-set high-water mark, how long its threads sat runnable but not
//! running (`host.runqueue_wait_share`) and how much CPU time the hypervisor
//! kept from the guest (`host.steal_share`) — instrument health, both.

use std::fs;

/// `VmHWM` of this process in bytes; 0 where `/proc` has no such field.
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Summed (on-CPU ns, runnable-but-waiting ns) over every live thread of
/// this process, from `/proc/self/task/*/schedstat`.
pub fn sched_totals() -> (u64, u64) {
    let mut totals = (0, 0);
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return totals;
    };
    for task in tasks.flatten() {
        if let Ok(text) = fs::read_to_string(task.path().join("schedstat")) {
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            totals.0 += fields.next().unwrap_or(0);
            totals.1 += fields.next().unwrap_or(0);
        }
    }
    totals
}

/// Share of (run + wait) time spent waiting for a CPU between two
/// [`sched_totals`] readings.
pub fn runqueue_wait_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let run = after.0.saturating_sub(before.0) as f64;
    let wait = after.1.saturating_sub(before.1) as f64;
    if run + wait == 0.0 {
        0.0
    } else {
        wait / (run + wait)
    }
}

/// Summed over every CPU, from the first line of `/proc/stat`, in clock
/// ticks: (time this guest ran anything, time the hypervisor ran someone
/// else while a vCPU of this guest had work).
pub fn busy_and_steal_ticks() -> (u64, u64) {
    let Ok(text) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Stolen ÷ (busy + stolen) between two [`busy_and_steal_ticks`] readings:
/// the share of the CPU time this guest asked for that it did not get.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0) as f64;
    let steal = after.1.saturating_sub(before.1) as f64;
    if busy + steal == 0.0 {
        0.0
    } else {
        steal / (busy + steal)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `scnn_par` runs at 2 threads (1 on a single-CPU host) so results stay
/// comparable between hosts with different core counts.
pub fn worker_threads() -> usize {
    nproc().min(2)
}
