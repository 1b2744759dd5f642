//! Properties of the spin-then-park pool that only show under concurrent
//! submitters and idle gaps of every length around the spin budget:
//!
//! - **no lost wake-up** — two submitting threads × 20 000 tiny regions,
//!   separated by sleeps of 0, ½×, 1×, 2× and 10× the budget, so workers
//!   are met polling, about to park, parked, and woken again; every region
//!   completes (a submitter that parks on its latch is always signalled)
//!   and every index runs exactly once;
//! - **panics still reach the submitter** while other workers are polling
//!   between regions.
//!
//! The suite honours `SCNN_THREADS` (no `with_threads` override in the
//! stress), so `scripts/verify.sh` runs it at 1, 2 and 7 threads: the
//! serial path, a pool that fits the CI host's two CPUs (its worker
//! polls), and an oversubscribed pool in which nobody polls. The panic
//! test forces 2 threads, so it never oversubscribes the process the
//! stress shares with it.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

/// The pool's (private) spin budget; the sleeps below straddle it.
const BUDGET: Duration = Duration::from_micros(200);

const REGIONS: usize = 20_000;
const TASKS: usize = 4;

/// Gap before region `r`, as a multiple of half a budget: mostly
/// back-to-back, often around the budget, now and then far beyond it.
fn gap_half_budgets(r: usize) -> u32 {
    match r % 16 {
        0 => 20,
        1 | 2 => 4,
        3..=5 => 2,
        6..=8 => 1,
        _ => 0,
    }
}

fn submit_regions(submitter: usize) {
    let hits: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
    for r in 0..REGIONS {
        // Offset the two submitters so their gaps do not line up.
        let gap = BUDGET / 2 * gap_half_budgets(r + submitter * 5);
        if !gap.is_zero() {
            std::thread::sleep(gap);
        }
        scnn_par::parallel_for(TASKS, |i| {
            // Long enough (~1 µs) that a polling worker claims a share.
            for k in 0..500u32 {
                black_box(k);
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                r + 1,
                "submitter {submitter}, region {r}: index {i} did not run exactly once"
            );
        }
    }
}

#[test]
fn no_wake_up_is_lost_across_gaps_around_the_spin_budget() {
    // A lost latch signal would hang the submitter forever; fail instead.
    let (tx, rx) = channel();
    let submitters: Vec<_> = (0..2)
        .map(|s| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                submit_regions(s);
                tx.send(s).expect("the test thread outlives its submitters");
            })
        })
        .collect();
    for _ in 0..2 {
        rx.recv_timeout(Duration::from_secs(300))
            .expect("a submitter hung: a wake-up was lost (or it panicked; see above)");
    }
    for s in submitters {
        s.join().expect("submitter thread");
    }
}

#[test]
fn a_panicking_task_rethrows_while_other_workers_are_mid_spin() {
    scnn_par::with_threads(2, || {
        for round in 0..20 {
            // Back-to-back regions keep the workers inside their budget.
            scnn_par::parallel_for(8, |_| {
                black_box(round);
            });
            let result = std::panic::catch_unwind(|| {
                scnn_par::parallel_for(8, |i| {
                    if i == 5 {
                        panic!("boom in round {round}");
                    }
                });
            });
            let payload = result.expect_err("the panic reaches the submitter");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic carries a String");
            assert_eq!(message, &format!("boom in round {round}"));
        }
        // The pool survives: a clean region still covers every index.
        let sum = AtomicUsize::new(0);
        scnn_par::parallel_for(64, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 63 * 64 / 2);
    });
}
