//! The estimators every timed quantity goes through.
//!
//! On the shared 2-vCPU host this benchmark was sized on, interference is
//! one-sided (it only ever adds time) and drifts over minutes, so medians
//! and means of wall time do not repeat between launches while the fast
//! tail of a long fixed-work run does (README, "Noise"). End-to-end and
//! probe timings are therefore *floor estimates* ([`fast`]); medians and
//! percentiles are still computed, as diagnostics.

use std::time::{Duration, Instant};

/// Mean of the fastest `ceil(n / 100)` samples: the minimum for `n <= 100`,
/// the fastest 40 of 4000. `NaN` for an empty sample.
pub fn fast(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = samples.len().div_ceil(100);
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile `p` in `[0, 100]` of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p99, p95, p90 that still has at least ten samples beyond
/// it, with its value; falls back to the median for samples too small for
/// p90 (fewer than 100).
pub fn tail_percentile(samples: &[f64]) -> (f64, f64) {
    for p in [99, 95, 90] {
        // Nearest rank in whole numbers: 100 samples have exactly 10 beyond p90.
        let rank = (p * samples.len()).div_ceil(100);
        if samples.len() - rank >= 10 {
            return (p as f64, percentile(samples, p as f64));
        }
    }
    (50.0, median(samples))
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the driver applies to the ten-run spread.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}

/// Items per second over the fastest contiguous window of
/// `ceil(n / 10)` ops; `ends` are op completion times in seconds from the
/// run's start, `durs` the ops' own durations.
pub fn best_window_rate(ends: &[f64], durs: &[f64], items_per_op: f64) -> f64 {
    let n = ends.len();
    let w = n.div_ceil(10).max(1);
    let mut best = f64::INFINITY;
    for i in 0..=(n - w) {
        let span = ends[i + w - 1] - (ends[i] - durs[i]);
        best = best.min(span);
    }
    w as f64 * items_per_op / best
}

/// Adaptive repetition for set-up time: run `one` until at least `min`
/// repetitions have taken at least `min_spend_s` seconds between them (a
/// short set-up needs more samples for its floor to repeat), then stop as
/// soon as the three fastest agree within `tolerance` (relative to the
/// fastest), or at `cap` repetitions without agreement — and never beyond
/// [`HARD_CAP`]. Returns the mean of the three fastest and every sample
/// taken. `first` is a repetition the caller already ran.
pub fn adaptive_floor(
    first: Option<f64>,
    reps: SetupReps,
    tolerance: f64,
    mut one: impl FnMut() -> f64,
) -> (f64, Vec<f64>) {
    let mut samples: Vec<f64> = first.into_iter().collect();
    loop {
        let n = samples.len();
        let enough = n >= reps.min.max(3) && samples.iter().sum::<f64>() >= reps.min_spend_s;
        if n >= HARD_CAP || (enough && (n >= reps.cap || fastest3_agree(&samples, tolerance))) {
            break;
        }
        samples.push(one());
    }
    let mut sorted = samples.clone();
    sorted.sort_by(f64::total_cmp);
    (sorted[..3].iter().sum::<f64>() / 3.0, samples)
}

pub const HARD_CAP: usize = 120;

/// How often set-up is repeated (see [`adaptive_floor`]).
#[derive(Clone, Copy, Debug)]
pub struct SetupReps {
    pub min: usize,
    pub cap: usize,
    pub min_spend_s: f64,
}

fn fastest3_agree(samples: &[f64], tolerance: f64) -> bool {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.len() >= 3 && (sorted[2] - sorted[0]) <= tolerance * sorted[0]
}

/// Times one call in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `fast()` of `calls` individually timed calls of `f`, in milliseconds.
pub fn fast_ms<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let (r, t) = time_ms(&mut f);
            std::hint::black_box(r);
            t
        })
        .collect();
    fast(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPS: SetupReps = SetupReps {
        min: 8,
        cap: 20,
        min_spend_s: 0.0,
    };

    #[test]
    fn fast_is_the_minimum_up_to_100_samples_and_the_fastest_percent_beyond() {
        let small: Vec<f64> = (0..72).map(|i| 100.0 - i as f64).collect();
        assert_eq!(fast(&small), 29.0);
        let large: Vec<f64> = (0..4000).map(|i| i as f64).collect();
        // Fastest 40 of 4000: 0..=39, mean 19.5.
        assert_eq!(fast(&large), 19.5);
        let edge: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(fast(&edge), 0.5, "101 samples average the fastest two");
        assert!(fast(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let s = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&s(4000)).0, 99.0);
        assert_eq!(tail_percentile(&s(1000)).0, 99.0);
        assert_eq!(tail_percentile(&s(999)).0, 95.0);
        assert_eq!(tail_percentile(&s(200)).0, 95.0);
        assert_eq!(tail_percentile(&s(100)).0, 90.0);
        assert_eq!(tail_percentile(&s(72)).0, 50.0);
        assert_eq!(tail_percentile(&s(1000)).1, 989.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn adaptive_floor_stops_early_when_the_fast_three_agree() {
        let mut seq = [1.30, 1.00, 1.01, 1.02, 1.5, 1.4, 1.6, 1.2, 9.0].into_iter();
        let (v, samples) = adaptive_floor(None, REPS, 0.03, || seq.next().unwrap());
        assert_eq!(samples.len(), 8, "minimum repetitions always run");
        assert!((v - 1.01).abs() < 1e-12);
    }

    #[test]
    fn adaptive_floor_runs_to_the_cap_when_noisy_and_counts_the_first_sample() {
        let mut calls = 0;
        let (v, samples) = adaptive_floor(Some(5.0), REPS, 0.03, || {
            calls += 1;
            1.0 + calls as f64
        });
        assert_eq!(samples.len(), 20);
        assert_eq!(calls, 19, "the caller's own first set-up is sample one");
        assert_eq!(v, 3.0);
    }

    #[test]
    fn adaptive_floor_keeps_repeating_a_short_set_up_until_the_time_is_spent() {
        // 10 ms set-ups that agree from the start: 8 of them are only 0.08 s.
        let short = SetupReps {
            min_spend_s: 0.5,
            ..REPS
        };
        let (v, samples) = adaptive_floor(None, short, 0.03, || 0.010);
        assert_eq!(samples.len(), 50, "agreement counts once 0.5 s are spent");
        assert!((v - 0.010).abs() < 1e-12);
        // A set-up that never spends the time stops at the hard cap.
        let (_, samples) = adaptive_floor(None, short, 0.03, || 1e-6);
        assert_eq!(samples.len(), HARD_CAP);
    }

    #[test]
    fn best_window_rate_finds_the_quiet_stretch() {
        // 20 ops: the first ten take 2 s each, the last ten 1 s each.
        let durs: Vec<f64> = (0..20).map(|i| if i < 10 { 2.0 } else { 1.0 }).collect();
        let mut t = 0.0;
        let ends: Vec<f64> = durs
            .iter()
            .map(|d| {
                t += d;
                t
            })
            .collect();
        assert_eq!(best_window_rate(&ends, &durs, 8.0), 8.0);
    }
}
