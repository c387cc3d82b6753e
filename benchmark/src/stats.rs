//! Order statistics for the reported timings.
//!
//! A closed loop's ops are cut into [`CHUNKS`] consecutive chunks. Its
//! throughput is the median of the chunks' ops per second and its median
//! latency the median of the chunks' medians. Its tail is the median of
//! the tails of consecutive parts, each taken by the rule below. There are
//! as many parts as give each [`TAIL_PART_FULL`] ops (enough for a true
//! p99), but at least [`TAIL_PARTS_MIN`] and at most [`TAIL_PARTS_MAX`],
//! and no part holds fewer than [`TAIL_PART_MIN`] ops. A burst of
//! interference from outside the program then moves one chunk or part,
//! not the reported figure, while a cost the program pays throughout
//! shows in every one.
//!
//! Every timing is reported as a median plus a tail: the highest
//! percentile that still has at least [`TAIL_MIN_BEYOND`] samples beyond
//! it, capped at p99. A run with 1000 or more samples therefore reports a
//! true p99; a shorter run reports the highest percentile its sample can
//! support, and never less than the median. Failed operations enter the
//! sample as `f64::INFINITY`, so a refused or errored request counts as
//! missing any latency limit.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Highest percentile ever reported as the tail.
pub const TAIL_CAP: f64 = 0.99;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps `q = k / n` from rounding up to rank `k + 1`.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports (see the module docs).
pub fn tail_quantile(n: usize) -> f64 {
    if n <= TAIL_MIN_BEYOND {
        return 0.5;
    }
    ((n - TAIL_MIN_BEYOND) as f64 / n as f64).clamp(0.5, TAIL_CAP)
}

/// Median, tail value, the tail's percentile, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub count: usize,
}

/// Summarize an unsorted sample (which may contain infinities).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(sorted.len());
    Summary {
        median: percentile_sorted(&sorted, 0.5),
        tail: percentile_sorted(&sorted, tail_q),
        tail_q,
        count: sorted.len(),
    }
}

/// Chunks a closed loop's ops are split into (see the module docs).
pub const CHUNKS: usize = 10;

/// Ops per tail part when a run has enough of them.
pub const TAIL_PART_FULL: usize = 1000;

/// Tail parts a run is cut into when it has at least 100 ops per part.
pub const TAIL_PARTS_MIN: usize = 3;

/// Tail parts a run is cut into, at most.
pub const TAIL_PARTS_MAX: usize = 30;

/// Ops each tail part holds, at least (a shorter run is one part).
pub const TAIL_PART_MIN: usize = 100;

/// Throughput and latency of one closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopStats {
    pub ops_per_s: f64,
    /// Ops per second of each chunk, in order.
    pub chunk_rates: Vec<f64>,
    /// Median of chunk medians, median of part tails (`tail_q` is the
    /// percentile each part supports), and the whole-run sample count.
    pub latency: Summary,
    /// Parts the tail was taken over (1: the whole run).
    pub tail_parts: usize,
}

/// Summarize a closed loop from each op's latency (ms) and the time it
/// ended (seconds since the loop started, ascending).
pub fn closed_loop(latency_ms: &[f64], end_s: &[f64]) -> LoopStats {
    assert_eq!(latency_ms.len(), end_s.len());
    let n = latency_ms.len();
    let bounds = |chunks: usize| -> Vec<usize> { (0..=chunks).map(|i| i * n / chunks).collect() };
    let cut = bounds(CHUNKS.min(n));
    let chunks: Vec<(usize, usize)> = cut.windows(2).map(|w| (w[0], w[1])).collect();
    let rates: Vec<f64> = chunks
        .iter()
        .map(|&(a, b)| {
            let begun = if a == 0 { 0.0 } else { end_s[a - 1] };
            (b - a) as f64 / (end_s[b - 1] - begun)
        })
        .collect();
    let mut latency = summarize(latency_ms);
    let medians: Vec<f64> = chunks.iter().map(|&(a, b)| median(&latency_ms[a..b])).collect();
    latency.median = median(&medians);
    let tail_parts =
        (n / TAIL_PART_FULL).clamp(TAIL_PARTS_MIN, TAIL_PARTS_MAX).min(n / TAIL_PART_MIN).max(1);
    let tails: Vec<f64> =
        bounds(tail_parts).windows(2).map(|w| summarize(&latency_ms[w[0]..w[1]]).tail).collect();
    latency.tail = median(&tails);
    latency.tail_q = tail_quantile(n / tail_parts);
    LoopStats { ops_per_s: median(&rates), chunk_rates: rates, latency, tail_parts }
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n shuffled deterministically, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let s = summarize(&ramp(1000));
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.count, 1000);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn larger_samples_stay_at_p99() {
        let s = summarize(&ramp(5000));
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 4950.0);
    }

    #[test]
    fn shorter_samples_report_the_highest_supported_percentile() {
        for n in [11, 20, 57, 100, 250, 999] {
            let s = summarize(&ramp(n));
            let beyond = ramp(n).iter().filter(|&&v| v > s.tail).count();
            assert_eq!(beyond, TAIL_MIN_BEYOND.min(n / 2), "n={n}");
            assert!(s.tail >= s.median, "n={n}");
        }
        assert_eq!(summarize(&ramp(100)).tail_q, 0.9);
        assert_eq!(summarize(&ramp(100)).tail, 90.0);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.tail, s.tail_q, s.count), (2.0, 2.0, 0.5, 3));
        assert_eq!(summarize(&[5.0]).tail, 5.0);
    }

    /// `n` ops of `ms` each, back to back.
    fn steady(n: usize, ms: f64) -> (Vec<f64>, Vec<f64>) {
        let lat = vec![ms; n];
        let ends = (1..=n).map(|i| i as f64 * ms * 1e-3).collect();
        (lat, ends)
    }

    #[test]
    fn closed_loop_rate_is_ops_over_time() {
        let (lat, ends) = steady(500, 4.0);
        let s = closed_loop(&lat, &ends);
        assert!((s.ops_per_s - 250.0).abs() < 1e-9, "{}", s.ops_per_s);
        assert_eq!((s.tail_parts, s.latency.tail, s.latency.count), (3, 4.0, 500));
        // Parts of 166 ops support p94: ten samples lie beyond it.
        assert_eq!(s.latency.tail_q, 156.0 / 166.0);
        let short = closed_loop(&lat[..150], &ends[..150]);
        assert_eq!((short.tail_parts, short.latency.tail_q), (1, 140.0 / 150.0));
    }

    #[test]
    fn one_disturbed_chunk_moves_neither_rate_nor_tail() {
        let (mut lat, _) = steady(20_000, 1.0);
        for x in &mut lat[3000..3300] {
            *x = 50.0; // a burst inside the fourth chunk and the first part
        }
        let mut t = 0.0;
        let ends: Vec<f64> = lat
            .iter()
            .map(|ms| {
                t += ms * 1e-3;
                t
            })
            .collect();
        let s = closed_loop(&lat, &ends);
        assert_eq!(s.tail_parts, 20);
        assert_eq!(s.latency.tail, 1.0);
        assert_eq!(s.latency.median, 1.0);
        assert_eq!(s.latency.tail_q, 0.99);
        assert!((s.ops_per_s - 1000.0).abs() < 1e-6, "{}", s.ops_per_s);
        // The whole-run p99 would have reported the burst.
        assert_eq!(summarize(&lat).tail, 50.0);
    }

    #[test]
    fn a_cost_paid_throughout_shows_in_the_tail() {
        let (mut lat, ends) = steady(20_000, 1.0);
        for x in lat.iter_mut().step_by(50) {
            *x = 9.0; // 2% slow ops, spread over the whole run
        }
        assert_eq!(closed_loop(&lat, &ends).latency.tail, 9.0);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut v = ramp(1000);
        for x in v.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        let s = summarize(&v);
        assert!(s.tail.is_infinite(), "11 failures of 1000 must push p99 past any limit");
        assert!(s.median.is_finite());
    }
}
