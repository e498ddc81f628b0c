//! Latency summaries: the median and the highest percentile that has at
//! least ten samples beyond it.

use std::time::Duration;

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];
/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

#[derive(Clone, Debug)]
pub struct Tail {
    pub ms: f64,
    /// The percentile reported, e.g. `90.0`.
    pub percentile: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

#[derive(Clone, Debug)]
pub struct Summary {
    pub count: usize,
    pub p50_ms: f64,
    pub tail: Tail,
}

/// Summarize per-operation latencies. Needs at least
/// `TAIL_MIN_BEYOND * 10` samples so that a p90 tail exists; the
/// workloads size their work to guarantee that.
pub fn summarize(samples: &[Duration]) -> Summary {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    assert!(
        n >= TAIL_MIN_BEYOND * 10,
        "{n} samples cannot carry a p90 tail"
    );
    let tail = TAIL_PERCENTILES
        .iter()
        .map(|&p| {
            // Nearest rank: the smallest sample with at least p% of the
            // samples at or below it.
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            Tail {
                ms: ms[rank.clamp(1, n) - 1],
                percentile: p,
                beyond: n - rank.clamp(1, n),
            }
        })
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .expect("p90 has n/10 samples beyond it");
    Summary {
        count: n,
        p50_ms: median(&ms),
        tail,
    }
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&x| Duration::from_millis(x)).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s = summarize(&ms(&(1..=100).collect::<Vec<_>>()));
        assert_eq!(
            (s.tail.percentile, s.tail.beyond, s.tail.ms),
            (90.0, 10, 90.0)
        );
        let s = summarize(&ms(&(1..=1000).collect::<Vec<_>>()));
        assert_eq!(
            (s.tail.percentile, s.tail.beyond, s.tail.ms),
            (99.0, 10, 990.0)
        );
        assert_eq!(s.p50_ms, 500.5);
    }
}
