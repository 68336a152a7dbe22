//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! throughput with its base, and peak-memory parsing.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Percentiles a tail may be reported at, lowest first, in thousandths
/// of a percent so the samples beyond each are counted exactly.
const TAIL_LADDER: [u64; 9] = [
    50_000, 90_000, 95_000, 98_000, 99_000, 99_500, 99_900, 99_990, 99_999,
];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.9).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The tail of `values` under the ten-beyond rule; `None` when even the
/// median would have fewer than ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let (milli, beyond) = TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, (n as u64 * (100_000 - p) / 100_000) as usize))
        .find(|&(_, beyond)| beyond >= TAIL_MIN_BEYOND)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: milli as f64 / 1000.0,
        value: sorted[n - 1 - beyond],
        beyond,
        samples: n,
    })
}

/// Work per second of host time, kept with its base so a ratio is never
/// quoted without the counts it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    /// Items of work completed.
    pub items: u64,
    /// Host seconds they took.
    pub seconds: f64,
}

impl Rate {
    /// Items per second; `None` when no time elapsed.
    pub fn per_second(self) -> Option<f64> {
        (self.seconds > 0.0).then(|| self.items as f64 / self.seconds)
    }
}

/// Reads a `kB` field such as `VmHWM` out of `/proc/<pid>/status` text.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next() == Some("kB")).then_some(value)
    })
}

/// This process's `key` field of `/proc/self/status` in kB.
pub fn self_status_kb(key: &str) -> Option<u64> {
    status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median has only 9 beyond it.
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 20 samples: p50 leaves exactly 10 beyond.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&twenty).expect("p50 qualifies");
        assert_eq!((t.percentile, t.beyond, t.value), (50.0, 10, 9.0));
    }

    #[test]
    fn tail_picks_the_highest_qualifying_percentile() {
        // 664 faulty sessions: p98 leaves 13 beyond, p99 only 6.
        let faulty: Vec<f64> = (0..664).map(f64::from).collect();
        let t = tail(&faulty).expect("p98 qualifies");
        assert_eq!((t.percentile, t.beyond, t.samples), (98.0, 13, 664));
        assert_eq!(t.value, 650.0);
        // 70,000 healthy sessions: p99.9 leaves 70 beyond, p99.99 only 7.
        let healthy: Vec<f64> = (0..70_000).rev().map(f64::from).collect();
        let t = tail(&healthy).expect("p99.9 qualifies");
        assert_eq!((t.percentile, t.beyond), (99.9, 70));
        assert_eq!(t.value, 69_929.0);
        // Exactly ten samples beyond the value, in any input order.
        assert_eq!(healthy.iter().filter(|&&v| v > t.value).count(), 70);
    }

    #[test]
    fn rate_keeps_its_base() {
        let r = Rate {
            items: 6_866,
            seconds: 2.0,
        };
        assert_eq!(r.per_second(), Some(3_433.0));
        assert_eq!(
            Rate {
                items: 5,
                seconds: 0.0
            }
            .per_second(),
            None
        );
    }

    #[test]
    fn parses_vmhwm_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(status_kb(status, "VmRSS"), Some(1_024));
        assert_eq!(status_kb(status, "VmSwap"), None);
        // A prefix of another key is not that key; a unitless value is refused.
        assert_eq!(status_kb("VmHWMX:\t5 kB\n", "VmHWM"), None);
        assert_eq!(status_kb("VmHWM:\t5\n", "VmHWM"), None);
        assert!(self_status_kb("VmHWM").is_some_and(|kb| kb > 0));
    }
}
