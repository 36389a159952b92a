//! Pure helpers: percentiles, the tail-percentile rule, failure
//! accounting, the `UDT_*` environment guard and peak-RSS arithmetic.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The `q`-quantile (`0 <= q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[tail_rank(sorted.len(), q) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Fewest samples for which the `q` tail has [`MIN_BEYOND_TAIL`] samples
/// beyond it.
pub fn min_samples_for_tail(q: f64) -> usize {
    (MIN_BEYOND_TAIL + 1..)
        .find(|&n| n - tail_rank(n, q) >= MIN_BEYOND_TAIL)
        .expect("q < 1")
}

/// 1-based nearest rank of the `q` quantile in `n > 0` samples.
fn tail_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub beyond: usize,
}

/// The `q` percentile of `sorted`, refused (as `Err`) when fewer than
/// [`MIN_BEYOND_TAIL`] samples lie strictly beyond its rank.
pub fn tail(sorted: &[f64], q: f64) -> Result<Tail, String> {
    if sorted.is_empty() {
        return Err("no samples".to_string());
    }
    let rank = tail_rank(sorted.len(), q);
    let beyond = sorted.len() - rank;
    if beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND_TAIL})",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(Tail {
        value: sorted[rank - 1],
        beyond,
    })
}

/// Operations attempted and how many of them failed (an error or a
/// wrong answer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Correct over attempted; 0 when nothing was attempted, so an empty
    /// run never reads as a clean one.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.fail_frac()
        }
    }
}

/// Names of the `UDT_*` variables in `vars`, sorted. Each one changes
/// the program being measured, so the benchmark refuses to run with any.
pub fn udt_overrides(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    let mut names: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("UDT_"))
        .collect();
    names.sort();
    names
}

/// Peak resident memory above the baseline, in MB (10^6 bytes), from
/// `/proc` kB figures. A peak below the baseline (pages the allocator
/// returned after the reset) reads as 0.
pub fn peak_above_baseline_mb(peak_kb: u64, baseline_kb: u64) -> f64 {
    peak_kb.saturating_sub(baseline_kb) as f64 * 1024.0 / 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(min_samples_for_tail(0.99), 1000);
        assert_eq!(min_samples_for_tail(0.75), 40);
        let t = tail(&ramp(100), 0.9).expect("100 samples support p90");
        assert_eq!(
            t,
            Tail {
                value: 90.0,
                beyond: 10
            }
        );
        assert!(tail(&ramp(99), 0.9).is_err());
        assert!(tail(&ramp(999), 0.99).is_err());
        assert_eq!(tail(&ramp(1000), 0.99).map(|t| t.beyond), Ok(10));
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn tally_counts_errors_and_wrong_answers_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        assert_eq!(t.ok_frac(), 0.0);
        for _ in 0..3 {
            t.ok();
        }
        t.fail();
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_frac(), 0.25);
        assert_eq!(t.ok_frac(), 0.75);
        let mut total = Tally::default();
        total.merge(t);
        total.merge(Tally {
            attempted: 6,
            failed: 0,
        });
        assert_eq!(total.fail_frac(), 0.1);
    }

    #[test]
    fn any_udt_variable_is_an_override() {
        let vars = |names: &[&str]| {
            names
                .iter()
                .map(|n| (n.to_string(), "1".to_string()))
                .collect::<Vec<_>>()
        };
        assert!(udt_overrides(vars(&["PATH", "HOME", "XUDT_KERNEL"])).is_empty());
        assert_eq!(
            udt_overrides(vars(&[
                "UDT_THREADS",
                "PATH",
                "UDT_KERNEL",
                "UDT_NOT_YET_INVENTED"
            ])),
            ["UDT_KERNEL", "UDT_NOT_YET_INVENTED", "UDT_THREADS"]
        );
    }

    #[test]
    fn peak_rss_is_net_of_the_baseline() {
        assert_eq!(peak_above_baseline_mb(400_000, 300_000), 102.4);
        assert_eq!(peak_above_baseline_mb(300_000, 300_000), 0.0);
        assert_eq!(peak_above_baseline_mb(200_000, 300_000), 0.0);
    }
}
