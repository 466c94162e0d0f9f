//! Exact sample statistics and per-op outcome accounting.
//!
//! Every quantile the benchmark reports comes from the per-op samples
//! themselves (nearest-rank on the sorted set), never from the telemetry
//! crate's log2-bucket histograms, whose quantiles are bucket upper bounds
//! and can be up to 2x off. Telemetry histograms are read only as exact
//! means, `sum / count`, through [`HistDelta`].

use hcl_telemetry::HistogramSnapshot;

/// Nearest-rank quantile of an ascending-sorted sample set: the smallest
/// sample with at least `q * n` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Outcome counts of one stream of operations. A failed op is one whose
/// call or future returned an error; an empty op succeeded but found
/// nothing (a miss, an empty pop). The two are never conflated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub empty: u64,
}

impl Tally {
    /// Count one op; `found` says whether a successful op observed a value.
    pub fn record<T, E>(&mut self, r: &Result<T, E>, found: impl FnOnce(&T) -> bool) {
        self.attempted += 1;
        match r {
            Ok(v) if !found(v) => self.empty += 1,
            Ok(_) => {}
            Err(_) => self.failed += 1,
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.empty += o.empty;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Exact mean of the observations a telemetry histogram gained between two
/// snapshots: `Δsum / Δcount`, with the count kept alongside.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum: u64,
}

impl HistDelta {
    pub fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Self {
        HistDelta {
            count: after.count - before.count,
            sum: after.sum - before.sum,
        }
    }

    pub fn add(&mut self, o: HistDelta) {
        self.count += o.count;
        self.sum += o.sum;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_a_known_set() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.50), Some(50));
        assert_eq!(quantile(&s, 0.99), Some(99));
        assert_eq!(quantile(&s, 1.0), Some(100));
        assert_eq!(quantile(&s, 0.0), Some(1));
        let odd = [3, 7, 7, 20, 1000];
        assert_eq!(quantile(&odd, 0.5), Some(7));
        assert_eq!(quantile(&odd, 0.99), Some(1000));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn exact_p50_differs_from_the_bucket_estimate() {
        // 1000 samples at 9_000 ns: the log2 histogram puts them in the
        // [8192, 16383] bucket and reports its upper bound, capped at max.
        let h = hcl_telemetry::Histogram::new();
        let mut s = Vec::new();
        for i in 0..1000u64 {
            let v = 9_000 + (i % 7);
            h.record(v);
            s.push(v);
        }
        s.sort_unstable();
        assert_eq!(quantile(&s, 0.5), Some(9_003));
        assert_eq!(
            h.snapshot().p50(),
            9_006,
            "bucket estimate is capped at max, not exact"
        );
        let d = HistDelta::between(&HistogramSnapshot::default(), &h.snapshot());
        assert_eq!(d.count, 1000);
        assert!((d.mean() - s.iter().sum::<u64>() as f64 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn tally_keeps_empties_apart_from_failures() {
        let mut t = Tally::default();
        t.record(&Ok::<_, ()>(Some(1)), |v| v.is_some());
        t.record(&Ok::<_, ()>(None::<u32>), |v| v.is_some());
        t.record(&Err::<Option<u32>, _>(()), |v| v.is_some());
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1,
                empty: 1
            }
        );
        assert!((t.fail_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }
}
