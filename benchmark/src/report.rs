//! The result line, order statistics and process facts shared by every
//! workload.

use std::fmt::Write as _;

/// One workload run's outcome: correctness, operation counts and named
/// metrics, printed as the last stdout line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    withheld: bool,
}

impl Report {
    /// Records a failed output check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.problems.push(msg);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Drops every metric whose name fails `keep`; the missing ones are
    /// then not filled in by [`Report::order_metrics`].
    pub fn retain_metrics(&mut self, keep: impl Fn(&str) -> bool) {
        self.metrics.retain(|(name, _, _)| keep(name));
        self.withheld = true;
    }

    /// Puts the metrics in `list` order, reporting 0 for a listed metric
    /// the workload has no layer for (unless metrics were withheld).
    ///
    /// # Panics
    ///
    /// On a reported metric missing from `list`.
    pub fn order_metrics(&mut self, list: &[(&str, &'static str)]) {
        for (name, _, _) in &self.metrics {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "metric {name} is not in the per-layer list"
            );
        }
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(m) => ordered.push(m.clone()),
                None if !self.withheld => ordered.push((name.to_string(), 0.0, unit)),
                None => {}
            }
        }
        self.metrics = ordered;
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The single JSON line the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            // Non-finite values are not JSON; they only arise from a broken
            // measurement, which the checks already flag.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// NaN for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The interquartile mean: the mean of the middle half of the samples
/// (at least one; same parity as `n`, so the window is centred on the
/// median). It locates the middle like the median, but over a set of
/// unlike operations the plain median is one operation's time and carries
/// that one measurement's noise; this averages the middle half.
pub fn p50(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mut k = (n / 2).max(1);
    if k % 2 != n % 2 {
        k += 1;
    }
    let start = (n - k) / 2;
    mean(&s[start..start + k])
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// the next [`peak_rss_mb`] reads the peak of the operation in between.
/// Best effort: without the reset the next read is the process peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MB, from procfs.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: a stateless mixer for deriving deterministic sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(p50(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(p50(&[4.0, 1.0, 3.0, 100.0]), 3.5);
        assert_eq!(p50(&[9.0, 1.0, 3.0, 2.0, 5.0, 0.0]), 2.75);
        assert!(p50(&[]).is_nan());
    }

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let p = permutation(9, 5);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_eq!(p, permutation(9, 5));
        assert_ne!(p, permutation(9, 6));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"));
    }
}
