//! Order statistics, the process's peak memory, and the JSON the benchmark
//! prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of unsorted samples, by the rule the serve
/// layer and the metrics registry share (`protoacc_trace::nearest_rank`).
/// Returns 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[protoacc_trace::nearest_rank(p, sorted.len())]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Smallest sample (infinity for none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Folds one repeat of per-unit timings into the running per-unit
/// minimum: each timed unit's fastest repeat so far.
pub fn fold_min(fastest: &mut Vec<f64>, repeat: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(repeat);
    } else {
        for (f, &r) in fastest.iter_mut().zip(repeat) {
            *f = f.min(r);
        }
    }
}

/// Spread of one metric over the trials of a run.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// Quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, so spreads printed here read
    /// the same as spreads computed over whole runs.
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (min, max) = (
            v.first().copied().unwrap_or(0.0),
            v.last().copied().unwrap_or(0.0),
        );
        let quartile = |i: usize| -> f64 {
            if n < 2 {
                return min;
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            // Unclamped, as in Python: for two samples it extrapolates.
            let delta = (i * m) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Spread {
            n,
            min,
            q1: quartile(1),
            median: median(&v),
            q3: quartile(3),
            max,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One named metric of a run: its per-run value, unit, and (when it was
/// measured per trial) the spread over trials.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<Spread>,
}

/// Ordered metric table.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// A single measured or counted value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                spread: None,
            },
        );
    }

    /// A value measured once per trial: reports the median over trials
    /// and keeps the spread for the report line.
    pub fn put_trials(&mut self, name: &str, per_trial: &[f64], unit: &'static str) {
        let spread = Spread::of(per_trial);
        self.0.insert(
            name.to_string(),
            Metric {
                value: spread.median,
                unit,
                spread: Some(spread),
            },
        );
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over the given names.
    pub fn to_json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = &self.0[*name];
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// Every metric with its unit and, where measured per trial, its
    /// spread (`n`, min, quartiles, max).
    pub fn to_report_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"",
                num(m.value),
                m.unit
            );
            if let Some(s) = m.spread {
                let _ = write!(
                    out,
                    ", \"trials\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}",
                    s.n,
                    num(s.min),
                    num(s.q1),
                    num(s.median),
                    num(s.q3),
                    num(s.max)
                );
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A JSON number: full precision, and never NaN or infinity.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 98.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
