//! Order statistics over small samples: medians, quartiles and tail percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the exclusive
//! method), because that is the rule the benchmark's spread check is stated in.

use crate::json::{as_f64, get, Json, Value};

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(values)?;
        Some(Summary {
            median,
            q1,
            q3,
            n: values.len(),
        })
    }

    /// A metric measured once: the value is its own median and quartiles.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The form a summary takes in detail lines and results files.
    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Int(self.n as u64)),
            ("unit", Json::str(unit)),
        ])
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_value(value: &Value) -> Option<Summary> {
        let field = |key| get(value, key).and_then(as_f64);
        Some(Summary {
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
            n: field("n")? as usize,
        })
    }

    /// Inter-quartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` by the exclusive method: the cut points of `n + 1` equal
/// probability intervals, linearly interpolated and clamped to the sample range.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((v[0], v[0], v[0]));
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The highest percentile of `values` that still has at least `beyond` samples above
/// it, as `(percentile, value)`. With 1000 samples and `beyond = 10` this is the 99th
/// percentile. `None` when that percentile would not lie above the median (no more
/// than `2 * beyond` samples): such a sample has no tail to speak of.
pub fn tail_percentile(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n <= 2 * beyond {
        return None;
    }
    let idx = n - beyond - 1;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20, 40, 60]
        let v: Vec<f64> = (1..=7).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(quartiles(&v), Some((20.0, 40.0, 60.0)));
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0, 5.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::single(7.0).spread(), 0.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
        let text = s.to_json("ms").compact();
        let parsed = crate::json::parse_json(&text).expect("parses");
        assert_eq!(Summary::from_value(&parsed), Some(s));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v, 10).unwrap();
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-12);
        // 136 cells: the 126th sorted sample has exactly ten above it.
        let v: Vec<f64> = (1..=136).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v, 10).unwrap();
        assert_eq!(value, 126.0);
        assert!(pct > 92.0 && pct < 93.0);
        assert_eq!(tail_percentile(&v[..20], 10), None);
        assert_eq!(
            tail_percentile(&v[..21], 10),
            Some((100.0 * 11.0 / 21.0, 11.0))
        );
    }
}
