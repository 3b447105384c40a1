//! Named metrics with units, and small timing/statistics helpers.

use ppr_sim::results::Json;
use std::time::Instant;

/// An insertion-ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a metric; a name recorded twice keeps the last value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.rows.iter_mut().find(|(n, _, _)| n == name) {
            Some(row) => {
                row.1 = value;
                row.2 = unit;
            }
            None => self.rows.push((name.to_string(), value, unit)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|r| r.1)
    }

    /// Every recorded name, in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.rows.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// `{"<name>": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.rows
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::num(*v)),
                            ("unit".into(), Json::str(*u)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Runs `f` and adds its host time, in seconds, to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Median of a sample (mean of the middle pair for even counts); 0 for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn put_overwrites_and_keeps_order() {
        let mut m = Metrics::new();
        m.put("b", 1.0, "s");
        m.put("a", 2.0, "count");
        m.put("b", 3.0, "s");
        assert_eq!(m.names(), vec!["b", "a"]);
        assert_eq!(m.get("b"), Some(3.0));
        assert_eq!(
            m.to_json().render(),
            r#"{"b":{"value":3,"unit":"s"},"a":{"value":2,"unit":"count"}}"#
        );
    }
}
