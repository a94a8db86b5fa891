//! Percentiles, metric names and the result line.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a percentile before the
/// benchmark treats it as measured rather than as a guess.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least [`MIN_BEYOND`] samples lie beyond the rank:
    /// a p99 needs 1000 samples, a p50 needs 20.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `samples`, which are
/// sorted in place. `None` for an empty set.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: samples[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The smallest sample count at which percentile `q` is resolved.
#[cfg(test)]
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("some count resolves every q < 100")
}

/// Metric names: a letter or digit first, then up to 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named, unit-tagged measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark run prints as its last line.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result object on one line. Values print with every digit
    /// (`{}` on f64 round-trips exactly).
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // Integral values still print as JSON numbers with a point so
            // every value reads back as a float.
            let value = if m.value.fract() == 0.0 && m.value.abs() < 1e15 {
                format!("{:.1}", m.value)
            } else {
                format!("{}", m.value)
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&mut xs, 99.0).unwrap();
        assert_eq!((p.value, p.n, p.beyond), (990.0, 1000, 10));
        assert!(p.resolved());

        let mut xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let p = percentile(&mut xs, 99.0).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.resolved());

        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn percentile_sorts_and_handles_edges() {
        let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut xs, 50.0).unwrap().value, 3.0);
        assert_eq!(percentile(&mut xs, 100.0).unwrap().value, 5.0);
        assert_eq!(percentile(&mut xs, 0.1).unwrap().value, 1.0);
        assert!(percentile(&mut [], 50.0).is_none());
    }

    #[test]
    fn names_follow_the_charset() {
        for ok in ["setup_s", "semantic.encode.ns", "a", "9-x", &"n".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "tick%", "é", &"n".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn printed_result_parses_back() {
        let report = Report {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "tick_p50_ms".into(),
                    unit: "ms",
                    value: 3.2517,
                },
                Metric {
                    name: "setup_s".into(),
                    unit: "s",
                    value: 2.0,
                },
                Metric {
                    name: "tiny".into(),
                    unit: "ratio",
                    value: 1.5e-9,
                },
            ],
        };
        let line = report.to_json().unwrap();
        let parsed = crate::json::parse(&line).expect("result line is JSON");
        let obj = parsed.as_object().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = obj[3].1.as_object().unwrap();
        assert_eq!(metrics.len(), 3);
        let tick = metrics[0].1.as_object().unwrap();
        assert_eq!(tick[0].1.as_number(), Some(3.2517));
        assert_eq!(
            metrics[2].1.as_object().unwrap()[0].1.as_number(),
            Some(1.5e-9)
        );
    }

    #[test]
    fn bad_metrics_are_refused() {
        let bad = |name: &str, value: f64| Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: name.into(),
                unit: "s",
                value,
            }],
        };
        assert!(bad("ok", f64::NAN).to_json().is_err());
        assert!(bad("no spaces", 1.0).to_json().is_err());
        let mut dup = bad("x", 1.0);
        dup.metrics.push(dup.metrics[0].clone());
        assert!(dup.to_json().is_err());
    }
}
