//! Sample summaries and the bound comparison `compare` applies.

use crate::json::Json;

/// Median, quartiles, range and count of one metric's samples. A few dozen
/// samples support no tail percentile, so none is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// First and third quartile (linear interpolation between samples).
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |q: f64| {
            let at = q * (n - 1) as f64;
            let (lo, frac) = (at.floor() as usize, at.fract());
            v[lo] + frac * (v[(lo + 1).min(n - 1)] - v[lo])
        };
        Some(Summary {
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
            min: v[0],
            max: v[n - 1],
            n,
        })
    }

    /// A quantity that was computed, not sampled.
    pub fn single(x: f64) -> Summary {
        Summary {
            median: x,
            q1: x,
            q3: x,
            min: x,
            max: x,
            n: 1,
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("value", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<(Summary, String)> {
        Some((
            Summary {
                median: j.get("value")?.as_f64()?,
                q1: j.get("q1")?.as_f64()?,
                q3: j.get("q3")?.as_f64()?,
                min: j.get("min")?.as_f64()?,
                max: j.get("max")?.as_f64()?,
                n: j.get("n")?.as_f64()? as usize,
            },
            j.get("unit")?.as_str()?.to_string(),
        ))
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing a change's samples with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is within the bound of the parent's.
    Ok,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// The medians are within the bound, but one side's own spread (the
    /// distance between its quartiles) is wider than the bound, so
    /// "unchanged" is not shown.
    Unresolved,
}

/// Apply `bound` (a share of the parent's median) to one metric.
pub fn judge(parent: &Summary, change: &Summary, better: Better, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let (p, c) = match better {
        Better::Lower => (*parent, *change),
        Better::Higher => (flip(parent), flip(change)),
    };
    if c.median > p.median + bound * p.median.abs() {
        return Verdict::Regression;
    }
    let spread = |s: &Summary| (s.q3 - s.q1) / s.median.abs();
    let noisy = spread(&p) > bound || spread(&c) > bound;
    let every_run_better = c.max < p.min;
    if noisy && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn flip(s: &Summary) -> Summary {
    Summary {
        median: -s.median,
        q1: -s.q3,
        q3: -s.q1,
        min: -s.max,
        max: -s.min,
        n: s.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!((s.q1, s.q3), (1.5, 2.5));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert!(Summary::of(&[]).is_none());
    }

    fn tight(x: f64) -> Summary {
        Summary {
            median: x,
            q1: x * 0.995,
            q3: x * 1.005,
            min: x * 0.99,
            max: x * 1.01,
            n: 9,
        }
    }

    #[test]
    fn bound_is_a_share_of_the_parents_median() {
        let p = tight(1.0);
        assert_eq!(judge(&p, &tight(1.09), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&p, &tight(1.11), Better::Lower, 0.10),
            Verdict::Regression
        );
        assert_eq!(judge(&p, &tight(0.5), Better::Lower, 0.10), Verdict::Ok);
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(&p, &tight(0.85), Better::Higher, 0.10),
            Verdict::Regression
        );
        assert_eq!(judge(&p, &tight(1.5), Better::Higher, 0.10), Verdict::Ok);
        // A zero bound fails any worsening.
        assert_eq!(
            judge(&p, &tight(1.001), Better::Lower, 0.0),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_ranges_are_unresolved_unless_every_run_is_better() {
        let wide = Summary {
            median: 1.0,
            q1: 0.9,
            q3: 1.15,
            min: 0.8,
            max: 1.3,
            n: 9,
        };
        assert_eq!(
            judge(&wide, &tight(1.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(&wide, &tight(0.5), Better::Lower, 0.10), Verdict::Ok);
        // A regression stays a regression however noisy the parent was.
        assert_eq!(
            judge(&wide, &tight(1.2), Better::Lower, 0.10),
            Verdict::Regression
        );
    }

    #[test]
    fn summary_json_round_trip() {
        let s = Summary::of(&[0.1234567890123, 0.2, 0.3]).unwrap();
        let j = Json::parse(&s.to_json("s").encode()).unwrap();
        assert_eq!(Summary::from_json(&j).unwrap(), (s, "s".to_string()));
    }
}
