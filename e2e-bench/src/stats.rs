//! Order statistics over a run's samples and the regression verdict that
//! `compare` prints.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (the mean of the middle two for an even count); NaN when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The first and third quartiles by the exclusive method, exactly as
/// Python's `statistics.quantiles(xs, n=4)` computes them (including its
/// extrapolation below five samples). One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let len = s.len() as i64;
    if len < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The highest percentile that still has at least ten samples above it,
/// and its value: the k-th smallest of n samples has n − k above it, so
/// k = n − 10. `None` with ten samples or fewer.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (n > 10).then(|| {
        let k = n - 10;
        (100.0 * k as f64 / n as f64, s[k - 1])
    })
}

/// How a change's samples compare with the parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the parent's own spread (or, with a wide
    /// spread, every change sample beats every parent sample).
    Better,
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound, so the
    /// difference cannot be judged.
    Unresolved,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent`. `bound` is the share of the parent's
/// median by which the metric may worsen.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (a, b) = (median(parent), median(change));
    let worse_by = if higher_is_better { a - b } else { b - a } / a.abs();
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| beats(x, y)));
    if spread(parent).max(spread(change)) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread(parent) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// Reference values from CPython's `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // Below five samples Python extrapolates past the extremes.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 is the 90th of 100 samples: 91..=100 lie beyond it.
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: 5% worse is within a 10% bound, 20% is not.
        let close = [105.0, 104.5, 105.5, 105.0, 104.0];
        assert_eq!(verdict(&parent, &close, false, 0.10), Verdict::Within);
        let far = [120.0, 121.0, 119.5, 120.0, 120.5];
        assert_eq!(verdict(&parent, &far, false, 0.10), Verdict::Worse);
        // Higher is better flips the direction.
        assert_eq!(verdict(&parent, &far, true, 0.10), Verdict::Better);
        assert_eq!(verdict(&far, &parent, true, 0.10), Verdict::Worse);
        // A spread wider than the bound is unresolved unless every change
        // sample beats every parent sample.
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&parent, &noisy, false, 0.10), Verdict::Unresolved);
        let clearly = [10.0, 12.0, 30.0, 11.0, 20.0];
        assert_eq!(verdict(&parent, &clearly, false, 0.10), Verdict::Better);
        // Identical samples are within bound, not better.
        assert_eq!(verdict(&parent, &parent, false, 0.10), Verdict::Within);
    }
}
