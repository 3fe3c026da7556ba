//! Online mean / standard-deviation estimation (Welford's recurrences,
//! Eq. 1–2 of the paper).

/// Online estimator of mean and standard deviation.
///
/// Implements the recurrences the paper cites from Knuth:
/// `M_k = M_{k-1} + (x_k - M_{k-1}) / k` and
/// `S_k = S_{k-1} + (x_k - M_{k-1})(x_k - M_k)`, with
/// `sigma = sqrt(S_k / (k - 1))` for `k >= 2`.
///
/// # Examples
///
/// ```
/// use mavfi_detect::welford::Welford;
///
/// let mut stats = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.push(x);
/// }
/// assert!((stats.mean() - 5.0).abs() < 1e-12);
/// assert!((stats.std_dev() - 2.138089935299395).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    s: f64,
}

impl Welford {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if self.count == 1 {
            self.mean = x;
            self.s = 0.0;
        } else {
            let previous_mean = self.mean;
            self.mean += (x - previous_mean) / self.count as f64;
            self.s += (x - previous_mean) * (x - self.mean);
        }
    }

    /// Current mean (0 before any sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current sample standard deviation (0 for fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.s / (self.count - 1) as f64).sqrt()
        }
    }

    /// Combines two estimators as if every sample of both had been pushed
    /// into one (Chan et al.'s pairwise recurrence).  This is what lets
    /// telemetry collected by parallel campaign workers be reduced into a
    /// single baseline without replaying samples.
    ///
    /// # Examples
    ///
    /// ```
    /// use mavfi_detect::welford::Welford;
    ///
    /// let (mut left, mut right, mut all) = (Welford::new(), Welford::new(), Welford::new());
    /// for x in [1.0, 2.0, 3.0] { left.push(x); all.push(x); }
    /// for x in [10.0, 20.0] { right.push(x); all.push(x); }
    /// let merged = left.merge(&right);
    /// assert_eq!(merged.count(), all.count());
    /// assert!((merged.mean() - all.mean()).abs() < 1e-12);
    /// assert!((merged.std_dev() - all.std_dev()).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn merge(&self, other: &Welford) -> Welford {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let count = self.count + other.count;
        let (n1, n2, n) = (self.count as f64, other.count as f64, count as f64);
        let delta = other.mean - self.mean;
        Welford {
            count,
            mean: self.mean + delta * (n2 / n),
            // Both `s` terms and the cross term are non-negative, so the
            // merged sum of squared deviations can never go negative.
            s: self.s + other.s + delta * delta * (n1 * n2 / n),
        }
    }

    /// Number of standard deviations `x` lies away from the mean, or 0 when
    /// the estimator has no spread yet.
    pub fn z_score(&self, x: f64) -> f64 {
        let std = self.std_dev();
        if std <= f64::EPSILON {
            0.0
        } else {
            (x - self.mean) / std
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_batch_statistics() {
        let data = [1.5, -2.0, 0.25, 7.5, 3.25, -1.0, 2.0];
        let mut online = Welford::new();
        for &x in &data {
            online.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let variance: f64 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((online.mean() - mean).abs() < 1e-12);
        assert!((online.std_dev() - variance.sqrt()).abs() < 1e-12);
        assert_eq!(online.count(), data.len() as u64);
    }

    #[test]
    fn few_samples_have_zero_std() {
        let mut stats = Welford::new();
        assert_eq!(stats.std_dev(), 0.0);
        stats.push(5.0);
        assert_eq!(stats.std_dev(), 0.0);
        assert_eq!(stats.mean(), 5.0);
        assert_eq!(stats.z_score(100.0), 0.0);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut stats = Welford::new();
        stats.push(1.0);
        stats.push(f64::NAN);
        stats.push(f64::INFINITY);
        stats.push(3.0);
        assert_eq!(stats.count(), 2);
        assert!((stats.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut stats = Welford::new();
        for x in [4.0, -1.5, 2.25] {
            stats.push(x);
        }
        assert_eq!(stats.merge(&Welford::new()), stats);
        assert_eq!(Welford::new().merge(&stats), stats);
        assert_eq!(Welford::new().merge(&Welford::new()), Welford::new());
    }

    #[test]
    fn merge_matches_single_pass() {
        let first = [1.0, 2.0, 3.5, -0.5];
        let second = [100.0, 101.0];
        let (mut a, mut b, mut all) = (Welford::new(), Welford::new(), Welford::new());
        for &x in &first {
            a.push(x);
            all.push(x);
        }
        for &x in &second {
            b.push(x);
            all.push(x);
        }
        let merged = a.merge(&b);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.std_dev() - all.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn z_score_flags_outliers() {
        let mut stats = Welford::new();
        for i in 0..100 {
            stats.push((i % 5) as f64);
        }
        assert!(stats.z_score(2.0).abs() < 1.0);
        assert!(stats.z_score(1000.0) > 10.0);
    }
}
