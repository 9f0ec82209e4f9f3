//! Scalar statistics used throughout the experiment harnesses.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Linear-interpolated percentile (`q` in `[0, 100]`) of an unsorted slice.
/// Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Five-number style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub p50: f64,
    pub p95: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample; all fields are 0 for an empty slice.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self::default();
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            count: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min,
            p50: percentile(xs, 50.0),
            p95: percentile(xs, 95.0),
            max,
        }
    }
}

/// Online mean/variance accumulator (Welford). Useful in hot loops where
/// materializing a `Vec<f64>` per series would churn the allocator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1); 0 for fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = Welford { n, mean, m2 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std-dev of this classic dataset is sqrt(32/7).
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 3.0, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [0.5, 1.5, 2.5, -3.0, 10.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        let mut a = Welford::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = Welford::new();
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert!((a.mean() - mean(&all)).abs() < 1e-12);
        assert!((a.std_dev() - std_dev(&all)).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn percentile_is_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..100), q in 0.0f64..100.0) {
            let p = percentile(&xs, q);
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p >= min - 1e-9 && p <= max + 1e-9);
        }

        #[test]
        fn welford_merge_any_split(xs in prop::collection::vec(-1e3f64..1e3, 2..60), split in 0usize..60) {
            let split = split.min(xs.len());
            let mut a = Welford::new();
            xs[..split].iter().for_each(|&x| a.push(x));
            let mut b = Welford::new();
            xs[split..].iter().for_each(|&x| b.push(x));
            a.merge(&b);
            prop_assert!((a.mean() - mean(&xs)).abs() < 1e-6);
            prop_assert!((a.std_dev() - std_dev(&xs)).abs() < 1e-6);
        }
    }
}
