//! Fixed-bin histograms for the distribution figures (Tables IV, Figs. 6, 10, 11).

/// A histogram over `[lo, hi)` with uniformly sized bins.
///
/// Out-of-range samples are clamped into the first/last bin so that totals
/// are conserved (the paper's popularity/sociability axes are bounded and we
/// never want to silently drop samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` bins covering `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of one bin.
    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Index of the bin a value falls into (clamped).
    fn bin_of(&self, x: f64) -> usize {
        if x <= self.lo {
            return 0;
        }
        let idx = ((x - self.lo) / self.bin_width()) as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        let idx = self.bin_of(x);
        self.counts[idx] += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Center of bin `i` (useful as plot x-coordinate).
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Fraction of samples in each bin (empty histogram ⇒ all zeros).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram bins mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Per-bin mean of a y-value keyed by an x-value — the "recall vs popularity"
/// (Fig. 10) and "F1 vs sociability" (Fig. 11) shape: bucket items/users by x
/// and average their y within each bucket. A [`Histogram`] of x plus the sum
/// of y in each of its bins.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMean {
    x: Histogram,
    sums: Vec<f64>,
}

impl BinnedMean {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Self {
            x: Histogram::new(lo, hi, bins),
            sums: vec![0.0; bins],
        }
    }

    /// Records a `(x, y)` observation.
    pub fn record(&mut self, x: f64, y: f64) {
        let i = self.x.bin_of(x);
        self.x.counts[i] += 1;
        self.sums[i] += y;
    }

    /// `(bin center, mean y, samples)` for every non-empty bin.
    pub fn rows(&self) -> Vec<(f64, f64, u64)> {
        self.sums
            .iter()
            .zip(self.x.counts())
            .enumerate()
            .filter(|(_, (_, &c))| c > 0)
            .map(|(i, (&s, &c))| (self.x.bin_center(i), s / c as f64, c))
            .collect()
    }

    /// Fraction of all samples per bin (the background distribution curves in
    /// Figs. 10–11).
    pub fn distribution(&self) -> Vec<(f64, f64)> {
        self.x
            .fractions()
            .into_iter()
            .enumerate()
            .map(|(i, frac)| (self.x.bin_center(i), frac))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_into_correct_bin() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(0.05);
        h.record(0.95);
        h.record(0.5);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(7.0);
        h.record(1.0); // hi is exclusive; clamps to last bin
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 2);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        a.record(0.1);
        let mut b = Histogram::new(0.0, 1.0, 2);
        b.record(0.9);
        b.record(0.8);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_geometry_mismatch() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let b = Histogram::new(0.0, 2.0, 2);
        a.merge(&b);
    }

    #[test]
    fn binned_mean_rows() {
        let mut bm = BinnedMean::new(0.0, 1.0, 2);
        bm.record(0.1, 1.0);
        bm.record(0.2, 3.0);
        bm.record(0.9, 10.0);
        let rows = bm.rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(rows[0].2, 2);
        assert!((rows[1].1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn binned_mean_distribution_sums_to_one() {
        let mut bm = BinnedMean::new(0.0, 1.0, 4);
        for i in 0..8 {
            bm.record(i as f64 / 8.0, 0.0);
        }
        let total: f64 = bm.distribution().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn totals_conserved(samples in prop::collection::vec(-2.0f64..3.0, 0..200)) {
            let mut h = Histogram::new(0.0, 1.0, 7);
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.total(), samples.len() as u64);
        }

        #[test]
        fn bin_of_in_range(x in -1e3f64..1e3) {
            let h = Histogram::new(-10.0, 10.0, 13);
            prop_assert!(h.bin_of(x) < 13);
        }
    }
}
