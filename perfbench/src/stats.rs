//! The order statistics the benchmark reports and judges by.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method, which is what the driver uses); a single value
/// is all three of its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [x[0]; 3],
        _ => {}
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    match x.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => x[n / 2],
        n => (x[n / 2 - 1] + x[n / 2]) / 2.0,
    }
}

pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

pub fn slowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Interquartile distance as a share of the median — the driver's measure
/// of how steady ten runs are.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(values, n=4), default (exclusive) method.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]),
            [4.0, 5.0, 9.0]
        );
        assert_eq!(quartiles(&[6.5]), [6.5; 3]);
    }

    #[test]
    fn spread_is_interquartile_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(fastest(&ten), 1.0);
    }
}
