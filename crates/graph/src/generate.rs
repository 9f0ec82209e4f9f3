//! Random structure for the dataset substrates: [`community_sizes`] draws
//! community sizes in a fixed range matching the Arxiv decomposition used
//! by the paper (21 communities, 31–1036 users).

use rand::Rng;

/// Draws `count` community sizes uniformly in `[min_size, max_size]`, then
/// rescales them so they sum to exactly `total` (each stays ≥ 1).
pub fn community_sizes(
    count: usize,
    min_size: usize,
    max_size: usize,
    total: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    assert!(count > 0 && min_size <= max_size);
    assert!(total >= count, "need at least one user per community");
    let mut sizes: Vec<usize> = (0..count)
        .map(|_| rng.gen_range(min_size..=max_size))
        .collect();
    let sum: usize = sizes.iter().sum();
    // Rescale proportionally, then distribute the rounding remainder.
    let mut scaled: Vec<usize> = sizes
        .iter()
        .map(|&s| ((s as f64 / sum as f64) * total as f64).floor().max(1.0) as usize)
        .collect();
    let mut assigned: usize = scaled.iter().sum();
    let mut i = 0;
    while assigned < total {
        scaled[i % count] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > total {
        let j = i % count;
        if scaled[j] > 1 {
            scaled[j] -= 1;
            assigned -= 1;
        }
        i += 1;
    }
    sizes.copy_from_slice(&scaled);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn community_sizes_sum_to_total() {
        let sizes = community_sizes(21, 31, 1036, 3180, &mut rng());
        assert_eq!(sizes.len(), 21);
        assert_eq!(sizes.iter().sum::<usize>(), 3180);
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn community_sizes_exact_fit() {
        let sizes = community_sizes(4, 1, 1, 4, &mut rng());
        assert_eq!(sizes, vec![1, 1, 1, 1]);
    }
}
