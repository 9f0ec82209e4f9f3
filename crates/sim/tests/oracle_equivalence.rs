//! Property tests pinning the sparse (CSR) like store bit-identical to
//! the dense bit-plane behind the [`Oracle`] API: same `likes` answers on
//! arbitrary matrices, same ground-truth profiles, and — end to end —
//! byte-equal reports when a full simulation runs with the representation
//! forced each way. The engine may pick either form by byte cost at any
//! scale, so every observable must be representation-blind.

use proptest::prelude::*;
use whatsup_core::Opinions;
use whatsup_datasets::{survey, CsrLikes, LikeMatrix, LikeStore, SurveyConfig};
use whatsup_sim::Simulation;
use whatsup_sim::{Oracle, Protocol, SimConfig};

/// A pseudo-random like matrix: like iff a SplitMix-style mix of
/// `(seed, user, item)` clears `density` (0–255 ≈ 0–100%).
fn matrix(n_users: usize, n_items: usize, seed: u64, density: u8) -> LikeMatrix {
    let mut m = LikeMatrix::new(n_users, n_items);
    for u in 0..n_users {
        for i in 0..n_items {
            let mut z = seed ^ (u as u64) << 32 ^ i as u64;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            if (z ^ (z >> 31)) as u8 <= density {
                m.set(u, i, true);
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR answers `likes` exactly like the bit-plane it was built from,
    /// across densities from empty to full.
    #[test]
    fn csr_matches_dense_on_arbitrary_matrices(
        n_users in 1usize..40,
        n_items in 1usize..120,
        seed in 0u64..1_000,
        density in 0u16..256,
    ) {
        let m = matrix(n_users, n_items, seed, density as u8);
        let c = CsrLikes::from_matrix(&m);
        prop_assert_eq!(c.n_users(), m.n_users());
        prop_assert_eq!(c.n_items(), m.n_items());
        for u in 0..n_users {
            for i in 0..n_items {
                prop_assert_eq!(c.likes(u, i), m.likes(u, i), "({}, {})", u, i);
            }
        }
    }

    /// The oracle answers identically through either store, including the
    /// row-alias operations (joins, interest swaps) layered on top.
    #[test]
    fn oracle_is_representation_blind(
        seed in 0u64..1_000,
        density in 0u16..201,
        swap in (0u32..30, 0u32..30),
        clone_of in 0u32..30,
    ) {
        let m = matrix(30, 50, seed, density as u8);
        let map = whatsup_core::ItemIndexMap::from_iter(
            (0..50).map(|i| (1_000 + i as u64, i)),
        );
        let mut dense = Oracle::new_forced(m.clone(), map.clone(), false);
        let mut sparse = Oracle::new_forced(m, map, true);
        assert!(matches!(dense.store(), LikeStore::Dense(_)));
        assert!(matches!(sparse.store(), LikeStore::Sparse(_)));
        let j = dense.add_clone_of(clone_of);
        prop_assert_eq!(sparse.add_clone_of(clone_of), j);
        dense.swap_interests(swap.0, swap.1);
        sparse.swap_interests(swap.0, swap.1);
        for node in 0..31u32 {
            for item in 0..50u64 {
                prop_assert_eq!(
                    dense.likes(node, 1_000 + item),
                    sparse.likes(node, 1_000 + item),
                    "node {} item {}", node, item
                );
            }
        }
        for idx in 0..50u32 {
            prop_assert_eq!(dense.interested(idx), sparse.interested(idx));
        }
    }
}

/// End to end on the committed survey workload: a full simulation forced
/// onto the dense store and one forced onto CSR produce byte-equal
/// reports and identical ground-truth profiles — the report-level pin
/// that makes the byte-cost choice invisible.
#[test]
fn forced_stores_produce_identical_reports() {
    let dataset = survey::generate(&SurveyConfig::paper().scaled(0.12), 42);
    let cfg = SimConfig {
        cycles: 12,
        publish_from: 2,
        measure_from: 5,
        shards: 2,
        ..Default::default()
    };
    let protocol = Protocol::WhatsUp { f_like: 5 };
    let dense = Simulation::new_with_forced_store(&dataset, protocol, cfg.clone(), false);
    let sparse = Simulation::new_with_forced_store(&dataset, protocol, cfg, true);
    assert!(matches!(dense.oracle().store(), LikeStore::Dense(_)));
    assert!(matches!(sparse.oracle().store(), LikeStore::Sparse(_)));

    let mut dense = dense;
    let mut sparse = sparse;
    for _ in 0..12 {
        dense.step();
        sparse.step();
    }
    for id in 0..dataset.n_users() as u32 {
        assert_eq!(
            dense.ground_truth_profile(id),
            sparse.ground_truth_profile(id),
            "ground truth diverged for node {id}"
        );
    }
    let dense = dense.into_report();
    let sparse = sparse.into_report();
    assert_eq!(
        dense, sparse,
        "dense and sparse stores must report identically"
    );
}
