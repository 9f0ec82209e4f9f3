//! The counting paths of `whatsup_core::similarity` once the process-wide
//! slot table is full. Filling it changes what every later profile of the
//! process can build, so this is the only test of its binary.

use whatsup_core::prelude::*;
use whatsup_core::profile::slot_table_bytes;
use whatsup_core::similarity::{reference, Prepared};

fn entries(ids: impl IntoIterator<Item = u64>, score: impl Fn(u64) -> f32) -> Profile {
    Profile::from_vec(
        ids.into_iter()
            .map(|item| ProfileEntry {
                item,
                timestamp: 0,
                score: score(item),
            })
            .collect(),
    )
}

fn assert_matches_reference(pn: &Profile, candidates: &[&Profile]) {
    let scorer = Prepared::new(pn);
    for pc in candidates {
        // Twice: the second score is the one a candidate has planes for.
        for _ in 0..2 {
            assert_eq!(
                scorer.score(Metric::Wup, pc).to_bits(),
                reference::wup_similarity(pn, pc).to_bits()
            );
            assert_eq!(
                scorer.score(Metric::Cosine, pc).to_bits(),
                reference::cosine_similarity(pn, pc).to_bits()
            );
        }
    }
}

#[test]
fn a_full_slot_table_declines_what_it_does_not_know() {
    let binary = |item: u64| if item.is_multiple_of(3) { 0.0 } else { 1.0 };
    let averaged = |item: u64| (item % 9) as f32 / 8.0;
    // Two snapshots registered while there is room.
    let known = [entries(0..200, binary), entries(100..260, binary)];
    for pc in &known {
        assert_matches_reference(&known[0], &[pc]);
        assert!(pc.plane_bytes() > 0);
    }
    // Fill the table: binary profiles of 4096 never-seen ids, scored twice
    // each so that they register, until one gets no planes any more.
    let mut next = 1u64 << 32;
    loop {
        let filler = entries(next..next + 4_096, binary);
        next += 4_096;
        assert_matches_reference(&filler, &[&filler]);
        if filler.plane_bytes() == 0 {
            break;
        }
        assert!(next < (1 << 32) + (1 << 20), "the table is bounded");
    }
    let full = slot_table_bytes();

    // An item profile is still weighed over the ids the table knows: one
    // it has no room for is rated by no candidate that has planes, and the
    // candidate that does rate it (`unplaced`) is walked. Either way the
    // reference's bits.
    let stranger = 1u64 << 50;
    let item_profiles = [
        entries(50..250, averaged),
        entries((50..250).chain([stranger]), averaged),
    ];
    // A binary profile holding the stranger gets no planes, on either side.
    let unplaced = entries((150..250).chain([stranger]), binary);
    let candidates = [&known[0], &known[1], &unplaced];
    for pn in item_profiles.iter().chain([&known[0], &unplaced]) {
        assert_matches_reference(pn, &candidates);
    }
    assert_eq!(unplaced.plane_bytes(), 0);
    assert_eq!(slot_table_bytes(), full, "a full table does not grow");
}
