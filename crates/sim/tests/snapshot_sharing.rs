//! Disclosed profiles keep no copy of their entries. A node discloses a
//! snapshot of its profile every cycle, and views keep several versions
//! of each node's profile alive; a snapshot is packed into the bit planes
//! it is scored with and one timestamp per entry, so the versions a run
//! pins cost a fraction of the entries they hold. This pins that by a
//! count of bytes the snapshots own, which — unlike RSS — does not depend
//! on the allocator or the machine.

use std::collections::BTreeSet;
use std::sync::Arc;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::{Protocol, Runner, SimConfig};

/// Bytes of one ⟨id, t, s⟩ entry held flat.
const ENTRY_BYTES: usize = 16;

/// After a 20-cycle survey run, the pinned snapshots — each counted once —
/// own at most half the bytes their entries take held flat, and every
/// one of them is packed: its own bytes are its planes and 4 bytes an
/// entry.
#[test]
fn pinned_snapshots_are_packed() {
    let d = survey::generate(&SurveyConfig::paper().scaled(0.12), 42);
    let cfg = SimConfig {
        cycles: 20,
        publish_from: 2,
        measure_from: 5,
        seed: 7,
        ..Default::default()
    };
    let mut sim = Runner::new(&d, Protocol::WhatsUp { f_like: 4 })
        .config(cfg)
        .build();
    for _ in 0..20 {
        sim.step();
    }
    let mut snapshots = BTreeSet::new();
    let (mut logical, mut owned) = (0usize, 0usize);
    for id in 0..sim.n_nodes() as u32 {
        let views = sim.node(id).views_snapshot();
        for d in views.rps_view.iter().chain(&views.wup_view) {
            if !snapshots.insert(Arc::as_ptr(&d.payload)) {
                continue;
            }
            let (entries, bytes) = (d.payload.len(), d.payload.heap_bytes());
            assert_eq!(bytes, 4 * entries + d.payload.plane_bytes(), "not packed");
            logical += entries * ENTRY_BYTES;
            owned += bytes;
        }
    }
    assert!(
        logical > 10_000 * ENTRY_BYTES,
        "{logical} pinned entry bytes: too small a run to tell"
    );
    let ratio = owned as f64 / logical as f64;
    eprintln!("owned/flat pinned bytes: {owned}/{logical} = {ratio:.3}");
    assert!(ratio <= 0.5, "{owned} bytes own {logical} bytes of entries");
}
