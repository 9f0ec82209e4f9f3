//! Disclosed profiles keep no copy of their entries. A node discloses a
//! snapshot of its profile every cycle, and views keep several versions
//! of each node's profile alive; a snapshot is packed into the bit planes
//! it is scored with alone — its timestamps are its items' creation
//! times, which the run's item index keeps — so the versions a run pins
//! cost a fraction of the entries they hold. This pins that by a count of
//! bytes the snapshots own, which — unlike RSS — does not depend on the
//! allocator or the machine.

use std::collections::BTreeSet;
use std::sync::Arc;
use whatsup_core::SharedProfile;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::{Protocol, Runner, ScenarioFile, SimConfig, Simulation};

/// Bytes of one ⟨id, t, s⟩ entry held flat.
const ENTRY_BYTES: usize = 16;

/// Every snapshot pinned in a view of `sim`, each counted once.
fn pinned(sim: &Simulation) -> Vec<SharedProfile> {
    let mut seen = BTreeSet::new();
    let mut snapshots = Vec::new();
    for id in 0..sim.n_nodes() as u32 {
        let views = sim.node(id).views_snapshot();
        for d in views.rps_view.into_iter().chain(views.wup_view) {
            if seen.insert(Arc::as_ptr(&d.payload)) {
                snapshots.push(d.payload);
            }
        }
    }
    snapshots
}

/// After a 20-cycle survey run, the pinned snapshots own at most a
/// twelfth of the bytes their entries take held flat, and every one of
/// them is packed: its own bytes are its planes.
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
    let (mut logical, mut owned) = (0usize, 0usize);
    for snapshot in pinned(&sim) {
        let (entries, bytes) = (snapshot.len(), snapshot.heap_bytes());
        assert_eq!(bytes, snapshot.plane_bytes(), "not packed: {snapshot:?}");
        logical += entries * ENTRY_BYTES;
        owned += bytes;
    }
    assert!(
        logical > 10_000 * ENTRY_BYTES,
        "{logical} pinned entry bytes: too small a run to tell"
    );
    let ratio = owned as f64 / logical as f64;
    eprintln!("owned/flat pinned bytes: {owned}/{logical} = {ratio:.3}");
    assert!(
        ratio <= 1.0 / 12.0,
        "{owned} bytes own {logical} bytes of entries"
    );
}

/// Over the committed flash-crowd + crash-wave scenario — loss, a crash
/// wave, a join, an interest swap and a reset among its cycles — every
/// entry of every node's profile and of every pinned snapshot is stamped
/// with its item's creation time, at every cycle: no snapshot stays flat
/// for its timestamps.
#[test]
fn every_entry_of_the_committed_scenario_is_stamped_at_its_creation() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/flash_crowd_crash_wave.json"
    );
    let text = std::fs::read_to_string(path).expect("committed scenario file");
    let file = ScenarioFile::from_json_str(&text).expect("committed scenario parses");
    let dataset = file.dataset.build();
    let mut sim = Runner::new(&dataset, file.protocol)
        .config(file.config.clone())
        .scenario(file.scenario.clone())
        .build();
    let mut checked = 0;
    for _ in 0..file.config.cycles {
        sim.step();
        let index = sim.oracle().id_map();
        let snapshots = pinned(&sim);
        let own = (0..sim.n_nodes() as u32).map(|id| sim.node(id).profile());
        for profile in own.chain(snapshots.iter().map(|p| &**p)) {
            for e in profile.entries() {
                let slot = *index.get(&e.item).expect("an item of the run");
                assert_eq!(e.timestamp, index.created_at(slot), "{e:?}");
                checked += 1;
            }
        }
    }
    assert!(
        checked > 1_000,
        "{checked} entries: too small a run to tell"
    );
}
