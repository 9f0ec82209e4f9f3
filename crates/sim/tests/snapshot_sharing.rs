//! Disclosed profiles share their owner's past cycles. A node discloses a
//! snapshot of its profile every cycle, and views keep several versions
//! of each node's profile alive; held as frozen runs, one per disclosure,
//! the versions of one node share every entry they have in common. This
//! pins that sharing by a count of entries, which — unlike RSS — does not
//! depend on the allocator or the machine.

use std::collections::BTreeSet;
use std::sync::Arc;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::{Protocol, Runner, SimConfig};

/// After a 20-cycle survey run, the entries the views pin — each run
/// counted once — are at most half of the entries the pinned snapshots
/// hold between them, each snapshot counted once.
#[test]
fn pinned_snapshots_share_their_runs() {
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
    let (mut snapshots, mut runs) = (BTreeSet::new(), BTreeSet::new());
    let (mut logical, mut distinct) = (0usize, 0usize);
    for id in 0..sim.n_nodes() as u32 {
        let views = sim.node(id).views_snapshot();
        for d in views.rps_view.iter().chain(&views.wup_view) {
            if !snapshots.insert(Arc::as_ptr(&d.payload)) {
                continue;
            }
            logical += d.payload.len();
            // A flat snapshot is one run of its own.
            distinct += d.payload.len() - d.payload.runs().iter().map(|r| r.len()).sum::<usize>();
            for run in d.payload.runs() {
                if runs.insert(run.as_ptr()) {
                    distinct += run.len();
                }
            }
        }
    }
    assert!(
        logical > 10_000,
        "{logical} pinned entries: too small a run to tell"
    );
    let ratio = distinct as f64 / logical as f64;
    eprintln!("distinct/logical pinned entries: {distinct}/{logical} = {ratio:.3}");
    assert!(
        ratio <= 0.5,
        "{distinct} distinct of {logical} pinned entries"
    );
}
