//! Integration check for §V-G (Fig. 9): the centralized variant trades
//! recall for precision and ends up slightly ahead in F1; the decentralized
//! system stays within a modest gap.

use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::{Protocol, Runner, SimConfig};

#[test]
fn centralized_trades_recall_for_precision() {
    let d = survey::generate(&SurveyConfig::paper().scaled(0.25), 42);
    let cfg = SimConfig {
        cycles: 40,
        publish_from: 3,
        measure_from: 14,
        ..Default::default()
    };
    let run = |p| Runner::new(&d, p).config(cfg.clone()).run();
    let c = run(Protocol::CWhatsUp { f_like: 10 });
    let w = run(Protocol::WhatsUp { f_like: 10 });
    let (cs, ws) = (c.scores(), w.scores());
    assert!(
        cs.precision > ws.precision,
        "global knowledge must boost precision: centralized {cs:?} vs whatsup {ws:?}"
    );
    assert!(
        cs.recall < ws.recall,
        "serendipity-free server must trail in recall: centralized {cs:?} vs whatsup {ws:?}"
    );
    // Paper: "WhatsUp decreases the quality of the dissemination by only 5%
    // when compared to its centralized version". Allow slack for scale.
    let gap = (cs.f1 - ws.f1) / cs.f1.max(1e-9);
    assert!(
        gap.abs() < 0.25,
        "F1 gap should be modest: centralized {:.3} vs whatsup {:.3}",
        cs.f1,
        ws.f1
    );
}
