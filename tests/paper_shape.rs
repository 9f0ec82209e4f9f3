//! Cross-crate integration tests: the paper's qualitative claims at reduced
//! scale. These are the headline relationships every figure/table rests on;
//! the magnitudes are pinned by the `paper` bench harness in `BENCH_paper.json`.

use whatsup::prelude::*;
use whatsup::sim::pool_map;

fn survey(scale: f64, seed: u64) -> Dataset {
    whatsup::datasets::survey::generate(&SurveyConfig::paper().scaled(scale), seed)
}

fn cfg() -> SimConfig {
    SimConfig {
        cycles: 40,
        publish_from: 3,
        measure_from: 14,
        ..Default::default()
    }
}

/// `protocol` on `d` in the shared run shape, under constant message loss
/// `p` (paper §V-E).
fn run_lossy(d: &Dataset, protocol: Protocol, p: f64) -> SimReport {
    Runner::new(d, protocol)
        .config(cfg())
        .scenario(Scenario::default().with_environment(Environment {
            loss: LossModel::Constant { p },
            churn: ChurnModel::None,
        }))
        .run()
}

/// `protocol` on `d` in the shared run shape, on a lossless network.
fn run(d: &Dataset, protocol: Protocol) -> SimReport {
    run_lossy(d, protocol, 0.0)
}

#[test]
fn wup_metric_beats_cosine_on_f1() {
    let d = survey(0.25, 11);
    let wup = run(&d, Protocol::WhatsUp { f_like: 8 });
    let cos = run(&d, Protocol::WhatsUpCos { f_like: 8 });
    assert!(
        wup.scores().f1 >= cos.scores().f1 - 0.02,
        "§V-A: the WUP metric should not lose to cosine: {:?} vs {:?}",
        wup.scores(),
        cos.scores()
    );
    // And it does so primarily through recall (paper: +15% on the survey).
    assert!(
        wup.scores().recall > cos.scores().recall,
        "recall advantage missing: {:?} vs {:?}",
        wup.scores(),
        cos.scores()
    );
}

#[test]
fn beep_beats_cf_at_low_fanout_and_cost() {
    // §V-B / Fig 3: WhatsUp reaches higher F1 "with lower fanouts and
    // message costs". The gap is widest at small fanouts, where CF's
    // k-nearest topology is still fragmented but BEEP's dislike path
    // already routes items across it.
    let d = survey(0.25, 12);
    let wu = run(&d, Protocol::WhatsUp { f_like: 5 });
    let cf = run(&d, Protocol::CfWup { k: 5 });
    assert!(
        wu.scores().f1 > cf.scores().f1,
        "§V-B: amplification+orientation must beat plain CF at small fanout: {:?} vs {:?}",
        wu.scores(),
        cf.scores()
    );
    // Table III compares each approach at its best config: WhatsUp at
    // fLIKE=10 matches CF-Wup at k=19 in F1 with far fewer messages
    // ("less than two thirds the message cost").
    let wu10 = run(&d, Protocol::WhatsUp { f_like: 10 });
    let cf19 = run(&d, Protocol::CfWup { k: 19 });
    assert!(
        wu10.scores().f1 + 0.05 >= cf19.scores().f1,
        "best-config F1 must be comparable: {:?} vs {:?}",
        wu10.scores(),
        cf19.scores()
    );
    assert!(
        wu10.messages_per_user() < 0.8 * cf19.messages_per_user(),
        "WhatsUp must be much cheaper at its best config: {:.0} vs {:.0} msgs/user",
        wu10.messages_per_user(),
        cf19.messages_per_user()
    );
}

#[test]
fn gossip_has_best_recall_worst_precision() {
    let d = survey(0.25, 13);
    let go = run(&d, Protocol::Gossip { fanout: 6 });
    let wu = run(&d, Protocol::WhatsUp { f_like: 6 });
    assert!(go.scores().recall >= wu.scores().recall - 0.02);
    assert!(go.scores().precision < wu.scores().precision);
    // Flooding precision sits at the mean like rate of the workload.
    let like_rate = d.likes.like_rate();
    assert!(
        (go.scores().precision - like_rate).abs() < 0.1,
        "gossip precision {:.3} should approach the like rate {:.3}",
        go.scores().precision,
        like_rate
    );
}

#[test]
fn whatsup_needs_fewer_messages_than_gossip() {
    let d = survey(0.25, 14);
    let go = run(&d, Protocol::Gossip { fanout: 10 });
    let wu = run(&d, Protocol::WhatsUp { f_like: 10 });
    assert!(
        wu.messages_per_user() < go.messages_per_user(),
        "Table III: WhatsUp must be cheaper: {} vs {}",
        wu.messages_per_user(),
        go.messages_per_user()
    );
}

#[test]
fn f1_grows_with_fanout_then_plateaus() {
    let d = survey(0.2, 15);
    let f1 = pool_map(&[2, 6, 12], |&f_like| {
        run(&d, Protocol::WhatsUp { f_like }).scores().f1
    });
    assert!(f1[1] > f1[0], "F1 should rise from starved fanouts: {f1:?}");
    let (gain_low, gain_high) = (f1[1] - f1[0], f1[2] - f1[1]);
    assert!(
        gain_high < gain_low + 0.05,
        "diminishing returns expected at high fanout: {f1:?}"
    );
}

#[test]
fn cascade_on_digg_trades_recall_for_nothing() {
    let d = whatsup::datasets::digg::generate(&DiggConfig::paper().scaled(0.2), 16);
    let cascade = run(&d, Protocol::Cascade);
    let wu = run(&d, Protocol::WhatsUp { f_like: 10 });
    // Table V: comparable precision, much lower recall for cascade.
    assert!(
        cascade.scores().recall < wu.scores().recall / 1.5,
        "cascade recall should collapse: {:?} vs {:?}",
        cascade.scores(),
        wu.scores()
    );
    assert!(wu.scores().f1 > cascade.scores().f1);
}

#[test]
fn pubsub_has_full_recall_but_lower_precision_than_whatsup() {
    let d = survey(0.25, 17);
    let ps = run(&d, Protocol::CPubSub);
    let wu = run(&d, Protocol::WhatsUp { f_like: 10 });
    assert!((ps.scores().recall - 1.0).abs() < 1e-9);
    assert!(
        wu.scores().precision > ps.scores().precision,
        "Table V: implicit filtering should beat topic granularity: {:?} vs {:?}",
        wu.scores(),
        ps.scores()
    );
}

#[test]
fn loss_tolerance_shape_of_table_vi() {
    let d = survey(0.2, 18);
    let f6_clean = run(&d, Protocol::WhatsUp { f_like: 6 });
    let f6_lossy = run_lossy(&d, Protocol::WhatsUp { f_like: 6 }, 0.2);
    let f3_very = run_lossy(&d, Protocol::WhatsUp { f_like: 3 }, 0.5);
    // 20% loss at fanout 6: negligible recall damage (paper: 0.82 → 0.80).
    assert!(
        f6_lossy.scores().recall > f6_clean.scores().recall - 0.15,
        "fanout-6 redundancy should absorb 20% loss: {:?} vs {:?}",
        f6_lossy.scores(),
        f6_clean.scores()
    );
    // 50% loss at fanout 3: collapse (paper: recall 0.07).
    assert!(
        f3_very.scores().recall < 0.45,
        "fanout-3 must collapse at 50% loss: {:?}",
        f3_very.scores()
    );
}

#[test]
fn synthetic_communities_reach_high_precision() {
    let d = whatsup::datasets::synthetic::generate(&SyntheticConfig::paper().scaled(0.1), 19);
    let wu = run(&d, Protocol::WhatsUp { f_like: 10 });
    // Disjoint communities are the easy case (Fig. 3a): precision far above
    // the global like rate.
    assert!(
        wu.scores().precision > 2.0 * d.likes.like_rate(),
        "precision {:.3} vs like rate {:.3}",
        wu.scores().precision,
        d.likes.like_rate()
    );
}
