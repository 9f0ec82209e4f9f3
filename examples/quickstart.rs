//! Quickstart: simulate WhatsUp against homogeneous gossip on a small
//! survey-like workload and print the quality/cost numbers.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use whatsup::prelude::*;

fn main() {
    // 1. A workload: ~120 users rating ~250 news items (scaled-down survey
    //    trace; see whatsup_datasets for the three paper workloads).
    let dataset = whatsup::datasets::survey::generate(&SurveyConfig::paper().scaled(0.25), 42);
    println!(
        "workload: {} users, {} items, mean like rate {:.2}",
        dataset.n_users(),
        dataset.n_items(),
        dataset.likes.like_rate()
    );

    // 2. A simulation shape: 65 gossip cycles, items published throughout,
    //    metrics over items published after the clustering ramp, on one
    //    engine shard (results are bit-identical for every shard count).
    let cfg = SimConfig {
        cycles: 65,
        publish_from: 3,
        measure_from: 20,
        shards: 1,
        ..Default::default()
    };

    // 3. Compare WhatsUp with a classic flood-style gossip at equal fanout.
    //    `Runner` is the one entry point for every protocol and workload.
    let mut table = TextTable::new(
        "WhatsUp vs homogeneous gossip",
        &["protocol", "precision", "recall", "F1", "msgs/user"],
    );
    for protocol in [
        Protocol::WhatsUp { f_like: 10 },
        Protocol::Gossip { fanout: 10 },
    ] {
        let report = Runner::new(&dataset, protocol).config(cfg.clone()).run();
        let s = report.scores();
        table.row(&[
            report.protocol.clone(),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
            format!("{:.3}", s.f1),
            format!("{:.0}", report.messages_per_user()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "WhatsUp should deliver a similar recall at much higher precision and a \
         fraction of the traffic — the paper's Table III in miniature."
    );

    // 4. The same protocol under a harsher, serializable scenario: a
    //    flash-crowd publication burst over a bursty Gilbert–Elliott
    //    channel with a mid-run crash wave. (Scenarios round-trip through
    //    JSON — see `scenarios/flash_crowd_crash_wave.json` and the
    //    `whatsup-sim` CLI.)
    let stress = Scenario::default()
        .with_workload(Workload::FlashCrowd {
            at: 30,
            fraction: 0.25,
        })
        .with_environment(Environment {
            loss: LossModel::GilbertElliott {
                p_good: 0.02,
                p_bad: 0.4,
                good_to_bad: 0.15,
                bad_to_good: 0.5,
            },
            churn: ChurnModel::CrashWave {
                at: 35,
                fraction: 0.1,
            },
        });
    let report = Runner::new(&dataset, Protocol::WhatsUp { f_like: 10 })
        .config(cfg)
        .scenario(stress)
        .run();
    let s = report.scores();
    println!(
        "\nflash crowd + bursty loss + crash wave: precision {:.3}, recall {:.3} \
         (graceful degradation, §V-E)",
        s.precision, s.recall
    );
}
