//! A real WhatsUp swarm: one UDP socket per user on the loopback interface,
//! live dissemination, and the paper's bandwidth breakdown (Fig. 8b).
//!
//! Run with:
//! ```sh
//! cargo run --release --example news_swarm
//! ```

use whatsup::prelude::*;

fn main() -> std::io::Result<()> {
    let dataset = whatsup::datasets::survey::generate(&SurveyConfig::paper().scaled(0.2), 7);
    let cfg = SimConfig {
        cycles: 25,
        publish_from: 2,
        measure_from: 8,
        ..Default::default()
    };
    println!(
        "spinning up {} peers (one UDP socket each) for {} items, {} cycles of 120 ms…",
        dataset.n_users(),
        dataset.n_items(),
        cfg.cycles
    );
    let run = Runner::new(&dataset, Protocol::WhatsUp { f_like: 6 })
        .config(cfg)
        .deploy(Fabric::Udp, 120)?;

    let s = run.report.scores();
    println!(
        "\ndelivery quality over {} measured items ({:.1} s of wall-clock time):",
        run.report.measured_items(),
        run.wall_s
    );
    println!(
        "  precision {:.3}  recall {:.3}  F1 {:.3}",
        s.precision, s.recall, s.f1
    );
    let t = run.traffic;
    let kbps = |bytes| TrafficSnapshot::kbps_per_node(bytes, run.report.n_nodes, run.wall_s);
    println!("\ntraffic ({} messages total):", t.total_msgs());
    println!(
        "  BEEP (news)     {:>8.1} Kbps/node  ({} msgs)",
        kbps(t.news_bytes),
        t.news_msgs
    );
    println!(
        "  WUP+RPS (views) {:>8.1} Kbps/node  ({} msgs)",
        kbps(t.wup_layer_bytes()),
        t.rps_msgs + t.wup_msgs
    );
    println!("  total           {:>8.1} Kbps/node", kbps(t.total_bytes()));
    println!(
        "\nAs in the paper (Fig. 8b), the news traffic grows with the fanout \
         while the implicit social network costs a steady overlay rate."
    );
    Ok(())
}
