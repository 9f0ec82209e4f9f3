//! Generate the three paper workloads and inspect their first-order
//! statistics (Table I plus the distributions the substitutions are
//! calibrated against — paper §IV-A).
//!
//! Run with:
//! ```sh
//! cargo run --release --example dataset_explorer [scale]
//! ```

use whatsup::metrics::Histogram;
use whatsup::prelude::*;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.5)
        .clamp(0.02, 1.0);
    let datasets = whatsup::datasets::paper_workloads(scale, 42);

    let mut table = TextTable::new(
        format!("Table I at scale {scale:.2}"),
        &[
            "name",
            "users",
            "news",
            "topics",
            "like rate",
            "social graph",
        ],
    );
    for d in &datasets {
        let s = d.stats();
        table.row(&[
            s.name.clone(),
            s.n_users.to_string(),
            s.n_items.to_string(),
            s.n_topics.to_string(),
            format!("{:.3}", s.like_rate),
            if s.has_social_graph {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    println!("{}", table.render());

    for d in &datasets {
        let mut hist = Histogram::new(0.0, 1.0, 10);
        for i in 0..d.n_items() {
            hist.record(d.likes.popularity(i));
        }
        println!("{} — item popularity distribution:", d.name);
        let fractions = hist.fractions();
        for (i, f) in fractions.iter().enumerate() {
            let bar = "#".repeat((f * 120.0) as usize);
            println!("  {:>4.2} |{bar} {:.3}", hist.bin_center(i), f);
        }
        if let Some(g) = &d.social {
            let degrees: Vec<usize> = (0..g.len() as u32).map(|u| g.out_degree(u)).collect();
            let max = degrees.iter().max().copied().unwrap_or(0);
            let mean = degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64;
            println!("  social graph: mean degree {mean:.1}, hub degree {max}");
        }
        println!();
    }
    println!(
        "Shapes to check: synthetic = block communities (bimodal popularity), \
         digg = category-driven, survey = niche-heavy with a viral tail (Fig. 10)."
    );
}
