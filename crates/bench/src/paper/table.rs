//! [`TABLE`]: the ids of the paper harness — each declares its job grid,
//! its pins next to the paper's published numbers, and the rest of its
//! figure.

use super::Data::{Digg, Survey, Survey245, Synthetic};
use super::{Board, Ctx, Data, Entry, Job, Observe, Outcome, Sample, Stat, Tol, SEED};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use whatsup_core::Params;
use whatsup_metrics::{mean, std_dev, Series, SeriesSet};
use whatsup_net::TrafficSnapshot;
use whatsup_sim::analysis::{self, BinnedSeries, MeanSeries, OverlayStats};
use whatsup_sim::record::HopProfile;
use whatsup_sim::scenario::{ChurnModel, Event, LossModel, TimedEvent};
use whatsup_sim::{Fabric, Protocol, Runner, Scenario, SimReport};

pub static TABLE: &[Entry] = &[
    Entry {
        id: "fig3",
        title: "F1 and message cost vs fanout: four metric/protocol combinations, three datasets",
        declare: fig3,
    },
    Entry {
        id: "fig4",
        title: "WUP overlay vs fanout: LSCC, components, clustering (survey, §V-A)",
        declare: fig4,
    },
    Entry {
        id: "fig5",
        title: "impact of the BEEP dislike TTL (survey, fLIKE=10)",
        declare: fig5,
    },
    Entry {
        id: "fig6",
        title: "dissemination actions by hop distance (survey, fLIKE=5)",
        declare: fig6,
    },
    Entry {
        id: "fig7",
        title: "cold start and interest change: joining and changing nodes, WUP vs cosine",
        declare: fig7,
    },
    Entry {
        id: "fig8",
        title: "deployment: simulation vs emulated fabric vs lossy UDP swarm (wall-clock)",
        declare: fig8,
    },
    Entry {
        id: "fig9",
        title: "centralized (global knowledge) vs decentralized: F1 vs fanout (survey)",
        declare: fig9,
    },
    Entry {
        id: "fig10",
        title: "recall vs item popularity, WhatsUp vs CF-Wup (survey)",
        declare: fig10,
    },
    Entry {
        id: "fig11",
        title: "per-user F1 vs sociability (survey)",
        declare: fig11,
    },
    Entry {
        id: "table1",
        title: "workloads",
        declare: table1,
    },
    Entry {
        id: "table2",
        title: "per-node parameter defaults",
        declare: table2,
    },
    Entry {
        id: "table3",
        title: "best performance of each approach (survey)",
        declare: table3,
    },
    Entry {
        id: "table4",
        title: "fraction of liked news received after n dislike forwards (survey)",
        declare: table4,
    },
    Entry {
        id: "table5",
        title: "WhatsUp vs explicit dissemination: cascade (Digg), C-Pub/Sub (survey)",
        declare: table5,
    },
    Entry {
        id: "table6",
        title: "performance under message loss, % lost × fanout (survey)",
        declare: table6,
    },
    Entry {
        id: "ablations",
        title: "what each BEEP mechanism and parameter choice buys (survey, fLIKE=10)",
        declare: ablations,
    },
];

/// Band of a ratio in `[0, 1]` (precision, recall, F1, fractions).
const RATIO: Tol = Tol::Abs(0.03);
/// Band of a message count.
const COUNT: Tol = Tol::Rel(0.08);
/// Band of a whole number that must not move.
const EXACT: Tol = Tol::Abs(0.1);

fn whatsup(f_like: usize) -> Protocol {
    Protocol::WhatsUp { f_like }
}

fn survey_job(protocol: Protocol) -> Job {
    Job::paper(Survey, protocol)
}

/// The run eight ids read: the survey under WhatsUp at its best fanout.
fn whatsup10() -> Job {
    survey_job(whatsup(10))
}

fn f1(report: &SimReport) -> f64 {
    report.scores().f1
}

/// `p` at each of `fanouts` on `data`.
fn sweep(data: Data, p: Protocol, fanouts: &[usize]) -> Vec<Job> {
    let at = |&f| Job::paper(data, p.with_fanout(f));
    fanouts.iter().map(at).collect()
}

/// Best F1 over a fanout sweep — the ordering the paper's narrative rests on.
fn best_f1(sweep: &[&Outcome]) -> f64 {
    sweep.iter().map(|o| f1(&o.report)).fold(0.0, f64::max)
}

/// Renders labelled curves as aligned columns over the union of their x.
fn curves(title: &str, x: &str, y: &str, curves: Vec<(String, Vec<(f64, f64)>)>) -> String {
    let mut set = SeriesSet::new(title, x, y);
    for (label, points) in curves {
        set.add(Series { label, points });
    }
    set.render()
}

/// Renders a binned scatter and the distribution of its samples over the bins.
fn bins(x: &str, y: &str, (rows, distribution): &(BinnedSeries, MeanSeries)) -> String {
    let mut out = format!("{x:>12} {y:>12} {:>8} {:>10}\n", "samples", "of all");
    for (x, fraction) in distribution {
        let bin = rows.iter().find(|bin| bin.0 == *x);
        let (y, n) = bin.map_or(("-".into(), 0), |bin| (format!("{:.3}", bin.1), bin.2));
        let _ = writeln!(out, "{x:>12.2} {y:>12} {n:>8} {fraction:>10.3}");
    }
    out
}

// --- Figs. 3–5: fanout, overlay and TTL sweeps ---

/// The four metric × protocol combinations of Figs. 3–4.
const METRICS: [Protocol; 4] = [
    Protocol::CfWup { k: 0 },
    Protocol::CfCos { k: 0 },
    Protocol::WhatsUp { f_like: 0 },
    Protocol::WhatsUpCos { f_like: 0 },
];

fn fig3(_: &Ctx, b: &mut Board) {
    let panels: [(Data, &str, &[usize]); 3] = [
        (Synthetic, "synthetic", &[5, 10, 15, 20, 30, 45]),
        (Digg, "digg", &[5, 10, 15, 20, 25]),
        (Survey, "survey", &[5, 10, 15, 20, 25, 30]),
    ];
    let curves: [(&str, Tol, Stat<SimReport>); 2] = [
        ("f1", RATIO, f1),
        ("msgs", COUNT, SimReport::messages_per_cycle_per_node),
    ];
    for (data, name, fanouts) in panels {
        for (what, tol, y) in curves {
            for (&f, p) in fanouts.iter().flat_map(|f| METRICS.map(|p| (f, p))) {
                let key = format!("{name}.{what}.f{f}.{}", p.label());
                b.pin(key, tol, None, &Job::paper(data, p.with_fanout(f)), y);
            }
        }
        for p in METRICS {
            let key = format!("{name}.best_f1.{}", p.label());
            b.pin_over(key, RATIO, None, &sweep(data, p, fanouts), best_f1);
        }
    }
    b.note(
        "paper shape: WhatsUp ≥ WhatsUp-Cos ≥ CF-Wup ≥ CF-Cos in F1 at equal fanout; WhatsUp \
         reaches its plateau at lower message cost (msgs: news messages per cycle per node).",
    );
}

fn fig4(_: &Ctx, b: &mut Board) {
    let columns: [(&str, Tol, Stat<OverlayStats>); 3] = [
        ("lscc", Tol::Abs(0.05), |s| s.lscc_fraction),
        ("components", Tol::Abs(1.0), |s| s.components as f64),
        ("clustering", RATIO, |s| s.clustering_coefficient),
    ];
    // §V-A: average number of connected components at fanout 3.
    for (p, paper_components) in METRICS.into_iter().zip([2.6, 14.3, 1.6, 12.4]) {
        for f in [2, 3, 4, 6, 8, 10, 12] {
            let mut job = survey_job(p.with_fanout(f));
            job.observe = Observe::Overlay;
            for (column, tol, stat) in columns {
                let paper = (column == "components" && f == 3).then_some(paper_components);
                let key = format!("{}.f{f}.{column}", p.label());
                let overlay = |o: &[&Outcome]| stat(&o[0].overlay.expect("an overlay job"));
                b.pin_over(key, tol, paper, std::slice::from_ref(&job), overlay);
            }
        }
    }
    b.note(
        "paper: clustering 0.15 (WUP) vs 0.40 (cosine); LSCC complete at f≈10 (WUP) vs f≈15 \
         (cosine).",
    );
}

fn fig5(_: &Ctx, b: &mut Board) {
    for ttl in [0u8, 1, 2, 4, 6, 8] {
        let job = whatsup10().with(|c| c.ttl_override = Some(ttl));
        b.scores(&format!("ttl{ttl}"), &job, [None; 3]);
    }
    b.note("paper shape: low TTL starves recall; TTL > 4 brings no further gain.");
}

// --- Fig. 6: hops ---

fn fig6(_: &Ctx, b: &mut Board) {
    let (job, hops) = (survey_job(whatsup(5)), Tol::Abs(0.3));
    b.pin("mean_hop.infection", hops, Some(5.0), &job, |r| {
        r.hop_profile(30).mean_infection_hop()
    });
    // The four curves of the figure: nodes per item at hop 0, 1, …
    type Curve = fn(HopProfile) -> Vec<f64>;
    let figure: [(&str, Curve); 4] = [
        ("forward_like", |p| p.forward_like),
        ("infection_like", |p| p.infection_like),
        ("forward_dislike", |p| p.forward_dislike),
        ("infection_dislike", |p| p.infection_dislike),
    ];
    for (name, curve) in figure {
        b.pin(format!("mean_hop.{name}"), hops, None, &job, |r| {
            let nodes = curve(r.hop_profile(30));
            let weighted: f64 = nodes.iter().enumerate().map(|(h, n)| h as f64 * n).sum();
            weighted / nodes.iter().sum::<f64>()
        });
    }
    b.text(|r| {
        let set = figure.map(|(name, curve)| {
            let nodes = curve(r.get(&job).report.hop_profile(30));
            let points = nodes.iter().enumerate().map(|(h, &n)| (h as f64, n));
            (name.to_string(), points.collect())
        });
        curves("Fig 6 — nodes per item", "hops", "nodes", set.to_vec())
    });
    b.note("paper shape: a bell with a non-negligible dislike contribution.");
}

// --- Fig. 7: dynamics ---

/// Cycle at which the joiner enters and the pair swaps interests; the run
/// lasts twice as long.
const FIG7_EVENT_AT: u32 = 60;
/// Positions in a [`Sample`].
const REFERENCE: usize = 0;
const JOINING: usize = 1;
const CHANGING: usize = 2;

/// Repetition `rep` of the §V-C choreography as a scenario timeline: at
/// `FIG7_EVENT_AT` a node joins with the interests of a random reference
/// node, then a random pair (distinct from it) swaps interests.
fn fig7_job(ctx: &Ctx, p: Protocol, rep: u64) -> Job {
    let mut job = survey_job(p).with(|c| {
        c.cycles = 2 * FIG7_EVENT_AT;
        c.measure_from = 10;
        c.seed = SEED.wrapping_add(rep.wrapping_mul(0x9e37_79b9));
    });
    let n = ctx.data(Survey).n_users() as u32;
    let mut pick = ChaCha8Rng::seed_from_u64(job.cfg.seed ^ 0xd1a9);
    let reference = pick.gen_range(0..n);
    let (mut a, mut b) = (pick.gen_range(0..n), pick.gen_range(0..n));
    while a == reference {
        a = pick.gen_range(0..n);
    }
    while b == reference || b == a {
        b = pick.gen_range(0..n);
    }
    let events = [
        Event::JoinClone { reference },
        Event::SwapInterests { a, b },
    ];
    let at = FIG7_EVENT_AT;
    job.scenario.events = events.map(|event| TimedEvent { at, event }).to_vec();
    // Joiners take the next free id, and this run has exactly one.
    job.observe = Observe::Watch([reference, n, a]);
    job
}

/// The per-cycle samples averaged over the repetitions.
fn mean_trace(repetitions: &[&Outcome]) -> Vec<Sample> {
    let mut mean = vec![[(0.0, 0.0); 3]; 2 * FIG7_EVENT_AT as usize];
    let k = repetitions.len() as f64;
    for o in repetitions {
        for (acc, sample) in mean.iter_mut().zip(&o.trace) {
            for (a, s) in acc.iter_mut().zip(sample) {
                *a = (a.0 + s.0 / k, a.1 + s.1 / k);
            }
        }
    }
    mean
}

/// Cycles after `from` at which `node`'s view similarity first stays at or
/// above 80 % of the reference node's for three consecutive cycles
/// (single-cycle touches are view-churn noise). Never within the run reads
/// as the length of the run after the event.
fn convergence(trace: &[Sample], node: usize, from: u32) -> f64 {
    let attained = |s: &Sample| s[REFERENCE].0 > 0.0 && s[node].0 >= 0.8 * s[REFERENCE].0;
    let mut windows = trace[from as usize..].windows(3);
    let at = windows.position(|w| w.iter().all(attained));
    at.map_or(f64::from(FIG7_EVENT_AT), |at| at as f64)
}

fn fig7(ctx: &Ctx, b: &mut Board) {
    // Independent repetitions averaged over: 30 at the paper's scale (the
    // paper uses 100), 10 at the default one.
    let repeats = ((30.0 * ctx.scale) as u64).max(2);
    let repetitions = |p| {
        (0..repeats)
            .map(|rep| fig7_job(ctx, p, rep))
            .collect::<Vec<_>>()
    };
    // The paper's join and change convergence cycles (cosine: "> 100").
    let runs = [
        (Protocol::WhatsUp { f_like: 10 }, [20.0, 40.0]),
        (Protocol::WhatsUpCos { f_like: 10 }, [100.0, 100.0]),
    ]
    .map(|(p, paper)| (p.label(), paper, repetitions(p)));
    for (i, (row, node)) in [("join_cycles", JOINING), ("change_cycles", CHANGING)]
        .into_iter()
        .enumerate()
    {
        for (label, paper, jobs) in &runs {
            let key = format!("{row}.{label}");
            b.pin_over(key, Tol::Abs(5.0), Some(paper[i]), jobs, |o| {
                convergence(&mean_trace(o), node, FIG7_EVENT_AT + i as u32)
            });
        }
    }
    b.note(&format!(
        "cycles to a view 80% as similar as the reference node's ({FIG7_EVENT_AT} = not within \
         the run); {repeats} repetitions per protocol"
    ));
    for (label, _, jobs) in &runs {
        b.text(|r| {
            let mut out = format!(
                "--- {label} (event at cycle {FIG7_EVENT_AT}) ---\n{:>6} {:>10} {:>10} {:>10} {:>10}\n",
                "cycle", "ref-sim", "join-sim", "chg-sim", "join-liked"
            );
            let trace = mean_trace(&jobs.iter().map(|j| r.get(j)).collect::<Vec<_>>());
            for (c, s) in trace.iter().enumerate().filter(|(c, _)| c % 10 == 0) {
                let _ = writeln!(
                    out,
                    "{c:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.2}",
                    s[REFERENCE].0, s[JOINING].0, s[CHANGING].0, s[JOINING].1
                );
            }
            out
        });
    }
}

// --- Fig. 8: deployment ---

/// Wall-clock length of one swarm cycle in Fig. 8.
const FIG8_CYCLE_MS: u64 = 70;

/// Renders, but pins nothing: the two swarms tick against the wall clock,
/// one after the other (their peer threads must not share the machine).
fn fig8(ctx: &Ctx, b: &mut Board) {
    let fanouts = [2, 4, 6, 9, 12];
    // The testbed's trace is short: "very fast gossip and news-generation
    // cycles of 30 sec" with a 4-minute (8-cycle) profile window (§V-D).
    // The simulation and both swarms run exactly this config.
    let simulated: Vec<Job> = sweep(Survey245, whatsup(0), &fanouts)
        .into_iter()
        .map(|job| {
            job.with(|cfg| {
                cfg.cycles = 22;
                cfg.publish_from = 2;
                cfg.measure_from = 8;
                cfg.profile_window = Some(8);
            })
        })
        .collect();
    b.jobs.extend_from_slice(&simulated);
    b.text(|r| {
        let dataset = ctx.data(Survey245);
        let legend = ["Simulation", "ModelNet", "PlanetLab (UDP+loss)"];
        let mut f1_curves = legend.map(|label| (label.to_string(), Vec::new()));
        let mut bandwidth = format!(
            "Fig 8b — bandwidth per node (emulated fabric):\n{:>7} {:>12} {:>10} {:>10}\n",
            "fanout", "total Kbps", "WUP", "BEEP"
        );
        for (f, job) in fanouts.into_iter().zip(&simulated) {
            let runner = Runner::new(dataset, job.protocol).config(job.cfg.clone());
            let emu = runner.clone().deploy(Fabric::Emulated, FIG8_CYCLE_MS);
            let emu = emu.expect("emulated fabric");
            // PlanetLab analogue: real sockets + 25% loss (the paper
            // measured up to 30% effective loss at small fanouts).
            let mut lossy = Scenario::default();
            lossy.environment.loss = LossModel::Constant { p: 0.25 };
            let udp = runner.scenario(lossy).deploy(Fabric::Udp, FIG8_CYCLE_MS);
            let udp = udp.expect("loopback UDP");
            let measured = [&r.get(job).report, &emu.report, &udp.report].map(f1);
            for (curve, y) in f1_curves.iter_mut().zip(measured) {
                curve.1.push((f as f64, y));
            }
            let kbps = |bytes| TrafficSnapshot::kbps_per_node(bytes, dataset.n_users(), emu.wall_s);
            let t = &emu.traffic;
            let (total, wup, news) = (t.total_bytes(), t.wup_layer_bytes(), t.news_bytes);
            let (total, wup, news) = (kbps(total), kbps(wup), kbps(news));
            let _ = writeln!(bandwidth, "{f:>7} {total:>12.1} {wup:>10.1} {news:>10.1}");
        }
        let (users, items) = (dataset.n_users(), dataset.n_items());
        format!("testbed population: {users} users, {items} items\n\n")
            + &curves("Fig 8a — F1 vs fanout", "fanout", "F1", f1_curves.to_vec())
            + "\n"
            + &bandwidth
    });
    b.note(
        "shape to check: simulation ≈ ModelNet; the lossy UDP swarm trails at small fanouts and \
         catches up once redundancy covers the loss (paper §V-D); news traffic grows linearly \
         with fanout and dominates the overlay maintenance cost (paper §V-F).",
    );
}

// --- Figs. 9–11: centralized, popularity, sociability ---

fn fig9(_: &Ctx, b: &mut Board) {
    let fanouts = [2, 4, 6, 8, 10, 12, 14];
    // The paper's legend and the protocol behind it.
    let legend = [
        ("Centralized", Protocol::CWhatsUp { f_like: 0 }),
        ("WhatsUp", Protocol::WhatsUp { f_like: 0 }),
        ("WhatsUp-Cos", Protocol::WhatsUpCos { f_like: 0 }),
    ];
    for (f, (name, p)) in fanouts.iter().flat_map(|&f| legend.map(|row| (f, row))) {
        let job = survey_job(p.with_fanout(f));
        b.pin(format!("f{f}.{name}"), RATIO, None, &job, f1);
    }
    let sweeps = legend.map(|(_, p)| sweep(Survey, p, &fanouts));
    for ((name, _), sweep) in legend.iter().zip(&sweeps) {
        b.pin_over(format!("best_f1.{name}"), RATIO, None, sweep, best_f1);
    }
    let both = [&sweeps[0][..], &sweeps[1][..]].concat();
    b.pin_over("centralized_gap", RATIO, Some(0.05), &both, |o| {
        let (centralized, decentralized) = o.split_at(fanouts.len());
        (best_f1(centralized) - best_f1(decentralized)) / best_f1(centralized)
    });
    b.note("centralized_gap: relative best-F1 loss of going decentralized.");
}

fn fig10(ctx: &Ctx, b: &mut Board) {
    let recalls = |r: &SimReport| -> Vec<f64> {
        let measured = r.items.iter().filter(|item| item.measured);
        measured.map(|item| item.outcome().recall()).collect()
    };
    let by_popularity = |r: &SimReport| analysis::recall_vs_popularity(r, ctx.data(Survey), 10);
    for p in [Protocol::WhatsUp { f_like: 10 }, Protocol::CfWup { k: 19 }] {
        // What the paper discusses but does not plot (§V-H): the gain on
        // niche content (popularity < 0.5), the dispersion of the per-item
        // recall, and the items "almost completely out of the
        // dissemination" (recall < 0.2).
        let (label, job) = (p.label(), survey_job(p));
        b.pin(format!("{label}.niche_recall"), RATIO, None, &job, |r| {
            let niche = by_popularity(r).0.into_iter().filter(|bin| bin.0 < 0.5);
            mean(&niche.map(|bin| bin.1).collect::<Vec<_>>())
        });
        b.pin(format!("{label}.recall_sd"), RATIO, None, &job, |r| {
            std_dev(&recalls(r))
        });
        b.pin(format!("{label}.left_out"), RATIO, None, &job, |r| {
            let recalls = recalls(r);
            let left_out = recalls.iter().filter(|&&x| x < 0.2).count();
            left_out as f64 / recalls.len().max(1) as f64
        });
        b.text(|r| {
            let title = format!("--- {label}: mean recall by item popularity ---\n");
            title + &bins("popularity", "recall", &by_popularity(&r.get(&job).report))
        });
    }
    b.note(
        "paper shape: WhatsUp ≥ CF-Wup across the spectrum, with the largest gain on unpopular \
         items; CF-Wup shows higher variance, leaving some items almost completely out.",
    );
}

fn fig11(ctx: &Ctx, b: &mut Board) {
    // Sociability over the 15 most similar users, as the paper; the ends
    // are the least and the most sociable bin holding ≥ 3 users.
    let by_sociability = |r: &SimReport| analysis::f1_vs_sociability(r, ctx.data(Survey), 15, 10);
    let populated = |r: &SimReport| -> Vec<f64> {
        let bins = by_sociability(r).0.into_iter().filter(|bin| bin.2 >= 3);
        bins.map(|bin| bin.1).collect()
    };
    let job = whatsup10();
    b.pin("f1.least_sociable", RATIO, None, &job, |r| {
        populated(r).first().copied().unwrap_or(f64::NAN)
    });
    b.pin("f1.most_sociable", RATIO, None, &job, |r| {
        populated(r).last().copied().unwrap_or(f64::NAN)
    });
    b.text(|r| {
        bins(
            "sociability",
            "mean F1",
            &by_sociability(&r.get(&job).report),
        )
    });
    b.note("paper shape: F1 increases with sociability (incentive effect).");
}

// --- Tables I–VI ---

fn table1(ctx: &Ctx, b: &mut Board) {
    // Workload, name, and the paper's users and news items.
    for (data, name, users, items) in [
        (Synthetic, "synthetic", 3180.0, 2000.0),
        (Digg, "digg", 750.0, 2500.0),
        (Survey, "survey", 480.0, 1000.0),
    ] {
        let stats = |_: &[&Outcome]| ctx.data(data).stats();
        b.pin_over(format!("{name}.users"), EXACT, Some(users), &[], |o| {
            stats(o).n_users as f64
        });
        b.pin_over(format!("{name}.news"), EXACT, Some(items), &[], |o| {
            stats(o).n_items as f64
        });
        b.pin_over(format!("{name}.topics"), EXACT, None, &[], |o| {
            stats(o).n_topics as f64
        });
        b.pin_over(
            format!("{name}.like_rate"),
            Tol::Abs(0.01),
            None,
            &[],
            |o| stats(o).like_rate,
        );
    }
    b.note(&format!(
        "generated at scale {:.2} of the paper's populations.",
        ctx.scale
    ));
}

fn table2(_: &Ctx, b: &mut Board) {
    let p = Params::default();
    let ttl = p.ttl().map_or(f64::NAN, f64::from);
    let per_f_like = p.wup_view_size as f64 / p.beep.f_like as f64;
    for (key, paper, implementation) in [
        ("RPSvs", 30.0, p.rps.view_size as f64),
        ("RPS_exchange", 15.0, p.rps.exchange_len as f64),
        ("WUPvs_per_fLIKE", 2.0, per_f_like),
        ("profile_window", 13.0, f64::from(p.profile_window)),
        ("BEEP_TTL", 4.0, ttl),
    ] {
        b.pin_over(key, EXACT, Some(paper), &[], |_| implementation);
    }
    b.note("view sizes in descriptors; window in cycles, TTL in hops.");
}

fn table3(_: &Ctx, b: &mut Board) {
    // Each approach at its best configuration, with the paper's precision,
    // recall, F1 and messages per user.
    for (p, [precision, recall, f1, messages]) in [
        (Protocol::Gossip { fanout: 4 }, [0.35, 0.99, 0.51, 4600.0]),
        (Protocol::CfCos { k: 29 }, [0.50, 0.65, 0.57, 5900.0]),
        (Protocol::CfWup { k: 19 }, [0.45, 0.85, 0.59, 4700.0]),
        (
            Protocol::WhatsUpCos { f_like: 24 },
            [0.51, 0.72, 0.60, 4300.0],
        ),
        (Protocol::WhatsUp { f_like: 10 }, [0.47, 0.83, 0.60, 2400.0]),
    ] {
        let row = format!("{}.f{}", p.label(), p.fanout().unwrap_or(0));
        b.scores(&row, &survey_job(p), [precision, recall, f1].map(Some));
        let key = format!("{row}.msgs_per_user");
        b.pin(
            key,
            COUNT,
            Some(messages),
            &survey_job(p),
            SimReport::messages_per_user,
        );
    }
    b.note(
        "shape to check: Gossip floods (recall≈1, precision≈like rate, most messages); WhatsUp \
         ties the best F1 at roughly half the traffic.",
    );
}

fn table4(_: &Ctx, b: &mut Board) {
    // The paper's fraction of liked items received after 0..=4 dislike hops.
    for (hops, paper) in [0.54, 0.31, 0.10, 0.03, 0.02].into_iter().enumerate() {
        b.pin(
            format!("dislikes.{hops}"),
            RATIO,
            Some(paper),
            &whatsup10(),
            |r| r.dislike_distribution(4)[hops],
        );
    }
    b.note(
        "shape to check: monotone decreasing; a sizeable minority (paper 46%) of liked \
         deliveries needed at least one dislike-forward.",
    );
}

fn table5(_: &Ctx, b: &mut Board) {
    // Dataset, approach, and the paper's precision, recall, F1 and total
    // messages. The cascade is the explicit-social-graph baseline of Wei
    // et al. (arXiv:1102.0674).
    for (data, name, p, [precision, recall, f1, messages]) in [
        (Digg, "digg", Protocol::Cascade, [0.57, 0.09, 0.16, 228e3]),
        (Digg, "digg", whatsup(10), [0.56, 0.57, 0.57, 705e3]),
        (
            Survey,
            "survey",
            Protocol::CPubSub,
            [0.40, 1.0, 0.58, 470e3],
        ),
        (Survey, "survey", whatsup(10), [0.47, 0.83, 0.60, 1.1e6]),
    ] {
        let (row, job) = (format!("{name}.{}", p.label()), Job::paper(data, p));
        b.scores(&row, &job, [precision, recall, f1].map(Some));
        b.pin(
            format!("{row}.messages"),
            COUNT,
            Some(messages),
            &job,
            |r| r.news_messages_all as f64,
        );
    }
    b.note(
        "shape to check: cascade ties WhatsUp's precision at a fraction of its recall; C-Pub/Sub \
         has recall 1 but coarser precision; WhatsUp takes the best F1 in both comparisons.",
    );
}

fn table6(_: &Ctx, b: &mut Board) {
    // Loss rate, fanout, and the paper's recall and precision.
    for (loss, f, recall, precision) in [
        (0.0, 3, 0.63, 0.47),
        (0.0, 6, 0.82, 0.48),
        (0.05, 3, 0.61, 0.47),
        (0.05, 6, 0.82, 0.47),
        (0.20, 3, 0.46, 0.47),
        (0.20, 6, 0.80, 0.46),
        (0.50, 3, 0.07, 0.55),
        (0.50, 6, 0.45, 0.44),
    ] {
        let mut job = survey_job(whatsup(f));
        job.scenario.environment.loss = LossModel::Constant { p: loss };
        let row = format!("loss{:.0}.f{f}", loss * 100.0);
        b.scores(&row, &job, [Some(precision), Some(recall), None]);
    }
    b.note(
        "shape to check: fanout 6 shrugs off 20% loss; fanout 3 collapses at 50% loss (recall ≈ \
         0) with an artificial precision bump.",
    );
}

// --- Ablations ---

fn ablations(_: &Ctx, b: &mut Board) {
    for p in [
        Protocol::WhatsUp { f_like: 10 },
        Protocol::NoAmplification { fanout: 10 },
        Protocol::NoOrientation { f_like: 10 },
        Protocol::Gossip { fanout: 10 },
    ] {
        b.scores(&p.label(), &survey_job(p), [None; 3]);
        let key = format!("{}.msgs_per_user", p.label());
        b.pin(
            key,
            COUNT,
            None,
            &survey_job(p),
            SimReport::messages_per_user,
        );
    }
    for window in [3, 7, 13, 26, 39, 52] {
        let job = whatsup10().with(|c| c.profile_window = Some(window));
        b.pin(format!("window_f1.{window}"), RATIO, None, &job, f1);
    }
    for size in [10, 15, 20, 30, 40] {
        let job = whatsup10().with(|c| c.wup_view_override = Some(size));
        b.pin(format!("view_f1.{size}"), RATIO, None, &job, f1);
    }
    for epsilon in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let job = whatsup10().with(|c| c.obfuscation = Some(epsilon));
        b.scores(&format!("epsilon{epsilon}"), &job, [None; 3]);
    }
    for churn in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let mut job = whatsup10();
        if churn > 0.0 {
            job.scenario.environment.churn = ChurnModel::Uniform { per_cycle: churn };
        }
        b.scores(&format!("churn{churn}"), &job, [None; 3]);
    }
    b.note(
        "window_f1 by profile window, cycles: paper §IV-D has the best F1 between 1/5 (13) and \
         2/5 (26) of the run. view_f1 by WUP view size: WUPvs = 2·fLIKE = 20 is the best \
         trade-off. epsilon (§VII randomized-response obfuscation): F1 should degrade \
         gracefully. churn (fraction of nodes crash-rejoining per cycle): a few percent should \
         cost little, heavy churn starves profiles and recall.",
    );
}

#[cfg(test)]
mod tests {
    use super::super::{run, select, Pin};
    use super::*;

    fn listed(id: &str) -> Vec<Pin> {
        let ctx = Ctx::new(0.1);
        let entry = select(&ctx, &[id.to_string()], false).unwrap()[0];
        entry.board(&ctx, None, false).pins
    }

    #[test]
    fn published_numbers_are_self_consistent() {
        let table4: f64 = listed("table4").iter().filter_map(|p| p.paper).sum();
        assert!(
            (table4 - 1.0).abs() < 1e-9,
            "Table IV fractions sum to {table4}"
        );
        for row in listed("table3").chunks(4) {
            let paper = |i: usize| row[i].paper.expect("Table III states every cell");
            let harmonic = 2.0 * paper(0) * paper(1) / (paper(0) + paper(1));
            assert!(
                (harmonic - paper(2)).abs() < 0.02,
                "{}: {harmonic}",
                row[2].key
            );
        }
        let legend: Vec<String> = METRICS.iter().map(|p| p.label()).collect();
        assert_eq!(legend, ["CF-Wup", "CF-Cos", "WhatsUp", "WhatsUp-Cos"]);
    }

    #[test]
    fn convergence_requires_sustained_attainment() {
        let trace = |joining: [f64; 7], changing: [f64; 7]| -> Vec<Sample> {
            let at = |c: usize| [(0.5, 0.0), (joining[c], 0.0), (changing[c], 0.0)];
            (0..7).map(at).collect()
        };
        // The joiner touches the bar at cycle 2 but drops; it converges for
        // good at cycle 4 — three cycles after `from` = 1.
        let t = trace(
            [0.0, 0.1, 0.5, 0.1, 0.5, 0.5, 0.5],
            [0.5, 0.0, 0.1, 0.45, 0.45, 0.45, 0.45],
        );
        assert_eq!(convergence(&t, JOINING, 1), 3.0);
        assert_eq!(convergence(&t, CHANGING, 1), 2.0);
        let never = trace([0.3; 7], [0.0; 7]);
        assert_eq!(convergence(&never, JOINING, 1), f64::from(FIG7_EVENT_AT));
    }

    #[test]
    fn fig7_joiner_clusters_only_after_the_event_and_reruns_identically() {
        let ctx = Ctx::new(0.1);
        let entries = select(&ctx, &["fig7".to_string()], false).unwrap();
        let (first, again) = (run(&ctx, &entries), run(&ctx, &entries));
        // Declared once per pin: the join and the change pin read the same runs.
        let mut jobs = entries[0].board(&ctx, None, false).jobs;
        jobs.truncate(jobs.len() / 2);
        assert_eq!(jobs.len(), 2 * 3, "two metrics, three repetitions");
        for job in &jobs {
            let trace = &first.get(job).trace;
            assert_eq!(trace, &again.get(job).trace, "deterministic across calls");
            assert_eq!(trace.len(), 2 * FIG7_EVENT_AT as usize);
            let (before, after) = trace.split_at(FIG7_EVENT_AT as usize);
            assert!(before.iter().all(|s| s[JOINING] == (0.0, 0.0)));
            let clustered: f64 = after.iter().rev().take(4).map(|s| s[JOINING].0).sum();
            assert!(clustered > 0.0, "joiner never clustered: {after:?}");
        }
        let pins = entries[0].board(&ctx, Some(&first), false).pins;
        assert_eq!(pins, entries[0].board(&ctx, Some(&again), false).pins);
        assert!(pins
            .iter()
            .all(|p| (0.0..=f64::from(FIG7_EVENT_AT)).contains(&p.value)));
    }

    #[test]
    fn overlay_and_hop_ids_evaluate_at_small_scale() {
        let ctx = Ctx::new(0.1);
        let entries = select(&ctx, &["fig4".to_string(), "fig6".to_string()], false).unwrap();
        let results = run(&ctx, &entries);
        for entry in entries {
            let board = entry.board(&ctx, Some(&results), true);
            assert!(
                board.pins.iter().all(|p| p.value.is_finite()),
                "{:?}",
                board.pins
            );
            assert!(board.text.contains("paper"), "{}", board.text);
        }
    }
}
