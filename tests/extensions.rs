//! Integration tests for the §VII extensions: profile obfuscation
//! (privacy/accuracy trade-off) and churn robustness.

use whatsup::prelude::*;

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

/// `protocol` on `d` for `cfg`'s run, over the `environment` network.
fn run(d: &Dataset, protocol: Protocol, cfg: SimConfig, environment: Environment) -> SimReport {
    Runner::new(d, protocol)
        .config(cfg)
        .scenario(Scenario::default().with_environment(environment))
        .run()
}

/// A lossless network where each node crash-rejoins with `per_cycle`
/// probability every cycle.
fn churn(per_cycle: f64) -> Environment {
    Environment {
        loss: LossModel::Constant { p: 0.0 },
        churn: ChurnModel::Uniform { per_cycle },
    }
}

#[test]
fn obfuscation_trades_accuracy_gracefully() {
    let d = survey(0.2, 41);
    let at = |obfuscation| {
        let cfg = SimConfig {
            obfuscation,
            ..cfg()
        };
        run(
            &d,
            Protocol::WhatsUp { f_like: 8 },
            cfg,
            Environment::default(),
        )
    };
    let (clear, mild, heavy) = (at(None), at(Some(0.3)), at(Some(0.9)));
    // §VII: "obfuscation provides a trade-off between the accuracy of
    // recommendation and the disclosure of personal data" — quality must
    // decline with noise, but mild noise must not destroy the system.
    assert!(
        mild.scores().f1 > 0.7 * clear.scores().f1,
        "mild obfuscation should cost little: clear {:?} mild {:?}",
        clear.scores(),
        mild.scores()
    );
    assert!(
        heavy.scores().f1 <= mild.scores().f1 + 0.05,
        "heavy obfuscation cannot beat mild: mild {:?} heavy {:?}",
        mild.scores(),
        heavy.scores()
    );
    // Even ε=0.9 keeps the epidemic alive (dissemination never deadlocks).
    assert!(heavy.scores().recall > 0.1, "{:?}", heavy.scores());
}

#[test]
fn shared_profiles_differ_from_true_under_obfuscation() {
    use rand::SeedableRng;
    use whatsup::core::prelude::*;
    let mut params = whatsup::core::Params::whatsup(2);
    params.obfuscation_epsilon = 1.0;
    let mut node = WhatsUpNode::new(3, params, Default::default());
    node.seed_views([(1, Profile::new())], [(1, Profile::new())]);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let mut stats = NodeStats::default();
    // Rate many items, then inspect what the node gossips.
    let everyone_likes = |_: NodeId, _: ItemId| true;
    for i in 0..200u64 {
        let _ = node.on_message(
            1,
            Payload::News(NewsMessage {
                header: ItemHeader {
                    id: i,
                    created_at: 0,
                },
                profile: SharedProfile::new(Profile::new()),
                dislikes: 0,
                hops: 0,
            }),
            0,
            &everyone_likes,
            &mut stats,
            &mut rng,
        );
    }
    let out = node.on_cycle(1, &mut stats, &mut rng);
    let mut flips = 0usize;
    let mut total = 0usize;
    for m in &out {
        let descs = match &m.payload {
            Payload::RpsRequest(d) | Payload::WupRequest(d) => d,
            _ => continue,
        };
        for d in descs.iter().filter(|d| d.node == 3) {
            for e in d.payload.entries() {
                total += 1;
                // The node liked everything; a 0 score is a lie.
                if e.score < 0.5 {
                    flips += 1;
                }
            }
        }
    }
    assert!(
        total >= 100,
        "self-descriptor must be in the gossip payloads"
    );
    let rate = flips as f64 / total as f64;
    assert!(
        (rate - 0.5).abs() < 0.15,
        "ε=1 randomized response flips ≈ half the shared opinions, got {rate}"
    );
}

#[test]
fn moderate_churn_is_absorbed() {
    let d = survey(0.2, 43);
    let stable = run(
        &d,
        Protocol::WhatsUp { f_like: 8 },
        cfg(),
        Environment::default(),
    );
    let churny = run(&d, Protocol::WhatsUp { f_like: 8 }, cfg(), churn(0.01));
    assert!(
        churny.scores().f1 > 0.75 * stable.scores().f1,
        "1%/cycle churn must be absorbed: stable {:?} churny {:?}",
        stable.scores(),
        churny.scores()
    );
}

#[test]
fn heavy_churn_degrades_but_never_panics() {
    let d = survey(0.12, 44);
    let heavy = run(&d, Protocol::WhatsUp { f_like: 6 }, cfg(), churn(0.25));
    let stable = run(
        &d,
        Protocol::WhatsUp { f_like: 6 },
        cfg(),
        Environment::default(),
    );
    assert!(
        heavy.scores().recall < stable.scores().recall,
        "25%/cycle churn must hurt: stable {:?} heavy {:?}",
        stable.scores(),
        heavy.scores()
    );
}

#[test]
fn churn_and_loss_compose() {
    let d = survey(0.12, 45);
    let lossy_churn = Environment {
        loss: LossModel::Constant { p: 0.2 },
        ..churn(0.05)
    };
    let r = run(&d, Protocol::WhatsUp { f_like: 6 }, cfg(), lossy_churn);
    assert!(
        r.scores().recall > 0.0,
        "combined failure modes must not deadlock"
    );
    for item in &r.items {
        assert!(item.hits <= item.reached);
    }
}
