//! The swarm executor under the one environment knob a deployment has no
//! other way to exercise: a constant-loss scenario must cost recall on
//! either fabric (the sim-vs-swarm differential test is the facade's
//! `tests/stack_consistency.rs`).

use std::sync::{Mutex, PoisonError};
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::scenario::{ChurnModel, Environment, LossModel, Scenario};
use whatsup_sim::{Fabric, Protocol, Runner, SimConfig};

/// A swarm runs one thread per peer against the wall clock: the two tests
/// of this binary must not starve each other's peers.
static ONE_SWARM_AT_A_TIME: Mutex<()> = Mutex::new(());

fn constant_loss_lowers_recall(fabric: Fabric) {
    let _alone = ONE_SWARM_AT_A_TIME
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let dataset = survey::generate(&SurveyConfig::paper().scaled(0.12), 17);
    let recall = |p: f64| {
        let lossy = Scenario::default().with_environment(Environment {
            loss: LossModel::Constant { p },
            churn: ChurnModel::None,
        });
        let run = Runner::new(&dataset, Protocol::WhatsUp { f_like: 5 })
            .config(SimConfig {
                cycles: 14,
                publish_from: 2,
                measure_from: 5,
                ..Default::default()
            })
            .scenario(lossy)
            .deploy(fabric, 60)
            .expect("the fabric comes up");
        assert!(run.traffic.news_msgs > 0 && run.traffic.wup_msgs > 0);
        run.report.scores().recall
    };
    let (clean, lossy) = (recall(0.0), recall(0.8));
    assert!(
        clean > 0.5,
        "{fabric:?}: a lossless swarm disseminates ({clean:.3})"
    );
    assert!(
        lossy < clean,
        "{fabric:?}: 80% loss must hurt: clean {clean:.3} lossy {lossy:.3}"
    );
}

#[test]
fn constant_loss_lowers_recall_on_the_emulated_fabric() {
    constant_loss_lowers_recall(Fabric::Emulated);
}

#[test]
fn constant_loss_lowers_recall_over_udp() {
    constant_loss_lowers_recall(Fabric::Udp);
}
