//! The paper harness's table against the committed `BENCH_paper.json`: what
//! CI's `paper -- --check BENCH_paper.json` compares must be what the table
//! declares. Listing a board runs no simulation.

use serde::json::Value;
use std::collections::BTreeSet;
use whatsup_bench::paper::{Ctx, Tol, DEFAULT_SCALE, SEED, TABLE};

fn baseline() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_paper.json");
    let text = std::fs::read_to_string(path).expect("BENCH_paper.json is committed");
    serde::json::parse(&text).expect("strict JSON")
}

fn keys(object: Option<&Value>) -> BTreeSet<String> {
    match object {
        Some(Value::Object(map)) => map.keys().cloned().collect(),
        _ => BTreeSet::new(),
    }
}

#[test]
fn table_ids_are_unique_and_cover_the_evaluation() {
    let ids: Vec<&str> = TABLE.iter().map(|e| e.id).collect();
    let unique: BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");
    let figures = (3..=11).map(|n| format!("fig{n}"));
    let tables = (1..=6).map(|n| format!("table{n}"));
    for id in figures.chain(tables).chain(["ablations".to_string()]) {
        assert!(unique.contains(id.as_str()), "{id} is not in the table");
    }
}

#[test]
fn every_pin_is_in_the_committed_baseline_and_nothing_else_is() {
    let baseline = baseline();
    assert_eq!(
        baseline.get("scale").and_then(Value::as_f64),
        Some(DEFAULT_SCALE)
    );
    assert_eq!(baseline.get("seed").and_then(Value::as_u64), Some(SEED));
    assert!(baseline.get("note").and_then(Value::as_str).is_some());
    let ctx = Ctx::new(DEFAULT_SCALE);
    let mut pinned = BTreeSet::new();
    for entry in TABLE {
        let pins = entry.board(&ctx, None, false).pins;
        for pin in &pins {
            let (Tol::Abs(band) | Tol::Rel(band)) = pin.tol;
            assert!(
                band.is_finite() && band > 0.0,
                "{}/{}: {band}",
                entry.id,
                pin.key
            );
        }
        let declared: BTreeSet<String> = pins.into_iter().map(|p| p.key).collect();
        let recorded = baseline.get("ids").and_then(|ids| ids.get(entry.id));
        assert_eq!(
            declared,
            keys(recorded),
            "{}: table vs BENCH_paper.json",
            entry.id
        );
        for key in &declared {
            let cell = recorded.and_then(|id| id.get(key)).expect("compared above");
            let value = cell.get("value").and_then(Value::as_f64);
            let tol = cell.get("tol").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{}/{key}: {value:?}",
                entry.id
            );
            assert!(
                tol.is_some_and(|t| t.is_finite() && t > 0.0),
                "{}/{key}: {tol:?}",
                entry.id
            );
        }
        if !declared.is_empty() {
            pinned.insert(entry.id.to_string());
        }
    }
    assert_eq!(
        pinned,
        keys(baseline.get("ids")),
        "ids with pins vs ids recorded"
    );
}
