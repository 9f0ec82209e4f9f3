//! Quick single-row probe of the scale_engine configuration space:
//! `cargo run --release -p whatsup_bench --example hotpath_probe -- <nodes> <shards> [cycles]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use whatsup_datasets::{survey, SurveyConfig};
use whatsup_sim::{Protocol, Runner, SimConfig};

/// Counting wrapper over the system allocator: tracks live heap bytes so
/// the `PROBE_MEM` breakdown can tell real allocations apart from
/// allocator-level overhead (RSS − live = fragmentation + metadata).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) };
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(20_000);
    let shards: usize = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(1);
    let cycles: u32 = args.get(3).and_then(|v| v.parse().ok()).unwrap_or(10);
    let cfg = SurveyConfig {
        base_users: (nodes / 4).max(15),
        base_items: 100,
        ..SurveyConfig::paper()
    };
    let d = survey::generate(&cfg, 7);
    if std::env::var("PROBE_MEM").is_ok() {
        eprintln!(
            "after dataset gen: standing {:>8.1} MiB",
            status_mb("VmRSS:")
        );
    }
    let publish_from: u32 = std::env::var("PROBE_PUBLISH_FROM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let sim_cfg = SimConfig {
        cycles,
        publish_from,
        measure_from: publish_from.saturating_add(2).min(cycles.saturating_sub(1)),
        shards,
        ..Default::default()
    };
    let runner = Runner::new(&d, Protocol::WhatsUp { f_like: 5 }).config(sim_cfg);
    let started = Instant::now();
    let report = if std::env::var("PROBE_MEM").is_ok() {
        // Per-component heap accounting at end of run (diagnostics).
        let mut sim = runner.build();
        eprintln!(
            "after sim build:   standing {:>8.1} MiB",
            status_mb("VmRSS:")
        );
        for c in 0..cycles {
            let _ = std::fs::write("/proc/self/clear_refs", "5");
            sim.step();
            eprintln!(
                "cycle {c:>2}: peak {:>8.1} MiB, standing {:>8.1} MiB, live {:>8.1} MiB",
                status_mb("VmHWM:"),
                status_mb("VmRSS:"),
                live_mb()
            );
        }
        for (name, bytes) in sim.memory_breakdown() {
            eprintln!(
                "mem {:>18}: {:>9.1} MiB",
                name,
                bytes as f64 / (1024.0 * 1024.0)
            );
        }
        sim.into_report()
    } else {
        runner.run()
    };
    let secs = started.elapsed().as_secs_f64();
    println!(
        "nodes={} shards={} cycles={} -> {:.3}s ({:.2} cyc/s) messages={} rss={:.1}MiB",
        d.n_users(),
        shards,
        cycles,
        secs,
        cycles as f64 / secs,
        report.gossip_messages + report.news_messages_all,
        peak_rss_mb()
    );
}

/// A `/proc/self/status` memory line in MiB (Linux); 0 elsewhere.
fn status_mb(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's peak resident set in MiB (`VmHWM`, Linux); 0 elsewhere.
fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}
