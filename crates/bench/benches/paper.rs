//! The paper's evaluation — Figs. 3–11, Tables I–VI and the ablations — as
//! one harness: see [`whatsup_bench::paper`] for the table and the grammar.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    whatsup_bench::paper::cli(&args)
}
