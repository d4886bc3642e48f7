//! The repository benchmark: one named workload per process, timed end to
//! end with tracing off, or replayed layer by layer with tracing on.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload lab_fig5a --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare --parent p1.json ... --change c1.json ...
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see README.md for the workloads,
//! the metrics and how to read `compare`.

mod compare;
mod metrics;
mod reference;
mod replay;
mod result;
mod run;
mod stats;
mod trace;
mod workloads;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run::main(&args),
    };
    std::process::exit(code);
}
