//! The repository benchmark: three workloads (`serve`, `sessions`,
//! `migration`) driven through the program's public entry points, with
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run that replays the layer calls underneath. See `README.md`.

pub mod common;
pub mod digests;
pub mod migration;
pub mod runner;
pub mod serve;
pub mod sessions;
pub mod trace;

use common::Config;
use runner::{run, RunOptions, RunReport};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve", "sessions", "migration"];

/// Runs the named workload; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOptions) -> Option<RunReport> {
    Some(match name {
        "serve" => run(&serve::Serve, opts),
        "sessions" => run(&sessions::Sessions, opts),
        "migration" => run(&migration::Migration, opts),
        _ => return None,
    })
}

/// The options a smoke test or the thread-invariance test uses: tiny
/// inputs and the shortest run.
pub fn tiny_options(workload: &'static str, seed: u64, threads: usize, trace: bool) -> RunOptions {
    RunOptions {
        workload,
        config: Config {
            seed,
            threads,
            scale: common::Scale::Tiny,
        },
        seconds: 0.0,
        trace,
        record_digests: false,
    }
}
