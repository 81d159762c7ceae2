//! Benchmark command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|sessions|migration --seed N --seconds S --trace 0|1 \
//!     [--threads N] [--record-digests]
//! ```
//!
//! Prints a provenance record, the layer table of a traced run, and as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Run records and Chrome traces go to `perfbench/out/`.

use perfbench::common::{Config, Scale};
use perfbench::runner::{RunOptions, RunReport};
use std::process::{Command, ExitCode};

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut threads, mut record_digests) = (None, false);
    while let Some(flag) = args.next() {
        if flag == "--record-digests" {
            record_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *perfbench::WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--threads" => {
                let n = value.parse::<usize>().map_err(|e| bad(&e))?;
                if n == 0 {
                    return Err(bad(&"must be positive"));
                }
                threads = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        record_digests,
    })
}

/// First line of a command's output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: every metric with all the digits it was measured
/// with (`{}` prints the shortest string that round-trips the f64).
fn result_json(report: &RunReport) -> String {
    let metrics: Vec<(&str, String)> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let v = json_obj(&[("value", format!("{value}")), ("unit", json_str(m.unit))]);
            (m.name, v)
        })
        .collect();
    json_obj(&[
        ("correct", report.correct.to_string()),
        ("attempted", report.attempted.to_string()),
        ("failed", report.failed.to_string()),
        ("metrics", json_obj(&metrics)),
    ])
}

fn layer_table(workload: &str, report: &RunReport) -> String {
    let mut out =
        format!("# layer table: {workload}\n| layer | busy_s | self_s |\n|---|---:|---:|\n");
    for (span, busy, own) in &report.layer_rows {
        out.push_str(&format!("| {span} | {busy:.6} | {own:.6} |\n"));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(nproc);
    if threads > nproc {
        eprintln!(
            "warning: {threads} threads on {nproc} available cores; timings will be oversubscribed"
        );
    }
    let opts = RunOptions {
        workload: args.workload,
        config: Config {
            seed: args.seed,
            threads,
            scale: Scale::Full,
        },
        seconds: args.seconds,
        trace: args.trace,
        record_digests: args.record_digests,
    };
    let recorded = perfbench::digests::load(args.workload, args.seed).is_some();
    let provenance = json_obj(&[
        ("workload", json_str(args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{}", args.seconds)),
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
        (
            "git_commit",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        (
            "leo_obs",
            json_str(if args.trace { "metrics" } else { "off" }),
        ),
        ("recorded_digests", recorded.to_string()),
    ]);
    println!("{}", json_obj(&[("provenance", provenance.clone())]));

    let report =
        perfbench::run_workload(args.workload, &opts).expect("workload name was validated");
    let result = result_json(&report);

    let out_dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let stem = format!(
        "{}-seed{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let record = json_obj(&[
        ("provenance", provenance),
        ("rounds", report.rounds.to_string()),
        ("result", result.clone()),
    ]);
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|_| std::fs::write(out_dir.join(format!("{stem}.json")), record));
    if let Err(e) = written {
        eprintln!("warning: could not write the run record: {e}");
    }
    if let Some(trace) = &report.chrome_trace {
        let table = layer_table(args.workload, &report);
        print!("{table}");
        let written = std::fs::write(out_dir.join(format!("{stem}.trace.json")), trace)
            .and_then(|_| std::fs::write(out_dir.join(format!("{stem}.layers.md")), &table));
        if let Err(e) = written {
            eprintln!("warning: could not write the trace: {e}");
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
