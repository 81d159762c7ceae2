//! Per-operation output digests recorded for fixed seeds.
//!
//! `digests/<workload>-seed<N>.txt` holds one `label<TAB>hex` line per
//! operation, in the order the workload produces them. A run on a seed
//! with a recorded file checks every round against it; a run on any
//! other seed checks every round against its own first round.

use crate::common::Digest;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Directory holding the recorded digests.
pub fn dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/digests"))
}

fn path(workload: &str, seed: u64) -> PathBuf {
    dir().join(format!("{workload}-seed{seed}.txt"))
}

/// Parses a digest file's text.
pub fn parse(text: &str) -> Vec<Digest> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (label, hex) = l.rsplit_once('\t').expect("digest line is label<TAB>hex");
            Digest {
                label: label.to_string(),
                value: u64::from_str_radix(hex, 16).expect("digest is hex"),
            }
        })
        .collect()
}

/// Renders digests in the file format.
pub fn render(digests: &[Digest]) -> String {
    let mut out = String::new();
    for d in digests {
        writeln!(out, "{}\t{:016x}", d.label, d.value).expect("write to string");
    }
    out
}

/// The recorded digests for `workload` at `seed`, if any.
pub fn load(workload: &str, seed: u64) -> Option<Vec<Digest>> {
    std::fs::read_to_string(path(workload, seed))
        .ok()
        .map(|t| parse(&t))
}

/// Records `digests` for `workload` at `seed`.
pub fn store(workload: &str, seed: u64, digests: &[Digest]) {
    std::fs::create_dir_all(dir()).expect("create digests directory");
    std::fs::write(path(workload, seed), render(digests)).expect("write digests");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let d = vec![
            Digest {
                label: "t=60".into(),
                value: 0xdead_beef,
            },
            Digest {
                label: "session 1 Sticky".into(),
                value: u64::MAX,
            },
        ];
        assert_eq!(parse(&render(&d)), d);
    }
}
