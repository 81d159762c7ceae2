//! Tiny-input runs of every workload through the benchmark's own code
//! path, and the thread-invariance of their output digests.

use perfbench::runner::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, tiny_options, WORKLOADS};

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2)
}

#[test]
fn every_workload_runs_checks_and_reports_end_to_end_metrics() {
    for w in WORKLOADS {
        let r = run_workload(w, &tiny_options(w, 1, 2, false)).expect("known workload");
        assert!(
            r.correct,
            "{w}: {} of {} checks failed",
            r.failed, r.attempted
        );
        assert!(
            r.attempted > 0 && !r.digests.is_empty(),
            "{w} checked nothing"
        );
        let names: Vec<_> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec(), "{w}");
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for w in WORKLOADS {
        let r = run_workload(w, &tiny_options(w, 2, 2, true)).expect("known workload");
        assert!(
            r.correct,
            "{w}: {} of {} checks failed",
            r.failed, r.attempted
        );
        let names: Vec<_> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER.to_vec(), "{w}");
        assert!(r.metrics.iter().all(|m| m.value.is_finite()), "{w}");
        let unattributed = r
            .metrics
            .iter()
            .find(|m| m.name == "unattributed_frac")
            .unwrap();
        assert!((0.0..=1.0).contains(&unattributed.value), "{w}");
        let trace = r.chrome_trace.expect("traced run exports a trace");
        assert!(trace.starts_with("{\"displayTimeUnit\"") && trace.contains("\"cat\":\"replay\""));
    }
}

#[test]
fn digests_are_identical_at_one_thread_and_at_nproc_threads() {
    for w in WORKLOADS {
        let one = run_workload(w, &tiny_options(w, 3, 1, false)).expect("known workload");
        let many = run_workload(w, &tiny_options(w, 3, nproc(), false)).expect("known workload");
        assert!(one.correct && many.correct, "{w}");
        assert_eq!(
            one.digests, many.digests,
            "{w}: digests depend on the thread count"
        );
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "metric {name} ({unit})");
    }
}
