//! The measurement loop shared by every workload: timed set-up and
//! measured phase per round, output checks against recorded digests,
//! and, in a traced run, counters, spans and the replay that attributes
//! time to layers.

use crate::common::{geomean, median, Checked, Config, Digest, Measured, Scale};
use crate::digests;
use crate::trace::{attribute, Layer, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Rounds a run measures at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// Set-ups per round: at most this many, and no more once a round's
/// set-ups have taken `SETUP_BUDGET`.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Work counts per measured round: the leo-obs counters read at
/// `LEO_OBS=metrics` around the measured phase, averaged over rounds.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    totals: BTreeMap<String, u64>,
    rounds: u64,
}

impl Counters {
    fn add_round(&mut self, snap: &leo_obs::ObsSnapshot) {
        for (name, v) in &snap.counters {
            *self.totals.entry(name.clone()).or_default() += v;
        }
        self.rounds += 1;
    }

    /// Traced rounds the counters were read over.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The named counter per round, 0 when it never fired.
    pub fn per_round(&self, name: &str) -> f64 {
        let total = self.totals.get(name).copied().unwrap_or(0);
        total as f64 / self.rounds.max(1) as f64
    }
}

/// What a traced run hands a workload's replay besides its own inputs.
pub struct TraceCtx<'a> {
    /// Records the replayed layer calls.
    pub tracer: &'a Tracer,
    /// Program counters per measured round.
    pub counters: &'a Counters,
    /// Per-layer metrics the workload fills in (every name is preset
    /// to 0, so a layer the workload never touches reads 0).
    pub metrics: &'a mut BTreeMap<&'static str, f64>,
}

/// What a replay reports about the snapshot builds it timed.
pub struct Replayed {
    /// Snapshot views the replay built, each timed once.
    pub builds: usize,
    /// Distinct instants the measured round asked the service for.
    pub instants: usize,
}

/// Spans of one snapshot-view build and its parts. The replay builds
/// each instant once; the measured round built `service.snapshot_misses`
/// views, so these spans are scaled by that ratio.
const BUILD_SPANS: [&str; 5] = [
    "service.view",
    "constellation.snapshot",
    "index.build",
    "fault.plan",
    "engine.refresh",
];

/// One benchmark workload.
pub trait Workload {
    /// Inputs after set-up.
    type Setup;
    /// Outputs of the measured phase.
    type Output;

    /// The layer tree the traced run attributes time to.
    fn layers(&self) -> Vec<Layer>;

    /// Generates the inputs and does the set-up `setup_s` times,
    /// wrapping public calls in `tracer` spans.
    fn setup(&self, cfg: &Config, tracer: &Tracer) -> Self::Setup;

    /// Runs the measured phase once.
    fn measure(&self, cfg: &Config, s: &Self::Setup, tracer: &Tracer) -> (Measured, Self::Output);

    /// Checks the outputs and fingerprints each operation.
    fn check(&self, cfg: &Config, s: &Self::Setup, out: &Self::Output) -> Checked;

    /// Replays the layer calls underneath the measured public calls,
    /// filling in the workload's own per-layer metrics.
    fn replay(
        &self,
        cfg: &Config,
        s: &Self::Setup,
        out: &Self::Output,
        ctx: TraceCtx<'_>,
    ) -> Replayed;
}

/// How a run is asked to behave.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name, for digests and output files.
    pub workload: &'static str,
    /// Inputs.
    pub config: Config,
    /// Minimum measuring time; at least `MIN_ROUNDS` rounds run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Write this seed's digests instead of checking against them.
    pub record_digests: bool,
}

/// A metric as printed: value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name from `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit from `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// No operation failed a check.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// The digests of the first round, in order.
    pub digests: Vec<Digest>,
    /// Rounds measured.
    pub rounds: usize,
    /// Per-layer `(span, busy_s, self_s)` rows of a traced run.
    pub layer_rows: Vec<(&'static str, f64, f64)>,
    /// Chrome trace JSON of a traced run.
    pub chrome_trace: Option<String>,
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
    ("call_gmean_ms", "ms"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("constellation.snapshot.calls", "count"),
    ("constellation.snapshot.busy_s", "s"),
    ("index.build.calls", "count"),
    ("index.build.busy_s", "s"),
    ("engine.refresh.calls", "count"),
    ("engine.refresh.busy_s", "s"),
    ("fault.plan.busy_s", "s"),
    ("service.view.calls", "count"),
    ("service.view.busy_s", "s"),
    ("service.builds_per_instant", "ratio"),
    ("index.scanned", "count"),
    ("index.scan_yield", "fraction"),
    ("index.scan.busy_s", "s"),
    ("session.run.busy_s", "s"),
    ("session.group_delays.busy_s", "s"),
    ("session.sticky_select.busy_s", "s"),
    ("session.handoffs", "count"),
    ("engine.dijkstra.calls", "count"),
    ("engine.dijkstra.busy_s", "s"),
    ("frontier.settle.calls", "count"),
    ("frontier.settle.busy_s", "s"),
    ("frontier.pair_yield", "fraction"),
    ("engine.delta.busy_s", "s"),
    ("engine.delta.recompute_frac", "fraction"),
    ("serve.sweep.busy_s", "s"),
    ("serve.shard.busy_s", "s"),
    ("routing.graph.calls", "count"),
    ("routing.graph.busy_s", "s"),
    ("congestion.busy_s", "s"),
    ("congestion.transmissions", "count"),
    ("congestion.tx_per_s", "1/s"),
    ("congestion.drop_frac", "fraction"),
    ("congestion.retx_frac", "fraction"),
    ("congestion.segments", "count"),
    ("congestion.transfer_p50_ms", "ms"),
    ("congestion.transfer_p92_ms", "ms"),
    ("sim.pool_utilization", "fraction"),
    ("unattributed_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
];

/// The process's peak resident set, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn compare(expected: &[Digest], got: &[Digest], what: &str, failures: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, g) in got.iter().enumerate() {
        match expected.get(i) {
            Some(e) if e == g => {}
            Some(e) => {
                failed += 1;
                failures.push(format!(
                    "{what}: {} digest {:016x}, expected {} {:016x}",
                    g.label, g.value, e.label, e.value
                ));
            }
            None => {
                failed += 1;
                failures.push(format!("{what}: unexpected operation {}", g.label));
            }
        }
    }
    if expected.len() > got.len() {
        failed += (expected.len() - got.len()) as u64;
        failures.push(format!(
            "{what}: {} operations missing",
            expected.len() - got.len()
        ));
    }
    failed
}

/// Runs `w` under `opts`: rounds of set-up + measured phase until
/// `opts.seconds` have passed (and at least `MIN_ROUNDS`; a traced run
/// ends on a traced round), checking every round's outputs.
pub fn run<W: Workload>(w: &W, opts: &RunOptions) -> RunReport {
    let cfg = opts.config;
    // Digests are recorded at full scale only.
    let recorded = if cfg.scale == Scale::Full && !opts.record_digests {
        digests::load(opts.workload, cfg.seed)
    } else {
        None
    };
    let off = Tracer::new(false);
    let tracer = Tracer::new(opts.trace);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);

    leo_obs::set_level(leo_obs::Level::Off);
    let mut setup_s = Vec::new();
    let mut phase_on = Vec::new();
    let mut phase_off = Vec::new();
    let mut measured = Measured::default();
    let mut counters = Counters::default();
    let mut first: Option<Vec<Digest>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut rounds = 0usize;
    let kept = loop {
        // In a traced run untraced and traced rounds alternate, so the
        // overhead compares like with like; the last round is traced.
        let traced = opts.trace && rounds % 2 == 1;
        let t = if traced { &tracer } else { &off };
        // Set up several times per round (only the first traced), so
        // `setup_s` is a median even when set-up is short; the last
        // set-up is the one measured.
        let mut s = None;
        let setup_start = Instant::now();
        for rep in 0..SETUP_REPS {
            if rep > 0 && setup_start.elapsed() >= SETUP_BUDGET {
                break;
            }
            drop(s.take());
            let t = if rep == 0 { t } else { &off };
            let t0 = Instant::now();
            s = Some(t.span("setup", "phase", || w.setup(&cfg, t)));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let s = s.expect("at least one set-up ran");
        if traced {
            leo_obs::reset();
            leo_obs::set_level(leo_obs::Level::Metrics);
        }
        let (m, out) = t.span("measure", "phase", || w.measure(&cfg, &s, t));
        if traced {
            leo_obs::set_level(leo_obs::Level::Off);
            counters.add_round(&leo_obs::snapshot());
            phase_on.push(m.phase_s);
        } else {
            phase_off.push(m.phase_s);
        }
        measured.ops += m.ops;
        measured.phase_s += m.phase_s;
        measured.call_s.extend(m.call_s);

        let mut c = w.check(&cfg, &s, &out);
        attempted += c.attempted + c.digests.len() as u64;
        failed += c.failed;
        failures.append(&mut c.failures);
        match (&recorded, &first) {
            (Some(exp), _) => failed += compare(exp, &c.digests, "recorded", &mut failures),
            (None, Some(f)) => failed += compare(f, &c.digests, "round 1", &mut failures),
            (None, None) => {}
        }
        if first.is_none() {
            first = Some(c.digests);
        }
        rounds += 1;
        let done = rounds >= MIN_ROUNDS && Instant::now() >= deadline;
        if done && (!opts.trace || traced) {
            break (s, out);
        }
    };
    for f in failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let digests = first.unwrap_or_default();
    if opts.record_digests {
        digests::store(opts.workload, cfg.seed, &digests);
    }

    let mut report = RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        digests,
        rounds,
        layer_rows: Vec::new(),
        chrome_trace: None,
    };
    if !opts.trace {
        let ops_per_s = measured.ops as f64 / measured.phase_s.max(f64::MIN_POSITIVE);
        let values = [
            median(&setup_s).unwrap_or(0.0),
            peak_rss_mb(),
            ops_per_s,
            geomean(&measured.call_s).unwrap_or(0.0) * 1e3,
        ];
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
        return report;
    }

    // Traced run: replay the layer calls over the kept traced round.
    let (s, out) = kept;
    let mut metrics: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let replayed = w.replay(
        &cfg,
        &s,
        &out,
        TraceCtx {
            tracer: &tracer,
            counters: &counters,
            metrics: &mut metrics,
        },
    );
    let k = &counters;
    let builds = k.per_round("service.snapshot_misses");
    let build_scale = builds / replayed.builds.max(1) as f64;
    for name in [
        "constellation.snapshot.calls",
        "index.build.calls",
        "engine.refresh.calls",
    ] {
        metrics.insert(name, builds);
    }
    metrics.insert(
        "service.view.calls",
        builds + k.per_round("service.snapshot_hits"),
    );
    if replayed.instants > 0 {
        metrics.insert(
            "service.builds_per_instant",
            builds / replayed.instants as f64,
        );
    }
    let ratio = |num: &str, den: &str| {
        let d = k.per_round(den);
        if d > 0.0 {
            k.per_round(num) / d
        } else {
            0.0
        }
    };
    metrics.insert(
        "index.scanned",
        k.per_round("visibility.candidates_scanned"),
    );
    metrics.insert(
        "index.scan_yield",
        ratio("visibility.returned", "visibility.candidates_scanned"),
    );
    metrics.insert(
        "engine.dijkstra.calls",
        k.per_round("engine.dijkstra.bucket_queries") + k.per_round("engine.dijkstra.heap_queries"),
    );
    metrics.insert(
        "frontier.settle.calls",
        k.per_round("engine.frontier.settles"),
    );
    metrics.insert(
        "frontier.pair_yield",
        ratio(
            "engine.frontier.pairs_exact",
            "engine.frontier.pairs_tested",
        ),
    );
    let traced_rounds = phase_on.len().max(1) as f64;
    // Public calls were spanned once per traced round; the replay covers
    // one round, with snapshot builds scaled to the round's count.
    let busy = |span: &str| {
        let scale = if BUILD_SPANS.contains(&span) {
            build_scale
        } else {
            1.0
        };
        tracer.total(span, "call") / traced_rounds + tracer.total(span, "replay") * scale
    };
    let budget = cfg.threads as f64 * phase_on.iter().sum::<f64>() / traced_rounds;
    let at = attribute(&w.layers(), busy, cfg.threads, budget);
    for &(span, _, own) in &at.rows {
        let name = format!("{span}.busy_s");
        if let Some(&(n, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
            metrics.insert(n, own);
        }
    }
    // Packet transmissions per second of DES self time.
    let (tx, des_s) = (metrics["congestion.transmissions"], at.self_s("congestion"));
    if des_s > 0.0 {
        metrics.insert("congestion.tx_per_s", tx / des_s);
    }
    metrics.insert("unattributed_frac", at.unattributed_frac);
    let (on, off_med) = (median(&phase_on), median(&phase_off));
    if let (Some(on), Some(off_med)) = (on, off_med) {
        metrics.insert("trace_overhead_frac", on / off_med - 1.0);
    }
    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: metrics[name],
            unit,
        })
        .collect();
    report.layer_rows = at.rows;
    report.chrome_trace = Some(tracer.chrome_json());
    report
}
