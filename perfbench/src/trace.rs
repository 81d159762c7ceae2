//! The benchmark's own span recorder and the per-layer attribution over it.
//!
//! Spans are recorded only around calls the benchmark itself makes: the
//! public entry points a workload drives, and the layer calls it replays
//! underneath them. Nothing inside the program is instrumented by this
//! module; the program's own counters are read separately through
//! `leo_obs::snapshot`.
//!
//! A replayed layer call is a *logical* child of the public call it
//! reproduces: its work is contained in the parent's duration, even
//! though the replay runs after the parent returned. A layer's self time
//! is therefore its total busy time minus the busy time of its child
//! layers, summed per layer rather than per span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer name, e.g. `"service.view"`.
    pub name: &'static str,
    /// `"call"` for a public call the workload makes, `"replay"` for a
    /// replayed layer call, `"phase"` for a measured phase.
    pub cat: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
    /// Per-thread ordinal of the thread that ran the call.
    pub tid: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// A tracer that records spans (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, recording a span named `name` of category `cat`.
    pub fn span<R>(&self, name: &'static str, cat: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let dur_s = t0.elapsed().as_secs_f64();
        let rec = SpanRec {
            name,
            cat,
            start_s: t0.duration_since(self.epoch).as_secs_f64(),
            dur_s,
            tid: thread_ordinal(),
        };
        self.spans.lock().expect("span buffer lock").push(rec);
        out
    }

    /// [`Tracer::span`] for a replayed layer call.
    pub fn replay<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, "replay", f)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Total seconds of every span named `name` in category `cat`.
    pub fn total(&self, name: &str, cat: &str) -> f64 {
        let spans = self.spans.lock().expect("span buffer lock");
        spans
            .iter()
            .filter(|s| s.name == name && s.cat == cat)
            .map(|s| s.dur_s)
            .sum()
    }

    /// The spans as Chrome trace-event JSON, serialized through leo-obs'
    /// trace exporter so the file loads in Perfetto like the program's
    /// own traces.
    pub fn chrome_json(&self) -> String {
        let mut events = Vec::new();
        for s in self.spans() {
            let begin = (s.start_s * 1e6) as u64;
            let end = ((s.start_s + s.dur_s) * 1e6) as u64;
            for (ph, ts_us) in [('B', begin), ('E', end)] {
                events.push(leo_obs::TraceEvent {
                    name: s.name.into(),
                    cat: s.cat,
                    ph,
                    ts_us,
                    tid: s.tid,
                });
            }
        }
        // Stable sort: a span's begin stays ahead of its own end when
        // both land on the same microsecond.
        events.sort_by_key(|e| (e.ts_us, e.tid));
        leo_obs::chrome_trace_json(&leo_obs::TraceDump { events, dropped: 0 })
    }
}

/// One layer of a workload's attribution tree.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Span name the layer's busy time is summed from.
    pub span: &'static str,
    /// The layer whose calls contain this one's work; `None` for a
    /// public call the workload makes directly.
    pub parent: Option<&'static str>,
    /// True for a call that fans out over the whole pool internally: its
    /// span counts `threads` x its wall time. Otherwise one thread.
    pub parallel: bool,
    /// Setup layers are attributed against setup time, not against the
    /// measured phase.
    pub setup: bool,
}

impl Layer {
    /// A top-level public call running on one thread.
    pub const fn call(span: &'static str) -> Layer {
        Layer {
            span,
            parent: None,
            parallel: false,
            setup: false,
        }
    }

    /// A replayed layer whose work lies inside `parent`.
    pub const fn child(span: &'static str, parent: &'static str) -> Layer {
        Layer {
            span,
            parent: Some(parent),
            parallel: false,
            setup: false,
        }
    }
}

/// Busy and self time per layer, with the replayed totals scaled to the
/// call counts the measured run made.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// `(span, busy_s, self_s)` per layer, in table order.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// Share of the measured phase's thread-seconds that no phase
    /// layer's self time covers.
    pub unattributed_frac: f64,
}

impl Attribution {
    /// Self seconds of the layer named `span`, 0 when absent.
    pub fn self_s(&self, span: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == span).map_or(0.0, |r| r.2)
    }
}

/// Attributes busy time to `layers`.
///
/// * `busy(span)` gives a layer's total busy seconds per measured round
///   (already scaled from replay counts to the run's call counts);
/// * `threads` is the pool size a `parallel` layer occupies;
/// * `phase_budget_s` is thread-seconds of the measured phase per round.
///
/// Self time is busy minus the children's busy, clamped at 0 (a replay
/// can run faster than the same work did inside a contended call).
pub fn attribute(
    layers: &[Layer],
    busy: impl Fn(&str) -> f64,
    threads: usize,
    phase_budget_s: f64,
) -> Attribution {
    let busy_of = |l: &Layer| {
        let b = busy(l.span);
        if l.parallel {
            b * threads as f64
        } else {
            b
        }
    };
    let mut rows = Vec::with_capacity(layers.len());
    let mut covered = 0.0;
    for l in layers {
        let b = busy_of(l);
        let children: f64 = layers
            .iter()
            .filter(|c| c.parent == Some(l.span))
            .map(busy_of)
            .sum();
        let own = (b - children).max(0.0);
        if !l.setup {
            covered += own;
        }
        rows.push((l.span, b, own));
    }
    let unattributed_frac = if phase_budget_s > 0.0 {
        ((phase_budget_s - covered) / phase_budget_s).max(0.0)
    } else {
        0.0
    };
    Attribution {
        rows,
        unattributed_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let layers = [
            Layer::call("a"),
            Layer::child("b", "a"),
            Layer::child("c", "b"),
        ];
        let busy = |s: &str| match s {
            "a" => 10.0,
            "b" => 4.0,
            "c" => 5.0,
            _ => 0.0,
        };
        let at = attribute(&layers, busy, 2, 20.0);
        assert_eq!(at.self_s("a"), 6.0);
        assert_eq!(at.self_s("b"), 0.0);
        assert_eq!(at.self_s("c"), 5.0);
        assert!((at.unattributed_frac - 9.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "call", || 3), 3);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("x", "call", || ());
        assert!(t.total("x", "call") > 0.0);
        assert_eq!(t.total("x", "replay"), 0.0);
        let json = t.chrome_json();
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    }
}
