//! `serve`: nearest-server answers for a 1.2 M-user population over a
//! 60 s snapshot schedule, through `ServeEngine::new` / `sweep`.

use crate::common::{fnv, sub_seed, Checked, Config, Digest, Measured, Scale};
use crate::runner::{Replayed, TraceCtx, Workload};
use crate::trace::{Layer, Tracer};
use leo_constellation::{presets, SatId};
use leo_core::InOrbitService;
use leo_net::engine::with_thread_arena;
use leo_net::visibility::VisibleSat;
use leo_net::{GroundSet, IslWeights, NearestState, VisibilityIndex};
use leo_serve::{synthesize_users, ServeConfig, ServeEngine, SweepReport};
use std::time::Instant;

/// Snapshot spacing, seconds: serve_bench's full-mode cadence.
const STEP_S: f64 = 60.0;
/// Degrees of scatter around each user's city anchor, as in serve_bench.
const SPREAD_DEG: f64 = 2.0;
/// In-program validation cadence: serve_bench's full-mode setting.
const VALIDATE_EVERY: usize = 4;

/// The `serve` workload.
pub struct Serve;

/// Inputs after set-up.
pub struct ServeSetup {
    engine: ServeEngine,
    times: Vec<f64>,
}

fn sizes(scale: Scale) -> (usize, usize, usize) {
    // (users, snapshots, oracle sample stride)
    match scale {
        Scale::Full => (1_200_000, 12, 600),
        Scale::Tiny => (3_000, 3, 3),
    }
}

fn serve_config(cfg: &Config) -> ServeConfig {
    ServeConfig {
        threads: cfg.threads,
        validate_every: VALIDATE_EVERY,
        ..ServeConfig::default()
    }
}

/// FNV-1a over `(server id, delay bits)` per user, in the sweep's
/// checksum format (`SnapshotStats::assignment_checksum`).
fn checksum(answers: impl Iterator<Item = Option<VisibleSat>>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |mut h: u64, v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    };
    answers.fold(OFFSET, |h, a| match a {
        Some(v) => fold(fold(h, u64::from(v.id.0)), v.delay_s().to_bits()),
        None => fold(h, u64::MAX),
    })
}

impl Workload for Serve {
    type Setup = ServeSetup;
    type Output = SweepReport;

    fn layers(&self) -> Vec<Layer> {
        vec![
            Layer {
                setup: true,
                ..Layer::call("serve.shard")
            },
            Layer {
                parallel: true,
                ..Layer::call("serve.sweep")
            },
            Layer::child("service.view", "serve.sweep"),
            Layer::child("constellation.snapshot", "service.view"),
            Layer::child("index.build", "service.view"),
            Layer::child("engine.refresh", "service.view"),
            Layer::child("engine.delta", "serve.sweep"),
            Layer::child("frontier.settle", "serve.sweep"),
            Layer::child("index.scan", "serve.sweep"),
            Layer::child("engine.dijkstra", "serve.sweep"),
        ]
    }

    fn setup(&self, cfg: &Config, tracer: &Tracer) -> ServeSetup {
        let (users, snapshots, _) = sizes(cfg.scale);
        let start = (sub_seed(cfg.seed, 1) % 96) as f64 * STEP_S;
        let times = (0..snapshots).map(|i| start + i as f64 * STEP_S).collect();
        let population = synthesize_users(users, SPREAD_DEG, sub_seed(cfg.seed, 2));
        let service = InOrbitService::new(presets::starlink_550_only());
        let engine = tracer.span("serve.shard", "call", || {
            ServeEngine::new(service, population, serve_config(cfg))
        });
        ServeSetup { engine, times }
    }

    fn measure(&self, _cfg: &Config, s: &ServeSetup, tracer: &Tracer) -> (Measured, SweepReport) {
        let t0 = Instant::now();
        let report = tracer.span("serve.sweep", "call", || s.engine.sweep(&s.times));
        let wall = t0.elapsed().as_secs_f64();
        let m = Measured {
            ops: report.total_queries,
            phase_s: wall,
            call_s: vec![wall],
        };
        (m, report)
    }

    fn check(&self, cfg: &Config, s: &ServeSetup, report: &SweepReport) -> Checked {
        let mut c = Checked::default();
        let n = s.engine.users().num_users() as u64;
        for row in &report.snapshots {
            // The vendored JSON writer carries integers as f64, so the
            // 64-bit checksum is folded in directly.
            let fields = [
                row.time_s.to_bits(),
                row.served,
                row.unserved,
                row.handoffs,
                row.mean_rtt_ms.to_bits(),
                row.assignment_checksum,
            ];
            let bytes: Vec<u8> = fields.iter().flat_map(|v| v.to_le_bytes()).collect();
            c.digests.push(Digest {
                label: format!("t={}", row.time_s),
                value: fnv(&bytes),
            });
            c.check(row.served + row.unserved == n, || {
                format!(
                    "t={}: {} + {} answers for {n} users",
                    row.time_s, row.served, row.unserved
                )
            });
        }
        c.check(
            report.snapshots.len() == s.times.len()
                && report.total_queries == n * s.times.len() as u64
                && report.delta_full_rebuilds == 1,
            || {
                format!(
                    "sweep report shape: {} rows, {} queries, {} full rebuilds",
                    report.snapshots.len(),
                    report.total_queries,
                    report.delta_full_rebuilds
                )
            },
        );

        // Independent oracle: a sampled sub-population swept on its own
        // must match per-user `nearest_server_view` scans, snapshot by
        // snapshot, in the sweep's own checksum format.
        let (_, _, stride) = sizes(cfg.scale);
        let sample: Vec<_> = s
            .engine
            .users()
            .users()
            .iter()
            .step_by(stride)
            .copied()
            .collect();
        let oracle_engine = ServeEngine::new(
            InOrbitService::new(presets::starlink_550_only()),
            sample,
            serve_config(cfg),
        );
        let swept = oracle_engine.sweep(&s.times);
        let service = oracle_engine.service();
        for (row, &t) in swept.snapshots.iter().zip(&s.times) {
            let view = service.view(t);
            let users = oracle_engine.users().users();
            let expect = checksum(users.iter().map(|u| service.nearest_server_view(&view, u)));
            c.check(row.assignment_checksum == expect, || {
                format!(
                    "t={t}: sampled sweep checksum {:016x}, per-user oracle {expect:016x}",
                    row.assignment_checksum
                )
            });
        }
        c
    }

    fn replay(
        &self,
        cfg: &Config,
        s: &ServeSetup,
        report: &SweepReport,
        ctx: TraceCtx<'_>,
    ) -> Replayed {
        let t = ctx.tracer;
        let service = InOrbitService::new(presets::starlink_550_only());
        let constellation = service.constellation();
        let engine = service.routing_engine().clone();
        let shards = s.engine.users();
        let sets: Vec<GroundSet> = (0..shards.num_shards())
            .map(|i| GroundSet::build(&shards.shard(i).iter().map(|u| u.ecef).collect::<Vec<_>>()))
            .collect();
        let mut delta = IslWeights::default();
        let mut answers = Vec::new();
        for (step, &time) in s.times.iter().enumerate() {
            let view = t.replay("service.view", || service.view(time));
            let snap = t.replay("constellation.snapshot", || constellation.snapshot(time));
            t.replay("index.build", || {
                VisibilityIndex::build(constellation, &snap)
            });
            t.replay("engine.refresh", || engine.refresh(&snap));
            t.replay("engine.delta", || {
                engine.refresh_delta(view.snapshot(), &mut delta)
            });
            // 60 s of motion moves every satellite, so each snapshot is
            // a cold settle per shard in the sweep too.
            for set in &sets {
                let mut state = NearestState::default();
                t.replay("frontier.settle", || {
                    view.settle_nearest_servers(set, &mut state, &mut answers)
                });
            }
            if step % VALIDATE_EVERY == 0 && shards.num_shards() > 0 {
                let users = shards.shard(step % shards.num_shards());
                t.replay("index.scan", || service.nearest_servers_view(&view, users));
                t.replay("engine.dijkstra", || {
                    let links = view.attach(users);
                    let sources: Vec<SatId> = (0..engine.num_sats() as u32).map(SatId).collect();
                    let (mut delays, mut winners) = (Vec::new(), Vec::new());
                    with_thread_arena(|arena| {
                        engine.multi_source_ground_frontier_into(
                            &delta,
                            &links,
                            &sources,
                            &mut delays,
                            &mut winners,
                            arena,
                        )
                    });
                    winners
                });
            }
        }

        let m = ctx.metrics;
        let edges = (report.delta_recomputed + report.delta_skipped) as f64;
        if edges > 0.0 {
            m.insert(
                "engine.delta.recompute_frac",
                report.delta_recomputed as f64 / edges,
            );
        }
        // The sweep fans shard settles over the pool; their replayed
        // busy time over the pool's thread-seconds estimates its use.
        let sweep_wall = t.total("serve.sweep", "call") / ctx.counters.rounds().max(1) as f64;
        if sweep_wall > 0.0 {
            m.insert(
                "sim.pool_utilization",
                t.total("frontier.settle", "replay") / (cfg.threads as f64 * sweep_wall),
            );
        }
        Replayed {
            builds: s.times.len(),
            instants: s.times.len(),
        }
    }
}
