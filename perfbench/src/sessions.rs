//! `sessions`: MinMax and Sticky meetup sessions at 1 s ticks under a
//! seeded outage schedule, through `run_session` fanned by
//! `leo_sim::parallel_map` over one shared `InOrbitService`.

use crate::common::{digest_json, meetup_groups, sub_seed, Checked, Config, Measured, Scale};
use crate::runner::{Replayed, TraceCtx, Workload};
use crate::trace::{Layer, Tracer};
use leo_constellation::presets;
use leo_core::selection::sticky_select;
use leo_core::session::run_session;
use leo_core::{FailureModel, GroupDelays, InOrbitService, Policy, SessionConfig, SessionResult};
use leo_net::routing::GroundEndpoint;
use leo_net::{FaultConfig, IslWeights, VisibilityIndex};
use leo_sim::parallel_map;
use std::collections::BTreeSet;
use std::time::Instant;

/// Annual per-satellite failure rate: one of fig6_faults' non-zero rates.
const FAILURE_RATE_PER_YEAR: f64 = 2000.0;
/// Users per meetup group.
const GROUP_SIZE: usize = 3;
/// Radius of the disc each group's users are drawn in, km: groups span
/// up to ~1,000 km, like the paper's West Africa trio.
const GROUP_RADIUS_KM: f64 = 500.0;

/// The `sessions` workload.
pub struct Sessions;

/// Inputs after set-up.
pub struct SessionsSetup {
    service: InOrbitService,
    faults: FaultConfig,
    groups: Vec<Vec<GroundEndpoint>>,
    session: SessionConfig,
}

fn sizes(scale: Scale) -> (usize, f64) {
    // (groups, session length in seconds); the full length exceeds the
    // service's 1,024-instant snapshot cache.
    match scale {
        Scale::Full => (6, 1200.0),
        Scale::Tiny => (2, 40.0),
    }
}

fn policies() -> [Policy; 2] {
    [Policy::MinMax, Policy::sticky_default()]
}

impl SessionsSetup {
    /// Every (group, policy) session, in fan-out order.
    fn sessions(&self) -> Vec<(usize, Policy)> {
        (0..self.groups.len())
            .flat_map(|g| policies().into_iter().map(move |p| (g, p)))
            .collect()
    }

    fn ticks(&self) -> usize {
        (self.session.duration_s / self.session.tick_s).round() as usize + 1
    }
}

/// The outputs of one measured phase.
pub struct SessionsOutput {
    results: Vec<SessionResult>,
}

impl Workload for Sessions {
    type Setup = SessionsSetup;
    type Output = SessionsOutput;

    fn layers(&self) -> Vec<Layer> {
        vec![
            Layer::call("session.run"),
            Layer::child("service.view", "session.run"),
            Layer::child("constellation.snapshot", "service.view"),
            Layer::child("index.build", "service.view"),
            Layer::child("fault.plan", "service.view"),
            Layer::child("engine.refresh", "service.view"),
            Layer::child("session.group_delays", "session.run"),
            Layer::child("index.scan", "session.group_delays"),
            Layer::child("session.sticky_select", "session.run"),
            Layer::child("engine.dijkstra", "session.run"),
        ]
    }

    fn setup(&self, cfg: &Config, _tracer: &Tracer) -> SessionsSetup {
        let (groups, duration_s) = sizes(cfg.scale);
        let constellation = presets::starlink_phase1_conservative();
        let faults = FaultConfig {
            schedule: Some(
                FailureModel {
                    annual_failure_rate: FAILURE_RATE_PER_YEAR,
                    seed: sub_seed(cfg.seed, 3),
                }
                .schedule(constellation.num_satellites()),
            ),
            ..FaultConfig::none()
        };
        let service = InOrbitService::with_faults(constellation, faults.clone());
        SessionsSetup {
            service,
            faults,
            groups: meetup_groups(sub_seed(cfg.seed, 4), groups, GROUP_SIZE, GROUP_RADIUS_KM),
            session: SessionConfig {
                start_s: (sub_seed(cfg.seed, 5) % 86_400) as f64,
                duration_s,
                tick_s: 1.0,
            },
        }
    }

    fn measure(
        &self,
        cfg: &Config,
        s: &SessionsSetup,
        tracer: &Tracer,
    ) -> (Measured, SessionsOutput) {
        let sessions = s.sessions();
        let t0 = Instant::now();
        let timed = parallel_map(sessions, cfg.threads, |&(g, policy)| {
            let c0 = Instant::now();
            let r = tracer.span("session.run", "call", || {
                run_session(&s.service, &s.groups[g], policy, &s.session)
            });
            (r, c0.elapsed().as_secs_f64())
        });
        let phase_s = t0.elapsed().as_secs_f64();
        let (results, call_s): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
        let m = Measured {
            ops: (results.len() * s.ticks()) as u64,
            phase_s,
            call_s,
        };
        (m, SessionsOutput { results })
    }

    fn check(&self, _cfg: &Config, s: &SessionsSetup, out: &SessionsOutput) -> Checked {
        let mut c = Checked::default();
        let end = s.session.start_s + s.session.duration_s;
        for ((g, policy), r) in s.sessions().into_iter().zip(&out.results) {
            let label = format!("group {g} {}", policy.name());
            c.digests.push(digest_json(label.clone(), r));
            let ordered = r.events.windows(2).all(|w| w[0].time_s < w[1].time_s);
            let first_is_acquisition = r.events.first().is_none_or(|e| e.from.is_none());
            let samples_ok = r.rtt_samples.len() <= s.ticks()
                && r.rtt_samples.iter().all(|&(t, rtt)| {
                    rtt.is_finite() && rtt > 0.0 && t >= s.session.start_s && t <= end
                });
            c.check(
                r.policy == policy && ordered && first_is_acquisition && samples_ok,
                || format!("{label}: malformed session result"),
            );
        }
        c
    }

    fn replay(
        &self,
        cfg: &Config,
        s: &SessionsSetup,
        out: &SessionsOutput,
        ctx: TraceCtx<'_>,
    ) -> Replayed {
        let t = ctx.tracer;
        // One service only ever asked for each tick once, so every timed
        // view call is a build; a second one answers the session-level
        // queries, whose lookahead would otherwise pre-build later ticks.
        let builder =
            InOrbitService::with_faults(s.service.constellation().clone(), s.faults.clone());
        let service = builder.clone();
        let constellation = service.constellation();
        let engine = service.routing_engine().clone();
        let sessions = s.sessions();
        let mut next_event = vec![0usize; sessions.len()];
        let mut instants = BTreeSet::new();
        for i in 0..s.ticks() {
            let time = s.session.start_s + i as f64 * s.session.tick_s;
            instants.insert(time.to_bits());
            t.replay("service.view", || builder.view(time));
            let view = service.view(time);
            let snap = t.replay("constellation.snapshot", || constellation.snapshot(time));
            t.replay("index.build", || {
                VisibilityIndex::build(constellation, &snap)
            });
            let plan = t.replay("fault.plan", || s.faults.plan_at(time));
            t.replay("engine.refresh", || {
                let mut w = IslWeights::default();
                engine.refresh_into_masked(&snap, &plan, &mut w);
                w
            });
            for (j, &(g, policy)) in sessions.iter().enumerate() {
                let users = &s.groups[g];
                t.replay("session.group_delays", || {
                    GroupDelays::direct(&service, users, time)
                });
                t.replay("index.scan", || {
                    service.user_direct_delays_view(&view, users)
                });
                let events = &out.results[j].events;
                let Some(e) = events.get(next_event[j]).filter(|e| e.time_s == time) else {
                    continue;
                };
                next_event[j] += 1;
                if let Policy::Sticky(params) = policy {
                    // The lookahead instants the call visits.
                    let mut tau = params.lookahead_step_s;
                    while tau <= params.lookahead_horizon_s + 1e-9 {
                        instants.insert((time + tau).to_bits());
                        tau += params.lookahead_step_s;
                    }
                    // Warm its lookahead views first, so the timed call
                    // measures selection, not the snapshot builds that
                    // the service.view layer already accounts for.
                    sticky_select(&service, users, time, &params);
                    t.replay("session.sticky_select", || {
                        sticky_select(&service, users, time, &params)
                    });
                }
                if let Some(old) = e.from {
                    t.replay("engine.dijkstra", || {
                        service.migration_delay_view(&view, users, old, e.to)
                    });
                }
            }
        }

        let m = ctx.metrics;
        m.insert(
            "session.handoffs",
            out.results.iter().map(|r| r.handoff_count()).sum::<usize>() as f64,
        );
        let phase = t.total("measure", "phase");
        if phase > 0.0 {
            m.insert(
                "sim.pool_utilization",
                t.total("session.run", "call") / (cfg.threads as f64 * phase),
            );
        }
        Replayed {
            builds: s.ticks(),
            instants: instants.len(),
        }
    }
}
