//! Failure injection: sessions on an unreliable fleet.
//!
//! §4 ("Life-cycle"): *"if a satellite-server malfunctions before its
//! expected life, unlike in a data center, it would not be replaced
//! immediately."* §5's virtual stationarity must therefore survive not
//! just orbital hand-offs but *server deaths mid-session*. This module
//! injects deterministic exponential failures into the session runner
//! and measures the damage: extra hand-offs, and whether the abstraction
//! ever stalls.
//!
//! Failure times are sampled per satellite from `Exp(λ)` using the same
//! SplitMix64 generator as every other stochastic piece of the
//! reproduction, keyed by `(seed, satellite id)` — so runs are exactly
//! repeatable and adding satellites does not reshuffle existing draws.

use crate::selection::{sticky_select, GroupWatch, Policy};
use crate::service::InOrbitService;
use crate::session::{HandoffEvent, SessionConfig, SessionResult};
use leo_cities::synth::SplitMix64;
use leo_constellation::SatId;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};

/// Server failure model for a session run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Annual failure rate λ, fraction per year. Real servers are a few
    /// percent; tests exaggerate to make failures land inside short
    /// sessions.
    pub annual_failure_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FailureModel {
    /// The deterministic failure time of a satellite's server, in
    /// seconds after the epoch (`INFINITY` effectively, when the draw
    /// lands beyond any simulated horizon).
    pub fn failure_time_s(&self, sat: SatId) -> f64 {
        if self.annual_failure_rate <= 0.0 {
            return f64::INFINITY;
        }
        let mut rng = SplitMix64::new(
            self.seed ^ (0x9E37_79B9 ^ u64::from(sat.0)).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        // Exponential draw: −ln(U)/λ years → seconds.
        let u = rng.next_f64().max(1e-18);
        let years = -u.ln() / self.annual_failure_rate;
        years * 365.25 * 86_400.0
    }

    /// True when the satellite's server is still alive at time `t`.
    pub fn alive(&self, sat: SatId, t: f64) -> bool {
        t < self.failure_time_s(sat)
    }

    /// Lowers this model into a [`leo_net::FailureSchedule`] over the
    /// first `num_sats` satellites — the bridge from the session-layer
    /// failure model to the network-layer fault plan. The same seeded
    /// draws that kill servers in [`run_session_with_failures`] then also
    /// mask them out of routing, visibility, and attachment when the
    /// schedule is handed to
    /// [`InOrbitService::with_faults`](crate::InOrbitService::with_faults).
    pub fn schedule(&self, num_sats: usize) -> leo_net::FailureSchedule {
        leo_net::FailureSchedule::from_death_times(
            (0..num_sats)
                .map(|i| self.failure_time_s(SatId(i as u32)))
                .collect(),
        )
    }
}

/// What failure injection did to a session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Hand-offs forced by a server dying under the session (as opposed
    /// to orbital motion).
    pub failure_handoffs: u32,
    /// Ticks where the whole group was servable geometrically but every
    /// candidate server was dead.
    pub dead_ticks: u32,
}

/// Runs a session on a fleet with failing servers. Mirrors
/// [`crate::session::run_session`] but masks dead satellites out of the
/// candidate set; a Sticky selection that lands on a dead satellite
/// falls back to the masked optimum.
pub fn run_session_with_failures(
    service: &InOrbitService,
    users: &[GroundEndpoint],
    policy: Policy,
    config: &SessionConfig,
    failures: &FailureModel,
) -> (SessionResult, FailoverReport) {
    config.validate();
    let mut watch = GroupWatch::new(service, users);
    let mut events = Vec::new();
    let mut rtt_samples = Vec::new();
    let mut current: Option<SatId> = None;
    let mut report = FailoverReport {
        failure_handoffs: 0,
        dead_ticks: 0,
    };

    for i in 0..=config.ticks() {
        let t = config.start_s + i as f64 * config.tick_s;
        let mut delays = watch.delays(t);
        let geometrically_servable = delays.minmax().is_some();
        // Mask dead servers.
        for sat in 0..delays.len() {
            let id = SatId(sat as u32);
            if delays.delay_s(id).is_finite() && !failures.alive(id, t) {
                delays.exclude(id);
            }
        }
        let Some((optimal, _)) = delays.minmax() else {
            if geometrically_servable {
                report.dead_ticks += 1;
            }
            current = None;
            continue;
        };

        // Did the incumbent just die under us? (It may lose visibility at
        // the same instant; the death still forced the hand-off.)
        let incumbent_died = current.is_some_and(|cur| !failures.alive(cur, t));

        let desired = match policy {
            Policy::MinMax => optimal,
            Policy::Sticky(params) => match current {
                Some(cur) if delays.delay_s(cur).is_finite() => cur,
                _ => match sticky_select(service, users, t, &params) {
                    // Sticky's internal lookahead is failure-blind; reject
                    // a pick that is already dead.
                    Some(pick) if delays.delay_s(pick).is_finite() => pick,
                    _ => optimal,
                },
            },
        };

        if current != Some(desired) {
            if incumbent_died {
                report.failure_handoffs += 1;
            }
            let transfer_latency_ms = current.and_then(|old| {
                // A dead server cannot push its state; the successor
                // restores from the ground segment instead — same path
                // model, but only when the old server is alive.
                if failures.alive(old, t) {
                    let view = service.transient_view(t);
                    service
                        .migration_delay_view(&view, users, old, desired)
                        .map(|d| d * 1e3)
                } else {
                    None
                }
            });
            events.push(HandoffEvent {
                time_s: t,
                from: current,
                to: desired,
                transfer_latency_ms,
                group_rtt_ms: delays.rtt_ms(desired),
            });
            current = Some(desired);
        }
        rtt_samples.push((t, delays.rtt_ms(desired)));
    }

    (
        SessionResult {
            policy,
            events,
            rtt_samples,
            end_s: config.start_s + config.duration_s,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    fn users() -> Vec<GroundEndpoint> {
        vec![
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
            GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
        ]
    }

    fn config() -> SessionConfig {
        SessionConfig {
            start_s: 0.0,
            duration_s: 900.0,
            tick_s: 15.0,
        }
    }

    #[test]
    fn failure_times_are_deterministic_and_exponentialish() {
        let m = FailureModel {
            annual_failure_rate: 0.1,
            seed: 7,
        };
        assert_eq!(m.failure_time_s(SatId(3)), m.failure_time_s(SatId(3)));
        assert_ne!(m.failure_time_s(SatId(3)), m.failure_time_s(SatId(4)));
        // Mean of Exp(0.1/yr) is 10 years; sample mean over many sats
        // should land within a factor of ~1.5.
        let n = 2000;
        let mean_years: f64 = (0..n)
            .map(|i| m.failure_time_s(SatId(i)) / (365.25 * 86_400.0))
            .sum::<f64>()
            / n as f64;
        assert!((6.5..15.0).contains(&mean_years), "mean {mean_years}");
    }

    #[test]
    fn schedule_bridge_agrees_with_the_model() {
        let m = FailureModel {
            annual_failure_rate: 500.0,
            seed: 9,
        };
        let sched = m.schedule(64);
        assert_eq!(sched.len(), 64);
        for i in 0..64u32 {
            let id = SatId(i);
            assert_eq!(sched.death_time_s(id), m.failure_time_s(id));
            for t in [0.0, 3600.0, 86_400.0, 1e9] {
                assert_eq!(sched.alive(id, t), m.alive(id, t), "sat {i} at t={t}");
            }
        }
        // Out-of-range satellites default to alive, matching a fleet that
        // grew after the schedule was drawn.
        assert!(sched.alive(SatId(64), 1e12));
    }

    #[test]
    fn zero_rate_never_fails() {
        let m = FailureModel {
            annual_failure_rate: 0.0,
            seed: 1,
        };
        assert!(m.alive(SatId(0), 1e12));
    }

    #[test]
    fn realistic_failure_rates_leave_short_sessions_untouched() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let m = FailureModel {
            annual_failure_rate: 0.08,
            seed: 42,
        };
        let (with, report) =
            run_session_with_failures(&service, &users(), Policy::MinMax, &config(), &m);
        let without = crate::session::run_session(&service, &users(), Policy::MinMax, &config());
        // At 8 %/yr, a 15-minute session sees essentially no deaths.
        assert_eq!(report.failure_handoffs, 0);
        assert_eq!(report.dead_ticks, 0);
        assert_eq!(with.handoff_count(), without.handoff_count());
    }

    #[test]
    fn absurd_failure_rates_disrupt_but_do_not_stall_the_session() {
        // λ = 2000/yr → mean server life ≈ 4.4 h; several of the ~25
        // commonly-visible servers die during the session, yet the dense
        // shell keeps the group served.
        let service = InOrbitService::new(presets::starlink_550_only());
        let m = FailureModel {
            annual_failure_rate: 2000.0,
            seed: 42,
        };
        let (result, report) =
            run_session_with_failures(&service, &users(), Policy::MinMax, &config(), &m);
        assert!(result.rtt_samples.len() > 50, "session mostly served");
        assert_eq!(report.dead_ticks, 0, "no full outage at this density");
        // The RTT stays within the direct-visibility envelope even with
        // the best servers dying.
        for &(_, rtt) in &result.rtt_samples {
            assert!(rtt < 16.5);
        }
    }

    #[test]
    fn total_fleet_death_stalls_service_and_counts_dead_ticks() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let m = FailureModel {
            annual_failure_rate: 1e9, // everything dead at t ≈ 0⁺
            seed: 3,
        };
        let (result, report) =
            run_session_with_failures(&service, &users(), Policy::MinMax, &config(), &m);
        assert!(report.dead_ticks > 50, "dead ticks {}", report.dead_ticks);
        assert!(result.rtt_samples.len() < 5);
    }

    #[test]
    #[should_panic(expected = "session duration must be finite and non-negative, got NaN")]
    fn nan_duration_is_rejected() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            duration_s: f64::NAN,
            ..config()
        };
        let m = FailureModel {
            annual_failure_rate: 1.0,
            seed: 1,
        };
        run_session_with_failures(&service, &users(), Policy::MinMax, &cfg, &m);
    }

    #[test]
    #[should_panic(expected = "tick must be positive and finite, got inf")]
    fn infinite_tick_is_rejected() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let cfg = SessionConfig {
            tick_s: f64::INFINITY,
            ..config()
        };
        let m = FailureModel {
            annual_failure_rate: 1.0,
            seed: 1,
        };
        run_session_with_failures(&service, &users(), Policy::MinMax, &cfg, &m);
    }

    #[test]
    fn sticky_survives_failures_of_its_held_server() {
        let service = InOrbitService::new(presets::starlink_550_only());
        let m = FailureModel {
            annual_failure_rate: 2000.0,
            seed: 11,
        };
        let (result, _) =
            run_session_with_failures(&service, &users(), Policy::sticky_default(), &config(), &m);
        // Every held server in the event log must have been alive when
        // acquired.
        for e in &result.events {
            assert!(
                m.alive(e.to, e.time_s),
                "acquired a dead server at {}",
                e.time_s
            );
        }
    }
}
