//! Multi-session orchestration under capacity constraints.
//!
//! The single-session machinery ([`crate::session`]) assumes its
//! satellite has room. At scale, many meetup groups compete for the
//! *same* well-placed servers (§3.1: "One satellite may not offer a
//! large amount of available compute"). The orchestrator runs many
//! concurrent groups against per-server slot budgets: each group keeps
//! its server while it remains servable and funded, and on a forced
//! hand-off picks the best *available* (not merely best) successor —
//! trading latency for admission the way any capacity-constrained
//! scheduler must.

use crate::selection::GroupWatch;
use crate::service::InOrbitService;
use crate::session::SessionConfig;
use leo_constellation::SatId;
use leo_net::routing::GroundEndpoint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One tenant group in the orchestrator.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Group name (for reports).
    pub name: String,
    /// The group's users.
    pub users: Vec<GroundEndpoint>,
    /// Server slots the group's meetup service needs.
    pub slots: u32,
}

/// Orchestrator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorConfig {
    /// Slots per satellite-server.
    pub slots_per_server: u32,
    /// Start time, seconds.
    pub start_s: f64,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Tick, seconds.
    pub tick_s: f64,
}

/// Per-group outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupOutcome {
    /// Group name.
    pub name: String,
    /// Server hand-offs (excluding initial acquisition).
    pub handoffs: u32,
    /// Ticks the group was served.
    pub served_ticks: u32,
    /// Ticks the group wanted service but every suitable server was full
    /// (capacity blocking) or none was visible (coverage blocking).
    pub blocked_ticks: u32,
    /// Mean group RTT over served ticks, ms.
    pub mean_rtt_ms: f64,
}

/// Orchestration result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorResult {
    /// Per-group outcomes, in input order.
    pub groups: Vec<GroupOutcome>,
    /// Peak number of slots in use at any tick.
    pub peak_slots_in_use: u64,
}

impl OrchestratorResult {
    /// Fraction of group-ticks served (1.0 = nobody ever blocked).
    pub fn service_ratio(&self) -> f64 {
        let served: u64 = self.groups.iter().map(|g| g.served_ticks as u64).sum();
        let total: u64 = self
            .groups
            .iter()
            .map(|g| (g.served_ticks + g.blocked_ticks) as u64)
            .sum();
        if total == 0 {
            1.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// Runs all groups concurrently.
pub fn orchestrate(
    service: &InOrbitService,
    groups: &[GroupSpec],
    config: &OrchestratorConfig,
) -> OrchestratorResult {
    let sweep = SessionConfig {
        start_s: config.start_s,
        duration_s: config.duration_s,
        tick_s: config.tick_s,
    };
    sweep.validate();
    assert!(
        config.slots_per_server > 0,
        "slots_per_server > 0 required, got {}",
        config.slots_per_server
    );
    let mut watches: Vec<GroupWatch> = groups
        .iter()
        .map(|g| GroupWatch::new(service, &g.users))
        .collect();
    let mut current: Vec<Option<SatId>> = vec![None; groups.len()];
    let mut used: HashMap<SatId, u32> = HashMap::new();
    let mut outcomes: Vec<GroupOutcome> = groups
        .iter()
        .map(|g| GroupOutcome {
            name: g.name.clone(),
            handoffs: 0,
            served_ticks: 0,
            blocked_ticks: 0,
            mean_rtt_ms: 0.0,
        })
        .collect();
    let mut rtt_sums = vec![0.0f64; groups.len()];
    let mut peak_slots = 0u64;

    for i in 0..=sweep.ticks() {
        let t = config.start_s + i as f64 * config.tick_s;
        for ((gi, group), watch) in groups.iter().enumerate().zip(&mut watches) {
            let delays = watch.delays(t);

            // Keep the incumbent while servable.
            if let Some(cur) = current[gi] {
                if delays.delay_s(cur).is_finite() {
                    outcomes[gi].served_ticks += 1;
                    rtt_sums[gi] += delays.rtt_ms(cur);
                    continue;
                }
                // Forced hand-off: release the old reservation.
                *used.get_mut(&cur).expect("reservation exists") -= group.slots;
                current[gi] = None;
            }

            // Acquire the best server with free capacity.
            let candidates = delays.within_slack(f64::INFINITY); // all servable, sorted by delay
            let pick = candidates.iter().find(|(sat, _)| {
                used.get(sat).copied().unwrap_or(0) + group.slots <= config.slots_per_server
            });
            match pick {
                Some(&(sat, _)) => {
                    *used.entry(sat).or_insert(0) += group.slots;
                    // A re-acquisition after prior service is a hand-off;
                    // the very first acquisition is not.
                    if outcomes[gi].served_ticks > 0 {
                        outcomes[gi].handoffs += 1;
                    }
                    current[gi] = Some(sat);
                    outcomes[gi].served_ticks += 1;
                    rtt_sums[gi] += delays.rtt_ms(sat);
                }
                None => outcomes[gi].blocked_ticks += 1,
            }
        }
        let in_use: u64 = used.values().map(|&v| v as u64).sum();
        peak_slots = peak_slots.max(in_use);
    }

    for (gi, o) in outcomes.iter_mut().enumerate() {
        o.mean_rtt_ms = if o.served_ticks > 0 {
            rtt_sums[gi] / o.served_ticks as f64
        } else {
            f64::NAN
        };
    }
    OrchestratorResult {
        groups: outcomes,
        peak_slots_in_use: peak_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;
    use leo_geo::Geodetic;

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_550_only())
    }

    fn group(name: &str, lat: f64, lon: f64, slots: u32) -> GroupSpec {
        GroupSpec {
            name: name.into(),
            users: vec![
                GroundEndpoint::new(0, Geodetic::ground(lat, lon)),
                GroundEndpoint::new(1, Geodetic::ground(lat - 1.5, lon + 2.0)),
            ],
            slots,
        }
    }

    fn config(slots_per_server: u32) -> OrchestratorConfig {
        OrchestratorConfig {
            slots_per_server,
            start_s: 0.0,
            duration_s: 600.0,
            tick_s: 20.0,
        }
    }

    #[test]
    fn single_group_with_ample_capacity_is_never_blocked() {
        let s = service();
        let r = orchestrate(&s, &[group("solo", 10.0, 10.0, 1)], &config(32));
        assert_eq!(r.groups[0].blocked_ticks, 0);
        assert_eq!(r.service_ratio(), 1.0);
        assert!(r.groups[0].mean_rtt_ms < 16.0);
        assert!(r.peak_slots_in_use >= 1);
    }

    #[test]
    fn colocated_groups_spread_across_servers_when_one_fills() {
        let s = service();
        // Four groups at the same place, each needing the whole server.
        let groups: Vec<GroupSpec> = (0..4)
            .map(|i| group(&format!("g{i}"), 10.0, 10.0, 1))
            .collect();
        let r = orchestrate(&s, &groups, &config(1));
        // Plenty of visible servers at this latitude: all four served.
        for g in &r.groups {
            assert_eq!(g.blocked_ticks, 0, "{} blocked", g.name);
        }
        assert!(r.peak_slots_in_use >= 4);
        // Later groups get farther (or equal) servers than the first.
        assert!(r.groups[3].mean_rtt_ms >= r.groups[0].mean_rtt_ms - 0.5);
    }

    #[test]
    fn scarce_capacity_blocks_the_overflow() {
        let s = service();
        // More single-slot groups than any location has visible servers.
        let visible = s.reachable_servers(Geodetic::ground(10.0, 10.0), 0.0).len();
        let groups: Vec<GroupSpec> = (0..visible + 4)
            .map(|i| group(&format!("g{i}"), 10.0, 10.0, 1))
            .collect();
        let r = orchestrate(&s, &groups, &config(1));
        let blocked: u32 = r.groups.iter().map(|g| g.blocked_ticks).sum();
        assert!(blocked > 0, "expected capacity blocking");
        assert!(r.service_ratio() < 1.0);
    }

    #[test]
    fn unserved_region_counts_as_coverage_blocking() {
        let s = service();
        let r = orchestrate(&s, &[group("arctic", 86.0, 0.0, 1)], &config(8));
        assert_eq!(r.groups[0].served_ticks, 0);
        assert!(r.groups[0].blocked_ticks > 0);
        assert!(r.groups[0].mean_rtt_ms.is_nan());
    }

    #[test]
    fn reservations_are_released_on_handoff() {
        // Over 30 minutes every group hands off several times; if slots
        // leaked, the 1-slot servers would exhaust and blocking would
        // appear. No blocking → release works.
        let s = service();
        let groups: Vec<GroupSpec> = (0..3)
            .map(|i| group(&format!("g{i}"), 20.0, 30.0 + i as f64 * 3.0, 1))
            .collect();
        let cfg = OrchestratorConfig {
            slots_per_server: 1,
            start_s: 0.0,
            duration_s: 1800.0,
            tick_s: 20.0,
        };
        let r = orchestrate(&s, &groups, &cfg);
        for g in &r.groups {
            assert_eq!(g.blocked_ticks, 0, "{} blocked — slot leak?", g.name);
            assert!(g.handoffs > 0, "{} never handed off", g.name);
        }
    }

    #[test]
    #[should_panic(expected = "session duration must be finite and non-negative, got NaN")]
    fn nan_duration_is_rejected() {
        let cfg = OrchestratorConfig {
            duration_s: f64::NAN,
            ..config(4)
        };
        orchestrate(&service(), &[group("g", 10.0, 10.0, 1)], &cfg);
    }

    #[test]
    #[should_panic(expected = "tick must be positive and finite, got inf")]
    fn infinite_tick_is_rejected() {
        let cfg = OrchestratorConfig {
            tick_s: f64::INFINITY,
            ..config(4)
        };
        orchestrate(&service(), &[group("g", 10.0, 10.0, 1)], &cfg);
    }

    #[test]
    fn service_ratio_of_empty_run_is_one() {
        let r = OrchestratorResult {
            groups: vec![],
            peak_slots_in_use: 0,
        };
        assert_eq!(r.service_ratio(), 1.0);
    }
}
