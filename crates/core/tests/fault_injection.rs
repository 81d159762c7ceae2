//! End-to-end properties of the fault-injection layer.
//!
//! Three contracts the unit tests cannot pin alone:
//!
//! 1. **No masked traversal** — every delay the masked engine reports
//!    equals the shortest path over a reference graph from which the
//!    masked satellites, cut ISLs, and faded access links were *removed
//!    before* Dijkstra ran. Routing around the mask is therefore exact,
//!    not best-effort.
//! 2. **Empty plan = no plan** — a service carrying a fault scenario
//!    that masks nothing produces byte-identical session results to a
//!    service with no fault layer at all.
//! 3. **Fade-forced re-selection** — Sticky drops a held server whose
//!    access link rains out, not just one that dies or sets.
//! 4. **Fault-aware migration** — packet-level state migration routes
//!    every segment around dead satellites and cut ISLs, exactly as the
//!    masked reference graph does.

use leo_constellation::{presets, SatId};
use leo_core::replication::{migrate_via_packets, MigrationNetConfig, MigrationOutcome};
use leo_core::session::run_session;
use leo_core::{FailureModel, InOrbitService, Policy, SessionConfig};
use leo_geo::Geodetic;
use leo_net::routing::{self, GroundEndpoint};
use leo_net::visibility::visible_sats_masked;
use leo_net::weather::LinkBudget;
use leo_net::{FaultConfig, FaultPlan, NetworkGraph, NodeId, Path, RainFade};

fn users() -> Vec<GroundEndpoint> {
    vec![
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        GroundEndpoint::new(2, Geodetic::ground(6.52, 3.38)),
    ]
}

/// The ground truth: a graph with every masked element *absent*, so its
/// shortest paths cannot traverse them by construction.
fn reference_graph(
    service: &InOrbitService,
    snapshot: &leo_constellation::Snapshot,
    grounds: &[GroundEndpoint],
    plan: &FaultPlan,
) -> NetworkGraph {
    let c = service.constellation();
    let mut net = NetworkGraph::new();
    for sat in c.satellites() {
        net.add_node(NodeId::Sat(sat.id));
    }
    for (edge, len) in service.topology().active_edges(snapshot) {
        if !plan.isl_edge_masked(edge.a, edge.b) {
            net.add_edge_distance(NodeId::Sat(edge.a), NodeId::Sat(edge.b), len);
        }
    }
    for gp in grounds {
        net.add_node(gp.node());
        for v in visible_sats_masked(c, snapshot, gp.geodetic, gp.ecef, plan) {
            net.add_edge_distance(gp.node(), NodeId::Sat(v.id), v.range_m);
        }
    }
    net
}

#[test]
fn masked_routes_equal_shortest_paths_on_the_masked_graph() {
    // A scenario with all three fault kinds live at once: a failure
    // schedule that has already killed a band of satellites, two cut
    // ISLs, and a rain fade that raises the access mask.
    let mut cfg = FaultConfig::none();
    cfg.schedule = Some(
        FailureModel {
            annual_failure_rate: 4000.0,
            seed: 17,
        }
        .schedule(1584),
    );
    cfg.cut_links.push((SatId(100), SatId(101)));
    cfg.cut_links.push((SatId(40), SatId(62)));
    cfg.rain = Some(RainFade {
        budget: LinkBudget::CONSUMER,
        rain_rate_mm_h: 10.0,
    });
    let service = InOrbitService::with_faults(presets::starlink_550_only(), cfg.clone());
    let grounds = users();

    for t in [0.0, 1800.0, 3600.0] {
        let view = service.view(t);
        let plan = view.fault_plan().expect("fault service carries a plan");
        // λ = 4000/yr kills ~20 % of the fleet per half hour; t = 0
        // exercises the cuts+rain-only plan instead.
        assert!(
            t == 0.0 || plan.num_dead() > 0,
            "schedule should have killed sats by t={t}"
        );
        let reference = reference_graph(&service, view.snapshot(), &grounds, plan);
        let links = view.attach(&grounds);

        // Ground-to-ground: every pair, both directions.
        for i in 0..grounds.len() {
            for j in 0..grounds.len() {
                if i == j {
                    continue;
                }
                let engine = view.ground_to_ground_delay(&links, i, j);
                let reference_path = reference.shortest_path(grounds[i].node(), grounds[j].node());
                match (engine, reference_path) {
                    (Some(d), Some(p)) => {
                        assert!(
                            (d - p.delay_s).abs() <= 1e-12 * p.delay_s.max(1.0),
                            "t={t} {i}->{j}: engine {d} vs reference {}",
                            p.delay_s
                        );
                        for node in &p.nodes {
                            if let NodeId::Sat(s) = node {
                                assert!(!plan.sat_dead(*s), "path crosses dead {s}");
                            }
                        }
                    }
                    (None, None) => {}
                    (e, r) => panic!("t={t} {i}->{j}: engine {e:?} vs reference {r:?}"),
                }
            }
        }

        // Sat-to-sat over the masked ISL mesh, including dead endpoints.
        let probes = [
            (SatId(0), SatId(700)),
            (SatId(100), SatId(101)),
            (SatId(40), SatId(62)),
            (SatId(3), SatId(1583)),
        ];
        for (a, b) in probes {
            let engine = view.sat_to_sat_delay(None, a, b);
            let reference_d = reference
                .shortest_path(NodeId::Sat(a), NodeId::Sat(b))
                .map(|p| p.delay_s);
            match (engine, reference_d) {
                (Some(d), Some(r)) => {
                    // The reference graph includes ground nodes; a
                    // sat-to-sat route must not use them, so recheck on
                    // path nodes instead of delay when they differ.
                    let path = reference
                        .shortest_path(NodeId::Sat(a), NodeId::Sat(b))
                        .unwrap();
                    if path.nodes.iter().all(|n| matches!(n, NodeId::Sat(_))) {
                        assert!(
                            (d - r).abs() <= 1e-12 * r.max(1.0),
                            "t={t} {a}->{b}: engine {d} vs reference {r}"
                        );
                    } else {
                        assert!(d >= r - 1e-12, "ISL-only route beat the relayed one");
                    }
                }
                (None, None) => {}
                (Some(d), None) => panic!("t={t} {a}->{b}: engine found {d}, reference none"),
                (None, Some(_)) => {
                    // Reference may relay through ground; the ISL-only
                    // query is allowed to fail where the mesh is severed.
                }
            }
        }
    }
}

#[test]
fn dead_endpoints_are_unreachable_not_rerouted() {
    let mut cfg = FaultConfig::none();
    cfg.schedule = Some(
        FailureModel {
            annual_failure_rate: 4000.0,
            seed: 17,
        }
        .schedule(1584),
    );
    let service = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let view = service.view(3600.0);
    let plan = view.fault_plan().unwrap();
    let dead: Vec<SatId> = (0..1584)
        .map(|i| SatId(i as u32))
        .filter(|&s| plan.sat_dead(s))
        .collect();
    assert!(!dead.is_empty());
    for &d in dead.iter().take(5) {
        assert_eq!(view.sat_to_sat_delay(None, SatId(0), d), None);
        assert_eq!(
            service.server_to_server_delay_view(&view, SatId(0), d),
            None
        );
    }
}

/// The satellites of an ISL-only reference path.
fn sat_route(path: &Path) -> Vec<SatId> {
    path.nodes
        .iter()
        .map(|n| match n {
            NodeId::Sat(s) => *s,
            NodeId::Ground(_) => unreachable!("no grounds attached"),
        })
        .collect()
}

/// A transfer slow enough to span several 2 s route segments.
fn slow_migration() -> MigrationNetConfig {
    MigrationNetConfig {
        isl_rate_bps: 50e6,
        packet_bits: 48_000.0,
        segment_s: 2.0,
        max_segments: 12,
        ..MigrationNetConfig::default()
    }
}

/// Checks a migration outcome against the masked reference graph: the
/// reference route at every segment start avoids the mask, the first
/// segment's route has the reference's hop count and delay, and the
/// route changes between segments exactly when the reference route does.
fn assert_migration_follows_the_mask(
    service: &InOrbitService,
    from: SatId,
    to: SatId,
    size_bytes: f64,
    cfg: &MigrationNetConfig,
    out: &MigrationOutcome,
) {
    assert!(out.duration_s.is_some(), "transfer must complete: {out:?}");
    assert!(out.segments > 1, "transfer should span segments: {out:?}");
    let mut routes = Vec::new();
    for seg in 0..out.segments {
        let view = service.view(seg as f64 * cfg.segment_s);
        let plan = view.fault_plan().expect("fault service carries a plan");
        let reference = reference_graph(service, view.snapshot(), &[], plan);
        let path = reference
            .shortest_path(NodeId::Sat(from), NodeId::Sat(to))
            .expect("masked mesh stays connected");
        let sats = sat_route(&path);
        for pair in sats.windows(2) {
            assert!(!plan.isl_edge_masked(pair[0], pair[1]));
        }
        routes.push((path.delay_s, sats));
    }
    let (delay_s, first) = &routes[0];
    assert_eq!(out.hops, first.len() - 1, "first route hop count");
    let serialization_s = out.hops as f64 * size_bytes * 8.0 / cfg.isl_rate_bps;
    let prop_s = out.analytic_message_s - serialization_s;
    assert!(
        (prop_s - delay_s).abs() <= 1e-9 * delay_s,
        "first route propagation {prop_s} vs masked reference {delay_s}"
    );
    let changes = routes.windows(2).filter(|w| w[0].1 != w[1].1).count();
    assert_eq!(out.route_changes, changes, "route changes per segment");
}

#[test]
fn migration_routes_around_dead_satellites_and_cut_links() {
    let plain = InOrbitService::new(presets::starlink_550_only());
    let (from, to) = (SatId(0), SatId(3));
    let graph = plain.graph(plain.view(0.0).snapshot(), &[]);
    let unfaulted = sat_route(&routing::sat_to_sat(&graph, from, to).expect("connected shell"));
    assert!(unfaulted.len() > 2, "route needs an interior satellite");
    let interior = unfaulted[1];

    let mut kill_interior = FaultConfig::none();
    let mut deaths = vec![f64::INFINITY; 1584];
    deaths[interior.0 as usize] = 0.0;
    kill_interior.schedule = Some(leo_net::FailureSchedule::from_death_times(deaths));
    let mut cut_first_isl = FaultConfig::none();
    cut_first_isl.cut_links.push((unfaulted[0], unfaulted[1]));

    let cfg = slow_migration();
    let size_bytes = 40e6;
    let plain_out = migrate_via_packets(&plain, from, to, 0.0, size_bytes, &cfg);
    for faults in [kill_interior, cut_first_isl] {
        let service = InOrbitService::with_faults(presets::starlink_550_only(), faults);
        let out = migrate_via_packets(&service, from, to, 0.0, size_bytes, &cfg);
        assert_migration_follows_the_mask(&service, from, to, size_bytes, &cfg, &out);
        assert!(
            out.analytic_message_s > plain_out.analytic_message_s,
            "the detour must cost more than the unfaulted route"
        );
    }
}

#[test]
fn migration_to_a_dead_satellite_never_routes() {
    let (from, to) = (SatId(0), SatId(3));
    let mut deaths = vec![f64::INFINITY; 1584];
    deaths[to.0 as usize] = 0.0;
    let cfg = FaultConfig {
        schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
        ..FaultConfig::none()
    };
    let service = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let net = slow_migration();
    let out = migrate_via_packets(&service, from, to, 0.0, 40e6, &net);
    assert_eq!(out.duration_s, None);
    assert_eq!(out.segments, net.max_segments);
    assert_eq!(out.hops, 0, "no segment may find a route");
    assert_eq!(out.transmissions, 0);
}

#[test]
fn empty_fault_plan_migration_is_identical() {
    let plain = InOrbitService::new(presets::starlink_550_only());
    let faulted = InOrbitService::with_faults(presets::starlink_550_only(), FaultConfig::none());
    let cfg = MigrationNetConfig {
        cross_load_frac: 0.5,
        ..slow_migration()
    };
    let a = migrate_via_packets(&plain, SatId(0), SatId(3), 30.0, 40e6, &cfg);
    let b = migrate_via_packets(&faulted, SatId(0), SatId(3), 30.0, 40e6, &cfg);
    assert_eq!(a, b);
}

#[test]
fn empty_fault_plan_sessions_are_byte_identical() {
    let plain = InOrbitService::new(presets::starlink_550_only());
    let mut cfg = FaultConfig::none();
    // A schedule where nothing ever dies: plans are empty, but every
    // query flows through the masked entry points.
    cfg.schedule = Some(leo_net::FailureSchedule::never(1584));
    let faulted = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let session = SessionConfig {
        start_s: 0.0,
        duration_s: 600.0,
        tick_s: 10.0,
    };
    for policy in [Policy::MinMax, Policy::sticky_default()] {
        let a = run_session(&plain, &users(), policy, &session);
        let b = run_session(&faulted, &users(), policy, &session);
        let a_text = serde_json::to_string(&a).unwrap();
        let b_text = serde_json::to_string(&b).unwrap();
        assert_eq!(
            a_text,
            b_text,
            "{} diverged under an empty plan",
            policy.name()
        );
    }
}

#[test]
fn sticky_reselects_when_the_access_link_fades() {
    // A ~46° rain mask (14 mm/h on the consumer budget) forces servers
    // out of service well above the 25° geometric horizon, so holds
    // shorten and hand-offs multiply — without any satellite dying.
    let mut cfg = FaultConfig::none();
    cfg.rain = Some(RainFade {
        budget: LinkBudget::CONSUMER,
        rain_rate_mm_h: 14.0,
    });
    let clear = InOrbitService::new(presets::starlink_550_only());
    let rainy = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
    let session = SessionConfig {
        start_s: 0.0,
        duration_s: 1800.0,
        tick_s: 10.0,
    };
    let single_user = vec![GroundEndpoint::new(0, Geodetic::ground(6.52, 3.38))];

    let prev = leo_obs::level();
    leo_obs::set_level(leo_obs::Level::Metrics);
    let clear_run = run_session(&clear, &single_user, Policy::sticky_default(), &session);
    let handoffs_before = fault_handoff_count();
    let rainy_run = run_session(&rainy, &single_user, Policy::sticky_default(), &session);
    let handoffs_after = fault_handoff_count();
    leo_obs::set_level(prev);

    // Rain shortens holds and punches service gaps; both show up as
    // extra events (hand-offs + re-acquisitions).
    assert!(
        rainy_run.events.len() > clear_run.events.len(),
        "rain fade must disrupt the session: rainy {} vs clear {} events",
        rainy_run.events.len(),
        clear_run.events.len()
    );
    assert!(
        handoffs_after > handoffs_before,
        "fade-forced hand-offs must be attributed to the fault layer"
    );
    // And the session never *holds* a faulted server across a tick: at
    // each event the acquired satellite is unmasked at acquisition time.
    for e in &rainy_run.events {
        let view = rainy.view(e.time_s);
        assert!(
            !rainy.fault_masked_server(&view, &single_user, e.to),
            "acquired a rain-masked server at t={}",
            e.time_s
        );
    }
}

fn fault_handoff_count() -> u64 {
    leo_obs::snapshot()
        .counters
        .into_iter()
        .find(|(name, _)| name == "fault.handoffs")
        .map(|(_, v)| v)
        .unwrap_or(0)
}
