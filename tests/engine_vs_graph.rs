//! The CSR routing engine must be a drop-in replacement for the
//! allocating graph path: not "close", but bit-identical. Both run
//! Dijkstra over the same edge set with the same weights from the same
//! source, and floating-point shortest-path distances are determined by
//! the chosen path's left-to-right summation — so any divergence at all
//! means the engine wired an edge differently.

use in_orbit::net::engine::{DijkstraArena, IslWeights, RoutingEngine};
use in_orbit::net::routing::{self, build_graph, delays_to_all_sats};
use in_orbit::net::{FaultPlan, NodeId, Path};
use in_orbit::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn small_constellation() -> Constellation {
    use in_orbit::constellation::{ShellSpec, WalkerPattern};
    Constellation::from_shells(
        "engine-prop",
        vec![ShellSpec {
            name: "shell".into(),
            altitude_m: 550e3,
            inclination: Angle::from_degrees(53.0),
            num_planes: 10,
            sats_per_plane: 10,
            phase_factor: 1,
            pattern: WalkerPattern::Delta,
            min_elevation: Angle::from_degrees(25.0),
        }],
    )
}

/// Bulk delays from every ground endpoint, both ways, compared bitwise.
fn assert_bulk_bitwise(c: &Constellation, t: f64, users: &[GroundEndpoint]) {
    let topo = IslTopology::plus_grid(c);
    let engine = RoutingEngine::compile(c, &topo);
    let snap = c.snapshot(t);
    let weights = engine.refresh(&snap);
    let links = engine.attach_scan(c, &snap, users);
    let mut arena = DijkstraArena::new();
    let fast = engine.delays_from_all(&weights, &links, &mut arena);

    let graph = build_graph(c, &topo, &snap, users);
    for (slot, u) in users.iter().enumerate() {
        let slow = delays_to_all_sats(&graph, c, u);
        assert_eq!(slow.len(), fast[slot].len());
        for (sat, (a, b)) in slow.iter().zip(&fast[slot]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "user {slot} sat {sat}: graph {a} vs engine {b}"
            );
        }
    }
}

/// The refreshed weight of the ISL between `u` and `v`, or `None` when
/// the topology has no such edge. Engine edge ids follow the order of
/// `IslTopology::edges`.
fn isl_weight(topo: &IslTopology, weights: &IslWeights, u: SatId, v: SatId) -> Option<f64> {
    let (a, b) = if u.0 < v.0 { (u, v) } else { (v, u) };
    topo.edges()
        .iter()
        .position(|e| e.a == a && e.b == b)
        .map(|i| weights.delay_s(i))
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

/// True when no hop of the reference path has an equal-cost alternative:
/// every node after the source has exactly one ISL neighbour `u` with
/// `dist[u] + w(u, v) == dist[v]` over the reference graph's distances.
fn has_unique_predecessors(
    graph: &NetworkGraph,
    topo: &IslTopology,
    weights: &IslWeights,
    route: &[SatId],
) -> bool {
    let dist: HashMap<NodeId, f64> = graph
        .shortest_paths_from(NodeId::Sat(route[0]))
        .into_iter()
        .collect();
    let dist_of = |s: SatId| dist.get(&NodeId::Sat(s)).copied().unwrap_or(f64::INFINITY);
    route[1..].iter().all(|&v| {
        topo.neighbors(v)
            .iter()
            .filter(|&&u| {
                let w = isl_weight(topo, weights, u, v).expect("neighbours share an edge");
                dist_of(u) + w == dist_of(v)
            })
            .count()
            == 1
    })
}

/// Checks that `route` runs from `a` to `b` over ISL-adjacent hops with
/// finite weights.
fn check_route(
    topo: &IslTopology,
    weights: &IslWeights,
    route: &[SatId],
    a: SatId,
    b: SatId,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(route.first(), Some(&a));
    prop_assert_eq!(route.last(), Some(&b));
    for hop in route.windows(2) {
        let w = isl_weight(topo, weights, hop[0], hop[1]);
        prop_assert!(
            w.is_some_and(f64::is_finite),
            "hop {}->{} is not a live ISL ({:?})",
            hop[0],
            hop[1],
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine bulk delays equal graph Dijkstra bit-for-bit on randomized
    /// snapshots and user groups.
    #[test]
    fn bulk_delays_are_bit_identical(
        lat1 in -50.0..50.0f64,
        lat2 in -50.0..50.0f64,
        dlon in -60.0..60.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let users = [
            GroundEndpoint::new(0, Geodetic::ground(lat1, 10.0)),
            GroundEndpoint::new(1, Geodetic::ground(lat2, 10.0 + dlon)),
        ];
        assert_bulk_bitwise(&c, t, &users);
    }

    /// Early-exit satellite-to-satellite queries match the graph path,
    /// with and without a ground segment to relay through, and the
    /// recovered ISL route is a shortest route of the reference graph —
    /// under a fault mask too.
    #[test]
    fn sat_to_sat_is_bit_identical(
        a in 0u32..100,
        b in 0u32..100,
        dead in 0u32..100,
        cut in 0usize..200,
        lat in -50.0..50.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let topo = IslTopology::plus_grid(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        let snap = c.snapshot(t);
        let weights = engine.refresh(&snap);
        let mut arena = DijkstraArena::new();

        let graph = build_graph(&c, &topo, &snap, &[]);
        let slow = routing::sat_to_sat(&graph, SatId(a), SatId(b)).map(|p| p.delay_s);
        let fast = engine.sat_to_sat_delay(&weights, None, SatId(a), SatId(b), &mut arena);
        prop_assert_eq!(slow.map(f64::to_bits), fast.map(f64::to_bits));

        // Route recovery: the engine's path has the reference delay, bit
        // for bit, runs over live ISLs, and is the reference node sequence
        // wherever that sequence has no equal-cost alternative.
        let (a, b) = (SatId(a), SatId(b));
        let reference = routing::sat_to_sat(&graph, a, b);
        let path = engine.sat_to_sat_path(&weights, a, b, &mut arena);
        prop_assert_eq!(
            path.as_ref().map(|p| p.0.to_bits()),
            reference.as_ref().map(|p| p.delay_s.to_bits())
        );
        if let (Some((_, route)), Some(reference)) = (&path, &reference) {
            check_route(&topo, &weights, route, a, b)?;
            let expect = sat_route(reference);
            if has_unique_predecessors(&graph, &topo, &weights, &expect) {
                prop_assert_eq!(route, &expect);
            }
        }

        // Under a masked refresh no hop touches a dead satellite or a cut
        // ISL, and the path delay is the masked early-exit delay.
        let mut plan = FaultPlan::empty();
        plan.kill(SatId(dead));
        let edge = topo.edges()[cut % topo.edges().len()];
        plan.cut_link(edge.a, edge.b);
        let mut masked = IslWeights::default();
        engine.refresh_into_masked(&snap, &plan, &mut masked);
        let path = engine.sat_to_sat_path(&masked, a, b, &mut arena);
        let delay = engine.sat_to_sat_delay(&masked, None, a, b, &mut arena);
        prop_assert_eq!(path.as_ref().map(|p| p.0.to_bits()), delay.map(f64::to_bits));
        if let Some((_, route)) = &path {
            check_route(&topo, &masked, route, a, b)?;
            for hop in route.windows(2) {
                prop_assert!(!plan.isl_edge_masked(hop[0], hop[1]));
            }
        }

        let grounds = [GroundEndpoint::new(0, Geodetic::ground(lat, 0.0))];
        let links = engine.attach_scan(&c, &snap, &grounds);
        let relayed_graph = build_graph(&c, &topo, &snap, &grounds);
        let slow = routing::sat_to_sat(&relayed_graph, a, b).map(|p| p.delay_s);
        let fast = engine.sat_to_sat_delay(&weights, Some(&links), a, b, &mut arena);
        prop_assert_eq!(slow.map(f64::to_bits), fast.map(f64::to_bits));
    }

    /// Ground-to-ground delays (the meetup hybrid query) match the graph
    /// path bit-for-bit.
    #[test]
    fn ground_to_ground_is_bit_identical(
        lat1 in -50.0..50.0f64,
        lat2 in -50.0..50.0f64,
        dlon in -90.0..90.0f64,
        t in 0.0..7200.0f64,
    ) {
        let c = small_constellation();
        let topo = IslTopology::plus_grid(&c);
        let engine = RoutingEngine::compile(&c, &topo);
        let snap = c.snapshot(t);
        let grounds = [
            GroundEndpoint::new(0, Geodetic::ground(lat1, -20.0)),
            GroundEndpoint::new(1, Geodetic::ground(lat2, -20.0 + dlon)),
        ];
        let weights = engine.refresh(&snap);
        let links = engine.attach_scan(&c, &snap, &grounds);
        let mut arena = DijkstraArena::new();

        let graph = build_graph(&c, &topo, &snap, &grounds);
        let slow = routing::ground_to_ground(&graph, &grounds[0], &grounds[1]).map(|p| p.delay_s);
        let fast = engine.ground_to_ground_delay(&weights, &links, 0, 1, &mut arena);
        prop_assert_eq!(slow.map(f64::to_bits), fast.map(f64::to_bits));
    }
}

/// One deterministic full-scale case: the paper's 1,584-satellite shell
/// with the Fig 3 West Africa user group.
#[test]
fn starlink_scale_bulk_delays_are_bit_identical() {
    let c = starlink_550_only();
    let users = [
        GroundEndpoint::new(0, Geodetic::ground(6.52, 3.38)), // Lagos
        GroundEndpoint::new(1, Geodetic::ground(5.56, -0.20)), // Accra
        GroundEndpoint::new(2, Geodetic::ground(9.06, 7.49)), // Abuja
    ];
    assert_bulk_bitwise(&c, 300.0, &users);
}
