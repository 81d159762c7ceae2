//! The snapshot-view cache builds each instant once, and a view refreshes
//! its ISL weights only when a routed query first needs them.
//!
//! The tests read the process-wide `leo-obs` counters as before/after
//! deltas, so they take `COUNTERS` to keep each other's increments out of
//! their windows, and restore the observability level they found.

use leo_constellation::{presets, SatId};
use leo_core::InOrbitService;
use leo_geo::Geodetic;
use leo_net::engine::IslWeights;
use leo_net::routing::GroundEndpoint;
use leo_net::{FailureSchedule, FaultConfig};
use std::sync::{Arc, Barrier, Mutex};

static COUNTERS: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    leo_obs::snapshot()
        .counters
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Runs `f` at `Level::Metrics` with the counter lock held, restoring the
/// previous level afterwards.
fn with_metrics<R>(f: impl FnOnce() -> R) -> R {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let prev = leo_obs::level();
    leo_obs::set_level(leo_obs::Level::Metrics);
    let out = f();
    leo_obs::set_level(prev);
    out
}

fn faulted() -> InOrbitService {
    let mut deaths = vec![f64::INFINITY; 200];
    for d in deaths.iter_mut().step_by(7) {
        *d = 0.0;
    }
    let cfg = FaultConfig {
        schedule: Some(FailureSchedule::from_death_times(deaths)),
        cut_links: vec![(SatId(300), SatId(301))],
        ..FaultConfig::none()
    };
    InOrbitService::with_faults(presets::starlink_550_only(), cfg)
}

#[test]
fn concurrent_callers_of_one_instant_share_a_single_build() {
    const N: usize = 6;
    let service = InOrbitService::new(presets::starlink_550_only());
    let (views, misses, hits, refreshes) = with_metrics(|| {
        let (m0, h0, r0) = (
            counter("service.snapshot_misses"),
            counter("service.snapshot_hits"),
            counter("service.isl_refreshes"),
        );
        let barrier = Barrier::new(N);
        let views: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        service.view(42.0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (
            views,
            counter("service.snapshot_misses") - m0,
            counter("service.snapshot_hits") - h0,
            counter("service.isl_refreshes") - r0,
        )
    });
    assert_eq!(misses, 1, "one build per instant");
    assert_eq!(hits, N as u64 - 1, "every other call is a hit");
    assert_eq!(refreshes, 0, "no caller routed, so nothing refreshed");
    assert!(views.iter().all(|v| Arc::ptr_eq(v, &views[0])));
}

#[test]
fn lazy_isl_weights_equal_an_eager_refresh() {
    let users = [
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
    ];
    for (name, service) in [
        ("plain", InOrbitService::new(presets::starlink_550_only())),
        ("faulted", faulted()),
    ] {
        let t = 610.0;
        let (untouched, first, again) = with_metrics(|| {
            let r0 = counter("service.isl_refreshes");
            let view = service.view(t);
            let direct = service.user_direct_delays_view(&view, &users);
            assert!(direct.iter().flatten().any(|d| d.is_finite()));
            let untouched = counter("service.isl_refreshes") - r0;
            view.isl_weights();
            let first = counter("service.isl_refreshes") - r0;
            service.server_to_server_delay_view(&view, SatId(0), SatId(700));
            (untouched, first, counter("service.isl_refreshes") - r0)
        });
        assert_eq!(untouched, 0, "{name}: visibility-only view refreshed");
        assert_eq!(first, 1, "{name}: first routed use refreshes once");
        assert_eq!(again, 1, "{name}: later queries reuse the weights");

        let view = service.view(t);
        let engine = service.routing_engine();
        let eager = match view.fault_plan() {
            Some(plan) => {
                assert!(!plan.is_empty(), "{name}: the plan must mask something");
                let mut w = IslWeights::default();
                engine.refresh_into_masked(view.snapshot(), plan, &mut w);
                w
            }
            None => engine.refresh(view.snapshot()),
        };
        assert!(view.isl_weights().bits_eq(&eager), "{name}");
    }
}

#[test]
fn transient_views_are_built_fresh_and_never_cached() {
    let service = faulted();
    let t = 95.0;
    let (fresh, cached, again, misses, hits) = with_metrics(|| {
        let (m0, h0) = (
            counter("service.snapshot_misses"),
            counter("service.snapshot_hits"),
        );
        let fresh = service.transient_view(t);
        let cached = service.view(t);
        let again = service.transient_view(t);
        (
            fresh,
            cached,
            again,
            counter("service.snapshot_misses") - m0,
            counter("service.snapshot_hits") - h0,
        )
    });
    // The cached build is the second: the first transient one was not
    // kept, and the last ignores the cached view.
    assert_eq!(misses, 3, "every call builds");
    assert_eq!(hits, 0);
    let bits = |v: &leo_core::SnapshotView| -> Vec<[u64; 3]> {
        v.snapshot()
            .iter()
            .map(|(_, p)| [p.0.x.to_bits(), p.0.y.to_bits(), p.0.z.to_bits()])
            .collect()
    };
    for view in [&fresh, &again] {
        assert_eq!(bits(view), bits(&cached));
        assert_eq!(view.fault_plan(), cached.fault_plan());
        assert!(view.isl_weights().bits_eq(cached.isl_weights()));
    }
}

#[test]
#[should_panic(expected = "view time must be finite")]
fn transient_view_rejects_a_non_finite_time() {
    faulted().transient_view(f64::INFINITY);
}

#[test]
fn an_unrouted_copy_routes_like_its_view_and_leaves_it_unrouted() {
    let users = [
        GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
        GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
    ];
    let service = faulted();
    let t = 1_210.0;
    let (on_copy, after_copy, on_view, after_view, same_weights) = with_metrics(|| {
        let r0 = counter("service.isl_refreshes");
        let view = service.view(t);
        let copy = view.unrouted_copy();
        let on_copy = service.migration_delay_view(&copy, &users, SatId(1), SatId(700));
        let after_copy = counter("service.isl_refreshes") - r0;
        let on_view = service.migration_delay_view(&view, &users, SatId(1), SatId(700));
        let after_view = counter("service.isl_refreshes") - r0;
        let same = copy.isl_weights().bits_eq(view.isl_weights());
        (on_copy, after_copy, on_view, after_view, same)
    });
    assert!(on_copy.is_some(), "the two satellites are connected");
    assert_eq!(on_copy.map(f64::to_bits), on_view.map(f64::to_bits));
    assert_eq!(after_copy, 1, "the copy refreshes its own weights");
    assert_eq!(after_view, 2, "routing the copy left the view unrouted");
    assert!(same_weights);
}
