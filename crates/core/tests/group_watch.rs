//! Differential oracle for [`GroupWatch`]: along any time sweep, the
//! watch's direct group delays must equal, bit for bit, the per-tick
//! view path it replaced — a full [`SnapshotView`](leo_core::SnapshotView)
//! at the instant, per-user index scans, collapsed by
//! [`GroupDelays::from_user_delays`].
//!
//! The inputs stress what the candidate window could get wrong: four
//! constellations (including Telesat's polar Star shell at a 10° mask,
//! the widest coverage cones and fastest-turning directions), groups of
//! one to four users up to 1,000 km apart at up to ±80° latitude,
//! sweeps that cross window anchors and land exactly on `anchor ± 60`
//! or just short of it, satellites that die mid-window, and rain fades
//! that raise the elevation mask or take the ground segment down.

use leo_constellation::{presets, Constellation, SatId};
use leo_core::{GroupDelays, GroupWatch, InOrbitService};
use leo_geo::consts::EARTH_RADIUS_MEAN_M;
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;
use leo_net::weather::LinkBudget;
use leo_net::{FailureSchedule, FaultConfig, GroundFade, RainFade};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The old per-tick path: a full view at `t`, one index scan per user.
fn oracle(service: &InOrbitService, users: &[GroundEndpoint], t: f64) -> GroupDelays {
    let view = service.view(t);
    GroupDelays::from_user_delays(&service.user_direct_delays_view(&view, users))
}

fn assert_bit_identical(got: &GroupDelays, want: &GroupDelays, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: satellite count");
    for i in 0..got.len() {
        let id = SatId(i as u32);
        assert_eq!(
            got.delay_s(id).to_bits(),
            want.delay_s(id).to_bits(),
            "{what}: {id} watch {} vs oracle {}",
            got.delay_s(id),
            want.delay_s(id)
        );
    }
}

fn constellations() -> &'static [Constellation] {
    static ALL: OnceLock<Vec<Constellation>> = OnceLock::new();
    ALL.get_or_init(|| {
        vec![
            presets::starlink_550_only(),
            presets::starlink_phase1_conservative(),
            presets::kuiper(),
            presets::telesat(),
        ]
    })
}

fn plain_services() -> &'static [InOrbitService] {
    static ALL: OnceLock<Vec<InOrbitService>> = OnceLock::new();
    ALL.get_or_init(|| {
        constellations()
            .iter()
            .map(|c| InOrbitService::new(c.clone()))
            .collect()
    })
}

/// The point `distance_m` from `(lat, lon)` along `bearing_deg`, on the
/// mean-radius sphere.
fn offset(lat: f64, lon: f64, bearing_deg: f64, distance_m: f64) -> Geodetic {
    let (phi, lam) = (lat.to_radians(), lon.to_radians());
    let (delta, theta) = (distance_m / EARTH_RADIUS_MEAN_M, bearing_deg.to_radians());
    let phi2 = (phi.sin() * delta.cos() + phi.cos() * delta.sin() * theta.cos()).asin();
    let lam2 =
        lam + (theta.sin() * delta.sin() * phi.cos()).atan2(delta.cos() - phi.sin() * phi2.sin());
    let lon2 = (lam2.to_degrees() + 540.0).rem_euclid(360.0) - 180.0;
    Geodetic::ground(phi2.to_degrees(), lon2)
}

/// Up to four users within 500 km of a centre, so at most 1,000 km apart.
fn group(lat: f64, lon: f64, spread: &[(f64, f64)]) -> Vec<GroundEndpoint> {
    spread
        .iter()
        .enumerate()
        .map(|(i, &(bearing, dist_km))| {
            GroundEndpoint::new(i as u32, offset(lat, lon, bearing, dist_km * 1e3))
        })
        .collect()
}

/// Instants around the window anchored at `anchor`: both neighbouring
/// anchors exactly (`anchor ± 60`), just short of them, 1 s ticks
/// across the anchor, sub-second offsets, and a jump back in time.
fn sweep(anchor: f64, frac: f64) -> Vec<f64> {
    vec![
        anchor - 60.0,
        anchor - 59.999_999,
        anchor - 1.0,
        anchor,
        anchor + 1.0,
        anchor + 2.0,
        anchor + frac * 60.0,
        anchor + 59.999_999,
        anchor + 60.0,
        anchor + 61.0 + frac,
        anchor - 30.0 + frac,
    ]
}

/// Evaluates one sweep through one watch and through `GroupDelays::direct`
/// and checks both against the oracle at every instant.
fn check_sweep(service: &InOrbitService, users: &[GroundEndpoint], times: &[f64], what: &str) {
    let mut watch = GroupWatch::new(service, users);
    for &t in times {
        let want = oracle(service, users, t);
        assert_bit_identical(&watch.delays(t), &want, &format!("{what} watch at t={t}"));
        assert_bit_identical(
            &GroupDelays::direct(service, users, t),
            &want,
            &format!("{what} direct at t={t}"),
        );
    }
}

/// A scenario whose plans kill the group's MinMax server `after_s` past
/// `t0` and, for `fade` ≥ 1, rain on the ground segment.
fn faulted(
    which: usize,
    users: &[GroundEndpoint],
    t0: f64,
    after_s: f64,
    fade: u8,
) -> InOrbitService {
    let plain = &plain_services()[which];
    let mut deaths = vec![f64::INFINITY; plain.num_servers()];
    if let Some((victim, _)) = oracle(plain, users, t0).minmax() {
        deaths[victim.0 as usize] = t0 + after_s;
    }
    // A few more deaths spread over the constellation, some already dead.
    for (k, d) in deaths.iter_mut().enumerate().step_by(97) {
        *d = t0 + (k % 7) as f64 * 20.0 - 60.0;
    }
    let rain = match fade {
        1 => Some(RainFade {
            budget: LinkBudget::CONSUMER,
            rain_rate_mm_h: 17.0,
        }),
        2 => Some(RainFade {
            budget: LinkBudget::CONSUMER,
            rain_rate_mm_h: 120.0,
        }),
        _ => None,
    };
    let cfg = FaultConfig {
        schedule: Some(FailureSchedule::from_death_times(deaths)),
        rain,
        ..FaultConfig::none()
    };
    match fade {
        1 => assert!(matches!(cfg.ground_fade(), GroundFade::MinElevation(_))),
        2 => assert_eq!(cfg.ground_fade(), GroundFade::Outage),
        _ => assert_eq!(cfg.ground_fade(), GroundFade::Clear),
    }
    InOrbitService::with_faults(constellations()[which].clone(), cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_watch_sweeps_match_the_view_oracle(
        which in 0usize..4,
        lat in -80.0..80.0f64,
        lon in -180.0..180.0f64,
        spread in proptest::collection::vec((0.0..360.0f64, 0.0..500.0f64), 1..5),
        window in -3i64..400,
        frac in 0.0..1.0f64,
    ) {
        let users = group(lat, lon, &spread);
        let anchor = window as f64 * 60.0;
        check_sweep(
            &plain_services()[which],
            &users,
            &sweep(anchor, frac),
            &format!("{} at ({lat:.2}, {lon:.2}) x{}", constellations()[which].name(), users.len()),
        );
    }

    #[test]
    fn prop_watch_sweeps_match_the_oracle_under_faults(
        which in 0usize..4,
        lat in -60.0..60.0f64,
        lon in -180.0..180.0f64,
        spread in proptest::collection::vec((0.0..360.0f64, 0.0..300.0f64), 1..4),
        window in 0i64..200,
        frac in 0.0..1.0f64,
        fade in 0u8..3,
    ) {
        let users = group(lat, lon, &spread);
        let anchor = window as f64 * 60.0;
        // The group's best server dies mid-window, between two ticks.
        let service = faulted(which, &users, anchor, 0.5 + frac * 58.0, fade);
        check_sweep(
            &service,
            &users,
            &sweep(anchor, frac),
            &format!("{} faulted (fade {fade})", constellations()[which].name()),
        );
    }
}

#[test]
fn polar_groups_at_eighty_degrees_match_the_oracle() {
    for (which, service) in plain_services().iter().enumerate() {
        for lat in [80.0, -80.0] {
            let users = group(lat, 15.0, &[(0.0, 0.0), (90.0, 400.0), (200.0, 450.0)]);
            let times: Vec<f64> = (0..130).map(|i| 3540.0 + i as f64).collect();
            check_sweep(
                service,
                &users,
                &times,
                &format!("{} at lat {lat}", constellations()[which].name()),
            );
        }
    }
}

#[test]
fn a_server_dying_mid_window_leaves_the_group_at_its_death_tick() {
    let users = group(9.06, 7.49, &[(0.0, 0.0), (140.0, 480.0), (260.0, 420.0)]);
    let t0 = 600.0;
    let service = faulted(0, &users, t0, 20.0, 0);
    let victim = oracle(&plain_services()[0], &users, t0)
        .minmax()
        .expect("served")
        .0;
    let mut watch = GroupWatch::new(&service, &users);
    for i in 0..40 {
        let t = t0 + i as f64;
        let delays = watch.delays(t);
        assert_bit_identical(&delays, &oracle(&service, &users, t), &format!("t={t}"));
        assert_eq!(delays.delay_s(victim).is_finite(), t < t0 + 20.0, "t={t}");
    }
}

#[test]
fn a_ground_outage_leaves_no_server() {
    let users = group(6.52, 3.38, &[(0.0, 0.0), (45.0, 300.0)]);
    let service = faulted(1, &users, 0.0, 1e9, 2);
    let mut watch = GroupWatch::new(&service, &users);
    for t in [0.0, 30.0, 60.0, 61.5] {
        assert_eq!(watch.delays(t).minmax(), None);
    }
}

#[test]
#[should_panic(expected = "no users")]
fn direct_rejects_an_empty_group() {
    GroupDelays::direct(&plain_services()[0], &[], 0.0);
}

#[test]
#[should_panic(expected = "watch time must be finite")]
fn watch_rejects_a_non_finite_time() {
    let users = group(0.0, 0.0, &[(0.0, 0.0)]);
    GroupWatch::new(&plain_services()[0], &users).delays(f64::NAN);
}
