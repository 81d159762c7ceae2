//! A whole constellation: identity, propagators, and position snapshots.

use crate::shell::ShellSpec;
use leo_geo::consts::EARTH_ROTATION_RAD_S;
use leo_geo::coords::{Ecef, Eci};
use leo_geo::{Angle, Epoch, Geodetic};
use leo_orbit::propagate::ForceModel;
use leo_orbit::{Propagator, RotationMemo, Tle};
use serde::{Deserialize, Serialize};

/// Stable identifier of a satellite within one [`Constellation`]: its index
/// in the flat satellite array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SatId(pub u32);

impl std::fmt::Display for SatId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sat{}", self.0)
    }
}

/// One satellite: its identity within the Walker structure plus its
/// propagator.
#[derive(Debug, Clone)]
pub struct Satellite {
    /// Flat identifier.
    pub id: SatId,
    /// Index of the shell this satellite belongs to.
    pub shell: u32,
    /// Orbital plane within the shell.
    pub plane: u32,
    /// Slot within the plane.
    pub slot: u32,
    /// The satellite's propagator.
    pub propagator: Propagator,
}

/// All satellite positions at one instant, in ECEF, indexed by [`SatId`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulation time of the snapshot, seconds after the epoch.
    pub time_s: f64,
    /// ECEF position of each satellite, indexed by `SatId.0`.
    pub positions: Vec<Ecef>,
}

impl Snapshot {
    /// Position of one satellite.
    pub fn position(&self, id: SatId) -> Ecef {
        self.positions[id.0 as usize]
    }

    /// Number of satellites in the snapshot.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the snapshot holds no satellites.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterates over `(SatId, Ecef)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SatId, Ecef)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (SatId(i as u32), p))
    }
}

/// The one propagation kernel behind [`Constellation::snapshot`] and
/// [`Constellation::positions_of`]: a satellite's ECI position at `t`
/// rotated into ECEF by the instant's Earth rotation `earth`.
fn ecef_with(s: &Satellite, t: f64, earth: (f64, f64), memo: &mut RotationMemo) -> Ecef {
    let eci = s.propagator.state_with(t, memo).position;
    Ecef(eci.0.rotate_z_by(earth))
}

/// A generated constellation with per-shell structure preserved.
#[derive(Debug, Clone)]
pub struct Constellation {
    name: String,
    epoch: Epoch,
    shells: Vec<ShellSpec>,
    satellites: Vec<Satellite>,
    /// First flat index of each shell (length = shells + 1; last entry is
    /// the total satellite count), for O(1) shell lookup.
    shell_offsets: Vec<u32>,
}

impl Constellation {
    /// Generates a constellation from shell specifications at the default
    /// epoch ([`Epoch::J2000`]) with the J2 force model.
    ///
    /// # Panics
    /// Panics when a shell fails validation — presets are validated by
    /// construction; custom shells should be checked with
    /// [`ShellSpec::validate`] first.
    pub fn from_shells(name: &str, shells: Vec<ShellSpec>) -> Self {
        Self::from_shells_at(name, shells, Epoch::J2000, ForceModel::TwoBodyJ2)
    }

    /// Generates a constellation at a specific epoch and force model.
    pub fn from_shells_at(
        name: &str,
        shells: Vec<ShellSpec>,
        epoch: Epoch,
        model: ForceModel,
    ) -> Self {
        let mut satellites = Vec::new();
        let mut shell_offsets = Vec::with_capacity(shells.len() + 1);
        for (shell_idx, spec) in shells.iter().enumerate() {
            spec.validate()
                .unwrap_or_else(|e| panic!("shell {}: {e}", spec.name));
            shell_offsets.push(satellites.len() as u32);
            for (plane, slot) in spec.positions() {
                let id = SatId(satellites.len() as u32);
                satellites.push(Satellite {
                    id,
                    shell: shell_idx as u32,
                    plane,
                    slot,
                    propagator: Propagator::with_force_model(
                        spec.elements(plane, slot),
                        epoch,
                        model,
                    ),
                });
            }
        }
        shell_offsets.push(satellites.len() as u32);
        Constellation {
            name: name.to_string(),
            epoch,
            shells,
            satellites,
            shell_offsets,
        }
    }

    /// Constellation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reference epoch shared by all satellites.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The shell specifications.
    pub fn shells(&self) -> &[ShellSpec] {
        &self.shells
    }

    /// Total number of satellites.
    pub fn num_satellites(&self) -> usize {
        self.satellites.len()
    }

    /// All satellites, ordered by [`SatId`].
    pub fn satellites(&self) -> &[Satellite] {
        &self.satellites
    }

    /// One satellite by id.
    pub fn satellite(&self, id: SatId) -> &Satellite {
        &self.satellites[id.0 as usize]
    }

    /// The shell spec a satellite belongs to.
    pub fn shell_of(&self, id: SatId) -> &ShellSpec {
        &self.shells[self.satellite(id).shell as usize]
    }

    /// The minimum elevation angle that applies to a satellite.
    pub fn min_elevation_of(&self, id: SatId) -> Angle {
        self.shell_of(id).min_elevation
    }

    /// The flat id of the satellite at `(shell, plane, slot)`.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn id_at(&self, shell: u32, plane: u32, slot: u32) -> SatId {
        let spec = &self.shells[shell as usize];
        assert!(plane < spec.num_planes && slot < spec.sats_per_plane);
        SatId(self.shell_offsets[shell as usize] + plane * spec.sats_per_plane + slot)
    }

    /// ECEF positions of every satellite at `t` seconds after the epoch,
    /// bit-identical to each propagator's `position_ecef(t)`. The Earth
    /// rotation's trigonometry is computed once per instant and the
    /// orbital-plane rotations once per plane (see [`RotationMemo`]).
    pub fn snapshot(&self, t: f64) -> Snapshot {
        let earth = self.earth_rotation(t);
        let mut memo = RotationMemo::default();
        Snapshot {
            time_s: t,
            positions: self
                .satellites
                .iter()
                .map(|s| ecef_with(s, t, earth, &mut memo))
                .collect(),
        }
    }

    /// ECEF positions of just the satellites `ids` at `t`, written to
    /// `out` in `ids` order: entry `i` is bit-identical to
    /// `snapshot(t).position(ids[i])`, whatever the order of `ids` (both
    /// run the same per-satellite kernel). Ids sorted ascending share
    /// each plane's rotation trigonometry, like a snapshot does.
    pub fn positions_of(&self, t: f64, ids: &[SatId], out: &mut Vec<Ecef>) {
        let earth = self.earth_rotation(t);
        let mut memo = RotationMemo::default();
        out.clear();
        out.extend(
            ids.iter()
                .map(|&id| ecef_with(self.satellite(id), t, earth, &mut memo)),
        );
    }

    /// `sin_cos` of the ECI → ECEF rotation angle at `t`.
    fn earth_rotation(&self, t: f64) -> (f64, f64) {
        (-leo_geo::gmst(self.epoch, t).radians()).sin_cos()
    }

    /// Per shell, an upper bound (rad/s) on how fast any of its
    /// satellites' Earth-fixed direction — the unit vector from the
    /// Earth's center — turns. The in-plane argument of latitude advances
    /// at most `|n + Ṁ|·(1+e)²/(1−e²)^{3/2}` (the true-anomaly rate at
    /// perigee; `|n + Ṁ|` on the circular shells) plus `|ω̇|`, the
    /// orbital plane turns about the polar axis at `|Ω̇|`, and the Earth
    /// under it at `ω⊕`; the sum carries a 1 % safety factor. So over any
    /// interval `Δt` a satellite's sub-point moves through a central angle
    /// of at most `bound · |Δt|`.
    pub fn direction_rate_bounds(&self) -> Vec<f64> {
        let mut bounds = vec![0.0f64; self.shells.len()];
        for s in &self.satellites {
            let e = s.propagator.elements();
            let rates = s.propagator.rates();
            let ecc = e.eccentricity;
            let perigee_gain = (1.0 + ecc).powi(2) / (1.0 - ecc * ecc).powf(1.5);
            let rate = (e.mean_motion_rad_s() + rates.mean_anomaly_dot).abs() * perigee_gain
                + rates.arg_perigee_dot.abs()
                + rates.raan_dot.abs()
                + EARTH_ROTATION_RAD_S;
            let b = &mut bounds[s.shell as usize];
            *b = b.max(rate * 1.01);
        }
        bounds
    }

    /// ECI position of one satellite at `t`.
    pub fn position_eci(&self, id: SatId, t: f64) -> Eci {
        self.satellite(id).propagator.position_eci(t)
    }

    /// ECEF position of one satellite at `t`.
    pub fn position_ecef(&self, id: SatId, t: f64) -> Ecef {
        self.satellite(id).propagator.position_ecef(t)
    }

    /// Geodetic sub-satellite point (spherical model) of one satellite.
    pub fn subpoint(&self, id: SatId, t: f64) -> Geodetic {
        self.satellite(id).propagator.subpoint(t)
    }

    /// Exports every satellite as a synthesized TLE (catalog numbers are
    /// `70000 + SatId`).
    pub fn to_tles(&self) -> Vec<Tle> {
        self.satellites
            .iter()
            .map(|s| {
                let shell_name = &self.shells[s.shell as usize].name;
                Tle::synthesize(
                    &format!("{} P{}S{}", shell_name.to_uppercase(), s.plane, s.slot),
                    70_000 + s.id.0,
                    self.epoch,
                    s.propagator.elements(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::shell::WalkerPattern;
    use leo_orbit::KeplerianElements;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn small() -> Constellation {
        Constellation::from_shells(
            "small",
            vec![
                ShellSpec {
                    name: "a".into(),
                    altitude_m: 550e3,
                    inclination: Angle::from_degrees(53.0),
                    num_planes: 3,
                    sats_per_plane: 4,
                    phase_factor: 1,
                    pattern: WalkerPattern::Delta,
                    min_elevation: Angle::from_degrees(25.0),
                },
                ShellSpec {
                    name: "b".into(),
                    altitude_m: 1110e3,
                    inclination: Angle::from_degrees(53.8),
                    num_planes: 2,
                    sats_per_plane: 5,
                    phase_factor: 0,
                    pattern: WalkerPattern::Delta,
                    min_elevation: Angle::from_degrees(25.0),
                },
            ],
        )
    }

    #[test]
    fn satellite_count_and_ids_are_dense() {
        let c = small();
        assert_eq!(c.num_satellites(), 3 * 4 + 2 * 5);
        for (i, s) in c.satellites().iter().enumerate() {
            assert_eq!(s.id, SatId(i as u32));
        }
    }

    #[test]
    fn id_at_round_trips_with_satellite_structure() {
        let c = small();
        for s in c.satellites() {
            assert_eq!(c.id_at(s.shell, s.plane, s.slot), s.id);
        }
    }

    #[test]
    fn shell_of_matches_altitude() {
        let c = small();
        let first = c.satellites()[0].id;
        let last = c.satellites().last().unwrap().id;
        assert_eq!(c.shell_of(first).name, "a");
        assert_eq!(c.shell_of(last).name, "b");
    }

    #[test]
    fn snapshot_positions_have_correct_radii() {
        let c = small();
        let snap = c.snapshot(600.0);
        assert_eq!(snap.len(), c.num_satellites());
        for (id, pos) in snap.iter() {
            let expect = leo_geo::consts::EARTH_RADIUS_MEAN_M + c.shell_of(id).altitude_m;
            assert!((pos.0.norm() - expect).abs() < 1.0, "{id}");
        }
    }

    #[test]
    fn snapshot_agrees_with_per_satellite_query() {
        let c = small();
        let t = 1234.5;
        let snap = c.snapshot(t);
        for s in c.satellites() {
            let d = snap.position(s.id).0.distance(c.position_ecef(s.id, t).0);
            assert!(d < 1e-6);
        }
    }

    /// `small()` at a Molniya TLE's epoch with that eccentric satellite,
    /// imported through TLE text, spliced between the two shells — so
    /// the snapshot's rotation memo crosses circular → eccentric →
    /// circular planes.
    fn with_tle_import() -> Constellation {
        let mut molniya = KeplerianElements::circular(
            0.0,
            Angle::from_degrees(63.4),
            Angle::from_degrees(120.0),
            Angle::from_degrees(10.0),
        );
        molniya.semi_major_axis_m = 26_600e3;
        molniya.eccentricity = 0.74;
        molniya.arg_perigee = Angle::from_degrees(270.0);
        let epoch = Epoch::from_calendar(2020, 11, 4, 6, 30, 0.0);
        let text = Tle::synthesize("MOLNIYA 1-93", 28163, epoch, &molniya).format();
        let tle = Tle::parse(&text).expect("round-trip");
        let small = small();
        let mut c = Constellation::from_shells_at(
            "small + tle",
            small.shells().to_vec(),
            tle.epoch,
            ForceModel::TwoBodyJ2,
        );
        c.satellites.insert(
            12,
            Satellite {
                id: SatId(12),
                shell: 0,
                plane: 0,
                slot: 0,
                propagator: Propagator::new(tle.elements, tle.epoch),
            },
        );
        for (i, s) in c.satellites.iter_mut().enumerate() {
            s.id = SatId(i as u32);
        }
        c
    }

    fn bit_identity_fixtures() -> &'static [Constellation] {
        static FIXTURES: OnceLock<Vec<Constellation>> = OnceLock::new();
        FIXTURES.get_or_init(|| {
            vec![
                presets::starlink_phase1_conservative(),
                Constellation::from_shells("kuiper", presets::kuiper_shells()),
                Constellation::from_shells_at(
                    "kuiper two-body",
                    presets::kuiper_shells(),
                    Epoch::J2000,
                    ForceModel::TwoBody,
                ),
                with_tle_import(),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_snapshot_is_bit_identical_to_per_satellite_propagation(
            near in -20_000.0..20_000.0f64,
            far in 1.0e6..1.0e8f64,
        ) {
            for c in bit_identity_fixtures() {
                for t in [near, far, -far] {
                    let snap = c.snapshot(t);
                    for s in c.satellites() {
                        let want = s.propagator.position_ecef(t).0;
                        let got = snap.position(s.id).0;
                        prop_assert!(
                            [got.x, got.y, got.z].map(f64::to_bits)
                                == [want.x, want.y, want.z].map(f64::to_bits),
                            "{} {} at t={}: {:?} vs {:?}", c.name(), s.id, t, got, want
                        );
                    }
                }
            }
        }
    }

    /// Central angle (radians) between two position vectors, accurate
    /// at small angles where `acos` of the dot product is not.
    fn central_angle(a: Ecef, b: Ecef) -> f64 {
        let (a, b) = (a.0.normalized(), b.0.normalized());
        a.cross(b).norm().atan2(a.dot(b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_positions_of_is_bit_identical_to_snapshot_in_any_order(
            t in -20_000.0..1.0e7f64,
            picks in proptest::collection::vec(0usize..1_000_000, 0..40),
            order in 0u8..2,
        ) {
            for c in bit_identity_fixtures() {
                let n = c.num_satellites();
                let mut ids: Vec<SatId> = picks.iter().map(|&p| SatId((p % n) as u32)).collect();
                if order == 1 {
                    ids.sort();
                    ids.reverse();
                }
                let snap = c.snapshot(t);
                let mut out = vec![Ecef::new(1.0, 2.0, 3.0)];
                c.positions_of(t, &ids, &mut out);
                prop_assert_eq!(out.len(), ids.len());
                for (&id, got) in ids.iter().zip(&out) {
                    let want = snap.position(id).0;
                    prop_assert!(
                        [got.0.x, got.0.y, got.0.z].map(f64::to_bits)
                            == [want.x, want.y, want.z].map(f64::to_bits),
                        "{} {} at t={}", c.name(), id, t
                    );
                }
            }
        }

        #[test]
        fn prop_direction_rate_bound_holds_over_a_minute(
            t in -10_000.0..1.0e6f64,
            dt in -60.0..60.0f64,
            pick in 0usize..1_000_000,
        ) {
            let mut fixtures: Vec<&Constellation> = bit_identity_fixtures().iter().collect();
            fixtures.push(telesat());
            for c in fixtures {
                let bounds = c.direction_rate_bounds();
                prop_assert_eq!(bounds.len(), c.shells().len());
                for k in 0..8 {
                    let id = SatId(((pick + k * 7_919) % c.num_satellites()) as u32);
                    let a = c.position_ecef(id, t);
                    let b = c.position_ecef(id, t + dt);
                    let bound = bounds[c.satellite(id).shell as usize] * dt.abs();
                    let angle = central_angle(a, b);
                    prop_assert!(
                        angle <= bound + 1e-12,
                        "{} {}: turned {} rad in {} s, bound {}", c.name(), id, angle, dt, bound
                    );
                }
            }
        }
    }

    fn telesat() -> &'static Constellation {
        static TELESAT: OnceLock<Constellation> = OnceLock::new();
        TELESAT.get_or_init(presets::telesat)
    }

    #[test]
    fn direction_rate_bound_is_tight_on_a_circular_shell() {
        // The bound must not be so loose that a minute's window swallows
        // the sky: a 550 km satellite's sub-point sweeps ~0.07 rad/min.
        let c = presets::starlink_550_only();
        let bound = c.direction_rate_bounds()[0];
        let id = SatId(0);
        let turned = central_angle(c.position_ecef(id, 0.0), c.position_ecef(id, 60.0));
        assert!(turned <= bound * 60.0);
        assert!(
            bound * 60.0 < turned * 1.25,
            "bound {bound} vs {turned} rad/min"
        );
    }

    #[test]
    fn satellites_in_a_plane_share_their_orbital_plane() {
        let c = small();
        // Same shell, same plane → same RAAN and inclination.
        let a = c.satellite(c.id_at(0, 1, 0)).propagator.elements().raan;
        let b = c.satellite(c.id_at(0, 1, 3)).propagator.elements().raan;
        assert_eq!(a, b);
    }

    #[test]
    fn tle_export_round_trips() {
        let c = small();
        let tles = c.to_tles();
        assert_eq!(tles.len(), c.num_satellites());
        for (tle, sat) in tles.iter().zip(c.satellites()) {
            let text = tle.format();
            let back = Tle::parse(&text).expect("round-trip");
            let orig = sat.propagator.elements();
            assert!(
                (back.elements.semi_major_axis_m - orig.semi_major_axis_m).abs() < 200.0,
                "sma mismatch for {}",
                sat.id
            );
            assert!(
                (back.elements.inclination.degrees() - orig.inclination.degrees()).abs() < 1e-3
            );
        }
    }

    #[test]
    fn distinct_satellites_do_not_collide_at_epoch() {
        let c = small();
        let snap = c.snapshot(0.0);
        for (i, (_, a)) in snap.iter().enumerate() {
            for (_, b) in snap.iter().skip(i + 1) {
                assert!(a.0.distance(b.0) > 1e3, "satellites coincide");
            }
        }
    }
}
