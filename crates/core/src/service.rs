//! The [`InOrbitService`] facade: a constellation operated as a compute
//! provider.

use leo_constellation::{Constellation, SatId, Snapshot};
use leo_geo::{look, Geodetic};
use leo_net::engine::{with_thread_arena, GroundLinks, IslWeights, RoutingEngine};
use leo_net::fault::{FaultConfig, FaultPlan};
use leo_net::frontier::{self, BandSet, GroundSet, NearestState};
use leo_net::routing::{self, GroundEndpoint};
use leo_net::visibility::VisibleSat;
use leo_net::{IslTopology, NetworkGraph, VisibilityIndex};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One instant of the constellation as every query at that instant sees
/// it: the unit the snapshot cache holds and the sweep engine in
/// `leo-sim` hands to its workers. A view holds eagerly what every caller
/// reads: the propagated positions, the visibility index over them and
/// the instant's fault plan (~0.09 MB for the 1,584-satellite shell,
/// ~0.25 MB for the 4,409-satellite Phase 1 constellation). It holds
/// lazily what only routed queries read: the ISL weights of the service's
/// [`RoutingEngine`] — per-edge and per-slot delays plus the refresh
/// fingerprint, another ~0.12 MB or ~0.33 MB — refreshed, masked by the
/// fault plan if any, on the first [`SnapshotView::isl_weights`],
/// [`SnapshotView::sat_to_sat_delay`],
/// [`SnapshotView::ground_to_ground_delay`] or
/// [`SnapshotView::delays_from_all`] call and shared from then on.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    snapshot: Snapshot,
    index: VisibilityIndex,
    engine: Arc<RoutingEngine>,
    isl: OnceLock<IslWeights>,
    /// The outage mask at this instant, when the owning service carries
    /// a fault scenario. `None` keeps every code path on the exact
    /// pre-fault route.
    fault: Option<Arc<FaultPlan>>,
}

impl SnapshotView {
    /// Builds a view by propagating `constellation` to `t`; `engine`'s
    /// edge weights are refreshed at that instant on first use.
    pub fn build(
        constellation: &Constellation,
        engine: &Arc<RoutingEngine>,
        t: f64,
    ) -> SnapshotView {
        Self::build_with(constellation, engine, t, None)
    }

    /// [`SnapshotView::build`] under an optional fault scenario: the
    /// scenario's plan at `t` masks the ISL weights and rides along for
    /// the view's visibility and attachment queries.
    pub fn build_with(
        constellation: &Constellation,
        engine: &Arc<RoutingEngine>,
        t: f64,
        faults: Option<&FaultConfig>,
    ) -> SnapshotView {
        let snapshot = constellation.snapshot(t);
        SnapshotView {
            index: VisibilityIndex::build(constellation, &snapshot),
            snapshot,
            engine: Arc::clone(engine),
            isl: OnceLock::new(),
            fault: faults.map(|cfg| Arc::new(cfg.plan_at(t))),
        }
    }

    /// A copy of this instant — positions, index and fault plan — with ISL
    /// weights of its own, not yet refreshed. A routed one-off query on
    /// the copy leaves this view, and the cache holding it, without the
    /// weights, which are more than half a routed view's memory.
    pub fn unrouted_copy(&self) -> SnapshotView {
        SnapshotView {
            snapshot: self.snapshot.clone(),
            index: self.index.clone(),
            engine: Arc::clone(&self.engine),
            isl: OnceLock::new(),
            fault: self.fault.clone(),
        }
    }

    /// The outage mask at this instant, when the owning service carries
    /// a fault scenario.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// The propagated positions.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The latitude-banded visibility index over this snapshot.
    pub fn index(&self) -> &VisibilityIndex {
        &self.index
    }

    /// The compiled routing engine the weights belong to.
    pub fn engine(&self) -> &RoutingEngine {
        &self.engine
    }

    /// The ISL edge weights at this instant, refreshed on the first call.
    pub fn isl_weights(&self) -> &IslWeights {
        self.isl.get_or_init(|| {
            leo_obs::counter!("service.isl_refreshes").incr();
            let mut weights = IslWeights::default();
            match self.fault_plan() {
                Some(plan) => self
                    .engine
                    .refresh_into_masked(&self.snapshot, plan, &mut weights),
                None => self.engine.refresh_into(&self.snapshot, &mut weights),
            }
            weights
        })
    }

    /// Wires ground endpoints into the routing node space through this
    /// view's visibility index (honoring the view's fault plan, if any).
    /// Attach once per query group, then run any number of delay queries
    /// against the result.
    pub fn attach(&self, grounds: &[GroundEndpoint]) -> GroundLinks {
        match &self.fault {
            Some(plan) => self.engine.attach_masked(&self.index, grounds, plan),
            None => self.engine.attach(&self.index, grounds),
        }
    }

    /// One-way delay between two satellites at this instant — over the
    /// ISL mesh alone, or also via the attached ground endpoints when
    /// `links` is given. Early-exits at the target; `None` when
    /// disconnected.
    pub fn sat_to_sat_delay(&self, links: Option<&GroundLinks>, a: SatId, b: SatId) -> Option<f64> {
        with_thread_arena(|arena| {
            self.engine
                .sat_to_sat_delay(self.isl_weights(), links, a, b, arena)
        })
    }

    /// One-way delay between two attached ground endpoints (by slot in
    /// the group passed to [`SnapshotView::attach`]), or `None` when
    /// disconnected.
    pub fn ground_to_ground_delay(&self, links: &GroundLinks, a: usize, b: usize) -> Option<f64> {
        with_thread_arena(|arena| {
            self.engine
                .ground_to_ground_delay(self.isl_weights(), links, a, b, arena)
        })
    }

    /// One-way delays from every attached ground endpoint to every
    /// satellite (`result[ground][sat]`, `INFINITY` when unreachable),
    /// all rows sharing this worker's arena.
    pub fn delays_from_all(&self, links: &GroundLinks) -> Vec<Vec<f64>> {
        with_thread_arena(|arena| {
            self.engine
                .delays_from_all(self.isl_weights(), links, arena)
        })
    }

    /// One settled satellite-major frontier pass over `set`: the nearest
    /// visible (non-faulted) server for every point, in the caller's
    /// point order — bit-identical to running
    /// [`InOrbitService::nearest_servers_view`] over the same points, at
    /// a fraction of the candidate scans. `state` holds the pass's
    /// labels and is reset on entry. Fault-plan aware through the view,
    /// like every query.
    pub fn settle_nearest_servers(
        &self,
        set: &GroundSet,
        state: &mut NearestState,
        out: &mut Vec<Option<VisibleSat>>,
    ) {
        frontier::settle_nearest(&self.index, set, self.fault_plan(), state, out);
    }

    /// Full candidate lists for one latitude band of prepared points via
    /// the settled frontier, as `(caller_point_index, candidates)` pairs
    /// sorted nearest-first with `SatId` tie-breaks — the edge fleet's
    /// per-cell query shape, without a per-cell visibility scan.
    pub fn frontier_visible_lists(&self, band: &BandSet) -> Vec<(u32, Vec<VisibleSat>)> {
        band.visible_lists(&self.index, self.fault_plan())
    }
}

/// How many instants the snapshot cache holds before it is cleared.
/// Sweeps (121 sample times shared across ~91 ground points in Fig 1)
/// fit comfortably. Sessions no longer stream a view per tick: their
/// [`GroupWatch`](crate::selection::GroupWatch) reads one view per 60 s
/// window anchor and propagates only the satellites near the group in
/// between, so a 2 h, 1 s-tick session caches ~121 anchors plus Sticky's
/// look-ahead death instants (routed on an
/// [`SnapshotView::unrouted_copy`]); its hand-off instants build uncached
/// views ([`InOrbitService::transient_view`]). A cached view costs its
/// positions and visibility index (~0.25 MB on the 4,409-satellite
/// Phase 1 constellation), plus ~0.33 MB of ISL weights only once a
/// routed query has touched it (see [`SnapshotView`]): a full cache holds
/// at most ~0.6 GB.
const SNAPSHOT_CACHE_CAP: usize = 1024;

/// A LEO constellation operated as an in-orbit computing provider: every
/// satellite hosts a server, reachable directly from the ground or over
/// inter-satellite links.
///
/// Repeated queries at the same instant — the normal shape of every
/// experiment sweep — share one propagated [`SnapshotView`] through an
/// internal cache keyed by the query time, so positions are computed and
/// indexed once per instant no matter how many ground points ask.
///
/// ```
/// use leo_core::InOrbitService;
/// use leo_constellation::presets::starlink_550_only;
/// use leo_geo::Geodetic;
///
/// let service = InOrbitService::new(starlink_550_only());
/// let lagos = Geodetic::ground(6.52, 3.38);
/// let servers = service.reachable_servers(lagos, 0.0);
/// assert!(!servers.is_empty());
/// // Every reachable server is within the paper's 16 ms bound:
/// assert!(servers.iter().all(|s| s.rtt_ms() < 16.5));
/// ```
#[derive(Debug)]
pub struct InOrbitService {
    constellation: Constellation,
    topology: IslTopology,
    engine: Arc<RoutingEngine>,
    faults: Option<Arc<FaultConfig>>,
    /// One slot per instant; the first caller builds it, concurrent
    /// callers wait on that build.
    cache: Mutex<HashMap<u64, Arc<OnceLock<Arc<SnapshotView>>>>>,
}

impl Clone for InOrbitService {
    fn clone(&self) -> Self {
        InOrbitService {
            constellation: self.constellation.clone(),
            topology: self.topology.clone(),
            engine: Arc::clone(&self.engine),
            faults: self.faults.clone(),
            // Cached views are immutable and Arc-shared; cloning the map
            // is a handful of pointer bumps.
            cache: Mutex::new(self.cache.lock().expect("cache lock").clone()),
        }
    }
}

impl InOrbitService {
    /// Wraps a constellation, building its +Grid ISL topology and
    /// compiling the CSR routing engine over it.
    pub fn new(constellation: Constellation) -> Self {
        Self::with_fault_option(constellation, None)
    }

    /// [`InOrbitService::new`] under a fault scenario: every view the
    /// service builds carries the scenario's outage mask at its instant,
    /// so routing, visibility, selection, and sessions all see dead
    /// satellites, cut ISLs, and rain fades. A scenario with no faults
    /// still routes queries through the masked entry points (which
    /// delegate to the unmasked ones), so outputs stay byte-identical to
    /// a plain service — the property `tests/fault_injection.rs` pins.
    pub fn with_faults(constellation: Constellation, faults: FaultConfig) -> Self {
        Self::with_fault_option(constellation, Some(Arc::new(faults)))
    }

    fn with_fault_option(constellation: Constellation, faults: Option<Arc<FaultConfig>>) -> Self {
        let topology = IslTopology::plus_grid(&constellation);
        let engine = Arc::new(RoutingEngine::compile(&constellation, &topology));
        InOrbitService {
            constellation,
            topology,
            engine,
            faults,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The fault scenario this service runs under, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_deref()
    }

    /// The compiled CSR routing engine (static topology; weights are
    /// refreshed per [`SnapshotView`]).
    pub fn routing_engine(&self) -> &Arc<RoutingEngine> {
        &self.engine
    }

    /// The cached [`SnapshotView`] at `t` seconds after the epoch,
    /// propagating and indexing on first use. Each instant is built once:
    /// callers racing for one instant wait on a single build, and distinct
    /// instants build concurrently, since the cache lock is held only to
    /// find or insert the instant's slot. `service.snapshot_misses` counts
    /// builds and `service.snapshot_hits` every other call.
    ///
    /// # Panics
    /// Panics on a non-finite `t`.
    pub fn view(&self, t: f64) -> Arc<SnapshotView> {
        assert!(t.is_finite(), "view time must be finite, got {t}");
        let key = t.to_bits();
        let slot = {
            let mut cache = self.cache.lock().expect("cache lock");
            if cache.len() >= SNAPSHOT_CACHE_CAP && !cache.contains_key(&key) {
                cache.clear();
            }
            Arc::clone(cache.entry(key).or_default())
        };
        let mut built = false;
        let view = slot.get_or_init(|| {
            built = true;
            leo_obs::counter!("service.snapshot_misses").incr();
            Arc::new(SnapshotView::build_with(
                &self.constellation,
                &self.engine,
                t,
                self.faults.as_deref(),
            ))
        });
        if !built {
            leo_obs::counter!("service.snapshot_hits").incr();
        }
        Arc::clone(view)
    }

    /// A fresh view at `t` that is *not* cached, for a one-off query that
    /// later calls rarely repeat, such as a session's hand-off instant: a
    /// session sweep's memory then does not grow with its hand-off count.
    /// Never consulting the cache keeps the build count independent of
    /// what concurrent callers have cached. Counted as a
    /// `service.snapshot_misses` build.
    ///
    /// # Panics
    /// Panics on a non-finite `t`.
    pub fn transient_view(&self, t: f64) -> SnapshotView {
        assert!(t.is_finite(), "view time must be finite, got {t}");
        leo_obs::counter!("service.snapshot_misses").incr();
        SnapshotView::build_with(&self.constellation, &self.engine, t, self.faults.as_deref())
    }

    /// The underlying constellation.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// The ISL topology.
    pub fn topology(&self) -> &IslTopology {
        &self.topology
    }

    /// Number of satellite-servers (one per satellite — the paper's
    /// "if just one server were added to each of its satellites").
    pub fn num_servers(&self) -> usize {
        self.constellation.num_satellites()
    }

    /// Positions at `t` seconds after the epoch. Served from the snapshot
    /// cache: repeated calls at one instant cost a copy, not a
    /// re-propagation.
    pub fn snapshot(&self, t: f64) -> Snapshot {
        self.view(t).snapshot().clone()
    }

    /// Satellite-servers directly reachable from a ground point at `t`,
    /// answered through the cached spatial index. Under a fault scenario,
    /// dead satellites and rain-faded access links are excluded.
    pub fn reachable_servers(&self, ground: Geodetic, t: f64) -> Vec<VisibleSat> {
        let view = self.view(t);
        let ge = ground.to_ecef_spherical();
        match view.fault_plan() {
            Some(plan) => view.index().query_masked(ge, plan),
            None => view.index().query(ge),
        }
    }

    /// The full `HashMap`-backed network graph at a snapshot with the
    /// given ground endpoints attached — the reference oracle the CSR
    /// engine is checked against. Unmasked by any fault plan; no
    /// production path routes over it.
    pub fn graph(&self, snapshot: &Snapshot, grounds: &[GroundEndpoint]) -> NetworkGraph {
        routing::build_graph(&self.constellation, &self.topology, snapshot, grounds)
    }

    /// One-way delays (seconds) from each ground endpoint to every
    /// satellite at the view's instant: `result[user][sat_id]`, `INFINITY`
    /// when unreachable. The bulk query behind meetup-server selection:
    /// one shared weight refresh per instant, arena-backed Dijkstra per
    /// row.
    pub fn user_delays_view(&self, view: &SnapshotView, users: &[GroundEndpoint]) -> Vec<Vec<f64>> {
        let links = view.attach(users);
        view.delays_from_all(&links)
    }

    /// One-way delay (seconds) between two satellite-servers over the ISL
    /// mesh at the view's instant, or `None` when disconnected (a dead
    /// endpoint under the fault plan is disconnected).
    pub fn server_to_server_delay_view(
        &self,
        view: &SnapshotView,
        a: SatId,
        b: SatId,
    ) -> Option<f64> {
        if a == b {
            return Some(0.0);
        }
        view.sat_to_sat_delay(None, a, b)
    }

    /// One-way state-migration delay (seconds) between two servers when
    /// the session's ground segment may relay: the shortest path over
    /// ISLs *or* down through any of `grounds` and back up. Successive
    /// meetup-servers both sit above the same user group, so the
    /// via-ground bounce often beats winding across the +Grid between an
    /// ascending and a descending plane.
    pub fn migration_delay_view(
        &self,
        view: &SnapshotView,
        grounds: &[GroundEndpoint],
        a: SatId,
        b: SatId,
    ) -> Option<f64> {
        if a == b {
            return Some(0.0);
        }
        let links = view.attach(grounds);
        view.sat_to_sat_delay(Some(&links), a, b)
    }

    /// Direct (single-hop) one-way delays from each user to every
    /// satellite: `result[user][sat]` is the slant-range delay when the
    /// satellite is visible to that user, `INFINITY` otherwise.
    ///
    /// This is the paper's gateway-free session model (§3.2: "user
    /// terminals can communicate directly via satellites without any
    /// gateway intervention"), answered through the view's spatial index.
    /// Collapsed by [`GroupDelays::from_user_delays`](crate::GroupDelays::from_user_delays)
    /// it is the reference the session sweeps'
    /// [`GroupWatch`](crate::selection::GroupWatch) is tested against bit
    /// for bit; no session path calls it per tick any more.
    pub fn user_direct_delays_view(
        &self,
        view: &SnapshotView,
        users: &[GroundEndpoint],
    ) -> Vec<Vec<f64>> {
        users
            .iter()
            .map(|u| {
                let mut row = vec![f64::INFINITY; self.constellation.num_satellites()];
                match view.fault_plan() {
                    Some(plan) => view.index().for_each_visible_masked(u.ecef, plan, |v| {
                        row[v.id.0 as usize] = v.delay_s()
                    }),
                    None => view
                        .index()
                        .for_each_visible(u.ecef, |v| row[v.id.0 as usize] = v.delay_s()),
                }
                row
            })
            .collect()
    }

    /// The nearest visible server for one user at this instant — the
    /// serving layer's primitive query. Smallest slant range wins; exact
    /// range ties (possible for symmetric geometries) break toward the
    /// lower satellite id, so the answer is a pure function of the view
    /// and never depends on scan order. Fault-plan aware through the
    /// view: dead or rain-faded satellites are never returned, and with
    /// an empty plan the answer is identical to the plain service.
    pub fn nearest_server_view(
        &self,
        view: &SnapshotView,
        user: &GroundEndpoint,
    ) -> Option<VisibleSat> {
        let mut best: Option<VisibleSat> = None;
        let mut consider = |v: VisibleSat| {
            let better = match best.as_ref() {
                None => true,
                Some(b) => v.range_m < b.range_m || (v.range_m == b.range_m && v.id.0 < b.id.0),
            };
            if better {
                best = Some(v);
            }
        };
        match view.fault_plan() {
            Some(plan) => view
                .index()
                .for_each_visible_masked(user.ecef, plan, &mut consider),
            None => view.index().for_each_visible(user.ecef, &mut consider),
        }
        best
    }

    /// [`InOrbitService::nearest_server_view`] over a whole user batch,
    /// one entry per user in input order (`None` where no server is
    /// visible). This is what a serve shard runs per snapshot.
    pub fn nearest_servers_view(
        &self,
        view: &SnapshotView,
        users: &[GroundEndpoint],
    ) -> Vec<Option<VisibleSat>> {
        users
            .iter()
            .map(|u| self.nearest_server_view(view, u))
            .collect()
    }

    /// True when the fault plan of `view` rules out `sat` as a server for
    /// this user group: the satellite is dead, or some user's access link
    /// to it is rain-faded shut. Geometric invisibility is *not* a fault —
    /// the session layer already hands off on that — so satellites no user
    /// could see anyway return `false`. Always `false` without a plan,
    /// keeping fault-free sessions byte-identical.
    pub fn fault_masked_server(
        &self,
        view: &SnapshotView,
        users: &[GroundEndpoint],
        sat: SatId,
    ) -> bool {
        let Some(plan) = view.fault_plan() else {
            return false;
        };
        if plan.is_empty() {
            return false;
        }
        if plan.sat_dead(sat) {
            return true;
        }
        let pos = view.snapshot().position(sat);
        let min_el = self.constellation.min_elevation_of(sat);
        users.iter().any(|u| {
            look::is_visible_spherical(u.ecef, pos, min_el) && plan.access_link_masked(u.ecef, pos)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_constellation::presets;

    fn service() -> InOrbitService {
        InOrbitService::new(presets::starlink_550_only())
    }

    /// The brute-force oracle: every satellite tested, no index, no plan.
    fn brute_force(s: &InOrbitService, view: &SnapshotView, g: Geodetic) -> Vec<VisibleSat> {
        leo_net::visibility::visible_sats(
            s.constellation(),
            view.snapshot(),
            g,
            g.to_ecef_spherical(),
        )
    }

    #[test]
    fn server_count_equals_satellite_count() {
        let s = service();
        assert_eq!(s.num_servers(), 1584);
    }

    #[test]
    fn reachable_servers_are_nonempty_at_served_latitudes() {
        let s = service();
        let vis = s.reachable_servers(Geodetic::ground(20.0, 30.0), 0.0);
        assert!(!vis.is_empty());
    }

    #[test]
    fn user_delays_shape_matches_users_and_servers() {
        let s = service();
        let users = [
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(3.87, 11.52)),
        ];
        let delays = s.user_delays_view(&s.view(0.0), &users);
        assert_eq!(delays.len(), 2);
        assert_eq!(delays[0].len(), s.num_servers());
        // Shell is ISL-connected, so every server is reachable.
        assert!(delays.iter().flatten().all(|d| d.is_finite()));
    }

    #[test]
    fn server_to_server_delay_is_symmetric_and_zero_on_diagonal() {
        let s = service();
        let view = s.view(100.0);
        assert_eq!(
            s.server_to_server_delay_view(&view, SatId(5), SatId(5)),
            Some(0.0)
        );
        let ab = s
            .server_to_server_delay_view(&view, SatId(0), SatId(700))
            .unwrap();
        let ba = s
            .server_to_server_delay_view(&view, SatId(700), SatId(0))
            .unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0);
    }

    #[test]
    fn cached_view_is_shared_and_matches_direct_propagation() {
        let s = service();
        let a = s.view(321.0);
        let b = s.view(321.0);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let fresh = s.constellation().snapshot(321.0);
        assert_eq!(a.snapshot().len(), fresh.len());
        for (id, pos) in fresh.iter() {
            assert_eq!(a.snapshot().position(id), pos);
        }
    }

    #[test]
    fn indexed_direct_delays_equal_brute_force() {
        let s = service();
        let users = [
            GroundEndpoint::new(0, Geodetic::ground(9.06, 7.49)),
            GroundEndpoint::new(1, Geodetic::ground(-33.9, 18.4)),
        ];
        let view = s.view(777.0);
        let brute: Vec<Vec<f64>> = users
            .iter()
            .map(|u| {
                let mut row = vec![f64::INFINITY; s.num_servers()];
                for v in brute_force(&s, &view, u.geodetic) {
                    row[v.id.0 as usize] = v.delay_s();
                }
                row
            })
            .collect();
        let indexed = s.user_direct_delays_view(&view, &users);
        assert_eq!(brute, indexed);
    }

    #[test]
    #[should_panic(expected = "view time must be finite")]
    fn nan_view_time_is_rejected() {
        service().view(f64::NAN);
    }

    #[test]
    fn clones_share_cached_views() {
        let s = service();
        let a = s.view(10.0);
        let s2 = s.clone();
        let b = s2.view(10.0);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn faultless_fault_config_changes_nothing() {
        let plain = service();
        let faulted =
            InOrbitService::with_faults(presets::starlink_550_only(), FaultConfig::none());
        let g = Geodetic::ground(6.52, 3.38);
        assert_eq!(
            plain.reachable_servers(g, 60.0),
            faulted.reachable_servers(g, 60.0)
        );
        let users = [GroundEndpoint::new(0, g)];
        assert_eq!(
            plain.user_delays_view(&plain.view(60.0), &users),
            faulted.user_delays_view(&faulted.view(60.0), &users)
        );
        assert!(faulted.view(60.0).fault_plan().unwrap().is_empty());
    }

    #[test]
    fn dead_satellite_is_excluded_from_every_query() {
        let plain = service();
        let g = Geodetic::ground(0.0, 0.0);
        let victim = plain.reachable_servers(g, 0.0)[0].id;
        let mut deaths = vec![f64::INFINITY; victim.0 as usize + 1];
        deaths[victim.0 as usize] = 0.0;
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        assert!(s.reachable_servers(g, 0.0).iter().all(|v| v.id != victim));
        let view = s.view(0.0);
        assert_eq!(s.server_to_server_delay_view(&view, SatId(0), victim), None);
        let users = [GroundEndpoint::new(0, g)];
        let delays = s.user_delays_view(&view, &users);
        assert!(delays[0][victim.0 as usize].is_infinite());
        let direct = s.user_direct_delays_view(&s.view(0.0), &users);
        assert!(direct[0][victim.0 as usize].is_infinite());
        assert!(s.fault_masked_server(&s.view(0.0), &users, victim));
        assert!(!plain.fault_masked_server(&plain.view(0.0), &users, victim));
    }

    #[test]
    fn total_ground_outage_masks_every_server_in_view() {
        let mut cfg = FaultConfig::none();
        cfg.cut_links.push((SatId(0), SatId(1)));
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let view = s.view(0.0);
        let g = Geodetic::ground(0.0, 0.0);
        let users = [GroundEndpoint::new(0, g)];
        // A cut ISL is not an access fault: no server is masked for users.
        let up = s.user_direct_delays_view(&view, &users);
        let plain = service();
        assert_eq!(up, plain.user_direct_delays_view(&plain.view(0.0), &users));
        // But the cut edge itself is gone from the mesh.
        let before = plain
            .server_to_server_delay_view(&plain.view(0.0), SatId(0), SatId(1))
            .unwrap();
        let after = s
            .server_to_server_delay_view(&view, SatId(0), SatId(1))
            .unwrap();
        assert!(after >= before);
    }

    #[test]
    fn direct_visibility_gives_single_hop_minimum_delay() {
        let s = service();
        let g = Geodetic::ground(0.0, 0.0);
        let view = s.view(0.0);
        let direct = brute_force(&s, &view, g);
        let users = [GroundEndpoint::new(0, g)];
        let delays = &s.user_delays_view(&view, &users)[0];
        for v in direct {
            // The graph delay to a directly visible satellite equals the
            // direct slant-range delay (straight line beats any relay).
            assert!((delays[v.id.0 as usize] - v.delay_s()).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_server_is_the_smallest_visible_range() {
        let s = service();
        let view = s.view(150.0);
        let user = GroundEndpoint::new(0, Geodetic::ground(12.0, 77.0));
        let nearest = s.nearest_server_view(&view, &user).unwrap();
        let all = brute_force(&s, &view, user.geodetic);
        let best = all.iter().map(|v| v.range_m).fold(f64::INFINITY, f64::min);
        assert_eq!(nearest.range_m, best);
        // Batched answers equal the one-by-one answers, in input order.
        let users = [
            user,
            GroundEndpoint::new(1, Geodetic::ground(-26.2, 28.0)),
            GroundEndpoint::new(2, Geodetic::ground(89.0, 0.0)),
        ];
        let batch = s.nearest_servers_view(&view, &users);
        for (u, got) in users.iter().zip(&batch) {
            assert_eq!(*got, s.nearest_server_view(&view, u));
        }
    }

    #[test]
    fn nearest_server_skips_a_dead_satellite() {
        let plain = service();
        let g = Geodetic::ground(0.0, 0.0);
        let user = GroundEndpoint::new(0, g);
        let victim = plain
            .nearest_server_view(&plain.view(0.0), &user)
            .unwrap()
            .id;
        let mut deaths = vec![f64::INFINITY; victim.0 as usize + 1];
        deaths[victim.0 as usize] = 0.0;
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let next = s.nearest_server_view(&s.view(0.0), &user).unwrap();
        assert_ne!(next.id, victim, "a dead satellite must never serve");
    }

    fn spread_users(n: usize) -> Vec<GroundEndpoint> {
        (0..n)
            .map(|i| {
                GroundEndpoint::new(
                    i as u32,
                    Geodetic::ground(
                        -54.0 + (i as f64 * 1.37) % 108.0,
                        -180.0 + (i as f64 * 11.31) % 360.0,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn settled_frontier_equals_per_user_scans_through_the_view() {
        let s = service();
        let users = spread_users(400);
        let set = GroundSet::build(&users.iter().map(|u| u.ecef).collect::<Vec<_>>());
        for t in [0.0, 333.0] {
            let view = s.view(t);
            let legacy = s.nearest_servers_view(&view, &users);
            let mut state = NearestState::default();
            let mut settled = Vec::new();
            view.settle_nearest_servers(&set, &mut state, &mut settled);
            assert_eq!(legacy.len(), settled.len());
            for (j, (a, b)) in legacy.iter().zip(&settled).enumerate() {
                match (a, b) {
                    (None, None) => {}
                    (Some(p), Some(q)) => {
                        assert_eq!(p.id, q.id, "user {j}");
                        assert_eq!(p.range_m.to_bits(), q.range_m.to_bits(), "user {j}");
                    }
                    _ => panic!("user {j}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn settled_frontier_equals_per_user_scans_under_faults() {
        let mut deaths = vec![f64::INFINITY; 300];
        for d in deaths.iter_mut().step_by(4) {
            *d = 0.0;
        }
        let cfg = FaultConfig {
            schedule: Some(leo_net::FailureSchedule::from_death_times(deaths)),
            ..FaultConfig::none()
        };
        let s = InOrbitService::with_faults(presets::starlink_550_only(), cfg);
        let users = spread_users(300);
        let set = GroundSet::build(&users.iter().map(|u| u.ecef).collect::<Vec<_>>());
        let view = s.view(120.0);
        assert!(!view.fault_plan().unwrap().is_empty());
        let legacy = s.nearest_servers_view(&view, &users);
        let mut state = NearestState::default();
        let mut settled = Vec::new();
        view.settle_nearest_servers(&set, &mut state, &mut settled);
        assert_eq!(legacy, settled);
        for v in settled.iter().flatten() {
            assert!(!view.fault_plan().unwrap().sat_dead(v.id));
        }
    }

    #[test]
    fn frontier_visible_lists_match_reachable_servers() {
        let s = service();
        let users = spread_users(120);
        let pts: Vec<_> = users.iter().map(|u| u.ecef).collect();
        let banded = leo_net::BandedGroundSets::build(&pts, 4.0);
        let view = s.view(200.0);
        let mut got: Vec<Option<Vec<VisibleSat>>> = vec![None; users.len()];
        for band in banded.bands() {
            for (g, list) in view.frontier_visible_lists(band) {
                got[g as usize] = Some(list);
            }
        }
        for (u, g) in users.iter().zip(got) {
            let mut want = brute_force(&s, &view, u.geodetic);
            want.sort_by(|a, b| a.range_m.total_cmp(&b.range_m).then(a.id.cmp(&b.id)));
            assert_eq!(g.expect("every user banded"), want);
        }
    }

    #[test]
    fn empty_fault_plan_gives_identical_nearest_servers() {
        let plain = service();
        let faulted =
            InOrbitService::with_faults(presets::starlink_550_only(), FaultConfig::none());
        let users: Vec<GroundEndpoint> = (0..8)
            .map(|i| GroundEndpoint::new(i, Geodetic::ground(i as f64 * 9.0 - 30.0, 17.0)))
            .collect();
        assert_eq!(
            plain.nearest_servers_view(&plain.view(45.0), &users),
            faulted.nearest_servers_view(&faulted.view(45.0), &users),
        );
    }
}
