//! `migration`: the hand-offs `predict_servers` gives for seeded meetup
//! groups, each state transfer timed through `migrate_via_packets`,
//! fanned by `leo_sim::parallel_map` over one shared `InOrbitService`.

use crate::common::{
    digest_json, meetup_groups, quantile, sub_seed, Checked, Config, Measured, Scale,
};
use crate::runner::{Replayed, TraceCtx, Workload};
use crate::trace::{Layer, Tracer};
use leo_cities::synth::SplitMix64;
use leo_constellation::{presets, SatId};
use leo_core::replication::{
    migrate_via_packets, predict_servers, MigrationNetConfig, MigrationOutcome,
};
use leo_core::{InOrbitService, Policy};
use leo_net::{routing, VisibilityIndex};
use leo_sim::parallel_map;
use std::collections::BTreeSet;
use std::time::Instant;

/// Prediction horizon and sampling step, seconds (fig_migration's).
const HORIZON_S: f64 = 3600.0;
const STEP_S: f64 = 15.0;
/// Cross-traffic loads on every hop of the route.
const LOADS: [f64; 2] = [0.0, 0.9];
/// Users per meetup group and the radius they are drawn in, km.
const GROUP_SIZE: usize = 3;
const GROUP_RADIUS_KM: f64 = 500.0;

/// The `migration` workload.
pub struct Migration;

/// One timed transfer.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    policy: Policy,
    from: SatId,
    to: SatId,
    at_s: f64,
    size_bytes: f64,
    load: f64,
}

/// Inputs after set-up.
pub struct MigrationSetup {
    service: InOrbitService,
    transfers: Vec<Transfer>,
}

/// The outputs of one measured phase.
pub struct MigrationOutput {
    outcomes: Vec<MigrationOutcome>,
    wall_s: Vec<f64>,
}

/// Hand-offs timed per policy: `(one-hop, three-hop)`, taken in order
/// from the predicted hand-offs of seeded groups, drawing groups until
/// both counts are met. Classifying by the first route's ISL hop count
/// fixes the DES work per round across seeds: a successor across the
/// +Grid seam (40+ hops) costs ~1,000x a neighbour, so a free mix would
/// make every metric follow the seed. Three hops is the shortest route
/// on which 0.9 cross-load makes a 1 GB transfer drop and retransmit.
fn handoff_mix(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (12, 4),
        Scale::Tiny => (1, 0),
    }
}

/// Groups predicted at least: enough that prediction cycles the
/// 1,024-view snapshot cache on every seed, so peak memory does not
/// depend on how many groups the mix happened to need.
const MIN_GROUPS: usize = 24;
/// Groups drawn at most before set-up gives up on filling the mix.
const MAX_GROUPS: usize = 64;

/// State sizes, bytes: two decades apart. The full grid is 2 policies
/// x 16 hand-offs x 2 sizes x 2 loads = 128 transfers, so p92 has 10
/// transfers beyond it.
fn state_sizes(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Full => &[10e6, 1e9],
        Scale::Tiny => &[1e6],
    }
}

/// The (size, load) cells: every state size at every load.
fn cells(scale: Scale) -> Vec<(f64, f64)> {
    state_sizes(scale)
        .iter()
        .flat_map(|&size| LOADS.map(|load| (size, load)))
        .collect()
}

/// ISL hops on the route `migrate_via_packets` takes first: the same
/// public graph build and shortest path it runs per segment.
fn route_hops(service: &InOrbitService, from: SatId, to: SatId, at_s: f64) -> Option<usize> {
    let view = service.view(at_s);
    let graph = service.graph(view.snapshot(), &[]);
    routing::sat_to_sat(&graph, from, to).map(|p| p.nodes.len() - 1)
}

fn net_config(load: f64) -> MigrationNetConfig {
    MigrationNetConfig {
        cross_load_frac: load,
        ..MigrationNetConfig::default()
    }
}

impl Workload for Migration {
    type Setup = MigrationSetup;
    type Output = MigrationOutput;

    fn layers(&self) -> Vec<Layer> {
        vec![
            Layer::call("congestion"),
            Layer::child("service.view", "congestion"),
            Layer::child("constellation.snapshot", "service.view"),
            Layer::child("index.build", "service.view"),
            Layer::child("engine.refresh", "service.view"),
            Layer::child("routing.graph", "congestion"),
        ]
    }

    fn setup(&self, cfg: &Config, _tracer: &Tracer) -> MigrationSetup {
        let (one_hop, three_hop) = handoff_mix(cfg.scale);
        let service = InOrbitService::new(presets::starlink_550_only());
        let groups = meetup_groups(
            sub_seed(cfg.seed, 6),
            MAX_GROUPS,
            GROUP_SIZE,
            GROUP_RADIUS_KM,
        );
        let start = (sub_seed(cfg.seed, 7) % 5760) as f64 * STEP_S;
        let filled = |one: &[_], three: &[_]| one.len() == one_hop && three.len() == three_hop;
        let mut transfers = Vec::new();
        for policy in [Policy::sticky_default(), Policy::MinMax] {
            let (mut picked_one, mut picked_three) = (Vec::new(), Vec::new());
            for (g, users) in groups.iter().enumerate() {
                if g >= MIN_GROUPS && filled(&picked_one, &picked_three) {
                    break;
                }
                let iv = predict_servers(&service, users, policy, start, HORIZON_S, STEP_S);
                for w in iv.windows(2) {
                    if filled(&picked_one, &picked_three) {
                        break;
                    }
                    let h = (w[0].server, w[1].server, w[1].from_s);
                    match route_hops(&service, h.0, h.1, h.2) {
                        Some(1) if picked_one.len() < one_hop => picked_one.push(h),
                        Some(3) if picked_three.len() < three_hop => picked_three.push(h),
                        _ => {}
                    }
                }
            }
            assert!(
                filled(&picked_one, &picked_three),
                "{MAX_GROUPS} seeded groups give too few {} hand-offs",
                policy.name()
            );
            let handoffs: Vec<_> = picked_one.into_iter().chain(picked_three).collect();
            let mut mine: Vec<Transfer> = cells(cfg.scale)
                .into_iter()
                .flat_map(|(size_bytes, load)| {
                    handoffs.iter().map(move |&(from, to, at_s)| Transfer {
                        policy,
                        from,
                        to,
                        at_s,
                        size_bytes,
                        load,
                    })
                })
                .collect();
            // At two threads each policy's transfers form one pool
            // chunk. A seeded shuffle spreads the short transfers between
            // the long ones, so their wall times are sampled across the
            // whole round (beside a busy worker), not in one burst.
            let mut rng = SplitMix64::new(sub_seed(cfg.seed, 8));
            for i in (1..mine.len()).rev() {
                mine.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            transfers.extend(mine);
        }
        // Prediction leaves most hand-off instants in the snapshot cache,
        // but which ones survive its clear-all depends on the seed. Touch
        // every transfer's first view so none is built inside a timed
        // call; a second pass refills whatever a clear in the first
        // dropped (32 instants cannot fill the cache again).
        for _ in 0..2 {
            for x in &transfers {
                service.view(x.at_s);
            }
        }
        MigrationSetup { service, transfers }
    }

    fn measure(
        &self,
        cfg: &Config,
        s: &MigrationSetup,
        tracer: &Tracer,
    ) -> (Measured, MigrationOutput) {
        let t0 = Instant::now();
        let timed = parallel_map(s.transfers.clone(), cfg.threads, |x| {
            let c0 = Instant::now();
            let o = tracer.span("congestion", "call", || {
                migrate_via_packets(
                    &s.service,
                    x.from,
                    x.to,
                    x.at_s,
                    x.size_bytes,
                    &net_config(x.load),
                )
            });
            (o, c0.elapsed().as_secs_f64())
        });
        let phase_s = t0.elapsed().as_secs_f64();
        let (outcomes, wall_s): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
        let m = Measured {
            ops: outcomes.len() as u64,
            phase_s,
            call_s: wall_s.clone(),
        };
        (m, MigrationOutput { outcomes, wall_s })
    }

    fn check(&self, _cfg: &Config, s: &MigrationSetup, out: &MigrationOutput) -> Checked {
        let mut c = Checked::default();
        for (x, o) in s.transfers.iter().zip(&out.outcomes) {
            let label = format!(
                "{} {}->{} at {} {}B load {}",
                x.policy.name(),
                x.from.0,
                x.to.0,
                x.at_s,
                x.size_bytes,
                x.load
            );
            c.digests.push(digest_json(label.clone(), o));
            let Some(d) = o.duration_s else {
                c.check(false, || format!("{label}: transfer did not complete"));
                continue;
            };
            // fig_migration's identity: an uncontended transfer sits on
            // the packetized analytic bound, without retransmissions.
            let ok = d >= o.analytic_packet_s - 1e-9
                && (x.load > 0.0
                    || (d <= o.analytic_packet_s * 1.15 + 1e-6 && o.retransmissions == 0))
                && o.transmissions >= o.packets;
            c.check(ok, || {
                format!(
                    "{label}: {d} s vs analytic {} s, {} retx",
                    o.analytic_packet_s, o.retransmissions
                )
            });
        }
        // Contention never speeds a transfer up.
        for (i, (x, o)) in s.transfers.iter().zip(&out.outcomes).enumerate() {
            if x.load > 0.0 {
                continue;
            }
            for (y, p) in s.transfers.iter().zip(&out.outcomes).skip(i + 1) {
                let same = y.policy == x.policy
                    && y.from == x.from
                    && y.to == x.to
                    && y.at_s == x.at_s
                    && y.size_bytes == x.size_bytes;
                if same && y.load > 0.0 {
                    c.check(p.duration_s >= o.duration_s, || {
                        format!("load {} transfer beat the uncontended one", y.load)
                    });
                }
            }
        }
        c
    }

    fn replay(
        &self,
        cfg: &Config,
        s: &MigrationSetup,
        out: &MigrationOutput,
        ctx: TraceCtx<'_>,
    ) -> Replayed {
        let t = ctx.tracer;
        let service = InOrbitService::new(presets::starlink_550_only());
        let constellation = service.constellation();
        let engine = service.routing_engine().clone();
        let segment_s = MigrationNetConfig::default().segment_s;
        let mut built = BTreeSet::new();
        for (x, o) in s.transfers.iter().zip(&out.outcomes) {
            for seg in 0..o.segments {
                let time = x.at_s + seg as f64 * segment_s;
                if built.insert(time.to_bits()) {
                    t.replay("service.view", || service.view(time));
                    let snap = t.replay("constellation.snapshot", || constellation.snapshot(time));
                    t.replay("index.build", || {
                        VisibilityIndex::build(constellation, &snap)
                    });
                    t.replay("engine.refresh", || engine.refresh(&snap));
                }
                let view = service.view(time);
                t.replay("routing.graph", || {
                    let graph = service.graph(view.snapshot(), &[]);
                    routing::sat_to_sat(&graph, x.from, x.to)
                });
            }
        }

        let m = ctx.metrics;
        let sum = |f: fn(&MigrationOutcome) -> u64| out.outcomes.iter().map(f).sum::<u64>() as f64;
        let tx = sum(|o| o.transmissions);
        let segments = sum(|o| o.segments as u64);
        m.insert("routing.graph.calls", segments);
        m.insert("congestion.segments", segments);
        m.insert("congestion.transmissions", tx);
        if tx > 0.0 {
            m.insert("congestion.drop_frac", sum(|o| o.dropped) / tx);
            m.insert("congestion.retx_frac", sum(|o| o.retransmissions) / tx);
        }
        m.insert(
            "congestion.transfer_p50_ms",
            quantile(&out.wall_s, 0.5).unwrap_or(0.0) * 1e3,
        );
        m.insert(
            "congestion.transfer_p92_ms",
            quantile(&out.wall_s, 0.92).unwrap_or(0.0) * 1e3,
        );
        let phase = t.total("measure", "phase");
        if phase > 0.0 {
            m.insert(
                "sim.pool_utilization",
                t.total("congestion", "call") / (cfg.threads as f64 * phase),
            );
        }
        Replayed {
            builds: built.len(),
            instants: built.len(),
        }
    }
}
