//! Packet-simulator throughput: event-loop cost of open-loop CBR traffic
//! contending for one downlink, of windowed transfers queueing behind
//! each other on a multi-hop route, and of one state-migration segment
//! against heavy cross-traffic.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leo_core::replication::MigrationNetConfig;
use leo_net::congestion::{CbrFlow, CcAlgorithm, CongestionLink, CongestionNetwork, WindowedFlow};

/// User traffic plus an EO bulk flow sharing a 10 Gbps downlink.
fn packet_contention(packets: u64) -> u64 {
    let mut net = CongestionNetwork::new();
    let l = net.add_link(CongestionLink::new(10e9, 0.002, 128));
    let flows = [
        net.add_cbr(CbrFlow {
            route: vec![l],
            packet_bits: 12_000.0,
            interval_s: 12_000.0 / 2e9,
            start_s: 0.0,
            packets,
        }),
        net.add_cbr(CbrFlow {
            route: vec![l],
            packet_bits: 120_000.0,
            interval_s: 120_000.0 / 9e9,
            start_s: 0.0,
            packets: packets / 10,
        }),
    ];
    net.run();
    flows.iter().map(|&f| net.cbr_stats(f).delivered).sum()
}

/// `senders` staggered DCTCP transfers over one 8-hop ISL route.
fn multi_hop(senders: usize) -> Vec<Option<f64>> {
    let mut net = CongestionNetwork::new();
    let route: Vec<_> = (0..8)
        .map(|_| net.add_link(CongestionLink::new(1e10, 0.003, 256).with_ecn(64)))
        .collect();
    let ids: Vec<_> = (0..senders)
        .map(|i| {
            let flow = WindowedFlow::new(
                route.clone(),
                384_000.0,
                100,
                i as f64 * 1e-3,
                CcAlgorithm::Dctcp { gain: 0.0625 },
            );
            net.add_windowed(flow)
        })
        .collect();
    net.run();
    ids.iter()
        .map(|&id| net.windowed_stats(id).completion_s)
        .collect()
}

/// One `migrate_via_packets` segment as the migration sweep runs it, on
/// the `MigrationNetConfig` defaults (10 Gbps, 48 kB packets, queue 256,
/// ECN at 64, DCTCP): a 100 MB transfer over 3 ISL hops, each carrying
/// open-loop cross-traffic at 90 % of its rate.
fn migration_segment() -> Option<f64> {
    let cfg = MigrationNetConfig {
        cross_load_frac: 0.9,
        ..MigrationNetConfig::default()
    };
    let ecn = cfg.ecn_threshold.expect("default config marks ECN");
    let mut net = CongestionNetwork::new();
    let props = [3.1e-3, 2.4e-3, 3.6e-3];
    let route: Vec<_> = props
        .iter()
        .map(|&prop| {
            net.add_link(
                CongestionLink::new(cfg.isl_rate_bps, prop, cfg.queue_packets).with_ecn(ecn),
            )
        })
        .collect();
    for &l in &route {
        net.add_cbr(CbrFlow::with_load(
            vec![l],
            cfg.packet_bits,
            cfg.cross_load_frac * cfg.isl_rate_bps,
            0.0,
            cfg.segment_s,
        ));
    }
    let base_rtt_s: f64 = props
        .iter()
        .map(|prop| cfg.packet_bits / cfg.isl_rate_bps + 2.0 * prop)
        .sum();
    let bdp = (cfg.isl_rate_bps * base_rtt_s / cfg.packet_bits).max(10.0);
    let id = net.add_windowed(WindowedFlow {
        init_cwnd: bdp,
        max_cwnd: 2.0 * bdp,
        base_rtt_s: Some(base_rtt_s),
        init_ssthresh: Some(bdp),
        ..WindowedFlow::new(
            route,
            cfg.packet_bits,
            (100e6 * 8.0 / cfg.packet_bits).ceil() as u64,
            0.0,
            cfg.algorithm,
        )
    });
    net.run_while_incomplete(cfg.segment_s);
    net.windowed_stats(id).completion_s
}

fn bench_packet(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_des");
    group.sample_size(20);
    group.bench_function("shared_downlink_10k_packets", |b| {
        b.iter(|| black_box(packet_contention(10_000)))
    });
    group.bench_function("shared_downlink_100k_packets", |b| {
        b.iter(|| black_box(packet_contention(100_000)))
    });
    group.bench_function("multi_hop_8_links_20_senders", |b| {
        b.iter(|| black_box(multi_hop(20)))
    });
    group.bench_function("migration_3_hops_cbr_0_9", |b| {
        b.iter(|| black_box(migration_segment()))
    });
    group.finish();
}

criterion_group!(benches, bench_packet);
criterion_main!(benches);
