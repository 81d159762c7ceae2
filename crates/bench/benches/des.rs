//! Packet-simulator throughput: event-loop cost of open-loop CBR traffic
//! contending for one downlink, and of windowed transfers queueing
//! behind each other on a multi-hop route.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
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
    group.finish();
}

criterion_group!(benches, bench_packet);
criterion_main!(benches);
