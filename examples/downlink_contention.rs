//! Downlink contention between Earth-observation bulk data and user
//! traffic — footnote 1 of §3.3: using a substantial fraction of the
//! ~10 Gbps down-links for sensing data "may require compromising one
//! or the other function". In-orbit pre-processing shrinks the bulk
//! share and removes the compromise.
//!
//! Run with: `cargo run --release --example downlink_contention`

use in_orbit::apps::spacenative::SensingPipeline;
use in_orbit::net::congestion::{CbrFlow, CongestionLink, CongestionNetwork};

fn scenario(bulk_bps: f64) -> (f64, f64) {
    let mut net = CongestionNetwork::new();
    let downlink = net.add_link(CongestionLink::new(10e9, 0.002, 256));
    // Interactive user traffic: 100 Mbps of 1,500-byte packets.
    let user = net.add_cbr(CbrFlow {
        route: vec![downlink],
        packet_bits: 12_000.0,
        interval_s: 12_000.0 / 0.1e9,
        start_s: 0.0,
        packets: 2_000,
    });
    if bulk_bps > 0.0 {
        // EO download: 15,000-byte jumbo packets.
        net.add_cbr(CbrFlow {
            route: vec![downlink],
            packet_bits: 120_000.0,
            interval_s: 120_000.0 / bulk_bps,
            start_s: 0.0,
            packets: (bulk_bps / 120_000.0 * 0.25) as u64, // ~250 ms worth
        });
    }
    net.run();
    let stats = net.cbr_stats(user);
    let mean_ms = stats.mean_latency_s().unwrap_or(f64::NAN) * 1e3;
    (mean_ms, stats.delivery_ratio())
}

fn main() {
    println!("user-traffic latency on a 10 Gbps downlink shared with EO data:\n");
    println!(
        "{:>28} {:>16} {:>12}",
        "EO download share", "user latency", "delivered"
    );
    for (label, bulk) in [
        ("none (network only)", 0.0),
        ("2 Gbps (20 %)", 2e9),
        ("8 Gbps (80 %)", 8e9),
        ("9.9 Gbps (99 %)", 9.9e9),
        ("11 Gbps (oversubscribed)", 11e9),
    ] {
        let (lat, ratio) = scenario(bulk);
        println!("{label:>28} {lat:>13.4} ms {:>11.1}%", ratio * 100.0);
    }

    // The fix: pre-process in orbit so less needs downlinking.
    println!("\nwith in-orbit pre-processing (8 Gbps sensor):");
    for k in [1.0, 4.0, 16.0] {
        let p = SensingPipeline {
            sensor_rate_bps: 8e9,
            downlink_rate_bps: 2e9,
            reduction_factor: k,
        };
        println!(
            "  {k:>4}× reduction → {:.1} Gbps to downlink per sensing-second, duty {:.0} %",
            p.downlink_bits_per_sensing_s() / 1e9,
            p.sensing_duty_cycle() * 100.0
        );
    }
}
