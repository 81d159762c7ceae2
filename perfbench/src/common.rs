//! Pieces every workload shares: run configuration, the per-round
//! record, seeded input draws and the FNV digest used for output checks.

use leo_cities::synth::SplitMix64;
use leo_cities::WorldCities;
use leo_geo::Geodetic;
use leo_net::routing::GroundEndpoint;

/// Input size: the benchmark's own, or a tiny one the smoke tests run
/// through the same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload docs describe.
    Full,
    /// Seconds-scale inputs for tests.
    Tiny,
}

/// What one workload run is given.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Worker-pool size for every `parallel_map` fan-out.
    pub threads: usize,
    /// Input size.
    pub scale: Scale,
}

/// One checked operation's output fingerprint, labelled so a mismatch
/// names the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Which operation, e.g. `"t=3600"` or `"session 3 Sticky"`.
    pub label: String,
    /// FNV-1a over the operation's serialized output.
    pub value: u64,
}

/// The measured part of one round.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Units of work completed: answers, ticks or transfers.
    pub ops: u64,
    /// Wall seconds of the measured phase.
    pub phase_s: f64,
    /// Wall seconds of each public call the phase made.
    pub call_s: Vec<f64>,
}

/// The checked outputs of one round.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// One digest per operation, in a fixed order.
    pub digests: Vec<Digest>,
    /// Operations checked by invariants or the oracle (digests counted
    /// separately by the runner).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
}

impl Checked {
    /// Counts one checked operation, recording `msg` when `ok` is false.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(msg());
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over the JSON serialization of `value`.
pub fn digest_json<T: serde::Serialize>(label: String, value: &T) -> Digest {
    let json = serde_json::to_string(value).expect("outputs serialize");
    Digest {
        label,
        value: fnv(json.as_bytes()),
    }
}

/// A sub-seed for one input stream, so changing how many draws one
/// stream makes never shifts another.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Mean Earth radius used for the group spread, kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// `count` meetup groups of `size` users. Each group sits around a city
/// drawn in proportion to population; every user is placed uniformly in
/// a disc of `radius_km` around it, so a group spans up to twice that.
pub fn meetup_groups(
    seed: u64,
    count: usize,
    size: usize,
    radius_km: f64,
) -> Vec<Vec<GroundEndpoint>> {
    let catalog = WorldCities::load();
    let cities = catalog.all();
    let cumulative: Vec<u64> = cities
        .iter()
        .scan(0u64, |acc, c| {
            *acc += c.population;
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().expect("city catalog is not empty");
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let pick = (rng.next_f64() * total as f64) as u64;
            let anchor = &cities[cumulative
                .partition_point(|&c| c <= pick)
                .min(cities.len() - 1)];
            (0..size)
                .map(|i| {
                    // Uniform in the disc: radius ~ sqrt(U).
                    let d_km = radius_km * rng.next_f64().sqrt();
                    let bearing = rng.range(0.0, std::f64::consts::TAU);
                    let dlat = (d_km * bearing.cos() / EARTH_RADIUS_KM).to_degrees();
                    let lat = (anchor.lat_deg + dlat).clamp(-80.0, 80.0);
                    let dlon = (d_km * bearing.sin() / (EARTH_RADIUS_KM * lat.to_radians().cos()))
                        .to_degrees();
                    let mut lon = anchor.lon_deg + dlon;
                    if lon > 180.0 {
                        lon -= 360.0;
                    } else if lon < -180.0 {
                        lon += 360.0;
                    }
                    GroundEndpoint::new(i as u32, Geodetic::ground(lat, lon))
                })
                .collect()
        })
        .collect()
}

/// Nearest-rank quantile of `xs` (`q` in 0..=1); `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Geometric mean of positive `xs`; `None` when empty. Unlike a median
/// it moves smoothly when calls of very different cost share a run.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Median of `xs`, averaging the middle pair; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_seeded_and_local() {
        let a = meetup_groups(7, 4, 3, 500.0);
        assert_eq!(a, meetup_groups(7, 4, 3, 500.0));
        assert_ne!(a, meetup_groups(8, 4, 3, 500.0));
        for g in &a {
            assert_eq!(g.len(), 3);
            for u in g {
                let d = u.ecef.distance_m(g[0].ecef) / 1e3;
                assert!(d <= 1000.0 + 1.0, "group member {d} km from its peer");
            }
        }
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.75), Some(30.0));
        assert_eq!(quantile(&xs, 0.5), Some(20.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
    }
}
