//! Golden fingerprints of Global Routing's full recompute.
//!
//! Each fingerprint is an FNV-1a hash over a `compute_all` output: the
//! pairs in sorted order, then per path its node ids, `weight.to_bits()`,
//! `computed_at` and `last_resort`. The values were captured from the
//! graph-based recompute that the index-space one replaced, so a change to
//! the weight function, the top-k order, the step-2 filter or the hop
//! bound that moves a single bit of the PIB fails here.
//!
//! Four variants per paper_scale seed:
//! * `fresh` — the generated topology as is (zero utilization, so step 2
//!   filters nothing);
//! * `loaded` — every node and link at a random utilization below the
//!   overload target, ~5 % of them at or above it;
//! * `down` — `loaded` with one node and one duplex link marked down;
//! * `hops2` — `loaded` routed with `max_hops = 2`.

use livenet_brain::{GlobalRouting, OverlayPath, RoutingConfig};
use livenet_topology::{GeoConfig, GeoTopology, Topology};
use livenet_types::{DetRng, NodeId, SimTime};
use std::collections::HashMap;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fingerprint(pib: &HashMap<(NodeId, NodeId), Vec<OverlayPath>>) -> u64 {
    let mut pairs: Vec<_> = pib.iter().collect();
    pairs.sort_unstable_by_key(|(&pair, _)| pair);
    let mut h = Fnv::new();
    h.u64(pairs.len() as u64);
    for ((src, dst), paths) in pairs {
        h.u64(src.raw());
        h.u64(dst.raw());
        h.u64(paths.len() as u64);
        for p in paths {
            h.u64(p.nodes.len() as u64);
            for n in &p.nodes {
                h.u64(n.raw());
            }
            h.u64(p.weight.to_bits());
            h.u64(p.computed_at.as_nanos());
            h.u64(u64::from(p.last_resort));
        }
    }
    h.0
}

/// Random utilization on every node and link: ~5 % at or above the 0.8
/// overload target, the rest below it.
fn load(topology: &mut Topology, seed: u64) {
    let mut rng = DetRng::seed(seed).fork("pib-golden-load");
    let draw = |rng: &mut DetRng| {
        if rng.chance(0.05) {
            rng.range_f64(0.8, 1.0)
        } else {
            rng.range_f64(0.0, 0.8)
        }
    };
    for n in topology.nodes_mut() {
        n.utilization = draw(&mut rng);
    }
    for (_, _, l) in topology.links_mut() {
        l.utilization = draw(&mut rng);
    }
}

fn variant(seed: u64, name: &str) -> (Topology, RoutingConfig) {
    let mut t = GeoTopology::generate(&GeoConfig::paper_scale(seed)).topology;
    let mut cfg = RoutingConfig::default();
    if name != "fresh" {
        load(&mut t, seed);
    }
    match name {
        "down" => {
            let ids: Vec<NodeId> = t.routable_node_ids().collect();
            t.set_node_up(ids[7], false);
            t.set_duplex_up(ids[3], ids[11], false);
        }
        "hops2" => cfg.max_hops = 2,
        _ => {}
    }
    (t, cfg)
}

const VARIANTS: [&str; 4] = ["fresh", "loaded", "down", "hops2"];

/// `GOLDEN[seed - 1][variant]`, variants in [`VARIANTS`] order.
const GOLDEN: [[u64; 4]; 4] = [
    [0xc41a7e38f23a7945, 0x6f58ef3b1c2d1d58, 0xc190ddf1b5920ecc, 0xc8194e0e5d92cbcd],
    [0x565a51a3b87289e9, 0x7d8ddc2286e45350, 0x5b10145e124b076b, 0x90a4a2ad2982d867],
    [0xa3633061f45d7f3a, 0x14d3b1bc6a4bf542, 0x0ad95f75bfd28034, 0x4bf21b3aebbcfa4a],
    [0x4141a2f15ea8bd50, 0x3707181dc0b4d37d, 0xfcb8ac2123a00752, 0x63b2026a028c5e1c],
];

#[test]
fn compute_all_matches_golden() {
    let now = SimTime::from_secs(600);
    let mut got = [[0u64; 4]; 4];
    for seed in 1..=4u64 {
        for (v, name) in VARIANTS.iter().enumerate() {
            let (t, cfg) = variant(seed, name);
            let pib = GlobalRouting::new(cfg).compute_all(&t, now);
            got[seed as usize - 1][v] = fingerprint(&pib);
        }
    }
    let show = |g: &[[u64; 4]; 4]| {
        g.iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|x| format!("0x{x:016x}")).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    assert_eq!(got, GOLDEN, "PIB fingerprints moved; got\n{}", show(&got));
}

#[test]
fn variants_exercise_the_filter() {
    // The loaded variants must actually drop candidates in step 2, or the
    // golden values would not cover the filter.
    let now = SimTime::ZERO;
    for seed in 1..=4u64 {
        let (fresh, cfg) = variant(seed, "fresh");
        let full = GlobalRouting::new(cfg).compute_all(&fresh, now);
        assert!(full.values().all(|p| p.len() == cfg.k));
        let (loaded, cfg) = variant(seed, "loaded");
        let filtered = GlobalRouting::new(cfg).compute_all(&loaded, now);
        assert!(filtered.values().any(|p| p.len() < cfg.k));
        assert!(filtered.values().any(Vec::is_empty));
    }
}
