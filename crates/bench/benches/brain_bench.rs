//! Control-plane micro-benchmarks.
//!
//! Validates the paper's §4.4 claim that "the path lookup takes only a few
//! milliseconds" (ours is sub-microsecond for the hash lookups plus the
//! constraint filter), and measures the Brain's periodic work: the Global
//! Routing recompute that runs every 10 minutes (on a fresh and a loaded
//! topology) and the minute tick's report absorption.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use livenet_brain::{yen_ksp, link_weight, WeightParams};
use livenet_brain::{BrainConfig, GlobalRouting, RoutingConfig, StreamingBrain};
use livenet_topology::view::report_from_topology;
use livenet_topology::{GeoConfig, GeoTopology, NodeReport, Topology};
use livenet_types::{DetRng, NodeId, SimDuration, SimTime, StreamId};

fn bench_path_lookup(c: &mut Criterion) {
    let geo = GeoTopology::generate(&GeoConfig::paper_scale(1));
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    let mut brain = StreamingBrain::new(geo.topology, BrainConfig::default());
    for (i, &n) in nodes.iter().enumerate() {
        brain.register_stream(StreamId::new(i as u64), n);
    }
    let mut i = 0usize;
    c.bench_function("brain/path_request (PIB+SIB lookup; paper: 'a few ms')", |b| {
        b.iter(|| {
            let stream = StreamId::new((i % nodes.len()) as u64);
            let consumer = nodes[(i * 7 + 3) % nodes.len()];
            i += 1;
            brain
                .path_request(stream, consumer, SimTime::ZERO)
                .expect("path")
        })
    });
}

/// Random utilization on every node and link, ~5 % at or above the 0.8
/// overload target: step 2 filters on a loaded topology, never on a fresh
/// one (zero utilization everywhere).
fn loaded(seed: u64) -> Topology {
    let mut t = GeoTopology::generate(&GeoConfig::paper_scale(seed)).topology;
    let mut rng = DetRng::seed(seed).fork("brain-bench-load");
    let draw = |rng: &mut DetRng| {
        if rng.chance(0.05) {
            rng.range_f64(0.8, 1.0)
        } else {
            rng.range_f64(0.0, 0.8)
        }
    };
    for n in t.nodes_mut() {
        n.utilization = draw(&mut rng);
    }
    for (_, _, l) in t.links_mut() {
        l.utilization = draw(&mut rng);
    }
    t
}

fn bench_global_routing(c: &mut Criterion) {
    let geo = GeoTopology::generate(&GeoConfig::paper_scale(2));
    let routing = GlobalRouting::new(RoutingConfig::default());
    c.bench_function(
        "brain/compute_all 60+3-node mesh, fresh (the 10-minute job)",
        |b| b.iter(|| routing.compute_all(&geo.topology, SimTime::ZERO)),
    );
    let busy = loaded(2);
    c.bench_function("brain/compute_all 60+3-node mesh, loaded", |b| {
        b.iter(|| routing.compute_all(&busy, SimTime::ZERO))
    });

    let graph = routing.build_graph(&geo.topology);
    c.bench_function("brain/yen_ksp single pair (k=3, hops<=3)", |b| {
        b.iter(|| yen_ksp(&graph, 0, graph.len() - 1, 3, 3))
    });
}

fn bench_minute_tick(c: &mut Criterion) {
    // One report per routable node from a loaded topology, re-stamped each
    // minute so every report is fresh; overloaded nodes and links raise
    // alarms against the PIB.
    let busy = loaded(4);
    let mut reports: Vec<NodeReport> = busy
        .routable_node_ids()
        .filter_map(|n| report_from_topology(&busy, n, SimTime::ZERO))
        .collect();
    let mut brain = StreamingBrain::new(busy, BrainConfig::default());
    let mut minute = 0u64;
    c.bench_function(
        &format!("brain/absorb_report x{} (one minute tick)", reports.len()),
        |b| {
            b.iter(|| {
                minute += 1;
                let mut alarms = 0;
                for r in &mut reports {
                    r.at = SimTime::from_secs(60 * minute);
                    alarms += brain.absorb_report(r).len();
                }
                alarms
            })
        },
    );
}

fn bench_weight(c: &mut Criterion) {
    c.bench_function("brain/link_weight (Eq. 2-3)", |b| {
        b.iter(|| {
            link_weight(
                SimDuration::from_millis(40),
                0.001,
                0.55,
                WeightParams::default(),
            )
        })
    });
}

fn bench_overload_invalidation(c: &mut Criterion) {
    let geo = GeoTopology::generate(&GeoConfig::paper_scale(3));
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    let brain = StreamingBrain::new(geo.topology.clone(), BrainConfig::default());
    let victim = nodes[5];
    c.bench_function("brain/PIB invalidate_node (overload alarm)", |b| {
        b.iter_batched(
            || brain.decision().pib.clone(),
            |mut pib| pib.invalidate_node(victim),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_path_lookup, bench_global_routing, bench_minute_tick, bench_weight,
        bench_overload_invalidation
}
criterion_main!(benches);
