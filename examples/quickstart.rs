//! Quickstart: a CDN footprint, the Streaming Brain, and one viewing
//! session end-to-end at packet level.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use livenet::emu::LossModel;
use livenet::prelude::*;

fn main() {
    // 1. Generate a geo-distributed CDN overlay (12 countries, 60 nodes,
    //    full mesh with realistic intra/inter-national RTTs).
    let geo = GeoTopology::generate(&GeoConfig::paper_scale(1));
    println!(
        "topology: {} nodes, {} directed links, {} last-resort relays",
        geo.topology.node_count(),
        geo.topology.link_count(),
        geo.topology.last_resort_ids().count(),
    );

    // 2. Start the Streaming Brain: it computes the K=3 shortest paths
    //    between every pair under the paper's Eq. 2–3 link weights.
    let nodes: Vec<NodeId> = geo.topology.routable_node_ids().collect();
    let mut brain = StreamingBrain::new(geo.topology.clone(), BrainConfig::default());
    println!(
        "brain: PIB populated with {} candidate paths",
        brain.decision().pib.total_paths()
    );

    // 3. A broadcaster goes live at a producer node; a viewer shows up at
    //    a consumer node on the other side of the world.
    let stream = StreamId::new(42);
    let producer = nodes[0];
    let consumer = *nodes.last().expect("nodes");
    brain.register_stream(stream, producer);
    let lookup = brain
        .path_request(stream, consumer, SimTime::ZERO)
        .expect("path");
    let best = &lookup.paths[0];
    println!(
        "path {producer} → {consumer}: {:?} ({} hops, weight {:.1} ms)",
        best.nodes,
        best.hops(),
        best.weight
    );

    // 4. Replay that path at packet level: real overlay-node state
    //    machines over the discrete-event emulator, 1 % loss on the first
    //    hop to show the fast/slow-path recovery.
    let mut sc = Scenario::chain(&vec![10; best.hops().max(2)], 7);
    sc.links[0].2.loss = LossModel::Bernoulli { p: 0.01 };
    let report = sc.run().report();
    let (_, qoe) = report.viewers[0];
    println!(
        "viewer: startup {:?} (fast: {}), {} frames rendered, {} stalls",
        qoe.startup,
        qoe.fast_startup(),
        qoe.frames_rendered,
        qoe.stalls
    );
    println!(
        "slow path: {} holes recovered (mean {:.0} ms), {} retransmissions served",
        report.recovery_latencies_ms.len(),
        report.recovery_latencies_ms.iter().sum::<f64>()
            / report.recovery_latencies_ms.len().max(1) as f64,
        report.node_stats.iter().map(|s| s.rtx_served).sum::<u64>()
    );
}
