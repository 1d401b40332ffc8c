//! The §3 A→B→C example: fast-path forwarding with slow-path recovery.
//!
//! ```sh
//! cargo run --release --example fast_slow_recovery
//! ```

use livenet::prelude::*;

fn main() {
    println!("A → B → C chain, 2% random loss on A→B (paper §3 example)\n");
    for (label, recovery) in [("fast + slow path (LiveNet)", true), ("fast path only", false)] {
        let mut sc = Scenario::three_node_chain(0.02, 42);
        if !recovery {
            sc.node.nack_retry_limit = 0;
        }
        let report = sc.run().report();
        let (_, qoe) = report.viewers[0];
        println!("{label}:");
        println!(
            "  frames rendered: {} / ~150   stalls: {}",
            qoe.frames_rendered, qoe.stalls
        );
        println!(
            "  seqs NACKed by B: {} (in {} messages)   retransmissions served by A: {}",
            report.node_stats[1].nacks_sent,
            report.node_stats[1].nack_batches,
            report.node_stats[0].rtx_served
        );
        if !report.recovery_latencies_ms.is_empty() {
            let mean = report.recovery_latencies_ms.iter().sum::<f64>()
                / report.recovery_latencies_ms.len() as f64;
            println!(
                "  {} holes recovered, mean detection→recovery {:.0} ms",
                report.recovery_latencies_ms.len(),
                mean
            );
        }
        println!();
    }
    println!("The slow path recovers every loss within ~(scan/2 + RTT), so the");
    println!("viewer sees the full frame sequence; without it, playback degrades.");
}
