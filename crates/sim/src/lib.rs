//! Simulation harnesses reproducing the paper's evaluation (§6).
//!
//! Two fidelity levels (DESIGN.md §4):
//!
//! * [`scenario`] — full packet-level emulation: real [`OverlayNode`]
//!   state machines over the discrete-event network emulator, with viewer
//!   playback-buffer models. One declarative [`Scenario`] (nodes, links,
//!   viewers, timed faults, a scripted Brain reply) and one `run` cover
//!   the transmission-architecture experiments: fast/slow-path recovery,
//!   pacing and GoP-cache ablations, relay-crash failover and
//!   multi-supplier RTX. The chain also calibrates the per-hop constants
//!   in [`calibrate`].
//! * [`fleet`] — session-granularity simulation of 20 days of Taobao-Live-
//!   like workload over the *real* control plane (Streaming Brain, PIB/SIB,
//!   FIB subscription state with cache-hit backtracking and the long-chain
//!   effect), composing per-session delay/startup/stall metrics from link
//!   state plus the packet-level-calibrated constants. Runs LiveNet and
//!   the Hier baseline side by side on identical sessions, mirroring the
//!   paper's parallel-deployment methodology (§6.1).
//!
//! Every fleet run goes through [`runner`]: [`FleetRunner`] partitions the
//! channel universe into independent shards (DESIGN.md §7; an unsharded
//! run is `shards = 1`) and executes them serially or on a thread pool
//! with bit-identical results.
//!
//! [`OverlayNode`]: livenet_node::OverlayNode

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod calibrate;
pub mod control;
pub mod fleet;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod viewer;
pub mod workload;

pub use adapter::EmuHost;
pub use calibrate::LatencyConstants;
pub use control::{ControlPlane, ReplicationConfig, ReplicationSummary};
pub use fleet::{
    FaultPlanConfig, FleetConfig, FleetConfigBuilder, FleetFault, FleetReport, FleetSim,
    RecoveryRecord, System,
};
pub use metrics::{record_session, DecisionOutcome, SessionRecord, SessionSummary};
pub use runner::{partition_channels, FleetRunner, ShardPlan};
pub use scenario::{
    AutorecOutcome, AutorecRecord, BrainReply, Finished, PacketSimReport, RecoveryMode,
    RecoveryOutcome, Scenario, Viewer,
};
pub use viewer::{PlaybackSim, ViewerQoe};
pub use workload::{diurnal_factor, Channel, WorkloadConfig};
