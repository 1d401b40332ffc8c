//! Fleet-level (session-granularity) simulation of LiveNet and Hier.
//!
//! Runs the paper's 20-day evaluation: both systems process the *same*
//! viewing sessions over the same topology ground truth (mirroring §6.1's
//! parallel deployment on a shared node pool). The control planes are the
//! real ones — [`StreamingBrain`] with its PIB/SIB and overload handling
//! for LiveNet, the VDN-like [`HierController`] for Hier — and the data
//! plane is tracked at subscription granularity: per-(node, stream)
//! presence with reverse-path establishment, cache-hit backtracking and
//! the resulting long-chain effect, exactly as `livenet-node` implements
//! packet-by-packet.
//!
//! Per-session delay/startup/stall metrics are composed from link state
//! plus the packet-level-calibrated constants in [`crate::calibrate`]
//! (DESIGN.md §4 explains the two-fidelity approach).
//!
//! [`StreamingBrain`]: livenet_brain::StreamingBrain

use crate::calibrate::LatencyConstants;
use crate::control::{ControlPlane, ReplicationConfig, ReplicationSummary};
use crate::metrics::{record_session, DecisionOutcome, SessionRecord};
use crate::workload::{SessionSpec, Workload, WorkloadConfig};
use livenet_telemetry::{ids, MetricSink, Snapshot, TelemetryHub};
use livenet_emu::EventQueue;
use livenet_hier::{HierController, HierDelayModel, HierDelayParams, HierRoles};
use livenet_topology::{GeoConfig, GeoTopology, NodeReport, Topology};
use livenet_types::{DetRng, NodeId, SimDuration, SimTime, StreamId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which system a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum System {
    /// The flat, centrally-controlled design.
    LiveNet,
    /// The hierarchical baseline.
    Hier,
}

/// A scripted fleet-level fault (§6.5 failure handling).
///
/// Node identity is expressed structurally — an index into the sorted
/// routable-node list or a country index — so plans are portable across
/// seeds (generated [`NodeId`]s differ per topology).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetFault {
    /// One node goes dark.
    NodeOutage {
        /// Outage start, seconds into the run.
        at_secs: u64,
        /// Outage duration in seconds.
        down_for_secs: u64,
        /// Index into the sorted routable-node list (wraps modulo its
        /// length).
        node_index: usize,
    },
    /// Every node in one country goes dark (the Double-12 region outage).
    RegionOutage {
        /// Outage start, seconds into the run.
        at_secs: u64,
        /// Outage duration in seconds.
        down_for_secs: u64,
        /// Country index.
        country: u32,
    },
    /// The replicated Brain's Paxos leader crashes (§7.1 failover drill).
    /// Requires [`FleetConfig::replication`] to be enabled — a single
    /// in-process Brain has no replica to lose.
    BrainLeaderCrash {
        /// Crash time, seconds into the run.
        at_secs: u64,
        /// Downtime before the replica restarts, in seconds.
        down_for_secs: u64,
    },
}

/// Fault schedule for a fleet run: scripted faults plus a seeded random
/// outage process. The schedule is derived from the workload seed alone
/// (`DetRng` fork `"faults"`), so every shard of a partitioned run agrees
/// on it bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Scripted faults.
    pub scripted: Vec<FleetFault>,
    /// Expected random single-node outages per simulated day (0 = none).
    pub random_outages_per_day: f64,
    /// Duration range (seconds, inclusive-exclusive) of random outages.
    pub random_outage_secs: (u64, u64),
}

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Topology generator settings.
    pub geo: GeoConfig,
    /// Workload settings.
    pub workload: WorkloadConfig,
    /// Calibrated latency constants.
    pub latency: LatencyConstants,
    /// Hier delay-model parameters.
    pub hier: HierDelayParams,
    /// Sessions a node can forward before its load metric reads 1.0.
    pub node_capacity_sessions: f64,
    /// Stream-sessions a link carries before its utilization reads 1.0.
    pub link_capacity_sessions: f64,
    /// Extra capacity provisioned on festival days (§6.5 up-scaling).
    pub festival_upscale: f64,
    /// Realized-path hop count that triggers a quality-driven path switch
    /// (the long-chain mitigation of §4.4).
    pub long_chain_switch_hops: usize,
    /// Fraction of views on a degraded last mile (drives the stall mix).
    pub bad_last_mile_fraction: f64,
    /// Streaming Brain configuration (routing K, hop limit, weight params).
    pub brain: livenet_brain::BrainConfig,
    /// Replicated-Brain deployment: `Some` routes every control-plane
    /// mutation through a Paxos-backed [`crate::ControlPlane`] cluster
    /// (paper §7.1); `None` keeps the single in-process Brain.
    pub replication: Option<ReplicationConfig>,
    /// Shards the workload is partitioned into for [`crate::FleetRunner`]
    /// runs (1 = unsharded). The shard *count* fixes the partition — and
    /// therefore the result bits — independently of how many worker
    /// threads execute it.
    pub shards: usize,
    /// Fault schedule (default: fault-free).
    pub faults: FaultPlanConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            geo: GeoConfig::paper_scale(1),
            workload: WorkloadConfig::default(),
            latency: LatencyConstants::default(),
            hier: HierDelayParams::default(),
            node_capacity_sessions: 20.0,
            link_capacity_sessions: 120.0,
            festival_upscale: 1.5,
            long_chain_switch_hops: 5,
            bad_last_mile_fraction: 0.05,
            brain: livenet_brain::BrainConfig::default(),
            replication: None,
            shards: 1,
            faults: FaultPlanConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Small/fast configuration for tests.
    pub fn smoke(seed: u64) -> Self {
        FleetConfig {
            geo: GeoConfig {
                nodes: 18,
                countries: 5,
                seed,
                ..GeoConfig::paper_scale(seed)
            },
            workload: WorkloadConfig {
                days: 1,
                peak_arrivals_per_sec: 0.5,
                ..WorkloadConfig::smoke(seed)
            },
            ..Default::default()
        }
    }

    /// Start building a validated configuration.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::default(),
        }
    }

    /// Check the configuration for values that would make a run meaningless
    /// or panic mid-simulation (zero capacities, empty topology, ...).
    pub fn validate(&self) -> livenet_types::Result<()> {
        use livenet_types::Error;
        if self.geo.nodes == 0 {
            return Err(Error::invalid_config("geo.nodes must be > 0"));
        }
        if self.geo.countries == 0 {
            return Err(Error::invalid_config("geo.countries must be > 0"));
        }
        if self.geo.nodes < self.geo.countries {
            return Err(Error::invalid_config(format!(
                "geo.nodes ({}) must cover every country ({})",
                self.geo.nodes, self.geo.countries
            )));
        }
        if self.workload.channels == 0 {
            return Err(Error::invalid_config("workload.channels must be > 0"));
        }
        if self.workload.days == 0 {
            return Err(Error::invalid_config("workload.days must be > 0"));
        }
        if self.workload.peak_arrivals_per_sec <= 0.0 {
            return Err(Error::invalid_config(
                "workload.peak_arrivals_per_sec must be > 0",
            ));
        }
        if self.workload.zipf_s <= 0.0 {
            return Err(Error::invalid_config("workload.zipf_s must be > 0"));
        }
        if self.node_capacity_sessions <= 0.0 {
            return Err(Error::invalid_config("node_capacity_sessions must be > 0"));
        }
        if self.link_capacity_sessions <= 0.0 {
            return Err(Error::invalid_config("link_capacity_sessions must be > 0"));
        }
        if self.long_chain_switch_hops == 0 {
            return Err(Error::invalid_config("long_chain_switch_hops must be > 0"));
        }
        if !(0.0..=1.0).contains(&self.bad_last_mile_fraction) {
            return Err(Error::invalid_config(
                "bad_last_mile_fraction must be in [0, 1]",
            ));
        }
        if self.brain.routing.k == 0 {
            return Err(Error::invalid_config("brain.routing.k must be > 0"));
        }
        if self.brain.routing.max_hops == 0 {
            return Err(Error::invalid_config("brain.routing.max_hops must be > 0"));
        }
        if self.shards == 0 {
            return Err(Error::invalid_config("shards must be > 0"));
        }
        if self.shards > self.workload.channels {
            return Err(Error::invalid_config(format!(
                "shards ({}) cannot exceed channels ({})",
                self.shards, self.workload.channels
            )));
        }
        if !self.faults.random_outages_per_day.is_finite()
            || self.faults.random_outages_per_day < 0.0
        {
            return Err(Error::invalid_config(
                "faults.random_outages_per_day must be finite and >= 0",
            ));
        }
        if self.faults.random_outages_per_day > 0.0
            && self.faults.random_outage_secs.0 >= self.faults.random_outage_secs.1
        {
            return Err(Error::invalid_config(
                "faults.random_outage_secs must be a non-empty (lo, hi) range",
            ));
        }
        if let Some(r) = &self.replication {
            r.validate()?;
        }
        for f in &self.faults.scripted {
            match f {
                FleetFault::RegionOutage { country, .. } => {
                    if *country >= self.geo.countries {
                        return Err(Error::invalid_config(format!(
                            "scripted region outage names country {country}, but only {} exist",
                            self.geo.countries
                        )));
                    }
                }
                FleetFault::BrainLeaderCrash { .. } => {
                    if self.replication.is_none() {
                        return Err(Error::invalid_config(
                            "BrainLeaderCrash requires replication to be enabled",
                        ));
                    }
                }
                FleetFault::NodeOutage { .. } => {}
            }
        }
        Ok(())
    }
}

/// Validated builder for [`FleetConfig`].
///
/// Start from a named preset ([`smoke`](Self::smoke) /
/// [`paper_scale`](Self::paper_scale)) or [`FleetConfig::builder`]
/// (paper-scale defaults), adjust the common knobs with setters (anything
/// else through [`tweak`](Self::tweak)), and finish with
/// [`build`](Self::build), which rejects invalid configurations with
/// [`livenet_types::Error::InvalidConfig`] instead of letting a run panic
/// halfway through a 20-day simulation.
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// The small/fast test preset, pre-sharded for parallel runs.
    pub fn smoke(seed: u64) -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig {
                shards: 8,
                ..FleetConfig::smoke(seed)
            },
        }
    }

    /// Continue building (and re-validate) from an existing configuration.
    pub fn from_config(config: FleetConfig) -> FleetConfigBuilder {
        FleetConfigBuilder { config }
    }

    /// The paper-scale evaluation preset (60 nodes, 200 channels, 20
    /// days), pre-sharded for parallel runs.
    pub fn paper_scale(seed: u64) -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig {
                geo: GeoConfig::paper_scale(seed),
                workload: WorkloadConfig {
                    seed,
                    ..WorkloadConfig::default()
                },
                shards: 8,
                ..FleetConfig::default()
            },
        }
    }

    /// The ≥1M-session stress preset: paper-scale geography, a doubled
    /// channel universe, 12 arrivals/s at peak, and a two-day window with
    /// a Double-12-style surge (2× demand) on day 1. Capacities are
    /// scaled with the arrival rate so utilization — and therefore
    /// routing and queueing behavior — stays in the paper-scale regime.
    pub fn mega_scale(seed: u64) -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig {
                geo: GeoConfig::paper_scale(seed),
                workload: WorkloadConfig {
                    seed,
                    channels: 400,
                    peak_arrivals_per_sec: 12.0,
                    days: 2,
                    festival_days: vec![1],
                    festival_factor: 2.0,
                    ..WorkloadConfig::default()
                },
                // 12/s vs the paper preset's 1.6/s → 7.5× the capacity.
                node_capacity_sessions: 150.0,
                link_capacity_sessions: 900.0,
                shards: 8,
                ..FleetConfig::default()
            },
        }
    }

    /// Set both RNG seeds (topology and workload).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.geo.seed = seed;
        self.config.workload.seed = seed;
        self
    }

    /// Simulated days.
    pub fn days(mut self, days: u32) -> Self {
        self.config.workload.days = days;
        self
    }

    /// Broadcaster channel count.
    pub fn channels(mut self, channels: usize) -> Self {
        self.config.workload.channels = channels;
        self
    }

    /// Fleet-wide peak viewer arrival rate (per second).
    pub fn peak_arrivals_per_sec(mut self, rate: f64) -> Self {
        self.config.workload.peak_arrivals_per_sec = rate;
        self
    }

    /// Festival schedule: boosted-demand days and the demand multiplier.
    pub fn festival(mut self, days: Vec<u32>, factor: f64) -> Self {
        self.config.workload.festival_days = days;
        self.config.workload.festival_factor = factor;
        self
    }

    /// CDN node count.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.config.geo.nodes = nodes;
        self
    }

    /// Country count.
    pub fn countries(mut self, countries: u32) -> Self {
        self.config.geo.countries = countries;
        self
    }

    /// Shard count for partitioned [`crate::FleetRunner`] runs.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Deploy the Brain as a Paxos-replicated cluster (paper §7.1).
    pub fn replication(mut self, replication: ReplicationConfig) -> Self {
        self.config.replication = Some(replication);
        self
    }

    /// Script a fleet-level fault.
    pub fn fault(mut self, fault: FleetFault) -> Self {
        self.config.faults.scripted.push(fault);
        self
    }

    /// Seeded random node outages: expected count per day and the outage
    /// duration range in seconds.
    pub fn random_faults(mut self, per_day: f64, secs: (u64, u64)) -> Self {
        self.config.faults.random_outages_per_day = per_day;
        self.config.faults.random_outage_secs = secs;
        self
    }

    /// Escape hatch for fields without a dedicated setter.
    pub fn tweak(mut self, f: impl FnOnce(&mut FleetConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> livenet_types::Result<FleetConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Per-(node, stream) LiveNet forwarding state.
///
/// All nodes on one establishment chain share a single path allocation:
/// each presence stores the chain's `Arc` buffer plus its own prefix
/// length. Cloning a presence's realized path is a refcount bump, not a
/// `Vec` copy — the per-session path clones used to dominate the fleet
/// hot loop.
#[derive(Debug, Clone)]
struct Presence {
    upstream: Option<NodeId>,
    /// Shared chain buffer (producer → chain tail).
    path: Arc<[NodeId]>,
    /// This node's realized path is `path[..len]`.
    len: u32,
    /// Direct downstream subscribers (nodes + viewers).
    downstreams: u32,
}

impl Presence {
    /// Realized path from producer to this node (inclusive).
    fn realized(&self) -> &[NodeId] {
        &self.path[..self.len as usize]
    }
}

/// A zero-hop presence for `node` (producers carry their own stream).
fn zero_hop(node: NodeId) -> Presence {
    Presence {
        upstream: None,
        path: Arc::from(vec![node]),
        len: 1,
        downstreams: 0,
    }
}

/// An active viewing session.
#[derive(Debug, Clone)]
struct Active {
    consumer: NodeId,
    stream: StreamId,
    channel: usize,
    hier_path: Vec<NodeId>,
}

/// A fault resolved against the generated topology: who goes dark, when.
#[derive(Debug, Clone)]
struct ResolvedFault {
    start: SimTime,
    end: SimTime,
    nodes: Vec<NodeId>,
    /// Crash the replicated Brain's leader instead of data-plane nodes.
    brain_crash: bool,
}

enum Ev {
    Departure(u64),
    StreamStart(usize),
    StreamEnd(usize),
    MinuteTick,
    FaultStart(usize),
    FaultEnd(usize),
}

/// One session's failover during a fault, as the §6.5 logs would record it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Fault time.
    pub at: SimTime,
    /// Day index.
    pub day: u32,
    /// Fast path: a cached/prefetched alternate was available (LiveNet
    /// only; Hier records are always slow).
    pub fast: bool,
    /// Upstream-silence detection latency.
    pub detect_ms: f32,
    /// Detection → playback restored.
    pub recover_ms: f32,
    /// Frames lost to the failover window (15 fps nominal).
    pub frames_lost: u32,
}

/// Aggregate outputs of one fleet run.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Per-session records, LiveNet.
    pub livenet: Vec<SessionRecord>,
    /// Per-session records, Hier (same sessions, same order).
    pub hier: Vec<SessionRecord>,
    /// Mean link loss (fraction) per absolute hour — Fig. 13 input.
    pub hourly_loss: Vec<f64>,
    /// Peak concurrent-session throughput per day (bits/s) — Fig. 14.
    pub daily_peak_throughput: Vec<f64>,
    /// Unique realized LiveNet paths per day — §6.5's +20 % observation.
    pub daily_unique_paths: Vec<usize>,
    /// Sessions skipped because the channel was offline.
    pub skipped_offline: u64,
    /// Long-chain path switches performed.
    pub chain_switches: u64,
    /// Brain PIB recompute rounds executed.
    pub recompute_rounds: u64,
    /// Per-session failovers under injected faults, LiveNet.
    pub recoveries_livenet: Vec<RecoveryRecord>,
    /// Per-session failovers under injected faults, Hier.
    pub recoveries_hier: Vec<RecoveryRecord>,
    /// Fault episodes that fired within the horizon.
    pub faults_injected: u64,
    /// Broadcasters rehomed off dead ingest nodes.
    pub producers_rehomed: u64,
    /// Merged telemetry snapshot (counters, gauges, latency histograms)
    /// from the run's [`TelemetryHub`] — `fleet.*`, `stage.*`, `brain.*`.
    pub telemetry: Snapshot,
    /// Replicated-control-plane summary (`None` when the run used the
    /// single in-process Brain). Sharded runs sum the per-shard clusters.
    pub replication: Option<ReplicationSummary>,
}

impl FleetReport {
    /// Bit-exact equality, the determinism contract of
    /// [`crate::FleetRunner`]: every float is compared through its bit
    /// pattern (so identical NaNs in `hourly_loss` compare equal, and no
    /// epsilon can paper over a divergent run).
    pub fn bit_identical(&self, other: &FleetReport) -> bool {
        fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
            v.iter().map(|x| x.to_bits())
        }
        self.livenet == other.livenet
            && self.hier == other.hier
            && self.hourly_loss.len() == other.hourly_loss.len()
            && bits(&self.hourly_loss).eq(bits(&other.hourly_loss))
            && self.daily_peak_throughput.len() == other.daily_peak_throughput.len()
            && bits(&self.daily_peak_throughput).eq(bits(&other.daily_peak_throughput))
            && self.daily_unique_paths == other.daily_unique_paths
            && self.skipped_offline == other.skipped_offline
            && self.chain_switches == other.chain_switches
            && self.recompute_rounds == other.recompute_rounds
            && self.recoveries_livenet == other.recoveries_livenet
            && self.recoveries_hier == other.recoveries_hier
            && self.faults_injected == other.faults_injected
            && self.producers_rehomed == other.producers_rehomed
            && self.telemetry.bit_identical(&other.telemetry)
            && match (&self.replication, &other.replication) {
                (None, None) => true,
                (Some(a), Some(b)) => a.bit_identical(b),
                _ => false,
            }
    }

    /// 64-bit FNV-1a fingerprint of the sample path: every session record
    /// (in its `Debug` form, where floats round-trip bit for bit),
    /// `recompute_rounds`, `chain_switches`, the telemetry JSON and the
    /// replication summary. Golden tests pin it across commits.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        write!(
            h,
            "{:?}{:?}{} {} {}{:?}",
            self.livenet,
            self.hier,
            self.recompute_rounds,
            self.chain_switches,
            self.telemetry.to_json(),
            self.replication
        )
        .expect("hashing never fails");
        h.0
    }
}

/// Output of one shard's run: the report plus the per-day realized-path
/// hash sets, which the merge needs to union (`daily_unique_paths` is a
/// set cardinality, so per-shard counts cannot simply be summed).
pub(crate) struct ShardOutput {
    pub(crate) report: FleetReport,
    pub(crate) day_path_sets: Vec<HashSet<u64>>,
}

/// The fleet simulator.
pub struct FleetSim {
    config: FleetConfig,
    topology: Topology, // ground truth (shared by both systems)
    edges_by_country: Vec<Vec<NodeId>>,
    brain: ControlPlane,
    hier: HierController,
    hier_delay: HierDelayModel,
    workload: Workload,
    rng: DetRng,
    // LiveNet data-plane state.
    presence: HashMap<(NodeId, StreamId), Presence>,
    // Hier data-plane state: refcounts per (node, stream) (GoP caches).
    hier_presence: HashMap<(NodeId, StreamId), u32>,
    // Incremental per-node sum of `hier_presence` refcounts, so center
    // queueing is O(1) per arrival instead of a full presence scan.
    // Integer-valued, hence exact and order-independent.
    hier_node_load: HashMap<NodeId, i64>,
    // Loads.
    node_fanout: HashMap<NodeId, f64>,
    link_sessions: HashMap<(NodeId, NodeId), f64>,
    // Channel schedule: per channel, sorted (start, end) live blocks.
    live_blocks: Vec<Vec<(SimTime, SimTime)>>,
    producers: Vec<NodeId>, // per channel
    // Fault schedule, identical on every shard (seeded from the workload
    // seed alone).
    faults: Vec<ResolvedFault>,
    // The channels of this shard's plan (all of them when `shards = 1`).
    scheduled: Vec<bool>,
    queue: EventQueue<Ev>,
    // Ordered so fault handling iterates sessions in id order for free
    // (it used to collect-and-sort the whole id set per activation).
    active: BTreeMap<u64, Active>,
    next_session_id: u64,
    report: FleetReport,
    // Scratch aggregation.
    hour_loss_sum: f64,
    hour_loss_n: u64,
    current_hour: u64,
    day_paths: HashSet<u64>,
    day_path_log: Vec<HashSet<u64>>,
    current_day: u32,
    day_peak_bps: f64,
    bitrate_bps: f64,
    // Run-scoped metric hub; snapshotted into the report at the end.
    telemetry: TelemetryHub,
}

impl FleetSim {
    /// Build the simulator for one shard of a partitioned run; an
    /// unsharded run is the one plan of `shards = 1`.
    ///
    /// All shards generate the same topology, channels, live schedule and
    /// faults from shared RNG streams. A shard then draws arrivals for its
    /// channels at its Zipf mass share of the fleet rate and session noise
    /// from `split(index)`, and scales capacities by that share. The
    /// control plane's seed depends only on (workload seed, shard index),
    /// so serial and parallel runs agree bit for bit.
    pub fn new_shard(mut config: FleetConfig, plan: &crate::runner::ShardPlan) -> FleetSim {
        let geo = GeoTopology::generate(&config.geo);
        let topology = geo.topology.clone();
        let countries = config.geo.countries;
        let mut edges_by_country: Vec<Vec<NodeId>> = vec![Vec::new(); countries as usize];
        for n in topology.nodes() {
            if !n.last_resort && !n.well_peered {
                edges_by_country[n.country as usize].push(n.id);
            }
        }
        // Countries whose only nodes are hubs still need an edge pick.
        for (c, v) in edges_by_country.iter_mut().enumerate() {
            if v.is_empty() {
                v.extend(
                    topology
                        .nodes()
                        .filter(|n| n.country == c as u32 && !n.last_resort)
                        .map(|n| n.id),
                );
            }
        }

        let index = plan.index as u64;
        let brain = ControlPlane::new(
            &topology,
            &config.brain,
            config.replication.as_ref(),
            config
                .workload
                .seed
                .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let roles = HierRoles::assign(&topology, 2);
        let hier = HierController::new(roles);
        let workload = Workload::for_shard(
            config.workload.clone(),
            countries,
            &plan.channels,
            plan.mass_share,
            index,
        );
        let mut rng = DetRng::seed(config.workload.seed).fork("fleet");

        // Channel producers: a stable edge node in the channel's country.
        let producers: Vec<NodeId> = workload
            .channels
            .iter()
            .map(|ch| {
                let edges = &edges_by_country[ch.country as usize];
                edges[(ch.rank * 7 + 3) % edges.len()]
            })
            .collect();

        // Live schedule per channel: alternating live (mean 3 h) and off
        // (mean 40 min) periods — "live streams come and go often" (§3).
        let horizon = workload.horizon();
        let live_blocks: Vec<Vec<(SimTime, SimTime)>> = (0..workload.channels.len())
            .map(|_| {
                let mut blocks = Vec::new();
                let mut t = SimTime::from_secs(rng.range_u64(0, 1800));
                while t < horizon {
                    let live = SimDuration::from_secs_f64(
                        rng.exp(3.0 * 3600.0).clamp(600.0, 12.0 * 3600.0),
                    );
                    // Clamp to the horizon so every StreamEnd is processed.
                    let end = (t + live).max(t + SimDuration::from_secs(60)).min(horizon);
                    blocks.push((t, end));
                    let off =
                        SimDuration::from_secs_f64(rng.exp(2400.0).clamp(120.0, 3.0 * 3600.0));
                    t = end + off;
                }
                blocks
            })
            .collect();
        let rng = rng.split(index);

        // Fault schedule: scripted entries plus the seeded random outage
        // process. Uses its own RNG stream (fork "faults") so the schedule
        // never perturbs — and is never perturbed by — traffic randomness,
        // and every shard derives the identical list.
        let routable: Vec<NodeId> = topology.routable_node_ids().collect();
        let mut faults: Vec<ResolvedFault> = Vec::new();
        for f in &config.faults.scripted {
            let (at, dur, nodes, brain_crash) = match *f {
                FleetFault::NodeOutage {
                    at_secs,
                    down_for_secs,
                    node_index,
                } => (
                    at_secs,
                    down_for_secs,
                    vec![routable[node_index % routable.len()]],
                    false,
                ),
                FleetFault::RegionOutage {
                    at_secs,
                    down_for_secs,
                    country,
                } => (
                    at_secs,
                    down_for_secs,
                    topology.nodes_in_country(country).collect(),
                    false,
                ),
                FleetFault::BrainLeaderCrash {
                    at_secs,
                    down_for_secs,
                } => (at_secs, down_for_secs, Vec::new(), true),
            };
            faults.push(ResolvedFault {
                start: SimTime::from_secs(at),
                end: SimTime::from_secs(at + dur.max(1)),
                nodes,
                brain_crash,
            });
        }
        if config.faults.random_outages_per_day > 0.0 {
            let mut frng = DetRng::seed(config.workload.seed).fork("faults");
            let per_day = config.faults.random_outages_per_day;
            let (lo, hi) = config.faults.random_outage_secs;
            for day in 0..u64::from(config.workload.days) {
                // floor(λ) outages plus one more with probability frac(λ):
                // a fixed-length draw sequence, unlike Poisson sampling.
                let mut n = per_day as u64;
                if frng.chance(per_day.fract()) {
                    n += 1;
                }
                for _ in 0..n {
                    let node = routable[frng.range_u64(0, routable.len() as u64) as usize];
                    let at = day * 86_400 + frng.range_u64(0, 86_400);
                    let dur = frng.range_u64(lo, hi);
                    faults.push(ResolvedFault {
                        start: SimTime::from_secs(at),
                        end: SimTime::from_secs(at + dur.max(1)),
                        nodes: vec![node],
                        brain_crash: false,
                    });
                }
            }
        }
        faults.retain(|f| f.start < horizon);
        for f in &mut faults {
            f.end = f.end.min(horizon);
        }
        faults.sort_by_key(|f| (f.start, f.end));

        let mut scheduled = vec![false; workload.channels.len()];
        for &c in &plan.channels {
            scheduled[c] = true;
        }
        let share = plan.mass_share.max(1e-9);
        config.node_capacity_sessions *= share;
        config.link_capacity_sessions *= share;
        FleetSim {
            bitrate_bps: 2_500_000.0,
            config,
            topology,
            edges_by_country,
            brain,
            hier,
            hier_delay: HierDelayModel::default(),
            workload,
            rng,
            presence: HashMap::new(),
            hier_presence: HashMap::new(),
            hier_node_load: HashMap::new(),
            node_fanout: HashMap::new(),
            link_sessions: HashMap::new(),
            live_blocks,
            producers,
            faults,
            scheduled,
            queue: EventQueue::new(),
            active: BTreeMap::new(),
            next_session_id: 0,
            report: FleetReport::default(),
            hour_loss_sum: 0.0,
            hour_loss_n: 0,
            current_hour: 0,
            day_paths: HashSet::new(),
            day_path_log: Vec::new(),
            current_day: 0,
            day_peak_bps: 0.0,
            telemetry: TelemetryHub::new(),
        }
    }

    /// Run the whole configured period and return the report.
    pub fn run(self) -> FleetReport {
        self.run_collect().report
    }

    /// Run and keep the shard-merge bookkeeping alongside the report.
    pub(crate) fn run_collect(mut self) -> ShardOutput {
        self.seed_events();
        self.drive();
        self.flush_hour();
        self.flush_day();
        // The trailing flush can emit a phantom partial day/hour at the
        // horizon boundary; clamp to the configured window.
        let days = self.config.workload.days as usize;
        self.report.daily_peak_throughput.truncate(days);
        self.report.daily_unique_paths.truncate(days);
        self.report.hourly_loss.truncate(days * 24);
        self.day_path_log.truncate(days);
        // Settle and audit the replicated control plane (no-op in single
        // mode) BEFORE the telemetry export so the exported counters cover
        // the post-settle cluster state.
        self.report.replication = self.brain.finalize(self.workload.horizon());
        self.report.recompute_rounds = self.brain.recompute_rounds();
        self.brain.record_telemetry(&mut self.telemetry);
        self.report.telemetry = self.telemetry.snapshot();
        ShardOutput {
            report: self.report,
            day_path_sets: self.day_path_log,
        }
    }

    /// Seed the event queue (stream schedule, minute tick, faults) and
    /// pre-size every per-session buffer from the workload's expected
    /// volume, so the hot loop never grows a `Vec` mid-run.
    fn seed_events(&mut self) {
        self.hier_delay = HierDelayModel::new(self.config.hier);
        // Stream start/end events for the channels this instance owns —
        // scheduled by reference; the schedule itself is immutable for the
        // whole run (asserted in `drive`).
        for (ch, blocks) in self.live_blocks.iter().enumerate() {
            if !self.scheduled[ch] {
                continue;
            }
            for &(start, end) in blocks {
                self.queue.schedule(start, Ev::StreamStart(ch));
                self.queue.schedule(end, Ev::StreamEnd(ch));
            }
        }
        self.queue.schedule(SimTime::from_secs(60), Ev::MinuteTick);
        for (i, f) in self.faults.iter().enumerate() {
            self.queue.schedule(f.start, Ev::FaultStart(i));
            self.queue.schedule(f.end, Ev::FaultEnd(i));
        }
        let expect = self.workload.expected_sessions();
        // Headroom over the Poisson mean so the tail almost never spills.
        let cap = expect + expect / 8 + 64;
        self.report.livenet.reserve(cap);
        self.report.hier.reserve(cap);
        let days = self.config.workload.days as usize;
        self.report.hourly_loss.reserve(days * 24 + 2);
        self.report.daily_peak_throughput.reserve(days + 2);
        self.report.daily_unique_paths.reserve(days + 2);
        self.day_path_log.reserve(days + 2);
    }

    /// Drive the event loop to the horizon.
    ///
    /// Arrivals bypass the event queue entirely: the workload generator
    /// already emits a time-sorted stream, so pushing every session
    /// through the binary heap cost two O(log n) operations for nothing.
    /// The next arrival is held in a register and interleaved with queue
    /// events by timestamp (arrival first on the measure-zero exact tie,
    /// consistently in both serial and parallel execution).
    fn drive(&mut self) {
        #[cfg(debug_assertions)]
        let schedule_fingerprint = {
            let mut h = DefaultHasher::new();
            self.live_blocks.hash(&mut h);
            h.finish()
        };
        let horizon = self.workload.horizon();
        let mut next_arrival = self.workload.next_session();
        loop {
            let take_arrival = match (&next_arrival, self.queue.peek_time()) {
                (Some(a), Some(t)) => a.at <= t,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_arrival {
                let spec = next_arrival.take().expect("checked above");
                self.queue.advance_to(spec.at);
                next_arrival = self.workload.next_session();
                self.on_arrival(spec.at, spec);
                continue;
            }
            let Some((now, ev)) = self.queue.pop_until(horizon) else {
                break;
            };
            match ev {
                Ev::Departure(id) => self.on_departure(now, id),
                Ev::StreamStart(ch) => self.on_stream_start(now, ch),
                Ev::StreamEnd(ch) => self.on_stream_end(now, ch),
                Ev::MinuteTick => {
                    self.on_minute(now);
                    self.queue
                        .schedule(now + SimDuration::from_secs(60), Ev::MinuteTick);
                }
                Ev::FaultStart(i) => self.on_fault_start(now, i),
                Ev::FaultEnd(i) => self.on_fault_end(now, i),
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut h = DefaultHasher::new();
            self.live_blocks.hash(&mut h);
            debug_assert_eq!(
                schedule_fingerprint,
                h.finish(),
                "live-block schedule mutated mid-run"
            );
        }
    }

    // ------------------------------------------------------------------
    // Stream lifecycle
    // ------------------------------------------------------------------

    fn on_stream_start(&mut self, now: SimTime, ch: usize) {
        let stream = self.workload.channels[ch].stream;
        // A broadcaster cannot push to a dark ingest node; it lands on
        // another edge in its country (sticky — kept after the outage).
        if !self.topology.node_is_up(self.producers[ch]) {
            let country = self.workload.channels[ch].country;
            if let Some(&alt) = self.edges_by_country[country as usize]
                .iter()
                .find(|&&e| self.topology.node_is_up(e))
            {
                self.producers[ch] = alt;
                self.report.producers_rehomed += 1;
            }
        }
        let producer = self.producers[ch];
        self.brain.register_stream(stream, producer, now);
        if self.workload.channels[ch].popular {
            self.brain.mark_popular(stream, now);
        }
        let _ = self.hier.register_stream(&self.topology, stream, producer);
        // The producer itself carries the stream (zero-hop presence).
        self.presence
            .entry((producer, stream))
            .or_insert_with(|| zero_hop(producer));
        *self.hier_presence.entry((producer, stream)).or_insert(0) += 1;
        *self.hier_node_load.entry(producer).or_insert(0) += 1;
    }

    fn on_stream_end(&mut self, now: SimTime, ch: usize) {
        let stream = self.workload.channels[ch].stream;
        self.brain.unregister_stream(stream, now);
        self.hier.unregister_stream(stream);
        // Sessions were truncated to the block end, so refcounts should be
        // drained; sweep any leftovers (e.g. the producer's own entry).
        self.presence.retain(|&(_, s), _| s != stream);
        let load = &mut self.hier_node_load;
        self.hier_presence.retain(|&(n, s), c| {
            if s != stream {
                return true;
            }
            if let Some(l) = load.get_mut(&n) {
                *l -= i64::from(*c);
            }
            false
        });
    }

    fn channel_live_until(&self, ch: usize, now: SimTime) -> Option<SimTime> {
        // Blocks are sorted and disjoint; binary-search the last block
        // starting at or before `now` instead of scanning the whole
        // schedule per arrival.
        let blocks = &self.live_blocks[ch];
        let i = blocks.partition_point(|&(s, _)| s <= now);
        if i == 0 {
            return None;
        }
        let (_, end) = blocks[i - 1];
        (now < end).then_some(end)
    }

    // ------------------------------------------------------------------
    // Session arrival / departure
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, now: SimTime, spec: SessionSpec) {
        let Some(live_until) = self.channel_live_until(spec.channel, now) else {
            self.report.skipped_offline += 1;
            self.telemetry.incr(ids::FLEET_RACED_OFFLINE);
            return;
        };
        let stream = self.workload.channels[spec.channel].stream;
        let producer = self.producers[spec.channel];
        let Some(mut consumer) = self
            .workload
            .pick_edge(&self.edges_by_country, spec.viewer_country)
        else {
            return;
        };
        // Producers are mapped to ingest-optimized clusters; a viewer lands
        // on the broadcaster's own node only rarely (the paper's 0.13 %
        // len-0 share). At our ~10× reduced node count a uniform pick
        // would collide far too often, so re-draw unless a rare collision
        // is sampled (DESIGN.md §1 notes this substitution).
        if consumer == producer && !self.rng.chance(0.005) {
            for _ in 0..8 {
                if consumer != producer {
                    break;
                }
                if let Some(c) = self
                    .workload
                    .pick_edge(&self.edges_by_country, spec.viewer_country)
                {
                    consumer = c;
                }
            }
            if consumer == producer {
                // Country with a single edge: accept the zero-hop session.
            }
        }
        // A dark edge (node outage) cannot serve; the client retries the
        // next edge in its country or gives up. Consumes no RNG, so
        // fault-free runs are bit-identical to the pre-fault behavior.
        if !self.topology.node_is_up(consumer) {
            match self.edges_by_country[spec.viewer_country as usize]
                .iter()
                .find(|&&e| self.topology.node_is_up(e))
            {
                Some(&alt) => consumer = alt,
                None => {
                    self.report.skipped_offline += 1;
                    self.telemetry.incr(ids::FLEET_RACED_OFFLINE);
                    return;
                }
            }
        }
        let international = self
            .topology
            .is_international(producer, consumer)
            .unwrap_or(false);

        // Shared client-side conditions (identical for both systems —
        // the paired-methodology trick that gives Fig. 8a its clean gap).
        // Last-mile LATENCY (distance to the nearest edge) and last-mile
        // BANDWIDTH (access technology) are drawn independently: remote
        // viewers have high streaming delay but can still start fast,
        // which is exactly the Fig. 9 GoP-cache observation.
        let bad_last_mile = self.rng.chance(self.config.bad_last_mile_fraction);
        let awful_last_mile = bad_last_mile && self.rng.chance(0.12);
        let downlink_mbps = if bad_last_mile {
            self.rng.log_normal(-0.1, 0.7) // ~0.9 Mbps median, heavy tail
        } else {
            self.rng.log_normal(2.1, 0.75) // ~8 Mbps median, slow tail
        };
        let last_mile_ms = self.config.latency.last_mile_ms * self.rng.log_normal(0.0, 0.6);
        let buffer_fill_ms = self.config.latency.player_buffer_ms * (self.bitrate_bps / 1e6)
            / downlink_mbps.max(0.3);
        let duration = spec.duration.min(live_until.saturating_since(now));
        let view_minutes = duration.as_secs_f64() / 60.0;

        // ---------------- LiveNet ----------------
        let (shared, plen, outcome, first_packet_ms) =
            self.livenet_attach(now, consumer, stream, spec.channel);
        let path = &shared[..plen as usize];
        let path_loss: f64 = path
            .windows(2)
            .map(|w| self.topology.link(w[0], w[1]).map(|l| l.loss).unwrap_or(0.0))
            .sum();
        let cdn_ms = self.livenet_cdn_delay(path);
        let streaming_ms = cdn_ms
            + self.config.latency.first_mile_ms * self.rng.log_normal(0.0, 0.25)
            + last_mile_ms
            + self.config.latency.player_buffer_ms
            + 130.0; // encode + decode
        // Startup sees one-way last-mile latency; playback delay sees the
        // full round trip plus de-jitter margin.
        let startup_ms = first_packet_ms + 0.5 * last_mile_ms + buffer_fill_ms;
        // Stall mix: a degraded last mile dominates; CDN-induced stalls
        // scale with residual loss after per-hop recovery.
        let lambda_ln = if awful_last_mile {
            2.3
        } else if bad_last_mile {
            0.45
        } else {
            0.0035
        } + path_loss * 0.05 * view_minutes.min(30.0);
        let stalls_ln = self.poisson(lambda_ln);
        let hour = (now.as_secs_f64() / 3600.0) as u64;
        let ln_record = SessionRecord {
            start: now,
            day: (hour / 24) as u32,
            hour: (hour % 24) as u32,
            path_len: (path.len().saturating_sub(1)) as u8,
            international,
            cdn_delay_ms: cdn_ms as f32,
            streaming_delay_ms: streaming_ms as f32,
            first_packet_ms: first_packet_ms as f32,
            startup_ms: startup_ms as f32,
            stalls: stalls_ln,
            outcome,
        };
        record_session(&mut self.telemetry, &ln_record);
        self.report.livenet.push(ln_record);
        // Unique-path bookkeeping.
        let mut h = DefaultHasher::new();
        path.hash(&mut h);
        self.day_paths.insert(h.finish());

        // ---------------- Hier ----------------
        let (hier_path, hier_hit, hier_first_packet) =
            self.hier_attach(now, consumer, stream);
        let hier_cdn_ms = if hier_path.len() >= 2 {
            let base = self
                .hier_delay
                .cdn_path_delay_nodes(&self.topology, &hier_path)
                .map(|d| d.as_millis_f64())
                .unwrap_or(450.0);
            // Center queueing under load (the §2.3 hot-spot effect).
            base + self.center_queueing_ms(&hier_path)
        } else {
            450.0
        };
        let hier_streaming_ms = hier_cdn_ms
            + self.config.latency.first_mile_ms * self.rng.log_normal(0.0, 0.25)
            + last_mile_ms
            + self.config.latency.player_buffer_ms
            + 130.0;
        // RTMP-over-TCP startup ramps through slow start from the cache
        // tier, unlike LiveNet's paced UDP GoP burst.
        let hier_startup_ms = hier_first_packet + 0.5 * last_mile_ms + buffer_fill_ms * 2.0;
        let hier_path_loss: f64 = hier_path
            .windows(2)
            .map(|w| self.topology.link(w[0], w[1]).map(|l| l.loss).unwrap_or(0.0))
            .sum();
        // TCP in-order delivery turns loss into visible stalls.
        let lambda_h = if awful_last_mile {
            4.0
        } else if bad_last_mile {
            0.95
        } else {
            0.014
        } + hier_path_loss * 2.6 * view_minutes.min(30.0);
        let stalls_h = self.poisson(lambda_h);
        self.report.hier.push(SessionRecord {
            start: now,
            day: (hour / 24) as u32,
            hour: (hour % 24) as u32,
            path_len: (hier_path.len().saturating_sub(1)) as u8,
            international,
            cdn_delay_ms: hier_cdn_ms as f32,
            streaming_delay_ms: hier_streaming_ms as f32,
            first_packet_ms: hier_first_packet as f32,
            startup_ms: hier_startup_ms as f32,
            stalls: stalls_h,
            outcome: if hier_hit {
                DecisionOutcome::LocalHit
            } else {
                DecisionOutcome::Prefetched
            },
        });

        // Register the active session and schedule departure.
        let id = self.next_session_id;
        self.next_session_id += 1;
        self.active.insert(
            id,
            Active {
                consumer,
                stream,
                channel: spec.channel,
                hier_path,
            },
        );
        self.queue.schedule(now + duration, Ev::Departure(id));
    }

    fn on_departure(&mut self, _now: SimTime, id: u64) {
        let Some(session) = self.active.remove(&id) else {
            return;
        };
        self.livenet_detach(session.consumer, session.stream);
        for &n in &session.hier_path {
            if let Some(c) = self.hier_presence.get_mut(&(n, session.stream)) {
                *c = c.saturating_sub(1);
                if let Some(l) = self.hier_node_load.get_mut(&n) {
                    *l -= 1;
                }
                if *c == 0 {
                    self.hier_presence.remove(&(n, session.stream));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // LiveNet attachment (the §4.4 establishment protocol, session level)
    // ------------------------------------------------------------------

    /// Returns `(chain_buffer, realized_len, decision_outcome,
    /// first_packet_ms)` — the session's realized path is
    /// `chain_buffer[..realized_len]`, a view into the chain's shared
    /// allocation (no per-session copy).
    fn livenet_attach(
        &mut self,
        now: SimTime,
        consumer: NodeId,
        stream: StreamId,
        channel: usize,
    ) -> (Arc<[NodeId]>, u32, DecisionOutcome, f64) {
        // Local hit: the consumer already forwards this stream.
        if let Some(p) = self.presence.get_mut(&(consumer, stream)) {
            p.downstreams += 1;
            let (buf, len) = (p.path.clone(), p.len);
            let first_packet =
                self.config.latency.local_serve_ms * self.rng.log_normal(0.0, 0.4);
            return (buf, len, DecisionOutcome::LocalHit, first_packet);
        }

        // Path lookup. Popular broadcasters' paths are prefetched to all
        // nodes (§4.4), so no Brain round trip is charged for them.
        let popular = self.workload.channels[channel].popular;
        let lookup = self.brain.path_request(stream, consumer, now, popular);
        let Ok((lookup, measured_ms)) = lookup else {
            // Stream raced offline; serve degenerate zero-hop with no
            // Brain round trip charged (same as a prefetched path).
            return (
                Arc::from(vec![consumer]),
                1,
                DecisionOutcome::Prefetched,
                400.0,
            );
        };
        let brain_ms = if popular {
            None
        } else {
            // Exactly one RNG draw on this arm in both control-plane
            // modes, so enabling replication never shifts the session
            // noise stream.
            match measured_ms {
                // Replicated Brain: the cluster measured the leader-read
                // wait (lease waits, redirects, retries) in virtual time;
                // add the hash-lookup service jitter on top.
                Some(ms) => {
                    Some(ms + self.config.latency.brain_lookup_ms * self.rng.log_normal(0.0, 0.5))
                }
                // Single Brain: legacy model — RTT to the nearest Path
                // Decision replica (replicated at well-peered sites,
                // §7.1) + RPC/queueing overhead + hash lookup.
                None => {
                    let rtt = self.nearest_replica_rtt(consumer);
                    Some(
                        rtt + 8.0
                            + self.config.latency.brain_lookup_ms * self.rng.log_normal(0.0, 0.5),
                    )
                }
            }
        };

        let last_resort = lookup.last_resort;
        // Take the best path by value — the lookup is ours, no clone.
        let path = lookup
            .paths
            .into_iter()
            .next()
            .expect("path lookup returned no paths")
            .nodes;

        // Reverse-path establishment with cache-hit backtracking: walk
        // upstream from the consumer; the deepest node already carrying
        // the stream anchors the chain (may create a long chain).
        let mut anchor_idx = 0;
        for i in (0..path.len().saturating_sub(1)).rev() {
            if self.presence.contains_key(&(path[i], stream)) {
                anchor_idx = i;
                break;
            }
        }
        let mut est_ms = 0.0;
        for w in path[anchor_idx..].windows(2) {
            if let Some(l) = self.topology.link(w[0], w[1]) {
                // Subscribe/ok round trip + per-hop FIB/subscription work.
                est_ms += l.rtt.as_millis_f64() + 10.0;
            }
        }
        let anchor = self.presence.get(&(path[anchor_idx], stream));
        let anchor_len = anchor.map_or(1, |p| p.len as usize);
        // Long-chain mitigation: if the realized chain would exceed the
        // threshold, re-establish the full computed path from the producer
        // (the consumer-driven switch of §4.4).
        let chained_hops = anchor_len - 1 + (path.len() - 1 - anchor_idx);
        let anchor_idx = if chained_hops + 1 > self.config.long_chain_switch_hops {
            self.report.chain_switches += 1;
            est_ms = 0.0;
            for w in path.windows(2) {
                if let Some(l) = self.topology.link(w[0], w[1]) {
                    est_ms += l.rtt.as_millis_f64() + 10.0;
                }
            }
            0
        } else {
            anchor_idx
        };
        // Build the chain's realized path ONCE; every presence entry on
        // the tail then shares this one allocation via `Arc` + prefix len.
        let mut realized: Vec<NodeId> =
            Vec::with_capacity(anchor_len + path.len() - anchor_idx);
        if anchor_idx == 0 {
            // Either no anchor was found or the chain switch reset to the
            // producer — when an anchor exists at index 0 its realized
            // prefix still applies.
            match self.presence.get(&(path[0], stream)) {
                Some(p) if chained_hops < self.config.long_chain_switch_hops => {
                    realized.extend_from_slice(p.realized());
                }
                _ => realized.push(path[0]),
            }
        } else {
            match self.presence.get(&(path[anchor_idx], stream)) {
                Some(p) => realized.extend_from_slice(p.realized()),
                None => realized.push(path[anchor_idx]),
            }
        }
        realized.extend_from_slice(&path[anchor_idx + 1..]);
        realized.dedup();
        let shared: Arc<[NodeId]> = Arc::from(realized);

        // Create presence entries along the new tail.
        for j in (anchor_idx + 1)..path.len() {
            let node = path[j];
            let upstream = path[j - 1];
            let prefix_len = shared
                .iter()
                .position(|&n| n == node)
                .map(|p| p + 1)
                .unwrap_or(shared.len());
            let entry = self
                .presence
                .entry((node, stream))
                .or_insert_with(|| Presence {
                    upstream: Some(upstream),
                    path: shared.clone(),
                    len: prefix_len as u32,
                    downstreams: 0,
                });
            if j + 1 < path.len() {
                entry.downstreams += 1; // its downstream chain node
            }
        }
        // The anchor gains the first new downstream.
        if let Some(a) = self.presence.get_mut(&(path[anchor_idx], stream)) {
            a.downstreams += 1;
        }
        // The viewer is the consumer's downstream.
        if let Some(c) = self.presence.get_mut(&(consumer, stream)) {
            c.downstreams += 1;
        }

        let first_packet = brain_ms.unwrap_or(0.0)
            + est_ms
            + self.config.latency.local_serve_ms * self.rng.log_normal(0.0, 0.3);
        let outcome = if last_resort {
            DecisionOutcome::LastResort {
                response_ms: brain_ms.map(|v| v as f32),
            }
        } else {
            match brain_ms {
                Some(ms) => DecisionOutcome::Brain {
                    response_ms: ms as f32,
                },
                None => DecisionOutcome::Prefetched,
            }
        };
        let len = shared.len() as u32;
        (shared, len, outcome, first_packet)
    }

    fn livenet_detach(&mut self, consumer: NodeId, stream: StreamId) {
        let mut node = consumer;
        while let Some(p) = self.presence.get_mut(&(node, stream)) {
            p.downstreams = p.downstreams.saturating_sub(1);
            if p.downstreams > 0 {
                break;
            }
            // Producers keep their zero-hop entry while the stream is live.
            let Some(up) = p.upstream else { break };
            self.presence.remove(&(node, stream));
            node = up;
        }
    }

    fn livenet_cdn_delay(&mut self, path: &[NodeId]) -> f64 {
        let c = &self.config.latency;
        let mut d = c.producer_processing_ms;
        for w in path.windows(2) {
            if let Some(l) = self.topology.link(w[0], w[1]) {
                d += l.rtt.as_millis_f64() / 2.0;
                d += c.recovery_penalty_ms(l.loss, l.rtt);
                // Queueing grows with link utilization.
                d += 6.0 * l.utilization;
            }
        }
        let intermediates = path.len().saturating_sub(2);
        d += c.relay_processing_ms * intermediates as f64;
        if path.len() > 1 {
            d += c.consumer_processing_ms;
        } else {
            d += c.consumer_processing_ms; // zero-hop: same node serves
        }
        d * self.rng.log_normal(0.0, 0.08)
    }

    fn nearest_replica_rtt(&self, consumer: NodeId) -> f64 {
        // Path Decision replicas sit at well-peered sites + last-resort
        // (IXP) nodes (§7.1).
        self.topology
            .nodes()
            .filter(|n| n.well_peered)
            .filter_map(|n| self.topology.link(consumer, n.id))
            .map(|l| l.rtt.as_millis_f64())
            .fold(f64::INFINITY, f64::min)
            .min(200.0)
    }

    // ------------------------------------------------------------------
    // Hier attachment
    // ------------------------------------------------------------------

    /// Returns `(path, local_hit, first_packet_ms)`.
    fn hier_attach(
        &mut self,
        _now: SimTime,
        consumer: NodeId,
        stream: StreamId,
    ) -> (Vec<NodeId>, bool, f64) {
        let hit = self
            .hier_presence
            .get(&(consumer, stream))
            .is_some_and(|&c| c > 0);
        let Ok(path) = self.hier.path_for(&self.topology, stream, consumer) else {
            return (vec![consumer], false, 600.0);
        };
        let nodes = path.nodes;
        for &n in &nodes {
            *self.hier_presence.entry((n, stream)).or_insert(0) += 1;
            *self.hier_node_load.entry(n).or_insert(0) += 1;
        }
        if hit {
            let fp = self.config.latency.local_serve_ms * 1.3 * self.rng.log_normal(0.0, 0.4);
            return (nodes, true, fp);
        }
        // Cache miss: climb the tree until a tier has the stream cached.
        // nodes = [producerL1, upL2, center, downL2, consumerL1].
        let mut fetch_ms = 0.0;
        let mut cur = consumer;
        for &tier in [nodes[3], nodes[2]].iter() {
            if let Some(l) = self.topology.link(cur, tier) {
                fetch_ms += l.rtt.as_millis_f64() * 1.5; // TCP request+slow start
            }
            cur = tier;
            if self
                .hier_presence
                .get(&(tier, stream))
                .is_some_and(|&c| c > 1)
            {
                break; // cached at this tier
            }
        }
        let fp = fetch_ms
            + self.config.latency.local_serve_ms * 1.3 * self.rng.log_normal(0.0, 0.3);
        (nodes, false, fp)
    }

    fn center_queueing_ms(&mut self, path: &[NodeId]) -> f64 {
        // All streams cross the center; queueing grows superlinearly with
        // the center's fan-in share of concurrent sessions. The per-node
        // refcount sum is maintained incrementally (integer arithmetic,
        // so it matches a fresh scan exactly) — scanning the whole
        // presence table here made every arrival O(active sessions).
        let center = path[2];
        let load = self.hier_node_load.get(&center).copied().unwrap_or(0).max(0) as f64
            / (self.config.node_capacity_sessions * 30.0);
        let u = load.min(1.5);
        if u > 0.5 {
            (u - 0.5) * 160.0 * self.rng.log_normal(0.0, 0.3)
        } else {
            0.0
        }
    }

    // ------------------------------------------------------------------
    // Fault execution (§6.5 failure handling)
    // ------------------------------------------------------------------

    fn on_fault_start(&mut self, now: SimTime, i: usize) {
        self.report.faults_injected += 1;
        self.telemetry.incr(ids::FLEET_FAULTS_INJECTED);
        if self.faults[i].brain_crash {
            // Control-plane fault: the Paxos leader dies mid-run. The data
            // plane keeps forwarding; new path requests ride the client
            // retry/redirect machinery until a follower takes the lease.
            self.brain.crash_leader(now);
            return;
        }
        // Borrow the node list by taking it (restored below) — activations
        // used to deep-copy it every time.
        let nodes = std::mem::take(&mut self.faults[i].nodes);
        let down: BTreeSet<NodeId> = nodes.iter().copied().collect();
        let day = (now.as_secs_f64() / 86_400.0) as u32;

        // Ground truth and the Brain's view go dark; the Brain recomputes
        // around the failed elements immediately (scoped update).
        for &n in &nodes {
            self.topology.set_node_up(n, false);
            self.brain.node_failed(n, now);
        }

        // Broadcasters whose ingest node died re-push to another edge in
        // their country; the Brain rehomes the stream in its SIB. Hier
        // cannot — its tree roles are static — which is the point of §6.5.
        for &n in &nodes {
            for stream in self.brain.streams_on(n) {
                let Some(ch) = self
                    .workload
                    .channels
                    .iter()
                    .position(|c| c.stream == stream)
                else {
                    continue;
                };
                let country = self.workload.channels[ch].country;
                let Some(&new_p) = self.edges_by_country[country as usize]
                    .iter()
                    .find(|&&e| e != n && self.topology.node_is_up(e))
                else {
                    continue;
                };
                let _ = self.brain.rehome_producer(stream, new_p, now);
                self.producers[ch] = new_p;
                self.presence.remove(&(n, stream));
                self.presence
                    .entry((new_p, stream))
                    .or_insert_with(|| zero_hop(new_p));
                self.report.producers_rehomed += 1;
            }
        }

        // Every active session whose delivery path crosses a dead node
        // fails over. LiveNet consumers detect upstream silence and either
        // switch to a cached alternate (fast, ≈1 RTT after detection) or
        // wait out a Brain round trip (slow); Hier clients reconnect
        // through the static tree over TCP — multi-second either way.
        //
        // Phase 1: record the failovers and tear every affected session's
        // subscription chain down while the refcounts are still coherent.
        // Phase 2: purge what the dead nodes carried. Phase 3: re-attach,
        // so shared chains are rebuilt fresh instead of local-hitting a
        // stale entry that still routes through the failure.
        // `active` is ordered, so a plain key snapshot is already sorted —
        // no per-activation sort.
        let ids: Vec<u64> = self.active.keys().copied().collect();
        let mut reattach: Vec<(u64, NodeId, StreamId, usize)> = Vec::new();
        for id in ids {
            let (consumer, stream, channel, hier_hit) = {
                let a = &self.active[&id];
                let hier_hit = a.hier_path.iter().any(|n| down.contains(n));
                (a.consumer, a.stream, a.channel, hier_hit)
            };
            let ln_hit = self
                .presence
                .get(&(consumer, stream))
                .is_some_and(|p| p.realized().iter().any(|n| down.contains(n)));
            if ln_hit {
                let popular = self.workload.channels[channel].popular;
                // Popular channels' alternates are prefetched everywhere
                // (§4.4); others hold Brain-provisioned backups most of
                // the time.
                let fast = popular || self.rng.chance(0.7);
                let detect = 2500.0 * self.rng.log_normal(0.0, 0.15);
                let recover = if fast {
                    // One subscribe round trip to the cached alternate.
                    30.0 * self.rng.log_normal(0.0, 0.4)
                } else {
                    // Ask the Brain, wait for the recompute, re-establish.
                    self.nearest_replica_rtt(consumer)
                        + 2400.0 * self.rng.log_normal(0.0, 0.3)
                };
                self.telemetry.incr(ids::FLEET_RECOVERIES);
                self.telemetry
                    .observe(ids::STAGE_RECOVERY_MS, detect + recover);
                self.report.recoveries_livenet.push(RecoveryRecord {
                    at: now,
                    day,
                    fast,
                    detect_ms: detect as f32,
                    recover_ms: recover as f32,
                    frames_lost: ((detect + recover) / 1000.0 * 15.0) as u32,
                });
                self.livenet_detach(consumer, stream);
                let mut consumer = consumer;
                if down.contains(&consumer) {
                    // The viewer's own edge died; the client retries
                    // against the next edge in its country, if any.
                    let country = self
                        .topology
                        .node(consumer)
                        .map(|n| n.country)
                        .unwrap_or(0);
                    if let Some(&alt) = self.edges_by_country[country as usize]
                        .iter()
                        .find(|&&e| self.topology.node_is_up(e))
                    {
                        consumer = alt;
                        if let Some(a) = self.active.get_mut(&id) {
                            a.consumer = alt;
                        }
                    }
                }
                reattach.push((id, consumer, stream, channel));
            }
            if hier_hit {
                let detect = 3000.0 * self.rng.log_normal(0.0, 0.2);
                let recover = 8000.0 * self.rng.log_normal(0.0, 0.35);
                self.report.recoveries_hier.push(RecoveryRecord {
                    at: now,
                    day,
                    fast: false,
                    detect_ms: detect as f32,
                    recover_ms: recover as f32,
                    frames_lost: ((detect + recover) / 1000.0 * 15.0) as u32,
                });
            }
        }
        // Whatever presence the dead nodes still carried is gone with them.
        self.presence.retain(|&(n, _), _| !down.contains(&n));
        let load = &mut self.hier_node_load;
        self.hier_presence.retain(|&(n, _), c| {
            if !down.contains(&n) {
                return true;
            }
            if let Some(l) = load.get_mut(&n) {
                *l -= i64::from(*c);
            }
            false
        });
        // Re-establish over paths the Brain already recomputed around the
        // failure.
        for (_, consumer, stream, channel) in reattach {
            if self.topology.node_is_up(consumer) {
                let _ = self.livenet_attach(now, consumer, stream, channel);
            }
        }
        self.faults[i].nodes = nodes;
    }

    fn on_fault_end(&mut self, now: SimTime, i: usize) {
        if self.faults[i].brain_crash {
            self.brain.restart_crashed(now);
            return;
        }
        let nodes = std::mem::take(&mut self.faults[i].nodes);
        for &n in &nodes {
            self.topology.set_node_up(n, true);
            self.brain.node_recovered(n, now);
        }
        self.faults[i].nodes = nodes;
    }

    // ------------------------------------------------------------------
    // Periodic work: reports, loads, loss, aggregation
    // ------------------------------------------------------------------

    fn on_minute(&mut self, now: SimTime) {
        // In sharded runs this is the per-shard peak; the merged snapshot
        // keeps the max across shards (gauges merge by max), which both
        // `run_serial` and `run_parallel` compute over the same partition.
        self.telemetry
            .gauge_max(ids::FLEET_PEAK_VIEWERS, self.active.len() as f64);
        let hour = (now.as_secs_f64() / 3600.0) as u64;
        let day = (hour / 24) as u32;
        // Plain hour-of-day load shape (loss follows *time of day*; the
        // festival adds sessions but capacity is up-scaled to match, §6.5).
        let diurnal = crate::workload::diurnal_factor(now.as_secs_f64() / 3600.0 % 24.0);
        let festival = self
            .config
            .workload
            .festival_days
            .contains(&day);
        let capacity_scale = if festival {
            self.config.festival_upscale
        } else {
            1.0
        };

        // Recompute loads from the presence map (the ground truth): a
        // node's fan-out is the sum of its direct downstream subscribers;
        // a link carries one unit per stream flowing over it.
        self.node_fanout.clear();
        self.link_sessions.clear();
        for (&(node, _), p) in &self.presence {
            *self.node_fanout.entry(node).or_insert(0.0) += f64::from(p.downstreams);
            if let Some(up) = p.upstream {
                *self.link_sessions.entry((up, node)).or_insert(0.0) += 1.0;
            }
        }
        // Update ground-truth loss (diurnal; Fig. 13) and utilization in
        // one pass over the link map — the old collect-then-apply shape
        // allocated a per-tick update vector for no semantic gain (the
        // load maps and the topology are disjoint fields).
        let mut loss_sum = 0.0;
        let mut loss_n = 0u64;
        let gen_base = self.config.geo.base_loss;
        let link_cap = self.config.link_capacity_sessions * capacity_scale;
        let link_sessions = &self.link_sessions;
        for (f, t, l) in self.topology.links_mut() {
            let sessions = link_sessions.get(&(f, t)).copied().unwrap_or(0.0);
            l.utilization = (sessions / link_cap).min(1.0);
            // Loss rises with the diurnal load (peaking < 0.175%).
            let jitter = 0.8 + 0.4 * ((f.raw() * 31 + t.raw() * 17 + hour) % 97) as f64 / 97.0;
            l.loss = (gen_base * (0.5 + 2.2 * diurnal) * jitter).min(0.00175);
            loss_sum += l.loss;
            loss_n += 1;
        }
        // Node loads, same single-pass shape.
        let node_cap = self.config.node_capacity_sessions * capacity_scale;
        let node_fanout = &self.node_fanout;
        for n in self.topology.nodes_mut() {
            let fanout = node_fanout.get(&n.id).copied().unwrap_or(0.0).max(0.0);
            n.utilization = (fanout / node_cap).min(1.0);
        }

        // 1-minute node reports into the Brain (overload alarms included).
        let reports: Vec<NodeReport> = self
            .topology
            .routable_node_ids()
            .filter_map(|n| livenet_topology::view::report_from_topology(&self.topology, n, now))
            .collect();
        // Single mode absorbs them directly and runs the 10-minute PIB
        // recompute check; replicated mode commits the whole batch as one
        // Paxos decree and every replica applies it (recompute included).
        self.brain.minute_report(&reports, now);

        // Aggregation: hour roll, day roll, throughput peak.
        if hour != self.current_hour {
            self.flush_hour();
            self.current_hour = hour;
        }
        self.hour_loss_sum += if loss_n > 0 { loss_sum / loss_n as f64 } else { 0.0 };
        self.hour_loss_n += 1;
        if day != self.current_day {
            self.flush_day();
            self.current_day = day;
        }
        let throughput = self.active.len() as f64 * self.bitrate_bps;
        self.day_peak_bps = self.day_peak_bps.max(throughput);
    }

    fn flush_hour(&mut self) {
        while self.report.hourly_loss.len() < self.current_hour as usize {
            self.report.hourly_loss.push(f64::NAN);
        }
        let mean = if self.hour_loss_n > 0 {
            self.hour_loss_sum / self.hour_loss_n as f64
        } else {
            f64::NAN
        };
        self.report.hourly_loss.push(mean);
        self.hour_loss_sum = 0.0;
        self.hour_loss_n = 0;
    }

    fn flush_day(&mut self) {
        while self.report.daily_peak_throughput.len() < self.current_day as usize {
            self.report.daily_peak_throughput.push(0.0);
            self.report.daily_unique_paths.push(0);
            self.day_path_log.push(HashSet::new());
        }
        self.report.daily_peak_throughput.push(self.day_peak_bps);
        self.report
            .daily_unique_paths
            .push(self.day_paths.len());
        self.day_path_log
            .push(std::mem::take(&mut self.day_paths));
        self.day_peak_bps = 0.0;
    }

    fn poisson(&mut self, lambda: f64) -> u16 {
        // Knuth's method; lambda is small (< ~3) in all our uses.
        let l = (-lambda).exp();
        let mut k = 0u16;
        let mut p = 1.0;
        loop {
            p *= self.rng.f64();
            if p <= l || k > 50 {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::summarize;

    /// An unsharded (`shards = 1`) run.
    fn run(config: FleetConfig) -> FleetReport {
        crate::FleetRunner::new(config).unwrap().run_serial()
    }

    fn smoke_report(seed: u64) -> FleetReport {
        run(FleetConfig::smoke(seed))
    }

    #[test]
    fn smoke_run_produces_paired_sessions() {
        let r = smoke_report(1);
        assert!(r.livenet.len() > 500, "only {}", r.livenet.len());
        assert_eq!(r.livenet.len(), r.hier.len());
    }

    #[test]
    fn livenet_beats_hier_on_the_headline_metrics() {
        let r = smoke_report(2);
        let ln = summarize(&r.livenet);
        let h = summarize(&r.hier);
        assert!(
            ln.median_cdn_delay_ms < h.median_cdn_delay_ms * 0.7,
            "LiveNet {} vs Hier {}",
            ln.median_cdn_delay_ms,
            h.median_cdn_delay_ms
        );
        assert!(ln.median_path_len <= 2.0);
        assert_eq!(h.median_path_len, 4.0);
        assert!(ln.median_streaming_delay_ms < h.median_streaming_delay_ms);
        assert!(ln.zero_stall_ratio > h.zero_stall_ratio);
        assert!(ln.fast_startup_ratio >= h.fast_startup_ratio);
    }

    #[test]
    fn hier_paths_are_always_four_hops() {
        let r = smoke_report(3);
        assert!(r.hier.iter().all(|s| s.path_len == 4));
    }

    #[test]
    fn livenet_paths_respect_computed_bound_mostly() {
        let r = smoke_report(4);
        // Long chains can exceed 3 but are bounded by the switch threshold.
        let too_long = r
            .livenet
            .iter()
            .filter(|s| usize::from(s.path_len) > FleetConfig::smoke(4).long_chain_switch_hops)
            .count();
        assert_eq!(too_long, 0);
        let over3 = r.livenet.iter().filter(|s| s.path_len > 3).count() as f64
            / r.livenet.len() as f64;
        assert!(over3 < 0.05, "{over3}");
    }

    #[test]
    fn local_hits_happen_and_reduce_first_packet_delay() {
        let r = smoke_report(5);
        let hits: Vec<&SessionRecord> =
            r.livenet.iter().filter(|s| s.outcome.is_local_hit()).collect();
        let misses: Vec<&SessionRecord> =
            r.livenet.iter().filter(|s| !s.outcome.is_local_hit()).collect();
        assert!(!hits.is_empty());
        assert!(!misses.is_empty());
        let mean = |v: &[&SessionRecord]| {
            v.iter().map(|s| f64::from(s.first_packet_ms)).sum::<f64>() / v.len() as f64
        };
        assert!(mean(&hits) < mean(&misses) / 2.0);
        // Hits carry no brain response time.
        assert!(hits.iter().all(|s| s.outcome.response_ms().is_none()));
    }

    #[test]
    fn report_telemetry_mirrors_session_records() {
        let r = smoke_report(5);
        let snap = &r.telemetry;
        assert_eq!(snap.counter("fleet.sessions"), r.livenet.len() as u64);
        let hits = r.livenet.iter().filter(|s| s.outcome.is_local_hit()).count() as u64;
        assert_eq!(snap.counter("fleet.local_hits"), hits);
        let brain_served = r
            .livenet
            .iter()
            .filter(|s| matches!(s.outcome, DecisionOutcome::Brain { .. }))
            .count() as u64;
        assert_eq!(snap.counter("fleet.brain_served"), brain_served);
        assert_eq!(
            snap.hist("stage.startup_ms").unwrap().count,
            r.livenet.len() as u64
        );
        // Brain lifetime counters flow through record_telemetry.
        assert_eq!(snap.counter("brain.recompute_rounds"), r.recompute_rounds);
        assert!(snap.counter("brain.requests_served") > 0);
        assert!(snap.gauge("fleet.peak_viewers").unwrap() > 0.0);
    }

    #[test]
    fn outage_telemetry_counts_faults_and_recoveries() {
        let r = run(outage_config(11));
        let snap = &r.telemetry;
        assert_eq!(snap.counter("fleet.faults_injected"), r.faults_injected);
        assert_eq!(
            snap.counter("fleet.recoveries"),
            r.recoveries_livenet.len() as u64
        );
        let rec = snap.hist("stage.recovery_ms").unwrap();
        assert_eq!(rec.count, r.recoveries_livenet.len() as u64);
        let mean = rec.mean().unwrap();
        assert!(mean > 1000.0, "recovery means {mean:.1} ms");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = smoke_report(7);
        let b = smoke_report(7);
        assert_eq!(a.livenet.len(), b.livenet.len());
        for (x, y) in a.livenet.iter().zip(&b.livenet) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn refcounts_drain_after_run() {
        let cfg = FleetConfig::smoke(8);
        let mut sim = FleetSim::new_shard(cfg.clone(), &crate::partition_channels(&cfg)[0]);
        // Run through the shared driver (the same code `run_collect`
        // uses), keeping the sim alive to inspect internal state.
        sim.seed_events();
        sim.drive();
        // After all departures + stream ends, presence should be empty and
        // link session counts ≈ 0.
        assert!(sim.presence.is_empty(), "{} presences leak", sim.presence.len());
        for (&(f, t), &c) in &sim.link_sessions {
            assert!(
                c.abs() < 1e-6,
                "link ({f},{t}) leaked {c} sessions"
            );
        }
        // The incremental hier load must drain with the refcounts it
        // mirrors.
        for (&n, &l) in &sim.hier_node_load {
            assert_eq!(l, 0, "node {n} leaked hier load {l}");
        }
    }

    fn outage_config(seed: u64) -> FleetConfig {
        FleetConfigBuilder::from_config(FleetConfig::smoke(seed))
            .fault(FleetFault::RegionOutage {
                at_secs: 8 * 3600,
                down_for_secs: 1800,
                country: 0,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn region_outage_triggers_recoveries_and_rehoming() {
        let r = run(outage_config(11));
        assert_eq!(r.faults_injected, 1);
        assert!(!r.recoveries_livenet.is_empty(), "no LiveNet failovers");
        assert!(!r.recoveries_hier.is_empty(), "no Hier failovers");
        // §6.5 shape: LiveNet's fast path dominates and restores playback
        // in about one RTT after detection; Hier is multi-second.
        let fast = r.recoveries_livenet.iter().filter(|x| x.fast).count();
        assert!(fast * 2 > r.recoveries_livenet.len(), "fast path rare");
        let median = |mut v: Vec<f32>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let ln_fast =
            median(r.recoveries_livenet.iter().filter(|x| x.fast).map(|x| x.recover_ms).collect());
        let h = median(r.recoveries_hier.iter().map(|x| x.recover_ms).collect());
        assert!(ln_fast < 200.0, "LiveNet fast recovery {ln_fast} ms");
        assert!(h > 2000.0, "Hier recovery {h} ms");
    }

    #[test]
    fn outage_runs_are_deterministic() {
        let a = run(outage_config(12));
        let b = run(outage_config(12));
        assert!(a.bit_identical(&b));
    }

    #[test]
    fn random_faults_fire_and_sessions_still_pair() {
        let cfg = FleetConfigBuilder::from_config(FleetConfig::smoke(13))
            .random_faults(3.0, (300, 1200))
            .build()
            .unwrap();
        let r = run(cfg);
        assert!(r.faults_injected >= 3, "{}", r.faults_injected);
        assert_eq!(r.livenet.len(), r.hier.len());
    }

    #[test]
    fn fault_free_default_reports_no_recoveries() {
        let r = smoke_report(14);
        assert_eq!(r.faults_injected, 0);
        assert!(r.recoveries_livenet.is_empty());
        assert!(r.recoveries_hier.is_empty());
    }

    #[test]
    fn hourly_loss_stays_under_paper_cap() {
        let r = smoke_report(9);
        for &l in r.hourly_loss.iter().filter(|l| !l.is_nan()) {
            assert!(l <= 0.00175, "loss {l}");
            assert!(l > 0.0);
        }
    }
}
