//! Sharded fleet execution with a deterministic merge.
//!
//! [`FleetRunner`] partitions a fleet run by channel into independent
//! shards, runs them serially or on a thread pool, and merges the per-shard
//! outputs in a canonical order. Because every shard is a fully independent
//! [`FleetSim`] — its own topology copy, its own Brain, its own RNG
//! sub-stream ([`DetRng::split`]) — and the merge never looks at wall-clock
//! completion order, `run_parallel(n)` is **bit-identical** to
//! `run_serial()` for every seed and every thread count.
//!
//! The partition balances the workload's Zipf skew:
//!
//! * channels are placed heaviest-first on the lightest shard so far (the
//!   LPT greedy), so the Zipf head spreads across shards instead of
//!   piling onto shard 0 — no shard exceeds the ideal mass share by more
//!   than the single heaviest channel;
//! * each shard's arrival rate and session capacities are scaled by its
//!   mass share, so per-shard utilization — and therefore routing,
//!   queueing and the long-chain dynamics — matches the whole fleet's.
//!
//! The runner is the only fleet execution path: an unsharded run is
//! `shards = 1`, one plan holding every channel at mass share 1.0. The
//! result depends on the shard *count* (each shard draws its own thinned
//! Poisson stream and runs its own Brain), never on the thread count. The
//! determinism contract is serial ≡ parallel, checked by
//! [`FleetReport::bit_identical`].
//!
//! [`DetRng::split`]: livenet_types::DetRng::split

use crate::fleet::{FleetConfig, FleetReport, FleetSim, RecoveryRecord, ShardOutput};
use livenet_types::{Result, SimTime, ZipfTable};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One shard's slice of the fleet: which channels it simulates and the
/// fraction of the total Zipf mass (≈ viewer arrivals) they carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Shard index; doubles as the `DetRng::split` label, so a shard's
    /// random stream does not depend on how many siblings run.
    pub index: usize,
    /// Member channel indices (== Zipf ranks), ascending.
    pub channels: Vec<usize>,
    /// The members' share of the total channel popularity mass, in (0, 1].
    pub mass_share: f64,
}

/// Partition the channel universe into at most `config.shards` plans.
///
/// Channels are placed heaviest-first (Zipf mass is monotone in rank)
/// onto the lightest shard so far, ties to the lowest index — the LPT
/// greedy. That spreads the Zipf head across shards instead of
/// co-locating it on shard 0 (the old head-group rule capped parallel
/// speedup at roughly `1 / head_mass` regardless of shard count), and
/// bounds every shard's mass share by `ideal + pmf(0)`. Shards that end
/// up empty are dropped — surviving plans keep their original indices, so
/// the partition (and every shard's RNG stream) is a pure function of the
/// config, never of the thread count.
pub fn partition_channels(config: &FleetConfig) -> Vec<ShardPlan> {
    let channels = config.workload.channels;
    let shards = config.shards.clamp(1, channels.max(1));
    let zipf = ZipfTable::new(channels, config.workload.zipf_s);
    let mass: Vec<f64> = (0..channels).map(|k| zipf.pmf(k)).collect();
    let total: f64 = mass.iter().sum();

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut load = vec![0.0f64; shards];
    for (c, &m) in mass.iter().enumerate() {
        let mut best = 0;
        for s in 1..shards {
            if load[s] < load[best] {
                best = s;
            }
        }
        members[best].push(c);
        load[best] += m;
    }
    members
        .into_iter()
        .zip(load)
        .enumerate()
        .filter(|(_, (m, _))| !m.is_empty())
        .map(|(index, (channels, l))| ShardPlan {
            index,
            channels,
            mass_share: l / total,
        })
        .collect()
}

/// Facade for sharded fleet runs: validate once, then run the same
/// partition serially or in parallel with bit-identical results.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// Wrap a validated configuration.
    ///
    /// Rejects configurations [`FleetConfig::validate`] rejects — the same
    /// checks [`crate::FleetConfigBuilder::build`] runs, repeated here so
    /// hand-built configs cannot bypass them.
    pub fn new(config: FleetConfig) -> Result<FleetRunner> {
        config.validate()?;
        Ok(FleetRunner { config })
    }

    /// The shard partition this runner executes.
    pub fn plans(&self) -> Vec<ShardPlan> {
        partition_channels(&self.config)
    }

    /// Run every shard on the calling thread, in index order.
    pub fn run_serial(&self) -> FleetReport {
        let outputs: Vec<ShardOutput> = self
            .plans()
            .iter()
            .map(|p| FleetSim::new_shard(self.config.clone(), p).run_collect())
            .collect();
        merge(outputs, self.config.workload.days as usize)
    }

    /// Run the shards on up to `threads` worker threads.
    ///
    /// Workers pull shard indices from a shared counter and send results
    /// back tagged with their index; the merge consumes them in index
    /// order, so scheduling jitter cannot reach the output bits.
    pub fn run_parallel(&self, threads: usize) -> FleetReport {
        let plans = self.plans();
        let workers = threads.clamp(1, plans.len());
        if workers == 1 {
            return self.run_serial();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, ShardOutput)>();
        let mut slots: Vec<Option<ShardOutput>> = Vec::new();
        slots.resize_with(plans.len(), || None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let plans = &plans;
                let config = &self.config;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= plans.len() {
                        break;
                    }
                    let out = FleetSim::new_shard(config.clone(), &plans[i]).run_collect();
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
        let outputs: Vec<ShardOutput> = slots
            .into_iter()
            .map(|o| o.expect("shard worker exited without a result"))
            .collect();
        merge(outputs, self.config.workload.days as usize)
    }
}

/// Merge per-shard outputs into one fleet report, canonically.
///
/// * Sessions: k-way merge by `(start, shard index, position)` — a total
///   order independent of execution interleaving. The LiveNet/Hier pairing
///   survives because both vectors share the per-shard order.
/// * `hourly_loss`: shard 0's copy. Link loss depends only on the hour,
///   the link IDs and the diurnal factor — never on sessions — and the
///   topology iterates its `BTreeMap`s in key order, so every shard
///   computes the exact same hourly means.
/// * `daily_peak_throughput`: element-wise sum in shard-index order (each
///   shard carries a disjoint slice of concurrent sessions).
/// * `daily_unique_paths`: per-day set union of realized-path hashes.
/// * Recovery records: k-way merge by `(at, shard index, position)`, like
///   sessions.
/// * `faults_injected`: shard 0's count — the fault schedule is derived
///   from the workload seed alone, so every shard injects the identical
///   episodes and summing would multiply-count them.
/// * `telemetry`: snapshot merge in shard-index order — counters sum,
///   gauges keep the max, histograms add bucket counts and fixed-point
///   sums, so the merged bits never depend on completion order.
/// * `replication`: per-shard cluster summaries sum; failover-latency
///   samples concatenate in shard-index order.
/// * Other counters: summed.
fn merge(mut outputs: Vec<ShardOutput>, days: usize) -> FleetReport {
    let mut merged = FleetReport::default();
    // Per-shard session vectors are already time-ordered, so a heap of one
    // cursor per shard streams out the exact `(start, shard, position)`
    // order the old global index sort produced, without materializing an
    // O(sessions) order vector first.
    let total: usize = outputs.iter().map(|o| o.report.livenet.len()).sum();
    merged.livenet.reserve_exact(total);
    merged.hier.reserve_exact(total);
    let mut heads: BinaryHeap<Reverse<(SimTime, usize, usize)>> = outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| !o.report.livenet.is_empty())
        .map(|(s, o)| Reverse((o.report.livenet[0].start, s, 0)))
        .collect();
    while let Some(Reverse((_, s, i))) = heads.pop() {
        merged.livenet.push(outputs[s].report.livenet[i]);
        merged.hier.push(outputs[s].report.hier[i]);
        if let Some(next) = outputs[s].report.livenet.get(i + 1) {
            heads.push(Reverse((next.start, s, i + 1)));
        }
    }

    merged.hourly_loss = std::mem::take(&mut outputs[0].report.hourly_loss);
    merged.faults_injected = outputs[0].report.faults_injected;
    merged.recoveries_livenet = merge_recoveries(&outputs, |r| &r.recoveries_livenet);
    merged.recoveries_hier = merge_recoveries(&outputs, |r| &r.recoveries_hier);

    merged.daily_peak_throughput = vec![0.0; days];
    let mut day_sets: Vec<HashSet<u64>> = vec![HashSet::new(); days];
    for out in &outputs {
        for (d, v) in out.report.daily_peak_throughput.iter().enumerate() {
            merged.daily_peak_throughput[d] += v;
        }
        for (d, set) in out.day_path_sets.iter().enumerate() {
            day_sets[d].extend(set);
        }
        merged.skipped_offline += out.report.skipped_offline;
        merged.chain_switches += out.report.chain_switches;
        merged.recompute_rounds += out.report.recompute_rounds;
        merged.producers_rehomed += out.report.producers_rehomed;
        merged.telemetry.merge(&out.report.telemetry);
        // Replicated-Brain summaries: each shard runs its own cluster, so
        // counters sum and failover samples concatenate in shard-index
        // order (the loop order), keeping the merged bits deterministic.
        if let Some(r) = &out.report.replication {
            merged
                .replication
                .get_or_insert_with(Default::default)
                .absorb(r);
        }
    }
    merged.daily_unique_paths = day_sets.iter().map(HashSet::len).collect();
    merged
}

/// K-way merge of per-shard recovery records by `(at, shard, position)`.
fn merge_recoveries(
    outputs: &[ShardOutput],
    pick: impl Fn(&FleetReport) -> &Vec<RecoveryRecord>,
) -> Vec<RecoveryRecord> {
    let total: usize = outputs.iter().map(|o| pick(&o.report).len()).sum();
    let mut merged = Vec::with_capacity(total);
    let mut heads: BinaryHeap<Reverse<(SimTime, usize, usize)>> = outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| !pick(&o.report).is_empty())
        .map(|(s, o)| Reverse((pick(&o.report)[0].at, s, 0)))
        .collect();
    while let Some(Reverse((_, s, i))) = heads.pop() {
        let recs = pick(&outputs[s].report);
        merged.push(recs[i]);
        if let Some(next) = recs.get(i + 1) {
            heads.push(Reverse((next.at, s, i + 1)));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfigBuilder;

    fn tiny_config(seed: u64) -> FleetConfig {
        // Small enough for unit tests: fewer ticks and arrivals than the
        // smoke preset, but still several shards' worth of channels.
        FleetConfigBuilder::smoke(seed)
            .peak_arrivals_per_sec(0.2)
            .shards(4)
            .build()
            .unwrap()
    }

    #[test]
    fn partition_covers_every_channel_exactly_once() {
        let cfg = tiny_config(1);
        let plans = partition_channels(&cfg);
        let mut seen = vec![0u32; cfg.workload.channels];
        for p in &plans {
            for &c in &p.channels {
                seen[c] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        let total: f64 = plans.iter().map(|p| p.mass_share).sum();
        assert!((total - 1.0).abs() < 1e-9, "mass shares sum to {total}");
    }

    #[test]
    fn partition_balances_zipf_head_load() {
        let cfg = tiny_config(2);
        let plans = partition_channels(&cfg);
        let zipf = ZipfTable::new(cfg.workload.channels, cfg.workload.zipf_s);
        let total: f64 = (0..cfg.workload.channels).map(|k| zipf.pmf(k)).sum();
        let heaviest = zipf.pmf(0) / total;
        let ideal = 1.0 / plans.len() as f64;
        // LPT guarantee: a channel only lands on the lightest shard, so no
        // shard's share exceeds the ideal by more than the heaviest single
        // channel — the Zipf head cannot pile up on shard 0 anymore.
        for p in &plans {
            assert!(
                p.mass_share <= ideal + heaviest + 1e-9,
                "shard {} carries {:.4} > ideal {:.4} + head {:.4}",
                p.index,
                p.mass_share,
                ideal,
                heaviest
            );
        }
        // And the head channels really are spread out: ranks 0..shards sit
        // on pairwise distinct shards (each was placed on an empty shard).
        let mut head_homes = HashSet::new();
        for rank in 0..plans.len() {
            let home = plans
                .iter()
                .position(|p| p.channels.contains(&rank))
                .unwrap();
            assert!(head_homes.insert(home), "rank {rank} co-sharded");
        }
    }

    #[test]
    fn partition_is_deterministic_and_thread_free() {
        let cfg = tiny_config(3);
        assert_eq!(partition_channels(&cfg), partition_channels(&cfg));
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let runner = FleetRunner::new(tiny_config(4)).unwrap();
        let serial = runner.run_serial();
        let parallel = runner.run_parallel(2);
        assert!(serial.bit_identical(&parallel));
        assert!(!serial.livenet.is_empty());
    }

    #[test]
    fn merged_sessions_are_time_ordered_and_paired() {
        let runner = FleetRunner::new(tiny_config(5)).unwrap();
        let r = runner.run_serial();
        assert_eq!(r.livenet.len(), r.hier.len());
        for w in r.livenet.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for (ln, h) in r.livenet.iter().zip(&r.hier) {
            assert_eq!(ln.start, h.start);
        }
    }

    #[test]
    fn faulted_parallel_is_bit_identical_to_serial() {
        use crate::fleet::FleetFault;
        let cfg = FleetConfigBuilder::from_config(tiny_config(6))
            .fault(FleetFault::RegionOutage {
                at_secs: 8 * 3600,
                down_for_secs: 1800,
                country: 0,
            })
            .random_faults(2.0, (300, 900))
            .build()
            .unwrap();
        let runner = FleetRunner::new(cfg).unwrap();
        let serial = runner.run_serial();
        let parallel = runner.run_parallel(4);
        assert!(serial.bit_identical(&parallel));
        assert_eq!(serial.faults_injected, parallel.faults_injected);
        assert!(serial.faults_injected >= 3);
        assert!(!serial.recoveries_livenet.is_empty());
    }

    #[test]
    fn merged_telemetry_is_bit_identical_across_shard_widths() {
        // The contract exp_observe relies on: at every shard width the
        // merged telemetry snapshot is bit-identical between serial and
        // parallel execution, and consistent with the merged sessions.
        for shards in [1usize, 2, 4, 8] {
            let cfg = FleetConfigBuilder::from_config(tiny_config(21))
                .shards(shards)
                .build()
                .unwrap();
            let runner = FleetRunner::new(cfg).unwrap();
            let serial = runner.run_serial();
            let parallel = runner.run_parallel(shards.max(2));
            assert!(
                serial.telemetry.bit_identical(&parallel.telemetry),
                "telemetry diverged at {shards} shards"
            );
            assert_eq!(
                serial.telemetry.counter("fleet.sessions"),
                serial.livenet.len() as u64,
                "session counter mismatch at {shards} shards"
            );
            assert!(!serial.telemetry.to_json().is_empty());
        }
    }

    #[test]
    fn shard_width_regression_reports_bit_identical() {
        // Regression for the streaming merge rewrite: at widths 1/2/4/8,
        // with and without a replicated Brain, serial and parallel runs
        // must still produce byte-equal FleetReports.
        use crate::control::ReplicationConfig;
        for replicated in [false, true] {
            for shards in [1usize, 2, 4, 8] {
                let mut b = FleetConfigBuilder::from_config(tiny_config(31)).shards(shards);
                if replicated {
                    b = b.replication(ReplicationConfig::default());
                }
                let runner = FleetRunner::new(b.build().unwrap()).unwrap();
                let serial = runner.run_serial();
                let parallel = runner.run_parallel(shards.max(2));
                assert!(
                    serial.bit_identical(&parallel),
                    "report diverged at {shards} shards (replicated: {replicated})"
                );
                assert!(!serial.livenet.is_empty());
            }
        }
    }

    #[test]
    fn opt_in_idle_lease_stretch_amortizes_decrees_and_stays_deterministic() {
        use crate::control::ReplicationConfig;
        let run = |stretch: f64| {
            let cfg = FleetConfigBuilder::from_config(tiny_config(41))
                .shards(2)
                .replication(ReplicationConfig {
                    idle_lease_stretch: stretch,
                    ..ReplicationConfig::default()
                })
                .build()
                .unwrap();
            let runner = FleetRunner::new(cfg).unwrap();
            let serial = runner.run_serial();
            let parallel = runner.run_parallel(2);
            assert!(
                serial.bit_identical(&parallel),
                "stretch {stretch} broke serial/parallel bit-identity"
            );
            serial.replication.clone().expect("replicated run")
        };
        let plain = run(1.0);
        let stretched = run(20.0);
        assert_eq!(stretched.give_ups, 0);
        assert!(
            stretched.lease_renewals * 2 < plain.lease_renewals,
            "stretch did not amortize: {} vs {} renewals",
            stretched.lease_renewals,
            plain.lease_renewals
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_partition_load_skew_is_bounded(
            channels in 8usize..400,
            shards in 1usize..16,
            zipf_s in 0.5f64..1.6,
        ) {
            let mut cfg = FleetConfig::smoke(1);
            cfg.workload.channels = channels;
            cfg.workload.zipf_s = zipf_s;
            cfg.shards = shards;
            let plans = partition_channels(&cfg);
            // Every channel appears exactly once.
            let mut seen = vec![0u32; channels];
            for p in &plans {
                for &c in &p.channels {
                    seen[c] += 1;
                }
            }
            proptest::prop_assert!(seen.iter().all(|&n| n == 1));
            let total_share: f64 = plans.iter().map(|p| p.mass_share).sum();
            proptest::prop_assert!((total_share - 1.0).abs() < 1e-9);
            // Bounded skew even under Zipf-head workloads: no shard may
            // exceed the ideal share by more than the heaviest channel.
            let zipf = ZipfTable::new(channels, zipf_s);
            let total: f64 = (0..channels).map(|k| zipf.pmf(k)).sum();
            let heaviest = zipf.pmf(0) / total;
            let ideal = 1.0 / shards.clamp(1, channels) as f64;
            for p in &plans {
                proptest::prop_assert!(
                    p.mass_share <= ideal + heaviest + 1e-9,
                    "shard {} share {:.4} ideal {:.4} head {:.4}",
                    p.index, p.mass_share, ideal, heaviest
                );
            }
        }
    }

    #[test]
    fn runner_rejects_invalid_configs() {
        let bad = FleetConfigBuilder::smoke(1)
            .tweak(|c| c.node_capacity_sessions = 0.0)
            .build();
        assert!(matches!(
            bad,
            Err(livenet_types::Error::InvalidConfig(_))
        ));
        let mut cfg = FleetConfig::smoke(1);
        cfg.shards = 0;
        assert!(FleetRunner::new(cfg).is_err());
    }
}
