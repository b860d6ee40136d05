//! Cluster-scale serving: route one trace across N identical SCD blades
//! (via [`scaling::MultiBladeSystem`](crate::scaling::MultiBladeSystem))
//! and replay every blade with the single-blade engine.
//!
//! Two dispatch models bracket real deployments:
//!
//! * **Per-blade queues** ([`DispatchMode::PerBlade`]): a front-end router
//!   assigns each request to a blade *at arrival* using only its routing
//!   state ([`RoutingPolicy`]); blades then replay independently (and in
//!   parallel on rayon workers).
//! * **Central dispatch** ([`DispatchMode::Central`]): one shared queue;
//!   a blade pulls work only when its continuous-batching loop actually
//!   has room, which is work-conserving but serializes the blades through
//!   the shared queue (replayed as one coupled event loop).
//!
//! The report carries the merged tail percentiles plus per-blade load and
//! the utilization skew that separates good routing from bad.

use super::control::{AutoscaleConfig, ControlState, ScaleState};
use super::coord::{ResidencyModel, CACHE_AWARE_MAX_IMBALANCE};
use super::engine::EngineCtx;
use super::engine::{
    finalize, BladeState, CostTable, Outcome, ReplayTotals, ServingSimulator, SimCore,
};
use super::events::{
    leapfrog_decode, DecodeStretch, LeapfrogGates, MemberRounds, ReadyWindow, SchedQueue,
    StretchHorizon, TrackedQueue,
};
use super::observer::{NoopObserver, SimObserver};
use super::policy::OrderingContract;
use super::report::ServingReport;
use super::telemetry::profile;
use super::traces::RequestSpec;
use crate::error::OptimusError;
use rayon::prelude::*;
use scd_arch::Fabric;
use scd_tech::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// What work a blade of the cluster accepts: the role-typed topology
/// behind DistServe-style disaggregated serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BladeRole {
    /// Dedicated prefill blade: runs prompt passes only and streams the
    /// finished KV to the decode pool over the blade-to-blade fabric.
    Prefill,
    /// Dedicated decode blade: admits only handed-off (already-prefilled)
    /// sequences into its continuous batch.
    Decode,
    /// Serves both phases on one continuous-batching loop (the PR 3
    /// behavior, and the default).
    #[default]
    Mixed,
}

impl BladeRole {
    /// Whether decode work may run on this blade.
    #[must_use]
    pub fn can_decode(self) -> bool {
        matches!(self, Self::Decode | Self::Mixed)
    }
}

impl fmt::Display for BladeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Prefill => "prefill",
            Self::Decode => "decode",
            Self::Mixed => "mixed",
        })
    }
}

/// Role assignment for every blade of a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    roles: Vec<BladeRole>,
}

impl Topology {
    /// `blades` interchangeable blades, each serving both phases.
    #[must_use]
    pub fn mixed(blades: u32) -> Self {
        Self {
            roles: vec![BladeRole::Mixed; blades as usize],
        }
    }

    /// A DistServe-style split: `prefill` dedicated prefill blades (the
    /// first indices) feeding `decode` dedicated decode blades.
    #[must_use]
    pub fn disaggregated(prefill: u32, decode: u32) -> Self {
        let mut roles = vec![BladeRole::Prefill; prefill as usize];
        roles.extend(vec![BladeRole::Decode; decode as usize]);
        Self { roles }
    }

    /// An explicit per-blade role list.
    #[must_use]
    pub fn from_roles(roles: Vec<BladeRole>) -> Self {
        Self { roles }
    }

    /// Per-blade roles, by blade index.
    #[must_use]
    pub fn roles(&self) -> &[BladeRole] {
        &self.roles
    }

    /// Blades in the topology.
    #[must_use]
    pub fn blades(&self) -> u32 {
        self.roles.len() as u32
    }

    /// Whether any blade is role-typed (anything other than
    /// [`BladeRole::Mixed`]), which routes the replay through the
    /// disaggregated prefill→decode event loop.
    #[must_use]
    pub fn is_disaggregated(&self) -> bool {
        self.roles.iter().any(|&r| r != BladeRole::Mixed)
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if self.roles.is_empty() {
            return Err(OptimusError::Serving {
                reason: "topology needs at least one blade".to_owned(),
            });
        }
        if self.is_disaggregated() {
            if !self.roles.contains(&BladeRole::Prefill) {
                return Err(OptimusError::Serving {
                    reason: "a role-typed topology needs at least one dedicated prefill blade \
                             to feed its decode pool"
                        .to_owned(),
                });
            }
            if !self.roles.iter().any(|r| r.can_decode()) {
                return Err(OptimusError::Serving {
                    reason: "a role-typed topology needs at least one decode-capable blade \
                             (Decode or Mixed)"
                        .to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// The blade-to-blade link a finished prefill's KV streams over in a
/// disaggregated topology: a bandwidth plus a fixed per-transfer latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoffLink {
    /// Link bandwidth (bytes/s).
    pub bytes_per_s: f64,
    /// Fixed per-transfer latency (s).
    pub latency_s: f64,
}

impl HandoffLink {
    /// A link of `bandwidth` with `latency_s` per-transfer latency.
    #[must_use]
    pub fn new(bandwidth: Bandwidth, latency_s: f64) -> Self {
        Self {
            bytes_per_s: bandwidth.bytes_per_s(),
            latency_s,
        }
    }

    /// Derives the link from a system fabric's slowest (blade-to-blade)
    /// tier.
    #[must_use]
    pub fn from_fabric(fabric: &Fabric) -> Self {
        let tier = fabric
            .tiers()
            .last()
            .expect("a fabric has at least one tier");
        Self {
            bytes_per_s: tier.link_bandwidth.bytes_per_s(),
            latency_s: tier.per_hop_latency.seconds(),
        }
    }

    /// Time to stream `bytes` across the link (s).
    #[must_use]
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bytes_per_s
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if !(self.bytes_per_s.is_finite()
            && self.bytes_per_s > 0.0
            && self.latency_s.is_finite()
            && self.latency_s >= 0.0)
        {
            return Err(OptimusError::Serving {
                reason: format!(
                    "handoff link needs positive bandwidth and non-negative latency \
                     (got {} B/s, {} s)",
                    self.bytes_per_s, self.latency_s
                ),
            });
        }
        Ok(())
    }
}

/// How the front-end router picks a blade for an arriving request
/// (per-blade dispatch only; central dispatch has no routing decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Request `i` goes to blade `i mod N` regardless of load.
    RoundRobin,
    /// Join-shortest-queue: the blade with the fewest requests still in
    /// flight (estimated via a deterministic fluid model of each blade's
    /// service rate).
    JoinShortestQueue,
    /// The blade with the least outstanding KV footprint (tokens of
    /// in-flight requests) — KV-aware load balancing.
    LeastLoadedKv,
    /// Prefix-affinity routing (SGLang-style): a tagged request goes to
    /// the blade whose modeled prefix residency matches the longest
    /// leading chain, so repeat prefixes land where their KV already
    /// lives. Untagged requests, cold prefixes, and replays without
    /// prefix caching fall back to [`Self::JoinShortestQueue`]
    /// bit-identically, and the [`CACHE_AWARE_MAX_IMBALANCE`] guard caps
    /// how far affinity may override load.
    CacheAware,
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::RoundRobin => "round-robin",
            Self::JoinShortestQueue => "join-shortest-queue",
            Self::LeastLoadedKv => "least-loaded-kv",
            Self::CacheAware => "cache-aware",
        })
    }
}

/// Queue topology of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchMode {
    /// Route at arrival into per-blade queues; blades replay independently.
    PerBlade,
    /// One shared queue; blades admit from it as capacity frees up.
    Central,
}

/// Cluster shape + routing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of identical blades.
    pub blades: u32,
    /// Arrival-time routing policy (ignored under central dispatch).
    pub routing: RoutingPolicy,
    /// Queue topology.
    pub dispatch: DispatchMode,
    /// Optional queue-depth autoscaler over the blade pool (central
    /// dispatch only; `blades` is the pool the scaler may grow into).
    /// `None` replays the classic fixed-count cluster bit-identically.
    #[serde(default)]
    pub autoscale: Option<AutoscaleConfig>,
}

/// The one validation both the constructor and every per-config sweep
/// entry funnel through.
pub(crate) fn validate_cluster(cluster: &ClusterConfig) -> Result<(), OptimusError> {
    if cluster.blades == 0 {
        return Err(OptimusError::Serving {
            reason: "cluster needs at least one blade".to_owned(),
        });
    }
    if let Some(autoscale) = &cluster.autoscale {
        if cluster.dispatch != DispatchMode::Central {
            return Err(OptimusError::Serving {
                reason: "the autoscaler needs central dispatch: per-blade routing fixes each \
                         request's blade at arrival, so a changing blade count has nothing to act on"
                    .to_owned(),
            });
        }
        autoscale.validate(cluster.blades)?;
    }
    Ok(())
}

/// Per-blade load summary of a cluster replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BladeLoad {
    /// Blade index.
    pub blade: u32,
    /// The blade's role in the topology ([`BladeRole::Mixed`] for the
    /// classic interchangeable-blade cluster).
    pub role: BladeRole,
    /// Requests completed on this blade (0 for dedicated prefill blades,
    /// which hand every sequence off before its first token).
    pub requests: u32,
    /// Time the blade spent stepping (prefill + decode), s.
    pub busy_s: f64,
    /// `busy_s` over the cluster makespan.
    pub utilization: f64,
    /// Decode-time-weighted mean batch occupancy on this blade.
    pub mean_batch: f64,
    /// Preemptions on this blade.
    pub evictions: u32,
    /// Prefix-cache hits on this blade (0 with prefix caching off).
    pub prefix_hits: u64,
    /// Global-tier hits raced on this blade (0 without a global cache
    /// tier).
    #[serde(default)]
    pub remote_hits: u64,
    /// Peak capacity pinned by this blade's resident shared prefix
    /// blocks (bytes; 0 with prefix caching off).
    pub shared_kv_peak_bytes: f64,
}

/// Decode-stretch effectiveness counters, aggregated over every blade
/// of a cluster replay. Diagnostics for the event core's fast-forward
/// paths: the per-step core plans no stretches, so its reports carry
/// zeros here, and [`ClusterReport`]'s equality deliberately ignores
/// this field (the equivalence suite compares reports across cores).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StretchStats {
    /// Closed-form stretch segments planned and advanced (each covers
    /// one constant-cost run of skipped per-step rounds on one blade).
    pub stretches: u64,
    /// Decode iterations advanced inside stretch segments.
    pub stretched_iterations: u64,
    /// Decode iterations run as ordinary one-round steps.
    pub single_steps: u64,
}

impl StretchStats {
    /// Mean iterations per stretch segment (0 when none were planned).
    #[must_use]
    pub fn mean_stretch_len(&self) -> f64 {
        if self.stretches == 0 {
            0.0
        } else {
            self.stretched_iterations as f64 / self.stretches as f64
        }
    }
}

/// Outcome of a cluster replay: the merged single-system view plus the
/// per-blade breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Blades in the cluster.
    pub blades: u32,
    /// Merged metrics over the whole trace (percentiles across all
    /// requests, makespan from first arrival to last completion anywhere).
    pub report: ServingReport,
    /// Per-blade load.
    pub per_blade: Vec<BladeLoad>,
    /// Utilization spread: max − min per-blade utilization (0 = perfectly
    /// balanced).
    pub utilization_skew: f64,
    /// Prefix-residency spread: max − min per-blade
    /// [`BladeLoad::shared_kv_peak_bytes`] (0 with prefix caching off).
    /// Cache-aware routing deliberately *raises* this — it concentrates
    /// each hot prefix on one blade instead of replicating it — so it is
    /// reported rather than asserted small.
    #[serde(default)]
    pub cache_residency_skew: f64,
    /// Autoscaler blade-count changes during the replay (0 without an
    /// autoscaler; the flapping bound benches assert on).
    pub scale_events: u32,
    /// Highest active blade count reached (`blades` without an
    /// autoscaler).
    pub peak_blades: u32,
    /// Decode-stretch fast-forward diagnostics (all zero under the
    /// per-step core; excluded from equality so cross-core equivalence
    /// compares only simulated results).
    #[serde(default)]
    pub stretch: StretchStats,
}

/// Everything except [`Self::stretch`]: the stretch counters describe
/// how the event core got to the result, not the result itself, and
/// the cross-core equivalence suite asserts report equality.
impl PartialEq for ClusterReport {
    fn eq(&self, other: &Self) -> bool {
        self.blades == other.blades
            && self.report == other.report
            && self.per_blade == other.per_blade
            && self.utilization_skew == other.utilization_skew
            && self.cache_residency_skew == other.cache_residency_skew
            && self.scale_events == other.scale_events
            && self.peak_blades == other.peak_blades
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blades: {}; util skew {:.2}",
            self.blades, self.report, self.utilization_skew
        )
    }
}

/// Multi-blade serving simulator: one trace, N identical blades.
#[derive(Debug)]
pub struct ClusterSimulator<'a> {
    sim: ServingSimulator<'a>,
    cluster: ClusterConfig,
}

impl<'a> ClusterSimulator<'a> {
    /// Wraps a single-blade simulator (per-blade estimator, model, plan
    /// and serving config) into a cluster of `cluster.blades` copies:
    /// the one validated constructor, which
    /// [`Scenario::compile`](super::scenario::Scenario::compile) funnels
    /// into.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a zero-blade cluster or an
    /// invalid autoscaler.
    pub(crate) fn from_parts(
        sim: ServingSimulator<'a>,
        cluster: ClusterConfig,
    ) -> Result<Self, OptimusError> {
        validate_cluster(&cluster)?;
        Ok(Self { sim, cluster })
    }

    /// Replays the trace across the cluster with the cost table built on
    /// rayon workers and (under per-blade dispatch) blades replayed
    /// concurrently. Bit-identical to [`Self::replay_observed`] with a
    /// passive observer.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for an empty or degenerate
    /// trace, a request that can never fit the KV capacity, or a replay
    /// that wedges with requests pending; propagates estimation errors.
    pub(crate) fn replay(&self, trace: &[RequestSpec]) -> Result<ClusterReport, OptimusError> {
        let table = self.sim.cost_table(trace, true)?;
        self.run(trace, &table, true, &mut NoopObserver)
    }

    /// Replays the trace with `obs` receiving every engine event (serial
    /// cost table, blades driven in index order; the report is
    /// bit-identical to [`Self::replay`] — observers are read-only).
    ///
    /// # Errors
    ///
    /// As for [`Self::replay`].
    pub(crate) fn replay_observed(
        &self,
        trace: &[RequestSpec],
        obs: &mut dyn SimObserver,
    ) -> Result<ClusterReport, OptimusError> {
        let table = self.sim.cost_table(trace, false)?;
        self.run(trace, &table, false, obs)
    }

    /// Replays the same trace under several cluster configurations —
    /// routing/dispatch/blade-count sweeps — building the iteration-cost
    /// table once (it depends only on the per-blade engine and the trace,
    /// not on the cluster shape) and replaying the variants on rayon
    /// workers. Each variant's replay is deterministic and shares no
    /// mutable state with the others, so each report is bit-identical to
    /// a standalone [`Self::replay`] with that configuration and to
    /// [`Self::replay_each_serial`].
    ///
    /// # Errors
    ///
    /// As for [`Self::replay`], plus [`OptimusError::Serving`] for a
    /// zero-blade entry.
    pub(crate) fn replay_each(
        &self,
        trace: &[RequestSpec],
        configs: &[ClusterConfig],
    ) -> Result<Vec<ClusterReport>, OptimusError> {
        let table = self.sim.cost_table(trace, true)?;
        configs
            .par_iter()
            .map(|&cluster| {
                validate_cluster(&cluster)?;
                self.run_with(cluster, trace, &table, true, &mut NoopObserver)
            })
            .collect()
    }

    /// Serial reference implementation of [`Self::replay_each`], kept as
    /// the ground truth for the rayon-equivalence suite.
    ///
    /// # Errors
    ///
    /// As for [`Self::replay_each`].
    pub(crate) fn replay_each_serial(
        &self,
        trace: &[RequestSpec],
        configs: &[ClusterConfig],
    ) -> Result<Vec<ClusterReport>, OptimusError> {
        let table = self.sim.cost_table(trace, false)?;
        configs
            .iter()
            .map(|&cluster| {
                validate_cluster(&cluster)?;
                self.run_with(cluster, trace, &table, false, &mut NoopObserver)
            })
            .collect()
    }

    /// Routes every request to a blade at its arrival instant, using a
    /// deterministic fluid model of blade service: each blade holds the
    /// estimated finish times of its in-flight requests; entries past the
    /// current arrival are drained before the routing decision.
    fn route(&self, cluster: ClusterConfig, trace: &[RequestSpec], table: &CostTable) -> Vec<u32> {
        let _span = profile::span(profile::Phase::Routing);
        let blades = cluster.blades as usize;
        let cfg = self.sim.config();
        // Estimated service seconds for one request on an otherwise busy
        // blade: its prefill plus its share of full-batch decode steps.
        let batch = cfg.max_batch.min(table.max_batch()).max(1);
        let service_s = |r: &RequestSpec| -> f64 {
            let kv = (r.prompt_tokens + r.output_tokens - 1).min(table.max_kv());
            table.prefill_cost(r.prompt_tokens)
                + f64::from(r.output_tokens) * table.decode_cost(batch, kv) / f64::from(batch)
        };
        // Per blade: (estimated finish time, KV-footprint tokens) of
        // in-flight requests, plus the latest finish time.
        let mut in_flight: Vec<VecDeque<(f64, u64)>> = vec![VecDeque::new(); blades];
        let mut last_finish = vec![0.0f64; blades];
        // Cache-aware routing models per-blade prefix residency at the
        // blade's own KV budget; without prefix caching the model is
        // absent and the policy degenerates to JSQ exactly.
        let mut residency = match (cluster.routing, cfg.prefix) {
            (RoutingPolicy::CacheAware, Some(pc)) => Some((
                ResidencyModel::new(
                    blades,
                    pc,
                    (cfg.kv_capacity_bytes / self.sim.kv_bytes_per_token()) as u64,
                ),
                pc.block_tokens,
            )),
            _ => None,
        };
        let mut assignment = Vec::with_capacity(trace.len());
        for (i, r) in trace.iter().enumerate() {
            for fl in &mut in_flight {
                while fl.front().is_some_and(|&(t, _)| t <= r.arrival_s) {
                    fl.pop_front();
                }
            }
            // The request's prefix chain, built once for both the
            // affinity lookup and the residency update.
            let chain = match (&residency, r.prefix) {
                (Some((_, block_tokens)), Some(prefix)) => Some(prefix.block_chain(*block_tokens)),
                _ => None,
            };
            let jsq = |in_flight: &[VecDeque<(f64, u64)>]| {
                (0..blades)
                    .min_by_key(|&b| in_flight[b].len())
                    .expect("blades >= 1")
            };
            let blade = match cluster.routing {
                RoutingPolicy::RoundRobin => i % blades,
                RoutingPolicy::JoinShortestQueue => jsq(&in_flight),
                RoutingPolicy::LeastLoadedKv => (0..blades)
                    .min_by_key(|&b| in_flight[b].iter().map(|&(_, kv)| kv).sum::<u64>())
                    .expect("blades >= 1"),
                RoutingPolicy::CacheAware => {
                    let fallback = jsq(&in_flight);
                    match (&residency, &chain) {
                        (Some((model, _)), Some(chain)) => model
                            .best_blade(chain)
                            .map(|(best, _)| best)
                            .filter(|&best| {
                                in_flight[best].len()
                                    <= in_flight[fallback].len() + CACHE_AWARE_MAX_IMBALANCE
                            })
                            .unwrap_or(fallback),
                        _ => fallback,
                    }
                }
            };
            if let (Some((model, _)), Some(chain)) = (&mut residency, &chain) {
                model.admit(blade, chain);
            }
            let start = last_finish[blade].max(r.arrival_s);
            let finish = start + service_s(r);
            last_finish[blade] = finish;
            in_flight[blade].push_back((finish, u64::from(r.prompt_tokens + r.output_tokens)));
            assignment.push(blade as u32);
        }
        assignment
    }

    fn run(
        &self,
        trace: &[RequestSpec],
        table: &CostTable,
        parallel: bool,
        obs: &mut dyn SimObserver,
    ) -> Result<ClusterReport, OptimusError> {
        self.run_with(self.cluster, trace, table, parallel, obs)
    }

    fn run_with(
        &self,
        cluster: ClusterConfig,
        trace: &[RequestSpec],
        table: &CostTable,
        parallel: bool,
        obs: &mut dyn SimObserver,
    ) -> Result<ClusterReport, OptimusError> {
        let mut scale = cluster.autoscale.map(ScaleState::new);
        let (states, outcomes, ctl) = match (cluster.dispatch, self.sim.config().core) {
            (DispatchMode::PerBlade, _) => self.run_per_blade(cluster, trace, table, parallel, obs),
            (DispatchMode::Central, SimCore::EventDriven) => {
                self.run_central_event(cluster, trace, table, scale.as_mut(), obs)?
            }
            (DispatchMode::Central, SimCore::PerStep) => {
                self.run_central(cluster, trace, table, scale.as_mut(), obs)?
            }
        };
        let roles = vec![BladeRole::Mixed; cluster.blades as usize];
        assemble(
            &self.sim,
            trace,
            &states,
            &outcomes,
            &roles,
            ctl.as_ref(),
            scale.as_ref(),
        )
    }

    /// Per-blade dispatch: route at arrival, then replay each blade's
    /// sub-queue independently (concurrently when `parallel`; the blades
    /// are decoupled, so serial and parallel replays are bit-identical,
    /// and `obs` — only honored on the serial path, where blades run in
    /// index order — never perturbs the result). Each blade runs its own
    /// shedding gate over its own sub-queue (a per-blade front end sees
    /// only its own strict-class completions); the disjoint shed sets are
    /// merged for the report.
    ///
    /// A blade hands back only its own `(trace index, outcome)` pairs, so
    /// the merge is O(N) and no trace-length outcome buffer outlives its
    /// blade's drive.
    fn run_per_blade(
        &self,
        cluster: ClusterConfig,
        trace: &[RequestSpec],
        table: &CostTable,
        parallel: bool,
        obs: &mut dyn SimObserver,
    ) -> Replayed {
        let blades = cluster.blades as usize;
        let assignment = self.route(cluster, trace, table);
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); blades];
        for i in ServingSimulator::arrival_queue(trace) {
            queues[assignment[i] as usize].push_back(i);
        }
        let ctx = self.sim.ctx(table);
        let drive_one = |b: usize,
                         queue: VecDeque<usize>,
                         obs: &mut dyn SimObserver|
         -> (BladeState, Vec<(usize, Outcome)>, Option<ControlState>) {
            if queue.is_empty() {
                return (
                    BladeState::new(b as u32, 0.0, self.sim.config().prefix),
                    Vec::new(),
                    None,
                );
            }
            let served: Vec<usize> = queue.iter().copied().collect();
            let mut outcomes = vec![Outcome::default(); trace.len()];
            let mut ctl = self.sim.control_state(trace.len());
            let state = ctx.drive_auto(b as u32, trace, queue, &mut outcomes, ctl.as_mut(), obs);
            let own = served.into_iter().map(|i| (i, outcomes[i])).collect();
            (state, own, ctl)
        };
        let indexed: Vec<(usize, VecDeque<usize>)> = queues.into_iter().enumerate().collect();
        let per_blade: Vec<_> = if parallel {
            indexed
                .into_par_iter()
                .map(|(b, queue)| drive_one(b, queue, &mut NoopObserver))
                .collect()
        } else {
            indexed
                .into_iter()
                .map(|(b, queue)| drive_one(b, queue, obs))
                .collect()
        };
        let mut outcomes = vec![Outcome::default(); trace.len()];
        let mut states = Vec::with_capacity(blades);
        let mut merged: Option<ControlState> = None;
        for (state, own, ctl) in per_blade {
            for (i, o) in own {
                outcomes[i] = o;
            }
            if let Some(c) = ctl {
                match merged.as_mut() {
                    Some(m) => m.absorb(&c),
                    None => merged = Some(c),
                }
            }
            states.push(state);
        }
        (states, outcomes, merged)
    }

    /// Central dispatch: one shared queue, blades coupled through it. The
    /// blade whose next action comes earliest steps next (ties broken by
    /// blade index), pulling admissions from the shared queue.
    ///
    /// Unlike single-blade replay, time is not one clock here, so a
    /// preempted request must not restart on a blade whose clock trails
    /// the eviction instant: `ready` tracks each request's re-entry time
    /// (arrival for fresh requests, the evicting iteration's end for
    /// victims), gates admission inside [`EngineCtx::step`], and not-yet-
    /// ready requests are kept behind ready ones so head-of-line blocking
    /// never wedges the loop.
    fn run_central(
        &self,
        cluster: ClusterConfig,
        trace: &[RequestSpec],
        table: &CostTable,
        mut scale: Option<&mut ScaleState>,
        obs: &mut dyn SimObserver,
    ) -> Result<Replayed, OptimusError> {
        let blades = cluster.blades as usize;
        let ctx = self.sim.ctx(table);
        let mut ctl = self.sim.control_state(trace.len());
        let mut queue = ServingSimulator::arrival_queue(trace);
        let mut outcomes = vec![Outcome::default(); trace.len()];
        let mut states: Vec<BladeState> = (0..blades)
            .map(|b| BladeState::new(b as u32, 0.0, self.sim.config().prefix))
            .collect();
        let mut ready: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
        let mut victims: Vec<usize> = Vec::new();
        let mut served = 0u32;
        while served < trace.len() as u32 {
            let next_ready = queue.iter().map(|&i| ready[i]).fold(f64::MAX, f64::min);
            // The blade whose next useful action comes earliest: its own
            // clock when it has running work, else the next request it
            // could admit. Under an autoscaler only the active prefix of
            // the blade pool competes.
            let active = scale.as_deref().map_or(blades, |s| s.active() as usize);
            let Some((at, b)) = next_blade(&states, 0..active, queue.is_empty(), next_ready) else {
                return Err(wedged("central", served, trace.len()));
            };
            let blade = &mut states[b];
            if blade.running.is_empty() {
                blade.clock = blade.clock.max(at);
            }
            self.sim
                .policy()
                .order_queue(blade.clock, trace, &mut queue);
            // Stable-partition: requests not yet ready at this blade's
            // clock go behind ready ones (policy order preserved within
            // each side), so the admission scan's head-of-line break
            // means "nothing more is eligible".
            let (eligible, waiting): (Vec<usize>, Vec<usize>) = queue
                .iter()
                .copied()
                .partition(|&i| ready[i] <= blade.clock);
            queue.clear();
            queue.extend(eligible);
            queue.extend(waiting);
            victims.clear();
            served += ctx.step(
                trace,
                &ready,
                &mut queue,
                blade,
                &mut outcomes,
                Some(&mut victims),
                None,
                ctl.as_mut(),
                obs,
            );
            for &v in &victims {
                // The victim re-enters once the preempting iteration has
                // completed; its KV is not free (nor the decision known
                // elsewhere) any earlier.
                ready[v] = states[b].clock;
            }
            if let Some(sc) = scale.as_deref_mut() {
                let now = states[b].clock;
                let depth = queue.iter().filter(|&&i| ready[i] <= now).count();
                autoscale_round(sc, &mut states, now, depth, obs);
            }
        }
        Ok((states, outcomes, ctl))
    }

    /// Event-driven twin of [`Self::run_central`] for every
    /// [`OrderingContract`]: the same round structure and bit-identical
    /// reports, but the per-round O(queue) work — the next-ready fold,
    /// the policy re-sort, the eligibility partition — is replaced by a
    /// lazy ready-time window, an incrementally ordered [`SchedQueue`]
    /// and membership bookkeeping, each skipped whenever its outcome is
    /// provably the identity.
    ///
    /// After each round the loop fast-forwards the blades through their
    /// pure-decode futures: with an autoscaler, the stepped blade alone
    /// ([`central_decode_stretch`]); without one, every running blade in
    /// one [`leapfrog_decode`] that also runs the members' own rounds in
    /// place through [`PoolRounds::round`], the body this loop runs.
    /// The leapfrog returns the requests those rounds completed or shed
    /// and this loop adds them to `served`. Control comes back here only
    /// when an idle blade's pickup is due, or when a round leaves victims
    /// queued in an FCFS or keyed queue (skipped partitions turn
    /// observable).
    fn run_central_event(
        &self,
        cluster: ClusterConfig,
        trace: &[RequestSpec],
        table: &CostTable,
        mut scale: Option<&mut ScaleState>,
        obs: &mut dyn SimObserver,
    ) -> Result<Replayed, OptimusError> {
        let blades = cluster.blades as usize;
        let ctx = self.sim.ctx(table);
        let arrival_order = ServingSimulator::arrival_queue(trace);
        let mut central = PoolRounds {
            ctx: &ctx,
            trace,
            book: ReadyBook::new(trace, &arrival_order),
            queue: SchedQueue::new(self.sim.policy(), trace, arrival_order),
            victims: Vec::new(),
            outcomes: vec![Outcome::default(); trace.len()],
            ctl: self.sim.control_state(trace.len()),
            restream: None,
        };
        let mut states: Vec<BladeState> = (0..blades)
            .map(|b| BladeState::new(b as u32, 0.0, self.sim.config().prefix))
            .collect();
        let mut served = 0u32;
        while served < trace.len() as u32 {
            let next_ready = central.book.next_ready();
            let active = scale.as_deref().map_or(blades, |s| s.active() as usize);
            let Some((at, b)) =
                next_blade(&states, 0..active, central.queue.is_empty(), next_ready)
            else {
                return Err(wedged("central", served, trace.len()));
            };
            let blade = &mut states[b];
            if blade.running.is_empty() {
                blade.clock = blade.clock.max(at);
            }
            served += central.round(blade, None, obs);
            if let Some(sc) = scale.as_deref_mut() {
                let now = states[b].clock;
                let depth = central.queue.ready_depth(&central.book.ready, now);
                autoscale_round(sc, &mut states, now, depth, obs);
                let next_ready = central.book.next_ready();
                central_decode_stretch(
                    &ctx,
                    trace,
                    &mut states,
                    b,
                    central.queue.is_empty(),
                    next_ready,
                    central.partition_observable(),
                    sc,
                    depth,
                    &central.book,
                    obs,
                );
            } else {
                served += central_leapfrog(&ctx, trace, &mut states, &mut central, obs);
            }
        }
        Ok((states, central.outcomes, central.ctl))
    }
}

/// A shared-queue pool's next-action pick among `blades` (ascending):
/// the blade whose next useful action comes earliest — its own clock
/// when it has running work, else the instant the shared queue (earliest
/// ready time `next_ready`) could hand it an admission — with ties broken
/// by blade index. `None` when no blade can act. Under an autoscaler the
/// central loops pass only the active prefix of the blade pool; the
/// disaggregated loops pass the decoders.
fn next_blade(
    states: &[BladeState],
    blades: impl IntoIterator<Item = usize>,
    queue_empty: bool,
    next_ready: f64,
) -> Option<(f64, usize)> {
    blades
        .into_iter()
        .filter_map(|b| {
            let s = &states[b];
            if !s.running.is_empty() {
                Some((s.clock, b))
            } else if !queue_empty {
                Some((s.clock.max(next_ready), b))
            } else {
                None
            }
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
}

/// Ready-time bookkeeping for a pool's shared queue: when each request
/// may (re-)enter a batch, which requests are queued, which queued ones
/// are preemption victims, and a lazy window over the queued ready times.
struct ReadyBook {
    /// Central pools: arrival for fresh requests, the evicting round's
    /// end for victims (a victim's KV is not free, nor the decision known
    /// elsewhere, any earlier). Disaggregated decode pools: the handoff's
    /// delivery, and for victims the end of the KV's re-stream.
    ready: Vec<f64>,
    in_queue: Vec<bool>,
    is_victim: Vec<bool>,
    victims_in_queue: usize,
    /// The queued victims, plus stale entries compacted as they pile up.
    victim_list: Vec<usize>,
    /// The trace's arrival instants in ascending order: the axis
    /// [`Self::transition`] binary-searches (central pools only; the
    /// autoscaler path is its one caller).
    sorted_arrivals: Vec<f64>,
    window: ReadyWindow,
}

impl ReadyBook {
    /// Every request queued at its arrival; `arrival_order` is the trace
    /// sorted by arrival ([`ServingSimulator::arrival_queue`]).
    fn new(trace: &[RequestSpec], arrival_order: &VecDeque<usize>) -> Self {
        let mut book = Self::empty(trace);
        for &i in arrival_order {
            book.push(i, trace[i].arrival_s);
        }
        book.sorted_arrivals = arrival_order.iter().map(|&i| trace[i].arrival_s).collect();
        book
    }

    /// Nothing queued: a disaggregated decode pool's book, filled as the
    /// prefill tier hands requests off.
    fn empty(trace: &[RequestSpec]) -> Self {
        Self {
            ready: trace.iter().map(|r| r.arrival_s).collect(),
            in_queue: vec![false; trace.len()],
            is_victim: vec![false; trace.len()],
            victims_in_queue: 0,
            victim_list: Vec::new(),
            sorted_arrivals: Vec::new(),
            window: ReadyWindow::new(),
        }
    }

    /// Queues fresh request `idx`, ready at `at`.
    fn push(&mut self, idx: usize, at: f64) {
        self.ready[idx] = at;
        self.in_queue[idx] = true;
        self.window.push(at, idx);
    }

    /// The earliest queued ready time (`f64::MAX` when nothing is queued).
    fn next_ready(&mut self) -> f64 {
        self.window
            .min(&self.in_queue, &self.ready)
            .unwrap_or(f64::MAX)
    }

    /// Records one round: the requests it took off the queue (admitted
    /// or shed) leave it before the round's victims re-enter it, each
    /// ready at `ready_at(victim)` — an admit-then-evict round must end
    /// with the victim counted back in.
    fn record_round(
        &mut self,
        taken: &[usize],
        victims: &[usize],
        ready_at: impl Fn(usize) -> f64,
    ) {
        for &i in taken {
            self.in_queue[i] = false;
            if self.is_victim[i] {
                self.is_victim[i] = false;
                self.victims_in_queue -= 1;
            }
        }
        for &v in victims {
            let at = ready_at(v);
            self.ready[v] = at;
            self.in_queue[v] = true;
            if !self.is_victim[v] {
                self.is_victim[v] = true;
                self.victims_in_queue += 1;
                if self.victim_list.len() >= (2 * self.victims_in_queue).max(8) {
                    let is_victim = &self.is_victim;
                    self.victim_list.retain(|&i| is_victim[i]);
                }
                self.victim_list.push(v);
            }
            self.window.push(at, v);
        }
    }

    /// The earliest instant after `clock` at which any queued request's
    /// eligibility can change: the next arrival anywhere in the trace
    /// (requests already departed arrived in the past, so the global
    /// arrival successor is never *later* than the queue's own — an early
    /// bound only truncates stretches, never extends them) or the earliest
    /// future victim re-entry. While the stepped blade's clock stays below
    /// this instant, the set of eligible requests, and with it the
    /// autoscaler's ready-depth signal, is provably frozen.
    fn transition(&self, clock: f64) -> f64 {
        let p = self.sorted_arrivals.partition_point(|&a| a <= clock);
        let mut e = self
            .sorted_arrivals
            .get(p)
            .copied()
            .unwrap_or(f64::INFINITY);
        for &v in &self.victim_list {
            if self.is_victim[v] && self.ready[v] > clock {
                e = e.min(self.ready[v]);
            }
        }
        e
    }

    /// Whether a queued victim is still blocked at `clock`: its re-entry
    /// instant lies ahead. Only then can a round's eligibility partition
    /// move anything. Requests that have not arrived yet sit behind every
    /// arrived one in arrival order, and a victim enters at the front and
    /// stays ahead of them when demoted; the keyed queue extracts blocked
    /// victims only. A round skipped while a victim is blocked would lose
    /// the demotion the per-step loop applies, so skipped rounds must not
    /// start at such a clock even when the eligible set stays frozen.
    fn victim_blocked_at(&self, clock: f64) -> bool {
        self.victim_list
            .iter()
            .any(|&v| self.is_victim[v] && self.ready[v] > clock)
    }
}

/// A blade pool's shared queue and the one round body its event loop and
/// that loop's leapfrog both run: the central loop's blades, or a
/// disaggregated loop's decode pool (`restream` set).
struct PoolRounds<'c> {
    ctx: &'c EngineCtx<'c>,
    trace: &'c [RequestSpec],
    /// Central pools: [`SchedQueue::new`] for the policy. Decode pools:
    /// FCFS, else re-sorted whole every round (handoffs append to it).
    queue: SchedQueue,
    book: ReadyBook,
    /// Scratch: the current round's preemption victims.
    victims: Vec<usize>,
    outcomes: Vec<Outcome>,
    ctl: Option<ControlState>,
    /// A disaggregated decode pool's link: a victim's KV re-streams from
    /// the prefill tier over it before the victim is ready again.
    restream: Option<&'c HandoffLink>,
}

impl PoolRounds<'_> {
    /// Runs `blade`'s round at its current clock: bring the queue order
    /// up to date, partition it so requests not yet ready go behind
    /// ready ones, step the engine (victims re-queued, shedding gate
    /// applied, `prefilled` requests admitted straight to decode) and
    /// record the round's queue changes. Returns the requests it
    /// completed or shed.
    fn round(
        &mut self,
        blade: &mut BladeState,
        prefilled: Option<&[bool]>,
        obs: &mut dyn SimObserver,
    ) -> u32 {
        let clock = blade.clock;
        self.queue.prepare(clock, self.trace, self.ctx.policy);
        if self.partition_moves(clock) {
            self.queue.partition(clock, &self.book.ready);
        }
        self.victims.clear();
        let mut tracked = TrackedQueue::new(&mut self.queue);
        let served = self.ctx.step(
            self.trace,
            &self.book.ready,
            &mut tracked,
            blade,
            &mut self.outcomes,
            Some(&mut self.victims),
            prefilled,
            self.ctl.as_mut(),
            obs,
        );
        let at = blade.clock;
        self.book
            .record_round(&tracked.admitted, &self.victims, |v| {
                self.restream
                    .map_or(at, |link| at + kv_stream_s(self.ctx, link, &self.trace[v]))
            });
        self.queue.restore_blocked();
        served
    }

    /// Whether the eligibility partition at `clock` can move anything.
    /// A keyed queue re-sequences what it takes out, so it partitions
    /// whenever a victim is queued (only victims can be arrived but not
    /// ready). A deque's partition is the identity when no victim
    /// re-entry times disturb the FCFS arrival order (central pools only:
    /// handoff ready times are not queue-ordered), when every member is
    /// already eligible, or when none is.
    fn partition_moves(&mut self, clock: f64) -> bool {
        let book = &mut self.book;
        match self.queue {
            SchedQueue::Keyed(_) => book.victims_in_queue > 0,
            SchedQueue::Fcfs(_) if self.restream.is_none() && book.victims_in_queue == 0 => false,
            _ => {
                book.window
                    .max(&book.in_queue, &book.ready)
                    .is_some_and(|t| t > clock)
                    && book
                        .window
                        .min(&book.in_queue, &book.ready)
                        .is_some_and(|t| t <= clock)
            }
        }
    }

    /// [`LeapfrogGates::open_s`]: the next queued ready time, infinite
    /// with the queue empty.
    fn open_s(&mut self) -> f64 {
        let next_ready = self.book.next_ready();
        if self.queue.is_empty() {
            f64::INFINITY
        } else {
            next_ready
        }
    }

    /// Whether skipped rounds of a central pool would re-partition the
    /// queue observably: FCFS or keyed rounds with victims queued.
    /// Clock-ordered policies re-sort from scratch each round, erasing
    /// any skipped partition (their history-independence contract).
    fn partition_observable(&self) -> bool {
        !matches!(self.queue, SchedQueue::Resort { .. }) && self.book.victims_in_queue > 0
    }
}

impl MemberRounds for PoolRounds<'_> {
    fn run(&mut self, blade: &mut BladeState, obs: &mut dyn SimObserver) -> u32 {
        self.round(blade, None, obs)
    }

    fn open_gate(&mut self) -> Option<f64> {
        let open = self.open_s();
        (!self.partition_observable()).then_some(open)
    }
}

/// One end-of-round autoscaler evaluation, shared verbatim by the
/// per-step and event-driven central loops so the cores stay
/// bit-identical: watermark check against the ready queue depth at the
/// stepped blade's clock, scale-down gated on the top active blade being
/// idle, and a scale-up's fresh blade frozen until `now + warmup`.
fn autoscale_round(
    scale: &mut ScaleState,
    states: &mut [BladeState],
    now: f64,
    ready_depth: usize,
    obs: &mut dyn SimObserver,
) {
    let top = scale.active() as usize - 1;
    let top_idle = states[top].running.is_empty();
    if let Some((from, to)) = scale.evaluate(now, ready_depth, top_idle) {
        if to > from {
            let fresh = &mut states[to as usize - 1];
            fresh.clock = fresh.clock.max(now + scale.warmup_s());
        }
        obs.on_scale(now, from, to);
    }
}

/// Fast-forwards blade `b` of an autoscaled central-dispatch loop through
/// its pure-decode future, bounded by the cluster-wide stretch horizon.
/// Only the just-stepped blade stretches: the frozen depth/idleness
/// signal the scaler evaluates is sampled at that blade's clock and does
/// not transfer to blades whose clocks trail it (without an autoscaler
/// every blade leapfrogs at once, see [`central_leapfrog`]).
///
/// * **Blade race** (start gate): every other active blade's next action
///   instant — its clock while it holds running work, else the moment
///   the shared queue could hand it an admission. Ties break the stretch
///   (the round loop resolves them by blade index).
/// * **Own admission** (start gate): with a batch slot open, the
///   earliest queued ready time; a full batch admits nothing, so the
///   queue only gates through the partition bound below.
/// * **Eligibility partition** (`partition_observable`): when skipped
///   rounds could re-partition the queue observably (victims queued in
///   an FCFS or keyed queue), a full
///   batch does not stretch while a queued victim is still blocked at
///   its clock ([`ReadyBook::victim_blocked_at`]). With none blocked,
///   every skipped partition is the identity.
/// * **Autoscaler** (end gates): evaluations fire at round *end* clocks.
///   An armed scaler (watermark branch would fire at the frozen
///   depth/idleness) bounds the stretch by its exact cooldown-expiry
///   predicate — or forbids it entirely when already out of cooldown;
///   a disarmed one is a no-op until the depth can change, i.e. until
///   the same ready-time transition.
///
/// Shedding needs no bound of its own: the gate's state moves only on
/// strict-class completions (the stretch plan ends before any
/// completion) and sheds fire only at admission instants (excluded by
/// the start gates above).
#[allow(clippy::too_many_arguments)] // one call site
fn central_decode_stretch(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    b: usize,
    queue_empty: bool,
    next_ready: f64,
    partition_observable: bool,
    scale: &ScaleState,
    scaler_depth: usize,
    book: &ReadyBook,
    obs: &mut dyn SimObserver,
) {
    if states[b].running.is_empty() {
        return;
    }
    let clock = states[b].clock;
    let batch_full = states[b].running.len() >= ctx.config.max_batch as usize;
    let active = scale.active() as usize;
    let mut start_gate = f64::INFINITY;
    for (ob, s) in states.iter().enumerate().take(active) {
        if ob == b {
            continue;
        }
        let action = if !s.running.is_empty() {
            s.clock
        } else if !queue_empty {
            s.clock.max(next_ready)
        } else {
            continue;
        };
        start_gate = start_gate.min(action);
    }
    if !batch_full && !queue_empty {
        start_gate = start_gate.min(next_ready);
    }
    if start_gate <= clock {
        return;
    }
    if batch_full && partition_observable && book.victim_blocked_at(clock) {
        return;
    }
    let mut end_gate = f64::INFINITY;
    let mut cooldown = None;
    let top = active - 1;
    let top_idle = states[top].running.is_empty();
    if scale.would_fire(scaler_depth, top_idle) {
        if scale.in_cooldown(clock) {
            cooldown = Some(scale.cooldown_guard());
        } else {
            // Out of cooldown and armed: the very next round end fires a
            // scale event. No stretch.
            return;
        }
    } else {
        end_gate = book.transition(clock);
    }
    let horizon = StretchHorizon {
        start_gate_s: start_gate,
        end_gate_s: end_gate,
        cooldown,
    };
    // Re-plan after each truncated advance: a bucket crossing changes
    // the constant cost, and the next stretch picks up from there.
    while let Some(stretch) = DecodeStretch::plan(ctx, trace, &states[b]) {
        if stretch.advance(&mut states[b], &horizon, obs) == 0 {
            break;
        }
    }
}

/// The scale-free central fast-forward: every running blade joins one
/// [`leapfrog_decode`] call that replays the skipped rounds in exact
/// per-step order. Shared gate: an idle blade's next admission instant
/// (it could win the blade race and mutate the queue). Member gates: the
/// next queued ready time while a batch slot is open (an admission
/// round). A full batch admits nothing, so its rounds matter only
/// through the eligibility partition: when skipped partitions are
/// observable and a queued victim is still blocked at the minimal member
/// clock ([`ReadyBook::victim_blocked_at`]), full members are gated at
/// once and run their rounds for real.
///
/// A member reaching its own gate runs its round in place through
/// `central`, under every ordering contract, unless skipped partitions
/// are already observable at entry (the full gate would move with every
/// round); then it ends the leapfrog. Returns the requests the in-place
/// rounds served.
fn central_leapfrog(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    central: &mut PoolRounds<'_>,
    obs: &mut dyn SimObserver,
) -> u32 {
    let observable = central.partition_observable();
    let open_s = central.open_s();
    let Some(m) = LeapfrogMembers::among(ctx, states, 0..states.len(), open_s) else {
        return 0;
    };
    let full_s = if m.any_full && observable && central.book.victim_blocked_at(m.min_clock) {
        m.min_clock
    } else {
        f64::INFINITY
    };
    let rounds: Option<&mut dyn MemberRounds> = (!observable).then_some(central);
    let gates = LeapfrogGates {
        idle_clock_s: m.idle_clock,
        open_s,
        full_s,
    };
    leapfrog_decode(ctx, trace, states, &m.lanes, gates, rounds, obs)
}

/// Who would join a leapfrog over a shared-queue pool: the running
/// blades, with the facts its gates are computed from.
struct LeapfrogMembers {
    /// The running blades, ascending.
    lanes: Vec<usize>,
    /// The earliest clock among the pool's idle blades.
    idle_clock: f64,
    /// The minimal member clock.
    min_clock: f64,
    /// Whether some member's batch is full.
    any_full: bool,
}

impl LeapfrogMembers {
    /// The members among `blades` (ascending), or `None` when there are
    /// none or an idle blade's pickup (queue open at `open_s`) is due
    /// before any member could advance.
    fn among(
        ctx: &EngineCtx<'_>,
        states: &[BladeState],
        blades: impl IntoIterator<Item = usize>,
        open_s: f64,
    ) -> Option<Self> {
        let max_batch = ctx.config.max_batch as usize;
        let mut m = Self {
            lanes: Vec::with_capacity(states.len()),
            idle_clock: f64::INFINITY,
            min_clock: f64::INFINITY,
            any_full: false,
        };
        for b in blades {
            let s = &states[b];
            if s.running.is_empty() {
                m.idle_clock = m.idle_clock.min(s.clock);
                continue;
            }
            m.min_clock = m.min_clock.min(s.clock);
            m.any_full |= s.running.len() >= max_batch;
            m.lanes.push(b);
        }
        (!m.lanes.is_empty() && m.idle_clock.max(open_s) > m.min_clock).then_some(m)
    }
}

/// Per-blade end states, per-request outcomes and the merged shedding
/// gate one classic replay loop hands to [`assemble`].
type Replayed = (Vec<BladeState>, Vec<Outcome>, Option<ControlState>);

/// The error a replay loop returns when no blade can act while requests
/// are still pending — an invariant break that would otherwise end the
/// replay with a partial report.
fn wedged(topology: &str, served: u32, requests: usize) -> OptimusError {
    OptimusError::Serving {
        reason: format!(
            "{topology} replay wedged: no blade can act with {served} of {requests} requests served"
        ),
    }
}

/// Merges per-blade states and outcomes into the cluster report
/// (shared by the classic loops and the disaggregated one).
///
/// # Errors
///
/// [`OptimusError::Serving`] when the blades' served counts (completions
/// plus sheds) do not add up to the trace length, or when a request the
/// shedding gate did not drop lacks its first-token or completion stamp
/// (tallies that add up over a double-counted completion): a loop that
/// ended early must not produce a report.
pub(crate) fn assemble(
    sim: &ServingSimulator<'_>,
    trace: &[RequestSpec],
    states: &[BladeState],
    outcomes: &[Outcome],
    roles: &[BladeRole],
    ctl: Option<&ControlState>,
    scale: Option<&ScaleState>,
) -> Result<ClusterReport, OptimusError> {
    let served: u64 = states.iter().map(|s| u64::from(s.served)).sum();
    if served != trace.len() as u64 {
        return Err(OptimusError::Serving {
            reason: format!(
                "replay ended with {served} of {} requests served",
                trace.len()
            ),
        });
    }
    let unstamped = outcomes.iter().enumerate().find(|&(i, o)| {
        !ctl.is_some_and(|c| c.is_shed(i))
            && (o.first_token_s.is_none() || o.completion_s.is_none())
    });
    if let Some((i, _)) = unstamped {
        return Err(OptimusError::Serving {
            reason: format!(
                "replay left request {} neither completed nor shed",
                trace[i].id
            ),
        });
    }
    let mut totals = ReplayTotals::default();
    for blade in states {
        totals.absorb(blade);
    }
    let report = finalize(
        sim.classes(),
        sim.kv_bytes_per_token(),
        trace,
        outcomes,
        &totals,
        ctl,
    );
    let per_blade: Vec<BladeLoad> = states
        .iter()
        .enumerate()
        .map(|(b, s)| BladeLoad {
            blade: b as u32,
            role: roles[b],
            requests: s.served,
            busy_s: s.busy_s,
            utilization: s.busy_s / report.makespan_s,
            mean_batch: if s.decode_time_s > 0.0 {
                s.batch_time_weighted / s.decode_time_s
            } else {
                0.0
            },
            evictions: s.evictions,
            prefix_hits: s.prefix_hits,
            remote_hits: s.remote_hits,
            shared_kv_peak_bytes: s.shared_peak_tokens as f64 * sim.kv_bytes_per_token(),
        })
        .collect();
    let max_util = per_blade.iter().map(|b| b.utilization).fold(0.0, f64::max);
    let min_util = per_blade
        .iter()
        .map(|b| b.utilization)
        .fold(f64::MAX, f64::min);
    let max_res = per_blade
        .iter()
        .map(|b| b.shared_kv_peak_bytes)
        .fold(0.0, f64::max);
    let min_res = per_blade
        .iter()
        .map(|b| b.shared_kv_peak_bytes)
        .fold(f64::MAX, f64::min);
    let stretches: u64 = states.iter().map(|s| s.stretches).sum();
    let stretched_iterations: u64 = states.iter().map(|s| s.stretched_iterations).sum();
    let decode_iterations: u64 = states.iter().map(|s| s.decode_iterations).sum();
    Ok(ClusterReport {
        blades: states.len() as u32,
        report,
        per_blade,
        utilization_skew: max_util - min_util,
        cache_residency_skew: max_res - min_res,
        scale_events: scale.map_or(0, ScaleState::events),
        peak_blades: scale.map_or(states.len() as u32, ScaleState::peak_active),
        stretch: StretchStats {
            stretches,
            stretched_iterations,
            single_steps: decode_iterations - stretched_iterations,
        },
    })
}

/// The disaggregated (DistServe-style) event loop: dedicated prefill
/// blades run whole-prompt passes batch-1 in policy order, stream each
/// finished prefill's KV to the decode pool over `link`, and the
/// decode-capable blades pull handed-off sequences from one shared
/// work-conserving queue (central-dispatch semantics). An evicted
/// sequence keeps its prefilled status — its KV is re-streamed from the
/// prefill tier (paying `link` again) instead of being recomputed.
///
/// The loop is serial and deterministic: the next action is always the
/// earliest-clock blade, prefill before decode on ties, lower blade
/// index last.
///
/// Dispatches to the configured replay core; both produce bit-identical
/// reports (pinned by the equivalence suite).
pub(crate) fn run_disaggregated(
    sim: &ServingSimulator<'_>,
    trace: &[RequestSpec],
    table: &CostTable,
    roles: &[BladeRole],
    link: &HandoffLink,
    obs: &mut dyn SimObserver,
) -> Result<ClusterReport, OptimusError> {
    match sim.config().core {
        SimCore::EventDriven => run_disaggregated_event(sim, trace, table, roles, link, obs),
        SimCore::PerStep => run_disaggregated_per_step(sim, trace, table, roles, link, obs),
    }
}

/// The time `r`'s prompt KV takes to stream over `link`: its handoff to
/// the decode pool, or a preempted sequence's re-stream.
fn kv_stream_s(ctx: &EngineCtx<'_>, link: &HandoffLink, r: &RequestSpec) -> f64 {
    link.transfer_s(f64::from(r.prompt_tokens) * ctx.kv_bytes_per_token)
}

/// Whether a disaggregated loop acts next on the prefill tier, given
/// both sides' next actions (prefill wins clock ties); `None` when
/// neither side can act.
fn prefill_next(prefill: Option<(f64, usize)>, decode: Option<(f64, usize)>) -> Option<bool> {
    match (prefill, decode) {
        (Some((tp, _)), Some((td, _))) => Some(tp <= td),
        (p, d) => (p.is_some() || d.is_some()).then_some(p.is_some()),
    }
}

/// The decode-capable blades of a disaggregated topology, ascending.
fn decoders(roles: &[BladeRole]) -> Vec<usize> {
    roles
        .iter()
        .enumerate()
        .filter(|&(_, r)| r.can_decode())
        .map(|(b, _)| b)
        .collect()
}

/// The prefill tier of a disaggregated replay: the prompt queue and the
/// prefill blades, which run whole-prompt passes batch-1 in policy order
/// and hand each finished prompt's KV off to the decode pool. The tier
/// never reads decode-pool state, so its next action can run wherever
/// the replay's clock order puts it: in the replay loop, or in place
/// inside a decode-pool leapfrog.
struct PrefillTier<'c> {
    ctx: &'c EngineCtx<'c>,
    trace: &'c [RequestSpec],
    link: &'c HandoffLink,
    blades: Vec<usize>,
    queue: SchedQueue,
    /// The trace in arrival order; `first` indexes the earliest prompt
    /// still queued, so the next arrival is read in amortized O(1).
    /// Empty for an FCFS queue, whose head is that prompt.
    by_arrival: Vec<usize>,
    first: usize,
    /// Which requests the tier has prefilled (and handed off).
    prefilled: Vec<bool>,
    /// [`Self::next_action`], kept current by [`Self::run`].
    next: Option<(f64, usize)>,
}

impl<'c> PrefillTier<'c> {
    /// The tier of `roles`' prefill blades with every prompt queued. A
    /// `keyed` prompt queue is kept per the policy's ordering contract
    /// ([`SchedQueue::new`]); otherwise it is re-sorted whole before
    /// every prefill, as the per-step oracle does.
    fn new(
        ctx: &'c EngineCtx<'c>,
        trace: &'c [RequestSpec],
        roles: &[BladeRole],
        link: &'c HandoffLink,
        keyed: bool,
        states: &[BladeState],
    ) -> Self {
        let order = ServingSimulator::arrival_queue(trace);
        let by_arrival = if keyed && ctx.policy.ordering() == OrderingContract::Fcfs {
            Vec::new()
        } else {
            order.iter().copied().collect()
        };
        let queue = if keyed {
            SchedQueue::new(ctx.policy, trace, order)
        } else {
            SchedQueue::resorted(order)
        };
        let mut tier = Self {
            ctx,
            trace,
            link,
            blades: roles
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r == BladeRole::Prefill)
                .map(|(b, _)| b)
                .collect(),
            queue,
            by_arrival,
            first: 0,
            prefilled: vec![false; trace.len()],
            next: None,
        };
        tier.next = tier.find_next(states);
        tier
    }

    /// The next action, `(start instant, blade)`: the earliest of the
    /// prefill blades' clocks each raised to the earliest queued arrival,
    /// ties to the lower blade index. `None` once every prompt is done.
    fn next_action(&self) -> Option<(f64, usize)> {
        self.next
    }

    /// Computes [`Self::next_action`] for the current queue and clocks.
    fn find_next(&mut self, states: &[BladeState]) -> Option<(f64, usize)> {
        let earliest = if let SchedQueue::Fcfs(q) = &self.queue {
            q.front()
        } else {
            while self
                .by_arrival
                .get(self.first)
                .is_some_and(|&i| self.prefilled[i])
            {
                self.first += 1;
            }
            self.by_arrival.get(self.first)
        };
        let next_arrival = self.trace[*earliest?].arrival_s;
        self.blades
            .iter()
            .map(|&b| (states[b].clock.max(next_arrival), b))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Runs the next action: the queue's policy head is prefilled on the
    /// chosen blade (its prefix cache and the global tier consulted) and
    /// handed off. Returns the request and the instant its KV reaches
    /// the decode pool; the caller queues it there. The action's start
    /// instants never decrease, so a keyed prompt queue absorbs arrivals
    /// exactly as repeated stable sorts order them.
    fn run(
        &mut self,
        states: &mut [BladeState],
        outcomes: &mut [Outcome],
        obs: &mut dyn SimObserver,
    ) -> (usize, f64) {
        let (at, b) = self.next.expect("a prompt is queued");
        let ctx = self.ctx;
        let blade = &mut states[b];
        blade.clock = blade.clock.max(at);
        // The prefill blade's cache changes below.
        blade.cached_plan = None;
        self.queue.prepare(blade.clock, self.trace, ctx.policy);
        let idx = self.queue.take().expect("prompt queue non-empty");
        let r = &self.trace[idx];
        let start = blade.clock.max(r.arrival_s);
        // Prefix caching on the prefill tier: a cached prefix skips its
        // prefill compute here. The blade retains no sequence KV
        // (everything streams to the decode pool), so the cache is its
        // only occupancy and is bounded by the blade's KV budget;
        // references are dropped as soon as the handoff is priced.
        let mut skip = 0u32;
        if let (Some(pc), Some(prefix)) = (ctx.config.prefix, r.prefix) {
            let (chain, hits, covered) = blade.acquire_prefix(pc, prefix);
            skip = covered;
            blade.record_prefix_admission(pc, prefix, chain.len(), hits, skip);
            if skip > 0 {
                obs.on_cache_hit(b as u32, start, r, skip);
            } else {
                obs.on_cache_miss(b as u32, start, r);
            }
            let cache = blade.cache.as_mut().expect("cache present when enabled");
            cache
                .insert(&chain, hits)
                .expect("suffix absent by acquire");
            cache
                .release(&chain, chain.len())
                .expect("acquired/inserted above");
            let budget = (ctx.config.kv_capacity_bytes / ctx.kv_bytes_per_token) as u64;
            let evicted = cache.evict_to_budget(pc.block_tokens, budget);
            blade.cache_evictions += evicted;
            for _ in 0..evicted {
                obs.on_cache_evict(b as u32, start, pc.block_tokens);
            }
            // The cache is the prefill blade's whole KV occupancy: fold
            // it into the blade's peak (and its partial tail blocks into
            // fragmentation) so shared ≤ total holds.
            let charged = cache.charged_tokens(pc.block_tokens);
            blade.shared_peak_tokens = blade.shared_peak_tokens.max(charged);
            blade.kv_peak_tokens = blade.kv_peak_tokens.max(charged);
            blade.frag_peak_tokens = blade
                .frag_peak_tokens
                .max(charged - cache.resident_tokens());
            outcomes[idx].prefix_saved_tokens += u64::from(skip);
        }
        // Global-tier race (cluster coordination): when the tier held
        // more of this prefix than the blade's own cache at arrival, the
        // remainder streams in over the tier's link iff that beats
        // recomputing it locally (see [`super::coord`]).
        let mut tier_transfer_s = 0.0;
        if let (Some(coord), Some(_)) = (ctx.coord, r.prefix) {
            let covered = coord.covered[idx].min(r.prompt_tokens);
            if covered > skip {
                let remote = covered - skip;
                let transfer = coord
                    .link
                    .transfer_s(f64::from(remote) * ctx.kv_bytes_per_token);
                let recompute = ctx.table.prefill_cost(r.prompt_tokens - skip)
                    - if r.prompt_tokens > covered {
                        ctx.table.prefill_cost(r.prompt_tokens - covered)
                    } else {
                        0.0
                    };
                let streams = transfer < recompute;
                blade.remote_hits += 1;
                obs.on_remote_cache_hit(b as u32, start, r, remote, transfer, streams);
                if streams {
                    blade.remote_streams += 1;
                    blade.remote_streamed_tokens += u64::from(remote);
                    outcomes[idx].prefix_saved_tokens += u64::from(remote);
                    tier_transfer_s = transfer;
                    skip = covered;
                } else {
                    blade.remote_recomputes += 1;
                }
            }
        }
        let cost = tier_transfer_s
            + if r.prompt_tokens > skip {
                ctx.table.prefill_cost(r.prompt_tokens - skip)
            } else {
                0.0
            };
        blade.clock = start + cost;
        blade.busy_s += cost;
        blade.max_step_s = blade.max_step_s.max(cost);
        let transfer = kv_stream_s(ctx, self.link, r);
        let ready = blade.clock + transfer;
        obs.on_handoff(b as u32, blade.clock, r, transfer);
        self.prefilled[idx] = true;
        self.next = self.find_next(states);
        (idx, ready)
    }
}

/// The event core's disaggregated state: the prefill tier and the decode
/// pool, whose leapfrog runs both the tier's actions and the pool's own
/// rounds in place.
struct Disaggregated<'c> {
    tier: PrefillTier<'c>,
    pool: PoolRounds<'c>,
    /// Whether the last in-place round left its blade's batch full.
    left_full: bool,
}

/// The replay loop runs its own prefills and decode rounds through the
/// same [`MemberRounds::feed`] and [`MemberRounds::run`] the leapfrog
/// calls.
impl MemberRounds for Disaggregated<'_> {
    fn run(&mut self, blade: &mut BladeState, obs: &mut dyn SimObserver) -> u32 {
        let served = self.pool.round(blade, Some(&self.tier.prefilled), obs);
        self.left_full = blade.running.len() >= self.pool.ctx.config.max_batch as usize;
        served
    }

    /// `None` after a round that re-queued a victim (blocked at the front
    /// while its KV re-streams, it re-partitions the pool) or left its
    /// blade full (the full gate may be unset or stale): the leapfrog
    /// exits and the next one recomputes the full gate.
    fn open_gate(&mut self) -> Option<f64> {
        let open = self.pool.open_s();
        (self.pool.victims.is_empty() && !self.left_full).then_some(open)
    }

    fn feed_at(&self) -> f64 {
        self.tier.next_action().map_or(f64::INFINITY, |(tp, _)| tp)
    }

    /// Runs the prefill tier's next action and queues its handoff in the
    /// decode pool.
    fn feed(&mut self, states: &mut [BladeState], obs: &mut dyn SimObserver) -> f64 {
        let (idx, ready) = self.tier.run(states, &mut self.pool.outcomes, obs);
        self.pool.queue.push_back(idx);
        self.pool.book.push(idx, ready);
        ready
    }
}

/// The legacy per-step disaggregated loop (the equivalence oracle). Its
/// prompt queue re-sorts before every prefill, and its decode queue is
/// re-scanned and re-partitioned every round.
fn run_disaggregated_per_step(
    sim: &ServingSimulator<'_>,
    trace: &[RequestSpec],
    table: &CostTable,
    roles: &[BladeRole],
    link: &HandoffLink,
    obs: &mut dyn SimObserver,
) -> Result<ClusterReport, OptimusError> {
    let ctx = sim.ctx(table);
    let decoders = decoders(roles);
    let mut states: Vec<BladeState> = (0..roles.len())
        .map(|b| BladeState::new(b as u32, 0.0, sim.config().prefix))
        .collect();
    let mut tier = PrefillTier::new(&ctx, trace, roles, link, false, &states);
    let mut decode_queue: VecDeque<usize> = VecDeque::new();
    let mut outcomes = vec![Outcome::default(); trace.len()];
    // Re-entry instant per request: the handoff completion for freshly
    // prefilled sequences, eviction + re-stream for preempted ones.
    let mut ready: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
    let mut victims: Vec<usize> = Vec::new();
    let mut served = 0u32;
    while served < trace.len() as u32 {
        let prefill_action = tier.next_action();
        // Earliest decode action, as in the central loop.
        let next_ready = decode_queue
            .iter()
            .map(|&i| ready[i])
            .fold(f64::MAX, f64::min);
        let decode_action = next_blade(
            &states,
            decoders.iter().copied(),
            decode_queue.is_empty(),
            next_ready,
        );
        let Some(do_prefill) = prefill_next(prefill_action, decode_action) else {
            return Err(wedged("disaggregated", served, trace.len()));
        };
        if do_prefill {
            let (idx, at) = tier.run(&mut states, &mut outcomes, obs);
            ready[idx] = at;
            decode_queue.push_back(idx);
        } else {
            let (at, b) = decode_action.expect("chosen above");
            let blade = &mut states[b];
            if blade.running.is_empty() {
                blade.clock = blade.clock.max(at);
            }
            sim.policy()
                .order_queue(blade.clock, trace, &mut decode_queue);
            let clock = blade.clock;
            let (eligible, waiting): (Vec<usize>, Vec<usize>) = decode_queue
                .iter()
                .copied()
                .partition(|&i| ready[i] <= clock);
            decode_queue.clear();
            decode_queue.extend(eligible);
            decode_queue.extend(waiting);
            victims.clear();
            served += ctx.step(
                trace,
                &ready,
                &mut decode_queue,
                blade,
                &mut outcomes,
                Some(&mut victims),
                Some(&tier.prefilled),
                None,
                obs,
            );
            for &v in &victims {
                // The victim's KV must be re-streamed from the prefill
                // tier before it can restart anywhere.
                ready[v] = states[b].clock + kv_stream_s(&ctx, link, &trace[v]);
            }
        }
    }
    assemble(sim, trace, &states, &outcomes, roles, None, None)
}

/// Event-driven twin of [`run_disaggregated_per_step`]: the same
/// prefill/decode alternation and bit-identical reports, with the
/// per-action queue work made incremental — the prompt queue keyed
/// ([`SchedQueue`]: untouched under FCFS, an ordered set under a
/// StaticKey policy) with its next arrival read off an arrival-order
/// cursor, the decode pool run by the central loops' round body
/// ([`PoolRounds`]: lazy ready-time window, FCFS no-op re-sorts and
/// identity partitions skipped).
///
/// After every decode round the decode pool leapfrogs
/// ([`disaggregated_leapfrog`]), running the prefill tier's actions and
/// the pool's own rounds in place. Control comes back here only when an
/// idle decoder's pickup is due, when an in-place round re-queues a
/// victim or leaves its batch full, or when no decoder is running.
fn run_disaggregated_event(
    sim: &ServingSimulator<'_>,
    trace: &[RequestSpec],
    table: &CostTable,
    roles: &[BladeRole],
    link: &HandoffLink,
    obs: &mut dyn SimObserver,
) -> Result<ClusterReport, OptimusError> {
    let ctx = sim.ctx(table);
    let decoders = decoders(roles);
    let mut states: Vec<BladeState> = (0..roles.len())
        .map(|b| BladeState::new(b as u32, 0.0, sim.config().prefix))
        .collect();
    let mut d = Disaggregated {
        tier: PrefillTier::new(&ctx, trace, roles, link, true, &states),
        pool: PoolRounds {
            ctx: &ctx,
            trace,
            queue: if sim.policy().ordering() == OrderingContract::Fcfs {
                SchedQueue::Fcfs(VecDeque::new())
            } else {
                SchedQueue::resorted(VecDeque::new())
            },
            book: ReadyBook::empty(trace),
            victims: Vec::new(),
            outcomes: vec![Outcome::default(); trace.len()],
            ctl: None,
            restream: Some(link),
        },
        left_full: false,
    };
    let mut served = 0u32;
    while served < trace.len() as u32 {
        let prefill_action = d.tier.next_action();
        let next_ready = d.pool.book.next_ready();
        let decode_action = next_blade(
            &states,
            decoders.iter().copied(),
            d.pool.queue.is_empty(),
            next_ready,
        );
        let Some(do_prefill) = prefill_next(prefill_action, decode_action) else {
            return Err(wedged("disaggregated", served, trace.len()));
        };
        if do_prefill {
            d.feed(&mut states, obs);
        } else {
            let (at, b) = decode_action.expect("chosen above");
            let blade = &mut states[b];
            if blade.running.is_empty() {
                blade.clock = blade.clock.max(at);
            }
            served += d.run(blade, obs);
            served += disaggregated_leapfrog(&ctx, trace, &mut states, &decoders, &mut d, obs);
        }
    }
    assemble(sim, trace, &states, &d.pool.outcomes, roles, None, None)
}

/// Fast-forwards the decode pool with a leapfrog (exact per-step round
/// order across decoders, ties broken by blade index) that runs the
/// prefill tier's actions and the pool's own rounds in place
/// ([`MemberRounds`] of [`Disaggregated`]). Shared gate: an idle
/// decoder's next admission instant. Member gates: the next queued ready
/// time while a batch slot is open, and — batch full — the next handoff
/// delivery or victim re-stream, whose arrival observably re-partitions
/// the pool (handoff ready times are not queue-ordered, so no policy
/// earns the central loop's FCFS exemption), or at once when the
/// partition already reorders the pool. Each in-place handoff lowers
/// both member gates to its ready time.
///
/// Returns the requests the leapfrog's in-place rounds served.
fn disaggregated_leapfrog(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    decoders: &[usize],
    d: &mut Disaggregated<'_>,
    obs: &mut dyn SimObserver,
) -> u32 {
    let pool = &mut d.pool;
    let open_s = pool.open_s();
    let Some(m) = LeapfrogMembers::among(ctx, states, decoders.iter().copied(), open_s) else {
        return 0;
    };
    // The delivery transition is measured from the minimal member clock
    // so it lower-bounds every member's own; a member already past it
    // parks, conservatively. Up to it the eligible set is frozen, so
    // every skipped partition equals the one at the minimal clock, which
    // moves nothing unless a blocked request sits ahead of an eligible
    // one (deliveries from several prefill blades can queue out of ready
    // order).
    let mut full_s = f64::INFINITY;
    if m.any_full {
        let ready = &pool.book.ready;
        let mut blocked_ahead = false;
        let mut reorders = false;
        for &i in pool.queue.deque().expect("decode pools keep a deque") {
            if ready[i] > m.min_clock {
                blocked_ahead = true;
                full_s = full_s.min(ready[i]);
            } else {
                reorders |= blocked_ahead;
            }
        }
        if reorders {
            full_s = m.min_clock;
        }
    }
    let gates = LeapfrogGates {
        idle_clock_s: m.idle_clock,
        open_s,
        full_s,
    };
    leapfrog_decode(ctx, trace, states, &m.lanes, gates, Some(d), obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::MultiBladeSystem;
    use crate::serving::policy::FcfsPolicy;
    use crate::serving::{ServingConfig, TraceConfig};
    use llm_workload::model::ModelZoo;
    use llm_workload::parallelism::Parallelism;

    fn cluster_parts() -> (
        crate::inference::InferenceEstimator,
        llm_workload::model::TransformerConfig,
        Parallelism,
    ) {
        let system = MultiBladeSystem::new(4).unwrap();
        (
            system.inference_estimator(),
            ModelZoo::llama2_7b(),
            Parallelism::new(1, 1, 1).unwrap(),
        )
    }

    fn mk_sim<'a>(
        est: &'a crate::inference::InferenceEstimator,
        model: &'a llm_workload::model::TransformerConfig,
        par: &'a Parallelism,
        config: ServingConfig,
    ) -> ServingSimulator<'a> {
        ServingSimulator::from_parts(est, model, par, config, Box::new(FcfsPolicy), None).unwrap()
    }

    fn mk_cluster<'a>(
        est: &'a crate::inference::InferenceEstimator,
        model: &'a llm_workload::model::TransformerConfig,
        par: &'a Parallelism,
        blades: u32,
        routing: RoutingPolicy,
        dispatch: DispatchMode,
    ) -> ClusterSimulator<'a> {
        let sim = mk_sim(est, model, par, ServingConfig::unconstrained(4));
        ClusterSimulator::from_parts(
            sim,
            ClusterConfig {
                blades,
                routing,
                dispatch,
                autoscale: None,
            },
        )
        .unwrap()
    }

    fn test_trace() -> Vec<RequestSpec> {
        TraceConfig {
            seed: 17,
            requests: 32,
            arrival_rate_per_s: 300.0,
            prompt_tokens: (16, 128),
            output_tokens: (4, 32),
        }
        .synthesize()
        .unwrap()
    }

    #[test]
    fn zero_blades_rejected() {
        let (est, model, par) = cluster_parts();
        let sim = mk_sim(&est, &model, &par, ServingConfig::unconstrained(4));
        assert!(ClusterSimulator::from_parts(
            sim,
            ClusterConfig {
                blades: 0,
                routing: RoutingPolicy::RoundRobin,
                dispatch: DispatchMode::PerBlade,
                autoscale: None,
            }
        )
        .is_err());
    }

    #[test]
    fn autoscale_config_is_validated_at_construction() {
        let (est, model, par) = cluster_parts();
        let mk = |dispatch, autoscale| {
            let sim = mk_sim(&est, &model, &par, ServingConfig::unconstrained(4));
            ClusterSimulator::from_parts(
                sim,
                ClusterConfig {
                    blades: 4,
                    routing: RoutingPolicy::RoundRobin,
                    dispatch,
                    autoscale,
                },
            )
        };
        // Per-blade routing has no shared queue for the scaler to watch.
        assert!(mk(DispatchMode::PerBlade, Some(AutoscaleConfig::new(1, 4))).is_err());
        // Degenerate dials are rejected through the same funnel.
        assert!(mk(DispatchMode::Central, Some(AutoscaleConfig::new(1, 8))).is_err());
        assert!(mk(DispatchMode::Central, Some(AutoscaleConfig::new(1, 4))).is_ok());
    }

    #[test]
    fn autoscaler_tracks_backlog_and_is_inert_when_absent() {
        // A backlogged burst on a 1..=4 autoscaled central cluster must
        // scale up (deep shared queue), complete everything, and report
        // the same request outcomes invariants as the fixed cluster;
        // both cores agree bit-for-bit.
        let (est, model, par) = cluster_parts();
        let trace = TraceConfig::burst(24, 64, 16).synthesize().unwrap();
        let mk = |core: SimCore, autoscale: Option<AutoscaleConfig>| {
            let sim = mk_sim(
                &est,
                &model,
                &par,
                ServingConfig {
                    core,
                    ..ServingConfig::unconstrained(4)
                },
            );
            ClusterSimulator::from_parts(
                sim,
                ClusterConfig {
                    blades: 4,
                    routing: RoutingPolicy::RoundRobin,
                    dispatch: DispatchMode::Central,
                    autoscale,
                },
            )
            .unwrap()
        };
        let scaler = AutoscaleConfig::new(1, 4)
            .with_watermarks(0, 4)
            .with_warmup(0.05)
            .with_cooldown(0.02);
        let scaled = mk(SimCore::PerStep, Some(scaler)).replay(&trace).unwrap();
        assert_eq!(scaled.report.completed, 24);
        assert!(
            scaled.scale_events > 0,
            "burst backlog must trigger scaling"
        );
        assert!(scaled.peak_blades > 1 && scaled.peak_blades <= 4);
        let scaled_event = mk(SimCore::EventDriven, Some(scaler))
            .replay(&trace)
            .unwrap();
        assert_eq!(scaled, scaled_event, "cores must agree under autoscaling");
        // Without an autoscaler the report pins the fixed-pool shape.
        let fixed = mk(SimCore::PerStep, None).replay(&trace).unwrap();
        assert_eq!(fixed.scale_events, 0);
        assert_eq!(fixed.peak_blades, 4);
        // A warm pool the whole time can only help the makespan.
        assert!(fixed.report.makespan_s <= scaled.report.makespan_s + 1e-9);
    }

    #[test]
    fn one_blade_round_robin_matches_single_engine() {
        // A 1-blade cluster is the single-blade engine with extra
        // bookkeeping: per-blade dispatch drives that engine over the
        // whole trace, and central dispatch must match it exactly.
        let (est, model, par) = cluster_parts();
        let trace = test_trace();
        let replay = |dispatch| {
            mk_cluster(&est, &model, &par, 1, RoutingPolicy::RoundRobin, dispatch)
                .replay(&trace)
                .unwrap()
        };
        let single = replay(DispatchMode::PerBlade);
        let central = replay(DispatchMode::Central);
        assert_eq!(central.report, single.report);
        for cluster in [single, central] {
            assert_eq!(cluster.per_blade.len(), 1);
            assert_eq!(cluster.per_blade[0].requests, 32);
        }
    }

    #[test]
    fn more_blades_cut_tails_and_makespan() {
        let (est, model, par) = cluster_parts();
        let trace = test_trace();
        let one = mk_cluster(
            &est,
            &model,
            &par,
            1,
            RoutingPolicy::JoinShortestQueue,
            DispatchMode::PerBlade,
        )
        .replay(&trace)
        .unwrap();
        let four = mk_cluster(
            &est,
            &model,
            &par,
            4,
            RoutingPolicy::JoinShortestQueue,
            DispatchMode::PerBlade,
        )
        .replay(&trace)
        .unwrap();
        assert_eq!(four.report.completed, 32);
        assert!(four.report.makespan_s <= one.report.makespan_s + 1e-12);
        assert!(four.report.ttft.p99 <= one.report.ttft.p99 + 1e-12);
        assert!(four.per_blade.iter().map(|b| b.requests).sum::<u32>() == 32);
    }

    #[test]
    fn routing_policies_spread_load() {
        let (est, model, par) = cluster_parts();
        let trace = test_trace();
        for routing in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastLoadedKv,
            RoutingPolicy::CacheAware,
        ] {
            let r = mk_cluster(&est, &model, &par, 4, routing, DispatchMode::PerBlade)
                .replay(&trace)
                .unwrap();
            assert_eq!(r.report.completed, 32, "{routing}");
            assert_eq!(r.per_blade.iter().map(|b| b.requests).sum::<u32>(), 32);
            assert!(
                r.per_blade.iter().all(|b| b.requests > 0),
                "{routing} starved a blade: {:?}",
                r.per_blade
            );
            assert!(r.utilization_skew >= 0.0 && r.utilization_skew <= 1.0);
            assert!(r.to_string().contains("blades"));
        }
    }

    #[test]
    fn cache_aware_routing_beats_jsq_on_repeat_prefixes() {
        // Two hot prefixes across 4 blades: JSQ spreads arrivals by load
        // and re-misses each prefix on every blade it lands on, while
        // cache-aware routing pins each prefix to the blade that already
        // holds it. Same trace, same aggregate KV — strictly better hit
        // rate, and the deliberate concentration shows up as residency
        // skew.
        let (est, model, par) = cluster_parts();
        let trace: Vec<RequestSpec> = test_trace()
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_prefix(1 + (i as u64 % 2), 16))
            .collect();
        let mk = |routing| {
            let sim = mk_sim(
                &est,
                &model,
                &par,
                ServingConfig::unconstrained(4).with_prefix_caching(16),
            );
            ClusterSimulator::from_parts(
                sim,
                ClusterConfig {
                    blades: 4,
                    routing,
                    dispatch: DispatchMode::PerBlade,
                    autoscale: None,
                },
            )
            .unwrap()
        };
        let aware = mk(RoutingPolicy::CacheAware).replay(&trace).unwrap();
        let jsq = mk(RoutingPolicy::JoinShortestQueue).replay(&trace).unwrap();
        assert_eq!(aware.report.completed, 32);
        assert!(
            aware.report.prefix_hit_rate() > jsq.report.prefix_hit_rate(),
            "affinity must beat cache-blind JSQ: {} vs {}",
            aware.report.prefix_hit_rate(),
            jsq.report.prefix_hit_rate()
        );
        assert!(aware.cache_residency_skew >= 0.0);
        // Serial and parallel replays agree bit-for-bit for the new policy.
        assert_eq!(
            aware,
            mk(RoutingPolicy::CacheAware)
                .replay_observed(&trace, &mut NoopObserver)
                .unwrap()
        );
    }

    #[test]
    fn central_dispatch_respects_eviction_causality_under_pressure() {
        // Tight KV capacity so preemptions happen under central dispatch:
        // an evicted request must not restart on another blade before the
        // iteration that evicted it finished, so its completion can never
        // precede the makespan implied by its recompute. Observable
        // invariants: the replay drains, evicts, and serial == parallel
        // (the ready-time bookkeeping is deterministic).
        use llm_workload::kvcache::{KvCache, KvConvention};
        let (est, model, par) = cluster_parts();
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(&model, KvConvention::Gqa);
        let config = ServingConfig {
            kv_capacity_bytes: per_token * f64::from(96 + 32) * 1.5,
            ..ServingConfig::unconstrained(6)
        };
        let trace = TraceConfig {
            seed: 13,
            requests: 18,
            arrival_rate_per_s: 500.0,
            prompt_tokens: (90, 96),
            output_tokens: (24, 32),
        }
        .synthesize()
        .unwrap();
        let mk = || {
            let sim = mk_sim(&est, &model, &par, config);
            ClusterSimulator::from_parts(
                sim,
                ClusterConfig {
                    blades: 2,
                    routing: RoutingPolicy::RoundRobin,
                    dispatch: DispatchMode::Central,
                    autoscale: None,
                },
            )
            .unwrap()
        };
        let r = mk().replay(&trace).unwrap();
        assert_eq!(r.report.completed, 18);
        assert!(r.report.evictions > 0, "capacity this tight must preempt");
        assert_eq!(r, mk().replay_observed(&trace, &mut NoopObserver).unwrap());
    }

    #[test]
    fn central_dispatch_is_work_conserving() {
        // Central dispatch never leaves a blade idle while requests wait,
        // so its makespan cannot exceed blind round-robin by much; on a
        // backlogged burst it must complete everything too.
        let (est, model, par) = cluster_parts();
        let trace = TraceConfig::burst(24, 64, 16).synthesize().unwrap();
        let central = mk_cluster(
            &est,
            &model,
            &par,
            3,
            RoutingPolicy::RoundRobin,
            DispatchMode::Central,
        )
        .replay(&trace)
        .unwrap();
        assert_eq!(central.report.completed, 24);
        let rr = mk_cluster(
            &est,
            &model,
            &par,
            3,
            RoutingPolicy::RoundRobin,
            DispatchMode::PerBlade,
        )
        .replay(&trace)
        .unwrap();
        assert!(central.report.makespan_s <= rr.report.makespan_s * 1.01);
    }

    #[test]
    fn assemble_refuses_a_replay_with_an_unfinished_request() {
        // A loop that stopped early leaves one request unserved: the
        // report must be an error, not a partial `Ok`.
        let (est, model, par) = cluster_parts();
        let sim = mk_sim(&est, &model, &par, ServingConfig::unconstrained(4));
        let trace = test_trace();
        let mut outcomes = vec![Outcome::default(); trace.len()];
        for (o, r) in outcomes.iter_mut().zip(&trace).skip(1) {
            o.first_token_s = Some(r.arrival_s + 1.0);
            o.completion_s = Some(r.arrival_s + 2.0);
        }
        let mut states = vec![BladeState::new(0, 0.0, None), BladeState::new(1, 0.0, None)];
        states[0].served = 20;
        states[1].served = trace.len() as u32 - 21;
        let roles = [BladeRole::Mixed; 2];
        let err = assemble(&sim, &trace, &states, &outcomes, &roles, None, None).unwrap_err();
        assert!(
            matches!(&err, OptimusError::Serving { reason } if reason.contains("31 of 32")),
            "{err}"
        );
    }

    #[test]
    fn assemble_refuses_a_replay_with_an_unstamped_request() {
        // The served tallies add up (a double-counted completion), yet
        // one request has no outcome: an error, not a panic in
        // `finalize`.
        let (est, model, par) = cluster_parts();
        let sim = mk_sim(&est, &model, &par, ServingConfig::unconstrained(4));
        let trace = test_trace();
        let mut outcomes = vec![Outcome::default(); trace.len()];
        for (o, r) in outcomes.iter_mut().zip(&trace) {
            o.first_token_s = Some(r.arrival_s + 1.0);
            o.completion_s = Some(r.arrival_s + 2.0);
        }
        outcomes[5] = Outcome::default();
        let mut states = vec![BladeState::new(0, 0.0, None), BladeState::new(1, 0.0, None)];
        states[0].served = 20;
        states[1].served = trace.len() as u32 - 20;
        let roles = [BladeRole::Mixed; 2];
        let err = assemble(&sim, &trace, &states, &outcomes, &roles, None, None).unwrap_err();
        let id = trace[5].id;
        assert!(
            matches!(&err, OptimusError::Serving { reason } if reason.contains(&format!("request {id} "))),
            "{err}"
        );
        // A first token without a completion is just as unfinished.
        outcomes[5].first_token_s = Some(trace[5].arrival_s + 1.0);
        assert!(assemble(&sim, &trace, &states, &outcomes, &roles, None, None).is_err());
    }
}
