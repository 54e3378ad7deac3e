//! The online cluster campaign: admit, queue, place, drain — and recover.
//!
//! A campaign serves a stream of workflow arrivals over `N` modeled nodes.
//! The loop is an event-driven simulation one level above the per-workflow
//! DES: its events are arrivals, job completions, scheduled faults, and
//! backoff expiries, and the service-time model for each running job comes
//! from the device model below it.
//!
//! ## Service model
//!
//! Each job carries `solo` — its predicted solo runtime (from the oracle's
//! per-configuration sweep) in *solo-seconds* — and `progress`, how many of
//! those it has banked. While a set `S` of jobs is resident on a node,
//! every job `j ∈ S` progresses at rate
//! `1 / (slowdown_j(S) · degrade · (1 + f))`, where the slowdowns come
//! from co-simulating `S` against the shared PMEM device
//! ([`Oracle::corun_slowdowns`], memoized per multiset), `degrade` is the
//! node's transient bandwidth-class penalty from the fault plan, and `f`
//! is the checkpoint tax (below). Whenever `S` changes — an admission, a
//! completion, or an interruption — the node is re-priced and progress
//! carries over. This is a quantized mean-field approximation:
//! interference is exact for each resident set, held piecewise-constant
//! between membership changes.
//!
//! ## Event core
//!
//! Because rates are piecewise constant, progress is closed-form: each
//! running job keeps the instant `t0` its progress was last banked and
//! the absolute time `fin` of its next event (completion, or its own
//! failure). Progress is banked only when that job's rate changes — a
//! re-pricing that moves its slowdown, a degradation window opening or
//! closing, a crash — so an instant costs work in proportion to the
//! nodes it touches, not to the cluster:
//!
//! * one min-heap keyed `(fin, node, generation)` holds each node's next
//!   job event; re-timing a node bumps its generation, and stale entries
//!   are dropped when they surface;
//! * an event is due exactly when its stored time is `<= now` — no
//!   tolerance window, so nothing is ever admitted before its own time;
//! * policy-facing node views are refreshed only for nodes whose
//!   membership, rates, staging or up/down state changed (plus, every
//!   instant, nodes homing a DAG, whose release estimates move with
//!   `now`);
//! * a free-core histogram over up nodes answers the capacity precheck,
//!   and an id → arrival map locates queue entries by binary search.
//!
//! A deliberately naive reference loop (test-only) rescans everything
//! every instant and accumulates progress eagerly; a seeded property
//! test holds the two to the same placements.
//!
//! ## Faults and checkpoint/restart
//!
//! A [`FaultSpec`] expands into a deterministic [`FaultPlan`]: per-node
//! crash/repair and degradation windows plus per-attempt job failures.
//! When checkpointing is on ([`CheckpointSpec::interval`] > 0), every job
//! writes a checkpoint image into node-local PMEM each `interval`
//! solo-seconds; the write is charged through the I/O-stack cost model
//! ([`snapshot_sw_time`](../../pmemflow_iostack/struct.StackCostModel.html)),
//! so heavier stacks pay a bigger tax `f = image_cost / interval` exactly
//! as the paper couples software cost to device latency. On a crash (or a
//! job-level failure) every resident is interrupted: its progress rolls
//! back to the last checkpoint boundary (to zero without checkpointing),
//! the difference is booked as *lost work*, and the job is re-queued with
//! exponential backoff — keeping its original arrival priority and its
//! original configuration (a checkpoint image is only valid under the
//! configuration that wrote it). A job interrupted more times than its
//! retry budget is reported as `failed` instead of silently vanishing:
//! every submission ends in exactly one job record.
//!
//! ## Workflow DAGs and staging as a second resource
//!
//! A DAG-shaped submission ([`Arrival::dag`]) expands at arrival into one
//! stage job per graph node, each a plain coupled workflow the oracle
//! already prices. Stages with unmet dependencies are *held* (invisible
//! to policies) and released — at the DAG's original arrival priority —
//! the instant their last predecessor completes; each stage's solo time
//! additionally carries its staged-I/O seconds ([`stage_io_seconds`]).
//! The DAG's whole staging footprint ([`DagSpec::staging_gib`]) is
//! co-reserved on the node its first stage lands on (the *home* node)
//! and held until every stage settles; later stages are pinned home,
//! where their staged inputs live. Capacity is hard: no placement may
//! push a node's reserved GiB past [`CampaignConfig::staging_gib`].
//! A completed checkpoint stage banks one revival: a later stage that
//! exhausts its retry budget consumes it and restarts fresh from the
//! staged snapshot instead of failing the workflow; with no banked
//! revival the DAG fails and its not-yet-running stages settle as failed
//! records (running siblings drain normally, releasing nothing new).
//!
//! ## Determinism
//!
//! Everything is ordered by `(time, id)` with total f64 comparisons, the
//! arrival stream and the fault plan are seeded independently, and all
//! parallelism (`jobs`) lives in caches whose values are bit-identical
//! however they are computed — so a campaign's JSONL is byte-identical
//! for any `--jobs` and across runs.

use crate::arrivals::{arrival_for_draw, draw_submission, generate_open, Arrival, ArrivalSpec};
use crate::policy::{NodeView, Placement, Policy, QueuedJob, ResidentView};
use crate::predict::{Oracle, TenantKey};
use crate::pricing::PriceCache;
use pmemflow_core::{json_escape, json_f64, ExecError, ExecutionParams, SchedConfig};
use pmemflow_dag::{stage_io_seconds, DagClass, DagSpec, StageKind, GIB};
use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{Direction, Locality};
use pmemflow_fault::{
    requeue_backoff, CheckpointSpec, FaultEvent, FaultEventKind, FaultPlan, FaultSpec,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Runtime threshold for bounded slowdown (seconds): jobs shorter than
/// this are not allowed to dominate the metric (Feitelson's BSLD).
pub const BSLD_TAU: f64 = 10.0;

/// Everything a campaign needs besides the policy.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of identical nodes (each the paper's dual-socket testbed
    /// unless `exec.node` says otherwise).
    pub nodes: usize,
    /// The arrival stream.
    pub arrivals: ArrivalSpec,
    /// Stream seed.
    pub seed: u64,
    /// Per-node execution parameters (device profile, I/O stack, ...).
    pub exec: ExecutionParams,
    /// Fault-injection schedule (default: nothing ever breaks).
    pub faults: FaultSpec,
    /// Checkpoint/restart parameters (default: checkpointing off — an
    /// interrupted job restarts from scratch).
    pub checkpoint: CheckpointSpec,
    /// Per-node PMEM staging capacity in GiB — the second schedulable
    /// resource. DAG submissions co-reserve their whole footprint here
    /// for their lifetime. Default 1536 GiB (12 x 128 GB DIMMs).
    pub staging_gib: f64,
    /// Re-price nodes through the oracle's full multiset path on every
    /// membership change instead of the campaign-local incremental price
    /// cache. Slower by a large constant factor at scale but bit-identical
    /// by construction — kept as the reference the property tests compare
    /// the incremental path against.
    pub full_reprice: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            nodes: 1,
            arrivals: ArrivalSpec::Poisson {
                rate: 0.01,
                count: 0,
                mix: pmemflow_workloads::Family::all().to_vec(),
                dags: Vec::new(),
            },
            seed: 0,
            exec: ExecutionParams::default(),
            faults: FaultSpec::default(),
            checkpoint: CheckpointSpec::default(),
            staging_gib: 1536.0,
            full_reprice: false,
        }
    }
}

/// Errors from running a campaign.
#[derive(Debug)]
pub enum ClusterError {
    /// Bad campaign configuration.
    Config(String),
    /// A simulation below the campaign failed.
    Exec(ExecError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(s) => write!(f, "invalid campaign: {s}"),
            ClusterError::Exec(e) => write!(f, "campaign simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ExecError> for ClusterError {
    fn from(e: ExecError) -> Self {
        ClusterError::Exec(e)
    }
}

/// The fate of one served job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission id (arrival order).
    pub id: u64,
    /// Workflow display name.
    pub workflow: String,
    /// Ranks per component.
    pub ranks: usize,
    /// Configuration it ran under (pinned across restarts).
    pub config: SchedConfig,
    /// Node it ran on last.
    pub node: usize,
    /// Submission time.
    pub arrival: f64,
    /// First admission time (restarts do not reset it).
    pub start: f64,
    /// Completion time — or, for a failed job, the time of the final
    /// interruption that exhausted its retry budget.
    pub finish: f64,
    /// Predicted solo runtime under `config` (the job's work).
    pub solo: f64,
    /// How many times the job was interrupted and re-queued.
    pub restarts: u32,
    /// Solo-seconds of progress rolled back across all interruptions.
    pub lost_work: f64,
    /// Wall-seconds spent writing checkpoint images into local PMEM.
    pub ckpt_overhead: f64,
    /// Whether the job ran to completion (`false`: retry budget exhausted).
    pub completed: bool,
    /// Owning DAG label for stage jobs (e.g. "diamond#3"); empty for
    /// plain jobs.
    pub dag: String,
    /// Stage name within the DAG (e.g. "sim", "viz"); empty for plain
    /// jobs.
    pub stage: String,
    /// GiB of staged intermediates this stage moves (in + out edges);
    /// 0 for plain jobs.
    pub staging_gib: f64,
}

impl JobRecord {
    /// Queue wait: first admission − submission.
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }

    /// Response time: completion − submission.
    pub fn response(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Stretch since first admission (interference, faults, requeue delays
    /// and checkpoint tax included): time in service over solo time.
    pub fn stretch(&self) -> f64 {
        (self.finish - self.start) / self.solo
    }

    /// Bounded slowdown: `max(response / max(solo, tau), 1)`.
    pub fn bounded_slowdown(&self, tau: f64) -> f64 {
        (self.response() / self.solo.max(tau)).max(1.0)
    }

    /// JSONL `outcome` field value.
    pub fn outcome(&self) -> &'static str {
        if self.completed {
            "completed"
        } else {
            "failed"
        }
    }
}

/// The result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Policy that served the campaign.
    pub policy: String,
    /// Stream seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Every served job, in submission order — completed *and* failed:
    /// each submission produces exactly one record.
    pub jobs: Vec<JobRecord>,
    /// Time the last job finished (or failed).
    pub makespan: f64,
    /// Per-node busy core-seconds (both sockets).
    pub busy_core_secs: Vec<f64>,
    /// Total cores per node (both sockets).
    pub cores_per_node: usize,
    /// Per-node PMEM staging capacity, GiB.
    pub staging_capacity: f64,
    /// Per-node peak of co-reserved staging GiB over the campaign — the
    /// high-water mark the hard capacity check enforced.
    pub peak_staging_gib: Vec<f64>,
    /// Distinct co-residency sets priced against the device model so far.
    /// Diagnostics only: with a shared oracle this counts other concurrent
    /// campaigns' pricing too, so it is NOT deterministic and is excluded
    /// from the JSONL.
    pub corun_sets_priced: usize,
    /// Wall seconds spent inside node re-pricing (the incremental price
    /// cache, or the oracle's full multiset path under
    /// [`CampaignConfig::full_reprice`]). Timing diagnostics — NOT
    /// deterministic, excluded from the JSONL. This is what lets the
    /// scale bench compare the two pricing paths directly instead of
    /// inferring a ~1% cost from end-to-end wall clock.
    pub reprice_secs: f64,
    /// How many node re-pricings the campaign performed (deterministic).
    pub reprice_calls: u64,
}

impl CampaignOutcome {
    /// The jobs that ran to completion (queueing aggregates cover these;
    /// failed jobs are counted separately, not averaged in).
    pub fn completed_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.completed)
    }

    /// How many jobs completed.
    pub fn completed(&self) -> usize {
        self.completed_jobs().count()
    }

    /// How many jobs exhausted their retry budget.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// Total interruptions across all jobs.
    pub fn total_restarts(&self) -> u64 {
        self.jobs.iter().map(|j| j.restarts as u64).sum()
    }

    /// Total solo-seconds rolled back across all jobs.
    pub fn total_lost_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.lost_work).sum()
    }

    /// Total wall-seconds spent writing checkpoints across all jobs.
    pub fn total_ckpt_overhead(&self) -> f64 {
        self.jobs.iter().map(|j| j.ckpt_overhead).sum()
    }

    /// Mean queue wait over completed jobs, seconds.
    pub fn mean_wait(&self) -> f64 {
        mean(self.completed_jobs().map(JobRecord::wait))
    }

    /// 95th-percentile queue wait over completed jobs (nearest-rank).
    pub fn p95_wait(&self) -> f64 {
        let mut waits: Vec<f64> = self.completed_jobs().map(JobRecord::wait).collect();
        if waits.is_empty() {
            return 0.0;
        }
        waits.sort_by(f64::total_cmp);
        waits[((waits.len() as f64 * 0.95).ceil() as usize).clamp(1, waits.len()) - 1]
    }

    /// Mean response time over completed jobs, seconds.
    pub fn mean_response(&self) -> f64 {
        mean(self.completed_jobs().map(JobRecord::response))
    }

    /// Mean bounded slowdown over completed jobs (tau = [`BSLD_TAU`]).
    pub fn mean_bounded_slowdown(&self) -> f64 {
        mean(self.completed_jobs().map(|j| j.bounded_slowdown(BSLD_TAU)))
    }

    /// Maximum bounded slowdown over completed jobs.
    pub fn max_bounded_slowdown(&self) -> f64 {
        self.completed_jobs()
            .map(|j| j.bounded_slowdown(BSLD_TAU))
            .fold(1.0, f64::max)
    }

    /// Per-node utilization: busy core-seconds over `cores × makespan`.
    pub fn utilization(&self) -> Vec<f64> {
        let denom = self.cores_per_node as f64 * self.makespan;
        self.busy_core_secs
            .iter()
            .map(|&b| if denom > 0.0 { b / denom } else { 0.0 })
            .collect()
    }

    /// Serialize the campaign as JSON Lines: one `"kind":"job"` record per
    /// job (submission order) and one closing `"kind":"campaign"` summary.
    /// Every field is deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity((self.jobs.len() + 1) * 256);
        for j in &self.jobs {
            out.push_str(&format!(
                "{{\"kind\":\"job\",\"policy\":\"{}\",\"seed\":{},\"id\":{},\"workflow\":\"{}\",\
                 \"ranks\":{},\"config\":\"{}\",\"dag\":\"{}\",\"stage\":\"{}\",\
                 \"staging_gib\":{},\"node\":{},\"arrival_s\":{},\"start_s\":{},\
                 \"finish_s\":{},\"wait_s\":{},\"response_s\":{},\"solo_s\":{},\"stretch\":{},\
                 \"bounded_slowdown\":{},\"restarts\":{},\"lost_work_s\":{},\
                 \"ckpt_overhead_s\":{},\"outcome\":\"{}\"}}\n",
                json_escape(&self.policy),
                self.seed,
                j.id,
                json_escape(&j.workflow),
                j.ranks,
                j.config.label(),
                json_escape(&j.dag),
                json_escape(&j.stage),
                json_f64(j.staging_gib),
                j.node,
                json_f64(j.arrival),
                json_f64(j.start),
                json_f64(j.finish),
                json_f64(j.wait()),
                json_f64(j.response()),
                json_f64(j.solo),
                json_f64(j.stretch()),
                json_f64(j.bounded_slowdown(BSLD_TAU)),
                j.restarts,
                json_f64(j.lost_work),
                json_f64(j.ckpt_overhead),
                j.outcome(),
            ));
        }
        let util = self
            .utilization()
            .iter()
            .map(|u| json_f64(*u))
            .collect::<Vec<_>>()
            .join(",");
        let peaks = self
            .peak_staging_gib
            .iter()
            .map(|g| json_f64(*g))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"kind\":\"campaign\",\"policy\":\"{}\",\"seed\":{},\"nodes\":{},\"jobs\":{},\
             \"completed\":{},\"failed\":{},\"makespan_s\":{},\"mean_wait_s\":{},\
             \"p95_wait_s\":{},\"mean_response_s\":{},\"mean_bounded_slowdown\":{},\
             \"max_bounded_slowdown\":{},\"total_restarts\":{},\"total_lost_work_s\":{},\
             \"total_ckpt_overhead_s\":{},\"staging_capacity_gib\":{},\
             \"peak_staging_gib\":[{}],\"utilization\":[{}]}}\n",
            json_escape(&self.policy),
            self.seed,
            self.nodes,
            self.jobs.len(),
            self.completed(),
            self.failed(),
            json_f64(self.makespan),
            json_f64(self.mean_wait()),
            json_f64(self.p95_wait()),
            json_f64(self.mean_response()),
            json_f64(self.mean_bounded_slowdown()),
            json_f64(self.max_bounded_slowdown()),
            self.total_restarts(),
            json_f64(self.total_lost_work()),
            json_f64(self.total_ckpt_overhead()),
            json_f64(self.staging_capacity),
            peaks,
            util,
        ));
        out
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Check a campaign's invariants from its records alone:
///
/// * one record per job id, ids contiguous from 0, every node id in range;
/// * `arrival <= start <= finish` on every record, exactly;
/// * per node, restart-free records (below) never overlap past one
///   socket's cores;
/// * no node's staging peak exceeds capacity;
/// * when every record is restart-free, each node's busy core-seconds
///   equal Σ 2 · ranks · (finish − start) over its records, to 1e-9
///   relative.
///
/// A record is restart-free when it was never interrupted: no restarts
/// and no lost work (a stage revived from a checkpoint snapshot restarts
/// its count, not its lost work). Its `[start, finish)` is then exactly
/// one residency on `node`.
pub fn audit(out: &CampaignOutcome) -> Result<(), String> {
    let cap = out.cores_per_node / 2;
    if out.busy_core_secs.len() != out.nodes || out.peak_staging_gib.len() != out.nodes {
        return Err(format!("per-node vectors do not cover {} nodes", out.nodes));
    }
    for (i, j) in out.jobs.iter().enumerate() {
        if j.id != i as u64 {
            return Err(format!("record {i} carries id {}: ids must be 0..n", j.id));
        }
        if j.node >= out.nodes {
            return Err(format!("job {} on node {} of {}", j.id, j.node, out.nodes));
        }
        if !(j.arrival <= j.start && j.start <= j.finish) {
            return Err(format!(
                "job {}: arrival {} start {} finish {} out of order",
                j.id, j.arrival, j.start, j.finish
            ));
        }
    }
    for (node, &peak) in out.peak_staging_gib.iter().enumerate() {
        if peak > out.staging_capacity + 1e-9 {
            return Err(format!(
                "node {node}: staging peak {peak} GiB over capacity {}",
                out.staging_capacity
            ));
        }
    }
    let restart_free = |j: &&JobRecord| j.restarts == 0 && j.lost_work == 0.0;
    // Interval sweep: at equal times a departure frees its cores before
    // an arrival claims them.
    let mut edges: Vec<Vec<(f64, isize)>> = vec![Vec::new(); out.nodes];
    for j in out
        .jobs
        .iter()
        .filter(restart_free)
        .filter(|j| j.finish > j.start)
    {
        edges[j.node].push((j.start, j.ranks as isize));
        edges[j.node].push((j.finish, -(j.ranks as isize)));
    }
    for (node, mut edges) in edges.into_iter().enumerate() {
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0isize;
        for (t, delta) in edges {
            used += delta;
            if used > cap as isize {
                return Err(format!("node {node} holds {used} > {cap} cores at t={t}"));
            }
        }
    }
    if out.jobs.iter().all(|j| restart_free(&j)) {
        let mut busy = vec![0.0f64; out.nodes];
        for j in &out.jobs {
            busy[j.node] += 2.0 * j.ranks as f64 * (j.finish - j.start);
        }
        for (node, (&want, &got)) in busy.iter().zip(&out.busy_core_secs).enumerate() {
            if (want - got).abs() > 1e-9 * want.abs().max(got.abs()) {
                return Err(format!(
                    "node {node}: busy {got} core-s, records add up to {want}"
                ));
            }
        }
    }
    Ok(())
}

/// One running attempt. Between rate changes its progress is closed-form
/// — `progress + (t − t0) / wall_mult` solo-seconds at time `t` — and its
/// next event fires at the stored absolute time `fin`.
struct Running {
    id: u64,
    workflow: Arc<str>,
    ranks: usize,
    config: SchedConfig,
    /// Interned pricing identity of `(workflow, ranks, config)`.
    tenant: u32,
    arrival: f64,
    /// First admission time, preserved across restarts.
    first_start: f64,
    client: Option<usize>,
    /// Predicted solo runtime under `config`.
    solo: f64,
    /// Solo-seconds of work banked at `t0` (monotone within an attempt).
    progress: f64,
    /// When `progress` and `ckpt_overhead` were last banked.
    t0: f64,
    /// When this attempt was placed: its busy core-seconds run from here.
    placed: f64,
    /// Absolute time of the attempt's next event at the current rate;
    /// infinite until a fresh placement is first priced.
    fin: f64,
    restarts: u32,
    lost_work: f64,
    ckpt_overhead: f64,
    /// Current rate divisor from the node's resident set.
    slowdown: f64,
    /// Solo-progress at which this attempt dies of its own cause (drawn
    /// from the fault plan at placement; always < `solo` when present).
    fail_at: Option<f64>,
    /// `(dag index, stage index)` for DAG stage jobs.
    dag: Option<(u32, usize)>,
}

impl Running {
    /// The progress at which the next per-job event fires: the attempt's
    /// own failure point if one is scheduled, completion otherwise.
    fn target(&self) -> f64 {
        self.fail_at.unwrap_or(self.solo)
    }

    /// Wall-seconds per solo-second on a node with penalty `degrade` and
    /// checkpoint multiplier `ckpt_mult`.
    fn wall_mult(&self, degrade: f64, ckpt_mult: f64) -> f64 {
        self.slowdown * degrade * ckpt_mult
    }

    /// Bank progress and checkpoint time from `t0` to `now` at
    /// `wall_mult`, the rate that held since `t0`. An attempt whose event
    /// is due has reached its target exactly.
    fn bank(&mut self, now: f64, wall_mult: f64, ckpt_share: f64) {
        if self.fin <= now {
            self.progress = self.target();
        } else {
            self.progress += (now - self.t0) / wall_mult;
        }
        // Checkpoint writes claim their share of every wall-second,
        // whatever the rate (slowdown and degrade stretch both alike).
        self.ckpt_overhead += (now - self.t0) * ckpt_share;
        self.t0 = now;
    }

    /// Re-time the next event from the banked progress at `wall_mult`.
    fn retime(&mut self, wall_mult: f64) {
        self.fin = self.t0 + (self.target() - self.progress).max(0.0) * wall_mult;
    }
}

struct NodeState {
    running: Vec<Running>,
    busy_core_secs: f64,
    /// Whether the node is alive (crashed nodes hold no jobs).
    up: bool,
    /// Transient bandwidth-class penalty (1.0 = healthy).
    degrade: f64,
    /// Cores in use per socket: the residents' summed ranks.
    used: usize,
    /// Bumped whenever the node is re-keyed in the event heap; entries
    /// carrying an older generation are stale.
    generation: u64,
}

struct Queued {
    /// The policy-facing fields (id, workflow, ranks, arrival), stored
    /// in the shape policies consume so a scheduling round can hand out
    /// `&QueuedJob` borrows instead of cloning every entry.
    job: QueuedJob,
    client: Option<usize>,
    restarts: u32,
    /// Solo-seconds of checkpointed progress the next attempt resumes from.
    resume: f64,
    /// Earliest time the job may be placed again (backoff after restarts).
    eligible: f64,
    lost_work: f64,
    ckpt_overhead: f64,
    /// First admission time, once the job has started at least once.
    first_start: Option<f64>,
    /// Configuration pinned by the first attempt: a checkpoint image is
    /// only valid under the configuration that wrote it.
    config: Option<SchedConfig>,
    /// `(dag index, stage index)` for DAG stage jobs.
    dag: Option<(u32, usize)>,
}

/// Whether a queued job's backoff has expired at `now`. Exact: a job is
/// never placed before its expiry and never waits past it, because the
/// expiry itself is an event candidate.
fn backoff_expired(q: &Queued, now: f64) -> bool {
    q.eligible <= now
}

/// The wait queue, sorted by (arrival, id): a restarted job re-enters at
/// its original priority, not at the back. With the id → arrival map
/// supplying the sort key, locating any entry is a binary search, and
/// the ring buffer makes an insert shift only the shorter side — fresh
/// arrivals (largest key) cost O(log n) + O(1) even under a backlog of
/// tens of thousands of entries. Two exact indexes spare the event loop
/// O(queue) scans: pending backoff expiries and the multiset of `ranks`.
struct Queue {
    entries: VecDeque<Queued>,
    arrival_of: HashMap<u64, f64>,
    /// Multiset of future backoff expiries. Pruned on read once `now`
    /// passes them; an entry that leaves the queue early (a DAG cascade)
    /// takes its expiry with it.
    backoff: BTreeMap<OrdF64, usize>,
    /// Multiset of `ranks` over the whole queue, backoff state ignored:
    /// exact for eligibility-filtered queries while no backoff is
    /// pending, which is every round of a fault-free campaign.
    rank_counts: BTreeMap<usize, usize>,
}

impl Queue {
    fn new() -> Queue {
        Queue {
            entries: VecDeque::new(),
            arrival_of: HashMap::new(),
            backoff: BTreeMap::new(),
            rank_counts: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn push(&mut self, q: Queued, now: f64) {
        *self.rank_counts.entry(q.job.ranks).or_insert(0) += 1;
        if q.eligible > now {
            *self.backoff.entry(OrdF64(q.eligible)).or_insert(0) += 1;
        }
        self.arrival_of.insert(q.job.id, q.job.arrival);
        let key = (q.job.arrival, q.job.id);
        let at = self
            .entries
            .partition_point(|o| (o.job.arrival, o.job.id) <= key);
        self.entries.insert(at, q);
    }

    fn position(&self, id: u64) -> Option<usize> {
        let key = (*self.arrival_of.get(&id)?, id);
        let at = self
            .entries
            .partition_point(|o| (o.job.arrival, o.job.id) < key);
        debug_assert_eq!(self.entries[at].job.id, id, "id index out of sync");
        Some(at)
    }

    fn get(&self, id: u64) -> Option<&Queued> {
        self.position(id).map(|at| &self.entries[at])
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Queued> {
        self.position(id).map(|at| &mut self.entries[at])
    }

    fn remove(&mut self, id: u64, now: f64) -> Option<Queued> {
        let at = self.position(id)?;
        let q = self.entries.remove(at).expect("indexed entry is queued");
        self.arrival_of.remove(&id);
        match self.rank_counts.get_mut(&q.job.ranks) {
            Some(1) => {
                self.rank_counts.remove(&q.job.ranks);
            }
            Some(n) => *n -= 1,
            None => unreachable!("rank multiset out of sync with the queue"),
        }
        if q.eligible > now {
            match self.backoff.get_mut(&OrdF64(q.eligible)) {
                Some(1) => {
                    self.backoff.remove(&OrdF64(q.eligible));
                }
                Some(n) => *n -= 1,
                None => unreachable!("backoff multiset out of sync with the queue"),
            }
        }
        Some(q)
    }

    /// Drop expiries at or before `now`; what remains are exactly the
    /// queued entries still in backoff.
    fn prune(&mut self, now: f64) {
        while let Some(entry) = self.backoff.first_entry() {
            if entry.key().0 > now {
                break;
            }
            entry.remove();
        }
    }

    /// The earliest backoff expiry strictly after `now`, if any.
    fn next_expiry(&mut self, now: f64) -> Option<f64> {
        self.prune(now);
        self.backoff.keys().next().map(|e| e.0)
    }

    /// Smallest `ranks` among entries eligible at `now`: the rank
    /// multiset when nothing is in backoff, a scan otherwise.
    fn min_eligible_ranks(&mut self, now: f64) -> Option<usize> {
        self.prune(now);
        if self.backoff.is_empty() {
            self.rank_counts.keys().next().copied()
        } else {
            self.entries
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.ranks)
                .min()
        }
    }

    /// The policy-facing view at `now`: the eligible entries in queue
    /// order. With no backoff pending the filter is the identity.
    fn view(&self, now: f64) -> Vec<&QueuedJob> {
        if self.backoff.is_empty() {
            return self.entries.iter().map(|q| &q.job).collect();
        }
        self.entries
            .iter()
            .filter(|q| backoff_expired(q, now))
            .map(|q| &q.job)
            .collect()
    }
}

/// What became of an interrupted attempt.
enum Interrupted {
    /// Back to the queue, to resume from `resume` after the backoff.
    Requeue(Queued),
    /// Retry budget exhausted: the submission ends here.
    Failed(JobRecord),
}

/// Roll an interrupted attempt back to its last checkpoint and decide its
/// fate under the retry budget. `r.progress` must be banked to `now`.
fn interrupt(r: Running, node: usize, now: f64, ckpt: &CheckpointSpec) -> Interrupted {
    let resume = if ckpt.interval > 0.0 {
        ((r.progress / ckpt.interval).floor() * ckpt.interval).min(r.progress)
    } else {
        0.0
    };
    let lost_work = r.lost_work + (r.progress - resume).max(0.0);
    let restarts = r.restarts + 1;
    if restarts > ckpt.retry_budget {
        return Interrupted::Failed(JobRecord {
            id: r.id,
            workflow: r.workflow.to_string(),
            ranks: r.ranks,
            config: r.config,
            node,
            arrival: r.arrival,
            start: r.first_start,
            finish: now,
            solo: r.solo,
            restarts,
            lost_work,
            ckpt_overhead: r.ckpt_overhead,
            completed: false,
            // DAG identity is filled in by the caller, which owns the
            // stage-graph state.
            dag: String::new(),
            stage: String::new(),
            staging_gib: 0.0,
        });
    }
    let backoff = requeue_backoff(ckpt.backoff_base, restarts);
    Interrupted::Requeue(Queued {
        job: QueuedJob {
            id: r.id,
            workflow: r.workflow,
            ranks: r.ranks,
            arrival: r.arrival,
            // The reservation persists across restarts (it is held for
            // the DAG's lifetime) — a restarted stage carries none.
            staging: 0.0,
            // A stage restarts where its staged inputs live: PMEM
            // staging survives the crash, the attempt does not.
            home: r.dag.map(|_| node),
        },
        client: r.client,
        restarts,
        resume,
        eligible: now + backoff,
        lost_work,
        ckpt_overhead: r.ckpt_overhead,
        first_start: Some(r.first_start),
        config: Some(r.config),
        dag: r.dag,
    })
}

/// Rebuild one node's policy-facing view in place, reusing its
/// allocations. `homed` lists the DAGs holding staging on the node.
fn refresh_view(
    view: &mut NodeView,
    n: &NodeState,
    staging: &StagingState,
    homed: &[u32],
    dags: &[DagRun],
    now: f64,
) {
    view.up = n.up;
    view.residents.clear();
    view.residents
        .extend(n.running.iter().map(|r| ResidentView {
            id: r.id,
            workflow: r.workflow.clone(),
            ranks: r.ranks,
            config: r.config,
            projected_finish: r.fin,
        }));
    view.staging_reserved = staging.reserved[view.id];
    view.staged_gib = staging.live[view.id];
    view.staging_holds.clear();
    view.staging_holds.extend(homed.iter().map(|&di| {
        let d = &dags[di as usize];
        (now + d.remaining_solo(), d.reservation)
    }));
}

/// Per-node PMEM staging occupancy — the second schedulable resource.
/// `reserved` is what placements are checked against (hard capacity);
/// `live` tracks the staged intermediates actually resident, which the
/// interference-aware policy prices as pressure.
struct StagingState {
    capacity: f64,
    reserved: Vec<f64>,
    live: Vec<f64>,
    peak: Vec<f64>,
}

impl StagingState {
    fn new(capacity: f64, nodes: usize) -> StagingState {
        StagingState {
            capacity,
            reserved: vec![0.0; nodes],
            live: vec![0.0; nodes],
            peak: vec![0.0; nodes],
        }
    }

    fn reserve(&mut self, node: usize, gib: f64) {
        self.reserved[node] += gib;
        self.peak[node] = self.peak[node].max(self.reserved[node]);
    }
}

/// Where one DAG stage is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StageState {
    /// Dependencies unmet: invisible to policies.
    Held,
    /// In the queue (ready or in backoff).
    Ready,
    /// Resident on the home node.
    Running,
    /// Done: completed, failed, or cascade-failed.
    Settled,
}

/// One in-flight DAG submission's state.
struct DagRun {
    /// DAG label ("class#id"), the JSONL `dag` field of every stage.
    label: Arc<str>,
    spec: DagSpec,
    arrival: f64,
    client: Option<usize>,
    /// Job id of stage 0; stage `i` is `first_stage_id + i`.
    first_stage_id: u64,
    /// Per-stage count of predecessors not yet completed.
    deps_left: Vec<usize>,
    state: Vec<StageState>,
    /// Stages not yet settled; 0 means the DAG is finished.
    unsettled: usize,
    /// Per-stage estimated solo runtime (oracle best-config solo plus
    /// staged-I/O seconds) — release-time estimates for EASY's dual
    /// shadow and the solo of cascade-failed records.
    est_solo: Vec<f64>,
    /// Per-stage staged-I/O solo-seconds, added onto the oracle solo at
    /// placement.
    extra_solo: Vec<f64>,
    /// Whole-DAG staging footprint, GiB, co-reserved on `home` from the
    /// first stage placement until the last stage settles.
    reservation: f64,
    /// Node holding the reservation (set at first placement).
    home: Option<usize>,
    /// GiB of intermediates currently live on the home node.
    live_gib: f64,
    /// Banked checkpoint revivals: one per completed checkpoint stage.
    tokens: u32,
    /// A stage exhausted its retry budget with no revival banked; held
    /// and queued stages were settled as failed, nothing new releases.
    failed: bool,
}

impl DagRun {
    /// Expand DAG submission `a` into stage jobs with ids from
    /// `first_stage_id`, contiguous in stage order: stages without
    /// predecessors start ready, the rest held.
    fn expand(
        a: Arrival,
        first_stage_id: u64,
        config: &CampaignConfig,
        oracle: &Oracle,
    ) -> Result<DagRun, ClusterError> {
        let spec = a.dag.expect("a DAG submission carries its graph");
        let n = spec.stages.len();
        let extra_solo: Vec<f64> = (0..n)
            .map(|i| stage_io_seconds(&spec, i, &config.exec))
            .collect();
        let est_solo: Vec<f64> = spec
            .stages
            .iter()
            .zip(&extra_solo)
            .map(|(st, extra)| {
                let name = st.family.name();
                oracle.solo_runtime(name, st.ranks, oracle.best_config(name, st.ranks)) + extra
            })
            .collect();
        let reservation = spec.staging_gib();
        if reservation > config.staging_gib + 1e-9 {
            return Err(ClusterError::Config(format!(
                "DAG {} needs {reservation:.1} GiB staging but nodes hold {:.1}",
                a.workflow, config.staging_gib
            )));
        }
        let deps_left: Vec<usize> = (0..n).map(|i| spec.predecessors(i).len()).collect();
        let state = deps_left
            .iter()
            .map(|&dl| {
                if dl == 0 {
                    StageState::Ready
                } else {
                    StageState::Held
                }
            })
            .collect();
        Ok(DagRun {
            label: Arc::from(a.workflow.as_str()),
            spec,
            arrival: a.time,
            client: a.client,
            first_stage_id,
            deps_left,
            state,
            unsettled: n,
            est_solo,
            extra_solo,
            reservation,
            home: None,
            live_gib: 0.0,
            tokens: 0,
            failed: false,
        })
    }

    /// Estimated solo-seconds of work left: the release horizon of the
    /// staging hold.
    fn remaining_solo(&self) -> f64 {
        self.state
            .iter()
            .zip(&self.est_solo)
            .filter(|(st, _)| **st != StageState::Settled)
            .map(|(_, s)| s)
            .sum()
    }

    /// GiB of staged intermediates stage `i` touches (in + out edges).
    fn stage_staging_gib(&self, i: usize) -> f64 {
        (self.spec.stage_in_bytes(i) + self.spec.stage_out_bytes(i)) as f64 / GIB
    }
}

/// `f64` with the engine's total order, for use as a heap or map key.
#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The node re-pricing machinery: either the campaign-local incremental
/// [`PriceCache`] (default) or the oracle's full multiset path (behind
/// [`CampaignConfig::full_reprice`]). Both assign every resident the
/// bitwise-identical slowdown.
struct Repricer {
    prices: PriceCache,
    ids: Vec<u32>,
    slowdowns: Vec<f64>,
    full: bool,
    /// Wall nanoseconds spent repricing, and how many times — surfaced
    /// on [`CampaignOutcome`] so benchmarks can time the pricing path in
    /// isolation.
    spent_ns: u64,
    calls: u64,
}

impl Repricer {
    fn new(full: bool) -> Repricer {
        Repricer {
            prices: PriceCache::new(),
            ids: Vec::new(),
            slowdowns: Vec::new(),
            full,
            spent_ns: 0,
            calls: 0,
        }
    }

    /// Price a node's resident multiset (memoized): one slowdown per
    /// resident, in node order.
    fn reprice(&mut self, running: &[Running], oracle: &Oracle) -> Result<&[f64], ClusterError> {
        let t0 = std::time::Instant::now();
        self.calls += 1;
        let out = self.price(running, oracle);
        self.spent_ns += t0.elapsed().as_nanos() as u64;
        out?;
        Ok(&self.slowdowns)
    }

    fn price(&mut self, running: &[Running], oracle: &Oracle) -> Result<(), ClusterError> {
        if self.full {
            let keys: Vec<TenantKey> = running
                .iter()
                .map(|r| TenantKey::new(&r.workflow, r.ranks, r.config))
                .collect();
            self.slowdowns = oracle.corun_slowdowns(&keys)?;
        } else {
            self.ids.clear();
            self.ids.extend(running.iter().map(|r| r.tenant));
            self.prices.price(oracle, &self.ids, &mut self.slowdowns)?;
        }
        for s in &mut self.slowdowns {
            *s = s.max(1.0);
        }
        Ok(())
    }
}

/// Closed-loop stream state inside the loop.
struct ClosedLoop {
    think: f64,
    mix: Vec<pmemflow_workloads::Family>,
    dags: Vec<DagClass>,
    rng: SplitMix64,
    /// Submissions not yet made.
    budget: u64,
    next_id: u64,
}

impl ClosedLoop {
    fn submit(&mut self, time: f64, client: usize) -> Option<Arrival> {
        if self.budget == 0 {
            return None;
        }
        self.budget -= 1;
        let draw = draw_submission(&self.mix, &self.dags, &mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        Some(arrival_for_draw(
            draw,
            id,
            time,
            Some(client),
            &mut self.rng,
        ))
    }

    /// Submit `client`'s next job a think time after `now`, keeping
    /// `pending` sorted by (time, id).
    fn resubmit(&mut self, now: f64, client: usize, pending: &mut VecDeque<Arrival>) {
        if let Some(a) = self.submit(now + self.think, client) {
            let at = pending.partition_point(|p| (p.time, p.id) <= (a.time, a.id));
            pending.insert(at, a);
        }
    }
}

/// The arrival source: the whole open stream up front, or each closed-loop
/// client's first submission (all at t = 0) plus the loop that feeds the
/// rest.
fn arrival_source(config: &CampaignConfig) -> (VecDeque<Arrival>, Option<ClosedLoop>) {
    match &config.arrivals {
        ArrivalSpec::Closed {
            clients,
            think,
            count,
            mix,
            dags,
        } => {
            let mut state = ClosedLoop {
                think: *think,
                mix: mix.clone(),
                dags: dags.clone(),
                rng: SplitMix64::new(config.seed),
                budget: *count,
                next_id: 0,
            };
            let pending = (0..*clients).filter_map(|c| state.submit(0.0, c)).collect();
            (pending, Some(state))
        }
        open => {
            // Copied, not converted: the generated vector carries up to
            // a doubling's worth of spare capacity, the copy none.
            let mut pending = VecDeque::new();
            pending.extend(generate_open(open, config.seed).expect("open stream"));
            (pending, None)
        }
    }
}

/// Checkpoint tax `f`: one image of `state_bytes` (written as
/// `object_bytes` objects) into local PMEM every `interval` solo-seconds,
/// charged through the same stack cost model the in-situ I/O pays —
/// heavier software stacks tax checkpoints harder. Zero when
/// checkpointing is off.
fn checkpoint_tax(config: &CampaignConfig) -> f64 {
    let ckpt = &config.checkpoint;
    if ckpt.interval <= 0.0 {
        return 0.0;
    }
    let cost = config
        .exec
        .cost_override
        .unwrap_or_else(|| config.exec.stack.cost_model());
    let objects = ckpt.state_bytes.div_ceil(ckpt.object_bytes);
    let latency = config
        .exec
        .profile
        .latency(Direction::Write, Locality::Local);
    cost.snapshot_sw_time(Direction::Write, objects, ckpt.object_bytes, latency) / ckpt.interval
}

/// The queue entry for plain submission `a` under job id `id`.
fn plain_entry(a: Arrival, id: u64) -> Queued {
    Queued {
        job: QueuedJob {
            id,
            workflow: a.workflow.into(),
            ranks: a.ranks,
            arrival: a.time,
            staging: 0.0,
            home: None,
        },
        client: a.client,
        restarts: 0,
        resume: 0.0,
        eligible: a.time,
        lost_work: 0.0,
        ckpt_overhead: 0.0,
        first_start: None,
        config: None,
        dag: None,
    }
}

/// Build the queue entry for a released (or source) DAG stage. The
/// entry keeps the DAG's arrival as its priority; an un-homed DAG's
/// stages each carry the whole reservation (the first one placed homes
/// the DAG and the siblings are rewritten pinned and weightless).
fn stage_entry(d: &DagRun, di: u32, si: usize, now: f64) -> Queued {
    let stage = &d.spec.stages[si];
    Queued {
        job: QueuedJob {
            id: d.first_stage_id + si as u64,
            workflow: stage.family.name().into(),
            ranks: stage.ranks,
            arrival: d.arrival,
            staging: if d.home.is_none() { d.reservation } else { 0.0 },
            home: d.home,
        },
        client: None,
        restarts: 0,
        resume: 0.0,
        eligible: now,
        lost_work: 0.0,
        ckpt_overhead: 0.0,
        first_start: None,
        config: None,
        dag: Some((di, si)),
    }
}

/// A stage that exhausted its retry budget, revived from a banked
/// checkpoint revival: it restarts fresh from the staged snapshot on its
/// home `node` once `eligible` passes, keeping its first start and
/// configuration.
fn revived_entry(rec: &JobRecord, node: usize, dag: (u32, usize), eligible: f64) -> Queued {
    Queued {
        job: QueuedJob {
            id: rec.id,
            workflow: Arc::from(rec.workflow.as_str()),
            ranks: rec.ranks,
            arrival: rec.arrival,
            staging: 0.0,
            home: Some(node),
        },
        client: None,
        restarts: 0,
        resume: 0.0,
        eligible,
        lost_work: rec.lost_work,
        ckpt_overhead: rec.ckpt_overhead,
        first_start: Some(rec.start),
        config: Some(rec.config),
        dag: Some(dag),
    }
}

/// Where a fresh attempt of `q` (solo runtime `solo`) dies of its own
/// cause, if the fault plan says it does: strictly between its resume
/// point and completion.
fn fail_point(plan: &FaultPlan, q: &Queued, solo: f64) -> Option<f64> {
    plan.job_failure(q.job.id, q.restarts as u64)
        .map(|frac| q.resume + frac * (solo - q.resume))
        .filter(|&fa| fa > q.resume && fa < solo - 1e-9)
}

/// The record of an attempt that ran to completion on `node` at `now`.
fn completed_record(r: &Running, node: usize, now: f64, dags: &[DagRun]) -> JobRecord {
    let (dag, stage, staging_gib) = match r.dag {
        Some((di, si)) => {
            let d = &dags[di as usize];
            (
                d.label.to_string(),
                d.spec.stages[si].name.clone(),
                d.stage_staging_gib(si),
            )
        }
        None => (String::new(), String::new(), 0.0),
    };
    JobRecord {
        id: r.id,
        workflow: r.workflow.to_string(),
        ranks: r.ranks,
        config: r.config,
        node,
        arrival: r.arrival,
        start: r.first_start,
        finish: now,
        solo: r.solo,
        restarts: r.restarts,
        lost_work: r.lost_work,
        ckpt_overhead: r.ckpt_overhead,
        completed: true,
        dag,
        stage,
        staging_gib,
    }
}

/// The failed record for a stage settled by cascade (its DAG failed
/// before it ever ran). `q` is its queue entry if it was ready.
fn failed_stage_record(
    d: &DagRun,
    si: usize,
    q: Option<&Queued>,
    now: f64,
    oracle: &Oracle,
) -> JobRecord {
    let stage = &d.spec.stages[si];
    let config = q
        .and_then(|q| q.config)
        .unwrap_or_else(|| oracle.best_config(stage.family.name(), stage.ranks));
    JobRecord {
        id: d.first_stage_id + si as u64,
        workflow: stage.family.name().to_string(),
        ranks: stage.ranks,
        config,
        node: d.home.unwrap_or(0),
        arrival: d.arrival,
        start: q.and_then(|q| q.first_start).unwrap_or(now),
        finish: now,
        solo: d.est_solo[si],
        restarts: q.map_or(0, |q| q.restarts),
        lost_work: q.map_or(0.0, |q| q.lost_work),
        ckpt_overhead: q.map_or(0.0, |q| q.ckpt_overhead),
        completed: false,
        dag: d.label.to_string(),
        stage: stage.name.clone(),
        staging_gib: d.stage_staging_gib(si),
    }
}

/// Release the staging reservation and fire the owning client once the
/// last stage settles, returning the node released. Idempotent: home and
/// client are taken.
fn finish_dag_if_settled(
    d: &mut DagRun,
    staging: &mut StagingState,
    finished_clients: &mut Vec<usize>,
) -> Option<usize> {
    if d.unsettled > 0 {
        return None;
    }
    if let Some(c) = d.client.take() {
        finished_clients.push(c);
    }
    let h = d.home.take()?;
    staging.reserved[h] -= d.reservation;
    staging.live[h] -= d.live_gib;
    d.live_gib = 0.0;
    Some(h)
}

/// Stage `si` of `d` completed on `node`: bank a checkpoint revival and
/// roll the node's live staged bytes (outputs appear, consumed inputs
/// free). Returns the successors this completion releases (none once the
/// DAG has failed).
fn stage_done(d: &mut DagRun, si: usize, node: usize, staging: &mut StagingState) -> Vec<usize> {
    d.state[si] = StageState::Settled;
    d.unsettled -= 1;
    if d.spec.stages[si].kind == StageKind::Checkpoint {
        d.tokens += 1;
    }
    let delta = (d.spec.stage_out_bytes(si) as f64 - d.spec.stage_in_bytes(si) as f64) / GIB;
    d.live_gib += delta;
    staging.live[node] += delta;
    if d.failed {
        return Vec::new();
    }
    let mut released = Vec::new();
    for succ in d.spec.successors(si) {
        if d.state[succ] != StageState::Held {
            continue;
        }
        d.deps_left[succ] -= 1;
        if d.deps_left[succ] == 0 {
            d.state[succ] = StageState::Ready;
            released.push(succ);
        }
    }
    released
}

/// Serve `config.arrivals` with `policy`, using up to `jobs` parallel
/// simulations for the oracle warm-up (never affecting results). Returns
/// the per-job records and campaign aggregates.
pub fn run_campaign(
    config: &CampaignConfig,
    policy: &dyn Policy,
    jobs: usize,
) -> Result<CampaignOutcome, ClusterError> {
    validate(config)?;
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, jobs)?;
    run_campaign_with_oracle(config, policy, &oracle)
}

fn validate(config: &CampaignConfig) -> Result<(), ClusterError> {
    if config.nodes == 0 {
        return Err(ClusterError::Config("at least one node required".into()));
    }
    config.faults.validate().map_err(ClusterError::Config)?;
    config.checkpoint.validate().map_err(ClusterError::Config)?;
    if !config.staging_gib.is_finite() || config.staging_gib <= 0.0 {
        return Err(ClusterError::Config(
            "staging capacity must be positive and finite".into(),
        ));
    }
    let cores_per_socket = config.exec.node.cores_per_socket();
    // Reject alphabet entries that cannot run even on an empty node —
    // better a config error up front than a stuck queue later.
    for (name, ranks, _) in config.arrivals.alphabet() {
        if ranks > cores_per_socket {
            return Err(ClusterError::Config(format!(
                "{name}@{ranks} can never fit a {cores_per_socket}-core socket"
            )));
        }
    }
    Ok(())
}

/// [`run_campaign`] against a pre-built (shareable) oracle.
pub fn run_campaign_with_oracle(
    config: &CampaignConfig,
    policy: &dyn Policy,
    oracle: &Oracle,
) -> Result<CampaignOutcome, ClusterError> {
    Campaign::new(config, policy, oracle)?.run()
}

/// One campaign in flight: the state its event handlers share.
/// [`Campaign::run`] advances `now` to the earliest pending event and
/// hands the instant to the handlers in a fixed order — faults, job
/// events, closed-loop resubmissions, arrivals — then re-prices the
/// nodes whose membership changed and runs policy rounds.
struct Campaign<'a> {
    config: &'a CampaignConfig,
    policy: &'a dyn Policy,
    oracle: &'a Oracle,
    cores_per_socket: usize,
    /// Checkpoint multiplier `1 + f` on every job's wall time.
    ckpt_mult: f64,
    /// Share `f / (1 + f)` of wall time spent writing checkpoints.
    ckpt_share: f64,
    plan: FaultPlan,
    /// `plan.peek_time()`, cached: a peek scans every node's streams.
    next_fault: Option<f64>,
    pending: VecDeque<Arrival>,
    closed: Option<ClosedLoop>,
    nodes: Vec<NodeState>,
    /// `free_nodes[k]`: how many up nodes have exactly `k` cores free
    /// per socket.
    free_nodes: Vec<usize>,
    /// Each node's next job event as `(time, node, generation)`.
    events: BinaryHeap<Reverse<(OrdF64, usize, u64)>>,
    /// Jobs resident on any node.
    running: usize,
    queue: Queue,
    records: Vec<JobRecord>,
    staging: StagingState,
    dags: Vec<DagRun>,
    /// Per node, the DAGs holding staging there, by ascending index.
    homed: Vec<Vec<u32>>,
    /// Nodes with a non-empty `homed` list.
    hold_nodes: Vec<usize>,
    /// Stages whose dependencies are unmet: invisible to policies, but
    /// still work in flight.
    held: usize,
    /// Job ids are assigned in pop order: one per plain submission (so
    /// plain streams keep id == arrival id) and one per stage of a DAG
    /// submission, contiguous in stage order.
    next_job_id: u64,
    now: f64,
    makespan: f64,
    repricer: Repricer,
    /// Policy-facing node views, kept for the whole campaign and
    /// refreshed only when their node is dirty.
    views: Vec<NodeView>,
    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
    /// Nodes that lost residents at this instant, re-priced before the
    /// policy rounds.
    changed: Vec<usize>,
    /// Closed-loop clients whose submission settled at this instant.
    finished_clients: Vec<usize>,
    /// Mutation hook for the differential test: leave the survivors of a
    /// completion at their stale slowdowns.
    #[cfg(test)]
    skip_completion_reprice: bool,
}

impl<'a> Campaign<'a> {
    fn new(
        config: &'a CampaignConfig,
        policy: &'a dyn Policy,
        oracle: &'a Oracle,
    ) -> Result<Campaign<'a>, ClusterError> {
        validate(config)?;
        let cores_per_socket = config.exec.node.cores_per_socket();
        let ckpt_frac = checkpoint_tax(config);
        let plan = FaultPlan::new(&config.faults, config.nodes);
        let (pending, closed) = arrival_source(config);
        let mut free_nodes = vec![0; cores_per_socket + 1];
        free_nodes[cores_per_socket] = config.nodes;
        Ok(Campaign {
            config,
            policy,
            oracle,
            cores_per_socket,
            ckpt_mult: 1.0 + ckpt_frac,
            ckpt_share: ckpt_frac / (1.0 + ckpt_frac),
            next_fault: plan.peek_time(),
            plan,
            pending,
            closed,
            nodes: (0..config.nodes)
                .map(|_| NodeState {
                    running: Vec::new(),
                    busy_core_secs: 0.0,
                    up: true,
                    degrade: 1.0,
                    used: 0,
                    generation: 0,
                })
                .collect(),
            free_nodes,
            events: BinaryHeap::new(),
            running: 0,
            queue: Queue::new(),
            records: Vec::new(),
            staging: StagingState::new(config.staging_gib, config.nodes),
            dags: Vec::new(),
            homed: vec![Vec::new(); config.nodes],
            hold_nodes: Vec::new(),
            held: 0,
            next_job_id: 0,
            now: 0.0,
            makespan: 0.0,
            repricer: Repricer::new(config.full_reprice),
            views: (0..config.nodes)
                .map(|id| NodeView {
                    id,
                    cores_per_socket,
                    up: true,
                    residents: Vec::new(),
                    staging_capacity: config.staging_gib,
                    staging_reserved: 0.0,
                    staged_gib: 0.0,
                    staging_holds: Vec::new(),
                })
                .collect(),
            dirty: vec![false; config.nodes],
            dirty_list: Vec::new(),
            changed: Vec::new(),
            finished_clients: Vec::new(),
            #[cfg(test)]
            skip_completion_reprice: false,
        })
    }

    fn run(mut self) -> Result<CampaignOutcome, ClusterError> {
        // Stop once nothing is in flight anywhere; the fault plan is an
        // infinite stream, so it only counts as an event source while
        // there is work it could affect.
        while !self.pending.is_empty()
            || !self.queue.is_empty()
            || self.held > 0
            || self.running > 0
        {
            let Some(t) = self.next_event() else {
                // Work remains but no event can release it: reported
                // below as stuck jobs.
                break;
            };
            debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
            self.now = t;
            self.instant()?;
        }
        self.outcome()
    }

    /// The earliest pending event: an arrival, a job event, a backoff
    /// expiry or a scheduled fault.
    fn next_event(&mut self) -> Option<f64> {
        while let Some(&Reverse((_, ni, generation))) = self.events.peek() {
            if generation == self.nodes[ni].generation {
                break;
            }
            self.events.pop();
        }
        let job = self.events.peek().map(|Reverse((t, _, _))| t.0);
        [
            self.pending.front().map(|a| a.time),
            job,
            self.queue.next_expiry(self.now),
            self.next_fault,
        ]
        .into_iter()
        .flatten()
        .min_by(f64::total_cmp)
    }

    /// Handle everything due at `now` — an event is due exactly when its
    /// stored time is `<= now` — then re-price and schedule.
    fn instant(&mut self) -> Result<(), ClusterError> {
        while self.next_fault.is_some_and(|t| t <= self.now) {
            let e = self.plan.pop().expect("peeked event exists");
            self.next_fault = self.plan.peek_time();
            self.on_fault(e);
        }
        // Node by node in id order (the heap's tie-break), then by
        // residence order within a node.
        while let Some(ni) = self.pop_due_node() {
            self.on_job_events(ni);
        }
        self.finished_clients.sort_unstable();
        if let Some(closed) = self.closed.as_mut() {
            for &c in &self.finished_clients {
                closed.resubmit(self.now, c, &mut self.pending);
            }
        }
        self.finished_clients.clear();
        while self.pending.front().is_some_and(|a| a.time <= self.now) {
            let a = self.pending.pop_front().expect("front exists");
            self.on_arrival(a)?;
        }
        for i in 0..self.changed.len() {
            let ni = self.changed[i];
            #[cfg(test)]
            if self.skip_completion_reprice {
                self.push_event(ni);
                continue;
            }
            self.reprice(ni)?;
        }
        self.changed.clear();
        self.policy_rounds()
    }

    /// Pop the next node with a job event due at `now`, dropping stale
    /// heap entries on the way.
    fn pop_due_node(&mut self) -> Option<usize> {
        while let Some(&Reverse((OrdF64(t), ni, generation))) = self.events.peek() {
            if t > self.now {
                return None;
            }
            self.events.pop();
            if generation == self.nodes[ni].generation {
                return Some(ni);
            }
        }
        None
    }

    fn on_fault(&mut self, e: FaultEvent) {
        let ni = e.node;
        match e.kind {
            FaultEventKind::Crash => {
                if self.nodes[ni].up {
                    self.free_nodes[self.cores_per_socket - self.nodes[ni].used] -= 1;
                    self.nodes[ni].up = false;
                }
                // Evacuate every resident back to its last checkpoint.
                while !self.nodes[ni].running.is_empty() {
                    let r = self.take_resident(ni, 0);
                    self.settle_interrupted(r, ni);
                }
                self.nodes[ni].generation += 1;
            }
            FaultEventKind::Repair => {
                if !self.nodes[ni].up {
                    self.nodes[ni].up = true;
                    self.free_nodes[self.cores_per_socket - self.nodes[ni].used] += 1;
                }
            }
            FaultEventKind::DegradeStart => self.set_degrade(ni, self.config.faults.degrade_factor),
            FaultEventKind::DegradeEnd => self.set_degrade(ni, 1.0),
        }
        self.mark_dirty(ni);
    }

    /// A degradation window opens or closes on node `ni`: every
    /// resident's rate moves, so all are banked and re-timed.
    fn set_degrade(&mut self, ni: usize, degrade: f64) {
        let n = &mut self.nodes[ni];
        for r in &mut n.running {
            let before = r.wall_mult(n.degrade, self.ckpt_mult);
            r.bank(self.now, before, self.ckpt_share);
            let after = r.wall_mult(degrade, self.ckpt_mult);
            r.retime(after);
        }
        n.degrade = degrade;
        self.push_event(ni);
    }

    /// Settle every resident of node `ni` whose event is due: a
    /// completion, or the attempt's own failure.
    fn on_job_events(&mut self, ni: usize) {
        let mut i = 0;
        while i < self.nodes[ni].running.len() {
            if self.nodes[ni].running[i].fin > self.now {
                i += 1;
                continue;
            }
            let r = self.take_resident(ni, i);
            if r.fail_at.is_some() {
                // The attempt dies of its own cause (fail_at < solo).
                self.settle_interrupted(r, ni);
            } else {
                self.makespan = self.makespan.max(self.now);
                if let Some(c) = r.client {
                    self.finished_clients.push(c);
                }
                self.records
                    .push(completed_record(&r, ni, self.now, &self.dags));
                if let Some((di, si)) = r.dag {
                    self.stage_completed(di, si, ni);
                }
            }
        }
        self.changed.push(ni);
    }

    /// Remove resident `i` of node `ni`, banking its progress and its
    /// busy core-seconds up to `now`.
    fn take_resident(&mut self, ni: usize, i: usize) -> Running {
        let n = &mut self.nodes[ni];
        let mut r = n.running.remove(i);
        r.bank(
            self.now,
            r.wall_mult(n.degrade, self.ckpt_mult),
            self.ckpt_share,
        );
        n.busy_core_secs += 2.0 * r.ranks as f64 * (self.now - r.placed);
        let used = n.used - r.ranks;
        self.set_used(ni, used);
        self.running -= 1;
        self.mark_dirty(ni);
        r
    }

    /// Set node `ni`'s used cores, keeping the free-core histogram exact.
    fn set_used(&mut self, ni: usize, used: usize) {
        let n = &mut self.nodes[ni];
        if n.up {
            self.free_nodes[self.cores_per_socket - n.used] -= 1;
            self.free_nodes[self.cores_per_socket - used] += 1;
        }
        n.used = used;
    }

    /// The most cores free on any up node.
    fn max_free(&self) -> usize {
        self.free_nodes.iter().rposition(|&k| k > 0).unwrap_or(0)
    }

    /// Stage `si` of DAG `di` completed on `node`: release ready
    /// successors into the queue at the DAG's arrival priority, and close
    /// out the DAG when this was the last stage.
    fn stage_completed(&mut self, di: u32, si: usize, node: usize) {
        let d = &mut self.dags[di as usize];
        for succ in stage_done(d, si, node, &mut self.staging) {
            self.held -= 1;
            self.queue
                .push(stage_entry(d, di, succ, self.now), self.now);
        }
        self.finish_dag_if_settled(di);
    }

    fn finish_dag_if_settled(&mut self, di: u32) {
        let d = &mut self.dags[di as usize];
        if let Some(h) = finish_dag_if_settled(d, &mut self.staging, &mut self.finished_clients) {
            self.homed[h].retain(|&x| x != di);
            if self.homed[h].is_empty() {
                self.hold_nodes.retain(|&n| n != h);
            }
            self.mark_dirty(h);
        }
    }

    /// Handle an interrupted attempt end to end: requeue it (stage jobs
    /// come back pinned home), revive it from a banked checkpoint
    /// snapshot, or fail it — and on a stage failure, fail the whole DAG
    /// and cascade its not-yet-running stages into failed records.
    fn settle_interrupted(&mut self, r: Running, node: usize) {
        let now = self.now;
        let client = r.client;
        let dag = r.dag;
        let mut rec = match interrupt(r, node, now, &self.config.checkpoint) {
            Interrupted::Requeue(q) => {
                if let Some((di, si)) = dag {
                    self.dags[di as usize].state[si] = StageState::Ready;
                }
                self.queue.push(q, now);
                return;
            }
            Interrupted::Failed(rec) => rec,
        };
        self.makespan = self.makespan.max(now);
        let Some((di, si)) = dag else {
            self.records.push(rec);
            if let Some(c) = client {
                self.finished_clients.push(c);
            }
            return;
        };
        let d = &mut self.dags[di as usize];
        if d.tokens > 0 && !d.failed {
            // A completed checkpoint stage banked a revival: restart this
            // stage fresh after one base backoff instead of failing the
            // workflow.
            d.tokens -= 1;
            d.state[si] = StageState::Ready;
            let eligible = now + self.config.checkpoint.backoff_base;
            self.queue
                .push(revived_entry(&rec, node, (di, si), eligible), now);
            return;
        }
        rec.dag = d.label.to_string();
        rec.stage = d.spec.stages[si].name.clone();
        rec.staging_gib = d.stage_staging_gib(si);
        self.records.push(rec);
        d.state[si] = StageState::Settled;
        d.unsettled -= 1;
        d.failed = true;
        // Cascade: held and ready siblings settle as failed records;
        // running siblings drain normally but release nothing new.
        for sj in 0..d.state.len() {
            let q = match d.state[sj] {
                StageState::Held => {
                    self.held -= 1;
                    None
                }
                StageState::Ready => Some(
                    self.queue
                        .remove(d.first_stage_id + sj as u64, now)
                        .expect("ready stage is queued"),
                ),
                StageState::Running | StageState::Settled => continue,
            };
            self.records
                .push(failed_stage_record(d, sj, q.as_ref(), now, self.oracle));
            d.state[sj] = StageState::Settled;
            d.unsettled -= 1;
        }
        self.finish_dag_if_settled(di);
    }

    /// A submission arrives. A plain one takes one job id; a DAG expands
    /// into one stage job per graph node, sources queued now and the
    /// rest held until their dependencies complete.
    fn on_arrival(&mut self, a: Arrival) -> Result<(), ClusterError> {
        let now = self.now;
        if a.dag.is_none() {
            let id = self.next_job_id;
            self.next_job_id += 1;
            self.queue.push(plain_entry(a, id), now);
            return Ok(());
        }
        let di = self.dags.len() as u32;
        let d = DagRun::expand(a, self.next_job_id, self.config, self.oracle)?;
        self.next_job_id += d.state.len() as u64;
        for (si, st) in d.state.iter().enumerate() {
            if *st == StageState::Ready {
                self.queue.push(stage_entry(&d, di, si, now), now);
            } else {
                self.held += 1;
            }
        }
        self.dags.push(d);
        Ok(())
    }

    /// Re-price node `ni` after a membership change. Only residents
    /// whose slowdown moved, or that were just placed, are banked and
    /// re-timed: the others keep their stored event times bit for bit.
    fn reprice(&mut self, ni: usize) -> Result<(), ClusterError> {
        let n = &mut self.nodes[ni];
        let slowdowns = self.repricer.reprice(&n.running, self.oracle)?;
        let degrade = n.degrade;
        for (r, &s) in n.running.iter_mut().zip(slowdowns) {
            if s.to_bits() != r.slowdown.to_bits() || r.fin == f64::INFINITY {
                r.bank(
                    self.now,
                    r.wall_mult(degrade, self.ckpt_mult),
                    self.ckpt_share,
                );
                r.slowdown = s;
                r.retime(r.wall_mult(degrade, self.ckpt_mult));
            }
        }
        self.push_event(ni);
        Ok(())
    }

    /// Re-key node `ni` in the event heap after its residents were
    /// re-timed; its older entries go stale.
    fn push_event(&mut self, ni: usize) {
        let n = &mut self.nodes[ni];
        n.generation += 1;
        if let Some(fin) = n.running.iter().map(|r| r.fin).min_by(f64::total_cmp) {
            self.events.push(Reverse((OrdF64(fin), ni, n.generation)));
        }
        self.mark_dirty(ni);
    }

    fn mark_dirty(&mut self, ni: usize) {
        if !self.dirty[ni] {
            self.dirty[ni] = true;
            self.dirty_list.push(ni);
        }
    }

    fn refresh_views(&mut self) {
        for ni in self.dirty_list.drain(..) {
            self.dirty[ni] = false;
            refresh_view(
                &mut self.views[ni],
                &self.nodes[ni],
                &self.staging,
                &self.homed[ni],
                &self.dags,
                self.now,
            );
        }
    }

    /// Policy rounds: consult, apply what fits, re-price, repeat until
    /// the policy places nothing more (each round shrinks the queue, so
    /// this terminates). Policies only see jobs past their backoff.
    ///
    /// Capacity precheck per round: when even the narrowest eligible job
    /// cannot fit the freest up node, no capacity-respecting policy can
    /// place anything — skip the snapshots and the consult. (A placement
    /// that does not fit would be skipped anyway, so the outcome is
    /// identical for any deterministic policy.)
    fn policy_rounds(&mut self) -> Result<(), ClusterError> {
        // Staging-hold release estimates are relative to `now`.
        for i in 0..self.hold_nodes.len() {
            self.mark_dirty(self.hold_nodes[i]);
        }
        let mut touched: Vec<usize> = Vec::new();
        while let Some(min_ranks) = self.queue.min_eligible_ranks(self.now) {
            if min_ranks > self.max_free() {
                break;
            }
            self.refresh_views();
            let queue_view = self.queue.view(self.now);
            let batch = self
                .policy
                .schedule(self.now, &queue_view, &self.views, self.oracle)?;
            touched.clear();
            for p in batch {
                if self.place(p)? && !touched.contains(&p.node) {
                    touched.push(p.node);
                }
            }
            if touched.is_empty() {
                break;
            }
            for &ni in &touched {
                self.reprice(ni)?;
            }
        }
        Ok(())
    }

    /// Apply one placement of a policy batch. `Ok(false)`: the batch
    /// raced its own earlier placements (or another stage homed the DAG
    /// elsewhere), so it no longer fits; the next round re-consults.
    fn place(&mut self, p: Placement) -> Result<bool, ClusterError> {
        let now = self.now;
        let Some(q) = self.queue.get(p.job) else {
            return Err(ClusterError::Config(format!(
                "policy {} placed unknown job {}",
                self.policy.name(),
                p.job
            )));
        };
        let n = &self.nodes[p.node];
        if !n.up
            || n.used + q.job.ranks > self.cores_per_socket
            || q.job.home.is_some_and(|h| h != p.node)
            || self.staging.reserved[p.node] + q.job.staging > self.staging.capacity + 1e-9
        {
            return Ok(false);
        }
        let q = self.queue.remove(p.job, now).expect("located above");
        if let Some((di, si)) = q.dag {
            let d = &mut self.dags[di as usize];
            d.state[si] = StageState::Running;
            if d.home.is_none() {
                // First placement homes the DAG: reserve its whole
                // staging footprint here for its lifetime and pin every
                // queued sibling to this node.
                d.home = Some(p.node);
                self.staging.reserve(p.node, d.reservation);
                for sj in 0..d.state.len() {
                    if d.state[sj] == StageState::Ready {
                        let o = self
                            .queue
                            .get_mut(d.first_stage_id + sj as u64)
                            .expect("ready stage is queued");
                        o.job.home = Some(p.node);
                        o.job.staging = 0.0;
                    }
                }
                let homed = &mut self.homed[p.node];
                if homed.is_empty() {
                    self.hold_nodes.push(p.node);
                }
                homed.insert(homed.partition_point(|&x| x < di), di);
            }
        }
        // A restarted job keeps the configuration its checkpoint was
        // written under, whatever the policy prefers now.
        let cfg = q.config.unwrap_or(p.config);
        let tenant = self
            .repricer
            .prices
            .intern(self.oracle, &q.job.workflow, q.job.ranks, cfg);
        // A stage additionally pays its staged I/O (edge volumes through
        // the PMEM snapshot path) on top of the oracle solo of its
        // workflow.
        let solo = self.repricer.prices.solo(tenant)
            + q.dag
                .map_or(0.0, |(di, si)| self.dags[di as usize].extra_solo[si]);
        let fail_at = fail_point(&self.plan, &q, solo);
        let used = self.nodes[p.node].used + q.job.ranks;
        self.nodes[p.node].running.push(Running {
            id: q.job.id,
            workflow: q.job.workflow,
            ranks: q.job.ranks,
            config: cfg,
            tenant,
            arrival: q.job.arrival,
            first_start: q.first_start.unwrap_or(now),
            client: q.client,
            solo,
            progress: q.resume,
            t0: now,
            placed: now,
            fin: f64::INFINITY,
            restarts: q.restarts,
            lost_work: q.lost_work,
            ckpt_overhead: q.ckpt_overhead,
            slowdown: 1.0,
            fail_at,
            dag: q.dag,
        });
        self.set_used(p.node, used);
        self.running += 1;
        Ok(true)
    }

    fn outcome(self) -> Result<CampaignOutcome, ClusterError> {
        if !self.queue.is_empty() || self.held > 0 {
            return Err(ClusterError::Config(format!(
                "campaign drained with {} jobs still queued and {} stages held (policy {})",
                self.queue.len(),
                self.held,
                self.policy.name()
            )));
        }
        let mut jobs = self.records;
        jobs.sort_by_key(|r| r.id);
        Ok(CampaignOutcome {
            policy: self.policy.name().to_string(),
            seed: self.config.seed,
            nodes: self.config.nodes,
            jobs,
            makespan: self.makespan,
            busy_core_secs: self.nodes.iter().map(|n| n.busy_core_secs).collect(),
            cores_per_node: 2 * self.cores_per_socket,
            staging_capacity: self.config.staging_gib,
            peak_staging_gib: self.staging.peak,
            corun_sets_priced: self.oracle.corun_cache_len(),
            reprice_secs: self.repricer.spent_ns as f64 / 1e9,
            reprice_calls: self.repricer.calls,
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::TraceRow;
    use crate::policy::{all_policies, Fcfs};
    use pmemflow_workloads::Family;

    /// Run a campaign and hold it to [`audit`].
    fn run(cfg: &CampaignConfig, policy: &dyn Policy, jobs: usize) -> CampaignOutcome {
        let out = run_campaign(cfg, policy, jobs).unwrap();
        audit(&out).unwrap();
        out
    }

    /// [`run`] against a shared oracle.
    fn run_with(cfg: &CampaignConfig, policy: &dyn Policy, oracle: &Oracle) -> CampaignOutcome {
        let out = run_campaign_with_oracle(cfg, policy, oracle).unwrap();
        audit(&out).unwrap();
        out
    }

    fn micro_config(n_arrivals: u64, nodes: usize) -> CampaignConfig {
        CampaignConfig {
            nodes,
            arrivals: ArrivalSpec::parse(&format!(
                "poisson:rate=0.005,n={n_arrivals},mix=micro-64mb"
            ))
            .unwrap(),
            seed: 42,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn fcfs_campaign_serves_every_arrival() {
        let cfg = micro_config(6, 2);
        let out = run(&cfg, &Fcfs, 2);
        assert_eq!(out.jobs.len(), 6);
        assert_eq!(out.completed(), 6);
        assert_eq!(out.failed(), 0);
        for (i, j) in out.jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
            assert!(j.start >= j.arrival, "job {i} started early");
            assert!(j.finish > j.start, "job {i} has no service time");
            assert!(j.node < 2);
            assert!(j.stretch() >= 0.999, "job {i} ran faster than solo");
            assert_eq!(j.restarts, 0);
            assert_eq!(j.lost_work, 0.0);
            assert_eq!(j.ckpt_overhead, 0.0, "no checkpointing configured");
        }
        assert!(out.makespan >= out.jobs.iter().map(|j| j.finish).fold(0.0, f64::max) - 1e-9);
        let util = out.utilization();
        assert_eq!(util.len(), 2);
        assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
    }

    #[test]
    fn zero_nodes_is_a_config_error() {
        let cfg = micro_config(3, 0);
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn oversized_workload_is_rejected_up_front() {
        let mut cfg = micro_config(3, 2);
        cfg.exec.node = pmemflow_platform::Node::dual_socket(4, 1 << 30, 1 << 30);
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn bad_fault_spec_is_a_config_error() {
        let mut cfg = micro_config(3, 2);
        cfg.faults.job_fail_prob = 2.0;
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
        let mut cfg = micro_config(3, 2);
        cfg.checkpoint.interval = -5.0;
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn closed_loop_respects_population_and_budget() {
        let cfg = CampaignConfig {
            nodes: 2,
            arrivals: ArrivalSpec::parse("closed:clients=2,think=5,n=8,mix=micro-64mb").unwrap(),
            seed: 1,
            ..CampaignConfig::default()
        };
        let out = run(&cfg, &Fcfs, 2);
        assert_eq!(out.jobs.len(), 8);
        // At most `clients` jobs are ever in flight: sort by start, check
        // every start has fewer than 2 unfinished predecessors.
        for j in &out.jobs {
            let in_flight = out
                .jobs
                .iter()
                .filter(|o| o.id != j.id && o.start <= j.start && o.finish > j.start)
                .count();
            assert!(
                in_flight < 2,
                "job {} overlapped {} others",
                j.id,
                in_flight
            );
        }
    }

    #[test]
    fn jsonl_is_parseable_shape() {
        let out = run(&micro_config(4, 2), &Fcfs, 2);
        let text = out.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // 4 jobs + summary
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
        assert!(lines[..4].iter().all(|l| l.contains("\"kind\":\"job\"")));
        assert!(lines[..4]
            .iter()
            .all(|l| l.contains("\"outcome\":\"completed\"")));
        assert!(lines[4].contains("\"kind\":\"campaign\""));
        assert!(lines[4].contains("\"mean_bounded_slowdown\":"));
        assert!(lines[4].contains("\"total_lost_work_s\":"));
    }

    #[test]
    fn all_policies_serve_the_same_stream() {
        let cfg = micro_config(5, 2);
        let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
        for policy in all_policies() {
            let out = run_with(&cfg, policy.as_ref(), &oracle);
            assert_eq!(out.jobs.len(), 5, "{}", policy.name());
            assert_eq!(out.policy, policy.name());
        }
    }

    /// A fault campaign sized against the workload's own solo runtime so
    /// crashes reliably hit running jobs.
    fn faulty_config(solo: f64, nodes: usize) -> CampaignConfig {
        let mut cfg = micro_config(6, nodes);
        cfg.faults = FaultSpec {
            seed: 11,
            mtbf: solo,
            repair: solo / 10.0,
            ..FaultSpec::default()
        };
        cfg.checkpoint = CheckpointSpec {
            interval: solo / 5.0,
            retry_budget: 8,
            backoff_base: 1.0,
            ..CheckpointSpec::default()
        };
        cfg
    }

    /// Solo runtime of the test workload, from a fault-free run.
    fn micro_solo() -> f64 {
        let out = run(&micro_config(1, 1), &Fcfs, 1);
        out.jobs[0].solo
    }

    #[test]
    fn crashes_requeue_and_resume_from_checkpoints() {
        let solo = micro_solo();
        let cfg = faulty_config(solo, 2);
        let out = run(&cfg, &Fcfs, 2);
        // Conservation: every submission ends in exactly one record.
        assert_eq!(out.jobs.len(), 6, "lost or duplicated jobs");
        assert_eq!(out.completed() + out.failed(), 6);
        assert!(
            out.total_restarts() > 0,
            "an MTBF equal to the solo runtime must interrupt someone"
        );
        for j in &out.jobs {
            assert!(j.lost_work >= -1e-9);
            assert!(
                j.lost_work <= cfg.checkpoint.interval * (j.restarts as f64 + 1.0) + 1e-6,
                "job {} lost {} solo-seconds with {} restarts — checkpoints not honored",
                j.id,
                j.lost_work,
                j.restarts
            );
            if j.completed {
                assert!(j.finish > j.start - 1e-9);
            } else {
                assert!(j.restarts > cfg.checkpoint.retry_budget);
            }
        }
        // Checkpoint writes cost wall time for everyone who ran.
        assert!(out.total_ckpt_overhead() > 0.0);
    }

    #[test]
    fn fault_campaigns_are_deterministic_and_seed_sensitive() {
        let solo = micro_solo();
        let cfg = faulty_config(solo, 2);
        let a = run(&cfg, &Fcfs, 1).to_jsonl();
        let b = run(&cfg, &Fcfs, 2).to_jsonl();
        assert_eq!(a, b, "fault campaign differs across --jobs");
        let mut other = cfg.clone();
        other.faults.seed = 12;
        let c = run(&other, &Fcfs, 1).to_jsonl();
        assert_ne!(a, c, "fault seed has no effect");
    }

    #[test]
    fn checkpoint_tax_slows_completion_down() {
        let base = micro_config(2, 1);
        let fast = run(&base, &Fcfs, 1);
        let mut taxed_cfg = base.clone();
        taxed_cfg.checkpoint.interval = fast.jobs[0].solo / 10.0;
        let taxed = run(&taxed_cfg, &Fcfs, 1);
        assert!(
            taxed.mean_response() > fast.mean_response(),
            "checkpoint writes must cost wall time: {} vs {}",
            taxed.mean_response(),
            fast.mean_response()
        );
        assert!(taxed.jobs.iter().all(|j| j.ckpt_overhead > 0.0));
        assert!(fast.jobs.iter().all(|j| j.ckpt_overhead == 0.0));
    }

    #[test]
    fn exhausted_retry_budget_reports_failed_not_hung() {
        let solo = micro_solo();
        let mut cfg = faulty_config(solo, 1);
        // Crash far faster than any checkpoint accumulates and allow a
        // single retry: most submissions must die, none may hang.
        cfg.faults.mtbf = solo / 5.0;
        cfg.faults.repair = solo / 50.0;
        cfg.checkpoint.interval = 0.0; // restarts from scratch
        cfg.checkpoint.retry_budget = 1;
        let out = run(&cfg, &Fcfs, 1);
        assert_eq!(out.jobs.len(), 6, "every submission must be accounted");
        assert!(
            out.failed() > 0,
            "mtbf at a fifth of the solo time with one retry must kill someone"
        );
        for j in out.jobs.iter().filter(|j| !j.completed) {
            assert_eq!(j.restarts, 2, "budget 1 means the 2nd interrupt is fatal");
            assert!(j.lost_work > 0.0, "a scratch restart loses all progress");
        }
    }

    /// The campaign-local incremental price cache must be observationally
    /// identical to a full-node reprice through the oracle — byte for
    /// byte in the JSONL — across admissions, completions, and crashes.
    #[test]
    fn incremental_pricing_matches_full_reprice_under_faults() {
        let solo = micro_solo();
        for (seed, policy) in [(11u64, 0usize), (12, 0), (11, 3)] {
            let mut cfg = faulty_config(solo, 2);
            cfg.faults.seed = seed;
            cfg.faults.degrade_mtbf = solo * 2.0;
            cfg.faults.job_fail_prob = 0.3;
            let policies = all_policies();
            let policy = policies[policy].as_ref();
            let incremental = run(&cfg, policy, 2).to_jsonl();
            let mut full_cfg = cfg.clone();
            full_cfg.full_reprice = true;
            let full = run(&full_cfg, policy, 2).to_jsonl();
            assert_eq!(
                incremental,
                full,
                "incremental pricing diverged (fault seed {seed}, policy {})",
                policy.name()
            );
        }
    }

    /// The oracle warm-up parallelism must never leak into results: the
    /// fault-campaign JSONL is byte-identical across `--jobs 1/4/8`.
    #[test]
    fn fault_campaign_jsonl_is_jobs_invariant() {
        let solo = micro_solo();
        let mut cfg = faulty_config(solo, 2);
        cfg.faults.job_fail_prob = 0.3;
        let reference = run(&cfg, &Fcfs, 1).to_jsonl();
        for jobs in [4, 8] {
            let got = run(&cfg, &Fcfs, jobs).to_jsonl();
            assert_eq!(reference, got, "--jobs {jobs} changed the campaign JSONL");
        }
    }

    /// An arrival half a nanosecond after a completion is its own event:
    /// it must not be admitted at the completion's instant, before it
    /// exists.
    #[test]
    fn arrival_just_after_a_completion_starts_no_earlier_than_it_arrives() {
        let row = |time: f64| TraceRow {
            time,
            family: Family::Micro64MB,
            ranks: 24,
        };
        let mut cfg = CampaignConfig {
            nodes: 1,
            arrivals: ArrivalSpec::Trace(vec![row(0.0)]),
            ..CampaignConfig::default()
        };
        let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 1).unwrap();
        let done = run_with(&cfg, &Fcfs, &oracle).jobs[0].finish;
        let late = done + 0.5e-9;
        assert!(late > done, "the offset must be representable");
        cfg.arrivals = ArrivalSpec::Trace(vec![row(0.0), row(late)]);
        let out = run_with(&cfg, &Fcfs, &oracle);
        assert_eq!(out.jobs[0].finish, done);
        for j in &out.jobs {
            assert!(
                j.start >= j.arrival,
                "job {} started at {} before arriving at {}",
                j.id,
                j.start,
                j.arrival
            );
        }
        assert_eq!(out.jobs[1].start, late);
    }

    fn queued(id: u64, ranks: usize, arrival: f64, eligible: f64) -> Queued {
        Queued {
            job: QueuedJob {
                id,
                workflow: "w".into(),
                ranks,
                arrival,
                staging: 0.0,
                home: None,
            },
            client: None,
            restarts: 0,
            resume: 0.0,
            eligible,
            lost_work: 0.0,
            ckpt_overhead: 0.0,
            first_start: None,
            config: None,
            dag: None,
        }
    }

    /// A backoff expiry a nanosecond ahead must be selectable as the next
    /// event, and eligibility must be exact — never a nanosecond early.
    #[test]
    fn backoff_expiry_selection_is_exact() {
        let now = 100.0;
        let sub_ns = now + 1e-10;
        let mut queue = Queue::new();
        queue.push(queued(0, 1, 0.0, sub_ns), now);
        assert_eq!(
            queue.next_expiry(now),
            Some(sub_ns),
            "a sub-nanosecond future expiry must be an event candidate"
        );
        assert_eq!(queue.min_eligible_ranks(now), None);
        assert!(queue.view(now).is_empty(), "placed before its own expiry");
        // At the expiry: eligible, and no longer an event candidate.
        assert_eq!(queue.next_expiry(sub_ns), None);
        assert_eq!(queue.min_eligible_ranks(sub_ns), Some(1));
        assert_eq!(queue.view(sub_ns).len(), 1);
        // The earliest future expiry wins.
        queue.push(queued(1, 1, 0.0, now + 2.0), sub_ns);
        queue.push(queued(2, 1, 0.0, now + 1.0), sub_ns);
        assert_eq!(queue.next_expiry(sub_ns), Some(now + 1.0));
    }

    /// The queue's indexes must agree with the reference scans they
    /// replace — id lookup, next backoff expiry, eligible-min-ranks and
    /// the policy view — across randomized enqueue/advance/remove churn,
    /// including removals still inside their backoff (a DAG cascade).
    #[test]
    fn queue_indexes_match_reference_scans_under_churn() {
        let mut rng = SplitMix64::new(0x1D_E11);
        let mut queue = Queue::new();
        let mut now = 0.0f64;
        for id in 0..2_000u64 {
            match rng.range_u64(0, 4) {
                // Enqueue: half already eligible, half in future backoff;
                // arrivals collide so ties break on id.
                0 | 1 => {
                    let ranks = [8, 16, 24][rng.range_usize(0, 3)];
                    let arrival = rng.range_usize(0, 50) as f64;
                    let eligible = now + rng.range_f64(-5.0, 5.0);
                    queue.push(queued(id, ranks, arrival, eligible), now);
                }
                // Advance time, sometimes exactly onto an expiry.
                2 => {
                    now = match reference::next_backoff_expiry(&queue.entries, now) {
                        Some(e) if rng.next_bool() => e,
                        _ => now + rng.range_f64(0.0, 3.0),
                    };
                }
                // Remove a random entry, usually an eligible one (a
                // placement), sometimes any (a cascade).
                _ => {
                    let cascade = rng.next_bool() && rng.next_bool();
                    let ids: Vec<u64> = queue
                        .entries
                        .iter()
                        .filter(|q| cascade || backoff_expired(q, now))
                        .map(|q| q.job.id)
                        .collect();
                    if !ids.is_empty() {
                        let victim = ids[rng.range_usize(0, ids.len())];
                        let q = queue.remove(victim, now).expect("queued id");
                        assert_eq!(q.job.id, victim);
                    }
                }
            }
            assert!(queue
                .entries
                .iter()
                .zip(queue.entries.iter().skip(1))
                .all(|(a, b)| (a.job.arrival, a.job.id) < (b.job.arrival, b.job.id)));
            for q in &queue.entries {
                assert_eq!(queue.get(q.job.id).map(|g| g.job.id), Some(q.job.id));
            }
            assert_eq!(
                queue.next_expiry(now).map(f64::to_bits),
                reference::next_backoff_expiry(&queue.entries, now).map(f64::to_bits),
                "expiry diverged at step {id}"
            );
            let eligible: Vec<u64> = queue
                .entries
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.id)
                .collect();
            let scan_min = queue
                .entries
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.ranks)
                .min();
            assert_eq!(queue.min_eligible_ranks(now), scan_min, "step {id}");
            let view: Vec<u64> = queue.view(now).iter().map(|j| j.id).collect();
            assert_eq!(view, eligible, "view diverged at step {id}");
        }
    }

    #[test]
    fn job_level_failures_alone_trigger_restarts() {
        let mut cfg = micro_config(4, 2);
        cfg.faults = FaultSpec {
            seed: 3,
            job_fail_prob: 0.5,
            ..FaultSpec::default()
        };
        cfg.checkpoint.interval = micro_solo() / 4.0;
        let out = run(&cfg, &Fcfs, 1);
        assert_eq!(out.jobs.len(), 4);
        assert!(
            out.total_restarts() > 0,
            "a 50% per-attempt failure rate over 4 jobs should restart someone"
        );
        assert_eq!(out.completed() + out.failed(), 4);
    }
    /// A mixed plain + DAG arrival stream over two nodes.
    fn dag_config(n: u64, nodes: usize) -> CampaignConfig {
        CampaignConfig {
            nodes,
            arrivals: ArrivalSpec::parse(&format!("poisson:rate=0.0008,n={n},mix=micro-64mb+dag"))
                .unwrap(),
            seed: 9,
            ..CampaignConfig::default()
        }
    }

    /// Regenerate the arrival stream and index DAG specs by label, then
    /// look up each (dag, stage) job record.
    fn dag_specs_and_records(
        cfg: &CampaignConfig,
        out: &CampaignOutcome,
    ) -> Vec<(pmemflow_dag::DagSpec, Vec<JobRecord>)> {
        let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
        arrivals
            .into_iter()
            .filter_map(|a| a.dag)
            .map(|spec| {
                let recs: Vec<JobRecord> = spec
                    .stages
                    .iter()
                    .map(|st| {
                        out.jobs
                            .iter()
                            .find(|j| j.dag == spec.name && j.stage == st.name)
                            .unwrap_or_else(|| {
                                panic!("no record for stage {} of {}", st.name, spec.name)
                            })
                            .clone()
                    })
                    .collect();
                (spec, recs)
            })
            .collect()
    }

    #[test]
    fn dag_campaign_respects_topology_and_is_jobs_invariant() {
        let cfg = dag_config(8, 2);
        let out = run(&cfg, &Fcfs, 1);
        let dags = dag_specs_and_records(&cfg, &out);
        assert!(!dags.is_empty(), "seed 9 over 8 arrivals must draw a DAG");
        let mut plain = 0;
        for j in &out.jobs {
            assert!(j.completed, "fault-free run completes everything");
            if j.dag.is_empty() {
                assert_eq!(j.staging_gib, 0.0);
                plain += 1;
            }
        }
        assert_eq!(
            out.jobs.len(),
            plain + dags.iter().map(|(d, _)| d.stages.len()).sum::<usize>()
        );
        for (spec, recs) in &dags {
            // Every edge's consumer starts at or after its producer ends.
            for e in &spec.edges {
                assert!(
                    recs[e.to].start >= recs[e.from].finish - 1e-6,
                    "{}: stage {} started before its input {} was staged",
                    spec.name,
                    spec.stages[e.to].name,
                    spec.stages[e.from].name
                );
            }
            // A stage pays its staged I/O on top of the workflow solo.
            for (si, r) in recs.iter().enumerate() {
                let io = stage_io_seconds(spec, si, &cfg.exec);
                assert!(r.solo >= io - 1e-9, "stage solo must include its I/O");
                let expected = (spec.stage_in_bytes(si) + spec.stage_out_bytes(si)) as f64 / GIB;
                assert!((r.staging_gib - expected).abs() < 1e-9);
            }
        }
        // Byte-identical JSONL for any worker count.
        let reference = out.to_jsonl();
        for jobs in [4, 8] {
            let got = run(&cfg, &Fcfs, jobs).to_jsonl();
            assert_eq!(reference, got, "--jobs {jobs} changed the campaign JSONL");
        }
    }

    #[test]
    fn staging_reservations_never_overcommit_any_node() {
        let cfg = dag_config(10, 2);
        for policy in all_policies() {
            let out = run(&cfg, policy.as_ref(), 2);
            let dags = dag_specs_and_records(&cfg, &out);
            // All stages of a DAG run on its home node, and the whole
            // footprint is held there from first start to last finish.
            let holds: Vec<(usize, f64, f64, f64)> = dags
                .iter()
                .map(|(spec, recs)| {
                    let node = recs[0].node;
                    assert!(
                        recs.iter().all(|r| r.node == node),
                        "{}: stages straddle nodes under {}",
                        spec.name,
                        policy.name()
                    );
                    let start = recs.iter().map(|r| r.start).fold(f64::MAX, f64::min);
                    let finish = recs.iter().map(|r| r.finish).fold(0.0, f64::max);
                    (node, start, finish, spec.staging_gib())
                })
                .collect();
            for &(node, start, _, _) in &holds {
                let resident: f64 = holds
                    .iter()
                    .filter(|&&(n, s, f, _)| n == node && s <= start && start < f)
                    .map(|&(_, _, _, gib)| gib)
                    .sum();
                assert!(
                    resident <= out.staging_capacity + 1e-9,
                    "{}: node {node} over-committed to {resident:.1} GiB",
                    policy.name()
                );
            }
            for (ni, &peak) in out.peak_staging_gib.iter().enumerate() {
                assert!(
                    peak <= out.staging_capacity + 1e-9,
                    "{}: node {ni} peak {peak:.1} GiB over capacity",
                    policy.name()
                );
            }
            if !dags.is_empty() {
                assert!(out.peak_staging_gib.iter().any(|&p| p > 0.0));
            }
        }
    }

    #[test]
    fn dag_campaigns_conserve_submissions_under_faults() {
        let mut cfg = dag_config(8, 2);
        cfg.faults = FaultSpec {
            seed: 5,
            mtbf: 40_000.0,
            repair: 4_000.0,
            job_fail_prob: 0.2,
            ..FaultSpec::default()
        };
        cfg.checkpoint = CheckpointSpec {
            interval: 10_000.0,
            retry_budget: 2,
            backoff_base: 1.0,
            ..CheckpointSpec::default()
        };
        let out = run(&cfg, &Fcfs, 1);
        let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
        let expected: usize = arrivals
            .iter()
            .map(|a| a.dag.as_ref().map_or(1, |d| d.stages.len()))
            .sum();
        assert_eq!(out.jobs.len(), expected, "every stage ends in one record");
        assert_eq!(out.completed() + out.failed(), expected);
        // Determinism holds under faults too.
        let reference = out.to_jsonl();
        let got = run(&cfg, &Fcfs, 8).to_jsonl();
        assert_eq!(reference, got);
    }
}
