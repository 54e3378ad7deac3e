//! The campaign workloads: `Oracle::build` + `run_campaign_with_oracle`,
//! which is what a `pmemflow cluster` user waits for on every run.
//!
//! Each iteration builds a cold oracle over the stream's alphabet and
//! serves the same seeded stream, so every iteration must produce the
//! same JSONL bytes. Layers are timed from outside: the oracle build and
//! the campaign call directly, the queue policy through [`TimedPolicy`]
//! (a `Policy` that delegates to the real one), and co-run re-pricing
//! through the public `CampaignOutcome` counters.

use crate::report::{Report, Unit};
use crate::spans::{LayerTable, Tracer};
use crate::stats;
use pmemflow_cluster::{
    generate_open, run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CampaignOutcome,
    CheckpointSpec, FaultSpec, Fcfs, InterferenceAware, NodeView, Oracle, Placement, Policy,
    QueuedJob,
};
use pmemflow_core::{ExecError, ExecutionParams};
use pmemflow_des::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One campaign workload's shape. Sizes are fixed; the seed only draws
/// the stream (and the fault schedule).
pub struct Shape {
    pub nodes: usize,
    pub submissions: u64,
    /// `ArrivalSpec` mix tokens.
    pub mix: &'static str,
    /// Offered load as a multiple of the cluster's ideal core throughput.
    pub load: f64,
    /// Interference-aware policy with faults and checkpoints, instead of
    /// FCFS on a fault-free cluster.
    pub mixed: bool,
    /// Sub-streams drawn from the seed. A run serves each in turn, so its
    /// figures average over several streams rather than hinge on one.
    pub streams: usize,
}

/// 512 nodes, FCFS, micro jobs, 1.3x overload: the backlog builds and
/// drains, and the O(nodes)-per-event loop dominates.
pub const SCALE: Shape = Shape {
    nodes: 512,
    submissions: 24_000,
    mix: "micro",
    load: 1.3,
    mixed: false,
    streams: 3,
};

/// 16 nodes, interference-aware, every family plus DAGs, crashes, job
/// failures and checkpoints at about 65% utilisation: first-sight co-run
/// simulation and policy scoring dominate, the loop is nearly idle.
pub const MIX: Shape = Shape {
    nodes: 16,
    submissions: 200,
    mix: "all+dag",
    load: 0.65,
    mixed: true,
    streams: 2,
};

/// Shrink a shape for `--smoke`.
pub fn smoke(shape: &Shape) -> Shape {
    Shape {
        nodes: (shape.nodes / 16).max(2),
        submissions: (shape.submissions / 20).max(10),
        ..*shape
    }
}

/// Oracle warm-up threads: one, so a campaign is single-threaded; two
/// threads on a 2-core host shared with other tenants measured no faster
/// and much less steadily.
const BUILD_JOBS: usize = 1;
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;

/// A `Policy` that delegates to the real one and counts what it did.
pub struct TimedPolicy<'a> {
    inner: &'a dyn Policy,
    /// Tracer and the campaign span the `schedule` spans belong to.
    trace: Option<(&'a Tracer, u32)>,
    ns: AtomicU64,
    calls: AtomicU64,
    placed: AtomicU64,
    useful: AtomicU64,
}

/// What a [`TimedPolicy`] counted over one campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyStats {
    pub schedule_s: f64,
    pub calls: u64,
    pub placed: u64,
    /// Calls that placed at least one job.
    pub useful: u64,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a dyn Policy, trace: Option<(&'a Tracer, u32)>) -> TimedPolicy<'a> {
        TimedPolicy {
            inner,
            trace,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            placed: AtomicU64::new(0),
            useful: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> PolicyStats {
        PolicyStats {
            schedule_s: self.ns.load(Relaxed) as f64 / 1e9,
            calls: self.calls.load(Relaxed),
            placed: self.placed.load(Relaxed),
            useful: self.useful.load(Relaxed),
        }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &self,
        now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let t0 = Instant::now();
        let out = match self.trace {
            Some((tracer, parent)) => tracer.span(Some(parent), "policy", "schedule", 0, |_| {
                self.inner.schedule(now, queue, nodes, oracle)
            }),
            None => self.inner.schedule(now, queue, nodes, oracle),
        };
        // Relaxed: statistics only, read after the campaign returns.
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        if let Ok(batch) = &out {
            self.placed.fetch_add(batch.len() as u64, Relaxed);
            if !batch.is_empty() {
                self.useful.fetch_add(1, Relaxed);
            }
        }
        out
    }
}

/// Check a campaign's records against the invariants every campaign must
/// keep, given the number of records its stream must produce. Returns one
/// message per broken record (or missing/extra record count). That each
/// record is completed or failed needs no check: `completed` is a `bool`.
pub fn check_records(outcome: &CampaignOutcome, expected: usize) -> Vec<String> {
    let mut broken = Vec::new();
    if outcome.jobs.len() != expected {
        broken.push(format!(
            "{} records for {expected} submissions",
            outcome.jobs.len()
        ));
    }
    for (i, j) in outcome.jobs.iter().enumerate() {
        let finite = [
            j.arrival,
            j.start,
            j.finish,
            j.solo,
            j.lost_work,
            j.ckpt_overhead,
            j.staging_gib,
        ]
        .iter()
        .all(|v| v.is_finite());
        let why = if j.id != i as u64 {
            Some(format!("id {} at position {i}", j.id))
        } else if !finite {
            Some("non-finite field".to_string())
        } else if j.start < j.arrival {
            Some(format!("start {} before arrival {}", j.start, j.arrival))
        } else if j.finish < j.start {
            Some(format!("finish {} before start {}", j.finish, j.start))
        } else {
            None
        };
        if let Some(why) = why {
            broken.push(format!("job {}: {why}", j.id));
        }
    }
    broken
}

/// FNV-1a 64 of the campaign JSONL: equal across repeats of one stream,
/// and comparable across commits.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One sub-stream, fixed before timing starts: the campaign config with
/// its calibrated arrival rate, and how many records the stream produces.
struct Prepared {
    config: CampaignConfig,
    records: usize,
}

/// The set-up: characterize the alphabet once, then draw every sub-stream
/// and calibrate its offered load.
fn prepare_all(shape: &Shape, seed: u64) -> Vec<Prepared> {
    let exec = ExecutionParams::default();
    let unit = ArrivalSpec::parse(&format!(
        "poisson:rate=1,n={},mix={}",
        shape.submissions, shape.mix
    ))
    .expect("workload arrival spec parses");
    let oracle = Oracle::build(&unit.alphabet(), &exec, BUILD_JOBS).expect("calibration oracle");
    let mut seeds = SplitMix64::new(seed);
    (0..shape.streams)
        .map(|_| prepare(shape, &unit, &oracle, seeds.next_u64()))
        .collect()
}

/// Draw one stream and set its Poisson rate to `load` times the
/// cluster's ideal core throughput over the mean core-seconds of the
/// draw (so every stream offers the same load).
fn prepare(shape: &Shape, unit: &ArrivalSpec, oracle: &Oracle, seed: u64) -> Prepared {
    let exec = oracle.exec().clone();
    let draw = generate_open(unit, seed).expect("open stream");
    let core_secs = |family: &str, ranks: usize| {
        ranks as f64 * oracle.solo_runtime(family, ranks, oracle.best_config(family, ranks))
    };
    let mut demand = 0.0;
    let mut records = 0usize;
    for a in &draw {
        match &a.dag {
            Some(d) => {
                records += d.stages.len();
                demand += d
                    .stages
                    .iter()
                    .map(|s| core_secs(s.family.name(), s.ranks))
                    .sum::<f64>();
            }
            None => {
                records += 1;
                demand += core_secs(&a.workflow, a.ranks);
            }
        }
    }
    let capacity = (shape.nodes * exec.node.cores_per_socket()) as f64;
    let rate = shape.load * capacity * draw.len() as f64 / demand;
    let arrivals = match unit.clone() {
        ArrivalSpec::Poisson {
            count, mix, dags, ..
        } => ArrivalSpec::Poisson {
            rate,
            count,
            mix,
            dags,
        },
        _ => unreachable!("the workload spec is Poisson"),
    };
    let (faults, checkpoint) = if shape.mixed {
        // About two crashes per node over the stream, plus a per-attempt
        // job failure chance, with images every 60 simulated seconds.
        let span = shape.submissions as f64 / rate;
        (
            FaultSpec {
                seed: seed ^ 0x00FA_u64,
                mtbf: span / 2.0,
                repair: 300.0,
                job_fail_prob: 0.05,
                ..FaultSpec::default()
            },
            CheckpointSpec {
                interval: 60.0,
                ..CheckpointSpec::default()
            },
        )
    } else {
        (FaultSpec::default(), CheckpointSpec::default())
    };
    Prepared {
        config: CampaignConfig {
            nodes: shape.nodes,
            arrivals,
            seed,
            exec,
            faults,
            checkpoint,
            ..CampaignConfig::default()
        },
        records,
    }
}

fn policy(shape: &Shape) -> Box<dyn Policy> {
    if shape.mixed {
        Box::new(InterferenceAware::default())
    } else {
        Box::new(Fcfs)
    }
}

/// What the benchmark keeps of a checked campaign. The outcome itself is
/// dropped, so the process's peak memory is the program's, not copies
/// the benchmark held on to.
struct Summary {
    /// Invariant violations (see [`check_records`]).
    broken: Vec<String>,
    digest: u64,
    reprice_secs: f64,
    reprice_calls: u64,
    makespan: f64,
    mean_bsld: f64,
    restarts: u64,
}

impl Summary {
    fn of(outcome: &CampaignOutcome, expected: usize) -> Summary {
        Summary {
            broken: check_records(outcome, expected),
            digest: digest(&outcome.to_jsonl()),
            reprice_secs: outcome.reprice_secs,
            reprice_calls: outcome.reprice_calls,
            makespan: outcome.makespan,
            mean_bsld: outcome.mean_bounded_slowdown(),
            restarts: outcome.total_restarts(),
        }
    }
}

/// One timed iteration: a cold oracle plus the campaign.
struct Iteration {
    stream: usize,
    build_s: f64,
    run_s: f64,
    summary: Summary,
    policy: PolicyStats,
    corun_sets: usize,
    entries: usize,
    des_events: u64,
    /// Peak resident memory (MB) over the iteration.
    peak_mb: f64,
    /// Traced only: the policy and re-pricing of the same campaign
    /// repeated on the now-warm oracle.
    warm: Option<(PolicyStats, f64)>,
}

impl Iteration {
    fn wall_s(&self) -> f64 {
        self.build_s + self.run_s
    }

    /// Host seconds of the campaign loop itself: the campaign call minus
    /// the policy and the re-pricing inside it.
    fn loop_s(&self) -> f64 {
        (self.run_s - self.policy.schedule_s - self.summary.reprice_secs).max(0.0)
    }
}

/// Run one iteration on sub-stream `stream`. With a tracer, each layer
/// call becomes a span, and the campaign is then repeated on the
/// now-warm oracle: the policy prices nothing for the first time there,
/// which splits first-sight co-run simulation (`pricing.cold_s`) from
/// the policy's own scoring (`policy.self_s`). The repeat records spans
/// into a tracer of its own, so both sides carry the same tracing cost,
/// and must reproduce the cold campaign's JSONL.
fn iterate(
    preps: &[Prepared],
    stream: usize,
    policy: &dyn Policy,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Iteration {
    let prep = &preps[stream];
    let alphabet = prep.config.arrivals.alphabet();
    let exec = &prep.config.exec;
    report.restart_peak_rss();
    let t0 = Instant::now();
    let oracle = match tracer {
        Some(t) => t.span(None, "oracle", "Oracle::build", 0, |_| {
            Oracle::build(&alphabet, exec, BUILD_JOBS)
        }),
        None => Oracle::build(&alphabet, exec, BUILD_JOBS),
    }
    .expect("oracle builds");
    let build_s = t0.elapsed().as_secs_f64();
    let corun_before = oracle.corun_cache_len();
    let run = |trace| {
        let timed = TimedPolicy::new(policy, trace);
        let out = run_campaign_with_oracle(&prep.config, &timed, &oracle).expect("campaign runs");
        (out, timed.stats())
    };
    let t1 = Instant::now();
    let (outcome, stats) = match tracer {
        Some(t) => t.span(None, "campaign", "run_campaign_with_oracle", 0, |id| {
            run(Some((t, id)))
        }),
        None => run(None),
    };
    let run_s = t1.elapsed().as_secs_f64();
    let summary = Summary::of(&outcome, prep.records);
    drop(outcome);
    let corun_sets = oracle.corun_cache_len() - corun_before;
    let (des_events, warm) = match tracer {
        Some(_) => {
            let events = alphabet
                .iter()
                .map(|(name, ranks, _)| {
                    oracle
                        .config_sweep(name, *ranks)
                        .runs
                        .iter()
                        .map(|r| r.events)
                        .sum::<u64>()
                })
                .sum();
            let warm_tracer = Tracer::default();
            let (again, warm_stats) = run(Some((&warm_tracer, warm_tracer.open())));
            if digest(&again.to_jsonl()) != summary.digest {
                report.fail(format!(
                    "stream {stream}: the warm-oracle repeat changed the JSONL"
                ));
            }
            (events, Some((warm_stats, again.reprice_secs)))
        }
        None => (0, None),
    };
    Iteration {
        stream,
        build_s,
        run_s,
        corun_sets,
        entries: oracle.alphabet_len(),
        des_events,
        summary,
        policy: stats,
        warm,
        peak_mb: report.peak_rss_mb(),
    }
}

/// Run a campaign workload for `seconds` and report it.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut preps = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        preps = prepare_all(shape, seed);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let policy = policy(shape);
    let records: Vec<usize> = preps.iter().map(|p| p.records).collect();
    report.line(format!(
        "{} streams of {} submissions ({records:?} records) on {} nodes, policy {}",
        shape.streams,
        shape.submissions,
        shape.nodes,
        policy.name()
    ));

    // Untraced campaigns measure the end-to-end metrics: every stream at
    // least twice, so each stream's JSONL is seen to repeat and each has
    // a best-of. A traced run spends the first half of its window on one
    // pass, the baseline its tracing overhead is measured against.
    let window = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut digests: Vec<Option<u64>> = vec![None; shape.streams];
    let min = if trace {
        shape.streams
    } else {
        2 * shape.streams
    };
    let plain = round_robin(window, min, shape.streams, |s| {
        iterate(&preps, s, policy.as_ref(), None, report)
    });
    for it in &plain {
        check(it, &preps, &mut digests, report);
    }
    let walls: Vec<f64> = plain.iter().map(Iteration::wall_s).collect();
    let digests: Vec<String> = digests
        .iter()
        .map(|d| format!("{:016x}", d.expect("every stream ran")))
        .collect();
    report.line(format!(
        "JSONL digests {} over {} campaigns",
        digests.join(" "),
        plain.len()
    ));
    let per: Vec<String> = plain
        .iter()
        .map(|i| format!("#{}:{:.3}+{:.3}s", i.stream, i.build_s, i.run_s))
        .collect();
    report.line(format!("campaign walls (build+run) {}", per.join(" ")));

    if !trace {
        // Each stream's best campaign: other tenants of a shared host only
        // ever slow a campaign down, so its fastest repeat measures the
        // program and the others add the host's bursts. The figures are
        // then medians over the streams. Jobs are submissions, not
        // records: how many stage records a DAG expands into varies from
        // stream to stream.
        let best: Vec<f64> = (0..shape.streams)
            .map(|s| {
                plain
                    .iter()
                    .filter(|i| i.stream == s)
                    .map(Iteration::wall_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let rates: Vec<f64> = best.iter().map(|w| shape.submissions as f64 / w).collect();
        report.metric("jobs_per_s", stats::median(&rates), Unit::PerS);
        report.metric("req_per_s", 1.0 / stats::median(&best), Unit::PerS);
        report.latency(&best);
        report.metric("setup_s", stats::median(&setups), Unit::S);
        // Memory: the median over campaigns of each campaign's peak
        // (counted afresh from the resident size before it). The first
        // campaign of the process peaks higher, by an amount that
        // depends on the seed (34 to 37 MB against 29 MB for every later
        // one, on a 2-core x86-64 Linux VM), while the heap grows for the
        // first time; the median leaves that one-off out.
        let peaks: Vec<f64> = plain.iter().map(|i| i.peak_mb).collect();
        let per: Vec<String> = plain
            .iter()
            .map(|i| format!("#{}:{:.1}", i.stream, i.peak_mb))
            .collect();
        report.line(format!("campaign peak memory (MB) {}", per.join(" ")));
        report.metric("peak_rss_mb", stats::median(&peaks), Unit::Mb);
        return;
    }

    let tracer = Tracer::default();
    let traced = round_robin(window, shape.streams, shape.streams, |s| {
        iterate(&preps, s, policy.as_ref(), Some(&tracer), report)
    });
    let mut digests: Vec<Option<u64>> = vec![None; shape.streams];
    for it in &traced {
        check(it, &preps, &mut digests, report);
    }

    // Per-campaign means over the traced pass.
    let n = traced.len() as f64;
    let mean = |f: &dyn Fn(&Iteration) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let warm = |i: &Iteration| i.warm.expect("traced iterations repeat warm");
    let wall = mean(&|i| i.wall_s());
    let build_s = mean(&|i| i.build_s);
    let reprice_s = mean(&|i| i.summary.reprice_secs);
    let schedule_s = mean(&|i| i.policy.schedule_s);
    let self_s = mean(&|i| warm(i).0.schedule_s);
    let cold_policy_s = mean(&|i| (i.policy.schedule_s - warm(i).0.schedule_s).max(0.0));
    let cold_reprice_s = mean(&|i| (i.summary.reprice_secs - warm(i).1).max(0.0));
    let loop_s = mean(&|i| i.loop_s());
    let calls = mean(&|i| i.policy.calls as f64);

    let mut table = LayerTable::from_spans(&tracer.spans());
    table.carve("campaign", "pricing", (reprice_s * n * 1e9) as u64);
    table.carve("policy", "pricing", (cold_policy_s * n * 1e9) as u64);
    report.table(&table);
    report.line(format!(
        "layer shares of campaign wall: oracle {:.1}%, policy scoring {:.1}%, \
         first-sight pricing {:.1}% (in policy {:.1}%, in re-pricing {:.1}%), \
         warm re-pricing {:.1}%, loop {:.1}%",
        100.0 * build_s / wall,
        100.0 * (schedule_s - cold_policy_s) / wall,
        100.0 * (cold_policy_s + cold_reprice_s) / wall,
        100.0 * cold_policy_s / wall,
        100.0 * cold_reprice_s / wall,
        100.0 * (reprice_s - cold_reprice_s) / wall,
        100.0 * loop_s / wall
    ));
    let overhead = report.overhead(
        "campaign wall (jobs_per_s, latency_p50_ms)",
        walls.iter().sum::<f64>() / walls.len() as f64,
        wall,
        false,
    );
    report.metric("trace.overhead_pct", overhead, Unit::Pct);
    match report.write_trace(&crate::spans::chrome_trace_json(&tracer.spans())) {
        Ok(path) => report.line(format!("trace written to {path}")),
        Err(e) => report.line(format!("trace not written: {e}")),
    }

    let events = mean(&|i| i.des_events as f64);
    report.metric("oracle.build_s", build_s, Unit::S);
    report.metric("oracle.entries", mean(&|i| i.entries as f64), Unit::Count);
    report.metric("des.events", events, Unit::Count);
    report.metric("des.events_per_s", events / build_s, Unit::PerS);
    report.metric("pricing.reprice_s", reprice_s, Unit::S);
    report.metric(
        "pricing.reprice_calls",
        mean(&|i| i.summary.reprice_calls as f64),
        Unit::Count,
    );
    report.metric(
        "pricing.corun_sets",
        mean(&|i| i.corun_sets as f64),
        Unit::Count,
    );
    report.metric("pricing.cold_s", cold_policy_s + cold_reprice_s, Unit::S);
    report.metric("policy.schedule_s", schedule_s, Unit::S);
    report.metric("policy.self_s", self_s, Unit::S);
    report.metric("policy.calls", calls, Unit::Count);
    report.metric(
        "policy.placed",
        mean(&|i| i.policy.placed as f64),
        Unit::Count,
    );
    report.metric(
        "policy.useful_ratio",
        mean(&|i| i.policy.useful as f64) / calls.max(1.0),
        Unit::Ratio,
    );
    report.metric("campaign.loop_s", loop_s, Unit::S);
    report.metric(
        "campaign.loop_us_per_submission",
        loop_s * 1e6 / shape.submissions as f64,
        Unit::Us,
    );
    report.metric("sim.makespan_s", mean(&|i| i.summary.makespan), Unit::S);
    report.metric("sim.mean_bsld", mean(&|i| i.summary.mean_bsld), Unit::Ratio);
    report.metric(
        "sim.restarts",
        mean(&|i| i.summary.restarts as f64),
        Unit::Count,
    );
}

/// Check one iteration's records, and that its JSONL matches the first
/// campaign of the same stream. Every record counts as an attempted
/// operation; a broken record is a failed one, and a changed digest fails
/// them all.
fn check(it: &Iteration, preps: &[Prepared], digests: &mut [Option<u64>], report: &mut Report) {
    let records = preps[it.stream].records;
    let broken = &it.summary.broken;
    let d = it.summary.digest;
    let same = *digests[it.stream].get_or_insert(d) == d;
    if !same {
        report.fail(format!(
            "stream {}: JSONL digest {d:016x} differs from its first campaign",
            it.stream
        ));
    }
    for b in broken.iter().take(5) {
        report.fail(format!("stream {}: {b}", it.stream));
    }
    report.attempted += records as u64;
    report.failed += if same {
        broken.len().min(records) as u64
    } else {
        records as u64
    };
}

/// Run campaigns round-robin over `streams` sub-streams within `window`:
/// at least `min`, and another only while the mean campaign so far still
/// fits.
fn round_robin<T>(
    window: Duration,
    min: usize,
    streams: usize,
    mut f: impl FnMut(usize) -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || {
        let elapsed = start.elapsed();
        elapsed + elapsed / out.len() as u32 <= window
    } {
        out.push(f(out.len() % streams));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Prepared, CampaignOutcome) {
        let shape = Shape {
            nodes: 2,
            submissions: 12,
            mix: "micro",
            load: 1.0,
            mixed: false,
            streams: 1,
        };
        let prep = prepare_all(&shape, 3).remove(0);
        let oracle =
            Oracle::build(&prep.config.arrivals.alphabet(), &prep.config.exec, 1).expect("oracle");
        let out = run_campaign_with_oracle(&prep.config, &Fcfs, &oracle).expect("campaign");
        (prep, out)
    }

    #[test]
    fn checker_accepts_a_real_campaign() {
        let (prep, out) = tiny();
        assert_eq!(check_records(&out, prep.records), Vec::<String>::new());
    }

    #[test]
    fn checker_rejects_doctored_records() {
        let (prep, out) = tiny();
        let doctor = |f: &dyn Fn(&mut CampaignOutcome)| {
            let mut bad = out.clone();
            f(&mut bad);
            check_records(&bad, prep.records)
        };
        assert_eq!(
            doctor(&|o| o.jobs[3].start = o.jobs[3].arrival - 1.0).len(),
            1
        );
        assert_eq!(
            doctor(&|o| o.jobs[2].finish = o.jobs[2].start - 1.0).len(),
            1
        );
        assert_eq!(doctor(&|o| o.jobs[1].solo = f64::NAN).len(), 1);
        assert_eq!(doctor(&|o| o.jobs[4].id = 99).len(), 1);
        // A lost record breaks the count and every later id.
        assert!(!doctor(&|o| {
            o.jobs.remove(0);
        })
        .is_empty());
    }

    #[test]
    fn digest_tells_streams_apart() {
        let (_, out) = tiny();
        let text = out.to_jsonl();
        assert_eq!(digest(&text), digest(&text.clone()));
        assert_ne!(
            digest(&text),
            digest(&text.replacen("\"node\":0", "\"node\":1", 1))
        );
    }

    #[test]
    fn timed_policy_delegates_and_counts() {
        let (prep, reference) = tiny();
        let oracle =
            Oracle::build(&prep.config.arrivals.alphabet(), &prep.config.exec, 1).expect("oracle");
        let timed = TimedPolicy::new(&Fcfs, None);
        let out = run_campaign_with_oracle(&prep.config, &timed, &oracle).expect("campaign");
        assert_eq!(out.to_jsonl(), reference.to_jsonl());
        let s = timed.stats();
        assert!(s.calls >= s.useful && s.useful > 0);
        assert_eq!(s.placed, prep.records as u64);
    }
}
