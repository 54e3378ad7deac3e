//! The differential reference for the event-driven campaign core: the
//! campaign loop as it stood before the core was rebuilt around
//! closed-form progress, stripped of every index and cache. Each instant
//! it rescans every node for the next event and the due jobs, advances
//! every running job eagerly by `dt / wall_mult`, rebuilds every node
//! view and the queue view from scratch, and re-prices through the
//! oracle's multiset path. It shares only the record and DAG helpers,
//! [`Policy`] and [`Oracle`] with the real loop. It keeps the old loop's
//! 1 ns matching windows, which eager accumulation needs: summed steps
//! land within rounding of an event time, not on it.

use super::*;

struct Node {
    running: Vec<Running>,
    busy_core_secs: f64,
    up: bool,
    degrade: f64,
}

/// What completions and interruptions touch besides the nodes.
struct State<'a> {
    oracle: &'a Oracle,
    ckpt: &'a CheckpointSpec,
    queue: VecDeque<Queued>,
    records: Vec<JobRecord>,
    dags: Vec<DagRun>,
    staging: StagingState,
    held: usize,
    finished_clients: Vec<usize>,
    makespan: f64,
}

impl State<'_> {
    fn enqueue(&mut self, q: Queued) {
        let key = (q.job.arrival, q.job.id);
        let at = self
            .queue
            .partition_point(|o| (o.job.arrival, o.job.id) <= key);
        self.queue.insert(at, q);
    }

    fn stage_completed(&mut self, di: u32, si: usize, node: usize, now: f64) {
        let d = &mut self.dags[di as usize];
        let released = stage_done(d, si, node, &mut self.staging);
        for succ in released {
            self.held -= 1;
            let q = stage_entry(&self.dags[di as usize], di, succ, now);
            self.enqueue(q);
        }
        let d = &mut self.dags[di as usize];
        finish_dag_if_settled(d, &mut self.staging, &mut self.finished_clients);
    }

    fn settle_interrupted(&mut self, r: Running, node: usize, now: f64) {
        let client = r.client;
        let dag = r.dag;
        let mut rec = match interrupt(r, node, now, self.ckpt) {
            Interrupted::Requeue(q) => {
                if let Some((di, si)) = dag {
                    self.dags[di as usize].state[si] = StageState::Ready;
                }
                self.enqueue(q);
                return;
            }
            Interrupted::Failed(rec) => rec,
        };
        self.makespan = self.makespan.max(now);
        let Some((di, si)) = dag else {
            self.records.push(rec);
            self.finished_clients.extend(client);
            return;
        };
        let d = &mut self.dags[di as usize];
        if d.tokens > 0 && !d.failed {
            d.tokens -= 1;
            d.state[si] = StageState::Ready;
            let q = revived_entry(&rec, node, (di, si), now + self.ckpt.backoff_base);
            self.enqueue(q);
            return;
        }
        rec.dag = d.label.to_string();
        rec.stage = d.spec.stages[si].name.clone();
        rec.staging_gib = d.stage_staging_gib(si);
        self.records.push(rec);
        d.state[si] = StageState::Settled;
        d.unsettled -= 1;
        d.failed = true;
        for sj in 0..d.state.len() {
            let q = match d.state[sj] {
                StageState::Held => {
                    self.held -= 1;
                    None
                }
                StageState::Ready => {
                    let qi = self
                        .queue
                        .iter()
                        .position(|q| q.dag == Some((di, sj)))
                        .expect("ready stage is queued");
                    self.queue.remove(qi)
                }
                StageState::Running | StageState::Settled => continue,
            };
            self.records
                .push(failed_stage_record(d, sj, q.as_ref(), now, self.oracle));
            d.state[sj] = StageState::Settled;
            d.unsettled -= 1;
        }
        finish_dag_if_settled(d, &mut self.staging, &mut self.finished_clients);
    }
}

fn projected_event(r: &Running, now: f64, degrade: f64, ckpt_mult: f64) -> f64 {
    now + (r.target() - r.progress).max(0.0) * r.wall_mult(degrade, ckpt_mult)
}

/// The earliest backoff expiry strictly after `now`, by scanning.
pub(super) fn next_backoff_expiry<'a>(
    queue: impl IntoIterator<Item = &'a Queued>,
    now: f64,
) -> Option<f64> {
    queue
        .into_iter()
        .map(|q| q.eligible)
        .filter(|&e| e > now)
        .min_by(f64::total_cmp)
}

fn reprice(node: &mut Node, oracle: &Oracle) -> Result<(), ClusterError> {
    let keys: Vec<TenantKey> = node
        .running
        .iter()
        .map(|r| TenantKey::new(&r.workflow, r.ranks, r.config))
        .collect();
    for (r, s) in node.running.iter_mut().zip(oracle.corun_slowdowns(&keys)?) {
        r.slowdown = s.max(1.0);
    }
    Ok(())
}

/// [`run_campaign_with_oracle`], the naive way.
pub(super) fn run_campaign(
    config: &CampaignConfig,
    policy: &dyn Policy,
    oracle: &Oracle,
) -> Result<CampaignOutcome, ClusterError> {
    validate(config)?;
    let cap = config.exec.node.cores_per_socket();
    let ckpt_frac = checkpoint_tax(config);
    let ckpt_mult = 1.0 + ckpt_frac;
    let mut plan = FaultPlan::new(&config.faults, config.nodes);
    let (mut pending, mut closed) = arrival_source(config);
    let mut nodes: Vec<Node> = (0..config.nodes)
        .map(|_| Node {
            running: Vec::new(),
            busy_core_secs: 0.0,
            up: true,
            degrade: 1.0,
        })
        .collect();
    let mut st = State {
        oracle,
        ckpt: &config.checkpoint,
        queue: VecDeque::new(),
        records: Vec::new(),
        dags: Vec::new(),
        staging: StagingState::new(config.staging_gib, config.nodes),
        held: 0,
        finished_clients: Vec::new(),
        makespan: 0.0,
    };
    let mut next_job_id = 0u64;
    let mut now = 0.0f64;
    loop {
        let work_remains = !pending.is_empty()
            || !st.queue.is_empty()
            || st.held > 0
            || nodes.iter().any(|n| !n.running.is_empty());
        if !work_remains {
            break;
        }
        let next_job = nodes
            .iter()
            .filter(|n| n.up)
            .flat_map(|n| {
                n.running
                    .iter()
                    .map(move |r| projected_event(r, now, n.degrade, ckpt_mult))
            })
            .min_by(f64::total_cmp);
        let Some(t) = [
            pending.front().map(|a| a.time),
            next_job,
            next_backoff_expiry(&st.queue, now),
            plan.peek_time(),
        ]
        .into_iter()
        .flatten()
        .min_by(f64::total_cmp) else {
            break;
        };
        let t = t.max(now);
        let dt = t - now;
        for node in nodes.iter_mut().filter(|n| n.up) {
            for r in &mut node.running {
                r.progress += dt / r.wall_mult(node.degrade, ckpt_mult);
                r.ckpt_overhead += dt * ckpt_frac / ckpt_mult;
                node.busy_core_secs += 2.0 * r.ranks as f64 * dt;
            }
        }
        now = t;

        while plan.peek_time().is_some_and(|ft| ft <= now + 1e-9) {
            let e = plan.pop().expect("peeked event exists");
            let node = &mut nodes[e.node];
            match e.kind {
                FaultEventKind::Crash => {
                    node.up = false;
                    for r in std::mem::take(&mut node.running) {
                        st.settle_interrupted(r, e.node, now);
                    }
                }
                FaultEventKind::Repair => node.up = true,
                FaultEventKind::DegradeStart => node.degrade = config.faults.degrade_factor,
                FaultEventKind::DegradeEnd => node.degrade = 1.0,
            }
        }

        let mut changed: Vec<usize> = Vec::new();
        for (ni, node) in nodes.iter_mut().enumerate().filter(|(_, n)| n.up) {
            let mut i = 0;
            while i < node.running.len() {
                if projected_event(&node.running[i], now, node.degrade, ckpt_mult) > now + 1e-9 {
                    i += 1;
                    continue;
                }
                let r = node.running.remove(i);
                if !changed.contains(&ni) {
                    changed.push(ni);
                }
                if r.fail_at.is_some() {
                    st.settle_interrupted(r, ni, now);
                    continue;
                }
                st.makespan = st.makespan.max(now);
                st.finished_clients.extend(r.client);
                st.records.push(completed_record(&r, ni, now, &st.dags));
                if let Some((di, si)) = r.dag {
                    st.stage_completed(di, si, ni, now);
                }
            }
        }
        if let Some(closed) = closed.as_mut() {
            st.finished_clients.sort_unstable();
            for &c in &st.finished_clients {
                closed.resubmit(now, c, &mut pending);
            }
        }
        st.finished_clients.clear();

        while pending.front().is_some_and(|a| a.time <= now + 1e-9) {
            let a = pending.pop_front().expect("front exists");
            if a.dag.is_none() {
                st.enqueue(plain_entry(a, next_job_id));
                next_job_id += 1;
                continue;
            }
            let di = st.dags.len() as u32;
            let d = DagRun::expand(a, next_job_id, config, oracle)?;
            next_job_id += d.state.len() as u64;
            for si in 0..d.state.len() {
                if d.state[si] == StageState::Ready {
                    st.enqueue(stage_entry(&d, di, si, now));
                } else {
                    st.held += 1;
                }
            }
            st.dags.push(d);
        }
        for &ni in &changed {
            reprice(&mut nodes[ni], oracle)?;
        }

        while let Some(min_ranks) = st
            .queue
            .iter()
            .filter(|q| backoff_expired(q, now))
            .map(|q| q.job.ranks)
            .min()
        {
            let used = |n: &Node| n.running.iter().map(|r| r.ranks).sum::<usize>();
            let max_free = nodes
                .iter()
                .filter(|n| n.up)
                .map(|n| cap - used(n))
                .max()
                .unwrap_or(0);
            if min_ranks > max_free {
                break;
            }
            let views: Vec<NodeView> = nodes
                .iter()
                .enumerate()
                .map(|(id, n)| NodeView {
                    id,
                    cores_per_socket: cap,
                    up: n.up,
                    residents: n
                        .running
                        .iter()
                        .map(|r| ResidentView {
                            id: r.id,
                            workflow: r.workflow.clone(),
                            ranks: r.ranks,
                            config: r.config,
                            projected_finish: projected_event(r, now, n.degrade, ckpt_mult),
                        })
                        .collect(),
                    staging_capacity: config.staging_gib,
                    staging_reserved: st.staging.reserved[id],
                    staged_gib: st.staging.live[id],
                    staging_holds: st
                        .dags
                        .iter()
                        .filter(|d| d.home == Some(id) && d.unsettled > 0)
                        .map(|d| (now + d.remaining_solo(), d.reservation))
                        .collect(),
                })
                .collect();
            let queue_view: Vec<&QueuedJob> = st
                .queue
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| &q.job)
                .collect();
            let batch = policy.schedule(now, &queue_view, &views, oracle)?;
            let mut touched: Vec<usize> = Vec::new();
            for p in batch {
                let Some(qi) = st.queue.iter().position(|q| q.job.id == p.job) else {
                    return Err(ClusterError::Config(format!(
                        "policy {} placed unknown job {}",
                        policy.name(),
                        p.job
                    )));
                };
                let q = &st.queue[qi];
                if !nodes[p.node].up
                    || used(&nodes[p.node]) + q.job.ranks > cap
                    || q.job.home.is_some_and(|h| h != p.node)
                    || st.staging.reserved[p.node] + q.job.staging > st.staging.capacity + 1e-9
                {
                    continue;
                }
                let q = st.queue.remove(qi).expect("index in range");
                if let Some((di, si)) = q.dag {
                    let d = &mut st.dags[di as usize];
                    if d.home.is_none() {
                        d.home = Some(p.node);
                        st.staging.reserve(p.node, d.reservation);
                        for o in st.queue.iter_mut() {
                            if o.dag.is_some_and(|(odi, _)| odi == di) {
                                o.job.home = Some(p.node);
                                o.job.staging = 0.0;
                            }
                        }
                    }
                    d.state[si] = StageState::Running;
                }
                let cfg = q.config.unwrap_or(p.config);
                let solo = oracle.solo_runtime(&q.job.workflow, q.job.ranks, cfg)
                    + q.dag
                        .map_or(0.0, |(di, si)| st.dags[di as usize].extra_solo[si]);
                let fail_at = fail_point(&plan, &q, solo);
                nodes[p.node].running.push(Running {
                    id: q.job.id,
                    workflow: q.job.workflow,
                    ranks: q.job.ranks,
                    config: cfg,
                    tenant: 0,
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
                if !touched.contains(&p.node) {
                    touched.push(p.node);
                }
            }
            if touched.is_empty() {
                break;
            }
            for &ni in &touched {
                reprice(&mut nodes[ni], oracle)?;
            }
        }
    }

    if !st.queue.is_empty() || st.held > 0 {
        return Err(ClusterError::Config(format!(
            "campaign drained with {} jobs still queued and {} stages held (policy {})",
            st.queue.len(),
            st.held,
            policy.name()
        )));
    }
    st.records.sort_by_key(|r| r.id);
    Ok(CampaignOutcome {
        policy: policy.name().to_string(),
        seed: config.seed,
        nodes: config.nodes,
        jobs: st.records,
        makespan: st.makespan,
        busy_core_secs: nodes.iter().map(|n| n.busy_core_secs).collect(),
        cores_per_node: 2 * cap,
        staging_capacity: config.staging_gib,
        peak_staging_gib: st.staging.peak,
        corun_sets_priced: oracle.corun_cache_len(),
        reprice_secs: 0.0,
        reprice_calls: 0,
    })
}

mod tests {
    use super::*;
    use crate::arrivals::TraceRow;
    use crate::policy::all_policies;
    use pmemflow_workloads::Family;
    use std::sync::OnceLock;

    /// One oracle over the whole suite (DAG stages draw from all of it),
    /// shared by every case so characterization and co-run pricing are
    /// paid once.
    fn oracle() -> &'static Oracle {
        static ORACLE: OnceLock<Oracle> = OnceLock::new();
        ORACLE.get_or_init(|| {
            let all = ArrivalSpec::parse("poisson:rate=1,n=1,mix=all").expect("spec");
            Oracle::build(&all.alphabet(), &ExecutionParams::default(), 2).expect("oracle")
        })
    }

    const MICRO: [Family; 2] = [Family::Micro64MB, Family::Micro2KB];

    /// Mean best-config solo runtime of the micro entries: the time unit
    /// the case generator scales loads, faults and checkpoints by.
    fn micro_solo() -> f64 {
        let o = oracle();
        let solos: Vec<f64> = MICRO
            .iter()
            .flat_map(|f| [8, 16, 24].map(|r| (f.name(), r)))
            .map(|(name, r)| o.solo_runtime(name, r, o.best_config(name, r)))
            .collect();
        solos.iter().sum::<f64>() / solos.len() as f64
    }

    /// A random small campaign: 1–8 nodes, Poisson, closed or trace
    /// arrivals over the micro families (DAG mixes in one case of five),
    /// offered load 0.3–2x, and in half the cases each a crash/degrade/
    /// job-failure plan and checkpointing.
    fn case(seed: u64) -> (CampaignConfig, usize) {
        let mut rng = SplitMix64::new(seed);
        let solo = micro_solo();
        let nodes = rng.range_usize(1, 9);
        let policy = rng.range_usize(0, 4);
        let (mix, families): (&str, &[Family]) = match rng.range_usize(0, 3) {
            0 => ("micro", &MICRO),
            1 => ("micro-64mb", &MICRO[..1]),
            _ => ("micro-2kb", &MICRO[1..]),
        };
        let dag = rng.range_usize(0, 5) == 0;
        let n = rng.range_u64(4, if dag { 9 } else { 25 });
        let load = rng.range_f64(0.3, 2.0);
        let rate = load * nodes as f64 * 28.0 / (16.0 * solo * if dag { 4.0 } else { 1.0 });
        let mix = if dag {
            format!("{mix}+dag")
        } else {
            mix.to_string()
        };
        let arrivals = match rng.range_usize(0, if dag { 2 } else { 3 }) {
            0 => ArrivalSpec::parse(&format!("poisson:rate={rate},n={n},mix={mix}")),
            1 => ArrivalSpec::parse(&format!(
                "closed:clients={},think={},n={n},mix={mix}",
                rng.range_usize(1, 2 * nodes + 1),
                rng.range_f64(0.0, 2.0 * solo)
            )),
            _ => {
                // Every fourth row shares its predecessor's instant.
                let mut time = 0.0;
                let rows = (0..n)
                    .map(|_| {
                        if rng.range_usize(0, 4) != 0 {
                            time += -rng.next_f64().max(1e-12).ln() / rate;
                        }
                        TraceRow {
                            time,
                            family: families[rng.range_usize(0, families.len())],
                            ranks: [8, 16, 24][rng.range_usize(0, 3)],
                        }
                    })
                    .collect();
                Ok(ArrivalSpec::Trace(rows))
            }
        }
        .expect("generated spec parses");
        let mut cfg = CampaignConfig {
            nodes,
            arrivals,
            seed: rng.next_u64(),
            ..CampaignConfig::default()
        };
        if rng.next_bool() {
            let pick = |rng: &mut SplitMix64, lo: f64, hi: f64| {
                if rng.next_bool() {
                    solo * rng.range_f64(lo, hi)
                } else {
                    0.0
                }
            };
            cfg.faults = FaultSpec {
                seed: rng.next_u64(),
                mtbf: pick(&mut rng, 2.0, 20.0),
                repair: solo * rng.range_f64(0.05, 0.5),
                degrade_mtbf: pick(&mut rng, 1.0, 10.0),
                degrade_duration: solo * rng.range_f64(0.1, 1.0),
                degrade_factor: rng.range_f64(1.2, 3.0),
                job_fail_prob: if rng.next_bool() {
                    rng.range_f64(0.0, 0.3)
                } else {
                    0.0
                },
            };
        }
        if rng.next_bool() {
            cfg.checkpoint = CheckpointSpec {
                interval: solo * rng.range_f64(0.1, 0.5),
                retry_budget: rng.range_u64(1, 6) as u32,
                backoff_base: rng.range_f64(0.5, 10.0),
                ..CheckpointSpec::default()
            };
        }
        (cfg, policy)
    }

    /// Same placements, configurations, outcomes and restarts; start and
    /// finish within 1e-6 s.
    fn agree(got: &CampaignOutcome, want: &CampaignOutcome) -> Result<(), String> {
        if got.jobs.len() != want.jobs.len() {
            return Err(format!("{} records vs {}", got.jobs.len(), want.jobs.len()));
        }
        for (g, w) in got.jobs.iter().zip(&want.jobs) {
            if (g.id, g.node, g.config, g.completed, g.restarts)
                != (w.id, w.node, w.config, w.completed, w.restarts)
                || (g.start - w.start).abs() > 1e-6
                || (g.finish - w.finish).abs() > 1e-6
            {
                return Err(format!(
                    "job {} diverged:\n  got  {g:?}\n  want {w:?}",
                    g.id
                ));
            }
        }
        Ok(())
    }

    fn differential(seed: u64, mutant: bool) -> Result<(), String> {
        let (cfg, policy) = case(seed);
        let policy = &all_policies()[policy];
        let want = run_campaign(&cfg, policy.as_ref(), oracle());
        let got = Campaign::new(&cfg, policy.as_ref(), oracle()).and_then(|mut c| {
            c.skip_completion_reprice = mutant;
            c.run()
        });
        let context = || format!("case {seed} ({}, {} nodes)", policy.name(), cfg.nodes);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                audit(&got).map_err(|e| format!("{}: audit: {e}", context()))?;
                agree(&got, &want).map_err(|e| format!("{}: {e}", context()))
            }
            (Err(g), Err(w)) if g.to_string() == w.to_string() => Ok(()),
            (got, want) => Err(format!(
                "{}: {:?} vs reference {:?}",
                context(),
                got.err().map(|e| e.to_string()),
                want.err().map(|e| e.to_string())
            )),
        }
    }

    /// The event-driven core against the naive reference over 240 seeded
    /// random campaigns.
    #[test]
    fn event_core_matches_the_naive_reference() {
        for seed in 0..240 {
            if let Err(e) = differential(seed, false) {
                panic!("{e}");
            }
        }
    }

    /// The differential test has teeth: a core that leaves survivors at
    /// their stale slowdowns after a completion must be caught.
    #[test]
    fn a_core_that_skips_repricing_after_completions_is_caught() {
        let caught = (0..240).find(|&seed| differential(seed, true).is_err());
        assert!(caught.is_some(), "the mutant passed every case");
    }
}
