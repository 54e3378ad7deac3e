//! Campaign-level invariants, checked by reconstruction from job records:
//! capacity safety at every event time, FCFS ordering, and bit-identical
//! output across worker counts.

use pmemflow_cluster::{
    all_policies, audit, run_campaign, run_campaign_with_oracle, ArrivalSpec, CampaignConfig,
    CampaignOutcome, CheckpointSpec, FaultSpec, Fcfs, Oracle, Policy,
};

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

/// A bursty stream over one micro family (3 rank levels): high rate so the
/// queue actually builds and placements contend for capacity.
fn contended_config(n: u64, nodes: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::parse(&format!("poisson:rate=2,n={n},mix=micro-64mb")).unwrap(),
        seed,
        ..CampaignConfig::default()
    }
}

#[test]
fn no_node_ever_exceeds_per_socket_capacity() {
    let cfg = contended_config(14, 2, 11);
    let cap = cfg.exec.node.cores_per_socket();
    let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
    for policy in all_policies() {
        let out = run_with(&cfg, policy.as_ref(), &oracle);
        // The resident set only changes at job starts, so checking every
        // start instant covers every distinct occupancy interval.
        for probe in &out.jobs {
            for node in 0..cfg.nodes {
                let used: usize = out
                    .jobs
                    .iter()
                    .filter(|j| {
                        j.node == node && j.start <= probe.start + 1e-9 && j.finish > probe.start
                    })
                    .map(|j| j.ranks)
                    .sum();
                assert!(
                    used <= cap,
                    "{}: node {node} holds {used} > {cap} cores at t={}",
                    policy.name(),
                    probe.start
                );
            }
        }
    }
}

#[test]
fn fcfs_never_reorders_equal_priority_arrivals() {
    let out = run(&contended_config(14, 2, 5), &Fcfs, 2);
    // Records are in submission id order == arrival order for an open
    // stream; under FCFS nobody may start before an earlier arrival.
    for pair in out.jobs.windows(2) {
        assert!(
            pair[1].start >= pair[0].start - 1e-9,
            "job {} (start {}) overtook job {} (start {})",
            pair[1].id,
            pair[1].start,
            pair[0].id,
            pair[0].start
        );
    }
}

#[test]
fn identical_seed_means_byte_identical_jsonl_across_jobs() {
    let cfg = contended_config(10, 2, 9);
    for policy in all_policies() {
        let serial = run(&cfg, policy.as_ref(), 1);
        let parallel = run(&cfg, policy.as_ref(), 4);
        assert_eq!(
            serial.to_jsonl(),
            parallel.to_jsonl(),
            "{} output depends on worker count",
            policy.name()
        );
    }
    // And a different seed really is a different campaign.
    let mut other = contended_config(10, 2, 9);
    other.seed = 10;
    let a = run(&cfg, &Fcfs, 2);
    let b = run(&other, &Fcfs, 2);
    assert_ne!(a.to_jsonl(), b.to_jsonl());
}

#[test]
fn replicated_oracle_campaign_is_byte_identical_to_locked() {
    // The op-log replicated oracle must be invisible in the output: the
    // same campaign through a locked oracle (the `PMEMFLOW_ORACLE=locked`
    // escape hatch) and a replicated one, sequential and parallel, all
    // produce one JSONL byte string.
    let cfg = contended_config(12, 2, 9);
    let alphabet = cfg.arrivals.alphabet();
    let locked = Oracle::build_locked(&alphabet, &cfg.exec, 1).unwrap();
    assert!(!locked.is_replicated());
    let references: Vec<String> = all_policies()
        .iter()
        .map(|p| run_with(&cfg, p.as_ref(), &locked).to_jsonl())
        .collect();
    for jobs in [1, 4, 8] {
        // A fresh replicated oracle per concurrency level: `jobs` is the
        // characterization fan-out, so each build fills the op log under
        // a different interleaving.
        let replicated = Oracle::build_with_replicas(&alphabet, &cfg.exec, jobs, 4).unwrap();
        assert!(replicated.is_replicated());
        for (policy, reference) in all_policies().iter().zip(&references) {
            let out = run_with(&cfg, policy.as_ref(), &replicated).to_jsonl();
            assert_eq!(
                reference,
                &out,
                "{} differs between locked and replicated oracles at --jobs {jobs}",
                policy.name()
            );
        }
        // The replicated oracle really worked for its answers: ops
        // flowed through the shared log, not a per-thread side channel.
        let stats = replicated.nr_stats().expect("replicated backing");
        assert!(stats.log_tail > 0 && stats.flushes > 0);
    }
}

/// A dense failure trace over the contended stream: crashes and transient
/// degradation both well inside the campaign's lifetime, with
/// checkpointing on so restarts resume mid-flight.
fn faulty_config(n: u64, nodes: usize, seed: u64) -> CampaignConfig {
    let mut cfg = contended_config(n, nodes, seed);
    cfg.faults = FaultSpec {
        seed: 1234,
        mtbf: 400.0,
        repair: 40.0,
        degrade_mtbf: 300.0,
        degrade_duration: 60.0,
        degrade_factor: 2.0,
        job_fail_prob: 0.1,
    };
    cfg.checkpoint = CheckpointSpec {
        interval: 30.0,
        retry_budget: 5,
        backoff_base: 2.0,
        ..CheckpointSpec::default()
    };
    cfg
}

#[test]
fn same_fault_seed_is_byte_identical_jsonl_across_jobs_counts() {
    let cfg = faulty_config(10, 2, 9);
    for policy in all_policies() {
        let reference = run(&cfg, policy.as_ref(), 1).to_jsonl();
        for jobs in [4, 8] {
            let other = run(&cfg, policy.as_ref(), jobs).to_jsonl();
            assert_eq!(
                reference,
                other,
                "{} fault campaign differs between --jobs 1 and --jobs {jobs}",
                policy.name()
            );
        }
    }
    // A different fault seed against the same arrivals is a different
    // campaign — the trace is live, not ignored.
    let mut other = faulty_config(10, 2, 9);
    other.faults.seed = 4321;
    assert_ne!(
        run(&cfg, &Fcfs, 2).to_jsonl(),
        run(&other, &Fcfs, 2).to_jsonl(),
    );
}

#[test]
fn every_submission_is_accounted_under_faults() {
    let cfg = faulty_config(12, 2, 7);
    for policy in all_policies() {
        let out = run(&cfg, policy.as_ref(), 2);
        assert_eq!(
            out.jobs.len(),
            12,
            "{}: submissions lost or duplicated under faults",
            policy.name()
        );
        assert_eq!(out.completed() + out.failed(), 12, "{}", policy.name());
        for j in &out.jobs {
            if !j.completed {
                assert!(
                    j.restarts > cfg.checkpoint.retry_budget,
                    "{}: job {} reported failed inside its retry budget",
                    policy.name(),
                    j.id
                );
            }
        }
    }
}
