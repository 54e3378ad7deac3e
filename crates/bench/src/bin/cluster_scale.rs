//! Campaign-scheduler scale benchmark: one big FCFS campaign — 1k+ nodes,
//! 100k+ submissions — through the event-driven campaign core, timed best
//! of three with the spread, against two baselines:
//!
//! * **full re-pricing** (in-process, `full_reprice: true`): the same
//!   loop but every touched node re-priced through the oracle's multiset
//!   path instead of the campaign-local incremental price cache. Run
//!   against the incremental path on the *same* `--baseline-frac` prefix
//!   of the stream, and compared on the wall time spent *inside* the
//!   pricing path (`CampaignOutcome::reprice_secs`) — a warm pricing
//!   path is a small share of the loop, below end-to-end timer noise, so
//!   the end-to-end ratio is also reported but only the isolated ratio
//!   is gated.
//! * **an earlier `pmemflow` binary** (`--baseline-bin PATH`, optional),
//!   timed end-to-end through the CLI on the same trace, best of three.
//!   Without `--self-bin` its best wall is compared with this process's
//!   in-process campaign wall, which leaves out the CLI's oracle build
//!   and JSONL writing, so the ratio flatters this side by those costs.
//!   With `--self-bin` the current binary is timed the same way and the
//!   two JSONL outputs are diffed after projecting away schema fields
//!   added since the baseline was built (see [`project_to_seed_schema`]);
//!   that diff asserts byte identity, so use it only against a binary
//!   whose event arithmetic matches this one. The event-driven core
//!   banks progress in closed form rather than step by step, which moves
//!   results at the rounding level against binaries from before it.
//!
//! The arrival stream is a seeded trace at `overload x` the cluster's
//! ideal core-throughput, so the queue builds a real backlog and then
//! drains — the regime where snapshot rebuilds and re-pricing dominate.
//! Everything is deterministic; the trace is written next to the output
//! so any binary can replay it.
//!
//! Always writes `BENCH_cluster_scale.json` (schema-stable, one object)
//! so successive runs seed a perf trajectory. `--smoke` shrinks the
//! campaign for CI.
//!
//! ```text
//! cluster_scale [--smoke] [--nodes N] [--submissions N] [--overload F]
//!               [--baseline-frac F] [--jobs N] [--out PATH]
//!               [--baseline-bin PATH] [--self-bin PATH]
//! ```

use pmemflow_cluster::{
    run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CampaignOutcome, Fcfs, Oracle,
    TenantKey, TraceRow,
};
use pmemflow_core::ExecutionParams;
use pmemflow_des::rng::SplitMix64;
use pmemflow_workloads::Family;
use std::time::Instant;

/// Families in the stream, with their trace-file keys.
const MIX: [(&str, Family); 2] = [
    ("micro-64mb", Family::Micro64MB),
    ("micro-2kb", Family::Micro2KB),
];
/// The paper's rank levels.
const LEVELS: [usize; 3] = [8, 16, 24];

fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    flag_value(args, key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} expects a number, got {v:?}"))
        })
        .unwrap_or(default)
}

/// Run one campaign over `rows`, returning the outcome and wall seconds.
fn run(
    rows: &[TraceRow],
    nodes: usize,
    exec: &ExecutionParams,
    oracle: &Oracle,
    full_reprice: bool,
) -> (CampaignOutcome, f64) {
    let config = CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::Trace(rows.to_vec()),
        seed: 42,
        exec: exec.clone(),
        full_reprice,
        ..CampaignConfig::default()
    };
    let t0 = Instant::now();
    let outcome = run_campaign_with_oracle(&config, &Fcfs, oracle).expect("campaign runs");
    (outcome, t0.elapsed().as_secs_f64())
}

/// Project away JSONL fields added to the schema after the baseline
/// binary was built (the DAG staging fields), so the byte-diff compares
/// scheduling behavior, not schema vintage. A plain (non-DAG) stream
/// renders all of them with constant values — empty `dag`/`stage`,
/// zero `staging_gib`, all-zero `peak_staging_gib` — so the projection
/// is exact: any surviving difference is a scheduling difference. A
/// *future* schema change will fail the diff again, on purpose, until
/// it is added here.
fn project_to_seed_schema(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let line = line.replace("\"dag\":\"\",\"stage\":\"\",\"staging_gib\":0,", "");
        let line = match (
            line.find(",\"staging_capacity_gib\":"),
            line.find(",\"utilization\":"),
        ) {
            (Some(a), Some(b)) if a < b => {
                let mut s = line.clone();
                s.replace_range(a..b, "");
                s
            }
            _ => line,
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Time `bin cluster` on the same campaign via the CLI; returns wall
/// seconds and the JSONL output path.
fn run_binary(bin: &str, nodes: usize, trace_path: &str, tag: &str) -> (f64, String) {
    let out = std::env::temp_dir().join(format!("cluster_scale_{tag}.jsonl"));
    let out = out.to_string_lossy().into_owned();
    let t0 = Instant::now();
    let status = std::process::Command::new(bin)
        .args([
            "cluster",
            "--nodes",
            &nodes.to_string(),
            "--policy",
            "fcfs",
            "--arrivals",
            &format!("trace:{trace_path}"),
            "--seed",
            "42",
            "--out",
            &out,
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");
    (t0.elapsed().as_secs_f64(), out)
}

/// Best (minimum) and spread (max − min) of repeated wall times.
fn best_and_spread(walls: &[f64]) -> (f64, f64) {
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = walls.iter().copied().fold(0.0, f64::max);
    (best, worst - best)
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (def_nodes, def_subs, def_frac) = if smoke {
        (64usize, 2_000u64, 1.0f64)
    } else {
        (1_024, 100_000, 0.1)
    };
    let nodes = parse_or(&args, "--nodes", def_nodes);
    let submissions = parse_or(&args, "--submissions", def_subs);
    let overload = parse_or(&args, "--overload", 1.3f64);
    let baseline_frac: f64 = parse_or(&args, "--baseline-frac", def_frac);
    let jobs = parse_or(
        &args,
        "--jobs",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_cluster_scale.json".to_string());
    let baseline_bin = flag_value(&args, "--baseline-bin");
    let self_bin = flag_value(&args, "--self-bin");

    let exec = ExecutionParams::default();
    let cores = exec.node.cores_per_socket();

    // Characterize the stream's alphabet once; both paths (and both
    // binaries) share the predictions, so the timing differences below
    // are scheduler-loop differences.
    let alphabet: Vec<(String, usize, pmemflow_workloads::WorkflowSpec)> = MIX
        .iter()
        .flat_map(|&(_, f)| {
            LEVELS
                .iter()
                .map(move |&r| (f.name().to_string(), r, f.build(r)))
        })
        .collect();
    let t0 = Instant::now();
    let oracle = Oracle::build(&alphabet, &exec, jobs).expect("oracle warm-up");
    let oracle_secs = t0.elapsed().as_secs_f64();

    // Offered load: `overload x` the cluster's ideal core-throughput
    // (mean core-seconds per job over the uniform draw), so the backlog
    // grows through the stream and drains after it — the regime where
    // snapshot and re-pricing costs dominate the loop.
    let mean_core_secs: f64 = alphabet
        .iter()
        .map(|(name, ranks, _)| {
            *ranks as f64 * oracle.solo_runtime(name, *ranks, oracle.best_config(name, *ranks))
        })
        .sum::<f64>()
        / alphabet.len() as f64;
    let rate = overload * (nodes * cores) as f64 / mean_core_secs;

    let mut rng = SplitMix64::new(0xC1A5_CA1E);
    let rows: Vec<TraceRow> = (0..submissions)
        .map(|i| TraceRow {
            time: i as f64 / rate,
            family: MIX[rng.range_usize(0, MIX.len())].1,
            ranks: LEVELS[rng.range_usize(0, LEVELS.len())],
        })
        .collect();

    println!(
        "CAMPAIGN SCALE — {nodes} nodes x {cores} cores, {submissions} submissions, \
         fcfs, {overload}x offered load ({rate:.0} jobs/s)\n"
    );
    println!(
        "oracle warm-up: {oracle_secs:.1}s ({} workloads)",
        alphabet.len()
    );

    // Warm-up: pre-simulate every co-residency multiset a node can
    // physically hold (rank sums within one socket), so the timed runs
    // below measure scheduler-loop cost, not first-touch workload
    // simulations — both paths price the identical multisets through
    // the same memo.
    fn warm_sets(
        oracle: &Oracle,
        keys: &[(TenantKey, usize)],
        set: &mut Vec<TenantKey>,
        used: usize,
        start: usize,
        cap: usize,
    ) {
        if set.len() > 1 {
            oracle.corun_slowdowns(set).expect("warm-up co-run");
        }
        for (i, (key, ranks)) in keys.iter().enumerate().skip(start) {
            if used + ranks > cap {
                continue;
            }
            set.push(key.clone());
            warm_sets(oracle, keys, set, used + ranks, i, cap);
            set.pop();
        }
    }
    let keys: Vec<(TenantKey, usize)> = alphabet
        .iter()
        .map(|(n, r, _)| (TenantKey::new(n, *r, oracle.best_config(n, *r)), *r))
        .collect();
    let t0 = Instant::now();
    warm_sets(&oracle, &keys, &mut Vec::new(), 0, 0, cores);
    println!("co-run warm-up: {:.1}s", t0.elapsed().as_secs_f64());

    // The event-driven loop, best of three: each run is deterministic in
    // output, so the only variance is host noise on the clock.
    let trials = 3;
    let mut walls = Vec::with_capacity(trials);
    let mut outcome = None;
    for _ in 0..trials {
        let (o, w) = run(&rows, nodes, &exec, &oracle, false);
        walls.push(w);
        outcome = Some(o);
    }
    let outcome = outcome.expect("at least one trial");
    let (wall, wall_spread) = best_and_spread(&walls);
    let util = outcome.utilization();
    let util_mean = 100.0 * util.iter().sum::<f64>() / util.len().max(1) as f64;
    println!(
        "event core:   {wall:>8.2}s wall best of {trials}, spread {wall_spread:.2}s  \
         ({:>8.0} jobs/s, makespan {:.0}s, util {util_mean:.0}%)",
        submissions as f64 / wall,
        outcome.makespan,
    );

    // In-process pricing-path comparison on a matched prefix: campaign
    // cost is superlinear in stream length (the backlog deepens through
    // the stream), so extrapolating a prefix to the full stream would be
    // meaningless. Running both paths on the same rows isolates exactly
    // one variable — incremental price cache vs full re-pricing — and
    // the campaign reports the wall time spent *inside* that path
    // (`CampaignOutcome::reprice_secs`). Gating on end-to-end wall clock
    // here would be dishonest: a warm pricing path is ~1% of the loop,
    // far below the run-to-run scheduler noise (±10% or more on a busy
    // box), so the old wall-ratio gate was a coin flip that measured the
    // machine, not the code. The isolated ratio is the real signal.
    let base_n = ((submissions as f64 * baseline_frac).round() as usize).max(1);
    // Best-of-N per path: each run is deterministic in output, so the
    // only variance is scheduler noise on the clocks — min is the honest
    // cost of the path.
    let trials = if smoke { 5 } else { 3 };
    let best = |full_reprice: bool| {
        (0..trials)
            .map(|_| {
                let (outcome, wall) = run(&rows[..base_n], nodes, &exec, &oracle, full_reprice);
                (wall, outcome.reprice_secs, outcome.reprice_calls)
            })
            .fold((f64::INFINITY, f64::INFINITY, 0), |best, (w, p, c)| {
                (best.0.min(w), best.1.min(p), c)
            })
    };
    let (base_wall, base_price, reprice_calls) = best(true);
    let (incr_wall, incr_price, _) = best(false);
    let wall_ratio = base_wall / incr_wall;
    let reprice_speedup = base_price / incr_price;
    println!(
        "full-reprice: {base_wall:>8.2}s wall, {:.1}ms pricing vs {incr_wall:.2}s wall, \
         {:.1}ms pricing incremental — {reprice_calls} reprices over the same {base_n} \
         submissions ({reprice_speedup:.1}x pricing-path win, {wall_ratio:.2}x wall)",
        base_price * 1e3,
        incr_price * 1e3,
    );
    // Gate: the incremental price cache must never lose to re-pricing
    // every touched node from scratch — below 1.0 means the cache's own
    // bookkeeping costs more than the work it saves.
    let gate_min = 1.0;
    assert!(
        reprice_speedup >= gate_min,
        "incremental pricing regressed: {reprice_speedup:.2}x vs full re-pricing \
         on the isolated pricing path (gate requires >= {gate_min})"
    );

    // Optional end-to-end binary comparison on the identical trace.
    let mut seed_json = "null".to_string();
    if let Some(bin) = &baseline_bin {
        let trace_path = std::env::temp_dir().join("cluster_scale_trace.txt");
        let trace_path = trace_path.to_string_lossy().into_owned();
        let text: String = rows
            .iter()
            .map(|r| {
                let key = MIX
                    .iter()
                    .find(|&&(_, f)| f == r.family)
                    .expect("mix family")
                    .0;
                format!("{} {} {}\n", r.time, key, r.ranks)
            })
            .collect();
        std::fs::write(&trace_path, text).expect("write trace");
        let mut base_walls = Vec::with_capacity(walls.len());
        let mut base_out = String::new();
        for _ in 0..walls.len() {
            let (secs, out) = run_binary(bin, nodes, &trace_path, "baseline");
            base_walls.push(secs);
            base_out = out;
        }
        let (base_secs, base_spread) = best_and_spread(&base_walls);
        println!(
            "baseline-bin: {base_secs:>8.2}s wall end-to-end best of {}, \
             spread {base_spread:.2}s ({bin})",
            base_walls.len()
        );
        let (self_secs, identical) = match &self_bin {
            Some(me) => {
                let (self_secs, self_out) = run_binary(me, nodes, &trace_path, "self");
                let canon = |path: &str| {
                    std::fs::read_to_string(path)
                        .ok()
                        .map(|t| project_to_seed_schema(&t))
                };
                let identical = canon(&self_out).is_some() && canon(&self_out) == canon(&base_out);
                println!(
                    "self-bin:     {self_secs:>8.2}s wall end-to-end ({me}) — \
                     {:.1}x, outputs {}",
                    base_secs / self_secs,
                    if identical {
                        "identical (modulo seed-schema projection)"
                    } else {
                        "DIFFER"
                    }
                );
                assert!(
                    identical,
                    "tuned scheduler must reproduce the baseline JSONL"
                );
                (self_secs, identical)
            }
            None => (wall, false),
        };
        seed_json = format!(
            "{{\"bin\":\"{bin}\",\"wall_secs\":{base_secs:.3},\
             \"wall_runs_secs\":{},\"self_wall_secs\":{self_secs:.3},\"speedup\":{:.2},\
             \"jsonl_identical\":{identical}}}",
            json_list(&base_walls),
            base_secs / self_secs
        );
    }

    let json = format!(
        "{{\"bench\":\"cluster_scale\",\"smoke\":{smoke},\"nodes\":{nodes},\
         \"cores_per_socket\":{cores},\"submissions\":{submissions},\
         \"overload\":{overload},\"rate_jobs_per_sec\":{rate:.2},\
         \"oracle_warmup_secs\":{oracle_secs:.3},\"wall_secs\":{wall:.3},\
         \"wall_runs_secs\":{},\
         \"jobs_per_sec\":{:.1},\"makespan_s\":{:.1},\"mean_wait_s\":{:.1},\
         \"util_mean_pct\":{util_mean:.1},\
         \"full_reprice\":{{\"fraction\":{baseline_frac},\"submissions\":{base_n},\
         \"calls\":{reprice_calls},\
         \"wall_secs\":{base_wall:.3},\"incremental_wall_secs\":{incr_wall:.3},\
         \"wall_ratio\":{wall_ratio:.2},\
         \"price_secs\":{base_price:.6},\"incremental_price_secs\":{incr_price:.6},\
         \"speedup\":{reprice_speedup:.2},\"gate_min_speedup\":{gate_min}}},\
         \"baseline_binary\":{seed_json}}}\n",
        json_list(&walls),
        submissions as f64 / wall,
        outcome.makespan,
        outcome.mean_wait(),
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    println!("\nwrote {out}");
}
