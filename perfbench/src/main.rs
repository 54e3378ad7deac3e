//! pmemflow end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_scale|campaign_mix|serve --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Runs one seeded workload through the public APIs of `pmemflow-cluster`
//! and `pmemflow-serve` for `--seconds`, checks every output, and prints
//! one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from spans recorded around each
//! layer call) with `--trace 1`. A workload reports 0 for the layers it
//! bypasses. `--smoke` runs every workload at a reduced size.
//! See `perfbench/README.md` for the workloads and the layer they load.

mod campaign;
mod report;
mod serve;
mod spans;
mod stats;

use report::{Report, Unit};

/// Every end-to-end metric, printed by every untraced run.
const END_TO_END: [&str; 6] = [
    "jobs_per_s",
    "req_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Every per-layer metric, printed by every traced run.
const PER_LAYER: [(&str, Unit); 26] = [
    ("oracle.build_s", Unit::S),
    ("oracle.entries", Unit::Count),
    ("des.events", Unit::Count),
    ("des.events_per_s", Unit::PerS),
    ("pricing.reprice_s", Unit::S),
    ("pricing.reprice_calls", Unit::Count),
    ("pricing.corun_sets", Unit::Count),
    ("pricing.cold_s", Unit::S),
    ("policy.schedule_s", Unit::S),
    ("policy.self_s", Unit::S),
    ("policy.calls", Unit::Count),
    ("policy.placed", Unit::Count),
    ("policy.useful_ratio", Unit::Ratio),
    ("campaign.loop_s", Unit::S),
    ("campaign.loop_us_per_submission", Unit::Us),
    ("sim.makespan_s", Unit::S),
    ("sim.mean_bsld", Unit::Ratio),
    ("sim.restarts", Unit::Count),
    ("serve.backend_s", Unit::S),
    ("serve.backend_calls", Unit::Count),
    ("serve.cache_hit_ratio", Unit::Ratio),
    ("serve.coalesced", Unit::Count),
    ("serve.shed", Unit::Count),
    ("serve.epoll_wakeups_per_req", Unit::Ratio),
    ("serve.requests", Unit::Count),
    ("trace.overhead_pct", Unit::Pct),
];

const WORKLOADS: &str = "campaign_scale, campaign_mix, serve";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("{key} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in [1, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// Fix glibc's mmap threshold at 32 MiB, the ceiling its dynamic
/// threshold climbs toward. Left dynamic, glibc raises it whenever a
/// large mapped block is freed, so whether a later large block is mapped
/// or carved from the heap depends on what was freed before; with the
/// same inputs, `campaign_scale`'s peak memory came out at 30 MB in some
/// runs and 38 MB in others. Fixed at 128 KiB instead, large blocks are
/// mapped afresh every time and campaigns ran about 5% slower.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: glibc's `mallopt` only changes allocator tuning; it is
    // called before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() {
    fix_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nworkloads: {WORKLOADS}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(&args.workload, args.seed);
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        name @ ("campaign_scale" | "campaign_mix") => {
            let shape = if name == "campaign_scale" {
                campaign::SCALE
            } else {
                campaign::MIX
            };
            let shape = if args.smoke {
                campaign::smoke(&shape)
            } else {
                shape
            };
            campaign::run(&shape, seed, secs, trace, &mut report);
        }
        "serve" => {
            let shape = if args.smoke {
                &serve::SMOKE
            } else {
                &serve::FULL
            };
            serve::run(shape, seed, secs, trace, &mut report);
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}; workloads: {WORKLOADS}");
            std::process::exit(2);
        }
    }
    if trace {
        report.fill_missing(&PER_LAYER);
    }
    report.check_names(if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    });
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject_bad_values() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 2 --trace 1"))
            .expect("valid args");
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("serve", 7, true));
        assert!(parse_args(&argv("--workload serve --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 2")).is_err());
    }
}
