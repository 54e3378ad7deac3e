//! What one run prints: human-readable lines as it goes, then one JSON
//! object as the last line of standard output.

use crate::spans::LayerTable;
use crate::stats;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unit {
    S,
    Ms,
    Us,
    PerS,
    Count,
    Ratio,
    Pct,
    Mb,
}

impl Unit {
    pub fn label(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::PerS => "1/s",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
            Unit::Pct => "%",
            Unit::Mb => "MB",
        }
    }
}

pub struct Report {
    workload: String,
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
    correct: bool,
    metrics: Vec<(&'static str, f64, Unit)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
        }
    }

    /// A progress or diagnostic line (never the last line of output).
    pub fn line(&self, text: String) {
        println!("[{}] {text}", self.workload);
    }

    /// A correctness check failed.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.line(format!("CHECK FAILED: {why}"));
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: Unit) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// `latency_p50_ms` and `latency_p99_ms` from samples in seconds, with
    /// the sample count and the percentile the tail actually is. With ten
    /// samples or fewer no percentile has ten beyond it, and the tail is
    /// the slowest sample, said as such.
    pub fn latency(&mut self, samples_s: &[f64]) {
        self.metric("latency_p50_ms", stats::median(samples_s) * 1e3, Unit::Ms);
        let tail = match stats::tail(samples_s, 99.0) {
            Some(t) => {
                self.line(format!(
                    "latency: {} samples; latency_p99_ms is p{:.2}, {} samples beyond it",
                    t.samples,
                    t.percentile,
                    samples_s.iter().filter(|&&x| x > t.value).count()
                ));
                t.value
            }
            None => {
                self.line(format!(
                    "latency: {} samples, too few for a tail; latency_p99_ms is the maximum",
                    samples_s.len()
                ));
                samples_s.iter().copied().fold(f64::MIN, f64::max)
            }
        };
        self.metric("latency_p99_ms", tail * 1e3, Unit::Ms);
    }

    /// Peak resident memory of this process.
    pub fn peak_rss(&mut self) {
        let mb = self.peak_rss_mb();
        self.metric("peak_rss_mb", mb, Unit::Mb);
    }

    /// Peak resident memory of this process in MB, since it started or
    /// since the last [`Report::restart_peak_rss`].
    pub fn peak_rss_mb(&mut self) -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
        kb.map_or_else(
            || {
                self.fail("no VmHWM in /proc/self/status".to_string());
                0.0
            },
            |kb| kb / 1024.0,
        )
    }

    /// Restart the peak-memory count from the current resident size.
    pub fn restart_peak_rss(&mut self) {
        // Writing 5 to `clear_refs` resets VmHWM to the current RSS.
        if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
            self.line(format!("peak memory not restarted: {e}"));
        }
    }

    pub fn table(&self, table: &LayerTable) {
        for row in table.render().lines() {
            self.line(row.to_string());
        }
    }

    /// Tracing overhead on one end-to-end figure, traced against
    /// untraced, as a percentage (positive: tracing made it worse).
    pub fn overhead(&self, what: &str, untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
        let pct = if higher_is_better {
            100.0 * (untraced / traced - 1.0)
        } else {
            100.0 * (traced / untraced - 1.0)
        };
        self.line(format!(
            "tracing overhead on {what}: {untraced:.6} untraced, {traced:.6} traced ({pct:+.2}%)"
        ));
        pct
    }

    /// Report 0 for every listed metric this workload did not measure:
    /// the layers it bypasses.
    pub fn fill_missing(&mut self, all: &[(&'static str, Unit)]) {
        for &(name, unit) in all {
            if !self.metrics.iter().any(|m| m.0 == name) {
                self.metrics.push((name, 0.0, unit));
            }
        }
    }

    /// The run must print exactly `names`, each once.
    pub fn check_names(&mut self, names: Vec<&'static str>) {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        got.sort_unstable();
        let mut want = names;
        want.sort_unstable();
        if got != want {
            self.fail(format!("metrics {got:?} are not the set {want:?}"));
        }
    }

    /// Write the Chrome trace of this run; returns the path.
    pub fn write_trace(&self, json: &str) -> std::io::Result<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{}-seed{}.trace.json", self.workload, self.seed);
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// The result object: the last line the benchmark prints.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit.label()
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_every_metric() {
        let mut r = Report::new("w", 1);
        r.attempted = 3;
        r.metric("a_s", 0.5, Unit::S);
        r.metric("b", 2.0, Unit::Count);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new("w", 1);
        r.attempted = 3;
        r.failed = 1;
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
