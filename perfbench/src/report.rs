//! Operation accounting, the metric catalogue, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::thread_cpu_ns;

/// End-to-end metrics, as listed in `BENCHMARK.json`. The result line of
/// every workload carries every one; a metric that does not apply to a
/// workload is derived from that workload's own rate, so it moves with it
/// and gates nothing new (README.md, "End-to-end metrics").
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mpkt_s", "Mpkt/s"),
    ("programs_s", "1/s"),
    ("jobs_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// call reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("asm.assemble_ms", "ms"),
    ("lint.analyze_ms", "ms"),
    ("xlate.translate_ms", "ms"),
    ("interp.run_mpkt_s", "Mpkt/s"),
    ("xlate.run_mpkt_s", "Mpkt/s"),
    ("cycle.cache_resident_mpkt_s", "Mpkt/s"),
    ("cycle.dram_bound_mpkt_s", "Mpkt/s"),
    ("cycle.irregular_mpkt_s", "Mpkt/s"),
    ("soc.run_mpkt_s", "Mpkt/s"),
    ("kernels.build_ms", "ms"),
    ("gen.generate_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.wire_ms.p50", "ms"),
    ("xlate.cache_hits", "count"),
    ("xlate.cache_misses", "count"),
    ("sim.cycles", "count"),
    ("sim.packets", "count"),
    ("sim.mispredicts", "count"),
    ("sim.data_stall_cycles", "count"),
    ("sim.mem_stall_cycles", "count"),
    ("sim.front_stall_cycles", "count"),
    ("mem.icache_misses", "count"),
    ("mem.dcache_hits", "count"),
    ("mem.dcache_misses", "count"),
    ("mem.dram_busy_cycles", "count"),
    ("soc.dport_conflicts", "count"),
    ("soc.xbar_retries", "count"),
    ("trace.spans", "count"),
    ("trace.sim_mpkt_s", "Mpkt/s"),
    ("trace.jobs_s", "1/s"),
];

/// How one operation went wrong.
#[derive(Debug)]
pub enum Fail {
    /// The operation did not complete: a trap, a hang, an I/O error, a
    /// serve reply other than `ok`.
    Error(String),
    /// It completed, but a check rejected its output.
    Wrong(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Error(m) => write!(f, "error: {m}"),
            Fail::Wrong(m) => write!(f, "wrong output: {m}"),
        }
    }
}

/// Attempted/failed counts for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, res: Result<(), Fail>) {
        self.attempted += 1;
        if let Err(f) = res {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: {what} failed: {f}");
            }
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Whole rounds of operations on one thread, timed on that thread's CPU
/// clock, until a wall-clock duration has passed — the shape of the
/// single-threaded workloads.
pub struct Meter {
    start: Instant,
    cpu_start: u64,
    pub tally: Tally,
    packets: u64,
}

impl Meter {
    pub fn new() -> Meter {
        let start = Instant::now();
        Meter { start, cpu_start: thread_cpu_ns(start), tally: Tally::default(), packets: 0 }
    }

    /// True until `seconds` of wall time have passed since the first round
    /// began; always true before the first round.
    pub fn another_round(&self, rounds: u64, seconds: f64) -> bool {
        rounds == 0 || self.start.elapsed().as_secs_f64() < seconds
    }

    /// Run one operation; `f` gets the operation's id and returns the
    /// packets it simulated.
    pub fn op(&mut self, what: &str, f: impl FnOnce(u64) -> Result<u64, Fail>) {
        let res = f(self.tally.attempted);
        self.tally.record(what, res.map(|packets| self.packets += packets));
    }

    /// Rates per CPU second. A round's work is fixed, so these move
    /// together; `job_p50_ms` and `job_p99_ms`, which measure the daemon's
    /// clients, are here the mean CPU time of one operation, the same
    /// figure again.
    pub fn figures(self) -> (Tally, Figures) {
        let secs = (thread_cpu_ns(self.start) - self.cpu_start) as f64 / 1e9;
        let mut figs = Figures::default();
        figs.set("sim_mpkt_s", self.packets as f64 / secs / 1e6);
        figs.set("programs_s", (self.tally.attempted - self.tally.failed) as f64 / secs);
        figs.set("jobs_s", self.tally.attempted as f64 / secs);
        let mean_ms = secs * 1e3 / self.tally.attempted as f64;
        figs.set("job_p50_ms", mean_ms);
        figs.set("job_p99_ms", mean_ms);
        (self.tally, figs)
    }
}

/// Median and 99th percentile of per-operation times.
pub fn latency_figures(figs: &mut Figures, lat_ms: &mut [f64]) {
    lat_ms.sort_by(f64::total_cmp);
    figs.set("job_p50_ms", quantile(lat_ms, 0.5));
    figs.set("job_p99_ms", quantile(lat_ms, 0.99));
}

/// A workload's figures, keyed by metric name.
#[derive(Default)]
pub struct Figures(pub BTreeMap<&'static str, f64>);

impl Figures {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }
}

/// Linear-interpolated quantile (the same rule as Python's
/// `statistics.quantiles(..., method="inclusive")`), `q` in 0..=1.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The process's peak resident set, in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct` (no operation failed), `attempted`,
/// `failed`, and the metrics of `catalogue`, each taken from `figs` (0
/// where absent).
pub fn result_line(tally: Tally, figs: &Figures, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = figs.0.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(v))
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(",")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
