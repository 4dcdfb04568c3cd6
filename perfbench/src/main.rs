//! perfbench — one benchmark for the MAJC-5200 simulator stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dsp-cycle --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (`dsp-cycle`, `corpus-3way`, `serve-closed`), each
//! doing most of its work in some layers and little in others. With
//! `--trace 0` the last line of standard output is the end-to-end result;
//! with `--trace 1` every call into a layer is timed as a span, the spans
//! are written to `perfbench/out/`, and the last line carries the
//! per-layer metrics. See README.md.

mod checks;
mod corpus;
mod dsp;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use majc_core::CycleStats;

use report::{median, Figures, Tally, END_TO_END, PER_LAYER};
use trace::Tracer;

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPEATS: u64 = 5;

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Simulated statistics of one round, summed over every cycle-model run
/// in it. A change meant only to speed up the simulator leaves them
/// identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTotals {
    pub cycles: u64,
    pub packets: u64,
    pub mispredicts: u64,
    pub data_stall_cycles: u64,
    pub mem_stall_cycles: u64,
    pub front_stall_cycles: u64,
    pub icache_misses: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub dram_busy_cycles: u64,
    pub dport_conflicts: u64,
    pub xbar_retries: u64,
}

impl SimTotals {
    pub fn add(&mut self, s: &CycleStats) {
        self.cycles += s.cycles;
        self.packets += s.packets;
        self.mispredicts += s.mispredicts;
        self.data_stall_cycles += s.data_stall_cycles;
        self.mem_stall_cycles += s.mem_stall_cycles;
        self.front_stall_cycles += s.front_stall_cycles;
        self.icache_misses += s.mem.icache_misses;
        self.dcache_hits += s.mem.dcache_hits;
        self.dcache_misses += s.mem.dcache_misses;
        self.dram_busy_cycles += s.mem.dram_busy_cycles;
        self.xbar_retries += s.mem.xbar_retries;
    }

    pub fn figures(&self, figs: &mut Figures) {
        let values = [
            self.cycles,
            self.packets,
            self.mispredicts,
            self.data_stall_cycles,
            self.mem_stall_cycles,
            self.front_stall_cycles,
            self.icache_misses,
            self.dcache_hits,
            self.dcache_misses,
            self.dram_busy_cycles,
            self.dport_conflicts,
            self.xbar_retries,
        ];
        for (name, v) in SIM_STATS.into_iter().zip(values) {
            figs.set(name, v as f64);
        }
    }
}

/// The per-layer names of [`SimTotals`], in field order.
const SIM_STATS: [&str; 12] = [
    "sim.cycles",
    "sim.packets",
    "sim.mispredicts",
    "sim.data_stall_cycles",
    "sim.mem_stall_cycles",
    "sim.front_stall_cycles",
    "mem.icache_misses",
    "mem.dcache_hits",
    "mem.dcache_misses",
    "mem.dram_busy_cycles",
    "soc.dport_conflicts",
    "soc.xbar_retries",
];

fn parse_args() -> Result<Run, String> {
    let mut run = Run { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(run)
}

/// Set up `SETUP_REPEATS` times, tearing each earlier set-up down first;
/// keep the last and return the median set-up time in seconds.
fn repeat_setup<T>(mut make: impl FnMut(u64) -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(make(i));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

fn run_workload(run: &Run, tr: &mut Tracer) -> Result<(Tally, Figures, f64), String> {
    let seed = run.seed;
    Ok(match run.workload.as_str() {
        "dsp-cycle" => {
            let (suite, setup_s) = repeat_setup(|i| dsp::setup(seed, tr, i), drop);
            let (t, f) = dsp::measure(&suite, run, tr);
            (t, f, setup_s)
        }
        "corpus-3way" => {
            let (corpus, setup_s) = repeat_setup(|i| corpus::setup(seed, tr, i), drop);
            let (t, f) = corpus::measure(&corpus, run, tr);
            (t, f, setup_s)
        }
        "serve-closed" => {
            let (bench, setup_s) = repeat_setup(
                |i| serve::setup(seed, tr, i),
                |b| {
                    if let Ok(b) = b {
                        b.shutdown();
                    }
                },
            );
            let mut bench = bench.map_err(|e| format!("serve set-up failed: {e}"))?;
            let (t, f) = serve::measure(&mut bench, run, tr);
            bench.shutdown();
            (t, f, setup_s)
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of dsp-cycle, corpus-3way, serve-closed"
            ))
        }
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) if !r.workload.is_empty() => r,
        Ok(_) => {
            eprintln!("perfbench: --workload is required");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(run.trace, Instant::now());
    let (tally, mut figs, setup_s) = match run_workload(&run, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    figs.set("setup_s", setup_s);
    figs.set("peak_rss_mb", report::peak_rss_mb());
    eprintln!(
        "perfbench: {} seed {}: {} operations attempted, {} failed",
        run.workload, run.seed, tally.attempted, tally.failed
    );
    // The simulated statistics of one round, in every run: a change meant
    // only to speed up the simulator must leave this line identical.
    let sim: Vec<String> =
        SIM_STATS.iter().map(|n| format!("{n}={}", figs.0.get(n).unwrap_or(&0.0))).collect();
    println!("simulated per round: {}", sim.join(" "));

    let line = if run.trace {
        layer_figures(&tr, &mut figs);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            run.workload, run.seed
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: wrote {} spans to {}", tr.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        // The traced run's own end-to-end figures, for the overhead.
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| format!("{n}={}", figs.0.get(n).unwrap_or(&0.0)))
            .collect();
        println!("traced end-to-end: {}", e2e.join(" "));
        report::result_line(tally, &figs, &PER_LAYER)
    } else {
        report::result_line(tally, &figs, &END_TO_END)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Per-layer figures from the spans.
fn layer_figures(tr: &Tracer, figs: &mut Figures) {
    let ms = |l| tr.layer(l).ms_per_call();
    let rate = |l| tr.layer(l).mwork_per_s();
    for (name, v) in [
        ("asm.assemble_ms", ms("asm.assemble")),
        ("lint.analyze_ms", ms("lint.analyze")),
        ("xlate.translate_ms", ms("xlate.translate")),
        ("interp.run_mpkt_s", rate("interp.run")),
        ("xlate.run_mpkt_s", rate("xlate.run")),
        ("cycle.cache_resident_mpkt_s", rate("cycle.cache_resident")),
        ("cycle.dram_bound_mpkt_s", rate("cycle.dram_bound")),
        ("cycle.irregular_mpkt_s", rate("cycle.irregular")),
        ("soc.run_mpkt_s", rate("soc.run")),
        ("kernels.build_ms", ms("kernels.build")),
        ("gen.generate_ms", ms("gen.generate")),
        ("serve.start_ms", ms("serve.start")),
        ("trace.spans", tr.len() as f64),
    ] {
        figs.set(name, v);
    }
    let sim = figs.0.get("sim_mpkt_s").copied().unwrap_or(0.0);
    let jobs = figs.0.get("jobs_s").copied().unwrap_or(0.0);
    figs.set("trace.sim_mpkt_s", sim);
    figs.set("trace.jobs_s", jobs);
}
