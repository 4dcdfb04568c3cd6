//! `serve-closed`: `majc-serve` in-process over loopback, 2 workers, a
//! queue well above the client count, and 2 closed-loop clients, each of
//! which sends its next request only when the reply to the last one has
//! arrived, as the daemon's load driver (`majc-serve load`) does.
//!
//! Jobs are short, so admission, the queue, the line protocol and the
//! reply path matter. The translation cache is hot after the first round,
//! and the checkpoint store is written beside the read-only simulate
//! path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use majc_core::{global_xlate_cache, FuncSim};
use majc_gen::Family;
use majc_kernels::harness::XorShift;
use majc_kernels::suite::{self, SuiteCase};
use majc_serve::{
    arch_digest, Client, Engine, JobSpec, Request, ServeConfig, ServerHandle, SimSpec,
};

use crate::checks;
use crate::report::{self, quantile, Fail, Figures, Tally};
use crate::trace::{Span, Tracer};
use crate::{Run, SimTotals};

pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Admission queue depth, well above the client count: a closed loop of
/// two clients never meets backpressure.
pub const QUEUE_DEPTH: usize = 64;
// The round's mix of request kinds is the nearest whole-repeat mix to
// 50/20/20/10 func/cycle/assemble/lint, the mix the daemon was sized
// with, plus a few checkpoint-then-resume pairs: 69 func, 32 cycle, 28
// assemble and 14 lint requests and 2 pairs, 147 in all (README.md,
// "Job mix").
/// Every named program is simulated this many times per round on the
/// translated (func) engine.
const FUNC_EACH: usize = 3;
/// Every suite kernel of at most `CYCLE_MAX_PACKETS` is simulated this
/// many times per round on the cycle engine. The longest of them, the
/// radix-2 FFT, is then about 1.4% of a round's requests, so the p99 of
/// job latency falls inside its cluster rather than on the edge between
/// two kinds of job.
const CYCLE_EACH: usize = 2;
const CYCLE_MAX_PACKETS: u64 = 60_000;
/// Corpus sources drawn from the seed, per family; each is assembled
/// twice and linted once per round.
const SOURCES_PER_FAMILY: usize = 2;
const ASSEMBLE_EACH: usize = 2;
/// Checkpoint-then-resume pairs per round.
const PAIRS: usize = 2;
const BUDGET: u64 = 100_000_000;

/// A named program with its reference run, made in-process at set-up.
struct Named {
    name: String,
    packets: u64,
    digest: String,
}

/// A corpus source with its in-process assemble and lint results.
struct Source {
    text: String,
    packets: u64,
    digest: String,
    lint: [u64; 3],
}

/// One round item; a pair is two requests on one connection.
#[derive(Clone, Copy)]
enum Item {
    Func(usize),
    Cycle(usize),
    Assemble(usize),
    Lint(usize),
    Pair(usize),
}

pub struct Bench {
    server: ServerHandle,
    clients: Vec<Client>,
    named: Vec<Named>,
    sources: Vec<Source>,
    /// Per client, one whole round in its own seed-drawn order.
    items: Vec<Vec<Item>>,
}

fn reference(case: &SuiteCase, tr: &mut Tracer, setup: u64) -> Named {
    let mut sim = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
    let res =
        tr.span("interp.run", setup, || sim.run_to_halt(BUDGET), |r| *r.as_ref().unwrap_or(&0));
    let packets = res.unwrap_or_else(|e| panic!("{}: reference run failed: {e}", case.name));
    Named { name: case.name.clone(), packets, digest: arch_digest(&sim.capture(), &sim.mem) }
}

/// Start the daemon, connect the clients, make every reference result in
/// process, and draw the round's job mix from `seed`.
pub fn setup(seed: u64, tr: &mut Tracer, setup: u64) -> std::io::Result<Bench> {
    let cfg = ServeConfig { workers: WORKERS, queue_depth: QUEUE_DEPTH, chaos: None };
    let server = tr.span("serve.start", setup, || majc_serve::start(0, cfg), |_| 1)?;
    let clients = (0..CLIENTS)
        .map(|_| {
            let c = Client::connect(server.addr())?;
            c.set_read_timeout(Some(Duration::from_secs(60)))?;
            Ok(c)
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    // The daemon's table: the canonical suite plus one corpus program per
    // family. The image kernels are left out; they would turn every
    // func job they land on into a tail outlier.
    let cases = tr.span(
        "kernels.build",
        setup,
        || {
            let mut v = suite::fast_cases();
            v.extend(suite::corpus_cases(1));
            v
        },
        |_| 1,
    );
    let named: Vec<Named> = cases.iter().map(|c| reference(c, tr, setup)).collect();

    let gen = tr.span(
        "gen.generate",
        setup,
        || {
            let mut v = Vec::new();
            for index in 0..SOURCES_PER_FAMILY {
                for family in Family::ALL {
                    v.push(majc_gen::generate(family, majc_gen::corpus_seed(seed, family, index)));
                }
            }
            v
        },
        |_| 1,
    );
    let mut sources = Vec::new();
    for p in gen {
        let prog = tr.span("asm.assemble", setup, || majc_asm::assemble(&p.asm), |_| 1);
        let prog =
            prog.unwrap_or_else(|e| panic!("{}: generated source must assemble: {e}", p.name));
        let a = tr.span(
            "lint.analyze",
            setup,
            || majc_lint::analyze(&prog, &majc_lint::LintOptions::default()),
            |_| 1,
        );
        let count = |s| a.report.count(s) as u64;
        sources.push(Source {
            packets: prog.len() as u64,
            digest: format!("{:016x}", majc_gen::fnv1a(p.asm.as_bytes())),
            lint: [
                count(majc_lint::Severity::Error),
                count(majc_lint::Severity::Warning),
                count(majc_lint::Severity::Info),
            ],
            text: p.asm,
        });
    }

    // The round: fixed counts of each kind, so every seed does the same
    // amount of each; the seed picks the sources and the orders. Each
    // client runs the whole round, so the two carry the same work.
    let mut round = Vec::new();
    for _ in 0..FUNC_EACH {
        round.extend((0..named.len()).map(Item::Func));
    }
    let small: Vec<usize> = (0..named.len())
        .filter(|&i| cases[i].check.is_none() && named[i].packets <= CYCLE_MAX_PACKETS)
        .collect();
    for _ in 0..CYCLE_EACH {
        round.extend(small.iter().map(|&i| Item::Cycle(i)));
    }
    for _ in 0..ASSEMBLE_EACH {
        round.extend((0..sources.len()).map(Item::Assemble));
    }
    round.extend((0..sources.len()).map(Item::Lint));
    let mut rng = XorShift::new(seed ^ 0x5E7E_C105_ED00_0001);
    for _ in 0..PAIRS {
        round.push(Item::Pair(small[rng.next_range(small.len())]));
    }
    let items = (0..CLIENTS)
        .map(|_| {
            for i in (1..round.len()).rev() {
                round.swap(i, rng.next_range(i + 1));
            }
            round.clone()
        })
        .collect();
    Ok(Bench { server, clients, named, sources, items })
}

impl Bench {
    /// Close the connections and drain the daemon.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    lat_ms: Vec<f64>,
    /// Traced runs: (job id, client-side latency in µs).
    wire: Vec<(String, u64)>,
    packets: u64,
    programs: u64,
    round_sim: SimTotals,
}

fn sim_req(id: String, kernel: &str, engine: Engine) -> Request {
    Request::Job {
        id,
        spec: JobSpec::Simulate(SimSpec {
            kernel: Some(kernel.to_string()),
            source: None,
            engine,
            budget: BUDGET,
            checkpoint: false,
            resume: None,
        }),
    }
}

struct Ctx<'a> {
    named: &'a [Named],
    sources: &'a [Source],
    traced: bool,
}

/// How one request ended.
enum Reply {
    /// Answered and the answer passed its check.
    Passed(majc_serve::Response),
    /// Answered, but not `ok` or not right; counted as failed.
    Failed,
    /// The connection broke; the client stops.
    Broken,
}

impl ClientLog {
    /// One request, timed from send to reply, then checked by `check`.
    fn call(
        &mut self,
        client: &mut Client,
        ctx: &Ctx<'_>,
        what: &str,
        req: Request,
        check: impl FnOnce(&majc_serve::Response) -> Result<(), Fail>,
    ) -> Reply {
        let id = req.id().to_string();
        let t = Instant::now();
        let resp = client.request(&req);
        let dt = t.elapsed();
        self.lat_ms.push(dt.as_secs_f64() * 1e3);
        if ctx.traced {
            self.wire.push((id, dt.as_micros() as u64));
        }
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) => {
                self.tally.record(what, Err(Fail::Error(format!("{what}: {e}"))));
                return Reply::Broken;
            }
        };
        match check(&resp) {
            Ok(()) => {
                self.tally.record(what, Ok(()));
                Reply::Passed(resp)
            }
            Err(f) => {
                self.tally.record(what, Err(f));
                Reply::Failed
            }
        }
    }

    /// A verified simulate reply: count its packets, and its simulated
    /// cycles and packets in the first round.
    fn count_sim(&mut self, reply: Reply, first_round: bool) -> bool {
        match reply {
            Reply::Passed(resp) => {
                let get = |f| resp.field(f).and_then(|v| v.as_u64()).unwrap_or(0);
                self.packets += get("packets");
                self.programs += 1;
                if first_round {
                    self.round_sim.packets += get("packets");
                    self.round_sim.cycles += get("cycles");
                }
                true
            }
            Reply::Failed => true,
            Reply::Broken => false,
        }
    }

    /// Every item of one round; false if the connection broke.
    fn round(
        &mut self,
        client: &mut Client,
        ctx: &Ctx<'_>,
        items: &[Item],
        tag: &str,
        first: bool,
    ) -> bool {
        for (i, item) in items.iter().enumerate() {
            let id = format!("{tag}-{i}");
            let alive = match *item {
                Item::Func(k) | Item::Cycle(k) => {
                    let n = &ctx.named[k];
                    let engine =
                        if matches!(item, Item::Func(_)) { Engine::Func } else { Engine::Cycle };
                    let r = self.call(client, ctx, &n.name, sim_req(id, &n.name, engine), |r| {
                        checks::reply_str(&n.name, r, "digest", &n.digest)
                    });
                    self.count_sim(r, first)
                }
                Item::Assemble(s) => {
                    let src = &ctx.sources[s];
                    let req =
                        Request::Job { id, spec: JobSpec::Assemble { source: src.text.clone() } };
                    let r = self.call(client, ctx, "assemble", req, |r| {
                        checks::reply_u64("assemble", r, "packets", src.packets)?;
                        checks::reply_str("assemble", r, "digest", &src.digest)
                    });
                    !matches!(r, Reply::Broken)
                }
                Item::Lint(s) => {
                    let src = &ctx.sources[s];
                    let req = Request::Job {
                        id,
                        spec: JobSpec::Lint { source: src.text.clone(), strict: false },
                    };
                    let r = self.call(client, ctx, "lint", req, |r| {
                        checks::reply_u64("lint", r, "errors", src.lint[0])?;
                        checks::reply_u64("lint", r, "warnings", src.lint[1])?;
                        checks::reply_u64("lint", r, "notes", src.lint[2])
                    });
                    !matches!(r, Reply::Broken)
                }
                Item::Pair(k) => self.pair(client, ctx, k, &id, first),
            };
            if !alive {
                return false;
            }
        }
        true
    }

    /// Checkpoint a kernel halfway on the func engine, then resume it to
    /// the end; the resume must reach the uninterrupted run's digest.
    fn pair(
        &mut self,
        client: &mut Client,
        ctx: &Ctx<'_>,
        k: usize,
        id: &str,
        first: bool,
    ) -> bool {
        let n = &ctx.named[k];
        let half = (n.packets / 2).max(1);
        let mut req = sim_req(format!("{id}c"), &n.name, Engine::Func);
        if let Request::Job { spec: JobSpec::Simulate(s), .. } = &mut req {
            s.budget = half;
            s.checkpoint = true;
        }
        let r = self.call(client, ctx, "checkpoint", req, |r| {
            checks::reply_u64("checkpoint", r, "packets", half)?;
            match r.field("checkpoint").and_then(|v| v.as_str()) {
                Some(_) => Ok(()),
                None => Err(Fail::Wrong("checkpoint reply without a checkpoint id".into())),
            }
        });
        let ckpt = match &r {
            Reply::Passed(resp) => {
                resp.field("checkpoint").and_then(|v| v.as_str()).map(String::from)
            }
            Reply::Failed => None,
            Reply::Broken => return false,
        };
        self.count_sim(r, first);
        // Without a checkpoint there is nothing to resume; the failure is
        // counted already.
        let Some(ckpt) = ckpt else { return true };
        let mut req = sim_req(format!("{id}r"), &n.name, Engine::Func);
        if let Request::Job { spec: JobSpec::Simulate(s), .. } = &mut req {
            s.resume = Some(ckpt);
        }
        let r = self.call(client, ctx, "resume", req, |r| {
            checks::reply_str("resume", r, "digest", &n.digest)
        });
        self.count_sim(r, first)
    }
}

/// Each client runs whole rounds until `run.seconds` have passed; a
/// broken connection stops both after their current round.
pub fn measure(bench: &mut Bench, run: &Run, tr: &mut Tracer) -> (Tally, Figures) {
    let before = global_xlate_cache().stats();
    let ctx = Ctx { named: &bench.named, sources: &bench.sources, traced: tr.on() };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = bench
            .clients
            .iter_mut()
            .zip(&bench.items)
            .enumerate()
            .map(|(c, (client, items))| {
                let (ctx, stop) = (&ctx, &stop);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut round = 0u64;
                    loop {
                        // The simulated statistics of one round: client
                        // 0's first.
                        let first = c == 0 && round == 0;
                        if !log.round(client, ctx, items, &format!("c{c}r{round}"), first) {
                            stop.store(true, Ordering::SeqCst);
                        }
                        round += 1;
                        if stop.load(Ordering::SeqCst)
                            || start.elapsed().as_secs_f64() >= run.seconds
                        {
                            return log;
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    // Rates are per wall-clock second, as the clients see them: a change
    // that makes workers or clients wait shows here even when it saves CPU.
    let secs = start.elapsed().as_secs_f64();
    let after = global_xlate_cache().stats();

    let mut tally = Tally::default();
    let mut lat_ms = Vec::new();
    let (mut packets, mut programs) = (0u64, 0u64);
    let mut round_sim = SimTotals::default();
    let mut wire: HashMap<String, u64> = HashMap::new();
    for log in logs {
        tally.merge(log.tally);
        lat_ms.extend(log.lat_ms);
        packets += log.packets;
        programs += log.programs;
        round_sim.packets += log.round_sim.packets;
        round_sim.cycles += log.round_sim.cycles;
        wire.extend(log.wire);
    }

    let mut figs = Figures::default();
    figs.set("sim_mpkt_s", packets as f64 / secs / 1e6);
    figs.set("programs_s", programs as f64 / secs);
    figs.set("jobs_s", tally.attempted as f64 / secs);
    report::latency_figures(&mut figs, &mut lat_ms);
    round_sim.figures(&mut figs);
    figs.set("xlate.cache_hits", (after.hits - before.hits) as f64);
    figs.set("xlate.cache_misses", (after.misses - before.misses) as f64);
    if tr.on() {
        span_figures(&bench.server, &wire, &mut figs, tr);
    }
    (tally, figs)
}

/// Queue wait and service time from the daemon's job spans; wire time is
/// the client's latency minus the span's accept-to-reply time. The span
/// log is bounded, so these cover the jobs it kept.
fn span_figures(
    server: &ServerHandle,
    wire: &HashMap<String, u64>,
    figs: &mut Figures,
    tr: &mut Tracer,
) {
    let spans = server.job_spans();
    let ms = |us: u64| us as f64 / 1e3;
    let mut wait: Vec<f64> = spans.iter().map(|s| ms(s.queue_wait_us())).collect();
    let mut service: Vec<f64> = spans.iter().map(|s| ms(s.service_us())).collect();
    let mut wire_ms: Vec<f64> = spans
        .iter()
        .filter_map(|s| wire.get(&s.id).map(|&lat| ms(lat.saturating_sub(s.end_us - s.accept_us))))
        .collect();
    for v in [&mut wait, &mut service, &mut wire_ms] {
        v.sort_by(f64::total_cmp);
    }
    figs.set("serve.queue_wait_ms.p50", quantile(&wait, 0.5));
    figs.set("serve.service_ms.p50", quantile(&service, 0.5));
    figs.set("serve.service_ms.p99", quantile(&service, 0.99));
    figs.set("serve.wire_ms.p50", quantile(&wire_ms, 0.5));
    // The daemon's spans join the benchmark's own in the trace file, on
    // the daemon's clock (µs since its telemetry epoch).
    for (i, s) in spans.iter().enumerate() {
        tr.push(Span {
            layer: "serve.job",
            op: i as u64,
            start_ns: s.accept_us * 1000,
            end_ns: s.end_us * 1000,
            work: s.packets,
        });
    }
}
