//! `corpus-3way`: the verification path of the fuzzer and E16. Fresh
//! `majc-gen` programs drawn from the seed, across all seven families,
//! each taken through assemble → lint analysis → translation (cold: every
//! round uses a new cache) → interpreter → translated engine → cycle model
//! and checked against the generator's digest. The only workload where
//! the assembler, lint and translation do real work, and the cycle model
//! here runs irregular, mispredict-heavy code.

use std::sync::Arc;

use majc_core::{CycleSim, FuncSim, LocalMemSys, TimingConfig, XlateCache, XlateSim};
use majc_gen::{Family, GenProgram};
use majc_mem::FlatMem;

use crate::checks;
use crate::report::{Fail, Figures, Meter, Tally};
use crate::trace::Tracer;
use crate::{Run, SimTotals};

/// Programs per family in the corpus (one round runs each once). Branchy
/// programs take most of the engines' time and their length varies by
/// about 45% from program to program, so the corpus is large enough for
/// its mean to vary little from seed to seed.
pub const PER_FAMILY: usize = 100;
/// Packet budget per engine run; generated programs halt far inside it.
const MAX_PACKETS: u64 = 50_000_000;

pub struct Corpus {
    programs: Vec<(GenProgram, FlatMem)>,
}

/// Generate the corpus from `seed`: `PER_FAMILY` programs per family.
pub fn setup(seed: u64, tr: &mut Tracer, setup: u64) -> Corpus {
    let programs = tr.span(
        "gen.generate",
        setup,
        || {
            let mut out = Vec::with_capacity(PER_FAMILY * Family::ALL.len());
            for index in 0..PER_FAMILY {
                for family in Family::ALL {
                    let p = majc_gen::generate(family, majc_gen::corpus_seed(seed, family, index));
                    let mut mem = FlatMem::new();
                    for (base, bytes) in &p.sections {
                        mem.write(*base, bytes);
                    }
                    out.push((p, mem));
                }
            }
            out
        },
        |_| 1,
    );
    Corpus { programs }
}

/// One program through every layer and every check.
fn verify(
    p: &GenProgram,
    mem: &FlatMem,
    cache: &XlateCache,
    tr: &mut Tracer,
    op: u64,
    sim: &mut SimTotals,
) -> Result<u64, Fail> {
    let what = p.name.as_str();
    let prog = tr.span("asm.assemble", op, || majc_asm::assemble(&p.asm), |_| 1);
    let prog = Arc::new(prog.map_err(|e| Fail::Error(format!("{what}: assemble: {e}")))?);
    let analysis = tr.span(
        "lint.analyze",
        op,
        || majc_lint::analyze(&prog, &majc_lint::LintOptions::default()),
        |_| 1,
    );
    if !analysis.report.is_clean() {
        return Err(Fail::Wrong(format!("{what}: lint findings on a generated program")));
    }
    let xl = tr.span("xlate.translate", op, || cache.translate(&prog), |_| 1);

    let mut f = FuncSim::new(Arc::clone(&prog), mem.clone());
    let fr =
        tr.span("interp.run", op, || f.run_to_halt(MAX_PACKETS), |r| *r.as_ref().unwrap_or(&0));
    fr.map_err(|e| Fail::Error(format!("{what}: interpreter: {e}")))?;
    let mut x = XlateSim::from_translation(xl, mem.clone());
    let xr = tr.span("xlate.run", op, || x.run_to_halt(MAX_PACKETS), |r| *r.as_ref().unwrap_or(&0));
    xr.map_err(|e| Fail::Error(format!("{what}: translated engine: {e}")))?;
    let port = LocalMemSys::majc5200().with_mem(mem.clone());
    let mut c = CycleSim::new(Arc::clone(&prog), port, TimingConfig::default());
    let (cr, _) = tr.span(
        "cycle.irregular",
        op,
        || {
            let r = c.run(MAX_PACKETS);
            (r, c.stats.packets)
        },
        |(_, packets)| *packets,
    );
    cr.map_err(|e| Fail::Error(format!("{what}: cycle model: {e}")))?;
    if !c.halted() {
        return Err(Fail::Error(format!("{what}: cycle model did not halt")));
    }

    checks::self_check(what, &mut f.mem, p.check)?;
    checks::self_check(what, &mut x.mem, p.check)?;
    checks::self_check(what, &mut c.port.mem, p.check)?;
    checks::engines_agree(what, &f, &x)?;
    checks::stalls_attributed(what, &c.stats)?;
    sim.add(&c.stats);
    Ok(f.stats.packets + x.stats.packets + c.stats.packets)
}

/// Run whole rounds (every program once) until `run.seconds` have passed.
pub fn measure(corpus: &Corpus, run: &Run, tr: &mut Tracer) -> (Tally, Figures) {
    let mut meter = Meter::new();
    let mut first_round = SimTotals::default();
    let mut cache_first = (0, 0);
    let mut rounds = 0u64;
    while meter.another_round(rounds, run.seconds) {
        // A new cache per round: every translation is cold, as it is for
        // a fuzzer that never sees a program twice.
        let cache = XlateCache::new(corpus.programs.len());
        let mut sim = SimTotals::default();
        for (p, mem) in &corpus.programs {
            meter.op(&p.name, |op| verify(p, mem, &cache, tr, op, &mut sim));
        }
        if rounds == 0 {
            first_round = sim;
            let s = cache.stats();
            cache_first = (s.hits, s.misses);
        }
        rounds += 1;
    }
    let (tally, mut figs) = meter.figures();
    first_round.figures(&mut figs);
    figs.set("xlate.cache_hits", cache_first.0 as f64);
    figs.set("xlate.cache_misses", cache_first.1 as f64);
    (tally, figs)
}
