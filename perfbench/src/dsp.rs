//! `dsp-cycle`: the paper's own workload. The 18-kernel DSP/multimedia
//! suite, inputs drawn from the seed, each kernel run by the warm-cache
//! method (a fill pass, then a measured pass) on `CycleSim` over the real
//! cache/DRDRAM hierarchy, plus the set-top split on the dual-CPU chip:
//! VLD on CPU0 and an 8×8 IDCT on CPU1 sharing the dual-ported D-cache.
//!
//! Host time here is almost all cycle pipeline and memory hierarchy; the
//! assembler, lint, translation and serve do no work.

use std::sync::Arc;

use majc_core::{CpuCore, CycleSim, CycleStats, FuncSim, LocalMemSys, TimingConfig};
use majc_isa::Program;
use majc_kernels::harness::XorShift;
use majc_kernels::{
    biquad, bitrev, cfir, colorconv, convolve, dct, dmatmul, fft, fir, idct, lms, maxsearch,
    motion, peak, transform_light, vld,
};
use majc_mem::FlatMem;
use majc_soc::Majc5200;

use crate::checks;
use crate::report::{Fail, Figures, Meter, Tally};
use crate::trace::Tracer;
use crate::{Run, SimTotals};

/// Each small kernel runs this many times per round, so the sixteen
/// cache-resident kernels take about as much host time as the two
/// 512×512 image kernels, whose working sets are 32× the 16 KB D-cache.
/// Without the repeats the image kernels take 98% of the host time.
const SMALL_REPEATS: usize = 40;
/// Dual-CPU set-top runs per round, each with its own coded blocks: as
/// many as each small kernel runs. With these counts the median of
/// operation time falls mid-way into one kernel's cluster of runs (and
/// the 99th percentile inside the radix-2 FFT's), not on the edge between
/// two kernels, where it would jump from run to run.
const SOC_RUNS: usize = SMALL_REPEATS;
/// Coded 8×8 blocks the VLD decodes per set-top run.
const SOC_BLOCKS: usize = 32;
/// Packet budget per pass; every kernel halts far inside it.
const MAX_PACKETS: u64 = 200_000_000;

/// Byte encoding of a kernel output, so every reference compares the same
/// way.
trait Enc {
    fn enc(&self, out: &mut Vec<u8>);
}

macro_rules! enc_le {
    ($($t:ty),*) => {$(
        impl Enc for $t {
            fn enc(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
enc_le!(f32, f64, i16, u8, i32, u32);

impl<T: Enc> Enc for [T] {
    fn enc(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|x| x.enc(out));
    }
}
impl<T: Enc> Enc for Vec<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        self[..].enc(out);
    }
}
impl<T: Enc, const N: usize> Enc for [T; N] {
    fn enc(&self, out: &mut Vec<u8>) {
        self[..].enc(out);
    }
}
impl<A: Enc, B: Enc> Enc for (A, B) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
    }
}
impl<A: Enc, B: Enc, C: Enc> Enc for (A, B, C) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
        self.2.enc(out);
    }
}
impl Enc for transform_light::Lit {
    fn enc(&self, out: &mut Vec<u8>) {
        self.pos.enc(out);
        self.color.enc(out);
    }
}

fn bytes<T: Enc + ?Sized>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.enc(&mut out);
    out
}

type Reader = Box<dyn Fn(&mut FlatMem) -> Vec<u8>>;

/// What a kernel's output is checked against.
enum Expect {
    /// The kernel's Rust reference model, compared bit for bit.
    Exact { read: Reader, want: Vec<u8> },
    /// A directly computed DFT of the FFT's natural-order input.
    Dft { dft: Vec<(f64, f64)> },
    /// Only the final state, which the interpreter comparison covers: the
    /// peak-rate kernels have no other output, and see `lms` below.
    StateOnly,
}

struct Kernel {
    name: &'static str,
    prog: Arc<Program>,
    mem: FlatMem,
    heavy: bool,
    expect: Expect,
    /// The interpreter's final memory and CPU state, computed at set-up.
    ref_mem: FlatMem,
    ref_arch: Vec<u8>,
}

struct SocCase {
    progs: [Arc<Program>; 2],
    mem: FlatMem,
    vld_want: Vec<[i16; 64]>,
    idct_want: [i16; 64],
}

pub struct Suite {
    kernels: Vec<Kernel>,
    soc: Vec<SocCase>,
}

fn exact<T: Enc + 'static>(
    name: &'static str,
    (prog, mem): (Program, FlatMem),
    heavy: bool,
    want: T,
    read: impl Fn(&mut FlatMem) -> T + 'static,
) -> Kernel {
    let read: Reader = Box::new(move |m| bytes(&read(m)));
    kernel(name, prog, mem, heavy, Expect::Exact { read, want: bytes(&want) })
}

fn kernel(name: &'static str, prog: Program, mem: FlatMem, heavy: bool, expect: Expect) -> Kernel {
    let empty = FlatMem::new();
    Kernel { name, prog: Arc::new(prog), mem, heavy, expect, ref_mem: empty, ref_arch: Vec::new() }
}

/// Copy every page of `src` into `dst` (the set-top programs use
/// disjoint regions), through the canonical snapshot encoding: an 8-byte
/// magic, a page count, then (page number, 4 KiB) records.
fn merge(dst: &mut FlatMem, src: &FlatMem) {
    let snap = src.to_snapshot();
    let count = u32::from_le_bytes(snap[8..12].try_into().expect("page count")) as usize;
    for i in 0..count {
        let at = 12 + i * (4 + 4096);
        let pn = u32::from_le_bytes(snap[at..at + 4].try_into().expect("page number"));
        dst.write(pn << 12, &snap[at + 4..at + 4 + 4096]);
    }
}

/// Build every kernel and set-top case from `seed`, with their reference
/// outputs.
fn build(seed: u64, tr: &mut Tracer, setup: u64) -> Suite {
    tr.span("kernels.build", setup, || build_inputs(seed), |_| 1)
}

fn build_inputs(seed: u64) -> Suite {
    let mut seeds = XorShift::new(seed ^ 0xD5B0_C7C1_E000_0001);
    let mut rng = || XorShift::new(seeds.next_u64() | 1);
    let mut ks = Vec::new();

    let c = biquad::Cascade::demo(rng().next_u64());
    let mut r = rng();
    let input: Vec<f32> = (0..64).map(|_| r.next_f32()).collect();
    let n = input.len();
    ks.push(exact(
        "biquad",
        biquad::build(&c, &input),
        false,
        biquad::reference(&c, &input),
        move |m| biquad::extract(m, n),
    ));

    let mut r = rng();
    let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| r.next_f32() * 0.2).collect();
    let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| r.next_f32()).collect();
    ks.push(exact("fir", fir::build(&coeffs, &xs), false, fir::reference(&coeffs, &xs), |m| {
        fir::extract(m, fir::OUTPUTS)
    }));

    let mut r = rng();
    let cc: Vec<(f32, f32)> =
        (0..cfir::TAPS).map(|_| (r.next_f32() * 0.2, r.next_f32() * 0.2)).collect();
    let cx: Vec<(f32, f32)> =
        (0..cfir::OUTPUTS + cfir::TAPS - 1).map(|_| (r.next_f32(), r.next_f32())).collect();
    ks.push(exact("cfir", cfir::build(&cc, &cx), false, cfir::reference(&cc, &cx), |m| {
        cfir::extract(m, cfir::OUTPUTS)
    }));

    let mut r = rng();
    let w: Vec<f32> = (0..lms::ORDER).map(|_| r.next_f32() * 0.5).collect();
    let x: Vec<f32> = (0..lms::ORDER).map(|_| r.next_f32()).collect();
    let d = r.next_f32();
    // Not compared with `lms::reference`: the kernel reduces its six
    // partial sums in another order than the reference does, so the two
    // differ by an ulp on some inputs (see CHANGES.md). The interpreter
    // comparison still checks every output bit.
    let (p, m) = lms::build(&w, &x, d, 0.05);
    ks.push(kernel("lms", p, m, false, Expect::StateOnly));

    let mut r = rng();
    let xs: Vec<f32> = (0..maxsearch::N).map(|_| r.next_f32() * 100.0).collect();
    ks.push(exact(
        "maxsearch",
        maxsearch::build(&xs),
        false,
        maxsearch::reference(&xs),
        maxsearch::extract,
    ));

    let mut r = rng();
    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (r.next_f32(), r.next_f32())).collect();
    let pre2: Vec<(f32, f32)> = (0..fft::N).map(|i| data[bitrev::rev(i)]).collect();
    let (p, m) = fft::build_radix2(&pre2);
    ks.push(kernel("fft-radix2", p, m, false, Expect::Dft { dft: fft::naive_dft(&data) }));

    let mut r = rng();
    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (r.next_f32(), r.next_f32())).collect();
    let pre4: Vec<(f32, f32)> = (0..fft::N).map(|i| data[fft::digit_rev4(i)]).collect();
    let (p, m) = fft::build_radix4(&pre4);
    ks.push(kernel("fft-radix4", p, m, false, Expect::Dft { dft: fft::naive_dft(&data) }));

    let mut r = rng();
    let data: Vec<(f32, f32)> = (0..fft::N).map(|_| (r.next_f32(), r.next_f32())).collect();
    let mut want = data.clone();
    bitrev::reference(&mut want);
    ks.push(exact("bitrev", bitrev::build(&data), false, want, bitrev::extract));

    let mut r = rng();
    let mut coeffs = [0i16; 64];
    coeffs[0] = r.next_i16(1000);
    for _ in 0..12 {
        coeffs[r.next_range(64)] = r.next_i16(300);
    }
    ks.push(exact("idct", idct::build(&coeffs), false, idct::reference(&coeffs), idct::extract));

    let mut r = rng();
    let px: [i16; 64] = std::array::from_fn(|_| r.next_i16(255));
    let q = dct::demo_qmatrix(2);
    ks.push(exact("dct", dct::build(&px, &q), false, dct::reference(&px, &q), dct::extract));

    let blocks = vld::workload(rng().next_u64(), 16);
    let (stream, _) = vld::encode(&blocks);
    let nb = blocks.len();
    ks.push(exact("vld", vld::build(&stream, nb), false, vld::reference(&stream, nb), move |m| {
        vld::extract(m, nb)
    }));

    let (frame, cur) = motion::workload(rng().next_u64(), 6, -4);
    ks.push(exact(
        "motion",
        motion::build(&frame, &cur),
        false,
        motion::reference(&frame, &cur),
        motion::extract,
    ));

    let mut r = rng();
    let a: [f64; 64] = std::array::from_fn(|_| r.next_f32() as f64);
    let b: [f64; 64] = std::array::from_fn(|_| r.next_f32() as f64);
    ks.push(exact(
        "dmatmul",
        dmatmul::build(&a, &b),
        false,
        dmatmul::reference(&a, &b),
        dmatmul::extract,
    ));

    let (p, _flops, m) = peak::build_flops(64);
    ks.push(kernel("peak-flops", p, m, false, Expect::StateOnly));
    let (p, _ops, m) = peak::build_ops(64);
    ks.push(kernel("peak-ops", p, m, false, Expect::StateOnly));

    let (mat, light, vs) = transform_light::demo_scene(33);
    let nv = vs.len();
    ks.push(exact(
        "transform-light",
        transform_light::build(&mat, &light, &vs),
        false,
        transform_light::reference(&mat, &light, &vs),
        move |m| transform_light::extract(m, nv),
    ));

    let mut r = rng();
    let img: Vec<i16> =
        (0..convolve::WIDTH * convolve::HEIGHT).map(|_| r.next_i16(255).abs()).collect();
    let k = convolve::demo_kernel();
    ks.push(exact(
        "convolve",
        convolve::build(&img, &k),
        true,
        convolve::reference(&img, &k),
        convolve::extract,
    ));

    let mut r = rng();
    let n = colorconv::WIDTH * colorconv::HEIGHT;
    let red: Vec<i16> = (0..n).map(|_| r.next_i16(255).abs()).collect();
    let green: Vec<i16> = (0..n).map(|_| r.next_i16(255).abs()).collect();
    let blue: Vec<i16> = (0..n).map(|_| r.next_i16(255).abs()).collect();
    ks.push(exact(
        "colorconv",
        colorconv::build(&red, &green, &blue),
        true,
        colorconv::reference(&red, &green, &blue),
        colorconv::extract,
    ));

    let soc = (0..SOC_RUNS)
        .map(|_| {
            let blocks = vld::workload(rng().next_u64(), SOC_BLOCKS);
            let (stream, _) = vld::encode(&blocks);
            let (vld_prog, vld_mem) = vld::build(&stream, blocks.len());
            let mut r = rng();
            let mut coeffs = [0i16; 64];
            coeffs[0] = r.next_i16(1000);
            for _ in 0..12 {
                coeffs[r.next_range(64)] = r.next_i16(300);
            }
            let (idct_prog, idct_mem) = idct::build(&coeffs);
            // CPU1's image sits after CPU0's so both programs coexist.
            let idct_prog = Program::new(0x0008_0000, idct_prog.packets().to_vec());
            let mut mem = FlatMem::new();
            merge(&mut mem, &vld_mem);
            merge(&mut mem, &idct_mem);
            SocCase {
                progs: [Arc::new(vld_prog), Arc::new(idct_prog)],
                mem,
                vld_want: vld::reference(&stream, blocks.len()),
                idct_want: idct::reference(&coeffs),
            }
        })
        .collect();
    Suite { kernels: ks, soc }
}

/// The interpreter's final memory and CPU state on the kernel's inputs.
fn interp_reference(k: &mut Kernel, tr: &mut Tracer, setup: u64) -> Result<(), String> {
    let mut sim = FuncSim::new(Arc::clone(&k.prog), k.mem.clone());
    let res = tr.span(
        "interp.run",
        setup,
        || sim.run_to_halt(MAX_PACKETS),
        |r| *r.as_ref().unwrap_or(&0),
    );
    res.map_err(|e| format!("{}: interpreter reference failed: {e}", k.name))?;
    k.ref_arch = sim.capture().to_bytes();
    k.ref_mem = sim.mem;
    Ok(())
}

pub fn setup(seed: u64, tr: &mut Tracer, setup: u64) -> Suite {
    let mut suite = build(seed, tr, setup);
    for k in &mut suite.kernels {
        if let Err(e) = interp_reference(k, tr, setup) {
            // A reference that cannot be computed is a fault in the
            // program under test; every run of that kernel then fails.
            eprintln!("perfbench: {e}");
        }
    }
    suite
}

/// Run one pass on the cycle model as a span of `layer`.
fn cycle_pass(
    tr: &mut Tracer,
    layer: &'static str,
    op: u64,
    prog: &Arc<Program>,
    port: LocalMemSys,
) -> Result<CycleSim<LocalMemSys>, Fail> {
    let mut sim = CycleSim::new(Arc::clone(prog), port, TimingConfig::default());
    let (res, _) = tr.span(
        layer,
        op,
        || {
            let res = sim.run(MAX_PACKETS);
            (res, sim.stats.packets)
        },
        |(_, packets)| *packets,
    );
    match res {
        Ok(_) if sim.halted() => Ok(sim),
        Ok(_) => Err(Fail::Error("did not halt within the packet budget".into())),
        Err(e) => Err(Fail::Error(e.to_string())),
    }
}

/// A kernel's fill pass and measured pass, both checked.
fn warm_kernel(k: &Kernel, tr: &mut Tracer, op: u64) -> Result<[CycleStats; 2], Fail> {
    let layer = if k.heavy { "cycle.dram_bound" } else { "cycle.cache_resident" };
    let port = LocalMemSys::majc5200().with_mem(k.mem.clone());
    let fill = cycle_pass(tr, layer, op, &k.prog, port)?;
    let fill_stats = fill.stats;
    // The measured pass starts from the kernel's inputs again: the tags
    // stay warm, and in-place kernels (the FFTs, bitrev) transform their
    // real input rather than the fill pass's output.
    let mut port = fill.port;
    port.new_epoch();
    port.mem = k.mem.clone();
    let mut sim = cycle_pass(tr, layer, op, &k.prog, port)?;

    checks::stalls_attributed(k.name, &fill_stats)?;
    checks::stalls_attributed(k.name, &sim.stats)?;
    match &k.expect {
        Expect::Exact { read, want } => {
            checks::output_exact(k.name, &read(&mut sim.port.mem), want)?
        }
        Expect::Dft { dft } => {
            checks::fft_against_dft(k.name, &fft::read_complex(&mut sim.port.mem, fft::N), dft)?
        }
        Expect::StateOnly => {}
    }
    checks::same_memory(k.name, &sim.port.mem, &k.ref_mem)?;
    checks::same_arch(k.name, &sim.capture(0).to_bytes(), &k.ref_arch)?;
    Ok([fill_stats, sim.stats])
}

/// One chip pass of a set-top case as a `soc.run` span.
fn chip_pass(chip: &mut Majc5200, tr: &mut Tracer, op: u64) -> Result<(), Fail> {
    let (res, _) = tr.span(
        "soc.run",
        op,
        || {
            let res = chip.run(MAX_PACKETS);
            (res, chip.cpu[0].stats.packets + chip.cpu[1].stats.packets)
        },
        |(_, packets)| *packets,
    );
    res.map_err(|e| Fail::Error(e.to_string()))?;
    if chip.cpu.iter().all(|c| c.halted()) {
        Ok(())
    } else {
        Err(Fail::Error("set-top run did not halt within the packet budget".into()))
    }
}

/// A set-top case by the same warm method: a fill pass, a new epoch that
/// keeps the shared caches warm, and a measured pass on fresh cores from
/// the same inputs.
/// Returns both CPUs' stats of both passes and the chip's port conflicts.
fn warm_soc(s: &SocCase, tr: &mut Tracer, op: u64) -> Result<(Vec<CycleStats>, u64), Fail> {
    let cfg = TimingConfig::default();
    let mut chip =
        Majc5200::new([Arc::clone(&s.progs[0]), Arc::clone(&s.progs[1])], s.mem.clone(), cfg);
    chip_pass(&mut chip, tr, op)?;
    let mut stats = vec![chip.cpu[0].stats, chip.cpu[1].stats];
    chip.chip_mut().new_epoch();
    chip.chip_mut().mem = s.mem.clone();
    chip.cpu = [
        CpuCore::new(Arc::clone(&s.progs[0]), cfg, 0),
        CpuCore::new(Arc::clone(&s.progs[1]), cfg, 1),
    ];
    chip_pass(&mut chip, tr, op)?;
    stats.extend([chip.cpu[0].stats, chip.cpu[1].stats]);
    for st in &stats {
        checks::stalls_attributed("set-top", st)?;
    }
    let mem = &mut chip.chip_mut().mem;
    checks::output_exact(
        "set-top vld",
        &bytes(&vld::extract(mem, s.vld_want.len())),
        &bytes(&s.vld_want),
    )?;
    checks::output_exact("set-top idct", &bytes(&idct::extract(mem)), &bytes(&s.idct_want))?;
    Ok((stats, chip.chip().stats.dport_conflicts))
}

/// Run whole rounds until `run.seconds` have passed. A round is every
/// small kernel `SMALL_REPEATS` times, both image kernels once, and every
/// set-top case once; each warm run is one operation.
pub fn measure(suite: &Suite, run: &Run, tr: &mut Tracer) -> (Tally, Figures) {
    let mut order: Vec<&Kernel> = Vec::new();
    for _ in 0..SMALL_REPEATS {
        order.extend(suite.kernels.iter().filter(|k| !k.heavy));
    }
    order.extend(suite.kernels.iter().filter(|k| k.heavy));

    let mut meter = Meter::new();
    let mut first_round = SimTotals::default();
    let mut rounds = 0u64;
    while meter.another_round(rounds, run.seconds) {
        let mut sim = SimTotals::default();
        for k in &order {
            meter.op(k.name, |op| {
                let st = warm_kernel(k, tr, op)?;
                st.iter().for_each(|s| sim.add(s));
                Ok(st[0].packets + st[1].packets)
            });
        }
        for s in &suite.soc {
            meter.op("set-top", |op| {
                let (st, conflicts) = warm_soc(s, tr, op)?;
                st.iter().for_each(|s| sim.add(s));
                sim.dport_conflicts += conflicts;
                Ok(st.iter().map(|s| s.packets).sum())
            });
        }
        if rounds == 0 {
            first_round = sim;
        }
        rounds += 1;
    }
    let (tally, mut figs) = meter.figures();
    first_round.figures(&mut figs);
    (tally, figs)
}
