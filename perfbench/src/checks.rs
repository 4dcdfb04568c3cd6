//! The benchmark's output checks. Each compares a measured result with a
//! value computed apart from the measured path (a Rust reference model, a
//! direct DFT, the interpreter, the generator's digest, an in-process
//! call) or with a property the method must have. None compares with a
//! stored copy of an earlier run's output.

use majc_core::{CycleStats, FuncSim, XlateSim};
use majc_gen::SelfCheck;
use majc_mem::FlatMem;
use majc_serve::{Response, Status};

use crate::report::Fail;

/// Exact equality of an extracted output with its reference encoding.
pub fn output_exact(what: &str, got: &[u8], want: &[u8]) -> Result<(), Fail> {
    if got.len() != want.len() {
        return Err(Fail::Wrong(format!(
            "{what}: {} output bytes, want {}",
            got.len(),
            want.len()
        )));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(Fail::Wrong(format!(
            "{what}: output byte {i} is {:#04x}, reference {:#04x}",
            got[i], want[i]
        ))),
    }
}

/// An FFT output against a directly computed DFT of the same input, at
/// the kernel tests' tolerance (1% of the mean bin magnitude per
/// component).
pub fn fft_against_dft(what: &str, got: &[(f32, f32)], dft: &[(f64, f64)]) -> Result<(), Fail> {
    if got.len() != dft.len() {
        return Err(Fail::Wrong(format!("{what}: {} bins, want {}", got.len(), dft.len())));
    }
    let scale = dft.iter().map(|(r, i)| (r * r + i * i).sqrt()).sum::<f64>() / dft.len() as f64;
    for (k, (&(gr, gi), &(wr, wi))) in got.iter().zip(dft).enumerate() {
        let (dr, di) = ((gr as f64 - wr).abs(), (gi as f64 - wi).abs());
        if !(dr < 1e-2 * scale && di < 1e-2 * scale) {
            return Err(Fail::Wrong(format!(
                "{what}: bin {k} is ({gr}, {gi}), DFT ({wr:.4}, {wi:.4})"
            )));
        }
    }
    Ok(())
}

/// Two final memory images must be identical.
pub fn same_memory(what: &str, got: &FlatMem, want: &FlatMem) -> Result<(), Fail> {
    match got.first_diff_detail(want) {
        None => Ok(()),
        Some(d) => Err(Fail::Wrong(format!(
            "{what}: memory differs at {:#010x} ({:#04x}, reference {:#04x})",
            d.addr, d.lhs, d.rhs
        ))),
    }
}

/// Two captured architectural CPU states (`CpuSnap::to_bytes`) must be
/// identical.
pub fn same_arch(what: &str, got: &[u8], want: &[u8]) -> Result<(), Fail> {
    if got == want {
        Ok(())
    } else {
        Err(Fail::Wrong(format!("{what}: final architectural state differs from the interpreter")))
    }
}

/// The cycle model must attribute every stall cycle to exactly one cause.
pub fn stalls_attributed(what: &str, stats: &CycleStats) -> Result<(), Fail> {
    if stats.stall_attribution_consistent() {
        Ok(())
    } else {
        Err(Fail::Wrong(format!("{what}: stall attribution does not reconcile")))
    }
}

/// A generated program's postcondition: the digest of its result window
/// must equal the generator's.
pub fn self_check(what: &str, mem: &mut FlatMem, check: SelfCheck) -> Result<(), Fail> {
    let got = majc_kernels::suite::result_digest(mem, check);
    if got == check.expect {
        Ok(())
    } else {
        Err(Fail::Wrong(format!(
            "{what}: self-check digest {got:016x}, generator {:016x}",
            check.expect
        )))
    }
}

/// The interpreter and the translated engine must agree bit for bit:
/// packet and instruction counters, control flow, trap registers,
/// registers and memory.
pub fn engines_agree(what: &str, f: &FuncSim, x: &XlateSim) -> Result<(), Fail> {
    let diff = if f.stats != x.stats {
        Some(format!("stats {:?} vs {:?}", f.stats, x.stats))
    } else if f.pc() != x.pc() || f.halted() != x.halted() {
        Some(format!("pc {:#x}/{} vs {:#x}/{}", f.pc(), f.halted(), x.pc(), x.halted()))
    } else if f.trap_regs() != x.trap_regs() {
        Some("trap registers".to_string())
    } else if f.regs.raw() != x.regs.raw() {
        Some("registers".to_string())
    } else {
        f.mem.first_diff(&x.mem).map(|a| format!("memory at {a:#010x}"))
    };
    match diff {
        None => Ok(()),
        Some(d) => {
            Err(Fail::Wrong(format!("{what}: interpreter and translated engine differ: {d}")))
        }
    }
}

/// A serve reply must be `ok`; anything else is an operation that did
/// not complete.
pub fn reply_ok(what: &str, resp: &Response) -> Result<(), Fail> {
    match &resp.status {
        Status::Ok(_) => Ok(()),
        other => Err(Fail::Error(format!("{what}: reply {other:?}"))),
    }
}

/// An `ok` reply's string field must equal the expected value.
pub fn reply_str(what: &str, resp: &Response, field: &str, want: &str) -> Result<(), Fail> {
    reply_ok(what, resp)?;
    match resp.field(field).and_then(|v| v.as_str()) {
        Some(got) if got == want => Ok(()),
        got => Err(Fail::Wrong(format!("{what}: reply {field} {got:?}, want {want}"))),
    }
}

/// An `ok` reply's integer field must equal the expected value.
pub fn reply_u64(what: &str, resp: &Response, field: &str, want: u64) -> Result<(), Fail> {
    reply_ok(what, resp)?;
    match resp.field(field).and_then(|v| v.as_u64()) {
        Some(got) if got == want => Ok(()),
        got => Err(Fail::Wrong(format!("{what}: reply {field} {got:?}, want {want}"))),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use majc_kernels::{fft, fir, harness::XorShift};
    use majc_serve::{arch_digest, Client, Engine, JobSpec, Request, ServeConfig, SimSpec, Val};

    use super::*;

    fn f32_bytes(xs: &[f32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn a_kernel_output_with_one_flipped_byte_is_rejected() {
        let mut rng = XorShift::new(5);
        let coeffs: Vec<f32> = (0..fir::TAPS).map(|_| rng.next_f32() * 0.2).collect();
        let xs: Vec<f32> = (0..fir::OUTPUTS + fir::TAPS - 1).map(|_| rng.next_f32()).collect();
        let (prog, mem) = fir::build(&coeffs, &xs);
        let mut out = majc_kernels::run_func(&prog, mem);
        let got = f32_bytes(&fir::extract(&mut out, fir::OUTPUTS));
        let want = f32_bytes(&fir::reference(&coeffs, &xs));
        assert!(output_exact("fir", &got, &want).is_ok());
        for i in [0, got.len() / 2, got.len() - 1] {
            let mut bad = got.clone();
            bad[i] ^= 0x01;
            assert!(matches!(output_exact("fir", &bad, &want), Err(Fail::Wrong(_))), "byte {i}");
        }
        // The same flip in the final memory image is caught by the
        // interpreter comparison.
        let mut bad_mem = out.clone();
        let a = 0x0002_0000;
        let b = bad_mem.read_u8(a);
        bad_mem.write_u8(a, b ^ 0x80);
        assert!(same_memory("fir", &bad_mem, &out).is_err());
    }

    #[test]
    fn an_fft_bin_off_the_dft_is_rejected() {
        let mut rng = XorShift::new(9);
        let x: Vec<(f32, f32)> = (0..fft::N).map(|_| (rng.next_f32(), rng.next_f32())).collect();
        let pre: Vec<(f32, f32)> = (0..fft::N).map(|i| x[majc_kernels::bitrev::rev(i)]).collect();
        let (prog, mem) = fft::build_radix2(&pre);
        let mut out = majc_kernels::run_func(&prog, mem);
        let got = fft::read_complex(&mut out, fft::N);
        let dft = fft::naive_dft(&x);
        assert!(fft_against_dft("fft", &got, &dft).is_ok());
        let mut bad = got.clone();
        bad[17].0 += 1.0;
        assert!(fft_against_dft("fft", &bad, &dft).is_err());
    }

    #[test]
    fn a_corpus_run_with_a_wrong_self_check_digest_is_rejected() {
        let p = majc_gen::generate(majc_gen::Family::Bst, 77);
        let case = majc_kernels::suite::gen_case(&p);
        let mut sim = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
        sim.run_to_halt(50_000_000).expect("generated program halts");
        assert!(self_check("bst", &mut sim.mem, p.check).is_ok());
        let wrong = SelfCheck { expect: p.check.expect ^ 1, ..p.check };
        assert!(matches!(self_check("bst", &mut sim.mem, wrong), Err(Fail::Wrong(_))));
        // A corrupted result window fails the true digest too.
        let b = sim.mem.read_u8(p.check.addr);
        sim.mem.write_u8(p.check.addr, b ^ 0xFF);
        assert!(self_check("bst", &mut sim.mem, p.check).is_err());
    }

    #[test]
    fn engines_that_disagree_are_rejected() {
        let p = majc_gen::generate(majc_gen::Family::List, 3);
        let case = majc_kernels::suite::gen_case(&p);
        let mut f = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
        let mut x = XlateSim::new(Arc::clone(&case.prog), case.mem.clone());
        f.run_to_halt(50_000_000).unwrap();
        x.run_to_halt(50_000_000).unwrap();
        assert!(engines_agree("list", &f, &x).is_ok());
        let b = x.mem.read_u8(0x0013_0000);
        x.mem.write_u8(0x0013_0000, b ^ 4);
        assert!(engines_agree("list", &f, &x).is_err());
    }

    fn func_digest(case: &majc_kernels::suite::SuiteCase) -> String {
        let mut sim = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
        sim.run_to_halt(50_000_000).unwrap();
        arch_digest(&sim.capture(), &sim.mem)
    }

    #[test]
    fn a_serve_reply_carrying_another_kernels_digest_is_rejected() {
        let cases = majc_kernels::suite::fast_cases();
        let fir = cases.iter().find(|c| c.name == "fir").unwrap();
        let lms = cases.iter().find(|c| c.name == "lms").unwrap();
        let (want, other) = (func_digest(fir), func_digest(lms));
        assert_ne!(want, other);
        // A real daemon's reply for `fir` passes against fir's in-process
        // digest and fails against lms's.
        let cfg = ServeConfig { workers: 1, queue_depth: 4, chaos: None };
        let server = majc_serve::start(0, cfg).expect("daemon starts");
        let mut client = Client::connect(server.addr()).expect("client connects");
        let req = Request::Job {
            id: "j1".into(),
            spec: JobSpec::Simulate(SimSpec {
                kernel: Some("fir".into()),
                source: None,
                engine: Engine::Func,
                budget: 1_000_000,
                checkpoint: false,
                resume: None,
            }),
        };
        let reply = client.request(&req).expect("daemon replies");
        drop(client);
        server.shutdown();
        assert!(reply_str("fir", &reply, "digest", &want).is_ok());
        assert!(matches!(reply_str("lms", &reply, "digest", &other), Err(Fail::Wrong(_))));
        // The same reply edited to carry lms's digest is rejected for fir.
        let forged = Response::ok("j1", vec![("digest".into(), Val::Str(other.clone()))]);
        assert!(matches!(reply_str("fir", &forged, "digest", &want), Err(Fail::Wrong(_))));
        // A reply other than ok is a failed operation, not a wrong one.
        let failed = Response::failed("j1", "hang", "budget");
        assert!(matches!(reply_str("fir", &failed, "digest", &want), Err(Fail::Error(_))));
    }

    #[test]
    fn a_resume_whose_digest_differs_from_the_uninterrupted_run_is_rejected() {
        // Checkpoint a kernel halfway, resume it twice: once faithfully,
        // once after corrupting the checkpointed memory. Only the faithful
        // resume reaches the uninterrupted digest.
        let cases = majc_kernels::suite::fast_cases();
        let case = cases.iter().find(|c| c.name == "dct").unwrap();
        let whole = func_digest(case);
        let mut first = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
        let total = {
            let mut probe = FuncSim::new(Arc::clone(&case.prog), case.mem.clone());
            probe.run_to_halt(50_000_000).unwrap()
        };
        first.run(total / 2).unwrap();
        let snap = first.capture();
        let resume = |mem: FlatMem| {
            let mut sim = FuncSim::resume(Arc::clone(&case.prog), mem, &snap);
            sim.run_to_halt(50_000_000).unwrap();
            let d = arch_digest(&sim.capture(), &sim.mem);
            Response::ok("r", vec![("digest".into(), Val::Str(d))])
        };
        assert!(reply_str("resume", &resume(first.mem.clone()), "digest", &whole).is_ok());
        let mut bad = first.mem.clone();
        bad.write_u8(0x00F0_0000, 1);
        assert!(reply_str("resume", &resume(bad), "digest", &whole).is_err());
    }

    #[test]
    fn an_unreconciled_stall_count_is_rejected() {
        let stats = CycleStats { cycles: 10, data_stall_cycles: 3, ..CycleStats::default() };
        assert!(stalls_attributed("x", &stats).is_err());
        assert!(stalls_attributed("x", &CycleStats::default()).is_ok());
    }
}
