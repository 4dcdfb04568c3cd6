//! Layer spans, recorded from outside: the benchmark times each call it
//! makes into a layer's public function. Spans stay in memory and are
//! written out once, when the run ends; with tracing off nothing is
//! recorded and a span costs one branch.

use std::io::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    /// The operation the call served; spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call did, in the layer's unit (packets for engines,
    /// 1 for calls that are counted rather than sized).
    pub work: u64,
}

/// Totals over the spans of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub ns: u64,
    pub work: u64,
}

impl LayerTotals {
    /// Mean host milliseconds per call.
    pub fn ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e6
        }
    }

    /// Work per host second, in millions (Mpkt/s for engine layers).
    pub fn mwork_per_s(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.work as f64 / (self.ns as f64 / 1e9) / 1e6
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Time `f` as one call into `layer` on behalf of operation `op`;
    /// `work` sizes the call from its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            op,
            start_ns: ns_since(self.epoch, start),
            end_ns: ns_since(self.epoch, end),
            work: work(&out),
        });
        out
    }

    /// Record a span measured elsewhere (e.g. on a client thread).
    pub fn push(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    /// Totals over every span of `layer`.
    pub fn layer(&self, layer: &str) -> LayerTotals {
        let mut t = LayerTotals::default();
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            t.calls += 1;
            t.ns += s.end_ns - s.start_ns;
            t.work += s.work;
        }
        t
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"layer\":\"{}\",\"op\":{},\"start_ns\":{},\"dur_ns\":{},\"work\":{}}}",
                s.layer,
                s.op,
                s.start_ns,
                s.end_ns - s.start_ns,
                s.work
            )?;
        }
        w.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// The calling thread's CPU time in nanoseconds (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike wall time it leaves out time the thread was not running —
/// preemption, and on a virtual machine the host's steal — so it is the
/// steadier base for single-threaded work. Falls back to wall time since
/// `origin` where the clock is not available.
pub fn thread_cpu_ns(origin: Instant) -> u64 {
    /// Linux's clock id.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` is the C library's (std links it on
        // Linux); `ts` is a live, writable `struct timespec`, which on
        // 64-bit Linux is two `i64`s, and the call writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    ns_since(origin, Instant::now())
}
