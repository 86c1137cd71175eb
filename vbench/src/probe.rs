//! Host-time spans around the benchmark's own calls into each layer,
//! and the process memory readings.

use std::io::Write as _;
use std::time::Instant;

/// The calling thread's on-CPU time, ns (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Host time is taken on the thread's CPU clock rather than the wall
/// clock: time the benchmark waits for a CPU that another process holds
/// is not the simulator's cost, and on a shared machine it is most of
/// the run-to-run spread.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on the thread CPU clock, for the long intervals (set-up,
/// timed phases), with the wall clock read beside it. The end-to-end host
/// metrics take the CPU clock; the per-layer accounting takes the wall
/// clock throughout, because its spans around single calls would cost
/// more than some of the calls they time on the CPU clock, whose every
/// reading is a system call.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(u64, Instant);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(cpu_ns(), Instant::now())
    }

    pub fn elapsed_s(self) -> f64 {
        (cpu_ns() - self.0) as f64 / 1e9
    }

    /// Seconds elapsed on the thread CPU clock and on the wall clock.
    pub fn elapsed_both(self) -> (f64, f64) {
        let cpu = self.elapsed_s();
        (cpu, self.1.elapsed().as_secs_f64())
    }
}

/// The layer entry points the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `vhttp` offers (`DispatchedServer::offer*`, `Ingress::offer`).
    Offer,
    /// `vhttp` time advances with no node declared in them.
    Advance,
    /// `Ingress::advance` calls that handled a node declaration.
    FailoverAdvance,
    /// `/metrics` renderings.
    Scrape,
    /// Trace dumps.
    TraceDump,
    /// Drains at the end of a round (`finish`).
    Finish,
    /// `Wasp::run` / `vcc::invoke`.
    WaspRun,
}

const KINDS: usize = 7;

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Offer => "offer",
            Kind::Advance => "advance",
            Kind::FailoverAdvance => "failover_advance",
            Kind::Scrape => "scrape",
            Kind::TraceDump => "trace_dump",
            Kind::Finish => "finish",
            Kind::WaspRun => "wasp_run",
        }
    }
}

/// Calls and host nanoseconds accumulated for one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl Acc {
    pub fn us_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// One recorded span: kind, start offset and duration in host ns.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
}

/// Span recorder. Disabled, [`Spans::time`] is a plain call: untraced
/// runs pay nothing for it.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    acc: [Acc; KINDS],
    log: Vec<Rec>,
}

/// Spans kept for the written log; the accumulators count every span.
const LOG_CAP: usize = 100_000;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            acc: [Acc::default(); KINDS],
            log: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f`, recording a span of `kind` around it when enabled.
    pub fn time<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(kind, t0);
        out
    }

    /// Records a span of `kind` that started at `t0` and ends now.
    pub fn record(&mut self, kind: Kind, t0: Instant) {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let a = &mut self.acc[kind as usize];
        a.calls += 1;
        a.ns += dur_ns;
        if self.log.len() < LOG_CAP {
            self.log.push(Rec {
                kind,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    pub fn get(&self, kind: Kind) -> Acc {
        self.acc[kind as usize]
    }

    /// Writes the kept spans as tab-separated `kind start_ns dur_ns`
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tstart_ns\tdur_ns")?;
        for r in &self.log {
            writeln!(out, "{}\t{}\t{}", r.kind.label(), r.start_ns, r.dur_ns)?;
        }
        out.flush()
    }
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident memory of this process so far.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// Current resident memory of this process.
pub fn rss_bytes() -> Option<u64> {
    status_bytes("VmRSS:")
}

/// Guest instructions retired by both interpreter engines so far.
pub fn insts_retired() -> u64 {
    let c = visa::pred::counters();
    c.retired_fast + c.retired_ref
}

/// Predecoded blocks built so far.
pub fn blocks_built() -> u64 {
    visa::pred::counters().blocks_built
}
