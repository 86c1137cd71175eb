//! Stacked probes: the workload's own unit of work driven through
//! successively lower entry points, so each layer's host self time is
//! the difference between adjacent entry points.
//!
//! * `vsched` — a bare `vsched::Dispatcher` fed the same requests;
//! * `wasp` — `Wasp::run` on the same virtine and inputs, sequentially;
//! * `visa` — [`NativeProbe`]: the same guest code from the snapshot
//!   point on one reused machine, hypercalls served as host syscalls, no
//!   VM;
//! * `kvmsim` — bare `VmFd` calls, priced per call and weighted by how
//!   often the workload made each call.
//!
//! The probes run interleaved, unit by unit, in a batch after every
//! traced round, so a change in the host's speed moves every entry point
//! and the traced rounds alike. All of them are timed on the wall clock,
//! as the traced rounds' spans and totals are. Retired guest
//! instructions per unit are reported beside each probe, and a probe
//! whose count strays from the workload's fails the run
//! ([`check_insts`]).

use std::time::Instant;

use hostsim::HostKernel;
use kvmsim::{Hypervisor, VmSnapshot};
use vclock::Clock;
use visa::{CpuConfig, CpuExit, CpuState, Fault, Image, Machine, Mode, Reg};
use wasp::hypercall::{self, GuestMem, HcOutcome, HYPERCALL_PORT};
use wasp::{Invocation, NativeExit};

use crate::probe::insts_retired;
use crate::stats::median;

/// Host µs per unit and guest instructions per unit at one entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Entry {
    pub us: f64,
    pub insts: f64,
}

/// Wall-clock ns of `f`, for probes whose whole unit is measured.
pub fn timed(f: impl FnOnce() -> Result<(), String>) -> Result<u64, String> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_nanos() as u64)
}

/// Host ns and retired guest instructions per probe, summed over every
/// unit run so far.
#[derive(Debug, Default)]
pub struct Tally {
    ns: Vec<u64>,
    insts: Vec<u64>,
    units: u64,
}

impl Tally {
    /// Runs units `first..first + units` of each of `probes` probes,
    /// interleaved unit by unit: `unit(i, u)` runs unit `u` of probe `i`
    /// and returns the wall-clock ns of its measured part.
    pub fn run(
        &mut self,
        first: usize,
        units: usize,
        probes: usize,
        mut unit: impl FnMut(usize, usize) -> Result<u64, String>,
    ) -> Result<(), String> {
        self.ns.resize(probes, 0);
        self.insts.resize(probes, 0);
        for u in first..first + units {
            for i in 0..probes {
                let i0 = insts_retired();
                self.ns[i] += unit(i, u)?;
                self.insts[i] += insts_retired() - i0;
            }
        }
        self.units += units as u64;
        Ok(())
    }

    /// Host µs and retired guest instructions per unit of each probe, in
    /// the order the probes were given.
    pub fn entries(&self) -> Vec<Entry> {
        let n = self.units.max(1) as f64;
        self.ns
            .iter()
            .zip(&self.insts)
            .map(|(&ns, &insts)| Entry {
                us: ns as f64 / 1e3 / n,
                insts: insts as f64 / n,
            })
            .collect()
    }
}

/// Fails when a probe's retired instructions per unit differ from the
/// workload's own by more than [`INSTS_TOLERANCE`]: the probe then did
/// other guest work than the workload, and self times taken against it
/// would not be the layer's.
pub fn check_insts(probe: &str, got: f64, want: f64) -> Result<(), String> {
    if want > 0.0 && (got / want - 1.0).abs() <= INSTS_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "{probe} probe retired {got:.1} guest instructions per unit, the workload {want:.1}"
        ))
    }
}

/// How far a probe's instructions per unit may stray from the
/// workload's. Probes replay a seeded sample of the workload's inputs,
/// whose guest paths differ slightly in length (payload sizes, `fib`
/// arguments, trickled reads).
pub const INSTS_TOLERANCE: f64 = 0.05;

/// The `visa` probe: guest code and host syscalls with no VM, on one
/// machine reused across units the way a pooled shell is. The image runs
/// once from its entry, in the protected-mode process state
/// `wasp::NativeRunner` gives it, up to its snapshot hypercall; each unit
/// then resets the memory the previous unit dirtied (untimed, as the
/// `kvmsim` probe prices that re-arm), restores the CPU state — which,
/// as on a shell, drops the predecoded blocks — writes the arguments, and
/// runs to the end.
pub struct NativeProbe {
    machine: Machine,
    kernel: HostKernel,
    start: CpuState,
    pristine: Vec<u8>,
}

struct MachineMem<'a>(&'a mut Machine);

impl GuestMem for MachineMem<'_> {
    fn read_guest(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        self.0
            .mem
            .slice(addr, len as u64)
            .map(|s| s.to_vec())
            .map_err(|e| Fault::PhysOutOfBounds { paddr: e.paddr })
    }
    fn write_guest(&mut self, addr: u64, data: &[u8]) -> Result<(), Fault> {
        self.0
            .mem
            .write_bytes(addr, data)
            .map_err(|e| Fault::PhysOutOfBounds { paddr: e.paddr })
    }
}

/// How a guest run stopped.
enum Stop {
    Exit(NativeExit),
    Snapshot,
}

/// Guest instructions one probe unit may retire.
const STEP_BUDGET: u64 = 500_000_000;

impl NativeProbe {
    /// Loads `image` into a machine of `mem_size` bytes. With `snapshot`,
    /// runs it to its snapshot hypercall, and units start there; without,
    /// units start at the entry, as a cold-booted virtine's code does.
    pub fn new(
        kernel: HostKernel,
        image: &Image,
        mem_size: usize,
        snapshot: bool,
    ) -> Result<NativeProbe, String> {
        let mut machine = Machine::new(
            kernel.clock().clone(),
            CpuConfig::native(),
            mem_size,
            image.entry,
        );
        machine
            .mem
            .write_bytes(image.base, &image.bytes)
            .map_err(|e| format!("image does not fit: {e:?}"))?;
        let mut start = machine.cpu.save_state();
        start.mode = Mode::Prot32;
        start.cr0 = visa::inst::CR0_PE;
        start.gdt_base = Some(0);
        start.pc = image.entry;
        start.regs[Reg::SP.index()] = (mem_size as u64).min(u32::MAX as u64) & !0xF;
        machine.cpu.restore_state(&start);
        let mut probe = NativeProbe {
            machine,
            kernel,
            start,
            pristine: Vec::new(),
        };
        if snapshot {
            match probe.run_guest(&mut Invocation::default(), true)? {
                Stop::Snapshot => {
                    probe.machine.cpu.set_reg(Reg(0), 0);
                    probe.start = probe.machine.cpu.save_state();
                }
                Stop::Exit(e) => return Err(format!("image ended before its snapshot: {e:?}")),
            }
        }
        probe.pristine = probe.machine.mem.as_slice().to_vec();
        probe.machine.mem.reset_dirty_pages();
        Ok(probe)
    }

    /// The host kernel the probe's syscalls go to.
    pub fn kernel(&self) -> &HostKernel {
        &self.kernel
    }

    /// Prepares a unit: resets the memory the previous unit dirtied,
    /// restores the CPU state and writes `args` at the argument address.
    /// Callers leave this out of the unit's time.
    pub fn reset(&mut self, args: &[u8]) -> Result<(), String> {
        const PAGE: usize = 4096;
        for page in self.machine.mem.dirty_page_indices() {
            let at = page as usize * PAGE;
            let end = (at + PAGE).min(self.pristine.len());
            self.machine
                .mem
                .write_bytes(at as u64, &self.pristine[at..end])
                .map_err(|e| format!("page reset: {e:?}"))?;
        }
        self.machine.mem.reset_dirty_pages();
        self.machine.cpu.restore_state(&self.start);
        if !args.is_empty() {
            self.machine
                .mem
                .write_bytes(wasp::ARGS_ADDR, args)
                .map_err(|e| format!("arguments do not fit: {e:?}"))?;
        }
        Ok(())
    }

    /// Runs a unit prepared by [`NativeProbe::reset`] to its end.
    pub fn run(&mut self, mut inv: Invocation) -> Result<(NativeExit, Invocation), String> {
        let stop = self.run_guest(&mut inv, false);
        for &chan in inv.guest_opened_chans() {
            let _ = self.kernel.chan_close(chan);
        }
        match stop? {
            Stop::Exit(e) => Ok((e, inv)),
            Stop::Snapshot => unreachable!("runs past snapshots"),
        }
    }

    /// The guest loop of `wasp::NativeRunner::run`. A snapshot hypercall
    /// stops it with `at_snapshot`, and is a no-op returning 0 without,
    /// as it is natively.
    fn run_guest(&mut self, inv: &mut Invocation, at_snapshot: bool) -> Result<Stop, String> {
        let m = &mut self.machine;
        loop {
            let exit = match m.cpu.run(&mut m.mem, STEP_BUDGET) {
                Err(fault) => return Ok(Stop::Exit(NativeExit::Crashed(fault))),
                Ok(exit) => exit,
            };
            let (port, value) = match exit {
                CpuExit::Hlt => return Ok(Stop::Exit(NativeExit::Returned(m.cpu.reg(Reg(0))))),
                CpuExit::StepLimit => return Ok(Stop::Exit(NativeExit::StepLimit)),
                CpuExit::IoOut { port, value } => (port, value),
                CpuExit::IoIn { .. } => return Err("port input outside a virtine".into()),
            };
            if port != HYPERCALL_PORT {
                return Err(format!("output to port {port:#x}"));
            }
            self.kernel.syscall_overhead();
            let args = [1, 2, 3, 4, 5].map(|r| m.cpu.reg(Reg(r)));
            let outcome =
                hypercall::handle_canned(value, args, &mut MachineMem(m), &self.kernel, inv);
            match outcome {
                Err(fault) => return Ok(Stop::Exit(NativeExit::Crashed(fault))),
                Ok(HcOutcome::Resume(v)) => m.cpu.set_reg(Reg(0), v),
                Ok(HcOutcome::Exit(code)) => return Ok(Stop::Exit(NativeExit::Exited(code))),
                Ok(HcOutcome::TakeSnapshot) if at_snapshot => return Ok(Stop::Snapshot),
                Ok(HcOutcome::TakeSnapshot) => m.cpu.set_reg(Reg(0), 0),
                Ok(HcOutcome::Block(_)) => {
                    self.kernel.syscall_overhead();
                    m.cpu.set_reg(Reg(0), hypercall::WOULD_BLOCK);
                }
                Ok(HcOutcome::Kill(why)) => return Err(format!("malformed syscall: {why}")),
            }
        }
    }
}

/// Host µs per call of each bare `kvmsim` operation at one memory size.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvmCosts {
    pub create_vm: f64,
    pub load_image: f64,
    pub restore: f64,
    pub restore_delta: f64,
    pub clean: f64,
}

/// How often the workload made each shell operation, per request.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShellOps {
    pub created: f64,
    pub cold_boots: f64,
    pub full_restores: f64,
    pub warm_hits: f64,
    pub wipes: f64,
}

impl ShellOps {
    /// The median per-request counts the rounds recorded under
    /// `ops.*`.
    pub fn from_rounds(rounds: &[crate::Round]) -> ShellOps {
        let v = |k: &str| crate::report::round_median(rounds, k);
        ShellOps {
            created: v("ops.created"),
            cold_boots: v("ops.cold_boots"),
            full_restores: v("ops.full_restores"),
            warm_hits: v("ops.warm_hits"),
            wipes: v("ops.wipes"),
        }
    }

    /// Records a round's counts (totals over `n` requests) under
    /// `ops.*`.
    pub fn record(
        layer: &mut std::collections::BTreeMap<&'static str, f64>,
        n: f64,
        totals: ShellOps,
    ) {
        layer.insert("ops.created", totals.created / n);
        layer.insert("ops.cold_boots", totals.cold_boots / n);
        layer.insert("ops.full_restores", totals.full_restores / n);
        layer.insert("ops.warm_hits", totals.warm_hits / n);
        layer.insert("ops.wipes", totals.wipes / n);
    }
}

impl ShellOps {
    /// Per-unit counts of a `Wasp` that ran `units` calls of `id`.
    pub fn of_wasp(w: &wasp::Wasp, id: wasp::VirtineId, units: usize) -> ShellOps {
        let pool = w.pool_stats();
        let warm = w.virtine_warm_stats(id).unwrap_or_default();
        let n = units.max(1) as f64;
        ShellOps {
            created: pool.created as f64 / n,
            cold_boots: warm.cold_boots as f64 / n,
            full_restores: warm.full_restores as f64 / n,
            warm_hits: warm.warm_hits as f64 / n,
            wipes: pool.released.saturating_sub(pool.warm_parked) as f64 / n,
        }
    }
}

impl KvmCosts {
    /// Host µs of `kvmsim` work per request for the workload's mix.
    pub fn per_request(&self, ops: &ShellOps) -> f64 {
        ops.created * self.create_vm
            + ops.cold_boots * self.load_image
            + ops.full_restores * self.restore
            + ops.warm_hits * self.restore_delta
            + ops.wipes * self.clean
    }
}

/// Median host µs of `f` over `calls` calls, each prepared untimed by
/// `prep`. Single calls take a microsecond or less, so they are timed on
/// the wall clock; the median drops the ones another process preempted.
fn per_call<S>(calls: usize, mut prep: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let mut us = Vec::with_capacity(calls);
    for _ in 0..calls {
        let s = prep();
        let t0 = std::time::Instant::now();
        f(s);
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&us)
}

/// Prices the bare `kvmsim` calls for `image` at `mem_size`. `snap` is
/// the virtine's real snapshot and `delta_pages` the pages a warm
/// re-arm copies back in the workload.
pub fn kvm_costs(
    image: &Image,
    mem_size: usize,
    snap: &VmSnapshot,
    delta_pages: usize,
    calls: usize,
) -> KvmCosts {
    let hv = Hypervisor::kvm(HostKernel::new(Clock::new(), None));
    let entry = wasp::LOAD_ADDR;
    let create_vm = per_call(
        calls,
        || (),
        |()| drop(std::hint::black_box(hv.create_vm(mem_size, entry))),
    );
    let vm = hv.create_vm(mem_size, entry);
    let load_image = per_call(calls, || (), |()| vm.load_image(image));
    // Dirty what an invocation dirties before each wipe or re-arm.
    let page = vec![0x5Au8; 4096];
    let dirty = |pages: usize| {
        for p in 0..pages {
            let addr = ((p * 4096) % mem_size.max(4096)) as u64;
            vm.write_guest(addr, &page).expect("dirty page in bounds");
        }
    };
    let pages = delta_pages.max(1);
    let clean = per_call(calls, || dirty(pages), |()| vm.clean(entry));
    let restore = per_call(calls, || dirty(pages), |()| vm.restore(snap));
    vm.restore(snap);
    let restore_delta = per_call(
        calls,
        || dirty(pages),
        |()| {
            std::hint::black_box(vm.restore_delta(snap));
        },
    );
    KvmCosts {
        create_vm,
        load_image,
        restore,
        restore_delta,
        clean,
    }
}
