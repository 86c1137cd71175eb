//! `fn_direct`: one closed-loop caller invokes virtines directly through
//! `vcc::invoke` / `Wasp::run`, with no `vsched` or `vhttp`. The mix has
//! the shape of Figures 11–12: `vcc`-compiled `fib(n)` with seeded `n`
//! in 0–20, snapshotted and cold-booted, plus a padded large-image
//! virtine.

use std::rc::Rc;

use hostsim::HostKernel;
use kvmsim::Hypervisor;
use vclock::Clock;
use wasp::{HypercallMask, Invocation, RunOutcome, VirtineId, VirtineSpec, Wasp, WaspConfig};

use crate::engine::PlacementTally;
use crate::gen::{self, Fingerprint};
use crate::probe::CpuTimer;
use crate::probe::{self, Kind, Spans};
use crate::report::{round_median, Stack};
use crate::stack::{self, NativeProbe, ShellOps};
use crate::{Round, Workload};

const FIB_C: &str = "
virtine int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
";

/// Calls per round: `PER_N` snapshotted and `PER_N` cold-booted calls
/// of each `fib(n)`, n in 0–`MAX_N`, and the padded image for the rest
/// (38 calls, 7.6 %).
const CALLS: usize = 500;
const DISTINCT: usize = 8;
const MAX_N: i64 = 20;
const PER_N: usize = 11;
/// The padded virtine's image size (Figure 12's knee region).
const PAD_BYTES: usize = 1 << 20;
/// `fib` is registered as this many images, each zero-padded by a
/// seeded amount up to `FIB_PAD_MAX` bytes: image load and restore cost
/// is linear in image size (Figure 12), so call latencies form a
/// continuum instead of 42 exact levels, and percentiles move smoothly
/// with the inputs.
const FIB_VARIANTS: usize = 8;
const FIB_PAD_MAX: u64 = 64 * 1024;

const PURPOSE: u64 = 0x4649_4221;

/// One call: which `fib` image variant and argument, or the padded
/// virtine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Snap(usize, i64),
    Cold(usize, i64),
    Padded,
}

/// The round's inputs: the fib image pads and the call list. The list
/// is a seeded shuffle of a fixed deck — every `n` in 0–20 equally often
/// on each runtime, plus the padded calls — with a seeded image variant
/// per call, so rounds differ in order, variants and pads but not in how
/// much `fib` work they hold (its cost is exponential in `n`, and a
/// free draw would make the round's cost swing with a few `fib(20)`s).
fn inputs(seed: u64, index: u64) -> (Vec<usize>, Vec<Call>) {
    let mut rng = gen::stream(seed, PURPOSE, index);
    let pads = (0..FIB_VARIANTS)
        .map(|_| rng.range_u64(0, FIB_PAD_MAX + 1) as usize)
        .collect();
    let mut deck = Vec::with_capacity(CALLS);
    for n in 0..=MAX_N {
        for _ in 0..PER_N {
            deck.push(Call::Snap(rng.below(FIB_VARIANTS), n));
            deck.push(Call::Cold(rng.below(FIB_VARIANTS), n));
        }
    }
    deck.resize(CALLS, Call::Padded);
    // Fisher-Yates.
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    (pads, deck)
}

/// `fib(n)` computed in Rust, the check on every guest result.
pub fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

fn padded_image() -> visa::Image {
    let mut img = visa::assemble(".org 0x8000\n hlt\n").expect("padded image assembles");
    img.pad_to(PAD_BYTES);
    img
}

fn padded_mem() -> usize {
    (PAD_BYTES + 0x8000 + 4096).next_power_of_two()
}

/// The set-up system: both runtimes, registered, snapshots taken.
struct System {
    fib: vcc::CompiledVirtine,
    compile_ms: f64,
    snap: Wasp,
    cold: Wasp,
    /// Per variant: the id on `snap` and on `cold`.
    variants: Vec<(VirtineId, VirtineId)>,
    padded_id: VirtineId,
}

fn runtime(seed: u64, purpose: u64, disable_snapshots: bool) -> Wasp {
    // Seeded host noise gives the modelled kernel costs their measured
    // jitter, so latency percentiles are not a handful of exact levels.
    let noise = gen::stream(seed, purpose, 0).next_u64();
    Wasp::new(
        Hypervisor::kvm(HostKernel::new(Clock::new(), Some(noise))),
        WaspConfig {
            disable_snapshots,
            ..WaspConfig::default()
        },
    )
}

fn setup(seed: u64, index: u64, pads: &[usize]) -> Result<System, String> {
    let t0 = CpuTimer::start();
    let unit = vcc::compile(FIB_C).map_err(|e| format!("compile: {e:?}"))?;
    let compile_ms = t0.elapsed_s() * 1e3;
    let fib = unit.virtine("fib").ok_or("no fib virtine")?.clone();
    let snap = runtime(seed, PURPOSE + 1 + 2 * index, false);
    let cold = runtime(seed, PURPOSE + 2 + 2 * index, true);
    let policy = fib.policy(&Default::default());
    let mut variants = Vec::new();
    for (v, &pad) in pads.iter().enumerate() {
        let mut image = fib.image.clone();
        image.pad_to(image.bytes.len() + pad);
        let spec = VirtineSpec::new(format!("fib{v}"), image, fib.mem_size).with_policy(policy);
        let s = snap.register(spec.clone()).map_err(|e| e.to_string())?;
        let c = cold.register(spec).map_err(|e| e.to_string())?;
        variants.push((s, c));
    }
    let padded_id = snap
        .register(
            VirtineSpec::new("padded", padded_image(), padded_mem())
                .with_policy(HypercallMask::DENY_ALL)
                .with_snapshot(false),
        )
        .map_err(|e| e.to_string())?;
    let mut sys = System {
        fib,
        compile_ms,
        snap,
        cold,
        variants,
        padded_id,
    };
    // Warm-up: each snapshotted variant's first call takes its snapshot.
    // Cold-booted and padded calls take none, so their first calls stay
    // in the timed phase.
    for v in 0..pads.len() {
        invoke(&mut sys, Call::Snap(v, 1))?;
    }
    Ok(sys)
}

fn invoke(sys: &mut System, call: Call) -> Result<RunOutcome, String> {
    let out = match call {
        Call::Snap(v, n) => vcc::invoke(&sys.snap, sys.variants[v].0, &[n]),
        Call::Cold(v, n) => vcc::invoke(&sys.cold, sys.variants[v].1, &[n]),
        Call::Padded => sys.snap.run(sys.padded_id, &[], Invocation::default()),
    }
    .map_err(|e| format!("{call:?}: {e}"))?;
    if !out.exit.is_normal() {
        return Err(format!("{call:?} exited {:?}", out.exit));
    }
    if let Call::Snap(_, n) | Call::Cold(_, n) = call {
        if out.ret as i64 != fib(n) {
            return Err(format!(
                "fib({n}) returned {}, expected {}",
                out.ret as i64,
                fib(n)
            ));
        }
    }
    Ok(out)
}

#[derive(Default)]
pub struct Direct {
    /// The last round's inputs, replayed by the probes.
    last: (Vec<usize>, Vec<Call>),
    probes: Option<Probes>,
}

/// The `visa` probe's state, kept across batches: the set-up system for
/// the `kvmsim` prices, and one reused machine per kind of call —
/// snapshotted calls start at the snapshot point, cold-booted and padded
/// ones at the entry.
struct Probes {
    sys: System,
    snapped: NativeProbe,
    cold: NativeProbe,
    padded: NativeProbe,
    tally: stack::Tally,
}

impl Probes {
    fn new(seed: u64, pads: &[usize]) -> Result<Probes, String> {
        let sys = setup(seed, 0, pads)?;
        let kernel = HostKernel::new(Clock::new(), None);
        let (image, mem) = (&sys.fib.image, sys.fib.mem_size);
        Ok(Probes {
            snapped: NativeProbe::new(kernel.clone(), image, mem, true)?,
            cold: NativeProbe::new(kernel.clone(), image, mem, false)?,
            padded: NativeProbe::new(kernel, &padded_image(), padded_mem(), false)?,
            sys,
            tally: stack::Tally::default(),
        })
    }

    /// One call run natively, checked against Rust's `fib`.
    fn unit(&mut self, call: Call) -> Result<u64, String> {
        let (probe, args) = match call {
            Call::Snap(_, k) => (&mut self.snapped, vcc::marshal_args(&[k])),
            Call::Cold(_, k) => (&mut self.cold, vcc::marshal_args(&[k])),
            Call::Padded => (&mut self.padded, Vec::new()),
        };
        probe.reset(&args)?;
        stack::timed(|| match (call, probe.run(Invocation::default())?.0) {
            (
                Call::Snap(_, k) | Call::Cold(_, k),
                wasp::NativeExit::Returned(v) | wasp::NativeExit::Exited(v),
            ) if v as i64 == fib(k) => Ok(()),
            (Call::Padded, wasp::NativeExit::Returned(_)) => Ok(()),
            (c, e) => Err(format!("native {c:?}: {e:?}")),
        })
    }
}

fn breakdown_us(out: &RunOutcome) -> [f64; 4] {
    let b = out.breakdown;
    [b.acquire, b.image, b.exec, b.release].map(|c| c.as_micros())
}

impl Workload for Direct {
    fn distinct_rounds(&self) -> usize {
        DISTINCT
    }

    fn round(
        &mut self,
        seed: u64,
        index: u64,
        spans: &mut Spans,
        _tally: Option<&Rc<PlacementTally>>,
    ) -> Result<Round, String> {
        let (pads, list) = inputs(seed, index);
        let t_setup = CpuTimer::start();
        let mut sys = setup(seed, index, &pads)?;
        let setup_s = t_setup.elapsed_s();

        let (snap0, cold0) = (sys.snap.stats(), sys.cold.stats());
        let (psnap0, pcold0) = (sys.snap.pool_stats(), sys.cold.pool_stats());
        let i0 = probe::insts_retired();
        let b0 = probe::blocks_built();
        let mut round = Round {
            setup_s,
            ..Round::default()
        };
        let mut fp = Fingerprint::default();
        let mut bd = [0.0; 4];
        let mut virt_s = 0.0;
        let t0 = CpuTimer::start();
        for &c in &list {
            let out = spans.time(Kind::WaspRun, || invoke(&mut sys, c))?;
            let total = out.breakdown.total;
            fp.word(total.get());
            fp.word(out.ret);
            let parts = breakdown_us(&out);
            for (s, p) in bd.iter_mut().zip(parts) {
                *s += p;
            }
            round.latencies_us.push(total.as_micros());
            round.cpu_us += parts.iter().sum::<f64>();
            virt_s += total.as_secs();
        }
        (round.timed_s, round.timed_wall_s) = t0.elapsed_both();
        round.requests = list.len() as u64;
        round.virt_span_s = virt_s;
        round.fingerprint = fp;

        let n = list.len() as f64;
        let (snap1, cold1) = (sys.snap.stats(), sys.cold.stats());
        let (psnap1, pcold1) = (sys.snap.pool_stats(), sys.cold.pool_stats());
        let d = |a: u64, b: u64| (a - b) as f64;
        let hits = d(snap1.warm_hits, snap0.warm_hits) + d(cold1.warm_hits, cold0.warm_hits);
        let restores = d(snap1.snapshot_restores, snap0.snapshot_restores)
            + d(cold1.snapshot_restores, cold0.snapshot_restores);
        let invocations =
            d(snap1.invocations, snap0.invocations) + d(cold1.invocations, cold0.invocations);
        let created = d(psnap1.created, psnap0.created) + d(pcold1.created, pcold0.created);
        let released = d(psnap1.released, psnap0.released) + d(pcold1.released, pcold0.released);
        let parked =
            d(psnap1.warm_parked, psnap0.warm_parked) + d(pcold1.warm_parked, pcold0.warm_parked);
        let demoted = d(psnap1.warm_demoted, psnap0.warm_demoted)
            + d(pcold1.warm_demoted, pcold0.warm_demoted);
        let pages = d(snap1.delta_pages_copied, snap0.delta_pages_copied)
            + d(cold1.delta_pages_copied, cold0.delta_pages_copied);
        let hypercalls =
            d(snap1.hypercalls, snap0.hypercalls) + d(cold1.hypercalls, cold0.hypercalls);
        let l = &mut round.layer;
        l.insert(
            "visa.insts_per_req",
            (probe::insts_retired() - i0) as f64 / n,
        );
        l.insert(
            "visa.blocks_built_per_req",
            (probe::blocks_built() - b0) as f64 / n,
        );
        l.insert("wasp.hypercalls_per_req", hypercalls / n);
        l.insert("wasp.warm_hits", hits);
        l.insert("wasp.full_restores", restores - hits);
        l.insert("wasp.cold_boots", invocations - restores);
        l.insert("wasp.shells_created", created);
        l.insert("wasp.warm_demoted", demoted);
        l.insert(
            "wasp.delta_pages_per_hit",
            if hits > 0.0 { pages / hits } else { 0.0 },
        );
        l.insert("vcc.compile_ms", sys.compile_ms);
        for (k, v) in [
            "wasp.acquire_us",
            "wasp.image_us",
            "wasp.exec_us",
            "wasp.release_us",
        ]
        .iter()
        .zip(bd)
        {
            l.insert(k, v / n);
        }
        let ops = ShellOps {
            created,
            cold_boots: invocations - restores,
            full_restores: restores - hits,
            warm_hits: hits,
            wipes: released - parked,
        };
        ShellOps::record(l, n, ops);
        self.last = (pads, list);
        Ok(round)
    }

    /// A closed loop's capacity is its completion rate: calls per
    /// virtual second of the caller's own timeline.
    fn max_rps(&mut self, _seed: u64, rounds: &[Round]) -> Result<f64, String> {
        let calls: u64 = rounds.iter().map(|r| r.requests).sum();
        let virt: f64 = rounds.iter().map(|r| r.virt_span_s).sum();
        Ok(calls as f64 / virt)
    }

    fn probe_batch(&mut self, seed: u64) -> Result<(), String> {
        if self.probes.is_none() {
            self.probes = Some(Probes::new(seed, &self.last.0)?);
        }
        let p = self.probes.as_mut().expect("set above");
        let calls = &self.last.1;
        let mut tally = std::mem::take(&mut p.tally);
        let res = tally.run(0, calls.len(), 1, |_, u| p.unit(calls[u]));
        p.tally = tally;
        res
    }

    fn stack(&mut self, rounds: &[Round], spans: &Spans) -> Result<Stack, String> {
        let n: u64 = rounds.iter().map(|r| r.requests).sum();
        let run = spans.get(Kind::WaspRun);
        let entry_us = run.ns as f64 / 1e3 / n as f64;
        let wasp_insts = round_median(rounds, "visa.insts_per_req");
        let p = self.probes.as_ref().ok_or("no probe batch ran")?;
        let [visa] = p.tally.entries()[..] else {
            unreachable!("one probe")
        };
        stack::check_insts("visa", visa.insts, wasp_insts)?;
        let sys = &p.sys;
        let snap = sys
            .snap
            .current_snapshot(sys.variants[0].0)
            .ok_or("fib has no snapshot")?;
        let delta = round_median(rounds, "wasp.delta_pages_per_hit") as usize;
        let kvm = stack::kvm_costs(&sys.fib.image, sys.fib.mem_size, &snap, delta, 200);
        let ops = ShellOps::from_rounds(rounds);
        let v = |k: &str| round_median(rounds, k);
        Ok(Stack {
            entry_us,
            vsched: None,
            wasp: stack::Entry {
                us: entry_us,
                insts: wasp_insts,
            },
            visa,
            kvm,
            kvm_us: kvm.per_request(&ops),
            kvm_probe_us: kvm.per_request(&ops),
            breakdown_us: [
                v("wasp.acquire_us"),
                v("wasp.image_us"),
                v("wasp.exec_us"),
                v("wasp.release_us"),
            ],
            compile_ms: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rust_fib_matches_the_definition() {
        assert_eq!([0, 1, 2, 3, 10, 20].map(fib), [0, 1, 1, 2, 55, 6765]);
    }

    #[test]
    fn inputs_reproduce_and_hold_the_deck() {
        let a = inputs(4, 0);
        assert_eq!(a, inputs(4, 0));
        assert_ne!(a, inputs(5, 0));
        let (pads, calls) = a;
        assert!(pads.iter().all(|&p| p as u64 <= FIB_PAD_MAX));
        assert_eq!(calls.len(), CALLS);
        let padded = calls.iter().filter(|c| **c == Call::Padded).count();
        assert_eq!(padded, CALLS - 2 * PER_N * (MAX_N as usize + 1));
        for n in 0..=MAX_N {
            let snap = calls
                .iter()
                .filter(|c| matches!(c, Call::Snap(_, k) if *k == n))
                .count();
            let cold = calls
                .iter()
                .filter(|c| matches!(c, Call::Cold(_, k) if *k == n))
                .count();
            assert_eq!((snap, cold), (PER_N, PER_N));
        }
        // Shuffled: the padded calls do not all sit at the deck's end.
        assert!(calls[..CALLS - padded].contains(&Call::Padded));
    }
}
