//! `edge_failover`: `vhttp::ingress` over 3 nodes × 2 shards. One
//! snapshotted short function takes small seeded payloads under
//! open-loop Poisson arrivals while a gray node hang recurs on a fixed
//! virtual schedule: the detector declares it, the cluster fences the
//! node, the ingress re-dispatches its requests, probes restore it. Edge
//! and node tracing are on; `/metrics` and trace dumps are taken
//! periodically.

use std::rc::Rc;

use vhttp::ingress::{Ingress, IngressRun};
use vsched::{ClusterAction, DispatcherConfig, HealthConfig, TenantId, TenantProfile};
use wasp::{Invocation, VirtineId, VirtineSpec, Wasp};

use crate::engine::{default_engine, PlacementTally, TimedEngine};
use crate::gen::{self, Fingerprint};
use crate::http::series_value;
use crate::probe::CpuTimer;
use crate::probe::{self, Kind, Spans};
use crate::report::{round_median, Stack};
use crate::search;
use crate::stack::{self, NativeProbe, ShellOps};
use crate::{Round, Workload};

const NODES: usize = 3;
const SHARDS_PER_NODE: usize = 2;
const MEM: usize = 64 * 1024;
const TENANTS: usize = 2;
const RATE_RPS: f64 = 30_000.0;
/// Timed requests per round.
const REQUESTS: usize = 300_000;
const DISTINCT: usize = 2;
/// Seeded payload sizes, bytes.
const PAYLOAD: (u64, u64) = (8, 64);
/// The gray-failure schedule: node `k % NODES` hangs for `HANG_S`
/// starting at `HANG_FIRST_S + k * HANG_EVERY_S`, for every hang that
/// ends `HANG_SETTLE_S` before the last arrival.
const HANG_FIRST_S: f64 = 0.010;
const HANG_EVERY_S: f64 = 0.020;
const HANG_S: f64 = 0.008;
const HANG_SETTLE_S: f64 = 0.010;
const SCRAPE_EVERY_S: f64 = 0.050;
/// Traces each collector retains, and lines per dump.
const TRACE_CAP: usize = 256;
const DUMP_LINES: usize = 64;
const START_S: f64 = 0.001;
/// Settle window after the last arrival: in-flight work lands and the
/// last hang's recovery probes finish.
const DRAIN_S: f64 = 0.020;
/// The latency limit `virt_max_rps` holds `virt_p99_us` under.
const P99_LIMIT_US: f64 = 200.0;
const SEARCH_REQUESTS: usize = 20_000;
const SEARCH_BRACKET: (f64, f64) = (250_000.0, 600_000.0);
const SEARCH_STEP: f64 = 0.03;
/// Probe units per batch (one batch follows every traced round).
const PROBE_BATCH: usize = 1_000;

const PURPOSE: u64 = 0x4544_4745;
const SEARCH_INDEX: u64 = 1 << 32;

/// The short function: snapshot after boot, then sum the first eight
/// qwords of its arguments (attribution line plus payload).
fn image() -> visa::Image {
    visa::assemble(
        "
.org 0x8000
  mov r0, 8            ; snapshot()
  out 0x1, r0
  mov r1, 0
  mov r2, 0
  mov r3, 0
sum:
  load.q r4, [r1]
  add r2, r4
  add r1, 8
  add r3, 1
  cmp r3, 8
  jl sum
  mov r0, r2
  hlt
",
    )
    .expect("edge function assembles")
}

fn spec() -> VirtineSpec {
    VirtineSpec::new("edge_fn", image(), MEM)
}

#[derive(Debug, Clone)]
struct Req {
    tenant: usize,
    arrival: f64,
    payload: Vec<u8>,
}

fn requests(seed: u64, index: u64, n: usize, rate: f64) -> Vec<Req> {
    let mut rng = gen::stream(seed, PURPOSE, index);
    let arrivals = gen::poisson_arrivals(&mut rng, n, rate, START_S);
    arrivals
        .into_iter()
        .map(|arrival| {
            let tenant = rng.below(TENANTS);
            let len = rng.range_u64(PAYLOAD.0, PAYLOAD.1 + 1) as usize;
            Req {
                tenant,
                arrival,
                payload: rng.bytes(len),
            }
        })
        .collect()
}

/// Hang start instants for a run whose last arrival is `last_s`.
fn hangs(last_s: f64) -> Vec<f64> {
    (0..)
        .map(|k| HANG_FIRST_S + k as f64 * HANG_EVERY_S)
        .take_while(|at| at + HANG_S + HANG_SETTLE_S <= last_s)
        .collect()
}

struct Served {
    setup_s: f64,
    timed_s: f64,
    timed_wall_s: f64,
    run: IngressRun,
    wasp: wasp::WaspStats,
    pool: wasp::PoolStats,
    warm: wasp::VirtineWarmStats,
    batches: u64,
    steals: u64,
    migrations: u64,
    blocked_cycles: u64,
    insts: u64,
    blocks: u64,
    scrape_bytes: usize,
    rss_growth: f64,
}

/// Scrapes the edge `/metrics` and dumps edge and node traces; checks
/// the offered count against the benchmark's own tally.
fn scrape(ing: &Ingress, spans: &mut Spans, offered: u64) -> Result<usize, String> {
    let text = spans.time(Kind::Scrape, || ing.metrics());
    let got = series_value(&text, "vsched_ingress_offered_total");
    if got != Some(offered) {
        return Err(format!(
            "/metrics offered {got:?}, benchmark offered {offered}"
        ));
    }
    let dumped = spans.time(Kind::TraceDump, || {
        let mut bytes = ing.trace_json(DUMP_LINES).len();
        for i in 0..NODES {
            bytes += ing
                .cluster()
                .node(i)
                .trace_json_lines(None, DUMP_LINES)
                .len();
        }
        bytes
    });
    if dumped == 0 {
        return Err("trace dumps are empty with tracing on".into());
    }
    Ok(text.len())
}

fn advance(ing: &mut Ingress, spans: &mut Spans, t: f64) {
    let t0 = std::time::Instant::now();
    let actions = ing.advance(t);
    if spans.enabled() {
        let failover = actions
            .iter()
            .any(|a| matches!(a, ClusterAction::NodeDeclared { .. }));
        spans.record(
            if failover {
                Kind::FailoverAdvance
            } else {
                Kind::Advance
            },
            t0,
        );
    }
}

fn serve(
    seed: u64,
    reqs: &[Req],
    spans: &mut Spans,
    tally: Option<&Rc<PlacementTally>>,
) -> Result<Served, String> {
    let t_setup = CpuTimer::start();
    let mut ing = Ingress::new(NODES, SHARDS_PER_NODE);
    let vid = ing.register(spec());
    let tenants: Vec<TenantId> = (0..TENANTS)
        .map(|i| {
            ing.add_tenant(
                TenantProfile::new(format!("t{i}")),
                f64::INFINITY,
                f64::INFINITY,
            )
        })
        .collect();
    ing.set_health(HealthConfig::new().with_seed(seed));
    ing.enable_tracing(TRACE_CAP);
    for i in 0..NODES {
        let node = ing.cluster_mut().node_mut(i);
        node.enable_tracing(TRACE_CAP);
        if let Some(tally) = tally {
            let engine = default_engine(node.config());
            node.set_engine(Box::new(TimedEngine::new(engine, tally.clone())));
        }
    }
    let last = reqs.last().map_or(START_S, |r| r.arrival);
    let schedule = hangs(last);
    for (k, &at) in schedule.iter().enumerate() {
        ing.cluster_mut().hang_node_at(at, k % NODES, HANG_S);
    }
    // Warm-up: one request per tenant takes the function's snapshot on
    // a node.
    let mut client = 0u64;
    let mut offered = [0u64; TENANTS];
    for (i, &t) in tenants.iter().enumerate() {
        client += 1;
        ing.offer(t, client, vid, b"warm-up", 0.0)
            .map_err(|e| format!("warm-up shed: {e:?}"))?;
        offered[i] += 1;
    }
    ing.advance(START_S);
    let setup_s = t_setup.elapsed_s();

    let rss0 = probe::rss_bytes().unwrap_or(0) as f64;
    let i0 = probe::insts_retired();
    let b0 = probe::blocks_built();
    let t0 = CpuTimer::start();
    let mut total = TENANTS as u64;
    let mut next_scrape = START_S + SCRAPE_EVERY_S;
    for r in reqs {
        while next_scrape <= r.arrival {
            advance(&mut ing, spans, next_scrape);
            scrape(&ing, spans, total)?;
            next_scrape += SCRAPE_EVERY_S;
        }
        advance(&mut ing, spans, r.arrival);
        client += 1;
        let res = spans.time(Kind::Offer, || {
            ing.offer(tenants[r.tenant], client, vid, &r.payload, r.arrival)
        });
        res.map_err(|e| format!("request at {:.6}s shed: {e:?}", r.arrival))?;
        offered[r.tenant] += 1;
        total += 1;
    }
    advance(&mut ing, spans, last + DRAIN_S);
    let scrape_bytes = scrape(&ing, spans, total)?;
    let text = ing.metrics();
    let completed = series_value(&text, "vsched_ingress_completed_total");
    if completed != Some(total) {
        return Err(format!(
            "/metrics completed {completed:?}, benchmark offered {total}"
        ));
    }
    let (mut wasp_stats, mut pool) = (wasp::WaspStats::default(), wasp::PoolStats::default());
    let mut warm = wasp::VirtineWarmStats::default();
    let (mut batches, mut steals, mut migrations, mut blocked_cycles) = (0, 0, 0, 0);
    for i in 0..NODES {
        let d = ing.cluster().node(i);
        let (w, p, s) = (d.wasp().stats(), d.pool_stats(), d.stats());
        let v = d
            .wasp()
            .virtine_warm_stats(vid)
            .ok_or("function missing on a node")?;
        wasp_stats.hypercalls += w.hypercalls;
        wasp_stats.blocks += w.blocks;
        wasp_stats.resumes += w.resumes;
        pool.created += p.created;
        pool.released += p.released;
        pool.warm_parked += p.warm_parked;
        pool.warm_demoted += p.warm_demoted + s.warm_demotions;
        warm.warm_hits += v.warm_hits;
        warm.full_restores += v.full_restores;
        warm.cold_boots += v.cold_boots;
        warm.delta_pages += v.delta_pages;
        batches += s.batches;
        steals += s.stolen;
        migrations += s.migrations;
        blocked_cycles += s.blocked_cycles;
    }
    let run = spans.time(Kind::Finish, || ing.finish());
    let (timed_s, timed_wall_s) = t0.elapsed_both();
    let insts = probe::insts_retired() - i0;
    let blocks = probe::blocks_built() - b0;
    let rss_growth = probe::rss_bytes().unwrap_or(0) as f64 - rss0;
    check(&run, &offered, schedule.len())?;
    Ok(Served {
        setup_s,
        timed_s,
        timed_wall_s,
        run,
        wasp: wasp_stats,
        pool,
        warm,
        batches,
        steals,
        migrations,
        blocked_cycles,
        insts,
        blocks,
        scrape_bytes,
        rss_growth,
    })
}

/// Exactly-once and failover checks on a finished run.
fn check(run: &IngressRun, offered: &[u64; TENANTS], hangs: usize) -> Result<(), String> {
    let total: u64 = offered.iter().sum();
    if run.lost != 0 || run.stats.duplicates != 0 {
        return Err(format!(
            "lost {} duplicates {}",
            run.lost, run.stats.duplicates
        ));
    }
    if run.stats.shed() != 0 {
        return Err(format!("{} requests shed", run.stats.shed()));
    }
    let mut seen = vec![false; total as usize];
    let mut served = [0u64; TENANTS];
    for c in &run.completions {
        let slot = seen
            .get_mut(c.edge_seq as usize)
            .ok_or_else(|| format!("unknown edge sequence {}", c.edge_seq))?;
        if std::mem::replace(slot, true) {
            return Err(format!("edge sequence {} completed twice", c.edge_seq));
        }
        served[c.tenant.index()] += 1;
    }
    if seen.iter().any(|s| !s) {
        return Err("an edge sequence number never completed".into());
    }
    if served != *offered {
        return Err(format!("served {served:?}, offered {offered:?}"));
    }
    let h = run.health.ok_or("no detector stats")?;
    if h.declared != hangs as u64 || h.restored != hangs as u64 || h.false_positives != 0 {
        return Err(format!(
            "{hangs} hangs scheduled: declared {} restored {} false positives {}",
            h.declared, h.restored, h.false_positives
        ));
    }
    if !run.acceptor.exit_normal {
        return Err("acceptor did not exit normally".into());
    }
    Ok(())
}

#[derive(Default)]
pub struct Edge {
    probes: Option<Probes>,
}

impl Workload for Edge {
    fn distinct_rounds(&self) -> usize {
        DISTINCT
    }

    fn round(
        &mut self,
        seed: u64,
        index: u64,
        spans: &mut Spans,
        tally: Option<&Rc<PlacementTally>>,
    ) -> Result<Round, String> {
        let reqs = requests(seed, index, REQUESTS, RATE_RPS);
        let s = serve(seed, &reqs, spans, tally)?;
        let timed = &s.run.completions[TENANTS..];
        let n = timed.len() as f64;
        let mut round = Round {
            setup_s: s.setup_s,
            timed_s: s.timed_s,
            timed_wall_s: s.timed_wall_s,
            requests: timed.len() as u64,
            ..Round::default()
        };
        let mut fp = Fingerprint::default();
        for c in timed {
            let lat = (c.finish - c.arrival) * 1e6;
            fp.word(c.edge_seq);
            fp.word(c.node as u64);
            fp.f64(c.finish);
            fp.f64(c.service);
            round.latencies_us.push(lat);
            round
                .queue_wait_us
                .push((c.finish - c.service - c.arrival) * 1e6);
            round.cpu_us += c.service * 1e6;
        }
        let h = s.run.health.unwrap_or_default();
        for w in [
            s.run.stats.redispatched,
            s.run.stats.acceptor_wakes,
            h.probes,
            s.batches,
        ] {
            fp.word(w);
        }
        round.fingerprint = fp;
        let l = &mut round.layer;
        l.insert("visa.insts_per_req", s.insts as f64 / n);
        l.insert("visa.blocks_built_per_req", s.blocks as f64 / n);
        l.insert("wasp.hypercalls_per_req", s.wasp.hypercalls as f64 / n);
        l.insert("wasp.warm_hits", s.warm.warm_hits as f64);
        l.insert("wasp.full_restores", s.warm.full_restores as f64);
        l.insert("wasp.cold_boots", s.warm.cold_boots as f64);
        l.insert("wasp.shells_created", s.pool.created as f64);
        l.insert("wasp.warm_demoted", s.pool.warm_demoted as f64);
        l.insert("wasp.suspensions", s.wasp.blocks as f64);
        l.insert("wasp.resumes", s.wasp.resumes as f64);
        l.insert(
            "wasp.delta_pages_per_hit",
            s.warm.delta_pages as f64 / (s.warm.warm_hits.max(1)) as f64,
        );
        l.insert("vsched.batches_per_req", s.batches as f64 / n);
        l.insert(
            "vsched.blocked_us_per_req",
            vclock::Cycles(s.blocked_cycles).as_micros() / n,
        );
        l.insert("vsched.steals", s.steals as f64);
        l.insert("vsched.migrations", s.migrations as f64);
        l.insert("vsched.declared", h.declared as f64);
        l.insert("vsched.restored", h.restored as f64);
        l.insert("vsched.false_positives", h.false_positives as f64);
        l.insert("vhttp.scrape_bytes", s.scrape_bytes as f64);
        l.insert("vhttp.rss_growth_b_per_req", s.rss_growth / n);
        l.insert("vhttp.redispatched", s.run.stats.redispatched as f64);
        l.insert(
            "vhttp.acceptor_wakes_per_req",
            s.run.stats.acceptor_wakes as f64 / n,
        );
        ShellOps::record(l, n, crate::http::shell_ops(&s.pool, &s.warm));
        Ok(round)
    }

    fn max_rps(&mut self, seed: u64, _rounds: &[Round]) -> Result<f64, String> {
        let mut off = Spans::new(false);
        let mut failure = None;
        let found = search::max_rate(SEARCH_BRACKET.0, SEARCH_BRACKET.1, SEARCH_STEP, |rate| {
            let reqs = requests(seed, SEARCH_INDEX, SEARCH_REQUESTS, rate);
            match serve(seed, &reqs, &mut off, None) {
                Ok(s) => limit_score(&s),
                Err(e) => {
                    failure.get_or_insert(e);
                    f64::INFINITY
                }
            }
        });
        if let Some(e) = failure {
            return Err(format!("rate search: {e}"));
        }
        Ok(found?.0)
    }

    fn probe_batch(&mut self, seed: u64) -> Result<(), String> {
        if self.probes.is_none() {
            self.probes = Some(Probes::new(seed)?);
        }
        self.probes.as_mut().expect("set above").batch()
    }

    fn stack(&mut self, rounds: &[Round], spans: &Spans) -> Result<Stack, String> {
        let n: u64 = rounds.iter().map(|r| r.requests).sum();
        let entry_us = [
            Kind::Offer,
            Kind::Advance,
            Kind::FailoverAdvance,
            Kind::Scrape,
            Kind::TraceDump,
            Kind::Finish,
        ]
        .iter()
        .map(|&k| spans.get(k).ns as f64)
        .sum::<f64>()
            / 1e3
            / n as f64;
        let p = self.probes.as_ref().ok_or("no probe batch ran")?;
        let [vsched, wasp_entry, visa] = p.tally.entries()[..] else {
            unreachable!("three probes")
        };
        stack::check_insts("vsched", vsched.insts, wasp_entry.insts)?;
        stack::check_insts("visa", visa.insts, wasp_entry.insts)?;
        let breakdown_us = p.bd.map(|x| x / p.runs.max(1) as f64);
        let snap = p.w.current_snapshot(p.id).ok_or("no snapshot")?;
        let delta = round_median(rounds, "wasp.delta_pages_per_hit") as usize;
        let kvm = stack::kvm_costs(&image(), MEM, &snap, delta, 500);
        let ops = ShellOps::from_rounds(rounds);
        Ok(Stack {
            entry_us,
            vsched: Some(vsched),
            wasp: wasp_entry,
            visa,
            kvm,
            kvm_us: kvm.per_request(&ops),
            kvm_probe_us: kvm.per_request(&ShellOps::of_wasp(&p.w, p.id, p.runs + 1)),
            breakdown_us,
            compile_ms: None,
        })
    }
}

/// The stacked probes' state, kept across batches: `Wasp::run` and the
/// function run natively. Each batch also runs a fresh bare node
/// dispatcher at one node's share of the load, all three on the same
/// seeded arguments.
struct Probes {
    seed: u64,
    /// Batches run so far; batch `k` runs probe request set `k`.
    batches: u64,
    w: Wasp,
    id: VirtineId,
    /// Summed virtual acquire, image, exec and release µs of `runs`
    /// `Wasp::run` calls.
    bd: [f64; 4],
    runs: usize,
    native: NativeProbe,
    tally: stack::Tally,
}

/// One batch's bare dispatcher and its requests.
struct Batch {
    d: vsched::Dispatcher,
    tenant: TenantId,
    did: VirtineId,
    reqs: Vec<Req>,
    args: Vec<Vec<u8>>,
}

/// A probe request set: the requests and each one's arguments as the
/// ingress hands them to a node (attribution line plus payload).
fn probe_set(seed: u64, set: u64) -> (Vec<Req>, Vec<Vec<u8>>) {
    let reqs = requests(seed, set, PROBE_BATCH, RATE_RPS);
    let args = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut a = vhttp::ingress::encode_proxy(r.tenant, i as u64 + 1);
            a.extend_from_slice(&r.payload);
            a
        })
        .collect();
    (reqs, args)
}

fn probe_dispatcher() -> Result<(vsched::Dispatcher, TenantId, VirtineId), String> {
    let mut d = vsched::Dispatcher::new(
        Wasp::new_kvm_default(),
        DispatcherConfig {
            shards: SHARDS_PER_NODE,
            ..DispatcherConfig::default()
        },
    );
    let did = d.register(spec()).map_err(|e| e.to_string())?;
    let t = d.add_tenant(TenantProfile::new("t0"));
    d.submit(vsched::Request::new(t, did, 0.0).with_args(b"warm-up".to_vec()))
        .map_err(|e| format!("{e:?}"))?;
    d.run_until(START_S);
    Ok((d, t, did))
}

impl Probes {
    fn new(seed: u64) -> Result<Probes, String> {
        let w = Wasp::new_kvm_default();
        let id = w.register(spec()).map_err(|e| e.to_string())?;
        let kernel = hostsim::HostKernel::new(vclock::Clock::new(), None);
        let mut p = Probes {
            seed,
            batches: 0,
            w,
            id,
            bd: [0.0; 4],
            runs: 0,
            native: NativeProbe::new(kernel, &image(), MEM, true)?,
            tally: stack::Tally::default(),
        };
        p.run(b"warm-up")?;
        p.bd = [0.0; 4];
        p.runs = 0;
        Ok(p)
    }

    /// One `Wasp::run` of the function.
    fn run(&mut self, args: &[u8]) -> Result<(), String> {
        let out = self
            .w
            .run(self.id, args, Invocation::default())
            .map_err(|e| e.to_string())?;
        if !out.exit.is_normal() {
            return Err(format!("function exit {:?}", out.exit));
        }
        let b = out.breakdown;
        for (slot, c) in self
            .bd
            .iter_mut()
            .zip([b.acquire, b.image, b.exec, b.release])
        {
            *slot += c.as_micros();
        }
        self.runs += 1;
        Ok(())
    }

    /// Unit `u` of probe `i`: the bare dispatcher, `Wasp::run`, or the
    /// native run.
    fn unit(&mut self, b: &mut Batch, i: usize, u: usize) -> Result<u64, String> {
        match i {
            0 => stack::timed(|| {
                let at = START_S + (b.reqs[u].arrival - START_S) * NODES as f64;
                let req = vsched::Request::new(b.tenant, b.did, at).with_args(b.args[u].clone());
                b.d.submit(req).map_err(|e| format!("probe shed: {e:?}"))?;
                b.d.run_until(at);
                if u + 1 == PROBE_BATCH {
                    b.d.run_to_idle();
                }
                Ok(())
            }),
            1 => stack::timed(|| self.run(&b.args[u])),
            _ => {
                self.native.reset(&b.args[u])?;
                stack::timed(|| match self.native.run(Invocation::default())?.0 {
                    wasp::NativeExit::Returned(_) => Ok(()),
                    e => Err(format!("native exit {e:?}")),
                })
            }
        }
    }

    /// `PROBE_BATCH` units of every probe, interleaved; then the
    /// dispatcher must have served every request.
    fn batch(&mut self) -> Result<(), String> {
        let (d, tenant, did) = probe_dispatcher()?;
        let (reqs, args) = probe_set(self.seed, self.batches);
        self.batches += 1;
        let mut b = Batch {
            d,
            tenant,
            did,
            reqs,
            args,
        };
        let mut tally = std::mem::take(&mut self.tally);
        let res = tally.run(0, PROBE_BATCH, 3, |i, u| self.unit(&mut b, i, u));
        self.tally = tally;
        res?;
        if b.d.stats().served != PROBE_BATCH as u64 + 1 {
            return Err("dispatcher probe lost requests".into());
        }
        Ok(())
    }
}

/// A search probe's score against the p99 limit
/// ([`search::limit_score`]).
fn limit_score(s: &Served) -> f64 {
    let lat: Vec<f64> = s.run.completions[TENANTS..]
        .iter()
        .map(|c| (c.finish - c.arrival) * 1e6)
        .collect();
    search::limit_score(&lat, P99_LIMIT_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_hangs_reproduce() {
        let a = requests(9, 0, 300, RATE_RPS);
        let b = requests(9, 0, 300, RATE_RPS);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.iter().all(|r| (8..=64).contains(&r.payload.len())));
        let h = hangs(0.1);
        assert_eq!(h.len(), 4);
        assert!(h
            .windows(2)
            .all(|w| (w[1] - w[0] - HANG_EVERY_S).abs() < 1e-12));
    }
}
