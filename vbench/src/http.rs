//! `http_multitenant`: the §6.3 / Figure 13 static server through
//! `vhttp::dispatch::DispatchedServer` on 4 shards, three tenants with
//! open-loop Poisson arrivals, one client in ten trickling its request,
//! and `/metrics` scraped at a fixed virtual interval.

use std::rc::Rc;

use hostsim::HostKernel;
use kvmsim::Hypervisor;
use vclock::Clock;
use vhttp::dispatch::{http_tenant, DispatchedServer};
use vsched::{Completion, Dispatcher, DispatcherConfig, Placement, Request, TenantId};
use wasp::{Invocation, VirtineSpec, Wasp, WaspConfig};

use crate::engine::{default_engine, PlacementTally, TimedEngine};
use crate::gen::{self, Fingerprint};
use crate::probe::CpuTimer;
use crate::probe::{self, Kind, Spans};
use crate::report::Stack;
use crate::search;
use crate::stack::{self, KvmCosts, NativeProbe, ShellOps};
use crate::{Round, Workload};

const SHARDS: usize = 4;
const FILE_SIZE: usize = 4096;
const TENANTS: usize = 3;
/// Offered load, all tenants together.
const RATE_RPS: f64 = 20_000.0;
/// Timed requests per round.
const REQUESTS: usize = 2_000;
const DISTINCT: usize = 24;
const TRICKLE_P: f64 = 0.1;
const TRICKLE_CHUNKS: usize = 4;
/// A trickled client spreads its chunks over this many virtual seconds.
const SPREAD_S: (f64, f64) = (50e-6, 250e-6);
const SCRAPE_EVERY_S: f64 = 0.010;
/// Warm-up: one request per tenant, this far apart, before the timed
/// phase starts at `START_S`.
const WARMUP_GAP_S: f64 = 0.000_2;
const START_S: f64 = 0.002;
/// Virtual slack after the last arrival for every response to land.
const DRAIN_S: f64 = 0.1;
/// The latency limit `virt_max_rps` holds `virt_p99_us` under.
const P99_LIMIT_US: f64 = 1500.0;
/// Requests per rate-search probe, and its bracket.
const SEARCH_REQUESTS: usize = 16_000;
const SEARCH_BRACKET: (f64, f64) = (95_000.0, 150_000.0);
const SEARCH_STEP: f64 = 0.06;
/// Probe units per batch (one batch follows every traced round).
const PROBE_BATCH: usize = 100;

const PURPOSE: u64 = 0x4854_5450;
const SEARCH_INDEX: u64 = 1 << 32;
const PATH: &str = "/www/index.html";

#[derive(Debug, Clone, Copy)]
struct Req {
    tenant: usize,
    arrival: f64,
    chunks: usize,
    spread: f64,
}

fn requests(seed: u64, index: u64, n: usize, rate: f64) -> Vec<Req> {
    let mut rng = gen::stream(seed, PURPOSE, index);
    let arrivals = gen::poisson_arrivals(&mut rng, n, rate, START_S);
    arrivals
        .into_iter()
        .map(|arrival| {
            let tenant = rng.below(TENANTS);
            let slow = rng.bool(TRICKLE_P);
            let spread = rng.range_f64(SPREAD_S.0, SPREAD_S.1);
            Req {
                tenant,
                arrival,
                chunks: if slow { TRICKLE_CHUNKS } else { 1 },
                spread: if slow { spread } else { 0.0 },
            }
        })
        .collect()
}

/// The file the server's handler serves (the same bytes
/// `DispatchedServer` installs).
fn file_body() -> Vec<u8> {
    (0..FILE_SIZE).map(|i| b'a' + (i % 23) as u8).collect()
}

/// The value of the series `series` (name plus labels) in a Prometheus
/// text body.
pub fn series_value(text: &str, series: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

fn check_status_200(resp: &[u8], what: &str) -> Result<(), String> {
    match vhttp::response_status(resp) {
        Some(200) => Ok(()),
        s => Err(format!("{what}: status {s:?}")),
    }
}

/// One served round.
struct Served {
    setup_s: f64,
    timed_s: f64,
    timed_wall_s: f64,
    /// Timed requests' completions, in request order.
    completions: Vec<Completion>,
    stats: vsched::DispatcherStats,
    pool: wasp::PoolStats,
    wasp: wasp::WaspStats,
    warm: wasp::VirtineWarmStats,
    insts: u64,
    blocks: u64,
    scrape_bytes: usize,
    rss_growth: f64,
}

/// Advances to `at`, scrapes `/metrics`, and checks its submitted count
/// against the benchmark's own tally. Returns the scrape's size.
fn scrape(
    server: &mut DispatchedServer,
    spans: &mut Spans,
    at: f64,
    submitted: u64,
) -> Result<usize, String> {
    spans.time(Kind::Advance, || server.run_until(at));
    let body = spans.time(Kind::Scrape, || server.fetch_metrics());
    check_status_200(&body, "/metrics")?;
    let text = String::from_utf8_lossy(&body);
    let got = series_value(&text, "vsched_requests_total{outcome=\"submitted\"}");
    if got != Some(submitted) {
        return Err(format!(
            "/metrics submitted {got:?}, benchmark offered {submitted}"
        ));
    }
    Ok(body.len())
}

fn serve(
    reqs: &[Req],
    spans: &mut Spans,
    tally: Option<&Rc<PlacementTally>>,
) -> Result<Served, String> {
    let t_setup = CpuTimer::start();
    let mut server = DispatchedServer::new(SHARDS, FILE_SIZE);
    let tenants: Vec<TenantId> = (0..TENANTS)
        .map(|i| server.add_tenant(http_tenant(format!("t{i}"))))
        .collect();
    if let Some(tally) = tally {
        let engine = default_engine(server.dispatcher().config());
        server
            .dispatcher_mut()
            .set_engine(Box::new(TimedEngine::new(engine, tally.clone())));
    }
    // Warm-up: each tenant's first request boots the handler and takes
    // the snapshot.
    for (i, &t) in tenants.iter().enumerate() {
        server
            .offer(t, i as f64 * WARMUP_GAP_S)
            .map_err(|r| format!("warm-up shed: {r:?}"))?;
    }
    server.run_until(START_S);
    let warm = TENANTS as u64;
    if server.dispatcher().completions().len() != TENANTS {
        return Err("warm-up requests did not complete before the timed phase".into());
    }
    let setup_s = t_setup.elapsed_s();

    let rss0 = probe::rss_bytes().unwrap_or(0) as f64;
    let i0 = probe::insts_retired();
    let b0 = probe::blocks_built();
    let t0 = CpuTimer::start();
    let mut offered = [1u64; TENANTS];
    let mut next_scrape = START_S + SCRAPE_EVERY_S;
    let mut scrape_bytes = 0;
    let mut submitted = warm;
    for r in reqs {
        while next_scrape <= r.arrival {
            scrape_bytes = scrape(&mut server, spans, next_scrape, submitted)?;
            next_scrape += SCRAPE_EVERY_S;
        }
        let t = tenants[r.tenant];
        let res = spans.time(Kind::Offer, || {
            if r.chunks == 1 {
                server.offer(t, r.arrival)
            } else {
                server.offer_trickled(t, r.arrival, r.chunks, r.spread)
            }
        });
        res.map_err(|reason| format!("request at {:.6}s shed: {reason:?}", r.arrival))?;
        offered[r.tenant] += 1;
        submitted += 1;
    }
    // Scrapes go on at their cadence through the drain window.
    let end = reqs.last().map_or(START_S, |r| r.arrival) + DRAIN_S;
    while next_scrape <= end {
        scrape_bytes = scrape(&mut server, spans, next_scrape, submitted)?;
        next_scrape += SCRAPE_EVERY_S;
    }
    let body = spans.time(Kind::Scrape, || server.fetch_metrics());
    let text = String::from_utf8_lossy(&body);
    for (i, &n) in offered.iter().enumerate() {
        let got = series_value(
            &text,
            &format!("vsched_tenant_served_total{{tenant=\"t{i}\"}}"),
        );
        if got != Some(n) {
            return Err(format!(
                "/metrics tenant t{i} served {got:?}, benchmark offered {n}"
            ));
        }
    }
    let all = server.dispatcher().completions().to_vec();
    if all.len() as u64 != submitted {
        return Err(format!("{} of {submitted} requests completed", all.len()));
    }
    let d = server.dispatcher();
    let (stats, pool, wasp_stats) = (d.stats(), d.pool_stats(), d.wasp().stats());
    let warm_stats = d
        .wasp()
        .virtine_warm_stats(wasp::VirtineId::from_raw(0))
        .ok_or("handler virtine missing")?;
    // `finish` reads every response and panics on any status but 200.
    let run = spans.time(Kind::Finish, || server.finish());
    let (timed_s, timed_wall_s) = t0.elapsed_both();
    let insts = probe::insts_retired() - i0;
    let blocks = probe::blocks_built() - b0;
    let rss_growth = probe::rss_bytes().unwrap_or(0) as f64 - rss0;

    if run.shed_by_tenant.iter().any(|&s| s != 0) {
        return Err(format!("shed {:?}", run.shed_by_tenant));
    }
    if run.served_by_tenant != offered {
        return Err(format!(
            "served {:?}, offered {offered:?}",
            run.served_by_tenant
        ));
    }
    // Map completions to requests by logical sequence number: warm-ups
    // took 0..TENANTS, timed requests follow in offer order.
    let mut by_seq: Vec<Option<Completion>> = vec![None; submitted as usize];
    for c in all {
        let slot = by_seq
            .get_mut(c.seq as usize)
            .ok_or_else(|| format!("unexpected sequence number {}", c.seq))?;
        if slot.is_some() {
            return Err(format!("sequence number {} completed twice", c.seq));
        }
        if !c.exit_normal {
            return Err(format!("request {} exited abnormally", c.seq));
        }
        *slot = Some(c);
    }
    let completions: Vec<Completion> = by_seq
        .into_iter()
        .skip(TENANTS)
        .collect::<Option<_>>()
        .ok_or("a sequence number never completed")?;
    for (c, r) in completions.iter().zip(reqs) {
        if c.tenant != tenants[r.tenant] || (c.arrival - r.arrival).abs() > 1e-8 {
            return Err(format!("completion {} does not match its request", c.seq));
        }
    }
    Ok(Served {
        setup_s,
        timed_s,
        timed_wall_s,
        completions,
        stats,
        pool,
        wasp: wasp_stats,
        warm: warm_stats,
        insts,
        blocks,
        scrape_bytes,
        rss_growth,
    })
}

/// Virtual latency from the request's last byte (a trickled client's own
/// spread is excluded).
fn latency_us(c: &Completion, r: &Req) -> f64 {
    (c.finish - (c.arrival + r.spread)) * 1e6
}

#[derive(Default)]
pub struct Http {
    probes: Option<Probes>,
}

/// The stacked probes' state, kept across batches: `Wasp::run` with and
/// without warm caching, and the handler run natively. Each batch also
/// runs a fresh bare dispatcher on a request set of its own.
struct Probes {
    seed: u64,
    handler: vcc::CompiledVirtine,
    compile_ms: f64,
    spec: VirtineSpec,
    /// Batches run so far; batch `k` offers the dispatcher request set
    /// `k`.
    batches: u64,
    warm: WaspProbe,
    full: WaspProbe,
    native: NativeProbe,
    kernel: HostKernel,
    body: Vec<u8>,
    line: Vec<u8>,
    tally: stack::Tally,
}

impl Probes {
    fn new(seed: u64) -> Result<Probes, String> {
        let t_compile = CpuTimer::start();
        let handler = vhttp::server::compile_handler(true);
        let compile_ms = t_compile.elapsed_s() * 1e3;
        let spec = VirtineSpec::new("serve", handler.image.clone(), handler.mem_size)
            .with_policy(vhttp::server::handler_policy())
            .with_snapshot(true);
        let native = NativeProbe::new(file_kernel(), &handler.image, handler.mem_size, true)?;
        Ok(Probes {
            seed,
            batches: 0,
            warm: WaspProbe::new(&spec, true)?,
            full: WaspProbe::new(&spec, false)?,
            kernel: native.kernel().clone(),
            native,
            body: file_body(),
            line: request_line(),
            handler,
            compile_ms,
            spec,
            tally: stack::Tally::default(),
        })
    }

    /// `PROBE_BATCH` units of every probe, interleaved; then every
    /// dispatcher client's response is checked. The dispatcher's set is
    /// small so that its clients' connections, which stay open until the
    /// check, do not pile up beyond what the server itself keeps open.
    fn batch(&mut self) -> Result<(), String> {
        let reqs = requests(self.seed, self.batches, PROBE_BATCH, RATE_RPS);
        self.batches += 1;
        let mut dispatcher = DispatcherProbe::new(&reqs, &self.spec)?;
        let Probes {
            warm,
            full,
            native,
            kernel,
            body,
            line,
            tally,
            ..
        } = self;
        let mut guest = |_: usize| {
            native.reset(&[])?;
            stack::timed(|| {
                let (client, conn) = connect(kernel, line)?;
                match native.run(Invocation::with_conn(conn))?.0 {
                    wasp::NativeExit::Exited(0) | wasp::NativeExit::Returned(_) => {}
                    e => return Err(format!("native handler exit {e:?}")),
                }
                kernel.net_close(conn).ok();
                check_response(kernel, client, body)
            })
        };
        tally.run(0, PROBE_BATCH, 4, |i, u| match i {
            0 => dispatcher.unit(u),
            1 => warm.unit(),
            2 => full.unit(),
            _ => guest(u),
        })?;
        dispatcher.finish()
    }
}

impl Workload for Http {
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
        let s = serve(&reqs, spans, tally)?;
        let n = s.completions.len() as f64;
        let mut fp = Fingerprint::default();
        let mut round = Round {
            setup_s: s.setup_s,
            timed_s: s.timed_s,
            timed_wall_s: s.timed_wall_s,
            requests: s.completions.len() as u64,
            ..Round::default()
        };
        for (c, r) in s.completions.iter().zip(&reqs) {
            let lat = latency_us(c, r);
            fp.f64(lat);
            fp.f64(c.service);
            fp.word(c.shard as u64);
            round.latencies_us.push(lat);
            round.queue_wait_us.push((c.start - c.arrival) * 1e6);
            round.cpu_us += c.service * 1e6;
        }
        for w in [
            s.stats.served,
            s.stats.warm_hits,
            s.stats.batches,
            s.stats.stolen,
            s.stats.migrations,
            s.pool.created,
            s.wasp.hypercalls,
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
        l.insert(
            "wasp.warm_demoted",
            (s.pool.warm_demoted + s.stats.warm_demotions) as f64,
        );
        l.insert("wasp.suspensions", s.wasp.blocks as f64);
        l.insert("wasp.resumes", s.wasp.resumes as f64);
        l.insert(
            "wasp.delta_pages_per_hit",
            if s.warm.warm_hits > 0 {
                s.warm.delta_pages as f64 / s.warm.warm_hits as f64
            } else {
                0.0
            },
        );
        l.insert("vsched.batches_per_req", s.stats.batches as f64 / n);
        l.insert(
            "vsched.blocked_us_per_req",
            vclock::Cycles(s.stats.blocked_cycles).as_micros() / n,
        );
        l.insert("vsched.steals", s.stats.stolen as f64);
        l.insert("vsched.migrations", s.stats.migrations as f64);
        l.insert("vhttp.scrape_bytes", s.scrape_bytes as f64);
        l.insert("vhttp.rss_growth_b_per_req", s.rss_growth / n);
        // Shell operations per request, for the kvmsim weighting.
        ShellOps::record(l, n, shell_ops(&s.pool, &s.warm));
        Ok(round)
    }

    fn max_rps(&mut self, seed: u64, _rounds: &[Round]) -> Result<f64, String> {
        let mut off = Spans::new(false);
        let mut failure = None;
        let found = search::max_rate(SEARCH_BRACKET.0, SEARCH_BRACKET.1, SEARCH_STEP, |rate| {
            let reqs = requests(seed, SEARCH_INDEX, SEARCH_REQUESTS, rate);
            match serve(&reqs, &mut off, None) {
                Ok(s) => limit_score(&s, &reqs),
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
        let entry_us = [Kind::Offer, Kind::Advance, Kind::Scrape, Kind::Finish]
            .iter()
            .map(|&k| spans.get(k).ns as f64)
            .sum::<f64>()
            / 1e3
            / n as f64;
        let p = self.probes.as_ref().ok_or("no probe batch ran")?;
        let [vsched, warm_e, full_e, visa] = p.tally.entries()[..] else {
            unreachable!("four probes")
        };
        // Wasp::run sees only its own single-tenant pool, so the probe
        // runs each unit with warm caching (a delta re-arm) and without
        // (a full restore), weighted by the workload's own warm-hit share.
        let ops = ShellOps::from_rounds(rounds);
        let hit = ops.warm_hits / (ops.warm_hits + ops.full_restores).max(f64::MIN_POSITIVE);
        let mix = |a: f64, b: f64| hit * a + (1.0 - hit) * b;
        let wasp_entry = stack::Entry {
            us: mix(warm_e.us, full_e.us),
            insts: mix(warm_e.insts, full_e.insts),
        };
        let breakdown_us = [0, 1, 2, 3].map(|i| mix(p.warm.breakdown(i), p.full.breakdown(i)));
        stack::check_insts("vsched", vsched.insts, wasp_entry.insts)?;
        stack::check_insts("visa", visa.insts, wasp_entry.insts)?;
        let (handler, compile_ms) = (&p.handler, p.compile_ms);
        let snap = p.warm.snapshot()?;
        let delta = crate::report::round_median(rounds, "wasp.delta_pages_per_hit") as usize;
        let kvm: KvmCosts = stack::kvm_costs(&handler.image, handler.mem_size, &snap, delta, 200);
        Ok(Stack {
            entry_us,
            vsched: Some(vsched),
            wasp: wasp_entry,
            visa,
            kvm,
            kvm_us: kvm.per_request(&ops),
            kvm_probe_us: mix(
                kvm.per_request(&ShellOps::of_wasp(&p.warm.w, p.warm.id, p.warm.units + 1)),
                kvm.per_request(&ShellOps::of_wasp(&p.full.w, p.full.id, p.full.units + 1)),
            ),
            breakdown_us,
            compile_ms: Some(compile_ms),
        })
    }
}

/// A round's shell operations, from the pool and warm-path counters.
pub fn shell_ops(pool: &wasp::PoolStats, warm: &wasp::VirtineWarmStats) -> ShellOps {
    ShellOps {
        created: pool.created as f64,
        cold_boots: warm.cold_boots as f64,
        full_restores: warm.full_restores as f64,
        warm_hits: warm.warm_hits as f64,
        wipes: pool.released.saturating_sub(pool.warm_parked) as f64,
    }
}

/// A search probe's score against the p99 limit
/// ([`search::limit_score`]).
fn limit_score(s: &Served, reqs: &[Req]) -> f64 {
    let lat: Vec<f64> = s
        .completions
        .iter()
        .zip(reqs)
        .map(|(c, r)| latency_us(c, r))
        .collect();
    search::limit_score(&lat, P99_LIMIT_US)
}

/// A host kernel serving the benchmark's file on the handler's port.
fn file_kernel() -> HostKernel {
    let kernel = HostKernel::new(Clock::new(), None);
    kernel.fs_add_file(PATH, file_body());
    kernel.net_listen(80).expect("listen");
    kernel
}

fn request_line() -> Vec<u8> {
    format!("GET {PATH} HTTP/1.0\r\n\r\n").into_bytes()
}

/// Reads a response and checks status and body against the file.
fn check_response(kernel: &HostKernel, client: hostsim::SockId, body: &[u8]) -> Result<(), String> {
    let resp = kernel
        .net_recv(client, FILE_SIZE + 512)
        .map_err(|e| format!("recv: {e:?}"))?
        .ok_or("no response")?;
    check_status_200(&resp, "response")?;
    if vhttp::response_body(&resp) != Some(body) {
        return Err("response body differs from the served file".into());
    }
    kernel.net_close(client).ok();
    Ok(())
}

/// A client connection to the handler's port, accepted: the client end
/// and the server end.
fn connect(
    kernel: &HostKernel,
    first: &[u8],
) -> Result<(hostsim::SockId, hostsim::SockId), String> {
    let client = kernel.net_connect(80).map_err(|e| format!("{e:?}"))?;
    kernel
        .net_send(client, first)
        .map_err(|e| format!("{e:?}"))?;
    let server = kernel
        .net_accept(80)
        .map_err(|e| format!("{e:?}"))?
        .ok_or("no pending connection")?;
    Ok((client, server))
}

/// The same requests through a bare dispatcher: trickled chunks are
/// delivered by the probe itself, scrapes are left out.
struct DispatcherProbe {
    kernel: HostKernel,
    d: Dispatcher,
    id: wasp::VirtineId,
    tenants: Vec<TenantId>,
    reqs: Vec<Req>,
    line: Vec<u8>,
    clients: Vec<hostsim::SockId>,
    /// Pending chunk deliveries: (time, client, bytes), delivered in
    /// order.
    chunks: Vec<(f64, hostsim::SockId, Vec<u8>)>,
}

impl DispatcherProbe {
    fn new(reqs: &[Req], spec: &VirtineSpec) -> Result<DispatcherProbe, String> {
        let kernel = file_kernel();
        let wasp = Wasp::new(Hypervisor::kvm(kernel.clone()), WaspConfig::default());
        let mut d = Dispatcher::new(
            wasp,
            DispatcherConfig {
                shards: SHARDS,
                placement: Placement::SnapshotAware,
                ..DispatcherConfig::default()
            },
        );
        let id = d.register(spec.clone()).map_err(|e| e.to_string())?;
        let tenants: Vec<TenantId> = (0..TENANTS)
            .map(|i| d.add_tenant(http_tenant(format!("t{i}"))))
            .collect();
        let mut p = DispatcherProbe {
            kernel,
            d,
            id,
            tenants,
            reqs: reqs.to_vec(),
            line: request_line(),
            clients: Vec::new(),
            chunks: Vec::new(),
        };
        for i in 0..TENANTS {
            let line = p.line.clone();
            p.submit(p.tenants[i], i as f64 * WARMUP_GAP_S, &line)?;
        }
        p.d.run_until(START_S);
        Ok(p)
    }

    fn submit(
        &mut self,
        tenant: TenantId,
        at: f64,
        first: &[u8],
    ) -> Result<hostsim::SockId, String> {
        let (client, server) = connect(&self.kernel, first)?;
        self.d
            .submit(
                Request::new(tenant, self.id, at).with_invocation(Invocation::with_conn(server)),
            )
            .map_err(|r| format!("shed: {r:?}"))?;
        self.clients.push(client);
        Ok(client)
    }

    /// Request `u`: its due chunk deliveries, its first chunk, and, after
    /// the last request, the drain.
    fn unit(&mut self, u: usize) -> Result<u64, String> {
        stack::timed(|| {
            let r = self.reqs[u];
            self.chunks.sort_by(|a, b| b.0.total_cmp(&a.0));
            while self.chunks.last().is_some_and(|c| c.0 <= r.arrival) {
                let (at, sock, bytes) = self.chunks.pop().expect("checked");
                self.d.run_until(at);
                let _ = self.kernel.net_send(sock, &bytes);
            }
            let piece = self.line.len().div_ceil(r.chunks);
            let parts: Vec<Vec<u8>> = self.line.chunks(piece).map(<[u8]>::to_vec).collect();
            let client = self.submit(self.tenants[r.tenant], r.arrival, &parts[0])?;
            let step = if parts.len() > 1 {
                r.spread / (parts.len() - 1) as f64
            } else {
                0.0
            };
            for (i, p) in parts.into_iter().enumerate().skip(1) {
                self.chunks.push((r.arrival + i as f64 * step, client, p));
            }
            if u + 1 == self.reqs.len() {
                self.chunks.sort_by(|a, b| a.0.total_cmp(&b.0));
                for (at, sock, bytes) in std::mem::take(&mut self.chunks) {
                    self.d.run_until(at);
                    let _ = self.kernel.net_send(sock, &bytes);
                }
                self.d.run_until(r.arrival + DRAIN_S);
                // A parked handler whose last chunk came in an idle
                // stretch wakes only at the dispatcher's next call.
                self.d.run_to_idle();
            }
            Ok(())
        })
    }

    /// Every client, warm-up ones included, got the file.
    fn finish(&self) -> Result<(), String> {
        let body = file_body();
        for (i, &c) in self.clients.iter().enumerate() {
            check_response(&self.kernel, c, &body)
                .map_err(|e| format!("dispatcher probe client {i}: {e}"))?;
        }
        Ok(())
    }
}

/// `Wasp::run` on the handler, one connection at a time, with or
/// without warm caching.
struct WaspProbe {
    kernel: HostKernel,
    w: Wasp,
    id: wasp::VirtineId,
    line: Vec<u8>,
    body: Vec<u8>,
    /// Summed virtual acquire, image, exec and release µs, and units.
    bd: [f64; 4],
    units: usize,
}

impl WaspProbe {
    fn new(spec: &VirtineSpec, warm: bool) -> Result<WaspProbe, String> {
        let kernel = file_kernel();
        let config = WaspConfig {
            warm_capacity: if warm { wasp::DEFAULT_WARM_CAPACITY } else { 0 },
            ..WaspConfig::default()
        };
        let w = Wasp::new(Hypervisor::kvm(kernel.clone()), config);
        let id = w.register(spec.clone()).map_err(|e| e.to_string())?;
        let mut p = WaspProbe {
            kernel,
            w,
            id,
            line: request_line(),
            body: file_body(),
            bd: [0.0; 4],
            units: 0,
        };
        p.run()?; // boot and snapshot
        p.bd = [0.0; 4];
        p.units = 0;
        Ok(p)
    }

    fn run(&mut self) -> Result<(), String> {
        let (client, conn) = connect(&self.kernel, &self.line)?;
        let out = self
            .w
            .run(self.id, &[], Invocation::with_conn(conn))
            .map_err(|e| e.to_string())?;
        if !matches!(out.exit, wasp::ExitKind::Exited(0)) {
            return Err(format!("handler exit {:?}", out.exit));
        }
        let b = out.breakdown;
        for (slot, c) in self
            .bd
            .iter_mut()
            .zip([b.acquire, b.image, b.exec, b.release])
        {
            *slot += c.as_micros();
        }
        self.units += 1;
        self.kernel.net_close(conn).ok();
        check_response(&self.kernel, client, &self.body)
    }

    fn unit(&mut self) -> Result<u64, String> {
        stack::timed(|| self.run())
    }

    /// Mean virtual µs of breakdown part `i` per unit.
    fn breakdown(&self, i: usize) -> f64 {
        self.bd[i] / self.units.max(1) as f64
    }

    fn snapshot(&self) -> Result<kvmsim::VmSnapshot, String> {
        let snap = self
            .w
            .current_snapshot(self.id)
            .ok_or("handler has no snapshot")?;
        Ok((*snap).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_reproduce_from_the_seed() {
        let a = requests(5, 0, 500, RATE_RPS);
        let b = requests(5, 0, 500, RATE_RPS);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let slow = a.iter().filter(|r| r.chunks > 1).count();
        assert!((20..=80).contains(&slow), "{slow} trickled of 500");
        assert!(a.iter().all(|r| r.arrival > START_S));
    }

    #[test]
    fn timed_engine_makes_the_same_placements() {
        let reqs = requests(11, 0, 300, RATE_RPS);
        let mut spans = Spans::new(false);
        let plain = serve(&reqs, &mut spans, None).expect("untimed run");
        let tally = Rc::new(PlacementTally::default());
        let timed = serve(&reqs, &mut spans, Some(&tally)).expect("timed run");
        assert!(tally.calls.get() > 0, "the wrapper saw no placement calls");
        let key = |s: &Served| -> Vec<(u64, usize, u64, bool)> {
            s.completions
                .iter()
                .map(|c| (c.seq, c.shard, c.finish.to_bits(), c.warm_hit))
                .collect()
        };
        assert_eq!(key(&plain), key(&timed));
        assert_eq!(plain.stats.stolen, timed.stats.stolen);
        assert_eq!(plain.stats.warm_hits, timed.stats.warm_hits);
    }

    #[test]
    fn series_value_reads_exact_series() {
        let text = "# HELP x y\nvsched_tenant_served_total{tenant=\"t1\"} 12\n\
                    vsched_tenant_served_total{tenant=\"t10\"} 99\n";
        assert_eq!(
            series_value(text, "vsched_tenant_served_total{tenant=\"t1\"}"),
            Some(12)
        );
        assert_eq!(
            series_value(text, "vsched_tenant_served_total{tenant=\"t2\"}"),
            None
        );
    }
}
