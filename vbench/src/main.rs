//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path vbench/Cargo.toml -- \
//!     --workload <http_multitenant|edge_failover|fn_direct> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this single-threaded process for about
//! `--seconds` of host time, in whole rounds, checks every output, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed check
//! exits non-zero without a result. See `vbench/README.md`.

mod direct;
mod edge;
mod engine;
mod gen;
mod http;
mod probe;
mod report;
mod search;
mod stack;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use engine::PlacementTally;
use gen::Fingerprint;
use probe::Spans;

/// What one round of a workload hands back.
#[derive(Debug, Default)]
pub struct Round {
    /// The input set the round ran.
    pub set: usize,
    /// Host seconds of set-up: compile, build, register, warm-up runs.
    pub setup_s: f64,
    /// Host seconds of the timed phase, on the thread CPU clock.
    pub timed_s: f64,
    /// The same on the wall clock, for the per-layer accounting.
    pub timed_wall_s: f64,
    /// Requests completed in the timed phase.
    pub requests: u64,
    /// Virtual end-to-end latency of each timed request, µs.
    pub latencies_us: Vec<f64>,
    /// Virtual queue wait of each timed request, µs.
    pub queue_wait_us: Vec<f64>,
    /// Modelled worker µs summed over the timed requests.
    pub cpu_us: f64,
    /// Virtual seconds the timed phase spanned (closed loop only).
    pub virt_span_s: f64,
    /// Hash of every virtual result of the round.
    pub fingerprint: Fingerprint,
    /// Per-layer counts and host readings of the round.
    pub layer: BTreeMap<&'static str, f64>,
}

/// A workload: rounds of seeded requests, the rate search, and the
/// stacked layer probes.
pub trait Workload {
    /// Distinct input sets a run cycles through; rounds past these
    /// repeat an earlier set and must reproduce it bit for bit.
    fn distinct_rounds(&self) -> usize;

    /// Runs round `index` of `seed`: a fresh system, set up, then the
    /// timed traffic.
    fn round(
        &mut self,
        seed: u64,
        index: u64,
        spans: &mut Spans,
        tally: Option<&Rc<PlacementTally>>,
    ) -> Result<Round, String>;

    /// The highest offered virtual rate meeting the workload's limit.
    fn max_rps(&mut self, seed: u64, rounds: &[Round]) -> Result<f64, String>;

    /// Runs one batch of the stacked probes on the inputs of the traced
    /// round just run. Batches follow every traced round, so the probes
    /// and the traced rounds see the same phases of the host.
    fn probe_batch(&mut self, seed: u64) -> Result<(), String>;

    /// The stacked probes' entry points, given the traced rounds.
    fn stack(&mut self, rounds: &[Round], spans: &Spans) -> Result<report::Stack, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str) -> Result<Box<dyn Workload>, String> {
    match name {
        "http_multitenant" => Ok(Box::new(http::Http::default())),
        "edge_failover" => Ok(Box::new(edge::Edge::default())),
        "fn_direct" => Ok(Box::new(direct::Direct::default())),
        _ => Err(format!(
            "unknown workload {name} (http_multitenant, edge_failover, fn_direct)"
        )),
    }
}

/// Rounds of one run: untraced, traced, and the process's peak resident
/// bytes once every input set had run.
struct Rounds {
    plain: Vec<Round>,
    traced: Vec<Round>,
    peak_rss: u64,
}

/// Runs whole rounds until `seconds` have passed and every distinct
/// input set ran once. With `alternate`, rounds alternate untraced and
/// traced over each input set, and each traced round must reproduce its
/// untraced twin bit for bit.
fn run_rounds(
    w: &mut dyn Workload,
    a: &Args,
    spans: &mut Spans,
    tally: Option<&Rc<PlacementTally>>,
    alternate: bool,
) -> Result<Rounds, String> {
    let k = w.distinct_rounds();
    let per_set = if alternate { 2 } else { 1 };
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut fps: Vec<Fingerprint> = Vec::new();
    let mut r = 0usize;
    let mut peak_rss = 0;
    loop {
        let index = (r / per_set) % k;
        let tracing = alternate && r % per_set == 1;
        spans.set_enabled(tracing);
        let mut round = w.round(a.seed, index as u64, spans, tally.filter(|_| tracing))?;
        round.set = index;
        if index < fps.len() {
            if fps[index] != round.fingerprint {
                return Err(format!(
                    "round {r} (input set {index}) did not reproduce its virtual results bit for bit{}",
                    if tracing { " under tracing" } else { "" }
                ));
            }
        } else {
            fps.push(round.fingerprint);
        }
        if tracing {
            spans.set_enabled(false);
            w.probe_batch(a.seed)?;
            traced.push(round);
        } else {
            plain.push(round);
        }
        r += 1;
        // Peak memory is read once every input set has run: later
        // repeats only add the allocator's creep, which grows with how
        // many rounds the host is fast enough to fit in the run.
        if r == k * per_set {
            peak_rss = probe::peak_rss_bytes().unwrap_or(0);
        }
        if r >= k * per_set
            && r.is_multiple_of(per_set)
            && start.elapsed().as_secs_f64() >= a.seconds
        {
            break;
        }
    }
    spans.set_enabled(false);
    Ok(Rounds {
        plain,
        traced,
        peak_rss,
    })
}

fn run(a: &Args) -> Result<report::Output, String> {
    let mut w = workload(&a.workload)?;
    let k = w.distinct_rounds();
    let mut spans = Spans::new(false);
    if !a.trace {
        let rounds = run_rounds(w.as_mut(), a, &mut spans, None, false)?;
        let max_rps = w.max_rps(a.seed, &rounds.plain[..k])?;
        return Ok(report::end_to_end(
            &rounds.plain,
            k,
            max_rps,
            rounds.peak_rss,
        ));
    }
    let tally = Rc::new(PlacementTally::default());
    let Rounds { plain, traced, .. } = run_rounds(w.as_mut(), a, &mut spans, Some(&tally), true)?;
    let stack = w.stack(&traced, &spans)?;
    let out = report::per_layer(&plain, &traced, &spans, &tally, &stack);
    let path = std::path::Path::new("vbench/out").join(format!("spans-{}.tsv", a.workload));
    spans
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|out| out.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
