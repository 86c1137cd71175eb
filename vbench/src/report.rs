//! Metric assembly and the one-line JSON result.

use std::fmt::Write as _;

use crate::engine::PlacementTally;
use crate::probe::{Kind, Spans};
use crate::stack::{Entry, KvmCosts};
use crate::stats::{median, percentile};
use crate::Round;

/// The run's result line.
#[derive(Debug)]
pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    /// The result line, or an error naming the first metric that is not
    /// a finite number: such a value is a failed measurement, and JSON
    /// cannot carry it.
    pub fn to_json(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// Per-request host µs at each entry point of the layer stack, from the
/// workload's stacked probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stack {
    /// Host µs per request inside the workload's calls into its top
    /// layer (`vhttp` for the serving workloads, `wasp` for `fn_direct`).
    pub entry_us: f64,
    /// Bare dispatcher probe (serving workloads only).
    pub vsched: Option<Entry>,
    /// `Wasp::run` probe (for `fn_direct`, the workload itself).
    pub wasp: Entry,
    /// `NativeProbe`: guest code and host syscalls, no VM.
    pub visa: Entry,
    /// Bare `kvmsim` call prices.
    pub kvm: KvmCosts,
    /// Host µs of `kvmsim` work per request for the workload's call mix.
    pub kvm_us: f64,
    /// The same for the `wasp` probe's own call mix, which the `wasp`
    /// self time subtracts.
    pub kvm_probe_us: f64,
    /// Virtual acquire, image, exec and release µs per request.
    pub breakdown_us: [f64; 4],
    /// Host ms to compile the workload's `vcc` virtine, when the probes
    /// time it rather than the rounds.
    pub compile_ms: Option<f64>,
}

fn requests(rounds: &[Round]) -> u64 {
    rounds.iter().map(|r| r.requests).sum()
}

/// The end-to-end metrics of an untraced run; virtual ones pool the
/// first `k` rounds, whose input sets are distinct. `peak_rss` is the
/// process's peak resident bytes after those rounds.
pub fn end_to_end(rounds: &[Round], k: usize, max_rps: f64, peak_rss: u64) -> Output {
    let distinct = &rounds[..k];
    let lat: Vec<f64> = distinct
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let served = requests(distinct) as f64;
    let cpu: f64 = distinct.iter().map(|r| r.cpu_us).sum();
    // Host times are medians over the run's repeats: a run on a shared
    // machine sees the speed of the same round drift over seconds, and a
    // median, unlike a best-of, does not move with how many repeats a
    // faster build fits into the same run. The rate is over each input
    // set's median repeat, so sets that differ in cost all count.
    let setup = median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let per_set: f64 = (0..k)
        .map(|set| {
            let times: Vec<f64> = rounds
                .iter()
                .filter(|r| r.set == set)
                .map(|r| r.timed_s)
                .collect();
            median(&times)
        })
        .sum();
    let rate = served / per_set;
    let peak = peak_rss as f64 / (1024.0 * 1024.0);
    Output {
        attempted: requests(rounds),
        failed: 0,
        metrics: vec![
            ("setup_s", setup, "s"),
            ("host_req_per_s", rate, "1/s"),
            ("peak_rss_mb", peak, "MB"),
            ("virt_p50_us", percentile(&lat, 50.0).unwrap_or(0.0), "us"),
            ("virt_p99_us", percentile(&lat, 99.0).unwrap_or(0.0), "us"),
            ("virt_cpu_us_per_req", cpu / served, "us"),
            ("virt_max_rps", max_rps, "1/s"),
        ],
    }
}

/// Counts and readings every workload reports per round, under their
/// metric names (absent ones read 0: the layer is not on that path).
const ROUND_METRICS: &[(&str, &str)] = &[
    ("visa.insts_per_req", "count"),
    ("visa.blocks_built_per_req", "count"),
    ("wasp.hypercalls_per_req", "count"),
    ("wasp.warm_hits", "count"),
    ("wasp.full_restores", "count"),
    ("wasp.cold_boots", "count"),
    ("wasp.shells_created", "count"),
    ("wasp.warm_demoted", "count"),
    ("wasp.suspensions", "count"),
    ("wasp.resumes", "count"),
    ("wasp.delta_pages_per_hit", "count"),
    ("vsched.batches_per_req", "count"),
    ("vsched.blocked_us_per_req", "us"),
    ("vsched.steals", "count"),
    ("vsched.migrations", "count"),
    ("vsched.declared", "count"),
    ("vsched.restored", "count"),
    ("vsched.false_positives", "count"),
    ("vhttp.scrape_bytes", "B"),
    ("vhttp.rss_growth_b_per_req", "B"),
    ("vhttp.redispatched", "count"),
    ("vhttp.acceptor_wakes_per_req", "count"),
    ("vcc.compile_ms", "ms"),
];

pub fn round_median(rounds: &[Round], name: &str) -> f64 {
    let xs: Vec<f64> = rounds
        .iter()
        .map(|r| r.layer.get(name).copied().unwrap_or(0.0))
        .collect();
    median(&xs)
}

/// The per-layer metrics of a traced run: counts from the traced rounds,
/// host spans around the benchmark's calls, and self times from the
/// stacked probes. The self times plus `host.other_us_per_req` sum to
/// `host.total_us_per_req` by construction.
pub fn per_layer(
    plain: &[Round],
    traced: &[Round],
    spans: &Spans,
    tally: &PlacementTally,
    stack: &Stack,
) -> Output {
    let n = requests(traced) as f64;
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    for &(name, unit) in ROUND_METRICS {
        let v = match (name, stack.compile_ms) {
            ("vcc.compile_ms", Some(ms)) => ms,
            _ => round_median(traced, name),
        };
        m.push((name, v, unit));
    }
    let get = |m: &[(&str, f64, &str)], name: &str| {
        m.iter()
            .find(|(k, _, _)| *k == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let insts = get(&m, "visa.insts_per_req");
    let blocks = get(&m, "visa.blocks_built_per_req");
    let per_inst_ns = if stack.visa.insts > 0.0 {
        stack.visa.us * 1e3 / stack.visa.insts
    } else {
        0.0
    };
    let qw: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.queue_wait_us.iter().copied())
        .collect();
    let calls = tally.calls.get() as f64;
    let span_us = |k: Kind| spans.get(k).us_per_call();

    // Self time per request, from adjacent entry points.
    let total_us = traced.iter().map(|r| r.timed_wall_s).sum::<f64>() * 1e6 / n;
    let (vhttp_self, vsched_self, wasp_top) = match stack.vsched {
        Some(v) => (stack.entry_us - v.us, v.us - stack.wasp.us, stack.wasp.us),
        None => (0.0, 0.0, stack.entry_us),
    };
    let wasp_self = wasp_top - stack.visa.us - stack.kvm_probe_us;
    let other = total_us - stack.entry_us;
    let per_req = |rounds: &[Round]| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| r.timed_wall_s / r.requests as f64)
            .collect()
    };
    let overhead = (median(&per_req(traced)) / median(&per_req(plain)) - 1.0) * 100.0;

    m.extend([
        ("visa.host_ns_per_inst", per_inst_ns, "ns"),
        (
            "visa.insts_per_block_built",
            if blocks > 0.0 { insts / blocks } else { 0.0 },
            "count",
        ),
        ("visa.self_host_us_per_req", stack.visa.us, "us"),
        ("visa.probe_insts_per_req", stack.visa.insts, "count"),
        ("kvmsim.create_vm_us", stack.kvm.create_vm, "us"),
        ("kvmsim.load_image_us", stack.kvm.load_image, "us"),
        ("kvmsim.restore_us", stack.kvm.restore, "us"),
        ("kvmsim.restore_delta_us", stack.kvm.restore_delta, "us"),
        ("kvmsim.clean_us", stack.kvm.clean, "us"),
        ("kvmsim.self_host_us_per_req", stack.kvm_us, "us"),
        ("wasp.self_host_us_per_req", wasp_self, "us"),
        ("wasp.probe_insts_per_req", stack.wasp.insts, "count"),
        ("wasp.acquire_us", stack.breakdown_us[0], "us"),
        ("wasp.image_us", stack.breakdown_us[1], "us"),
        ("wasp.exec_us", stack.breakdown_us[2], "us"),
        ("wasp.release_us", stack.breakdown_us[3], "us"),
        ("vsched.self_host_us_per_req", vsched_self, "us"),
        (
            "vsched.probe_insts_per_req",
            stack.vsched.map_or(0.0, |v| v.insts),
            "count",
        ),
        ("vsched.placement_calls_per_req", calls / n, "count"),
        (
            "vsched.placement_host_ns",
            if calls > 0.0 {
                tally.ns.get() as f64 / calls
            } else {
                0.0
            },
            "ns",
        ),
        (
            "vsched.queue_wait_p50_us",
            percentile(&qw, 50.0).unwrap_or(0.0),
            "us",
        ),
        (
            "vsched.queue_wait_p99_us",
            percentile(&qw, 99.0).unwrap_or(0.0),
            "us",
        ),
        ("vhttp.self_host_us_per_req", vhttp_self, "us"),
        ("vhttp.offer_host_us", span_us(Kind::Offer), "us"),
        ("vhttp.advance_host_us", span_us(Kind::Advance), "us"),
        (
            "vhttp.failover_advance_host_us",
            span_us(Kind::FailoverAdvance),
            "us",
        ),
        ("vhttp.scrape_host_us", span_us(Kind::Scrape), "us"),
        ("vhttp.trace_dump_host_us", span_us(Kind::TraceDump), "us"),
        ("host.total_us_per_req", total_us, "us"),
        ("host.other_us_per_req", other, "us"),
        ("trace.overhead_pct", overhead, "%"),
    ]);
    Output {
        attempted: requests(plain) + requests(traced),
        failed: 0,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_finite_metric_is_an_error_not_a_value() {
        let out = |v: f64| Output {
            attempted: 1,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("virt_p99_us", v, "us")],
        };
        let line = out(2.0).to_json().expect("finite metrics print");
        assert!(line.ends_with("\"virt_p99_us\": {\"value\": 2.0, \"unit\": \"us\"}}}"));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = out(bad).to_json().expect_err("non-finite metric");
            assert!(err.contains("virt_p99_us"), "{err}");
        }
    }
}
