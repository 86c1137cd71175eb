//! The `virt_max_rps` search: the highest offered rate whose run still
//! meets the workload's latency limit with no growing backlog.

use crate::stats::percentile;

/// One probed rate and its score: the measured latency over the limit,
/// so the rate meets the limit when the score is below 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub rate: f64,
    pub score: f64,
}

impl Probe {
    pub fn ok(&self) -> bool {
        self.score < 1.0
    }
}

/// Searches `[lo, hi]` geometrically for the highest rate whose `score`
/// is below 1.
///
/// The bracket is checked first: `hi` must miss and `lo` must meet, so
/// the result is a real knee rather than an edge of the bracket. The
/// search then bisects in log space until the last meeting and missing
/// rates are less than `rel_step` apart, and places the knee between
/// them where the log score, interpolated linearly in log rate, crosses
/// 1. The result is strictly inside the bracket.
pub fn max_rate(
    lo: f64,
    hi: f64,
    rel_step: f64,
    mut score: impl FnMut(f64) -> f64,
) -> Result<(f64, Vec<Probe>), String> {
    assert!(0.0 < lo && lo < hi && rel_step > 0.0);
    let mut probes = Vec::new();
    let mut probe = |rate: f64, probes: &mut Vec<Probe>| {
        let p = Probe {
            rate,
            score: score(rate),
        };
        eprintln!("rate probe {rate:.0}/s: score {:.4}", p.score);
        probes.push(p);
        p
    };
    let mut fail = probe(hi, &mut probes);
    if fail.ok() {
        return Err(format!("upper bracket {hi:.0}/s meets the limit"));
    }
    let mut pass = probe(lo, &mut probes);
    if !pass.ok() {
        return Err(format!("lower bracket {lo:.0}/s misses the limit"));
    }
    while fail.rate / pass.rate - 1.0 > rel_step {
        let mid = probe((pass.rate * fail.rate).sqrt(), &mut probes);
        if mid.ok() {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    // Scores are positive latency ratios; a non-increasing pair (noise)
    // leaves the knee at the last meeting rate.
    let (sp, sf) = (pass.score.max(f64::MIN_POSITIVE).ln(), fail.score.ln());
    let frac = if sf > sp { (0.0 - sp) / (sf - sp) } else { 0.0 };
    let knee = (pass.rate.ln() + frac.clamp(0.0, 1.0) * (fail.rate / pass.rate).ln()).exp();
    Ok((knee, probes))
}

/// The score of a run against `limit_us`: the larger of its p99 and of
/// the median of its last tenth (in arrival order), over the limit. A
/// backlog that grows over the run is longest in that last tenth, so a
/// rate meets the limit (score below 1) only with the p99 under it and
/// no growing queue.
pub fn limit_score(latencies_us: &[f64], limit_us: f64) -> f64 {
    let tail = &latencies_us[latencies_us.len() - latencies_us.len() / 10..];
    let p99 = percentile(latencies_us, 99.0).unwrap_or(f64::INFINITY);
    let tail_p50 = percentile(tail, 50.0).unwrap_or(f64::INFINITY);
    p99.max(tail_p50) / limit_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_knee_strictly_inside_with_a_fine_final_step() {
        // A score linear in log rate crosses 1 exactly at the knee, so
        // the interpolation lands on it.
        let knee = 1234.5;
        let (found, probes) =
            max_rate(500.0, 4000.0, 0.05, |r| (r / knee).powi(3)).expect("bracketed");
        assert!((found / knee - 1.0).abs() < 1e-9, "found {found}");
        // Bracket checks come first: the upper end missed, the lower met.
        assert!(probes[0].rate == 4000.0 && !probes[0].ok());
        assert!(probes[1].rate == 500.0 && probes[1].ok());
        // The final meeting and missing probes are one fine step apart.
        let pass = probes
            .iter()
            .filter(|p| p.ok())
            .map(|p| p.rate)
            .fold(0.0, f64::max);
        let fail = probes
            .iter()
            .filter(|p| !p.ok())
            .map(|p| p.rate)
            .fold(f64::INFINITY, f64::min);
        assert!(fail / pass - 1.0 <= 0.05 && pass <= found && found < fail);
    }

    #[test]
    fn a_growing_backlog_misses_the_limit() {
        // Flat latencies meet the limit; a queue building over the last
        // 6 % of the run misses it, its last tenth's median over the limit.
        let flat: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 7) as f64).collect();
        assert!(limit_score(&flat, 100.0) < 1.0);
        let mut growing = flat.clone();
        for (i, x) in growing.iter_mut().enumerate().skip(940) {
            *x = 100.0 + (i - 940) as f64;
        }
        assert!(percentile(&growing[900..], 50.0).unwrap() >= 100.0);
        assert!(limit_score(&growing, 100.0) >= 1.0);
    }

    #[test]
    fn refuses_a_bracket_that_does_not_straddle_the_knee() {
        assert!(max_rate(500.0, 4000.0, 0.01, |_| 0.5).is_err());
        assert!(max_rate(500.0, 4000.0, 0.01, |_| 2.0).is_err());
    }
}
