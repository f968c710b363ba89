//! Solver-dynamics statistics: trajectory probes condensed for reports.
//!
//! PR 1's per-stage stats say *what* a solve produced; the types here say
//! *how the run evolved* — best-energy-vs-sweep traces, per-β acceptance,
//! per-proposal latency, time to target, and a deterministic stall
//! verdict. They are plain data produced by the probe layer in
//! `qsmt-anneal` and serialized into the `dynamics` section of
//! `SolveReport` (added in schema v4, three keys removed in v11). Field
//! names are a stable interface documented in `docs/OBSERVABILITY.md`.

use crate::json::Json;

/// One decimated point on a best-energy-so-far trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Sweep (or round / step / flip, per sampler) index of the point.
    pub sweep: u64,
    /// Lowest energy observed up to and including this sweep.
    pub best_energy: f64,
}

impl TracePoint {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sweep", Json::from(self.sweep)),
            ("best_energy", Json::from(self.best_energy)),
        ])
    }
}

/// Metropolis acceptance counters at (or aggregated around) one β.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaAcceptance {
    /// Inverse temperature the counters were measured at. For aggregated
    /// entries this is the last β of the aggregated range.
    pub beta: f64,
    /// Single-bit flips proposed at this β.
    pub proposals: u64,
    /// Proposals accepted at this β.
    pub accepted: u64,
}

impl BetaAcceptance {
    /// `accepted / proposals` (0 when no proposals were made).
    pub fn rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposals as f64
        }
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("beta", Json::from(self.beta)),
            ("proposals", Json::from(self.proposals)),
            ("accepted", Json::from(self.accepted)),
            ("rate", Json::from(self.rate())),
        ])
    }
}

/// Exact percentile summary of a sample set (p50/p90/p99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarizes raw samples via nearest-rank percentiles; non-finite
    /// samples are dropped. Returns `None` for an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(Self {
            count: sorted.len() as u64,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
        })
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("p50", Json::from(self.p50)),
            ("p90", Json::from(self.p90)),
            ("p99", Json::from(self.p99)),
        ])
    }
}

/// One point on a time-to-target curve: the sweep at which the run first
/// closed `gap_fraction` of its total energy gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeToTarget {
    /// Fraction of the (initial − final) best-energy gap closed.
    pub gap_fraction: f64,
    /// First sweep at which the trace reached that target.
    pub sweep: u64,
}

impl TimeToTarget {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("gap_fraction", Json::from(self.gap_fraction)),
            ("sweep", Json::from(self.sweep)),
        ])
    }
}

/// Deterministic classification of how a run ended.
///
/// The rule (documented in `docs/OBSERVABILITY.md`) uses two inputs:
/// `f`, the fraction of the run at which the best energy last improved,
/// and the final-phase Metropolis acceptance rate `a`:
///
/// * `Improving` — `f > 0.75`: the run was still finding better states
///   near its end; more sweeps would likely help.
/// * `Stalled` — `f < 0.5` and `a > 0.3`: the chain stayed hot (many
///   accepted moves) but stopped improving long before the end; the
///   schedule or formulation is suspect.
/// * `Converged` — everything else: the run froze into its final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallVerdict {
    /// Best energy still improving near the end of the run.
    Improving,
    /// Run froze into its final answer (the healthy terminal state).
    Converged,
    /// Hot but unproductive: no late improvement despite high acceptance.
    Stalled,
}

impl StallVerdict {
    /// Stable string form used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            StallVerdict::Improving => "improving",
            StallVerdict::Converged => "converged",
            StallVerdict::Stalled => "stalled",
        }
    }

    /// Applies the classification rule documented on the type.
    pub fn classify(last_improvement_fraction: f64, final_acceptance: Option<f64>) -> Self {
        if last_improvement_fraction > 0.75 {
            StallVerdict::Improving
        } else if last_improvement_fraction < 0.5 && final_acceptance.unwrap_or(0.0) > 0.3 {
            StallVerdict::Stalled
        } else {
            StallVerdict::Converged
        }
    }
}

/// The additive `dynamics` section of a solve report (schema v4).
///
/// Sampler-specific fields are empty / `None` when the sampler has no
/// matching probe (e.g. steepest descent fills no `beta_acceptance`).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsStats {
    /// Decimated best-energy-so-far trajectory of the probe read.
    pub energy_trace: Vec<TracePoint>,
    /// Acceptance counters per β (aggregated to a bounded entry count).
    pub beta_acceptance: Vec<BetaAcceptance>,
    /// Per-proposal latency distribution (nanoseconds), probe read.
    pub proposal_latency_ns: Option<HistogramSummary>,
    /// Per-sweep best-energy improvement distribution, probe read.
    pub sweep_improvement: Option<HistogramSummary>,
    /// Time-to-target curve derived from `energy_trace`.
    pub time_to_target: Vec<TimeToTarget>,
    /// Fraction of the run at which the best energy last improved.
    pub last_improvement_fraction: f64,
    /// Deterministic verdict on how the run ended.
    pub stall_verdict: StallVerdict,
}

impl DynamicsStats {
    /// Standard gap fractions reported on time-to-target curves.
    pub const TTT_FRACTIONS: [f64; 4] = [0.5, 0.9, 0.99, 1.0];

    /// Derives the time-to-target curve from a best-energy trace: for
    /// each standard gap fraction, the first sweep whose best energy
    /// closed that fraction of the total (initial − final) gap. Empty
    /// when the trace never improved (gap 0) or has fewer than 2 points.
    pub fn time_to_target_curve(trace: &[TracePoint]) -> Vec<TimeToTarget> {
        let (Some(first), Some(last)) = (trace.first(), trace.last()) else {
            return Vec::new();
        };
        let gap = first.best_energy - last.best_energy;
        if gap.is_nan() || gap <= 0.0 {
            return Vec::new();
        }
        let tol = 1e-9 * gap.abs();
        Self::TTT_FRACTIONS
            .iter()
            .filter_map(|&fraction| {
                let target = first.best_energy - fraction * gap;
                trace
                    .iter()
                    .find(|p| p.best_energy <= target + tol)
                    .map(|p| TimeToTarget {
                        gap_fraction: fraction,
                        sweep: p.sweep,
                    })
            })
            .collect()
    }

    /// Fraction of the run (by sweep index) at which the best energy last
    /// strictly improved. 0 for traces that never improved.
    pub fn last_improvement_fraction(trace: &[TracePoint]) -> f64 {
        let Some(last) = trace.last() else { return 0.0 };
        if last.sweep == 0 {
            return 0.0;
        }
        let mut last_improvement = 0u64;
        for pair in trace.windows(2) {
            if pair[1].best_energy < pair[0].best_energy {
                last_improvement = pair[1].sweep;
            }
        }
        last_improvement as f64 / last.sweep as f64
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "energy_trace",
                Json::Arr(self.energy_trace.iter().map(TracePoint::to_json).collect()),
            ),
            (
                "beta_acceptance",
                Json::Arr(
                    self.beta_acceptance
                        .iter()
                        .map(BetaAcceptance::to_json)
                        .collect(),
                ),
            ),
            (
                "proposal_latency_ns",
                self.proposal_latency_ns
                    .as_ref()
                    .map_or(Json::Null, HistogramSummary::to_json),
            ),
            (
                "sweep_improvement",
                self.sweep_improvement
                    .as_ref()
                    .map_or(Json::Null, HistogramSummary::to_json),
            ),
            (
                "time_to_target",
                Json::Arr(
                    self.time_to_target
                        .iter()
                        .map(TimeToTarget::to_json)
                        .collect(),
                ),
            ),
            (
                "last_improvement_fraction",
                Json::from(self.last_improvement_fraction),
            ),
            ("stall_verdict", Json::from(self.stall_verdict.as_str())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn trace(points: &[(u64, f64)]) -> Vec<TracePoint> {
        points
            .iter()
            .map(|&(sweep, best_energy)| TracePoint { sweep, best_energy })
            .collect()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let h = HistogramSummary::from_samples(&samples).unwrap();
        assert_eq!(h.count, 100);
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p90, 90.0);
        assert_eq!(h.p99, 99.0);
        let single = HistogramSummary::from_samples(&[7.0]).unwrap();
        assert_eq!((single.p50, single.p90, single.p99), (7.0, 7.0, 7.0));
        assert!(HistogramSummary::from_samples(&[]).is_none());
        assert!(HistogramSummary::from_samples(&[f64::NAN]).is_none());
    }

    #[test]
    fn time_to_target_finds_first_crossings() {
        let t = trace(&[(0, 10.0), (10, 5.0), (20, 1.0), (30, 0.0), (40, 0.0)]);
        let curve = DynamicsStats::time_to_target_curve(&t);
        assert_eq!(curve.len(), 4);
        // gap = 10; 50% target = 5.0 reached at sweep 10.
        assert_eq!(curve[0].sweep, 10);
        // 90% target = 1.0 reached at sweep 20.
        assert_eq!(curve[1].sweep, 20);
        // 99% and 100% reached at sweep 30.
        assert_eq!(curve[2].sweep, 30);
        assert_eq!(curve[3].sweep, 30);
    }

    #[test]
    fn time_to_target_empty_without_improvement() {
        assert!(DynamicsStats::time_to_target_curve(&trace(&[(0, 3.0), (10, 3.0)])).is_empty());
        assert!(DynamicsStats::time_to_target_curve(&[]).is_empty());
    }

    #[test]
    fn last_improvement_fraction_tracks_final_gain() {
        let t = trace(&[(0, 10.0), (25, 5.0), (50, 5.0), (100, 5.0)]);
        assert_eq!(DynamicsStats::last_improvement_fraction(&t), 0.25);
        let still = trace(&[(0, 10.0), (50, 5.0), (100, 4.0)]);
        assert_eq!(DynamicsStats::last_improvement_fraction(&still), 1.0);
        assert_eq!(DynamicsStats::last_improvement_fraction(&[]), 0.0);
    }

    #[test]
    fn stall_verdict_rule() {
        assert_eq!(
            StallVerdict::classify(0.9, Some(0.1)),
            StallVerdict::Improving
        );
        assert_eq!(
            StallVerdict::classify(0.2, Some(0.6)),
            StallVerdict::Stalled
        );
        assert_eq!(
            StallVerdict::classify(0.2, Some(0.1)),
            StallVerdict::Converged
        );
        assert_eq!(StallVerdict::classify(0.2, None), StallVerdict::Converged);
        assert_eq!(
            StallVerdict::classify(0.6, Some(0.9)),
            StallVerdict::Converged
        );
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let b = BetaAcceptance {
            beta: 1.0,
            proposals: 0,
            accepted: 0,
        };
        assert_eq!(b.rate(), 0.0);
    }

    #[test]
    fn dynamics_stats_serialize() {
        let t = trace(&[(0, 10.0), (50, 0.0), (100, 0.0)]);
        let d = DynamicsStats {
            time_to_target: DynamicsStats::time_to_target_curve(&t),
            last_improvement_fraction: DynamicsStats::last_improvement_fraction(&t),
            stall_verdict: StallVerdict::classify(
                DynamicsStats::last_improvement_fraction(&t),
                Some(0.2),
            ),
            energy_trace: t,
            beta_acceptance: vec![BetaAcceptance {
                beta: 0.1,
                proposals: 100,
                accepted: 60,
            }],
            proposal_latency_ns: HistogramSummary::from_samples(&[10.0, 20.0, 30.0]),
            sweep_improvement: None,
        };
        let doc = parse(&d.to_json().pretty()).expect("valid JSON");
        assert_eq!(
            doc.get("stall_verdict").and_then(Json::as_str),
            Some("converged")
        );
        assert_eq!(
            doc.get("last_improvement_fraction").and_then(Json::as_f64),
            Some(0.5)
        );
        let betas = doc.get("beta_acceptance").and_then(Json::as_arr).unwrap();
        assert_eq!(betas[0].get("rate").and_then(Json::as_f64), Some(0.6));
        assert_eq!(doc.get("sweep_improvement"), Some(&Json::Null));
        let lat = doc.get("proposal_latency_ns").unwrap();
        assert_eq!(lat.get("p50").and_then(Json::as_f64), Some(20.0));
        let ttt = doc.get("time_to_target").and_then(Json::as_arr).unwrap();
        assert_eq!(ttt.len(), 4);
    }
}
