//! Trajectory probes: low-overhead observation of annealing dynamics.
//!
//! A probed run observes *how* a sampler moved through the energy
//! landscape — best-energy-vs-sweep traces, per-β acceptance, replica
//! swap rates, population ESS, tabu aspiration hits — without changing
//! what it computes. Two invariants make that safe to wire into hot
//! paths:
//!
//! 1. **RNG hygiene** — probes never draw from (or reorder draws on) a
//!    sampler's random streams, so a probed run returns the bit-identical
//!    [`crate::SampleSet`] of the plain run (pinned by tests).
//! 2. **Gated cost** — [`crate::Sampler::run`] takes its probes as an
//!    `Option<&ProbeConfig>`, and each sampler hands the probe state to
//!    its one read loop as an `Option` too. A plain run (`None`, the path
//!    behind `sample` / `sample_stats`) never constructs a probe or reads
//!    a clock; probing costs are confined to the probe read (read 0), and
//!    trace memory is bounded by stride-doubling decimation
//!    ([`Decimator`]).

use std::time::Instant;

use qsmt_telemetry::dynamics::{BetaAcceptance, EssPoint, SwapAcceptance, TracePoint};

/// Hard cap on raw per-sweep probe samples (latency, improvement) kept
/// in memory; sweeps beyond this are subsampled by stride.
pub const MAX_RAW_SAMPLES: usize = 4096;

/// Sizing knobs for a probed run. Whether to probe at all is the
/// `Option` around it: [`crate::Sampler::run`] with `None` is the plain
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Maximum points kept on decimated traces (energy, β-acceptance).
    pub max_trace_points: usize,
}

impl Default for ProbeConfig {
    /// 256-point traces.
    fn default() -> Self {
        Self {
            max_trace_points: 256,
        }
    }
}

/// Raw trajectory observations from one probed sampler run.
///
/// Fields are sampler-specific and stay empty where a sampler has no
/// matching probe; the telemetry layer condenses this into the
/// `dynamics` report section, and `qsmt serve` exports it as Prometheus
/// series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SamplerDynamics {
    /// Decimated best-energy-so-far trace of the probe read. The sweep
    /// axis is the sampler's natural step: Metropolis sweeps (SA/SQA),
    /// exchange rounds (tempering), β steps (population), moves (tabu),
    /// or accepted flips (descent).
    pub energy_trace: Vec<TracePoint>,
    /// Acceptance counters per β, aggregated to a bounded entry count.
    pub beta_acceptance: Vec<BetaAcceptance>,
    /// Replica-exchange acceptance per adjacent ladder pair (tempering).
    pub swap_acceptance: Vec<SwapAcceptance>,
    /// Effective sample size per resampling step (population annealing).
    pub ess_trace: Vec<EssPoint>,
    /// Aspiration-criterion hits on the probe read (tabu search).
    pub aspiration_hits: Option<u64>,
    /// Per-proposal latency samples (nanoseconds), one per probed sweep.
    pub proposal_latency_ns: Vec<f64>,
    /// Best-energy improvement per probed sweep (≥ 0).
    pub sweep_improvement: Vec<f64>,
    /// Measured wall-clock interval per read, `(offset_us, dur_us)`
    /// relative to the start of the probed run, indexed by read. Reads
    /// executed together in one bit-sliced block share the block's
    /// interval; the probe read (read 0) is timed individually. The
    /// tracing layer splices these into per-read child spans.
    pub read_spans: Vec<(u64, u64)>,
}

impl SamplerDynamics {
    /// True when the run produced no observations at all (e.g. the
    /// sampler has no probes, or probing was disabled).
    pub fn is_empty(&self) -> bool {
        self.energy_trace.is_empty()
            && self.beta_acceptance.is_empty()
            && self.swap_acceptance.is_empty()
            && self.ess_trace.is_empty()
            && self.aspiration_hits.is_none()
            && self.proposal_latency_ns.is_empty()
            && self.sweep_improvement.is_empty()
            && self.read_spans.is_empty()
    }
}

/// Stride-doubling decimator for energy traces.
///
/// Keeps at most `max` points from an arbitrarily long stream: points are
/// recorded every `stride` pushes, and whenever the buffer fills, every
/// other stored point is dropped and the stride doubles. The first pushed
/// point is always kept and [`Decimator::finish`] appends the final one,
/// so the trace endpoints are exact.
#[derive(Debug, Clone)]
pub struct Decimator {
    max: usize,
    stride: u64,
    seen: u64,
    last: Option<TracePoint>,
    points: Vec<TracePoint>,
}

impl Decimator {
    /// Creates a decimator keeping at most `max` points (min 4).
    pub fn new(max: usize) -> Self {
        Self {
            max: max.max(4),
            stride: 1,
            seen: 0,
            last: None,
            points: Vec::new(),
        }
    }

    /// Pushes the best energy as of `sweep`.
    pub fn push(&mut self, sweep: u64, best_energy: f64) {
        self.last = Some(TracePoint { sweep, best_energy });
        if self.seen.is_multiple_of(self.stride) {
            self.points.push(TracePoint { sweep, best_energy });
            if self.points.len() >= self.max {
                let kept: Vec<TracePoint> = self.points.iter().step_by(2).copied().collect();
                self.points = kept;
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// Returns the decimated trace, guaranteeing the last pushed point is
    /// included.
    pub fn finish(mut self) -> Vec<TracePoint> {
        if let Some(last) = self.last {
            if self.points.last().map(|p| p.sweep) != Some(last.sweep) {
                self.points.push(last);
            }
        }
        self.points
    }
}

/// Subsamples an unbounded stream of raw f64 observations with a fixed
/// stride so percentile estimates stay cheap and memory stays bounded.
#[derive(Debug, Clone)]
pub struct StridedSampler {
    stride: u64,
    seen: u64,
    samples: Vec<f64>,
}

impl StridedSampler {
    /// Creates a sampler that, for an expected `expected_len` pushes,
    /// keeps at most [`MAX_RAW_SAMPLES`] of them (evenly strided).
    pub fn new(expected_len: u64) -> Self {
        Self {
            stride: (expected_len / MAX_RAW_SAMPLES as u64).max(1),
            seen: 0,
            samples: Vec::new(),
        }
    }

    /// Whether the *next* push would be recorded — callers can skip the
    /// measurement (e.g. a clock read) entirely for skipped steps.
    #[inline]
    pub fn will_record(&self) -> bool {
        self.seen.is_multiple_of(self.stride) && self.samples.len() < MAX_RAW_SAMPLES
    }

    /// Pushes one observation (recorded only on stride boundaries).
    #[inline]
    pub fn push(&mut self, value: f64) {
        if self.will_record() {
            self.samples.push(value);
        }
        self.seen += 1;
    }

    /// Advances the stream position without recording (pairs with a
    /// skipped measurement).
    #[inline]
    pub fn skip(&mut self) {
        self.seen += 1;
    }

    /// Consumes the sampler, returning the recorded observations.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// Aggregates a per-sweep β-acceptance sequence into at most `max`
/// entries by summing consecutive chunks; each aggregate keeps the last
/// (coldest) β of its chunk so the schedule's shape stays readable.
pub fn aggregate_betas(entries: &[BetaAcceptance], max: usize) -> Vec<BetaAcceptance> {
    if max == 0 || entries.len() <= max {
        return entries.to_vec();
    }
    let group = entries.len().div_ceil(max);
    entries
        .chunks(group)
        .map(|chunk| BetaAcceptance {
            beta: chunk.last().expect("chunks are non-empty").beta,
            proposals: chunk.iter().map(|e| e.proposals).sum(),
            accepted: chunk.iter().map(|e| e.accepted).sum(),
        })
        .collect()
}

/// Probe state of one Metropolis probe read (simulated annealing and
/// simulated quantum annealing): per-β acceptance rows, the decimated
/// best-energy trace, and strided per-sweep latency and improvement
/// samples. The read loop reports its best energy at
/// [`SweepProbes::start`] and around every sweep; the probes never see
/// the RNG.
#[derive(Debug)]
pub(crate) struct SweepProbes {
    max_trace_points: usize,
    /// Acceptance rows, aggregated to `max_trace_points` on finish.
    pub(crate) beta_acceptance: Vec<BetaAcceptance>,
    trace: Decimator,
    latency: StridedSampler,
    improvement: StridedSampler,
    sweep_started: Option<Instant>,
    best_before: f64,
}

impl SweepProbes {
    /// Probes for a read of (at most) `sweeps` sweeps.
    pub(crate) fn new(config: &ProbeConfig, sweeps: usize) -> Self {
        Self {
            max_trace_points: config.max_trace_points,
            beta_acceptance: Vec::new(),
            trace: Decimator::new(config.max_trace_points),
            latency: StridedSampler::new(sweeps as u64),
            improvement: StridedSampler::new(sweeps as u64),
            sweep_started: None,
            best_before: f64::INFINITY,
        }
    }

    /// Records the read's initial best energy as trace point 0.
    pub(crate) fn start(&mut self, best: f64) {
        self.trace.push(0, best);
    }

    /// Opens a sweep, starting its latency clock when this sweep is
    /// sampled.
    #[inline]
    pub(crate) fn begin_sweep(&mut self, best: f64) {
        self.sweep_started = self.latency.will_record().then(Instant::now);
        self.best_before = best;
    }

    /// Closes sweep `sweep` (0-based) of `proposals` proposals, `best`
    /// being the best energy reached so far.
    #[inline]
    pub(crate) fn end_sweep(&mut self, sweep: usize, best: f64, proposals: usize) {
        match self.sweep_started.take() {
            Some(t0) => self
                .latency
                .push(t0.elapsed().as_nanos() as f64 / proposals.max(1) as f64),
            None => self.latency.skip(),
        }
        self.improvement.push((self.best_before - best).max(0.0));
        self.trace.push(sweep as u64 + 1, best);
    }

    /// The observations as a sampler's dynamics.
    pub(crate) fn finish(self) -> SamplerDynamics {
        SamplerDynamics {
            energy_trace: self.trace.finish(),
            beta_acceptance: aggregate_betas(&self.beta_acceptance, self.max_trace_points),
            proposal_latency_ns: self.latency.into_samples(),
            sweep_improvement: self.improvement.into_samples(),
            ..SamplerDynamics::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimator_keeps_endpoints_and_respects_cap() {
        let mut d = Decimator::new(16);
        for sweep in 0..10_000u64 {
            d.push(sweep, -(sweep as f64));
        }
        let trace = d.finish();
        assert!(trace.len() <= 17, "len {}", trace.len());
        assert_eq!(trace.first().unwrap().sweep, 0);
        assert_eq!(trace.last().unwrap().sweep, 9_999);
        // Monotone sweep axis.
        assert!(trace.windows(2).all(|w| w[0].sweep < w[1].sweep));
    }

    #[test]
    fn decimator_short_stream_is_lossless() {
        let mut d = Decimator::new(64);
        for sweep in 0..10u64 {
            d.push(sweep, f64::from(u32::try_from(sweep).unwrap()));
        }
        assert_eq!(d.finish().len(), 10);
    }

    #[test]
    fn strided_sampler_bounds_memory() {
        let mut s = StridedSampler::new(1_000_000);
        for i in 0..1_000_000u64 {
            s.push(i as f64);
        }
        let samples = s.into_samples();
        assert!(samples.len() <= MAX_RAW_SAMPLES);
        assert!(samples.len() >= MAX_RAW_SAMPLES / 2);
        assert_eq!(samples[0], 0.0);
    }

    #[test]
    fn strided_sampler_small_stream_keeps_everything() {
        let mut s = StridedSampler::new(100);
        for i in 0..100u64 {
            s.push(i as f64);
        }
        assert_eq!(s.into_samples().len(), 100);
    }

    #[test]
    fn aggregate_betas_preserves_totals() {
        let entries: Vec<BetaAcceptance> = (0..384u64)
            .map(|i| BetaAcceptance {
                beta: 0.05 + i as f64 * 0.01,
                proposals: 100,
                accepted: i % 7,
            })
            .collect();
        let agg = aggregate_betas(&entries, 8);
        assert_eq!(agg.len(), 8);
        assert_eq!(agg.iter().map(|e| e.proposals).sum::<u64>(), 38_400);
        assert_eq!(
            agg.iter().map(|e| e.accepted).sum::<u64>(),
            entries.iter().map(|e| e.accepted).sum::<u64>()
        );
        // βs stay sorted (schedule shape preserved).
        assert!(agg.windows(2).all(|w| w[0].beta < w[1].beta));
        // No-op below the cap.
        assert_eq!(aggregate_betas(&entries[..5], 8).len(), 5);
    }

    #[test]
    fn default_config_keeps_256_points_and_default_dynamics_are_empty() {
        assert_eq!(ProbeConfig::default().max_trace_points, 256);
        assert!(SamplerDynamics::default().is_empty());
    }
}
