//! The metric catalogue, read from the repository's `BENCHMARK.json` so
//! names, units and bounds have one source, and the computation of every
//! metric from a run's raw measurements.

use crate::json::{self, Json};
use crate::layers::{self, Counts, Span};
use crate::serve::Job;
use crate::stats::{frac, mean, percentile};
use std::collections::BTreeMap;

const SPEC: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Def {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Catalogue {
    pub run_seconds: u64,
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
}

impl Catalogue {
    pub fn load() -> Result<Catalogue, String> {
        let doc = json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let defs = |key: &str| -> Result<Vec<Def>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json lacks {key}"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Ok(Def {
                        name: field("name").ok_or("metric without a name")?,
                        unit: field("unit").ok_or("metric without a unit")?,
                        lower_is_better: field("better").as_deref() == Some("lower"),
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json lacks run_seconds")? as u64,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    pub fn def(&self, name: &str) -> Option<&Def> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }

    /// Checks that `emitted` names exactly the metrics of one section.
    pub fn check(&self, emitted: &[Measured], traced: bool) -> Result<(), String> {
        let want: Vec<&str> = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
        .iter()
        .map(|d| d.name.as_str())
        .collect();
        let got: Vec<&str> = emitted.iter().map(|m| m.name.as_str()).collect();
        let missing: Vec<&&str> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<&&str> = got.iter().filter(|g| !want.contains(g)).collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metric set differs from BENCHMARK.json: missing {missing:?}, not listed {extra:?}"
            ))
        }
    }
}

/// One measured value and how many samples it summarizes.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

fn m(name: impl Into<String>, value: f64, samples: usize) -> Measured {
    Measured {
        name: name.into(),
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        samples,
    }
}

/// Raw end-to-end measurements of one untraced run.
#[derive(Default)]
pub struct E2e {
    /// One set-up time per repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latencies of requests that completed, ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub decided: usize,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Number of processes `peak_rss_mb` is the maximum over.
    pub rss_samples: usize,
}

pub fn end_to_end(e: &E2e) -> Vec<Measured> {
    let n = e.latencies_ms.len();
    let completed = e.attempted - e.failed;
    vec![
        m("setup_s", percentile(&e.setup_s, 50.0), e.setup_s.len()),
        m("latency_p50_ms", percentile(&e.latencies_ms, 50.0), n),
        m("latency_p99_ms", percentile(&e.latencies_ms, 99.0), n),
        m(
            "throughput_per_s",
            frac(completed as f64, e.wall_s),
            completed,
        ),
        m(
            "decided_frac",
            frac(e.decided as f64, e.attempted as f64),
            e.attempted,
        ),
        m("peak_rss_mb", e.peak_rss_mb, e.rss_samples),
    ]
}

/// What the serve client and `/metrics` saw during a traced run.
pub struct ServeTrace {
    pub jobs: Vec<Job>,
    /// `/metrics` totals before and after the traced jobs.
    pub before: BTreeMap<String, f64>,
    pub after: BTreeMap<String, f64>,
}

impl ServeTrace {
    fn delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    /// Spans of the in-process replay.
    pub spans: &'a [Span],
    pub counts: &'a Counts,
    pub serve: Option<&'a ServeTrace>,
    pub coverage_frac: f64,
    pub overhead_frac: f64,
    /// Requests the coverage and overhead ratios are taken over.
    pub trace_requests: usize,
}

pub fn per_layer(t: &Traced) -> Vec<Measured> {
    let selfs = layers::self_times(t.spans);
    let request_us: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_us)
        .sum();
    let mut out = Vec::new();
    for op in layers::OPS {
        let times: Vec<f64> = t
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == op)
            .map(|(_, &us)| us)
            .collect();
        out.push(m(
            format!("{op}_us_p50"),
            percentile(&times, 50.0),
            times.len(),
        ));
        out.push(m(
            format!("{op}_us_p90"),
            percentile(&times, 90.0),
            times.len(),
        ));
        out.push(m(
            format!("{op}_share"),
            frac(times.iter().sum(), request_us),
            times.len(),
        ));
    }
    let c = t.counts;
    let (req, solves) = (c.requests as usize, c.solves as usize);
    let sample_s = c.sample_us as f64 / 1e6;
    out.extend([
        m(
            "absint.refuted_frac",
            frac(c.refuted as f64, c.requests as f64),
            req,
        ),
        m(
            "absint.vars_eliminated_mean",
            frac(c.vars_eliminated as f64, c.requests as f64),
            req,
        ),
        m(
            "core.qubo_vars_mean",
            frac(c.qubo_vars as f64, c.solves as f64),
            solves,
        ),
        m(
            "qubo.presolve_fixed_frac",
            frac(c.presolve_fixed as f64, c.qubo_vars as f64),
            solves,
        ),
        m(
            "anneal.sweeps_per_solve",
            frac(c.sweeps as f64, c.solves as f64),
            solves,
        ),
        m(
            "anneal.proposals_per_s",
            frac(c.proposals as f64, sample_s),
            solves,
        ),
        m(
            "anneal.flips_per_s",
            frac(c.accepted as f64, sample_s),
            solves,
        ),
        m(
            "anneal.valid_read_frac",
            frac(c.valid_reads as f64, c.reads as f64),
            c.reads as usize,
        ),
        m(
            "core.select_decoded_mean",
            frac(c.decoded as f64, c.solves as f64),
            solves,
        ),
        m(
            "core.unknown_solve_frac",
            frac(c.unknown_solves as f64, c.solves as f64),
            solves,
        ),
    ]);
    out.extend(serve_layer(t.serve));
    out.push(m("trace.coverage_frac", t.coverage_frac, t.trace_requests));
    out.push(m("trace.overhead_frac", t.overhead_frac, t.trace_requests));
    out
}

/// The serve, cache and portfolio layers. A CLI run never enters them,
/// so there they read 0.
fn serve_layer(serve: Option<&ServeTrace>) -> Vec<Measured> {
    let Some(s) = serve else {
        return [
            "serve.submit_rtt_ms_p50",
            "serve.poll_rtt_ms_p50",
            "serve.polls_per_job",
            "serve.server_elapsed_ms_p50",
            "serve.overhead_ms_p50",
            "serve.queue_wait_ms_mean",
            "serve.status_doc_bytes_mean",
            "cache.exact_hit_frac",
            "cache.warm_frac",
            "cache.miss_frac",
            "cache.lookup_us_mean",
            "portfolio.latency_ms_p50",
            "portfolio.cancelled_losers_per_job",
        ]
        .into_iter()
        .map(|name| m(name, 0.0, 0))
        .collect();
    };
    let ok: Vec<&Job> = s.jobs.iter().filter(|j| j.error.is_none()).collect();
    let n = ok.len();
    let submit: Vec<f64> = ok.iter().map(|j| j.submit_rtt_ms).collect();
    let polls: Vec<f64> = ok
        .iter()
        .flat_map(|j| j.poll_rtts_ms.iter().copied())
        .collect();
    let elapsed: Vec<f64> = ok.iter().filter_map(|j| j.server_elapsed_ms).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .filter_map(|j| Some(j.latency_ms - j.server_elapsed_ms?))
        .collect();
    let doc_bytes: Vec<f64> = ok.iter().map(|j| j.status_doc_bytes as f64).collect();
    let portfolio: Vec<f64> = ok
        .iter()
        .filter(|j| j.portfolio)
        .map(|j| j.latency_ms)
        .collect();
    let (exact, warm, miss) = (
        s.delta("qsmt_cache_exact_hits_total"),
        s.delta("qsmt_cache_warm_starts_total"),
        s.delta("qsmt_cache_misses_total"),
    );
    let lookups = exact + warm + miss;
    let waits = s.delta("qsmt_serve_job_wait_us_count");
    vec![
        m("serve.submit_rtt_ms_p50", percentile(&submit, 50.0), n),
        m(
            "serve.poll_rtt_ms_p50",
            percentile(&polls, 50.0),
            polls.len(),
        ),
        m("serve.polls_per_job", frac(polls.len() as f64, n as f64), n),
        m(
            "serve.server_elapsed_ms_p50",
            percentile(&elapsed, 50.0),
            elapsed.len(),
        ),
        m(
            "serve.overhead_ms_p50",
            percentile(&overhead, 50.0),
            overhead.len(),
        ),
        m(
            "serve.queue_wait_ms_mean",
            frac(s.delta("qsmt_serve_job_wait_us_sum"), waits) / 1000.0,
            waits as usize,
        ),
        m("serve.status_doc_bytes_mean", mean(&doc_bytes), n),
        m(
            "cache.exact_hit_frac",
            frac(exact, lookups),
            lookups as usize,
        ),
        m("cache.warm_frac", frac(warm, lookups), lookups as usize),
        m("cache.miss_frac", frac(miss, lookups), lookups as usize),
        m(
            "cache.lookup_us_mean",
            frac(
                s.delta("qsmt_cache_lookup_us_sum"),
                s.delta("qsmt_cache_lookup_us_count"),
            ),
            s.delta("qsmt_cache_lookup_us_count") as usize,
        ),
        m(
            "portfolio.latency_ms_p50",
            percentile(&portfolio, 50.0),
            portfolio.len(),
        ),
        m(
            "portfolio.cancelled_losers_per_job",
            frac(
                s.delta("qsmt_portfolio_cancelled_losers_total"),
                portfolio.len() as f64,
            ),
            portfolio.len(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_metric_is_listed_in_benchmark_json() {
        let cat = Catalogue::load().unwrap();
        let e2e = end_to_end(&E2e::default());
        cat.check(&e2e, false).unwrap();
        let counts = Counts::default();
        let cli = Traced {
            spans: &[],
            counts: &counts,
            serve: None,
            coverage_frac: 0.0,
            overhead_frac: 0.0,
            trace_requests: 0,
        };
        cat.check(&per_layer(&cli), true).unwrap();
        let serve = ServeTrace {
            jobs: Vec::new(),
            before: BTreeMap::new(),
            after: BTreeMap::new(),
        };
        let traced = Traced {
            serve: Some(&serve),
            ..cli
        };
        cat.check(&per_layer(&traced), true).unwrap();
        for def in &cat.end_to_end {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        assert!(cat.run_seconds >= 1);
    }
}
