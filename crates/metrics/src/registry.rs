//! Metrics registry: counters, gauges, log-bucketed histograms.
//!
//! The registry is a single mutex-guarded map from [`MetricKey`] (name +
//! sorted label pairs) to a series value. Every update takes the lock
//! once: callers write per request or per finished job, never per event
//! inside a solve, so updates need no buffering.
//!
//! Histograms are log-bucketed: bucket `k` has upper bound `2^k` for
//! `k ∈ [-30, 30]`, covering roughly `1e-9 .. 1e9`. Buckets are stored
//! sparsely, so an unused histogram costs nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Smallest bucket exponent: bucket upper bound `2^-30` (~9.3e-10).
pub const BUCKET_MIN_EXP: i32 = -30;
/// Largest bucket exponent: bucket upper bound `2^30` (~1.07e9).
pub const BUCKET_MAX_EXP: i32 = 30;

/// Identity of one time series: metric name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `qsmt_sampler_proposals_total`.
    pub name: String,
    /// Label pairs, sorted by label name for a canonical ordering.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key from a name and unsorted label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// The kind of a metric series, fixed at first use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing sum.
    Counter,
    /// Last-write-wins instantaneous value.
    Gauge,
    /// Log-bucketed distribution with sum and count.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Histogram => "histogram",
        }
    }
}

/// Sparse log-bucketed histogram state.
#[derive(Clone, Debug, Default, PartialEq)]
struct HistogramData {
    /// Bucket exponent -> count of observations with `value <= 2^exp`
    /// (non-cumulative; cumulated at render time).
    buckets: BTreeMap<i32, u64>,
    sum: f64,
    count: u64,
}

impl HistogramData {
    fn observe(&mut self, value: f64) {
        *self.buckets.entry(bucket_exp(value)).or_insert(0) += 1;
        self.sum += value;
        self.count += 1;
    }
}

/// Returns the bucket exponent for a value: smallest `k` with `value <= 2^k`.
fn bucket_exp(value: f64) -> i32 {
    if value.is_nan() || value <= 0.0 {
        return BUCKET_MIN_EXP;
    }
    let k = value.log2().ceil() as i32;
    k.clamp(BUCKET_MIN_EXP, BUCKET_MAX_EXP)
}

#[derive(Clone, Debug, PartialEq)]
enum SeriesValue {
    Counter(f64),
    Gauge(f64),
    Histogram(HistogramData),
}

impl SeriesValue {
    fn kind(&self) -> MetricKind {
        match self {
            Self::Counter(_) => MetricKind::Counter,
            Self::Gauge(_) => MetricKind::Gauge,
            Self::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Default)]
struct Inner {
    series: BTreeMap<MetricKey, SeriesValue>,
    help: BTreeMap<String, String>,
}

/// A mutex-guarded metrics registry with Prometheus text exposition.
///
/// All methods take `&self`; the registry is safe to share between threads.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers help text for a metric name (shown as `# HELP` on export).
    pub fn describe(&self, name: &str, help: &str) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.help.insert(name.to_string(), help.to_string());
    }

    /// Adds `value` to the counter series identified by `name` + `labels`.
    ///
    /// Negative deltas are ignored (counters are monotone).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if value.is_nan() || value < 0.0 {
            return;
        }
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.series.entry(key).or_insert(SeriesValue::Counter(0.0)) {
            SeriesValue::Counter(total) => *total += value,
            _ => debug_assert!(false, "metric kind mismatch for {name}"),
        }
    }

    /// Sets the gauge series identified by `name` + `labels` to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.series.entry(key).or_insert(SeriesValue::Gauge(0.0)) {
            SeriesValue::Gauge(current) => *current = value,
            _ => debug_assert!(false, "metric kind mismatch for {name}"),
        }
    }

    /// Records one observation into the histogram series `name` + `labels`.
    pub fn histogram_observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        match inner
            .series
            .entry(key)
            .or_insert_with(|| SeriesValue::Histogram(HistogramData::default()))
        {
            SeriesValue::Histogram(hist) => hist.observe(value),
            _ => debug_assert!(false, "metric kind mismatch for {name}"),
        }
    }

    /// Current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        let inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.series.get(&key) {
            Some(SeriesValue::Counter(total)) => Some(*total),
            _ => None,
        }
    }

    /// Current value of a gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        let inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.series.get(&key) {
            Some(SeriesValue::Gauge(value)) => Some(*value),
            _ => None,
        }
    }

    /// Observation count of a histogram series, if it exists.
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        let inner = self.inner.lock().expect("metrics registry poisoned");
        match inner.series.get(&key) {
            Some(SeriesValue::Histogram(hist)) => Some(hist.count),
            _ => None,
        }
    }

    /// Number of distinct series currently registered.
    pub fn series_count(&self) -> usize {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .series
            .len()
    }

    /// Renders every series in Prometheus text exposition format (v0.0.4).
    ///
    /// Series are grouped by metric name with one `# HELP`/`# TYPE` header
    /// per name. Histogram buckets are emitted cumulatively with `le`
    /// labels (only non-empty buckets, plus the mandatory `+Inf`).
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, value) in &inner.series {
            if last_name != Some(key.name.as_str()) {
                last_name = Some(key.name.as_str());
                if let Some(help) = inner.help.get(&key.name) {
                    let _ = writeln!(out, "# HELP {} {}", key.name, escape_help(help));
                }
                let _ = writeln!(out, "# TYPE {} {}", key.name, value.kind().as_str());
            }
            match value {
                SeriesValue::Counter(total) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        format_value(*total)
                    );
                }
                SeriesValue::Gauge(current) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        format_value(*current)
                    );
                }
                SeriesValue::Histogram(hist) => {
                    let mut cumulative = 0u64;
                    for (exp, count) in &hist.buckets {
                        cumulative += count;
                        let le = format_value(2f64.powi(*exp));
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            key.name,
                            render_labels(&key.labels, Some(&le)),
                            cumulative
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name,
                        render_labels(&key.labels, Some("+Inf")),
                        hist.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        format_value(hist.sum)
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        render_labels(&key.labels, None),
                        hist.count
                    );
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Formats a sample value: integral floats render without a fraction part.
fn format_value(value: f64) -> String {
    if value.is_finite() && value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_reads_back() {
        let reg = Registry::new();
        reg.counter_add("c_total", &[("s", "sa")], 2.0);
        reg.counter_add("c_total", &[("s", "sa")], 3.0);
        reg.counter_add("c_total", &[("s", "pt")], 1.0);
        assert_eq!(reg.counter_value("c_total", &[("s", "sa")]), Some(5.0));
        assert_eq!(reg.counter_value("c_total", &[("s", "pt")]), Some(1.0));
        assert_eq!(reg.counter_value("c_total", &[("s", "none")]), None);
    }

    #[test]
    fn counter_ignores_negative_and_nan() {
        let reg = Registry::new();
        reg.counter_add("c_total", &[], 1.0);
        reg.counter_add("c_total", &[], -5.0);
        reg.counter_add("c_total", &[], f64::NAN);
        assert_eq!(reg.counter_value("c_total", &[]), Some(1.0));
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let reg = Registry::new();
        reg.gauge_set("g", &[], 1.5);
        reg.gauge_set("g", &[], -2.5);
        assert_eq!(reg.gauge_value("g", &[]), Some(-2.5));
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        reg.counter_add("c_total", &[("b", "2"), ("a", "1")], 1.0);
        reg.counter_add("c_total", &[("a", "1"), ("b", "2")], 1.0);
        assert_eq!(reg.series_count(), 1);
        assert_eq!(
            reg.counter_value("c_total", &[("b", "2"), ("a", "1")]),
            Some(2.0)
        );
    }

    #[test]
    fn bucket_exp_covers_edges() {
        assert_eq!(bucket_exp(0.0), BUCKET_MIN_EXP);
        assert_eq!(bucket_exp(-3.0), BUCKET_MIN_EXP);
        assert_eq!(bucket_exp(f64::NAN), BUCKET_MIN_EXP);
        assert_eq!(bucket_exp(1.0), 0);
        assert_eq!(bucket_exp(1.1), 1);
        assert_eq!(bucket_exp(2.0), 1);
        assert_eq!(bucket_exp(1e300), BUCKET_MAX_EXP);
        assert_eq!(bucket_exp(1e-300), BUCKET_MIN_EXP);
    }

    #[test]
    fn histogram_counts_and_sum() {
        let reg = Registry::new();
        for v in [0.5, 1.0, 2.0, 4.0] {
            reg.histogram_observe("h", &[], v);
        }
        assert_eq!(reg.histogram_count("h", &[]), Some(4));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE h histogram"));
        assert!(text.contains("h_count 4"));
        assert!(text.contains("h_sum 7.5"));
        assert!(text.contains("le=\"+Inf\"} 4"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = Registry::new();
        reg.histogram_observe("h", &[], 0.5);
        reg.histogram_observe("h", &[], 0.5);
        reg.histogram_observe("h", &[], 8.0);
        let text = reg.render_prometheus();
        // 0.5 lands in the 2^-1 bucket, 8.0 in the 2^3 bucket; the later
        // bucket line must include the earlier observations.
        assert!(text.contains("h_bucket{le=\"0.5\"} 2"), "{text}");
        assert!(text.contains("h_bucket{le=\"8\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"), "{text}");
    }

    #[test]
    fn concurrent_updates_all_land() {
        let reg = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        reg.counter_add("c_total", &[], 1.0);
                        reg.histogram_observe("h", &[], 2.0);
                    }
                });
            }
        });
        assert_eq!(reg.counter_value("c_total", &[]), Some(800.0));
        assert_eq!(reg.histogram_count("h", &[]), Some(800));
    }

    #[test]
    fn prometheus_render_has_headers_and_escapes() {
        let reg = Registry::new();
        reg.describe("c_total", "a counter with \"quotes\"\nand newline");
        reg.counter_add("c_total", &[("path", "a\"b\\c")], 1.0);
        reg.gauge_set("g", &[], 0.25);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP c_total a counter with \"quotes\"\\nand newline"));
        assert!(text.contains("# TYPE c_total counter"));
        assert!(text.contains("c_total{path=\"a\\\"b\\\\c\"} 1"));
        assert!(text.contains("# TYPE g gauge"));
        assert!(text.contains("g 0.25"));
        // Exactly one TYPE header per metric name.
        assert_eq!(text.matches("# TYPE c_total").count(), 1);
    }
}
