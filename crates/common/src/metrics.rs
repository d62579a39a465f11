//! Typed metrics registry: `Counter` / `Gauge` / `Histogram` values with labels,
//! serialisable to JSON.
//!
//! The GPU model, memory hierarchy and scheduler publish their per-frame counters
//! into one [`MetricsRegistry`], replacing ad-hoc "pick fields out of
//! `FrameStats`" plumbing with a uniform, enumerable namespace. Keys are ordered
//! (`BTreeMap`), so serialisation order is deterministic and diffs between two
//! reports are meaningful.
//!
//! ```
//! use tbr_common::metrics::{MetricsRegistry, MetricValue};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.add_counter("dram_reads", &[("frame", "0")], 42);
//! reg.add_counter("dram_reads", &[("frame", "0")], 8); // accumulates
//! reg.set_gauge("texture_hit_ratio", &[("frame", "0")], 0.87);
//! assert_eq!(reg.counter_value("dram_reads", &[("frame", "0")]), Some(50));
//! assert!(reg.to_json().contains("\"dram_reads\""));
//! ```

use std::collections::BTreeMap;

use crate::json::escape_into as json_escape_into;

/// One metric's identity: name plus a label set (sorted for a canonical order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (snake_case by convention).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key with canonically sorted labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        Self { name: name.to_string(), labels }
    }
}

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically accumulated integer (merges by addition).
    Counter(u64),
    /// Point-in-time float (merges by last-write-wins).
    Gauge(f64),
    /// Bucketed distribution with a fixed bucket width in cycles.
    Histogram {
        /// Bucket width (e.g. cycles per DRAM interval).
        width: u64,
        /// Per-bucket counts.
        buckets: Vec<u64>,
    },
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) of a histogram, linearly
    /// interpolated inside its fixed-width bucket: bucket `b` is read as the
    /// half-open value range `[b·width, (b+1)·width)`. Returns `None` for
    /// non-histogram values and for empty histograms (all buckets zero), so a
    /// missing distribution is distinguishable from a zero-valued one.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let MetricValue::Histogram { width, buckets } = self else {
            return None;
        };
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let width = (*width).max(1) as f64;
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (b, &count) in buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cum + count;
            if next as f64 >= rank {
                let into = ((rank - cum as f64) / count as f64).clamp(0.0, 1.0);
                return Some((b as f64 + into) * width);
            }
            cum = next;
        }
        // Unreachable for consistent inputs (rank ≤ total); cover it anyway.
        Some(buckets.len() as f64 * width)
    }
}

/// An ordered collection of labelled metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    /// Adds to a counter, creating it at 0 first if needed.
    ///
    /// # Panics
    /// Panics if the key already holds a non-counter value (a type confusion bug
    /// at the publishing site).
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        let key = MetricKey::new(name, labels);
        match self.entries.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric `{name}` is a {}, not a counter", other.type_name()),
        }
    }

    /// Sets a gauge (last write wins).
    ///
    /// # Panics
    /// Panics if the key already holds a non-gauge value.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = MetricKey::new(name, labels);
        match self.entries.entry(key).or_insert(MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric `{name}` is a {}, not a gauge", other.type_name()),
        }
    }

    /// Installs (or replaces) a histogram.
    pub fn set_histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        width: u64,
        buckets: Vec<u64>,
    ) {
        let key = MetricKey::new(name, labels);
        self.entries.insert(key, MetricValue::Histogram { width, buckets });
    }

    /// Looks up a metric.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&MetricKey::new(name, labels))
    }

    /// Convenience: the value of a counter, if present and a counter.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Convenience: the value of a gauge, if present and a gauge.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Merges another registry into this one: counters add, gauges take the
    /// other's value, histograms add bucket-wise when widths match (and are
    /// replaced otherwise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, value) in &other.entries {
            match (self.entries.get_mut(key), value) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (
                    Some(MetricValue::Histogram { width: wa, buckets: ba }),
                    MetricValue::Histogram { width: wb, buckets: bb },
                ) if wa == wb => {
                    if ba.len() < bb.len() {
                        ba.resize(bb.len(), 0);
                    }
                    for (dst, src) in ba.iter_mut().zip(bb) {
                        *dst += src;
                    }
                }
                (slot, v) => {
                    let v = v.clone();
                    match slot {
                        Some(s) => *s = v,
                        None => {
                            self.entries.insert(key.clone(), v);
                        }
                    }
                }
            }
        }
    }

    /// Serialises the registry as a JSON document:
    /// `{"schema":"libra-metrics-v1","metrics":[{...}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 96);
        out.push_str("{\"schema\":\"libra-metrics-v1\",\"metrics\":[");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape_into(&mut out, &key.name);
            out.push_str("\",\"labels\":{");
            for (j, (k, v)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(&mut out, k);
                out.push_str("\":\"");
                json_escape_into(&mut out, v);
                out.push('"');
            }
            out.push_str("},\"type\":\"");
            out.push_str(value.type_name());
            out.push_str("\",");
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("\"value\":{c}")),
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("\"value\":{}", finite_json_number(*g)))
                }
                MetricValue::Histogram { width, buckets } => {
                    out.push_str(&format!("\"width\":{width},\"buckets\":["));
                    for (j, b) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Renders a float as a valid JSON number (non-finite values degrade to 0).
fn finite_json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never prints exponents for ordinary magnitudes; it also
        // prints integers without a dot, which is still valid JSON.
        s
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.add_counter("hits", &[("cache", "l2")], 3);
        r.add_counter("hits", &[("cache", "l2")], 4);
        r.set_gauge("ratio", &[], 0.5);
        r.set_gauge("ratio", &[], 0.75);
        assert_eq!(r.counter_value("hits", &[("cache", "l2")]), Some(7));
        assert_eq!(r.gauge_value("ratio", &[]), Some(0.75));
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = MetricsRegistry::new();
        r.add_counter("x", &[("a", "1"), ("b", "2")], 1);
        r.add_counter("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.counter_value("x", &[("b", "2"), ("a", "1")]), Some(2));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("x", &[], 1.0);
        r.add_counter("x", &[], 1);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.add_counter("c", &[], 1);
        a.set_histogram("h", &[], 10, vec![1, 2]);
        let mut b = MetricsRegistry::new();
        b.add_counter("c", &[], 2);
        b.add_counter("only_b", &[], 5);
        b.set_histogram("h", &[], 10, vec![0, 1, 9]);
        b.set_gauge("g", &[], 3.5);
        a.merge(&b);
        assert_eq!(a.counter_value("c", &[]), Some(3));
        assert_eq!(a.counter_value("only_b", &[]), Some(5));
        assert_eq!(a.gauge_value("g", &[]), Some(3.5));
        assert_eq!(
            a.get("h", &[]),
            Some(&MetricValue::Histogram { width: 10, buckets: vec![1, 3, 9] })
        );
    }

    #[test]
    fn json_renders_all_types() {
        let mut r = MetricsRegistry::new();
        r.add_counter("reads", &[("frame", "0")], 7);
        r.set_gauge("ratio", &[], 0.25);
        r.set_histogram("intervals", &[], 5000, vec![3, 0, 1]);
        let j = r.to_json();
        assert!(j.contains("\"schema\":\"libra-metrics-v1\""));
        assert!(j.contains("\"value\":7"));
        assert!(j.contains("\"value\":0.25"));
        assert!(j.contains("\"width\":5000,\"buckets\":[3,0,1]"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 10 samples spread as [4, 4, 2] over width-5 buckets.
        let h = MetricValue::Histogram { width: 5, buckets: vec![4, 4, 2] };
        // p50 → rank 5, one sample into the second bucket: (1 + 1/4) * 5.
        assert_eq!(h.quantile(0.50), Some(6.25));
        // p95 → rank 9.5, 1.5 samples into the third bucket: (2 + 1.5/2) * 5.
        assert_eq!(h.quantile(0.95), Some(13.75));
        assert_eq!(h.quantile(0.99), Some(14.75));
        // Extremes stay within the populated value range.
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(15.0));
        // Out-of-range q clamps instead of extrapolating.
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
    }

    #[test]
    fn quantiles_skip_leading_empty_buckets() {
        let h = MetricValue::Histogram { width: 2, buckets: vec![0, 0, 10] };
        assert_eq!(h.quantile(0.0), Some(4.0));
        assert_eq!(h.quantile(0.50), Some(5.0));
        // A degenerate zero width is treated as width 1.
        let d = MetricValue::Histogram { width: 0, buckets: vec![0, 10] };
        assert_eq!(d.quantile(0.50), Some(1.5));
    }

    #[test]
    fn quantiles_are_none_for_empty_or_non_histograms() {
        assert_eq!(MetricValue::Counter(7).quantile(0.50), None);
        assert_eq!(MetricValue::Gauge(1.0).quantile(0.95), None);
        let empty = MetricValue::Histogram { width: 10, buckets: vec![0, 0] };
        assert_eq!(empty.quantile(0.99), None);
        let none = MetricValue::Histogram { width: 10, buckets: Vec::new() };
        assert_eq!(none.quantile(0.5), None);
    }

    #[test]
    fn non_finite_gauges_degrade_to_zero() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("bad", &[], f64::NAN);
        assert!(r.to_json().contains("\"value\":0"));
    }

    #[test]
    fn serialisation_order_is_deterministic() {
        let mut a = MetricsRegistry::new();
        a.add_counter("z", &[], 1);
        a.add_counter("a", &[], 1);
        let mut b = MetricsRegistry::new();
        b.add_counter("a", &[], 1);
        b.add_counter("z", &[], 1);
        assert_eq!(a.to_json(), b.to_json());
        let ja = a.to_json();
        assert!(ja.find("\"a\"").unwrap() < ja.find("\"z\"").unwrap());
    }
}
