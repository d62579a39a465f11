//! Reader for the `libra-metrics-v1` reports that `libra-sim` writes with
//! `--report-json`: the numbers the benchmark divides by, and the checks it
//! makes on every pass's output.

use std::collections::{BTreeMap, BTreeSet};

use tbr_common::json;

/// What one report says about the pass that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSummary {
    /// Summed `micro_events` over every job and frame.
    pub micro_events: u64,
    /// Distinct jobs with at least one frame (`run` reports, which carry no
    /// `job` label, count as one job).
    pub jobs: usize,
    /// Job-frames reported (one `micro_events` entry each).
    pub frames: usize,
}

/// Parses a report and checks that hits + misses = accesses for every cache
/// level of every frame of every job.
pub fn read(text: &str) -> Result<ReportSummary, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid report JSON: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("libra-metrics-v1") {
        return Err("report schema is not libra-metrics-v1".into());
    }
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_array())
        .ok_or("report has no metrics array")?;

    let mut summary = ReportSummary {
        micro_events: 0,
        jobs: 0,
        frames: 0,
    };
    let mut jobs = BTreeSet::new();
    // (labels) -> [accesses, hits, misses]
    let mut caches: BTreeMap<String, [Option<u64>; 3]> = BTreeMap::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("metric without a name")?;
        let labels = m
            .get("labels")
            .and_then(|l| l.as_object())
            .ok_or("metric without labels")?;
        let field = match name {
            "micro_events" => None,
            "cache_accesses" => Some(0),
            "cache_hits" => Some(1),
            "cache_misses" => Some(2),
            _ => continue,
        };
        let value = m
            .get("value")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("{name}: value is not an exact integer"))?;
        match field {
            None => {
                summary.micro_events += value;
                summary.frames += 1;
                jobs.insert(
                    labels
                        .get("job")
                        .and_then(|j| j.as_str())
                        .unwrap_or("")
                        .to_string(),
                );
            }
            Some(i) => {
                let key: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                caches.entry(key.join(",")).or_default()[i] = Some(value);
            }
        }
    }
    for (key, [accesses, hits, misses]) in &caches {
        match (accesses, hits, misses) {
            (Some(a), Some(h), Some(m)) if h + m == *a => {}
            _ => {
                return Err(format!(
                    "cache counters do not add up at {{{key}}}: accesses {accesses:?}, \
                     hits {hits:?}, misses {misses:?}"
                ))
            }
        }
    }
    summary.jobs = jobs.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, job: &str, frame: &str, cache: Option<&str>, value: u64) -> String {
        let cache = cache
            .map(|c| format!(",\"cache\":\"{c}\""))
            .unwrap_or_default();
        format!(
            "{{\"name\":\"{name}\",\"labels\":{{\"job\":\"{job}\",\"frame\":\"{frame}\"{cache}}},\
             \"type\":\"counter\",\"value\":{value}}}"
        )
    }

    fn doc(metrics: &[String]) -> String {
        format!(
            "{{\"schema\":\"libra-metrics-v1\",\"metrics\":[{}]}}",
            metrics.join(",")
        )
    }

    #[test]
    fn sums_events_and_counts_jobs_and_frames() {
        let text = doc(&[
            metric("micro_events", "0", "0", None, 100),
            metric("micro_events", "0", "1", None, 50),
            metric("micro_events", "1", "0", None, 7),
            metric("fragments", "1", "0", None, 9),
            metric("cache_accesses", "1", "0", Some("l2"), 10),
            metric("cache_hits", "1", "0", Some("l2"), 6),
            metric("cache_misses", "1", "0", Some("l2"), 4),
        ]);
        assert_eq!(
            read(&text),
            Ok(ReportSummary {
                micro_events: 157,
                jobs: 2,
                frames: 3
            })
        );
    }

    #[test]
    fn an_empty_report_is_zero_jobs() {
        let s = read("{\"schema\":\"libra-metrics-v1\",\"metrics\":[]}").unwrap();
        assert_eq!(
            s,
            ReportSummary {
                micro_events: 0,
                jobs: 0,
                frames: 0
            }
        );
    }

    #[test]
    fn rejects_broken_cache_conservation() {
        let text = doc(&[
            metric("cache_accesses", "0", "2", Some("texture"), 10),
            metric("cache_hits", "0", "2", Some("texture"), 6),
            metric("cache_misses", "0", "2", Some("texture"), 3),
        ]);
        let err = read(&text).unwrap_err();
        assert!(
            err.contains("cache=texture") && err.contains("frame=2"),
            "{err}"
        );
        let missing = doc(&[metric("cache_hits", "0", "0", Some("l2"), 1)]);
        assert!(read(&missing).is_err());
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(read("{\"schema\":\"other\",\"metrics\":[]}").is_err());
        assert!(read("not json").is_err());
        let fractional = doc(&["{\"name\":\"micro_events\",\"labels\":{},\"value\":1.5}".into()]);
        assert!(read(&fractional).is_err());
    }
}
