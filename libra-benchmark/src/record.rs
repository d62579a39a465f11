//! What a run records: the metric definitions (mirrored by `BENCHMARK.json`),
//! failure counts, the result file with its provenance, and `--compare`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use tbr_common::hostprof::HostMeta;
use tbr_common::json::{self, Value};

use crate::stats::Summary;

/// One metric: name, unit, direction, the statistic a run reports as its
/// value, and for end-to-end metrics the share of the parent's value by
/// which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub value: Stat,
    pub bound: Option<f64>,
}

/// The statistic of a metric's samples that a run reports as its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The median sample.
    Median,
    /// The smallest sample. Every pass of a run does the same work, and host
    /// interference only ever slows a pass, so the fastest pass is the one
    /// the host disturbed least. A slow spell that covers most of a run
    /// moves the median but not the fastest pass (see README.md). Passes of
    /// several steps are assembled step by step first ([`crate::stats::assemble`]).
    Fastest,
}

const fn e2e(name: &'static str, unit: &'static str, value: Stat, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        value,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        value: Stat::Median,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
        value: Stat::Median,
        bound: None,
    }
}

/// What a user of `libra-sim` sees; measured with tracing off, and times
/// scaled to the reference host speed ([`crate::calibration`]).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Stat::Fastest, 0.25),
    e2e("ns_per_event", "ns", Stat::Fastest, 0.25),
    // Each sample is already the fastest of a group of set-up passes.
    e2e("setup_s", "s", Stat::Median, 0.25),
    e2e("peak_rss_mb", "MB", Stat::Median, 0.25),
];

/// Layer metrics of the traced run. Layers not exercised by a workload
/// report 0 there.
pub const PER_LAYER: [MetricDef; 49] = [
    lower("raster_unit.front_end_ns", "ns"),
    lower("raster_unit.warp_exec_ns", "ns"),
    lower("hierarchy.l2_accesses", "count"),
    higher("hierarchy.l2_hit_ratio", "ratio"),
    lower("dram.reads", "count"),
    lower("dram.writes", "count"),
    higher("dram.row_hit_ratio", "ratio"),
    lower("dram.avg_latency_cycles", "cycles"),
    higher("raster_unit.texture_l1_hit_ratio", "ratio"),
    higher("raster_unit.tile_cache_hit_ratio", "ratio"),
    lower("raster_phase.ns", "ns"),
    lower("raster_phase.events", "count"),
    lower("raster_phase.ns_per_event", "ns"),
    lower("raster_phase.residual_ns", "ns"),
    lower("event_loop.par2_ns", "ns"),
    higher("event_loop.par2_over_heap", "ratio"),
    lower("signature.ns", "ns"),
    lower("signature.tiles_checked", "count"),
    higher("signature.tiles_discarded", "count"),
    higher("signature.discard_ratio", "ratio"),
    lower("geometry_phase.ns", "ns"),
    lower("geometry_phase.events", "count"),
    higher("geometry_phase.vertex_cache_hit_ratio", "ratio"),
    lower("workloads.scene_ns", "ns"),
    lower("scheduler.plan_ns", "ns"),
    higher("scheduler.feedback_share", "ratio"),
    higher("scheduler.temperature_share", "ratio"),
    higher("campaign.utilization", "ratio"),
    lower("campaign.longest_job_s", "s"),
    lower("campaign.steals", "count"),
    lower("checkpoint.bytes", "B"),
    lower("checkpoint.json_bytes", "B"),
    lower("checkpoint.resume_s", "s"),
    lower("checkpoint.resume_json_s", "s"),
    lower("service.first_result_s", "s"),
    lower("service.report_tail_s", "s"),
    lower("service.report_bytes", "B"),
    lower("service.worker_crashes", "count"),
    lower("gpu.sim_cycles", "cycles"),
    lower("gpu.micro_events", "count"),
    lower("stats.fragments", "count"),
    lower("stats.warps", "count"),
    lower("stats.instructions", "count"),
    lower("stats.texture_requests", "count"),
    lower("gpu.collect_ns", "ns"),
    lower("proc.cpu_s", "s"),
    lower("trace.mirror_ns", "ns"),
    lower("trace.overhead_pct", "%"),
    higher("trace.mirror_ok", "flag"),
];

/// Looks a metric up in either table.
///
/// # Panics
/// Panics on a name in neither table: a typo in this program.
pub fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

/// Operations attempted and failed. An operation is one job: a campaign job,
/// a `run` process or a service job. A pass whose output fails a check
/// counts all of its jobs as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, jobs: usize, ok: bool) {
        self.attempted += jobs as u64;
        if !ok {
            self.failed += jobs as u64;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

impl Stat {
    /// The statistic of `samples`.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Self::Median => Summary::of(samples).median,
            Self::Fastest => Summary::of(samples).min,
        }
    }

    /// How far `samples` leave the statistic uncertain, as a share of it:
    /// the quartile spread around a median, and the distance from the
    /// fastest pass up to the first quartile for a fastest pass (a slow spell
    /// over the other passes does not make the fastest one less certain).
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn spread(self, samples: &[f64]) -> f64 {
        let s = Summary::of(samples);
        match self {
            Self::Median => s.spread(),
            Self::Fastest if s.min == 0.0 => 0.0,
            Self::Fastest => (s.p25.max(s.min) - s.min) / s.min.abs(),
        }
    }
}

/// One metric's samples on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub def: &'static MetricDef,
    pub samples: Vec<f64>,
}

impl Series {
    /// What the run reports for this metric.
    pub fn value(&self) -> f64 {
        self.def.value.of(&self.samples)
    }
}

/// Everything measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub tally: Tally,
    pub metrics: Vec<Series>,
}

/// Which build and host produced a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Short git revision, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Whether `git status --porcelain` listed changes; `None` outside git.
    pub dirty: Option<bool>,
    pub rustc: String,
    /// FNV-1a 64 digest of the `libra-sim` binary that was timed.
    pub sim_fnv64: u64,
    pub cores: usize,
    pub utc: String,
}

/// The host-speed calibration of a timed run (see [`crate::calibration`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The fastest and the median kernel time of the run.
    pub fastest_ns: f64,
    pub median_ns: f64,
    pub n: usize,
    /// What every time of the run was multiplied by.
    pub factor: f64,
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

impl Provenance {
    /// Captures the provenance of a run from the repository root. Git is only
    /// consulted when the root itself is a checkout, so a copy of the tree
    /// inside some other repository is never stamped with that one's revision.
    pub fn capture(sim: &Path) -> Result<Self, String> {
        let host = HostMeta::capture();
        let in_git = Path::new(".git").exists();
        let bytes = std::fs::read(sim).map_err(|e| format!("reading {}: {e}", sim.display()))?;
        Ok(Self {
            git_rev: if in_git {
                host.git_rev
            } else {
                "unknown".into()
            },
            dirty: in_git
                .then(|| command_output("git", &["status", "--porcelain"]))
                .flatten()
                .map(|s| !s.trim().is_empty()),
            rustc: command_output("rustc", &["-V"])
                .map_or("unknown".into(), |s| s.trim().to_string()),
            sim_fnv64: fnv64(&bytes),
            cores: host.cores,
            utc: host.utc,
        })
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    json::escape_into(&mut out, s);
    out.push('"');
    out
}

/// A finite number as JSON (the tables never produce anything else; a
/// non-finite value would be a bug, written as `null` rather than bad JSON).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The run as a `libra-benchmark-v1` result document. Samples are the scaled
/// ones; dividing by `calibration.factor` gives the raw times back.
pub fn to_json(
    prov: &Provenance,
    seed: u64,
    trace: bool,
    calibration: Option<&Calibration>,
    results: &[WorkloadResult],
) -> String {
    let calibration = calibration.map_or("null".into(), |c| {
        format!(
            "{{\"reference_ns\": {}, \"fastest_ns\": {}, \"median_ns\": {}, \"n\": {}, \"factor\": {}}}",
            number(crate::calibration::REFERENCE_NS),
            number(c.fastest_ns),
            number(c.median_ns),
            c.n,
            number(c.factor)
        )
    });
    let mut total = Tally::default();
    let mut workloads = Vec::new();
    for r in results {
        total.add(r.tally);
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|s| {
                let sum = Summary::of(&s.samples);
                let samples: Vec<String> = s.samples.iter().map(|&v| number(v)).collect();
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}, \"value\": {}, \
                     \"min\": {}, \"median\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}, \"samples\": [{}]}}",
                    quoted(s.def.name),
                    quoted(s.def.unit),
                    if s.def.lower_is_better { "lower" } else { "higher" },
                    s.def.bound.map_or("null".into(), number),
                    number(s.value()),
                    number(sum.min),
                    number(sum.median),
                    number(sum.p25),
                    number(sum.p75),
                    sum.n,
                    samples.join(", ")
                )
            })
            .collect();
        workloads.push(format!(
            "{{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"metrics\": [\n      {}\n    ]}}",
            quoted(r.name),
            r.tally.attempted,
            r.tally.failed,
            number(r.tally.failed_frac()),
            metrics.join(",\n      ")
        ));
    }
    format!(
        "{{\n  \"schema\": \"libra-benchmark-v1\",\n  \"provenance\": {{\"git_rev\": {}, \"dirty\": {}, \
         \"rustc\": {}, \"sim_fnv64\": \"{:#018x}\", \"cores\": {}, \"utc\": {}}},\n  \"seed\": {seed}, \
         \"trace\": {trace}, \"calibration\": {calibration},\n  \"attempted\": {}, \"failed\": {}, \
         \"failed_frac\": {},\n  \"workloads\": [\n    {}\n  ]\n}}\n",
        quoted(&prov.git_rev),
        prov.dirty.map_or("null".into(), |d| d.to_string()),
        quoted(&prov.rustc),
        prov.sim_fnv64,
        prov.cores,
        quoted(&prov.utc),
        total.attempted,
        total.failed,
        number(total.failed_frac()),
        workloads.join(",\n    ")
    )
}

/// The benchmark's last stdout line: one JSON object with every metric's
/// value. With several workloads, metric names are prefixed `workload/`.
pub fn summary_line(results: &[WorkloadResult], correct: bool) -> String {
    let mut total = Tally::default();
    let mut metrics = Vec::new();
    for r in results {
        total.add(r.tally);
        for s in &r.metrics {
            let name = if results.len() == 1 {
                s.def.name.to_string()
            } else {
                format!("{}/{}", r.name, s.def.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(&name),
                number(s.value()),
                quoted(s.def.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.failed,
        metrics.join(", ")
    )
}

/// A human-readable table of the results (to stderr).
pub fn render(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for r in results {
        let _ = writeln!(
            out,
            "{}: {} jobs attempted, {} failed (failed_frac {})",
            r.name,
            r.tally.attempted,
            r.tally.failed,
            r.tally.failed_frac()
        );
        for s in &r.metrics {
            let sum = Summary::of(&s.samples);
            let _ = writeln!(
                out,
                "  {:<40} value {:>14.6} {:<6} min {:>14.6} median {:>14.6} p25 {:>14.6} p75 {:>14.6} n {}",
                s.def.name, s.value(), s.def.unit, sum.min, sum.median, sum.p25, sum.p75, sum.n
            );
        }
    }
    out
}

/// How a change's metric compares with its parent's, by the value each run
/// reports for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every change sample beats every parent sample. A smaller gain is not
    /// resolved by one pair of runs: the host's speed drifts between runs by
    /// more than a run's own spread shows.
    Better,
    /// Worse by no more than the bound.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The spread of either side is wider than the bound (see [`Stat::spread`]).
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Within => "within bound",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one (end-to-end metric, workload) pair.
///
/// # Panics
/// Panics on a metric without a bound, or on an empty sample.
pub fn verdict(d: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = d.bound.expect("end-to-end metrics have bounds");
    let better = |a: f64, b: f64| if d.lower_is_better { a < b } else { a > b };
    if change.iter().all(|&x| parent.iter().all(|&y| better(x, y))) {
        return Verdict::Better;
    }
    if d.value.spread(parent).max(d.value.spread(change)) > bound {
        return Verdict::Unresolved;
    }
    let sign = if d.lower_is_better { 1.0 } else { -1.0 };
    let (pv, cv) = (d.value.of(parent), d.value.of(change));
    let worse_by = sign * (cv - pv) / pv.abs();
    if worse_by <= bound {
        Verdict::Within
    } else {
        Verdict::Worse
    }
}

/// (workload, metric) -> samples, from a result file.
fn load(path: &str) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("libra-benchmark-v1") {
        return Err(format!("{path}: not a libra-benchmark-v1 result"));
    }
    let mut out = Vec::new();
    for w in doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let wname = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: workload without a name"))?;
        for m in w
            .get("metrics")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            let mname = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: metric without a name"))?;
            let samples: Option<Vec<f64>> = m
                .get("samples")
                .and_then(Value::as_array)
                .map(|a| a.iter().map(Value::as_f64).collect::<Option<Vec<f64>>>())
                .unwrap_or_default()
                .filter(|s| !s.is_empty());
            let samples =
                samples.ok_or_else(|| format!("{path}: {wname}/{mname} has no samples"))?;
            out.push((wname.to_string(), mname.to_string(), samples));
        }
    }
    Ok(out)
}

/// `--compare PARENT CHANGE`: one line per (end-to-end metric, workload)
/// present in both files. Returns the table and whether any pair is worse.
pub fn compare(parent: &str, change: &str) -> Result<(String, bool), String> {
    let (p, c) = (load(parent)?, load(change)?);
    let mut out = format!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    let mut any_worse = false;
    for (w, m, ps) in &p {
        let Some(d) = END_TO_END.iter().find(|d| d.name == m) else {
            continue;
        };
        let Some((_, _, cs)) = c.iter().find(|(cw, cm, _)| cw == w && cm == m) else {
            continue;
        };
        let v = verdict(d, ps, cs);
        any_worse |= v == Verdict::Worse;
        let (pm, cm) = (d.value.of(ps), d.value.of(cs));
        let _ = writeln!(
            out,
            "{w:<14} {m:<13} {:>11.6} {:<2} {:>11.6} {:<2} {:>+7.2}% {:>6.1}%  {}",
            pm,
            d.unit,
            cm,
            d.unit,
            (cm - pm) / pm * 100.0,
            d.bound.expect("end-to-end metrics have bounds") * 100.0,
            v.label()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_every_job_of_a_failed_pass() {
        let mut t = Tally::default();
        t.record(32, true);
        t.record(32, false);
        t.record(32, true);
        assert_eq!(
            t,
            Tally {
                attempted: 96,
                failed: 32
            }
        );
        assert_eq!(t.failed_frac(), 1.0 / 3.0);
        let mut total = Tally::default();
        assert_eq!(total.failed_frac(), 0.0);
        total.add(t);
        total.record(4, true);
        assert_eq!(
            total,
            Tally {
                attempted: 100,
                failed: 32
            }
        );
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = e2e("t", "s", Stat::Median, 0.10);
        let higher = MetricDef {
            lower_is_better: false,
            ..lower
        };
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&lower, &parent, &[1.03, 1.04, 1.02, 1.03]),
            Verdict::Within
        );
        assert_eq!(
            verdict(&lower, &parent, &[1.20, 1.22, 1.21, 1.19]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &parent, &[0.80, 0.81, 0.79]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&higher, &parent, &[0.80, 0.81, 0.79]),
            Verdict::Worse
        );
        // Too noisy to tell, and not better on every sample.
        assert_eq!(
            verdict(&lower, &parent, &[0.5, 1.5, 1.0, 0.7, 1.3]),
            Verdict::Unresolved
        );
        // A slow spell over most of the change's run moves its median past
        // the bound, but not its fastest pass.
        let slowed = [1.00, 1.13, 1.14, 1.13, 1.12];
        assert_eq!(verdict(&lower, &parent, &slowed), Verdict::Worse);
        let fastest = e2e("t", "s", Stat::Fastest, 0.10);
        assert_eq!(verdict(&fastest, &parent, &slowed), Verdict::Within);
        // A slow spell over half the run leaves the median unresolved; the
        // fastest passes still agree with each other.
        let half = [1.00, 1.01, 1.60, 1.70, 1.65, 1.02, 1.62, 1.66];
        assert_eq!(verdict(&lower, &parent, &half), Verdict::Unresolved);
        assert_eq!(verdict(&fastest, &parent, &half), Verdict::Within);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<Value> {
            doc.get(key).and_then(Value::as_array).expect(key).to_vec()
        };
        let workloads: Vec<_> = names("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let want: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, want);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = names(key);
            assert_eq!(entries.len(), table.len(), "{key}");
            for (e, d) in entries.iter().zip(table) {
                assert_eq!(e.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(
                    e.get("unit").and_then(Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = if d.lower_is_better { "lower" } else { "higher" };
                assert_eq!(
                    e.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
                assert_eq!(
                    e.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn result_file_round_trips_through_compare() {
        let prov = Provenance {
            git_rev: "abc".into(),
            dirty: Some(true),
            rustc: "rustc 1".into(),
            sim_fnv64: 7,
            cores: 2,
            utc: "2026-01-01T00:00:00Z".into(),
        };
        let result = |wall: f64| WorkloadResult {
            name: "paper-sweep",
            tally: Tally {
                attempted: 64,
                failed: 0,
            },
            metrics: vec![
                Series {
                    def: def("wall_s"),
                    samples: vec![wall, wall * 1.01, wall * 0.99],
                },
                Series {
                    def: def("trace.mirror_ok"),
                    samples: vec![1.0],
                },
            ],
        };
        let dir = std::env::temp_dir().join(format!("libra-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let host = Calibration {
            fastest_ns: 1e7,
            median_ns: 1.1e7,
            n: 3,
            factor: 0.96,
        };
        std::fs::write(&a, to_json(&prov, 0, false, Some(&host), &[result(1.0)])).unwrap();
        std::fs::write(&b, to_json(&prov, 0, true, None, &[result(2.0)])).unwrap();
        for path in [&a, &b] {
            let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            assert!(doc.get("calibration").is_some(), "{}", path.display());
        }
        let (table, worse) = compare(a.to_str().unwrap(), b.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(worse, "{table}");
        assert!(
            table.contains("paper-sweep") && table.contains("wall_s") && table.contains("worse"),
            "{table}"
        );
        assert!(
            !table.contains("trace.mirror_ok"),
            "per-layer metrics carry no bound: {table}"
        );
        let line = summary_line(&[result(1.0)], true);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(64));
        // `wall_s` reports the fastest of its passes.
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|w| w.get("value"))
                .and_then(Value::as_f64),
            Some(0.99)
        );
    }
}
