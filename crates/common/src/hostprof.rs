//! Host wall-clock profiler for the raster phase: its event-loop drivers and
//! the idle-core front-end helper.
//!
//! The [`trace`](crate::trace) module and the metrics registry measure
//! *simulated cycles* — deterministic, host-independent, bit-identical at any
//! thread count. Host-side losses live on the other clock: barrier waits,
//! coordinator serialization, shard imbalance and a helper thread's wasted
//! work cost *host nanoseconds* and leave no mark on any simulated counter.
//! This module is the host-time twin of the tracer: a thread-local,
//! runtime-gated collector every raster phase publishes one [`PhaseProfile`]
//! into, under every driver. Each records the phase's wall time and how its
//! tiles were rasterised: prepared by the idle-core helper, rasterised inline
//! by the event loop, or rasterised by the helper too late to be used, and
//! how long the helper spent rasterising. The parallel driver also records
//! per-worker epoch timelines (busy spans, Local-run lengths), coordinator
//! commit/barrier time, per-RU event occupancy and the Local-vs-Shared
//! classification split: `local_events` ran on the worker and coordinator
//! lanes, `shared_commits` were committed one at a time from the
//! coordinator's parking tree.
//!
//! # Zero overhead when disabled
//!
//! Exactly the [`trace`](crate::trace) design: a thread-local flag checked by
//! [`is_enabled`], a collector installed by [`start`] and drained by
//! [`finish`]. Instrumentation sites guard every `Instant::now()` call and
//! every span allocation behind one branch on the flag (hoisted to a bool per
//! phase in the hot loops), so the disabled path costs a single thread-local
//! load per phase — never per event. Profiling is observation only: it reads
//! the host clock and private counters, never simulated state, so enabling it
//! cannot change any simulated statistic, golden snapshot or trace byte (the
//! observability tests pin this).
//!
//! ```
//! use tbr_common::hostprof::{self, PhaseProfile};
//!
//! assert!(!hostprof::is_enabled());
//! hostprof::start();
//! assert!(hostprof::is_enabled());
//! hostprof::record_phase(PhaseProfile::new("raster", 2, 4));
//! let p = hostprof::finish().expect("collector was installed");
//! assert_eq!(p.phases.len(), 1);
//! assert!(!hostprof::is_enabled());
//! ```

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::Instant;

use crate::json::escape_into as json_escape_into;
use crate::metrics::MetricValue;
use crate::trace::{EventKind, TraceEvent, Track};

/// Spans kept per lane before coalescing into counters only (memory guard for
/// long campaigns; dropped spans are still counted in `dropped_spans`).
pub const MAX_LANE_SPANS: usize = 2048;

/// Buckets of the Local-run-length histogram (width 1, last bucket overflow).
pub const RUN_LENGTH_BUCKETS: usize = 65;

/// One host-time interval on a worker or coordinator lane, in nanoseconds
/// since the profile origin ([`start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSpan {
    /// Static span label ("epoch" for a drain interval).
    pub name: &'static str,
    /// Start, ns since the profile origin.
    pub start_ns: u64,
    /// End, ns since the profile origin.
    pub end_ns: u64,
}

/// The host-time timeline of one thread of the parallel driver across one
/// raster phase: the coordinator's own drain lane, or one worker's lane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerLane {
    /// Thread slot (0 = coordinator, workers from 1).
    pub worker: usize,
    /// Parallel epochs this lane drained a chunk in.
    pub epochs: u64,
    /// Local micro-events this lane processed over the whole phase.
    pub local_events: u64,
    /// Per-epoch busy spans (capped at [`MAX_LANE_SPANS`]).
    pub spans: Vec<HostSpan>,
    /// Spans beyond the cap, counted instead of stored.
    pub dropped_spans: u64,
}

impl WorkerLane {
    /// A fresh lane for thread slot `worker`.
    pub fn new(worker: usize) -> Self {
        Self {
            worker,
            ..Self::default()
        }
    }

    /// Records one busy span, coalescing into `dropped_spans` past the cap.
    pub fn push_span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.spans.len() < MAX_LANE_SPANS {
            self.spans.push(HostSpan {
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped_spans += 1;
        }
    }
}

/// The host-time record of one raster phase.
///
/// The par-only fields (`commit_ns` through `coord`) stay zero under the
/// serial drivers. The coordinator-lane intervals (`commit_ns`, `coord_drain_ns`,
/// `barrier_ns`) are *disjoint* sub-intervals of `wall_ns` measured on the
/// same monotonic clock, so their fractions are each in `[0, 1]` and sum to
/// at most 1 — the invariant the serial/parallel/barrier/other split of
/// [`HostTotals::render`] builds on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseProfile {
    /// Phase label ("raster"; the collector numbers repeats on rendering).
    pub label: String,
    /// Event-loop driver: "heap", "scan" or "par".
    pub driver: &'static str,
    /// Parallel-core thread slots the phase ran with (1 = fully inline, and
    /// under the serial drivers).
    pub threads: usize,
    /// Whether the idle-core front-end helper ran beside the event loop.
    pub helper: bool,
    /// Tiles the helper rasterised and the event loop issued.
    pub tiles_prepared: u64,
    /// Tiles the event loop rasterised itself.
    pub tiles_inline: u64,
    /// Tiles the helper rasterised after the event loop had passed them: its
    /// wasted work.
    pub tiles_discarded: u64,
    /// Helper ns inside `TileRasterizer::raster`, on the helper's own clock
    /// reads: its busy time, bounded by the phase wall.
    pub helper_busy_ns: u64,
    /// Phase start, ns since the profile origin.
    pub start_ns: u64,
    /// Phase wall-clock, ns.
    pub wall_ns: u64,
    /// Coordinator ns inside serial Shared commits (`PhaseCtx::process`).
    pub commit_ns: u64,
    /// Coordinator ns draining its own Local chunks (parallelizable work).
    pub coord_drain_ns: u64,
    /// Coordinator ns waiting at epoch barriers for its workers.
    pub barrier_ns: u64,
    /// Epoch-drain invocations (serial and parallel).
    pub epochs: u64,
    /// Epochs with two or more Local RUs (fanned over the thread slots).
    pub parallel_epochs: u64,
    /// Micro-events classified Local and run on worker/coordinator lanes.
    pub local_events: u64,
    /// Micro-events classified Shared and committed serially, one at a time
    /// from the coordinator's parking tree.
    pub shared_commits: u64,
    /// Micro-events processed per RU shard (Local + Shared) — the occupancy
    /// distribution behind the imbalance statistic.
    pub ru_events: Vec<u64>,
    /// Histogram of Local-run lengths: width-1 buckets, last bucket counting
    /// runs of [`RUN_LENGTH_BUCKETS`]` - 1` events or more.
    pub run_lengths: Vec<u64>,
    /// Worker lanes (empty when the phase ran inline).
    pub workers: Vec<WorkerLane>,
    /// The coordinator's own drain lane.
    pub coord: WorkerLane,
}

impl PhaseProfile {
    /// An empty profile shell for `label` under `threads` slots and
    /// `raster_units` shards.
    pub fn new(label: &str, threads: usize, raster_units: usize) -> Self {
        Self {
            label: label.to_string(),
            threads,
            ru_events: vec![0; raster_units],
            run_lengths: vec![0; RUN_LENGTH_BUCKETS],
            ..Self::default()
        }
    }

    fn frac(&self, ns: u64) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (ns as f64 / self.wall_ns as f64).clamp(0.0, 1.0)
    }

    /// Whether the phase ran under the parallel driver (the par-only fields
    /// are meaningful).
    pub fn is_par(&self) -> bool {
        self.driver == "par"
    }

    /// Fraction of the phase wall spent in serial Shared commits.
    pub fn serial_fraction(&self) -> f64 {
        self.frac(self.commit_ns)
    }

    /// Fraction of the phase wall the coordinator spent on parallelizable
    /// Local drains.
    pub fn parallel_fraction(&self) -> f64 {
        self.frac(self.coord_drain_ns)
    }

    /// Fraction of the phase wall the coordinator spent at epoch barriers.
    pub fn barrier_fraction(&self) -> f64 {
        self.frac(self.barrier_ns)
    }

    /// The unattributed remainder (classification and parking).
    pub fn other_fraction(&self) -> f64 {
        (1.0 - self.serial_fraction() - self.parallel_fraction() - self.barrier_fraction())
            .clamp(0.0, 1.0)
    }

    /// Fraction of the phase wall the helper spent rasterising.
    pub fn helper_busy_fraction(&self) -> f64 {
        self.frac(self.helper_busy_ns)
    }

    /// Max-over-mean per-RU event occupancy (1.0 = perfectly balanced shards;
    /// 0.0 when no events were recorded).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.ru_events.iter().sum();
        if total == 0 || self.ru_events.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.ru_events.len() as f64;
        let max = *self.ru_events.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

/// A finished host-time recording: one [`PhaseProfile`] per raster phase run
/// while the collector was installed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostProfile {
    /// Phases in execution order.
    pub phases: Vec<PhaseProfile>,
}

/// Phase totals summed over a [`HostProfile`]. The par-only sums cover the
/// parallel driver's phases, and its fractions their wall.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostTotals {
    /// Phases aggregated.
    pub phases: u64,
    /// Summed phase wall-clock, ns.
    pub wall_ns: u64,
    /// Phases under the parallel driver.
    pub par_phases: u64,
    /// Summed wall-clock of the parallel driver's phases, ns.
    pub par_wall_ns: u64,
    /// Phases with the idle-core helper beside the event loop.
    pub helper_phases: u64,
    /// Summed tiles the helper prepared and the event loop issued.
    pub tiles_prepared: u64,
    /// Summed tiles the event loop rasterised itself.
    pub tiles_inline: u64,
    /// Summed tiles the helper rasterised too late to be used.
    pub tiles_discarded: u64,
    /// Summed wall-clock of the phases with the helper, ns.
    pub helper_wall_ns: u64,
    /// Summed ns the helper spent rasterising.
    pub helper_busy_ns: u64,
    /// Summed serial Shared-commit ns.
    pub commit_ns: u64,
    /// Summed coordinator Local-drain ns.
    pub coord_drain_ns: u64,
    /// Summed coordinator barrier-wait ns.
    pub barrier_ns: u64,
    /// Summed epochs.
    pub epochs: u64,
    /// Summed parallel (fanned-out) epochs.
    pub parallel_epochs: u64,
    /// Summed Local events.
    pub local_events: u64,
    /// Summed Shared commits.
    pub shared_commits: u64,
    /// Merged Local-run-length histogram (width-1 buckets).
    pub run_lengths: Vec<u64>,
}

impl HostTotals {
    fn frac(&self, ns: u64) -> f64 {
        if self.par_wall_ns == 0 {
            return 0.0;
        }
        (ns as f64 / self.par_wall_ns as f64).clamp(0.0, 1.0)
    }

    /// Share of the helper's rasterised tiles the event loop used (0 when
    /// the helper rasterised none).
    pub fn helper_useful_ratio(&self) -> f64 {
        let done = self.tiles_prepared + self.tiles_discarded;
        if done == 0 {
            return 0.0;
        }
        self.tiles_prepared as f64 / done as f64
    }

    /// Share of the helper phases' summed wall the helper spent rasterising
    /// (0 when no phase had the helper).
    pub fn helper_busy_fraction(&self) -> f64 {
        if self.helper_wall_ns == 0 {
            return 0.0;
        }
        (self.helper_busy_ns as f64 / self.helper_wall_ns as f64).clamp(0.0, 1.0)
    }

    /// Fraction of the par phases' summed wall spent in serial Shared commits.
    pub fn serial_fraction(&self) -> f64 {
        self.frac(self.commit_ns)
    }

    /// Fraction spent on coordinator-lane parallelizable drains.
    pub fn parallel_fraction(&self) -> f64 {
        self.frac(self.coord_drain_ns)
    }

    /// Fraction spent waiting at epoch barriers.
    pub fn barrier_fraction(&self) -> f64 {
        self.frac(self.barrier_ns)
    }

    /// The unattributed remainder, clamped to `[0, 1]`.
    pub fn other_fraction(&self) -> f64 {
        (1.0 - self.serial_fraction() - self.parallel_fraction() - self.barrier_fraction())
            .clamp(0.0, 1.0)
    }

    /// Share of micro-events classified Local (0 when nothing was recorded).
    pub fn local_share(&self) -> f64 {
        let total = self.local_events + self.shared_commits;
        if total == 0 {
            return 0.0;
        }
        self.local_events as f64 / total as f64
    }

    /// The merged Local-run-length distribution as a metrics histogram
    /// (width 1), for the percentile accessors.
    pub fn run_length_histogram(&self) -> MetricValue {
        MetricValue::Histogram {
            width: 1,
            buckets: self.run_lengths.clone(),
        }
    }

    /// One-paragraph human summary.
    pub fn render(&self) -> String {
        if self.phases == 0 {
            return "hostprof: no raster phases recorded\n".to_string();
        }
        let mut s = format!(
            "hostprof: {} phase(s), {:.2} ms wall",
            self.phases,
            self.wall_ns as f64 / 1e6
        );
        if self.par_phases == 0 {
            s.push_str(" (parallel-core columns need the `par` event-loop driver)\n");
        } else {
            let h = self.run_length_histogram();
            let p = |q: f64| h.quantile(q).unwrap_or(0.0);
            s.push_str(&format!(
                " — serial {:.1}% | parallel {:.1}% | barrier {:.1}% | other {:.1}% \
                 of {} par phase(s)\n  {} epochs ({} parallel), local share {:.1}% \
                 ({} local / {} shared), run-length p50/p95/p99 = {:.0}/{:.0}/{:.0}\n",
                self.serial_fraction() * 100.0,
                self.parallel_fraction() * 100.0,
                self.barrier_fraction() * 100.0,
                self.other_fraction() * 100.0,
                self.par_phases,
                self.epochs,
                self.parallel_epochs,
                self.local_share() * 100.0,
                self.local_events,
                self.shared_commits,
                p(0.50),
                p(0.95),
                p(0.99),
            ));
        }
        s.push_str(&format!(
            "  front end: {} tile(s) prepared by the helper, {} rasterised inline, {} helper \
             result(s) discarded; helper in {} of {} phase(s), useful-work ratio {:.1}%, \
             busy {:.1}% of those phases' wall\n",
            self.tiles_prepared,
            self.tiles_inline,
            self.tiles_discarded,
            self.helper_phases,
            self.phases,
            self.helper_useful_ratio() * 100.0,
            self.helper_busy_fraction() * 100.0,
        ));
        s
    }
}

impl HostProfile {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Sums every phase into one [`HostTotals`].
    pub fn totals(&self) -> HostTotals {
        let mut t = HostTotals {
            run_lengths: vec![0; RUN_LENGTH_BUCKETS],
            ..HostTotals::default()
        };
        for p in &self.phases {
            t.phases += 1;
            t.wall_ns += p.wall_ns;
            t.helper_phases += u64::from(p.helper);
            t.tiles_prepared += p.tiles_prepared;
            t.tiles_inline += p.tiles_inline;
            t.tiles_discarded += p.tiles_discarded;
            if p.helper {
                t.helper_wall_ns += p.wall_ns;
                t.helper_busy_ns += p.helper_busy_ns;
            }
            if !p.is_par() {
                continue;
            }
            t.par_phases += 1;
            t.par_wall_ns += p.wall_ns;
            t.commit_ns += p.commit_ns;
            t.coord_drain_ns += p.coord_drain_ns;
            t.barrier_ns += p.barrier_ns;
            t.epochs += p.epochs;
            t.parallel_epochs += p.parallel_epochs;
            t.local_events += p.local_events;
            t.shared_commits += p.shared_commits;
            if t.run_lengths.len() < p.run_lengths.len() {
                t.run_lengths.resize(p.run_lengths.len(), 0);
            }
            for (dst, src) in t.run_lengths.iter_mut().zip(&p.run_lengths) {
                *dst += src;
            }
        }
        t
    }

    /// The host-clock lanes as Chrome trace events (microsecond timestamps on
    /// the [`Track::HostCoordinator`] / [`Track::HostWorker`] rows), appended
    /// to a simulated-cycle trace as separate host-time tracks.
    pub fn chrome_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let us = |ns: u64| ns / 1_000;
        for (k, p) in self.phases.iter().enumerate() {
            events.push(TraceEvent {
                track: Track::HostCoordinator,
                name: format!("{} #{k} ({}, {} threads)", p.label, p.driver, p.threads),
                kind: EventKind::Span {
                    dur: us(p.wall_ns),
                },
                ts: us(p.start_ns),
                args: vec![
                    ("commit_ns", p.commit_ns.to_string()),
                    ("barrier_ns", p.barrier_ns.to_string()),
                    ("epochs", p.epochs.to_string()),
                    ("shared_commits", p.shared_commits.to_string()),
                    ("tiles_prepared", p.tiles_prepared.to_string()),
                    ("tiles_inline", p.tiles_inline.to_string()),
                    ("tiles_discarded", p.tiles_discarded.to_string()),
                    ("helper_busy_ns", p.helper_busy_ns.to_string()),
                ],
            });
            let mut lane = |track: Track, w: &WorkerLane| {
                for s in &w.spans {
                    events.push(TraceEvent {
                        track,
                        name: s.name.to_string(),
                        kind: EventKind::Span {
                            dur: us(s.end_ns.saturating_sub(s.start_ns)),
                        },
                        ts: us(s.start_ns),
                        args: Vec::new(),
                    });
                }
            };
            lane(Track::HostCoordinator, &p.coord);
            for w in &p.workers {
                lane(Track::HostWorker(w.worker.min(255) as u8), w);
            }
        }
        events
    }

    /// Multi-line human table (one row per phase plus the totals paragraph).
    /// The parallel-core columns read `-` for a phase under a serial driver.
    pub fn render(&self) -> String {
        let t = self.totals();
        if self.phases.is_empty() {
            return t.render();
        }
        let mut s = String::from(
            "hostprof — host-time decomposition of the raster phases\n  \
             phase      driver  thr   wall_ms  commit%  drain%  barr%  other%    epochs  par-ep  \
             imbal  helper  busy%  prepared  inline  discarded\n",
        );
        for (k, p) in self.phases.iter().enumerate() {
            let par = if p.is_par() {
                format!(
                    "{:>8.1} {:>7.1} {:>6.1} {:>7.1} {:>9} {:>7} {:>6.2}",
                    p.serial_fraction() * 100.0,
                    p.parallel_fraction() * 100.0,
                    p.barrier_fraction() * 100.0,
                    p.other_fraction() * 100.0,
                    p.epochs,
                    p.parallel_epochs,
                    p.imbalance(),
                )
            } else {
                let dash = "-";
                format!("{dash:>8} {dash:>7} {dash:>6} {dash:>7} {dash:>9} {dash:>7} {dash:>6}")
            };
            let (helper, busy) = if p.helper {
                ("yes", format!("{:.1}", p.helper_busy_fraction() * 100.0))
            } else {
                ("no", "-".to_string())
            };
            s.push_str(&format!(
                "  {:<10} {:<6} {:>4} {:>9.3} {par} {helper:>7} {busy:>6} {:>9} {:>7} {:>10}\n",
                format!("{} #{k}", p.label),
                p.driver,
                p.threads,
                p.wall_ns as f64 / 1e6,
                p.tiles_prepared,
                p.tiles_inline,
                p.tiles_discarded,
            ));
        }
        s.push_str(&t.render());
        s
    }
}

#[derive(Debug)]
struct Collector {
    origin: Instant,
    phases: Vec<PhaseProfile>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Installs a fresh collector on the current thread; the profile origin (the
/// zero of every recorded timestamp) is *now*.
pub fn start() {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            origin: Instant::now(),
            phases: Vec::new(),
        })
    });
    ENABLED.with(|e| e.set(true));
}

/// Whether a collector is installed on the current thread. Instrumentation
/// sites hoist this into a per-phase bool so the disabled hot path costs one
/// branch per phase.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Whether the `LIBRA_HOSTPROF` environment toggle requests profiling
/// (`1`, `true` or `on`, case-insensitive).
pub fn env_enabled() -> bool {
    std::env::var("LIBRA_HOSTPROF").is_ok_and(|v| {
        let v = v.trim();
        v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
    })
}

/// The collector's origin instant (for sharing with worker threads so all
/// lanes use one time base). `None` when disabled.
pub fn origin() -> Option<Instant> {
    if !is_enabled() {
        return None;
    }
    COLLECTOR.with(|c| c.borrow().as_ref().map(|col| col.origin))
}

/// Appends one phase profile to the current thread's collector (no-op when
/// disabled).
pub fn record_phase(phase: PhaseProfile) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.phases.push(phase);
        }
    });
}

/// Uninstalls the collector and returns the recorded profile (`None` if
/// [`start`] was never called on this thread).
pub fn finish() -> Option<HostProfile> {
    ENABLED.with(|e| e.set(false));
    COLLECTOR.with(|c| c.borrow_mut().take()).map(|c| HostProfile { phases: c.phases })
}

// ---------------------------------------------------------------------------
// Host metadata stamp
// ---------------------------------------------------------------------------

/// Host metadata stamped onto bench records so wall-clock numbers are
/// interpretable later: core count, git revision and a UTC timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMeta {
    /// `std::thread::available_parallelism()` at capture time.
    pub cores: usize,
    /// Short git revision read from `.git`, else `"unknown"`.
    pub git_rev: String,
    /// ISO-8601 UTC timestamp from the system clock.
    pub utc: String,
}

impl HostMeta {
    /// Captures the current host's metadata.
    pub fn capture() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev_from_disk(),
            utc: utc_now(),
        }
    }

    /// Parses a [`json_object`](HostMeta::json_object) back (exact inverse);
    /// the campaign service decodes worker host stamps off the wire with this.
    pub fn from_value(v: &crate::json::Value, what: &str) -> Result<Self, String> {
        use crate::json::{field_str, field_u64};
        Ok(Self {
            cores: field_u64(v, "cores", what)? as usize,
            git_rev: field_str(v, "git_rev", what)?.to_string(),
            utc: field_str(v, "utc", what)?.to_string(),
        })
    }

    /// The `{"cores": .., "git_rev": "..", "utc": ".."}` JSON object.
    pub fn json_object(&self) -> String {
        let mut rev = String::new();
        json_escape_into(&mut rev, &self.git_rev);
        let mut utc = String::new();
        json_escape_into(&mut utc, &self.utc);
        format!(
            "{{\"cores\": {}, \"git_rev\": \"{rev}\", \"utc\": \"{utc}\"}}",
            self.cores
        )
    }
}

fn short_rev(h: &str) -> String {
    h.chars().take(12).collect()
}

fn read_git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(short_rev(head)); // detached HEAD: the hash itself
    };
    if let Ok(h) = std::fs::read_to_string(git.join(r)) {
        return Some(short_rev(h.trim()));
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == r {
                return Some(short_rev(hash.trim()));
            }
        }
    }
    None
}

/// Walks up from the working directory looking for a `.git` directory and
/// resolves HEAD by hand (the workspace has no git dependency).
fn git_rev_from_disk() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_git_head(&git).unwrap_or_else(|| "unknown".into());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

/// `days` since 1970-01-01 to civil `(year, month, day)` — the standard
/// era-based algorithm, valid far beyond any plausible clock reading.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Formats seconds-since-epoch as `YYYY-MM-DDThh:mm:ssZ`.
pub fn format_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        (rem % 3_600) / 60,
        rem % 60
    )
}

fn utc_now() -> String {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| format_utc(d.as_secs()))
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(!is_enabled());
        record_phase(PhaseProfile::new("raster", 1, 2));
        assert!(finish().is_none());
        assert!(origin().is_none());
    }

    #[test]
    fn start_record_finish_round_trip() {
        start();
        assert!(origin().is_some());
        let mut p = PhaseProfile::new("raster", 2, 4);
        p.driver = "par";
        p.wall_ns = 1_000;
        p.commit_ns = 400;
        p.coord_drain_ns = 300;
        p.barrier_ns = 100;
        record_phase(p);
        let prof = finish().expect("collector installed");
        assert!(!is_enabled());
        assert_eq!(prof.phases.len(), 1);
        let t = prof.totals();
        assert_eq!(t.phases, 1);
        assert!((t.serial_fraction() - 0.4).abs() < 1e-12);
        assert!((t.parallel_fraction() - 0.3).abs() < 1e-12);
        assert!((t.barrier_fraction() - 0.1).abs() < 1e-12);
        assert!((t.other_fraction() - 0.2).abs() < 1e-12);
        assert!(prof.render().contains("hostprof: 1 phase(s)"));
    }

    #[test]
    fn serial_phases_report_their_tiles_and_leave_the_par_split_alone() {
        let mut heap = PhaseProfile::new("raster", 1, 2);
        heap.driver = "heap";
        heap.helper = true;
        heap.wall_ns = 3_000;
        (heap.tiles_prepared, heap.tiles_inline, heap.tiles_discarded) = (6, 4, 2);
        heap.helper_busy_ns = 1_500;
        let mut par = PhaseProfile::new("raster", 2, 2);
        par.driver = "par";
        par.wall_ns = 1_000;
        par.commit_ns = 500;
        par.tiles_inline = 10;
        let prof = HostProfile { phases: vec![heap, par] };
        let t = prof.totals();
        assert_eq!((t.phases, t.par_phases, t.helper_phases), (2, 1, 1));
        assert_eq!((t.wall_ns, t.par_wall_ns), (4_000, 1_000));
        assert_eq!(t.serial_fraction(), 0.5, "the par split covers par phases only");
        assert_eq!((t.tiles_prepared, t.tiles_inline, t.tiles_discarded), (6, 14, 2));
        assert_eq!(t.helper_useful_ratio(), 0.75);
        let table = prof.render();
        let counts = "6 tile(s) prepared by the helper, 14 rasterised inline";
        assert!(table.contains(counts), "{table}");
        assert!(table.contains("useful-work ratio 75.0%"), "{table}");
        // The helper's busy share counts only the phases it ran in.
        assert_eq!((t.helper_wall_ns, t.helper_busy_ns), (3_000, 1_500));
        assert!(table.contains("busy 50.0% of those phases' wall"), "{table}");
        let heap_row = table.lines().find(|l| l.contains("raster #0")).expect("a row per phase");
        assert!(heap_row.contains(" heap ") && heap_row.contains(" - "), "{heap_row}");
        assert!(heap_row.contains(" yes   50.0 "), "{heap_row}");
        let par_row = table.lines().find(|l| l.contains("raster #1")).expect("a row per phase");
        assert!(par_row.contains(" no      - "), "{par_row}");

        let serial_only = HostProfile { phases: vec![prof.phases[0].clone()] };
        assert!(serial_only.totals().render().contains("need the `par` event-loop driver"));
    }

    #[test]
    fn fractions_are_bounded_even_for_inconsistent_inputs() {
        // Timer pathologies (a sub-interval over-measuring the wall) must not
        // escape [0, 1].
        let mut p = PhaseProfile::new("raster", 1, 1);
        p.wall_ns = 100;
        p.commit_ns = 250;
        assert_eq!(p.serial_fraction(), 1.0);
        assert_eq!(p.other_fraction(), 0.0);
        let empty = PhaseProfile::new("raster", 1, 1);
        assert_eq!(empty.serial_fraction(), 0.0);
        assert_eq!(empty.imbalance(), 0.0);
        // Max over mean: the busiest of two shards ran 9 of 12 events.
        let mut skewed = PhaseProfile::new("raster", 2, 2);
        skewed.ru_events = vec![3, 9];
        assert_eq!(skewed.imbalance(), 1.5);
    }

    #[test]
    fn lane_spans_cap_and_count_drops() {
        let mut lane = WorkerLane::new(1);
        for i in 0..(MAX_LANE_SPANS as u64 + 10) {
            lane.push_span("epoch", i, i + 1);
        }
        assert_eq!(lane.spans.len(), MAX_LANE_SPANS);
        assert_eq!(lane.dropped_spans, 10);
    }

    #[test]
    fn chrome_events_land_on_host_tracks_in_microseconds() {
        let mut p = PhaseProfile::new("raster", 2, 2);
        p.start_ns = 5_000;
        p.wall_ns = 20_000;
        p.coord.push_span("epoch", 6_000, 9_000);
        let mut w = WorkerLane::new(1);
        w.push_span("epoch", 7_000, 8_000);
        p.workers.push(w);
        let prof = HostProfile { phases: vec![p] };
        let events = prof.chrome_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].track, Track::HostCoordinator);
        assert_eq!(events[0].ts, 5); // 5 000 ns = 5 µs
        assert_eq!(events[0].kind, EventKind::Span { dur: 20 });
        assert_eq!(events[2].track, Track::HostWorker(1));
        assert_eq!(events[2].ts, 7);
    }

    #[test]
    fn format_utc_matches_known_dates() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(86_400), "1970-01-02T00:00:00Z");
        // 2026-08-08T00:00:00Z
        assert_eq!(format_utc(1_786_147_200), "2026-08-08T00:00:00Z");
        assert_eq!(format_utc(951_827_696), "2000-02-29T12:34:56Z");
    }

    #[test]
    fn host_meta_json_is_well_formed() {
        let m = HostMeta {
            cores: 8,
            git_rev: "abc123".into(),
            utc: "2026-08-08T00:00:00Z".into(),
        };
        let doc = crate::json::parse(&m.json_object()).expect("host meta parses");
        assert_eq!(doc.get("cores").and_then(|v| v.as_f64()), Some(8.0));
        assert_eq!(doc.get("git_rev").and_then(|v| v.as_str()), Some("abc123"));
    }
}
