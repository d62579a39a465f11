//! Deterministic, fault-tolerant parallel simulation-campaign driver.
//!
//! Every figure of the paper is a sweep: workload × scheduler × GPU configuration,
//! each point one independent [`simulate_sequence`](crate::simulate_sequence) run.
//! The cycle-level simulator itself is strictly single-threaded, but the points
//! share nothing, so campaign throughput scales with cores — the classic
//! "parallelize across simulation instances, not within one" result from the
//! architecture-simulation literature.
//!
//! # Determinism scheme
//!
//! Parallel execution is **bit-identical** to serial execution, regardless of
//! thread count or scheduling jitter:
//!
//! 1. *Per-job seeds are position-derived.* Job `i` simulates its profile with an
//!    effective seed `profile.seed ^ splitmix64_mix(campaign_seed ^ i·φ64)` — a pure
//!    function of `(campaign_seed, i)`, never of which worker ran it or when.
//!    Campaign seed 0 means "no perturbation": the canonical paper suite.
//! 2. *Jobs share no mutable state.* Each worker builds its own GPU, caches, DRAM
//!    and scheduler from the job spec; the simulator is deterministic
//!    (same inputs → same cycle counts).
//! 3. *Ordered result collection.* Workers write into the result slot indexed by
//!    the job's position, so the returned `Vec` is in campaign order — the same
//!    order a one-thread run produces — no matter which thread finished first.
//!
//! Work distribution uses a work-stealing queue: jobs are dealt round-robin into
//! per-worker deques; a worker pops from the front of its own deque and, when
//! empty, steals from the back of a victim's. Stealing only changes *who* runs a
//! job, never *what* the job computes, so the guarantee above is unaffected.
//! The campaign service shards its sweeps on this same pool, each worker
//! driving a worker process instead of simulating in this one
//! ([`crate::service`]).
//!
//! # Fault tolerance
//!
//! A long sweep must not lose 31 finished jobs to one bad one. Three layers
//! (configured through [`RunOptions`], driven by [`Campaign::run_resilient`])
//! keep a campaign alive and its partial results recoverable:
//!
//! * **Panic isolation.** Each job attempt runs under `catch_unwind` behind a
//!   quiet panic hook, so a panicking job becomes a structured
//!   [`JobOutcome::Failed`] — carrying the panic message — instead of
//!   aborting the sweep. Survivors are unaffected: the failed attempt's
//!   simulator state and partial trace are discarded wholesale.
//! * **Watchdog budget.** With [`RunOptions::budget_cycles`] set, a job is run
//!   frame-by-frame and aborted deterministically once its accumulated
//!   simulated cycles exceed the budget, yielding
//!   [`JobOutcome::TimedOut`]. Simulated cycles — not wall-clock — keep the
//!   verdict bit-identical across hosts and thread counts.
//! * **Checkpointing.** With a checkpoint file attached, every completed job is
//!   appended atomically (see [`crate::checkpoint`]); `--resume` adopts the
//!   recorded successes, re-runs failures, and — because seeds are
//!   position-derived — finishes with results bit-identical to an
//!   uninterrupted run.
//!
//! Failures can be injected on demand ([`crate::fault`], `LIBRA_FAULT`) to
//! exercise every one of these paths in tests and CI.
//!
//! ```
//! use tbr_common::config::{GpuConfig, ScreenConfig};
//! use tbr_sim::campaign::{Campaign, RunOptions};
//! use tbr_sim::SchedulerKind;
//! use tbr_workloads::suite;
//!
//! let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
//! let mut c = Campaign::new(0);
//! for p in suite().into_iter().take(2) {
//!     c.push(&cfg, SchedulerKind::Libra, p, 1);
//! }
//! let run = |threads| c.run_resilient(&RunOptions { threads, ..RunOptions::default() });
//! let parallel = run(2).unwrap().results;
//! let serial = run(1).unwrap().results;
//! assert_eq!(parallel, serial); // bit-identical, in campaign order
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, Once};
use std::time::Instant;

use libra::scheduler::SchedulerKind;
use tbr_common::config::GpuConfig;
use tbr_common::mechanism::MechanismSpec;
use tbr_common::rng::splitmix64_mix;
use tbr_common::stats::SequenceStats;
use tbr_common::trace::{self, Trace};
use tbr_workloads::{BenchmarkProfile, SceneGenerator};

use crate::checkpoint::{Checkpoint, CheckpointFormat, CheckpointHeader, CheckpointWriter};
use crate::fault::{FaultKind, FaultSpec};
use crate::gpu::GpuSimulator;

/// Why a lock of the campaign driver can fail: only a worker panicking outside
/// job isolation, while holding it, poisons one.
const POISONED: &str = "a campaign worker panicked while holding a lock";

/// The golden-gamma increment of SplitMix64 — spaces job indices far apart in the
/// mixer's input domain so adjacent jobs get decorrelated seeds.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One independent simulation point of a campaign.
#[derive(Clone)]
pub struct CampaignJob {
    /// GPU configuration of this point.
    pub cfg: GpuConfig,
    /// Tile scheduler of this point.
    pub scheduler: SchedulerKind,
    /// Mechanism axis (Rendering Elimination / WaSP) layered on the scheduler.
    /// Defaults to none — the historical LIBRA-only behaviour.
    pub mechanism: MechanismSpec,
    /// Workload profile (its `seed` is perturbed per [`Campaign::job_seed`]).
    pub profile: BenchmarkProfile,
    /// Frames to simulate.
    pub frames: u32,
}

impl fmt::Debug for CampaignJob {
    // Hand-written so the campaign fingerprint (a fold over this Debug form)
    // stays byte-identical to pre-mechanism checkpoints and wire payloads when
    // the mechanism axis is at its default: old `libra-campaign-ckpt-v1` /
    // `libra-wire-v1` artifacts must keep resuming. A non-default mechanism
    // IS fingerprinted — sweeping it must change the campaign identity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("CampaignJob");
        d.field("cfg", &self.cfg).field("scheduler", &self.scheduler);
        if !self.mechanism.is_default() {
            d.field("mechanism", &self.mechanism);
        }
        d.field("profile", &self.profile).field("frames", &self.frames);
        d.finish()
    }
}

/// What happened to one campaign job: it completed, it panicked, or it ran
/// past its watchdog budget, on every attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job completed.
    Done {
        /// The effective workload seed the job ran with.
        effective_seed: u64,
        /// Full per-frame statistics of the sequence.
        stats: SequenceStats,
    },
    /// Every attempt of the job panicked; the sweep carried on without it.
    Failed {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Panic payload of the last attempt.
        panic_msg: String,
    },
    /// Every attempt of the job exceeded the watchdog cycle budget.
    TimedOut {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The budget in effect, in simulated cycles.
        budget_cycles: u64,
        /// Simulated cycles accumulated when the watchdog fired (last attempt).
        spent_cycles: u64,
    },
}

/// The result of one campaign job, in the one form the pool returns, a
/// checkpoint records ([`crate::checkpoint`]) and a worker process sends
/// back ([`crate::wire`]).
///
/// Failures are *structured results*, not aborts — a sweep with one poisoned job
/// still completes the other 31 and reports exactly what went wrong where.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Index of the job in the campaign (results come back in this order).
    pub job: usize,
    /// Workload abbreviation.
    pub abbrev: String,
    /// Scheduler name.
    pub scheduler: String,
    /// What happened to the job.
    pub outcome: JobOutcome,
}

impl CampaignResult {
    /// The job's statistics, if it completed.
    pub fn stats(&self) -> Option<&SequenceStats> {
        match &self.outcome {
            JobOutcome::Done { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Whether the job completed.
    pub fn is_success(&self) -> bool {
        matches!(self.outcome, JobOutcome::Done { .. })
    }

    /// A one-line human-readable failure description, or `None` for successes.
    pub fn failure_line(&self) -> Option<String> {
        let Self { job, abbrev, scheduler, .. } = self;
        match &self.outcome {
            JobOutcome::Done { .. } => None,
            JobOutcome::Failed { attempts, panic_msg } => Some(format!(
                "job {job} ({abbrev}/{scheduler}) FAILED after {attempts} attempt(s): {panic_msg}"
            )),
            JobOutcome::TimedOut { attempts, budget_cycles, spent_cycles } => Some(format!(
                "job {job} ({abbrev}/{scheduler}) TIMED OUT after {attempts} attempt(s): \
                 {spent_cycles} cycles > budget {budget_cycles}"
            )),
        }
    }
}

/// Host-side wall-clock profile of one worker thread of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Worker index (0-based).
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs_run: usize,
    /// Jobs obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Wall-clock seconds spent inside jobs (excludes queue waits).
    pub busy_secs: f64,
}

/// Host-side wall-clock profile of one campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Job index in campaign order.
    pub job: usize,
    /// Workload abbreviation.
    pub abbrev: &'static str,
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Worker that ran the job (0 for jobs adopted from a checkpoint).
    pub worker: usize,
    /// Wall-clock seconds the job took (0 for jobs adopted from a checkpoint).
    pub secs: f64,
}

/// Host-side profile of a whole campaign run: wall-clock, per-worker utilization
/// and steal counts, per-job timings. Written to `bench_results/` by
/// `libra-sim campaign --profile`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignProfile {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// One entry per worker.
    pub workers: Vec<WorkerProfile>,
    /// One entry per job, in campaign order.
    pub jobs: Vec<JobProfile>,
}

impl CampaignProfile {
    /// Mean worker utilization in `[0, 1]`: busy time over `threads × wall`.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.workers.iter().map(|w| w.busy_secs).sum();
        let denom = self.threads as f64 * self.wall_secs;
        if denom <= 0.0 {
            0.0
        } else {
            (busy / denom).min(1.0)
        }
    }

    /// Per-worker CSV (`worker,jobs_run,steals,busy_secs,utilization`).
    pub fn workers_csv(&self) -> String {
        let mut out = String::from("worker,jobs_run,steals,busy_secs,utilization\n");
        for w in &self.workers {
            let util = if self.wall_secs > 0.0 { w.busy_secs / self.wall_secs } else { 0.0 };
            out.push_str(&format!(
                "{},{},{},{:.6},{:.4}\n",
                w.worker, w.jobs_run, w.steals, w.busy_secs, util
            ));
        }
        out
    }

    /// Per-job CSV (`job,abbrev,scheduler,worker,secs`).
    pub fn jobs_csv(&self) -> String {
        let mut out = String::from("job,abbrev,scheduler,worker,secs\n");
        for j in &self.jobs {
            out.push_str(&format!(
                "{},{},{},{},{:.6}\n",
                j.job, j.abbrev, j.scheduler, j.worker, j.secs
            ));
        }
        out
    }
}

/// Knobs of a resilient campaign run ([`Campaign::run_resilient`]).
///
/// The default runs on one thread with no tracing, no budget, one retry for a
/// failing job, no fault injection and no checkpoint.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (clamped to `1..=pending jobs`).
    pub threads: usize,
    /// Collect one cycle-level trace per successful job.
    pub traced: bool,
    /// Watchdog: abort a job once its simulated cycles exceed this budget.
    pub budget_cycles: Option<u64>,
    /// Re-run a failed/timed-out job this many extra times before giving up.
    /// The default 1 means "retry once, then fail".
    pub retries: u32,
    /// Deterministic fault injection (tests/CI); see [`crate::fault`].
    pub fault: Option<FaultSpec>,
    /// Write (truncating) a fresh checkpoint here as jobs complete.
    pub checkpoint_to: Option<String>,
    /// Encoding of a freshly created checkpoint (`checkpoint_to`). Binary by
    /// default; resume appends always follow the existing file's encoding.
    pub ckpt_format: CheckpointFormat,
    /// Adopt completed jobs from this checkpoint before running the rest.
    /// If `checkpoint_to` is unset, new records are appended to this same file.
    pub resume_from: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            traced: false,
            budget_cycles: None,
            retries: 1,
            fault: None,
            checkpoint_to: None,
            ckpt_format: CheckpointFormat::default(),
            resume_from: None,
        }
    }
}

/// Everything a resilient campaign run produced.
#[derive(Debug)]
pub struct CampaignRun {
    /// One result per job, in campaign order (successes and failures).
    pub results: Vec<CampaignResult>,
    /// Host-side wall-clock profile.
    pub profile: CampaignProfile,
    /// One labelled trace per *successful, freshly simulated* job, in campaign
    /// order (adopted and failed jobs produce no trace).
    pub traces: Vec<(String, Trace)>,
    /// Jobs adopted as already-done from the resume checkpoint.
    pub resumed_jobs: usize,
    /// First checkpoint-append error, if any. Results are complete regardless —
    /// a broken disk degrades the checkpoint, never the sweep.
    pub checkpoint_error: Option<String>,
}

/// Success/failure counts of a campaign run, for the end-of-run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Total jobs in the campaign.
    pub total: usize,
    /// Jobs that completed (including adopted ones).
    pub done: usize,
    /// Jobs that exhausted retries panicking.
    pub failed: usize,
    /// Jobs that exhausted retries over budget.
    pub timed_out: usize,
    /// Jobs adopted from the resume checkpoint.
    pub resumed: usize,
}

impl CampaignSummary {
    /// Renders the one-line summary, e.g.
    /// `31/32 jobs succeeded (1 failed; 12 adopted from checkpoint)`.
    pub fn render(&self) -> String {
        let mut s = format!("{}/{} jobs succeeded", self.done, self.total);
        let mut notes = Vec::new();
        if self.failed > 0 {
            notes.push(format!("{} failed", self.failed));
        }
        if self.timed_out > 0 {
            notes.push(format!("{} timed out", self.timed_out));
        }
        if self.resumed > 0 {
            notes.push(format!("{} adopted from checkpoint", self.resumed));
        }
        if !notes.is_empty() {
            s.push_str(&format!(" ({})", notes.join("; ")));
        }
        s
    }
}

impl CampaignRun {
    /// Counts outcomes for the end-of-run report.
    pub fn summary(&self) -> CampaignSummary {
        let mut s = CampaignSummary {
            total: self.results.len(),
            done: 0,
            failed: 0,
            timed_out: 0,
            resumed: self.resumed_jobs,
        };
        for r in &self.results {
            match r.outcome {
                JobOutcome::Done { .. } => s.done += 1,
                JobOutcome::Failed { .. } => s.failed += 1,
                JobOutcome::TimedOut { .. } => s.timed_out += 1,
            }
        }
        s
    }
}

/// Runs `f` under `catch_unwind` with panic output suppressed *for this thread
/// only*; a panic comes back as `Err(message)`.
///
/// The process-wide hook is installed once and delegates to the previous hook
/// unless the current thread opted in, so panics elsewhere (other tests, real
/// bugs outside job isolation) keep their normal backtrace output.
fn quiet_catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    static HOOK: Once = Once::new();
    thread_local! {
        static SUPPRESS: Cell<bool> = const { Cell::new(false) };
    }
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SUPPRESS.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS.with(|s| s.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// What a pool worker's [`JobRunner`] hands back for one campaign position:
/// the result, plus the trace the in-process runner collects on request.
pub(crate) type Ran = (CampaignResult, Option<Trace>);

/// One worker of [`Campaign::run_pool`]: runs campaign positions one at a
/// time. [`Campaign::run_resilient`]'s runner simulates in this process; the
/// campaign service's runner drives a `libra-sim worker` process.
pub(crate) trait JobRunner {
    /// What the worker hands back when the pool runs out of jobs for it.
    type Done: Send;
    /// Runs position `job`. An `Err` stops this worker and fails the sweep.
    fn run(&mut self, job: usize) -> Result<Ran, String>;
    /// Ends the worker, on its own thread.
    fn done(self) -> Self::Done;
}

impl<F: FnMut(usize) -> Result<Ran, String>> JobRunner for F {
    type Done = ();
    fn run(&mut self, job: usize) -> Result<Ran, String> {
        self(job)
    }
    fn done(self) {}
}

/// Outcome of a single isolated attempt at one job.
enum Attempt {
    Done(SequenceStats),
    TimedOut { spent: u64 },
}

/// A batch of independent simulation jobs with a campaign-level seed.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Campaign seed. 0 leaves every profile's canonical seed untouched; any other
    /// value resamples each job's scene layout deterministically.
    pub seed: u64,
    jobs: Vec<CampaignJob>,
}

impl Campaign {
    /// Creates an empty campaign.
    pub fn new(seed: u64) -> Self {
        Self { seed, jobs: Vec::new() }
    }

    /// Appends one simulation point (mechanism axis at its default: none).
    pub fn push(
        &mut self,
        cfg: &GpuConfig,
        scheduler: SchedulerKind,
        profile: BenchmarkProfile,
        frames: u32,
    ) {
        self.push_mech(cfg, scheduler, MechanismSpec::default(), profile, frames);
    }

    /// Appends one simulation point with an explicit mechanism axis.
    pub fn push_mech(
        &mut self,
        cfg: &GpuConfig,
        scheduler: SchedulerKind,
        mechanism: MechanismSpec,
        profile: BenchmarkProfile,
        frames: u32,
    ) {
        self.jobs.push(CampaignJob {
            cfg: cfg.clone(),
            scheduler,
            mechanism,
            profile,
            frames,
        });
    }

    /// Builds the full cross product `profiles × schedulers` on one configuration —
    /// the shape of most figure sweeps. The mechanism axis stays at its default.
    pub fn grid(
        seed: u64,
        cfg: &GpuConfig,
        schedulers: &[SchedulerKind],
        profiles: &[BenchmarkProfile],
        frames: u32,
    ) -> Self {
        Self::grid_mech(seed, cfg, schedulers, MechanismSpec::default(), profiles, frames)
    }

    /// [`Campaign::grid`] with every job running the given mechanism axis on
    /// top of its scheduler — the shape of the RE/WaSP head-to-head sweeps.
    pub fn grid_mech(
        seed: u64,
        cfg: &GpuConfig,
        schedulers: &[SchedulerKind],
        mechanism: MechanismSpec,
        profiles: &[BenchmarkProfile],
        frames: u32,
    ) -> Self {
        let mut c = Self::new(seed);
        for p in profiles {
            for &s in schedulers {
                c.push_mech(cfg, s, mechanism, p.clone(), frames);
            }
        }
        c
    }

    /// The jobs in campaign order.
    pub fn jobs(&self) -> &[CampaignJob] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The seed perturbation of job `index`: a pure function of
    /// `(campaign seed, index)`, independent of worker assignment. Campaign seed 0
    /// disables perturbation so the canonical suite (the paper's fixed layouts)
    /// simulates as-is.
    pub fn job_seed(&self, index: usize) -> u64 {
        if self.seed == 0 {
            0
        } else {
            splitmix64_mix(self.seed ^ (index as u64).wrapping_mul(GOLDEN_GAMMA))
        }
    }

    /// The effective workload seed job `index` runs with.
    pub fn effective_seed(&self, index: usize) -> u64 {
        self.jobs[index].profile.seed ^ self.job_seed(index)
    }

    /// The workload abbreviation and scheduler name of job `index`, as its
    /// results and reports name it.
    fn names(&self, index: usize) -> (&'static str, &'static str) {
        let job = &self.jobs[index];
        (job.profile.abbrev, job.scheduler.build().name())
    }

    /// A position-insensitive digest of `(campaign seed, full job list)`:
    /// configurations, schedulers, non-default mechanisms, workload profiles
    /// and frame counts all feed in. A checkpoint records it so `--resume`
    /// refuses to graft one campaign's results onto a different sweep.
    /// Default-mechanism jobs digest exactly as they did before the mechanism
    /// axis existed (see [`CampaignJob`]'s `Debug`), so pre-mechanism
    /// checkpoints and wire payloads keep validating.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64_mix(self.seed ^ 0xC0FF_EE00_D15E_A5E5);
        for job in &self.jobs {
            for b in format!("{job:?}").bytes() {
                h = splitmix64_mix(h ^ u64::from(b));
            }
        }
        h
    }

    /// One isolated attempt at job `index`: panic injection, then the frames
    /// rendered one by one with the watchdog checked after each. A `None`
    /// budget never fires, and the frames are the ones
    /// [`GpuSimulator::render_sequence`] renders, so a generous budget yields
    /// bit-identical stats to no budget at all.
    fn run_attempt(
        &self,
        index: usize,
        profile: &BenchmarkProfile,
        budget: Option<u64>,
        inject_panic: bool,
    ) -> Attempt {
        let job = &self.jobs[index];
        if inject_panic {
            let (abbrev, scheduler) = self.names(index);
            panic!("injected fault: panic in campaign job {index} ({abbrev}/{scheduler})");
        }
        let mut sim = GpuSimulator::with_mechanism(job.cfg.clone(), job.scheduler, job.mechanism);
        let gen = SceneGenerator::new(profile, &job.cfg.screen);
        let mut seq = SequenceStats::default();
        for f in 0..job.frames {
            seq.frames.push(sim.render_frame(&gen.scene(f)));
            let spent = seq.total_cycles();
            if budget.is_some_and(|b| spent > b) {
                return Attempt::TimedOut { spent };
            }
        }
        Attempt::Done(seq)
    }

    /// Runs job `index` with isolation, watchdog, fault injection and retries.
    /// Always returns a result — a panic or timeout becomes a structured
    /// failure, never an abort. The trace (if requested) covers only the
    /// successful attempt; failed attempts discard their partial traces.
    fn run_job_resilient(&self, index: usize, opts: &RunOptions) -> Ran {
        let effective_seed = self.effective_seed(index);
        let mut profile = self.jobs[index].profile.clone();
        profile.seed = effective_seed;

        let attempts = opts.retries.saturating_add(1);
        let mut last = None;
        for attempt in 0..attempts {
            let fault = opts.fault.filter(|f| f.fires(index, attempt));
            let inject_panic = matches!(fault, Some(FaultSpec { kind: FaultKind::Panic, .. }));
            let budget = if matches!(fault, Some(FaultSpec { kind: FaultKind::Timeout, .. })) {
                Some(0)
            } else {
                opts.budget_cycles
            };
            if opts.traced {
                trace::start();
            }
            let outcome =
                quiet_catch_unwind(|| self.run_attempt(index, &profile, budget, inject_panic));
            // Collected either way; a failed attempt's partial trace is dropped.
            let t = opts.traced.then(trace::finish).flatten();
            let attempts = attempt + 1;
            last = Some(match outcome {
                Ok(Attempt::Done(stats)) => {
                    let done = JobOutcome::Done { effective_seed, stats };
                    return (self.result(index, done), t);
                }
                Ok(Attempt::TimedOut { spent }) => JobOutcome::TimedOut {
                    attempts,
                    budget_cycles: budget.unwrap_or(0),
                    spent_cycles: spent,
                },
                Err(panic_msg) => JobOutcome::Failed { attempts, panic_msg },
            });
        }
        let last = last.expect("at least one attempt was made");
        (self.result(index, last), None)
    }

    /// Job `index`'s result with the given outcome.
    fn result(&self, index: usize, outcome: JobOutcome) -> CampaignResult {
        let (abbrev, scheduler) = self.names(index);
        CampaignResult { job: index, abbrev: abbrev.into(), scheduler: scheduler.into(), outcome }
    }

    /// Runs the single job `index` with the full resilience envelope (panic
    /// isolation, watchdog, fault injection, retries) on the calling thread,
    /// discarding any trace collection. This is the unit of work a
    /// campaign-service worker process executes per `assign` frame: because
    /// job seeds are position-derived, the result is bit-identical to the
    /// same job's slot in [`run_resilient`](Campaign::run_resilient) no
    /// matter which process runs it.
    pub fn run_one(&self, index: usize, opts: &RunOptions) -> CampaignResult {
        assert!(index < self.jobs.len(), "job index {index} out of range");
        self.run_job_resilient(index, opts).0
    }

    /// Checks that a decoded result (a checkpoint record or a `libra-wire-v1`
    /// `result` frame) belongs to this campaign. Rejects job indices out of
    /// range, mismatched workload/scheduler names, and — for successes — an
    /// effective seed other than the position-derived one this campaign
    /// would have used, so a worker cannot silently contribute results for
    /// a different sweep.
    pub fn adopt_record(&self, r: &CampaignResult) -> Result<(), String> {
        let n = self.jobs.len();
        if r.job >= n {
            return Err(format!(
                "record for job {} is out of range (campaign has {n} jobs)",
                r.job
            ));
        }
        let (abbrev, scheduler) = self.names(r.job);
        if r.abbrev != abbrev || r.scheduler != scheduler {
            return Err(format!(
                "record for job {} names {}/{} but the campaign job is {abbrev}/{scheduler}",
                r.job, r.abbrev, r.scheduler
            ));
        }
        if let JobOutcome::Done { effective_seed, .. } = r.outcome {
            let want = self.effective_seed(r.job);
            if effective_seed != want {
                return Err(format!(
                    "record for job {} carries effective seed {effective_seed:#x}, \
                     expected {want:#x}",
                    r.job
                ));
            }
        }
        Ok(())
    }

    /// Validates a loaded checkpoint against this campaign and adopts its
    /// recorded successes into `prefilled`. Failed/timed-out records are *not*
    /// adopted — resuming re-runs them (that is the salvage path).
    fn adopt_checkpoint(
        &self,
        ckpt: Checkpoint,
        path: &str,
        prefilled: &mut [Option<CampaignResult>],
    ) -> Result<usize, String> {
        let n = self.jobs.len();
        let h = &ckpt.header;
        if h.jobs != n {
            return Err(format!(
                "checkpoint {path} is for a campaign of {} jobs, this campaign has {n}",
                h.jobs
            ));
        }
        if h.seed != self.seed {
            return Err(format!(
                "checkpoint {path} was written with campaign seed {:#x}, this campaign uses {:#x}",
                h.seed, self.seed
            ));
        }
        if h.fingerprint != self.fingerprint() {
            return Err(format!(
                "checkpoint {path} fingerprint {:#x} does not match this campaign's {:#x} — \
                 it records a different sweep (jobs, configs, or schedulers changed)",
                h.fingerprint,
                self.fingerprint()
            ));
        }
        // Later records for the same job supersede earlier ones (a resumed run
        // appends corrections), so fold by job index in file order.
        for r in ckpt.records {
            self.adopt_record(&r).map_err(|e| format!("checkpoint {path}: {e}"))?;
            let job = r.job;
            prefilled[job] = Some(r);
        }
        for slot in prefilled.iter_mut() {
            if slot.as_ref().is_some_and(|r| !r.is_success()) {
                *slot = None;
            }
        }
        Ok(prefilled.iter().flatten().count())
    }

    /// Opens the checkpoint writer implied by `opts`: a fresh (compacted) file
    /// when `checkpoint_to` is set — re-emitting adopted records so the new file
    /// stands alone — or append mode on the resume file, or none.
    fn open_writer(
        &self,
        opts: &RunOptions,
        prefilled: &[Option<CampaignResult>],
    ) -> Result<Option<CheckpointWriter>, String> {
        match (&opts.checkpoint_to, &opts.resume_from) {
            (Some(path), _) => {
                let header = CheckpointHeader {
                    seed: self.seed,
                    jobs: self.jobs.len(),
                    fingerprint: self.fingerprint(),
                };
                let w = CheckpointWriter::create(path, header, opts.ckpt_format)?;
                for r in prefilled.iter().flatten() {
                    w.append(r)?;
                }
                Ok(Some(w))
            }
            (None, Some(path)) => Ok(Some(CheckpointWriter::append_to(path)?)),
            (None, None) => Ok(None),
        }
    }

    /// The resilient campaign driver: panic isolation, watchdog, retries,
    /// checkpointing and resume, on `opts.threads` work-stealing workers.
    ///
    /// Returns `Err` only for *setup* problems the caller must resolve (a
    /// fault aimed at a job the campaign does not have, an invalid or
    /// mismatched resume checkpoint, an uncreatable checkpoint file). Once
    /// jobs are running, nothing aborts the sweep: per-job failures come back
    /// as structured [`JobOutcome`]s and checkpoint-append errors degrade into
    /// [`CampaignRun::checkpoint_error`].
    ///
    /// Determinism: results are bit-identical for every thread count *and*
    /// for every interrupted/resumed schedule, because job seeds are
    /// position-derived and adopted stats round-trip exactly.
    pub fn run_resilient(&self, opts: &RunOptions) -> Result<CampaignRun, String> {
        let in_process =
            |job: usize| -> Result<Ran, String> { Ok(self.run_job_resilient(job, opts)) };
        Ok(self.run_pool(opts, &|_| Ok(in_process), &|_| {})?.0)
    }

    /// The one worker pool every sweep runs on, threads and worker processes
    /// alike: it adopts `opts.resume_from`'s successes, deals the pending
    /// positions round-robin into per-worker deques, appends each result to
    /// the checkpoint, calls `on_result`, and slots results and profiles by
    /// campaign position. `runner(w)` builds worker `w`'s [`JobRunner`] on
    /// that worker's thread (the calling thread is worker 0); what the
    /// runners' `done` returns comes back in worker order. A runner error
    /// stops its worker, whose jobs the others steal, and fails the sweep.
    pub(crate) fn run_pool<W: JobRunner>(
        &self,
        opts: &RunOptions,
        runner: &(dyn Fn(usize) -> Result<W, String> + Sync),
        on_result: &(dyn Fn(&CampaignResult) + Sync),
    ) -> Result<(CampaignRun, Vec<W::Done>), String> {
        let t0 = Instant::now();
        let n = self.jobs.len();

        // A fault aimed past the last job would never fire, and a test
        // relying on it would pass vacuously.
        if let Some(f) = opts.fault.filter(|f| f.job >= n) {
            return Err(format!(
                "fault injection targets job {}, but the campaign has {n} jobs",
                f.job
            ));
        }
        let mut prefilled: Vec<Option<CampaignResult>> = (0..n).map(|_| None).collect();
        let mut resumed_jobs = 0;
        if let Some(path) = &opts.resume_from {
            let ckpt = Checkpoint::load(path)?;
            resumed_jobs = self.adopt_checkpoint(ckpt, path, &mut prefilled)?;
        }
        let writer = self.open_writer(opts, &prefilled)?;

        let pending: Vec<usize> = (0..n).filter(|&i| prefilled[i].is_none()).collect();
        let threads = opts.threads.clamp(1, pending.len().max(1));

        // Deal pending jobs round-robin into per-worker deques. Round-robin
        // (rather than contiguous chunks) interleaves heavy and light
        // workloads, so the initial split is already balanced and stealing is
        // the exception.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (k, &i) in pending.iter().enumerate() {
            queues[k % threads].lock().expect(POISONED).push_back(i);
        }
        // A run job's result, trace, worker and wall-clock seconds.
        type Slot = (CampaignResult, Option<Trace>, usize, f64);
        let slots: Vec<Mutex<Option<Slot>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let ckpt_err: Mutex<Option<String>> = Mutex::new(None);

        let work = |me: usize| -> Result<(WorkerProfile, W::Done), String> {
            let mut run = runner(me)?;
            let mut prof = WorkerProfile { worker: me, jobs_run: 0, steals: 0, busy_secs: 0.0 };
            loop {
                // Own queue first (front: preserves the dealt order)…
                let mut stolen = false;
                let job = queues[me].lock().expect(POISONED).pop_front().or_else(|| {
                    // …then steal from the back of the first non-empty victim,
                    // scanning away from ourselves.
                    (1..threads).find_map(|k| {
                        let j = queues[(me + k) % threads].lock().expect(POISONED).pop_back();
                        stolen |= j.is_some();
                        j
                    })
                });
                let Some(i) = job else { return Ok((prof, run.done())) };
                if stolen {
                    prof.steals += 1;
                }
                let jt = Instant::now();
                let (r, t) = run.run(i)?;
                let secs = jt.elapsed().as_secs_f64();
                prof.jobs_run += 1;
                prof.busy_secs += secs;
                if let Some(Err(e)) = writer.as_ref().map(|w| w.append(&r)) {
                    ckpt_err.lock().expect(POISONED).get_or_insert(e);
                }
                on_result(&r);
                *slots[i].lock().expect(POISONED) = Some((r, t, me, secs));
            }
        };
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let work = &work;
            let others: Vec<_> = (1..threads).map(|me| scope.spawn(move || work(me))).collect();
            let mut outcomes = vec![work(0)];
            let joined = others.into_iter().map(|h| h.join().expect("campaign worker panicked"));
            outcomes.extend(joined);
            outcomes
        });
        let (workers, done): (Vec<WorkerProfile>, Vec<W::Done>) =
            outcomes.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();

        let mut traces = Vec::new();
        let mut results = Vec::with_capacity(n);
        let mut jobs = Vec::with_capacity(n);
        for (i, (adopted, slot)) in prefilled.into_iter().zip(slots).enumerate() {
            let (abbrev, scheduler) = self.names(i);
            let (r, worker, secs) = match (adopted, slot.into_inner().expect(POISONED)) {
                (Some(r), _) => (r, 0, 0.0),
                (None, Some((r, t, worker, secs))) => {
                    if let Some(t) = t {
                        traces.push((format!("job{i} {abbrev} {scheduler}"), t));
                    }
                    (r, worker, secs)
                }
                (None, None) => unreachable!("job {i} was neither adopted nor run"),
            };
            jobs.push(JobProfile { job: i, abbrev, scheduler, worker, secs });
            results.push(r);
        }
        let profile = CampaignProfile {
            threads,
            wall_secs: t0.elapsed().as_secs_f64(),
            workers,
            jobs,
        };
        let run = CampaignRun {
            results,
            profile,
            traces,
            resumed_jobs,
            checkpoint_error: ckpt_err.into_inner().expect(POISONED),
        };
        Ok((run, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::config::ScreenConfig;
    use tbr_workloads::suite;

    fn small_campaign(seed: u64, points: usize) -> Campaign {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let mut c = Campaign::new(seed);
        for p in suite().into_iter().take(points) {
            c.push(&cfg, SchedulerKind::Libra, p, 1);
        }
        c
    }

    /// A default run on `threads` workers, optionally traced.
    fn run(c: &Campaign, threads: usize, traced: bool) -> CampaignRun {
        c.run_resilient(&RunOptions { threads, traced, ..RunOptions::default() }).unwrap()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let c = small_campaign(0, 5);
        let serial = run(&c, 1, false).results;
        for threads in [2, 3, 5, 8] {
            let par = run(&c, threads, false).results;
            assert_eq!(par, serial, "thread count {threads} changed results");
        }
    }

    #[test]
    fn results_come_back_in_campaign_order() {
        let c = small_campaign(7, 6);
        let res = run(&c, 4, false).results;
        for (i, r) in res.iter().enumerate() {
            assert_eq!(r.job, i);
        }
    }

    #[test]
    fn zero_seed_matches_direct_simulation() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let p = suite().remove(0);
        let mut c = Campaign::new(0);
        c.push(&cfg, SchedulerKind::Libra, p.clone(), 2);
        let res = run(&c, 2, false).results;
        let direct = crate::simulate_sequence(&cfg, SchedulerKind::Libra, &p, 2);
        assert_eq!(res[0].stats(), Some(&direct), "seed 0 must not perturb the canonical suite");
        let JobOutcome::Done { effective_seed, .. } = res[0].outcome else {
            panic!("job 0 failed")
        };
        assert_eq!(effective_seed, p.seed);
    }

    #[test]
    fn nonzero_seed_perturbs_each_job_differently() {
        let c = small_campaign(42, 3);
        assert_ne!(c.job_seed(0), c.job_seed(1));
        assert_ne!(c.job_seed(1), c.job_seed(2));
        // Same campaign seed → same derivation; different seed → different.
        let c2 = small_campaign(42, 3);
        assert_eq!(c.job_seed(2), c2.job_seed(2));
        let c3 = small_campaign(43, 3);
        assert_ne!(c.job_seed(0), c3.job_seed(0));
    }

    #[test]
    fn empty_and_single_job_campaigns_work() {
        let c = Campaign::new(0);
        assert!(c.is_empty());
        assert!(run(&c, 4, false).results.is_empty());
        let c1 = small_campaign(0, 1);
        assert_eq!(run(&c1, 8, false).results.len(), 1);
    }

    #[test]
    fn profile_accounts_for_every_job_and_worker() {
        let c = small_campaign(0, 5);
        let CampaignRun { results: res, profile: prof, .. } = run(&c, 3, false);
        assert_eq!(res.len(), 5);
        assert_eq!(prof.threads, 3);
        assert_eq!(prof.workers.len(), 3);
        assert_eq!(prof.jobs.len(), 5);
        assert_eq!(prof.workers.iter().map(|w| w.jobs_run).sum::<usize>(), 5);
        assert!(prof.wall_secs > 0.0);
        for (i, j) in prof.jobs.iter().enumerate() {
            assert_eq!(j.job, i);
            assert!(j.worker < 3);
            assert!(j.secs >= 0.0);
        }
        let u = prof.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        // CSVs: header + one row per worker / per job.
        assert_eq!(prof.workers_csv().lines().count(), 1 + 3);
        assert_eq!(prof.jobs_csv().lines().count(), 1 + 5);
    }

    #[test]
    fn serial_path_profile_uses_worker_zero() {
        let c = small_campaign(0, 2);
        let prof = run(&c, 1, false).profile;
        assert_eq!(prof.threads, 1);
        assert_eq!(prof.workers.len(), 1);
        assert_eq!(prof.workers[0].steals, 0);
        assert!(prof.jobs.iter().all(|j| j.worker == 0));
    }

    #[test]
    fn tracing_changes_no_results_and_labels_every_job() {
        let c = small_campaign(0, 3);
        let plain = run(&c, 2, false).results;
        let CampaignRun { results: traced, traces, .. } = run(&c, 2, true);
        assert_eq!(traced, plain, "tracing must be observation-only");
        assert_eq!(traces.len(), 3);
        for (i, (label, trace)) in traces.iter().enumerate() {
            assert!(label.starts_with(&format!("job{i} ")), "bad label {label:?}");
            assert!(!trace.events.is_empty(), "job {i} produced an empty trace");
        }
    }

    #[test]
    fn merged_trace_json_is_stable_across_thread_counts() {
        let c = small_campaign(0, 3);
        let (t1, t3) = (run(&c, 1, true).traces, run(&c, 3, true).traces);
        assert_eq!(
            Trace::chrome_json_multi(&t1),
            Trace::chrome_json_multi(&t3),
            "simulated-time stamps must make the merged trace thread-count invariant"
        );
    }

    #[test]
    fn grid_builds_the_cross_product() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let profiles: Vec<_> = suite().into_iter().take(3).collect();
        let scheds = [SchedulerKind::SingleZOrder, SchedulerKind::Libra];
        let c = Campaign::grid(0, &cfg, &scheds, &profiles, 2);
        assert_eq!(c.len(), 6);
        assert_eq!(c.jobs()[0].profile.abbrev, profiles[0].abbrev);
        assert_eq!(c.jobs()[1].scheduler, SchedulerKind::Libra);
    }

    #[test]
    fn fingerprint_is_stable_and_sweep_sensitive() {
        let a = small_campaign(5, 3);
        assert_eq!(a.fingerprint(), small_campaign(5, 3).fingerprint());
        assert_ne!(a.fingerprint(), small_campaign(5, 4).fingerprint(), "job list feeds in");
        assert_ne!(a.fingerprint(), small_campaign(6, 3).fingerprint(), "seed feeds in");
    }

    #[test]
    fn injected_panic_is_isolated_and_reported() {
        let c = small_campaign(0, 3);
        let opts = RunOptions {
            retries: 0,
            fault: Some(FaultSpec::parse("panic:1").unwrap()),
            ..RunOptions::default()
        };
        let run = c.run_resilient(&opts).unwrap();
        assert!(run.results[0].is_success() && run.results[2].is_success());
        match &run.results[1].outcome {
            JobOutcome::Failed { attempts: 1, panic_msg } => {
                assert!(panic_msg.contains("injected fault"), "bad message {panic_msg:?}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(run.results[1].failure_line().unwrap().contains("FAILED"));
        let s = run.summary();
        assert_eq!((s.total, s.done, s.failed, s.timed_out), (3, 2, 1, 0));
        assert!(s.render().starts_with("2/3 jobs succeeded"), "{}", s.render());
    }

    #[test]
    fn transient_panic_is_healed_by_the_default_retry() {
        let c = small_campaign(0, 3);
        let opts = RunOptions {
            fault: Some(FaultSpec::parse("panic-once:1").unwrap()),
            ..RunOptions::default()
        };
        let healed = c.run_resilient(&opts).unwrap();
        let clean = run(&c, 1, false).results;
        assert_eq!(healed.results, clean, "a retried transient fault must leave no residue");
    }

    #[test]
    fn timeout_injection_trips_the_watchdog() {
        let c = small_campaign(0, 2);
        let opts = RunOptions {
            retries: 0,
            fault: Some(FaultSpec::parse("timeout:0").unwrap()),
            ..RunOptions::default()
        };
        let run = c.run_resilient(&opts).unwrap();
        match &run.results[0].outcome {
            JobOutcome::TimedOut { budget_cycles: 0, spent_cycles, .. } => {
                assert!(*spent_cycles > 0, "watchdog must report the cycles it measured");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(run.results[1].is_success());
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let c = small_campaign(0, 2);
        let opts = RunOptions { budget_cycles: Some(u64::MAX), ..RunOptions::default() };
        let budgeted = c.run_resilient(&opts).unwrap();
        assert_eq!(
            budgeted.results,
            run(&c, 1, false).results,
            "an unreached budget must be invisible"
        );
    }
}
