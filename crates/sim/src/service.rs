//! The campaign service: a long-running coordinator that shards sweeps across
//! `libra-sim worker` child processes.
//!
//! `libra-sim serve` binds a [`Coordinator`] on a TCP address and accepts
//! `libra-wire-v1` connections (see [`crate::wire`]). Each `submit` frame names
//! a campaign constructively (a [`JobSpec`]); the coordinator rebuilds the
//! [`Campaign`] locally, answers with its job count and fingerprint, then runs
//! the sweep through [`run_sharded`]: a pool of spawned worker *processes*,
//! each fed one campaign position at a time over stdio, with results flowing
//! back as checkpoint [`Record`]s.
//!
//! # Determinism
//!
//! Sharding changes *where* a job runs, never *what* it computes: job seeds
//! are position-derived ([`Campaign::effective_seed`]), every worker rebuilds
//! the identical campaign from the spec, and results are slotted back by
//! campaign position. The aggregated report
//! ([`crate::report::campaign_metrics_json`]) is therefore byte-identical to a
//! single-process `libra-sim campaign` of the same spec — regardless of worker
//! count, dispatch order, or mid-sweep worker crashes. The conformance suite
//! (`tests/service_integration.rs`) and CI gate 13 `cmp` exactly that.
//!
//! # Fault tolerance
//!
//! A worker that dies mid-job surfaces as EOF on its stdout pipe. The
//! coordinator re-queues the in-flight position at the *front* of the queue
//! (so recovery work is not starved behind the backlog), respawns the worker,
//! and counts the crash. Results are validated on adoption through
//! [`Campaign::adopt_record`] — the same re-binding the `--resume` path uses
//! for checkpoint records — so a confused worker cannot slot a result from a
//! different sweep. When [`ServeOptions::checkpoint_to`] is set, every adopted
//! result is also appended to an ordinary campaign checkpoint, making a
//! killed *coordinator* resumable by `libra-sim campaign --resume`.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tbr_common::hostprof::{HostMeta, HostTotals};
use tbr_common::wire::{write_frame, FrameReader};

use crate::campaign::{
    Campaign, CampaignProfile, CampaignResult, JobProfile, RunOptions, WorkerProfile,
};
use crate::checkpoint::{CheckpointFormat, CheckpointHeader, CheckpointWriter, Record};
use crate::report;
use crate::wire::{JobSpec, Message};

/// Environment variable overriding every service read timeout, in seconds.
/// The test suite sets small sweeps but CI machines can be slow; raising this
/// beats sprinkling per-call timeouts.
pub const TIMEOUT_ENV: &str = "LIBRA_TEST_TIMEOUT_SECS";

/// The service's read timeout: [`TIMEOUT_ENV`] if set and parseable, else
/// 120 s. Applied via `set_read_timeout` on every TCP socket so a hung peer
/// can never wedge an endpoint forever (pipes instead surface worker death
/// as EOF).
pub fn default_timeout() -> Duration {
    let secs = std::env::var(TIMEOUT_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(120);
    Duration::from_secs(secs)
}

/// Configuration of a [`Coordinator`] / [`run_sharded`] pool.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker processes to spawn per submitted sweep.
    pub workers: usize,
    /// Command line that launches one worker (defaults to
    /// `[current_exe, "worker"]`). Tests point this at
    /// `CARGO_BIN_EXE_libra-sim`.
    pub worker_cmd: Vec<String>,
    /// Serve exactly one connection, then return (tests and CI smoke).
    pub once: bool,
    /// Fault injection: kill the worker that gets assigned this campaign
    /// position, once, to exercise crash recovery.
    pub kill_job: Option<usize>,
    /// Append every adopted result to this campaign checkpoint
    /// (`libra-sim campaign --resume` compatible).
    pub checkpoint_to: Option<String>,
    /// TCP read timeout for client connections.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            worker_cmd: default_worker_cmd(),
            once: false,
            kill_job: None,
            checkpoint_to: None,
            read_timeout: default_timeout(),
        }
    }
}

/// The default worker launch command: this very binary, `worker` subcommand.
/// Falls back to a bare `libra-sim` lookup on `PATH` if the executable path
/// is unavailable.
pub fn default_worker_cmd() -> Vec<String> {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.to_str().map(str::to_string))
        .unwrap_or_else(|| "libra-sim".to_string());
    vec![exe, "worker".to_string()]
}

// ---------------------------------------------------------------------------
// Worker process handle
// ---------------------------------------------------------------------------

/// One spawned worker process: stdio pipes plus the host stamp from its hello.
struct WorkerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: FrameReader<BufReader<ChildStdout>>,
    host: HostMeta,
}

impl WorkerProc {
    /// Spawns `cmd` and performs the hello handshake (worker speaks first on
    /// stdio, so a wrong binary fails here, not mid-sweep).
    fn spawn(cmd: &[String]) -> Result<Self, String> {
        let (exe, args) = cmd.split_first().ok_or("service: empty worker command")?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("service: spawning worker `{exe}`: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("service: worker stdout unavailable")?;
        let mut reader = FrameReader::new(BufReader::new(stdout));
        let hello = reader
            .read_frame("worker")?
            .ok_or("service: worker exited before its hello")?;
        let host = match Message::decode(&hello)? {
            Message::Hello { host, .. } => host,
            other => return Err(format!("service: worker sent {} before hello", other.tag())),
        };
        Ok(Self { child, stdin, reader, host })
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("service: worker stdin closed")?;
        write_frame(stdin, &msg.encode(), "worker")
    }

    fn recv(&mut self) -> Result<Message, String> {
        let frame = self
            .reader
            .read_frame("worker")?
            .ok_or("service: worker closed its stdout mid-sweep")?;
        Message::decode(&frame)
    }

    /// Asks the worker to exit and reaps it (pipe close is the backstop).
    fn shutdown(mut self) {
        let _ = self.send(&Message::Shutdown);
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // Reap unconditionally so an error path never leaks a child process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Sharded execution
// ---------------------------------------------------------------------------

/// Outcome of one sharded sweep.
#[derive(Debug)]
pub struct ShardedRun {
    /// Results in campaign order (same invariant as `Campaign::run_resilient`).
    pub results: Vec<CampaignResult>,
    /// Host-side profile: one [`WorkerProfile`] per worker *process*, one
    /// [`JobProfile`] per job, and one [`HostMeta`] stamp per worker in
    /// `host.hosts` (worker order) for multi-host attribution.
    pub profile: CampaignProfile,
    /// Worker processes that died mid-job and were respawned.
    pub crashes: usize,
}

/// Runs `campaign` across [`ServeOptions::workers`] spawned worker processes
/// and returns results in campaign order.
///
/// `progress` is invoked (serialised under a lock) with one
/// [`Message::Progress`] per finished job, in completion order — completion
/// order is nondeterministic, the slotted results are not.
pub fn run_sharded(
    campaign: &Campaign,
    spec: &JobSpec,
    opts: &ServeOptions,
    progress: &mut (dyn FnMut(&Message) + Send),
) -> Result<ShardedRun, String> {
    let total = campaign.len();
    let workers = opts.workers.max(1).min(total.max(1));
    let t0 = Instant::now();

    let ckpt = match &opts.checkpoint_to {
        Some(path) => Some(CheckpointWriter::create(
            path,
            CheckpointHeader {
                seed: campaign.seed,
                jobs: total,
                fingerprint: campaign.fingerprint(),
            },
            CheckpointFormat::default(),
        )?),
        None => None,
    };

    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..total).collect());
    let slots: Mutex<Vec<Option<CampaignResult>>> = Mutex::new(vec![None; total]);
    let job_profiles: Mutex<Vec<Option<JobProfile>>> = Mutex::new(vec![None; total]);
    let hosts: Mutex<Vec<Option<HostMeta>>> = Mutex::new(vec![None; workers]);
    let done = AtomicUsize::new(0);
    let crashes = AtomicUsize::new(0);
    let killed = AtomicBool::new(false);
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(Vec::new());
    let progress = Mutex::new(progress);
    // A worker that keeps dying must not loop forever: allow every job its
    // re-run plus a little slack per worker, then give up structurally.
    let crash_budget = total + workers * 2;

    let worker_errors: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queue = &queue;
                let slots = &slots;
                let job_profiles = &job_profiles;
                let hosts = &hosts;
                let done = &done;
                let crashes = &crashes;
                let killed = &killed;
                let tallies = &tallies;
                let progress = &progress;
                let ckpt = ckpt.as_ref();
                scope.spawn(move || -> Result<(), String> {
                    let mut proc = WorkerProc::spawn(&opts.worker_cmd)?;
                    hosts.lock().unwrap()[w] = Some(proc.host.clone());
                    let mut jobs_run = 0usize;
                    let mut busy = 0.0f64;
                    loop {
                        let Some(job) = queue.lock().unwrap().pop_front() else {
                            break;
                        };
                        let t_job = Instant::now();
                        proc.send(&Message::Assign { job, spec: spec.clone() })?;
                        if opts.kill_job == Some(job)
                            && !killed.swap(true, Ordering::SeqCst)
                        {
                            // Fault injection: murder the worker mid-job. The
                            // recv below sees EOF and takes the recovery path.
                            let _ = proc.child.kill();
                        }
                        match proc.recv() {
                            Ok(Message::JobResult { record, host: _ }) => {
                                let result = campaign.adopt_record(&record)?;
                                if result.job() != job {
                                    return Err(format!(
                                        "service: worker answered job {} for assignment {job}",
                                        result.job()
                                    ));
                                }
                                if let Some(ckpt) = ckpt {
                                    ckpt.append(&result)?;
                                }
                                let n = done.fetch_add(1, Ordering::SeqCst) + 1;
                                let msg = Message::Progress {
                                    job,
                                    done: n,
                                    total,
                                    abbrev: result.abbrev().to_string(),
                                    scheduler: result.scheduler().to_string(),
                                    ok: result.is_success(),
                                };
                                jobs_run += 1;
                                busy += t_job.elapsed().as_secs_f64();
                                job_profiles.lock().unwrap()[job] = Some(JobProfile {
                                    job,
                                    abbrev: campaign.jobs()[job].profile.abbrev,
                                    scheduler: campaign.jobs()[job].scheduler.build().name(),
                                    worker: w,
                                    secs: t_job.elapsed().as_secs_f64(),
                                });
                                slots.lock().unwrap()[job] = Some(result);
                                (progress.lock().unwrap())(&msg);
                            }
                            Ok(Message::Error { message }) => {
                                return Err(format!("service: worker error: {message}"));
                            }
                            Ok(other) => {
                                return Err(format!(
                                    "service: worker sent unexpected {} frame",
                                    other.tag()
                                ));
                            }
                            Err(e) => {
                                // Worker died (or spoke garbage) mid-job:
                                // requeue the position at the front so the
                                // respawned worker finishes it first, then
                                // respawn. The result is bit-identical —
                                // the job seed derives from the position.
                                let n = crashes.fetch_add(1, Ordering::SeqCst) + 1;
                                if n > crash_budget {
                                    return Err(format!(
                                        "service: {n} worker crashes exceed the budget of \
                                         {crash_budget} (last: {e})"
                                    ));
                                }
                                queue.lock().unwrap().push_front(job);
                                proc = WorkerProc::spawn(&opts.worker_cmd)?;
                                hosts.lock().unwrap()[w] = Some(proc.host.clone());
                            }
                        }
                    }
                    proc.shutdown();
                    tallies
                        .lock()
                        .unwrap()
                        .push(WorkerTally { worker: w, jobs_run, busy_secs: busy });
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });

    for r in &worker_errors {
        if let Err(e) = r {
            return Err(e.clone());
        }
    }

    let results: Vec<CampaignResult> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| format!("service: job {i} was never completed")))
        .collect::<Result<_, _>>()?;

    let mut worker_profiles: Vec<WorkerProfile> = (0..workers)
        .map(|w| WorkerProfile { worker: w, jobs_run: 0, steals: 0, busy_secs: 0.0 })
        .collect();
    for tally in tallies.into_inner().unwrap() {
        if let Some(p) = worker_profiles.get_mut(tally.worker) {
            p.jobs_run = tally.jobs_run;
            p.busy_secs = tally.busy_secs;
        }
    }

    let profile = CampaignProfile {
        threads: workers,
        wall_secs: t0.elapsed().as_secs_f64(),
        workers: worker_profiles,
        jobs: job_profiles
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|j| j.expect("every completed job was profiled"))
            .collect(),
        host: Some(HostTotals {
            hosts: hosts
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|h| h.expect("every worker slot hello'd"))
                .collect(),
            ..Default::default()
        }),
    };

    Ok(ShardedRun { results, profile, crashes: crashes.into_inner() })
}

/// Per-worker wall-clock tally, carried out of the scoped threads.
struct WorkerTally {
    worker: usize,
    jobs_run: usize,
    busy_secs: f64,
}

// ---------------------------------------------------------------------------
// Coordinator (TCP server)
// ---------------------------------------------------------------------------

/// The `libra-sim serve` TCP coordinator.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    opts: ServeOptions,
}

impl Coordinator {
    /// Binds on `addr`. Bind `127.0.0.1:0` and read back
    /// [`local_addr`](Coordinator::local_addr) to get a collision-free
    /// ephemeral port — the convention every test and CI gate uses.
    pub fn bind(addr: &str, opts: ServeOptions) -> Result<Self, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("service: binding {addr}: {e}"))?;
        Ok(Self { listener, opts })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("service: local_addr: {e}"))
    }

    /// Accept loop: serves connections sequentially, one sweep per
    /// connection. Returns after the first connection when
    /// [`ServeOptions::once`] is set; otherwise runs until the process dies
    /// (the operational mode — campaign sweeps are long compared to accept
    /// latency, so sequential service keeps the shard pool contention-free).
    ///
    /// `notify` observes every progress/report frame sent to any client
    /// (the CLI prints them; tests pass a sink).
    pub fn serve(&self, notify: &mut (dyn FnMut(&Message) + Send)) -> Result<(), String> {
        loop {
            let (stream, peer) = self
                .listener
                .accept()
                .map_err(|e| format!("service: accept: {e}"))?;
            let peer = peer.to_string();
            if let Err(e) = self.handle_client(stream, &peer, notify) {
                // A broken client must not take the service down; surface the
                // error through notify and keep accepting.
                notify(&Message::Error { message: format!("{peer}: {e}") });
            }
            if self.opts.once {
                return Ok(());
            }
        }
    }

    /// Serves one client connection end to end: handshake, submit, shard,
    /// stream progress, final report.
    fn handle_client(
        &self,
        stream: TcpStream,
        peer: &str,
        notify: &mut (dyn FnMut(&Message) + Send),
    ) -> Result<(), String> {
        stream
            .set_read_timeout(Some(self.opts.read_timeout))
            .map_err(|e| format!("service: set_read_timeout: {e}"))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("service: cloning stream for {peer}: {e}"))?;
        let mut reader = FrameReader::new(BufReader::new(stream));
        write_frame(
            &mut writer,
            &Message::Hello { role: "coordinator".into(), host: HostMeta::capture() }.encode(),
            peer,
        )?;

        // Read up to the submit frame (a polite client hellos first).
        let spec = loop {
            let frame = reader
                .read_frame(peer)?
                .ok_or_else(|| format!("service: {peer} disconnected before submitting"))?;
            match Message::decode(&frame) {
                Ok(Message::Hello { .. }) => continue,
                Ok(Message::Submit { spec }) => break spec,
                Ok(other) => {
                    let e = format!("service: expected submit, got {} frame", other.tag());
                    let _ = write_frame(&mut writer, &Message::Error { message: e.clone() }.encode(), peer);
                    return Err(e);
                }
                Err(e) => {
                    let _ = write_frame(&mut writer, &Message::Error { message: e.clone() }.encode(), peer);
                    return Err(e);
                }
            }
        };

        let outcome = (|| -> Result<(), String> {
            let (_cfg, campaign) = spec.to_campaign()?;
            write_frame(
                &mut writer,
                &Message::Accepted {
                    jobs: campaign.len(),
                    fingerprint: campaign.fingerprint(),
                }
                .encode(),
                peer,
            )?;
            let writer_cell = Mutex::new(&mut writer);
            let notify_cell = Mutex::new(notify);
            let mut forward = |msg: &Message| {
                let _ = write_frame(*writer_cell.lock().unwrap(), &msg.encode(), peer);
                (notify_cell.lock().unwrap())(msg);
            };
            let run = run_sharded(&campaign, &spec, &self.opts, &mut forward)?;
            let ok = run.results.iter().filter(|r| r.is_success()).count();
            let report = Message::Report {
                fingerprint: campaign.fingerprint(),
                summary: format!(
                    "{ok}/{} jobs ok, {} worker crash(es), {:.2}s wall, {} worker(s)",
                    run.results.len(),
                    run.crashes,
                    run.profile.wall_secs,
                    run.profile.threads
                ),
                crashes: run.crashes,
                hosts: run
                    .profile
                    .host
                    .as_ref()
                    .map(|h| h.hosts.clone())
                    .unwrap_or_default(),
                report_json: report::campaign_metrics_json(&run.results),
            };
            write_frame(*writer_cell.lock().unwrap(), &report.encode(), peer)?;
            (notify_cell.lock().unwrap())(&report);
            Ok(())
        })();
        if let Err(e) = &outcome {
            let _ = write_frame(&mut writer, &Message::Error { message: e.clone() }.encode(), peer);
        }
        outcome
    }
}

// ---------------------------------------------------------------------------
// Worker (stdio loop)
// ---------------------------------------------------------------------------

/// The `libra-sim worker` stdio loop: hello on stdout, then serve `assign`
/// frames until `shutdown` or clean EOF on stdin.
///
/// Workers are stateless between sweeps — every `assign` carries the full
/// [`JobSpec`] — but cache the rebuilt [`Campaign`] across consecutive
/// assignments of the same spec (rebuilding is cheap; the cache just avoids
/// re-deriving the suite 32 times per sweep).
pub fn run_worker() -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = FrameReader::new(stdin.lock());
    let mut out = stdout.lock();
    write_frame(
        &mut out,
        &Message::Hello { role: "worker".into(), host: HostMeta::capture() }.encode(),
        "coordinator",
    )?;
    let mut cache: Option<(JobSpec, Campaign)> = None;
    while let Some(frame) = reader.read_frame("coordinator")? {
        match Message::decode(&frame)? {
            Message::Assign { job, spec } => {
                if cache.as_ref().is_none_or(|(s, _)| s != &spec) {
                    let (_cfg, campaign) = spec.to_campaign()?;
                    cache = Some((spec, campaign));
                }
                let (_, campaign) = cache.as_ref().expect("cache just filled");
                if job >= campaign.len() {
                    let msg = format!(
                        "worker: assignment {job} out of range ({} jobs)",
                        campaign.len()
                    );
                    let _ = write_frame(
                        &mut out,
                        &Message::Error { message: msg.clone() }.encode(),
                        "coordinator",
                    );
                    return Err(msg);
                }
                let result = campaign.run_one(job, &RunOptions::default());
                write_frame(
                    &mut out,
                    &Message::JobResult {
                        record: Record::from_result(&result),
                        host: HostMeta::capture(),
                    }
                    .encode(),
                    "coordinator",
                )?;
            }
            Message::Shutdown => break,
            other => {
                return Err(format!("worker: unexpected {} frame from coordinator", other.tag()))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Submit (TCP client)
// ---------------------------------------------------------------------------

/// What a completed [`submit`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// Jobs in the sweep (from the coordinator's `accepted` frame).
    pub jobs: usize,
    /// Campaign fingerprint, triple-checked: local rebuild, `accepted`, and
    /// the final report all must agree.
    pub fingerprint: u64,
    /// Coordinator's one-line summary.
    pub summary: String,
    /// Worker crashes the sweep absorbed.
    pub crashes: usize,
    /// One host stamp per contributing worker, in worker order.
    pub hosts: Vec<HostMeta>,
    /// The full `libra-metrics-v1` report, byte-identical to a
    /// single-process `libra-sim campaign --report-json` of the same spec.
    pub report_json: String,
}

/// Submits `spec` to a coordinator at `addr`, streaming progress frames into
/// `on_progress`, and returns the final report.
///
/// The client rebuilds the campaign locally and refuses a coordinator whose
/// fingerprint disagrees — version skew is caught before any cycles burn.
pub fn submit(
    addr: &str,
    spec: &JobSpec,
    timeout: Duration,
    on_progress: &mut dyn FnMut(&Message),
) -> Result<SubmitOutcome, String> {
    let (_cfg, local) = spec.to_campaign()?;
    let want_fp = local.fingerprint();
    let stream =
        TcpStream::connect(addr).map_err(|e| format!("submit: connecting {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("submit: set_read_timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("submit: cloning stream: {e}"))?;
    let mut reader = FrameReader::new(BufReader::new(stream));
    write_frame(
        &mut writer,
        &Message::Hello { role: "client".into(), host: HostMeta::capture() }.encode(),
        addr,
    )?;
    write_frame(&mut writer, &Message::Submit { spec: spec.clone() }.encode(), addr)?;
    let mut jobs = None;
    loop {
        let frame = reader
            .read_frame(addr)?
            .ok_or_else(|| "submit: coordinator disconnected before the report".to_string())?;
        match Message::decode(&frame)? {
            Message::Hello { .. } => continue,
            Message::Accepted { jobs: n, fingerprint } => {
                if fingerprint != want_fp {
                    return Err(format!(
                        "submit: coordinator fingerprint {fingerprint:#x} != local {want_fp:#x} \
                         (mismatched builds or suite definitions)"
                    ));
                }
                if n != local.len() {
                    return Err(format!(
                        "submit: coordinator rebuilt {n} jobs, local campaign has {}",
                        local.len()
                    ));
                }
                jobs = Some(n);
            }
            msg @ Message::Progress { .. } => on_progress(&msg),
            Message::Report { fingerprint, summary, crashes, hosts, report_json } => {
                if fingerprint != want_fp {
                    return Err(format!(
                        "submit: report fingerprint {fingerprint:#x} != local {want_fp:#x}"
                    ));
                }
                let jobs = jobs
                    .ok_or_else(|| "submit: report arrived before accepted".to_string())?;
                return Ok(SubmitOutcome {
                    jobs,
                    fingerprint,
                    summary,
                    crashes,
                    hosts,
                    report_json,
                });
            }
            Message::Error { message } => return Err(format!("submit: coordinator: {message}")),
            other => {
                return Err(format!("submit: unexpected {} frame from coordinator", other.tag()))
            }
        }
    }
}
