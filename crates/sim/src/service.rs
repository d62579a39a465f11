//! The campaign service: a long-running coordinator that shards sweeps across
//! `libra-sim worker` child processes.
//!
//! `libra-sim serve` binds a [`Coordinator`] on a TCP address and accepts
//! `libra-wire-v1` connections (see [`crate::wire`]). Each `submit` frame names
//! a campaign constructively (a [`JobSpec`]); the coordinator rebuilds the
//! [`Campaign`] locally, answers with its job count and fingerprint, then runs
//! the sweep through [`run_sharded`]: the same work-stealing pool as
//! [`Campaign::run_resilient`], with each pool worker driving a spawned worker
//! *process* that is fed one campaign position at a time over stdio, and
//! results flowing back as checkpoint [`Record`]s.
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
//! A worker that dies mid-job surfaces as EOF on its stdout pipe. Its pool
//! worker counts the crash against a budget of `jobs + 2 × workers`,
//! respawns the process and re-runs the same position on it, so recovery
//! work never waits behind the backlog. Results are validated on adoption
//! through [`Campaign::adopt_record`] — the same re-binding the `--resume`
//! path uses for checkpoint records — so a confused worker cannot slot a
//! result from a different sweep. When [`ServeOptions::checkpoint_to`] is
//! set, every adopted result is also appended to an ordinary campaign
//! checkpoint, making a killed *coordinator* resumable by
//! `libra-sim campaign --resume`.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use tbr_common::hostprof::{HostMeta, HostTotals};
use tbr_common::wire::{write_frame, FrameReader};

use crate::campaign::{Campaign, CampaignResult, CampaignRun, JobRunner, Ran, RunOptions};
use crate::checkpoint::Record;
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

/// Configuration of a [`Coordinator`] and its [`run_sharded`] sweeps.
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
// Sharded execution
// ---------------------------------------------------------------------------

/// What the worker processes of one sharded sweep share.
struct Shard<'a> {
    campaign: &'a Campaign,
    spec: &'a JobSpec,
    opts: &'a ServeOptions,
    /// Worker processes that died mid-job so far.
    crashes: AtomicUsize,
    /// The most crashes the sweep absorbs before giving up.
    crash_budget: usize,
    /// Whether the [`ServeOptions::kill_job`] fault has fired.
    killed: AtomicBool,
}

/// One spawned `libra-sim worker` process: the campaign pool's runner for
/// a sharded sweep, fed one campaign position per `assign` frame.
struct WorkerProc<'a> {
    shard: &'a Shard<'a>,
    child: Child,
    stdin: ChildStdin,
    reader: FrameReader<BufReader<ChildStdout>>,
    /// Host stamp from the worker's hello.
    host: HostMeta,
}

impl<'a> WorkerProc<'a> {
    /// Spawns a worker and performs the hello handshake (worker speaks first
    /// on stdio, so a wrong binary fails here, not mid-sweep).
    fn spawn(shard: &'a Shard<'a>) -> Result<Self, String> {
        let cmd = &shard.opts.worker_cmd;
        let (exe, args) = cmd.split_first().ok_or("service: empty worker command")?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("service: spawning worker `{exe}`: {e}"))?;
        let stdin = child.stdin.take().ok_or("service: worker stdin unavailable")?;
        let stdout = child.stdout.take().ok_or("service: worker stdout unavailable")?;
        let mut reader = FrameReader::new(BufReader::new(stdout));
        let hello = reader
            .read_frame("worker")?
            .ok_or("service: worker exited before its hello")?;
        let host = match Message::decode(&hello)? {
            Message::Hello { host, .. } => host,
            other => return Err(format!("service: worker sent {} before hello", other.tag())),
        };
        Ok(Self { shard, child, stdin, reader, host })
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        write_frame(&mut self.stdin, &msg.encode(), "worker")
    }
}

impl JobRunner for WorkerProc<'_> {
    /// The last hello's host stamp; the process shuts down as `self` drops.
    type Done = HostMeta;

    fn done(self) -> HostMeta {
        self.host.clone()
    }

    fn run(&mut self, job: usize) -> Result<Ran, String> {
        let s = self.shard;
        loop {
            let assign = Message::Assign { job, spec: s.spec.clone() };
            let reply = self.send(&assign).and_then(|()| {
                if s.opts.kill_job == Some(job) && !s.killed.swap(true, Ordering::SeqCst) {
                    // Fault injection: murder the worker mid-job. The read
                    // below sees EOF and takes the recovery path.
                    let _ = self.child.kill();
                }
                let frame = self.reader.read_frame("worker")?;
                Message::decode(&frame.ok_or("service: worker closed its stdout mid-sweep")?)
            });
            match reply {
                Ok(Message::JobResult { record, host: _ }) => {
                    let result = s.campaign.adopt_record(&record)?;
                    if result.job() != job {
                        return Err(format!(
                            "service: worker answered job {} for assignment {job}",
                            result.job()
                        ));
                    }
                    return Ok((result, None, None));
                }
                Ok(Message::Error { message }) => {
                    return Err(format!("service: worker error: {message}"))
                }
                Ok(other) => {
                    return Err(format!("service: worker sent unexpected {} frame", other.tag()))
                }
                Err(e) => {
                    // The pipe died (or the worker spoke garbage) mid-job:
                    // respawn the worker and re-run the same position. The
                    // result is bit-identical, because the job seed derives
                    // from the position.
                    let n = s.crashes.fetch_add(1, Ordering::SeqCst) + 1;
                    if n > s.crash_budget {
                        return Err(format!(
                            "service: {n} worker crashes exceed the budget of {} (last: {e})",
                            s.crash_budget
                        ));
                    }
                    *self = Self::spawn(s)?;
                }
            }
        }
    }
}

impl Drop for WorkerProc<'_> {
    /// Asks the worker to exit and reaps it, so no path leaks a child
    /// process. A dead worker just fails the send.
    fn drop(&mut self) {
        let _ = self.send(&Message::Shutdown);
        let _ = self.child.wait();
    }
}

/// Runs `campaign` on the campaign's worker pool with one spawned worker
/// process per pool worker ([`ServeOptions::workers`]), and returns the run
/// with the worker crashes it absorbed. The run's results are in campaign
/// order; its profile stamps one host per worker process, in worker order.
///
/// `progress` is invoked (serialised under a lock) with one
/// [`Message::Progress`] per finished job, in completion order — completion
/// order is nondeterministic, the slotted results are not. A failed
/// checkpoint append fails the sweep.
pub fn run_sharded(
    campaign: &Campaign,
    spec: &JobSpec,
    opts: &ServeOptions,
    progress: &mut (dyn FnMut(&Message) + Send),
) -> Result<(CampaignRun, usize), String> {
    let total = campaign.len();
    let workers = opts.workers.clamp(1, total.max(1));
    let shard = Shard {
        campaign,
        spec,
        opts,
        crashes: AtomicUsize::new(0),
        // A worker that keeps dying must not loop forever: allow every job
        // its re-run plus a little slack per worker, then give up.
        crash_budget: total + workers * 2,
        killed: AtomicBool::new(false),
    };
    let progress = Mutex::new((0, progress));
    let on_result = |r: &CampaignResult| {
        let mut guard = progress.lock().expect("a pool worker panicked reporting progress");
        let (done, notify) = &mut *guard;
        *done += 1;
        notify(&Message::Progress {
            job: r.job(),
            done: *done,
            total,
            abbrev: r.abbrev().to_string(),
            scheduler: r.scheduler().to_string(),
            ok: r.is_success(),
        });
    };
    let spawn = |_| WorkerProc::spawn(&shard);
    let run_opts = RunOptions {
        threads: workers,
        checkpoint_to: opts.checkpoint_to.clone(),
        ..RunOptions::default()
    };
    let (mut run, hosts) = campaign.run_pool(&run_opts, &spawn, &on_result)?;
    if let Some(e) = run.checkpoint_error {
        return Err(e);
    }
    run.profile.host = Some(HostTotals { hosts, ..HostTotals::default() });
    Ok((run, shard.crashes.load(Ordering::SeqCst)))
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

        let outcome = (|| -> Result<(), String> {
            // Read up to the submit frame (a polite client hellos first).
            let spec = loop {
                let frame = reader
                    .read_frame(peer)?
                    .ok_or_else(|| format!("service: {peer} disconnected before submitting"))?;
                match Message::decode(&frame)? {
                    Message::Hello { .. } => continue,
                    Message::Submit { spec } => break spec,
                    other => {
                        return Err(format!("service: expected submit, got {} frame", other.tag()))
                    }
                }
            };
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
            let mut forward = |msg: &Message| {
                let _ = write_frame(&mut writer, &msg.encode(), peer);
                notify(msg);
            };
            let (run, crashes) = run_sharded(&campaign, &spec, &self.opts, &mut forward)?;
            let ok = run.results.iter().filter(|r| r.is_success()).count();
            let report = Message::Report {
                fingerprint: campaign.fingerprint(),
                summary: format!(
                    "{ok}/{} jobs ok, {crashes} worker crash(es), {:.2}s wall, {} worker(s)",
                    run.results.len(),
                    run.profile.wall_secs,
                    run.profile.threads
                ),
                crashes,
                hosts: run.profile.host.map(|h| h.hosts).unwrap_or_default(),
                report_json: report::campaign_metrics_json(&run.results),
            };
            write_frame(&mut writer, &report.encode(), peer)?;
            notify(&report);
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
