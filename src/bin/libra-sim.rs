//! `libra-sim` — command-line driver for the LIBRA TBR GPU simulator.
//!
//! ```text
//! libra-sim suite                         list the 32 benchmarks
//! libra-sim run <ABBREV> [flags]          simulate one benchmark
//! libra-sim compare <ABBREV> [flags]      baseline vs PTR vs LIBRA
//! libra-sim sweep-ru <ABBREV> [flags]     1..4 Raster Units
//! libra-sim campaign [flags]              parallel sweep over the whole suite
//! libra-sim serve [flags]                 campaign service: TCP coordinator +
//!                                         multi-process worker sharding
//! libra-sim submit [flags]                send a sweep to a running coordinator
//! libra-sim worker                        stdio shard worker (spawned by serve)
//! libra-sim trace-check <FILE>            validate an emitted Chrome trace
//! ```
//!
//! Each subcommand takes exactly the flags it honours; any other argument
//! exits 1 naming it. `suite` and `worker` take none.
//!
//! ```text
//! run       GPU: --frames N (default 6)  --fhd  --scheduler z|scanline|hilbert|
//!           static2|static4|static8|static16|libra (default libra)  --mechanism
//!           none|re|wasp|re+wasp|re-oracle|re-oracle+wasp (Rendering Elimination
//!           and/or WaSP on top of any scheduler; `re-oracle` renders everything
//!           and counts would-be discards + hash collisions)  --rus N (default 2,
//!           at most 256)  --cores N (per RU, default 4)  --ideal-memory
//!           driver: --event-loop heap|scan|par  --sim-threads N (par workers;
//!           results are bit-identical for every driver and thread count)
//!           outputs: --trace-out FILE (Perfetto/Chrome trace JSON; with
//!           LIBRA_HOSTPROF=1 it gains host-time lanes)  --report-json FILE
//!           (full metrics-registry report)
//! compare   --frames N  --fhd  and the driver flags
//! sweep-ru  --frames N  --fhd  and the driver flags
//! campaign  run's GPU and driver flags, plus --seed S  --take N (the suite's
//!           first N workloads)  --threads N (default: all cores)
//!           --verify (re-run serially with the same fault/budget/retries, fail
//!           on the first job that differs; every other flag still applies)
//!           --profile (worker and job wall-clock CSVs under bench_results/)
//!           --trace-out FILE (merged per-job traces)
//!           --report-json FILE (survivor metrics, `libra-metrics-v1`)
//!           --checkpoint FILE | --no-checkpoint (default: auto path under
//!           bench_results/)  --ckpt-format binary|json (default binary, `.ckptb`
//!           auto paths)  --resume FILE (adopt completed jobs of either encoding,
//!           re-run the rest)  --budget-cycles N (watchdog: abort a job past N
//!           simulated cycles)  --retries N (default 1)  --fault KIND:JOB (inject
//!           panic|panic-once|timeout|timeout-once)
//! serve     --addr HOST:PORT (default 127.0.0.1:4650; port 0 binds an ephemeral
//!           port, echoed in the "listening on" line)  --workers N (worker
//!           processes per sweep, default 2)  --once (serve one connection, then
//!           exit)  --checkpoint FILE (append adopted results to a binary
//!           `--resume`-compatible campaign checkpoint)  --kill-worker JOB (kill
//!           the worker assigned JOB once, exercising crash recovery)
//! submit    --addr HOST:PORT, the sweep flags --frames --fhd --scheduler
//!           --mechanism --rus --cores --ideal-memory --seed --take, and
//!           --report-json FILE (the returned report, byte-identical to
//!           `libra-sim campaign --report-json` of the same sweep)
//! ```
//!
//! The worker processes of `serve` inherit its environment, so
//! `LIBRA_EVENT_LOOP` and `LIBRA_SIM_THREADS` pick their event-loop driver.
//!
//! Traces carry *simulated* timestamps (1 GPU cycle = 1 µs on the Perfetto
//! timeline), so trace output is bit-identical for every `--threads` value.
//! Host-time observability is opt-in: `LIBRA_HOSTPROF=1 libra-sim run` prints
//! wall-clock telemetry of the parallel event core (and adds its host lanes to
//! `--trace-out`) — observation-only, simulated results are bit-identical
//! with it on or off. `campaign --profile` times workers and jobs instead.
//! Timing the simulator is the job of the repository benchmark
//! (`cargo run --release --offline --manifest-path libra-benchmark/Cargo.toml --
//! --smoke | --workload W | --compare PARENT CHANGE`); it spawns this binary,
//! so `LIBRA_EVENT_LOOP` / `LIBRA_SIM_THREADS` in its environment A/B-test an
//! event-loop driver.
//!
//! Malformed `LIBRA_EVENT_LOOP`, `LIBRA_SIM_THREADS` or `LIBRA_FAULT` values are
//! refused at start-up, as the matching flags are. A closed stdout
//! (`libra-sim suite | head -1`) or stderr ends the process quietly with
//! status 1.
//!
//! A campaign with failed or timed-out jobs still writes every output for the
//! survivors, prints a structured failure report, and exits non-zero. See
//! `docs/OPERATIONS.md` for the full operational reference including a worked
//! resume-after-crash walkthrough.
//!
//! Argument parsing is hand-rolled (the workspace intentionally carries no CLI
//! dependency).

use std::process::ExitCode;

use libra_repro::prelude::*;
use tbr_sim::wire::parse_scheduler;
use tbr_sim::{event_loop, report, CheckpointFormat, JobSpec, ServeOptions};

/// Writes to stdout. A closed stdout (`libra-sim suite | head -1`) ends the
/// process quietly with status 1 instead of panicking as `print!` does.
/// SIGPIPE stays ignored, so `serve` still outlives a dead worker's pipe.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            emit_err(format_args!("error: writing to stdout: {e}\n"));
        }
        std::process::exit(1);
    }
}

/// [`emit`] for stderr: a closed stderr ends the process with status 1
/// instead of panicking as `eprint!` does.
fn emit_err(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if std::io::stderr().write_fmt(args).is_err() {
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// `eprintln!` through [`emit_err`].
macro_rules! errln {
    ($($arg:tt)*) => { emit_err(format_args!("{}\n", format_args!($($arg)*))) };
}

/// A flag and its value placeholder; an empty placeholder marks a switch.
type Flag = (&'static str, &'static str);

const SCREEN: &[Flag] = &[("--frames", "N"), ("--fhd", "")];
const GPU: &[Flag] = &[
    ("--scheduler", "z|scanline|hilbert|static2|static4|static8|static16|libra"),
    ("--mechanism", "none|re|wasp|re+wasp|re-oracle|re-oracle+wasp"),
    ("--rus", "N"), ("--cores", "N"), ("--ideal-memory", ""),
];
const SWEEP: &[Flag] = &[("--seed", "S"), ("--take", "N")];
const DRIVER: &[Flag] = &[("--event-loop", "heap|scan|par"), ("--sim-threads", "N")];
const OUTPUTS: &[Flag] = &[("--trace-out", "FILE"), ("--report-json", "FILE")];
const CAMPAIGN: &[Flag] = &[
    ("--threads", "N"), ("--verify", ""), ("--profile", ""), ("--checkpoint", "FILE"),
    ("--no-checkpoint", ""), ("--ckpt-format", "binary|json"), ("--resume", "FILE"),
    ("--budget-cycles", "N"), ("--retries", "N"), ("--fault", "KIND:JOB"),
];
const SERVE: &[Flag] = &[
    ("--addr", "HOST:PORT"), ("--workers", "N"), ("--once", ""), ("--checkpoint", "FILE"),
    ("--kill-worker", "JOB"),
];

/// Each subcommand, its operand, and the flags it honours. Any other
/// argument is refused.
const COMMANDS: &[(&str, &str, &[&[Flag]])] = &[
    ("suite", "", &[]),
    ("run", "<ABBREV>", &[SCREEN, GPU, DRIVER, OUTPUTS]),
    ("compare", "<ABBREV>", &[SCREEN, DRIVER]),
    ("sweep-ru", "<ABBREV>", &[SCREEN, DRIVER]),
    ("campaign", "", &[SCREEN, GPU, SWEEP, DRIVER, OUTPUTS, CAMPAIGN]),
    ("serve", "", &[SERVE]),
    ("submit", "", &[&[("--addr", "HOST:PORT")], SCREEN, GPU, SWEEP, &[("--report-json", "FILE")]]),
    ("worker", "", &[]),
    ("trace-check", "<FILE>", &[]),
];

/// A parsed command line: each flag lands in the library type that
/// consumes it, so the defaults are those types' own.
#[derive(Default)]
struct Cli {
    /// The sweep; `run`, `compare` and `sweep-ru` read its GPU and frames.
    spec: JobSpec,
    /// How `campaign` runs the sweep.
    run: RunOptions,
    /// How `serve` shards sweeps.
    serve: ServeOptions,
    addr: String,
    verify: bool,
    profile: bool,
    no_checkpoint: bool,
    trace_out: Option<String>,
    report_json: Option<String>,
}

impl Cli {
    /// Parses `args` against the flags `cmd` honours.
    fn parse(cmd: &str, flags: &[&[Flag]], args: &[String]) -> Result<Self, String> {
        let mut cli = Self {
            run: RunOptions {
                threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                ..RunOptions::default()
            },
            addr: "127.0.0.1:4650".into(),
            ..Self::default()
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(&(flag, value)) = flags.iter().copied().flatten().find(|(f, _)| f == arg)
            else {
                return Err(format!("`{cmd}` does not take `{arg}`"));
            };
            let value = match value {
                "" => "",
                _ => it.next().ok_or_else(|| format!("{flag} needs a value"))?,
            };
            cli.set(flag, value).map_err(|e| format!("{flag}: {e}"))?;
        }
        Ok(cli)
    }

    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr<Err: std::fmt::Display>>(v: &str) -> Result<T, String> {
            v.parse().map_err(|e| format!("{e}"))
        }
        fn positive(v: &str) -> Result<usize, String> {
            num(v).and_then(|n| if n == 0 { Err("must be >= 1".into()) } else { Ok(n) })
        }
        match flag {
            "--frames" => self.spec.frames = num(v)?,
            "--fhd" => self.spec.screen = "fhd".into(),
            "--scheduler" => {
                parse_scheduler(v)?;
                self.spec.scheduler = v.into();
            }
            "--mechanism" => self.spec.mechanism = MechanismSpec::parse(v)?.name(),
            "--rus" => self.spec.rus = num(v)?,
            "--cores" => self.spec.cores = num(v)?,
            "--ideal-memory" => self.spec.ideal_memory = true,
            "--seed" => self.spec.seed = num(v)?,
            "--take" => self.spec.take = Some(positive(v)?),
            "--threads" => self.run.threads = num::<usize>(v)?.max(1),
            "--verify" => self.verify = true,
            "--profile" => self.profile = true,
            "--trace-out" => self.trace_out = Some(v.into()),
            "--report-json" => self.report_json = Some(v.into()),
            "--checkpoint" => {
                self.run.checkpoint_to = Some(v.into());
                self.serve.checkpoint_to = Some(v.into());
            }
            "--no-checkpoint" => self.no_checkpoint = true,
            "--ckpt-format" => {
                self.run.ckpt_format = match v {
                    "binary" => CheckpointFormat::Binary,
                    "json" => CheckpointFormat::Json,
                    _ => return Err(format!("unknown checkpoint format `{v}` (binary|json)")),
                }
            }
            "--resume" => self.run.resume_from = Some(v.into()),
            "--budget-cycles" => self.run.budget_cycles = Some(num(v)?),
            "--retries" => self.run.retries = num(v)?,
            "--fault" => self.run.fault = Some(FaultSpec::parse(v)?),
            "--addr" => self.addr = v.into(),
            "--workers" => self.serve.workers = num::<usize>(v)?.max(1),
            "--once" => self.serve.once = true,
            "--kill-worker" => self.serve.kill_job = Some(num(v)?),
            "--event-loop" => {
                let mode = event_loop::parse(v)
                    .ok_or_else(|| format!("unknown event loop `{v}` (heap|scan|par)"))?;
                event_loop::set_mode(Some(mode));
            }
            "--sim-threads" => event_loop::set_sim_threads(Some(positive(v)?)),
            _ => unreachable!("`{flag}` is in a flag table but has no parser"),
        }
        Ok(())
    }
}

fn find(abbrev: &str) -> Result<BenchmarkProfile, String> {
    suite()
        .into_iter()
        .find(|p| p.abbrev.eq_ignore_ascii_case(abbrev))
        .ok_or_else(|| format!("unknown benchmark `{abbrev}` (try `libra-sim suite`)"))
}

fn cmd_suite() {
    outln!(
        "{:<6} {:<24} {:<5} {:<8} {:>8}",
        "abbr", "name", "cat", "class", "tris≈"
    );
    for p in suite() {
        outln!(
            "{:<6} {:<24} {:<5} {:<8} {:>8}",
            p.abbrev,
            p.name,
            p.category.label(),
            if p.memory_intensive {
                "memory"
            } else {
                "compute"
            },
            p.approx_triangles()
        );
    }
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {what} to {path}: {e}"))?;
    outln!("{what} written to {path}");
    Ok(())
}

fn cmd_run(abbrev: &str, cli: &Cli) -> Result<(), String> {
    use tbr_common::{hostprof, trace};

    let p = find(abbrev)?;
    let spec = &cli.spec;
    let cfg = spec.gpu_config()?;

    // The simulator publishes into its metrics registry unconditionally; the
    // trace and host-profile collectors are installed only on request (they are
    // observation-only either way — stats are bit-identical with them on or off).
    let mech = MechanismSpec::parse(&spec.mechanism)?;
    let sched = parse_scheduler(&spec.scheduler)?;
    let mut sim = GpuSimulator::with_mechanism(cfg.clone(), sched, mech);
    if cli.trace_out.is_some() {
        trace::start();
    }
    if hostprof::env_enabled() {
        hostprof::start();
    }
    let s = sim.render_sequence(&p, spec.frames);
    let trace = trace::finish();
    let host = hostprof::finish();

    outln!(
        "{}",
        report::sequence_summary(
            &if mech.is_default() {
                format!("{} ({} RU x {} cores)", p.abbrev, spec.rus, spec.cores)
            } else {
                format!("{} ({} RU x {} cores, {mech})", p.abbrev, spec.rus, spec.cores)
            },
            &s,
            &cfg
        )
    );
    for f in &s.frames {
        outln!("  {}", report::frame_line(f));
    }
    if let Some(host) = &host {
        out!("{}", host.render());
    }

    if let Some(path) = &cli.trace_out {
        let mut trace = trace.expect("collector was installed above");
        if let Some(host) = &host {
            // Host lanes ride along as extra tracks; timestamps are host
            // microseconds, the simulated tracks stay cycle-denominated.
            trace.events.extend(host.chrome_events());
        }
        write_file(path, &trace.chrome_json(), "Chrome trace")?;
    }
    if let Some(path) = &cli.report_json {
        write_file(path, &sim.metrics().to_json(), "metrics report")?;
    }
    Ok(())
}

/// Validates that `path` holds a well-formed Chrome trace: parses the JSON with
/// the in-repo parser and checks the `traceEvents` envelope plus the per-event
/// required fields. This is the CI smoke gate for the trace exporter.
fn cmd_trace_check(path: &str) -> Result<(), String> {
    use tbr_common::json;

    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path}: missing `traceEvents` array"))?;
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut metadata = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}: event {i} has no `ph`"))?;
        for field in ["pid", "tid"] {
            if ev.get(field).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("{path}: event {i} ({ph}) has no numeric `{field}`"));
            }
        }
        match ph {
            "X" => {
                spans += 1;
                for field in ["ts", "dur"] {
                    if ev.get(field).and_then(|v| v.as_f64()).is_none() {
                        return Err(format!("{path}: span {i} has no numeric `{field}`"));
                    }
                }
            }
            "i" => instants += 1,
            "M" => metadata += 1,
            other => return Err(format!("{path}: event {i} has unexpected phase `{other}`")),
        }
    }
    outln!(
        "{path}: ok — {} events ({spans} spans, {instants} instants, {metadata} metadata)",
        events.len()
    );
    Ok(())
}

fn cmd_compare(abbrev: &str, spec: &JobSpec) -> Result<(), String> {
    let p = find(abbrev)?;
    let dual_cfg = spec.gpu_config()?;
    let base_cfg = GpuConfig::baseline(dual_cfg.screen);
    let base = simulate_sequence(&base_cfg, SchedulerKind::SingleZOrder, &p, spec.frames);
    let ptr = simulate_sequence(&dual_cfg, SchedulerKind::InterleavedZOrder, &p, spec.frames);
    let libra = simulate_sequence(&dual_cfg, SchedulerKind::Libra, &p, spec.frames);
    out!(
        "{}",
        report::sequence_summary("baseline 1RUx8", &base, &base_cfg)
    );
    out!("{}", report::sequence_summary("PTR 2RUx4", &ptr, &dual_cfg));
    out!(
        "{}",
        report::sequence_summary("LIBRA 2RUx4", &libra, &dual_cfg)
    );
    outln!("{}", report::compare("baseline", &base, "PTR  ", &ptr));
    outln!("{}", report::compare("baseline", &base, "LIBRA", &libra));
    Ok(())
}

fn cmd_sweep_ru(abbrev: &str, spec: &JobSpec) -> Result<(), String> {
    let p = find(abbrev)?;
    outln!("{:<4} {:>12} {:>9}", "RUs", "cycles/f", "speedup");
    let mut base_cycles = 0.0;
    for rus in 1..=4usize {
        let cfg = JobSpec { rus, ..spec.clone() }.gpu_config()?;
        let s = simulate_sequence(&cfg, SchedulerKind::Libra, &p, spec.frames);
        if rus == 1 {
            base_cycles = s.avg_frame_cycles();
        }
        outln!(
            "{:<4} {:>12.0} {:>8.3}x",
            rus,
            s.avg_frame_cycles(),
            base_cycles / s.avg_frame_cycles()
        );
    }
    Ok(())
}

use tbr_sim::report::campaign_metrics_json;

/// Parallel sweep of the whole suite under one scheduler: the smallest useful
/// campaign (one job per workload), reported in campaign order with wall-clock and
/// per-job summary lines.
///
/// Fault-tolerant by default: jobs that panic or exceed `--budget-cycles` become
/// structured failures (retried per `--retries`), completed jobs are appended to a
/// checkpoint file, and `--resume` continues an interrupted sweep bit-identically.
fn cmd_campaign(cli: &Cli) -> Result<(), String> {
    // The same construction `serve` and `submit` use, so a sharded sweep of
    // the same options is the same campaign (equal fingerprints).
    let spec = &cli.spec;
    let (_, campaign) = spec.to_campaign()?;
    let mut opts = cli.run.clone();
    outln!(
        "campaign: {} jobs ({} workloads x 1 scheduler, mechanism {}) on {} thread(s), seed {}",
        campaign.len(),
        campaign.len(),
        spec.mechanism,
        opts.threads,
        spec.seed
    );

    if opts.fault.is_none() {
        opts.fault = FaultSpec::from_env()?;
    }
    // Checkpoint by default so an interrupted sweep is always resumable;
    // --resume without --checkpoint keeps appending to the resume file.
    if !cli.no_checkpoint && opts.resume_from.is_none() && opts.checkpoint_to.is_none() {
        // Binary sidecars get their own extension so a glance at
        // bench_results/ tells the encoding apart.
        let ext = match opts.ckpt_format {
            CheckpointFormat::Binary => "ckptb",
            CheckpointFormat::Json => "ckpt",
        };
        // Non-default mechanisms get their own sidecar so an `re` sweep
        // never clobbers (or resumes into) the plain sweep's checkpoint.
        let mech_tag = match spec.mechanism.as_str() {
            "none" => String::new(),
            mech => format!("_{}", mech.replace('+', "-")),
        };
        let sched = parse_scheduler(&spec.scheduler)?.build().name();
        opts.checkpoint_to = Some(format!(
            "bench_results/campaign_{sched}{mech_tag}_seed{}_f{}.{ext}",
            spec.seed, spec.frames
        ));
    }
    opts.traced = cli.trace_out.is_some();
    let start = std::time::Instant::now();
    let run = campaign.run_resilient(&opts)?;
    if cli.verify {
        let secs = start.elapsed().as_secs_f64();
        verify_against_serial(&campaign, &opts, &run.results, secs)?;
    }
    if run.resumed_jobs > 0 {
        outln!(
            "resume: adopted {} completed job(s) from {}, ran the remaining {}",
            run.resumed_jobs,
            opts.resume_from.as_deref().unwrap_or("checkpoint"),
            run.results.len() - run.resumed_jobs
        );
    }
    if let Some(path) = opts.checkpoint_to.as_deref().or(opts.resume_from.as_deref()) {
        outln!("checkpoint: {path}");
    }
    if let Some(e) = &run.checkpoint_error {
        errln!("warning: checkpoint writes degraded ({e}); results are complete anyway");
    }
    if let Some(path) = &cli.trace_out {
        write_file(
            path,
            &tbr_common::trace::Trace::chrome_json_multi(&run.traces),
            "Chrome trace",
        )?;
    }
    if cli.profile {
        let profile = &run.profile;
        write_file(
            "bench_results/campaign_workers.csv",
            &profile.workers_csv(),
            "worker profile",
        )?;
        write_file(
            "bench_results/campaign_jobs.csv",
            &profile.jobs_csv(),
            "job profile",
        )?;
        outln!(
            "profile: {} threads, {:.2}s wall, {:.1}% mean worker utilization, {} steals",
            profile.threads,
            profile.wall_secs,
            profile.utilization() * 100.0,
            profile.workers.iter().map(|w| w.steals).sum::<u64>()
        );
    }
    let results = run.results;
    let elapsed = start.elapsed().as_secs_f64();

    outln!(
        "{:<6} {:<10} {:>12} {:>12} {:>8}",
        "bench", "scheduler", "cycles/f", "dram", "texL1%"
    );
    for r in &results {
        match r.stats() {
            Some(stats) => outln!(
                "{:<6} {:<10} {:>12.0} {:>12} {:>7.1}%",
                r.abbrev,
                r.scheduler,
                stats.avg_frame_cycles(),
                stats.total_dram_accesses(),
                stats.texture_hit_ratio() * 100.0
            ),
            None => outln!("{:<6} {:<10} -- no result --", r.abbrev, r.scheduler),
        }
    }
    if let Some(path) = &cli.report_json {
        write_file(
            path,
            &campaign_metrics_json(&results),
            "campaign metrics report",
        )?;
    }

    let done = results.iter().filter(|r| r.is_success()).count();
    let failures: Vec<String> = results.iter().filter_map(|r| r.failure_line()).collect();
    outln!(
        "campaign done: {done}/{} jobs x {} frames in {elapsed:.2}s wall-clock",
        results.len(),
        spec.frames,
    );
    if !failures.is_empty() {
        for line in &failures {
            errln!("  {line}");
        }
        return Err(format!(
            "{} of {} jobs did not complete (survivor outputs were still written; \
             re-run with --resume to retry the failures)",
            failures.len(),
            results.len()
        ));
    }
    Ok(())
}

/// `campaign --verify`: re-runs the sweep serially with the same fault, budget
/// and retries (no checkpoint, trace or profile) and fails on the first job
/// whose result differs from `results`. Adopted jobs are checked too, so a
/// resumed sweep is verified against a fresh simulation.
fn verify_against_serial(
    campaign: &Campaign,
    opts: &RunOptions,
    results: &[CampaignResult],
    secs: f64,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    let serial = campaign.run_resilient(&RunOptions {
        threads: 1,
        budget_cycles: opts.budget_cycles,
        retries: opts.retries,
        fault: opts.fault,
        ..RunOptions::default()
    })?;
    let serial_secs = start.elapsed().as_secs_f64();
    if let Some((r, _)) = results.iter().zip(&serial.results).find(|(r, s)| r != s) {
        return Err(format!(
            "verify: job {} ({} / {}) diverged from the serial run",
            r.job, r.abbrev, r.scheduler
        ));
    }
    outln!(
        "verify: parallel ({} threads) bit-identical to serial — {secs:.2}s vs {serial_secs:.2}s \
         ({:.2}x)",
        opts.threads,
        serial_secs / secs.max(1e-9)
    );
    Ok(())
}

fn progress_line(prefix: &str, msg: &tbr_sim::Message) {
    if let tbr_sim::Message::Progress { job, done, total, abbrev, scheduler, ok } = msg {
        outln!(
            "{prefix}: job {job} ({abbrev}/{scheduler}) {} [{done}/{total}]",
            if *ok { "ok" } else { "FAILED" }
        );
    }
}

/// Long-running campaign coordinator: accepts `submit` connections and shards
/// each sweep across `--workers` spawned `libra-sim worker` processes. The
/// aggregated report is byte-identical to `libra-sim campaign` of the same
/// spec (see docs/OPERATIONS.md §8).
fn cmd_serve(cli: &Cli) -> Result<(), String> {
    use tbr_sim::{Coordinator, Message};

    let coord = Coordinator::bind(&cli.addr, cli.serve.clone())?;
    let addr = coord.local_addr()?;
    // Scripts poll for this exact line (and parse the resolved port out of
    // it when binding port 0), so print-and-flush before accepting.
    outln!("serve: listening on {addr} ({} workers)", cli.serve.workers);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    coord.serve(&mut |msg: &Message| match msg {
        Message::Progress { .. } => progress_line("serve", msg),
        Message::Report { summary, .. } => outln!("serve: report: {summary}"),
        Message::Error { message } => errln!("serve: error: {message}"),
        _ => {}
    })
}

/// Client side of the campaign service: submit a sweep spec to a coordinator,
/// stream its progress, and (optionally) write the returned report.
fn cmd_submit(cli: &Cli) -> Result<(), String> {
    use tbr_sim::service;

    let outcome = service::submit(
        &cli.addr,
        &cli.spec,
        service::default_timeout(),
        &mut |msg| progress_line("submit", msg),
    )?;
    outln!(
        "submit: {} jobs done, fingerprint {:#x}, {}",
        outcome.jobs, outcome.fingerprint, outcome.summary
    );
    for (i, h) in outcome.hosts.iter().enumerate() {
        outln!(
            "submit: worker {i} host: {} core(s), rev {}, {}",
            h.cores, h.git_rev, h.utc
        );
    }
    if outcome.crashes > 0 {
        outln!(
            "submit: sweep absorbed {} worker crash(es) (results are unaffected)",
            outcome.crashes
        );
    }
    if let Some(path) = &cli.report_json {
        write_file(path, &outcome.report_json, "campaign metrics report")?;
    }
    Ok(())
}

/// Prints every subcommand with its operand and the flags it honours.
fn usage() {
    let mut text = String::from("usage: libra-sim <command> ...");
    for (cmd, operand, flags) in COMMANDS {
        let mut line = format!("\n  {cmd}");
        let words = std::iter::once(operand.to_string()).filter(|o| !o.is_empty());
        let words = words.chain(flags.iter().copied().flatten().map(|(flag, value)| {
            if value.is_empty() { format!("[{flag}]") } else { format!("[{flag} {value}]") }
        }));
        for word in words {
            if line.len() + word.len() > 100 {
                text.push_str(&line);
                line = "\n     ".into();
            }
            line.push(' ');
            line.push_str(&word);
        }
        text.push_str(&line);
    }
    errln!(
        "{text}\nenv: LIBRA_EVENT_LOOP (driver) and LIBRA_SIM_THREADS (par-driver workers), which\n     \
         `serve` passes on to its worker processes; LIBRA_FAULT (campaign fault injection);\n     \
         LIBRA_HOSTPROF=1 (`run`'s par-driver host-time table); LIBRA_TEST_TIMEOUT_SECS\n     \
         (service read timeout)\n\
         see docs/OPERATIONS.md; timing: libra-benchmark/README.md"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    if let Err(e) = event_loop::check_env() {
        errln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // CLI mistakes (bad flags, missing operands) get the usage text; runtime
    // failures (a failed campaign job, an invalid trace file) get only the
    // structured error — re-printing usage there would bury the report.
    let parsed = COMMANDS
        .iter()
        .find(|(name, ..)| name == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`"))
        .and_then(|&(_, operand, flags)| {
            let (operand, rest) = match (operand, rest.split_first()) {
                ("", _) => ("", rest),
                (_, Some((operand, rest))) => (operand.as_str(), rest),
                (_, None) => return Err(format!("`{cmd}` needs {operand}")),
            };
            Ok((operand, Cli::parse(cmd, flags, rest)?))
        });
    let (operand, cli) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            errln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "suite" => {
            cmd_suite();
            Ok(())
        }
        "run" => cmd_run(operand, &cli),
        "compare" => cmd_compare(operand, &cli.spec),
        "sweep-ru" => cmd_sweep_ru(operand, &cli.spec),
        "campaign" => cmd_campaign(&cli),
        "serve" => cmd_serve(&cli),
        "submit" => cmd_submit(&cli),
        // The worker speaks libra-wire-v1 on stdio; its stdout belongs to
        // the protocol, so nothing else may print there.
        "worker" => tbr_sim::service::run_worker(),
        _ => cmd_trace_check(operand),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            errln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
