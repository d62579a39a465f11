//! `libra-sim` — command-line driver for the LIBRA TBR GPU simulator.
//!
//! ```text
//! libra-sim suite                         list the 32 benchmarks
//! libra-sim run <ABBREV> [opts]           simulate one benchmark
//! libra-sim compare <ABBREV> [opts]       baseline vs PTR vs LIBRA
//! libra-sim sweep-ru <ABBREV> [opts]      1..4 Raster Units
//! libra-sim campaign [opts]               parallel sweep over the whole suite
//! libra-sim serve [opts]                  campaign service: TCP coordinator +
//!                                         multi-process worker sharding
//! libra-sim submit [opts]                 send a sweep to a running coordinator
//! libra-sim worker                        stdio shard worker (spawned by serve)
//! libra-sim trace-check <FILE>            validate an emitted Chrome trace
//!
//! options: --frames N (default 6)   --fhd   --scheduler z|scanline|hilbert|static2|
//!          static4|static8|static16|libra   --rus N   --cores N   --ideal-memory
//!          --mechanism none|re|wasp|re+wasp|re-oracle|re-oracle+wasp (orthogonal
//!          mechanism axes: Rendering Elimination and/or WaSP, composable with
//!          every scheduler; default none; `re-oracle` is RE's differential mode:
//!          render everything anyway and count would-be discards + hash
//!          collisions)
//!          --event-loop heap|scan|par (pin the raster event-loop driver)
//!          --sim-threads N (worker threads for `--event-loop par`; also
//!          settable via LIBRA_SIM_THREADS — the results are bit-identical at
//!          every thread count)
//!
//! run options (additionally): --trace-out FILE (Perfetto/Chrome trace JSON;
//!          with LIBRA_HOSTPROF=1 the trace gains host-time lanes)
//!          --report-json FILE (full metrics-registry report)
//!
//! campaign options (additionally): --threads N (default: all cores)   --seed S
//!          --verify (re-run serially with the same fault/budget/retries, fail on
//!          the first job that differs; every other option still applies)
//!          --profile (write worker/job wall-clock CSVs to bench_results/, plus
//!          aggregated host telemetry to bench_results/campaign_hostprof.json)
//!          --trace-out FILE (merged per-job traces, one Perfetto process each)
//!          --report-json FILE (survivor metrics, `libra-metrics-v1`)
//!          --checkpoint FILE | --no-checkpoint (default: auto path under
//!          bench_results/)   --ckpt-format binary|json (default: binary; the
//!          `libra-ckpt-bin-v1` sidecar, `.ckptb` auto paths)   --resume FILE
//!          (adopt completed jobs of either encoding, re-run the rest)
//!          --budget-cycles N (watchdog: abort a job past N simulated cycles)
//!          --retries N (re-run failing jobs N more times; default 1)
//!          --fault KIND:JOB (inject panic|panic-once|timeout|timeout-once)
//!          --take N (truncate the suite to its first N workloads)
//!
//! serve options: --addr HOST:PORT (default 127.0.0.1:4650; port 0 binds an
//!          ephemeral port, echoed in the "listening on" line)   --workers N
//!          (worker processes per sweep; default 2)   --once (serve one
//!          connection, then exit)   --checkpoint FILE (append adopted results
//!          to a `--resume`-compatible campaign checkpoint)
//!          --kill-worker JOB (fault injection: kill the worker assigned JOB
//!          once, exercising crash recovery)
//!
//! submit options: --addr HOST:PORT plus the campaign spec flags (--frames,
//!          --scheduler, --mechanism, --rus, --cores, --fhd, --ideal-memory,
//!          --seed, --take); --report-json FILE writes the returned report — byte-
//!          identical to `libra-sim campaign --report-json` of the same spec
//! ```
//!
//! Traces carry *simulated* timestamps (1 GPU cycle = 1 µs on the Perfetto
//! timeline), so trace output is bit-identical for every `--threads` value.
//! Host-time observability is opt-in: `LIBRA_HOSTPROF=1` (or `campaign
//! --profile`) enables wall-clock telemetry of the parallel event core —
//! observation-only, simulated results are bit-identical with it on or off.
//! Timing the simulator is the job of the repository benchmark
//! (`cargo run --release --offline --manifest-path libra-benchmark/Cargo.toml --
//! --smoke | --workload W | --compare PARENT CHANGE`); it spawns this binary,
//! so `LIBRA_EVENT_LOOP` / `LIBRA_SIM_THREADS` in its environment A/B-test an
//! event-loop driver.
//!
//! Malformed `LIBRA_EVENT_LOOP`, `LIBRA_SIM_THREADS` or `LIBRA_FAULT` values are
//! refused at start-up, as the matching flags are. A closed stdout
//! (`libra-sim suite | head -1`) ends the process quietly with status 1.
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
use tbr_sim::{event_loop, report, CheckpointFormat};

/// Writes to stdout. A closed stdout (`libra-sim suite | head -1`) ends the
/// process quietly with status 1 instead of panicking as `print!` does.
/// SIGPIPE stays ignored, so `serve` still outlives a dead worker's pipe.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
        }
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

#[derive(Debug, Clone)]
struct Opts {
    frames: u32,
    fhd: bool,
    /// Scheduler name as given (validated while parsing).
    scheduler: String,
    mechanism: MechanismSpec,
    rus: usize,
    cores: usize,
    ideal: bool,
    threads: usize,
    seed: u64,
    verify: bool,
    profile: bool,
    trace_out: Option<String>,
    report_json: Option<String>,
    checkpoint: Option<String>,
    no_checkpoint: bool,
    ckpt_format: CheckpointFormat,
    resume: Option<String>,
    budget_cycles: Option<u64>,
    retries: u32,
    fault: Option<String>,
    take: Option<usize>,
    addr: String,
    workers: usize,
    once: bool,
    kill_worker: Option<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            frames: 6,
            fhd: false,
            scheduler: "libra".into(),
            mechanism: MechanismSpec::NONE,
            rus: 2,
            cores: 4,
            ideal: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed: 0,
            verify: false,
            profile: false,
            trace_out: None,
            report_json: None,
            checkpoint: None,
            no_checkpoint: false,
            ckpt_format: CheckpointFormat::default(),
            resume: None,
            budget_cycles: None,
            retries: 1,
            fault: None,
            take: None,
            addr: "127.0.0.1:4650".to_string(),
            workers: 2,
            once: false,
            kill_worker: None,
        }
    }
}

use tbr_sim::wire::parse_scheduler;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut need = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--frames" => o.frames = need("--frames")?.parse().map_err(|e| format!("{e}"))?,
            "--fhd" => o.fhd = true,
            "--scheduler" => {
                o.scheduler = need("--scheduler")?.clone();
                parse_scheduler(&o.scheduler)?;
            }
            "--mechanism" => o.mechanism = MechanismSpec::parse(need("--mechanism")?)?,
            "--rus" => o.rus = need("--rus")?.parse().map_err(|e| format!("{e}"))?,
            "--cores" => o.cores = need("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--ideal-memory" => o.ideal = true,
            "--threads" => o.threads = need("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => o.seed = need("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--verify" => o.verify = true,
            "--profile" => o.profile = true,
            "--trace-out" => o.trace_out = Some(need("--trace-out")?.clone()),
            "--report-json" => o.report_json = Some(need("--report-json")?.clone()),
            "--checkpoint" => o.checkpoint = Some(need("--checkpoint")?.clone()),
            "--no-checkpoint" => o.no_checkpoint = true,
            "--ckpt-format" => {
                o.ckpt_format = match need("--ckpt-format")?.as_str() {
                    "binary" => CheckpointFormat::Binary,
                    "json" => CheckpointFormat::Json,
                    other => return Err(format!("unknown checkpoint format `{other}` (binary|json)")),
                }
            }
            "--resume" => o.resume = Some(need("--resume")?.clone()),
            "--budget-cycles" => {
                o.budget_cycles = Some(
                    need("--budget-cycles")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--retries" => o.retries = need("--retries")?.parse().map_err(|e| format!("{e}"))?,
            "--fault" => o.fault = Some(need("--fault")?.clone()),
            "--take" => {
                let n: usize = need("--take")?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--take needs a value >= 1".into());
                }
                o.take = Some(n);
            }
            "--addr" => o.addr = need("--addr")?.clone(),
            "--workers" => o.workers = need("--workers")?.parse().map_err(|e| format!("{e}"))?,
            "--once" => o.once = true,
            "--kill-worker" => {
                o.kill_worker = Some(need("--kill-worker")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--event-loop" => {
                let name = need("--event-loop")?;
                let mode = event_loop::parse(name)
                    .ok_or_else(|| format!("unknown event loop `{name}` (heap|scan|par)"))?;
                event_loop::set_mode(Some(mode));
            }
            "--sim-threads" => {
                let n: usize = need("--sim-threads")?.parse().map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("--sim-threads needs a value >= 1".into());
                }
                event_loop::set_sim_threads(Some(n));
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn screen(o: &Opts) -> ScreenConfig {
    if o.fhd {
        ScreenConfig::fhd()
    } else {
        ScreenConfig::quarter_fhd()
    }
}

fn config(o: &Opts) -> GpuConfig {
    let mut cfg = GpuConfig::libra(screen(o), o.rus);
    cfg.cores_per_ru = o.cores;
    cfg.ideal_memory = o.ideal;
    cfg
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

fn cmd_run(abbrev: &str, o: &Opts) -> Result<(), String> {
    use tbr_common::{hostprof, trace};

    let p = find(abbrev)?;
    let cfg = config(o);

    // The simulator publishes into its metrics registry unconditionally; the
    // trace and host-profile collectors are installed only on request (they are
    // observation-only either way — stats are bit-identical with them on or off).
    let mech = o.mechanism;
    let sched = parse_scheduler(&o.scheduler)?;
    let mut sim = GpuSimulator::with_mechanism(cfg.clone(), sched, mech);
    if o.trace_out.is_some() {
        trace::start();
    }
    if hostprof::env_enabled() {
        hostprof::start();
    }
    let s = sim.render_sequence(&p, o.frames);
    let trace = trace::finish();
    let host = hostprof::finish();

    outln!(
        "{}",
        report::sequence_summary(
            &if mech.is_default() {
                format!("{} ({} RU x {} cores)", p.abbrev, o.rus, o.cores)
            } else {
                format!("{} ({} RU x {} cores, {mech})", p.abbrev, o.rus, o.cores)
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

    if let Some(path) = &o.trace_out {
        let mut trace = trace.expect("collector was installed above");
        if let Some(host) = &host {
            // Host lanes ride along as extra tracks; timestamps are host
            // microseconds, the simulated tracks stay cycle-denominated.
            trace.events.extend(host.chrome_events());
        }
        write_file(path, &trace.chrome_json(), "Chrome trace")?;
    }
    if let Some(path) = &o.report_json {
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

fn cmd_compare(abbrev: &str, o: &Opts) -> Result<(), String> {
    let p = find(abbrev)?;
    let base_cfg = GpuConfig::baseline(screen(o));
    let dual_cfg = GpuConfig::libra(screen(o), 2);
    let base = simulate_sequence(&base_cfg, SchedulerKind::SingleZOrder, &p, o.frames);
    let ptr = simulate_sequence(&dual_cfg, SchedulerKind::InterleavedZOrder, &p, o.frames);
    let libra = simulate_sequence(&dual_cfg, SchedulerKind::Libra, &p, o.frames);
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

fn cmd_sweep_ru(abbrev: &str, o: &Opts) -> Result<(), String> {
    let p = find(abbrev)?;
    outln!("{:<4} {:>12} {:>9}", "RUs", "cycles/f", "speedup");
    let mut base_cycles = 0.0;
    for n in 1..=4usize {
        let cfg = GpuConfig::libra(screen(o), n);
        let s = simulate_sequence(&cfg, SchedulerKind::Libra, &p, o.frames);
        if n == 1 {
            base_cycles = s.avg_frame_cycles();
        }
        outln!(
            "{:<4} {:>12.0} {:>8.3}x",
            n,
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
fn cmd_campaign(o: &Opts) -> Result<(), String> {
    // The same construction `serve` and `submit` use, so a sharded sweep of
    // the same options is the same campaign (equal fingerprints).
    let (_, campaign) = spec_from_opts(o).to_campaign()?;
    let threads = o.threads.max(1);
    let mech = o.mechanism;
    outln!(
        "campaign: {} jobs ({} workloads x 1 scheduler, mechanism {mech}) on {threads} thread(s), \
         seed {}",
        campaign.len(),
        campaign.len(),
        o.seed
    );

    let fault = match &o.fault {
        Some(spec) => Some(FaultSpec::parse(spec)?),
        None => FaultSpec::from_env()?,
    };
    // Checkpoint by default so an interrupted sweep is always resumable;
    // --resume without --checkpoint keeps appending to the resume file.
    let checkpoint_to = if o.no_checkpoint || o.resume.is_some() {
        o.checkpoint.clone()
    } else {
        // Binary sidecars get their own extension so a glance at
        // bench_results/ tells the encoding apart.
        let ext = match o.ckpt_format {
            CheckpointFormat::Binary => "ckptb",
            CheckpointFormat::Json => "ckpt",
        };
        // Non-default mechanisms get their own sidecar so an `re` sweep
        // never clobbers (or resumes into) the plain sweep's checkpoint.
        let mech_tag = if mech.is_default() {
            String::new()
        } else {
            format!("_{}", mech.name().replace('+', "-"))
        };
        let sched = parse_scheduler(&o.scheduler)?.build().name();
        o.checkpoint.clone().or_else(|| {
            Some(format!(
                "bench_results/campaign_{sched}{mech_tag}_seed{}_f{}.{ext}",
                o.seed, o.frames
            ))
        })
    };
    let opts = RunOptions {
        threads,
        traced: o.trace_out.is_some(),
        budget_cycles: o.budget_cycles,
        retries: o.retries,
        fault,
        checkpoint_to: checkpoint_to.clone(),
        resume_from: o.resume.clone(),
        ckpt_format: o.ckpt_format,
        hostprof: o.profile || tbr_common::hostprof::env_enabled(),
    };
    let start = std::time::Instant::now();
    let run = campaign.run_resilient(&opts)?;
    if o.verify {
        let secs = start.elapsed().as_secs_f64();
        verify_against_serial(&campaign, &opts, &run.results, secs)?;
    }
    if run.resumed_jobs > 0 {
        outln!(
            "resume: adopted {} completed job(s) from {}, ran the remaining {}",
            run.resumed_jobs,
            o.resume.as_deref().unwrap_or("checkpoint"),
            run.results.len() - run.resumed_jobs
        );
    }
    if let Some(path) = checkpoint_to.as_deref().or(o.resume.as_deref()) {
        outln!("checkpoint: {path}");
    }
    if let Some(e) = &run.checkpoint_error {
        eprintln!("warning: checkpoint writes degraded ({e}); results are complete anyway");
    }
    if let Some(path) = &o.trace_out {
        write_file(
            path,
            &tbr_common::trace::Trace::chrome_json_multi(&run.traces),
            "Chrome trace",
        )?;
    }
    if o.profile {
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
        if let Some(host) = &profile.host {
            write_file(
                "bench_results/campaign_hostprof.json",
                &host.to_json(),
                "host telemetry",
            )?;
            out!("{}", host.render());
        }
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
                r.abbrev(),
                r.scheduler(),
                stats.avg_frame_cycles(),
                stats.total_dram_accesses(),
                stats.texture_hit_ratio() * 100.0
            ),
            None => outln!("{:<6} {:<10} -- no result --", r.abbrev(), r.scheduler()),
        }
    }
    if let Some(path) = &o.report_json {
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
        o.frames,
    );
    if !failures.is_empty() {
        for line in &failures {
            eprintln!("  {line}");
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
            r.job(),
            r.abbrev(),
            r.scheduler()
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

/// The campaign spec the current CLI options describe, in wire form.
fn spec_from_opts(o: &Opts) -> tbr_sim::JobSpec {
    tbr_sim::JobSpec {
        seed: o.seed,
        scheduler: o.scheduler.clone(),
        mechanism: o.mechanism.name(),
        frames: o.frames,
        rus: o.rus,
        cores: o.cores,
        screen: if o.fhd { "fhd".into() } else { "quarter".into() },
        ideal_memory: o.ideal,
        take: o.take,
    }
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
fn cmd_serve(o: &Opts) -> Result<(), String> {
    use tbr_sim::{Coordinator, Message, ServeOptions};

    let workers = o.workers.max(1);
    let opts = ServeOptions {
        workers,
        once: o.once,
        kill_job: o.kill_worker,
        checkpoint_to: o.checkpoint.clone(),
        ..ServeOptions::default()
    };
    let coord = Coordinator::bind(&o.addr, opts)?;
    let addr = coord.local_addr()?;
    // Scripts poll for this exact line (and parse the resolved port out of
    // it when binding port 0), so print-and-flush before accepting.
    outln!("serve: listening on {addr} ({workers} workers)");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    coord.serve(&mut |msg: &Message| match msg {
        Message::Progress { .. } => progress_line("serve", msg),
        Message::Report { summary, .. } => outln!("serve: report: {summary}"),
        Message::Error { message } => eprintln!("serve: error: {message}"),
        _ => {}
    })
}

/// Client side of the campaign service: submit a sweep spec to a coordinator,
/// stream its progress, and (optionally) write the returned report.
fn cmd_submit(o: &Opts) -> Result<(), String> {
    use tbr_sim::service;

    let spec = spec_from_opts(o);
    let outcome = service::submit(
        &o.addr,
        &spec,
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
    if let Some(path) = &o.report_json {
        write_file(path, &outcome.report_json, "campaign metrics report")?;
    }
    Ok(())
}

fn usage() {
    eprintln!(
        "usage: libra-sim <suite|run|compare|sweep-ru|campaign|serve|submit|worker|trace-check> \
         [ABBREV|FILE] [--frames N] [--fhd] [--scheduler z|scanline|hilbert|staticN|libra] \
         [--mechanism none|re|wasp|re+wasp|re-oracle|re-oracle+wasp] \
         [--rus N] [--cores N] [--ideal-memory] [--event-loop heap|scan|par] \
         [--sim-threads N] [--threads N] [--take N] \
         [--seed S] [--verify] [--profile] [--trace-out FILE] [--report-json FILE] \
         [--checkpoint FILE] [--no-checkpoint] [--ckpt-format binary|json] [--resume FILE] \
         [--budget-cycles N] \
         [--retries N] [--fault KIND:JOB] \
         [--addr HOST:PORT] [--workers N] [--once] [--kill-worker JOB]\n\
         env: LIBRA_EVENT_LOOP (driver), LIBRA_SIM_THREADS (par-driver workers), \
         LIBRA_FAULT (campaign fault injection), LIBRA_HOSTPROF=1 (host-time telemetry), \
         LIBRA_TEST_TIMEOUT_SECS (service read timeout)  (see docs/OPERATIONS.md; timing: \
         libra-benchmark/README.md)"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage();
        return ExitCode::FAILURE;
    };
    if let Err(e) = event_loop::check_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // CLI mistakes (bad flags, missing operands) get the usage text; runtime
    // failures (a failed campaign job, an invalid trace file) get only the
    // structured error — re-printing usage there would bury the report.
    let result = match cmd {
        "suite" => {
            cmd_suite();
            Ok(())
        }
        "campaign" | "serve" | "submit" => match parse_opts(&args[1..]) {
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
            Ok(o) => match cmd {
                "campaign" => cmd_campaign(&o),
                "serve" => cmd_serve(&o),
                _ => cmd_submit(&o),
            },
        },
        // The worker speaks libra-wire-v1 on stdio and takes no options; its
        // stdout belongs to the protocol, so nothing else may print there.
        "worker" => tbr_sim::service::run_worker(),
        "trace-check" => {
            let Some(path) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            cmd_trace_check(path)
        }
        "run" | "compare" | "sweep-ru" => {
            let Some(abbrev) = args.get(1) else {
                usage();
                return ExitCode::FAILURE;
            };
            match parse_opts(&args[2..]) {
                Err(e) => {
                    eprintln!("error: {e}");
                    usage();
                    return ExitCode::FAILURE;
                }
                Ok(o) => match cmd {
                    "run" => cmd_run(abbrev, &o),
                    "compare" => cmd_compare(abbrev, &o),
                    _ => cmd_sweep_ru(abbrev, &o),
                },
            }
        }
        _ => {
            eprintln!("error: unknown command `{cmd}`");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
