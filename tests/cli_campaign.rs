//! `libra-sim` driven as a user drives it: the binary Cargo built for this
//! test run, in a temporary directory of its own.
//!
//! `campaign --verify` runs the sweep through the same resilient driver as a
//! plain campaign, so every other option (profile, trace, checkpoint, report,
//! resume) still applies, and then re-runs it serially and fails on the first
//! job whose result differs. Malformed environment values and a fault aimed
//! past the last job are refused before anything runs, each subcommand
//! refuses the flags it does not honour, and a closed stdout or stderr ends
//! the process without a panic. `LIBRA_HOSTPROF=1 run` prints its host-time
//! table and adds host lanes to the trace without changing the report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use tbr_common::json;
use tbr_sim::Checkpoint;

/// A fresh temporary directory, unique per test and process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("libra_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `libra-sim` in `dir`, with none of the environment variables it validates.
fn libra_sim(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_libra-sim"));
    cmd.current_dir(dir);
    for var in ["LIBRA_FAULT", "LIBRA_EVENT_LOOP", "LIBRA_SIM_THREADS"] {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs `libra-sim campaign` with the whitespace-separated `args` in `dir`:
/// two titles, one frame.
fn campaign(dir: &Path, args: &str) -> Output {
    libra_sim(dir)
        .args(["campaign", "--take", "2", "--frames", "1"])
        .args(args.split_whitespace())
        .output()
        .expect("spawn libra-sim")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed\nstdout:\n{}\nstderr:\n{}",
        text(&out.stdout),
        text(&out.stderr)
    );
}

#[test]
fn verify_writes_every_requested_output() {
    let dir = temp_dir("verify_outputs");
    let out = campaign(
        &dir,
        "--threads 2 --verify --profile --trace-out t.json --checkpoint c.ckpt --report-json r.json",
    );
    assert_ok(&out, "campaign --verify");
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("verify: parallel (2 threads) bit-identical to serial"),
        "{stdout}"
    );

    for file in [
        "t.json",
        "c.ckpt",
        "r.json",
        "bench_results/campaign_workers.csv",
        "bench_results/campaign_jobs.csv",
    ] {
        let len = std::fs::metadata(dir.join(file))
            .unwrap_or_else(|e| panic!("--verify did not write {file}: {e}\n{stdout}"))
            .len();
        assert!(len > 0, "{file} is empty");
    }
    // `--profile` writes its two CSVs and nothing else (no host telemetry
    // file), with the columns the benchmark's traced run reads by name.
    let mut profiled: Vec<String> = std::fs::read_dir(dir.join("bench_results"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    profiled.sort();
    assert_eq!(profiled, ["campaign_jobs.csv", "campaign_workers.csv"]);
    assert!(!dir.join("bench_results/campaign_hostprof.json").exists());
    for (file, header) in [
        ("campaign_workers.csv", "worker,jobs_run,steals,busy_secs,utilization"),
        ("campaign_jobs.csv", "job,abbrev,scheduler,worker,secs"),
    ] {
        let csv = std::fs::read_to_string(dir.join("bench_results").join(file)).unwrap();
        assert_eq!(csv.lines().next(), Some(header), "{file}");
    }
    let trace = std::fs::read_to_string(dir.join("t.json")).unwrap();
    json::parse(&trace).expect("the trace is valid JSON");
    let ckpt = Checkpoint::load(&dir.join("c.ckpt").to_string_lossy()).expect("checkpoint loads");
    assert_eq!(ckpt.records.len(), 2, "one checkpoint record per job");

    // Verification observes; the report equals a plain serial sweep's.
    let plain = campaign(&dir, "--threads 1 --no-checkpoint --report-json plain.json");
    assert_ok(&plain, "plain campaign");
    assert_eq!(
        std::fs::read(dir.join("r.json")).unwrap(),
        std::fs::read(dir.join("plain.json")).unwrap(),
        "--verify changed the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_fails_when_a_result_differs_from_the_serial_run() {
    let dir = temp_dir("verify_divergence");
    let out = campaign(&dir, "--threads 1 --ckpt-format json --checkpoint c.ckpt");
    assert_ok(&out, "checkpointed campaign");

    // Control: resuming the intact checkpoint adopts both jobs, and the serial
    // re-simulation agrees with them.
    std::fs::copy(dir.join("c.ckpt"), dir.join("intact.ckpt")).unwrap();
    let out = campaign(&dir, "--threads 2 --resume intact.ckpt --verify");
    assert_ok(&out, "campaign --resume intact.ckpt --verify");
    assert!(text(&out.stdout).contains("adopted 2 completed job(s)"));

    // Job 0's record claims one DRAM read more than the simulation makes.
    let ckpt = std::fs::read_to_string(dir.join("c.ckpt")).unwrap();
    let mut lines: Vec<String> = ckpt.lines().map(str::to_string).collect();
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with("{\"job\":0,") && l.contains("\"outcome\":\"done\""))
        .expect("a done record for job 0");
    let at = line.find("\"reads\":").expect("DRAM reads in the stats") + "\"reads\":".len();
    let digits = line[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let reads: u64 = line[at..at + digits].parse().unwrap();
    line.replace_range(at..at + digits, &(reads + 1).to_string());
    std::fs::write(dir.join("tampered.ckpt"), lines.join("\n") + "\n").unwrap();

    let out = campaign(
        &dir,
        "--threads 2 --resume tampered.ckpt --verify --report-json r.json",
    );
    let stderr = text(&out.stderr);
    assert!(
        !out.status.success(),
        "a divergent result must fail --verify"
    );
    assert!(stderr.contains("job 0 ("), "{stderr}");
    assert!(stderr.contains("diverged from the serial run"), "{stderr}");
    assert!(
        !dir.join("r.json").exists(),
        "no report is written for a failed verification"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_environment_is_refused_at_start_up() {
    let dir = temp_dir("bad_env");
    for (var, value) in
        [("LIBRA_FAULT", "bogus"), ("LIBRA_EVENT_LOOP", "bogus"), ("LIBRA_SIM_THREADS", "0")]
    {
        let out = libra_sim(&dir)
            .args(["campaign", "--take", "1", "--frames", "1", "--no-checkpoint"])
            .env(var, value)
            .output()
            .expect("spawn libra-sim");
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value} is not named: {stderr}");
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault aimed past the last job would never fire, so a fault test aimed
/// at the wrong index would pass vacuously: from `--fault` or `LIBRA_FAULT`
/// alike, `campaign` refuses it before simulating or writing any file.
#[test]
fn a_fault_outside_the_campaign_is_refused() {
    let dir = temp_dir("fault_range");
    for (flag, env) in [("--fault panic:5", None), ("", Some("panic:5"))] {
        let mut cmd = libra_sim(&dir);
        cmd.args("campaign --take 2 --frames 1 --threads 1 --retries 0".split_whitespace())
            .args(["--report-json", "r.json"])
            .args(flag.split_whitespace());
        if let Some(spec) = env {
            cmd.env("LIBRA_FAULT", spec);
        }
        let out = cmd.output().expect("spawn libra-sim");
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {env:?}: {stderr}");
        assert!(stderr.contains("job 5") && stderr.contains("2 jobs"), "{stderr}");
        // Neither the report nor the default checkpoint under bench_results/.
        let written: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(written.is_empty(), "{flag} {env:?} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one host-telemetry path left: `LIBRA_HOSTPROF=1 run` under the par
/// driver prints the host-time summary, merges a host-coordinator lane into
/// `--trace-out`, and leaves the metrics report byte-identical. Under the
/// default driver it prints a row per raster phase with its tile counts.
#[test]
fn hostprof_run_prints_its_table_and_adds_host_lanes() {
    let dir = temp_dir("hostprof_run");
    let run = "run AAt --frames 1 --event-loop par --sim-threads 2";
    let out = libra_sim(&dir)
        .args(run.split_whitespace())
        .args(["--trace-out", "t.json", "--report-json", "r.json"])
        .env("LIBRA_HOSTPROF", "1")
        .output()
        .expect("spawn libra-sim");
    assert_ok(&out, "LIBRA_HOSTPROF=1 run");
    let stdout = text(&out.stdout);
    assert!(stdout.contains("hostprof: 1 phase(s)"), "{stdout}");

    let check = libra_sim(&dir).args(["trace-check", "t.json"]).output().expect("spawn");
    assert_ok(&check, "trace-check t.json");
    let trace = json::parse(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
    let events = trace.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");
    let on_host_lane = |e: &json::Value| {
        e.get("tid").and_then(|v| v.as_u64()) == Some(8192)
            && e.get("ph").and_then(|v| v.as_str()) == Some("X")
    };
    assert!(events.iter().any(on_host_lane), "no span on the host-coordinator track");

    let plain = libra_sim(&dir)
        .args(run.split_whitespace())
        .args(["--report-json", "plain.json"])
        .env_remove("LIBRA_HOSTPROF")
        .output()
        .expect("spawn libra-sim");
    assert_ok(&plain, "unprofiled run");
    assert_eq!(
        std::fs::read(dir.join("r.json")).unwrap(),
        std::fs::read(dir.join("plain.json")).unwrap(),
        "LIBRA_HOSTPROF changed the metrics report"
    );

    let heap = libra_sim(&dir)
        .args(["run", "CuT", "--frames", "2"])
        .env("LIBRA_HOSTPROF", "1")
        .output()
        .expect("spawn libra-sim");
    assert_ok(&heap, "LIBRA_HOSTPROF=1 run under the default driver");
    let stdout = text(&heap.stdout);
    assert!(stdout.contains("hostprof: 2 phase(s)"), "{stdout}");
    assert!(stdout.contains("raster #1  heap"), "{stdout}");
    assert!(stdout.contains("  front end: "), "{stdout}");
    assert!(stdout.contains(" rasterised inline, "), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_or_stderr_ends_the_cli_without_a_panic() {
    let dir = temp_dir("closed_streams");
    // Each stream's reader is dropped before the spawn, so every write to it
    // fails; a panic would exit 101.
    for args in [&["suite"][..], &["run", "CCS", "--frames", "1"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = libra_sim(&dir)
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn libra-sim");
        let stderr = text(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    }
    // A flag error prints `error:` and the usage text; an unknown title
    // prints only `error:`.
    for args in [&["run", "CCS", "--bogus"][..], &["run", "NOPE"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = libra_sim(&dir)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(writer)
            .output()
            .expect("spawn libra-sim");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", text(&out.stdout));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_subcommand_refuses_what_it_does_not_honour() {
    let dir = temp_dir("refusals");
    // (command line, what stderr must name)
    for (args, named) in [
        ("compare CCS --rus 8", "`--rus`"),
        ("sweep-ru CCS --scheduler z", "`--scheduler`"),
        ("run CCS --seed 3", "`--seed`"),
        ("run CCS --threads 2", "`--threads`"),
        ("campaign --kill-worker 1", "`--kill-worker`"),
        ("serve --ckpt-format json", "`--ckpt-format`"),
        ("serve --event-loop par", "`--event-loop`"),
        ("submit --verify", "`--verify`"),
        ("suite --frames 2", "`--frames`"),
        ("worker --frames 1", "`--frames`"),
        ("trace-check a b", "`b`"),
        // Impossible GPU shapes are refused before anything is simulated.
        ("run CCS --rus 0", "rus 0"),
        ("campaign --take 1 --frames 1 --cores 0 --no-checkpoint", "cores 0"),
    ] {
        let out = libra_sim(&dir)
            .args(args.split_whitespace())
            .stdin(Stdio::null())
            .output()
            .expect("spawn libra-sim");
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains(named), "{args}: {named} is not named: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        let written: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(written.is_empty(), "{args} wrote {written:?}");
    }

    // Every flag `run` and `compare` honour, at once.
    for args in [
        "run CCS --frames 1 --fhd --scheduler z --mechanism re --rus 1 --cores 1 --ideal-memory \
         --event-loop heap --sim-threads 1 --trace-out t.json --report-json r.json",
        "compare CCS --frames 1 --fhd --event-loop heap --sim-threads 1",
    ] {
        let out = libra_sim(&dir).args(args.split_whitespace()).output().expect("spawn libra-sim");
        assert_ok(&out, args);
    }
    for file in ["t.json", "r.json"] {
        assert!(dir.join(file).exists(), "run did not write {file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
