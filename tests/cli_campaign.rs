//! `libra-sim` driven as a user drives it: the binary Cargo built for this
//! test run, in a temporary directory of its own.
//!
//! `campaign --verify` runs the sweep through the same resilient driver as a
//! plain campaign, so every other option (profile, trace, checkpoint, report,
//! resume) still applies, and then re-runs it serially and fails on the first
//! job whose result differs. Malformed environment values are refused at
//! start-up, each subcommand refuses the flags it does not honour, and a
//! closed stdout or stderr ends the process without a panic.

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
        "bench_results/campaign_hostprof.json",
    ] {
        let len = std::fs::metadata(dir.join(file))
            .unwrap_or_else(|e| panic!("--verify did not write {file}: {e}\n{stdout}"))
            .len();
        assert!(len > 0, "{file} is empty");
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
