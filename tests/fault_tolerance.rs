//! Fault-tolerance regression tests for the campaign driver: panic isolation,
//! the watchdog cycle budget, retry policy, and checkpoint/resume.
//!
//! The contract under test is twofold:
//!
//! * **Graceful degradation** — a poisoned job becomes a structured failure and
//!   every other job completes, identically under serial and multi-threaded
//!   execution (injection is a pure function of `(job, attempt)`).
//! * **Bit-identical resume** — a campaign interrupted at *any* point and
//!   resumed from its checkpoint finishes with results byte-for-byte equal to
//!   an uninterrupted run, because job seeds are position-derived and stats
//!   round-trip through the checkpoint JSON exactly.
//!
//! Faults are injected through explicit [`RunOptions::fault`] specs (never the
//! `LIBRA_FAULT` env var, which is process-global and would race with the
//! parallel test harness; the env path is exercised by `scripts/ci.sh`).

#[allow(dead_code)]
mod support;

use libra_repro::prelude::*;
use support::check;
use tbr_sim::{checkpoint, Checkpoint, CheckpointFormat, RunOptions};

fn small_campaign(points: usize, frames: u32) -> Campaign {
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let mut c = Campaign::new(0);
    for p in suite().into_iter().take(points) {
        c.push(&cfg, SchedulerKind::Libra, p, frames);
    }
    c
}

/// A collision-free scratch path under the system temp dir (unique per test
/// name; tests clean up behind themselves, best-effort).
fn tmp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("libra_ft_{}_{}", std::process::id(), name))
        .to_string_lossy()
        .into_owned()
}

fn cleanup(path: &str) {
    let _ = std::fs::remove_file(path);
}

#[test]
fn injected_panic_is_isolated_identically_for_serial_and_parallel() {
    let c = small_campaign(5, 1);
    let fault = Some(FaultSpec::parse("panic:2").unwrap());
    let serial = c
        .run_resilient(&RunOptions { threads: 1, retries: 0, fault, ..RunOptions::default() })
        .unwrap();
    let parallel = c
        .run_resilient(&RunOptions { threads: 2, retries: 0, fault, ..RunOptions::default() })
        .unwrap();
    assert_eq!(serial.results, parallel.results, "fault injection must be thread-count invariant");

    for (i, r) in serial.results.iter().enumerate() {
        if i == 2 {
            match &r.outcome {
                JobOutcome::Failed { attempts: 1, panic_msg } => {
                    assert!(panic_msg.contains("injected fault"), "bad panic payload: {panic_msg:?}");
                }
                other => panic!("job 2 should have Failed, got {other:?}"),
            }
        } else {
            assert!(r.is_success(), "job {i} should have survived its neighbour's panic");
        }
    }
    let s = serial.summary();
    assert_eq!((s.total, s.done, s.failed), (5, 4, 1));
}

#[test]
fn injected_timeout_is_isolated_identically_for_serial_and_parallel() {
    let c = small_campaign(4, 1);
    let fault = Some(FaultSpec::parse("timeout:1").unwrap());
    let serial = c
        .run_resilient(&RunOptions { threads: 1, retries: 0, fault, ..RunOptions::default() })
        .unwrap();
    let parallel = c
        .run_resilient(&RunOptions { threads: 2, retries: 0, fault, ..RunOptions::default() })
        .unwrap();
    assert_eq!(serial.results, parallel.results);
    match &serial.results[1].outcome {
        JobOutcome::TimedOut { budget_cycles: 0, spent_cycles, .. } => {
            assert!(*spent_cycles > 0, "the watchdog reports how far the job got");
        }
        other => panic!("job 1 should have TimedOut, got {other:?}"),
    }
    assert_eq!(serial.summary().timed_out, 1);
}

#[test]
fn transient_faults_are_healed_by_the_default_retry() {
    let c = small_campaign(3, 1);
    let clean = c.run_resilient(&RunOptions::default()).unwrap().results;
    for spec in ["panic-once:1", "timeout-once:1"] {
        let fault = Some(FaultSpec::parse(spec).unwrap());
        let run = c
            .run_resilient(&RunOptions { threads: 2, fault, ..RunOptions::default() })
            .unwrap();
        assert_eq!(run.results, clean, "{spec}: a healed retry must leave no residue");
    }
}

#[test]
fn watchdog_budget_is_deterministic_and_only_fires_when_exceeded() {
    let c = small_campaign(2, 2);
    let clean = c.run_resilient(&RunOptions::default()).unwrap().results;

    let generous = c
        .run_resilient(&RunOptions { budget_cycles: Some(u64::MAX), ..RunOptions::default() })
        .unwrap();
    assert_eq!(generous.results, clean, "an unreached budget must not perturb results");

    let tiny = c
        .run_resilient(&RunOptions {
            budget_cycles: Some(1),
            retries: 0,
            ..RunOptions::default()
        })
        .unwrap();
    for r in &tiny.results {
        match &r.outcome {
            JobOutcome::TimedOut { budget_cycles: 1, spent_cycles, .. } => {
                assert!(*spent_cycles > 1);
            }
            other => panic!("expected TimedOut under a 1-cycle budget, got {other:?}"),
        }
    }
}

#[test]
fn failed_jobs_are_rerun_on_resume_and_the_final_state_matches_a_clean_run() {
    let ckpt = tmp_path("salvage.ckpt");
    let c = small_campaign(4, 1);
    let clean = c.run_resilient(&RunOptions::default()).unwrap().results;

    // "Interrupted" run: job 2 is poisoned, no retry — the checkpoint records
    // three successes and one structured failure.
    let poisoned = c
        .run_resilient(&RunOptions {
            threads: 2,
            retries: 0,
            fault: Some(FaultSpec::parse("panic:2").unwrap()),
            checkpoint_to: Some(ckpt.clone()),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(poisoned.summary().failed, 1);
    assert!(poisoned.checkpoint_error.is_none());

    // Resume without the fault: only the failed job re-runs, and the final
    // results are bit-identical to a run that never failed.
    let resumed = c
        .run_resilient(&RunOptions {
            threads: 2,
            resume_from: Some(ckpt.clone()),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(resumed.resumed_jobs, 3, "three successes adopted from the checkpoint");
    assert_eq!(resumed.results, clean, "salvaged run must equal an uninterrupted one");

    // The resume appended a correcting `done` record for job 2; reloading the
    // checkpoint now adopts all four jobs.
    let reloaded = Checkpoint::load(&ckpt).unwrap();
    let done_for_job2 = reloaded
        .records
        .iter()
        .filter(|r| r.job == 2 && r.is_success())
        .count();
    assert_eq!(done_for_job2, 1, "resume must append the corrected record");
    cleanup(&ckpt);
}

#[test]
fn resuming_a_complete_checkpoint_runs_nothing() {
    let ckpt = tmp_path("complete.ckpt");
    let c = small_campaign(3, 1);
    let full = c
        .run_resilient(&RunOptions {
            threads: 2,
            checkpoint_to: Some(ckpt.clone()),
            ..RunOptions::default()
        })
        .unwrap();

    let resumed = c
        .run_resilient(&RunOptions {
            threads: 2,
            resume_from: Some(ckpt.clone()),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(resumed.resumed_jobs, 3, "every job adopted, none re-run");
    assert_eq!(resumed.results, full.results);
    assert!(resumed.profile.jobs.iter().all(|j| j.secs == 0.0), "no simulation happened");
    cleanup(&ckpt);
}

/// The tentpole property: kill the campaign after any prefix of completed jobs,
/// resume from the truncated checkpoint, and the final results are bit-identical
/// to the uninterrupted run. The clean run and its full checkpoint are computed
/// once; each case replays a different kill point by truncating a copy.
///
/// This variant pins the JSON encoding so kill points can be replayed by line
/// slicing; [`resume_from_any_binary_kill_point_is_bit_identical`] covers the
/// default binary encoding by cutting at frame boundaries.
#[test]
fn resume_from_any_kill_point_is_bit_identical() {
    let full_ckpt = tmp_path("full.ckpt");
    let c = small_campaign(5, 1);
    let clean = c
        .run_resilient(&RunOptions {
            threads: 2,
            checkpoint_to: Some(full_ckpt.clone()),
            ckpt_format: CheckpointFormat::Json,
            ..RunOptions::default()
        })
        .unwrap();
    let full_text = std::fs::read_to_string(&full_ckpt).unwrap();
    let lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(lines.len(), 1 + 5, "header plus one record per job");

    check("resume_from_any_kill_point_is_bit_identical", 12, |g| {
        // Keep the header plus the first k records — exactly what a crash
        // between job k and job k+1 would leave behind.
        let k = g.usize(0, 6);
        let cut = tmp_path(&format!("cut{k}.ckpt"));
        let mut text: String = lines[..1 + k].join("\n");
        text.push('\n');
        std::fs::write(&cut, text).map_err(|e| e.to_string())?;

        let threads = g.usize(1, 4);
        let resumed = c.run_resilient(&RunOptions {
            threads,
            resume_from: Some(cut.clone()),
            ..RunOptions::default()
        })?;
        cleanup(&cut);
        ensure_eq!(resumed.resumed_jobs, k);
        ensure!(
            resumed.results == clean.results,
            "kill point {k}, {threads} threads: resumed results diverged"
        );
        Ok(())
    });
    cleanup(&full_ckpt);
}

/// Splits a binary checkpoint into its frame boundaries: byte offsets at which
/// a crash between appends would leave a loadable prefix (header, then after
/// each complete length-prefixed record frame).
fn binary_frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let header = checkpoint::BIN_MAGIC.len() + 4 + 8 + 8 + 8;
    let mut cuts = vec![header];
    let mut at = header;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len;
        cuts.push(at);
    }
    assert_eq!(at, bytes.len(), "reference checkpoint ends mid-frame");
    cuts
}

/// The same kill-point property for the default *binary* encoding: cut the
/// sidecar at any frame boundary, resume, and both the results and the final
/// sidecar bytes match the uninterrupted reference. Byte-identity holds because
/// the reference is written serially (job order) and resume re-runs the missing
/// suffix in that same order.
#[test]
fn resume_from_any_binary_kill_point_is_bit_identical() {
    let full_ckpt = tmp_path("full.ckptb");
    let c = small_campaign(5, 1);
    let clean = c
        .run_resilient(&RunOptions {
            threads: 1,
            checkpoint_to: Some(full_ckpt.clone()),
            ..RunOptions::default()
        })
        .unwrap();
    let full_bytes = std::fs::read(&full_ckpt).unwrap();
    assert!(full_bytes.starts_with(checkpoint::BIN_MAGIC), "default encoding must be binary");
    let cuts = binary_frame_boundaries(&full_bytes);
    assert_eq!(cuts.len(), 1 + 5, "header plus one frame per job");

    for (k, &cut_at) in cuts.iter().enumerate() {
        let cut = tmp_path(&format!("bcut{k}.ckptb"));
        std::fs::write(&cut, &full_bytes[..cut_at]).unwrap();
        let resumed = c
            .run_resilient(&RunOptions {
                threads: 1,
                resume_from: Some(cut.clone()),
                ..RunOptions::default()
            })
            .unwrap();
        assert_eq!(resumed.resumed_jobs, k);
        assert_eq!(resumed.results, clean.results, "binary kill point {k}: results diverged");
        let healed = std::fs::read(&cut).unwrap();
        assert_eq!(healed, full_bytes, "binary kill point {k}: healed sidecar not byte-identical");
        cleanup(&cut);
    }
    cleanup(&full_ckpt);
}

/// A binary sidecar cut *inside* a frame (not at a boundary) is a torn append:
/// it must be rejected as truncated, never half-adopted.
#[test]
fn binary_checkpoint_torn_mid_frame_is_rejected() {
    let p = tmp_path("torn.ckptb");
    let c = small_campaign(3, 1);
    c.run_resilient(&RunOptions { checkpoint_to: Some(p.clone()), ..RunOptions::default() })
        .unwrap();
    let bytes = std::fs::read(&p).unwrap();
    let cuts = binary_frame_boundaries(&bytes);
    // One byte short of each frame boundary lands mid-frame (or mid-header).
    for &boundary in &cuts {
        std::fs::write(&p, &bytes[..boundary - 1]).unwrap();
        let err = Checkpoint::load(&p).unwrap_err();
        assert!(err.contains("truncated"), "cut at {}: {err}", boundary - 1);
    }
    cleanup(&p);
}

#[test]
fn corrupt_and_mismatched_checkpoints_are_rejected_with_clear_errors() {
    let c = small_campaign(3, 1);
    let resume = |path: &str| {
        c.run_resilient(&RunOptions {
            resume_from: Some(path.to_string()),
            ..RunOptions::default()
        })
    };

    // Garbage header.
    let p = tmp_path("garbage.ckpt");
    std::fs::write(&p, "not json at all\n").unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("line 1"), "should name the broken line: {err}");
    cleanup(&p);

    // Wrong schema.
    let p = tmp_path("schema.ckpt");
    std::fs::write(&p, "{\"schema\":\"something-else\",\"seed\":\"0x0\",\"jobs\":3,\"fingerprint\":\"0x0\"}\n")
        .unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("schema"), "should name the schema mismatch: {err}");
    cleanup(&p);

    // An `attempts` count past u32 is refused, not wrapped to 1.
    let p = tmp_path("attempts.ckpt");
    std::fs::write(
        &p,
        concat!(
            r#"{"schema":"libra-campaign-ckpt-v1","seed":"0x0","jobs":3,"fingerprint":"0x0"}"#,
            "\n",
            r#"{"job":1,"outcome":"failed","abbrev":"AmU","scheduler":"libra","#,
            r#""attempts":4294967297,"panic_msg":"boom"}"#,
            "\n",
        ),
    )
    .unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("line 2") && err.contains("attempts"), "should name the field: {err}");
    cleanup(&p);

    // Empty file.
    let p = tmp_path("empty.ckpt");
    std::fs::write(&p, "").unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("empty"), "{err}");
    cleanup(&p);

    // Truncated mid-append: a complete checkpoint (default binary encoding)
    // with its tail chopped off must be rejected, not half-adopted.
    let p = tmp_path("trunc.ckpt");
    let whole = tmp_path("whole.ckpt");
    c.run_resilient(&RunOptions { checkpoint_to: Some(whole.clone()), ..RunOptions::default() })
        .unwrap();
    let bytes = std::fs::read(&whole).unwrap();
    std::fs::write(&p, &bytes[..bytes.len() - 20]).unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("truncated"), "should diagnose the torn append: {err}");
    cleanup(&p);

    // Future format version: refused with a version message, not misparsed.
    let p = tmp_path("version.ckpt");
    let mut v2 = bytes.clone();
    v2[checkpoint::BIN_MAGIC.len()] = 2; // bump the little-endian version word
    std::fs::write(&p, &v2).unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("version"), "should refuse an unknown version: {err}");
    cleanup(&p);

    // A checkpoint from a *different* campaign (different job list) must be
    // refused by the fingerprint even though the header's job count can lie.
    let p = tmp_path("foreign.ckpt");
    let other = small_campaign(4, 1); // different sweep
    other
        .run_resilient(&RunOptions { checkpoint_to: Some(p.clone()), ..RunOptions::default() })
        .unwrap();
    let err = resume(&p).unwrap_err();
    assert!(
        err.contains("jobs") || err.contains("fingerprint"),
        "should refuse a foreign checkpoint: {err}"
    );
    cleanup(&p);

    // Same job count, different frames — only the fingerprint can tell.
    let p = tmp_path("frames.ckpt");
    let other = small_campaign(3, 2);
    other
        .run_resilient(&RunOptions { checkpoint_to: Some(p.clone()), ..RunOptions::default() })
        .unwrap();
    let err = resume(&p).unwrap_err();
    assert!(err.contains("fingerprint"), "should refuse a mismatched sweep: {err}");
    cleanup(&p);
    cleanup(&whole);
}

/// Mechanism-axis checkpoint compatibility. Default-mechanism jobs digest into
/// the fingerprint exactly as they did before the mechanism axis existed, so a
/// pre-mechanism checkpoint still resumes into a default campaign — while a
/// mechanism-bearing campaign over the *same* jobs is a genuinely different
/// sweep and must refuse it.
#[test]
fn mechanism_campaigns_reject_default_checkpoints_and_vice_versa() {
    let p = tmp_path("mech.ckpt");
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let plain = small_campaign(3, 1);
    plain
        .run_resilient(&RunOptions { checkpoint_to: Some(p.clone()), ..RunOptions::default() })
        .unwrap();

    // Same (cfg, scheduler, workload, frames) grid with RE switched on.
    let mech = MechanismSpec::parse("re").unwrap();
    let mut re = Campaign::new(0);
    for profile in suite().into_iter().take(3) {
        re.push_mech(&cfg, SchedulerKind::Libra, mech, profile, 1);
    }
    assert_ne!(re.fingerprint(), plain.fingerprint(), "RE must change the sweep identity");
    let err = re
        .run_resilient(&RunOptions { resume_from: Some(p.clone()), ..RunOptions::default() })
        .unwrap_err();
    assert!(err.contains("fingerprint"), "should refuse the mechanism mismatch: {err}");

    // The default campaign still adopts the checkpoint whole.
    let resumed = plain
        .run_resilient(&RunOptions { resume_from: Some(p.clone()), ..RunOptions::default() })
        .unwrap();
    assert_eq!(resumed.resumed_jobs, 3, "default sweep must keep matching its checkpoint");

    // And a mechanism campaign's own checkpoint round-trips through resume.
    let pm = tmp_path("mech_own.ckpt");
    re.run_resilient(&RunOptions { checkpoint_to: Some(pm.clone()), ..RunOptions::default() })
        .unwrap();
    let resumed = re
        .run_resilient(&RunOptions { resume_from: Some(pm.clone()), ..RunOptions::default() })
        .unwrap();
    assert_eq!(resumed.resumed_jobs, 3);
    cleanup(&p);
    cleanup(&pm);
}

/// A fault aimed at a job the campaign does not have would never fire, and a
/// test relying on it would pass vacuously: the sweep is refused at setup,
/// before any job runs or any checkpoint is created.
#[test]
fn a_fault_aimed_outside_the_campaign_is_refused_at_setup() {
    let p = tmp_path("fault_range.ckpt");
    let c = small_campaign(3, 1);
    let run = |spec: &str| {
        c.run_resilient(&RunOptions {
            retries: 0,
            fault: Some(FaultSpec::parse(spec).unwrap()),
            checkpoint_to: Some(p.clone()),
            ..RunOptions::default()
        })
    };
    for (spec, job) in [("panic:3", 3), ("timeout-once:99", 99)] {
        let err = run(spec).unwrap_err();
        assert!(err.contains(&format!("job {job}")) && err.contains("3 jobs"), "{spec}: {err}");
        assert!(!std::path::Path::new(&p).exists(), "{spec}: a checkpoint was created");
    }
    // The last job is still a valid target.
    assert_eq!(run("panic:2").unwrap().summary().failed, 1);
    cleanup(&p);
}

#[test]
fn checkpoint_survives_parallel_appends() {
    // 6 jobs on 3 threads: appends interleave arbitrarily, but every line must
    // stay whole and the reloaded checkpoint must adopt all six.
    let p = tmp_path("parallel.ckpt");
    let c = small_campaign(6, 1);
    c.run_resilient(&RunOptions {
        threads: 3,
        checkpoint_to: Some(p.clone()),
        ..RunOptions::default()
    })
    .unwrap();
    let ckpt = Checkpoint::load(&p).unwrap();
    assert_eq!(ckpt.records.len(), 6);
    let mut jobs: Vec<usize> = ckpt.records.iter().map(|r| r.job).collect();
    jobs.sort_unstable();
    assert_eq!(jobs, vec![0, 1, 2, 3, 4, 5]);
    cleanup(&p);
}
