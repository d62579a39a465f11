//! Integration suite for the campaign service: coordinator + real worker
//! processes on loopback TCP, checked against the plain in-process campaign.
//!
//! The headline contract: a sweep sharded across N worker processes produces
//! a `libra-metrics-v1` report **byte-identical** to `Campaign::run` of the
//! same spec — for N ∈ {1, 2}, and even when a worker is killed mid-campaign
//! and its job re-dispatched to a respawned process.
//!
//! Flaky-proofing follows `tests/support/net.rs`: ephemeral ports only
//! (bind `127.0.0.1:0`, read the port back), every socket under
//! `set_read_timeout` (`LIBRA_TEST_TIMEOUT_SECS` to raise), and worker
//! binaries located via `CARGO_BIN_EXE_libra-sim`.

#[allow(dead_code)]
mod support;

use std::collections::HashSet;

use support::net::{test_timeout, worker_cmd};
use tbr_sim::report::campaign_metrics_json;
use tbr_sim::wire::{JobSpec, Message};
use tbr_sim::{submit, Checkpoint, Coordinator, RunOptions, ServeOptions, SubmitOutcome};

/// The test sweep: first `take` workloads, tiny screen, one frame — small
/// enough for debug-build worker processes, structured enough to detect any
/// mis-slotting (each job has distinct stats).
fn spec_tiny(take: usize) -> JobSpec {
    JobSpec {
        seed: 0,
        scheduler: "libra".into(),
        frames: 1,
        rus: 2,
        cores: 4,
        screen: "tiny".into(),
        ideal_memory: false,
        take: Some(take),
        mechanism: "none".into(),
    }
}

/// The single-process ground truth: a plain serial `Campaign::run_resilient`.
fn serial_report(spec: &JobSpec) -> (String, u64, usize) {
    let (_cfg, campaign) = spec.to_campaign().expect("spec is valid");
    let results = campaign.run_resilient(&RunOptions::default()).expect("no setup to fail").results;
    (campaign_metrics_json(&results), campaign.fingerprint(), campaign.len())
}

/// Runs one sweep through a real coordinator + worker processes on loopback,
/// collecting every progress frame the client sees.
fn sharded(
    spec: &JobSpec,
    workers: usize,
    kill_job: Option<usize>,
    checkpoint_to: Option<String>,
) -> (SubmitOutcome, Vec<Message>) {
    let opts = ServeOptions {
        workers,
        worker_cmd: worker_cmd(),
        once: true,
        kill_job,
        checkpoint_to,
        read_timeout: test_timeout(),
    };
    let coord = Coordinator::bind("127.0.0.1:0", opts).expect("bind ephemeral");
    let addr = coord.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || coord.serve(&mut |_| {}));
    let mut progress = Vec::new();
    let outcome = submit(&addr, spec, test_timeout(), &mut |m| progress.push(m.clone()))
        .expect("submit succeeds");
    server.join().expect("serve thread").expect("serve ok");
    (outcome, progress)
}

#[test]
fn one_worker_matches_plain_campaign_byte_for_byte() {
    let spec = spec_tiny(4);
    let (want_report, want_fp, jobs) = serial_report(&spec);
    let (got, _) = sharded(&spec, 1, None, None);
    assert_eq!(got.jobs, jobs);
    assert_eq!(got.fingerprint, want_fp);
    assert_eq!(got.crashes, 0);
    assert_eq!(got.report_json, want_report, "1-worker report must be byte-identical");
}

#[test]
fn two_workers_match_plain_campaign_byte_for_byte() {
    let spec = spec_tiny(4);
    let (want_report, want_fp, _) = serial_report(&spec);
    let (got, _) = sharded(&spec, 2, None, None);
    assert_eq!(got.fingerprint, want_fp);
    assert_eq!(got.crashes, 0);
    assert_eq!(got.report_json, want_report, "2-worker report must be byte-identical");
}

#[test]
fn killed_worker_is_respawned_and_the_report_is_unchanged() {
    let spec = spec_tiny(4);
    let (want_report, want_fp, _) = serial_report(&spec);
    // Kill whichever worker draws job 1; the position is requeued, a fresh
    // worker adopts it, and the bytes must not care.
    let (got, _) = sharded(&spec, 2, Some(1), None);
    assert_eq!(got.crashes, 1, "exactly one injected crash");
    assert_eq!(got.fingerprint, want_fp);
    assert_eq!(
        got.report_json, want_report,
        "crash + re-dispatch must not change a byte of the report"
    );
}

#[test]
fn report_stamps_one_host_per_worker() {
    // The multi-host attribution fix: aggregated reports carry one HostMeta
    // per contributing worker process, in worker order — not a single stamp
    // pretending the whole sweep ran on one host.
    let spec = spec_tiny(4);
    let (two, _) = sharded(&spec, 2, None, None);
    assert_eq!(two.hosts.len(), 2, "one stamp per worker: {:?}", two.hosts);
    let (one, _) = sharded(&spec, 1, None, None);
    assert_eq!(one.hosts.len(), 1, "one stamp per worker: {:?}", one.hosts);
    for h in two.hosts.iter().chain(one.hosts.iter()) {
        assert!(h.cores >= 1);
        assert!(!h.git_rev.is_empty());
        assert!(!h.utc.is_empty());
    }
}

#[test]
fn progress_stream_covers_every_job_exactly_once() {
    let spec = spec_tiny(4);
    let (outcome, progress) = sharded(&spec, 2, None, None);
    assert_eq!(progress.len(), outcome.jobs);
    let mut seen = HashSet::new();
    let mut dones = Vec::new();
    for m in &progress {
        let Message::Progress { job, done, total, ok, .. } = m else {
            panic!("non-progress frame in the progress stream: {m:?}");
        };
        assert_eq!(*total, outcome.jobs);
        assert!(*ok, "job {job} failed");
        assert!(seen.insert(*job), "job {job} reported twice");
        dones.push(*done);
    }
    // `done` counts completions monotonically: each value 1..=total, once.
    dones.sort_unstable();
    assert_eq!(dones, (1..=outcome.jobs).collect::<Vec<_>>());
}

#[test]
fn coordinator_checkpoint_is_resume_compatible() {
    // The service writes an ordinary campaign checkpoint; a single-process
    // `--resume` must be able to adopt every record it contains.
    let spec = spec_tiny(3);
    let ckpt = std::env::temp_dir()
        .join(format!("libra_svc_{}_resume.ckptb", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&ckpt);
    let (outcome, _) = sharded(&spec, 2, None, Some(ckpt.clone()));

    let (_cfg, campaign) = spec.to_campaign().unwrap();
    let loaded = Checkpoint::load(&ckpt).expect("service checkpoint parses");
    assert_eq!(loaded.header.fingerprint, campaign.fingerprint());
    assert_eq!(loaded.header.jobs, outcome.jobs);
    assert_eq!(loaded.records.len(), outcome.jobs, "every job checkpointed");
    for rec in &loaded.records {
        campaign.adopt_record(rec).expect("record adopts into the rebuilt campaign");
    }
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn a_kill_aimed_past_the_sweep_is_refused_before_accepted() {
    // `--kill-worker 9` on a 2-job sweep could never fire, so the sweep would
    // pass without the crash recovery it asked for. The coordinator answers
    // that submit with an error frame naming the job and the job count, in
    // place of `accepted`, runs nothing, and keeps serving.
    use std::io::BufReader;
    use tbr_common::hostprof::HostMeta;
    use tbr_common::wire::{write_frame, FrameReader};

    let opts = ServeOptions {
        workers: 1,
        worker_cmd: worker_cmd(),
        once: true,
        kill_job: Some(9),
        checkpoint_to: None,
        read_timeout: test_timeout(),
    };
    let coord = Coordinator::bind("127.0.0.1:0", opts).expect("bind ephemeral");
    let addr = coord.local_addr().expect("local addr");
    let server = std::thread::spawn(move || coord.serve(&mut |_| {}));

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(test_timeout())).expect("set timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut next = || {
        let frame = reader.read_frame("coordinator").expect("read").expect("a frame");
        Message::decode(&frame).expect("decodes")
    };
    assert!(matches!(next(), Message::Hello { .. }));
    let hello = Message::Hello { role: "client".into(), host: HostMeta::capture() };
    write_frame(&mut writer, &hello.encode(), "coordinator").expect("hello");
    let submit = Message::Submit { spec: spec_tiny(2) };
    write_frame(&mut writer, &submit.encode(), "coordinator").expect("submit");
    match next() {
        Message::Error { message } => {
            assert!(message.contains("job 9") && message.contains("2 jobs"), "{message}")
        }
        other => panic!("expected an error frame, got {}", other.tag()),
    }
    assert!(reader.read_frame("coordinator").expect("read").is_none(), "nothing follows the error");
    server.join().expect("serve thread").expect("the coordinator outlives the refusal");
}

#[test]
fn submit_rejects_a_fingerprint_mismatch() {
    // Version/suite skew check: a coordinator that rebuilds a *different*
    // campaign from the same spec (mismatched builds) must be refused at
    // accept time, before any cycles burn. Fake the coordinator with a raw
    // socket that answers a wrong fingerprint.
    use std::io::BufReader;
    use tbr_common::wire::{write_frame, FrameReader};

    let spec = spec_tiny(2);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(test_timeout())).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(BufReader::new(stream));
        let _hello = reader.read_frame("client").unwrap();
        let _submit = reader.read_frame("client").unwrap();
        write_frame(
            &mut writer,
            &Message::Accepted { jobs: 2, fingerprint: 0x1234 }.encode(),
            "client",
        )
        .unwrap();
    });
    let err = submit(&addr, &spec, test_timeout(), &mut |_| {}).unwrap_err();
    assert!(err.contains("fingerprint"), "{err}");
    server.join().unwrap();
}

#[test]
fn submit_surfaces_connection_failures_structurally() {
    // Nothing listens here (bind, resolve, drop the listener): the client
    // must fail with a structured error naming the address, not hang.
    let spec = spec_tiny(2);
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let err = submit(&addr, &spec, test_timeout(), &mut |_| {}).unwrap_err();
    assert!(err.contains("connecting"), "{err}");
}
