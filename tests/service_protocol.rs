//! Conformance suite for the `libra-wire-v1` campaign-service protocol.
//!
//! Property tests (seeded in-repo runner, see `tests/support/mod.rs`): every
//! message type survives an encode → decode round trip bit-exactly, for
//! randomized payloads including hostile strings (quotes, backslashes,
//! newlines, unicode). Rejection tests: truncated frames, unknown type tags,
//! version-stamp mismatches, and oversized frames all fail loudly instead of
//! mis-parsing.

#[allow(dead_code)]
mod support;

use std::io::Cursor;

use support::{check, Gen};
use tbr_common::hostprof::HostMeta;
use tbr_common::wire::{write_frame, FrameReader};
use tbr_sim::wire::{JobSpec, Message, WIRE_VERSION};
use tbr_sim::{Record, RecordOutcome};

/// A string with protocol-hostile characters: quotes, backslashes, control
/// characters, unicode — everything `escape_into` must keep frame-safe.
fn gen_string(g: &mut Gen) -> String {
    const PALETTE: &[char] =
        &['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '{', '}', ',', ':', 'δ', '⚙', '\u{1}'];
    (0..g.usize(0, 12)).map(|_| PALETTE[g.usize(0, PALETTE.len())]).collect()
}

fn gen_u64(g: &mut Gen) -> u64 {
    ((g.any_u32() as u64) << 32) | g.any_u32() as u64
}

/// Cycle counts ride checkpoint records as JSON *numbers*, whose exactness
/// domain is ≤ 2^53 (documented in the checkpoint schema); stay inside it.
fn gen_cycles(g: &mut Gen) -> u64 {
    gen_u64(g) >> 11
}

fn gen_host(g: &mut Gen) -> HostMeta {
    HostMeta { cores: g.usize(1, 512), git_rev: gen_string(g), utc: gen_string(g) }
}

fn gen_spec(g: &mut Gen) -> JobSpec {
    let schedulers = ["z", "scanline", "hilbert", "static4", "libra"];
    let screens = ["tiny", "quarter", "fhd"];
    let mechanisms = ["none", "re", "wasp", "re+wasp", "re-oracle", "re-oracle+wasp"];
    JobSpec {
        seed: gen_u64(g),
        scheduler: schedulers[g.usize(0, schedulers.len())].to_string(),
        mechanism: mechanisms[g.usize(0, mechanisms.len())].to_string(),
        frames: g.u32(1, 16),
        rus: g.usize(1, 5),
        cores: g.usize(1, 9),
        screen: screens[g.usize(0, screens.len())].to_string(),
        ideal_memory: g.u32(0, 2) == 1,
        take: if g.u32(0, 2) == 1 { Some(g.usize(1, 33)) } else { None },
    }
}

/// A random checkpoint record. `Done` outcomes reuse `stats` (one real
/// simulated sequence, captured once) because stats round-tripping already has
/// its own exactness suite — here it only needs to ride the wire.
fn gen_record(g: &mut Gen, stats: &tbr_common::stats::SequenceStats) -> Record {
    let outcome = match g.u32(0, 3) {
        0 => RecordOutcome::Done { effective_seed: gen_u64(g), stats: stats.clone() },
        1 => RecordOutcome::Failed { attempts: g.u32(1, 5), panic_msg: gen_string(g) },
        _ => RecordOutcome::TimedOut {
            attempts: g.u32(1, 5),
            budget_cycles: gen_cycles(g),
            spent_cycles: gen_cycles(g),
        },
    };
    Record {
        job: g.usize(0, 1024),
        abbrev: gen_string(g),
        scheduler: gen_string(g),
        outcome,
    }
}

fn gen_message(g: &mut Gen, stats: &tbr_common::stats::SequenceStats) -> Message {
    match g.u32(0, 9) {
        0 => Message::Hello { role: gen_string(g), host: gen_host(g) },
        1 => Message::Submit { spec: gen_spec(g) },
        2 => Message::Accepted { jobs: g.usize(0, 4096), fingerprint: gen_u64(g) },
        3 => Message::Progress {
            job: g.usize(0, 4096),
            done: g.usize(0, 4096),
            total: g.usize(0, 4096),
            abbrev: gen_string(g),
            scheduler: gen_string(g),
            ok: g.u32(0, 2) == 1,
        },
        4 => Message::Report {
            fingerprint: gen_u64(g),
            summary: gen_string(g),
            crashes: g.usize(0, 16),
            hosts: (0..g.usize(0, 4)).map(|_| gen_host(g)).collect(),
            report_json: gen_string(g),
        },
        5 => Message::Error { message: gen_string(g) },
        6 => Message::Assign { job: g.usize(0, 4096), spec: gen_spec(g) },
        7 => Message::JobResult { record: gen_record(g, stats), host: gen_host(g) },
        _ => Message::Shutdown,
    }
}

/// One real (tiny) simulated sequence for `Done` payloads.
fn real_stats() -> tbr_common::stats::SequenceStats {
    use tbr_common::config::{GpuConfig, ScreenConfig};
    use tbr_sim::{simulate_sequence, SchedulerKind};
    let profile = tbr_workloads::suite().remove(0);
    simulate_sequence(&GpuConfig::libra(ScreenConfig::tiny(), 2), SchedulerKind::Libra, &profile, 1)
}

#[test]
fn every_message_type_round_trips() {
    let stats = real_stats();
    check("every_message_type_round_trips", 192, |g| {
        let msg = gen_message(g, &stats);
        let line = msg.encode();
        ensure!(
            !line.contains('\n'),
            "encoded frame contains a literal newline: {line:?}"
        );
        let back = Message::decode(&line)
            .map_err(|e| format!("decode failed for {line:?}: {e}"))?;
        ensure_eq!(back, msg);
        // A second encode is byte-stable (decode → encode → decode fixpoint).
        ensure_eq!(back.encode(), line);
        Ok(())
    });
}

#[test]
fn round_trip_through_the_framing_layer() {
    let stats = real_stats();
    check("round_trip_through_the_framing_layer", 48, |g| {
        let msgs: Vec<Message> = (0..g.usize(1, 6)).map(|_| gen_message(g, &stats)).collect();
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, &m.encode(), "test").map_err(|e| e.to_string())?;
        }
        let mut reader = FrameReader::new(Cursor::new(buf));
        for m in &msgs {
            let line = reader
                .read_frame("test")
                .map_err(|e| e.to_string())?
                .ok_or("premature EOF")?;
            ensure_eq!(Message::decode(&line).map_err(|e| e.to_string())?, *m);
        }
        ensure!(reader.read_frame("test").map_err(|e| e.to_string())?.is_none());
        Ok(())
    });
}

#[test]
fn truncated_frames_never_decode() {
    let stats = real_stats();
    check("truncated_frames_never_decode", 64, |g| {
        let line = gen_message(g, &stats).encode();
        // Every proper prefix is unbalanced JSON; sample a handful of cut
        // points (always including the empty and the almost-complete frame).
        // Cuts count chars, not bytes, so prefixes stay valid UTF-8.
        let nchars = line.chars().count();
        let mut cuts = vec![0, nchars - 1];
        for _ in 0..6 {
            cuts.push(g.usize(0, nchars));
        }
        for cut in cuts {
            let prefix: String = line.chars().take(cut).collect();
            if prefix.len() == line.len() {
                continue; // not a proper prefix
            }
            ensure!(
                Message::decode(&prefix).is_err(),
                "prefix of {} bytes decoded: {prefix:?}",
                prefix.len()
            );
        }
        Ok(())
    });
}

#[test]
fn unknown_type_tags_are_rejected() {
    let line = format!("{{\"v\": \"{WIRE_VERSION}\", \"type\": \"gossip\"}}");
    let e = Message::decode(&line).unwrap_err();
    assert!(e.contains("unknown type `gossip`"), "{e}");

    let missing = format!("{{\"v\": \"{WIRE_VERSION}\"}}");
    let e = Message::decode(&missing).unwrap_err();
    assert!(e.contains("type"), "{e}");
}

#[test]
fn version_mismatches_are_rejected() {
    for bad in ["libra-wire-v0", "libra-wire-v2", "", "LIBRA-WIRE-V1"] {
        let line = format!("{{\"v\": \"{bad}\", \"type\": \"shutdown\"}}");
        let e = Message::decode(&line).unwrap_err();
        assert!(e.contains("version"), "`{bad}`: {e}");
    }
    // And a frame with no version stamp at all.
    let e = Message::decode("{\"type\": \"shutdown\"}").unwrap_err();
    assert!(e.contains("`v`"), "{e}");
}

#[test]
fn oversized_frames_are_rejected_by_the_reader() {
    // A report frame comfortably exceeds a 64-byte cap; the reader must
    // reject it during accumulation rather than buffering it whole.
    let msg = Message::Report {
        fingerprint: 0xdead_beef,
        summary: "x".repeat(256),
        crashes: 0,
        hosts: vec![],
        report_json: String::new(),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg.encode(), "test").unwrap();
    let mut reader = FrameReader::with_limit(Cursor::new(buf), 64);
    let e = reader.read_frame("test").unwrap_err();
    assert!(e.contains("oversized frame"), "{e}");

    // The default cap admits it fine.
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg.encode(), "test").unwrap();
    let line = FrameReader::new(Cursor::new(buf)).read_frame("test").unwrap().unwrap();
    assert_eq!(Message::decode(&line).unwrap(), msg);
}

#[test]
fn hex_seeds_survive_above_2_to_53() {
    // JSON numbers round above 2^53 in the in-repo parser; 64-bit values must
    // travel as hex strings. Spot-check the extremes.
    for seed in [u64::MAX, 1 << 63, (1 << 53) + 1, 0] {
        let msg = Message::Accepted { jobs: 1, fingerprint: seed };
        match Message::decode(&msg.encode()).unwrap() {
            Message::Accepted { fingerprint, .. } => assert_eq!(fingerprint, seed),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}

#[test]
fn job_spec_rejects_nonsense() {
    let base = JobSpec { take: Some(4), ..JobSpec::default() };
    assert!(base.to_campaign().is_ok());
    let bad_sched = JobSpec { scheduler: "greedy".into(), ..base.clone() };
    assert!(bad_sched.to_campaign().unwrap_err().contains("unknown scheduler"));
    let bad_screen = JobSpec { screen: "imax".into(), ..base.clone() };
    assert!(bad_screen.to_campaign().unwrap_err().contains("unknown screen"));
    let bad_take = JobSpec { take: Some(0), ..base.clone() };
    assert!(bad_take.to_campaign().unwrap_err().contains("take"));
    // Impossible GPU shapes: RU ids are u8s, so RU 256 would alias RU 0.
    for (rus, cores, field) in
        [(0, 4, "num_raster_units"), (2, 0, "cores_per_ru"), (257, 4, "num_raster_units")]
    {
        let bad_shape = JobSpec { rus, cores, ..base.clone() };
        let e = bad_shape.to_campaign().unwrap_err();
        assert!(e.contains(field), "rus {rus}, cores {cores}: {e}");
    }
    assert!(JobSpec { rus: 256, ..base.clone() }.gpu_config().is_ok());
    // A frame count past u32 must not wrap to a small one on decode.
    let frame = Message::Submit { spec: base }.encode();
    let wrapped = frame.replace("\"frames\": 6", "\"frames\": 4294967297");
    let e = Message::decode(&wrapped).unwrap_err();
    assert!(e.contains("frames"), "{e}");
}

#[test]
fn job_spec_rejects_unknown_mechanisms() {
    let bad = JobSpec { mechanism: "turbo".into(), take: Some(4), ..JobSpec::default() };
    let e = bad.to_campaign().unwrap_err();
    assert!(e.contains("mechanism") && e.contains("turbo"), "{e}");
    let dup = JobSpec { mechanism: "re+re".into(), take: Some(4), ..JobSpec::default() };
    assert!(dup.to_campaign().is_err());
}

/// A submit frame captured before the mechanism axis existed — no `mechanism`
/// key in the spec object — must decode to the default (mechanism-free) spec,
/// and today's encoder must reproduce that frame byte-identically.
#[test]
fn pre_mechanism_payloads_still_decode_and_re_encode() {
    let legacy = format!(
        "{{\"v\": \"{WIRE_VERSION}\", \"type\": \"submit\", \"spec\": \
         {{\"seed\": \"0x7\", \"scheduler\": \"libra\", \"frames\": 2, \"rus\": 2, \
         \"cores\": 4, \"screen\": \"tiny\", \"ideal_memory\": false, \"take\": 4}}}}"
    );
    let msg = Message::decode(&legacy).expect("legacy submit frame must decode");
    let Message::Submit { spec } = &msg else { panic!("wrong variant: {msg:?}") };
    assert_eq!(spec.mechanism, "none");
    assert_eq!(spec.seed, 7);
    assert_eq!(spec.take, Some(4));
    // The default axis is omitted on encode, so the round trip is byte-exact:
    // an updated endpoint talking to a pre-mechanism peer emits the old bytes.
    assert_eq!(msg.encode(), legacy);
}

/// Fingerprints of default-mechanism specs are pinned to their pre-mechanism
/// values: a checkpoint or coordinator from before the axis existed must keep
/// matching. (Captured by running `to_campaign().fingerprint()` at the commit
/// immediately before the mechanism field was introduced.)
#[test]
fn default_mechanism_fingerprints_are_unchanged() {
    const DEFAULT_SPEC_FP: u64 = 0x3eea63b6adfc0de6;
    const TINY_SPEC_FP: u64 = 0x48e959b221d4060b;

    let (_, c) = JobSpec::default().to_campaign().unwrap();
    assert_eq!(c.fingerprint(), DEFAULT_SPEC_FP, "default spec fingerprint drifted");

    let tiny = JobSpec {
        seed: 7,
        frames: 2,
        screen: "tiny".into(),
        rus: 2,
        take: Some(4),
        ..JobSpec::default()
    };
    let (_, c) = tiny.to_campaign().unwrap();
    assert_eq!(c.fingerprint(), TINY_SPEC_FP, "tiny spec fingerprint drifted");

    // A non-default mechanism is a genuinely different sweep and must not
    // collide with the legacy fingerprint (that would adopt wrong results).
    for mech in ["re", "wasp", "re+wasp", "re-oracle"] {
        let spec = JobSpec {
            seed: 7,
            frames: 2,
            screen: "tiny".into(),
            rus: 2,
            take: Some(4),
            mechanism: mech.into(),
            ..JobSpec::default()
        };
        let (_, c) = spec.to_campaign().unwrap();
        assert_ne!(c.fingerprint(), TINY_SPEC_FP, "mechanism `{mech}` collided");
    }
}

#[test]
fn job_spec_fingerprint_is_spec_deterministic() {
    // Two endpoints rebuilding the same spec must agree on the fingerprint;
    // different specs must disagree (that is the submit-time skew check).
    let spec = JobSpec { take: Some(3), frames: 1, screen: "tiny".into(), ..JobSpec::default() };
    let (_, a) = spec.to_campaign().unwrap();
    let (_, b) = spec.to_campaign().unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.len(), 3);
    let other = JobSpec { seed: 7, ..spec };
    let (_, c) = other.to_campaign().unwrap();
    assert_ne!(a.fingerprint(), c.fingerprint());
}
