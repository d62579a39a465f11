//! End-to-end observability tests: the cycle-level tracer, the metrics registry
//! and the campaign profiler, exercised through the public crate surface.
//!
//! The tracer records **simulated** cycles, so every count and timestamp here is
//! exact and host-independent — the trace goldens below are pinned integers, just
//! like `golden_snapshots.rs` pins the perf counters. Tracing is observation
//! only; the first test proves stats are bit-identical with the collector on.

use libra_repro::prelude::*;
use std::sync::{Mutex, MutexGuard};
use tbr_common::hostprof;
use tbr_common::json;
use tbr_common::trace::{self, EventKind, Trace, Track};

const FRAMES: u32 = 2;

/// Serialises the tests that set the process-global event-loop overrides, so
/// one test clearing them cannot switch another's runs off the par driver.
static EVENT_LOOP_OVERRIDE: Mutex<()> = Mutex::new(());

fn pin_event_loop() -> MutexGuard<'static, ()> {
    EVENT_LOOP_OVERRIDE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg() -> GpuConfig {
    GpuConfig::libra(ScreenConfig::tiny(), 2)
}

fn profile(abbrev: &str) -> BenchmarkProfile {
    suite()
        .into_iter()
        .find(|p| p.abbrev == abbrev)
        .expect("workload in suite")
}

/// Renders `FRAMES` frames of `abbrev` on the dual-RU tiny LIBRA config with the
/// trace collector installed; returns the stats and the recorded trace.
fn run_traced(abbrev: &str, kind: SchedulerKind) -> (SequenceStats, Trace) {
    let mut sim = GpuSimulator::new(cfg(), kind);
    trace::start();
    let stats = sim.render_sequence(&profile(abbrev), FRAMES);
    let t = trace::finish().expect("collector was installed");
    (stats, t)
}

fn count_spans(t: &Trace, pred: impl Fn(&Track, &str) -> bool) -> usize {
    t.events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }) && pred(&e.track, &e.name))
        .count()
}

#[test]
fn tracing_is_observation_only() {
    let p = profile("AAt");
    let untraced = simulate_sequence(&cfg(), SchedulerKind::Libra, &p, FRAMES);
    let (traced, t) = run_traced("AAt", SchedulerKind::Libra);
    assert!(!t.is_empty());
    assert_eq!(
        traced, untraced,
        "enabling the tracer changed simulation results"
    );
}

#[test]
fn every_tile_gets_front_end_and_flush_spans() {
    let (stats, t) = run_traced("AAt", SchedulerKind::Libra);
    let tiles = cfg().screen.num_tiles();
    let expected = tiles * stats.frames.len();
    let fe = count_spans(&t, |tr, _| matches!(tr, Track::RuFrontEnd(_)));
    let flush = count_spans(&t, |tr, _| matches!(tr, Track::RuFlush(_)));
    let frag = count_spans(&t, |tr, _| matches!(tr, Track::RuFragment(_)));
    assert_eq!(fe, expected, "one front-end span per tile per frame");
    assert_eq!(flush, expected, "every tile (even an empty one) flushes");
    assert!(
        frag <= expected,
        "fragment spans only for tiles with fragments"
    );
    assert!(frag > 0, "a real workload shades fragments");
    // Each front-end span carries its tile's counts: the shaded fragments add
    // up to the frames' total, and Early-Z kills show on an overdrawn title.
    let arg_sum = |key: &str| -> u64 {
        t.events
            .iter()
            .filter(|e| matches!(e.track, Track::RuFrontEnd(_)))
            .map(|e| {
                let (_, v) = e.args.iter().find(|(k, _)| *k == key).unwrap_or_else(|| {
                    panic!("front-end span `{}` has no `{key}` arg", e.name)
                });
                v.parse::<u64>().expect("a front-end count")
            })
            .sum()
    };
    assert_eq!(
        arg_sum("fragments"),
        stats.frames.iter().map(|f| f.fragments).sum::<u64>()
    );
    assert!(arg_sum("earlyz_killed") > 0, "AAt overdraws, so Early-Z kills");
}

#[test]
fn phase_spans_cover_both_frames() {
    let (stats, t) = run_traced("AAt", SchedulerKind::Libra);
    let frames = stats.frames.len();
    // Per frame: geometry + raster plus the four geometry sub-phases.
    assert_eq!(t.on_track(Track::Phases).count(), 6 * frames);
    for name in [
        "geometry",
        "raster",
        "vertex fetch",
        "vertex shade",
        "assembly",
        "binning",
    ] {
        assert_eq!(
            count_spans(&t, |tr, n| *tr == Track::Phases && n == name),
            frames,
            "phase `{name}` missing from some frame"
        );
    }
    // The sequence timeline is continuous: the last event ends at the total cycle
    // count, and frame 1's raster span starts after frame 0 ends.
    let total: u64 = stats.total_cycles();
    let max_end = t
        .events
        .iter()
        .map(|e| match e.kind {
            EventKind::Span { dur } => e.ts + dur,
            EventKind::Instant => e.ts,
        })
        .max()
        .unwrap();
    assert_eq!(
        max_end, total,
        "trace timeline must end at the sequence cycle count"
    );
}

#[test]
fn dram_tracks_account_for_every_access() {
    let (stats, t) = run_traced("GrT", SchedulerKind::Libra);
    let accesses: u64 = stats.frames.iter().map(|f| f.dram.total_accesses()).sum();
    let bank_reqs = count_spans(&t, |tr, n| {
        matches!(tr, Track::DramBank { .. }) && n != "refresh"
    });
    let bursts = count_spans(&t, |tr, _| matches!(tr, Track::DramBus(_)));
    assert_eq!(bank_reqs as u64, accesses, "one bank span per DRAM access");
    assert_eq!(bursts as u64, accesses, "one bus burst per DRAM access");
    let refreshes = count_spans(&t, |tr, n| {
        matches!(tr, Track::DramBank { .. }) && n == "refresh"
    });
    assert!(
        refreshes > 0,
        "refresh intervals must appear on bank tracks"
    );
}

#[test]
fn scheduler_track_records_plans_and_libra_feedback() {
    let (stats, t) = run_traced("GrT", SchedulerKind::Libra);
    let plans = t
        .on_track(Track::Scheduler)
        .filter(|e| e.name == "plan")
        .count();
    assert_eq!(plans, stats.frames.len(), "one plan instant per frame");
    let feedback = t
        .on_track(Track::Scheduler)
        .filter(|e| e.name == "libra feedback")
        .count();
    assert_eq!(
        feedback,
        stats.frames.len() - 1,
        "feedback instants from frame 1 on"
    );
}

#[test]
fn chrome_json_is_valid_and_carries_all_tracks() {
    let (_, t) = run_traced("AAt", SchedulerKind::Libra);
    let doc = json::parse(&t.chrome_json()).expect("trace JSON must parse");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) != Some("M"))
            .count(),
        t.events.len(),
        "every recorded event must serialize"
    );
    // Thread-name metadata must cover the per-RU and DRAM rows.
    let names: Vec<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_owned))
        .collect();
    for expected in [
        "phases",
        "scheduler",
        "RU0 front-end",
        "RU1 fragment",
        "DRAM ch0 bus",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing track label {expected:?}"
        );
    }
}

#[test]
fn metrics_report_round_trips_through_json() {
    let mut sim = GpuSimulator::new(cfg(), SchedulerKind::Libra);
    let stats = sim.render_sequence(&profile("AAt"), FRAMES);
    let reg = sim.metrics();
    assert!(!reg.is_empty());
    let doc = json::parse(&reg.to_json()).expect("metrics JSON must parse");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("libra-metrics-v1")
    );
    let metrics = doc
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("metrics array");
    assert_eq!(metrics.len(), reg.len());
    // Spot-check published values against the stats they came from.
    let labels = &[("frame", "0")][..];
    let reads = reg
        .counter_value("dram_reads", labels)
        .expect("dram_reads{frame=0} published");
    let writes = reg
        .counter_value("dram_writes", labels)
        .expect("dram_writes{frame=0} published");
    assert_eq!(reads + writes, stats.frames[0].dram.total_accesses());
}

#[test]
fn campaign_traces_merge_identically_for_any_thread_count() {
    let mut c = Campaign::new(0);
    for p in suite()
        .into_iter()
        .filter(|p| p.abbrev == "AAt" || p.abbrev == "GrT")
    {
        c.push(&cfg(), SchedulerKind::Libra, p, 1);
    }
    let traced = |threads| {
        c.run_resilient(&RunOptions { threads, traced: true, ..RunOptions::default() }).unwrap()
    };
    let (one, three) = (traced(1), traced(3));
    assert_eq!(one.results, three.results);
    let j1 = Trace::chrome_json_multi(&one.traces);
    assert_eq!(
        j1,
        Trace::chrome_json_multi(&three.traces),
        "merged trace must not depend on threads"
    );
    json::parse(&j1).expect("merged campaign trace must parse");
}

/// Pinned event counts for the standard golden point (`AAt`, Libra, tiny, dual
/// RU, 2 frames). Any intentional change to the instrumentation or the timing
/// model moves these; regenerate with
/// `cargo test print_current_trace_goldens -- --ignored --nocapture`.
const TRACE_GOLDENS: (usize, usize, usize, usize, usize) = (59627, 12, 64, 29265, 4);

fn trace_counts(t: &Trace) -> (usize, usize, usize, usize, usize) {
    (
        t.events.len(),
        t.on_track(Track::Phases).count(),
        t.events
            .iter()
            .filter(|e| matches!(e.track, Track::RuFrontEnd(_)))
            .count(),
        t.events
            .iter()
            .filter(|e| matches!(e.track, Track::DramBank { .. }) && e.name != "refresh")
            .count(),
        t.on_track(Track::Scheduler).count(),
    )
}

#[test]
fn trace_goldens_hold() {
    let (_, t) = run_traced("AAt", SchedulerKind::Libra);
    assert_eq!(
        trace_counts(&t),
        TRACE_GOLDENS,
        "trace shape drifted (total, phases, front-end, dram-requests, scheduler) — if \
         intentional, regenerate with `cargo test print_current_trace_goldens -- --ignored \
         --nocapture`"
    );
}

/// The parallel event core must hit the *same* pinned trace goldens as the
/// serial drivers, and the full event stream — every track ID, name, and
/// timestamp, in emission order — must be invariant under `--sim-threads`:
/// traces are only ever emitted from Shared commits on the coordinator thread.
#[test]
fn trace_goldens_hold_under_the_parallel_core_at_any_thread_count() {
    let (_, serial) = run_traced("AAt", SchedulerKind::Libra);
    let _pinned = pin_event_loop();
    event_loop::set_mode(Some(EventLoopMode::Par));
    for threads in [1usize, 2, 4] {
        event_loop::set_sim_threads(Some(threads));
        let (_, t) = run_traced("AAt", SchedulerKind::Libra);
        assert_eq!(
            trace_counts(&t),
            TRACE_GOLDENS,
            "par@{threads} trace shape diverged from the pinned goldens"
        );
        assert!(
            t == serial,
            "par@{threads} trace stream diverged from the serial stream \
             (track IDs must not depend on --sim-threads)"
        );
    }
    event_loop::set_sim_threads(None);
    event_loop::set_mode(None);
}

/// The host-time profiler must be observation-only, exactly like the tracer:
/// stats and the full metrics-registry JSON are bit-identical with the
/// collector installed or not, at every parallel-core thread count. On the
/// same real runs, every phase names the thread slots it ran with, and every
/// phase's (and the totals') serial, parallel, barrier and other fractions
/// each lie in [0, 1] and sum to at most one: they are disjoint subintervals
/// of the phase wall.
#[test]
fn hostprof_is_observation_only_at_any_thread_count() {
    let p = profile("AAt");
    let _pinned = pin_event_loop();
    event_loop::set_mode(Some(EventLoopMode::Par));
    for threads in [1usize, 2, 4] {
        event_loop::set_sim_threads(Some(threads));

        let mut plain = GpuSimulator::new(cfg(), SchedulerKind::Libra);
        let unprofiled = plain.render_sequence(&p, FRAMES);
        let plain_json = plain.metrics().to_json();

        let mut sim = GpuSimulator::new(cfg(), SchedulerKind::Libra);
        hostprof::start();
        let profiled = sim.render_sequence(&p, FRAMES);
        let hp = hostprof::finish().expect("collector was installed");

        assert_eq!(
            profiled, unprofiled,
            "par@{threads}: enabling hostprof changed simulation results"
        );
        assert_eq!(
            sim.metrics().to_json(),
            plain_json,
            "par@{threads}: enabling hostprof changed the metrics report"
        );
        assert!(
            !hp.is_empty(),
            "par@{threads}: the parallel core must record raster phases"
        );
        let totals = hp.totals();
        assert_eq!(
            totals.phases,
            FRAMES as u64,
            "one raster phase per frame under the par driver"
        );
        assert!(totals.epochs > 0, "par@{threads}: no epochs recorded");
        assert!(
            totals.local_events + totals.shared_commits > 0,
            "par@{threads}: no events attributed"
        );
        for phase in &hp.phases {
            // One slot per worker thread, capped at the config's 2 RUs.
            assert_eq!(phase.threads, threads.min(2), "par@{threads}: phase thread slots");
        }

        let mut splits: Vec<(&str, [f64; 4])> = hp
            .phases
            .iter()
            .map(|p| {
                let f = [
                    p.serial_fraction(),
                    p.parallel_fraction(),
                    p.barrier_fraction(),
                    p.other_fraction(),
                ];
                (p.label.as_str(), f)
            })
            .collect();
        let t = [
            totals.serial_fraction(),
            totals.parallel_fraction(),
            totals.barrier_fraction(),
            totals.other_fraction(),
        ];
        splits.push(("totals", t));
        for (label, f) in splits {
            assert!(
                f.iter().all(|x| (0.0..=1.0).contains(x)),
                "par@{threads} {label}: fractions {f:?} out of [0, 1]"
            );
            // `other` is `1 - serial - parallel - barrier`, so rounding can
            // leave the sum an ulp or two above one.
            let sum: f64 = f.iter().sum();
            assert!(
                sum <= 1.0 + 1e-12,
                "par@{threads} {label}: fractions sum to {sum} > 1"
            );
        }
    }
    event_loop::set_sim_threads(None);
    event_loop::set_mode(None);
}

/// Regenerates `TRACE_GOLDENS` in source form.
#[test]
#[ignore = "generator, not a check"]
fn print_current_trace_goldens() {
    let (_, t) = run_traced("AAt", SchedulerKind::Libra);
    let (a, b, c, d, e) = trace_counts(&t);
    println!(
        "const TRACE_GOLDENS: (usize, usize, usize, usize, usize) = ({a}, {b}, {c}, {d}, {e});"
    );
}
