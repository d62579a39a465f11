//! Determinism regression tests: the whole point of the simulator (and the
//! parallel campaign driver on top of it) is that a `(config, scheduler, workload,
//! frames)` tuple names ONE result. These tests pin that contract at the two
//! levels where it could silently rot:
//!
//! * `simulate_sequence` run twice must produce identical `FrameStats`
//!   (cycles, DRAM accesses, cache hits — the full struct, field for field);
//! * the parallel campaign driver must produce results bit-identical to a serial
//!   run of the same campaign, at several thread counts.

use libra_repro::prelude::*;

/// Full-struct equality of two sequences, with a field-level message when the
/// blanket `PartialEq` fails (so a regression names the counter that drifted).
fn assert_sequences_identical(a: &SequenceStats, b: &SequenceStats, what: &str) {
    assert_eq!(a.frames.len(), b.frames.len(), "{what}: frame counts differ");
    for (fa, fb) in a.frames.iter().zip(&b.frames) {
        assert_eq!(fa.frame, fb.frame, "{what}: frame ids differ");
        assert_eq!(
            fa.geometry_cycles, fb.geometry_cycles,
            "{what}: geometry cycles differ at frame {:?}",
            fa.frame
        );
        assert_eq!(
            fa.raster_cycles, fb.raster_cycles,
            "{what}: raster cycles differ at frame {:?}",
            fa.frame
        );
        assert_eq!(
            fa.dram.total_accesses(),
            fb.dram.total_accesses(),
            "{what}: DRAM accesses differ at frame {:?}",
            fa.frame
        );
        assert_eq!(
            fa.texture_cache, fb.texture_cache,
            "{what}: texture-L1 stats differ at frame {:?}",
            fa.frame
        );
        assert_eq!(
            fa.l2_cache, fb.l2_cache,
            "{what}: L2 stats differ at frame {:?}",
            fa.frame
        );
        // Everything else (heatmaps, latency sums, warp/fragment counters).
        assert_eq!(fa, fb, "{what}: FrameStats differ at frame {:?}", fa.frame);
    }
    assert_eq!(a, b, "{what}: SequenceStats differ");
}

#[test]
fn simulate_sequence_is_bit_identical_across_runs() {
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let p = suite().remove(0);
    for kind in [SchedulerKind::SingleZOrder, SchedulerKind::Libra] {
        let a = simulate_sequence(&cfg, kind, &p, 3);
        let b = simulate_sequence(&cfg, kind, &p, 3);
        assert_sequences_identical(&a, &b, "repeat run");
    }
}

/// The campaign's results on `threads` workers, default options.
fn run(c: &Campaign, threads: usize) -> Vec<CampaignResult> {
    c.run_resilient(&RunOptions { threads, ..RunOptions::default() }).unwrap().results
}

/// The effective seed and statistics of a completed job.
fn done(r: &CampaignResult) -> (u64, &SequenceStats) {
    match &r.outcome {
        JobOutcome::Done { effective_seed, stats } => (*effective_seed, stats),
        other => panic!("job {} did not complete: {other:?}", r.job),
    }
}

#[test]
fn campaign_parallel_is_bit_identical_to_serial() {
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let profiles: Vec<BenchmarkProfile> = suite().into_iter().take(6).collect();
    let schedulers = [SchedulerKind::SingleZOrder, SchedulerKind::Libra];
    let campaign = Campaign::grid(2024, &cfg, &schedulers, &profiles, 2);

    let serial = run(&campaign, 1);
    assert_eq!(serial.len(), 12);
    for threads in [2, 4, 7] {
        let parallel = run(&campaign, threads);
        assert_eq!(parallel.len(), serial.len(), "{threads} threads lost jobs");
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.job, s.job, "{threads} threads: result order diverged");
            let ((p_seed, p_stats), (s_seed, s_stats)) = (done(p), done(s));
            assert_eq!(p_seed, s_seed, "{threads} threads: seeds diverged");
            assert_sequences_identical(
                p_stats,
                s_stats,
                &format!("{} threads, job {} ({}/{})", threads, p.job, p.abbrev, p.scheduler),
            );
        }
    }
}

#[test]
fn campaign_seed_is_reproducible_but_resamples_layouts() {
    let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
    let profiles: Vec<BenchmarkProfile> = suite().into_iter().take(2).collect();
    let schedulers = [SchedulerKind::Libra];

    let a = run(&Campaign::grid(7, &cfg, &schedulers, &profiles, 1), 2);
    let b = run(&Campaign::grid(7, &cfg, &schedulers, &profiles, 1), 3);
    assert_eq!(a, b, "same campaign seed must reproduce regardless of thread count");

    let c = run(&Campaign::grid(8, &cfg, &schedulers, &profiles, 1), 2);
    assert_ne!(
        done(&a[0]).0,
        done(&c[0]).0,
        "different campaign seeds must resample the workload layout"
    );
}
