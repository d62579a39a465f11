//! Whole-simulator integration tests: invariants that must hold across schedulers,
//! configurations and frames.

use libra_repro::prelude::*;
use tbr_common::config::CacheConfig;
use tbr_common::stats::CacheStats;
use tbr_energy::EnergyModel;

fn kinds() -> Vec<(&'static str, SchedulerKind)> {
    vec![
        ("single-z", SchedulerKind::SingleZOrder),
        ("interleaved", SchedulerKind::InterleavedZOrder),
        ("scanline", SchedulerKind::Scanline),
        ("hilbert", SchedulerKind::Hilbert),
        ("static-4", SchedulerKind::StaticSupertile(4)),
        ("libra", SchedulerKind::Libra),
    ]
}

#[test]
fn schedulers_do_identical_functional_work() {
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::libra(screen, 2);
    let p = suite().remove(4); // CCS
    let reference = simulate_sequence(&cfg, SchedulerKind::InterleavedZOrder, &p, 2);
    for (name, kind) in kinds() {
        let s = simulate_sequence(&cfg, kind, &p, 2);
        for (a, b) in reference.frames.iter().zip(&s.frames) {
            assert_eq!(a.fragments, b.fragments, "{name}: fragment count differs");
            assert_eq!(a.primitives, b.primitives, "{name}: primitive count differs");
            assert_eq!(a.instructions, b.instructions, "{name}: instruction count differs");
            // DRAM write volume is dominated by the framebuffer flush (64 lines per
            // tile, scheduler-independent); only cache-warmth effects on Parameter-
            // Buffer write-allocates may differ, and those are small.
            let (lo, hi) = (a.dram.writes.min(b.dram.writes), a.dram.writes.max(b.dram.writes));
            assert!(
                hi - lo <= hi / 10,
                "{name}: write volume diverged: {} vs {}",
                a.dram.writes,
                b.dram.writes
            );
        }
    }
}

#[test]
fn every_scheduler_is_deterministic() {
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::libra(screen, 2);
    let p = suite().remove(14); // SuS
    for (name, kind) in kinds() {
        let a = simulate_sequence(&cfg, kind, &p, 3);
        let b = simulate_sequence(&cfg, kind, &p, 3);
        assert_eq!(a, b, "{name} is not deterministic");
    }
}

#[test]
fn more_raster_units_never_lose_work() {
    let screen = ScreenConfig::tiny();
    let p = suite().remove(0);
    let one = simulate_sequence(&GpuConfig::libra(screen, 1), SchedulerKind::Libra, &p, 1);
    for n in 2..=4usize {
        let multi = simulate_sequence(&GpuConfig::libra(screen, n), SchedulerKind::Libra, &p, 1);
        assert_eq!(one.frames[0].fragments, multi.frames[0].fragments, "{n} RUs");
        assert_eq!(one.frames[0].primitives, multi.frames[0].primitives, "{n} RUs");
    }
}

#[test]
fn heatmap_attribution_is_complete() {
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::baseline(screen);
    let p = suite().remove(4);
    let s = simulate_sequence(&cfg, SchedulerKind::SingleZOrder, &p, 1);
    let f = &s.frames[0];
    let per_tile_instr: u64 = f.heatmap.tiles.iter().map(|t| t.instructions).sum();
    assert_eq!(per_tile_instr, f.instructions);
    let per_tile_frag: u64 = f.heatmap.tiles.iter().map(|t| t.fragments).sum();
    assert_eq!(per_tile_frag, f.fragments);
    // Per-tile DRAM attribution covers the raster phase (geometry DRAM is excluded
    // by design, §III-B), so it must be <= the frame total and > 0.
    let per_tile_dram: u64 = f.heatmap.tiles.iter().map(|t| t.dram_accesses).sum();
    assert!(per_tile_dram > 0);
    assert!(per_tile_dram <= f.dram.total_accesses());
}

#[test]
fn ideal_memory_bounds_real_memory() {
    let screen = ScreenConfig::tiny();
    let p = suite().remove(0);
    let real = simulate_sequence(&GpuConfig::baseline(screen), SchedulerKind::SingleZOrder, &p, 2);
    let ideal = simulate_sequence(
        &GpuConfig::baseline(screen).with_ideal_memory(),
        SchedulerKind::SingleZOrder,
        &p,
        2,
    );
    assert!(ideal.total_cycles() < real.total_cycles());
    assert_eq!(ideal.frames[0].fragments, real.frames[0].fragments);
    for f in &ideal.frames {
        assert_eq!(f.dram.total_accesses(), 0, "ideal memory must not touch DRAM");
    }
}

#[test]
fn energy_decreases_when_cycles_decrease() {
    let screen = ScreenConfig::tiny();
    let model = EnergyModel::default();
    let p = suite().remove(8); // HCR
    let base = simulate_sequence(&GpuConfig::baseline(screen), SchedulerKind::SingleZOrder, &p, 2);
    let libra = simulate_sequence(&GpuConfig::libra(screen, 2), SchedulerKind::Libra, &p, 2);
    let eb = model.sequence_energy(&base);
    let el = model.sequence_energy(&libra);
    if libra.total_cycles() < base.total_cycles() {
        assert!(
            el.static_nj < eb.static_nj,
            "static energy must track cycles: {} vs {}",
            el.static_nj,
            eb.static_nj
        );
    }
    assert!(el.total() > 0.0 && eb.total() > 0.0);
}

#[test]
fn libra_feedback_loop_switches_behaviour_over_frames() {
    // With feedback, LIBRA's plans should eventually differ from the first (Z-order
    // fallback) frame for a memory-intensive benchmark: the temperature order kicks
    // in and redistributes DRAM accesses over time.
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::libra(screen, 2);
    let p = suite().remove(4); // CCS, memory-intensive
    let libra = simulate_sequence(&cfg, SchedulerKind::Libra, &p, 4);
    let ptr = simulate_sequence(&cfg, SchedulerKind::InterleavedZOrder, &p, 4);
    // Frame 0 (no feedback) must match PTR exactly.
    assert_eq!(libra.frames[0].raster_cycles, ptr.frames[0].raster_cycles);
    // Later frames must diverge (the scheduler is actually doing something).
    let diverged = libra
        .frames
        .iter()
        .zip(&ptr.frames)
        .skip(1)
        .any(|(a, b)| a.raster_cycles != b.raster_cycles);
    assert!(diverged, "LIBRA never deviated from the PTR schedule");
}

#[test]
fn fps_metric_is_consistent() {
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::baseline(screen);
    let p = suite().remove(0);
    let s = simulate_sequence(&cfg, SchedulerKind::SingleZOrder, &p, 2);
    let fps = cfg.fps(s.avg_frame_cycles());
    assert!(fps > 0.0);
    // 800 MHz / cycles-per-frame definition.
    let expect = 800.0e6 / s.avg_frame_cycles();
    assert!((fps - expect).abs() / expect < 1e-9);
}

#[test]
fn cache_counters_obey_conservation_at_every_level() {
    // Invariants of any correct tag store, whatever its layout: every access
    // hits or misses; a miss evicts at most one line; a miss that evicts
    // nothing filled an empty way, and caches start empty and are never
    // invalidated within a job, so such cold fills never exceed a level's
    // lines; every texture-L1 miss fills one line, and no more distinct lines
    // than fills are touched. All 32 titles, 3 frames, at 2 RU x 4 and
    // 8 RU x 8 cores, without and with re+wasp: one thread per pair.
    let none = MechanismSpec::default();
    let re_wasp = MechanismSpec::parse("re+wasp").unwrap();
    let jobs = [(2, 4, none), (2, 4, re_wasp), (8, 8, none), (8, 8, re_wasp)];
    let checked: usize = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .map(|(rus, cores, mech)| {
                s.spawn(move || check_cache_conservation(&config(rus, cores), mech, suite()))
            })
            .into_iter()
            .collect();
        handles.into_iter().map(|h| h.join().expect("invariant violated")).sum()
    });
    assert_eq!(checked, 4 * 32 * 3 * 4, "frame checks");
}

#[test]
fn ideal_memory_counts_every_l1_access_as_a_hit() {
    // Ideal memory serves every access at hit latency, so every level's
    // counters must read all hits, beside the checks above. WaSP reads the
    // texture-L1 miss ratio, so it runs here too.
    let titles = || suite().into_iter().filter(|p| ["AAt", "CCS", "CuT"].contains(&p.abbrev));
    let re_wasp = MechanismSpec::parse("re+wasp").unwrap();
    let mut checked = 0;
    for (rus, cores) in [(2, 4), (8, 8)] {
        let cfg = config(rus, cores).with_ideal_memory();
        for mech in [MechanismSpec::default(), re_wasp] {
            checked += check_cache_conservation(&cfg, mech, titles().collect());
        }
    }
    assert_eq!(checked, 4 * 3 * 3 * 4, "frame checks");
}

/// LIBRA's configuration on the tiny screen at `rus` RU x `cores` cores.
fn config(rus: usize, cores: usize) -> GpuConfig {
    let mut cfg = GpuConfig::libra(ScreenConfig::tiny(), rus);
    cfg.cores_per_ru = cores;
    cfg
}

/// A cache level: its name, its counters in a frame's stats, and its lines
/// summed over every instance.
type CacheLevel = (&'static str, fn(&FrameStats) -> CacheStats, u64);

/// Checks each of `titles` under `cfg` and `mech`, and with ideal memory
/// that every access hit; returns the number of (frame, level) pairs checked.
fn check_cache_conservation(
    cfg: &GpuConfig,
    mech: MechanismSpec,
    titles: Vec<BenchmarkProfile>,
) -> usize {
    let (rus, cores) = (cfg.num_raster_units, cfg.cores_per_ru);
    let lines = |c: CacheConfig| c.size_bytes / c.line_bytes;
    let levels: [CacheLevel; 4] = [
        ("texture L1", |f| f.texture_cache, (rus * cores) as u64 * lines(cfg.texture_cache)),
        ("tile", |f| f.tile_cache, rus as u64 * lines(cfg.tile_cache)),
        ("vertex", |f| f.vertex_cache, lines(cfg.vertex_cache)),
        ("L2", |f| f.l2_cache, lines(cfg.l2_cache)),
    ];
    let mut checked = 0;
    for p in titles {
        let job = format!("{} at {rus} RU x {cores}, {mech}", p.abbrev);
        let s = simulate_sequence_mech(cfg, SchedulerKind::Libra, mech, &p, 3);
        for (name, stats, total_lines) in levels {
            let mut cold_fills = 0;
            for f in &s.frames {
                let c = stats(f);
                let at = format!("{job}: {name}, frame {}", f.frame.0);
                assert_eq!(c.hits + c.misses, c.accesses, "{at}");
                assert!(c.evictions <= c.misses, "{at}");
                if cfg.ideal_memory {
                    assert_eq!(c.hits, c.accesses, "{at}, ideal memory");
                }
                cold_fills += c.misses - c.evictions;
                checked += 1;
            }
            assert!(
                cold_fills <= total_lines,
                "{job}: {cold_fills} cold fills into {total_lines} {name} lines"
            );
        }
        for f in &s.frames {
            assert_eq!(f.texture_fill_lines, f.texture_cache.misses, "{job}");
            assert!(f.texture_unique_lines <= f.texture_fill_lines, "{job}");
        }
    }
    checked
}
