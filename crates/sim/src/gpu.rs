//! The frame loop: [`GpuSimulator`] renders frame sequences with any scheduler and
//! closes LIBRA's feedback loop (profile frame *n* → schedule frame *n + 1*).

use libra::elimination::ReCache;
use libra::feedback::FrameFeedback;
use libra::hw_cost;
use libra::scheduler::{SchedulerKind, TileScheduler};
use tbr_common::config::GpuConfig;
use tbr_common::ids::FrameId;
use tbr_common::mechanism::MechanismSpec;
use tbr_common::metrics::MetricsRegistry;
use tbr_common::stats::{FrameStats, SequenceStats};
use tbr_common::trace::{self, Track};
use tbr_common::Cycle;
use tbr_geom::Scene;
use tbr_mem::hierarchy::{L1Cache, MemoryHierarchy};
use tbr_raster::raster_unit::RasterUnit;
use tbr_workloads::{BenchmarkProfile, SceneGenerator};

use crate::geometry_phase::run_geometry_phase;
use crate::raster_phase::run_raster_phase;

/// A complete simulated GPU with a pluggable tile scheduler.
pub struct GpuSimulator {
    cfg: GpuConfig,
    hier: MemoryHierarchy,
    vertex_l1: L1Cache,
    rus: Vec<RasterUnit>,
    scheduler: Box<dyn TileScheduler>,
    prev_feedback: Option<FrameFeedback>,
    frame_no: u32,
    metrics: MetricsRegistry,
    /// Optional mechanism axis (Rendering Elimination / WaSP); default none.
    mechanism: MechanismSpec,
    /// RE's per-tile signature cache, carried frame to frame.
    re_cache: ReCache,
    /// Global-timeline offset of the current frame. Phases restart local time at
    /// 0; the tracer's time base is advanced so a whole sequence lands on one
    /// continuous timeline. Pure observation state — never read by the model.
    trace_base: Cycle,
}

impl GpuSimulator {
    /// Builds the GPU.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (call [`GpuConfig::validate`] first
    /// for a recoverable check).
    pub fn new(cfg: GpuConfig, scheduler: SchedulerKind) -> Self {
        Self::with_mechanism(cfg, scheduler, MechanismSpec::default())
    }

    /// Builds the GPU with an explicit mechanism axis (Rendering Elimination
    /// and/or WaSP layered on top of `scheduler`).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (call [`GpuConfig::validate`] first
    /// for a recoverable check).
    pub fn with_mechanism(
        cfg: GpuConfig,
        scheduler: SchedulerKind,
        mechanism: MechanismSpec,
    ) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
        hier.ideal = cfg.ideal_memory;
        let vertex_l1 = L1Cache::new(cfg.vertex_cache);
        let rus = (0..cfg.num_raster_units).map(|_| RasterUnit::new(&cfg)).collect();
        Self {
            scheduler: scheduler.build(),
            hier,
            vertex_l1,
            rus,
            prev_feedback: None,
            frame_no: 0,
            metrics: MetricsRegistry::new(),
            mechanism,
            re_cache: ReCache::new(),
            trace_base: 0,
            cfg,
        }
    }

    /// The metrics published so far (one label set per rendered frame).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The mechanism axis this GPU runs with.
    pub fn mechanism(&self) -> MechanismSpec {
        self.mechanism
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Renders one frame and returns its statistics. Cache contents stay warm across
    /// frames (as in real hardware); timing restarts at cycle 0 each frame.
    pub fn render_frame(&mut self, scene: &Scene) -> FrameStats {
        let traced = trace::is_enabled();
        if traced {
            trace::set_time_base(self.trace_base);
        }
        // ---- Geometry phase (sort-middle front half). The LIBRA ranking runs in
        // parallel with it (§III-E), so the phase costs max(geometry, ranking).
        let geo = run_geometry_phase(&self.cfg, &mut self.vertex_l1, &mut self.hier, scene);
        let vertex_cache = self.vertex_l1.end_frame();
        let (geo_l2, geo_dram) = self.hier.end_frame();

        let mut plan = self.scheduler.plan_frame(&self.cfg.screen, self.prev_feedback.as_ref());
        let mut geometry_cycles = geo.cycles.max(plan.ranking_cycles);

        let frame_label = self.frame_no.to_string();
        plan.publish_metrics(&mut self.metrics, &[("frame", &frame_label)]);

        // ---- Rendering Elimination: hash this frame's per-tile inputs, discard
        // tiles identical to the previous frame. The signature unit hashes the
        // parameter-buffer stream during binning, so its cycles fold into the
        // geometry phase like the ranking unit's (max, not add).
        if self.mechanism.re {
            let sigs = tbr_tiling::signature::frame_signatures(
                &geo.tris,
                &geo.bins,
                self.mechanism.re_oracle,
            );
            geometry_cycles = geometry_cycles.max(hw_cost::signature_cycles(sigs.bytes_hashed));
            let bytes_hashed = sigs.bytes_hashed;
            let decision = self.re_cache.observe(sigs.sigs, sigs.words);
            if !self.mechanism.re_oracle {
                // Oracle mode renders everything and only counts; otherwise
                // matching tiles leave the plan before any driver sees it.
                let removed = plan.retain_tiles(|t| !decision.matched[t.index()]);
                debug_assert_eq!(removed as u64, decision.discarded);
            }
            let labels = [("frame", frame_label.as_str())];
            self.metrics.add_counter("re_tiles_checked", &labels, decision.checked);
            self.metrics.add_counter("re_tiles_discarded", &labels, decision.discarded);
            self.metrics.add_counter("re_signature_bytes", &labels, bytes_hashed);
            self.metrics
                .add_counter("re_false_negatives", &labels, decision.false_negatives);
            if traced {
                trace::instant_args(
                    Track::Scheduler,
                    "re discard",
                    0,
                    vec![
                        ("frame", frame_label.clone()),
                        ("checked", decision.checked.to_string()),
                        ("discarded", decision.discarded.to_string()),
                        ("false_negatives", decision.false_negatives.to_string()),
                    ],
                );
            }
        }

        if traced {
            trace::span_args(
                Track::Phases,
                "geometry",
                0,
                geometry_cycles,
                vec![("frame", frame_label.clone())],
            );
            trace::instant_args(
                Track::Scheduler,
                "plan",
                0,
                vec![
                    ("frame", frame_label.clone()),
                    ("order", format!("{:?}", plan.order)),
                    ("supertile", plan.supertile_size.to_string()),
                    ("hot_cold", plan.hot_cold.to_string()),
                ],
            );
            // Raster-phase events restart local time at 0; shift them past the
            // geometry phase on the global timeline.
            trace::set_time_base(self.trace_base + geometry_cycles);
        }

        // ---- Raster phase.
        let raster = run_raster_phase(
            &self.cfg,
            &mut self.rus,
            &mut self.hier,
            &mut plan,
            &geo.tris,
            &geo.bins,
            self.mechanism,
        );
        debug_assert!(plan.is_exhausted(), "raster phase must consume the whole plan");
        if self.mechanism.wasp {
            let labels = [("frame", frame_label.as_str())];
            self.metrics
                .add_counter("wasp_engaged_tiles", &labels, raster.wasp_engaged_tiles);
            self.metrics
                .add_counter("wasp_spearhead_warps", &labels, raster.wasp_spearhead_warps);
            self.metrics
                .add_counter("wasp_reordered_tiles", &labels, raster.wasp_reordered_tiles);
            if traced {
                trace::instant_args(
                    Track::Scheduler,
                    "wasp",
                    0,
                    vec![
                        ("frame", frame_label.clone()),
                        ("engaged_tiles", raster.wasp_engaged_tiles.to_string()),
                        ("spearhead_warps", raster.wasp_spearhead_warps.to_string()),
                        ("reordered_tiles", raster.wasp_reordered_tiles.to_string()),
                    ],
                );
            }
        }
        if traced {
            trace::span_args(
                Track::Phases,
                "raster",
                0,
                raster.raster_cycles,
                vec![("frame", frame_label.clone())],
            );
        }

        // ---- Collect per-frame counters.
        let mut texture_cache = tbr_common::stats::CacheStats::default();
        let mut tile_cache = tbr_common::stats::CacheStats::default();
        for ru in &mut self.rus {
            let (tex, tile) = ru.end_frame();
            texture_cache.merge(&tex);
            tile_cache.merge(&tile);
        }
        let (mut l2_cache, mut dram) = self.hier.end_frame();
        l2_cache.merge(&geo_l2);
        dram.merge(&geo_dram);

        let stats = FrameStats {
            frame: FrameId(self.frame_no),
            geometry_cycles,
            raster_cycles: raster.raster_cycles,
            vertex_cache,
            tile_cache,
            texture_cache,
            l2_cache,
            dram,
            heatmap: raster.heatmap.clone(),
            vertices: geo.counts.vertices_shaded,
            primitives: geo.counts.prims_out,
            fragments: raster.fragments,
            warps: raster.warps,
            instructions: raster.instructions,
            texture_requests: raster.tex_requests,
            texture_latency_sum: raster.tex_latency_sum,
            texture_fill_lines: raster.fill_lines,
            texture_unique_lines: raster.unique_lines,
            micro_events: geo.events + raster.events,
        };

        stats.publish(&mut self.metrics, &[("frame", &frame_label)]);
        self.trace_base += stats.total_cycles();
        if traced {
            trace::set_time_base(self.trace_base);
        }

        // ---- Close the feedback loop for the next frame.
        self.prev_feedback = Some(FrameFeedback::new(
            raster.heatmap,
            raster.raster_cycles,
            stats.texture_cache.hit_ratio(),
        ));
        self.frame_no += 1;
        stats
    }

    /// Renders `frames` consecutive frames of a benchmark.
    pub fn render_sequence(&mut self, profile: &BenchmarkProfile, frames: u32) -> SequenceStats {
        let gen = SceneGenerator::new(profile, &self.cfg.screen);
        let mut seq = SequenceStats::default();
        for f in 0..frames {
            let scene = gen.scene(f);
            seq.frames.push(self.render_frame(&scene));
        }
        seq
    }
}

impl core::fmt::Debug for GpuSimulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GpuSimulator")
            .field("cfg", &self.cfg)
            .field("scheduler", &self.scheduler.name())
            .field("mechanism", &self.mechanism)
            .field("frame_no", &self.frame_no)
            .finish()
    }
}

/// Renders a benchmark sequence on a fresh GPU (convenience for the harness).
pub fn simulate_sequence(
    cfg: &GpuConfig,
    scheduler: SchedulerKind,
    profile: &BenchmarkProfile,
    frames: u32,
) -> SequenceStats {
    GpuSimulator::new(cfg.clone(), scheduler).render_sequence(profile, frames)
}

/// Renders a benchmark sequence on a fresh GPU with an explicit mechanism axis
/// (Rendering Elimination and/or WaSP layered on top of `scheduler`).
pub fn simulate_sequence_mech(
    cfg: &GpuConfig,
    scheduler: SchedulerKind,
    mechanism: MechanismSpec,
    profile: &BenchmarkProfile,
    frames: u32,
) -> SequenceStats {
    GpuSimulator::with_mechanism(cfg.clone(), scheduler, mechanism).render_sequence(profile, frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::config::ScreenConfig;
    use tbr_workloads::suite;

    fn profile() -> BenchmarkProfile {
        suite().remove(0)
    }

    #[test]
    fn frame_stats_are_populated() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let s = simulate_sequence(&cfg, SchedulerKind::SingleZOrder, &profile(), 1);
        let f = &s.frames[0];
        assert!(f.geometry_cycles > 0);
        assert!(f.raster_cycles > 0);
        assert!(f.raster_fraction() > 0.5, "raster should dominate: {}", f.raster_fraction());
        assert!(f.texture_cache.accesses > 0);
        assert!(f.dram.total_accesses() > 0);
        assert!(f.instructions > 0);
        assert!(f.heatmap.total_dram_accesses() > 0);
    }

    #[test]
    fn later_frames_benefit_from_warm_caches() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let s = simulate_sequence(&cfg, SchedulerKind::SingleZOrder, &profile(), 3);
        let cold = s.frames[0].texture_cache.hit_ratio();
        let warm = s.frames[2].texture_cache.hit_ratio();
        assert!(warm >= cold - 0.05, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn libra_consumes_feedback_without_losing_tiles() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let s = simulate_sequence(&cfg, SchedulerKind::Libra, &profile(), 3);
        // Same functional work every frame (same scene structure).
        for w in s.frames.windows(2) {
            let a = w[0].fragments as f64;
            let b = w[1].fragments as f64;
            assert!((a - b).abs() / a < 0.2, "fragment counts should be coherent");
        }
    }

    #[test]
    fn sequences_are_deterministic() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let a = simulate_sequence(&cfg, SchedulerKind::Libra, &profile(), 2);
        let b = simulate_sequence(&cfg, SchedulerKind::Libra, &profile(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn schedulers_do_equal_functional_work() {
        let screen = ScreenConfig::tiny();
        let base =
            simulate_sequence(&GpuConfig::baseline(screen), SchedulerKind::SingleZOrder, &profile(), 1);
        let libra =
            simulate_sequence(&GpuConfig::libra(screen, 2), SchedulerKind::Libra, &profile(), 1);
        assert_eq!(base.frames[0].fragments, libra.frames[0].fragments);
        assert_eq!(base.frames[0].primitives, libra.frames[0].primitives);
    }

    #[test]
    fn re_discards_every_tile_of_a_repeated_scene() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let gen = SceneGenerator::new(&profile(), &cfg.screen);
        let scene = gen.scene(0);
        let re = MechanismSpec::parse("re").unwrap();
        let mut sim = GpuSimulator::with_mechanism(cfg.clone(), SchedulerKind::Libra, re);
        let first = sim.render_frame(&scene);
        let second = sim.render_frame(&scene); // bit-identical inputs
        let counter = |name: &str, frame: &str| {
            sim.metrics().counter_value(name, &[("frame", frame)]).unwrap_or(0)
        };
        assert_eq!(counter("re_tiles_discarded", "0"), 0, "no cache on frame 0");
        let tiles = cfg.screen.num_tiles() as u64;
        assert_eq!(counter("re_tiles_checked", "1"), tiles);
        assert_eq!(counter("re_tiles_discarded", "1"), tiles, "identical frame");
        assert!(counter("re_signature_bytes", "1") > 0);
        assert_eq!(counter("re_false_negatives", "1"), 0);
        // The whole raster phase was eliminated; only geometry remains.
        assert_eq!(second.fragments, 0);
        assert!(second.total_cycles() < first.total_cycles());
    }

    #[test]
    fn re_oracle_renders_everything_and_sees_no_collisions() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let p = profile();
        let oracle = MechanismSpec::parse("re-oracle").unwrap();
        let mut sim = GpuSimulator::with_mechanism(cfg.clone(), SchedulerKind::Libra, oracle);
        let seq = sim.render_sequence(&p, 3);
        let base = simulate_sequence(&cfg, SchedulerKind::Libra, &p, 3);
        for (a, b) in seq.frames.iter().zip(&base.frames) {
            assert_eq!(a.fragments, b.fragments, "oracle must render every tile");
            assert_eq!(a.raster_cycles, b.raster_cycles);
        }
        for f in 0..3u32 {
            let label = f.to_string();
            assert_eq!(
                sim.metrics().counter_value("re_false_negatives", &[("frame", &label)]),
                Some(0),
                "hash collision on frame {f}"
            );
        }
    }

    #[test]
    fn mechanisms_compose_and_stay_deterministic() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let p = profile();
        let both = MechanismSpec::parse("re+wasp").unwrap();
        let a = simulate_sequence_mech(&cfg, SchedulerKind::Libra, both, &p, 2);
        let b = simulate_sequence_mech(&cfg, SchedulerKind::Libra, both, &p, 2);
        assert_eq!(a, b);
        assert!(a.total_cycles() > 0);
    }

    #[test]
    #[should_panic(expected = "invalid GPU configuration")]
    fn invalid_config_panics() {
        let mut cfg = GpuConfig::baseline(ScreenConfig::tiny());
        cfg.cores_per_ru = 0;
        let _ = GpuSimulator::new(cfg, SchedulerKind::SingleZOrder);
    }
}

/// Renders a sequence with an *oracle* temperature scheduler: each frame is first
/// profiled with a scout pass (on cloned GPU state, so nothing leaks into the real
/// timing), then scheduled from its **own** heatmap instead of the previous frame's.
///
/// This is the upper bound of LIBRA's frame-coherence prediction: the gap between
/// oracle and LIBRA measures how much the previous-frame prediction loses (ablation
/// for DESIGN.md §5; not buildable in hardware).
pub fn simulate_sequence_oracle(
    cfg: &GpuConfig,
    profile: &BenchmarkProfile,
    frames: u32,
    supertile_size: u32,
) -> SequenceStats {
    use libra::scheduler::temperature_plan;
    use tbr_workloads::SceneGenerator;

    cfg.validate().expect("invalid GPU configuration");
    let gen = SceneGenerator::new(profile, &cfg.screen);
    let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
    hier.ideal = cfg.ideal_memory;
    let mut vertex_l1 = L1Cache::new(cfg.vertex_cache);
    let mut rus: Vec<RasterUnit> = (0..cfg.num_raster_units).map(|_| RasterUnit::new(cfg)).collect();
    let mut seq = SequenceStats::default();

    for frame_no in 0..frames {
        let scene = gen.scene(frame_no);
        let geo = run_geometry_phase(cfg, &mut vertex_l1, &mut hier, &scene);
        let vertex_cache = vertex_l1.end_frame();
        let (geo_l2, geo_dram) = hier.end_frame();

        // Scout pass on cloned state: profile THIS frame without disturbing timing
        // or cache contents of the real run.
        let heatmap = {
            let mut scout_hier = hier.clone();
            let mut scout_rus = rus.clone();
            let mut scout_plan = libra::scheduler::ZOrderScheduler
                .plan_frame(&cfg.screen, None);
            let scout = crate::raster_phase::run_raster_phase(
                cfg,
                &mut scout_rus,
                &mut scout_hier,
                &mut scout_plan,
                &geo.tris,
                &geo.bins,
                MechanismSpec::default(),
            );
            scout.heatmap
        };

        // Real pass with the oracle plan.
        let mut plan = temperature_plan(&cfg.screen, &heatmap, supertile_size);
        let geometry_cycles = geo.cycles.max(plan.ranking_cycles);
        let raster = run_raster_phase(
            cfg,
            &mut rus,
            &mut hier,
            &mut plan,
            &geo.tris,
            &geo.bins,
            MechanismSpec::default(),
        );

        let mut texture_cache = tbr_common::stats::CacheStats::default();
        let mut tile_cache = tbr_common::stats::CacheStats::default();
        for ru in &mut rus {
            let (tex, tile) = ru.end_frame();
            texture_cache.merge(&tex);
            tile_cache.merge(&tile);
        }
        let (mut l2_cache, mut dram) = hier.end_frame();
        l2_cache.merge(&geo_l2);
        dram.merge(&geo_dram);

        seq.frames.push(FrameStats {
            frame: FrameId(frame_no),
            geometry_cycles,
            raster_cycles: raster.raster_cycles,
            vertex_cache,
            tile_cache,
            texture_cache,
            l2_cache,
            dram,
            heatmap: raster.heatmap,
            vertices: geo.counts.vertices_shaded,
            primitives: geo.counts.prims_out,
            fragments: raster.fragments,
            warps: raster.warps,
            instructions: raster.instructions,
            texture_requests: raster.tex_requests,
            texture_latency_sum: raster.tex_latency_sum,
            texture_fill_lines: raster.fill_lines,
            texture_unique_lines: raster.unique_lines,
            micro_events: geo.events + raster.events,
        });
    }
    seq
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use tbr_common::config::ScreenConfig;
    use tbr_workloads::suite;

    #[test]
    fn oracle_runs_and_matches_functional_work() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let p = suite().remove(4); // CCS
        let oracle = simulate_sequence_oracle(&cfg, &p, 2, 2);
        let libra = simulate_sequence(&cfg, SchedulerKind::Libra, &p, 2);
        assert_eq!(oracle.frames.len(), 2);
        for (a, b) in oracle.frames.iter().zip(&libra.frames) {
            assert_eq!(a.fragments, b.fragments, "same functional work");
            assert_eq!(a.primitives, b.primitives);
        }
        assert!(oracle.total_cycles() > 0);
    }

    #[test]
    fn oracle_is_deterministic() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let p = suite().remove(0);
        let a = simulate_sequence_oracle(&cfg, &p, 2, 2);
        let b = simulate_sequence_oracle(&cfg, &p, 2, 2);
        assert_eq!(a, b);
    }
}
