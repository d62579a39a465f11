//! The traced mirror: `GpuSimulator::render_frame` re-assembled, serially,
//! from the public functions of each layer, with every call timed from here.
//!
//! The mirror must reproduce the simulator exactly; [`crate::trace`] asserts
//! that its `SequenceStats` equal `Campaign::run_one` for every job, and
//! marks the layer times invalid otherwise.

use std::hint::black_box;
use std::time::Instant;

use libra::elimination::ReCache;
use libra::feedback::FrameFeedback;
use libra::hw_cost::signature_cycles;
use libra::scheduler::FramePlan;
use libra::TileOrderKind;
use tbr_common::config::GpuConfig;
use tbr_common::ids::{FrameId, RasterUnitId};
use tbr_common::metrics::MetricsRegistry;
use tbr_common::stats::{CacheStats, FrameStats, SequenceStats};
use tbr_mem::hierarchy::{L1Cache, MemoryHierarchy};
use tbr_raster::raster_unit::RasterUnit;
use tbr_sim::event_loop::{self, EventLoopMode};
use tbr_sim::geometry_phase::{run_geometry_phase, GeometryPhaseResult};
use tbr_sim::raster_phase::{run_raster_phase, RasterPhaseResult};
use tbr_sim::CampaignJob;
use tbr_tiling::signature::frame_signatures;
use tbr_workloads::SceneGenerator;

/// Host time spent in each layer's calls (ns) and the work they did, summed
/// over every frame mirrored.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `SceneGenerator::new` + `scene` (tbr_workloads).
    pub scene_ns: u64,
    /// `run_geometry_phase`: fetch, transform, binning (tbr_sim::geometry_phase).
    pub geometry_ns: u64,
    /// `plan_frame` (libra::scheduler).
    pub plan_ns: u64,
    /// `frame_signatures` + `ReCache::observe` (tbr_tiling::signature, libra::elimination).
    pub signature_ns: u64,
    /// `run_raster_phase` (tbr_sim::raster_phase and its event loop).
    pub raster_ns: u64,
    /// `end_frame`, `FrameStats` assembly and `publish`.
    pub collect_ns: u64,
    /// Replay on clones: `render_tile_front_end` per tile.
    pub front_end_ns: u64,
    /// Replay on clones: `execute_warp` per warp.
    pub warp_exec_ns: u64,
    /// `run_raster_phase` on clones, pinned to the parallel driver at 2 threads.
    pub par2_ns: u64,
    /// Whether every par@2 phase returned the heap driver's result.
    pub par2_agrees: bool,
    pub geometry_events: u64,
    pub raster_events: u64,
    pub tiles_checked: u64,
    pub tiles_discarded: u64,
    pub frames: u64,
    /// Frames planned from the previous frame's feedback (every frame of a
    /// job but its first).
    pub feedback_frames: u64,
    /// Frames the scheduler dispatched in temperature order.
    pub temperature_frames: u64,
}

impl LayerTimes {
    pub fn new() -> Self {
        Self {
            par2_agrees: true,
            ..Self::default()
        }
    }

    /// The mirror's main path: every call `render_frame` itself makes.
    pub fn main_path_ns(&self) -> u64 {
        self.scene_ns
            + self.geometry_ns
            + self.plan_ns
            + self.signature_ns
            + self.raster_ns
            + self.collect_ns
    }
}

/// The side measurements made on cloned state before each raster phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// Replay the frame's tiles through the front end and `execute_warp`.
    pub tiles: bool,
    /// Time the raster phase under the parallel driver at 2 threads.
    pub par2: bool,
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_nanos() as u64;
    r
}

/// Mirrors one campaign job (with its effective workload seed).
pub fn mirror_job(
    job: &CampaignJob,
    seed: u64,
    replays: Replays,
    t: &mut LayerTimes,
) -> SequenceStats {
    let cfg = &job.cfg;
    let mech = job.mechanism;
    let mut profile = job.profile.clone();
    profile.seed = seed;
    let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
    hier.ideal = cfg.ideal_memory;
    let mut vertex_l1 = L1Cache::new(cfg.vertex_cache);
    let mut rus: Vec<RasterUnit> = (0..cfg.num_raster_units)
        .map(|_| RasterUnit::new(cfg))
        .collect();
    let mut scheduler = job.scheduler.build();
    let mut re_cache = ReCache::new();
    let mut feedback: Option<FrameFeedback> = None;
    let mut metrics = MetricsRegistry::new();
    let gen = timed(&mut t.scene_ns, || {
        SceneGenerator::new(&profile, &cfg.screen)
    });
    let mut seq = SequenceStats::default();

    for frame in 0..job.frames {
        let scene = timed(&mut t.scene_ns, || gen.scene(frame));
        let geo = timed(&mut t.geometry_ns, || {
            run_geometry_phase(cfg, &mut vertex_l1, &mut hier, &scene)
        });
        let (vertex_cache, geo_l2, geo_dram) = timed(&mut t.collect_ns, || {
            let v = vertex_l1.end_frame();
            let (l2, dram) = hier.end_frame();
            (v, l2, dram)
        });
        let mut plan = timed(&mut t.plan_ns, || {
            scheduler.plan_frame(&cfg.screen, feedback.as_ref())
        });
        t.frames += 1;
        t.feedback_frames += u64::from(feedback.is_some());
        t.temperature_frames += u64::from(plan.order == TileOrderKind::Temperature);
        let mut geometry_cycles = geo.cycles.max(plan.ranking_cycles);
        let label = frame.to_string();
        timed(&mut t.collect_ns, || {
            plan.publish_metrics(&mut metrics, &[("frame", &label)])
        });

        if mech.re {
            let decision = timed(&mut t.signature_ns, || {
                let sigs = frame_signatures(&geo.tris, &geo.bins, mech.re_oracle);
                geometry_cycles = geometry_cycles.max(signature_cycles(sigs.bytes_hashed));
                re_cache.observe(sigs.sigs, sigs.words)
            });
            if !mech.re_oracle {
                plan.retain_tiles(|tile| !decision.matched[tile.index()]);
            }
            t.tiles_checked += decision.checked;
            t.tiles_discarded += decision.discarded;
        }

        if replays.tiles {
            replay_tiles(cfg, &rus, &hier, &plan, &geo, t);
        }
        let par2 = replays.par2.then(|| {
            let (mut rus, mut hier, mut plan) = (rus.clone(), hier.clone(), plan.clone());
            let saved = (
                event_loop::override_mode(),
                event_loop::sim_threads_override(),
            );
            event_loop::set_mode(Some(EventLoopMode::Par));
            event_loop::set_sim_threads(Some(2));
            let r = timed(&mut t.par2_ns, || {
                run_raster_phase(
                    cfg, &mut rus, &mut hier, &mut plan, &geo.tris, &geo.bins, mech,
                )
            });
            event_loop::set_mode(saved.0);
            event_loop::set_sim_threads(saved.1);
            r
        });

        let raster = timed(&mut t.raster_ns, || {
            run_raster_phase(
                cfg, &mut rus, &mut hier, &mut plan, &geo.tris, &geo.bins, mech,
            )
        });
        if par2.is_some_and(|p: RasterPhaseResult| p != raster) {
            t.par2_agrees = false;
        }

        let stats = timed(&mut t.collect_ns, || {
            let mut texture_cache = CacheStats::default();
            let mut tile_cache = CacheStats::default();
            for ru in &mut rus {
                let (tex, tile) = ru.end_frame();
                texture_cache.merge(&tex);
                tile_cache.merge(&tile);
            }
            let (mut l2_cache, mut dram) = hier.end_frame();
            l2_cache.merge(&geo_l2);
            dram.merge(&geo_dram);
            let stats = FrameStats {
                frame: FrameId(frame),
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
            stats.publish(&mut metrics, &[("frame", &label)]);
            stats
        });
        t.geometry_events += geo.events;
        t.raster_events += raster.events;
        feedback = Some(FrameFeedback::new(
            raster.heatmap,
            raster.raster_cycles,
            stats.texture_cache.hit_ratio(),
        ));
        seq.frames.push(stats);
    }
    seq
}

/// Replays the frame's plan on clones of the Raster Units and memory: each
/// tile through `render_tile_front_end`, then each of its warps through
/// `execute_warp`, dealing dispatch groups to the units in turn. The clones
/// see the tiles in another interleaving than the event loop does, so the
/// split is approximate.
fn replay_tiles(
    cfg: &GpuConfig,
    rus: &[RasterUnit],
    hier: &MemoryHierarchy,
    plan: &FramePlan,
    geo: &GeometryPhaseResult,
    t: &mut LayerTimes,
) {
    let (mut rus, mut hier, mut plan) = (rus.to_vec(), hier.clone(), plan.clone());
    let mut now = vec![0; rus.len()];
    let mut ru = 0;
    while let Some(group) = plan.next_group(RasterUnitId(ru as u8)) {
        for tile in group {
            let unit = &mut rus[ru];
            let fe = timed(&mut t.front_end_ns, || {
                unit.render_tile_front_end(
                    tile,
                    &geo.tris,
                    geo.bins.list(tile),
                    &cfg.screen,
                    now[ru],
                    &mut hier,
                )
            });
            timed(&mut t.warp_exec_ns, || {
                for warp in &fe.warps {
                    black_box(unit.execute_warp(warp, &mut hier));
                }
            });
            now[ru] = fe.fe_done;
        }
        ru = (ru + 1) % rus.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::config::ScreenConfig;
    use tbr_common::mechanism::MechanismSpec;
    use tbr_sim::{simulate_sequence_mech, Campaign, SchedulerKind};

    #[test]
    fn mirror_equals_the_simulator_for_none_and_re() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let profiles = tbr_workloads::suite();
        // CuT keeps a static camera (RE discards); CCS scrolls (RE hashes only).
        let titles: Vec<_> = profiles
            .into_iter()
            .filter(|p| p.abbrev == "CuT" || p.abbrev == "CCS")
            .collect();
        for mech in ["none", "re"] {
            let mech = MechanismSpec::parse(mech).unwrap();
            let campaign = Campaign::grid_mech(0, &cfg, &[SchedulerKind::Libra], mech, &titles, 2);
            for (i, job) in campaign.jobs().iter().enumerate() {
                let want = simulate_sequence_mech(&cfg, job.scheduler, mech, &job.profile, 2);
                let mut t = LayerTimes::new();
                let plain = mirror_job(job, campaign.effective_seed(i), Replays::default(), &mut t);
                assert_eq!(plain, want, "{} {mech:?}", job.profile.abbrev);
                assert_eq!(
                    t.geometry_events + t.raster_events,
                    want.frames.iter().map(|f| f.micro_events).sum::<u64>()
                );
                assert!(t.raster_ns > 0 && t.main_path_ns() >= t.raster_ns);
                assert_eq!(t.tiles_checked > 0, mech.re);
                assert_eq!((t.frames, t.feedback_frames), (2, 1));

                let mut t = LayerTimes::new();
                let replayed = Replays {
                    tiles: true,
                    par2: true,
                };
                let side = mirror_job(job, campaign.effective_seed(i), replayed, &mut t);
                assert_eq!(side, want, "replays on clones must not disturb the mirror");
                assert!(t.par2_agrees);
                assert!(t.front_end_ns > 0 && t.par2_ns > 0);
            }
        }
    }
}
