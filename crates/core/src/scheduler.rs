//! Tile dispatchers: from the baseline Z-order Tile Fetcher to the full LIBRA
//! scheduler.
//!
//! A scheduler produces a [`FramePlan`] at the start of each frame: an ordered queue
//! of *dispatch groups* (single tiles, or whole supertiles) plus the dispatch
//! discipline. Raster Units pull the next group when they go idle, which is exactly
//! how the paper's Tile Fetcher feeds the RU FIFOs:
//!
//! * the **baseline / PTR interleaved** plan is one shared Z-ordered queue — "the
//!   Tile Fetcher fetches tiles in the predefined order which are dispatched to a
//!   Raster Unit in an alternating manner" (§III-A, self-balancing because an idle RU
//!   takes the next tile);
//! * the **LIBRA temperature plan** is the hottest→coldest ranking, with one RU
//!   pulling from the hot end and all the others from the cold end (§III-D, §V-D:
//!   "only one Raster Unit handles the hottest tiles at any given time").

use std::collections::VecDeque;

use crate::adaptive::{AdaptiveController, AdaptiveParams, TileOrderKind};
use crate::feedback::FrameFeedback;
use crate::hw_cost;
use crate::supertile::SupertileGrid;
use crate::temperature::TemperatureTable;
use tbr_common::config::ScreenConfig;
use tbr_common::ids::{RasterUnitId, TileId};
use tbr_common::metrics::MetricsRegistry;
use tbr_common::morton::{scanline_traversal, zorder_traversal};
use tbr_common::Cycle;

/// The per-frame dispatch plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePlan {
    /// Which traversal produced this plan.
    pub order: TileOrderKind,
    /// Supertile edge used (1 = individual tiles).
    pub supertile_size: u32,
    /// When `true`, RU 0 pulls groups from the hot (front) end and every other RU
    /// pulls from the cold (back) end.
    pub hot_cold: bool,
    /// Cycles the ranking operation cost in hardware (hidden under the Geometry
    /// phase; reported for the overhead analysis).
    pub ranking_cycles: Cycle,
    groups: VecDeque<Vec<TileId>>,
}

impl FramePlan {
    /// Total tiles remaining in the plan.
    pub fn remaining_tiles(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Whether all groups have been dispatched.
    pub fn is_exhausted(&self) -> bool {
        self.groups.is_empty()
    }

    /// Hands the next dispatch group to a Raster Unit (hot end for RU 0, cold end
    /// for the rest when `hot_cold` is set).
    pub fn next_group(&mut self, ru: RasterUnitId) -> Option<Vec<TileId>> {
        if self.hot_cold && ru.0 != 0 {
            self.groups.pop_back()
        } else {
            self.groups.pop_front()
        }
    }

    /// The first tile of each group the next `depth` rounds of pulls by
    /// `rus` Raster Units would hand out, without taking any: `depth` groups
    /// per RU pulling from each end, so with `hot_cold` the next `depth` at
    /// the hot end and the next `depth × (rus − 1)` at the cold end, and
    /// otherwise the next `depth × rus` at the front.
    pub fn upcoming(&self, rus: usize, depth: usize) -> impl Iterator<Item = TileId> + '_ {
        let (front, back) = if self.hot_cold { (1, rus.saturating_sub(1)) } else { (rus, 0) };
        let (front, back) = (front * depth, back * depth);
        self.groups
            .iter()
            .take(front)
            .chain(self.groups.iter().rev().take(back))
            .filter_map(|g| g.first().copied())
    }

    /// Drops every tile for which `keep` returns `false` from the plan and
    /// returns how many were removed. Groups that become empty are removed so
    /// `next_group` never hands an RU an empty dispatch; relative tile order
    /// within and across the surviving groups is untouched.
    ///
    /// This is the Rendering Elimination early-discard hook: eliminated tiles
    /// leave the plan *before* the raster phase starts, so every event-loop
    /// driver sees the identical filtered plan.
    pub fn retain_tiles(&mut self, mut keep: impl FnMut(TileId) -> bool) -> usize {
        let before = self.remaining_tiles();
        for group in self.groups.iter_mut() {
            group.retain(|&t| keep(t));
        }
        self.groups.retain(|g| !g.is_empty());
        before - self.remaining_tiles()
    }

    /// Publishes the plan's shape into `reg` under the given labels: the chosen
    /// order, supertile edge, group count and ranking-hardware cost.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        reg.set_gauge("plan_supertile_size", labels, self.supertile_size as f64);
        reg.set_gauge(
            "plan_order_temperature",
            labels,
            if self.order == TileOrderKind::Temperature { 1.0 } else { 0.0 },
        );
        reg.set_gauge("plan_hot_cold", labels, if self.hot_cold { 1.0 } else { 0.0 });
        reg.add_counter("plan_groups", labels, self.groups.len() as u64);
        reg.add_counter("plan_ranking_cycles", labels, self.ranking_cycles);
    }
}

/// A tile scheduler: one [`FramePlan`] per frame, optionally informed by the previous
/// frame's profile.
pub trait TileScheduler {
    /// Produces the dispatch plan for the upcoming frame. `feedback` is `None` for
    /// the first frame of a sequence.
    fn plan_frame(&mut self, screen: &ScreenConfig, feedback: Option<&FrameFeedback>)
        -> FramePlan;

    /// Human-readable scheduler name (for reports).
    fn name(&self) -> &'static str;
}

/// Factory enumeration of every scheduler evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// The baseline GPU's tile fetcher (also the PTR interleaved dispatcher when the
    /// GPU has more than one RU).
    SingleZOrder,
    /// Explicit alias for the PTR configuration (identical plan; reads better in the
    /// experiment code).
    InterleavedZOrder,
    /// Scanline traversal (ablation).
    Scanline,
    /// Hilbert-curve traversal (ablation; the DTexL-style locality order).
    Hilbert,
    /// PTR with a fixed supertile size and Z-ordered supertiles (Fig 16's statics).
    StaticSupertile(u32),
    /// The full LIBRA scheduler with the paper's thresholds.
    Libra,
    /// LIBRA with custom thresholds (Fig 19 sweeps).
    LibraWithParams(AdaptiveParams),
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn TileScheduler> {
        match *self {
            SchedulerKind::SingleZOrder | SchedulerKind::InterleavedZOrder => {
                Box::new(ZOrderScheduler)
            }
            SchedulerKind::Scanline => Box::new(ScanlineScheduler),
            SchedulerKind::Hilbert => Box::new(HilbertScheduler),
            SchedulerKind::StaticSupertile(size) => Box::new(StaticSupertileScheduler { size }),
            SchedulerKind::Libra => {
                Box::new(LibraScheduler::new(AdaptiveParams::default()))
            }
            SchedulerKind::LibraWithParams(p) => Box::new(LibraScheduler::new(p)),
        }
    }
}

fn single_tile_groups(tiles: impl IntoIterator<Item = TileId>) -> VecDeque<Vec<TileId>> {
    tiles.into_iter().map(|t| vec![t]).collect()
}

fn zorder_tiles(screen: &ScreenConfig) -> Vec<TileId> {
    zorder_traversal(screen.tiles_x(), screen.tiles_y())
        .into_iter()
        .map(|c| screen.tile_id(c))
        .collect()
}

/// Builds the hottest→coldest temperature plan from a per-tile heatmap at the given
/// supertile granularity. Used by [`LibraScheduler`] with the *previous* frame's
/// heatmap, and by the oracle ablation (`tbr-sim`) with the *current* frame's.
pub fn temperature_plan(
    screen: &ScreenConfig,
    heatmap: &tbr_common::stats::TileHeatmap,
    supertile_size: u32,
) -> FramePlan {
    let grid = SupertileGrid::new(screen, supertile_size);
    let tallies = grid.aggregate(heatmap);
    let table = TemperatureTable::from_tallies(&tallies);
    let groups: VecDeque<Vec<TileId>> =
        table.rank().into_iter().map(|st| grid.tiles_of(st)).collect();
    FramePlan {
        order: TileOrderKind::Temperature,
        supertile_size,
        hot_cold: true,
        ranking_cycles: hw_cost::ranking_cycles(table.len()),
        groups,
    }
}

fn zorder_plan(screen: &ScreenConfig) -> FramePlan {
    FramePlan {
        order: TileOrderKind::ZOrder,
        supertile_size: 1,
        hot_cold: false,
        ranking_cycles: 0,
        groups: single_tile_groups(zorder_tiles(screen)),
    }
}

/// Baseline/PTR: shared Z-ordered queue of individual tiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZOrderScheduler;

impl TileScheduler for ZOrderScheduler {
    fn plan_frame(&mut self, screen: &ScreenConfig, _: Option<&FrameFeedback>) -> FramePlan {
        zorder_plan(screen)
    }

    fn name(&self) -> &'static str {
        "z-order"
    }
}

/// Scanline traversal (row-major), for ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanlineScheduler;

impl TileScheduler for ScanlineScheduler {
    fn plan_frame(&mut self, screen: &ScreenConfig, _: Option<&FrameFeedback>) -> FramePlan {
        let tiles = scanline_traversal(screen.tiles_x(), screen.tiles_y())
            .into_iter()
            .map(|c| screen.tile_id(c));
        FramePlan {
            order: TileOrderKind::ZOrder,
            supertile_size: 1,
            hot_cold: false,
            ranking_cycles: 0,
            groups: single_tile_groups(tiles),
        }
    }

    fn name(&self) -> &'static str {
        "scanline"
    }
}

/// Hilbert-curve traversal (ablation): consecutive tiles are always 4-neighbours,
/// maximising traversal locality without any temperature information.
#[derive(Debug, Clone, Copy, Default)]
pub struct HilbertScheduler;

impl TileScheduler for HilbertScheduler {
    fn plan_frame(&mut self, screen: &ScreenConfig, _: Option<&FrameFeedback>) -> FramePlan {
        let tiles = tbr_common::hilbert::hilbert_traversal(screen.tiles_x(), screen.tiles_y())
            .into_iter()
            .map(|c| screen.tile_id(c));
        FramePlan {
            order: TileOrderKind::ZOrder,
            supertile_size: 1,
            hot_cold: false,
            ranking_cycles: 0,
            groups: single_tile_groups(tiles),
        }
    }

    fn name(&self) -> &'static str {
        "hilbert"
    }
}

/// PTR with fixed-size supertiles traversed in Z-order (Fig 16's static
/// configurations): keeps locality inside each RU without any temperature data.
#[derive(Debug, Clone, Copy)]
pub struct StaticSupertileScheduler {
    /// Supertile edge in tiles.
    pub size: u32,
}

impl TileScheduler for StaticSupertileScheduler {
    fn plan_frame(&mut self, screen: &ScreenConfig, _: Option<&FrameFeedback>) -> FramePlan {
        let grid = SupertileGrid::new(screen, self.size);
        let groups: VecDeque<Vec<TileId>> =
            grid.zorder_supertiles().into_iter().map(|st| grid.tiles_of(st)).collect();
        FramePlan {
            order: TileOrderKind::ZOrder,
            supertile_size: self.size,
            hot_cold: false,
            ranking_cycles: 0,
            groups,
        }
    }

    fn name(&self) -> &'static str {
        "static-supertile"
    }
}

/// The full LIBRA scheduler: adaptive order + adaptive supertile size + hot/cold
/// dispatch from the temperature ranking.
#[derive(Debug, Clone)]
pub struct LibraScheduler {
    controller: AdaptiveController,
}

impl LibraScheduler {
    /// Builds the scheduler with the given adaptive thresholds.
    pub fn new(params: AdaptiveParams) -> Self {
        Self { controller: AdaptiveController::new(params) }
    }

    /// Read access to the adaptive state (tests/experiments).
    pub fn controller(&self) -> &AdaptiveController {
        &self.controller
    }
}

impl TileScheduler for LibraScheduler {
    fn plan_frame(
        &mut self,
        screen: &ScreenConfig,
        feedback: Option<&FrameFeedback>,
    ) -> FramePlan {
        let Some(fb) = feedback else {
            // No profile yet: behave like the PTR baseline.
            return zorder_plan(screen);
        };
        let decision = self.controller.decide(fb);
        match decision.order {
            TileOrderKind::ZOrder => zorder_plan(screen),
            TileOrderKind::Temperature => {
                temperature_plan(screen, &fb.heatmap, decision.supertile_size)
            }
        }
    }

    fn name(&self) -> &'static str {
        "libra"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tbr_common::stats::TileHeatmap;

    fn screen() -> ScreenConfig {
        ScreenConfig::quarter_fhd()
    }

    fn drain_all(plan: &mut FramePlan, rus: u8) -> Vec<TileId> {
        let mut out = Vec::new();
        let mut ru = 0u8;
        while let Some(g) = plan.next_group(RasterUnitId(ru)) {
            out.extend(g);
            ru = (ru + 1) % rus;
        }
        out
    }

    fn assert_full_coverage(tiles: &[TileId], screen: &ScreenConfig) {
        let set: HashSet<_> = tiles.iter().copied().collect();
        assert_eq!(tiles.len(), screen.num_tiles(), "every tile exactly once");
        assert_eq!(set.len(), screen.num_tiles());
    }

    #[test]
    fn every_scheduler_covers_all_tiles_exactly_once() {
        let s = screen();
        for kind in [
            SchedulerKind::SingleZOrder,
            SchedulerKind::InterleavedZOrder,
            SchedulerKind::Scanline,
            SchedulerKind::Hilbert,
            SchedulerKind::StaticSupertile(2),
            SchedulerKind::StaticSupertile(16),
            SchedulerKind::Libra,
        ] {
            let mut sched = kind.build();
            let mut plan = sched.plan_frame(&s, None);
            let tiles = drain_all(&mut plan, 2);
            assert_full_coverage(&tiles, &s);
        }
    }

    #[test]
    fn libra_with_feedback_still_covers_all_tiles() {
        let s = screen();
        let mut sched = SchedulerKind::Libra.build();
        let mut hm = TileHeatmap::new(s.num_tiles());
        for (i, t) in hm.tiles.iter_mut().enumerate() {
            t.dram_accesses = (i % 37) as u64;
            t.instructions = 100 + (i % 11) as u64;
        }
        let fb = FrameFeedback::new(hm, 100_000, 0.5);
        let mut plan = sched.plan_frame(&s, Some(&fb));
        assert_eq!(plan.order, TileOrderKind::Temperature);
        assert!(plan.hot_cold);
        assert!(plan.ranking_cycles > 0);
        let tiles = drain_all(&mut plan, 2);
        assert_full_coverage(&tiles, &s);
    }

    #[test]
    fn libra_first_frame_falls_back_to_zorder() {
        let s = screen();
        let mut sched = SchedulerKind::Libra.build();
        let plan = sched.plan_frame(&s, None);
        assert_eq!(plan.order, TileOrderKind::ZOrder);
        assert!(!plan.hot_cold);
    }

    #[test]
    fn hot_cold_dispatch_serves_opposite_ends() {
        let s = screen();
        let mut sched = SchedulerKind::Libra.build();
        // Make tile 0's supertile blazing hot, everything else cold.
        let mut hm = TileHeatmap::new(s.num_tiles());
        hm.tiles[0].dram_accesses = 10_000;
        hm.tiles[0].instructions = 100;
        for t in hm.tiles.iter_mut().skip(1) {
            t.instructions = 10_000;
            t.dram_accesses = 1;
        }
        let fb = FrameFeedback::new(hm, 100_000, 0.5);
        let mut plan = sched.plan_frame(&s, Some(&fb));
        // RU0 gets the hot end: its first group must contain tile 0.
        let hot_group = plan.next_group(RasterUnitId(0)).unwrap();
        assert!(hot_group.contains(&TileId(0)), "hot RU must get the hottest supertile");
        // RU1 pulls from the cold end: its group must not contain tile 0.
        let cold_group = plan.next_group(RasterUnitId(1)).unwrap();
        assert!(!cold_group.contains(&TileId(0)));
    }

    #[test]
    fn upcoming_names_the_first_tile_of_each_group_the_next_pulls_take() {
        let s = screen();
        let mut hm = TileHeatmap::new(s.num_tiles());
        for (i, t) in hm.tiles.iter_mut().enumerate() {
            t.dram_accesses = (i % 37) as u64;
            t.instructions = 100 + (i % 11) as u64;
        }
        let fb = FrameFeedback::new(hm, 100_000, 0.5);
        let hot_cold = SchedulerKind::Libra.build().plan_frame(&s, Some(&fb));
        let plain = SchedulerKind::StaticSupertile(4).build().plan_frame(&s, None);
        assert!(hot_cold.hot_cold && !plain.hot_cold);
        for mut plan in [hot_cold, plain] {
            for rus in [1u8, 2, 5] {
                for depth in [1, 3] {
                    // `depth` rounds of pulls, RU 0 to the last in each. The
                    // peek lists the front end's groups before the back end's.
                    let mut pulled = plan.clone();
                    let (mut front, mut back) = (Vec::new(), Vec::new());
                    for _ in 0..depth {
                        for ru in 0..rus {
                            let first = pulled.next_group(RasterUnitId(ru)).unwrap()[0];
                            let end = if plan.hot_cold && ru != 0 { &mut back } else { &mut front };
                            end.push(first);
                        }
                    }
                    front.extend(back);
                    let want: Vec<TileId> = plan.upcoming(rus as usize, depth).collect();
                    assert_eq!(want, front, "{rus} RUs, depth {depth}, hot_cold {}", plan.hot_cold);
                }
            }
            // Peeking takes nothing.
            let before = plan.remaining_tiles();
            let _ = plan.upcoming(4, 3).count();
            assert_eq!(plan.remaining_tiles(), before);
            drain_all(&mut plan, 2);
            assert_eq!(plan.upcoming(4, 3).count(), 0);
        }
    }

    #[test]
    fn static_supertile_groups_have_the_requested_size() {
        let s = screen();
        let mut sched = SchedulerKind::StaticSupertile(4).build();
        let mut plan = sched.plan_frame(&s, None);
        let first = plan.next_group(RasterUnitId(0)).unwrap();
        assert_eq!(first.len(), 16, "interior 4x4 supertile has 16 tiles");
        // Tiles of a group are spatially contiguous (within a 4x4 block).
        let coords: Vec<_> = first.iter().map(|&t| s.tile_coord(t)).collect();
        let max_dist = coords
            .iter()
            .flat_map(|a| coords.iter().map(move |b| a.chebyshev_distance(*b)))
            .max()
            .unwrap();
        assert!(max_dist < 4);
    }

    #[test]
    fn remaining_tiles_decreases_as_groups_dispatch() {
        let s = screen();
        let mut plan = ZOrderScheduler.plan_frame(&s, None);
        let n0 = plan.remaining_tiles();
        plan.next_group(RasterUnitId(0));
        assert_eq!(plan.remaining_tiles(), n0 - 1);
        assert!(!plan.is_exhausted());
    }

    #[test]
    fn plan_publishes_its_shape() {
        let s = screen();
        let plan = ZOrderScheduler.plan_frame(&s, None);
        let mut reg = MetricsRegistry::new();
        plan.publish_metrics(&mut reg, &[("frame", "0")]);
        assert_eq!(
            reg.counter_value("plan_groups", &[("frame", "0")]),
            Some(s.num_tiles() as u64)
        );
        assert_eq!(reg.gauge_value("plan_order_temperature", &[("frame", "0")]), Some(0.0));
    }

    #[test]
    fn adaptive_decisions_show_up_on_the_scheduler_track() {
        use tbr_common::trace::{self, Track};
        let s = screen();
        let mut sched = SchedulerKind::Libra.build();
        let mut hm = TileHeatmap::new(s.num_tiles());
        for (i, t) in hm.tiles.iter_mut().enumerate() {
            t.dram_accesses = (i % 37) as u64;
        }
        trace::start();
        // Low hit ratio -> first decision switches to Temperature: one feedback
        // instant plus one order-switch instant.
        let _ = sched.plan_frame(&s, Some(&FrameFeedback::new(hm, 100_000, 0.5)));
        let t = trace::finish().unwrap();
        let on_sched: Vec<_> = t.on_track(Track::Scheduler).collect();
        assert!(on_sched.iter().any(|e| e.name == "libra feedback"));
        assert!(on_sched.iter().any(|e| e.name == "order switch"));
    }

    #[test]
    fn scheduler_names_are_distinct() {
        let names: HashSet<&str> = [
            SchedulerKind::SingleZOrder.build().name(),
            SchedulerKind::Scanline.build().name(),
            SchedulerKind::StaticSupertile(2).build().name(),
            SchedulerKind::Libra.build().name(),
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 4);
    }
}
