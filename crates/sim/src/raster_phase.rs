//! The event-driven Raster Pipeline: N Raster Units rendering tiles in parallel.
//!
//! Each Raster Unit is a two-stage *tile pipeline*, matching §III-A: "there are
//! barriers between stages, so a tile cannot proceed to a given stage until the
//! preceding tile has completed that stage". Concretely:
//!
//! * the **front-end** (Parameter-Buffer fetch → rasterise → Early-Z) of tile *i + 1*
//!   runs while the **fragment stage** of tile *i* is still shading;
//! * the fragment stage of tile *i + 1* only starts once tile *i*'s fragments have
//!   completed and its Colour Buffer has been flushed (single buffer per RU).
//!
//! Warps execute *steppably* — one texture-sample stage per event — and a global
//! scheduler loop always advances the micro-event with the earliest timestamp across
//! all RUs and cores. This gives the two properties the study depends on: warps on a
//! core overlap (latency hiding), and accesses to the shared L2/DRAM from different
//! RUs interleave in causal time order (faithful cross-RU contention).
//!
//! Warp slots (`max_warps_per_core`) gate admission: when a core's slots are full,
//! new warps wait for a retirement — why low-workload tiles cannot fill wide cores
//! (the Fig 4 effect).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use tbr_common::hostprof::{self, PhaseProfile, WorkerLane, RUN_LENGTH_BUCKETS};

use libra::scheduler::FramePlan;
use tbr_common::config::GpuConfig;
use tbr_common::event_queue::SlotMin;
use tbr_common::mechanism::MechanismSpec;
use tbr_common::ids::{RasterUnitId, TileId};
use tbr_common::stats::TileHeatmap;
use tbr_common::trace::{self, Track};
use tbr_common::Cycle;
use tbr_geom::stream::TriangleStream;
use tbr_mem::hierarchy::MemoryHierarchy;
use tbr_raster::raster_unit::{RasterUnit, WarpWork};
use tbr_raster::shader::WarpExecState;
use tbr_tiling::binner::TileBins;

use crate::event_loop::{self, EventLoopMode};
use crate::raster_helper::{self, Prefetch};
use crate::unique_lines::UniqueLines;

/// Aggregate output of one frame's raster phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RasterPhaseResult {
    /// Cycles from phase start to the last warp/flush completion.
    pub raster_cycles: Cycle,
    /// Per-tile DRAM/instruction attribution (LIBRA's profile and Fig 2's heatmap).
    pub heatmap: TileHeatmap,
    /// Fragments shaded.
    pub fragments: u64,
    /// Fragments killed by Early-Z.
    pub earlyz_killed: u64,
    /// Warps executed.
    pub warps: u64,
    /// SIMD instructions executed.
    pub instructions: u64,
    /// Line-granular texture requests.
    pub tex_requests: u64,
    /// Sum of texture request latencies.
    pub tex_latency_sum: u64,
    /// Texture lines filled into L1s (with cross-core duplicates).
    pub fill_lines: u64,
    /// Distinct texture lines touched frame-wide.
    pub unique_lines: u64,
    /// Sum over tiles of front-end occupancy (fetch + rasterise + Early-Z).
    pub fe_cycles: u64,
    /// Sum over tiles of fragment-stage occupancy (start to last warp retired).
    pub drain_cycles: u64,
    /// Sum over tiles of colour-buffer flush issue time.
    pub flush_cycles: u64,
    /// Cycle at which each Raster Unit finished its last tile (load balance).
    pub ru_finish: Vec<Cycle>,
    /// Micro-events processed by the event loop (one per scheduler decision).
    /// Identical across the event-loop drivers; the repository benchmark
    /// divides wall-clock by this to get ns/event.
    pub events: u64,
    /// Tiles where WaSP engaged (texture-L1 miss ratio above the threshold at
    /// front-end completion). Zero unless the `wasp` mechanism is enabled.
    pub wasp_engaged_tiles: u64,
    /// Warps promoted into WaSP spearhead groups across the frame.
    pub wasp_spearhead_warps: u64,
    /// Tiles whose warp issue order actually changed under WaSP.
    pub wasp_reordered_tiles: u64,
}

#[derive(Debug)]
struct InFlight {
    warp: WarpWork,
    exec: WarpExecState,
    core: usize,
}

/// A tile whose front-end has completed, parked until the fragment stage frees up.
#[derive(Debug)]
struct FeReady {
    tile: TileId,
    fe_done: Cycle,
    warps: VecDeque<WarpWork>,
}

#[derive(Debug)]
struct RuState {
    tiles: VecDeque<TileId>,
    fe_ready: Option<FeReady>,
    fe_time: Cycle,
    pending: VecDeque<WarpWork>,
    inflight: Vec<InFlight>,
    core_load: Vec<usize>,
    /// When the RU was fully occupied, the retirement that freed a slot gates the
    /// next admission to its completion time (consumed by that admission).
    slot_gate: Cycle,
    cur_tile: Option<TileId>,
    /// When the fragment stage may take the next tile: previous tile's fragments
    /// done AND the double-buffered Colour Buffer's older half flushed.
    frag_gate: Cycle,
    /// Flush completion of the most recently flushed tile (gates the tile after
    /// next, since the Colour Buffer is double-buffered).
    last_flush_done: Cycle,
    /// When the fragment stage of the current tile started (for accounting).
    frag_start: Cycle,
    /// Last warp completion of the current tile.
    tile_last: Cycle,
    no_more_groups: bool,
}

impl RuState {
    fn has_free_slot(&self, max_warps: usize) -> bool {
        self.core_load.iter().any(|&l| l < max_warps)
    }

    fn fragment_stage_idle(&self) -> bool {
        self.pending.is_empty() && self.inflight.is_empty() && self.cur_tile.is_none()
    }

    /// When the pending warp at the queue head could start, if a core slot
    /// is free for it.
    fn admit_start(&self, max_warps: usize) -> Option<Cycle> {
        let w = self.pending.front()?;
        self.has_free_slot(max_warps)
            .then(|| w.arrival.max(self.frag_gate).max(self.slot_gate))
    }

    /// The earliest of the RU's non-warp candidates: admitting the pending
    /// warp at the queue head, promoting the parked tile into the idle
    /// fragment stage, and running the front-end of the next tile. This is
    /// the one statement of the candidate rule; [`RuState::next_time`],
    /// [`select_branch`] and [`drive_heap`] call it and handle the in-flight
    /// warps each in their own way.
    fn non_warp_min(&self, max_warps: usize) -> Option<Cycle> {
        let mut t = self.admit_start(max_warps);
        if let Some(r) = &self.fe_ready {
            if self.fragment_stage_idle() {
                t = earliest(t, Some(self.frag_gate.max(r.fe_done)));
            }
        } else if !(self.no_more_groups && self.tiles.is_empty()) {
            t = earliest(t, Some(self.fe_time));
        }
        t
    }

    /// Earliest micro-event this RU can process, if any (`None` once the RU
    /// has finished the frame: every candidate is then empty).
    fn next_time(&self, max_warps: usize) -> Option<Cycle> {
        let warp = self.inflight.iter().map(|f| f.exec.ready_at()).min();
        earliest(self.non_warp_min(max_warps), warp)
    }
}

/// The earlier of two optional times.
#[inline]
fn earliest(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// What processing one event changed about the RU's in-flight warp set — exactly
/// the information the indexed driver needs to update its per-RU warp slots
/// incrementally (the scan driver ignores it).
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// The warp at `idx` stepped and stays in flight with a new ready time.
    Stepped { idx: usize },
    /// The warp at `idx` retired. Removal is `swap_remove`, so the former last
    /// warp (if any) now lives at `idx`, and the last position is empty.
    Retired { idx: usize },
    /// A pending warp was admitted at the back of `inflight`.
    Admitted,
    /// Promotion / front-end / steal / finish: the in-flight set is unchanged.
    Other,
}

/// Which branch of [`PhaseCtx::process`] fires for an RU's next micro-event.
///
/// Selection reads only the RU's own state, and there is exactly one selector
/// ([`select_branch`]) shared by the serial execution path, the parallel
/// workers' local drains, and the parallel coordinator's event classifier —
/// so what a worker *predicts* an event will do can never diverge from what
/// [`PhaseCtx::process`] actually does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    /// Step the earliest in-flight warp.
    Step,
    /// Admit the pending warp at the queue head into a core slot.
    Admit,
    /// Promote the parked front-end-complete tile into the fragment stage.
    Promote,
    /// Run the front-end of the next tile / refill / steal / mark finished.
    FrontEnd,
}

/// The branch-priority spec every driver reproduces: step the earliest
/// in-flight warp when it ties-or-beats every other candidate; else admit a
/// pending warp when its start does not overtake that warp; else promote a
/// parked tile; else run the front-end. `step` is the earliest in-flight warp
/// as `(vector position, ready time)` — lowest position among ties.
fn select_branch(st: &RuState, step: Option<(usize, Cycle)>, max_warps: usize) -> Branch {
    if let Some((_, t)) = step {
        if st.non_warp_min(max_warps).is_none_or(|o| t <= o) {
            return Branch::Step;
        }
    }
    if let Some(start) = st.admit_start(max_warps) {
        if step.is_none_or(|(_, t)| start <= t) {
            return Branch::Admit;
        }
    }
    if st.fragment_stage_idle() && st.fe_ready.is_some() {
        return Branch::Promote;
    }
    Branch::FrontEnd
}

/// The earliest in-flight warp as `(vector position, ready time)`, lowest
/// position among ties — the `step_idx` contract of [`PhaseCtx::process`]
/// (scan and par compute it with this linear pass; heap answers it from the
/// RU's warp slots, whose `(ready, position)` key order agrees).
fn earliest_step(st: &RuState) -> Option<(usize, Cycle)> {
    st.inflight
        .iter()
        .enumerate()
        .min_by_key(|(_, f)| f.exec.ready_at())
        .map(|(k, f)| (k, f.exec.ready_at()))
}

/// Everything one frame's raster phase threads through its event loop. The
/// branch semantics live in [`PhaseCtx::process`]; the *order* in which events
/// are selected lives in the drivers ([`drive_scan`] / [`drive_heap`] /
/// [`drive_par`]), which must agree bit-identically.
struct PhaseCtx<'a> {
    cfg: &'a GpuConfig,
    max_warps: usize,
    rus: &'a mut [RasterUnit],
    hier: &'a mut MemoryHierarchy,
    plan: &'a mut FramePlan,
    prims: &'a TriangleStream,
    bins: &'a TileBins,
    /// Mechanism axis: only `wasp` is consulted here (RE filters the plan
    /// before the phase starts, so the drivers never see eliminated tiles).
    mech: MechanismSpec,
    states: Vec<RuState>,
    out: RasterPhaseResult,
    unique: UniqueLines,
    frame_end: Cycle,
    /// The idle-core helper's request side, when one runs beside the loop.
    front: Option<Prefetch<'a>>,
    /// How the phase's tiles were rasterised (hostprof telemetry).
    tally: TileTally,
}

/// How a raster phase's tiles were rasterised: the idle-core helper's
/// useful-work ratio, recorded by hostprof under every driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TileTally {
    /// Tiles the helper prepared and the event loop issued.
    prepared: u64,
    /// Tiles the event loop rasterised itself.
    inline: u64,
}

impl<'a> PhaseCtx<'a> {
    /// Processes one micro-event on RU `i`. `step_idx` is the earliest in-flight
    /// warp as `(vector position, ready time)` — lowest position among ties —
    /// supplied by the driver (scan: `min_by_key`; heap: the RU's warp slots).
    ///
    /// Branch priority (the spec both drivers reproduce): step the earliest warp
    /// when it ties-or-beats every other candidate; else admit a pending warp;
    /// else promote a parked tile; else run the front-end / steal / finish.
    fn process(&mut self, i: usize, step_idx: Option<(usize, Cycle)>) -> Effect {
        let Self {
            cfg,
            max_warps,
            rus,
            hier,
            plan,
            prims,
            bins,
            mech,
            states,
            out,
            unique,
            frame_end,
            front,
            tally,
        } = self;
        let max_warps = *max_warps;
        let mech = *mech;
        let n = states.len();
        let st = &mut states[i];

        let branch = select_branch(st, step_idx, max_warps);
        match branch {
            // 1) Step the earliest in-flight warp: it is the earliest event.
            Branch::Step => {
                let (idx, _) = step_idx.expect("Step branch implies a step candidate");
                let (core, done) = {
                    let InFlight { warp, exec, core } = &mut st.inflight[idx];
                    (*core, rus[i].step_warp_on(*core, warp, exec, hier))
                };
                let fills = rus[i].drain_fills_on(core);
                out.fill_lines += fills.len() as u64;
                fills.for_each(|line| unique.insert(line));
                if !done {
                    return Effect::Stepped { idx };
                }
                let was_full = !st.has_free_slot(max_warps);
                let f = st.inflight.swap_remove(idx);
                let o = f.exec.outcome;
                out.warps += 1;
                out.instructions += o.instructions;
                out.tex_requests += o.tex_requests;
                out.tex_latency_sum += o.tex_latency_sum;
                let tally = out.heatmap.tally_mut(f.warp.tile);
                tally.instructions += o.instructions;
                tally.dram_accesses += o.dram_accesses;
                tally.warps += 1;
                st.core_load[f.core] -= 1;
                if was_full {
                    st.slot_gate = st.slot_gate.max(o.completion);
                }
                st.tile_last = st.tile_last.max(o.completion);

                if st.pending.is_empty() && st.inflight.is_empty() {
                    // Fragment stage done: flush asynchronously (double-buffered
                    // Colour Buffer — the flush only gates the tile after next).
                    let tile = st.cur_tile.take().expect("warps imply a current tile");
                    let flush_start = st.tile_last;
                    out.drain_cycles += flush_start.saturating_sub(st.frag_start);
                    if trace::is_enabled() {
                        trace::span(
                            Track::RuFragment(i as u8),
                            format!("tile {}", tile.0),
                            st.frag_start,
                            flush_start,
                        );
                    }
                    let (flush_done, last_write, writes) =
                        rus[i].flush_tile(tile, &cfg.screen, flush_start, hier);
                    out.flush_cycles += flush_done - flush_start;
                    if trace::is_enabled() {
                        trace::span(
                            Track::RuFlush(i as u8),
                            format!("flush {}", tile.0),
                            flush_start,
                            flush_done,
                        );
                    }
                    out.heatmap.tally_mut(tile).dram_accesses += writes;
                    st.frag_gate = flush_start.max(st.last_flush_done);
                    st.last_flush_done = flush_done;
                    st.slot_gate = 0;
                    out.ru_finish[i] = out.ru_finish[i].max(last_write).max(flush_start);
                    *frame_end = (*frame_end).max(last_write).max(flush_start);
                }
                Effect::Retired { idx }
            }

            // 2) Admit a pending warp into a core slot.
            Branch::Admit => {
                let w = st
                    .pending
                    .pop_front()
                    .expect("Admit branch implies a pending warp");
                let start = w.arrival.max(st.frag_gate).max(st.slot_gate);
                let core = (0..st.core_load.len())
                    .filter(|&c| st.core_load[c] < max_warps)
                    .min_by_key(|&c| st.core_load[c])
                    .expect("Admit branch implies a free slot");
                st.slot_gate = 0;
                let exec = rus[i].begin_warp_on(core, start);
                st.core_load[core] += 1;
                st.inflight.push(InFlight {
                    warp: w,
                    exec,
                    core,
                });
                Effect::Admitted
            }

            // 3) Promote a parked tile into the (idle) fragment stage.
            Branch::Promote => {
                let r = st
                    .fe_ready
                    .take()
                    .expect("Promote branch implies a parked tile");
                let start = st.frag_gate.max(r.fe_done);
                // The front-end unit is free for the next tile from this moment.
                st.fe_time = st.fe_time.max(start);
                if r.warps.is_empty() {
                    // Empty tile: nothing to shade; flush the cleared Colour Buffer.
                    let (flush_done, last_write, writes) =
                        rus[i].flush_tile(r.tile, &cfg.screen, start, hier);
                    out.flush_cycles += flush_done - start;
                    if trace::is_enabled() {
                        trace::span(
                            Track::RuFlush(i as u8),
                            format!("flush {}", r.tile.0),
                            start,
                            flush_done,
                        );
                    }
                    out.heatmap.tally_mut(r.tile).dram_accesses += writes;
                    st.frag_gate = start.max(st.last_flush_done);
                    st.last_flush_done = flush_done;
                    out.ru_finish[i] = out.ru_finish[i].max(last_write);
                    *frame_end = (*frame_end).max(last_write);
                } else {
                    st.cur_tile = Some(r.tile);
                    st.pending = r.warps;
                    st.frag_start = start;
                    st.tile_last = start;
                }
                Effect::Other
            }

            // 4) Run the front-end of the next tile.
            Branch::FrontEnd => {
                debug_assert!(st.fe_ready.is_none(), "FrontEnd branch with a parked tile");
                if st.tiles.is_empty() && !st.no_more_groups {
                    match plan.next_group(RasterUnitId(i as u8)) {
                        Some(group) => st.tiles.extend(group),
                        None => {
                            // The plan is exhausted. The Tile Fetcher is work-conserving:
                            // tiles are independent (only primitives *within* a tile must
                            // stay on one RU), so an idle RU takes the tail of the busiest
                            // RU's queued tiles instead of idling out the frame.
                            let victim = (0..states.len())
                                .filter(|&j| j != i)
                                .max_by_key(|&j| states[j].tiles.len());
                            let stolen = match victim {
                                Some(j) if states[j].tiles.len() >= 2 => {
                                    let keep = states[j].tiles.len() / 2 + 1;
                                    states[j].tiles.split_off(keep)
                                }
                                _ => VecDeque::new(),
                            };
                            let st = &mut states[i];
                            if !stolen.is_empty() && trace::is_enabled() {
                                trace::instant_args(
                                    Track::Scheduler,
                                    "tile steal",
                                    st.fe_time,
                                    vec![
                                        ("thief", i.to_string()),
                                        (
                                            "victim",
                                            victim.expect("stolen implies victim").to_string(),
                                        ),
                                        ("tiles", stolen.len().to_string()),
                                    ],
                                );
                            }
                            if stolen.is_empty() {
                                st.no_more_groups = true;
                                let finish = st.fe_time.max(st.frag_gate).max(st.last_flush_done);
                                out.ru_finish[i] = out.ru_finish[i].max(finish);
                                *frame_end = (*frame_end).max(finish);
                            } else {
                                st.tiles = stolen;
                            }
                            ask_ahead(front, st.tiles.front().copied(), plan, n);
                            return Effect::Other;
                        }
                    }
                }
                if let Some(tile) = st.tiles.pop_front() {
                    let list = bins.list(tile);
                    let fe_start = st.fe_time;
                    // A tile the helper has prepared needs only the timed half.
                    let fe = match front.as_mut().and_then(|f| f.take(tile)) {
                        Some(raster) => {
                            tally.prepared += 1;
                            let fe = rus[i].issue_tile(&raster, st.fe_time, hier);
                            front.as_mut().expect("prepared by the helper").recycle(raster);
                            fe
                        }
                        None => {
                            tally.inline += 1;
                            rus[i].render_tile_front_end(
                                tile,
                                prims,
                                list,
                                &cfg.screen,
                                st.fe_time,
                                hier,
                            )
                        }
                    };
                    out.fe_cycles += fe.fe_done - st.fe_time;
                    if trace::is_enabled() {
                        trace::span_args(
                            Track::RuFrontEnd(i as u8),
                            format!("tile {}", tile.0),
                            fe_start,
                            fe.fe_done,
                            vec![
                                ("prims", list.len().to_string()),
                                ("fragments", fe.fragments.to_string()),
                                ("earlyz_killed", fe.earlyz_killed.to_string()),
                            ],
                        );
                    }
                    out.fragments += fe.fragments;
                    out.earlyz_killed += fe.earlyz_killed;
                    {
                        let tally = out.heatmap.tally_mut(tile);
                        tally.dram_accesses += fe.dram_accesses;
                        tally.fragments += fe.fragments;
                    }
                    st.fe_time = fe.fe_done;
                    let mut warps = fe.warps;
                    if mech.wasp {
                        // WaSP reorders the tile's warp queue at front-end
                        // completion. FrontEnd is a Shared branch in every
                        // driver (the par coordinator commits it serially),
                        // and the RU's texture stats at this event are
                        // bit-identical across drivers, so the reorder is too.
                        let d = tbr_raster::wasp::schedule_tile_warps(&rus[i], &mut warps);
                        if d.engaged {
                            out.wasp_engaged_tiles += 1;
                            out.wasp_spearhead_warps += d.spearhead;
                        }
                        if d.reordered {
                            out.wasp_reordered_tiles += 1;
                        }
                    }
                    st.fe_ready = Some(FeReady {
                        tile,
                        fe_done: fe.fe_done,
                        warps: warps.into(),
                    });
                }
                ask_ahead(front, st.tiles.front().copied(), plan, n);
                Effect::Other
            }
        }
    }
}

/// After a front-end event of a Raster Unit whose next queued tile is `next`,
/// asks the idle-core helper, if one runs, for what comes next: that tile,
/// and then, in the order the `rus` units will pull them, the first tile of
/// as many groups as there are buffers beyond one per unit.
fn ask_ahead(front: &mut Option<Prefetch>, next: Option<TileId>, plan: &FramePlan, rus: usize) {
    if let Some(f) = front {
        let heads = raster_helper::buffers(rus) - rus;
        next.into_iter()
            .chain(plan.upcoming(rus).take(heads))
            .for_each(|tile| f.want(tile));
    }
}

/// The legacy O(RUs × warps)-per-event linear scan — the behavioural oracle the
/// indexed driver is differentially tested against (`LIBRA_EVENT_LOOP=scan`).
fn drive_scan(ctx: &mut PhaseCtx) {
    loop {
        // Pick the RU with the earliest micro-event (strict `<`: lowest index
        // wins ties — the contract the heap driver's key order reproduces).
        let mut best: Option<(usize, Cycle)> = None;
        for (i, st) in ctx.states.iter().enumerate() {
            if let Some(t) = st.next_time(ctx.max_warps) {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        let Some((i, _event_time)) = best else {
            break; // all RUs done
        };
        let step_idx = earliest_step(&ctx.states[i]);
        ctx.out.events += 1;
        ctx.process(i, step_idx);
    }
}

/// The indexed next-event driver: a [`SlotMin`] over the RUs keyed `(next
/// event time, RU index)`, plus one per RU over its in-flight positions keyed
/// `(ready time, position)`. Lexicographic key order makes every selection
/// reproduce the scan's first-minimum tie-break exactly.
///
/// Invariants the [`Effect`] bookkeeping maintains:
/// * slot `k` of RU *i*'s warp tree holds the ready time of `inflight[k]`,
///   and the slots past the last in-flight warp are empty (an RU holds at
///   most `cores_per_ru × max_warps_per_core` warps in flight);
/// * slot *i* of the RU tree holds RU *i*'s current `next_time`. Processing
///   RU *i* never changes another RU's `next_time` (tile stealing leaves the
///   victim's candidate set untouched: the victim keeps a non-empty tile
///   queue), so only RU *i* is recomputed per event.
fn drive_heap(ctx: &mut PhaseCtx) {
    let max_warps = ctx.max_warps;
    let slots = ctx.cfg.cores_per_ru * max_warps;
    let mut warps: Vec<SlotMin> = ctx.states.iter().map(|_| SlotMin::new(slots)).collect();
    let mut rus = SlotMin::new(ctx.states.len());
    for (i, st) in ctx.states.iter().enumerate() {
        rus.set(i, st.next_time(max_warps));
    }

    while let Some((_, i)) = rus.min() {
        let step_idx = warps[i].min().map(|(t, k)| (k, t));
        ctx.out.events += 1;
        let effect = ctx.process(i, step_idx);

        let (wq, st) = (&mut warps[i], &ctx.states[i]);
        let ready = |k: usize| st.inflight.get(k).map(|f| f.exec.ready_at());
        match effect {
            Effect::Stepped { idx } => wq.set(idx, ready(idx)),
            Effect::Retired { idx } => {
                // swap_remove moved the former last warp, if any, into `idx`.
                wq.set(idx, ready(idx));
                wq.set(st.inflight.len(), None);
            }
            Effect::Admitted => {
                let idx = st.inflight.len() - 1;
                wq.set(idx, ready(idx));
            }
            Effect::Other => {}
        }
        let warp = wq.min().map(|(t, _)| t);
        rus.set(i, earliest(st.non_warp_min(max_warps), warp));
    }
}

/// How RU `i`'s next micro-event relates to shared simulation state — the
/// partitioning decision at the heart of [`drive_par`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// No next event: the RU has finished the frame.
    Done,
    /// The event reads and writes only the RU's own state (plus its private
    /// per-core L1s): a warp step whose stage lines are all L1-resident and
    /// whose retirement would not complete the tile, a warp admission, or the
    /// promotion of a non-empty tile. Safe to run on a worker thread.
    Local,
    /// The event touches shared state — the L2/DRAM hierarchy, the frame
    /// plan, other RUs' tile queues (stealing), or the trace stream — and must
    /// be committed serially by the coordinator in canonical `(time, RU)`
    /// order.
    Shared { time: Cycle },
}

/// Classifies RU `i`'s next micro-event. Branch selection goes through the
/// same [`select_branch`] that [`PhaseCtx::process`] executes, so the
/// classification cannot disagree with what processing the event would do.
fn classify(st: &RuState, ru: &RasterUnit, ideal: bool, max_warps: usize) -> Class {
    let Some(time) = st.next_time(max_warps) else {
        return Class::Done;
    };
    let step = earliest_step(st);
    let local = match select_branch(st, step, max_warps) {
        Branch::Step => {
            let (idx, _) = step.expect("Step branch implies a step candidate");
            let f = &st.inflight[idx];
            let resident = ru.warp_step_is_resident(f.core, &f.warp, &f.exec, ideal);
            let retires = ru.warp_step_retires(&f.warp, &f.exec);
            let would_flush = retires && st.pending.is_empty() && st.inflight.len() == 1;
            resident && !would_flush
        }
        Branch::Admit => true,
        // An empty tile's promotion immediately flushes the Colour Buffer
        // through the shared hierarchy.
        Branch::Promote => !st
            .fe_ready
            .as_ref()
            .expect("Promote branch implies a parked tile")
            .warps
            .is_empty(),
        Branch::FrontEnd => false,
    };
    if local {
        Class::Local
    } else {
        Class::Shared { time }
    }
}

/// Per-thread accumulation for Local events: the same frame-wide counters
/// [`PhaseCtx::process`] writes, kept private to one thread during an epoch
/// and merged commutatively at the end of the phase (sums, element-wise
/// heatmap adds, set union) — so the merged totals are independent of how the
/// Local RUs were distributed over threads.
struct ParScratch {
    out: RasterPhaseResult,
    /// Local events drained per RU (hostprof occupancy telemetry). Plain
    /// integer adds per *run*, so it stays on even when profiling is off.
    ru_events: Vec<u64>,
    /// Local-run-length histogram: width-1 buckets, last bucket overflow.
    run_lengths: Vec<u64>,
}

impl ParScratch {
    fn new(num_tiles: usize, num_rus: usize) -> Self {
        Self {
            out: RasterPhaseResult {
                heatmap: TileHeatmap::new(num_tiles),
                ..RasterPhaseResult::default()
            },
            ru_events: vec![0; num_rus],
            run_lengths: vec![0; RUN_LENGTH_BUCKETS],
        }
    }

    /// Accounts one completed Local run of `events` micro-events on RU `idx`.
    fn note_run(&mut self, idx: usize, events: u64) {
        if events == 0 {
            return;
        }
        self.ru_events[idx] += events;
        self.run_lengths[(events as usize).min(RUN_LENGTH_BUCKETS - 1)] += 1;
    }
}

/// Folds one thread's scratch into the shared phase result. Local steps are
/// resident, so they fill no line: fills are counted at Shared commits only.
fn absorb_scratch(ctx: &mut PhaseCtx, s: ParScratch) {
    let o = s.out;
    ctx.out.warps += o.warps;
    ctx.out.instructions += o.instructions;
    ctx.out.tex_requests += o.tex_requests;
    ctx.out.tex_latency_sum += o.tex_latency_sum;
    ctx.out.events += o.events;
    for (dst, src) in ctx.out.heatmap.tiles.iter_mut().zip(o.heatmap.tiles) {
        dst.dram_accesses += src.dram_accesses;
        dst.instructions += src.instructions;
        dst.fragments += src.fragments;
        dst.warps += src.warps;
    }
}

/// Runs RU `i`'s maximal run of Local events, stopping at the first Shared
/// event (left parked for the coordinator) or when the RU has nothing left.
/// Exactly the Local arms of [`PhaseCtx::process`] — same [`select_branch`],
/// same bookkeeping — with the frame-wide counters written to `scratch`
/// instead of the shared result, and the resident-step fast path
/// ([`RasterUnit::step_warp_on_resident`]) in place of the hierarchy step.
fn drain_local(
    ru: &mut RasterUnit,
    st: &mut RuState,
    scratch: &mut ParScratch,
    gate: &mut Cycle,
    idx: usize,
    max_warps: usize,
    ideal: bool,
) {
    let run_start = scratch.out.events;
    while let Some(nt) = st.next_time(max_warps) {
        let step = earliest_step(st);
        let branch = select_branch(st, step, max_warps);
        match branch {
            Branch::Step => {
                let (idx, _) = step.expect("Step branch implies a step candidate");
                let (resident, retires) = {
                    let f = &st.inflight[idx];
                    (
                        ru.warp_step_is_resident(f.core, &f.warp, &f.exec, ideal),
                        ru.warp_step_retires(&f.warp, &f.exec),
                    )
                };
                let would_flush = retires && st.pending.is_empty() && st.inflight.len() == 1;
                if !resident || would_flush {
                    break; // Shared: park for the coordinator
                }
                *gate = (*gate).max(nt);
                scratch.out.events += 1;
                let done = {
                    let InFlight { warp, exec, core } = &mut st.inflight[idx];
                    ru.step_warp_on_resident(*core, warp, exec, ideal)
                };
                debug_assert_eq!(done, retires, "step_retires mispredicted a step");
                if !done {
                    continue;
                }
                let was_full = !st.has_free_slot(max_warps);
                let f = st.inflight.swap_remove(idx);
                let o = f.exec.outcome;
                scratch.out.warps += 1;
                scratch.out.instructions += o.instructions;
                scratch.out.tex_requests += o.tex_requests;
                scratch.out.tex_latency_sum += o.tex_latency_sum;
                let tally = scratch.out.heatmap.tally_mut(f.warp.tile);
                tally.instructions += o.instructions;
                tally.dram_accesses += o.dram_accesses;
                tally.warps += 1;
                st.core_load[f.core] -= 1;
                if was_full {
                    st.slot_gate = st.slot_gate.max(o.completion);
                }
                st.tile_last = st.tile_last.max(o.completion);
                debug_assert!(
                    !(st.pending.is_empty() && st.inflight.is_empty()),
                    "a Local retirement completed the tile (flush is Shared)"
                );
            }
            Branch::Admit => {
                *gate = (*gate).max(nt);
                scratch.out.events += 1;
                let w = st
                    .pending
                    .pop_front()
                    .expect("Admit branch implies a pending warp");
                let start = w.arrival.max(st.frag_gate).max(st.slot_gate);
                let core = (0..st.core_load.len())
                    .filter(|&c| st.core_load[c] < max_warps)
                    .min_by_key(|&c| st.core_load[c])
                    .expect("Admit branch implies a free slot");
                st.slot_gate = 0;
                let exec = ru.begin_warp_on(core, start);
                st.core_load[core] += 1;
                st.inflight.push(InFlight {
                    warp: w,
                    exec,
                    core,
                });
            }
            Branch::Promote => {
                let parked = st
                    .fe_ready
                    .as_ref()
                    .expect("Promote branch implies a parked tile");
                if parked.warps.is_empty() {
                    break; // empty tile: the promotion flushes — Shared
                }
                *gate = (*gate).max(nt);
                scratch.out.events += 1;
                let r = st.fe_ready.take().expect("checked above");
                let start = st.frag_gate.max(r.fe_done);
                st.fe_time = st.fe_time.max(start);
                st.cur_tile = Some(r.tile);
                st.pending = r.warps;
                st.frag_start = start;
                st.tile_last = start;
            }
            Branch::FrontEnd => break, // always Shared
        }
    }
    scratch.note_run(idx, scratch.out.events - run_start);
}

/// [`drain_local`] through the context (the coordinator's inline path).
fn drain_local_inline(ctx: &mut PhaseCtx, i: usize, scratch: &mut ParScratch, gate: &mut Cycle) {
    let ideal = ctx.hier.ideal;
    let max_warps = ctx.max_warps;
    let PhaseCtx { rus, states, .. } = ctx;
    drain_local(&mut rus[i], &mut states[i], scratch, gate, i, max_warps, ideal);
}

/// Classifies RU `i`'s next event and parks it: Local RUs go on the epoch's
/// drain list; a Shared event goes into RU `i`'s slot of the parking tree
/// keyed `(gate ⊔ raw time, RU index)` — the serial drivers' pop order (see
/// [`drive_par`] for why the gate, the running maximum of the RU's pop keys,
/// is the correct merge key for back-dated events).
fn park(ctx: &PhaseCtx, i: usize, gate: Cycle, parked: &mut SlotMin, locals: &mut Vec<usize>) {
    match classify(&ctx.states[i], &ctx.rus[i], ctx.hier.ideal, ctx.max_warps) {
        Class::Done => {}
        Class::Local => locals.push(i),
        Class::Shared { time } => parked.set(i, Some(gate.max(time))),
    }
}

/// Host-time accumulator for one [`drive_par`] phase, feeding
/// [`tbr_common::hostprof`]. Plain counters (epoch/commit tallies, per-RU
/// Shared counts) stay on unconditionally — integer adds per epoch or per
/// commit, invisible next to the work they count. Everything touching the host
/// clock (`Instant::now`) or allocating spans is gated on `on`, which is read
/// once per phase from [`hostprof::is_enabled`], so the disabled path adds a
/// single branch per timed block and no clock reads at all.
struct ParProf {
    on: bool,
    origin: Instant,
    commit_ns: u64,
    coord_drain_ns: u64,
    barrier_ns: u64,
    epochs: u64,
    parallel_epochs: u64,
    /// Shared commits per RU (summed with the scratches' Local counts into
    /// the occupancy histogram).
    ru_shared: Vec<u64>,
    /// The coordinator's own drain lane (spans recorded per parallel epoch).
    coord: WorkerLane,
}

impl ParProf {
    fn new(num_rus: usize, on: bool) -> Self {
        Self {
            on,
            // Share the collector's origin so worker lanes, coordinator lane
            // and phase offsets all sit on one time base across phases.
            origin: hostprof::origin().unwrap_or_else(Instant::now),
            commit_ns: 0,
            coord_drain_ns: 0,
            barrier_ns: 0,
            epochs: 0,
            parallel_epochs: 0,
            ru_shared: vec![0; num_rus],
            coord: WorkerLane::new(0),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Nanoseconds since `origin` — the worker threads' clock (they hold a copy of
/// the coordinator's origin instant, not the thread-local collector).
#[inline]
fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Epoch drain strategy for [`par_commit_loop`]: advance every RU in the given
/// index list (all classified Local) to its Shared frontier, folding results
/// into the context and raising each RU's gate as it goes. The [`ParProf`] is
/// threaded through so the strategy can time itself without capturing the
/// profiler (which the loop also borrows).
type EpochDrain<'c> = dyn FnMut(&mut PhaseCtx, &mut [Cycle], &[usize], &mut ParProf) + 'c;

/// The coordinator's commit loop, shared by the single-threaded and threaded
/// configurations of [`drive_par`] (only the epoch `drain` strategy differs).
///
/// Invariant: every unfinished RU is in exactly one place — the `locals` drain
/// list or its `parked` slot. Each iteration first drains all Local runs
/// (they commute — see [`drive_par`]), re-parking each drained RU at its
/// Shared frontier, then commits the single earliest parked Shared event in
/// `(gate ⊔ time, RU)` order — exactly the serial drivers' pop order over
/// Shared events (see [`drive_par`]).
fn par_commit_loop(
    ctx: &mut PhaseCtx,
    gates: &mut [Cycle],
    parked: &mut SlotMin,
    locals: &mut Vec<usize>,
    prof: &mut ParProf,
    drain: &mut EpochDrain<'_>,
) {
    loop {
        while !locals.is_empty() {
            prof.epochs += 1;
            drain(ctx, gates, locals, prof);
            let drained = std::mem::take(locals);
            for i in drained {
                park(ctx, i, gates[i], parked, locals);
            }
            debug_assert!(locals.is_empty(), "drain_local left an RU Local");
        }
        let t0 = if prof.on { prof.now_ns() } else { 0 };
        let Some((g, i)) = parked.min() else {
            break; // no Local work, no parked Shared events: all RUs done
        };
        parked.set(i, None);
        gates[i] = g; // g = gate.max(raw) from park — the serial pop key
        let step_idx = earliest_step(&ctx.states[i]);
        ctx.out.events += 1;
        ctx.process(i, step_idx);
        park(ctx, i, gates[i], parked, locals);
        prof.ru_shared[i] += 1;
        if prof.on {
            prof.commit_ns += prof.now_ns() - t0;
        }
    }
}

/// A raw handle to one RU's mutable simulation state, parceled out to exactly
/// one thread for one epoch.
struct RuPtr {
    ru: *mut RasterUnit,
    st: *mut RuState,
    gate: *mut Cycle,
    /// Global RU index, for the per-RU occupancy telemetry.
    idx: usize,
}

// Safety: an `RuPtr` is dereferenced only by the thread whose epoch chunk it
// was placed in (see [`Exchange`]), so moving it across threads is sound.
unsafe impl Send for RuPtr {}

/// The epoch assignment table shared between the coordinator and its workers.
///
/// Slot `w` holds the chunk of Local RUs thread `w` drains this epoch (slot 0
/// is the coordinator's own chunk).
///
/// # Safety protocol
/// All access is phased by the two [`Barrier`]s in [`drive_par`]:
/// * between an end barrier and the next start barrier the workers are parked,
///   and the coordinator has exclusive access to the table and to every RU;
/// * between a start barrier and the matching end barrier each thread reads
///   only its own slot and dereferences only the [`RuPtr`]s in it — the slots
///   partition the epoch's Local RUs, so no RU is reachable from two threads.
///
/// The barriers establish the happens-before edges that make the handoff of
/// the table contents (and of the RU state behind the pointers) data-race
/// free.
struct Exchange {
    assign: UnsafeCell<Vec<Vec<RuPtr>>>,
}

// Safety: see the protocol above — the barrier discipline rules out
// concurrent conflicting access through the cell.
unsafe impl Sync for Exchange {}

impl Exchange {
    fn new(slots: usize) -> Self {
        Self {
            assign: UnsafeCell::new((0..slots).map(|_| Vec::new()).collect()),
        }
    }
}

/// The intra-frame parallel driver (`LIBRA_EVENT_LOOP=par`): the event core
/// sharded by Raster Unit, advanced in epochs and merged bit-identically to
/// [`drive_heap`].
///
/// **Why the result is bit-identical to the serial drivers.** Every micro-
/// event is classified ([`classify`]) as Local or Shared via the same branch
/// selector the executor uses. Local events read and write only their RU's
/// private state, so runs of Local events on *different* RUs commute: running
/// them concurrently (or in any serial order) yields the same per-RU state
/// and the same commutatively-merged counters. Within one RU, events always
/// run in the serial order ([`drain_local`] is a strictly sequential loop that
/// parks at the first Shared event).
///
/// Shared events are committed one at a time by the coordinator in
/// `(gate, RU index)` order, where an RU's *gate* is the running maximum of
/// its pop keys (each event's `next_time` at selection) and a parked event's
/// gate is `gate ⊔ its own raw time`. The gate — not the raw time — is the
/// serial merge key because per-RU pop keys are **not monotone**: a tile
/// promotion or a freed warp slot can expose *back-dated* work (an event whose
/// `next_time` is earlier than the event that revealed it). The serial drivers
/// merge on each RU's *current head*, so back-dated events stay hidden behind
/// the later-keyed event that drags them — RU `i`'s head sits at the drag key
/// `k` until every other RU's head reaches `k`, and only then does the
/// back-dated run pop. Merging parked events by `(gate, RU)` reproduces this
/// exactly: an inductive reachability argument shows two parked heads can
/// disagree between raw-key order and gate order only in states the serial
/// merge can never reach (for RU `i`'s gate to exceed RU `j`'s, `j`'s head
/// must already have passed `i`'s gate-opening key), and on gate ties the
/// RU-index tie-break matches the serial drivers' — the gate-opening events
/// tie at the same raw key, and each RU's dragged run pops immediately after
/// its own opener. Committing one RU's event never changes another RU's next
/// event (the invariant [`drive_heap`] already relies on), so the Shared
/// commit sequence equals the serial drivers' Shared subsequence. Since all
/// contention-carrying state (L2/DRAM, frame plan, trace stream, steal
/// targets) is touched only by Shared events, in the same order with the same
/// inputs, every counter, timestamp, and trace record matches the serial loop
/// bit-for-bit — the epoch *horizon* (the earliest parked Shared gate) only
/// bounds when threads synchronise, never what they compute.
///
/// Threading: `threads <= 1` runs everything inline with zero spawns.
/// Otherwise one [`std::thread::scope`] hosts `threads - 1` persistent
/// workers; each epoch with two or more Local RUs round-robins them over the
/// thread slots through the [`Exchange`] table between a start and an end
/// [`Barrier`], and the coordinator (always the main thread — trace emission
/// stays thread-invariant) drains slot 0. Traces are only ever written from
/// Shared commits on the coordinator, so trace streams are identical at every
/// thread count.
fn drive_par(ctx: &mut PhaseCtx, threads: usize, profile: Option<&mut PhaseProfile>) {
    let n = ctx.states.len();
    let slots = threads.max(1).min(n.max(1));
    let num_tiles = ctx.cfg.screen.num_tiles();
    let mut prof = ParProf::new(n, profile.is_some());

    let mut parked = SlotMin::new(n);
    let mut locals: Vec<usize> = Vec::new();
    let mut gates: Vec<Cycle> = vec![0; n];
    for i in 0..n {
        park(ctx, i, 0, &mut parked, &mut locals);
    }

    if slots <= 1 {
        let mut scratch = ParScratch::new(num_tiles, n);
        par_commit_loop(
            ctx,
            &mut gates,
            &mut parked,
            &mut locals,
            &mut prof,
            &mut |ctx, gates, ls, prof| {
                let t0 = if prof.on { prof.now_ns() } else { 0 };
                for &i in ls {
                    drain_local_inline(ctx, i, &mut scratch, &mut gates[i]);
                }
                if prof.on {
                    prof.coord_drain_ns += prof.now_ns() - t0;
                }
            },
        );
        if let Some(p) = profile {
            fill_par_profile(p, prof, slots, &[&scratch], Vec::new());
        }
        absorb_scratch(ctx, scratch);
        return;
    }

    let done = AtomicBool::new(false);
    let start = Barrier::new(slots);
    let end = Barrier::new(slots);
    let exchange = Exchange::new(slots);
    let ideal = ctx.hier.ideal;
    let max_warps = ctx.max_warps;
    let prof_on = prof.on;
    let origin = prof.origin;
    let mut coord_scratch = ParScratch::new(num_tiles, n);

    let worker_results: Vec<(ParScratch, WorkerLane)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..slots)
            .map(|w| {
                let (exchange, start, end, done) = (&exchange, &start, &end, &done);
                let mut scratch = ParScratch::new(num_tiles, n);
                s.spawn(move || {
                    let mut lane = WorkerLane::new(w);
                    loop {
                        start.wait();
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let t1 = if prof_on { ns_since(origin) } else { 0 };
                        // Safety: between the start and end barriers slot `w`
                        // is exclusively this worker's ([`Exchange`] protocol).
                        unsafe {
                            let assign: &Vec<Vec<RuPtr>> = &*exchange.assign.get();
                            for p in &assign[w] {
                                drain_local(
                                    &mut *p.ru,
                                    &mut *p.st,
                                    &mut scratch,
                                    &mut *p.gate,
                                    p.idx,
                                    max_warps,
                                    ideal,
                                );
                            }
                        }
                        if prof_on {
                            let t2 = ns_since(origin);
                            lane.epochs += 1;
                            lane.push_span("epoch", t1, t2);
                        }
                        end.wait();
                    }
                    lane.local_events = scratch.out.events;
                    (scratch, lane)
                })
            })
            .collect();

        par_commit_loop(
            ctx,
            &mut gates,
            &mut parked,
            &mut locals,
            &mut prof,
            &mut |ctx, gates, ls, prof| {
                if ls.len() < 2 {
                    let t0 = if prof.on { prof.now_ns() } else { 0 };
                    for &i in ls {
                        drain_local_inline(ctx, i, &mut coord_scratch, &mut gates[i]);
                    }
                    if prof.on {
                        prof.coord_drain_ns += prof.now_ns() - t0;
                    }
                    return;
                }
                prof.parallel_epochs += 1;
                // Parallel epoch: round-robin the Local RUs over the slots,
                // then release the workers. The pointers are taken fresh from
                // the context each epoch and die at the end barrier.
                let rp = ctx.rus.as_mut_ptr();
                let sp = ctx.states.as_mut_ptr();
                let gp = gates.as_mut_ptr();
                // Safety: the workers are parked at the start barrier, so the
                // coordinator owns the table; each RU lands in exactly one
                // slot.
                unsafe {
                    let assign = &mut *exchange.assign.get();
                    for v in assign.iter_mut() {
                        v.clear();
                    }
                    for (k, &i) in ls.iter().enumerate() {
                        assign[k % slots].push(RuPtr {
                            ru: rp.add(i),
                            st: sp.add(i),
                            gate: gp.add(i),
                            idx: i,
                        });
                    }
                }
                let tb0 = if prof.on { prof.now_ns() } else { 0 };
                start.wait();
                let td0 = if prof.on { prof.now_ns() } else { 0 };
                // Safety: slot 0 is the coordinator's exclusive chunk this
                // epoch.
                unsafe {
                    let assign: &Vec<Vec<RuPtr>> = &*exchange.assign.get();
                    for p in &assign[0] {
                        drain_local(
                            &mut *p.ru,
                            &mut *p.st,
                            &mut coord_scratch,
                            &mut *p.gate,
                            p.idx,
                            max_warps,
                            ideal,
                        );
                    }
                }
                let td1 = if prof.on { prof.now_ns() } else { 0 };
                end.wait();
                if prof.on {
                    let tb1 = prof.now_ns();
                    prof.coord_drain_ns += td1 - td0;
                    prof.barrier_ns += (td0 - tb0) + (tb1 - td1);
                    prof.coord.epochs += 1;
                    prof.coord.push_span("epoch", td0, td1);
                }
            },
        );

        done.store(true, Ordering::Release);
        start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel raster worker panicked"))
            .collect()
    });

    if let Some(p) = profile {
        let scratches: Vec<&ParScratch> = std::iter::once(&coord_scratch)
            .chain(worker_results.iter().map(|(s, _)| s))
            .collect();
        let lanes: Vec<WorkerLane> = worker_results.iter().map(|(_, l)| l.clone()).collect();
        fill_par_profile(p, prof, slots, &scratches, lanes);
    }

    absorb_scratch(ctx, coord_scratch);
    for (s, _) in worker_results {
        absorb_scratch(ctx, s);
    }
}

/// Fills the par driver's fields of the phase's [`PhaseProfile`] from the
/// commit-loop profiler and every thread's scratch (coordinator first). Only
/// called when profiling is enabled; pure observation — nothing here feeds
/// back into simulated state.
fn fill_par_profile(
    p: &mut PhaseProfile,
    prof: ParProf,
    slots: usize,
    scratches: &[&ParScratch],
    workers: Vec<WorkerLane>,
) {
    p.threads = slots;
    p.commit_ns = prof.commit_ns;
    p.coord_drain_ns = prof.coord_drain_ns;
    p.barrier_ns = prof.barrier_ns;
    p.epochs = prof.epochs;
    p.parallel_epochs = prof.parallel_epochs;
    p.shared_commits = prof.ru_shared.iter().sum();
    for (dst, src) in p.ru_events.iter_mut().zip(&prof.ru_shared) {
        *dst += src;
    }
    for s in scratches {
        p.local_events += s.out.events;
        for (dst, src) in p.ru_events.iter_mut().zip(&s.ru_events) {
            *dst += src;
        }
        for (dst, src) in p.run_lengths.iter_mut().zip(&s.run_lengths) {
            *dst += src;
        }
    }
    p.coord = prof.coord;
    p.coord.local_events = scratches.first().map_or(0, |s| s.out.events);
    p.workers = workers;
}

/// Runs the raster phase from cycle 0 until every tile in `plan` has been rendered
/// and flushed. The event loop driver is selected per [`event_loop::mode`]; all
/// drivers produce bit-identical results. `mech` selects the optional mechanism
/// axis: with `wasp` enabled each tile's warp queue is re-ordered (spearhead +
/// criticality) at front-end completion; `re` does not act here — eliminated
/// tiles were already filtered out of `plan`.
///
/// When more than one CPU is available (read once per process) and the plan
/// holds at least 2 tiles, an idle-priority helper thread runs beside the
/// event loop for the phase and rasterises the tiles it will need next: each
/// RU's next queued tile and the first tile of the groups the RUs pull next,
/// in pull order ([`FramePlan::upcoming`]). The event loop issues a prepared
/// tile when one has arrived and otherwise rasterises the tile itself; it
/// never waits for the helper, and a prepared tile equals the one it would
/// make, so the result is the same with the helper or without.
pub fn run_raster_phase(
    cfg: &GpuConfig,
    rus: &mut [RasterUnit],
    hier: &mut MemoryHierarchy,
    plan: &mut FramePlan,
    prims: &TriangleStream,
    bins: &TileBins,
    mech: MechanismSpec,
) -> RasterPhaseResult {
    let opts = PhaseOpts {
        mode: event_loop::mode(),
        threads: event_loop::sim_threads(),
        helper: raster_helper::available_cpus() > 1 && plan.remaining_tiles() >= 2,
    };
    run_phase(cfg, rus, hier, plan, prims, bins, mech, opts)
}

/// How [`run_phase`] runs: the event-loop driver, the par driver's thread
/// count, and whether the idle-core helper runs beside it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseOpts {
    pub mode: EventLoopMode,
    pub threads: usize,
    pub helper: bool,
}

/// [`run_raster_phase`] with its driver and helper chosen by the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_phase(
    cfg: &GpuConfig,
    rus: &mut [RasterUnit],
    hier: &mut MemoryHierarchy,
    plan: &mut FramePlan,
    prims: &TriangleStream,
    bins: &TileBins,
    mech: MechanismSpec,
    opts: PhaseOpts,
) -> RasterPhaseResult {
    let ru_count = rus.len();
    let mut profile = hostprof::is_enabled().then(|| {
        let mut p = PhaseProfile::new("raster", 1, ru_count);
        p.start_ns = host_ns();
        p
    });
    let timed = profile.is_some();
    let states: Vec<RuState> = rus
        .iter()
        .map(|ru| RuState {
            tiles: VecDeque::new(),
            fe_ready: None,
            fe_time: 0,
            pending: VecDeque::new(),
            inflight: Vec::new(),
            core_load: vec![0; ru.num_cores()],
            slot_gate: 0,
            cur_tile: None,
            frag_gate: 0,
            last_flush_done: 0,
            frag_start: 0,
            tile_last: 0,
            no_more_groups: false,
        })
        .collect();
    let drive = |front: Option<Prefetch<'_>>| {
        let mut ctx = PhaseCtx {
            cfg,
            max_warps: cfg.max_warps_per_core,
            rus,
            hier,
            plan,
            prims,
            bins,
            mech,
            states,
            out: RasterPhaseResult {
                heatmap: TileHeatmap::new(cfg.screen.num_tiles()),
                ru_finish: vec![0; ru_count],
                ..RasterPhaseResult::default()
            },
            unique: UniqueLines::new(cfg.texture_cache.line_bytes),
            frame_end: 0,
            front,
            tally: TileTally::default(),
        };
        match opts.mode {
            EventLoopMode::Heap => drive_heap(&mut ctx),
            EventLoopMode::Scan => drive_scan(&mut ctx),
            EventLoopMode::Par => drive_par(&mut ctx, opts.threads, profile.as_mut()),
        }
        let discarded = ctx.front.as_ref().map_or(0, |f| f.discarded);
        let mut out = ctx.out;
        out.unique_lines = ctx.unique.len();
        out.raster_cycles = ctx.frame_end;
        (out, ctx.tally, discarded)
    };
    let ((out, tally, discarded), helper_busy_ns) = if opts.helper {
        let buffers = raster_helper::buffers(ru_count);
        raster_helper::with_helper(cfg, prims, bins, buffers, timed, None, |f| drive(Some(f)))
    } else {
        (drive(None), 0)
    };

    if let Some(mut p) = profile {
        p.wall_ns = host_ns().saturating_sub(p.start_ns);
        p.driver = opts.mode.name();
        p.helper = opts.helper;
        p.tiles_prepared = tally.prepared;
        p.tiles_inline = tally.inline;
        p.tiles_discarded = discarded;
        p.helper_busy_ns = helper_busy_ns;
        hostprof::record_phase(p);
    }
    out
}

/// Nanoseconds since the hostprof origin (0 when profiling is off).
fn host_ns() -> u64 {
    hostprof::origin().map_or(0, ns_since)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry_phase::run_geometry_phase;
    use libra::elimination::ReCache;
    use libra::feedback::FrameFeedback;
    use libra::scheduler::SchedulerKind;
    use tbr_common::config::ScreenConfig;
    use tbr_common::stats::CacheStats;
    use tbr_geom::pipeline::process_scene_stream;
    use tbr_mem::hierarchy::L1Cache;
    use tbr_tiling::binner::bin_stream;
    use tbr_tiling::signature::frame_signatures;
    use tbr_workloads::{suite, SceneGenerator};

    fn run(cfg: &GpuConfig, kind: SchedulerKind) -> RasterPhaseResult {
        run_mech(cfg, kind, MechanismSpec::default())
    }

    fn run_mech(cfg: &GpuConfig, kind: SchedulerKind, mech: MechanismSpec) -> RasterPhaseResult {
        let p = suite().remove(0);
        let scene = SceneGenerator::new(&p, &cfg.screen).scene(0);
        let (tris, _) = process_scene_stream(&scene, &cfg.screen);
        let bins = bin_stream(&tris, &cfg.screen);
        let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
        hier.ideal = cfg.ideal_memory;
        let mut rus: Vec<RasterUnit> = (0..cfg.num_raster_units)
            .map(|_| RasterUnit::new(cfg))
            .collect();
        let mut sched = kind.build();
        let mut plan = sched.plan_frame(&cfg.screen, None);
        run_raster_phase(cfg, &mut rus, &mut hier, &mut plan, &tris, &bins, mech)
    }

    #[test]
    fn scan_heap_and_par_drivers_agree_bit_for_bit() {
        // The crate-level face of the differential oracle: the full phase
        // result (timing, heatmap, every counter) must be identical under
        // all three drivers, and under `par` at every thread count.
        // `tests/parallel_core_diff.rs` widens this to whole simulated
        // sequences.
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        for kind in [SchedulerKind::Libra, SchedulerKind::Scanline] {
            event_loop::set_mode(Some(EventLoopMode::Scan));
            let scan = run(&cfg, kind);
            event_loop::set_mode(Some(EventLoopMode::Heap));
            let heap = run(&cfg, kind);
            event_loop::set_mode(Some(EventLoopMode::Par));
            for threads in [1usize, 2, 4] {
                event_loop::set_sim_threads(Some(threads));
                let par = run(&cfg, kind);
                assert_eq!(heap, par, "par@{threads} diverged under {kind:?}");
            }
            event_loop::set_sim_threads(None);
            event_loop::set_mode(None);
            assert_eq!(scan, heap, "drivers diverged under {kind:?}");
            assert!(scan.events > 0);
        }
    }

    #[test]
    fn wasp_reorders_warps_yet_drivers_still_agree_bit_for_bit() {
        // The WaSP reorder happens at FrontEnd events, which are Shared in
        // every driver, so the mechanism must not break scan ≡ heap ≡ par.
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let mech = MechanismSpec::parse("wasp").unwrap();
        event_loop::set_mode(Some(EventLoopMode::Scan));
        let scan = run_mech(&cfg, SchedulerKind::Libra, mech);
        event_loop::set_mode(Some(EventLoopMode::Heap));
        let heap = run_mech(&cfg, SchedulerKind::Libra, mech);
        event_loop::set_mode(Some(EventLoopMode::Par));
        for threads in [1usize, 2, 4] {
            event_loop::set_sim_threads(Some(threads));
            let par = run_mech(&cfg, SchedulerKind::Libra, mech);
            assert_eq!(heap, par, "wasp par@{threads} diverged");
        }
        event_loop::set_sim_threads(None);
        event_loop::set_mode(None);
        assert_eq!(scan, heap, "wasp drivers diverged");
        assert!(scan.wasp_engaged_tiles > 0, "wasp never engaged on a cold cache");
        assert!(scan.wasp_spearhead_warps > 0);
        // Same functional work as the mechanism-off run, different timing axis.
        let base = run(&cfg, SchedulerKind::Libra);
        assert_eq!(base.fragments, scan.fragments);
        assert_eq!(base.wasp_engaged_tiles, 0, "counters must stay 0 when off");
    }

    /// Runs `frames` frames of `title` on `rus` Raster Units as the simulator
    /// does (LIBRA's feedback plans, RE's discards) and, at every frame, runs
    /// the raster phase from the same state under scan, heap and par@2, each
    /// with the idle-core helper forced off and on: the six results must be
    /// one. Each phase's host profile must account for every tile of the
    /// plan once, prepared by the helper or rasterised inline.
    fn helper_changes_no_phase(
        title: &str,
        kind: SchedulerKind,
        mech: MechanismSpec,
        rus: usize,
        frames: u32,
    ) {
        let screen = ScreenConfig { width: 128, height: 64, tile_size: 16 };
        let cfg = GpuConfig::libra(screen, rus);
        let p = suite().into_iter().find(|p| p.abbrev == title).expect("a suite title");
        let gen = SceneGenerator::new(&p, &cfg.screen);
        let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
        let mut vertex_l1 = L1Cache::new(cfg.vertex_cache);
        let mut units: Vec<RasterUnit> = (0..rus).map(|_| RasterUnit::new(&cfg)).collect();
        let mut sched = kind.build();
        let mut re = ReCache::new();
        let mut feedback: Option<FrameFeedback> = None;
        for frame in 0..frames {
            let geo = run_geometry_phase(&cfg, &mut vertex_l1, &mut hier, &gen.scene(frame));
            vertex_l1.end_frame();
            hier.end_frame();
            let mut plan = sched.plan_frame(&cfg.screen, feedback.as_ref());
            if mech.re {
                let sigs = frame_signatures(&geo.tris, &geo.bins, false);
                let decision = re.observe(sigs.sigs, sigs.words);
                plan.retain_tiles(|t| !decision.matched[t.index()]);
            }
            let mut first: Option<(RasterPhaseResult, Vec<RasterUnit>, MemoryHierarchy)> = None;
            for mode in [EventLoopMode::Scan, EventLoopMode::Heap, EventLoopMode::Par] {
                for helper in [false, true] {
                    let (mut u, mut h, mut pl) = (units.clone(), hier.clone(), plan.clone());
                    hostprof::start();
                    let opts = PhaseOpts { mode, threads: 2, helper };
                    let (tris, bins) = (&geo.tris, &geo.bins);
                    let got = run_phase(&cfg, &mut u, &mut h, &mut pl, tris, bins, mech, opts);
                    let prof = hostprof::finish().expect("collector installed");
                    let p = &prof.phases[0];
                    assert_eq!((p.driver, p.helper), (mode.name(), helper));
                    assert_eq!(p.tiles_prepared + p.tiles_inline, plan.remaining_tiles() as u64);
                    assert!(helper || p.tiles_prepared + p.tiles_discarded == 0);
                    assert!(helper || p.helper_busy_ns == 0);
                    if p.tiles_prepared + p.tiles_discarded > 0 {
                        assert!(p.helper_busy_ns > 0, "a rasterised tile took no time");
                    }
                    match &first {
                        None => first = Some((got, u, h)),
                        Some((want, ..)) => assert_eq!(
                            &got, want,
                            "{title} {kind:?} {mech} {rus} RU, frame {frame}: {mode:?}, \
                             helper {helper}"
                        ),
                    }
                }
            }
            let (out, u, h) = first.expect("six phases ran");
            (units, hier) = (u, h);
            let mut tex = CacheStats::default();
            for ru in &mut units {
                tex.merge(&ru.end_frame().0);
            }
            hier.end_frame();
            feedback = Some(FrameFeedback::new(out.heatmap, out.raster_cycles, tex.hit_ratio()));
        }
    }

    #[test]
    fn the_idle_core_helper_changes_no_phase_under_any_driver() {
        // The 4 titles of the benchmark's `static-re` × 5 schedulers, plus
        // wasp and re, at 2, 8 and 64 RUs; LIBRA for two frames, so that its
        // second plans from feedback, pulling from both ends. The helper
        // serves tiles only when it gets CPU time, so which tiles it prepares
        // varies from run to run; the results may not.
        let kinds = [
            SchedulerKind::InterleavedZOrder,
            SchedulerKind::Scanline,
            SchedulerKind::Hilbert,
            SchedulerKind::StaticSupertile(2),
            SchedulerKind::Libra,
        ];
        let none = MechanismSpec::default();
        for rus in [2, 8, 64] {
            for title in ["CuT", "FrF", "LuL", "DoD"] {
                for kind in kinds {
                    let frames = if kind == SchedulerKind::Libra { 2 } else { 1 };
                    helper_changes_no_phase(title, kind, none, rus, frames);
                }
            }
            let wasp = MechanismSpec::parse("wasp").unwrap();
            helper_changes_no_phase("AAt", SchedulerKind::Libra, wasp, rus, 2);
            let re = MechanismSpec::parse("re").unwrap();
            helper_changes_no_phase("CuT", SchedulerKind::Libra, re, rus, 2);
        }
    }

    #[test]
    fn all_tiles_rendered_and_flushed() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let r = run(&cfg, SchedulerKind::SingleZOrder);
        assert!(r.raster_cycles > 0);
        assert!(r.fragments > 0);
        assert!(r.warps > 0);
        // Every tile flushes 64 FB lines, so every tile has DRAM attribution.
        for (i, t) in r.heatmap.tiles.iter().enumerate() {
            assert!(
                t.dram_accesses >= 32,
                "tile {i} missing flush writes: {t:?}"
            );
        }
    }

    #[test]
    fn two_rus_are_faster_than_one_with_same_total_cores() {
        let screen = ScreenConfig::tiny();
        let single = run(&GpuConfig::baseline(screen), SchedulerKind::SingleZOrder);
        let dual = run(
            &GpuConfig::libra(screen, 2),
            SchedulerKind::InterleavedZOrder,
        );
        // Same functional work:
        assert_eq!(single.fragments, dual.fragments);
        // PTR parallelises the per-tile pipeline; on this heavily memory-bound
        // micro-scene the extra concurrency can congest DRAM (the paper's own
        // observation, Â§III-A), so allow a modest regression but no collapse.
        assert!(
            (dual.raster_cycles as f64) < (single.raster_cycles as f64) * 1.15,
            "PTR {} vs single {}",
            dual.raster_cycles,
            single.raster_cycles
        );
    }

    #[test]
    fn ideal_memory_is_faster_and_dram_free() {
        let screen = ScreenConfig::tiny();
        let real = run(&GpuConfig::baseline(screen), SchedulerKind::SingleZOrder);
        let ideal = run(
            &GpuConfig::baseline(screen).with_ideal_memory(),
            SchedulerKind::SingleZOrder,
        );
        assert!(ideal.raster_cycles < real.raster_cycles);
        assert_eq!(ideal.fill_lines, 0);
    }

    #[test]
    fn deterministic() {
        let cfg = GpuConfig::libra(ScreenConfig::tiny(), 2);
        let a = run(&cfg, SchedulerKind::Libra);
        let b = run(&cfg, SchedulerKind::Libra);
        assert_eq!(a, b);
    }

    #[test]
    fn instructions_attributed_to_tiles_sum_to_total() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let r = run(&cfg, SchedulerKind::SingleZOrder);
        let per_tile: u64 = r.heatmap.tiles.iter().map(|t| t.instructions).sum();
        assert_eq!(per_tile, r.instructions);
        let warp_sum: u64 = r.heatmap.tiles.iter().map(|t| t.warps).sum();
        assert_eq!(warp_sum, r.warps);
    }

    #[test]
    fn more_warp_slots_never_hurt() {
        let screen = ScreenConfig::tiny();
        let narrow = {
            let mut c = GpuConfig::baseline(screen);
            c.max_warps_per_core = 2;
            run(&c, SchedulerKind::SingleZOrder)
        };
        let wide = run(&GpuConfig::baseline(screen), SchedulerKind::SingleZOrder);
        assert!(wide.raster_cycles <= narrow.raster_cycles);
    }

    #[test]
    fn tile_pipeline_overlaps_fe_with_fragments() {
        // The sum of per-tile FE and fragment occupancies exceeds the wall-clock
        // raster time whenever the two stages overlap — which they must on a
        // fragment-heavy scene.
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let r = run(&cfg, SchedulerKind::SingleZOrder);
        assert!(
            r.fe_cycles + r.drain_cycles + r.flush_cycles > r.raster_cycles,
            "no overlap: fe={} drain={} flush={} wall={}",
            r.fe_cycles,
            r.drain_cycles,
            r.flush_cycles,
            r.raster_cycles
        );
    }
}
