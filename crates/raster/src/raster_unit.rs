//! One Raster Unit: tile front-end + private shader cores (Fig 5).
//!
//! The front-end renders a tile in the paper's stage order: Parameter-Buffer fetch
//! (through the RU's tile cache) → rasterisation → Early-Z → warp assembly →
//! fragment shading on the RU's cores → blending into the on-chip Colour Buffer →
//! flush to the Frame Buffer. "Each Raster Unit has its own private resources": input
//! FIFO, tile cache, Z-Buffer, Colour Buffer and shader cores; only the L2 and DRAM
//! are shared.
//!
//! The front end runs in two halves. The pure half, [`TileRasterizer::raster`],
//! rasterises the tile's primitives, runs Early-Z, assembles warps and gathers
//! each warp's texture lines into a [`TileRaster`]: it reads only the tile's
//! primitives, never the memory model, so it may run on any thread and ahead
//! of the simulation. The timed half, [`RasterUnit::issue_tile`], issues the
//! Parameter-Buffer reads through the tile cache, gives each warp its arrival
//! cycle and copies its lines into the RU's arenas.
//! [`RasterUnit::render_tile_front_end`] is the one, then the other.
//!
//! Early-Z runs inside the rasteriser's quad-emission loop
//! ([`TriangleSetup::emit_quads`]): each quad is depth-tested as it is emitted,
//! and only the texture coordinates and shade mask of a quad with lanes to
//! shade are kept for warp assembly. The simulated path charges the cycles of
//! rasterisation, Early-Z and blending, and the flush's writes, but computes no
//! colour, since no counter reads one. The Colour Buffer is written only by
//! [`RasterUnit::render_tile_image`], which runs the same loop for an image.
//!
//! Data layout: the front-end consumes the frame's primitives as a SoA
//! [`TriangleStream`] plus the tile's index list, and parks each warp's
//! texture line lists in two per-frame bump arenas ([`Arena`]) owned by the
//! RU — a [`WarpWork`] carries only [`Span`]s, so warp assembly allocates
//! nothing in steady state. The arenas are reset wholesale in
//! [`RasterUnit::end_frame`], when no warp is in flight.
//!
//! Time-ordering contract: the caller (the event-driven simulator) interleaves
//! the timed half of the front end and warp execution across Raster Units in
//! global time order, so the shared-memory reservations stay causal. The pure
//! half touches no shared state and no clock, so when and on which thread a
//! tile was rasterised cannot change a result: a [`TileRaster`] is a function
//! of the tile, its primitives and the configuration alone.

use crate::color_buffer::{flush_line_addrs, ColorBuffer};
use crate::quad::Quad;
use crate::rasterizer::TriangleSetup;
use crate::reference::shade_color;
use crate::shader::{SampleLines, SampleLinesRef, ShaderCore, WarpOutcome};
use crate::texture::{sample_shift, select_mip, MipAddresser};
use crate::zbuffer::ZBuffer;
use tbr_common::addr::{param_entry_addr, AccessKind};
use tbr_common::arena::{Arena, Span};
use tbr_common::config::{GpuConfig, PipelineCosts, ScreenConfig};
use tbr_common::ids::TileId;
use tbr_common::stats::CacheStats;
use tbr_common::Cycle;
use tbr_geom::scene::{BlendMode, FilterMode, FragmentShaderDesc, TextureDesc};
use tbr_geom::stream::{DrawState, TriangleStream};
use tbr_mem::hierarchy::{L1Cache, MemoryHierarchy};

/// A warp of fragments ready for a shader core.
///
/// The texture line lists live in the owning Raster Unit's per-frame arenas;
/// this struct carries only their [`Span`]s (resolve with
/// [`RasterUnit::sample_lines_ref`]). Spans are valid until the RU's
/// [`RasterUnit::end_frame`].
#[derive(Debug, Clone, PartialEq)]
pub struct WarpWork {
    /// Cycle at which the front-end finished assembling this warp.
    pub arrival: Cycle,
    /// Tile the warp belongs to (for per-tile attribution).
    pub tile: TileId,
    /// Shader profile to execute.
    pub shader: FragmentShaderDesc,
    /// Covered fragments in the warp (≤ 32).
    pub fragments: u32,
    /// Flattened texture line addresses, in the RU's line arena.
    pub lines: Span,
    /// Per-stage end offsets (relative to `lines`), in the RU's ends arena.
    pub ends: Span,
}

/// Everything the tile front-end produced: the same on the simulated path
/// ([`RasterUnit::render_tile_front_end`]) and the image path
/// ([`RasterUnit::render_tile_image`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileFrontEndOutcome {
    /// Warps to execute, in assembly order.
    pub warps: Vec<WarpWork>,
    /// Cycle the front-end finished (rasterisation + Early-Z + blend accounting).
    pub fe_done: Cycle,
    /// Primitives fetched from the Parameter Buffer.
    pub primitives: u64,
    /// Quads produced by the rasteriser.
    pub quads: u64,
    /// Fragments shaded: those surviving Early-Z, and every covered one of a
    /// Late-Z primitive.
    pub fragments: u64,
    /// Covered fragments killed by Early-Z (Late-Z primitives kill none here).
    pub earlyz_killed: u64,
    /// Parameter-Buffer read requests issued.
    pub param_reads: u64,
    /// DRAM accesses caused by Parameter-Buffer reads.
    pub dram_accesses: u64,
}

/// One warp of a [`TileRaster`], before it has an arrival cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RasterWarp {
    /// Position in the tile's list of the primitive it came from: the warp
    /// arrives when that primitive's front-end work is done.
    prim: u32,
    shader: FragmentShaderDesc,
    fragments: u32,
    /// Its line addresses, as positions in [`TileRaster::lines`].
    lines: Span,
    /// Its stage end offsets (relative to its first line), as positions in
    /// [`TileRaster::ends`].
    ends: Span,
}

/// The pure half of one tile's front end ([`TileRasterizer::raster`]):
/// everything but the Parameter-Buffer reads and the arrival cycles, which
/// [`RasterUnit::issue_tile`] adds. A buffer is reused from tile to tile;
/// rasterising into it replaces what it held.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileRaster {
    tile: TileId,
    /// Per primitive of the list, the cycles it charges once its FIFO entry
    /// arrived: setup, then rasterisation, Early-Z and blending of its quads.
    prim_cycles: Vec<Cycle>,
    warps: Vec<RasterWarp>,
    lines: Vec<u64>,
    ends: Vec<u32>,
    quads: u64,
    fragments: u64,
    earlyz_killed: u64,
}

impl TileRaster {
    /// The tile last rasterised into this buffer.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// Empties the buffer for `tile`, keeping its capacity.
    fn reset(&mut self, tile: TileId) {
        self.tile = tile;
        self.prim_cycles.clear();
        self.warps.clear();
        self.lines.clear();
        self.ends.clear();
        self.quads = 0;
        self.fragments = 0;
        self.earlyz_killed = 0;
    }
}

/// The pure half of the tile front end: rasterisation, Early-Z, warp assembly
/// and each warp's texture-line gather. It owns the tile's Z-Buffer and reads
/// nothing but the tile's primitives, so any thread may run it, for any tile,
/// in any order.
#[derive(Debug, Clone)]
pub struct TileRasterizer {
    zbuffer: ZBuffer,
    costs: PipelineCosts,
    quads_per_warp: usize,
    // Capacity cache: cleared before each primitive fills it.
    surviving: Vec<([(f32, f32); 4], u8)>,
}

impl TileRasterizer {
    /// A rasteriser for the configuration's tile size, costs and warp width.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self {
            zbuffer: ZBuffer::new(cfg.screen.tile_size),
            costs: cfg.costs,
            quads_per_warp: cfg.quads_per_warp() as usize,
            surviving: Vec::new(),
        }
    }

    /// Rasterises `tile`'s Parameter-Buffer `list` (indices into `tris`, in
    /// program order) into `out`: Early-Z, warp assembly and each warp's
    /// texture lines, with the cycles each primitive charges. No colour is
    /// shaded: no counter reads one.
    pub fn raster(
        &mut self,
        tile: TileId,
        tris: &TriangleStream,
        list: &[u32],
        screen: &ScreenConfig,
        out: &mut TileRaster,
    ) {
        self.raster_with(tile, tris, list, screen, out, &mut NoColor);
    }

    /// The one rasterisation body behind [`TileRasterizer::raster`] and
    /// [`RasterUnit::render_tile_image`]; only where colours go differs.
    fn raster_with<C: ColorSink>(
        &mut self,
        tile: TileId,
        tris: &TriangleStream,
        list: &[u32],
        screen: &ScreenConfig,
        out: &mut TileRaster,
        color: &mut C,
    ) {
        out.reset(tile);
        let (tx0, ty0, tx1, ty1) = screen.tile_rect(tile);
        let Self { zbuffer, costs, quads_per_warp, surviving } = self;
        zbuffer.clear();

        for (n, &pidx) in list.iter().enumerate() {
            let pidx = pidx as usize;
            let mut cycles = costs.raster_setup_cycles;
            // One TriangleSetup per (primitive × tile), shared by rasterisation
            // and mip selection.
            if let Some(setup) = TriangleSetup::from_vertices(tris.vertices(pidx)) {
                let state = tris.state_of(pidx);
                let depth_write = state.blend == BlendMode::Opaque;
                // Depth-modifying shaders disable Early-Z: every covered fragment is
                // shaded and the visibility test happens after shading (Late-Z, §II-A).
                let late_z = state.shader.late_z;

                // Early-Z at emission: each quad is depth-tested as the rasteriser
                // emits it, and only a quad with lanes to shade is kept. Only
                // depth-passing lanes reach the Colour Buffer, Early- or Late-Z.
                let (mut quads, mut killed) = (0u64, 0u64);
                surviving.clear();
                setup.emit_quads(tx0, ty0, tx1, ty1, |q| {
                    quads += 1;
                    let pass = zbuffer.test_quad(&q, tx0, ty0, depth_write);
                    let shade_mask = if late_z { q.mask } else { pass };
                    killed += (q.mask & !shade_mask).count_ones() as u64;
                    if shade_mask != 0 {
                        color.shade(&q, pass, state, tx0, ty0);
                        surviving.push((q.uv, shade_mask));
                    }
                });
                if quads > 0 {
                    cycles += quads.div_ceil(costs.raster_quads_per_cycle.max(1))
                        + quads * costs.earlyz_cycles_per_quad
                        + surviving.len() as Cycle * costs.blend_cycles_per_quad;
                    out.quads += quads;
                    out.earlyz_killed += killed;

                    // Assemble surviving quads into warps of `quads_per_warp`.
                    let lod = select_mip(&state.texture, setup.uv_derivative);
                    for group in surviving.chunks(*quads_per_warp) {
                        let fragments: u32 = group.iter().map(|(_, m)| m.count_ones()).sum();
                        out.fragments += fragments as u64;
                        let (lmark, emark) = (out.lines.len(), out.ends.len());
                        let mut sink =
                            WarpLines { lines: &mut out.lines, ends: &mut out.ends, base: lmark };
                        gather_lines(
                            group.len(),
                            |i| group[i],
                            &state.texture,
                            lod,
                            state.shader.tex_samples,
                            state.shader.filter,
                            &mut sink,
                        );
                        out.warps.push(RasterWarp {
                            prim: n as u32,
                            shader: state.shader,
                            fragments,
                            lines: span(lmark, out.lines.len()),
                            ends: span(emark, out.ends.len()),
                        });
                    }
                }
            }
            out.prim_cycles.push(cycles);
        }
    }
}

/// The span of positions `start..end`.
fn span(start: usize, end: usize) -> Span {
    Span { start: start as u32, len: (end - start) as u32 }
}

/// One Raster Unit.
#[derive(Debug, Clone)]
pub struct RasterUnit {
    cores: Vec<ShaderCore>,
    tile_l1: L1Cache,
    rasterizer: TileRasterizer,
    costs: PipelineCosts,
    next_core: usize,
    // Per-frame bump arenas holding every warp's texture line lists; reset
    // wholesale in end_frame(), when no warp is in flight.
    lines: Arena<u64>,
    ends: Arena<u32>,
}

thread_local! {
    // The buffer the Raster Units of a thread rasterise their own tiles into:
    // a capacity cache, so the per-tile path stays allocation-free once warmed
    // up, shared by all of the thread's units rather than held by each.
    static SCRATCH: std::cell::RefCell<TileRaster> = std::cell::RefCell::default();
}

impl RasterUnit {
    /// Builds a Raster Unit per the GPU configuration (cores, caches, costs).
    pub fn new(cfg: &GpuConfig) -> Self {
        Self {
            cores: (0..cfg.cores_per_ru)
                .map(|_| ShaderCore::new(cfg.texture_cache, cfg.max_warps_per_core))
                .collect(),
            tile_l1: L1Cache::new(cfg.tile_cache),
            rasterizer: TileRasterizer::new(cfg),
            costs: cfg.costs,
            next_core: 0,
            lines: Arena::new(),
            ends: Arena::new(),
        }
    }

    /// Number of shader cores in this RU.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Resolves a warp's texture line lists from this RU's arenas.
    ///
    /// # Panics
    /// Panics if the warp's spans are stale (produced before the last
    /// [`RasterUnit::end_frame`]) or belong to a different RU.
    #[inline]
    pub fn sample_lines_ref(&self, warp: &WarpWork) -> SampleLinesRef<'_> {
        SampleLinesRef { lines: self.lines.get(warp.lines), ends: self.ends.get(warp.ends) }
    }

    /// Runs the tile front-end over the tile's Parameter-Buffer `list` (indices
    /// into `tris`, in program order), starting at cycle `now`. Returns the
    /// assembled warps and front-end statistics.
    ///
    /// This is the simulated path: [`TileRasterizer::raster`] on the RU's own
    /// rasteriser, then [`RasterUnit::issue_tile`]. It charges rasterisation,
    /// Early-Z and blending cycles, but shades no colour: no counter reads
    /// one, and the flush writes every line of the tile whatever it holds.
    /// [`RasterUnit::render_tile_image`] runs the same loop and also writes
    /// the tile's colours.
    pub fn render_tile_front_end(
        &mut self,
        tile: TileId,
        tris: &TriangleStream,
        list: &[u32],
        screen: &ScreenConfig,
        now: Cycle,
        hier: &mut MemoryHierarchy,
    ) -> TileFrontEndOutcome {
        SCRATCH.with_borrow_mut(|raster| {
            self.rasterizer.raster(tile, tris, list, screen, raster);
            self.issue_tile(raster, now, hier)
        })
    }

    /// [`RasterUnit::render_tile_front_end`] that also shades each
    /// depth-passing lane and blends it into `color`, which it clears first:
    /// the tile's image, for tests and examples (copy it out with
    /// [`ColorBuffer::blit_to`]). `color` must be sized for the screen's
    /// tiles. The outcome, and every cache and DRAM access, is the one
    /// [`RasterUnit::render_tile_front_end`] makes.
    #[allow(clippy::too_many_arguments)]
    pub fn render_tile_image(
        &mut self,
        tile: TileId,
        tris: &TriangleStream,
        list: &[u32],
        screen: &ScreenConfig,
        now: Cycle,
        hier: &mut MemoryHierarchy,
        color: &mut ColorBuffer,
    ) -> TileFrontEndOutcome {
        color.clear();
        SCRATCH.with_borrow_mut(|raster| {
            self.rasterizer.raster_with(tile, tris, list, screen, raster, color);
            self.issue_tile(raster, now, hier)
        })
    }

    /// The timed half of the tile front end, from cycle `now`: streams the
    /// tile's Parameter-Buffer list through the tile cache, gives each of
    /// `raster`'s warps its arrival cycle and copies its lines into this RU's
    /// arenas. `raster` may come from any [`TileRasterizer`] built for the
    /// same configuration; the outcome is the same.
    pub fn issue_tile(
        &mut self,
        raster: &TileRaster,
        now: Cycle,
        hier: &mut MemoryHierarchy,
    ) -> TileFrontEndOutcome {
        let tile = raster.tile;
        let mut out = TileFrontEndOutcome {
            warps: Vec::with_capacity(raster.warps.len()),
            primitives: raster.prim_cycles.len() as u64,
            quads: raster.quads,
            fragments: raster.fragments,
            earlyz_killed: raster.earlyz_killed,
            ..TileFrontEndOutcome::default()
        };
        let lbase = self.lines.alloc_slice(&raster.lines).start;
        let ebase = self.ends.alloc_slice(&raster.ends).start;
        let rebase = |s: Span, base: u32| Span { start: base + s.start, len: s.len };

        // The Tile Fetcher issues the list's reads ahead of the pipeline into
        // the RU's FIFO (Fig 5), one per cycle, so list fetch latency is
        // pipelined rather than serialising the front-end; a primitive is
        // rasterised once its entry arrived.
        let mut fe = now;
        let mut warps = raster.warps.iter().peekable();
        for (n, (&cycles, issue)) in raster.prim_cycles.iter().zip(now..).enumerate() {
            let entry_addr = param_entry_addr(tile, n as u64);
            let rd = self.tile_l1.access(entry_addr, issue, AccessKind::ParamRead, hier);
            out.param_reads += 1;
            out.dram_accesses += rd.dram_accesses as u64;
            fe = fe.max(rd.completion) + cycles;
            while let Some(w) = warps.next_if(|w| w.prim as usize == n) {
                out.warps.push(WarpWork {
                    arrival: fe,
                    tile,
                    shader: w.shader,
                    fragments: w.fragments,
                    lines: rebase(w.lines, lbase),
                    ends: rebase(w.ends, ebase),
                });
            }
        }
        out.fe_done = fe;
        out
    }

    /// Executes one warp atomically on the next core (round-robin within the RU).
    /// Correct for isolated warps (tests, micro-benchmarks); the event-driven
    /// simulator uses the steppable API below so concurrent warps overlap.
    pub fn execute_warp(&mut self, warp: &WarpWork, hier: &mut MemoryHierarchy) -> WarpOutcome {
        let idx = self.next_core;
        self.next_core = (self.next_core + 1) % self.cores.len();
        let sl = SampleLinesRef { lines: self.lines.get(warp.lines), ends: self.ends.get(warp.ends) };
        self.cores[idx].execute_warp(&warp.shader, sl, warp.arrival, hier)
    }

    /// Starts a warp on a specific core (the dispatcher has granted it a slot).
    pub fn begin_warp_on(
        &self,
        core: usize,
        start: tbr_common::Cycle,
    ) -> crate::shader::WarpExecState {
        self.cores[core].begin_warp(start)
    }

    /// Advances a warp on a specific core by one stage; `true` when it retired.
    pub fn step_warp_on(
        &mut self,
        core: usize,
        warp: &WarpWork,
        state: &mut crate::shader::WarpExecState,
        hier: &mut MemoryHierarchy,
    ) -> bool {
        let sl = SampleLinesRef { lines: self.lines.get(warp.lines), ends: self.ends.get(warp.ends) };
        self.cores[core].step_warp(&warp.shader, sl, state, hier)
    }

    /// Takes the texture lines `core`'s L1 filled since the last drain (see
    /// [`ShaderCore::drain_fills`]).
    pub fn drain_fills_on(&mut self, core: usize) -> std::vec::Drain<'_, u64> {
        self.cores[core].drain_fills()
    }

    /// Whether the warp's next step on `core` would be served entirely by that
    /// core's L1 (see [`ShaderCore::step_is_resident`]) — the parallel driver's
    /// test for executing the step on a worker thread.
    pub fn warp_step_is_resident(
        &self,
        core: usize,
        warp: &WarpWork,
        state: &crate::shader::WarpExecState,
        ideal: bool,
    ) -> bool {
        self.cores[core].step_is_resident(self.sample_lines_ref(warp), state, ideal)
    }

    /// Whether the warp's next step retires it (see [`ShaderCore::step_retires`]).
    pub fn warp_step_retires(&self, warp: &WarpWork, state: &crate::shader::WarpExecState) -> bool {
        ShaderCore::step_retires(&warp.shader, self.sample_lines_ref(warp), state)
    }

    /// [`RasterUnit::step_warp_on`] for a step proven resident via
    /// [`RasterUnit::warp_step_is_resident`]: no shared hierarchy required.
    pub fn step_warp_on_resident(
        &mut self,
        core: usize,
        warp: &WarpWork,
        state: &mut crate::shader::WarpExecState,
        ideal: bool,
    ) -> bool {
        let sl = SampleLinesRef { lines: self.lines.get(warp.lines), ends: self.ends.get(warp.ends) };
        self.cores[core].step_warp_resident(&warp.shader, sl, state, ideal)
    }

    /// Resident-warp capacity per core.
    pub fn max_warps_per_core(&self) -> usize {
        self.cores[0].max_warps()
    }

    /// Flushes the Colour Buffer to the Frame Buffer (bypassing L2): every line
    /// of the tile ([`flush_line_addrs`]). Returns `(front-end time after
    /// issuing the flush, last write completion, writes)`.
    pub fn flush_tile(
        &self,
        tile: TileId,
        screen: &ScreenConfig,
        now: Cycle,
        hier: &mut MemoryHierarchy,
    ) -> (Cycle, Cycle, u64) {
        let mut fe = now;
        let mut last = now;
        let mut writes = 0;
        for addr in flush_line_addrs(tile, screen) {
            let o = hier.access(addr, fe, AccessKind::FramebufferWrite);
            fe += self.costs.flush_cycles_per_line;
            last = last.max(o.completion);
            writes += 1;
        }
        (fe, last, writes)
    }

    /// Aggregated texture-L1 counters across this RU's cores (without resetting).
    pub fn texture_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for c in &self.cores {
            agg.merge(c.l1_stats());
        }
        agg
    }

    /// Ends a frame: returns `(texture L1 aggregate, tile cache)` counters and resets
    /// per-frame timing state; cache contents stay warm. Also resets the warp
    /// line arenas, invalidating every outstanding [`WarpWork`] span — callers
    /// must only end a frame once no warp is in flight.
    pub fn end_frame(&mut self) -> (CacheStats, CacheStats) {
        let mut tex = CacheStats::default();
        for c in &mut self.cores {
            tex.merge(&c.end_frame());
        }
        let tile = self.tile_l1.end_frame();
        self.next_core = 0;
        self.lines.reset();
        self.ends.reset();
        (tex, tile)
    }
}

/// Public wrapper over the internal line-gathering loop for alternate pipeline
/// organisations (e.g. the IMR comparison mode in `tbr-sim`), producing an
/// owned [`SampleLines`].
pub fn gather_sample_lines_for(
    group: &[(Quad, u8)],
    texture: &TextureDesc,
    lod: u32,
    tex_samples: u32,
    filter: FilterMode,
) -> SampleLines {
    let mut out =
        SampleLines::with_capacity(tex_samples as usize * group.len() * 2, tex_samples as usize);
    let (lines, ends) = out.parts_mut();
    gather_lines(
        group.len(),
        |i| (group[i].0.uv, group[i].1),
        texture,
        lod,
        tex_samples,
        filter,
        &mut WarpLines { lines, ends, base: 0 },
    );
    out
}

/// Where the front end's depth-passing lanes are shaded to: nowhere on the
/// simulated path ([`NoColor`]), or a [`ColorBuffer`] for an image.
trait ColorSink {
    /// Shades the `pass` lanes of `quad` with `state`'s texture and blends
    /// them in with its blend mode.
    fn shade(&mut self, quad: &Quad, pass: u8, state: &DrawState, tile_x0: u32, tile_y0: u32);
}

/// The simulated path's sink: no counter reads a colour, so none is computed.
struct NoColor;

impl ColorSink for NoColor {
    #[inline]
    fn shade(&mut self, _: &Quad, _: u8, _: &DrawState, _: u32, _: u32) {}
}

impl ColorSink for ColorBuffer {
    fn shade(&mut self, quad: &Quad, pass: u8, state: &DrawState, tile_x0: u32, tile_y0: u32) {
        let colors = std::array::from_fn(|lane| {
            let (u, v) = quad.uv[lane];
            if pass & (1 << lane) != 0 {
                shade_color(&state.texture, u, v)
            } else {
                0
            }
        });
        self.write_quad(quad, pass, colors, state.blend, tile_x0, tile_y0);
    }
}

/// Where one warp's gathered lines land: appended to `lines`, with each
/// stage's end offset recorded in `ends` relative to `base`, the warp's first
/// line (the [`SampleLinesRef`] contract). A [`TileRaster`] holds a whole
/// tile's warps this way; an owned [`SampleLines`] is one warp at base 0.
struct WarpLines<'a> {
    lines: &'a mut Vec<u64>,
    ends: &'a mut Vec<u32>,
    base: usize,
}

impl WarpLines<'_> {
    /// Appends `line` unless it already occurs at or after position `from`.
    fn push_unique(&mut self, from: usize, line: u64) {
        if !self.lines[from..].contains(&line) {
            self.lines.push(line);
        }
    }

    /// Appends a copy of the lines at `src`, each plus `shift`.
    fn extend_shifted(&mut self, src: std::ops::Range<usize>, shift: u64) {
        let start = self.lines.len();
        self.lines.extend_from_within(src);
        self.lines[start..].iter_mut().for_each(|line| *line += shift);
    }

    /// Closes the stage being built.
    fn end_stage(&mut self) {
        self.ends.push((self.lines.len() - self.base) as u32);
    }
}

/// Collects, per texture-sample instruction, the cache-line requests of a warp's
/// quads — the single body behind the owned ([`gather_sample_lines_for`]) and
/// tile ([`TileRasterizer::raster`]) paths, so the two cannot diverge.
///
/// Coalescing happens at *quad* granularity (a texture unit fetches the
/// texels of one 2×2 quad together), so lines shared between different quads are
/// requested once per quad — that inter-quad reuse is what the texture L1 turns into
/// hits, matching how hardware hit ratios are counted. A quad's list holds its
/// `pass` lanes' lines (every bilinear tap, in tap order) in lane order, each
/// kept at its first occurrence.
///
/// Only stage 0 is addressed: stage `s` is stage 0 plus [`sample_shift`]`(s)`,
/// copied within the sink, which is the same list a per-sample gather builds.
fn gather_lines(
    count: usize,
    mut quad_of: impl FnMut(usize) -> ([(f32, f32); 4], u8),
    texture: &TextureDesc,
    lod: u32,
    tex_samples: u32,
    filter: FilterMode,
    sink: &mut WarpLines,
) {
    if tex_samples == 0 {
        return;
    }
    let addr = MipAddresser::new(texture, lod, 0);
    let stage0 = sink.lines.len();
    for i in 0..count {
        let (uv, pass) = quad_of(i);
        let quad = sink.lines.len();
        let lanes = (0..4).filter(|lane| pass & (1 << lane) != 0);
        match filter {
            FilterMode::Nearest => {
                let lines = addr.lane_lines(&uv);
                for lane in lanes {
                    sink.push_unique(quad, lines[lane]);
                }
            }
            FilterMode::Bilinear => {
                for lane in lanes {
                    let (u, v) = uv[lane];
                    let (lines, n) = addr.bilinear_lines(u, v);
                    for &line in &lines[..n] {
                        sink.push_unique(quad, line);
                    }
                }
            }
        }
    }
    let stage0 = stage0..sink.lines.len();
    sink.end_stage();
    for s in 1..tex_samples {
        sink.extend_shifted(stage0.clone(), sample_shift(s));
        sink.end_stage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::config::{CacheConfig, DramConfig};
    use tbr_common::ids::{DrawCallId, TextureId};
    use tbr_geom::pipeline::ScreenVertex;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(CacheConfig::shared_l2(), DramConfig::lpddr4(), 5000)
    }

    fn cfg() -> GpuConfig {
        GpuConfig::baseline(ScreenConfig::tiny())
    }

    fn full_tile_tri(z: f32, seq: u32) -> ScreenTriangle {
        // Covers the whole 32x32 tile 0 (and more).
        let p = [(0.0f32, 0.0f32), (80.0, 0.0), (0.0, 80.0)];
        let mut v = [ScreenVertex::default(); 3];
        for i in 0..3 {
            v[i] = ScreenVertex {
                x: p[i].0,
                y: p[i].1,
                z,
                u: p[i].0 / 80.0,
                v: p[i].1 / 80.0,
            };
        }
        ScreenTriangle {
            v,
            draw: DrawCallId(0),
            texture: TextureDesc::new(TextureId(0), 256),
            shader: FragmentShaderDesc::simple(),
            blend: BlendMode::Opaque,
            seq,
        }
    }

    use tbr_geom::pipeline::ScreenTriangle;

    fn stream(tris: &[ScreenTriangle]) -> (TriangleStream, Vec<u32>) {
        let list = (0..tris.len() as u32).collect();
        (TriangleStream::from_triangles(tris), list)
    }

    #[test]
    fn front_end_produces_warps_covering_the_tile() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.5, 0)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        // Full 32x32 tile = 1024 fragments = 256 quads = 32 warps of 8 quads.
        assert_eq!(out.fragments, 1024);
        assert_eq!(out.quads, 256);
        assert_eq!(out.warps.len(), 32);
        assert_eq!(out.earlyz_killed, 0);
        assert!(out.fe_done > 0);
        assert_eq!(out.param_reads, 1);
        // Warp arrivals are monotone.
        for w in out.warps.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn early_z_kills_occluded_second_primitive() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.1, 0), full_tile_tri(0.9, 1)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        assert_eq!(out.fragments, 1024, "only the near primitive is shaded");
        assert_eq!(out.earlyz_killed, 1024, "the far primitive dies in Early-Z");
    }

    #[test]
    fn painter_order_far_then_near_shades_both() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.9, 0), full_tile_tri(0.1, 1)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        assert_eq!(out.fragments, 2048, "back-to-front order shades everything");
    }

    #[test]
    fn warp_execution_counts_instructions_and_tex_requests() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.5, 0)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        let mut instructions = 0;
        let mut tex = 0;
        for w in &out.warps {
            let o = ru.execute_warp(w, &mut h);
            instructions += o.instructions;
            tex += o.tex_requests;
            assert!(o.completion > w.arrival);
        }
        // 32 warps x 7 SIMD instructions each (simple() shader).
        assert_eq!(instructions, 32 * 7);
        assert!(tex > 0);
        assert!(ru.texture_stats().accesses > 0);
    }

    #[test]
    fn flush_writes_one_tile_of_framebuffer() {
        let cfg = cfg();
        let mut h = hier();
        let ru = RasterUnit::new(&cfg);
        let (fe, last, writes) = ru.flush_tile(TileId(0), &cfg.screen, 100, &mut h);
        assert_eq!(writes, 64, "32x32x4B = 64 lines");
        assert!(fe >= 100 + 64);
        assert!(last > fe - 64);
        assert_eq!(h.dram_stats().writes, 64);
    }

    #[test]
    fn sample_lines_exploit_quad_locality() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.5, 0)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        let mut requests = 0usize;
        let mut unique = std::collections::HashSet::new();
        for w in &out.warps {
            let sl = ru.sample_lines_ref(w);
            for lines in sl.iter_stages() {
                // 8 quads x at most 4 distinct lines per quad.
                assert!(lines.len() <= 32);
                assert!(!lines.is_empty());
                requests += lines.len();
                unique.extend(lines.iter().copied());
            }
        }
        // Inter-quad reuse must exist: strictly fewer unique lines than requests
        // (that surplus is what the texture L1 converts into hits).
        assert!(
            unique.len() < requests,
            "unique {} vs requests {requests}",
            unique.len()
        );
    }

    #[test]
    fn round_robin_spreads_warps_over_cores() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.5, 0)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        for w in &out.warps {
            ru.execute_warp(w, &mut h);
        }
        // All 8 cores should have seen ~32/8 = 4 warps worth of L1 traffic.
        let per_core: Vec<u64> = ru.cores.iter().map(|c| c.l1_stats().accesses).collect();
        assert!(
            per_core.iter().all(|&a| a > 0),
            "all cores used: {per_core:?}"
        );
    }

    #[test]
    fn end_frame_resets_the_warp_arenas() {
        let cfg = cfg();
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[full_tile_tri(0.5, 0)]);
        let out = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        assert!(!ru.lines.is_empty(), "warps parked lines in the arena");
        ru.end_frame();
        assert!(ru.lines.is_empty() && ru.ends.is_empty(), "end_frame resets arenas");
        // Spans from before the reset must not silently resolve; the first
        // warp's span now points past the arena end (unless it was empty).
        let stale = &out.warps[0];
        assert!(stale.lines.len > 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = ru.sample_lines_ref(stale);
        }));
        assert!(caught.is_err(), "stale span must panic, not alias");
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use tbr_common::config::{CacheConfig, DramConfig, ScreenConfig};
    use tbr_common::ids::{DrawCallId, TextureId};
    use tbr_geom::pipeline::{ScreenTriangle, ScreenVertex};

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(CacheConfig::shared_l2(), DramConfig::lpddr4(), 5000)
    }

    fn tri(z: f32, seq: u32, shader: FragmentShaderDesc) -> ScreenTriangle {
        let p = [(0.0f32, 0.0f32), (80.0, 0.0), (0.0, 80.0)];
        let mut v = [ScreenVertex::default(); 3];
        for i in 0..3 {
            v[i] = ScreenVertex {
                x: p[i].0,
                y: p[i].1,
                z,
                u: p[i].0 / 80.0,
                v: p[i].1 / 80.0,
            };
        }
        ScreenTriangle {
            v,
            draw: DrawCallId(0),
            texture: TextureDesc::new(TextureId(0), 256),
            shader,
            blend: BlendMode::Opaque,
            seq,
        }
    }

    fn stream(tris: &[ScreenTriangle]) -> (TriangleStream, Vec<u32>) {
        let list = (0..tris.len() as u32).collect();
        (TriangleStream::from_triangles(tris), list)
    }

    #[test]
    fn late_z_shades_occluded_fragments() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        // Near opaque primitive first, then a far one.
        let near = tri(0.1, 0, FragmentShaderDesc::simple());
        let far_early = tri(0.9, 1, FragmentShaderDesc::simple());
        let (ts, list) = stream(&[near, far_early]);
        let out_early = ru.render_tile_front_end(TileId(0), &ts, &list, &cfg.screen, 0, &mut h);
        assert_eq!(
            out_early.fragments, 1024,
            "Early-Z kills the occluded primitive"
        );

        let mut ru2 = RasterUnit::new(&cfg);
        let near2 = tri(0.1, 0, FragmentShaderDesc::simple());
        let far_late = tri(0.9, 1, FragmentShaderDesc::simple().with_late_z());
        let (ts2, list2) = stream(&[near2, far_late]);
        let out_late = ru2.render_tile_front_end(TileId(0), &ts2, &list2, &cfg.screen, 0, &mut h);
        assert_eq!(
            out_late.fragments, 2048,
            "Late-Z must shade the occluded fragments"
        );
        assert!(out_late.earlyz_killed < out_early.earlyz_killed);
        assert!(out_late.warps.len() > out_early.warps.len());
    }

    #[test]
    fn late_z_still_produces_correct_colors() {
        // The occluded late-Z primitive is shaded but must NOT reach the colour
        // buffer: final image identical to the early-Z case.
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let mut h = hier();
        let near = tri(0.1, 0, FragmentShaderDesc::simple());
        let far_e = tri(0.9, 1, FragmentShaderDesc::simple());
        let far_l = tri(0.9, 1, FragmentShaderDesc::simple().with_late_z());

        let mut color = ColorBuffer::new(cfg.screen.tile_size);
        let mut img_e = vec![0u32; (cfg.screen.width * cfg.screen.height) as usize];
        let mut ru = RasterUnit::new(&cfg);
        let (ts, list) = stream(&[near, far_e]);
        ru.render_tile_image(TileId(0), &ts, &list, &cfg.screen, 0, &mut h, &mut color);
        color.blit_to(TileId(0), &cfg.screen, &mut img_e);

        let mut img_l = vec![0u32; (cfg.screen.width * cfg.screen.height) as usize];
        let mut ru2 = RasterUnit::new(&cfg);
        let (ts2, list2) = stream(&[near, far_l]);
        ru2.render_tile_image(TileId(0), &ts2, &list2, &cfg.screen, 0, &mut h, &mut color);
        color.blit_to(TileId(0), &cfg.screen, &mut img_l);

        assert_eq!(img_e, img_l);
        // Pixel (0, 0) samples the near primitive at its centre, UV 0.5 / 80.
        let near_color = shade_color(&near.texture, 0.5 / 80.0, 0.5 / 80.0);
        assert_eq!(img_e[0], near_color, "the near primitive is drawn");
    }

    #[test]
    fn image_path_makes_the_simulated_path_s_accesses() {
        // render_tile_image runs the simulated loop plus colour writes: the
        // same outcome, the same cache and DRAM traffic.
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let far_l = tri(0.9, 0, FragmentShaderDesc::simple().with_late_z());
        let near = tri(0.1, 1, FragmentShaderDesc::simple().with_bilinear());
        let far_e = tri(0.9, 2, FragmentShaderDesc::simple());
        let (ts, list) = stream(&[far_l, near, far_e]);
        let (mut ru, mut h) = (RasterUnit::new(&cfg), hier());
        let (mut ru2, mut h2) = (ru.clone(), h.clone());
        let mut color = ColorBuffer::new(cfg.screen.tile_size);
        for tile in [TileId(0), TileId(1), TileId(0)] {
            let want = ru.render_tile_front_end(tile, &ts, &list, &cfg.screen, 7, &mut h);
            let got =
                ru2.render_tile_image(tile, &ts, &list, &cfg.screen, 7, &mut h2, &mut color);
            assert_eq!(got, want);
            assert!(got.earlyz_killed > 0 && got.fragments > 0);
        }
        assert_eq!(h2.dram_stats(), h.dram_stats());
        assert_eq!(ru2.tile_l1.stats(), ru.tile_l1.stats());
    }

    #[test]
    fn the_two_halves_on_another_rasteriser_equal_the_front_end() {
        // A TileRaster made by a second rasteriser, and reused from tile to
        // tile, issued by the RU: the same outcome, the same lines and the
        // same cache and DRAM traffic as the RU's own front end.
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let far_l = tri(0.9, 0, FragmentShaderDesc::simple().with_late_z());
        let near = tri(0.1, 1, FragmentShaderDesc::simple().with_bilinear());
        let far_e = tri(0.9, 2, FragmentShaderDesc::simple());
        let (ts, list) = stream(&[far_l, near, far_e]);
        let (mut ru, mut h) = (RasterUnit::new(&cfg), hier());
        let (mut ru2, mut h2) = (ru.clone(), h.clone());
        let mut rasterizer = TileRasterizer::new(&cfg);
        let mut raster = TileRaster::default();
        let tiles = [(TileId(0), 7), (TileId(1), 900), (TileId(0), 2000), (TileId(2), 2100)];
        for (tile, now) in tiles {
            let want = ru.render_tile_front_end(tile, &ts, &list, &cfg.screen, now, &mut h);
            rasterizer.raster(tile, &ts, &list, &cfg.screen, &mut raster);
            assert_eq!(raster.tile(), tile);
            let got = ru2.issue_tile(&raster, now, &mut h2);
            assert_eq!(got, want);
            for (g, w) in got.warps.iter().zip(&want.warps) {
                assert_eq!(ru2.sample_lines_ref(g), ru.sample_lines_ref(w));
            }
        }
        assert_eq!(h2.dram_stats(), h.dram_stats());
        assert_eq!(ru2.tile_l1.stats(), ru.tile_l1.stats());
    }

    #[test]
    fn bilinear_filtering_increases_texture_traffic() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let mut h = hier();
        let mut ru = RasterUnit::new(&cfg);
        let nearest = tri(0.5, 0, FragmentShaderDesc::simple());
        let (ts_n, list_n) = stream(&[nearest]);
        let out_n = ru.render_tile_front_end(TileId(0), &ts_n, &list_n, &cfg.screen, 0, &mut h);
        let req_n: usize = out_n
            .warps
            .iter()
            .map(|w| ru.sample_lines_ref(w).total_lines())
            .sum();

        let mut ru2 = RasterUnit::new(&cfg);
        let bilinear = tri(0.5, 0, FragmentShaderDesc::simple().with_bilinear());
        let (ts_b, list_b) = stream(&[bilinear]);
        let out_b = ru2.render_tile_front_end(TileId(0), &ts_b, &list_b, &cfg.screen, 0, &mut h);
        let req_b: usize = out_b
            .warps
            .iter()
            .map(|w| ru2.sample_lines_ref(w).total_lines())
            .sum();

        assert!(
            req_b > req_n,
            "bilinear {req_b} must exceed nearest {req_n}"
        );
        assert!(req_b <= req_n * 4, "bilinear touches at most 4x the lines");
        // Functional output identical (same fragments shaded).
        assert_eq!(out_n.fragments, out_b.fragments);
    }
}
