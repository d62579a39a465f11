//! One Raster Unit: tile front-end + private shader cores (Fig 5).
//!
//! The front-end renders a tile in the paper's stage order: Parameter-Buffer fetch
//! (through the RU's tile cache) → rasterisation → Early-Z → warp assembly →
//! fragment shading on the RU's cores → blending into the on-chip Colour Buffer →
//! flush to the Frame Buffer. "Each Raster Unit has its own private resources": input
//! FIFO, tile cache, Z-Buffer, Colour Buffer and shader cores; only the L2 and DRAM
//! are shared.
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
//! front-end and warp execution across Raster Units in global time order, so the
//! shared-memory reservations stay causal.

use crate::color_buffer::{flush_line_addrs, ColorBuffer};
use crate::quad::Quad;
use crate::rasterizer::TriangleSetup;
use crate::reference::shade_color;
use crate::shader::{SampleLines, SampleLinesRef, ShaderCore, WarpOutcome};
use crate::texture::{sample_shift, select_mip, MipAddresser};
use crate::zbuffer::ZBuffer;
use std::ops::Range;
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
/// [`RasterUnit::end_frame`] / [`RasterUnit::cold_reset`].
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

/// One Raster Unit.
#[derive(Debug, Clone)]
pub struct RasterUnit {
    cores: Vec<ShaderCore>,
    tile_l1: L1Cache,
    zbuffer: ZBuffer,
    costs: PipelineCosts,
    quads_per_warp: usize,
    next_core: usize,
    // Per-frame bump arenas holding every warp's texture line lists; reset
    // wholesale in end_frame()/cold_reset(), when no warp is in flight.
    lines: Arena<u64>,
    ends: Arena<u32>,
    // Scratch buffers reused across tiles so the per-event path stays
    // allocation-free once warmed up. Purely capacity caches: no state crosses
    // from one use to the next (each user clears before filling).
    scratch_read_done: Vec<Cycle>,
    scratch_surviving: Vec<([(f32, f32); 4], u8)>,
}

impl RasterUnit {
    /// Builds a Raster Unit per the GPU configuration (cores, caches, costs).
    pub fn new(cfg: &GpuConfig) -> Self {
        Self {
            cores: (0..cfg.cores_per_ru)
                .map(|_| ShaderCore::new(cfg.texture_cache, cfg.max_warps_per_core))
                .collect(),
            tile_l1: L1Cache::new(cfg.tile_cache),
            zbuffer: ZBuffer::new(cfg.screen.tile_size),
            costs: cfg.costs,
            quads_per_warp: cfg.quads_per_warp() as usize,
            next_core: 0,
            lines: Arena::new(),
            ends: Arena::new(),
            scratch_read_done: Vec::new(),
            scratch_surviving: Vec::new(),
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
    /// This is the simulated path. It charges rasterisation, Early-Z and
    /// blending cycles, but shades no colour: no counter reads one, and the
    /// flush writes every line of the tile whatever it holds.
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
        self.front_end(tile, tris, list, screen, now, hier, &mut NoColor)
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
        self.front_end(tile, tris, list, screen, now, hier, color)
    }

    /// The one front-end body behind [`RasterUnit::render_tile_front_end`] and
    /// [`RasterUnit::render_tile_image`]; only where colours go differs.
    #[allow(clippy::too_many_arguments)]
    fn front_end<C: ColorSink>(
        &mut self,
        tile: TileId,
        tris: &TriangleStream,
        list: &[u32],
        screen: &ScreenConfig,
        now: Cycle,
        hier: &mut MemoryHierarchy,
        color: &mut C,
    ) -> TileFrontEndOutcome {
        let mut out = TileFrontEndOutcome::default();
        let (tx0, ty0, tx1, ty1) = screen.tile_rect(tile);
        self.zbuffer.clear();
        let mut fe = now;

        // Stream the tile's Parameter-Buffer list: the Tile Fetcher issues reads
        // ahead of the pipeline into the RU's FIFO (Fig 5), one per cycle, so list
        // fetch latency is pipelined rather than serialising the front-end.
        let mut read_done = std::mem::take(&mut self.scratch_read_done);
        read_done.clear();
        let mut surviving = std::mem::take(&mut self.scratch_surviving);
        for (n, issue) in (0..list.len()).zip(now..) {
            let entry_addr = param_entry_addr(tile, n as u64);
            let rd = self
                .tile_l1
                .access(entry_addr, issue, AccessKind::ParamRead, hier);
            out.param_reads += 1;
            out.dram_accesses += rd.dram_accesses as u64;
            read_done.push(rd.completion);
        }

        for (n, &pidx) in list.iter().enumerate() {
            let pidx = pidx as usize;
            // The primitive can only be rasterised once its FIFO entry arrived.
            fe = fe.max(read_done[n]);
            fe += self.costs.raster_setup_cycles;
            out.primitives += 1;

            // One TriangleSetup per (primitive × tile), shared by rasterisation
            // and mip selection.
            let Some(setup) = TriangleSetup::from_vertices(tris.vertices(pidx)) else {
                continue;
            };
            let state = tris.state_of(pidx);
            let depth_write = state.blend == BlendMode::Opaque;
            // Depth-modifying shaders disable Early-Z: every covered fragment is
            // shaded and the visibility test happens after shading (Late-Z, §II-A).
            let late_z = state.shader.late_z;

            // Early-Z at emission: each quad is depth-tested as the rasteriser
            // emits it, and only a quad with lanes to shade is kept. Only
            // depth-passing lanes reach the Colour Buffer, Early- or Late-Z.
            let zbuffer = &mut self.zbuffer;
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
            if quads == 0 {
                continue;
            }
            fe += quads.div_ceil(self.costs.raster_quads_per_cycle.max(1))
                + quads * self.costs.earlyz_cycles_per_quad
                + surviving.len() as Cycle * self.costs.blend_cycles_per_quad;
            out.quads += quads;
            out.earlyz_killed += killed;

            // Assemble surviving quads into warps of `quads_per_warp`; each warp's
            // line lists land in the RU's per-frame arenas.
            let lod = select_mip(&state.texture, setup.uv_derivative);
            for group in surviving.chunks(self.quads_per_warp) {
                let fragments: u32 = group.iter().map(|(_, m)| m.count_ones()).sum();
                out.fragments += fragments as u64;
                let (lspan, espan) = gather_sample_lines_arena(
                    &mut self.lines,
                    &mut self.ends,
                    group,
                    &state.texture,
                    lod,
                    state.shader.tex_samples,
                    state.shader.filter,
                );
                out.warps.push(WarpWork {
                    arrival: fe,
                    tile,
                    shader: state.shader,
                    fragments,
                    lines: lspan,
                    ends: espan,
                });
            }
        }
        self.scratch_read_done = read_done;
        self.scratch_surviving = surviving;
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

    /// Full reset between independent runs.
    pub fn cold_reset(&mut self) {
        for c in &mut self.cores {
            c.cold_reset();
        }
        self.tile_l1.cold_reset();
        self.zbuffer.clear();
        self.next_core = 0;
        self.lines.reset();
        self.ends.reset();
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
    gather_lines_generic(
        group.len(),
        |i| (group[i].0.uv, group[i].1),
        texture,
        lod,
        tex_samples,
        filter,
        &mut out,
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

/// Where gathered sample lines land: an owned [`SampleLines`] (IMR mode,
/// tests) or the Raster Unit's per-frame arenas (the TBR hot path). Positions
/// index the sink's flat line storage.
trait LineSink {
    /// Lines stored so far.
    fn len(&self) -> usize;
    /// Appends `line` unless it already occurs at or after position `from`.
    fn push_unique(&mut self, from: usize, line: u64);
    /// Appends a copy of the lines at `src`, each plus `shift`.
    fn extend_shifted(&mut self, src: Range<usize>, shift: u64);
    /// Closes the stage being built.
    fn end_stage(&mut self);
}

impl LineSink for SampleLines {
    fn len(&self) -> usize {
        self.total_lines()
    }
    fn push_unique(&mut self, from: usize, line: u64) {
        let lines = self.lines_mut();
        if !lines[from..].contains(&line) {
            lines.push(line);
        }
    }
    fn extend_shifted(&mut self, src: Range<usize>, shift: u64) {
        let lines = self.lines_mut();
        let start = lines.len();
        lines.extend_from_within(src);
        lines[start..].iter_mut().for_each(|line| *line += shift);
    }
    fn end_stage(&mut self) {
        SampleLines::end_stage(self);
    }
}

/// Sink writing into a Raster Unit's per-frame arenas; stage end offsets are
/// recorded relative to `base` (the warp's first line), matching the
/// [`SampleLinesRef`] contract.
struct ArenaSink<'a> {
    lines: &'a mut Arena<u64>,
    ends: &'a mut Arena<u32>,
    base: usize,
}

impl LineSink for ArenaSink<'_> {
    fn len(&self) -> usize {
        self.lines.len()
    }
    fn push_unique(&mut self, from: usize, line: u64) {
        if !self.lines.get(self.lines.span_since(from)).contains(&line) {
            self.lines.push(line);
        }
    }
    fn extend_shifted(&mut self, src: Range<usize>, shift: u64) {
        let copy = self.lines.extend_from_within(src);
        self.lines.get_mut(copy).iter_mut().for_each(|line| *line += shift);
    }
    fn end_stage(&mut self) {
        self.ends.push((self.lines.len() - self.base) as u32);
    }
}

/// Gathers one warp's sample lines straight into the RU's arenas, returning the
/// `(lines, ends)` spans for its [`WarpWork`]. `group` holds each quad's
/// texture coordinates and shade mask.
fn gather_sample_lines_arena(
    lines: &mut Arena<u64>,
    ends: &mut Arena<u32>,
    group: &[([(f32, f32); 4], u8)],
    texture: &TextureDesc,
    lod: u32,
    tex_samples: u32,
    filter: FilterMode,
) -> (Span, Span) {
    let lmark = lines.mark();
    let emark = ends.mark();
    let mut sink = ArenaSink { base: lmark, lines, ends };
    gather_lines_generic(group.len(), |i| group[i], texture, lod, tex_samples, filter, &mut sink);
    (lines.span_since(lmark), ends.span_since(emark))
}

/// Collects, per texture-sample instruction, the cache-line requests of a warp's
/// quads — the single body behind the owned ([`gather_sample_lines_for`]) and
/// arena ([`gather_sample_lines_arena`]) paths, so the two cannot diverge.
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
#[allow(clippy::too_many_arguments)]
fn gather_lines_generic<S: LineSink>(
    count: usize,
    mut quad_of: impl FnMut(usize) -> ([(f32, f32); 4], u8),
    texture: &TextureDesc,
    lod: u32,
    tex_samples: u32,
    filter: FilterMode,
    sink: &mut S,
) {
    if tex_samples == 0 {
        return;
    }
    let addr = MipAddresser::new(texture, lod, 0);
    let stage0 = sink.len();
    for i in 0..count {
        let (uv, pass) = quad_of(i);
        let quad = sink.len();
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
    let stage0 = stage0..sink.len();
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
