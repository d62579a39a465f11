//! Simulated-GPU configuration.
//!
//! The defaults mirror Table I of the paper: an 800 MHz mobile GPU rendering a
//! Full-HD screen split into 32×32-pixel tiles, with per-core 32 KB texture caches, a
//! 4 KB vertex cache, a 32 KB tile cache, a shared 2 MB L2 and LPDDR4 main memory with
//! a 50–100-cycle latency range. The *baseline* GPU has a single Raster Unit with
//! eight shader cores; *LIBRA* distributes the same cores across multiple Raster Units
//! (two RUs × four cores in the paper's main evaluation).

use crate::error::ConfigError;
use crate::ids::{TileCoord, TileId};
use crate::Cycle;

/// Screen geometry: resolution and tile size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScreenConfig {
    /// Horizontal resolution in pixels.
    pub width: u32,
    /// Vertical resolution in pixels.
    pub height: u32,
    /// Edge of the square tile in pixels (32 in Table I).
    pub tile_size: u32,
}

impl ScreenConfig {
    /// Full HD (1920×1080), the resolution used in the paper. 60×34 tiles = 2040
    /// tiles = 510 2×2 supertiles (§III-E). Note 1080 is not a multiple of 32; like
    /// real hardware the bottom row of tiles is clipped to 24 pixels, which this model
    /// handles by rounding the grid up.
    pub fn fhd() -> Self {
        Self { width: 1920, height: 1088, tile_size: 32 }
    }

    /// Quarter-FHD (960×544): exactly 30×17 = 510 tiles of 32×32 pixels — the same
    /// tile count as the paper's 510 2×2 supertiles at FHD. This is the default
    /// experiment resolution (see `DESIGN.md` §1 for the substitution rationale).
    pub fn quarter_fhd() -> Self {
        Self { width: 960, height: 544, tile_size: 32 }
    }

    /// A small 256×128 screen (8×4 tiles) for fast unit and property tests.
    pub fn tiny() -> Self {
        Self { width: 256, height: 128, tile_size: 32 }
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile_size)
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile_size)
    }

    /// Total number of tiles in a frame.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        (self.tiles_x() * self.tiles_y()) as usize
    }

    /// Converts a linear tile id to its 2-D grid coordinate.
    ///
    /// # Panics
    /// Panics if `id` is out of range for this screen.
    #[inline]
    pub fn tile_coord(&self, id: TileId) -> TileCoord {
        let tx = self.tiles_x();
        assert!(id.0 < tx * self.tiles_y(), "tile id {id} out of range");
        TileCoord::new(id.0 % tx, id.0 / tx)
    }

    /// Converts a 2-D grid coordinate to its linear tile id.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the grid.
    #[inline]
    pub fn tile_id(&self, coord: TileCoord) -> TileId {
        assert!(
            coord.x < self.tiles_x() && coord.y < self.tiles_y(),
            "tile coord {coord} out of range"
        );
        TileId(coord.y * self.tiles_x() + coord.x)
    }

    /// The pixel rectangle `(x0, y0, x1, y1)` covered by a tile (exclusive max,
    /// clipped to the screen).
    pub fn tile_rect(&self, id: TileId) -> (u32, u32, u32, u32) {
        let c = self.tile_coord(id);
        let x0 = c.x * self.tile_size;
        let y0 = c.y * self.tile_size;
        (x0, y0, (x0 + self.tile_size).min(self.width), (y0 + self.tile_size).min(self.height))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if the tile size is zero or not a power of two, or the
    /// resolution is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tile_size == 0 {
            return Err(ConfigError::Zero { field: "tile_size" });
        }
        if !self.tile_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "tile_size",
                value: self.tile_size as u64,
            });
        }
        if self.width == 0 {
            return Err(ConfigError::Zero { field: "width" });
        }
        if self.height == 0 {
            return Err(ConfigError::Zero { field: "height" });
        }
        Ok(())
    }
}

impl Default for ScreenConfig {
    fn default() -> Self {
        Self::quarter_fhd()
    }
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes — 64 B everywhere in Table I.
    pub line_bytes: u64,
    /// Associativity (number of ways).
    pub assoc: u64,
    /// Access (hit) latency in GPU cycles.
    pub latency: Cycle,
    /// Cycles the access port is occupied per request (throughput limit).
    pub port_occupancy: Cycle,
    /// Miss Status Holding Registers: maximum outstanding misses. A miss that finds
    /// all MSHRs busy stalls until the earliest outstanding fill returns. This is
    /// what bounds a cache's memory-level parallelism and makes DRAM latency (and
    /// congestion) visible to the pipeline. `0` = unlimited.
    pub mshrs: u64,
}

impl CacheConfig {
    /// Table I vertex cache: 4 KB, 2-way, 64 B lines, 1-cycle.
    pub fn vertex_l1() -> Self {
        Self { size_bytes: 4 << 10, line_bytes: 64, assoc: 2, latency: 1, port_occupancy: 1, mshrs: 4 }
    }

    /// Table I tile cache: 32 KB, 4-way, 64 B lines, 2-cycle.
    pub fn tile_l1() -> Self {
        Self { size_bytes: 32 << 10, line_bytes: 64, assoc: 4, latency: 2, port_occupancy: 1, mshrs: 8 }
    }

    /// Table I per-core texture cache: 32 KB, 4-way, 64 B lines, 2-cycle.
    pub fn texture_l1() -> Self {
        Self { size_bytes: 32 << 10, line_bytes: 64, assoc: 4, latency: 2, port_occupancy: 1, mshrs: 12 }
    }

    /// Table I shared L2: 2 MB, 8-way, 64 B lines, 18-cycle.
    pub fn shared_l2() -> Self {
        Self { size_bytes: 2 << 20, line_bytes: 64, assoc: 8, latency: 18, port_occupancy: 1, mshrs: 48 }
    }

    /// Number of sets implied by the geometry.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    /// Returns [`ConfigError`] when any field is zero, the line size is not a power of
    /// two, or the capacity is not divisible into whole sets.
    pub fn validate(&self, name: &'static str) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.assoc == 0 {
            return Err(ConfigError::Zero { field: name });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { field: "line_bytes", value: self.line_bytes });
        }
        if !self.size_bytes.is_multiple_of(self.line_bytes * self.assoc)
            || !self.num_sets().is_power_of_two()
        {
            return Err(ConfigError::CacheGeometry {
                cache: name,
                size_bytes: self.size_bytes,
                line_bytes: self.line_bytes,
                assoc: self.assoc,
            });
        }
        Ok(())
    }
}

/// Row-buffer management policy of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Leave the row open after an access (best for streaming; the default, and what
    /// the row-hit/row-miss latencies of Table I imply).
    #[default]
    Open,
    /// Auto-precharge after every access: every access pays the full
    /// activate-plus-CAS latency, but never a precharge-on-conflict.
    Closed,
}

/// LPDDR4-like main-memory timing (all values in GPU cycles at 800 MHz).
///
/// Contention is modelled by reservation: each bank and each channel data bus keeps a
/// `next_free` cycle, so the *effective* latency of a request grows with offered load —
/// the queueing behaviour the paper's whole premise rests on ("the response time of
/// memory increases asymptotically as the utilization factor approaches 100%").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Independent channels (each with its own data bus).
    pub channels: u64,
    /// Banks per channel (row buffers that can be open simultaneously).
    pub banks_per_channel: u64,
    /// Bytes covered by one open row (row-buffer size).
    pub row_bytes: u64,
    /// Latency of a read that hits the open row (Table I lower bound: 50 cycles).
    pub row_hit_latency: Cycle,
    /// Latency of a read that must precharge + activate (Table I upper bound: 100).
    pub row_miss_latency: Cycle,
    /// Data-bus occupancy per 64 B burst, per channel.
    pub burst_cycles: Cycle,
    /// Bank busy time per serviced request (rate limit per bank).
    pub bank_occupancy: Cycle,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Cycles between per-bank refreshes (tREFI; 0 disables refresh).
    pub refresh_interval: Cycle,
    /// Cycles a bank is blocked per refresh (tRFC).
    pub refresh_latency: Cycle,
}

impl DramConfig {
    /// Table I LPDDR4 @1.2 GHz seen from an 800 MHz GPU: 50–100-cycle latency,
    /// 2 channels × 8 banks, 2 KB rows, ~12 B/GPU-cycle per channel.
    pub fn lpddr4() -> Self {
        Self {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 2048,
            row_hit_latency: 50,
            row_miss_latency: 100,
            burst_cycles: 5,
            bank_occupancy: 10,
            page_policy: PagePolicy::Open,
            // LPDDR4 tREFI ~= 3.9 us, tRFC ~= 130 ns, in 800 MHz GPU cycles.
            refresh_interval: 3120,
            refresh_latency: 104,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`ConfigError`] when a structural field is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("channels", self.channels),
            ("banks_per_channel", self.banks_per_channel),
            ("row_bytes", self.row_bytes),
        ] {
            if v == 0 {
                return Err(ConfigError::Zero { field });
            }
        }
        if !self.row_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { field: "row_bytes", value: self.row_bytes });
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr4()
    }
}

/// Fixed-function pipeline costs (cycles), used by the analytically-timed geometry
/// phase and the raster front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineCosts {
    /// Vertex-shader cycles per vertex (user program, ALU dominated).
    pub vertex_shade_cycles: Cycle,
    /// Primitive assembly + cull/clip test cycles per primitive.
    pub prim_assembly_cycles: Cycle,
    /// Polygon-list-builder cycles per (primitive, tile) binning insertion.
    pub bin_insert_cycles: Cycle,
    /// Rasteriser setup cycles per primitive entering a tile.
    pub raster_setup_cycles: Cycle,
    /// Rasteriser throughput: quads (2×2 fragments) emitted per cycle.
    pub raster_quads_per_cycle: Cycle,
    /// Early-Z test cycles per quad (0 = pipelined behind the rasteriser).
    pub earlyz_cycles_per_quad: Cycle,
    /// Blend cycles per quad on the front-end (0 = the Blending Unit runs in
    /// parallel with rasterisation, as in real hardware).
    pub blend_cycles_per_quad: Cycle,
    /// Colour-buffer flush: cycles of RU front-end occupancy per 64 B line written to
    /// the framebuffer (the DRAM write itself is timed by the memory model).
    pub flush_cycles_per_line: Cycle,
}

impl Default for PipelineCosts {
    fn default() -> Self {
        Self {
            vertex_shade_cycles: 12,
            prim_assembly_cycles: 4,
            bin_insert_cycles: 2,
            raster_setup_cycles: 2,
            raster_quads_per_cycle: 4,
            earlyz_cycles_per_quad: 0,
            blend_cycles_per_quad: 0,
            flush_cycles_per_line: 1,
        }
    }
}

/// The most Raster Units a [`GpuConfig`] may have: one per
/// [`RasterUnitId`](crate::ids::RasterUnitId) value.
pub const MAX_RASTER_UNITS: usize = 256;

/// Complete configuration of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Screen geometry.
    pub screen: ScreenConfig,
    /// Number of Raster Units (1 = conventional TBR GPU; ≥2 = PTR/LIBRA).
    pub num_raster_units: usize,
    /// Shader cores per Raster Unit.
    pub cores_per_ru: usize,
    /// Threads per warp (32, i.e. 8 quads).
    pub warp_size: u32,
    /// Maximum resident warps per shader core (multithreading depth).
    pub max_warps_per_core: usize,
    /// Vertex cache (geometry pipeline L1).
    pub vertex_cache: CacheConfig,
    /// Tile cache (parameter-buffer L1, one per Raster Unit).
    pub tile_cache: CacheConfig,
    /// Texture cache (one per shader core).
    pub texture_cache: CacheConfig,
    /// Shared L2.
    pub l2_cache: CacheConfig,
    /// Main-memory model.
    pub dram: DramConfig,
    /// Fixed-function stage costs.
    pub costs: PipelineCosts,
    /// When `true`, every L1 access hits (perfect memory) — used to measure the
    /// memory-boundedness of a workload (Fig 6a).
    pub ideal_memory: bool,
    /// Core clock in MHz (800 in Table I); used only to convert cycles to FPS.
    pub freq_mhz: u64,
    /// DRAM-request histogram bucket width in cycles (5000 in Fig 7).
    pub dram_interval_cycles: Cycle,
}

impl GpuConfig {
    /// The paper's baseline GPU: one Raster Unit with eight shader cores.
    pub fn baseline(screen: ScreenConfig) -> Self {
        Self::single_ru(screen, 8)
    }

    /// A conventional single-RU GPU with `cores` shader cores (Fig 4 uses 4 and 8).
    pub fn single_ru(screen: ScreenConfig, cores: usize) -> Self {
        Self {
            screen,
            num_raster_units: 1,
            cores_per_ru: cores,
            warp_size: 32,
            max_warps_per_core: 16,
            vertex_cache: CacheConfig::vertex_l1(),
            tile_cache: CacheConfig::tile_l1(),
            texture_cache: CacheConfig::texture_l1(),
            l2_cache: CacheConfig::shared_l2(),
            dram: DramConfig::lpddr4(),
            costs: PipelineCosts::default(),
            ideal_memory: false,
            freq_mhz: 800,
            dram_interval_cycles: 5000,
        }
    }

    /// The PTR/LIBRA organisation: `num_raster_units` Raster Units with four cores
    /// each (Table I: LIBRA = 2 RUs × 4 cores vs baseline 1 RU × 8 cores).
    pub fn libra(screen: ScreenConfig, num_raster_units: usize) -> Self {
        let mut cfg = Self::single_ru(screen, 4);
        cfg.num_raster_units = num_raster_units;
        cfg
    }

    /// Total shader cores across all Raster Units.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.num_raster_units * self.cores_per_ru
    }

    /// Quads per warp (`warp_size / 4`).
    #[inline]
    pub fn quads_per_warp(&self) -> u32 {
        self.warp_size / 4
    }

    /// Returns a copy with ideal (always-hit) memory, for Fig 6a's compute/memory
    /// breakdown.
    pub fn with_ideal_memory(mut self) -> Self {
        self.ideal_memory = true;
        self
    }

    /// Frames per second achieved when every frame costs `cycles_per_frame` cycles.
    pub fn fps(&self, cycles_per_frame: f64) -> f64 {
        if cycles_per_frame <= 0.0 {
            return 0.0;
        }
        (self.freq_mhz as f64) * 1.0e6 / cycles_per_frame
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found in the screen, cache, or DRAM
    /// sub-configurations, or in the top-level structural fields.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.screen.validate()?;
        if self.num_raster_units == 0 {
            return Err(ConfigError::Zero { field: "num_raster_units" });
        }
        // Raster Unit ids are `u8`s: a 257th RU would alias RU 0.
        if self.num_raster_units > MAX_RASTER_UNITS {
            return Err(ConfigError::TooLarge {
                field: "num_raster_units",
                value: self.num_raster_units as u64,
                max: MAX_RASTER_UNITS as u64,
            });
        }
        if self.cores_per_ru == 0 {
            return Err(ConfigError::Zero { field: "cores_per_ru" });
        }
        if self.warp_size == 0 || !self.warp_size.is_multiple_of(4) {
            return Err(ConfigError::Zero { field: "warp_size" });
        }
        if self.max_warps_per_core == 0 {
            return Err(ConfigError::Zero { field: "max_warps_per_core" });
        }
        self.vertex_cache.validate("vertex_cache")?;
        self.tile_cache.validate("tile_cache")?;
        self.texture_cache.validate("texture_cache")?;
        self.l2_cache.validate("l2_cache")?;
        self.dram.validate()?;
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::baseline(ScreenConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_fhd_has_510_tiles() {
        let s = ScreenConfig::quarter_fhd();
        assert_eq!((s.tiles_x(), s.tiles_y()), (30, 17));
        assert_eq!(s.num_tiles(), 510);
    }

    #[test]
    fn fhd_has_2040_tiles_matching_510_2x2_supertiles() {
        let s = ScreenConfig::fhd();
        assert_eq!(s.num_tiles(), 2040);
        assert_eq!(s.num_tiles() / 4, 510);
    }

    #[test]
    fn tile_id_coord_roundtrip() {
        let s = ScreenConfig::quarter_fhd();
        for i in 0..s.num_tiles() as u32 {
            let id = TileId(i);
            assert_eq!(s.tile_id(s.tile_coord(id)), id);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_coord_out_of_range_panics() {
        let s = ScreenConfig::tiny();
        let _ = s.tile_coord(TileId(s.num_tiles() as u32));
    }

    #[test]
    fn tile_rect_clips_to_screen() {
        let s = ScreenConfig { width: 100, height: 50, tile_size: 32 };
        // Last tile column/row only partially covered.
        let last = s.tile_id(TileCoord::new(s.tiles_x() - 1, s.tiles_y() - 1));
        let (x0, y0, x1, y1) = s.tile_rect(last);
        assert_eq!((x1, y1), (100, 50));
        assert!(x0 < x1 && y0 < y1);
    }

    #[test]
    fn table1_cache_presets() {
        assert_eq!(CacheConfig::vertex_l1().size_bytes, 4096);
        assert_eq!(CacheConfig::vertex_l1().assoc, 2);
        assert_eq!(CacheConfig::tile_l1().size_bytes, 32 << 10);
        assert_eq!(CacheConfig::texture_l1().latency, 2);
        assert_eq!(CacheConfig::shared_l2().size_bytes, 2 << 20);
        assert_eq!(CacheConfig::shared_l2().assoc, 8);
        assert_eq!(CacheConfig::shared_l2().latency, 18);
        for (name, c) in [
            ("vertex", CacheConfig::vertex_l1()),
            ("tile", CacheConfig::tile_l1()),
            ("texture", CacheConfig::texture_l1()),
            ("l2", CacheConfig::shared_l2()),
        ] {
            c.validate(name).unwrap();
            assert!(c.num_sets().is_power_of_two());
        }
    }

    #[test]
    fn dram_preset_matches_table1_latency_band() {
        let d = DramConfig::lpddr4();
        assert_eq!(d.row_hit_latency, 50);
        assert_eq!(d.row_miss_latency, 100);
        d.validate().unwrap();
    }

    #[test]
    fn baseline_and_libra_have_equal_total_cores() {
        let s = ScreenConfig::quarter_fhd();
        let base = GpuConfig::baseline(s);
        let libra = GpuConfig::libra(s, 2);
        assert_eq!(base.total_cores(), 8);
        assert_eq!(libra.total_cores(), 8);
        assert_eq!(libra.num_raster_units, 2);
        base.validate().unwrap();
        libra.validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = GpuConfig { num_raster_units: 0, ..GpuConfig::default() };
        assert!(matches!(c.validate(), Err(ConfigError::Zero { field: "num_raster_units" })));

        // warp_size 30: not a multiple of 4.
        let c = GpuConfig { warp_size: 30, ..GpuConfig::default() };
        assert!(c.validate().is_err());

        let mut c = GpuConfig::default();
        c.l2_cache.size_bytes = 1000;
        assert!(matches!(c.validate(), Err(ConfigError::CacheGeometry { cache: "l2_cache", .. })));

        let bad_screen = ScreenConfig { width: 0, height: 10, tile_size: 32 };
        assert!(bad_screen.validate().is_err());
        let bad_tile = ScreenConfig { width: 64, height: 64, tile_size: 33 };
        assert!(matches!(bad_tile.validate(), Err(ConfigError::NotPowerOfTwo { .. })));
    }

    #[test]
    fn fps_conversion() {
        let cfg = GpuConfig::default();
        // 800 MHz, 8 M cycles/frame -> 100 FPS.
        assert!((cfg.fps(8.0e6) - 100.0).abs() < 1e-9);
        assert_eq!(cfg.fps(0.0), 0.0);
    }

    #[test]
    fn ideal_memory_builder() {
        let cfg = GpuConfig::default().with_ideal_memory();
        assert!(cfg.ideal_memory);
    }
}
