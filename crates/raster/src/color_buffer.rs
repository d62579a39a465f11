//! The tile-sized on-chip Colour Buffer and the Blending Unit.
//!
//! §II-A: "output colors are processed by the Blending Unit to properly combine them
//! with the ones already in the same position in the *Color Buffer* […] once all the
//! primitives in the current tile have been completely rendered, the content of the
//! Color Buffer is flushed to the *Frame Buffer*."
//!
//! The timing model charges blending and the flush without computing a colour:
//! the flush writes every line of the tile ([`flush_line_addrs`]) whatever its
//! pixels hold. A [`ColorBuffer`] is written only when an image is wanted, by
//! [`crate::raster_unit::RasterUnit::render_tile_image`].

use crate::quad::Quad;
use tbr_common::addr::framebuffer_addr;
use tbr_common::config::ScreenConfig;
use tbr_common::ids::TileId;
use tbr_geom::scene::BlendMode;

/// Tile-local colour storage (RGBA8 packed as `0xAABBGGRR`).
#[derive(Debug, Clone)]
pub struct ColorBuffer {
    size: u32,
    pixels: Vec<u32>,
}

/// The colour tiles are cleared to at the start of each tile (dark grey).
pub const CLEAR_COLOR: u32 = 0xFF20_2020;

fn blend_alpha(dst: u32, src: u32) -> u32 {
    // Fixed 50 % source-over blend — enough to exercise read-modify-write behaviour
    // and produce plausible images.
    let mut out = 0xFF00_0000u32;
    for shift in [0u32, 8, 16] {
        let d = (dst >> shift) & 0xFF;
        let s = (src >> shift) & 0xFF;
        out |= (((d + s) / 2) & 0xFF) << shift;
    }
    out
}

impl ColorBuffer {
    /// A cleared buffer for a `size`×`size` tile.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "tile size must be non-zero");
        Self { size, pixels: vec![CLEAR_COLOR; (size * size) as usize] }
    }

    /// Clears for the next tile.
    pub fn clear(&mut self) {
        self.pixels.fill(CLEAR_COLOR);
    }

    /// Writes the surviving lanes of a shaded quad. Coordinates are screen-space;
    /// `(tile_x0, tile_y0)` is the tile origin.
    pub fn write_quad(
        &mut self,
        quad: &Quad,
        surviving: u8,
        colors: [u32; 4],
        blend: BlendMode,
        tile_x0: u32,
        tile_y0: u32,
    ) {
        for (lane, &color) in colors.iter().enumerate() {
            if surviving & (1 << lane) == 0 {
                continue;
            }
            let (px, py) = quad.lane_pixel(lane);
            let lx = px - tile_x0;
            let ly = py - tile_y0;
            debug_assert!(lx < self.size && ly < self.size, "quad outside tile");
            let idx = (ly * self.size + lx) as usize;
            self.pixels[idx] = match blend {
                BlendMode::Opaque => color,
                BlendMode::AlphaBlend => blend_alpha(self.pixels[idx], color),
            };
        }
    }

    /// The stored colour at tile-local `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the tile.
    pub fn color_at(&self, x: u32, y: u32) -> u32 {
        assert!(x < self.size && y < self.size, "coordinate outside tile");
        self.pixels[(y * self.size + x) as usize]
    }

    /// Copies the tile's pixels into a full-frame image at the tile's position
    /// (used by the reference renderer / examples).
    pub fn blit_to(&self, tile: TileId, screen: &ScreenConfig, frame: &mut [u32]) {
        let (x0, y0, x1, y1) = screen.tile_rect(tile);
        for y in y0..y1 {
            for x in x0..x1 {
                frame[(y * screen.width + x) as usize] = self.color_at(x - x0, y - y0);
            }
        }
    }
}

/// The 64 B-line framebuffer addresses the flush of `tile` writes, row by row
/// (16 RGBA8 pixels per line, clipped to the screen). They depend only on the
/// tile's place on the screen, never on the pixels written.
pub fn flush_line_addrs(tile: TileId, screen: &ScreenConfig) -> impl Iterator<Item = u64> + '_ {
    let (x0, y0, x1, y1) = screen.tile_rect(tile);
    (y0..y1).flat_map(move |y| (x0..x1).step_by(16).map(move |x| framebuffer_addr(screen, x, y)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_at(x: u32, y: u32) -> Quad {
        Quad { x, y, mask: 0xF, z: [0.5; 4], uv: [(0.0, 0.0); 4] }
    }

    #[test]
    fn opaque_write_overwrites() {
        let mut cb = ColorBuffer::new(32);
        cb.write_quad(&quad_at(0, 0), 0xF, [0xFF0000FF; 4], BlendMode::Opaque, 0, 0);
        assert_eq!(cb.color_at(0, 0), 0xFF0000FF);
        assert_eq!(cb.color_at(1, 1), 0xFF0000FF);
        // Unwritten pixel keeps the clear colour.
        assert_eq!(cb.color_at(5, 5), CLEAR_COLOR);
    }

    #[test]
    fn alpha_blend_mixes_channels() {
        let mut cb = ColorBuffer::new(32);
        cb.write_quad(&quad_at(0, 0), 0xF, [0xFF0000FF; 4], BlendMode::Opaque, 0, 0);
        cb.write_quad(&quad_at(0, 0), 0xF, [0xFF000001; 4], BlendMode::AlphaBlend, 0, 0);
        // R channel: (0xFF + 0x01) / 2 = 0x80.
        assert_eq!(cb.color_at(0, 0) & 0xFF, 0x80);
    }

    #[test]
    fn surviving_mask_limits_writes() {
        let mut cb = ColorBuffer::new(32);
        cb.write_quad(&quad_at(0, 0), 0b0001, [0xFFFFFFFF; 4], BlendMode::Opaque, 0, 0);
        assert_eq!(cb.color_at(0, 0), 0xFFFFFFFF);
        assert_eq!(cb.color_at(1, 0), CLEAR_COLOR);
    }

    #[test]
    fn flush_addr_count_matches_tile_bytes() {
        let s = ScreenConfig::tiny(); // 32px tiles
        let addrs: Vec<u64> = flush_line_addrs(TileId(0), &s).collect();
        // 32 rows x 32 px x 4 B = 4096 B = 64 lines.
        assert_eq!(addrs.len(), 64);
        // All distinct.
        let set: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn flush_addrs_clip_to_screen_edge() {
        let s = ScreenConfig { width: 100, height: 50, tile_size: 32 };
        // Rightmost tile column covers x in [96, 100): 4px -> still 1 line per row.
        let last_col = s.tile_id(tbr_common::ids::TileCoord::new(s.tiles_x() - 1, 0));
        assert_eq!(flush_line_addrs(last_col, &s).count(), 32); // 32 rows x 1 segment
    }

    #[test]
    fn blit_places_tile_at_its_screen_position() {
        let s = ScreenConfig::tiny();
        let mut cb = ColorBuffer::new(32);
        cb.write_quad(&quad_at(34, 2), 0b0001, [0xAA; 4], BlendMode::Opaque, 32, 0);
        let mut frame = vec![0u32; (s.width * s.height) as usize];
        cb.blit_to(TileId(1), &s, &mut frame);
        assert_eq!(frame[(2 * s.width + 34) as usize], 0xAA);
    }
}
