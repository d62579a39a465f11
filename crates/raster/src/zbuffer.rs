//! The tile-sized on-chip Z-Buffer and the Early-Z test.
//!
//! §II-A: "This stage aims to eliminate fragments that are known to be occluded by a
//! previously processed one. This is accomplished by employing a tile-sized on-chip
//! buffer called *Z-Buffer* that stores the depth value of the closest fragment
//! processed for each tile's pixel position so far." The Z-Buffer never needs to be
//! written to main memory (§II-C).
//!
//! The buffer holds one `[f32; 4]` slot group per 2×2 quad of the quad grid, in
//! lane order, so a quad's test reads and writes one group. Groups are indexed
//! from the tile origin rounded down to the quad grid, in a buffer at least 2
//! pixels wide: a quad that straddles the edge of a tile whose origin is odd
//! (1-pixel tiles) still lands on one group, and its lanes outside the tile are
//! masked off by the rasteriser.

use crate::quad::Quad;

/// Tile-local depth buffer; depth test is less-or-equal (smaller = closer).
#[derive(Debug, Clone)]
pub struct ZBuffer {
    size: u32,
    /// Quad groups per row: the tile edge rounded up to the quad grid, halved.
    row: u32,
    quads: Vec<[f32; 4]>,
}

impl ZBuffer {
    /// A cleared buffer for a `size`×`size` tile.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "tile size must be non-zero");
        let row = size.div_ceil(2);
        Self { size, row, quads: vec![[f32::INFINITY; 4]; (row * row) as usize] }
    }

    /// Clears to "infinitely far" for the next tile.
    pub fn clear(&mut self) {
        self.quads.fill([f32::INFINITY; 4]);
    }

    /// Depth-tests a quad whose coordinates are relative to the tile origin
    /// `(tile_x0, tile_y0)`. Returns the surviving mask: the covered lanes whose
    /// depth is less than or equal to the stored one. When `depth_write` is true
    /// (opaque geometry) passing fragments update the buffer; transparent
    /// geometry tests but does not write.
    ///
    /// All four lanes are compared at once and the mask is applied after, so the
    /// test has no per-lane branch; an uncovered lane never passes and its slot
    /// is never written. A NaN depth on either side fails.
    pub fn test_quad(&mut self, quad: &Quad, tile_x0: u32, tile_y0: u32, depth_write: bool) -> u8 {
        let lx = quad.x - (tile_x0 & !1);
        let ly = quad.y - (tile_y0 & !1);
        debug_assert!(lx < 2 * self.row && ly < 2 * self.row, "quad outside tile");
        let slots = &mut self.quads[((ly / 2) * self.row + lx / 2) as usize];
        let pass = (0..4).fold(0u8, |m, lane| m | ((quad.z[lane] <= slots[lane]) as u8) << lane)
            & quad.mask;
        if depth_write {
            for (lane, (slot, &z)) in slots.iter_mut().zip(&quad.z).enumerate() {
                *slot = if pass & (1 << lane) != 0 { z } else { *slot };
            }
        }
        pass
    }

    /// The stored depth at screen pixel `(x, y)` of the tile whose origin is
    /// `(tile_x0, tile_y0)`.
    ///
    /// # Panics
    /// Panics if the pixel is outside the tile.
    pub fn depth_at(&self, x: u32, y: u32, tile_x0: u32, tile_y0: u32) -> f32 {
        assert!(
            x >= tile_x0 && y >= tile_y0 && x - tile_x0 < self.size && y - tile_y0 < self.size,
            "coordinate outside tile"
        );
        let lx = x - (tile_x0 & !1);
        let ly = y - (tile_y0 & !1);
        self.quads[((ly / 2) * self.row + lx / 2) as usize][((ly & 1) * 2 + (lx & 1)) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::rng::{splitmix64_mix, Xoshiro256pp};

    fn quad_at(x: u32, y: u32, z: f32) -> Quad {
        Quad { x, y, mask: 0xF, z: [z; 4], uv: [(0.0, 0.0); 4] }
    }

    #[test]
    fn first_fragment_always_passes() {
        let mut zb = ZBuffer::new(32);
        let q = quad_at(0, 0, 0.5);
        assert_eq!(zb.test_quad(&q, 0, 0, true), 0xF);
        assert_eq!(zb.depth_at(1, 1, 0, 0), 0.5);
    }

    #[test]
    fn closer_fragment_overwrites_farther_is_killed() {
        let mut zb = ZBuffer::new(32);
        zb.test_quad(&quad_at(0, 0, 0.5), 0, 0, true);
        // Farther fragment: killed, and the stored depth stays.
        assert_eq!(zb.test_quad(&quad_at(0, 0, 0.9), 0, 0, true), 0);
        assert_eq!(zb.depth_at(0, 0, 0, 0), 0.5);
        // Closer fragment: passes and updates.
        assert_eq!(zb.test_quad(&quad_at(0, 0, 0.1), 0, 0, true), 0xF);
        assert_eq!(zb.depth_at(0, 0, 0, 0), 0.1);
    }

    #[test]
    fn equal_depth_passes() {
        let mut zb = ZBuffer::new(32);
        zb.test_quad(&quad_at(0, 0, 0.5), 0, 0, true);
        assert_eq!(zb.test_quad(&quad_at(0, 0, 0.5), 0, 0, true), 0xF);
    }

    #[test]
    fn transparent_geometry_tests_without_writing() {
        let mut zb = ZBuffer::new(32);
        // Transparent quad at 0.3 passes but doesn't write...
        assert_eq!(zb.test_quad(&quad_at(0, 0, 0.3), 0, 0, false), 0xF);
        // ...so a later opaque quad at 0.5 still passes.
        assert_eq!(zb.test_quad(&quad_at(0, 0, 0.5), 0, 0, true), 0xF);
    }

    #[test]
    fn tile_origin_offset_is_applied() {
        let mut zb = ZBuffer::new(32);
        // Quad at screen (64, 32) in the tile whose origin is (64, 32) -> local (0,0).
        let q = quad_at(64, 32, 0.2);
        zb.test_quad(&q, 64, 32, true);
        assert_eq!(zb.depth_at(64, 32, 64, 32), 0.2);
    }

    #[test]
    fn partial_masks_only_test_covered_lanes() {
        let mut zb = ZBuffer::new(32);
        let mut q = quad_at(0, 0, 0.5);
        q.mask = 0b0101;
        assert_eq!(zb.test_quad(&q, 0, 0, true), 0b0101);
        // The untested lanes are still at infinity.
        assert_eq!(zb.depth_at(1, 0, 0, 0), f32::INFINITY);
    }

    #[test]
    fn clear_resets_everything() {
        let mut zb = ZBuffer::new(32);
        zb.test_quad(&quad_at(0, 0, 0.5), 0, 0, true);
        zb.clear();
        assert_eq!(zb.depth_at(0, 0, 0, 0), f32::INFINITY);
    }

    /// The lane-by-lane Early-Z test over a row-major `size × size` buffer
    /// indexed from the tile origin: the definition the four-lane
    /// [`ZBuffer::test_quad`] is compared against.
    struct RefZBuffer {
        size: u32,
        depths: Vec<f32>,
    }

    impl RefZBuffer {
        fn new(size: u32) -> Self {
            Self { size, depths: vec![f32::INFINITY; (size * size) as usize] }
        }

        #[allow(clippy::too_many_arguments)]
        fn test_lanes(
            &mut self,
            x: u32,
            y: u32,
            mask: u8,
            z: &[f32; 4],
            tile_x0: u32,
            tile_y0: u32,
            depth_write: bool,
        ) -> u8 {
            let mut surviving = 0u8;
            for (lane, &lane_z) in z.iter().enumerate() {
                if mask & (1 << lane) == 0 {
                    continue;
                }
                let px = x + (lane as u32 & 1);
                let py = y + (lane as u32 >> 1);
                let lx = px - tile_x0;
                let ly = py - tile_y0;
                assert!(lx < self.size && ly < self.size, "quad outside tile");
                let idx = (ly * self.size + lx) as usize;
                if lane_z <= self.depths[idx] {
                    surviving |= 1 << lane;
                    if depth_write {
                        self.depths[idx] = lane_z;
                    }
                }
            }
            surviving
        }
    }

    #[test]
    fn four_lane_test_matches_the_per_lane_reference() {
        // Depths drawn from a small palette so that equal depths, signed
        // zeros and the non-finite values meet often.
        const PALETTE: [f32; 8] =
            [0.0, -0.0, 0.5, 0.25, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0];
        let (mut lanes_passed, mut lanes_killed, mut odd_origins) = (0u64, 0u64, 0u64);
        for case in 0..3000u64 {
            let seed = splitmix64_mix(0x2B0F_0000 ^ case);
            let mut g = Xoshiro256pp::seed_from_u64(seed);
            let size = [1, 2, 3, 4, 8, 32][g.gen_u32(6) as usize];
            let (tx0, ty0) = (size * g.gen_u32(5), size * g.gen_u32(5));
            odd_origins += ((tx0 | ty0) & 1) as u64;
            let mut zb = ZBuffer::new(size);
            let mut reference = RefZBuffer::new(size);
            for step in 0..24 {
                // A quad of the quad grid that overlaps the tile; its mask
                // keeps only lanes inside the tile, as the rasteriser's does.
                let overlapping = |t0: u32| (t0 + size - 1) / 2 - t0 / 2 + 1;
                let qx = (tx0 & !1) + 2 * g.gen_u32(overlapping(tx0));
                let qy = (ty0 & !1) + 2 * g.gen_u32(overlapping(ty0));
                let inside = |lane: u32| {
                    let (px, py) = (qx + (lane & 1), qy + (lane >> 1));
                    px >= tx0 && px < tx0 + size && py >= ty0 && py < ty0 + size
                };
                let mask = (0..4).filter(|&l| inside(l)).fold(0u8, |m, l| m | 1 << l)
                    & g.gen_u32(16) as u8;
                let z: [f32; 4] = std::array::from_fn(|_| {
                    if g.gen_u32(4) == 0 {
                        g.gen_f32(0.0, 1.0)
                    } else {
                        PALETTE[g.gen_u32(PALETTE.len() as u32) as usize]
                    }
                });
                let depth_write = g.gen_u32(3) != 0;
                let q = Quad { x: qx, y: qy, mask, z, uv: [(0.0, 0.0); 4] };
                let got = zb.test_quad(&q, tx0, ty0, depth_write);
                let want = reference.test_lanes(qx, qy, mask, &z, tx0, ty0, depth_write);
                assert_eq!(got, want, "case seed {seed:#x}, step {step}: pass mask");
                lanes_passed += want.count_ones() as u64;
                lanes_killed += (mask & !want).count_ones() as u64;
            }
            for ly in 0..size {
                for lx in 0..size {
                    let got = zb.depth_at(tx0 + lx, ty0 + ly, tx0, ty0);
                    let want = reference.depths[(ly * size + lx) as usize];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case seed {seed:#x}: depth at ({lx}, {ly}) is {got}, want {want}"
                    );
                }
            }
        }
        assert!(
            lanes_passed > 20_000 && lanes_killed > 20_000 && odd_origins > 300,
            "{lanes_passed} passed, {lanes_killed} killed, {odd_origins} odd origins"
        );
    }
}
