//! The 2×2 fragment quad, the unit of rasterisation and shading.
//!
//! §II-A: "Fragments are assembled into groups of 2x2 adjacent fragments to form
//! *quads* which are sent to the Early Z-Test stage."

/// A 2×2 block of fragments at even pixel coordinates. Lane order is
/// `[(0,0), (1,0), (0,1), (1,1)]` relative to `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quad {
    /// Top-left pixel X (even).
    pub x: u32,
    /// Top-left pixel Y (even).
    pub y: u32,
    /// Coverage mask, bit `i` = lane `i` covered.
    pub mask: u8,
    /// Interpolated depth per lane.
    pub z: [f32; 4],
    /// Interpolated texture coordinates per lane `(u, v)`.
    pub uv: [(f32, f32); 4],
}

impl Quad {
    /// Number of covered fragments.
    #[inline]
    pub fn coverage(&self) -> u32 {
        (self.mask & 0xF).count_ones()
    }

    /// Whether any lane is covered.
    #[inline]
    pub fn any(&self) -> bool {
        self.mask & 0xF != 0
    }

    /// Pixel coordinate of lane `i`.
    ///
    /// # Panics
    /// Panics if `i >= 4`.
    #[inline]
    pub fn lane_pixel(&self, i: usize) -> (u32, u32) {
        assert!(i < 4, "quad lane out of range");
        (self.x + (i as u32 & 1), self.y + (i as u32 >> 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(mask: u8) -> Quad {
        Quad { x: 10, y: 20, mask, z: [0.0; 4], uv: [(0.0, 0.0); 4] }
    }

    #[test]
    fn coverage_counts_bits() {
        assert_eq!(q(0b0000).coverage(), 0);
        assert_eq!(q(0b1010).coverage(), 2);
        assert_eq!(q(0b1111).coverage(), 4);
        assert!(!q(0).any());
        assert!(q(1).any());
    }

    #[test]
    fn lane_pixels_form_the_2x2_block() {
        let quad = q(0xF);
        assert_eq!(quad.lane_pixel(0), (10, 20));
        assert_eq!(quad.lane_pixel(1), (11, 20));
        assert_eq!(quad.lane_pixel(2), (10, 21));
        assert_eq!(quad.lane_pixel(3), (11, 21));
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn lane_out_of_range_panics() {
        let _ = q(0xF).lane_pixel(4);
    }
}
