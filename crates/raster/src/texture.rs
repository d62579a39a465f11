//! Texture addressing: UV → mip level → Morton-blocked texel address.
//!
//! Textures are stored with the layout real mobile GPUs use for bandwidth
//! efficiency: 32-bit texels grouped into 4×4-texel blocks (64 B = exactly one cache
//! line), blocks ordered by Morton code within each mip level. Two properties follow,
//! and both matter to LIBRA:
//!
//! * fragments that are close on screen sample texels that are close in UV space and
//!   therefore land in the *same or adjacent cache lines* — this is the locality that
//!   nearby tiles share (§III-C) and that supertiles preserve;
//! * mip-mapping keeps the texel-per-pixel density ≈ 1, so the per-tile texture
//!   footprint scales with on-screen area, as in real content.

use tbr_common::addr::TEXTURE_BASE;
use tbr_common::ids::TextureId;
use tbr_common::morton::morton_encode;
use tbr_geom::scene::TextureDesc;

/// Bytes reserved per texture object (fits a 1024² RGBA texture with full mip chain).
pub const TEXTURE_STRIDE: u64 = 8 << 20;
/// Bytes per texel (RGBA8).
pub const BYTES_PER_TEXEL: u64 = 4;
/// Edge of a texel block in texels (4×4 texels × 4 B = 64 B line).
pub const BLOCK_EDGE: u32 = 4;

/// Base address of a texture object.
#[inline]
pub fn texture_base(id: TextureId) -> u64 {
    TEXTURE_BASE + id.0 as u64 * TEXTURE_STRIDE
}

/// Number of mip levels of a texture of edge `size` (level 0 = full size, last = 1×1).
#[inline]
pub fn mip_levels(size: u32) -> u32 {
    32 - size.leading_zeros()
}

/// Byte offset of mip level `level` within a texture of edge `size`.
///
/// # Panics
/// Panics if `level` is out of range for `size`.
pub fn mip_offset(size: u32, level: u32) -> u64 {
    assert!(level < mip_levels(size), "mip level {level} out of range for size {size}");
    let mut off = 0u64;
    for l in 0..level {
        let edge = (size >> l).max(1) as u64;
        off += edge * edge * BYTES_PER_TEXEL;
    }
    off
}

/// Selects the mip level for a given screen-space UV derivative (UV units per pixel):
/// the level at which one texel ≈ one pixel.
pub fn select_mip(tex: &TextureDesc, uv_derivative: f32) -> u32 {
    let texel_step = (uv_derivative * tex.size_texels as f32).max(1.0e-6);
    let lod = texel_step.log2().floor();
    (lod.max(0.0) as u32).min(mip_levels(tex.size_texels) - 1)
}

/// `t.floor()` without the `floorf` libcall on targets without a native floor
/// instruction — bit-identical to [`f32::floor`] for every input.
#[inline]
fn fast_floor(t: f32) -> f32 {
    if t.abs() < 8_388_608.0 {
        // |t| < 2^23: `as i32` is an exact truncation toward zero, and the
        // down-adjusted integer is exactly representable.
        let i = t as i32 as f32;
        i - ((t < i) as u32 as f32)
    } else {
        // Every finite f32 at this magnitude is already an integer; NaN and
        // the infinities take the libcall.
        t.floor()
    }
}

/// Address distance from a line of shader sample 0 to the same texel's line
/// of sample `sample_index`: sample `s` reads texture `tex.id + s`, which sits
/// `s` texture strides further on, with the same size, mip chain and layout.
/// So a sample's lines are sample 0's plus this shift, and since the shift is
/// one constant, a deduplicated line list stays deduplicated, in the same
/// order.
#[inline]
pub(crate) fn sample_shift(sample_index: u32) -> u64 {
    sample_index as u64 * TEXTURE_STRIDE
}

/// Per-(texture, mip, sample) addressing state: hoists the mip-chain walk,
/// the base-address arithmetic, and the edge conversions out of the per-texel
/// inner loop. Addresses are bit-identical to [`texel_line_addr`].
pub struct MipAddresser {
    edge: u32,
    edge_f: f32,
    step: f32,
    base: u64,
}

impl MipAddresser {
    /// Addressing state for `tex` sampled at mip `level` by shader texture
    /// sample `sample_index` (sample `s` reads texture `tex.id + s`, see the
    /// workload generator).
    pub fn new(tex: &TextureDesc, level: u32, sample_index: u32) -> Self {
        let edge = (tex.size_texels >> level).max(1);
        Self {
            edge,
            edge_f: edge as f32,
            step: 1.0 / edge as f32,
            base: texture_base(TextureId(tex.id.0 + sample_index))
                + mip_offset(tex.size_texels, level),
        }
    }

    /// Block coordinate along one axis of coordinate `t`: wrapped to [0, 1),
    /// scaled to texels, divided by the block edge.
    #[inline]
    fn block(&self, t: f32) -> u32 {
        let frac = t - fast_floor(t);
        ((frac * self.edge_f) as u32).min(self.edge - 1) / BLOCK_EDGE
    }

    /// Address of the line holding block `(bx, by)`.
    #[inline]
    fn block_line(&self, bx: u32, by: u32) -> u64 {
        self.base + morton_encode(bx, by) * 64
    }

    /// Address of the 64 B cache line holding texel `(u, v)`; UVs wrap
    /// (repeat addressing).
    #[inline]
    pub fn line_addr(&self, u: f32, v: f32) -> u64 {
        self.block_line(self.block(u), self.block(v))
    }

    /// [`MipAddresser::line_addr`] of all four lanes of a quad, computed
    /// whatever the lanes' coverage (an uncovered lane's UVs are plain
    /// numbers too), so the four lanes take one branch-free pass.
    #[inline]
    pub(crate) fn lane_lines(&self, uv: &[(f32, f32); 4]) -> [u64; 4] {
        uv.map(|(u, v)| self.line_addr(u, v))
    }

    /// What [`MipAddresser::bilinear_line_addrs`] writes, as `(lines, count)`.
    /// The four taps share two columns, `(u + du) - 0.5 * step` for `du` in
    /// `{0, step}`, and two rows likewise, so each is wrapped once rather
    /// than once per tap: the same float expressions on the same inputs,
    /// hence the same block coordinates. Two taps share a line exactly when
    /// they share both coordinates, so comparing the columns and the rows
    /// deduplicates the taps, in tap order.
    #[inline]
    pub(crate) fn bilinear_lines(&self, u: f32, v: f32) -> ([u64; 4], usize) {
        let (step, half) = (self.step, 0.5 * self.step);
        let [c0, c1] = [0.0, step].map(|du| self.block((u + du) - half));
        let [r0, r1] = [0.0, step].map(|dv| self.block((v + dv) - half));
        let first = self.block_line(c0, r0);
        match (c0 == c1, r0 == r1) {
            (true, true) => ([first, 0, 0, 0], 1),
            (true, false) => ([first, self.block_line(c0, r1), 0, 0], 2),
            (false, true) => ([first, self.block_line(c1, r0), 0, 0], 2),
            (false, false) => {
                let rest = [(c1, r0), (c0, r1), (c1, r1)].map(|(c, r)| self.block_line(c, r));
                ([first, rest[0], rest[1], rest[2]], 4)
            }
        }
    }

    /// The cache lines holding the 2×2 bilinear texel neighbourhood of
    /// `(u, v)` — between 1 and 4 distinct lines, written into `out`; returns
    /// the count. Tap by tap, as the definition the texture gather's hoisted
    /// form is checked against.
    #[inline]
    pub fn bilinear_line_addrs(&self, u: f32, v: f32, out: &mut [u64; 4]) -> usize {
        let step = self.step;
        let mut n = 0;
        for (du, dv) in [(0.0, 0.0), (step, 0.0), (0.0, step), (step, step)] {
            let line = self.line_addr(u + du - 0.5 * step, v + dv - 0.5 * step);
            if !out[..n].contains(&line) {
                out[n] = line;
                n += 1;
            }
        }
        n
    }
}

/// Address of the 64 B cache line holding texel `(u, v)` of `tex` at mip `level`.
/// UVs wrap (repeat addressing); `sample_index` selects among the shader's bound
/// textures (sample `s` reads texture `tex.id + s`, see the workload generator).
pub fn texel_line_addr(tex: &TextureDesc, u: f32, v: f32, level: u32, sample_index: u32) -> u64 {
    MipAddresser::new(tex, level, sample_index).line_addr(u, v)
}

/// The cache lines holding the 2×2 bilinear texel neighbourhood of `(u, v)` at mip
/// `level` — between 1 and 4 distinct lines, written into `out`; returns the count.
pub fn bilinear_line_addrs(
    tex: &TextureDesc,
    u: f32,
    v: f32,
    level: u32,
    sample_index: u32,
    out: &mut [u64; 4],
) -> usize {
    MipAddresser::new(tex, level, sample_index).bilinear_line_addrs(u, v, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex(size: u32) -> TextureDesc {
        TextureDesc::new(TextureId(3), size)
    }

    #[test]
    fn mip_levels_and_offsets() {
        assert_eq!(mip_levels(1), 1);
        assert_eq!(mip_levels(256), 9);
        assert_eq!(mip_offset(256, 0), 0);
        assert_eq!(mip_offset(256, 1), 256 * 256 * 4);
        assert_eq!(mip_offset(256, 2), 256 * 256 * 4 + 128 * 128 * 4);
        // Whole chain fits in the stride.
        let total = mip_offset(1024, mip_levels(1024) - 1) + 4;
        assert!(total <= TEXTURE_STRIDE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mip_offset_rejects_bad_level() {
        let _ = mip_offset(16, 5);
    }

    #[test]
    fn select_mip_matches_texel_density() {
        let t = tex(256);
        // 1 UV across 256 pixels -> 1 texel/pixel -> level 0.
        assert_eq!(select_mip(&t, 1.0 / 256.0), 0);
        // 1 UV across 64 pixels -> 4 texels/pixel -> level 2.
        assert_eq!(select_mip(&t, 1.0 / 64.0), 2);
        // Extremely minified: clamps to the last level.
        assert_eq!(select_mip(&t, 100.0), mip_levels(256) - 1);
        // Magnified: clamps to level 0.
        assert_eq!(select_mip(&t, 1.0e-9), 0);
    }

    #[test]
    fn texels_in_same_block_share_a_line() {
        let t = tex(256);
        // Texels (0..4, 0..4) are one 4x4 block.
        let a = texel_line_addr(&t, 0.5 / 256.0, 0.5 / 256.0, 0, 0);
        let b = texel_line_addr(&t, 3.5 / 256.0, 3.5 / 256.0, 0, 0);
        assert_eq!(a, b);
        // Texel (4, 0) is the next block -> different line.
        let c = texel_line_addr(&t, 4.5 / 256.0, 0.5 / 256.0, 0, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn nearby_blocks_have_nearby_addresses() {
        let t = tex(256);
        let a = texel_line_addr(&t, 0.0, 0.0, 0, 0);
        let b = texel_line_addr(&t, 4.0 / 256.0, 4.0 / 256.0, 0, 0); // diagonal block
        // Morton keeps the 2x2 block neighbourhood within 4 lines.
        assert!(b - a <= 4 * 64, "morton locality violated: {} vs {}", a, b);
    }

    #[test]
    fn uv_wrapping_repeats() {
        let t = tex(64);
        let a = texel_line_addr(&t, 0.1, 0.2, 0, 0);
        let b = texel_line_addr(&t, 1.1, 2.2, 0, 0);
        assert_eq!(a, b);
        let c = texel_line_addr(&t, -0.9, 0.2, 0, 0);
        assert_eq!(a, c);
    }

    #[test]
    fn bilinear_touches_at_most_four_lines() {
        let t = tex(256);
        let mut out = [0u64; 4];
        // Interior of a block: all four neighbours share one line.
        let n = bilinear_line_addrs(&t, 2.0 / 256.0, 2.0 / 256.0, 0, 0, &mut out);
        assert_eq!(n, 1);
        // On a block corner: up to four lines.
        let n = bilinear_line_addrs(&t, 4.0 / 256.0, 4.0 / 256.0, 0, 0, &mut out);
        assert!((2..=4).contains(&n), "{n}");
        // All returned lines are distinct.
        for i in 0..n {
            for j in 0..i {
                assert_ne!(out[i], out[j]);
            }
        }
    }

    #[test]
    fn hoisted_bilinear_lines_equal_the_per_tap_ones_on_edges_and_specials() {
        // Texel and block edges, wrap points, signed zeros and non-finite
        // UVs: where a hoisted wrap could round differently, if it did.
        for size in [1, 4, 64, 256] {
            let t = tex(size);
            for level in 0..mip_levels(size) {
                let a = MipAddresser::new(&t, level, 1);
                let edge = (size >> level) as f32;
                let mut specials = vec![-0.0, 1.0, -1.0, 1.0e7, -3.5e9, f32::NAN, f32::INFINITY];
                specials.extend((-9..=9).map(|k| k as f32 / edge));
                specials.extend((-9..=9).map(|k| (k as f32 + 0.5) / edge));
                for &u in &specials {
                    for &v in &specials {
                        let mut want = [0u64; 4];
                        let n = a.bilinear_line_addrs(u, v, &mut want);
                        let (got, k) = a.bilinear_lines(u, v);
                        assert_eq!(&got[..k], &want[..n], "size {size} mip {level} at ({u}, {v})");
                    }
                }
            }
        }
    }

    #[test]
    fn sample_index_selects_sibling_texture() {
        let t = tex(64);
        let a = texel_line_addr(&t, 0.1, 0.1, 0, 0);
        let b = texel_line_addr(&t, 0.1, 0.1, 0, 1);
        assert_eq!(b - a, TEXTURE_STRIDE);
    }

    #[test]
    fn different_textures_do_not_alias() {
        let t0 = TextureDesc::new(TextureId(0), 256);
        let t1 = TextureDesc::new(TextureId(1), 256);
        let a = texel_line_addr(&t0, 0.99, 0.99, 0, 0);
        let b = texel_line_addr(&t1, 0.0, 0.0, 0, 0);
        assert!(a < b, "texture regions must be disjoint");
    }
}
