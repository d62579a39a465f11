//! Edge-function rasterisation of one primitive within one tile.
//!
//! §II-A: "The Rasterizer determines the pixels that are overlapped by each primitive
//! in the current tile and discretizes each primitive into a set of *fragments*. In
//! addition, the Rasterizer interpolates the values of the primitive's attributes."
//!
//! Coverage is evaluated at pixel centres with a top-left fill rule approximation;
//! attributes (depth, UV) are interpolated barycentrically (affine — adequate for the
//! mobile content modelled here and for the memory-address streams the simulator
//! needs).

use crate::quad::Quad;
use tbr_geom::pipeline::{double_area_from_lanes, ScreenTriangle, ScreenVertex};

/// Per-triangle interpolation setup: edge functions and attribute gradients.
#[derive(Debug, Clone, Copy)]
pub struct TriangleSetup {
    // Edge functions e_i(x, y) = a_i x + b_i y + c_i, positive inside.
    a: [f32; 3],
    b: [f32; 3],
    c: [f32; 3],
    inv_area2: f32,
    z: [f32; 3],
    u: [f32; 3],
    v: [f32; 3],
    // Screen bounding box, pre-folded once at setup: floor of the min corner and
    // ceil of the max corner, so per-tile rasterisation only clamps to the rect.
    min_x: f32,
    min_y: f32,
    max_x: f32,
    max_y: f32,
    /// Maximum screen-space UV derivative (in UV units per pixel), used for mip
    /// selection — constant per triangle under affine interpolation.
    pub uv_derivative: f32,
}

impl TriangleSetup {
    /// Builds the setup; returns `None` for degenerate (zero-area) triangles.
    pub fn new(tri: &ScreenTriangle) -> Option<Self> {
        Self::from_vertices(tri.v)
    }

    /// Builds the setup from three screen-space vertices — the body shared by
    /// the AoS [`TriangleSetup::new`] and the SoA raster front-end (which feeds
    /// it `TriangleStream::vertices(i)`).
    pub fn from_vertices(p: [ScreenVertex; 3]) -> Option<Self> {
        let xs = p.map(|v| v.x);
        let ys = p.map(|v| v.y);
        let area2 = double_area_from_lanes(xs, ys);
        if area2.abs() < 1.0e-6 {
            return None;
        }
        // Normalise winding so all edge functions are positive inside.
        let s = if area2 > 0.0 { 1.0 } else { -1.0 };
        let mut a = [0.0f32; 3];
        let mut b = [0.0f32; 3];
        let mut c = [0.0f32; 3];
        for i in 0..3 {
            let v0 = p[i];
            let v1 = p[(i + 1) % 3];
            // e(x,y) = (v1-v0) x (p - v0), z-component; positive to the left.
            a[i] = s * (v0.y - v1.y);
            b[i] = s * (v1.x - v0.x);
            c[i] = s * (v1.y * v0.x - v1.x * v0.y);
        }
        // Barycentric weights: w_i proportional to the edge opposite vertex i.
        // With the edge ordering above, edge i (from v_i to v_{i+1}) is opposite
        // vertex i+2.
        let inv_area2 = 1.0 / area2.abs();

        // Affine attribute gradients for the UV derivative: solve via barycentric
        // gradient. grad(w_i) = (a_{i'}, b_{i'}) * inv_area2 with i' = edge opposite.
        let mut dudx = 0.0f32;
        let mut dudy = 0.0f32;
        let mut dvdx = 0.0f32;
        let mut dvdy = 0.0f32;
        for (i, v) in p.iter().enumerate() {
            let e = (i + 1) % 3; // edge opposite vertex i is edge i+1 in our ordering
            let gx = a[e] * inv_area2;
            let gy = b[e] * inv_area2;
            dudx += v.u * gx;
            dudy += v.u * gy;
            dvdx += v.v * gx;
            dvdy += v.v * gy;
        }
        let uv_derivative =
            dudx.abs().max(dudy.abs()).max(dvdx.abs()).max(dvdy.abs());

        Some(Self {
            a,
            b,
            c,
            inv_area2,
            z: [p[0].z, p[1].z, p[2].z],
            u: [p[0].u, p[1].u, p[2].u],
            v: [p[0].v, p[1].v, p[2].v],
            min_x: xs.iter().copied().fold(f32::INFINITY, f32::min).floor(),
            min_y: ys.iter().copied().fold(f32::INFINITY, f32::min).floor(),
            max_x: xs.iter().copied().fold(f32::NEG_INFINITY, f32::max).ceil(),
            max_y: ys.iter().copied().fold(f32::NEG_INFINITY, f32::max).ceil(),
            uv_derivative,
        })
    }

    /// Emits the covered quads of this triangle within `[x0, x1) × [y0, y1)`
    /// (a tile, already clipped to the screen), row by row over the quad grid
    /// of the bounding box. Lanes outside the rectangle are never covered.
    ///
    /// This is the one quad-emission loop: [`rasterize_in_rect`] collects its
    /// quads, and the raster front end depth-tests each quad as it is emitted,
    /// so no quad is stored before Early-Z.
    #[inline]
    pub fn emit_quads(&self, x0: u32, y0: u32, x1: u32, y1: u32, mut emit: impl FnMut(Quad)) {
        // Intersect the tile rect with the triangle bbox (pre-folded in the
        // setup), then align to the quad grid.
        let bminx = self.min_x.max(x0 as f32) as u32;
        let bminy = self.min_y.max(y0 as f32) as u32;
        let bmaxx = (self.max_x as u32).min(x1);
        let bmaxy = (self.max_y as u32).min(y1);
        if bminx >= bmaxx || bminy >= bmaxy {
            return;
        }
        let qx0 = bminx & !1;
        let qy0 = bminy & !1;

        let mut y = qy0;
        while y < bmaxy {
            let mut x = qx0;
            while x < bmaxx {
                let (mask, z, uv) = self.quad(x, y, x0, y0, x1, y1);
                if mask != 0 {
                    emit(Quad { x, y, mask, z, uv });
                }
                x += 2;
            }
            y += 2;
        }
    }

    /// Coverage mask and attributes of the 2×2 quad at `(px, py)`, clipped to
    /// `[x0, x1) × [y0, y1)`: all four lanes in one branch-free pass at the
    /// pixel centres. Uncovered lanes hold 0.0.
    #[inline]
    fn quad(
        &self,
        px: u32,
        py: u32,
        x0: u32,
        y0: u32,
        x1: u32,
        y1: u32,
    ) -> (u8, [f32; 4], [(f32, f32); 4]) {
        let lx = [px, px + 1, px, px + 1];
        let ly = [py, py, py + 1, py + 1];
        let x = lx.map(|p| p as f32 + 0.5);
        let y = ly.map(|p| p as f32 + 0.5);
        let edge = |i: usize| -> [f32; 4] {
            [0, 1, 2, 3].map(|l| self.a[i] * x[l] + self.b[i] * y[l] + self.c[i])
        };
        let (e0, e1, e2) = (edge(0), edge(1), edge(2));
        let mut mask = 0u8;
        let mut z = [0.0f32; 4];
        let mut uv = [(0.0f32, 0.0f32); 4];
        for l in 0..4 {
            let in_rect = (lx[l] >= x0) & (lx[l] < x1) & (ly[l] >= y0) & (ly[l] < y1);
            // Top-left-rule approximation: include edges on the >= 0 side
            // (a NaN edge value counts as inside).
            let inside = in_rect & !((e0[l] < 0.0) | (e1[l] < 0.0) | (e2[l] < 0.0));
            // Barycentric weights: edge e_i is opposite vertex i+2.
            let w2 = e0[l] * self.inv_area2;
            let w0 = e1[l] * self.inv_area2;
            let w1 = e2[l] * self.inv_area2;
            let lz = w0 * self.z[0] + w1 * self.z[1] + w2 * self.z[2];
            let lu = w0 * self.u[0] + w1 * self.u[1] + w2 * self.u[2];
            let lv = w0 * self.v[0] + w1 * self.v[1] + w2 * self.v[2];
            mask |= (inside as u8) << l;
            z[l] = if inside { lz } else { 0.0 };
            uv[l] = if inside { (lu, lv) } else { (0.0, 0.0) };
        }
        (mask, z, uv)
    }
}

/// Rasterises `tri` within the pixel rectangle `[x0, x1) × [y0, y1)` (a tile, already
/// clipped to the screen), producing covered quads.
pub fn rasterize_in_rect(
    tri: &ScreenTriangle,
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
) -> Vec<Quad> {
    let mut quads = Vec::new();
    if let Some(setup) = TriangleSetup::new(tri) {
        setup.emit_quads(x0, y0, x1, y1, |q| quads.push(q));
    }
    quads
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::ids::{DrawCallId, TextureId};
    use tbr_geom::pipeline::ScreenVertex;
    use tbr_geom::scene::{BlendMode, FragmentShaderDesc, TextureDesc};

    fn tri(p: [(f32, f32); 3], uv: [(f32, f32); 3]) -> ScreenTriangle {
        let mut v = [ScreenVertex::default(); 3];
        for i in 0..3 {
            v[i] = ScreenVertex { x: p[i].0, y: p[i].1, z: 0.5, u: uv[i].0, v: uv[i].1 };
        }
        ScreenTriangle {
            v,
            draw: DrawCallId(0),
            texture: TextureDesc::new(TextureId(0), 64),
            shader: FragmentShaderDesc::simple(),
            blend: BlendMode::Opaque,
            seq: 0,
        }
    }

    fn coverage(quads: &[Quad]) -> u32 {
        quads.iter().map(Quad::coverage).sum()
    }

    #[test]
    fn right_triangle_covers_half_the_square() {
        // A 32x32 right triangle covers ~half of the 32x32 square = ~512 pixels.
        let t = tri([(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)], [(0.0, 0.0); 3]);
        let quads = rasterize_in_rect(&t, 0, 0, 32, 32);
        let cov = coverage(&quads);
        assert!((450..=560).contains(&cov), "coverage {cov} not ~512");
    }

    #[test]
    fn full_square_from_two_triangles_covers_exactly_once() {
        let a = tri([(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)], [(0.0, 0.0); 3]);
        let b = tri([(32.0, 0.0), (32.0, 32.0), (0.0, 32.0)], [(0.0, 0.0); 3]);
        let ca = coverage(&rasterize_in_rect(&a, 0, 0, 32, 32));
        let cb = coverage(&rasterize_in_rect(&b, 0, 0, 32, 32));
        let total = ca + cb;
        // The shared diagonal must not be double-counted badly: allow the diagonal
        // (~32 px) of slack either way around the exact 1024.
        assert!((992..=1056).contains(&total), "total coverage {total}");
    }

    #[test]
    fn rasterization_is_clipped_to_rect() {
        let t = tri([(0.0, 0.0), (64.0, 0.0), (0.0, 64.0)], [(0.0, 0.0); 3]);
        for q in rasterize_in_rect(&t, 0, 0, 32, 32) {
            for lane in 0..4 {
                if q.mask & (1 << lane) != 0 {
                    let (x, y) = q.lane_pixel(lane);
                    assert!(x < 32 && y < 32, "fragment ({x},{y}) escaped the rect");
                }
            }
        }
    }

    #[test]
    fn winding_invariance() {
        let ccw = tri([(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)], [(0.0, 0.0); 3]);
        let cw = tri([(0.0, 0.0), (0.0, 32.0), (32.0, 0.0)], [(0.0, 0.0); 3]);
        assert_eq!(
            coverage(&rasterize_in_rect(&ccw, 0, 0, 32, 32)),
            coverage(&rasterize_in_rect(&cw, 0, 0, 32, 32))
        );
    }

    #[test]
    fn depth_interpolates_linearly() {
        // z goes 0 at x=0 to 1 at x=32 along a wide thin quad pair; check midpoint.
        let mut t = tri([(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)], [(0.0, 0.0); 3]);
        t.v[0].z = 0.0;
        t.v[1].z = 1.0;
        t.v[2].z = 0.0;
        let quads = rasterize_in_rect(&t, 0, 0, 32, 32);
        for q in &quads {
            for lane in 0..4 {
                if q.mask & (1 << lane) != 0 {
                    let (x, _) = q.lane_pixel(lane);
                    let expect = (x as f32 + 0.5) / 32.0;
                    assert!(
                        (q.z[lane] - expect).abs() < 0.05,
                        "z at x={x}: {} vs {expect}",
                        q.z[lane]
                    );
                }
            }
        }
    }

    #[test]
    fn uv_derivative_matches_texel_density() {
        // UV spans 1.0 over 32 pixels -> derivative = 1/32 per pixel.
        let t = tri(
            [(0.0, 0.0), (32.0, 0.0), (0.0, 32.0)],
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        );
        let setup = TriangleSetup::new(&t).unwrap();
        assert!((setup.uv_derivative - 1.0 / 32.0).abs() < 1e-4, "{}", setup.uv_derivative);
    }

    #[test]
    fn degenerate_triangle_produces_nothing() {
        let t = tri([(0.0, 0.0), (10.0, 10.0), (20.0, 20.0)], [(0.0, 0.0); 3]);
        assert!(rasterize_in_rect(&t, 0, 0, 32, 32).is_empty());
    }

    #[test]
    fn empty_when_triangle_outside_rect() {
        let t = tri([(100.0, 100.0), (120.0, 100.0), (100.0, 120.0)], [(0.0, 0.0); 3]);
        assert!(rasterize_in_rect(&t, 0, 0, 32, 32).is_empty());
    }

    /// The scalar reference: coverage + attributes of one pixel centre, `None`
    /// when outside, evaluated lane by lane.
    fn sample_ref(s: &TriangleSetup, px: u32, py: u32) -> Option<(f32, f32, f32)> {
        let x = px as f32 + 0.5;
        let y = py as f32 + 0.5;
        let e0 = s.a[0] * x + s.b[0] * y + s.c[0];
        let e1 = s.a[1] * x + s.b[1] * y + s.c[1];
        let e2 = s.a[2] * x + s.b[2] * y + s.c[2];
        if e0 < 0.0 || e1 < 0.0 || e2 < 0.0 {
            return None;
        }
        let w2 = e0 * s.inv_area2;
        let w0 = e1 * s.inv_area2;
        let w1 = e2 * s.inv_area2;
        let z = w0 * s.z[0] + w1 * s.z[1] + w2 * s.z[2];
        let u = w0 * s.u[0] + w1 * s.u[1] + w2 * s.u[2];
        let v = w0 * s.v[0] + w1 * s.v[1] + w2 * s.v[2];
        Some((z, u, v))
    }

    /// The quads of `s` in `[x0, x1) × [y0, y1)` from [`sample_ref`], one
    /// pixel at a time, skipping lanes outside the rect.
    fn raster_ref(s: &TriangleSetup, x0: u32, y0: u32, x1: u32, y1: u32) -> Vec<Quad> {
        let mut quads = Vec::new();
        let bminx = s.min_x.max(x0 as f32) as u32;
        let bminy = s.min_y.max(y0 as f32) as u32;
        let bmaxx = (s.max_x as u32).min(x1);
        let bmaxy = (s.max_y as u32).min(y1);
        if bminx >= bmaxx || bminy >= bmaxy {
            return quads;
        }
        for py in (bminy & !1..bmaxy).step_by(2) {
            for px in (bminx & !1..bmaxx).step_by(2) {
                let mut q = Quad { x: px, y: py, mask: 0, z: [0.0; 4], uv: [(0.0, 0.0); 4] };
                for lane in 0..4 {
                    let (lx, ly) = q.lane_pixel(lane);
                    if lx < x0 || lx >= x1 || ly < y0 || ly >= y1 {
                        continue;
                    }
                    if let Some((z, u, v)) = sample_ref(s, lx, ly) {
                        q.mask |= 1 << lane;
                        q.z[lane] = z;
                        q.uv[lane] = (u, v);
                    }
                }
                if q.mask != 0 {
                    quads.push(q);
                }
            }
        }
        quads
    }

    fn bits(q: &Quad) -> (u32, u32, u8, [u32; 4], [(u32, u32); 4]) {
        (q.x, q.y, q.mask, q.z.map(f32::to_bits), q.uv.map(|(u, v)| (u.to_bits(), v.to_bits())))
    }

    #[test]
    fn four_lane_pass_matches_the_scalar_reference_bit_for_bit() {
        use tbr_common::rng::{splitmix64_mix, Xoshiro256pp};
        let (mut checked, mut slivers) = (0, 0);
        for case in 0..2000u64 {
            let seed = splitmix64_mix(0x5EED_0000 ^ case);
            let mut g = Xoshiro256pp::seed_from_u64(seed);
            // A rect anywhere on the quad grid or off it, with odd right or
            // bottom edges as often as even ones.
            let x0 = g.gen_u32(40);
            let y0 = g.gen_u32(40);
            let (x1, y1) = (x0 + 1 + g.gen_u32(40), y0 + 1 + g.gen_u32(40));
            let mut p: [(f32, f32); 3] =
                std::array::from_fn(|_| (g.gen_f32(-20.0, 100.0), g.gen_f32(-20.0, 100.0)));
            if g.gen_u32(4) == 0 {
                // A sliver: the third vertex a hair off the line through the
                // other two.
                let t = g.gen_f32(-0.5, 1.5);
                let off = g.gen_f32(-0.05, 0.05);
                p[2] = (p[0].0 + t * (p[1].0 - p[0].0) + off, p[0].1 + t * (p[1].1 - p[0].1) - off);
                slivers += 1;
            }
            if g.gen_u32(2) == 0 {
                p.swap(1, 2); // the other winding
            }
            let uv = std::array::from_fn(|_| (g.gen_f32(-3.0, 3.0), g.gen_f32(-3.0, 3.0)));
            let mut t = tri(p, uv);
            for v in &mut t.v {
                v.z = g.gen_f32(0.0, 1.0);
            }
            let Some(setup) = TriangleSetup::new(&t) else {
                continue;
            };
            let mut got = Vec::new();
            setup.emit_quads(x0, y0, x1, y1, |q| got.push(q));
            let want = raster_ref(&setup, x0, y0, x1, y1);
            assert_eq!(got.len(), want.len(), "case seed {seed:#x}: quad count");
            for (i, w) in want.iter().enumerate() {
                assert_eq!(bits(&got[i]), bits(w), "case seed {seed:#x}: quad {i}");
            }
            checked += 1;
        }
        assert!(checked > 1500 && slivers > 300, "{checked} cases, {slivers} slivers");
    }
}
