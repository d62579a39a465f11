//! Deterministic per-frame scene synthesis from a [`BenchmarkProfile`].
//!
//! The layout (cluster centres, object offsets, atlas windows) is generated once from
//! the profile seed; each frame applies smooth scrolling and bounded jitter on top,
//! which is exactly what gives the workloads their frame-to-frame coherence (Fig 8).

use crate::profile::{BenchmarkProfile, Category};
use tbr_common::rng::Xoshiro256pp;
use tbr_common::config::ScreenConfig;
use tbr_common::ids::{DrawCallId, TextureId};
use tbr_geom::camera::{perspective_focal, screen_ortho};
use tbr_geom::scene::{BlendMode, DrawCall, Scene, TextureDesc, Vertex};
use tbr_geom::vec::{Vec2, Vec3};
use tbr_geom::Mat4;

/// Texture-id spacing: sample instruction `s` of a shader reads texture `id + s`, so
/// atlases are allocated on this stride (max 4 samples per shader).
pub const TEXTURE_ID_STRIDE: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct ObjDef {
    dx: f32,
    dy: f32,
    size: f32,
    z: f32,
    // Atlas window origin (UV); window extent is size/texture_size.
    u0: f32,
    v0: f32,
}

#[derive(Debug, Clone)]
struct Cluster {
    cx: f32,
    cy: f32,
    tex: u32, // atlas index
    objects: Vec<ObjDef>,
}

/// Generates the per-frame [`Scene`]s of one benchmark.
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    profile: BenchmarkProfile,
    screen: ScreenConfig,
    clusters: Vec<Cluster>,
    scattered: Vec<(ObjDef, u32)>,
    hud: Vec<ObjDef>,
}

impl SceneGenerator {
    /// Builds the static layout from the profile seed.
    pub fn new(profile: &BenchmarkProfile, screen: &ScreenConfig) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(profile.seed);
        let w = screen.width as f32;
        let h = screen.height as f32;
        let radius = profile.cluster_radius_frac * w.min(h);
        let (olo, ohi) = profile.object_size_px;
        let ts = profile.texture_size as f32;

        let obj = |rng: &mut Xoshiro256pp, cx_off: f32, cy_off: f32, layer: u32| -> ObjDef {
            let size = rng.gen_f32_inclusive(olo, ohi);
            ObjDef {
                dx: cx_off,
                dy: cy_off,
                size,
                // Back-to-front inside a cluster: later overdraw layers are nearer.
                z: 0.5 - layer as f32 * 0.01 - rng.gen_f32(0.0, 0.005),
                u0: rng.gen_f32(0.0, (1.0 - size / ts).max(0.01)),
                v0: rng.gen_f32(0.0, (1.0 - size / ts).max(0.01)),
            }
        };

        let clusters = (0..profile.hotspot_clusters)
            .map(|_| {
                let cx = rng.gen_f32(0.1 * w, 0.9 * w);
                let cy = rng.gen_f32(0.1 * h, 0.9 * h);
                let tex = rng.gen_u32(profile.texture_pool.max(1));
                let mut objects = Vec::new();
                for layer in 0..profile.overdraw_layers.max(1) {
                    for _ in 0..profile.cluster_objects {
                        let ox = rng.gen_f32(-radius, radius);
                        let oy = rng.gen_f32(-radius, radius);
                        objects.push(obj(&mut rng, ox, oy, layer));
                    }
                }
                Cluster { cx, cy, tex, objects }
            })
            .collect();

        let scattered = (0..profile.scattered_objects)
            .map(|_| {
                let x = rng.gen_f32(0.0, w);
                let y = rng.gen_f32(0.0, h);
                let tex = rng.gen_u32(profile.texture_pool.max(1));
                let mut o = obj(&mut rng, x, y, 0);
                o.z = 0.65;
                (o, tex)
            })
            .collect();

        let hud = (0..profile.hud_elements)
            .map(|i| {
                let band_top = i % 2 == 0;
                let x = rng.gen_f32(0.0, w * 0.8);
                let size = rng.gen_f32(24.0, 64.0);
                ObjDef {
                    dx: x,
                    dy: if band_top { 4.0 } else { h - size - 4.0 },
                    size,
                    z: 0.05,
                    u0: rng.gen_f32(0.0, 0.9),
                    v0: rng.gen_f32(0.0, 0.9),
                }
            })
            .collect();

        Self { profile: profile.clone(), screen: *screen, clusters, scattered, hud }
    }

    fn atlas(&self, index: u32) -> TextureDesc {
        TextureDesc::new(TextureId(index * TEXTURE_ID_STRIDE), self.profile.texture_size)
    }

    /// Background/HUD shader: lighter than the profile's object shader (one sample,
    /// half the ALU tail). This is what makes background-only tiles *cold* and
    /// cluster tiles *hot* — the contrast of Fig 2 that LIBRA's scheduler exploits.
    fn light_shader(&self) -> tbr_geom::scene::FragmentShaderDesc {
        let s = self.profile.shader;
        tbr_geom::scene::FragmentShaderDesc {
            tex_samples: 1,
            alu_per_sample: 2,
            alu_tail: (s.alu_tail / 2).max(4),
            filter: tbr_geom::scene::FilterMode::Nearest,
            late_z: false,
        }
    }

    /// Synthesises the scene of `frame`. Deterministic: the same `(profile, frame)`
    /// always yields an identical scene.
    pub fn scene(&self, frame: u32) -> Scene {
        let p = &self.profile;
        let w = self.screen.width as f32;
        let h = self.screen.height as f32;
        let transform: Mat4 = screen_ortho(self.screen.width, self.screen.height);
        let mut frame_rng =
            Xoshiro256pp::seed_from_u64(p.seed ^ (frame as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut draws: Vec<DrawCall> = Vec::new();
        let mut next_id = 0u32;
        let mut draw_id = || {
            let id = DrawCallId(next_id);
            next_id += 1;
            id
        };

        // Background layers, far to near, parallax scrolling in UV space. Backgrounds
        // are magnified (lower texel density than sprites): large, blurry art reused
        // across many pixels — this is what makes background-only tiles *cold* in
        // DRAM terms (high cache reuse), as in the Fig 2 heatmaps.
        const BG_DENSITY_SCALE: f32 = 0.5;
        for layer in 0..p.background_layers {
            let ts = p.texture_size as f32;
            let parallax = 1.0 + 0.3 * layer as f32;
            let bg_density = p.texel_density * BG_DENSITY_SCALE;
            let du = p.scroll_speed.0 * frame as f32 * parallax * bg_density / ts;
            let dv = p.scroll_speed.1 * frame as f32 * parallax * bg_density / ts;
            let span_u = w * bg_density / ts;
            let span_v = h * bg_density / ts;
            let z = 0.9 + layer as f32 * 0.01;
            let tex_idx = layer % p.texture_pool.max(1);
            let blend =
                if layer == 0 { BlendMode::Opaque } else { BlendMode::AlphaBlend };
            let mut dc = DrawCall {
                id: draw_id(),
                transform,
                vertices: Vec::with_capacity(4),
                indices: Vec::with_capacity(6),
                texture: self.atlas(tex_idx),
                shader: self.light_shader(),
                blend,
                base_depth: z,
            };
            push_quad(&mut dc, 0.0, 0.0, w, h, z, du, dv, span_u, span_v);
            draws.push(dc);
        }

        // 3-D games additionally render a perspective ground plane (road/terrain):
        // a strip grid receding into the distance, scrolling toward the camera. This
        // exercises real perspective projection, near-plane clipping and the full
        // mip-level range (minified far away, magnified up close).
        if p.category == Category::ThreeD {
            let ts = p.texture_size as f32;
            // A 60° vertical field of view. Its focal factor 1 / tan(30°) is
            // spelled out, because `f32::tan` at run time and the value the
            // compiler folds it to differ in the last bit, and the scene must
            // be the same in every build. This is the folded value.
            let proj = perspective_focal(1.732_050_9, w / h, 0.5, 60.0)
                * Mat4::translate(tbr_geom::vec::Vec3::new(0.0, -1.5, 0.0));
            let mut dc = DrawCall {
                id: draw_id(),
                transform: proj,
                vertices: Vec::new(),
                indices: Vec::new(),
                texture: self.atlas(1 % p.texture_pool.max(1)),
                shader: self.light_shader(),
                blend: BlendMode::Opaque,
                base_depth: 0.7,
            };
            // An 8-quad-wide, 12-quad-deep strip along -Z, scrolling in V.
            let scroll_v = (p.scroll_speed.0 + p.scroll_speed.1) * frame as f32 * 0.01;
            let tile_world = 2.0f32;
            let v_span = tile_world * 64.0 * p.texel_density / ts;
            for iz in 0..12u32 {
                for ix in 0..8u32 {
                    let x0 = -8.0 + ix as f32 * tile_world;
                    let z0 = -(2.0 + iz as f32 * tile_world);
                    let base = dc.vertices.len() as u32;
                    for (dx, dz) in [(0.0, 0.0), (tile_world, 0.0), (tile_world, -tile_world), (0.0, -tile_world)] {
                        let u = (ix as f32 + dx / tile_world) * v_span;
                        let v = (iz as f32 + dz.abs() / tile_world) * v_span + scroll_v;
                        dc.vertices.push(Vertex::new(
                            tbr_geom::vec::Vec3::new(x0 + dx, 0.0, z0 + dz),
                            Vec2::new(u, v),
                        ));
                    }
                    dc.indices.extend_from_slice(&[base, base + 1, base + 2, base, base + 2, base + 3]);
                }
            }
            draws.push(dc);
        }

        // Scattered mid-ground objects: scroll across the screen, wrapping.
        if !self.scattered.is_empty() {
            let mut per_tex: std::collections::BTreeMap<u32, DrawCall> =
                std::collections::BTreeMap::new();
            for (o, tex) in &self.scattered {
                let ts = p.texture_size as f32;
                let x = (o.dx - p.scroll_speed.0 * frame as f32).rem_euclid(w + o.size) - o.size;
                let y = (o.dy - p.scroll_speed.1 * frame as f32).rem_euclid(h + o.size) - o.size;
                let dc = per_tex.entry(*tex).or_insert_with(|| DrawCall {
                    id: DrawCallId(u32::MAX), // assigned below
                    transform,
                    vertices: Vec::new(),
                    indices: Vec::new(),
                    texture: self.atlas(*tex),
                    shader: p.shader,
                    blend: BlendMode::Opaque,
                    base_depth: o.z,
                });
                let span = o.size * p.texel_density / ts;
                push_quad(dc, x, y, o.size, o.size, o.z, o.u0, o.v0, span, span);
            }
            for (_, mut dc) in per_tex {
                dc.id = draw_id();
                draws.push(dc);
            }
        }

        // Hot clusters: jittered positions, one draw call per cluster (shared atlas).
        for cluster in &self.clusters {
            let ts = p.texture_size as f32;
            let jx = frame_rng.gen_f32_inclusive(-p.jitter_px, p.jitter_px.max(0.001));
            let jy = frame_rng.gen_f32_inclusive(-p.jitter_px, p.jitter_px.max(0.001));
            let mut dc = DrawCall {
                id: draw_id(),
                transform,
                vertices: Vec::with_capacity(cluster.objects.len() * 4),
                indices: Vec::with_capacity(cluster.objects.len() * 6),
                texture: self.atlas(cluster.tex),
                shader: p.shader,
                blend: BlendMode::Opaque,
                base_depth: 0.5,
            };
            for o in &cluster.objects {
                let span = o.size * p.texel_density / ts;
                push_quad(
                    &mut dc,
                    cluster.cx + o.dx + jx,
                    cluster.cy + o.dy + jy,
                    o.size,
                    o.size,
                    o.z,
                    o.u0,
                    o.v0,
                    span,
                    span,
                );
            }
            draws.push(dc);
        }

        // HUD: static alpha-blended quads (very coherent, always hot-ish regions).
        if !self.hud.is_empty() {
            let mut dc = DrawCall {
                id: draw_id(),
                transform,
                vertices: Vec::new(),
                indices: Vec::new(),
                texture: self.atlas(0),
                shader: self.light_shader(),
                blend: BlendMode::AlphaBlend,
                base_depth: 0.05,
            };
            for o in &self.hud {
                let span = o.size * p.texel_density / p.texture_size as f32;
                push_quad(&mut dc, o.dx, o.dy, o.size, o.size, o.z, o.u0, o.v0, span, span);
            }
            draws.push(dc);
        }

        Scene { draws }
    }

    /// The screen this generator targets.
    pub fn screen(&self) -> &ScreenConfig {
        &self.screen
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }
}

/// Appends an axis-aligned textured quad (two CCW triangles) to a draw call.
#[allow(clippy::too_many_arguments)]
fn push_quad(
    dc: &mut DrawCall,
    x: f32,
    y: f32,
    w: f32,
    h: f32,
    z: f32,
    u0: f32,
    v0: f32,
    span_u: f32,
    span_v: f32,
) {
    let base = dc.vertices.len() as u32;
    dc.vertices.extend_from_slice(&[
        Vertex::new(Vec3::new(x, y, z), Vec2::new(u0, v0)),
        Vertex::new(Vec3::new(x + w, y, z), Vec2::new(u0 + span_u, v0)),
        Vertex::new(Vec3::new(x + w, y + h, z), Vec2::new(u0 + span_u, v0 + span_v)),
        Vertex::new(Vec3::new(x, y + h, z), Vec2::new(u0, v0 + span_v)),
    ]);
    dc.indices.extend_from_slice(&[base, base + 1, base + 2, base, base + 2, base + 3]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite;

    fn small_profile() -> BenchmarkProfile {
        let mut p = suite().remove(0);
        p.hotspot_clusters = 2;
        p.cluster_objects = 5;
        p.scattered_objects = 8;
        p
    }

    #[test]
    fn scene_is_deterministic() {
        let p = small_profile();
        let s = ScreenConfig::tiny();
        let g1 = SceneGenerator::new(&p, &s);
        let g2 = SceneGenerator::new(&p, &s);
        assert_eq!(g1.scene(5), g2.scene(5));
        assert_eq!(g1.scene(0), g2.scene(0));
    }

    #[test]
    fn different_frames_differ_but_keep_structure() {
        let p = small_profile();
        let s = ScreenConfig::tiny();
        let g = SceneGenerator::new(&p, &s);
        let a = g.scene(0);
        let b = g.scene(1);
        assert_ne!(a, b, "motion must change the scene");
        assert_eq!(a.draws.len(), b.draws.len(), "structure is stable");
        assert_eq!(a.num_triangles(), b.num_triangles());
    }

    #[test]
    fn triangle_count_matches_profile_estimate_order() {
        let p = small_profile();
        let s = ScreenConfig::tiny();
        let g = SceneGenerator::new(&p, &s);
        let scene = g.scene(0);
        let n = scene.num_triangles() as u64;
        let est = p.approx_triangles();
        assert!(n >= est / 2 && n <= est * 2, "triangles {n} vs estimate {est}");
    }

    #[test]
    fn background_covers_screen() {
        let p = small_profile();
        let s = ScreenConfig::tiny();
        let g = SceneGenerator::new(&p, &s);
        let scene = g.scene(0);
        let bg = &scene.draws[0];
        let xs: Vec<f32> = bg.vertices.iter().map(|v| v.pos.x).collect();
        assert!(xs.iter().cloned().fold(f32::INFINITY, f32::min) <= 0.0);
        assert!(xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max) >= s.width as f32);
    }

    #[test]
    fn every_suite_profile_generates_nonempty_scenes() {
        let s = ScreenConfig::tiny();
        for p in suite() {
            let g = SceneGenerator::new(&p, &s);
            let scene = g.scene(0);
            assert!(scene.num_triangles() > 0, "{} generated an empty scene", p.abbrev);
            assert!(scene.draws.len() < 200, "{} generated too many draws", p.abbrev);
        }
    }

    #[test]
    fn scroll_moves_background_uvs() {
        let mut p = small_profile();
        p.scroll_speed = (8.0, 0.0);
        let s = ScreenConfig::tiny();
        let g = SceneGenerator::new(&p, &s);
        let a = g.scene(0).draws[0].vertices[0].uv;
        let b = g.scene(1).draws[0].vertices[0].uv;
        assert!((b.x - a.x).abs() > 1e-6, "background UV must scroll");
    }
}
