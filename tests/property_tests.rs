//! Property-based tests on the core data structures and invariants, running on the
//! in-repo seeded runner (`tests/support`) so the workspace needs no crates.io
//! dependencies. Each `check`/`check_default` call generates seeded random cases
//! and reports the failing case's seed for replay (see `support::check`).

mod support;

use support::{check, check_default, Gen};

use libra_repro::prelude::*;
use tbr_common::config::CacheConfig;
use tbr_common::morton::{morton_decode, morton_encode, zorder_traversal};
use tbr_geom::clip::{clip_triangle, ClipVertex};
use tbr_geom::vec::{Vec2, Vec4};
use tbr_mem::cache::Cache;

use libra::supertile::{SupertileGrid, SupertileTally};
use libra::temperature::TemperatureTable;

#[test]
fn morton_roundtrips() {
    check_default("morton_roundtrips", |g: &mut Gen| {
        let (x, y) = (g.any_u32(), g.any_u32());
        ensure_eq!(morton_decode(morton_encode(x, y)), (x, y));
        Ok(())
    });
}

#[test]
fn morton_preserves_quadrant_order() {
    check_default("morton_preserves_quadrant_order", |g: &mut Gen| {
        // Doubling both coordinates moves strictly later in Morton order.
        let x = g.u32(0, 1 << 15);
        let y = g.u32(0, 1 << 15);
        ensure!(
            morton_encode(x, y) <= morton_encode(x * 2 + 1, y * 2 + 1),
            "order violated at ({x}, {y})"
        );
        Ok(())
    });
}

#[test]
fn zorder_traversal_is_a_permutation() {
    check_default("zorder_traversal_is_a_permutation", |g: &mut Gen| {
        let (w, h) = (g.u32(1, 40), g.u32(1, 40));
        let order = zorder_traversal(w, h);
        ensure_eq!(order.len(), (w * h) as usize);
        let mut seen = vec![false; (w * h) as usize];
        for c in order {
            ensure!(c.x < w && c.y < h, "tile ({},{}) outside {w}x{h}", c.x, c.y);
            let idx = (c.y * w + c.x) as usize;
            ensure!(!seen[idx], "tile visited twice");
            seen[idx] = true;
        }
        Ok(())
    });
}

#[test]
fn clipped_triangles_stay_inside_the_frustum() {
    check_default(
        "clipped_triangles_stay_inside_the_frustum",
        |g: &mut Gen| {
            let coord = |g: &mut Gen| g.f32(-3.0, 3.0);
            let tri = [
                ClipVertex::new(
                    Vec4::new(coord(g), coord(g), coord(g), 1.0),
                    Vec2::default(),
                ),
                ClipVertex::new(
                    Vec4::new(coord(g), coord(g), coord(g), 1.0),
                    Vec2::default(),
                ),
                ClipVertex::new(
                    Vec4::new(coord(g), coord(g), coord(g), 1.0),
                    Vec2::default(),
                ),
            ];
            for out in clip_triangle(tri) {
                for v in out {
                    let w = v.pos.w;
                    ensure!(
                        v.pos.x >= -w - 1e-3 && v.pos.x <= w + 1e-3,
                        "x out: {:?}",
                        v.pos
                    );
                    ensure!(
                        v.pos.y >= -w - 1e-3 && v.pos.y <= w + 1e-3,
                        "y out: {:?}",
                        v.pos
                    );
                    ensure!(
                        v.pos.z >= -w - 1e-3 && v.pos.z <= w + 1e-3,
                        "z out: {:?}",
                        v.pos
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn cache_hit_after_access() {
    check_default("cache_hit_after_access", |g: &mut Gen| {
        let addrs = g.vec(1, 200, |g| g.u64(0, 1 << 20));
        let mut cache = Cache::new(CacheConfig::texture_l1());
        for &a in &addrs {
            cache.access(a);
            // Immediately re-probing the same address must hit (it was just filled).
            ensure!(cache.probe(a), "address {a:#x} not resident after access");
        }
        let s = cache.stats();
        ensure_eq!(s.hits + s.misses, s.accesses);
        Ok(())
    });
}

#[test]
fn supertiles_partition_any_screen() {
    check_default("supertiles_partition_any_screen", |g: &mut Gen| {
        let tiles_x = g.u32(1, 64);
        let tiles_y = g.u32(1, 64);
        let size_log = g.u32(0, 5);
        let screen = tbr_common::config::ScreenConfig {
            width: tiles_x * 32,
            height: tiles_y * 32,
            tile_size: 32,
        };
        let grid = SupertileGrid::new(&screen, 1 << size_log);
        let mut seen = vec![false; screen.num_tiles()];
        for st in 0..grid.num_supertiles() as u32 {
            for t in grid.tiles_of(tbr_common::ids::SupertileId(st)) {
                ensure!(!seen[t.index()], "tile in two supertiles");
                seen[t.index()] = true;
            }
        }
        ensure!(seen.iter().all(|&s| s), "some tile not covered");
        Ok(())
    });
}

#[test]
fn temperature_rank_is_sorted_and_complete() {
    check_default("temperature_rank_is_sorted_and_complete", |g: &mut Gen| {
        let tallies: Vec<SupertileTally> = g.vec(1, 511, |g| SupertileTally {
            dram_accesses: g.u64(0, 100_000),
            instructions: g.u64(0, 10_000_000),
        });
        let table = TemperatureTable::from_tallies(&tallies);
        let rank = table.rank();
        ensure_eq!(rank.len(), tallies.len());
        // Permutation.
        let mut seen = vec![false; tallies.len()];
        for id in &rank {
            ensure!(!seen[id.index()], "supertile ranked twice");
            seen[id.index()] = true;
        }
        // Hottest-first by the hardware fixed-point field.
        let api: Vec<u16> = rank
            .iter()
            .map(|id| table.entries()[id.index()].api_fixed)
            .collect();
        ensure!(api.windows(2).all(|w| w[0] >= w[1]), "rank not descending");
        Ok(())
    });
}

#[test]
fn frame_plans_always_cover_all_tiles() {
    check_default("frame_plans_always_cover_all_tiles", |g: &mut Gen| {
        use libra::feedback::FrameFeedback;
        use tbr_common::stats::TileHeatmap;

        let kind_sel = g.usize(0, 6);
        let rus = g.u32(1, 5) as u8;
        let seed = g.u64(0, 1000);

        let screen = ScreenConfig::tiny();
        let kind = [
            SchedulerKind::SingleZOrder,
            SchedulerKind::Scanline,
            SchedulerKind::Hilbert,
            SchedulerKind::StaticSupertile(2),
            SchedulerKind::StaticSupertile(8),
            SchedulerKind::Libra,
        ][kind_sel];
        let mut sched = kind.build();
        // Pseudo-random feedback derived from the seed.
        let mut hm = TileHeatmap::new(screen.num_tiles());
        for (i, t) in hm.tiles.iter_mut().enumerate() {
            t.dram_accesses = (seed.wrapping_mul(31).wrapping_add(i as u64 * 7)) % 5000;
            t.instructions = 1 + (seed.wrapping_add(i as u64 * 13)) % 100_000;
        }
        let fb = FrameFeedback::new(hm, 100_000 + seed * 100, (seed % 100) as f64 / 100.0);
        let mut plan = sched.plan_frame(&screen, Some(&fb));

        let mut seen = vec![false; screen.num_tiles()];
        let mut ru = 0u8;
        while let Some(group) = plan.next_group(tbr_common::ids::RasterUnitId(ru)) {
            for t in group {
                ensure!(!seen[t.index()], "tile dispatched twice");
                seen[t.index()] = true;
            }
            ru = (ru + 1) % rus;
        }
        ensure!(seen.iter().all(|&s| s), "plan lost tiles");
        Ok(())
    });
}

#[test]
fn coherence_cdf_is_monotone() {
    check_default("coherence_cdf_is_monotone", |g: &mut Gen| {
        use tbr_common::stats::TileHeatmap;
        let values = g.vec(8, 9, |g| g.u64(0, 1000));
        let mut a = TileHeatmap::new(values.len());
        let mut b = TileHeatmap::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            a.tiles[i].dram_accesses = v;
            b.tiles[i].dram_accesses = v.wrapping_mul(3) % 1000;
        }
        let thresholds = [0.1, 0.2, 0.5, 1.0];
        let cdf = a.coherence_cdf(&b, &thresholds);
        for w in cdf.windows(2) {
            ensure!(w[0] <= w[1] + 1e-12, "CDF must be monotone");
        }
        ensure!(
            (cdf[3] - 1.0).abs() < 1e-12,
            "everything differs by at most 100%"
        );
        Ok(())
    });
}

#[test]
fn rasterized_coverage_matches_area() {
    // Heavier property (full-rect rasterization): fewer cases, like the original
    // proptest config (`ProptestConfig::with_cases(8)`).
    check("rasterized_coverage_matches_area", 8, |g: &mut Gen| {
        use tbr_common::ids::{DrawCallId, TextureId};
        use tbr_geom::pipeline::ScreenVertex;
        use tbr_geom::scene::{BlendMode, FragmentShaderDesc, TextureDesc};
        use tbr_raster::rasterizer::rasterize_in_rect;

        let x0 = g.f32(2.0, 60.0);
        let y0 = g.f32(2.0, 60.0);
        let w = g.f32(8.0, 60.0);
        let h = g.f32(8.0, 60.0);

        // An axis-aligned rectangle (two triangles) must cover ~w*h pixels.
        let mk = |p: [(f32, f32); 3]| tbr_geom::pipeline::ScreenTriangle {
            v: p.map(|(x, y)| ScreenVertex {
                x,
                y,
                z: 0.5,
                u: 0.0,
                v: 0.0,
            }),
            draw: DrawCallId(0),
            texture: TextureDesc::new(TextureId(0), 64),
            shader: FragmentShaderDesc::simple(),
            blend: BlendMode::Opaque,
            seq: 0,
        };
        let (x1, y1) = (x0 + w, y0 + h);
        let a = mk([(x0, y0), (x1, y0), (x0, y1)]);
        let b = mk([(x1, y0), (x1, y1), (x0, y1)]);
        let cov: u32 = rasterize_in_rect(&a, 0, 0, 128, 128)
            .iter()
            .chain(rasterize_in_rect(&b, 0, 0, 128, 128).iter())
            .map(|q| q.coverage())
            .sum();
        let area = w * h;
        let err = (cov as f32 - area).abs() / area;
        // Pixel-centre sampling error is bounded by the perimeter.
        ensure!(err < 0.35, "coverage {cov} vs area {area}");
        Ok(())
    });
}

// ---- tbr_common::event_queue — the indexed next-event core ------------------
//
// The raster phase's heap driver leans on one promise: under any sequence of
// sets and clears, the slot tree's minimum is the naive first-minimum scan
// over the slots — the exact selection rule of the scan loop it replaced.

use tbr_common::event_queue::SlotMin;
use tbr_common::Cycle;

#[test]
fn event_queue_matches_naive_scan_under_churn() {
    check(
        "event_queue_matches_naive_scan_under_churn",
        64,
        |g: &mut Gen| {
            // Model of the raster-phase driver: one pending time per slot,
            // sets supersede, clears empty, and each pop takes the minimum and
            // clears its slot. Slot counts cover 1 to 130, powers of two and
            // not; the narrow time range makes equal times collide, so the
            // slot tie-break is exercised.
            let span = if g.u32(0, 2) == 0 { 8 } else { 1 << 16 };
            for slots in [1, 2, 3, 64, 65, 130, g.usize(1, 131)] {
                let mut q = SlotMin::new(slots);
                let mut live: Vec<Option<Cycle>> = vec![None; slots];
                let naive_min = |live: &[Option<Cycle>]| {
                    live.iter()
                        .enumerate()
                        .filter_map(|(k, t)| t.map(|t| (t, k)))
                        .min()
                };
                for _ in 0..g.usize(1, 400) {
                    match g.u32(0, 4) {
                        0 | 1 => {
                            let k = g.usize(0, slots);
                            let t = g.u64(0, span);
                            live[k] = Some(t);
                            q.set(k, Some(t));
                        }
                        2 => {
                            let k = g.usize(0, slots);
                            live[k] = None;
                            q.set(k, None);
                        }
                        _ => {
                            let got = q.min();
                            ensure_eq!(got, naive_min(&live));
                            if let Some((_, k)) = got {
                                live[k] = None;
                                q.set(k, None);
                            }
                        }
                    }
                    ensure_eq!(q.min(), naive_min(&live));
                }
                // Drain: the two views must stay in lock-step to the end.
                while let Some((_, k)) = q.min() {
                    live[k] = None;
                    q.set(k, None);
                    ensure_eq!(q.min(), naive_min(&live));
                }
                ensure_eq!(naive_min(&live), None);
            }
            Ok(())
        },
    );
}

/// Rendering Elimination's safety contract, fuzzed: across randomly perturbed
/// frame pairs, a tile is discarded *only* when its raw signature word stream
/// (binned primitives, vertex lanes, draw state) is bit-identical to the
/// previous frame's — zero false discards — and every bit-identical tile IS
/// discarded (the signature is a pure function of the words). Hash collisions
/// would surface as `false_negatives`; none occur across the fuzzed corpus.
#[test]
fn rendering_elimination_never_falsely_discards_a_changed_tile() {
    use libra::elimination::ReCache;
    use tbr_geom::pipeline::ScreenTriangle;
    use tbr_geom::scene::TextureDesc;
    use tbr_geom::stream::TriangleStream;
    use tbr_common::ids::TextureId;
    use tbr_tiling::binner::bin_stream;
    use tbr_tiling::signature::frame_signatures;

    // Build a small random frame straight out of a workload generator (real
    // draw states, real binning), then derive frame B by perturbing a random
    // subset of triangles in randomized ways.
    let screen = ScreenConfig::tiny();
    let profiles = suite();
    check("rendering_elimination_never_falsely_discards_a_changed_tile", 48, |g: &mut Gen| {
        let p = &profiles[g.usize(0, profiles.len())];
        let scene = tbr_workloads::SceneGenerator::new(p, &screen).scene(g.u32(0, 8));
        let (mut frame_a, _counts): (Vec<ScreenTriangle>, _) =
            tbr_geom::pipeline::process_scene(&scene, &screen);
        frame_a.truncate(64); // keep each case cheap
        ensure!(!frame_a.is_empty(), "workload produced no triangles");

        let mut frame_b = frame_a.clone();
        for _ in 0..g.usize(0, 6) {
            let i = g.usize(0, frame_b.len());
            match g.u32(0, 4) {
                0 => frame_b[i].v[g.usize(0, 3)].x += g.f32(0.01, 2.0),
                1 => frame_b[i].v[g.usize(0, 3)].u += g.f32(0.01, 0.5),
                2 => frame_b[i].texture = TextureDesc::new(TextureId(g.u32(900, 999)), 64),
                _ => frame_b[i].seq ^= 1 << g.u32(0, 8),
            }
        }

        let sig = |frame: &[ScreenTriangle]| {
            let stream = TriangleStream::from_triangles(frame);
            let bins = bin_stream(&stream, &screen);
            frame_signatures(&stream, &bins, true)
        };
        let (a, b) = (sig(&frame_a), sig(&frame_b));
        let words_a = a.words.clone().expect("oracle words");
        let words_b = b.words.clone().expect("oracle words");

        let mut cache = ReCache::new();
        let first = cache.observe(a.sigs, a.words);
        ensure!(first.discarded == 0, "frame 0 has no predecessor to match");
        let d = cache.observe(b.sigs, b.words);
        ensure!(d.false_negatives == 0, "hash collision in the fuzzed corpus");
        for t in 0..words_a.len() {
            let same = words_a[t] == words_b[t];
            ensure!(
                d.matched[t] == same,
                "tile {t}: discard decision disagrees with true input equality"
            );
        }
        ensure_eq!(d.discarded, d.matched.iter().filter(|&&m| m).count() as u64);
        Ok(())
    });
}

// ---- tbr_raster::raster_unit — texture line gathering -----------------------
//
// A warp's line lists are the request stream the texture L1, the L2 and DRAM
// see, and WaSP picks its spearhead warps from them. The gather addresses
// stage 0 once per quad and shifts it for the other samples; both of its
// sinks must still hold exactly what a walk over every sample, lane and
// bilinear tap builds from the public per-texel addressing functions.

use tbr_common::ids::TextureId;
use tbr_geom::scene::{FilterMode, TextureDesc};
use tbr_raster::texture::{bilinear_line_addrs, mip_levels, texel_line_addr};
use tbr_raster::Quad;

/// The per-sample, per-tap reference: stage `s` holds, quad by quad, the
/// lines of the `pass` lanes in lane order (every bilinear tap), each kept at
/// its first occurrence within the quad.
fn reference_lines(
    group: &[(Quad, u8)],
    tex: &TextureDesc,
    lod: u32,
    samples: u32,
    filter: FilterMode,
) -> Vec<Vec<u64>> {
    (0..samples)
        .map(|s| {
            let mut stage = Vec::new();
            for (q, pass) in group {
                let mut quad_lines: Vec<u64> = Vec::new();
                for lane in (0..4).filter(|lane| pass & (1 << lane) != 0) {
                    let (u, v) = q.uv[lane];
                    let mut taps = [0u64; 4];
                    let k = match filter {
                        FilterMode::Nearest => {
                            taps[0] = texel_line_addr(tex, u, v, lod, s);
                            1
                        }
                        FilterMode::Bilinear => bilinear_line_addrs(tex, u, v, lod, s, &mut taps),
                    };
                    for &line in &taps[..k] {
                        if !quad_lines.contains(&line) {
                            quad_lines.push(line);
                        }
                    }
                }
                stage.extend(quad_lines);
            }
            stage
        })
        .collect()
}

fn random_filter(g: &mut Gen) -> FilterMode {
    [FilterMode::Nearest, FilterMode::Bilinear][g.usize(0, 2)]
}

#[test]
fn gathered_lines_match_the_per_sample_per_tap_reference() {
    use tbr_raster::raster_unit::gather_sample_lines_for;

    check("gathered_lines_match_the_per_sample_per_tap_reference", 24, |g: &mut Gen| {
        // Up to 32 quads (a warp of 128) with UVs from -3 to 3, their lanes
        // from a sliver of a texel to a few texels apart at mip 0, and any
        // pass mask, the empty one included.
        let group: Vec<(Quad, u8)> = g.vec(0, 33, |g| {
            let (u0, v0) = (g.f32(-3.0, 3.0), g.f32(-3.0, 3.0));
            let (du, dv) = (g.f32(0.0, 1.0).powi(3) * 0.01, g.f32(0.0, 1.0).powi(3) * 0.01);
            let uv = std::array::from_fn(|l| {
                (u0 + du * (l & 1) as f32, v0 + dv * (l >> 1) as f32)
            });
            (Quad { x: 0, y: 0, mask: 0xF, z: [0.5; 4], uv }, g.u32(0, 16) as u8)
        });
        for size in [64, 256, 1024] {
            let tex = TextureDesc::new(TextureId(g.u32(0, 64)), size);
            for lod in 0..mip_levels(size) {
                for filter in [FilterMode::Nearest, FilterMode::Bilinear] {
                    for samples in 0..=3 {
                        let got = gather_sample_lines_for(&group, &tex, lod, samples, filter);
                        let got: Vec<Vec<u64>> = got.iter_stages().map(<[u64]>::to_vec).collect();
                        let want = reference_lines(&group, &tex, lod, samples, filter);
                        ensure!(
                            got == want,
                            "size {size} mip {lod} {filter:?} x{samples}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn front_end_arenas_hold_the_per_sample_per_tap_reference() {
    use std::collections::HashSet;
    use tbr_common::config::{CacheConfig, DramConfig};
    use tbr_common::ids::DrawCallId;
    use tbr_geom::pipeline::{ScreenTriangle, ScreenVertex};
    use tbr_geom::scene::{BlendMode, FragmentShaderDesc};
    use tbr_geom::stream::TriangleStream;
    use tbr_mem::hierarchy::MemoryHierarchy;
    use tbr_raster::rasterizer::{rasterize_in_rect, TriangleSetup};
    use tbr_raster::texture::select_mip;
    use tbr_raster::RasterUnit;

    // Warps of 128 lanes: groups of up to 32 quads per warp.
    let cfg = GpuConfig { warp_size: 128, ..GpuConfig::baseline(ScreenConfig::tiny()) };
    let qpw = cfg.quads_per_warp() as usize;
    check("front_end_arenas_hold_the_per_sample_per_tap_reference", 12, |g: &mut Gen| {
        let tile = TileId(g.u32(0, cfg.screen.num_tiles() as u32));
        let (tx0, ty0, tx1, ty1) = cfg.screen.tile_rect(tile);
        let (x0, y0, x1, y1) = (tx0 as f32, ty0 as f32, tx1 as f32, ty1 as f32);
        let occluder_pts =
            [(); 3].map(|_| (g.f32(x0 - 24.0, x1 + 24.0), g.f32(y0 - 24.0, y1 + 24.0)));
        // The textured triangle's corners sit 24 to 64 px around a point of
        // the tile, at most 150 degrees apart, so it covers a disc of at least
        // 6 px there: every render reaches the gather.
        let (cx, cy) = (g.f32(x0, x1), g.f32(y0, y1));
        let (radius, turn) = (g.f32(24.0, 64.0), g.f32(0.0, 1.0));
        let textured_pts = [0.0f32, 1.0, 2.0].map(|k| {
            let a = std::f32::consts::TAU * (turn + k / 3.0) + g.f32(-0.5, 0.5);
            (cx + radius * a.cos(), cy + radius * a.sin())
        });
        let (u0, v0) = (g.f32(-3.0, 3.0), g.f32(-3.0, 3.0));
        let triangle = |pts: [(f32, f32); 3], z: f32, d: f32, texture, shader, seq| ScreenTriangle {
            v: pts.map(|(x, y)| ScreenVertex { x, y, z, u: u0 + d * x, v: v0 + d * y }),
            draw: DrawCallId(0),
            texture,
            shader,
            blend: BlendMode::Opaque,
            seq,
        };
        for size in [64, 256, 1024] {
            let texture = TextureDesc::new(TextureId(g.u32(0, 64)), size);
            for lod in 0..mip_levels(size) {
                // An affine UV map of 1.5 × 2^lod texels per pixel selects mip `lod`.
                let d = 1.5 * (1u32 << lod) as f32 / size as f32;
                let shader = FragmentShaderDesc {
                    tex_samples: g.u32(0, 4),
                    filter: random_filter(g),
                    ..FragmentShaderDesc::simple()
                };
                // The occluder is drawn first and in front, so the textured
                // triangle's lanes under it fail Early-Z: ragged pass masks.
                let occluder = triangle(
                    occluder_pts,
                    0.1,
                    0.01,
                    TextureDesc::new(TextureId(100), 64),
                    FragmentShaderDesc { filter: random_filter(g), ..FragmentShaderDesc::simple() },
                    0,
                );
                let textured = triangle(textured_pts, 0.9, d, texture, shader, 1);

                let occluded: HashSet<(u32, u32)> = rasterize_in_rect(&occluder, tx0, ty0, tx1, ty1)
                    .iter()
                    .flat_map(|q| {
                        (0..4).filter(|l| q.mask & (1 << l) != 0).map(|l| q.lane_pixel(l))
                    })
                    .collect();
                let mut want = Vec::new();
                for (tri, front) in [(&occluder, true), (&textured, false)] {
                    let Some(setup) = TriangleSetup::new(tri) else { continue };
                    let lod = select_mip(&tri.texture, setup.uv_derivative);
                    let surviving: Vec<(Quad, u8)> = rasterize_in_rect(tri, tx0, ty0, tx1, ty1)
                        .into_iter()
                        .map(|q| {
                            let hidden = (0..4)
                                .filter(|&l| !front && occluded.contains(&q.lane_pixel(l)))
                                .fold(0u8, |m, l| m | 1 << l);
                            (q, q.mask & !hidden)
                        })
                        .filter(|&(_, pass)| pass != 0)
                        .collect();
                    for group in surviving.chunks(qpw) {
                        want.push(reference_lines(
                            group,
                            &tri.texture,
                            lod,
                            tri.shader.tex_samples,
                            tri.shader.filter,
                        ));
                    }
                }

                // The tile twice in one frame: the second pass's spans start
                // past the first's in the arenas.
                let stream = TriangleStream::from_triangles(&[occluder, textured]);
                let mut ru = RasterUnit::new(&cfg);
                let mut hier =
                    MemoryHierarchy::new(CacheConfig::shared_l2(), DramConfig::lpddr4(), 5000);
                for pass in 0..2 {
                    let out =
                        ru.render_tile_front_end(tile, &stream, &[0, 1], &cfg.screen, 0, &mut hier);
                    let got: Vec<Vec<Vec<u64>>> = out
                        .warps
                        .iter()
                        .map(|w| ru.sample_lines_ref(w).iter_stages().map(<[u64]>::to_vec).collect())
                        .collect();
                    ensure!(!got.is_empty(), "pass {pass}, size {size} mip {lod}: no warp");
                    ensure!(
                        got == want,
                        "pass {pass}, size {size} mip {lod}: {} warps vs {} in the reference",
                        got.len(),
                        want.len()
                    );
                }
            }
        }
        Ok(())
    });
}
