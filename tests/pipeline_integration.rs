//! Cross-crate integration: the *tiled* pipeline (geometry → binning → per-tile
//! rasterisation → Early-Z → blending → flush) must produce exactly the same image
//! as the untiled reference renderer, for every workload in the suite.

use libra_repro::prelude::*;
use tbr_geom::{process_scene, process_scene_stream};
use tbr_mem::hierarchy::{L1Cache, MemoryHierarchy};
use tbr_raster::color_buffer::ColorBuffer;
use tbr_raster::raster_unit::RasterUnit;
use tbr_raster::reference::render_frame;
use tbr_tiling::binner::{bin_stream, bin_triangles};
use tbr_workloads::SceneGenerator;

/// The image and the summed front-end counts of one pass over the tiles.
#[derive(Debug, PartialEq)]
struct Tiled {
    image: Vec<u32>,
    fragments: u64,
    earlyz_killed: u64,
}

/// Renders a scene through the tiled pipeline, tile by tile in `order`, with
/// `render_tile_image`.
fn render_tiled(
    scene: &tbr_geom::Scene,
    cfg: &GpuConfig,
    order: impl Iterator<Item = u32>,
) -> Tiled {
    let screen = &cfg.screen;
    let (tris, _) = process_scene_stream(scene, screen);
    let bins = bin_stream(&tris, screen);
    let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
    let mut ru = RasterUnit::new(cfg);
    let mut color = ColorBuffer::new(screen.tile_size);
    let mut out = Tiled {
        image: vec![0u32; (screen.width * screen.height) as usize],
        fragments: 0,
        earlyz_killed: 0,
    };
    for t in order {
        let tile = TileId(t);
        let fe =
            ru.render_tile_image(tile, &tris, bins.list(tile), screen, 0, &mut hier, &mut color);
        color.blit_to(tile, screen, &mut out.image);
        out.fragments += fe.fragments;
        out.earlyz_killed += fe.earlyz_killed;
    }
    out
}

#[test]
fn tiled_pipeline_matches_reference_renderer_on_every_benchmark() {
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::baseline(screen);
    for p in suite() {
        let scene = SceneGenerator::new(&p, &screen).scene(0);
        let (tris, _) = process_scene(&scene, &screen);
        let want = render_frame(&tris, &screen);
        let got = render_tiled(&scene, &cfg, 0..screen.num_tiles() as u32).image;
        let diff = want.iter().zip(&got).filter(|(a, b)| a != b).count();
        // The tiled path and the reference path share the rasteriser, so images must
        // match exactly (same coverage, same z decisions, same blending).
        assert_eq!(diff, 0, "{}: {diff} of {} pixels differ", p.abbrev, want.len());
    }
}

#[test]
fn tile_order_does_not_change_the_image() {
    // Tiles are independent: rendering them in reverse order must give the same
    // image (the property LIBRA's scheduler relies on).
    let screen = ScreenConfig::tiny();
    let cfg = GpuConfig::baseline(screen);
    let p = suite().remove(4); // CCS
    let scene = SceneGenerator::new(&p, &screen).scene(0);
    let tiles = screen.num_tiles() as u32;
    let forward = render_tiled(&scene, &cfg, 0..tiles);
    let backward = render_tiled(&scene, &cfg, (0..tiles).rev());
    assert_eq!(forward, backward);
}

#[test]
fn tile_size_changes_neither_the_image_nor_the_early_z_counts() {
    // Coverage and each pixel's depth test depend only on the pixel and the
    // program order of the primitives over it, never on how the screen is
    // cut into tiles: summed fragments, summed Early-Z kills and the image
    // are the same at every tile size, 1-pixel tiles at odd origins
    // included, and the image is the reference renderer's.
    let (width, height) = (96, 48);
    let scene_screen = ScreenConfig { width, height, tile_size: 32 };
    // Titles from both halves of the suite, two with Late-Z shaders (BlB,
    // MiC) and two sampling bilinearly.
    let titles = ["AAt", "BlB", "CCS", "CuT", "MiC", "SuS"];
    let mut checked = 0;
    for p in suite().into_iter().filter(|p| titles.contains(&p.abbrev)) {
        let scene = SceneGenerator::new(&p, &scene_screen).scene(0);
        let (tris, _) = process_scene(&scene, &scene_screen);
        let want = render_frame(&tris, &scene_screen);
        let mut first: Option<Tiled> = None;
        for tile_size in [1, 2, 4, 8, 16, 32] {
            let screen = ScreenConfig { width, height, tile_size };
            let cfg = GpuConfig::baseline(screen);
            cfg.validate().expect("every tile size is a valid config");
            let got = render_tiled(&scene, &cfg, 0..screen.num_tiles() as u32);
            let diff = want.iter().zip(&got.image).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 0, "{} at {tile_size}-px tiles: {diff} pixels differ", p.abbrev);
            assert!(got.fragments > 0, "{}: nothing shaded", p.abbrev);
            match &first {
                None => first = Some(got),
                Some(f) => assert_eq!(
                    (got.fragments, got.earlyz_killed),
                    (f.fragments, f.earlyz_killed),
                    "{} at {tile_size}-px tiles: (fragments, Early-Z kills) differ from 1-px tiles",
                    p.abbrev
                ),
            }
        }
        checked += 1;
    }
    assert_eq!(checked, titles.len(), "every listed title is in the suite");
}

#[test]
fn geometry_counters_are_consistent_with_binning() {
    let screen = ScreenConfig::tiny();
    for p in suite().into_iter().take(8) {
        let scene = SceneGenerator::new(&p, &screen).scene(0);
        let (tris, counts) = process_scene(&scene, &screen);
        assert_eq!(tris.len() as u64, counts.prims_out, "{}", p.abbrev);
        let bins = bin_triangles(&tris, &screen);
        // Every emitted primitive overlaps at least one tile (it survived clipping,
        // so it is at least partially on screen).
        let mut touched = vec![false; tris.len()];
        for list in &bins.lists {
            for &i in list {
                touched[i as usize] = true;
            }
        }
        let untouched = touched.iter().filter(|&&t| !t).count();
        assert_eq!(untouched, 0, "{}: {untouched} primitives binned nowhere", p.abbrev);
    }
}

#[test]
fn vertex_cache_filters_geometry_traffic() {
    // Sequential vertex fetches of indexed quads are highly local: the vertex cache
    // must absorb most of them.
    let screen = ScreenConfig::tiny();
    let cfg = tbr_common::config::GpuConfig::baseline(screen);
    let p = suite().remove(0);
    let scene = SceneGenerator::new(&p, &screen).scene(0);
    let mut hier = MemoryHierarchy::new(cfg.l2_cache, cfg.dram, cfg.dram_interval_cycles);
    let mut vl1 = L1Cache::new(cfg.vertex_cache);
    let geo = tbr_sim::geometry_phase::run_geometry_phase(&cfg, &mut vl1, &mut hier, &scene);
    let stats = vl1.stats();
    assert!(stats.hit_ratio() > 0.5, "vertex hit ratio {:.2}", stats.hit_ratio());
    assert!(stats.misses < stats.accesses, "the cache must absorb some fetches");
    assert!(geo.dram_accesses > 0, "cold caches still reach DRAM");
}
