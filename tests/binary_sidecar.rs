//! Property tests for the checkpoint encodings and the SoA hot path.
//!
//! Three contracts, the first and last exercised with seeded random inputs
//! (replay with `LIBRA_PROPTEST_SEED` / `LIBRA_PROPTEST_CASES`):
//!
//! * **Checkpoint records** (`libra-ckpt-bin-v1`) round-trip JSON ↔ binary
//!   bit-exactly: the [`CampaignResult`]s written in either encoding load
//!   back as the very same values, and re-encoding is byte-deterministic.
//!   Full-range `u64` counters survive the binary encoding even where JSON
//!   would be limited to exact-in-`f64` integers (≤ 2⁵³). Corrupt, truncated
//!   and version-bumped binary files are rejected with a diagnosis, never
//!   misparsed.
//! * **Pinned bytes**: one fixed checkpoint of each encoding is compared with
//!   literals captured from an earlier build, so old checkpoints keep
//!   resuming across refactors of the encoders.
//! * **SoA ≡ AoS**: the [`TriangleStream`] lanes are a lossless re-layout of
//!   the AoS triangles — geometry output, interned draw states and tile
//!   binning agree exactly between the two representations on every suite
//!   scene.

#[allow(dead_code)]
mod support;

use libra_repro::prelude::*;
use support::{check, Gen};
use tbr_common::stats::{CacheStats, DramStats, TileHeatmap, TileTally};
use tbr_geom::pipeline::process_scene_stream;
use tbr_geom::stream::TriangleStream;
use tbr_sim::checkpoint::{
    self, Checkpoint, CheckpointFormat, CheckpointHeader, CheckpointWriter,
};
use tbr_sim::CampaignResult;
use tbr_tiling::binner::{bin_stream, bin_triangles};
use tbr_workloads::SceneGenerator;

fn tmp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("libra_bs_{}_{}", std::process::id(), name))
        .to_string_lossy()
        .into_owned()
}

fn cleanup(path: &str) {
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// Random model values
// ---------------------------------------------------------------------------

/// Largest integer JSON can round-trip exactly (the in-repo parser holds
/// numbers as `f64`); binary-only tests go beyond it on purpose.
const JSON_EXACT_MAX: u64 = 1 << 53;

/// Uniform `u64` in `[0, max]` — [`Gen::u64`] only spans 2³²-wide ranges, so
/// wide values are composed from two draws (modulo bias is fine for tests).
fn wide(g: &mut Gen, max: u64) -> u64 {
    let v = ((g.any_u32() as u64) << 32) | g.any_u32() as u64;
    if max == u64::MAX {
        v
    } else {
        v % (max + 1)
    }
}

fn gen_cache(g: &mut Gen, max: u64) -> CacheStats {
    CacheStats {
        accesses: wide(g, max),
        hits: wide(g, max),
        misses: wide(g, max),
        evictions: wide(g, max),
    }
}

fn gen_dram(g: &mut Gen, max: u64) -> DramStats {
    let n = g.usize(0, 5);
    DramStats {
        reads: wide(g, max),
        writes: wide(g, max),
        row_hits: wide(g, max),
        row_misses: wide(g, max),
        latency_sum: wide(g, max),
        max_latency: wide(g, max),
        intervals: (0..n).map(|_| wide(g, max)).collect(),
        interval_width: g.u64(1, 1 << 20),
    }
}

fn gen_heatmap(g: &mut Gen, max: u64) -> TileHeatmap {
    let n = g.usize(0, 6);
    TileHeatmap {
        tiles: (0..n)
            .map(|_| TileTally {
                dram_accesses: wide(g, max),
                instructions: wide(g, max),
                fragments: wide(g, max),
                warps: wide(g, max),
            })
            .collect(),
    }
}

fn gen_frame_stats(g: &mut Gen, frame: u32, max: u64) -> FrameStats {
    FrameStats {
        frame: tbr_common::ids::FrameId(frame),
        geometry_cycles: wide(g, max),
        raster_cycles: wide(g, max),
        vertex_cache: gen_cache(g, max),
        tile_cache: gen_cache(g, max),
        texture_cache: gen_cache(g, max),
        l2_cache: gen_cache(g, max),
        dram: gen_dram(g, max),
        heatmap: gen_heatmap(g, max),
        vertices: wide(g, max),
        primitives: wide(g, max),
        fragments: wide(g, max),
        warps: wide(g, max),
        instructions: wide(g, max),
        texture_requests: wide(g, max),
        texture_latency_sum: wide(g, max),
        texture_fill_lines: wide(g, max),
        texture_unique_lines: wide(g, max),
        micro_events: wide(g, max),
    }
}

fn gen_sequence_stats(g: &mut Gen, max: u64) -> SequenceStats {
    let n = g.usize(0, 3);
    SequenceStats { frames: (0..n).map(|i| gen_frame_stats(g, i as u32, max)).collect() }
}

/// Panic payloads stress the JSON string escaper and the binary `str32` path.
const PANIC_POOL: &[&str] = &[
    "injected fault",
    "quote \" backslash \\ newline \n tab \t",
    "unicode: tilé ünïcode ✓",
    "",
];

/// A result for `job` named `abbrev`/`libra`.
fn result(job: usize, abbrev: &str, outcome: JobOutcome) -> CampaignResult {
    CampaignResult { job, abbrev: abbrev.into(), scheduler: "libra".into(), outcome }
}

fn gen_result(g: &mut Gen, job: usize, max: u64) -> CampaignResult {
    let abbrevs = ["AAt", "CCS", "MCp"];
    let abbrev = abbrevs[g.usize(0, abbrevs.len())];
    let outcome = match g.usize(0, 3) {
        0 => JobOutcome::Done {
            effective_seed: wide(g, u64::MAX),
            stats: gen_sequence_stats(g, max),
        },
        1 => JobOutcome::Failed {
            attempts: g.u32(1, 5),
            panic_msg: PANIC_POOL[g.usize(0, PANIC_POOL.len())].to_string(),
        },
        // `budget_cycles`/`spent_cycles` are plain JSON numbers (unlike the
        // hex-encoded seeds), so they respect `max` for the cross-format test.
        _ => JobOutcome::TimedOut {
            attempts: g.u32(1, 5),
            budget_cycles: wide(g, max),
            spent_cycles: wide(g, max),
        },
    };
    result(job, abbrev, outcome)
}

// ---------------------------------------------------------------------------
// Checkpoint sidecar
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_records_round_trip_json_and_binary_bit_exactly() {
    check("checkpoint_records_round_trip", 24, |g| {
        let jobs = g.usize(1, 6);
        let header = CheckpointHeader {
            seed: wide(g, u64::MAX),
            jobs,
            fingerprint: wide(g, u64::MAX),
        };
        // Counters stay ≤ 2⁵³ here so the *JSON* leg is exact too; the
        // binary-only full-range test below drops that cap.
        let results: Vec<CampaignResult> =
            (0..jobs).map(|j| gen_result(g, j, JSON_EXACT_MAX)).collect();

        let case = wide(g, u64::MAX); // unique scratch names per case
        let mut loaded = Vec::new();
        for format in [CheckpointFormat::Binary, CheckpointFormat::Json] {
            let path = tmp_path(&format!("rt_{case:x}_{format:?}"));
            let w = CheckpointWriter::create(&path, header, format)?;
            for r in &results {
                w.append(r)?;
            }
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            ensure_eq!(
                bytes.starts_with(checkpoint::BIN_MAGIC),
                format == CheckpointFormat::Binary
            );

            let ckpt = Checkpoint::load(&path)?;
            ensure_eq!(ckpt.format, format);
            ensure_eq!(ckpt.header, header);
            ensure!(ckpt.records == results, "{format:?}: decoded records diverged");

            // Byte-determinism: the same results always encode to the same file.
            let again = tmp_path(&format!("rt2_{case:x}_{format:?}"));
            let w2 = CheckpointWriter::create(&again, header, format)?;
            for r in &results {
                w2.append(r)?;
            }
            let bytes2 = std::fs::read(&again).map_err(|e| e.to_string())?;
            ensure!(bytes == bytes2, "{format:?}: re-encoding is not byte-deterministic");
            cleanup(&path);
            cleanup(&again);
            loaded.push(ckpt.records);
        }
        // JSON ↔ binary: both encodings decode to the same records.
        ensure!(loaded[0] == loaded[1], "binary and JSON decoded records diverged");
        Ok(())
    });
}

#[test]
fn binary_checkpoint_carries_full_range_u64_counters() {
    check("binary_checkpoint_full_range", 16, |g| {
        let header = CheckpointHeader { seed: u64::MAX, jobs: 1, fingerprint: u64::MAX };
        let result = gen_result(g, 0, u64::MAX);
        let path = tmp_path(&format!("full_{:x}", wide(g, u64::MAX)));
        let w = CheckpointWriter::create(&path, header, CheckpointFormat::Binary)?;
        w.append(&result)?;
        let ckpt = Checkpoint::load(&path)?;
        cleanup(&path);
        ensure_eq!(ckpt.records.len(), 1);
        ensure!(
            ckpt.records[0] == result,
            "full-range counters did not survive the binary round trip"
        );
        Ok(())
    });
}

#[test]
fn corrupt_binary_checkpoints_are_rejected() {
    // One well-formed single-record file, then every kind of damage.
    let header = CheckpointHeader { seed: 1, jobs: 1, fingerprint: 2 };
    let mut g = Gen::new(7);
    let result = gen_result(&mut g, 0, u64::MAX);
    let path = tmp_path("damage_base");
    let w = CheckpointWriter::create(&path, header, CheckpointFormat::Binary).unwrap();
    w.append(&result).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    cleanup(&path);

    let load = |bytes: &[u8], name: &str| -> Result<Checkpoint, String> {
        let p = tmp_path(name);
        std::fs::write(&p, bytes).unwrap();
        let r = Checkpoint::load(&p);
        cleanup(&p);
        r
    };

    // Truncation at every byte boundary after the magic: never a panic, never
    // a silent partial adoption — always an error mentioning the damage. The
    // one exception is the exact end of the header, which is a *valid* (empty)
    // checkpoint.
    let magic = checkpoint::BIN_MAGIC.len();
    let header_end = magic + 4 + 8 + 8 + 8;
    for cut in (magic..bytes.len()).filter(|&c| c != header_end) {
        let err = load(&bytes[..cut], "damage_trunc").expect_err("truncated file must not load");
        assert!(
            err.contains("truncated") || err.contains("version"),
            "cut at {cut}: undiagnosed error: {err}"
        );
    }
    assert!(load(&bytes[..header_end], "damage_empty").unwrap().records.is_empty());

    // Version bump.
    let mut v2 = bytes.clone();
    v2[magic] = checkpoint::BIN_VERSION as u8 + 1;
    let err = load(&v2, "damage_version").unwrap_err();
    assert!(err.contains("version"), "{err}");

    // A corrupted frame-length word pointing past the end of the file.
    let mut huge = bytes.clone();
    let frame_at = magic + 4 + 8 + 8 + 8;
    huge[frame_at..frame_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = load(&huge, "damage_len").unwrap_err();
    assert!(err.contains("truncated"), "{err}");

    // Trailing garbage after a complete frame is a corrupt frame, not ignored.
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&[0xAB; 3]);
    assert!(load(&trailing, "damage_trailing").is_err(), "trailing bytes must be rejected");
}

// ---------------------------------------------------------------------------
// Pinned on-disk encodings
// ---------------------------------------------------------------------------

/// Two frames with every field set to a distinct non-default value: a
/// three-bucket DRAM histogram, two heatmap tiles, and one counter above 2³²
/// so the high bytes of the little-endian encoding are pinned too.
fn pinned_stats() -> SequenceStats {
    let frame = |k: u64| FrameStats {
        frame: tbr_common::ids::FrameId(k as u32),
        geometry_cycles: 1_000 + k,
        raster_cycles: 9_000 + k,
        vertex_cache: CacheStats { accesses: 10 + k, hits: 6, misses: 4 + k, evictions: 1 },
        tile_cache: CacheStats { accesses: 20 + k, hits: 15, misses: 5 + k, evictions: 2 },
        texture_cache: CacheStats { accesses: 30 + k, hits: 21, misses: 9 + k, evictions: 3 },
        l2_cache: CacheStats { accesses: 40 + k, hits: 28, misses: 12 + k, evictions: 4 },
        dram: DramStats {
            reads: 120 + k,
            writes: 45,
            row_hits: 100,
            row_misses: 65 + k,
            latency_sum: 5_000_000_000 + k,
            max_latency: 321,
            intervals: vec![3, 0, 7 + k],
            interval_width: 5_000,
        },
        heatmap: TileHeatmap {
            tiles: vec![
                TileTally { dram_accesses: 50 + k, instructions: 60, fragments: 70, warps: 8 },
                TileTally { dram_accesses: 51, instructions: 61 + k, fragments: 71, warps: 9 },
            ],
        },
        vertices: 300 + k,
        primitives: 100 + k,
        fragments: 4_096 + k,
        warps: 128 + k,
        instructions: 65_536 + k,
        texture_requests: 777 + k,
        texture_latency_sum: 23_456 + k,
        texture_fill_lines: 640 + k,
        texture_unique_lines: 320 + k,
        micro_events: 99_999 + k,
    };
    SequenceStats { frames: vec![frame(1), frame(2)] }
}

/// One result per outcome; the panic message exercises the JSON escaper.
fn pinned_results() -> Vec<CampaignResult> {
    vec![
        result(
            0,
            "CCS",
            JobOutcome::Done { effective_seed: 0xDEAD_BEEF_0123_4567, stats: pinned_stats() },
        ),
        result(
            1,
            "AAt",
            JobOutcome::Failed {
                attempts: 2,
                panic_msg: "boom \"quoted\" \\ tab\t naïve".to_string(),
            },
        ),
        result(
            2,
            "GrT",
            JobOutcome::TimedOut { attempts: 1, budget_cycles: 1_000, spent_cycles: 52_341 },
        ),
    ]
}

const PINNED_HEADER: CheckpointHeader =
    CheckpointHeader { seed: 0x1234_5678_9ABC_DEF0, jobs: 3, fingerprint: 0x86ED_6B6D_51C2_3648 };

/// The JSON checkpoint the fixture encodes to, as an earlier build wrote it.
/// Files older builds wrote must keep resuming, so these bytes never change;
/// they are literals, never re-derived from the encoder under test.
const PINNED_JSON: &str = concat!(
    r#"{"schema":"libra-campaign-ckpt-v1","seed":"0x123456789abcdef0","jobs":3,"#,
    r#""fingerprint":"0x86ed6b6d51c23648"}"#, "\n",
    r#"{"job":0,"outcome":"done","abbrev":"CCS","scheduler":"libra","#,
    r#""effective_seed":"0xdeadbeef01234567","stats":{"frames":[{"frame":1,"#,
    r#""geometry_cycles":1001,"raster_cycles":9001,"vertex_cache":[11,6,5,1],"tile_cache":[21,15,"#,
    r#"6,2],"texture_cache":[31,21,10,3],"l2_cache":[41,28,13,4],"dram":{"reads":121,"writes":45,"#,
    r#""row_hits":100,"row_misses":66,"latency_sum":5000000001,"max_latency":321,"#,
    r#""interval_width":5000,"intervals":[3,0,8]},"heatmap":[[51,60,70,8],[51,62,71,9]],"#,
    r#""vertices":301,"primitives":101,"fragments":4097,"warps":129,"instructions":65537,"#,
    r#""texture_requests":778,"texture_latency_sum":23457,"texture_fill_lines":641,"#,
    r#""texture_unique_lines":321,"micro_events":100000},{"frame":2,"geometry_cycles":1002,"#,
    r#""raster_cycles":9002,"vertex_cache":[12,6,6,1],"tile_cache":[22,15,7,2],"#,
    r#""texture_cache":[32,21,11,3],"l2_cache":[42,28,14,4],"dram":{"reads":122,"writes":45,"#,
    r#""row_hits":100,"row_misses":67,"latency_sum":5000000002,"max_latency":321,"#,
    r#""interval_width":5000,"intervals":[3,0,9]},"heatmap":[[52,60,70,8],[51,63,71,9]],"#,
    r#""vertices":302,"primitives":102,"fragments":4098,"warps":130,"instructions":65538,"#,
    r#""texture_requests":779,"texture_latency_sum":23458,"texture_fill_lines":642,"#,
    r#""texture_unique_lines":322,"micro_events":100001}]}}"#, "\n",
    r#"{"job":1,"outcome":"failed","abbrev":"AAt","scheduler":"libra","attempts":2,"#,
    r#""panic_msg":"boom \"quoted\" \\ tab\u0009 naïve"}"#, "\n",
    r#"{"job":2,"outcome":"timeout","abbrev":"GrT","scheduler":"libra","attempts":1,"#,
    r#""budget_cycles":1000,"spent_cycles":52341}"#, "\n",
);

/// The binary checkpoint of the same fixture, as hex.
const PINNED_BINARY: &str = concat!(
    "4c49425241434b4201000000f0debc9a7856341203000000000000004836c251",
    "6d6bed861503000000000000030043435305006c696272610067452301efbead",
    "de0200000001000000e90300000000000029230000000000000b000000000000",
    "0006000000000000000500000000000000010000000000000015000000000000",
    "000f00000000000000060000000000000002000000000000001f000000000000",
    "0015000000000000000a00000000000000030000000000000029000000000000",
    "001c000000000000000d00000000000000040000000000000079000000000000",
    "002d000000000000006400000000000000420000000000000001f2052a010000",
    "0041010000000000008813000000000000030000000300000000000000000000",
    "000000000008000000000000000200000033000000000000003c000000000000",
    "004600000000000000080000000000000033000000000000003e000000000000",
    "00470000000000000009000000000000002d0100000000000065000000000000",
    "000110000000000000810000000000000001000100000000000a030000000000",
    "00a15b00000000000081020000000000004101000000000000a0860100000000",
    "0002000000ea030000000000002a230000000000000c00000000000000060000",
    "00000000000600000000000000010000000000000016000000000000000f0000",
    "0000000000070000000000000002000000000000002000000000000000150000",
    "00000000000b0000000000000003000000000000002a000000000000001c0000",
    "00000000000e0000000000000004000000000000007a000000000000002d0000",
    "00000000006400000000000000430000000000000002f2052a01000000410100",
    "0000000000881300000000000003000000030000000000000000000000000000",
    "0009000000000000000200000034000000000000003c00000000000000460000",
    "0000000000080000000000000033000000000000003f00000000000000470000",
    "000000000009000000000000002e010000000000006600000000000000021000",
    "0000000000820000000000000002000100000000000b03000000000000a25b00",
    "000000000082020000000000004201000000000000a186010000000000340000",
    "0001000000030041417405006c6962726101020000001b000000626f6f6d2022",
    "71756f74656422205c2074616209206e61c3af76652500000002000000030047",
    "725405006c696272610201000000e80300000000000075cc000000000000",
);

fn hex_bytes(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

#[test]
fn checkpoint_encodings_are_pinned_and_old_files_still_load() {
    let results = pinned_results();
    for (format, pinned) in [
        (CheckpointFormat::Json, PINNED_JSON.as_bytes().to_vec()),
        (CheckpointFormat::Binary, hex_bytes(PINNED_BINARY)),
    ] {
        let path = tmp_path(&format!("pinned_{format:?}"));
        let w = CheckpointWriter::create(&path, PINNED_HEADER, format).unwrap();
        for r in &results {
            w.append(r).unwrap();
        }
        let written = std::fs::read(&path).unwrap();
        cleanup(&path);
        if written != pinned {
            let shown: String = match format {
                CheckpointFormat::Json => String::from_utf8_lossy(&written).into_owned(),
                CheckpointFormat::Binary => written.iter().map(|b| format!("{b:02x}")).collect(),
            };
            panic!("{format:?} checkpoint bytes changed; the encoder now writes:\n{shown}");
        }

        // A file in the pinned bytes loads back into the fixture's records.
        let old = tmp_path(&format!("pinned_old_{format:?}"));
        std::fs::write(&old, &pinned).unwrap();
        let ckpt = Checkpoint::load(&old).unwrap();
        cleanup(&old);
        assert_eq!(ckpt.format, format);
        assert_eq!(ckpt.header, PINNED_HEADER);
        assert_eq!(ckpt.records, results, "{format:?}: pinned file decoded differently");
    }
}

// ---------------------------------------------------------------------------
// SoA ≡ AoS
// ---------------------------------------------------------------------------

#[test]
fn soa_stream_is_a_lossless_relayout_of_aos_triangles() {
    let screen = ScreenConfig::tiny();
    let profiles = suite();
    check("soa_equals_aos", 24, |g| {
        let profile = &profiles[g.usize(0, profiles.len())];
        let frame = g.u32(0, 4);
        let scene = SceneGenerator::new(profile, &screen).scene(frame);

        let (stream, _) = process_scene_stream(&scene, &screen);
        let tris = stream.to_triangles();

        // Lossless both ways: AoS → SoA → AoS is the identity, per-triangle
        // accessors agree with the AoS structs, and interning is consistent.
        let rebuilt = TriangleStream::from_triangles(&tris);
        ensure!(rebuilt.to_triangles() == tris, "{}: AoS→SoA→AoS not the identity", profile.abbrev);
        ensure_eq!(rebuilt.len(), stream.len());
        for (i, tri) in tris.iter().enumerate() {
            ensure!(stream.get(i) == *tri, "triangle {i} diverged");
            ensure_eq!(stream.bounding_box(i, &screen), tri.bounding_box(&screen));
            ensure_eq!(stream.vertices(i), tri.v);
        }

        // The Tiling Engine sees the same bins either way.
        ensure!(
            bin_stream(&stream, &screen) == bin_triangles(&tris, &screen),
            "{}: SoA and AoS binning diverged",
            profile.abbrev
        );
        Ok(())
    });
}
