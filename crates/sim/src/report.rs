//! Human-readable reports over frame/sequence statistics.
//!
//! The experiment harness prints its own tables; this module provides the reusable
//! pieces examples and downstream users want: a one-line frame summary, a sequence
//! summary, and a side-by-side comparison of two sequences (the baseline-vs-LIBRA
//! view of the paper's result tables).

use tbr_common::config::GpuConfig;
use tbr_common::metrics::MetricsRegistry;
use tbr_common::stats::{FrameStats, SequenceStats};

use crate::campaign::CampaignResult;

/// Serialises the per-frame stats of every *successful* campaign job into one
/// `libra-metrics-v1` document (labels: `job`, `bench`, `scheduler`, `frame`).
/// Failed jobs contribute nothing, so a resumed run's report is byte-identical
/// to an uninterrupted one once every job has succeeded — and because results
/// are keyed by campaign position, a sharded service run emits the same bytes
/// as a single-process sweep. This is the determinism anchor the CLI, the
/// campaign service, and CI's `cmp` gates all share.
pub fn campaign_metrics_json(results: &[CampaignResult]) -> String {
    let mut reg = MetricsRegistry::new();
    for r in results {
        if let Some(stats) = r.stats() {
            let job = r.job.to_string();
            for (f, fs) in stats.frames.iter().enumerate() {
                let frame = f.to_string();
                fs.publish(
                    &mut reg,
                    &[
                        ("job", job.as_str()),
                        ("bench", r.abbrev.as_str()),
                        ("scheduler", r.scheduler.as_str()),
                        ("frame", frame.as_str()),
                    ],
                );
            }
        }
    }
    reg.to_json()
}

/// One-line summary of a frame.
pub fn frame_line(f: &FrameStats) -> String {
    format!(
        "{}: {} cycles (geom {} + raster {}), {} prims, {} frags, {} warps, \
         tex hit {:.1}%, tile hit {:.1}%, L2 hit {:.1}%, tex lat {:.1}, DRAM {} (lat {:.1})",
        f.frame,
        f.total_cycles(),
        f.geometry_cycles,
        f.raster_cycles,
        f.primitives,
        f.fragments,
        f.warps,
        f.texture_cache.hit_ratio() * 100.0,
        f.tile_cache.hit_ratio() * 100.0,
        f.l2_cache.hit_ratio() * 100.0,
        f.avg_texture_latency(),
        f.dram.total_accesses(),
        f.dram.avg_latency(),
    )
}

/// Multi-line summary of a sequence.
pub fn sequence_summary(label: &str, s: &SequenceStats, cfg: &GpuConfig) -> String {
    let mut out = format!(
        "{label}: {} frames, {:.0} cycles/frame ({:.1} FPS @ {} MHz)\n",
        s.frames.len(),
        s.avg_frame_cycles(),
        cfg.fps(s.avg_frame_cycles()),
        cfg.freq_mhz
    );
    out.push_str(&format!(
        "  texture: hit {:.1}%, latency {:.1} cycles, replication {:.2}x\n",
        s.texture_hit_ratio() * 100.0,
        s.avg_texture_latency(),
        s.avg_texture_replication()
    ));
    out.push_str(&format!(
        "  caches: tile hit {:.1}%, L2 hit {:.1}%\n",
        s.tile_hit_ratio() * 100.0,
        s.l2_hit_ratio() * 100.0
    ));
    out.push_str(&format!(
        "  DRAM: {:.0} accesses/frame\n",
        s.total_dram_accesses() as f64 / s.frames.len().max(1) as f64
    ));
    out
}

/// Side-by-side comparison: speedup and the paper's headline metrics of `candidate`
/// relative to `baseline`.
pub fn compare(
    baseline_label: &str,
    baseline: &SequenceStats,
    candidate_label: &str,
    candidate: &SequenceStats,
) -> String {
    let speedup = candidate.speedup_over(baseline);
    let lat = if baseline.avg_texture_latency() > 0.0 {
        (1.0 - candidate.avg_texture_latency() / baseline.avg_texture_latency()) * 100.0
    } else {
        0.0
    };
    let hit = (candidate.texture_hit_ratio() - baseline.texture_hit_ratio()) * 100.0;
    format!(
        "{candidate_label} vs {baseline_label}: speedup {:.3}x ({:+.1}%), \
         texture latency {:+.1}%, texture hit ratio {:+.1} pp, DRAM accesses {:.3}x",
        speedup,
        (speedup - 1.0) * 100.0,
        -lat,
        hit,
        candidate.total_dram_accesses() as f64 / baseline.total_dram_accesses().max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::config::ScreenConfig;
    use tbr_common::stats::CacheStats;

    fn seq(cycles: u64, hit: u64) -> SequenceStats {
        SequenceStats {
            frames: vec![FrameStats {
                raster_cycles: cycles,
                geometry_cycles: cycles / 10,
                texture_cache: CacheStats { accesses: 100, hits: hit, misses: 100 - hit, evictions: 0 },
                texture_requests: 10,
                texture_latency_sum: 400,
                ..FrameStats::default()
            }],
        }
    }

    #[test]
    fn frame_line_mentions_key_metrics() {
        let f = FrameStats {
            raster_cycles: 1234,
            tile_cache: CacheStats { accesses: 10, hits: 5, misses: 5, evictions: 0 },
            l2_cache: CacheStats { accesses: 4, hits: 3, misses: 1, evictions: 0 },
            ..FrameStats::default()
        };
        let line = frame_line(&f);
        assert!(line.contains("1234"));
        assert!(line.contains("DRAM"));
        assert!(line.contains("tile hit 50.0%"), "{line}");
        assert!(line.contains("L2 hit 75.0%"), "{line}");
    }

    #[test]
    fn sequence_summary_contains_fps() {
        let cfg = GpuConfig::baseline(ScreenConfig::tiny());
        let text = sequence_summary("base", &seq(800_000, 70), &cfg);
        assert!(text.contains("base"));
        assert!(text.contains("FPS"));
        assert!(text.contains("texture"));
        assert!(text.contains("tile hit"), "{text}");
        assert!(text.contains("L2 hit"), "{text}");
    }

    #[test]
    fn compare_reports_speedup_direction() {
        let slow = seq(1000, 60);
        let fast = seq(500, 80);
        let text = compare("slow", &slow, "fast", &fast);
        assert!(text.contains("2.0"), "{text}");
        assert!(text.contains("+20.0 pp"), "{text}");
    }
}
