//! # libra-bench — shared infrastructure of the experiment harness
//!
//! Every `benches/figXX_*.rs` target regenerates one table or figure of the paper:
//! it runs the relevant configurations over the relevant workloads, prints the same
//! rows/series the paper reports (with the paper's own numbers alongside for
//! comparison), and writes a CSV under `bench_results/`.
//!
//! Environment knobs:
//!
//! * `LIBRA_FRAMES` — frames per sequence (default 8; the paper uses 25, which the
//!   full reproduction run in `EXPERIMENTS.md` also uses).
//! * `LIBRA_BENCHMARKS` — comma-separated abbreviations to restrict the workload set
//!   (e.g. `LIBRA_BENCHMARKS=CCS,SuS` for a quick look).
//! * `LIBRA_FHD=1` — run at full 1920×1088 instead of the default 960×544
//!   (see `DESIGN.md` §1 for the resolution substitution).

#![warn(missing_docs)]

pub mod harness;

use std::fs;
use std::path::PathBuf;

use tbr_common::config::{GpuConfig, ScreenConfig};
use tbr_common::stats::SequenceStats;
use tbr_sim::{simulate_sequence, SchedulerKind};
use tbr_workloads::BenchmarkProfile;

/// Experiment environment (frames, screen, workload filter, output directory).
#[derive(Debug, Clone)]
pub struct Env {
    /// Frames simulated per sequence.
    pub frames: u32,
    /// Screen configuration.
    pub screen: ScreenConfig,
    /// Optional workload filter (abbreviations).
    pub filter: Option<Vec<String>>,
    /// Directory CSV results are written to.
    pub out_dir: PathBuf,
}

impl Env {
    /// Reads the environment knobs. `default_frames` applies when `LIBRA_FRAMES` is
    /// unset.
    pub fn from_env(default_frames: u32) -> Self {
        let frames = std::env::var("LIBRA_FRAMES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_frames);
        let screen = if std::env::var("LIBRA_FHD").is_ok_and(|v| v == "1") {
            ScreenConfig::fhd()
        } else {
            ScreenConfig::quarter_fhd()
        };
        let filter = std::env::var("LIBRA_BENCHMARKS")
            .ok()
            .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
        let out_dir = PathBuf::from("bench_results");
        Self { frames, screen, filter, out_dir }
    }

    /// Applies the `LIBRA_BENCHMARKS` filter to a workload list.
    pub fn select(&self, profiles: Vec<BenchmarkProfile>) -> Vec<BenchmarkProfile> {
        match &self.filter {
            None => profiles,
            Some(keep) => profiles
                .into_iter()
                .filter(|p| keep.iter().any(|k| k == p.abbrev))
                .collect(),
        }
    }

    /// Runs one (config, scheduler, workload) sequence.
    pub fn run(
        &self,
        cfg: &GpuConfig,
        kind: SchedulerKind,
        profile: &BenchmarkProfile,
    ) -> SequenceStats {
        simulate_sequence(cfg, kind, profile, self.frames)
    }

    /// Writes a CSV result file; failures are reported but non-fatal (benches must
    /// not fail because of a read-only filesystem).
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        let _ = fs::create_dir_all(&self.out_dir);
        let path = self.out_dir.join(format!("{name}.csv"));
        let mut body = String::from(header);
        body.push('\n');
        for r in rows {
            body.push_str(r);
            body.push('\n');
        }
        match fs::write(&path, body) {
            Ok(()) => println!("\n[csv] {}", path.display()),
            Err(e) => eprintln!("[csv] could not write {}: {e}", path.display()),
        }
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str, paper: &str) {
    println!("================================================================");
    println!("{id} — {what}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// Arithmetic mean.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean (for speedups).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The two GPU configurations of the main evaluation (Table I).
#[derive(Debug, Clone)]
pub struct MainConfigs {
    /// Baseline: 1 RU × 8 cores.
    pub baseline: GpuConfig,
    /// PTR/LIBRA: 2 RU × 4 cores.
    pub dual_ru: GpuConfig,
}

impl MainConfigs {
    /// Builds both from the environment's screen.
    pub fn new(env: &Env) -> Self {
        Self {
            baseline: GpuConfig::baseline(env.screen),
            dual_ru: GpuConfig::libra(env.screen, 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn env_select_filters() {
        let env = Env {
            frames: 1,
            screen: ScreenConfig::tiny(),
            filter: Some(vec!["CCS".into()]),
            out_dir: PathBuf::from("/tmp"),
        };
        let sel = env.select(tbr_workloads::suite());
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].abbrev, "CCS");
    }
}

/// One workload's results across the three main configurations.
#[derive(Debug, Clone)]
pub struct MainRow {
    /// Workload abbreviation.
    pub abbrev: &'static str,
    /// Baseline GPU (1 RU × 8 cores, Z-order).
    pub base: SequenceStats,
    /// PTR alone (2 RU × 4 cores, interleaved Z-order).
    pub ptr: SequenceStats,
    /// Full LIBRA (2 RU × 4 cores, adaptive scheduler).
    pub libra: SequenceStats,
}

/// Runs the main evaluation matrix (baseline / PTR / LIBRA) over `profiles` —
/// shared by Figs 11, 12, 13, 14, 15 and 17.
pub fn run_main_matrix(env: &Env, profiles: &[BenchmarkProfile]) -> Vec<MainRow> {
    let cfgs = MainConfigs::new(env);
    profiles
        .iter()
        .map(|p| {
            let base = env.run(&cfgs.baseline, SchedulerKind::SingleZOrder, p);
            let ptr = env.run(&cfgs.dual_ru, SchedulerKind::InterleavedZOrder, p);
            let libra = env.run(&cfgs.dual_ru, SchedulerKind::Libra, p);
            MainRow { abbrev: p.abbrev, base, ptr, libra }
        })
        .collect()
}
