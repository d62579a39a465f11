//! # LIBRA reproduction — umbrella crate
//!
//! This crate re-exports the whole workspace behind a single dependency so that the
//! repository-level examples and integration tests (and downstream users who want
//! "everything") can write `use libra_repro::prelude::*;`.
//!
//! The workspace reproduces *LIBRA: Memory Bandwidth- and Locality-Aware Parallel Tile
//! Rendering* (MICRO 2024) on top of a from-scratch cycle-level Tile-Based Rendering
//! GPU simulator. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and table.
//!
//! ## Quickstart
//!
//! ```
//! use libra_repro::prelude::*;
//!
//! // Simulate three frames of the Candy-Crush-like workload on the baseline GPU and
//! // on LIBRA, and compare raster cycles.
//! let screen = ScreenConfig::quarter_fhd();
//! let profile = suite().into_iter().find(|p| p.abbrev == "CCS").unwrap();
//! let baseline = GpuConfig::baseline(screen);
//! let libra_cfg = GpuConfig::libra(screen, 2);
//!
//! let base = simulate_sequence(&baseline, SchedulerKind::SingleZOrder, &profile, 3);
//! let libra = simulate_sequence(&libra_cfg, SchedulerKind::Libra, &profile, 3);
//! assert!(libra.total_cycles() > 0 && base.total_cycles() > 0);
//! ```

#![warn(missing_docs)]

pub use libra;
pub use tbr_common;
pub use tbr_energy;
pub use tbr_geom;
pub use tbr_mem;
pub use tbr_raster;
pub use tbr_sim;
pub use tbr_tiling;
pub use tbr_workloads;

/// Commonly used items, flattened for examples and tests.
pub mod prelude {
    pub use libra::adaptive::AdaptiveController;
    pub use libra::scheduler::{SchedulerKind, TileScheduler};
    pub use libra::supertile::SupertileGrid;
    pub use libra::temperature::TemperatureTable;
    pub use tbr_common::config::{DramConfig, GpuConfig, ScreenConfig};
    pub use tbr_common::ids::{SupertileId, TileCoord, TileId};
    pub use tbr_common::mechanism::MechanismSpec;
    pub use tbr_common::metrics::MetricsRegistry;
    pub use tbr_common::stats::{FrameStats, SequenceStats};
    pub use tbr_common::trace::{self, Trace, Track};
    pub use tbr_energy::EnergyModel;
    pub use tbr_sim::{
        event_loop, simulate_sequence, simulate_sequence_mech, Campaign,
        CampaignProfile, CampaignResult, CampaignRun, CampaignSummary, CheckpointFormat,
        EventLoopMode, FaultSpec, GpuSimulator, JobSuccess, RunOptions,
    };
    pub use tbr_workloads::{suite, BenchmarkProfile, Category};
}
