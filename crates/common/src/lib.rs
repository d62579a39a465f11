//! # tbr-common — shared vocabulary of the LIBRA TBR GPU simulator
//!
//! This crate holds the types every other crate in the workspace speaks:
//!
//! * [`ids`] — strongly-typed identifiers for tiles, supertiles, frames, raster units,
//!   shader cores, textures and draw calls ([`ids::TileId`], [`ids::TileCoord`], …).
//! * [`config`] — the full simulated-GPU configuration ([`config::GpuConfig`]) with
//!   presets matching Table I of the paper (baseline 1 RU × 8 cores, LIBRA N RU × 4
//!   cores, LPDDR4-like DRAM, the cache hierarchy of an ARM-Valhall-class mobile GPU).
//! * [`stats`] — per-frame and per-sequence measurement containers (cache hit ratios,
//!   DRAM interval counters for Fig 7, per-tile heatmaps for Fig 2, texture latency
//!   accumulators for Fig 12, …), each listing its fields once for both exact
//!   encodings (JSON and binary).
//! * [`morton`] — the Morton (Z-order) codec and grid traversals used by the baseline
//!   tile fetcher and inside LIBRA supertiles.
//! * [`addr`] — the simulated physical address map (vertex data, parameter buffer,
//!   textures, framebuffer) and [`addr::AccessKind`].
//! * [`rng`] — the vendored deterministic PRNG (SplitMix64-seeded xoshiro256++)
//!   behind scene synthesis, property-test generation and campaign job seeding,
//!   keeping the workspace free of crates.io dependencies.
//! * [`trace`] — the runtime-gated cycle-level event tracer (spans + instants in
//!   simulated time) with a hand-rolled Chrome trace-event JSON writer for
//!   Perfetto / `chrome://tracing`.
//! * [`metrics`] — the typed metrics registry ([`metrics::MetricsRegistry`]) the
//!   GPU model, memory hierarchy and scheduler publish into; JSON/CSV output.
//! * [`json`] — a minimal validating JSON parser backing the trace-export smoke
//!   checks and the exact-format decoders, with their shared member lookups
//!   (no serde anywhere in the workspace).
//! * [`mechanism`] — the `--mechanism` axis ([`mechanism::MechanismSpec`]):
//!   which optional mechanisms (Rendering Elimination, WaSP) are layered on
//!   top of the scheduler for a run.
//! * [`arena`] — per-frame bump arenas ([`arena::Arena`]/[`arena::Span`]): the
//!   raster phase's scratch allocations become index spans into one backing
//!   vector, reset wholesale between frames.
//! * [`binio`] — endian-pinned (little-endian) binary encode/decode helpers
//!   behind the `libra-ckpt-bin-v1` checkpoint sidecar.
//! * [`hostprof`] — the host wall-clock twin of [`trace`]: a runtime-gated
//!   profiler the parallel event-loop driver publishes per-phase epoch/stall
//!   telemetry into (barrier waits, commit serialization, shard imbalance).
//! * [`wire`] — length-sane newline framing for the `libra-wire-v1` campaign
//!   service protocol (atomic frame writes, capped frame reads).
//!
//! Nothing in here performs simulation; it is pure data and arithmetic, which keeps
//! the dependency DAG of the workspace acyclic.
//!
//! ```
//! use tbr_common::config::{GpuConfig, ScreenConfig};
//!
//! let screen = ScreenConfig::quarter_fhd();
//! assert_eq!(screen.num_tiles(), 510); // same count as FHD 2x2 supertiles (§III-E)
//! let cfg = GpuConfig::baseline(screen);
//! assert_eq!(cfg.total_cores(), 8);
//! ```

#![deny(missing_docs)]

pub mod addr;
pub mod arena;
pub mod binio;
pub mod config;
pub mod error;
pub mod event_queue;
pub mod fasthash;
pub mod hilbert;
pub mod hostprof;
pub mod ids;
pub mod json;
pub mod mechanism;
pub mod metrics;
pub mod morton;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod wire;

/// Simulation time, in GPU core cycles (800 MHz in the paper's Table I).
pub type Cycle = u64;
