//! # tbr-sim — the cycle-level TBR GPU simulator
//!
//! Integrates every substrate of the workspace into the full GPU of Fig 3:
//!
//! * [`geometry_phase`] — the timed Geometry Pipeline + Tiling Engine: vertex fetch
//!   through the vertex cache, vertex shading on the unified cores, primitive
//!   assembly/cull/clip, and Parameter-Buffer writes through the L2;
//! * [`raster_phase`] — the event-driven Raster Pipeline: N Raster Units pulling
//!   tiles from the scheduler's [`libra::scheduler::FramePlan`], with warp-granular
//!   interleaving across RUs so shared L2/DRAM contention is causally ordered;
//! * [`gpu`] — [`GpuSimulator`]: the frame loop with LIBRA's feedback path (profile
//!   frame *n*, schedule frame *n + 1*), plus the orthogonal mechanism axes
//!   ([`tbr_common::mechanism::MechanismSpec`]): Rendering Elimination's per-tile
//!   signature cache and WaSP's spearhead warp scheduling;
//! * [`campaign`] — the deterministic, fault-tolerant parallel campaign driver:
//!   independent (workload × scheduler × config) sweep points fanned across
//!   `std::thread` workers via a work-stealing queue, bit-identical to the serial
//!   order, with per-job panic isolation, a watchdog cycle budget, and
//!   [`checkpoint`]-based crash salvage/resume (faults injectable via [`fault`]);
//! * [`service`] + [`wire`] — the campaign *service*: a `libra-sim serve` TCP
//!   coordinator sharding sweeps across `libra-sim worker` child processes over
//!   the `libra-wire-v1` line-JSON protocol, byte-identical to a single-process
//!   campaign and crash-tolerant through the same checkpoint/adopt machinery.
//!
//! The simulator is deterministic: the same configuration, scheduler and workload
//! always produce identical cycle counts and statistics.
//!
//! ```
//! use tbr_common::config::{GpuConfig, ScreenConfig};
//! use tbr_sim::{simulate_sequence, SchedulerKind};
//! use tbr_workloads::suite;
//!
//! // Two frames of a small screen finish quickly and deterministically.
//! let screen = ScreenConfig::tiny();
//! let profile = suite().remove(0);
//! let cfg = GpuConfig::libra(screen, 2);
//! let a = simulate_sequence(&cfg, SchedulerKind::Libra, &profile, 2);
//! let b = simulate_sequence(&cfg, SchedulerKind::Libra, &profile, 2);
//! assert_eq!(a.total_cycles(), b.total_cycles());
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod event_loop;
pub mod fault;
pub mod geometry_phase;
pub mod gpu;
pub mod imr;
mod raster_helper;
pub mod raster_phase;
pub mod report;
pub mod service;
pub mod wire;

pub use campaign::{
    Campaign, CampaignJob, CampaignProfile, CampaignResult, CampaignRun, CampaignSummary,
    JobOutcome, JobProfile, RunOptions, WorkerProfile,
};
pub use checkpoint::{Checkpoint, CheckpointFormat, CheckpointWriter};
pub use service::{
    run_sharded, run_worker, submit, Coordinator, ServeOptions, SubmitOutcome,
};
pub use wire::{JobSpec, Message, WIRE_VERSION};
pub use fault::{FaultKind, FaultSpec};
pub use event_loop::EventLoopMode;
pub use gpu::{
    simulate_sequence, simulate_sequence_mech, simulate_sequence_oracle,
    GpuSimulator,
};
pub use imr::simulate_sequence_imr;
pub use libra::scheduler::SchedulerKind;
