//! # tbr-mem — memory hierarchy of the LIBRA TBR GPU simulator
//!
//! Implements the memory system of Fig 3 in the paper:
//!
//! * [`cache::Cache`] — a set-associative, LRU, tag-only cache model used for the
//!   vertex cache, per-RU tile caches, per-core texture caches and the shared L2.
//! * [`dram::DramModel`] — a banked LPDDR4-like main memory with open-row policy,
//!   per-bank and per-channel-bus reservation, so the *effective* latency of a request
//!   grows with offered load. This queueing behaviour is the premise of the whole
//!   paper ("the response time of memory increases asymptotically as the utilization
//!   factor of the memory bandwidth approaches 100%", §I).
//! * [`hierarchy::MemoryHierarchy`] — the shared L2 + DRAM pair behind all L1s, and
//!   [`hierarchy::L1Cache`] — the private first-level caches that miss into it.
//!
//! Timing is modelled by *resource reservation*: every contended unit keeps a
//! `next_free` cycle and a request arriving at `t` starts no earlier than
//! `max(t, next_free)`. Requests must therefore be issued in (approximately)
//! non-decreasing time order, which the event-driven simulator in `tbr-sim`
//! guarantees.
//!
//! ```
//! use tbr_common::config::{CacheConfig, DramConfig};
//! use tbr_common::addr::AccessKind;
//! use tbr_mem::hierarchy::{L1Cache, MemoryHierarchy};
//!
//! let mut hier = MemoryHierarchy::new(CacheConfig::shared_l2(), DramConfig::lpddr4(), 5000);
//! let mut l1 = L1Cache::new(CacheConfig::texture_l1());
//! let cold = l1.access(0x4000_0000, 0, AccessKind::TextureRead, &mut hier);
//! assert!(!cold.hit);
//! let warm = l1.access(0x4000_0000, cold.completion, AccessKind::TextureRead, &mut hier);
//! assert!(warm.hit);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod hierarchy;

pub use cache::{Cache, Lookup};
pub use dram::DramModel;
pub use hierarchy::{L1Cache, L1Outcome, MemoryHierarchy};
