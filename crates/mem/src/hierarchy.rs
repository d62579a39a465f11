//! The shared part of the memory system (L2 + DRAM) and the private L1s in front of
//! it.
//!
//! All Raster Units and shader cores share one [`MemoryHierarchy`]; each keeps its own
//! [`L1Cache`] (texture caches per core, tile cache per RU, one vertex cache). An L1
//! miss turns into an L2 access; an L2 miss turns into a DRAM request. Framebuffer
//! flush writes bypass the L2 (TBR colour buffers stream straight to main memory,
//! §II-C).
//!
//! The hierarchy supports an *ideal memory* mode in which every L1 access hits — the
//! configuration the paper uses to separate compute time from memory time (Fig 6a).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cache::Cache;
use crate::dram::DramModel;
use tbr_common::addr::AccessKind;
use tbr_common::config::{CacheConfig, DramConfig};
use tbr_common::metrics::MetricsRegistry;
use tbr_common::stats::{CacheStats, DramStats};
use tbr_common::Cycle;

/// Tracks outstanding misses against an MSHR budget. A new miss at `now` returns the
/// cycle it may actually issue (stalling for the earliest outstanding fill when all
/// MSHRs are busy).
#[derive(Debug, Clone, Default)]
struct MshrFile {
    capacity: u64,
    /// Completion cycles of the outstanding fills, earliest on top.
    outstanding: BinaryHeap<Reverse<Cycle>>,
}

impl MshrFile {
    fn new(capacity: u64) -> Self {
        Self {
            capacity,
            outstanding: BinaryHeap::new(),
        }
    }

    /// Reserves an MSHR for a miss issued at `now`; returns the possibly-delayed
    /// issue time. `record_fill` must be called with the fill completion afterwards.
    fn acquire(&mut self, now: Cycle) -> Cycle {
        if self.capacity == 0 {
            return now;
        }
        while self.outstanding.peek().is_some_and(|&Reverse(done)| done <= now) {
            self.outstanding.pop();
        }
        if self.outstanding.len() as u64 >= self.capacity {
            let Reverse(earliest) = self.outstanding.pop().expect("non-empty");
            now.max(earliest)
        } else {
            now
        }
    }

    fn record_fill(&mut self, completion: Cycle) {
        if self.capacity > 0 {
            self.outstanding.push(Reverse(completion));
        }
    }

    fn clear(&mut self) {
        self.outstanding.clear();
    }
}

/// Result of an access that reached the shared hierarchy (L2/DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Outcome {
    /// Cycle at which the requested data is available (or the write retired).
    pub completion: Cycle,
    /// Whether the L2 served the request (false = DRAM was involved or bypassed).
    pub l2_hit: bool,
    /// Number of DRAM requests this access generated (0 or 1).
    pub dram_accesses: u8,
}

/// Shared L2 cache + DRAM, with port reservation for L2 bandwidth.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l2: Cache,
    l2_port_free: Cycle,
    l2_mshrs: MshrFile,
    dram: DramModel,
    /// When `true`, the hierarchy (and the L1s in front of it) never miss: every
    /// access costs only the hit latency. Used for Fig 6a's compute/memory split.
    pub ideal: bool,
}

impl MemoryHierarchy {
    /// Builds the shared hierarchy. `interval_width` is the DRAM histogram bucket
    /// size in cycles (5 000 for Fig 7).
    pub fn new(l2_cfg: CacheConfig, dram_cfg: DramConfig, interval_width: Cycle) -> Self {
        Self {
            l2: Cache::new(l2_cfg),
            l2_port_free: 0,
            l2_mshrs: MshrFile::new(l2_cfg.mshrs),
            dram: DramModel::new(dram_cfg, interval_width),
            ideal: false,
        }
    }

    /// Services a request from an L1 miss (or a direct Parameter-Buffer/framebuffer
    /// access) arriving at `now`.
    pub fn access(&mut self, addr: u64, now: Cycle, kind: AccessKind) -> L2Outcome {
        if self.ideal {
            return L2Outcome {
                completion: now + self.l2.config().latency,
                l2_hit: true,
                dram_accesses: 0,
            };
        }
        if matches!(kind, AccessKind::FramebufferWrite) {
            // Colour-buffer flush streams past the L2 straight to DRAM.
            let completion = self.dram.request(addr, now, true);
            return L2Outcome {
                completion,
                l2_hit: false,
                dram_accesses: 1,
            };
        }

        let start = now.max(self.l2_port_free);
        self.l2_port_free = start + self.l2.config().port_occupancy;
        let l2_done = start + self.l2.config().latency;
        if self.l2.access(addr).is_hit() {
            L2Outcome {
                completion: l2_done,
                l2_hit: true,
                dram_accesses: 0,
            }
        } else {
            let issue = self.l2_mshrs.acquire(l2_done);
            let completion = self.dram.request(addr, issue, kind.is_write());
            self.l2_mshrs.record_fill(completion);
            L2Outcome {
                completion,
                l2_hit: false,
                dram_accesses: 1,
            }
        }
    }

    /// L2 counters.
    #[inline]
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// DRAM counters.
    #[inline]
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Ends a frame: returns `(l2, dram)` counters and resets them along with all
    /// timing reservations; cache contents and open rows stay warm (frame-to-frame
    /// locality is real in TBR GPUs).
    pub fn end_frame(&mut self) -> (CacheStats, DramStats) {
        let l2 = *self.l2.stats();
        self.l2.reset_stats();
        self.l2_port_free = 0;
        self.l2_mshrs.clear();
        let dram = self.dram.take_stats();
        self.dram.reset_state();
        (l2, dram)
    }

    /// Publishes the hierarchy's *live* (since the last `end_frame`) counters into
    /// `reg` under the given labels: the shared L2 as `cache=l2` plus the `dram_*`
    /// family and the refresh count.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let mut l2_labels: Vec<(&str, &str)> = labels.to_vec();
        l2_labels.push(("cache", "l2"));
        self.l2.stats().publish(reg, &l2_labels);
        self.dram.stats().publish(reg, labels);
        reg.add_counter("dram_refreshes", labels, self.dram.refreshes());
    }
}

/// Result of an L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Outcome {
    /// Cycle at which the data is available to the requester.
    pub completion: Cycle,
    /// Whether the L1 served the request.
    pub hit: bool,
    /// DRAM requests generated further down (0 or 1).
    pub dram_accesses: u8,
    /// The line address filled into this L1 on a miss (for replication tracking).
    pub filled_line: Option<u64>,
}

/// A private first-level cache (texture, tile or vertex cache) with a single access
/// port, missing into a shared [`MemoryHierarchy`].
#[derive(Debug, Clone)]
pub struct L1Cache {
    cache: Cache,
    port_free: Cycle,
    mshrs: MshrFile,
}

impl L1Cache {
    /// Builds an L1 from its geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cache: Cache::new(cfg),
            port_free: 0,
            mshrs: MshrFile::new(cfg.mshrs),
        }
    }

    /// Performs an access arriving at `now`. On a miss the line is fetched through
    /// `hier` and filled. In ideal-memory mode ([`MemoryHierarchy::ideal`]) every
    /// access hits.
    pub fn access(
        &mut self,
        addr: u64,
        now: Cycle,
        kind: AccessKind,
        hier: &mut MemoryHierarchy,
    ) -> L1Outcome {
        let ideal = hier.ideal;
        self.access_inner(addr, now, kind, Some(hier), ideal)
    }

    /// Whether `addr`'s line is resident right now, without disturbing LRU state
    /// or counters. When this holds (or in ideal mode), an access is guaranteed
    /// to be served entirely by this L1 — the shared hierarchy is untouched —
    /// which is what lets the parallel raster driver execute the access on a
    /// worker thread via [`L1Cache::access_resident`].
    #[inline]
    pub fn is_resident(&self, addr: u64) -> bool {
        self.cache.probe(addr)
    }

    /// Performs an access that the caller has proven local: `addr` is resident
    /// ([`L1Cache::is_resident`]) or `ideal` is set. State updates (port
    /// reservation, LRU, counters) are exactly those of [`L1Cache::access`] on
    /// its hit/ideal path — the two share one implementation.
    ///
    /// # Panics
    /// Panics if the access would actually miss (a misclassified event — a bug
    /// in the caller's residency check, never a data-dependent condition).
    pub fn access_resident(
        &mut self,
        addr: u64,
        now: Cycle,
        kind: AccessKind,
        ideal: bool,
    ) -> L1Outcome {
        self.access_inner(addr, now, kind, None, ideal)
    }

    /// The one body behind [`L1Cache::access`] and [`L1Cache::access_resident`]:
    /// `hier` is `None` exactly when the caller guarantees the hit/ideal path.
    fn access_inner(
        &mut self,
        addr: u64,
        now: Cycle,
        kind: AccessKind,
        hier: Option<&mut MemoryHierarchy>,
        ideal: bool,
    ) -> L1Outcome {
        let start = now.max(self.port_free);
        self.port_free = start + self.cache.config().port_occupancy;
        let l1_done = start + self.cache.config().latency;

        if ideal {
            // Ideal memory serves every access at hit latency, so it counts
            // every access as a hit: no miss, no fill, no eviction. The
            // counters feed the reports, LIBRA's feedback and WaSP. Nothing
            // reads the tag store in ideal mode (every warp step counts as
            // resident), so it is left untouched.
            self.cache.count_hit();
            return L1Outcome {
                completion: l1_done,
                hit: true,
                dram_accesses: 0,
                filled_line: None,
            };
        }

        if self.cache.access(addr).is_hit() {
            L1Outcome {
                completion: l1_done,
                hit: true,
                dram_accesses: 0,
                filled_line: None,
            }
        } else {
            let hier = hier.expect("access_resident called on a non-resident line");
            let line = self.cache.line_addr(addr);
            let issue = self.mshrs.acquire(l1_done);
            let down = hier.access(line, issue, kind);
            self.mshrs.record_fill(down.completion);
            L1Outcome {
                completion: down.completion + 1, // fill-forward cycle
                hit: false,
                dram_accesses: down.dram_accesses,
                filled_line: Some(line),
            }
        }
    }

    /// Counters of this L1.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Ends a frame: returns the counters and resets them and the port reservation;
    /// contents stay warm.
    pub fn end_frame(&mut self) -> CacheStats {
        let s = *self.cache.stats();
        self.cache.reset_stats();
        self.port_free = 0;
        self.mshrs.clear();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(CacheConfig::shared_l2(), DramConfig::lpddr4(), 5000)
    }

    #[test]
    fn l1_miss_goes_through_l2_to_dram_then_hits() {
        let mut h = hier();
        let mut l1 = L1Cache::new(CacheConfig::texture_l1());
        let a = l1.access(0x4000_0000, 0, AccessKind::TextureRead, &mut h);
        assert!(!a.hit);
        assert_eq!(a.dram_accesses, 1);
        assert!(
            a.completion > 100,
            "cold miss must pay DRAM latency, got {}",
            a.completion
        );
        let b = l1.access(0x4000_0000, a.completion, AccessKind::TextureRead, &mut h);
        assert!(b.hit);
        assert_eq!(
            b.completion - a.completion,
            CacheConfig::texture_l1().latency
        );
    }

    #[test]
    fn l2_absorbs_misses_from_sibling_l1s() {
        let mut h = hier();
        let mut l1a = L1Cache::new(CacheConfig::texture_l1());
        let mut l1b = L1Cache::new(CacheConfig::texture_l1());
        let a = l1a.access(0x4000_0000, 0, AccessKind::TextureRead, &mut h);
        // Second core misses its own L1 but hits the shared L2: no second DRAM trip.
        let b = l1b.access(0x4000_0000, a.completion, AccessKind::TextureRead, &mut h);
        assert!(!b.hit);
        assert_eq!(b.dram_accesses, 0);
        assert_eq!(h.dram_stats().total_accesses(), 1);
        assert!(
            b.completion - a.completion < 50,
            "L2 hit must be much cheaper than DRAM"
        );
    }

    #[test]
    fn framebuffer_writes_bypass_l2() {
        let mut h = hier();
        let before = h.l2_stats().accesses;
        let out = h.access(0x8000_0000, 0, AccessKind::FramebufferWrite);
        assert_eq!(h.l2_stats().accesses, before, "no L2 access for FB flush");
        assert_eq!(out.dram_accesses, 1);
        assert_eq!(h.dram_stats().writes, 1);
    }

    #[test]
    fn ideal_mode_makes_every_access_an_l1_hit() {
        let mut h = hier();
        h.ideal = true;
        let mut l1 = L1Cache::new(CacheConfig::texture_l1());
        for i in 0..1000u64 {
            let o = l1.access(0x4000_0000 + i * 4096, i, AccessKind::TextureRead, &mut h);
            assert!(o.hit);
            assert_eq!(o.dram_accesses, 0);
            assert_eq!(o.filled_line, None);
        }
        assert_eq!(h.dram_stats().total_accesses(), 0);
        // The counters say what the timing did: every access hit.
        let s = l1.end_frame();
        assert_eq!((s.accesses, s.hits, s.misses, s.evictions), (1000, 1000, 0, 0));
    }

    #[test]
    fn end_frame_resets_counters_but_keeps_contents() {
        let mut h = hier();
        let mut l1 = L1Cache::new(CacheConfig::texture_l1());
        l1.access(0x4000_0000, 0, AccessKind::TextureRead, &mut h);
        let (l2s, ds) = h.end_frame();
        assert_eq!(l2s.accesses, 1);
        assert_eq!(ds.total_accesses(), 1);
        let s = l1.end_frame();
        assert_eq!(s.accesses, 1);
        // Warm across the frame boundary:
        let o = l1.access(0x4000_0000, 0, AccessKind::TextureRead, &mut h);
        assert!(o.hit, "L1 contents must survive end_frame");
        assert_eq!(h.dram_stats().total_accesses(), 0);
    }

    #[test]
    fn l2_port_serialises_back_to_back_misses() {
        let mut h = hier();
        // Two different-line accesses at the same cycle: the second's L2 access must
        // start after the first's port occupancy.
        let a = h.access(0x4000_0000, 0, AccessKind::TextureRead);
        let b = h.access(0x4000_1000, 0, AccessKind::TextureRead);
        assert!(b.completion >= a.completion.min(b.completion));
        assert!(h.l2_stats().accesses == 2);
    }

    #[test]
    fn publish_metrics_exports_live_counters() {
        let mut h = hier();
        let mut l1 = L1Cache::new(CacheConfig::texture_l1());
        l1.access(0x4000_0000, 0, AccessKind::TextureRead, &mut h);
        let mut reg = MetricsRegistry::new();
        h.publish_metrics(&mut reg, &[("scope", "test")]);
        assert_eq!(
            reg.counter_value("cache_accesses", &[("scope", "test"), ("cache", "l2")]),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("dram_reads", &[("scope", "test")]),
            Some(1)
        );
        assert!(reg
            .get("dram_requests_per_interval", &[("scope", "test")])
            .is_some());
    }

    #[test]
    fn param_write_goes_through_l2() {
        let mut h = hier();
        let out = h.access(0x2000_0000, 0, AccessKind::ParamWrite);
        assert_eq!(h.l2_stats().accesses, 1);
        assert_eq!(out.dram_accesses, 1, "cold write-allocate reaches DRAM");
        // Subsequent read of the same line hits in L2.
        let rd = h.access(0x2000_0000, out.completion, AccessKind::ParamRead);
        assert!(rd.l2_hit);
    }
}
