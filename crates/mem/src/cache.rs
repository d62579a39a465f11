//! Set-associative, LRU, tag-only cache model.
//!
//! The simulator never stores data behind addresses, so the cache tracks *tags only*:
//! enough to decide hit/miss, drive replacement, and count the statistics the paper
//! reports (hit ratios for Fig 13, miss traffic feeding the DRAM model).

use tbr_common::config::CacheConfig;
use tbr_common::stats::CacheStats;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was resident.
    Hit,
    /// The line was not resident and has been filled; if a valid line had to be
    /// evicted to make room, its line-aligned address is reported.
    Miss {
        /// Address of the evicted line, if any.
        evicted: Option<u64>,
    },
}

impl Lookup {
    /// `true` for [`Lookup::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// The tag of an empty way. A tag keeps `64 − log2(line bytes) − log2(sets)`
/// bits, so only address `u64::MAX` in a one-set cache of one-byte lines
/// could have it.
const EMPTY: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// The tag store is one `u64` per way. Each set keeps its tags in recency
/// order, most recent first, with empty ways (tag `u64::MAX`) trailing: a hit
/// moves its tag to the front, and a miss evicts the last tag (an eviction
/// only when that way is not empty) and puts the new tag at the front. That
/// is true LRU with empty ways filled first, with no use clock and no valid
/// bit.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>, // sets * assoc, row-major by set, each set in recency order
    stats: CacheStats,
    assoc: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    /// Panics if the geometry is invalid (use [`CacheConfig::validate`] first for a
    /// recoverable check).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate("cache").expect("invalid cache geometry");
        let sets = cfg.num_sets();
        Self {
            tags: vec![EMPTY; (sets * cfg.assoc) as usize],
            stats: CacheStats::default(),
            assoc: cfg.assoc as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            cfg,
        }
    }

    /// The configured geometry.
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-aligned address of `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & self.set_mask
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_bits
    }

    /// The ways of `addr`'s set, in recency order.
    #[inline]
    fn ways_of(&self, addr: u64) -> &[u64] {
        let base = self.set_of(addr) as usize * self.assoc;
        &self.tags[base..base + self.assoc]
    }

    /// Checks residency without updating replacement state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.ways_of(addr).contains(&tag)
    }

    /// Performs an access: updates LRU on hit, fills (evicting LRU) on miss, and
    /// records statistics.
    pub fn access(&mut self, addr: u64) -> Lookup {
        self.stats.accesses += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        debug_assert_ne!(tag, EMPTY, "address {addr:#x} has the empty tag");
        let base = set as usize * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        // A hit at position `p` rotates `[..=p]` right by one; a miss rotates
        // the whole set, which pushes the last (least recent) tag out. Either
        // way the new tag lands in front and `carry` ends as the tag that fell
        // off the end: `tag` itself on a hit, the victim on a miss.
        let hit = ways.iter().position(|&t| t == tag);
        let mut carry = tag;
        for w in &mut ways[..=hit.unwrap_or(self.assoc - 1)] {
            carry = std::mem::replace(w, carry);
        }
        if hit.is_some() {
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        self.stats.misses += 1;
        let evicted = (carry != EMPTY).then(|| {
            self.stats.evictions += 1;
            // Reconstruct the evicted line address from tag + set.
            (carry << self.set_bits | set) << self.line_shift
        });
        Lookup::Miss { evicted }
    }

    /// Counts a hit served without a lookup (ideal memory, where every
    /// access hits); the tag store is left as it is.
    #[inline]
    pub fn count_hit(&mut self) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
    }

    /// Current counters.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the counters (contents are kept — e.g. across frame boundaries, where
    /// caches stay warm but statistics are per-frame).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            assoc: 2,
            latency: 1,
            port_occupancy: 1,
            mshrs: 0,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000).is_hit());
        assert!(c.access(0x1000).is_hit());
        assert!(c.access(0x103f).is_hit(), "same 64B line");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn set_mapping_separates_lines() {
        let c = small();
        // 2 sets: bit 6 selects the set.
        assert_ne!(c.set_of(0x0), c.set_of(0x40));
        assert_eq!(c.set_of(0x0), c.set_of(0x80));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Three distinct lines mapping to set 0 (stride 128 with 2 sets).
        let (a, b, d) = (0x000, 0x080, 0x100);
        c.access(a); // fill a
        c.access(b); // fill b (set full)
        c.access(a); // touch a -> b becomes LRU
        match c.access(d) {
            Lookup::Miss { evicted: Some(e) } => assert_eq!(e, b),
            other => panic!("expected eviction of b, got {other:?}"),
        }
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0x000);
        c.access(0x080);
        // Probing `a` must NOT refresh its LRU position.
        assert!(c.probe(0x000));
        match c.access(0x100) {
            Lookup::Miss { evicted: Some(e) } => assert_eq!(e, 0x000),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().accesses, 3, "probe not counted");
    }

    #[test]
    fn evicted_address_reconstruction_roundtrips() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32 << 10,
            line_bytes: 64,
            assoc: 4,
            latency: 2,
            port_occupancy: 1,
            mshrs: 0,
        });
        // Fill way beyond capacity with a strided pattern and check that every
        // evicted address was indeed previously inserted, line-aligned.
        let mut inserted = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let addr = 0x4000_0000 + i * 64;
            inserted.insert(addr);
            if let Lookup::Miss { evicted: Some(e) } = c.access(addr) {
                assert_eq!(e % 64, 0);
                assert!(inserted.contains(&e), "evicted {e:#x} never inserted");
            }
        }
    }

    #[test]
    fn capacity_working_set_fits() {
        let mut c = Cache::new(CacheConfig::texture_l1()); // 32 KB
        let lines = 32 * 1024 / 64;
        for i in 0..lines {
            c.access(i as u64 * 64);
        }
        // Second pass over the same working set: all hits.
        for i in 0..lines {
            assert!(c.access(i as u64 * 64).is_hit(), "line {i} should be resident");
        }
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0x0);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(0x0));
    }

    /// The use-clock tag store this cache replaced, kept as its oracle: one
    /// way per slot with a valid bit and a last-use stamp, true LRU with
    /// invalid ways filled first.
    struct Reference {
        ways: Vec<(u64, bool, u64)>, // (tag, valid, last_use)
        assoc: usize,
        stats: CacheStats,
        use_clock: u64,
        line_shift: u32,
        set_mask: u64,
    }

    impl Reference {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.num_sets();
            Self {
                ways: vec![(0, false, 0); (sets * cfg.assoc) as usize],
                assoc: cfg.assoc as usize,
                stats: CacheStats::default(),
                use_clock: 0,
                line_shift: cfg.line_bytes.trailing_zeros(),
                set_mask: sets - 1,
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let set = (addr >> self.line_shift) & self.set_mask;
            (set as usize, addr >> self.line_shift >> self.set_mask.count_ones())
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            let base = set * self.assoc;
            self.ways[base..base + self.assoc].iter().any(|w| w.1 && w.0 == tag)
        }

        fn access(&mut self, addr: u64) -> Lookup {
            self.use_clock += 1;
            self.stats.accesses += 1;
            let (set, tag) = self.locate(addr);
            let base = set * self.assoc;
            let ways = &mut self.ways[base..base + self.assoc];
            if let Some(w) = ways.iter_mut().find(|w| w.1 && w.0 == tag) {
                w.2 = self.use_clock;
                self.stats.hits += 1;
                return Lookup::Hit;
            }
            self.stats.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.1 { (1, w.2) } else { (0, 0) })
                .expect("assoc > 0");
            let evicted = victim.1.then(|| {
                self.stats.evictions += 1;
                (victim.0 << self.set_mask.count_ones() | set as u64) << self.line_shift
            });
            *victim = (tag, true, self.use_clock);
            Lookup::Miss { evicted }
        }
    }

    #[test]
    fn recency_order_matches_the_use_clock_reference() {
        use tbr_common::rng::Xoshiro256pp;
        for assoc in [1u64, 2, 4, 8] {
            for sets in [1u64, 2, 128] {
                let cfg = CacheConfig {
                    size_bytes: sets * assoc * 64,
                    line_bytes: 64,
                    assoc,
                    latency: 1,
                    port_occupancy: 1,
                    mshrs: 0,
                };
                // Streams over `pool / 2` times the capacity in lines: at half
                // the capacity only hits and cold fills, above it evictions.
                for (seed, pool) in [(1u64, 1u64), (2, 3), (3, 4), (4, 8)] {
                    let lines = (sets * assoc * pool).div_ceil(2) as u32;
                    let mut rng = Xoshiro256pp::seed_from_u64(seed * 1000 + assoc * 10 + sets);
                    let mut cache = Cache::new(cfg);
                    let mut reference = Reference::new(cfg);
                    for step in 0..4000 {
                        let addr = 0x4000_0000 + u64::from(rng.gen_u32(lines)) * 64
                            + u64::from(rng.gen_u32(64));
                        let probe = 0x4000_0000 + u64::from(rng.gen_u32(lines)) * 64;
                        let ctx = format!("{assoc}-way, {sets} sets, pool {pool}, step {step}");
                        assert_eq!(cache.probe(probe), reference.probe(probe), "probe, {ctx}");
                        assert_eq!(cache.access(addr), reference.access(addr), "access, {ctx}");
                    }
                    assert_eq!(cache.stats(), &reference.stats, "{assoc}-way, {sets} sets");
                    assert_eq!(cache.stats().evictions > 0, pool > 2, "{assoc}-way, {sets} sets");
                }
            }
        }
    }

    #[test]
    fn line_addr_alignment() {
        let c = small();
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_addr(0x1240), 0x1240);
    }
}
