//! Rendering Elimination's frame-coherence cache (arXiv 1807.09449).
//!
//! The hardware keeps one 64-bit signature per tile from the previous frame.
//! When the Tiling Engine finishes binning frame *n*, every tile's fresh
//! signature is compared against the stored one: a match means the tile's
//! whole raster-pipeline input is (with hash-collision probability 2⁻⁶⁴)
//! identical to frame *n − 1*, so its raster/shade/flush work is discarded and
//! the framebuffer contents from the previous frame are kept.
//!
//! This module is deliberately independent of the tiling crate: it consumes
//! plain signature arrays (produced by `tbr_tiling::signature`) so the cache
//! logic stays a pure, simulator-free hardware model like the rest of this
//! crate. The decision it emits is applied to the frame's
//! [`FramePlan`](crate::scheduler::FramePlan) via
//! [`FramePlan::retain_tiles`](crate::scheduler::FramePlan::retain_tiles).
//!
//! In oracle mode the raw hashed word streams ride along so a signature match
//! can be verified against true input equality; a match with unequal inputs is
//! a hash collision that would have produced a visibly wrong frame — counted
//! as a *false negative* (the `--mechanism re-oracle` differential mode renders
//! everything anyway, so the run's outputs stay correct while the counter
//! measures the real collision rate).

/// Per-frame outcome of the signature comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReFrameDecision {
    /// Per tile (by `TileId::index()`): did the signature match the previous
    /// frame? Matching tiles are the discard set. All-false on the first
    /// frame (nothing to compare against).
    pub matched: Vec<bool>,
    /// Tiles compared against a stored signature (0 on the first frame).
    pub checked: u64,
    /// Tiles whose signature matched — what RE discards.
    pub discarded: u64,
    /// Oracle only: signature matches whose raw input words actually differed
    /// (hash collisions). Always 0 outside oracle mode.
    pub false_negatives: u64,
}

/// The per-tile signature cache carried frame to frame.
#[derive(Debug, Clone, Default)]
pub struct ReCache {
    prev_sigs: Vec<u64>,
    prev_words: Option<Vec<Vec<u64>>>,
}

impl ReCache {
    /// An empty cache: the first observed frame can discard nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compares a frame's signatures against the stored previous frame and
    /// replaces the store. `words` must be `Some` in oracle mode (and is then
    /// used to detect collisions) and `None` otherwise.
    ///
    /// # Panics
    /// Panics if the tile count changes between frames (the screen geometry
    /// is fixed for a sequence).
    pub fn observe(&mut self, sigs: Vec<u64>, words: Option<Vec<Vec<u64>>>) -> ReFrameDecision {
        let mut d = ReFrameDecision {
            matched: vec![false; sigs.len()],
            ..ReFrameDecision::default()
        };
        if !self.prev_sigs.is_empty() {
            assert_eq!(
                self.prev_sigs.len(),
                sigs.len(),
                "tile count changed mid-sequence"
            );
            d.checked = sigs.len() as u64;
            for (t, (&new, &old)) in sigs.iter().zip(&self.prev_sigs).enumerate() {
                if new == old {
                    d.matched[t] = true;
                    d.discarded += 1;
                    if let (Some(new_w), Some(old_w)) = (&words, &self.prev_words) {
                        if new_w[t] != old_w[t] {
                            d.false_negatives += 1;
                        }
                    }
                }
            }
        }
        self.prev_sigs = sigs;
        self.prev_words = words;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_discards_nothing() {
        let mut c = ReCache::new();
        let d = c.observe(vec![1, 2, 3], None);
        assert_eq!((d.checked, d.discarded), (0, 0));
        assert!(d.matched.iter().all(|&m| !m));
    }

    #[test]
    fn repeated_frame_discards_every_tile_and_changes_are_kept() {
        let mut c = ReCache::new();
        c.observe(vec![1, 2, 3], None);
        let d = c.observe(vec![1, 2, 3], None);
        assert_eq!((d.checked, d.discarded), (3, 3));
        let d = c.observe(vec![1, 9, 3], None);
        assert_eq!(d.discarded, 2);
        assert_eq!(d.matched, vec![true, false, true]);
        assert_eq!(d.false_negatives, 0);
    }

    #[test]
    fn oracle_counts_collisions_as_false_negatives() {
        let mut c = ReCache::new();
        c.observe(vec![7, 8], Some(vec![vec![10], vec![20]]));
        // Tile 0: same signature, different words — a manufactured collision.
        let d = c.observe(vec![7, 8], Some(vec![vec![11], vec![20]]));
        assert_eq!(d.discarded, 2);
        assert_eq!(d.false_negatives, 1);
    }

    #[test]
    #[should_panic(expected = "tile count changed")]
    fn tile_count_must_stay_fixed() {
        let mut c = ReCache::new();
        c.observe(vec![1], None);
        c.observe(vec![1, 2], None);
    }
}
