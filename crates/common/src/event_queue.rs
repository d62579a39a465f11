//! Deterministic next-event selection for the cycle-level simulators.
//!
//! The raster phase repeatedly needs "the micro-event with the earliest
//! timestamp": across its Raster Units, and within one Raster Unit across its
//! in-flight warps. Scanning every candidate per event is O(candidates) *per
//! event* — the hottest loop in the repo before this module existed.
//! [`SlotMin`] answers it from a tournament tree over a fixed set of slots.
//!
//! ## Deterministic tie-break contract
//!
//! Candidates are ordered **lexicographically by `(time, slot)`**: earlier
//! cycles first, and among equal cycles the lowest slot first. A slot must
//! therefore be a *stable* identity (a Raster-Unit index, an in-flight warp
//! position …) so that the minimum is a pure function of the slots' times. This
//! is what lets the indexed raster-phase loop reproduce the linear scan
//! *bit-identically*: the scan picks the first minimum in iteration order,
//! which is exactly the lexicographic `(time, index)` minimum.
//!
//! Each slot holds at most one time, and setting it replaces the old one, so
//! a rescheduled candidate leaves nothing stale behind.

use crate::Cycle;

/// The key of an empty slot: above every `(time, slot)` a caller can set,
/// since slots are below `u32::MAX`.
const EMPTY: (Cycle, u32) = (Cycle::MAX, u32::MAX);

/// The earliest of a fixed set of slots, each empty or holding one time: a
/// tournament tree whose every node holds the `(time, slot)` minimum of its
/// subtree. [`SlotMin::set`] is O(log slots) and [`SlotMin::min`] O(1). See
/// the module docs for the tie-break contract.
#[derive(Debug, Clone)]
pub struct SlotMin {
    /// Node `k` (from 1) has children `2k` and `2k + 1`; the leaves, one per
    /// slot and padded with empty ones to a power of two, start at `leaves`.
    nodes: Vec<(Cycle, u32)>,
    leaves: usize,
}

impl SlotMin {
    /// `slots` empty slots, numbered from 0.
    ///
    /// # Panics
    /// Panics if `slots` is `u32::MAX` or more.
    pub fn new(slots: usize) -> Self {
        assert!(slots < u32::MAX as usize, "too many slots for SlotMin: {slots}");
        let leaves = slots.next_power_of_two();
        Self { nodes: vec![EMPTY; 2 * leaves], leaves }
    }

    /// Sets `slot`'s time, or empties it with `None`.
    ///
    /// # Panics
    /// Panics if `slot` is not below the slot count the tree was built with
    /// (rounded up to a power of two).
    pub fn set(&mut self, slot: usize, time: Option<Cycle>) {
        let mut k = self.leaves + slot;
        self.nodes[k] = time.map_or(EMPTY, |t| (t, slot as u32));
        while k > 1 {
            let parent = k / 2;
            let best = self.nodes[k].min(self.nodes[k ^ 1]);
            if self.nodes[parent] == best {
                break; // every ancestor already holds what it would be recomputed to
            }
            self.nodes[parent] = best;
            k = parent;
        }
    }

    /// The earliest `(time, slot)`, lowest slot among equal times, if any slot
    /// holds a time.
    #[inline]
    pub fn min(&self) -> Option<(Cycle, usize)> {
        let (t, slot) = self.nodes[1];
        (slot != EMPTY.1).then_some((t, slot as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_is_the_earliest_time() {
        let mut q = SlotMin::new(5);
        for (slot, t) in [(0, 5u64), (1, 1), (2, 9), (3, 3)] {
            q.set(slot, Some(t));
        }
        assert_eq!(q.min(), Some((1, 1)));
        q.set(1, None);
        assert_eq!(q.min(), Some((3, 3)));
        q.set(3, Some(12));
        assert_eq!(q.min(), Some((5, 0)));
    }

    #[test]
    fn equal_times_break_ties_by_slot() {
        let mut q = SlotMin::new(4);
        for slot in [3, 0, 2, 1] {
            q.set(slot, Some(7));
        }
        for slot in 0..4 {
            assert_eq!(q.min(), Some((7, slot)));
            q.set(slot, None);
        }
        assert_eq!(q.min(), None);
    }

    #[test]
    fn one_slot_and_no_slots() {
        let mut one = SlotMin::new(1);
        assert_eq!(one.min(), None);
        one.set(0, Some(4));
        assert_eq!(one.min(), Some((4, 0)));
        one.set(0, None);
        assert_eq!(one.min(), None);
        assert_eq!(SlotMin::new(0).min(), None);
    }

    #[test]
    fn a_later_time_on_the_winning_slot_lets_another_win() {
        let mut q = SlotMin::new(3);
        q.set(0, Some(2));
        q.set(2, Some(4));
        q.set(0, Some(6));
        assert_eq!(q.min(), Some((4, 2)));
        q.set(2, Some(Cycle::MAX));
        assert_eq!(q.min(), Some((6, 0)));
    }
}
