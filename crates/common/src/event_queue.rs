//! Deterministic indexed event queue for the cycle-level simulators.
//!
//! The simulation cores (raster phase, and the MSHR files of the memory
//! hierarchy) repeatedly need "the micro-event with the earliest timestamp".
//! Scanning every candidate per event is O(candidates) *per event* — the hottest
//! loop in the repo before this module existed. [`EventQueue`] replaces those
//! scans with a hand-rolled binary min-heap over `(Cycle, K)` pairs.
//!
//! ## Deterministic tie-break contract
//!
//! Entries are ordered **lexicographically by `(time, key)`**: earlier cycles
//! first, and among equal cycles the smallest key first. The key must therefore
//! be a *stable* identity (a Raster-Unit index, an in-flight warp slot, a bank
//! id …) so that pop order is a pure function of the pushed set — never of heap
//! internals, insertion order, or pointer values. This is what lets the indexed
//! raster-phase loop reproduce the legacy linear scan *bit-identically*: the
//! scan picks the first minimum in iteration order, which is exactly the
//! lexicographic `(time, index)` minimum.
//!
//! ## Lazy invalidation
//!
//! The queue deliberately has no `decrease_key`/`remove`. Simulation events get
//! rescheduled all the time (a warp that steps acquires a new ready time); the
//! cheap way out is to push a fresh entry and let the stale one *lazily
//! invalidate*: [`EventQueue::peek_valid`] / [`EventQueue::pop_valid`] take a
//! caller-supplied predicate that decides whether an entry still describes
//! reality, and silently discard the ones that do not. Validity must be
//! checkable from the entry alone (time + key vs. current simulator state).
//!
//! Duplicates of a *currently valid* entry are harmless by construction: they
//! describe the same candidate, and processing the candidate changes its time,
//! which invalidates the leftovers.

use crate::Cycle;

/// A deterministic binary min-heap of `(time, key)` events with lazy
/// invalidation. See the module docs for the ordering and validity contract.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<K> {
    heap: Vec<(Cycle, K)>,
}

impl<K: Copy + Ord> EventQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { heap: Vec::new() }
    }

    /// An empty queue with room for `cap` entries before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: Vec::with_capacity(cap),
        }
    }

    /// Number of entries currently stored (including stale ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no entries at all (stale or live).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Schedules `key` at `time`. O(log n).
    pub fn push(&mut self, time: Cycle, key: K) {
        self.heap.push((time, key));
        self.sift_up(self.heap.len() - 1);
    }

    /// The earliest entry (lexicographic `(time, key)` minimum), if any.
    pub fn peek(&self) -> Option<(Cycle, K)> {
        self.heap.first().copied()
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(Cycle, K)> {
        let n = self.heap.len();
        match n {
            0 => None,
            1 => self.heap.pop(),
            _ => {
                self.heap.swap(0, n - 1);
                let min = self.heap.pop();
                self.sift_down(0);
                min
            }
        }
    }

    /// The earliest entry for which `valid(time, key)` holds; entries rejected by
    /// the predicate are discarded on the way (lazy invalidation). The returned
    /// entry itself stays in the queue.
    pub fn peek_valid(&mut self, mut valid: impl FnMut(Cycle, K) -> bool) -> Option<(Cycle, K)> {
        while let Some((t, k)) = self.peek() {
            if valid(t, k) {
                return Some((t, k));
            }
            self.pop();
        }
        None
    }

    /// Removes and returns the earliest entry for which `valid(time, key)` holds,
    /// discarding stale entries on the way.
    pub fn pop_valid(&mut self, mut valid: impl FnMut(Cycle, K) -> bool) -> Option<(Cycle, K)> {
        while let Some((t, k)) = self.pop() {
            if valid(t, k) {
                return Some((t, k));
            }
        }
        None
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.heap[l] < self.heap[smallest] {
                smallest = l;
            }
            if r < n && self.heap[r] < self.heap[smallest] {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, k) in [(5u64, 0u32), (1, 1), (9, 2), (3, 3), (1, 4)] {
            q.push(t, k);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![(1, 1), (1, 4), (3, 3), (5, 0), (9, 2)]);
    }

    #[test]
    fn equal_times_break_ties_by_key() {
        let mut q = EventQueue::new();
        for k in [3u32, 0, 2, 1] {
            q.push(7, k);
        }
        assert_eq!(q.pop(), Some((7, 0)));
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
    }

    #[test]
    fn peek_valid_discards_stale_entries() {
        let mut q = EventQueue::new();
        q.push(1, 10u32);
        q.push(2, 20);
        q.push(3, 30);
        // Entries with key < 15 are stale.
        assert_eq!(q.peek_valid(|_, k| k >= 15), Some((2, 20)));
        assert_eq!(q.len(), 2, "stale entry must be dropped, valid ones kept");
        assert_eq!(q.pop(), Some((2, 20)));
    }

    #[test]
    fn pop_valid_consumes_the_entry() {
        let mut q = EventQueue::new();
        q.push(4, 1u32);
        q.push(5, 2);
        assert_eq!(q.pop_valid(|_, _| true), Some((4, 1)));
        assert_eq!(q.peek(), Some((5, 2)));
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut q = EventQueue::new();
        q.push(2, 7u8);
        q.push(2, 7);
        assert_eq!(q.pop(), Some((2, 7)));
        assert_eq!(q.pop(), Some((2, 7)));
        assert!(q.is_empty());
    }

    #[test]
    fn unit_key_works_as_plain_time_heap() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(9, ());
        q.push(4, ());
        assert_eq!(q.pop(), Some((4, ())));
        assert_eq!(q.peek(), Some((9, ())));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut q = EventQueue::with_capacity(8);
        q.push(1, 1u32);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
