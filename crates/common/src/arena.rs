//! Per-frame bump arenas: allocation-free scratch storage for hot loops.
//!
//! The raster phase creates thousands of short-lived buffers per frame (the
//! texture sample-line lists of every warp, for one). Heap-allocating each is
//! cache-hostile and serialises on the allocator; an [`Arena`] instead hands
//! out [`Span`]s of one growing backing vector and is reset **wholesale**
//! between frames — allocation becomes a bounds check plus an extend, and
//! deallocation becomes free.
//!
//! # Lifetime rules
//!
//! * A [`Span`] is a plain `(start, len)` index pair — `Copy`, no borrow on
//!   the arena. It stays valid until the arena it came from is [`reset`].
//! * [`reset`] invalidates *every* span at once (it does not shrink the
//!   backing storage, so a warmed-up arena allocates nothing in steady state).
//!   Callers must not hold spans across a reset; the owning structure (e.g. a
//!   Raster Unit) resets only at frame boundaries, when no warp is in flight.
//! * Arenas are not thread-safe; each Raster Unit owns its own, and the
//!   parallel event-loop driver already guarantees exclusive RU access
//!   (shared events commit serially, workers own disjoint RUs per epoch).
//!
//! [`reset`]: Arena::reset
//!
//! ```
//! use tbr_common::arena::Arena;
//!
//! let mut a: Arena<u64> = Arena::new();
//! let s = a.alloc_extend([1, 2, 3]);
//! assert_eq!(a.get(s), &[1, 2, 3]);
//! a.reset();
//! assert!(a.is_empty());
//! ```

/// A contiguous allocation inside an [`Arena`]: `(start, len)` indices into
/// the backing storage. `Copy`, borrow-free, invalidated by [`Arena::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// First element index in the arena's backing storage.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Span {
    /// An empty span (valid against any arena).
    pub const EMPTY: Span = Span { start: 0, len: 0 };

    /// Whether the span holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The half-open element range of the span.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A typed bump arena: allocations are appended to one backing vector and
/// freed all at once by [`Arena::reset`].
#[derive(Debug, Clone, Default)]
pub struct Arena<T> {
    data: Vec<T>,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Elements currently allocated.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops every allocation at once, keeping the backing capacity (the
    /// per-frame "reset wholesale" operation).
    pub fn reset(&mut self) {
        self.data.clear();
    }

    /// Allocates a span holding `items`, in order.
    pub fn alloc_extend<I: IntoIterator<Item = T>>(&mut self, items: I) -> Span {
        let start = self.data.len();
        self.data.extend(items);
        Self::span_of(start, self.data.len())
    }

    /// Resolves a span to its element slice.
    ///
    /// # Panics
    /// Panics if the span is out of bounds (a span used after [`Arena::reset`],
    /// or against the wrong arena).
    pub fn get(&self, span: Span) -> &[T] {
        &self.data[span.range()]
    }

    fn span_of(start: usize, end: usize) -> Span {
        let len = end - start;
        assert!(
            end <= u32::MAX as usize,
            "arena overflow: {end} elements exceed the u32 span domain"
        );
        Span {
            start: start as u32,
            len: len as u32,
        }
    }
}

impl<T: Copy> Arena<T> {
    /// Allocates a span holding a copy of `items`.
    pub fn alloc_slice(&mut self, items: &[T]) -> Span {
        let start = self.data.len();
        self.data.extend_from_slice(items);
        Self::span_of(start, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_resolve_to_their_contents() {
        let mut a: Arena<u32> = Arena::new();
        let s1 = a.alloc_slice(&[1, 2, 3]);
        let s2 = a.alloc_extend(4..7);
        let empty = a.alloc_slice(&[]);
        assert_eq!(a.get(s1), &[1, 2, 3]);
        assert_eq!(a.get(s2), &[4, 5, 6]);
        assert_eq!(a.get(empty), &[] as &[u32]);
        assert!(empty.is_empty());
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn reset_invalidates_everything_but_keeps_capacity() {
        let mut a: Arena<u8> = Arena::new();
        a.alloc_slice(&[1; 100]);
        let cap = a.data.capacity();
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.data.capacity(), cap, "reset must keep the warm capacity");
        let s = a.alloc_slice(&[7]);
        assert_eq!(a.get(s), &[7]);
    }

    #[test]
    #[should_panic]
    fn stale_spans_panic_after_reset() {
        let mut a: Arena<u8> = Arena::new();
        let s = a.alloc_slice(&[1, 2]);
        a.reset();
        let _ = a.get(s);
    }
}
