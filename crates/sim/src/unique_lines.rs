//! The distinct texture lines a raster phase fills: one bit per line of the
//! texture region, counted as each bit first flips to 1.
//!
//! The phase reads only the count, at its end, so a bitset keyed by line
//! number beats a hash set of addresses: an insert is a shift, a load and an
//! or, with no hashing and no probing. The bits live in 4 KB pages
//! (2^15 lines), allocated on first touch, so a phase pays memory only for
//! the parts of the region its textures occupy.

use tbr_common::addr::{FRAMEBUFFER_BASE, TEXTURE_BASE};

/// log2 of the lines one page covers: 2^15 bits, 4 KB.
const PAGE_LINES_LOG2: u32 = 15;
/// 64-bit words per page.
const PAGE_WORDS: usize = 1 << (PAGE_LINES_LOG2 - 6);

/// A set of texture-line addresses that counts its distinct members.
pub(crate) struct UniqueLines {
    /// log2 of the texture L1's line size.
    line_shift: u32,
    /// Page `p` holds the bits of lines `p << PAGE_LINES_LOG2` onwards.
    pages: Vec<Option<Box<[u64; PAGE_WORDS]>>>,
    count: u64,
}

impl UniqueLines {
    /// An empty set for lines of `line_bytes` (a power of two) bytes.
    pub fn new(line_bytes: u64) -> Self {
        debug_assert!(line_bytes.is_power_of_two());
        let line_shift = line_bytes.trailing_zeros();
        let lines = (FRAMEBUFFER_BASE - TEXTURE_BASE) >> line_shift;
        let pages = lines.div_ceil(1 << PAGE_LINES_LOG2) as usize;
        Self {
            line_shift,
            pages: (0..pages).map(|_| None).collect(),
            count: 0,
        }
    }

    /// Adds the line at `addr`, a filled texture line's address.
    #[inline]
    pub fn insert(&mut self, addr: u64) {
        debug_assert!(
            (TEXTURE_BASE..FRAMEBUFFER_BASE).contains(&addr),
            "fill {addr:#x} outside the texture region"
        );
        let line = (addr - TEXTURE_BASE) >> self.line_shift;
        let page = self.pages[(line >> PAGE_LINES_LOG2) as usize]
            .get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        let bit = line as usize & ((1 << PAGE_LINES_LOG2) - 1);
        let word = &mut page[bit >> 6];
        let mask = 1u64 << (bit & 63);
        self.count += u64::from(*word & mask == 0);
        *word |= mask;
    }

    /// Distinct lines inserted.
    pub fn len(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbr_common::fasthash::U64Set;
    use tbr_common::ids::TextureId;
    use tbr_common::rng::Xoshiro256pp;
    use tbr_raster::texture::{texture_base, TEXTURE_STRIDE};

    const LINE: u64 = 64;
    /// Texture ids that fit in the texture region.
    const TEXTURES: u32 = ((FRAMEBUFFER_BASE - TEXTURE_BASE) / TEXTURE_STRIDE) as u32;

    /// Inserts `addrs` into a [`UniqueLines`] and into a hash set, and checks
    /// the two counts agree after every insert.
    fn agrees_with_a_hash_set(addrs: impl IntoIterator<Item = u64>) -> u64 {
        let (mut bits, mut oracle) = (UniqueLines::new(LINE), U64Set::default());
        for a in addrs {
            bits.insert(a);
            oracle.insert(a);
            assert_eq!(bits.len(), oracle.len() as u64, "after {a:#x}");
        }
        bits.len()
    }

    #[test]
    fn counts_each_line_once_at_the_edges_of_words_and_pages() {
        let page = LINE << PAGE_LINES_LOG2;
        let last = texture_base(TextureId(TEXTURES - 1));
        let edges = [
            TEXTURE_BASE,               // bit 0 of the first word
            TEXTURE_BASE + 63 * LINE,   // bit 63 of the first word
            TEXTURE_BASE + 64 * LINE,   // bit 0 of the second word
            TEXTURE_BASE + page - LINE, // the first page's last line
            TEXTURE_BASE + page,        // the second page's first line
            last,                       // the last texture's first line
            FRAMEBUFFER_BASE - LINE,    // the region's last line
        ];
        assert_eq!(last + TEXTURE_STRIDE, FRAMEBUFFER_BASE);
        let twice = edges.iter().chain(&edges).copied();
        assert_eq!(agrees_with_a_hash_set(twice), edges.len() as u64);
    }

    #[test]
    fn matches_a_hash_set_over_seeded_streams_with_duplicates() {
        for seed in 0..8 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            // A few textures' lines, at the bottom of the region for even
            // seeds and at its top for odd ones, so that draws repeat.
            let textures = 1 + seed as u32 % 4;
            let lines_per_texture = 1 << (10 + seed as u32 % 6);
            let stream: Vec<u64> = (0..20_000)
                .map(|_| {
                    let k = rng.gen_u32(textures) * 4;
                    let id = if seed % 2 == 0 { k } else { TEXTURES - 1 - k };
                    let line = rng.gen_u32(lines_per_texture) as u64;
                    texture_base(TextureId(id)) + line * LINE
                })
                .collect();
            let distinct = agrees_with_a_hash_set(stream.iter().copied());
            assert!(distinct < stream.len() as u64, "seed {seed}: no duplicates drawn");
        }
    }
}
