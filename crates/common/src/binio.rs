//! Endian-pinned binary encoding helpers for the binary checkpoint format.
//!
//! Every multi-byte value is **little-endian**, regardless of host: binary
//! checkpoints (`libra-ckpt-bin-v1`) must be byte-identical across machines,
//! because CI `cmp`s resumed checkpoints and reports against references.
//!
//! [`ByteReader`] is the decoding twin: every read is bounds-checked and
//! returns `Err` with a description instead of panicking, so a truncated or
//! corrupt checkpoint degrades into a clear load error (mirroring the JSON
//! loader's behaviour).
//!
//! ```
//! use tbr_common::binio::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.u32(7);
//! w.str16("hello");
//! let bytes = w.into_bytes();
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.u32("n").unwrap(), 7);
//! assert_eq!(r.str16("s").unwrap(), "hello");
//! assert!(r.is_empty());
//! ```

/// Little-endian binary encoder (append-only byte buffer).
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a string as `u16` byte length + UTF-8 bytes.
    ///
    /// # Panics
    /// Panics if the string is longer than 65535 bytes (format identifiers and
    /// short labels only; panic payloads are truncated by callers).
    pub fn str16(&mut self, s: &str) {
        let b = s.as_bytes();
        assert!(b.len() <= u16::MAX as usize, "str16 overflow: {} bytes", b.len());
        self.u16(b.len() as u16);
        self.bytes(b);
    }

    /// Appends a string as `u32` byte length + UTF-8 bytes (long payloads).
    pub fn str32(&mut self, s: &str) {
        let b = s.as_bytes();
        assert!(b.len() <= u32::MAX as usize, "str32 overflow");
        self.u32(b.len() as u32);
        self.bytes(b);
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset (for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: reading {what} needs {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        self.take(n, what)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, String> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str16(&mut self, what: &str) -> Result<String, String> {
        let n = self.u16(what)? as usize;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| format!("{what}: invalid UTF-8"))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str32(&mut self, what: &str) -> Result<String, String> {
        let n = self.u32(what)? as usize;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| format!("{what}: invalid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.str16("");
        w.str32("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 0xAB);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.str16("g").unwrap(), "");
        assert_eq!(r.str32("h").unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut w = ByteWriter::new();
        w.u32(1);
        assert_eq!(w.into_bytes(), vec![1, 0, 0, 0]);
        let mut w = ByteWriter::new();
        w.u64(0x0102_0304_0506_0708);
        assert_eq!(w.into_bytes(), vec![8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.u32("field").unwrap_err();
        assert!(err.contains("truncated") && err.contains("field"), "{err}");
        // A corrupt length prefix must not trigger a huge allocation.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let err = ByteReader::new(&bytes).str32("s").unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.u16(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let err = ByteReader::new(&bytes).str16("s").unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }
}
