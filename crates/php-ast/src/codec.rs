//! Bounds-checked little-endian byte primitives shared by the on-disk
//! codecs: [`Writer`] and [`Reader`], with [`CodecError`] as the one
//! failure type.
//!
//! The AST layout itself lives in [`crate::zast`]; `phpsafe`'s summary
//! codec and `phpsafe-dataflow`'s graph codec stream their records
//! through these primitives. Every [`Reader`] method is checked: garbage
//! input yields a [`CodecError`], never a panic.

use std::fmt;

/// A decoding failure: what was malformed, and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was malformed.
    pub what: &'static str,
    /// Byte offset the problem was detected at.
    pub at: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ------------------------------------------------------------------ writer

/// A little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

// ------------------------------------------------------------------ reader

/// A bounds-checked little-endian reader over untrusted bytes. Every
/// method fails with a [`CodecError`] instead of panicking.
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// Bytes left to read — the tight bound for "declared count exceeds
    /// input" guards in embedded codecs.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn fail<T>(&self, what: &'static str) -> Result<T> {
        Err(CodecError { what, at: self.at })
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = match self.at.checked_add(n) {
            Some(e) => e,
            None => return self.fail("length overflow"),
        };
        match self.bytes.get(self.at..end) {
            Some(s) => {
                self.at = end;
                Ok(s)
            }
            None => self.fail("unexpected end of input"),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.fail("invalid bool"),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.fail("invalid UTF-8"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_rejects_length_overflow() {
        let mut r = Reader::new(b"abc");
        r.u8().unwrap();
        let err = r.take(usize::MAX).unwrap_err();
        assert_eq!(err.what, "length overflow");
        assert_eq!(err.at, 1);
        assert_eq!(r.offset(), 1, "a failed take consumes nothing");
    }

    #[test]
    fn reading_past_the_end_fails() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err().what, "unexpected end of input");
        assert_eq!(r.remaining(), 3);
        assert!(Reader::new(&[]).u8().is_err());
        assert!(Reader::new(&[0; 7]).u64().is_err());
        let mut r = Reader::new(&[9]);
        assert_eq!(r.u8().unwrap(), 9);
        assert!(r.is_at_end());
        assert!(r.u8().is_err());
    }

    #[test]
    fn bool_accepts_only_zero_and_one() {
        let mut r = Reader::new(&[0, 1, 2]);
        assert!(!r.bool().unwrap());
        assert!(r.bool().unwrap());
        let err = r.bool().unwrap_err();
        assert_eq!(err.what, "invalid bool");
    }

    #[test]
    fn str_rejects_invalid_utf8() {
        let mut w = Writer::new();
        w.u32(2);
        w.raw(&[0xc3, 0x28]);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).str().unwrap_err();
        assert_eq!(err.what, "invalid UTF-8");
        // A length prefix larger than the input is a truncation, not a
        // huge allocation.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.raw(b"short");
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).str().unwrap_err().what,
            "unexpected end of input"
        );
    }

    #[test]
    fn every_primitive_round_trips() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.bool(false);
        w.str("héllo, <?php");
        w.str("");
        w.raw(b"tail");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo, <?php");
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.take(4).unwrap(), b"tail");
        assert!(r.is_at_end());
        assert_eq!(r.offset(), bytes.len());
    }
}
