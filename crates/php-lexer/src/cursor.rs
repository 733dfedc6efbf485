//! A byte cursor over borrowed source text with line tracking.

/// Cursor used by the lexer: a byte offset into the borrowed source.
///
/// The cursor is `Copy`, so the speculative probes the lexer takes (cast
/// probing, interpolation scanning) copy three words, and
/// [`Cursor::slice_from`] hands out token text as a slice of the input
/// with the input's lifetime.
///
/// Every position the lexer stops at is either an ASCII byte, the end of
/// input, or the end of a run of bytes `>= 0x80`; UTF-8 continuation bytes
/// are all `>= 0x80`, so every stop is a char boundary and slicing the
/// source never splits a character.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor<'src> {
    src: &'src str,
    pos: usize,
    line: u32,
}

impl<'src> Cursor<'src> {
    pub(crate) fn new(src: &'src str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
        }
    }

    /// Current 1-based line number.
    pub(crate) fn line(&self) -> u32 {
        self.line
    }

    /// Current byte offset (a valid UTF-8 boundary).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The source text between `start` (an earlier [`Cursor::pos`]) and the
    /// current position.
    pub(crate) fn slice_from(&self, start: usize) -> &'src str {
        &self.src[start..self.pos]
    }

    /// The unconsumed input as bytes.
    pub(crate) fn rest(&self) -> &'src [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    pub(crate) fn is_eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// The byte `n` positions ahead (0 = current).
    pub(crate) fn byte_at(&self, n: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + n).copied()
    }

    /// The current byte.
    pub(crate) fn byte(&self) -> Option<u8> {
        self.byte_at(0)
    }

    /// Consumes the current byte if it equals `b`.
    pub(crate) fn eat(&mut self, b: u8) -> bool {
        if self.byte() == Some(b) {
            self.advance(1);
            true
        } else {
            false
        }
    }

    /// True if the upcoming bytes match `s` (ASCII case-insensitive when
    /// `ci` is set).
    pub(crate) fn starts_with(&self, s: &str, ci: bool) -> bool {
        match self.rest().get(..s.len()) {
            Some(have) if ci => have.eq_ignore_ascii_case(s.as_bytes()),
            Some(have) => have == s.as_bytes(),
            None => false,
        }
    }

    /// Consumes `n` bytes (clamped to the end of input), counting the
    /// newlines among them.
    pub(crate) fn advance(&mut self, n: usize) {
        let end = (self.pos + n).min(self.src.len());
        let skipped = &self.src.as_bytes()[self.pos..end];
        self.line += skipped.iter().filter(|&&b| b == b'\n').count() as u32;
        self.pos = end;
    }

    /// Consumes bytes while `pred` holds, tracking newlines. The predicate
    /// must accept either all or none of the bytes `>= 0x80` so the cursor
    /// stops on a char boundary.
    pub(crate) fn skip_while(&mut self, mut pred: impl FnMut(u8) -> bool) {
        let n = self.rest().iter().position(|&b| !pred(b));
        self.advance(n.unwrap_or(self.src.len() - self.pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_across_advances() {
        let mut c = Cursor::new("a\nb\nc");
        assert_eq!(c.line(), 1);
        c.advance(2); // a, \n
        assert_eq!(c.line(), 2);
        c.advance(2); // b, \n
        assert_eq!(c.line(), 3);
        assert_eq!(c.byte(), Some(b'c'));
        c.advance(5);
        assert!(c.is_eof());
    }

    #[test]
    fn starts_with_case_modes() {
        let c = Cursor::new("<?PHP echo");
        assert!(c.starts_with("<?php", true));
        assert!(!c.starts_with("<?php", false));
        assert!(c.starts_with("<?PHP", false));
        assert!(!c.starts_with("<?PHP echo!", false));
    }

    #[test]
    fn skip_while_stops_at_predicate_boundary() {
        let mut c = Cursor::new("abc123");
        c.skip_while(|b| b.is_ascii_alphabetic());
        assert_eq!(c.slice_from(0), "abc");
        assert_eq!(c.byte(), Some(b'1'));
    }

    #[test]
    fn skip_while_crosses_multibyte_chars_whole() {
        let mut c = Cursor::new("héllo world");
        c.skip_while(|b| b != b' ');
        assert_eq!(c.slice_from(0), "héllo");
    }

    #[test]
    fn skip_while_counts_newlines() {
        let mut c = Cursor::new(" \n\t\n x");
        c.skip_while(|b| b.is_ascii_whitespace());
        assert_eq!(c.line(), 3);
        assert_eq!(c.byte(), Some(b'x'));
    }
}
