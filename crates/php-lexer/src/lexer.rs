//! The PHP lexer: a faithful, total re-implementation of the behaviour the
//! paper relies on from PHP's `token_get_all`.
//!
//! The lexer is *total*: any byte sequence produces a token stream, never an
//! error (unclassifiable bytes become [`TokenKind::Unknown`]). Concatenating
//! the `text` of every token reproduces the input exactly; the
//! `phpsafe` analyzer and both baselines depend on this when mapping findings
//! back to source lines.
//!
//! The scanner works on bytes, as PHP's does: dispatch is on the ASCII
//! byte, every byte `>= 0x80` is a label character, and runs of inline
//! HTML, comment bodies and string bodies are found with slice searches
//! rather than a char-by-char loop. Token text is a slice of the input,
//! so lexing allocates only the output vector.

use crate::cursor::Cursor;
use crate::token::{keyword_kind, Token, TokenKind};

/// Lexes a complete PHP source file (starting in HTML mode, as PHP does).
///
/// The tokens borrow their text from `src`.
///
/// # Examples
///
/// ```
/// use php_lexer::{tokenize, TokenKind};
/// let toks = tokenize("<?php echo $_GET['id']; ?>");
/// assert!(toks.iter().any(|t| t.kind == TokenKind::Variable && t.text == "$_GET"));
/// ```
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    let _span = phpsafe_obs::span!("stage.lex", src);
    let toks = Lexer::new(src).run();
    phpsafe_obs::count("lex.files", 1);
    phpsafe_obs::count("lex.tokens", toks.len() as u64);
    toks
}

/// Lexes source and drops trivia (whitespace/comments), the view parsers use.
pub fn tokenize_significant(src: &str) -> Vec<Token<'_>> {
    let mut toks = tokenize(src);
    toks.retain(|t| !t.kind.is_trivia());
    toks
}

/// What terminates an interpolated scanning region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InterpEnd<'src> {
    DoubleQuote,
    Backtick,
    Heredoc(&'src str),
}

/// Streaming PHP lexer. Construct with [`Lexer::new`], consume with
/// [`Lexer::run`].
#[derive(Debug)]
pub struct Lexer<'src> {
    cur: Cursor<'src>,
    out: Vec<Token<'src>>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            cur: Cursor::new(src),
            // Plugin code averages about 2.5 bytes per token; one up-front
            // guess avoids the doubling-regrowth copies.
            out: Vec::with_capacity(src.len() / 2),
        }
    }

    /// Runs the lexer to completion, returning the token stream.
    pub fn run(mut self) -> Vec<Token<'src>> {
        while !self.cur.is_eof() {
            self.lex_html_until_open_tag();
            // Inside PHP until a close tag flips us back to HTML mode.
            while !self.cur.is_eof() {
                if self.cur.starts_with("?>", false) {
                    self.emit_n(TokenKind::CloseTag, 2);
                    break;
                }
                self.lex_php_token();
            }
        }
        self.out
    }

    /// The cursor's byte offset and line: where the next token starts.
    fn mark(&self) -> (usize, u32) {
        (self.cur.pos(), self.cur.line())
    }

    /// Pushes a token spanning `start` to the cursor.
    fn emit(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.out
            .push(Token::new(kind, self.cur.slice_from(start), line));
    }

    /// Consumes the next `n` bytes as one token.
    fn emit_n(&mut self, kind: TokenKind, n: usize) {
        let (start, line) = self.mark();
        self.cur.advance(n);
        self.emit(kind, start, line);
    }

    /// Pushes a token spanning `start` to the cursor, if non-empty.
    fn emit_nonempty(&mut self, kind: TokenKind, start: usize, line: u32) {
        if self.cur.pos() > start {
            self.emit(kind, start, line);
        }
    }

    /// Pushes the pending `T_ENCAPSED_AND_WHITESPACE` run, if non-empty.
    fn emit_run(&mut self, start: usize, line: u32) {
        self.emit_nonempty(TokenKind::EncapsedAndWhitespace, start, line);
    }

    /// HTML mode: consume inline HTML up to an open tag (or EOF), then the
    /// tag itself.
    fn lex_html_until_open_tag(&mut self) {
        let (start, line) = self.mark();
        let rest = self.cur.rest();
        let html_len = find_pair(rest, b'<', b'?').unwrap_or(rest.len());
        self.cur.advance(html_len);
        self.emit_nonempty(TokenKind::InlineHtml, start, line);
        if self.cur.is_eof() {
            return;
        }
        if self.cur.starts_with("<?php", true) {
            self.emit_n(TokenKind::OpenTag, 5);
        } else if self.cur.starts_with("<?=", false) {
            self.emit_n(TokenKind::OpenTagWithEcho, 3);
        } else {
            self.emit_n(TokenKind::OpenTag, 2);
        }
    }

    /// Lexes exactly one PHP-mode token (never called at `?>` or EOF).
    fn lex_php_token(&mut self) {
        use TokenKind as K;
        let (start, line) = self.mark();
        let Some(b) = self.cur.byte() else { return };
        let next = self.cur.byte_at(1);
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                self.cur.skip_while(is_php_space);
                self.emit(K::Whitespace, start, line);
            }
            b'/' if next == Some(b'*') => {
                let doc = self.cur.byte_at(2) == Some(b'*') && self.cur.byte_at(3) != Some(b'/');
                let body = &self.cur.rest()[2..];
                let close = find_pair(body, b'*', b'/').map_or(body.len(), |i| i + 2);
                self.cur.advance(2 + close);
                self.emit(if doc { K::DocComment } else { K::Comment }, start, line);
            }
            b'/' if next == Some(b'/') => self.lex_line_comment(start, line),
            b'#' => self.lex_line_comment(start, line),
            b'$' => {
                self.cur.advance(1);
                if next.is_some_and(is_ident_start) {
                    self.cur.skip_while(is_ident_continue);
                    self.emit(K::Variable, start, line);
                } else {
                    self.emit(K::Dollar, start, line);
                }
            }
            b'0'..=b'9' => self.lex_number(start, line),
            b'.' if next.is_some_and(|d| d.is_ascii_digit()) => self.lex_number(start, line),
            _ if is_ident_start(b) => {
                self.cur.skip_while(is_ident_continue);
                let kind = keyword_kind(self.cur.slice_from(start)).unwrap_or(K::Identifier);
                self.emit(kind, start, line);
            }
            b'\'' => {
                self.cur.advance(quoted_len(self.cur.rest(), b'\''));
                self.emit(K::ConstantEncapsedString, start, line);
            }
            // A double-quoted string stays one `T_CONSTANT_ENCAPSED_STRING`
            // when free of interpolation; otherwise it is `"` +
            // interpolation parts + `"`, exactly as PHP emits it.
            b'"' => match plain_double_quoted_len(self.cur.rest()) {
                Some(n) => {
                    self.cur.advance(n);
                    self.emit(K::ConstantEncapsedString, start, line);
                }
                None => {
                    self.emit_n(K::DoubleQuote, 1);
                    self.lex_interpolated(InterpEnd::DoubleQuote);
                }
            },
            b'`' => {
                self.emit_n(K::Backtick, 1);
                self.lex_interpolated(InterpEnd::Backtick);
            }
            b'<' if self.cur.starts_with("<<<", false) => self.lex_heredoc(start, line),
            b'(' => match self.try_cast() {
                Some(kind) => self.emit(kind, start, line),
                None => self.lex_operator(b, start, line),
            },
            _ => self.lex_operator(b, start, line),
        }
    }

    fn lex_line_comment(&mut self, start: usize, line: u32) {
        self.cur.advance(line_comment_len(self.cur.rest()));
        self.emit(TokenKind::Comment, start, line);
    }

    fn lex_number(&mut self, start: usize, line: u32) {
        let kind = if self.cur.starts_with("0x", true) {
            self.cur.advance(2);
            self.cur.skip_while(|b| b.is_ascii_hexdigit() || b == b'_');
            TokenKind::LNumber
        } else if self.cur.starts_with("0b", true) {
            self.cur.advance(2);
            self.cur.skip_while(|b| b == b'0' || b == b'1' || b == b'_');
            TokenKind::LNumber
        } else {
            let mut is_float = false;
            self.cur.skip_while(|b| b.is_ascii_digit());
            // "1.5", or ".5" when the token starts at the dot.
            if self.cur.byte() == Some(b'.')
                && (self.cur.byte_at(1).is_some_and(|d| d.is_ascii_digit())
                    || self.cur.pos() == start)
            {
                is_float = true;
                self.cur.advance(1);
                self.cur.skip_while(|b| b.is_ascii_digit());
            }
            if matches!(self.cur.byte(), Some(b'e' | b'E')) {
                let k = if matches!(self.cur.byte_at(1), Some(b'+' | b'-')) {
                    2
                } else {
                    1
                };
                if self.cur.byte_at(k).is_some_and(|d| d.is_ascii_digit()) {
                    is_float = true;
                    self.cur.advance(k);
                    self.cur.skip_while(|b| b.is_ascii_digit());
                }
            }
            if is_float {
                TokenKind::DNumber
            } else {
                TokenKind::LNumber
            }
        };
        self.emit(kind, start, line);
    }

    fn lex_heredoc(&mut self, start: usize, line: u32) {
        self.cur.advance(3); // "<<<"
        self.cur.skip_while(|b| b == b' ' || b == b'\t');
        let nowdoc = self.cur.eat(b'\'');
        let quoted = !nowdoc && self.cur.eat(b'"');
        let label_start = self.cur.pos();
        self.cur.skip_while(is_ident_continue);
        let label = self.cur.slice_from(label_start);
        if nowdoc {
            self.cur.eat(b'\'');
        }
        if quoted {
            self.cur.eat(b'"');
        }
        self.cur.eat(b'\r');
        self.cur.eat(b'\n');
        self.emit(TokenKind::StartHeredoc, start, line);
        if nowdoc {
            self.lex_nowdoc_body(label);
        } else {
            self.lex_interpolated(InterpEnd::Heredoc(label));
        }
    }

    /// Nowdoc: raw text up to a line that starts with the terminator label,
    /// with no interpolation. Without a terminator the body runs to EOF.
    fn lex_nowdoc_body(&mut self, label: &str) {
        let (start, line) = self.mark();
        let rest = self.cur.rest();
        let mut at = 0; // start of the current body line
        let end = loop {
            if at < rest.len() && at_heredoc_end(&rest[at..], label) {
                break Some(at);
            }
            match rest[at..].iter().position(|&b| b == b'\n') {
                Some(nl) => at += nl + 1,
                None => break None,
            }
        };
        self.cur.advance(end.unwrap_or(rest.len()));
        self.emit_run(start, line);
        if end.is_some() {
            self.emit_n(TokenKind::EndHeredoc, label.len());
        }
    }

    /// Scans interpolated content (double-quoted string, backtick, heredoc),
    /// emitting `T_ENCAPSED_AND_WHITESPACE` runs, simple `$var` accesses and
    /// `{$ ... }` complex expressions, until the terminator.
    fn lex_interpolated(&mut self, end: InterpEnd<'src>) {
        use TokenKind as K;
        let (mut run_start, mut run_line) = self.mark();
        let (close, label) = match end {
            InterpEnd::DoubleQuote => (Some((b'"', K::DoubleQuote)), None),
            InterpEnd::Backtick => (Some((b'`', K::Backtick)), None),
            InterpEnd::Heredoc(label) => (None, Some(label)),
        };
        // Escapes stay verbatim inside the encapsed run; an empty heredoc
        // label turns escape skipping off.
        let escapes = label != Some("");
        let mut at_line_start = label.is_some();
        while let Some(b) = self.cur.byte() {
            // Terminator?
            if let Some((c, kind)) = close {
                if b == c {
                    self.emit_run(run_start, run_line);
                    self.emit_n(kind, 1);
                    return;
                }
            } else if let Some(label) = label {
                if at_line_start && at_heredoc_end(self.cur.rest(), label) {
                    self.emit_run(run_start, run_line);
                    self.emit_n(K::EndHeredoc, label.len());
                    return;
                }
            }
            let next = self.cur.byte_at(1);
            at_line_start = false;
            match b {
                b'\\' if escapes => {
                    at_line_start = next == Some(b'\n');
                    self.cur.advance(2);
                }
                b'$' if next.is_some_and(is_ident_start) => {
                    self.emit_run(run_start, run_line);
                    self.lex_simple_interpolation();
                    (run_start, run_line) = self.mark();
                }
                b'{' if next == Some(b'$') => {
                    self.emit_run(run_start, run_line);
                    self.emit_n(K::CurlyOpen, 1);
                    self.lex_php_until_matching_brace();
                    (run_start, run_line) = self.mark();
                }
                b'$' if next == Some(b'{') => {
                    self.emit_run(run_start, run_line);
                    self.emit_n(K::DollarOpenCurlyBraces, 2);
                    self.lex_php_until_matching_brace();
                    (run_start, run_line) = self.mark();
                }
                b'\n' => {
                    at_line_start = true;
                    self.cur.advance(1);
                }
                // Plain text: skip to the next byte any branch above (or a
                // terminator) could act on.
                _ => {
                    let skip = self.cur.rest()[1..]
                        .iter()
                        .position(|&b| matches!(b, b'\\' | b'$' | b'{' | b'\n' | b'"' | b'`'));
                    self.cur
                        .advance(skip.map_or(self.cur.rest().len(), |i| i + 1));
                }
            }
        }
        self.emit_run(run_start, run_line);
    }

    /// Simple interpolation syntax at `$name`: the variable plus an
    /// optional `->prop` or `[index]` suffix.
    fn lex_simple_interpolation(&mut self) {
        use TokenKind as K;
        let (start, line) = self.mark();
        self.cur.advance(1); // $
        self.cur.skip_while(is_ident_continue);
        self.emit(K::Variable, start, line);
        if self.cur.starts_with("->", false) && self.cur.byte_at(2).is_some_and(is_ident_start) {
            self.emit_n(K::ObjectOperator, 2);
            let (start, line) = self.mark();
            self.cur.skip_while(is_ident_continue);
            self.emit(K::Identifier, start, line);
        } else if self.cur.byte() == Some(b'[')
            && self
                .cur
                .byte_at(1)
                .is_some_and(|c| c == b'$' || c == b'\'' || c.is_ascii_digit() || is_ident_start(c))
        {
            self.emit_n(K::OpenBracket, 1);
            // index: $var | number | bareword
            let (start, line) = self.mark();
            let kind = match self.cur.byte() {
                Some(b'$') => {
                    self.cur.advance(1);
                    self.cur.skip_while(is_ident_continue);
                    K::Variable
                }
                Some(d) if d.is_ascii_digit() => {
                    self.cur.skip_while(|b| b.is_ascii_digit());
                    K::LNumber
                }
                _ => {
                    self.cur.skip_while(|b| is_ident_continue(b) || b == b'\'');
                    K::Identifier
                }
            };
            self.emit(kind, start, line);
            if self.cur.byte() == Some(b']') {
                self.emit_n(K::CloseBracket, 1);
            }
        }
    }

    /// Lexes full PHP tokens inside `{$ ... }` until the matching `}` (which
    /// is emitted as `}`), tracking nesting.
    fn lex_php_until_matching_brace(&mut self) {
        let mut depth = 1usize;
        while let Some(b) = self.cur.byte() {
            if b == b'}' {
                depth -= 1;
                self.emit_n(TokenKind::CloseBrace, 1);
                if depth == 0 {
                    return;
                }
                continue;
            }
            if b == b'{' {
                depth += 1;
            }
            self.lex_php_token();
        }
    }

    /// Attempts to lex a cast like `(int)`; restores the cursor on failure.
    fn try_cast(&mut self) -> Option<TokenKind> {
        const CASTS: [(&str, TokenKind); 12] = [
            ("int", TokenKind::IntCast),
            ("integer", TokenKind::IntCast),
            ("float", TokenKind::DoubleCast),
            ("double", TokenKind::DoubleCast),
            ("real", TokenKind::DoubleCast),
            ("string", TokenKind::StringCast),
            ("binary", TokenKind::StringCast),
            ("array", TokenKind::ArrayCast),
            ("object", TokenKind::ObjectCast),
            ("bool", TokenKind::BoolCast),
            ("boolean", TokenKind::BoolCast),
            ("unset", TokenKind::UnsetCast),
        ];
        let snapshot = self.cur;
        self.cur.advance(1); // (
        self.cur.skip_while(|b| b == b' ' || b == b'\t');
        let word_start = self.cur.pos();
        self.cur.skip_while(|b| b.is_ascii_alphabetic());
        let word = self.cur.slice_from(word_start);
        let kind = CASTS
            .iter()
            .find(|(w, _)| word.eq_ignore_ascii_case(w))
            .map(|&(_, k)| k);
        self.cur.skip_while(|b| b == b' ' || b == b'\t');
        if kind.is_none() || !self.cur.eat(b')') {
            self.cur = snapshot;
            return None;
        }
        kind
    }

    fn lex_operator(&mut self, b: u8, start: usize, line: u32) {
        use TokenKind::*;
        // Multi-char operators dispatched on the first byte (longest match
        // first within each group) so plain punctuation — the bulk of the
        // operator stream — doesn't scan a global table.
        let multi: &[(&str, TokenKind)] = match b {
            b'=' => &[("===", Identical), ("==", Equal), ("=>", DoubleArrow)],
            b'!' => &[("!==", NotIdentical), ("!=", NotEqual)],
            b'<' => &[
                ("<<=", SlEqual),
                ("<<", Sl),
                ("<=", SmallerOrEqual),
                ("<>", NotEqual),
            ],
            b'>' => &[(">>=", SrEqual), (">>", Sr), (">=", GreaterOrEqual)],
            b'.' => &[("...", Ellipsis), (".=", ConcatEqual)],
            b'-' => &[("->", ObjectOperator), ("--", Dec), ("-=", MinusEqual)],
            b'+' => &[("++", Inc), ("+=", PlusEqual)],
            b':' => &[("::", DoubleColon)],
            b'&' => &[("&&", BooleanAnd), ("&=", AndEqual)],
            b'|' => &[("||", BooleanOr), ("|=", OrEqual)],
            b'*' => &[("**", Pow), ("*=", MulEqual)],
            b'/' => &[("/=", DivEqual)],
            b'%' => &[("%=", ModEqual)],
            b'^' => &[("^=", XorEqual)],
            _ => &[],
        };
        if let Some(&(s, k)) = multi.iter().find(|(s, _)| self.cur.starts_with(s, false)) {
            self.cur.advance(s.len());
            self.emit(k, start, line);
            return;
        }
        let kind = match b {
            b';' => Semicolon,
            b',' => Comma,
            b'(' => OpenParen,
            b')' => CloseParen,
            b'{' => OpenBrace,
            b'}' => CloseBrace,
            b'[' => OpenBracket,
            b']' => CloseBracket,
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'.' => Dot,
            b'=' => Assign,
            b'<' => Lt,
            b'>' => Gt,
            b'!' => Bang,
            b'?' => Question,
            b':' => Colon,
            b'&' => Amp,
            b'|' => Pipe,
            b'^' => Caret,
            b'~' => Tilde,
            b'@' => At,
            b'$' => Dollar,
            b'\\' => Backslash,
            _ => Unknown,
        };
        // Only ASCII reaches here: bytes >= 0x80 always start a label.
        self.cur.advance(1);
        self.emit(kind, start, line);
    }
}

/// PHP's label start class `[a-zA-Z_\x80-\xff]`.
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// PHP's label class `[a-zA-Z0-9_\x80-\xff]`.
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// PHP's whitespace class `[ \t\n\r]`.
fn is_php_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// Offset of the first `a` immediately followed by `b`.
fn find_pair(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = bytes[from..].iter().position(|&x| x == a) {
        let at = from + i;
        if bytes.get(at + 1) == Some(&b) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Length of a line comment: up to (not including) the newline, or a
/// `?>`, which must be re-lexed as a close tag.
fn line_comment_len(rest: &[u8]) -> usize {
    let mut from = 0;
    while let Some(i) = rest[from..].iter().position(|&b| b == b'\n' || b == b'?') {
        let at = from + i;
        if rest[at] == b'\n' || rest.get(at + 1) == Some(&b'>') {
            return at;
        }
        from = at + 1;
    }
    rest.len()
}

/// Length of the string literal opening at `rest[0]`, through its closing
/// `quote` (or to EOF when unclosed); a backslash escapes the next byte.
fn quoted_len(rest: &[u8], quote: u8) -> usize {
    let mut i = 1;
    while let Some(off) = rest
        .get(i..)
        .and_then(|r| r.iter().position(|&b| b == quote || b == b'\\'))
    {
        i += off;
        if rest[i] == quote {
            return i + 1;
        }
        i += 2;
    }
    rest.len()
}

/// Length of the double-quoted string opening at `rest[0]` when nothing in
/// it interpolates (`$name`, `${`, `{$`); `None` when something does.
fn plain_double_quoted_len(rest: &[u8]) -> Option<usize> {
    let mut i = 1;
    loop {
        let Some(off) = rest.get(i..).and_then(|r| {
            r.iter()
                .position(|&b| matches!(b, b'"' | b'\\' | b'$' | b'{'))
        }) else {
            return Some(rest.len());
        };
        i += off;
        let next = rest.get(i + 1).copied();
        match rest[i] {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            b'$' if next.is_some_and(|n| is_ident_start(n) || n == b'{') => return None,
            b'{' if next == Some(b'$') => return None,
            _ => i += 1,
        }
    }
}

/// True when `rest` starts with the heredoc terminator `label`, followed
/// by the end of input or one of `; , ) \n \r`. Callers check that `rest`
/// begins a line.
fn at_heredoc_end(rest: &[u8], label: &str) -> bool {
    rest.starts_with(label.as_bytes())
        && matches!(
            rest.get(label.len()),
            None | Some(b';' | b',' | b'\n' | b'\r' | b')')
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as K;

    fn kinds(src: &str) -> Vec<K> {
        tokenize_significant(src)
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    fn texts(src: &str) -> Vec<&str> {
        tokenize_significant(src)
            .into_iter()
            .map(|t| t.text)
            .collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = tokenize(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src, "token texts must reconstruct the source");
    }

    #[test]
    fn html_then_php() {
        let toks = tokenize("<h1>Hi</h1><?php echo 1; ?><p>bye</p>");
        assert_eq!(toks[0].kind, K::InlineHtml);
        assert_eq!(toks[0].text, "<h1>Hi</h1>");
        assert_eq!(toks[1].kind, K::OpenTag);
        assert!(toks.iter().any(|t| t.kind == K::CloseTag));
        assert_eq!(toks.last().unwrap().kind, K::InlineHtml);
        roundtrip("<h1>Hi</h1><?php echo 1; ?><p>bye</p>");
    }

    #[test]
    fn open_tag_with_echo() {
        let toks = tokenize("<?= $x ?>");
        assert_eq!(toks[0].kind, K::OpenTagWithEcho);
        assert_eq!(toks[2].kind, K::Variable);
    }

    #[test]
    fn variables_and_superglobals() {
        assert_eq!(
            kinds("<?php $_POST;"),
            vec![K::OpenTag, K::Variable, K::Semicolon]
        );
        assert_eq!(texts("<?php $_POST;")[1], "$_POST");
    }

    #[test]
    fn variable_line_numbers_match_source() {
        let toks = tokenize("<?php\n\n$x = 1;\n$y = 2;");
        let x = toks.iter().find(|t| t.text == "$x").unwrap();
        let y = toks.iter().find(|t| t.text == "$y").unwrap();
        assert_eq!(x.line, 3);
        assert_eq!(y.line, 4);
    }

    #[test]
    fn keywords_vs_identifiers() {
        let k = kinds("<?php function foo() { return bar; }");
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::Function,
                K::Identifier,
                K::OpenParen,
                K::CloseParen,
                K::OpenBrace,
                K::Return,
                K::Identifier,
                K::Semicolon,
                K::CloseBrace
            ]
        );
    }

    #[test]
    fn numbers() {
        let k = kinds("<?php 1 1.5 0x1F 0b101 1e3 .5;");
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::LNumber,
                K::DNumber,
                K::LNumber,
                K::LNumber,
                K::DNumber,
                K::DNumber,
                K::Semicolon
            ]
        );
    }

    #[test]
    fn single_quoted_string_is_one_token() {
        let t = tokenize_significant("<?php 'a $x b';");
        assert_eq!(t[1].kind, K::ConstantEncapsedString);
        assert_eq!(t[1].text, "'a $x b'");
    }

    #[test]
    fn plain_double_quoted_string_is_one_token() {
        let t = tokenize_significant("<?php \"hello world\";");
        assert_eq!(t[1].kind, K::ConstantEncapsedString);
        assert_eq!(t[1].text, "\"hello world\"");
    }

    #[test]
    fn interpolated_string_splits() {
        let t = tokenize_significant("<?php \"abc $x def\";");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert_eq!(
            k,
            vec![
                K::OpenTag,
                K::DoubleQuote,
                K::EncapsedAndWhitespace,
                K::Variable,
                K::EncapsedAndWhitespace,
                K::DoubleQuote,
                K::Semicolon
            ]
        );
        assert_eq!(t[3].text, "$x");
        roundtrip("<?php \"abc $x def\";");
    }

    #[test]
    fn interpolated_property_access() {
        let t = tokenize_significant("<?php \"v={$row->sml_name}\";");
        assert!(t.iter().any(|t| t.kind == K::CurlyOpen));
        assert!(t.iter().any(|t| t.kind == K::ObjectOperator));
        assert!(t.iter().any(|t| t.text == "sml_name"));
        roundtrip("<?php \"v={$row->sml_name}\";");
    }

    #[test]
    fn simple_syntax_property_access_in_string() {
        let t = tokenize_significant("<?php \"v=$row->name!\";");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert!(k.contains(&K::ObjectOperator));
        roundtrip("<?php \"v=$row->name!\";");
    }

    #[test]
    fn simple_syntax_array_index_in_string() {
        let t = tokenize_significant("<?php \"v=$a[key] w=$b[0] x=$c[$i]\";");
        let brackets = t.iter().filter(|t| t.kind == K::OpenBracket).count();
        assert_eq!(brackets, 3);
        roundtrip("<?php \"v=$a[key] w=$b[0] x=$c[$i]\";");
    }

    #[test]
    fn escaped_dollar_does_not_interpolate() {
        let t = tokenize_significant("<?php \"a \\$x b\";");
        assert_eq!(t[1].kind, K::ConstantEncapsedString);
    }

    #[test]
    fn heredoc_with_interpolation() {
        let src = "<?php $s = <<<EOT\nhello $name\nEOT;\n";
        let t = tokenize_significant(src);
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert!(k.contains(&K::StartHeredoc));
        assert!(k.contains(&K::Variable));
        assert!(k.contains(&K::EndHeredoc));
        roundtrip(src);
    }

    #[test]
    fn nowdoc_has_no_interpolation() {
        let src = "<?php $s = <<<'EOT'\nhello $name\nEOT;\n";
        let t = tokenize_significant(src);
        assert!(t.iter().any(|t| t.kind == K::StartHeredoc));
        assert!(!t.iter().any(|t| t.kind == K::Variable && t.text == "$name"));
        roundtrip(src);
    }

    #[test]
    fn nowdoc_terminator_only_matches_at_line_start() {
        let src = "<?php $s = <<<'EOT'\nfoo EOT;\nbar\nEOT;\n";
        let t = tokenize_significant(src);
        let body: Vec<_> = t
            .iter()
            .filter(|t| t.kind == K::EncapsedAndWhitespace)
            .collect();
        assert_eq!(body.len(), 1);
        assert_eq!(body[0].text, "foo EOT;\nbar\n");
        let end = t.iter().find(|t| t.kind == K::EndHeredoc).unwrap();
        assert_eq!((end.text, end.line), ("EOT", 4));
        assert_eq!(t.last().unwrap().kind, K::Semicolon);
        roundtrip(src);
    }

    #[test]
    fn unterminated_nowdoc_runs_to_eof() {
        let src = "<?php <<<'EOT'\nbody $x\n";
        let t = tokenize(src);
        assert_eq!(t.last().unwrap().kind, K::EncapsedAndWhitespace);
        assert!(!t.iter().any(|t| t.kind == K::EndHeredoc));
        roundtrip(src);
    }

    #[test]
    fn whitespace_is_phps_four_bytes() {
        // Bytes >= 0x80 are label characters, as in token_get_all.
        let t = tokenize_significant("<?php ;\u{a0}x;");
        assert_eq!(t[2].kind, K::Identifier);
        assert_eq!(t[2].text, "\u{a0}x");
        // Vertical tab and form feed are not whitespace.
        let k = kinds("<?php \u{b}\u{c};");
        assert_eq!(k, vec![K::OpenTag, K::Unknown, K::Unknown, K::Semicolon]);
        roundtrip("<?php \u{2028}$x \r\n\t;");
    }

    #[test]
    fn comments() {
        let t = tokenize("<?php // line\n# hash\n/* block */ /** doc */ 1;");
        let k: Vec<K> = t.iter().map(|t| t.kind).collect();
        assert_eq!(k.iter().filter(|&&x| x == K::Comment).count(), 3);
        assert_eq!(k.iter().filter(|&&x| x == K::DocComment).count(), 1);
    }

    #[test]
    fn line_comment_stops_at_close_tag() {
        let t = tokenize("<?php // c ?>after");
        assert!(t.iter().any(|t| t.kind == K::CloseTag));
        assert_eq!(t.last().unwrap().kind, K::InlineHtml);
        roundtrip("<?php // c ?>after");
    }

    #[test]
    fn object_and_static_operators() {
        let k = kinds("<?php $wpdb->get_results(); Foo::bar();");
        assert!(k.contains(&K::ObjectOperator));
        assert!(k.contains(&K::DoubleColon));
    }

    #[test]
    fn casts() {
        let k = kinds("<?php (int)$x; (string) $y; ( array )$z; (bool)$w;");
        assert!(k.contains(&K::IntCast));
        assert!(k.contains(&K::StringCast));
        assert!(k.contains(&K::ArrayCast));
        assert!(k.contains(&K::BoolCast));
    }

    #[test]
    fn non_cast_paren_is_paren() {
        let k = kinds("<?php (1 + 2);");
        assert_eq!(k[1], K::OpenParen);
    }

    #[test]
    fn three_char_operators() {
        let k = kinds("<?php $a === $b; $a !== $b;");
        assert!(k.contains(&K::Identical));
        assert!(k.contains(&K::NotIdentical));
    }

    #[test]
    fn assignment_operator_family() {
        let k = kinds("<?php $a .= 'x'; $a += 1; $a <<= 2;");
        assert!(k.contains(&K::ConcatEqual));
        assert!(k.contains(&K::PlusEqual));
        assert!(k.contains(&K::SlEqual));
    }

    #[test]
    fn variable_variable() {
        let k = kinds("<?php $$name;");
        assert_eq!(k[1], K::Dollar);
        assert_eq!(k[2], K::Variable);
    }

    #[test]
    fn unclosed_string_is_total() {
        // Must not panic and must round-trip.
        roundtrip("<?php $x = 'never closed");
        roundtrip("<?php $x = \"never closed $y");
    }

    #[test]
    fn empty_and_html_only_inputs() {
        assert!(tokenize("").is_empty());
        let t = tokenize("just html, no php");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].kind, K::InlineHtml);
    }

    #[test]
    fn open_tag_text_is_verbatim() {
        let t = tokenize("<?PHP echo 1;");
        assert_eq!((t[0].kind, t[0].text), (K::OpenTag, "<?PHP"));
        roundtrip("<?PhP echo 1;");
    }

    #[test]
    fn short_open_tag() {
        let t = tokenize("<? echo 1;");
        assert_eq!(t[0].kind, K::OpenTag);
        assert_eq!(t[0].text, "<?");
    }

    #[test]
    fn roundtrip_realistic_plugin_snippet() {
        let src = r#"<?php
/*
Plugin Name: Example
*/
class My_Plugin {
    private $db;
    public function __construct() {
        global $wpdb;
        $this->db = $wpdb;
    }
    function render() {
        $rows = $this->db->get_results("SELECT * FROM {$this->db->prefix}sml");
        foreach ($rows as $row) {
            echo '<li>' . $row->sml_name . '</li>';
        }
    }
}
$p = new My_Plugin();
$p->render();
"#;
        roundtrip(src);
        let k = kinds(src);
        assert!(k.contains(&K::Class));
        assert!(k.contains(&K::Private));
        assert!(k.contains(&K::Foreach));
        assert!(k.contains(&K::New));
    }
}
