//! [`JsonReader`]: a pull parser over JSON text.

use std::borrow::Cow;

use crate::{swar, DeError};

/// Nesting depth past which the reader refuses input: the real
/// `serde_json`'s default recursion limit. Every array or object opened
/// counts, whether a type reads it or [`JsonReader::skip_value`] skips it,
/// so hostile input cannot drive recursion deep enough to overflow a
/// thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON number token, before a type claims it.
pub(crate) enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number written with a fraction or an exponent.
    F64(f64),
}

/// A pull parser over JSON text.
///
/// [`Deserialize`](crate::Deserialize) impls read the tokens their type
/// expects. Separators are checked by the reader: loop on
/// [`JsonReader::next_element`] inside an array and on
/// [`JsonReader::next_key`] inside an object until it reports the end.
///
/// Strings come back as [`Cow::Borrowed`] slices of the input unless they
/// hold escapes, so reading a string that is parsed into something else
/// (a digest, a number) allocates nothing.
#[derive(Debug)]
pub struct JsonReader<'de> {
    text: &'de str,
    pos: usize,
    depth: usize,
    /// Nothing has been read yet in the innermost open container. Closing
    /// a container clears it: the closed container was itself an element
    /// of its parent.
    first: bool,
}

impl<'de> JsonReader<'de> {
    /// A reader at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// When anything else does.
    pub fn finish(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(DeError::new(format!(
                "trailing characters at offset {}",
                self.pos
            )))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next token's first byte, past whitespace.
    fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    /// A type-mismatch error naming the token the reader stands on.
    pub(crate) fn unexpected(&mut self, expected: &str) -> DeError {
        let got = match self.peek_token() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(_) => "an unexpected character",
            None => "end of input",
        };
        DeError::new(format!(
            "expected {expected}, got {got} at offset {}",
            self.pos
        ))
    }

    fn eat(&mut self, b: u8) -> Result<(), DeError> {
        match self.peek_token() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(DeError::new(format!(
                "expected `{}` at offset {}, got `{}`",
                b as char, self.pos, got as char
            ))),
            None => Err(DeError::new("unexpected end of input")),
        }
    }

    fn eat_literal(&mut self, lit: &[u8]) -> Result<(), DeError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(DeError::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    /// Consumes a `null` if one comes next; reports whether it did.
    ///
    /// # Errors
    ///
    /// On a malformed literal starting with `n`.
    pub(crate) fn take_null(&mut self) -> Result<bool, DeError> {
        if self.peek_token() == Some(b'n') {
            self.eat_literal(b"null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// On any other token.
    pub(crate) fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek_token() {
            Some(b't') => self.eat_literal(b"true").map(|()| true),
            Some(b'f') => self.eat_literal(b"false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    /// Reads a number token; `what` names the type for the error.
    pub(crate) fn number(&mut self, what: &str) -> Result<Number, DeError> {
        if !matches!(self.peek_token(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.unexpected(what));
        }
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut n = 0u64;
        let mut overflow = false;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            match n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
            {
                Some(next) => n = next,
                None => overflow = true,
            }
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        if self.pos == digits {
            return Err(DeError::new(format!("invalid number at offset {start}")));
        }
        // Byte offsets of ASCII characters: always char boundaries.
        let text = || &self.text[start..self.pos];
        if is_float {
            return text()
                .parse()
                .map(Number::F64)
                .map_err(|e| DeError::new(format!("bad float `{}`: {e}", text())));
        }
        if overflow || (negative && n > i64::MIN.unsigned_abs()) {
            return Err(DeError::new(format!("integer `{}` out of range", text())));
        }
        Ok(if negative {
            Number::I64((n as i64).wrapping_neg())
        } else {
            Number::U64(n)
        })
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    ///
    /// # Errors
    ///
    /// On any other token, a bad escape or a missing closing quote.
    pub fn str(&mut self) -> Result<Cow<'de, str>, DeError> {
        if self.peek_token() != Some(b'"') {
            return Err(self.unexpected("string"));
        }
        self.pos += 1;
        // Fast path: the whole string is one clean run.
        let run = self.take_clean_run()?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        self.str_with_escapes(run).map(Cow::Owned)
    }

    /// The rest of a string whose first escape the reader stands on,
    /// after the clean `run` before it.
    fn str_with_escapes(&mut self, run: &str) -> Result<String, DeError> {
        let mut out = String::from(run);
        loop {
            // `take_clean_run` stops only at `"`, `\` or end of input.
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| DeError::new("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| DeError::new("bad unicode escape"))?,
                        );
                    }
                    _ => return Err(DeError::new("bad escape sequence")),
                },
                _ => return Err(DeError::new("unterminated string")),
            }
            out.push_str(self.take_clean_run()?);
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Advances past a run of text needing no per-byte handling
    /// (anything but `"` and `\`; raw control characters pass through)
    /// and returns it.
    fn take_clean_run(&mut self) -> Result<&'de str, DeError> {
        let text: &'de str = self.text;
        let start = self.pos;
        let rest = &text.as_bytes()[start..];
        let len = swar::position(rest, |w| swar::equal(w, b'"') | swar::equal(w, b'\\'))
            .unwrap_or(rest.len());
        self.pos += len;
        // The run ends at an ASCII byte or at the end of the text, so the
        // slice falls on char boundaries; `get` keeps that a checked claim.
        text.get(start..self.pos)
            .ok_or_else(|| DeError::new(format!("invalid string at offset {start}")))
    }

    fn enter(&mut self) -> Result<(), DeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(DeError::new(format!(
                "recursion limit exceeded: more than {MAX_DEPTH} nested arrays and objects"
            )));
        }
        self.first = true;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
        self.first = false;
    }

    /// Moves to the next item of the innermost container: past the `,`
    /// before it, or past the closing `close` (leaving the container)
    /// and returns false.
    fn next_item(&mut self, close: u8) -> Result<bool, DeError> {
        let Some(b) = self.peek_token() else {
            return Err(DeError::new("unexpected end of input"));
        };
        if b == close {
            self.pos += 1;
            self.leave();
            return Ok(false);
        }
        if self.first {
            self.first = false;
            return Ok(true);
        }
        if b == b',' {
            self.pos += 1;
            return Ok(true);
        }
        Err(DeError::new(format!(
            "expected `,` or `{}` at offset {}",
            close as char, self.pos
        )))
    }

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// On any other token, or past [`MAX_DEPTH`].
    pub fn begin_array(&mut self) -> Result<(), DeError> {
        if self.peek_token() != Some(b'[') {
            return Err(self.unexpected("array"));
        }
        self.pos += 1;
        self.enter()
    }

    /// True when another element follows (read it next); false once the
    /// array has closed.
    ///
    /// # Errors
    ///
    /// On a missing separator or end of input.
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.next_item(b']')
    }

    /// True when the next token opens an object.
    pub(crate) fn at_object(&mut self) -> bool {
        self.peek_token() == Some(b'{')
    }

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// On any other token, or past [`MAX_DEPTH`].
    pub fn begin_object(&mut self) -> Result<(), DeError> {
        if self.peek_token() != Some(b'{') {
            return Err(self.unexpected("object"));
        }
        self.pos += 1;
        self.enter()
    }

    /// True when another entry follows, with the reader on its key
    /// string: read the key as any type that reads a string, then call
    /// [`JsonReader::colon`] and read the value. False once the object
    /// has closed.
    ///
    /// # Errors
    ///
    /// On a missing separator, a non-string key or end of input.
    pub(crate) fn next_entry(&mut self) -> Result<bool, DeError> {
        let more = self.next_item(b'}')?;
        if more && self.peek_token() != Some(b'"') {
            return Err(self.unexpected("string key"));
        }
        Ok(more)
    }

    /// Consumes the `:` between a key and its value.
    ///
    /// # Errors
    ///
    /// When it is missing.
    pub(crate) fn colon(&mut self) -> Result<(), DeError> {
        self.eat(b':')
    }

    /// The next key of the open object, with the reader on its value;
    /// `None` once the object has closed.
    ///
    /// # Errors
    ///
    /// On a missing separator or `:`, a non-string key, or end of input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError> {
        if !self.next_entry()? {
            return Ok(None);
        }
        let key = self.str()?;
        self.colon()?;
        Ok(Some(key))
    }

    /// Reads an externally tagged enum's tag: a bare string (a unit
    /// variant, `false`) or the single key of an object whose value is
    /// the payload (`true`; the reader is left on the payload, and
    /// [`JsonReader::end_variant`] must follow it).
    ///
    /// # Errors
    ///
    /// On any other token, or an empty object.
    pub fn variant(&mut self, ty: &str) -> Result<(Cow<'de, str>, bool), DeError> {
        match self.peek_token() {
            Some(b'"') => Ok((self.str()?, false)),
            Some(b'{') => {
                self.begin_object()?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, true)),
                    None => Err(DeError::new(format!("expected variant of {ty}, got {{}}"))),
                }
            }
            _ => Err(self.unexpected(&format!("variant of {ty}"))),
        }
    }

    /// Closes the object around a variant's payload.
    ///
    /// # Errors
    ///
    /// When the object has a second key.
    pub fn end_variant(&mut self, ty: &str) -> Result<(), DeError> {
        if self.next_entry()? {
            return Err(DeError::new(format!(
                "expected a single-key object for a variant of {ty}"
            )));
        }
        Ok(())
    }

    /// Reads past one value of any shape, checking its syntax.
    ///
    /// # Errors
    ///
    /// On malformed JSON, or past [`MAX_DEPTH`].
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek_token() {
            Some(b'n') => self.eat_literal(b"null"),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.str().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number("number").map(drop),
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(other) => Err(DeError::new(format!(
                "unexpected character `{}` at offset {}",
                other as char, self.pos
            ))),
            None => Err(DeError::new("unexpected end of input")),
        }
    }
}
