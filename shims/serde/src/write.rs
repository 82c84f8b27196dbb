//! [`JsonWriter`]: appends compact JSON text to a byte buffer.

use std::io::Write as _;

use crate::swar;

/// Flags the bytes of a word that a JSON string must escape: `"`, `\`
/// and control characters.
fn needs_escape(w: u64) -> u64 {
    swar::less_than(w, 0x20) | swar::equal(w, b'"') | swar::equal(w, b'\\')
}

/// Appends compact JSON text to a byte buffer.
///
/// [`Serialize`](crate::Serialize) impls drive it token by token. Commas
/// are the writer's job: call [`JsonWriter::element`] before each array
/// element and [`JsonWriter::key`] before each object value, and the
/// separators land where they belong.
///
/// Writing never fails mid-stream. The one value JSON cannot hold, a
/// non-finite float, is written as `null` and remembered;
/// [`JsonWriter::error`] reports it once the value is done.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: Vec<u8>,
    /// No element or key has been written yet in the innermost open
    /// container. Closing a container clears it: the closed container
    /// was itself an element of its parent.
    first: bool,
    non_finite: bool,
}

impl JsonWriter {
    /// A writer that appends to `out`, keeping what it already holds.
    pub fn new(out: Vec<u8>) -> Self {
        JsonWriter {
            out,
            first: false,
            non_finite: false,
        }
    }

    /// The buffer, with everything written appended.
    pub fn into_inner(self) -> Vec<u8> {
        self.out
    }

    /// Why the text written is not valid JSON, if it is not.
    pub fn error(&self) -> Option<&'static str> {
        self.non_finite
            .then_some("cannot serialize non-finite float")
    }

    /// The buffer so far.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.out
    }

    /// Cuts the buffer back to `len` bytes, as before writing a container
    /// that is about to be written again in another shape.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.out.truncate(len);
    }

    /// Appends already-rendered JSON text.
    pub(crate) fn raw(&mut self, json: &[u8]) {
        self.out.extend_from_slice(json);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer.
    pub(crate) fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[i..]);
    }

    /// Writes a signed integer.
    pub(crate) fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float. Integral values below 10^15 keep a `.0`, so the
    /// reader can tell them from integers.
    pub(crate) fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite = true;
            self.null();
            return;
        }
        // Writing into a `Vec` cannot fail.
        let _ = if x.fract() == 0.0 && x.abs() < 1e15 {
            write!(self.out, "{x:.1}")
        } else {
            write!(self.out, "{x}")
        };
    }

    /// Writes a string, escaping `"`, `\` and control characters.
    pub fn str(&mut self, s: &str) {
        self.out.reserve(s.len() + 2);
        self.out.push(b'"');
        // Copy maximal runs of bytes that need no escaping (multi-byte
        // UTF-8 passes through untouched) and escape only the rare
        // exceptions.
        let mut rest = s.as_bytes();
        while let Some(i) = swar::position(rest, needs_escape) {
            self.out.extend_from_slice(&rest[..i]);
            match rest[i] {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                b => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            rest = &rest[i + 1..];
        }
        self.out.extend_from_slice(rest);
        self.out.push(b'"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.out.push(b'[');
        self.first = true;
    }

    /// Starts the next array element.
    pub fn element(&mut self) {
        self.separator();
    }

    /// Closes an array.
    pub fn end_array(&mut self) {
        self.out.push(b']');
        self.first = false;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.out.push(b'{');
        self.first = true;
    }

    /// Writes an object key; its value follows.
    pub fn key(&mut self, key: &str) {
        self.separator();
        self.str(key);
        self.out.push(b':');
    }

    /// Closes an object.
    pub fn end_object(&mut self) {
        self.out.push(b'}');
        self.first = false;
    }

    fn separator(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
    }
}
