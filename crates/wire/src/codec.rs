//! The binary codec: varint integers, length-prefixed slices, and the
//! [`Wire`] trait message types derive.
//!
//! Layout rules (all little-endian where fixed-width):
//!
//! - `u8`/`bool`: one byte.
//! - `u32`/`u64` *fixed*: via [`Writer::put_u32`]/[`Writer::put_u64`] —
//!   used only by the frame header, where self-description matters more
//!   than size.
//! - integers on messages: LEB128 varints ([`Writer::put_varint`]), so
//!   the common small values (lane numbers, attempt counts, entry
//!   totals) cost one byte.
//! - byte slices and strings: varint length prefix + raw bytes, read
//!   back **zero-copy** as `&'a [u8]` / `&'a str` borrowing from the
//!   frame buffer.
//! - sequences: varint element count + elements; options: one presence
//!   byte; structs: their fields in declaration order; enums: one tag
//!   byte (the variant's declaration index) + the variant's fields.
//!
//! Decoding is total: every method returns `Result<_, WireError>` and
//! nothing panics on malformed input, which the torn-frame corpus in
//! `tests/` exercises.

use crate::error::WireError;

/// Append-only encode buffer.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// A writer that appends to `buf`, keeping what it already holds and
    /// its allocation: a buffer reused across messages stops allocating
    /// once it has grown to fit.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Clears the buffer, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a fixed-width little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a fixed-width little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint (1 byte for values < 128).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Checked, zero-copy decode cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts the message consumed its whole buffer.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes remain — a sign the
    /// decoder and encoder disagree about the message layout.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input; [`WireError::BadTag`]
    /// for any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                what: "bool",
                tag: u64::from(tag),
            }),
        }
    }

    /// Reads a fixed-width little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(raw);
        Ok(u32::from_le_bytes(bytes))
    }

    /// Reads a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input;
    /// [`WireError::VarintOverflow`] past 10 bytes or 64 bits.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7F);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(WireError::VarintOverflow);
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint and narrows it to `usize`/`u32`-sized lengths.
    fn varint_len(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.varint()?).map_err(|_| WireError::VarintOverflow)
    }

    /// Reads a length-prefixed byte slice, borrowing from the buffer —
    /// the zero-copy path digests and excerpts decode through.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the prefix promises more bytes
    /// than remain.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.varint_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string, borrowing from the buffer.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input; [`WireError::Utf8`] on
    /// invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::Utf8)
    }

    /// Reads a sequence length prefix, rejecting counts that could not
    /// possibly fit in the remaining bytes (each element costs at least
    /// `min_element_bytes`), so a torn frame cannot force a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`WireError::BadLength`] for impossible counts.
    pub fn seq_len(&mut self, min_element_bytes: usize) -> Result<usize, WireError> {
        let len = self.varint_len()?;
        let floor = min_element_bytes.max(1);
        if len > self.remaining() / floor {
            return Err(WireError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }
}

/// Binary encode/decode for one message type.
///
/// A message type derives it: `#[derive(Wire)]` (re-exported beside
/// this trait) encodes a struct's fields in declaration order and an
/// enum as a `u8` tag, the variant's declaration index, then its
/// fields, so `encode` and `decode` are one declaration and cannot
/// drift apart. A type whose decode must validate private state (a
/// digest, a key, a PCR mask), or that declares `MIN_WIRE_LEN` (a log
/// entry), implements it by hand, next to the type. `decode` must be total:
/// malformed bytes return a [`WireError`], never panic.
pub trait Wire: Sized {
    /// A lower bound on the bytes one encoded value takes, or 0 when the
    /// type declares none. [`Vec::decode`](Wire::decode) reserves room
    /// for no more elements than the input could hold at this size, so a
    /// type that is larger in memory than on the wire declares it to be
    /// reserved for exactly; one that declares none is reserved for no
    /// more elements than fit the input at its in-memory size.
    const MIN_WIRE_LEN: usize = 0;

    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value from `r`, leaving the cursor after it.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing how the input is malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes this value into a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Decodes exactly one value from `bytes`, requiring full
    /// consumption.
    ///
    /// # Errors
    ///
    /// Any decode error, or [`WireError::TrailingBytes`] when the
    /// buffer holds more than one value.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.bool()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::VarintOverflow)
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.varint()?).map_err(|_| WireError::VarintOverflow)
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.str()?.to_string())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag: u64::from(tag),
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    /// Reserves up front for no more elements than the input could
    /// hold: `remaining / T::MIN_WIRE_LEN` when `T` declares a bound, so
    /// an honest list is reserved for exactly once; otherwise
    /// `remaining / size_of::<T>()`, so no more bytes than the input
    /// holds and an honest vector whose elements are larger in memory
    /// than on the wire grows as it decodes. Either way a length prefix
    /// alone cannot make the decoder reserve more than linear in the
    /// input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len(1)?;
        let per_element = match T::MIN_WIRE_LEN {
            0 => std::mem::size_of::<T>(),
            declared => declared,
        };
        let fits = r.remaining() / per_element.max(1);
        let mut items = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries_roundtrip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut w = Writer::new();
            w.put_varint(v);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_is_an_error() {
        // 11 continuation bytes can never encode a u64.
        let bytes = [0xFFu8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(WireError::VarintOverflow));
        // 10 bytes whose top bits overflow 64 bits.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn bytes_and_str_are_zero_copy() {
        let mut w = Writer::new();
        w.put_str("sha256:deadbeef");
        w.put_bytes(&[1, 2, 3]);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let s = r.str().unwrap();
        let b = r.bytes().unwrap();
        // Borrowed straight from `buf`: same allocation, no copies.
        assert!(std::ptr::eq(s.as_bytes().as_ptr(), buf[1..].as_ptr()));
        assert_eq!(s, "sha256:deadbeef");
        assert_eq!(b, &[1, 2, 3]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut w = Writer::new();
        w.put_bytes(&[9; 40]);
        let buf = w.into_vec();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.bytes().is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_varint(u64::MAX / 2); // absurd element count
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        match Vec::<u64>::decode(&mut r) {
            Err(WireError::BadLength { .. }) | Err(WireError::VarintOverflow) => {}
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn container_impls_roundtrip() {
        let value: Vec<(String, u64)> = vec![
            ("agent-0001".to_string(), 0),
            ("agent-0002".to_string(), u64::MAX),
        ];
        let encoded = value.to_wire();
        assert_eq!(Vec::<(String, u64)>::from_wire(&encoded).unwrap(), value);

        let opt: Option<u32> = Some(7);
        assert_eq!(Option::<u32>::from_wire(&opt.to_wire()).unwrap(), opt);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_wire(&none.to_wire()).unwrap(), none);
    }

    #[test]
    fn trailing_bytes_are_flagged() {
        let mut w = Writer::new();
        w.put_varint(5);
        w.put_u8(0xAA);
        let buf = w.into_vec();
        assert_eq!(
            u64::from_wire(&buf),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }
}
