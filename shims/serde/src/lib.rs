//! Offline API-compatible subset of `serde`.
//!
//! The build environment cannot reach crates.io, so the workspace patches
//! `serde` with this shim. Its one data format is JSON: [`Serialize`]
//! writes a value's JSON text straight into a [`JsonWriter`], and
//! [`Deserialize`] reads it back from a [`JsonReader`], token by token,
//! with no intermediate tree. `serde_json` (also shimmed) wraps the two
//! in the real crate's entry points. The derive macros in `serde_derive`
//! generate the externally-tagged encoding real serde uses (unit variants
//! as strings, newtype variants as one-entry objects, named fields as
//! objects), so wire shapes stay familiar even though the implementation
//! is local.
//!
//! One addition real serde does not have: a message codec pair,
//! [`Serialize::write_message`] and [`Deserialize::read_message`], the
//! bytes a transport carries. Both default to the JSON text; a type
//! derived with the container attribute `#[serde(wire)]` routes them to
//! its `cia_wire::Wire` impl, so an RPC can move a type in binary while
//! its JSON derives stay for everything else.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod swar;
mod write;

use read::Number;
pub use read::{JsonReader, MAX_DEPTH};
pub use write::JsonWriter;

/// Deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    /// What went wrong.
    pub message: String,
}

impl DeError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Appends `self`'s JSON text to `w`.
    fn write_json(&self, w: &mut JsonWriter);

    /// Appends `self` to `out` as one message: the bytes a transport
    /// carries. By default that is the JSON text
    /// [`write_json`](Serialize::write_json) writes; a type derived with
    /// `#[serde(wire)]` writes its binary `cia_wire` encoding instead.
    /// Shim-only: real serde has no such method.
    ///
    /// # Errors
    ///
    /// When the value has no encoding (a non-finite float in JSON); `out`
    /// is then left as it was.
    fn write_message(&self, out: &mut Vec<u8>) -> Result<(), DeError> {
        to_json(self, out)
    }
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one value of this type from `r`.
    ///
    /// # Errors
    ///
    /// On malformed JSON or a value of the wrong shape.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError>;

    /// Reads exactly one message, as
    /// [`Serialize::write_message`] writes it: JSON text by default, the
    /// binary `cia_wire` encoding for a type derived with
    /// `#[serde(wire)]`. Shim-only: real serde has no such method.
    ///
    /// # Errors
    ///
    /// When `bytes` are not exactly one well-formed message.
    fn read_message(bytes: &[u8]) -> Result<Self, DeError> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| DeError::new(format!("invalid utf-8: {e}")))?;
        from_json(text)
    }
}

/// Appends `value`'s JSON text to `out`, growing it in place: a buffer
/// reused across messages stops allocating once it has grown to fit.
///
/// # Errors
///
/// When the value holds a non-finite float; `out` is then left as it was.
pub fn to_json<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) -> Result<(), DeError> {
    let start = out.len();
    let mut w = JsonWriter::new(std::mem::take(out));
    value.write_json(&mut w);
    let error = w.error();
    *out = w.into_inner();
    match error {
        Some(reason) => {
            out.truncate(start);
            Err(DeError::new(reason))
        }
        None => Ok(()),
    }
}

/// Reads exactly one value from JSON text (whitespace around it is
/// allowed).
///
/// # Errors
///
/// On malformed JSON, a value of the wrong shape, or trailing text.
pub fn from_json<T: Deserialize>(text: &str) -> Result<T, DeError> {
    let mut reader = JsonReader::new(text);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Deserialization traits namespace (API parity with real serde).
pub mod de {
    /// Owned deserialization (blanket over [`crate::Deserialize`]).
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

/// Serialization traits namespace (API parity with real serde).
pub mod ser {
    pub use crate::Serialize;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_integer {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                let out_of_range = |n: &dyn fmt::Display| {
                    DeError::new(format!("{n} out of range for {}", stringify!($t)))
                };
                match r.number(stringify!($t))? {
                    Number::U64(n) => <$t>::try_from(n).map_err(|_| out_of_range(&n)),
                    Number::I64(n) => <$t>::try_from(n).map_err(|_| out_of_range(&n)),
                    Number::F64(_) => Err(DeError::new(format!(
                        "expected {}, got a fractional number",
                        stringify!($t)
                    ))),
                }
            }
        }
    )*};
}
impl_integer!(u64 as u64: u8, u16, u32, u64, usize);
impl_integer!(i64 as i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}
impl Deserialize for f64 {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Ok(match r.number("f64")? {
            Number::F64(x) => x,
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
        })
    }
}

impl Serialize for f32 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(f64::from(*self));
    }
}
impl Deserialize for f32 {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        f64::read_json(r).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}
impl Deserialize for bool {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for char {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self.encode_utf8(&mut [0u8; 4]));
    }
}
impl Deserialize for char {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let s = r.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::new("expected single-char string")),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Serialize for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}
impl Deserialize for String {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.str().map(|s| s.into_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        T::read_json(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.take_null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

// ---------------------------------------------------------------------
// Sequences
// ---------------------------------------------------------------------

/// Writes `items` as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, w: &mut JsonWriter) {
    w.begin_array();
    for item in items {
        w.element();
        item.write_json(w);
    }
    w.end_array();
}

/// Reads a JSON array, handing each element's reader to `each`.
fn read_seq(
    r: &mut JsonReader<'_>,
    mut each: impl FnMut(&mut JsonReader<'_>) -> Result<(), DeError>,
) -> Result<(), DeError> {
    r.begin_array()?;
    while r.next_element()? {
        each(r)?;
    }
    Ok(())
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(self, w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(self, w);
    }
}
impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut out = [T::default(); N];
        let mut len = 0;
        read_seq(r, |r| {
            let slot = out
                .get_mut(len)
                .ok_or_else(|| DeError::new(format!("expected array of length {N}, got more")))?;
            *slot = T::read_json(r)?;
            len += 1;
            Ok(())
        })?;
        if len != N {
            return Err(DeError::new(format!(
                "expected array of length {N}, got {len}"
            )));
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(self, w);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut out = Vec::new();
        read_seq(r, |r| {
            out.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(out)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(self, w);
    }
}
impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut out = BTreeSet::new();
        read_seq(r, |r| {
            out.insert(T::read_json(r)?);
            Ok(())
        })?;
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, w: &mut JsonWriter) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.write_json(w);
                )+
                w.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                r.begin_array()?;
                let out = ($(
                    {
                        if !r.next_element()? {
                            return Err(DeError::new("tuple too short"));
                        }
                        $name::read_json(r)?
                    },
                )+);
                if r.next_element()? {
                    return Err(DeError::new("tuple too long"));
                }
                Ok(out)
            }
        }
    )+};
}
impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

// ---------------------------------------------------------------------
// Maps
// ---------------------------------------------------------------------

/// Whether a rendered key can stand as an object key as it is.
fn is_json_string(text: &[u8]) -> bool {
    text.first() == Some(&b'"')
}

/// A map whose keys all render as strings is an object; any other map is
/// an array of `[key, value]` pairs. Both read back either way.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, w: &mut JsonWriter) {
        // Write an object, and start over as pairs at the first key that
        // does not render as a string.
        let start = w.as_bytes().len();
        w.begin_object();
        for (k, v) in self {
            w.element();
            let key_start = w.as_bytes().len();
            k.write_json(w);
            if !is_json_string(&w.as_bytes()[key_start..]) {
                w.truncate(start);
                w.begin_array();
                for (k, v) in self {
                    w.element();
                    (k, v).write_json(w);
                }
                w.end_array();
                return;
            }
            w.raw(b":");
            v.write_json(w);
        }
        w.end_object();
    }
}

/// Reads a map written by either encoding into `insert`.
fn read_map<K: Deserialize, V: Deserialize>(
    r: &mut JsonReader<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), DeError> {
    if r.at_object() {
        r.begin_object()?;
        while r.next_entry()? {
            let k = K::read_json(r)?;
            r.colon()?;
            insert(k, V::read_json(r)?);
        }
        Ok(())
    } else {
        read_seq(r, |r| {
            let (k, v) = <(K, V)>::read_json(r)?;
            insert(k, v);
            Ok(())
        })
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut out = BTreeMap::new();
        read_map(r, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut w = JsonWriter::default();
        value.write_json(&mut w);
        assert_eq!(w.error(), None);
        String::from_utf8(w.into_inner()).unwrap()
    }

    fn parse<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut r = JsonReader::new(text);
        let value = T::read_json(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(json(&42u64), "42");
        assert_eq!(parse::<u64>("42").unwrap(), 42);
        assert_eq!(json(&-7i32), "-7");
        assert_eq!(parse::<i32>("-7").unwrap(), -7);
        assert_eq!(json("hi"), r#""hi""#);
        assert_eq!(parse::<String>(r#""hi""#).unwrap(), "hi");
        assert_eq!(json(&vec![1u8, 2, 3]), "[1,2,3]");
        assert_eq!(parse::<Vec<u8>>("[1,2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse::<Option<u8>>("null").unwrap(), None);
        assert_eq!(json(&Some(4u8)), "4");
        assert!(parse::<u8>("256").is_err());
        assert!(parse::<u8>("1.5").is_err());
        assert_eq!(parse::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert!(parse::<i64>("-9223372036854775809").is_err());
        assert!(parse::<u64>("18446744073709551616").is_err());
        // Integral floats keep a `.0`; an integer token reads as an f64.
        assert_eq!(json(&2.0f64), "2.0");
        assert_eq!(json(&0.25f64), "0.25");
        assert_eq!(parse::<f64>("3").unwrap(), 3.0);
        assert_eq!(parse::<f64>("-3").unwrap(), -3.0);
        let mut w = JsonWriter::default();
        f64::NAN.write_json(&mut w);
        assert!(w.error().is_some());
    }

    #[test]
    fn maps_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        assert_eq!(json(&m), r#"{"a":1,"b":2}"#);
        assert_eq!(parse::<BTreeMap<String, u32>>(&json(&m)).unwrap(), m);

        let mut n = BTreeMap::new();
        n.insert(3u64, "x".to_string());
        assert_eq!(json(&n), r#"[[3,"x"]]"#);
        assert_eq!(parse::<BTreeMap<u64, String>>(&json(&n)).unwrap(), n);
    }

    /// A key that renders as a string below 10 and as a number above.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Key(u8);

    impl Serialize for Key {
        fn write_json(&self, w: &mut JsonWriter) {
            if self.0 < 10 {
                w.str(&self.0.to_string());
            } else {
                w.u64(u64::from(self.0));
            }
        }
    }

    #[test]
    fn a_map_falls_back_to_pairs_at_its_first_non_string_key() {
        let m: BTreeMap<Key, bool> = [(Key(1), true), (Key(2), false)].into_iter().collect();
        assert_eq!(json(&m), r#"{"1":true,"2":false}"#);
        let m: BTreeMap<Key, bool> = [(Key(1), true), (Key(12), false)].into_iter().collect();
        assert_eq!(json(&[m]), r#"[[["1",true],[12,false]]]"#);
    }

    #[test]
    fn arrays_roundtrip() {
        let a = [7u8; 32];
        assert_eq!(parse::<[u8; 32]>(&json(&a)).unwrap(), a);
        assert!(parse::<[u8; 32]>("[1]").is_err());
        assert!(parse::<[u8; 2]>("[1,2,3]").is_err());
        assert_eq!(json(&(1u8, "x", false)), r#"[1,"x",false]"#);
        assert!(parse::<(u8, u8)>("[1]").is_err());
        assert!(parse::<(u8, u8)>("[1,2,3]").is_err());
    }

    #[test]
    fn strings_escape_and_borrow_when_they_can() {
        let s = "q\"b\\n\nr\rt\t\u{1}é";
        assert_eq!(json(s), r#""q\"b\\n\nr\rt\t\u0001é""#);
        assert_eq!(parse::<String>(&json(s)).unwrap(), s);
        assert_eq!(parse::<String>(r#""\u0041\/""#).unwrap(), "A/");
        let mut r = JsonReader::new(r#"["plain","esc\"aped"]"#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "esc\"aped"));
        assert!(!r.next_element().unwrap());
        r.finish().unwrap();
        assert!(parse::<String>("\"\\x\"").is_err());
        assert!(parse::<String>("\"open").is_err());
    }

    #[test]
    fn malformed_separators_are_rejected() {
        for bad in [
            "[1 2]",
            "[,1]",
            "[1,]",
            "[1",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "nul",
        ] {
            let mut r = JsonReader::new(bad);
            assert!(r.skip_value().and_then(|()| r.finish()).is_err(), "{bad}");
        }
        let mut r = JsonReader::new(r#" { "a" : [ 1 , { } , [ ] ] , "b" : null } "#);
        r.skip_value().unwrap();
        r.finish().unwrap();
    }
}
