//! Offline JSON entry points over the local serde shim.
//!
//! Provides the entry points the workspace uses — [`to_string`],
//! [`to_vec`], [`to_writer`], [`from_str`], [`from_slice`]. The JSON
//! writer and reader themselves live in `serde` ([`serde::JsonWriter`],
//! [`serde::JsonReader`], [`serde::to_json`], [`serde::from_json`]):
//! every type writes and reads its own JSON text, with no intermediate
//! tree. These are always JSON, also for a type derived with
//! `#[serde(wire)]`.

#![forbid(unsafe_code)]

use std::fmt;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.message)
    }
}

/// Result alias (API parity).
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    String::from_utf8(to_vec(value)?).map_err(|e| Error::new(format!("invalid utf-8: {e}")))
}

/// Serializes a value to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    to_writer(&mut out, value)?;
    Ok(out)
}

/// Appends a value's JSON text to `writer`, growing it in place: a buffer
/// reused across messages stops allocating once it has grown to fit.
/// (The real crate takes any `io::Write`; the shim takes the `Vec<u8>`
/// the workspace passes.) On error `writer` is left as it was.
pub fn to_writer<T: Serialize + ?Sized>(writer: &mut Vec<u8>, value: &T) -> Result<()> {
    Ok(serde::to_json(value, writer)?)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    Ok(serde::from_json(text)?)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid utf-8: {e}")))?;
    from_str(text)
}

#[cfg(test)]
mod tests {
    use serde::Deserialize;

    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert_eq!(
            to_string("hi\n\"there\"").unwrap(),
            "\"hi\\n\\\"there\\\"\""
        );
        assert_eq!(from_str::<String>("\"hi\\u0041\"").unwrap(), "hiA");
        let x: f64 = from_str("2.5e3").unwrap();
        assert_eq!(x, 2500.0);
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u8, "a".to_string()), (2, "b".to_string())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u8, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_str::<u32>("{not json").is_err());
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("42 trailing").is_err());
        assert!(from_str::<Vec<u8>>("[1,2").is_err());
        assert!(from_slice::<String>(b"\"\xff\"").is_err());
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let s = "héllo → wörld 🎉".to_string();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        id: u32,
        name: String,
        #[serde(default)]
        tags: Vec<String>,
        ratio: f64,
        opt: Option<u8>,
    }

    #[test]
    fn derived_structs_read_field_by_field() {
        let rec = Rec {
            id: 1,
            name: "n".into(),
            tags: vec![],
            ratio: 1.0,
            opt: None,
        };
        let text = r#"{"id":1,"name":"n","tags":[],"ratio":1.0,"opt":null}"#;
        assert_eq!(to_string(&rec).unwrap(), text);
        assert_eq!(from_str::<Rec>(text).unwrap(), rec);
        // Unknown keys are skipped, a default field may be missing, an
        // integer token reads as an f64, and whitespace is allowed.
        let loose = r#" { "extra" : {"x":[1,{"y":null}]}, "ratio":1, "opt":null,
            "name":"n", "id":1 } "#;
        assert_eq!(from_str::<Rec>(loose).unwrap(), rec);
        // The first of duplicate keys wins; the second is only skipped.
        let dup = r#"{"id":1,"id":"two","name":"n","ratio":1.0,"opt":null}"#;
        assert_eq!(from_str::<Rec>(dup).unwrap(), rec);
        let missing = from_str::<Rec>(r#"{"id":1,"ratio":1.0,"opt":null}"#).unwrap_err();
        assert!(
            missing.to_string().contains("missing field `name`"),
            "{missing}"
        );
        assert!(from_str::<Rec>("[1]").is_err());
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        New(u8),
        Pair(u8, String),
        Named { x: i8 },
    }

    #[test]
    fn enums_are_externally_tagged() {
        for (shape, text) in [
            (Shape::Unit, r#""Unit""#),
            (Shape::New(3), r#"{"New":3}"#),
            (Shape::Pair(1, "a".into()), r#"{"Pair":[1,"a"]}"#),
            (Shape::Named { x: -1 }, r#"{"Named":{"x":-1}}"#),
        ] {
            assert_eq!(to_string(&shape).unwrap(), text);
            assert_eq!(from_str::<Shape>(text).unwrap(), shape);
        }
        for bad in [
            r#"{"Unit":null}"#,
            r#""New""#,
            r#""Nope""#,
            r#"{}"#,
            r#"{"New":1,"Unit":null}"#,
            r#"{"Pair":[1]}"#,
            r#"{"Pair":[1,"a",2]}"#,
            r#"{"Named":{}}"#,
            "3",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Id(String);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point(u8, u8);

    #[test]
    fn unit_newtype_and_tuple_structs() {
        assert_eq!(to_string(&Marker).unwrap(), "null");
        assert_eq!(
            from_str::<Marker>(r#"{"any":[1,"thing"]}"#).unwrap(),
            Marker
        );
        assert!(from_str::<Marker>("[1,").is_err());
        assert_eq!(to_string(&Id("x".into())).unwrap(), r#""x""#);
        assert_eq!(from_str::<Id>(r#""x""#).unwrap(), Id("x".into()));
        assert_eq!(to_string(&Point(1, 2)).unwrap(), "[1,2]");
        assert_eq!(from_str::<Point>("[1,2]").unwrap(), Point(1, 2));
        assert!(from_str::<Point>("[1]").is_err());
        assert!(from_str::<Point>("[1,2,3]").is_err());
    }

    #[test]
    fn to_writer_appends_and_non_finite_floats_fail() {
        let mut buf = b"x".to_vec();
        to_writer(&mut buf, &[1u8, 2]).unwrap();
        assert_eq!(buf, b"x[1,2]");
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_writer(&mut buf, &vec![1.0, f64::INFINITY]).is_err());
        assert_eq!(buf, b"x[1,2]", "a failed write leaves the buffer as it was");
    }

    /// Nests as deep as its input: `[[[…]]]`.
    #[derive(Deserialize)]
    struct Tree(Vec<Tree>);

    /// Nests as deep as its input: `{"a":{"a":…}}`.
    #[derive(Deserialize)]
    struct Chain {
        a: Option<Box<Chain>>,
    }

    /// Hostile input must not overflow the parser's stack: past
    /// `serde::MAX_DEPTH` nested arrays or objects, reading fails with an
    /// error, whether a type reads the nesting or skips it.
    #[test]
    fn deeply_nested_input_is_an_error_not_an_abort() {
        const DEPTH: usize = 1_000_000;
        assert_eq!(from_str::<Tree>("[[],[[]]]").unwrap().0.len(), 2);
        assert!(from_str::<Chain>(r#"{"a":{"a":null}}"#)
            .unwrap()
            .a
            .is_some());
        for open in ["[", r#"{"a":"#] {
            let text = open.repeat(DEPTH);
            let read = match open {
                "[" => from_str::<Tree>(&text).map(drop),
                _ => from_str::<Chain>(&text).map(drop),
            };
            let read = read.unwrap_err();
            assert!(read.to_string().contains("recursion limit"), "{read}");
            assert!(from_str::<Rec>(&text).is_err());
            assert!(from_str::<Vec<u8>>(&text).is_err());
            assert!(from_str::<Shape>(&format!(r#"{{"New":{text}"#)).is_err());
            let skipped = from_str::<Marker>(&text).unwrap_err();
            assert!(skipped.to_string().contains("recursion limit"), "{skipped}");
        }
        let max = serde::MAX_DEPTH;
        let at_limit = format!("{}{}", "[".repeat(max), "]".repeat(max));
        assert!(from_str::<Marker>(&at_limit).is_ok());
        assert!(from_str::<Marker>(&format!("[{at_limit}]")).is_err());
    }
}
