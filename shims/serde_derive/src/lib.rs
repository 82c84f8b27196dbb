//! Derive macros for the local serde shim.
//!
//! `syn`/`quote` are unavailable offline, so the item is parsed from its
//! `TokenStream` directly, by the parser `cia-wire-derive` shares
//! (`crates/wire_derive/src/item.rs`). It supports exactly the shapes
//! this workspace uses: plain (non-generic) structs with named fields,
//! tuple structs, and enums with unit / tuple / struct variants. `#[serde(default)]` on
//! a named field is honoured: a missing key deserializes to the field
//! type's `Default` instead of erroring, which is how evolving wire
//! formats stay readable by both old and new peers. Other serde
//! attributes such as `#[serde(transparent)]` are accepted and ignored —
//! newtype structs already serialize transparently here.
//!
//! One container attribute is the shim's own: `#[serde(wire)]` makes the
//! derived impls override the message pair, `Serialize::write_message`
//! and `Deserialize::read_message`, to call the type's `cia_wire::Wire`
//! impl (`Wire::encode` into a `cia_wire::Writer`, `Wire::from_wire`).
//! The crate deriving it must depend on `cia-wire` and implement (or
//! derive) `Wire` for the type; its JSON methods are generated as for any other type.
//!
//! Generated encoding (matches real serde's externally-tagged defaults):
//! named struct -> object; newtype struct -> inner value; tuple struct
//! -> array; unit variant -> `"Variant"`; newtype variant ->
//! `{"Variant": value}`; tuple variant -> `{"Variant": [..]}`; struct
//! variant -> `{"Variant": {..}}`.
//!
//! The generated code writes and reads JSON text directly, one field at a
//! time, through `serde::JsonWriter` and `serde::JsonReader`. Reading an
//! object skips unknown keys, keeps the first of duplicate keys, and
//! fails on a missing field that is not `#[serde(default)]`.

#[path = "../../../crates/wire_derive/src/item.rs"]
mod item;

use item::{has_serde_arg, parse_item, Field, Fields, Item};
use proc_macro::TokenStream;

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

const WRITE: &str = "::serde::Serialize::write_json";
const READ: &str = "::serde::Deserialize::read_json(__r)?";

/// Statements writing `values` (expressions of reference type) as a JSON
/// array.
fn write_array(values: impl Iterator<Item = String>) -> String {
    let elements: String = values
        .map(|v| format!("__w.element(); {WRITE}({v}, __w);\n"))
        .collect();
    format!("__w.begin_array();\n{elements}__w.end_array();")
}

/// Statements writing `(key, value expression)` pairs as a JSON object.
fn write_object<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let keys: String = entries
        .map(|(k, v)| format!("__w.key(\"{k}\"); {WRITE}({v}, __w);\n"))
        .collect();
    format!("__w.begin_object();\n{keys}__w.end_object();")
}

fn gen_serialize(item: &Item, wire: bool) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "__w.null();".to_string(),
                Fields::Tuple(fields) if fields.len() == 1 => format!("{WRITE}(&self.0, __w);"),
                Fields::Tuple(fields) => {
                    write_array(fields.iter().map(|f| format!("&self.{}", f.name)))
                }
                Fields::Named(fields) => write_object(
                    fields
                        .iter()
                        .map(|f| (f.name.as_str(), format!("&self.{}", f.name))),
                ),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let (pattern, payload) = match &v.fields {
                        Fields::Unit => {
                            return format!("{name}::{vname} => __w.str(\"{vname}\"),\n");
                        }
                        Fields::Tuple(fields) if fields.len() == 1 => {
                            ("(__f0)".to_string(), format!("{WRITE}(__f0, __w);"))
                        }
                        Fields::Tuple(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| format!("__f{}", f.name)).collect();
                            (
                                format!("({})", binds.join(", ")),
                                write_array(binds.into_iter()),
                            )
                        }
                        Fields::Named(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            (
                                format!(" {{ {} }}", binds.join(", ")),
                                write_object(binds.iter().map(|b| (*b, b.to_string()))),
                            )
                        }
                    };
                    format!(
                        "{name}::{vname}{pattern} => {{\n\
                             __w.begin_object();\n\
                             __w.key(\"{vname}\");\n\
                             {payload}\n\
                             __w.end_object();\n\
                         }}\n"
                    )
                })
                .collect();
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    let message = if wire {
        "fn write_message(&self, __out: &mut ::std::vec::Vec<u8>) \
             -> ::core::result::Result<(), ::serde::DeError> {\n\
             let mut __w = ::cia_wire::Writer::from_vec(::core::mem::take(__out));\n\
             ::cia_wire::Wire::encode(self, &mut __w);\n\
             *__out = __w.into_vec();\n\
             ::core::result::Result::Ok(())\n\
         }"
    } else {
        ""
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __w: &mut ::serde::JsonWriter) {{\n\
                 {body}\n\
             }}\n\
             {message}\n\
         }}"
    )
}

/// An expression reading a JSON array of exactly `n` elements into the
/// tuple constructor `ctor`.
fn read_tuple(ctor: &str, n: usize) -> String {
    let short_or_long = format!(
        "return ::core::result::Result::Err(::serde::DeError::new(\
             \"expected {n}-element array for {ctor}\"))"
    );
    let elements: String = (0..n)
        .map(|_| format!("{{ if !__r.next_element()? {{ {short_or_long} }} {READ} }},\n"))
        .collect();
    format!(
        "{{\n\
             __r.begin_array()?;\n\
             let __value = {ctor}(\n{elements});\n\
             if __r.next_element()? {{ {short_or_long} }}\n\
             __value\n\
         }}"
    )
}

/// An expression reading a JSON object into the named-field constructor
/// `ctor`: unknown keys are skipped, the first of duplicate keys wins, and
/// a missing field is an error unless it is `#[serde(default)]`.
fn read_named(ctor: &str, fields: &[Field]) -> String {
    let slots: String = (0..fields.len())
        .map(|i| format!("let mut __v{i} = ::core::option::Option::None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "\"{}\" if __v{i}.is_none() => __v{i} = ::core::option::Option::Some({READ}),\n",
                f.name
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let missing = if f.has_default {
                "::core::default::Default::default()".to_string()
            } else {
                format!(
                    "return ::core::result::Result::Err(::serde::DeError::new(\
                         \"missing field `{}` in {ctor}\"))",
                    f.name
                )
            };
            format!(
                "{}: match __v{i} {{\n\
                     ::core::option::Option::Some(__v) => __v,\n\
                     ::core::option::Option::None => {missing},\n\
                 }},\n",
                f.name
            )
        })
        .collect();
    format!(
        "{{\n\
             {slots}\
             __r.begin_object()?;\n\
             while let ::core::option::Option::Some(__key) = __r.next_key()? {{\n\
                 match &*__key {{\n\
                     {arms}\
                     _ => __r.skip_value()?,\n\
                 }}\n\
             }}\n\
             {ctor} {{\n{inits}}}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item, wire: bool) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let value = match fields {
                // A unit struct carries nothing: any value reads as it.
                Fields::Unit => format!("{{ __r.skip_value()?; {name} }}"),
                Fields::Tuple(fields) if fields.len() == 1 => format!("{name}({READ})"),
                Fields::Tuple(fields) => read_tuple(name, fields.len()),
                Fields::Named(fields) => read_named(name, fields),
            };
            (name, format!("::core::result::Result::Ok({value})"))
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let ctor = format!("{name}::{vname}");
                    let (payload, value) = match &v.fields {
                        Fields::Unit => (false, ctor),
                        Fields::Tuple(fields) if fields.len() == 1 => {
                            (true, format!("{ctor}({READ})"))
                        }
                        Fields::Tuple(fields) => (true, read_tuple(&ctor, fields.len())),
                        Fields::Named(fields) => (true, read_named(&ctor, fields)),
                    };
                    format!("(\"{vname}\", {payload}) => {value},\n")
                })
                .collect();
            let body = format!(
                "let (__tag, __payload) = __r.variant(\"{name}\")?;\n\
                 let __value = match (&*__tag, __payload) {{\n\
                     {arms}\
                     (__other, _) => return ::core::result::Result::Err(::serde::DeError::new(\
                         ::std::format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                 }};\n\
                 if __payload {{\n\
                     __r.end_variant(\"{name}\")?;\n\
                 }}\n\
                 ::core::result::Result::Ok(__value)"
            );
            (name, body)
        }
    };
    let message = if wire {
        format!(
            "fn read_message(__bytes: &[u8]) -> ::core::result::Result<Self, ::serde::DeError> {{\n\
                 <Self as ::cia_wire::Wire>::from_wire(__bytes)\n\
                     .map_err(|__e| ::serde::DeError::new(::std::format!(\"{name}: {{__e}}\")))\n\
             }}"
        )
    } else {
        String::new()
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn read_json(__r: &mut ::serde::JsonReader<'_>) \
                 -> ::core::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
             {message}\n\
         }}"
    )
}

/// Derives the shim's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (item, attrs) = parse_item(input);
    let wire = has_serde_arg(&attrs, "wire");
    gen_serialize(&item, wire)
        .parse()
        .expect("serde shim derive: generated Serialize impl must parse")
}

/// Derives the shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (item, attrs) = parse_item(input);
    let wire = has_serde_arg(&attrs, "wire");
    gen_deserialize(&item, wire)
        .parse()
        .expect("serde shim derive: generated Deserialize impl must parse")
}
