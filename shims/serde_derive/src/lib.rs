//! Derive macros for the local serde shim.
//!
//! `syn`/`quote` are unavailable offline, so this parses the item's
//! `TokenStream` directly. It supports exactly the shapes this workspace
//! uses: plain (non-generic) structs with named fields, tuple structs,
//! and enums with unit / tuple / struct variants. `#[serde(default)]` on
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
//! The crate deriving it must depend on `cia-wire` and implement `Wire`
//! for the type; its JSON methods are generated as for any other type.
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

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field: its identifier and whether `#[serde(default)]` was
/// present.
#[derive(Debug)]
struct NamedField {
    name: String,
    has_default: bool,
}

#[derive(Debug)]
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<NamedField>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Parses the derive input: the item, and whether its container
/// attributes include `#[serde(wire)]`.
fn parse_item(input: TokenStream) -> (Item, bool) {
    let mut tokens = input.into_iter().peekable();
    let mut attrs = Vec::new();
    // Skip attributes and visibility.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                attrs.extend(tokens.next());
                attrs.extend(tokens.next()); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (deriving {name})");
        }
    }
    let wire = has_serde_arg(&attrs, "wire");
    let item = match keyword.as_str() {
        "struct" => {
            let fields = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde shim derive: unexpected struct body {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: unexpected enum body {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde shim derive: cannot derive for `{other}`"),
    };
    (item, wire)
}

/// Splits a token sequence on top-level commas, tracking `<`/`>` depth so
/// generic arguments do not split (delimited groups are already atomic).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for tree in stream {
        match &tree {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                chunks.push(Vec::new());
                continue;
            }
            _ => {}
        }
        chunks.last_mut().unwrap().push(tree);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Strips leading attributes and visibility from a field/variant chunk.
fn strip_attrs_and_vis(chunk: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    while i < chunk.len() {
        match &chunk[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = chunk.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    &chunk[i..]
}

/// True when the chunk's leading attributes contain `#[serde(arg)]`
/// (alone or among other serde arguments).
fn has_serde_arg(chunk: &[TokenTree], arg: &str) -> bool {
    let mut i = 0;
    while i + 1 < chunk.len() {
        let (TokenTree::Punct(p), TokenTree::Group(attr)) = (&chunk[i], &chunk[i + 1]) else {
            break;
        };
        if p.as_char() != '#' {
            break;
        }
        let mut inner = attr.stream().into_iter();
        if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
            (inner.next(), inner.next())
        {
            if id.to_string() == "serde"
                && args
                    .stream()
                    .into_iter()
                    .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == arg))
            {
                return true;
            }
        }
        i += 2;
    }
    false
}

fn parse_named_fields(stream: TokenStream) -> Vec<NamedField> {
    split_top_level(stream)
        .iter()
        .map(|chunk| {
            let has_default = has_serde_arg(chunk, "default");
            let chunk = strip_attrs_and_vis(chunk);
            match chunk.first() {
                Some(TokenTree::Ident(id)) => NamedField {
                    name: id.to_string(),
                    has_default,
                },
                other => panic!("serde shim derive: expected field name, got {other:?}"),
            }
        })
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .iter()
        .map(|chunk| {
            let chunk = strip_attrs_and_vis(chunk);
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("serde shim derive: expected variant name, got {other:?}"),
            };
            let fields = match chunk.get(1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                _ => Fields::Unit,
            };
            Variant { name, fields }
        })
        .collect()
}

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
                Fields::Tuple(1) => format!("{WRITE}(&self.0, __w);"),
                Fields::Tuple(n) => write_array((0..*n).map(|i| format!("&self.{i}"))),
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
                        Fields::Tuple(1) => ("(__f0)".to_string(), format!("{WRITE}(__f0, __w);")),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
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
fn read_named(ctor: &str, fields: &[NamedField]) -> String {
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
                Fields::Tuple(1) => format!("{name}({READ})"),
                Fields::Tuple(n) => read_tuple(name, *n),
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
                        Fields::Tuple(1) => (true, format!("{ctor}({READ})")),
                        Fields::Tuple(n) => (true, read_tuple(&ctor, *n)),
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
    let (item, wire) = parse_item(input);
    gen_serialize(&item, wire)
        .parse()
        .expect("serde shim derive: generated Serialize impl must parse")
}

/// Derives the shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (item, wire) = parse_item(input);
    gen_deserialize(&item, wire)
        .parse()
        .expect("serde shim derive: generated Deserialize impl must parse")
}
