//! `#[derive(Wire)]`: the `cia_wire::Wire` impl of a plain struct or
//! enum, built from its declaration so `encode` and `decode` cannot fall
//! out of step. Re-exported as `cia_wire::Wire`, beside the trait.
//!
//! The rules take no attributes and no options:
//!
//! - A struct (named, tuple or unit) encodes its fields in declaration
//!   order through `Wire::encode`, and decodes by building the struct
//!   literal with `Wire::decode` per field, so type inference supplies
//!   each field's type.
//! - An enum writes a `u8` tag equal to the variant's declaration index,
//!   then the variant's fields as a struct's. An unknown tag is
//!   `WireError::BadTag` whose `what` is the type name in lower-case
//!   words (`AgentRequest` → `"agent request"`).
//! - A field spelled `Vec<u8>` goes through `Writer::put_bytes` and one
//!   copy out of `Reader::bytes`: the same bytes as `Vec<T>`'s impl,
//!   without a call per byte.
//! - No `MIN_WIRE_LEN` is declared: a derived type keeps the trait's
//!   default.
//!
//! Types whose decode must validate or rebuild private state write their
//! impl by hand.

mod item;

use item::{parse_item, Field, Fields, Item};
use proc_macro::TokenStream;

const ENCODE: &str = "::cia_wire::Wire::encode";

/// Statements appending the field `value`, an expression of reference
/// type.
fn encode_field(field: &Field, value: &str) -> String {
    if field.ty == "Vec<u8>" {
        format!("__w.put_bytes({value});\n")
    } else {
        format!("{ENCODE}({value}, __w);\n")
    }
}

/// An expression decoding `field` from `__r`.
fn decode_field(field: &Field) -> &'static str {
    if field.ty == "Vec<u8>" {
        "__r.bytes()?.to_vec()"
    } else {
        "::cia_wire::Wire::decode(__r)?"
    }
}

/// The constructor `ctor` applied to every field decoded in order.
fn decode_fields(ctor: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => ctor.to_string(),
        Fields::Tuple(fields) => {
            let values: Vec<&str> = fields.iter().map(decode_field).collect();
            format!("{ctor}({})", values.join(", "))
        }
        Fields::Named(fields) => {
            let values: String = fields
                .iter()
                .map(|f| format!("{}: {},\n", f.name, decode_field(f)))
                .collect();
            format!("{ctor} {{\n{values}}}")
        }
    }
}

/// A variant's pattern binding each field, and the statements encoding
/// them.
fn encode_variant(fields: &Fields) -> (String, String) {
    match fields {
        Fields::Unit => (String::new(), String::new()),
        Fields::Tuple(fields) => {
            let binds: Vec<String> = fields.iter().map(|f| format!("__f{}", f.name)).collect();
            let body = fields
                .iter()
                .zip(&binds)
                .map(|(f, b)| encode_field(f, b))
                .collect();
            (format!("({})", binds.join(", ")), body)
        }
        Fields::Named(fields) => {
            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            let body = fields.iter().map(|f| encode_field(f, &f.name)).collect();
            (format!(" {{ {} }}", binds.join(", ")), body)
        }
    }
}

/// `AgentRequest` → `"agent request"`.
fn words(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_uppercase() && !out.is_empty() {
            out.push(' ');
        }
        out.extend(c.to_lowercase());
    }
    out
}

fn gen_wire(item: &Item) -> String {
    let (name, encode, decode) = match item {
        Item::Struct { name, fields } => {
            let encode: String = match fields {
                Fields::Unit => String::new(),
                Fields::Tuple(fields) | Fields::Named(fields) => fields
                    .iter()
                    .map(|f| encode_field(f, &format!("&self.{}", f.name)))
                    .collect(),
            };
            let decode = format!(
                "::core::result::Result::Ok({})",
                decode_fields(name, fields)
            );
            (name, encode, decode)
        }
        Item::Enum { name, variants } => {
            let mut encode_arms = String::new();
            let mut decode_arms = String::new();
            for (tag, v) in variants.iter().enumerate() {
                let ctor = format!("{name}::{}", v.name);
                let (pattern, fields) = encode_variant(&v.fields);
                encode_arms += &format!("{ctor}{pattern} => {{\n__w.put_u8({tag});\n{fields}}}\n");
                decode_arms += &format!("{tag} => {},\n", decode_fields(&ctor, &v.fields));
            }
            let what = words(name);
            let encode = format!("match self {{\n{encode_arms}}}");
            let decode = format!(
                "::core::result::Result::Ok(match __r.u8()? {{\n\
                     {decode_arms}\
                     __tag => return ::core::result::Result::Err(::cia_wire::WireError::BadTag {{\n\
                         what: \"{what}\",\n\
                         tag: ::core::primitive::u64::from(__tag),\n\
                     }}),\n\
                 }})"
            );
            (name, encode, decode)
        }
    };
    format!(
        "impl ::cia_wire::Wire for {name} {{\n\
             fn encode(&self, __w: &mut ::cia_wire::Writer) {{\n\
                 {encode}\
             }}\n\
             fn decode(__r: &mut ::cia_wire::Reader<'_>) \
                 -> ::core::result::Result<Self, ::cia_wire::WireError> {{\n\
                 {decode}\n\
             }}\n\
         }}"
    )
}

/// Derives `cia_wire::Wire` for a plain struct or enum; see the crate
/// docs for the layout.
#[proc_macro_derive(Wire)]
pub fn derive_wire(input: TokenStream) -> TokenStream {
    let (item, _attrs) = parse_item(input);
    gen_wire(&item)
        .parse()
        .expect("derive(Wire): generated impl must parse")
}
