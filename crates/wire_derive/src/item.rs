//! The derive input parser the workspace's two derive crates share:
//! this crate and `shims/serde_derive`, which compiles this file as its
//! own module. `syn` is unavailable offline, so it walks the item's
//! `TokenStream` directly, and supports exactly the shapes the
//! workspace derives for: plain (non-generic) structs with named,
//! tuple or no fields, and enums with unit, tuple and struct variants.
//! It yields names, field types as spelled, and variant shapes.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One field: its name (its index for a tuple field), its type as
/// spelled with the whitespace removed (`Vec<u8>`), and whether
/// `#[serde(default)]` was present.
#[derive(Debug)]
pub(crate) struct Field {
    pub(crate) name: String,
    #[allow(dead_code, reason = "derive(Wire) reads it; the serde shim does not")]
    pub(crate) ty: String,
    #[allow(dead_code, reason = "the serde shim reads it; derive(Wire) does not")]
    pub(crate) has_default: bool,
}

#[derive(Debug)]
pub(crate) enum Fields {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

#[derive(Debug)]
pub(crate) struct Variant {
    pub(crate) name: String,
    pub(crate) fields: Fields,
}

#[derive(Debug)]
pub(crate) enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Parses the derive input: the item, and its container attributes
/// (each a `#` and its `[...]` group).
pub(crate) fn parse_item(input: TokenStream) -> (Item, Vec<TokenTree>) {
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
        other => panic!("derive: expected struct/enum, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("derive: generic types are not supported (deriving {name})");
        }
    }
    let item = match keyword.as_str() {
        "struct" => {
            let fields = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("derive: unexpected struct body {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("derive: unexpected enum body {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("derive: cannot derive for `{other}`"),
    };
    (item, attrs)
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
pub(crate) fn has_serde_arg(chunk: &[TokenTree], arg: &str) -> bool {
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

/// A type's tokens as one string without whitespace.
fn spell(tokens: &[TokenTree]) -> String {
    tokens.iter().map(ToString::to_string).collect()
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    split_top_level(stream)
        .iter()
        .map(|chunk| {
            let has_default = has_serde_arg(chunk, "default");
            match strip_attrs_and_vis(chunk) {
                [TokenTree::Ident(id), TokenTree::Punct(colon), ty @ ..]
                    if colon.as_char() == ':' =>
                {
                    Field {
                        name: id.to_string(),
                        ty: spell(ty),
                        has_default,
                    }
                }
                other => panic!("derive: expected `name: Type`, got {other:?}"),
            }
        })
        .collect()
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    split_top_level(stream)
        .iter()
        .enumerate()
        .map(|(i, chunk)| Field {
            name: i.to_string(),
            ty: spell(strip_attrs_and_vis(chunk)),
            has_default: false,
        })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .iter()
        .map(|chunk| {
            let chunk = strip_attrs_and_vis(chunk);
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("derive: expected variant name, got {other:?}"),
            };
            let fields = match chunk.get(1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_fields(g.stream()))
                }
                _ => Fields::Unit,
            };
            Variant { name, fields }
        })
        .collect()
}
