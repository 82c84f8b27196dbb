//! `#[derive(Wire)]` over every shape it accepts: a named, a tuple and a
//! unit struct, and an enum with unit, tuple and named variants, whose
//! fields cover every primitive impl, `Vec<u8>`, containers and nested
//! derived types.

use cia_wire::{Wire, WireError, Writer};

#[derive(Debug, Clone, PartialEq, Wire)]
struct Named {
    byte: u8,
    small: u32,
    large: u64,
    count: usize,
    flag: bool,
    text: String,
    raw: Vec<u8>,
    list: Vec<Tuple>,
    maybe: Option<Unit>,
    pair: (String, u64),
    shape: Shape,
}

#[derive(Debug, Clone, PartialEq, Wire)]
struct Tuple(u32, Vec<u8>);

#[derive(Debug, Clone, PartialEq, Wire)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Wire)]
enum Shape {
    Empty,
    Pair(u64, Vec<u8>),
    Record { name: String, inner: Option<Tuple> },
}

fn named(shape: Shape) -> Named {
    Named {
        byte: 0xA5,
        small: 300,
        large: u64::MAX,
        count: 7,
        flag: true,
        text: "agent-0001".to_string(),
        raw: vec![1, 2, 3, 0xFF],
        list: vec![Tuple(0, Vec::new()), Tuple(u32::MAX, vec![9; 130])],
        maybe: Some(Unit),
        pair: ("sha256".to_string(), 128),
        shape,
    }
}

fn values() -> Vec<Named> {
    vec![
        named(Shape::Empty),
        named(Shape::Pair(1 << 40, b"nonce".to_vec())),
        named(Shape::Record {
            name: "outer".to_string(),
            inner: Some(Tuple(1, vec![2; 3])),
        }),
        Named {
            maybe: None,
            list: Vec::new(),
            ..named(Shape::Record {
                name: String::new(),
                inner: None,
            })
        },
    ]
}

#[test]
fn every_shape_round_trips_and_every_proper_prefix_errors() {
    for value in values() {
        let bytes = value.to_wire();
        assert_eq!(Named::from_wire(&bytes).unwrap(), value);
        for cut in 0..bytes.len() {
            assert!(Named::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            Named::from_wire(&long),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }
    assert!(Unit.to_wire().is_empty());
    assert_eq!(Unit::from_wire(&[]), Ok(Unit));
}

#[test]
fn fields_encode_in_declaration_order_and_variants_by_index() {
    let tuple = Tuple(5, vec![7, 8]);
    let mut w = Writer::new();
    5u32.encode(&mut w);
    w.put_bytes(&[7, 8]);
    assert_eq!(tuple.to_wire(), w.into_vec());

    let shapes = [
        Shape::Empty,
        Shape::Pair(2, vec![1]),
        Shape::Record {
            name: "n".to_string(),
            inner: None,
        },
    ];
    for (tag, shape) in shapes.iter().enumerate() {
        assert_eq!(usize::from(shape.to_wire()[0]), tag);
    }
    let mut w = Writer::new();
    w.put_u8(2);
    w.put_str("n");
    w.put_u8(0);
    assert_eq!(shapes[2].to_wire(), w.into_vec());
}

#[test]
fn an_unknown_tag_names_the_type_in_words() {
    assert_eq!(
        Shape::from_wire(&[3]),
        Err(WireError::BadTag {
            what: "shape",
            tag: 3
        })
    );
    #[derive(Debug, PartialEq, Wire)]
    enum AgentRequestKind {
        Identity,
    }
    assert_eq!(
        AgentRequestKind::from_wire(&[0xFF]),
        Err(WireError::BadTag {
            what: "agent request kind",
            tag: 0xFF
        })
    );
    assert_eq!(
        AgentRequestKind::from_wire(&[0]),
        Ok(AgentRequestKind::Identity)
    );
}

#[test]
fn a_byte_field_encodes_as_put_bytes() {
    let raw: Vec<u8> = (0..=255).collect();
    let mut w = Writer::new();
    w.put_bytes(&raw);
    let expected = w.into_vec();
    // The same bytes `Vec<u8>`'s element-wise impl writes.
    assert_eq!(raw.to_wire(), expected);
    assert_eq!(Tuple(0, raw.clone()).to_wire()[1..], expected[..]);
    assert_eq!(
        Shape::Pair(0, raw.clone()).to_wire()[2..],
        expected[..],
        "tag, the u64, then the bytes"
    );
}
