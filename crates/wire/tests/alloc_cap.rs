//! A length prefix cannot make `Vec<T>::decode` reserve more memory than
//! the input holds.
//!
//! `Reader::seq_len` bounds the claimed element count by the bytes left,
//! one byte per element. An element can be far larger in memory than on
//! the wire, so reserving the claimed count up front would still ask for
//! `size_of::<T>()` times the input's size in one allocation. The
//! counting allocator here records the largest single request the
//! calling thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cia_crypto::HashAlgorithm;
use cia_ima::log::ImaLogEntry;
use cia_wire::{Reader, Wire, WireError, Writer};

struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: a thread that is being torn down may still allocate.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is exactly the one `System` needs.
// Recording only updates a const-initialised thread-local `Cell` that has
// no destructor: it never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// The largest single allocation `f` makes on this thread.
fn largest_request<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// 144 bytes in memory, as an IMA log entry is; two bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wide([u64; 18]);

impl Wire for Wide {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&[self.0[0] as u8]);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.bytes()? {
            [byte] => Ok(Wide::of(*byte)),
            other => Err(WireError::BadLength {
                len: other.len(),
                remaining: 1,
            }),
        }
    }
}

#[test]
fn a_hostile_length_prefix_reserves_no_more_than_the_input_holds() {
    assert_eq!(std::mem::size_of::<Wide>(), 144);
    // 1,000,003 bytes that claim 1,000,000 elements, a count `seq_len`
    // lets through, and whose first element is already malformed: what
    // the decoder reserves before reading it is all it allocates.
    let mut w = Writer::new();
    w.put_varint(1_000_000);
    let mut input = w.into_vec();
    input.resize(1_000_003, 0xFF);
    let (decoded, largest) = largest_request(|| Vec::<Wide>::from_wire(&input));
    assert_eq!(decoded, Err(WireError::VarintOverflow));
    assert!(
        largest <= input.len(),
        "one request of {largest} bytes for a {}-byte input",
        input.len()
    );
}

#[test]
fn an_honest_vector_of_wide_elements_still_decodes_whole() {
    for n in [0usize, 1, 4, 10_000] {
        let value = vec![Wide::of(7); n];
        let bytes = value.to_wire();
        let (decoded, largest) = largest_request(|| Vec::<Wide>::from_wire(&bytes));
        assert_eq!(decoded.unwrap(), value, "{n} elements");
        // Growing past the up-front reservation doubles the buffer (from
        // at least four elements): the largest request is the last one.
        assert!(
            largest <= (2 * n).max(4) * 144,
            "{n} elements: {largest} bytes"
        );
    }
}

#[test]
fn a_lying_count_of_ima_log_entries_reserves_linearly_in_the_input() {
    // An entry declares its shortest encoding, so a list is reserved for
    // `remaining / MIN_WIRE_LEN` elements: a count that lies costs at most
    // `size_of / MIN_WIRE_LEN` times the input, never the count's worth.
    let entry = ImaLogEntry::new(HashAlgorithm::Sha256.digest(b"tool"), "/usr/bin/tool");
    let mut w = Writer::new();
    w.put_varint(1_000_000);
    entry.encode(&mut w);
    let mut input = w.into_vec();
    input.resize(100_000, 0xFF);
    let (decoded, largest) = largest_request(|| Vec::<ImaLogEntry>::from_wire(&input));
    assert!(decoded.is_err(), "a lying count does not decode");
    let per_byte = std::mem::size_of::<ImaLogEntry>() / ImaLogEntry::MIN_WIRE_LEN + 1;
    assert!(
        largest <= per_byte * input.len(),
        "one request of {largest} bytes for a {}-byte input",
        input.len()
    );
}

impl Wide {
    /// The value whose one travelling word is `byte`.
    fn of(byte: u8) -> Self {
        let mut words = [0u64; 18];
        words[0] = u64::from(byte);
        Wide(words)
    }
}
