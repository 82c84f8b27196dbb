//! Byte scans eight bytes at a time ("SIMD within a register").
//!
//! Each test maps a little-endian word to a mask with the high bit of
//! every matching byte set. Bytes past the first match may be misreported,
//! so a non-zero mask only says "some byte matched", which is all the
//! scans below rely on before they locate the byte one at a time.

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Flags the bytes of `w` below `n` (`n <= 128`).
pub(crate) fn less_than(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS
}

/// Flags the bytes of `w` equal to `b`.
pub(crate) fn equal(w: u64, b: u8) -> u64 {
    less_than(w ^ (ONES * u64::from(b)), 1)
}

/// The index of the first byte of `bytes` that `test` flags.
pub(crate) fn position(bytes: &[u8], test: impl Fn(u64) -> u64) -> Option<usize> {
    let mut chunks = bytes.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        if test(word) != 0 {
            break;
        }
        base += 8;
    }
    // The flagged word, or the tail: find the byte one at a time.
    bytes[base..]
        .iter()
        .position(|&b| test(u64::from(b)) & 0x80 != 0)
        .map(|i| base + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte value at every offset of a two-word-and-a-tail buffer
    /// is found exactly where a byte-at-a-time scan finds it.
    /// A word test and the byte predicate it must agree with.
    type Case = (fn(u64) -> u64, fn(u8) -> bool);

    #[test]
    fn scans_agree_with_a_byte_at_a_time_scan() {
        let tests: [Case; 3] = [
            (|w| less_than(w, 0x20), |b| b < 0x20),
            (|w| equal(w, b'"'), |b| b == b'"'),
            (|w| equal(w, 0), |b| b == 0),
        ];
        for (test, matches) in tests {
            for filler in [b'a', 0x7f, 0x80, 0xff] {
                for value in 0..=255u8 {
                    for at in 0..19 {
                        let mut buf = [filler; 19];
                        buf[at] = value;
                        let naive = buf.iter().position(|&b| matches(b));
                        assert_eq!(position(&buf, test), naive, "{value:#x} at {at}");
                    }
                }
            }
        }
    }
}
