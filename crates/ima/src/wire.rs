//! Binary wire codec impl for IMA measurement log entries.
//!
//! A log entry travels as `(pcr, filedata_hash, path)` — the private
//! template-hash memo slots are recomputed lazily on the far side by
//! [`ImaLogEntry::new_in_pcr`], which keeps the wire image minimal and
//! the rebuilt entry semantically identical.

use cia_crypto::Digest;
use cia_wire::{Reader, Wire, WireError, Writer};

use crate::log::ImaLogEntry;

/// By hand: its memo slots are rebuilt through
/// [`ImaLogEntry::new_in_pcr`].
impl Wire for ImaLogEntry {
    /// The PCR byte, the digest and an empty path's length byte: a
    /// decoded entry list is reserved for exactly (an entry is 144 bytes
    /// in memory, about 51 on the wire).
    const MIN_WIRE_LEN: usize = 1 + Digest::MIN_WIRE_LEN + 1;

    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.pcr);
        self.filedata_hash.encode(w);
        w.put_str(&self.path);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let pcr = r.u8()?;
        let filedata_hash = Digest::decode(r)?;
        let path = r.str()?;
        Ok(ImaLogEntry::new_in_pcr(pcr, filedata_hash, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_crypto::Sha256;

    #[test]
    fn entry_roundtrips() {
        let entry = ImaLogEntry::new(Sha256::digest(b"binary"), "/usr/bin/sshd");
        let back = ImaLogEntry::from_wire(&entry.to_wire()).unwrap();
        assert_eq!(back, entry);
        assert_eq!(
            back.template_hash(cia_crypto::HashAlgorithm::Sha256),
            entry.template_hash(cia_crypto::HashAlgorithm::Sha256)
        );
    }

    #[test]
    fn non_default_pcr_survives() {
        let entry = ImaLogEntry::new_in_pcr(12, Sha256::digest(b"x"), "/etc/shadow");
        assert_eq!(ImaLogEntry::from_wire(&entry.to_wire()).unwrap(), entry);
    }

    #[test]
    fn the_shortest_entry_is_the_declared_minimum() {
        let sha1 = cia_crypto::HashAlgorithm::Sha1.digest(b"z");
        let shortest = ImaLogEntry::new_in_pcr(0, sha1, "");
        assert_eq!(shortest.to_wire().len(), ImaLogEntry::MIN_WIRE_LEN);
    }

    #[test]
    fn a_decoded_entry_list_is_reserved_for_exactly() {
        let list: Vec<ImaLogEntry> = (0..4)
            .map(|i| ImaLogEntry::new(Sha256::digest(&[i]), format!("/usr/bin/tool-{i}")))
            .collect();
        let back = Vec::<ImaLogEntry>::from_wire(&list.to_wire()).unwrap();
        assert_eq!(back, list);
        assert_eq!(back.capacity(), 4, "no regrowth while decoding");
    }

    #[test]
    fn truncated_entries_error_cleanly() {
        let bytes = ImaLogEntry::new(Sha256::digest(b"y"), "/bin/true").to_wire();
        for cut in 0..bytes.len() {
            assert!(ImaLogEntry::from_wire(&bytes[..cut]).is_err());
        }
    }
}
