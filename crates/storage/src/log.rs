//! The append-only log store: CRC-framed segments plus an in-memory
//! keydir.
//!
//! A [`LogStore`] is a bitcask-shaped key-value store layered over
//! [`cia_vfs::Vfs`] so every byte it writes is deterministic,
//! snapshottable (the `Vfs` clones), and fault-injectable (tests
//! truncate or corrupt the underlying files to model crashes and bit
//! rot). Writes append one frame to the active segment; reads go
//! through the keydir — a map from key to the frame's segment, offset
//! and length — so a lookup costs one slice into the segment's bytes.
//!
//! # Recovery
//!
//! [`LogStore::open`] replays every segment in file order, rebuilding
//! the keydir with last-write-wins semantics. The first frame that
//! fails to decode — torn header, torn body, or CRC mismatch — ends
//! the replay: the damaged segment is truncated back to the last good
//! frame boundary and any later segments are dropped entirely, because
//! a torn prefix makes everything after it unordered garbage. Recovery
//! therefore never panics on a damaged log; it recovers the longest
//! intact prefix, which is exactly what a crashed writer guarantees is
//! durable.
//!
//! # Compaction
//!
//! [`LogStore::compact`] rewrites the live frames (the keydir's current
//! view, superseded versions and tombstoned keys dropped) into a fresh
//! segment and deletes the old ones. Logical timestamps are preserved,
//! so a store recovered from a compacted log is indistinguishable from
//! one recovered from the original — the compaction-equivalence
//! property the test suite pins.

use std::collections::BTreeMap;
use std::ops::Bound;

use cia_vfs::{Mode, Vfs, VfsError, VfsPath};

use crate::record::{self, Frame, HEADER_SIZE};

/// Storage-layer failures. Frame-level damage is *not* an error — the
/// reader truncates past it — so this only carries filesystem faults
/// and caller mistakes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying virtual filesystem refused an operation.
    Vfs(VfsError),
    /// A value failed to decode at a layer above the frame codec.
    Codec {
        /// What failed to decode.
        what: String,
        /// Decoder diagnostics.
        reason: String,
    },
}

impl From<VfsError> for StorageError {
    fn from(e: VfsError) -> Self {
        StorageError::Vfs(e)
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Vfs(e) => write!(f, "storage vfs error: {e}"),
            StorageError::Codec { what, reason } => {
                write!(f, "storage codec error decoding {what}: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Keydir entry: where a key's live value sits (fakir-kv's `Header`,
/// with the offset widened for large segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The segment file holding the frame.
    pub file_id: u64,
    /// Byte offset of the value inside the segment.
    pub val_offset: u64,
    /// Value length in bytes.
    pub val_size: u32,
    /// The frame's logical timestamp.
    pub ts: u64,
}

/// The in-memory index: key → live frame location. A `BTreeMap` so
/// iteration (compaction, prefix scans) is deterministic.
pub type KeyDir = BTreeMap<Vec<u8>, Header>;

/// An owned key/value pair, as returned by [`LogStore::scan_prefix`].
pub type KeyValue = (Vec<u8>, Vec<u8>);

/// What [`LogStore::open`] found while replaying.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames replayed into the keydir (including superseded ones).
    pub frames_replayed: u64,
    /// Bytes truncated off the first damaged segment, if any.
    pub bytes_truncated: u64,
    /// Whole segments dropped after the damaged one.
    pub segments_dropped: u64,
    /// Human-readable reason the replay stopped early, if it did.
    pub torn: Option<String>,
}

/// The append-only log store. See the module docs.
#[derive(Debug, Clone)]
pub struct LogStore {
    vfs: Vfs,
    dir: VfsPath,
    keydir: KeyDir,
    /// Active segment's file id (`segment-<id>.log`).
    active: u64,
    /// The active segment's path, joined once per segment switch rather
    /// than once per append.
    active_path: VfsPath,
    /// Next logical timestamp (monotonic, never wall clock).
    next_ts: u64,
    /// Frames currently on disk across all segments, in write order.
    frames: u64,
    /// Live bytes of the active segment (its append cursor).
    active_len: u64,
    /// The frame an append encodes into, reused across appends.
    frame: Vec<u8>,
}

fn segment_name(id: u64) -> String {
    format!("segment-{id:06}.log")
}

impl LogStore {
    /// Creates or reopens the store at `dir`, replaying any existing
    /// segments (see the module docs for the damage policy).
    ///
    /// # Errors
    ///
    /// [`StorageError::Vfs`] when the directory cannot be created or a
    /// segment cannot be read back.
    pub fn open(vfs: Vfs, dir: &VfsPath) -> Result<(Self, RecoveryReport), StorageError> {
        let mut store = LogStore {
            vfs,
            dir: dir.clone(),
            keydir: KeyDir::new(),
            active: 0,
            active_path: dir.join(&segment_name(0))?,
            next_ts: 0,
            frames: 0,
            active_len: 0,
            frame: Vec::new(),
        };
        store.vfs.mkdir_p(dir)?;
        let report = store.replay()?;
        Ok((store, report))
    }

    /// The segment file ids currently present, in replay order.
    fn segment_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .vfs
            .walk_files(&self.dir)
            .filter_map(|p| p.file_name())
            .filter_map(|name| {
                name.strip_prefix("segment-")?
                    .strip_suffix(".log")?
                    .parse()
                    .ok()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    fn segment_path(&self, id: u64) -> Result<VfsPath, StorageError> {
        Ok(self.dir.join(&segment_name(id))?)
    }

    /// Makes segment `id`, `len` bytes long, the one appends go to.
    fn set_active(&mut self, id: u64, len: u64) -> Result<(), StorageError> {
        self.active_path = self.segment_path(id)?;
        self.active = id;
        self.active_len = len;
        Ok(())
    }

    fn replay(&mut self) -> Result<RecoveryReport, StorageError> {
        let mut report = RecoveryReport::default();
        let ids = self.segment_ids();
        let mut torn_at: Option<(usize, u64, usize)> = None; // (ids idx, file, keep)
        'segments: for (idx, &file_id) in ids.iter().enumerate() {
            let path = self.segment_path(file_id)?;
            let bytes = self.vfs.read(&path)?.to_vec();
            let mut offset = 0usize;
            while offset < bytes.len() {
                match record::decode(&bytes, offset) {
                    Ok(frame) => {
                        self.apply_frame(file_id, offset, &frame);
                        self.next_ts = self.next_ts.max(frame.ts + 1);
                        self.frames += 1;
                        report.frames_replayed += 1;
                        offset += frame.len;
                    }
                    Err(e) => {
                        report.torn = Some(format!("segment {file_id} at {offset}: {e}"));
                        torn_at = Some((idx, file_id, offset));
                        break 'segments;
                    }
                }
            }
            self.set_active(file_id, bytes.len() as u64)?;
        }

        if let Some((idx, file_id, keep)) = torn_at {
            let path = self.segment_path(file_id)?;
            let full = self.vfs.read(&path)?.len();
            report.bytes_truncated = (full - keep) as u64;
            self.vfs.truncate_file(&path, keep)?;
            self.set_active(file_id, keep as u64)?;
            for &later in &ids[idx + 1..] {
                let path = self.segment_path(later)?;
                self.vfs.remove_file(&path)?;
                // Forget any keydir entries replay put there: none exist,
                // because replay stops at the first damage. The frames in
                // dropped segments were never applied.
                report.segments_dropped += 1;
            }
        } else if ids.is_empty() {
            // Fresh store: start segment 0 empty so the active segment
            // always exists.
            self.set_active(0, 0)?;
            if !self.vfs.exists(&self.active_path) {
                self.vfs
                    .create_file(&self.active_path, Vec::new(), Mode::REGULAR)?;
            }
        }
        Ok(report)
    }

    fn apply_frame(&mut self, file_id: u64, offset: usize, frame: &Frame<'_>) {
        if frame.tombstone {
            self.keydir.remove(frame.key);
        } else {
            self.keydir.insert(
                frame.key.to_vec(),
                Header {
                    file_id,
                    val_offset: (offset + HEADER_SIZE + frame.key.len()) as u64,
                    val_size: frame.val.len() as u32,
                    ts: frame.ts,
                },
            );
        }
    }

    /// Appends one frame and indexes it. Returns the logical timestamp
    /// the write was stamped with.
    ///
    /// # Errors
    ///
    /// [`StorageError::Vfs`] when the append fails.
    pub fn put(&mut self, key: &[u8], val: &[u8]) -> Result<u64, StorageError> {
        self.append(key, Some(val))
    }

    /// Appends a tombstone for `key`; the key reads as absent from now
    /// on and compaction drops its history.
    ///
    /// # Errors
    ///
    /// [`StorageError::Vfs`] when the append fails.
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, StorageError> {
        self.append(key, None)
    }

    fn append(&mut self, key: &[u8], val: Option<&[u8]>) -> Result<u64, StorageError> {
        let ts = self.next_ts;
        self.next_ts += 1;
        self.frame.clear();
        record::encode_into(&mut self.frame, ts, key, val);
        let offset = self.active_len as usize;
        self.vfs
            .append_file(&self.active_path, &self.frame, Mode::REGULAR)?;
        self.active_len += self.frame.len() as u64;
        self.frames += 1;
        match val {
            Some(v) => {
                let header = Header {
                    file_id: self.active,
                    val_offset: (offset + HEADER_SIZE + key.len()) as u64,
                    val_size: v.len() as u32,
                    ts,
                };
                // A rewritten key keeps its keydir entry: no key copy.
                match self.keydir.get_mut(key) {
                    Some(live) => *live = header,
                    None => {
                        self.keydir.insert(key.to_vec(), header);
                    }
                }
            }
            None => {
                self.keydir.remove(key);
            }
        }
        Ok(ts)
    }

    /// Reads the live value for `key`, if any.
    ///
    /// # Errors
    ///
    /// [`StorageError::Vfs`] when the indexed segment cannot be read —
    /// an index/disk divergence that recovery would repair.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StorageError> {
        match self.keydir.get(key) {
            Some(header) => Ok(Some(self.value(key, header)?.to_vec())),
            None => Ok(None),
        }
    }

    /// The value `header` indexes, borrowed from its segment.
    fn value(&self, key: &[u8], header: &Header) -> Result<&[u8], StorageError> {
        let bytes = if header.file_id == self.active {
            self.vfs.read(&self.active_path)?
        } else {
            self.vfs.read(&self.segment_path(header.file_id)?)?
        };
        let start = header.val_offset as usize;
        let end = start + header.val_size as usize;
        bytes.get(start..end).ok_or_else(|| StorageError::Codec {
            what: String::from_utf8_lossy(key).into_owned(),
            reason: format!(
                "keydir points {start}..{end} past segment end {}",
                bytes.len()
            ),
        })
    }

    /// The live keys with `prefix`, in sorted order, with their values.
    ///
    /// # Errors
    ///
    /// As [`LogStore::get`].
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<KeyValue>, StorageError> {
        self.keydir
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(key, _)| key.starts_with(prefix))
            .map(|(key, header)| Ok((key.clone(), self.value(key, header)?.to_vec())))
            .collect()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.keydir.len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.keydir.is_empty()
    }

    /// Total frames on disk (live + superseded + tombstones), i.e. the
    /// crash-boundary count for [`LogStore::crash_image`].
    pub fn frame_count(&self) -> u64 {
        self.frames
    }

    /// The logical timestamp the next write will carry.
    pub fn next_ts(&self) -> u64 {
        self.next_ts
    }

    /// The backing virtual filesystem (the "disk" image).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The store's directory.
    pub fn dir(&self) -> &VfsPath {
        &self.dir
    }

    /// Rewrites the live frames into a fresh segment (preserving each
    /// frame's logical timestamp, in key order) and deletes the old
    /// segments. Returns the number of frames dropped as garbage.
    ///
    /// # Errors
    ///
    /// [`StorageError::Vfs`] on any filesystem failure mid-rewrite; the
    /// new segment is written completely before old ones are removed,
    /// so a failed compaction leaves the store recoverable.
    pub fn compact(&mut self) -> Result<u64, StorageError> {
        let old_ids = self.segment_ids();
        let new_id = old_ids.last().map_or(0, |last| last + 1);
        let new_path = self.segment_path(new_id)?;

        let mut new_bytes = Vec::new();
        let mut new_keydir = KeyDir::new();
        for (key, header) in &self.keydir {
            let val = self.value(key, header)?;
            let offset = new_bytes.len();
            record::encode_into(&mut new_bytes, header.ts, key, Some(val));
            new_keydir.insert(
                key.clone(),
                Header {
                    file_id: new_id,
                    val_offset: (offset + HEADER_SIZE + key.len()) as u64,
                    val_size: val.len() as u32,
                    ts: header.ts,
                },
            );
        }

        let live = new_keydir.len() as u64;
        let dropped = self.frames - live;
        let new_len = new_bytes.len() as u64;
        self.vfs.write_file(&new_path, new_bytes, Mode::REGULAR)?;
        for old in old_ids {
            self.vfs.remove_file(&self.segment_path(old)?)?;
        }
        self.keydir = new_keydir;
        self.set_active(new_id, new_len)?;
        self.frames = live;
        Ok(dropped)
    }

    /// A crash image: a clone of the backing filesystem truncated to
    /// the first `keep_frames` frames (in write order), cut exactly at
    /// a frame boundary — the state a crashed writer leaves behind when
    /// the tail frames never reached the disk. `extra_bytes` additionally
    /// keeps that many bytes of the *next* frame, modelling a torn
    /// write that recovery must truncate away.
    pub fn crash_image(&self, keep_frames: u64, extra_bytes: usize) -> Vfs {
        let mut image = self.vfs.clone();
        let mut remaining = keep_frames;
        let mut cutting = false;
        for file_id in self.segment_ids() {
            let Ok(path) = self.dir.join(&segment_name(file_id)) else {
                continue;
            };
            if cutting {
                let _ = image.remove_file(&path);
                continue;
            }
            let Ok(bytes) = self.vfs.read(&path) else {
                continue;
            };
            let mut offset = 0usize;
            while offset < bytes.len() {
                let Ok(frame) = record::decode(bytes, offset) else {
                    break;
                };
                if remaining == 0 {
                    break;
                }
                remaining -= 1;
                offset += frame.len;
            }
            if remaining == 0 {
                let torn_tail = extra_bytes.min(bytes.len() - offset);
                let _ = image.truncate_file(&path, offset + torn_tail);
                cutting = true;
            }
        }
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> VfsPath {
        VfsPath::new("/var/lib/cia").unwrap()
    }

    fn fresh() -> LogStore {
        let (store, report) = LogStore::open(Vfs::with_standard_layout(), &dir()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        store
    }

    #[test]
    fn put_get_overwrite() {
        let mut store = fresh();
        store.put(b"a", b"1").unwrap();
        store.put(b"b", b"2").unwrap();
        store.put(b"a", b"3").unwrap();
        assert_eq!(store.get(b"a").unwrap().unwrap(), b"3");
        assert_eq!(store.get(b"b").unwrap().unwrap(), b"2");
        assert_eq!(store.get(b"ghost").unwrap(), None);
        assert_eq!(store.len(), 2);
        assert_eq!(store.frame_count(), 3, "superseded frames stay on disk");
    }

    #[test]
    fn delete_tombstones_and_reads_absent() {
        let mut store = fresh();
        store.put(b"a", b"1").unwrap();
        store.delete(b"a").unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        // Reopen: the tombstone replays, the key stays dead.
        let (reopened, _) = LogStore::open(store.vfs().clone(), &dir()).unwrap();
        assert_eq!(reopened.get(b"a").unwrap(), None);
        assert_eq!(reopened.len(), 0);
    }

    #[test]
    fn reopen_replays_last_write_wins() {
        let mut store = fresh();
        for i in 0..10u32 {
            store.put(b"key", format!("v{i}").as_bytes()).unwrap();
        }
        let (reopened, report) = LogStore::open(store.vfs().clone(), &dir()).unwrap();
        assert_eq!(report.frames_replayed, 10);
        assert_eq!(reopened.get(b"key").unwrap().unwrap(), b"v9");
        assert_eq!(reopened.next_ts(), store.next_ts(), "ts stream continues");
    }

    #[test]
    fn compaction_drops_garbage_preserves_view() {
        let mut store = fresh();
        for i in 0..20u32 {
            store
                .put(
                    format!("k{:02}", i % 5).as_bytes(),
                    format!("v{i}").as_bytes(),
                )
                .unwrap();
        }
        store.delete(b"k00").unwrap();
        let before: Vec<_> = store.scan_prefix(b"k").unwrap();
        let dropped = store.compact().unwrap();
        assert_eq!(dropped, 21 - 4);
        assert_eq!(store.scan_prefix(b"k").unwrap(), before);
        // And the compacted image recovers identically.
        let (reopened, report) = LogStore::open(store.vfs().clone(), &dir()).unwrap();
        assert_eq!(report.frames_replayed, 4);
        assert_eq!(reopened.scan_prefix(b"k").unwrap(), before);
    }

    #[test]
    fn writes_after_compaction_land_in_new_segment() {
        let mut store = fresh();
        store.put(b"a", b"1").unwrap();
        store.compact().unwrap();
        store.put(b"b", b"2").unwrap();
        assert_eq!(store.get(b"a").unwrap().unwrap(), b"1");
        assert_eq!(store.get(b"b").unwrap().unwrap(), b"2");
        let (reopened, _) = LogStore::open(store.vfs().clone(), &dir()).unwrap();
        assert_eq!(reopened.get(b"b").unwrap().unwrap(), b"2");
    }

    #[test]
    fn crash_image_cuts_at_frame_boundary() {
        let mut store = fresh();
        for i in 0..6u64 {
            store.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let image = store.crash_image(4, 0);
        let (recovered, report) = LogStore::open(image, &dir()).unwrap();
        assert_eq!(report.frames_replayed, 4);
        assert!(report.torn.is_none(), "clean cut needs no truncation");
        assert_eq!(recovered.len(), 4);
        assert_eq!(recovered.get(b"k3").unwrap().unwrap(), b"v");
        assert_eq!(recovered.get(b"k4").unwrap(), None);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let mut store = fresh();
        for i in 0..6u64 {
            store.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Keep 3 frames plus 7 bytes of the 4th: a torn write.
        let image = store.crash_image(3, 7);
        let (recovered, report) = LogStore::open(image, &dir()).unwrap();
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(report.bytes_truncated, 7);
        assert!(report.torn.is_some());
        assert_eq!(recovered.len(), 3);
        // The truncated store accepts new writes cleanly.
        let mut recovered = recovered;
        recovered.put(b"post", b"crash").unwrap();
        let (again, report) = LogStore::open(recovered.vfs().clone(), &dir()).unwrap();
        assert!(report.torn.is_none());
        assert_eq!(again.get(b"post").unwrap().unwrap(), b"crash");
    }
}
