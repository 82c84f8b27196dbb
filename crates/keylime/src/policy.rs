//! Keylime runtime policies: the allowlist the verifier checks IMA
//! entries against.
//!
//! A policy maps file paths to sets of acceptable SHA-256 digests and
//! carries an *exclude list* of path prefixes the verifier skips. The
//! studied policy excluded `/tmp` and friends — **P1** — which is why the
//! exclude list is explicit and queryable here.
//!
//! Multiple digests per path are intentional: during an update window the
//! dynamic generator appends the new digest while *retaining* the old one
//! so that a machine mid-upgrade stays in policy (§III-C "Handling
//! Policy-File Consistency During Update"); after the update, outdated
//! digests are dropped ([`RuntimePolicy::dedup_retain`]).
//!
//! The `path → {digest}` map is the policy's only representation: range
//! chunks of a few hundred paths, shared by `Arc`. A clone copies only the
//! chunk index and a mutator copies only the chunk it edits, so a delta
//! costs O(delta), not O(policy), and an older epoch still pinned shares
//! every chunk the delta left alone. Inside a chunk the paths sit in one
//! string arena and each (path, digest) pair is a fixed-width row holding
//! the digest as raw bytes, or verbatim when it is not canonical hex.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound::{Included, Unbounded};
use std::ops::Range;
use std::sync::Arc;

use cia_crypto::{hex, Digest};
use cia_wire::Wire;
use serde::{DeError, Deserialize, JsonReader, JsonWriter, Serialize};

use crate::error::KeylimeError;

/// Most paths one chunk holds: an insert past it splits the chunk in two.
const CHUNK_PATHS: usize = 256;

/// Longest digest a row holds as raw bytes (SHA-256's).
const RAW_BYTES: usize = 32;

thread_local! {
    /// See [`RuntimePolicy::chunk_copy_count`].
    static CHUNK_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// A canonical digest: the bytes whose lowercase hex is the policy entry.
/// The bytes past `len` are zero, so equality over both fields is
/// equality of the digests.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Raw {
    len: u8,
    bytes: [u8; RAW_BYTES],
}

impl Raw {
    /// `bytes`, if they fit a row.
    fn new(bytes: &[u8]) -> Option<Raw> {
        let mut raw = Raw::default();
        raw.bytes.get_mut(..bytes.len())?.copy_from_slice(bytes);
        raw.len = bytes.len() as u8;
        Some(raw)
    }

    /// `hex` as bytes when it is canonical: non-empty lowercase hex of at
    /// most [`RAW_BYTES`] bytes, so `hex::encode` of its decoding is `hex`.
    fn parse(hex: &str) -> Option<Raw> {
        if !hex.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let mut raw = Raw::default();
        let len = hex::decode_to_slice(hex, &mut raw.bytes).ok()?;
        raw.len = len as u8;
        (len > 0).then_some(raw)
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// One policy digest: raw bytes when canonical, otherwise its text.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Held<'a> {
    Raw(Raw),
    Text(&'a str),
}

impl<'a> Held<'a> {
    fn new(text: &'a str) -> Self {
        Raw::parse(text).map_or(Held::Text(text), Held::Raw)
    }

    /// The digest as the document writes it, raw bytes rendered into `buf`.
    fn render<'b>(&self, buf: &'b mut [u8; 2 * RAW_BYTES]) -> &'b str
    where
        'a: 'b,
    {
        match self {
            Held::Raw(raw) => {
                let len = hex::encode_to_slice(raw.as_bytes(), buf);
                std::str::from_utf8(&buf[..len]).unwrap_or_default()
            }
            Held::Text(text) => text,
        }
    }

    fn to_text(self) -> String {
        self.render(&mut [0; 2 * RAW_BYTES]).to_owned()
    }

    /// Document order: lowercase hex keeps byte order, so two raw digests
    /// compare as bytes and only a mixed pair is rendered.
    fn cmp_rendered(&self, other: &Held<'_>) -> Ordering {
        match (self, other) {
            (Held::Raw(a), Held::Raw(b)) => a.as_bytes().cmp(b.as_bytes()),
            _ => (self.render(&mut [0; 2 * RAW_BYTES])).cmp(other.render(&mut [0; 2 * RAW_BYTES])),
        }
    }
}

/// A byte range of a chunk's arena.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// A row's digest.
#[derive(Clone, Copy)]
enum Stored {
    Raw(Raw),
    /// Anything not canonical (upper case, odd length, non-hex, empty,
    /// too long), verbatim in the arena: it never matches a measurement.
    Text(Span),
    /// No digest: the path's set is empty (a parsed `"/x": []`).
    Empty,
}

/// One (path, digest) pair. A chunk's rows sort by path, then by the
/// digest's rendering, and the rows of one path share its arena span.
#[derive(Clone, Copy)]
struct Row {
    path: Span,
    /// The path's 8 bytes past its chunk's `skip` ([`key_at`]): most steps
    /// of a search compare only these, without reading the arena.
    key: [u8; 8],
    digest: Stored,
}

/// The 8 bytes of `path` after its first `skip`, zero padded. Between
/// paths that share their first `skip` bytes, a smaller key (as a
/// big-endian number) means a smaller path; only equal keys need the
/// paths compared.
fn key_at(path: &[u8], skip: usize) -> [u8; 8] {
    let tail = path.get(skip..).unwrap_or_default();
    let mut key = [0; 8];
    let n = tail.len().min(key.len());
    key[..n].copy_from_slice(&tail[..n]);
    key
}

/// `rows` cut into runs of one path each.
fn by_path(rows: &[Row]) -> impl Iterator<Item = &[Row]> {
    rows.chunk_by(|a, b| a.path == b.path)
}

/// One path range of a policy's digest map, shared by every policy that has
/// not edited it; the first edit copies it ([`Arc::make_mut`]), counted.
#[derive(Default)]
struct Chunk {
    /// Every path once, and every verbatim digest.
    arena: String,
    rows: Vec<Row>,
    /// Distinct paths.
    paths: usize,
    /// How many leading bytes every path here shares.
    skip: usize,
    /// Arena bytes no row refers to; past half the arena, the chunk is laid
    /// out again.
    dead: usize,
}

impl Clone for Chunk {
    fn clone(&self) -> Self {
        CHUNK_COPIES.with(|n| n.set(n.get() + 1));
        Chunk {
            arena: self.arena.clone(),
            rows: self.rows.clone(),
            paths: self.paths,
            skip: self.skip,
            dead: self.dead,
        }
    }
}

impl Chunk {
    fn text(&self, span: Span) -> &str {
        &self.arena[span.range()]
    }

    fn held(&self, row: &Row) -> Option<Held<'_>> {
        match row.digest {
            Stored::Raw(raw) => Some(Held::Raw(raw)),
            Stored::Text(span) => Some(Held::Text(self.text(span))),
            Stored::Empty => None,
        }
    }

    fn last_path(&self) -> &str {
        self.rows.last().map_or("", |row| self.text(row.path))
    }

    /// The rows of `path`: a binary search over the paths, by key when
    /// `path` has the prefix every path here shares.
    fn find(&self, path: &str) -> Range<usize> {
        let path = path.as_bytes();
        let bytes = |row: &Row| &self.arena.as_bytes()[row.path.range()];
        let start = match self.rows.first() {
            Some(first) if path.get(..self.skip) == bytes(first).get(..self.skip) => {
                let key = u64::from_be_bytes(key_at(path, self.skip));
                self.rows.partition_point(|row| {
                    let row_key = u64::from_be_bytes(row.key);
                    row_key < key || (row_key == key && bytes(row) < path)
                })
            }
            _ => self.rows.partition_point(|row| bytes(row) < path),
        };
        let len = match self.rows.get(start) {
            Some(first) if bytes(first) == path => (self.rows[start..].iter())
                .take_while(|row| row.path == first.path)
                .count(),
            _ => 0,
        };
        start..start + len
    }

    /// True when `path`'s rows hold `digest` (for `None`, any row at all).
    fn holds(&self, rows: Range<usize>, digest: Option<Held<'_>>) -> bool {
        match digest {
            Some(digest) => self.rows[rows]
                .iter()
                .any(|row| self.held(row) == Some(digest)),
            None => !rows.is_empty(),
        }
    }

    fn push(&mut self, text: &str) -> Span {
        let start = self.arena.len();
        self.arena.push_str(text);
        // Spans are 32-bit, which makes both casts lossless.
        assert!(
            u32::try_from(self.arena.len()).is_ok(),
            "a policy chunk's arena passed 4 GiB"
        );
        Span {
            start: start as u32,
            len: text.len() as u32,
        }
    }

    fn store(&mut self, digest: Held<'_>) -> Stored {
        match digest {
            Held::Raw(raw) => Stored::Raw(raw),
            Held::Text(text) => Stored::Text(self.push(text)),
        }
    }

    /// Appends `path`, above every path here, with `digests` in document
    /// order and distinct.
    fn append<'d>(&mut self, path: &str, digests: impl IntoIterator<Item = &'d str>) {
        let key = key_at(path.as_bytes(), self.skip);
        let path = self.push(path);
        self.paths += 1;
        let start = self.rows.len();
        for text in digests {
            let digest = self.store(Held::new(text));
            self.rows.push(Row { path, key, digest });
        }
        if self.rows.len() == start {
            self.rows.push(Row {
                path,
                key,
                digest: Stored::Empty,
            });
        }
        self.keep_keys();
    }

    /// How many leading bytes the paths of `rows` share: as many as the
    /// first and the last share.
    fn shared(&self, rows: &[Row]) -> usize {
        let path =
            |row: Option<&Row>| row.map_or(&[][..], |row| &self.arena.as_bytes()[row.path.range()]);
        let (first, last) = (path(rows.first()), path(rows.last()));
        first.iter().zip(last).take_while(|(a, b)| a == b).count()
    }

    /// Keys every row again once an added path changed the prefix the
    /// paths share.
    fn keep_keys(&mut self) {
        let skip = self.shared(&self.rows);
        if skip != self.skip {
            self.skip = skip;
            let arena = self.arena.as_bytes();
            for row in &mut self.rows {
                row.key = key_at(&arena[row.path.range()], skip);
            }
        }
    }

    /// Adds `digest` (for `None`, the path alone) to `path`, whose rows
    /// are `rows` and do not hold it.
    fn add(&mut self, rows: Range<usize>, path: &str, digest: Option<Held<'_>>) {
        let Some(&first) = self.rows.get(rows.start).filter(|_| !rows.is_empty()) else {
            let key = key_at(path.as_bytes(), self.skip);
            let path = self.push(path);
            self.paths += 1;
            let digest = digest.map_or(Stored::Empty, |d| self.store(d));
            self.rows.insert(rows.start, Row { path, key, digest });
            self.keep_keys();
            return;
        };
        let Some(digest) = digest else { return };
        if let Stored::Empty = first.digest {
            self.rows[rows.start].digest = self.store(digest);
            return;
        }
        let at = (rows.clone())
            .find(|&i| {
                self.held(&self.rows[i])
                    .is_some_and(|d| d.cmp_rendered(&digest).is_gt())
            })
            .unwrap_or(rows.end);
        let digest = self.store(digest);
        self.rows.insert(
            at,
            Row {
                path: first.path,
                key: first.key,
                digest,
            },
        );
    }

    /// Drops the rows in `rows`.
    fn drain(&mut self, rows: Range<usize>) {
        for row in &self.rows[rows.clone()] {
            if let Stored::Text(span) = row.digest {
                self.dead += span.len as usize;
            }
        }
        self.rows.drain(rows);
    }

    /// Drops `path`, whose rows are `rows`.
    fn remove(&mut self, rows: Range<usize>) {
        if let Some(first) = self.rows.get(rows.start) {
            self.dead += first.path.len as usize;
        }
        self.drain(rows);
        self.paths -= 1;
        self.tidy();
    }

    /// Keeps only row `keep` of `rows`.
    fn retain(&mut self, rows: Range<usize>, keep: usize) {
        self.drain(keep + 1..rows.end);
        self.drain(rows.start..keep);
        self.tidy();
    }

    /// Lays the chunk out again once dead bytes fill half its arena.
    fn tidy(&mut self) {
        if self.dead > self.arena.len() / 2 {
            *self = self.laid_out(&self.rows);
        }
    }

    /// `rows` of this chunk as a chunk of their own, with an arena that
    /// holds only what they refer to.
    fn laid_out(&self, rows: &[Row]) -> Chunk {
        let skip = self.shared(rows);
        let mut out = Chunk {
            rows: Vec::with_capacity(rows.len()),
            skip,
            ..Chunk::default()
        };
        for group in by_path(rows) {
            let text = self.text(group[0].path);
            let key = key_at(text.as_bytes(), skip);
            let path = out.push(text);
            out.paths += 1;
            for row in group {
                let digest = match row.digest {
                    Stored::Text(span) => Stored::Text(out.push(self.text(span))),
                    digest => digest,
                };
                out.rows.push(Row { path, key, digest });
            }
        }
        out.arena.shrink_to_fit();
        out
    }

    /// Moves the upper half of the paths to a new chunk, returned with its
    /// first path.
    fn split(&mut self) -> Option<(Arc<str>, Chunk)> {
        let mid = by_path(&self.rows)
            .take(self.paths / 2)
            .map(<[Row]>::len)
            .sum();
        let upper = self.laid_out(&self.rows[mid..]);
        let bound = upper.rows.first().map(|row| upper.text(row.path).into())?;
        *self = self.laid_out(&self.rows[..mid]);
        Some((bound, upper))
    }

    /// The chunk's paths, each with its rows.
    fn sets(&self) -> impl Iterator<Item = (&str, Set<'_>)> {
        by_path(&self.rows).map(move |rows| (self.text(rows[0].path), Set { chunk: self, rows }))
    }
}

/// One path's digests as its chunk holds them, in document order.
#[derive(Clone, Copy)]
struct Set<'a> {
    chunk: &'a Chunk,
    rows: &'a [Row],
}

impl<'a> Set<'a> {
    fn iter(self) -> impl Iterator<Item = Held<'a>> {
        self.rows.iter().filter_map(move |row| self.chunk.held(row))
    }

    fn rendered(self) -> BTreeSet<String> {
        self.iter().map(Held::to_text).collect()
    }
}

impl PartialEq for Set<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The digest map as non-empty chunks, each holding the paths from its
/// bound (fixed when it is created) up to the next chunk's. Equality,
/// `Debug` and the JSON document see entries, never chunk boundaries.
#[derive(Clone, Default)]
struct Digests(BTreeMap<Arc<str>, Arc<Chunk>>);

impl Digests {
    /// The chunk whose range holds `path`, under its bound (none below all).
    fn chunk_of(&self, path: &str) -> Option<(&Arc<str>, &Arc<Chunk>)> {
        self.0
            .range::<str, _>((Unbounded, Included(path)))
            .next_back()
    }

    fn get(&self, path: &str) -> Option<Set<'_>> {
        let (_, chunk) = self.chunk_of(path)?;
        let rows = chunk.find(path);
        (!rows.is_empty()).then(|| Set {
            chunk,
            rows: &chunk.rows[rows],
        })
    }

    fn iter(&self) -> impl Iterator<Item = (&str, Set<'_>)> {
        self.0.values().flat_map(|chunk| chunk.sets())
    }

    /// [`Digests::chunk_of`] for editing through [`Arc::make_mut`].
    fn slot(&mut self, path: &str) -> Option<(&Arc<str>, &mut Arc<Chunk>)> {
        // Appends, the generator's common edit, need no search.
        let last = self.0.last_key_value();
        if last.is_some_and(|(bound, _)| **bound <= *path) {
            return self.0.iter_mut().next_back();
        }
        self.0
            .range_mut::<str, _>((Unbounded, Included(path)))
            .next_back()
    }

    /// Adds `digest` to `path`'s set (for `None`, makes `path` known);
    /// halves a full chunk.
    fn insert(&mut self, path: &str, digest: Option<&str>) {
        let Some((_, slot)) = self.slot(path) else {
            let mut chunk = Chunk::default();
            chunk.append(path, digest);
            self.0.insert(path.into(), Arc::new(chunk));
            return;
        };
        // Look before editing, so an edit that changes nothing copies nothing.
        let digest = digest.map(Held::new);
        let rows = slot.find(path);
        if slot.holds(rows.clone(), digest) {
            return;
        }
        let chunk = Arc::make_mut(slot);
        chunk.add(rows, path, digest);
        if chunk.paths > CHUNK_PATHS {
            if let Some((bound, upper)) = chunk.split() {
                self.0.insert(bound, Arc::new(upper));
            }
        }
    }

    /// Sets `path`'s digests to `set` (in document order, distinct), as a
    /// document entry does: a path above every other one is appended, and
    /// a repeated one loses its earlier set.
    fn replace(&mut self, path: &str, set: &[impl AsRef<str>]) {
        let digests = set.iter().map(AsRef::as_ref);
        if self
            .0
            .values()
            .next_back()
            .is_some_and(|c| c.last_path() >= path)
        {
            self.remove(path);
            if set.is_empty() {
                self.insert(path, None);
            }
            for digest in digests {
                self.insert(path, Some(digest));
            }
            return;
        }
        match self.0.values_mut().next_back() {
            Some(last) if last.paths < CHUNK_PATHS => Arc::make_mut(last).append(path, digests),
            _ => {
                let mut chunk = Chunk::default();
                chunk.append(path, digests);
                self.0.insert(path.into(), Arc::new(chunk));
            }
        }
    }

    /// Removes `path`, returning whether it was there; an emptied chunk
    /// goes too, and the chunk below takes over its range.
    fn remove(&mut self, path: &str) -> bool {
        let Some((bound, slot)) = self.slot(path) else {
            return false;
        };
        let rows = slot.find(path);
        if rows.is_empty() {
            return false;
        }
        let bound = Arc::clone(bound);
        let chunk = Arc::make_mut(slot);
        chunk.remove(rows);
        if chunk.paths == 0 {
            self.0.remove(&bound);
        }
        true
    }

    /// Drops every digest of `path` but `keep`, if `keep` is among them
    /// and there are others.
    fn retain_only(&mut self, path: &str, keep: &str) {
        let Some((_, slot)) = self.slot(path) else {
            return;
        };
        let rows = slot.find(path);
        let keep = Some(Held::new(keep));
        let at = rows.clone().find(|&i| slot.held(&slot.rows[i]) == keep);
        if let Some(at) = at.filter(|_| rows.len() > 1) {
            Arc::make_mut(slot).retain(rows, at);
        }
    }
}

impl PartialEq for Digests {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Digests {}

impl fmt::Debug for Digests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(path, set)| (path, set.rendered())))
            .finish()
    }
}

/// The document's `digests` object, exactly as a `BTreeMap` of
/// `BTreeSet`s writes it; each digest is rendered on the stack.
impl Serialize for Digests {
    fn write_json(&self, w: &mut JsonWriter) {
        let mut buf = [0; 2 * RAW_BYTES];
        w.begin_object();
        for (path, set) in self.iter() {
            w.key(path);
            w.begin_array();
            for digest in set.iter() {
                w.element();
                w.str(digest.render(&mut buf));
            }
            w.end_array();
        }
        w.end_object();
    }
}

/// Reads the `digests` object key by key into chunks: a document in path
/// order fills full chunks from the bottom up; a repeated key replaces its
/// set, as a `BTreeMap` would.
impl Deserialize for Digests {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let mut digests = Digests::default();
        let mut set = Vec::new();
        r.begin_object()?;
        while let Some(path) = r.next_key()? {
            set.clear();
            r.begin_array()?;
            while r.next_element()? {
                set.push(r.str()?);
            }
            set.sort_unstable();
            set.dedup();
            digests.replace(&path, &set);
        }
        Ok(digests)
    }
}

/// Policy document metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct PolicyMeta {
    /// Monotonic policy version (bumped on every regeneration).
    pub version: u64,
    /// Tool that produced the policy.
    pub generator: String,
    /// Simulation day the policy was generated on.
    pub generated_day: u32,
}

/// Result of checking one measurement against the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyCheck {
    /// The digest matches an allowed digest for the path.
    Allowed,
    /// The path falls under an exclude prefix; not evaluated (P1).
    Excluded,
    /// The path is known but the digest is not allowed
    /// ("hash mismatch" in §III-B).
    HashMismatch {
        /// The allowed digests for the path.
        expected: Vec<String>,
    },
    /// The path is absent from the policy
    /// ("missing file in the policy" in §III-B).
    NotInPolicy,
}

/// What changed between two policy versions (see [`RuntimePolicy::diff`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyDiff {
    /// Paths present only in the newer policy.
    pub added_paths: Vec<String>,
    /// Paths removed by the newer policy.
    pub removed_paths: Vec<String>,
    /// Paths whose digest sets changed.
    pub changed_paths: Vec<String>,
    /// Exclude prefixes the newer policy gained.
    pub added_excludes: Vec<String>,
    /// Exclude prefixes the newer policy dropped.
    pub removed_excludes: Vec<String>,
}

impl PolicyDiff {
    /// True when the two policies are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.added_paths.is_empty()
            && self.removed_paths.is_empty()
            && self.changed_paths.is_empty()
            && self.added_excludes.is_empty()
            && self.removed_excludes.is_empty()
    }
}

/// One update window's worth of policy change, as emitted by the dynamic
/// generator: what travels to the verifier instead of the full document.
///
/// [`RuntimePolicy::apply_delta`] replays a delta in a fixed order —
/// removals, then additions, then retirements — so a path that appears in
/// more than one list (the common case: a digest added during the window
/// and deduplicated at its close, or a kernel path dropped and re-added
/// on reboot) resolves deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub struct PolicyDelta {
    /// `(path, digest)` pairs appended during the window (update-window
    /// retention: existing digests stay allowed).
    pub added: Vec<(String, String)>,
    /// Paths dropped entirely (e.g. modules of the kernel a reboot
    /// retired).
    pub removed_paths: Vec<String>,
    /// `(path, canonical digest)` pairs from post-window deduplication:
    /// every other digest for the path is dropped.
    pub retired: Vec<(String, String)>,
    /// Kernel releases whose entries were staged (not yet active) during
    /// the window; informational for operators and metrics.
    pub staged_kernels: Vec<String>,
    /// Metadata of the policy the delta advances to.
    pub meta: PolicyMeta,
}

impl PolicyDelta {
    /// True when applying the delta would not change any entry (metadata
    /// updates alone do not count).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed_paths.is_empty() && self.retired.is_empty()
    }

    /// Total entry operations carried (adds + removals + retirements) —
    /// the `delta_entries_applied` metric.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed_paths.len() + self.retired.len()
    }
}

/// The verifier-side allowlist for one machine.
///
/// # Examples
///
/// ```
/// use cia_keylime::{PolicyCheck, RuntimePolicy};
///
/// let mut policy = RuntimePolicy::new();
/// policy.allow("/usr/bin/ls", "aa11");
/// policy.exclude("/tmp");
///
/// assert_eq!(policy.check("/usr/bin/ls", "aa11"), PolicyCheck::Allowed);
/// assert_eq!(policy.check("/tmp/anything", "??"), PolicyCheck::Excluded);
/// assert_eq!(policy.check("/usr/bin/xz", "bb"), PolicyCheck::NotInPolicy);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimePolicy {
    /// Path → allowed SHA-256 digests (lowercase hex in the document).
    digests: Digests,
    /// Path prefixes the verifier does not evaluate.
    excludes: Vec<String>,
    /// Document metadata.
    pub meta: PolicyMeta,
}

impl RuntimePolicy {
    /// An empty policy (everything unexpected will alert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `digest` to the allowed set for `path` (existing digests are
    /// retained — the update-window consistency rule).
    pub fn allow(&mut self, path: impl AsRef<str>, digest: impl AsRef<str>) {
        self.digests.insert(path.as_ref(), Some(digest.as_ref()));
    }

    /// Adds an exclude prefix (e.g. `/tmp`). Paths equal to it or below
    /// it are skipped during verification.
    pub fn exclude(&mut self, prefix: impl Into<String>) {
        let prefix = prefix.into();
        if !self.excludes.contains(&prefix) {
            self.excludes.push(prefix);
        }
    }

    /// The exclude prefixes.
    pub fn excludes(&self) -> &[String] {
        &self.excludes
    }

    /// Removes an exclude prefix (the §IV-C "enrich the policy" fix),
    /// returning whether it was present.
    pub fn remove_exclude(&mut self, prefix: &str) -> bool {
        let before = self.excludes.len();
        self.excludes.retain(|e| e != prefix);
        self.excludes.len() != before
    }

    /// True when `path` is covered by an exclude prefix: `e` covers
    /// `path` iff `path == e` or `path` continues with `/` right after
    /// `e` (`/tmp` covers `/tmp` and `/tmp/a`, never `/tmpfile`). A scan —
    /// policies carry a handful of prefixes.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.excludes.iter().any(|e| {
            path.strip_prefix(e.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }

    /// Checks one measured `(path, digest)` pair given as hex text.
    /// Zero heap allocations on the `Allowed`/`Excluded`/`NotInPolicy`
    /// outcomes; `HashMismatch` allocates its diagnostic `expected` list
    /// — that is the alert path, not the steady state.
    pub fn check(&self, path: &str, digest_hex: &str) -> PolicyCheck {
        if self.is_excluded(path) {
            return PolicyCheck::Excluded;
        }
        self.lookup(path, Held::new(digest_hex))
    }

    /// [`RuntimePolicy::check`] for a measured [`Digest`] — the
    /// verifier's hot path. The digest's bytes are compared with the raw
    /// rows, so a policy entry matches exactly when it is the digest's
    /// lowercase hex: upper-case, odd-length and non-hex entries never do,
    /// and nothing is rendered.
    pub fn check_digest(&self, path: &str, digest: &Digest) -> PolicyCheck {
        if self.is_excluded(path) {
            return PolicyCheck::Excluded;
        }
        // A digest longer than any raw row becomes the empty one, which no
        // row holds.
        self.lookup(
            path,
            Held::Raw(Raw::new(digest.as_bytes()).unwrap_or_default()),
        )
    }

    /// The one map lookup behind both checks, for a path already known
    /// not to be excluded.
    fn lookup(&self, path: &str, digest: Held<'_>) -> PolicyCheck {
        match self.digests.get(path) {
            Some(allowed) if allowed.iter().any(|d| d == digest) => PolicyCheck::Allowed,
            Some(allowed) => PolicyCheck::HashMismatch {
                expected: allowed.iter().map(Held::to_text).collect(),
            },
            None => PolicyCheck::NotInPolicy,
        }
    }

    /// Iterates over `(path, digests)` entries, rendering each set.
    pub fn entries(&self) -> impl Iterator<Item = (&str, BTreeSet<String>)> {
        self.digests
            .iter()
            .map(|(path, set)| (path, set.rendered()))
    }

    /// The allowed digest set for `path`, rendered.
    pub fn digests_for(&self, path: &str) -> Option<BTreeSet<String>> {
        self.digests.get(path).map(Set::rendered)
    }

    /// Number of distinct paths.
    pub fn path_count(&self) -> usize {
        self.digests.0.values().map(|c| c.paths).sum()
    }

    /// Number of `(path, digest)` pairs — the paper's "lines": every
    /// chunk row but a digest-less path's.
    pub fn line_count(&self) -> usize {
        (self.digests.0.values())
            .flat_map(|chunk| &chunk.rows)
            .filter(|row| !matches!(row.digest, Stored::Empty))
            .count()
    }

    /// Drops every digest for `path` except `keep` (post-update
    /// deduplication).
    pub fn dedup_retain(&mut self, path: &str, keep: &str) {
        self.digests.retain_only(path, keep);
    }

    /// Removes a path entirely (e.g. disallowing outdated kernel modules).
    pub fn remove_path(&mut self, path: &str) -> bool {
        self.digests.remove(path)
    }

    /// Structural difference against an older policy — what an operator
    /// reviews before approving a generated update.
    pub fn diff(&self, older: &RuntimePolicy) -> PolicyDiff {
        let mut diff = PolicyDiff::default();
        for (path, digests) in self.digests.iter() {
            match older.digests.get(path) {
                None => diff.added_paths.push(path.to_owned()),
                Some(old) if old != digests => diff.changed_paths.push(path.to_owned()),
                Some(_) => {}
            }
        }
        for (path, _) in older.digests.iter() {
            if self.digests.get(path).is_none() {
                diff.removed_paths.push(path.to_owned());
            }
        }
        for e in &self.excludes {
            if !older.excludes.contains(e) {
                diff.added_excludes.push(e.clone());
            }
        }
        for e in &older.excludes {
            if !self.excludes.contains(e) {
                diff.removed_excludes.push(e.clone());
            }
        }
        diff
    }

    /// Serializes to the Keylime-style JSON document.
    ///
    /// A policy is a closed struct of strings, maps and ints: every value
    /// is wire-representable by construction, so the encode cannot fail,
    /// and a `Result` would push unreachable error arms onto every caller.
    #[expect(
        clippy::expect_used,
        reason = "a closed struct of strings, maps and ints always serializes"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("policy serialization cannot fail")
    }

    /// Parses a policy from JSON.
    ///
    /// # Errors
    ///
    /// [`KeylimeError::PolicyFormat`] on malformed documents.
    pub fn from_json(text: &str) -> Result<Self, KeylimeError> {
        serde_json::from_str(text).map_err(|e| KeylimeError::PolicyFormat {
            reason: e.to_string(),
        })
    }

    /// Applies one generator-emitted delta in order — removals, then
    /// additions, then retirements — and adopts the delta's metadata.
    /// Returns the number of entry operations applied. In place,
    /// O(delta · log policy): nothing is laid out again.
    pub fn apply_delta(&mut self, delta: &PolicyDelta) -> usize {
        for path in &delta.removed_paths {
            self.remove_path(path);
        }
        for (path, digest) in &delta.added {
            self.allow(path, digest);
        }
        for (path, keep) in &delta.retired {
            self.dedup_retain(path, keep);
        }
        self.meta = delta.meta.clone();
        delta.len()
    }

    /// How many of this policy's chunks `delta`'s paths fall in: the most it
    /// copies, unless its adds land in a chunk its removals emptied.
    pub fn chunks_touched(&self, delta: &PolicyDelta) -> usize {
        let paths = (delta.removed_paths.iter())
            .chain(delta.added.iter().map(|(path, _)| path))
            .chain(delta.retired.iter().map(|(path, _)| path));
        let chunks: BTreeSet<_> = paths
            .map(|p| self.digests.chunk_of(p).map(|c| c.0))
            .collect();
        chunks.len()
    }

    /// Digest-map chunks the calling thread has copied so far: the first
    /// edit of a chunk that another policy (an older epoch) still shares.
    /// `tests/hot_path_gates.rs` bounds a publish's copies with this.
    pub fn chunk_copy_count() -> u64 {
        CHUNK_COPIES.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_and_check() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "aa");
        assert_eq!(p.check("/usr/bin/ls", "aa"), PolicyCheck::Allowed);
        assert_eq!(
            p.check("/usr/bin/ls", "bb"),
            PolicyCheck::HashMismatch {
                expected: vec!["aa".to_string()]
            }
        );
        assert_eq!(p.check("/usr/bin/cat", "aa"), PolicyCheck::NotInPolicy);
    }

    #[test]
    fn multiple_digests_during_update_window() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/curl", "old");
        p.allow("/usr/bin/curl", "new");
        // Both versions pass mid-update.
        assert_eq!(p.check("/usr/bin/curl", "old"), PolicyCheck::Allowed);
        assert_eq!(p.check("/usr/bin/curl", "new"), PolicyCheck::Allowed);
        assert_eq!(p.line_count(), 2);
        // Post-update dedup drops the outdated digest.
        p.dedup_retain("/usr/bin/curl", "new");
        assert_eq!(
            p.check("/usr/bin/curl", "old"),
            PolicyCheck::HashMismatch {
                expected: vec!["new".to_string()]
            }
        );
        assert_eq!(p.line_count(), 1);
    }

    #[test]
    fn dedup_keeps_all_when_keep_absent() {
        let mut p = RuntimePolicy::new();
        p.allow("/x", "a");
        p.dedup_retain("/x", "zz");
        assert_eq!(p.check("/x", "a"), PolicyCheck::Allowed);
    }

    #[test]
    fn exclude_prefix_boundaries() {
        let mut p = RuntimePolicy::new();
        p.exclude("/tmp");
        assert!(p.is_excluded("/tmp"));
        assert!(p.is_excluded("/tmp/a/b"));
        assert!(!p.is_excluded("/tmpfile"));
        assert_eq!(p.check("/tmp/evil", "whatever"), PolicyCheck::Excluded);
    }

    #[test]
    fn remove_exclude_enriches() {
        let mut p = RuntimePolicy::new();
        p.exclude("/tmp");
        assert!(p.remove_exclude("/tmp"));
        assert!(!p.remove_exclude("/tmp"));
        assert_eq!(p.check("/tmp/evil", "x"), PolicyCheck::NotInPolicy);
    }

    #[test]
    fn json_roundtrip() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "aa");
        p.exclude("/tmp");
        p.meta.version = 7;
        p.meta.generator = "dynamic-policy-generator".into();
        let parsed = RuntimePolicy::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed, p);
        assert!(RuntimePolicy::from_json("{not json").is_err());
    }

    #[test]
    fn size_accounting() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "a".repeat(64));
        assert_eq!(p.line_count(), 1);
        assert_eq!(p.path_count(), 1);
    }

    #[test]
    fn diff_classifies_changes() {
        let mut old = RuntimePolicy::new();
        old.allow("/usr/bin/stays", "aa");
        old.allow("/usr/bin/changes", "aa");
        old.allow("/usr/bin/goes", "aa");
        old.exclude("/tmp");

        let mut new = RuntimePolicy::new();
        new.allow("/usr/bin/stays", "aa");
        new.allow("/usr/bin/changes", "bb");
        new.allow("/usr/bin/arrives", "cc");
        new.exclude("/var/tmp");

        let diff = new.diff(&old);
        assert_eq!(diff.added_paths, vec!["/usr/bin/arrives".to_string()]);
        assert_eq!(diff.removed_paths, vec!["/usr/bin/goes".to_string()]);
        assert_eq!(diff.changed_paths, vec!["/usr/bin/changes".to_string()]);
        assert_eq!(diff.added_excludes, vec!["/var/tmp".to_string()]);
        assert_eq!(diff.removed_excludes, vec!["/tmp".to_string()]);
        assert!(!diff.is_empty());
    }

    #[test]
    fn diff_of_identical_policies_is_empty() {
        let mut p = RuntimePolicy::new();
        p.allow("/a", "aa");
        p.exclude("/tmp");
        assert!(p.diff(&p.clone()).is_empty());
        assert!(RuntimePolicy::new().diff(&RuntimePolicy::new()).is_empty());
    }

    fn assert_totals_match(p: &RuntimePolicy) {
        let lines: usize = p.entries().map(|(_, s)| s.len()).sum();
        assert_eq!(p.line_count(), lines);
    }

    #[test]
    fn cached_totals_track_every_mutator() {
        let mut p = RuntimePolicy::new();
        assert_totals_match(&p); // warms the cache; increments from here on
        p.allow("/usr/bin/a", "aa");
        p.allow("/usr/bin/a", "bb");
        p.allow("/usr/bin/bb", "cc");
        p.allow("/usr/bin/a", "aa"); // duplicate: no change
        assert_totals_match(&p);
        p.dedup_retain("/usr/bin/a", "aa");
        assert_totals_match(&p);
        p.dedup_retain("/usr/bin/a", "zz"); // keep absent: no change
        assert_totals_match(&p);
        assert!(p.remove_path("/usr/bin/bb"));
        assert!(!p.remove_path("/usr/bin/bb"));
        assert_totals_match(&p);
        assert_eq!(p.line_count(), 1);
    }

    #[test]
    fn check_digest_agrees_with_legacy_check() {
        use cia_crypto::HashAlgorithm;
        let mut p = RuntimePolicy::new();
        let good = HashAlgorithm::Sha256.digest(b"good");
        let bad = HashAlgorithm::Sha256.digest(b"bad");
        p.allow("/usr/bin/ls", good.to_hex());
        p.exclude("/tmp");
        for (path, digest) in [
            ("/usr/bin/ls", &good),
            ("/usr/bin/ls", &bad),
            ("/usr/bin/unknown", &good),
            ("/tmp/scratch", &bad),
            ("/tmp", &bad),
        ] {
            assert_eq!(
                p.check_digest(path, digest),
                p.check(path, &digest.to_hex()),
                "divergence at {path}"
            );
        }
    }

    #[test]
    fn check_digest_ignores_noncanonical_entries() {
        use cia_crypto::HashAlgorithm;
        let d = HashAlgorithm::Sha256.digest(b"content");
        let mut p = RuntimePolicy::new();
        // Uppercase, odd-length and non-hex entries can never equal the
        // lowercase hex a measured digest renders to.
        p.allow("/x", d.to_hex().to_uppercase());
        p.allow("/x", "abc");
        p.allow("/x", "not-hex!");
        assert!(matches!(
            p.check_digest("/x", &d),
            PolicyCheck::HashMismatch { .. }
        ));
        assert_eq!(p.check_digest("/x", &d), p.check("/x", &d.to_hex()));
        // The canonical entry still matches alongside the junk.
        p.allow("/x", d.to_hex());
        assert_eq!(p.check_digest("/x", &d), PolicyCheck::Allowed);
    }

    #[test]
    fn check_digest_distinguishes_sha1_from_sha256_prefix() {
        use cia_crypto::HashAlgorithm;
        let sha1 = HashAlgorithm::Sha1.digest(b"content");
        let mut p = RuntimePolicy::new();
        // A 64-char entry whose first 40 chars equal the sha1 hex must
        // not match the 20-byte digest.
        p.allow("/y", format!("{}{}", sha1.to_hex(), "0".repeat(24)));
        assert!(matches!(
            p.check_digest("/y", &sha1),
            PolicyCheck::HashMismatch { .. }
        ));
        p.allow("/y", sha1.to_hex());
        assert_eq!(p.check_digest("/y", &sha1), PolicyCheck::Allowed);
        assert_eq!(p.check("/y", &sha1.to_hex()), PolicyCheck::Allowed);
        let sha256 = HashAlgorithm::Sha256.digest(b"content");
        assert!(matches!(
            p.check_digest("/y", &sha256),
            PolicyCheck::HashMismatch { .. }
        ));
    }

    #[test]
    fn exclusion_semantics_survive_many_prefixes() {
        let mut p = RuntimePolicy::new();
        for prefix in ["/var/tmp", "/tmp", "/run", "/var", "/opt/scratch"] {
            p.exclude(prefix);
        }
        assert!(p.is_excluded("/tmp"));
        assert!(p.is_excluded("/tmp/a/b/c"));
        assert!(p.is_excluded("/var"));
        assert!(p.is_excluded("/var/tmp/x"));
        assert!(p.is_excluded("/var/lib/x"), "/var covers /var/lib");
        assert!(!p.is_excluded("/tmpfile"));
        assert!(!p.is_excluded("/varnish"));
        assert!(!p.is_excluded("/opt"));
        assert!(p.is_excluded("/opt/scratch/f"));
        // Removing one prefix re-admits only its subtree.
        assert!(p.remove_exclude("/var"));
        assert!(!p.is_excluded("/var/lib/x"));
        assert!(!p.is_excluded("/var"));
        assert!(p.is_excluded("/var/tmp/x"), "/var/tmp still excluded");

        // A prefix covers a path iff the path equals it or continues with
        // `/` right after it — one row per edge of that rule.
        let table: [(&str, &[&str], &[&str]); 4] = [
            ("/tmp", &["/tmp", "/tmp/a/b"], &["/tmpfile", "/tm", "/"]),
            ("", &["/", "/usr/bin/ls", ""], &["relative"]),
            ("/", &["/", "//x"], &["/x", "/tmp", ""]),
            ("/tmp/", &["/tmp/", "/tmp//x"], &["/tmp/x", "/tmp"]),
        ];
        for (prefix, covered, not_covered) in table {
            let mut p = RuntimePolicy::new();
            p.exclude(prefix);
            for path in covered {
                assert!(p.is_excluded(path), "{prefix:?} must cover {path:?}");
            }
            for path in not_covered {
                assert!(!p.is_excluded(path), "{prefix:?} must not cover {path:?}");
            }
        }
    }

    #[test]
    fn remove_path() {
        let mut p = RuntimePolicy::new();
        p.allow("/lib/modules/old/x.ko", "aa");
        assert!(p.remove_path("/lib/modules/old/x.ko"));
        assert!(!p.remove_path("/lib/modules/old/x.ko"));
        assert_eq!(
            p.check("/lib/modules/old/x.ko", "aa"),
            PolicyCheck::NotInPolicy
        );
    }

    fn hex_digest(tag: &str) -> String {
        use cia_crypto::HashAlgorithm;
        HashAlgorithm::Sha256.digest(tag.as_bytes()).to_hex()
    }

    /// Applies `delta` in place and checks the result — line count
    /// included — against the same policy rebuilt from its JSON document.
    fn assert_delta_matches_rebuild(base: &RuntimePolicy, delta: &PolicyDelta) {
        let mut incremental = base.clone();
        assert_totals_match(&incremental);
        incremental.apply_delta(delta);

        let rebuilt = RuntimePolicy::from_json(&incremental.to_json()).unwrap();
        assert!(incremental.diff(&rebuilt).is_empty());
        assert_eq!(incremental.meta, delta.meta);
        assert_totals_match(&incremental);
    }

    #[test]
    fn apply_delta_adds_removes_and_retires() {
        let mut base = RuntimePolicy::new();
        base.exclude("/tmp");
        for i in 0..50 {
            base.allow(
                format!("/usr/bin/tool-{i:02}"),
                hex_digest(&format!("v1-{i}")),
            );
        }
        base.allow("/lib/modules/5.15.0-1/a.ko", hex_digest("mod-a"));
        base.allow("/usr/bin/updated", hex_digest("old"));

        let delta = PolicyDelta {
            added: vec![
                ("/usr/bin/updated".into(), hex_digest("new")),
                ("/usr/bin/brand-new".into(), hex_digest("fresh")),
                ("/lib/modules/5.15.0-2/a.ko".into(), hex_digest("mod-a2")),
            ],
            removed_paths: vec!["/lib/modules/5.15.0-1/a.ko".into()],
            retired: vec![("/usr/bin/updated".into(), hex_digest("new"))],
            staged_kernels: vec![],
            meta: PolicyMeta {
                version: 9,
                generator: "dynamic-policy-generator".into(),
                generated_day: 3,
            },
        };
        assert_eq!(delta.len(), 5);
        assert!(!delta.is_empty());
        assert_delta_matches_rebuild(&base, &delta);

        let mut p = base.clone();
        p.apply_delta(&delta);
        use cia_crypto::HashAlgorithm;
        let new = HashAlgorithm::Sha256.digest(b"new");
        assert_eq!(
            p.check_digest("/usr/bin/updated", &new),
            PolicyCheck::Allowed
        );
        let old = HashAlgorithm::Sha256.digest(b"old");
        assert!(matches!(
            p.check_digest("/usr/bin/updated", &old),
            PolicyCheck::HashMismatch { .. }
        ));
        assert_eq!(
            p.check_digest("/lib/modules/5.15.0-1/a.ko", &new),
            PolicyCheck::NotInPolicy
        );
        assert_eq!(p.meta.version, 9);
    }

    #[test]
    fn apply_delta_remove_then_readd_keeps_only_new_digests() {
        let mut base = RuntimePolicy::new();
        base.allow("/lib/modules/5.15/x.ko", hex_digest("old-build"));
        base.allow("/keep", hex_digest("keep"));
        let delta = PolicyDelta {
            added: vec![("/lib/modules/5.15/x.ko".into(), hex_digest("new-build"))],
            removed_paths: vec!["/lib/modules/5.15/x.ko".into()],
            ..PolicyDelta::default()
        };
        assert_delta_matches_rebuild(&base, &delta);
        let mut p = base.clone();
        p.apply_delta(&delta);
        let set = p.digests_for("/lib/modules/5.15/x.ko").unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.contains(&hex_digest("new-build")));
    }

    #[test]
    fn apply_delta_handles_noncanonical_and_empty_cases() {
        let mut base = RuntimePolicy::new();
        base.allow("/a", hex_digest("a"));
        // Non-canonical digests are kept in the document; they just never
        // match a measured digest.
        let delta = PolicyDelta {
            added: vec![
                ("/junk-only".into(), "NOT-HEX".into()),
                ("/a".into(), "ABCDEF".into()),
            ],
            ..PolicyDelta::default()
        };
        assert_delta_matches_rebuild(&base, &delta);
        // An empty delta is a metadata-only no-op.
        let empty = PolicyDelta::default();
        assert!(empty.is_empty());
        assert_delta_matches_rebuild(&base, &empty);
    }

    /// The copy counter counts chunk copies: a clone copies none, and an
    /// edit copies only the one chunk it touches.
    #[test]
    fn clone_counter_counts_deep_copies() {
        let mut p = RuntimePolicy::new();
        for i in 0..4 * CHUNK_PATHS {
            p.allow(format!("/usr/bin/tool-{i:05}"), hex_digest("v1"));
        }
        assert!(p.digests.0.len() >= 4, "{} chunks", p.digests.0.len());
        // The counter is per thread, so the counts here are exact.
        let before = RuntimePolicy::chunk_copy_count();
        let mut edited = p.clone();
        assert_eq!(
            RuntimePolicy::chunk_copy_count(),
            before,
            "a clone copies no chunk"
        );
        let delta = PolicyDelta {
            added: vec![("/usr/bin/tool-00001".into(), hex_digest("v2"))],
            retired: vec![("/usr/bin/tool-00002".into(), hex_digest("v1"))],
            ..PolicyDelta::default()
        };
        assert_eq!(p.chunks_touched(&delta), 1);
        edited.apply_delta(&delta);
        assert_eq!(RuntimePolicy::chunk_copy_count() - before, 1);
        // Idempotent edits copy nothing: the digest is there already, and
        // the retirement keeps the only digest.
        let mut again = p.clone();
        again.allow("/usr/bin/tool-00003", hex_digest("v1"));
        again.dedup_retain("/usr/bin/tool-00003", &hex_digest("v1"));
        assert!(!again.remove_path("/usr/bin/absent"));
        assert_eq!(RuntimePolicy::chunk_copy_count() - before, 1);
        assert_eq!(again, p);
        assert_eq!(p.digests_for("/usr/bin/tool-00001").unwrap().len(), 1);
        assert_eq!(edited.digests_for("/usr/bin/tool-00001").unwrap().len(), 2);
    }

    #[test]
    fn equality_and_debug_ignore_chunk_boundaries() {
        let mut forward = RuntimePolicy::new();
        let mut backward = RuntimePolicy::new();
        let paths: Vec<String> = (0..3 * CHUNK_PATHS).map(|i| format!("/p/{i:05}")).collect();
        for path in &paths {
            forward.allow(path.clone(), "aa");
        }
        for path in paths.iter().rev() {
            backward.allow(path.clone(), "aa");
        }
        let parsed = RuntimePolicy::from_json(&forward.to_json()).unwrap();
        assert_ne!(
            forward.digests.0.len(),
            parsed.digests.0.len(),
            "built and parsed policies cut their chunks differently"
        );
        for other in [&backward, &parsed] {
            assert_eq!(&forward, other);
            assert_eq!(format!("{forward:?}"), format!("{other:?}"));
            assert_eq!(forward.to_json(), other.to_json());
        }
        // Emptying a chunk drops it, and lookups still route.
        for path in &paths[..CHUNK_PATHS] {
            assert!(forward.remove_path(path));
        }
        assert_eq!(forward.path_count(), 2 * CHUNK_PATHS);
        assert!(forward.digests.0.values().all(|c| !c.rows.is_empty()));
        for path in &paths[CHUNK_PATHS..] {
            assert_eq!(forward.check(path, "aa"), PolicyCheck::Allowed);
        }
        assert_eq!(forward.check(&paths[0], "aa"), PolicyCheck::NotInPolicy);
    }

    #[test]
    fn a_row_is_52_bytes() {
        // A path span, its key, and a length-tagged 32-byte digest or a
        // text span.
        assert_eq!(std::mem::size_of::<Row>(), 52);
    }

    #[test]
    fn a_digest_too_long_for_a_row_is_kept_verbatim() {
        use cia_crypto::HashAlgorithm;
        let d = HashAlgorithm::Sha256.digest(b"content");
        let long = format!("{}00", d.to_hex());
        let mut p = RuntimePolicy::new();
        p.allow("/x", &long);
        let (_, chunk) = p.digests.chunk_of("/x").unwrap();
        assert!(matches!(
            chunk.rows[..],
            [Row {
                digest: Stored::Text(_),
                ..
            }]
        ));
        assert_eq!(
            p.check_digest("/x", &d),
            PolicyCheck::HashMismatch {
                expected: vec![long.clone()]
            }
        );
        assert_eq!(p.check("/x", &long), PolicyCheck::Allowed);
        let parsed = RuntimePolicy::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed.digests_for("/x"), Some(BTreeSet::from([long])));
        assert_eq!(parsed, p);
    }

    #[test]
    fn a_path_with_no_digests_stays_a_path() {
        let p = RuntimePolicy::from_json(r#"{"digests":{"/x":[]},"excludes":[],"meta":{"version":0,"generator":"","generated_day":0},"totals":null}"#).unwrap();
        assert_eq!(
            p.check("/x", "aa"),
            PolicyCheck::HashMismatch { expected: vec![] }
        );
        assert_eq!(p.path_count(), 1);
        assert_eq!(p.line_count(), 0);
        assert_eq!(p.digests_for("/x"), Some(BTreeSet::new()));
        assert_eq!(
            p.check_digest("/x", &cia_crypto::HashAlgorithm::Sha256.digest(b"x")),
            PolicyCheck::HashMismatch { expected: vec![] }
        );
        assert!(p.to_json().contains(r#"{"/x":[]}"#));
        assert_eq!(RuntimePolicy::from_json(&p.to_json()).unwrap(), p);
        // Its first digest replaces the empty set; removing the path drops it.
        let mut q = p.clone();
        q.allow("/x", "aa");
        assert_eq!(q.check("/x", "aa"), PolicyCheck::Allowed);
        assert_eq!((q.path_count(), q.line_count()), (1, 1));
        assert!(q.remove_path("/x"));
        assert_eq!(q.path_count(), 0);
    }

    /// Documents written while the policy cached its line total carry
    /// `"totals":null`; they parse to the same policy.
    #[test]
    fn a_document_with_the_old_totals_key_parses_the_same() {
        let mut p = RuntimePolicy::new();
        p.allow("/usr/bin/ls", "aa11");
        p.allow("/x", "AA");
        p.exclude("/tmp");
        let doc = p.to_json();
        let old = format!(r#"{},"totals":null}}"#, doc.strip_suffix('}').unwrap());
        let parsed = RuntimePolicy::from_json(&old).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.to_json(), doc);
        assert_eq!(parsed.line_count(), 2);
    }

    #[test]
    fn check_compares_text_not_bytes() {
        let mut p = RuntimePolicy::new();
        p.allow("/x", "aa");
        assert_eq!(
            p.check("/x", "AA"),
            PolicyCheck::HashMismatch {
                expected: vec!["aa".to_string()]
            }
        );
        p.allow("/x", "AA");
        assert_eq!(p.check("/x", "AA"), PolicyCheck::Allowed);
        assert_eq!(p.line_count(), 2);
    }

    #[test]
    fn parsing_replaces_a_repeated_key_and_keeps_an_empty_set() {
        let doc = r#"{"digests":{"/b":["aa"],"/a":[],"/b":["cc","AA"]},"excludes":[],"meta":{"version":0,"generator":"","generated_day":0},"totals":null}"#;
        let p = RuntimePolicy::from_json(doc).unwrap();
        assert_eq!(
            p.to_json(),
            r#"{"digests":{"/a":[],"/b":["AA","cc"]},"excludes":[],"meta":{"version":0,"generator":"","generated_day":0}}"#
        );
        assert_eq!((p.path_count(), p.line_count()), (2, 2));
        assert_eq!(
            p.check("/b", "aa"),
            PolicyCheck::HashMismatch {
                expected: vec!["AA".to_string(), "cc".to_string()]
            }
        );
    }
}
