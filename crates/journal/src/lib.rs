//! # e2c-journal — crash-safe persistence primitives
//!
//! Std-only building blocks for the crash-safe optimization story:
//!
//! * [`Wal`] — a write-ahead log of opaque byte records. Each record is
//!   framed as `[u32 LE length][u32 LE CRC32][payload]`; every append is
//!   flushed and fsync'd before it returns, so a record that the caller
//!   saw acknowledged survives a process kill at any later instruction.
//!   [`Wal::open`] recovers by scanning frames from the start and
//!   truncating the file at the first torn or corrupt frame (the standard
//!   single-appender recovery rule: a bad frame can only be the
//!   interrupted tail, and anything after it was never acknowledged).
//! * [`write_atomic`] — full-file snapshot writes via a tmp sibling +
//!   `rename`, with the file and its directory fsync'd, so readers only
//!   ever observe the old bytes or the new bytes, never a truncated mix.
//! * [`write_view`] — the same tmp + `rename` with no fsync, for files
//!   that are views of durable state: whoever owns the state re-renders
//!   them after a machine crash.
//!   [`remove_view_tmp`] clears what a killed view write leaves behind.
//! * [`compare_tree`] — the one artifact comparison every replay check
//!   and gate runs: a fresh run root, byte for byte, against another.
//! * [`sync_counts`] — how many file and directory syncs this process
//!   has made through the crate, for tests that bound the syncs of a run.
//! * [`wire`] — the shared tab-separated text spelling (escaping and
//!   canonical numeric forms) that both record protocols layered on this
//!   crate — the run journal and the worker-farm frames — encode with.
//! * [`json`] — the one JSON codec: the string escaper every JSON writer
//!   shares and the parser that reads `trace.jsonl`, `trials.jsonl` and
//!   the benchmark reports back.
//!
//! The framing is deliberately dumb: no compression, no sequence numbers,
//! no format versioning beyond the frame itself. Interpretation of the
//! payload belongs to the caller (`e2c-tune`'s run journal gives records
//! meaning — including their wire version, carried in its meta record —
//! this crate only promises they are whole).

pub mod json;
pub mod wire;

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame header size: 4-byte length + 4-byte CRC32, both little-endian.
/// Public so differential tests (the fuzz harness's torn-WAL oracle) can
/// compute expected recovery prefixes without re-stating the format.
pub const HEADER: usize = 8;

/// Sanity cap on a single record (64 MiB). A declared length beyond this
/// is treated as frame corruption, not an allocation request.
pub const MAX_RECORD: u32 = 64 * 1024 * 1024;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c; // detlint: allow(PANIC003) i < 256 by the loop bound; const fn evaluated at compile time
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // detlint: allow(PANIC003) index is masked to 0..=255 and the table has 256 entries
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// An append-only write-ahead log of length- and checksum-framed records.
pub struct Wal {
    file: File,
    path: PathBuf,
    records: u64,
    /// Reusable frame assembly buffer: appends are frequent and fsync'd,
    /// so the encode step should not also pay a heap allocation each time.
    frame: Vec<u8>,
}

impl Wal {
    /// Create a fresh, empty log. Fails if `path` already exists — an
    /// existing journal must be opened (resumed), never clobbered.
    ///
    /// The new file's directory entry is made durable before this
    /// returns: the containing directory is fsync'd, and so is its own
    /// parent when this call created the directory. Otherwise a machine
    /// crash soon after a fresh start could lose the log together with
    /// every fsync'd append in it.
    pub fn create(path: &Path) -> io::Result<Wal> {
        let dir = parent_dir(path).unwrap_or(Path::new("."));
        let made_dir = !dir.is_dir();
        if made_dir {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        sync_dir(dir);
        if made_dir {
            sync_dir(parent_dir(dir).unwrap_or(Path::new(".")));
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            records: 0,
            frame: Vec::new(),
        })
    }

    /// Open an existing log, returning every intact record in append
    /// order. The file is truncated at the first torn or corrupt frame
    /// (an interrupted append's tail) and positioned for further appends.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<Vec<u8>>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = scan(&bytes);
        if valid_len as u64 != bytes.len() as u64 {
            file.set_len(valid_len as u64)?;
            sync_file(&file)?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let n = records.len() as u64;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                records: n,
                frame: Vec::new(),
            },
            records,
        ))
    }

    /// Append one record. The frame is flushed and fsync'd before this
    /// returns: an acknowledged append survives a crash at any later
    /// point.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
        self.frame.clear();
        self.frame.reserve(HEADER + payload.len());
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(&crc32(payload).to_le_bytes());
        self.frame.extend_from_slice(payload);
        self.file.write_all(&self.frame)?;
        FILE_SYNCS.fetch_add(1, Ordering::Relaxed);
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Number of intact records (recovered + appended).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A little-endian `u32` at `pos`, or `None` when fewer than four bytes
/// remain — the bounds-checked primitive the frame scanner is built on.
fn read_u32_le(bytes: &[u8], pos: usize) -> Option<u32> {
    let src = bytes.get(pos..pos.checked_add(4)?)?;
    let mut word = [0u8; 4];
    word.copy_from_slice(src);
    Some(u32::from_le_bytes(word))
}

/// Scan framed records from `bytes`, stopping at the first invalid frame.
/// Returns the intact records and the byte length of the valid prefix.
/// Every access is bounds-checked: a short header, an out-of-range length
/// or a bad CRC all mean "torn tail", never a panic — recovery code that
/// aborts on the very corruption it exists to handle is no recovery.
fn scan(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    // All offset arithmetic is checked: `pos` is in-bounds here, but
    // `pos + 4` / `pos + HEADER` / `start + len` must not be assumed
    // representable — a declared length near `u32::MAX` combined with
    // an offset near the end of a large mapping would otherwise wrap
    // and turn the bounds check into a slice panic.
    while let Some(len) = read_u32_le(bytes, pos) {
        let Some(crc) = pos.checked_add(4).and_then(|p| read_u32_le(bytes, p)) else {
            break;
        };
        if len > MAX_RECORD {
            break;
        }
        let Some(start) = pos.checked_add(HEADER) else {
            break;
        };
        // A frame whose declared length (≤ MAX_RECORD, so it always fits
        // usize) runs past the end of the file is a torn tail: truncate
        // at the frame boundary, never slice past the buffer.
        let Some(payload) = start
            .checked_add(len as usize)
            .and_then(|end| bytes.get(start..end))
        else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        pos = start + payload.len();
    }
    (records, pos)
}

/// Scan a WAL *image* already in memory, returning the intact records and
/// the byte length of the valid prefix — [`Wal::open`]'s recovery rule
/// without touching the filesystem. This is the surface the fuzz harness
/// and the torn-tail truncation oracle drive: it lets every mutated byte
/// string exercise recovery directly, with file-backed `open` checked on
/// a sample.
pub fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    scan(bytes)
}

/// Read every intact record of a log without taking write access (the
/// file is left untouched, torn tail included). For inspection and tests.
pub fn read_records(path: &Path) -> io::Result<Vec<Vec<u8>>> {
    let bytes = std::fs::read(path)?;
    Ok(scan(&bytes).0)
}

/// Write `bytes` to `path` atomically: the content goes to a tmp sibling
/// first, is fsync'd, then renamed over the target, and the parent
/// directory is fsync'd. A crash at any point leaves either the old file
/// or the new one — never a truncated hybrid.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = parent_dir(path);
    if let Some(dir) = parent {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = tmp_sibling(path);
    {
        // detlint: allow(IO001) this IS the write_atomic implementation — the raw create targets the tmp sibling, and the rename + dir fsync below provide the atomicity
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        sync_file(&f)?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = parent {
        // Persist the rename itself: fsync the containing directory.
        if let Ok(d) = File::open(dir) {
            DIR_SYNCS.fetch_add(1, Ordering::Relaxed);
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Write `bytes` to `path` as a *view* of durable state: a file its owner
/// can render again from what is durable (a run's per-trial artifacts,
/// rebuilt from `run.wal` on resume). The bytes go to a tmp sibling that
/// is renamed over the target, so a reader, or a process killed at any
/// instruction, sees the old bytes or the new ones and never a torn mix.
/// Nothing is fsync'd: only a machine crash can lose or truncate a view,
/// and the owner re-renders it then. The parent directory must exist.
pub fn write_view(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    // detlint: allow(IO001) this IS the write_view implementation — the raw write targets the tmp sibling, and the rename below makes the swap atomic for readers
    std::fs::write(&tmp, bytes)?;
    // detlint: allow(IO002) a view is re-rendered from the journal after a machine crash, so its rename needs no directory fsync
    std::fs::rename(&tmp, path)
}

/// Remove the tmp sibling a [`write_view`] of `path` leaves behind when
/// it is killed between its write and its rename. A view's owner calls
/// this on resume for each view it keeps rather than renders again; a
/// view that is written again consumes its tmp sibling anyway.
pub fn remove_view_tmp(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(tmp_sibling(path)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// How a file, or a directory missing elsewhere, of a run root compares
/// with the same relative path under another root ([`compare_tree`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sameness {
    /// A file with the same bytes under both roots; its length.
    Identical(usize),
    /// A file whose bytes differ; its length under each root.
    Differs(usize, usize),
    /// Nothing of the same kind under the other root.
    Missing,
}

/// Compare every file and directory under `fresh`, a run root written
/// from scratch, with the same relative path under `other`: each file,
/// and each directory `other` lacks, depth first and each directory's
/// entries in name order, labelled with its `/`-joined path relative to
/// `fresh`. Only `fresh` is listed, so `other` may hold more (files an
/// earlier run left there); where both roots were written from scratch,
/// compare them both ways.
pub fn compare_tree(fresh: &Path, other: &Path) -> io::Result<Vec<(String, Sameness)>> {
    let mut names = std::fs::read_dir(fresh)?
        .map(|e| e.map(|e| e.file_name()))
        .collect::<io::Result<Vec<_>>>()?;
    names.sort();
    let mut entries = Vec::new();
    for name in names {
        let rel = name.to_string_lossy().into_owned();
        let (ours, theirs) = (fresh.join(&name), other.join(&name));
        if ours.is_dir() {
            if !theirs.is_dir() {
                entries.push((rel.clone(), Sameness::Missing));
            }
            for (sub, same) in compare_tree(&ours, &theirs)? {
                entries.push((format!("{rel}/{sub}"), same));
            }
            continue;
        }
        let bytes = std::fs::read(&ours)?;
        let same = match std::fs::read(&theirs) {
            Ok(b) if b == bytes => Sameness::Identical(bytes.len()),
            Ok(b) => Sameness::Differs(bytes.len(), b.len()),
            Err(_) => Sameness::Missing,
        };
        entries.push((rel, same));
    }
    Ok(entries)
}

/// The tmp sibling a full-file write goes through: `path` + `.tmp`.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// File syncs (`fsync`/`fdatasync`) made through this crate.
static FILE_SYNCS: AtomicU64 = AtomicU64::new(0);
/// Directory syncs made through this crate.
static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

/// The syncs this process has made through this crate so far: every WAL
/// append, recovery truncation and [`write_atomic`] syncs a file, and WAL
/// creation and [`write_atomic`] sync directories. Plain counters for
/// tests that bound a run's syncs; they feed no artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncCounts {
    /// File syncs.
    pub files: u64,
    /// Directory syncs.
    pub dirs: u64,
}

/// The process-wide [`SyncCounts`].
pub fn sync_counts() -> SyncCounts {
    SyncCounts {
        files: FILE_SYNCS.load(Ordering::Relaxed),
        dirs: DIR_SYNCS.load(Ordering::Relaxed),
    }
}

/// Fsync a file's data and metadata, counted.
fn sync_file(file: &File) -> io::Result<()> {
    FILE_SYNCS.fetch_add(1, Ordering::Relaxed);
    file.sync_all()
}

/// Fsync a directory so the entries created or renamed in it survive a
/// machine crash. Best effort: a filesystem that cannot sync directories
/// is left as it is.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        DIR_SYNCS.fetch_add(1, Ordering::Relaxed);
        let _ = d.sync_all();
    }
}

/// `path.parent()`, treating the empty path (bare file name) as "no
/// parent" so `create_dir_all("")` is never attempted.
fn parent_dir(path: &Path) -> Option<&Path> {
    path.parent().filter(|p| !p.as_os_str().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("e2c-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_open_round_trips() {
        let path = tmp("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap();
        wal.append(&[0u8, 255, 7]).unwrap();
        assert_eq!(wal.record_count(), 3);
        drop(wal);
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(wal.record_count(), 3);
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), vec![0u8, 255, 7]]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmp("existing.wal");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, b"x").unwrap();
        assert!(Wal::create(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_makes_missing_directories() {
        let root = tmp("nested");
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("a").join("run.wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"x").unwrap();
        drop(wal);
        assert_eq!(read_records(&path).unwrap(), vec![b"x".to_vec()]);
        // The directory exists now; a second log beside the first reuses it.
        Wal::create(&root.join("a").join("other.wal")).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Build one valid frame for `payload`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::with_capacity(HEADER + payload.len());
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(&crc32(payload).to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    /// A declared length just *under* MAX_RECORD with only a short tail
    /// behind the header is a torn frame: the scan truncates at the frame
    /// boundary instead of slicing past the buffer.
    #[test]
    fn declared_len_near_max_with_short_tail_truncates() {
        let mut bytes = frame(b"good");
        let good_len = bytes.len();
        bytes.extend_from_slice(&(MAX_RECORD - 1).to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(b"short tail");
        let (records, valid) = scan_records(&bytes);
        assert_eq!(records, vec![b"good".to_vec()]);
        assert_eq!(valid, good_len);
    }

    /// A declared length *over* MAX_RECORD is corruption, not an
    /// allocation request — even when the bytes to back it exist.
    #[test]
    fn declared_len_over_max_is_corruption() {
        let mut bytes = (MAX_RECORD + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        let (records, valid) = scan_records(&bytes);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        // u32::MAX (the adversarial extreme: start + len wraps a u32) too.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        assert_eq!(scan_records(&bytes).1, 0);
    }

    /// Headers cut at every length short of 8 bytes are torn tails.
    #[test]
    fn truncated_headers_are_torn_tails() {
        let full = frame(b"payload");
        for cut in 0..HEADER {
            let (records, valid) = scan_records(&full[..cut]);
            assert!(records.is_empty(), "cut {cut}");
            assert_eq!(valid, 0, "cut {cut}");
        }
    }

    /// Torn-tail recovery through the real file path: a good record with
    /// a half-written second frame behind it opens to exactly the good
    /// record, truncates the file, and accepts further appends.
    #[test]
    fn open_truncates_torn_tail_and_appends() {
        let path = tmp("torn.wal");
        let _ = std::fs::remove_file(&path);
        let mut bytes = frame(b"alpha");
        let keep = bytes.len();
        let second = frame(b"beta");
        bytes.extend_from_slice(&second[..second.len() - 2]);
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"alpha".to_vec()]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep as u64);
        wal.append(b"gamma").unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    /// The in-memory scan and the file-backed open agree byte-for-byte on
    /// what survives an arbitrary corruption.
    #[test]
    fn scan_records_matches_open() {
        let path = tmp("scan-match.wal");
        let _ = std::fs::remove_file(&path);
        let mut bytes = frame(b"one");
        bytes.extend_from_slice(&frame(b"two"));
        bytes[HEADER + 1] ^= 0x40; // corrupt record one's payload
        std::fs::write(&path, &bytes).unwrap();
        let (records, valid) = scan_records(&bytes);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        let (_, opened) = Wal::open(&path).unwrap();
        assert_eq!(opened, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_view_replaces_content() {
        let path = tmp("view.txt");
        let _ = std::fs::remove_file(&path);
        write_view(&path, b"first, longer content").unwrap();
        write_view(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("txt.tmp").exists());
        // No parent directory is made: a view's owner lays out its tree.
        assert!(write_view(&tmp("no-such-dir").join("v.txt"), b"x").is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_tree_comparison_lists_every_entry_of_the_fresh_root() {
        let (fresh, other) = (tmp("tree-fresh"), tmp("tree-other"));
        for root in [&fresh, &other] {
            let _ = std::fs::remove_dir_all(root);
            std::fs::create_dir_all(root.join("d").join("e")).unwrap();
            std::fs::write(root.join("same.txt"), b"abc").unwrap();
        }
        std::fs::write(fresh.join("d").join("e").join("f.txt"), b"new").unwrap();
        std::fs::write(other.join("d").join("e").join("f.txt"), b"old!").unwrap();
        std::fs::write(fresh.join("only.txt"), b"x").unwrap();
        std::fs::create_dir_all(fresh.join("gone").join("sub")).unwrap();
        std::fs::write(fresh.join("gone").join("sub").join("g.txt"), b"g").unwrap();
        std::fs::write(other.join("stale.txt"), b"left by an earlier run").unwrap();
        let entries = compare_tree(&fresh, &other).unwrap();
        let want = [
            ("d/e/f.txt", Sameness::Differs(3, 4)),
            ("gone", Sameness::Missing),
            ("gone/sub", Sameness::Missing),
            ("gone/sub/g.txt", Sameness::Missing),
            ("only.txt", Sameness::Missing),
            ("same.txt", Sameness::Identical(3)),
        ];
        let got: Vec<(&str, Sameness)> = entries.iter().map(|(r, s)| (r.as_str(), *s)).collect();
        assert_eq!(got, want);
        // The other way round, the stale file is what is missing.
        let back = compare_tree(&other, &fresh).unwrap();
        assert!(back.contains(&("stale.txt".to_string(), Sameness::Missing)));
        assert!(compare_tree(&tmp("tree-none"), &other).is_err());
        for root in [&fresh, &other] {
            std::fs::remove_dir_all(root).unwrap();
        }
    }

    #[test]
    fn removing_a_view_tmp_tolerates_its_absence() {
        let path = tmp("torn-view.txt");
        std::fs::write(tmp_sibling(&path), b"half").unwrap();
        remove_view_tmp(&path).unwrap();
        assert!(!tmp_sibling(&path).exists());
        remove_view_tmp(&path).unwrap();
    }

    #[test]
    fn atomic_write_replaces_content() {
        let path = tmp("atomic.txt");
        let _ = std::fs::remove_file(&path);
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        assert!(!path.with_extension("txt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }
}
