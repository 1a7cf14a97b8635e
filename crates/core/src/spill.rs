//! Columnar on-disk spill files for the out-of-core pipeline.
//!
//! The streaming analysis path generates events directly into compact
//! on-disk *spill files* instead of materializing them in memory, then
//! folds those files back shard by shard. A spill file is a sequence of
//! CRC32-sealed [`journal`](crate::journal) lines; each line frames one
//! *chunk* — a batch of rows stored column by column as delta-encoded
//! zigzag varints, base64-armored so the sealed line stays valid UTF-8:
//!
//! ```text
//! {crc32:08x} c <kind> <cols> <base64(varint-columns)>
//! ```
//!
//! Columns in one chunk may have *different* lengths — fold-state
//! checkpoints exploit this to store heterogeneous vectors side by side.
//! Corruption never produces a wrong number: a chunk whose seal or
//! encoding is damaged is quarantined (counted, skipped), and a torn
//! final line — the signature of a killed writer — is reported as a
//! truncated tail rather than an error.
//!
//! [`ShardPlan`] carves the user-id space into contiguous ranges so that
//! per-shard files, folded in shard order, replay events in globally
//! ascending user order — the invariant the affinity analyses rely on.

use crate::faults::{self, FaultKind};
use crate::journal::{seal, unseal, Unsealed};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Injection site: one sealed chunk appended to a spill file.
pub const SITE_SPILL_WRITE: &str = "core.spill.write";

// --- varint / zigzag / base64 codec ----------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(BASE64_ALPHABET[(triple >> 18) as usize & 0x3F] as char);
        out.push(BASE64_ALPHABET[(triple >> 12) as usize & 0x3F] as char);
        if chunk.len() > 1 {
            out.push(BASE64_ALPHABET[(triple >> 6) as usize & 0x3F] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(BASE64_ALPHABET[triple as usize & 0x3F] as char);
        } else {
            out.push('=');
        }
    }
    out
}

/// Marks a byte outside the base64 alphabet in [`BASE64_DECODE`].
const INVALID: u8 = 0xFF;

/// 6-bit value of every alphabet byte; [`INVALID`] for all others,
/// `=` included (padding is recognised by position, not by table).
const BASE64_DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

fn base64_decode(bytes: &[u8]) -> Option<Vec<u8>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for quad in bytes.chunks_exact(4) {
        // At most two trailing `=`; a third (or one further in) is not
        // in the table and rejects the quad below.
        let pad = match quad {
            [.., b'=', b'='] => 2,
            [.., b'='] => 1,
            _ => 0,
        };
        let mut triple = 0u32;
        let mut seen = 0u8;
        for &c in &quad[..4 - pad] {
            let value = BASE64_DECODE[usize::from(c)];
            seen |= value;
            triple = (triple << 6) | u32::from(value);
        }
        // Alphabet values fit in six bits, so the OR reaches INVALID
        // exactly when some byte was not in the alphabet.
        if seen == INVALID {
            return None;
        }
        triple <<= 6 * pad;
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Some(out)
}

/// Encodes columns (independent lengths allowed) into a chunk payload:
/// `"c <kind> <cols> <base64>"`, ready for sealing.
pub fn encode_chunk(kind: &str, columns: &[&[u64]]) -> String {
    let mut body = Vec::new();
    for column in columns {
        push_varint(&mut body, column.len() as u64);
        let mut previous = 0i64;
        for &value in *column {
            let current = value as i64;
            push_varint(&mut body, zigzag(current.wrapping_sub(previous)));
            previous = current;
        }
    }
    format!("c {kind} {} {}", columns.len(), base64_encode(&body))
}

/// Decodes a chunk payload produced by [`encode_chunk`]. Returns the
/// chunk kind and its columns, or `None` on any structural damage.
pub fn decode_chunk(payload: &str) -> Option<(String, Vec<Vec<u64>>)> {
    let mut parts = payload.splitn(4, ' ');
    if parts.next()? != "c" {
        return None;
    }
    let kind = parts.next()?.to_string();
    let cols: usize = parts.next()?.parse().ok()?;
    let body = base64_decode(parts.next()?.as_bytes())?;
    let mut pos = 0usize;
    let mut columns = Vec::with_capacity(cols);
    for _ in 0..cols {
        let len = read_varint(&body, &mut pos)? as usize;
        // A damaged length varint could claim an absurd column; bound it
        // by what the remaining bytes could possibly hold (≥1 byte each).
        if len > body.len().saturating_sub(pos) {
            return None;
        }
        let mut column = Vec::with_capacity(len);
        let mut previous = 0i64;
        for _ in 0..len {
            let delta = unzigzag(read_varint(&body, &mut pos)?);
            previous = previous.wrapping_add(delta);
            column.push(previous as u64);
        }
        columns.push(column);
    }
    if pos != body.len() {
        return None;
    }
    Some((kind, columns))
}

// --- shard plan ------------------------------------------------------

/// Carves `users` ids into `shards` contiguous ascending ranges.
///
/// Ranges are half-open `[start, end)` over raw user ids; every id maps
/// to exactly one shard and concatenating shards in index order covers
/// ids in ascending order — the property that makes per-shard folds
/// order-equivalent to a single global pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    users: u64,
    width: u64,
    shards: usize,
}

impl ShardPlan {
    /// Plans `shards` ranges over ids `0..users`. `shards` is clamped to
    /// at least 1; empty id spaces get one empty shard.
    pub fn new(users: u64, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let width = users.div_ceil(shards as u64).max(1);
        ShardPlan {
            users,
            width,
            shards,
        }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `user`. Ids at or past `users` land in the last
    /// shard, so late-registered ids (spam users) still have a home.
    pub fn shard_of(&self, user: u64) -> usize {
        ((user / self.width) as usize).min(self.shards - 1)
    }

    /// Half-open id range `[start, end)` of shard `shard`.
    pub fn range_of(&self, shard: usize) -> (u64, u64) {
        let start = self.width * shard as u64;
        let end = if shard + 1 == self.shards {
            u64::MAX
        } else {
            self.width * (shard as u64 + 1)
        };
        (start.min(self.users), end)
    }
}

// --- writer ----------------------------------------------------------

/// True when `file` is non-empty and its last byte is not a newline.
/// Reads that one byte only, so checking a long merge log costs the
/// same as checking a short one.
fn ends_torn(file: &mut File) -> std::io::Result<bool> {
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(false);
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::Start(len - 1))?;
    file.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// Appends sealed columnar chunks to one spill file.
///
/// The writer consults the fault injector at [`SITE_SPILL_WRITE`] once
/// per chunk (the chunk ordinal is the site index): an `IoError` is
/// retried once and only then surfaces; a `PartialWrite` leaves a torn,
/// newline-less prefix of the sealed line on disk; `Corrupt` flips one
/// payload byte after sealing, so the reader's CRC check must catch it.
pub struct SpillWriter {
    writer: BufWriter<File>,
    chunks: u64,
    bytes: u64,
}

impl SpillWriter {
    /// Creates (truncating) the spill file at `path`.
    pub fn create(path: &Path) -> std::io::Result<SpillWriter> {
        Ok(SpillWriter {
            writer: BufWriter::new(File::create(path)?),
            chunks: 0,
            bytes: 0,
        })
    }

    /// Opens `path` for appending (creating it if absent), preserving
    /// existing chunks — the mode checkpoint logs use so a resumed merge
    /// extends the history instead of erasing it. If the file ends in a
    /// torn, newline-less line (killed writer), a newline is added first
    /// so the next sealed chunk starts clean; the torn line then reads
    /// as one quarantined/torn entry, never as part of a new chunk.
    pub fn open_append(path: &Path) -> std::io::Result<SpillWriter> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let needs_newline = ends_torn(&mut file)?;
        let mut writer = BufWriter::new(file);
        if needs_newline {
            writer.write_all(b"\n")?;
        }
        Ok(SpillWriter {
            writer,
            chunks: 0,
            bytes: 0,
        })
    }

    /// Seals and appends one chunk. Returns the bytes appended.
    pub fn append(&mut self, kind: &str, columns: &[&[u64]]) -> std::io::Result<u64> {
        let index = self.chunks;
        self.chunks += 1;
        let mut line = seal(&encode_chunk(kind, columns)).into_bytes();
        let mut fault = faults::roll(SITE_SPILL_WRITE, index, 0);
        if fault == Some(FaultKind::IoError) {
            // Retry-once semantics, matching the journal writers: an
            // `AtIndex` rule clears on attempt 1, a second failure is real.
            fault = faults::roll(SITE_SPILL_WRITE, index, 1);
            if fault == Some(FaultKind::IoError) {
                return Err(std::io::Error::other("injected spill write failure"));
            }
        }
        match fault {
            Some(FaultKind::PartialWrite) => {
                // Torn write: half the sealed line, no newline — exactly
                // what a kill mid-append leaves behind.
                let keep = (line.len() / 2).max(1);
                line.truncate(keep);
                self.writer.write_all(&line)?;
                self.bytes += line.len() as u64;
                return Ok(line.len() as u64);
            }
            Some(FaultKind::Corrupt) => {
                // Flip a payload byte *after* sealing so the CRC check
                // must be the thing that catches it.
                let at = 9 + (index as usize % (line.len() - 9));
                line[at] ^= 0x20;
            }
            _ => {}
        }
        line.push(b'\n');
        self.writer.write_all(&line)?;
        self.bytes += line.len() as u64;
        Ok(line.len() as u64)
    }

    /// Chunks appended so far (including torn/corrupted ones).
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes buffered chunks and closes the writer, reporting totals
    /// to the volatile spill counters.
    pub fn finish(mut self) -> std::io::Result<(u64, u64)> {
        self.writer.flush()?;
        appstore_obs::counter_volatile(appstore_obs::names::SPILL_CHUNKS_WRITTEN, self.chunks);
        appstore_obs::counter_volatile(appstore_obs::names::SPILL_BYTES_WRITTEN, self.bytes);
        Ok((self.chunks, self.bytes))
    }
}

// --- reader ----------------------------------------------------------

/// What a [`SpillReader`] saw while scanning one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillHealth {
    /// Chunks decoded successfully.
    pub chunks_read: u64,
    /// Chunks skipped: seal mismatch or undecodable payload.
    pub quarantined: u64,
    /// True when the final line was torn (no newline / damaged) — the
    /// signature of a writer killed mid-append.
    pub torn_tail: bool,
}

/// Streams decoded chunks back out of a spill file.
///
/// Damage is contained, never propagated: an interior bad line counts as
/// quarantined and is skipped; a bad *final* line is reported as a torn
/// tail. Either way `next_chunk` keeps returning only verified chunks.
pub struct SpillReader {
    lines: std::iter::Peekable<std::io::Lines<BufReader<File>>>,
    health: SpillHealth,
    bytes_read: u64,
}

impl SpillReader {
    /// Opens the spill file at `path`.
    pub fn open(path: &Path) -> std::io::Result<SpillReader> {
        Ok(SpillReader {
            lines: BufReader::new(File::open(path)?).lines().peekable(),
            health: SpillHealth::default(),
            bytes_read: 0,
        })
    }

    /// The next verified chunk `(kind, columns)`, or `None` at the end
    /// of the readable file.
    pub fn next_chunk(&mut self) -> Option<(String, Vec<Vec<u64>>)> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                // An unreadable line (I/O error, invalid UTF-8) ends the
                // readable region; treat it like a torn tail.
                Err(_) => {
                    self.health.torn_tail = true;
                    return None;
                }
            };
            self.bytes_read += line.len() as u64 + 1;
            let decoded = match unseal(&line) {
                Unsealed::Valid(payload) => decode_chunk(payload),
                Unsealed::Mismatch | Unsealed::Bare(_) => None,
            };
            match decoded {
                Some(chunk) => {
                    self.health.chunks_read += 1;
                    return Some(chunk);
                }
                None if self.lines.peek().is_none() => {
                    // Damage on the last line is a torn tail, not silent
                    // data loss in the middle of the file.
                    self.health.torn_tail = true;
                    return None;
                }
                None => {
                    self.health.quarantined += 1;
                    appstore_obs::counter(appstore_obs::names::SPILL_CHUNKS_QUARANTINED, 1);
                }
            }
        }
    }

    /// Scan health so far (final after `next_chunk` returns `None`).
    pub fn health(&self) -> SpillHealth {
        self.health
    }

    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// Folds every verified chunk of `path` through `f`, reporting merge
/// totals to the volatile spill counters. Returns the file's health.
pub fn fold_spill_file(
    path: &Path,
    mut f: impl FnMut(&str, Vec<Vec<u64>>),
) -> std::io::Result<SpillHealth> {
    let mut reader = SpillReader::open(path)?;
    while let Some((kind, columns)) = reader.next_chunk() {
        f(&kind, columns);
    }
    let health = reader.health();
    appstore_obs::counter_volatile(appstore_obs::names::SPILL_CHUNKS_MERGED, health.chunks_read);
    appstore_obs::counter_volatile(appstore_obs::names::SPILL_BYTES_MERGED, reader.bytes_read());
    Ok(health)
}

/// Convenience: a spill file path `dir/<stem>.spill`.
pub fn spill_path(dir: &Path, stem: &str) -> PathBuf {
    dir.join(format!("{stem}.spill"))
}

// --- resident-memory probe -------------------------------------------

/// Peak resident set size of this process in bytes, from Linux
/// `/proc/self/status` (`VmHWM`). `None` on other platforms — callers
/// degrade to "cap not enforceable here".
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::faults::{with_injector, FaultInjector, FaultPlan, FaultTrigger};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spill-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 300, -301, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn base64_round_trip() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = base64_encode(&bytes);
            assert_eq!(base64_decode(text.as_bytes()).unwrap(), bytes, "len {len}");
        }
        assert_eq!(base64_decode(b"a"), None, "bad length");
        assert_eq!(base64_decode(b"a=b="), None, "interior padding");
        assert_eq!(base64_decode(b"a!=="), None, "bad alphabet");
    }

    /// The per-character `match` decoder the lookup table replaced; the
    /// table decoder must accept and reject exactly what it does.
    fn base64_decode_reference(bytes: &[u8]) -> Option<Vec<u8>> {
        fn value_of(c: u8) -> Option<u32> {
            match c {
                b'A'..=b'Z' => Some(u32::from(c - b'A')),
                b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
                b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
                b'+' => Some(62),
                b'/' => Some(63),
                _ => None,
            }
        }
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for quad in bytes.chunks(4) {
            let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
            if pad > 2 || quad[..4 - pad].contains(&b'=') {
                return None;
            }
            let mut triple = 0u32;
            for &c in &quad[..4 - pad] {
                triple = (triple << 6) | value_of(c)?;
            }
            triple <<= 6 * pad;
            out.push((triple >> 16) as u8);
            if pad < 2 {
                out.push((triple >> 8) as u8);
            }
            if pad < 1 {
                out.push(triple as u8);
            }
        }
        Some(out)
    }

    #[test]
    fn base64_decoder_edge_cases_match_reference() {
        let cases: [&[u8]; 14] = [
            b"",
            b"====",
            b"A===",
            b"AA==",
            b"AAA=",
            b"AAAA",
            b"=AAA",
            b"A=A=",
            b"AA==AAAA",
            b"AA=\n",
            b"AA\x00=",
            b"AA\xff=",
            b"QUJD\x80QUJ",
            b"QUJDQ",
        ];
        for case in cases {
            assert_eq!(
                base64_decode(case),
                base64_decode_reference(case),
                "{case:?}"
            );
        }
    }

    /// Alphabet bytes, `=`, and bytes the alphabet lacks (`\n`, space,
    /// `-`, `_`, 0x00, ≥ 0x80) drawn with weights that make valid quads
    /// and near-miss quads both common.
    fn mixed_byte(choice: u8, raw: u8) -> u8 {
        match choice {
            0..=11 => BASE64_ALPHABET[usize::from(raw) % 64],
            12..=13 => b'=',
            14 => [b'\n', b' ', b'-', b'_', 0x00, b'.'][usize::from(raw) % 6],
            _ => raw | 0x80,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn base64_decoder_matches_reference_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
        ) {
            proptest::prop_assert_eq!(base64_decode(&bytes), base64_decode_reference(&bytes));
        }

        #[test]
        fn base64_decoder_matches_reference_on_near_alphabet_bytes(
            drawn in proptest::collection::vec((0u8..16, proptest::prelude::any::<u8>()), 0..48),
            trim in 0usize..4,
        ) {
            let mut bytes: Vec<u8> = drawn.iter().map(|&(c, r)| mixed_byte(c, r)).collect();
            // Mostly whole quads, sometimes a bad length.
            let keep = bytes.len() - bytes.len() % 4;
            bytes.truncate(if trim == 0 { bytes.len() } else { keep });
            proptest::prop_assert_eq!(base64_decode(&bytes), base64_decode_reference(&bytes));
        }

        #[test]
        fn base64_decoder_matches_reference_on_encoded_bytes(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            flip in (0usize..128, proptest::prelude::any::<u8>()),
        ) {
            let mut text = base64_encode(&payload).into_bytes();
            proptest::prop_assert_eq!(base64_decode(&text), Some(payload.clone()));
            // One damaged byte anywhere, then both must agree.
            if !text.is_empty() {
                let at = flip.0 % text.len();
                text[at] = flip.1;
            }
            proptest::prop_assert_eq!(base64_decode(&text), base64_decode_reference(&text));
        }
    }

    #[test]
    fn open_append_terminates_only_a_torn_tail() {
        let dir = temp_dir("append");
        let path = spill_path(&dir, "log");
        let lines_of = |path: &Path| -> Vec<String> {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        };
        // Absent, then empty: nothing to terminate.
        let mut writer = SpillWriter::open_append(&path).unwrap();
        writer.append("fold", &[&[1]]).unwrap();
        writer.finish().unwrap();
        std::fs::write(&path, b"").unwrap();
        let mut writer = SpillWriter::open_append(&path).unwrap();
        writer.append("fold", &[&[1]]).unwrap();
        writer.finish().unwrap();
        assert_eq!(lines_of(&path).len(), 1, "empty file gains one line");
        // Newline-terminated: appends directly, no blank line.
        let mut writer = SpillWriter::open_append(&path).unwrap();
        writer.append("fold", &[&[2]]).unwrap();
        writer.finish().unwrap();
        let lines = lines_of(&path);
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|line| !line.is_empty()));
        // Torn tail: the torn line is closed off, the new chunk reads.
        let mut text = std::fs::read(&path).unwrap();
        text.extend_from_slice(b"0badc0de c fold 1 AQ");
        std::fs::write(&path, &text).unwrap();
        let mut writer = SpillWriter::open_append(&path).unwrap();
        writer.append("fold", &[&[3]]).unwrap();
        writer.finish().unwrap();
        let lines = lines_of(&path);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2], "0badc0de c fold 1 AQ");
        let mut values = Vec::new();
        let health = fold_spill_file(&path, |_, cols| values.push(cols[0][0])).unwrap();
        assert_eq!(values, vec![1, 2, 3]);
        assert_eq!(health.quarantined, 1, "the torn line is quarantined");
        assert!(!health.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_round_trips_with_ragged_columns() {
        let a = vec![5u64, 5, 9, 1_000_000, 0];
        let b = vec![u64::MAX, 0, u64::MAX];
        let c: Vec<u64> = Vec::new();
        let payload = encode_chunk("dl", &[&a, &b, &c]);
        let (kind, columns) = decode_chunk(&payload).unwrap();
        assert_eq!(kind, "dl");
        assert_eq!(columns, vec![a, b, c]);
    }

    #[test]
    fn truncated_or_garbled_payloads_are_rejected() {
        let payload = encode_chunk("dl", &[&[1, 2, 3]]);
        assert!(decode_chunk(&payload[..payload.len() - 4]).is_none());
        assert!(decode_chunk("c dl 2 AAAA").is_none(), "missing column");
        assert!(decode_chunk("x dl 1 AAAA").is_none(), "wrong magic");
        assert!(decode_chunk("c dl huge AAAA").is_none(), "bad col count");
    }

    #[test]
    fn shard_plan_covers_ids_contiguously() {
        for (users, shards) in [(10u64, 3usize), (1, 8), (0, 4), (1000, 1), (7, 7)] {
            let plan = ShardPlan::new(users, shards);
            let mut previous = None;
            for id in 0..users {
                let shard = plan.shard_of(id);
                assert!(shard < plan.shards());
                if let Some(p) = previous {
                    assert!(shard >= p, "shards ascend with ids");
                }
                previous = Some(shard);
                let (start, end) = plan.range_of(shard);
                assert!(start <= id && id < end);
            }
            // Ids past the planned space land in the final shard.
            assert_eq!(plan.shard_of(users + 99), plan.shards() - 1);
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = temp_dir("roundtrip");
        let path = spill_path(&dir, "events");
        let mut writer = SpillWriter::create(&path).unwrap();
        writer.append("dl", &[&[1, 2, 3], &[7, 7, 7]]).unwrap();
        writer
            .append("cm", &[&[9], &[0], &[4], &[1], &[5]])
            .unwrap();
        writer.finish().unwrap();

        let mut reader = SpillReader::open(&path).unwrap();
        let (kind, cols) = reader.next_chunk().unwrap();
        assert_eq!((kind.as_str(), cols.len()), ("dl", 2));
        let (kind, cols) = reader.next_chunk().unwrap();
        assert_eq!((kind.as_str(), cols.len()), ("cm", 5));
        assert!(reader.next_chunk().is_none());
        let health = reader.health();
        assert_eq!(health.chunks_read, 2);
        assert_eq!(health.quarantined, 0);
        assert!(!health.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_damage_quarantines_tail_damage_is_torn() {
        let dir = temp_dir("damage");
        let path = spill_path(&dir, "events");
        let mut writer = SpillWriter::create(&path).unwrap();
        for i in 0..3u64 {
            writer.append("dl", &[&[i, i + 1]]).unwrap();
        }
        writer.finish().unwrap();

        // Flip a byte in the middle line: quarantined, neighbors intact.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let flipped = lines[1].replace(' ', "_");
        lines[1] = flipped;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let mut chunks = Vec::new();
        let health = fold_spill_file(&path, |_, cols| chunks.push(cols)).unwrap();
        assert_eq!(health.chunks_read, 2);
        assert_eq!(health.quarantined, 1);
        assert!(!health.torn_tail);
        assert_eq!(chunks[0][0], vec![0, 1]);
        assert_eq!(chunks[1][0], vec![2, 3]);

        // Truncate the last line mid-way: torn tail, prefix intact.
        let mut torn = text.clone();
        torn.truncate(text.len() - 10);
        std::fs::write(&path, torn).unwrap();
        let mut count = 0;
        let health = fold_spill_file(&path, |_, _| count += 1).unwrap();
        assert_eq!(count, 2);
        assert!(health.torn_tail);
        assert_eq!(health.quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_corrupt_and_partial_writes_are_contained() {
        let dir = temp_dir("faults");
        let path = spill_path(&dir, "events");
        let injector = FaultInjector::new(
            FaultPlan::seeded(77)
                .rule(
                    SITE_SPILL_WRITE,
                    FaultKind::Corrupt,
                    FaultTrigger::AtIndex(1),
                )
                .rule(
                    SITE_SPILL_WRITE,
                    FaultKind::PartialWrite,
                    FaultTrigger::AtIndex(3),
                ),
        );
        with_injector(&injector, || {
            let mut writer = SpillWriter::create(&path).unwrap();
            for i in 0..4u64 {
                writer.append("dl", &[&[i * 10]]).unwrap();
            }
            writer.finish().unwrap();
        });
        let mut values = Vec::new();
        let health = fold_spill_file(&path, |_, cols| values.push(cols[0][0])).unwrap();
        // Chunk 1 corrupted (quarantined), chunk 3 torn (tail); 0 and 2 read.
        assert_eq!(values, vec![0, 20]);
        assert_eq!(health.quarantined, 1);
        assert!(health.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_error_retries_once_then_surfaces() {
        let dir = temp_dir("ioerr");
        let once = FaultInjector::new(FaultPlan::seeded(3).rule(
            SITE_SPILL_WRITE,
            FaultKind::IoError,
            FaultTrigger::AtIndex(0),
        ));
        with_injector(&once, || {
            let path = spill_path(&dir, "retry");
            let mut writer = SpillWriter::create(&path).unwrap();
            // AtIndex clears on attempt 1, so the retry succeeds.
            writer.append("dl", &[&[1]]).unwrap();
            writer.finish().unwrap();
        });
        let always = FaultInjector::new(FaultPlan::seeded(3).rule(
            SITE_SPILL_WRITE,
            FaultKind::IoError,
            FaultTrigger::Probability(1.0),
        ));
        with_injector(&always, || {
            let path = spill_path(&dir, "fail");
            let mut writer = SpillWriter::create(&path).unwrap();
            assert!(writer.append("dl", &[&[1]]).is_err());
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().unwrap();
            assert!(rss > 0);
        }
    }
}
