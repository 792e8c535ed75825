//! The workspace's one byte codec: the FNV-1a hash, a little-endian
//! [`Encoder`]/[`Decoder`] pair, and [`BlobStore`], the checksummed,
//! versioned, atomically written entry store behind the characterization
//! and stage-result caches. The service wire protocol encodes its messages
//! with the same pair and checksums its frames with the same hash.
//!
//! ## Encoding
//!
//! Integers are little-endian. An `f64` is stored as its IEEE-754 bit
//! pattern, so every value (signed zeros and NaN payloads included)
//! round-trips exactly. Strings and slices carry a `u64` length prefix.
//! Decoding is cursor-style: every accessor returns `None` on short or
//! inconsistent input, and every length prefix obeys one rule — a count
//! must fit in the bytes that remain before anything is allocated for it.
//!
//! ## Entries
//!
//! ```text
//! magic           8 bytes   one per store, e.g. b"RLCCHAR\0"
//! format version  4 bytes   u32 LE
//! key             8 bytes   u64 LE, the entry's content key, echoed
//! payload length  8 bytes   u64 LE
//! payload         N bytes   the view's encoding
//! checksum        8 bytes   u64 LE, FNV-1a over the payload
//! ```
//!
//! A load re-verifies every envelope field and hands the payload to the
//! view's decoder as a slice; any mismatch — missing file, truncation, a
//! stale version, a foreign key, a flipped bit, trailing bytes — is a miss.
//! A store writes a process- and sequence-unique temporary file in the
//! store directory, syncs it and renames it into place, so a concurrent
//! reader sees either no entry or a complete one, never a torn write.
//!
//! ```
//! use rlc_numeric::codec::{Decoder, Encoder};
//!
//! let mut e = Encoder::new();
//! e.str("stage/3");
//! e.f64s(&[1.5e-12, -0.0]);
//! let bytes = e.finish();
//!
//! let mut d = Decoder::new(&bytes);
//! assert_eq!(d.str().as_deref(), Some("stage/3"));
//! assert_eq!(d.f64s().map(|v| v.len()), Some(2));
//! assert!(d.done());
//! ```

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit FNV-1a: tiny, dependency-free and stable across platforms, which
/// is what content keys shared through a directory and checksums on a
/// socket need.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only byte encoder (see the module docs for the encoding).
#[derive(Debug, Default)]
pub struct Encoder(Vec<u8>);

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder(Vec::new())
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a bool as one byte (`0` or `1`).
    pub fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Cursor-style decoder over a byte slice; every accessor returns `None`
/// past the end or on an invalid value.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a bool (strictly `0` or `1`).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// `n` as a `usize` when `n` items of at least `item_bytes` bytes each
    /// fit in the bytes that remain — the one length-prefix rule, checked
    /// before anything is allocated for the items.
    pub fn fits(&self, n: u64, item_bytes: usize) -> Option<usize> {
        let n = usize::try_from(n).ok()?;
        (n.checked_mul(item_bytes)? <= self.bytes.len() - self.pos).then_some(n)
    }

    /// Reads a `u64` count of items that each encode to at least
    /// `item_bytes` bytes, checked with [`Decoder::fits`].
    pub fn count(&mut self, item_bytes: usize) -> Option<usize> {
        let n = self.u64()?;
        self.fits(n, item_bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Option<Vec<u64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Whether every byte has been consumed (encodings must decode exactly).
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Distinguishes the temporary files of concurrent writers within one
/// process (threads share a PID).
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A directory of checksummed, versioned entries addressed by a 64-bit
/// content key (see the module docs for the envelope). Typed caches are
/// thin views over it: they own the key recipe and the payload encoding,
/// the store owns everything between the payload and the file.
#[derive(Debug, Clone)]
pub struct BlobStore {
    dir: PathBuf,
    magic: &'static [u8; 8],
    version: u32,
    prefix: &'static str,
}

impl BlobStore {
    /// Opens (creating if necessary) the directory of a store whose entries
    /// carry `magic` and format `version` and live at
    /// `<prefix>-<key as 16 hex digits>.bin`.
    ///
    /// # Errors
    /// The I/O error when the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        magic: &'static [u8; 8],
        version: u32,
        prefix: &'static str,
    ) -> std::io::Result<BlobStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(BlobStore {
            dir,
            magic,
            version,
            prefix,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the entry for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}-{key:016x}.bin", self.prefix))
    }

    /// Reads the entry for `key`, verifies its envelope and hands the
    /// payload to `decode`. `None` when there is no entry, when any envelope
    /// check fails, or when `decode` rejects the payload.
    pub fn load<T>(&self, key: u64, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        decode(self.payload(&bytes, key)?)
    }

    /// The payload of a sealed entry, when every envelope field checks out.
    fn payload<'a>(&self, bytes: &'a [u8], key: u64) -> Option<&'a [u8]> {
        let mut d = Decoder::new(bytes);
        if d.take(self.magic.len())? != self.magic || d.u32()? != self.version || d.u64()? != key {
            return None;
        }
        let len = d.count(1)?;
        let payload = d.take(len)?;
        let checksum = d.u64()?;
        (d.done() && fnv1a(payload) == checksum).then_some(payload)
    }

    /// Seals `payload` into a full entry for `key`.
    fn seal(&self, key: u64, payload: &[u8]) -> Vec<u8> {
        let mut e = Encoder(Vec::with_capacity(payload.len() + 36));
        e.0.extend_from_slice(self.magic);
        e.u32(self.version);
        e.u64(key);
        e.u64(payload.len() as u64);
        e.0.extend_from_slice(payload);
        e.u64(fnv1a(payload));
        e.0
    }

    /// Seals `payload` and publishes it as the entry for `key`: write a
    /// unique temporary file, `sync_all` it, rename it into place. On
    /// failure the temporary file is removed.
    ///
    /// # Errors
    /// The I/O error of the failed step.
    pub fn store(&self, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{}-{key:016x}.{}.{nonce}.tmp",
            self.prefix,
            std::process::id()
        ));
        let write = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&self.seal(key, payload))?;
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(key))
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // The published 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn primitives_round_trip_bit_identically() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u16(65535);
        e.u32(123456);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.f64(1.625e-13);
        e.str("driver/stage #3 — μm");
        e.u64s(&[1, 2, 3]);
        e.f64s(&[f64::NAN, 2.5]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.bool(), Some(true));
        assert_eq!(d.u16(), Some(65535));
        assert_eq!(d.u32(), Some(123456));
        assert_eq!(d.u64(), Some(u64::MAX - 1));
        assert_eq!(d.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(d.f64(), Some(1.625e-13));
        assert_eq!(d.str().as_deref(), Some("driver/stage #3 — μm"));
        assert_eq!(d.u64s(), Some(vec![1, 2, 3]));
        let floats = d.f64s().unwrap();
        assert_eq!(floats[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(floats[1], 2.5);
        assert!(d.done());
        // Short buffers: typed None, never a panic or over-read.
        let mut d = Decoder::new(&bytes[..3]);
        let _ = d.u8();
        let _ = d.bool();
        assert_eq!(d.u16(), None);
        // A bool is strictly 0 or 1.
        assert_eq!(Decoder::new(&[2]).bool(), None);
        // A corrupt length larger than the buffer is caught before
        // allocation.
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).str(), None);
        assert_eq!(Decoder::new(&bytes).u64s(), None);
        assert_eq!(Decoder::new(&bytes).f64s(), None);
    }

    #[test]
    fn counts_must_fit_in_the_remaining_bytes() {
        let mut e = Encoder::new();
        e.u64(3);
        e.u64(0);
        let bytes = e.finish();
        // Three items of at most 2 bytes fit in the 8 that remain; three of
        // 3 bytes do not.
        assert_eq!(Decoder::new(&bytes).count(2), Some(3));
        assert_eq!(Decoder::new(&bytes).count(3), None);
        let d = Decoder::new(&bytes);
        assert_eq!(d.fits(16, 1), Some(16));
        assert_eq!(d.fits(17, 1), None);
        assert_eq!(d.fits(u64::MAX, 8), None);
    }

    const MAGIC: &[u8; 8] = b"RLCTEST\0";

    fn store(name: &str) -> BlobStore {
        let dir = std::env::temp_dir().join(format!("rlc-blobstore-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        BlobStore::open(dir, MAGIC, 3, "blob").unwrap()
    }

    fn read_back(store: &BlobStore, key: u64) -> Option<Vec<u8>> {
        store.load(key, |payload| Some(payload.to_vec()))
    }

    #[test]
    fn round_trip_returns_the_payload() {
        let store = store("roundtrip");
        assert_eq!(read_back(&store, 7), None, "a missing entry is a miss");
        store.store(7, b"payload bytes").unwrap();
        assert_eq!(read_back(&store, 7).as_deref(), Some(&b"payload bytes"[..]));
        let name = store.entry_path(7);
        assert_eq!(
            name.file_name().unwrap().to_str(),
            Some("blob-0000000000000007.bin")
        );
        // The decoder's verdict is the load's verdict.
        assert_eq!(store.load(7, |_| None::<()>), None);
        // An empty payload is a valid entry too.
        store.store(8, b"").unwrap();
        assert_eq!(read_back(&store, 8), Some(Vec::new()));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn every_truncation_and_single_byte_flip_is_a_miss() {
        let store = store("damage");
        store.store(11, b"checksummed payload").unwrap();
        let path = store.entry_path(11);
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert_eq!(read_back(&store, 11), None, "cut at {cut}");
        }
        for at in 0..good.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = good.clone();
                flipped[at] ^= mask;
                fs::write(&path, &flipped).unwrap();
                assert_eq!(read_back(&store, 11), None, "byte {at} ^ {mask:#x}");
            }
        }
        let mut long = good.clone();
        long.push(0);
        fs::write(&path, &long).unwrap();
        assert_eq!(read_back(&store, 11), None, "trailing byte");
        fs::write(&path, &good).unwrap();
        assert!(read_back(&store, 11).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_wrong_magic_version_or_key_is_a_miss() {
        let store = store("foreign");
        store.store(21, b"abc").unwrap();
        let dir = store.dir().to_path_buf();
        let other_magic = BlobStore::open(&dir, b"RLCOTHR\0", 3, "blob").unwrap();
        let other_version = BlobStore::open(&dir, MAGIC, 4, "blob").unwrap();
        assert_eq!(read_back(&other_magic, 21), None);
        assert_eq!(read_back(&other_version, 21), None);
        // An entry renamed under another key echoes the wrong key.
        fs::rename(store.entry_path(21), store.entry_path(22)).unwrap();
        assert_eq!(read_back(&store, 22), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_leaves_no_temp_file() {
        let store = store("failed");
        // The entry path is a directory, so the final rename fails.
        fs::create_dir_all(store.entry_path(31)).unwrap();
        assert!(store.store(31, b"never published").is_err());
        let leftovers: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(store.dir());
    }
}
