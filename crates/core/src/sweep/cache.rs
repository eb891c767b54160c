//! Content-addressed result cache for sweep cells.
//!
//! A cell's result is fully determined by `(program, configuration)`:
//! simulation is deterministic per seed, and the seed lives in the
//! configuration. The cache therefore keys each entry by a SHA-256 over
//!
//! * a **schema version** (bumped whenever the entry format or the
//!   meaning of a run changes — e.g. the runner's cycle budget),
//! * the **program hash** inputs: benchmark name, the mode's source
//!   text, and the compiler's schedule restriction (the compiled
//!   program is a pure function of these plus the configuration), and
//! * the **configuration fingerprint**: every field of
//!   [`MachineConfig`], floats by bit pattern.
//!
//! A sweep hashes the part of the key text that depends only on
//! `(bench, mode)` once ([`KeyPrefix`]) and finishes each cell's key
//! from a copy of that hash state.
//!
//! Entries are single JSON files under the cache directory named by
//! their key, written atomically (temp file + rename) so a killed sweep
//! never leaves a half-written entry that later poisons a resume. They
//! are read back as canonical text only: one linear pass over the exact
//! layout [`ResultCache::store`] writes, with no JSON tree. *Any* read
//! problem — missing file, truncation, corruption, a stale schema, a
//! hand-edited or reordered entry — degrades to a miss and a recompute;
//! the cache can always be deleted wholesale.

use super::codec::{decode_stats, escape_json, stats_to_json, Cursor};
use crate::mode::MachineMode;
use pc_isa::MachineConfig;
use pc_sim::RunStats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version of the cache entry schema and run semantics. Bump on any
/// change to the entry format, the codec, or the runner's behaviour
/// (e.g. the cycle budget) — old entries then miss and are recomputed.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// SHA-256 (pure Rust; the offline build has no hashing crate)
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Message padding: `0x80`, then zeros up to 56 bytes mod 64.
const PAD: [u8; 64] = {
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad
};

/// Incremental SHA-256. The state is `Clone`, so a shared prefix can be
/// hashed once and each message finished from a copy of it.
#[derive(Debug, Clone)]
pub(crate) struct Sha256 {
    h: [u32; 8],
    /// The start of a block still waiting for the rest of its bytes.
    block: [u8; 64],
    filled: usize,
    /// Message bytes so far.
    len: u64,
}

impl Sha256 {
    /// The state of an empty message.
    pub(crate) fn new() -> Sha256 {
        Sha256 {
            h: H0,
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    /// Appends `data` to the message.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (64 - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            let block = self.block;
            compress(&mut self.h, &block);
            self.filled = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.h, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The digest of the message, as 64 lowercase hex digits.
    pub(crate) fn finish(mut self) -> String {
        let bit_len = self.len.wrapping_mul(8);
        // Pad: message || 0x80 || zeros || 64-bit bit length.
        self.update(&PAD[..1 + (119 - self.filled) % 64]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.filled, 0);
        let mut hex = String::with_capacity(64);
        for word in self.h {
            let _ = write!(hex, "{word:08x}");
        }
        hex
    }
}

/// One SHA-256 compression round over a 64-byte block.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (x, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *x = x.wrapping_add(v);
    }
}

/// SHA-256 digest of `data`, as 64 lowercase hex digits.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// Canonical text fingerprint of a [`MachineConfig`]: every field that
/// can influence a run, in a fixed order, floats by bit pattern. Two
/// configs fingerprint equal iff a simulation cannot tell them apart.
pub fn config_fingerprint(config: &MachineConfig) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("clusters=");
    for (i, cl) in config.clusters().iter().enumerate() {
        if i > 0 {
            s.push('|');
        }
        for (j, u) in cl.units.iter().enumerate() {
            if j > 0 {
                s.push('+');
            }
            let _ = write!(s, "{}@{}", u.class.label(), u.latency);
        }
    }
    let m = &config.memory;
    let _ = write!(
        s,
        ";max_dsts={};interconnect={};memory=hit:{},miss:{:016x},penalty:{}..{},banks:{};\
         arbitration={:?};seed={};max_threads={};lockstep={};wb_buffer={}",
        config.max_dsts,
        config.interconnect.label(),
        m.hit_latency,
        m.miss_rate.to_bits(),
        m.miss_penalty.0,
        m.miss_penalty.1,
        m.banks,
        config.arbitration,
        config.seed,
        config.max_threads,
        config.lockstep_issue,
        config.wb_buffer,
    );
    s
}

/// Content-address of one sweep cell's result:
/// `sha256(schema ‖ program inputs ‖ config fingerprint)`.
///
/// `source` is the exact source text the compiler will see for
/// `(bench, mode)`; the compiled program is a pure function of it, the
/// mode's schedule restriction, and the configuration, so hashing the
/// inputs is equivalent to hashing the program — and cheaper than
/// compiling just to decide whether to skip compiling. A sweep derives
/// the same key through [`KeyPrefix`], hashing the source once.
pub fn cache_key(bench: &str, mode: MachineMode, source: &str, config: &MachineConfig) -> String {
    let text = format!("{}{source}{}", key_head(bench, mode), key_tail(config));
    sha256_hex(text.as_bytes())
}

/// The key text before the source: schema, bench and mode.
fn key_head(bench: &str, mode: MachineMode) -> String {
    format!(
        "pc-sweep-cache-v{CACHE_SCHEMA_VERSION}\nbench={bench}\nmode={}\nschedule={:?}\nsource=",
        mode.label(),
        mode.schedule_mode(),
    )
}

/// The key text after the source: the configuration and cycle budget.
fn key_tail(config: &MachineConfig) -> String {
    format!(
        "\nconfig={}\ncycle_limit={}\n",
        config_fingerprint(config),
        crate::runner::CYCLE_LIMIT,
    )
}

/// The hashed part of [`cache_key`]'s text that depends only on
/// `(bench, mode)`: everything up to and including the source. A sweep
/// builds one per distinct `(bench, mode)` and finishes each cell's key
/// from a copy, instead of hashing the source again for every cell.
#[derive(Debug, Clone)]
pub struct KeyPrefix(Sha256);

impl KeyPrefix {
    /// Hashes the key text up to and including `source`.
    pub fn new(bench: &str, mode: MachineMode, source: &str) -> KeyPrefix {
        let mut h = Sha256::new();
        h.update(key_head(bench, mode).as_bytes());
        h.update(source.as_bytes());
        KeyPrefix(h)
    }

    /// The cache key of this program under `config`; equal to
    /// [`cache_key`] of the same inputs.
    pub fn key(&self, config: &MachineConfig) -> String {
        let mut h = self.0.clone();
        h.update(key_tail(config).as_bytes());
        h.finish()
    }
}

// ---------------------------------------------------------------------
// Entry store
// ---------------------------------------------------------------------

/// What a cache entry stores: everything a sweep row needs beyond the
/// cell's own coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The run's statistics, bit-identical to a fresh run.
    pub stats: RunStats,
    /// Peak per-cluster register count reported by the compiler.
    pub peak_registers: u32,
}

/// An on-disk content-addressed store of [`CachedResult`]s.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Looks up `key`. Every failure mode — absent, truncated,
    /// corrupted, wrong schema, wrong embedded key, or any layout other
    /// than the one [`ResultCache::store`] writes — returns `None` (a
    /// miss), never an error: the cache is advisory.
    pub fn lookup(&self, key: &str) -> Option<CachedResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        decode_entry(&text, key)
    }

    /// Stores a result under `key`, atomically (write temp + rename):
    /// a concurrent reader sees the old entry or the new one, never a
    /// torn write, and a killed writer leaves only a stray `.tmp`.
    ///
    /// # Errors
    /// I/O errors writing the entry.
    pub fn store(&self, key: &str, cell_id: &str, result: &CachedResult) -> std::io::Result<()> {
        let body = format!(
            "{{\"schema\":{CACHE_SCHEMA_VERSION},\"key\":\"{key}\",\"cell\":\"{}\",\
             \"peak_registers\":{},\"stats\":{}}}\n",
            escape_json(cell_id),
            result.peak_registers,
            stats_to_json(&result.stats),
        );
        let tmp = self.root.join(format!("{key}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Number of entries currently in the cache (for tests/reports).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrites the raw bytes of `key`'s entry file (test helper for
    /// corruption scenarios).
    ///
    /// # Errors
    /// I/O errors writing the file.
    pub fn write_raw(&self, key: &str, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(self.entry_path(key), bytes)
    }
}

/// Reads an entry in [`ResultCache::store`]'s layout, member by member
/// in its fixed order, with the stats decoded in place.
fn decode_entry(text: &str, key: &str) -> Option<CachedResult> {
    let mut c = Cursor::new(text);
    c.lit("{\"schema\":")?;
    if c.u64()? != u64::from(CACHE_SCHEMA_VERSION) {
        return None;
    }
    c.lit(",\"key\":\"")?;
    c.lit(key)?;
    c.lit("\",\"cell\":")?;
    c.skip_str()?;
    c.lit(",\"peak_registers\":")?;
    let peak_registers = c.u32()?;
    c.lit(",\"stats\":")?;
    let stats = decode_stats(&mut c)?;
    c.lit("}\n")?;
    c.at_end().then_some(CachedResult {
        stats,
        peak_registers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_isa::{InterconnectScheme, MemoryModel};

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-2 test vectors, one-shot and fed in pieces.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            // Two blocks once padded.
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(sha256_hex(msg), want);
            let mut h = Sha256::new();
            for byte in msg {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finish(), want);
        }
        // Padding edges: after 55 (or 119) bytes the padding and length
        // still fit in the last block; after 56 (or 120) they spill into
        // one more.
        for (n, want) in [
            (
                55,
                "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072",
            ),
            (
                56,
                "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e",
            ),
            (
                63,
                "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2",
            ),
            (
                64,
                "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c",
            ),
            (
                65,
                "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9",
            ),
            (
                119,
                "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c",
            ),
            (
                120,
                "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98",
            ),
        ] {
            assert_eq!(sha256_hex(&vec![b'x'; n]), want, "{n} bytes of x");
        }
        // One million `a`s, in 1000-byte pieces that straddle blocks.
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            h.finish(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_update_splits_like_one_shot() {
        let msg: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        // Every length, so the padding meets every partial-block fill.
        for n in 0..=msg.len() {
            let whole = sha256_hex(&msg[..n]);
            for split in 0..=n {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                // A copy of the state finishes like the original.
                let mut copy = h.clone();
                h.update(&msg[split..n]);
                assert_eq!(h.finish(), whole, "length {n}, split at {split}");
                copy.update(&msg[split..n]);
                assert_eq!(copy.finish(), whole, "copy, length {n}, split at {split}");
            }
        }
    }

    #[test]
    fn config_fingerprint_sees_every_knob() {
        let base = MachineConfig::baseline();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&MachineConfig::baseline()));
        let variants = [
            base.clone().with_seed(1),
            base.clone()
                .with_interconnect(InterconnectScheme::SharedBus),
            base.clone().with_memory(MemoryModel::mem1()),
            base.clone().with_lockstep_issue(true),
            base.clone().with_max_dsts(3),
            base.clone().with_wb_buffer(2),
            base.clone().with_unit_latency(pc_isa::UnitClass::Float, 4),
            MachineConfig::workstation(),
        ];
        for v in &variants {
            assert_ne!(fp, config_fingerprint(v), "{v:?}");
        }
    }

    #[test]
    fn cache_key_separates_program_and_config() {
        let config = MachineConfig::baseline();
        let k = cache_key("matrix", MachineMode::Coupled, "src-a", &config);
        assert_eq!(
            k,
            cache_key("matrix", MachineMode::Coupled, "src-a", &config)
        );
        assert_ne!(
            k,
            cache_key("matrix", MachineMode::Coupled, "src-b", &config)
        );
        assert_ne!(k, cache_key("fft", MachineMode::Coupled, "src-a", &config));
        assert_ne!(k, cache_key("matrix", MachineMode::Tpe, "src-a", &config));
        assert_ne!(
            k,
            cache_key(
                "matrix",
                MachineMode::Coupled,
                "src-a",
                &config.clone().with_seed(9)
            )
        );
        assert_eq!(k.len(), 64);
    }

    #[test]
    fn store_lookup_round_trip_and_miss_modes() {
        let dir = std::env::temp_dir().join(format!("pc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        let key = cache_key("matrix", MachineMode::Seq, "x", &MachineConfig::baseline());
        assert!(cache.lookup(&key).is_none(), "cold cache must miss");
        let result = CachedResult {
            stats: RunStats {
                cycles: 42,
                ..RunStats::default()
            },
            peak_registers: 7,
        };
        cache.store(&key, "matrix/seq", &result).unwrap();
        assert_eq!(cache.lookup(&key), Some(result.clone()));
        assert_eq!(cache.len(), 1);
        // Corruption → miss, not panic; store repairs.
        cache
            .write_raw(&key, b"{ definitely not a valid entry")
            .unwrap();
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, "matrix/seq", &result).unwrap();
        assert_eq!(cache.lookup(&key), Some(result.clone()));
        // A register count past u32::MAX is a miss, not a hit with the
        // count truncated to 1.
        let good = std::fs::read_to_string(cache.entry_path(&key)).unwrap();
        let wide = good.replace("\"peak_registers\":7,", "\"peak_registers\":4294967297,");
        assert_ne!(wide, good);
        cache.write_raw(&key, wide.as_bytes()).unwrap();
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, "matrix/seq", &result).unwrap();
        assert_eq!(cache.lookup(&key), Some(result));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
