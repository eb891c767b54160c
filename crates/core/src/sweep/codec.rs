//! Canonical serialization of [`RunStats`] for the sweep cache and the
//! JSONL result stream.
//!
//! The cache's contract is *bit-identical replay*: a hit must hand back
//! exactly the `RunStats` a fresh run would produce. Every counter in
//! `RunStats` is an integer (utilizations and rates are derived at
//! report time), so a canonical integer encoding round-trips exactly —
//! no float formatting, no non-deterministic map order (`BTreeMap`s
//! iterate sorted), no locale. The writer emits one fixed field order
//! with no whitespace, and the reader decodes exactly that layout with a
//! byte cursor, so a truncated, corrupted or reordered document
//! surfaces as a clean `Err` (→ cache miss → recompute), never a panic.
//! The general JSON parser here ([`parse_json`]) serves the manifests
//! and JSONL rows.

use pc_isa::UnitClass;
use pc_memsys::MemStats;
use pc_sim::probe::StallCause;
use pc_sim::{ProbeRecord, RunStats, StallTable, ThreadStalls};
use pc_xconn::XconnStats;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------
// Minimal JSON value model + parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw token so integer fields
/// can be parsed as `u64` without a lossy trip through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw token text.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u32`, if it is an integer number that fits: a
    /// wider value is malformed input, not something to truncate.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Compact JSON text: no whitespace, members in their stored order,
    /// numbers as their raw tokens.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(raw) => f.write_str(raw),
            Json::Str(s) => write!(f, "\"{}\"", escape_json(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape_json(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The writers'
/// deepest document nests about five levels; the limit keeps a hostile
/// document from recursing the parser off the end of a worker's stack.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing content is an error).
///
/// # Errors
/// A description of the first syntax error with its byte offset, or of
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected a value at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Validate the token: every number we emit parses as f64.
    raw.parse::<f64>()
        .map_err(|e| format!("bad number {raw:?} at byte {start}: {e}"))?;
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both
                // are ASCII, so the run ends on a char boundary of the
                // `&str` input and validating it costs only its length.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected a key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// RunStats <-> JSON
// ---------------------------------------------------------------------

fn class_key(c: UnitClass) -> &'static str {
    c.label()
}

fn write_u64_arr(out: &mut String, xs: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

fn cause_arr(out: &mut String, a: &[u64; StallCause::COUNT]) {
    write_u64_arr(out, a.iter().copied());
}

/// Serializes `stats` as canonical single-line JSON.
pub fn stats_to_json(stats: &RunStats) -> String {
    let mut o = String::with_capacity(512);
    let _ = write!(
        o,
        "{{\"cycles\":{},\"ops_issued\":{},\"ops_by_class\":{{",
        stats.cycles, stats.ops_issued
    );
    for (i, (c, n)) in stats.ops_by_class.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{}\":{n}", class_key(*c));
    }
    o.push_str("},\"ops_by_thread\":");
    write_u64_arr(&mut o, stats.ops_by_thread.iter().copied());
    o.push_str(",\"ops_by_unit\":");
    write_u64_arr(&mut o, stats.ops_by_unit.iter().copied());
    let _ = write!(o, ",\"threads_spawned\":{}", stats.threads_spawned);
    o.push_str(",\"probes\":[");
    for (i, p) in stats.probes.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "[{},{},{}]", p.thread, p.id, p.cycle);
    }
    let m = &stats.mem;
    let _ = write!(
        o,
        "],\"mem\":{{\"loads\":{},\"stores\":{},\"misses\":{},\"parked\":{},\
         \"parked_cycles\":{},\"peak_in_flight\":{},\"bank_wait_cycles\":{}}}",
        m.loads,
        m.stores,
        m.misses,
        m.parked,
        m.parked_cycles,
        m.peak_in_flight,
        m.bank_wait_cycles
    );
    let x = &stats.xconn;
    let _ = write!(
        o,
        ",\"xconn\":{{\"grants\":{},\"denials\":{},\"remote_grants\":{},\
         \"denied_port_full\":{},\"denied_bus_busy\":{}}}",
        x.grants, x.denials, x.remote_grants, x.denied_port_full, x.denied_bus_busy
    );
    o.push_str(",\"thread_spans\":[");
    for (i, (a, b)) in stats.thread_spans.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "[{a},{b}]");
    }
    let _ = write!(
        o,
        "],\"busy_cycles\":{},\"peak_threads\":{}",
        stats.busy_cycles, stats.peak_threads
    );
    // Stall table.
    o.push_str(",\"stalls\":{\"threads\":[");
    for (i, t) in stats.stalls.threads.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "[{},{},", t.alive, t.busy);
        cause_arr(&mut o, &t.by_cause);
        o.push(']');
    }
    o.push_str("],\"by_class\":{");
    for (i, (c, a)) in stats.stalls.by_class.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{}\":", class_key(*c));
        cause_arr(&mut o, a);
    }
    o.push_str("},\"by_slot\":{");
    for (i, ((seg, row, slot), a)) in stats.stalls.by_slot.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{seg}:{row}:{slot}\":");
        cause_arr(&mut o, a);
    }
    o.push_str("},\"unattributed\":");
    cause_arr(&mut o, &stats.stalls.unattributed);
    o.push_str(",\"issued_by_slot\":{");
    for (i, ((seg, row, slot), n)) in stats.stalls.issued_by_slot.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{seg}:{row}:{slot}\":{n}");
    }
    o.push_str("}}}");
    o
}

// ---------------------------------------------------------------------
// Canonical decoding
// ---------------------------------------------------------------------

/// A byte cursor over text in the writers' canonical layout: members in
/// their fixed order, no whitespace, integers with no sign, fraction or
/// leading zero. Every read returns `None` at the first byte that
/// deviates, so a decoder built on it either reads back exactly the
/// document the writer would emit or stops, never building a [`Json`]
/// tree on the way.
#[derive(Debug)]
pub(super) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// True once every byte has been read.
    pub(super) fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// Consumes `lit` exactly.
    pub(super) fn lit(&mut self, lit: &str) -> Option<()> {
        let rest = self.text.as_bytes().get(self.pos..)?;
        rest.starts_with(lit.as_bytes())
            .then(|| self.pos += lit.len())
    }

    /// A canonical unsigned integer that fits in `u64`.
    pub(super) fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        match self.pos - start {
            0 => None,
            1 => Some(n),
            _ => (self.text.as_bytes()[start] != b'0').then_some(n),
        }
    }

    /// A canonical integer that fits in `u32`: a wider value is
    /// malformed input, not something to truncate.
    pub(super) fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// `lit` followed by an integer: one `"name":N` step of a layout.
    fn after(&mut self, lit: &str) -> Option<u64> {
        self.lit(lit)?;
        self.u64()
    }

    /// A string with no escapes (a member name or label), unquoted.
    fn plain_str(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        self.pos = start + len;
        self.lit("\"")?;
        self.text.get(start..start + len)
    }

    /// Skips one string as [`escape_json`] writes it.
    pub(super) fn skip_str(&mut self) -> Option<()> {
        self.lit("\"")?;
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(());
                }
                b'\\' => self.pos += 2,
                b if b < 0x20 => return None,
                _ => self.pos += 1,
            }
        }
    }

    /// `[item,…]`, reading each element with `item`.
    fn list(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.lit("[")?;
        if self.lit("]").is_some() {
            return Some(());
        }
        loop {
            item(self)?;
            if self.lit("]").is_some() {
                return Some(());
            }
            self.lit(",")?;
        }
    }

    /// `{"name":value,…}`, reading each value with `member`.
    fn members(&mut self, mut member: impl FnMut(&mut Self, &'a str) -> Option<()>) -> Option<()> {
        self.lit("{")?;
        if self.lit("}").is_some() {
            return Some(());
        }
        loop {
            let name = self.plain_str()?;
            self.lit(":")?;
            member(self, name)?;
            if self.lit("}").is_some() {
                return Some(());
            }
            self.lit(",")?;
        }
    }

    fn u64_list(&mut self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.list(|c| {
            out.push(c.u64()?);
            Some(())
        })?;
        Some(out)
    }

    /// A per-cause count array: exactly [`StallCause::COUNT`] integers.
    fn causes(&mut self) -> Option<[u64; StallCause::COUNT]> {
        let mut out = [0u64; StallCause::COUNT];
        self.lit("[")?;
        for (i, n) in out.iter_mut().enumerate() {
            if i > 0 {
                self.lit(",")?;
            }
            *n = self.u64()?;
        }
        self.lit("]")?;
        Some(out)
    }
}

/// Adds `key` to a map being read in canonical order, where every key
/// is greater than the one before: a repeat or a reordering is `None`.
fn push_ascending<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: V) -> Option<()> {
    if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
        return None;
    }
    map.insert(key, value);
    Some(())
}

fn class_from_key(k: &str) -> Option<UnitClass> {
    UnitClass::all().into_iter().find(|c| c.label() == k)
}

/// A `seg:row:slot` member name.
fn slot_key(k: &str) -> Option<(u32, u32, u16)> {
    let mut c = Cursor::new(k);
    let seg = c.u32()?;
    let row = c.lit(":").and_then(|()| c.u32())?;
    let slot = c.lit(":").and_then(|()| c.u64())?;
    let slot = u16::try_from(slot).ok()?;
    c.at_end().then_some((seg, row, slot))
}

/// Reads [`stats_to_json`]'s layout at the cursor. This is the one
/// stats decoder: cache entries, JSONL rows and [`stats_from_json`] all
/// come through it.
pub(super) fn decode_stats(c: &mut Cursor<'_>) -> Option<RunStats> {
    let cycles = c.after("{\"cycles\":")?;
    let ops_issued = c.after(",\"ops_issued\":")?;
    c.lit(",\"ops_by_class\":")?;
    let mut ops_by_class = BTreeMap::new();
    c.members(|c, k| push_ascending(&mut ops_by_class, class_from_key(k)?, c.u64()?))?;
    c.lit(",\"ops_by_thread\":")?;
    let ops_by_thread = c.u64_list()?;
    c.lit(",\"ops_by_unit\":")?;
    let ops_by_unit = c.u64_list()?;
    c.lit(",\"threads_spawned\":")?;
    let threads_spawned = c.usize()?;
    c.lit(",\"probes\":")?;
    let mut probes = Vec::new();
    c.list(|c| {
        probes.push(ProbeRecord {
            thread: c.lit("[").and_then(|()| c.u32())?,
            id: c.lit(",").and_then(|()| c.u32())?,
            cycle: c.after(",")?,
        });
        c.lit("]")
    })?;
    let mem = MemStats {
        loads: c.after(",\"mem\":{\"loads\":")?,
        stores: c.after(",\"stores\":")?,
        misses: c.after(",\"misses\":")?,
        parked: c.after(",\"parked\":")?,
        parked_cycles: c.after(",\"parked_cycles\":")?,
        peak_in_flight: usize::try_from(c.after(",\"peak_in_flight\":")?).ok()?,
        bank_wait_cycles: c.after(",\"bank_wait_cycles\":")?,
    };
    let xconn = XconnStats {
        grants: c.after("},\"xconn\":{\"grants\":")?,
        denials: c.after(",\"denials\":")?,
        remote_grants: c.after(",\"remote_grants\":")?,
        denied_port_full: c.after(",\"denied_port_full\":")?,
        denied_bus_busy: c.after(",\"denied_bus_busy\":")?,
    };
    c.lit("},\"thread_spans\":")?;
    let mut thread_spans = Vec::new();
    c.list(|c| {
        thread_spans.push((c.after("[")?, c.after(",")?));
        c.lit("]")
    })?;
    let busy_cycles = c.after(",\"busy_cycles\":")?;
    c.lit(",\"peak_threads\":")?;
    let peak_threads = c.usize()?;
    c.lit(",\"stalls\":{\"threads\":")?;
    let mut threads = Vec::new();
    c.list(|c| {
        threads.push(ThreadStalls {
            alive: c.after("[")?,
            busy: c.after(",")?,
            by_cause: c.lit(",").and_then(|()| c.causes())?,
        });
        c.lit("]")
    })?;
    c.lit(",\"by_class\":")?;
    let mut by_class = BTreeMap::new();
    c.members(|c, k| push_ascending(&mut by_class, class_from_key(k)?, c.causes()?))?;
    c.lit(",\"by_slot\":")?;
    let mut by_slot = BTreeMap::new();
    c.members(|c, k| push_ascending(&mut by_slot, slot_key(k)?, c.causes()?))?;
    c.lit(",\"unattributed\":")?;
    let unattributed = c.causes()?;
    c.lit(",\"issued_by_slot\":")?;
    let mut issued_by_slot = BTreeMap::new();
    c.members(|c, k| push_ascending(&mut issued_by_slot, slot_key(k)?, c.u64()?))?;
    c.lit("}}")?;
    Some(RunStats {
        cycles,
        ops_issued,
        ops_by_class,
        ops_by_thread,
        ops_by_unit,
        threads_spawned,
        probes,
        mem,
        xconn,
        thread_spans,
        busy_cycles,
        peak_threads,
        stalls: StallTable {
            threads,
            by_class,
            by_slot,
            unattributed,
            issued_by_slot,
        },
    })
}

/// Parses [`stats_to_json`] output back into a [`RunStats`]. Only the
/// canonical layout reads back: reordered members, whitespace or a
/// number written another way are errors.
///
/// # Errors
/// The byte offset where the text leaves the canonical layout; callers
/// treat any error as a cache miss.
pub fn stats_from_json(text: &str) -> Result<RunStats, String> {
    let mut c = Cursor::new(text);
    decode_stats(&mut c)
        .filter(|_| c.at_end())
        .ok_or_else(|| format!("not canonical stats JSON at byte {}", c.pos))
}

/// Decodes a [`RunStats`] from an already-parsed JSON value by writing
/// it back as compact text and reading that with [`stats_from_json`]
/// ([`Json`] keeps member order and raw number tokens, so a canonical
/// document comes back byte for byte).
///
/// # Errors
/// As [`stats_from_json`].
pub fn stats_from_value(v: &Json) -> Result<RunStats, String> {
    stats_from_json(&v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_stats() -> RunStats {
        let mut stalls = StallTable::default();
        stalls.record_busy(0);
        let operand = StallCause::OperandNotPresent;
        stalls.record_stall(0, operand, Some(UnitClass::Float), 1);
        stalls.by_slot.entry((1, 2, 3)).or_default()[operand.index()] += 1;
        stalls.record_stall(1, StallCause::EmptyRow, None, 1);
        stalls.unattributed[StallCause::EmptyRow.index()] += 1;
        stalls.issued_by_slot.insert((1, 2, 3), 1);
        let mut ops_by_class = BTreeMap::new();
        ops_by_class.insert(UnitClass::Integer, 10);
        ops_by_class.insert(UnitClass::Float, 20);
        RunStats {
            cycles: 1234,
            ops_issued: 30,
            ops_by_class,
            ops_by_thread: vec![18, 12],
            ops_by_unit: vec![5, 0, 25],
            threads_spawned: 2,
            probes: vec![ProbeRecord {
                thread: 1,
                id: 7,
                cycle: 99,
            }],
            mem: MemStats {
                loads: 3,
                stores: 4,
                misses: 1,
                parked: 2,
                parked_cycles: 17,
                peak_in_flight: 5,
                bank_wait_cycles: 0,
            },
            xconn: XconnStats {
                grants: 11,
                denials: 2,
                remote_grants: 6,
                denied_port_full: 1,
                denied_bus_busy: 1,
            },
            thread_spans: vec![(0, 1234), (10, 0)],
            busy_cycles: 900,
            peak_threads: 2,
            stalls,
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let stats = populated_stats();
        let json = stats_to_json(&stats);
        let back = stats_from_json(&json).unwrap();
        assert_eq!(stats, back);
        // And the re-encoding is byte-identical (canonical form).
        assert_eq!(stats_to_json(&back), json);
    }

    #[test]
    fn default_stats_round_trip() {
        let stats = RunStats::default();
        let back = stats_from_json(&stats_to_json(&stats)).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn truncated_and_corrupted_documents_error_cleanly() {
        let json = stats_to_json(&populated_stats());
        for cut in [0, 1, json.len() / 2, json.len() - 1] {
            assert!(stats_from_json(&json[..cut]).is_err(), "cut at {cut}");
        }
        assert!(stats_from_json("{}").is_err());
        assert!(stats_from_json("not json").is_err());
        assert!(stats_from_json(&json.replace("\"cycles\"", "\"cyc1es\"")).is_err());
        // A probe thread past u32::MAX is malformed, not truncated to 1.
        let wide = json.replace("\"probes\":[[1,", "\"probes\":[[4294967297,");
        assert_ne!(wide, json);
        assert!(stats_from_json(&wide).is_err());
        // Hostile nesting is an error, not a stack overflow.
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert!(stats_from_json(&deep).is_err());
            assert!(crate::sweep::Manifest::from_json(&deep).is_err());
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(parse_json(&past_limit).unwrap_err().contains("nesting"));
    }

    #[test]
    fn only_the_canonical_layout_decodes() {
        let json = stats_to_json(&populated_stats());
        let reject = |bad: String, what: &str| {
            assert_ne!(bad, json, "{what}: the edit did not apply");
            assert!(stats_from_json(&bad).is_err(), "{what} must not decode");
        };
        reject(
            json.replacen(
                "\"cycles\":1234,\"ops_issued\":30",
                "\"ops_issued\":30,\"cycles\":1234",
                1,
            ),
            "reordered members",
        );
        reject(json.replacen(':', ": ", 1), "whitespace");
        reject(json.replacen(":1234", ":01234", 1), "a leading zero");
        reject(json.replacen(":1234", ":1234.0", 1), "a fraction");
        reject(json.replacen(":1234", ":-1234", 1), "a sign");
        reject(format!("{json} "), "trailing content");
        reject(
            json.replacen("\"IU\":10,\"FPU\":20", "\"FPU\":20,\"IU\":10", 1),
            "map keys out of order",
        );
        reject(
            json.replacen("\"IU\":10,\"FPU\":20", "\"IU\":10,\"IU\":20", 1),
            "a repeated map key",
        );
        reject(
            json.replacen(":1234", ":18446744073709551616", 1),
            "a count past u64::MAX",
        );
        reject(
            json.replacen("[1,7,99]", "[1,4294967296,99]", 1),
            "a probe id past u32::MAX",
        );
        reject(
            json.replacen("\"1:2:3\"", "\"1:2:65536\"", 1),
            "a slot past u16::MAX",
        );
        reject(
            json.replacen("\"1:2:3\"", "\"1:2:3:4\"", 1),
            "a four-part slot",
        );
        reject(
            json.replacen("\"unattributed\":[", "\"unattributed\":[0,", 1),
            "an extra cause",
        );
        // The widest values that fit still decode.
        let mut wide = populated_stats();
        wide.cycles = u64::MAX;
        wide.probes[0].id = u32::MAX;
        wide.stalls
            .issued_by_slot
            .insert((u32::MAX, 0, u16::MAX), 0);
        assert_eq!(stats_from_json(&stats_to_json(&wide)), Ok(wide));
    }

    #[test]
    fn value_and_text_decoding_agree() {
        let stats = populated_stats();
        let json = stats_to_json(&stats);
        let tree = parse_json(&json).unwrap();
        assert_eq!(tree.to_string(), json, "a canonical document prints back");
        assert_eq!(stats_from_value(&tree), Ok(stats));
        // A tree decodes only if its compact text is canonical.
        let spaced = parse_json(&json.replacen(',', " , ", 3)).unwrap();
        assert_eq!(stats_from_value(&spaced), stats_from_json(&json));
        let Json::Obj(mut members) = tree else {
            panic!("stats are an object")
        };
        members.swap(0, 1);
        assert!(stats_from_value(&Json::Obj(members)).is_err());
    }

    #[test]
    fn parser_handles_strings_and_literals() {
        let v = parse_json(r#"{"a": "x\ny", "b": [true, false, null], "c": -1.5e3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap(), &Json::Num("-1.5e3".to_string()));
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f é😀漢字\\";
        let doc = format!("{{\"k\":\"{}\"}}", escape_json(nasty));
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
        let v = parse_json(r#""caf\u00e9 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀"));
    }
}
