//! Canonical serialization of [`RunStats`] for the sweep cache and the
//! JSONL result stream.
//!
//! The cache's contract is *bit-identical replay*: a hit must hand back
//! exactly the `RunStats` a fresh run would produce. Every counter in
//! `RunStats` is an integer (utilizations and rates are derived at
//! report time), so a canonical integer encoding round-trips exactly —
//! no float formatting, no non-deterministic map order (`BTreeMap`s
//! iterate sorted), no locale. The writer emits one fixed field order
//! with no whitespace; the reader is a small recursive-descent JSON
//! parser, so a truncated or corrupted cache entry surfaces as a clean
//! `Err` (→ cache miss → recompute), never a panic.

use pc_isa::UnitClass;
use pc_memsys::MemStats;
use pc_sim::probe::StallCause;
use pc_sim::{ProbeRecord, RunStats, StallTable, ThreadStalls};
use pc_xconn::XconnStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

fn class_from_key(k: &str) -> Result<UnitClass, String> {
    UnitClass::all()
        .into_iter()
        .find(|c| c.label() == k)
        .ok_or_else(|| format!("unknown unit class {k:?}"))
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

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn u64_arr(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array {key:?}"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer in {key:?}")))
        .collect()
}

fn cause_arr_from(v: &Json, what: &str) -> Result<[u64; StallCause::COUNT], String> {
    let items = v
        .as_arr()
        .ok_or_else(|| format!("{what}: expected an array"))?;
    if items.len() != StallCause::COUNT {
        return Err(format!(
            "{what}: expected {} causes, got {}",
            StallCause::COUNT,
            items.len()
        ));
    }
    let mut out = [0u64; StallCause::COUNT];
    for (i, x) in items.iter().enumerate() {
        out[i] = x
            .as_u64()
            .ok_or_else(|| format!("{what}: non-integer cause count"))?;
    }
    Ok(out)
}

fn slot_key(k: &str) -> Result<(u32, u32, u16), String> {
    let mut parts = k.split(':');
    let bad = || format!("bad slot key {k:?}");
    let seg = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let row = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let slot = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok((seg, row, slot))
}

/// Parses [`stats_to_json`] output back into a [`RunStats`].
///
/// # Errors
/// A description of the first malformed or missing field; callers treat
/// any error as a cache miss.
pub fn stats_from_json(text: &str) -> Result<RunStats, String> {
    stats_from_value(&parse_json(text)?)
}

/// Decodes a [`RunStats`] from an already-parsed JSON value.
///
/// # Errors
/// A description of the first malformed or missing field.
pub fn stats_from_value(v: &Json) -> Result<RunStats, String> {
    let mut ops_by_class = BTreeMap::new();
    for (k, n) in v
        .get("ops_by_class")
        .and_then(Json::members)
        .ok_or("missing ops_by_class")?
    {
        ops_by_class.insert(
            class_from_key(k)?,
            n.as_u64().ok_or("non-integer ops_by_class count")?,
        );
    }
    let probes = v
        .get("probes")
        .and_then(Json::as_arr)
        .ok_or("missing probes")?
        .iter()
        .map(|p| {
            let t = p.as_arr().filter(|a| a.len() == 3).ok_or("bad probe")?;
            Ok(ProbeRecord {
                thread: t[0].as_u32().ok_or("bad probe thread")?,
                id: t[1].as_u32().ok_or("bad probe id")?,
                cycle: t[2].as_u64().ok_or("bad probe cycle")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mem_v = v.get("mem").ok_or("missing mem")?;
    let mem = MemStats {
        loads: need_u64(mem_v, "loads")?,
        stores: need_u64(mem_v, "stores")?,
        misses: need_u64(mem_v, "misses")?,
        parked: need_u64(mem_v, "parked")?,
        parked_cycles: need_u64(mem_v, "parked_cycles")?,
        peak_in_flight: need_u64(mem_v, "peak_in_flight")? as usize,
        bank_wait_cycles: need_u64(mem_v, "bank_wait_cycles")?,
    };
    let xconn_v = v.get("xconn").ok_or("missing xconn")?;
    let xconn = XconnStats {
        grants: need_u64(xconn_v, "grants")?,
        denials: need_u64(xconn_v, "denials")?,
        remote_grants: need_u64(xconn_v, "remote_grants")?,
        denied_port_full: need_u64(xconn_v, "denied_port_full")?,
        denied_bus_busy: need_u64(xconn_v, "denied_bus_busy")?,
    };
    let thread_spans = v
        .get("thread_spans")
        .and_then(Json::as_arr)
        .ok_or("missing thread_spans")?
        .iter()
        .map(|p| {
            let t = p.as_arr().filter(|a| a.len() == 2).ok_or("bad span")?;
            Ok((
                t[0].as_u64().ok_or("bad span start")?,
                t[1].as_u64().ok_or("bad span end")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let st = v.get("stalls").ok_or("missing stalls")?;
    let threads = st
        .get("threads")
        .and_then(Json::as_arr)
        .ok_or("missing stalls.threads")?
        .iter()
        .map(|t| {
            let a = t
                .as_arr()
                .filter(|a| a.len() == 3)
                .ok_or("bad thread stalls")?;
            Ok(ThreadStalls {
                alive: a[0].as_u64().ok_or("bad alive")?,
                busy: a[1].as_u64().ok_or("bad busy")?,
                by_cause: cause_arr_from(&a[2], "thread by_cause")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut by_class = BTreeMap::new();
    for (k, a) in st
        .get("by_class")
        .and_then(Json::members)
        .ok_or("missing stalls.by_class")?
    {
        by_class.insert(class_from_key(k)?, cause_arr_from(a, "by_class")?);
    }
    let mut by_slot = BTreeMap::new();
    for (k, a) in st
        .get("by_slot")
        .and_then(Json::members)
        .ok_or("missing stalls.by_slot")?
    {
        by_slot.insert(slot_key(k)?, cause_arr_from(a, "by_slot")?);
    }
    let mut issued_by_slot = BTreeMap::new();
    for (k, n) in st
        .get("issued_by_slot")
        .and_then(Json::members)
        .ok_or("missing stalls.issued_by_slot")?
    {
        issued_by_slot.insert(slot_key(k)?, n.as_u64().ok_or("non-integer issue count")?);
    }
    let stalls = StallTable {
        threads,
        by_class,
        by_slot,
        unattributed: cause_arr_from(
            st.get("unattributed")
                .ok_or("missing stalls.unattributed")?,
            "unattributed",
        )?,
        issued_by_slot,
    };
    Ok(RunStats {
        cycles: need_u64(v, "cycles")?,
        ops_issued: need_u64(v, "ops_issued")?,
        ops_by_class,
        ops_by_thread: u64_arr(v, "ops_by_thread")?,
        ops_by_unit: u64_arr(v, "ops_by_unit")?,
        threads_spawned: need_u64(v, "threads_spawned")? as usize,
        probes,
        mem,
        xconn,
        thread_spans,
        busy_cycles: need_u64(v, "busy_cycles")?,
        peak_threads: need_u64(v, "peak_threads")? as usize,
        stalls,
    })
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
