//! Chrome-trace-event JSON exporter and re-parser.
//!
//! [`export`] renders an event stream into the Chrome trace-event format
//! (the JSON-object flavor with a `traceEvents` array), loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Track
//! layout:
//!
//! * **pid 0 "serve cluster"** — command lifecycle: one span per completed
//!   command plus enqueue/drop/retry/fallback instants.
//! * **pid 1 "accelerator"** — one tid (track) per instance: `DeserOp` /
//!   `SerOp` audit spans with memloader / per-field sub-spans and FSM /
//!   ADT instants.
//! * **pid 2 "fsu"** — one tid per (instance, FSU) pair: occupancy spans,
//!   plus the memwriter's output-port span on its own tid.
//! * **pid 3 "memory"** — one tid per requester: individual transactions
//!   with their cache-level breakdown in `args`.
//!
//! Timestamps map cycles 1:1 onto the format's microsecond field. Every
//! event carries its full field set under `args` (tagged with `kind`), so
//! [`parse`] can reconstruct the exact [`TraceEvent`] stream — that
//! round-trip, plus re-running the accounting audit against the embedded
//! `expected_stats`, is the `ci.sh` trace gate. Like the lint report, the
//! file carries a versioned [`SCHEMA_VERSION`] field.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::audit::ExpectedStats;
use crate::{AdtUnit, CmdOutcome, FsmState, MemAccessMode, TraceEvent, FALLBACK_TRACK};

/// Version of the trace JSON schema produced by [`export`].
pub const SCHEMA_VERSION: u32 = 1;

/// Displayed tid for serve/accelerator events attributed to the CPU
/// fallback path (`usize::MAX` itself would render as an unwieldy track
/// id; `args.instance` still carries the exact value).
const CPU_TID: u64 = 9_999;

/// `s` as a quoted JSON string literal, with quotes, backslashes and
/// control characters escaped.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn display_tid(instance: usize) -> u64 {
    if instance == FALLBACK_TRACK {
        CPU_TID
    } else {
        instance as u64
    }
}

struct EventJson {
    name: String,
    pid: u64,
    tid: u64,
    ts: u64,
    /// `Some(dur)` renders a complete ("X") span, `None` an instant ("i").
    dur: Option<u64>,
    args: Vec<(&'static str, String)>,
}

fn num(v: u64) -> String {
    v.to_string()
}

fn evt_json(e: &TraceEvent) -> EventJson {
    let kind = e.kind();
    match *e {
        TraceEvent::CmdEnqueue {
            seq,
            at,
            wire_bytes,
            deser,
        } => EventJson {
            name: format!("enqueue#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("at", num(at)),
                ("wire_bytes", num(wire_bytes)),
                ("deser", deser.to_string()),
            ],
        },
        TraceEvent::CmdDrop { seq, at } => EventJson {
            name: format!("drop#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("at", num(at)),
            ],
        },
        TraceEvent::CmdShed {
            seq,
            at,
            deadline,
            estimate,
        } => EventJson {
            name: format!("shed#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("at", num(at)),
                ("deadline", num(deadline)),
                ("estimate", num(estimate)),
            ],
        },
        TraceEvent::FrameDecode { conn, at, len, ok } => EventJson {
            name: format!("frame@{conn}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("conn", num(conn as u64)),
                ("at", num(at)),
                ("len", num(len)),
                ("ok", ok.to_string()),
            ],
        },
        TraceEvent::CmdDispatch {
            seq,
            at,
            instance,
            attempt,
        } => EventJson {
            name: format!("dispatch#{seq}"),
            pid: 0,
            tid: display_tid(instance) + 1,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("at", num(at)),
                ("instance", num(instance as u64)),
                ("attempt", num(u64::from(attempt))),
            ],
        },
        TraceEvent::CmdRetry {
            seq,
            at,
            instance,
            attempt,
        } => EventJson {
            name: format!("retry#{seq}"),
            pid: 0,
            tid: display_tid(instance) + 1,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("at", num(at)),
                ("instance", num(instance as u64)),
                ("attempt", num(u64::from(attempt))),
            ],
        },
        TraceEvent::CmdFallback { seq, at } => EventJson {
            name: format!("fallback#{seq}"),
            pid: 0,
            tid: 0,
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("at", num(at)),
            ],
        },
        TraceEvent::CmdComplete {
            seq,
            enqueue,
            dispatch,
            complete,
            service,
            instance,
            wire_bytes,
            deser,
            sharers,
            attempts,
            outcome,
        } => EventJson {
            name: format!("cmd#{seq}"),
            pid: 0,
            tid: display_tid(instance) + 1,
            ts: dispatch,
            dur: Some(service),
            args: vec![
                ("kind", json_str(kind)),
                ("seq", num(seq as u64)),
                ("enqueue", num(enqueue)),
                ("dispatch", num(dispatch)),
                ("complete", num(complete)),
                ("service", num(service)),
                ("instance", num(instance as u64)),
                ("wire_bytes", num(wire_bytes)),
                ("deser", deser.to_string()),
                ("sharers", num(sharers as u64)),
                ("attempts", num(u64::from(attempts))),
                ("outcome", json_str(outcome.label())),
            ],
        },
        TraceEvent::DeserOp {
            instance,
            start,
            cycles,
            fsm_cycles,
            stream_cycles,
            wire_bytes,
            fields,
        } => EventJson {
            name: "deser_op".to_string(),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("start", num(start)),
                ("cycles", num(cycles)),
                ("fsm_cycles", num(fsm_cycles)),
                ("stream_cycles", num(stream_cycles)),
                ("wire_bytes", num(wire_bytes)),
                ("fields", num(fields)),
            ],
        },
        TraceEvent::SerOp {
            instance,
            start,
            cycles,
            frontend_cycles,
            fsu_cycles,
            memwriter_cycles,
            out_len,
            fields,
        } => EventJson {
            name: "ser_op".to_string(),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("start", num(start)),
                ("cycles", num(cycles)),
                ("frontend_cycles", num(frontend_cycles)),
                ("fsu_cycles", num(fsu_cycles)),
                ("memwriter_cycles", num(memwriter_cycles)),
                ("out_len", num(out_len)),
                ("fields", num(fields)),
            ],
        },
        TraceEvent::MemloaderStream {
            instance,
            start,
            cycles,
            bytes,
            windows,
        } => EventJson {
            name: "memloader".to_string(),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("start", num(start)),
                ("cycles", num(cycles)),
                ("bytes", num(bytes)),
                ("windows", num(windows)),
            ],
        },
        TraceEvent::FsmTransition {
            instance,
            at,
            state,
            field_number,
        } => EventJson {
            name: format!("fsm:{}", state.label()),
            pid: 1,
            tid: display_tid(instance),
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("at", num(at)),
                ("state", json_str(state.label())),
                ("field_number", num(u64::from(field_number))),
            ],
        },
        TraceEvent::Field {
            instance,
            start,
            cycles,
            field_number,
        } => EventJson {
            name: format!("field#{field_number}"),
            pid: 1,
            tid: display_tid(instance),
            ts: start,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("start", num(start)),
                ("cycles", num(cycles)),
                ("field_number", num(u64::from(field_number))),
            ],
        },
        TraceEvent::AdtAccess {
            instance,
            at,
            unit,
            hit,
            cycles,
        } => EventJson {
            name: format!("adt:{}", if hit { "hit" } else { "miss" }),
            pid: 1,
            tid: display_tid(instance),
            ts: at,
            dur: None,
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("at", num(at)),
                ("unit", json_str(unit.label())),
                ("hit", hit.to_string()),
                ("cycles", num(cycles)),
            ],
        },
        TraceEvent::FsuOp {
            instance,
            unit,
            start,
            cycles,
            field_number,
        } => EventJson {
            name: format!("fsu#{unit}"),
            pid: 2,
            tid: display_tid(instance) * 256 + unit as u64,
            ts: start,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("unit", num(unit as u64)),
                ("start", num(start)),
                ("cycles", num(cycles)),
                ("field_number", num(u64::from(field_number))),
            ],
        },
        TraceEvent::MemwriterFlush {
            instance,
            start,
            cycles,
            bytes,
        } => EventJson {
            name: "memwriter".to_string(),
            pid: 2,
            tid: display_tid(instance) * 256 + 255,
            ts: start,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("instance", num(instance as u64)),
                ("start", num(start)),
                ("cycles", num(cycles)),
                ("bytes", num(bytes)),
            ],
        },
        TraceEvent::MemAccess {
            requester,
            at,
            cycles,
            addr,
            len,
            write,
            mode,
            tlb_walk_cycles,
            l1_hits,
            l2_hits,
            llc_hits,
            dram_accesses,
        } => EventJson {
            name: format!("mem:{}", mode.label()),
            pid: 3,
            tid: requester as u64,
            ts: at,
            dur: Some(cycles),
            args: vec![
                ("kind", json_str(kind)),
                ("requester", num(requester as u64)),
                ("at", num(at)),
                ("cycles", num(cycles)),
                ("addr", num(addr)),
                ("len", num(len)),
                ("write", write.to_string()),
                ("mode", json_str(mode.label())),
                ("tlb_walk_cycles", num(tlb_walk_cycles)),
                ("l1_hits", num(l1_hits)),
                ("l2_hits", num(l2_hits)),
                ("llc_hits", num(llc_hits)),
                ("dram_accesses", num(dram_accesses)),
            ],
        },
    }
}

/// Renders an event stream plus the per-instance `AccelStats` image into
/// Chrome trace-event JSON. The `expected` block makes the file
/// self-contained for the CI accounting audit: a consumer can re-parse the
/// file and re-verify `sum(op spans) == AccelStats cycles` without access
/// to the run that produced it.
#[must_use]
pub fn export(events: &[TraceEvent], expected: &[ExpectedStats]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    out.push_str("  \"displayTimeUnit\": \"ns\",\n");
    out.push_str("  \"traceEvents\": [\n");
    let mut first = true;
    // Process-name metadata so Perfetto labels the tracks.
    for (pid, name) in [
        (0u64, "serve cluster"),
        (1, "accelerator"),
        (2, "fsu"),
        (3, "memory"),
    ] {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "    {{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            json_str(name)
        );
    }
    for e in events {
        let j = evt_json(e);
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let (ph, dur) = match j.dur {
            Some(d) => ("X", format!(",\"dur\":{d}")),
            None => ("i", ",\"s\":\"t\"".to_string()),
        };
        let args: Vec<String> = j
            .args
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let _ = write!(
            out,
            "    {{\"name\":{},\"cat\":\"protoacc\",\"ph\":\"{ph}\",\"ts\":{}{dur},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
            json_str(&j.name),
            j.ts,
            j.pid,
            j.tid,
            args.join(",")
        );
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"otherData\": {\n    \"expected_stats\": [\n");
    for (i, s) in expected.iter().enumerate() {
        let sep = if i + 1 == expected.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"instance\":{},\"deser_ops\":{},\"deser_cycles\":{},\"ser_ops\":{},\"ser_cycles\":{},\"saturated\":{}}}{sep}",
            s.instance, s.deser_ops, s.deser_cycles, s.ser_ops, s.ser_cycles, s.saturated
        );
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip our own exporter output.
// ---------------------------------------------------------------------------

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// Non-negative integers are kept exact; everything else is `f64`.
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("trace json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected literal '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full sequence through.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        if text.is_empty() {
            return Err(self.err("expected a number"));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A trace file reconstructed by [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Schema version stamped by the exporter.
    pub schema_version: u32,
    /// The reconstructed event stream, in file order.
    pub events: Vec<TraceEvent>,
    /// The embedded per-instance `AccelStats` image.
    pub expected: Vec<ExpectedStats>,
}

fn field_u64(args: &Json, key: &str, kind: &str) -> Result<u64, String> {
    args.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{kind} event missing numeric field '{key}'"))
}

fn field_bool(args: &Json, key: &str, kind: &str) -> Result<bool, String> {
    args.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{kind} event missing boolean field '{key}'"))
}

fn field_str<'j>(args: &'j Json, key: &str, kind: &str) -> Result<&'j str, String> {
    args.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{kind} event missing string field '{key}'"))
}

#[allow(clippy::too_many_lines)]
fn event_from_args(args: &Json) -> Result<Option<TraceEvent>, String> {
    let Some(kind) = args.get("kind").and_then(Json::as_str) else {
        // Metadata events (process names) carry no kind tag.
        return Ok(None);
    };
    let k = kind.to_string();
    let u = |key: &str| field_u64(args, key, &k);
    let b = |key: &str| field_bool(args, key, &k);
    let s = |key: &str| field_str(args, key, &k);
    let event = match kind {
        "cmd_enqueue" => TraceEvent::CmdEnqueue {
            seq: u("seq")? as usize,
            at: u("at")?,
            wire_bytes: u("wire_bytes")?,
            deser: b("deser")?,
        },
        "cmd_drop" => TraceEvent::CmdDrop {
            seq: u("seq")? as usize,
            at: u("at")?,
        },
        "cmd_shed" => TraceEvent::CmdShed {
            seq: u("seq")? as usize,
            at: u("at")?,
            deadline: u("deadline")?,
            estimate: u("estimate")?,
        },
        "frame_decode" => TraceEvent::FrameDecode {
            conn: u("conn")? as usize,
            at: u("at")?,
            len: u("len")?,
            ok: b("ok")?,
        },
        "cmd_dispatch" => TraceEvent::CmdDispatch {
            seq: u("seq")? as usize,
            at: u("at")?,
            instance: u("instance")? as usize,
            attempt: u("attempt")? as u32,
        },
        "cmd_retry" => TraceEvent::CmdRetry {
            seq: u("seq")? as usize,
            at: u("at")?,
            instance: u("instance")? as usize,
            attempt: u("attempt")? as u32,
        },
        "cmd_fallback" => TraceEvent::CmdFallback {
            seq: u("seq")? as usize,
            at: u("at")?,
        },
        "cmd_complete" => {
            let outcome = s("outcome")?;
            TraceEvent::CmdComplete {
                seq: u("seq")? as usize,
                enqueue: u("enqueue")?,
                dispatch: u("dispatch")?,
                complete: u("complete")?,
                service: u("service")?,
                instance: u("instance")? as usize,
                wire_bytes: u("wire_bytes")?,
                deser: b("deser")?,
                sharers: u("sharers")? as usize,
                attempts: u("attempts")? as u32,
                outcome: CmdOutcome::from_label(outcome)
                    .ok_or_else(|| format!("unknown outcome '{outcome}'"))?,
            }
        }
        "deser_op" => TraceEvent::DeserOp {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            fsm_cycles: u("fsm_cycles")?,
            stream_cycles: u("stream_cycles")?,
            wire_bytes: u("wire_bytes")?,
            fields: u("fields")?,
        },
        "ser_op" => TraceEvent::SerOp {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            frontend_cycles: u("frontend_cycles")?,
            fsu_cycles: u("fsu_cycles")?,
            memwriter_cycles: u("memwriter_cycles")?,
            out_len: u("out_len")?,
            fields: u("fields")?,
        },
        "memloader_stream" => TraceEvent::MemloaderStream {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            bytes: u("bytes")?,
            windows: u("windows")?,
        },
        "fsm_transition" => {
            let state = s("state")?;
            TraceEvent::FsmTransition {
                instance: u("instance")? as usize,
                at: u("at")?,
                state: FsmState::from_label(state)
                    .ok_or_else(|| format!("unknown fsm state '{state}'"))?,
                field_number: u("field_number")? as u32,
            }
        }
        "field" => TraceEvent::Field {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            field_number: u("field_number")? as u32,
        },
        "adt_access" => {
            let unit = s("unit")?;
            TraceEvent::AdtAccess {
                instance: u("instance")? as usize,
                at: u("at")?,
                unit: AdtUnit::from_label(unit)
                    .ok_or_else(|| format!("unknown adt unit '{unit}'"))?,
                hit: b("hit")?,
                cycles: u("cycles")?,
            }
        }
        "fsu_op" => TraceEvent::FsuOp {
            instance: u("instance")? as usize,
            unit: u("unit")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            field_number: u("field_number")? as u32,
        },
        "memwriter_flush" => TraceEvent::MemwriterFlush {
            instance: u("instance")? as usize,
            start: u("start")?,
            cycles: u("cycles")?,
            bytes: u("bytes")?,
        },
        "mem_access" => {
            let mode = s("mode")?;
            TraceEvent::MemAccess {
                requester: u("requester")? as usize,
                at: u("at")?,
                cycles: u("cycles")?,
                addr: u("addr")?,
                len: u("len")?,
                write: b("write")?,
                mode: MemAccessMode::from_label(mode)
                    .ok_or_else(|| format!("unknown access mode '{mode}'"))?,
                tlb_walk_cycles: u("tlb_walk_cycles")?,
                l1_hits: u("l1_hits")?,
                l2_hits: u("l2_hits")?,
                llc_hits: u("llc_hits")?,
                dram_accesses: u("dram_accesses")?,
            }
        }
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok(Some(event))
}

/// Parses a trace file produced by [`export`] back into its event stream
/// and embedded expected-stats block.
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed JSON,
/// a missing or unsupported `schema_version`, or an event whose `args` do
/// not reconstruct a known [`TraceEvent`].
pub fn parse(json: &str) -> Result<ParsedTrace, String> {
    let mut p = Parser::new(json);
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after top-level value"));
    }
    let schema_version = root
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing schema_version".to_string())? as u32;
    if schema_version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
        ));
    }
    let mut events = Vec::new();
    for raw in root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?
    {
        let args = raw.get("args").cloned().unwrap_or(Json::Null);
        if let Some(event) = event_from_args(&args)? {
            events.push(event);
        }
    }
    let mut expected = Vec::new();
    if let Some(list) = root
        .get("otherData")
        .and_then(|o| o.get("expected_stats"))
        .and_then(Json::as_arr)
    {
        for s in list {
            expected.push(ExpectedStats {
                instance: field_u64(s, "instance", "expected_stats")? as usize,
                deser_ops: field_u64(s, "deser_ops", "expected_stats")?,
                deser_cycles: field_u64(s, "deser_cycles", "expected_stats")?,
                ser_ops: field_u64(s, "ser_ops", "expected_stats")?,
                ser_cycles: field_u64(s, "ser_cycles", "expected_stats")?,
                saturated: field_bool(s, "saturated", "expected_stats")?,
            });
        }
    }
    Ok(ParsedTrace {
        schema_version,
        events,
        expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_control_and_quote_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CmdEnqueue {
                seq: 0,
                at: 10,
                wire_bytes: 128,
                deser: true,
            },
            TraceEvent::CmdDispatch {
                seq: 0,
                at: 12,
                instance: 1,
                attempt: 1,
            },
            TraceEvent::MemloaderStream {
                instance: 1,
                start: 12,
                cycles: 40,
                bytes: 128,
                windows: 8,
            },
            TraceEvent::FsmTransition {
                instance: 1,
                at: 13,
                state: FsmState::ParseKey,
                field_number: 3,
            },
            TraceEvent::AdtAccess {
                instance: 1,
                at: 14,
                unit: AdtUnit::Deser,
                hit: false,
                cycles: 21,
            },
            TraceEvent::Field {
                instance: 1,
                start: 13,
                cycles: 9,
                field_number: 3,
            },
            TraceEvent::DeserOp {
                instance: 1,
                start: 12,
                cycles: 52,
                fsm_cycles: 30,
                stream_cycles: 52,
                wire_bytes: 128,
                fields: 4,
            },
            TraceEvent::FsuOp {
                instance: 1,
                unit: 2,
                start: 5,
                cycles: 7,
                field_number: 8,
            },
            TraceEvent::MemwriterFlush {
                instance: 1,
                start: 20,
                cycles: 6,
                bytes: 96,
            },
            TraceEvent::SerOp {
                instance: 1,
                start: 70,
                cycles: 44,
                frontend_cycles: 20,
                fsu_cycles: 44,
                memwriter_cycles: 12,
                out_len: 96,
                fields: 4,
            },
            TraceEvent::MemAccess {
                requester: 1,
                at: 15,
                cycles: 20,
                addr: 0xdead_beef,
                len: 64,
                write: false,
                mode: MemAccessMode::Stream,
                tlb_walk_cycles: 0,
                l1_hits: 3,
                l2_hits: 1,
                llc_hits: 0,
                dram_accesses: 0,
            },
            TraceEvent::CmdRetry {
                seq: 0,
                at: 60,
                instance: 1,
                attempt: 1,
            },
            TraceEvent::CmdFallback { seq: 0, at: 61 },
            TraceEvent::CmdComplete {
                seq: 0,
                enqueue: 10,
                dispatch: 62,
                complete: 120,
                service: 58,
                instance: FALLBACK_TRACK,
                wire_bytes: 128,
                deser: true,
                sharers: 1,
                attempts: 2,
                outcome: CmdOutcome::Fallback,
            },
            TraceEvent::CmdDrop { seq: 1, at: 11 },
            TraceEvent::CmdShed {
                seq: 2,
                at: 13,
                deadline: 500,
                estimate: 900,
            },
            TraceEvent::FrameDecode {
                conn: 3,
                at: 9,
                len: 77,
                ok: false,
            },
            TraceEvent::CmdComplete {
                seq: 2,
                enqueue: 13,
                dispatch: 13,
                complete: 14,
                service: 1,
                instance: FALLBACK_TRACK,
                wire_bytes: 0,
                deser: false,
                sharers: 1,
                attempts: 0,
                outcome: CmdOutcome::Shed,
            },
        ]
    }

    #[test]
    fn export_parse_round_trips_every_event_kind() {
        let events = sample_events();
        let expected = vec![ExpectedStats {
            instance: 1,
            deser_ops: 1,
            deser_cycles: 52,
            ser_ops: 1,
            ser_cycles: 44,
            saturated: false,
        }];
        let json = export(&events, &expected);
        let parsed = parse(&json).expect("round trip");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.expected, expected);
    }

    #[test]
    fn export_is_versioned_and_rejects_other_versions() {
        let json = export(&[], &[]);
        assert!(json.contains("\"schema_version\": 1"));
        let bumped = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = parse(&bumped).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
    }

    #[test]
    fn parser_rejects_malformed_json() {
        assert!(parse("{").is_err());
        assert!(parse("[]").is_err());
        assert!(parse("{\"schema_version\":1}").is_err());
        assert!(
            parse("{\"schema_version\":1,\"traceEvents\":[{\"args\":{\"kind\":\"nope\"}}]}")
                .is_err()
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = json_str("a\"b\\c\nd\te\u{1}");
        let mut p = Parser::new(&s);
        let v = p.value().unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }
}
