//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. The client speaks [`Request`]s, the
//! server answers each with exactly one [`Response`]; on connect the server
//! sends a single unsolicited [`Response::Hello`] (or a `busy` error when
//! at session capacity, after which it closes the connection). JSON keeps
//! the protocol inspectable with nothing but `nc` and keeps the workspace
//! zero-dependency — `conquer-obs` already ships the writer and parser.
//!
//! Result rows round-trip exactly: the full output schema (qualifier, name,
//! declared type) and every value are encoded such that decoding yields a
//! [`Rows`] bit-identical to in-process execution (dates and non-finite
//! floats use tagged objects since JSON has no spelling for them).

use std::io::{self, Read, Write};

use conquer_engine::{Column, DataType, EngineError, Rows, Schema, Value};
use conquer_obs::Json;

/// Upper bound on a single frame's payload (defence against hostile or
/// corrupt length prefixes; a 64 MiB result is far past anything the bench
/// workloads produce).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Write one frame: 4-byte big-endian length, then the rendered JSON.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> io::Result<()> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()
}

/// Encode one frame to bytes: 4-byte big-endian length, then the rendered
/// JSON. The event loop appends this to a connection's output buffer and
/// lets the nonblocking flusher drain it; errors only on an oversized
/// payload.
pub fn encode_frame(payload: &Json) -> io::Result<Vec<u8>> {
    let body = payload.render();
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                body.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    Ok(out)
}

/// The payload length a frame's prefix announces, checked against the cap.
fn decode_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    Ok(len)
}

/// A frame's payload as JSON.
fn decode_body(body: &[u8]) -> io::Result<Json> {
    let text = std::str::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    Json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

/// Incremental frame decoder for nonblocking sockets.
///
/// [`read_frame`] assumes a blocking stream: it can sit in `read_exact`
/// until a whole frame arrives. A nonblocking driver instead gets bytes in
/// arbitrary chunks — half a length prefix now, three frames at once
/// later — so it feeds whatever arrived into [`extend`](FrameBuf::extend)
/// and drains complete frames with [`next_frame`](FrameBuf::next_frame).
/// Both decode through the same length and body checks; a decode error
/// poisons the stream — the connection is no longer at a known frame
/// boundary and must close.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically so a long
    /// pipelined burst doesn't hold its full history in memory.
    pos: usize,
}

/// Compact the consumed prefix away once it crosses this many bytes (or
/// whenever the buffer is fully drained, which is the common case).
const FRAMEBUF_COMPACT_BYTES: usize = 64 * 1024;

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append newly-read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if the buffer holds one.
    /// `Ok(None)` means more bytes are needed; errors are terminal for the
    /// connection (oversized length, non-UTF-8, or malformed JSON).
    pub fn next_frame(&mut self) -> io::Result<Option<Json>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = decode_len([avail[0], avail[1], avail[2], avail[3]])?;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let json = decode_body(&avail[4..4 + len])?;
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= FRAMEBUF_COMPACT_BYTES {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(json))
    }
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary;
/// a mid-frame EOF, an oversized length prefix, or undecodable JSON is an
/// error (the connection is no longer at a known boundary and must close).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut body = vec![0u8; decode_len(prefix)?];
    r.read_exact(&mut body)?;
    decode_body(&body).map(Some)
}

/// How a session executes SQL: the three strategies of the paper's
/// evaluation. `Original` is possible-answer semantics; `Rewritten` and
/// `Annotated` compute consistent answers via the ConQuer rewriting
/// (Section 5's annotation-aware variant for the latter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    #[default]
    Original,
    Rewritten,
    Annotated,
}

impl Strategy {
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Original => "original",
            Strategy::Rewritten => "rewritten",
            Strategy::Annotated => "annotated",
        }
    }

    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "original" => Some(Strategy::Original),
            "rewritten" => Some(Strategy::Rewritten),
            "annotated" => Some(Strategy::Annotated),
            _ => None,
        }
    }
}

/// A client request. One frame each; the server answers every request with
/// exactly one [`Response`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse/rewrite/plan (through the statement cache) and execute.
    Query {
        sql: String,
        /// `None` uses the session strategy (`SET strategy ...`).
        strategy: Option<Strategy>,
    },
    /// Cache the statement and bind a session-local id for `Execute`.
    Prepare {
        sql: String,
        strategy: Option<Strategy>,
    },
    /// Execute a prepared statement by id.
    Execute { statement: u64 },
    /// Drop a prepared statement binding.
    CloseStatement { statement: u64 },
    /// Set a session option: `threads`, `timeout_ms`, `mem_limit`,
    /// `max_rows` (0 clears a limit), or `strategy`.
    Set { name: String, value: Json },
    /// Run a `;`-separated DDL/DML script (`CREATE TABLE` / `INSERT` /
    /// `DROP TABLE` / `CREATE INDEX`); invalidates the cached plans that
    /// read the tables it touches.
    Script { sql: String },
    /// Server + session statistics snapshot.
    Stats,
    /// Recent flight-recorder traces (newest first), optionally capped.
    TraceRecent { limit: Option<u64> },
    /// One query's full trace (all spans) by its `query_id`.
    TraceGet { query_id: u64 },
    /// Liveness probe.
    Ping,
    /// Close this session (the server responds, then closes).
    Quit,
    /// Stop accepting connections and shut the server down once sessions
    /// drain.
    Shutdown,
}

impl Request {
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query { sql, strategy } => {
                let mut o = Json::obj([
                    ("op", Json::from("query")),
                    ("sql", Json::from(sql.as_str())),
                ]);
                if let Some(s) = strategy {
                    o.push("strategy", Json::from(s.label()));
                }
                o
            }
            Request::Prepare { sql, strategy } => {
                let mut o = Json::obj([
                    ("op", Json::from("prepare")),
                    ("sql", Json::from(sql.as_str())),
                ]);
                if let Some(s) = strategy {
                    o.push("strategy", Json::from(s.label()));
                }
                o
            }
            Request::Execute { statement } => Json::obj([
                ("op", Json::from("execute")),
                ("statement", Json::UInt(*statement)),
            ]),
            Request::CloseStatement { statement } => Json::obj([
                ("op", Json::from("close_statement")),
                ("statement", Json::UInt(*statement)),
            ]),
            Request::Set { name, value } => Json::obj([
                ("op", Json::from("set")),
                ("name", Json::from(name.as_str())),
                ("value", value.clone()),
            ]),
            Request::Script { sql } => Json::obj([
                ("op", Json::from("script")),
                ("sql", Json::from(sql.as_str())),
            ]),
            Request::Stats => Json::obj([("op", Json::from("stats"))]),
            Request::TraceRecent { limit } => {
                let mut o = Json::obj([("op", Json::from("trace_recent"))]);
                if let Some(n) = limit {
                    o.push("limit", Json::UInt(*n));
                }
                o
            }
            Request::TraceGet { query_id } => Json::obj([
                ("op", Json::from("trace_get")),
                ("query_id", Json::UInt(*query_id)),
            ]),
            Request::Ping => Json::obj([("op", Json::from("ping"))]),
            Request::Quit => Json::obj([("op", Json::from("quit"))]),
            Request::Shutdown => Json::obj([("op", Json::from("shutdown"))]),
        }
    }

    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = str_field(json, "op")?;
        let strategy = |j: &Json| -> Result<Option<Strategy>, String> {
            match j.get("strategy") {
                None => Ok(None),
                Some(Json::Str(s)) => Strategy::parse(s)
                    .map(Some)
                    .ok_or_else(|| format!("unknown strategy `{s}`")),
                Some(other) => Err(format!("strategy must be a string, got {other}")),
            }
        };
        match op.as_str() {
            "query" => Ok(Request::Query {
                sql: str_field(json, "sql")?,
                strategy: strategy(json)?,
            }),
            "prepare" => Ok(Request::Prepare {
                sql: str_field(json, "sql")?,
                strategy: strategy(json)?,
            }),
            "execute" => Ok(Request::Execute {
                statement: uint_field(json, "statement")?,
            }),
            "close_statement" => Ok(Request::CloseStatement {
                statement: uint_field(json, "statement")?,
            }),
            "set" => Ok(Request::Set {
                name: str_field(json, "name")?,
                value: json
                    .get("value")
                    .cloned()
                    .ok_or_else(|| "missing field `value`".to_string())?,
            }),
            "script" => Ok(Request::Script {
                sql: str_field(json, "sql")?,
            }),
            "stats" => Ok(Request::Stats),
            "trace_recent" => Ok(Request::TraceRecent {
                limit: match json.get("limit") {
                    None => None,
                    Some(_) => Some(uint_field(json, "limit")?),
                },
            }),
            "trace_get" => Ok(Request::TraceGet {
                query_id: uint_field(json, "query_id")?,
            }),
            "ping" => Ok(Request::Ping),
            "quit" => Ok(Request::Quit),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Machine-readable failure category carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission queue or session cap over capacity: retry later.
    Busy,
    /// Malformed frame, unknown op, bad field types.
    Protocol,
    /// SQL failed to parse.
    Parse,
    /// The ConQuer rewriting rejected the query (not a tree query, missing
    /// key constraint, unannotated database under `annotated`).
    Rewrite,
    /// Unknown prepared-statement id.
    UnknownStatement,
    Timeout,
    MemExceeded,
    RowLimit,
    Cancelled,
    /// Any other engine planning/execution failure.
    Engine,
}

impl ErrorCode {
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Parse => "parse",
            ErrorCode::Rewrite => "rewrite",
            ErrorCode::UnknownStatement => "unknown_statement",
            ErrorCode::Timeout => "timeout",
            ErrorCode::MemExceeded => "mem_exceeded",
            ErrorCode::RowLimit => "row_limit",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Engine => "engine",
        }
    }

    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "busy" => ErrorCode::Busy,
            "protocol" => ErrorCode::Protocol,
            "parse" => ErrorCode::Parse,
            "rewrite" => ErrorCode::Rewrite,
            "unknown_statement" => ErrorCode::UnknownStatement,
            "timeout" => ErrorCode::Timeout,
            "mem_exceeded" => ErrorCode::MemExceeded,
            "row_limit" => ErrorCode::RowLimit,
            "cancelled" => ErrorCode::Cancelled,
            "engine" => ErrorCode::Engine,
            _ => return None,
        })
    }

    /// The structured category for an engine error.
    pub fn from_engine(e: &EngineError) -> ErrorCode {
        match e {
            EngineError::Timeout(_) => ErrorCode::Timeout,
            EngineError::MemoryExceeded(_) => ErrorCode::MemExceeded,
            EngineError::RowLimitExceeded(_) => ErrorCode::RowLimit,
            EngineError::Cancelled(_) => ErrorCode::Cancelled,
            _ => ErrorCode::Engine,
        }
    }
}

/// One result batch plus its serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub rows: Rows,
    /// Whether the statement came out of the rewrite/plan cache.
    pub cached: bool,
    /// Server-side wall time for the request, microseconds.
    pub elapsed_us: u64,
}

/// A server reply. Exactly one per request, plus the connect-time `Hello`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Connect-time greeting.
    Hello { session: u64, version: String },
    /// Success without a payload (`set`, `script`, `ping`, `quit`, ...).
    Ok,
    /// Successful `prepare`: the session-local statement id.
    Prepared { statement: u64 },
    /// Successful `query`/`execute`.
    Rows(QueryOutcome),
    /// Successful `stats`.
    Stats(Json),
    /// Successful `trace_recent` (a `{recorded, capacity, traces: [...]}`
    /// dump) or `trace_get` (one full trace with its spans).
    Traces(Json),
    /// Any failure, including `busy` admission rejections.
    Error { code: ErrorCode, message: String },
}

impl Response {
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    pub fn to_json(&self) -> Json {
        match self {
            Response::Hello { session, version } => Json::obj([
                ("ok", Json::Bool(true)),
                ("hello", Json::from("conquer-serve")),
                ("version", Json::from(version.as_str())),
                ("session", Json::UInt(*session)),
            ]),
            Response::Ok => Json::obj([("ok", Json::Bool(true))]),
            Response::Prepared { statement } => Json::obj([
                ("ok", Json::Bool(true)),
                ("statement", Json::UInt(*statement)),
            ]),
            Response::Rows(outcome) => Json::obj([
                ("ok", Json::Bool(true)),
                ("result", rows_to_json(&outcome.rows)),
                ("cached", Json::Bool(outcome.cached)),
                ("elapsed_us", Json::UInt(outcome.elapsed_us)),
            ]),
            Response::Stats(stats) => {
                Json::obj([("ok", Json::Bool(true)), ("stats", stats.clone())])
            }
            Response::Traces(traces) => {
                Json::obj([("ok", Json::Bool(true)), ("traces", traces.clone())])
            }
            Response::Error { code, message } => Json::obj([
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::obj([
                        ("code", Json::from(code.label())),
                        ("message", Json::from(message.as_str())),
                    ]),
                ),
            ]),
        }
    }

    pub fn from_json(json: &Json) -> Result<Response, String> {
        match json.get("ok") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                let err = json
                    .get("error")
                    .ok_or_else(|| "error response without `error` field".to_string())?;
                let code_s = str_field(err, "code")?;
                let code = ErrorCode::parse(&code_s)
                    .ok_or_else(|| format!("unknown error code `{code_s}`"))?;
                return Ok(Response::Error {
                    code,
                    message: str_field(err, "message")?,
                });
            }
            _ => return Err("response without boolean `ok` field".to_string()),
        }
        if json.get("hello").is_some() {
            return Ok(Response::Hello {
                session: uint_field(json, "session")?,
                version: str_field(json, "version")?,
            });
        }
        if let Some(result) = json.get("result") {
            let cached = matches!(json.get("cached"), Some(Json::Bool(true)));
            let elapsed_us = uint_field(json, "elapsed_us").unwrap_or(0);
            return Ok(Response::Rows(QueryOutcome {
                rows: rows_from_json(result)?,
                cached,
                elapsed_us,
            }));
        }
        if let Some(stats) = json.get("stats") {
            return Ok(Response::Stats(stats.clone()));
        }
        if let Some(traces) = json.get("traces") {
            return Ok(Response::Traces(traces.clone()));
        }
        if let Some(Json::UInt(id)) = json.get("statement") {
            return Ok(Response::Prepared { statement: *id });
        }
        if let Some(Json::Int(id)) = json.get("statement") {
            return Ok(Response::Prepared {
                statement: u64::try_from(*id).map_err(|_| "negative statement id".to_string())?,
            });
        }
        Ok(Response::Ok)
    }
}

fn str_field(json: &Json, key: &str) -> Result<String, String> {
    match json.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field `{key}` must be a string, got {other}")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn uint_field(json: &Json, key: &str) -> Result<u64, String> {
    match json.get(key) {
        Some(Json::UInt(v)) => Ok(*v),
        Some(Json::Int(v)) if *v >= 0 => Ok(*v as u64),
        Some(other) => Err(format!(
            "field `{key}` must be a non-negative integer, got {other}"
        )),
        None => Err(format!("missing field `{key}`")),
    }
}

fn datatype_label(ty: DataType) -> &'static str {
    match ty {
        DataType::Integer => "integer",
        DataType::Float => "float",
        DataType::Text => "text",
        DataType::Date => "date",
        DataType::Boolean => "boolean",
        DataType::Any => "any",
    }
}

fn datatype_parse(s: &str) -> Option<DataType> {
    Some(match s {
        "integer" => DataType::Integer,
        "float" => DataType::Float,
        "text" => DataType::Text,
        "date" => DataType::Date,
        "boolean" => DataType::Boolean,
        "any" => DataType::Any,
        _ => return None,
    })
}

/// Encode one SQL value. Dates and non-finite floats use tagged
/// single-field objects (`{"$date": days}`, `{"$float": "nan"}`) because
/// JSON has no native spelling for them; finite floats rely on Rust's
/// shortest-roundtrip formatting, so decoding restores identical bits.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(v) => Json::Int(*v),
        Value::Float(f) if f.is_finite() => Json::Float(*f),
        Value::Float(f) => {
            let tag = if f.is_nan() {
                "nan"
            } else if *f > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            Json::obj([("$float", Json::from(tag))])
        }
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Date(d) => Json::obj([("$date", Json::Int(*d as i64))]),
    }
}

/// Decode one SQL value (inverse of [`value_to_json`]).
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    Ok(match json {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(v) => Value::Int(*v),
        Json::UInt(v) => {
            Value::Int(i64::try_from(*v).map_err(|_| format!("integer {v} overflows i64"))?)
        }
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::str(s),
        Json::Obj(_) => {
            if let Some(d) = json.get("$date") {
                match d {
                    Json::Int(days) => Value::Date(
                        i32::try_from(*days).map_err(|_| "date out of range".to_string())?,
                    ),
                    other => return Err(format!("$date must be an integer, got {other}")),
                }
            } else if let Some(Json::Str(tag)) = json.get("$float") {
                Value::Float(match tag.as_str() {
                    "nan" => f64::NAN,
                    "inf" => f64::INFINITY,
                    "-inf" => f64::NEG_INFINITY,
                    other => return Err(format!("unknown $float tag `{other}`")),
                })
            } else {
                return Err(format!("unknown tagged value {json}"));
            }
        }
        Json::Arr(_) => return Err("array is not a SQL value".to_string()),
    })
}

/// Encode a result batch with its full schema.
pub fn rows_to_json(rows: &Rows) -> Json {
    let columns = rows
        .schema
        .columns
        .iter()
        .map(|c| {
            let mut col = Json::obj([
                ("name", Json::from(c.name.as_str())),
                ("type", Json::from(datatype_label(c.ty))),
            ]);
            if let Some(q) = &c.qualifier {
                col.push("qualifier", Json::from(q.as_str()));
            }
            col
        })
        .collect::<Vec<_>>();
    let data = rows
        .rows
        .iter()
        .map(|row| Json::Arr(row.iter().map(value_to_json).collect()))
        .collect::<Vec<_>>();
    Json::obj([
        ("columns", Json::Arr(columns)),
        ("rows", Json::Arr(data)),
        ("row_count", Json::UInt(rows.rows.len() as u64)),
    ])
}

/// Decode a result batch (inverse of [`rows_to_json`]).
pub fn rows_from_json(json: &Json) -> Result<Rows, String> {
    let Some(Json::Arr(columns)) = json.get("columns") else {
        return Err("result without `columns` array".to_string());
    };
    let schema = Schema::new(
        columns
            .iter()
            .map(|c| {
                let name = str_field(c, "name")?;
                let ty_s = str_field(c, "type")?;
                let ty =
                    datatype_parse(&ty_s).ok_or_else(|| format!("unknown column type `{ty_s}`"))?;
                let qualifier = match c.get("qualifier") {
                    Some(Json::Str(q)) => Some(q.as_str()),
                    _ => None,
                };
                Ok(Column::new(qualifier, &name, ty))
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    let Some(Json::Arr(data)) = json.get("rows") else {
        return Err("result without `rows` array".to_string());
    };
    let rows = data
        .iter()
        .map(|row| match row {
            Json::Arr(cells) => cells.iter().map(value_from_json).collect(),
            other => Err(format!("row must be an array, got {other}")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Rows { schema, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let doc = Json::obj([("op", Json::from("ping"))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(doc));
        assert_eq!(read_frame(&mut cursor).unwrap(), None); // clean EOF
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj([("op", Json::from("ping"))])).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        let doc = Json::obj([("op", Json::from("ping")), ("n", Json::UInt(7))]);
        let mut written = Vec::new();
        write_frame(&mut written, &doc).unwrap();
        assert_eq!(encode_frame(&doc).unwrap(), written);
    }

    #[test]
    fn framebuf_decodes_byte_at_a_time() {
        let docs = [
            Json::obj([("op", Json::from("ping"))]),
            Json::obj([("op", Json::from("query")), ("sql", Json::from("select 1"))]),
            Json::obj([("op", Json::from("quit"))]),
        ];
        let mut wire = Vec::new();
        for doc in &docs {
            write_frame(&mut wire, doc).unwrap();
        }
        let mut frames = FrameBuf::new();
        let mut decoded = Vec::new();
        for byte in wire {
            frames.extend(&[byte]);
            while let Some(json) = frames.next_frame().unwrap() {
                decoded.push(json);
            }
        }
        assert_eq!(decoded, docs);
        assert_eq!(frames.buffered(), 0);
    }

    #[test]
    fn framebuf_decodes_a_pipelined_burst() {
        let docs: Vec<Json> = (0..5).map(|i| Json::obj([("i", Json::Int(i))])).collect();
        let mut wire = Vec::new();
        for doc in &docs {
            write_frame(&mut wire, doc).unwrap();
        }
        // Everything arrives in one read, plus half of a trailing frame.
        let extra = Json::obj([("i", Json::Int(99))]);
        let mut tail = Vec::new();
        write_frame(&mut tail, &extra).unwrap();
        let split = tail.len() / 2;
        let mut frames = FrameBuf::new();
        frames.extend(&wire);
        frames.extend(&tail[..split]);
        let mut decoded = Vec::new();
        while let Some(json) = frames.next_frame().unwrap() {
            decoded.push(json);
        }
        assert_eq!(decoded, docs);
        assert!(
            frames.buffered() > 0,
            "partial trailing frame stays buffered"
        );
        frames.extend(&tail[split..]);
        assert_eq!(frames.next_frame().unwrap(), Some(extra));
        assert_eq!(frames.buffered(), 0);
    }

    #[test]
    fn framebuf_rejects_oversized_and_malformed_frames() {
        let mut oversized = FrameBuf::new();
        oversized.extend(&(u32::MAX).to_be_bytes());
        assert!(oversized.next_frame().is_err());

        let mut garbage = FrameBuf::new();
        garbage.extend(&5u32.to_be_bytes());
        garbage.extend(b"nope!");
        assert!(garbage.next_frame().is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Query {
                sql: "select 1".into(),
                strategy: Some(Strategy::Rewritten),
            },
            Request::Query {
                sql: "select 1".into(),
                strategy: None,
            },
            Request::Prepare {
                sql: "select custkey from customer".into(),
                strategy: Some(Strategy::Annotated),
            },
            Request::Execute { statement: 3 },
            Request::CloseStatement { statement: 3 },
            Request::Set {
                name: "threads".into(),
                value: Json::Int(4),
            },
            Request::Script {
                sql: "create table t (a integer)".into(),
            },
            Request::Stats,
            Request::TraceRecent { limit: Some(10) },
            Request::TraceRecent { limit: None },
            Request::TraceGet { query_id: 42 },
            Request::Ping,
            Request::Quit,
            Request::Shutdown,
        ];
        for req in cases {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let rows = Rows {
            schema: Schema::new(vec![
                Column::new(Some("c"), "custkey", DataType::Integer),
                Column::bare("bal", DataType::Float),
                Column::bare("day", DataType::Date),
            ]),
            rows: vec![
                vec![Value::Int(1), Value::Float(0.1), Value::Date(19000)],
                vec![Value::Null, Value::Float(f64::NAN), Value::str("x")],
            ],
        };
        let cases = [
            Response::Hello {
                session: 7,
                version: "0.1.0".into(),
            },
            Response::Ok,
            Response::Prepared { statement: 9 },
            Response::Rows(QueryOutcome {
                rows,
                cached: true,
                elapsed_us: 1234,
            }),
            Response::Stats(Json::obj([("active_sessions", Json::UInt(2))])),
            Response::Traces(Json::obj([
                ("recorded", Json::UInt(5)),
                ("traces", Json::Arr(vec![])),
            ])),
            Response::error(ErrorCode::Busy, "queue full"),
        ];
        for resp in cases {
            let back = Response::from_json(&resp.to_json()).unwrap();
            match (&back, &resp) {
                // NaN != NaN under PartialEq; compare via re-encoding.
                (Response::Rows(a), Response::Rows(b)) => {
                    assert_eq!(a.rows.schema, b.rows.schema);
                    assert_eq!(
                        rows_to_json(&a.rows).render(),
                        rows_to_json(&b.rows).render()
                    );
                }
                _ => assert_eq!(back, resp),
            }
        }
    }

    #[test]
    fn unknown_ops_and_bad_fields_rejected() {
        assert!(Request::from_json(&Json::obj([("op", Json::from("nope"))])).is_err());
        assert!(Request::from_json(&Json::obj([("sql", Json::from("select 1"))])).is_err());
        assert!(Request::from_json(&Json::obj([
            ("op", Json::from("query")),
            ("sql", Json::from("select 1")),
            ("strategy", Json::from("bogus")),
        ]))
        .is_err());
        assert!(Request::from_json(&Json::obj([
            ("op", Json::from("execute")),
            ("statement", Json::Int(-1)),
        ]))
        .is_err());
    }

    #[test]
    fn value_encoding_is_exact() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(1.0 / 3.0),
            Value::str("héllo\n"),
            Value::Date(-1),
        ];
        for v in vals {
            let encoded = value_to_json(&v).render();
            let decoded = value_from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(format!("{v:?}"), format!("{decoded:?}"));
        }
    }
}
