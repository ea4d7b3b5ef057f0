//! Durability wiring: the binary encoding of catalog mutations for the
//! write-ahead log and checkpoint segments, plus the background
//! [`Checkpointer`].
//!
//! The storage layer (`conquer-storage`) moves opaque bytes; this module
//! owns what the bytes mean. Five record kinds cover every catalog
//! mutation:
//!
//! | kind | record | logged by |
//! |------|--------|-----------|
//! | 1 | `Create(name, schema)`              | `CREATE TABLE` |
//! | 2 | `Insert(name, rows)`                | `INSERT` (the new rows only) |
//! | 4 | `Drop(name)`                        | `Database::drop_table` |
//! | 5 | `Index(name, key columns)`          | `Database::create_index` |
//! | 6 | `Snapshot(name, schema, row count, column blocks, indexes)` | `Database::register` (annotation recompute, bulk loads) |
//!
//! A Snapshot payload is columnar — one block per column, written from and
//! read into the table's [`ColumnChunk`]s with no row in between:
//!
//! ```text
//! snapshot := name:str schema rows:u64 block* n_indexes:u32 (n:u32 str*)*
//! block    := layout:u8 has_validity:u8 [words:u64; ceil(rows/64)]? body
//! body     := Int [i64; rows] | Float [f64 bits; rows] | Date [i32; rows]
//!           | Bool [u8; rows]  | Text n:u32 str* [code:u32; rows]
//!           | Any value*rows (tagged, NULLs inline; never a validity)
//! ```
//!
//! Checkpoint segments reuse the Snapshot payload, so the same decoder
//! serves WAL replay and segment loading; a manifest marks its segments
//! columnar with the [`SEGMENT_FORMAT`] meta key. Statistics are not
//! durable: a recovered table version has none until its first reader
//! collects them, as any other version. Index *declarations* are durable (a
//! snapshot carries its table's declared indexes); the built postings are
//! not — recovery reinstalls declarations unbuilt, and the first query that
//! plans against the table rebuilds lazily, keeping cold-boot recovery time
//! independent of index count.
//!
//! Directories written before the columnar payload hold row-shaped
//! snapshots with statistics: kind-3 WAL records, and segments under a
//! manifest without [`SEGMENT_FORMAT`]. [`decode_row_snapshot`] reads them
//! (and drops their statistics); nothing writes them, and the next
//! checkpoint rewrites such a directory columnar.
//!
//! Every decoder is bounds-checked and returns [`EngineError::Storage`] on
//! malformed input; nothing here can panic on a corrupt file, or allocate
//! more than the bytes in hand could fill.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use conquer_storage::Store;

use crate::col::{Bitmap, ColBatch, ColumnChunk, ColumnData, TextDict};
use crate::error::{EngineError, Result};
use crate::schema::{Column, DataType, Schema};
use crate::table::{check_chunk, Row, Table};
use crate::value::Value;
use crate::Database;

pub(crate) const KIND_CREATE: u8 = 1;
pub(crate) const KIND_INSERT: u8 = 2;
/// The row-shaped Snapshot, read by [`decode_row_snapshot`], never written.
pub(crate) const KIND_ROW_SNAPSHOT: u8 = 3;
pub(crate) const KIND_DROP: u8 = 4;
pub(crate) const KIND_INDEX: u8 = 5;
pub(crate) const KIND_SNAPSHOT: u8 = 6;

/// The manifest meta key (beside `catalog_epoch`) naming the checkpoint
/// segments' payload format. Every checkpoint writes
/// [`SEGMENT_FORMAT_COLUMNAR`]; a manifest without the key has row-shaped
/// segments.
pub(crate) const SEGMENT_FORMAT: &str = "segment_format";
pub(crate) const SEGMENT_FORMAT_COLUMNAR: u64 = 2;

/// A decoded snapshot: the table and its index declarations.
pub(crate) type Snapshot = (Table, Vec<Vec<String>>);

/// How a durable [`Database`](crate::Database) is opened — see
/// [`Database::open`](crate::Database::open).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// WAL fsync policy.
    pub sync: conquer_storage::SyncPolicy,
    /// Checkpoint inline when the WAL reaches this many bytes (`0`
    /// disables the size trigger; the background checkpointer and explicit
    /// [`Database::checkpoint`](crate::Database::checkpoint) calls still
    /// work).
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            sync: conquer_storage::SyncPolicy::Always,
            checkpoint_wal_bytes: 64 << 20,
        }
    }
}

/// The durable half of a [`Database`](crate::Database): the store plus the
/// auto-checkpoint threshold.
pub(crate) struct Durability {
    pub store: Store,
    pub checkpoint_wal_bytes: u64,
}

pub(crate) fn storage_err(e: std::io::Error) -> EngineError {
    EngineError::Storage(e.to_string())
}

fn corrupt(what: &str) -> EngineError {
    EngineError::Storage(format!("{what} in durable record"))
}

/// Bridge `conquer_storage::fault` to the engine's deterministic fault
/// schedule. Installed once per process on the first durable open; a no-op
/// bridge without the `fault-injection` feature (`faults::trip` compiles
/// to `Ok(())`).
pub(crate) fn install_fault_hook() {
    fn hook(point: &'static str) -> std::io::Result<()> {
        crate::faults::trip(point).map_err(|e| std::io::Error::other(e.to_string()))
    }
    conquer_storage::fault::set_hook(hook);
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Integer => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Date => 3,
        DataType::Boolean => 4,
        DataType::Any => 5,
    }
}

fn type_of_tag(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Date,
        4 => DataType::Boolean,
        5 => DataType::Any,
        _ => return None,
    })
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    buf.extend_from_slice(&(schema.columns.len() as u32).to_le_bytes());
    for col in &schema.columns {
        match &col.qualifier {
            Some(q) => {
                buf.push(1);
                put_str(buf, q);
            }
            None => buf.push(0),
        }
        put_str(buf, &col.name);
        buf.push(type_tag(col.ty));
    }
}

fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            put_value(buf, v);
        }
    }
}

fn put_fixed<T: Copy, const N: usize>(buf: &mut Vec<u8>, xs: &[T], le: fn(T) -> [u8; N]) {
    buf.reserve(xs.len() * N);
    for &x in xs {
        buf.extend_from_slice(&le(x));
    }
}

/// A block's layout tag: the chunk's representation, which an `Any`
/// demotion can make differ from its column's declared type.
fn layout_tag(data: &ColumnData) -> u8 {
    match data {
        ColumnData::Int(_) => 0,
        ColumnData::Float(_) => 1,
        ColumnData::Date(_) => 2,
        ColumnData::Bool(_) => 3,
        ColumnData::Text { .. } => 4,
        ColumnData::Any(_) => 5,
    }
}

fn put_block(buf: &mut Vec<u8>, chunk: &ColumnChunk) {
    buf.push(layout_tag(&chunk.data));
    match &chunk.validity {
        Some(bm) => {
            buf.push(1);
            put_fixed(buf, bm.words(), u64::to_le_bytes);
        }
        None => buf.push(0),
    }
    match &chunk.data {
        ColumnData::Int(xs) => put_fixed(buf, xs, i64::to_le_bytes),
        ColumnData::Float(xs) => put_fixed(buf, xs, f64::to_le_bytes),
        ColumnData::Date(xs) => put_fixed(buf, xs, i32::to_le_bytes),
        ColumnData::Bool(xs) => buf.extend(xs.iter().map(|&b| u8::from(b))),
        ColumnData::Text { codes, dict } => {
            buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
            for s in dict.strings() {
                put_str(buf, s);
            }
            put_fixed(buf, codes, u32::to_le_bytes);
        }
        ColumnData::Any(vs) => {
            for v in vs {
                put_value(buf, v);
            }
        }
    }
}

/// `Create` record: table name + schema.
pub(crate) fn encode_create(name: &str, schema: &Schema) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    put_schema(&mut buf, schema);
    buf
}

/// `Insert` record: table name + the newly appended rows only.
pub(crate) fn encode_insert(name: &str, rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    put_rows(&mut buf, rows);
    buf
}

/// `Drop` record: just the table name.
pub(crate) fn encode_drop(name: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    buf
}

fn put_index_decl(buf: &mut Vec<u8>, cols: &[String]) {
    buf.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for col in cols {
        put_str(buf, col);
    }
}

/// `Index` record: table name + key column names in index order.
pub(crate) fn encode_index(name: &str, cols: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, name);
    put_index_decl(&mut buf, cols);
    buf
}

/// `Snapshot` record / checkpoint segment payload: the table's name,
/// schema and row count, one block per column, then its declared index
/// key-column lists. The index section is not optional — every snapshot
/// carries it (possibly empty), so the decoder rejects truncation anywhere
/// in the payload.
pub(crate) fn encode_snapshot(table: &Table, indexes: &[Vec<String>]) -> Vec<u8> {
    let batch = table.cols();
    let mut buf = Vec::with_capacity(batch.byte_size() + 64);
    put_str(&mut buf, table.name());
    put_schema(&mut buf, table.schema());
    buf.extend_from_slice(&(batch.len() as u64).to_le_bytes());
    for chunk in batch.cols() {
        put_block(&mut buf, chunk);
    }
    buf.extend_from_slice(&(indexes.len() as u32).to_le_bytes());
    for cols in indexes {
        put_index_decl(&mut buf, cols);
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .bytes
            .get(self.at..self.at.saturating_add(n))
            .ok_or_else(|| corrupt("truncation"))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A row count; the blocks or rows after it bound what it can claim.
    fn count(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("row count"))
    }

    fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("invalid UTF-8"))
    }

    fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    /// `n` fixed-width little-endian values. The bytes are taken first, so
    /// the vector is never larger than the payload they came from.
    fn fixed<T, const N: usize>(&mut self, n: usize, from: fn([u8; N]) -> T) -> Result<Vec<T>> {
        let bytes = self.take(n.checked_mul(N).ok_or_else(|| corrupt("truncation"))?)?;
        let values = bytes.chunks_exact(N).map(|c| {
            let mut le = [0u8; N];
            le.copy_from_slice(c);
            from(le)
        });
        Ok(values.collect())
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(Arc::from(self.str_ref()?)),
            5 => {
                let b = self.take(4)?;
                Value::Date(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            tag => return Err(corrupt(&format!("unknown value tag {tag}"))),
        })
    }

    fn schema(&mut self) -> Result<Schema> {
        let n = self.u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let qualifier = match self.u8()? {
                0 => None,
                _ => Some(self.str()?),
            };
            let name = self.str()?;
            let tag = self.u8()?;
            let ty = type_of_tag(tag).ok_or_else(|| corrupt(&format!("unknown type tag {tag}")))?;
            columns.push(Column {
                qualifier,
                name,
                ty,
            });
        }
        Ok(Schema::new(columns))
    }

    fn rows(&mut self) -> Result<Vec<Row>> {
        let n = self.count()?;
        let mut rows = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let width = self.u32()? as usize;
            let mut row = Vec::with_capacity(width.min(1 << 12));
            for _ in 0..width {
                row.push(self.value()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// One column block of `rows` rows (see the module docs), not yet
    /// checked against its column.
    fn block(&mut self, rows: usize) -> Result<ColumnChunk> {
        let layout = self.u8()?;
        let validity = match self.u8()? {
            0 => None,
            1 => {
                let words = self.fixed(rows.div_ceil(64), u64::from_le_bytes)?;
                Some(Bitmap::from_words(words, rows))
            }
            flag => return Err(corrupt(&format!("unknown validity flag {flag}"))),
        };
        let data = match layout {
            0 => ColumnData::Int(self.fixed(rows, i64::from_le_bytes)?),
            1 => ColumnData::Float(self.fixed(rows, f64::from_le_bytes)?),
            2 => ColumnData::Date(self.fixed(rows, i32::from_le_bytes)?),
            3 => ColumnData::Bool(self.take(rows)?.iter().map(|&b| b != 0).collect()),
            4 => {
                let mut dict = TextDict::new();
                for code in 0..self.u32()? {
                    if dict.intern(self.str_ref()?) != code {
                        return Err(corrupt("repeated dictionary string"));
                    }
                }
                let codes = self.fixed(rows, u32::from_le_bytes)?;
                let dict = Arc::new(dict);
                ColumnData::Text { codes, dict }
            }
            5 => ColumnData::Any((0..rows).map(|_| self.value()).collect::<Result<_>>()?),
            tag => return Err(corrupt(&format!("unknown block layout {tag}"))),
        };
        Ok(ColumnChunk { data, validity })
    }

    fn index_decl(&mut self) -> Result<Vec<String>> {
        let n = self.u32()? as usize;
        let mut cols = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            cols.push(self.str()?);
        }
        Ok(cols)
    }

    /// A snapshot's closing index section, then the end of the payload.
    fn index_decls_then_end(mut self) -> Result<Vec<Vec<String>>> {
        let n = self.u32()? as usize;
        let mut indexes = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            indexes.push(self.index_decl()?);
        }
        self.finish()?;
        Ok(indexes)
    }

    fn finish(self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes"))
        }
    }
}

pub(crate) fn decode_create(payload: &[u8]) -> Result<(String, Schema)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let schema = cur.schema()?;
    cur.finish()?;
    Ok((name, schema))
}

pub(crate) fn decode_insert(payload: &[u8]) -> Result<(String, Vec<Row>)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let rows = cur.rows()?;
    cur.finish()?;
    Ok((name, rows))
}

pub(crate) fn decode_drop(payload: &[u8]) -> Result<String> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    cur.finish()?;
    Ok(name)
}

pub(crate) fn decode_index(payload: &[u8]) -> Result<(String, Vec<String>)> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let cols = cur.index_decl()?;
    cur.finish()?;
    Ok((name, cols))
}

/// A columnar Snapshot record or segment payload.
pub(crate) fn decode_snapshot(payload: &[u8]) -> Result<Snapshot> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let schema = cur.schema()?;
    let rows = cur.count()?;
    let mut chunks = Vec::with_capacity(schema.len());
    for col in &schema.columns {
        // A layout that does not fit the column's type, a bitmap on an
        // `Any` block, a text code past its dictionary at a valid row.
        let chunk = cur.block(rows)?;
        check_chunk(&name, &col.name, col.ty, &chunk, rows)
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        chunks.push(Arc::new(chunk));
    }
    let indexes = cur.index_decls_then_end()?;
    let batch = ColBatch::from_chunks(rows, chunks);
    Ok((Table::from_parts(name, schema, batch), indexes))
}

/// The pre-columnar Snapshot payload (kind-3 records, and segments under a
/// manifest without [`SEGMENT_FORMAT`]): name, schema, statistics, then
/// row after row of tagged values, then the index section. Decode only:
/// the statistics are skipped — the first reader collects its own — and
/// each value goes straight into its column's chunk.
pub(crate) fn decode_row_snapshot(payload: &[u8]) -> Result<Snapshot> {
    let mut cur = Cursor::new(payload);
    let name = cur.str()?;
    let schema = cur.schema()?;
    cur.u64()?; // the statistics' row count
    for _ in 0..cur.u32()? {
        cur.take(16)?; // ndv, null count
        for _bound in 0..2 {
            if cur.u8()? != 0 {
                cur.u64()?;
            }
        }
    }
    let mut chunks: Vec<ColumnChunk> = schema
        .columns
        .iter()
        .map(|c| ColumnChunk::for_type(c.ty))
        .collect();
    let rows = cur.count()?;
    for _ in 0..rows {
        let width = cur.u32()? as usize;
        if width != schema.len() {
            return Err(EngineError::Storage(format!(
                "snapshot row arity {width} does not match schema width {}",
                schema.len()
            )));
        }
        for chunk in &mut chunks {
            chunk.push(cur.value()?);
        }
    }
    let indexes = cur.index_decls_then_end()?;
    let batch = ColBatch::from_chunks(rows, chunks.into_iter().map(Arc::new).collect());
    Ok((Table::from_parts(name, schema, batch), indexes))
}

// ---------------------------------------------------------------------------
// Background checkpointer
// ---------------------------------------------------------------------------

/// A background thread that periodically checkpoints a durable database
/// and ticks the interval fsync policy. Stops (and joins) on drop or
/// [`Checkpointer::stop`].
pub struct Checkpointer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
    errors: Arc<AtomicU64>,
}

impl Checkpointer {
    /// Spawn the checkpointer: every `interval` the database is
    /// checkpointed if its WAL holds any records; between checkpoints the
    /// WAL's `interval_ms` sync policy is ticked so it holds even when no
    /// appends arrive.
    pub fn spawn(db: Arc<Database>, interval: Duration) -> Checkpointer {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let errors = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_errors = Arc::clone(&errors);
        let tick = interval
            .min(Duration::from_millis(200))
            .max(Duration::from_millis(10));
        let handle = std::thread::Builder::new()
            .name("conquer-checkpointer".into())
            .spawn(move || {
                let (lock, cvar) = &*thread_stop;
                let mut last_checkpoint = Instant::now();
                let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if *stopped {
                        return;
                    }
                    let (guard, _) = cvar
                        .wait_timeout(stopped, tick)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if db.flush_if_due().is_err() {
                        thread_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if last_checkpoint.elapsed() >= interval {
                        last_checkpoint = Instant::now();
                        match db.checkpoint_if_dirty() {
                            Ok(_) => {}
                            Err(_) => {
                                thread_errors.fetch_add(1, Ordering::Relaxed);
                                conquer_obs::registry()
                                    .counter("storage.checkpoint.errors")
                                    .inc();
                            }
                        }
                    }
                }
            })
            .ok();
        Checkpointer {
            stop,
            handle,
            errors,
        }
    }

    /// Background errors observed so far (also counted in
    /// `storage.checkpoint.errors`).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Signal the thread to stop and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encodings_roundtrip() {
        let schema = Schema::new(vec![
            Column::bare("a", DataType::Integer),
            Column::new(Some("t"), "b", DataType::Text),
        ]);
        let (name, decoded) = decode_create(&encode_create("t", &schema)).unwrap();
        assert_eq!(name, "t");
        assert_eq!(decoded, schema);

        let rows = vec![
            vec![Value::Int(-7), Value::str("x")],
            vec![Value::Null, Value::Float(2.5)],
            vec![Value::Bool(true), Value::Date(19000)],
        ];
        let (name, decoded) = decode_insert(&encode_insert("t", &rows)).unwrap();
        assert_eq!(name, "t");
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0][0], Value::Int(-7));
        assert!(matches!(decoded[2][1], Value::Date(19000)));

        assert_eq!(decode_drop(&encode_drop("orders")).unwrap(), "orders");

        let cols = vec!["custkey".to_string(), "nationkey".to_string()];
        let (name, decoded) = decode_index(&encode_index("customer", &cols)).unwrap();
        assert_eq!(name, "customer");
        assert_eq!(decoded, cols);
    }

    /// Deterministic pseudo-random numbers (xorshift64).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// A random table of `rows` rows: one column of every declared type
    /// (each layout with and without NULLs), an `Any` column, a Float
    /// column demoted by an Int, two text columns over one dictionary
    /// that also holds strings no row uses.
    fn random_table(rng: &mut Rng, rows: usize) -> Table {
        let mut shared = TextDict::new();
        for s in ["unused", "x", "yy", "", "zzz", "also unused"] {
            shared.intern(s);
        }
        let shared = Arc::new(shared);
        let nullable = |rng: &mut Rng, v: Value| {
            if rng.below(4) == 0 {
                Value::Null
            } else {
                v
            }
        };
        let mut columns: Vec<(&str, DataType, Vec<Value>)> = vec![
            ("i", DataType::Integer, vec![]),
            ("f", DataType::Float, vec![]),
            ("d", DataType::Date, vec![]),
            ("b", DataType::Boolean, vec![]),
            ("s", DataType::Text, vec![]),
            ("a", DataType::Any, vec![]),
            ("demoted", DataType::Float, vec![]),
        ];
        for r in 0..rows {
            let i = rng.below(1 << 40) as i64 - (1 << 39);
            let f = f64::from_bits(rng.below(u64::MAX));
            let values = [
                nullable(rng, Value::Int(i)),
                nullable(rng, Value::Float(f)),
                nullable(rng, Value::Date(i as i32)),
                nullable(rng, Value::Bool(i % 2 == 0)),
                nullable(rng, Value::str(format!("s{}", i % 5))),
                match rng.below(6) {
                    0 => Value::Null,
                    1 => Value::Int(i),
                    2 => Value::Float(i as f64 / 3.0),
                    3 => Value::str("any"),
                    4 => Value::Date(7),
                    _ => Value::Bool(false),
                },
                if r % 3 == 0 {
                    Value::Int(i)
                } else {
                    Value::Float(0.5)
                },
            ];
            for (col, v) in columns.iter_mut().zip(values) {
                col.2.push(v);
            }
        }
        let shared_codes =
            |rng: &mut Rng| -> Vec<u32> { (0..rows).map(|_| rng.below(3) as u32 + 1).collect() };
        let mut chunks: Vec<(&str, DataType, ColumnChunk)> = columns
            .into_iter()
            .map(|(name, ty, values)| {
                let mut chunk = ColumnChunk::for_type(ty);
                for v in values {
                    chunk.push(v);
                }
                (name, ty, chunk)
            })
            .collect();
        let with_nulls = ColumnChunk {
            validity: Bitmap::from_flags(&(0..rows).map(|r| r % 5 != 1).collect::<Vec<_>>()),
            ..ColumnChunk::text(shared_codes(rng), Arc::clone(&shared))
        };
        chunks.push((
            "t1",
            DataType::Text,
            ColumnChunk::text(shared_codes(rng), shared),
        ));
        chunks.push(("t2", DataType::Text, with_nulls));
        Table::from_columns("r", chunks).unwrap()
    }

    /// `a` and `b` hold the same column: one layout, NULLs in the same
    /// rows, the same values (floats to the bit) and, for text, the same
    /// dictionary and codes.
    fn assert_same_chunk(a: &ColumnChunk, b: &ColumnChunk, what: &str) {
        assert_eq!(layout_tag(&a.data), layout_tag(&b.data), "{what}");
        assert_eq!(a.len(), b.len(), "{what}");
        for i in 0..a.len() {
            let (x, y) = (a.value_at(i), b.value_at(i));
            assert_eq!(format!("{x:?}"), format!("{y:?}"), "{what} row {i}");
        }
        if let (
            ColumnData::Text { codes, dict },
            ColumnData::Text {
                codes: codes_b,
                dict: dict_b,
            },
        ) = (&a.data, &b.data)
        {
            assert_eq!(dict.strings(), dict_b.strings(), "{what}");
            let valid = |i: usize| !a.is_null(i);
            let same = (0..a.len())
                .filter(|&i| valid(i))
                .all(|i| codes[i] == codes_b[i]);
            assert!(same, "{what}");
        }
    }

    #[test]
    fn snapshot_roundtrips_every_layout() {
        let mut rng = Rng(0x5EED_CAFE);
        for rows in [0, 1, 63, 64, 65, 200, 1000] {
            let table = random_table(&mut rng, rows);
            let decls = vec![
                vec!["i".to_string()],
                vec!["s".to_string(), "d".to_string()],
            ];
            let (decoded, decoded_decls) =
                decode_snapshot(&encode_snapshot(&table, &decls)).unwrap();
            assert_eq!(decoded.name(), "r");
            assert_eq!(decoded.schema(), table.schema());
            assert_eq!(decoded.len(), rows);
            assert_eq!(decoded_decls, decls);
            for (c, (a, b)) in table
                .cols()
                .cols()
                .iter()
                .zip(decoded.cols().cols())
                .enumerate()
            {
                assert_same_chunk(a, b, &format!("{rows} rows, column {c}"));
            }
        }
        // A table without columns, and one without rows or indexes.
        for table in [
            Table::new("none", vec![]),
            Table::new("e", vec![("k", DataType::Text)]),
        ] {
            let (decoded, decls) = decode_snapshot(&encode_snapshot(&table, &[])).unwrap();
            assert_eq!((decoded.name(), decoded.len()), (table.name(), 0));
            assert_eq!(decoded.schema(), table.schema());
            assert!(decls.is_empty());
        }
    }

    /// A one-column snapshot payload around a hand-written `block`.
    fn payload(ty: DataType, rows: u64, block: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, "t");
        put_schema(&mut buf, &Schema::new(vec![Column::bare("c", ty)]));
        buf.extend_from_slice(&rows.to_le_bytes());
        buf.extend_from_slice(block);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf
    }

    /// A text block of `rows` rows over the dictionary `["a"]`, NULL where
    /// `validity` clears a bit.
    fn text_block(codes: &[u32], validity: Option<u64>) -> Vec<u8> {
        let mut block = vec![4];
        match validity {
            Some(word) => {
                block.push(1);
                block.extend_from_slice(&word.to_le_bytes());
            }
            None => block.push(0),
        }
        block.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut block, "a");
        put_fixed(&mut block, codes, u32::to_le_bytes);
        block
    }

    #[test]
    fn decoders_reject_corruption_without_panicking() {
        let mut rng = Rng(7);
        let table = random_table(&mut rng, 70);
        let payload_ok = encode_snapshot(&table, &[vec!["i".to_string()]]);
        for cut in 0..payload_ok.len() {
            assert!(decode_snapshot(&payload_ok[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = payload_ok.clone();
        extended.push(0xAB);
        assert!(decode_snapshot(&extended).is_err());

        let text = |rows, block: &[u8]| decode_snapshot(&payload(DataType::Text, rows, block));
        // The hand-written blocks are well-formed until broken.
        assert!(text(2, &text_block(&[0, 0], None)).is_ok());
        // A code at or past the dictionary's end, at a valid row; at a
        // NULL row it is a placeholder nobody reads.
        assert!(text(2, &text_block(&[0, 1], None)).is_err());
        assert!(text(2, &text_block(&[0, u32::MAX], None)).is_err());
        assert!(text(2, &text_block(&[0, 9], Some(0b01))).is_ok());
        assert!(text(2, &text_block(&[9, 0], Some(0b01))).is_err());
        // A bitmap one word short of 65 rows.
        let mut short = vec![0, 1];
        short.extend_from_slice(&u64::MAX.to_le_bytes());
        put_fixed(&mut short, &[7i64; 65], i64::to_le_bytes);
        assert!(decode_snapshot(&payload(DataType::Integer, 65, &short)).is_err());
        // Row counts whose blocks overrun the payload, or overflow a size.
        let ints: Vec<u8> = [0, 0].into_iter().chain(5i64.to_le_bytes()).collect();
        assert!(decode_snapshot(&payload(DataType::Integer, 1, &ints)).is_ok());
        for rows in [2, 1 << 40, u64::MAX / 8 + 1, u64::MAX] {
            assert!(decode_snapshot(&payload(DataType::Integer, rows, &ints)).is_err());
            assert!(text(rows, &text_block(&[0], None)).is_err());
            let any = payload(DataType::Any, rows, &[5, 0, 0]);
            assert!(decode_snapshot(&any).is_err());
        }
        // A block whose layout does not fit its column's type.
        assert!(
            decode_snapshot(&payload(DataType::Integer, 2, &text_block(&[0, 0], None))).is_err()
        );
        // An unknown layout or validity flag, a bitmap on an Any block, a
        // dictionary that repeats a string.
        assert!(decode_snapshot(&payload(DataType::Integer, 0, &[6, 0])).is_err());
        assert!(decode_snapshot(&payload(DataType::Integer, 0, &[0, 2])).is_err());
        let any_bitmap: Vec<u8> = [5, 1]
            .into_iter()
            .chain(1u64.to_le_bytes())
            .chain([0])
            .collect();
        assert!(decode_snapshot(&payload(DataType::Any, 1, &any_bitmap)).is_err());
        let mut twice = vec![4, 0];
        twice.extend_from_slice(&2u32.to_le_bytes());
        put_str(&mut twice, "a");
        put_str(&mut twice, "a");
        assert!(text(0, &twice).is_err());
    }

    /// The framed payload of a row-shaped segment of the pre-columnar
    /// fixture (`tests/fixtures/pre_columnar`): `typed` as it was
    /// checkpointed, 40 rows of six columns, statistics included.
    fn row_shaped_segment() -> &'static [u8] {
        let file = include_bytes!("../tests/fixtures/pre_columnar/seg-1-2.seg");
        &file[12..file.len() - 4]
    }

    #[test]
    fn the_row_shaped_reader_decodes_and_rejects_truncation() {
        let payload = row_shaped_segment();
        let (table, decls) = decode_row_snapshot(payload).unwrap();
        assert_eq!((table.name(), table.len()), ("typed", 40));
        assert_eq!(decls, vec![vec!["k".to_string()]]);
        for cut in 0..payload.len() {
            assert!(
                decode_row_snapshot(&payload[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // A row-shaped payload is not a columnar one.
        assert!(decode_snapshot(payload).is_err());
    }
}
