//! Typed column batches: the columnar representation carried between
//! executor operators and stored inside [`crate::table::Table`].
//!
//! A [`ColBatch`] is a fixed set of column chunks sharing one length.
//! Numeric/date/bool columns are fixed-width vectors, text columns are
//! dictionary-encoded (`u32` codes into a shared [`TextDict`] — the
//! engine-wide `Arc<str>` interning made explicit), and NULLs live in an
//! optional validity [`Bitmap`] (absent ⇒ all rows valid). Columns whose
//! values don't fit their declared type (legal under the storage rule
//! that `Int` may sit in a `Float` column) demote to [`ColumnData::Any`],
//! which stores exact `Value`s and opts the column out of vectorized
//! kernels — fidelity first, speed where the data allows it.
//!
//! Operators that still work row-at-a-time — a hash inner / left join's
//! probe side, a nested loop join, a projection or an aggregate the kernels
//! do not compile —
//! pivot a batch into `Vec<Row>` through [`ColBatch::rows`]; the pivot is
//! computed once per batch and cached for as long as the batch lives, so a
//! pivot of a stored table's batch is a row copy of the table kept until
//! its version dies. An interpreted predicate does not pivot: it reads a
//! row in place ([`crate::expr::RowRef::At`], cell by cell through
//! [`ColumnChunk::value_at`]).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::schema::{DataType, Schema};
use crate::table::Row;
use crate::value::Value;

/// A packed bitset; bit `i` of word `i / 64` is row `i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` set bits (all rows valid).
    pub fn all_set(len: usize) -> Bitmap {
        let mut bm = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    pub fn with_capacity(n: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits in `[start, end)`, a word at a time.
    pub fn count_set_range(&self, start: usize, end: usize) -> usize {
        debug_assert!(start <= end && end <= self.len);
        if start == end {
            return 0;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            return (self.words[first] & head & tail).count_ones() as usize;
        }
        let middle: u32 = self.words[first + 1..last]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        ((self.words[first] & head).count_ones() + middle + (self.words[last] & tail).count_ones())
            as usize
    }

    /// Append `other`'s bits, a word at a time: each of its words lands
    /// shifted across the (at most two) words it straddles.
    pub fn extend(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= w << shift;
                }
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        // The last pushed word may hold only bits past the end, all zero.
        self.words.truncate(self.len.div_ceil(64));
    }

    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zero the bits above `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Heap bytes used.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// The packed words, `len.div_ceil(64)` of them, bits above `len` zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// A bitmap of `len` bits over `len.div_ceil(64)` words; bits above
    /// `len` are cleared.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Bitmap {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        bm
    }

    /// The validity bitmap for per-row flags, or `None` when every flag is
    /// set (the all-valid representation chunks use).
    pub fn from_flags(flags: &[bool]) -> Option<Bitmap> {
        if flags.iter().all(|&f| f) {
            return None;
        }
        let words = flags.chunks(64).map(|chunk| {
            let bits = chunk.iter().enumerate();
            bits.fold(0u64, |w, (i, &f)| w | (u64::from(f) << i))
        });
        Some(Bitmap {
            words: words.collect(),
            len: flags.len(),
        })
    }
}

/// Dictionary for a text column: code → interned string, plus the reverse
/// index used when appending.
#[derive(Debug, Clone, Default)]
pub struct TextDict {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl TextDict {
    pub fn new() -> TextDict {
        TextDict::default()
    }

    /// Code for `s`, inserting it if unseen. A hit allocates nothing; on
    /// a miss a `&str` is copied into the one allocation the dictionary
    /// and its index share, and an `Arc<str>` is shared as it is.
    pub fn intern(&mut self, s: impl AsRef<str> + Into<Arc<str>>) -> u32 {
        if let Some(&code) = self.index.get(s.as_ref()) {
            return code;
        }
        let code = self.strings.len() as u32;
        let s: Arc<str> = s.into();
        self.strings.push(Arc::clone(&s));
        self.index.insert(s, code);
        code
    }

    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Code for `s` if present (no insertion; usable on a shared dict).
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// Approximate heap bytes (entries + string payloads, counted once).
    pub fn byte_size(&self) -> usize {
        let payload: usize = self.strings.iter().map(|s| s.len()).sum();
        // Arc<str> in the vec + a HashMap entry per string.
        payload + self.strings.len() * (16 + 32)
    }
}

/// The typed payload of one column chunk.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Days since 1970-01-01, matching `Value::Date`.
    Date(Vec<i32>),
    Bool(Vec<bool>),
    /// Dictionary-encoded text. NULL slots hold code 0 as a placeholder
    /// (never dereferenced; the validity bitmap gates every read).
    Text {
        codes: Vec<u32>,
        dict: Arc<TextDict>,
    },
    /// Heterogeneous fallback: exact `Value`s including inline NULLs.
    /// `Any` chunks never carry a validity bitmap.
    Any(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text { codes, .. } => codes.len(),
            ColumnData::Any(v) => v.len(),
        }
    }
}

/// One column of a batch: typed data plus an optional validity bitmap
/// (absent ⇒ no NULLs).
#[derive(Debug, Clone)]
pub struct ColumnChunk {
    pub data: ColumnData,
    pub validity: Option<Bitmap>,
}

impl ColumnChunk {
    /// An empty chunk typed for `ty`.
    pub fn for_type(ty: DataType) -> ColumnChunk {
        let data = match ty {
            DataType::Integer => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Boolean => ColumnData::Bool(Vec::new()),
            DataType::Text => ColumnData::Text {
                codes: Vec::new(),
                dict: Arc::new(TextDict::new()),
            },
            DataType::Any => ColumnData::Any(Vec::new()),
        };
        ColumnChunk {
            data,
            validity: None,
        }
    }

    /// An integer column without NULLs.
    pub fn ints(values: Vec<i64>) -> ColumnChunk {
        ColumnChunk::all_valid(ColumnData::Int(values))
    }

    /// A float column without NULLs.
    pub fn floats(values: Vec<f64>) -> ColumnChunk {
        ColumnChunk::all_valid(ColumnData::Float(values))
    }

    /// A date column (days since 1970-01-01) without NULLs.
    pub fn dates(days: Vec<i32>) -> ColumnChunk {
        ColumnChunk::all_valid(ColumnData::Date(days))
    }

    /// A text column without NULLs: one code into `dict` per row. Chunks
    /// built over one `Arc` share the dictionary, and
    /// [`concat`](ColumnChunk::concat) appends their codes as they are.
    pub fn text(codes: Vec<u32>, dict: Arc<TextDict>) -> ColumnChunk {
        ColumnChunk::all_valid(ColumnData::Text { codes, dict })
    }

    fn all_valid(data: ColumnData) -> ColumnChunk {
        ColumnChunk {
            data,
            validity: None,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is row `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        if let ColumnData::Any(vs) = &self.data {
            return vs[i].is_null();
        }
        self.validity.as_ref().is_some_and(|bm| !bm.get(i))
    }

    /// Append a value, demoting the chunk to `Any` if the value's runtime
    /// type doesn't match the chunk's layout (exact `Value` identity is
    /// preserved across demotion).
    pub fn push(&mut self, v: Value) {
        if let ColumnData::Any(vs) = &mut self.data {
            vs.push(v);
            return;
        }
        if v.is_null() {
            let n = self.len();
            let bm = self.validity.get_or_insert_with(|| Bitmap::all_set(n));
            bm.push(false);
            self.push_placeholder();
            return;
        }
        let fits = matches!(
            (&self.data, &v),
            (ColumnData::Int(_), Value::Int(_))
                | (ColumnData::Float(_), Value::Float(_))
                | (ColumnData::Date(_), Value::Date(_))
                | (ColumnData::Bool(_), Value::Bool(_))
                | (ColumnData::Text { .. }, Value::Str(_))
        );
        if !fits {
            self.demote();
            if let ColumnData::Any(vs) = &mut self.data {
                vs.push(v);
            }
            return;
        }
        match (&mut self.data, v) {
            (ColumnData::Int(xs), Value::Int(x)) => xs.push(x),
            (ColumnData::Float(xs), Value::Float(x)) => xs.push(x),
            (ColumnData::Date(xs), Value::Date(x)) => xs.push(x),
            (ColumnData::Bool(xs), Value::Bool(x)) => xs.push(x),
            (ColumnData::Text { codes, dict }, Value::Str(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
            }
            _ => unreachable!("push: fits was checked above"),
        }
        if let Some(bm) = &mut self.validity {
            bm.push(true);
        }
    }

    fn push_placeholder(&mut self) {
        match &mut self.data {
            ColumnData::Int(xs) => xs.push(0),
            ColumnData::Float(xs) => xs.push(0.0),
            ColumnData::Date(xs) => xs.push(0),
            ColumnData::Bool(xs) => xs.push(false),
            ColumnData::Text { codes, .. } => codes.push(0),
            ColumnData::Any(_) => unreachable!("Any handled in push"),
        }
    }

    /// Rebuild as an `Any` chunk holding the exact values seen so far.
    fn demote(&mut self) {
        let values: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
        self.data = ColumnData::Any(values);
        self.validity = None;
    }

    /// The exact `Value` at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        if let ColumnData::Any(vs) = &self.data {
            return vs[i].clone();
        }
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(xs) => Value::Int(xs[i]),
            ColumnData::Float(xs) => Value::Float(xs[i]),
            ColumnData::Date(xs) => Value::Date(xs[i]),
            ColumnData::Bool(xs) => Value::Bool(xs[i]),
            ColumnData::Text { codes, dict } => Value::Str(Arc::clone(dict.get(codes[i]))),
            ColumnData::Any(_) => unreachable!("Any handled above"),
        }
    }

    /// New chunk holding the rows in `sel` (indices into this chunk), in
    /// `sel` order. Text columns share the dictionary.
    pub fn gather(&self, sel: &[u32]) -> ColumnChunk {
        let validity = self.validity.as_ref().map(|bm| {
            let mut out = Bitmap::with_capacity(sel.len());
            for &i in sel {
                out.push(bm.get(i as usize));
            }
            out
        });
        let data = match &self.data {
            ColumnData::Int(xs) => ColumnData::Int(sel.iter().map(|&i| xs[i as usize]).collect()),
            ColumnData::Float(xs) => {
                ColumnData::Float(sel.iter().map(|&i| xs[i as usize]).collect())
            }
            ColumnData::Date(xs) => ColumnData::Date(sel.iter().map(|&i| xs[i as usize]).collect()),
            ColumnData::Bool(xs) => ColumnData::Bool(sel.iter().map(|&i| xs[i as usize]).collect()),
            ColumnData::Text { codes, dict } => ColumnData::Text {
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                dict: Arc::clone(dict),
            },
            ColumnData::Any(vs) => {
                ColumnData::Any(sel.iter().map(|&i| vs[i as usize].clone()).collect())
            }
        };
        ColumnChunk { data, validity }
    }

    /// Number of NULLs in `[start, end)`.
    pub fn null_count_range(&self, start: usize, end: usize) -> usize {
        if let ColumnData::Any(vs) = &self.data {
            return vs[start..end].iter().filter(|v| v.is_null()).count();
        }
        match &self.validity {
            None => 0,
            Some(bm) => (end - start) - bm.count_set_range(start, end),
        }
    }

    /// Approximate heap bytes held by this chunk.
    pub fn byte_size(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Date(v) => v.len() * 4,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text { codes, dict } => codes.len() * 4 + dict.byte_size(),
            ColumnData::Any(vs) => {
                vs.len() * std::mem::size_of::<Value>()
                    + vs.iter()
                        .map(|v| match v {
                            Value::Str(s) => s.len(),
                            _ => 0,
                        })
                        .sum::<usize>()
            }
        };
        data + self.validity.as_ref().map_or(0, Bitmap::byte_size)
    }

    /// Bytes one more row costs in this chunk's layout (dictionary strings
    /// are shared, so a text row is its code).
    pub fn row_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Int(_) | ColumnData::Float(_) => 8,
            ColumnData::Date(_) | ColumnData::Text { .. } => 4,
            ColumnData::Bool(_) => 1,
            ColumnData::Any(_) => std::mem::size_of::<Value>(),
        }
    }

    /// A chunk holding exactly `values`, laid out for the first non-NULL
    /// value's type (later mismatches demote to `Any`, as [`push`] does);
    /// an all-NULL column is an `Any` chunk of NULLs.
    ///
    /// [`push`]: ColumnChunk::push
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> ColumnChunk {
        let mut leading_nulls = 0usize;
        let mut chunk: Option<ColumnChunk> = None;
        for v in values {
            match &mut chunk {
                Some(c) => c.push(v),
                None if v.is_null() => leading_nulls += 1,
                None => {
                    let ty = match &v {
                        Value::Int(_) => DataType::Integer,
                        Value::Float(_) => DataType::Float,
                        Value::Date(_) => DataType::Date,
                        Value::Bool(_) => DataType::Boolean,
                        Value::Str(_) => DataType::Text,
                        Value::Null => DataType::Any,
                    };
                    let mut c = ColumnChunk::for_type(ty);
                    for _ in 0..leading_nulls {
                        c.push(Value::Null);
                    }
                    c.push(v);
                    chunk = Some(c);
                }
            }
        }
        chunk.unwrap_or_else(|| ColumnChunk {
            data: ColumnData::Any(vec![Value::Null; leading_nulls]),
            validity: None,
        })
    }

    /// `parts` laid end to end. Parts sharing one typed layout concatenate
    /// their vectors (text parts with different dictionaries are re-coded
    /// into the first part's, extended); any layout mismatch demotes the
    /// result to `Any`, keeping every value exact.
    pub fn concat(parts: &[&ColumnChunk]) -> ColumnChunk {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        macro_rules! typed {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    match &p.data {
                        ColumnData::$variant(xs) => out.extend_from_slice(xs),
                        _ => return ColumnChunk::concat_any(parts, total),
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match parts.first().map(|p| &p.data) {
            None => ColumnData::Any(Vec::new()),
            Some(ColumnData::Int(_)) => typed!(Int),
            Some(ColumnData::Float(_)) => typed!(Float),
            Some(ColumnData::Date(_)) => typed!(Date),
            Some(ColumnData::Bool(_)) => typed!(Bool),
            Some(ColumnData::Any(_)) => return ColumnChunk::concat_any(parts, total),
            Some(ColumnData::Text { dict: first, .. }) => {
                let mut dict = Arc::clone(first);
                let mut out: Vec<u32> = Vec::with_capacity(total);
                for p in parts {
                    let ColumnData::Text {
                        codes,
                        dict: theirs,
                    } = &p.data
                    else {
                        return ColumnChunk::concat_any(parts, total);
                    };
                    if Arc::ptr_eq(&dict, theirs) || Arc::ptr_eq(first, theirs) {
                        out.extend_from_slice(codes);
                        continue;
                    }
                    // Re-code through the merged dictionary, translating
                    // each of their codes once (`u32::MAX` = not yet).
                    let merged = Arc::make_mut(&mut dict);
                    let mut recode = vec![u32::MAX; theirs.len()];
                    for (i, &code) in codes.iter().enumerate() {
                        if p.is_null(i) {
                            out.push(0);
                            continue;
                        }
                        let slot = &mut recode[code as usize];
                        if *slot == u32::MAX {
                            *slot = merged.intern(Arc::clone(theirs.get(code)));
                        }
                        out.push(*slot);
                    }
                }
                ColumnData::Text { codes: out, dict }
            }
        };
        let validity = parts.iter().any(|p| p.validity.is_some()).then(|| {
            let mut bm = Bitmap::with_capacity(total);
            for p in parts {
                match &p.validity {
                    Some(valid) => bm.extend(valid),
                    None => bm.extend(&Bitmap::all_set(p.len())),
                }
            }
            bm
        });
        ColumnChunk { data, validity }
    }

    fn concat_any(parts: &[&ColumnChunk], total: usize) -> ColumnChunk {
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend((0..p.len()).map(|i| p.value_at(i)));
        }
        ColumnChunk {
            data: ColumnData::Any(out),
            validity: None,
        }
    }
}

/// A batch of rows in columnar layout, plus a lazily computed row-pivot
/// cache shared by every consumer of the same batch.
#[derive(Debug, Default)]
pub struct ColBatch {
    len: usize,
    cols: Vec<Arc<ColumnChunk>>,
    rows_cache: OnceLock<Vec<Row>>,
}

impl Clone for ColBatch {
    /// Shallow: shares the column chunks, starts a fresh pivot cache
    /// (clones usually precede mutation, which would invalidate it).
    fn clone(&self) -> ColBatch {
        ColBatch {
            len: self.len,
            cols: self.cols.clone(),
            rows_cache: OnceLock::new(),
        }
    }
}

impl ColBatch {
    /// An empty batch with one typed chunk per schema column.
    pub fn from_schema(schema: &Schema) -> ColBatch {
        ColBatch {
            len: 0,
            cols: schema
                .columns
                .iter()
                .map(|c| Arc::new(ColumnChunk::for_type(c.ty)))
                .collect(),
            rows_cache: OnceLock::new(),
        }
    }

    /// Build from materialized rows; the rows seed the pivot cache so a
    /// later `rows()` is free. Rows must all match the schema arity.
    pub fn from_rows(schema: &Schema, rows: Vec<Row>) -> ColBatch {
        note_pivot("exec.pivot.to_cols", rows.len());
        let mut batch = ColBatch::from_schema(schema);
        for row in &rows {
            debug_assert_eq!(row.len(), batch.cols.len());
            for (chunk, v) in batch.cols.iter_mut().zip(row.iter()) {
                Arc::make_mut(chunk).push(v.clone());
            }
        }
        batch.len = rows.len();
        let _ = batch.rows_cache.set(rows);
        batch
    }

    /// Build a batch from per-column chunks (all the same length).
    pub fn from_chunks(len: usize, cols: Vec<Arc<ColumnChunk>>) -> ColBatch {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        ColBatch {
            len,
            cols,
            rows_cache: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn cols(&self) -> &[Arc<ColumnChunk>] {
        &self.cols
    }

    pub fn col(&self, i: usize) -> &ColumnChunk {
        &self.cols[i]
    }

    /// Append one row; invalidates the pivot cache. Chunks shared with
    /// other batches are copied on write.
    pub fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (chunk, v) in self.cols.iter_mut().zip(row) {
            Arc::make_mut(chunk).push(v);
        }
        self.len += 1;
        self.rows_cache.take();
    }

    /// Materialize row `i` without touching the pivot cache.
    pub fn row_at(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.value_at(i)).collect()
    }

    /// All rows, pivoted once and cached for subsequent callers.
    pub fn rows(&self) -> &[Row] {
        self.rows_cache.get_or_init(|| self.pivot())
    }

    /// Consume into rows, reusing the pivot cache when populated.
    pub fn into_rows(mut self) -> Vec<Row> {
        match self.rows_cache.take() {
            Some(rows) => rows,
            None => self.pivot(),
        }
    }

    fn pivot(&self) -> Vec<Row> {
        note_pivot("exec.pivot.to_rows", self.len);
        (0..self.len).map(|i| self.row_at(i)).collect()
    }

    /// `self`'s rows followed by `other`'s (same width), column by column
    /// through [`ColumnChunk::concat`].
    pub fn concat(&self, other: &ColBatch) -> ColBatch {
        debug_assert_eq!(self.width(), other.width());
        ColBatch {
            len: self.len + other.len,
            cols: self
                .cols
                .iter()
                .zip(&other.cols)
                .map(|(a, b)| Arc::new(ColumnChunk::concat(&[a, b])))
                .collect(),
            rows_cache: OnceLock::new(),
        }
    }

    /// New batch holding the rows in `sel`, in `sel` order.
    pub fn gather(&self, sel: &[u32]) -> ColBatch {
        ColBatch {
            len: sel.len(),
            cols: self.cols.iter().map(|c| Arc::new(c.gather(sel))).collect(),
            rows_cache: OnceLock::new(),
        }
    }

    /// First `n` rows (`n` may exceed `len`).
    pub fn head(&self, n: usize) -> ColBatch {
        let take = n.min(self.len) as u32;
        let sel: Vec<u32> = (0..take).collect();
        self.gather(&sel)
    }

    /// Approximate heap bytes of the column data. The pivot cache, when
    /// populated, is not counted, here or anywhere else.
    pub fn byte_size(&self) -> usize {
        self.cols.iter().map(|c| c.byte_size()).sum()
    }
}

/// Count `rows` rows crossing the row/column boundary in the process-wide
/// `exec.pivot.to_rows` / `exec.pivot.to_cols` counters, so a plan that
/// starts pivoting where it used to stay columnar shows up in `/metrics`
/// and `\stats` (and in the pivot-count test) rather than only in timings.
pub(crate) fn note_pivot(counter: &'static str, rows: usize) {
    if rows > 0 {
        conquer_obs::registry().counter(counter).add(rows as u64);
    }
}

/// Per-row byte estimate of a schema's batch layout: fixed column widths,
/// amortized dictionary overhead for text, one validity bit per column.
/// This is what `Governor` memory accounting and the cost model charge
/// per materialized row.
pub fn batch_row_bytes(schema: &Schema) -> usize {
    let cols: usize = schema
        .columns
        .iter()
        .map(|c| match c.ty {
            DataType::Integer | DataType::Float => 8,
            DataType::Date => 4,
            DataType::Boolean => 1,
            // 4-byte code plus dictionary payload amortized over repeats.
            DataType::Text => 4 + TEXT_DICT_AMORTIZED_BYTES,
            DataType::Any => std::mem::size_of::<Value>(),
        })
        .sum();
    cols + schema.len().div_ceil(8)
}

/// Amortized per-row dictionary cost charged for text columns. ConQuer
/// workloads repeat text values heavily (conflict-group attributes), so
/// the dictionary entry is shared across many rows.
pub const TEXT_DICT_AMORTIZED_BYTES: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema(tys: &[DataType]) -> Schema {
        Schema::new(
            tys.iter()
                .enumerate()
                .map(|(i, &ty)| Column::bare(&format!("c{i}"), ty))
                .collect(),
        )
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        assert!(bm.get(0));
        assert!(!bm.get(1));
        assert!(bm.get(198));
        assert_eq!(bm.count_set(), (0..200).filter(|i| i % 3 == 0).count());
        assert_eq!(
            bm.count_set_range(10, 150),
            (10..150).filter(|i| i % 3 == 0).count()
        );
        assert_eq!(Bitmap::all_set(70).count_set(), 70);
    }

    /// The word-at-a-time operations against bit-by-bit `push` / `get`, at
    /// the offsets where a word boundary falls differently.
    #[test]
    fn bitmap_word_operations_match_bits() {
        let bits = |n: usize, seed: usize| -> Vec<bool> {
            (0..n).map(|i| !(i * 7 + seed).is_multiple_of(3)).collect()
        };
        let pushed = |flags: &[bool]| {
            let mut bm = Bitmap::new();
            flags.iter().for_each(|&f| bm.push(f));
            bm
        };
        let offsets = [0, 1, 63, 64, 65];
        for offset in offsets {
            for len in [0, 1, 63, 64, 65, 130] {
                let (head, tail) = (bits(offset, 1), bits(len, 2));
                let mut bm = pushed(&head);
                bm.extend(&pushed(&tail));
                let all: Vec<bool> = head.iter().chain(&tail).copied().collect();
                assert_eq!(bm, pushed(&all), "extend at {offset} by {len}");
                let mut flags = all.clone();
                if let Some(f) = flags.get_mut(offset) {
                    *f = false;
                }
                assert_eq!(
                    Bitmap::from_flags(&flags),
                    flags.contains(&false).then(|| pushed(&flags)),
                    "from_flags of {} flags",
                    flags.len()
                );
            }
        }
        let bm = pushed(&bits(200, 5));
        for start in offsets {
            for end in start..=200 {
                let naive = (start..end).filter(|&i| bm.get(i)).count();
                assert_eq!(bm.count_set_range(start, end), naive, "[{start}, {end})");
            }
        }
    }

    #[test]
    fn dict_interns_and_shares() {
        let mut d = TextDict::new();
        let a: Arc<str> = Arc::from("alpha");
        let b: Arc<str> = Arc::from("beta");
        assert_eq!(d.intern(Arc::clone(&a)), 0);
        assert_eq!(d.intern(b), 1);
        assert_eq!(d.intern("alpha"), 0);
        assert!(Arc::ptr_eq(d.get(0), &a), "an Arc is shared, not copied");
        assert_eq!(d.lookup("beta"), Some(1));
        assert_eq!(d.lookup("gamma"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn roundtrip_with_nulls() {
        let s = schema(&[
            DataType::Integer,
            DataType::Float,
            DataType::Text,
            DataType::Date,
            DataType::Boolean,
        ]);
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Float(1.5),
                Value::str("x"),
                Value::Date(10),
                Value::Bool(true),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Int(-3),
                Value::Float(-0.0),
                Value::str("x"),
                Value::Date(-4),
                Value::Bool(false),
            ],
        ];
        let batch = ColBatch::from_rows(&s, rows.clone());
        assert_eq!(batch.len(), 3);
        // Cache was seeded with the exact input rows.
        assert_eq!(batch.rows(), &rows[..]);
        // row_at reconstructs the same values (incl. -0.0 bit pattern).
        for (i, row) in rows.iter().enumerate() {
            let got = batch.row_at(i);
            assert_eq!(&got, row);
            if let (Value::Float(a), Value::Float(b)) = (&got[1], &row[1]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(batch.col(0).is_null(1));
        assert!(!batch.col(0).is_null(0));
        assert_eq!(batch.col(2).null_count_range(0, 3), 1);
    }

    #[test]
    fn int_in_float_column_demotes_to_any() {
        let s = schema(&[DataType::Float]);
        let mut batch = ColBatch::from_schema(&s);
        batch.push_row(vec![Value::Float(2.5)]);
        batch.push_row(vec![Value::Int(7)]); // legal per type_compatible
        batch.push_row(vec![Value::Null]);
        assert!(matches!(batch.col(0).data, ColumnData::Any(_)));
        assert_eq!(batch.row_at(0), vec![Value::Float(2.5)]);
        assert_eq!(batch.row_at(1), vec![Value::Int(7)]); // exact identity kept
        assert_eq!(batch.row_at(2), vec![Value::Null]);
    }

    #[test]
    fn gather_and_head() {
        let s = schema(&[DataType::Integer, DataType::Text]);
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                vec![
                    if i == 4 { Value::Null } else { Value::Int(i) },
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                ]
            })
            .collect();
        let batch = ColBatch::from_rows(&s, rows.clone());
        let sel = vec![4u32, 1, 9];
        let g = batch.gather(&sel);
        assert_eq!(g.len(), 3);
        assert_eq!(g.row_at(0), rows[4]);
        assert_eq!(g.row_at(1), rows[1]);
        assert_eq!(g.row_at(2), rows[9]);
        // Gathered text shares the dictionary.
        if let (ColumnData::Text { dict: d1, .. }, ColumnData::Text { dict: d2, .. }) =
            (&batch.col(1).data, &g.col(1).data)
        {
            assert!(Arc::ptr_eq(d1, d2));
        } else {
            panic!("expected text chunks");
        }
        let h = batch.head(3);
        assert_eq!(h.len(), 3);
        assert_eq!(h.row_at(2), rows[2]);
    }

    #[test]
    fn concat_merges_dictionaries_and_demotes_on_mismatch() {
        let s = schema(&[DataType::Integer, DataType::Text, DataType::Float]);
        let a = ColBatch::from_rows(
            &s,
            vec![
                vec![Value::Int(1), Value::str("x"), Value::Float(0.5)],
                vec![Value::Int(2), Value::str("y"), Value::Float(1.5)],
            ],
        );
        let s2 = schema(&[DataType::Integer, DataType::Text, DataType::Integer]);
        let b = ColBatch::from_rows(
            &s2,
            vec![
                vec![Value::Null, Value::str("y"), Value::Int(7)],
                vec![Value::Int(4), Value::Null, Value::Null],
                vec![Value::Int(5), Value::str("z"), Value::Int(8)],
            ],
        );
        let u = a.concat(&b);
        assert_eq!(u.len(), 5);
        let expected: Vec<Row> = a.rows().iter().chain(b.rows()).cloned().collect();
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(&u.row_at(i), row);
        }
        // Same layout: typed, with a validity bitmap grown for the side
        // that had none. Two dictionaries: one, coding each string once.
        assert!(matches!(u.col(0).data, ColumnData::Int(_)));
        assert!(u.col(0).is_null(2) && !u.col(0).is_null(0));
        let ColumnData::Text { codes, dict } = &u.col(1).data else {
            panic!("text stays dictionary-coded");
        };
        assert_eq!(dict.len(), 3);
        assert_eq!(codes[1], codes[2], "'y' has one code on both sides");
        // Float against integer: `Any`, every value exact.
        assert!(matches!(u.col(2).data, ColumnData::Any(_)));
        assert!(matches!(u.col(2).value_at(2), Value::Int(7)));
        // A part sharing the first part's dictionary is appended as is.
        let twice = ColumnChunk::concat(&[a.col(1), a.col(1)]);
        assert_eq!(twice.len(), 4);
        assert_eq!(twice.value_at(3), Value::str("y"));
    }

    #[test]
    fn from_values_picks_the_first_values_layout() {
        let c = ColumnChunk::from_values([Value::Null, Value::Float(1.5), Value::Null]);
        assert!(matches!(c.data, ColumnData::Float(_)));
        assert!(c.is_null(0) && !c.is_null(1) && c.is_null(2));
        let c = ColumnChunk::from_values([Value::Int(1), Value::Float(2.0)]);
        assert!(matches!(c.data, ColumnData::Any(_)));
        assert!(matches!(c.value_at(0), Value::Int(1)));
        let c = ColumnChunk::from_values([Value::Null, Value::Null]);
        assert_eq!((c.len(), c.is_null(1)), (2, true));
        assert!(ColumnChunk::from_values([]).is_empty());
    }

    #[test]
    fn empty_batch_and_empty_gather() {
        let s = schema(&[DataType::Integer, DataType::Text]);
        let batch = ColBatch::from_schema(&s);
        assert!(batch.is_empty());
        assert!(batch.rows().is_empty());
        let g = batch.gather(&[]);
        assert!(g.is_empty());
        assert_eq!(
            ColBatch::from_rows(&s, vec![]).into_rows(),
            Vec::<Row>::new()
        );
    }

    #[test]
    fn push_after_share_copies_on_write() {
        let s = schema(&[DataType::Integer]);
        let mut batch = ColBatch::from_rows(&s, vec![vec![Value::Int(1)]]);
        let snapshot = batch.clone();
        batch.push_row(vec![Value::Int(2)]);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(batch.len(), 2);
        assert_eq!(snapshot.row_at(0), vec![Value::Int(1)]);
        assert_eq!(batch.row_at(1), vec![Value::Int(2)]);
    }

    #[test]
    fn batch_row_bytes_reflects_layout() {
        let s = schema(&[DataType::Integer, DataType::Text, DataType::Date]);
        // 8 + (4 + amortized dict) + 4 + 1 validity byte for 3 columns.
        assert_eq!(
            batch_row_bytes(&s),
            8 + 4 + TEXT_DICT_AMORTIZED_BYTES + 4 + 1
        );
    }
}
