//! Stored tables and transient row batches.
//!
//! Tables hold their data in columnar form (a [`ColBatch`]): typed
//! fixed-width columns, dictionary-encoded text, validity bitmaps. A table
//! is *built from columns* — [`Table::from_columns`] takes one checked
//! [`ColumnChunk`] per column, [`Table::with_column`] adds one to a copy
//! that shares the rest — and grows by rows only through `INSERT`'s
//! [`Table::push`]. The row-oriented [`Rows`] type remains the query
//! *result* shape and the interchange format for operators that still work
//! row-at-a-time; a table's rows are pivoted out of the batch lazily and
//! cached.

use std::sync::Arc;

use crate::col::{ColBatch, ColumnChunk, ColumnData};
use crate::error::{EngineError, Result};
use crate::schema::{Column, DataType, Schema};
use crate::value::Value;

/// A row is a vector of values matching some schema.
pub type Row = Vec<Value>;

/// A materialized batch of rows with its schema: the unit of data flow in
/// the executor, and the result type of queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl Rows {
    pub fn new(schema: Schema) -> Rows {
        Rows {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column values of the i-th output column, cloned.
    pub fn column(&self, i: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r[i].clone()).collect()
    }

    /// Render as an aligned text table (for examples and the harness).
    pub fn to_text(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns
            .iter()
            .map(|c| match &c.qualifier {
                Some(q) => format!("{q}.{}", c.name),
                None => c.name.clone(),
            })
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(ToString::to_string).collect())
            .collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', widths[i] - cell.len()));
            }
            out.push('\n');
        };
        write_row(&mut out, &headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(&mut out, &sep);
        for row in &cells {
            write_row(&mut out, row);
        }
        out
    }
}

/// A stored base table: a schema whose columns are unqualified, plus a
/// columnar batch of its data.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    cols: ColBatch,
}

impl Table {
    /// Create an empty table. Column qualifiers are stripped: stored
    /// columns are always unqualified and get qualified at scan time.
    pub fn new(name: impl Into<String>, columns: Vec<(&str, DataType)>) -> Table {
        let schema = Schema::new(
            columns
                .into_iter()
                .map(|(n, t)| Column::bare(n, t))
                .collect(),
        );
        let cols = ColBatch::from_schema(&schema);
        Table {
            name: name.into(),
            schema,
            cols,
        }
    }

    /// Reassemble a table from decoded parts (durable recovery). The
    /// batch is trusted: rows were validated by `push` before being
    /// logged, and the storage layer checksum-verified them on the way
    /// back in. Recovery streams decoded rows straight into the batch,
    /// never materializing an intermediate `Vec<Row>`.
    pub(crate) fn from_parts(name: String, schema: Schema, cols: ColBatch) -> Table {
        Table { name, schema, cols }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's data, pivoted to rows (computed once and cached).
    /// Streaming consumers that touch each row once should prefer
    /// [`Table::row_at`] to avoid materializing the cache.
    pub fn rows(&self) -> &[Row] {
        self.cols.rows()
    }

    /// The columnar batch backing this table.
    pub fn cols(&self) -> &ColBatch {
        &self.cols
    }

    /// Row `i`, materialized on the fly (no pivot cache involved).
    pub fn row_at(&self, i: usize) -> Row {
        self.cols.row_at(i)
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema
            .columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| EngineError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// Append a row, checking arity and (loose) type compatibility.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::Catalog(format!(
                "table `{}` expects {} values, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if !type_compatible(value, col.ty) {
                return Err(EngineError::TypeError(format!(
                    "column `{}.{}` has type {:?}, got {}",
                    self.name,
                    col.name,
                    col.ty,
                    value.type_name()
                )));
            }
        }
        self.cols.push_row(row);
        Ok(())
    }

    /// Bulk-append without per-row type checks (trusted generators).
    pub fn extend_unchecked(&mut self, rows: impl IntoIterator<Item = Row>) {
        for row in rows {
            self.cols.push_row(row);
        }
    }

    /// A table over ready-made columns, one `(name, declared type, chunk)`
    /// each — the bulk-load entry point. Checked, so a bad chunk is an
    /// error here and never a panic in a later scan: all chunks have one
    /// length, a chunk is laid out for its declared type or is `Any`
    /// (whose values must then fit the type, as [`Table::push`] demands),
    /// a validity bitmap covers its chunk exactly, and every text code is
    /// inside its dictionary.
    pub fn from_columns(
        name: impl Into<String>,
        columns: Vec<(&str, DataType, ColumnChunk)>,
    ) -> Result<Table> {
        let name = name.into();
        let len = columns.first().map_or(0, |(_, _, chunk)| chunk.len());
        let mut schema = Vec::with_capacity(columns.len());
        let mut chunks = Vec::with_capacity(columns.len());
        for (column, ty, chunk) in columns {
            check_chunk(&name, column, ty, &chunk, len)?;
            schema.push(Column::bare(column, ty));
            chunks.push(Arc::new(chunk));
        }
        Ok(Table {
            name,
            schema: Schema::new(schema),
            cols: ColBatch::from_chunks(len, chunks),
        })
    }

    /// A copy of this table with one more column (the annotation pass adds
    /// `cons` this way). The existing columns are shared, not copied; the
    /// new chunk is checked as [`Table::from_columns`] checks its own.
    pub fn with_column(&self, name: &str, ty: DataType, chunk: ColumnChunk) -> Result<Table> {
        check_chunk(&self.name, name, ty, &chunk, self.len())?;
        let mut schema = self.schema.clone();
        schema.columns.push(Column::bare(name, ty));
        let mut chunks = self.cols.cols().to_vec();
        chunks.push(Arc::new(chunk));
        Ok(Table {
            name: self.name.clone(),
            schema,
            cols: ColBatch::from_chunks(self.len(), chunks),
        })
    }

    /// Snapshot the table's data as a shareable columnar batch (shallow:
    /// column chunks are shared copy-on-write).
    pub fn batch(&self) -> ColBatch {
        self.cols.clone()
    }
}

/// Is `chunk` a valid column `table.column` of type `ty` and `len` rows?
fn check_chunk(
    table: &str,
    column: &str,
    ty: DataType,
    chunk: &ColumnChunk,
    len: usize,
) -> Result<()> {
    let bad = |what: String| {
        Err(EngineError::TypeError(format!(
            "column `{table}.{column}`: {what}"
        )))
    };
    if chunk.len() != len {
        return bad(format!("{} rows where {len} are expected", chunk.len()));
    }
    if let Some(bm) = &chunk.validity {
        if bm.len() != len || matches!(chunk.data, ColumnData::Any(_)) {
            return bad("validity bitmap does not fit the chunk".into());
        }
    }
    let layout_fits = match (&chunk.data, ty) {
        (ColumnData::Any(values), _) => values.iter().all(|v| type_compatible(v, ty)),
        (_, DataType::Any) => true,
        (ColumnData::Int(_), DataType::Integer)
        | (ColumnData::Float(_), DataType::Float)
        | (ColumnData::Date(_), DataType::Date)
        | (ColumnData::Bool(_), DataType::Boolean)
        | (ColumnData::Text { .. }, DataType::Text) => true,
        _ => false,
    };
    if !layout_fits {
        return bad(format!("chunk does not hold values of type {ty:?}"));
    }
    if let ColumnData::Text { codes, dict } = &chunk.data {
        // NULL slots hold a placeholder code that is never read.
        let outside = codes
            .iter()
            .enumerate()
            .any(|(i, &code)| code as usize >= dict.len() && !chunk.is_null(i));
        if outside {
            return bad(format!(
                "text code outside its {}-entry dictionary",
                dict.len()
            ));
        }
    }
    Ok(())
}

fn type_compatible(value: &Value, ty: DataType) -> bool {
    matches!(
        (value, ty),
        (Value::Null, _)
            | (_, DataType::Any)
            | (Value::Int(_), DataType::Integer)
            | (Value::Int(_), DataType::Float)
            | (Value::Float(_), DataType::Float)
            | (Value::Str(_), DataType::Text)
            | (Value::Date(_), DataType::Date)
            | (Value::Bool(_), DataType::Boolean)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_checks_arity_and_types() {
        let mut t = Table::new("t", vec![("a", DataType::Integer), ("b", DataType::Text)]);
        t.push(vec![Value::Int(1), Value::str("x")]).unwrap();
        assert!(t.push(vec![Value::Int(1)]).is_err());
        assert!(t.push(vec![Value::str("x"), Value::str("y")]).is_err());
        // NULL fits any column; Int fits Float columns.
        t.push(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn int_accepted_in_float_column() {
        let mut t = Table::new("t", vec![("x", DataType::Float)]);
        t.push(vec![Value::Int(3)]).unwrap();
    }

    #[test]
    fn computed_column() {
        let mut t = Table::new("t", vec![("a", DataType::Integer)]);
        t.push(vec![Value::Int(5)]).unwrap();
        let t2 = t
            .with_column("doubled", DataType::Integer, ColumnChunk::ints(vec![10]))
            .unwrap();
        assert_eq!(t2.rows()[0], vec![Value::Int(5), Value::Int(10)]);
        assert_eq!(t2.schema().columns[1].name, "doubled");
        assert!(Arc::ptr_eq(&t.cols().cols()[0], &t2.cols().cols()[0]));
        // One row too many, and a layout the type does not admit.
        assert!(t
            .with_column("x", DataType::Integer, ColumnChunk::ints(vec![1, 2]))
            .is_err());
        assert!(t
            .with_column("x", DataType::Integer, ColumnChunk::floats(vec![1.0]))
            .is_err());
    }

    #[test]
    fn from_columns_checks_what_it_is_given() {
        use crate::col::{Bitmap, TextDict};
        let mut dict = TextDict::new();
        dict.intern("x");
        let dict = Arc::new(dict);
        let text = |codes| ColumnChunk::text(codes, Arc::clone(&dict));
        let t = Table::from_columns(
            "t",
            vec![
                ("a", DataType::Integer, ColumnChunk::ints(vec![1, 2])),
                ("b", DataType::Text, text(vec![0, 0])),
                // `Any` is a layout every type admits, value by value.
                (
                    "c",
                    DataType::Float,
                    ColumnChunk::from_values([Value::Int(1), Value::Float(0.5)]),
                ),
                ("d", DataType::Any, ColumnChunk::dates(vec![3, 4])),
            ],
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.row_at(1),
            vec![
                Value::Int(2),
                Value::str("x"),
                Value::Float(0.5),
                Value::Date(4)
            ]
        );
        assert_eq!(Table::from_columns("e", vec![]).unwrap().len(), 0);

        let rejected = |ty, chunk| {
            let first = ("a", DataType::Integer, ColumnChunk::ints(vec![1, 2]));
            Table::from_columns("t", vec![first, ("b", ty, chunk)]).is_err()
        };
        // Ragged.
        assert!(rejected(DataType::Integer, ColumnChunk::ints(vec![1])));
        // Mistyped: a typed layout, and an `Any` value the type refuses.
        assert!(rejected(
            DataType::Integer,
            ColumnChunk::floats(vec![1.0, 2.0])
        ));
        assert!(rejected(DataType::Date, text(vec![0, 0])));
        let strings = ColumnChunk::from_values([Value::Int(1), Value::str("x")]);
        assert!(rejected(DataType::Integer, strings));
        // A code outside the dictionary; under a cleared validity bit it
        // is a placeholder nothing reads.
        assert!(rejected(DataType::Text, text(vec![0, 1])));
        let mut second_is_null = text(vec![0, 1]);
        second_is_null.validity = Bitmap::from_flags(&[true, false]);
        assert!(!rejected(DataType::Text, second_is_null));
        // A validity bitmap of another length.
        let mut short_bitmap = ColumnChunk::ints(vec![1, 2]);
        short_bitmap.validity = Bitmap::from_flags(&[false]);
        assert!(rejected(DataType::Integer, short_bitmap));
    }

    #[test]
    fn text_rendering() {
        let mut t = Table::new("t", vec![("a", DataType::Integer), ("b", DataType::Text)]);
        t.push(vec![Value::Int(1), Value::str("hello")]).unwrap();
        let rows = Rows {
            schema: t.schema().clone(),
            rows: t.rows().to_vec(),
        };
        let text = rows.to_text();
        assert!(text.contains("a"));
        assert!(text.contains("hello"));
    }
}
