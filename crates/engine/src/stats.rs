//! Per-operator runtime statistics for `EXPLAIN ANALYZE`, and the
//! per-table statistics the cost-based planner estimates from.
//!
//! A [`NodeStats`] tree mirrors the [`Plan`] tree shape exactly: the
//! executor is handed an `Option<&mut NodeStats>` and fills in the node
//! matching each plan operator as it runs. When no stats are requested the
//! executor takes the untimed path, so plain queries pay nothing.
//!
//! [`TableStats`] / [`ColumnStats`] are collected eagerly whenever a table
//! is registered (`CREATE TABLE` + every `INSERT` re-registers, so stats
//! are never stale) and exposed through the catalog
//! ([`crate::Database::table_stats`]); they are installed before the
//! table's new [version](crate::Database::table_version) is published, so
//! plan caches that check versions never keep a plan costed against older
//! statistics. The estimation
//! formulas that consume them live in [`crate::cost`].

use std::collections::HashSet;
use std::time::Duration;

use crate::col::ColBatch;
use crate::plan::Plan;
use crate::value::{KeyValue, Value};

/// Runtime counters for one plan operator.
///
/// `wall` is *inclusive*: it covers the operator and everything below it,
/// as in a conventional `EXPLAIN ANALYZE`. Operator-specific fields
/// (`build_rows`, `probe_rows`, `comparisons`, `est_mem_bytes`) stay zero
/// for operators they do not apply to.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Times the operator ran (CTE bodies and subplans run once; a plan
    /// re-executed per outer row would count each run).
    pub invocations: u64,
    /// Rows emitted by the operator, summed over invocations.
    pub rows_out: u64,
    /// Inclusive wall time (operator plus its inputs).
    pub wall: Duration,
    /// Hash-table build input rows (joins) or grouped input rows
    /// (aggregates).
    pub build_rows: u64,
    /// Probe-side input rows (joins only).
    pub probe_rows: u64,
    /// Candidate pairs inspected: hash-bucket entries visited for hash
    /// joins, inner-loop iterations for nested-loop joins.
    pub comparisons: u64,
    /// Rough in-memory footprint of operator state (hash table / group
    /// table), in bytes. An estimate, not an allocator measurement.
    pub est_mem_bytes: u64,
    /// Widest morsel fan-out any invocation of this operator ran with.
    /// `0` or `1` means the operator only ever ran inline, on one worker.
    /// Per-worker counters are summed into this node, so the tree is
    /// shaped like the plan at any thread count.
    pub threads_used: u64,
    /// Planner cardinality estimate for this operator's output, filled in
    /// by [`crate::cost::annotate`] when table statistics are available.
    /// `EXPLAIN ANALYZE` prints it next to the actual `rows_out` so the
    /// estimation error is visible per operator.
    pub est_rows: Option<u64>,
    /// Stats of the operator's inputs, in plan order.
    pub children: Vec<NodeStats>,
}

impl NodeStats {
    /// An all-zero stats tree shaped like `plan`.
    pub fn for_plan(plan: &Plan) -> NodeStats {
        NodeStats {
            children: plan
                .children()
                .into_iter()
                .map(NodeStats::for_plan)
                .collect(),
            ..NodeStats::default()
        }
    }

    /// Rows flowing into the operator: the sum of its children's output.
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.rows_out).sum()
    }

    /// Exclusive wall time: this operator minus its inputs (saturating, in
    /// case clock granularity makes children sum past the parent).
    pub fn self_wall(&self) -> Duration {
        let children: Duration = self.children.iter().map(|c| c.wall).sum();
        self.wall.saturating_sub(children)
    }
}

/// Track at most this many distinct values per column; past the cap the
/// column is treated as key-like (NDV ≈ non-null row count).
const NDV_CAP: usize = 1 << 16;

/// Statistics for one column of a stored table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values. Exact up to [`NDV_CAP`] distinct
    /// values; approximated as the non-null row count beyond it.
    pub ndv: u64,
    /// Number of NULLs in the column.
    pub null_count: u64,
    /// Smallest non-null value under a numeric interpretation (ints,
    /// floats, dates as day numbers, bools as 0/1). `None` for all-NULL or
    /// non-numeric columns.
    pub min: Option<f64>,
    /// Largest non-null value, same interpretation as `min`.
    pub max: Option<f64>,
}

impl ColumnStats {
    /// Fraction of rows that are NULL in this column.
    pub fn null_fraction(&self, row_count: u64) -> f64 {
        if row_count == 0 {
            0.0
        } else {
            self.null_count as f64 / row_count as f64
        }
    }
}

/// Statistics for one stored table (or one materialized CTE).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub row_count: u64,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// Numeric interpretation of a value for min/max range estimation.
pub(crate) fn numeric_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) if !f.is_nan() => Some(*f),
        Value::Date(d) => Some(*d as f64),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

impl TableStats {
    /// Collect statistics over a batch, one pass per column: NDV
    /// (hash-set, capped), null count, numeric min/max. Reads the columns
    /// in place — a row pivot of a stored table would stay cached in it.
    pub fn collect(batch: &ColBatch) -> TableStats {
        let row_count = batch.len() as u64;
        let columns = batch
            .cols()
            .iter()
            .map(|chunk| {
                let mut col = ColumnStats {
                    ndv: 0,
                    null_count: 0,
                    min: None,
                    max: None,
                };
                let mut distinct = Some(HashSet::new());
                for i in 0..batch.len() {
                    let v = chunk.value_at(i);
                    if v.is_null() {
                        col.null_count += 1;
                        continue;
                    }
                    if let Some(set) = &mut distinct {
                        set.insert(KeyValue::from(&v));
                        if set.len() > NDV_CAP {
                            distinct = None;
                        }
                    }
                    if let Some(n) = numeric_of(&v) {
                        col.min = Some(col.min.map_or(n, |m| m.min(n)));
                        col.max = Some(col.max.map_or(n, |m| m.max(n)));
                    }
                }
                col.ndv = match distinct {
                    Some(set) => set.len() as u64,
                    // Cap blown: assume key-like (every non-null value distinct).
                    None => row_count - col.null_count,
                };
                col
            })
            .collect();
        TableStats { row_count, columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tree_mirrors_plan_shape() {
        use crate::table::Table;
        use crate::Database;
        let db = Database::new();
        let mut t = Table::new("t", vec![("a", crate::schema::DataType::Integer)]);
        t.push(vec![crate::value::Value::Int(1)]).unwrap();
        db.register(t).unwrap();
        let query = conquer_sql::parse_query("select a from t where a > 0").unwrap();
        let plan = db.plan(&query, &Default::default()).unwrap();
        let stats = NodeStats::for_plan(&plan);
        fn depth_of_plan(p: &Plan) -> usize {
            1 + p
                .children()
                .iter()
                .map(|c| depth_of_plan(c))
                .max()
                .unwrap_or(0)
        }
        fn depth_of_stats(s: &NodeStats) -> usize {
            1 + s.children.iter().map(depth_of_stats).max().unwrap_or(0)
        }
        assert_eq!(depth_of_plan(&plan), depth_of_stats(&stats));
    }

    #[test]
    fn table_stats_collects_ndv_nulls_and_range() {
        use crate::schema::{Column, DataType, Schema};
        use crate::value::Value;
        let batch = |types: &[DataType], rows| {
            let columns = types.iter().map(|&ty| Column::bare("c", ty)).collect();
            ColBatch::from_rows(&Schema::new(columns), rows)
        };
        let rows = vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(2.5)],
            vec![Value::Int(1), Value::str("b"), Value::Null],
            vec![Value::Int(3), Value::Null, Value::Float(-1.0)],
        ];
        let s = TableStats::collect(&batch(
            &[DataType::Integer, DataType::Text, DataType::Float],
            rows,
        ));
        assert_eq!(s.row_count, 3);
        assert_eq!(s.columns[0].ndv, 2);
        assert_eq!(s.columns[0].null_count, 0);
        assert_eq!(s.columns[0].min, Some(1.0));
        assert_eq!(s.columns[0].max, Some(3.0));
        assert_eq!(s.columns[1].ndv, 2);
        assert_eq!(s.columns[1].null_count, 1);
        assert_eq!(s.columns[1].min, None); // text has no numeric range
        assert_eq!(s.columns[2].ndv, 2);
        assert!((s.columns[2].null_fraction(3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.columns[2].min, Some(-1.0));
        assert_eq!(s.columns[2].max, Some(2.5));
        // Int(1) and Float(1.0) normalize to the same distinct value.
        let rows = vec![vec![Value::Int(1)], vec![Value::Float(1.0)]];
        let mixed = batch(&[DataType::Any], rows);
        assert_eq!(TableStats::collect(&mixed).columns[0].ndv, 1);
        // Empty tables produce empty-but-valid stats.
        let s = TableStats::collect(&batch(&[DataType::Integer, DataType::Text], vec![]));
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.columns[0].null_fraction(0), 0.0);
    }

    #[test]
    fn self_wall_saturates() {
        let child = NodeStats {
            wall: Duration::from_millis(5),
            ..Default::default()
        };
        let parent = NodeStats {
            wall: Duration::from_millis(3),
            children: vec![child],
            ..Default::default()
        };
        assert_eq!(parent.self_wall(), Duration::ZERO);
    }
}
