//! Per-operator runtime statistics for `EXPLAIN ANALYZE`, and the
//! per-table statistics the cost-based planner estimates from.
//!
//! A [`NodeStats`] tree mirrors the [`Plan`] tree shape exactly: the
//! executor is handed an `Option<&mut NodeStats>` and fills in the node
//! matching each plan operator as it runs. When no stats are requested the
//! executor takes the untimed path, so plain queries pay nothing.
//!
//! [`TableStats`] / [`ColumnStats`] are collected column by column over
//! each column's typed layout ([`TableStats::collect`]), once per table
//! [version](crate::Database::table_version), by the first reader that
//! needs them — the planner's estimator, [`crate::Database::table_stats`],
//! a durable snapshot — and never by a write (`CREATE TABLE`, `INSERT`,
//! `register`, WAL replay). They are a function of the version's rows, so
//! plan caches that check versions never keep a plan costed against older
//! statistics. The estimation formulas that consume them live in
//! [`crate::cost`].

use std::collections::HashSet;
use std::time::Duration;

use crate::col::{Bitmap, ColBatch, ColumnChunk, ColumnData};
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
    /// The input a hash join built its table (or key set) over, chosen by
    /// the executor on actual sizes; `None` for other operators and for a
    /// join that returned on an empty side before building.
    pub build_side: Option<JoinSide>,
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
    /// Branches of a `UNION ALL` input an aggregate folded one by one,
    /// without concatenating them; `0` when it did not.
    pub union_parts: u64,
    /// The way the group-key kernel folded an Aggregate's or a Distinct's
    /// rows — the widest over invocations and `UNION ALL` branches; `None`
    /// where the kernel did not run (a row-shaped fold).
    pub group_plan: Option<GroupPlan>,
    /// Groups the group-key kernel formed, summed over invocations (over
    /// `UNION ALL` branches, the groups after matching them up).
    pub groups: u64,
    /// The rows a LIMIT right above a Sort asked it for: the Sort kept and
    /// sorted only those (a top-N). `None` for a full sort.
    pub top_n: Option<u64>,
    /// Planner cardinality estimate for this operator's output, filled in
    /// by [`crate::cost::annotate`] when table statistics are available.
    /// `EXPLAIN ANALYZE` prints it next to the actual `rows_out` so the
    /// estimation error is visible per operator.
    pub est_rows: Option<u64>,
    /// Stats of the operator's inputs, in plan order.
    pub children: Vec<NodeStats>,
}

/// A join input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    Left,
    Right,
}

impl JoinSide {
    pub fn label(self) -> &'static str {
        match self {
            JoinSide::Left => "left",
            JoinSide::Right => "right",
        }
    }
}

/// Which way the group-key kernel folded an operator's rows (the
/// executor's `group_kernel`, counted process-wide as `exec.agg.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupPlan {
    /// The calling thread folded every row into one partial: many groups,
    /// a DISTINCT aggregate, an integer SUM that could overflow, or one
    /// worker to run on.
    OneWorker,
    /// Morsel-local partials on several workers, merged in first-row order.
    Partials,
}

impl GroupPlan {
    pub fn label(self) -> &'static str {
        match self {
            GroupPlan::OneWorker => "one_worker",
            GroupPlan::Partials => "partials",
        }
    }
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
    /// Collect statistics over a batch, one typed pass per column over the
    /// column's own layout: null count off the validity bitmap, numeric
    /// min/max folded in row order, NDV from the dictionary codes in use
    /// (text: a dictionary may hold strings no row uses any more, and
    /// nothing is hashed) or from the group-key kernel (numbers and dates,
    /// which stops reading once [`NDV_CAP`] is passed). Only an `Any`
    /// column is read `Value` by `Value`. Nothing is pivoted: a row copy
    /// of a stored table would stay cached in it.
    pub fn collect(batch: &ColBatch) -> TableStats {
        TableStats {
            row_count: batch.len() as u64,
            columns: (0..batch.width()).map(|c| column_stats(batch, c)).collect(),
        }
    }
}

/// The non-NULL cells of a typed column, in row order.
fn valid<'a, T: Copy>(xs: &'a [T], validity: Option<&'a Bitmap>) -> impl Iterator<Item = T> + 'a {
    xs.iter()
        .enumerate()
        .filter(move |(i, _)| validity.is_none_or(|bm| bm.get(*i)))
        .map(|(_, &x)| x)
}

/// Min and max of `values` (none of them NaN), folded in the order given
/// so that which of `-0.0` / `0.0` wins is the same on every path.
fn range(values: impl Iterator<Item = f64>) -> (Option<f64>, Option<f64>) {
    let (mut min, mut max) = (None, None);
    for n in values {
        min = Some(min.map_or(n, |m: f64| m.min(n)));
        max = Some(max.map_or(n, |m: f64| m.max(n)));
    }
    (min, max)
}

fn column_stats(batch: &ColBatch, c: usize) -> ColumnStats {
    let chunk = batch.col(c);
    let validity = chunk.validity.as_ref();
    let non_null = validity.map_or(chunk.len(), Bitmap::count_set);
    let kernel_ndv = || crate::groupkey::distinct_capped(batch, c, NDV_CAP);
    let (distinct, (min, max)) = match &chunk.data {
        ColumnData::Any(_) => return column_stats_by_value(chunk),
        ColumnData::Int(xs) => (kernel_ndv(), range(valid(xs, validity).map(|x| x as f64))),
        ColumnData::Float(xs) => (
            kernel_ndv(),
            range(valid(xs, validity).filter(|x| !x.is_nan())),
        ),
        ColumnData::Date(xs) => (kernel_ndv(), range(valid(xs, validity).map(f64::from))),
        ColumnData::Bool(xs) => {
            let mut seen = [false; 2];
            valid(xs, validity).for_each(|b| seen[usize::from(b)] = true);
            let distinct = seen.iter().filter(|&&s| s).count();
            let as_f64 = |b: bool| if b { 1.0 } else { 0.0 };
            (Some(distinct), range(valid(xs, validity).map(as_f64)))
        }
        ColumnData::Text { codes, dict } => {
            let mut used = vec![false; dict.len()];
            valid(codes, validity).for_each(|code| used[code as usize] = true);
            (Some(used.iter().filter(|&&u| u).count()), (None, None))
        }
    };
    ColumnStats {
        ndv: match distinct {
            Some(n) if n <= NDV_CAP => n as u64,
            // Cap blown: assume key-like (every non-null value distinct).
            _ => non_null as u64,
        },
        null_count: (chunk.len() - non_null) as u64,
        min,
        max,
    }
}

/// One column's statistics read `Value` by `Value`: what an `Any` column
/// gets, and the definition the typed arms of [`column_stats`] are tested
/// against.
fn column_stats_by_value(chunk: &ColumnChunk) -> ColumnStats {
    let mut col = ColumnStats {
        ndv: 0,
        null_count: 0,
        min: None,
        max: None,
    };
    let mut distinct = Some(HashSet::new());
    for i in 0..chunk.len() {
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
        None => chunk.len() as u64 - col.null_count,
    };
    col
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

    /// The typed arms against the `Value` loop, column by column.
    fn assert_matches_oracle(batch: &ColBatch, what: &str) {
        let got = TableStats::collect(batch);
        assert_eq!(got.row_count, batch.len() as u64);
        for (c, got) in got.columns.iter().enumerate() {
            let want = column_stats_by_value(batch.col(c));
            assert_eq!(got, &want, "{what}, column {c}");
            // `==` on f64 equates the zeros: the sign must agree too.
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            assert_eq!(
                (bits(got.min), bits(got.max)),
                (bits(want.min), bits(want.max)),
                "{what}, column {c}: sign of a zero bound"
            );
        }
    }

    #[test]
    fn typed_collect_matches_the_value_loop() {
        use crate::schema::{Column, DataType, Schema};
        use crate::table::Row;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        };
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let floats = [
            0.0,
            -0.0,
            1.0,
            2.5,
            -3.0,
            1e300,
            f64::NAN,
            nan2,
            f64::INFINITY,
        ];
        let types = [
            DataType::Integer,
            DataType::Float,
            DataType::Date,
            DataType::Boolean,
            DataType::Text,
            DataType::Any,
        ];
        let schema = Schema::new(types.iter().map(|&ty| Column::bare("c", ty)).collect());
        for round in 0..40 {
            let len = [0, 1, 7, 300][round % 4];
            let null_every = [0, 2, 5][round % 3];
            let rows: Vec<Row> = (0..len)
                .map(|_| {
                    let mut row = vec![
                        Value::Int(draw(9) as i64 - 4),
                        Value::Float(floats[draw(floats.len() as u64) as usize]),
                        Value::Date(draw(40) as i32 - 20),
                        Value::Bool(draw(2) == 0),
                        Value::str(format!("s{}", draw(12))),
                        // Int(2) and Float(2.0) are one value; a string is
                        // another, with no numeric reading.
                        match draw(4) {
                            0 => Value::Int(2),
                            1 => Value::Float(2.0),
                            2 => Value::str("2"),
                            _ => Value::Float(-0.0),
                        },
                    ];
                    for v in &mut row {
                        if null_every > 0 && draw(null_every) == 0 {
                            *v = Value::Null;
                        }
                    }
                    row
                })
                .collect();
            let batch = ColBatch::from_rows(&schema, rows);
            assert_matches_oracle(&batch, &format!("round {round}"));
            // A gathered batch keeps the dictionary of the one it came
            // from: strings no row uses any more are not distinct values.
            let every_third: Vec<u32> = (0..len as u32).step_by(3).collect();
            assert_matches_oracle(
                &batch.gather(&every_third),
                &format!("round {round} gathered"),
            );
        }
        // Zeros of both signs in both orders: which one a bound keeps
        // depends on the fold order, which the typed arm must share.
        for zeros in [[0.0, -0.0], [-0.0, 0.0]] {
            let rows = zeros.iter().map(|&z| vec![Value::Float(z)]).collect();
            let schema = Schema::new(vec![Column::bare("c", DataType::Float)]);
            assert_matches_oracle(&ColBatch::from_rows(&schema, rows), "zeros");
        }
    }

    #[test]
    fn ndv_cap_rule_is_the_same_on_every_layout() {
        use crate::col::TextDict;
        use std::sync::Arc;
        // One past the cap, with a NULL and a repeat: key-like, NDV reads
        // as the non-null count. At the cap exactly it is still exact.
        for distinct in [NDV_CAP, NDV_CAP + 1] {
            let n = distinct + 2;
            let value = |i: usize| (i % distinct) as i64;
            let mut validity = Bitmap::with_capacity(n);
            (0..n).for_each(|i| validity.push(i != 0));
            let mut dict = TextDict::new();
            let codes = (0..n)
                .map(|i| dict.intern(format!("s{}", value(i)).as_str()))
                .collect();
            let with_null = |data| ColumnChunk {
                data,
                validity: Some(validity.clone()),
            };
            let cols = vec![
                with_null(ColumnData::Int((0..n).map(value).collect())),
                with_null(ColumnData::Float(
                    (0..n).map(|i| value(i) as f64 + 0.5).collect(),
                )),
                with_null(ColumnData::Date((0..n).map(|i| value(i) as i32).collect())),
                with_null(ColumnData::Text {
                    codes,
                    dict: Arc::new(dict),
                }),
                ColumnChunk {
                    data: ColumnData::Any((0..n).map(|i| Value::Int(value(i))).collect()),
                    validity: None,
                },
            ];
            let batch = ColBatch::from_chunks(n, cols.into_iter().map(Arc::new).collect());
            assert_matches_oracle(&batch, &format!("{distinct} distinct"));
            let stats = TableStats::collect(&batch);
            let expected = if distinct > NDV_CAP {
                n as u64 - 1
            } else {
                distinct as u64
            };
            assert_eq!(stats.columns[0].ndv, expected);
            assert_eq!(stats.columns[3].ndv, expected);
        }
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
