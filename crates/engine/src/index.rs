//! Secondary indexes over columnar batches: row-id postings for equality
//! probes and an ordered numeric view for range scans.
//!
//! An [`Index`] maps key values to **row-id postings** over one immutable
//! [`ColBatch`] — the `Arc` its table's catalog entry hands to every plan.
//! The index lives on that entry and is only ever built over that entry's
//! batch, so it carries no validity stamp to re-check. The postings are the
//! group-key kernel's ([`Postings`]): one typed pass over the key columns,
//! a group per distinct key, each group's rows chained in ascending order
//! with NULL keys excluded. No key value is stored — a probe key is hashed
//! like a row and compared with the key columns at its group's first row.
//! Ascending, NULL-free postings make the index *bit-compatible* with both
//! consumers:
//!
//! * a hash join's build side, which is the same [`Postings`] built for the
//!   query over the build side's key columns, so an
//!   [`IndexLookupJoin`](crate::plan::Plan::HashJoin) borrows the prebuilt
//!   postings ([`Index::postings`]) in place of the per-query build without
//!   changing a single emitted row;
//! * a `Filter`-over-`Scan` selection vector (the filter kernels emit
//!   passing rows in ascending row order), so an
//!   [`IndexScan`](crate::plan::Plan::IndexScan) gather produces the
//!   identical batch.
//!
//! Range scans binary-search the ordered `(f64, row)` view — built from the
//! typed column — for a candidate span (`f64` conversion is monotone, so
//! the span is a superset of the true matches), then re-check every
//! candidate with the exact [`Value::sql_cmp`] the filter kernel would have
//! used. Equality probes need no re-check: [`KeyValue`](crate::value::KeyValue) equality
//! (`Float(1.0)` is `Int(1)`) agrees with SQL equality for every literal
//! the planner is allowed to attach (see `opt::select_access_paths`).
//!
//! # The conflict set
//!
//! Over a key's columns, a group of ≥ 2 rows *is* a violated key group, so
//! the index also keeps the list of those groups. Group ids are assigned in
//! first-row order, so the list falls out of the postings in that order;
//! [`Index::extended`] re-reads it after folding the appended rows in, and
//! both must agree (`extended_matches_full_rebuild`). The list answers
//! `SELECT K FROM R GROUP BY K HAVING count(*) > c` index-only
//! ([`IndexAccess::Conflicts`]): the postings' groups are the group-key
//! kernel's, in its order — provided no row was skipped, because
//! `GROUP BY` gives NULL keys groups of their own and the postings do not
//! hold them. The planner checks [`Index::null_key_rows`] and keeps the
//! kernel otherwise.

use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::ops::Range;
use std::sync::Arc;

use crate::col::{ColBatch, ColumnChunk, ColumnData};
use crate::error::{EngineError, Result};
use crate::faults;
use crate::groupkey::{PostingRows, Postings};
use crate::stats::numeric_of;
use crate::value::{Key, Value};

/// How an [`IndexScan`](crate::plan::Plan::IndexScan) probes its index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexAccess {
    /// Point lookup: one literal per index column, in index column order.
    Eq(Vec<Value>),
    /// Range probe over a single-column ordered index; each bound is
    /// `(literal, inclusive)`.
    Range {
        lo: Option<(Value, bool)>,
        hi: Option<(Value, bool)>,
    },
    /// Index-only: one row per key group of at least `min_group` rows (≥ 2),
    /// in first-row order, carrying the batch columns `project` (each a key
    /// column) — `SELECT K FROM R GROUP BY K HAVING count(*) >= min_group`
    /// without reading `R`.
    Conflicts {
        min_group: usize,
        project: Vec<usize>,
    },
}

impl IndexAccess {
    /// Short label for `EXPLAIN` (`eq` / `range` / `conflicts`).
    pub fn label(&self) -> &'static str {
        match self {
            IndexAccess::Eq(_) => "eq",
            IndexAccess::Range { .. } => "range",
            IndexAccess::Conflicts { .. } => "conflicts",
        }
    }
}

/// What an index over a relation's key says about its inconsistency: the
/// `p` and `n` of the paper's §6.1, observed instead of injected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictSummary {
    /// The indexed (key) columns the groups are over.
    pub key: Vec<String>,
    /// Key values held by more than one tuple.
    pub violated_keys: u64,
    /// Tuples in those groups.
    pub tuples_in_violated_groups: u64,
    /// `(group size, number of groups)` for sizes ≥ 2, ascending by size.
    pub group_sizes: Vec<(u64, u64)>,
    /// Tuples with a NULL key attribute: in no group, never in conflict.
    pub null_key_rows: u64,
}

/// A built secondary index over one columnar batch. Immutable once built;
/// `INSERT` produces a new `Index` via [`Index::extended`].
pub struct Index {
    table: String,
    col_names: Vec<String>,
    /// Key column indices in the batch, in declared order.
    cols: Vec<usize>,
    /// The batch the postings describe.
    batch: Arc<ColBatch>,
    /// Equality postings: one group per distinct non-NULL key.
    postings: Postings,
    /// Ordered view for single-column indexes whose non-null values are
    /// all numeric: `(numeric value, row id)` sorted ascending. `None`
    /// for multi-column or non-numeric keys — no range support then.
    ordered: Option<Vec<(f64, usize)>>,
    /// Violated groups — groups of ≥ 2 rows — ascending by group id, which
    /// is first-row order.
    conflicts: Vec<u32>,
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Index")
            .field("table", &self.table)
            .field("cols", &self.col_names)
            .field("rows", &self.batch.len())
            .field("keys", &self.postings.groups())
            .field("ordered", &self.ordered.is_some())
            .field("conflicts", &self.conflicts.len())
            .finish()
    }
}

impl Index {
    /// Build postings over `batch` for the given key columns. Carries the
    /// `index_build_fail` fault point: a tripped build surfaces as `Err`
    /// and the caller (the database's lazy build) falls back to a
    /// sequential scan — never a wrong answer, never a panic.
    pub fn build(
        table: &str,
        col_names: &[String],
        cols: Vec<usize>,
        batch: &Arc<ColBatch>,
    ) -> Result<Index> {
        faults::trip("index_build_fail")?;
        if batch.len() >= u32::MAX as usize {
            return Err(EngineError::Execution(format!(
                "index on {table}: {} rows do not fit u32 row ids",
                batch.len()
            )));
        }
        let postings = Postings::build(batch, &cols);
        let ordered = match cols[..] {
            [c] => ordered_view(batch.col(c), 0..batch.len(), Vec::new()),
            _ => None,
        };
        Ok(Index {
            table: table.to_string(),
            col_names: col_names.to_vec(),
            conflicts: violated_groups(&postings),
            cols,
            batch: Arc::clone(batch),
            postings,
            ordered,
        })
    }

    /// Incremental maintenance for `INSERT`: `new_batch` must extend this
    /// index's batch by appended rows (the engine's inserts clone the
    /// table and push, so the row prefix is value-identical). Existing
    /// postings stay valid; only the appended suffix is folded in. Returns
    /// `None` when `new_batch` is not a pure extension.
    pub fn extended(&self, new_batch: &Arc<ColBatch>) -> Option<Index> {
        let old_n = self.batch.len();
        let new_n = new_batch.len();
        if new_n < old_n || new_n >= u32::MAX as usize || new_batch.width() != self.batch.width() {
            return None;
        }
        let postings = self.postings.extended(new_batch, &self.cols);
        let ordered = self
            .ordered
            .clone()
            .and_then(|ord| ordered_view(new_batch.col(self.cols[0]), old_n..new_n, ord));
        Some(Index {
            table: self.table.clone(),
            col_names: self.col_names.clone(),
            cols: self.cols.clone(),
            batch: Arc::clone(new_batch),
            conflicts: violated_groups(&postings),
            postings,
            ordered,
        })
    }

    /// The table this index belongs to.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Key column names, in index order.
    pub fn col_names(&self) -> &[String] {
        &self.col_names
    }

    /// Key column indices in the batch, in index order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The batch the postings were built over.
    pub fn batch(&self) -> &Arc<ColBatch> {
        &self.batch
    }

    /// Number of distinct (non-null) keys.
    pub fn distinct_keys(&self) -> usize {
        self.postings.groups()
    }

    /// Rows the postings leave out because a key column is NULL. While this
    /// is zero the conflict list covers every `GROUP BY` group of size ≥ 2.
    pub fn null_key_rows(&self) -> usize {
        self.postings.null_rows()
    }

    /// First rows of the key groups with at least `min_group` (≥ 2) rows,
    /// ascending — the order the group-key kernel emits them in.
    pub fn conflict_rows(&self, min_group: usize) -> impl Iterator<Item = u32> + '_ {
        self.conflicts
            .iter()
            .map(|&g| self.postings.group(g))
            .filter(move |&(_, size)| size as usize >= min_group)
            .map(|(first, _)| first)
    }

    /// Every row of every violated key group, group by group — the rows
    /// behind [`conflict_rows`](Index::conflict_rows)`(2)`'s first rows.
    pub fn conflict_group_rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.conflicts.iter().flat_map(|&g| self.postings.rows(g))
    }

    /// Violated keys, the tuples in their groups and the group-size
    /// histogram, read off the conflict list.
    pub fn conflict_summary(&self) -> ConflictSummary {
        let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
        for &g in &self.conflicts {
            *sizes
                .entry(u64::from(self.postings.group(g).1))
                .or_default() += 1;
        }
        ConflictSummary {
            key: self.col_names.clone(),
            violated_keys: self.conflicts.len() as u64,
            tuples_in_violated_groups: sizes.iter().map(|(size, groups)| size * groups).sum(),
            group_sizes: sizes.into_iter().collect(),
            null_key_rows: self.null_key_rows() as u64,
        }
    }

    /// Whether range probes are supported (single numeric key column).
    pub fn supports_range(&self) -> bool {
        self.ordered.is_some()
    }

    /// Equality postings for a key without a NULL component: its rows in
    /// ascending order, or `None` when no row holds it — the lookup a hash
    /// join makes in the postings it borrows ([`Index::postings`]).
    pub fn get(&self, key: &Key) -> Option<PostingRows<'_>> {
        let g = self.postings.find(&self.batch, &self.cols, &key.0)?;
        Some(self.postings.rows(g))
    }

    /// The postings over [`cols`](Index::cols) of [`batch`](Index::batch):
    /// what a hash join the index serves looks its probe keys up in.
    pub fn postings(&self) -> &Postings {
        &self.postings
    }

    /// Bytes the index holds: the postings, the ordered view and the
    /// conflict list, by capacity.
    pub fn bytes(&self) -> u64 {
        let ordered = self
            .ordered
            .as_ref()
            .map_or(0, |o| o.capacity() * mem::size_of::<(f64, usize)>());
        let conflicts = self.conflicts.capacity() * mem::size_of::<u32>();
        self.postings.bytes() + (ordered + conflicts) as u64
    }

    /// Resolve an access into an ascending selection vector over the
    /// index's batch — exactly the rows the equivalent `Filter` over a
    /// full `Scan` would keep (for a conflict scan: the first row of each
    /// group the equivalent `GROUP BY … HAVING` keeps), in the same order.
    pub fn select(&self, access: &IndexAccess) -> Vec<u32> {
        match access {
            IndexAccess::Eq(values) => {
                if values.iter().any(Value::is_null) {
                    return Vec::new(); // SQL equality never matches NULL
                }
                match self.get(&Key::from_values(values)) {
                    Some(rows) => rows.collect(),
                    None => Vec::new(),
                }
            }
            IndexAccess::Range { lo, hi } => self.select_range(lo.as_ref(), hi.as_ref()),
            IndexAccess::Conflicts { min_group, .. } => self.conflict_rows(*min_group).collect(),
        }
    }

    fn select_range(&self, lo: Option<&(Value, bool)>, hi: Option<&(Value, bool)>) -> Vec<u32> {
        let Some(ordered) = &self.ordered else {
            return Vec::new(); // planner never attaches Range without support
        };
        // Candidate span with *inclusive* f64 bounds: `f64` conversion is
        // monotone, so every true match lands inside; the exact re-check
        // below discards boundary rows the rounding let through.
        let start = match lo.and_then(|(v, _)| numeric_of(v)) {
            Some(f) => ordered.partition_point(|e| e.0 < f),
            None => 0,
        };
        let end = match hi.and_then(|(v, _)| numeric_of(v)) {
            Some(f) => ordered.partition_point(|e| e.0 <= f),
            None => ordered.len(),
        };
        let chunk = &self.batch.cols()[self.cols[0]];
        let mut out: Vec<u32> = Vec::new();
        for &(_, row) in &ordered[start..end.max(start)] {
            let v = chunk.value_at(row);
            let pass_lo = match lo {
                None => true,
                Some((bound, inclusive)) => match v.sql_cmp(bound) {
                    Ok(Some(ord)) => ord.is_gt() || (*inclusive && ord.is_eq()),
                    Ok(None) | Err(_) => false,
                },
            };
            let pass_hi = match hi {
                None => true,
                Some((bound, inclusive)) => match v.sql_cmp(bound) {
                    Ok(Some(ord)) => ord.is_lt() || (*inclusive && ord.is_eq()),
                    Ok(None) | Err(_) => false,
                },
            };
            if pass_lo && pass_hi {
                out.push(row as u32);
            }
        }
        out.sort_unstable();
        out
    }
}

/// The groups of two or more rows, in group-id (first-row) order.
fn violated_groups(postings: &Postings) -> Vec<u32> {
    (0..postings.groups() as u32)
        .filter(|&g| postings.group(g).1 >= 2)
        .collect()
}

/// `out` plus the `(value, row)` pairs of the non-NULL cells of `rows`,
/// sorted — or `None` as soon as one is not numeric (text, a NaN), read
/// typed off the column's layout.
fn ordered_view(
    chunk: &ColumnChunk,
    mut rows: Range<usize>,
    mut out: Vec<(f64, usize)>,
) -> Option<Vec<(f64, usize)>> {
    let valid = |i: &usize| !chunk.is_null(*i);
    match &chunk.data {
        ColumnData::Int(xs) => out.extend(rows.filter(valid).map(|i| (xs[i] as f64, i))),
        ColumnData::Date(xs) => out.extend(rows.filter(valid).map(|i| (f64::from(xs[i]), i))),
        ColumnData::Bool(xs) => {
            out.extend(rows.filter(valid).map(|i| (f64::from(u8::from(xs[i])), i)));
        }
        ColumnData::Float(xs) => {
            for i in rows.filter(valid) {
                if xs[i].is_nan() {
                    return None;
                }
                out.push((xs[i], i));
            }
        }
        ColumnData::Text { .. } => {
            if rows.any(|i| valid(&i)) {
                return None;
            }
        }
        ColumnData::Any(vs) => {
            for i in rows.filter(valid) {
                out.push((numeric_of(&vs[i])?, i));
            }
        }
    }
    out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};

    fn batch(rows: Vec<Vec<Value>>) -> Arc<ColBatch> {
        let schema = Schema::new(vec![
            Column::bare("k", DataType::Integer),
            Column::bare("v", DataType::Text),
        ]);
        Arc::new(ColBatch::from_rows(&schema, rows))
    }

    fn demo() -> Arc<ColBatch> {
        batch(vec![
            vec![Value::Int(3), Value::str("a")],
            vec![Value::Int(1), Value::str("b")],
            vec![Value::Null, Value::str("c")],
            vec![Value::Int(3), Value::str("d")],
            vec![Value::Int(2), Value::str("e")],
        ])
    }

    fn build(b: &Arc<ColBatch>) -> Index {
        Index::build("t", &["k".to_string()], vec![0], b).expect("build")
    }

    /// The conflict list as `(first row, size)`.
    fn conflicts(idx: &Index) -> Vec<(u32, u32)> {
        idx.conflicts
            .iter()
            .map(|&g| idx.postings.group(g))
            .collect()
    }

    #[test]
    fn eq_postings_ascend_and_skip_nulls() {
        let b = demo();
        let idx = build(&b);
        assert_eq!(
            idx.select(&IndexAccess::Eq(vec![Value::Int(3)])),
            vec![0, 3]
        );
        assert_eq!(
            idx.select(&IndexAccess::Eq(vec![Value::Int(9)])),
            Vec::<u32>::new()
        );
        assert_eq!(
            idx.select(&IndexAccess::Eq(vec![Value::Null])),
            Vec::<u32>::new(),
            "NULL never matches equality"
        );
        // Float(3.0) is the same key as Int(3) — matching SQL equality
        // (3 = 3.0 is true).
        assert_eq!(
            idx.select(&IndexAccess::Eq(vec![Value::Float(3.0)])),
            vec![0, 3]
        );
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn range_select_matches_filter_semantics() {
        let b = demo();
        let idx = build(&b);
        assert!(idx.supports_range());
        let sel = |lo: Option<(i64, bool)>, hi: Option<(i64, bool)>| {
            idx.select(&IndexAccess::Range {
                lo: lo.map(|(v, inc)| (Value::Int(v), inc)),
                hi: hi.map(|(v, inc)| (Value::Int(v), inc)),
            })
        };
        assert_eq!(sel(Some((2, false)), None), vec![0, 3]); // k > 2
        assert_eq!(sel(Some((2, true)), None), vec![0, 3, 4]); // k >= 2
        assert_eq!(sel(None, Some((2, false))), vec![1]); // k < 2
        assert_eq!(sel(Some((1, false)), Some((3, false))), vec![4]); // 1 < k < 3
        assert_eq!(sel(None, None), vec![0, 1, 3, 4]); // non-null rows
    }

    #[test]
    fn text_keys_lose_range_but_keep_eq() {
        let b = demo();
        let idx = Index::build("t", &["v".to_string()], vec![1], &b).expect("build");
        assert!(!idx.supports_range());
        assert_eq!(idx.select(&IndexAccess::Eq(vec![Value::str("d")])), vec![3]);
        assert!(idx
            .select(&IndexAccess::Range {
                lo: None,
                hi: Some((Value::str("c"), true)),
            })
            .is_empty());
    }

    #[test]
    fn extended_matches_full_rebuild() {
        let b = demo();
        let idx = build(&b);
        let grown = batch(vec![
            vec![Value::Int(3), Value::str("a")],
            vec![Value::Int(1), Value::str("b")],
            vec![Value::Null, Value::str("c")],
            vec![Value::Int(3), Value::str("d")],
            vec![Value::Int(2), Value::str("e")],
            vec![Value::Int(3), Value::str("f")],
            vec![Value::Null, Value::str("g")],
            vec![Value::Int(0), Value::str("h")],
        ]);
        let ext = idx.extended(&grown).expect("extends");
        let rebuilt = build(&grown);
        assert_eq!(
            ext.select(&IndexAccess::Eq(vec![Value::Int(3)])),
            rebuilt.select(&IndexAccess::Eq(vec![Value::Int(3)]))
        );
        assert_eq!(
            ext.select(&IndexAccess::Range {
                lo: Some((Value::Int(1), true)),
                hi: None
            }),
            rebuilt.select(&IndexAccess::Range {
                lo: Some((Value::Int(1), true)),
                hi: None
            })
        );
        assert_eq!(ext.distinct_keys(), rebuilt.distinct_keys());
        // The conflict list comes out the same as a rebuild's: key 3 went
        // 2 -> 3, a second NULL-key row was skipped.
        assert_eq!(conflicts(&ext), vec![(0, 3)]);
        assert_eq!(conflicts(&ext), conflicts(&rebuilt));
        assert_eq!(ext.null_key_rows(), 2);
        assert_eq!(ext.conflict_summary(), rebuilt.conflict_summary());
        assert!(Arc::ptr_eq(ext.batch(), &grown));
        // The old index still answers for the old batch.
        assert_eq!(
            idx.select(&IndexAccess::Eq(vec![Value::Int(3)])),
            vec![0, 3]
        );
        // A shrunk batch is not an extension.
        assert!(ext.extended(&b).is_none());
    }

    #[test]
    fn conflict_list_orders_groups_by_first_row_through_inserts() {
        let rows = |keys: &[i64]| {
            batch(
                keys.iter()
                    .map(|&k| vec![Value::Int(k), Value::str("x")])
                    .collect(),
            )
        };
        // Groups: 5 at rows {0, 3}, 7 at rows {1, 2, 4}; 6 is single.
        let keys = [5, 7, 7, 5, 7, 6];
        let mut idx = build(&rows(&keys));
        assert_eq!(idx.conflict_rows(2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(idx.conflict_rows(3).collect::<Vec<_>>(), vec![1]);
        assert_eq!(
            idx.select(&IndexAccess::Conflicts {
                min_group: 3,
                project: vec![0],
            }),
            vec![1]
        );
        // One row at a time: 6 goes 1 -> 2 (entering between nothing — its
        // first row, 5, sorts last), 5 goes 2 -> 3, 4 arrives alone, then
        // 6 again and 4 again.
        let mut grown = keys.to_vec();
        for k in [6, 5, 4, 6, 4] {
            grown.push(k);
            let batch = rows(&grown);
            idx = idx.extended(&batch).expect("extends");
            let rebuilt = build(&batch);
            assert_eq!(conflicts(&idx), conflicts(&rebuilt), "after {grown:?}");
            assert_eq!(idx.conflict_summary(), rebuilt.conflict_summary());
        }
        assert_eq!(conflicts(&idx), vec![(0, 3), (1, 3), (5, 3), (8, 2)]);
        let summary = idx.conflict_summary();
        assert_eq!(summary.violated_keys, 4);
        assert_eq!(summary.tuples_in_violated_groups, 11);
        assert_eq!(summary.group_sizes, vec![(2, 1), (3, 3)]);
    }

    #[test]
    fn multi_column_keys_probe_in_index_order() {
        let schema = Schema::new(vec![
            Column::bare("a", DataType::Integer),
            Column::bare("b", DataType::Text),
        ]);
        let b = Arc::new(ColBatch::from_rows(
            &schema,
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(1), Value::str("y")],
                vec![Value::Int(1), Value::str("x")],
            ],
        ));
        let idx =
            Index::build("t", &["a".to_string(), "b".to_string()], vec![0, 1], &b).expect("build");
        assert!(!idx.supports_range());
        assert_eq!(
            idx.select(&IndexAccess::Eq(vec![Value::Int(1), Value::str("x")])),
            vec![0, 2]
        );
    }
}
