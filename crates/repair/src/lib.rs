//! Brute-force repair enumeration: the semantic ground truth for consistent
//! query answering.
//!
//! A **repair** of an inconsistent database keeps exactly one tuple per key
//! value of every constrained relation and is otherwise identical to the
//! original (Definition 1 of the paper; for key constraints the minimality
//! condition reduces to exactly this shape). This crate enumerates every
//! repair and evaluates queries on each one, computing consistent answers
//! (Definition 2), possible answers, and range-consistent answers
//! (Definition 5) *by definition*.
//!
//! The number of repairs is exponential in the number of violated keys, so
//! this is strictly a testing oracle and a baseline for the benchmarks —
//! which is precisely the point the paper makes: rewriting-based answering
//! scales where materializing repairs cannot.

#![forbid(unsafe_code)]

pub mod probabilistic;

pub use probabilistic::{answer_probabilities, most_probable_answers, ProbableAnswer};

use std::collections::HashMap;

use conquer_core::ConstraintSet;
use conquer_engine::value::Key;
use conquer_engine::{Database, EngineError, Row, Rows, Table, Value};

/// Errors from the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// The database has more repairs than the configured cap.
    TooManyRepairs { repairs: u128, cap: u128 },
    /// Underlying engine failure.
    Engine(String),
    /// Misuse of the oracle API.
    Invalid(String),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::TooManyRepairs { repairs, cap } => {
                write!(
                    f,
                    "database has {repairs} repairs, exceeding the oracle cap of {cap}"
                )
            }
            RepairError::Engine(msg) => write!(f, "engine error: {msg}"),
            RepairError::Invalid(msg) => write!(f, "invalid oracle use: {msg}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<EngineError> for RepairError {
    fn from(e: EngineError) -> Self {
        RepairError::Engine(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, RepairError>;

/// Default cap on the number of repairs the oracle will enumerate.
pub const DEFAULT_REPAIR_CAP: u128 = 1 << 20;

/// One constrained relation, split into its key groups.
struct GroupedRelation {
    name: String,
    columns: Vec<(String, conquer_engine::DataType)>,
    /// Tuple groups; each repair picks exactly one row from each group.
    groups: Vec<Vec<Row>>,
}

/// The repair enumerator.
pub struct RepairEnumerator {
    base: Database,
    grouped: Vec<GroupedRelation>,
    total: u128,
}

impl RepairEnumerator {
    /// Prepare enumeration; errors if the repair count exceeds `cap`.
    pub fn new(db: &Database, sigma: &ConstraintSet, cap: u128) -> Result<RepairEnumerator> {
        let base = Database::new();
        let mut grouped = Vec::new();
        let mut total: u128 = 1;
        for name in db.table_names() {
            let table = db.table(&name)?;
            match sigma.key_of(&name) {
                None => base.register((*table).clone())?,
                Some(key) => {
                    let key_idx: Vec<usize> = key
                        .iter()
                        .map(|k| table.column_index(k))
                        .collect::<std::result::Result<_, _>>()?;
                    let mut group_map: HashMap<Key, usize> = HashMap::new();
                    let mut groups: Vec<Vec<Row>> = Vec::new();
                    for row in table.rows() {
                        let kv: Vec<Value> = key_idx.iter().map(|i| row[*i].clone()).collect();
                        let k = Key::from_values(&kv);
                        let gi = *group_map.entry(k).or_insert_with(|| {
                            groups.push(Vec::new());
                            groups.len() - 1
                        });
                        groups[gi].push(row.clone());
                    }
                    for g in &groups {
                        total = total.saturating_mul(g.len() as u128);
                        if total > cap {
                            return Err(RepairError::TooManyRepairs {
                                repairs: total,
                                cap,
                            });
                        }
                    }
                    let columns = table
                        .schema()
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), c.ty))
                        .collect();
                    grouped.push(GroupedRelation {
                        name,
                        columns,
                        groups,
                    });
                }
            }
        }
        Ok(RepairEnumerator {
            base,
            grouped,
            total,
        })
    }

    /// Total number of repairs.
    pub fn repair_count(&self) -> u128 {
        self.total
    }

    /// Visit every repair as a fully materialized [`Database`].
    ///
    /// The same `Database` value is reused across calls; constrained tables
    /// are re-registered with the current repair's tuples.
    pub fn for_each_repair(&self, mut f: impl FnMut(&Database) -> Result<()>) -> Result<()> {
        // Mixed-radix counter across every group of every relation.
        let radices: Vec<usize> = self
            .grouped
            .iter()
            .flat_map(|r| r.groups.iter().map(Vec::len))
            .collect();
        let mut digits = vec![0usize; radices.len()];
        loop {
            // Materialize the constrained relations under this choice.
            let mut d = 0;
            for rel in &self.grouped {
                let cols: Vec<(&str, conquer_engine::DataType)> =
                    rel.columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                let mut t = Table::new(rel.name.clone(), cols);
                for g in &rel.groups {
                    t.extend_unchecked([g[digits[d]].clone()]);
                    d += 1;
                }
                self.base.register(t)?;
            }
            f(&self.base)?;

            // Increment the counter.
            let mut i = 0;
            loop {
                if i == digits.len() {
                    return Ok(());
                }
                digits[i] += 1;
                if digits[i] < radices[i] {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
        }
    }
}

/// A bag of rows keyed by value, remembering a representative row.
#[derive(Debug, Default)]
struct RowBag {
    counts: HashMap<Key, (Row, u64)>,
}

impl RowBag {
    fn from_rows(rows: &Rows) -> RowBag {
        let mut bag = RowBag::default();
        for row in &rows.rows {
            bag.counts
                .entry(Key::from_values(row))
                .and_modify(|(_, c)| *c += 1)
                .or_insert_with(|| (row.clone(), 1));
        }
        bag
    }

    /// Multiset intersection: keep the minimum multiplicity.
    fn intersect(&mut self, other: &RowBag) {
        self.counts.retain(|k, (_, c)| match other.counts.get(k) {
            Some((_, oc)) => {
                *c = (*c).min(*oc);
                true
            }
            None => false,
        });
    }

    /// Multiset union with maximum multiplicity (possible answers).
    fn union_max(&mut self, other: &RowBag) {
        for (k, (row, oc)) in &other.counts {
            self.counts
                .entry(k.clone())
                .and_modify(|(_, c)| *c = (*c).max(*oc))
                .or_insert_with(|| (row.clone(), *oc));
        }
    }

    fn into_rows(self, schema: conquer_engine::Schema) -> Rows {
        let mut rows = Vec::new();
        let mut entries: Vec<(Row, u64)> = self.counts.into_values().collect();
        // Deterministic output order for tests.
        entries.sort_by(|(a, _), (b, _)| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        for (row, count) in entries {
            for _ in 0..count {
                rows.push(row.clone());
            }
        }
        Rows { schema, rows }
    }
}

/// Consistent answers by definition: the bag-intersection (minimum
/// multiplicity) of the query result over every repair.
pub fn consistent_answers_oracle(db: &Database, sql: &str, sigma: &ConstraintSet) -> Result<Rows> {
    let enumerator = RepairEnumerator::new(db, sigma, DEFAULT_REPAIR_CAP)?;
    let mut acc: Option<(RowBag, conquer_engine::Schema)> = None;
    enumerator.for_each_repair(|repair| {
        let rows = repair.query(sql)?;
        let bag = RowBag::from_rows(&rows);
        match &mut acc {
            None => acc = Some((bag, rows.schema)),
            Some((current, _)) => current.intersect(&bag),
        }
        Ok(())
    })?;
    let (bag, schema) = acc.expect("at least one repair always exists");
    Ok(bag.into_rows(schema))
}

/// Possible answers by definition: the union of the query result over every
/// repair (maximum multiplicity).
pub fn possible_answers_oracle(db: &Database, sql: &str, sigma: &ConstraintSet) -> Result<Rows> {
    let enumerator = RepairEnumerator::new(db, sigma, DEFAULT_REPAIR_CAP)?;
    let mut acc: Option<(RowBag, conquer_engine::Schema)> = None;
    enumerator.for_each_repair(|repair| {
        let rows = repair.query(sql)?;
        let bag = RowBag::from_rows(&rows);
        match &mut acc {
            None => acc = Some((bag, rows.schema)),
            Some((current, _)) => current.union_max(&bag),
        }
        Ok(())
    })?;
    let (bag, schema) = acc.expect("at least one repair always exists");
    Ok(bag.into_rows(schema))
}

/// One range-consistent answer computed by the oracle: the group values
/// followed by per-aggregate `[min, max]` ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeAnswer {
    pub group: Row,
    pub ranges: Vec<(Value, Value)>,
}

/// Range-consistent answers by definition (Definition 5): run the aggregate
/// query on every repair; a group is an answer when it appears in *all*
/// repairs, and its ranges are the min/max of the aggregate values observed.
///
/// `group_arity` says how many leading output columns are grouped
/// attributes; the rest are aggregates. Aggregates that are NULL in some
/// repair (e.g. an empty SUM) are treated as absent from that repair's
/// range, matching the rewriting's 0-normalization only when the caller
/// arranges it; tests use non-NULL data.
pub fn range_consistent_oracle(
    db: &Database,
    sql: &str,
    sigma: &ConstraintSet,
    group_arity: usize,
) -> Result<Vec<RangeAnswer>> {
    let enumerator = RepairEnumerator::new(db, sigma, DEFAULT_REPAIR_CAP)?;
    let total = enumerator.repair_count();
    // group key -> (group values, per-aggregate (min, max), repairs seen in)
    type GroupRanges = HashMap<Key, (Row, Vec<(Value, Value)>, u128)>;
    let mut seen: GroupRanges = HashMap::new();
    let mut agg_arity: Option<usize> = None;
    enumerator.for_each_repair(|repair| {
        let rows = repair.query(sql)?;
        if rows.schema.len() < group_arity {
            return Err(RepairError::Invalid(format!(
                "query returns {} columns but group_arity is {group_arity}",
                rows.schema.len()
            )));
        }
        agg_arity = Some(rows.schema.len() - group_arity);
        for row in &rows.rows {
            let group: Row = row[..group_arity].to_vec();
            let aggs = &row[group_arity..];
            let key = Key::from_values(&group);
            let entry = seen.entry(key).or_insert_with(|| {
                (
                    group.clone(),
                    aggs.iter().map(|v| (v.clone(), v.clone())).collect(),
                    0,
                )
            });
            entry.2 += 1;
            for (slot, v) in entry.1.iter_mut().zip(aggs) {
                if v.total_cmp(&slot.0).is_lt() {
                    slot.0 = v.clone();
                }
                if v.total_cmp(&slot.1).is_gt() {
                    slot.1 = v.clone();
                }
            }
        }
        Ok(())
    })?;
    let mut out: Vec<RangeAnswer> = seen
        .into_values()
        .filter(|(_, _, count)| *count == total)
        .map(|(group, ranges, _)| RangeAnswer { group, ranges })
        .collect();
    out.sort_by(|a, b| {
        for (x, y) in a.group.iter().zip(&b.group) {
            let ord = x.total_cmp(y);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(out)
}

/// Answers with their repair support: the fraction of repairs in which each
/// answer tuple appears (the "voting" semantics sketched in Section 8 of
/// the paper). An answer with support 1.0 is a consistent answer.
pub fn answers_with_support(
    db: &Database,
    sql: &str,
    sigma: &ConstraintSet,
) -> Result<Vec<(Row, f64)>> {
    let enumerator = RepairEnumerator::new(db, sigma, DEFAULT_REPAIR_CAP)?;
    let total = enumerator.repair_count() as f64;
    let mut counts: HashMap<Key, (Row, u128)> = HashMap::new();
    enumerator.for_each_repair(|repair| {
        let rows = repair.query(sql)?;
        let mut seen_this_repair: HashMap<Key, Row> = HashMap::new();
        for row in &rows.rows {
            seen_this_repair.insert(Key::from_values(row), row.clone());
        }
        for (k, row) in seen_this_repair {
            counts
                .entry(k)
                .and_modify(|(_, c)| *c += 1)
                .or_insert((row, 1));
        }
        Ok(())
    })?;
    let mut out: Vec<(Row, f64)> = counts
        .into_values()
        .map(|(row, c)| (row, c as f64 / total))
        .collect();
    out.sort_by(|(a, sa), (b, sb)| {
        sb.partial_cmp(sa).unwrap().then_with(|| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        })
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_db() -> Database {
        let db = Database::new();
        db.run_script(
            "create table customer (custkey text, acctbal float);
             insert into customer values
               ('c1', 2000), ('c1', 100), ('c2', 2500), ('c3', 2200), ('c3', 2500);",
        )
        .unwrap();
        db
    }

    #[test]
    fn figure1_has_four_repairs() {
        // Example 2 of the paper: D_R1..D_R4.
        let db = figure1_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let e = RepairEnumerator::new(&db, &sigma, 100).unwrap();
        assert_eq!(e.repair_count(), 4);
        let mut sizes = Vec::new();
        e.for_each_repair(|r| {
            sizes.push(r.table("customer").unwrap().len());
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes, vec![3, 3, 3, 3]);
    }

    #[test]
    fn oracle_consistent_answers_match_example1() {
        let db = figure1_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let rows = consistent_answers_oracle(
            &db,
            "select custkey from customer where acctbal > 1000",
            &sigma,
        )
        .unwrap();
        let vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(vals, vec!["c2", "c3"]);
    }

    #[test]
    fn oracle_possible_answers_match_original_query() {
        let db = figure1_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let rows = possible_answers_oracle(
            &db,
            "select custkey from customer where acctbal > 1000",
            &sigma,
        )
        .unwrap();
        let vals: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
        // c3 has multiplicity... in each repair c3 appears once (one tuple
        // per repair), so the max multiplicity is 1.
        assert_eq!(vals, vec!["c1", "c2", "c3"]);
    }

    #[test]
    fn oracle_range_consistent_matches_example5() {
        let db = Database::new();
        db.run_script(
            "create table customer (custkey text, nationkey text, mktsegment text, acctbal float);
             insert into customer values
               ('c1', 'n1', 'building', 1000),
               ('c1', 'n1', 'building', 2000),
               ('c2', 'n1', 'building', 500),
               ('c2', 'n1', 'banking', 600),
               ('c3', 'n2', 'banking', 100);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let answers =
            range_consistent_oracle(&db, "select sum(acctbal) from customer", &sigma, 0).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            answers[0].ranges,
            vec![(Value::Float(1600.0), Value::Float(2700.0))]
        );
    }

    #[test]
    fn oracle_range_consistent_grouped_matches_example6() {
        let db = Database::new();
        db.run_script(
            "create table customer (custkey text, nationkey text, mktsegment text, acctbal float);
             insert into customer values
               ('c1', 'n1', 'building', 1000),
               ('c1', 'n1', 'building', 2000),
               ('c2', 'n1', 'building', 500),
               ('c2', 'n1', 'banking', 600),
               ('c3', 'n2', 'banking', 100);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let answers = range_consistent_oracle(
            &db,
            "select nationkey, sum(acctbal) from customer
             where mktsegment = 'building' group by nationkey",
            &sigma,
            1,
        )
        .unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].group, vec![Value::str("n1")]);
        assert_eq!(
            answers[0].ranges,
            vec![(Value::Float(1000.0), Value::Float(2500.0))]
        );
    }

    #[test]
    fn support_voting_semantics() {
        let db = figure1_db();
        let sigma = ConstraintSet::new().with_key("customer", ["custkey"]);
        let support = answers_with_support(
            &db,
            "select custkey from customer where acctbal > 1000",
            &sigma,
        )
        .unwrap();
        // c2 and c3 appear in all 4 repairs; c1 in 2 of 4.
        let by_name: HashMap<String, f64> = support
            .into_iter()
            .map(|(r, s)| (r[0].to_string(), s))
            .collect();
        assert_eq!(by_name["c2"], 1.0);
        assert_eq!(by_name["c3"], 1.0);
        assert_eq!(by_name["c1"], 0.5);
    }

    #[test]
    fn repair_cap_enforced() {
        let db = Database::new();
        let mut script =
            String::from("create table t (k integer, v integer);\ninsert into t values ");
        // 20 keys with 2 tuples each -> 2^20 repairs.
        let rows: Vec<String> = (0..20)
            .flat_map(|k| [format!("({k}, 0)"), format!("({k}, 1)")])
            .collect();
        script.push_str(&rows.join(", "));
        db.run_script(&script).unwrap();
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        let Err(err) = RepairEnumerator::new(&db, &sigma, 1000) else {
            panic!("expected TooManyRepairs");
        };
        assert!(matches!(err, RepairError::TooManyRepairs { .. }));
    }

    #[test]
    fn consistent_database_has_one_repair() {
        let db = Database::new();
        db.run_script(
            "create table t (k integer, v integer); insert into t values (1, 10), (2, 20);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        let e = RepairEnumerator::new(&db, &sigma, 10).unwrap();
        assert_eq!(e.repair_count(), 1);
        let rows = consistent_answers_oracle(&db, "select v from t", &sigma).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unconstrained_tables_pass_through() {
        let db = Database::new();
        db.run_script(
            "create table t (k integer, v integer); insert into t values (1, 10), (1, 20);
             create table u (x integer); insert into u values (7);",
        )
        .unwrap();
        let sigma = ConstraintSet::new().with_key("t", ["k"]);
        let e = RepairEnumerator::new(&db, &sigma, 10).unwrap();
        assert_eq!(e.repair_count(), 2);
        e.for_each_repair(|r| {
            assert_eq!(r.table("u").unwrap().len(), 1);
            Ok(())
        })
        .unwrap();
    }
}
