//! Property test: the key index's typed postings (`engine::groupkey::
//! Postings` under `engine::index::Index`) against the structure they
//! replaced, a `HashMap<Key, Vec<usize>>` built row by row — kept here as
//! the oracle.
//!
//! Random batches of 1-3 key columns over every layout (`Int`, `Float`,
//! `Date`, `Bool`, dictionary `Text`, `Any`), NULL-heavy, with `-0.0`
//! beside `0.0`, NaNs, `Int(2)` beside `Float(2.0)` in `Any`, and text
//! re-coded out of a second dictionary. For each: `get`, `select` (`Eq`
//! with present, absent and cross-layout literals, `Range`, `Conflicts`),
//! `distinct_keys`, `null_key_rows` and `conflict_summary` agree with the
//! oracle; then rows are appended in random steps — some of which demote
//! an integer column to `Any` — and `Index::extended` must keep agreeing,
//! and agree with a full rebuild.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use conquer_engine::value::{Key, KeyValue};
use conquer_engine::{
    ColBatch, Column, ConflictSummary, DataType, Index, IndexAccess, Schema, Value,
};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

const LAYOUTS: [DataType; 6] = [
    DataType::Integer,
    DataType::Float,
    DataType::Date,
    DataType::Boolean,
    DataType::Text,
    DataType::Any,
];

fn nan2() -> f64 {
    f64::from_bits(f64::NAN.to_bits() ^ 1)
}

/// The values a column of type `ty` draws from: few, so keys repeat.
fn domain(ty: DataType) -> Vec<Value> {
    match ty {
        DataType::Integer => (0..6).map(Value::Int).collect(),
        DataType::Float => vec![
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.0),
            Value::Float(1.5),
            Value::Float(-3.25),
            Value::Float(f64::NAN),
            Value::Float(nan2()),
        ],
        DataType::Date => (0..5).map(Value::Date).collect(),
        DataType::Boolean => vec![Value::Bool(true), Value::Bool(false)],
        DataType::Text => ["a", "b", "c", "", "2"].map(Value::str).to_vec(),
        DataType::Any => vec![
            Value::Int(2),
            Value::Float(2.0),
            Value::Int(0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("2"),
            Value::Date(2),
            Value::Bool(true),
            Value::Int(1),
        ],
    }
}

/// `n` random rows over `types`, one NULL in `null_one_in` cells. With
/// `demote`, an integer column may receive an integral float — which
/// turns the chunk it lands in into an `Any` chunk.
fn rows(
    rng: &mut Lcg,
    types: &[DataType],
    n: usize,
    null_one_in: usize,
    demote: bool,
) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            types
                .iter()
                .map(|&ty| {
                    if rng.below(null_one_in) == 0 {
                        return Value::Null;
                    }
                    match rng.pick(&domain(ty)) {
                        Value::Int(v) if demote && rng.below(4) == 0 => Value::Float(v as f64),
                        v => v,
                    }
                })
                .collect()
        })
        .collect()
}

fn schema(types: &[DataType]) -> Schema {
    Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &ty)| Column::bare(&format!("c{i}"), ty))
            .collect(),
    )
}

/// A batch of `rows` whose text comes from two dictionaries: the first
/// half was coded against one that also holds a string no row uses, the
/// second half against its own and re-coded by the concatenation.
fn batch(types: &[DataType], mut rows: Vec<Vec<Value>>) -> ColBatch {
    let schema = schema(types);
    let second = rows.split_off(rows.len() / 2);
    let half = rows.len() as u32;
    let unused: Vec<Value> = types
        .iter()
        .map(|&ty| match ty {
            DataType::Text => Value::str("unused"),
            _ => Value::Null,
        })
        .collect();
    rows.insert(0, unused);
    let first = ColBatch::from_rows(&schema, rows).gather(&(1..=half).collect::<Vec<u32>>());
    first.concat(&ColBatch::from_rows(&schema, second))
}

/// The oracle: postings through `Key`, row by row.
struct Oracle {
    map: HashMap<Key, Vec<usize>>,
    null_rows: usize,
}

impl Oracle {
    fn new(batch: &ColBatch, cols: &[usize]) -> Oracle {
        let mut map: HashMap<Key, Vec<usize>> = HashMap::new();
        let mut null_rows = 0;
        for i in 0..batch.len() {
            let row = batch.row_at(i);
            let vals: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            let key = Key::from_values(&vals);
            if key.has_null() {
                null_rows += 1;
            } else {
                map.entry(key).or_default().push(i);
            }
        }
        Oracle { map, null_rows }
    }

    fn eq(&self, values: &[Value]) -> Vec<u32> {
        if values.iter().any(Value::is_null) {
            return Vec::new();
        }
        self.map
            .get(&Key::from_values(values))
            .map_or_else(Vec::new, |rows| rows.iter().map(|&r| r as u32).collect())
    }

    fn conflicts(&self, min_group: usize) -> Vec<u32> {
        let mut firsts: Vec<u32> = self
            .map
            .values()
            .filter(|rows| rows.len() >= min_group)
            .map(|rows| rows[0] as u32)
            .collect();
        firsts.sort_unstable();
        firsts
    }

    fn summary(&self, key: &[String]) -> ConflictSummary {
        let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
        for rows in self.map.values().filter(|rows| rows.len() >= 2) {
            *sizes.entry(rows.len() as u64).or_default() += 1;
        }
        ConflictSummary {
            key: key.to_vec(),
            violated_keys: sizes.values().sum(),
            tuples_in_violated_groups: sizes.iter().map(|(s, g)| s * g).sum(),
            group_sizes: sizes.into_iter().collect(),
            null_key_rows: self.null_rows as u64,
        }
    }
}

/// Non-NULL rows of `col` passing `lo` / `hi` under SQL comparison,
/// ascending.
fn range_oracle(
    batch: &ColBatch,
    col: usize,
    lo: &Option<(Value, bool)>,
    hi: &Option<(Value, bool)>,
) -> Vec<u32> {
    let passes = |v: &Value, bound: &Option<(Value, bool)>, above: bool| match bound {
        None => true,
        Some((b, inclusive)) => match v.sql_cmp(b) {
            Ok(Some(ord)) => {
                (if above { ord.is_gt() } else { ord.is_lt() }) || (*inclusive && ord.is_eq())
            }
            _ => false,
        },
    };
    (0..batch.len())
        .filter(|&i| {
            let v = batch.row_at(i)[col].clone();
            !v.is_null() && passes(&v, lo, true) && passes(&v, hi, false)
        })
        .map(|i| i as u32)
        .collect()
}

/// Literals to probe with: every key the batch holds, the same key with
/// each component in another layout (`Float(3.0)` for `Int(3)`, an `Int`
/// for an integral float, a date's day number as an integer), and keys
/// drawn at random — mostly absent.
fn probes(rng: &mut Lcg, oracle: &Oracle, types: &[DataType]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for key in oracle.map.keys() {
        let values: Vec<Value> = key
            .0
            .iter()
            .map(|kv| match kv {
                KeyValue::Null => Value::Null,
                KeyValue::Bool(b) => Value::Bool(*b),
                KeyValue::Int(i) => Value::Int(*i),
                KeyValue::FloatBits(bits) => Value::Float(f64::from_bits(*bits)),
                KeyValue::Str(s) => Value::Str(Arc::clone(s)),
                KeyValue::Date(d) => Value::Date(*d),
            })
            .collect();
        let crossed: Vec<Value> = values
            .iter()
            .map(|v| match v {
                Value::Int(i) => Value::Float(*i as f64),
                Value::Float(f) if f.fract() == 0.0 => Value::Int(*f as i64),
                Value::Date(d) => Value::Int(i64::from(*d)),
                other => other.clone(),
            })
            .collect();
        out.push(values);
        out.push(crossed);
    }
    for _ in 0..8 {
        let mut row = rows(rng, types, 1, 6, false).remove(0);
        if rng.below(3) == 0 {
            row[0] = Value::Int(99);
        }
        out.push(row);
    }
    out
}

fn check(rng: &mut Lcg, idx: &Index, batch: &ColBatch, types: &[DataType], context: &str) {
    let cols = idx.cols().to_vec();
    let oracle = Oracle::new(batch, &cols);
    for (key, rows) in &oracle.map {
        let got: Vec<usize> = idx
            .get(key)
            .unwrap_or_else(|| panic!("{context}: {key:?} is present"))
            .map(|r| r as usize)
            .collect();
        assert_eq!(&got, rows, "{context}: get {key:?}");
    }
    let key_types: Vec<DataType> = cols.iter().map(|&c| types[c]).collect();
    for values in probes(rng, &oracle, &key_types) {
        let key = Key::from_values(&values);
        if !key.has_null() {
            assert_eq!(
                idx.get(&key).map(|rows| rows.collect::<Vec<u32>>()),
                oracle
                    .map
                    .get(&key)
                    .map(|rows| rows.iter().map(|&r| r as u32).collect()),
                "{context}: get {values:?}"
            );
        }
        assert_eq!(
            idx.select(&IndexAccess::Eq(values.clone())),
            oracle.eq(&values),
            "{context}: eq {values:?}"
        );
    }
    assert_eq!(idx.distinct_keys(), oracle.map.len(), "{context}");
    assert_eq!(idx.null_key_rows(), oracle.null_rows, "{context}");
    assert_eq!(
        idx.conflict_summary(),
        oracle.summary(idx.col_names()),
        "{context}"
    );
    for min_group in 2..5 {
        assert_eq!(
            idx.select(&IndexAccess::Conflicts {
                min_group,
                project: cols.clone(),
            }),
            oracle.conflicts(min_group),
            "{context}: conflicts >= {min_group}"
        );
    }
    // Range support: one column, every non-NULL value numeric.
    let numeric = cols.len() == 1
        && (0..batch.len()).all(|i| match batch.row_at(i)[cols[0]] {
            Value::Null | Value::Int(_) | Value::Date(_) | Value::Bool(_) => true,
            Value::Float(f) => !f.is_nan(),
            Value::Str(_) => false,
        });
    assert_eq!(idx.supports_range(), numeric, "{context}");
    if numeric {
        let bounds = [
            None,
            Some((Value::Int(1), true)),
            Some((Value::Int(2), false)),
            Some((Value::Float(1.5), true)),
            Some((Value::Float(-0.0), false)),
            Some((Value::Int(4), true)),
        ];
        for _ in 0..6 {
            let (lo, hi) = (rng.pick(&bounds), rng.pick(&bounds));
            assert_eq!(
                idx.select(&IndexAccess::Range {
                    lo: lo.clone(),
                    hi: hi.clone()
                }),
                range_oracle(batch, cols[0], &lo, &hi),
                "{context}: range {lo:?}..{hi:?}"
            );
        }
    }
}

#[test]
fn typed_postings_match_a_hash_map_oracle() {
    let mut rng = Lcg(0x1DE5_0001);
    for case in 0..150 {
        let width = 1 + rng.below(3);
        let types: Vec<DataType> = (0..width + 1).map(|_| rng.pick(&LAYOUTS)).collect();
        let cols: Vec<usize> = (0..width).collect();
        let names: Vec<String> = cols.iter().map(|c| format!("c{c}")).collect();
        let null_one_in = [3, 8, 1000][rng.below(3)];
        let n = [0, 1, 7, 60, 300][rng.below(5)];
        let mut current = Arc::new(batch(&types, rows(&mut rng, &types, n, null_one_in, false)));
        let mut idx = Index::build("t", &names, cols.clone(), &current).expect("build");
        let context = format!("case {case}: {types:?}, {n} rows");
        check(&mut rng, &idx, &current, &types, &context);

        // Appends, one step at a time, each extending the last index.
        for step in 0..4 {
            let n_more = rng.below(12);
            let more = rows(&mut rng, &types, n_more, null_one_in, true);
            let appended = ColBatch::from_rows(&schema(&types), more);
            let grown = Arc::new(current.concat(&appended));
            idx = idx.extended(&grown).expect("an append extends");
            let context = format!("{context}, append {step} -> {} rows", grown.len());
            check(&mut rng, &idx, &grown, &types, &context);
            let rebuilt = Index::build("t", &names, cols.clone(), &grown).expect("build");
            assert_eq!(
                idx.conflict_summary(),
                rebuilt.conflict_summary(),
                "{context}"
            );
            assert_eq!(idx.distinct_keys(), rebuilt.distinct_keys(), "{context}");
            assert_eq!(idx.supports_range(), rebuilt.supports_range(), "{context}");
            current = grown;
        }
    }
}
