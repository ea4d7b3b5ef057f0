//! Differential suite for the Sort body: ORDER BY, and ORDER BY under a
//! LIMIT, which runs as a top-N (the Sort keeps and sorts only the rows the
//! limit asks for).
//!
//! Every query runs on the row-at-a-time reference evaluator
//! (`conquer-reference`) and on the engine at `threads ∈ {1, 2, 8}`, and
//! the answers must agree value for value, variant for variant and float
//! bit for bit, in order. Each ORDER BY also runs under `LIMIT n` for `n`
//! of 0, 1, a few and at least the row count, and the engine's top-N must
//! be the first `n` rows of its own full sort. Inputs cover every key
//! layout — `Int`, `Float` with NaN, `±0.0`, `±inf` and NULLs, `Date`,
//! `Bool`, dictionary `Text`, an `Any` column mixing `Int` and `Float` —
//! text from two dictionaries (`UNION ALL` of two tables), descending and
//! several keys, ties (the sort is stable: ties keep their input order),
//! computed keys, and both input shapes: a columnar scan and a row-shaped
//! one (a projection the column compiler does not take), on both sides of
//! the executor's 4 096-row parallel threshold.

use conquer_engine::{DataType, Database, ExecOptions, Rows, Table, Value};

const THREADS: [usize; 3] = [1, 2, 8];

fn opts(threads: usize) -> ExecOptions {
    ExecOptions::default().with_threads(threads)
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const WORDS: [&str; 6] = ["pear", "apple", "", "fig", "Ünïcode", "apple pie"];

/// `name(k, i, f, m, t, d, b)` with `n` seeded rows: `k` the row number,
/// the rest drawn from `domain` values (so keys repeat), one in nine NULL.
/// `f` holds NaNs of both signs, `±0.0` and `±inf`; `m` is a float column
/// that also holds integers (stored as `Any`).
fn table(name: &str, n: usize, domain: u64, seed: u64, words: &[&str]) -> Table {
    let mut rng = Lcg(seed);
    let mut t = Table::new(
        name,
        vec![
            ("k", DataType::Integer),
            ("i", DataType::Integer),
            ("f", DataType::Float),
            ("m", DataType::Float),
            ("t", DataType::Text),
            ("d", DataType::Date),
            ("b", DataType::Boolean),
        ],
    );
    for k in 0..n {
        let v = rng.next() % domain;
        let null = |rng: &mut Lcg, v: Value| {
            if rng.next().is_multiple_of(9) {
                Value::Null
            } else {
                v
            }
        };
        let f = match v % 11 {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => 0.0,
            3 => -0.0,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            _ => v as f64 / 4.0 - 3.0,
        };
        let m = if v.is_multiple_of(2) {
            Value::Int(v as i64 / 2)
        } else {
            Value::Float(v as f64 / 2.0)
        };
        let row = vec![
            Value::Int(k as i64),
            null(&mut rng, Value::Int(v as i64 - 5)),
            null(&mut rng, Value::Float(f)),
            null(&mut rng, m),
            null(&mut rng, Value::str(words[v as usize % words.len()])),
            null(&mut rng, Value::Date(9_000 + (v % 50) as i32)),
            null(&mut rng, Value::Bool(v.is_multiple_of(3))),
        ];
        t.push(row).expect("the row fits the schema");
    }
    t
}

fn fixture(n: usize, domain: u64) -> Database {
    let db = Database::new();
    db.register(table("t", n, domain, 7, &WORDS)).unwrap();
    // A second table whose text dictionary interns other words, in another
    // order: a `UNION ALL` re-codes one into the other.
    db.register(table(
        "u",
        n / 2 + 1,
        domain,
        11,
        &["fig", "zebra", "Apple", "pear"],
    ))
    .unwrap();
    db
}

fn diff(expected: &Rows, got: &Rows, context: &str) {
    if let Some(d) = conquer_reference::diff(expected, got, true) {
        panic!("{context}: {d}");
    }
}

/// `sql` (an ORDER BY without LIMIT) against the reference at every thread
/// count, then under `LIMIT n`: the reference's answer, and the first `n`
/// rows of the engine's full sort.
fn check(db: &Database, sql: &str) {
    let reference = conquer_reference::evaluate_sql(db, sql)
        .unwrap_or_else(|e| panic!("reference: {e}: {sql}"));
    let rows = reference.rows.len();
    for threads in THREADS {
        let full = db.query_with(sql, &opts(threads)).unwrap();
        diff(&reference, &full, &format!("threads={threads}: {sql}"));
        for n in [0, 1, 7, rows, rows + 5] {
            let limited = format!("{sql} limit {n}");
            let context = format!("threads={threads}: {limited}");
            let top = db.query_with(&limited, &opts(threads)).unwrap();
            let head = Rows {
                schema: full.schema.clone(),
                rows: full.rows[..n.min(rows)].to_vec(),
            };
            diff(&head, &top, &format!("{context} (the full sort's head)"));
            if threads == 1 {
                let reference = conquer_reference::evaluate_sql(db, &limited).unwrap();
                diff(&reference, &top, &context);
            }
        }
    }
}

/// Every key layout, ascending and descending, alone and with others, over
/// a columnar input and a row-shaped one.
fn check_all_shapes(db: &Database) {
    // `i / 2` does not compile to a column kernel: the projection runs row
    // at a time and hands the Sort owned rows, in scan order.
    for (input, cols) in [
        ("t", "k, i, f, m, t, d, b"),
        ("t", "k, i, f, m, t, d, b, i / 2 as h"),
    ] {
        for key in ["i", "f", "m", "t", "d", "b"] {
            for dir in ["", " desc"] {
                check(
                    db,
                    &format!("select {cols} from {input} order by {key}{dir}"),
                );
            }
        }
        check(
            db,
            &format!("select {cols} from {input} order by b desc, t, f desc"),
        );
        check(
            db,
            &format!("select {cols} from {input} order by d, m desc, i"),
        );
    }
    // Computed keys: compiled over the columns, or evaluated per row.
    check(db, "select k, f, i from t order by f * 2 desc, i + 1");
    check(db, "select k, f, i from t order by i / 3, f");
    // Text from two dictionaries.
    check(
        db,
        "select t, k from t union all select t, k from u order by t desc, k",
    );
    check(
        db,
        "select t, f from t union all select t, f from u order by t",
    );
}

#[test]
fn small_inputs_match_the_reference() {
    check_all_shapes(&fixture(300, 40));
    // Every key equal: the order is the input's.
    check_all_shapes(&fixture(120, 1));
}

#[test]
fn inputs_over_the_parallel_threshold_match_the_reference() {
    check_all_shapes(&fixture(5000, 400));
}

/// `ORDER BY` over a float column holding NaN: NaN after every number and
/// before NULL ascending; first, then the numbers, then NULL, descending
/// (NULL last either way); NaNs equal to each other, so they keep their
/// input order.
#[test]
fn nan_sorts_after_numbers_and_before_null() {
    let db = Database::new();
    db.run_script("create table t (k integer, x float)")
        .unwrap();
    let mut values = Vec::new();
    for k in 0..200 {
        let x = match k % 13 {
            5 => "null".to_string(),
            _ if k % 7 == 0 => "1e308 * 10 - 1e308 * 10".to_string(),
            _ => format!("{}.5", (k * 37) % 101),
        };
        values.push(format!("({k}, {x})"));
    }
    db.run_script(&format!("insert into t values {}", values.join(", ")))
        .unwrap();
    let class = |v: &Value| match v {
        Value::Float(x) if x.is_nan() => 1,
        Value::Float(_) => 0,
        Value::Null => 2,
        other => panic!("{other:?}"),
    };
    for threads in THREADS {
        for (dir, order) in [("", [0, 1, 2]), (" desc", [1, 0, 2])] {
            let sql = format!("select k, x from t order by x{dir}");
            let rows = db.query_with(&sql, &opts(threads)).unwrap().rows;
            assert_eq!(rows.len(), 200);
            let classes: Vec<usize> = rows.iter().map(|r| class(&r[1])).collect();
            let mut expected = classes.clone();
            expected.sort_by_key(|c| order.iter().position(|o| o == c));
            assert_eq!(classes, expected, "{sql}");
            let numbers: Vec<f64> = rows
                .iter()
                .filter_map(|r| match r[1] {
                    Value::Float(x) if !x.is_nan() => Some(x),
                    _ => None,
                })
                .collect();
            let sorted = numbers.windows(2).all(|w| match dir {
                "" => w[0] <= w[1],
                _ => w[0] >= w[1],
            });
            assert!(sorted, "{sql}: {numbers:?}");
            // Ties — the NaNs, the NULLs — keep their input order.
            for c in [1, 2] {
                let ks: Vec<i64> = rows
                    .iter()
                    .filter(|r| class(&r[1]) == c)
                    .map(|r| match r[0] {
                        Value::Int(k) => k,
                        _ => unreachable!(),
                    })
                    .collect();
                assert!(ks.windows(2).all(|w| w[0] < w[1]), "{sql}: {ks:?}");
            }
            check(&db, &sql);
        }
    }
}

/// `EXPLAIN ANALYZE` says when a Sort ran as a top-N, and for how many.
#[test]
fn a_sort_under_a_limit_reports_its_top() {
    let db = fixture(300, 40);
    let (_, text) = db
        .explain_analyze_with(
            "select k, f from t order by f desc limit 5",
            &ExecOptions::default(),
        )
        .unwrap();
    let sort = text.lines().find(|l| l.contains("Sort")).unwrap();
    assert!(sort.contains(" top=5"), "{text}");
    let (_, text) = db
        .explain_analyze_with("select k, f from t order by f", &ExecOptions::default())
        .unwrap();
    assert!(!text.contains("top="), "{text}");
}
