//! Differential suite for every hash join, each answered off key *columns*
//! through `engine::groupkey` (evaluated into fresh chunks when a key is an
//! expression or a side is row-shaped): semi/anti joins (`EXISTS` / `NOT
//! EXISTS` on key equality) on the one existence body, a set of the build
//! side's distinct keys (`groupkey::KeySet`), and inner and left-outer joins
//! looking their probe keys up in row-id postings built over the build
//! side's key columns (`groupkey::Postings`).
//!
//! Queries run on the row-at-a-time reference evaluator
//! (`conquer-reference`, the oracle: the subquery evaluated again for every
//! probe row, a join's `ON` tested on every pair, nothing hashed) and on
//! the engine at `threads ∈ {1, 2, 8}`; answers must agree value for value,
//! variant for variant, float bit for bit — in the same row order for an
//! existence join, which keeps its probe side's order, and as bags for an
//! inner or left join, whose build side may be either input — errors
//! message for message, and the engine's rows, in order, and its joins'
//! `EXPLAIN ANALYZE` counters (`rows_out`, `build_rows`, `probe_rows`,
//! `comparisons`) must not depend on the thread count. Where `=` cannot
//! compare two keys — a
//! NaN, or two types with no order between them, as in a freely mixed
//! `Any` column — the reference rejects the query with a type error, as
//! the engine's own `WHERE` would; the engine's join keys extend `=` there
//! (such keys never meet, a NaN meets its own bit pattern), and those
//! shapes are held to one answer at every thread count and to the pinned
//! expectations of `float_and_mixed_keys_keep_key_value_equality`. Inputs
//! are seeded random table pairs over every key layout (`Int`, `Float`,
//! `Date`, `Bool`, dictionary `Text`, and `Any` both as a float column
//! holding integers and as a freely mixed column), one- to three-column
//! keys, keys compared across layouts (an integer column against a float
//! one, a typed column against an `Any` one), NULL-heavy, all-duplicate
//! and all-distinct domains, and sizes on both sides of the executor's
//! 4096-row parallel threshold. The reference costs probe rows × build
//! rows per query, so it checks the fixtures where one side stays small
//! and the other crosses the threshold; on fixtures too big for it (both
//! sides past the threshold) the engine at threads 2 and 8 is held to
//! threads 1 alone — rows, order, errors and join counters. An inner or
//! left join runs on every key shape whose inner join yields at most
//! [`JOIN_ROWS_CAP`] rows: a boolean or text key over thousands of rows
//! on each side is nearly a cross product, and its layout is covered there
//! by the multi-column keys that hold it. Every fixture also runs `EXISTS`
//! / `NOT EXISTS` with an expression key on either side and with a
//! row-shaped probe or build side. Beyond those shapes: joins whose two
//! sides are both an inner join's row-shaped output, an inner join that
//! builds on its smaller left side — with a residual too, where
//! `EXPLAIN ANALYZE` says `build=left` exactly when the left side is
//! smaller and no index serves the right one — expression keys — one of
//! them erroring — at every join kind, and a hand-built existence join with
//! a residual, which is refused.

use std::collections::HashMap;

use conquer_engine::expr::BoundExpr;
use conquer_engine::obs::Json;
use conquer_engine::plan::JoinType;
use conquer_engine::value::Key;
use conquer_engine::{
    DataType, Database, EngineError, ExecOptions, JoinSide, NodeStats, Plan, Rows, Table, Value,
};

const THREADS: [usize; 3] = [1, 2, 8];
/// The executor's `PAR_THRESHOLD` (4 morsels of 1024 rows).
const PAR_THRESHOLD: usize = 4096;

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

    /// `v`, or NULL one time in `one_in`.
    fn nullable(&mut self, one_in: u64, v: Value) -> Value {
        if self.next().is_multiple_of(one_in) {
            Value::Null
        } else {
            v
        }
    }
}

/// What the engine's answers are held to besides threads 1.
#[derive(Clone, Copy, PartialEq)]
enum Oracle {
    /// The reference's rows and order, or its error message.
    Reference,
    /// The reference's, except that a type error from it (keys `=` cannot
    /// compare) stands for the engine's key equality, held only to threads 1.
    BeyondEq,
    /// Threads 1 alone: fixtures past the parallel threshold on both sides,
    /// where the reference's probe × build cost is too high.
    Threads,
}

/// The engine's rows and join counters, or its error message.
type Answer = Result<(Rows, Vec<[u64; 4]>), String>;

/// `(rows_out, build_rows, probe_rows, comparisons)` of every hash join,
/// in plan order.
fn join_counters(plan: &Plan, stats: &NodeStats, out: &mut Vec<[u64; 4]>) {
    if matches!(plan, Plan::HashJoin { .. }) {
        out.push([
            stats.rows_out,
            stats.build_rows,
            stats.probe_rows,
            stats.comparisons,
        ]);
    }
    for (child, child_stats) in plan.children().into_iter().zip(&stats.children) {
        join_counters(child, child_stats, out);
    }
}

/// The reference against the engine at every thread count: rows and
/// order — and errors, message for message; the engine's rows, errors and
/// join counters at threads 2 and 8 against threads 1.
fn check(db: &Database, sql: &str) {
    check_planned(db, sql, true, Oracle::Reference, true);
}

/// [`check`] for keys `=` may be unable to compare.
fn check_keys(db: &Database, sql: &str) {
    check_planned(db, sql, true, Oracle::BeyondEq, true);
}

/// [`check`] against `oracle`; `hash_join` says whether the plan must hold
/// a hash join (a correlated `EXISTS` the planner cannot decorrelate runs
/// per outer row), `ordered` whether the reference's row order is the
/// engine's too (threads 2 and 8 are always held to threads 1's order).
fn check_planned(db: &Database, sql: &str, hash_join: bool, oracle: Oracle, ordered: bool) {
    let query = conquer_sql::parse_query(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    let reference = (oracle != Oracle::Threads).then(|| conquer_reference::evaluate(db, &query));
    let mut serial: Option<Answer> = None;
    for threads in THREADS {
        let context = format!("threads={threads}: {sql}");
        let got = db.execute_query_traced(&query, &opts(threads));
        let got = got.map_err(|e| e.to_string()).map(|(rows, plan, stats)| {
            let mut counters = Vec::new();
            join_counters(&plan, &stats, &mut counters);
            assert_eq!(
                !counters.is_empty(),
                hash_join,
                "hash join planned: {context}"
            );
            (rows, counters)
        });
        match (&reference, &got) {
            (None, _) => {}
            (Some(Ok(expected)), Ok((rows, _))) => {
                if let Some(diff) = conquer_reference::diff(expected, rows, ordered) {
                    panic!("{context}: {diff}");
                }
            }
            (Some(Err(EngineError::TypeError(_))), Ok(_)) if oracle == Oracle::BeyondEq => {}
            (Some(Err(a)), Err(b)) => assert_eq!(&a.to_string(), b, "{context}"),
            (Some(a), b) => panic!(
                "reference {:?} vs engine {:?}: {context}",
                a.as_ref().map(|r| r.rows.len()),
                b.as_ref().map(|r| r.0.rows.len())
            ),
        }
        match (serial.get_or_insert_with(|| got.clone()), &got) {
            (Ok((a, ca)), Ok((b, cb))) => {
                if let Some(diff) = conquer_reference::diff(a, b, true) {
                    panic!("against threads=1: {context}: {diff}");
                }
                assert_eq!(ca, cb, "join counters: {context}");
            }
            (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "{context}"),
        }
    }
}

const WORDS: [&str; 6] = [
    "alpha",
    "bravo",
    "",
    "delta",
    "Ünïcode",
    "a-much-longer-text-key",
];

/// `name(ki, kf, kt, kd, kb, km, ka, v)` with `n` seeded random rows.
/// `domain` bounds the key values (1 = all duplicates, `>= n` ≈ all
/// distinct); one value in `null_in` is NULL. `kf` is a typed float key
/// (with `-0.0`/`0.0` twins), `km` a float column that also holds integers
/// (so it is stored as `Any`, and `2` must meet `2.0`), `ka` a freely mixed
/// `Any` column. Each table interns its text in its own order, so `kt`
/// carries a different dictionary on every side.
fn table(name: &str, n: usize, domain: u64, null_in: u64, seed: u64) -> Table {
    let mut rng = Lcg(seed);
    let mut t = Table::new(
        name,
        vec![
            ("ki", DataType::Integer),
            ("kf", DataType::Float),
            ("kt", DataType::Text),
            ("kd", DataType::Date),
            ("kb", DataType::Boolean),
            ("km", DataType::Float),
            ("ka", DataType::Any),
            ("v", DataType::Integer),
        ],
    );
    for i in 0..n {
        let k = rng.next() % domain;
        let kf = match k % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => k as f64 / 2.0,
        };
        let km = if k.is_multiple_of(2) {
            Value::Int((k / 2) as i64)
        } else {
            Value::Float((k / 2) as f64)
        };
        let ka = match k % 5 {
            0 => Value::Int(k as i64),
            1 => Value::Float(k as f64 - 1.0), // meets the Int one below it
            2 => Value::str(WORDS[(k % 6) as usize]),
            3 => Value::Date(k as i32),
            _ => Value::Bool(k.is_multiple_of(2)),
        };
        let row = vec![
            rng.nullable(null_in, Value::Int(k as i64 - 3)),
            rng.nullable(null_in, Value::Float(kf)),
            rng.nullable(null_in, Value::str(WORDS[(k % 6) as usize])),
            rng.nullable(null_in, Value::Date(10_000 + (k % 400) as i32)),
            rng.nullable(null_in, Value::Bool(k.is_multiple_of(3))),
            rng.nullable(null_in, km),
            rng.nullable(null_in, ka),
            Value::Int(i as i64),
        ];
        t.push(row).expect("fixture row fits its schema");
    }
    t
}

/// Probe table `p` of `np` rows against build table `b` of `nb`; the
/// build side draws from twice the probe's key domain, so probes hit and
/// miss.
fn fixture(np: usize, nb: usize, domain: u64, null_in: u64, seed: u64) -> Database {
    let db = Database::new();
    db.register(table("p", np, domain, null_in, seed)).unwrap();
    db.register(table("b", nb, 2 * domain, null_in, seed ^ 0xB11D))
        .unwrap();
    db
}

const KEYS: [&str; 7] = ["ki", "kf", "kt", "kd", "kb", "km", "ka"];

fn exists_sql(quantifier: &str, on: &str) -> String {
    format!("select * from p where {quantifier} (select * from b where {on})")
}

/// `kind` is `join` or `left join`.
fn join_sql(kind: &str, on: &str) -> String {
    format!("select * from p {kind} b on {on}")
}

/// The most rows an inner join of [`check_all_shapes`] may yield.
const JOIN_ROWS_CAP: usize = 20_000;

/// The rows `p join b on <on>` yields, `on` a conjunction of
/// `b.<column> = p.<column>`: per key, `p`'s rows holding it times `b`'s,
/// under the engine's key equality (`Key`: `Int(2)` is `Float(2.0)`, a
/// NULL component meets nothing).
fn inner_join_rows(db: &Database, on: &str) -> usize {
    let (b_cols, p_cols): (Vec<&str>, Vec<&str>) = on
        .split(" and ")
        .filter_map(|eq| eq.split_once(" = "))
        .map(|(b, p)| (&b[2..], &p[2..]))
        .unzip();
    let counts = |table: &str, cols: &[&str]| {
        let t = db.table(table).expect("fixture table");
        let idx: Vec<usize> = cols.iter().map(|c| t.column_index(c).unwrap()).collect();
        let mut counts: HashMap<Key, usize> = HashMap::new();
        for i in 0..t.len() {
            let vals: Vec<Value> = idx.iter().map(|&c| t.cols().col(c).value_at(i)).collect();
            let key = Key::from_values(&vals);
            if !key.has_null() {
                *counts.entry(key).or_default() += 1;
            }
        }
        counts
    };
    let b = counts("b", &b_cols);
    let p = counts("p", &p_cols);
    p.iter().map(|(k, n)| n * b.get(k).unwrap_or(&0)).sum()
}

/// Every key shape, and whether `=` compares its keys: every single-column
/// layout against itself (the freely mixed `ka` holds keys `=` cannot
/// compare); two- and three-column keys mixing layouts; keys compared
/// across layouts — integer against float columns, both ways, and against
/// `Any` ones holding numbers; typed columns against a freely mixed `Any`
/// one, and two typed layouts that never hold one key.
fn key_shapes() -> Vec<(String, bool)> {
    let mut shapes: Vec<(String, bool)> = KEYS
        .iter()
        .map(|k| (format!("b.{k} = p.{k}"), *k != "ka"))
        .collect();
    shapes.extend(
        [
            ("b.ki = p.ki and b.kt = p.kt", true),
            ("b.kd = p.kd and b.kb = p.kb and b.kf = p.kf", true),
            ("b.km = p.km and b.ka = p.ka and b.ki = p.ki", false),
            ("b.kf = p.ki", true),
            ("b.ki = p.kf", true),
            ("b.km = p.ki", true),
            ("b.ki = p.km", true),
            ("b.ka = p.kt", false),
            ("b.kt = p.ka", false),
            ("b.ka = p.kf and b.ki = p.ki", false),
            ("b.kd = p.ki", false),
        ]
        .map(|(on, eq)| (on.to_string(), eq)),
    );
    shapes
}

/// `EXISTS` / `NOT EXISTS` whose keys or sides are not plain columns of a
/// columnar batch, all on the one existence body: an expression key on the
/// probe side, then on the build side, and a probe side, then a build side,
/// that a projection the kernels do not compile (its division) leaves
/// row-shaped. (A Filter would not: it keeps a columnar input columnar.)
/// `{q}` is the quantifier.
const EXISTENCE_SHAPES: [&str; 4] = [
    "select * from p where {q} (select * from b where b.ki = p.ki + 0)",
    "select * from p where {q} (select * from b where b.kf + 0 = p.kf)",
    "select * from (select ki, kt, v / 1 as v from p) p where {q} \
     (select * from b where b.ki = p.ki and b.kt = p.kt)",
    "select * from p where {q} \
     (select * from (select kd, km, v / 1 as v from b) b where b.kd = p.kd and b.km = p.km)",
];

/// Every key shape against `db` as `EXISTS`, `NOT EXISTS`, inner and left
/// join, and every [`EXISTENCE_SHAPES`]: held to the reference when
/// `reference`, else (both sides too big for it) to the engine at threads 1
/// alone.
fn check_all_shapes(db: &Database, reference: bool) {
    for (on, eq) in key_shapes() {
        let oracle = match (reference, eq) {
            (false, _) => Oracle::Threads,
            (true, true) => Oracle::Reference,
            (true, false) => Oracle::BeyondEq,
        };
        for quantifier in ["exists", "not exists"] {
            check_planned(db, &exists_sql(quantifier, &on), true, oracle, true);
        }
        if inner_join_rows(db, &on) <= JOIN_ROWS_CAP {
            for kind in ["join", "left join"] {
                check_planned(db, &join_sql(kind, &on), true, oracle, false);
            }
        }
    }
    let oracle = if reference {
        Oracle::Reference
    } else {
        Oracle::Threads
    };
    for shape in EXISTENCE_SHAPES {
        for quantifier in ["exists", "not exists"] {
            let sql = shape.replace("{q}", quantifier);
            check_planned(db, &sql, true, oracle, true);
        }
    }
}

/// The engine against the row-at-a-time reference, and against itself at
/// threads 1 where both sides are too big for the reference.
#[test]
fn random_tables_match_row_path_at_every_size() {
    // (probe rows, build rows, held to the reference): past the threshold
    // on one side — the probe fans out, or the build grows large — with the
    // other small enough for the reference; then sides too big for it, past
    // the threshold on both at once, held to threads 1.
    let sizes = [
        (0, 0, true),
        (0, 40, true),
        (1, 1, true),
        (1, 0, true),
        (300, 1, true),
        (PAR_THRESHOLD - 1, 60, true),
        (60, PAR_THRESHOLD + 1, true),
        (PAR_THRESHOLD + 17, 90, true),
        (PAR_THRESHOLD - 1, 700, false),
        (700, PAR_THRESHOLD + 1, false),
        (PAR_THRESHOLD + 17, PAR_THRESHOLD, false),
        (2 * PAR_THRESHOLD + 5, 3 * PAR_THRESHOLD, false),
    ];
    for (i, (np, nb, reference)) in sizes.into_iter().enumerate() {
        check_all_shapes(&fixture(np, nb, 97, 11, 0x51DE + i as u64), reference);
    }
}

#[test]
fn null_heavy_all_duplicate_and_all_distinct_keys() {
    let n = PAR_THRESHOLD + 500;
    // Every other value NULL; one key value (plus NULL) on the probe side,
    // two on the build side; and a domain far past `n`: nearly every build
    // row its own key, so the key table grows through many doublings, and
    // nearly every probe misses — NOT EXISTS keeps (almost) everything.
    // Each domain once with one side small enough for the reference, once
    // past the threshold on both sides against threads 1.
    let domains = [
        (13, 2, 1, (n, 60)),
        (1, 7, 2, (n, 60)),
        (1 << 40, 1 << 30, 3, (60, n)),
    ];
    for (domain, null_in, seed, (np, nb)) in domains {
        check_all_shapes(&fixture(np, nb, domain, null_in, seed), true);
        check_all_shapes(&fixture(n, n, domain, null_in, seed), false);
    }
}

#[test]
fn a_join_that_keeps_every_probe_row_is_the_probe_batch() {
    // Disjoint integer keys: NOT EXISTS keeps all of `p`, EXISTS none; the
    // same with the sides' roles swapped through a subset.
    let db = Database::new();
    let mut p = Table::new("p", vec![("k", DataType::Integer), ("s", DataType::Text)]);
    let mut b = Table::new("b", vec![("k", DataType::Integer)]);
    for i in 0..(PAR_THRESHOLD + 9) as i64 {
        p.push(vec![Value::Int(i), Value::str(WORDS[i as usize % 6])])
            .unwrap();
        b.push(vec![Value::Int(-1 - i)]).unwrap();
    }
    db.register(p).unwrap();
    db.register(b).unwrap();
    for sql in [
        "select * from p where not exists (select * from b where b.k = p.k)",
        "select * from p where exists (select * from b where b.k = p.k)",
        "select * from p where exists (select * from p q where q.k = p.k)",
        "select * from p where not exists (select * from p q where q.k = p.k)",
    ] {
        check(&db, sql);
    }
    let all = db
        .query_with(
            "select * from p where not exists (select * from b where b.k = p.k)",
            &opts(2),
        )
        .unwrap();
    assert_eq!(all.rows.len(), PAR_THRESHOLD + 9);
}

#[test]
fn float_and_mixed_keys_keep_key_value_equality() {
    let nan_a = f64::NAN;
    let nan_b = f64::from_bits(f64::NAN.to_bits() ^ 1);
    let floats = [
        -0.0,
        0.0,
        2.0,
        nan_a,
        nan_b,
        2.5,
        f64::INFINITY,
        9.3e18,
        f64::NEG_INFINITY,
        (1u64 << 53) as f64,
        -7.0,
    ];
    let db = Database::new();
    // `p`: every float once as a typed float `f`, once in `m` — a float
    // column storing whole values as integers every other row, so `Any`.
    let mut p = Table::new(
        "p",
        vec![
            ("f", DataType::Float),
            ("m", DataType::Float),
            ("tag", DataType::Integer),
        ],
    );
    for (i, f) in floats.into_iter().enumerate() {
        let m = if i % 2 == 0 && f.fract() == 0.0 && f.abs() < 1e9 {
            Value::Int(f as i64)
        } else {
            Value::Float(f)
        };
        p.push(vec![Value::Float(f), m, Value::Int(i as i64)])
            .unwrap();
    }
    p.push(vec![Value::Null, Value::Null, Value::Int(99)])
        .unwrap();
    db.register(p).unwrap();
    // `b`: an integer column and a float column holding some of them.
    let mut b = Table::new("b", vec![("i", DataType::Integer), ("f", DataType::Float)]);
    for (i, f) in [
        (0, 0.0),
        (2, nan_a),
        (-7, 2.5),
        (1 << 53, -0.0),
        (5, f64::INFINITY),
    ] {
        b.push(vec![Value::Int(i), Value::Float(f)]).unwrap();
    }
    b.push(vec![Value::Null, Value::Null]).unwrap();
    db.register(b).unwrap();
    for quantifier in ["exists", "not exists"] {
        for on in [
            "b.f = p.f",
            "b.i = p.f",
            "b.f = p.m",
            "b.i = p.m",
            "b.i = p.tag",
        ] {
            check_keys(&db, &exists_sql(quantifier, on));
        }
    }
    // `-0.0` and `0.0` both meet `Int(0)` and each other; NaNs meet only
    // their own bit pattern; NULL meets nothing.
    let tags = |sql: &str| -> Vec<i64> {
        db.query_with(sql, &opts(1))
            .unwrap()
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(t) => t,
                ref other => panic!("tag {other:?}"),
            })
            .collect()
    };
    assert_eq!(
        tags("select tag from p where exists (select * from b where b.i = p.f)"),
        vec![0, 1, 2, 9, 10],
        "0 meets both zeroes, 2 meets 2.0, 2^53 and -7 meet their floats"
    );
    assert_eq!(
        tags("select tag from p where exists (select * from b where b.f = p.f)"),
        vec![0, 1, 3, 5, 6],
        "the zeroes, NaN by bits (not its one-bit-off twin), 2.5, infinity"
    );
}

#[test]
fn text_keys_meet_by_string_across_dictionaries() {
    let db = Database::new();
    // Three tables coding the same strings in different orders; `c` also
    // holds strings nobody else has. Big enough to go parallel.
    let mut p = Table::new("p", vec![("s", DataType::Text), ("v", DataType::Integer)]);
    let mut b = Table::new("b", vec![("s", DataType::Text)]);
    let mut c = Table::new("c", vec![("s", DataType::Text)]);
    for i in 0..(PAR_THRESHOLD + 300) {
        p.push(vec![
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::str(format!("w{}", i % 60))
            },
            Value::Int(i as i64),
        ])
        .unwrap();
    }
    for i in 0..500usize {
        b.push(vec![Value::str(format!("w{}", 59 - i % 20))])
            .unwrap();
        c.push(vec![if i % 7 == 0 {
            Value::Null
        } else {
            Value::str(format!("w{}", (i * 7) % 90))
        }])
        .unwrap();
    }
    db.register(p).unwrap();
    db.register(b).unwrap();
    db.register(c).unwrap();
    for quantifier in ["exists", "not exists"] {
        check(
            &db,
            &format!("select * from p where {quantifier} (select * from b where b.s = p.s)"),
        );
        // A `UNION ALL` build side: its text column is re-coded into a
        // merged dictionary that is neither table's.
        check(
            &db,
            &format!(
                "with u as (select s from b union all select s from c) \
                 select * from p where {quantifier} (select * from u where u.s = p.s)"
            ),
        );
        // And a `UNION ALL` probe side.
        check(
            &db,
            &format!(
                "with u as (select s from c union all select s from p) \
                 select * from u where {quantifier} (select * from b where b.s = u.s)"
            ),
        );
    }
}

#[test]
fn group_by_output_reaches_the_join_typed() {
    // The rewritings' shape: a GROUP BY's key columns feeding NOT EXISTS.
    // The projection above the aggregate keeps the group columns' types,
    // so a pivot between the two does not demote them to `Any`.
    let db = fixture(PAR_THRESHOLD + 100, 900, 97, 11, 77);
    for quantifier in ["exists", "not exists"] {
        check(
            &db,
            &format!(
                "with g as (select ki as ki, kt as kt, count(*) as n from p group by ki, kt) \
                 select * from g where {quantifier} \
                 (select * from b where b.ki = g.ki and b.kt = g.kt)"
            ),
        );
        check(
            &db,
            &format!(
                "with g as (select ki as ki, count(*) as n from b group by ki) \
                 select * from p where {quantifier} \
                 (select * from g where g.ki = p.ki and g.n = p.v)"
            ),
        );
    }
    let plan = db
        .plan(
            &conquer_sql::parse_query(
                "select ki, kt, count(*), count(v), sum(v), ki + 1 from p group by ki, kt",
            )
            .unwrap(),
            &ExecOptions::default(),
        )
        .unwrap();
    let types: Vec<DataType> = plan.schema().columns.iter().map(|c| c.ty).collect();
    assert_eq!(
        types,
        vec![
            DataType::Integer,
            DataType::Text,
            DataType::Integer,
            DataType::Integer,
            DataType::Any,
            DataType::Any
        ],
        "group columns keep their type, counts are integers, the rest is open"
    );
}

#[test]
fn expression_keys_and_residuals_keep_answering() {
    // A key that is an expression on either side is still a hash join, its
    // keys evaluated into fresh chunks (and an erroring key must report the
    // reference's error), at every join kind; an EXISTS correlated through
    // an inequality is not decorrelated at all.
    let db = fixture(PAR_THRESHOLD + 50, 800, 97, 11, 5);
    let small = fixture(300, 200, 97, 11, 6);
    for on in [
        "b.ki = p.ki + 1",
        "b.ki + 0 = p.ki",
        "b.kf * 2 = p.ki and b.kt = p.kt",
        "b.ki = p.ki / (p.v - p.v)",
    ] {
        for quantifier in ["exists", "not exists"] {
            check(&db, &exists_sql(quantifier, on));
        }
        for kind in ["join", "left join"] {
            check_planned(&db, &join_sql(kind, on), true, Oracle::Reference, false);
        }
    }
    for quantifier in ["exists", "not exists"] {
        for on in ["b.ki = p.ki and b.v > p.v", "b.kt = p.kt and b.kf < p.kf"] {
            check_planned(
                &small,
                &exists_sql(quantifier, on),
                false,
                Oracle::Reference,
                true,
            );
        }
    }
}

/// The planner makes existence joins of key equalities alone, and their
/// body tests nothing else: a semi or anti join handed a residual anyway is
/// refused with an execution error, at every thread count, never answered
/// as if the residual were not there.
#[test]
fn an_existence_join_with_a_residual_is_refused() {
    let db = fixture(300, 200, 97, 11, 13);
    let side = |table: &str| {
        let query = conquer_sql::parse_query(&format!("select * from {table}")).unwrap();
        db.plan(&query, &ExecOptions::default()).unwrap()
    };
    let (p, b) = (side("p"), side("b"));
    for kind in [JoinType::Semi, JoinType::Anti] {
        let plan = Plan::HashJoin {
            schema: p.schema().clone(),
            left: Box::new(p.clone()),
            right: Box::new(b.clone()),
            kind,
            left_keys: vec![BoundExpr::column(0)],
            right_keys: vec![BoundExpr::column(0)],
            residual: Some(BoundExpr::Literal(Value::Bool(true))),
            build_index: None,
        };
        for threads in THREADS {
            let got = conquer_engine::exec::execute_plan(&plan, None, None, threads, None);
            assert!(
                matches!(got, Err(EngineError::Execution(_))),
                "{kind:?} threads={threads}"
            );
        }
    }
}

#[test]
fn joins_over_joins_read_row_shaped_sides() {
    // Both inputs of the outer join are an inner join's row-shaped output,
    // so its build and probe keys are both evaluated into fresh chunks;
    // past the threshold each side is about 8 500 rows.
    let x = "select p.v as pv, p.ki as ki, p.kt as kt from p join b on b.kd = p.kd";
    let y = "select p.v as pv, p.kf as kf, b.kt as kt from p join b on b.ki = p.ki";
    for (db, oracle) in [
        (fixture(300, 200, 97, 11, 8), Oracle::Reference),
        (fixture(PAR_THRESHOLD + 50, 400, 97, 11, 9), Oracle::Threads),
    ] {
        for kind in ["join", "left join"] {
            for on in [
                "y.pv = x.pv",
                "y.kt = x.kt and y.pv = x.pv",
                "y.kf = x.ki and y.pv = x.pv",
            ] {
                let sql = format!("select * from ({x}) x {kind} ({y}) y on {on}");
                check_planned(&db, &sql, true, oracle, false);
            }
        }
    }
}

#[test]
fn an_inner_join_builds_on_its_smaller_left_side() {
    // `p` is the smaller side: an inner join builds on it and probes `b`, so
    // its rows come out in `b`'s order — `b.v`, `b`'s row number and the
    // last column, ascends — at every thread count. A left join cannot
    // swap: `p.v` ascends.
    let db = fixture(60, PAR_THRESHOLD + 9, 97, 11, 21);
    let row_numbers = |sql: &str, threads: usize, col: usize| -> Vec<i64> {
        let rows = db.query_with(sql, &opts(threads)).unwrap().rows;
        let number = |r: &Vec<Value>| match r[col] {
            Value::Int(v) => v,
            ref other => panic!("row number {other:?}"),
        };
        rows.iter().map(number).collect()
    };
    for on in ["b.ki = p.ki", "b.kt = p.kt and b.kd = p.kd", "b.km = p.ki"] {
        for (kind, col) in [("join", 15), ("left join", 7)] {
            let sql = join_sql(kind, on);
            check_planned(&db, &sql, true, Oracle::Reference, false);
            for threads in THREADS {
                let numbers = row_numbers(&sql, threads, col);
                assert!(numbers.len() > 60, "{sql}: {} rows", numbers.len());
                assert!(
                    numbers.windows(2).all(|w| w[0] <= w[1]),
                    "threads={threads}: {sql}"
                );
            }
        }
    }
}

/// What one hash join of an inner join with a residual reports:
/// `(left rows, right rows, index attached, build side, EXPLAIN ANALYZE
/// line, operator JSON)`.
type BuildReport = (u64, u64, bool, Option<JoinSide>, String, Json);

fn build_reports(plan: &Plan, stats: &NodeStats, out: &mut Vec<BuildReport>) {
    if let Plan::HashJoin {
        residual,
        build_index,
        ..
    } = plan
    {
        assert!(residual.is_some(), "every join here has a residual");
        let text = conquer_engine::explain_analyze(plan, stats);
        out.push((
            stats.children[0].rows_out,
            stats.children[1].rows_out,
            build_index.is_some(),
            stats.build_side,
            text.lines().next().unwrap_or_default().to_string(),
            conquer_engine::stats_json(plan, stats),
        ));
    }
    for (child, child_stats) in plan.children().into_iter().zip(&stats.children) {
        build_reports(child, child_stats, out);
    }
}

#[test]
fn inner_joins_with_a_residual_build_on_the_smaller_unindexed_side() {
    // The executor picks every build side: an inner join hashes its smaller
    // input, residual or not, unless an index serves the right side. The
    // residual reads each candidate pair laid out left ++ right whichever
    // side was probed, so the answer is the reference's either way —
    // left smaller and larger, past the parallel threshold, NULL keys, an
    // index on neither side, either or both.
    let (mut built_left, mut pinned) = (0, 0);
    for (np, nb) in [(60, 400), (400, 60), (60, PAR_THRESHOLD + 9)] {
        for indexed in [&[][..], &["p"], &["b"], &["p", "b"]] {
            let db = fixture(np, nb, 97, 7, 31 + np as u64);
            for table in indexed {
                db.create_index(table, &["ki"]).unwrap();
            }
            for on in [
                "b.ki = p.ki and b.v < p.v",
                "b.ki = p.ki and (b.kf <> p.kf or b.kt is null)",
                "b.kt = p.kt and b.kd = p.kd and b.v + p.v > 200",
            ] {
                let sql = join_sql("join", on);
                check_planned(&db, &sql, true, Oracle::Reference, false);
                let query = conquer_sql::parse_query(&sql).unwrap();
                for threads in THREADS {
                    let context = format!("threads={threads} indexed={indexed:?}: {sql}");
                    let (_, plan, stats) = db.execute_query_traced(&query, &opts(threads)).unwrap();
                    let mut reports = Vec::new();
                    build_reports(&plan, &stats, &mut reports);
                    assert_eq!(reports.len(), 1, "{context}");
                    let (left, right, index, side, line, json) = reports.remove(0);
                    let left_built = left < right && !index;
                    built_left += usize::from(left_built);
                    pinned += usize::from(index && left < right);
                    let want = if left_built {
                        JoinSide::Left
                    } else {
                        JoinSide::Right
                    };
                    assert_eq!(side, Some(want), "{context}");
                    assert_eq!(
                        line.contains(" build=left"),
                        left_built,
                        "{context}: {line}"
                    );
                    assert_eq!(
                        json.get("build"),
                        Some(&Json::from(want.label())),
                        "{context}"
                    );
                }
            }
        }
    }
    assert!(built_left > 0 && pinned > 0, "{built_left} {pinned}");
}
