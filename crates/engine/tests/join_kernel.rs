//! Differential suite for the typed existence-join kernel: residual-free
//! semi/anti hash joins (`EXISTS` / `NOT EXISTS` on key equality) answered
//! off both sides' key *columns* through `engine::groupkey`.
//!
//! Every query runs on the row-at-a-time reference path
//! (`with_columnar(false)`, serial — the oracle) and on the kernel path at
//! `threads ∈ {1, 2, 8}`; answers must agree value for value, variant for
//! variant, float bit for bit, in the same row order, and the join's
//! `EXPLAIN ANALYZE` counters (`rows_out`, `build_rows`, `probe_rows`,
//! `comparisons`) must be the row path's. Inputs are seeded random table
//! pairs over every key layout (`Int`, `Float`, `Date`, `Bool`, dictionary
//! `Text`, and `Any` both as a float column holding integers and as a
//! freely mixed column), one- to three-column keys, keys compared across
//! layouts (an integer column against a float one, a typed column against
//! an `Any` one), NULL-heavy, all-duplicate and all-distinct domains, and
//! sizes on both sides of the executor's 4096-row parallel threshold.

use conquer_engine::{DataType, Database, ExecOptions, NodeStats, Plan, Rows, Table, Value};

const THREADS: [usize; 3] = [1, 2, 8];
/// The executor's `PAR_THRESHOLD` (4 morsels of 1024 rows).
const PAR_THRESHOLD: usize = 4096;

fn row_opts() -> ExecOptions {
    ExecOptions::default().with_threads(1).with_columnar(false)
}

fn col_opts(threads: usize) -> ExecOptions {
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

fn assert_same(oracle: &Rows, got: &Rows, context: &str) {
    assert_eq!(oracle.rows.len(), got.rows.len(), "row count: {context}");
    for (r, (a, b)) in oracle.rows.iter().zip(&got.rows).enumerate() {
        assert_eq!(a.len(), b.len(), "width: {context}");
        for (x, y) in a.iter().zip(b) {
            let same = match (x, y) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Null, Value::Null) => true,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Date(x), Value::Date(y)) => x == y,
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => false,
            };
            assert!(same, "row {r}: {x:?} vs {y:?}: {context}");
        }
    }
}

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

/// Oracle (row path, serial) against the kernel path at every thread
/// count: rows, order, join counters — and errors, message for message.
fn check(db: &Database, sql: &str) {
    check_planned(db, sql, true);
}

/// [`check`]; `hash_join` says whether the plan must hold a hash join (a
/// correlated `EXISTS` the planner cannot decorrelate runs per outer row).
fn check_planned(db: &Database, sql: &str, hash_join: bool) {
    let query = conquer_sql::parse_query(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    let oracle = db.execute_query_traced(&query, &row_opts());
    for threads in THREADS {
        let got = db.execute_query_traced(&query, &col_opts(threads));
        let context = format!("threads={threads}: {sql}");
        match (&oracle, &got) {
            (Ok((a, plan_a, stats_a)), Ok((b, plan_b, stats_b))) => {
                assert_same(a, b, &context);
                let (mut ca, mut cb) = (Vec::new(), Vec::new());
                join_counters(plan_a, stats_a, &mut ca);
                join_counters(plan_b, stats_b, &mut cb);
                assert_eq!(!ca.is_empty(), hash_join, "hash join planned: {context}");
                assert_eq!(ca, cb, "join counters: {context}");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{context}"),
            (a, b) => panic!(
                "row path {:?} vs kernel {:?}: {context}",
                a.as_ref().map(|r| r.0.rows.len()),
                b.as_ref().map(|r| r.0.rows.len())
            ),
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

fn check_all_shapes(db: &Database) {
    for quantifier in ["exists", "not exists"] {
        // Every single-column key layout against itself.
        for k in KEYS {
            check(db, &exists_sql(quantifier, &format!("b.{k} = p.{k}")));
        }
        // Two- and three-column keys mixing layouts.
        check(db, &exists_sql(quantifier, "b.ki = p.ki and b.kt = p.kt"));
        check(
            db,
            &exists_sql(quantifier, "b.kd = p.kd and b.kb = p.kb and b.kf = p.kf"),
        );
        check(
            db,
            &exists_sql(quantifier, "b.km = p.km and b.ka = p.ka and b.ki = p.ki"),
        );
        // Keys compared across layouts: integer against float columns (both
        // ways), typed columns against `Any` ones, and two typed layouts
        // that never hold one key.
        for on in [
            "b.kf = p.ki",
            "b.ki = p.kf",
            "b.km = p.ki",
            "b.ki = p.km",
            "b.ka = p.kt",
            "b.kt = p.ka",
            "b.ka = p.kf and b.ki = p.ki",
            "b.kd = p.ki",
        ] {
            check(db, &exists_sql(quantifier, on));
        }
    }
}

#[test]
fn random_tables_match_row_path_at_every_size() {
    let sizes = [
        (0, 0),
        (0, 40),
        (1, 1),
        (1, 0),
        (300, 1),
        (PAR_THRESHOLD - 1, 700),
        (700, PAR_THRESHOLD + 1),
        (PAR_THRESHOLD + 17, PAR_THRESHOLD),
        (2 * PAR_THRESHOLD + 5, 3 * PAR_THRESHOLD),
    ];
    for (i, (np, nb)) in sizes.into_iter().enumerate() {
        check_all_shapes(&fixture(np, nb, 97, 11, 0x51DE + i as u64));
    }
}

#[test]
fn null_heavy_all_duplicate_and_all_distinct_keys() {
    let n = PAR_THRESHOLD + 500;
    // Every other value NULL.
    check_all_shapes(&fixture(n, n, 13, 2, 1));
    // One key value (plus NULL) on the probe side, two on the build side.
    check_all_shapes(&fixture(n, n, 1, 7, 2));
    // A domain far past `n`: nearly every build row its own key, so the
    // key table grows through many doublings, and nearly every probe
    // misses — NOT EXISTS keeps (almost) everything.
    check_all_shapes(&fixture(n, n, 1 << 40, 1 << 30, 3));
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
            &col_opts(2),
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
            check(&db, &exists_sql(quantifier, on));
        }
    }
    // `-0.0` and `0.0` both meet `Int(0)` and each other; NaNs meet only
    // their own bit pattern; NULL meets nothing.
    let tags = |sql: &str| -> Vec<i64> {
        db.query_with(sql, &col_opts(1))
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
fn expression_keys_and_residuals_take_the_general_path() {
    // Not the kernel's shapes, but they must keep answering: a key that is
    // an expression on either side is still a hash join (and an erroring
    // key must report the row path's error); an EXISTS correlated through
    // an inequality is not decorrelated at all.
    let db = fixture(PAR_THRESHOLD + 50, 800, 97, 11, 5);
    let small = fixture(300, 200, 97, 11, 6);
    for quantifier in ["exists", "not exists"] {
        for on in [
            "b.ki = p.ki + 1",
            "b.ki + 0 = p.ki",
            "b.kf * 2 = p.ki and b.kt = p.kt",
            "b.ki = p.ki / (p.v - p.v)",
        ] {
            check(&db, &exists_sql(quantifier, on));
        }
        for on in ["b.ki = p.ki and b.v > p.v", "b.kt = p.kt and b.kf < p.kf"] {
            check_planned(&small, &exists_sql(quantifier, on), false);
        }
    }
}
