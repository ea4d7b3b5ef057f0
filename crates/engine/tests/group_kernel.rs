//! Differential suite for the typed group-key kernel (`engine::groupkey`)
//! and the operators built on it: GROUP BY, DISTINCT, `UNION ALL`.
//!
//! Every query runs on the row-at-a-time reference evaluator
//! (`conquer-reference`, the oracle: linear-search groups, no hashing) and
//! on the engine at `threads ∈ {1, 2, 8}`; answers must agree value for
//! value, *variant for variant* (an `Int(2)` is not a `Float(2.0)`) and
//! float bit for bit, in the same row order — the engine promises
//! first-seen group order. A global aggregate (no GROUP BY) is the kernel's
//! one group, its partials merged like any group's. DISTINCT has no other
//! body: over a row-shaped
//! input (a join, an uncompiled filter) it runs the kernel on the rows
//! turned into columns, and is checked there too. Errors must agree too,
//! message for message: a
//! value-level error in the kernel replays on the engine's row path, so it
//! reports the error a row-major evaluation hits first. Inputs are seeded
//! random tables over every column layout
//! (`Int`, `Float`, `Date`, `Bool`, dictionary `Text`, and `Any` both as a
//! float column holding integers and as a freely mixed column), NULL-heavy,
//! all-duplicate and all-distinct keys, and sizes on both sides of the
//! executor's 4096-row parallel threshold. An aggregate over a `UNION ALL`
//! folds the branches one by one in their own layouts and merges their
//! partial states; its fixtures also check, through `EXPLAIN ANALYZE`'s
//! `parts=N`, that this path was the one taken — or, for DISTINCT
//! aggregates, that the branches were concatenated first.

use conquer_engine::{DataType, Database, EngineError, ExecOptions, ResourceLimits, Table, Value};

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

/// The reference against the engine at every thread count, in order.
/// Errors must agree too, message for message.
fn check(db: &Database, sql: &str) {
    let oracle = conquer_reference::evaluate_sql(db, sql);
    for threads in THREADS {
        let got = db.query_with(sql, &opts(threads));
        let context = format!("threads={threads}: {sql}");
        match (&oracle, &got) {
            (Ok(a), Ok(b)) => {
                if let Some(diff) = conquer_reference::diff(a, b, true) {
                    panic!("{context}: {diff}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{context}"),
            (a, b) => panic!("reference {a:?} vs engine {b:?}: {context}"),
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

/// `t(ki, kf, kt, kd, kb, km, ka, vi, vf, vt)` with `n` seeded random rows.
/// `domain` bounds the key values (1 = all duplicates, `>= n` ≈ all
/// distinct); one value in `null_in` is NULL. `kf` is a typed float key
/// (with `-0.0`/`0.0` twins), `km` a float column that also holds integers
/// (so it is stored as `Any`, and `2` must group with `2.0`), `ka` a
/// freely mixed `Any` column.
fn fixture(n: usize, domain: u64, null_in: u64, seed: u64) -> Database {
    let db = Database::new();
    db.register(table("t", n, domain, null_in, seed))
        .expect("register fixture");
    db
}

/// [`fixture`]'s table, named `name`.
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
            ("vi", DataType::Integer),
            ("vf", DataType::Float),
            ("vt", DataType::Text),
        ],
    );
    for _ in 0..n {
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
        let r = rng.next();
        let row = vec![
            rng.nullable(null_in, Value::Int(k as i64 - 3)),
            rng.nullable(null_in, Value::Float(kf)),
            rng.nullable(null_in, Value::str(WORDS[(k % 6) as usize])),
            rng.nullable(null_in, Value::Date(10_000 + (k % 400) as i32)),
            rng.nullable(null_in, Value::Bool(k.is_multiple_of(3))),
            rng.nullable(null_in, km),
            rng.nullable(null_in, ka),
            rng.nullable(null_in, Value::Int((r % 2001) as i64 - 1000)),
            rng.nullable(null_in, Value::Float((r % 997) as f64 / 8.0 - 60.0)),
            rng.nullable(null_in, Value::str(WORDS[(r % 6) as usize])),
        ];
        t.push(row).expect("fixture row fits its schema");
    }
    t
}

const KEYS: [&str; 7] = ["ki", "kf", "kt", "kd", "kb", "km", "ka"];

/// Every aggregate function over every argument layout that has it.
const GLOBAL_AGGS: &str = "count(*), count(vi), sum(vi), avg(vi), min(vi), max(vi), \
                           count(vf), sum(vf), avg(vf), min(vf), max(vf), \
                           count(kd), min(kd), max(kd), count(vt), min(vt), max(vt), \
                           count(km), sum(km), avg(km), min(km), max(km), count(ka), \
                           min(kb), max(kb)";

fn check_all_shapes(db: &Database) {
    // Every aggregate over every single-column key layout.
    for k in KEYS {
        check(
            db,
            &format!(
                "select {k}, count(*), count(vi), sum(vi), avg(vi), min(vi), max(vi), \
                 sum(vf), avg(vf), min(vf), max(vf), min(vt), max(vt), min(kd), max(kd), \
                 count(ka), min(kb) from t group by {k}"
            ),
        );
        check(db, &format!("select distinct {k} from t"));
        check(
            db,
            &format!(
                "select {k}, count(distinct vi), sum(distinct vi), avg(distinct vf), \
                 count(distinct vt), count(distinct km), sum(distinct km) from t group by {k}"
            ),
        );
    }
    // Multi-column keys mixing layouts, HAVING on the kernel's output, and
    // the column-pick projection above it.
    check(
        db,
        "select kt, ki, kb, count(*), max(vf) from t group by kt, ki, kb",
    );
    check(
        db,
        "select km, ka, sum(vi) from t group by km, ka having count(*) > 1",
    );
    check(db, "select distinct kt, kd, kb from t");
    check(db, "select distinct ki, kf, kt, kd, kb, km, ka from t");
    check(db, "select distinct vi, vf, vt from t");
    // Global aggregates run through the kernel as one group: every function
    // over integer, float, date, text and both `Any` layouts — `km`'s `2`
    // and `2.0` may meet only when partials merge, which replays — and the
    // DISTINCT ones, folded on one worker.
    let global = format!("select {GLOBAL_AGGS} from t");
    let answer = conquer_reference::evaluate_sql(db, &global);
    assert!(answer.is_ok(), "{answer:?}: {global}");
    check(db, &global);
    check(
        db,
        "select count(distinct ki), sum(distinct vi), avg(distinct vf), count(distinct ka), \
         count(*) from t",
    );
    // A grouped aggregate feeding another through a CTE: the kernel's
    // typed output columns are the next kernel's input.
    check(
        db,
        "with g as (select ki as ki, kt as kt, min(vf) as lo, max(vf) as hi, count(*) as n \
         from t group by ki, kt) \
         select kt, sum(lo), sum(hi), sum(n), count(*) from g group by kt",
    );
}

#[test]
fn random_batches_match_row_path_at_every_size() {
    for (i, n) in [
        0,
        1,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD,
        PAR_THRESHOLD + 1,
        3 * PAR_THRESHOLD + 17,
    ]
    .into_iter()
    .enumerate()
    {
        let db = fixture(n, 97, 11, 0xC0FFEE + i as u64);
        check_all_shapes(&db);
    }
}

#[test]
fn null_heavy_all_duplicate_and_all_distinct_keys() {
    let n = PAR_THRESHOLD + 500;
    // Every other value NULL.
    check_all_shapes(&fixture(n, 13, 2, 1));
    // One key value (plus NULL): every row a duplicate.
    check_all_shapes(&fixture(n, 1, 7, 2));
    // A domain far past `n`: nearly every row its own group, so the group
    // table grows through many doublings and DISTINCT keeps (almost)
    // everything.
    check_all_shapes(&fixture(n, 1 << 40, 1 << 30, 3));
}

#[test]
fn union_all_inputs_with_two_dictionaries_group_by_string() {
    let db = Database::new();
    // Two tables whose text dictionaries code the same strings in
    // different orders, one with NULLs; big enough to go parallel.
    let mut a = Table::new("a", vec![("s", DataType::Text), ("v", DataType::Integer)]);
    let mut b = Table::new("b", vec![("s", DataType::Text), ("v", DataType::Float)]);
    for i in 0..3000usize {
        a.push(vec![Value::str(WORDS[i % 6]), Value::Int(i as i64 % 50)])
            .unwrap();
        b.push(vec![
            if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(WORDS[5 - i % 6])
            },
            Value::Float((i % 50) as f64),
        ])
        .unwrap();
    }
    db.register(a).unwrap();
    db.register(b).unwrap();
    // Same-typed text columns: dictionaries merge, groups are by string.
    check(
        &db,
        "select s, count(*) from (select s from a union all select s from b) u group by s",
    );
    check(
        &db,
        "select distinct s from (select s from b union all select s from a) u",
    );
    // Integer against float: the merged column demotes to `Any`, and
    // `Int(7)` groups with `Float(7.0)` under the first-seen one's name.
    check(
        &db,
        "select v, count(*), min(s), max(s) from \
         (select s, v from a union all select s, v from b) u group by v",
    );
    check(
        &db,
        "select v, count(*) from \
         (select s, v from b union all select s, v from a) u group by v",
    );
    // Three-way, a side filtered to nothing, and the union as the result.
    check(
        &db,
        "select s, sum(v) from (select s, v from a union all select s, v from a \
         union all select s, v from a where v < 0) u group by s",
    );
    check(&db, "select s, v from a union all select s, v from b");
}

/// The `field=N` (`parts=`, `threads=`) on the first `op` line (`Aggregate`,
/// `Distinct`) of the query's `EXPLAIN ANALYZE` at `threads`, if it has one.
fn explained(db: &Database, sql: &str, threads: usize, op: &str, field: &str) -> Option<usize> {
    let (_, text) = db
        .explain_analyze_with(sql, &opts(threads))
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let line = text.lines().find(|l| l.trim_start().starts_with(op))?;
    let value = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix(field)?.strip_prefix('='))?;
    Some(value.trim_end_matches(')').parse().expect("field=N"))
}

/// The `parts=N` an aggregate's `EXPLAIN ANALYZE` line carries: how many
/// `UNION ALL` branches it folded one by one (`None`: it concatenated them,
/// or its input was no union).
fn union_parts(db: &Database, sql: &str, threads: usize) -> Option<usize> {
    explained(db, sql, threads, "Aggregate", "parts")
}

/// The workers the first `op` of the query folded its rows on at
/// `threads = 8`: 1 for the group-key kernel's one-worker plan.
fn workers_at_8(db: &Database, sql: &str, op: &str) -> usize {
    explained(db, sql, 8, op, "threads").unwrap_or(1)
}

/// [`check`], and the aggregate took the path it should: folded `parts`
/// branches one by one, or (`None`) concatenated them.
fn check_union(db: &Database, sql: &str, parts: Option<usize>) {
    check(db, sql);
    for threads in THREADS {
        assert_eq!(
            union_parts(db, sql, threads),
            parts,
            "threads={threads}: {sql}"
        );
    }
}

/// Two tables shaped like `conq_unfiltered` and `conq_filtered`: the same
/// columns, FLOAT bounds in `f`, INTEGERs in `i` (its `m` column mixes both,
/// so it is stored as `Any`), NULL keys and values in both, and keys that
/// only `i` holds.
fn union_fixture(n: usize) -> Database {
    let db = Database::new();
    let cols = |v| {
        vec![
            ("k", DataType::Text),
            ("g", DataType::Integer),
            ("v", v),
            ("m", DataType::Float),
        ]
    };
    let mut f = Table::new("f", cols(DataType::Float));
    let mut i = Table::new("i", cols(DataType::Integer));
    let mut rng = Lcg(0xF00D);
    for r in 0..n {
        let k = rng.next() % 40;
        let (v, m) = (rng.next() % 2000, rng.next() % 90);
        f.push(vec![
            rng.nullable(9, Value::str(format!("k{k}"))),
            Value::Int((k % 7) as i64),
            rng.nullable(5, Value::Float(v as f64 / 16.0 - 40.0)),
            rng.nullable(6, Value::Float(m as f64 / 4.0)),
        ])
        .unwrap();
        // `i` holds keys `f` lacks (k40..k59) and an integer zero in `v`,
        // as Fig. 8's `CASE … THEN 0` does.
        let k = 20 + rng.next() % 40;
        let m = match r % 3 {
            0 => Value::Int((k % 5) as i64),
            1 => Value::Float(k as f64 / 8.0),
            _ => Value::Null,
        };
        i.push(vec![
            rng.nullable(11, Value::str(format!("k{k}"))),
            Value::Int((k % 7) as i64),
            rng.nullable(4, Value::Int(if r % 2 == 0 { 0 } else { k as i64 - 30 })),
            m,
        ])
        .unwrap();
    }
    db.register(f).unwrap();
    db.register(i).unwrap();
    db
}

const UNION_AGGS: &str = "count(*), count(u.v), sum(u.v), avg(u.v), min(u.v), max(u.v), \
                          sum(u.m), avg(u.m), min(u.m), max(u.m), count(u.m)";

#[test]
fn aggregates_over_union_branches_fold_them_one_by_one() {
    for n in [300, PAR_THRESHOLD + 300] {
        let db = union_fixture(n);
        // INTEGER against FLOAT in `v`, an `Any` column in `m`, groups first
        // seen in the second branch, NULL keys and values — both orders.
        for (a, b) in [("f", "i"), ("i", "f")] {
            let union = format!("select k, g, v, m from {a} union all select k, g, v, m from {b}");
            check_union(
                &db,
                &format!("select u.k, {UNION_AGGS} from ({union}) u group by u.k"),
                Some(2),
            );
            check_union(
                &db,
                &format!("select u.g, u.k, sum(u.v), max(u.m) from ({union}) u group by u.g, u.k"),
                Some(2),
            );
            // A global aggregate over a union: Q6's final shape.
            check_union(
                &db,
                &format!("select {UNION_AGGS} from ({union}) u"),
                Some(2),
            );
        }
        // An empty branch, and three branches through a nested union.
        check_union(
            &db,
            &format!(
                "select u.k, {UNION_AGGS} from (select k, g, v, m from f union all \
                 select k, g, v, m from i where g > 100) u group by u.k"
            ),
            Some(2),
        );
        check_union(
            &db,
            &format!(
                "select u.k, {UNION_AGGS} from (select k, g, v, m from i union all \
                 select k, g, v, m from f union all select k, g, v, m from i where v > 3) u \
                 group by u.k"
            ),
            Some(3),
        );
        check_union(
            &db,
            "select count(*), sum(u.v) from (select v from f where g > 100 union all \
             select v from i where g > 100) u",
            Some(2),
        );
        // A FLOAT branch whose sums meet only NULLs leaves INTEGER sums
        // integers, as one fold over the concatenation does.
        check_union(
            &db,
            "select u.k, sum(u.v), avg(u.v) from (select k, v from f where v is null \
             union all select k, v from i) u group by u.k",
            Some(2),
        );
        // DISTINCT aggregates take the concatenating path.
        check_union(
            &db,
            "select u.k, count(distinct u.v), sum(u.v) from \
             (select k, v from f union all select k, v from i) u group by u.k",
            None,
        );
        check_union(
            &db,
            "select count(distinct u.k) from (select k from f union all select k from i) u",
            None,
        );
    }
}

/// A value-level error in a branch, or a merge one fold over the
/// concatenation might not agree with, concatenates the branches and
/// aggregates those — so the error is reported as that path reports it,
/// the reference's.
#[test]
fn union_value_errors_are_the_concatenated_aggregates() {
    let db = Database::new();
    let mut a = Table::new(
        "a",
        vec![
            ("k", DataType::Integer),
            ("x", DataType::Integer),
            ("f", DataType::Float),
        ],
    );
    let mut b = Table::new(
        "b",
        vec![
            ("k", DataType::Integer),
            ("x", DataType::Integer),
            ("f", DataType::Float),
        ],
    );
    let max = i64::MAX;
    for (k, x, f) in [
        (1, max - 5, f64::NAN),
        (2, max - 100, 1.0),
        (3, 1, 2.0),
        (4, -max, 0.5),
    ] {
        a.push(vec![Value::Int(k), Value::Int(x), Value::Float(f)])
            .unwrap();
    }
    for (k, x, f) in [
        (1, 10, 3.0),
        (1, -10, 4.0),
        (2, 10, 5.0),
        (2, -10, 6.0),
        (3, 7, f64::NAN),
    ] {
        b.push(vec![Value::Int(k), Value::Int(x), Value::Float(f)])
            .unwrap();
    }
    db.register(a).unwrap();
    db.register(b).unwrap();
    let union = "(select k, x, f from a union all select k, x, f from b) u";
    // Key 1 overflows part-way through `b`'s rows though its partials do
    // not; key 2 comes within 90 of the bound and back.
    let overflow = format!("select u.k, sum(u.x) from {union} group by u.k");
    // Key 1's NaN meets `b`'s floats only in the merge; key 3's NaN is in
    // a branch of its own.
    let nan = [
        "select u.k, min(u.f) from (select k, f from a where k = 1 union all \
         select k, f from b where k = 1) u group by u.k"
            .to_string(),
        format!("select u.k, max(u.f) from {union} group by u.k"),
    ];
    for sql in nan.iter().chain([&overflow]) {
        assert!(
            conquer_reference::evaluate_sql(&db, sql).is_err(),
            "fixture must fail: {sql}"
        );
        check(&db, sql);
    }
    // Without the failing keys the same unions fold one by one.
    for keys in ["k = 2 or k = 4", "k > 1"] {
        check_union(
            &db,
            &format!(
                "select u.k, sum(u.x), min(u.f), max(u.f) from (select k, x, f from a where {keys} \
                 union all select k, x, f from b where k = 2) u group by u.k"
            ),
            Some(2),
        );
    }
}

/// `t(k, s, v, f)` with `n` rows: key `k = key(i)` at row `i`, `s` a word
/// chosen by the key (so `(k, s)` groups as `k` does), `v` an integer and
/// `f` a float, NULL now and then.
fn keyed(n: usize, key: impl Fn(usize) -> i64) -> Database {
    let db = Database::new();
    let mut t = Table::new(
        "t",
        vec![
            ("k", DataType::Integer),
            ("s", DataType::Text),
            ("v", DataType::Integer),
            ("f", DataType::Float),
        ],
    );
    let mut rng = Lcg(99);
    for i in 0..n {
        let (k, r) = (key(i), rng.next());
        t.push(vec![
            Value::Int(k),
            Value::str(WORDS[k.rem_euclid(6) as usize]),
            Value::Int((r % 2001) as i64 - 1000),
            rng.nullable(13, Value::Float((r % 500) as f64 / 3.0)),
        ])
        .unwrap();
    }
    db.register(t).unwrap();
    db
}

const KEYED_AGGS: &str = "count(*), sum(v), min(v), max(v), sum(f), avg(f), min(f), max(s)";

/// Whether `sql` fits each memory budget: the same answer at every thread
/// count — what the kernel charges is the merged groups' bytes, whichever
/// plan it took — and, over `budgets`, some trip and some do not.
fn trips_alike(db: &Database, sql: &str, budgets: &[u64]) {
    let fits = |budget: u64, threads: usize| {
        let options = ExecOptions {
            limits: ResourceLimits::default().with_max_memory_bytes(budget),
            ..opts(threads)
        };
        match db.query_with(sql, &options) {
            Ok(_) => true,
            Err(EngineError::MemoryExceeded(_)) => false,
            Err(e) => panic!("budget={budget} threads={threads}: {e}"),
        }
    };
    let outcomes: Vec<bool> = budgets.iter().map(|&b| fits(b, 1)).collect();
    assert!(
        outcomes.contains(&true) && outcomes.contains(&false),
        "{outcomes:?}: {sql}"
    );
    for (&budget, &one) in budgets.iter().zip(&outcomes) {
        for threads in [2, 8] {
            assert_eq!(
                fits(budget, threads),
                one,
                "budget={budget} threads={threads}: {sql}"
            );
        }
    }
}

/// The group-key kernel picks its plan from morsel 0 — the first 1024 rows
/// — which may misjudge the rest. One group there and thousands after:
/// partials that each hold thousands of groups, merged. Every row its own
/// group there and four groups after: one worker folds thousands of
/// duplicates. Either way the rows, their order and whether a memory
/// budget trips are the same at every thread count.
#[test]
fn a_misjudged_first_morsel_keeps_first_seen_order() {
    let n = 3 * PAR_THRESHOLD;
    let one_then_thousands = |i: usize| {
        if i < 1024 {
            0
        } else {
            (i * 7919 % 3000) as i64 + 1
        }
    };
    let distinct_then_four = |i: usize| if i < 1024 { i as i64 } else { (i % 4) as i64 };
    let grouped = format!("select k, s, {KEYED_AGGS} from t group by k, s");
    let distinct = "select distinct s, k from t";
    let budgets = [20_000, 100_000, 300_000, 1_000_000, 4_000_000];
    for (db, workers) in [
        (keyed(n, one_then_thousands), 8),
        (keyed(n, distinct_then_four), 1),
    ] {
        check(&db, &grouped);
        check(&db, distinct);
        assert_eq!(
            workers_at_8(&db, &grouped, "Aggregate"),
            workers,
            "{grouped}"
        );
        assert_eq!(workers_at_8(&db, distinct, "Distinct"), workers);
        trips_alike(&db, &grouped, &budgets);
        trips_alike(&db, distinct, &budgets);
    }
}

/// Eight partials whose groups' first rows fall in each other's morsels:
/// every morsel after the first brings new keys, and meets keys first seen
/// in the morsels before it. Merged in first-row order, the groups come
/// out in first-seen order — also over a `UNION ALL`, branch by branch.
#[test]
fn eight_partials_merge_in_first_seen_order() {
    let n = 4 * PAR_THRESHOLD + 17;
    let db = keyed(n, |i| {
        let morsel = (i / 1024) as i64;
        if morsel == 0 {
            (i % 16) as i64
        } else {
            16 + (i as i64 % 64 + 13 * morsel) % 300
        }
    });
    let grouped = format!("select k, s, {KEYED_AGGS} from t group by k, s");
    check(&db, &grouped);
    check(&db, "select distinct s, k from t");
    assert_eq!(workers_at_8(&db, &grouped, "Aggregate"), 8);
    assert_eq!(
        workers_at_8(&db, "select distinct s, k from t", "Distinct"),
        8
    );
    check_union(
        &db,
        "select u.k, count(*), sum(u.f), min(u.s) from \
         (select k, s, f from t union all select k, s, f from t where k > 150) u group by u.k",
        Some(2),
    );
}

/// MIN/MAX candidates that meet only when two partials merge: a NaN, which
/// is the row path's error, and ties between representations of one value
/// (`0.0` before `-0.0` in a FLOAT column, `2` before `2.0` in a mixed one)
/// whose first only the rows' order tells. Both replay on the row path,
/// which folds them on one worker: the reference's error, and its firsts.
#[test]
fn min_max_candidates_met_only_in_a_merge() {
    let n = 3 * PAR_THRESHOLD;
    let db = Database::new();
    let mut t = Table::new(
        "t",
        vec![
            ("k", DataType::Integer),
            ("f", DataType::Float),
            ("m", DataType::Float),
        ],
    );
    for i in 0..n {
        // Few groups, so the kernel merges partials; group 100's rows sit
        // in morsels 2, 3 and 5, one each.
        let (k, f, m) = match i {
            2100 => (100, Value::Float(0.0), Value::Int(2)),
            3100 => (100, Value::Float(-0.0), Value::Float(2.0)),
            5100 => (100, Value::Float(f64::NAN), Value::Float(3.0)),
            _ => (i as i64 % 8, Value::Float(i as f64), Value::Float(1.0)),
        };
        t.push(vec![Value::Int(k), f, m]).unwrap();
    }
    db.register(t).unwrap();
    for sql in [
        "select k, min(f) from t group by k",
        "select k, max(f), count(*) from t group by k",
    ] {
        assert!(
            conquer_reference::evaluate_sql(&db, sql).is_err(),
            "fixture must fail: {sql}"
        );
        check(&db, sql);
    }
    for sql in [
        "select k, min(f), max(f), min(m), max(m) from t where k = 100 or k < 3 group by k",
        "select k, min(m), max(m) from t group by k",
    ] {
        check(&db, sql);
    }
}

/// A global aggregate — no GROUP BY — is the kernel's one group, folded in
/// morsel-local partials when there are rows enough. MIN/MAX candidates met
/// only when two partials merge replay on the row path: a NaN, which is the
/// row path's error, and `0.0` against `-0.0` or `2` against `2.0`, whose
/// first only the rows' order tells. Over zero rows it is one row, `COUNT`
/// 0 and the rest NULL. A memory budget trips alike at every thread count.
#[test]
fn global_aggregates_fold_as_one_group() {
    let n = 3 * PAR_THRESHOLD;
    let db = Database::new();
    let mut t = Table::new(
        "t",
        vec![
            ("k", DataType::Integer),
            ("f", DataType::Float),
            ("m", DataType::Float),
            ("s", DataType::Text),
        ],
    );
    for i in 0..n {
        // Rows 2100, 3100 and 5100 sit in morsels 2, 3 and 5.
        let (k, f, m) = match i {
            2100 => (0, Value::Float(0.0), Value::Int(2)),
            3100 => (1, Value::Float(-0.0), Value::Float(2.0)),
            5100 => (100, Value::Float(f64::NAN), Value::Float(3.0)),
            _ => (i as i64 % 8, Value::Float(i as f64), Value::Float(1.0)),
        };
        t.push(vec![Value::Int(k), f, m, Value::str(WORDS[i % 6])])
            .unwrap();
    }
    db.register(t).unwrap();
    for sql in ["select min(f) from t", "select max(f), count(*) from t"] {
        assert!(
            conquer_reference::evaluate_sql(&db, sql).is_err(),
            "fixture must fail: {sql}"
        );
        check(&db, sql);
    }
    // `k < 8` drops the NaN and keeps the ties: `0.0` (rows 0 and 2100)
    // against `-0.0` (row 3100), `2` (row 2100) against `2.0` (row 3100).
    let tied = "select min(f), max(f), min(m), max(m), count(*) from t where k < 8";
    check(&db, tied);
    let row = &db.query_with(tied, &opts(8)).unwrap().rows[0];
    assert_eq!(
        format!("{:?}", &row[..4]),
        "[Float(0.0), Float(12287.0), Float(1.0), Int(2)]"
    );
    let none = "select count(*), count(f), sum(k), avg(f), min(s), max(m) from t where k > 100";
    check(&db, none);
    let row = &db.query_with(none, &opts(8)).unwrap().rows[0];
    let mut empty = vec![Value::Int(0); 2];
    empty.resize(6, Value::Null);
    assert_eq!(format!("{row:?}"), format!("{empty:?}"));
    let plain = "select count(*), sum(k), min(k), max(f), avg(f), max(s) from t where k < 8";
    check(&db, plain);
    assert_eq!(workers_at_8(&db, plain, "Aggregate"), 8);
    trips_alike(&db, plain, &[64, 1_000_000]);
}

/// DISTINCT aggregates fold on one worker, however few the groups: which
/// duplicate a DISTINCT keeps is the rows' order.
#[test]
fn count_distinct_with_grouped_keys_folds_on_one_worker() {
    let db = keyed(3 * PAR_THRESHOLD, |i| (i % 5) as i64);
    let sql = "select k, count(distinct v), sum(distinct v), count(distinct s), count(*), \
               max(f) from t group by k";
    check(&db, sql);
    assert_eq!(workers_at_8(&db, sql, "Aggregate"), 1);
    let plain = "select k, count(*), max(f) from t group by k";
    assert_eq!(workers_at_8(&db, plain, "Aggregate"), 8);
}

/// An integer SUM is split across workers only while its reach — rows
/// times the largest magnitude — fits `i64`, so that no order of the rows
/// can overflow: on each side of that bound the answer is the reference's,
/// grouped and global, and past it the fold ran on one worker.
#[test]
fn integer_sums_split_only_within_the_reach_bound() {
    // Nine morsels: the first decides the plan, eight workers fold the rest.
    let n = 9 * 1024;
    let largest = i64::MAX / n as i64;
    for (extra, workers) in [(0, 8), (1, 1)] {
        let db = Database::new();
        let mut t = Table::new(
            "t",
            vec![("k", DataType::Integer), ("x", DataType::Integer)],
        );
        for i in 0..n {
            let x = match i {
                3000 => largest + extra,
                _ if i % 3 == 0 => largest,
                _ => -(largest / 2),
            };
            t.push(vec![Value::Int(i as i64 % 4), Value::Int(x)])
                .unwrap();
        }
        db.register(t).unwrap();
        for sql in [
            "select k, sum(x), count(*) from t group by k",
            "select sum(x), min(x) from t",
        ] {
            check(&db, sql);
            assert_eq!(workers_at_8(&db, sql, "Aggregate"), workers, "{sql}");
        }
    }
}

/// Partial sums that each fit can add up to a total that fits while the
/// running sum in row order overflows: `x` is `i64::MAX − 10` at row 0,
/// `+20` at row 1024 and `−20` at row 1025. The reference overflows at row
/// 1024, so every thread count must, on the kernels (a plain column), the
/// row path (a computed argument) and a row-shaped input (a join's).
#[test]
fn integer_sum_overflow_does_not_depend_on_the_thread_count() {
    let db = Database::new();
    let mut t = Table::new(
        "t",
        vec![("k", DataType::Integer), ("x", DataType::Integer)],
    );
    for i in 0..5000usize {
        let x = match i {
            0 => i64::MAX - 10,
            1024 => 20,
            1025 => -20,
            _ => 0,
        };
        t.push(vec![Value::Int(i as i64 / 2048), Value::Int(x)])
            .unwrap();
    }
    db.register(t).unwrap();
    let mut u = Table::new("u", vec![("k", DataType::Integer)]);
    for k in 0..3 {
        u.push(vec![Value::Int(k)]).unwrap();
    }
    db.register(u).unwrap();
    for sql in [
        "select sum(x) from t",
        "select sum(x + 0) from t",
        "select k, sum(x) from t group by k",
        "select k, sum(x + 0), count(*) from t group by k",
        "select sum(t.x) from t join u on u.k = t.k",
        "select t.k, sum(t.x) from t join u on u.k = t.k group by t.k",
    ] {
        assert!(
            conquer_reference::evaluate_sql(&db, sql).is_err(),
            "fixture must fail: {sql}"
        );
        check(&db, sql);
    }
}

#[test]
fn float_and_mixed_keys_keep_key_value_equality() {
    let db = Database::new();
    let nan_a = f64::NAN;
    let nan_b = f64::from_bits(f64::NAN.to_bits() ^ 1);
    let mut t = Table::new(
        "t",
        vec![
            ("f", DataType::Float),
            ("m", DataType::Float),
            ("tag", DataType::Integer),
        ],
    );
    let floats = [
        -0.0,
        0.0,
        2.0,
        nan_a,
        nan_b,
        nan_a,
        2.5,
        -0.0,
        f64::INFINITY,
        9.3e18,
        9.3e18,
        f64::NEG_INFINITY,
    ];
    for (i, f) in floats.into_iter().enumerate() {
        // `m` stores whole floats as integers every other row, so it is an
        // `Any` column where `Int(2)` and `Float(2.0)` are one key.
        let m = if i % 2 == 0 && f.fract() == 0.0 && f.abs() < 1e9 {
            Value::Int(f as i64)
        } else {
            Value::Float(f)
        };
        t.push(vec![Value::Float(f), m, Value::Int(i as i64)])
            .unwrap();
    }
    t.push(vec![Value::Null, Value::Null, Value::Int(99)])
        .unwrap();
    t.push(vec![Value::Null, Value::Int(2), Value::Int(100)])
        .unwrap();
    db.register(t).unwrap();
    check(
        &db,
        "select f, count(*), min(tag), max(tag) from t group by f",
    );
    check(
        &db,
        "select m, count(*), min(tag), max(tag) from t group by m",
    );
    check(&db, "select distinct f from t");
    check(&db, "select distinct m from t");
    check(&db, "select distinct f, m from t");
    // The representative of the zero group is the first seen, `-0.0`.
    let rows = db
        .query_with("select f, count(*) from t group by f", &opts(1))
        .unwrap();
    match (&rows.rows[0][0], &rows.rows[0][1]) {
        (Value::Float(z), Value::Int(3)) => assert!(z.is_sign_negative() && *z == 0.0),
        other => panic!("zero group came out as {other:?}"),
    }
}

/// DISTINCT over a row-shaped input — a join's output, a filter the kernels
/// do not compile (its arithmetic), a `UNION ALL` of such branches — is
/// turned into columns and run through the same kernel: NULL with NULL,
/// `-0.0` with `0.0`, `Int(2)` with `Float(2.0)`, a NaN with its own bit
/// pattern only, text by string across the two tables' dictionaries, first
/// row of each group kept, at every thread count.
#[test]
fn distinct_over_row_shaped_inputs() {
    let nan_b = f64::from_bits(f64::NAN.to_bits() ^ 1);
    for (i, n) in [300, PAR_THRESHOLD + 300].into_iter().enumerate() {
        let db = fixture(n, 97, 11, 0xD15 + i as u64);
        // `u` interns its words in another order; `f` holds two NaNs and
        // both zeroes, `m` integers and floats of one value (so it is `Any`).
        let mut u = Table::new(
            "u",
            vec![
                ("ki", DataType::Integer),
                ("kt", DataType::Text),
                ("f", DataType::Float),
                ("m", DataType::Float),
            ],
        );
        for j in 0..200usize {
            let f = match j % 6 {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(nan_b),
                2 => Value::Float(-0.0),
                3 => Value::Float(0.0),
                4 => Value::Float(2.0),
                _ => Value::Null,
            };
            let m = match j % 4 {
                0 => Value::Int(2),
                1 => Value::Float(2.0),
                2 => Value::Float(-0.0),
                _ => Value::Int(0),
            };
            let kt = if j % 7 == 0 {
                Value::Null
            } else {
                Value::str(WORDS[5 - j % 6])
            };
            u.push(vec![Value::Int(j as i64 % 40 - 3), kt, f, m])
                .unwrap();
        }
        db.register(u).unwrap();
        for k in KEYS {
            check(
                &db,
                &format!("select distinct {k} from t where vi + 0 >= 0 or vi is null"),
            );
        }
        check(
            &db,
            "select distinct f, m from u where ki + 0 < 100 or ki is null",
        );
        check(
            &db,
            "select distinct t.kt, u.kt, u.f, u.m, t.kf, t.km from t join u on u.ki = t.ki",
        );
        check(
            &db,
            "select distinct u.f, t.kb from t join u on u.ki = t.ki",
        );
        check(
            &db,
            "select distinct x.s from (select kt as s from t where vi + 0 > 0 \
             union all select u.kt as s from t join u on u.ki = t.ki) x",
        );
    }
}

/// A value-level error in the kernel (an overflowing SUM, a NaN in MIN or
/// MAX, a string summed) replays on the engine's row path, so the error it
/// reports is the one a row-major evaluation hits first — the reference's.
#[test]
fn value_errors_replay_on_the_row_path() {
    let db = Database::new();
    let mut t = Table::new(
        "t",
        vec![
            ("k", DataType::Integer),
            ("big", DataType::Integer),
            ("f", DataType::Float),
            ("s", DataType::Text),
        ],
    );
    // Past the parallel threshold, every group overflowing whatever the
    // order its rows are summed in.
    for i in 0..(PAR_THRESHOLD + 100) as i64 {
        t.push(vec![
            Value::Int(i % 5),
            Value::Int(i64::MAX - i),
            if i == 4000 {
                Value::Float(f64::NAN)
            } else {
                Value::Float(i as f64)
            },
            Value::str("x"),
        ])
        .unwrap();
    }
    db.register(t).unwrap();
    for sql in [
        "select k, sum(big) from t group by k",
        "select k, count(*), sum(big) from t group by k",
        "select k, min(f) from t group by k",
        "select k, max(f), count(*) from t group by k",
        "select k, sum(s) from t group by k",
        "select k, avg(s) from t group by k",
        "select count(distinct k), sum(distinct big) from t",
    ] {
        let oracle = conquer_reference::evaluate_sql(&db, sql);
        assert!(oracle.is_err(), "fixture must make this fail: {sql}");
        check(&db, sql);
    }
    // The same table answers normally when the failing aggregate is not
    // asked for, and a lone NaN is a fine MIN of its own group.
    check(
        &db,
        "select k, min(big), max(big), count(f) from t group by k",
    );
    check(
        &db,
        "select f, min(f) from t where f > 3999 or k < 0 group by f",
    );
}
